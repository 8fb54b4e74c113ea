//! The prepare stage: a request's belief-side query and its
//! canonicalization, built once per request and beliefs version.

use crate::error::ServeError;
use crate::lru::Lru;
use crate::service::QueryRequest;
use lec_catalog::Catalog;
use lec_plan::{canonicalize, Canonical, JoinQuery};
use lec_workload::from_catalog::query_from_catalog;
use std::sync::Arc;

/// A request together with its belief-side query and canonicalization,
/// tagged with the beliefs version they were computed under. The prepare
/// stage builds one per request and beliefs version and memoizes it; cache
/// entries share the form of the request that populated them. The
/// concurrent driver builds one per distinct request shape so routing
/// (fingerprint → shard → worker) happens before any worker is involved.
/// A caller's prepared request is trusted only while the service's beliefs
/// version still matches — a recalibration in between invalidates it, and
/// it is prepared afresh rather than served stale.
///
/// A `PreparedRequest` must only ever be paired with the request it was
/// built from (same tables, joins, filters, order).
#[derive(Debug, Clone)]
pub(crate) struct PreparedRequest {
    pub(crate) request: QueryRequest,
    pub(crate) query: JoinQuery,
    pub(crate) canon: Canonical,
    pub(crate) version: u64,
}

impl PreparedRequest {
    /// Builds `request`'s query from `beliefs` and canonicalizes it,
    /// tagged with the beliefs `version`. A NaN filter bound is refused:
    /// the range estimators would drop it and plan an unbounded range, and
    /// the request would never equal itself, so no memo could confirm it.
    pub(crate) fn build(
        beliefs: &Catalog,
        request: &QueryRequest,
        version: u64,
    ) -> Result<Self, ServeError> {
        let nan_bound = request
            .filters
            .iter()
            .find(|f| f.lo.is_nan() || f.hi.is_nan());
        if let Some(filter) = nan_bound {
            return Err(ServeError::NanFilterBound(Box::new(filter.clone())));
        }
        let tables: Vec<&str> = request.tables.iter().map(String::as_str).collect();
        let (joins, filters) = (&request.joins, &request.filters);
        let query = query_from_catalog(beliefs, &tables, joins, filters, request.order_by)?;
        Ok(PreparedRequest {
            request: request.clone(),
            canon: canonicalize(&query),
            query,
            version,
        })
    }
}

/// The prepare stage's state: the prepared forms of up to `cache_capacity`
/// requests under the current beliefs, in an [`Lru`] keyed by
/// [`QueryRequest::key`], and the beliefs version they were built under. A
/// key match is confirmed with `==` on the request, so a digest collision
/// costs a rebuild and never serves another request's form — the plan
/// cache's own "false miss, never false hit" rule. A recalibration bumps
/// the version and clears the memo.
pub(crate) struct PrepareStage {
    /// Bumped on every recalibration; prepared requests and batch primers
    /// carry the version they were computed under and are ignored once it
    /// goes stale.
    version: u64,
    memo: Lru<Arc<PreparedRequest>>,
}

impl PrepareStage {
    pub(crate) fn new(capacity: usize) -> Self {
        PrepareStage {
            version: 0,
            memo: Lru::new(capacity),
        }
    }

    /// The one path every stage that needs a request's query goes through:
    /// the caller's prepared request while its beliefs version is current,
    /// else the memoized form, else one built from `beliefs` and memoized.
    /// Whichever it returns carries the current version.
    pub(crate) fn form(
        &mut self,
        beliefs: &Catalog,
        request: &QueryRequest,
        supplied: Option<&Arc<PreparedRequest>>,
    ) -> Result<Arc<PreparedRequest>, ServeError> {
        if let Some(p) = supplied.filter(|p| p.version == self.version) {
            return Ok(Arc::clone(p));
        }
        let key = request.key();
        if let Some(p) = self.memo.get(key, |p| p.request == *request) {
            return Ok(Arc::clone(p));
        }
        let built = Arc::new(PreparedRequest::build(beliefs, request, self.version)?);
        self.memo.insert(key, Arc::clone(&built));
        Ok(built)
    }

    /// Makes everything prepared or primed so far stale.
    pub(crate) fn invalidate(&mut self) {
        self.version += 1;
        self.memo.clear();
    }

    pub(crate) fn version(&self) -> u64 {
        self.version
    }

    pub(crate) fn memo_len(&self) -> usize {
        self.memo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests::{catalog, request};

    #[test]
    fn a_digest_collision_rebuilds_instead_of_serving_another_form() {
        let (mut stage, beliefs) = (PrepareStage::new(64), catalog());
        let (a, b) = (request(25.0), request(50.0));
        assert_ne!(a.key(), b.key());
        // Park `a`'s form under `b`'s key, as a digest collision would.
        let form_a = stage.form(&beliefs, &a, None).unwrap();
        stage.memo.insert(b.key(), Arc::clone(&form_a));
        assert!(stage.memo.get(b.key(), |p| p.request == b).is_none());
        let form_b = stage.form(&beliefs, &b, None).unwrap();
        assert!(!Arc::ptr_eq(&form_a, &form_b));
        assert_eq!(form_b.request, b);
        let fresh = PreparedRequest::build(&beliefs, &b, 0).unwrap();
        assert_eq!(form_b.canon.fingerprint, fresh.canon.fingerprint);
    }
}
