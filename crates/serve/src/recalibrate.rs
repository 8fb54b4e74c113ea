//! The feedback and recalibrate stages: which drift windows execution
//! feedback feeds, how a fired drift event updates the belief catalog,
//! and the sampled confidence intervals certificates range over.
//!
//! A service without a [`Sampler`] *blends*: it folds the drift window's
//! observed mean into the belief statistic (a filtered column's histogram
//! takes a synthesized sample realizing the observed fraction, and a
//! join's binding distinct count moves toward the count the observed
//! selectivity implies), consumes no randomness and certifies nothing. A
//! service built with
//! [`ServeConfig::resample`](crate::ServeConfig::resample) holds a
//! `Sampler`: it replaces the statistic with a fresh row sample from the
//! truth catalog, keeps the sample's confidence interval, and builds the
//! interval box the certify stage bounds a served plan's suboptimality
//! over.
//!
//! The certify stage is [`RecalibrateStage::certify`]: it owns a memo of
//! finished certificates (see its docs), so a request whose query, served
//! plan and interval box have not moved since its last certificate is not
//! certified again.

use crate::drift::{DriftDetector, DriftEvent, DriftTarget};
use crate::error::ServeError;
use crate::lru::Lru;
use crate::service::{PreparedRequest, QueryRequest, ResampleConfig};
use lec_catalog::sampling::{SampleConfig, SampleEstimator, StatInterval};
use lec_catalog::{Catalog, ColumnMeta, Histogram, Predicate};
use lec_core::certificate::{certify_plan, Certificate, QueryIntervals};
use lec_core::MemoryModel;
use lec_cost::CostModel;
use lec_exec::ExecFeedback;
use lec_plan::{JoinQuery, Plan, RelSet};
use lec_stats::Distribution;
use lec_workload::from_catalog::{page_selectivity, FilterSpec, JoinSpec};
use rand_chacha::rand_core::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// The recalibrate stage's state: the drift detector the feedback stage
/// feeds, the sampler when the service resamples, the certificate memo,
/// and the recalibration and decision counters.
pub(crate) struct RecalibrateStage {
    pub(crate) drift: DriftDetector,
    pub(crate) sampler: Option<Sampler>,
    /// Finished certificates by [`QueryRequest::key`], at most
    /// `cache_capacity` of them (see [`certify`](RecalibrateStage::certify)).
    pub(crate) certificates: Lru<Certified>,
    /// Serves whose certificate the memo answered.
    pub(crate) certificate_hits: u64,
    pub(crate) recalibrations: u64,
    pub(crate) reoptimize_decisions: u64,
    pub(crate) recost_decisions: u64,
}

/// One memoized certificate with every input it was computed from. The
/// model and the observed memory distribution are the service's, fixed
/// for its lifetime, so these three inputs determine the certificate.
pub(crate) struct Certified {
    /// The request and its belief-side query, shared with the prepare
    /// stage.
    prepared: Arc<PreparedRequest>,
    /// The served plan, in the request's numbering.
    plan: Plan,
    intervals: QueryIntervals,
    certificate: Certificate,
}

impl Certified {
    /// Whether this entry was computed from exactly these inputs. The
    /// request and query compare with `==`, the intervals by bit pattern.
    /// `==` can only blur a signed zero, and none reaches the certificate
    /// through the query or the plan: a plan holds no float, and
    /// [`JoinQuery::new`] admits only finite, positive statistics, so two
    /// queries that compare equal are equal bit for bit. (The request's
    /// filter bounds reach the certificate only through the query.) The
    /// intervals may hold zeros, and `delta` is copied into the
    /// certificate, so they are compared by bits.
    fn confirms(&self, prepared: &Arc<PreparedRequest>, plan: &Plan, iv: &QueryIntervals) -> bool {
        let same_form = Arc::ptr_eq(&self.prepared, prepared)
            || (self.prepared.request == prepared.request && self.prepared.query == prepared.query);
        same_form && self.plan == *plan && same_bits(&self.intervals, iv)
    }
}

/// Bit-pattern equality of two interval boxes.
fn same_bits(a: &QueryIntervals, b: &QueryIntervals) -> bool {
    fn bits(v: &[(f64, f64)]) -> impl Iterator<Item = (u64, u64)> + '_ {
        v.iter().map(|(lo, hi)| (lo.to_bits(), hi.to_bits()))
    }
    a.delta.to_bits() == b.delta.to_bits()
        && bits(&a.relation_selectivity).eq(bits(&b.relation_selectivity))
        && bits(&a.predicate_selectivity).eq(bits(&b.predicate_selectivity))
}

impl RecalibrateStage {
    /// The certify stage: the (ε, δ) certificate of `plan`, served for
    /// `prepared`'s request, over the sampler's current interval box;
    /// `None` when the service does not resample.
    ///
    /// [`certify_plan`] is a pure function of the belief query, the plan
    /// and the interval box, given the service's fixed model and observed
    /// memory. So finished certificates are memoized by request key and
    /// each hit is confirmed against all three inputs (and the request)
    /// field by field ([`Certified::confirms`]): a changed statistic, a
    /// resampled interval or a ladder rung's different plan is a miss,
    /// recertified and stored over the old entry. A recalibration does not
    /// clear the memo: a drift on one table leaves the certificates of
    /// requests that do not read it valid, and their next serve confirms
    /// them. The interval box is built on every serve, hit or miss, so
    /// first-touch samples draw exactly when they always did.
    ///
    /// Kept out of line: the serve path of a service without a sampler
    /// only calls it.
    #[inline(never)]
    pub(crate) fn certify<M: CostModel + ?Sized>(
        &mut self,
        model: &M,
        observed_memory: &Distribution,
        beliefs: &Catalog,
        truth: &Catalog,
        prepared: &Arc<PreparedRequest>,
        plan: &Plan,
    ) -> Result<Option<Certificate>, ServeError> {
        let Some(sampler) = &mut self.sampler else {
            return Ok(None);
        };
        let (request, query) = (&prepared.request, &prepared.query);
        let intervals = sampler.interval_box(beliefs, truth, request, query)?;
        let key = request.key();
        let hit = self
            .certificates
            .get(key, |c| c.confirms(prepared, plan, &intervals));
        if let Some(hit) = hit {
            // A hit confirmed against a form prepared after a
            // recalibration takes that form, so the memo does not keep the
            // superseded one alive.
            if !Arc::ptr_eq(&hit.prepared, prepared) {
                hit.prepared = Arc::clone(prepared);
            }
            self.certificate_hits += 1;
            return Ok(Some(hit.certificate.clone()));
        }
        let memory = MemoryModel::Static(observed_memory.clone());
        let certificate = certify_plan(query, model, &memory, plan, &intervals)?;
        self.certificates.insert(
            key,
            Certified {
                prepared: Arc::clone(prepared),
                plan: plan.clone(),
                intervals,
                certificate: certificate.clone(),
            },
        );
        Ok(Some(certificate))
    }

    /// The feedback stage: feeds execution observations to the drift
    /// detector and returns the events it fires. `query` is the
    /// belief-side query the request was planned under (its estimates are
    /// what the observations refute).
    pub(crate) fn observe(
        &mut self,
        beliefs: &Catalog,
        request: &QueryRequest,
        query: &JoinQuery,
        feedback: &ExecFeedback,
    ) -> Result<Vec<DriftEvent>, ServeError> {
        // (statistic, estimated, observed) for every attributable
        // observation, selections first.
        let mut observed = Vec::new();
        for obs in &feedback.selections {
            // Attribute the relation's observed shrinkage to its first
            // filter (a relation with several filters gets one composite
            // window; the recalibration re-spreads mass over all of them).
            let table = &request.tables[obs.rel];
            if let Some(filter) = request.filters.iter().find(|f| f.table == *table) {
                let estimated = query.relation(obs.rel).local_selectivity;
                observed.push((filter_stat(filter).0, estimated, obs.observed_selectivity()));
            }
        }
        let position = |t: &String| request.tables.iter().position(|x| x == t);
        for obs in &feedback.joins {
            // Only leaf joins (output covering exactly two base relations)
            // isolate a single predicate's selectivity.
            let leaf = request.joins.iter().find(|j| {
                matches!((position(&j.left_table), position(&j.right_table)),
                    (Some(l), Some(r)) if RelSet::single(l).insert(r) == obs.rels)
            });
            if let Some(spec) = leaf {
                let (target, pred) = join_stat(spec);
                let estimated = pred.estimate(beliefs)?;
                observed.push((target, estimated, obs.observed_selectivity()));
            }
        }
        Ok(observed
            .into_iter()
            .filter_map(|(target, estimated, obs)| self.drift.observe(target, estimated, obs))
            .collect())
    }

    /// Updates the drifted statistic in `beliefs`: replaced by a fresh
    /// sample from `truth` when the stage has a sampler, else blended
    /// toward the observed mean with weight `blend`
    /// ([`DriftConfig::blend`](crate::DriftConfig::blend)), which consumes
    /// no randomness. Counts the recalibration once the update succeeds.
    pub(crate) fn update_beliefs(
        &mut self,
        blend: f64,
        beliefs: &mut Catalog,
        truth: &Catalog,
        request: &QueryRequest,
        event: &DriftEvent,
    ) -> Result<(), ServeError> {
        let sampler = &mut self.sampler;
        match &event.target {
            DriftTarget::Selection { table, column } => {
                let filter = request
                    .filters
                    .iter()
                    .find(|f| f.table == *table && f.column == *column)
                    .ok_or_else(|| {
                        ServeError::Config(format!(
                            "drift on `{table}.{column}` without a matching filter"
                        ))
                    })?;
                match sampler {
                    None => blend_selection(
                        belief_column(beliefs, table, column)?,
                        filter,
                        event.mean_observed,
                        blend,
                    )?,
                    Some(s) => {
                        s.sample(truth, &event.target, &filter_stat(filter).1, s.config.draws)?;
                        // The belief column's histogram is rebuilt from the
                        // same fresh sample budget, so subsequent estimates
                        // track truth instead of blending toward it.
                        let hist = s
                            .estimator(truth, s.config.draws)
                            .sample_histogram(table, column)?;
                        belief_column(beliefs, table, column)?.histogram = Some(hist);
                    }
                }
            }
            DriftTarget::Join {
                left_table,
                left_column,
                right_table,
                right_column,
            } => {
                // A resample replaces the statistic outright: weight 1.
                let (observed, weight) = match sampler {
                    None => (event.mean_observed, blend),
                    Some(s) => {
                        let pred =
                            join_predicate(left_table, left_column, right_table, right_column);
                        let sampled = s.sample(truth, &event.target, &pred, s.config.draws)?;
                        (sampled.point, 1.0)
                    }
                };
                // System R containment: `sel = 1 / max(d_left, d_right)`,
                // so only the larger side's distinct count is read; move it
                // to the count the observed selectivity implies.
                let implied = (1.0 / observed.max(1e-12)).round().max(1.0);
                let col =
                    binding_column(beliefs, left_table, left_column, right_table, right_column)?;
                let old = col.distinct as f64;
                col.distinct = ((1.0 - weight) * old + weight * implied).round().max(1.0) as u64;
            }
        }
        if let Some(s) = sampler {
            s.resamples += 1;
        }
        self.recalibrations += 1;
        Ok(())
    }
}

/// The resampling state: the sampling config, the RNG behind every draw,
/// and the cached confidence interval per sampled statistic (row-domain for
/// joins). A service that resamples holds one, built from
/// [`ServeConfig::resample`](crate::ServeConfig::resample).
pub(crate) struct Sampler {
    config: ResampleConfig,
    rng: ChaCha8Rng,
    pub(crate) intervals: BTreeMap<DriftTarget, StatInterval>,
    /// Drift-triggered resampling rounds performed so far.
    pub(crate) resamples: u64,
}

impl Sampler {
    /// A sampler seeded from `config`, which must give positive draw
    /// counts and bucket count and a `delta` in `(0, 1)`.
    pub(crate) fn new(config: ResampleConfig) -> Result<Self, ServeError> {
        let delta_ok = config.delta > 0.0 && config.delta < 1.0;
        if config.draws == 0 || config.initial_draws == 0 || config.buckets == 0 || !delta_ok {
            return Err(ServeError::Config(format!(
                "resample needs positive draw and bucket counts and a delta in (0, 1): {config:?}"
            )));
        }
        Ok(Sampler {
            config,
            rng: ChaCha8Rng::seed_from_u64(config.seed),
            intervals: BTreeMap::new(),
            resamples: 0,
        })
    }

    /// An estimator over `truth` at `draws` rows, seeded from the RNG.
    fn estimator<'t>(&mut self, truth: &'t Catalog, draws: u64) -> SampleEstimator<'t> {
        let cfg = SampleConfig {
            draws,
            delta: self.config.delta,
            bound: self.config.bound,
            buckets: self.config.buckets,
        };
        SampleEstimator::new(truth, cfg, self.rng.next_u64())
    }

    /// Samples `pred` against `truth` at `draws` rows and caches the
    /// interval under `target`.
    fn sample(
        &mut self,
        truth: &Catalog,
        target: &DriftTarget,
        pred: &Predicate,
        draws: u64,
    ) -> Result<StatInterval, ServeError> {
        let interval = self.estimator(truth, draws).sample_selectivity(pred)?;
        self.intervals.insert(target.clone(), interval);
        Ok(interval)
    }

    /// The cached interval for `target`, or a first-touch sample at the
    /// cheap `initial_draws` budget.
    fn interval(
        &mut self,
        truth: &Catalog,
        (target, pred): (DriftTarget, Predicate),
    ) -> Result<StatInterval, ServeError> {
        match self.intervals.get(&target) {
            Some(iv) => Ok(*iv),
            None => self.sample(truth, &target, &pred, self.config.initial_draws),
        }
    }

    /// Builds the interval box for `query` from the per-statistic
    /// intervals — the statistics a certificate ranges over.
    ///
    /// Statistics without a drift-target representation (unfiltered
    /// relations, relations with several filters) are treated as exactly
    /// known, like every other statistic the paper's model takes as given;
    /// each sampled interval is widened to include the belief catalog's own
    /// point estimate (coverage only grows), and join intervals are mapped
    /// from the row domain to the page domain the query's predicates live
    /// in.
    pub(crate) fn interval_box(
        &mut self,
        beliefs: &Catalog,
        truth: &Catalog,
        request: &QueryRequest,
        query: &JoinQuery,
    ) -> Result<QueryIntervals, ServeError> {
        let mut delta = 0.0;
        let mut cover = |lo: f64, hi: f64, point: f64, iv: &StatInterval| {
            let (lo, hi) = (lo.min(point), hi.max(point));
            if hi > lo {
                delta += iv.delta;
            }
            (lo, hi)
        };

        let mut relation_selectivity = Vec::with_capacity(query.n());
        for (idx, table) in request.tables.iter().enumerate() {
            let point = query.relation(idx).local_selectivity;
            let mut filters = request.filters.iter().filter(|f| f.table == *table);
            match (filters.next(), filters.next()) {
                (Some(filter), None) if point < 1.0 => {
                    let iv = self.interval(truth, filter_stat(filter))?;
                    relation_selectivity.push(cover(iv.lo, iv.hi, point, &iv));
                }
                _ => relation_selectivity.push((point, point)),
            }
        }

        let mut predicate_selectivity = Vec::with_capacity(query.predicates().len());
        // The built query keeps the request's join order.
        for (spec, pred) in request.joins.iter().zip(query.predicates()) {
            let point = pred.selectivity;
            let iv = self.interval(truth, join_stat(spec))?;
            let (lt, rt) = (
                beliefs.table(&spec.left_table)?,
                beliefs.table(&spec.right_table)?,
            );
            predicate_selectivity.push(cover(
                page_selectivity(lt, rt, iv.lo),
                page_selectivity(lt, rt, iv.hi),
                point,
                &iv,
            ));
        }

        Ok(QueryIntervals {
            relation_selectivity,
            predicate_selectivity,
            delta,
        })
    }
}

/// The statistic a filter estimates: its drift target and range predicate.
pub(crate) fn filter_stat(f: &FilterSpec) -> (DriftTarget, Predicate) {
    (
        DriftTarget::Selection {
            table: f.table.clone(),
            column: f.column.clone(),
        },
        Predicate::Range {
            table: f.table.clone(),
            column: f.column.clone(),
            lo: f.lo,
            hi: f.hi,
        },
    )
}

/// The statistic a join estimates: its drift target and equi-join
/// predicate.
pub(crate) fn join_stat(j: &JoinSpec) -> (DriftTarget, Predicate) {
    (
        DriftTarget::Join {
            left_table: j.left_table.clone(),
            left_column: j.left_column.clone(),
            right_table: j.right_table.clone(),
            right_column: j.right_column.clone(),
        },
        join_predicate(
            &j.left_table,
            &j.left_column,
            &j.right_table,
            &j.right_column,
        ),
    )
}

fn join_predicate(lt: &str, lc: &str, rt: &str, rc: &str) -> Predicate {
    Predicate::EquiJoin {
        left_table: lt.into(),
        left_column: lc.into(),
        right_table: rt.into(),
        right_column: rc.into(),
    }
}

/// The belief column `table.column`, for in-place recalibration.
fn belief_column<'c>(
    beliefs: &'c mut Catalog,
    table: &str,
    column: &str,
) -> Result<&'c mut ColumnMeta, ServeError> {
    beliefs
        .table_mut(table)?
        .columns
        .iter_mut()
        .find(|c| c.name == column)
        .ok_or_else(|| {
            ServeError::Config(format!("column `{table}.{column}` missing from beliefs"))
        })
}

/// The join column whose distinct count the containment estimate reads:
/// the side with more distinct values (the left on a tie).
fn binding_column<'c>(
    beliefs: &'c mut Catalog,
    left_table: &str,
    left_column: &str,
    right_table: &str,
    right_column: &str,
) -> Result<&'c mut ColumnMeta, ServeError> {
    let d_left = beliefs.table(left_table)?.column(left_column)?.distinct;
    let d_right = beliefs.table(right_table)?.column(right_column)?.distinct;
    if d_left >= d_right {
        belief_column(beliefs, left_table, left_column)
    } else {
        belief_column(beliefs, right_table, right_column)
    }
}

/// Folds an observed filter selectivity into the column's histogram
/// (installing a uniform one first if the column had none).
fn blend_selection(
    col: &mut ColumnMeta,
    filter: &FilterSpec,
    observed_sel: f64,
    blend: f64,
) -> Result<(), ServeError> {
    let (col_min, col_max) = (col.min, col.max);
    let h = match &mut col.histogram {
        Some(h) => h,
        slot => {
            // Seed a uniform prior over the column's span so there is
            // something to blend the observations into.
            let span: Vec<f64> = (0..=16)
                .map(|i| col_min + (col_max - col_min) * i as f64 / 16.0)
                .collect();
            slot.insert(Histogram::equi_width(&span, 8)?)
        }
    };

    // Synthesize a sample realizing the observed in-range fraction:
    // spread the in-range mass over points inside [lo, hi] and the
    // remainder over the rest of the histogram's domain, both evenly.
    const SAMPLE: u64 = 10_000;
    const POINTS: u64 = 8;
    let in_total = ((observed_sel.clamp(0.0, 1.0) * SAMPLE as f64).round() as u64).min(SAMPLE);
    let out_total = SAMPLE - in_total;
    let mut obs: Vec<(f64, u64)> = Vec::new();
    spread(&mut obs, filter.lo, filter.hi, in_total, POINTS);
    let bounds = h.boundaries();
    let (dom_lo, dom_hi) = (
        bounds.first().copied().unwrap_or(filter.lo).min(filter.lo),
        bounds.last().copied().unwrap_or(filter.hi).max(filter.hi),
    );
    let left_w = (filter.lo - dom_lo).max(0.0);
    let right_w = (dom_hi - filter.hi).max(0.0);
    let total_w = left_w + right_w;
    if out_total > 0 && total_w > 0.0 {
        let left_share = (((out_total as f64) * left_w / total_w).round() as u64).min(out_total);
        spread(&mut obs, dom_lo, filter.lo, left_share, POINTS);
        spread(&mut obs, filter.hi, dom_hi, out_total - left_share, POINTS);
    }
    if obs.iter().map(|&(_, c)| c).sum::<u64>() > 0 {
        h.merge_observations(&obs, blend)?;
    }
    Ok(())
}

/// Appends `points` evenly spaced observation sites across `[lo, hi]`
/// carrying `count` rows in total (remainder goes to the first site).
fn spread(obs: &mut Vec<(f64, u64)>, lo: f64, hi: f64, count: u64, points: u64) {
    if count == 0 || hi < lo {
        return;
    }
    let points = points.max(1);
    let per = count / points;
    let mut rem = count % points;
    for i in 0..points {
        let frac = (i as f64 + 0.5) / points as f64;
        let v = lo + (hi - lo) * frac;
        let c = per + if rem > 0 { 1 } else { 0 };
        rem = rem.saturating_sub(1);
        if c > 0 {
            obs.push((v, c));
        }
    }
}
