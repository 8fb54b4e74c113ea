//! The concurrent serving tier: shard-affine workers over one logical
//! request stream, with bounded batch windows and in-window miss
//! deduplication.
//!
//! A [`ConcurrentServer`] partitions a request stream across `N` workers
//! by **cache-shard affinity**: a router prepares each distinct request
//! once (against an immutable beliefs snapshot; requests are identified by
//! the same digest-and-confirm key as a service's prepare memo), the
//! fingerprint picks a cache shard ([`shard_of`]),
//! and the shard picks the worker (`shard % workers`). Workers serve with
//! the router's prepared forms while their beliefs are unchanged. Two
//! requests can only race if they are isomorphic-or-co-sharded, and those
//! are exactly the ones that serialize — against each other only — on one
//! worker.
//!
//! Each worker owns a full [`QueryService`] (same seeds, same catalogs, so
//! identical generated data) and processes its share of the stream in
//! global-ordinal order, in **epochs** of `batch_window` consecutive
//! ordinals: the worker first primes the epoch's misses — one optimizer
//! run per distinct would-miss fingerprint, isomorphic repeats
//! deduplicated — then serves each request at its *global* ordinal, so
//! memory draws and fault schedules reproduce the sequential loop's
//! exactly. Priming and serving at an ordinal are the service's
//! crate-private batch-window protocol; [`ConcurrentServer::serve_stream`]
//! and [`ConcurrentServer::serve_stream_collect`] are its only users.
//!
//! ### Determinism contract
//!
//! Epoch boundaries sit at global-ordinal multiples of `batch_window`, so
//! the partition of the stream into (worker, epoch) cells is a pure
//! function of the stream — never of scheduling. Because fingerprints are
//! shard-affine and shards are worker-affine, every per-shard request
//! subsequence lands on one worker unchanged, which gives two exact
//! equivalences (property-tested in `tests/concurrent_properties.rs`):
//!
//! - **workers = 1, window = 1** is bit-identical to calling
//!   [`QueryService::serve`] in a loop — same plans, same expected-cost
//!   bits, same counters.
//! - **N workers ≡ 1 worker** at any fixed window, for drift-quiet
//!   streams: same served-plan multiset and identical aggregate counters
//!   (cache, resilience, invocations, dedup). Recalibrations are
//!   worker-local — each worker only sees its own feedback — so streams
//!   that *do* drift are served correctly but may recalibrate at different
//!   points than the single-worker run; [`StreamOutcome`] reports the
//!   recalibration count so callers can assert the quiet case.
//!
//! Workers share no mutable state at all — each owns its service, and with
//! it its plan cache, memo, breakers and counters — so no locks, atomics
//! or barriers are involved; the only synchronization is the final join.

use crate::cache::shard_of;
use crate::error::ServeError;
use crate::prepare::PreparedRequest;
use crate::service::{QueryRequest, QueryService, ServeConfig, ServedQuery};
use crate::ServeRoute;
use lec_catalog::Catalog;
use lec_core::{OptStats, ResilienceCounters};
use lec_cost::CostModel;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Worker and batching knobs for a [`ConcurrentServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConcurrencyConfig {
    /// Worker count. Clamped to the cache shard count (extra workers could
    /// never receive a request). `1` runs inline on the calling thread.
    pub workers: usize,
    /// Epoch length in global ordinals: each worker primes (optimizes the
    /// distinct misses of) its slice of one epoch before serving it. `1`
    /// disables batching — every miss optimizes on the serve path, exactly
    /// like the sequential loop.
    pub batch_window: usize,
}

impl Default for ConcurrencyConfig {
    fn default() -> Self {
        ConcurrencyConfig {
            workers: 1,
            batch_window: 1,
        }
    }
}

/// Compact per-request record from a stream run. The full [`ServedQuery`]
/// (plan, execution report, feedback) is only retained by
/// [`ConcurrentServer::serve_stream_collect`]; at bench scale (hundreds of
/// thousands of requests) keeping all of them would dwarf the working set.
#[derive(Debug, Clone)]
pub struct RequestOutcome {
    /// Wall time of this request, in nanoseconds: its serve call plus an
    /// even share (rounded down) of its batch window's priming, so the
    /// optimizer work priming moved off the serve path is still charged to
    /// the requests it served and latencies stay comparable with the
    /// sequential loop's.
    pub wall_ns: u64,
    /// Whether the plan came from the cache.
    pub cache_hit: bool,
    /// Whether something other than the primary pick served.
    pub degraded: bool,
    /// The route that served.
    pub route: ServeRoute,
    /// Execution attempts made.
    pub attempts: u32,
    /// Expected cost of the served plan.
    pub expected_cost: f64,
}

/// Aggregate result of one stream run.
#[derive(Debug, Clone)]
pub struct StreamOutcome {
    /// One record per request, in stream (global-ordinal) order.
    pub outcomes: Vec<RequestOutcome>,
    /// Whole-stream wall time in nanoseconds (router pre-pass included).
    pub wall_ns: u64,
    /// Optimizer runs saved by in-window deduplication, summed over every
    /// (worker, epoch) cell.
    pub dedup_saved: u64,
    /// Number of (worker, epoch) priming cells processed.
    pub windows: u64,
    /// Recalibration rounds across all workers during the run — zero means
    /// the stream was drift-quiet and the N ≡ 1 counter equivalence holds
    /// exactly.
    pub recalibrations: u64,
}

/// What one worker brings back from its share of the stream.
struct WorkerRun {
    /// `(global ordinal, outcome, full result if collecting)`.
    served: Vec<(usize, RequestOutcome, Option<ServedQuery>)>,
    dedup_saved: u64,
    windows: u64,
}

/// A worker's first failure, with the global ordinal it happened at.
type WorkerError = (usize, ServeError);

/// The multi-worker serving driver. See the module docs for the
/// architecture and the determinism contract.
///
/// Its router prepares each distinct request of a stream once and hands the
/// shared form to the owning worker with every occurrence; a worker whose
/// beliefs have since recalibrated prepares through its own service's memo
/// instead.
pub struct ConcurrentServer<M: CostModel + Clone + Send + Sync> {
    services: Vec<QueryService<M>>,
    /// The router's immutable beliefs snapshot: requests are prepared
    /// against it once, up front. Workers whose beliefs have since
    /// recalibrated ignore the stale preparation and prepare through their
    /// own memo (version tag 0 vs. the service's bumped version); only
    /// routing affinity, not correctness, degrades then.
    router_beliefs: Catalog,
    cache_shards: usize,
    batch_window: usize,
}

impl<M: CostModel + Clone + Send + Sync> ConcurrentServer<M> {
    /// Builds `min(workers, cache_shards)` identically seeded services —
    /// each generates the same simulated data, so any worker executes any
    /// plan identically.
    pub fn new(
        model: M,
        beliefs: Catalog,
        truth: Catalog,
        config: ServeConfig,
        concurrency: ConcurrencyConfig,
    ) -> Result<Self, ServeError> {
        if concurrency.workers == 0 || concurrency.batch_window == 0 {
            return Err(ServeError::Config(
                "worker count and batch window must be positive".into(),
            ));
        }
        let workers = concurrency.workers.min(config.cache_shards.max(1));
        let services = (0..workers)
            .map(|_| {
                QueryService::new(
                    model.clone(),
                    beliefs.clone(),
                    truth.clone(),
                    config.clone(),
                )
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ConcurrentServer {
            services,
            router_beliefs: beliefs,
            cache_shards: config.cache_shards,
            batch_window: concurrency.batch_window,
        })
    }

    /// Effective worker count (after clamping to the shard count).
    pub fn workers(&self) -> usize {
        self.services.len()
    }

    /// The per-worker services, in worker order (read-only; tests compare
    /// their counters against single-worker runs).
    pub fn services(&self) -> &[QueryService<M>] {
        &self.services
    }

    /// Serves a whole stream, keeping only compact per-request records.
    pub fn serve_stream(&mut self, requests: &[QueryRequest]) -> Result<StreamOutcome, ServeError> {
        self.run_stream(requests, false).map(|(outcome, _)| outcome)
    }

    /// Serves a whole stream, additionally retaining every full
    /// [`ServedQuery`] in stream order (test-scale streams only).
    pub fn serve_stream_collect(
        &mut self,
        requests: &[QueryRequest],
    ) -> Result<(StreamOutcome, Vec<ServedQuery>), ServeError> {
        self.run_stream(requests, true)
    }

    fn run_stream(
        &mut self,
        requests: &[QueryRequest],
        collect: bool,
    ) -> Result<(StreamOutcome, Vec<ServedQuery>), ServeError> {
        // lec-lint: allow(no-wallclock-or-ambient-rng) — observability-only wall time; feeds StreamOutcome::wall_ns, never a plan choice
        let clock = std::time::Instant::now();
        let workers = self.services.len();
        let window = self.batch_window;

        // Router pre-pass: one preparation per distinct request, memoized
        // on the request key a service's prepare memo uses, a key match
        // confirmed field by field (a collision prepares the request
        // again, unmemoized). Stream position `i` uses
        // `prepared[routed[i]]`, whose fingerprint's shard picks the
        // worker that owns it.
        let mut memo: BTreeMap<u64, usize> = BTreeMap::new();
        let mut prepared: Vec<Arc<PreparedRequest>> = Vec::new();
        let mut routed: Vec<usize> = Vec::with_capacity(requests.len());
        let mut worklists: Vec<Vec<usize>> = vec![Vec::new(); workers];
        for (ordinal, request) in requests.iter().enumerate() {
            let key = request.key();
            let known = memo.get(&key).copied();
            let idx = match known.filter(|&idx| prepared[idx].request == *request) {
                Some(idx) => idx,
                None => {
                    let built = PreparedRequest::build(&self.router_beliefs, request, 0)?;
                    prepared.push(Arc::new(built));
                    memo.entry(key).or_insert(prepared.len() - 1);
                    prepared.len() - 1
                }
            };
            routed.push(idx);
            let shard = shard_of(&prepared[idx].canon.fingerprint, self.cache_shards);
            worklists[shard % workers].push(ordinal);
        }

        // One worker's whole run: epoch by epoch, prime then serve. No
        // shared mutable state, so workers need no coordination at all.
        let run_worker = |svc: &mut QueryService<M>,
                          ordinals: &[usize]|
         -> Result<WorkerRun, WorkerError> {
            let mut run = WorkerRun {
                served: Vec::with_capacity(ordinals.len()),
                dedup_saved: 0,
                windows: 0,
            };
            let mut pos = 0;
            while pos < ordinals.len() {
                let epoch = ordinals[pos] / window;
                let mut end = pos;
                while end < ordinals.len() && ordinals[end] / window == epoch {
                    end += 1;
                }
                let batch: Vec<(&QueryRequest, Option<&Arc<PreparedRequest>>)> = ordinals[pos..end]
                    .iter()
                    .map(|&i| (&requests[i], Some(&prepared[routed[i]])))
                    .collect();
                // lec-lint: allow(no-wallclock-or-ambient-rng) — observability-only wall time; feeds RequestOutcome::wall_ns, never a plan choice
                let t = std::time::Instant::now();
                let primer = svc.prime_window(&batch).map_err(|e| (ordinals[pos], e))?;
                let prime_share = t.elapsed().as_nanos() as u64 / (end - pos) as u64;
                run.dedup_saved += primer.dedup_saved;
                run.windows += 1;
                for &ordinal in &ordinals[pos..end] {
                    // lec-lint: allow(no-wallclock-or-ambient-rng) — observability-only wall time; feeds RequestOutcome::wall_ns, never a plan choice
                    let t = std::time::Instant::now();
                    let served = svc
                        .serve_at(
                            ordinal as u64,
                            &requests[ordinal],
                            Some(&prepared[routed[ordinal]]),
                            Some(&primer),
                        )
                        .map_err(|e| (ordinal, e))?;
                    let outcome = RequestOutcome {
                        wall_ns: t.elapsed().as_nanos() as u64 + prime_share,
                        cache_hit: served.cache_hit,
                        degraded: served.resilience.degraded,
                        route: served.resilience.route,
                        attempts: served.resilience.attempts,
                        expected_cost: served.expected_cost,
                    };
                    run.served
                        .push((ordinal, outcome, collect.then_some(served)));
                }
                pos = end;
            }
            Ok(run)
        };

        let runs: Vec<Result<WorkerRun, WorkerError>> = if workers == 1 {
            vec![run_worker(&mut self.services[0], &worklists[0])]
        } else {
            let run_worker = &run_worker;
            // Join *every* handle before the scope closes: `thread::scope`
            // re-raises panics from unjoined threads at scope exit, so a
            // short-circuiting collect would panic anyway. Gathering all the
            // `thread::Result`s first turns a worker panic into a
            // `ServeError` instead of tearing down the caller.
            let joined: Vec<std::thread::Result<_>> = std::thread::scope(|scope| {
                let handles: Vec<_> = self
                    .services
                    .iter_mut()
                    .zip(&worklists)
                    .map(|(svc, list)| scope.spawn(move || run_worker(svc, list)))
                    .collect();
                handles.into_iter().map(|h| h.join()).collect()
            });
            joined
                .into_iter()
                .enumerate()
                .map(|(worker, r)| r.map_err(|_| ServeError::WorkerPanicked { worker }))
                .collect::<Result<Vec<_>, ServeError>>()?
        };

        // A failure anywhere fails the stream; report the earliest one by
        // global ordinal so the error is scheduling-independent.
        let mut dedup_saved = 0;
        let mut windows = 0;
        let mut first_error: Option<WorkerError> = None;
        let mut merged: Vec<(usize, RequestOutcome, Option<ServedQuery>)> = Vec::new();
        for run in runs {
            match run {
                Ok(run) => {
                    dedup_saved += run.dedup_saved;
                    windows += run.windows;
                    merged.extend(run.served);
                }
                Err((ordinal, e)) if first_error.as_ref().is_none_or(|(o, _)| ordinal < *o) => {
                    first_error = Some((ordinal, e));
                }
                Err(_) => {}
            }
        }
        if let Some((_, e)) = first_error {
            return Err(e);
        }
        merged.sort_by_key(|(ordinal, _, _)| *ordinal);
        let mut outcomes = Vec::with_capacity(merged.len());
        let mut full = Vec::with_capacity(if collect { merged.len() } else { 0 });
        for (_, outcome, served) in merged {
            outcomes.push(outcome);
            if let Some(served) = served {
                full.push(served);
            }
        }
        let recalibrations = self.recalibrations();
        Ok((
            StreamOutcome {
                outcomes,
                wall_ns: clock.elapsed().as_nanos() as u64,
                dedup_saved,
                windows,
                recalibrations,
            },
            full,
        ))
    }

    /// Aggregate optimizer statistics across all workers (counters add;
    /// per-rank wall vectors extend element-wise).
    pub fn stats(&self) -> OptStats {
        let mut total = OptStats::new("serve-concurrent", 0);
        for svc in &self.services {
            total.absorb(&svc.stats());
        }
        total
    }

    /// Aggregate fault/retry/degradation counters across all workers.
    pub fn resilience_counters(&self) -> ResilienceCounters {
        self.stats().resilience
    }

    /// Total optimizer invocations across all workers.
    pub fn optimizer_invocations(&self) -> u64 {
        self.services
            .iter()
            .map(QueryService::optimizer_invocations)
            .sum()
    }

    /// Total recalibration rounds across all workers.
    pub fn recalibrations(&self) -> u64 {
        self.services.iter().map(QueryService::recalibrations).sum()
    }

    /// Total requests served across all workers.
    pub fn queries_served(&self) -> u64 {
        self.services.iter().map(QueryService::queries_served).sum()
    }

    /// Total cache misses answered from a batch primer across all workers.
    pub fn primed_consumed(&self) -> u64 {
        self.services
            .iter()
            .map(QueryService::primed_consumed)
            .sum()
    }

    /// Total live cache entries across all workers.
    pub fn cache_len(&self) -> usize {
        self.services.iter().map(QueryService::cache_len).sum()
    }
}
