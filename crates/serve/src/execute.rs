//! The pick, verify and execute stages. Pick and verify keep nothing
//! between requests; the execute stage owns the simulated disk, the two
//! circuit breakers and the resilience counters, and walks the fallback
//! ladder.

use crate::cache::{shard_of, PlanCache};
use crate::error::ServeError;
use crate::plan::CacheEntry;
use crate::prepare::PreparedRequest;
use crate::recalibrate::filter_stat;
use crate::resilience::{Breaker, ResilienceReport, ServeRoute};
use crate::service::{QueryRequest, ServeConfig};
use lec_catalog::Catalog;
use lec_core::evaluate::profile_and_expected_cost;
use lec_core::parametric::{rank, Candidate};
use lec_core::{lsc, CoreError, ResilienceCounters};
use lec_cost::CostModel;
use lec_exec::datagen::{generate, DataGenSpec};
use lec_exec::{
    execute_plan_with_faults, Disk, ExecError, ExecFeedback, ExecMemoryEnv, ExecReport,
    FaultSchedule, RelId,
};
use lec_plan::{JoinQuery, Plan};
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use std::sync::Arc;

/// One rung of the fallback ladder, ready to execute in the request's
/// numbering.
pub(crate) struct LadderRung {
    pub(crate) plan: Plan,
    pub(crate) expected_cost: f64,
    pub(crate) scenario: usize,
    route: ServeRoute,
}

/// What the execute stage hands on: the rung that served, its execution,
/// and what the resilience layer did to get there.
pub(crate) struct Executed {
    pub(crate) rung: LadderRung,
    pub(crate) report: ExecReport,
    pub(crate) feedback: ExecFeedback,
    pub(crate) resilience: ResilienceReport,
}

/// The pick stage: re-costs the entry's distinct stored plans under the
/// observed memory distribution and ranks them by the configured selection
/// rule. The first, in the request's numbering, is the primary rung; the
/// rest wait for the ladder.
pub(crate) fn pick<'e, M: CostModel>(
    entry: &'e CacheEntry,
    prepared: &PreparedRequest,
    model: &M,
    config: &ServeConfig,
) -> Result<(LadderRung, std::vec::IntoIter<Candidate<'e>>), ServeError> {
    let canon = &prepared.canon;
    let (observed, rule) = (&config.observed_memory, &config.selection_rule);
    let mut ranked = entry
        .plans
        .ranked(&canon.query, model, observed, rule)?
        .into_iter();
    let best = ranked.next().ok_or(CoreError::NoPlanFound)?;
    let primary = LadderRung {
        plan: canon.plan_to_original(best.plan),
        expected_cost: best.expected_cost,
        scenario: best.scenario,
        route: ServeRoute::Primary,
    };
    Ok((primary, ranked))
}

/// The verify stage for one ladder rung: the plan-IR verifier in the
/// request's numbering (so the canonical↔request remapping is inside the
/// verified surface), and a finite non-negative expected cost.
pub(crate) fn verify(rung: &LadderRung, query: &JoinQuery, what: &str) -> Result<(), ServeError> {
    lec_plan::verify_plan(&rung.plan, query).map_err(ServeError::Verification)?;
    lec_plan::verify_costs(what, &[rung.expected_cost]).map_err(ServeError::Verification)
}

/// The execute stage's state: the simulated disk holding the generated
/// base tables, the two circuit breakers, and the resilience counters.
pub(crate) struct ExecuteStage {
    disk: Disk,
    /// Each table's generated relation on `disk`.
    rels: BTreeMap<String, RelId>,
    /// Fault strikes per fingerprint encoding.
    breaker: Breaker<Vec<u8>>,
    /// Fault strikes per cache shard.
    shard_breaker: Breaker<usize>,
    counters: ResilienceCounters,
}

impl ExecuteStage {
    /// Generates the simulated base data: one relation per table in
    /// `truth`, in name order. The simulator joins on the single shared key
    /// attribute; its domain is taken from each table's *first* column (the
    /// store's join-key convention).
    pub(crate) fn new(truth: &Catalog, seed: u64) -> Self {
        let mut disk = Disk::new();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut rels = BTreeMap::new();
        for meta in truth.iter() {
            let key_domain = meta
                .columns
                .first()
                .map(|c| c.distinct.max(1))
                .unwrap_or(meta.rows.max(1));
            let spec = DataGenSpec {
                pages: meta.pages as usize,
                key_domain,
            };
            rels.insert(meta.name.clone(), generate(&mut disk, &mut rng, &spec));
        }
        ExecuteStage {
            disk,
            rels,
            breaker: Breaker::default(),
            shard_breaker: Breaker::default(),
            counters: ResilienceCounters::default(),
        }
    }

    /// The fallback ladder for the verified `primary` pick. The breakers
    /// are checked first, against `cache`. Attempt 0 runs `primary` (or the
    /// LSC rung after a breaker trip); attempt k runs fallback rung k-1 (the
    /// pick's `rest` of candidates in rule order, then the LSC baseline,
    /// clamped at the last rung). The final allowed attempt always executes
    /// with an empty schedule, so under injection every request is served —
    /// degraded or retried, never errored out. A tripped serve gets exactly
    /// one attempt. Fallback rungs are built lazily: a fault-free serve
    /// never ranks, remaps or verifies them.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn ladder<M: CostModel>(
        &mut self,
        cache: &mut PlanCache<Arc<CacheEntry>>,
        model: &M,
        config: &ServeConfig,
        truth: &Catalog,
        ordinal: u64,
        prepared: &PreparedRequest,
        primary: LadderRung,
        mut rest: std::vec::IntoIter<Candidate<'_>>,
    ) -> Result<Executed, ServeError> {
        let (request, fingerprint) = (&prepared.request, &prepared.canon.fingerprint);
        let fp_key = fingerprint.encoding();
        let shard = shard_of(fingerprint, config.cache_shards);
        let tripped = self.trip_breakers(config, cache, fp_key, shard);
        let (first, max_attempts) = if tripped {
            (lsc_rung(model, config, prepared, primary.scenario)?, 1)
        } else {
            (primary, config.resilience.max_retries.saturating_add(1))
        };
        let primary_scenario = first.scenario;
        let mut rungs = vec![first];
        let mut attempted = Vec::new();
        let mut faults_seen = Vec::new();
        for attempt in 0..max_attempts {
            if attempt == 1 {
                let fallbacks =
                    fallback_rungs(model, config, prepared, rest.by_ref(), primary_scenario)?;
                rungs.extend(fallbacks);
            }
            let idx = (attempt as usize).min(rungs.len() - 1);
            let route = rungs[idx].route;
            attempted.push(route);
            let mut faults = if attempt + 1 == max_attempts {
                FaultSchedule::empty()
            } else {
                config.fault_injection.schedule_for(ordinal, attempt)
            };
            let plan = &rungs[idx].plan;
            let executed = match self.run(config, truth, ordinal, request, plan, &mut faults) {
                Err(e) if !matches!(e, ServeError::Exec(ExecError::InjectedFault { .. })) => {
                    return Err(e)
                }
                executed => executed,
            };
            self.counters.faults_injected += faults.trace().len() as u64;
            faults_seen.extend_from_slice(faults.trace());
            let Ok((report, feedback)) = executed else {
                self.breaker.record_fault(fp_key.to_vec());
                self.shard_breaker.record_fault(shard);
                self.counters.retries += 1;
                continue;
            };
            let degraded = route != ServeRoute::Primary;
            let counters = &mut self.counters;
            counters.degraded_serves += u64::from(degraded);
            counters.frontier_fallbacks += u64::from(matches!(route, ServeRoute::Frontier { .. }));
            counters.lsc_fallbacks += u64::from(route == ServeRoute::LscBaseline);
            return Ok(Executed {
                rung: rungs.swap_remove(idx),
                report,
                feedback,
                resilience: ResilienceReport {
                    attempts: attempt + 1,
                    faults: faults_seen,
                    attempted,
                    route,
                    degraded,
                    breaker_tripped: tripped,
                },
            });
        }
        // Unreachable: the final attempt runs fault-free, so the loop
        // either served above or propagated a real error.
        Err(ServeError::Config(
            "resilience ladder exhausted without serving".into(),
        ))
    }

    /// The circuit breakers. The shard breaker is checked first — a shard
    /// whose fingerprints have *collectively* accumulated enough faults is
    /// flushed wholesale, which invalidates strictly more state; otherwise
    /// a fingerprint with enough faults has its own entry dropped. Either
    /// way the tripped breaker's strikes are reset, the dropped entries
    /// reoptimize on their next request, and `true` tells the ladder to
    /// start at the LSC rung.
    fn trip_breakers(
        &mut self,
        config: &ServeConfig,
        cache: &mut PlanCache<Arc<CacheEntry>>,
        fp: &[u8],
        shard: usize,
    ) -> bool {
        let policy = config.resilience;
        let (fp_limit, shard_limit) = (policy.breaker_threshold, policy.shard_breaker_threshold);
        if self.shard_breaker.is_open(&shard, shard_limit) {
            self.shard_breaker.reset(&shard);
            self.counters.shard_breaker_trips += 1;
            let shards = config.cache_shards;
            cache.invalidate_collect(|e| shard_of(&e.prepared.canon.fingerprint, shards) == shard);
        } else if self.breaker.is_open(fp, fp_limit) {
            self.breaker.reset(fp);
            self.counters.breaker_trips += 1;
            cache.invalidate_collect(|e| e.prepared.canon.fingerprint.encoding() == fp);
        } else {
            return false;
        }
        true
    }

    /// Executes `plan` over the generated data, realizing the *truth*
    /// catalog's filter selectivities. `ordinal` is the request's position
    /// in the logical stream: it seeds the memory draw, so concurrent
    /// drivers replaying a partition of the stream draw what the
    /// sequential loop would.
    fn run(
        &mut self,
        config: &ServeConfig,
        truth: &Catalog,
        ordinal: u64,
        request: &QueryRequest,
        plan: &Plan,
        faults: &mut FaultSchedule,
    ) -> Result<(ExecReport, ExecFeedback), ServeError> {
        let base = request
            .tables
            .iter()
            .map(|t| {
                self.rels
                    .get(t)
                    .copied()
                    .ok_or_else(|| ServeError::Config(format!("table `{t}` has no generated data")))
            })
            .collect::<Result<Vec<RelId>, ServeError>>()?;
        let mut selections = vec![1.0; request.tables.len()];
        for f in &request.filters {
            let idx = request
                .tables
                .iter()
                .position(|t| *t == f.table)
                .ok_or_else(|| {
                    ServeError::Config(format!("filter on `{}` not in table list", f.table))
                })?;
            selections[idx] *= filter_stat(f).1.estimate(truth)?.clamp(1e-9, 1.0);
        }
        // Seeded by the request ordinal, not the attempt: every rung of the
        // ladder faces the same memory draw, so a retry is a pure plan
        // switch.
        let mut env = ExecMemoryEnv::draw_once(
            config.observed_memory.clone(),
            config.exec_seed.wrapping_add(ordinal),
        );
        // Everything the execution writes (filtered scans, sort runs,
        // partitions, the result) is dropped again, on success and on
        // error, so a long-lived service holds only its base data.
        let mark = self.disk.relation_count();
        let executed =
            execute_plan_with_faults(plan, &base, &selections, &mut self.disk, &mut env, faults);
        self.disk.drop_from(mark);
        Ok(executed?)
    }

    pub(crate) fn counters(&self) -> ResilienceCounters {
        self.counters
    }

    pub(crate) fn stored_relations(&self) -> usize {
        self.disk.relation_count()
    }
}

/// The fallback rungs: the pick's other candidates, ranked among
/// themselves by the configured rule (minmax regret scores them against
/// each other, not the primary), then the LSC baseline as the last resort,
/// which reports the primary's scenario (it belongs to none).
fn fallback_rungs<'a, M: CostModel>(
    model: &M,
    config: &ServeConfig,
    prepared: &PreparedRequest,
    rest: impl Iterator<Item = Candidate<'a>>,
    primary_scenario: usize,
) -> Result<Vec<LadderRung>, ServeError> {
    let probs = config.observed_memory.probs();
    let ranked = rank(rest.collect(), &config.selection_rule, probs);
    let mut rungs = Vec::with_capacity(ranked.len() + 1);
    for (rank, candidate) in ranked.into_iter().enumerate() {
        let rung = LadderRung {
            plan: prepared.canon.plan_to_original(candidate.plan),
            expected_cost: candidate.expected_cost,
            scenario: candidate.scenario,
            route: ServeRoute::Frontier { rank },
        };
        verify(&rung, &prepared.query, "fallback expected cost")?;
        rungs.push(rung);
    }
    rungs.push(lsc_rung(model, config, prepared, primary_scenario)?);
    Ok(rungs)
}

/// The robust last resort: System R (LSC) at the mean observed grant,
/// re-priced as an expected cost under the observed distribution so its
/// rung is comparable to the frontier rungs.
fn lsc_rung<M: CostModel>(
    model: &M,
    config: &ServeConfig,
    prepared: &PreparedRequest,
    scenario: usize,
) -> Result<LadderRung, ServeError> {
    let canon = &prepared.canon;
    let observed = &config.observed_memory;
    let (optimized, _) = lsc::optimize_at(&canon.query, model, observed.mean())?;
    let (_, expected_cost) =
        profile_and_expected_cost(&canon.query, model, &optimized.plan, observed);
    let rung = LadderRung {
        expected_cost,
        plan: canon.plan_to_original(&optimized.plan),
        scenario,
        route: ServeRoute::LscBaseline,
    };
    verify(&rung, &prepared.query, "lsc baseline expected cost")?;
    Ok(rung)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::tests::{catalog, request, service_config};
    use lec_cost::PaperCostModel;
    use lec_rules::Rule;

    #[test]
    fn the_ladder_reranks_the_remaining_candidates_among_themselves() {
        let mut config = service_config();
        config.selection_rule = Rule::MinmaxRegret;
        let prepared = PreparedRequest::build(&catalog(), &request(25.0), 0).unwrap();
        let key = prepared.canon.query.predicates()[0].key;
        let plans: Vec<Plan> = lec_cost::JoinMethod::ALL
            .iter()
            .map(|&m| Plan::join(Plan::scan(0), Plan::scan(1), m, Some(key)))
            .collect();
        // Among all three, regrets against the per-scenario optimum (0, 0)
        // rank C (2), A (4), B (5); C held the optimum in the second
        // scenario, so among A and B alone the optimum is (0, 4) and B
        // (regret 1) beats A (regret 3).
        let candidate = |scenario: usize, profile: [f64; 2]| Candidate {
            scenario,
            plan: &plans[scenario],
            profile: profile.to_vec(),
            expected_cost: 10.0,
            score: f64::NAN,
        };
        let all = vec![
            candidate(0, [3.0, 4.0]),
            candidate(1, [0.0, 5.0]),
            candidate(2, [2.0, 0.0]),
        ];
        let probs = config.observed_memory.probs();
        let ranked = rank(all, &config.selection_rule, probs);
        let order: Vec<usize> = ranked.iter().map(|c| c.scenario).collect();
        assert_eq!(order, [2, 0, 1]);
        let rest = ranked.into_iter().skip(1);
        let rungs = fallback_rungs(&PaperCostModel, &config, &prepared, rest, 2).unwrap();
        let routes: Vec<(usize, ServeRoute)> =
            rungs.iter().map(|r| (r.scenario, r.route)).collect();
        assert_eq!(
            routes,
            [
                (1, ServeRoute::Frontier { rank: 0 }),
                (0, ServeRoute::Frontier { rank: 1 }),
                (2, ServeRoute::LscBaseline),
            ]
        );
    }
}
