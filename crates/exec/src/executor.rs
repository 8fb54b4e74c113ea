//! The plan interpreter: walks a physical [`Plan`], granting memory per
//! phase from an [`ExecMemoryEnv`] and dispatching to the page-level
//! operators. Phases are post-order over join and sort operators, matching
//! the optimizer's §3.5 phase numbering exactly.

use crate::bufferpool::{BufferPool, IoCounters};
use crate::disk::{Disk, RelId};
use crate::env::ExecMemoryEnv;
use crate::error::ExecError;
use crate::fault::{FaultKind, FaultSchedule, OpKind};
use crate::ops::{block_nested_loop_join, external_sort, grace_hash_join, sort_merge_join};
use lec_cost::JoinMethod;
use lec_plan::{Plan, RelSet};

/// Per-phase execution record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseReport {
    /// Memory granted for the phase (pages).
    pub memory: usize,
    /// I/O charged during the phase.
    pub io: IoCounters,
}

/// The result of executing a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecReport {
    /// The materialized result relation.
    pub output: RelId,
    /// Total I/O across all phases.
    pub total: IoCounters,
    /// Per-phase breakdown, in phase order.
    pub phases: Vec<PhaseReport>,
}

/// What execution observed about one local selection: true input and
/// output sizes of the filter applied to base relation `rel`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SelectionObs {
    /// Relation index in the plan's numbering.
    pub rel: usize,
    /// Pages scanned.
    pub in_pages: usize,
    /// Pages surviving the filter.
    pub out_pages: usize,
    /// Rows scanned.
    pub in_rows: usize,
    /// Rows surviving the filter.
    pub out_rows: usize,
}

impl SelectionObs {
    /// Observed row-domain selectivity of the filter.
    pub fn observed_selectivity(&self) -> f64 {
        self.out_rows as f64 / (self.in_rows as f64).max(1.0)
    }
}

/// What execution observed about one join: true input and output sizes,
/// keyed by the set of base relations the output covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JoinObs {
    /// Base relations covered by the join output.
    pub rels: RelSet,
    /// Left input size in pages.
    pub left_pages: usize,
    /// Right input size in pages.
    pub right_pages: usize,
    /// Left input size in rows.
    pub left_rows: usize,
    /// Right input size in rows.
    pub right_rows: usize,
    /// Output size in pages.
    pub out_pages: usize,
    /// Output size in rows.
    pub out_rows: usize,
}

impl JoinObs {
    /// Observed row-domain join selectivity:
    /// `out_rows / (left_rows · right_rows)`.
    pub fn observed_selectivity(&self) -> f64 {
        self.out_rows as f64 / (self.left_rows as f64 * self.right_rows as f64).max(1.0)
    }
}

/// Execution feedback: the observed cardinalities the serving layer's
/// drift detector compares against the optimizer's estimates.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecFeedback {
    /// One record per filtered base-relation access, in visit order.
    pub selections: Vec<SelectionObs>,
    /// One record per join phase, in phase (post-) order.
    pub joins: Vec<JoinObs>,
}

/// Executes `plan` over the base relations `base` (indexed by the plan's
/// relation indices). Every join and sort runs as its own phase with a
/// fresh memory grant; scans carry no phase (their reads are charged to the
/// consuming operator, mirroring the cost model's accounting).
///
/// # Examples
///
/// ```
/// use lec_exec::datagen::{generate, DataGenSpec};
/// use lec_exec::{execute_plan, Disk, ExecMemoryEnv};
/// use lec_cost::JoinMethod;
/// use lec_plan::{KeyId, Plan};
/// use rand_chacha::rand_core::SeedableRng;
///
/// let mut disk = Disk::new();
/// let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1);
/// let a = generate(&mut disk, &mut rng, &DataGenSpec { pages: 12, key_domain: 200 });
/// let b = generate(&mut disk, &mut rng, &DataGenSpec { pages: 6, key_domain: 200 });
///
/// let plan = Plan::join(Plan::scan(0), Plan::scan(1), JoinMethod::GraceHash, Some(KeyId(0)));
/// let mut env = ExecMemoryEnv::Fixed(8);
/// let report = execute_plan(&plan, &[a, b], &mut disk, &mut env)?;
/// assert_eq!(report.phases.len(), 1);          // one join phase
/// assert!(report.total.reads >= 18);           // both inputs were read
/// # Ok::<(), lec_exec::ExecError>(())
/// ```
pub fn execute_plan(
    plan: &Plan,
    base: &[RelId],
    disk: &mut Disk,
    env: &mut ExecMemoryEnv,
) -> Result<ExecReport, ExecError> {
    let selections = vec![1.0; base.len()];
    let mut faults = FaultSchedule::empty();
    execute_plan_with_faults(plan, base, &selections, disk, env, &mut faults)
        .map(|(report, _)| report)
}

/// [`execute_plan`] with per-relation local-selection selectivities
/// (aligned with `base`), [`ExecFeedback`] capture and a deterministic
/// [`FaultSchedule`] — the full entry point.
///
/// A relation with selectivity below 1 is filtered and materialized
/// before its first join, charged `pages + out` I/O — the same accounting
/// the optimizer's access path uses. The filter predicate is a uniform
/// hash of the tuple payload. The returned feedback holds the observed
/// selection and join cardinalities the `lec-serve` recalibration loop
/// compares against the optimizer's estimates.
///
/// With an empty schedule no fault fires. With a non-empty schedule,
/// matching faults fire at most once each: I/O errors surface as
/// [`ExecError::InjectedFault`], memory-pressure faults divide the phase's
/// grant down (floored at the operator minimum), and stalls are recorded in
/// the schedule's trace without perturbing the result. The fired trace is
/// left on `faults` for the caller to inspect.
pub fn execute_plan_with_faults(
    plan: &Plan,
    base: &[RelId],
    selections: &[f64],
    disk: &mut Disk,
    env: &mut ExecMemoryEnv,
    faults: &mut FaultSchedule,
) -> Result<(ExecReport, ExecFeedback), ExecError> {
    if selections.len() != base.len() {
        return Err(ExecError::Unsupported(
            "selections must align with base relations".into(),
        ));
    }
    env.next_execution();
    let mut pool = BufferPool::with_capacity(8);
    if let Some(tick) = faults.begin_execution() {
        pool.arm_io_fault(tick);
    }
    let mut phases = Vec::new();
    let mut feedback = ExecFeedback::default();
    let (output, _) = walk(
        plan,
        base,
        selections,
        disk,
        &mut pool,
        env,
        &mut phases,
        &mut feedback,
        faults,
    )?;
    Ok((
        ExecReport {
            output,
            total: pool.counters(),
            phases,
        },
        feedback,
    ))
}

/// Applies phase-triggered fault effects before an operator runs: I/O
/// errors abort the phase, memory pressure divides the grant down (floored
/// at the operator minimum), stalls are recorded only. Returns the
/// possibly-reduced grant.
fn apply_phase_faults(
    faults: &mut FaultSchedule,
    phase: usize,
    op: OpKind,
    mut m: usize,
) -> Result<usize, ExecError> {
    for effect in faults.fire_phase(phase, op) {
        match effect {
            FaultKind::IoError => {
                return Err(ExecError::InjectedFault {
                    site: format!("phase {phase} ({})", op.label()),
                })
            }
            FaultKind::MemoryPressure { divisor } => {
                m = (m / divisor.max(1)).max(crate::ops::MIN_MEMORY);
            }
            FaultKind::Stall { .. } => {}
        }
    }
    Ok(m)
}

/// Attributes a surfaced I/O-tick fault to the phase/operator that was
/// executing, then propagates the error unchanged.
fn note_if_injected<T>(
    result: Result<T, ExecError>,
    faults: &mut FaultSchedule,
    phase: usize,
    op: OpKind,
) -> Result<T, ExecError> {
    if let Err(ExecError::InjectedFault { .. }) = &result {
        faults.note_io_fault(phase, op);
    }
    result
}

/// Recursive execution; returns the result relation and whether it is
/// physically sorted by the join key.
#[allow(clippy::too_many_arguments)]
fn walk(
    plan: &Plan,
    base: &[RelId],
    selections: &[f64],
    disk: &mut Disk,
    pool: &mut BufferPool,
    env: &mut ExecMemoryEnv,
    phases: &mut Vec<PhaseReport>,
    feedback: &mut ExecFeedback,
    faults: &mut FaultSchedule,
) -> Result<(RelId, bool), ExecError> {
    match plan {
        Plan::Access { rel, .. } => {
            let id = *base.get(*rel).ok_or(ExecError::UnknownRelation(*rel))?;
            let sel = selections[*rel];
            if sel < 1.0 {
                let (in_pages, in_rows) = (disk.pages(id)?, disk.tuples(id)?);
                let scanned = crate::ops::filtered_scan(disk, pool, id, sel);
                let filtered = if faults.is_empty() {
                    scanned?
                } else {
                    note_if_injected(scanned, faults, phases.len(), OpKind::Scan)?
                };
                feedback.selections.push(SelectionObs {
                    rel: *rel,
                    in_pages,
                    out_pages: disk.pages(filtered)?,
                    in_rows,
                    out_rows: disk.tuples(filtered)?,
                });
                Ok((filtered, false))
            } else {
                Ok((id, false))
            }
        }
        Plan::Join {
            left,
            right,
            method,
            ..
        } => {
            let (l, l_sorted) = walk(
                left, base, selections, disk, pool, env, phases, feedback, faults,
            )?;
            let (r, r_sorted) = walk(
                right, base, selections, disk, pool, env, phases, feedback, faults,
            )?;
            let (left_pages, left_rows) = (disk.pages(l)?, disk.tuples(l)?);
            let (right_pages, right_rows) = (disk.pages(r)?, disk.tuples(r)?);
            let mut m = env.grant();
            let op = OpKind::of_join(*method);
            if !faults.is_empty() {
                m = apply_phase_faults(faults, phases.len(), op, m)?;
            }
            pool.regrant(m);
            let before = pool.counters();
            let joined = match method {
                JoinMethod::SortMerge => {
                    sort_merge_join(disk, pool, l, r, m, l_sorted, r_sorted).map(|o| (o, true))
                }
                JoinMethod::GraceHash => grace_hash_join(disk, pool, l, r, m).map(|o| (o, false)),
                JoinMethod::NestedLoop => {
                    block_nested_loop_join(disk, pool, l, r, m).map(|o| (o, false))
                }
            };
            let (out, sorted) = if faults.is_empty() {
                joined?
            } else {
                note_if_injected(joined, faults, phases.len(), op)?
            };
            phases.push(PhaseReport {
                memory: m,
                io: pool.counters() - before,
            });
            feedback.joins.push(JoinObs {
                rels: plan.rel_set(),
                left_pages,
                right_pages,
                left_rows,
                right_rows,
                out_pages: disk.pages(out)?,
                out_rows: disk.tuples(out)?,
            });
            Ok((out, sorted))
        }
        Plan::Sort { input, .. } => {
            let (rel, sorted) = walk(
                input, base, selections, disk, pool, env, phases, feedback, faults,
            )?;
            let mut m = env.grant();
            if !faults.is_empty() {
                m = apply_phase_faults(faults, phases.len(), OpKind::Sort, m)?;
            }
            pool.regrant(m);
            let before = pool.counters();
            let out = if sorted {
                rel
            } else {
                let sorted_rel = external_sort(disk, pool, rel, m);
                if faults.is_empty() {
                    sorted_rel?
                } else {
                    note_if_injected(sorted_rel, faults, phases.len(), OpKind::Sort)?
                }
            };
            phases.push(PhaseReport {
                memory: m,
                io: pool.counters() - before,
            });
            Ok((out, true))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::datagen::{generate, DataGenSpec};
    use crate::ops::oracle::{multisets_equal, oracle_join};
    use lec_plan::KeyId;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn two_table_setup(seed: u64) -> (Disk, Vec<RelId>) {
        let mut disk = Disk::new();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let domain = crate::datagen::domain_for_selectivity(0.01);
        let a = generate(
            &mut disk,
            &mut rng,
            &DataGenSpec {
                pages: 20,
                key_domain: domain,
            },
        );
        let b = generate(
            &mut disk,
            &mut rng,
            &DataGenSpec {
                pages: 12,
                key_domain: domain,
            },
        );
        (disk, vec![a, b])
    }

    #[test]
    fn all_join_methods_agree_with_oracle() {
        for method in JoinMethod::ALL {
            let (mut disk, base) = two_table_setup(31);
            let expect = oracle_join(&disk, base[0], base[1]).unwrap();
            let plan = Plan::join(Plan::scan(0), Plan::scan(1), method, Some(KeyId(0)));
            let mut env = ExecMemoryEnv::Fixed(8);
            let report = execute_plan(&plan, &base, &mut disk, &mut env).unwrap();
            let got = disk.all_tuples(report.output).unwrap();
            assert!(multisets_equal(got, expect), "{method}");
            assert_eq!(report.phases.len(), 1);
            assert!(report.total.total() > 0);
        }
    }

    #[test]
    fn sort_after_hash_join_equals_sort_merge_output_order() {
        let (mut disk, base) = two_table_setup(32);
        let sm = Plan::join(
            Plan::scan(0),
            Plan::scan(1),
            JoinMethod::SortMerge,
            Some(KeyId(0)),
        );
        let gh_sorted = Plan::sort(
            Plan::join(
                Plan::scan(0),
                Plan::scan(1),
                JoinMethod::GraceHash,
                Some(KeyId(0)),
            ),
            KeyId(0),
        );
        let mut env = ExecMemoryEnv::Fixed(10);
        let r1 = execute_plan(&sm, &base, &mut disk, &mut env).unwrap();
        let r2 = execute_plan(&gh_sorted, &base, &mut disk, &mut env).unwrap();
        let t1 = disk.all_tuples(r1.output).unwrap();
        let t2 = disk.all_tuples(r2.output).unwrap();
        assert!(t1.windows(2).all(|w| w[0].key <= w[1].key));
        assert!(t2.windows(2).all(|w| w[0].key <= w[1].key));
        assert!(multisets_equal(t1, t2));
        // The hash plan has two phases (join + sort).
        assert_eq!(r2.phases.len(), 2);
    }

    #[test]
    fn sort_over_already_sorted_input_is_free() {
        let (mut disk, base) = two_table_setup(33);
        let plan = Plan::sort(
            Plan::join(
                Plan::scan(0),
                Plan::scan(1),
                JoinMethod::SortMerge,
                Some(KeyId(0)),
            ),
            KeyId(0),
        );
        let mut env = ExecMemoryEnv::Fixed(10);
        let report = execute_plan(&plan, &base, &mut disk, &mut env).unwrap();
        assert_eq!(report.phases.len(), 2);
        assert_eq!(report.phases[1].io, IoCounters::default());
    }

    #[test]
    fn three_way_same_key_join() {
        let mut disk = Disk::new();
        let mut rng = ChaCha8Rng::seed_from_u64(34);
        let domain = 400;
        let base: Vec<RelId> = [6usize, 8, 4]
            .iter()
            .map(|&pages| {
                generate(
                    &mut disk,
                    &mut rng,
                    &DataGenSpec {
                        pages,
                        key_domain: domain,
                    },
                )
            })
            .collect();
        let plan = Plan::join(
            Plan::join(
                Plan::scan(0),
                Plan::scan(1),
                JoinMethod::GraceHash,
                Some(KeyId(0)),
            ),
            Plan::scan(2),
            JoinMethod::SortMerge,
            Some(KeyId(0)),
        );
        let mut env = ExecMemoryEnv::Fixed(16);
        let report = execute_plan(&plan, &base, &mut disk, &mut env).unwrap();
        assert_eq!(report.phases.len(), 2);
        // Oracle: join (0,1) then join with 2.
        let o01 = oracle_join(&disk, base[0], base[1]).unwrap();
        let tmp = disk.load(o01);
        let expect = oracle_join(&disk, tmp, base[2]).unwrap();
        let got = disk.all_tuples(report.output).unwrap();
        assert!(multisets_equal(got, expect));
    }

    #[test]
    fn more_memory_never_costs_more_io() {
        let mut last = u64::MAX;
        for m in [4, 6, 10, 24, 64] {
            let (mut disk, base) = two_table_setup(35);
            let plan = Plan::join(
                Plan::scan(0),
                Plan::scan(1),
                JoinMethod::SortMerge,
                Some(KeyId(0)),
            );
            let mut env = ExecMemoryEnv::Fixed(m);
            let report = execute_plan(&plan, &base, &mut disk, &mut env).unwrap();
            assert!(
                report.total.total() <= last,
                "m={m}: {} > {last}",
                report.total.total()
            );
            last = report.total.total();
        }
    }

    #[test]
    fn feedback_reports_join_cardinalities() {
        let (mut disk, base) = two_table_setup(40);
        let plan = Plan::join(
            Plan::scan(0),
            Plan::scan(1),
            JoinMethod::GraceHash,
            Some(KeyId(0)),
        );
        let mut env = ExecMemoryEnv::Fixed(8);
        let (report, feedback) = execute_plan_with_faults(
            &plan,
            &base,
            &[1.0, 1.0],
            &mut disk,
            &mut env,
            &mut FaultSchedule::empty(),
        )
        .unwrap();
        assert!(feedback.selections.is_empty());
        assert_eq!(feedback.joins.len(), 1);
        let j = feedback.joins[0];
        assert_eq!(j.rels, RelSet::single(0).insert(1));
        assert_eq!(j.left_pages, disk.pages(base[0]).unwrap());
        assert_eq!(j.right_pages, disk.pages(base[1]).unwrap());
        assert_eq!(j.left_rows, disk.tuples(base[0]).unwrap());
        assert_eq!(j.out_rows, disk.tuples(report.output).unwrap());
        // The oracle sees the same output cardinality.
        let expect = oracle_join(&disk, base[0], base[1]).unwrap();
        assert_eq!(j.out_rows, expect.len());
        let sel = j.observed_selectivity();
        assert!(sel > 0.0 && sel < 1.0, "selectivity {sel}");
    }

    #[test]
    fn feedback_reports_selection_cardinalities() {
        let (mut disk, base) = two_table_setup(41);
        let plan = Plan::join(
            Plan::scan(0),
            Plan::scan(1),
            JoinMethod::GraceHash,
            Some(KeyId(0)),
        );
        let mut env = ExecMemoryEnv::Fixed(8);
        let (_, feedback) = execute_plan_with_faults(
            &plan,
            &base,
            &[0.25, 1.0],
            &mut disk,
            &mut env,
            &mut FaultSchedule::empty(),
        )
        .unwrap();
        assert_eq!(feedback.selections.len(), 1);
        let s = feedback.selections[0];
        assert_eq!(s.rel, 0);
        assert_eq!(s.in_pages, disk.pages(base[0]).unwrap());
        assert!(s.out_rows < s.in_rows);
        let obs = s.observed_selectivity();
        // The hash filter realizes the requested selectivity in expectation.
        assert!((obs - 0.25).abs() < 0.1, "observed {obs}");
        // The join after the filter sees the filtered input size.
        assert_eq!(feedback.joins[0].left_rows, s.out_rows);
    }

    #[test]
    fn empty_fault_schedule_is_bit_identical() {
        let plan = Plan::join(
            Plan::scan(0),
            Plan::scan(1),
            JoinMethod::SortMerge,
            Some(KeyId(0)),
        );
        let (mut disk, base) = two_table_setup(50);
        let mut env = ExecMemoryEnv::Fixed(8);
        let baseline = execute_plan(&plan, &base, &mut disk, &mut env).unwrap();
        let (mut disk2, base2) = two_table_setup(50);
        let mut env2 = ExecMemoryEnv::Fixed(8);
        let mut faults = FaultSchedule::empty();
        let faulted = execute_plan_with_faults(
            &plan,
            &base2,
            &[1.0, 1.0],
            &mut disk2,
            &mut env2,
            &mut faults,
        )
        .unwrap();
        assert_eq!(baseline, faulted.0);
        assert!(faults.trace().is_empty());
    }

    #[test]
    fn phase_io_error_aborts_with_injected_fault() {
        let (mut disk, base) = two_table_setup(51);
        let plan = Plan::join(
            Plan::scan(0),
            Plan::scan(1),
            JoinMethod::GraceHash,
            Some(KeyId(0)),
        );
        let mut env = ExecMemoryEnv::Fixed(8);
        let mut faults = FaultSchedule::single(crate::fault::FaultSpec {
            trigger: crate::fault::FaultTrigger::Phase(0),
            kind: FaultKind::IoError,
        });
        let err =
            execute_plan_with_faults(&plan, &base, &[1.0, 1.0], &mut disk, &mut env, &mut faults)
                .unwrap_err();
        assert!(matches!(err, ExecError::InjectedFault { .. }), "{err}");
        assert_eq!(faults.trace().len(), 1);
        assert_eq!(faults.trace()[0].phase, 0);
        assert_eq!(faults.trace()[0].op, OpKind::GraceHash);
    }

    #[test]
    fn memory_pressure_degrades_grant_but_output_is_correct() {
        let (mut disk, base) = two_table_setup(52);
        let expect = crate::ops::oracle::oracle_join(&disk, base[0], base[1]).unwrap();
        let plan = Plan::join(
            Plan::scan(0),
            Plan::scan(1),
            JoinMethod::GraceHash,
            Some(KeyId(0)),
        );
        let mut env = ExecMemoryEnv::Fixed(16);
        let mut faults = FaultSchedule::single(crate::fault::FaultSpec {
            trigger: crate::fault::FaultTrigger::Phase(0),
            kind: FaultKind::MemoryPressure { divisor: 4 },
        });
        let (report, _) =
            execute_plan_with_faults(&plan, &base, &[1.0, 1.0], &mut disk, &mut env, &mut faults)
                .unwrap();
        // The grant was divided from 16 down to 4 for the faulted phase.
        assert_eq!(report.phases[0].memory, 4);
        assert_eq!(faults.trace().len(), 1);
        let got = disk.all_tuples(report.output).unwrap();
        assert!(multisets_equal(got, expect));
    }

    #[test]
    fn stall_fault_is_recorded_without_perturbing_report() {
        let plan = Plan::join(
            Plan::scan(0),
            Plan::scan(1),
            JoinMethod::SortMerge,
            Some(KeyId(0)),
        );
        let (mut disk, base) = two_table_setup(53);
        let mut env = ExecMemoryEnv::Fixed(8);
        let baseline = execute_plan(&plan, &base, &mut disk, &mut env).unwrap();
        let (mut disk2, base2) = two_table_setup(53);
        let mut env2 = ExecMemoryEnv::Fixed(8);
        let mut faults = FaultSchedule::single(crate::fault::FaultSpec {
            trigger: crate::fault::FaultTrigger::Operator {
                kind: OpKind::SortMerge,
                occurrence: 0,
            },
            kind: FaultKind::Stall { ticks: 42 },
        });
        let (report, _) = execute_plan_with_faults(
            &plan,
            &base2,
            &[1.0, 1.0],
            &mut disk2,
            &mut env2,
            &mut faults,
        )
        .unwrap();
        assert_eq!(report, baseline);
        assert_eq!(faults.stall_ticks(), 42);
        assert_eq!(faults.trace().len(), 1);
    }

    #[test]
    fn io_tick_fault_surfaces_and_is_attributed() {
        let (mut disk, base) = two_table_setup(54);
        let plan = Plan::join(
            Plan::scan(0),
            Plan::scan(1),
            JoinMethod::GraceHash,
            Some(KeyId(0)),
        );
        let mut env = ExecMemoryEnv::Fixed(8);
        let mut faults = FaultSchedule::single(crate::fault::FaultSpec {
            trigger: crate::fault::FaultTrigger::IoTick(5),
            kind: FaultKind::IoError,
        });
        let err =
            execute_plan_with_faults(&plan, &base, &[1.0, 1.0], &mut disk, &mut env, &mut faults)
                .unwrap_err();
        assert!(matches!(err, ExecError::InjectedFault { .. }));
        assert_eq!(faults.trace().len(), 1);
        assert_eq!(faults.trace()[0].kind, FaultKind::IoError);
    }

    #[test]
    fn same_schedule_same_trace_across_runs() {
        let plan = Plan::join(
            Plan::join(
                Plan::scan(0),
                Plan::scan(1),
                JoinMethod::GraceHash,
                Some(KeyId(0)),
            ),
            Plan::scan(2),
            JoinMethod::SortMerge,
            Some(KeyId(0)),
        );
        let run = || {
            let mut disk = Disk::new();
            let mut rng = ChaCha8Rng::seed_from_u64(55);
            let base: Vec<RelId> = [6usize, 8, 4]
                .iter()
                .map(|&pages| {
                    generate(
                        &mut disk,
                        &mut rng,
                        &DataGenSpec {
                            pages,
                            key_domain: 400,
                        },
                    )
                })
                .collect();
            let mut env = ExecMemoryEnv::Fixed(16);
            let mut faults = FaultSchedule::seeded(7, 4, 2);
            let result = execute_plan_with_faults(
                &plan,
                &base,
                &[1.0, 1.0, 1.0],
                &mut disk,
                &mut env,
                &mut faults,
            );
            (result.map(|(r, _)| r), faults.trace().to_vec())
        };
        let (r1, t1) = run();
        let (r2, t2) = run();
        assert_eq!(r1, r2);
        assert_eq!(t1, t2);
    }

    #[test]
    fn unknown_base_relation_errors() {
        let (mut disk, base) = two_table_setup(36);
        let plan = Plan::scan(9);
        let mut env = ExecMemoryEnv::Fixed(8);
        assert!(matches!(
            execute_plan(&plan, &base, &mut disk, &mut env),
            Err(ExecError::UnknownRelation(9))
        ));
    }
}
