//! Deterministic fault injection for the execution simulator.
//!
//! A [`FaultSchedule`] is a list of [`FaultSpec`]s, each firing **at most
//! once** when its trigger matches during an execution. Triggers are keyed
//! on *simulated* coordinates only — the phase index, the occurrence count
//! of an operator kind, or the buffer pool's I/O tick — never on wall-clock
//! time or ambient randomness, so a given schedule replays bit-identically
//! on a given plan. (`lec-lint` holds this file to the deterministic-path
//! contract even though the rest of `crates/exec` is exempt.)
//!
//! Three fault kinds cover the adverse outcomes the serving loop must
//! survive:
//!
//! * [`FaultKind::IoError`] — the phase (or the I/O at a given tick) fails
//!   outright with [`ExecError::InjectedFault`](crate::ExecError::InjectedFault);
//! * [`FaultKind::MemoryPressure`] — the phase's memory grant is divided
//!   down mid-plan (the buffer-pool-pressure downgrade), floored at the
//!   operator minimum, so the plan *completes* but with degraded I/O;
//! * [`FaultKind::Stall`] — a transient delay of simulated ticks, recorded
//!   in the trace and the schedule's stall total without perturbing the
//!   execution result at all.
//!
//! The executor consults the schedule only when it is non-empty: an empty
//! schedule adds one branch per phase and nothing else, keeping the default
//! path bit-identical to the pre-fault executor.

use lec_cost::JoinMethod;
use rand_chacha::rand_core::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// Operator kinds a fault trigger can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum OpKind {
    /// Block nested-loop join.
    NestedLoop,
    /// Grace hash join.
    GraceHash,
    /// Sort-merge join.
    SortMerge,
    /// External sort.
    Sort,
    /// Filtered base-relation scan (reachable by I/O-tick faults only;
    /// scans carry no phase).
    Scan,
}

impl OpKind {
    /// The operator kind executing a join phase with `method`.
    pub fn of_join(method: JoinMethod) -> OpKind {
        match method {
            JoinMethod::NestedLoop => OpKind::NestedLoop,
            JoinMethod::GraceHash => OpKind::GraceHash,
            JoinMethod::SortMerge => OpKind::SortMerge,
        }
    }

    /// Display label.
    pub fn label(&self) -> &'static str {
        match self {
            OpKind::NestedLoop => "nested-loop",
            OpKind::GraceHash => "grace-hash",
            OpKind::SortMerge => "sort-merge",
            OpKind::Sort => "sort",
            OpKind::Scan => "scan",
        }
    }

    fn index(self) -> usize {
        match self {
            OpKind::NestedLoop => 0,
            OpKind::GraceHash => 1,
            OpKind::SortMerge => 2,
            OpKind::Sort => 3,
            OpKind::Scan => 4,
        }
    }
}

/// When a fault fires. All coordinates are simulated, never wall-clock.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultTrigger {
    /// The phase with this index (post-order over joins and sorts, the
    /// optimizer's §3.5 numbering).
    Phase(usize),
    /// The `occurrence`-th (0-based) execution of an operator kind.
    Operator {
        /// Operator kind to match.
        kind: OpKind,
        /// 0-based occurrence of that kind within one execution.
        occurrence: usize,
    },
    /// The first charged I/O at or past this buffer-pool tick
    /// (total reads + writes). Only meaningful with [`FaultKind::IoError`];
    /// at most one I/O-tick fault arms per execution.
    IoTick(u64),
}

/// What the fault does when it fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The phase (or I/O) fails with [`ExecError::InjectedFault`](crate::ExecError::InjectedFault).
    IoError,
    /// The phase's memory grant is divided by `divisor` (floored at the
    /// operator minimum of 3 pages) — forced mid-plan downgrade.
    MemoryPressure {
        /// Grant divisor (a divisor of 0 or 1 leaves the grant unchanged).
        divisor: usize,
    },
    /// A transient stall of `ticks` simulated ticks, recorded but not
    /// otherwise observable in the execution result.
    Stall {
        /// Simulated stall duration.
        ticks: u64,
    },
}

/// One fault: a trigger and an effect. Fires at most once per schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// When to fire.
    pub trigger: FaultTrigger,
    /// What happens.
    pub kind: FaultKind,
}

/// One fired fault, as recorded in the trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Phase index the fault was attributed to (for I/O-tick faults, the
    /// phase that was executing when the I/O failed).
    pub phase: usize,
    /// Operator kind executing when the fault fired.
    pub op: OpKind,
    /// The injected effect.
    pub kind: FaultKind,
}

/// A deterministic fault schedule plus the trace of what actually fired.
///
/// # Examples
///
/// ```
/// use lec_exec::fault::{FaultKind, FaultSchedule, FaultSpec, FaultTrigger};
///
/// let mut s = FaultSchedule::new(vec![FaultSpec {
///     trigger: FaultTrigger::Phase(0),
///     kind: FaultKind::IoError,
/// }]);
/// assert!(!s.is_empty());
/// assert!(s.trace().is_empty());
/// s.reset();
/// # let _ = s;
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultSchedule {
    specs: Vec<FaultSpec>,
    fired: Vec<bool>,
    /// Executions of each operator kind so far (indexed by `OpKind::index`).
    op_seen: [usize; 5],
    /// Index of the armed I/O-tick spec, if any.
    armed_io: Option<usize>,
    trace: Vec<FaultRecord>,
    stall_ticks: u64,
}

impl FaultSchedule {
    /// A schedule that injects nothing (the zero-overhead default).
    pub fn empty() -> Self {
        Self::default()
    }

    /// A schedule with the given specs.
    pub fn new(specs: Vec<FaultSpec>) -> Self {
        let fired = vec![false; specs.len()];
        FaultSchedule {
            specs,
            fired,
            ..Self::default()
        }
    }

    /// A schedule with a single spec.
    pub fn single(spec: FaultSpec) -> Self {
        Self::new(vec![spec])
    }

    /// A pseudo-random schedule of `n` specs drawn from a seeded ChaCha8
    /// stream: phase/operator triggers over phases `0..max_phase` and all
    /// three fault kinds, plus I/O-tick error faults. Same seed, same
    /// schedule — the randomness is an explicit input, never ambient.
    pub fn seeded(seed: u64, n: usize, max_phase: usize) -> Self {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let max_phase = max_phase.max(1);
        let ops = [
            OpKind::NestedLoop,
            OpKind::GraceHash,
            OpKind::SortMerge,
            OpKind::Sort,
        ];
        let specs = (0..n)
            .map(|_| {
                let trigger = match rng.next_u64() % 3 {
                    0 => FaultTrigger::Phase((rng.next_u64() as usize) % max_phase),
                    1 => FaultTrigger::Operator {
                        kind: ops[(rng.next_u64() as usize) % ops.len()],
                        occurrence: (rng.next_u64() as usize) % 2,
                    },
                    _ => FaultTrigger::IoTick(rng.next_u64() % 64),
                };
                let kind = match trigger {
                    // I/O-tick triggers only support erroring out.
                    FaultTrigger::IoTick(_) => FaultKind::IoError,
                    _ => match rng.next_u64() % 3 {
                        0 => FaultKind::IoError,
                        1 => FaultKind::MemoryPressure {
                            divisor: 2 + (rng.next_u64() as usize) % 3,
                        },
                        _ => FaultKind::Stall {
                            ticks: 1 + rng.next_u64() % 100,
                        },
                    },
                };
                FaultSpec { trigger, kind }
            })
            .collect();
        Self::new(specs)
    }

    /// True when the schedule injects nothing.
    pub fn is_empty(&self) -> bool {
        self.specs.is_empty()
    }

    /// Every fault that fired so far, in firing order.
    pub fn trace(&self) -> &[FaultRecord] {
        &self.trace
    }

    /// Total simulated stall ticks injected so far.
    pub fn stall_ticks(&self) -> u64 {
        self.stall_ticks
    }

    /// Clears all runtime state (fired flags, trace, counters) so the same
    /// specs can drive a fresh execution.
    pub fn reset(&mut self) {
        self.fired.iter_mut().for_each(|f| *f = false);
        self.op_seen = [0; 5];
        self.armed_io = None;
        self.trace.clear();
        self.stall_ticks = 0;
    }

    /// Called by the executor at the start of an execution: resets the
    /// per-execution occurrence counters and returns the earliest unfired
    /// I/O-tick trigger to arm the buffer pool with (arming it here keeps
    /// the pool's hot path to a single `Option` branch).
    pub(crate) fn begin_execution(&mut self) -> Option<u64> {
        self.op_seen = [0; 5];
        self.armed_io = None;
        let mut best: Option<(usize, u64)> = None;
        for (i, spec) in self.specs.iter().enumerate() {
            if self.fired[i] {
                continue;
            }
            if let (FaultTrigger::IoTick(t), FaultKind::IoError) = (spec.trigger, spec.kind) {
                if best.is_none_or(|(_, bt)| t < bt) {
                    best = Some((i, t));
                }
            }
        }
        if let Some((i, t)) = best {
            self.armed_io = Some(i);
            Some(t)
        } else {
            None
        }
    }

    /// Called by the executor at each join/sort phase, *before* the memory
    /// grant is applied. Fires every matching unfired spec, records it in
    /// the trace, and returns the effects in spec order.
    pub(crate) fn fire_phase(&mut self, phase: usize, op: OpKind) -> Vec<FaultKind> {
        let occurrence = self.op_seen[op.index()];
        self.op_seen[op.index()] += 1;
        let mut effects = Vec::new();
        for (i, spec) in self.specs.iter().enumerate() {
            if self.fired[i] {
                continue;
            }
            let hit = match spec.trigger {
                FaultTrigger::Phase(p) => p == phase,
                FaultTrigger::Operator {
                    kind,
                    occurrence: o,
                } => kind == op && o == occurrence,
                FaultTrigger::IoTick(_) => false,
            };
            if hit {
                self.fired[i] = true;
                self.trace.push(FaultRecord {
                    phase,
                    op,
                    kind: spec.kind,
                });
                if let FaultKind::Stall { ticks } = spec.kind {
                    self.stall_ticks += ticks;
                }
                effects.push(spec.kind);
            }
        }
        effects
    }

    /// Called by the executor when an armed I/O-tick fault surfaced from
    /// the buffer pool: marks the spec fired and records where it hit.
    pub(crate) fn note_io_fault(&mut self, phase: usize, op: OpKind) {
        if let Some(i) = self.armed_io.take() {
            self.fired[i] = true;
            self.trace.push(FaultRecord {
                phase,
                op,
                kind: FaultKind::IoError,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_schedule_is_inert() {
        let mut s = FaultSchedule::empty();
        assert!(s.is_empty());
        assert_eq!(s.begin_execution(), None);
        assert!(s.fire_phase(0, OpKind::GraceHash).is_empty());
        assert!(s.trace().is_empty());
    }

    #[test]
    fn phase_fault_fires_once() {
        let mut s = FaultSchedule::single(FaultSpec {
            trigger: FaultTrigger::Phase(1),
            kind: FaultKind::IoError,
        });
        s.begin_execution();
        assert!(s.fire_phase(0, OpKind::GraceHash).is_empty());
        assert_eq!(s.fire_phase(1, OpKind::SortMerge), vec![FaultKind::IoError]);
        // Never again, even at the same phase.
        assert!(s.fire_phase(1, OpKind::SortMerge).is_empty());
        assert_eq!(s.trace().len(), 1);
        assert_eq!(s.trace()[0].op, OpKind::SortMerge);
    }

    #[test]
    fn operator_trigger_counts_occurrences() {
        let mut s = FaultSchedule::single(FaultSpec {
            trigger: FaultTrigger::Operator {
                kind: OpKind::GraceHash,
                occurrence: 1,
            },
            kind: FaultKind::Stall { ticks: 7 },
        });
        s.begin_execution();
        assert!(s.fire_phase(0, OpKind::GraceHash).is_empty()); // occurrence 0
        assert!(s.fire_phase(1, OpKind::Sort).is_empty());
        assert_eq!(
            s.fire_phase(2, OpKind::GraceHash), // occurrence 1
            vec![FaultKind::Stall { ticks: 7 }]
        );
        assert_eq!(s.stall_ticks(), 7);
    }

    #[test]
    fn io_tick_arms_earliest_unfired() {
        let mut s = FaultSchedule::new(vec![
            FaultSpec {
                trigger: FaultTrigger::IoTick(9),
                kind: FaultKind::IoError,
            },
            FaultSpec {
                trigger: FaultTrigger::IoTick(4),
                kind: FaultKind::IoError,
            },
        ]);
        assert_eq!(s.begin_execution(), Some(4));
        s.note_io_fault(0, OpKind::Scan);
        assert_eq!(s.trace().len(), 1);
        // The fired spec stays fired; the other arms next.
        assert_eq!(s.begin_execution(), Some(9));
    }

    #[test]
    fn seeded_is_deterministic_and_reset_replays() {
        let a = FaultSchedule::seeded(42, 6, 3);
        let b = FaultSchedule::seeded(42, 6, 3);
        assert_eq!(a, b);
        assert_ne!(a, FaultSchedule::seeded(43, 6, 3));
        let mut c = a.clone();
        c.begin_execution();
        c.fire_phase(0, OpKind::GraceHash);
        c.fire_phase(1, OpKind::Sort);
        c.reset();
        assert_eq!(c, a);
    }
}
