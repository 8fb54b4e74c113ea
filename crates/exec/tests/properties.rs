//! Property tests for the execution substrate: every operator, at every
//! memory grant, joins correctly (vs the oracle) and respects the buffer
//! discipline; the hash-based joins emit their output in a pinned order;
//! and one faulted multi-operator execution is pinned bit for bit.

use lec_cost::JoinMethod;
use lec_exec::datagen::{generate, DataGenSpec};
use lec_exec::executor::PhaseReport;
use lec_exec::ops::oracle::{multisets_equal, oracle_join};
use lec_exec::ops::{
    block_nested_loop_join, external_sort, grace_hash_join, join_tuple, sort_merge_join, MIN_MEMORY,
};
use lec_exec::{
    execute_plan_with_faults, BufferPool, Disk, ExecFeedback, ExecMemoryEnv, ExecReport, FaultKind,
    FaultRecord, FaultSchedule, FaultSpec, FaultTrigger, IoCounters, JoinObs, OpKind, RelId,
    SelectionObs, Tuple,
};
use lec_plan::{KeyId, Plan, RelSet};
use lec_stats::Distribution;
use proptest::prelude::*;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;

fn setup(pa: usize, pb: usize, domain: u64, seed: u64) -> (Disk, RelId, RelId) {
    let mut disk = Disk::new();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let a = generate(
        &mut disk,
        &mut rng,
        &DataGenSpec {
            pages: pa,
            key_domain: domain,
        },
    );
    let b = generate(
        &mut disk,
        &mut rng,
        &DataGenSpec {
            pages: pb,
            key_domain: domain,
        },
    );
    (disk, a, b)
}

/// Test-side reference join with a pinned output order: probe tuples in
/// sequence, each followed by its matches from the build side grouped per
/// key in insertion order. `build_is_left` says which side plays A in
/// [`join_tuple`].
fn ordered_reference(build: &[Tuple], probe: &[Tuple], build_is_left: bool) -> Vec<Tuple> {
    let mut groups: BTreeMap<u64, Vec<Tuple>> = BTreeMap::new();
    for &t in build {
        groups.entry(t.key).or_default().push(t);
    }
    let mut out = Vec::new();
    for &p in probe {
        for &b in groups.get(&p.key).into_iter().flatten() {
            out.push(if build_is_left {
                join_tuple(b, p)
            } else {
                join_tuple(p, b)
            });
        }
    }
    out
}

/// The tuples of pages `pages` of `rel`, in storage order.
fn page_tuples(disk: &Disk, rel: RelId, pages: std::ops::Range<usize>) -> Vec<Tuple> {
    pages
        .flat_map(|p| disk.page(rel, p).unwrap().tuples().iter().copied())
        .collect()
}

/// A tuple sequence split into per-key subsequences.
fn per_key(tuples: &[Tuple]) -> BTreeMap<u64, Vec<Tuple>> {
    let mut groups: BTreeMap<u64, Vec<Tuple>> = BTreeMap::new();
    for &t in tuples {
        groups.entry(t.key).or_default().push(t);
    }
    groups
}

/// Memory grants: the minimum, the partitioned / multi-block range, and
/// a grant every generated input fits.
fn grant() -> impl Strategy<Value = usize> {
    (0u8..4, 4usize..12).prop_map(|(pick, mid)| match pick {
        0 => MIN_MEMORY,
        1 | 2 => mid,
        _ => 64,
    })
}

/// Key domains: a single key, heavy duplication, and mostly distinct keys.
fn key_domain() -> impl Strategy<Value = u64> {
    (0u8..3, 2u64..40, 40u64..2000).prop_map(|(pick, dup, wide)| match pick {
        0 => 1,
        1 => dup,
        _ => wide,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// All three joins return the oracle's multiset for arbitrary sizes,
    /// key skew, and memory grants.
    #[test]
    fn joins_match_oracle(
        pa in 1usize..24,
        pb in 1usize..24,
        domain in 1u64..2000,
        m in 3usize..40,
        seed in 0u64..1000,
    ) {
        let (mut disk, a, b) = setup(pa, pb, domain, seed);
        let expect = oracle_join(&disk, a, b).unwrap();

        let mut pool = BufferPool::with_capacity(m);
        let sm = sort_merge_join(&mut disk, &mut pool, a, b, m, false, false).unwrap();
        prop_assert!(multisets_equal(disk.all_tuples(sm).unwrap(), expect.clone()), "sort-merge");

        let mut pool = BufferPool::with_capacity(m);
        let gh = grace_hash_join(&mut disk, &mut pool, a, b, m).unwrap();
        prop_assert!(multisets_equal(disk.all_tuples(gh).unwrap(), expect.clone()), "grace-hash");

        let mut pool = BufferPool::with_capacity(m);
        let nl = block_nested_loop_join(&mut disk, &mut pool, a, b, m).unwrap();
        prop_assert!(multisets_equal(disk.all_tuples(nl).unwrap(), expect), "nested-loop");
    }

    /// External sort emits exactly the input multiset, sorted, at any grant.
    #[test]
    fn sort_is_a_permutation_and_sorted(
        pages in 1usize..40,
        domain in 1u64..500,
        m in 3usize..24,
        seed in 0u64..1000,
    ) {
        let (mut disk, a, _) = setup(pages, 1, domain, seed);
        let mut expect = disk.all_tuples(a).unwrap();
        expect.sort_unstable();
        let mut pool = BufferPool::with_capacity(m);
        let out = external_sort(&mut disk, &mut pool, a, m).unwrap();
        let got = disk.all_tuples(out).unwrap();
        prop_assert_eq!(got, expect);
    }

    /// More memory never meaningfully increases any operator's counted I/O.
    /// (Hash partitioning tolerates ±couple pages: per-partition page
    /// fragmentation is data-dependent, so exact monotonicity is not a true
    /// invariant at page granularity.)
    #[test]
    fn io_monotone_in_memory(
        pa in 2usize..20,
        pb in 2usize..20,
        seed in 0u64..1000,
    ) {
        let grants = [3usize, 6, 12, 30, 64];
        for op in 0..3 {
            let mut last = u64::MAX;
            for &m in &grants {
                let (mut disk, a, b) = setup(pa, pb, 300, seed);
                let mut pool = BufferPool::with_capacity(m);
                match op {
                    0 => { sort_merge_join(&mut disk, &mut pool, a, b, m, false, false).unwrap(); }
                    1 => { grace_hash_join(&mut disk, &mut pool, a, b, m).unwrap(); }
                    _ => { block_nested_loop_join(&mut disk, &mut pool, a, b, m).unwrap(); }
                }
                let total = pool.counters().total();
                let slack = if op == 1 { last / 50 + 2 } else { 0 };
                prop_assert!(
                    total <= last.saturating_add(slack),
                    "op {op} at m={m}: {total} > {last}"
                );
                last = total;
            }
        }
    }

    /// Differential: counted I/O stays within a bounded factor of the
    /// detailed textbook cost model for every operator (the continuous
    /// version of experiment X9 — catches accounting regressions).
    #[test]
    fn measured_io_tracks_detailed_model(
        pa in 4usize..40,
        pb in 4usize..40,
        m in 4usize..64,
        seed in 0u64..1000,
    ) {
        use lec_cost::{CostModel, DetailedCostModel, JoinMethod};
        // Huge key domain: negligible matches, so output writes don't blur
        // the comparison.
        let (mut disk, a, b) = setup(pa, pb, u64::MAX / 2, seed);
        for method in JoinMethod::ALL {
            let mut pool = BufferPool::with_capacity(m);
            match method {
                JoinMethod::SortMerge => {
                    sort_merge_join(&mut disk, &mut pool, a, b, m, false, false).unwrap();
                }
                JoinMethod::GraceHash => {
                    grace_hash_join(&mut disk, &mut pool, a, b, m).unwrap();
                }
                JoinMethod::NestedLoop => {
                    block_nested_loop_join(&mut disk, &mut pool, a, b, m).unwrap();
                }
            }
            let measured = pool.counters().total() as f64;
            let predicted =
                DetailedCostModel.join_cost(method, pa as f64, pb as f64, m as f64);
            let ratio = measured / predicted;
            prop_assert!(
                (0.3..=3.5).contains(&ratio),
                "{method} pa={pa} pb={pb} m={m}: measured {measured} vs predicted {predicted}"
            );
        }
    }

    /// The buffer pool's resident set never exceeds its capacity during
    /// any operator run.
    #[test]
    fn pool_respects_capacity(
        pa in 2usize..16,
        pb in 2usize..16,
        m in 3usize..12,
        seed in 0u64..1000,
    ) {
        let (mut disk, a, b) = setup(pa, pb, 300, seed);
        let mut pool = BufferPool::with_capacity(m);
        sort_merge_join(&mut disk, &mut pool, a, b, m, false, false).unwrap();
        prop_assert!(pool.resident() <= m);
        grace_hash_join(&mut disk, &mut pool, a, b, m).unwrap();
        prop_assert!(pool.resident() <= m);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The hash-based joins emit a pinned tuple *sequence*, not just the
    /// right multiset. Block nested loop: block by block, the inner in scan
    /// order, each inner tuple's matches in outer order. Grace hash in
    /// memory: the probe side in scan order, each probe tuple's matches in
    /// build order (the smaller side builds, `a` on ties). Partitioned
    /// grace hash concatenates partition pairs in hash order, so only each
    /// key's subsequence is pinned: it is the in-memory order with either
    /// side building, whichever its partition pair chose.
    #[test]
    fn hash_joins_emit_the_reference_order(
        pa in 0usize..14,
        pb in 0usize..14,
        domain in key_domain(),
        m in grant(),
        seed in 0u64..1000,
    ) {
        let (mut disk, a, b) = setup(pa, pb, domain, seed);
        let (ta, tb) = (page_tuples(&disk, a, 0..pa), page_tuples(&disk, b, 0..pb));

        let mut pool = BufferPool::with_capacity(m);
        let nl = block_nested_loop_join(&mut disk, &mut pool, a, b, m).unwrap();
        let block = (m - 2).max(1);
        let mut expect_nl = Vec::new();
        for start in (0..pa).step_by(block) {
            let outer = page_tuples(&disk, a, start..(start + block).min(pa));
            expect_nl.extend(ordered_reference(&outer, &tb, true));
        }
        prop_assert_eq!(disk.all_tuples(nl).unwrap(), expect_nl, "nested-loop at m = {}", m);

        let mut pool = BufferPool::with_capacity(m);
        let gh = grace_hash_join(&mut disk, &mut pool, a, b, m).unwrap();
        let got = disk.all_tuples(gh).unwrap();
        let a_builds = ordered_reference(&ta, &tb, true);
        let b_builds = ordered_reference(&tb, &ta, false);
        if pa.min(pb) + 2 <= m {
            let expect = if pa <= pb { a_builds } else { b_builds };
            prop_assert_eq!(got, expect, "in-memory grace at m = {}", m);
        } else {
            let (got, a_builds, b_builds) = (per_key(&got), per_key(&a_builds), per_key(&b_builds));
            prop_assert_eq!(got.len(), a_builds.len(), "partitioned grace: key set");
            for (key, seq) in &got {
                prop_assert!(
                    a_builds.get(key) == Some(seq) || b_builds.get(key) == Some(seq),
                    "partitioned grace at m = {}: key {} out of order", m, key
                );
            }
        }
    }
}

/// Order-sensitive FNV-1a digest of a tuple sequence.
fn sequence_digest(tuples: &[Tuple]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for t in tuples {
        for word in [t.key, t.payload] {
            h ^= word;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// A four-relation plan touching every operator (filtered scans, grace
/// hash partitioned under a memory-pressure fault, sort-merge with its
/// external sorts, block nested loop over one-page blocks) with per-phase
/// memory draws. The report, the feedback, the fault trace and the output
/// sequence are pinned to the values the executor produced before its
/// operators moved to the flat key index and the copy-free pool.
#[test]
fn execute_plan_with_faults_golden() {
    let mut disk = Disk::new();
    let mut rng = ChaCha8Rng::seed_from_u64(13);
    let base: Vec<RelId> = [6usize, 9, 4, 7]
        .iter()
        .map(|&pages| {
            generate(
                &mut disk,
                &mut rng,
                &DataGenSpec {
                    pages,
                    key_domain: 300,
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
        Plan::join(
            Plan::scan(2),
            Plan::scan(3),
            JoinMethod::SortMerge,
            Some(KeyId(0)),
        ),
        JoinMethod::NestedLoop,
        Some(KeyId(0)),
    );
    let memory = Distribution::new(vec![(4.0, 0.4), (6.0, 0.3), (24.0, 0.3)]).unwrap();
    let mut env = ExecMemoryEnv::iid(memory, 5);
    let pressure = |phase, divisor| FaultSpec {
        trigger: FaultTrigger::Phase(phase),
        kind: FaultKind::MemoryPressure { divisor },
    };
    let mut faults = FaultSchedule::new(vec![pressure(0, 6), pressure(2, 2)]);
    let (report, feedback) = execute_plan_with_faults(
        &plan,
        &base,
        &[0.4, 1.0, 1.0, 0.7],
        &mut disk,
        &mut env,
        &mut faults,
    )
    .unwrap();

    let io = |reads, writes| IoCounters { reads, writes };
    let phase = |memory, reads, writes| PhaseReport {
        memory,
        io: io(reads, writes),
    };
    assert_eq!(
        report,
        ExecReport {
            output: RelId(19),
            total: io(92, 45),
            phases: vec![phase(4, 25, 19), phase(6, 18, 14), phase(3, 36, 4)],
        }
    );
    let selection = |rel, in_pages, out_pages, in_rows, out_rows| SelectionObs {
        rel,
        in_pages,
        out_pages,
        in_rows,
        out_rows,
    };
    let join = |bits, lp, rp, lr, rr, op, or| JoinObs {
        rels: RelSet::from_bits(bits),
        left_pages: lp,
        right_pages: rp,
        left_rows: lr,
        right_rows: rr,
        out_pages: op,
        out_rows: or,
    };
    assert_eq!(
        feedback,
        ExecFeedback {
            selections: vec![selection(0, 6, 3, 384, 136), selection(3, 7, 5, 448, 305)],
            joins: vec![
                join(0b0011, 3, 9, 136, 576, 6, 241),
                join(0b1100, 4, 5, 256, 305, 5, 272),
                join(0b1111, 6, 5, 241, 272, 4, 219),
            ],
        }
    );
    assert_eq!(
        faults.trace(),
        [
            FaultRecord {
                phase: 0,
                op: OpKind::GraceHash,
                kind: FaultKind::MemoryPressure { divisor: 6 },
            },
            FaultRecord {
                phase: 2,
                op: OpKind::NestedLoop,
                kind: FaultKind::MemoryPressure { divisor: 2 },
            },
        ]
    );
    let output = disk.all_tuples(report.output).unwrap();
    assert_eq!(output.len(), 219);
    assert_eq!(sequence_digest(&output), 0xe632_2fdd_6077_b29c);
}
