//! Property tests for the plan-IR static verifier (`lec_plan::verify`):
//! every optimizer in the family emits plans the verifier accepts, and
//! hand-mutated plans — wrong join key, duplicated relation, missing
//! coverage, bogus sort — are rejected with the right structured error.
//!
//! The optimizers already run these checks themselves behind
//! `debug_assertions`; this suite pins the contract from the outside so a
//! release-built optimizer cannot silently drift either.

use lecopt::core::{alg_a, alg_b, alg_c, alg_d, bushy, exhaustive, lsc, pareto, topc, MemoryModel};
use lecopt::cost::PaperCostModel;
use lecopt::plan::{verify_frontier, verify_plan, KeyId, Plan, PlanError};
use lecopt::stats::{Distribution, Utility};
use lecopt::workload::envs;
use lecopt::workload::queries::{QueryGen, Topology};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn query(topology: Topology, n: usize, seed: u64) -> lecopt::plan::JoinQuery {
    QueryGen {
        topology,
        n,
        ..QueryGen::default()
    }
    .generate(&mut ChaCha8Rng::seed_from_u64(seed))
}

fn memory() -> Distribution {
    envs::lognormal(300.0, 1.0, 5)
}

#[test]
fn every_optimizer_family_member_emits_verifiable_plans() {
    let model = PaperCostModel;
    for (topology, n) in [
        (Topology::Chain, 4),
        (Topology::Star, 5),
        (Topology::Clique, 4),
    ] {
        for seed in 0..8 {
            let q = query(topology, n, seed);
            let mem = memory();
            let static_mem = MemoryModel::Static(mem.clone());
            let phases = static_mem.table(q.n().max(2)).expect("phase table");

            let mut emitted: Vec<(&str, Plan)> = vec![(
                "lsc",
                lsc::optimize_at(&q, &model, mem.mode())
                    .expect("lsc")
                    .0
                    .plan,
            )];
            emitted.push((
                "alg_a",
                alg_a::optimize(&q, &model, &static_mem)
                    .expect("alg_a")
                    .best
                    .plan,
            ));
            emitted.push((
                "alg_b",
                alg_b::optimize(&q, &model, &static_mem, 3)
                    .expect("alg_b")
                    .best
                    .plan,
            ));
            emitted.push((
                "alg_c",
                alg_c::optimize(&q, &model, &static_mem)
                    .expect("alg_c")
                    .0
                    .plan,
            ));
            let sizes = alg_d::SizeModel::certain(&q).expect("size model");
            emitted.push((
                "alg_d",
                alg_d::optimize(
                    &q,
                    &PaperCostModel,
                    &static_mem,
                    &sizes,
                    alg_d::AlgDConfig::default(),
                )
                .expect("alg_d")
                .0
                .best
                .plan,
            ));
            emitted.push((
                "bushy",
                bushy::optimize(&q, &model, &static_mem)
                    .expect("bushy")
                    .0
                    .plan,
            ));
            emitted.push((
                "exhaustive",
                exhaustive::exhaustive_lec(&q, &model, &phases)
                    .expect("exhaustive")
                    .0
                    .plan,
            ));
            let topc = topc::top_c_plans(&q, &model, mem.mode(), 3, topc::MergeStrategy::Frontier)
                .expect("topc")
                .0;
            for (i, p) in topc.plans.iter().enumerate() {
                emitted.push(("topc", p.plan.clone()));
                assert!(p.cost.is_finite() && p.cost >= 0.0, "topc cost {i}");
            }
            let utility = pareto::optimize(&q, &model, &mem, Utility::Exponential { gamma: 1e-5 })
                .expect("pareto")
                .0;
            emitted.push(("pareto", utility.best.plan.clone()));
            // The root frontier must itself verify: mutually nondominated,
            // finite nonnegative profiles.
            assert_eq!(
                verify_frontier(&utility.frontier_profiles),
                Ok(()),
                "{topology:?} seed {seed}: pareto frontier"
            );

            // Self-check the battery's coverage: every member of the
            // optimizer family must have contributed a plan above, so a
            // future refactor cannot silently drop one from the contract.
            let names: std::collections::BTreeSet<&str> =
                emitted.iter().map(|(name, _)| *name).collect();
            let family: std::collections::BTreeSet<&str> = [
                "lsc",
                "alg_a",
                "alg_b",
                "alg_c",
                "alg_d",
                "bushy",
                "exhaustive",
                "topc",
                "pareto",
            ]
            .into_iter()
            .collect();
            assert_eq!(
                names, family,
                "{topology:?} seed {seed}: the verifier battery must cover the whole family"
            );

            for (name, plan) in emitted {
                assert_eq!(
                    verify_plan(&plan, &q),
                    Ok(()),
                    "{topology:?} seed {seed}: {name} emitted an unverifiable plan: {plan:?}"
                );
            }
        }
    }
}

/// Flips the key declared on the topmost join node.
fn corrupt_join_key(plan: &Plan) -> Plan {
    match plan {
        Plan::Join {
            left,
            right,
            method,
            key,
        } => Plan::Join {
            left: left.clone(),
            right: right.clone(),
            method: *method,
            key: match key {
                Some(_) => None,
                None => Some(KeyId(0)),
            },
        },
        Plan::Sort { input, key } => Plan::Sort {
            input: Box::new(corrupt_join_key(input)),
            key: *key,
        },
        access => access.clone(),
    }
}

/// Replaces the leftmost leaf's relation with `rel` (duplicating one that
/// already occurs elsewhere in the tree).
fn replace_leftmost_leaf(plan: &Plan, rel: usize) -> Plan {
    match plan {
        Plan::Access { method, .. } => Plan::Access {
            rel,
            method: *method,
        },
        Plan::Join {
            left,
            right,
            method,
            key,
        } => Plan::Join {
            left: Box::new(replace_leftmost_leaf(left, rel)),
            right: right.clone(),
            method: *method,
            key: *key,
        },
        Plan::Sort { input, key } => Plan::Sort {
            input: Box::new(replace_leftmost_leaf(input, rel)),
            key: *key,
        },
    }
}

/// The root's left subtree: a plan that misses at least one relation.
fn drop_to_left_subtree(plan: &Plan) -> Plan {
    match plan {
        Plan::Join { left, .. } => (**left).clone(),
        Plan::Sort { input, .. } => drop_to_left_subtree(input),
        access => access.clone(),
    }
}

#[test]
fn mutated_plans_are_rejected() {
    let model = PaperCostModel;
    for seed in 0..10 {
        let q = query(Topology::Chain, 4, 200 + seed);
        let good = alg_c::optimize(&q, &model, &MemoryModel::Static(memory()))
            .expect("alg_c")
            .0
            .plan;
        assert_eq!(verify_plan(&good, &q), Ok(()));

        // Wrong (or dropped) join key at the root.
        let bad_key = corrupt_join_key(&good);
        assert!(
            matches!(
                verify_plan(&bad_key, &q),
                Err(PlanError::JoinKeyMismatch { .. })
            ),
            "seed {seed}: corrupted key accepted"
        );

        // A relation appearing twice: duplicate or coverage error, never Ok.
        // Pick a replacement different from the current leftmost leaf so the
        // mutation is never a no-op.
        let leftmost = {
            fn leftmost_rel(p: &Plan) -> usize {
                match p {
                    Plan::Access { rel, .. } => *rel,
                    Plan::Join { left, .. } => leftmost_rel(left),
                    Plan::Sort { input, .. } => leftmost_rel(input),
                }
            }
            leftmost_rel(&good)
        };
        let duped = replace_leftmost_leaf(&good, (leftmost + 1) % q.n());
        assert!(
            matches!(
                verify_plan(&duped, &q),
                Err(PlanError::DuplicateRelation(_))
                    | Err(PlanError::CoverageMismatch { .. })
                    | Err(PlanError::JoinKeyMismatch { .. })
            ),
            "seed {seed}: duplicated relation accepted: {:?}",
            verify_plan(&duped, &q)
        );

        // A plan that covers a strict subset of the relations.
        let partial = drop_to_left_subtree(&good);
        assert!(
            matches!(
                verify_plan(&partial, &q),
                Err(PlanError::CoverageMismatch { .. })
            ),
            "seed {seed}: partial coverage accepted"
        );

        // A sort on a key no predicate defines.
        let bogus_sort = Plan::sort(good.clone(), KeyId(97));
        assert_eq!(
            verify_plan(&bogus_sort, &q),
            Err(PlanError::UnknownOrderKey(97)),
            "seed {seed}: bogus sort key accepted"
        );
    }
}

#[test]
fn verifier_accepts_required_order_completions() {
    // Ordered queries exercise the sort/ordered-root completion paths in
    // every finalize; the emitted plan must still verify.
    let model = PaperCostModel;
    for seed in 0..6 {
        let base = query(Topology::Chain, 4, 400 + seed);
        let key = base.predicates()[0].key;
        let q = lecopt::plan::JoinQuery::new(
            base.relations().to_vec(),
            base.predicates().to_vec(),
            Some(key),
        )
        .expect("ordered query");
        let mem = MemoryModel::Static(memory());
        let plan = alg_c::optimize(&q, &model, &mem).expect("alg_c").0.plan;
        assert_eq!(verify_plan(&plan, &q), Ok(()), "seed {seed}");
        let bushy_plan = bushy::optimize(&q, &model, &mem).expect("bushy").0.plan;
        assert_eq!(verify_plan(&bushy_plan, &q), Ok(()), "seed {seed} bushy");
    }
}
