//! End-to-end pipeline sweep: for many seeded (schema, query, instance)
//! triples, run the full compile-time + runtime pipeline and check the
//! global invariants that tie the crates together.

mod door;

use door::{contained, equivalent};
use lap::constraints::{feasible_under, prune_unsatisfiable, ConstraintSet, InclusionDep};
use lap::containment::ContainmentEngine;
use lap::core::{
    ans, answer_star, answer_star_with_domain, feasible_detailed, is_executable, is_orderable,
    DecisionPath,
};
use lap::engine::eval_oracle;
use lap::ir::{parse_program, Predicate};
use lap::workload::{
    gen_instance, gen_instance_with_inclusion, gen_query, gen_schema, InstanceConfig, QueryConfig,
    SchemaConfig,
};
use lap_prng::StdRng;

#[test]
fn full_pipeline_sweep() {
    let instance_cfg = InstanceConfig {
        domain_size: 6,
        tuples_per_relation: 8,
    };
    for seed in 0..120u64 {
        let schema = gen_schema(
            &SchemaConfig {
                num_relations: 4,
                min_arity: 1,
                max_arity: 3,
                patterns_per_relation: 2,
                input_fraction: 0.4,
                free_scan_fraction: 0.5,
            },
            &mut StdRng::seed_from_u64(seed % 12),
        );
        let q = gen_query(
            &schema,
            &QueryConfig {
                num_disjuncts: 1 + (seed % 3) as usize,
                positive_per_disjunct: 3,
                negative_per_disjunct: (seed % 2) as usize,
                extra_vars: 2,
                head_arity: 2,
                constant_fraction: 0.1,
                constant_pool: 3,
            },
            &mut StdRng::seed_from_u64(seed),
        );
        let db = gen_instance(&schema, &instance_cfg, &mut StdRng::seed_from_u64(seed + 99));

        // Compile-time invariants.
        let report = feasible_detailed(&q, &schema);
        if is_executable(&q, &schema) {
            assert!(is_orderable(&q, &schema), "seed {seed}");
        }
        if is_orderable(&q, &schema) {
            assert!(report.feasible, "seed {seed}: orderable must be feasible");
            assert_eq!(
                report.decided_by,
                DecisionPath::PlansCoincide,
                "seed {seed}: orderable queries are decided by the fast path"
            );
        }
        // Corollary 17: feasible ⟺ ans(Q) ⊑ Q (when ans(Q) is a query).
        if !report.plans.over.has_null() {
            let a = ans(&q, &schema);
            assert_eq!(report.feasible, contained(&a, &q), "seed {seed}");
            if report.feasible {
                assert!(equivalent(&a, &q), "seed {seed}: Thm 16 equivalence");
            }
        } else {
            assert!(!report.feasible, "seed {seed}: null ⇒ infeasible");
        }

        // Runtime invariants.
        let oracle = eval_oracle(&q, &db).expect("safe query evaluates");
        let rep = answer_star(&q, &schema, &db).expect("plans execute");
        assert!(rep.under.is_subset(&oracle), "seed {seed}: unsound ansᵤ");
        if rep.is_complete() {
            assert_eq!(rep.under, oracle, "seed {seed}: bogus completeness claim");
        }
        // Domain refinement stays sound and monotone.
        let imp = answer_star_with_domain(&q, &schema, &db, 50_000).expect("refinement runs");
        assert!(imp.base.under.is_subset(&imp.improved_under), "seed {seed}");
        assert!(imp.improved_under.is_subset(&oracle), "seed {seed}: unsound refinement");
    }
}

#[test]
fn constraint_pruning_is_sound_on_closed_instances() {
    // The Example-6 scenario swept over many fk-closed instances: the
    // pruned query must produce exactly the same answers as the original.
    let p = parse_program(
        "S^o. R^oo. B^ii. T^oo.\n\
         Q(x, y) :- not S(z), R(x, z), B(x, y).\n\
         Q(x, y) :- T(x, y).",
    )
    .unwrap();
    let q = p.single_query().unwrap();
    let cs = ConstraintSet::new().with_inclusion(InclusionDep::new(
        Predicate::new("R", 2),
        vec![1],
        Predicate::new("S", 1),
        vec![0],
    ));
    let pruned = prune_unsatisfiable(q, &cs);
    assert_eq!(pruned.disjuncts.len(), 1);
    assert!(feasible_under(q, &cs, &p.schema, &ContainmentEngine::default()).feasible);
    let cfg = InstanceConfig {
        domain_size: 7,
        tuples_per_relation: 10,
    };
    for seed in 0..40u64 {
        let db = gen_instance_with_inclusion(
            &p.schema,
            &cfg,
            "R",
            1,
            "S",
            0,
            &mut StdRng::seed_from_u64(seed),
        );
        let original = eval_oracle(q, &db).unwrap();
        let reduced = eval_oracle(&pruned, &db).unwrap();
        assert_eq!(original, reduced, "seed {seed}: pruning changed answers");
    }
}

#[test]
fn feasible_queries_get_exact_answers_from_the_overestimate() {
    // When FEASIBLE proves ans(Q) ≡ Q (no nulls), evaluating Qᵒ through
    // the restricted sources returns exactly ANSWER(Q, D).
    for seed in 0..60u64 {
        let schema = gen_schema(
            &SchemaConfig {
                free_scan_fraction: 0.6,
                ..SchemaConfig::default()
            },
            &mut StdRng::seed_from_u64(seed % 8),
        );
        let q = gen_query(
            &schema,
            &QueryConfig {
                num_disjuncts: 2,
                positive_per_disjunct: 3,
                negative_per_disjunct: 1,
                extra_vars: 2,
                head_arity: 2,
                constant_fraction: 0.0,
                constant_pool: 3,
            },
            &mut StdRng::seed_from_u64(seed),
        );
        let report = feasible_detailed(&q, &schema);
        if !report.feasible {
            continue;
        }
        let db = gen_instance(
            &schema,
            &InstanceConfig {
                domain_size: 5,
                tuples_per_relation: 7,
            },
            &mut StdRng::seed_from_u64(seed + 7),
        );
        let oracle = eval_oracle(&q, &db).unwrap();
        let rep = answer_star(&q, &schema, &db).unwrap();
        assert_eq!(rep.over, oracle, "seed {seed}: feasible overestimate must be exact");
    }
}
