//! Heavy randomized soak sweeps — run explicitly with
//! `cargo test --release --test soak -- --ignored`.
//!
//! These repeat the cross-cutting invariants of `tests/properties.rs` and
//! `tests/pipeline.rs` at 10–50× the seed volume, intended for occasional
//! deep validation rather than every CI run.

mod door;

use door::contained;
use lap::baselines::{ucq_stable, ucq_stable_star};
use lap::containment::cq_contained_canonical;
use lap::core::{ans, answer_star, feasible, feasible_detailed};
use lap::engine::eval_oracle;
use lap::workload::{
    gen_instance, gen_query, gen_schema, InstanceConfig, QueryConfig, SchemaConfig,
};
use lap_prng::StdRng;

fn schema(seed: u64) -> lap::ir::Schema {
    gen_schema(
        &SchemaConfig {
            num_relations: 5,
            min_arity: 1,
            max_arity: 3,
            patterns_per_relation: 2,
            input_fraction: 0.4,
            free_scan_fraction: 0.5,
        },
        &mut StdRng::seed_from_u64(seed % 32),
    )
}

#[test]
#[ignore = "soak test: run with --ignored"]
fn soak_prop4_and_cor17() {
    for seed in 0..5_000u64 {
        let s = schema(seed);
        let q = gen_query(
            &s,
            &QueryConfig {
                num_disjuncts: 1 + (seed % 3) as usize,
                positive_per_disjunct: 3,
                negative_per_disjunct: (seed % 3) as usize,
                extra_vars: 2,
                head_arity: 2,
                constant_fraction: 0.1,
                constant_pool: 3,
            },
            &mut StdRng::seed_from_u64(seed),
        );
        let a = ans(&q, &s);
        assert!(contained(&q, &a), "Prop 4 broken at seed {seed}: {q}");
        let report = feasible_detailed(&q, &s);
        if !report.plans.over.has_null() {
            assert_eq!(
                report.feasible,
                contained(&a, &q),
                "Cor 17 broken at seed {seed}: {q}"
            );
        }
    }
}

#[test]
#[ignore = "soak test: run with --ignored"]
fn soak_containment_oracles_agree() {
    for seed in 0..20_000u64 {
        let s = schema(seed);
        let cfg = QueryConfig {
            num_disjuncts: 1,
            positive_per_disjunct: 3 + (seed % 3) as usize,
            negative_per_disjunct: 0,
            extra_vars: 2,
            head_arity: 2,
            constant_fraction: 0.1,
            constant_pool: 3,
        };
        let p = gen_query(&s, &cfg, &mut StdRng::seed_from_u64(seed));
        let q = gen_query(&s, &cfg, &mut StdRng::seed_from_u64(seed + 777));
        assert_eq!(
            contained(&p, &q),
            cq_contained_canonical(&p.disjuncts[0], &q.disjuncts[0]),
            "containment oracles disagree at seed {seed}:\nP = {p}\nQ = {q}"
        );
    }
}

#[test]
#[ignore = "soak test: run with --ignored"]
fn soak_runtime_sandwich() {
    let icfg = InstanceConfig {
        domain_size: 6,
        tuples_per_relation: 9,
    };
    for seed in 0..2_000u64 {
        let s = schema(seed);
        let q = gen_query(
            &s,
            &QueryConfig {
                num_disjuncts: 2,
                positive_per_disjunct: 3,
                negative_per_disjunct: (seed % 2) as usize,
                extra_vars: 2,
                head_arity: 2,
                constant_fraction: 0.1,
                constant_pool: 3,
            },
            &mut StdRng::seed_from_u64(seed),
        );
        let db = gen_instance(&s, &icfg, &mut StdRng::seed_from_u64(seed + 31));
        let oracle = eval_oracle(&q, &db).unwrap();
        let rep = answer_star(&q, &s, &db).unwrap();
        assert!(rep.under.is_subset(&oracle), "seed {seed}");
        if rep.is_complete() {
            assert_eq!(rep.under, oracle, "seed {seed}");
        }
    }
}

#[test]
#[ignore = "soak test: run with --ignored"]
fn soak_baseline_agreement() {
    for seed in 0..5_000u64 {
        let s = schema(seed);
        let q = gen_query(
            &s,
            &QueryConfig {
                num_disjuncts: 1 + (seed % 4) as usize,
                positive_per_disjunct: 3,
                negative_per_disjunct: 0,
                extra_vars: 2,
                head_arity: 2,
                constant_fraction: 0.1,
                constant_pool: 3,
            },
            &mut StdRng::seed_from_u64(seed),
        );
        let f = feasible(&q, &s);
        assert_eq!(ucq_stable(&q, &s), f, "UCQstable diverged at seed {seed}: {q}");
        assert_eq!(
            ucq_stable_star(&q, &s),
            f,
            "UCQstable* diverged at seed {seed}: {q}"
        );
    }
}
