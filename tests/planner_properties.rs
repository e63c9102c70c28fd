//! Property tests for the plan optimizer: every ordering strategy and the
//! minimal plan must preserve answers exactly, and costs must be ordered
//! exhaustive ≤ greedy (both executable).

use lap::core::{feasible_detailed, is_executable_cq};
use lap::engine::{eval_ordered_union, SourceRegistry};
use lap::planner::{
    best_order, estimate_cost, greedy_order, minimal_executable_plan, optimize_plan_pair,
    CostModel, Strategy,
};
use lap::workload::{gen_instance, gen_query, gen_schema, InstanceConfig, QueryConfig, SchemaConfig};
use lap_prng::StdRng;

fn schema(seed: u64) -> lap::ir::Schema {
    gen_schema(
        &SchemaConfig {
            free_scan_fraction: 0.5,
            ..SchemaConfig::default()
        },
        &mut StdRng::seed_from_u64(seed % 8),
    )
}

#[test]
fn strategies_preserve_answers_and_costs_are_ordered() {
    let mut checked = 0;
    for seed in 0..150u64 {
        let schema = schema(seed);
        let q = gen_query(
            &schema,
            &QueryConfig {
                num_disjuncts: 2,
                positive_per_disjunct: 4,
                negative_per_disjunct: 1,
                extra_vars: 2,
                head_arity: 2,
                constant_fraction: 0.05,
                constant_pool: 3,
            },
            &mut StdRng::seed_from_u64(seed),
        );
        let report = feasible_detailed(&q, &schema);
        let db = gen_instance(
            &schema,
            &InstanceConfig {
                domain_size: 6,
                tuples_per_relation: 10,
            },
            &mut StdRng::seed_from_u64(seed + 1000),
        );
        let model = CostModel::from_database(&db);

        // Cost ordering on each overestimate disjunct.
        for part in &report.plans.over.parts {
            if part.cq.body.is_empty() {
                continue;
            }
            let Some(greedy) = greedy_order(&part.cq, &schema, &model) else {
                continue;
            };
            let (best, best_cost) = best_order(&part.cq, &schema, &model).expect("orderable");
            let greedy_cost = estimate_cost(&greedy, &schema, &model).expect("executable");
            assert!(is_executable_cq(&greedy, &schema), "seed {seed}");
            assert!(is_executable_cq(&best, &schema), "seed {seed}");
            assert!(
                best_cost.total() <= greedy_cost.total() + 1e-9,
                "seed {seed}: exhaustive worse than greedy"
            );
            checked += 1;
        }

        // Answer preservation across strategies.
        let baseline = {
            let mut reg = SourceRegistry::new(&db, &schema);
            eval_ordered_union(&report.plans.over.eval_parts(), &mut reg).expect("plan runs")
        };
        for strategy in [Strategy::Greedy, Strategy::Exhaustive] {
            let optimized = optimize_plan_pair(&report.plans, &schema, &model, strategy);
            let mut reg = SourceRegistry::new(&db, &schema);
            let rows =
                eval_ordered_union(&optimized.over.eval_parts(), &mut reg).expect("plan runs");
            assert_eq!(rows, baseline, "seed {seed}: {strategy:?} changed answers");
        }

        // Minimal plan preserves the (feasible) query's answers.
        if report.feasible && !report.plans.over.has_null() {
            if let Some(min_plan) = minimal_executable_plan(&q, &schema) {
                let parts: Vec<_> = min_plan
                    .disjuncts
                    .iter()
                    .map(|cq| (cq.clone(), Vec::new()))
                    .collect();
                let mut reg = SourceRegistry::new(&db, &schema);
                let rows = eval_ordered_union(&parts, &mut reg).expect("minimal plan runs");
                assert_eq!(rows, baseline, "seed {seed}: minimal plan changed answers");
            }
        }
    }
    assert!(checked > 50, "too few orderable disjuncts exercised: {checked}");
}
