//! Coverage for public API surface not exercised elsewhere: display forms,
//! statistics plumbing, builder edge cases, and error paths.

use lap::core::{explain, plan_star, CompileOptions, ContainmentEngine, PreparedQuery};
use lap::engine::{CallStats, Database, SourceRegistry};
use lap::ir::{
    display_adorned, parse_literal, parse_program, parse_query, AccessPattern, Schema,
};
use lap::mediator::{Mediator, MediatorError};
use lap::planner::PlanCost;

#[test]
fn call_stats_absorb_accumulates() {
    let mut a = CallStats {
        calls: 3,
        tuples_returned: 10,
        cache_hits: 1,
    };
    a.absorb(CallStats {
        calls: 2,
        tuples_returned: 5,
        cache_hits: 4,
    });
    assert_eq!(a.calls, 5);
    assert_eq!(a.tuples_returned, 15);
    assert_eq!(a.cache_hits, 5);
    assert_eq!(a.to_string(), "5 calls, 15 tuples transferred, 5 cache hits");
}

#[test]
fn adorned_display_with_negation_and_pattern() {
    let lit = parse_literal("not L(i)").unwrap();
    let p = AccessPattern::parse("i").unwrap();
    assert_eq!(display_adorned(&lit, Some(p)), "not L^i(i)");
}

#[test]
fn plan_cost_objective_weighs_calls_over_tuples() {
    let expensive_calls = PlanCost {
        calls: 100.0,
        tuples: 0.0,
    };
    let expensive_tuples = PlanCost {
        calls: 0.0,
        tuples: 100.0,
    };
    assert!(expensive_calls.total() > expensive_tuples.total());
    assert_eq!(PlanCost::zero().total(), 0.0);
}

#[test]
fn union_plan_display_includes_false_and_nulls() {
    let program = parse_program(
        "B^ii.\n\
         Q(x, y) :- B(x, y).",
    )
    .unwrap();
    let pair = plan_star(program.single_query().unwrap(), &program.schema);
    assert_eq!(pair.under.to_string(), "Q(x, y) :- false.");
    assert!(pair.over.to_string().contains("x = null"));
    assert!(pair.over.to_string().contains("y = null"));
}

#[test]
fn explanation_on_feasible_query_has_no_culprits_and_renders() {
    let program = parse_program(
        "C^oo. L^o.\n\
         Q(i) :- C(i, a), not L(i).",
    )
    .unwrap();
    let e = explain(program.single_query().unwrap(), &program.schema, &ContainmentEngine::default());
    assert!(e.feasible);
    assert_eq!(e.culprits().count(), 0);
    let shown = e.to_string();
    assert!(shown.contains("feasible: true"), "{shown}");
}

#[test]
fn prepared_query_exposes_decision_path_and_plans() {
    let program = parse_program(
        "C^oo.\n\
         Q(i) :- C(i, a).",
    )
    .unwrap();
    let engine = ContainmentEngine::default();
    let opts = CompileOptions { recorder: engine.recorder(), feasibility: Some(&engine) };
    let prepared = PreparedQuery::compile(program.single_query().unwrap(), &program.schema, &opts);
    assert_eq!(prepared.feasibility().map(|r| r.feasible), Some(true));
    assert_eq!(prepared.decision_path(), lap::core::DecisionPath::PlansCoincide);
    assert_eq!(prepared.plans().under.parts.len(), 1);
    assert_eq!(prepared.query().disjuncts.len(), 1);
}

#[test]
fn mediator_disjunct_cap_reports_cleanly() {
    let m = Mediator::from_program(
        "S1^o. S2^o.\n\
         G(x) :- S1(x).\n\
         G(x) :- S2(x).",
    )
    .unwrap()
    .with_max_disjuncts(4);
    // 2^4 = 16 unfoldings exceeds the cap of 4.
    let q = parse_query("Q(x) :- G(x), G(x), G(x), G(x).").unwrap();
    let err = m.plan(&q).unwrap_err();
    assert!(matches!(err, MediatorError::Unfold(_)), "{err}");
    assert!(err.to_string().contains("cap"), "{err}");
}

#[test]
fn mediator_multi_level_views_through_the_facade() {
    let m = Mediator::from_program(
        "Vendor^ooo. Shelf^o.\n\
         Avail(i, a) :- Book(i, a, t), not Lib(i).\n\
         Book(i, a, t) :- Vendor(i, a, t).\n\
         Lib(i) :- Shelf(i).",
    )
    .unwrap();
    let q = parse_query("Q(a) :- Avail(i, a).").unwrap();
    let db = Database::from_facts(
        r#"Vendor(1, "adams", "hhgttg"). Vendor(2, "lem", "solaris"). Shelf(1)."#,
    )
    .unwrap();
    let (plan, report) = m.answer(&q, &db).unwrap();
    assert!(plan.feasibility().feasible);
    assert!(report.is_complete());
    assert_eq!(report.under.len(), 1); // only book 2 is off the shelf
}

#[test]
fn schema_display_reparses_into_the_same_schema() {
    let schema =
        Schema::from_patterns(&[("B", "ioo"), ("B", "oio"), ("C", "oo"), ("L", "o")]).unwrap();
    let program = parse_program(&schema.to_string()).unwrap();
    assert_eq!(program.schema, schema);
}

#[test]
fn registry_reset_keeps_cache_but_clears_counters() {
    let db = Database::from_facts("R(1). R(2).").unwrap();
    let schema = Schema::from_patterns(&[("R", "o")]).unwrap();
    let mut reg = SourceRegistry::with_cache(&db, &schema);
    let p = AccessPattern::parse("o").unwrap();
    reg.call(lap::ir::Symbol::intern("R"), p, &[None]).unwrap();
    assert_eq!(reg.stats().calls, 1);
    reg.reset_stats();
    assert_eq!(reg.stats().calls, 0);
    // Cached: the repeated call is a hit, not a new source call.
    reg.call(lap::ir::Symbol::intern("R"), p, &[None]).unwrap();
    assert_eq!(reg.stats().calls, 0);
    assert_eq!(reg.stats().cache_hits, 1);
}

#[test]
fn union_query_helpers() {
    let q = parse_query("Q(x) :- F(x).\nQ(x) :- G(x), H(x).").unwrap();
    let smaller = q.without_disjunct(0);
    assert_eq!(smaller.disjuncts.len(), 1);
    let replaced = q.with_disjunct(0, q.disjuncts[1].clone());
    assert_eq!(replaced.disjuncts[0], q.disjuncts[1]);
    assert!(!q.is_false());
    assert_eq!(q.free_vars().len(), 1);
}
