//! The ten worked examples of the paper, reproduced end-to-end (experiment
//! E1). Each test states the paper's claim and checks it programmatically.

use lap::baselines::{cq_stable, cq_stable_star, ucq_stable, ucq_stable_star};
mod door;

use door::{contained, equivalent, single};
use lap::containment::{minimize_cq, minimize_ucq};
use lap::core::{
    ans, answer_star, answer_star_opts, answerable_split, feasible, feasible_detailed,
    is_executable, is_orderable, plan_star, AnswerOptions, Completeness, DecisionPath,
};
use lap::engine::{Database, SourceRegistry, Value};
use lap::ir::{parse_program, parse_query, AccessPattern, Symbol};

fn program(text: &str) -> lap::ir::Program {
    parse_program(text).expect("example parses")
}

/// Example 1: the bookstore query is not executable as written, but
/// feasible — calling C first binds i and a; a negated call cannot produce
/// bindings.
#[test]
fn example_1_bookstore() {
    let p = program(
        "B^ioo. B^oio. C^oo. L^o.\n\
         Q(i, a, t) :- B(i, a, t), C(i, a), not L(i).",
    );
    let q = p.single_query().unwrap();
    assert!(!is_executable(q, &p.schema), "left-to-right execution fails");
    assert!(is_orderable(q, &p.schema), "reordering yields a plan");
    let report = feasible_detailed(q, &p.schema);
    assert!(report.feasible);
    assert_eq!(report.decided_by, DecisionPath::PlansCoincide);
    // The produced plan starts with C (the only free-scan source).
    let plan = &report.plans.under.parts[0];
    assert_eq!(plan.cq.body[0].atom.predicate.name.as_str(), "C");
}

/// Example 2: with B^ioo and B^oio one can retrieve (author, title) pairs
/// given an ISBN and titles given an author, but not all (author, title)
/// pairs with no input.
#[test]
fn example_2_access_patterns() {
    let db = Database::from_facts(
        r#"B(1, "tolkien", "lotr"). B(2, "adams", "hhgttg")."#,
    )
    .unwrap();
    let schema = lap::ir::Schema::from_patterns(&[("B", "ioo"), ("B", "oio")]).unwrap();
    let mut reg = SourceRegistry::new(&db, &schema);
    let b = Symbol::intern("B");
    // Given an ISBN: the set {(a, t) | B(i, a, t)}.
    let rows = reg
        .call(b, AccessPattern::parse("ioo").unwrap(), &[Some(Value::int(1)), None, None])
        .unwrap();
    assert_eq!(rows.len(), 1);
    // Given an author: the set {t | ∃i B(i, a, t)}.
    let rows = reg
        .call(
            b,
            AccessPattern::parse("oio").unwrap(),
            &[None, Some(Value::str("adams")), None],
        )
        .unwrap();
    assert_eq!(rows.len(), 1);
    // No input at all: no pattern admits it.
    assert!(reg
        .call(b, AccessPattern::parse("ooo").unwrap(), &[None, None, None])
        .is_err());
}

/// Example 3: feasible but not orderable — the two-rule union with the
/// unbindable i', a' is equivalent to the executable Q'(a) :- L(i), B(i,a,t).
#[test]
fn example_3_feasible_not_orderable() {
    let p = program(
        "B^ioo. B^oio. L^o.\n\
         Q(a) :- B(i, a, t), L(i), B(i2, a2, t).\n\
         Q(a) :- B(i, a, t), L(i), not B(i2, a2, t).",
    );
    let q = p.single_query().unwrap();
    assert!(!is_orderable(q, &p.schema));
    let report = feasible_detailed(q, &p.schema);
    assert!(report.feasible);
    assert_eq!(report.decided_by, DecisionPath::ContainmentCheck);
    // The equivalence the paper states:
    let q_prime = parse_query("Q(a) :- L(i), B(i, a, t).").unwrap();
    assert!(equivalent(q, &q_prime));
}

/// Example 4: PLAN* produces exactly the under/overestimate plans printed
/// in the paper.
#[test]
fn example_4_plan_star() {
    let p = program(
        "S^o. R^oo. B^ii. T^oo.\n\
         Q(x, y) :- not S(z), R(x, z), B(x, y).\n\
         Q(x, y) :- T(x, y).",
    );
    let pair = plan_star(p.single_query().unwrap(), &p.schema);
    let under: Vec<String> = pair.under.parts.iter().map(|p| p.to_string()).collect();
    let over: Vec<String> = pair.over.parts.iter().map(|p| p.to_string()).collect();
    assert_eq!(under, vec!["Q(x, y) :- T(x, y)."]);
    assert_eq!(
        over,
        vec![
            "Q(x, y) :- R(x, z), not S(z), y = null.",
            "Q(x, y) :- T(x, y).",
        ]
    );
    assert!(!feasible(p.single_query().unwrap(), &p.schema));
}

/// Example 5: for an instance where R(x,z), ¬S(z) yields nothing, the
/// infeasible query still gets a provably complete answer at runtime.
#[test]
fn example_5_runtime_complete() {
    let p = program(
        "S^o. R^oo. B^ii. T^oo.\n\
         Q(x, y) :- not S(z), R(x, z), B(x, y).\n\
         Q(x, y) :- T(x, y).",
    );
    let q = p.single_query().unwrap();
    assert!(!feasible(q, &p.schema));
    let db = Database::from_facts("R(1, 10). S(10). T(7, 8). B(1, 4).").unwrap();
    let rep = answer_star(q, &p.schema, &db).unwrap();
    assert!(rep.is_complete(), "answer is complete despite infeasibility");
    assert_eq!(rep.under.len(), 1);
}

/// Example 6: if R.z is a foreign key into S.z, the first disjunct's
/// answerable part never fires, so the answer is complete on *every* such
/// instance — our runtime detects it without knowing the constraint.
#[test]
fn example_6_foreign_key_dependency() {
    let p = program(
        "S^o. R^oo. B^ii. T^oo.\n\
         Q(x, y) :- not S(z), R(x, z), B(x, y).\n\
         Q(x, y) :- T(x, y).",
    );
    let q = p.single_query().unwrap();
    for seed in 0..10u64 {
        let mut rng = lap_prng::StdRng::seed_from_u64(seed);
        let db = lap::workload::gen_instance_with_inclusion(
            &p.schema,
            &lap::workload::InstanceConfig {
                domain_size: 8,
                tuples_per_relation: 12,
            },
            "R",
            1,
            "S",
            0,
            &mut rng,
        );
        let rep = answer_star(q, &p.schema, &db).unwrap();
        assert!(rep.is_complete(), "seed {seed}: fk-closed instance must be complete");
    }
}

/// Example 7: a binding {x/a, z/b} with R(a,b), ¬S(b) true produces the
/// overestimate tuple (a, null); with B^ii we cannot know whether a
/// matching B(a, y) exists, so no numeric completeness bound is possible.
#[test]
fn example_7_null_interpretation() {
    let p = program(
        "S^o. R^oo. B^ii. T^oo.\n\
         Q(x, y) :- not S(z), R(x, z), B(x, y).\n\
         Q(x, y) :- T(x, y).",
    );
    let q = p.single_query().unwrap();
    let db = Database::from_facts(r#"R(1, 2). S(3). B(1, 9)."#).unwrap();
    let rep = answer_star(q, &p.schema, &db).unwrap();
    assert!(rep.delta.contains(&vec![Value::int(1), Value::Null]));
    assert_eq!(rep.completeness, Completeness::Unknown);
    // The null row means "maybe one or more y": here B(1, 9) really exists,
    // and indeed the oracle finds (1, 9) which the underestimate missed.
    let oracle = lap::engine::eval_oracle(q, &db).unwrap();
    assert!(oracle.contains(&vec![Value::int(1), Value::int(9)]));
    assert!(!rep.under.contains(&vec![Value::int(1), Value::int(9)]));
}

/// Example 8: the domain-enumeration view dom(y) turns the false
/// underestimate of Q₁ into R(x,z), ¬S(z), dom(y), B(x,y) and recovers
/// certain answers.
#[test]
fn example_8_domain_enumeration() {
    let p = program(
        "S^o. R^oo. B^ii. T^oo.\n\
         Q(x, y) :- not S(z), R(x, z), B(x, y).\n\
         Q(x, y) :- T(x, y).",
    );
    let q = p.single_query().unwrap();
    let db = Database::from_facts("R(1, 2). S(3). B(1, 2). T(5, 6).").unwrap();
    let quiet = lap::obs::Recorder::disabled();
    let opts = AnswerOptions { domain: Some(10_000), ..AnswerOptions::new(&quiet) };
    let outcome = answer_star_opts(q, &p.schema, &db, &opts).unwrap();
    assert_eq!(outcome.report.under.len(), 1, "plain underestimate sees only T");
    let refinement = outcome.refinement.expect("a refined run");
    assert!(refinement.under.contains(&vec![Value::int(1), Value::int(2)]));
    assert!(refinement.fixpoint);
    // The improvement is sound: improved ⊆ oracle.
    let oracle = lap::engine::eval_oracle(q, &db).unwrap();
    assert!(refinement.under.is_subset(&oracle));
}

/// Example 9: CQ processing. CQstable minimizes to M(x) :- F(x), B(x);
/// CQstable*/FEASIBLE compute A = F(x), B(x), F(z) and check A ⊑ Q.
#[test]
fn example_9_cq_processing() {
    let p = program(
        "F^o. B^i.\n\
         Q(x) :- F(x), B(x), B(y), F(z).",
    );
    let q = p.single_query().unwrap();
    let cq = &q.disjuncts[0];
    // CQstable's minimal query:
    let m = minimize_cq(cq);
    let expected_m = parse_query("Q(x) :- F(x), B(x).").unwrap().disjuncts[0].clone();
    assert!(equivalent(&single(&m), &single(&expected_m)));
    // CQstable*'s answerable part:
    let split = answerable_split(cq, &p.schema);
    let mut got: Vec<String> = split.answerable.iter().map(|l| l.to_string()).collect();
    got.sort();
    assert_eq!(got, vec!["B(x)", "F(x)", "F(z)"]);
    let a = split.ans_query(&cq.head).unwrap();
    assert!(contained(&single(&a), &single(cq)), "A ⊑ Q holds");
    // All three algorithms agree: feasible.
    assert!(cq_stable(cq, &p.schema));
    assert!(cq_stable_star(cq, &p.schema));
    assert!(feasible(q, &p.schema));
}

/// Example 10: UCQ processing. UCQstable minimizes to M(x) :- F(x);
/// UCQstable* takes P = (F∧G) ∨ F; FEASIBLE takes
/// ans(Q) = (F∧G) ∨ (F∧H) ∨ F. All accept.
#[test]
fn example_10_ucq_processing() {
    let p = program(
        "F^o. G^o. H^o. B^i.\n\
         Q(x) :- F(x), G(x).\n\
         Q(x) :- F(x), H(x), B(y).\n\
         Q(x) :- F(x).",
    );
    let q = p.single_query().unwrap();
    // UCQstable's minimal union:
    let m = minimize_ucq(q);
    assert_eq!(m.disjuncts.len(), 1);
    assert_eq!(m.disjuncts[0].to_string(), "Q(x) :- F(x).");
    assert!(equivalent(&m, q));
    // FEASIBLE's answerable part: three rules, B(y) dropped from the 2nd.
    let a = ans(q, &p.schema);
    let rules: Vec<String> = a.disjuncts.iter().map(|d| d.to_string()).collect();
    assert_eq!(
        rules,
        vec![
            "Q(x) :- F(x), G(x).",
            "Q(x) :- F(x), H(x).",
            "Q(x) :- F(x).",
        ]
    );
    // All three algorithms agree: feasible.
    assert!(ucq_stable(q, &p.schema));
    assert!(ucq_stable_star(q, &p.schema));
    assert!(feasible(q, &p.schema));
}
