//! Differential testing of the batched physical executor.
//!
//! The physical pipeline (`lower_union` + `execute_physical_union`) retired
//! the tuple-at-a-time evaluator from every production path, but the old
//! recursion survives as `eval_ordered_union_tuple` — the executable
//! specification. This harness replays seeded workloads through both and
//! fails with the exact case seed on any divergence: answer sets must match
//! bit-for-bit at every batch width (1 degenerates to tuple-at-a-time,
//! larger widths widen the dedup window), across both PLAN\* estimate
//! plans and domain-enumeration runs — and
//! when the reference rejects a plan, the batched executor must reject it
//! with the same error. The row executor, overlapped I/O and faults are
//! rows of the contract table's generated grid (`tests/contract_table`),
//! which this suite owns but for its columnar serial rows.

mod common;
mod contract_table;

use contract_table::{check_rows, Home, Lab};
use lap::core::{answer_star_opts, plan_star, AnswerOptions};
use lap::engine::{
    eval_oracle, eval_ordered_union_tuple, execute_physical_union, lower_union, Database,
    EngineError, ExecConfig, SourceRegistry, Tuple,
};
use lap::ir::{ConjunctiveQuery, Schema, Var};
use lap::obs::Recorder;
use lap::workload::{
    families, gen_instance, gen_query, gen_schema, InstanceConfig, QueryConfig, SchemaConfig,
};
use lap_prng::StdRng;
use std::collections::BTreeSet;

/// Batch widths under test: degenerate, mid, and the production default.
const WIDTHS: [usize; 3] = [1, 64, 1024];

const CASES: u64 = if cfg!(feature = "slow-tests") { 160 } else { 64 };

fn case_rng(salt: u64, case: u64) -> StdRng {
    StdRng::seed_from_u64(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ case)
}

type Parts = [(ConjunctiveQuery, Vec<Var>)];

fn tuple_reference(
    parts: &Parts,
    db: &Database,
    schema: &Schema,
) -> Result<BTreeSet<Tuple>, EngineError> {
    let mut reg = SourceRegistry::new(db, schema);
    eval_ordered_union_tuple(parts, &mut reg)
}

fn batched(
    parts: &Parts,
    db: &Database,
    schema: &Schema,
    width: usize,
) -> Result<BTreeSet<Tuple>, EngineError> {
    let union = lower_union(parts, schema);
    let mut reg = SourceRegistry::new(db, schema);
    execute_physical_union(&union, &mut reg, ExecConfig::with_batch_size(width))
}

/// Asserts the batched result equals the reference: same answers when both
/// succeed, same error message when both fail, never a split verdict.
fn assert_agrees(
    reference: &Result<BTreeSet<Tuple>, EngineError>,
    got: Result<BTreeSet<Tuple>, EngineError>,
    context: &str,
) {
    match (reference, got) {
        (Ok(want), Ok(rows)) => assert_eq!(want, &rows, "answers differ: {context}"),
        (Err(want), Err(err)) => assert_eq!(
            want.to_string(),
            err.to_string(),
            "errors differ: {context}"
        ),
        (r, g) => panic!(
            "executability verdicts differ ({} vs {}): {context}",
            if r.is_ok() { "ok" } else { "err" },
            if g.is_ok() { "ok" } else { "err" },
        ),
    }
}

#[test]
fn batched_executor_matches_tuple_reference_on_generated_estimate_plans() {
    let mut evaluated = 0u64;
    for case in 0..CASES {
        let mut rng = case_rng(0xBA7C, case);
        let schema = gen_schema(
            &SchemaConfig {
                free_scan_fraction: 0.8,
                input_fraction: 0.3,
                ..SchemaConfig::default()
            },
            &mut rng,
        );
        let q = gen_query(
            &schema,
            &QueryConfig {
                num_disjuncts: 1 + (case % 4) as usize,
                negative_per_disjunct: (case % 2) as usize,
                ..QueryConfig::default()
            },
            &mut rng,
        );
        let db = gen_instance(&schema, &InstanceConfig::default(), &mut rng);
        let pair = plan_star(&q, &schema);
        for (which, plan) in [("under", &pair.under), ("over", &pair.over)] {
            let parts = plan.eval_parts();
            let reference = tuple_reference(&parts, &db, &schema);
            if reference.is_ok() {
                evaluated += 1;
            }
            for width in WIDTHS {
                assert_agrees(
                    &reference,
                    batched(&parts, &db, &schema, width),
                    &format!("case {case} {which} plan width {width}: {q}"),
                );
            }
        }
    }
    assert!(
        evaluated >= CASES / 2,
        "only {evaluated} evaluable plans out of {CASES} cases — generator drifted"
    );
}

#[test]
fn batched_executor_matches_tuple_reference_on_hand_shaped_families() {
    let instances = [
        ("forward_chain", families::forward_chain(6)),
        ("reversed_chain", families::reversed_chain(6)),
        ("star", families::star(5)),
        ("feasible_not_orderable", families::feasible_not_orderable(3)),
        ("gav_unfolding", families::gav_unfolding(3, 2, 1)),
    ];
    for (name, inst) in instances {
        let mut rng = case_rng(0xFA41, 7);
        let db = gen_instance(&inst.schema, &InstanceConfig::default(), &mut rng);
        let pair = plan_star(&inst.query, &inst.schema);
        for (which, plan) in [("under", &pair.under), ("over", &pair.over)] {
            let parts = plan.eval_parts();
            let reference = tuple_reference(&parts, &db, &inst.schema);
            for width in WIDTHS {
                assert_agrees(
                    &reference,
                    batched(&parts, &db, &inst.schema, width),
                    &format!("family {name} {which} plan width {width}"),
                );
            }
        }
    }
}

/// Domain-enumeration runs now execute their improved plans through the
/// physical pipeline; the refinement invariants (monotone over the base
/// underestimate, sound w.r.t. the unrestricted oracle) must survive.
#[test]
fn domain_refinement_through_physical_executor_stays_sound() {
    for case in 0..CASES / 2 {
        let mut rng = case_rng(0xD03A, case);
        let schema = gen_schema(
            &SchemaConfig {
                free_scan_fraction: 0.6,
                input_fraction: 0.4,
                ..SchemaConfig::default()
            },
            &mut rng,
        );
        let q = gen_query(
            &schema,
            &QueryConfig {
                num_disjuncts: 1 + (case % 2) as usize,
                ..QueryConfig::default()
            },
            &mut rng,
        );
        let db = gen_instance(&schema, &InstanceConfig::default(), &mut rng);
        let quiet = Recorder::disabled();
        let opts = AnswerOptions { domain: Some(10_000), ..AnswerOptions::new(&quiet) };
        let Ok(outcome) = answer_star_opts(&q, &schema, &db, &opts) else {
            continue;
        };
        let refined = outcome.refinement.expect("a refined run").under;
        let oracle = eval_oracle(&q, &db).unwrap();
        assert!(
            outcome.report.under.is_subset(&refined),
            "case {case}: refinement lost certain answers: {q}"
        );
        assert!(
            refined.is_subset(&oracle),
            "case {case}: refinement produced non-answers: {q}"
        );
    }
}

#[test]
fn fault_injected_runs_stay_sound_at_every_batch_width() {
    let tally = check_rows(&mut Lab::default(), Home::BatchWidthFaults);
    assert!(tally.degraded > 0, "fault rate 0.3 never degraded any case: injection is dead");
}

#[test]
fn overlapped_execution_matches_the_serial_oracle_exactly() {
    let tally = check_rows(&mut Lab::default(), Home::Overlap);
    assert!(tally.degraded > 0, "fault rate 0.2 never degraded: retries are not exercised");
}

#[test]
fn columnar_executor_matches_row_baseline_and_tuple_oracle() {
    let tally = check_rows(&mut Lab::default(), Home::RowExecutor);
    assert!(tally.degraded > 0, "fault rate 0.2 never degraded: the chaos leg is dead");
}

#[test]
fn overlapped_columnar_chaos_run_replays_byte_identically() {
    let tally = check_rows(&mut Lab::default(), Home::OverlappedColumnarChaos);
    assert_eq!(tally.degraded, tally.rows, "the chaos wire should drop something");
}

/// An instance stored at another arity than the schema declares is one
/// error on every executor — the tuple recursion, the row baseline and the
/// columnar default, at every width — raised where replies enter the
/// registry, never an operator indexing past a short row or silently
/// matching nothing against a long one.
#[test]
fn arity_mismatched_instances_raise_the_same_error_on_every_executor() {
    let schema = Schema::from_patterns(&[("Catalog", "oo"), ("Library", "o")]).unwrap();
    let cq = lap::ir::parse_cq("Q(i, a) :- Catalog(i, a), not Library(i).").unwrap();
    let parts = vec![(cq, Vec::<Var>::new())];
    let table = [
        ("Catalog(1). Catalog(2).", EngineError::ArityMismatch { expected: 2, found: 1 }),
        ("Catalog(1, 2). Library(1, 2).", EngineError::ArityMismatch { expected: 1, found: 2 }),
    ];
    for (facts, want) in table {
        let db = Database::from_facts(facts).unwrap();
        assert_eq!(tuple_reference(&parts, &db, &schema), Err(want.clone()), "tuple: {facts}");
        let union = lower_union(&parts, &schema);
        for width in WIDTHS {
            let columnar = ExecConfig::with_batch_size(width);
            for cfg in [columnar, columnar.rows()] {
                let mut reg = SourceRegistry::new(&db, &schema);
                let got = execute_physical_union(&union, &mut reg, cfg);
                assert_eq!(got, Err(want.clone()), "{cfg:?}: {facts}");
            }
        }
    }
}

/// Lazy error semantics, pinned: a broken operator behind an empty prefix
/// is never reached (both paths answer), and behind a non-empty prefix both
/// paths raise the *same* error.
#[test]
fn lazy_errors_match_the_tuple_reference_exactly() {
    let schema = Schema::from_patterns(&[("C", "oo"), ("B", "ii"), ("L", "o")]).unwrap();
    let db = Database::from_facts(r#"C(1, "a"). C(2, "b"). L(1)."#).unwrap();
    let broken: &[&str] = &[
        // Unknown relation behind a prefix that may or may not be empty.
        "Q(a) :- C(9, a), Zzz(a, b).",
        "Q(a) :- C(1, a), Zzz(a, b).",
        // No usable pattern (B^ii with nothing bound).
        "Q(x) :- B(x, y).",
        // Unbound negation.
        "Q(i) :- C(i, a), not B(i, z).",
        // Unbound head variable.
        "Q(i, z) :- C(i, a).",
    ];
    for text in broken {
        let cq = lap::ir::parse_cq(text).unwrap();
        let parts = vec![(cq, Vec::<Var>::new())];
        let reference = tuple_reference(&parts, &db, &schema);
        for width in WIDTHS {
            assert_agrees(
                &reference,
                batched(&parts, &db, &schema, width),
                &format!("broken plan {text:?} width {width}"),
            );
        }
    }
}
