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
//! with the same error. The columnar leg pits the vectorized executor
//! against the row baseline under faults and overlapped I/O — exact
//! stats/degradation equality — and pins byte-identical journal replay
//! for an overlapped columnar chaos run.

use lap::core::{answer_star_with_domain, plan_star};
use lap::engine::{
    eval_oracle, eval_ordered_union_tuple, execute_physical_union, lower_union, Database,
    EngineError, ExecConfig, SourceRegistry, Tuple,
};
use lap::ir::{ConjunctiveQuery, Schema, Var};
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
    let mut refined = 0u64;
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
        let Ok(rep) = answer_star_with_domain(&q, &schema, &db, 10_000) else {
            continue;
        };
        let oracle = eval_oracle(&q, &db).unwrap();
        assert!(
            rep.base.under.is_subset(&rep.improved_under),
            "case {case}: refinement lost certain answers: {q}"
        );
        assert!(
            rep.improved_under.is_subset(&oracle),
            "case {case}: refinement produced non-answers: {q}"
        );
        if rep.improved_under.len() > rep.base.under.len() {
            refined += 1;
        }
        let _ = refined;
    }
}

/// Fault-injected degraded execution, differentially: at every batch width
/// the degraded answer set must be a subset of the fault-free reference
/// (dropping a disjunct may lose answers, never invent them), and the same
/// seed must degrade identically across widths of the same run.
#[test]
fn fault_injected_runs_stay_sound_at_every_batch_width() {
    use lap::engine::{
        execute_physical_union_with, FaultConfig, OnUnavailable, RetryPolicy, UnionRun,
    };
    let mut degraded_seen = 0u64;
    for case in 0..CASES / 2 {
        let mut rng = case_rng(0xFA17, case);
        let schema = gen_schema(
            &SchemaConfig {
                free_scan_fraction: 0.8,
                ..SchemaConfig::default()
            },
            &mut rng,
        );
        let q = gen_query(
            &schema,
            &QueryConfig {
                num_disjuncts: 2 + (case % 3) as usize,
                negative_per_disjunct: (case % 2) as usize,
                ..QueryConfig::default()
            },
            &mut rng,
        );
        let db = gen_instance(&schema, &InstanceConfig::default(), &mut rng);
        let pair = plan_star(&q, &schema);
        let parts = pair.under.eval_parts();
        let Ok(reference) = tuple_reference(&parts, &db, &schema) else {
            continue;
        };
        let union = lower_union(&parts, &schema);
        for width in WIDTHS {
            let mut reg = SourceRegistry::new(&db, &schema)
                .with_retry(RetryPolicy::standard().with_max_attempts(2))
                .with_fault_injection(FaultConfig::with_rate(0.3, 0xFA17 ^ case));
            let cfg = ExecConfig::with_batch_size(width);
            let UnionRun { rows, dropped: drops, .. } =
                execute_physical_union_with(&union, &mut reg, cfg, OnUnavailable::Drop).unwrap();
            assert!(
                rows.is_subset(&reference),
                "case {case} width {width}: degraded run invented answers: {q}"
            );
            if !drops.is_empty() {
                degraded_seen += 1;
            }
        }
    }
    assert!(
        degraded_seen > 0,
        "fault rate 0.3 never degraded any case — injection is dead"
    );
}

/// Concurrency leg: overlapped source I/O must be invisible to everything
/// except the virtual wall-clock. At every batch width × worker count ×
/// fault rate, a degraded run on an overlapped registry must reproduce the
/// serial oracle's answers, dropped disjuncts, call statistics, retry and
/// failure counts exactly — the worker pool may reorder *completions*, but
/// outcomes are planned in issue order before any work is dispatched. At
/// rate 0 the answers must also equal the fault-free tuple reference.
#[test]
fn overlapped_execution_matches_the_serial_oracle_exactly() {
    use lap::engine::{
        execute_physical_union_with, FaultConfig, OnUnavailable, RetryPolicy, UnionRun,
    };
    const IO_WORKERS: [usize; 3] = [1, 4, 16];
    const FAULT_RATES: [f64; 2] = [0.0, 0.2];
    let mut degraded_seen = 0u64;
    for case in 0..CASES / 2 {
        let mut rng = case_rng(0x10CC, case);
        let schema = gen_schema(
            &SchemaConfig {
                free_scan_fraction: 0.8,
                ..SchemaConfig::default()
            },
            &mut rng,
        );
        let q = gen_query(
            &schema,
            &QueryConfig {
                num_disjuncts: 2 + (case % 3) as usize,
                negative_per_disjunct: (case % 2) as usize,
                ..QueryConfig::default()
            },
            &mut rng,
        );
        let db = gen_instance(&schema, &InstanceConfig::default(), &mut rng);
        let pair = plan_star(&q, &schema);
        let parts = pair.under.eval_parts();
        let Ok(reference) = tuple_reference(&parts, &db, &schema) else {
            continue;
        };
        let union = lower_union(&parts, &schema);
        for rate in FAULT_RATES {
            for width in WIDTHS {
                let registry = |workers: usize| {
                    let mut reg = SourceRegistry::new(&db, &schema)
                        .with_retry(RetryPolicy::standard().with_max_attempts(2))
                        .with_io_workers(workers);
                    if rate > 0.0 {
                        reg = reg.with_fault_injection(FaultConfig::with_rate(rate, 0x10CC ^ case));
                    }
                    reg
                };
                let mut serial_reg = registry(1);
                let UnionRun { rows: serial_rows, dropped: serial_drops, .. } =
                    execute_physical_union_with(
                        &union,
                        &mut serial_reg,
                        ExecConfig::with_batch_size(width),
                        OnUnavailable::Drop,
                    )
                    .unwrap();
                if rate == 0.0 {
                    assert_eq!(
                        serial_rows, reference,
                        "case {case} width {width}: fault-free run lost answers: {q}"
                    );
                    assert!(serial_drops.is_empty());
                }
                if !serial_drops.is_empty() {
                    degraded_seen += 1;
                }
                for workers in IO_WORKERS {
                    let mut reg = registry(workers);
                    let UnionRun { rows, dropped: drops, .. } = execute_physical_union_with(
                        &union,
                        &mut reg,
                        ExecConfig::with_batch_size(width).with_io_workers(workers),
                        OnUnavailable::Drop,
                    )
                    .unwrap();
                    let ctx = format!("case {case} rate {rate} width {width} workers {workers}: {q}");
                    assert_eq!(rows, serial_rows, "answers differ: {ctx}");
                    assert_eq!(drops, serial_drops, "dropped disjuncts differ: {ctx}");
                    assert_eq!(reg.stats(), serial_reg.stats(), "call stats differ: {ctx}");
                    assert_eq!(
                        reg.retries_observed(),
                        serial_reg.retries_observed(),
                        "retry counts differ: {ctx}"
                    );
                    assert_eq!(
                        reg.failures_observed(),
                        serial_reg.failures_observed(),
                        "failure counts differ: {ctx}"
                    );
                    assert!(
                        reg.virtual_elapsed_ms() <= serial_reg.virtual_elapsed_ms(),
                        "overlap lengthened the virtual wall-clock: {ctx}"
                    );
                }
            }
        }
    }
    assert!(
        degraded_seen > 0,
        "fault rate 0.2 never degraded any case — the concurrency leg is not exercising retries"
    );
}

/// Columnar leg: the vectorized executor against the row baseline and the
/// tuple oracle, across widths × fault rates × worker counts. The columnar
/// executor assembles batch windows of exactly the same live-row counts as
/// the row executor, so *everything* observable — answers, dropped
/// disjuncts, call statistics, retry/failure counts, the virtual clock —
/// must be exactly equal, even mid-chaos (identical wire sequences draw
/// identical faults).
#[test]
fn columnar_executor_matches_row_baseline_and_tuple_oracle() {
    use lap::engine::{
        execute_physical_union_with, FaultConfig, OnUnavailable, RetryPolicy, UnionRun,
    };
    const IO_WORKERS: [usize; 2] = [1, 8];
    const FAULT_RATES: [f64; 2] = [0.0, 0.2];
    let mut degraded_seen = 0u64;
    for case in 0..CASES / 2 {
        let mut rng = case_rng(0xC01A, case);
        let schema = gen_schema(
            &SchemaConfig {
                free_scan_fraction: 0.8,
                ..SchemaConfig::default()
            },
            &mut rng,
        );
        let q = gen_query(
            &schema,
            &QueryConfig {
                num_disjuncts: 2 + (case % 3) as usize,
                negative_per_disjunct: (case % 2) as usize,
                ..QueryConfig::default()
            },
            &mut rng,
        );
        let db = gen_instance(&schema, &InstanceConfig::default(), &mut rng);
        let pair = plan_star(&q, &schema);
        let parts = pair.under.eval_parts();
        let Ok(reference) = tuple_reference(&parts, &db, &schema) else {
            continue;
        };
        let union = lower_union(&parts, &schema);
        for rate in FAULT_RATES {
            for width in WIDTHS {
                for workers in IO_WORKERS {
                    let registry = || {
                        let mut reg = SourceRegistry::new(&db, &schema)
                            .with_retry(RetryPolicy::standard().with_max_attempts(2))
                            .with_io_workers(workers);
                        if rate > 0.0 {
                            reg = reg
                                .with_fault_injection(FaultConfig::with_rate(rate, 0xC01A ^ case));
                        }
                        reg
                    };
                    let cfg = ExecConfig::with_batch_size(width).with_io_workers(workers);
                    let mut row_reg = registry();
                    let drop = OnUnavailable::Drop;
                    let UnionRun { rows: row_rows, dropped: row_drops, .. } =
                        execute_physical_union_with(&union, &mut row_reg, cfg.rows(), drop)
                            .unwrap();
                    let mut col_reg = registry();
                    let UnionRun { rows: col_rows, dropped: col_drops, .. } =
                        execute_physical_union_with(&union, &mut col_reg, cfg, drop).unwrap();
                    let ctx =
                        format!("case {case} rate {rate} width {width} workers {workers}: {q}");
                    assert_eq!(col_rows, row_rows, "answers differ: {ctx}");
                    assert_eq!(col_drops, row_drops, "dropped disjuncts differ: {ctx}");
                    assert_eq!(col_reg.stats(), row_reg.stats(), "call stats differ: {ctx}");
                    assert_eq!(
                        col_reg.retries_observed(),
                        row_reg.retries_observed(),
                        "retry counts differ: {ctx}"
                    );
                    assert_eq!(
                        col_reg.failures_observed(),
                        row_reg.failures_observed(),
                        "failure counts differ: {ctx}"
                    );
                    assert_eq!(
                        col_reg.virtual_elapsed_ms(),
                        row_reg.virtual_elapsed_ms(),
                        "virtual clocks differ: {ctx}"
                    );
                    if rate == 0.0 {
                        assert_eq!(col_rows, reference, "fault-free columnar run: {ctx}");
                        assert!(col_drops.is_empty(), "{ctx}");
                    } else {
                        assert!(
                            col_rows.is_subset(&reference),
                            "degraded columnar run invented answers: {ctx}"
                        );
                        if !col_drops.is_empty() {
                            degraded_seen += 1;
                        }
                    }
                }
            }
        }
    }
    assert!(
        degraded_seen > 0,
        "fault rate 0.2 never degraded any case — the columnar chaos leg is dead"
    );
}

/// Pinned journal fidelity for an overlapped columnar chaos run: the same
/// configuration records a byte-identical journal twice; the row executor
/// records the *same events* (the journals differ only in the `columnar`
/// metadata key); and replaying the journal — no database, no fault
/// injector — reproduces the outcome bit for bit at the recorded batch
/// width and worker count.
#[test]
fn overlapped_columnar_chaos_run_replays_byte_identically() {
    use lap::core::{answer_star_opts, answer_star_resilient_cfg, AnswerOptions};
    use lap::engine::{ReplaySource, ResilienceConfig};
    use lap::obs::{JournalConfig, JournalSnapshot, Recorder};
    use lap::workload::{bookstore, BookstoreConfig};

    let mut rng = case_rng(0xC01A, 1);
    let bs = bookstore(
        &BookstoreConfig {
            books: 60,
            ..BookstoreConfig::default()
        },
        &mut rng,
    );
    let program = lap::ir::parse_program(&bs.program_text()).unwrap();
    let query = program.single_query().unwrap();
    let resilience = ResilienceConfig::chaos(0.3, 0xC01A);
    let cfg = ExecConfig::with_batch_size(64).with_io_workers(8);

    let record = |cfg: ExecConfig| {
        let recorder = Recorder::with_journal(JournalConfig::replay());
        let outcome = answer_star_resilient_cfg(
            query,
            &program.schema,
            &bs.db,
            &recorder,
            &resilience,
            cfg,
        )
        .unwrap();
        (outcome, recorder.journal().unwrap().snapshot())
    };

    let (original, snap) = record(cfg);
    assert!(
        original.degradation.is_degraded(),
        "rate 0.3 over many calls should drop something"
    );
    snap.validate().expect("recorded journal validates");

    // Determinism: the identical configuration records identical bytes.
    let (rerun, resnap) = record(cfg);
    assert_eq!(rerun, original);
    assert_eq!(
        snap.to_json().to_pretty(),
        resnap.to_json().to_pretty(),
        "re-recording the same overlapped columnar run must be byte-identical"
    );

    // Wire identity: the row executor walks the same windows, so it emits
    // the same journal events — only the `columnar` meta key may differ,
    // plus `rows_out` on a batch aborted mid-probe (`ok: false`): the row
    // path counts survivors emitted before the failing call, the vectorized
    // path aborts before compaction and reports 0. Both discard the partial
    // output, so the count is diagnostic only; normalize it to 0 here.
    let (row_outcome, row_snap) = record(cfg.rows());
    assert_eq!(row_outcome, original, "row and columnar outcomes must match");
    let normalize = |mut s: JournalSnapshot| {
        s.meta = lap::obs::Json::Null;
        for event in &mut s.events {
            if event.kind == lap::obs::journal::kind::BATCH_END
                && event.data.get("ok") == Some(&lap::obs::Json::Bool(false))
            {
                if let lap::obs::Json::Obj(pairs) = &mut event.data {
                    for (key, value) in pairs {
                        if key == "rows_out" {
                            *value = lap::obs::Json::num(0);
                        }
                    }
                }
            }
        }
        s
    };
    assert_eq!(
        normalize(snap.clone()),
        normalize(row_snap),
        "row and columnar executors must record identical journal events"
    );

    // Replay from the journal alone, at the recorded width and workers.
    let source = ReplaySource::from_journal(&snap).unwrap();
    let retry_only = ResilienceConfig { fault: None, retry: resilience.retry };
    let opts = AnswerOptions {
        recorder: &Recorder::disabled(),
        exec: cfg,
        resilience: Some(&retry_only),
        plans: None,
    };
    let replayed = answer_star_opts(query, &program.schema, source.clone(), &opts).unwrap();
    assert_eq!(replayed, original, "replay must reproduce the outcome bit for bit");
    assert_eq!(source.mismatches(), 0);
    assert_eq!(source.remaining(), 0, "every recorded call must be consumed");
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
