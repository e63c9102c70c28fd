//! Deterministic-interleaving harness for overlapped source I/O.
//!
//! The worker pool in `lap_engine::sched` may complete a batch's wire
//! calls in any order; correctness demands the *run* cannot tell. This
//! suite drives the same chaotic workload through an adversarial
//! scheduler that permutes completion order under a seeded PRNG and
//! proves, across 100+ seeds, that answers, degradation reports, call
//! statistics, retry/failure counts, the virtual wall-clock, and the
//! flight-recorder journal are all byte-identical to the ordered-pool
//! baseline — including runs whose interleavings race timeouts against
//! retries. Completion order is a scheduling artifact; outcomes are
//! planned in issue order before any worker starts.

mod common;

use common::bookstore60;
use lap::core::plan_star;
use lap::engine::{
    execute_physical_union_with, lower_union, Database, DisjunctDegradation, EngineError,
    ExecConfig, FaultConfig, OnUnavailable, PhysicalUnion, RetryPolicy, SourceRegistry, Tuple,
};
use lap::ir::{Program, Schema};
use lap::obs::{JournalConfig, Recorder};
use std::collections::BTreeSet;

/// Everything one degraded run can externally observe, journal included.
#[derive(Debug, PartialEq)]
struct Observed {
    rows: BTreeSet<Tuple>,
    drops: Vec<DisjunctDegradation>,
    calls: u64,
    tuples: u64,
    cache_hits: u64,
    retries: u64,
    failures: u64,
    virtual_ms: u64,
    journal: String,
}

/// Runs the under-plan through the degraded executor on a 4-worker
/// registry, with a replay-fidelity journal attached. `sched` picks the
/// adversarial completion permutation; `None` is the ordered baseline.
fn run_once(
    union: &PhysicalUnion,
    db: &Database,
    schema: &Schema,
    fault: FaultConfig,
    retry: RetryPolicy,
    sched: Option<u64>,
) -> Result<Observed, EngineError> {
    let recorder = Recorder::with_journal(JournalConfig::replay());
    let mut reg = SourceRegistry::new(db, schema)
        .recording(&recorder)
        .with_retry(retry)
        .with_fault_injection(fault)
        .with_io_workers(4);
    if let Some(seed) = sched {
        reg = reg.with_adversarial_sched(seed);
    }
    let run =
        execute_physical_union_with(union, &mut reg, ExecConfig::default(), OnUnavailable::Drop)?;
    let stats = reg.stats();
    let snap = recorder.journal().unwrap().snapshot();
    snap.validate().expect("journal validates under every interleaving");
    Ok(Observed {
        rows: run.rows,
        drops: run.dropped,
        calls: stats.calls,
        tuples: stats.tuples_returned,
        cache_hits: stats.cache_hits,
        retries: reg.retries_observed(),
        failures: reg.failures_observed(),
        virtual_ms: reg.virtual_elapsed_ms(),
        journal: snap.to_json().to_pretty(),
    })
}

/// The under-plan of the scenario's standing query, lowered once.
fn lowered(program: &Program) -> PhysicalUnion {
    let query = program.single_query().unwrap();
    let pair = plan_star(query, &program.schema);
    lower_union(&pair.under.eval_parts(), &program.schema)
}

#[test]
fn adversarial_completion_orders_cannot_change_the_run() {
    let (program, db) = bookstore60();
    let union = lowered(&program);
    let fault = FaultConfig::with_rate(0.3, 0xDECAF);
    let retry = RetryPolicy::standard();
    let baseline =
        run_once(&union, &db, &program.schema, fault, retry, None).expect("baseline run");
    assert!(
        baseline.failures > 0,
        "rate 0.3 must inject faults or the permutations race nothing"
    );
    for seed in 0..104u64 {
        let got = run_once(&union, &db, &program.schema, fault, retry, Some(seed))
            .expect("adversarial run");
        assert_eq!(
            got, baseline,
            "completion order under seed {seed} leaked into the observable run"
        );
    }
}

/// The nastiest interleavings race a timed-out attempt's backoff against
/// other lanes' completions: jittered latency straddles the per-call
/// timeout, so some attempts fault mid-batch and reschedule while their
/// batch-mates are still in flight. Every permutation must still merge
/// to the ordered baseline, journal bytes included.
#[test]
fn timeout_and_retry_races_stay_deterministic() {
    let (program, db) = bookstore60();
    let union = lowered(&program);
    let fault = FaultConfig {
        error_rate: 0.2,
        latency_ms: 5,
        latency_jitter_ms: 30,
        timeout_ms: Some(25),
        seed: 0x7E57,
    };
    let retry = RetryPolicy::standard();
    let baseline =
        run_once(&union, &db, &program.schema, fault, retry, None).expect("baseline run");
    assert!(
        baseline.retries > 0 && baseline.failures > 0,
        "the timeout profile must force retry races (retries {}, failures {})",
        baseline.retries,
        baseline.failures
    );
    for seed in 0..104u64 {
        let got = run_once(&union, &db, &program.schema, fault, retry, Some(seed))
            .expect("adversarial run");
        assert_eq!(
            got, baseline,
            "timeout/retry race under seed {seed} leaked into the observable run"
        );
    }
}

/// A worker pool wider than the batch and wider than [`MAX_IO_WORKERS`]'s
/// clamp must behave like the clamped width — and a single-key batch is
/// one lane whatever the width. Exercised through the public knob so the
/// clamp itself is under test.
#[test]
fn worker_width_is_clamped_and_degenerate_batches_stay_serial() {
    let (program, db) = bookstore60();
    let union = lowered(&program);
    let fault = FaultConfig::with_rate(0.25, 0xFEED);
    let retry = RetryPolicy::standard();
    let recorder = Recorder::with_journal(JournalConfig::light());
    let mut wide = SourceRegistry::new(&db, &program.schema)
        .recording(&recorder)
        .with_retry(retry)
        .with_fault_injection(fault)
        .with_io_workers(usize::MAX);
    assert_eq!(wide.io_workers(), lap::engine::MAX_IO_WORKERS);
    let (cfg, drop) = (ExecConfig::default(), OnUnavailable::Drop);
    let wide_run = execute_physical_union_with(&union, &mut wide, cfg, drop).unwrap();
    let mut serial = SourceRegistry::new(&db, &program.schema)
        .with_retry(retry)
        .with_fault_injection(fault);
    let serial_run = execute_physical_union_with(&union, &mut serial, cfg, drop).unwrap();
    assert_eq!(wide_run.rows, serial_run.rows);
    assert_eq!(wide_run.dropped, serial_run.dropped);
    assert_eq!(wide.stats(), serial.stats());
    assert_eq!(wide.failures_observed(), serial.failures_observed());
    recorder
        .journal()
        .unwrap()
        .snapshot()
        .validate()
        .expect("journal validates at the clamped width");
}
