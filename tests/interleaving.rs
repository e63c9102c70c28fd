//! Lane-count harness for overlapped source I/O.
//!
//! Overlapped calls share a batch's virtual lanes, but the registry issues
//! every call on the caller's thread, in issue order, whatever the lane
//! count: lanes are accounting on the virtual wall clock. This suite
//! drives chaotic workloads — one whose timeouts race retries — at 1, 2,
//! 4, 8 and 64 lanes and checks that only the wall clock moves: answers,
//! degradation reports, call statistics and retry/failure counts equal the
//! one-lane run's, every journal validates, overlap shortens the run's
//! virtual wall clock, and a rerun at the same width repeats its journal
//! byte for byte.

mod common;

use common::bookstore60;
use lap::core::plan_star;
use lap::engine::{
    execute_physical_union_with, lower_union, CallStats, Database, DisjunctDegradation,
    ExecConfig, FaultConfig, OnUnavailable, PhysicalUnion, RetryPolicy, SourceRegistry, Tuple,
};
use lap::ir::{Program, Schema};
use lap::obs::{JournalConfig, Recorder};
use std::collections::BTreeSet;

/// What one degraded run observes besides its journal, which records
/// lanes and timestamps and so differs by lane count.
#[derive(Debug, PartialEq)]
struct Observed {
    rows: BTreeSet<Tuple>,
    drops: Vec<DisjunctDegradation>,
    stats: CallStats,
    retries: u64,
    failures: u64,
}

/// What a run leaves besides [`Observed`]: its virtual wall clock and its
/// journal's bytes.
type Trace = (u64, String);

/// Runs the under-plan through the degraded executor on a registry with
/// `workers` lanes and a replay-fidelity journal, checks the journal
/// validates, and returns what the run observed with its [`Trace`].
fn run_once(
    union: &PhysicalUnion,
    db: &Database,
    schema: &Schema,
    fault: FaultConfig,
    workers: usize,
) -> (Observed, Trace) {
    let recorder = Recorder::with_journal(JournalConfig::replay());
    let mut reg = SourceRegistry::new(db, schema)
        .recording(&recorder)
        .with_retry(RetryPolicy::standard())
        .with_fault_injection(fault)
        .with_io_workers(workers);
    let run = execute_physical_union_with(union, &mut reg, ExecConfig::default(), OnUnavailable::Drop)
        .expect("degraded run");
    let snap = recorder.journal().unwrap().snapshot();
    snap.validate()
        .unwrap_or_else(|e| panic!("journal at {workers} lane(s) does not validate: {e}"));
    let observed = Observed {
        rows: run.rows,
        drops: run.dropped,
        stats: reg.stats(),
        retries: reg.retries_observed(),
        failures: reg.failures_observed(),
    };
    (observed, (reg.virtual_elapsed_ms(), snap.to_json().to_pretty()))
}

/// The under-plan of the scenario's standing query, lowered once.
fn lowered(program: &Program) -> PhysicalUnion {
    let query = program.single_query().unwrap();
    let pair = plan_star(query, &program.schema);
    lower_union(&pair.under.eval_parts(), &program.schema)
}

/// Runs `fault` at one lane and at 2, 4, 8 and 64: every run equals the
/// one-lane run and only its wall clock moves, shorter with overlap. A
/// second run at each width repeats the first, journal bytes included.
fn sweep_lanes(fault: FaultConfig) {
    let (program, db) = bookstore60();
    let union = lowered(&program);
    let (serial, (serial_ms, _)) = run_once(&union, &db, &program.schema, fault, 1);
    assert!(
        serial.retries > 0 && serial.failures > 0,
        "{fault:?} must force retries (retries {}, failures {})",
        serial.retries,
        serial.failures
    );
    for workers in [1, 2, 4, 8, 64] {
        let (got, trace) = run_once(&union, &db, &program.schema, fault, workers);
        let again = run_once(&union, &db, &program.schema, fault, workers);
        assert_eq!(got, serial, "{fault:?} at {workers} lanes");
        assert!(again == (got, trace.clone()), "{fault:?} rerun at {workers} lanes differs");
        if workers > 1 {
            assert!(
                trace.0 < serial_ms,
                "{fault:?} at {workers} lanes took {} ms, serially {serial_ms} ms",
                trace.0
            );
        }
    }
}

/// Plain faults: however many lanes a batch's calls overlap on, the
/// replies are taken in issue order, so the run cannot tell the lane count.
#[test]
fn adversarial_completion_orders_cannot_change_the_run() {
    sweep_lanes(FaultConfig::with_rate(0.3, 0xDECAF));
}

/// Jittered latency straddles a per-call timeout, so timed-out attempts
/// retry while their batch-mates are in flight; the run still equals the
/// one-lane run and repeats itself exactly.
#[test]
fn timeout_and_retry_races_stay_deterministic() {
    sweep_lanes(FaultConfig {
        error_rate: 0.2,
        latency_ms: 5,
        latency_jitter_ms: 30,
        timeout_ms: Some(25),
        seed: 0x7E57,
    });
}

/// A lane count wider than the batch and wider than [`MAX_IO_WORKERS`]'s
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
