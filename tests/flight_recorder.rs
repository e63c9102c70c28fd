//! Flight-recorder suite: record a chaotic ANSWER\* run into the
//! structured journal, then prove the journal is good for something:
//!
//! * **replay** and **pinned bytes** — the contract table's
//!   (`tests/contract_table`) replay rows and 24 digests;
//! * **metadata** — the run setup a replay needs;
//! * **invariants** — journals validate (strictly monotone sequence,
//!   `recorded + dropped == emitted`, per-lane begin/end balance) even
//!   under overlapped I/O, under ring overflow and under sampling;
//! * **export** — the chrome-trace rendering round-trips through the
//!   in-repo JSON parser and stays balanced per thread lane.

mod common;
mod contract_table;

use common::bookstore60;
use contract_table::{check_pins, check_rows, Home, Lab};
use lap::core::answer_star_resilient_cfg;
use lap::engine::{ExecConfig, FaultConfig, ReplaySource, ResilienceConfig, RetryPolicy};
use lap::obs::{chrome_trace, validate_chrome_trace, JournalConfig, Recorder};

#[test]
fn recorded_chaos_run_replays_bit_for_bit() {
    let tally = check_rows(&mut Lab::default(), Home::RecordedChaos);
    assert_eq!(tally.degraded, tally.rows, "rate 0.3 over many calls should drop something");
}

#[test]
fn journal_and_outcome_bytes_are_pinned_across_versions() {
    check_pins();
}

#[test]
fn journal_meta_carries_the_run_setup() {
    let (program, db) = bookstore60();
    let query = program.single_query().unwrap();
    let resilience = ResilienceConfig::chaos(0.2, 7);
    let recorder = Recorder::with_journal(JournalConfig::replay());
    let cfg = ExecConfig::default();
    answer_star_resilient_cfg(query, &program.schema, &db, &recorder, &resilience, cfg).unwrap();
    let meta = recorder.journal().unwrap().snapshot().meta;
    assert_eq!(
        meta.get("kind").and_then(lap::obs::Json::as_str),
        Some("answer*.resilient")
    );
    assert_eq!(
        meta.get("query").and_then(lap::obs::Json::as_str),
        Some(query.to_string().as_str())
    );
    let retry = RetryPolicy::from_json(meta.get("retry").unwrap()).unwrap();
    assert_eq!(retry, resilience.retry);
    assert!(meta.get("fault").and_then(|f| f.get("seed")).is_some());
}

#[test]
fn journal_invariants_hold_under_overlapped_resilient_answer_star() {
    let (program, db) = bookstore60();
    let query = program.single_query().unwrap();
    let resilience = ResilienceConfig {
        fault: Some(FaultConfig::with_rate(0.25, 0xFEED)),
        retry: RetryPolicy::standard(),
    };
    let recorder = Recorder::with_journal(JournalConfig::light());
    let cfg = ExecConfig::default().with_io_workers(8);
    let outcome =
        answer_star_resilient_cfg(query, &program.schema, &db, &recorder, &resilience, cfg)
            .unwrap();
    let snap = recorder.journal().unwrap().snapshot();
    let check = snap.validate().expect("overlapped journal validates");
    assert!(check.lanes > 1, "overlapped calls must land on I/O sub-lanes: {check:?}");
    assert_eq!(check.begins, check.ends, "balanced per construction: {check:?}");
    assert!(outcome.degradation.is_degraded(), "rate 0.25 should drop a disjunct");
    assert_eq!(
        snap.events_of(lap::obs::journal::kind::DISJUNCT_DEGRADED).count(),
        outcome.degradation.total(),
        "every drop decision must be journaled"
    );
}

#[test]
fn chrome_trace_round_trips_through_the_in_repo_parser() {
    let (program, db) = bookstore60();
    let query = program.single_query().unwrap();
    let recorder = Recorder::with_journal(JournalConfig::light());
    answer_star_resilient_cfg(
        query,
        &program.schema,
        &db,
        &recorder,
        &ResilienceConfig::chaos(0.3, 0xDECAF),
        ExecConfig::default(),
    )
    .unwrap();
    let snap = recorder.journal().unwrap().snapshot();
    let rendered = chrome_trace(&snap).to_pretty();
    let parsed = lap::obs::json::parse(&rendered).expect("chrome trace is valid JSON");
    let n = validate_chrome_trace(&parsed).expect("chrome trace is balanced");
    assert_eq!(n as u64, snap.recorded(), "one trace event per journal event");
}

#[test]
fn ring_overflow_is_bounded_and_accounted_end_to_end() {
    let (program, db) = bookstore60();
    let query = program.single_query().unwrap();
    let cfg = JournalConfig {
        capacity: 16,
        ..JournalConfig::light()
    };
    let recorder = Recorder::with_journal(cfg);
    answer_star_resilient_cfg(
        query,
        &program.schema,
        &db,
        &recorder,
        &ResilienceConfig::chaos(0.3, 0xDECAF),
        ExecConfig::default(),
    )
    .unwrap();
    let snap = recorder.journal().unwrap().snapshot();
    // Call begin/end pairs evict as a unit, so the ring may sit one event
    // under capacity — but never over it.
    assert!(
        (15..=16).contains(&snap.events.len()),
        "capacity is a hard bound, got {}",
        snap.events.len()
    );
    assert!(snap.dropped > 0, "a chaotic run overflows 16 slots");
    assert_eq!(snap.recorded() + snap.dropped, snap.emitted);
    snap.validate().expect("truncated journal still validates");
    // The eviction count is mirrored into the metrics registry.
    assert_eq!(recorder.snapshot().counter("journal.dropped"), snap.dropped);
    // And a truncated journal refuses to replay rather than diverging.
    let err = ReplaySource::from_journal(&snap).unwrap_err();
    assert!(err.contains("dropped"), "{err}");
}

/// Ring overflow under overlapped I/O: concurrent lanes interleave calls
/// in the ring, but a source-call begin/end pair occupies one slot and
/// evicts as a unit — overflow may drop whole pairs, never split one.
/// Pins the accounting (`recorded + dropped == emitted`, counter mirror)
/// and the per-lane begin/end balance that a torn pair would break.
#[test]
fn ring_overflow_under_concurrency_never_tears_a_call_pair() {
    let (program, db) = bookstore60();
    let query = program.single_query().unwrap();
    let cfg = JournalConfig {
        capacity: 16,
        ..JournalConfig::light()
    };
    let recorder = Recorder::with_journal(cfg);
    answer_star_resilient_cfg(
        query,
        &program.schema,
        &db,
        &recorder,
        &ResilienceConfig::chaos(0.3, 0xDECAF),
        ExecConfig::default().with_io_workers(8),
    )
    .unwrap();
    let snap = recorder.journal().unwrap().snapshot();
    assert!(
        (15..=16).contains(&snap.events.len()),
        "capacity is a hard bound, got {}",
        snap.events.len()
    );
    assert!(snap.dropped > 0, "a chaotic overlapped run overflows 16 slots");
    assert_eq!(snap.recorded() + snap.dropped, snap.emitted);
    assert_eq!(recorder.snapshot().counter("journal.dropped"), snap.dropped);
    snap.validate().expect("truncated overlapped journal still validates");
    // Overlapped calls land on per-worker sub-lanes, but each call's
    // begin/end halves share one ring slot: eviction keeps both or drops
    // both, and nothing can wedge between them. A torn or interleaved
    // pair — a begin with no adjacent same-lane end — fails here.
    let events: Vec<_> = snap.events.iter().collect();
    let mut call_begins = 0u64;
    for (i, e) in events.iter().enumerate() {
        if e.kind == lap::obs::journal::kind::SOURCE_CALL_BEGIN {
            call_begins += 1;
            let end = events.get(i + 1).expect("begin must be followed by its end");
            assert_eq!(end.kind, lap::obs::journal::kind::SOURCE_CALL_END);
            assert_eq!(end.lane, e.lane, "pair halves stay on one lane");
        }
    }
    let call_ends = events
        .iter()
        .filter(|e| e.kind == lap::obs::journal::kind::SOURCE_CALL_END)
        .count() as u64;
    assert_eq!(call_begins, call_ends, "no orphaned call end survives eviction");
}

/// Journal sampling under overlapped I/O: with `sample_every > 1` the
/// keep/skip decision is taken once per *call*, not once per event, so a
/// sampled journal still holds whole begin/end pairs — concurrent lanes
/// must never tear one by sampling the begin but not the end (or vice
/// versa). Also pins that sampling composes with the feedback fold: a
/// store folded from a sampled journal still passes its own validation.
#[test]
fn sampled_journal_under_concurrency_never_tears_a_call_pair() {
    let (program, db) = bookstore60();
    let query = program.single_query().unwrap();
    for sample_every in [2u64, 3, 7] {
        let cfg = JournalConfig {
            sample_every,
            ..JournalConfig::light()
        };
        let recorder = Recorder::with_journal(cfg);
        answer_star_resilient_cfg(
            query,
            &program.schema,
            &db,
            &recorder,
            &ResilienceConfig::chaos(0.3, 0xDECAF),
            ExecConfig::default().with_io_workers(8),
        )
        .unwrap();
        let snap = recorder.journal().unwrap().snapshot();
        snap.validate().expect("sampled overlapped journal validates");
        let events: Vec<_> = snap.events.iter().collect();
        let mut call_begins = 0u64;
        for (i, e) in events.iter().enumerate() {
            if e.kind == lap::obs::journal::kind::SOURCE_CALL_BEGIN {
                call_begins += 1;
                let end = events
                    .get(i + 1)
                    .unwrap_or_else(|| panic!("1/{sample_every}: begin without its end"));
                assert_eq!(
                    end.kind,
                    lap::obs::journal::kind::SOURCE_CALL_END,
                    "1/{sample_every}: sampling must keep or skip a pair atomically"
                );
                assert_eq!(end.lane, e.lane, "1/{sample_every}: pair halves stay on one lane");
            }
        }
        let call_ends = events
            .iter()
            .filter(|e| e.kind == lap::obs::journal::kind::SOURCE_CALL_END)
            .count() as u64;
        assert_eq!(call_begins, call_ends, "1/{sample_every}: no orphaned end");
        assert!(
            call_begins > 0,
            "1/{sample_every}: a chaotic run must keep some sampled calls"
        );
        // A sampled journal is exactly what `lapq calibrate` folds on a
        // busy system; the resulting profile must still be coherent.
        let mut store = lap::obs::FeedbackStore::new();
        store.fold(&snap);
        store.validate().expect("profile folded from a sampled journal validates");
    }
}
