//! Flight-recorder suite: record a chaotic ANSWER\* run into the
//! structured journal, then prove the journal is good for something:
//!
//! * **replay** — a seeded degraded run, re-executed from its journal
//!   through a [`ReplaySource`], reproduces the original
//!   [`AnswerOutcome`] bit for bit without the database;
//! * **invariants** — journals validate (strictly monotone sequence,
//!   `recorded + dropped == emitted`, per-lane begin/end balance) even
//!   under overlapped I/O and under ring overflow;
//! * **export** — the chrome-trace rendering round-trips through the
//!   in-repo JSON parser and stays balanced per thread lane.

use lap::core::{answer_star_opts, answer_star_resilient_cfg, AnswerOptions};
use lap::engine::{ExecConfig, FaultConfig, ReplaySource, ResilienceConfig, RetryPolicy};
use lap::obs::{chrome_trace, validate_chrome_trace, JournalConfig, JournalSnapshot, Recorder};
use lap::workload::{bookstore, BookstoreConfig};
use lap_prng::StdRng;

/// A small federated bookstore with several disjuncts and a negated
/// literal, plus its parsed standing query.
fn scenario() -> (lap::ir::Program, lap::engine::Database) {
    let mut rng = StdRng::seed_from_u64(2004);
    let cfg = BookstoreConfig {
        books: 60,
        ..BookstoreConfig::default()
    };
    let bs = bookstore(&cfg, &mut rng);
    let program = lap::ir::parse_program(&bs.program_text()).unwrap();
    (program, bs.db)
}

#[test]
fn recorded_chaos_run_replays_bit_for_bit() {
    let (program, db) = scenario();
    let query = program.single_query().unwrap();
    let resilience = ResilienceConfig::chaos(0.3, 0xDECAF);

    let recorder = Recorder::with_journal(JournalConfig::replay());
    let cfg = ExecConfig::default();
    let original =
        answer_star_resilient_cfg(query, &program.schema, &db, &recorder, &resilience, cfg)
            .unwrap();
    assert!(
        original.degradation.is_degraded(),
        "rate 0.3 over many calls should drop something"
    );

    // The journal survives a JSON round trip (file export / import).
    let snap = recorder.journal().unwrap().snapshot();
    snap.validate().expect("recorded journal validates");
    let text = snap.to_json().to_pretty();
    let snap = JournalSnapshot::from_json(&lap::obs::json::parse(&text).unwrap()).unwrap();
    assert_eq!(snap, recorder.journal().unwrap().snapshot());

    // Replay from the journal alone: no database, no fault injector.
    let source = ReplaySource::from_journal(&snap).unwrap();
    let quiet = Recorder::disabled();
    let retry_only = ResilienceConfig { fault: None, retry: resilience.retry };
    let opts = AnswerOptions { resilience: Some(&retry_only), ..AnswerOptions::new(&quiet) };
    let replayed = answer_star_opts(query, &program.schema, source.clone(), &opts).unwrap();
    assert_eq!(replayed, original, "replay must reproduce the outcome bit for bit");
    assert_eq!(source.mismatches(), 0);
    assert_eq!(source.out_of_order(), 0);
    assert_eq!(source.remaining(), 0, "every recorded call must be consumed");
}

#[test]
fn journal_meta_carries_the_run_setup() {
    let (program, db) = scenario();
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
    let (program, db) = scenario();
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
    let (program, db) = scenario();
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
    let (program, db) = scenario();
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
    let (program, db) = scenario();
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
    let (program, db) = scenario();
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

/// FNV-1a-64: a digest that is a pure function of the bytes, with no
/// dependency to drift between versions.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3))
}

/// The three source behaviours of the byte-pin table.
#[derive(Clone, Copy, Debug)]
enum Wire {
    /// No fault injection, no retry policy.
    Plain,
    /// 20% errors, 20 ms ± 5 ms latency, three attempts.
    Chaos,
    /// Latency jitter across a per-call timeout, three attempts, and a
    /// per-query deadline budget that runs out part-way through.
    Deadline,
}

impl Wire {
    fn resilience(self) -> Option<ResilienceConfig> {
        let fault = |error_rate, latency_jitter_ms, timeout_ms| FaultConfig {
            error_rate,
            latency_ms: 20,
            latency_jitter_ms,
            timeout_ms,
            seed: 0xDECAF,
        };
        let retry = RetryPolicy::standard().with_max_attempts(3);
        match self {
            Wire::Plain => None,
            Wire::Chaos => Some(ResilienceConfig { fault: Some(fault(0.2, 5, None)), retry }),
            Wire::Deadline => Some(ResilienceConfig {
                fault: Some(fault(0.0, 20, Some(35))),
                retry: retry.with_deadline_ms(4000),
            }),
        }
    }
}

/// One pinned run: journal tier, source behaviour, `io_workers`, batch
/// width, and the FNV-1a-64 digests of the journal
/// (`snapshot.to_json().to_compact()`) and the rendered outcome.
type PinnedRun = (bool, Wire, usize, usize, u64, u64);

/// Runs one row of the table and returns its (journal, outcome) texts.
fn pinned_run_texts(
    program: &lap::ir::Program,
    db: &lap::engine::Database,
    (replay_tier, wire, io_workers, width, ..): PinnedRun,
) -> (String, String) {
    let query = program.single_query().unwrap();
    let tier = if replay_tier { JournalConfig::replay() } else { JournalConfig::light() };
    let recorder = Recorder::with_journal(tier);
    let exec = ExecConfig::with_batch_size(width).with_io_workers(io_workers);
    let resilience = wire.resilience();
    let opts =
        AnswerOptions { exec, resilience: resilience.as_ref(), ..AnswerOptions::new(&recorder) };
    let outcome =
        lap::core::render_outcome(&answer_star_opts(query, &program.schema, db, &opts).unwrap());
    (recorder.journal().unwrap().snapshot().to_json().to_compact(), outcome)
}

/// Cross-version byte pin of the source layer: the digests below were
/// recorded at `f214ea0`, when a serial call and an overlapped batch were
/// two code paths, and a change to the source layer must not move them —
/// journal bytes, answers, call statistics, retry/failure totals and
/// virtual time at every combination of journal tier, fault profile,
/// worker count and batch width. (A deliberate change to the journal
/// format or the renderer re-records the table from the failure message.)
#[test]
fn journal_and_outcome_bytes_are_pinned_across_versions() {
    const L: bool = false; // light tier
    const R: bool = true; // replay tier
    use Wire::{Chaos, Deadline, Plain};
    #[rustfmt::skip]
    const PINNED: &[PinnedRun] = &[
        (L, Plain, 1, 1, 0x93e652364b0572d7, 0x2cf7518943032e5d),
        (L, Plain, 1, 64, 0xaf04416c3e324339, 0x98fbcc13abd05b09),
        (L, Plain, 8, 1, 0xc5d6192cc0e017c8, 0x2cf7518943032e5d),
        (L, Plain, 8, 64, 0x5adf45f0e627b4b6, 0x98fbcc13abd05b09),
        (L, Chaos, 1, 1, 0x455f5c881618502e, 0x347f46feec3a519b),
        (L, Chaos, 1, 64, 0x6cdae777858f1959, 0x41602d4db0b80a92),
        (L, Chaos, 8, 1, 0xd5c515efbd74e887, 0x6339ee062d57138a),
        (L, Chaos, 8, 64, 0x1268fc9506973012, 0x46c1cfd71ea577c7),
        (L, Deadline, 1, 1, 0x4b6c834fb4793459, 0x61020cd66fbf6544),
        (L, Deadline, 1, 64, 0x42ad154d8d691d92, 0xa53e87749383553e),
        (L, Deadline, 8, 1, 0xe26e295b2d16e1b4, 0x2cd05ebbb26855c4),
        (L, Deadline, 8, 64, 0x2bdc72e62d2623ed, 0x0e50ebbfb78d2232),
        (R, Plain, 1, 1, 0x64c666ea35949f8a, 0x2cf7518943032e5d),
        (R, Plain, 1, 64, 0x757e1fbca929fec4, 0x98fbcc13abd05b09),
        (R, Plain, 8, 1, 0x248c90b466605517, 0x2cf7518943032e5d),
        (R, Plain, 8, 64, 0x00e3f39a1725b0a5, 0x98fbcc13abd05b09),
        (R, Chaos, 1, 1, 0x8094d0b9ee7405ae, 0x347f46feec3a519b),
        (R, Chaos, 1, 64, 0x7ceaa90d50996023, 0x41602d4db0b80a92),
        (R, Chaos, 8, 1, 0x322235e048dbb385, 0x6339ee062d57138a),
        (R, Chaos, 8, 64, 0xeea348305e228cfa, 0x46c1cfd71ea577c7),
        (R, Deadline, 1, 1, 0x93f7d1015b99c514, 0x61020cd66fbf6544),
        (R, Deadline, 1, 64, 0xa013706ffbb003aa, 0xa53e87749383553e),
        (R, Deadline, 8, 1, 0xf6128a1a5ebdea5f, 0x2cd05ebbb26855c4),
        (R, Deadline, 8, 64, 0x71bddfd20c2292e5, 0x0e50ebbfb78d2232),
    ];
    let (program, db) = scenario();
    let mut actual = String::new();
    let mut moved = 0;
    for &row in PINNED {
        let (tier, wire, workers, width, journal, outcome) = row;
        let (journal_text, outcome_text) = pinned_run_texts(&program, &db, row);
        let now = (fnv1a64(journal_text.as_bytes()), fnv1a64(outcome_text.as_bytes()));
        moved += usize::from(now != (journal, outcome));
        actual.push_str(&format!(
            "        ({}, {wire:?}, {workers}, {width}, {:#018x}, {:#018x}),\n",
            if tier { "R" } else { "L" },
            now.0,
            now.1,
        ));
    }
    assert_eq!(PINNED.len(), 24, "2 tiers x 3 wires x 2 worker counts x 2 widths");
    assert_eq!(moved, 0, "{moved} pinned run(s) moved; the table now reads:\n{actual}");
}
