//! Integration suite for the `lapd` daemon (`lap::daemon`).
//!
//! The load-bearing contract is **byte identity**: a daemon `query`
//! response's `text` equals what one-shot `lapq run` prints for the same
//! program, facts, and options: per contract-table row on the miss and hit
//! paths (the first two tests), under concurrent sessions and across a
//! recalibration. The rest pins error containment — quota, malformed
//! frames, and invalid requests produce error frames without taking the
//! server down — and shutdown.

mod common;
mod contract_table;

use contract_table::{check_rows, Home, Lab};
use lap::daemon::{DaemonConfig, Server};
use lap::proto::{
    read_frame, write_frame, Client, ErrorCode, QueryOptions, Response, MAX_FRAME_BYTES,
};
use std::io::Write as _;
use std::net::TcpStream;
use std::process::Command;

fn start_server(config: DaemonConfig) -> Server {
    Server::start(config, "127.0.0.1:0").expect("ephemeral bind")
}

fn lapq_run(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_lapq"))
        .args(args)
        .current_dir(env!("CARGO_MANIFEST_DIR"))
        .output()
        .expect("lapq runs");
    assert!(
        out.status.success(),
        "lapq {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).expect("lapq output is utf-8")
}

fn read_example(name: &str) -> String {
    let path = format!("{}/examples/data/{name}", env!("CARGO_MANIFEST_DIR"));
    std::fs::read_to_string(&path).expect("example file")
}

fn query_text(client: &mut Client, program: &str, facts: &str, options: QueryOptions) -> String {
    match client.query(program, facts, options).expect("query frame round-trips") {
        Response::Ok { text, .. } => text,
        Response::Error { code, message, .. } => panic!("daemon error ({code}): {message}"),
    }
}

#[test]
fn daemon_answers_are_byte_identical_to_one_shot_run() {
    check_rows(&mut Lab::default(), Home::DaemonBytes);
}

#[test]
fn cache_hit_path_matches_miss_path() {
    check_rows(&mut Lab::default(), Home::CacheHit);
}

/// Many concurrent sessions, mixed scenarios, every response
/// byte-identical to the one-shot reference output.
#[test]
fn concurrent_sessions_stay_byte_identical() {
    let server = start_server(DaemonConfig::default());
    let addr = server.addr().to_string();

    let scenarios: Vec<(String, String, String)> = [
        ("bookstore.lap", "bookstore_facts.lap"),
        ("example4.lap", "example4_facts.lap"),
    ]
    .iter()
    .map(|(p, f)| {
        let expected =
            lapq_run(&["run", &format!("examples/data/{p}"), &format!("examples/data/{f}")]);
        (read_example(p), read_example(f), expected)
    })
    .collect();

    std::thread::scope(|scope| {
        for c in 0..8 {
            let addr = addr.clone();
            let scenarios = &scenarios;
            scope.spawn(move || {
                let mut client = Client::connect(&addr).expect("connect");
                for r in 0..6 {
                    let (program, facts, expected) = &scenarios[(c + r) % scenarios.len()];
                    let got =
                        query_text(&mut client, program, facts, QueryOptions::default());
                    assert_eq!(&got, expected, "client {c} request {r} diverged");
                }
            });
        }
    });

    let snap = server.metrics();
    let hits = snap.counter("plan_cache.hit");
    let misses = snap.counter("plan_cache.miss");
    assert_eq!(hits + misses, 48, "every query consulted the cache");
    assert!(misses <= 4, "compile stampede at worst doubles the 2 misses: {misses}");
    server.shutdown();
}

/// A connection beyond `max_sessions` receives one `quota` error frame
/// and is closed; the in-cap session keeps working.
#[test]
fn session_cap_refuses_with_quota_frame() {
    let server = start_server(DaemonConfig { max_sessions: 1, ..DaemonConfig::default() });
    let addr = server.addr().to_string();
    let mut inside = Client::connect(&addr).expect("first session connects");
    // Prove the slot is held before racing the second connection in.
    assert!(matches!(inside.ping().unwrap(), Response::Ok { .. }));

    let mut refused = Client::connect(&addr).expect("tcp connect still succeeds");
    match refused.ping() {
        Ok(Response::Error { code: ErrorCode::Quota, message, .. }) => {
            assert!(message.contains("session limit"), "{message}");
        }
        other => panic!("expected a quota frame, got {other:?}"),
    }

    // The refusal did not disturb the admitted session.
    let text = query_text(
        &mut inside,
        &read_example("bookstore.lap"),
        &read_example("bookstore_facts.lap"),
        QueryOptions::default(),
    );
    assert!(text.contains("answer is complete"), "{text}");
    server.shutdown();
}

/// A malformed frame (valid length prefix, garbage payload) gets a
/// `bad-frame` error reply and closes only that session; the server
/// keeps serving new connections. Nesting far past any stack is such a
/// payload: the parser's depth limit answers it instead of overflowing
/// the session thread, which would abort the whole process.
#[test]
fn malformed_frame_is_answered_and_contained() {
    let server = start_server(DaemonConfig::default());
    let addr = server.addr().to_string();

    for garbage in [b"this is not json".to_vec(), vec![b'['; 100_000]] {
        let mut raw = TcpStream::connect(&addr).expect("connect");
        raw.write_all(&(garbage.len() as u32).to_be_bytes()).unwrap();
        raw.write_all(&garbage).unwrap();
        raw.flush().unwrap();

        let doc = read_frame(&mut raw, MAX_FRAME_BYTES).expect("error frame comes back");
        match Response::from_json(&doc).expect("frame is a response") {
            Response::Error { id, code: ErrorCode::BadFrame, .. } => assert_eq!(id, 0),
            other => panic!("expected bad-frame, got {other:?}"),
        }
        // The session is closed after a bad frame: next read sees EOF.
        match read_frame(&mut raw, MAX_FRAME_BYTES) {
            Err(_) => {}
            Ok(doc) => panic!("session should be closed, got {doc:?}"),
        }
    }

    // The server survived: a fresh client gets answers.
    let mut client = Client::connect(&addr).expect("server still accepts");
    assert!(matches!(client.ping().unwrap(), Response::Ok { .. }));
    assert!(matches!(client.stats().unwrap(), Response::Ok { .. }));
    server.shutdown();
}

/// One long JSON string must decode in time linear in its length. The
/// decoder used to re-validate the rest of the buffer for every
/// character — seconds for 1 MB, about an hour at the 16 MiB frame cap —
/// pinning a session thread before the request was even admitted.
#[test]
fn huge_string_frame_is_decoded_in_linear_time() {
    let server = start_server(DaemonConfig::default());
    let mut client = Client::connect(server.addr()).expect("connect");
    let facts = format!("{}\n% {}\n", read_example("bookstore_facts.lap"), "x".repeat(2 << 20));
    assert!(facts.len() > 2 << 20);
    let started = std::time::Instant::now();
    let text = query_text(&mut client, &read_example("bookstore.lap"), &facts, QueryOptions::default());
    let elapsed = started.elapsed();
    assert!(text.contains("answer is complete"), "{text}");
    assert!(elapsed.as_secs() < 10, "a 2 MiB string took {elapsed:?} to answer");
    assert!(matches!(client.stats().unwrap(), Response::Ok { .. }));
    server.shutdown();
}

/// Valid JSON that is not a valid request draws a `bad-request` frame
/// and the session continues; a query error (unparsable program) draws
/// a `query-error` frame, ditto.
#[test]
fn request_level_errors_keep_the_session_alive() {
    let server = start_server(DaemonConfig::default());
    let addr = server.addr().to_string();

    let mut raw = TcpStream::connect(&addr).expect("connect");
    let bogus = lap::obs::Json::obj([
        ("v", lap::obs::Json::num(1)),
        ("id", lap::obs::Json::num(5)),
        ("op", lap::obs::Json::str("frobnicate")),
    ]);
    write_frame(&mut raw, &bogus).unwrap();
    let doc = read_frame(&mut raw, MAX_FRAME_BYTES).expect("reply");
    match Response::from_json(&doc).unwrap() {
        Response::Error { code: ErrorCode::BadRequest, message, .. } => {
            assert!(message.contains("unknown op"), "{message}");
        }
        other => panic!("expected bad-request, got {other:?}"),
    }
    // Same connection still serves valid requests afterwards.
    let ping = lap::proto::Request::Ping { id: 6 };
    write_frame(&mut raw, &ping.to_json()).unwrap();
    let doc = read_frame(&mut raw, MAX_FRAME_BYTES).expect("pong");
    assert!(matches!(Response::from_json(&doc).unwrap(), Response::Ok { id: 6, .. }));

    // A program that fails to parse is a query-error, not a dead session;
    // so is a recursive one, which is outside the paper's UCQ¬.
    let mut client = Client::connect(&addr).expect("connect");
    for (program, expected) in [
        ("this is not a program", "parse error"),
        ("R^oo.\nQ(x) :- R(x, y), Q(y).", "Q is defined recursively"),
    ] {
        match client.query(program, "R(1, 2). R(2, 3).", QueryOptions::default()).unwrap() {
            Response::Error { code: ErrorCode::QueryError, message, .. } => {
                assert!(message.contains(expected), "{program}: {message}");
            }
            other => panic!("{program}: expected query-error, got {other:?}"),
        }
    }
    // So are facts stored at another arity than the program declares —
    // too short (this used to panic the session thread) or too long.
    let program = "Catalog^oo. Library^o.\nQ(i, a) :- Catalog(i, a), not Library(i).";
    for (facts, expected) in [
        ("Catalog(1). Catalog(2).", "arity mismatch: expected 2, found 1"),
        ("Catalog(1, 2). Library(1, 2).", "arity mismatch: expected 1, found 2"),
    ] {
        match client.query(program, facts, QueryOptions::default()).unwrap() {
            Response::Error { code: ErrorCode::QueryError, message, .. } => {
                assert!(message.contains(expected), "{facts}: {message}");
            }
            other => panic!("{facts}: expected query-error, got {other:?}"),
        }
    }
    let text = query_text(
        &mut client,
        &read_example("bookstore.lap"),
        &read_example("bookstore_facts.lap"),
        QueryOptions::default(),
    );
    assert!(text.contains("answer is complete"), "{text}");
    server.shutdown();
}

/// Out-of-range options are rejected with `bad-request`, mirroring the
/// CLI's validation exactly.
#[test]
fn bad_options_are_rejected_like_the_cli() {
    let server = start_server(DaemonConfig::default());
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let program = read_example("bookstore.lap");
    let facts = read_example("bookstore_facts.lap");

    let cases: &[QueryOptions] = &[
        QueryOptions { io_workers: Some(0), ..QueryOptions::default() },
        QueryOptions { batch_width: Some(0), ..QueryOptions::default() },
        QueryOptions { fault_rate: Some(1.5), ..QueryOptions::default() },
        QueryOptions { retry: Some(0), ..QueryOptions::default() },
    ];
    for options in cases {
        match client.query(&program, &facts, options.clone()).unwrap() {
            Response::Error { code: ErrorCode::BadRequest, .. } => {}
            other => panic!("{options:?}: expected bad-request, got {other:?}"),
        }
    }
    server.shutdown();
}

/// A client-initiated shutdown frame stops the accept loop and the
/// server handle drains cleanly.
#[test]
fn shutdown_frame_stops_the_server() {
    let server = start_server(DaemonConfig::default());
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    match client.shutdown().expect("shutdown acked") {
        Response::Ok { text, .. } => assert!(text.contains("shutting down"), "{text}"),
        other => panic!("expected ok, got {other:?}"),
    }
    assert!(server.is_shutting_down());
    server.shutdown();
    // The listener is gone: connects now fail (allow a beat for teardown).
    let refused = (0..50).any(|_| {
        std::thread::sleep(std::time::Duration::from_millis(10));
        TcpStream::connect(&addr).is_err()
    });
    assert!(refused, "listener should be closed after shutdown");
}

/// Idle sessions do not hold shutdown up: it closes their read halves, so
/// each one sees EOF and ends at once. `shutdown` waits for the active
/// count to reach zero (or a 2 s grace period), so returning well inside
/// 200 ms means every session ended.
#[test]
fn shutdown_does_not_wait_for_idle_sessions() {
    let server = start_server(DaemonConfig::default());
    let mut clients: Vec<Client> =
        (0..4).map(|_| Client::connect(server.addr()).expect("connect")).collect();
    for client in &mut clients {
        assert!(matches!(client.ping().unwrap(), Response::Ok { .. }), "session is live");
    }
    let started = std::time::Instant::now();
    server.shutdown();
    let elapsed = started.elapsed();
    assert!(elapsed < std::time::Duration::from_millis(200), "shutdown took {elapsed:?}");
    for client in &mut clients {
        assert!(client.ping().is_err(), "an idle session must be closed by shutdown");
    }
}

/// `stats` surfaces the plan cache's byte usage and per-entry hit
/// counts, the telemetry fold counters, and the latency histograms
/// (request handling and the telemetry fold after it) — the operator
/// console's at-a-glance view.
#[test]
fn stats_reports_cache_detail_telemetry_and_latency() {
    let server = start_server(DaemonConfig::default());
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");
    let bookstore = read_example("bookstore.lap");
    let bookstore_facts = read_example("bookstore_facts.lap");

    // 1 miss + 2 hits on the bookstore entry, 1 miss on example 4.
    for _ in 0..3 {
        query_text(&mut client, &bookstore, &bookstore_facts, QueryOptions::default());
    }
    query_text(
        &mut client,
        &read_example("example4.lap"),
        &read_example("example4_facts.lap"),
        QueryOptions::default(),
    );

    let (text, data) = match client.stats().expect("stats frame") {
        Response::Ok { text, data, .. } => (text, data),
        other => panic!("expected ok, got {other:?}"),
    };
    assert!(text.contains("entry:"), "per-entry lines in stats text:\n{text}");
    assert!(text.contains("2 hits"), "bookstore entry shows its hit count:\n{text}");
    assert!(text.contains("telemetry:"), "{text}");
    assert!(text.contains("latency: gate wait"), "{text}");

    let cache = data.get("plan_cache").expect("plan_cache object");
    assert!(cache.get("evictions").and_then(lap::obs::Json::as_u64).is_some());
    assert!(cache.get("bytes").and_then(lap::obs::Json::as_u64).unwrap() > 0);
    let Some(lap::obs::Json::Arr(per_entry)) = cache.get("per_entry") else {
        panic!("per_entry array missing: {data:?}");
    };
    assert_eq!(per_entry.len(), 2, "two cached programs");
    let hits: Vec<u64> = per_entry
        .iter()
        .map(|e| e.get("hits").and_then(lap::obs::Json::as_u64).unwrap())
        .collect();
    assert!(hits.contains(&2), "one entry was hit twice: {hits:?}");
    assert!(
        per_entry
            .iter()
            .all(|e| e.get("bytes").and_then(lap::obs::Json::as_u64).unwrap() > 0),
        "every entry reports its estimated bytes"
    );

    // fold_every defaults to 1: each of the 4 queries folded its events
    // before the response went out, so the stats frame already sees them.
    let telemetry = data.get("telemetry").expect("telemetry object");
    let g = |k: &str| telemetry.get(k).and_then(lap::obs::Json::as_u64).unwrap();
    assert!(g("folds") >= 4, "per-request folds: {telemetry:?}");
    assert!(g("events_folded") > 0);
    assert!(g("profiles") > 0, "folded profiles are visible");

    let latency = data.get("latency").expect("latency object");
    let count = |k: &str| {
        latency.get(k).and_then(|h| h.get("count")).and_then(lap::obs::Json::as_u64)
    };
    assert_eq!(count("request_us"), Some(4), "one sample per query");
    assert_eq!(count("gate_wait_us"), Some(4));
    assert_eq!(count("fold_us"), Some(4), "one fold per query at the default cadence");
    assert!(text.contains("fold p50"), "{text}");
    server.shutdown();
}

/// The query path decides nothing: a miss on paper Example 3, whose
/// FEASIBLE verdict needs the containment check, compiles PLAN\* and the
/// lowering only. No containment decision reaches the server recorder, no
/// engine line reaches `stats`, and the answer is still one-shot's.
#[test]
fn query_path_decides_no_feasibility_verdict() {
    let program = read_example("example3.lap");
    let compiled = lap::core::PreparedProgram::compile_with(
        &program,
        &lap::containment::ContainmentEngine::default(),
    )
    .expect("example 3 compiles");
    let path = compiled.queries()[0].decision_path();
    assert_eq!(path, lap::core::DecisionPath::ContainmentCheck);

    let server = start_server(DaemonConfig::default());
    let mut client = Client::connect(server.addr()).expect("connect");
    let facts = read_example("bookstore_facts.lap");
    let got = query_text(&mut client, &program, &facts, QueryOptions::default());
    let expected =
        lapq_run(&["run", "examples/data/example3.lap", "examples/data/bookstore_facts.lap"]);
    assert_eq!(got, expected, "daemon = one-shot");
    let snap = server.metrics();
    assert_eq!(snap.counter("plan_cache.miss"), 1);
    assert_eq!(snap.counter("containment.decisions"), 0, "the miss decided FEASIBLE");
    let Response::Ok { text, .. } = client.stats().expect("stats frame") else {
        panic!("stats failed");
    };
    assert!(!text.contains("containment engine:"), "{text}");
    server.shutdown();
}

/// The operator ops: `profile` returns the live feedback store (valid
/// under the same invariants `lapq obs-validate` checks), `health` rolls
/// up per-relation status, and `recalibrate` forces a sweep.
#[test]
fn operator_ops_expose_profile_health_and_forced_recalibration() {
    // Watcher off: only forced sweeps run, so the tallies are exact.
    let server = start_server(DaemonConfig { watch_interval_ms: 0, ..DaemonConfig::default() });
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    // Before any query there is nothing to report.
    match client.health().expect("health frame") {
        Response::Ok { text, .. } => {
            assert!(text.contains("no telemetry folded yet"), "{text}");
        }
        other => panic!("expected ok, got {other:?}"),
    }

    query_text(
        &mut client,
        &read_example("bookstore.lap"),
        &read_example("bookstore_facts.lap"),
        QueryOptions::default(),
    );

    // `profile` is the live store: parseable, non-empty, and valid under
    // the exported-snapshot invariants.
    match client.profile().expect("profile frame") {
        Response::Ok { text, data, .. } => {
            let store = lap::obs::FeedbackStore::from_json(&data).expect("profile parses");
            store.validate().expect("profile validates");
            assert!(!store.profiles.is_empty(), "live profile has traffic");
            assert!(!text.is_empty(), "summary text accompanies the JSON");
        }
        other => panic!("expected ok, got {other:?}"),
    }

    // `health`: every bookstore source answered cleanly, so every
    // relation rolls up as ok with health 1.00.
    match client.health().expect("health frame") {
        Response::Ok { text, data, .. } => {
            assert!(text.contains("B: health 1.00"), "{text}");
            assert!(text.contains("ok"), "{text}");
            let Some(lap::obs::Json::Arr(relations)) = data.get("relations") else {
                panic!("relations array missing: {data:?}");
            };
            assert!(!relations.is_empty());
            assert!(relations.iter().all(|r| {
                r.get("status") == Some(&lap::obs::Json::str("ok"))
            }), "{data:?}");
        }
        other => panic!("expected ok, got {other:?}"),
    }

    // `recalibrate`: the forced sweep visits the one cached entry. With
    // no drift the calibrated order matches, so nothing republishes.
    match client.recalibrate().expect("recalibrate frame") {
        Response::Ok { text, data, .. } => {
            assert!(text.starts_with("sweep: 1 entry checked"), "{text}");
            assert_eq!(
                data.get("checked").and_then(lap::obs::Json::as_u64),
                Some(1),
                "{data:?}"
            );
        }
        other => panic!("expected ok, got {other:?}"),
    }
    server.shutdown();
}

/// The tentpole contract: when a source drifts an order of magnitude
/// away from its first-observed baseline, the watcher notices (drift
/// flag), recalibrates the affected cached plan, journals the action —
/// and plans for untouched queries keep answering byte-identically.
#[test]
fn watcher_recalibrates_drifted_plans_and_preserves_unchanged_bytes() {
    let server = start_server(DaemonConfig {
        watch_interval_ms: 20,
        recalibrate_cooldown_ms: 0,
        ..DaemonConfig::default()
    });
    let addr = server.addr().to_string();
    let mut client = Client::connect(&addr).expect("connect");

    // The planner feedback scenario: the static model scans A and probes
    // D^io per row; once A grows, the D^oo-first order is far cheaper.
    const DRIFT: &str = "A^o. D^oo. D^io.\nQ(x, y) :- A(x), D(x, y).";
    let facts_with = |a_rows: usize| {
        let mut facts = String::new();
        for i in 0..a_rows {
            facts.push_str(&format!("A({i}). "));
        }
        for i in 0..8 {
            facts.push_str(&format!("D({i}, {}). ", 100 + i));
        }
        facts
    };

    let bookstore = read_example("bookstore.lap");
    let bookstore_facts = read_example("bookstore_facts.lap");
    let expected = lapq_run(&[
        "run",
        "examples/data/bookstore.lap",
        "examples/data/bookstore_facts.lap",
    ]);
    assert_eq!(
        query_text(&mut client, &bookstore, &bookstore_facts, QueryOptions::default()),
        expected,
        "pre-drift bookstore baseline"
    );

    // Phase 1 freezes the baselines; phase 2 is the drifted reality
    // (A 100x larger), folded into the shared store request by request.
    query_text(&mut client, DRIFT, &facts_with(4), QueryOptions::default());
    let drifted_before = query_text(&mut client, DRIFT, &facts_with(400), QueryOptions::default());

    // No `recalibrate` frame is ever sent: the watcher must act alone.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        if server.metrics().counter("daemon.telemetry.recalibrations") >= 1 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "watcher never recalibrated; stats: {}",
            server.stats_json().to_pretty()
        );
        std::thread::sleep(std::time::Duration::from_millis(10));
    }

    // The action is journaled with the entry's key, its relations, and
    // before/after root costs.
    let (_, events) = server.journal().expect("server-wide journal").decode().unwrap();
    let recalibration = events
        .into_iter()
        .find_map(|stamped| match stamped.event {
            lap::obs::Event::Recalibrate(recalibration) => Some(recalibration),
            _ => None,
        })
        .expect("recalibration is journaled");
    let relations = &recalibration.relations;
    assert!(relations.iter().any(|r| r == "A"), "drifted relation recorded: {relations:?}");
    assert!(!recalibration.forced);
    // `before` is the compiled plan's static estimate, not an empty sum.
    let compiled = lap::core::PreparedProgram::compile(DRIFT).unwrap();
    let plan = &compiled.queries()[0].physical().under.parts[0];
    let costs = lap::planner::op_costs(plan, &lap::planner::CostModel::new());
    let static_calls = costs.last().expect("an executable plan").calls;
    let before = recalibration.before.get("est_calls").and_then(lap::obs::Json::as_f64);
    assert_eq!(before, Some(static_calls), "{:?}", recalibration.before);
    assert!(static_calls > 0.0);

    // Untouched plan, untouched bytes: the bookstore entry was disjoint
    // from the drift, so its text is still identical to one-shot lapq.
    assert_eq!(
        query_text(&mut client, &bookstore, &bookstore_facts, QueryOptions::default()),
        expected,
        "post-recalibration bookstore must stay byte-identical"
    );

    // The drifted query still returns exactly the same answer tuples
    // (the stats tail may differ — the replanned order makes fewer
    // calls, which is the point).
    let drifted_after = query_text(&mut client, DRIFT, &facts_with(400), QueryOptions::default());
    let tuples = |text: &str| -> Vec<String> {
        text.lines().filter(|l| !l.starts_with("  --") && !l.starts_with("query ")).map(str::to_owned).collect()
    };
    assert_eq!(tuples(&drifted_before), tuples(&drifted_after), "same answer, new plan");
    assert!(drifted_after.contains("answer is complete"), "{drifted_after}");
    server.shutdown();
}

/// Waits until every session has ended and its final fold has run.
fn await_sessions_closed(server: &Server) {
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    let active = || {
        server
            .stats_json()
            .get("sessions")
            .and_then(|s| s.get("active"))
            .and_then(lap::obs::Json::as_u64)
    };
    while active() != Some(0) {
        assert!(std::time::Instant::now() < deadline, "sessions never closed");
        std::thread::sleep(std::time::Duration::from_millis(2));
    }
}

/// Telemetry folds are cadence-invariant: one session of the same
/// bookstore queries, folded after every request and folded once at
/// session end, leaves the same counting statistics in `profile` and the
/// same `daemon.telemetry.events_folded`. That count is every event the
/// session's journal emitted, including kinds the fold ignores (lapbench's
/// warm-up waits on it). The per-request profile's digest is pinned, so
/// a change to how the ring is folded cannot move a byte of it.
#[test]
fn telemetry_folds_are_cadence_invariant_and_count_every_event() {
    let program = read_example("bookstore.lap");
    let facts = read_example("bookstore_facts.lap");
    let requests: Vec<QueryOptions> = (0..12u64)
        .map(|i| match i % 3 {
            0 => QueryOptions::default(),
            1 => QueryOptions {
                fault_rate: Some(0.3),
                fault_seed: Some(i),
                retry: Some(3),
                latency_ms: Some(4),
                ..QueryOptions::default()
            },
            _ => QueryOptions {
                fault_rate: Some(0.5),
                fault_seed: Some(i),
                io_workers: Some(2),
                ..QueryOptions::default()
            },
        })
        .collect();

    // What the session's journal emits, recorded in-process through the
    // same prepared execution the daemon runs.
    let emitted = {
        let recorder = lap::obs::Recorder::with_journal(lap::obs::JournalConfig::light());
        let prepared = lap::core::PreparedProgram::compile(&program).expect("bookstore compiles");
        for options in &requests {
            let (exec, resilience) = lap::execution_from_options(options).expect("valid options");
            let db = lap::engine::Database::from_facts(&facts).expect("facts parse");
            for prep in prepared.queries() {
                match &resilience {
                    Some(res) => drop(prep.execute_resilient_obs_cfg(&db, &recorder, res, exec)),
                    None => drop(prep.execute_obs_cfg(&db, &recorder, exec)),
                }
            }
        }
        let journal = recorder.journal().expect("journal");
        assert_eq!(journal.dropped(), 0, "the session's ring never wraps here");
        journal.emitted()
    };

    let run = |fold_every_requests: u64| {
        let server = start_server(DaemonConfig {
            fold_every_requests,
            watch_interval_ms: 0,
            ..DaemonConfig::default()
        });
        let addr = server.addr().to_string();
        let mut client = Client::connect(&addr).expect("connect");
        for options in &requests {
            query_text(&mut client, &program, &facts, options.clone());
        }
        drop(client);
        await_sessions_closed(&server);
        let mut client = Client::connect(&addr).expect("connect");
        let profile = match client.profile().expect("profile frame") {
            Response::Ok { data, .. } => data,
            other => panic!("expected ok, got {other:?}"),
        };
        drop(client);
        await_sessions_closed(&server);
        let folded = server.metrics().counter("daemon.telemetry.events_folded");
        server.shutdown();
        (profile, folded)
    };
    let (every, folded_every) = run(1);
    let (once, folded_once) = run(0);

    assert_eq!(folded_every, emitted, "per-request folds count every emitted event");
    assert_eq!(folded_once, emitted, "the final fold counts every emitted event");

    let store = |doc: &lap::obs::Json| {
        let store = lap::obs::FeedbackStore::from_json(doc).expect("profile parses");
        store.validate().expect("profile validates");
        store
    };
    let (every, every_json, once) = (store(&every), every.to_compact(), store(&once));
    assert_eq!(once.folds, 1, "fold_every_requests = 0 folds once, at session end");
    assert_eq!(every.folds, requests.len() as u64, "fold_every_requests = 1 folds per request");
    let counting = |s: &lap::obs::FeedbackStore| -> Vec<String> {
        s.profiles
            .values()
            .map(|p| {
                let latency = (p.latency.count, p.latency.sum, p.latency.max, &p.latency.buckets);
                let outcomes = (p.attempts, p.ok, p.faults, p.timeouts);
                let traffic = (p.rows, p.retries, p.wait_ms);
                format!("{}^{}: {outcomes:?} {traffic:?} {latency:?}", p.relation, p.pattern)
            })
            .collect()
    };
    assert_eq!(counting(&every), counting(&once), "counting statistics are cadence-invariant");
    assert!(every.profiles.values().any(|p| p.faults > 0 && p.retries > 0), "{}", every.summary());
    assert_eq!(
        contract_table::fnv1a64(every_json.as_bytes()),
        0x3f0e_bffd_8fe9_3453,
        "per-request profile bytes moved:\n{every_json}"
    );
}
