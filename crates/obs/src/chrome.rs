//! Chrome trace-event JSON export for journal snapshots.
//!
//! Converts a [`JournalSnapshot`] into the Trace Event Format understood
//! by Perfetto and `chrome://tracing`: `*.begin`/`*.end` pairs become
//! duration events (`ph: "B"` / `ph: "E"`), everything else becomes an
//! instant event (`ph: "i"`). Lanes map to thread ids, so the main
//! execution and each overlapped I/O worker render as separate tracks.
//!
//! The engine runs on a *virtual* clock with millisecond resolution, so
//! many events share a timestamp. Trace viewers require strictly ordered,
//! microsecond-resolution timestamps per track; we export
//! `ts = ts_ms * 1000 + seq` — order-preserving (sequence numbers are
//! strictly monotone) and off by less than 1ms as long as fewer than 1000
//! events share a wall millisecond, which a capacity-bounded journal
//! satisfies in practice.

use crate::journal::JournalSnapshot;
use crate::json::Json;
use std::collections::BTreeMap;

/// Process id used for all exported events (the engine is one process).
pub const TRACE_PID: u64 = 1;

fn category(kind: &str) -> &str {
    kind.split('.').next().unwrap_or(kind)
}

/// Converts a journal snapshot to a Chrome trace document:
/// `{"traceEvents": [...], "displayTimeUnit": "ms"}`.
///
/// End events whose begin was evicted from the ring are skipped (tracked
/// per lane), so the exported nesting is always balanced; still-open
/// begins at the end of the snapshot are closed at the last timestamp.
/// Each trace event carries its journal event's `data` as is. Panics on
/// an event that does not decode (see [`JournalSnapshot`]).
pub fn chrome_trace(snapshot: &JournalSnapshot) -> Json {
    let (names, decoded) = snapshot.decoded();
    let mut events = Vec::with_capacity(snapshot.events.len());
    // Per-lane stack of open begin names, to drop orphan ends and close
    // orphan begins.
    let mut open: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    let mut last_ts = 0u64;
    for (event, typed) in snapshot.events.iter().zip(&decoded) {
        let ts = event.ts_ms * 1000 + event.seq;
        last_ts = last_ts.max(ts);
        let name = typed.event.display_name(&names);
        let ph = match typed.event.interval() {
            Some((_, true)) => {
                open.entry(event.lane).or_default().push(name.clone());
                "B"
            }
            Some((_, false)) => match open.entry(event.lane).or_default().pop() {
                Some(_) => "E",
                None => continue, // begin evicted from the ring: skip
            },
            None => "i",
        };
        let mut fields = vec![
            ("name".to_owned(), Json::str(&name)),
            ("cat".to_owned(), Json::str(category(&event.kind))),
            ("ph".to_owned(), Json::str(ph)),
            ("ts".to_owned(), Json::num(ts)),
            ("pid".to_owned(), Json::num(TRACE_PID)),
            ("tid".to_owned(), Json::num(event.lane)),
        ];
        if ph == "i" {
            fields.push(("s".to_owned(), Json::str("t")));
        }
        fields.push((
            "args".to_owned(),
            Json::obj([
                ("seq", Json::num(event.seq)),
                ("kind", Json::str(&event.kind)),
                ("data", event.data.clone()),
            ]),
        ));
        events.push(Json::Obj(fields));
    }
    // Close any still-open begins so viewers never see a dangling "B".
    for (lane, stack) in open.iter().rev() {
        for name in stack.iter().rev() {
            last_ts += 1;
            events.push(Json::obj([
                ("name", Json::str(name)),
                ("cat", Json::str("truncated")),
                ("ph", Json::str("E")),
                ("ts", Json::num(last_ts)),
                ("pid", Json::num(TRACE_PID)),
                ("tid", Json::num(*lane)),
            ]));
        }
    }
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
}

/// Validates a parsed Chrome trace document: required keys present on
/// every event and `B`/`E` balanced per `(pid, tid)` track. Returns the
/// number of trace events.
pub fn validate_chrome_trace(doc: &Json) -> Result<usize, String> {
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or("missing \"traceEvents\" array")?;
    let mut depth: BTreeMap<(u64, u64), i64> = BTreeMap::new();
    for (i, event) in events.iter().enumerate() {
        for key in ["name", "ph", "ts", "pid", "tid"] {
            if event.get(key).is_none() {
                return Err(format!("event {i} missing {key:?}"));
            }
        }
        let track = (
            event.get("pid").and_then(Json::as_u64).unwrap_or(0),
            event.get("tid").and_then(Json::as_u64).unwrap_or(0),
        );
        match event.get("ph").and_then(Json::as_str) {
            Some("B") => *depth.entry(track).or_default() += 1,
            Some("E") => {
                let d = depth.entry(track).or_default();
                *d -= 1;
                if *d < 0 {
                    return Err(format!("event {i}: \"E\" without matching \"B\""));
                }
            }
            Some("i") | Some("I") => {}
            Some(other) => return Err(format!("event {i}: unsupported phase {other:?}")),
            None => return Err(format!("event {i}: non-string \"ph\"")),
        }
    }
    if let Some(((pid, tid), _)) = depth.iter().find(|(_, &d)| d != 0) {
        return Err(format!("unbalanced B/E on track pid={pid} tid={tid}"));
    }
    Ok(events.len())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::tests::{batch, call, probe};
    use crate::journal::{Journal, JournalConfig, WireOutcome};
    use crate::json;
    use crate::metrics::Counter;

    fn sample() -> Journal {
        Journal::new(JournalConfig::light(), Counter::detached())
    }

    const FAULT: WireOutcome = WireOutcome::Unavailable { latency_ms: 2 };

    #[test]
    fn exports_balanced_duration_and_instant_events() {
        let j = sample();
        batch(&j, 0, "access B^oi", true);
        call(&j, 0, 1..4, "S^o", FAULT);
        probe(&j, 0, 4, "L");
        batch(&j, 5, "access B^oi", false);
        let doc = chrome_trace(&j.snapshot());
        let n = validate_chrome_trace(&doc).expect("balanced trace");
        assert_eq!(n, 5);
        let events = doc.get("traceEvents").and_then(Json::as_arr).unwrap();
        let name = |i: usize| events[i].get("name").and_then(Json::as_str);
        let names: Vec<_> = (0..4).map(name).collect();
        let expected = ["access B^oi", "S^o", "source.call", "source.membership"];
        assert_eq!(names, expected.map(Some));
        assert_eq!(events[0].get("ph").and_then(Json::as_str), Some("B"));
        assert_eq!(events[3].get("ph").and_then(Json::as_str), Some("i"));
        // ts = ts_ms * 1000 + seq keeps equal-millisecond events ordered.
        let ts: Vec<u64> = events
            .iter()
            .map(|e| e.get("ts").and_then(Json::as_u64).unwrap())
            .collect();
        assert!(ts.windows(2).all(|w| w[0] < w[1]), "{ts:?}");
    }

    #[test]
    fn orphan_ends_are_skipped_and_orphan_begins_closed() {
        let j = Journal::new(
            JournalConfig {
                capacity: 2,
                ..JournalConfig::light()
            },
            Counter::detached(),
        );
        batch(&j, 0, "access B^oi", true);
        probe(&j, 0, 1, "L");
        probe(&j, 0, 2, "L");
        batch(&j, 3, "access B^oi", false); // begin was evicted
        let doc = chrome_trace(&j.snapshot());
        validate_chrome_trace(&doc).expect("orphan end dropped");

        let j = sample();
        batch(&j, 0, "access B^oi", true);
        let doc = chrome_trace(&j.snapshot());
        validate_chrome_trace(&doc).expect("orphan begin closed");
    }

    #[test]
    fn round_trips_through_in_repo_parser() {
        let j = sample();
        call(&j, 3, 7..9, "S^o", FAULT);
        let text = chrome_trace(&j.snapshot()).to_pretty();
        let parsed = json::parse(&text).expect("valid JSON");
        validate_chrome_trace(&parsed).expect("valid trace");
        let events = parsed.get("traceEvents").and_then(Json::as_arr).unwrap();
        assert_eq!(events[0].get("tid").and_then(Json::as_u64), Some(3));
    }

    #[test]
    fn validator_rejects_broken_traces() {
        let doc = json::parse(r#"{"traceEvents": [{"name": "x", "ph": "E", "ts": 1, "pid": 1, "tid": 0}]}"#)
            .unwrap();
        assert!(validate_chrome_trace(&doc).is_err());
        let doc = json::parse(r#"{"traceEvents": [{"name": "x", "ph": "B", "ts": 1, "pid": 1, "tid": 0}]}"#)
            .unwrap();
        assert!(validate_chrome_trace(&doc).is_err());
        let doc = json::parse(r#"{"events": []}"#).unwrap();
        assert!(validate_chrome_trace(&doc).is_err());
    }
}
