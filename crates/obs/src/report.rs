//! `lapq report`: roll a journal up into per-source / per-operator tables.
//!
//! The journal records individual events; this module aggregates them into
//! the profiling view an operator actually reads: one row per source
//! relation (calls, faults, retries, rows, latency p50/p95/p99 estimated
//! through the log₂ [`Histogram`] machinery) and one row per physical
//! operator (batches, rows in/out). Works on any journal — light or
//! replay-profile — since it only needs the always-present fields.

use crate::journal::{Event, JournalSnapshot, WireOutcome};
use crate::json::Json;
use crate::metrics::Histogram;
use std::collections::BTreeMap;

#[derive(Default)]
struct SourceRow {
    calls: u64,
    ok: u64,
    faults: u64,
    timeouts: u64,
    retries: u64,
    rows: u64,
    cache_hits: u64,
    membership: u64,
    latency: Histogram,
    /// Total backoff wait charged to the virtual clock before retries.
    wait_ms: u64,
}

#[derive(Default)]
struct OperatorRow {
    batches: u64,
    rows_in: u64,
    rows_out: u64,
}

/// Renders the profiling report for `snapshot` as fixed-width text.
/// Panics on an event that does not decode (see [`JournalSnapshot`]).
pub fn render_report(snapshot: &JournalSnapshot) -> String {
    let (names, events) = snapshot.decoded();
    let mut sources: BTreeMap<&str, SourceRow> = BTreeMap::new();
    let mut operators: BTreeMap<&str, OperatorRow> = BTreeMap::new();
    let mut degraded: Vec<String> = Vec::new();
    let mut last_ts = 0u64;
    for stamped in &events {
        last_ts = last_ts.max(stamped.ts_ms);
        match &stamped.event {
            &Event::CallEnd { relation, outcome, .. } => {
                let row = sources.entry(names.get(relation)).or_default();
                row.calls += 1;
                let latency_ms = match outcome {
                    WireOutcome::Ok { rows, latency_ms } => {
                        row.ok += 1;
                        row.rows += rows;
                        latency_ms
                    }
                    WireOutcome::Unavailable { latency_ms }
                    | WireOutcome::Timeout { latency_ms, .. } => latency_ms,
                };
                row.latency.record(latency_ms);
            }
            &Event::Fault { relation, .. } => {
                sources.entry(names.get(relation)).or_default().faults += 1
            }
            &Event::Timeout { relation, .. } => {
                sources.entry(names.get(relation)).or_default().timeouts += 1
            }
            &Event::Retry { relation, backoff_ms, .. } => {
                let row = sources.entry(names.get(relation)).or_default();
                row.retries += 1;
                row.wait_ms += backoff_ms;
            }
            &Event::CacheHit { relation, .. } => {
                sources.entry(names.get(relation)).or_default().cache_hits += 1
            }
            &Event::Membership { relation, .. } => {
                sources.entry(names.get(relation)).or_default().membership += 1
            }
            &Event::BatchBegin { label, rows_in } => {
                let row = operators.entry(names.get(label)).or_default();
                row.batches += 1;
                row.rows_in += rows_in;
            }
            &Event::BatchEnd { label, rows_out, .. } => {
                operators.entry(names.get(label)).or_default().rows_out += rows_out;
            }
            Event::Degraded(d) => degraded.push(format!(
                "disjunct {} ({}) after {} attempt(s): {}",
                d.index, d.relation, d.attempts, d.reason
            )),
            _ => {}
        }
    }

    let mut out = String::new();
    if let Some(query) = snapshot.meta.get("query").and_then(Json::as_str) {
        out.push_str(&format!("query: {query}\n"));
    }
    out.push_str(&format!(
        "journal: {} recorded, {} dropped, {} emitted; {} virtual ms\n",
        snapshot.recorded(),
        snapshot.dropped,
        snapshot.emitted,
        last_ts
    ));

    if !sources.is_empty() {
        out.push_str("\nsources:\n");
        let width = sources.keys().map(|name| name.len()).max().unwrap_or(6).max(6);
        out.push_str(&format!(
            "  {:width$}  {:>6} {:>6} {:>6} {:>6} {:>7} {:>7} {:>8} {:>8} {:>8} {:>8} {:>7}\n",
            "source", "calls", "rows", "faults", "retry", "cached", "member", "p50ms", "p95ms", "p99ms", "waitms", "wait%",
        ));
        for (name, row) in &sources {
            let lat = row.latency.snapshot();
            // Backoff waits as a share of the run's virtual elapsed time:
            // what degradation actually cost, next to what calls cost. A
            // source that never retried has no wait to attribute — render
            // `-` rather than a 0/0 percentage (a journal whose events all
            // land on virtual ms 0 has `last_ts == 0`, and the naive
            // division used to print `NaN%`).
            let (wait_ms, wait_share) = if row.retries == 0 {
                ("-".to_owned(), "-".to_owned())
            } else {
                let share = if last_ts == 0 {
                    0.0
                } else {
                    100.0 * row.wait_ms as f64 / last_ts as f64
                };
                (row.wait_ms.to_string(), format!("{share:.1}%"))
            };
            out.push_str(&format!(
                "  {name:width$}  {:>6} {:>6} {:>6} {:>6} {:>7} {:>7} {:>8.1} {:>8.1} {:>8.1} {:>8} {:>7}\n",
                row.calls,
                row.rows,
                row.faults + row.timeouts,
                row.retries,
                row.cache_hits,
                row.membership,
                lat.p50(),
                lat.p95(),
                lat.p99(),
                wait_ms,
                wait_share,
            ));
        }
    }

    if !operators.is_empty() {
        out.push_str("\noperators:\n");
        let width = operators.keys().map(|label| label.len()).max().unwrap_or(8).max(8);
        out.push_str(&format!(
            "  {:width$}  {:>8} {:>9} {:>9}\n",
            "operator", "batches", "rows_in", "rows_out",
        ));
        for (label, row) in &operators {
            out.push_str(&format!(
                "  {label:width$}  {:>8} {:>9} {:>9}\n",
                row.batches, row.rows_in, row.rows_out,
            ));
        }
    }

    if !degraded.is_empty() {
        out.push_str("\ndegraded disjuncts:\n");
        for line in &degraded {
            out.push_str(&format!("  {line}\n"));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{Degraded, Journal, JournalConfig};
    use crate::metrics::Counter;

    fn journal() -> Journal {
        Journal::new(JournalConfig::light(), Counter::detached())
    }

    /// One wire attempt of `rel` ending at `end` after `latency` ms; a
    /// fault without `rows`.
    fn call(j: &Journal, rel: &str, end: u64, latency: u64, rows: Option<u64>) {
        let outcome = match rows {
            Some(rows) => WireOutcome::Ok { rows, latency_ms: latency },
            None => WireOutcome::Unavailable { latency_ms: latency },
        };
        crate::journal::tests::call(j, 0, end - latency..end, &format!("{rel}^o"), outcome);
    }

    fn retry(j: &Journal, rel: &str, ts: u64, attempt: u64, backoff_ms: u64) {
        j.record(0, ts, |names| Event::Retry { relation: names.intern(rel), attempt, backoff_ms });
    }

    #[test]
    fn report_rolls_up_sources_and_operators() {
        let j = journal();
        j.set_meta(Json::obj([("query", Json::str("Q"))]));
        let label = j.intern("access B^oi");
        j.record(0, 0, |_| Event::BatchBegin { label, rows_in: 2 });
        for latency in [3u64, 9] {
            call(&j, "B", latency, latency, Some(4));
        }
        let s = j.intern("S");
        j.record(0, 9, |_| Event::Fault { relation: s, latency_ms: 0, attempt: 1 });
        retry(&j, "S", 9, 2, 0);
        j.record(0, 10, |_| Event::BatchEnd { label, rows_out: 8, ok: true });
        j.record(0, 11, |_| {
            Event::Degraded(Box::new(Degraded {
                index: 1,
                head: "Q(x)".to_owned(),
                relation: "S".to_owned(),
                attempts: 4,
                reason: "unavailable".to_owned(),
            }))
        });
        let text = render_report(&j.snapshot());
        assert!(text.contains("query: Q"), "{text}");
        assert!(text.contains("sources:"), "{text}");
        assert!(text.contains("operators:"), "{text}");
        assert!(text.contains("access B^oi"), "{text}");
        assert!(text.contains("degraded disjuncts:"), "{text}");
        assert!(text.contains("disjunct 1 (S) after 4 attempt(s): unavailable"), "{text}");
        // B row: 2 calls, 8 rows.
        let b_line = text.lines().find(|l| l.trim_start().starts_with("B ")).unwrap();
        assert!(b_line.contains('2') && b_line.contains('8'), "{b_line}");
    }

    /// Satellite pin: retry markers carrying `backoff_ms` roll up into a
    /// per-source wait-time column plus its share of the virtual elapsed
    /// time, right next to the latency percentiles.
    #[test]
    fn retry_backoff_rolls_up_into_wait_columns() {
        let j = journal();
        call(&j, "S", 5, 5, None);
        let s = j.intern("S");
        j.record(0, 5, |_| Event::Fault { relation: s, latency_ms: 5, attempt: 1 });
        retry(&j, "S", 25, 2, 20);
        call(&j, "S", 30, 5, Some(1));
        retry(&j, "S", 70, 3, 15);
        // A retry marker with no backoff counts as zero wait.
        retry(&j, "S", 80, 4, 0);
        call(&j, "S", 100, 0, Some(1));
        let text = render_report(&j.snapshot());
        assert!(text.contains("waitms"), "{text}");
        assert!(text.contains("wait%"), "{text}");
        let s_line = text.lines().find(|l| l.trim_start().starts_with("S ")).unwrap();
        // 20 + 15 + 0 = 35 wait ms over 100 virtual ms = 35.0%.
        assert!(s_line.contains("35"), "{s_line}");
        assert!(s_line.contains("35.0%"), "{s_line}");
    }

    /// Regression: a journal whose events all land on virtual ms 0 (so
    /// `last_ts == 0`) used to divide 0 by 0 for the wait share and print
    /// `NaN%`. A source with zero retries now renders `-` for both wait
    /// columns; retrying sources keep their numeric share.
    #[test]
    fn zero_retry_sources_render_dash_not_nan() {
        let j = journal();
        // Everything at virtual ms 0: instant call, no faults, no retries.
        call(&j, "B", 0, 0, Some(3));
        let text = render_report(&j.snapshot());
        assert!(!text.contains("NaN"), "{text}");
        let b_line = text.lines().find(|l| l.trim_start().starts_with("B ")).unwrap();
        assert!(b_line.trim_end().ends_with('-'), "{b_line}");
        assert!(!b_line.contains('%'), "{b_line}");

        // And a mixed journal: the retrying source keeps its percentage
        // while the clean source stays dashed.
        let j = journal();
        call(&j, "B", 0, 0, Some(1));
        retry(&j, "S", 50, 2, 25);
        call(&j, "S", 100, 0, Some(1));
        let text = render_report(&j.snapshot());
        let b_line = text.lines().find(|l| l.trim_start().starts_with("B ")).unwrap();
        assert!(b_line.trim_end().ends_with('-'), "{b_line}");
        let s_line = text.lines().find(|l| l.trim_start().starts_with("S ")).unwrap();
        assert!(s_line.contains("25.0%"), "{s_line}");
    }

    #[test]
    fn empty_journal_still_reports_accounting() {
        let text = render_report(&journal().snapshot());
        assert!(text.contains("0 recorded, 0 dropped, 0 emitted"), "{text}");
    }
}
