//! Canonical text rendering of answer reports and outcomes.
//!
//! `lapq run` prints an [`AnswerReport`] to stdout; the `lapd` daemon
//! ships the same report to a remote client inside a response frame. The
//! acceptance bar for the daemon is **byte identity**: for the same
//! program and facts, the daemon's answer text must equal the one-shot
//! CLI's output exactly, so clients (and `tests/contract_table`) can `cmp`
//! them. The only way to keep two call sites byte-identical is to have
//! one renderer — this module. `lapq` prints these strings; the daemon
//! frames them; nobody formats a report by hand.

use crate::answer::{AnswerOutcome, AnswerReport, Completeness};
use lap_engine::{display_tuple, Value};
use std::fmt::Write as _;

/// Appends one answer line: `indent`, the tuple as [`display_tuple`]
/// writes it, and a newline.
fn push_tuple_line(out: &mut String, indent: &str, t: &[Value]) {
    out.push_str(indent);
    out.push_str(&display_tuple(t));
    out.push('\n');
}

/// Renders the body of an [`AnswerReport`]: certain answers, the
/// completeness verdict, possible extra tuples, and call statistics. Every
/// line is `\n`-terminated; there is no trailing blank line.
pub fn render_answer_report(rep: &AnswerReport) -> String {
    let mut out = String::with_capacity(128 + 32 * (rep.under.len() + rep.delta.len()));
    for t in &rep.under {
        push_tuple_line(&mut out, "  ", t);
    }
    match rep.completeness {
        Completeness::Complete => out.push_str("  -- answer is complete\n"),
        Completeness::AtLeast(r) => {
            let _ = writeln!(out, "  -- answer is not known to be complete (>= {:.0}%)", r * 100.0);
        }
        Completeness::Unknown => out.push_str("  -- answer is not known to be complete\n"),
    }
    if !rep.delta.is_empty() {
        out.push_str("  -- these tuples may be part of the answer:\n");
        for t in &rep.delta {
            push_tuple_line(&mut out, "     ", t);
        }
    }
    let _ = writeln!(out, "  -- {}", rep.stats);
    out
}

/// Renders a refined run's `dom(x)` line (empty on other runs): the
/// answers it added to `ansᵤ`, enumeration's calls, whether it reached its
/// fixpoint, and any re-admitted disjuncts dropped. `lapq run` prints it
/// after the report body; [`render_outcome`] includes it.
pub fn render_refinement(outcome: &AnswerOutcome) -> String {
    let Some(refined) = &outcome.refinement else { return String::new() };
    let extra: Vec<String> =
        refined.under.difference(&outcome.report.under).map(|t| display_tuple(t)).collect();
    let dropped = match refined.dropped.len() {
        0 => String::new(),
        n => format!(", {n} disjunct(s) dropped"),
    };
    format!(
        "  -- dom(x) refinement recovered {} extra certain answer(s){}{} ({} calls, fixpoint: {}{dropped})\n",
        extra.len(),
        if extra.is_empty() { "" } else { ": " },
        extra.join(", "),
        refined.calls,
        refined.fixpoint,
    )
}

/// Renders an [`AnswerOutcome`]: the report body, the refinement line (on
/// a refined run), the degradation tail (when any disjunct dropped), the
/// resilience totals, and a trailing blank line — exactly what `lapq run
/// --retry ...` prints per query.
pub fn render_outcome(outcome: &AnswerOutcome) -> String {
    let mut out = render_answer_report(&outcome.report);
    out.push_str(&render_refinement(outcome));
    if outcome.degradation.is_degraded() {
        let _ = writeln!(
            out,
            "  -- degraded: {} disjunct(s) dropped after exhausting retries:",
            outcome.degradation.total()
        );
        for line in outcome.degradation.to_string().lines() {
            let _ = writeln!(out, "     {line}");
        }
    }
    let _ = writeln!(
        out,
        "  -- resilience: {} retry(ies), {} source failure(s), {} virtual ms",
        outcome.retries, outcome.failures, outcome.virtual_ms
    );
    out.push('\n');
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use lap_engine::Database;
    use lap_ir::parse_program;
    use lap_obs::Recorder;

    #[test]
    fn report_rendering_covers_every_verdict_shape() {
        let p = parse_program(
            "S^o. R^oo. B^ii. T^oo.\n\
             Q(x, y) :- not S(z), R(x, z), B(x, y).\n\
             Q(x, y) :- T(x, y).",
        )
        .unwrap();
        let db = Database::from_facts(r#"R(1, 10). S(99). T(7, 8). B(1, 5)."#).unwrap();
        let rep = crate::answer_star(p.single_query().unwrap(), &p.schema, &db).unwrap();
        let text = render_answer_report(&rep);
        assert!(text.contains("  (7, 8)\n"), "{text}");
        assert!(text.contains("  -- answer is not known to be complete\n"), "{text}");
        assert!(text.contains("  -- these tuples may be part of the answer:\n"), "{text}");
        assert!(text.contains("     (1, null)\n"), "{text}");
        assert!(!text.ends_with("\n\n"), "no trailing blank line: {text:?}");

        let complete = crate::answer_star(
            p.single_query().unwrap(),
            &p.schema,
            &Database::from_facts("R(1, 10). S(10). T(7, 8).").unwrap(),
        )
        .unwrap();
        let text = render_answer_report(&complete);
        assert!(text.contains("  -- answer is complete\n"), "{text}");
    }

    /// The report's bytes, pinned: each tuple is written as
    /// `display_tuple` writes it — unquoted values, `null`, any `i64` —
    /// under its indent, one per line.
    #[test]
    fn report_bytes_are_pinned() {
        use lap_engine::{CallStats, Value};
        let p = parse_program("R^o.\nQ(x) :- R(x).").unwrap();
        let mut rep = crate::answer_star(
            p.single_query().unwrap(),
            &p.schema,
            &Database::from_facts("R(1).").unwrap(),
        )
        .unwrap();
        rep.under = [
            vec![Value::Null, Value::Int(-7)],
            vec![Value::Int(i64::MIN), Value::str("a, b")],
            vec![Value::str("x)\"y\u{200b}")],
        ]
        .into_iter()
        .collect();
        rep.delta = [vec![Value::Null], vec![Value::str(", ")]].into_iter().collect();
        rep.completeness = Completeness::AtLeast(0.5);
        rep.stats = CallStats { calls: 3, tuples_returned: 4, cache_hits: 1 };
        assert_eq!(
            render_answer_report(&rep),
            "  (null, -7)\n\
             \x20 (-9223372036854775808, a, b)\n\
             \x20 (x)\"y\u{200b})\n\
             \x20 -- answer is not known to be complete (>= 50%)\n\
             \x20 -- these tuples may be part of the answer:\n\
             \x20    (null)\n\
             \x20    (, )\n\
             \x20 -- 3 calls, 4 tuples transferred, 1 cache hits\n"
        );
        rep.delta.clear();
        rep.under.clear();
        rep.completeness = Completeness::Complete;
        assert_eq!(
            render_answer_report(&rep),
            "  -- answer is complete\n  -- 3 calls, 4 tuples transferred, 1 cache hits\n"
        );
    }

    #[test]
    fn outcome_rendering_has_resilience_tail_and_trailing_blank() {
        let p = parse_program("F^o. G^o.\nQ(x) :- F(x).\nQ(x) :- G(x).").unwrap();
        let db = Database::from_facts("F(1). G(2).").unwrap();
        let outcome = crate::answer_star_resilient_cfg(
            p.single_query().unwrap(),
            &p.schema,
            &db,
            &Recorder::disabled(),
            &lap_engine::ResilienceConfig::chaos(0.0, 1),
            lap_engine::ExecConfig::default(),
        )
        .unwrap();
        let text = render_outcome(&outcome);
        assert!(
            text.contains("  -- resilience: 0 retry(ies), 0 source failure(s), 0 virtual ms\n"),
            "{text}"
        );
        assert!(text.ends_with("\n\n"), "outcome ends with a blank line: {text:?}");

        let degraded = crate::answer_star_resilient_cfg(
            p.single_query().unwrap(),
            &p.schema,
            &db,
            &Recorder::disabled(),
            &lap_engine::ResilienceConfig::chaos(1.0, 7),
            lap_engine::ExecConfig::default(),
        )
        .unwrap();
        let text = render_outcome(&degraded);
        assert!(text.contains("disjunct(s) dropped after exhausting retries:"), "{text}");
        assert!(text.contains("     [under]"), "{text}");
    }
}
