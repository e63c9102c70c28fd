//! Snapshot exporters: [`render_text`] (human-readable span tree + metric
//! listing, the `--trace` renderer) and [`snapshot_to_json`]
//! (machine-readable document via the in-crate [`Json`] writer, the
//! `--metrics-json` exporter).

use crate::json::Json;
use crate::metrics::HistogramSnapshot;
use crate::recorder::Snapshot;
use crate::span::SpanNode;
use std::time::Duration;

fn fmt_duration(d: Duration) -> String {
    let micros = d.as_micros();
    if micros < 1_000 {
        format!("{micros}µs")
    } else if micros < 1_000_000 {
        format!("{:.2}ms", micros as f64 / 1_000.0)
    } else {
        format!("{:.2}s", micros as f64 / 1_000_000.0)
    }
}

fn render_span(out: &mut String, span: &SpanNode, prefix: &str, last: bool, root: bool) {
    if root {
        out.push_str(&format!("{} [{}]\n", span.name, fmt_duration(span.elapsed)));
    } else {
        let branch = if last { "`-- " } else { "|-- " };
        out.push_str(&format!(
            "{prefix}{branch}{} [{}]\n",
            span.name,
            fmt_duration(span.elapsed)
        ));
    }
    let child_prefix = if root {
        String::new()
    } else {
        format!("{prefix}{}", if last { "    " } else { "|   " })
    };
    for (i, child) in span.children.iter().enumerate() {
        render_span(out, child, &child_prefix, i + 1 == span.children.len(), false);
    }
}

/// Renders a snapshot as human-readable text: an `EXPLAIN ANALYZE`-style
/// span tree followed by counters and histogram summaries.
pub fn render_text(snapshot: &Snapshot) -> String {
    let mut out = String::new();
    if !snapshot.spans.is_empty() {
        out.push_str("spans:\n");
        for root in &snapshot.spans {
            render_span(&mut out, root, "", true, true);
        }
    }
    if !snapshot.metrics.counters.is_empty() {
        out.push_str("counters:\n");
        let width = snapshot
            .metrics
            .counters
            .keys()
            .map(String::len)
            .max()
            .unwrap_or(0);
        for (name, value) in &snapshot.metrics.counters {
            out.push_str(&format!("  {name:width$}  {value}\n"));
        }
    }
    if !snapshot.metrics.histograms.is_empty() {
        out.push_str("histograms:\n");
        for (name, h) in &snapshot.metrics.histograms {
            out.push_str(&format!(
                "  {name}: count={} sum={} max={} mean={:.2} p50={:.1} p95={:.1} p99={:.1}\n",
                h.count,
                h.sum,
                h.max,
                h.mean(),
                h.p50(),
                h.p95(),
                h.p99()
            ));
            for (label, count) in h.nonzero_buckets() {
                out.push_str(&format!("    [{label}] {count}\n"));
            }
        }
    }
    if out.is_empty() {
        out.push_str("(empty snapshot)\n");
    }
    out
}

fn span_to_json(span: &SpanNode) -> Json {
    Json::obj([
        ("name", Json::str(&span.name)),
        ("elapsed_us", Json::num(span.elapsed.as_micros() as u64)),
        (
            "children",
            Json::Arr(span.children.iter().map(span_to_json).collect()),
        ),
    ])
}

fn histogram_to_json(h: &HistogramSnapshot) -> Json {
    Json::obj([
        ("count", Json::num(h.count)),
        ("sum", Json::num(h.sum)),
        ("max", Json::num(h.max)),
        ("p50", Json::Num(h.p50())),
        ("p95", Json::Num(h.p95())),
        ("p99", Json::Num(h.p99())),
        (
            "buckets",
            Json::Obj(
                h.nonzero_buckets()
                    .into_iter()
                    .map(|(label, count)| (label, Json::num(count)))
                    .collect(),
            ),
        ),
    ])
}

/// Converts a snapshot to its JSON document: an object with the required
/// keys `counters`, `histograms`, and `spans`.
pub fn snapshot_to_json(snapshot: &Snapshot) -> Json {
    Json::obj([
        ("counters", Json::counters(&snapshot.metrics.counters)),
        (
            "histograms",
            Json::Obj(
                snapshot
                    .metrics
                    .histograms
                    .iter()
                    .map(|(name, h)| (name.clone(), histogram_to_json(h)))
                    .collect(),
            ),
        ),
        (
            "spans",
            Json::Arr(snapshot.spans.iter().map(span_to_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use crate::recorder::Recorder;

    fn sample_snapshot() -> Snapshot {
        let rec = Recorder::with_tracing();
        {
            let _root = rec.span("pipeline");
            let _a = rec.span("parse");
            _a.end();
            let _b = rec.span("plan*");
        }
        rec.counter("source.calls").add(3);
        rec.histogram("source.rows_per_call").record(5);
        rec.snapshot()
    }

    #[test]
    fn text_renderer_shows_tree_and_metrics() {
        let text = render_text(&sample_snapshot());
        assert!(text.contains("pipeline ["), "{text}");
        assert!(text.contains("|-- parse ["), "{text}");
        assert!(text.contains("`-- plan* ["), "{text}");
        assert!(text.contains("source.calls"), "{text}");
        assert!(text.contains("[4-7] 1"), "{text}");
    }

    #[test]
    fn snapshot_json_is_a_parseable_document_with_required_keys() {
        let text = snapshot_to_json(&sample_snapshot()).to_pretty();
        let doc = json::parse(&text).unwrap();
        for key in ["counters", "histograms", "spans"] {
            assert!(doc.get(key).is_some(), "missing {key}");
        }
        assert_eq!(
            doc.get("counters").and_then(|c| c.get("source.calls")).and_then(Json::as_u64),
            Some(3)
        );
        let spans = doc.get("spans").and_then(Json::as_arr).unwrap();
        assert_eq!(spans[0].get("name").and_then(Json::as_str), Some("pipeline"));
        assert_eq!(
            spans[0].get("children").and_then(Json::as_arr).map(<[Json]>::len),
            Some(2)
        );
    }

    #[test]
    fn sinks_surface_percentile_estimates() {
        let rec = Recorder::new();
        let h = rec.histogram("latency_ms");
        for v in [1u64, 2, 4, 8, 100] {
            h.record(v);
        }
        let snap = rec.snapshot();
        let text = render_text(&snap);
        assert!(text.contains("p50="), "{text}");
        assert!(text.contains("p99="), "{text}");
        let doc = snapshot_to_json(&snap);
        let hist = doc.get("histograms").and_then(|h| h.get("latency_ms")).unwrap();
        for key in ["p50", "p95", "p99"] {
            assert!(hist.get(key).and_then(Json::as_f64).is_some(), "missing {key}");
        }
        assert!(hist.get("p99").and_then(Json::as_f64).unwrap() <= 100.0);
    }

    #[test]
    fn empty_snapshot_renders_placeholder() {
        assert_eq!(render_text(&Snapshot::default()), "(empty snapshot)\n");
    }
}
