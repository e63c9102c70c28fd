//! In-memory spans around the calls into each layer, recorded from the
//! benchmark's side (nothing inside the program is touched), aggregated
//! into self times and written out as Chrome trace-events.

use lap::obs::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One timed call: `{name, start_ns, end_ns, parent, req}`.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (or one-shot run) the span belongs to.
    pub req: u64,
}

/// Records nested spans. A disabled tracer runs the same closures without
/// reading the clock, which is how the untraced replay is timed.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
    req: u64,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            req: 0,
        }
    }

    /// Spans recorded from here on belong to request `req`.
    pub fn begin_request(&mut self, req: u64) {
        self.req = req;
    }

    /// Runs `f` inside a span named `name`, nested under the open span.
    pub fn scope<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied(),
            req: self.req,
        });
        self.stack.push(id);
        let out = f(self);
        self.stack.pop();
        self.spans[id].end_ns = self.origin.elapsed().as_nanos() as u64;
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time per (request, span name), in nanoseconds: a span's duration
/// minus the part of it its direct children cover.
pub fn self_times_ns(spans: &[Span]) -> BTreeMap<(u64, &'static str), u64> {
    let mut child_ns = vec![0u64; spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            child_ns[parent] += span.end_ns - span.start_ns;
        }
    }
    let mut out = BTreeMap::new();
    for (span, covered) in spans.iter().zip(child_ns) {
        *out.entry((span.req, span.name)).or_insert(0) +=
            (span.end_ns - span.start_ns).saturating_sub(covered);
    }
    out
}

/// The spans as a Chrome trace-event document (complete events, `ph: "X"`,
/// microsecond timestamps), loadable in Perfetto or `chrome://tracing`.
pub fn chrome_trace(spans: &[Span]) -> Json {
    let events = spans
        .iter()
        .map(|s| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("cat", Json::str(s.name.split('.').next().unwrap_or(s.name))),
                ("ph", Json::str("X")),
                ("ts", Json::Num(s.start_ns as f64 / 1e3)),
                ("dur", Json::Num((s.end_ns - s.start_ns) as f64 / 1e3)),
                ("pid", Json::num(1)),
                ("tid", Json::num(1)),
                ("args", Json::obj([("req", Json::num(s.req))])),
            ])
        })
        .collect();
    Json::obj([
        ("traceEvents", Json::Arr(events)),
        ("displayTimeUnit", Json::str("ms")),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let spans = [
            span("request", 0, 100, None),
            span("compile", 10, 70, Some(0)),
            span("parse", 20, 30, Some(1)),
            span("render", 80, 90, Some(0)),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[&(0, "request")], 100 - 60 - 10);
        assert_eq!(own[&(0, "compile")], 60 - 10);
        assert_eq!(own[&(0, "parse")], 10);
        assert_eq!(own[&(0, "render")], 10);
    }

    #[test]
    fn tracer_nests_and_tags_requests() {
        let mut t = Tracer::new(true);
        t.begin_request(7);
        let v = t.scope("outer", |t| t.scope("inner", |_| 42));
        assert_eq!(v, 42);
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!(
            (spans[1].name, spans[1].parent, spans[1].req),
            ("inner", Some(0), 7)
        );
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        assert_eq!(t.scope("a", |t| t.scope("b", |_| 1)), 1);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn chrome_trace_is_valid_json_with_one_event_per_span() {
        let doc = chrome_trace(&[span("proto.req_decode", 1_000, 3_500, None)]);
        let back = lap::obs::json::parse(&doc.to_compact()).expect("round-trips");
        let events = back
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("array");
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].get("dur").and_then(Json::as_f64), Some(2.5));
        assert_eq!(events[0].get("cat").and_then(Json::as_str), Some("proto"));
    }
}
