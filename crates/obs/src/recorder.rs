//! The [`Recorder`] handle threaded through the pipeline.
//!
//! A recorder bundles a [`MetricsRegistry`] and an optional span store
//! behind one cheaply-cloneable handle. Three operating points:
//!
//! * [`Recorder::disabled`] — the hot-path default. No registry, no span
//!   store; instrument handles come back *detached* (they still count, so
//!   local views such as `CallStats` keep working, but nothing is
//!   exported) and [`Recorder::span`] is a no-op returning an inert guard.
//! * [`Recorder::new`] — metrics only. Counters and histograms register
//!   and export; spans are still no-ops.
//! * [`Recorder::with_tracing`] — metrics *and* spans.
//!
//! The cost model: a detached or registered counter increment is one
//! relaxed atomic add either way, so enabling metrics does not slow the
//! hot path — only the snapshot/export side changes. Span bookkeeping
//! (a mutex and an allocation per span) is only paid when tracing is on,
//! and spans mark *phases*, not per-tuple work.

use crate::journal::{Journal, JournalConfig};
use crate::metrics::{Counter, Histogram, MetricsRegistry, MetricsSnapshot};
use crate::span::{SpanGuard, SpanNode, SpanStore};
use std::sync::{Arc, Mutex, OnceLock};

#[derive(Debug, Default)]
struct RecorderInner {
    metrics: Option<MetricsRegistry>,
    spans: Option<Mutex<SpanStore>>,
    journal: Option<Journal>,
}

/// A handle to one observability session. Clone freely; clones share the
/// same registry and span store. All methods take `&self` and are
/// thread-safe.
#[derive(Clone, Debug)]
pub struct Recorder {
    inner: Arc<RecorderInner>,
}

impl Default for Recorder {
    fn default() -> Recorder {
        Recorder::disabled()
    }
}

impl Recorder {
    /// The no-op recorder: nothing registers, spans are inert. This is the
    /// default every component starts with; handles it hands out are
    /// detached but functional.
    pub fn disabled() -> Recorder {
        static DISABLED: OnceLock<Arc<RecorderInner>> = OnceLock::new();
        Recorder {
            inner: DISABLED
                .get_or_init(|| Arc::new(RecorderInner::default()))
                .clone(),
        }
    }

    /// A recorder that collects metrics but not spans.
    pub fn new() -> Recorder {
        Recorder::build(true, false, None)
    }

    /// A recorder that collects metrics *and* phase spans.
    pub fn with_tracing() -> Recorder {
        Recorder::build(true, true, None)
    }

    /// A recorder that collects metrics and a flight-recorder journal
    /// (see [`Journal`]); the journal mirrors evictions to the
    /// `journal.dropped` counter.
    pub fn with_journal(cfg: JournalConfig) -> Recorder {
        Recorder::build(true, false, Some(cfg))
    }

    /// Metrics, spans, *and* a journal.
    pub fn with_tracing_and_journal(cfg: JournalConfig) -> Recorder {
        Recorder::build(true, true, Some(cfg))
    }

    fn build(metrics: bool, tracing: bool, journal: Option<JournalConfig>) -> Recorder {
        let registry = if metrics {
            Some(MetricsRegistry::new())
        } else {
            None
        };
        let journal = journal.map(|cfg| {
            let dropped = match &registry {
                Some(reg) => reg.counter("journal.dropped"),
                None => Counter::detached(),
            };
            Journal::new(cfg, dropped)
        });
        Recorder {
            inner: Arc::new(RecorderInner {
                metrics: registry,
                spans: tracing.then(|| Mutex::new(SpanStore::default())),
                journal,
            }),
        }
    }

    /// True when this recorder exports metrics.
    pub fn metrics_enabled(&self) -> bool {
        self.inner.metrics.is_some()
    }

    /// True when this recorder collects spans.
    pub fn tracing_enabled(&self) -> bool {
        self.inner.spans.is_some()
    }

    /// True when this recorder carries a flight-recorder journal.
    pub fn journal_enabled(&self) -> bool {
        self.inner.journal.is_some()
    }

    /// The journal handle, when one is attached.
    pub fn journal(&self) -> Option<&Journal> {
        self.inner.journal.as_ref()
    }

    /// The counter named `name` — registered when metrics are enabled,
    /// detached otherwise. Ask once, increment through the handle.
    pub fn counter(&self, name: &str) -> Counter {
        match &self.inner.metrics {
            Some(reg) => reg.counter(name),
            None => Counter::detached(),
        }
    }

    /// The histogram named `name` — registered or detached like
    /// [`Recorder::counter`].
    pub fn histogram(&self, name: &str) -> Histogram {
        match &self.inner.metrics {
            Some(reg) => reg.histogram(name),
            None => Histogram::detached(),
        }
    }

    /// Opens a span named `name`, nested under the currently-open span.
    /// Inert (no lock, no allocation) when tracing is off.
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        match &self.inner.spans {
            Some(store) => {
                let id = store.lock().expect("span store not poisoned").open(name);
                SpanGuard {
                    store: Some(store),
                    id,
                }
            }
            None => SpanGuard { store: None, id: 0 },
        }
    }

    /// [`Recorder::span`] with a lazily-built name: the closure only runs
    /// when tracing is on, so formatted names cost nothing on the default
    /// path.
    pub fn span_lazy(&self, name: impl FnOnce() -> String) -> SpanGuard<'_> {
        if self.tracing_enabled() {
            self.span(&name())
        } else {
            SpanGuard { store: None, id: 0 }
        }
    }

    /// A frozen copy of everything recorded so far.
    pub fn snapshot(&self) -> Snapshot {
        Snapshot {
            spans: match &self.inner.spans {
                Some(store) => store.lock().expect("span store not poisoned").tree(),
                None => Vec::new(),
            },
            metrics: match &self.inner.metrics {
                Some(reg) => reg.snapshot(),
                None => MetricsSnapshot::default(),
            },
        }
    }
}

/// A frozen copy of one recorder: the span forest plus every instrument.
/// This is what sinks consume.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Snapshot {
    /// Root spans in start order (empty when tracing was off).
    pub spans: Vec<SpanNode>,
    /// Counters and histograms.
    pub metrics: MetricsSnapshot,
}

impl Snapshot {
    /// Depth-first search across all roots for a span named `name`.
    pub fn find_span(&self, name: &str) -> Option<&SpanNode> {
        self.spans.iter().find_map(|s| s.find(name))
    }

    /// The value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.metrics.counter(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_is_inert_and_shared() {
        let rec = Recorder::disabled();
        assert!(!rec.metrics_enabled());
        assert!(!rec.tracing_enabled());
        let c = rec.counter("x");
        c.add(5);
        assert_eq!(c.get(), 5, "detached counters still count locally");
        let snap = rec.snapshot();
        assert!(snap.metrics.counters.is_empty());
        assert!(snap.spans.is_empty());
        {
            let _g = rec.span("ignored");
        }
        assert!(rec.snapshot().spans.is_empty());
    }

    #[test]
    fn metrics_only_recorder_registers_counters() {
        let rec = Recorder::new();
        rec.counter("a.calls").add(2);
        rec.histogram("a.rows").record(8);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("a.calls"), 2);
        assert_eq!(snap.metrics.histograms["a.rows"].count, 1);
        assert!(snap.spans.is_empty(), "spans off by default");
    }

    #[test]
    fn tracing_recorder_collects_nested_spans() {
        let rec = Recorder::with_tracing();
        {
            let _root = rec.span("pipeline");
            {
                let _child = rec.span_lazy(|| format!("disjunct {}", 0));
            }
        }
        let snap = rec.snapshot();
        assert_eq!(snap.spans.len(), 1);
        assert_eq!(snap.spans[0].children[0].name, "disjunct 0");
        assert!(snap.find_span("disjunct 0").is_some());
    }

    #[test]
    fn span_lazy_skips_formatting_when_disabled() {
        let rec = Recorder::new();
        let _g = rec.span_lazy(|| unreachable!("must not format when tracing is off"));
    }

    #[test]
    fn journal_recorder_wires_the_dropped_counter() {
        let cfg = JournalConfig {
            capacity: 2,
            ..JournalConfig::light()
        };
        let rec = Recorder::with_journal(cfg);
        assert!(rec.journal_enabled());
        let j = rec.journal().expect("journal attached").clone();
        for i in 0..5 {
            let label = j.intern("x");
            j.record(0, i, |_| crate::journal::Event::BatchBegin { label, rows_in: 0 });
        }
        let snap = rec.snapshot();
        assert_eq!(snap.counter("journal.dropped"), 3);
        assert_eq!(j.snapshot().dropped, 3);
        assert!(!Recorder::new().journal_enabled());
    }

    #[test]
    fn clones_share_state() {
        let rec = Recorder::new();
        let clone = rec.clone();
        clone.counter("shared").incr();
        assert_eq!(rec.snapshot().counter("shared"), 1);
    }
}
