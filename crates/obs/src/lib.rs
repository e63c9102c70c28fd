//! `lap-obs`: unified tracing + metrics for the plan/answer pipeline.
//!
//! The crate has no dependencies (workspace policy, DESIGN.md §3) and three
//! layers:
//!
//! * **Instruments** ([`Counter`], [`Histogram`], [`MetricsRegistry`]) —
//!   named counters and log₂-bucket histograms, handed out once as cheap
//!   handles and bumped with relaxed atomics on the hot path.
//! * **Spans** ([`SpanNode`], [`SpanGuard`]) — phase timing with
//!   parent/child nesting covering parse → ANSWERABLE → PLAN\* → FEASIBLE →
//!   ANSWER\* → mediator unfolding, rendered as an `EXPLAIN ANALYZE`-style
//!   tree.
//! * **Exporters** ([`render_text`], [`snapshot_to_json`]) over a frozen
//!   [`Snapshot`], including a hand-rolled [`json`] writer/parser.
//! * **Flight recorder** ([`Journal`], [`JournalSnapshot`]) — a bounded
//!   ring buffer of structured, virtual-clock-stamped events with strictly
//!   monotone sequence numbers, exportable as a [`chrome`] trace for
//!   Perfetto, replayable through the engine's `ReplaySource`, and
//!   summarisable via [`render_report`].
//!
//! Components receive a [`Recorder`] handle. The default,
//! [`Recorder::disabled`], hands out *detached* instruments — they still
//! count locally (so views like `CallStats` keep working) but register
//! nowhere and spans are inert, so the no-op configuration adds no
//! observable overhead.
//!
//! ```
//! use lap_obs::{Recorder, render_text};
//!
//! let rec = Recorder::with_tracing();
//! {
//!     let _pipeline = rec.span("pipeline");
//!     let _plan = rec.span("plan*");
//!     rec.counter("source.calls").incr();
//! }
//! let snapshot = rec.snapshot();
//! assert_eq!(snapshot.counter("source.calls"), 1);
//! assert!(render_text(&snapshot).contains("plan*"));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chrome;
pub mod feedback;
pub mod journal;
pub mod json;
pub mod metrics;
pub mod recorder;
pub mod report;
pub mod sink;
pub mod span;

pub use chrome::{chrome_trace, validate_chrome_trace};
pub use feedback::{
    DriftFlag, Expectation, FeedbackStore, FoldCursor, SourceProfile, DRIFT_FACTOR, HEALTH_ALPHA,
};
pub use journal::{
    Degraded, Event, Journal, JournalCheck, JournalConfig, JournalEvent, JournalSnapshot, Name,
    Names, Recalibration, Stamped, WireOutcome,
};
pub use json::{Json, JsonError};
pub use metrics::{
    bucket_bound, bucket_index, Counter, Histogram, HistogramSnapshot, MetricsRegistry,
    MetricsSnapshot, HISTOGRAM_BUCKETS,
};
pub use recorder::{Recorder, Snapshot};
pub use report::render_report;
pub use sink::{render_text, snapshot_to_json};
pub use span::{SpanGuard, SpanNode};
