//! The query flight recorder: a bounded ring buffer of typed events.
//!
//! A [`Journal`] records what an execution *did* — every source call (begin
//! and end, with pattern, bound inputs, row count, and virtual latency),
//! membership probe, cache hit, retry attempt, injected fault, timeout,
//! disjunct-degraded decision, and per-operator batch open/close — as
//! [`Event`]s stamped with a strictly monotone sequence number and the
//! emitter's virtual clock. Aggregate counters say *how much*
//! happened; the journal says *what happened, in order*, which is the only
//! trustworthy account of a degraded run.
//!
//! Three invariants hold by construction and are re-checked by
//! [`JournalSnapshot::validate`]:
//!
//! 1. sequence numbers are strictly monotone across all lanes (one global
//!    counter behind the buffer mutex);
//! 2. `recorded + dropped == emitted` — the ring never loses an event
//!    silently (evictions bump `dropped`, mirrored to the
//!    `journal.dropped` counter);
//! 3. within one lane, `*.begin` / `*.end` events nest like balanced
//!    parentheses (ends may only be unmatched when the matching begin was
//!    evicted, i.e. when `dropped > 0`).
//!
//! There is one event type, [`Event`], with one variant per [`kind`], and
//! one codec: [`Event::encode`] writes an event's `(kind, data)` file form
//! and [`Event::decode`] reads it back, and nothing else spells a field
//! name. Every producer records a variant ([`Journal::record`], and
//! [`Journal::record_call`] for a wire attempt's begin/end pair, which
//! shares one ring slot so eviction keeps both halves or neither). Names
//! (relations, patterns, operator labels) are interned [`Name`] ids and
//! the rare heavy payloads (captured inputs and rows, a recalibration's
//! costs) are boxed, so a slot is a plain struct and recording allocates
//! nothing. The file form is built only by [`Journal::snapshot`]; the
//! telemetry fold ([`FeedbackStore::fold_journal`](crate::FeedbackStore::fold_journal))
//! reads the typed slots in place, so the [`JournalConfig::light`] profile
//! (no row capture) is cheap enough for always-on use.
//! [`JournalConfig::replay`] captures bound inputs and row data so a
//! [`JournalSnapshot`] can drive a bit-for-bit replay. A `sample_every`
//! knob thins *source-call* recording pairwise (begin and end share one
//! decision, so balance survives sampling).

use crate::json::Json;
use crate::metrics::Counter;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::Range;
use std::sync::{Arc, Mutex};

/// Event kinds emitted by the engine: the file form's names, one per
/// [`Event`] variant.
pub mod kind {
    /// A wire attempt on a source starts (one per retry attempt).
    pub const SOURCE_CALL_BEGIN: &str = "source.call.begin";
    /// A wire attempt on a source finished (ok or faulted).
    pub const SOURCE_CALL_END: &str = "source.call.end";
    /// A membership probe resolved (most-selective pattern).
    pub const MEMBERSHIP: &str = "source.membership";
    /// A call was answered from the per-registry cache (no wire attempt).
    pub const CACHE_HIT: &str = "source.cache.hit";
    /// A retry attempt is about to run (attempt ≥ 2).
    pub const RETRY: &str = "source.retry";
    /// An injected fault: the source was unavailable for this attempt.
    pub const FAULT: &str = "source.fault";
    /// An injected timeout: the attempt exceeded its latency budget.
    pub const TIMEOUT: &str = "source.timeout";
    /// A disjunct was dropped from a degraded union evaluation.
    pub const DISJUNCT_DEGRADED: &str = "disjunct.degraded";
    /// A physical operator starts processing one batch.
    pub const BATCH_BEGIN: &str = "exec.batch.begin";
    /// A physical operator finished one batch.
    pub const BATCH_END: &str = "exec.batch.end";
    /// The mediator unfolded a query over view definitions.
    pub const MEDIATOR_UNFOLD: &str = "mediator.unfold";
    /// The mediator pruned unanswerable disjuncts.
    pub const MEDIATOR_PRUNE: &str = "mediator.prune";
    /// The daemon's telemetry watcher recalibrated a published plan-cache
    /// entry. Carries the cache key, the triggering relations, and the
    /// before/after estimated-vs-calibrated root costs.
    pub const DAEMON_RECALIBRATE: &str = "daemon.recalibrate";
}

/// Configuration for one [`Journal`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct JournalConfig {
    /// Maximum number of retained events; older events are evicted (and
    /// counted in `dropped`) once the ring is full.
    pub capacity: usize,
    /// Record every `sample_every`-th source call (1 = record all). The
    /// decision is made once per call, so begin/end stay paired. Only
    /// source calls are thinned; structural events always record.
    pub sample_every: u64,
    /// Capture bound inputs and returned rows on source-call events. This
    /// is what makes a journal replayable; leave off for always-on use.
    pub capture_rows: bool,
}

impl JournalConfig {
    /// The always-on profile: bounded, unsampled, no row capture.
    pub fn light() -> JournalConfig {
        JournalConfig {
            capacity: 65_536,
            sample_every: 1,
            capture_rows: false,
        }
    }

    /// The replay profile: large ring, no sampling, full row capture.
    pub fn replay() -> JournalConfig {
        JournalConfig {
            capacity: 1 << 20,
            sample_every: 1,
            capture_rows: true,
        }
    }
}

impl Default for JournalConfig {
    fn default() -> JournalConfig {
        JournalConfig::light()
    }
}

/// One recorded event in its file form: what [`Journal::snapshot`] and
/// [`JournalSnapshot::to_json`] write. [`Event::decode`] reads its typed
/// form back.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalEvent {
    /// Strictly monotone sequence number (global across lanes).
    pub seq: u64,
    /// The emitter's virtual clock, in milliseconds.
    pub ts_ms: u64,
    /// The emitting lane (0 = main; overlapped source calls use one
    /// sub-lane per I/O worker). Begin/end balance is per lane.
    pub lane: u64,
    /// Event kind (see [`kind`]).
    pub kind: String,
    /// Structured payload.
    pub data: Json,
}

impl JournalEvent {
    fn to_json(&self) -> Json {
        Json::obj([
            ("seq", Json::num(self.seq)),
            ("ts_ms", Json::num(self.ts_ms)),
            ("lane", Json::num(self.lane)),
            ("kind", Json::str(&self.kind)),
            ("data", self.data.clone()),
        ])
    }

    fn from_json(doc: &Json) -> Result<JournalEvent, String> {
        let field = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("journal event missing numeric {key:?}"))
        };
        Ok(JournalEvent {
            seq: field("seq")?,
            ts_ms: field("ts_ms")?,
            lane: field("lane")?,
            kind: doc
                .get("kind")
                .and_then(Json::as_str)
                .ok_or("journal event missing string \"kind\"")?
                .to_owned(),
            data: doc.get("data").cloned().unwrap_or(Json::Null),
        })
    }
}

/// Outcome of one wire attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireOutcome {
    /// The attempt returned `rows` tuples after `latency_ms` virtual ms.
    Ok {
        /// Tuples returned by the source.
        rows: u64,
        /// Virtual latency charged to the clock.
        latency_ms: u64,
    },
    /// The attempt failed with an unavailability fault.
    Unavailable {
        /// Virtual latency burned before the fault surfaced.
        latency_ms: u64,
    },
    /// The attempt exceeded its timeout budget.
    Timeout {
        /// Raw latency the transport would have taken.
        latency_ms: u64,
        /// The budget that was exceeded (this is what the clock charges).
        timeout_ms: u64,
    },
}

/// An interned name — a relation, an access-pattern word or an operator
/// label — as an index into the [`Names`] table it came from.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct Name(u32);

/// De-duplicating string table behind [`Name`]s, so an event carries
/// 4-byte ids instead of heap strings.
#[derive(Debug, Default)]
pub struct Names {
    table: Vec<String>,
    index: HashMap<String, u32>,
}

impl Names {
    /// The id of `s`, interning it on first sight. Idempotent.
    pub fn intern(&mut self, s: &str) -> Name {
        if let Some(&id) = self.index.get(s) {
            return Name(id);
        }
        let id = self.table.len() as u32;
        self.table.push(s.to_owned());
        self.index.insert(s.to_owned(), id);
        Name(id)
    }

    /// The string behind `name`; `"?"` for an id this table never issued.
    pub fn get(&self, name: Name) -> &str {
        self.table.get(name.0 as usize).map_or("?", String::as_str)
    }
}

/// One journal event, typed: one variant per [`kind`]. Names index the
/// [`Names`] table of the journal (or decoded snapshot) the event belongs
/// to.
#[derive(Clone, Debug, PartialEq)]
pub enum Event {
    /// [`kind::SOURCE_CALL_BEGIN`]: a wire attempt starts.
    CallBegin {
        /// The relation called.
        relation: Name,
        /// The access pattern's `i`/`o` word.
        pattern: Name,
        /// The attempt (1 = first).
        attempt: u64,
        /// The bound inputs, one JSON value per pattern slot (replay tier).
        inputs: Option<Box<Json>>,
    },
    /// [`kind::SOURCE_CALL_END`]: a wire attempt finished.
    CallEnd {
        /// The relation called.
        relation: Name,
        /// The attempt (1 = first).
        attempt: u64,
        /// What the transport answered.
        outcome: WireOutcome,
        /// The rows returned, one JSON array per row (replay tier).
        rows_data: Option<Box<Json>>,
    },
    /// [`kind::MEMBERSHIP`]: a wire membership probe resolved.
    Membership {
        /// The relation probed.
        relation: Name,
        /// Whether the probed tuple was present.
        present: bool,
    },
    /// [`kind::CACHE_HIT`]: a call answered from the call cache.
    CacheHit {
        /// The relation called.
        relation: Name,
        /// Rows in the cached reply.
        rows: u64,
        /// True when the hit answered a membership probe.
        membership: bool,
    },
    /// [`kind::RETRY`]: a retry attempt is about to run.
    Retry {
        /// The relation called.
        relation: Name,
        /// The attempt about to run (≥ 2).
        attempt: u64,
        /// Backoff wait charged to the virtual clock before this attempt
        /// (0 when the policy waited nothing).
        backoff_ms: u64,
    },
    /// [`kind::FAULT`]: an attempt failed as unavailable.
    Fault {
        /// The relation called.
        relation: Name,
        /// Virtual latency burned before the fault surfaced.
        latency_ms: u64,
        /// The failed attempt.
        attempt: u64,
    },
    /// [`kind::TIMEOUT`]: an attempt exceeded its budget.
    Timeout {
        /// The relation called.
        relation: Name,
        /// Raw latency the transport would have taken.
        latency_ms: u64,
        /// The failed attempt.
        attempt: u64,
    },
    /// [`kind::DISJUNCT_DEGRADED`]: a disjunct was dropped.
    Degraded(Box<Degraded>),
    /// [`kind::BATCH_BEGIN`]: an operator starts one batch.
    BatchBegin {
        /// The operator's label.
        label: Name,
        /// Live rows in the batch.
        rows_in: u64,
    },
    /// [`kind::BATCH_END`]: an operator finished one batch.
    BatchEnd {
        /// The operator's label.
        label: Name,
        /// Live rows the batch produced.
        rows_out: u64,
        /// False when the batch failed.
        ok: bool,
    },
    /// [`kind::MEDIATOR_UNFOLD`]: the mediator unfolded a query.
    Unfold {
        /// Disjuncts before the phase.
        disjuncts_in: u64,
        /// Disjuncts after it.
        disjuncts_out: u64,
    },
    /// [`kind::MEDIATOR_PRUNE`]: the mediator pruned disjuncts.
    Prune {
        /// Disjuncts before the phase.
        disjuncts_in: u64,
        /// Disjuncts after it.
        disjuncts_out: u64,
    },
    /// [`kind::DAEMON_RECALIBRATE`]: the daemon recalibrated a plan.
    Recalibrate(Box<Recalibration>),
}

/// The payload of [`Event::Degraded`].
#[derive(Clone, Debug, PartialEq)]
pub struct Degraded {
    /// The disjunct's position in its union.
    pub index: u64,
    /// The disjunct's head.
    pub head: String,
    /// The relation whose source stayed unavailable.
    pub relation: String,
    /// Attempts spent on it.
    pub attempts: u64,
    /// The last fault.
    pub reason: String,
}

/// The payload of [`Event::Recalibrate`].
#[derive(Clone, Debug, PartialEq)]
pub struct Recalibration {
    /// The plan-cache key.
    pub key: String,
    /// True when a `recalibrate` frame forced the sweep.
    pub forced: bool,
    /// The relations the plan touches.
    pub relations: Vec<String>,
    /// Root costs before.
    pub before: Json,
    /// Root costs after.
    pub after: Json,
}

impl Event {
    /// The event's kind (see [`kind`]).
    pub(crate) fn kind(&self) -> &'static str {
        match self {
            Event::CallBegin { .. } => kind::SOURCE_CALL_BEGIN,
            Event::CallEnd { .. } => kind::SOURCE_CALL_END,
            Event::Membership { .. } => kind::MEMBERSHIP,
            Event::CacheHit { .. } => kind::CACHE_HIT,
            Event::Retry { .. } => kind::RETRY,
            Event::Fault { .. } => kind::FAULT,
            Event::Timeout { .. } => kind::TIMEOUT,
            Event::Degraded(_) => kind::DISJUNCT_DEGRADED,
            Event::BatchBegin { .. } => kind::BATCH_BEGIN,
            Event::BatchEnd { .. } => kind::BATCH_END,
            Event::Unfold { .. } => kind::MEDIATOR_UNFOLD,
            Event::Prune { .. } => kind::MEDIATOR_PRUNE,
            Event::Recalibrate(_) => kind::DAEMON_RECALIBRATE,
        }
    }

    /// For an event that opens or closes an interval: the interval's name
    /// (its kind without `.begin`/`.end`) and whether this event opens it.
    pub(crate) fn interval(&self) -> Option<(&'static str, bool)> {
        match self {
            Event::CallBegin { .. } => Some(("source.call", true)),
            Event::CallEnd { .. } => Some(("source.call", false)),
            Event::BatchBegin { .. } => Some(("exec.batch", true)),
            Event::BatchEnd { .. } => Some(("exec.batch", false)),
            _ => None,
        }
    }

    /// The name a trace viewer shows for the event: a call's
    /// `relation^pattern` or an operator's label, else its interval or
    /// kind.
    pub(crate) fn display_name(&self, names: &Names) -> String {
        match self {
            Event::CallBegin { relation, pattern, .. } => {
                format!("{}^{}", names.get(*relation), names.get(*pattern))
            }
            Event::BatchBegin { label, .. } | Event::BatchEnd { label, .. } => {
                names.get(*label).to_owned()
            }
            _ => self.interval().map_or(self.kind(), |(name, _)| name).to_owned(),
        }
    }

    /// The file form of the event: its kind and its `data` object. The
    /// inverse of [`Event::decode`], and with it the only code that spells
    /// a field name.
    pub fn encode(self, names: &Names) -> (&'static str, Json) {
        let kind = self.kind();
        let mut data = Vec::with_capacity(6);
        let mut put = |key: &str, value: Json| data.push((key.to_owned(), value));
        let name = |n: Name| Json::str(names.get(n));
        match self {
            Event::CallBegin { relation, pattern, attempt, inputs } => {
                let (relation, pattern) = (names.get(relation), names.get(pattern));
                put("label", Json::Str(format!("{relation}^{pattern}")));
                put("relation", Json::str(relation));
                put("pattern", Json::str(pattern));
                put("attempt", Json::num(attempt));
                if let Some(inputs) = inputs {
                    put("inputs", *inputs);
                }
            }
            Event::CallEnd { relation, attempt, outcome, rows_data } => {
                put("relation", name(relation));
                put("ok", Json::Bool(matches!(outcome, WireOutcome::Ok { .. })));
                let latency_ms = match outcome {
                    WireOutcome::Ok { rows, latency_ms } => {
                        put("rows", Json::num(rows));
                        latency_ms
                    }
                    WireOutcome::Unavailable { latency_ms } => {
                        put("fault", Json::str("unavailable"));
                        latency_ms
                    }
                    WireOutcome::Timeout { latency_ms, .. } => {
                        put("fault", Json::str("timeout"));
                        latency_ms
                    }
                };
                put("latency_ms", Json::num(latency_ms));
                put("attempt", Json::num(attempt));
                if let WireOutcome::Timeout { timeout_ms, .. } = outcome {
                    put("timeout_ms", Json::num(timeout_ms));
                }
                if let Some(rows) = rows_data {
                    put("rows_data", *rows);
                }
            }
            Event::Membership { relation, present } => {
                put("relation", name(relation));
                put("present", Json::Bool(present));
            }
            Event::CacheHit { relation, rows, membership } => {
                put("relation", name(relation));
                put("rows", Json::num(rows));
                if membership {
                    put("membership", Json::Bool(true));
                }
            }
            Event::Retry { relation, attempt, backoff_ms } => {
                put("relation", name(relation));
                put("attempt", Json::num(attempt));
                if backoff_ms != 0 {
                    put("backoff_ms", Json::num(backoff_ms));
                }
            }
            Event::Fault { relation, latency_ms, attempt }
            | Event::Timeout { relation, latency_ms, attempt } => {
                put("relation", name(relation));
                put("latency_ms", Json::num(latency_ms));
                put("attempt", Json::num(attempt));
            }
            Event::Degraded(d) => {
                put("index", Json::num(d.index));
                put("head", Json::Str(d.head));
                put("relation", Json::Str(d.relation));
                put("attempts", Json::num(d.attempts));
                put("reason", Json::Str(d.reason));
            }
            Event::BatchBegin { label, rows_in } => {
                put("label", name(label));
                put("rows_in", Json::num(rows_in));
            }
            Event::BatchEnd { label, rows_out, ok } => {
                put("label", name(label));
                put("rows_out", Json::num(rows_out));
                put("ok", Json::Bool(ok));
            }
            Event::Unfold { disjuncts_in, disjuncts_out }
            | Event::Prune { disjuncts_in, disjuncts_out } => {
                put("disjuncts_in", Json::num(disjuncts_in));
                put("disjuncts_out", Json::num(disjuncts_out));
            }
            Event::Recalibrate(r) => {
                put("key", Json::Str(r.key));
                put("forced", Json::Bool(r.forced));
                put("relations", Json::Arr(r.relations.into_iter().map(Json::Str).collect()));
                put("before", r.before);
                put("after", r.after);
            }
        }
        (kind, Json::Obj(data))
    }

    /// Reads an event back from its file form, interning its names into
    /// `names`. Fails on an unknown kind and on a field that is missing or
    /// of the wrong type, naming the event's `seq`, its kind and the
    /// field. Optional fields (a cache hit's `membership`, a retry's
    /// `backoff_ms`, captured `inputs` and `rows_data`) read as absent.
    pub fn decode(event: &JournalEvent, names: &mut Names) -> Result<Event, String> {
        let f = Fields(event);
        Ok(match event.kind.as_str() {
            kind::SOURCE_CALL_BEGIN => Event::CallBegin {
                relation: names.intern(f.str("relation")?),
                pattern: names.intern(f.str("pattern")?),
                attempt: f.u64("attempt")?,
                inputs: f.captured("inputs")?,
            },
            kind::SOURCE_CALL_END => {
                let relation = names.intern(f.str("relation")?);
                let latency_ms = f.u64("latency_ms")?;
                let outcome = if f.bool("ok")? {
                    WireOutcome::Ok { rows: f.u64("rows")?, latency_ms }
                } else {
                    match f.str("fault")? {
                        "unavailable" => WireOutcome::Unavailable { latency_ms },
                        "timeout" => {
                            WireOutcome::Timeout { latency_ms, timeout_ms: f.u64("timeout_ms")? }
                        }
                        _ => return Err(f.bad("fault", "\"unavailable\" or \"timeout\"")),
                    }
                };
                Event::CallEnd {
                    relation,
                    attempt: f.u64("attempt")?,
                    outcome,
                    rows_data: f.captured("rows_data")?,
                }
            }
            kind::MEMBERSHIP => Event::Membership {
                relation: names.intern(f.str("relation")?),
                present: f.bool("present")?,
            },
            kind::CACHE_HIT => Event::CacheHit {
                relation: names.intern(f.str("relation")?),
                rows: f.u64("rows")?,
                membership: f.optional("membership", Json::as_bool, "a boolean")?.unwrap_or(false),
            },
            kind::RETRY => Event::Retry {
                relation: names.intern(f.str("relation")?),
                attempt: f.u64("attempt")?,
                backoff_ms: f.optional("backoff_ms", Json::as_u64, "a number")?.unwrap_or(0),
            },
            kind::FAULT => Event::Fault {
                relation: names.intern(f.str("relation")?),
                latency_ms: f.u64("latency_ms")?,
                attempt: f.u64("attempt")?,
            },
            kind::TIMEOUT => Event::Timeout {
                relation: names.intern(f.str("relation")?),
                latency_ms: f.u64("latency_ms")?,
                attempt: f.u64("attempt")?,
            },
            kind::DISJUNCT_DEGRADED => Event::Degraded(Box::new(Degraded {
                index: f.u64("index")?,
                head: f.str("head")?.to_owned(),
                relation: f.str("relation")?.to_owned(),
                attempts: f.u64("attempts")?,
                reason: f.str("reason")?.to_owned(),
            })),
            kind::BATCH_BEGIN => Event::BatchBegin {
                label: names.intern(f.str("label")?),
                rows_in: f.u64("rows_in")?,
            },
            kind::BATCH_END => Event::BatchEnd {
                label: names.intern(f.str("label")?),
                rows_out: f.u64("rows_out")?,
                ok: f.bool("ok")?,
            },
            kind::MEDIATOR_UNFOLD => Event::Unfold {
                disjuncts_in: f.u64("disjuncts_in")?,
                disjuncts_out: f.u64("disjuncts_out")?,
            },
            kind::MEDIATOR_PRUNE => Event::Prune {
                disjuncts_in: f.u64("disjuncts_in")?,
                disjuncts_out: f.u64("disjuncts_out")?,
            },
            kind::DAEMON_RECALIBRATE => {
                let relations = f.get("relations", Json::as_arr, "an array")?;
                let relations = relations.iter().map(|r| r.as_str().map(str::to_owned));
                Event::Recalibrate(Box::new(Recalibration {
                    key: f.str("key")?.to_owned(),
                    forced: f.bool("forced")?,
                    relations: relations
                        .collect::<Option<_>>()
                        .ok_or_else(|| f.bad("relations", "an array of strings"))?,
                    before: f.get("before", Some, "present")?.clone(),
                    after: f.get("after", Some, "present")?.clone(),
                }))
            }
            other => return Err(format!("journal event seq {}: unknown kind {other:?}", event.seq)),
        })
    }
}

/// The `data` fields of one event in its file form, read for
/// [`Event::decode`].
struct Fields<'a>(&'a JournalEvent);

impl<'a> Fields<'a> {
    fn bad(&self, key: &str, expected: &str) -> String {
        let JournalEvent { seq, kind, .. } = self.0;
        format!("journal event seq {seq} ({kind}): field {key:?} is missing or not {expected}")
    }

    /// The field `key` through `read`, or `None` when it is absent.
    fn optional<T>(
        &self,
        key: &str,
        read: impl Fn(&'a Json) -> Option<T>,
        expected: &str,
    ) -> Result<Option<T>, String> {
        let value = self.0.data.get(key);
        value.map(|value| read(value).ok_or_else(|| self.bad(key, expected))).transpose()
    }

    fn get<T>(
        &self,
        key: &str,
        read: impl Fn(&'a Json) -> Option<T>,
        expected: &str,
    ) -> Result<T, String> {
        self.optional(key, read, expected)?.ok_or_else(|| self.bad(key, expected))
    }

    fn str(&self, key: &str) -> Result<&'a str, String> {
        self.get(key, Json::as_str, "a string")
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        self.get(key, Json::as_u64, "a number")
    }

    fn bool(&self, key: &str) -> Result<bool, String> {
        self.get(key, Json::as_bool, "a boolean")
    }

    /// A captured payload (an array), boxed as the event keeps it.
    fn captured(&self, key: &str) -> Result<Option<Box<Json>>, String> {
        let array = |value: &'a Json| value.as_arr().map(|_| Box::new(value.clone()));
        self.optional(key, array, "an array")
    }
}

/// An event with its ring coordinates: sequence number, virtual
/// timestamp and lane.
#[derive(Clone, Debug, PartialEq)]
pub struct Stamped {
    /// Strictly monotone sequence number (global across lanes).
    pub seq: u64,
    /// The emitter's virtual clock, in milliseconds.
    pub ts_ms: u64,
    /// The emitting lane.
    pub lane: u64,
    /// The event.
    pub event: Event,
}

/// A wire attempt's captured inputs and rows, as one ring slot keeps them.
type Captured = (Option<Box<Json>>, Option<Box<Json>>);

/// What one ring slot holds: one event, or a wire attempt's begin/end pair
/// (the begin at the slot's `seq`/`ts_ms`, the end at `seq + 1`/`end_ts`),
/// which eviction keeps both halves of or neither.
#[derive(Debug)]
enum Body {
    One(Event),
    Call {
        end_ts: u64,
        relation: Name,
        pattern: Name,
        attempt: u64,
        outcome: WireOutcome,
        captured: Option<Box<Captured>>,
    },
}

/// One ring slot.
#[derive(Debug)]
struct Slot {
    seq: u64,
    lane: u64,
    ts_ms: u64,
    body: Body,
}

impl Slot {
    /// Logical events this slot accounts for (a call pair counts as 2).
    fn events(&self) -> u64 {
        match self.body {
            Body::One(_) => 1,
            Body::Call { .. } => 2,
        }
    }

    /// The sequence number of the slot's last event.
    fn last_seq(&self) -> u64 {
        self.seq + self.events() - 1
    }

    /// The slot's events, in sequence order.
    fn stamped(&self) -> impl Iterator<Item = Stamped> {
        let Slot { seq, lane, ts_ms, ref body } = *self;
        let (first, second) = match body {
            Body::One(event) => (event.clone(), None),
            &Body::Call { end_ts, relation, pattern, attempt, outcome, ref captured } => {
                let (inputs, rows_data) = captured.as_deref().cloned().unwrap_or_default();
                let begin = Event::CallBegin { relation, pattern, attempt, inputs };
                let end = Event::CallEnd { relation, attempt, outcome, rows_data };
                (begin, Some(Stamped { seq: seq + 1, ts_ms: end_ts, lane, event: end }))
            }
        };
        std::iter::once(Stamped { seq, ts_ms, lane, event: first }).chain(second)
    }
}

#[derive(Debug, Default)]
struct JournalState {
    slots: VecDeque<Slot>,
    /// Logical events currently retained (call pairs count as 2); kept
    /// incrementally so eviction never scans the ring.
    len_events: u64,
    next_seq: u64,
    dropped: u64,
    sample_tick: u64,
    meta: Option<Json>,
    names: Names,
}

impl JournalState {
    /// Pushes one slot at the next sequence number(s), then trims the ring
    /// back under `capacity` (counting logical events), charging
    /// evictions to `dropped`. Returns the slot's first sequence number.
    #[inline]
    fn push(&mut self, lane: u64, ts_ms: u64, body: Body, shared: &JournalShared) -> u64 {
        let slot = Slot { seq: self.next_seq, lane, ts_ms, body };
        let events = slot.events();
        self.next_seq += events;
        self.len_events += events;
        self.slots.push_back(slot);
        while self.len_events > shared.cfg.capacity as u64 {
            let evicted = self
                .slots
                .pop_front()
                .expect("len_events > 0 implies a retained slot")
                .events();
            self.len_events -= evicted;
            self.dropped += evicted;
            shared.dropped_counter.add(evicted);
        }
        self.next_seq - events
    }
}

#[derive(Debug)]
struct JournalShared {
    cfg: JournalConfig,
    state: Mutex<JournalState>,
    dropped_counter: Counter,
}

/// The flight recorder. Clone freely — clones share one ring buffer; all
/// methods take `&self` and are thread-safe.
#[derive(Clone, Debug)]
pub struct Journal {
    inner: Arc<JournalShared>,
}

impl Journal {
    /// A journal with `cfg`, mirroring evictions to `dropped_counter`
    /// (the `journal.dropped` counter when built through a recorder).
    pub fn new(cfg: JournalConfig, dropped_counter: Counter) -> Journal {
        Journal {
            inner: Arc::new(JournalShared {
                cfg: JournalConfig {
                    capacity: cfg.capacity.max(1),
                    sample_every: cfg.sample_every.max(1),
                    ..cfg
                },
                state: Mutex::new(JournalState::default()),
                dropped_counter,
            }),
        }
    }

    /// This journal's configuration.
    pub fn config(&self) -> JournalConfig {
        self.inner.cfg
    }

    /// True when source-call events should carry inputs and row data.
    pub fn capture_rows(&self) -> bool {
        self.inner.cfg.capture_rows
    }

    /// One sampling decision per source call: true when this call should
    /// be journaled. Begin and end of the same call must share one
    /// decision so pairs stay balanced.
    #[inline]
    pub fn should_sample_call(&self) -> bool {
        let every = self.inner.cfg.sample_every;
        if every <= 1 {
            return true;
        }
        let mut state = self.lock();
        let tick = state.sample_tick;
        state.sample_tick += 1;
        tick.is_multiple_of(every)
    }

    /// Records one event on `lane` at virtual time `ts_ms`; returns its
    /// sequence number. `event` builds it under the journal lock, from the
    /// journal's name table, so naming and recording take one lock. Evicts
    /// the oldest events (bumping `dropped`) when the ring is at capacity.
    #[inline]
    pub fn record(&self, lane: u64, ts_ms: u64, event: impl FnOnce(&mut Names) -> Event) -> u64 {
        let mut state = self.lock();
        let event = event(&mut state.names);
        state.push(lane, ts_ms, Body::One(event), &self.inner)
    }

    /// Records one wire attempt: its [`Event::CallBegin`] at `ts.start`
    /// and its [`Event::CallEnd`] at `ts.end`, on two consecutive sequence
    /// numbers (the begin's is returned), as **one** ring slot. Concurrent
    /// lanes can never interleave an event inside the pair, and eviction
    /// keeps both halves or neither. The pair shares the begin's relation
    /// and attempt.
    ///
    /// # Panics
    ///
    /// When `call` does not build a `CallBegin` and a `CallEnd`.
    #[inline]
    pub fn record_call(
        &self,
        lane: u64,
        ts: Range<u64>,
        call: impl FnOnce(&mut Names) -> (Event, Event),
    ) -> u64 {
        let mut state = self.lock();
        let (begin, end) = call(&mut state.names);
        let (
            Event::CallBegin { relation, pattern, attempt, inputs },
            Event::CallEnd { outcome, rows_data, .. },
        ) = (begin, end)
        else {
            panic!("Journal::record_call records a CallBegin and its CallEnd");
        };
        let captured =
            (inputs.is_some() || rows_data.is_some()).then(|| Box::new((inputs, rows_data)));
        let body = Body::Call { end_ts: ts.end, relation, pattern, attempt, outcome, captured };
        state.push(lane, ts.start, body, &self.inner)
    }

    /// Interns a relation name, pattern word or label, returning its id
    /// in this journal's name table. Idempotent.
    pub fn intern(&self, s: &str) -> Name {
        self.lock().names.intern(s)
    }

    /// Attaches run metadata (query name, retry policy, fault config …)
    /// carried by the snapshot so a replay can reconstruct the setup.
    pub fn set_meta(&self, meta: Json) {
        self.lock().meta = Some(meta);
    }

    /// Merges `pairs` into the current metadata object (creating it if
    /// absent, replacing values for repeated keys).
    pub fn merge_meta(&self, pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) {
        self.edit_meta(|obj| {
            for (k, v) in pairs {
                let k = k.into();
                match obj.iter_mut().find(|(key, _)| *key == k) {
                    Some(slot) => slot.1 = v,
                    None => obj.push((k, v)),
                }
            }
        });
    }

    /// Appends `value` to the array under `key` in the metadata (creating
    /// both), so the runs of several queries on one journal each keep
    /// their entry, in run order.
    pub fn push_meta(&self, key: &str, value: Json) {
        self.edit_meta(|obj| match obj.iter_mut().find(|(k, _)| k == key) {
            Some((_, Json::Arr(items))) => items.push(value),
            Some(slot) => slot.1 = Json::Arr(vec![value]),
            None => obj.push((key.to_owned(), Json::Arr(vec![value]))),
        });
    }

    fn edit_meta(&self, edit: impl FnOnce(&mut Vec<(String, Json)>)) {
        let mut state = self.lock();
        let mut obj = match state.meta.take() {
            Some(Json::Obj(pairs)) => pairs,
            _ => Vec::new(),
        };
        edit(&mut obj);
        state.meta = Some(Json::Obj(obj));
    }

    /// Total events ever emitted (recorded + dropped).
    pub fn emitted(&self) -> u64 {
        self.lock().next_seq
    }

    /// Events evicted from the ring so far.
    pub fn dropped(&self) -> u64 {
        self.lock().dropped
    }

    /// A frozen copy of the ring plus bookkeeping, every event in its file
    /// form ([`Event::encode`]).
    pub fn snapshot(&self) -> JournalSnapshot {
        let state = self.lock();
        let mut events = Vec::with_capacity(state.len_events as usize);
        for Stamped { seq, ts_ms, lane, event } in state.slots.iter().flat_map(Slot::stamped) {
            let (kind, data) = event.encode(&state.names);
            events.push(JournalEvent { seq, ts_ms, lane, kind: kind.to_owned(), data });
        }
        JournalSnapshot {
            meta: state.meta.clone().unwrap_or(Json::Null),
            emitted: state.next_seq,
            dropped: state.dropped,
            events,
        }
    }

    /// Hands `fold` this journal's name table and its retained events with
    /// `seq >= from`, in sequence order, under the journal lock. The ring
    /// is in sequence order, so a binary search finds the first slot to
    /// visit; nothing before it is touched, and nothing is encoded.
    pub(crate) fn fold_from<R>(
        &self,
        from: u64,
        fold: impl FnOnce(&Names, &mut dyn Iterator<Item = Stamped>) -> R,
    ) -> R {
        let state = self.lock();
        let first = state.slots.partition_point(|slot| slot.last_seq() < from);
        let mut fresh = state
            .slots
            .range(first..)
            .flat_map(Slot::stamped)
            .filter(|stamped| stamped.seq >= from);
        fold(&state.names, &mut fresh)
    }

    #[inline]
    fn lock(&self) -> std::sync::MutexGuard<'_, JournalState> {
        self.inner.state.lock().expect("journal not poisoned")
    }
}

/// Summary statistics returned by a successful
/// [`JournalSnapshot::validate`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct JournalCheck {
    /// Retained events.
    pub events: usize,
    /// `*.begin` events among them.
    pub begins: usize,
    /// `*.end` events among them.
    pub ends: usize,
    /// Distinct lanes observed.
    pub lanes: usize,
}

/// A frozen copy of one [`Journal`]: run metadata, bookkeeping, and the
/// retained events in sequence order, in their file form.
///
/// Every event of a snapshot taken by [`Journal::snapshot`] or read by
/// [`JournalSnapshot::from_json`] decodes ([`JournalSnapshot::decode`]);
/// the readers that return no `Result` (the fold, `render_report`,
/// `chrome_trace`) panic on one that does not.
#[derive(Clone, Debug, PartialEq)]
pub struct JournalSnapshot {
    /// Run metadata (`Json::Null` when none was set).
    pub meta: Json,
    /// Total events ever emitted.
    pub emitted: u64,
    /// Events evicted from the ring.
    pub dropped: u64,
    /// Retained events, oldest first.
    pub events: Vec<JournalEvent>,
}

impl JournalSnapshot {
    /// Events recorded in the snapshot (`emitted - dropped`).
    pub fn recorded(&self) -> u64 {
        self.events.len() as u64
    }

    /// The retained events of one kind.
    pub fn events_of<'a>(&'a self, kind: &'a str) -> impl Iterator<Item = &'a JournalEvent> {
        self.events.iter().filter(move |e| e.kind == kind)
    }

    /// The retained events decoded ([`Event::decode`]), in order, with the
    /// name table they index. Fails at the first event that does not
    /// decode.
    pub fn decode(&self) -> Result<(Names, Vec<Stamped>), String> {
        let mut names = Names::default();
        let events = self
            .events
            .iter()
            .map(|e| {
                let event = Event::decode(e, &mut names)?;
                Ok(Stamped { seq: e.seq, ts_ms: e.ts_ms, lane: e.lane, event })
            })
            .collect::<Result<_, String>>()?;
        Ok((names, events))
    }

    /// [`JournalSnapshot::decode`] for a snapshot known to decode: it
    /// panics with the decode error otherwise.
    pub(crate) fn decoded(&self) -> (Names, Vec<Stamped>) {
        self.decode().unwrap_or_else(|e| panic!("{e}"))
    }

    /// Serialises to the standalone journal document shape:
    /// `{"meta", "emitted", "dropped", "events"}`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("meta", self.meta.clone()),
            ("emitted", Json::num(self.emitted)),
            ("dropped", Json::num(self.dropped)),
            (
                "events",
                Json::Arr(self.events.iter().map(JournalEvent::to_json).collect()),
            ),
        ])
    }

    /// Parses a document produced by [`JournalSnapshot::to_json`],
    /// rejecting any event whose payload does not decode.
    pub fn from_json(doc: &Json) -> Result<JournalSnapshot, String> {
        let events = doc
            .get("events")
            .and_then(Json::as_arr)
            .ok_or("journal document missing \"events\" array")?
            .iter()
            .map(JournalEvent::from_json)
            .collect::<Result<Vec<_>, _>>()?;
        let number = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("journal document missing numeric {key:?}"))
        };
        let snapshot = JournalSnapshot {
            meta: doc.get("meta").cloned().unwrap_or(Json::Null),
            emitted: number("emitted")?,
            dropped: number("dropped")?,
            events,
        };
        snapshot.decode()?;
        Ok(snapshot)
    }

    /// Checks the journal invariants: every event decodes, sequence
    /// numbers are strictly monotone, `recorded + dropped == emitted`, and
    /// begin/end events balance per lane (unmatched *ends* are tolerated
    /// only when events were dropped — their begins may have been evicted;
    /// unmatched *begins* never are).
    pub fn validate(&self) -> Result<JournalCheck, String> {
        if self.recorded() + self.dropped != self.emitted {
            return Err(format!(
                "accounting broken: recorded {} + dropped {} != emitted {}",
                self.recorded(),
                self.dropped,
                self.emitted
            ));
        }
        let (_, events) = self.decode()?;
        let mut last_seq: Option<u64> = None;
        let mut stacks: BTreeMap<u64, Vec<(&str, &str)>> = BTreeMap::new();
        let mut check = JournalCheck::default();
        for Stamped { seq, lane, event, .. } in &events {
            if let Some(prev) = last_seq.filter(|prev| seq <= prev) {
                return Err(format!("sequence not strictly monotone: {seq} after {prev}"));
            }
            last_seq = Some(*seq);
            let stack = stacks.entry(*lane).or_default();
            let kind = event.kind();
            match event.interval() {
                Some((interval, true)) => {
                    check.begins += 1;
                    stack.push((interval, kind));
                }
                Some((interval, false)) => {
                    check.ends += 1;
                    match stack.pop() {
                        Some((open, _)) if open == interval => {}
                        Some((_, top)) => {
                            return Err(format!("lane {lane}: {kind:?} closes {top:?} (seq {seq})"));
                        }
                        None if self.dropped > 0 => {} // begin evicted from the ring
                        None => {
                            let why = format!("{kind:?} without a begin (seq {seq})");
                            return Err(format!("lane {lane}: {why}"));
                        }
                    }
                }
                None => {}
            }
        }
        for (lane, stack) in &stacks {
            if let Some((_, first)) = stack.first() {
                return Err(format!(
                    "lane {lane}: {} unmatched begin event(s), first {first:?}",
                    stack.len()
                ));
            }
        }
        check.events = self.events.len();
        check.lanes = stacks.len();
        Ok(check)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::json;
    use lap_prng::StdRng;

    fn journal(capacity: usize) -> Journal {
        Journal::new(
            JournalConfig {
                capacity,
                ..JournalConfig::light()
            },
            Counter::detached(),
        )
    }

    /// Records one wire attempt of `access` (`relation^pattern`) on `lane`.
    pub(crate) fn call(j: &Journal, lane: u64, ts: Range<u64>, access: &str, outcome: WireOutcome) {
        let (rel, pat) = access.split_once('^').expect("an access is relation^pattern");
        j.record_call(lane, ts, |names| {
            let (relation, pattern) = (names.intern(rel), names.intern(pat));
            (
                Event::CallBegin { relation, pattern, attempt: 1, inputs: None },
                Event::CallEnd { relation, attempt: 1, outcome, rows_data: None },
            )
        });
    }

    /// Records the begin, or the end, of one batch of operator `label`.
    pub(crate) fn batch(j: &Journal, ts: u64, label: &str, begin: bool) {
        j.record(0, ts, |names| {
            let label = names.intern(label);
            if begin {
                Event::BatchBegin { label, rows_in: 1 }
            } else {
                Event::BatchEnd { label, rows_out: 1, ok: true }
            }
        });
    }

    /// Records a wire membership probe of `relation` on `lane`.
    pub(crate) fn probe(j: &Journal, lane: u64, ts: u64, relation: &str) {
        j.record(lane, ts, |names| {
            Event::Membership { relation: names.intern(relation), present: true }
        });
    }

    const OK: WireOutcome = WireOutcome::Ok { rows: 1, latency_ms: 1 };

    #[test]
    fn sequence_is_strictly_monotone_and_validates() {
        let j = journal(16);
        call(&j, 0, 0..1, "B^oi", OK);
        probe(&j, 1, 1, "B");
        let snap = j.snapshot();
        let check = snap.validate().expect("valid journal");
        assert_eq!(check.events, 3);
        assert_eq!(check.begins, 1);
        assert_eq!(check.ends, 1);
        assert_eq!(check.lanes, 2);
        assert_eq!(snap.events[0].seq, 0);
        assert_eq!(snap.events[2].seq, 2);
    }

    #[test]
    fn ring_overflow_counts_exactly_the_evicted_events() {
        let dropped = Counter::detached();
        let j = Journal::new(
            JournalConfig {
                capacity: 4,
                ..JournalConfig::light()
            },
            dropped.clone(),
        );
        for i in 0..10 {
            probe(&j, 0, i, "B");
        }
        let snap = j.snapshot();
        assert_eq!(snap.events.len(), 4, "capacity bound honored");
        assert_eq!(snap.dropped, 6, "exactly the evicted events");
        assert_eq!(dropped.get(), 6, "mirrored to the counter");
        assert_eq!(snap.emitted, 10);
        assert_eq!(snap.events[0].seq, 6, "oldest retained is the 7th");
        snap.validate().expect("still valid after eviction");
    }

    #[test]
    fn truncated_ring_tolerates_orphan_ends_but_not_orphan_begins() {
        let j = journal(2);
        batch(&j, 0, "scan", true);
        probe(&j, 0, 1, "B");
        probe(&j, 0, 2, "B");
        batch(&j, 3, "scan", false);
        let snap = j.snapshot();
        assert!(snap.dropped > 0);
        snap.validate().expect("orphan end is fine once events dropped");

        let j = journal(16);
        batch(&j, 0, "scan", false);
        assert!(j.snapshot().validate().is_err(), "end without begin");
        let j = journal(16);
        batch(&j, 0, "scan", true);
        assert!(j.snapshot().validate().is_err(), "begin without end");
    }

    #[test]
    fn mismatched_pairs_are_rejected() {
        let j = journal(16);
        batch(&j, 0, "scan", true);
        let b = j.intern("B");
        let end = Event::CallEnd { relation: b, attempt: 1, outcome: OK, rows_data: None };
        j.record(0, 1, |_| end);
        let err = j.snapshot().validate().unwrap_err();
        assert!(err.contains("\"source.call.end\" closes \"exec.batch.begin\""), "{err}");
    }

    #[test]
    fn accounting_mismatch_is_rejected() {
        let j = journal(16);
        probe(&j, 0, 0, "B");
        let mut snap = j.snapshot();
        snap.emitted = 5;
        assert!(snap.validate().unwrap_err().contains("accounting"));
    }

    #[test]
    fn sampling_thins_calls_pairwise() {
        let j = Journal::new(
            JournalConfig {
                sample_every: 3,
                ..JournalConfig::light()
            },
            Counter::detached(),
        );
        let mut sampled = 0;
        for i in 0..9 {
            if j.should_sample_call() {
                sampled += 1;
                call(&j, 0, i..i + 1, "B^oi", OK);
            }
        }
        assert_eq!(sampled, 3, "every 3rd call records");
        let snap = j.snapshot();
        assert_eq!(snap.events.len(), 6);
        snap.validate().expect("sampled journal stays balanced");
    }

    /// Regression pin: `sample_every: 0` must behave exactly like 1
    /// (record everything), not divide or modulo by zero. The CLI rejects
    /// `--journal-sample 0` up front, but the library clamps defensively
    /// for direct construction — both halves are pinned so neither guard
    /// is "cleaned up" as redundant.
    #[test]
    fn sample_every_zero_is_clamped_to_record_all() {
        let j = Journal::new(
            JournalConfig {
                sample_every: 0,
                ..JournalConfig::light()
            },
            Counter::detached(),
        );
        for i in 0..5 {
            assert!(j.should_sample_call(), "call {i} must record under clamp");
            call(&j, 0, i..i + 1, "B^oi", OK);
        }
        let snap = j.snapshot();
        assert_eq!(snap.events.len(), 10, "every call recorded");
        snap.validate().expect("clamped journal stays balanced");
        // Zero capacity is clamped the same way.
        let j = Journal::new(
            JournalConfig {
                capacity: 0,
                ..JournalConfig::light()
            },
            Counter::detached(),
        );
        probe(&j, 0, 0, "B");
        assert_eq!(j.snapshot().events.len(), 1);
    }

    #[test]
    fn json_round_trip_through_in_repo_parser() {
        let j = journal(16);
        j.set_meta(Json::obj([("query", Json::str("Q"))]));
        j.record_call(0, 2..5, |names| {
            let (relation, pattern) = (names.intern("B"), names.intern("io"));
            let inputs = Some(Box::new(Json::Arr(vec![Json::num(1), Json::Null])));
            let row = Json::Arr(vec![Json::num(1), Json::str("x")]);
            let rows_data = Some(Box::new(Json::Arr(vec![row])));
            let outcome = WireOutcome::Ok { rows: 1, latency_ms: 3 };
            (
                Event::CallBegin { relation, pattern, attempt: 1, inputs },
                Event::CallEnd { relation, attempt: 1, outcome, rows_data },
            )
        });
        let snap = j.snapshot();
        let text = snap.to_json().to_pretty();
        let parsed = json::parse(&text).expect("parses");
        let back = JournalSnapshot::from_json(&parsed).expect("decodes");
        assert_eq!(back, snap);
        assert_eq!(back.to_json().to_pretty(), text, "the file reproduces byte for byte");
        assert_eq!(back.meta.get("query").and_then(Json::as_str), Some("Q"));
    }

    /// The file form, key by key: the shapes every journal this program
    /// has written carries, and so what `decode` must keep reading.
    #[test]
    fn events_encode_to_the_file_format() {
        let j = journal(64);
        call(&j, 0, 2..5, "B^oi", WireOutcome::Ok { rows: 7, latency_ms: 3 });
        call(&j, 1, 5..9, "C^ooo", WireOutcome::Timeout { latency_ms: 11, timeout_ms: 4 });
        let b = j.intern("B");
        j.record(0, 9, |_| Event::CacheHit { relation: b, rows: 7, membership: false });
        j.record(0, 9, |_| Event::CacheHit { relation: b, rows: 7, membership: true });
        j.record(0, 10, |_| Event::Retry { relation: b, attempt: 2, backoff_ms: 0 });
        j.record(0, 11, |_| Event::Retry { relation: b, attempt: 3, backoff_ms: 16 });
        j.record(0, 11, |_| Event::Timeout { relation: b, latency_ms: 6, attempt: 3 });
        let events = j.snapshot().events;
        let data: Vec<String> =
            events.iter().map(|e| format!("{} {}", e.kind, e.data.to_compact())).collect();
        assert_eq!(
            data,
            [
                r#"source.call.begin {"label":"B^oi","relation":"B","pattern":"oi","attempt":1}"#,
                r#"source.call.end {"relation":"B","ok":true,"rows":7,"latency_ms":3,"attempt":1}"#,
                r#"source.call.begin {"label":"C^ooo","relation":"C","pattern":"ooo","attempt":1}"#,
                concat!(
                    r#"source.call.end {"relation":"C","ok":false,"fault":"timeout","#,
                    r#""latency_ms":11,"attempt":1,"timeout_ms":4}"#
                ),
                r#"source.cache.hit {"relation":"B","rows":7}"#,
                r#"source.cache.hit {"relation":"B","rows":7,"membership":true}"#,
                r#"source.retry {"relation":"B","attempt":2}"#,
                r#"source.retry {"relation":"B","attempt":3,"backoff_ms":16}"#,
                r#"source.timeout {"relation":"B","latency_ms":6,"attempt":3}"#,
            ]
        );
    }

    /// A random event of any variant over a few names, with every optional
    /// field both present and absent; with `capture` off (the light tier),
    /// without captured inputs and rows.
    pub(crate) fn random_event(rng: &mut StdRng, names: &mut Names, capture: bool) -> Event {
        const RELATIONS: [&str; 3] = ["B", "C", "L"];
        const PATTERNS: [&str; 3] = ["io", "oo", "o"];
        let relation = names.intern(RELATIONS[rng.gen_range(0..RELATIONS.len())]);
        let pattern = names.intern(PATTERNS[rng.gen_range(0..PATTERNS.len())]);
        let label = format!("access {}^io", names.get(relation));
        let label = names.intern(&label);
        let n = rng.gen_range(0..40u64);
        let attempt = rng.gen_range(1..4u64);
        let captured = |rng: &mut StdRng| {
            let slots = vec![Json::num(n), Json::str("x"), Json::Null];
            (capture && rng.gen_bool(0.5)).then(|| Box::new(Json::Arr(slots)))
        };
        let outcome = match rng.gen_range(0..3u32) {
            0 => WireOutcome::Ok { rows: n / 2, latency_ms: n },
            1 => WireOutcome::Unavailable { latency_ms: n },
            _ => WireOutcome::Timeout { latency_ms: n, timeout_ms: 5 },
        };
        let pair = [(n, 1 + n / 2), (2, 2)][rng.gen_range(0..2usize)];
        match rng.gen_range(0..13u32) {
            0 => Event::CallBegin { relation, pattern, attempt, inputs: captured(rng) },
            1 => Event::CallEnd { relation, attempt, outcome, rows_data: captured(rng) },
            2 => Event::Membership { relation, present: rng.gen_bool(0.5) },
            3 => Event::CacheHit { relation, rows: n, membership: rng.gen_bool(0.5) },
            4 => {
                let backoff_ms = if rng.gen_bool(0.5) { 0 } else { n + 1 };
                Event::Retry { relation, attempt, backoff_ms }
            }
            5 => Event::Fault { relation, latency_ms: n, attempt },
            6 => Event::Timeout { relation, latency_ms: n, attempt },
            7 => Event::Degraded(Box::new(Degraded {
                index: n,
                head: "Q(x)".to_owned(),
                relation: names.get(relation).to_owned(),
                attempts: attempt,
                reason: "source unavailable after 5ms".to_owned(),
            })),
            8 => Event::BatchBegin { label, rows_in: n },
            9 => Event::BatchEnd { label, rows_out: n, ok: rng.gen_bool(0.5) },
            10 => Event::Unfold { disjuncts_in: pair.0, disjuncts_out: pair.1 },
            11 => Event::Prune { disjuncts_in: pair.0, disjuncts_out: pair.1 },
            _ => Event::Recalibrate(Box::new(Recalibration {
                key: format!("Q(x) :- {}(x).", names.get(relation)),
                forced: rng.gen_bool(0.5),
                relations: vec![names.get(relation).to_owned()],
                before: Json::obj([("est_calls", Json::num(n))]),
                after: Json::obj([("est_calls", Json::Num(n as f64 / 7.0))]),
            })),
        }
    }

    /// The codec is one bijection: for seeded random events of every
    /// variant, writing the file form as text and reading it back gives
    /// the event again.
    #[test]
    fn decode_inverts_encode_for_every_variant() {
        let mut names = Names::default();
        let mut kinds = std::collections::BTreeSet::new();
        for seed in 0..512 {
            let mut rng = StdRng::seed_from_u64(seed);
            let event = random_event(&mut rng, &mut names, true);
            let (kind, data) = event.clone().encode(&names);
            let data = json::parse(&data.to_compact()).expect("parses");
            let file = JournalEvent { seq: seed, ts_ms: 0, lane: 0, kind: kind.to_owned(), data };
            let back = Event::decode(&file, &mut names);
            let back = back.unwrap_or_else(|e| panic!("seed {seed}: {e}"));
            assert_eq!(back, event, "seed {seed}");
            kinds.insert(kind);
        }
        assert_eq!(kinds.len(), 13, "every variant drawn: {kinds:?}");
    }

    #[test]
    fn decode_names_the_event_and_the_field_it_rejects() {
        let event = |kind: &str, data: Json| {
            JournalEvent { seq: 7, ts_ms: 0, lane: 0, kind: kind.to_owned(), data }
        };
        let mut names = Names::default();
        let empty = event(kind::SOURCE_CALL_END, Json::Obj(Vec::new()));
        let err = Event::decode(&empty, &mut names).unwrap_err();
        let expected = "field \"relation\" is missing or not a string";
        assert_eq!(err, format!("journal event seq 7 (source.call.end): {expected}"));
        let retry = Json::obj([
            ("relation", Json::str("B")),
            ("attempt", Json::num(2)),
            ("backoff_ms", Json::str("9")),
        ]);
        let err = Event::decode(&event(kind::RETRY, retry), &mut names).unwrap_err();
        assert!(err.contains("field \"backoff_ms\" is missing or not a number"), "{err}");
        for unknown in ["x.instant", "exec.estimate.blown"] {
            let err = Event::decode(&event(unknown, Json::Null), &mut names).unwrap_err();
            assert_eq!(err, format!("journal event seq 7: unknown kind {unknown:?}"));
        }
    }

    #[test]
    fn pre_interned_ids_record_the_same_events() {
        let by_str = journal(64);
        let by_id = journal(64);
        let rel = by_id.intern("B");
        assert_eq!(by_id.intern("B"), rel, "interning is idempotent");
        let probe = |relation| Event::Membership { relation, present: false };
        by_str.record(0, 3, |names| probe(names.intern("B")));
        by_id.record(0, 3, |_| probe(rel));
        assert_eq!(by_str.snapshot(), by_id.snapshot());
    }

    #[test]
    fn call_pair_eviction_accounts_two_events() {
        let dropped = Counter::detached();
        let j = Journal::new(
            JournalConfig {
                capacity: 4,
                ..JournalConfig::light()
            },
            dropped.clone(),
        );
        for i in 0..4u64 {
            call(&j, 0, i..i + 1, "B^oi", OK);
        }
        let snap = j.snapshot();
        assert_eq!(snap.emitted, 8, "each call pair takes two seqs");
        assert_eq!(snap.events.len(), 4, "two retained pairs fill the ring");
        assert_eq!(snap.dropped, 4, "two evicted pairs, counted as events");
        assert_eq!(dropped.get(), 4, "mirrored to the counter");
        assert_eq!(snap.events[0].seq, 4, "oldest retained is the third pair");
        snap.validate().expect("whole pairs evict together, so balance holds");
    }

    /// A slot is a plain struct no larger than the 80-byte slot of the
    /// ring that kept events as JSON.
    #[test]
    fn a_ring_slot_stays_small() {
        assert!(std::mem::size_of::<Slot>() <= 80, "{}", std::mem::size_of::<Slot>());
    }

    #[test]
    fn merge_meta_overwrites_and_appends() {
        let j = journal(4);
        j.merge_meta([("a", Json::num(1))]);
        j.merge_meta([("a", Json::num(2)), ("b", Json::str("x"))]);
        let meta = j.snapshot().meta;
        assert_eq!(meta.get("a").and_then(Json::as_u64), Some(2));
        assert_eq!(meta.get("b").and_then(Json::as_str), Some("x"));
    }
}
