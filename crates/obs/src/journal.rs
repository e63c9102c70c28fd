//! The query flight recorder: a bounded ring buffer of structured events.
//!
//! A [`Journal`] records what an execution *did* — every source call (begin
//! and end, with pattern, bound inputs, row count, and virtual latency),
//! membership probe, cache hit, retry attempt, injected fault, timeout,
//! disjunct-degraded decision, and per-operator batch open/close — as
//! [`JournalEvent`]s stamped with a strictly monotone sequence number and
//! the emitter's virtual clock. Aggregate counters (PR 2) say *how much*
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
//! Cost model: the hot emitters — source calls, membership probes, cache
//! hits, retries, faults — go through *compact* entries
//! ([`Journal::record_call`] and friends): one mutex lock, interned
//! relation/pattern ids, and a plain-struct ring slot, with **zero**
//! payload allocation. The structured [`Json`] view of those events is
//! materialised only at [`Journal::snapshot`] time (the telemetry fold,
//! [`FeedbackStore::fold_journal`](crate::FeedbackStore::fold_journal),
//! reads them in place and never materialises it), so the
//! [`JournalConfig::light`] profile (no row capture) is cheap enough for
//! always-on use. Rare structural events (batch open/close, degradation
//! decisions, mediator phases) and the row-capturing replay tier use the
//! general [`Journal::emit`] path, which allocates its payload eagerly.
//! [`JournalConfig::replay`] captures bound inputs and row data so a
//! [`JournalSnapshot`] can drive a bit-for-bit replay. A `sample_every`
//! knob thins *source-call* recording pairwise (begin and end share one
//! decision, so balance survives sampling).

use crate::feedback::{FoldEvent, FoldStep};
use crate::json::Json;
use crate::metrics::Counter;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};

/// Suffix that marks an event as opening a paired interval.
pub const BEGIN_SUFFIX: &str = ".begin";
/// Suffix that marks an event as closing a paired interval.
pub const END_SUFFIX: &str = ".end";

/// Event kinds emitted by the engine. Centralised so producers, the
/// validator, the Chrome exporter, and the replay reader agree on names.
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
    /// An operator's observed cardinality blew past its planner estimate
    /// (≥ 10×): the plan should be re-costed before the next execution.
    pub const ESTIMATE_BLOWN: &str = "exec.estimate.blown";
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

/// One recorded event.
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
    /// True when this event opens a paired interval.
    pub fn is_begin(&self) -> bool {
        self.kind.ends_with(BEGIN_SUFFIX)
    }

    /// True when this event closes a paired interval.
    pub fn is_end(&self) -> bool {
        self.kind.ends_with(END_SUFFIX)
    }

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

/// Outcome of one wire attempt, as the compact call recorder sees it.
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

/// Payload of a compact instant event, decoded back into the standard
/// event shapes at snapshot time.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum InstantPayload {
    /// A [`kind::MEMBERSHIP`] probe resolved (`{relation, present}`).
    Membership {
        /// Whether the probed tuple was present.
        present: bool,
    },
    /// A [`kind::CACHE_HIT`] (`{relation, rows}`, plus `membership: true`
    /// when the hit answered a membership probe).
    CacheHit {
        /// Rows in the cached reply.
        rows: u64,
        /// True when the hit answered a membership probe.
        membership: bool,
    },
    /// A [`kind::RETRY`] marker (`{relation, attempt}`, plus
    /// `backoff_ms` when the preceding failure charged a backoff wait).
    Retry {
        /// The attempt about to run (≥ 2).
        attempt: u64,
        /// Backoff wait charged to the virtual clock before this attempt
        /// (0 when the policy waited nothing).
        backoff_ms: u64,
    },
    /// A [`kind::FAULT`] marker (`{relation, latency_ms, attempt}`).
    Fault {
        /// Virtual latency burned before the fault surfaced.
        latency_ms: u64,
        /// The failed attempt.
        attempt: u64,
    },
    /// A [`kind::TIMEOUT`] marker (`{relation, latency_ms, attempt}`).
    Timeout {
        /// Raw latency the transport would have taken.
        latency_ms: u64,
        /// The failed attempt.
        attempt: u64,
    },
}

impl InstantPayload {
    /// The internal `(kind, a, b)` slot encoding (see `expand_instant`).
    fn encode(self) -> (&'static str, u64, u64) {
        match self {
            InstantPayload::Membership { present } => (kind::MEMBERSHIP, u64::from(present), 0),
            InstantPayload::CacheHit { rows, membership } => {
                (kind::CACHE_HIT, rows, u64::from(membership))
            }
            InstantPayload::Retry { attempt, backoff_ms } => (kind::RETRY, attempt, backoff_ms),
            InstantPayload::Fault { latency_ms, attempt } => (kind::FAULT, latency_ms, attempt),
            InstantPayload::Timeout { latency_ms, attempt } => {
                (kind::TIMEOUT, latency_ms, attempt)
            }
        }
    }
}

/// De-duplicating string table for relation names and access patterns, so
/// the per-event ring slots store 4-byte ids instead of heap strings.
#[derive(Debug, Default)]
struct Interner {
    table: Vec<String>,
    index: HashMap<String, u32>,
}

impl Interner {
    fn intern(&mut self, s: &str) -> u32 {
        if let Some(&id) = self.index.get(s) {
            return id;
        }
        let id = self.table.len() as u32;
        self.table.push(s.to_owned());
        self.index.insert(s.to_owned(), id);
        id
    }

    fn get(&self, id: u32) -> &str {
        // An id that was never interned (misused `*_by_id` call) degrades
        // to a placeholder instead of panicking at snapshot time.
        self.table.get(id as usize).map_or("?", String::as_str)
    }
}

/// A compact begin/end pair for one wire attempt: expands to two
/// [`JournalEvent`]s (`source.call.begin` at `begin_seq`, `.end` at
/// `begin_seq + 1`) at snapshot time. No payload allocation at emit time.
#[derive(Debug)]
struct CallEntry {
    begin_seq: u64,
    lane: u64,
    begin_ts_ms: u64,
    end_ts_ms: u64,
    relation: u32,
    pattern: u32,
    attempt: u64,
    outcome: WireOutcome,
}

/// A compact instant event whose payload is a relation id plus up to two
/// kind-specific numbers (see `expand_instant` for the per-kind keys).
#[derive(Debug)]
struct InstantEntry {
    seq: u64,
    lane: u64,
    ts_ms: u64,
    kind: &'static str,
    relation: u32,
    a: u64,
    b: u64,
}

/// One ring slot: either a pre-built event (general path) or a compact
/// record that expands lazily.
#[derive(Debug)]
enum Entry {
    Rich(JournalEvent),
    /// A pre-built begin/end pair held in one slot, so concurrent lanes
    /// can never interleave inside the pair and eviction keeps both
    /// halves or neither (the replay tier's analogue of [`Entry::Call`]).
    RichPair(Box<(JournalEvent, JournalEvent)>),
    Call(CallEntry),
    Instant(InstantEntry),
}

impl Entry {
    /// Logical events this slot accounts for (a call pair counts as 2).
    fn events(&self) -> u64 {
        match self {
            Entry::Call(_) | Entry::RichPair(_) => 2,
            _ => 1,
        }
    }

    /// The sequence number of the slot's last event.
    fn last_seq(&self) -> u64 {
        match self {
            Entry::Rich(event) => event.seq,
            Entry::RichPair(pair) => pair.1.seq,
            Entry::Call(call) => call.begin_seq + 1,
            Entry::Instant(instant) => instant.seq,
        }
    }

    /// The slot's events as the fold reads them. Compact entries borrow
    /// their names from `names` and expand nothing; rich ones go through
    /// their JSON payload.
    fn fold_events<'a>(&'a self, names: &'a Interner) -> impl Iterator<Item = FoldEvent<'a>> {
        let (first, second) = match self {
            Entry::Rich(event) => (FoldEvent::of(event), None),
            Entry::RichPair(pair) => (FoldEvent::of(&pair.0), Some(FoldEvent::of(&pair.1))),
            Entry::Call(call) => {
                let relation = names.get(call.relation);
                let begin = FoldStep::Begin { relation, pattern: names.get(call.pattern) };
                let end = FoldStep::End { relation, outcome: call.outcome };
                (
                    FoldEvent { seq: call.begin_seq, lane: call.lane, step: begin },
                    Some(FoldEvent { seq: call.begin_seq + 1, lane: call.lane, step: end }),
                )
            }
            Entry::Instant(instant) => {
                let step = if instant.kind == kind::RETRY {
                    FoldStep::Retry { relation: names.get(instant.relation), backoff_ms: instant.b }
                } else {
                    FoldStep::Other
                };
                (FoldEvent { seq: instant.seq, lane: instant.lane, step }, None)
            }
        };
        std::iter::once(first).chain(second)
    }
}

#[derive(Debug, Default)]
struct JournalState {
    entries: VecDeque<Entry>,
    /// Logical events currently retained (call pairs count as 2); kept
    /// incrementally so eviction never scans the ring.
    len_events: u64,
    next_seq: u64,
    dropped: u64,
    sample_tick: u64,
    meta: Option<Json>,
    names: Interner,
}

impl JournalState {
    /// Pushes one slot, then trims the ring back under `capacity`
    /// (counting logical events), charging evictions to `dropped`.
    #[inline]
    fn push_entry(&mut self, entry: Entry, capacity: usize, dropped_counter: &Counter) {
        self.len_events += entry.events();
        self.entries.push_back(entry);
        while self.len_events > capacity as u64 {
            let evicted = self
                .entries
                .pop_front()
                .expect("len_events > 0 implies a retained entry")
                .events();
            self.len_events -= evicted;
            self.dropped += evicted;
            for _ in 0..evicted {
                dropped_counter.incr();
            }
        }
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

    /// Records one event; returns its sequence number. Evicts the oldest
    /// event (bumping `dropped`) when the ring is at capacity.
    pub fn emit(&self, lane: u64, ts_ms: u64, kind: &str, data: Json) -> u64 {
        let mut state = self.lock();
        let seq = state.next_seq;
        state.next_seq += 1;
        let entry = Entry::Rich(JournalEvent {
            seq,
            ts_ms,
            lane,
            kind: kind.to_owned(),
            data,
        });
        state.push_entry(entry, self.inner.cfg.capacity, &self.inner.dropped_counter);
        seq
    }

    /// Fast path for one wire attempt: records the
    /// [`kind::SOURCE_CALL_BEGIN`] / [`kind::SOURCE_CALL_END`] pair as a
    /// single compact ring slot with no payload allocation, expanding to
    /// the same event shapes as the general path at snapshot time. The
    /// pair takes two consecutive sequence numbers (begin is returned);
    /// this is sound because nothing else emits on the same lane between
    /// one attempt's begin and end.
    #[allow(clippy::too_many_arguments)]
    pub fn record_call(
        &self,
        lane: u64,
        begin_ts_ms: u64,
        end_ts_ms: u64,
        relation: &str,
        pattern: &str,
        attempt: u64,
        outcome: WireOutcome,
    ) -> u64 {
        let mut state = self.lock();
        let relation = state.names.intern(relation);
        let pattern = state.names.intern(pattern);
        self.push_call(state, lane, begin_ts_ms, end_ts_ms, relation, pattern, attempt, outcome)
    }

    /// [`Journal::record_call`] with pre-interned ids (see
    /// [`Journal::intern`]): the steady-state hot path, free of string
    /// hashing.
    #[inline]
    #[allow(clippy::too_many_arguments)]
    pub fn record_call_by_id(
        &self,
        lane: u64,
        begin_ts_ms: u64,
        end_ts_ms: u64,
        relation: u32,
        pattern: u32,
        attempt: u64,
        outcome: WireOutcome,
    ) -> u64 {
        let state = self.lock();
        self.push_call(state, lane, begin_ts_ms, end_ts_ms, relation, pattern, attempt, outcome)
    }

    /// Records a rich [`kind::SOURCE_CALL_BEGIN`] / [`kind::SOURCE_CALL_END`]
    /// pair (the replay tier, whose payloads carry bound inputs and row
    /// data) as **one** ring slot: concurrent lanes can never interleave
    /// an event inside the pair, and eviction keeps both halves or
    /// neither — the `dropped` accounting charges the pair as two logical
    /// events, like [`Journal::record_call`]. Returns the begin sequence
    /// number; the end event takes the next one.
    pub fn record_call_rich(
        &self,
        lane: u64,
        begin_ts_ms: u64,
        end_ts_ms: u64,
        begin_data: Json,
        end_data: Json,
    ) -> u64 {
        let mut state = self.lock();
        let begin_seq = state.next_seq;
        state.next_seq += 2;
        let begin = JournalEvent {
            seq: begin_seq,
            ts_ms: begin_ts_ms,
            lane,
            kind: kind::SOURCE_CALL_BEGIN.to_owned(),
            data: begin_data,
        };
        let end = JournalEvent {
            seq: begin_seq + 1,
            ts_ms: end_ts_ms,
            lane,
            kind: kind::SOURCE_CALL_END.to_owned(),
            data: end_data,
        };
        state.push_entry(
            Entry::RichPair(Box::new((begin, end))),
            self.inner.cfg.capacity,
            &self.inner.dropped_counter,
        );
        begin_seq
    }

    /// Fast path for a compact instant event (`payload` picks the kind
    /// and the snapshot-time shape).
    pub fn record_instant(
        &self,
        lane: u64,
        ts_ms: u64,
        relation: &str,
        payload: InstantPayload,
    ) -> u64 {
        let mut state = self.lock();
        let relation = state.names.intern(relation);
        self.push_instant(state, lane, ts_ms, relation, payload)
    }

    /// [`Journal::record_instant`] with a pre-interned relation id.
    #[inline]
    pub fn record_instant_by_id(
        &self,
        lane: u64,
        ts_ms: u64,
        relation: u32,
        payload: InstantPayload,
    ) -> u64 {
        let state = self.lock();
        self.push_instant(state, lane, ts_ms, relation, payload)
    }

    /// Interns a relation name or pattern word, returning a stable id for
    /// the `*_by_id` recorders. Idempotent; ids are private to this
    /// journal.
    pub fn intern(&self, s: &str) -> u32 {
        self.lock().names.intern(s)
    }

    #[inline]
    #[allow(clippy::too_many_arguments)]
    fn push_call(
        &self,
        mut state: std::sync::MutexGuard<'_, JournalState>,
        lane: u64,
        begin_ts_ms: u64,
        end_ts_ms: u64,
        relation: u32,
        pattern: u32,
        attempt: u64,
        outcome: WireOutcome,
    ) -> u64 {
        let begin_seq = state.next_seq;
        state.next_seq += 2;
        let entry = Entry::Call(CallEntry {
            begin_seq,
            lane,
            begin_ts_ms,
            end_ts_ms,
            relation,
            pattern,
            attempt,
            outcome,
        });
        state.push_entry(entry, self.inner.cfg.capacity, &self.inner.dropped_counter);
        begin_seq
    }

    #[inline]
    fn push_instant(
        &self,
        mut state: std::sync::MutexGuard<'_, JournalState>,
        lane: u64,
        ts_ms: u64,
        relation: u32,
        payload: InstantPayload,
    ) -> u64 {
        let seq = state.next_seq;
        state.next_seq += 1;
        let (kind, a, b) = payload.encode();
        let entry = Entry::Instant(InstantEntry {
            seq,
            lane,
            ts_ms,
            kind,
            relation,
            a,
            b,
        });
        state.push_entry(entry, self.inner.cfg.capacity, &self.inner.dropped_counter);
        seq
    }

    /// Attaches run metadata (query name, retry policy, fault config …)
    /// carried by the snapshot so a replay can reconstruct the setup.
    pub fn set_meta(&self, meta: Json) {
        self.lock().meta = Some(meta);
    }

    /// Merges `pairs` into the current metadata object (creating it if
    /// absent, replacing values for repeated keys).
    pub fn merge_meta(&self, pairs: impl IntoIterator<Item = (impl Into<String>, Json)>) {
        let mut state = self.lock();
        let mut obj = match state.meta.take() {
            Some(Json::Obj(pairs)) => pairs,
            _ => Vec::new(),
        };
        for (k, v) in pairs {
            let k = k.into();
            match obj.iter_mut().find(|(key, _)| *key == k) {
                Some(slot) => slot.1 = v,
                None => obj.push((k, v)),
            }
        }
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

    /// A frozen copy of the ring plus bookkeeping. Compact entries are
    /// expanded here into the same [`JournalEvent`] shapes the general
    /// [`Journal::emit`] path produces, so consumers see one format.
    pub fn snapshot(&self) -> JournalSnapshot {
        let state = self.lock();
        let mut events = Vec::with_capacity(state.len_events as usize);
        for entry in &state.entries {
            match entry {
                Entry::Rich(event) => events.push(event.clone()),
                Entry::RichPair(pair) => {
                    events.push(pair.0.clone());
                    events.push(pair.1.clone());
                }
                Entry::Call(call) => expand_call(call, &state.names, &mut events),
                Entry::Instant(instant) => events.push(expand_instant(instant, &state.names)),
            }
        }
        JournalSnapshot {
            meta: state.meta.clone().unwrap_or(Json::Null),
            emitted: state.next_seq,
            dropped: state.dropped,
            events,
        }
    }

    /// Hands `fold` the retained events with `seq >= from`, in sequence
    /// order, under the journal lock. The ring is in sequence order, so a
    /// binary search finds the first slot to visit; nothing before it is
    /// touched, and nothing after it is expanded or cloned.
    pub(crate) fn fold_from<R>(
        &self,
        from: u64,
        fold: impl FnOnce(&mut dyn Iterator<Item = FoldEvent<'_>>) -> R,
    ) -> R {
        let state = self.lock();
        let first = state.entries.partition_point(|entry| entry.last_seq() < from);
        let mut fresh = state
            .entries
            .range(first..)
            .flat_map(|entry| entry.fold_events(&state.names))
            .filter(|event| event.seq >= from);
        fold(&mut fresh)
    }

    #[inline]
    fn lock(&self) -> std::sync::MutexGuard<'_, JournalState> {
        self.inner.state.lock().expect("journal not poisoned")
    }
}

/// Expands one compact call pair into the begin/end [`JournalEvent`]s the
/// general emit path would have produced (minus `inputs`/`rows_data`,
/// which only the row-capturing tier records — and that tier uses the
/// general path).
fn expand_call(call: &CallEntry, names: &Interner, out: &mut Vec<JournalEvent>) {
    let relation = names.get(call.relation);
    let pattern = names.get(call.pattern);
    out.push(JournalEvent {
        seq: call.begin_seq,
        ts_ms: call.begin_ts_ms,
        lane: call.lane,
        kind: kind::SOURCE_CALL_BEGIN.to_owned(),
        data: Json::obj([
            ("label", Json::Str(format!("{relation}^{pattern}"))),
            ("relation", Json::str(relation)),
            ("pattern", Json::str(pattern)),
            ("attempt", Json::num(call.attempt)),
        ]),
    });
    let data = match call.outcome {
        WireOutcome::Ok { rows, latency_ms } => Json::obj([
            ("relation", Json::str(relation)),
            ("ok", Json::Bool(true)),
            ("rows", Json::num(rows)),
            ("latency_ms", Json::num(latency_ms)),
            ("attempt", Json::num(call.attempt)),
        ]),
        WireOutcome::Unavailable { latency_ms } => Json::obj([
            ("relation", Json::str(relation)),
            ("ok", Json::Bool(false)),
            ("fault", Json::str("unavailable")),
            ("latency_ms", Json::num(latency_ms)),
            ("attempt", Json::num(call.attempt)),
        ]),
        WireOutcome::Timeout {
            latency_ms,
            timeout_ms,
        } => Json::obj([
            ("relation", Json::str(relation)),
            ("ok", Json::Bool(false)),
            ("fault", Json::str("timeout")),
            ("latency_ms", Json::num(latency_ms)),
            ("attempt", Json::num(call.attempt)),
            ("timeout_ms", Json::num(timeout_ms)),
        ]),
    };
    out.push(JournalEvent {
        seq: call.begin_seq + 1,
        ts_ms: call.end_ts_ms,
        lane: call.lane,
        kind: kind::SOURCE_CALL_END.to_owned(),
        data,
    });
}

/// Expands one compact instant into the [`JournalEvent`] the general emit
/// path would have produced, decoding the `(a, b)` slots per kind.
fn expand_instant(instant: &InstantEntry, names: &Interner) -> JournalEvent {
    let relation = names.get(instant.relation);
    let data = match instant.kind {
        kind::MEMBERSHIP => Json::obj([
            ("relation", Json::str(relation)),
            ("present", Json::Bool(instant.a != 0)),
        ]),
        kind::CACHE_HIT => {
            let mut pairs = vec![
                ("relation".to_owned(), Json::str(relation)),
                ("rows".to_owned(), Json::num(instant.a)),
            ];
            if instant.b != 0 {
                pairs.push(("membership".to_owned(), Json::Bool(true)));
            }
            Json::Obj(pairs)
        }
        kind::RETRY => {
            let mut pairs = vec![
                ("relation".to_owned(), Json::str(relation)),
                ("attempt".to_owned(), Json::num(instant.a)),
            ];
            if instant.b != 0 {
                pairs.push(("backoff_ms".to_owned(), Json::num(instant.b)));
            }
            Json::Obj(pairs)
        }
        // FAULT and TIMEOUT share one shape.
        _ => Json::obj([
            ("relation", Json::str(relation)),
            ("latency_ms", Json::num(instant.a)),
            ("attempt", Json::num(instant.b)),
        ]),
    };
    JournalEvent {
        seq: instant.seq,
        ts_ms: instant.ts_ms,
        lane: instant.lane,
        kind: instant.kind.to_owned(),
        data,
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
/// retained events in sequence order.
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

    /// Parses a document produced by [`JournalSnapshot::to_json`].
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
        Ok(JournalSnapshot {
            meta: doc.get("meta").cloned().unwrap_or(Json::Null),
            emitted: number("emitted")?,
            dropped: number("dropped")?,
            events,
        })
    }

    /// Checks the journal invariants: strictly monotone sequence numbers,
    /// `recorded + dropped == emitted`, and per-lane begin/end balance
    /// (unmatched *ends* are tolerated only when events were dropped —
    /// their begins may have been evicted; unmatched *begins* never are).
    pub fn validate(&self) -> Result<JournalCheck, String> {
        if self.recorded() + self.dropped != self.emitted {
            return Err(format!(
                "accounting broken: recorded {} + dropped {} != emitted {}",
                self.recorded(),
                self.dropped,
                self.emitted
            ));
        }
        let mut last_seq: Option<u64> = None;
        let mut stacks: std::collections::BTreeMap<u64, Vec<&str>> =
            std::collections::BTreeMap::new();
        let mut check = JournalCheck::default();
        for event in &self.events {
            if let Some(prev) = last_seq {
                if event.seq <= prev {
                    return Err(format!(
                        "sequence not strictly monotone: {} after {}",
                        event.seq, prev
                    ));
                }
            }
            last_seq = Some(event.seq);
            let stack = stacks.entry(event.lane).or_default();
            if event.is_begin() {
                check.begins += 1;
                stack.push(&event.kind);
            } else if event.is_end() {
                check.ends += 1;
                let opener = event.kind.strip_suffix(END_SUFFIX).expect("is_end");
                match stack.pop() {
                    Some(top) if top.strip_suffix(BEGIN_SUFFIX) == Some(opener) => {}
                    Some(top) => {
                        return Err(format!(
                            "lane {}: {:?} closes {:?} (seq {})",
                            event.lane, event.kind, top, event.seq
                        ));
                    }
                    None if self.dropped > 0 => {} // begin evicted from the ring
                    None => {
                        return Err(format!(
                            "lane {}: {:?} without a begin (seq {})",
                            event.lane, event.kind, event.seq
                        ));
                    }
                }
            }
        }
        for (lane, stack) in &stacks {
            if !stack.is_empty() {
                return Err(format!(
                    "lane {lane}: {} unmatched begin event(s), first {:?}",
                    stack.len(),
                    stack[0]
                ));
            }
        }
        check.events = self.events.len();
        check.lanes = stacks.len();
        Ok(check)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    fn journal(capacity: usize) -> Journal {
        Journal::new(
            JournalConfig {
                capacity,
                ..JournalConfig::light()
            },
            Counter::detached(),
        )
    }

    #[test]
    fn sequence_is_strictly_monotone_and_validates() {
        let j = journal(16);
        j.emit(0, 0, kind::SOURCE_CALL_BEGIN, Json::obj([("label", Json::str("B^oi"))]));
        j.emit(0, 3, kind::SOURCE_CALL_END, Json::obj([("ok", Json::Bool(true))]));
        j.emit(1, 1, kind::MEMBERSHIP, Json::Null);
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
            j.emit(0, i, kind::MEMBERSHIP, Json::num(i));
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
        j.emit(0, 0, kind::BATCH_BEGIN, Json::Null);
        j.emit(0, 1, kind::MEMBERSHIP, Json::Null);
        j.emit(0, 2, kind::MEMBERSHIP, Json::Null);
        j.emit(0, 3, kind::BATCH_END, Json::Null);
        let snap = j.snapshot();
        assert!(snap.dropped > 0);
        snap.validate().expect("orphan end is fine once events dropped");

        let j = journal(16);
        j.emit(0, 0, kind::BATCH_END, Json::Null);
        assert!(j.snapshot().validate().is_err(), "end without begin");
        let j = journal(16);
        j.emit(0, 0, kind::BATCH_BEGIN, Json::Null);
        assert!(j.snapshot().validate().is_err(), "begin without end");
    }

    #[test]
    fn mismatched_pairs_are_rejected() {
        let j = journal(16);
        j.emit(0, 0, kind::BATCH_BEGIN, Json::Null);
        j.emit(0, 1, kind::SOURCE_CALL_END, Json::Null);
        assert!(j.snapshot().validate().is_err());
    }

    #[test]
    fn accounting_mismatch_is_rejected() {
        let j = journal(16);
        j.emit(0, 0, kind::MEMBERSHIP, Json::Null);
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
                j.emit(0, i, kind::SOURCE_CALL_BEGIN, Json::Null);
                j.emit(0, i, kind::SOURCE_CALL_END, Json::Null);
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
            j.emit(0, i, kind::SOURCE_CALL_BEGIN, Json::Null);
            j.emit(0, i, kind::SOURCE_CALL_END, Json::Null);
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
        j.emit(0, 0, kind::SOURCE_CALL_BEGIN, Json::Null);
        assert_eq!(j.snapshot().events.len(), 1);
    }

    #[test]
    fn json_round_trip_through_in_repo_parser() {
        let j = journal(16);
        j.set_meta(Json::obj([("query", Json::str("Q"))]));
        j.emit(
            0,
            2,
            kind::SOURCE_CALL_BEGIN,
            Json::obj([
                ("relation", Json::str("B")),
                ("inputs", Json::Arr(vec![Json::num(1), Json::Null])),
            ]),
        );
        j.emit(0, 5, kind::SOURCE_CALL_END, Json::obj([("ok", Json::Bool(true))]));
        let snap = j.snapshot();
        let text = snap.to_json().to_pretty();
        let parsed = json::parse(&text).expect("parses");
        let back = JournalSnapshot::from_json(&parsed).expect("decodes");
        assert_eq!(back, snap);
        assert_eq!(back.meta.get("query").and_then(Json::as_str), Some("Q"));
    }

    #[test]
    fn compact_entries_expand_to_the_general_path_shapes() {
        // Mirror the same run through the compact fast path and the
        // general emit path; the snapshots must be indistinguishable.
        let fast = journal(64);
        let rich = journal(64);

        fast.record_call(0, 2, 5, "B", "oi", 1, WireOutcome::Ok { rows: 7, latency_ms: 3 });
        rich.emit(
            0,
            2,
            kind::SOURCE_CALL_BEGIN,
            Json::obj([
                ("label", Json::str("B^oi")),
                ("relation", Json::str("B")),
                ("pattern", Json::str("oi")),
                ("attempt", Json::num(1)),
            ]),
        );
        rich.emit(
            0,
            5,
            kind::SOURCE_CALL_END,
            Json::obj([
                ("relation", Json::str("B")),
                ("ok", Json::Bool(true)),
                ("rows", Json::num(7)),
                ("latency_ms", Json::num(3)),
                ("attempt", Json::num(1)),
            ]),
        );

        fast.record_call(
            1,
            5,
            9,
            "C",
            "ooo",
            2,
            WireOutcome::Timeout { latency_ms: 11, timeout_ms: 4 },
        );
        rich.emit(
            1,
            5,
            kind::SOURCE_CALL_BEGIN,
            Json::obj([
                ("label", Json::str("C^ooo")),
                ("relation", Json::str("C")),
                ("pattern", Json::str("ooo")),
                ("attempt", Json::num(2)),
            ]),
        );
        rich.emit(
            1,
            9,
            kind::SOURCE_CALL_END,
            Json::obj([
                ("relation", Json::str("C")),
                ("ok", Json::Bool(false)),
                ("fault", Json::str("timeout")),
                ("latency_ms", Json::num(11)),
                ("attempt", Json::num(2)),
                ("timeout_ms", Json::num(4)),
            ]),
        );

        fast.record_instant(1, 9, "C", InstantPayload::Timeout { latency_ms: 11, attempt: 2 });
        rich.emit(
            1,
            9,
            kind::TIMEOUT,
            Json::obj([
                ("relation", Json::str("C")),
                ("latency_ms", Json::num(11)),
                ("attempt", Json::num(2)),
            ]),
        );

        fast.record_instant(0, 9, "B", InstantPayload::Membership { present: true });
        rich.emit(
            0,
            9,
            kind::MEMBERSHIP,
            Json::obj([("relation", Json::str("B")), ("present", Json::Bool(true))]),
        );

        fast.record_instant(0, 9, "B", InstantPayload::CacheHit { rows: 7, membership: false });
        rich.emit(
            0,
            9,
            kind::CACHE_HIT,
            Json::obj([("relation", Json::str("B")), ("rows", Json::num(7))]),
        );

        fast.record_instant(0, 9, "B", InstantPayload::CacheHit { rows: 7, membership: true });
        rich.emit(
            0,
            9,
            kind::CACHE_HIT,
            Json::obj([
                ("relation", Json::str("B")),
                ("rows", Json::num(7)),
                ("membership", Json::Bool(true)),
            ]),
        );

        fast.record_instant(0, 10, "B", InstantPayload::Retry { attempt: 2, backoff_ms: 0 });
        rich.emit(
            0,
            10,
            kind::RETRY,
            Json::obj([("relation", Json::str("B")), ("attempt", Json::num(2))]),
        );

        fast.record_instant(0, 11, "B", InstantPayload::Retry { attempt: 3, backoff_ms: 16 });
        rich.emit(
            0,
            11,
            kind::RETRY,
            Json::obj([
                ("relation", Json::str("B")),
                ("attempt", Json::num(3)),
                ("backoff_ms", Json::num(16)),
            ]),
        );

        fast.record_instant(0, 10, "B", InstantPayload::Fault { latency_ms: 6, attempt: 2 });
        rich.emit(
            0,
            10,
            kind::FAULT,
            Json::obj([
                ("relation", Json::str("B")),
                ("latency_ms", Json::num(6)),
                ("attempt", Json::num(2)),
            ]),
        );

        let fast_snap = fast.snapshot();
        assert_eq!(fast_snap, rich.snapshot());
        fast_snap.validate().expect("compact journal validates");
    }

    #[test]
    fn pre_interned_ids_record_the_same_events() {
        let by_str = journal(64);
        let by_id = journal(64);
        let rel = by_id.intern("B");
        let pat = by_id.intern("oi");
        assert_eq!(by_id.intern("B"), rel, "interning is idempotent");

        let outcome = WireOutcome::Ok { rows: 3, latency_ms: 2 };
        by_str.record_call(0, 1, 3, "B", "oi", 1, outcome);
        by_id.record_call_by_id(0, 1, 3, rel, pat, 1, outcome);
        let probe = InstantPayload::Membership { present: false };
        by_str.record_instant(0, 3, "B", probe);
        by_id.record_instant_by_id(0, 3, rel, probe);

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
            j.record_call(0, i, i + 1, "R", "o", 1, WireOutcome::Ok { rows: 1, latency_ms: 1 });
        }
        let snap = j.snapshot();
        assert_eq!(snap.emitted, 8, "each call pair takes two seqs");
        assert_eq!(snap.events.len(), 4, "two retained pairs fill the ring");
        assert_eq!(snap.dropped, 4, "two evicted pairs, counted as events");
        assert_eq!(dropped.get(), 4, "mirrored to the counter");
        assert_eq!(snap.events[0].seq, 4, "oldest retained is the third pair");
        snap.validate().expect("whole pairs evict together, so balance holds");
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
