//! Access-pattern-enforcing source adapters.
//!
//! A [`SourceRegistry`] stands in for the paper's collection of web-service
//! operations: the *only* way to read data through it is a call that
//! names a declared access pattern and supplies a value for every input
//! slot — exactly the discipline of Definition 1. Violations are hard
//! errors, never silently-wrong answers, so any plan that evaluates
//! successfully through the registry is, constructively, an executable
//! plan.
//!
//! There is one wire path. [`SourceRegistry::call`],
//! [`SourceRegistry::call_many`] and [`SourceRegistry::membership_test`]
//! all run the same pass over their keys, in issue order, with one retry
//! loop; a serial call is that pass with one lane, an overlapped batch the
//! same pass with [`SourceRegistry::with_io_workers`] lanes of the virtual
//! clock.
//!
//! The transport sits behind the [`Source`] trait. [`InMemorySource`] is
//! the default (a `Database` whose replies are views of its relations,
//! found through lazily-built hash indexes), while
//! [`crate::FaultInjectingSource`] wraps any source with deterministic,
//! seeded failures. Faulted fetches are retried under the registry's
//! [`RetryPolicy`]; when retries are exhausted the call surfaces as
//! [`EngineError::SourceUnavailable`], which the degraded executors in
//! [`crate::physical`] turn into a dropped disjunct instead of an aborted
//! run.

use crate::error::EngineError;
use crate::fault::{RetryPolicy, SourceFault, SourceReply};
use crate::instance::Database;
use crate::stats::CallStats;
use crate::physical::CodeMap;
use crate::relation::Relation;
use crate::value::{rows_to_json, value_to_json, Block, Rows, Tuple, Value};
use lap_ir::{AccessPattern, Schema, Symbol};
use lap_obs::{Counter, Event, Histogram, Journal, Json, Name, Names, Recorder, WireOutcome};
use lap_prng::StdRng;
use std::cmp::Ordering;
use std::collections::HashMap;
use std::sync::Arc;

/// Formats an access pattern's `i`/`o` word into a stack buffer, avoiding
/// a heap allocation on the journal fast path.
fn pattern_word(pattern: AccessPattern, buf: &mut [u8; AccessPattern::MAX_ARITY]) -> &str {
    for (j, slot) in buf.iter_mut().enumerate().take(pattern.arity()) {
        *slot = if pattern.is_input(j) { b'i' } else { b'o' };
    }
    std::str::from_utf8(&buf[..pattern.arity()]).expect("pattern word is ascii")
}

/// Cache key for one source call: relation, pattern, supplied inputs.
type CallKey = (Symbol, AccessPattern, Vec<Option<Value>>);

/// Hard cap on [`SourceRegistry::with_io_workers`]: far above any sane
/// lane count, but keeps the journal's per-lane sub-lane arithmetic
/// (`LANE_STRIDE`) collision-free.
pub const MAX_IO_WORKERS: usize = 256;

/// Journal lane of serial calls and every non-call event (batches,
/// degraded disjuncts, markers).
const BASE_LANE: u64 = 0;

/// Journal sub-lane offset for overlapped calls: a call scheduled on lane
/// `k` journals its pairs on lane `LANE_STRIDE + k`, disjoint from
/// [`BASE_LANE`] because `MAX_IO_WORKERS < LANE_STRIDE`.
const LANE_STRIDE: u64 = 1024;

/// Refuses a reply whose rows are not as long as `pattern`. The block
/// knows its width; only a ragged one is walked, for the length of its
/// first offending row.
fn check_width(pattern: AccessPattern, reply: SourceReply) -> Result<SourceReply, EngineError> {
    let expected = pattern.arity();
    let found = match reply.rows.width() {
        Some(width) => (width != expected).then_some(width),
        None => reply.rows.iter().map(Vec::len).find(|&len| len != expected),
    };
    match found {
        Some(found) => Err(EngineError::ArityMismatch { expected, found }),
        None => Ok(reply),
    }
}

/// Where one wire call was scheduled: what it asks, the journal lane of
/// the virtual lane it occupies, and its start on the virtual wall clock.
#[derive(Clone, Copy)]
struct WireSlot<'k> {
    name: Symbol,
    pattern: AccessPattern,
    inputs: &'k [Option<Value>],
    lane: u64,
    start_ms: u64,
}

/// One index of a relation on a set of input slots: the values of those
/// slots, in column order, → the block of the rows that hold them.
type KeyIndex = CodeMap<Box<[Value]>, Rows>;

/// Orders values by their raw representation: a string by its symbol, so
/// no comparison takes the interner's lock. Not [`Value`]'s order; only
/// good for grouping.
fn raw_cmp(a: &Value, b: &Value) -> Ordering {
    match (a, b) {
        // `Symbol`s order by interning id.
        (Value::Str(a), Value::Str(b)) => a.cmp(b),
        // Short of two strings, `Value`'s own order takes no lock.
        _ => a.cmp(b),
    }
}

/// Builds `rel`'s index on the input slots `mask`. Every block is a range
/// of one store. On a prefix of the columns that store is the relation's
/// own, where rows with equal inputs are already adjacent; on any other
/// slots it is one copy of the rows, stably sorted on those slots, so each
/// group keeps the relation's order.
fn build_index(rel: &Relation, mask: u32) -> KeyIndex {
    let arity = rel.arity();
    let slots: Vec<usize> = (0..arity).filter(|&j| mask & (1 << j) != 0).collect();
    let prefix = slots.iter().enumerate().all(|(k, &j)| k == j);
    let store = if prefix {
        Arc::clone(rel.store())
    } else {
        let rows = rel.store();
        let mut order: Vec<usize> = (0..rows.len()).collect();
        order.sort_by(|&a, &b| {
            let (a, b) = (&rows[a], &rows[b]);
            let mut order = slots.iter().map(|&j| raw_cmp(&a[j], &b[j]));
            order.find(|o| o.is_ne()).unwrap_or(Ordering::Equal)
        });
        Arc::new(order.into_iter().map(|i| rows[i].clone()).collect())
    };
    let same = |a: &Tuple, b: &Tuple| slots.iter().all(|&j| a[j] == b[j]);
    let mut index = KeyIndex::default();
    let mut start = 0;
    for end in 1..=store.len() {
        if end == store.len() || !same(&store[start], &store[end]) {
            let key = slots.iter().map(|&j| store[start][j]).collect();
            index.insert(key, Rows::new(Block::view(&store, start..end, arity)));
            start = end;
        }
    }
    index
}

/// One remote source transport: answers a validated access-pattern call
/// with the matching rows, or fails with a [`SourceFault`].
///
/// [`Source::fetch`] is the paper's source operation (Definition 1) and
/// the transport's one method: call relation `name` through `pattern`
/// with a value for every input slot, get back the matching tuples. Each
/// attempt of the registry's retry loop is one `fetch`, issued on the
/// caller's thread in issue order, so a transport that draws randomness
/// (fault coins, latency jitter) or consumes a recorded stream sees the
/// same sequence of calls at every lane count.
///
/// The registry validates every request against the schema *before* it
/// reaches the transport, so implementations only answer well-formed
/// selections. Latency is virtual (milliseconds of simulated wall clock),
/// so fault/retry schedules are deterministic and tests never sleep.
/// The registry runs every call on the caller's thread, so a transport
/// need not be `Send`.
pub trait Source {
    /// One attempt: the rows of `name` matching the `Some` slots of
    /// `inputs` under `pattern`, with the virtual latency they took, or a
    /// fault.
    ///
    /// The reply's rows are a shared block: a transport over resident data
    /// returns the block it keeps (a reference-count bump), one that reads
    /// rows off a wire builds the block here, once. Either way the caller
    /// never copies it and never sees it change.
    fn fetch(
        &mut self,
        name: Symbol,
        pattern: AccessPattern,
        inputs: &[Option<Value>],
    ) -> Result<SourceReply, SourceFault>;
}

impl<'a> Source for Box<dyn Source + 'a> {
    fn fetch(
        &mut self,
        name: Symbol,
        pattern: AccessPattern,
        inputs: &[Option<Value>],
    ) -> Result<SourceReply, SourceFault> {
        (**self).fetch(name, pattern, inputs)
    }
}

/// The original in-memory transport: a [`Database`] behind access
/// patterns, answering input-slot selections through lazily-built hash
/// indexes, one per (relation, set of input slots), built on its first
/// call. Replies are views of the relation's sorted store: a scan is the
/// whole store, a call on a prefix of the columns a range of it, and a
/// call on other slots a range of one permuted copy, built with the
/// index. A call after that is a lookup through a stack-held key and a
/// reference-count bump, whatever the reply's size, and allocates
/// nothing; a key no row holds gets one shared empty block.
/// Never faults; virtual latency is zero.
pub struct InMemorySource<'a> {
    db: &'a Database,
    /// Indexes keyed by (relation, input-slot mask). `None` disables
    /// indexing (every selection scans).
    indexes: Option<CodeMap<(Symbol, u32), KeyIndex>>,
    /// The reply to a call no row matches, made by the first such call.
    empty: Option<Rows>,
}

impl<'a> InMemorySource<'a> {
    /// An indexed in-memory source over `db`.
    pub fn new(db: &'a Database) -> InMemorySource<'a> {
        InMemorySource { db, indexes: Some(CodeMap::default()), empty: None }
    }

    /// A scanning source: every selection scans the relation and copies
    /// the matching rows into a fresh block — the ablation baseline for
    /// the index experiment (E16).
    pub fn without_indexes(db: &'a Database) -> InMemorySource<'a> {
        InMemorySource { db, indexes: None, empty: None }
    }

    /// Number of indexes built so far; 0 when indexing is disabled. A
    /// scan needs none: it is answered by the relation's own block.
    pub fn index_count(&self) -> usize {
        self.indexes.as_ref().map_or(0, HashMap::len)
    }

    /// Answers an input-slot selection, via an index when enabled.
    fn select_rows(&mut self, name: Symbol, inputs: &[Option<Value>]) -> Rows {
        let db = self.db;
        // The relation may be declared but empty/absent in this instance.
        let Some(rel) = db.relation(name) else {
            return self.empty();
        };
        if rel.arity() != inputs.len() {
            // Stored at another arity than the pattern's, the relation
            // cannot be selected on: its rows go out as they are, for the
            // registry to refuse.
            return Rows::clone(rel.scan());
        }
        let indexes = match &mut self.indexes {
            Some(indexes) if inputs.len() <= AccessPattern::MAX_ARITY => indexes,
            // Unindexed, or wider than any pattern: scan.
            _ => return Rows::new(rel.select(inputs).cloned().collect()),
        };
        let mut key = [Value::Null; AccessPattern::MAX_ARITY];
        let (mut len, mut mask) = (0, 0u32);
        for (j, input) in inputs.iter().enumerate() {
            if let Some(v) = *input {
                key[len] = v;
                len += 1;
                mask |= 1 << j;
            }
        }
        if mask == 0 {
            return Rows::clone(rel.scan());
        }
        let index = indexes.entry((name, mask)).or_insert_with(|| build_index(rel, mask));
        match index.get(&key[..len]) {
            Some(rows) => Rows::clone(rows),
            None => self.empty(),
        }
    }

    /// The shared reply of a call no row matches.
    fn empty(&mut self) -> Rows {
        Rows::clone(self.empty.get_or_insert_with(|| Rows::new(Block::from(Vec::new()))))
    }
}

impl Source for InMemorySource<'_> {
    /// In-memory fetches never fault and carry zero latency.
    fn fetch(
        &mut self,
        name: Symbol,
        _pattern: AccessPattern,
        inputs: &[Option<Value>],
    ) -> Result<SourceReply, SourceFault> {
        Ok(SourceReply { rows: self.select_rows(name, inputs), latency_ms: 0 })
    }
}

/// The registry's traffic tallies. Each is kept twice: in a shared
/// `source.*` recorder counter, and in a per-registry total, so two
/// registries attached to the same [`Recorder`] never see each other's
/// calls in their `stats()` view.
#[derive(Clone, Copy)]
enum Tally {
    /// Positive source calls that hit the wire (cache misses only).
    Calls,
    TuplesReturned,
    CacheHits,
    /// Membership probes issued by negated literals that hit the wire —
    /// *disjoint* from `Calls`, so positive-call and membership traffic
    /// never double-count in metrics snapshots.
    Membership,
    /// Re-attempts after a faulted fetch (attempt 2 and later).
    Retries,
    /// Faults observed from the transport (before any retry succeeds).
    Failures,
}

/// The recorder counter behind each [`Tally`], in declaration order.
const TALLY_METRICS: [&str; 6] = [
    "source.calls",
    "source.tuples_returned",
    "source.cache_hits",
    "source.membership",
    "source.retries",
    "source.failures",
];

/// The mediator's view of the sources: a transport ([`Source`]) hidden
/// behind access patterns, with call statistics, an optional call cache,
/// and a retry loop for faulted fetches.
///
/// Statistics are mirrored into `lap-obs` counters so a pipeline-wide
/// [`Recorder`] can aggregate them, but [`SourceRegistry::stats`] reads a
/// *per-registry* tally: only traffic issued through this registry since
/// construction / attach / [`SourceRegistry::reset_stats`] is reported,
/// even when several registries share one recorder.
pub struct SourceRegistry<'a> {
    source: Box<dyn Source + 'a>,
    schema: &'a Schema,
    recorder: Recorder,
    /// The shared `source.*` counters, indexed by [`Tally`].
    counters: [Counter; TALLY_METRICS.len()],
    rows_per_call: Histogram,
    /// This registry's own traffic, indexed by [`Tally`]; `stats()`
    /// subtracts `baseline`.
    local: [u64; TALLY_METRICS.len()],
    /// Local values at the last attach/reset.
    baseline: [u64; TALLY_METRICS.len()],
    retry: RetryPolicy,
    /// Jitter source for retry backoff; fixed seed keeps runs replayable.
    retry_rng: StdRng,
    /// Virtual milliseconds spent in transport latency + backoff since the
    /// last [`SourceRegistry::reset_clock`], *serially accounted* (every
    /// attempt adds its full cost even when attempts overlap); checked
    /// against the retry policy's per-query deadline budget, which stays a
    /// budget of work, not of elapsed time.
    clock_ms: u64,
    /// Virtual *wall-clock* milliseconds since the last reset: each batch
    /// adds its longest lane, so with one lane it equals `clock_ms`.
    wall_ms: u64,
    /// Wall-clock milliseconds folded in by past resets.
    retired_wall_ms: u64,
    /// Lanes a multi-key batch ([`SourceRegistry::call_many`]) may spread
    /// its wire waits over; 1 = every wait is serial.
    io_workers: usize,
    cache: Option<HashMap<CallKey, Rows>>,
    /// Flight-recorder journal (attached via [`SourceRegistry::recording`]
    /// when the recorder carries one).
    journal: Option<Journal>,
    /// Memoized journal interner ids per (relation, pattern). A plan
    /// touches a handful of distinct accesses, so a linear scan beats a
    /// hash map and keeps string hashing off the per-call fast path.
    journal_call_ids: Vec<(Symbol, AccessPattern, Name, Name)>,
    /// Memoized journal interner ids per relation (instant events).
    journal_rel_ids: Vec<(Symbol, Name)>,
    /// [`SourceRegistry::serve_view`]'s relation and rows.
    view: Option<(Symbol, Rows)>,
}

impl<'a> SourceRegistry<'a> {
    /// A registry without call caching over an indexed in-memory source:
    /// every call hits the source.
    pub fn new(db: &'a Database, schema: &'a Schema) -> SourceRegistry<'a> {
        SourceRegistry::with_source(Box::new(InMemorySource::new(db)), schema)
    }

    /// A registry with call caching: repeated identical calls are answered
    /// locally (the "semijoin-style" optimization a mediator would apply).
    pub fn with_cache(db: &'a Database, schema: &'a Schema) -> SourceRegistry<'a> {
        SourceRegistry {
            cache: Some(HashMap::new()),
            ..SourceRegistry::new(db, schema)
        }
    }

    /// A registry whose sources answer every selection by scanning — the
    /// ablation baseline for the index experiment (E16).
    pub fn without_indexes(db: &'a Database, schema: &'a Schema) -> SourceRegistry<'a> {
        SourceRegistry::with_source(Box::new(InMemorySource::without_indexes(db)), schema)
    }

    /// A registry over an arbitrary transport. This is how fault-injecting
    /// or remote sources plug in; [`SourceRegistry::new`] is the in-memory
    /// special case.
    pub fn with_source(source: Box<dyn Source + 'a>, schema: &'a Schema) -> SourceRegistry<'a> {
        SourceRegistry {
            source,
            schema,
            recorder: Recorder::disabled(),
            counters: TALLY_METRICS.map(|_| Counter::detached()),
            rows_per_call: Histogram::detached(),
            local: [0; TALLY_METRICS.len()],
            baseline: [0; TALLY_METRICS.len()],
            retry: RetryPolicy::default(),
            retry_rng: StdRng::seed_from_u64(0x5EED_BACC_0FF5),
            clock_ms: 0,
            wall_ms: 0,
            retired_wall_ms: 0,
            io_workers: 1,
            cache: None,
            journal: None,
            journal_call_ids: Vec::new(),
            journal_rel_ids: Vec::new(),
            view: None,
        }
    }

    /// Wraps the current transport in a deterministic
    /// [`crate::FaultInjectingSource`] with configuration `cfg`.
    pub fn with_fault_injection(self, cfg: crate::FaultConfig) -> SourceRegistry<'a> {
        SourceRegistry {
            source: Box::new(crate::FaultInjectingSource::new(self.source, cfg)),
            ..self
        }
    }

    /// Sets the retry policy for faulted fetches (default: fail on the
    /// first fault, no backoff — the legacy behaviour).
    pub fn with_retry(mut self, policy: RetryPolicy) -> SourceRegistry<'a> {
        self.retry = policy;
        self
    }

    /// Sets the number of lanes the wire pipeline may use for a multi-key
    /// batch (clamped to `1..=`[`MAX_IO_WORKERS`]). The lane count is the
    /// only difference between serial and overlapped execution: with the
    /// default of 1 a batch's wire waits add up, with more
    /// [`SourceRegistry::call_many`] spreads them over that many lanes of
    /// the virtual clock. Lanes are accounting, not threads: the source
    /// calls run on the calling thread, in issue order, either way.
    pub fn with_io_workers(mut self, workers: usize) -> SourceRegistry<'a> {
        self.io_workers = workers.clamp(1, MAX_IO_WORKERS);
        self
    }

    /// Answers every later positive call of relation `name` with `rows`,
    /// ahead of the schema and the transport: a local view (Example 8's
    /// `dom(x)`), not a source. Its calls reach no counter or journal, so
    /// they cost nothing and a replay rebuilds the view.
    pub fn serve_view(&mut self, name: Symbol, rows: Rows) {
        self.view = Some((name, rows));
    }

    /// Number of virtual lanes overlapped batches may use.
    pub fn io_workers(&self) -> usize {
        self.io_workers
    }

    /// Attaches this registry to `recorder`: call statistics register as
    /// the `source.*` counters and the `source.rows_per_call` histogram.
    /// The shared counters may already carry values from other components;
    /// `stats()` keeps reporting only this registry's own traffic.
    pub fn recording(mut self, recorder: &Recorder) -> SourceRegistry<'a> {
        self.recorder = recorder.clone();
        self.counters = TALLY_METRICS.map(|name| recorder.counter(name));
        self.rows_per_call = recorder.histogram("source.rows_per_call");
        self.journal = recorder.journal().cloned();
        self
    }

    /// Records one journal event on the base lane, stamped with this
    /// registry's virtual clock; `event` builds it from the journal's name
    /// table. No-op without an attached journal.
    pub fn journal_record(&self, event: impl FnOnce(&mut Names) -> Event) {
        if let Some(journal) = &self.journal {
            journal.record(BASE_LANE, self.virtual_elapsed_ms(), event);
        }
    }

    /// Journal interner ids for a (relation, pattern) access, memoized so
    /// the steady-state call path never hashes a string. Only called with
    /// a journal attached.
    fn journal_call_ids(&mut self, name: Symbol, pattern: AccessPattern) -> (Name, Name) {
        if let Some(hit) = self
            .journal_call_ids
            .iter()
            .find(|(n, p, ..)| *n == name && *p == pattern)
        {
            return (hit.2, hit.3);
        }
        let journal = self.journal.as_ref().expect("memo used while journaling");
        let mut buf = [0u8; AccessPattern::MAX_ARITY];
        let rel = journal.intern(name.as_str());
        let pat = journal.intern(pattern_word(pattern, &mut buf));
        self.journal_call_ids.push((name, pattern, rel, pat));
        (rel, pat)
    }

    /// Journal interner id for a relation, memoized like
    /// [`SourceRegistry::journal_call_ids`].
    fn journal_rel_id(&mut self, name: Symbol) -> Name {
        if let Some(hit) = self.journal_rel_ids.iter().find(|(n, _)| *n == name) {
            return hit.1;
        }
        let journal = self.journal.as_ref().expect("memo used while journaling");
        let rel = journal.intern(name.as_str());
        self.journal_rel_ids.push((name, rel));
        rel
    }

    /// Records one instant event about relation `name` at an explicit
    /// lane and timestamp; `event` builds it from the relation's id. No-op
    /// without an attached journal.
    fn journal_instant(
        &mut self,
        lane: u64,
        ts: u64,
        name: Symbol,
        event: impl FnOnce(Name) -> Event,
    ) {
        if self.journal.is_some() {
            let relation = self.journal_rel_id(name);
            if let Some(journal) = &self.journal {
                journal.record(lane, ts, |_| event(relation));
            }
        }
    }

    /// Adds `n` to one traffic tally: the shared recorder counter and
    /// this registry's own total move together.
    fn tally(&mut self, which: Tally, n: u64) {
        self.counters[which as usize].add(n);
        self.local[which as usize] += n;
    }

    /// This registry's own total of one tally since construction / the
    /// last [`SourceRegistry::reset_stats`].
    fn since_reset(&self, which: Tally) -> u64 {
        self.local[which as usize].saturating_sub(self.baseline[which as usize])
    }

    /// The recorder this registry reports to (disabled by default).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// The schema this registry enforces.
    pub fn schema(&self) -> &Schema {
        self.schema
    }

    /// Call statistics accumulated through *this* registry since
    /// construction / the last [`SourceRegistry::reset_stats`]. `calls`
    /// counts positive calls only — membership probes are reported
    /// disjointly by [`SourceRegistry::membership_probes`] — while
    /// `tuples_returned` and `cache_hits` cover probes too: a wire probe
    /// adds its reply's rows, a cached one a cache hit.
    pub fn stats(&self) -> CallStats {
        CallStats {
            calls: self.since_reset(Tally::Calls),
            tuples_returned: self.since_reset(Tally::TuplesReturned),
            cache_hits: self.since_reset(Tally::CacheHits),
        }
    }

    /// Membership probes ([`SourceRegistry::membership_test`]) that hit
    /// the wire through this registry since construction / the last
    /// [`SourceRegistry::reset_stats`]. Disjoint from `stats().calls`.
    pub fn membership_probes(&self) -> u64 {
        self.since_reset(Tally::Membership)
    }

    /// Retried fetch attempts issued through this registry since
    /// construction / the last [`SourceRegistry::reset_stats`].
    pub fn retries_observed(&self) -> u64 {
        self.since_reset(Tally::Retries)
    }

    /// Transport faults observed through this registry since construction
    /// / the last [`SourceRegistry::reset_stats`] (including ones a retry
    /// later recovered from).
    pub fn failures_observed(&self) -> u64 {
        self.since_reset(Tally::Failures)
    }

    /// Resets the call statistics view (the cache, if any, is kept; the
    /// recorder's lifetime counters are monotone and keep their values).
    pub fn reset_stats(&mut self) {
        self.baseline = self.local;
    }

    /// Lifetime virtual *wall-clock* milliseconds spent waiting on
    /// transport latency and retry backoff, across
    /// [`SourceRegistry::reset_clock`] resets (which only restart the
    /// *deadline* window, not this total). Under serial execution this
    /// equals the serial sum of all waits; under overlapped execution
    /// (`io_workers > 1`) each batch contributes only its longest lane —
    /// concurrent waits count once.
    pub fn virtual_elapsed_ms(&self) -> u64 {
        self.retired_wall_ms + self.wall_ms
    }

    /// Restarts the deadline window of the virtual clock (the retry
    /// policy's per-query budget) — call between independent queries. The
    /// elapsed time is folded into [`SourceRegistry::virtual_elapsed_ms`].
    pub fn reset_clock(&mut self) {
        self.clock_ms = 0;
        self.retired_wall_ms += self.wall_ms;
        self.wall_ms = 0;
    }

    /// Calls relation `name` through `pattern`, supplying `inputs[j] =
    /// Some(v)` for every input slot `j`. Returns the tuples matching the
    /// supplied inputs — the full rows, as a web service would return them;
    /// any additional client-side filtering (bound output slots, repeated
    /// variables) is the evaluator's job. The rows come back as the shared
    /// block the transport (or the call cache) holds, each of them checked
    /// to be as long as the pattern: read it, do not expect to own it.
    ///
    /// Errors if the pattern is not declared for the relation or an input
    /// slot has no value. Values supplied at output slots are rejected:
    /// per the paper's footnote 4, a source cannot accept them — the caller
    /// must ignore the binding and filter after the call.
    ///
    /// A single call is a one-key [`SourceRegistry::call_many`] batch that
    /// borrows its inputs: one lane, journaled on the base lane.
    pub fn call(
        &mut self,
        name: Symbol,
        pattern: AccessPattern,
        inputs: &[Option<Value>],
    ) -> Result<Rows, EngineError> {
        let (mut rows, _) = self.request(name, pattern, &[inputs], None)?;
        Ok(rows.pop().expect("one key, one reply"))
    }

    /// Calls relation `name` once per key in `keys`, overlapping the wire
    /// waits across up to [`SourceRegistry::with_io_workers`] virtual
    /// lanes. Results come back in issue order, and answers, counters,
    /// retry/failure accounting and the terminal error do not depend on
    /// the lane count — only the *wall* clock does: a batch charges its
    /// longest lane, which with one lane is the serial sum. Each key gets
    /// a shared block as in [`SourceRegistry::call`]; with the call cache
    /// on, duplicate keys of one batch get the same block. A batch stops
    /// at its first error: the keys after it are never sent.
    pub fn call_many(
        &mut self,
        name: Symbol,
        pattern: AccessPattern,
        keys: &[Vec<Option<Value>>],
    ) -> Result<Vec<Rows>, EngineError> {
        Ok(self.request(name, pattern, keys, None)?.0)
    }

    /// The one wire path — every positive call, batch and membership
    /// probe pass is one pass over `keys`, in issue order. Each key is
    /// validated, then answered from the cache when possible (a repeated
    /// key of this batch finds its first occurrence there), otherwise
    /// fetched with retries on the earliest-free lane
    /// ([`SourceRegistry::fetch_wire`]), which journals each attempt at its
    /// lane timestamps as it happens. Counters and the cache are updated
    /// per key, and the wall clock then advances by the longest lane.
    ///
    /// The pass stops at the first error: nothing after it is drawn from
    /// the transport, tallied or journaled. The lane count is the only
    /// thing that distinguishes serial from overlapped execution.
    ///
    /// With `probes` (the ground tuple each key tests, one per key) the
    /// pass is a probe pass: it returns one verdict per key — whether the
    /// tested tuple is in that key's block — asked of the block here once,
    /// for wire and cached replies alike, and no blocks. A probe pass is
    /// always serial, on the base lane, whatever the lane count: each probe
    /// then starts where the previous one ended, so the stamps and the
    /// wall clock are those of one-key requests issued in turn. Otherwise
    /// it returns one row block per key and no verdicts.
    fn request<K: AsRef<[Option<Value>]>>(
        &mut self,
        name: Symbol,
        pattern: AccessPattern,
        keys: &[K],
        probes: Option<&[&[Value]]>,
    ) -> Result<(Vec<Rows>, Vec<bool>), EngineError> {
        let view = self.view.as_ref().filter(|(v, _)| *v == name && probes.is_none());
        if let Some((_, rows)) = view {
            return Ok((vec![Rows::clone(rows); keys.len()], Vec::new()));
        }
        // Nothing to overlap: one lane, journaled on the base lane instead
        // of a per-lane sub-lane.
        let serial = self.io_workers <= 1 || keys.len() <= 1 || probes.is_some();
        let workers = if serial { 1 } else { self.io_workers };
        let base_wall = self.virtual_elapsed_ms();
        let mut lane_free = [base_wall; MAX_IO_WORKERS];
        let lane_free = &mut lane_free[..workers];
        let (mut rows_out, mut verdicts) = match probes {
            Some(probes) => (Vec::new(), Vec::with_capacity(probes.len())),
            None => (Vec::with_capacity(keys.len()), Vec::new()),
        };
        let mut failed = None;
        for (i, key) in keys.iter().enumerate() {
            let key = key.as_ref();
            if let Err(e) = self.validate(name, pattern, key) {
                failed = Some(e);
                break;
            }
            let probe = probes.map(|probes| probes[i]);
            // Greedy earliest-free lane, in issue order.
            let k = (0..workers).min_by_key(|&k| lane_free[k]).unwrap_or(0);
            let hit = self
                .cache
                .as_ref()
                .and_then(|cache| cache.get(&(name, pattern, key.to_vec())).cloned());
            // A wire reply carries the time its call freed its lane.
            let (rows, wire_end) = match hit {
                Some(rows) => {
                    // A cache hit is stamped when it is issued.
                    self.tally(Tally::CacheHits, 1);
                    let (rows_hit, membership) = (rows.len() as u64, probe.is_some());
                    self.journal_instant(BASE_LANE, lane_free[k], name, |relation| {
                        Event::CacheHit { relation, rows: rows_hit, membership }
                    });
                    (rows, None)
                }
                None => {
                    let lane = if serial { BASE_LANE } else { LANE_STRIDE + k as u64 };
                    let start_ms = lane_free[k];
                    let slot = WireSlot { name, pattern, inputs: key, lane, start_ms };
                    let (end_ms, reply) = self.fetch_wire(&slot);
                    lane_free[k] = end_ms;
                    match reply {
                        Ok(reply) => (reply.rows, Some(end_ms)),
                        Err(e) => {
                            failed = Some(e);
                            break;
                        }
                    }
                }
            };
            if wire_end.is_some() {
                self.tally(Tally::TuplesReturned, rows.len() as u64);
                if let Some(cache) = &mut self.cache {
                    cache.insert((name, pattern, key.to_vec()), rows.clone());
                }
            }
            match probe {
                Some(values) => {
                    let present = rows.contains(values);
                    if let Some(end_ms) = wire_end {
                        self.tally(Tally::Membership, 1);
                        let probe = |relation| Event::Membership { relation, present };
                        self.journal_instant(BASE_LANE, end_ms, name, probe);
                    }
                    verdicts.push(present);
                }
                None => {
                    if wire_end.is_some() {
                        self.tally(Tally::Calls, 1);
                        self.rows_per_call.record(rows.len() as u64);
                    }
                    rows_out.push(rows);
                }
            }
        }
        self.wall_ms += lane_free.iter().max().map_or(0, |end| end - base_wall);
        match failed {
            Some(e) => Err(e),
            None => Ok((rows_out, verdicts)),
        }
    }

    /// Runs one wire call at its slot — the only retry loop: each attempt
    /// is one [`Source::fetch`], journaled at its lane timestamps as it
    /// happens, and faults are retried with exponential backoff (virtual
    /// time) until an attempt succeeds, the attempt budget is spent, or
    /// the per-query deadline is exceeded. Returns when the call frees its
    /// lane, with the reply or the terminal error.
    ///
    /// Every transport's rows pass through here, so this is where a reply
    /// whose rows are not as long as the pattern is refused: downstream
    /// code indexes rows by pattern position.
    fn fetch_wire(&mut self, slot: &WireSlot<'_>) -> (u64, Result<SourceReply, EngineError>) {
        let WireSlot { name, pattern, inputs, .. } = *slot;
        // One sampling decision covers every attempt of this call, so the
        // journal's begin/end pairs stay balanced under sampling.
        let journaled = self
            .journal
            .as_ref()
            .is_some_and(Journal::should_sample_call);
        let capture = journaled && self.journal.as_ref().is_some_and(Journal::capture_rows);
        let max_attempts = self.retry.max_attempts.max(1);
        let mut t = slot.start_ms;
        // The backoff the previous failed attempt scheduled, attributed to
        // the retry marker it delayed.
        let mut prior_backoff = 0u64;
        let mut attempt = 0u32;
        loop {
            attempt += 1;
            if attempt > 1 {
                drop(self.recorder.span_lazy(|| format!("source.retry {name} attempt {attempt}")));
                self.tally(Tally::Retries, 1);
            }
            let outcome = self.source.fetch(name, pattern, inputs);
            let latency = match &outcome {
                Ok(reply) => reply.latency_ms,
                Err(fault) => fault.latency_ms(),
            };
            self.clock_ms += latency;
            if journaled {
                self.journal_attempt(slot, capture, attempt, prior_backoff, t..t + latency, outcome.as_ref());
            }
            t += latency;
            let fault = match outcome {
                Ok(reply) => return (t, check_width(pattern, reply)),
                Err(fault) => fault,
            };
            self.tally(Tally::Failures, 1);
            let deadline_hit = self
                .retry
                .deadline_ms
                .is_some_and(|d| self.clock_ms >= d);
            if attempt >= max_attempts || deadline_hit {
                let reason = if deadline_hit && attempt < max_attempts {
                    format!(
                        "{fault}; per-query deadline budget of {}ms exhausted",
                        self.retry.deadline_ms.unwrap_or(0)
                    )
                } else {
                    fault.to_string()
                };
                let error =
                    EngineError::SourceUnavailable { relation: name.to_string(), attempts: attempt, reason };
                return (t, Err(error));
            }
            prior_backoff = self.retry.backoff_ms(attempt, &mut self.retry_rng);
            self.clock_ms += prior_backoff;
            t += prior_backoff;
        }
    }

    /// Journals one wire attempt — the only attempt-journaling routine:
    /// the retry marker it was delayed by (attempt 2 and later), the
    /// begin/end pair as one atomic ring slot (so concurrent lanes never
    /// interleave inside a pair, and eviction keeps both halves or
    /// neither), carrying inputs and rows at the replay tier so a journal
    /// alone can re-drive the run, and the fault/timeout instant of a
    /// failed one.
    fn journal_attempt(
        &mut self,
        slot: &WireSlot<'_>,
        capture: bool,
        attempt: u32,
        prior_backoff: u64,
        ts: std::ops::Range<u64>,
        outcome: Result<&SourceReply, &SourceFault>,
    ) {
        let WireSlot { name, pattern, inputs, lane, .. } = *slot;
        let attempt = u64::from(attempt);
        if attempt > 1 {
            let retry = |relation| Event::Retry { relation, attempt, backoff_ms: prior_backoff };
            self.journal_instant(lane, ts.start, name, retry);
        }
        let wire = match outcome {
            Ok(reply) => {
                WireOutcome::Ok { rows: reply.rows.len() as u64, latency_ms: reply.latency_ms }
            }
            Err(&SourceFault::Unavailable { latency_ms }) => {
                WireOutcome::Unavailable { latency_ms }
            }
            Err(&SourceFault::Timeout { latency_ms, timeout_ms }) => {
                WireOutcome::Timeout { latency_ms, timeout_ms }
            }
        };
        let inputs = capture.then(|| {
            let slots = inputs.iter().map(|slot| slot.map_or(Json::Null, value_to_json));
            Box::new(Json::Arr(slots.collect()))
        });
        let rows = outcome.ok().filter(|_| capture);
        let rows_data = rows.map(|reply| Box::new(rows_to_json(&reply.rows)));
        let (relation, pattern) = self.journal_call_ids(name, pattern);
        if let Some(journal) = &self.journal {
            journal.record_call(lane, ts.clone(), |_| {
                (
                    Event::CallBegin { relation, pattern, attempt, inputs },
                    Event::CallEnd { relation, attempt, outcome: wire, rows_data },
                )
            });
        }
        if let Err(fault) = outcome {
            let event = |relation| match *fault {
                SourceFault::Unavailable { latency_ms } => {
                    Event::Fault { relation, latency_ms, attempt }
                }
                SourceFault::Timeout { latency_ms, .. } => {
                    Event::Timeout { relation, latency_ms, attempt }
                }
            };
            self.journal_instant(lane, ts.end, name, event);
        }
    }

    /// Schema validation shared by positive calls and membership probes.
    fn validate(
        &self,
        name: Symbol,
        pattern: AccessPattern,
        inputs: &[Option<Value>],
    ) -> Result<(), EngineError> {
        let decl = self
            .schema
            .relation(name)
            .ok_or_else(|| EngineError::UnknownRelation(name.to_string()))?;
        if !decl.patterns.contains(&pattern) {
            return Err(EngineError::PatternNotAvailable {
                relation: name.to_string(),
                requested: pattern,
            });
        }
        if inputs.len() != pattern.arity() {
            return Err(EngineError::ArityMismatch {
                expected: pattern.arity(),
                found: inputs.len(),
            });
        }
        for (j, input) in inputs.iter().enumerate() {
            match (pattern.is_input(j), input.is_some()) {
                (true, false) => {
                    return Err(EngineError::MissingInput {
                        relation: name.to_string(),
                        pattern,
                        position: j,
                    })
                }
                (false, true) => {
                    return Err(EngineError::NotExecutable {
                        literal: format!("{name}^{pattern}"),
                        reason: format!("value supplied at output slot {j}"),
                    })
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// Tests whether the fully-ground tuple `values` is in relation `name`,
    /// using the most selective available pattern (all variables bound, so
    /// every pattern is usable — the one with the most input slots
    /// transfers the fewest rows). This is how negated literals are
    /// checked.
    ///
    /// Probes are accounted under `source.membership`, *disjoint* from the
    /// positive `source.calls` counter; cached probes count as cache hits
    /// like any other call. The verdict returned is the one the wire path
    /// computed (and, for a wire probe, journaled as `Membership {
    /// present }`), answered by the reply block itself, which indexes its
    /// rows once it is probed again.
    pub fn membership_test(&mut self, name: Symbol, values: &[Value]) -> Result<bool, EngineError> {
        let present = self.probe_pass(name, &[values])?;
        Ok(present[0])
    }

    /// Tests a batch of fully-ground tuples for membership in relation
    /// `name`, in order: the probe pattern is resolved once and the whole
    /// batch is one serial probe pass of the wire path. Verdicts, counters,
    /// the cache, journal events, their stamps and the virtual clock are
    /// exactly those of calling [`SourceRegistry::membership_test`] once
    /// per key, at any lane count — including where it stops: at the first
    /// failing probe, or at a key of the wrong length, whose
    /// [`EngineError::ArityMismatch`] comes after the keys before it were
    /// probed. An empty batch is `Ok(vec![])`, without even looking the
    /// relation up. The vectorized negation filter hands the whole
    /// distinct-key set of a batch window here.
    pub fn membership_test_many(
        &mut self,
        name: Symbol,
        keys: &[Vec<Value>],
    ) -> Result<Vec<bool>, EngineError> {
        if keys.is_empty() {
            return Ok(Vec::new());
        }
        let keys: Vec<&[Value]> = keys.iter().map(Vec::as_slice).collect();
        self.probe_pass(name, &keys)
    }

    /// One probe pass over a non-empty batch: the keys before the first
    /// one of the wrong length are probed, then that key's arity error is
    /// returned.
    fn probe_pass(&mut self, name: Symbol, values: &[&[Value]]) -> Result<Vec<bool>, EngineError> {
        let decl = self
            .schema
            .relation(name)
            .ok_or_else(|| EngineError::UnknownRelation(name.to_string()))?;
        let Some(pattern) = decl.usable_pattern(|_| true) else {
            return Err(EngineError::NotExecutable {
                literal: name.to_string(),
                reason: "relation has no access pattern at all".to_owned(),
            });
        };
        let arity = pattern.arity();
        let malformed = values.iter().position(|v| v.len() != arity);
        let probes = &values[..malformed.unwrap_or(values.len())];
        let inputs: Vec<Vec<Option<Value>>> = probes
            .iter()
            .map(|v| (0..arity).map(|j| pattern.is_input(j).then(|| v[j])).collect())
            .collect();
        let (_, present) = self.request(name, pattern, &inputs, Some(probes))?;
        match malformed {
            Some(k) => Err(EngineError::ArityMismatch { expected: arity, found: values[k].len() }),
            None => Ok(present),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lap_ir::Schema;
    use std::cell::RefCell;
    use std::rc::Rc;
    use std::thread::{self, ThreadId};

    fn setup() -> (Database, Schema) {
        let db = Database::from_facts(
            r#"B(1, "tolkien", "lotr"). B(2, "tolkien", "hobbit"). B(3, "adams", "hhgttg"). L(1)."#,
        )
        .unwrap();
        let schema = Schema::from_patterns(&[("B", "ioo"), ("B", "oio"), ("L", "o")]).unwrap();
        (db, schema)
    }

    #[test]
    fn call_with_author_input() {
        let (db, schema) = setup();
        let mut reg = SourceRegistry::new(&db, &schema);
        let p = AccessPattern::parse("oio").unwrap();
        let rows = reg
            .call(Symbol::intern("B"), p, &[None, Some(Value::str("tolkien")), None])
            .unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(reg.stats().calls, 1);
        assert_eq!(reg.stats().tuples_returned, 2);
    }

    #[test]
    fn missing_input_is_an_error() {
        let (db, schema) = setup();
        let mut reg = SourceRegistry::new(&db, &schema);
        let p = AccessPattern::parse("oio").unwrap();
        let err = reg.call(Symbol::intern("B"), p, &[None, None, None]).unwrap_err();
        assert!(matches!(err, EngineError::MissingInput { position: 1, .. }));
    }

    #[test]
    fn undeclared_pattern_is_an_error() {
        let (db, schema) = setup();
        let mut reg = SourceRegistry::new(&db, &schema);
        let p = AccessPattern::parse("ooo").unwrap(); // B has no free scan
        let err = reg
            .call(Symbol::intern("B"), p, &[None, None, None])
            .unwrap_err();
        assert!(matches!(err, EngineError::PatternNotAvailable { .. }));
    }

    #[test]
    fn value_at_output_slot_is_rejected() {
        let (db, schema) = setup();
        let mut reg = SourceRegistry::new(&db, &schema);
        let p = AccessPattern::parse("oio").unwrap();
        let err = reg
            .call(
                Symbol::intern("B"),
                p,
                &[Some(Value::int(1)), Some(Value::str("tolkien")), None],
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::NotExecutable { .. }));
    }

    #[test]
    fn membership_test_uses_best_pattern() {
        let (db, schema) = setup();
        let mut reg = SourceRegistry::new(&db, &schema);
        assert!(reg.membership_test(Symbol::intern("L"), &[Value::int(1)]).unwrap());
        assert!(!reg.membership_test(Symbol::intern("L"), &[Value::int(2)]).unwrap());
        assert!(reg
            .membership_test(
                Symbol::intern("B"),
                &[Value::int(1), Value::str("tolkien"), Value::str("lotr")]
            )
            .unwrap());
    }

    /// Satellite pin: with both a free scan and a selective pattern
    /// declared, membership probes must use the pattern with the most
    /// input slots — transferring at most the one matching row instead of
    /// the whole relation.
    #[test]
    fn membership_prefers_most_selective_pattern() {
        let mut db = Database::new();
        for i in 0..50i64 {
            db.insert("R", vec![Value::int(i), Value::int(i * 2), Value::int(i * 3)])
                .unwrap();
        }
        let schema = Schema::from_patterns(&[("R", "ooo"), ("R", "iio")]).unwrap();
        let mut reg = SourceRegistry::new(&db, &schema);
        assert!(reg
            .membership_test(Symbol::intern("R"), &[Value::int(7), Value::int(14), Value::int(21)])
            .unwrap());
        // R^iio pins columns 0 and 1: exactly one row matches (7, 14, _).
        // A free scan via R^ooo would have transferred all 50 rows.
        assert_eq!(reg.stats().tuples_returned, 1, "probe must not free-scan R");
        assert_eq!(reg.membership_probes(), 1);
    }

    #[test]
    fn cache_answers_repeated_calls() {
        let (db, schema) = setup();
        let mut reg = SourceRegistry::with_cache(&db, &schema);
        let p = AccessPattern::parse("ioo").unwrap();
        let args = [Some(Value::int(1)), None, None];
        reg.call(Symbol::intern("B"), p, &args).unwrap();
        reg.call(Symbol::intern("B"), p, &args).unwrap();
        let s = reg.stats();
        assert_eq!(s.calls, 1);
        assert_eq!(s.cache_hits, 1);
    }

    /// With a cache, a journal and a multi-key batch on one lane, the
    /// cache-hit instants land in issue order between the wire pairs, at
    /// the time each key was issued: the batch journals exactly what a
    /// loop of single calls does.
    #[test]
    fn one_lane_batch_journals_cache_hits_in_issue_order() {
        use lap_obs::journal::kind::{CACHE_HIT, SOURCE_CALL_BEGIN, SOURCE_CALL_END};
        let (db, schema) = setup();
        let p = AccessPattern::parse("ioo").unwrap();
        let b = Symbol::intern("B");
        let key = |i: i64| vec![Some(Value::int(i)), None, None];
        // Key 2 is cached beforehand; the second key 1 duplicates the first.
        let keys = [key(1), key(2), key(1), key(3)];
        let journal_of = |batched: bool| {
            let rec = Recorder::with_journal(lap_obs::JournalConfig::light());
            let latency = crate::FaultConfig { latency_ms: 10, ..crate::FaultConfig::with_rate(0.0, 1) };
            let mut reg = SourceRegistry::with_cache(&db, &schema)
                .with_fault_injection(latency)
                .recording(&rec);
            reg.call(b, p, &key(2)).unwrap();
            if batched {
                reg.call_many(b, p, &keys).unwrap();
            } else {
                for k in &keys {
                    reg.call(b, p, k).unwrap();
                }
            }
            assert_eq!((reg.stats().calls, reg.stats().cache_hits), (3, 2));
            rec.journal().unwrap().snapshot()
        };
        let batched = journal_of(true);
        assert_eq!(batched, journal_of(false));
        let events: Vec<_> = batched.events.iter().map(|e| (e.kind.as_str(), e.ts_ms)).collect();
        assert_eq!(
            events,
            [
                (SOURCE_CALL_BEGIN, 0),
                (SOURCE_CALL_END, 10),
                (SOURCE_CALL_BEGIN, 10),
                (SOURCE_CALL_END, 20),
                (CACHE_HIT, 20),
                (CACHE_HIT, 20),
                (SOURCE_CALL_BEGIN, 20),
                (SOURCE_CALL_END, 30),
            ]
        );
    }

    /// A transport that logs on which thread, for which key and with what
    /// outcome each fetch attempt runs. It holds an `Rc`, so it is not
    /// `Send`: the registry does not need it.
    struct LoggingSource<S> {
        inner: S,
        log: AttemptLog,
    }

    /// The thread, the key and the success of each attempt, in the order
    /// they ran.
    type AttemptLog = Rc<RefCell<Vec<(ThreadId, Vec<Option<Value>>, bool)>>>;

    impl<S: Source> Source for LoggingSource<S> {
        fn fetch(
            &mut self,
            name: Symbol,
            pattern: AccessPattern,
            inputs: &[Option<Value>],
        ) -> Result<SourceReply, SourceFault> {
            let outcome = self.inner.fetch(name, pattern, inputs);
            self.log.borrow_mut().push((thread::current().id(), inputs.to_vec(), outcome.is_ok()));
            outcome
        }
    }

    /// The transport contract: one `fetch` per attempt, on the caller's
    /// thread, in issue order, a retried key's attempts back to back — the
    /// same sequence at one lane and at eight. Only the wall clock tells
    /// the two apart: eight lanes overlap the 20 ms waits.
    #[test]
    fn every_lane_count_issues_the_same_attempts_on_the_callers_thread() {
        let (db, schema) = setup();
        let p = AccessPattern::parse("ioo").unwrap();
        let keys: Vec<_> = (1..=16).map(|i| vec![Some(Value::int(i)), None, None]).collect();
        let faults = crate::FaultConfig { latency_ms: 20, ..crate::FaultConfig::with_rate(0.3, 5) };
        let run = |workers: usize| {
            let log = AttemptLog::default();
            let inner = crate::FaultInjectingSource::new(InMemorySource::new(&db), faults);
            let source = LoggingSource { inner, log: Rc::clone(&log) };
            let mut reg = SourceRegistry::with_source(Box::new(source), &schema)
                .with_retry(RetryPolicy::standard())
                .with_io_workers(workers);
            let rows = reg.call_many(Symbol::intern("B"), p, &keys).unwrap();
            let counters = (reg.stats(), reg.retries_observed(), reg.failures_observed());
            (rows, counters, log.take(), reg.virtual_elapsed_ms())
        };
        let (rows, counters, log, serial_ms) = run(1);
        let (_, retries, failures) = counters;
        assert!(retries > 0, "the fault rate must force retries");
        assert_eq!(failures, retries, "every key ends in a success");
        assert_eq!(log.len() as u64, keys.len() as u64 + retries, "one entry per attempt");
        let caller = thread::current().id();
        assert!(log.iter().all(|(t, ..)| *t == caller), "every attempt runs on the caller's thread");
        // Each run of equal keys is one call: its attempts are adjacent,
        // only the last succeeds, and the calls come in issue order.
        let mut issued = Vec::new();
        for (i, (_, key, ok)) in log.iter().enumerate() {
            let last = log.get(i + 1).is_none_or(|(_, next, _)| next != key);
            assert_eq!(*ok, last, "attempt {i} of key {key:?}");
            if last {
                issued.push(key.clone());
            }
        }
        assert_eq!(issued, keys, "calls in issue order");
        let (rows_8, counters_8, log_8, overlapped_ms) = run(8);
        assert_eq!((rows_8, counters_8, log_8), (rows, counters, log), "8 lanes, same attempts");
        assert!(overlapped_ms < serial_ms, "{overlapped_ms} ms over 8 lanes vs {serial_ms} ms serial");
    }

    #[test]
    fn recording_registry_mirrors_stats_into_recorder() {
        let (db, schema) = setup();
        let rec = Recorder::new();
        rec.counter("source.calls").add(10); // pre-existing traffic
        let mut reg = SourceRegistry::with_cache(&db, &schema).recording(&rec);
        let p = AccessPattern::parse("oio").unwrap();
        let args = [None, Some(Value::str("tolkien")), None];
        reg.call(Symbol::intern("B"), p, &args).unwrap();
        reg.call(Symbol::intern("B"), p, &args).unwrap();
        // The per-registry view starts at zero despite the shared counter.
        let s = reg.stats();
        assert_eq!((s.calls, s.tuples_returned, s.cache_hits), (1, 2, 1));
        let snap = rec.snapshot();
        assert_eq!(snap.counter("source.calls"), 11);
        assert_eq!(snap.counter("source.tuples_returned"), 2);
        assert_eq!(snap.counter("source.cache_hits"), 1);
        assert_eq!(snap.metrics.histograms["source.rows_per_call"].count, 1);
        // reset_stats zeroes the view, not the lifetime counters.
        reg.reset_stats();
        assert_eq!(reg.stats().calls, 0);
        assert_eq!(rec.snapshot().counter("source.calls"), 11);
    }

    /// Satellite regression: two registries attached to one recorder must
    /// each attribute only their own traffic, while the shared counters
    /// aggregate both.
    #[test]
    fn two_registries_on_one_recorder_attribute_their_own_calls() {
        let (db, schema) = setup();
        let rec = Recorder::new();
        let mut a = SourceRegistry::new(&db, &schema).recording(&rec);
        let mut b = SourceRegistry::new(&db, &schema).recording(&rec);
        let p = AccessPattern::parse("oio").unwrap();
        let args = [None, Some(Value::str("tolkien")), None];
        a.call(Symbol::intern("B"), p, &args).unwrap();
        a.call(Symbol::intern("B"), p, &args).unwrap();
        b.call(Symbol::intern("B"), p, &args).unwrap();
        assert_eq!(a.stats().calls, 2, "a must not see b's traffic");
        assert_eq!(b.stats().calls, 1, "b must not see a's traffic");
        assert_eq!(a.stats().tuples_returned, 4);
        assert_eq!(b.stats().tuples_returned, 2);
        // The shared lifetime counters see the union.
        assert_eq!(rec.snapshot().counter("source.calls"), 3);
        // Interleaved resets stay per-registry and never underflow.
        a.reset_stats();
        b.call(Symbol::intern("B"), p, &args).unwrap();
        assert_eq!(a.stats().calls, 0);
        assert_eq!(b.stats().calls, 2);
    }

    #[test]
    fn membership_probes_are_counted_separately() {
        let (db, schema) = setup();
        let rec = Recorder::new();
        let mut reg = SourceRegistry::new(&db, &schema).recording(&rec);
        let p = AccessPattern::parse("o").unwrap();
        reg.call(Symbol::intern("L"), p, &[None]).unwrap();
        assert_eq!(reg.membership_probes(), 0);
        reg.membership_test(Symbol::intern("L"), &[Value::int(1)]).unwrap();
        reg.membership_test(Symbol::intern("L"), &[Value::int(2)]).unwrap();
        assert_eq!(reg.membership_probes(), 2);
        // Probes are *disjoint* from positive calls: the one scan above is
        // the only entry in `source.calls`.
        assert_eq!(reg.stats().calls, 1);
        assert_eq!(rec.snapshot().counter("source.calls"), 1);
        assert_eq!(rec.snapshot().counter("source.membership"), 2);
        reg.reset_stats();
        assert_eq!(reg.membership_probes(), 0);
    }

    #[test]
    fn cached_membership_probes_count_as_cache_hits() {
        let (db, schema) = setup();
        let mut reg = SourceRegistry::with_cache(&db, &schema);
        reg.membership_test(Symbol::intern("L"), &[Value::int(1)]).unwrap();
        reg.membership_test(Symbol::intern("L"), &[Value::int(1)]).unwrap();
        assert_eq!(reg.membership_probes(), 1, "second probe is a cache hit");
        assert_eq!(reg.stats().cache_hits, 1);
        assert_eq!(reg.stats().calls, 0);
    }

    /// A probe's verdict is computed once, where the wire path journals
    /// it: what `membership_test` returns is what the `Membership
    /// { present }` instant says, a cached probe answers the same without
    /// touching the wire tallies, and the reply rows are counted as before.
    #[test]
    fn probe_verdict_returned_is_the_verdict_journaled() {
        let (db, schema) = setup();
        let rec = Recorder::with_journal(lap_obs::JournalConfig::light());
        let mut reg = SourceRegistry::with_cache(&db, &schema).recording(&rec);
        let l = Symbol::intern("L");
        let verdicts: Vec<bool> = [1, 2, 1, 2]
            .iter()
            .map(|&i| reg.membership_test(l, &[Value::int(i)]).unwrap())
            .collect();
        assert_eq!(verdicts, [true, false, true, false]);
        // L^o is a free scan: both probe keys are the same call, so the
        // second probe onwards is answered from the cache.
        assert_eq!(reg.membership_probes(), 1);
        assert_eq!(reg.stats(), CallStats { calls: 0, tuples_returned: 1, cache_hits: 3 });
        // Each probe's instant: `Some(present)` for a wire probe, `None`
        // for a cached one.
        let probes = |rec: &Recorder| -> Vec<Option<bool>> {
            let (_, events) = rec.journal().unwrap().snapshot().decode().unwrap();
            events
                .into_iter()
                .filter_map(|stamped| match stamped.event {
                    Event::Membership { present, .. } => Some(Some(present)),
                    Event::CacheHit { membership: true, .. } => Some(None),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(probes(&rec), [Some(true), None, None, None]);

        // Without a cache every probe hits the wire and journals its own
        // verdict.
        let rec = Recorder::with_journal(lap_obs::JournalConfig::light());
        let mut reg = SourceRegistry::new(&db, &schema).recording(&rec);
        for i in [1, 2, 3] {
            let present = reg.membership_test(l, &[Value::int(i)]).unwrap();
            assert_eq!(probes(&rec).last(), Some(&Some(present)), "probe {i}");
        }
        assert_eq!(reg.membership_probes(), 3);
        assert_eq!(reg.stats(), CallStats { calls: 0, tuples_returned: 3, cache_hits: 0 });
    }

    /// Replies are shared blocks: the indexed transport hands out the block
    /// its index holds, the cache and an in-batch duplicate hand out the
    /// block the first call got — and the scanning ablation baseline still
    /// builds a fresh one per call.
    #[test]
    fn identical_calls_share_one_block_unless_scanning() {
        use std::sync::Arc;
        let (db, schema) = setup();
        let b = Symbol::intern("B");
        let by_author = AccessPattern::parse("oio").unwrap();
        let tolkien = [None, Some(Value::str("tolkien")), None];
        let scan = AccessPattern::parse("o").unwrap();

        let mut reg = SourceRegistry::new(&db, &schema);
        let first = reg.call(b, by_author, &tolkien).unwrap();
        assert!(Arc::ptr_eq(&first, &reg.call(b, by_author, &tolkien).unwrap()));
        let all = reg.call(Symbol::intern("L"), scan, &[None]).unwrap();
        assert!(Arc::ptr_eq(&all, &reg.call(Symbol::intern("L"), scan, &[None]).unwrap()));
        assert_eq!(reg.stats(), CallStats { calls: 4, tuples_returned: 6, cache_hits: 0 });

        let mut cached = SourceRegistry::with_cache(&db, &schema);
        let batch = cached.call_many(b, by_author, &[tolkien.to_vec(), tolkien.to_vec()]).unwrap();
        assert!(Arc::ptr_eq(&batch[0], &batch[1]), "in-batch duplicate");
        assert!(Arc::ptr_eq(&batch[0], &cached.call(b, by_author, &tolkien).unwrap()), "cache hit");
        assert_eq!(cached.stats(), CallStats { calls: 1, tuples_returned: 2, cache_hits: 2 });

        let mut scanned = SourceRegistry::without_indexes(&db, &schema);
        let first = scanned.call(b, by_author, &tolkien).unwrap();
        let second = scanned.call(b, by_author, &tolkien).unwrap();
        assert_eq!(first, second);
        assert!(!Arc::ptr_eq(&first, &second), "without_indexes scans on every call");
    }

    /// A transport whose every reply is ragged: its first rows are as long
    /// as the pattern, its last one a value longer. The in-memory transport
    /// stores a relation at one arity, so it never builds such a block.
    struct RaggedSource;

    impl Source for RaggedSource {
        fn fetch(
            &mut self,
            _: Symbol,
            _: AccessPattern,
            inputs: &[Option<Value>],
        ) -> Result<SourceReply, SourceFault> {
            let row = |len: usize| vec![Value::int(1); len];
            let rows = vec![row(inputs.len()), row(inputs.len()), row(inputs.len() + 1)];
            Ok(SourceReply { rows: Rows::new(rows.into()), latency_ms: 0 })
        }
    }

    /// A relation stored at another arity than its declared patterns is
    /// refused with `ArityMismatch` where every transport's rows merge —
    /// short or long rows, free scan or keyed selection, positive call or
    /// probe, indexed or scanning, uniform or ragged — instead of
    /// panicking an operator or silently matching nothing.
    #[test]
    fn reply_rows_of_the_wrong_arity_are_refused() {
        let db = Database::from_facts("S(1). S(2). W(1, 2).").unwrap();
        let schema =
            Schema::from_patterns(&[("S", "oo"), ("S", "oi"), ("S", "io"), ("W", "o")]).unwrap();
        let (s, w) = (Symbol::intern("S"), Symbol::intern("W"));
        let pat = |p: &str| AccessPattern::parse(p).unwrap();
        for mut reg in
            [SourceRegistry::new(&db, &schema), SourceRegistry::without_indexes(&db, &schema)]
        {
            let short = EngineError::ArityMismatch { expected: 2, found: 1 };
            let long = EngineError::ArityMismatch { expected: 1, found: 2 };
            assert_eq!(reg.call(s, pat("oo"), &[None, None]), Err(short.clone()));
            assert_eq!(reg.call(s, pat("oi"), &[None, Some(Value::int(1))]), Err(short.clone()));
            assert_eq!(reg.call(s, pat("io"), &[Some(Value::int(1)), None]), Err(short));
            assert_eq!(reg.call(w, pat("o"), &[None]), Err(long.clone()));
            assert_eq!(reg.membership_test(w, &[Value::int(1)]), Err(long));
            // A refused reply is not a call that returned rows.
            assert_eq!(reg.stats(), CallStats::default());
            assert_eq!(reg.membership_probes(), 0);
        }
        // A ragged reply is refused at its first offending row's length.
        let mut reg = SourceRegistry::with_source(Box::new(RaggedSource), &schema);
        let ragged = EngineError::ArityMismatch { expected: 2, found: 3 };
        assert_eq!(reg.call(s, pat("oo"), &[None, None]), Err(ragged.clone()));
        assert_eq!(reg.membership_test(s, &[Value::int(1), Value::int(1)]), Err(ragged));
        assert_eq!(reg.stats(), CallStats::default());
        assert_eq!(reg.membership_probes(), 0);
    }

    /// A batch stops at its first error. Here key 0's reply is refused for
    /// its arity, so the seven keys after it never reach the transport:
    /// no fault is drawn, tallied or journaled for them.
    #[test]
    fn nothing_after_a_batchs_first_error_is_drawn_tallied_or_journaled() {
        use lap_obs::journal::kind::{FAULT, SOURCE_CALL_BEGIN};
        let db = Database::from_facts("R(1, 2, 3). R(2, 3, 4). R(3, 4, 5).").unwrap();
        let schema = Schema::from_patterns(&[("R", "io")]).unwrap();
        let rec = Recorder::with_journal(lap_obs::JournalConfig::light());
        let mut reg = SourceRegistry::new(&db, &schema)
            .with_fault_injection(crate::FaultConfig::with_rate(0.5, 7))
            .with_retry(RetryPolicy::standard())
            .recording(&rec);
        let keys: Vec<_> = (1..=8).map(|i| vec![Some(Value::int(i)), None]).collect();
        let got = reg.call_many(Symbol::intern("R"), AccessPattern::parse("io").unwrap(), &keys);
        assert_eq!(got, Err(EngineError::ArityMismatch { expected: 2, found: 3 }));
        let journal = rec.journal().unwrap().snapshot();
        let count = |kind: &str| journal.events.iter().filter(|e| e.kind == kind).count();
        assert_eq!(count(SOURCE_CALL_BEGIN), 1, "only key 0 reached the transport");
        assert_eq!((reg.failures_observed(), reg.retries_observed(), count(FAULT)), (0, 0, 0));
    }

    /// Fails every attempt of one key; answers the rest from `inner`.
    struct FailKey<S> {
        inner: S,
        key: Vec<Option<Value>>,
    }

    impl<S: Source> Source for FailKey<S> {
        fn fetch(
            &mut self,
            name: Symbol,
            pattern: AccessPattern,
            inputs: &[Option<Value>],
        ) -> Result<SourceReply, SourceFault> {
            if inputs == self.key.as_slice() {
                return Err(SourceFault::Unavailable { latency_ms: 5 });
            }
            self.inner.fetch(name, pattern, inputs)
        }
    }

    /// A probe batch is one serial pass that leaves exactly the traces of
    /// one `membership_test` per key, at eight lanes, under faults and
    /// retries: verdicts, stats, probe/retry/failure counts, the virtual
    /// wall clock and the journal. On an error both stop after the same
    /// probes — a source that exhausts its retries at key 2, or a key of
    /// the wrong length at key 2.
    #[test]
    fn membership_test_many_equals_one_membership_test_per_key() {
        let db = Database::from_facts("R(1, 10). R(2, 20). R(3, 30). R(4, 40). R(5, 50).").unwrap();
        let schema = Schema::from_patterns(&[("R", "io")]).unwrap();
        let r = Symbol::intern("R");
        let fail_key = vec![Some(Value::int(3)), None];
        let twin = |rec: &Recorder| {
            let source = FailKey { inner: InMemorySource::new(&db), key: fail_key.clone() };
            let faults =
                crate::FaultConfig { latency_ms: 20, ..crate::FaultConfig::with_rate(0.3, 5) };
            SourceRegistry::with_source(Box::new(source), &schema)
                .with_fault_injection(faults)
                .with_retry(RetryPolicy::standard())
                .with_io_workers(8)
                .recording(rec)
        };
        let probe = |i: i64, v: i64| vec![Value::int(i), Value::int(v)];
        let cases: [(Vec<Vec<Value>>, Option<EngineError>); 3] = [
            (vec![probe(1, 10), probe(2, 99), probe(4, 40), probe(1, 10), probe(6, 60)], None),
            (
                vec![probe(1, 10), probe(2, 20), probe(3, 30), probe(4, 40)],
                Some(EngineError::SourceUnavailable {
                    relation: "R".to_owned(),
                    attempts: 4,
                    reason: SourceFault::Unavailable { latency_ms: 5 }.to_string(),
                }),
            ),
            (
                vec![probe(1, 10), probe(2, 20), vec![Value::int(3)], probe(4, 40)],
                Some(EngineError::ArityMismatch { expected: 2, found: 1 }),
            ),
        ];
        for (keys, error) in cases {
            let (batch_rec, single_rec) = (
                Recorder::with_journal(lap_obs::JournalConfig::light()),
                Recorder::with_journal(lap_obs::JournalConfig::light()),
            );
            let (mut batch, mut single) = (twin(&batch_rec), twin(&single_rec));
            let batched = batch.membership_test_many(r, &keys);
            let singles: Result<Vec<bool>, EngineError> =
                keys.iter().map(|key| single.membership_test(r, key)).collect();
            assert_eq!(batched, singles, "{keys:?}");
            match error {
                None => assert_eq!(batched, Ok(vec![true, false, true, true, false])),
                Some(error) => {
                    assert_eq!(batched, Err(error));
                    assert_eq!(batch.membership_probes(), 2, "the keys before key 2 are probed");
                }
            }
            let traces = |reg: &SourceRegistry<'_>, rec: &Recorder| {
                (
                    reg.stats(),
                    reg.membership_probes(),
                    reg.retries_observed(),
                    reg.failures_observed(),
                    reg.virtual_elapsed_ms(),
                    rec.journal().unwrap().snapshot(),
                )
            };
            let batch_traces = traces(&batch, &batch_rec);
            assert!(batch_traces.4 > 0, "latency was injected");
            assert_eq!(batch_traces, traces(&single, &single_rec), "{keys:?}");
        }
        // An empty batch never looks its relation up.
        let mut reg = SourceRegistry::new(&db, &schema);
        assert_eq!(reg.membership_test_many(Symbol::intern("Undeclared"), &[]), Ok(vec![]));
    }

    #[test]
    fn declared_but_absent_relation_is_empty() {
        let (db, _) = setup();
        let schema = Schema::from_patterns(&[("Z", "o")]).unwrap();
        let mut reg = SourceRegistry::new(&db, &schema);
        let p = AccessPattern::parse("o").unwrap();
        let rows = reg.call(Symbol::intern("Z"), p, &[None]).unwrap();
        assert!(rows.is_empty());
    }

    #[test]
    fn unknown_relation_is_an_error() {
        let (db, schema) = setup();
        let mut reg = SourceRegistry::new(&db, &schema);
        let p = AccessPattern::parse("o").unwrap();
        assert!(matches!(
            reg.call(Symbol::intern("Nope"), p, &[None]),
            Err(EngineError::UnknownRelation(_))
        ));
    }
}

#[cfg(test)]
mod index_tests {
    use super::*;
    use lap_ir::Schema;
    use std::sync::Arc;

    fn big_db() -> (Database, Schema) {
        let mut db = Database::new();
        for i in 0..200i64 {
            db.insert("R", vec![Value::int(i % 20), Value::int(i)]).unwrap();
        }
        let schema = Schema::from_patterns(&[("R", "io"), ("R", "oo")]).unwrap();
        (db, schema)
    }

    #[test]
    fn indexed_and_scanned_selections_agree() {
        let (db, schema) = big_db();
        let p = AccessPattern::parse("io").unwrap();
        let mut indexed = SourceRegistry::new(&db, &schema);
        let mut scanned = SourceRegistry::without_indexes(&db, &schema);
        for k in 0..25i64 {
            let args = [Some(Value::int(k)), None];
            let a = indexed.call(Symbol::intern("R"), p, &args).unwrap();
            let b = scanned.call(Symbol::intern("R"), p, &args).unwrap();
            let a_set: std::collections::BTreeSet<_> = a.iter().collect();
            let b_set: std::collections::BTreeSet<_> = b.iter().collect();
            assert_eq!(a_set, b_set, "k={k}");
        }
        assert_eq!(indexed.stats().calls, scanned.stats().calls);
        assert_eq!(indexed.stats().tuples_returned, scanned.stats().tuples_returned);
    }

    #[test]
    fn free_scan_returns_everything_with_indexes_on() {
        let (db, schema) = big_db();
        let p = AccessPattern::parse("oo").unwrap();
        let mut reg = SourceRegistry::new(&db, &schema);
        let rows = reg.call(Symbol::intern("R"), p, &[None, None]).unwrap();
        assert_eq!(rows.len(), 200);
    }

    #[test]
    fn index_is_reused_across_calls() {
        let (db, _) = big_db();
        let p = AccessPattern::parse("io").unwrap();
        let mut src = InMemorySource::new(&db);
        for k in 0..20i64 {
            src.fetch(Symbol::intern("R"), p, &[Some(Value::int(k)), None]).unwrap();
        }
        // One index for (R, [0]) serves all twenty calls.
        assert_eq!(src.index_count(), 1);
    }

    /// Seeded property: on random relations — string key columns included,
    /// their symbols interned against content order — every input-slot
    /// mask answers exactly what a scan does, rows in the same order, for
    /// hits and misses alike, on a stored, an empty and an absent relation,
    /// and on a call whose arity is not the relation's.
    #[test]
    fn every_mask_answers_the_scans_rows_in_the_scans_order() {
        use lap_prng::SliceRandom;
        let words: Vec<Value> =
            ["zz_mask", "mm_mask", "aa_mask", "b_mask"].iter().map(|s| Value::str(s)).collect();
        let [r, empty, absent] = ["R", "Empty", "Absent"].map(Symbol::intern);
        let mut rng = StdRng::seed_from_u64(45);
        for case in 0..32 {
            let arity = rng.gen_range(1..=4usize);
            let value = |rng: &mut StdRng| match rng.gen_range(0..3u32) {
                0 => Value::int(rng.gen_range(0..3i64)),
                1 => *words.choose(rng).expect("words"),
                _ => Value::Null,
            };
            let mut db = Database::new();
            db.relation_mut(r, arity).unwrap();
            for _ in 0..rng.gen_range(1..48usize) {
                let row = (0..arity).map(|_| value(&mut rng)).collect();
                db.insert("R", row).unwrap();
            }
            db.relation_mut(empty, arity).unwrap();
            let all = AccessPattern::parse(&"o".repeat(arity)).unwrap();
            let mut indexed = InMemorySource::new(&db);
            let mut scanned = InMemorySource::without_indexes(&db);
            let stored: Vec<Tuple> = db.relation(r).unwrap().iter().cloned().collect();
            for mask in 0..1u32 << arity {
                for draw in 0..6 {
                    // Half the keys come from a stored row (hits), half are
                    // drawn (mostly misses).
                    let from = stored.choose(&mut rng).filter(|_| draw % 2 == 0).cloned();
                    let inputs: Vec<Option<Value>> = (0..arity)
                        .map(|j| {
                            let v = from.as_ref().map_or_else(|| value(&mut rng), |row| row[j]);
                            (mask & (1 << j) != 0).then_some(v)
                        })
                        .collect();
                    for name in [r, empty, absent] {
                        let a = indexed.fetch(name, all, &inputs).unwrap().rows;
                        let b = scanned.fetch(name, all, &inputs).unwrap().rows;
                        assert_eq!(*a, *b, "case {case} mask {mask:b} {name} {inputs:?}");
                    }
                }
            }
            let wide = vec![None; arity + 1];
            let a = indexed.fetch(r, all, &wide).unwrap().rows;
            assert_eq!(*a, *scanned.fetch(r, all, &wide).unwrap().rows);
            assert_eq!(&a[..], stored.as_slice(), "case {case}: a mismatched call gets every row");
        }
    }

    /// A scan and a call on the leading columns read the relation's own
    /// store; a call on other columns reads one permuted copy, shared by
    /// all its keys. A repeated scan is one block, and misses share one.
    #[test]
    fn replies_are_views_of_the_relations_store() {
        let db = Database::from_facts("R(1, 4). R(1, 3). R(2, 4). R(3, 5).").unwrap();
        let r = Symbol::intern("R");
        let store = db.relation(r).unwrap().store();
        let pat = |p: &str| AccessPattern::parse(p).unwrap();
        let mut src = InMemorySource::new(&db);
        let mut fetch =
            |p: &str, inputs: &[Option<Value>]| src.fetch(r, pat(p), inputs).unwrap().rows;
        let one = Some(Value::int(1));
        let scan = fetch("oo", &[None, None]);
        let keyed = fetch("io", &[one, None]);
        assert!(Arc::ptr_eq(scan.store(), store) && Arc::ptr_eq(keyed.store(), store));
        assert_eq!(keyed[..], store[..2]);
        assert!(Arc::ptr_eq(&scan, &fetch("oo", &[None, None])));

        let four = fetch("oi", &[None, Some(Value::int(4))]);
        let five = fetch("oi", &[None, Some(Value::int(5))]);
        assert!(!Arc::ptr_eq(four.store(), store) && Arc::ptr_eq(four.store(), five.store()));
        let row = |a: i64, b: i64| vec![Value::int(a), Value::int(b)];
        assert_eq!(four[..], [row(1, 4), row(2, 4)]);

        let miss = fetch("io", &[Some(Value::int(9)), None]);
        assert!(miss.is_empty() && Arc::ptr_eq(&miss, &fetch("oi", &[None, one])));
    }
}
