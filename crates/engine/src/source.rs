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
//! all run the same plan → dispatch → merge pipeline with one retry loop;
//! a serial call is that pipeline with one lane, an overlapped batch the
//! same pipeline with [`SourceRegistry::with_io_workers`] lanes.
//!
//! The transport sits behind the [`Source`] trait. [`InMemorySource`] is
//! the default (a `Database` behind lazily-built hash indexes), while
//! [`crate::FaultInjectingSource`] wraps any source with deterministic,
//! seeded failures. Faulted fetches are retried under the registry's
//! [`RetryPolicy`]; when retries are exhausted the call surfaces as
//! [`EngineError::SourceUnavailable`], which the degraded executors in
//! [`crate::physical`] turn into a dropped disjunct instead of an aborted
//! run.

use crate::error::EngineError;
use crate::fault::{RetryPolicy, SourceFault, SourceReply};
use crate::instance::Database;
use crate::sched;
use crate::stats::CallStats;
use crate::value::{rows_to_json, value_to_json, Rows, Tuple, Value};
use lap_ir::{AccessPattern, Schema, Symbol};
use lap_obs::{Counter, Histogram, InstantPayload, Journal, Json, Recorder, WireOutcome};
use lap_prng::StdRng;
use std::collections::HashMap;

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

/// Rich begin-event payload of a captured source call (replay tier): the
/// bound inputs ride along so a journal alone can re-drive the run.
fn capture_begin_json(
    name: Symbol,
    pattern: AccessPattern,
    attempt: u32,
    inputs: &[Option<Value>],
) -> Json {
    Json::Obj(vec![
        ("label".to_owned(), Json::Str(format!("{name}^{pattern}"))),
        ("relation".to_owned(), Json::str(name.as_str())),
        ("pattern".to_owned(), Json::Str(pattern.to_string())),
        ("attempt".to_owned(), Json::num(u64::from(attempt))),
        (
            "inputs".to_owned(),
            Json::Arr(
                inputs
                    .iter()
                    .map(|slot| match slot {
                        Some(v) => value_to_json(*v),
                        None => Json::Null,
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Rich end-event payload of a captured successful call.
fn capture_ok_json(name: Symbol, attempt: u32, reply: &SourceReply) -> Json {
    Json::Obj(vec![
        ("relation".to_owned(), Json::str(name.as_str())),
        ("ok".to_owned(), Json::Bool(true)),
        ("rows".to_owned(), Json::num(reply.rows.len() as u64)),
        ("latency_ms".to_owned(), Json::num(reply.latency_ms)),
        ("attempt".to_owned(), Json::num(u64::from(attempt))),
        ("rows_data".to_owned(), rows_to_json(&reply.rows)),
    ])
}

/// Rich end-event payload of a captured faulted call.
fn capture_fault_json(name: Symbol, attempt: u32, fault: &SourceFault) -> Json {
    let (fault_name, raw_latency, timeout_ms) = match *fault {
        SourceFault::Unavailable { latency_ms } => ("unavailable", latency_ms, None),
        SourceFault::Timeout { latency_ms, timeout_ms } => ("timeout", latency_ms, Some(timeout_ms)),
    };
    let mut data = vec![
        ("relation".to_owned(), Json::str(name.as_str())),
        ("ok".to_owned(), Json::Bool(false)),
        ("fault".to_owned(), Json::str(fault_name)),
        ("latency_ms".to_owned(), Json::num(raw_latency)),
        ("attempt".to_owned(), Json::num(u64::from(attempt))),
    ];
    if let Some(budget) = timeout_ms {
        data.push(("timeout_ms".to_owned(), Json::num(budget)));
    }
    Json::Obj(data)
}

/// The planned course of one wire call: the attempts the transport
/// committed to fault, then how the call ends. Planning happens strictly
/// in issue order; the journal events and the row transfer wait for the
/// merge, where the call's lane and start time are known.
struct WireScript {
    /// The faulted attempts in order, each with the backoff the retry
    /// policy charged after it (zero after a terminal fault).
    faults: Vec<(SourceFault, u64)>,
    /// The committed success that follows the faults, or the terminal
    /// error (retries exhausted or deadline hit) if the last one was final.
    end: Result<PlannedSuccess, EngineError>,
    /// This call won the journal sampling decision.
    journaled: bool,
    /// Replay tier: record rich pairs with row payloads.
    capture: bool,
}

/// A success the transport committed to during planning.
enum PlannedSuccess {
    /// The row transfer itself is still to run (in the dispatch phase,
    /// after the whole batch is planned) and leaves its result in
    /// `transfer`. `latency_ms` is the planned wire latency to add to the
    /// fetched reply.
    Deferred { latency_ms: u64, transfer: Option<Result<SourceReply, SourceFault>> },
    /// The transport produced the full reply during planning.
    Ready(SourceReply),
}

impl WireScript {
    /// Total virtual time the call occupies its lane: every attempt's
    /// wire latency plus the backoffs between attempts.
    fn duration_ms(&self) -> u64 {
        let faulted: u64 = self.faults.iter().map(|(f, backoff)| f.latency_ms() + backoff).sum();
        faulted
            + match &self.end {
                Ok(PlannedSuccess::Deferred { latency_ms, .. }) => *latency_ms,
                Ok(PlannedSuccess::Ready(reply)) => reply.latency_ms,
                Err(_) => 0,
            }
    }
}

/// One planned call of a batch, in issue order.
enum ScriptedCall {
    /// Cache hit during planning; the cached block is already in hand.
    Cached(Rows),
    /// Duplicate of an earlier key in the same batch (cache enabled):
    /// resolves to that call's rows and counts as a cache hit, as it
    /// would have had the earlier call completed first.
    Dup(usize),
    /// A wire call with a fully scripted attempt sequence.
    Wire(WireScript),
}

impl ScriptedCall {
    /// The slot a committed success's deferred row transfer fills, if
    /// this call has one.
    fn pending_transfer(&mut self) -> Option<&mut Option<Result<SourceReply, SourceFault>>> {
        match self {
            ScriptedCall::Wire(WireScript {
                end: Ok(PlannedSuccess::Deferred { transfer, .. }),
                ..
            }) => Some(transfer),
            _ => None,
        }
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

/// One hash index: projection of the indexed columns → the block of
/// matching rows. The index on no column has the single key `[]`, whose
/// block is the whole relation: the free scan.
type ColumnIndex = HashMap<Vec<Value>, Rows>;

/// The transport's verdict on one fetch attempt, split from the data
/// transfer so the registry can plan a whole batch before moving any rows.
///
/// Everything order-sensitive about an attempt — fault coins, latency
/// jitter, recorded replay outcomes — is decided by
/// [`Source::plan_fetch`] while the registry still issues attempts
/// strictly in order. What remains for [`Source::fetch_deferred`] is the
/// pure row transfer, which draws no randomness and therefore commutes:
/// the order transfers run in cannot change a run.
pub enum PlannedFetch {
    /// The attempt faults; the data transfer never happens.
    Fault(SourceFault),
    /// The attempt will succeed after `latency_ms` of virtual wire time;
    /// the row transfer is deferred to [`Source::fetch_deferred`]. The
    /// caller adds `latency_ms` on top of whatever the deferred reply
    /// reports.
    Defer {
        /// Virtual wire latency of the planned attempt.
        latency_ms: u64,
    },
    /// The complete outcome is already in hand (replay transports, and
    /// any transport that does not split a fetch).
    Ready(Result<SourceReply, SourceFault>),
}

/// One remote source transport: answers a validated access-pattern call
/// with the matching rows, or fails with a [`SourceFault`].
///
/// A transport implements [`Source::plan_fetch`] — the one place an
/// attempt's outcome is decided — plus [`Source::fetch_deferred`] if it
/// ever plans a [`PlannedFetch::Defer`]. [`Source::fetch`] is provided and
/// not meant to be overridden, so a whole fetch and a planned-then-
/// transferred one cannot consume a fault schedule differently.
///
/// The registry validates every request against the schema *before* it
/// reaches the transport, so implementations only answer well-formed
/// selections. Latency is virtual (milliseconds of simulated wall clock),
/// so fault/retry schedules are deterministic and tests never sleep.
/// The registry runs every call on the caller's thread, so a transport
/// need not be `Send`.
pub trait Source {
    /// Decides one attempt's outcome — the rows of `name` matching the
    /// `Some` slots of `inputs` under `pattern`, or a fault — consuming
    /// every random draw and recorded outcome the attempt owns. Called
    /// strictly in issue order.
    fn plan_fetch(
        &mut self,
        name: Symbol,
        pattern: AccessPattern,
        inputs: &[Option<Value>],
    ) -> PlannedFetch;

    /// Completes a [`PlannedFetch::Defer`]: the pure row transfer, safe
    /// to run in any order because [`Source::plan_fetch`] already consumed
    /// every order-sensitive decision. The planned latency is accounted
    /// by the caller, not here. A transport that plans `Defer` must
    /// override this; the default refuses the transfer.
    ///
    /// The reply's rows are a shared block: a transport over resident data
    /// returns the block it keeps (a reference-count bump), one that reads
    /// rows off a wire builds the block here, once. Either way the caller
    /// never copies it and never sees it change.
    fn fetch_deferred(
        &mut self,
        _name: Symbol,
        _pattern: AccessPattern,
        _inputs: &[Option<Value>],
    ) -> Result<SourceReply, SourceFault> {
        Err(SourceFault::Unavailable { latency_ms: 0 })
    }

    /// Answers one call whole: plan the attempt, then transfer its rows
    /// and add the planned latency.
    fn fetch(
        &mut self,
        name: Symbol,
        pattern: AccessPattern,
        inputs: &[Option<Value>],
    ) -> Result<SourceReply, SourceFault> {
        match self.plan_fetch(name, pattern, inputs) {
            PlannedFetch::Fault(fault) => Err(fault),
            PlannedFetch::Defer { latency_ms } => {
                let mut reply = self.fetch_deferred(name, pattern, inputs)?;
                reply.latency_ms += latency_ms;
                Ok(reply)
            }
            PlannedFetch::Ready(result) => result,
        }
    }
}

impl<'a> Source for Box<dyn Source + 'a> {
    fn plan_fetch(
        &mut self,
        name: Symbol,
        pattern: AccessPattern,
        inputs: &[Option<Value>],
    ) -> PlannedFetch {
        (**self).plan_fetch(name, pattern, inputs)
    }

    fn fetch_deferred(
        &mut self,
        name: Symbol,
        pattern: AccessPattern,
        inputs: &[Option<Value>],
    ) -> Result<SourceReply, SourceFault> {
        (**self).fetch_deferred(name, pattern, inputs)
    }
}

/// The original in-memory transport: a [`Database`] behind access
/// patterns, answering input-slot selections through lazily-built hash
/// indexes (build once per (relation, slot set), then O(1) lookups).
/// An index holds each bucket as a shared row block, so rows are cloned
/// out of the database only while an index is built; a call after that is
/// a hash lookup and a reference-count bump, whatever the bucket's size.
/// Never faults; virtual latency is zero.
pub struct InMemorySource<'a> {
    db: &'a Database,
    /// Lazily-built hash indexes keyed by (relation, indexed positions).
    /// `None` disables indexing (every selection scans).
    indexes: Option<HashMap<(Symbol, Vec<usize>), ColumnIndex>>,
}

impl<'a> InMemorySource<'a> {
    /// An indexed in-memory source over `db`.
    pub fn new(db: &'a Database) -> InMemorySource<'a> {
        InMemorySource { db, indexes: Some(HashMap::new()) }
    }

    /// A scanning source: every selection scans the relation and copies
    /// the matching rows into a fresh block — the ablation baseline for
    /// the index experiment (E16).
    pub fn without_indexes(db: &'a Database) -> InMemorySource<'a> {
        InMemorySource { db, indexes: None }
    }

    /// Number of hash indexes built so far, the free scan's (the index on
    /// no column) included; 0 when indexing is disabled.
    pub fn index_count(&self) -> usize {
        self.indexes.as_ref().map_or(0, HashMap::len)
    }

    /// Answers an input-slot selection, via the hash index when enabled.
    fn select_rows(&mut self, name: Symbol, inputs: &[Option<Value>]) -> Rows {
        // The relation may be declared but empty/absent in this instance.
        let Some(rel) = self.db.relation(name) else {
            return Rows::default();
        };
        if rel.arity() != inputs.len() {
            // Stored at another arity than the pattern's, the relation
            // cannot be selected on: its rows go out as they are, for the
            // registry to refuse.
            return rel.iter().cloned().collect();
        }
        let Some(indexes) = &mut self.indexes else {
            return rel.select(inputs).cloned().collect();
        };
        let positions: Vec<usize> = (0..inputs.len()).filter(|&j| inputs[j].is_some()).collect();
        let key: Vec<Value> = inputs.iter().flatten().copied().collect();
        let index = indexes.entry((name, positions)).or_insert_with_key(|(_, positions)| {
            let mut buckets: HashMap<Vec<Value>, Vec<Tuple>> = HashMap::new();
            for row in rel.iter() {
                let key = positions.iter().map(|&j| row[j]).collect();
                buckets.entry(key).or_default().push(row.clone());
            }
            buckets.into_iter().map(|(key, rows)| (key, Rows::from(rows))).collect()
        });
        index.get(&key).cloned().unwrap_or_default()
    }
}

impl Source for InMemorySource<'_> {
    /// In-memory fetches never fault and carry zero latency, so the whole
    /// call is deferrable row transfer.
    fn plan_fetch(
        &mut self,
        _name: Symbol,
        _pattern: AccessPattern,
        _inputs: &[Option<Value>],
    ) -> PlannedFetch {
        PlannedFetch::Defer { latency_ms: 0 }
    }

    fn fetch_deferred(
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
    /// Virtual milliseconds folded in by past [`SourceRegistry::reset_clock`]
    /// calls, so lifetime reporting survives per-phase deadline resets.
    retired_clock_ms: u64,
    /// Virtual *wall-clock* milliseconds since the last reset: each batch
    /// adds its longest lane, so with one lane it equals `clock_ms`.
    wall_ms: u64,
    /// Wall-clock milliseconds folded in by past resets.
    retired_wall_ms: u64,
    /// Lanes a multi-key batch ([`SourceRegistry::call_many`]) may spread
    /// its wire waits over; 1 = every wait is serial.
    io_workers: usize,
    /// When set, batches execute their deferred transfers in a seeded
    /// pseudo-random order ([`crate::sched::adversarial_order`]) instead
    /// of issue order — the interleaving suite's adversarial scheduler.
    sched_seed: Option<u64>,
    /// Per-batch salt folded into `sched_seed` so every overlapped batch
    /// of one run sees a fresh adversarial permutation.
    sched_epoch: u64,
    cache: Option<HashMap<CallKey, Rows>>,
    /// Flight-recorder journal (attached via [`SourceRegistry::recording`]
    /// when the recorder carries one).
    journal: Option<Journal>,
    /// Memoized journal interner ids per (relation, pattern). A plan
    /// touches a handful of distinct accesses, so a linear scan beats a
    /// hash map and keeps string hashing off the per-call fast path.
    journal_call_ids: Vec<(Symbol, AccessPattern, u32, u32)>,
    /// Memoized journal interner ids per relation (instant events).
    journal_rel_ids: Vec<(Symbol, u32)>,
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
            retired_clock_ms: 0,
            wall_ms: 0,
            retired_wall_ms: 0,
            io_workers: 1,
            sched_seed: None,
            sched_epoch: 0,
            cache: None,
            journal: None,
            journal_call_ids: Vec::new(),
            journal_rel_ids: Vec::new(),
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
    /// the virtual clock. Lanes are accounting, not threads: the row
    /// transfers run on the calling thread, in issue order, either way.
    pub fn with_io_workers(mut self, workers: usize) -> SourceRegistry<'a> {
        self.io_workers = workers.clamp(1, MAX_IO_WORKERS);
        self
    }

    /// Number of virtual lanes overlapped batches may use.
    pub fn io_workers(&self) -> usize {
        self.io_workers
    }

    /// Forces batches through the seeded adversarial scheduler
    /// ([`crate::sched::adversarial_order`]): deferred transfers execute
    /// in a pseudo-random order drawn from `seed`, on the same lanes as
    /// without it. Test-harness knob; results — journal included — must
    /// not depend on the seed.
    pub fn with_adversarial_sched(mut self, seed: u64) -> SourceRegistry<'a> {
        self.sched_seed = Some(seed);
        self
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

    /// True when a flight-recorder journal is attached.
    pub fn journal_enabled(&self) -> bool {
        self.journal.is_some()
    }

    /// Records one journal event on the base lane, stamped with this
    /// registry's virtual clock. No-op without an attached journal.
    pub fn journal_emit(&self, kind: &str, data: Json) {
        if let Some(journal) = &self.journal {
            journal.emit(BASE_LANE, self.virtual_elapsed_ms(), kind, data);
        }
    }

    /// Records an `exec.estimate.blown` marker: operator `label` has
    /// emitted `observed` rows against a static estimate of `estimated`
    /// tuples. Bumps the shared `exec.estimate_blown` counter even when no
    /// journal is attached, so callers can poll the recorder for blown
    /// estimates cheaply.
    pub fn note_estimate_blown(&self, label: &str, observed: u64, estimated: f64) {
        self.recorder.counter("exec.estimate_blown").incr();
        self.journal_emit(
            lap_obs::journal::kind::ESTIMATE_BLOWN,
            Json::obj([
                ("label", Json::str(label)),
                ("observed_rows", Json::num(observed)),
                ("estimated_tuples", Json::Num(estimated)),
            ]),
        );
    }

    /// Journal interner ids for a (relation, pattern) access, memoized so
    /// the steady-state call path never hashes a string. Only called with
    /// a journal attached.
    fn journal_call_ids(&mut self, name: Symbol, pattern: AccessPattern) -> (u32, u32) {
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
    fn journal_rel_id(&mut self, name: Symbol) -> u32 {
        if let Some(hit) = self.journal_rel_ids.iter().find(|(n, _)| *n == name) {
            return hit.1;
        }
        let journal = self.journal.as_ref().expect("memo used while journaling");
        let rel = journal.intern(name.as_str());
        self.journal_rel_ids.push((name, rel));
        rel
    }

    /// Records one compact instant event for `name` at an explicit lane
    /// and timestamp. No-op without an attached journal.
    fn journal_instant(&mut self, lane: u64, ts: u64, name: Symbol, payload: InstantPayload) {
        if self.journal.is_some() {
            let rel = self.journal_rel_id(name);
            if let Some(journal) = &self.journal {
                journal.record_instant_by_id(lane, ts, rel, payload);
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

    /// The retry policy in effect.
    pub fn retry_policy(&self) -> RetryPolicy {
        self.retry
    }

    /// Call statistics accumulated through *this* registry since
    /// construction / the last [`SourceRegistry::reset_stats`]. Counts
    /// positive calls only — membership probes are reported disjointly by
    /// [`SourceRegistry::membership_probes`].
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
        self.retired_clock_ms += self.clock_ms;
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
    /// A single call is a one-key [`SourceRegistry::call_many`] batch: one
    /// lane, journaled on the base lane.
    pub fn call(
        &mut self,
        name: Symbol,
        pattern: AccessPattern,
        inputs: &[Option<Value>],
    ) -> Result<Rows, EngineError> {
        let (mut rows, _) = self.request(name, pattern, &[inputs.to_vec()], None)?;
        Ok(rows.pop().expect("one key, one reply"))
    }

    /// Calls relation `name` once per key in `keys`, overlapping the wire
    /// waits across up to [`SourceRegistry::with_io_workers`] virtual
    /// lanes. Results come back in issue order, and answers, counters,
    /// retry/failure accounting and the terminal error do not depend on
    /// the lane count — only the *wall* clock does: a batch charges its
    /// longest lane, which with one lane is the serial sum. Each key gets
    /// a shared block as in [`SourceRegistry::call`]; with the call cache
    /// on, duplicate keys of one batch get the same block.
    pub fn call_many(
        &mut self,
        name: Symbol,
        pattern: AccessPattern,
        keys: &[Vec<Option<Value>>],
    ) -> Result<Vec<Rows>, EngineError> {
        Ok(self.request(name, pattern, keys, None)?.0)
    }

    /// The one wire path — every positive call, batch and membership
    /// probe (`probe` = the ground tuple tested) runs these phases:
    ///
    /// 1. **Plan** (issue order, sequential): validate each key, answer
    ///    it from the cache when possible, otherwise let the transport
    ///    commit every attempt's outcome ([`SourceRegistry::plan_wire`]).
    ///    Stops at the first terminal outcome.
    /// 2. **Dispatch**: committed-success row transfers run inline on
    ///    the calling thread, straight on the transport, in issue order
    ///    (in [`crate::sched::adversarial_order`] when a seed is set) —
    ///    pure data movement, no randomness left, whatever the lane count.
    /// 3. **Schedule and merge** (issue order): each wire call takes the
    ///    earliest-free lane; its journal pairs and instants are emitted
    ///    at their scheduled timestamps, counters and the cache are
    ///    updated, and a terminal error surfaces after its prefix. The
    ///    wall clock then advances by the longest lane.
    ///
    /// The lane count is the only thing that distinguishes serial from
    /// overlapped execution.
    ///
    /// Returns one row block per key and, for a probe, its verdict —
    /// whether the tested tuple is in the last key's block — computed here
    /// once, for wire and cached replies alike.
    fn request(
        &mut self,
        name: Symbol,
        pattern: AccessPattern,
        keys: &[Vec<Option<Value>>],
        probe: Option<&[Value]>,
    ) -> Result<(Vec<Rows>, Option<bool>), EngineError> {
        // Nothing to overlap: one lane, journaled on the base lane instead
        // of a per-lane sub-lane. Only the lane count and the batch size
        // decide this; an adversarial seed reorders transfers, not lanes.
        let serial = self.io_workers <= 1 || keys.len() <= 1;
        let workers = if serial { 1 } else { self.io_workers };

        let mut scripts: Vec<ScriptedCall> = Vec::with_capacity(keys.len());
        let mut failed: Option<EngineError> = None;
        for (i, key) in keys.iter().enumerate() {
            if let Err(e) = self.validate(name, pattern, key) {
                failed = Some(e);
                break;
            }
            if let Some(cache) = &self.cache {
                // A duplicate key would find the first occurrence cached
                // by the time it is issued, so it is a hit as well.
                let hit = match cache.get(&(name, pattern, key.clone())) {
                    Some(rows) => Some(ScriptedCall::Cached(rows.clone())),
                    None => keys[..i].iter().position(|k| k == key).map(ScriptedCall::Dup),
                };
                if let Some(hit) = hit {
                    self.tally(Tally::CacheHits, 1);
                    scripts.push(hit);
                    continue;
                }
            }
            let script = self.plan_wire(name, pattern, key);
            let terminal = script.end.is_err();
            scripts.push(ScriptedCall::Wire(script));
            if terminal {
                break;
            }
        }

        // Dispatch: each committed success's row transfer, inline on this
        // thread, in issue order — or in the seeded adversarial order.
        let mut order: Vec<usize> =
            (0..scripts.len()).filter(|&i| scripts[i].pending_transfer().is_some()).collect();
        if let Some(seed) = self.sched_seed {
            self.sched_epoch = self.sched_epoch.wrapping_add(1);
            let permutation =
                sched::adversarial_order(seed.wrapping_add(self.sched_epoch), order.len());
            order = permutation.into_iter().map(|j| order[j]).collect();
        }
        for i in order {
            if let Some(slot) = scripts[i].pending_transfer() {
                *slot = Some(self.source.fetch_deferred(name, pattern, &keys[i]));
            }
        }

        let base_wall = self.virtual_elapsed_ms();
        let mut lane_free = [base_wall; MAX_IO_WORKERS];
        let lane_free = &mut lane_free[..workers];
        let mut rows_out: Vec<Rows> = Vec::with_capacity(scripts.len());
        let verdict =
            |rows: &[Tuple]| probe.map(|values| rows.iter().any(|row| row.as_slice() == values));
        let mut present = None;
        for (script, key) in scripts.into_iter().zip(keys) {
            // Greedy earliest-free lane, in issue order.
            let k = (0..workers).min_by_key(|&k| lane_free[k]).unwrap_or(0);
            let hit = match script {
                ScriptedCall::Cached(rows) => rows,
                ScriptedCall::Dup(first) => rows_out[first].clone(),
                ScriptedCall::Wire(script) => {
                    let lane = if serial { BASE_LANE } else { LANE_STRIDE + k as u64 };
                    let slot = WireSlot { name, pattern, inputs: key, lane, start_ms: lane_free[k] };
                    lane_free[k] += script.duration_ms();
                    let rows = match self.merge_wire(&slot, script) {
                        Ok(reply) => reply.rows,
                        Err(e) => {
                            failed = Some(e);
                            break;
                        }
                    };
                    present = verdict(&rows);
                    match present {
                        None => {
                            self.tally(Tally::Calls, 1);
                            self.rows_per_call.record(rows.len() as u64);
                        }
                        Some(present) => {
                            self.tally(Tally::Membership, 1);
                            let payload = InstantPayload::Membership { present };
                            self.journal_instant(BASE_LANE, lane_free[k], name, payload);
                        }
                    }
                    self.tally(Tally::TuplesReturned, rows.len() as u64);
                    if let Some(cache) = &mut self.cache {
                        cache.insert((name, pattern, key.clone()), rows.clone());
                    }
                    rows_out.push(rows);
                    continue;
                }
            };
            // A cache hit is stamped when it would have been issued.
            let payload =
                InstantPayload::CacheHit { rows: hit.len() as u64, membership: probe.is_some() };
            self.journal_instant(BASE_LANE, lane_free[k], name, payload);
            present = verdict(&hit);
            rows_out.push(hit);
        }
        self.wall_ms += lane_free.iter().max().map_or(0, |end| end - base_wall);
        match failed {
            Some(e) => Err(e),
            None => Ok((rows_out, present)),
        }
    }

    /// Plans one wire call — the only retry loop: the transport commits
    /// each attempt's outcome ([`Source::plan_fetch`]) strictly in issue
    /// order, and faults are retried with exponential backoff (virtual
    /// time) until an attempt succeeds, the attempt budget is spent, or
    /// the per-query deadline is exceeded. Consumes the randomness, the
    /// deadline budget and the retry/failure tallies here; the journal
    /// events wait for [`SourceRegistry::merge_wire`], where the call's
    /// lane and timestamps are known.
    fn plan_wire(
        &mut self,
        name: Symbol,
        pattern: AccessPattern,
        inputs: &[Option<Value>],
    ) -> WireScript {
        // One sampling decision covers every attempt of this call, so the
        // journal's begin/end pairs stay balanced under sampling.
        let journaled = self
            .journal
            .as_ref()
            .is_some_and(Journal::should_sample_call);
        let capture = journaled && self.journal.as_ref().is_some_and(Journal::capture_rows);
        let max_attempts = self.retry.max_attempts.max(1);
        let mut faults = Vec::new();
        let end = loop {
            let attempt = faults.len() as u32 + 1;
            if attempt > 1 {
                drop(self.recorder.span_lazy(|| format!("source.retry {name} attempt {attempt}")));
                self.tally(Tally::Retries, 1);
            }
            let fault = match self.source.plan_fetch(name, pattern, inputs) {
                PlannedFetch::Defer { latency_ms } => {
                    self.clock_ms += latency_ms;
                    break Ok(PlannedSuccess::Deferred { latency_ms, transfer: None });
                }
                PlannedFetch::Ready(Ok(reply)) => {
                    self.clock_ms += reply.latency_ms;
                    break Ok(PlannedSuccess::Ready(reply));
                }
                PlannedFetch::Fault(fault) | PlannedFetch::Ready(Err(fault)) => fault,
            };
            self.tally(Tally::Failures, 1);
            self.clock_ms += fault.latency_ms();
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
                faults.push((fault, 0));
                break Err(EngineError::SourceUnavailable {
                    relation: name.to_string(),
                    attempts: attempt,
                    reason,
                });
            }
            let backoff = self.retry.backoff_ms(attempt, &mut self.retry_rng);
            self.clock_ms += backoff;
            faults.push((fault, backoff));
        };
        WireScript { faults, end, journaled, capture }
    }

    /// Resolves one planned wire call at its scheduled slot: journals
    /// every attempt at its scheduled timestamps, completes a deferred
    /// success with its transferred rows, and returns the reply or the
    /// planned terminal error. Every transport's rows pass through here,
    /// so this is where a reply whose rows are not as long as the pattern
    /// is refused: downstream code indexes rows by pattern position.
    fn merge_wire(
        &mut self,
        slot: &WireSlot<'_>,
        script: WireScript,
    ) -> Result<SourceReply, EngineError> {
        let mut t = slot.start_ms;
        let mut attempt = 0u32;
        // The backoff the previous failed attempt scheduled, attributed to
        // the retry marker it delayed.
        let mut prior_backoff = 0u64;
        for (fault, backoff) in &script.faults {
            attempt += 1;
            let end_ts = t + fault.latency_ms();
            if script.journaled {
                self.journal_attempt(slot, script.capture, attempt, prior_backoff, t..end_ts, Err(fault));
            }
            t = end_ts + backoff;
            prior_backoff = *backoff;
        }
        attempt += 1;
        let (end_ts, outcome) = match script.end? {
            PlannedSuccess::Ready(reply) => (t + reply.latency_ms, Ok(reply)),
            PlannedSuccess::Deferred { latency_ms, transfer } => {
                let reply = transfer.expect("dispatch ran every deferred transfer");
                (
                    t + latency_ms,
                    reply.map(|mut reply| {
                        reply.latency_ms += latency_ms;
                        reply
                    }),
                )
            }
        };
        if outcome.is_err() {
            // Defensive: a transport that committed to `Defer` must not
            // fault in the data phase.
            self.tally(Tally::Failures, 1);
        }
        if script.journaled {
            self.journal_attempt(slot, script.capture, attempt, prior_backoff, t..end_ts, outcome.as_ref());
        }
        let reply = outcome.map_err(|fault| EngineError::SourceUnavailable {
            relation: slot.name.to_string(),
            attempts: attempt,
            reason: fault.to_string(),
        })?;
        let expected = slot.pattern.arity();
        match reply.rows.iter().find(|row| row.len() != expected) {
            Some(row) => Err(EngineError::ArityMismatch { expected, found: row.len() }),
            None => Ok(reply),
        }
    }

    /// Journals one wire attempt — the only attempt-journaling routine:
    /// the retry marker it was delayed by (attempt 2 and later), the
    /// begin/end pair as one atomic ring slot (so concurrent lanes never
    /// interleave inside a pair, and eviction keeps both halves or
    /// neither) at the replay tier (rich, with inputs and rows, so a
    /// journal alone can re-drive the run) or the light tier (compact
    /// ids), and the fault/timeout instant of a failed one.
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
        if attempt > 1 {
            let payload = InstantPayload::Retry {
                attempt: u64::from(attempt),
                backoff_ms: prior_backoff,
            };
            self.journal_instant(lane, ts.start, name, payload);
        }
        if capture {
            let begin = capture_begin_json(name, pattern, attempt, inputs);
            let end = match outcome {
                Ok(reply) => capture_ok_json(name, attempt, reply),
                Err(fault) => capture_fault_json(name, attempt, fault),
            };
            if let Some(journal) = &self.journal {
                journal.record_call_rich(lane, ts.start, ts.end, begin, end);
            }
        } else {
            let (rel, pat) = self.journal_call_ids(name, pattern);
            let wire = match outcome {
                Ok(reply) => WireOutcome::Ok {
                    rows: reply.rows.len() as u64,
                    latency_ms: reply.latency_ms,
                },
                Err(&SourceFault::Unavailable { latency_ms }) => {
                    WireOutcome::Unavailable { latency_ms }
                }
                Err(&SourceFault::Timeout { latency_ms, timeout_ms }) => {
                    WireOutcome::Timeout { latency_ms, timeout_ms }
                }
            };
            if let Some(journal) = &self.journal {
                journal.record_call_by_id(lane, ts.start, ts.end, rel, pat, u64::from(attempt), wire);
            }
        }
        if let Err(fault) = outcome {
            let attempt = u64::from(attempt);
            let payload = match *fault {
                SourceFault::Unavailable { latency_ms } => {
                    InstantPayload::Fault { latency_ms, attempt }
                }
                SourceFault::Timeout { latency_ms, .. } => {
                    InstantPayload::Timeout { latency_ms, attempt }
                }
            };
            self.journal_instant(lane, ts.end, name, payload);
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
    /// present }`): the reply block is searched once and not kept.
    pub fn membership_test(&mut self, name: Symbol, values: &[Value]) -> Result<bool, EngineError> {
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
        if values.len() != pattern.arity() {
            return Err(EngineError::ArityMismatch {
                expected: pattern.arity(),
                found: values.len(),
            });
        }
        let inputs: Vec<Option<Value>> = (0..pattern.arity())
            .map(|j| pattern.is_input(j).then(|| values[j]))
            .collect();
        let (_, present) = self.request(name, pattern, &[inputs], Some(values))?;
        Ok(present.expect("a probe request reports its verdict"))
    }

    /// Tests a batch of fully-ground tuples for membership in relation
    /// `name`, in order. The wire behaviour is identical to calling
    /// [`SourceRegistry::membership_test`] once per key — the vectorized
    /// negation filter hands the whole distinct-key set of a batch window
    /// here so the probe loop lives next to the wire instead of in the
    /// operator.
    pub fn membership_test_many(
        &mut self,
        name: Symbol,
        keys: &[Vec<Value>],
    ) -> Result<Vec<bool>, EngineError> {
        let mut present = Vec::with_capacity(keys.len());
        for key in keys {
            present.push(self.membership_test(name, key)?);
        }
        Ok(present)
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

    /// A transport that defers every fetch with 20 ms of wire latency and
    /// logs on which thread, and in what order, its row transfers run. It
    /// holds an `Rc`, so it is not `Send`: the registry does not need it.
    struct LoggingSource<'a> {
        inner: InMemorySource<'a>,
        log: TransferLog,
    }

    /// The thread and the key of each row transfer, in the order they ran.
    type TransferLog = Rc<RefCell<Vec<(ThreadId, Vec<Option<Value>>)>>>;

    impl Source for LoggingSource<'_> {
        fn plan_fetch(&mut self, _: Symbol, _: AccessPattern, _: &[Option<Value>]) -> PlannedFetch {
            PlannedFetch::Defer { latency_ms: 20 }
        }

        fn fetch_deferred(
            &mut self,
            name: Symbol,
            pattern: AccessPattern,
            inputs: &[Option<Value>],
        ) -> Result<SourceReply, SourceFault> {
            self.log.borrow_mut().push((thread::current().id(), inputs.to_vec()));
            self.inner.fetch_deferred(name, pattern, inputs)
        }
    }

    /// Overlap is lanes on the virtual clock, not threads: an 8-lane batch
    /// transfers its rows on the caller's thread, in issue order, and still
    /// charges two 20 ms rounds for 16 calls instead of sixteen.
    #[test]
    fn overlapped_transfers_run_on_the_callers_thread_and_keep_their_lanes() {
        let (db, schema) = setup();
        let log = Rc::default();
        let source = LoggingSource { inner: InMemorySource::new(&db), log: Rc::clone(&log) };
        let mut reg = SourceRegistry::with_source(Box::new(source), &schema).with_io_workers(8);
        let p = AccessPattern::parse("ioo").unwrap();
        let keys: Vec<_> = (1..=16).map(|i| vec![Some(Value::int(i)), None, None]).collect();
        assert_eq!(reg.call_many(Symbol::intern("B"), p, &keys).unwrap().len(), 16);
        let caller = thread::current().id();
        let (threads, issued): (Vec<_>, Vec<_>) = log.take().into_iter().unzip();
        assert_eq!(issued, keys, "transfers run once each, in issue order");
        assert!(threads.iter().all(|t| *t == caller), "every transfer runs on the caller's thread");
        assert_eq!(reg.virtual_elapsed_ms(), 40, "16 calls × 20 ms over 8 lanes");
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
        use lap_obs::journal::kind::{CACHE_HIT, MEMBERSHIP};
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
        let journal = rec.journal().unwrap().snapshot();
        let instants: Vec<(&str, Option<&Json>)> = journal
            .events
            .iter()
            .filter(|e| e.kind == MEMBERSHIP || e.kind == CACHE_HIT)
            .map(|e| (e.kind.as_str(), e.data.get("present")))
            .collect();
        assert_eq!(
            instants,
            [
                (MEMBERSHIP, Some(&Json::Bool(true))),
                (CACHE_HIT, None),
                (CACHE_HIT, None),
                (CACHE_HIT, None),
            ]
        );

        // Without a cache every probe hits the wire and journals its own
        // verdict.
        let rec = Recorder::with_journal(lap_obs::JournalConfig::light());
        let mut reg = SourceRegistry::new(&db, &schema).recording(&rec);
        for i in [1, 2, 3] {
            let present = reg.membership_test(l, &[Value::int(i)]).unwrap();
            let journal = rec.journal().unwrap().snapshot();
            let last = journal.events.iter().rfind(|e| e.kind == MEMBERSHIP).unwrap();
            assert_eq!(last.data.get("present"), Some(&Json::Bool(present)), "probe {i}");
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

    /// A relation stored at another arity than its declared patterns is
    /// refused with `ArityMismatch` where every transport's rows merge —
    /// short or long rows, free scan or keyed selection, positive call or
    /// probe, indexed or scanning — instead of panicking an operator or
    /// silently matching nothing.
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
}
