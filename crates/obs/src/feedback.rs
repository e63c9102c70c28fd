//! Journal-fed calibrated source statistics — the feedback half of the
//! observability loop.
//!
//! The flight recorder captures ground truth the planner's static
//! [`CostModel`](../../lap_planner) can only guess at: per-source,
//! per-access-pattern call latency, rows-per-call, failure/timeout rates,
//! retry backoff waits. A [`FeedbackStore`] folds any number of
//! [`JournalSnapshot`]s, or a live [`Journal`] from a cursor, into
//! per-`(relation, pattern)` [`SourceProfile`]s, maintains an EWMA health
//! score across folds, detects drift against a caller-supplied model
//! expectation, and serializes to/from the same hand-rolled JSON as every
//! other snapshot in the crate — so a calibration profile is reproducible,
//! diffable, and freezable (a run driven by a frozen profile is
//! bit-for-bit deterministic).
//!
//! The store is deliberately model-agnostic: it records what was
//! *observed* and exposes aggregates ([`SourceProfile::rows_per_call`],
//! [`SourceProfile::failure_rate`], latency percentiles). Turning those
//! into plan costs is the planner's job (`CostModel::calibrated`).

use crate::journal::{
    Event, Journal, JournalEvent, JournalSnapshot, Name, Names, Stamped, WireOutcome,
};
use crate::json::Json;
use crate::metrics::{bucket_index, HistogramSnapshot, HISTOGRAM_BUCKETS};
use std::collections::BTreeMap;

/// EWMA smoothing factor for the per-profile health score: each fold
/// contributes 30% and history keeps 70%, so a recovering source climbs
/// back within a few folds while one bad fold cannot erase a good history.
pub const HEALTH_ALPHA: f64 = 0.3;

/// Divergence factor that flags drift: an observation ≥ 10× (or ≤ 1/10×)
/// of the model's expectation is no longer noise the interpolating cost
/// model can absorb — the plan should be re-costed.
pub const DRIFT_FACTOR: f64 = 10.0;

/// Calibrated statistics for one `(relation, access pattern)` pair, folded
/// from journal snapshots.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SourceProfile {
    /// Relation name.
    pub relation: String,
    /// Access pattern the calls used (`"io"`, `"oo"`, …).
    pub pattern: String,
    /// Wire attempts observed (each retry is one attempt).
    pub attempts: u64,
    /// Attempts that returned rows.
    pub ok: u64,
    /// Attempts that failed with an unavailability fault.
    pub faults: u64,
    /// Attempts that exceeded their timeout budget.
    pub timeouts: u64,
    /// Retry markers attributed to this pattern.
    pub retries: u64,
    /// Total rows returned by successful attempts.
    pub rows: u64,
    /// Total backoff wait charged before retries, in virtual ms.
    pub wait_ms: u64,
    /// Per-attempt latency distribution (log₂ buckets, virtual ms).
    pub latency: HistogramSnapshot,
    /// EWMA health score in `[0, 1]`: the smoothed per-fold success
    /// ratio. 1.0 = every observed attempt succeeded.
    pub health: f64,
    /// Number of folds that contributed traffic to this profile.
    pub folds: u64,
}

impl SourceProfile {
    /// An empty profile for `(relation, pattern)` with the latency bucket
    /// vector materialized at full width, so a serialized profile (which
    /// always round-trips through the full-width vector) compares equal.
    fn empty(relation: String, pattern: String) -> SourceProfile {
        SourceProfile {
            relation,
            pattern,
            latency: HistogramSnapshot {
                buckets: vec![0; HISTOGRAM_BUCKETS],
                ..HistogramSnapshot::default()
            },
            ..SourceProfile::default()
        }
    }

    /// Observed mean rows per successful call (0.0 with no successes).
    pub fn rows_per_call(&self) -> f64 {
        if self.ok == 0 {
            0.0
        } else {
            self.rows as f64 / self.ok as f64
        }
    }

    /// Share of attempts that failed (fault or timeout), in `[0, 1]`.
    pub fn failure_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            (self.faults + self.timeouts) as f64 / self.attempts as f64
        }
    }

    /// Share of attempts that timed out, in `[0, 1]`.
    pub fn timeout_rate(&self) -> f64 {
        if self.attempts == 0 {
            0.0
        } else {
            self.timeouts as f64 / self.attempts as f64
        }
    }

    /// Mean backoff wait per successful call, in virtual ms.
    pub fn wait_per_call_ms(&self) -> f64 {
        if self.ok == 0 {
            0.0
        } else {
            self.wait_ms as f64 / self.ok as f64
        }
    }

    /// Expected virtual milliseconds one *logical* call costs on this
    /// source: attempts-per-success × mean attempt latency, plus the
    /// backoff waits the retries charged. This is the number a calibrated
    /// cost model weighs calls by.
    pub fn effective_call_ms(&self) -> f64 {
        if self.ok == 0 {
            // Never succeeded: every attempt was wasted latency.
            return self.latency.mean() * self.attempts.max(1) as f64 + self.wait_ms as f64;
        }
        let attempts_per_success = self.attempts as f64 / self.ok as f64;
        attempts_per_success * self.latency.mean() + self.wait_per_call_ms()
    }

    /// The number of input (`i`) slots in this profile's pattern.
    pub fn num_inputs(&self) -> usize {
        self.pattern.chars().filter(|&c| c == 'i').count()
    }

    /// Adds one fold pass's `tally` of this profile's traffic, then takes
    /// the pass's EWMA health step.
    fn absorb(&mut self, tally: &SourceProfile) {
        self.attempts += tally.attempts;
        self.ok += tally.ok;
        self.faults += tally.faults;
        self.timeouts += tally.timeouts;
        self.retries += tally.retries;
        self.rows += tally.rows;
        self.wait_ms += tally.wait_ms;
        self.latency.count += tally.latency.count;
        self.latency.sum += tally.latency.sum;
        self.latency.max = self.latency.max.max(tally.latency.max);
        for (bucket, n) in self.latency.buckets.iter_mut().zip(&tally.latency.buckets) {
            *bucket += n;
        }
        self.fold_health(tally.ok, tally.attempts);
    }

    fn fold_health(&mut self, fold_ok: u64, fold_attempts: u64) {
        if fold_attempts == 0 {
            return;
        }
        let ratio = fold_ok as f64 / fold_attempts as f64;
        self.health = if self.folds == 0 {
            ratio
        } else {
            HEALTH_ALPHA * ratio + (1.0 - HEALTH_ALPHA) * self.health
        };
        self.folds += 1;
    }

    fn to_json(&self) -> Json {
        // Latency buckets serialize sparsely as [index, count] pairs.
        let buckets: Vec<Json> = self
            .latency
            .buckets
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| Json::Arr(vec![Json::num(i as u64), Json::num(c)]))
            .collect();
        Json::obj([
            ("relation", Json::str(&self.relation)),
            ("pattern", Json::str(&self.pattern)),
            ("attempts", Json::num(self.attempts)),
            ("ok", Json::num(self.ok)),
            ("faults", Json::num(self.faults)),
            ("timeouts", Json::num(self.timeouts)),
            ("retries", Json::num(self.retries)),
            ("rows", Json::num(self.rows)),
            ("wait_ms", Json::num(self.wait_ms)),
            ("health", Json::Num(self.health)),
            ("folds", Json::num(self.folds)),
            (
                "latency",
                Json::obj([
                    ("count", Json::num(self.latency.count)),
                    ("sum", Json::num(self.latency.sum)),
                    ("max", Json::num(self.latency.max)),
                    ("buckets", Json::Arr(buckets)),
                ]),
            ),
        ])
    }

    fn from_json(doc: &Json) -> Result<SourceProfile, String> {
        let num = |key: &str| {
            doc.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("profile missing numeric {key:?}"))
        };
        let text = |key: &str| {
            doc.get(key)
                .and_then(Json::as_str)
                .map(str::to_owned)
                .ok_or_else(|| format!("profile missing string {key:?}"))
        };
        let lat = doc.get("latency").ok_or("profile missing \"latency\"")?;
        let lat_num = |key: &str| {
            lat.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("latency missing numeric {key:?}"))
        };
        let mut buckets = vec![0u64; HISTOGRAM_BUCKETS];
        if let Some(Json::Arr(pairs)) = lat.get("buckets") {
            for pair in pairs {
                let Json::Arr(kv) = pair else {
                    return Err("latency bucket is not an [index, count] pair".to_owned());
                };
                let (Some(i), Some(c)) = (
                    kv.first().and_then(Json::as_u64),
                    kv.get(1).and_then(Json::as_u64),
                ) else {
                    return Err("latency bucket pair is not numeric".to_owned());
                };
                let slot = buckets
                    .get_mut(i as usize)
                    .ok_or_else(|| format!("latency bucket index {i} out of range"))?;
                *slot = c;
            }
        }
        Ok(SourceProfile {
            relation: text("relation")?,
            pattern: text("pattern")?,
            attempts: num("attempts")?,
            ok: num("ok")?,
            faults: num("faults")?,
            timeouts: num("timeouts")?,
            retries: num("retries")?,
            rows: num("rows")?,
            wait_ms: num("wait_ms")?,
            health: doc
                .get("health")
                .and_then(Json::as_f64)
                .ok_or("profile missing numeric \"health\"")?,
            folds: num("folds")?,
            latency: HistogramSnapshot {
                count: lat_num("count")?,
                sum: lat_num("sum")?,
                max: lat_num("max")?,
                buckets,
            },
        })
    }
}

/// What a static model expects of one relation, for drift detection.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Expectation {
    /// Modeled rows transferred per call.
    pub rows_per_call: f64,
    /// Modeled virtual latency per call, in ms (0.0 = no latency model).
    pub latency_ms: f64,
}

/// One detected divergence between an observed profile and the model.
#[derive(Clone, Debug, PartialEq)]
pub struct DriftFlag {
    /// Relation name.
    pub relation: String,
    /// Access pattern.
    pub pattern: String,
    /// Which quantity diverged (`"rows_per_call"` or `"latency_ms"`).
    pub metric: String,
    /// The observed value.
    pub observed: f64,
    /// What the model expected.
    pub expected: f64,
}

impl std::fmt::Display for DriftFlag {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}^{}: observed {} {:.1} vs modeled {:.1} (>= {DRIFT_FACTOR}x apart)",
            self.relation, self.pattern, self.metric, self.observed, self.expected
        )
    }
}

/// A watermark over one journal's global event sequence, for incremental
/// folding of a *live* journal ([`FeedbackStore::fold_journal`],
/// [`FeedbackStore::fold_since`]).
///
/// A session journal keeps growing while its connection lives; folding the
/// whole snapshot after every request would double-count the events that
/// were already folded. A cursor remembers the first sequence number that
/// has **not** been folded yet, so each incremental fold consumes exactly
/// the new suffix. Sequence numbers are globally monotone within one
/// journal and begin/end pairs occupy adjacent sequences inside one ring
/// entry, so a cursor taken between folds can never split a pair.
/// Events evicted from the ring before they were folded are simply gone
/// (the journal's `dropped` counter accounts for them).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FoldCursor {
    next_seq: u64,
}

impl FoldCursor {
    /// A cursor positioned before the first event.
    pub fn new() -> FoldCursor {
        FoldCursor::default()
    }

    /// The first sequence number that has not been folded yet.
    pub fn position(&self) -> u64 {
        self.next_seq
    }
}

/// The state of one fold pass: the call open on each lane, the last
/// pattern begun per relation, and the pass's tallies per `(relation,
/// pattern)` (no pattern when the call's begin was not seen), merged into
/// the store's profiles when the pass ends. Both feeders, a snapshot's
/// decoded events and the live ring's slots, hand it [`Stamped`] events,
/// so every accounting rule lives in [`FoldPass::step`] alone.
#[derive(Default)]
struct FoldPass {
    open: BTreeMap<u64, (Name, Name)>,
    last_pattern: BTreeMap<Name, Name>,
    tallies: BTreeMap<(Name, Option<Name>), SourceProfile>,
    /// Events visited, and the last one's sequence number.
    events: u64,
    last_seq: Option<u64>,
}

impl FoldPass {
    /// One pass over a snapshot's `events`, each decoded as it is folded,
    /// and the name table the pass's tallies index.
    fn over(events: &[JournalEvent]) -> (FoldPass, Names) {
        let (mut pass, mut names) = (FoldPass::default(), Names::default());
        for e in events {
            let event = Event::decode(e, &mut names).unwrap_or_else(|err| panic!("{err}"));
            pass.step(&Stamped { seq: e.seq, ts_ms: e.ts_ms, lane: e.lane, event });
        }
        (pass, names)
    }

    fn step(&mut self, stamped: &Stamped) {
        self.events += 1;
        self.last_seq = Some(stamped.seq);
        match stamped.event {
            Event::CallBegin { relation, pattern, .. } => {
                self.last_pattern.insert(relation, pattern);
                self.open.insert(stamped.lane, (relation, pattern));
            }
            Event::CallEnd { relation, outcome, .. } => {
                let key = match self.open.remove(&stamped.lane) {
                    Some((relation, pattern)) => (relation, Some(pattern)),
                    None => (relation, None),
                };
                let tally = self.tally(key);
                tally.attempts += 1;
                let latency = match outcome {
                    WireOutcome::Ok { rows, latency_ms } => {
                        tally.ok += 1;
                        tally.rows += rows;
                        latency_ms
                    }
                    WireOutcome::Unavailable { latency_ms } => {
                        tally.faults += 1;
                        latency_ms
                    }
                    WireOutcome::Timeout { latency_ms, .. } => {
                        tally.timeouts += 1;
                        latency_ms
                    }
                };
                tally.latency.count += 1;
                tally.latency.sum += latency;
                tally.latency.max = tally.latency.max.max(latency);
                tally.latency.buckets[bucket_index(latency)] += 1;
            }
            Event::Retry { relation, backoff_ms, .. } => {
                let pattern = self.last_pattern.get(&relation).copied();
                let tally = self.tally((relation, pattern));
                tally.retries += 1;
                tally.wait_ms += backoff_ms;
            }
            _ => {}
        }
    }

    fn tally(&mut self, key: (Name, Option<Name>)) -> &mut SourceProfile {
        self.tallies
            .entry(key)
            .or_insert_with(|| SourceProfile::empty(String::new(), String::new()))
    }
}

/// A calibrated statistics store: per-source, per-pattern profiles folded
/// from journal snapshots, serializable to a frozen JSON profile.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FeedbackStore {
    /// Profiles keyed by `(relation, pattern)`.
    pub profiles: BTreeMap<(String, String), SourceProfile>,
    /// Number of journal snapshots folded in.
    pub folds: u64,
}

impl FeedbackStore {
    /// An empty store.
    pub fn new() -> FeedbackStore {
        FeedbackStore::default()
    }

    /// Folds one journal snapshot into the store: attempts, outcomes, and
    /// latencies from `source.call.*` pairs, retry waits from
    /// `source.retry` markers, and one EWMA health update per profile that
    /// saw traffic in this snapshot. Panics on an event that does not
    /// decode (see [`JournalSnapshot`]).
    pub fn fold(&mut self, snapshot: &JournalSnapshot) {
        let (pass, names) = FoldPass::over(&snapshot.events);
        self.merge(pass, &names);
        self.folds += 1;
    }

    /// Incrementally folds the events of `snapshot` that `cursor` has not
    /// seen yet, advancing the cursor past them. Returns the number of
    /// events folded; a call that finds nothing new leaves the store (and
    /// its fold count) completely untouched, so idle polls do not dilute
    /// the EWMA health scores.
    ///
    /// This is the streaming counterpart of [`FeedbackStore::fold`], and
    /// panics where it does. Counting statistics (attempts, rows, latency
    /// histograms) end up identical to a single fold of the final
    /// snapshot; only the EWMA health and the fold count depend on how the
    /// stream was sliced (each slice with traffic is one EWMA step). A
    /// live journal folds cheaper through [`FeedbackStore::fold_journal`],
    /// which needs no snapshot.
    pub fn fold_since(&mut self, snapshot: &JournalSnapshot, cursor: &mut FoldCursor) -> u64 {
        let first = snapshot.events.partition_point(|e| e.seq < cursor.next_seq);
        let (pass, names) = FoldPass::over(&snapshot.events[first..]);
        self.fold_incremental(pass, &names, cursor)
    }

    /// [`FeedbackStore::fold_since`] straight from a live `journal`'s
    /// ring, without building a snapshot: the same events, the same
    /// count, the same cursor position and the same store. A daemon
    /// session folds its journal every N requests and once more at
    /// session end, and the cursor guarantees each event contributes
    /// exactly once.
    ///
    /// The fold holds the journal lock while it binary-searches the ring
    /// for the cursor and visits only the slots after it, reading their
    /// typed events in place (names stay ids until the pass merges), so
    /// the cost is O(events since the cursor) and does not grow with the
    /// ring's occupancy.
    pub fn fold_journal(&mut self, journal: &Journal, cursor: &mut FoldCursor) -> u64 {
        journal.fold_from(cursor.next_seq, |names, fresh| {
            let mut pass = FoldPass::default();
            fresh.for_each(|event| pass.step(&event));
            self.fold_incremental(pass, names, cursor)
        })
    }

    /// Ends one incremental pass: a pass that saw events advances `cursor`
    /// past the last one and counts as a fold; an empty one changes
    /// nothing. Returns the number of events the pass visited.
    fn fold_incremental(&mut self, pass: FoldPass, names: &Names, cursor: &mut FoldCursor) -> u64 {
        let (events, last_seq) = (pass.events, pass.last_seq);
        self.merge(pass, names);
        if let Some(last_seq) = last_seq {
            cursor.next_seq = last_seq + 1;
            self.folds += 1;
        }
        events
    }

    /// Merges a pass's tallies into the profiles, naming them through
    /// `names`, with one EWMA health step per profile that saw attempts.
    fn merge(&mut self, pass: FoldPass, names: &Names) {
        for ((relation, pattern), tally) in pass.tallies {
            let relation = names.get(relation);
            let pattern = pattern.map_or("?", |pattern| names.get(pattern));
            self.profiles
                .entry((relation.to_owned(), pattern.to_owned()))
                .or_insert_with(|| SourceProfile::empty(relation.to_owned(), pattern.to_owned()))
                .absorb(&tally);
        }
    }

    /// The profile for `(relation, pattern)`, if any traffic was folded.
    pub fn profile(&self, relation: &str, pattern: &str) -> Option<&SourceProfile> {
        self.profiles
            .get(&(relation.to_owned(), pattern.to_owned()))
    }

    /// All profiles of `relation`, across patterns.
    pub fn profiles_of<'a>(
        &'a self,
        relation: &'a str,
    ) -> impl Iterator<Item = &'a SourceProfile> {
        self.profiles
            .values()
            .filter(move |p| p.relation == relation)
    }

    /// Aggregated health of `relation` over its patterns, weighted by
    /// attempts (`None` with no traffic).
    pub fn relation_health(&self, relation: &str) -> Option<f64> {
        let (mut weighted, mut attempts) = (0.0, 0u64);
        for p in self.profiles_of(relation) {
            weighted += p.health * p.attempts as f64;
            attempts += p.attempts;
        }
        (attempts > 0).then(|| weighted / attempts as f64)
    }

    /// Drift flags against a per-`(relation, pattern)` expectation: a
    /// profile whose observed rows-per-call or mean latency is ≥
    /// [`DRIFT_FACTOR`]× away from the expectation (in either direction) is
    /// flagged. The daemon's telemetry hub needs this granularity:
    /// rows-per-call for a full scan (`oo`) and a per-binding probe (`io`)
    /// of the same relation differ by orders of magnitude, so one
    /// per-relation baseline would self-flag immediately.
    pub fn drift_flags_by<F>(&self, expect: F) -> Vec<DriftFlag>
    where
        F: Fn(&str, &str) -> Option<Expectation>,
    {
        let mut flags = Vec::new();
        let apart = |observed: f64, expected: f64| {
            observed.max(expected) >= DRIFT_FACTOR * observed.min(expected).max(1e-9)
                && (observed - expected).abs() > 1e-9
        };
        for profile in self.profiles.values() {
            let Some(expectation) = expect(&profile.relation, &profile.pattern) else {
                continue;
            };
            if profile.ok > 0 && apart(profile.rows_per_call(), expectation.rows_per_call) {
                flags.push(DriftFlag {
                    relation: profile.relation.clone(),
                    pattern: profile.pattern.clone(),
                    metric: "rows_per_call".to_owned(),
                    observed: profile.rows_per_call(),
                    expected: expectation.rows_per_call,
                });
            }
            if expectation.latency_ms > 0.0
                && profile.latency.count > 0
                && apart(profile.latency.mean(), expectation.latency_ms)
            {
                flags.push(DriftFlag {
                    relation: profile.relation.clone(),
                    pattern: profile.pattern.clone(),
                    metric: "latency_ms".to_owned(),
                    observed: profile.latency.mean(),
                    expected: expectation.latency_ms,
                });
            }
        }
        flags
    }

    /// Serializes the store to a frozen JSON profile.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("feedback_version", Json::num(1)),
            ("folds", Json::num(self.folds)),
            (
                "profiles",
                Json::Arr(self.profiles.values().map(SourceProfile::to_json).collect()),
            ),
        ])
    }

    /// Reads a store back from [`FeedbackStore::to_json`] output.
    pub fn from_json(doc: &Json) -> Result<FeedbackStore, String> {
        let folds = doc
            .get("folds")
            .and_then(Json::as_u64)
            .ok_or("feedback snapshot missing numeric \"folds\"")?;
        let Some(Json::Arr(entries)) = doc.get("profiles") else {
            return Err("feedback snapshot missing \"profiles\" array".to_owned());
        };
        let mut profiles = BTreeMap::new();
        for entry in entries {
            let p = SourceProfile::from_json(entry)?;
            profiles.insert((p.relation.clone(), p.pattern.clone()), p);
        }
        Ok(FeedbackStore { profiles, folds })
    }

    /// Checks the store's invariants, as `lapq obs-validate` does for the
    /// other snapshot shapes: all rates and health scores in `[0, 1]`,
    /// latency percentiles monotone (p50 ≤ p95 ≤ p99 ≤ max), per-profile
    /// accounting consistent (`ok + faults + timeouts == attempts`,
    /// latency sample count == attempts), and a JSON round trip exact.
    pub fn validate(&self) -> Result<(), String> {
        for ((rel, pat), p) in &self.profiles {
            let ctx = format!("{rel}^{pat}");
            if p.relation != *rel || p.pattern != *pat {
                return Err(format!("{ctx}: profile key does not match its fields"));
            }
            for (name, rate) in [
                ("failure_rate", p.failure_rate()),
                ("timeout_rate", p.timeout_rate()),
                ("health", p.health),
            ] {
                if !(0.0..=1.0).contains(&rate) {
                    return Err(format!("{ctx}: {name} {rate} outside [0, 1]"));
                }
            }
            if p.ok + p.faults + p.timeouts != p.attempts {
                return Err(format!(
                    "{ctx}: ok {} + faults {} + timeouts {} != attempts {}",
                    p.ok, p.faults, p.timeouts, p.attempts
                ));
            }
            if p.latency.count != p.attempts {
                return Err(format!(
                    "{ctx}: latency samples {} != attempts {}",
                    p.latency.count, p.attempts
                ));
            }
            let (p50, p95, p99) = (p.latency.p50(), p.latency.p95(), p.latency.p99());
            if !(p50 <= p95 && p95 <= p99 && p99 <= p.latency.max as f64) {
                return Err(format!(
                    "{ctx}: percentiles not monotone: p50 {p50} p95 {p95} p99 {p99} max {}",
                    p.latency.max
                ));
            }
        }
        let round = FeedbackStore::from_json(&self.to_json())
            .map_err(|e| format!("round trip failed to parse: {e}"))?;
        if &round != self {
            return Err("JSON round trip is not exact".to_owned());
        }
        Ok(())
    }

    /// A human-readable one-line summary per profile (for `lapq calibrate`).
    pub fn summary(&self) -> String {
        let mut out = format!("{} profile(s), {} fold(s)\n", self.profiles.len(), self.folds);
        for p in self.profiles.values() {
            out.push_str(&format!(
                "  {}^{}: {} call(s), {:.1} rows/call, {:.0}% failed, \
                 p50 {:.1}ms p95 {:.1}ms p99 {:.1}ms, {:.1}ms eff/call, health {:.2}\n",
                p.relation,
                p.pattern,
                p.attempts,
                p.rows_per_call(),
                100.0 * p.failure_rate(),
                p.latency.p50(),
                p.latency.p95(),
                p.latency.p99(),
                p.effective_call_ms(),
                p.health,
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::tests::call;
    use crate::journal::{Journal, JournalConfig, WireOutcome};
    use crate::metrics::Counter;

    fn journal() -> Journal {
        Journal::new(JournalConfig::light(), Counter::detached())
    }

    fn ok(j: &Journal, ts: u64, rel: &str, pat: &str, rows: u64, latency: u64) {
        let outcome = WireOutcome::Ok { rows, latency_ms: latency };
        call(j, 0, ts..ts + latency, &format!("{rel}^{pat}"), outcome);
    }

    fn fault(j: &Journal, ts: u64, rel: &str, pat: &str, latency: u64) {
        let outcome = WireOutcome::Unavailable { latency_ms: latency };
        call(j, 0, ts..ts + latency, &format!("{rel}^{pat}"), outcome);
    }

    #[test]
    fn folding_builds_per_pattern_profiles() {
        let j = journal();
        ok(&j, 0, "B", "io", 4, 10);
        ok(&j, 10, "B", "io", 6, 20);
        ok(&j, 30, "B", "oo", 100, 5);
        fault(&j, 40, "S", "o", 5);
        let s = j.intern("S");
        j.record(0, 65, |_| Event::Retry { relation: s, attempt: 2, backoff_ms: 20 });
        ok(&j, 65, "S", "o", 3, 5);

        let mut store = FeedbackStore::new();
        store.fold(&j.snapshot());
        assert_eq!(store.folds, 1);

        let b_io = store.profile("B", "io").unwrap();
        assert_eq!((b_io.attempts, b_io.ok, b_io.rows), (2, 2, 10));
        assert_eq!(b_io.rows_per_call(), 5.0);
        assert_eq!(b_io.num_inputs(), 1);
        assert_eq!(b_io.health, 1.0);
        assert_eq!(b_io.failure_rate(), 0.0);

        let b_oo = store.profile("B", "oo").unwrap();
        assert_eq!(b_oo.rows_per_call(), 100.0);

        let s = store.profile("S", "o").unwrap();
        assert_eq!((s.attempts, s.ok, s.faults), (2, 1, 1));
        assert_eq!(s.failure_rate(), 0.5);
        assert_eq!(s.retries, 1);
        assert_eq!(s.wait_ms, 20);
        assert!(s.effective_call_ms() > 20.0, "{}", s.effective_call_ms());
        assert!(store.relation_health("S").unwrap() < store.relation_health("B").unwrap());
    }

    #[test]
    fn health_is_an_ewma_across_folds() {
        let mut store = FeedbackStore::new();
        let good = journal();
        ok(&good, 0, "S", "o", 1, 5);
        store.fold(&good.snapshot());
        assert_eq!(store.profile("S", "o").unwrap().health, 1.0);

        let bad = journal();
        fault(&bad, 0, "S", "o", 5);
        store.fold(&bad.snapshot());
        let h = store.profile("S", "o").unwrap().health;
        assert!((h - 0.7).abs() < 1e-9, "0.3*0 + 0.7*1.0 = 0.7, got {h}");

        // A fold with no S traffic leaves its health untouched.
        let idle = journal();
        ok(&idle, 0, "B", "oo", 1, 1);
        store.fold(&idle.snapshot());
        assert_eq!(store.profile("S", "o").unwrap().health, h);
        assert_eq!(store.folds, 3);
    }

    #[test]
    fn drift_flags_fire_at_10x() {
        let j = journal();
        ok(&j, 0, "B", "oo", 500, 3); // model expects 10 rows → 50× off
        ok(&j, 3, "T", "oo", 12, 3); // model expects 10 rows → fine
        let mut store = FeedbackStore::new();
        store.fold(&j.snapshot());
        let flags = store.drift_flags_by(|_, _| {
            Some(Expectation { rows_per_call: 10.0, latency_ms: 0.0 })
        });
        assert_eq!(flags.len(), 1, "{flags:?}");
        assert_eq!(flags[0].relation, "B");
        assert_eq!(flags[0].metric, "rows_per_call");
        assert!(flags[0].to_string().contains("B^oo"), "{}", flags[0]);
        // Latency drift fires independently.
        let slow = journal();
        ok(&slow, 0, "L", "o", 10, 200);
        let mut store = FeedbackStore::new();
        store.fold(&slow.snapshot());
        let flags = store.drift_flags_by(|_, _| {
            Some(Expectation { rows_per_call: 10.0, latency_ms: 5.0 })
        });
        assert_eq!(flags.len(), 1, "{flags:?}");
        assert_eq!(flags[0].metric, "latency_ms");
    }

    #[test]
    fn json_round_trip_is_exact_and_validates() {
        let j = journal();
        ok(&j, 0, "B", "io", 4, 10);
        ok(&j, 10, "B", "io", 6, 1000);
        fault(&j, 40, "S", "o", 5);
        call(&j, 0, 50..55, "S^o", WireOutcome::Timeout { latency_ms: 9, timeout_ms: 5 });
        let mut store = FeedbackStore::new();
        store.fold(&j.snapshot());
        store.validate().expect("freshly folded store validates");

        let text = store.to_json().to_pretty();
        let parsed = crate::json::parse(&text).expect("profile JSON parses");
        let back = FeedbackStore::from_json(&parsed).expect("profile JSON loads");
        assert_eq!(back, store, "round trip must be exact");
        back.validate().expect("round-tripped store validates");
    }

    #[test]
    fn validate_rejects_broken_accounting() {
        let j = journal();
        ok(&j, 0, "B", "io", 4, 10);
        let mut store = FeedbackStore::new();
        store.fold(&j.snapshot());
        let key = ("B".to_owned(), "io".to_owned());
        store.profiles.get_mut(&key).unwrap().attempts = 2; // ok+faults != attempts
        let err = store.validate().unwrap_err();
        assert!(err.contains("attempts"), "{err}");

        let mut store = FeedbackStore::new();
        store.fold(&j.snapshot());
        store.profiles.get_mut(&key).unwrap().health = 1.5;
        let err = store.validate().unwrap_err();
        assert!(err.contains("health"), "{err}");
    }

    /// The order-invariant part of a profile: everything except the EWMA
    /// health and the per-profile fold count, which by design depend on
    /// how traffic was sliced into folds.
    fn counting(p: &SourceProfile) -> (u64, u64, u64, u64, u64, u64, u64, HistogramSnapshot) {
        (
            p.attempts,
            p.ok,
            p.faults,
            p.timeouts,
            p.retries,
            p.rows,
            p.wait_ms,
            p.latency.clone(),
        )
    }

    #[test]
    fn fold_since_consumes_each_event_exactly_once() {
        let j = journal();
        ok(&j, 0, "B", "io", 4, 10);
        ok(&j, 10, "B", "io", 6, 20);
        let mut store = FeedbackStore::new();
        let mut cursor = FoldCursor::new();
        assert_eq!(cursor.position(), 0);
        // Each call is one begin/end pair → two events.
        assert_eq!(store.fold_since(&j.snapshot(), &mut cursor), 4);
        assert_eq!(store.profile("B", "io").unwrap().attempts, 2);
        assert_eq!(store.folds, 1);

        // An idle poll folds nothing and changes nothing — not even the
        // fold count, so it cannot dilute the health EWMA.
        let before = store.clone();
        assert_eq!(store.fold_since(&j.snapshot(), &mut cursor), 0);
        assert_eq!(store, before);

        // New traffic folds only the unseen suffix.
        ok(&j, 40, "B", "io", 10, 5);
        assert_eq!(store.fold_since(&j.snapshot(), &mut cursor), 2);
        let p = store.profile("B", "io").unwrap();
        assert_eq!((p.attempts, p.rows), (3, 20));

        // Counting statistics match a one-shot fold of the final snapshot.
        let mut one = FeedbackStore::new();
        one.fold(&j.snapshot());
        assert_eq!(
            counting(store.profile("B", "io").unwrap()),
            counting(one.profile("B", "io").unwrap()),
        );
        store.validate().expect("incrementally folded store validates");
    }

    #[test]
    fn fold_order_is_invariant_for_counting_stats_and_drift() {
        // (relation, pattern, ok?, rows, latency)
        type Call = (&'static str, &'static str, bool, u64, u64);
        const A: &[Call] = &[("B", "io", true, 4, 10), ("S", "o", false, 0, 5)];
        const B: &[Call] = &[("B", "io", true, 6, 20), ("B", "oo", true, 500, 3)];
        const C: &[Call] = &[("S", "o", true, 3, 5)];
        let make = |specs: &[&[Call]]| {
            let j = journal();
            let mut ts = 0;
            for spec in specs {
                for &(rel, pat, is_ok, rows, latency) in *spec {
                    if is_ok {
                        ok(&j, ts, rel, pat, rows, latency);
                    } else {
                        fault(&j, ts, rel, pat, latency);
                    }
                    ts += latency + 1;
                }
            }
            j.snapshot()
        };
        let (a, b, c) = (make(&[A]), make(&[B]), make(&[C]));
        let fold_all = |order: &[&JournalSnapshot]| {
            let mut store = FeedbackStore::new();
            for snap in order {
                store.fold(snap);
            }
            store
        };
        let abc = fold_all(&[&a, &b, &c]);
        let cba = fold_all(&[&c, &b, &a]);
        let bac = fold_all(&[&b, &a, &c]);
        // The same traffic as one combined journal, folded once.
        let mut one = FeedbackStore::new();
        one.fold(&make(&[A, B, C]));

        for store in [&abc, &cba, &bac] {
            assert_eq!(store.folds, 3);
            assert_eq!(store.profiles.len(), one.profiles.len());
            for (key, p) in &one.profiles {
                let q = store.profiles.get(key).unwrap_or_else(|| panic!("{key:?}"));
                assert_eq!(counting(q), counting(p), "{key:?}");
            }
        }

        // Drift flags depend only on the counting stats, so any fold order
        // (and the combined fold) agrees.
        let expect =
            |_: &str, _: &str| Some(Expectation { rows_per_call: 10.0, latency_ms: 0.0 });
        assert_eq!(abc.drift_flags_by(expect), one.drift_flags_by(expect));
        assert_eq!(cba.drift_flags_by(expect), one.drift_flags_by(expect));
        assert!(!abc.drift_flags_by(expect).is_empty(), "B^oo at 500 rows/call flags");

        // EWMA health is order-*dependent* by design — the latest fold
        // weighs HEALTH_ALPHA. S^o faulted in journal A and succeeded in
        // journal C, so the order of A and C decides where it lands.
        let s_abc = abc.profile("S", "o").unwrap().health;
        let s_cba = cba.profile("S", "o").unwrap().health;
        assert!((s_abc - HEALTH_ALPHA).abs() < 1e-9, "fault then ok: {s_abc}");
        assert!((s_cba - (1.0 - HEALTH_ALPHA)).abs() < 1e-9, "ok then fault: {s_cba}");
    }

    #[test]
    fn per_pattern_drift_expectations_are_independent() {
        let j = journal();
        ok(&j, 0, "B", "oo", 500, 3); // scans are expected to be wide
        ok(&j, 3, "B", "io", 4, 3); // probes are expected to be narrow
        let mut store = FeedbackStore::new();
        store.fold(&j.snapshot());
        // A per-relation baseline cannot describe both patterns at once...
        let flat = store.drift_flags_by(|_, _| {
            Some(Expectation { rows_per_call: 500.0, latency_ms: 0.0 })
        });
        assert_eq!(flat.len(), 1, "{flat:?}");
        assert_eq!((flat[0].pattern.as_str(), flat[0].metric.as_str()), ("io", "rows_per_call"));
        // ...while per-(relation, pattern) expectations fit each exactly.
        let by = store.drift_flags_by(|_, pat| {
            Some(Expectation {
                rows_per_call: if pat == "oo" { 500.0 } else { 4.0 },
                latency_ms: 0.0,
            })
        });
        assert!(by.is_empty(), "{by:?}");
    }

    #[test]
    fn summary_names_every_profile() {
        let j = journal();
        ok(&j, 0, "B", "io", 4, 10);
        let mut store = FeedbackStore::new();
        store.fold(&j.snapshot());
        let text = store.summary();
        assert!(text.contains("B^io"), "{text}");
        assert!(text.contains("rows/call"), "{text}");
    }

    /// Seeded cases of the ring-versus-snapshot property; the first 64
    /// seeds run in tier-1, `--features slow-tests` widens to 512.
    const RING_CASES: u64 = if cfg!(feature = "slow-tests") { 512 } else { 64 };

    /// Records one random event on one of three lanes: a wire attempt's
    /// begin/end pair in one slot, or one event of any kind alone —
    /// batches, degradations, mediator phases and recalibrations among
    /// them — at either tier.
    fn record_random(j: &Journal, rng: &mut lap_prng::StdRng, ts: u64) {
        use crate::journal::tests::random_event;
        let lane = rng.gen_range(0..3u64);
        if rng.gen_bool(0.3) {
            j.record_call(lane, ts..ts + rng.gen_range(0..40u64), |names| {
                let mut draw = |end: bool| loop {
                    let event = random_event(rng, names, j.capture_rows());
                    if event.interval() == Some(("source.call", !end)) {
                        break event;
                    }
                };
                (draw(false), draw(true))
            });
        } else {
            j.record(lane, ts, |names| random_event(rng, names, j.capture_rows()));
        }
    }

    /// The ring feeder (`fold_journal`) and the snapshot feeder
    /// (`fold_since` over `snapshot()`) are one fold: at random fold points
    /// over a small ring that overflows between folds, at the light tier
    /// (even cases) and the replay tier (odd ones), both report the same
    /// count, leave the cursor at the same position, and leave stores that
    /// compare equal, EWMA health and fold counts included. Events evicted
    /// before a fold reach only `journal.dropped`, never a profile.
    #[test]
    fn ring_fold_equals_snapshot_fold() {
        let mut overflowed_cases = 0;
        for case in 0..RING_CASES {
            let mut rng = lap_prng::StdRng::seed_from_u64(case);
            let capacity = rng.gen_range(4..40usize);
            let tier = if case % 2 == 0 { JournalConfig::light() } else { JournalConfig::replay() };
            let j = Journal::new(JournalConfig { capacity, ..tier }, Counter::detached());
            let (mut ring, mut ring_cursor) = (FeedbackStore::new(), FoldCursor::new());
            let (mut snap, mut snap_cursor) = (FeedbackStore::new(), FoldCursor::new());
            // Call ends folded, events folded, and events evicted before a
            // fold reached them.
            let (mut ends_folded, mut folded, mut lost) = (0u64, 0u64, 0u64);
            let steps = rng.gen_range(1..160u64);
            for ts in 0..steps {
                record_random(&j, &mut rng, ts);
                if ts + 1 < steps && !rng.gen_bool(0.15) {
                    continue;
                }
                let snapshot = j.snapshot();
                let from = snap_cursor.position();
                let oldest = snapshot.events.first().map_or(from, |e| e.seq);
                lost += oldest.saturating_sub(from);
                ends_folded += snapshot
                    .events_of(crate::journal::kind::SOURCE_CALL_END)
                    .filter(|e| e.seq >= from)
                    .count() as u64;
                let by_snapshot = snap.fold_since(&snapshot, &mut snap_cursor);
                let by_ring = ring.fold_journal(&j, &mut ring_cursor);
                let ctx = format!("case {case}, capacity {capacity}, step {ts}");
                assert_eq!(by_ring, by_snapshot, "{ctx}: folded counts");
                assert_eq!(ring_cursor, snap_cursor, "{ctx}: cursor positions");
                assert_eq!(ring, snap, "{ctx}: stores");
                folded += by_ring;
                assert_eq!(folded + lost, ring_cursor.position(), "{ctx}: every event folded or lost");
                assert!(lost <= j.dropped(), "{ctx}: lost events are dropped events");
                let attempts: u64 = ring.profiles.values().map(|p| p.attempts).sum();
                assert_eq!(attempts, ends_folded, "{ctx}: only retained ends became attempts");
            }
            ring.validate().unwrap_or_else(|e| panic!("case {case}: {e}"));
            overflowed_cases += u64::from(lost > 0);
        }
        assert!(overflowed_cases > 0, "some ring overflowed between folds");
    }
}
