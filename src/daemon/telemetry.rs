//! The daemon-wide telemetry plane: streaming journal folds behind a
//! publish-swap, drift baselines, and recalibration rate limiting.
//!
//! Every session owns a private journal; the [`TelemetryHub`] is where
//! their observations become *shared* state. A session folds its journal
//! incrementally (a [`FoldCursor`] guarantees each event contributes
//! exactly once) into the hub's published [`FeedbackStore`]; the watcher
//! thread and the operator ops read that store to decide when a cached
//! plan no longer matches reality.
//!
//! ## Lock discipline
//!
//! The published store follows the same replace-on-publish idea as the
//! plan cache: readers take an `RwLock` read guard just long enough to
//! clone an `Arc`, so profile fetches, drift sweeps, and stats never
//! block behind a fold. Writers (folds) serialize on a separate fold
//! mutex, build the next store aside (clone + incremental fold), and swap
//! the `Arc` under a brief write guard. The fold reads the session's
//! journal ring from its cursor ([`FeedbackStore::fold_journal`]), so it
//! is O(events since the cursor) + O(resident profiles) for the clone,
//! with no I/O and no snapshot: the fold mutex is never held long.
//!
//! ## Drift baselines
//!
//! The static cost model has no latency model and one uniform extent, so
//! the hub measures drift against *first observations* instead: the first
//! fold that shows traffic for a `(relation, pattern)` freezes its
//! rows-per-call and mean latency as that profile's [`Expectation`].
//! After the watcher recalibrates the affected entries, the baselines for
//! those relations are refreshed to the current observations — the new
//! reality is now the expectation, and the same drift cannot re-trigger.

use lap_obs::{Counter, DriftFlag, Expectation, FeedbackStore, FoldCursor, Journal, Recorder};
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// EWMA relation health below which the watcher considers a source
/// unhealthy enough to re-cost the plans that depend on it.
pub(crate) const HEALTH_FLOOR: f64 = 0.5;

/// The shared telemetry state: the published feedback store, the drift
/// baselines, per-entry recalibration cooldowns, and the counters the
/// `stats` op reports.
pub(crate) struct TelemetryHub {
    /// The published store. Readers clone the `Arc` under a read guard;
    /// folds swap it under a write guard.
    published: RwLock<Arc<FeedbackStore>>,
    /// Serializes the clone-fold-swap sequence across sessions.
    fold_lock: Mutex<()>,
    /// First-observation expectations per `(relation, pattern)`.
    baselines: Mutex<BTreeMap<(String, String), Expectation>>,
    /// Last recalibration attempt per cache key, for the cooldown. A
    /// sweep drops the stamps of keys the plan cache no longer holds.
    cooldowns: Mutex<HashMap<String, Instant>>,
    /// Completed folds (each with at least one new event).
    folds: Counter,
    /// Journal events folded in, across all sessions.
    events_folded: Counter,
    /// Watcher/forced sweeps that ran.
    sweeps: Counter,
    /// Plan-cache entries recalibrated and published.
    recalibrations: Counter,
    /// Recalibration candidates skipped because their cooldown was still
    /// running.
    cooldown_skips: Counter,
    /// Milliseconds since daemon start at the last fold (0 = never).
    last_fold_ms: AtomicU64,
}

impl TelemetryHub {
    /// An empty hub with its counters mirrored into `recorder` under
    /// `daemon.telemetry.*`.
    pub(crate) fn new(recorder: &Recorder) -> TelemetryHub {
        TelemetryHub {
            published: RwLock::new(Arc::new(FeedbackStore::new())),
            fold_lock: Mutex::new(()),
            baselines: Mutex::new(BTreeMap::new()),
            cooldowns: Mutex::new(HashMap::new()),
            folds: recorder.counter("daemon.telemetry.folds"),
            events_folded: recorder.counter("daemon.telemetry.events_folded"),
            sweeps: recorder.counter("daemon.telemetry.sweeps"),
            recalibrations: recorder.counter("daemon.telemetry.recalibrations"),
            cooldown_skips: recorder.counter("daemon.telemetry.cooldown_skips"),
            last_fold_ms: AtomicU64::new(0),
        }
    }

    /// The current published store, cheaply shared.
    pub(crate) fn store(&self) -> Arc<FeedbackStore> {
        Arc::clone(&self.published.read().expect("telemetry store lock"))
    }

    /// Folds the events of `journal` past `cursor` into the published
    /// store and captures baselines for newly-seen profiles. Returns the
    /// number of events folded (0 leaves everything untouched, including
    /// the fold counters). `elapsed_ms` stamps the fold time for `stats`.
    pub(crate) fn fold(&self, journal: &Journal, cursor: &mut FoldCursor, elapsed_ms: u64) -> u64 {
        let _guard = self.fold_lock.lock().expect("telemetry fold lock");
        let mut next = (*self.store()).clone();
        let folded = next.fold_journal(journal, cursor);
        if folded == 0 {
            return 0;
        }
        self.capture_new_baselines(&next);
        *self.published.write().expect("telemetry store lock") = Arc::new(next);
        self.folds.incr();
        self.events_folded.add(folded);
        self.last_fold_ms.store(elapsed_ms, Ordering::SeqCst);
        folded
    }

    /// Drift flags of `store` against the captured baselines.
    pub(crate) fn drift_flags(&self, store: &FeedbackStore) -> Vec<DriftFlag> {
        let baselines = self.baselines.lock().expect("telemetry baselines");
        store.drift_flags_by(|relation, pattern| {
            baselines
                .get(&(relation.to_owned(), pattern.to_owned()))
                .copied()
        })
    }

    /// Re-anchors the baselines of `relations` to their current observed
    /// values in `store` — called after those relations' plans were
    /// recalibrated, so the handled drift stops flagging.
    pub(crate) fn refresh_baselines(&self, store: &FeedbackStore, relations: &BTreeSet<String>) {
        let mut baselines = self.baselines.lock().expect("telemetry baselines");
        for (key, p) in &store.profiles {
            if p.ok > 0 && relations.contains(&p.relation) {
                baselines.insert(key.clone(), expectation_of(p));
            }
        }
    }

    /// Cooldown gate for recalibrating the entry under `key`: returns
    /// `true` (and stamps the attempt) when no attempt ran within
    /// `cooldown`, or when `force` overrides the limit. A `false` is
    /// counted as a cooldown skip.
    pub(crate) fn cooldown_check(&self, key: &str, cooldown: Duration, force: bool) -> bool {
        let mut map = self.cooldowns.lock().expect("telemetry cooldowns");
        let now = Instant::now();
        if !force {
            if let Some(last) = map.get(key) {
                if now.duration_since(*last) < cooldown {
                    self.cooldown_skips.incr();
                    return false;
                }
            }
        }
        map.insert(key.to_owned(), now);
        true
    }

    /// Drops the cooldown stamps of every key not in `live` (the keys the
    /// plan cache still holds), so an evicted entry leaves no stamp.
    pub(crate) fn retain_cooldowns<'k>(&self, live: impl IntoIterator<Item = &'k str>) {
        let live: HashSet<&str> = live.into_iter().collect();
        let mut map = self.cooldowns.lock().expect("telemetry cooldowns");
        map.retain(|key, _| live.contains(key.as_str()));
    }

    pub(crate) fn note_sweep(&self) {
        self.sweeps.incr();
    }

    pub(crate) fn note_recalibration(&self) {
        self.recalibrations.incr();
    }

    pub(crate) fn folds(&self) -> u64 {
        self.folds.get()
    }

    pub(crate) fn events_folded(&self) -> u64 {
        self.events_folded.get()
    }

    pub(crate) fn sweeps(&self) -> u64 {
        self.sweeps.get()
    }

    pub(crate) fn recalibrations(&self) -> u64 {
        self.recalibrations.get()
    }

    pub(crate) fn cooldown_skips(&self) -> u64 {
        self.cooldown_skips.get()
    }

    /// Milliseconds since daemon start at the last fold (0 = never).
    pub(crate) fn last_fold_ms(&self) -> u64 {
        self.last_fold_ms.load(Ordering::SeqCst)
    }

    fn capture_new_baselines(&self, store: &FeedbackStore) {
        let mut baselines = self.baselines.lock().expect("telemetry baselines");
        for (key, p) in &store.profiles {
            if p.ok > 0 && !baselines.contains_key(key) {
                baselines.insert(key.clone(), expectation_of(p));
            }
        }
    }
}

/// A profile's current observations, frozen as the drift expectation.
fn expectation_of(p: &lap_obs::SourceProfile) -> Expectation {
    Expectation {
        rows_per_call: p.rows_per_call(),
        latency_ms: p.latency.mean(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_sweep_keeps_only_the_cooldowns_of_cached_keys() {
        let hub = TelemetryHub::new(&Recorder::disabled());
        let cooldown = Duration::from_secs(3600);
        for key in ["a", "b", "c"] {
            assert!(hub.cooldown_check(key, cooldown, false));
        }
        hub.retain_cooldowns(["b"]);
        let stamped: Vec<String> =
            hub.cooldowns.lock().unwrap().keys().cloned().collect();
        assert_eq!(stamped, ["b"]);
        // The surviving stamp still gates; an evicted key starts afresh.
        assert!(!hub.cooldown_check("b", cooldown, false));
        assert!(hub.cooldown_check("a", cooldown, false));
    }
}
