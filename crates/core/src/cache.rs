//! A shared plan cache: compile once per *query text*, serve many
//! sessions.
//!
//! The `lapd` query service answers a stream of repeated queries; paying
//! parse + containment + lowering on every request is exactly the cost
//! [`crate::PreparedQuery`] was built to amortize. [`PlanCache`] is the
//! concurrent, bounded store that makes the amortization shared: an LRU
//! map from **canonical query text** ([`canonical_text`]) to `Arc`-shared
//! compiled entries, bounded by an estimated **byte budget** instead of an
//! entry count (one giant union should not pin a thousand small plans
//! out), with hit/miss/eviction counters mirrored to a recorder
//! (`plan_cache.hit` / `plan_cache.miss` / `plan_cache.eviction` /
//! `plan_cache.publish`).
//!
//! ## The publish-swap invariant
//!
//! Cached entries are shared across sessions, so **nothing may mutate an
//! entry in place** — a reader holding the `Arc` mid-execution would see a
//! torn plan (`recalibrate_prepared`'s in-place `replace_plans` is safe
//! only for an entry a single caller owns). Instead, adaptive re-planning
//! follows *replace-on-publish*: build the recalibrated entry **aside**
//! (clone, re-plan the clone), then [`PlanCache::publish`] it, which swaps
//! the cache slot atomically under the cache lock. Sessions that already
//! hold the old `Arc` finish on the old — internally consistent — plans;
//! every later [`PlanCache::get`] sees the new entry. Both plans compute
//! the same answers (re-ordering an executable body is
//! answer-preserving), so the swap is invisible except in cost.
//!
//! Compilation happens **outside** the cache lock: two sessions racing on
//! the same cold key may both compile, and the second insert wins. That
//! duplicated work is benign (both entries are equivalent) and keeps a
//! slow compile from serializing every other session.

use lap_obs::{Counter, Recorder};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Default byte budget: 64 MiB of estimated plan bytes.
pub const DEFAULT_CACHE_BYTES: usize = 64 * 1024 * 1024;

/// Canonicalizes query/program text for cache keying: whitespace runs
/// collapse to one space and the ends are trimmed, so reformatting a
/// program does not defeat the cache while any semantic change (even a
/// renamed variable) keys a distinct entry.
pub fn canonical_text(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut in_gap = true; // swallow leading whitespace
    for ch in text.chars() {
        if ch.is_whitespace() {
            if !in_gap {
                out.push(' ');
                in_gap = true;
            }
        } else {
            out.push(ch);
            in_gap = false;
        }
    }
    while out.ends_with(' ') {
        out.pop();
    }
    out
}

/// A point-in-time view of the cache counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlanCacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that missed (the caller compiled).
    pub misses: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Replace-on-publish swaps (adaptive re-planning).
    pub publishes: u64,
    /// Entries currently resident.
    pub entries: usize,
    /// Estimated bytes currently resident.
    pub bytes: usize,
}

impl PlanCacheStats {
    /// Hit rate over all lookups, in `[0, 1]` (0 when no lookups).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A per-entry view for operator consoles (`daemon-ctl stats`): which keys
/// are resident, how big each is, and how often each has been served.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PlanCacheEntry {
    /// Canonical query text the entry is keyed on.
    pub key: String,
    /// Estimated resident bytes.
    pub bytes: usize,
    /// Lookups served from this slot since it was (re)inserted.
    pub hits: u64,
    /// LRU clock value at last use (larger = more recently used).
    pub last_used: u64,
}

struct Slot<V> {
    value: Arc<V>,
    bytes: usize,
    /// LRU clock: larger = more recently used.
    last_used: u64,
    /// Hits served from this slot since (re)insertion.
    hits: u64,
}

struct CacheState<V> {
    slots: HashMap<String, Slot<V>>,
    bytes: usize,
    tick: u64,
}

/// A thread-safe byte-budgeted LRU cache of `Arc`-shared compiled plans,
/// keyed on canonical query text. See the module docs for the sharing and
/// publish-swap contract.
pub struct PlanCache<V> {
    state: Mutex<CacheState<V>>,
    byte_budget: usize,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
    publishes: Counter,
}

impl<V> PlanCache<V> {
    /// A cache bounded by `byte_budget` estimated bytes (min 1), with
    /// detached counters.
    pub fn new(byte_budget: usize) -> PlanCache<V> {
        PlanCache {
            state: Mutex::new(CacheState {
                slots: HashMap::new(),
                bytes: 0,
                tick: 0,
            }),
            byte_budget: byte_budget.max(1),
            hits: Counter::detached(),
            misses: Counter::detached(),
            evictions: Counter::detached(),
            publishes: Counter::detached(),
        }
    }

    /// Mirrors the cache counters into `recorder` as `plan_cache.hit`,
    /// `plan_cache.miss`, `plan_cache.eviction`, and `plan_cache.publish`.
    pub fn with_recorder(mut self, recorder: &Recorder) -> PlanCache<V> {
        self.hits = recorder.counter("plan_cache.hit");
        self.misses = recorder.counter("plan_cache.miss");
        self.evictions = recorder.counter("plan_cache.eviction");
        self.publishes = recorder.counter("plan_cache.publish");
        self
    }

    /// The configured byte budget.
    pub fn byte_budget(&self) -> usize {
        self.byte_budget
    }

    /// Looks `key` up, bumping the hit/miss counters and the entry's LRU
    /// position.
    pub fn get(&self, key: &str) -> Option<Arc<V>> {
        let mut state = self.lock();
        state.tick += 1;
        let tick = state.tick;
        match state.slots.get_mut(key) {
            Some(slot) => {
                slot.last_used = tick;
                slot.hits += 1;
                self.hits.incr();
                Some(Arc::clone(&slot.value))
            }
            None => {
                self.misses.incr();
                None
            }
        }
    }

    /// Looks `key` up **without** touching the hit/miss counters or the
    /// LRU clock — for maintenance passes (e.g. building a recalibrated
    /// replacement aside) that must not masquerade as query traffic.
    pub fn peek(&self, key: &str) -> Option<Arc<V>> {
        let state = self.lock();
        state.slots.get(key).map(|slot| Arc::clone(&slot.value))
    }

    /// Inserts `value` under `key` with an estimated size of `bytes`,
    /// evicting least-recently-used entries until the budget holds again
    /// (the fresh entry itself is never evicted by its own insert).
    /// Returns the shared handle.
    pub fn insert(&self, key: &str, value: V, bytes: usize) -> Arc<V> {
        let value = Arc::new(value);
        let mut state = self.lock();
        state.tick += 1;
        let tick = state.tick;
        let replaced = state.slots.insert(
            key.to_owned(),
            Slot { value: Arc::clone(&value), bytes, last_used: tick, hits: 0 },
        );
        if let Some(old) = &replaced {
            state.bytes -= old.bytes;
        }
        state.bytes += bytes;
        let evicted = self.evict_to_budget(&mut state, key);
        // Freeing an entry is the slow part of an eviction: no lookup
        // should wait on it.
        drop(state);
        drop((replaced, evicted));
        value
    }

    /// The cache-level lookup-or-compile entry point: on a hit, the shared
    /// entry; on a miss, `compile()` runs **without the cache lock held**
    /// and its result is inserted (`size` estimates its bytes). Returns
    /// the handle plus whether it was a hit. Two racing sessions may both
    /// compile a cold key; the later insert wins — benign, both entries
    /// are equivalent compilations of the same text.
    pub fn get_or_compile<E>(
        &self,
        key: &str,
        size: impl FnOnce(&V) -> usize,
        compile: impl FnOnce() -> Result<V, E>,
    ) -> Result<(Arc<V>, bool), E> {
        if let Some(found) = self.get(key) {
            return Ok((found, true));
        }
        let value = compile()?;
        let bytes = size(&value);
        Ok((self.insert(key, value, bytes), false))
    }

    /// Replace-on-publish: atomically swaps the slot for `key` to the
    /// already-built `value` (see the module docs for why in-place
    /// mutation of a shared entry is forbidden). Readers holding the old
    /// `Arc` keep a consistent entry; new lookups see the new one. When
    /// `key` is absent (e.g. evicted while the replacement was being
    /// built), the new entry is simply inserted.
    pub fn publish(&self, key: &str, value: V, bytes: usize) -> Arc<V> {
        self.publishes.incr();
        self.insert(key, value, bytes)
    }

    /// Current counter values and residency.
    pub fn stats(&self) -> PlanCacheStats {
        let state = self.lock();
        PlanCacheStats {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
            publishes: self.publishes.get(),
            entries: state.slots.len(),
            bytes: state.bytes,
        }
    }

    /// Per-entry residency detail, sorted by key for stable console and
    /// JSON output. Does not touch counters or the LRU clock.
    pub fn entries_detail(&self) -> Vec<PlanCacheEntry> {
        let state = self.lock();
        let mut entries: Vec<PlanCacheEntry> = state
            .slots
            .iter()
            .map(|(key, slot)| PlanCacheEntry {
                key: key.clone(),
                bytes: slot.bytes,
                hits: slot.hits,
                last_used: slot.last_used,
            })
            .collect();
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        entries
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, CacheState<V>> {
        self.state.lock().expect("plan cache mutex not poisoned")
    }

    /// Evicts least-recently-used entries (never `fresh`) until the byte
    /// budget holds or only the fresh entry remains, and returns them.
    fn evict_to_budget(&self, state: &mut CacheState<V>, fresh: &str) -> Vec<Slot<V>> {
        let mut evicted = Vec::new();
        while state.bytes > self.byte_budget && state.slots.len() > 1 {
            let victim = state
                .slots
                .iter()
                .filter(|(k, _)| k.as_str() != fresh)
                .min_by_key(|(_, slot)| slot.last_used)
                .map(|(k, _)| k.clone());
            let Some(victim) = victim else { break };
            if let Some(old) = state.slots.remove(&victim) {
                state.bytes -= old.bytes;
                self.evictions.incr();
                evicted.push(old);
            }
        }
        evicted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canonical_text_is_whitespace_insensitive_but_content_sensitive() {
        let a = canonical_text("C^oo.\nQ(i) :- C(i, a).\n");
        let b = canonical_text("  C^oo.   Q(i) :-\tC(i, a).  ");
        assert_eq!(a, b);
        assert_ne!(a, canonical_text("C^oo. Q(j) :- C(j, a)."));
    }

    #[test]
    fn hit_miss_and_lru_eviction_under_byte_budget() {
        let cache: PlanCache<String> = PlanCache::new(100);
        assert!(cache.get("a").is_none());
        cache.insert("a", "A".to_owned(), 40);
        cache.insert("b", "B".to_owned(), 40);
        // Touch "a" so "b" is the LRU victim.
        assert_eq!(cache.get("a").as_deref(), Some(&"A".to_owned()));
        cache.insert("c", "C".to_owned(), 40);
        let stats = cache.stats();
        assert_eq!(stats.entries, 2, "{stats:?}");
        assert_eq!(stats.evictions, 1);
        assert!(cache.get("b").is_none(), "LRU entry must have been evicted");
        assert!(cache.get("a").is_some() && cache.get("c").is_some());
        assert!(stats.bytes <= 100);
    }

    #[test]
    fn oversized_entry_survives_its_own_insert() {
        let cache: PlanCache<u8> = PlanCache::new(10);
        cache.insert("big", 1, 1000);
        assert!(cache.get("big").is_some(), "fresh entry is never self-evicted");
        cache.insert("next", 2, 5);
        // The oversized entry is the eviction victim of the next insert.
        assert!(cache.get("big").is_none());
        assert!(cache.get("next").is_some());
    }

    #[test]
    fn get_or_compile_compiles_once_then_hits() {
        let cache: PlanCache<u32> = PlanCache::new(1000);
        let mut compiles = 0;
        let (v, hit) = cache
            .get_or_compile("k", |_| 8, || -> Result<u32, ()> {
                compiles += 1;
                Ok(42)
            })
            .unwrap();
        assert_eq!((*v, hit, compiles), (42, false, 1));
        let (v, hit) = cache
            .get_or_compile("k", |_| 8, || -> Result<u32, ()> {
                compiles += 1;
                Ok(99)
            })
            .unwrap();
        assert_eq!((*v, hit, compiles), (42, true, 1), "hit must not recompile");
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn publish_swaps_the_slot_but_old_handles_stay_consistent() {
        let cache: PlanCache<Vec<u64>> = PlanCache::new(1000);
        cache.insert("q", vec![1, 2, 3], 24);
        let old = cache.get("q").unwrap();
        let swapped = cache.publish("q", vec![3, 2, 1], 24);
        assert_eq!(*old, vec![1, 2, 3], "held handle keeps the old entry intact");
        assert_eq!(*swapped, vec![3, 2, 1]);
        assert_eq!(*cache.get("q").unwrap(), vec![3, 2, 1], "new lookups see the swap");
        assert_eq!(cache.stats().publishes, 1);
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn concurrent_sessions_share_one_compilation_steady_state() {
        let cache: std::sync::Arc<PlanCache<String>> = std::sync::Arc::new(PlanCache::new(10_000));
        // Warm the key, then hammer it from many threads: every lookup
        // must hit and return the same shared entry.
        cache.insert("q", "plan".to_owned(), 16);
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = std::sync::Arc::clone(&cache);
                scope.spawn(move || {
                    for _ in 0..200 {
                        let got = cache.get("q").expect("warm key always hits");
                        assert_eq!(*got, "plan");
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(stats.hits, 1600);
        assert_eq!(stats.entries, 1);
    }

    #[test]
    fn entries_detail_reports_per_entry_hits_and_bytes() {
        let cache: PlanCache<u8> = PlanCache::new(1000);
        cache.insert("b", 2, 20);
        cache.insert("a", 1, 10);
        cache.get("a");
        cache.get("a");
        cache.get("b");
        let detail = cache.entries_detail();
        assert_eq!(detail.len(), 2);
        assert_eq!(
            detail.iter().map(|e| e.key.as_str()).collect::<Vec<_>>(),
            ["a", "b"],
            "sorted by key"
        );
        assert_eq!((detail[0].bytes, detail[0].hits), (10, 2));
        assert_eq!((detail[1].bytes, detail[1].hits), (20, 1));
        assert!(detail[1].last_used > 0);
        // A publish resets the slot's hit count — it is a new entry.
        cache.publish("a", 3, 10);
        let detail = cache.entries_detail();
        assert_eq!(detail[0].hits, 0);
        // The detail pass itself must not count as traffic.
        assert_eq!(cache.stats().hits, 3);
    }

    #[test]
    fn recorder_mirrors_cache_counters() {
        let rec = Recorder::new();
        let cache: PlanCache<u8> = PlanCache::new(100).with_recorder(&rec);
        cache.get("missing");
        cache.insert("k", 1, 10);
        cache.get("k");
        cache.publish("k", 2, 10);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("plan_cache.miss"), 1);
        assert_eq!(snap.counter("plan_cache.hit"), 1);
        assert_eq!(snap.counter("plan_cache.publish"), 1);
    }
}
