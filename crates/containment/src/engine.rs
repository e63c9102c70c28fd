//! The containment engine: the crate's one door. Every `P ⊑ Q` decision
//! goes through a handle that adds **parallel** per-disjunct evaluation, a
//! **memoized** verdict cache shared across calls, and recorder counters.
//!
//! The paper's `FEASIBLE` algorithm (Fig. 3) and the mediator's rewriting
//! loop both call containment repeatedly — often on the *same* pair of
//! queries (e.g. `ans(Q) ⊑ Q` re-checked per plan candidate, or absorption
//! checks that revisit disjunct pairs). Each decision is Π₂ᴾ-hard in the
//! worst case, so caching verdicts and fanning independent disjuncts onto
//! threads are the two levers that matter. The cache is keyed on
//! [`canonical_key`](crate::canonical_key) pairs, which is α-invariant and
//! *sound*: equal keys imply equivalent queries, so a cached verdict is
//! always the verdict the full procedure would return.
//!
//! [`ContainmentEngine::default()`] is sequential and uncached; a caller
//! opts into the fan-out and the memo via [`EngineConfig`], and the
//! verdict is the same in every configuration.

use crate::canonical::canonical_key;
use crate::ucq::ucq_contained;
use crate::ucqn::{ucqn_contained_parallel, ucqn_contained_stats, ContainmentStats};
use lap_ir::UnionQuery;
use lap_obs::{Counter, Recorder};
use std::collections::HashMap;
use std::fmt;
use std::sync::Mutex;

/// Tuning knobs for a [`ContainmentEngine`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineConfig {
    /// Fan the per-disjunct containment checks onto scoped worker threads
    /// with early-exit cancellation.
    pub parallel: bool,
    /// Memoize verdicts in a canonical-form cache shared across calls.
    pub cache: bool,
}

impl EngineConfig {
    /// Parallel *and* cached.
    pub fn full() -> EngineConfig {
        EngineConfig {
            parallel: true,
            cache: true,
        }
    }
}

/// Aggregate observability counters for one engine over its lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineStats {
    /// Containment decisions requested.
    pub decisions: u64,
    /// Decisions answered from the verdict cache.
    pub cache_hits: u64,
    /// Decisions that ran a full procedure (cache miss or caching off).
    pub cache_misses: u64,
    /// Entries currently held by the verdict cache.
    pub cache_entries: usize,
    /// Merged per-decision procedure counters (recursion depth, mappings,
    /// worker threads, cancellations, …).
    pub procedure: ContainmentStats,
}

impl fmt::Display for EngineStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "decisions={} cache_hits={} cache_misses={} cache_entries={} \
             recursive_calls={} memo_hits={} mappings_checked={} workers={} cancelled={}",
            self.decisions,
            self.cache_hits,
            self.cache_misses,
            self.cache_entries,
            self.procedure.recursive_calls,
            self.procedure.cache_hits,
            self.procedure.mappings_checked,
            self.procedure.parallel_workers,
            self.procedure.cancelled_tasks,
        )
    }
}

/// A containment decision service with an optional verdict cache and an
/// optional parallel evaluation strategy. Cheap to share behind an `Arc`;
/// all methods take `&self` and are thread-safe.
///
/// Lifetime counters live in `lap-obs` [`Counter`]s (named
/// `containment.*` when attached to a [`Recorder`], detached otherwise);
/// [`ContainmentEngine::stats`] is a view over them relative to the
/// baselines captured at construction.
pub struct ContainmentEngine {
    cfg: EngineConfig,
    recorder: Recorder,
    verdicts: Mutex<HashMap<(String, String), bool>>,
    decisions: Counter,
    hits: Counter,
    misses: Counter,
    recursive_calls: Counter,
    memo_hits: Counter,
    mappings_checked: Counter,
    verdict_contained: Counter,
    verdict_not_contained: Counter,
    /// Counter values at construction — shared recorder counters are
    /// monotone, so the per-engine view subtracts these.
    base_decisions: u64,
    base_hits: u64,
    base_misses: u64,
    procedure: Mutex<ContainmentStats>,
}

impl Default for ContainmentEngine {
    fn default() -> ContainmentEngine {
        ContainmentEngine::new(EngineConfig::default())
    }
}

impl fmt::Debug for ContainmentEngine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ContainmentEngine")
            .field("cfg", &self.cfg)
            .field("stats", &self.stats())
            .finish()
    }
}

impl ContainmentEngine {
    /// An engine with the given configuration (not attached to any
    /// recorder; counters are detached but fully functional).
    pub fn new(cfg: EngineConfig) -> ContainmentEngine {
        ContainmentEngine::with_recorder(cfg, &Recorder::disabled())
    }

    /// An engine whose counters register with `recorder` under the
    /// `containment.*` names (decisions, cache hits/misses, recursive
    /// calls, memo hits, mappings checked, verdict tallies).
    pub fn with_recorder(cfg: EngineConfig, recorder: &Recorder) -> ContainmentEngine {
        let decisions = recorder.counter("containment.decisions");
        let hits = recorder.counter("containment.cache_hits");
        let misses = recorder.counter("containment.cache_misses");
        ContainmentEngine {
            cfg,
            recorder: recorder.clone(),
            verdicts: Mutex::new(HashMap::new()),
            // The shared counters may already carry traffic from elsewhere
            // — start this engine's view at zero.
            base_decisions: decisions.get(),
            base_hits: hits.get(),
            base_misses: misses.get(),
            decisions,
            hits,
            misses,
            recursive_calls: recorder.counter("containment.recursive_calls"),
            memo_hits: recorder.counter("containment.memo_hits"),
            mappings_checked: recorder.counter("containment.mappings_checked"),
            verdict_contained: recorder.counter("containment.verdicts.contained"),
            verdict_not_contained: recorder.counter("containment.verdicts.not_contained"),
            procedure: Mutex::new(ContainmentStats::default()),
        }
    }

    /// The engine's configuration.
    pub fn config(&self) -> EngineConfig {
        self.cfg
    }

    /// The recorder this engine reports to (disabled by default).
    pub fn recorder(&self) -> &Recorder {
        &self.recorder
    }

    /// `P ⊑ Q` under this engine's strategy. The decision is the same in
    /// every configuration.
    pub fn contained(&self, p: &UnionQuery, q: &UnionQuery) -> bool {
        self.contained_stats(p, q).0
    }

    /// [`ContainmentEngine::contained`] plus this decision's procedure
    /// counters (all-zero except the engine-cache fields on a cache hit).
    pub fn contained_stats(&self, p: &UnionQuery, q: &UnionQuery) -> (bool, ContainmentStats) {
        self.decisions.incr();
        let key = if self.cfg.cache {
            let key = (canonical_key(p), canonical_key(q));
            let cached = {
                let verdicts = self.verdicts.lock().expect("verdict cache not poisoned");
                verdicts.get(&key).copied()
            };
            if let Some(verdict) = cached {
                self.hits.incr();
                self.record_verdict(verdict);
                let stats = ContainmentStats {
                    engine_cache_hits: 1,
                    ..ContainmentStats::default()
                };
                self.procedure
                    .lock()
                    .expect("stats mutex not poisoned")
                    .absorb(&stats);
                return (verdict, stats);
            }
            Some(key)
        } else {
            None
        };
        self.misses.incr();
        let (verdict, mut stats) = self.decide(p, q);
        stats.engine_cache_misses = 1;
        self.record_verdict(verdict);
        self.recursive_calls.add(stats.recursive_calls);
        self.memo_hits.add(stats.cache_hits);
        self.mappings_checked.add(stats.mappings_checked);
        if let Some(key) = key {
            self.verdicts
                .lock()
                .expect("verdict cache not poisoned")
                .insert(key, verdict);
        }
        self.procedure
            .lock()
            .expect("stats mutex not poisoned")
            .absorb(&stats);
        (verdict, stats)
    }

    fn record_verdict(&self, verdict: bool) {
        if verdict {
            self.verdict_contained.incr();
        } else {
            self.verdict_not_contained.incr();
        }
    }

    /// Runs the underlying decision procedure: positive pairs take the
    /// plain UCQ path, everything else the Wei–Lausen recursion.
    fn decide(&self, p: &UnionQuery, q: &UnionQuery) -> (bool, ContainmentStats) {
        if p.is_positive() && q.is_positive() {
            // Sagiv–Yannakakis per-disjunct-pair mapping search; cheap
            // enough that the parallel fan-out is reserved for negation.
            (ucq_contained(p, q), ContainmentStats::default())
        } else if self.cfg.parallel {
            ucqn_contained_parallel(p, q)
        } else {
            ucqn_contained_stats(p, q)
        }
    }

    /// `P ≡ Q` under this engine's strategy.
    pub fn equivalent(&self, p: &UnionQuery, q: &UnionQuery) -> bool {
        self.contained(p, q) && self.contained(q, p)
    }

    /// A snapshot of the engine's lifetime counters since construction — a
    /// view over the shared recorder counters.
    pub fn stats(&self) -> EngineStats {
        EngineStats {
            decisions: self.decisions.get() - self.base_decisions,
            cache_hits: self.hits.get() - self.base_hits,
            cache_misses: self.misses.get() - self.base_misses,
            cache_entries: self
                .verdicts
                .lock()
                .expect("verdict cache not poisoned")
                .len(),
            procedure: *self.procedure.lock().expect("stats mutex not poisoned"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ucqn::ucqn_contained_stats;
    use lap_ir::parse_query;

    fn q(text: &str) -> UnionQuery {
        parse_query(text).unwrap()
    }

    const PAIRS: &[(&str, &str)] = &[
        ("Q(x) :- R(x).", "Q(x) :- R(x), S(x).\nQ(x) :- R(x), not S(x)."),
        ("Q(x) :- R(x), S(x).", "Q(x) :- R(x)."),
        ("Q(x) :- R(x).", "Q(x) :- R(x), S(x)."),
        ("Q(x) :- R(x), not S(x).", "Q(x) :- R(x)."),
        ("Q(x) :- R(x).", "Q(x) :- R(x), not S(x)."),
        (
            "Q(x) :- E(x, y), E(y, z), not E(x, z).",
            "Q(x) :- E(x, y), not E(y, y).",
        ),
        (
            "Q(x) :- R(x), not S(x).\nQ(x) :- R(x), S(x).",
            "Q(x) :- R(x).",
        ),
    ];

    /// Every configuration agrees with the crate's free search
    /// `ucqn_contained_stats`, which the engine wraps.
    #[test]
    fn every_config_agrees_with_the_free_function() {
        let configs = [
            EngineConfig::default(),
            EngineConfig::full(),
            EngineConfig {
                parallel: true,
                cache: false,
            },
            EngineConfig {
                parallel: false,
                cache: true,
            },
        ];
        for cfg in configs {
            let engine = ContainmentEngine::new(cfg);
            for (p, qq) in PAIRS {
                let (p, qq) = (q(p), q(qq));
                assert_eq!(
                    engine.contained(&p, &qq),
                    ucqn_contained_stats(&p, &qq).0,
                    "cfg {cfg:?} disagrees on P={p} Q={qq}"
                );
            }
        }
    }

    #[test]
    fn cache_hits_on_repeat_and_alpha_variants() {
        let engine = ContainmentEngine::new(EngineConfig {
            parallel: false,
            cache: true,
        });
        let p = q("Q(x) :- R(x), not S(x).");
        let qq = q("Q(x) :- R(x).");
        assert!(engine.contained(&p, &qq));
        let (_, stats) = engine.contained_stats(&p, &qq);
        assert_eq!(stats.engine_cache_hits, 1, "{stats:?}");
        // An α-renamed variant hits the same entry.
        let p2 = q("Q(a) :- R(a), not S(a).");
        let (v, stats) = engine.contained_stats(&p2, &qq);
        assert!(v);
        assert_eq!(stats.engine_cache_hits, 1, "{stats:?}");
        let s = engine.stats();
        assert_eq!(s.decisions, 3);
        assert_eq!(s.cache_hits, 2);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_entries, 1);
    }

    #[test]
    fn uncached_engine_never_reports_hits() {
        let engine = ContainmentEngine::default();
        let p = q("Q(x) :- R(x).");
        for _ in 0..3 {
            engine.contained(&p, &p);
        }
        let s = engine.stats();
        assert_eq!(s.cache_hits, 0);
        assert_eq!(s.cache_misses, 3);
        assert_eq!(s.cache_entries, 0);
    }

    #[test]
    fn parallel_engine_reports_workers() {
        let engine = ContainmentEngine::new(EngineConfig {
            parallel: true,
            cache: false,
        });
        let p = q("Q(x) :- R(x), not S(x).\nQ(x) :- R(x), S(x).\nQ(x) :- R(x), T(x).");
        let qq = q("Q(x) :- R(x).");
        let (v, stats) = engine.contained_stats(&p, &qq);
        assert!(v);
        assert!(stats.parallel_workers >= 1, "{stats:?}");
    }

    #[test]
    fn recorder_mirrors_engine_counters() {
        let rec = Recorder::new();
        let engine = ContainmentEngine::with_recorder(EngineConfig::full(), &rec);
        let p = q("Q(x) :- R(x), not S(x).");
        let qq = q("Q(x) :- R(x).");
        engine.contained(&p, &qq); // miss
        engine.contained(&p, &qq); // hit
        engine.contained(&qq, &p); // miss, not contained
        let s = engine.stats();
        let snap = rec.snapshot();
        assert_eq!(snap.counter("containment.decisions"), s.decisions);
        assert_eq!(snap.counter("containment.cache_hits"), s.cache_hits);
        assert_eq!(snap.counter("containment.cache_misses"), s.cache_misses);
        assert_eq!(
            snap.counter("containment.recursive_calls"),
            s.procedure.recursive_calls
        );
        assert_eq!(
            snap.counter("containment.verdicts.contained")
                + snap.counter("containment.verdicts.not_contained"),
            s.decisions
        );
        // A second engine on the same recorder starts its view at zero
        // while the recorder's counters keep their values.
        let second = ContainmentEngine::with_recorder(EngineConfig::full(), &rec);
        assert_eq!(second.stats(), EngineStats::default());
        assert_eq!(rec.snapshot().counter("containment.decisions"), 3);
        second.contained(&p, &qq);
        assert_eq!(second.stats().decisions, 1);
        assert_eq!(rec.snapshot().counter("containment.decisions"), 4);
    }

    #[test]
    fn stats_display_is_complete() {
        let engine = ContainmentEngine::new(EngineConfig::full());
        let p = q("Q(x) :- R(x), not S(x).");
        engine.contained(&p, &p);
        let line = engine.stats().to_string();
        for field in ["decisions=", "cache_hits=", "cache_misses=", "recursive_calls="] {
            assert!(line.contains(field), "{line}");
        }
    }
}
