//! Differential testing of the parallel + memoized containment engine.
//!
//! The engine (`lap::containment::ContainmentEngine`) may only ever be an
//! *optimization*: for every configuration — sequential or parallel,
//! cached or uncached — its verdicts must be bit-identical to the plain
//! sequential, uncached configuration. This harness generates hundreds of
//! seeded UCQ¬ pairs and fails with the exact seed (and the query texts)
//! on any disagreement, so a report like `pair case 137` replays
//! bit-for-bit with `StdRng::seed_from_u64`.

mod door;

use door::contained;
use lap::containment::{canonical_key, ContainmentEngine, EngineConfig};
use lap::core::{feasible_detailed, feasible_detailed_with, DecisionPath};
use lap::ir::{Schema, UnionQuery};
use lap::workload::{gen_query, gen_schema, QueryConfig, SchemaConfig};
use lap_prng::StdRng;

/// Generated-pair volume. The default already satisfies the "hundreds of
/// pairs" bar; `--features slow-tests` widens the sweep.
const PAIRS: u64 = if cfg!(feature = "slow-tests") { 600 } else { 240 };

/// Sub-seeds for one case, derived from a fixed per-suite salt so every
/// suite walks a different but reproducible region of the space.
fn case_rng(salt: u64, case: u64) -> StdRng {
    StdRng::seed_from_u64(salt.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ case)
}

/// One generated UCQ¬ pair over a shared schema. Varies the shape with the
/// case index so small/large, positive/negated, single/multi-disjunct
/// pairs all appear.
fn gen_pair(case: u64) -> (UnionQuery, UnionQuery) {
    let mut rng = case_rng(0xD1FF, case);
    let schema = gen_schema(
        &SchemaConfig {
            num_relations: 4,
            max_arity: 2,
            ..SchemaConfig::default()
        },
        &mut rng,
    );
    let cfg = QueryConfig {
        num_disjuncts: 1 + (case % 3) as usize,
        positive_per_disjunct: 1 + (case % 2) as usize,
        negative_per_disjunct: (case % 2) as usize,
        extra_vars: 2,
        head_arity: 1,
        constant_fraction: 0.15,
        constant_pool: 3,
    };
    let p = gen_query(&schema, &cfg, &mut rng);
    let q = gen_query(&schema, &cfg, &mut rng);
    (p, q)
}

#[test]
fn parallel_containment_agrees_with_sequential_on_generated_pairs() {
    let sequential = ContainmentEngine::default();
    let parallel = ContainmentEngine::new(EngineConfig {
        parallel: true,
        cache: false,
    });
    let mut disagreements = Vec::new();
    for case in 0..PAIRS {
        let (p, q) = gen_pair(case);
        let (seq, _) = sequential.contained_stats(&p, &q);
        let (par, _) = parallel.contained_stats(&p, &q);
        if seq != par {
            disagreements.push(format!(
                "pair case {case}: sequential={seq} parallel={par}\n  P = {p}\n  Q = {q}"
            ));
        }
        // Containment is directional; check the flip side too.
        let (seq_r, _) = sequential.contained_stats(&q, &p);
        let (par_r, _) = parallel.contained_stats(&q, &p);
        if seq_r != par_r {
            disagreements.push(format!(
                "pair case {case} (reversed): sequential={seq_r} parallel={par_r}\n  P = {q}\n  Q = {p}"
            ));
        }
    }
    assert!(
        disagreements.is_empty(),
        "{} disagreement(s) out of {PAIRS} pairs:\n{}",
        disagreements.len(),
        disagreements.join("\n")
    );
}

#[test]
fn cached_engine_agrees_with_uncached_on_generated_pairs() {
    // One engine per configuration, shared across every pair, so the cache
    // accumulates state exactly as it would in a long-lived mediator.
    let cached = ContainmentEngine::new(EngineConfig {
        parallel: false,
        cache: true,
    });
    let full = ContainmentEngine::new(EngineConfig::full());
    for case in 0..PAIRS {
        let (p, q) = gen_pair(case);
        let expected = contained(&p, &q);
        for (name, engine) in [("cached", &cached), ("parallel+cached", &full)] {
            let got = engine.contained(&p, &q);
            assert_eq!(
                got, expected,
                "{name} engine disagrees on pair case {case}:\n  P = {p}\n  Q = {q}"
            );
        }
        // Ask the cached engine again: the repeat must hit the cache and
        // return the same verdict.
        let (again, stats) = cached.contained_stats(&p, &q);
        assert_eq!(
            again, expected,
            "cached repeat flipped on pair case {case}:\n  P = {p}\n  Q = {q}"
        );
        assert_eq!(
            stats.engine_cache_hits, 1,
            "repeat of pair case {case} missed the cache ({stats:?}):\n  P = {p}\n  Q = {q}"
        );
    }
    let s = cached.stats();
    assert!(
        s.cache_hits >= PAIRS,
        "expected at least one hit per pair, got {s}"
    );
    assert_eq!(s.decisions, s.cache_hits + s.cache_misses, "{s}");
}

#[test]
fn canonical_keys_are_alpha_invariant_on_generated_queries() {
    for case in 0..PAIRS {
        let (p, _) = gen_pair(case);
        // Renaming every variable must not change the key...
        let renamed: UnionQuery = {
            let mut s = lap::ir::Substitution::new();
            for d in &p.disjuncts {
                for v in d.vars() {
                    s.insert(
                        v,
                        lap::ir::Term::Var(lap::ir::Var::new(&format!("zz_{}", v.name()))),
                    );
                }
            }
            UnionQuery::new(p.disjuncts.iter().map(|d| d.apply(&s)).collect())
                .expect("heads renamed uniformly")
        };
        assert_eq!(
            canonical_key(&p),
            canonical_key(&renamed),
            "pair case {case}: α-renaming changed the key of {p}"
        );
        // ...and equal keys must never pair inequivalent queries: the key
        // of P must differ from the key of a strictly weaker variant.
        if p.disjuncts.len() == 1 && p.disjuncts[0].body.len() >= 2 {
            let mut weaker = p.disjuncts[0].clone();
            weaker.body.pop();
            let weaker = UnionQuery::single(weaker);
            if !contained(&weaker, &p) {
                assert_ne!(
                    canonical_key(&p),
                    canonical_key(&weaker),
                    "pair case {case}: inequivalent queries share a key"
                );
            }
        }
    }
}

#[test]
fn feasibility_agrees_across_engine_configurations() {
    let engine = ContainmentEngine::new(EngineConfig::full());
    let mut containment_checks = 0u64;
    for case in 0..PAIRS {
        let mut rng = case_rng(0xFEA5, case);
        let schema = gen_schema(&SchemaConfig::default(), &mut rng);
        let q = gen_query(
            &schema,
            &QueryConfig {
                num_disjuncts: 1 + (case % 3) as usize,
                ..QueryConfig::default()
            },
            &mut rng,
        );
        let plain = feasible_detailed(&q, &schema);
        let engined = feasible_detailed_with(&q, &schema, &engine);
        assert_eq!(
            plain.feasible, engined.feasible,
            "feasibility flipped on case {case}: {q}"
        );
        assert_eq!(
            plain.decided_by, engined.decided_by,
            "decision path changed on case {case}: {q}"
        );
        if plain.decided_by == DecisionPath::ContainmentCheck {
            containment_checks += 1;
        }
    }
    // The sweep must actually exercise the containment branch, not just
    // the fast paths — otherwise this test proves nothing about the engine.
    assert!(
        containment_checks > 0,
        "no generated query reached the containment branch"
    );
}

/// End-to-end: `lapq`-style explain over an engine accumulates observable
/// cache statistics without changing any diagnosis.
#[test]
fn explain_is_invariant_under_engine_configuration() {
    let engine = ContainmentEngine::new(EngineConfig::full());
    let volume = if cfg!(feature = "slow-tests") { 120 } else { 40 };
    for case in 0..volume {
        let mut rng = case_rng(0xE8, case);
        let schema: Schema = gen_schema(&SchemaConfig::default(), &mut rng);
        let q = gen_query(&schema, &QueryConfig::default(), &mut rng);
        let plain = lap::core::explain(&q, &schema);
        let engined = lap::core::explain_with(&q, &schema, &engine);
        assert_eq!(plain, engined, "explanation changed on case {case}: {q}");
    }
    let s = engine.stats();
    assert_eq!(s.decisions, s.cache_hits + s.cache_misses, "{s}");
}
