//! Fixture coverage for every `DecisionPath` variant, cross-checking each
//! PLAN\* fast path against the full containment criterion it elides.
//!
//! FEASIBLE's fast paths are only sound if they agree with Corollary 17
//! (`Q feasible ⟺ ans(Q) ⊑ Q`) on the cases they claim to decide:
//!
//! * `PlansCoincide` asserts feasibility *without* a containment check —
//!   so when the overestimate is null-free, running the skipped check must
//!   come back `true`.
//! * `OverestimateHasNull` asserts infeasibility because `ans(Q)` is
//!   unsafe; there is no query to check, but the verdict must be stable
//!   across every engine configuration.
//! * `ContainmentCheck` *is* the full criterion; the report's verdict must
//!   equal a direct `contained(ans(Q), Q)` call.

mod door;

use door::contained;
use lap::containment::{ContainmentEngine, EngineConfig};
use lap::core::{feasible_detailed, feasible_detailed_with, DecisionPath, FeasibilityReport};
use lap::ir::parse_program;

/// Fixtures: (label, program, expected path, expected feasible).
const FIXTURES: &[(&str, &str, DecisionPath, bool)] = &[
    (
        "example 1: orderable CQ¬",
        "B^ioo. B^oio. C^oo. L^o.\n\
         Q(i, a, t) :- B(i, a, t), C(i, a), not L(i).",
        DecisionPath::PlansCoincide,
        true,
    ),
    (
        "unsat disjunct pruned, remainder orderable",
        "R^oo.\n\
         Q(x) :- R(x, y), not R(x, y).\n\
         Q(x) :- R(x, x).",
        DecisionPath::PlansCoincide,
        true,
    ),
    (
        "false query",
        "R^oo.\nQ(x) :- R(x, y), not R(x, y).",
        DecisionPath::PlansCoincide,
        true,
    ),
    (
        "example 4: null head variable",
        "S^o. R^oo. B^ii. T^oo.\n\
         Q(x, y) :- not S(z), R(x, z), B(x, y).\n\
         Q(x, y) :- T(x, y).",
        DecisionPath::OverestimateHasNull,
        false,
    ),
    (
        "negation blocks the only binding",
        "S^o. R^ii.\n\
         Q(x) :- R(x, z), not S(z).",
        DecisionPath::OverestimateHasNull,
        false,
    ),
    (
        "example 3: feasible only via containment",
        "B^ioo. B^oio. L^o.\n\
         Q(a) :- B(i, a, t), L(i), B(i2, a2, t).\n\
         Q(a) :- B(i, a, t), L(i), not B(i2, a2, t).",
        DecisionPath::ContainmentCheck,
        true,
    ),
    (
        "example 9: redundant unanswerable literal",
        "F^o. B^i.\nQ(x) :- F(x), B(x), B(y), F(z).",
        DecisionPath::ContainmentCheck,
        true,
    ),
    (
        "example 10: union absorption",
        "F^o. G^o. H^o. B^i.\n\
         Q(x) :- F(x), G(x).\n\
         Q(x) :- F(x), H(x), B(y).\n\
         Q(x) :- F(x).",
        DecisionPath::ContainmentCheck,
        true,
    ),
    (
        "genuinely infeasible via containment",
        "F^o. B^i.\nQ(x) :- F(x), B(y).",
        DecisionPath::ContainmentCheck,
        false,
    ),
];

fn run_fixture(program: &str) -> FeasibilityReport {
    let p = parse_program(program).unwrap();
    feasible_detailed(p.single_query().unwrap(), &p.schema)
}

#[test]
fn every_variant_is_covered_with_the_expected_verdict() {
    let mut seen = std::collections::HashSet::new();
    for (label, program, path, feasible) in FIXTURES {
        let r = run_fixture(program);
        assert_eq!(r.decided_by, *path, "{label}");
        assert_eq!(r.feasible, *feasible, "{label}");
        seen.insert(r.decided_by);
    }
    assert_eq!(seen.len(), 3, "a DecisionPath variant is untested: {seen:?}");
}

#[test]
fn fast_paths_agree_with_the_skipped_containment_check() {
    for (label, program, path, _) in FIXTURES {
        let p = parse_program(program).unwrap();
        let q = p.single_query().unwrap();
        let r = feasible_detailed(q, &p.schema);
        match path {
            DecisionPath::PlansCoincide => {
                // The fast path skipped `ans(Q) ⊑ Q`; run it anyway.
                assert!(r.containment.is_none(), "{label}: check ran on a fast path");
                if let Some(ans_q) = r.plans.over.as_query() {
                    assert!(
                        contained(&ans_q, q),
                        "{label}: fast path claims feasible but ans(Q) ⋢ Q"
                    );
                }
            }
            DecisionPath::OverestimateHasNull => {
                assert!(r.containment.is_none(), "{label}: check ran on a fast path");
                assert!(
                    r.plans.over.has_null(),
                    "{label}: null fast path without a null"
                );
                assert!(
                    r.plans.over.as_query().is_none(),
                    "{label}: a null overestimate must not read back as a query"
                );
            }
            DecisionPath::ContainmentCheck => {
                let stats = r.containment.expect("containment branch records stats");
                assert_eq!(
                    stats.engine_cache_hits + stats.engine_cache_misses,
                    1,
                    "{label}: exactly one engine decision expected ({stats:?})"
                );
                let ans_q = r
                    .plans
                    .over
                    .as_query()
                    .expect("containment branch implies null-free overestimate");
                assert_eq!(
                    r.feasible,
                    contained(&ans_q, q),
                    "{label}: report disagrees with a direct containment call"
                );
            }
        }
    }
}

#[test]
fn verdicts_and_paths_are_invariant_across_engine_configurations() {
    let configs = [
        EngineConfig::default(),
        EngineConfig {
            parallel: true,
            cache: false,
        },
        EngineConfig {
            parallel: false,
            cache: true,
        },
        EngineConfig::full(),
    ];
    for (label, program, path, feasible) in FIXTURES {
        let p = parse_program(program).unwrap();
        let q = p.single_query().unwrap();
        for cfg in configs {
            let engine = ContainmentEngine::new(cfg);
            // Twice: the second call exercises the cache-hit path where
            // enabled, and must not change anything.
            for round in 0..2 {
                let r = feasible_detailed_with(q, &p.schema, &engine);
                assert_eq!(r.decided_by, *path, "{label} under {cfg:?} round {round}");
                assert_eq!(r.feasible, *feasible, "{label} under {cfg:?} round {round}");
            }
            if cfg.cache && *path == DecisionPath::ContainmentCheck {
                assert_eq!(
                    engine.stats().cache_hits,
                    1,
                    "{label} under {cfg:?}: second decision should hit the cache"
                );
            }
        }
    }
}
