//! Algorithm FEASIBLE (paper, Figure 3) — deciding feasibility of UCQ¬
//! queries. Π₂ᴾ-complete in general (Corollary 19), but with the quadratic
//! fast paths of PLAN\* in front of the containment check.

use crate::plan::{plan_star_obs, PlanPair};
use lap_containment::{ContainmentEngine, ContainmentStats};
use lap_ir::{Schema, UnionQuery};
use lap_obs::Recorder;

/// How a feasibility decision was reached — the basis of the paper's claim
/// that the worst case is often avoidable (Section 4.1).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum DecisionPath {
    /// `Qᵘ = Qᵒ`: the query is orderable; feasible without any containment
    /// check.
    PlansCoincide,
    /// The overestimate contains a `null`: `ans(Q)` is unsafe, so `Q` is
    /// infeasible — again without a containment check.
    OverestimateHasNull,
    /// The full check `ans(Q) ⊑ Q` (Corollary 17) had to run.
    ContainmentCheck,
}

/// The outcome of [`feasible_detailed`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FeasibilityReport {
    /// Is the query feasible?
    pub feasible: bool,
    /// Which branch of FEASIBLE decided it.
    pub decided_by: DecisionPath,
    /// The PLAN\* output, reusable for execution.
    pub plans: PlanPair,
    /// Counters from the `ans(Q) ⊑ Q` decision — `None` when a PLAN\* fast
    /// path decided. The Σ-strengthened check reports the counters of its
    /// per-disjunct engine decisions, absorbed.
    pub containment: Option<ContainmentStats>,
}

/// Algorithm FEASIBLE (Figure 3).
///
/// ```text
/// (Qᵘ, Qᵒ) := PLAN*(Q)
/// if Qᵘ = Qᵒ            then return true
/// if Qᵒ contains null    then return false
/// else                        return Qᵒ ⊑ Q
/// ```
///
/// Correctness: `Qᵒ` (read as a query, legal exactly when null-free) *is*
/// `ans(Q)`, so the last line is Corollary 17's criterion
/// `Q feasible ⟺ ans(Q) ⊑ Q`, and by Theorem 16 `ans(Q)` is then the
/// witnessing minimal executable query.
pub fn feasible(q: &UnionQuery, schema: &Schema) -> bool {
    feasible_detailed(q, schema).feasible
}

/// [`feasible`] with the decision path and the computed plans exposed.
/// Runs sequentially and uncached; use [`feasible_detailed_with`] to supply
/// a configured [`ContainmentEngine`].
pub fn feasible_detailed(q: &UnionQuery, schema: &Schema) -> FeasibilityReport {
    feasible_detailed_with(q, schema, &ContainmentEngine::default())
}

/// [`feasible_detailed`] with the `ans(Q) ⊑ Q` check delegated to `engine`
/// — parallel per-disjunct evaluation and verdict-cache reuse across calls,
/// as configured. The verdict is the same for every engine configuration;
/// only [`FeasibilityReport::containment`] differs.
pub fn feasible_detailed_with(
    q: &UnionQuery,
    schema: &Schema,
    engine: &ContainmentEngine,
) -> FeasibilityReport {
    feasible_detailed_obs(q, schema, engine, engine.recorder())
}

/// [`feasible_detailed_with`] under `recorder`: the decision runs in a
/// `feasible` span, with `plan*`/`answerable` sub-spans from PLAN\* and a
/// `containment` sub-span when the `ans(Q) ⊑ Q` check actually runs.
pub fn feasible_detailed_obs(
    q: &UnionQuery,
    schema: &Schema,
    engine: &ContainmentEngine,
    recorder: &Recorder,
) -> FeasibilityReport {
    let _span = recorder.span("feasible");
    let plans = plan_star_obs(q, schema, recorder);
    if plans.coincide() {
        return FeasibilityReport {
            feasible: true,
            decided_by: DecisionPath::PlansCoincide,
            plans,
            containment: None,
        };
    }
    if plans.over.has_null() {
        return FeasibilityReport {
            feasible: false,
            decided_by: DecisionPath::OverestimateHasNull,
            plans,
            containment: None,
        };
    }
    let ans_q = plans
        .over
        .as_query()
        .expect("null-free overestimate is a plain query");
    let (feasible, stats) = {
        let _containment = recorder.span("containment");
        engine.contained_stats(&ans_q, q)
    };
    FeasibilityReport {
        feasible,
        decided_by: DecisionPath::ContainmentCheck,
        plans,
        containment: Some(stats),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lap_ir::parse_program;

    fn check(text: &str) -> FeasibilityReport {
        let p = parse_program(text).unwrap();
        feasible_detailed(p.single_query().unwrap(), &p.schema)
    }

    #[test]
    fn example_1_feasible_by_fast_path() {
        let r = check(
            "B^ioo. B^oio. C^oo. L^o.\n\
             Q(i, a, t) :- B(i, a, t), C(i, a), not L(i).",
        );
        assert!(r.feasible);
        assert_eq!(r.decided_by, DecisionPath::PlansCoincide);
    }

    #[test]
    fn example_3_feasible_only_by_containment() {
        let r = check(
            "B^ioo. B^oio. L^o.\n\
             Q(a) :- B(i, a, t), L(i), B(i2, a2, t).\n\
             Q(a) :- B(i, a, t), L(i), not B(i2, a2, t).",
        );
        assert!(r.feasible);
        assert_eq!(r.decided_by, DecisionPath::ContainmentCheck);
    }

    #[test]
    fn example_4_infeasible_by_null() {
        let r = check(
            "S^o. R^oo. B^ii. T^oo.\n\
             Q(x, y) :- not S(z), R(x, z), B(x, y).\n\
             Q(x, y) :- T(x, y).",
        );
        assert!(!r.feasible);
        assert_eq!(r.decided_by, DecisionPath::OverestimateHasNull);
    }

    #[test]
    fn example_9_cq_feasible() {
        let r = check(
            "F^o. B^i.\n\
             Q(x) :- F(x), B(x), B(y), F(z).",
        );
        // ans(Q) = F(x), B(x), F(z) ⊑ Q (map y ↦ x), so feasible.
        assert!(r.feasible);
        assert_eq!(r.decided_by, DecisionPath::ContainmentCheck);
    }

    #[test]
    fn example_10_ucq_feasible() {
        let r = check(
            "F^o. G^o. H^o. B^i.\n\
             Q(x) :- F(x), G(x).\n\
             Q(x) :- F(x), H(x), B(y).\n\
             Q(x) :- F(x).",
        );
        assert!(r.feasible);
        assert_eq!(r.decided_by, DecisionPath::ContainmentCheck);
    }

    #[test]
    fn genuinely_infeasible_cq() {
        // B^i with y existential and no way to bind it; ans(Q) = F(x) is a
        // strict superset of Q's answers on some instance.
        let r = check(
            "F^o. B^i.\n\
             Q(x) :- F(x), B(y).",
        );
        assert!(!r.feasible);
        assert_eq!(r.decided_by, DecisionPath::ContainmentCheck);
    }

    #[test]
    fn unsat_disjuncts_do_not_block_feasibility() {
        let r = check(
            "R^oo.\n\
             Q(x) :- R(x, y), not R(x, y).\n\
             Q(x) :- R(x, x).",
        );
        assert!(r.feasible);
        assert_eq!(r.decided_by, DecisionPath::PlansCoincide);
    }

    #[test]
    fn negation_blocks_binding_infeasible() {
        // ¬S is the only occurrence of z besides R^ii — nothing binds x, z.
        let r = check(
            "S^o. R^ii.\n\
             Q(x) :- R(x, z), not S(z).",
        );
        assert!(!r.feasible);
        assert_eq!(r.decided_by, DecisionPath::OverestimateHasNull);
    }

    #[test]
    fn false_query_is_feasible() {
        let r = check("R^oo.\nQ(x) :- R(x, y), not R(x, y).");
        assert!(r.feasible);
        assert_eq!(r.decided_by, DecisionPath::PlansCoincide);
        assert!(r.plans.under.is_false());
    }

    #[test]
    fn feasible_wrapper_agrees() {
        let p = parse_program("F^o. B^i.\nQ(x) :- F(x), B(y).").unwrap();
        assert!(!feasible(p.single_query().unwrap(), &p.schema));
    }

    #[test]
    fn fast_paths_record_no_containment_stats() {
        let r = check(
            "B^ioo. B^oio. C^oo. L^o.\n\
             Q(i, a, t) :- B(i, a, t), C(i, a), not L(i).",
        );
        assert_eq!(r.decided_by, DecisionPath::PlansCoincide);
        assert!(r.containment.is_none());
        let r = check(
            "S^o. R^ii.\n\
             Q(x) :- R(x, z), not S(z).",
        );
        assert_eq!(r.decided_by, DecisionPath::OverestimateHasNull);
        assert!(r.containment.is_none());
    }

    #[test]
    fn containment_branch_records_stats() {
        let r = check("F^o. B^i.\nQ(x) :- F(x), B(x), B(y), F(z).");
        assert_eq!(r.decided_by, DecisionPath::ContainmentCheck);
        let stats = r.containment.expect("containment ran");
        assert_eq!(stats.engine_cache_misses, 1, "{stats:?}");
    }

    #[test]
    fn engine_configurations_agree_and_cache_across_calls() {
        use lap_containment::EngineConfig;
        let p = parse_program(
            "B^ioo. B^oio. L^o.\n\
             Q(a) :- B(i, a, t), L(i), B(i2, a2, t).\n\
             Q(a) :- B(i, a, t), L(i), not B(i2, a2, t).",
        )
        .unwrap();
        let q = p.single_query().unwrap();
        let baseline = feasible_detailed(q, &p.schema);
        let engine = ContainmentEngine::new(EngineConfig::full());
        let first = feasible_detailed_with(q, &p.schema, &engine);
        assert_eq!(first.feasible, baseline.feasible);
        assert_eq!(first.decided_by, baseline.decided_by);
        // The same query checked again hits the verdict cache.
        let second = feasible_detailed_with(q, &p.schema, &engine);
        assert_eq!(second.feasible, baseline.feasible);
        let stats = second.containment.expect("containment ran");
        assert_eq!(stats.engine_cache_hits, 1, "{stats:?}");
        assert_eq!(engine.stats().cache_hits, 1);
    }
}
