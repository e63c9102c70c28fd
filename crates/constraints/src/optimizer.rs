//! The semantic optimizer of Example 6: prune disjuncts that are
//! unsatisfiable under the integrity constraints, then plan/decide as
//! usual. "The first disjunct Q₁ᵒ(x, y) can be discarded at compile-time
//! by a semantic optimizer."

use crate::chase::{satisfiable_under, SatVerdict, DEFAULT_CHASE_ROUNDS};
use crate::containment::chase_then_contain;
use crate::deps::ConstraintSet;
use lap_core::{plan_star, ContainmentEngine, FeasibilityReport};
use lap_ir::{Schema, UnionQuery};

/// Removes every disjunct *provably* unsatisfiable under `Σ` (sound: chase
/// derivations are logical consequences, so a pruned disjunct contributes
/// no answers on any instance satisfying `Σ`). Disjuncts with an
/// [`SatVerdict::Unknown`] verdict are kept.
pub fn prune_unsatisfiable(q: &UnionQuery, cs: &ConstraintSet) -> UnionQuery {
    let kept: Vec<_> = q
        .disjuncts
        .iter()
        .filter(|cq| {
            satisfiable_under(cq, cs, DEFAULT_CHASE_ROUNDS) != SatVerdict::Unsatisfiable
        })
        .cloned()
        .collect();
    if kept.is_empty() {
        UnionQuery::empty(q.head.clone())
    } else {
        UnionQuery::new(kept).expect("heads unchanged")
    }
}

/// Feasibility **under constraints** (sound approximation): FEASIBLE
/// ([`FeasibilityReport::decide`]) with both of its semantic steps
/// strengthened by `Σ`:
///
/// 1. Σ-unsatisfiable disjuncts are pruned (Example 6's discard), and
/// 2. the containment branch tests `ans(Q) ⊑_Σ Q` by asking `engine`
///    whether `chase_Σ(ans(Q)ᵢ) ⊑ Q` for each disjunct, and reports the
///    absorbed stats of those decisions in
///    [`FeasibilityReport::containment`].
///
/// A query infeasible in general may become feasible either way: a blocked
/// disjunct can be Σ-dead, or its unanswerable literal can be Σ-implied by
/// the answerable part.
pub fn feasible_under(
    q: &UnionQuery,
    cs: &ConstraintSet,
    schema: &Schema,
    engine: &ContainmentEngine,
) -> FeasibilityReport {
    let pruned = prune_unsatisfiable(q, cs);
    let plans = plan_star(&pruned, schema);
    FeasibilityReport::decide(plans, |ans_q| chase_then_contain(ans_q, &pruned, cs, engine))
}

#[cfg(test)]
mod sigma_containment_tests {
    use super::*;
    use crate::deps::InclusionDep;
    use lap_core::{feasible, DecisionPath};
    use lap_ir::{parse_program, Predicate};

    #[test]
    fn sigma_implied_unanswerable_literal_restores_feasibility() {
        // S^ii with z never bound: S(y, z) is unanswerable, so the query
        // is infeasible in general. Under R.1 ⊆ S.0 the chase supplies the
        // S-witness, so ans(Q) = R(x, y) is Σ-equivalent to Q: feasible.
        let p = parse_program(
            "R^oo. S^ii.\n\
             Q(x) :- R(x, y), S(y, z).",
        )
        .unwrap();
        let q = p.single_query().unwrap();
        assert!(!feasible(q, &p.schema));
        let cs = ConstraintSet::new().with_inclusion(InclusionDep::new(
            Predicate::new("R", 2),
            vec![1],
            Predicate::new("S", 2),
            vec![0],
        ));
        let engine = ContainmentEngine::default();
        let report = feasible_under(q, &cs, &p.schema, &engine);
        assert!(report.feasible);
        assert_eq!(report.decided_by, DecisionPath::ContainmentCheck);
        // The Σ branch decides through the engine, which counts it.
        let stats = report.containment.expect("the Σ branch reports its stats");
        assert_eq!(stats.engine_cache_misses, 1, "{stats:?}");
        assert_eq!(engine.stats().decisions, 1);
    }

    #[test]
    fn unrelated_constraints_do_not_flip_verdicts() {
        let p = parse_program(
            "R^oo. S^ii.\n\
             Q(x) :- R(x, y), S(y, z).",
        )
        .unwrap();
        let q = p.single_query().unwrap();
        let cs = ConstraintSet::new().with_inclusion(InclusionDep::new(
            Predicate::new("Other", 1),
            vec![0],
            Predicate::new("S", 2),
            vec![0],
        ));
        assert!(!feasible_under(q, &cs, &p.schema, &ContainmentEngine::default()).feasible);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::InclusionDep;
    use lap_core::feasible;
    use lap_ir::{parse_program, Predicate};

    fn example_6() -> (UnionQuery, Schema, ConstraintSet) {
        let p = parse_program(
            "S^o. R^oo. B^ii. T^oo.\n\
             Q(x, y) :- not S(z), R(x, z), B(x, y).\n\
             Q(x, y) :- T(x, y).",
        )
        .unwrap();
        let cs = ConstraintSet::new().with_inclusion(InclusionDep::new(
            Predicate::new("R", 2),
            vec![1],
            Predicate::new("S", 1),
            vec![0],
        ));
        (p.single_query().unwrap().clone(), p.schema, cs)
    }

    #[test]
    fn example_6_pruning_restores_feasibility() {
        let (q, schema, cs) = example_6();
        // Without constraints: infeasible (B^ii blocks the first disjunct).
        assert!(!feasible(&q, &schema));
        // The semantic optimizer discards the violating disjunct…
        let pruned = prune_unsatisfiable(&q, &cs);
        assert_eq!(pruned.disjuncts.len(), 1);
        assert_eq!(pruned.disjuncts[0].to_string(), "Q(x, y) :- T(x, y).");
        // …and the remainder is feasible (indeed executable).
        let report = feasible_under(&q, &cs, &schema, &ContainmentEngine::default());
        assert!(report.feasible);
    }

    #[test]
    fn pruning_is_a_noop_without_constraints() {
        let (q, _, _) = example_6();
        let pruned = prune_unsatisfiable(&q, &ConstraintSet::new());
        assert_eq!(pruned.disjuncts.len(), q.disjuncts.len());
    }

    #[test]
    fn fully_pruned_union_is_false_and_feasible() {
        let p = parse_program(
            "S^o. R^oo. B^ii.\n\
             Q(x, y) :- not S(z), R(x, z), B(x, y).",
        )
        .unwrap();
        let cs = ConstraintSet::new().with_inclusion(InclusionDep::new(
            Predicate::new("R", 2),
            vec![1],
            Predicate::new("S", 1),
            vec![0],
        ));
        let q = p.single_query().unwrap();
        let pruned = prune_unsatisfiable(q, &cs);
        assert!(pruned.is_false());
        assert!(feasible_under(q, &cs, &p.schema, &ContainmentEngine::default()).feasible);
    }
}
