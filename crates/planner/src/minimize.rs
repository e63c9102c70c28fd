//! Minimal executable plans.
//!
//! Theorem 16 makes `ans(Q)` the *minimal feasible query containing* `Q` —
//! minimal as a query, not as a plan: it can still carry literals that are
//! redundant given the equivalence with `Q`, and every retained literal is
//! a source call at runtime. This module shrinks a feasible query's plan:
//! starting from `ans(Q)`, it drops disjuncts absorbed by the rest and
//! literals whose removal keeps the plan (a) orderable and (b) equivalent
//! to the original `Q` — so the result is still a correct executable plan,
//! with fewer calls.

use lap_containment::ContainmentEngine;
use lap_core::{ans, executable_order, feasible, is_orderable_cq};
use lap_ir::{Schema, UnionQuery};

/// Computes a minimal executable plan for a **feasible** `q`: an
/// executable query equivalent to `q` from which no disjunct or literal
/// can be dropped without breaking equivalence. Returns `None` when `q` is
/// not feasible.
pub fn minimal_executable_plan(q: &UnionQuery, schema: &Schema) -> Option<UnionQuery> {
    if !feasible(q, schema) {
        return None;
    }
    let mut current = ans(q, schema);
    if current.is_false() {
        // Every disjunct was unsatisfiable: the minimal plan is `false`.
        return Some(current);
    }
    let engine = ContainmentEngine::default();
    debug_assert!(engine.equivalent(&current, q));

    // Drop whole disjuncts while equivalence persists.
    let mut i = 0;
    while i < current.disjuncts.len() {
        let without = current.without_disjunct(i);
        if !without.disjuncts.is_empty() && engine.equivalent(&without, q) {
            current = without;
            i = 0;
        } else {
            i += 1;
        }
    }

    // Drop literals while the disjunct stays orderable and the union
    // equivalent.
    let mut d = 0;
    while d < current.disjuncts.len() {
        let mut l = 0;
        while l < current.disjuncts[d].body.len() {
            if current.disjuncts[d].body.len() == 1 {
                break;
            }
            let mut candidate_cq = current.disjuncts[d].clone();
            candidate_cq.body.remove(l);
            if candidate_cq.is_safe() && is_orderable_cq(&candidate_cq, schema) {
                let candidate = current.with_disjunct(d, candidate_cq);
                if engine.equivalent(&candidate, q) {
                    current = candidate;
                    l = 0;
                    continue;
                }
            }
            l += 1;
        }
        d += 1;
    }

    // Emit in executable order.
    let ordered: Vec<_> = current
        .disjuncts
        .iter()
        .map(|cq| executable_order(cq, schema).expect("minimized plan stays orderable"))
        .collect();
    Some(UnionQuery::new(ordered).expect("heads unchanged"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lap_core::is_executable;
    use lap_ir::parse_program;

    fn equivalent(p: &UnionQuery, q: &UnionQuery) -> bool {
        ContainmentEngine::default().equivalent(p, q)
    }

    fn setup(text: &str) -> (UnionQuery, Schema) {
        let p = parse_program(text).unwrap();
        (p.single_query().unwrap().clone(), p.schema)
    }

    #[test]
    fn example_9_plan_shrinks_to_the_core() {
        // ans(Q) = F(x), B(x), F(z); the minimal plan drops F(z).
        let (q, schema) = setup("F^o. B^i.\nQ(x) :- F(x), B(x), B(y), F(z).");
        let plan = minimal_executable_plan(&q, &schema).unwrap();
        assert_eq!(plan.disjuncts.len(), 1);
        assert_eq!(plan.disjuncts[0].body.len(), 2);
        assert!(is_executable(&plan, &schema));
        assert!(equivalent(&plan, &q));
    }

    #[test]
    fn example_10_plan_shrinks_to_one_disjunct() {
        let (q, schema) = setup(
            "F^o. G^o. H^o. B^i.\n\
             Q(x) :- F(x), G(x).\n\
             Q(x) :- F(x), H(x), B(y).\n\
             Q(x) :- F(x).",
        );
        let plan = minimal_executable_plan(&q, &schema).unwrap();
        assert_eq!(plan.disjuncts.len(), 1);
        assert_eq!(plan.disjuncts[0].to_string(), "Q(x) :- F(x).");
    }

    #[test]
    fn example_3_plan_collapses_the_twin_disjuncts() {
        let (q, schema) = setup(
            "B^ioo. B^oio. L^o.\n\
             Q(a) :- B(i, a, t), L(i), B(i2, a2, t).\n\
             Q(a) :- B(i, a, t), L(i), not B(i2, a2, t).",
        );
        let plan = minimal_executable_plan(&q, &schema).unwrap();
        assert_eq!(plan.disjuncts.len(), 1);
        assert_eq!(plan.disjuncts[0].body.len(), 2);
        assert!(is_executable(&plan, &schema));
        assert!(equivalent(&plan, &q));
    }

    #[test]
    fn all_unsat_query_gets_the_false_plan() {
        let (q, schema) = setup("R^oo.\nQ(x) :- R(x, y), not R(x, y).");
        let plan = minimal_executable_plan(&q, &schema).unwrap();
        assert!(plan.is_false());
    }

    #[test]
    fn infeasible_queries_have_no_plan() {
        let (q, schema) = setup("F^o. B^i.\nQ(x) :- F(x), B(y).");
        assert!(minimal_executable_plan(&q, &schema).is_none());
    }

    #[test]
    fn already_minimal_plans_are_unchanged_up_to_order() {
        let (q, schema) = setup("S^o. R^io.\nQ(x, y) :- S(x), R(x, y).");
        let plan = minimal_executable_plan(&q, &schema).unwrap();
        assert_eq!(plan.disjuncts[0].body.len(), 2);
        assert!(equivalent(&plan, &q));
    }

    #[test]
    fn negated_redundancy_is_removed() {
        // ¬L(i) twice: one copy suffices.
        let (q, schema) = setup(
            "C^oo. L^o.\n\
             Q(i) :- C(i, a), not L(i), not L(i).",
        );
        let plan = minimal_executable_plan(&q, &schema).unwrap();
        assert_eq!(plan.disjuncts[0].body.len(), 2);
    }
}
