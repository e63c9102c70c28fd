//! Li & Chang's feasibility ("stability") algorithms for plain conjunctive
//! queries \[LC01\], re-implemented from the descriptions in the paper's
//! Section 5.3. Both are **NP**-complete decision procedures; they differ
//! in *which* expensive subroutine they lead with.

use lap_containment::{minimize_cq, ContainmentEngine};
use lap_core::{answerable_split, is_orderable_cq};
use lap_ir::{ConjunctiveQuery, Schema, UnionQuery};

/// `CQstable`: find a minimal `M ≡ Q` (the core), then check that
/// `ans(M) = M` — i.e. that the minimal query is orderable.
///
/// Panics in debug builds if `q` is not a plain (positive) CQ.
pub fn cq_stable(q: &ConjunctiveQuery, schema: &Schema) -> bool {
    debug_assert!(q.is_positive(), "CQstable applies to plain CQs");
    let m = minimize_cq(q);
    is_orderable_cq(&m, schema)
}

/// `CQstable*`: compute `ans(Q)`, then check `ans(Q) ⊑ Q`. For plain CQs
/// this is exactly the paper's uniform FEASIBLE algorithm (Section 5.3:
/// "for conjunctive queries, algorithm FEASIBLE is exactly the same as
/// CQstable*"). The advantage over `CQstable`: when `ans(Q) = Q` (the query
/// is orderable) no containment check is needed at all.
pub fn cq_stable_star(q: &ConjunctiveQuery, schema: &Schema) -> bool {
    debug_assert!(q.is_positive(), "CQstable* applies to plain CQs");
    let split = answerable_split(q, schema);
    if split.unsatisfiable {
        return true; // false is (vacuously) executable
    }
    if split.unanswerable.is_empty() {
        return true; // ans(Q) = Q: orderable, no containment needed
    }
    let Some(a) = split.ans_query(&q.head) else {
        return true;
    };
    // ans(Q) must be safe to be executable (Corollary 5's hypothesis):
    // with plain CQs safety can only fail if a head variable is missing.
    if !a.is_safe() {
        return false;
    }
    ContainmentEngine::default().contained(&UnionQuery::single(a), &UnionQuery::single(q.clone()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lap_core::feasible;
    use lap_ir::parse_program;

    fn setup(text: &str) -> (ConjunctiveQuery, Schema) {
        let p = parse_program(text).unwrap();
        (p.single_query().unwrap().disjuncts[0].clone(), p.schema)
    }

    #[test]
    fn example_9_both_accept() {
        let (q, schema) = setup("F^o. B^i.\nQ(x) :- F(x), B(x), B(y), F(z).");
        assert!(cq_stable(&q, &schema));
        assert!(cq_stable_star(&q, &schema));
    }

    #[test]
    fn infeasible_cq_both_reject() {
        let (q, schema) = setup("F^o. B^i.\nQ(x) :- F(x), B(y).");
        assert!(!cq_stable(&q, &schema));
        assert!(!cq_stable_star(&q, &schema));
    }

    #[test]
    fn orderable_cq_short_circuits() {
        let (q, schema) = setup("F^o. B^i.\nQ(x) :- F(x), B(x).");
        assert!(cq_stable(&q, &schema));
        assert!(cq_stable_star(&q, &schema));
    }

    #[test]
    fn agreement_with_uniform_feasible() {
        let cases = [
            "F^o. B^i.\nQ(x) :- F(x), B(x), B(y), F(z).",
            "F^o. B^i.\nQ(x) :- F(x), B(y).",
            "F^o. G^io.\nQ(x, y) :- F(x), G(x, y).",
            "F^o. G^io.\nQ(x, y) :- G(x, y), F(x).",
            "F^o. G^ii.\nQ(x) :- F(x), G(x, y).",
            "F^o. G^ii.\nQ(x) :- F(x), G(x, x).",
            "R^io. S^o.\nQ(x) :- R(x, y), R(y, z), S(x).",
        ];
        for text in cases {
            let (q, schema) = setup(text);
            let uniform = feasible(&UnionQuery::single(q.clone()), &schema);
            assert_eq!(cq_stable(&q, &schema), uniform, "CQstable vs FEASIBLE on {text}");
            assert_eq!(
                cq_stable_star(&q, &schema),
                uniform,
                "CQstable* vs FEASIBLE on {text}"
            );
        }
    }

    #[test]
    fn redundant_unanswerable_atom_is_feasible() {
        // G(x, y) with G^ii is unanswerable, but redundant: G(x, x) covers
        // it? No — G(x,y) maps onto G(x,x) by y→x, so ans(Q) ⊑ Q.
        let (q, schema) = setup("F^o. G^ii.\nQ(x) :- F(x), G(x, x), G(x, y).");
        assert!(cq_stable_star(&q, &schema));
        assert!(cq_stable(&q, &schema));
    }
}
