//! Li & Chang's feasibility algorithms for unions of conjunctive queries
//! \[LC01\], re-implemented from the paper's Section 5.4.

use crate::cq_stable::cq_stable_star;
use lap_containment::{minimize_ucq, ContainmentEngine};
use lap_ir::{Schema, UnionQuery};

/// `UCQstable`: find a minimal (with respect to union) `M ≡ Q`, then check
/// that every disjunct `Mᵢ` is feasible (via `CQstable*`).
pub fn ucq_stable(q: &UnionQuery, schema: &Schema) -> bool {
    debug_assert!(q.is_positive(), "UCQstable applies to plain UCQs");
    let m = minimize_ucq(q);
    m.disjuncts.iter().all(|mi| cq_stable_star(mi, schema))
}

/// `UCQstable*`: take the union `P` of all feasible disjuncts `Qᵢ`, then
/// check `Q ⊑ P` (`P ⊑ Q` holds by construction).
pub fn ucq_stable_star(q: &UnionQuery, schema: &Schema) -> bool {
    debug_assert!(q.is_positive(), "UCQstable* applies to plain UCQs");
    let feasible_disjuncts: Vec<_> = q
        .disjuncts
        .iter()
        .filter(|qi| cq_stable_star(qi, schema))
        .cloned()
        .collect();
    if feasible_disjuncts.len() == q.disjuncts.len() {
        return true; // every disjunct feasible: P = Q
    }
    if feasible_disjuncts.is_empty() {
        // P = false; Q ⊑ false only if Q is false, and a UCQ with
        // disjuncts is never empty.
        return q.is_false();
    }
    let p = UnionQuery::new(feasible_disjuncts).expect("shared heads");
    ContainmentEngine::default().contained(q, &p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lap_core::feasible;
    use lap_ir::parse_program;

    fn setup(text: &str) -> (UnionQuery, Schema) {
        let p = parse_program(text).unwrap();
        (p.single_query().unwrap().clone(), p.schema)
    }

    const EXAMPLE_10: &str = "F^o. G^o. H^o. B^i.\n\
                              Q(x) :- F(x), G(x).\n\
                              Q(x) :- F(x), H(x), B(y).\n\
                              Q(x) :- F(x).";

    #[test]
    fn example_10_all_three_agree() {
        let (q, schema) = setup(EXAMPLE_10);
        assert!(ucq_stable(&q, &schema));
        assert!(ucq_stable_star(&q, &schema));
        assert!(feasible(&q, &schema));
    }

    #[test]
    fn infeasible_union() {
        // The B(y)-disjunct is not absorbed by anything.
        let (q, schema) = setup(
            "F^o. H^o. B^i.\n\
             Q(x) :- F(x).\n\
             Q(x) :- H(x), B(y).",
        );
        assert!(!ucq_stable(&q, &schema));
        assert!(!ucq_stable_star(&q, &schema));
        assert!(!feasible(&q, &schema));
    }

    #[test]
    fn all_disjuncts_feasible_short_circuit() {
        let (q, schema) = setup(
            "F^o. G^o.\n\
             Q(x) :- F(x).\n\
             Q(x) :- G(x).",
        );
        assert!(ucq_stable(&q, &schema));
        assert!(ucq_stable_star(&q, &schema));
    }

    #[test]
    fn no_feasible_disjunct() {
        let (q, schema) = setup(
            "B^i. C^i.\n\
             Q(x) :- B(x), B(y).\n\
             Q(x) :- C(x), C(y).",
        );
        // Nothing binds anything: every disjunct infeasible.
        assert!(!ucq_stable(&q, &schema));
        assert!(!ucq_stable_star(&q, &schema));
        assert!(!feasible(&q, &schema));
    }

    #[test]
    fn agreement_with_uniform_feasible_on_mixed_cases() {
        let cases = [
            EXAMPLE_10,
            "F^o. B^i.\nQ(x) :- F(x), B(y).\nQ(x) :- F(x).",
            "F^o. B^i.\nQ(x) :- F(x), B(y).\nQ(x) :- B(x), F(x).",
            "F^o. G^io.\nQ(x, y) :- G(x, y), F(x).\nQ(x, y) :- F(x), G(x, y).",
        ];
        for text in cases {
            let (q, schema) = setup(text);
            let uniform = feasible(&q, &schema);
            assert_eq!(ucq_stable(&q, &schema), uniform, "UCQstable on {text}");
            assert_eq!(ucq_stable_star(&q, &schema), uniform, "UCQstable* on {text}");
        }
    }
}
