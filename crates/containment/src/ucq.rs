//! Containment of unions of conjunctive queries (Sagiv–Yannakakis, [SY80]).

use crate::cq::cq_contained;
use lap_ir::UnionQuery;

/// `P ⊑ Q` for unions of plain conjunctive queries. By \[SY80\],
/// `P₁ ∨ … ∨ P_m ⊑ Q₁ ∨ … ∨ Q_n` iff every `P_i` is contained in *some*
/// single `Q_j` — the union does not help on the right-hand side for
/// positive queries. NP-complete.
pub(crate) fn ucq_contained(p: &UnionQuery, q: &UnionQuery) -> bool {
    debug_assert!(p.is_positive() && q.is_positive());
    p.disjuncts
        .iter()
        .all(|pi| q.disjuncts.iter().any(|qj| cq_contained(pi, qj)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use lap_ir::parse_query;

    fn contained(p: &str, q: &str) -> bool {
        ucq_contained(&parse_query(p).unwrap(), &parse_query(q).unwrap())
    }

    #[test]
    fn single_disjunct_reduces_to_cq() {
        assert!(contained("Q(x) :- R(x), S(x).", "Q(x) :- R(x)."));
    }

    #[test]
    fn union_is_monotone() {
        // F ⊑ F ∨ G.
        assert!(contained("Q(x) :- F(x).", "Q(x) :- F(x).\nQ(x) :- G(x)."));
        assert!(!contained("Q(x) :- F(x).\nQ(x) :- G(x).", "Q(x) :- F(x)."));
    }

    #[test]
    fn each_disjunct_needs_a_home() {
        assert!(contained(
            "Q(x) :- F(x), G(x).\nQ(x) :- H(x), F(x).",
            "Q(x) :- G(x).\nQ(x) :- H(x)."
        ));
        assert!(!contained(
            "Q(x) :- F(x), G(x).\nQ(x) :- H(x).",
            "Q(x) :- G(x).\nQ(x) :- F(x)."
        ));
    }

    #[test]
    fn paper_example_10_containments() {
        // Q from Example 10: F∧G ∨ F∧H∧B(y) ∨ F. Its minimal form is F.
        let q = parse_query(
            "Q(x) :- F(x), G(x).\n\
             Q(x) :- F(x), H(x), B(y).\n\
             Q(x) :- F(x).",
        )
        .unwrap();
        let m = parse_query("Q(x) :- F(x).").unwrap();
        assert!(ucq_contained(&q, &m) && ucq_contained(&m, &q));
    }

    #[test]
    fn false_is_bottom() {
        let falsum = parse_query("Q(x) :- false.").unwrap();
        let f = parse_query("Q(x) :- F(x).").unwrap();
        assert!(ucq_contained(&falsum, &f));
        assert!(!ucq_contained(&f, &falsum));
        assert!(ucq_contained(&falsum, &falsum));
    }
}
