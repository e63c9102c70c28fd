//! Containment of plain conjunctive queries (Chandra–Merlin, [CM77]).

use crate::mapping::{has_homomorphism, unify_heads};
use lap_ir::{Atom, ConjunctiveQuery, Substitution};

/// `P ⊑ Q` for plain conjunctive queries: true iff there is a containment
/// mapping `σ: vars(Q) → terms(P)` with `σ(head(Q)) = head(P)` and
/// `σ(Q's atoms) ⊆ P's atoms` (Chandra–Merlin). NP-complete in general;
/// the search is backtracking with predicate indexing and
/// most-constrained-first ordering.
///
/// Both queries must be positive; negated literals (which this function
/// ignores per its contract) are rejected in debug builds.
pub(crate) fn cq_contained(p: &ConjunctiveQuery, q: &ConjunctiveQuery) -> bool {
    debug_assert!(p.is_positive(), "cq_contained requires positive P");
    debug_assert!(q.is_positive(), "cq_contained requires positive Q");
    let mut init = Substitution::new();
    if unify_heads(&q.head, &p.head, &mut init).is_none() {
        return false;
    }
    let q_atoms: Vec<&Atom> = q.body.iter().map(|l| &l.atom).collect();
    let p_atoms: Vec<&Atom> = p.body.iter().map(|l| &l.atom).collect();
    has_homomorphism(&q_atoms, &p_atoms, init)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lap_ir::parse_cq;

    fn contained(p: &str, q: &str) -> bool {
        cq_contained(&parse_cq(p).unwrap(), &parse_cq(q).unwrap())
    }

    fn equivalent(p: &str, q: &str) -> bool {
        contained(p, q) && contained(q, p)
    }

    #[test]
    fn reflexive() {
        let q = "Q(x, y) :- R(x, z), S(z, y).";
        assert!(contained(q, q));
    }

    #[test]
    fn longer_chain_contained_in_shorter() {
        // A 3-chain from x is contained in a 2-chain from x (map the
        // 2-chain's tail var onto the 3-chain's middle).
        assert!(contained(
            "Q(x) :- R(x, y), R(y, z), R(z, w).",
            "Q(x) :- R(x, u), R(u, v)."
        ));
        // ...but not conversely.
        assert!(!contained(
            "Q(x) :- R(x, u), R(u, v).",
            "Q(x) :- R(x, y), R(y, z), R(z, w)."
        ));
    }

    #[test]
    fn cycle_contained_in_path() {
        // A self-loop R(a,a) is contained in any R-path query.
        assert!(contained("Q(k) :- K(k), R(a, a).", "Q(k) :- K(k), R(x, y), R(y, z)."));
    }

    #[test]
    fn head_variables_pin_the_mapping() {
        // Both bodies have R(x,y), but the head exports different ends.
        assert!(!contained("Q(x) :- R(x, y).", "Q(y) :- R(x, y)."));
    }

    #[test]
    fn extra_conjunct_strengthens() {
        // P with extra S(x) is contained in Q without it.
        assert!(contained("Q(x) :- R(x), S(x).", "Q(x) :- R(x)."));
        assert!(!contained("Q(x) :- R(x).", "Q(x) :- R(x), S(x)."));
    }

    #[test]
    fn constants_refine_containment() {
        assert!(contained("Q(x) :- R(x, 1).", "Q(x) :- R(x, y)."));
        assert!(!contained("Q(x) :- R(x, y).", "Q(x) :- R(x, 1)."));
        assert!(contained("Q(x) :- R(x, 1).", "Q(x) :- R(x, 1)."));
    }

    #[test]
    fn equivalence_of_renamed_queries() {
        assert!(equivalent("Q(x) :- R(x, y), S(y).", "Q(a) :- R(a, b), S(b)."));
    }

    #[test]
    fn redundant_atom_equivalence() {
        // Q with a redundant second R-atom is equivalent to its core.
        assert!(equivalent("Q(x) :- R(x, y), R(x, z).", "Q(x) :- R(x, y)."));
    }
}
