//! Query minimization (cores) for CQ and UCQ — the subroutine of Li &
//! Chang's `CQstable`/`UCQstable` baselines (paper, Sections 5.3–5.4).

use crate::cq::cq_contained;
use crate::ucq::ucq_contained;
use lap_ir::{ConjunctiveQuery, UnionQuery};

/// Minimizes a plain conjunctive query by repeatedly deleting redundant
/// body atoms. The result is the *core*: a minimal equivalent subquery,
/// unique up to variable renaming (Chandra–Merlin).
///
/// Deleting an atom always weakens a CQ (`Q ⊑ Q'`), so `Q' ≡ Q` iff
/// `Q' ⊑ Q`; an atom is deleted when that check passes and the deletion
/// keeps the query safe.
pub fn minimize_cq(q: &ConjunctiveQuery) -> ConjunctiveQuery {
    debug_assert!(q.is_positive(), "minimize_cq requires a positive CQ");
    let mut current = q.clone();
    let mut i = 0;
    while i < current.body.len() {
        if current.body.len() == 1 {
            break;
        }
        let mut candidate = current.clone();
        candidate.body.remove(i);
        if candidate.is_safe() && cq_contained(&candidate, &current) {
            current = candidate;
            i = 0; // earlier atoms may have become redundant
        } else {
            i += 1;
        }
    }
    current
}

/// Minimizes a union of plain conjunctive queries: first drops disjuncts
/// contained in the remainder of the union, then minimizes each surviving
/// disjunct. This is the "minimal with respect to union" form used by
/// `UCQstable` (paper, Section 5.4 / Example 10).
pub fn minimize_ucq(q: &UnionQuery) -> UnionQuery {
    let mut current = q.clone();
    // Drop disjuncts absorbed by the rest of the union.
    let mut i = 0;
    while i < current.disjuncts.len() {
        if current.disjuncts.len() == 1 {
            break;
        }
        let without = current.without_disjunct(i);
        let singleton = UnionQuery::single(current.disjuncts[i].clone());
        if ucq_contained(&singleton, &without) {
            current = without;
            i = 0;
        } else {
            i += 1;
        }
    }
    // Minimize each disjunct individually.
    current.disjuncts = current.disjuncts.iter().map(minimize_cq).collect();
    current
}

#[cfg(test)]
mod tests {
    use super::*;
    use lap_ir::{parse_cq, parse_query};

    fn cq_equivalent(p: &ConjunctiveQuery, q: &ConjunctiveQuery) -> bool {
        cq_contained(p, q) && cq_contained(q, p)
    }

    #[test]
    fn removes_redundant_atom() {
        let q = parse_cq("Q(x) :- R(x, y), R(x, z).").unwrap();
        let m = minimize_cq(&q);
        assert_eq!(m.body.len(), 1);
        assert!(cq_equivalent(&m, &q));
    }

    #[test]
    fn keeps_non_redundant_atoms() {
        let q = parse_cq("Q(x) :- R(x, y), S(y, x).").unwrap();
        let m = minimize_cq(&q);
        assert_eq!(m.body.len(), 2);
    }

    #[test]
    fn paper_example_9_minimization() {
        // Q(x) :- F(x), B(x), B(y), F(z) minimizes to M(x) :- F(x), B(x).
        let q = parse_cq("Q(x) :- F(x), B(x), B(y), F(z).").unwrap();
        let m = minimize_cq(&q);
        let expected = parse_cq("Q(x) :- F(x), B(x).").unwrap();
        assert!(cq_equivalent(&m, &expected));
        assert_eq!(m.body.len(), 2);
    }

    #[test]
    fn folding_chain_minimization() {
        // R(x,y),R(y,z),R(x,w): w-atom folds into the chain start? No:
        // mapping w→y works, so the third atom is redundant.
        let q = parse_cq("Q(x) :- R(x, y), R(y, z), R(x, w).").unwrap();
        let m = minimize_cq(&q);
        assert_eq!(m.body.len(), 2);
        assert!(cq_equivalent(&m, &q));
    }

    #[test]
    fn paper_example_10_union_minimization() {
        let q = parse_query(
            "Q(x) :- F(x), G(x).\n\
             Q(x) :- F(x), H(x), B(y).\n\
             Q(x) :- F(x).",
        )
        .unwrap();
        let m = minimize_ucq(&q);
        assert_eq!(m.disjuncts.len(), 1);
        assert_eq!(m.disjuncts[0].to_string(), "Q(x) :- F(x).");
        assert!(ucq_contained(&m, &q) && ucq_contained(&q, &m));
    }

    #[test]
    fn union_of_incomparable_disjuncts_is_untouched() {
        let q = parse_query("Q(x) :- F(x).\nQ(x) :- G(x).").unwrap();
        let m = minimize_ucq(&q);
        assert_eq!(m.disjuncts.len(), 2);
    }

    #[test]
    fn minimization_is_idempotent() {
        let q = parse_cq("Q(x) :- R(x, y), R(x, z), S(z).").unwrap();
        let m1 = minimize_cq(&q);
        let m2 = minimize_cq(&m1);
        assert_eq!(m1, m2);
    }
}
