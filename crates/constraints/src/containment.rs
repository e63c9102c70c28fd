//! Containment *under integrity constraints*: `P ⊑_Σ Q` — on every
//! instance satisfying `Σ`, `P`'s answers are among `Q`'s.
//!
//! A reduction in front of the [`ContainmentEngine`], not a second
//! decider: `P ⊑_Σ Q` iff `chase_Σ(Pᵢ) ⊑ Q` for every disjunct `Pᵢ` (the
//! classic reduction; for inclusion and functional dependencies with a
//! terminating chase this is sound and, for positive `Q`, complete). The
//! engine sees the chased query, so its verdict memo is keyed on a pair
//! whose verdict does not depend on `Σ`. The verdicts are conservative
//! when completeness cannot be guaranteed:
//!
//! * `true` is always sound (the chase only adds logical consequences);
//! * `false` may be a *don't know* when the chase hit its round cap
//!   (cyclic inclusions) — callers needing the distinction can inspect
//!   [`chase`]'s `complete` flag themselves.

use crate::chase::{chase, satisfiable_under, SatVerdict, DEFAULT_CHASE_ROUNDS};
use crate::deps::ConstraintSet;
use lap_containment::{ContainmentEngine, ContainmentStats};
use lap_ir::UnionQuery;

/// `P ⊑_Σ Q` for UCQ¬ queries, decided by `engine` on each chased
/// disjunct of `P`; the stats are absorbed over the decisions made.
pub(crate) fn chase_then_contain(
    p: &UnionQuery,
    q: &UnionQuery,
    cs: &ConstraintSet,
    engine: &ContainmentEngine,
) -> (bool, ContainmentStats) {
    if cs.is_empty() {
        return engine.contained_stats(p, q);
    }
    let mut stats = ContainmentStats::default();
    for pi in &p.disjuncts {
        if satisfiable_under(pi, cs, DEFAULT_CHASE_ROUNDS) == SatVerdict::Unsatisfiable {
            continue; // vacuous
        }
        let chased = chase(pi, cs, DEFAULT_CHASE_ROUNDS);
        if chased.constant_clash {
            continue;
        }
        let (verdict, s) = engine.contained_stats(&UnionQuery::single(chased.query), q);
        stats.absorb(&s);
        if !verdict {
            return (false, stats);
        }
    }
    (true, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::deps::{FunctionalDep, InclusionDep};
    use lap_containment::EngineConfig;
    use lap_ir::{parse_query, Predicate};

    fn fk_r_to_s() -> ConstraintSet {
        // R.1 ⊆ S.0 (Example 6's shape).
        ConstraintSet::new().with_inclusion(InclusionDep::new(
            Predicate::new("R", 2),
            vec![1],
            Predicate::new("S", 1),
            vec![0],
        ))
    }

    fn holds_under(p: &UnionQuery, q: &UnionQuery, cs: &ConstraintSet) -> bool {
        chase_then_contain(p, q, cs, &ContainmentEngine::default()).0
    }

    fn contained(p: &UnionQuery, q: &UnionQuery) -> bool {
        ContainmentEngine::default().contained(p, q)
    }

    #[test]
    fn inclusion_makes_the_classic_containment_hold() {
        // P(x) :- R(x, y) ⊑_Σ Q(x) :- R(x, y), S(y) under R.1 ⊆ S.0 —
        // false without Σ, true with it.
        let p = parse_query("Q(x) :- R(x, y).").unwrap();
        let q = parse_query("Q(x) :- R(x, y), S(y).").unwrap();
        assert!(!contained(&p, &q));
        assert!(holds_under(&p, &q, &fk_r_to_s()));
        assert!(holds_under(&q, &p, &fk_r_to_s()));
    }

    #[test]
    fn direction_matters() {
        // Q ⊑ P holds even without Σ (drop a conjunct); both directions
        // give equivalence under Σ, but only one without.
        let p = parse_query("Q(x) :- R(x, y).").unwrap();
        let q = parse_query("Q(x) :- R(x, y), S(y).").unwrap();
        assert!(holds_under(&q, &p, &ConstraintSet::new()));
        assert!(!holds_under(&p, &q, &ConstraintSet::new()));
    }

    #[test]
    fn negation_interacts_with_the_chase() {
        // P(x) :- R(x, y), ¬S(y) is Σ-unsatisfiable, hence ⊑_Σ anything.
        let p = parse_query("Q(x) :- R(x, y), not S(y).").unwrap();
        let anything = parse_query("Q(x) :- Z(x).").unwrap();
        assert!(holds_under(&p, &anything, &fk_r_to_s()));
        assert!(!contained(&p, &anything));
    }

    #[test]
    fn fd_chase_enables_folding() {
        // Under R: 0→1, the two R-atoms below denote the same row, so
        // P(x) :- R(x, y), R(x, z), T(y) ⊑_Σ Q(x) :- R(x, w), T(w) already
        // holds without Σ (map w↦y) — the interesting direction is with z:
        // P(x) :- R(x, y), R(x, z), T(z) ⊑_Σ Q(x) :- R(x, w), T(w)?
        // Without Σ: map w↦z (R(x,z), T(z) both present): holds anyway.
        // A genuinely Σ-dependent case: P(x) :- R(x, y), R(x, z), T(y),
        // U(z) ⊑_Σ Q(x) :- R(x, w), T(w), U(w): needs y = z.
        let cs = ConstraintSet::new()
            .with_functional(FunctionalDep::new(Predicate::new("R", 2), vec![0], vec![1]));
        let p = parse_query("Q(x) :- R(x, y), R(x, z), T(y), U(z).").unwrap();
        let q = parse_query("Q(x) :- R(x, w), T(w), U(w).").unwrap();
        assert!(!contained(&p, &q));
        assert!(holds_under(&p, &q, &cs));
    }

    #[test]
    fn empty_constraints_reduce_to_plain_containment() {
        let p = parse_query("Q(x) :- R(x, y), S(y).").unwrap();
        let q = parse_query("Q(x) :- R(x, y).").unwrap();
        assert_eq!(
            holds_under(&p, &q, &ConstraintSet::new()),
            contained(&p, &q)
        );
    }

    #[test]
    fn one_cached_engine_keeps_sigma_out_of_its_memo() {
        // The same (P, Q) is contained under Σ and not under ∅. One cached
        // engine decides both, Σ first and then ∅ first; the second order
        // is served from the memo and must still tell the two apart.
        let engine = ContainmentEngine::new(EngineConfig::full());
        let p = parse_query("Q(x) :- R(x, y).").unwrap();
        let q = parse_query("Q(x) :- R(x, y), S(y).").unwrap();
        let (sigma, empty) = (fk_r_to_s(), ConstraintSet::new());
        for (hits, order) in [(0, [&sigma, &empty]), (1, [&empty, &sigma])] {
            for cs in order {
                let (verdict, stats) = chase_then_contain(&p, &q, cs, &engine);
                assert_eq!(verdict, !cs.is_empty(), "Σ = {cs:?}");
                assert_eq!(stats.engine_cache_hits, hits, "Σ = {cs:?}: {stats:?}");
            }
        }
        assert_eq!(engine.stats().cache_entries, 2);
    }
}
