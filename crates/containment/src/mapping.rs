//! Containment-mapping (homomorphism) search.
//!
//! A *containment mapping* from query `Q` to query `P` (witnessing `P ⊑ Q`
//! for conjunctive queries, Chandra–Merlin) is a function
//! `σ: vars(Q) → terms(P)` that
//!
//! * maps `Q`'s head tuple onto `P`'s head tuple (in particular it is the
//!   identity on free variables when the heads are literally equal), and
//! * maps every atom `R(ȳ)` of `Q`'s (positive) body to an atom `R(σȳ)`
//!   present in `P`'s body.
//!
//! The search is a classic backtracking join over `Q`'s atoms with two
//! optimizations: candidate atoms are pre-indexed by predicate, and atoms
//! are ordered most-constrained-first (atoms sharing variables with already
//! mapped atoms come earlier, which prunes aggressively on the dense
//! equality patterns that containment instances exhibit).

use lap_ir::{Atom, Substitution, Term};
use std::collections::HashMap;
use std::ops::ControlFlow;

/// Unifies the pair of head atoms, extending `subst` (source-side variables
/// bind to target-side terms). Returns `None` when the heads cannot be
/// unified (different predicates, or clashing constants).
pub(crate) fn unify_heads(from: &Atom, to: &Atom, subst: &mut Substitution) -> Option<()> {
    if from.predicate != to.predicate {
        return None;
    }
    for (&s, &t) in from.args.iter().zip(to.args.iter()) {
        match s {
            Term::Var(v) => match subst.get(v) {
                Some(prev) if prev != t => return None,
                Some(_) => {}
                None => subst.insert(v, t),
            },
            Term::Const(_) if s == t => {}
            Term::Const(_) => return None,
        }
    }
    Some(())
}

/// Searches for homomorphisms extending `initial` that map every atom in
/// `from` to some atom in `to`. Invokes `visit` on each complete mapping;
/// the visitor returns [`ControlFlow::Break`] to stop the search (e.g. when
/// a satisfying mapping has been found). Returns `true` iff the search was
/// stopped by the visitor.
pub(crate) fn for_each_homomorphism(
    from: &[&Atom],
    to: &[&Atom],
    initial: Substitution,
    visit: &mut dyn FnMut(&Substitution) -> ControlFlow<()>,
) -> bool {
    // Index target atoms by predicate.
    let mut index: HashMap<_, Vec<&Atom>> = HashMap::new();
    for &a in to {
        index.entry(a.predicate).or_default().push(a);
    }
    // Any source predicate absent from the target kills the search early.
    if from.iter().any(|a| !index.contains_key(&a.predicate)) {
        return false;
    }
    let order = constraint_order(from, &initial);
    let mut subst = initial;
    search(&order, 0, &index, &mut subst, visit).is_break()
}

/// Returns `true` iff at least one homomorphism exists.
pub(crate) fn has_homomorphism(from: &[&Atom], to: &[&Atom], initial: Substitution) -> bool {
    for_each_homomorphism(from, to, initial, &mut |_| ControlFlow::Break(()))
}

/// Orders atoms most-constrained-first: greedily pick the atom with the most
/// variables already bound (breaking ties toward fewer unbound variables).
fn constraint_order<'a>(from: &[&'a Atom], initial: &Substitution) -> Vec<&'a Atom> {
    let mut bound: Vec<lap_ir::Var> = initial.iter().map(|(v, _)| v).collect();
    let mut remaining: Vec<&Atom> = from.to_vec();
    let mut out = Vec::with_capacity(from.len());
    while !remaining.is_empty() {
        let (best_idx, _) = remaining
            .iter()
            .enumerate()
            .map(|(i, a)| {
                let total = a.vars().count();
                let already = a.vars().filter(|v| bound.contains(v)).count();
                // Prefer high bound-count, then low unbound-count.
                (i, (already as isize, -((total - already) as isize)))
            })
            .max_by_key(|&(_, key)| key)
            .expect("non-empty");
        let atom = remaining.swap_remove(best_idx);
        for v in atom.vars() {
            if !bound.contains(&v) {
                bound.push(v);
            }
        }
        out.push(atom);
    }
    out
}

fn search(
    order: &[&Atom],
    depth: usize,
    index: &HashMap<lap_ir::Predicate, Vec<&Atom>>,
    subst: &mut Substitution,
    visit: &mut dyn FnMut(&Substitution) -> ControlFlow<()>,
) -> ControlFlow<()> {
    let Some(atom) = order.get(depth) else {
        return visit(subst);
    };
    let candidates = index
        .get(&atom.predicate)
        .map(|v| v.as_slice())
        .unwrap_or(&[]);
    'candidates: for &target in candidates {
        // Try to unify atom -> target, recording which vars we newly bind.
        let mut newly_bound: Vec<lap_ir::Var> = Vec::new();
        for (&s, &t) in atom.args.iter().zip(target.args.iter()) {
            match s {
                Term::Var(v) => match subst.get(v) {
                    Some(prev) if prev != t => {
                        for v in newly_bound.drain(..) {
                            subst.remove(v);
                        }
                        continue 'candidates;
                    }
                    Some(_) => {}
                    None => {
                        subst.insert(v, t);
                        newly_bound.push(v);
                    }
                },
                Term::Const(_) if s == t => {}
                Term::Const(_) => {
                    for v in newly_bound.drain(..) {
                        subst.remove(v);
                    }
                    continue 'candidates;
                }
            }
        }
        if search(order, depth + 1, index, subst, visit).is_break() {
            return ControlFlow::Break(());
        }
        for v in newly_bound {
            subst.remove(v);
        }
    }
    ControlFlow::Continue(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use lap_ir::parse_cq;

    fn atoms(q: &lap_ir::ConjunctiveQuery) -> Vec<&Atom> {
        q.body.iter().filter(|l| l.positive).map(|l| &l.atom).collect()
    }

    #[test]
    fn identity_homomorphism_exists() {
        let q = parse_cq("Q(x) :- R(x, y), S(y, z).").unwrap();
        assert!(has_homomorphism(&atoms(&q), &atoms(&q), Substitution::new()));
    }

    #[test]
    fn folding_homomorphism() {
        // R(x,y),R(y,x) maps into R(a,a) by x,y -> a.
        let from = parse_cq("Q(k) :- R(x, y), R(y, x), K(k).").unwrap();
        let to = parse_cq("Q(k) :- R(a, a), K(k).").unwrap();
        assert!(has_homomorphism(&atoms(&from), &atoms(&to), Substitution::new()));
    }

    #[test]
    fn no_homomorphism_when_predicate_missing() {
        let from = parse_cq("Q(x) :- R(x), S(x).").unwrap();
        let to = parse_cq("Q(x) :- R(x).").unwrap();
        assert!(!has_homomorphism(&atoms(&from), &atoms(&to), Substitution::new()));
    }

    #[test]
    fn constants_must_match() {
        let from = parse_cq("Q(x) :- R(x, 1).").unwrap();
        let to_bad = parse_cq("Q(x) :- R(x, 2).").unwrap();
        let to_good = parse_cq("Q(x) :- R(y, 1).").unwrap();
        assert!(!has_homomorphism(&atoms(&from), &atoms(&to_bad), Substitution::new()));
        assert!(has_homomorphism(&atoms(&from), &atoms(&to_good), Substitution::new()));
    }

    #[test]
    fn initial_bindings_restrict_search() {
        let from = parse_cq("Q(x) :- R(x, y).").unwrap();
        let to = parse_cq("Q(u) :- R(u, v).").unwrap();
        // Force x -> v: no atom R(v, _) exists, so the search fails.
        let mut init = Substitution::new();
        init.insert(lap_ir::Var::new("x"), Term::var("v"));
        assert!(!has_homomorphism(&atoms(&from), &atoms(&to), init));
    }

    #[test]
    fn enumerates_all_mappings() {
        // R(x) into {R(a), R(b)}: exactly two homomorphisms.
        let from = parse_cq("Q(k) :- R(x), K(k).").unwrap();
        let to = parse_cq("Q(k) :- R(a), R(b), K(k).").unwrap();
        let mut count = 0;
        for_each_homomorphism(&atoms(&from), &atoms(&to), Substitution::new(), &mut |_| {
            count += 1;
            ControlFlow::Continue(())
        });
        assert_eq!(count, 2);
    }

    #[test]
    fn unify_heads_binds_and_rejects() {
        let h1 = parse_cq("Q(x, 1) :- R(x).").unwrap().head;
        let h2 = parse_cq("Q(a, 1) :- R(a).").unwrap().head;
        let mut s = Substitution::new();
        assert!(unify_heads(&h1, &h2, &mut s).is_some());
        assert_eq!(s.get(lap_ir::Var::new("x")), Some(Term::var("a")));
        let h3 = parse_cq("Q(a, 2) :- R(a).").unwrap().head;
        let mut s = Substitution::new();
        assert!(unify_heads(&h1, &h3, &mut s).is_none());
    }
}
