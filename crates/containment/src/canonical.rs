//! Canonical-database ("frozen query") containment oracle for CQs.
//!
//! `P ⊑ Q` iff the frozen head of `P` is an answer of `Q` over the
//! canonical database `[P]` obtained by freezing `P`'s variables into fresh
//! constants (Chandra–Merlin). This is a deliberately *independent*
//! implementation from [`crate::cq::cq_contained`] — a naive fact-scan
//! evaluator with no atom reordering or predicate indexing — used as a
//! differential-testing oracle in the property-test suite and the
//! experiments.

use lap_ir::{Atom, Constant, ConjunctiveQuery, Substitution, Term, UnionQuery, Var};
use std::collections::HashMap;

/// An α-invariant textual key for a UCQ¬, used by the
/// [`crate::ContainmentEngine`] verdict cache.
///
/// Each disjunct's variables are renamed to `_c0, _c1, …` in
/// first-occurrence order (head first, then body in order); the renamed
/// body literals are rendered, sorted, and deduplicated; the rendered
/// disjuncts are sorted. Equal keys therefore imply the two queries are
/// identical up to variable names, body-literal order/duplication, and
/// disjunct order — all semantics-preserving — so caching verdicts under
/// this key is *sound*. It is not *complete* (e.g. two α-equivalent
/// queries whose bodies are permuted in a way that changes variable
/// first-occurrence order can key differently); a missed hit only costs a
/// recomputation.
pub fn canonical_key(q: &UnionQuery) -> String {
    let mut rendered: Vec<String> = q.disjuncts.iter().map(canonical_disjunct).collect();
    rendered.sort();
    rendered.join(" | ")
}

fn canonical_disjunct(p: &ConjunctiveQuery) -> String {
    let mut s = Substitution::new();
    for (i, v) in p.vars().into_iter().enumerate() {
        s.insert(v, Term::Var(Var::new(&format!("_c{i}"))));
    }
    let renamed = p.apply(&s);
    let mut lits: Vec<String> = renamed.body.iter().map(|l| l.to_string()).collect();
    lits.sort();
    lits.dedup();
    format!("{} :- {}", renamed.head, lits.join(", "))
}

/// Freezes the variables of `p` into fresh string constants: returns the
/// substitution used and the canonical database of `p` (its positive body
/// atoms, frozen). Variable `x` becomes `<prefix>x`, where the prefix
/// (`_frz_`, lengthened with `_` as needed) starts no string constant of
/// `p` or `avoid`, so a frozen variable never equals a constant that
/// either query names.
pub fn freeze(p: &ConjunctiveQuery, avoid: &ConjunctiveQuery) -> (Substitution, Vec<Atom>) {
    let strings: Vec<&str> = [p, avoid]
        .into_iter()
        .flat_map(|q| std::iter::once(&q.head).chain(q.body.iter().map(|l| &l.atom)))
        .flat_map(|a| a.args.iter())
        .filter_map(|t| match t {
            Term::Const(Constant::Str(s)) => Some(s.as_str()),
            _ => None,
        })
        .collect();
    let mut prefix = String::from("_frz_");
    while strings.iter().any(|s| s.starts_with(prefix.as_str())) {
        prefix.push('_');
    }
    let mut s = Substitution::new();
    for v in p.vars() {
        s.insert(v, Term::Const(Constant::str(&format!("{prefix}{}", v.name()))));
    }
    let facts = p
        .body
        .iter()
        .filter(|l| l.positive)
        .map(|l| s.apply_atom(&l.atom))
        .collect();
    (s, facts)
}

/// `P ⊑ Q` for plain CQs via the canonical database.
pub fn cq_contained_canonical(p: &ConjunctiveQuery, q: &ConjunctiveQuery) -> bool {
    debug_assert!(p.is_positive() && q.is_positive());
    let (s, facts) = freeze(p, q);
    let frozen_head = s.apply_atom(&p.head);
    // Unify q's head with the frozen head to seed the evaluation.
    if q.head.predicate != frozen_head.predicate {
        return false;
    }
    let mut env: HashMap<Var, Constant> = HashMap::new();
    for (&qt, &ft) in q.head.args.iter().zip(frozen_head.args.iter()) {
        let Term::Const(fc) = ft else {
            unreachable!("frozen head is ground")
        };
        match qt {
            Term::Var(v) => {
                if let Some(&prev) = env.get(&v) {
                    if prev != fc {
                        return false;
                    }
                } else {
                    env.insert(v, fc);
                }
            }
            Term::Const(c) if c == fc => {}
            Term::Const(_) => return false,
        }
    }
    let atoms: Vec<&Atom> = q.body.iter().map(|l| &l.atom).collect();
    eval(&atoms, 0, &facts, &mut env)
}

/// Naive left-to-right evaluation of a list of atoms over ground facts.
fn eval(atoms: &[&Atom], depth: usize, facts: &[Atom], env: &mut HashMap<Var, Constant>) -> bool {
    let Some(atom) = atoms.get(depth) else {
        return true;
    };
    'facts: for fact in facts {
        if fact.predicate != atom.predicate {
            continue;
        }
        let mut bound_here: Vec<Var> = Vec::new();
        for (&at, &ft) in atom.args.iter().zip(fact.args.iter()) {
            let Term::Const(fc) = ft else {
                unreachable!("facts are ground")
            };
            match at {
                Term::Var(v) => match env.get(&v) {
                    Some(&prev) if prev != fc => {
                        for v in bound_here.drain(..) {
                            env.remove(&v);
                        }
                        continue 'facts;
                    }
                    Some(_) => {}
                    None => {
                        env.insert(v, fc);
                        bound_here.push(v);
                    }
                },
                Term::Const(c) if c == fc => {}
                Term::Const(_) => {
                    for v in bound_here.drain(..) {
                        env.remove(&v);
                    }
                    continue 'facts;
                }
            }
        }
        if eval(atoms, depth + 1, facts, env) {
            return true;
        }
        for v in bound_here {
            env.remove(&v);
        }
    }
    false
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cq::cq_contained;
    use lap_ir::parse_cq;

    fn both(p: &str, q: &str) -> (bool, bool) {
        let p = parse_cq(p).unwrap();
        let q = parse_cq(q).unwrap();
        (cq_contained(&p, &q), cq_contained_canonical(&p, &q))
    }

    #[test]
    fn agrees_with_mapping_implementation() {
        let cases = [
            ("Q(x) :- R(x, y), R(y, z).", "Q(x) :- R(x, u)."),
            ("Q(x) :- R(x, u).", "Q(x) :- R(x, y), R(y, z)."),
            ("Q(x) :- R(x, x).", "Q(x) :- R(x, y)."),
            ("Q(x) :- R(x, y).", "Q(x) :- R(x, x)."),
            ("Q(x) :- R(x, 1).", "Q(x) :- R(x, y)."),
            ("Q(x) :- R(x, y).", "Q(x) :- R(x, 1)."),
            ("Q(x, y) :- R(x, z), S(z, y).", "Q(x, y) :- R(x, z), S(z, y)."),
            ("Q(x) :- R(x), S(x).", "Q(x) :- S(x), R(x)."),
        ];
        for (p, q) in cases {
            let (a, b) = both(p, q);
            assert_eq!(a, b, "disagreement on P={p} Q={q}");
        }
    }

    #[test]
    fn canonical_facts_are_ground() {
        let p = parse_cq("Q(x) :- R(x, y), S(y, 3).").unwrap();
        for f in freeze(&p, &p).1 {
            assert!(f.is_ground(), "{f}");
        }
    }

    #[test]
    fn string_constants_that_look_frozen_stay_distinct() {
        // The instance R(1, "_frz_x") refutes the first pair; the second
        // pair clashes through Q's constants instead of P's.
        for (p, q) in [
            (r#"Q(x) :- R(x, "_frz_x")."#, "Q(y) :- R(y, y)."),
            ("Q(x) :- R(x).", r#"Q("_frz_x") :- R("_frz_x")."#),
        ] {
            assert_eq!(both(p, q), (false, false), "P={p} Q={q}");
        }
    }

    #[test]
    fn head_constant_mismatch_fails() {
        let (a, b) = both("Q(1) :- R(1).", "Q(2) :- R(2).");
        assert!(!a);
        assert!(!b);
    }

    #[test]
    fn head_constants_match() {
        let (a, b) = both("Q(1) :- R(1).", "Q(1) :- R(x).");
        // Q's head Q(1) vs frozen head Q(1): fine; body R(x) matches R(1).
        assert!(a);
        assert!(b);
    }
}

#[cfg(test)]
mod key_tests {
    use super::*;
    use lap_ir::parse_query;

    fn key(q: &str) -> String {
        canonical_key(&parse_query(q).unwrap())
    }

    #[test]
    fn alpha_renaming_is_invisible() {
        assert_eq!(
            key("Q(x) :- R(x, y), not S(y)."),
            key("Q(a) :- R(a, b), not S(b).")
        );
    }

    #[test]
    fn disjunct_order_is_invisible() {
        assert_eq!(
            key("Q(x) :- R(x).\nQ(x) :- S(x)."),
            key("Q(x) :- S(x).\nQ(x) :- R(x).")
        );
    }

    #[test]
    fn duplicate_literals_collapse() {
        assert_eq!(key("Q(x) :- R(x), R(x)."), key("Q(x) :- R(x)."));
    }

    #[test]
    fn distinct_queries_key_differently() {
        assert_ne!(key("Q(x) :- R(x)."), key("Q(x) :- S(x)."));
        assert_ne!(key("Q(x) :- R(x, y)."), key("Q(x) :- R(y, x)."));
        assert_ne!(key("Q(x) :- R(x), S(x)."), key("Q(x) :- R(x), not S(x)."));
        assert_ne!(key("Q(x) :- R(x, x)."), key("Q(x) :- R(x, y)."));
    }

    #[test]
    fn constants_are_preserved() {
        assert_ne!(key("Q(x) :- R(x, 1)."), key("Q(x) :- R(x, 2)."));
        assert_eq!(key("Q(x) :- R(x, 1)."), key("Q(y) :- R(y, 1)."));
    }
}
