//! Acyclicity (GYO reduction) and the polynomial containment fast path for
//! acyclic right-hand queries (Chekuri–Rajaraman [CR97]) — experiment E8's
//! comparison point, not a production decider.
//!
//! `P ⊑ Q` is decided by evaluating `Q` over `P`'s canonical database with
//! the free variables pre-bound to their frozen constants. When `Q` is
//! α-acyclic this boolean evaluation is done with Yannakakis' semijoin
//! program over a GYO join tree — polynomial time — instead of the generic
//! NP backtracking search. On E8's corpus the backtracking search is still
//! several times faster, which is why the containment engine does not
//! dispatch here.

use lap_containment::freeze;
use lap_ir::{Atom, ConjunctiveQuery, Substitution, Term, Var};
use std::collections::{HashMap, HashSet};

/// A join tree over the atoms of a query: `parent[i]` is the parent of atom
/// `i`, `None` for the root. Produced by GYO ear removal; exists iff the
/// query's hypergraph is α-acyclic.
#[derive(Debug, Clone)]
struct JoinTree {
    /// Parent atom index per atom; exactly one root has `None`.
    parent: Vec<Option<usize>>,
    /// Atom indices in the order ears were removed (leaves first). The last
    /// entry is the root.
    elimination_order: Vec<usize>,
}

/// Attempts to build a GYO join tree over the positive atoms of `q`.
/// Returns `None` if the hypergraph is cyclic.
fn join_tree(q: &ConjunctiveQuery) -> Option<JoinTree> {
    let atoms: Vec<&Atom> = q.body.iter().filter(|l| l.positive).map(|l| &l.atom).collect();
    let n = atoms.len();
    if n == 0 {
        return Some(JoinTree {
            parent: Vec::new(),
            elimination_order: Vec::new(),
        });
    }
    let var_sets: Vec<HashSet<Var>> = atoms.iter().map(|a| a.vars().collect()).collect();
    let mut alive: Vec<bool> = vec![true; n];
    let mut parent: Vec<Option<usize>> = vec![None; n];
    let mut order: Vec<usize> = Vec::with_capacity(n);
    let mut remaining = n;

    while remaining > 1 {
        // Find an ear: an atom e with a witness w (≠ e, alive) such that
        // every variable of e shared with any *other* alive atom occurs in w.
        let mut found = None;
        'ears: for e in 0..n {
            if !alive[e] {
                continue;
            }
            // Variables of e shared with other alive atoms.
            let shared: HashSet<Var> = var_sets[e]
                .iter()
                .filter(|v| {
                    (0..n).any(|j| j != e && alive[j] && var_sets[j].contains(v))
                })
                .copied()
                .collect();
            for w in 0..n {
                if w == e || !alive[w] {
                    continue;
                }
                if shared.is_subset(&var_sets[w]) {
                    found = Some((e, w));
                    break 'ears;
                }
            }
        }
        let (e, w) = found?;
        alive[e] = false;
        parent[e] = Some(w);
        order.push(e);
        remaining -= 1;
    }
    let root = (0..n).find(|&i| alive[i]).expect("one atom remains");
    order.push(root);
    Some(JoinTree {
        parent,
        elimination_order: order,
    })
}

/// True iff the positive body of `q` is α-acyclic.
pub(crate) fn is_acyclic(q: &ConjunctiveQuery) -> bool {
    join_tree(q).is_some()
}

/// Polynomial containment check `P ⊑ Q` for plain CQs with acyclic `Q`.
/// Returns `None` when `Q` is cyclic (caller should fall back to the
/// generic check).
pub(crate) fn cq_contained_acyclic(p: &ConjunctiveQuery, q: &ConjunctiveQuery) -> Option<bool> {
    debug_assert!(p.is_positive() && q.is_positive());
    let tree = join_tree(q)?;
    if q.head.predicate != p.head.predicate {
        return Some(false);
    }
    let (frz, facts) = freeze(p, q);
    let frozen_head = frz.apply_atom(&p.head);
    // Bind q's head terms to the frozen head constants; reject clashes.
    let mut bind = Substitution::new();
    for (&qt, &ft) in q.head.args.iter().zip(frozen_head.args.iter()) {
        match qt {
            Term::Var(v) => match bind.get(v) {
                Some(prev) if prev != ft => return Some(false),
                Some(_) => {}
                None => bind.insert(v, ft),
            },
            Term::Const(_) if qt == ft => {}
            Term::Const(_) => return Some(false),
        }
    }
    let q_atoms: Vec<Atom> = q
        .body
        .iter()
        .filter(|l| l.positive)
        .map(|l| bind.apply_atom(&l.atom))
        .collect();

    // Per-atom relations: the satisfying assignments of each (partially
    // ground) atom over the canonical database, keyed by the atom's vars.
    let mut relations: Vec<Vec<HashMap<Var, Term>>> = Vec::with_capacity(q_atoms.len());
    for atom in &q_atoms {
        let mut rows = Vec::new();
        'facts: for fact in &facts {
            if fact.predicate != atom.predicate {
                continue;
            }
            let mut row: HashMap<Var, Term> = HashMap::new();
            for (&at, &ft) in atom.args.iter().zip(fact.args.iter()) {
                match at {
                    Term::Var(v) => {
                        if let Some(&prev) = row.get(&v) {
                            if prev != ft {
                                continue 'facts;
                            }
                        } else {
                            row.insert(v, ft);
                        }
                    }
                    Term::Const(_) if at == ft => {}
                    Term::Const(_) => continue 'facts,
                }
            }
            rows.push(row);
        }
        if rows.is_empty() {
            return Some(false);
        }
        relations.push(rows);
    }

    // Bottom-up semijoin pass: reduce each parent by each child in
    // elimination order (children are eliminated before their parents).
    for &e in &tree.elimination_order {
        let Some(w) = tree.parent[e] else {
            continue; // root
        };
        let child_rows = std::mem::take(&mut relations[e]);
        let parent_rows = std::mem::take(&mut relations[w]);
        let kept: Vec<HashMap<Var, Term>> = parent_rows
            .into_iter()
            .filter(|prow| {
                child_rows.iter().any(|crow| {
                    crow.iter()
                        .all(|(v, t)| prow.get(v).is_none_or(|pt| pt == t))
                })
            })
            .collect();
        if kept.is_empty() {
            return Some(false);
        }
        relations[w] = kept;
        relations[e] = child_rows;
    }
    Some(true)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lap_containment::{cq_contained_canonical, ContainmentEngine};
    use lap_ir::{parse_cq, UnionQuery};
    use lap_prng::StdRng;
    use lap_workload::{gen_query, gen_schema, QueryConfig, SchemaConfig};

    /// `P ⊑ Q` through the containment engine, the production decider.
    fn door(p: &ConjunctiveQuery, q: &ConjunctiveQuery) -> bool {
        ContainmentEngine::default()
            .contained(&UnionQuery::single(p.clone()), &UnionQuery::single(q.clone()))
    }

    #[test]
    fn chains_are_acyclic() {
        let q = parse_cq("Q(x) :- R(x, y), S(y, z), T(z, w).").unwrap();
        assert!(is_acyclic(&q));
    }

    #[test]
    fn triangles_are_cyclic() {
        let q = parse_cq("Q(x) :- R(x, y), S(y, z), T(z, x).").unwrap();
        assert!(!is_acyclic(&q));
    }

    #[test]
    fn stars_are_acyclic() {
        let q = parse_cq("Q(x) :- R(x, a), S(x, b), T(x, c).").unwrap();
        assert!(is_acyclic(&q));
    }

    #[test]
    fn covering_atom_makes_cycle_acyclic() {
        // A triangle plus an atom covering all three vertices is α-acyclic.
        let q = parse_cq("Q(x) :- R(x, y), S(y, z), T(z, x), U(x, y, z).").unwrap();
        assert!(is_acyclic(&q));
    }

    #[test]
    fn agrees_with_generic_checker() {
        let cases = [
            ("Q(x) :- R(x, y), R(y, z), R(z, w).", "Q(x) :- R(x, u), R(u, v)."),
            ("Q(x) :- R(x, u), R(u, v).", "Q(x) :- R(x, y), R(y, z), R(z, w)."),
            ("Q(x) :- R(x, x).", "Q(x) :- R(x, y)."),
            ("Q(x) :- R(x, y).", "Q(x) :- R(x, x)."),
            ("Q(x) :- R(x, y), S(y, z).", "Q(x) :- R(x, y), S(y, z)."),
            ("Q(x) :- R(x, 1), S(1, x).", "Q(x) :- R(x, w), S(w, x)."),
        ];
        for (p, q) in cases {
            let p = parse_cq(p).unwrap();
            let q = parse_cq(q).unwrap();
            let generic = door(&p, &q);
            let fast = cq_contained_acyclic(&p, &q).expect("acyclic Q");
            assert_eq!(generic, fast, "disagreement on P={p} Q={q}");
        }
    }

    #[test]
    fn cyclic_q_returns_none() {
        let p = parse_cq("Q(x) :- R(x, x), S(x, x), T(x, x).").unwrap();
        let q = parse_cq("Q(x) :- R(x, y), S(y, z), T(z, x).").unwrap();
        assert!(cq_contained_acyclic(&p, &q).is_none());
        assert!(door(&p, &q));
    }

    #[test]
    fn string_constants_that_look_frozen_stay_distinct() {
        for (p, q) in [
            (r#"Q(x) :- R(x, "_frz_x")."#, "Q(y) :- R(y, y)."),
            ("Q(x) :- R(x).", r#"Q("_frz_x") :- R("_frz_x")."#),
        ] {
            let (p, q) = (parse_cq(p).unwrap(), parse_cq(q).unwrap());
            assert_eq!(cq_contained_acyclic(&p, &q), Some(false), "P={p} Q={q}");
            assert!(!door(&p, &q), "P={p} Q={q}");
        }
    }

    /// The fast path agrees with the canonical-database reference whenever
    /// it applies, on 512 seeded random CQ pairs.
    #[test]
    fn prop_acyclic_fast_path_agrees() {
        let schema_cfg = SchemaConfig {
            num_relations: 4,
            min_arity: 1,
            max_arity: 3,
            patterns_per_relation: 2,
            input_fraction: 0.4,
            free_scan_fraction: 0.5,
        };
        let query_cfg = QueryConfig {
            num_disjuncts: 1,
            positive_per_disjunct: 3,
            negative_per_disjunct: 0,
            extra_vars: 2,
            head_arity: 2,
            constant_fraction: 0.1,
            constant_pool: 3,
        };
        for case in 0..512u64 {
            let mut rng = StdRng::seed_from_u64(4u64.wrapping_mul(0x9E37_79B9) ^ case);
            let schema = gen_schema(&schema_cfg, &mut StdRng::seed_from_u64(rng.gen_range(0..16)));
            let cq = |rng: &mut StdRng| {
                gen_query(&schema, &query_cfg, &mut StdRng::seed_from_u64(rng.gen_range(0..512)))
                    .disjuncts[0]
                    .clone()
            };
            let p = cq(&mut rng);
            let q = cq(&mut rng);
            if let Some(fast) = cq_contained_acyclic(&p, &q) {
                assert_eq!(
                    fast,
                    cq_contained_canonical(&p, &q),
                    "case {case}: acyclic path wrong on\nP = {p}\nQ = {q}"
                );
            }
        }
    }
}
