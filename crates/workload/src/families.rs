//! Hand-shaped query families with known properties, used by the paper
//! examples, the scaling experiments, and the worst-case stress tests.

use lap_ir::{
    AccessPattern, Atom, ConjunctiveQuery, Literal, Schema, Term, UnionQuery, Var,
};

/// A query together with its schema — everything a feasibility check needs.
#[derive(Clone, Debug)]
pub struct QueryInstance {
    /// The query.
    pub query: UnionQuery,
    /// Its access patterns.
    pub schema: Schema,
}

fn var(prefix: &str, i: usize) -> Term {
    Term::Var(Var::new(&format!("{prefix}{i}")))
}

/// A length-`n` chain `Q(x0) :- S(x0), R(x0,x1), …, R(x{n-1},xn)` with
/// `S^o`, `R^io`, written *in executable order*: ANSWERABLE's best case
/// (one pass).
pub fn forward_chain(n: usize) -> QueryInstance {
    let schema = Schema::from_patterns(&[("S", "o"), ("R", "io")]).expect("static patterns");
    let mut body = vec![Literal::pos(Atom::from_parts("S", vec![var("x", 0)]))];
    for i in 0..n {
        body.push(Literal::pos(Atom::from_parts(
            "R",
            vec![var("x", i), var("x", i + 1)],
        )));
    }
    let cq = ConjunctiveQuery::new(Atom::from_parts("Q", vec![var("x", 0)]), body);
    QueryInstance {
        query: UnionQuery::single(cq),
        schema,
    }
}

/// The same chain written in *reverse* order, so each ANSWERABLE pass
/// discovers exactly one literal: the quadratic worst case of Figure 1
/// (and of the left-to-right executability check).
pub fn reversed_chain(n: usize) -> QueryInstance {
    let schema = Schema::from_patterns(&[("S", "o"), ("R", "io")]).expect("static patterns");
    let mut body = Vec::with_capacity(n + 1);
    for i in (0..n).rev() {
        body.push(Literal::pos(Atom::from_parts(
            "R",
            vec![var("x", i), var("x", i + 1)],
        )));
    }
    body.push(Literal::pos(Atom::from_parts("S", vec![var("x", 0)])));
    let cq = ConjunctiveQuery::new(Atom::from_parts("Q", vec![var("x", 0)]), body);
    QueryInstance {
        query: UnionQuery::single(cq),
        schema,
    }
}

/// A star `Q(c) :- Hub(c), Spoke(c, y1), …, Spoke(c, yn)` with `Hub^o`,
/// `Spoke^io`.
pub fn star(n: usize) -> QueryInstance {
    let schema = Schema::from_patterns(&[("Hub", "o"), ("Spoke", "io")]).expect("static");
    let c = Term::Var(Var::new("c"));
    let mut body = vec![Literal::pos(Atom::from_parts("Hub", vec![c]))];
    for i in 0..n {
        body.push(Literal::pos(Atom::from_parts("Spoke", vec![c, var("y", i)])));
    }
    let cq = ConjunctiveQuery::new(Atom::from_parts("Q", vec![c]), body);
    QueryInstance {
        query: UnionQuery::single(cq),
        schema,
    }
}

/// Example 3 generalized: a two-disjunct UCQ¬ that is feasible but not
/// orderable, with `k` copies of the unanswerable twin atom. The query is
/// equivalent to the executable `Q(a) :- L(i), B(i, a, t)` regardless of
/// `k`, but only the containment check can see it.
pub fn feasible_not_orderable(k: usize) -> QueryInstance {
    let schema =
        Schema::from_patterns(&[("B", "ioo"), ("B", "oio"), ("L", "o")]).expect("static");
    let (i, a, t) = (Term::Var(Var::new("i")), Term::Var(Var::new("a")), Term::Var(Var::new("t")));
    let base = vec![
        Literal::pos(Atom::from_parts("B", vec![i, a, t])),
        Literal::pos(Atom::from_parts("L", vec![i])),
    ];
    let twin = |j: usize, positive: bool| {
        let atom = Atom::from_parts("B", vec![var("i'", j), var("a'", j), t]);
        if positive {
            Literal::pos(atom)
        } else {
            Literal::neg(atom)
        }
    };
    let mut pos_body = base.clone();
    let mut neg_body = base;
    for j in 0..k.max(1) {
        pos_body.push(twin(j, true));
        neg_body.push(twin(j, false));
    }
    let head = Atom::from_parts("Q", vec![a]);
    let query = UnionQuery::new(vec![
        ConjunctiveQuery::new(head.clone(), pos_body),
        ConjunctiveQuery::new(head, neg_body),
    ])
    .expect("shared heads");
    QueryInstance { query, schema }
}

/// The excluded-middle containment pair: `P(x) :- R(x)` and
/// `Q(x) :- R(x), ±S1(x), …, ±Sn(x)` over all `2^n` sign patterns.
/// `P ⊑ Q` holds and forces the Wei–Lausen recursion to explore the sign
/// tree — the natural Π₂ᴾ stress family. Dropping any disjunct breaks the
/// containment.
pub fn excluded_middle_pair(n: usize) -> (UnionQuery, UnionQuery) {
    assert!(n <= 16, "2^n disjuncts; keep n small");
    let x = Term::Var(Var::new("x"));
    let head = Atom::from_parts("Q", vec![x]);
    let p = UnionQuery::single(ConjunctiveQuery::new(
        head.clone(),
        vec![Literal::pos(Atom::from_parts("R", vec![x]))],
    ));
    let mut disjuncts = Vec::with_capacity(1 << n);
    for mask in 0..(1u32 << n) {
        let mut body = vec![Literal::pos(Atom::from_parts("R", vec![x]))];
        for j in 0..n {
            let atom = Atom::from_parts(&format!("S{j}"), vec![x]);
            body.push(if mask & (1 << j) != 0 {
                Literal::pos(atom)
            } else {
                Literal::neg(atom)
            });
        }
        disjuncts.push(ConjunctiveQuery::new(head.clone(), body));
    }
    let q = UnionQuery::new(disjuncts).expect("shared heads");
    (p, q)
}

/// A BIRN-style global-as-view unfolding (paper, Section 4.2 and Example 6
/// discussion): a UCQ¬ plan over source relations where
///
/// * `unsat` disjuncts are unsatisfiable (complementary literals — the
///   "implicit integrity constraint" artifacts the BIRN mediator produced),
/// * `blocked` disjuncts contain an unanswerable literal (a source callable
///   only with an unavailable input), and
/// * `good` disjuncts are fully answerable.
///
/// The schema exposes `Src{j}^oo` for answerable sources and `Hid{j}^ii`
/// for the blocked ones.
pub fn gav_unfolding(good: usize, blocked: usize, unsat: usize) -> QueryInstance {
    let mut schema = Schema::new();
    let x = Term::Var(Var::new("x"));
    let y = Term::Var(Var::new("y"));
    let head = Atom::from_parts("Q", vec![x]);
    let mut disjuncts = Vec::new();
    for j in 0..good.max(1) {
        let name = format!("Src{j}");
        schema
            .add_pattern(&name, AccessPattern::all_output(2))
            .expect("fresh");
        disjuncts.push(ConjunctiveQuery::new(
            head.clone(),
            vec![Literal::pos(Atom::from_parts(&name, vec![x, y]))],
        ));
    }
    for j in 0..blocked {
        // A dedicated source per blocked disjunct: its answerable part
        // SrcB{j}(x, y) is *not* absorbed by any other disjunct, so these
        // genuinely make the plan infeasible.
        let src = format!("SrcB{j}");
        schema
            .add_pattern(&src, AccessPattern::all_output(2))
            .expect("fresh");
        let hid = format!("Hid{j}");
        schema
            .add_pattern(&hid, AccessPattern::all_input(2))
            .expect("fresh");
        disjuncts.push(ConjunctiveQuery::new(
            head.clone(),
            vec![
                Literal::pos(Atom::from_parts(&src, vec![x, y])),
                Literal::pos(Atom::from_parts(&hid, vec![x, var("z", j)])),
            ],
        ));
    }
    for j in 0..unsat {
        let src = format!("Src{}", j % good.max(1));
        let atom = Atom::from_parts(&src, vec![x, y]);
        disjuncts.push(ConjunctiveQuery::new(
            head.clone(),
            vec![Literal::pos(atom.clone()), Literal::neg(atom)],
        ));
    }
    let query = UnionQuery::new(disjuncts).expect("shared heads");
    QueryInstance { query, schema }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lap_containment::ContainmentEngine;
    use lap_core::{feasible, is_executable, is_orderable};

    fn contained(p: &UnionQuery, q: &UnionQuery) -> bool {
        ContainmentEngine::default().contained(p, q)
    }

    #[test]
    fn chains_are_feasible_and_orderable() {
        for n in [1, 5, 20] {
            let f = forward_chain(n);
            assert!(is_executable(&f.query, &f.schema), "forward n={n}");
            let r = reversed_chain(n);
            assert!(!is_executable(&r.query, &r.schema), "reversed n={n}");
            assert!(is_orderable(&r.query, &r.schema), "reversed n={n}");
            assert!(feasible(&r.query, &r.schema));
        }
    }

    #[test]
    fn star_is_executable() {
        let s = star(8);
        assert!(is_executable(&s.query, &s.schema));
    }

    #[test]
    fn feasible_not_orderable_family() {
        for k in [1, 2, 4] {
            let inst = feasible_not_orderable(k);
            assert!(!is_orderable(&inst.query, &inst.schema), "k={k}");
            assert!(feasible(&inst.query, &inst.schema), "k={k}");
        }
    }

    #[test]
    fn excluded_middle_containment_holds_and_is_tight() {
        let (p, q) = excluded_middle_pair(3);
        assert_eq!(q.disjuncts.len(), 8);
        assert!(contained(&p, &q));
        let q_minus = q.without_disjunct(5);
        assert!(!contained(&p, &q_minus));
    }

    #[test]
    fn gav_unfolding_shape() {
        let inst = gav_unfolding(2, 2, 2);
        assert_eq!(inst.query.disjuncts.len(), 6);
        assert!(inst.query.is_safe());
        // Blocked disjuncts make the whole plan infeasible…
        assert!(!feasible(&inst.query, &inst.schema));
        // …but the pure-good version is executable.
        let pure = gav_unfolding(3, 0, 1);
        assert!(feasible(&pure.query, &pure.schema));
    }
}
