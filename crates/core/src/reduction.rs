//! The hardness reductions of Theorem 18 and Proposition 20: containment
//! many-one reduces to feasibility. Used to generate worst-case feasibility
//! instances for the experiment suite (E11) and to test FEASIBLE against
//! the containment engine on adversarial inputs.

use lap_ir::{
    AccessPattern, Atom, ConjunctiveQuery, Literal, Predicate, Schema, Term, UnionQuery, Var,
};

/// A feasibility instance: a query plus the schema of access patterns it is
/// to be decided against.
#[derive(Clone, Debug)]
pub struct FeasibilityInstance {
    /// The constructed query.
    pub query: UnionQuery,
    /// The constructed access patterns.
    pub schema: Schema,
}

/// Theorem 18's construction: given `P, Q ∈ UCQ¬` with the same head,
/// builds `Q' = P' ∨ Q` over a schema where
///
/// * every relation of `P` and `Q` gets the all-output pattern (so `P` and
///   `Q` are executable),
/// * a fresh relation `B` gets pattern `B^i`, and
/// * `P' = P₁ ∧ B(y) ∨ … ∨ P_k ∧ B(y)` for a fresh variable `y`.
///
/// Then `Q'` is feasible **iff** `P ⊑ Q`.
pub fn containment_to_feasibility(p: &UnionQuery, q: &UnionQuery) -> FeasibilityInstance {
    assert_eq!(
        p.signature, q.signature,
        "P and Q must share a head signature"
    );
    let mut schema = Schema::new();
    for pred in p.body_predicates().into_iter().chain(q.body_predicates()) {
        schema
            .add_pattern(pred.name.as_str(), AccessPattern::all_output(pred.arity))
            .expect("consistent arities");
    }
    // Fresh names: the parser cannot produce identifiers containing `$`.
    let b_name = "B$thm18";
    schema
        .add_pattern(b_name, AccessPattern::all_input(1))
        .expect("fresh relation");
    let y = Var::new("_y$thm18");
    let b_pred = Predicate::new(b_name, 1);

    let mut disjuncts = Vec::new();
    for pi in &p.disjuncts {
        let mut cq = pi.clone();
        cq.body
            .push(Literal::pos(Atom::new(b_pred, vec![Term::Var(y)])));
        disjuncts.push(cq);
    }
    disjuncts.extend(q.disjuncts.iter().cloned());
    let query = UnionQuery::new(disjuncts).expect("shared heads");
    FeasibilityInstance { query, schema }
}

/// Proposition 20's construction for CQ¬: given `P, Q ∈ CQ¬` with the same
/// free variables `x̄`, builds
///
/// ```text
/// L(x̄) :- T(u), R̂'₁(u, x̄₁), …, R̂'_k(u, x̄_k),
///                Ŝ'₁(v, ȳ₁), …, Ŝ'_ℓ(v, ȳ_ℓ).
/// ```
///
/// with patterns `T^o`, `R'^{io…o}`, `S'^{io…o}` — `u` is bound by `T`, so
/// the `R'` copies (carrying `P`'s body) are answerable, while `v` is never
/// bound, so the `S'` copies (carrying `Q`'s body) are not. Then `L` is
/// feasible **iff** `P ⊑ Q`.
///
/// As in the paper, "the `Rᵢ`s and `Sᵢ`s are not necessarily distinct": the
/// primed copy of a relation keeps one shared name on both sides — `R'` on
/// the `P` side must be the *same* relation as `R'` on the `Q` side, or the
/// containment mapping `η′: L → ans(L)` underlying the proof could never
/// map the `Q`-side atoms onto the `P`-side ones.
pub fn containment_to_feasibility_cqn(
    p: &ConjunctiveQuery,
    q: &ConjunctiveQuery,
) -> FeasibilityInstance {
    assert_eq!(
        p.head, q.head,
        "P and Q must share an identical head for Proposition 20"
    );
    let mut schema = Schema::new();
    schema
        .add_pattern("T$p20", AccessPattern::all_output(1))
        .expect("fresh");
    let u = Term::Var(Var::new("_u$p20"));
    let v = Term::Var(Var::new("_v$p20"));

    let mut body: Vec<Literal> = Vec::with_capacity(1 + p.body.len() + q.body.len());
    body.push(Literal::pos(Atom::from_parts("T$p20", vec![u])));

    let mut extend = |src: &ConjunctiveQuery, anchor: Term, schema: &mut Schema| {
        for lit in &src.body {
            let name = format!("{}$p20", lit.atom.predicate.name);
            let arity = lit.atom.predicate.arity + 1;
            let mut pattern_word = String::from("i");
            pattern_word.push_str(&"o".repeat(arity - 1));
            schema
                .add_pattern_str(&name, &pattern_word)
                .expect("consistent arity per tagged relation");
            let mut args = Vec::with_capacity(arity);
            args.push(anchor);
            args.extend(lit.atom.args.iter().copied());
            let atom = Atom::from_parts(&name, args);
            body.push(if lit.positive {
                Literal::pos(atom)
            } else {
                Literal::neg(atom)
            });
        }
    };
    extend(p, u, &mut schema);
    extend(q, v, &mut schema);

    let l = ConjunctiveQuery::new(p.head.clone(), body);
    FeasibilityInstance {
        query: UnionQuery::single(l),
        schema,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::feasible::feasible;
    use lap_containment::ContainmentEngine;
    use lap_ir::{parse_cq, parse_query};

    fn contained(p: &UnionQuery, q: &UnionQuery) -> bool {
        ContainmentEngine::default().contained(p, q)
    }

    fn check_thm18(p: &str, q: &str) {
        let p = parse_query(p).unwrap();
        let q = parse_query(q).unwrap();
        let inst = containment_to_feasibility(&p, &q);
        assert_eq!(
            feasible(&inst.query, &inst.schema),
            contained(&p, &q),
            "Theorem 18 equivalence failed for P={p} Q={q}"
        );
    }

    #[test]
    fn theorem_18_on_contained_pair() {
        check_thm18("Q(x) :- R(x), S(x).", "Q(x) :- R(x).");
    }

    #[test]
    fn theorem_18_on_non_contained_pair() {
        check_thm18("Q(x) :- R(x).", "Q(x) :- R(x), S(x).");
    }

    #[test]
    fn theorem_18_with_unions() {
        check_thm18(
            "Q(x) :- F(x).\nQ(x) :- G(x).",
            "Q(x) :- F(x).\nQ(x) :- G(x).\nQ(x) :- H(x).",
        );
        check_thm18("Q(x) :- F(x).\nQ(x) :- G(x).", "Q(x) :- F(x).");
    }

    #[test]
    fn theorem_18_with_negation() {
        check_thm18(
            "Q(x) :- R(x).",
            "Q(x) :- R(x), S(x).\nQ(x) :- R(x), not S(x).",
        );
        check_thm18("Q(x) :- R(x), not S(x).", "Q(x) :- R(x).");
        check_thm18("Q(x) :- R(x).", "Q(x) :- R(x), not S(x).");
    }

    fn check_p20(p: &str, q: &str) {
        let p = parse_cq(p).unwrap();
        let q = parse_cq(q).unwrap();
        let inst = containment_to_feasibility_cqn(&p, &q);
        // For Proposition 20 the relevant containment is P ⊑ P ∧ Q, which
        // equals P ⊑ Q.
        let expected = contained(&UnionQuery::single(p.clone()), &UnionQuery::single(q.clone()));
        assert_eq!(
            feasible(&inst.query, &inst.schema),
            expected,
            "Proposition 20 equivalence failed for P={p} Q={q}"
        );
    }

    #[test]
    fn proposition_20_on_cq_pairs() {
        check_p20("Q(x) :- R(x), S(x).", "Q(x) :- R(x).");
        check_p20("Q(x) :- R(x).", "Q(x) :- R(x), S(x).");
    }

    #[test]
    fn proposition_20_with_negation() {
        check_p20("Q(x) :- R(x), not S(x).", "Q(x) :- R(x).");
        check_p20("Q(x) :- R(x), S(x).", "Q(x) :- R(x), not S(x).");
        check_p20("Q(x) :- R(x, y), not S(y).", "Q(x) :- R(x, y).");
    }

    #[test]
    fn reduction_schema_makes_p_and_q_executable() {
        let p = parse_query("Q(x) :- R(x), not S(x).").unwrap();
        let q = parse_query("Q(x) :- R(x).").unwrap();
        let inst = containment_to_feasibility(&p, &q);
        // Q (the tail disjuncts) must be executable under the schema.
        let q_part = UnionQuery::new(vec![inst.query.disjuncts.last().unwrap().clone()]).unwrap();
        assert!(crate::executable::is_executable(&q_part, &inst.schema));
        // P' (the head disjuncts) must not be feasible on their own: their
        // B(y) literal is unanswerable.
        let split =
            crate::answerable::answerable_split(&inst.query.disjuncts[0], &inst.schema);
        assert_eq!(split.unanswerable.len(), 1);
    }
}
