//! View unfolding: global-schema UCQ¬ → source-schema UCQ¬.
//!
//! This is the step the paper describes for the BIRN prototype: "takes a
//! query against a global-as-view definition and unfolds it into a UCQ¬
//! plan" (Section 6). Each positive global literal is replaced by the body
//! of one of its views (one unfolded disjunct per combination of choices);
//! negative global literals are only expressible when the view is atomic.

use crate::views::GavView;
use lap_ir::{
    ConjunctiveQuery, FreshVarGen, Literal, Predicate, Substitution, Term, UnionQuery, Var,
};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Errors during unfolding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnfoldError {
    /// A negated global literal whose relation has several views or a
    /// non-atomic view: `¬G` would need `¬∃ȳ body`, which is not UCQ¬.
    NegatedComplexView(String),
    /// The cartesian product of view choices exceeded the cap.
    TooManyDisjuncts {
        /// The configured cap.
        cap: usize,
    },
    /// A view head arity differs from the literal using it (programming
    /// error in the view set).
    ArityMismatch(String),
    /// The view definitions are mutually recursive; unfolding would not
    /// terminate (and feasibility over recursive Datalog is undecidable).
    RecursiveViews(String),
}

impl fmt::Display for UnfoldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UnfoldError::NegatedComplexView(l) => write!(
                f,
                "cannot unfold negated literal {l}: its relation needs a single atomic view"
            ),
            UnfoldError::TooManyDisjuncts { cap } => {
                write!(f, "unfolding exceeded the cap of {cap} disjuncts")
            }
            UnfoldError::ArityMismatch(l) => write!(f, "arity mismatch unfolding {l}"),
            UnfoldError::RecursiveViews(p) => {
                write!(f, "view definitions are recursive through {p}")
            }
        }
    }
}

impl std::error::Error for UnfoldError {}

/// Multi-level unfolding: views may be defined over other global relations
/// (a non-recursive Datalog program). Unfolds repeatedly until no view
/// predicate remains; cyclic view definitions are rejected (feasibility is
/// undecidable for recursive Datalog — the paper cites \[LC01\]).
pub fn unfold_deep(
    q: &UnionQuery,
    views: &[GavView],
    max_disjuncts: usize,
) -> Result<UnionQuery, UnfoldError> {
    // Cycle check on the view dependency graph.
    let defined: std::collections::HashSet<Predicate> =
        views.iter().map(|v| v.defines()).collect();
    let mut edges: HashMap<Predicate, Vec<Predicate>> = HashMap::new();
    for v in views {
        let deps: Vec<Predicate> = v
            .body
            .iter()
            .map(|l| l.predicate())
            .filter(|p| defined.contains(p))
            .collect();
        edges.entry(v.defines()).or_default().extend(deps);
    }
    // DFS cycle detection.
    fn dfs(
        node: Predicate,
        edges: &HashMap<Predicate, Vec<Predicate>>,
        visiting: &mut std::collections::HashSet<Predicate>,
        done: &mut std::collections::HashSet<Predicate>,
    ) -> bool {
        if done.contains(&node) {
            return true;
        }
        if !visiting.insert(node) {
            return false; // cycle
        }
        for &next in edges.get(&node).map(|v| v.as_slice()).unwrap_or(&[]) {
            if !dfs(next, edges, visiting, done) {
                return false;
            }
        }
        visiting.remove(&node);
        done.insert(node);
        true
    }
    let mut visiting = std::collections::HashSet::new();
    let mut done = std::collections::HashSet::new();
    for &p in &defined {
        if !dfs(p, &edges, &mut visiting, &mut done) {
            return Err(UnfoldError::RecursiveViews(p.to_string()));
        }
    }
    // Acyclic: iterate single-level unfolding to fixpoint (bounded by the
    // dependency depth).
    let mut current = q.clone();
    loop {
        let uses_view = current
            .disjuncts
            .iter()
            .flat_map(|d| d.body.iter())
            .any(|l| defined.contains(&l.predicate()));
        if !uses_view {
            return Ok(current);
        }
        current = unfold(&current, views, max_disjuncts)?;
    }
}

/// Unfolds a global-schema query through the views, producing a
/// source-schema UCQ¬ with at most `max_disjuncts` disjuncts. Literals
/// over relations with no view pass through unchanged (they are already
/// source relations).
pub fn unfold(
    q: &UnionQuery,
    views: &[GavView],
    max_disjuncts: usize,
) -> Result<UnionQuery, UnfoldError> {
    let mut by_pred: HashMap<Predicate, Vec<&GavView>> = HashMap::new();
    for v in views {
        by_pred.entry(v.defines()).or_default().push(v);
    }
    let mut out: Vec<ConjunctiveQuery> = Vec::new();
    for d in &q.disjuncts {
        out.extend(unfold_disjunct(d, &by_pred, max_disjuncts)?);
        if out.len() > max_disjuncts {
            return Err(UnfoldError::TooManyDisjuncts { cap: max_disjuncts });
        }
    }
    if out.is_empty() {
        return Ok(UnionQuery::empty(q.head.clone()));
    }
    Ok(UnionQuery::new(out).expect("heads preserved by unfolding"))
}

fn unfold_disjunct(
    d: &ConjunctiveQuery,
    by_pred: &HashMap<Predicate, Vec<&GavView>>,
    cap: usize,
) -> Result<Vec<ConjunctiveQuery>, UnfoldError> {
    let mut fresh = FreshVarGen::new();
    // Variables that must not be captured by view existentials: everything
    // in the original disjunct. Per-partial introduced variables are
    // guaranteed distinct because the fresh generator never repeats.
    let avoid: HashSet<Var> = d.vars().into_iter().collect();
    let mut partials: Vec<Vec<Literal>> = vec![Vec::new()];
    for lit in &d.body {
        match by_pred.get(&lit.predicate()) {
            None => {
                for p in &mut partials {
                    p.push(lit.clone());
                }
            }
            Some(views) if lit.positive => {
                let mut next: Vec<Vec<Literal>> =
                    Vec::with_capacity(partials.len() * views.len());
                for view in views {
                    let body = instantiate(view, lit, &avoid, &mut fresh)?;
                    for p in &partials {
                        let mut ext = p.clone();
                        ext.extend(body.iter().cloned());
                        next.push(ext);
                        if next.len() > cap {
                            return Err(UnfoldError::TooManyDisjuncts { cap });
                        }
                    }
                }
                partials = next;
            }
            Some(views) => {
                // Negative literal: only a single atomic view is sound.
                let [view] = views.as_slice() else {
                    return Err(UnfoldError::NegatedComplexView(lit.to_string()));
                };
                if !view.is_atomic() {
                    return Err(UnfoldError::NegatedComplexView(lit.to_string()));
                }
                let body = instantiate(view, lit, &avoid, &mut fresh)?;
                debug_assert_eq!(body.len(), 1);
                let negated = Literal::neg(body[0].atom.clone());
                for p in &mut partials {
                    p.push(negated.clone());
                }
            }
        }
    }
    Ok(partials
        .into_iter()
        .map(|body| ConjunctiveQuery::new(d.head.clone(), body))
        .collect())
}

/// Instantiates a view for a literal use: head variables map to the
/// literal's argument terms; existential variables are renamed fresh.
fn instantiate(
    view: &GavView,
    lit: &Literal,
    avoid: &HashSet<Var>,
    fresh: &mut FreshVarGen,
) -> Result<Vec<Literal>, UnfoldError> {
    if view.head.args.len() != lit.atom.args.len() {
        return Err(UnfoldError::ArityMismatch(lit.to_string()));
    }
    let mut subst = Substitution::new();
    for (hv, &arg) in view.head_vars().into_iter().zip(lit.atom.args.iter()) {
        subst.insert(hv, arg);
    }
    let head_vars: HashSet<Var> = view.head_vars().into_iter().collect();
    let view_vars: HashSet<Var> = view.as_query().vars().into_iter().collect();
    for v in view_vars {
        if !head_vars.contains(&v) {
            subst.insert(v, Term::Var(fresh.fresh_avoiding(avoid, &HashSet::new())));
        }
    }
    Ok(view.body.iter().map(|l| subst.apply_literal(l)).collect())
}

#[cfg(test)]
mod deep_tests {
    use super::*;
    use lap_ir::{parse_cq, parse_query};

    fn views(rules: &[&str]) -> Vec<GavView> {
        rules
            .iter()
            .map(|r| GavView::from_rule(&parse_cq(r).unwrap()).unwrap())
            .collect()
    }

    #[test]
    fn two_level_views_unfold_to_sources() {
        let vs = views(&[
            "Avail(i, a) :- Book(i, a, t), not Lib(i).",
            "Book(i, a, t) :- Vendor(i, a, t).",
            "Lib(i) :- Shelf(i).",
        ]);
        let q = parse_query("Q(a) :- Avail(i, a).").unwrap();
        let u = unfold_deep(&q, &vs, 1000).unwrap();
        assert_eq!(u.disjuncts.len(), 1);
        let body: Vec<String> = u.disjuncts[0].body.iter().map(|l| l.to_string()).collect();
        assert_eq!(body.len(), 2);
        assert!(body[0].starts_with("Vendor("), "{body:?}");
        assert!(body[1].starts_with("not Shelf("), "{body:?}");
    }

    #[test]
    fn three_level_chain() {
        let vs = views(&[
            "A(x) :- B(x, y).",
            "B(x, y) :- C(x, y).",
            "C(x, y) :- Src(x, y).",
        ]);
        let q = parse_query("Q(x) :- A(x).").unwrap();
        let u = unfold_deep(&q, &vs, 1000).unwrap();
        assert_eq!(u.disjuncts[0].body.len(), 1);
        assert_eq!(u.disjuncts[0].body[0].atom.predicate.name.as_str(), "Src");
    }

    #[test]
    fn recursive_views_are_rejected() {
        let vs = views(&[
            "A(x) :- B(x), Src(x).",
            "B(x) :- A(x), Src2(x).",
        ]);
        let q = parse_query("Q(x) :- A(x).").unwrap();
        assert!(matches!(
            unfold_deep(&q, &vs, 1000),
            Err(UnfoldError::RecursiveViews(_))
        ));
        // Self-recursion too (built directly: the parser refuses it).
        use lap_ir::{Atom, ConjunctiveQuery, Literal, Term};
        let atom = |name| Atom::from_parts(name, vec![Term::var("x")]);
        let body = vec![Literal::pos(atom("A")), Literal::pos(atom("Src"))];
        let rule = ConjunctiveQuery::new(atom("A"), body);
        let vs2 = vec![GavView::from_rule(&rule).unwrap()];
        assert!(unfold_deep(&q, &vs2, 1000).is_err());
    }

    #[test]
    fn multi_view_levels_multiply() {
        let vs = views(&[
            "Top(x) :- Mid(x).",
            "Mid(x) :- S1(x).",
            "Mid(x) :- S2(x).",
        ]);
        let q = parse_query("Q(x) :- Top(x), Top(x).").unwrap();
        let u = unfold_deep(&q, &vs, 1000).unwrap();
        // Each Top → Mid; each Mid → {S1, S2}: 2 literals × 2 choices = 4.
        assert_eq!(u.disjuncts.len(), 4);
    }

    #[test]
    fn source_only_query_is_untouched() {
        let vs = views(&["A(x) :- Src(x)."]);
        let q = parse_query("Q(x) :- Src(x), Other(x).").unwrap();
        let u = unfold_deep(&q, &vs, 1000).unwrap();
        assert_eq!(u, q);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lap_ir::{parse_cq, parse_query};

    fn views(rules: &[&str]) -> Vec<GavView> {
        rules
            .iter()
            .map(|r| GavView::from_rule(&parse_cq(r).unwrap()).unwrap())
            .collect()
    }

    #[test]
    fn single_view_substitution() {
        let vs = views(&["Book(i, a, t) :- Amazon(i, a, t, p)."]);
        let q = parse_query("Q(a) :- Book(i, a, t).").unwrap();
        let u = unfold(&q, &vs, 100).unwrap();
        assert_eq!(u.disjuncts.len(), 1);
        let body = &u.disjuncts[0].body;
        assert_eq!(body.len(), 1);
        assert_eq!(body[0].atom.predicate.name.as_str(), "Amazon");
        // The price column is a fresh existential, not `p` captured.
        assert!(body[0].atom.args[3].is_var());
    }

    #[test]
    fn multiple_views_multiply_disjuncts() {
        let vs = views(&[
            "Book(i, a, t) :- Amazon(i, a, t, p).",
            "Book(i, a, t) :- Bn(i, a, t).",
        ]);
        let q = parse_query("Q(a) :- Book(i, a, t), Book(i2, a, t2).").unwrap();
        let u = unfold(&q, &vs, 100).unwrap();
        assert_eq!(u.disjuncts.len(), 4); // 2 × 2 view choices
    }

    #[test]
    fn union_query_unfolds_per_disjunct() {
        let vs = views(&[
            "G(x) :- S1(x).",
            "G(x) :- S2(x).",
        ]);
        let q = parse_query("Q(x) :- G(x).\nQ(x) :- T(x).").unwrap();
        let u = unfold(&q, &vs, 100).unwrap();
        assert_eq!(u.disjuncts.len(), 3); // two unfoldings + pass-through T
    }

    #[test]
    fn fresh_vars_do_not_collide_across_uses() {
        let vs = views(&["G(x) :- S(x, y)."]);
        let q = parse_query("Q(a, b) :- G(a), G(b).").unwrap();
        let u = unfold(&q, &vs, 100).unwrap();
        let body = &u.disjuncts[0].body;
        assert_eq!(body.len(), 2);
        // The two existential second columns are distinct fresh vars.
        assert_ne!(body[0].atom.args[1], body[1].atom.args[1]);
    }

    #[test]
    fn negated_atomic_view_unfolds() {
        let vs = views(&["Lib(i) :- Shelf(i)."]);
        let q = parse_query("Q(i) :- Cat(i), not Lib(i).").unwrap();
        let u = unfold(&q, &vs, 100).unwrap();
        assert_eq!(u.disjuncts[0].to_string(), "Q(i) :- Cat(i), not Shelf(i).");
    }

    #[test]
    fn negated_complex_view_is_rejected() {
        let vs = views(&["Lib(i) :- Shelf(i, s)."]); // existential s
        let q = parse_query("Q(i) :- Cat(i), not Lib(i).").unwrap();
        assert!(matches!(
            unfold(&q, &vs, 100),
            Err(UnfoldError::NegatedComplexView(_))
        ));
        // …and so is a negated multi-view relation.
        let vs2 = views(&["Lib(i) :- A(i).", "Lib(i) :- B(i)."]);
        assert!(unfold(&q, &vs2, 100).is_err());
    }

    #[test]
    fn disjunct_cap_is_enforced() {
        let vs = views(&[
            "G(x) :- S1(x).",
            "G(x) :- S2(x).",
        ]);
        let q = parse_query("Q(x) :- G(x), G(x), G(x), G(x).").unwrap();
        assert!(matches!(
            unfold(&q, &vs, 8),
            Err(UnfoldError::TooManyDisjuncts { cap: 8 })
        ));
    }

    #[test]
    fn constants_flow_into_view_bodies() {
        let vs = views(&["Book(i, a, t) :- Amazon(i, a, t, p)."]);
        let q = parse_query(r#"Q(t) :- Book(i, "adams", t)."#).unwrap();
        let u = unfold(&q, &vs, 100).unwrap();
        assert_eq!(u.disjuncts[0].body[0].atom.args[1], Term::str("adams"));
    }
}
