//! Conjunctive queries with negation (CQ¬) and unions thereof (UCQ¬).

use crate::atom::{Atom, Literal, Predicate};
use crate::error::IrError;
use crate::subst::{FreshVarGen, Substitution};
use crate::term::{Term, Var};
use std::collections::HashSet;
use std::fmt;

/// The signature of a query: head predicate name and arity. Two queries can
/// be unioned or compared for containment only if their signatures match.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct QuerySignature(pub Predicate);

/// A conjunctive query with negation (CQ¬), in Datalog rule form:
///
/// ```text
/// Q(i, a, t) :- B(i, a, t), C(i, a), not L(i).
/// ```
///
/// The head holds the distinguished (free) terms; all other variables are
/// implicitly existentially quantified. Plain conjunctive queries (CQ) are
/// the special case where every body literal is positive.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct ConjunctiveQuery {
    /// The head atom `Q(z̄)`.
    pub head: Atom,
    /// The body literals, in order (order matters for executability).
    pub body: Vec<Literal>,
}

impl ConjunctiveQuery {
    /// Creates a query from head and body.
    pub fn new(head: Atom, body: Vec<Literal>) -> ConjunctiveQuery {
        ConjunctiveQuery { head, body }
    }

    /// The query's signature.
    pub fn signature(&self) -> QuerySignature {
        QuerySignature(self.head.predicate)
    }

    /// The free (distinguished) variables: those occurring in the head,
    /// first-occurrence order, deduplicated.
    pub fn free_vars(&self) -> Vec<Var> {
        let mut seen = HashSet::new();
        self.head
            .vars()
            .filter(|v| seen.insert(*v))
            .collect()
    }

    /// All variables of the query (head and body), first-occurrence order.
    pub fn vars(&self) -> Vec<Var> {
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for v in self.head.vars() {
            if seen.insert(v) {
                out.push(v);
            }
        }
        for lit in &self.body {
            for v in lit.vars() {
                if seen.insert(v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// The existential variables: body variables that are not free.
    pub fn existential_vars(&self) -> Vec<Var> {
        let free: HashSet<Var> = self.free_vars().into_iter().collect();
        let mut seen = HashSet::new();
        let mut out = Vec::new();
        for lit in &self.body {
            for v in lit.vars() {
                if !free.contains(&v) && seen.insert(v) {
                    out.push(v);
                }
            }
        }
        out
    }

    /// `Q⁺`: the positive body literals, in order (paper, Section 2).
    pub fn positive_part(&self) -> Vec<&Literal> {
        self.body.iter().filter(|l| l.positive).collect()
    }

    /// `Q⁻`: the negative body literals, in order.
    pub fn negative_part(&self) -> Vec<&Literal> {
        self.body.iter().filter(|l| !l.positive).collect()
    }

    /// True iff the body contains no negated literal (plain CQ).
    pub fn is_positive(&self) -> bool {
        self.body.iter().all(|l| l.positive)
    }

    /// Safety (paper, Section 2): every variable of the query — head *and*
    /// body — appears in a positive body literal.
    pub fn is_safe(&self) -> bool {
        let positive_vars: HashSet<Var> = self
            .body
            .iter()
            .filter(|l| l.positive)
            .flat_map(|l| l.vars())
            .collect();
        self.vars().iter().all(|v| positive_vars.contains(v))
    }

    /// All predicates occurring in the body.
    pub fn body_predicates(&self) -> HashSet<Predicate> {
        self.body.iter().map(|l| l.predicate()).collect()
    }

    /// Applies a substitution to head and body.
    pub fn apply(&self, subst: &Substitution) -> ConjunctiveQuery {
        ConjunctiveQuery {
            head: subst.apply_atom(&self.head),
            body: self.body.iter().map(|l| subst.apply_literal(l)).collect(),
        }
    }
}

impl fmt::Display for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} :- ", self.head)?;
        if self.body.is_empty() {
            write!(f, "true")?;
        } else {
            for (i, lit) in self.body.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                write!(f, "{lit}")?;
            }
        }
        write!(f, ".")
    }
}

impl fmt::Debug for ConjunctiveQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A union of conjunctive queries with negation (UCQ¬):
/// `Q = Q₁ ∨ … ∨ Q_k`, all disjuncts sharing the same head.
///
/// Invariant (enforced by [`UnionQuery::new`]): every disjunct's head is
/// *literally identical* — same predicate and same term sequence. Disjunct
/// heads that differ only by variable naming are normalized by renaming.
/// The empty union (`k = 0`) is the query **false**.
#[derive(Clone, PartialEq, Eq)]
pub struct UnionQuery {
    /// The shared head signature.
    pub signature: QuerySignature,
    /// The canonical head atom shared by all disjuncts.
    pub head: Atom,
    /// The disjuncts. May be empty (the query `false`).
    pub disjuncts: Vec<ConjunctiveQuery>,
}

impl UnionQuery {
    /// Builds a union from disjuncts, normalizing heads.
    ///
    /// All disjuncts must share the head predicate (name and arity). If a
    /// disjunct's head differs from the first disjunct's head, its variables
    /// are renamed so the heads become identical; this requires both heads to
    /// consist of distinct variables in the positions where they differ.
    pub fn new(disjuncts: Vec<ConjunctiveQuery>) -> Result<UnionQuery, IrError> {
        let Some(first) = disjuncts.first() else {
            return Err(IrError::EmptyUnion);
        };
        let head = first.head.clone();
        let signature = QuerySignature(head.predicate);
        let canonical_vars: HashSet<Var> = head.vars().collect();
        let mut fresh = FreshVarGen::new();
        let mut normalized = Vec::with_capacity(disjuncts.len());
        for cq in &disjuncts {
            if cq.head.predicate != head.predicate {
                return Err(IrError::HeadMismatch {
                    expected: head.predicate.to_string(),
                    found: cq.head.predicate.to_string(),
                });
            }
            if cq.head == head {
                normalized.push(cq.clone());
                continue;
            }
            normalized.push(Self::rename_to_head(cq, &head, &canonical_vars, &mut fresh)?);
        }
        Ok(UnionQuery {
            signature,
            head,
            disjuncts: normalized,
        })
    }

    /// A union known to be `false`: no disjuncts, with an explicit head so
    /// the signature is still known.
    pub fn empty(head: Atom) -> UnionQuery {
        UnionQuery {
            signature: QuerySignature(head.predicate),
            head,
            disjuncts: Vec::new(),
        }
    }

    /// Wraps a single CQ¬ as a one-disjunct union.
    pub fn single(cq: ConjunctiveQuery) -> UnionQuery {
        UnionQuery {
            signature: cq.signature(),
            head: cq.head.clone(),
            disjuncts: vec![cq],
        }
    }

    fn rename_to_head(
        cq: &ConjunctiveQuery,
        head: &Atom,
        canonical_vars: &HashSet<Var>,
        fresh: &mut FreshVarGen,
    ) -> Result<ConjunctiveQuery, IrError> {
        // Step 1: move every variable of cq out of the way of the canonical
        // head variables to avoid capture.
        let mut cq = cq.clone();
        let own_vars: HashSet<Var> = cq.vars().into_iter().collect();
        let clash: Vec<Var> = own_vars.intersection(canonical_vars).copied().collect();
        if !clash.is_empty() {
            let mut away = Substitution::new();
            let avoid: HashSet<Var> = own_vars.union(canonical_vars).copied().collect();
            for v in clash {
                let nv = fresh.fresh_avoiding(&avoid, &HashSet::new());
                away.insert(v, Term::Var(nv));
            }
            cq = cq.apply(&away);
        }
        // Step 2: map the disjunct's head terms onto the canonical head.
        // Only a *bijective* variable renaming (plus equal constants in
        // matching positions) is allowed — anything else means the disjuncts
        // have genuinely different head shapes, i.e. different free
        // variables, which the paper's safety condition forbids.
        let mut subst = Substitution::new();
        let mut used_targets: HashSet<Term> = HashSet::new();
        for (src, dst) in cq.head.args.iter().zip(head.args.iter()) {
            match (src, dst) {
                (Term::Var(v), Term::Var(_)) => {
                    if let Some(prev) = subst.get(*v) {
                        if prev != *dst {
                            return Err(IrError::HeadNotRenamable(cq.head.to_string()));
                        }
                    } else {
                        if !used_targets.insert(*dst) {
                            // Two distinct source vars would merge into one
                            // target var: not a renaming.
                            return Err(IrError::HeadNotRenamable(cq.head.to_string()));
                        }
                        subst.insert(*v, *dst);
                    }
                }
                (Term::Const(c1), Term::Const(c2)) if c1 == c2 => {}
                _ => return Err(IrError::HeadNotRenamable(cq.head.to_string())),
            }
        }
        let out = cq.apply(&subst);
        debug_assert_eq!(out.head, *head);
        Ok(out)
    }

    /// True iff the union has no disjuncts (the query `false`).
    pub fn is_false(&self) -> bool {
        self.disjuncts.is_empty()
    }

    /// The shared free variables (those of the canonical head).
    pub fn free_vars(&self) -> Vec<Var> {
        let mut seen = HashSet::new();
        self.head.vars().filter(|v| seen.insert(*v)).collect()
    }

    /// Safety (paper, Section 2): every disjunct safe. The "same free
    /// variables" condition is structural here, since heads are identical.
    pub fn is_safe(&self) -> bool {
        self.disjuncts.iter().all(|q| q.is_safe())
    }

    /// True iff every disjunct is a plain CQ (no negation anywhere).
    pub fn is_positive(&self) -> bool {
        self.disjuncts.iter().all(|q| q.is_positive())
    }

    /// All predicates occurring in any disjunct body.
    pub fn body_predicates(&self) -> HashSet<Predicate> {
        self.disjuncts
            .iter()
            .flat_map(|q| q.body_predicates())
            .collect()
    }

    /// Returns a copy with one disjunct replaced.
    pub fn with_disjunct(&self, idx: usize, cq: ConjunctiveQuery) -> UnionQuery {
        let mut out = self.clone();
        out.disjuncts[idx] = cq;
        out
    }

    /// Returns a copy without the disjunct at `idx`.
    pub fn without_disjunct(&self, idx: usize) -> UnionQuery {
        let mut out = self.clone();
        out.disjuncts.remove(idx);
        out
    }
}

impl fmt::Display for UnionQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_false() {
            return write!(f, "{} :- false.", self.head);
        }
        for (i, q) in self.disjuncts.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{q}")?;
        }
        Ok(())
    }
}

impl fmt::Debug for UnionQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

impl From<ConjunctiveQuery> for UnionQuery {
    fn from(cq: ConjunctiveQuery) -> UnionQuery {
        UnionQuery::single(cq)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_cq, parse_query};

    #[test]
    fn free_and_existential_vars() {
        let q = parse_cq("Q(i, a, t) :- B(i, a, t), C(i, a), not L(i).").unwrap();
        let free: Vec<String> = q.free_vars().iter().map(|v| v.to_string()).collect();
        assert_eq!(free, vec!["i", "a", "t"]);
        assert!(q.existential_vars().is_empty());
        let q2 = parse_cq("Q(a) :- B(i, a, t), L(i).").unwrap();
        let ex: Vec<String> = q2.existential_vars().iter().map(|v| v.to_string()).collect();
        assert_eq!(ex, vec!["i", "t"]);
    }

    #[test]
    fn positive_negative_parts_preserve_order() {
        let q = parse_cq("Q(x) :- not A(x), B(x), not C(x), D(x).").unwrap();
        let pos: Vec<String> = q.positive_part().iter().map(|l| l.to_string()).collect();
        let neg: Vec<String> = q.negative_part().iter().map(|l| l.to_string()).collect();
        assert_eq!(pos, vec!["B(x)", "D(x)"]);
        assert_eq!(neg, vec!["not A(x)", "not C(x)"]);
    }

    #[test]
    fn safety() {
        assert!(parse_cq("Q(x) :- R(x, y), not S(y).").unwrap().is_safe());
        // Head var not in positive literal.
        assert!(!parse_cq("Q(x) :- R(y, y), not S(x).").unwrap().is_safe());
        // Negated var not in positive literal.
        assert!(!parse_cq("Q(x) :- R(x, x), not S(z).").unwrap().is_safe());
    }

    #[test]
    fn union_head_normalization_renames() {
        let q = parse_query(
            "Q(x) :- F(x), G(x).\n\
             Q(y) :- F(y), H(y, z).",
        )
        .unwrap();
        assert_eq!(q.disjuncts.len(), 2);
        assert_eq!(q.disjuncts[0].head, q.disjuncts[1].head);
        assert_eq!(q.disjuncts[1].to_string(), "Q(x) :- F(x), H(x, z).");
    }

    #[test]
    fn union_head_normalization_avoids_capture() {
        // Second rule uses `x` as an *existential* var and `y` in the head;
        // naive renaming y→x would capture. The normalizer must avoid this.
        let q = parse_query(
            "Q(x) :- F(x).\n\
             Q(y) :- G(y, x), F(x).",
        )
        .unwrap();
        let d1 = &q.disjuncts[1];
        assert_eq!(d1.head.to_string(), "Q(x)");
        // Body must join G's second arg with F's arg via some var ≠ x.
        let g = &d1.body[0].atom;
        let f = &d1.body[1].atom;
        assert_eq!(g.args[0], Term::var("x"));
        assert_ne!(g.args[1], Term::var("x"));
        assert_eq!(g.args[1], f.args[0]);
    }

    #[test]
    fn union_rejects_mismatched_heads() {
        assert!(parse_query("Q(x) :- F(x).\nP(x) :- F(x).").is_err());
        assert!(parse_query("Q(x) :- F(x).\nQ(x, y) :- G(x, y).").is_err());
    }

    #[test]
    fn repeated_head_var_normalization() {
        // Q(y, y) can be renamed onto Q(x, x)-shaped heads only when
        // consistent.
        let q = parse_query(
            "Q(x, x) :- F(x).\n\
             Q(y, y) :- G(y).",
        )
        .unwrap();
        assert_eq!(q.disjuncts[1].to_string(), "Q(x, x) :- G(x).");
        // Inconsistent: Q(u, v) cannot map onto Q(x, x) — wait, it can:
        // u→x, v→x is a fine renaming (it *merges*)? No: merging changes the
        // query's meaning. Our normalizer allows var→term maps only when
        // consistent per-variable, and u→x, v→x is consistent. The result
        // Q(x,x) :- H(x,x) is the correct normalization of Q(u,v) :- H(u,v)
        // *only if* the original head was Q(u,v) with u≠v... in that case the
        // two rules have genuinely different head shapes and the union is
        // ill-formed. We reject it.
        assert!(parse_query("Q(x, x) :- F(x).\nQ(u, v) :- H(u, v).").is_err());
    }

    #[test]
    fn display_round_trip() {
        let text = "Q(x, y) :- R(x, z), not S(z), T(z, y).";
        let q = parse_cq(text).unwrap();
        assert_eq!(q.to_string(), text);
    }

    #[test]
    fn empty_union_is_false() {
        let head = Atom::from_parts("Q", vec![Term::var("x")]);
        let q = UnionQuery::empty(head);
        assert!(q.is_false());
        assert_eq!(q.to_string(), "Q(x) :- false.");
    }
}
