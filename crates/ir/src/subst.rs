//! Substitutions and fresh-variable generation.

use crate::atom::{Atom, Literal};
use crate::term::{Term, Var};
use std::collections::{HashMap, HashSet};
use std::fmt;

/// A mapping from variables to terms, applied simultaneously (not iterated
/// to fixpoint): `{x → y, y → z}` applied to `R(x, y)` yields `R(y, z)`.
#[derive(Clone, Default, PartialEq, Eq)]
pub struct Substitution {
    map: HashMap<Var, Term>,
}

impl Substitution {
    /// The empty substitution.
    pub fn new() -> Substitution {
        Substitution::default()
    }

    /// Adds a binding, replacing any previous binding for `var`.
    pub fn insert(&mut self, var: Var, term: Term) {
        self.map.insert(var, term);
    }

    /// Looks up a binding.
    pub fn get(&self, var: Var) -> Option<Term> {
        self.map.get(&var).copied()
    }

    /// Removes a binding, returning its previous value (used by backtracking
    /// searches that extend and retract a substitution in place).
    pub fn remove(&mut self, var: Var) -> Option<Term> {
        self.map.remove(&var)
    }

    /// True iff no bindings.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Number of bindings.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Applies the substitution to a term.
    pub fn apply_term(&self, term: Term) -> Term {
        match term {
            Term::Var(v) => self.map.get(&v).copied().unwrap_or(term),
            Term::Const(_) => term,
        }
    }

    /// Applies the substitution to every argument of an atom.
    pub fn apply_atom(&self, atom: &Atom) -> Atom {
        Atom {
            predicate: atom.predicate,
            args: atom.args.iter().map(|&t| self.apply_term(t)).collect(),
        }
    }

    /// Applies the substitution to a literal.
    pub fn apply_literal(&self, lit: &Literal) -> Literal {
        Literal {
            positive: lit.positive,
            atom: self.apply_atom(&lit.atom),
        }
    }

    /// Iterates over the bindings (unspecified order).
    pub fn iter(&self) -> impl Iterator<Item = (Var, Term)> + '_ {
        self.map.iter().map(|(&v, &t)| (v, t))
    }
}

impl fmt::Debug for Substitution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut entries: Vec<String> = self
            .map
            .iter()
            .map(|(v, t)| format!("{v} -> {t}"))
            .collect();
        entries.sort();
        write!(f, "{{{}}}", entries.join(", "))
    }
}

/// Generates fresh variables `_f0, _f1, …` that are guaranteed not to occur
/// in the supplied avoid-sets. The `_` prefix cannot be produced by the
/// parser's variable syntax, so fresh variables never collide with parsed
/// queries either.
#[derive(Debug, Default)]
pub struct FreshVarGen {
    counter: u64,
}

impl FreshVarGen {
    /// A generator starting at `_f0`.
    pub fn new() -> FreshVarGen {
        FreshVarGen::default()
    }

    /// Produces the next fresh variable unconditionally.
    pub fn fresh(&mut self) -> Var {
        let v = Var::new(&format!("_f{}", self.counter));
        self.counter += 1;
        v
    }

    /// Produces a fresh variable not occurring in either avoid-set.
    pub fn fresh_avoiding(&mut self, a: &HashSet<Var>, b: &HashSet<Var>) -> Var {
        loop {
            let v = self.fresh();
            if !a.contains(&v) && !b.contains(&v) {
                return v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simultaneous_application() {
        // {x→y, y→z} on R(x, y) = R(y, z), not R(z, z).
        let mut s = Substitution::new();
        s.insert(Var::new("x"), Term::var("y"));
        s.insert(Var::new("y"), Term::var("z"));
        let a = Atom::from_parts("R", vec![Term::var("x"), Term::var("y")]);
        assert_eq!(s.apply_atom(&a).to_string(), "R(y, z)");
    }

    #[test]
    fn constants_are_fixed_points() {
        let mut s = Substitution::new();
        s.insert(Var::new("x"), Term::int(1));
        assert_eq!(s.apply_term(Term::int(5)), Term::int(5));
        assert_eq!(s.apply_term(Term::var("x")), Term::int(1));
        assert_eq!(s.apply_term(Term::var("unbound")), Term::var("unbound"));
    }

    #[test]
    fn fresh_vars_are_distinct_and_avoid() {
        let mut gen = FreshVarGen::new();
        let a: HashSet<Var> = [Var::new("_f0"), Var::new("_f1")].into_iter().collect();
        let v = gen.fresh_avoiding(&a, &HashSet::new());
        assert_eq!(v, Var::new("_f2"));
    }

    #[test]
    fn apply_literal_preserves_sign() {
        let mut s = Substitution::new();
        s.insert(Var::new("x"), Term::var("y"));
        let l = Literal::neg(Atom::from_parts("S", vec![Term::var("x")]));
        let applied = s.apply_literal(&l);
        assert!(!applied.positive);
        assert_eq!(applied.to_string(), "not S(y)");
    }
}
