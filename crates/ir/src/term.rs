//! Terms: variables and constants.

use crate::symbol::Symbol;
use std::fmt;

/// A variable, e.g. the `i`, `a`, `t` of the paper's bookstore query.
///
/// Following the paper's convention, variables are written in lowercase in
/// the concrete syntax; the parser enforces this.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub Symbol);

impl Var {
    /// Creates a variable with the given name.
    pub fn new(name: &str) -> Var {
        Var(Symbol::intern(name))
    }

    /// The variable's name.
    pub fn name(self) -> &'static str {
        self.0.as_str()
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl fmt::Debug for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "?{}", self.0)
    }
}

/// A constant: an integer or an interned string.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Constant {
    /// Integer constant, written bare in the concrete syntax: `42`.
    Int(i64),
    /// String constant, written quoted in the concrete syntax: `"isbn-0"`.
    Str(Symbol),
}

impl Constant {
    /// String constant from a `&str`.
    pub fn str(s: &str) -> Constant {
        Constant::Str(Symbol::intern(s))
    }

    /// Integer constant.
    pub fn int(i: i64) -> Constant {
        Constant::Int(i)
    }
}

/// Writes `s` as a string literal that the parser and [`crate::read_facts`]
/// read back as `s`: double-quoted, with `"`, `\` and newline escaped as
/// `\"`, `\\` and `\n` (the only escapes the lexer reads) and every other
/// character written raw.
pub fn write_quoted(f: &mut impl fmt::Write, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' | '\\' => write!(f, "\\{c}")?,
            '\n' => f.write_str("\\n")?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

impl fmt::Display for Constant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Constant::Int(i) => write!(f, "{i}"),
            Constant::Str(s) => write_quoted(f, s.as_str()),
        }
    }
}

impl fmt::Debug for Constant {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self, f)
    }
}

/// A term is a variable or a constant (paper, Section 2).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A variable.
    Var(Var),
    /// A constant.
    Const(Constant),
}

impl Term {
    /// Convenience constructor for a variable term.
    pub fn var(name: &str) -> Term {
        Term::Var(Var::new(name))
    }

    /// Convenience constructor for a string-constant term.
    pub fn str(s: &str) -> Term {
        Term::Const(Constant::str(s))
    }

    /// Convenience constructor for an integer-constant term.
    pub fn int(i: i64) -> Term {
        Term::Const(Constant::int(i))
    }

    /// Returns the variable if this term is one.
    pub fn as_var(self) -> Option<Var> {
        match self {
            Term::Var(v) => Some(v),
            Term::Const(_) => None,
        }
    }

    /// Returns the constant if this term is one.
    pub fn as_const(self) -> Option<Constant> {
        match self {
            Term::Var(_) => None,
            Term::Const(c) => Some(c),
        }
    }

    /// True iff this term is a variable.
    pub fn is_var(self) -> bool {
        matches!(self, Term::Var(_))
    }
}

impl From<Var> for Term {
    fn from(v: Var) -> Term {
        Term::Var(v)
    }
}

impl From<Constant> for Term {
    fn from(c: Constant) -> Term {
        Term::Const(c)
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v}"),
            Term::Const(c) => write!(f, "{c}"),
        }
    }
}

impl fmt::Debug for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Var(v) => write!(f, "{v:?}"),
            Term::Const(c) => write!(f, "{c:?}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_equality_is_by_name() {
        assert_eq!(Var::new("x"), Var::new("x"));
        assert_ne!(Var::new("x"), Var::new("y"));
    }

    #[test]
    fn term_accessors() {
        let v = Term::var("x");
        let c = Term::int(3);
        assert!(v.is_var());
        assert!(!c.is_var());
        assert_eq!(v.as_var(), Some(Var::new("x")));
        assert_eq!(v.as_const(), None);
        assert_eq!(c.as_const(), Some(Constant::Int(3)));
    }

    #[test]
    fn constants_of_different_kinds_differ() {
        assert_ne!(Constant::int(1), Constant::str("1"));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Term::var("x").to_string(), "x");
        assert_eq!(Term::int(-7).to_string(), "-7");
        assert_eq!(Term::str("a").to_string(), "\"a\"");
    }
}
