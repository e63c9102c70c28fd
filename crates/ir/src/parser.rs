//! Datalog-style parser for queries and access-pattern declarations.
//!
//! The concrete syntax follows the paper as closely as plain text allows:
//!
//! ```text
//! % access patterns (Definition 1)
//! B^ioo.  B^oio.  C^oo.  L^o.
//!
//! % a UCQ¬ query: one rule per disjunct, same head predicate
//! Q(i, a, t) :- B(i, a, t), C(i, a), not L(i).
//! ```
//!
//! * identifiers in argument positions are **variables** (the paper writes
//!   variables in lowercase; we accept any identifier),
//! * constants are integers (`42`) or double-quoted strings (`"isbn"`),
//! * negation is written `not`, `!`, or `¬`,
//! * a body may be `true` (empty body) or `false` (the rule is dropped; if
//!   every rule of a query is `false`, the query is the empty union),
//! * `%` and `#` start line comments.

use crate::atom::{Atom, Literal, Predicate};
use crate::error::IrError;
use crate::pattern::Schema;
use crate::query::{ConjunctiveQuery, UnionQuery};
use crate::symbol::Symbol;
use crate::term::{Constant, Term, Var};
use std::borrow::Cow;
use std::collections::HashMap;

/// A parsed program: a schema of access patterns plus named queries.
#[derive(Clone, Debug, Default)]
pub struct Program {
    /// Declared access patterns.
    pub schema: Schema,
    /// Queries in order of first appearance of their head predicate.
    pub queries: Vec<UnionQuery>,
}

impl Program {
    /// Returns the unique query of the program, or an error if the program
    /// defines zero or several queries.
    pub fn single_query(&self) -> Result<&UnionQuery, IrError> {
        match self.queries.as_slice() {
            [q] => Ok(q),
            other => Err(IrError::NotSingleQuery(other.len())),
        }
    }

    /// Looks up a query by head predicate name.
    pub fn query(&self, name: &str) -> Option<&UnionQuery> {
        let sym = Symbol::intern(name);
        self.queries.iter().find(|q| q.signature.0.name == sym)
    }
}

impl std::fmt::Display for Program {
    /// Prints the schema declarations followed by every query's rules —
    /// re-parseable by [`parse_program`].
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.schema)?;
        for q in &self.queries {
            writeln!(f, "{q}")?;
        }
        Ok(())
    }
}

/// Parses a full program (pattern declarations + rules).
pub fn parse_program(text: &str) -> Result<Program, IrError> {
    Parser::new(text).program()
}

/// Parses a program and returns its unique query (ignoring the schema).
pub fn parse_query(text: &str) -> Result<UnionQuery, IrError> {
    let program = parse_program(text)?;
    program.single_query().cloned()
}

/// Parses a single rule as a CQ¬ query.
pub fn parse_cq(text: &str) -> Result<ConjunctiveQuery, IrError> {
    let q = parse_query(text)?;
    match q.disjuncts.as_slice() {
        [cq] => Ok(cq.clone()),
        _ => Err(IrError::NotSingleQuery(q.disjuncts.len())),
    }
}

/// Parses a single literal, e.g. `not L(i)` — convenient in tests.
pub fn parse_literal(text: &str) -> Result<Literal, IrError> {
    let mut p = Parser::new(text);
    let lit = p.literal()?;
    p.expect_eof()?;
    Ok(lit)
}

/// Reads ground facts — `R(c, …)` atoms whose arguments are all constants,
/// each ended by `.` (optional after the last) — and calls `fact` once per
/// fact, in text order, with the relation name and the constants.
///
/// The facts grammar is the program grammar's, read by the same lexer:
/// `%`/`#` comments, integers (negative ones too), strings with the
/// escapes `\"`, `\\` and `\n`, Unicode identifiers and whitespace. Empty
/// statements (`..`) are skipped. A syntax error, a negated fact and a
/// variable argument are [`IrError::Parse`] errors positioned over the
/// whole text; an error from `fact` stops the read and is returned as is.
///
/// ```
/// use lap_ir::{read_facts, IrError};
/// let mut seen = Vec::new();
/// read_facts::<IrError>(r#"B(1, "tolkien"). L(-1)"#, |name, args| {
///     seen.push(format!("{name}/{}", args.len()));
///     Ok(())
/// })
/// .unwrap();
/// assert_eq!(seen, ["B/2", "L/1"]);
/// let e = read_facts::<IrError>("B(1).\nnot L(1).", |_, _| Ok(())).unwrap_err();
/// assert_eq!(e.to_string(), "parse error at 2:1: negated fact");
/// ```
pub fn read_facts<E: From<IrError>>(
    text: &str,
    mut fact: impl FnMut(Symbol, &[Constant]) -> Result<(), E>,
) -> Result<(), E> {
    let mut p = Parser::new(text);
    if let Some(e) = p.deferred_error.take() {
        return Err(e.into());
    }
    let (mut previous, mut args) = (None, Vec::new());
    loop {
        let name = match p.tok {
            Tok::Eof => return Ok(()),
            Tok::Dot => {
                p.advance()?;
                continue;
            }
            Tok::Ident(name) => name,
            Tok::Not => return Err(p.err("negated fact").into()),
            ref other => {
                return Err(p.err(format!("expected a relation name, found {other:?}")).into())
            }
        };
        p.advance()?;
        args.clear();
        p.args(&mut args, Parser::constant)?;
        if args.is_empty() {
            return Err(p.err(format!("relation {name} needs at least one argument")).into());
        }
        if !matches!(p.tok, Tok::Dot | Tok::Eof) {
            return Err(p.err(format!("unexpected trailing input: {:?}", p.tok)).into());
        }
        let sym = match previous {
            Some((prev, sym)) if prev == name => sym,
            _ => Symbol::intern(name),
        };
        previous = Some((name, sym));
        fact(sym, &args)?;
    }
}

// ---------------------------------------------------------------------------

/// A token. Identifiers and escape-free strings borrow from the input.
#[derive(Clone, Debug, PartialEq)]
enum Tok<'a> {
    Ident(&'a str),
    Int(i64),
    Str(Cow<'a, str>),
    LParen,
    RParen,
    Comma,
    Dot,
    Caret,
    Arrow, // :- or <-
    Not,   // not / ! / ¬
    Eof,
}

struct Parser<'a> {
    text: &'a str,
    /// Byte offset of the first character not yet lexed.
    pos: usize,
    tok: Tok<'a>,
    /// Byte offset at which `tok` starts.
    tok_start: usize,
    /// Arity bookkeeping across the whole program.
    arities: HashMap<Symbol, usize>,
    /// Lexer error hit while priming the first token, surfaced on first use.
    deferred_error: Option<IrError>,
}

impl<'a> Parser<'a> {
    fn new(text: &'a str) -> Parser<'a> {
        let mut p = Parser {
            text,
            pos: 0,
            tok: Tok::Eof,
            tok_start: 0,
            arities: HashMap::new(),
            deferred_error: None,
        };
        // Prime the first token; a lexer error is deferred to the first use.
        if let Err(e) = p.advance() {
            p.tok = Tok::Eof;
            p.deferred_error = Some(e);
        }
        p
    }

    /// A parse error at byte offset `at`, positioned by 1-based line and
    /// column (in characters) over the whole text.
    fn err_at(&self, at: usize, message: impl Into<String>) -> IrError {
        let before = &self.text[..at];
        let line_start = before.rfind('\n').map_or(0, |i| i + 1);
        IrError::Parse {
            line: before.matches('\n').count() + 1,
            col: before[line_start..].chars().count() + 1,
            message: message.into(),
        }
    }

    fn err(&self, message: impl Into<String>) -> IrError {
        self.err_at(self.tok_start, message)
    }

    fn advance(&mut self) -> Result<(), IrError> {
        // Skip whitespace and comments.
        let text = self.text;
        loop {
            let rest = text[self.pos..].trim_start();
            self.pos = text.len() - rest.len();
            if !rest.starts_with(['%', '#']) {
                break;
            }
            self.pos += rest.find('\n').map_or(rest.len(), |i| i + 1);
        }
        self.tok_start = self.pos;
        let rest = &text[self.pos..];
        let Some(c) = rest.chars().next() else {
            self.tok = Tok::Eof;
            return Ok(());
        };
        let (tok, len) = match c {
            '(' => (Tok::LParen, 1),
            ')' => (Tok::RParen, 1),
            ',' => (Tok::Comma, 1),
            '.' => (Tok::Dot, 1),
            '^' => (Tok::Caret, 1),
            '!' | '¬' => (Tok::Not, c.len_utf8()),
            ':' | '<' if rest[1..].starts_with('-') => (Tok::Arrow, 2),
            ':' | '<' => return Err(self.err(format!("expected `{c}-`"))),
            '"' => self.string(rest)?,
            c if c.is_ascii_digit() || c == '-' => {
                let digits = rest[1..].find(|d: char| !d.is_ascii_digit());
                let len = 1 + digits.unwrap_or(rest.len() - 1);
                if len == 1 && c == '-' {
                    return Err(self.err("expected digits after `-`"));
                }
                let s = &rest[..len];
                let n = s
                    .parse()
                    .map_err(|_| self.err(format!("integer out of range: {s}")))?;
                (Tok::Int(n), len)
            }
            c if c.is_alphabetic() || c == '_' => {
                let len = rest
                    .find(|d: char| !(d.is_alphanumeric() || d == '_' || d == '\''))
                    .unwrap_or(rest.len());
                let s = &rest[..len];
                (if s == "not" { Tok::Not } else { Tok::Ident(s) }, len)
            }
            other => return Err(self.err(format!("unexpected character {other:?}"))),
        };
        self.tok = tok;
        self.pos += len;
        Ok(())
    }

    /// Lexes the string literal that opens `rest`, returning the token and
    /// its length in bytes. The escapes are `\"`, `\\` and `\n`; the body
    /// is borrowed unless it holds one.
    fn string(&self, rest: &'a str) -> Result<(Tok<'a>, usize), IrError> {
        let (mut owned, mut copied, mut i) = (None::<String>, 1, 1);
        loop {
            let Some(k) = rest[i..].find(['"', '\\']) else {
                return Err(self.err("unterminated string"));
            };
            i += k;
            if rest.as_bytes()[i] == b'"' {
                break;
            }
            let unescaped = match rest.as_bytes().get(i + 1) {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'n') => '\n',
                _ => return Err(self.err("bad escape in string")),
            };
            let s = owned.get_or_insert_with(String::new);
            s.push_str(&rest[copied..i]);
            s.push(unescaped);
            i += 2;
            copied = i;
        }
        let body = match owned {
            Some(mut s) => {
                s.push_str(&rest[copied..i]);
                Cow::Owned(s)
            }
            None => Cow::Borrowed(&rest[1..i]),
        };
        Ok((Tok::Str(body), i + 1))
    }

    fn eat(&mut self, tok: &Tok) -> Result<(), IrError> {
        if &self.tok == tok {
            self.advance()
        } else {
            Err(self.err(format!("expected {tok:?}, found {:?}", self.tok)))
        }
    }

    fn expect_eof(&mut self) -> Result<(), IrError> {
        if self.tok == Tok::Eof {
            Ok(())
        } else {
            Err(self.err(format!("unexpected trailing input: {:?}", self.tok)))
        }
    }

    fn check_arity(&mut self, name: &str, arity: usize) -> Result<Predicate, IrError> {
        let sym = Symbol::intern(name);
        let expected = *self.arities.entry(sym).or_insert(arity);
        if expected != arity {
            return Err(IrError::AtomArity { relation: name.to_owned(), expected, found: arity });
        }
        Ok(Predicate { name: sym, arity })
    }

    fn term(&self) -> Result<Term, IrError> {
        match &self.tok {
            Tok::Ident(s) => Ok(Term::Var(Var::new(s))),
            Tok::Int(n) => Ok(Term::Const(Constant::Int(*n))),
            Tok::Str(s) => Ok(Term::Const(Constant::str(s))),
            other => Err(self.err(format!("expected a term, found {other:?}"))),
        }
    }

    fn constant(&self) -> Result<Constant, IrError> {
        match self.term()? {
            Term::Const(c) => Ok(c),
            Term::Var(v) => Err(self.err(format!("variable {v} in a fact"))),
        }
    }

    /// Parses `(arg, …)` into `out`, reading each argument with `arg`.
    fn args<T>(
        &mut self,
        out: &mut Vec<T>,
        arg: fn(&Self) -> Result<T, IrError>,
    ) -> Result<(), IrError> {
        self.eat(&Tok::LParen)?;
        if self.tok != Tok::RParen {
            loop {
                out.push(arg(self)?);
                self.advance()?;
                if self.tok != Tok::Comma {
                    break;
                }
                self.advance()?;
            }
        }
        self.eat(&Tok::RParen)
    }

    fn atom(&mut self) -> Result<Atom, IrError> {
        let Tok::Ident(name) = self.tok else {
            return Err(self.err(format!("expected a relation name, found {:?}", self.tok)));
        };
        self.advance()?;
        let mut args = Vec::new();
        self.args(&mut args, Self::term)?;
        if args.is_empty() {
            return Err(self.err(format!("relation {name} needs at least one argument")));
        }
        let predicate = self.check_arity(name, args.len())?;
        Ok(Atom { predicate, args })
    }

    fn literal(&mut self) -> Result<Literal, IrError> {
        if self.tok == Tok::Not {
            self.advance()?;
            Ok(Literal::neg(self.atom()?))
        } else {
            Ok(Literal::pos(self.atom()?))
        }
    }

    /// Body of a rule: `true`, `false`, or a literal list.
    /// Returns `None` for `false` (the rule is dropped).
    fn body(&mut self) -> Result<Option<Vec<Literal>>, IrError> {
        if let Tok::Ident(s) = self.tok {
            if s == "true" {
                self.advance()?;
                return Ok(Some(Vec::new()));
            }
            if s == "false" {
                self.advance()?;
                return Ok(None);
            }
        }
        let mut lits = vec![self.literal()?];
        while self.tok == Tok::Comma {
            self.advance()?;
            lits.push(self.literal()?);
        }
        Ok(Some(lits))
    }

    fn program(&mut self) -> Result<Program, IrError> {
        if let Some(e) = self.deferred_error.take() {
            return Err(e);
        }
        let mut schema = Schema::new();
        // head predicate -> (index in order, rules, any-false-rule head atom)
        let mut order: Vec<Symbol> = Vec::new();
        let mut rules: HashMap<Symbol, Vec<ConjunctiveQuery>> = HashMap::new();
        // head predicate -> (head atom, byte offset of its first rule)
        let mut heads: HashMap<Symbol, (Atom, usize)> = HashMap::new();

        while self.tok != Tok::Eof {
            let Tok::Ident(name) = self.tok else {
                return Err(self.err(format!(
                    "expected a declaration or rule, found {:?}",
                    self.tok
                )));
            };
            let at = self.tok_start;
            self.advance()?;
            match self.tok {
                Tok::Caret => {
                    // Pattern declaration: Name ^ word . (word lexes as an
                    // identifier consisting of i/o letters)
                    self.advance()?;
                    let Tok::Ident(word) = self.tok else {
                        return Err(self.err("expected an access-pattern word after `^`"));
                    };
                    self.advance()?;
                    schema.add_pattern_str(name, word)?;
                    // Record/check arity against atom uses.
                    let new = word.len();
                    let old = *self.arities.entry(Symbol::intern(name)).or_insert(new);
                    if old != new {
                        return Err(IrError::ArityConflict { relation: name.to_owned(), old, new });
                    }
                    if self.tok == Tok::Dot {
                        self.advance()?;
                    }
                }
                Tok::LParen => {
                    // A rule: parse the head atom (name already consumed).
                    let mut args = Vec::new();
                    self.args(&mut args, Self::term)?;
                    if args.is_empty() {
                        return Err(self.err(format!("head {name} needs at least one argument")));
                    }
                    let predicate = self.check_arity(name, args.len())?;
                    let head = Atom { predicate, args };
                    let body = if self.tok == Tok::Arrow {
                        self.advance()?;
                        self.body()?
                    } else {
                        // `Q(x).` — a bodyless (true) rule.
                        Some(Vec::new())
                    };
                    self.eat(&Tok::Dot)?;
                    let sym = predicate.name;
                    if let std::collections::hash_map::Entry::Vacant(e) = rules.entry(sym) {
                        order.push(sym);
                        e.insert(Vec::new());
                        heads.insert(sym, (head.clone(), at));
                    }
                    if let Some(body) = body {
                        rules
                            .get_mut(&sym)
                            .expect("inserted above")
                            .push(ConjunctiveQuery::new(head, body));
                    }
                }
                _ => {
                    return Err(self.err(format!(
                        "expected `^` (pattern) or `(` (rule) after {name}, found {:?}",
                        self.tok
                    )))
                }
            }
        }

        if let Some(sym) = recursive_head(&rules, &order) {
            return Err(self.err_at(
                heads[&sym].1,
                format!(
                    "{sym} is defined recursively (its rules depend on {sym}); \
                     only non-recursive programs are supported"
                ),
            ));
        }
        let mut queries = Vec::with_capacity(order.len());
        for sym in order {
            let cqs = rules.remove(&sym).expect("tracked");
            if cqs.is_empty() {
                queries.push(UnionQuery::empty(heads.remove(&sym).expect("tracked").0));
            } else {
                queries.push(UnionQuery::new(cqs)?);
            }
        }
        Ok(Program { schema, queries })
    }
}

/// The scope fence: the paper's algorithms are for UCQ¬, and relevance
/// under access limitations is undecidable once Datalog recursion is
/// allowed. Returns a head predicate whose rules depend on it, directly or
/// through other heads of the program, if there is one. Multi-level
/// definitions that bottom out in sources (mediator views) pass. One
/// depth-first walk over the rules, iterative so that a hostile program
/// cannot exhaust the stack.
fn recursive_head(
    rules: &HashMap<Symbol, Vec<ConjunctiveQuery>>,
    order: &[Symbol],
) -> Option<Symbol> {
    let depends_on = |head: Symbol| -> Vec<Symbol> {
        rules[&head]
            .iter()
            .flat_map(|cq| &cq.body)
            .map(|lit| lit.atom.predicate.name)
            .filter(|p| rules.contains_key(p))
            .collect()
    };
    // false: on the current path; true: finished, no cycle through it.
    let mut done: HashMap<Symbol, bool> = HashMap::new();
    for &root in order {
        if done.contains_key(&root) {
            continue;
        }
        done.insert(root, false);
        let mut path = vec![(root, depends_on(root))];
        while let Some((head, pending)) = path.last_mut() {
            let Some(next) = pending.pop() else {
                done.insert(*head, true);
                path.pop();
                continue;
            };
            match done.get(&next) {
                Some(false) => return Some(next),
                Some(true) => {}
                None => {
                    done.insert(next, false);
                    path.push((next, depends_on(next)));
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_paper_example_1() {
        let p = parse_program(
            "B^ioo. B^oio. C^oo. L^o.\n\
             Q(i, a, t) :- B(i, a, t), C(i, a), not L(i).",
        )
        .unwrap();
        let q = p.single_query().unwrap();
        assert_eq!(q.disjuncts.len(), 1);
        assert_eq!(
            q.disjuncts[0].to_string(),
            "Q(i, a, t) :- B(i, a, t), C(i, a), not L(i)."
        );
        assert_eq!(p.schema.patterns(Symbol::intern("B")).len(), 2);
    }

    #[test]
    fn multiple_rules_form_a_union() {
        let q = parse_query(
            "Q(a) :- B(i, a, t), L(i), B(i2, a2, t).\n\
             Q(a) :- B(i, a, t), L(i), not B(i2, a2, t).",
        )
        .unwrap();
        assert_eq!(q.disjuncts.len(), 2);
    }

    #[test]
    fn false_body_drops_rule() {
        let q = parse_query(
            "Q(x, y) :- false.\n\
             Q(x, y) :- T(x, y).",
        )
        .unwrap();
        assert_eq!(q.disjuncts.len(), 1);
        let empty = parse_query("Q(x) :- false.").unwrap();
        assert!(empty.is_false());
    }

    #[test]
    fn true_body_is_empty_body() {
        let q = parse_query("Q(x) :- true.").unwrap();
        assert_eq!(q.disjuncts[0].body.len(), 0);
    }

    #[test]
    fn negation_spellings() {
        for text in ["Q(x) :- R(x), not S(x).", "Q(x) :- R(x), ! S(x).", "Q(x) :- R(x), ¬S(x)."] {
            let q = parse_cq(text).unwrap();
            assert!(!q.body[1].positive, "in {text}");
        }
    }

    #[test]
    fn constants_parse() {
        let q = parse_cq(r#"Q(x) :- R(x, 42, "alice", -7)."#).unwrap();
        assert_eq!(q.body[0].atom.args[1], Term::int(42));
        assert_eq!(q.body[0].atom.args[2], Term::str("alice"));
        assert_eq!(q.body[0].atom.args[3], Term::int(-7));
    }

    #[test]
    fn arity_is_enforced_across_atoms() {
        let e = parse_program("Q(x) :- R(x, y), R(x).").unwrap_err();
        assert!(matches!(e, IrError::AtomArity { .. }), "{e}");
    }

    #[test]
    fn arity_is_enforced_between_pattern_and_atom() {
        let e = parse_program("R^oo.\nQ(x) :- R(x, y, z).").unwrap_err();
        assert!(matches!(e, IrError::ArityConflict { .. } | IrError::AtomArity { .. }), "{e}");
    }

    #[test]
    fn comments_are_skipped() {
        let p = parse_program(
            "% patterns\nB^oo. # trailing\nQ(x) :- B(x, y). % done",
        )
        .unwrap();
        assert_eq!(p.queries.len(), 1);
    }

    #[test]
    fn errors_carry_position() {
        let e = parse_program("Q(x) :- R(x)\nQ(y) :- S(y).").unwrap_err();
        match e {
            IrError::Parse { line, .. } => assert_eq!(line, 2),
            other => panic!("expected parse error, got {other:?}"),
        }
    }

    #[test]
    fn recursive_programs_are_refused_and_multi_level_ones_are_not() {
        for (text, at) in [
            ("R^oo.\nQ(x) :- R(x, y), Q(y).", (2, 1)),
            ("P(x) :- Q(x).\nQ(x) :- R(x).\nQ(x) :- P(x).", (1, 1)),
        ] {
            match parse_program(text).unwrap_err() {
                IrError::Parse { line, col, message } => {
                    assert_eq!((line, col), at, "{text}");
                    assert!(message.contains("defined recursively"), "{message}");
                }
                other => panic!("expected parse error, got {other:?}"),
            }
        }
        let views = "V^oo.\nA(x) :- B(x), not C(x).\nB(x) :- V(x, y).\nC(x) :- V(y, x).";
        assert_eq!(parse_program(views).unwrap().queries.len(), 3);
    }

    #[test]
    fn multiple_queries_in_one_program() {
        let p = parse_program(
            "Q(x) :- R(x).\n\
             P(y) :- S(y).\n\
             Q(x) :- T(x).",
        )
        .unwrap();
        assert_eq!(p.queries.len(), 2);
        assert_eq!(p.query("Q").unwrap().disjuncts.len(), 2);
        assert_eq!(p.query("P").unwrap().disjuncts.len(), 1);
        assert!(p.single_query().is_err());
    }

    #[test]
    fn arrow_spellings() {
        assert!(parse_cq("Q(x) <- R(x).").is_ok());
        assert!(parse_cq("Q(x) :- R(x).").is_ok());
    }

    #[test]
    fn program_display_round_trips() {
        let text = "B^ioo. B^oio. C^oo. L^o.\n\
                    Q(i, a, t) :- B(i, a, t), C(i, a), not L(i).\n\
                    P(x) :- C(x, y).";
        let p1 = parse_program(text).unwrap();
        let p2 = parse_program(&p1.to_string()).unwrap();
        assert_eq!(p1.schema, p2.schema);
        assert_eq!(p1.queries.len(), p2.queries.len());
        for (a, b) in p1.queries.iter().zip(p2.queries.iter()) {
            assert_eq!(a, b);
        }
    }

    #[test]
    fn literal_parser() {
        let l = parse_literal("not L(i)").unwrap();
        assert!(!l.positive);
        assert_eq!(l.atom.predicate.name.as_str(), "L");
    }
}
