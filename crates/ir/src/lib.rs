//! Query intermediate representation for queries under limited access patterns.
//!
//! This crate provides the shared vocabulary of the `lap` workspace, the
//! reproduction of *Nash & Ludäscher, "Processing Unions of Conjunctive
//! Queries with Negation under Limited Access Patterns" (EDBT 2004)*:
//!
//! * [`Symbol`] — interned identifiers for predicate, variable, and constant
//!   names, so the planning algorithms compare integers rather than strings.
//! * [`Term`], [`Var`], [`Constant`] — terms of the query language.
//! * [`Predicate`], [`Atom`], [`Literal`] — positive or negated relational
//!   atoms (the paper's `R(x̄)` / `¬R(x̄)`).
//! * [`ConjunctiveQuery`] (CQ¬) and [`UnionQuery`] (UCQ¬) in Datalog rule
//!   form, with safety checking, `Q⁺`/`Q⁻` decomposition, and the
//!   satisfiability test of Proposition 8.
//! * [`AccessPattern`] and [`Schema`] — the paper's `R^α` access-pattern
//!   declarations (Definition 1) and per-relation pattern sets.
//! * A Datalog-style parser ([`parse_program`]), a one-pass ground-fact
//!   reader on the same lexer ([`read_facts`]) and pretty printers, so
//!   queries can be written exactly as they appear in the paper:
//!
//! ```
//! use lap_ir::parse_program;
//!
//! let program = parse_program(
//!     r#"
//!     B^ioo. B^oio. C^oo. L^o.
//!     Q(i, a, t) :- B(i, a, t), C(i, a), not L(i).
//!     "#,
//! )
//! .unwrap();
//! let q = program.single_query().unwrap();
//! assert_eq!(q.disjuncts.len(), 1);
//! assert!(q.is_safe());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod atom;
mod display;
mod error;
mod parser;
mod pattern;
mod query;
mod satisfiable;
mod subst;
mod symbol;
mod term;

pub use atom::{Atom, Literal, Predicate};
pub use display::display_adorned;
pub use error::IrError;
pub use parser::{parse_cq, parse_literal, parse_program, parse_query, read_facts, Program};
pub use pattern::{AccessPattern, RelationDecl, Schema};
pub use query::{ConjunctiveQuery, QuerySignature, UnionQuery};
pub use satisfiable::is_satisfiable;
pub use subst::{FreshVarGen, Substitution};
pub use symbol::Symbol;
pub use term::{write_quoted, Constant, Term, Var};
