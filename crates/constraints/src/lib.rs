//! Integrity constraints and the Example-6 semantic optimizer — the
//! extension the paper sketches ("if R.z is a foreign key referencing S.z
//! … the first disjunct can be discarded at compile-time by a semantic
//! optimizer") and names as future work ("the addition of integrity
//! constraints").
//!
//! * [`InclusionDep`] / [`FunctionalDep`] / [`ConstraintSet`] — `Σ`.
//! * [`chase`] — the restricted chase of a CQ¬ body with `Σ` (IND steps
//!   add witnesses with fresh variables, FD steps unify; bounded rounds).
//! * [`satisfiable_under`] — Proposition 8 generalized: unsatisfiability
//!   modulo `Σ` via a complementary pair over the chased body.
//! * [`prune_unsatisfiable`] / [`feasible_under`] — the semantic
//!   optimizer: discard Σ-unsatisfiable disjuncts, then decide feasibility
//!   as usual. A query infeasible in general can become feasible under the
//!   constraints, and ANSWER\*'s runtime completeness on fk-closed
//!   instances (experiment E9) becomes a compile-time guarantee.
//!
//! The crate exports no containment decider: `ans(Q) ⊑_Σ Q` is a chase in
//! front of the one door, [`ContainmentEngine`](lap_core::ContainmentEngine),
//! which `feasible_under` takes as an argument.
//!
//! ```
//! use lap_constraints::{feasible_under, ConstraintSet, InclusionDep};
//! use lap_core::{feasible, ContainmentEngine};
//! use lap_ir::{parse_program, Predicate};
//!
//! let p = parse_program(
//!     "S^o. R^oo. B^ii. T^oo.\n\
//!      Q(x, y) :- not S(z), R(x, z), B(x, y).\n\
//!      Q(x, y) :- T(x, y).",
//! )
//! .unwrap();
//! let q = p.single_query().unwrap();
//! assert!(!feasible(q, &p.schema)); // infeasible in general
//!
//! // …but R.z is a foreign key into S.z, so the blocked disjunct can
//! // never produce answers:
//! let cs = ConstraintSet::new().with_inclusion(InclusionDep::new(
//!     Predicate::new("R", 2), vec![1],
//!     Predicate::new("S", 1), vec![0],
//! ));
//! assert!(feasible_under(q, &cs, &p.schema, &ContainmentEngine::default()).feasible);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod chase;
mod containment;
mod deps;
mod optimizer;
mod parse;

pub use chase::{chase, satisfiable_under, ChaseResult, SatVerdict, DEFAULT_CHASE_ROUNDS};
pub use deps::{ConstraintSet, FunctionalDep, InclusionDep};
pub use optimizer::{feasible_under, prune_unsatisfiable};
pub use parse::{parse_constraints, ConstraintParseError};
