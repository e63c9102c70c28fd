//! A global-as-view mediator over limited-access sources — the deployment
//! context in which the paper's algorithms ran (the BIRN mediator,
//! Section 6 and \[GLM03\]).
//!
//! The pipeline:
//!
//! 1. **Views** ([`GavView`]) define global relations as CQ¬ queries over
//!    source relations with access patterns.
//! 2. **Unfolding** ([`unfold`]) rewrites a global-schema UCQ¬ into a
//!    source-schema UCQ¬ (one disjunct per combination of view choices;
//!    negated global literals require atomic views).
//! 3. The **semantic optimizer** (from `lap-constraints`) discards
//!    disjuncts unsatisfiable under the integrity constraints.
//! 4. **FEASIBLE / PLAN\*** analyze the result, and **ANSWER\*** runs it
//!    against the sources with completeness reporting.
//!
//! [`Mediator`] wires the steps together:
//!
//! ```
//! use lap_mediator::Mediator;
//! use lap_ir::parse_query;
//! use lap_engine::Database;
//!
//! let mediator = Mediator::from_program(
//!     "Amazon^oooo. Bn^ooo. Shelf^o. Cat^oo.\n\
//!      Book(i, a, t) :- Amazon(i, a, t, p).\n\
//!      Book(i, a, t) :- Bn(i, a, t).\n\
//!      Lib(i) :- Shelf(i).",
//! )
//! .unwrap();
//! let q = parse_query("Q(i, a, t) :- Book(i, a, t), Cat(i, a), not Lib(i).").unwrap();
//! let db = Database::from_facts(r#"Bn(2, "adams", "dirk gently"). Cat(2, "adams")."#).unwrap();
//! let (plan, answer) = mediator.answer(&q, &db).unwrap();
//! assert!(plan.feasibility().feasible);
//! assert!(answer.is_complete());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mediator;
mod unfold;
mod views;

pub use mediator::{Mediator, MediatorError, MediatorPlan};
pub use unfold::{unfold, unfold_deep, UnfoldError};
pub use views::{GavView, ViewError};
