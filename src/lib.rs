//! # lap — queries under limited access patterns
//!
//! A production-quality Rust reproduction of *Alan Nash and Bertram
//! Ludäscher, "Processing Unions of Conjunctive Queries with Negation under
//! Limited Access Patterns" (EDBT 2004)*.
//!
//! Sources that can only be called like web services — "give me an author,
//! I return their books" — are modeled as relations with **access
//! patterns** (`B^oio`). A query over such sources is **feasible** if it is
//! equivalent to an **executable** plan that respects the patterns. This
//! workspace implements the paper's full pipeline:
//!
//! * [`ir`] — queries (CQ, UCQ, CQ¬, UCQ¬), access patterns, a Datalog
//!   parser;
//! * [`containment`] — Chandra–Merlin, Sagiv–Yannakakis, and Wei–Lausen
//!   containment, minimization, acyclic fast paths;
//! * [`core`] — the paper's algorithms: ANSWERABLE (Fig. 1), PLAN\*
//!   (Fig. 2), FEASIBLE (Fig. 3), ANSWER\* (Fig. 4), and the Theorem-18 /
//!   Proposition-20 hardness reductions;
//! * [`engine`] — an in-memory relational engine whose *only* read path
//!   enforces access patterns, plus an unrestricted oracle and
//!   domain-enumeration views;
//! * [`baselines`] — Li & Chang's CQstable/CQstable\*/UCQstable/UCQstable\*;
//! * [`workload`] — seeded generators for the experiment suite.
//!
//! ## Quickstart
//!
//! ```
//! use lap::core::{answer_star, feasible_detailed, DecisionPath};
//! use lap::engine::Database;
//! use lap::ir::parse_program;
//!
//! // The paper's Example 1: books in a store and a catalog but not in the
//! // local library. Not executable as written — but feasible.
//! let program = parse_program(
//!     "B^ioo. B^oio. C^oo. L^o.\n\
//!      Q(i, a, t) :- B(i, a, t), C(i, a), not L(i).",
//! )
//! .unwrap();
//! let query = program.single_query().unwrap();
//!
//! let report = feasible_detailed(query, &program.schema);
//! assert!(report.feasible);
//! assert_eq!(report.decided_by, DecisionPath::PlansCoincide);
//!
//! // Runtime: evaluate through pattern-enforcing sources.
//! let db = Database::from_facts(
//!     r#"B(1, "tolkien", "lotr"). C(1, "tolkien"). L(2)."#,
//! )
//! .unwrap();
//! let answer = answer_star(query, &program.schema, &db).unwrap();
//! assert!(answer.is_complete());
//! assert_eq!(answer.under.len(), 1);
//! ```

#![forbid(unsafe_code)]

pub mod daemon;
mod options;

pub use options::{execution_from_options, BadOption};

pub use lap_baselines as baselines;
pub use lap_constraints as constraints;
pub use lap_containment as containment;
pub use lap_core as core;
pub use lap_engine as engine;
pub use lap_ir as ir;
pub use lap_mediator as mediator;
pub use lap_obs as obs;
pub use lap_planner as planner;
pub use lap_proto as proto;
pub use lap_workload as workload;
