//! In-memory relational engine with access-pattern-enforcing sources.
//!
//! This crate is the *runtime substrate* of the reproduction: it plays the
//! role of the distributed web-service sources that the paper's mediator
//! (the BIRN system, \[GLM03\]) talks to. The pieces:
//!
//! * [`Value`], [`Tuple`], [`Relation`], [`Database`] — a small set-semantics
//!   store with deterministic iteration.
//! * [`SourceRegistry`] — the only read path: calls must name a declared
//!   access pattern and supply every input slot (Definition 1), and the
//!   registry counts calls and transferred tuples.
//! * [`physical`] — the physical plan IR ([`PhysicalPlan`], [`PhysOp`]),
//!   the lowering pass that picks access patterns at plan time, and the
//!   batched pull-based executor with in-batch source-call dedup.
//! * [`eval_ordered_union`] — left-to-right execution of executable plans,
//!   with negation-as-filter and `null` head values for overestimate plans;
//!   a thin wrapper over the physical executor (the tuple-at-a-time
//!   reference survives as [`eval_ordered_union_tuple`]).
//! * [`eval_oracle`] — the unrestricted `ANSWER(Q, D)` ground truth.
//! * [`enumerate_domain`] — `dom(x)` views (Example 8) under a call budget.
//!
//! ```
//! use lap_engine::{Database, SourceRegistry, eval_ordered_union};
//! use lap_ir::{parse_cq, Schema};
//!
//! let db = Database::from_facts(r#"C(1, "adams"). B(1, "adams", "hhgttg")."#).unwrap();
//! let schema = Schema::from_patterns(&[("B", "ioo"), ("C", "oo")]).unwrap();
//! let mut sources = SourceRegistry::new(&db, &schema);
//! let plan = parse_cq("Q(t) :- C(i, a), B(i, a, t).").unwrap();
//! let answers = eval_ordered_union(&[(plan, vec![])], &mut sources).unwrap();
//! assert_eq!(answers.len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod domain;
mod error;
mod eval;
mod fault;
mod instance;
mod oracle;
pub mod physical;
mod relation;
mod replay;
mod source;
mod stats;
mod value;

pub use domain::{enumerate_domain, DomainResult};
pub use error::EngineError;
pub use eval::{eval_ordered_union, eval_ordered_union_tuple};
pub use fault::{
    FaultConfig, FaultInjectingSource, ResilienceConfig, RetryPolicy, SourceFault, SourceReply,
};
pub use physical::{
    execute_physical_union, execute_physical_union_with, lower_cq, lower_union, AccessOp,
    AccessProblem, ArgSource, Code, ColumnBatch, Dictionary, DisjunctDegradation, ExecConfig,
    NegOp, OnUnavailable, OpProfile, PhysOp, PhysicalPlan, PhysicalUnion, PlanProfile,
    ProjCol, ProjectOp, UnionProfile, UnionRun, MAX_BATCH_WIDTH,
};
pub use instance::Database;
pub use oracle::{eval_oracle, eval_oracle_single};
pub use relation::Relation;
pub use replay::{recorded_calls, RecordedCall, ReplaySource};
pub use source::{InMemorySource, Source, SourceRegistry, MAX_IO_WORKERS};
pub use stats::CallStats;
pub use value::{
    display_tuple, rows_from_json, rows_to_json, value_from_json, value_to_json, Block, Rows,
    Tuple, Value,
};
