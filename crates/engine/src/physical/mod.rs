//! Physical plans: an explicit operator tree between PLAN\* output and the
//! sources.
//!
//! The paper treats an executable query *as* its plan ("execute each rule
//! separately … from left to right", Section 3), and for a long time this
//! repo did too: `(ConjunctiveQuery, Vec<Var>)` pairs interpreted by a
//! recursive tuple-at-a-time evaluator. This module materializes the plan
//! as data instead:
//!
//! * [`PhysicalPlan`] — one disjunct lowered to a pipeline of operators
//!   ([`PhysOp::Access`], [`PhysOp::BindJoin`], [`PhysOp::NegFilter`],
//!   [`PhysOp::Project`]), each carrying its binding schema;
//! * [`PhysicalUnion`] — the union over disjunct pipelines;
//! * [`lower_cq`] / [`lower_union`] — the lowering pass, which picks each
//!   literal's access pattern *at plan time* (boundness at a literal is
//!   fully determined by the literals before it, so the per-tuple choice
//!   the old evaluator made was always the same choice);
//! * [`execute_physical_union_with`] (and its rows-only preset
//!   [`execute_physical_union`]) — a batched pull-based executor that flows
//!   batches of bindings through each pipeline and deduplicates repeated
//!   source calls within a batch.
//!
//! Lowering never fails: a literal with no usable pattern (or an unknown
//! relation, or an unbound negation) lowers to an operator that raises the
//! corresponding [`crate::EngineError`] **when a non-empty batch reaches
//! it** — exactly the legacy evaluator's "error only when reached"
//! semantics, on which ANSWER\* relies (a broken literal behind an empty
//! prefix contributes an empty disjunct, not a failure).

mod column;
mod exec;
mod lower;
mod plan;

pub use column::{CodeHasher, CodeMap, CodeSet, ColumnBatch};
pub use exec::{
    execute_physical_union, execute_physical_union_with, DisjunctDegradation, ExecConfig, OnUnavailable, OpProfile, PlanProfile, UnionProfile,
    UnionRun, MAX_BATCH_WIDTH,
};
pub use lower::{lower_cq, lower_union};
pub use plan::{
    AccessOp, AccessProblem, ArgSource, NegOp, PhysOp, PhysicalPlan, PhysicalUnion,
    ProjCol, ProjectOp,
};
