//! The physical plan IR: operator nodes with binding schemas. Estimates
//! are not part of it: the planner computes them from a plan when a
//! printer asks (`lap_planner::op_costs`).

use crate::value::Value;
use lap_ir::{AccessPattern, Atom, Symbol, Var};

/// Where one operator argument position reads its value from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ArgSource {
    /// A constant from the query text.
    Const(Value),
    /// The binding slot holding the argument variable's value.
    Slot(usize),
}

/// Why lowering could not choose an access pattern for a positive literal.
/// The operator raises the matching error when a non-empty batch reaches
/// it (never at plan time — see the module docs).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AccessProblem {
    /// The relation is not declared in the schema.
    UnknownRelation,
    /// No declared pattern has all its input slots bound at this point of
    /// the pipeline; the payload lists the positions that *are* bound.
    NoUsablePattern {
        /// Argument positions bound by earlier operators (or constants).
        bound_positions: Vec<usize>,
    },
}

/// A source-calling operator: [`PhysOp::Access`] when it is the leaf of the
/// pipeline (driven by the single unit binding), [`PhysOp::BindJoin`] when
/// it joins each incoming binding against the source.
#[derive(Clone, Debug, PartialEq)]
pub struct AccessOp {
    /// The relation being called.
    pub relation: Symbol,
    /// The access pattern chosen at lowering time (the most selective
    /// usable one, as the legacy evaluator chose per tuple).
    pub pattern: Option<AccessPattern>,
    /// Set iff `pattern` is `None`: the error to raise when reached.
    pub problem: Option<AccessProblem>,
    /// One entry per argument position of the atom.
    pub args: Vec<ArgSource>,
    /// The literal rendered with its pattern adornment when chosen
    /// (`B^ioo(i, a, t)`), plain otherwise.
    pub literal: String,
    /// The binding schema after this operator: variables bound so far, in
    /// slot order.
    pub bound_after: Vec<Var>,
}

/// A negated literal acting as a membership filter: it "can only filter
/// out answers, but cannot produce any new variable bindings" (Example 1).
#[derive(Clone, Debug, PartialEq)]
pub struct NegOp {
    /// The relation probed.
    pub relation: Symbol,
    /// One entry per argument position of the atom.
    pub args: Vec<ArgSource>,
    /// Variables of the literal not bound by earlier operators. Non-empty
    /// means the operator raises `UnboundNegation` when reached.
    pub unbound: Vec<Var>,
    /// The literal rendered plain (`not L(i)` — membership probes have no
    /// single adornment).
    pub literal: String,
    /// The binding schema after this operator (same as before it).
    pub bound_after: Vec<Var>,
}

/// One head column of a [`ProjectOp`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum ProjCol {
    /// A constant in the head.
    Const(Value),
    /// A head variable bound by the body: read its slot.
    Slot(usize),
    /// A head variable declared null (overestimate plans' `x = null`).
    Null,
    /// A head variable neither bound nor declared null: raising an error
    /// when a binding reaches the projection.
    Unbound(Var),
}

/// The root of every pipeline: projects surviving bindings onto the head,
/// emitting [`Value::Null`] for declared null variables.
#[derive(Clone, Debug, PartialEq)]
pub struct ProjectOp {
    /// The head atom, rendered (`Q(i, a, t)`).
    pub head: String,
    /// One entry per head argument position.
    pub cols: Vec<ProjCol>,
}

/// One operator of a physical pipeline.
#[derive(Clone, Debug, PartialEq)]
pub enum PhysOp {
    /// Leaf source call (no incoming bindings beyond the unit binding).
    Access(AccessOp),
    /// Source call joined against each incoming binding.
    BindJoin(AccessOp),
    /// Negation as a batched membership filter.
    NegFilter(NegOp),
    /// Head projection (always the last operator).
    Project(ProjectOp),
}

impl PhysOp {
    /// The operator kind, as printed.
    pub fn kind(&self) -> &'static str {
        match self {
            PhysOp::Access(_) => "Access",
            PhysOp::BindJoin(_) => "BindJoin",
            PhysOp::NegFilter(_) => "NegFilter",
            PhysOp::Project(_) => "Project",
        }
    }

    /// `"<kind> <literal>"`, e.g. `BindJoin B^ioo(i, a, t)`.
    pub fn label(&self) -> String {
        match self {
            PhysOp::Access(a) | PhysOp::BindJoin(a) => format!("{} {}", self.kind(), a.literal),
            PhysOp::NegFilter(n) => format!("{} {}", self.kind(), n.literal),
            PhysOp::Project(p) => format!("{} {}", self.kind(), p.head),
        }
    }

    /// The binding schema after this operator (bound variables in slot
    /// order; the projection reports no bindings).
    pub fn bound_after(&self) -> &[Var] {
        match self {
            PhysOp::Access(a) | PhysOp::BindJoin(a) => &a.bound_after,
            PhysOp::NegFilter(n) => &n.bound_after,
            PhysOp::Project(_) => &[],
        }
    }
}

/// One disjunct lowered to a pipeline of operators. `ops` is in pipeline
/// (execution) order: sources first, [`PhysOp::Project`] always last.
#[derive(Clone, Debug, PartialEq)]
pub struct PhysicalPlan {
    /// The head atom.
    pub head: Atom,
    /// The slot table: slot `i` holds the value of variable `slots[i]`.
    pub slots: Vec<Var>,
    /// The operators, in pipeline order, ending with the projection.
    pub ops: Vec<PhysOp>,
}

/// A union of physical pipelines, sharing a head. `head` is `None` only
/// for unions lowered from an empty part list with no known head.
#[derive(Clone, Debug, PartialEq)]
pub struct PhysicalUnion {
    /// The shared head atom, when known.
    pub head: Option<Atom>,
    /// The disjunct pipelines.
    pub parts: Vec<PhysicalPlan>,
}

impl PhysicalUnion {
    /// True iff the union has no disjuncts (the plan `false`).
    pub fn is_false(&self) -> bool {
        self.parts.is_empty()
    }
}
