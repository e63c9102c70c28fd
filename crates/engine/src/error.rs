//! Engine error type.

use lap_ir::AccessPattern;
use std::error::Error;
use std::fmt;

/// Errors raised by the relational engine and its source adapters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// A tuple's length did not match the relation's arity.
    ArityMismatch {
        /// Declared arity.
        expected: usize,
        /// Offending tuple length.
        found: usize,
    },
    /// A referenced relation does not exist in the database or schema.
    UnknownRelation(String),
    /// A source call used an access pattern the relation does not expose.
    PatternNotAvailable {
        /// Relation name.
        relation: String,
        /// The pattern that was requested.
        requested: AccessPattern,
    },
    /// A source call failed to supply a value for an input slot.
    MissingInput {
        /// Relation name.
        relation: String,
        /// The pattern used.
        pattern: AccessPattern,
        /// 0-based input slot with no value.
        position: usize,
    },
    /// A plan step was not executable: a positive literal had unbound
    /// variables in every available pattern's input slots.
    NotExecutable {
        /// Rendering of the offending literal.
        literal: String,
        /// Why execution was impossible.
        reason: String,
    },
    /// A negated literal was reached while some of its variables were still
    /// unbound (negation can only filter, never bind — paper, Example 1).
    UnboundNegation {
        /// Rendering of the offending literal.
        literal: String,
    },
    /// Domain enumeration exceeded its call budget.
    BudgetExhausted {
        /// The budget that was exceeded (number of source calls).
        budget: u64,
    },
    /// A ground fact was expected (e.g. when loading a database from text).
    NotGround(String),
    /// A source call kept faulting until its retry budget (attempts or
    /// per-query deadline) ran out. Degraded evaluation modes catch this
    /// variant and drop the affected disjunct instead of aborting.
    SourceUnavailable {
        /// Relation whose source gave up.
        relation: String,
        /// Attempts made, including the first.
        attempts: u32,
        /// The terminal fault, rendered.
        reason: String,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::ArityMismatch { expected, found } => {
                write!(f, "arity mismatch: expected {expected}, found {found}")
            }
            EngineError::UnknownRelation(r) => write!(f, "unknown relation {r}"),
            EngineError::PatternNotAvailable { relation, requested } => {
                write!(f, "relation {relation} does not expose pattern {requested}")
            }
            EngineError::MissingInput {
                relation,
                pattern,
                position,
            } => write!(
                f,
                "call to {relation}^{pattern} lacks a value for input slot {position}"
            ),
            EngineError::NotExecutable { literal, reason } => {
                write!(f, "literal {literal} is not executable here: {reason}")
            }
            EngineError::UnboundNegation { literal } => {
                write!(f, "negated literal {literal} reached with unbound variables")
            }
            EngineError::BudgetExhausted { budget } => {
                write!(f, "domain enumeration exceeded its budget of {budget} source calls")
            }
            EngineError::NotGround(s) => write!(f, "expected a ground fact, found {s}"),
            EngineError::SourceUnavailable { relation, attempts, reason } => write!(
                f,
                "source {relation} unavailable after {attempts} attempt(s): {reason}"
            ),
        }
    }
}

impl Error for EngineError {}

/// A facts text that does not read as ground facts.
impl From<lap_ir::IrError> for EngineError {
    fn from(e: lap_ir::IrError) -> EngineError {
        EngineError::NotGround(e.to_string())
    }
}
