//! The one containment door as the root suites call it: each helper asks a
//! fresh default (sequential, uncached) `ContainmentEngine`, so a suite's
//! reference verdict never depends on a memo.

#![allow(dead_code)]

use lap::containment::ContainmentEngine;
use lap::ir::{ConjunctiveQuery, UnionQuery};

/// `P ⊑ Q`.
pub fn contained(p: &UnionQuery, q: &UnionQuery) -> bool {
    ContainmentEngine::default().contained(p, q)
}

/// `P ≡ Q`.
pub fn equivalent(p: &UnionQuery, q: &UnionQuery) -> bool {
    ContainmentEngine::default().equivalent(p, q)
}

/// A conjunctive query as a single-disjunct union, the engine's input.
pub fn single(q: &ConjunctiveQuery) -> UnionQuery {
    UnionQuery::single(q.clone())
}
