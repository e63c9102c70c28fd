//! In-memory relations.

use crate::error::EngineError;
use crate::value::{Block, Rows, Tuple, Value};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A set-semantics relation: a fixed arity and its tuples, sorted and
/// deduplicated in one shared store.
///
/// The store is sorted in [`Value`]'s order (strings by content), so
/// iteration — and every reply's row order — is deterministic whatever
/// order the tuples arrived in. Replies share the store instead of copying
/// it: the in-memory transport answers a scan with one block over the
/// whole store, and a call whose input slots are the leading columns with
/// a range of it, since rows that agree on a prefix are adjacent.
/// Membership is a binary search.
#[derive(Clone)]
pub struct Relation {
    arity: usize,
    rows: Arc<Vec<Tuple>>,
    /// The whole store as one reply block, built by the first scan, so
    /// every registry over this relation probes one indexed block.
    scan: OnceLock<Rows>,
}

impl Relation {
    /// An empty relation of the given arity.
    pub fn new(arity: usize) -> Relation {
        Relation::from_tuples(arity, Vec::new())
    }

    /// A relation of the given arity over `tuples` (duplicates collapse),
    /// built in one sort; every tuple must already have that arity.
    pub(crate) fn from_tuples(arity: usize, mut tuples: Vec<Tuple>) -> Relation {
        debug_assert!(tuples.iter().all(|t| t.len() == arity));
        tuples.sort_unstable();
        tuples.dedup();
        Relation { arity, rows: Arc::new(tuples), scan: OnceLock::new() }
    }

    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Inserts a tuple at its place in the order. Errors on arity
    /// mismatch; inserting a duplicate is a no-op (set semantics).
    pub fn insert(&mut self, tuple: Tuple) -> Result<(), EngineError> {
        if tuple.len() != self.arity {
            return Err(EngineError::ArityMismatch {
                expected: self.arity,
                found: tuple.len(),
            });
        }
        if let Err(pos) = self.rows.binary_search(&tuple) {
            // The scan block shares the store: drop it first, so the store
            // is copied only if a reply still holds it.
            self.scan.take();
            Arc::make_mut(&mut self.rows).insert(pos, tuple);
        }
        Ok(())
    }

    /// Membership test.
    pub fn contains(&self, tuple: &[Value]) -> bool {
        self.rows.binary_search_by(|row| row.as_slice().cmp(tuple)).is_ok()
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True iff the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterates over tuples in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.rows.iter()
    }

    /// The sorted store every reply block of this relation is a view of
    /// (or, for a permuted index, a copy of).
    pub(crate) fn store(&self) -> &Arc<Vec<Tuple>> {
        &self.rows
    }

    /// The whole relation as one shared reply block.
    pub(crate) fn scan(&self) -> &Rows {
        self.scan.get_or_init(|| Rows::new(Block::view(&self.rows, 0..self.rows.len(), self.arity)))
    }

    /// All tuples matching the given partial binding: `selection[j]` is
    /// `Some(v)` to require position `j` to equal `v`.
    pub fn select<'a>(
        &'a self,
        selection: &'a [Option<Value>],
    ) -> impl Iterator<Item = &'a Tuple> + 'a {
        debug_assert_eq!(selection.len(), self.arity);
        self.rows.iter().filter(move |t| {
            t.iter()
                .zip(selection.iter())
                .all(|(v, s)| s.is_none_or(|sv| sv == *v))
        })
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Relation) -> bool {
        self.arity == other.arity && self.rows == other.rows
    }
}

impl Eq for Relation {}

impl fmt::Debug for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Relation").field("arity", &self.arity).field("rows", &self.rows).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel() -> Relation {
        let mut r = Relation::new(2);
        r.insert(vec![Value::int(1), Value::str("a")]).unwrap();
        r.insert(vec![Value::int(1), Value::str("b")]).unwrap();
        r.insert(vec![Value::int(2), Value::str("a")]).unwrap();
        r
    }

    #[test]
    fn set_semantics() {
        let mut r = rel();
        assert_eq!(r.len(), 3);
        r.insert(vec![Value::int(1), Value::str("a")]).unwrap();
        assert_eq!(r.len(), 3);
    }

    #[test]
    fn arity_enforced() {
        let mut r = Relation::new(2);
        assert!(matches!(
            r.insert(vec![Value::int(1)]),
            Err(EngineError::ArityMismatch { expected: 2, found: 1 })
        ));
    }

    #[test]
    fn selection() {
        let r = rel();
        let sel = [Some(Value::int(1)), None];
        assert_eq!(r.select(&sel).count(), 2);
        let sel = [None, Some(Value::str("a"))];
        assert_eq!(r.select(&sel).count(), 2);
        let sel = [Some(Value::int(2)), Some(Value::str("a"))];
        assert_eq!(r.select(&sel).count(), 1);
        let sel = [Some(Value::int(9)), None];
        assert_eq!(r.select(&sel).count(), 0);
    }

    #[test]
    fn contains() {
        let r = rel();
        assert!(r.contains(&[Value::int(1), Value::str("b")]));
        assert!(!r.contains(&[Value::int(3), Value::str("b")]));
    }

    #[test]
    fn iteration_is_sorted() {
        let r = rel();
        let rows: Vec<_> = r.iter().cloned().collect();
        let mut sorted = rows.clone();
        sorted.sort();
        assert_eq!(rows, sorted);
    }
}
