//! In-memory relations.

use crate::error::EngineError;
use crate::value::{Tuple, Value};
use std::collections::BTreeSet;

/// A set-semantics relation: a fixed arity and a sorted set of tuples.
///
/// `BTreeSet` keeps iteration deterministic (important for reproducible
/// experiment output) and makes membership tests logarithmic; relations in
/// this workload are small-to-medium simulated web-service extents, not
/// billion-row tables.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Relation {
    arity: usize,
    tuples: BTreeSet<Tuple>,
}

impl Relation {
    /// An empty relation of the given arity.
    pub fn new(arity: usize) -> Relation {
        Relation {
            arity,
            tuples: BTreeSet::new(),
        }
    }

    /// A relation of the given arity over `tuples` (duplicates collapse),
    /// built in one sort; every tuple must already have that arity.
    pub(crate) fn from_tuples(arity: usize, tuples: Vec<Tuple>) -> Relation {
        debug_assert!(tuples.iter().all(|t| t.len() == arity));
        Relation { arity, tuples: tuples.into_iter().collect() }
    }

    /// The relation's arity.
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// Inserts a tuple. Errors on arity mismatch; inserting a duplicate is
    /// a no-op (set semantics).
    pub fn insert(&mut self, tuple: Tuple) -> Result<(), EngineError> {
        if tuple.len() != self.arity {
            return Err(EngineError::ArityMismatch {
                expected: self.arity,
                found: tuple.len(),
            });
        }
        self.tuples.insert(tuple);
        Ok(())
    }

    /// Membership test.
    pub fn contains(&self, tuple: &[Value]) -> bool {
        // BTreeSet<Vec<Value>> lookups borrow as [Value].
        self.tuples.contains(tuple)
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True iff the relation holds no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Iterates over tuples in sorted order.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// All tuples matching the given partial binding: `selection[j]` is
    /// `Some(v)` to require position `j` to equal `v`.
    pub fn select<'a>(
        &'a self,
        selection: &'a [Option<Value>],
    ) -> impl Iterator<Item = &'a Tuple> + 'a {
        debug_assert_eq!(selection.len(), self.arity);
        self.tuples.iter().filter(move |t| {
            t.iter()
                .zip(selection.iter())
                .all(|(v, s)| s.is_none_or(|sv| sv == *v))
        })
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
