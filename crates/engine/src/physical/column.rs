//! Columnar batches: the data layout of the vectorized executor.
//!
//! A [`ColumnBatch`] stores bindings column-wise — one [`Value`] buffer
//! per *bound* plan slot — instead of the row executor's
//! `Vec<Option<Value>>` per binding. A `Value` is a 16-byte `Copy` type
//! whose strings are interned [`Symbol`](lap_ir::Symbol)s, so equality
//! and hashing on it are already word-sized: joins, membership memos and
//! answer dedup run on the values the sources returned, and the answers
//! are those values. Two ideas carry the design:
//!
//! * **Uniform boundness.** Boundness at an operator is decided at plan
//!   time, so *every* row of a batch has the same bound slot set: a slot's
//!   column is either present for all rows or absent for all rows — no
//!   per-cell `Option`.
//! * **Selection vectors.** Filters ([`super::PhysOp::NegFilter`], bound-
//!   output checks in a bind join) never move column data; they shrink the
//!   batch's selection vector — the ascending list of live row indices —
//!   and dead rows ride along untouched until the next operator densifies
//!   its output. Column buffers and selection vectors are `Rc`-shared, so
//!   splitting a batch at a width boundary is O(columns), not O(rows).
//!
//! Batches are deliberately *not* `Send`: a pipeline is single-threaded
//! (overlapped I/O is lanes on the virtual clock, and its source calls
//! run on the pipeline's own thread), so the sharing is plain `Rc`.

use crate::value::Value;
use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};
use std::rc::Rc;

/// Multiply-xor hasher for the engine's small fixed-width keys: [`Value`]s,
/// short value slices and interned ids. The standard library's SipHash
/// defends against adversarial key collisions; these maps are probed once
/// per row, where the SipHash setup cost dominates the lookup, and their
/// keys hash as a few machine words (an integer, a symbol id, a tag), so
/// the cheap mix is what they get.
#[derive(Default)]
pub struct CodeHasher(u64);

impl CodeHasher {
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl Hasher for CodeHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.mix(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.mix(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.mix(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.mix(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.mix(n as u64);
    }
}

/// A hash map keyed by values, value slices or ids, using [`CodeHasher`].
pub type CodeMap<K, V> = HashMap<K, V, BuildHasherDefault<CodeHasher>>;

/// A hash set of value keys, using [`CodeHasher`].
pub type CodeSet<K> = HashSet<K, BuildHasherDefault<CodeHasher>>;

/// One batch of bindings in columnar layout: per-slot value buffers plus a
/// selection-vector window over them. See the module docs for the layout
/// invariants.
#[derive(Clone, Debug)]
pub struct ColumnBatch {
    /// One entry per plan slot: `Some` iff the slot is bound at this point
    /// of the pipeline (uniformly, for every row of the batch).
    cols: Vec<Option<Rc<Vec<Value>>>>,
    /// Ascending live row indices into the column buffers.
    sel: Rc<Vec<u32>>,
    /// The live window: `sel[start..end]` are this batch's rows.
    start: usize,
    end: usize,
}

impl ColumnBatch {
    /// The single unit batch feeding a pipeline leaf: one live row, no
    /// bound slots (the columnar analogue of `vec![None; slots]`).
    pub fn unit(num_slots: usize) -> ColumnBatch {
        ColumnBatch {
            cols: vec![None; num_slots],
            sel: Rc::new(vec![0]),
            start: 0,
            end: 1,
        }
    }

    /// A dense batch: `len` rows, identity selection, columns as built.
    /// Every `Some` column must hold exactly `len` values.
    pub fn dense(cols: Vec<Option<Vec<Value>>>, len: usize) -> ColumnBatch {
        debug_assert!(cols
            .iter()
            .all(|c| c.as_ref().is_none_or(|c| c.len() == len)));
        ColumnBatch {
            cols: cols.into_iter().map(|c| c.map(Rc::new)).collect(),
            sel: Rc::new((0..len as u32).collect()),
            start: 0,
            end: len,
        }
    }

    /// Live rows in this batch.
    pub fn live(&self) -> usize {
        self.end - self.start
    }

    /// Dead rows this batch still carries: the physical span its selection
    /// window covers, minus the live rows. Zero for dense batches; after a
    /// filter it approximates how many killed rows ride along unswept.
    pub fn dead(&self) -> usize {
        if self.live() == 0 {
            return 0;
        }
        let span = (self.sel[self.end - 1] - self.sel[self.start]) as usize + 1;
        span - self.live()
    }

    /// The live row indices, in order.
    pub fn rows(&self) -> &[u32] {
        &self.sel[self.start..self.end]
    }

    /// The value buffer of a bound slot (`None` while unbound). Indices in
    /// [`ColumnBatch::rows`] address this buffer.
    pub fn col(&self, slot: usize) -> Option<&[Value]> {
        self.cols[slot].as_deref().map(|v| v.as_slice())
    }

    /// True iff `slot` is bound in this batch.
    pub fn is_bound(&self, slot: usize) -> bool {
        self.cols[slot].is_some()
    }

    /// Splits off the first `n` live rows as their own batch (sharing the
    /// column buffers), leaving the remainder in `self`. `n` must be
    /// `< live()`.
    pub fn split_front(&mut self, n: usize) -> ColumnBatch {
        debug_assert!(n < self.live());
        let front = ColumnBatch {
            cols: self.cols.clone(),
            sel: Rc::clone(&self.sel),
            start: self.start,
            end: self.start + n,
        };
        self.start += n;
        front
    }

    /// The same batch narrowed to a new selection (absolute row indices
    /// into the column buffers, ascending — the survivors of a filter).
    /// Column data is shared, not copied.
    pub fn with_selection(&self, survivors: Vec<u32>) -> ColumnBatch {
        let end = survivors.len();
        ColumnBatch {
            cols: self.cols.clone(),
            sel: Rc::new(survivors),
            start: 0,
            end,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unit_batch_has_one_unbound_row() {
        let b = ColumnBatch::unit(3);
        assert_eq!(b.live(), 1);
        assert_eq!(b.dead(), 0);
        assert!(!b.is_bound(0));
        assert_eq!(b.rows(), &[0]);
    }

    #[test]
    fn split_and_selection_share_columns() {
        let col = [10, 11, 12, 13].map(Value::int).to_vec();
        let mut b = ColumnBatch::dense(vec![Some(col), None], 4);
        let front = b.split_front(1);
        assert_eq!(front.live(), 1);
        assert_eq!(b.live(), 3);
        assert_eq!(front.rows(), &[0]);
        assert_eq!(b.rows(), &[1, 2, 3]);
        // A filter that keeps rows 1 and 3: no column data moves.
        let filtered = b.with_selection(vec![1, 3]);
        assert_eq!(filtered.live(), 2);
        assert_eq!(filtered.dead(), 1);
        assert_eq!(filtered.col(0).unwrap()[3], Value::int(13));
    }
}
