//! Runtime values and tuples.

use crate::physical::CodeHasher;
use lap_ir::{Constant, Symbol};
use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Deref, Range};
use std::sync::atomic::{AtomicBool, Ordering as AtomicOrdering};
use std::sync::{Arc, OnceLock};

/// A runtime value stored in a relation or returned by a source.
///
/// `Null` is the paper's special overestimate marker (Section 4.1): it
/// stands for "one or more unknown values may exist here". It compares
/// equal only to itself.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum Value {
    /// The unknown-value marker used in overestimate answers.
    Null,
    /// Integer value.
    Int(i64),
    /// String value (interned).
    Str(Symbol),
}

impl Value {
    /// String value from a `&str`.
    pub fn str(s: &str) -> Value {
        Value::Str(Symbol::intern(s))
    }

    /// Integer value.
    pub fn int(i: i64) -> Value {
        Value::Int(i)
    }

    /// True iff this is the null marker.
    pub fn is_null(self) -> bool {
        matches!(self, Value::Null)
    }
}

impl From<Constant> for Value {
    fn from(c: Constant) -> Value {
        match c {
            Constant::Int(i) => Value::Int(i),
            Constant::Str(s) => Value::Str(s),
        }
    }
}

impl PartialOrd for Value {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Value {
    /// Deterministic total order independent of interner state:
    /// `Null < Int(_) < Str(_)`, strings compared by content.
    fn cmp(&self, other: &Self) -> Ordering {
        use Value::*;
        match (self, other) {
            (Null, Null) => Ordering::Equal,
            (Null, _) => Ordering::Less,
            (_, Null) => Ordering::Greater,
            (Int(a), Int(b)) => a.cmp(b),
            (Int(_), Str(_)) => Ordering::Less,
            (Str(_), Int(_)) => Ordering::Greater,
            // One symbol per string: equal symbols skip the interner.
            (Str(a), Str(b)) if a == b => Ordering::Equal,
            (Str(a), Str(b)) => a.as_str().cmp(b.as_str()),
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Int(i) => write!(f, "{i}"),
            Value::Str(s) => write!(f, "{}", s.as_str()),
        }
    }
}

/// A tuple of values — one row of a relation or one answer.
pub type Tuple = Vec<Value>;

/// A shared, immutable block of rows — what one source call returns. The
/// transport builds a block once; every later holder (the call cache, a
/// duplicate key of the same batch, the operators) shares it by reference
/// count and reads it as a `&[Tuple]`.
pub type Rows = Arc<Block>;

// A block may be shared by sessions on other threads, index included.
const _: fn() = || {
    fn send_sync<T: Send + Sync>() {}
    send_sync::<Rows>();
};

/// The rows of one source reply, read as a `&[Tuple]` through `Deref`.
///
/// A block is a view: a contiguous range of a shared row store. An
/// in-memory relation's replies are ranges of the relation's own sorted
/// store (or of one permuted copy of it per input-slot set), so serving a
/// call copies no row; a wire, replay or fault transport builds a block
/// over rows of its own with `Block::from(Vec<Tuple>)`.
///
/// The block records at construction the width its rows share (`None`
/// when ragged or empty), so the registry checks a reply's arity in O(1).
/// It also answers a probe's verdict (`contains`): the first probe scans
/// — a block probed once (a replay reply, a scanning transport's fresh
/// block, a one-row bucket) costs what the scan did — and the second
/// builds an index once, the rows' hashes sorted beside their positions:
/// one allocation at any size. A verdict is then one hash and a binary
/// search. A matching hash is confirmed against the row, so a collision
/// never gives a wrong verdict, and rows crafted to collide cost at most
/// the scan the index replaced.
pub struct Block {
    store: Arc<Vec<Tuple>>,
    range: Range<usize>,
    width: Option<usize>,
    /// Set by the first probe, which scans instead of indexing. A hint
    /// that publishes no data (the `OnceLock` publishes the index), so
    /// `Relaxed` suffices.
    probed: AtomicBool,
    /// `(hash, position)` of every row, sorted; built by the second probe.
    index: OnceLock<Box<[(u64, usize)]>>,
}

impl Block {
    /// The rows `range` of `store`, every one of them `width` values long.
    pub(crate) fn view(store: &Arc<Vec<Tuple>>, range: Range<usize>, width: usize) -> Block {
        debug_assert!(store[range.clone()].iter().all(|row| row.len() == width));
        let width = (!range.is_empty()).then_some(width);
        Block::over(Arc::clone(store), range, width)
    }

    /// The rows `range` of `store`, of the shared length `width`, not yet
    /// probed.
    fn over(store: Arc<Vec<Tuple>>, range: Range<usize>, width: Option<usize>) -> Block {
        Block { store, range, width, probed: AtomicBool::new(false), index: OnceLock::new() }
    }

    /// The store this block is a range of.
    #[cfg(test)]
    pub(crate) fn store(&self) -> &Arc<Vec<Tuple>> {
        &self.store
    }

    /// The length every row shares; `None` for ragged rows or no rows.
    pub(crate) fn width(&self) -> Option<usize> {
        self.width
    }

    /// True iff some row equals `values`.
    pub(crate) fn contains(&self, values: &[Value]) -> bool {
        let rows: &[Tuple] = self;
        let index = match self.index.get() {
            Some(index) => index,
            None if !self.probed.swap(true, AtomicOrdering::Relaxed) => {
                return rows.iter().any(|row| row.as_slice() == values);
            }
            None => self.index.get_or_init(|| {
                let mut index: Vec<(u64, usize)> =
                    rows.iter().enumerate().map(|(i, row)| (row_hash(row), i)).collect();
                index.sort_unstable();
                index.into_boxed_slice()
            }),
        };
        let hash = row_hash(values);
        index[index.partition_point(|&(h, _)| h < hash)..]
            .iter()
            .take_while(|&&(h, _)| h == hash)
            .any(|&(_, i)| rows[i].as_slice() == values)
    }
}

/// The index key of one row.
fn row_hash(row: &[Value]) -> u64 {
    let mut hasher = CodeHasher::default();
    row.hash(&mut hasher);
    hasher.finish()
}

impl From<Vec<Tuple>> for Block {
    fn from(rows: Vec<Tuple>) -> Block {
        let width = rows.first().map(Vec::len).filter(|&w| rows.iter().all(|row| row.len() == w));
        let range = 0..rows.len();
        Block::over(Arc::new(rows), range, width)
    }
}

impl FromIterator<Tuple> for Block {
    fn from_iter<I: IntoIterator<Item = Tuple>>(rows: I) -> Block {
        Block::from(rows.into_iter().collect::<Vec<_>>())
    }
}

impl Deref for Block {
    type Target = [Tuple];

    fn deref(&self) -> &[Tuple] {
        &self.store[self.range.clone()]
    }
}

impl PartialEq for Block {
    fn eq(&self, other: &Block) -> bool {
        **self == **other
    }
}

impl Eq for Block {}

impl fmt::Debug for Block {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&**self, f)
    }
}

/// Renders a tuple as `(v1, v2, …)`, each value as its `Display` form.
pub fn display_tuple(t: &[Value]) -> String {
    use fmt::Write as _;
    let mut out = String::with_capacity(2 + 8 * t.len());
    out.push('(');
    for (i, v) in t.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(out, "{v}");
    }
    out.push(')');
    out
}

/// JSON encoding of one value for the flight-recorder journal. Integers
/// round-trip exactly while `|i| < 2^53` (the journal's `f64` number
/// space); engine values in this reproduction are far below that.
pub fn value_to_json(v: Value) -> lap_obs::Json {
    match v {
        Value::Null => lap_obs::Json::Null,
        Value::Int(i) => lap_obs::Json::Num(i as f64),
        Value::Str(s) => lap_obs::Json::Str(s.as_str().to_owned()),
    }
}

/// Inverse of [`value_to_json`].
pub fn value_from_json(j: &lap_obs::Json) -> Result<Value, String> {
    match j {
        lap_obs::Json::Null => Ok(Value::Null),
        lap_obs::Json::Num(n) if n.fract() == 0.0 && n.abs() < 9.0e15 => {
            Ok(Value::Int(*n as i64))
        }
        lap_obs::Json::Num(n) => Err(format!("non-integer journal value {n}")),
        lap_obs::Json::Str(s) => Ok(Value::str(s)),
        other => Err(format!("unsupported journal value {other:?}")),
    }
}

/// JSON encoding of a row set for the flight-recorder journal.
pub fn rows_to_json(rows: &[Tuple]) -> lap_obs::Json {
    lap_obs::Json::Arr(
        rows.iter()
            .map(|row| lap_obs::Json::Arr(row.iter().map(|&v| value_to_json(v)).collect()))
            .collect(),
    )
}

/// Inverse of [`rows_to_json`].
pub fn rows_from_json(j: &lap_obs::Json) -> Result<Vec<Tuple>, String> {
    j.as_arr()
        .ok_or("journal rows are not an array")?
        .iter()
        .map(|row| {
            row.as_arr()
                .ok_or_else(|| "journal row is not an array".to_owned())?
                .iter()
                .map(value_from_json)
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_equals_only_itself() {
        assert_eq!(Value::Null, Value::Null);
        assert_ne!(Value::Null, Value::Int(0));
        assert_ne!(Value::Null, Value::str(""));
    }

    #[test]
    fn ordering_is_by_content_for_strings() {
        // Intern in reverse lexicographic order to catch index-based cmp.
        let b = Value::str("zzz_order");
        let a = Value::str("aaa_order");
        assert!(a < b);
    }

    #[test]
    fn null_sorts_first() {
        let mut vals = [Value::Int(1), Value::str("a"), Value::Null];
        vals.sort();
        assert_eq!(vals[0], Value::Null);
        assert_eq!(vals[1], Value::Int(1));
    }

    #[test]
    fn from_constant() {
        assert_eq!(Value::from(Constant::int(3)), Value::Int(3));
        assert_eq!(Value::from(Constant::str("x")), Value::str("x"));
    }

    #[test]
    fn display() {
        assert_eq!(Value::Null.to_string(), "null");
        assert_eq!(display_tuple(&[Value::Int(1), Value::Null]), "(1, null)");
    }

    /// The bytes `lapq run` prints for an answer, pinned: values are not
    /// quoted or escaped, so a string may hold the separator, a paren, a
    /// quote or an invisible character and is written as it is.
    #[test]
    fn display_tuple_bytes_are_pinned() {
        let t = [
            Value::Null,
            Value::Int(-7),
            Value::Int(i64::MIN),
            Value::str("a, b"),
            Value::str("x)\"y\u{200b}"),
            Value::str(""),
        ];
        assert_eq!(display_tuple(&t), "(null, -7, -9223372036854775808, a, b, x)\"y\u{200b}, )");
        assert_eq!(display_tuple(&[]), "()");
        assert_eq!(display_tuple(&[Value::Int(0)]), "(0)");
    }

    #[test]
    fn json_round_trip() {
        let rows = vec![
            vec![Value::Int(-42), Value::str("x \"y\""), Value::Null],
            vec![Value::Int(i64::from(i32::MAX))],
        ];
        let doc = rows_to_json(&rows);
        assert_eq!(rows_from_json(&doc).unwrap(), rows);
        // Survives the actual JSON writer/parser too.
        let reparsed = lap_obs::json::parse(&doc.to_compact()).unwrap();
        assert_eq!(rows_from_json(&reparsed).unwrap(), rows);
        assert!(value_from_json(&lap_obs::Json::Num(0.5)).is_err());
        assert!(value_from_json(&lap_obs::Json::Bool(true)).is_err());
    }
}
