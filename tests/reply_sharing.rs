//! A source call must not copy the relation: replies are shared row
//! blocks, so what a call allocates may depend on the query but not on how
//! many rows the answer holds, and the in-memory transport's own part of a
//! call allocates nothing. Pinned by counting allocations — a count
//! repeats exactly where a clock does not.

use lap::engine::{Database, InMemorySource, Source, SourceRegistry, Value};
use lap::ir::{AccessPattern, Schema, Symbol};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Heap blocks this thread has allocated. Per thread, so the harness
    /// running the tests of this file side by side cannot disturb a count.
    static BLOCKS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the only addition is a counter bump on a
// const-initialised, destructor-free thread-local, which neither allocates
// nor unwinds (`try_with` covers a thread that is being torn down).
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = BLOCKS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's obligations on `layout` are `System`'s.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAllocator = CountingAllocator;

/// Heap blocks `work` allocates on this thread.
fn blocks_allocated(work: impl FnOnce()) -> u64 {
    let before = BLOCKS.with(Cell::get);
    work();
    BLOCKS.with(Cell::get) - before
}

/// Allocations of 1,000 `request`s against `R(i, i mod 7)`, `i < rows`,
/// declared with `patterns`. One request runs first, uncounted: it builds
/// the transport's index, which does grow with the relation.
fn blocks_per_thousand(
    rows: i64,
    patterns: &[&str],
    request: impl Fn(&mut SourceRegistry<'_>, i64),
) -> u64 {
    let mut db = Database::new();
    for i in 0..rows {
        db.insert("R", vec![Value::int(i), Value::int(i % 7)])
            .unwrap();
    }
    let declared: Vec<(&str, &str)> = patterns.iter().map(|&p| ("R", p)).collect();
    let schema = Schema::from_patterns(&declared).unwrap();
    let mut reg = SourceRegistry::new(&db, &schema);
    request(&mut reg, 0);
    blocks_allocated(|| {
        for i in 0..1000 {
            request(&mut reg, i);
        }
    })
}

#[test]
fn probing_an_all_output_relation_allocates_the_same_at_any_size() {
    // Under `R^oo` alone every probe is a free scan of `R`.
    let probes = |rows: i64| {
        blocks_per_thousand(rows, &["oo"], |reg, i| {
            let tuple = [Value::int(i), Value::int(i % 7)];
            let present = reg.membership_test(Symbol::intern("R"), &tuple).unwrap();
            assert_eq!(present, i < rows);
            assert_eq!(
                reg.stats().tuples_returned,
                reg.membership_probes() * rows as u64
            );
        })
    };
    assert_eq!(probes(50), probes(5000));
}

#[test]
fn repeated_indexed_calls_allocate_the_same_at_any_size() {
    let keyed = |rows: i64| {
        blocks_per_thousand(rows, &["oi"], |reg, _| {
            let by_second = AccessPattern::parse("oi").unwrap();
            let inputs = [None, Some(Value::int(3))];
            let reply = reg.call(Symbol::intern("R"), by_second, &inputs).unwrap();
            assert_eq!(reply.len() as i64, (rows + 3) / 7);
        })
    };
    assert_eq!(keyed(50), keyed(5000));
    let scan = |rows: i64| {
        blocks_per_thousand(rows, &["oo"], |reg, _| {
            let free = AccessPattern::parse("oo").unwrap();
            let reply = reg.call(Symbol::intern("R"), free, &[None, None]).unwrap();
            assert_eq!(reply.len() as i64, rows);
        })
    };
    assert_eq!(scan(50), scan(5000));
}

/// A registry call borrows its inputs: past the transport, which
/// allocates nothing, an indexed call allocates one block, the one-reply
/// list of its one-key batch.
#[test]
fn an_indexed_registry_call_allocates_one_block() {
    let by_first = AccessPattern::parse("io").unwrap();
    let blocks = blocks_per_thousand(500, &["io"], |reg, i| {
        let inputs = [Some(Value::int(i % 500)), None];
        let reply = reg.call(Symbol::intern("R"), by_first, &inputs).unwrap();
        assert_eq!(reply.len(), 1);
    });
    assert_eq!(blocks, 1000);
}

/// Once an index is built, an in-memory call allocates nothing: its key
/// is assembled on the stack, a hit is a view of the relation's store (or
/// of the index's one permuted copy), and every miss shares one empty
/// block. Scans, leading-column keys, other keys and misses alike.
#[test]
fn an_in_memory_call_allocates_nothing() {
    let mut db = Database::new();
    for i in 0..500 {
        db.insert("R", vec![Value::int(i), Value::int(i % 7)]).unwrap();
    }
    let r = Symbol::intern("R");
    let pattern = |p: &str| AccessPattern::parse(p).unwrap();
    let (oo, io, oi) = (pattern("oo"), pattern("io"), pattern("oi"));
    let mut source = InMemorySource::new(&db);
    let calls = |source: &mut InMemorySource<'_>, i: i64| {
        let key = |v: i64| Some(Value::int(v));
        for (pattern, inputs) in [
            (oo, [None, None]),
            (io, [key(i % 600), None]),
            (oi, [None, key(i % 9)]),
        ] {
            std::hint::black_box(source.fetch(r, pattern, &inputs).unwrap());
        }
    };
    // The first calls build the two indexes and the shared empty block.
    calls(&mut source, 599);
    calls(&mut source, 8);
    assert_eq!(blocks_allocated(|| (0..1000).for_each(|i| calls(&mut source, i))), 0);
}
