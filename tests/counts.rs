//! Exact counts on the answer path, which need no wall clock: what a
//! `stream_big`-shaped source (two mirrors' 40 000-row relation, a
//! three-year window, four shipped columns) costs per batch in heap
//! allocations, as a counting global allocator sees them.
//!
//! - `SourceStream::pull` allocates one selection per batch, sized for
//!   the batch up front: 1, not an allocation and four reallocations.
//! - `TupleBatch::write_rows` into a buffer with room allocates nothing:
//!   the column prefixes are the schema's, built for its first batch.
//!
//! The allocator counts per thread, so tests running beside these on
//! other threads do not move them.

use csqp::expr::parse::parse_condition;
use csqp::relation::{datagen, TupleBatch};
use csqp::source::{CostParams, Source};
use csqp::ssdl::parse_ssdl;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::BTreeSet;

struct CountingAlloc;

thread_local! {
    /// Allocations and reallocations made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    // `try_with`: a thread that is tearing down its locals still allocates.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// What `f` allocates on this thread, with its result.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCATIONS.with(Cell::get);
    let out = f();
    (ALLOCATIONS.with(Cell::get) - before, out)
}

const BATCH: usize = csqp::relation::DEFAULT_BATCH_SIZE;

/// One `stream_big` mirror: every column exported under a year range.
fn mirror() -> Source {
    let desc = parse_ssdl(
        "source big_0 {\n  s1 -> year >= $int ^ year <= $int ;\n  \
         attributes :: s1 : { make, model, year, color, price } ;\n}",
    )
    .unwrap();
    Source::new(datagen::cars(11, 40_000), desc, CostParams::new(50.0, 1.0))
}

/// Pulls a three-year window's answer to the end, returning each batch
/// with what its pull allocated.
fn pull_window(source: &Source) -> Vec<(u64, TupleBatch)> {
    let cond = parse_condition("year >= 1990 ^ year <= 1992").unwrap();
    let attrs: BTreeSet<String> =
        ["model", "year", "color", "price"].iter().map(|a| a.to_string()).collect();
    let admitted = source.gate_view().admit(Some(&cond), &attrs).expect("the window is a form");
    let mut stream = source.open(&admitted, BATCH).1.unwrap();
    let mut batches = Vec::new();
    loop {
        let (n, pulled) = allocations(|| stream.pull().1.unwrap());
        match pulled {
            Some(batch) => batches.push((n, batch)),
            None => return batches,
        }
    }
}

#[test]
fn a_source_pull_allocates_once_per_batch() {
    let source = mirror();
    let batches = pull_window(&source);
    assert!(batches.len() > 100, "a window is about a quarter of the relation");
    // Every batch but the last is full; the last is sized for the rows the
    // scan had left, so it too is one allocation.
    let full = batches.iter().filter(|(_, b)| b.len() == BATCH).count();
    assert_eq!(full, batches.len() - 1);
    let counts: Vec<u64> = batches.iter().map(|(n, _)| *n).collect();
    assert_eq!(counts, vec![1; batches.len()], "allocations and reallocations per pull");
}

#[test]
fn a_batch_renders_into_a_buffer_with_room_without_allocating() {
    let source = mirror();
    let batches: Vec<TupleBatch> = pull_window(&source).into_iter().map(|(_, b)| b).collect();
    let mut out = Vec::new();
    // The first batch of a schema builds its column prefixes; size the
    // buffer for the largest batch's rows.
    batches[0].write_rows(&mut out);
    out.reserve(out.len() * 4);
    let counts: Vec<u64> = batches[1..]
        .iter()
        .map(|b| {
            out.clear();
            allocations(|| b.write_rows(&mut out)).0
        })
        .collect();
    assert_eq!(counts, vec![0; batches.len() - 1], "allocations per rendered batch");
    let last = String::from_utf8(out).unwrap();
    assert!(last.starts_with("(model=\""), "{last}");
    assert_eq!(last.lines().count(), batches.last().unwrap().len());
}
