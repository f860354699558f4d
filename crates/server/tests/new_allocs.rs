//! A counting gate on a collection's construction: `Backend::new` on
//! `big_table`'s 400-row cardinality template stays within a budget of
//! allocations. The Central Client is built in one pass: the template's
//! ops applied to a fresh replica, the table classified once, and the
//! matcher's lefts and rights entered in bulk, its maps built from sorted
//! runs rather than node by node. Its own test binary, because the
//! counting `#[global_allocator]` is process-wide; it counts only the
//! thread that asks.

use crowdfill_model::{Column, DataType, QuorumMajority, Schema, Template};
use crowdfill_server::{Backend, TaskConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

struct Counting;

thread_local! {
    /// Allocations made on this thread while it counts, if it does.
    static COUNT: Cell<Option<usize>> = const { Cell::new(None) };
}

fn note() {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNT.try_with(|c| c.set(c.get().map(|n| n + 1)));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocations (and reallocations) `f` makes on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> usize {
    COUNT.with(|c| c.set(Some(0)));
    let out = std::hint::black_box(f());
    let counted = COUNT.with(|c| c.replace(None)).expect("counting");
    drop(out);
    counted
}

/// What `Backend::new` may cost on the template below: 804 today, plus
/// 5%. Built a row at a time, a classifier update per template op and a
/// tree insert per matcher vertex, it cost 1,776 (93,529 in a debug build,
/// which checks every update against a batch classification).
const NEW_MAX: usize = 844;

/// `big_table`'s task: three text columns, the first the key, and a
/// cardinality template of `rows` rows.
fn config(rows: usize) -> TaskConfig {
    let columns = ["a", "b", "c"].map(|c| Column::new(c, DataType::Text));
    let schema = Schema::new("B", columns.to_vec(), &["a"]).unwrap();
    let scoring = Arc::new(QuorumMajority::of_three());
    TaskConfig::new(
        Arc::new(schema),
        scoring,
        Template::cardinality(rows),
        rows as f64,
    )
}

#[test]
fn a_collection_is_built_in_one_pass() {
    let config = config(400);
    let counted = allocations(|| Backend::new(config));
    eprintln!("Backend::new on 400 rows: {counted} allocations");
    assert!(
        counted <= NEW_MAX,
        "Backend::new on 400 rows: {counted} allocations (at most {NEW_MAX})"
    );
}
