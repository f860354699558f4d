//! A counting gate: parsing a document into a tape costs a constant number
//! of heap allocations, whatever the document's size — one per buffer, not
//! one per container. Its own test binary, because the counting
//! `#[global_allocator]` is process-wide; it counts only the thread that
//! asks.

#[path = "support/tree_parser.rs"]
mod tree_parser;

use crowdfill_docstore::Tape;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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
    drop(std::hint::black_box(f()));
    COUNT.with(|c| c.replace(None)).expect("counting")
}

/// An escape-free welcome of `msgs` messages, shaped like the server's: a
/// state image of upvotes, self-replaces and inserts in a `history` array.
fn welcome(msgs: usize) -> String {
    let value = |r: usize| {
        let cell = |c: usize, v: String| format!(r#"{{"col":{c},"val":{{"t":"text","v":"{v}"}}}}"#);
        let cells = [cell(0, format!("key-{r}")), cell(1, format!("b-{r}"))];
        format!("[{}]", cells.join(","))
    };
    let id = |r: usize| format!(r#"{{"c":{},"s":{r}}}"#, 1 + r % 4);
    let history: Vec<String> = (0..msgs)
        .map(|i| match i % 15 {
            0 => format!(r#"{{"kind":"insert","row":{}}}"#, id(i)),
            k if k % 2 == 1 => format!(r#"{{"kind":"upvote","value":{}}}"#, value(i)),
            _ => format!(
                r#"{{"kind":"replace","new":{},"old":{},"value":{}}}"#,
                id(i),
                id(i),
                value(i)
            ),
        })
        .collect();
    format!(
        r#"{{"client":9,"collection":"default","history":[{}],"history_len":{msgs},"schema":{{"columns":[{{"name":"a","type":"text"}},{{"name":"b","type":"text"}}],"key":["a"],"name":"B"}},"type":"welcome","worker":5}}"#,
        history.join(",")
    )
}

#[test]
fn a_tape_costs_the_same_few_allocations_at_every_size() {
    let mut counts = Vec::new();
    for msgs in [32, 240, 3_200] {
        let text = welcome(msgs);
        let tape = allocations(|| Tape::parse(&text).unwrap());
        let tree = allocations(|| tree_parser::parse(&text).unwrap());
        eprintln!(
            "{msgs} messages, {} bytes: tape {tape}, tree {tree} allocations",
            text.len()
        );
        assert!(tree > 10 * msgs, "the oracle allocates per container");
        counts.push(tape);
    }
    assert!(counts[0] <= 2, "a tape is one buffer: {counts:?}");
    assert!(
        counts.iter().all(|&n| n == counts[0]),
        "allocations grew with the document: {counts:?}"
    );
}
