//! A counting gate: every frame and journal record on the op path is
//! written into one pre-sized buffer, so it costs at most two heap
//! allocations (the buffer, and one doubling if the estimate was short),
//! whatever its entry count — not one per object, key, text cell and
//! number, as the tree it replaced did. Its own test binary, because the
//! counting `#[global_allocator]` is process-wide; it counts only the
//! thread that asks.

#[path = "support/tree_frames.rs"]
mod tree_frames;

use crowdfill_model::{ClientId, ColumnId, DataType, Message, RowId, RowValue, Value};
use crowdfill_obs::trace::TraceId;
use crowdfill_pay::{Millis, TraceEntry, WorkerId};
use crowdfill_server::persist;
use crowdfill_server::wire::{BootstrapText, CatchUp, Reply, Request, SeqMsg, TableImage};
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

/// What one frame may cost: its buffer and one doubling.
const MAX: usize = 2;

const TRACE: TraceId = TraceId(0x00c0_ffee_0000_0001);

/// A row of five text cells of `late_join`'s widths (6–18 bytes).
fn five_cells(n: u64) -> RowValue {
    let cells = [
        "Lionel Messi",
        "Argentina",
        "FW",
        "Inter Miami CF",
        "Rosario",
    ];
    let cell = |(c, s): (usize, &str)| (ColumnId(c as u16), Value::text(format!("{s} {n}")));
    RowValue::from_pairs(cells.into_iter().enumerate().map(cell))
}

fn replace(n: u64) -> Message {
    let (old, new) = (RowId::new(ClientId(3), n), RowId::new(ClientId(3), n + 1));
    let value = five_cells(n);
    Message::Replace { old, new, value }
}

fn upvote(n: u64) -> Message {
    Message::Upvote {
        value: five_cells(n),
    }
}

fn entries(msg: fn(u64) -> Message, n: u64) -> Vec<SeqMsg> {
    let entry = |seq| SeqMsg {
        seq: 1_000 + seq,
        msg: msg(seq),
        trace: TRACE,
    };
    (0..n).map(entry).collect()
}

type Encode = Box<dyn Fn() -> String>;

/// Every op-path frame for `msg`, by name: the writer's encode, and the
/// tree oracle's.
fn frames(msg: fn(u64) -> Message) -> Vec<(&'static str, Encode, Encode)> {
    let request = |name, r: Request| {
        let tree = r.clone();
        let tree: Encode = Box::new(move || tree_frames::request(&tree).encode());
        (name, Box::new(move || r.encode()) as Encode, tree)
    };
    let reply = |name, r: Reply<'static>| {
        let tree = r.clone();
        let tree: Encode = Box::new(move || tree_frames::reply(&tree).encode());
        (name, Box::new(move || r.encode()) as Encode, tree)
    };
    let modify = (0..3).map(|n| (msg(n), n == 2)).collect();
    let suffix = entries(msg, 8)
        .into_iter()
        .map(|e| (e.seq, e.msg))
        .collect();
    let reason = "a replace must add exactly one cell to its live row".to_string();
    vec![
        request(
            "submit",
            Request::Submit((msg(7), false), false, TraceId::NONE),
        ),
        request("submit+trace", Request::Submit((msg(7), true), true, TRACE)),
        request("modify of 3", Request::Modify(modify, TRACE)),
        reply(
            "ack",
            Reply::Ack(12.5, false, vec![1_041, 1_042, 1_043], TRACE),
        ),
        reply("reject", Reply::Reject(reason, TRACE)),
        reply("overloaded", Reply::Overloaded(250, TRACE)),
        reply("msg", Reply::Msg(entries(msg, 1).remove(0))),
        reply("batch of 8", Reply::Batch(entries(msg, 8))),
        reply("batch of 64", Reply::Batch(entries(msg, 64))),
        reply(
            "synced suffix of 8",
            Reply::Synced(1_064, CatchUp::Suffix(suffix)),
        ),
    ]
}

#[test]
fn every_op_path_frame_is_one_buffer() {
    for (kind, msg) in [
        ("replace", replace as fn(u64) -> Message),
        ("upvote", upvote),
    ] {
        for (name, encode, tree) in frames(msg) {
            assert_eq!(encode(), tree(), "{name} of a {kind}");
            let (written, built) = (allocations(&encode), allocations(&tree));
            eprintln!("{name} of a {kind}: {written} allocations (the tree: {built})");
            assert!(written <= MAX, "{name} of a {kind}: {written} allocations");
        }
    }
}

#[test]
fn a_bootstrap_push_is_amortised_into_its_text() {
    let image = TableImage {
        types: vec![DataType::Text; 5],
        values: (0..32).map(five_cells).collect(),
        rows: (0..32)
            .map(|i| (RowId::new(ClientId(1), i), i as u32))
            .collect(),
        uh: vec![(0, 2)],
        dh: vec![],
    };
    let mut text = BootstrapText::new(&image);
    let mut counts = Vec::new();
    for n in 0..256 {
        let msg = if n % 2 == 0 { replace(n) } else { upvote(n) };
        counts.push(allocations(|| text.push(&msg)));
    }
    assert!(
        counts.iter().all(|&n| n <= 1),
        "a push reallocates at most once: {counts:?}"
    );
    let grown = counts.iter().filter(|&&n| n > 0).count();
    assert!(
        grown <= 8,
        "the text grows geometrically: {grown} reallocations in 256 pushes"
    );
}

#[test]
fn every_journal_record_is_one_buffer() {
    let entry = |n: u64, msg: fn(u64) -> Message| TraceEntry {
        at: Millis(10 * n),
        worker: n.is_multiple_of(2).then_some(WorkerId(4)),
        msg: msg(n),
        auto_upvote: n.is_multiple_of(3),
        filled: None,
    };
    for len in [1, 2, 8, 64] {
        let log: Vec<TraceEntry> = (0..len)
            .map(|n| entry(n, if n % 2 == 0 { replace } else { upvote }))
            .collect();
        for tdrops in [vec![], vec![3, 1]] {
            let frame = || persist::encode_journal_frame(900, 12_345, &log, &tdrops);
            let tree = tree_frames::journal_frame(900, 12_345, &log, &tdrops).encode();
            assert_eq!(frame(), tree);
            let written = allocations(frame);
            assert!(written <= MAX, "a frame of {len}: {written} allocations");
        }
    }
    let session = allocations(|| persist::encode_journal_session(4, 5, 12_345));
    let closed = allocations(|| persist::encode_journal_closed(12_345));
    assert!(
        session <= MAX && closed <= MAX,
        "session {session}, closed {closed}"
    );
}
