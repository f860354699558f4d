//! `profile-join`: the client's share of a join, stage by stage, at a
//! chosen table size (EXPERIMENTS.md §A17, §A20, §A21, §A25).
//!
//! `profile-join [--rows N]` (default: 32, 128, 400 and 3,200) builds the
//! welcome a late joiner receives from a table of `N` rows shaped like
//! `late_join`'s — five text columns of 6–18 bytes, 7/8 of the rows
//! complete (`workload::welcome_frame`) — and times what the client does
//! with the frame, each as a median over repetitions: parse it into a
//! tape, decode the reply, then the two halves of adopting the image into
//! a replica — `histories`, both vote histories built
//! (`VoteHistory::from_counts`), and `table`, the candidate table built
//! as `Replica::restore` builds it (each row's upvotes by value index,
//! `CandidateTable::from_ascending`, downvotes added through the key
//! index) — and `ClientCore::welcomed`, which is all of them and the drop
//! of the tape. `allocs` is the heap allocations per `welcomed` (a
//! counting allocator wraps the system one).

use crowdfill_bench::workload::welcome_frame;
use crowdfill_model::{CandidateTable, RowEntry};
use crowdfill_server::wire::{self, Image, Reply};
use crowdfill_server::ClientCore;
use crowdfill_sync::VoteHistory;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// The system allocator, counting allocations and reallocations.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Median of `reps` timings of `f`, in µs.
fn median_us<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut samples: Vec<u128> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            black_box(f());
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64 / 1e3
}

/// Allocations per call of `f`, over `reps` calls.
fn allocations<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..reps {
        black_box(f());
    }
    (ALLOCATIONS.load(Ordering::Relaxed) - before) as f64 / reps as f64
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let sizes: Vec<usize> = match args.iter().position(|a| a == "--rows") {
        Some(at) => vec![args
            .get(at + 1)
            .and_then(|n| n.parse().ok())
            .expect("--rows needs a count")],
        None => vec![32, 128, 400, 3_200],
    };
    println!(
        "{:>6} {:>9} {:>7} {:>9} {:>9} {:>12} {:>9} {:>11} {:>7}",
        "rows",
        "bytes",
        "entries",
        "parse_us",
        "decode_us",
        "histories_us",
        "table_us",
        "welcomed_us",
        "allocs"
    );
    for rows in sizes {
        let reps = if rows > 1_000 { 15 } else { 101 };
        let welcome = welcome_frame(rows);
        let frame = welcome.as_bytes();
        let parse = median_us(reps, || wire::parse_frame(frame).unwrap());
        let tape = wire::parse_frame(frame).unwrap();
        let decode = median_us(reps, || Reply::decode(&tape).unwrap());
        let Ok(Reply::Welcome(.., schema, Image::Table(image, _))) = Reply::decode(&tape) else {
            unreachable!("a welcome decodes as one")
        };
        let value = |i: u32| image.values[i as usize].clone();
        let history = |votes: &[(u32, u32)]| {
            VoteHistory::from_counts(votes.iter().map(|&(i, n)| (value(i), n)))
        };
        let histories = median_us(reps, || (history(&image.uh), history(&image.dh)));
        let dh = history(&image.dh);
        let table = median_us(reps, || {
            let mut upvotes = vec![0; image.values.len()];
            for &(i, n) in &image.uh {
                upvotes[i as usize] = n;
            }
            let rows = image.rows.iter().map(|&(id, i)| {
                let value = value(i);
                let upvotes = match value.is_complete(&schema) {
                    true => upvotes[i as usize],
                    false => 0,
                };
                let entry = RowEntry {
                    value,
                    upvotes,
                    downvotes: 0,
                };
                (id, entry)
            });
            let mut table = CandidateTable::from_ascending(&schema, rows);
            for (w, n) in dh.iter() {
                table.add_downvotes(w, n);
            }
            table
        });
        let welcomed = || ClientCore::welcomed(frame, None, None).unwrap();
        let welcomed_us = median_us(reps, welcomed);
        let allocs = allocations(reps, welcomed);
        println!(
            "{rows:>6} {:>9} {:>7} {parse:>9.1} {decode:>9.1} {histories:>12.1} {table:>9.1} \
             {welcomed_us:>11.1} {allocs:>7.0}",
            frame.len(),
            image.entries()
        );
    }
}
