//! A counting gate: what the reading ring keeps, and what one evaluation
//! of the objectives costs, do not grow with the instruments beside it. A
//! ring among 3 instruments and one among the same 3 plus 1,000 more
//! retain equal readings, and one evaluation makes the same heap
//! allocations on both — the two names of its statuses, nothing sized by
//! the instruments or the ring. Its own test binary, because the counting
//! `#[global_allocator]` is process-wide; it counts only the thread that
//! asks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::time::Duration;

use crowdfill_obs::metrics::{Counter, Histogram};
use crowdfill_obs::timeseries::{ReadingRing, SloInstruments, SloStatus};

struct Counting;

thread_local! {
    /// Allocations and bytes asked for on this thread while it counts.
    static COUNT: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

fn note(bytes: usize) {
    // `try_with`: the allocator also runs while thread-locals are torn down.
    let _ = COUNT.try_with(|c| c.set(c.get().map(|(n, b)| (n + 1, b + bytes))));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// `(allocations, bytes)` `f` asks for on this thread.
fn counted<T>(f: impl FnOnce() -> T) -> ((usize, usize), T) {
    COUNT.with(|c| c.set(Some((0, 0))));
    let out = f();
    let counts = COUNT.with(|c| c.take()).expect("counting");
    (counts, out)
}

const CAPACITY: usize = 256;

/// The service's objectives: ack p99 under 250 ms, sheds under 5 % of
/// submits, over a minute.
fn evaluate(ring: &ReadingRing) -> [SloStatus; 2] {
    let moved = ring.window(Duration::from_secs(60));
    [
        SloStatus::new("ack-p99", moved.latency_quantile(0.99), 250e6),
        SloStatus::new("shed-rate", moved.shed_ratio(), 0.05),
    ]
}

/// A ring fed the same history as every other, past its capacity, with
/// `extra` more instruments recorded into beside it; and how many
/// instruments there were.
fn fed_ring(extra: usize) -> (usize, ReadingRing) {
    let instruments = SloInstruments::default();
    let others: Vec<_> = (0..extra)
        .map(|i| match i % 2 {
            0 => (Some(Counter::new()), None),
            _ => (None, Some(Histogram::new())),
        })
        .collect();
    let ring = ReadingRing::new(instruments.clone(), CAPACITY);
    for tick in 0..(CAPACITY as u64 + 44) {
        instruments.latency.record(1_000 * tick + 7);
        instruments.submits.add(3);
        instruments.sheds.add(tick % 2);
        for (counter, histogram) in &others {
            counter.iter().for_each(|c| c.add(tick));
            histogram.iter().for_each(|h| h.record(tick));
        }
        ring.sample(tick * 250_000_000);
    }
    (3 + others.len(), ring)
}

#[test]
fn ring_and_evaluation_do_not_grow_with_the_registry() {
    let (small_instruments, small) = fed_ring(0);
    let (large_instruments, large) = fed_ring(1_000);
    assert_eq!(small_instruments, 3);
    assert_eq!(large_instruments, 1_003);

    // The same readings retained: the newest `CAPACITY` ticks and a base.
    assert_eq!(small.len(), CAPACITY);
    assert_eq!(large.len(), CAPACITY);
    assert_eq!(small.readings(), large.readings());

    let (small_cost, small_status) = counted(|| evaluate(&small));
    let (large_cost, large_status) = counted(|| evaluate(&large));
    assert_eq!(small_status, large_status);
    assert_eq!(
        small_cost, large_cost,
        "an evaluation grew with the registry"
    );
    // Two statuses, one name each: nothing copied out of the ring.
    assert_eq!(small_cost.0, 2, "allocations of one evaluation");
}
