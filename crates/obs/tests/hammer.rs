//! Multi-thread hammer tests: concurrent recording must lose nothing.

use std::collections::VecDeque;
use std::sync::Arc;

use crowdfill_obs::log::{set_level, Event, FieldValue, Level, Sink};
use crowdfill_obs::metrics::{Counter, Gauge, Histogram};
use parking_lot::Mutex;

const THREADS: usize = 8;
const PER_THREAD: u64 = 20_000;

/// A bounded in-memory sink of the most recent events, with monotonic
/// sequence numbers so a reader can tell how many were dropped.
struct RingSink {
    capacity: usize,
    /// Events ever accepted, and the retained `(sequence, event)` pairs.
    state: Mutex<(u64, VecDeque<(u64, Event)>)>,
}

impl RingSink {
    fn new(capacity: usize) -> RingSink {
        RingSink {
            capacity,
            state: Mutex::new((0, VecDeque::with_capacity(capacity))),
        }
    }

    /// Total events ever accepted (sequence numbers are `0..this`).
    fn total_seen(&self) -> u64 {
        self.state.lock().0
    }

    /// The retained `(sequence, event)` pairs, oldest first.
    fn recent(&self) -> Vec<(u64, Event)> {
        self.state.lock().1.iter().cloned().collect()
    }
}

impl Sink for RingSink {
    fn accept(&self, event: &Event) {
        let mut state = self.state.lock();
        let seq = state.0;
        state.0 += 1;
        if state.1.len() == self.capacity {
            state.1.pop_front();
        }
        state.1.push_back((seq, event.clone()));
    }
}

fn event(message: String, i: u64) -> Event {
    Event {
        level: Level::Info,
        target: "hammer",
        message,
        fields: vec![("i", FieldValue::U64(i))],
        unix_micros: 0,
    }
}

#[test]
fn concurrent_counters_and_histograms_are_exact() {
    let (counter, gauge, histogram) = (Counter::new(), Gauge::new(), Histogram::new());
    crossbeam::scope(|scope| {
        for t in 0..THREADS {
            let (counter, gauge, histogram) = (&counter, &gauge, &histogram);
            scope.spawn(move |_| {
                for i in 0..PER_THREAD {
                    counter.inc();
                    gauge.add(1);
                    histogram.record(t as u64 * PER_THREAD + i);
                    gauge.add(-1);
                }
            });
        }
    })
    .expect("hammer threads panicked");

    let expected = THREADS as u64 * PER_THREAD;
    assert_eq!(counter.get(), expected);
    assert_eq!(gauge.get(), 0);
    let snap = histogram.snapshot();
    assert_eq!(snap.count, expected);
    assert_eq!(snap.max, expected - 1);
    // Sum of 0..expected.
    assert_eq!(snap.sum, expected * (expected - 1) / 2);
}

#[test]
fn ring_sink_drops_oldest_and_keeps_sequences_contiguous() {
    let ring = RingSink::new(4);
    for i in 0..10 {
        ring.accept(&event(format!("m{i}"), i));
    }
    assert_eq!(ring.total_seen(), 10);
    let recent = ring.recent();
    let seqs: Vec<u64> = recent.iter().map(|(s, _)| *s).collect();
    assert_eq!(seqs, vec![6, 7, 8, 9]);
    assert_eq!(recent[0].1.message, "m6");
}

#[test]
fn ring_sink_sequences_survive_concurrent_writers() {
    let ring = Arc::new(RingSink::new(512));
    set_level(Level::Off); // sequence accounting must not depend on the global gate
    crossbeam::scope(|scope| {
        for t in 0..THREADS {
            let ring = Arc::clone(&ring);
            scope.spawn(move |_| {
                for i in 0..2_000u64 {
                    ring.accept(&event(format!("t{t}"), i));
                }
            });
        }
    })
    .expect("ring threads panicked");

    let total = THREADS as u64 * 2_000;
    assert_eq!(ring.total_seen(), total);
    let recent = ring.recent();
    assert_eq!(recent.len(), 512);
    // Retained sequence numbers are exactly the last `capacity`,
    // contiguous and in order: nothing inside the window was lost.
    for (offset, (seq, _)) in recent.iter().enumerate() {
        assert_eq!(*seq, total - 512 + offset as u64);
    }
}
