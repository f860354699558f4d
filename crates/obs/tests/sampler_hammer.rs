//! Hammer test for the reading ring: many threads pound the instruments
//! the ring reads while a sampler thread reads them continuously.
//! Readings must never go backwards between ticks (a torn read would),
//! and at quiescence a window over the whole run equals the final totals
//! exactly.
//!
//! Mirrors `trace_hammer`: writers produce a self-checkable volume, the
//! concurrent reader asserts structural invariants at the end.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crowdfill_obs::timeseries::{ReadingRing, SloInstruments};

const WRITERS: u64 = 8;
const PER_WRITER: u64 = 40_000;

#[test]
fn concurrent_writers_vs_sampler_windows_are_exact() {
    let reg = SloInstruments::default();
    // Capacity far above the tick volume, so nothing the sampler
    // produced is evicted and the whole-run window starts at the base.
    let ring = Arc::new(ReadingRing::new(reg.clone(), 1 << 16));
    let done = Arc::new(AtomicBool::new(false));

    crossbeam::scope(|scope| {
        for w in 0..WRITERS {
            let (c, s, h) = (&reg.submits, &reg.sheds, &reg.latency);
            scope.spawn(move |_| {
                for i in 0..PER_WRITER {
                    c.inc();
                    if i % 10 == 0 {
                        s.inc();
                    }
                    // Deterministic per-op sample value: (w, i)-derived,
                    // so the expected sum is a closed form.
                    h.record(w * PER_WRITER + i);
                }
            });
        }
        let sampler_ring = Arc::clone(&ring);
        let sampler_done = Arc::clone(&done);
        let sampler = scope.spawn(move |_| {
            let mut at = 0u64;
            while !sampler_done.load(Ordering::Relaxed) {
                at += 1;
                sampler_ring.sample(at);
                // Paced, so the ticks of a slow (debug) run stay far
                // inside the capacity.
                std::thread::sleep(Duration::from_micros(20));
            }
            // One final tick after the writers quiesced picks up any
            // tail the last mid-storm tick missed.
            sampler_ring.sample(at + 1);
            at + 1
        });
        // Writers finish, then stop the sampler.
        while reg.submits.get() < WRITERS * PER_WRITER {
            std::thread::yield_now();
        }
        done.store(true, Ordering::Relaxed);
        let ticks = sampler.join().expect("sampler panicked");
        assert!(ticks > 0);
    })
    .expect("hammer threads panicked");

    let readings = ring.readings();
    assert!(
        ring.len() < ring.capacity(),
        "ring evicted readings; the whole-run window would be unsound"
    );
    // Cumulative fields never move backwards across ticks.
    for pair in readings.windows(2) {
        let (a, b) = (&pair[0], &pair[1]);
        assert!(a.at_ns <= b.at_ns);
        assert!(a.submits <= b.submits, "counter went backwards");
        assert!(a.sheds <= b.sheds, "counter went backwards");
        assert!(
            a.latency.count <= b.latency.count,
            "histogram went backwards"
        );
        let buckets = a.latency.buckets.iter().zip(&b.latency.buckets);
        assert!(buckets.into_iter().all(|(x, y)| x <= y));
    }

    let total = WRITERS * PER_WRITER;
    let whole = ring.window(Duration::from_nanos(u64::MAX));
    assert_eq!(whole.submits, total, "the window must equal the total");
    assert_eq!(whole.sheds, total / 10);
    assert_eq!(whole.latency.count, total);
    assert_eq!(whole.latency.buckets.iter().sum::<u64>(), total);
    // Sum of 0..WRITERS*PER_WRITER (each op recorded a distinct value).
    assert_eq!(whole.latency.sum, total * (total - 1) / 2);
    assert_eq!(whole.latency.max, total - 1);
    // The windows of consecutive ticks telescope to the same totals.
    let steps: u64 = readings.windows(2).map(|p| p[1].since(&p[0]).submits).sum();
    assert_eq!(steps, total);
}
