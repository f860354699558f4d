//! Windowed service-level objectives over cumulative readings.
//!
//! The point-in-time instruments in [`metrics`](crate::metrics) answer
//! "how many so far"; this module answers "is the last minute within
//! budget". A [`ReadingRing`] holds timestamped *cumulative* readings of
//! the three instruments the objectives name — a latency histogram, a
//! shed counter and a submit counter ([`SloInstruments`]), shared as
//! `Arc`s with their owner — so a reading costs the same however many
//! instruments sit beside them. A reading stands for a boundary `k·`[`PERIOD`] of its
//! owner's clock. The owner calls [`ReadingRing::advance`] at the top of
//! every wake that can move the instruments, before it moves them: the
//! server does so on every reactor shard wake. The ring then holds what a
//! sampler firing at every boundary would hold, less runs of equal
//! readings, so every window reads the same — and an idle owner takes no
//! reading at all. This module starts no thread and keeps no clock, and
//! recording paths are untouched.
//!
//! A window is a difference ([`ReadingRing::window`]): the newest reading
//! minus the newest reading at or before the window's start. Counters and
//! histogram buckets only grow, so that difference is exactly what was
//! recorded in the window, bucket for bucket, and its quantiles come from
//! the one shared [`HistogramSnapshot::quantile`] estimator. The ring
//! starts with a zero reading that stands for the time before the first
//! reading, and keeps one reading past its capacity that stands for the
//! readings it evicted. A histogram's `max` is cumulative (per-interval
//! maxima are not recoverable from the atomics), so a windowed quantile is
//! capped by the lifetime max — still a valid upper bound.
//!
//! [`SloStatus`] reports an objective's observed value against its
//! threshold and its **burn rate** (observed / threshold — above 1.0 the
//! error budget is being consumed faster than allowed). Evaluating one
//! writes nothing.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::Mutex;

use crate::metrics::{Counter, Histogram, HistogramSnapshot};

/// The spacing of the boundaries [`ReadingRing::advance`] stamps readings
/// at.
pub const PERIOD: Duration = Duration::from_millis(250);
const PERIOD_NS: u64 = PERIOD.as_nanos() as u64;

/// The instruments a [`ReadingRing`] reads.
#[derive(Debug, Clone, Default)]
pub struct SloInstruments {
    /// Latency of the requests the objectives bound.
    pub latency: Arc<Histogram>,
    /// Requests turned away: the numerator of the shed ratio.
    pub sheds: Arc<Counter>,
    /// Requests offered: its denominator.
    pub submits: Arc<Counter>,
}

/// The instruments' cumulative values at `at_ns` — or, as returned by
/// [`Reading::since`], what they moved by up to `at_ns`.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Reading {
    /// On the sampling owner's monotonic clock (nanoseconds since its start).
    pub at_ns: u64,
    pub latency: HistogramSnapshot,
    pub sheds: u64,
    pub submits: u64,
}

impl Reading {
    /// What moved from `base` to `self`, bucket for bucket; `max` stays
    /// the cumulative max.
    pub fn since(&self, base: &Reading) -> Reading {
        let (now, then) = (&self.latency, &base.latency);
        Reading {
            at_ns: self.at_ns,
            latency: HistogramSnapshot {
                buckets: std::array::from_fn(|i| now.buckets[i].saturating_sub(then.buckets[i])),
                count: now.count.saturating_sub(then.count),
                sum: now.sum.saturating_sub(then.sum),
                max: now.max,
            },
            sheds: self.sheds.saturating_sub(base.sheds),
            submits: self.submits.saturating_sub(base.submits),
        }
    }

    /// Estimated latency quantile `q`; 0 when nothing was recorded —
    /// absence of load is not an SLO violation.
    pub fn latency_quantile(&self, q: f64) -> f64 {
        self.latency.quantile(q).map_or(0.0, |n| n as f64)
    }

    /// Sheds over submits; 0 without submits.
    pub fn shed_ratio(&self) -> f64 {
        if self.submits > 0 {
            self.sheds as f64 / self.submits as f64
        } else {
            0.0
        }
    }
}

/// Bounded, thread-safe ring of [`Reading`]s, oldest first: a base
/// reading plus the newest `capacity` readings, allocated as they come.
#[derive(Debug)]
pub struct ReadingRing {
    instruments: SloInstruments,
    capacity: usize,
    readings: Mutex<VecDeque<Reading>>,
    /// The [`PERIOD`] slot of the newest reading: what lets
    /// [`advance`](Self::advance) on an up-to-date ring skip the lock. Written
    /// under it; it publishes nothing else (the readings are the lock's),
    /// and a stale load only sends `advance` to the lock, so `Relaxed`.
    newest_slot: AtomicU64,
}

impl ReadingRing {
    pub fn new(instruments: SloInstruments, capacity: usize) -> ReadingRing {
        let capacity = capacity.max(1);
        let readings = VecDeque::from([Reading::default()]);
        ReadingRing {
            instruments,
            capacity,
            readings: Mutex::new(readings),
            newest_slot: AtomicU64::new(0),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Readings retained (the base reading is not one).
    pub fn len(&self) -> usize {
        self.readings.lock().len() - 1
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads the instruments at `at_ns` (clamped to be non-decreasing
    /// across calls) and appends the reading, evicting the oldest past
    /// capacity.
    pub fn sample(&self, at_ns: u64) {
        let reading = self.read(at_ns);
        let mut readings = self.readings.lock();
        let newest = readings.back().expect("the base reading is never evicted");
        let at_ns = reading.at_ns.max(newest.at_ns);
        self.push(&mut readings, Reading { at_ns, ..reading });
    }

    /// Brings the ring up to `now_ns`, which falls in [`PERIOD`] slot `m`.
    /// With the newest reading in slot `n < m`, it reads the instruments
    /// once and appends that reading stamped `(n+1)·PERIOD` and, when
    /// `m > n+1`, again stamped `m·PERIOD`; with `n ≥ m` it does nothing,
    /// on one atomic load.
    ///
    /// Called before anything of the caller's moves the instruments, this
    /// leaves the ring with the readings a sampler firing at every
    /// boundary would have taken, less runs of equal ones: nothing moved
    /// since the caller's last wake, so every boundary crossed meanwhile
    /// reads what is read now, and [`window`](Self::window) — the newest
    /// reading at or before a start — finds the same values either way.
    pub fn advance(&self, now_ns: u64) {
        let m = now_ns / PERIOD_NS;
        if self.newest_slot.load(Ordering::Relaxed) >= m {
            return;
        }
        let mut readings = self.readings.lock();
        let newest = readings.back().expect("the base reading is never evicted");
        let n = newest.at_ns / PERIOD_NS;
        if n >= m {
            return;
        }
        let mut reading = self.read((n + 1) * PERIOD_NS);
        if m > n + 1 {
            self.push(&mut readings, reading.clone());
            reading.at_ns = m * PERIOD_NS;
        }
        self.push(&mut readings, reading);
    }

    /// The instruments' current values, stamped `at_ns`.
    fn read(&self, at_ns: u64) -> Reading {
        Reading {
            at_ns,
            latency: self.instruments.latency.snapshot(),
            sheds: self.instruments.sheds.get(),
            submits: self.instruments.submits.get(),
        }
    }

    /// Appends `reading` (not older than the newest), evicting the oldest
    /// past capacity.
    fn push(&self, readings: &mut VecDeque<Reading>, reading: Reading) {
        if readings.len() > self.capacity {
            readings.pop_front();
        }
        let slot = reading.at_ns / PERIOD_NS;
        readings.push_back(reading);
        self.newest_slot.store(slot, Ordering::Relaxed);
    }

    /// A copy of the retained readings, the base first.
    pub fn readings(&self) -> Vec<Reading> {
        self.readings.lock().iter().cloned().collect()
    }

    /// What the instruments moved by over the last `window` (truncated to
    /// what the ring retains): the newest reading minus the newest
    /// reading at or before `newest.at_ns - window`, or minus the base
    /// when every retained reading is younger.
    pub fn window(&self, window: Duration) -> Reading {
        let readings = self.readings.lock();
        let newest = readings.back().expect("the base reading is never evicted");
        let window_ns = window.as_nanos().min(u64::MAX as u128) as u64;
        let start = newest.at_ns.saturating_sub(window_ns);
        let after = readings.partition_point(|r| r.at_ns <= start);
        newest.since(&readings[after.saturating_sub(1)])
    }
}

/// One objective's evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    pub name: String,
    /// Observed value over the window.
    pub value: f64,
    /// The declared limit, same unit as `value`.
    pub threshold: f64,
    pub ok: bool,
    /// `value / threshold`: above 1.0 the error budget is burning
    /// faster than allowed.
    pub burn_rate: f64,
}

impl SloStatus {
    /// The objective "`value` stays at or below `threshold`".
    pub fn new(name: &str, value: f64, threshold: f64) -> SloStatus {
        let burn_rate = if threshold > 0.0 {
            value / threshold
        } else if value > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
        SloStatus {
            name: name.to_string(),
            value,
            threshold,
            ok: value <= threshold,
            burn_rate,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A ring over fresh instruments, and the instruments it reads.
    fn ring(capacity: usize) -> (SloInstruments, ReadingRing) {
        let reg = SloInstruments::default();
        (reg.clone(), ReadingRing::new(reg, capacity))
    }

    #[test]
    fn window_is_the_difference_of_two_readings() {
        let (reg, ring) = ring(16);
        let submits = &reg.submits;
        ring.sample(0);
        submits.add(10);
        ring.sample(1_000_000_000);
        submits.add(30);
        ring.sample(2_000_000_000);
        assert_eq!(ring.window(Duration::from_secs(2)).submits, 40);
        assert_eq!(ring.window(Duration::from_millis(500)).submits, 30);
        // Longer than the ring: everything since the base.
        assert_eq!(ring.window(Duration::from_secs(60)).submits, 40);
        assert_eq!(ring.window(Duration::ZERO).submits, 0);
    }

    #[test]
    fn ring_wraps_keeping_newest_and_one_base() {
        let (reg, ring) = ring(3);
        let submits = &reg.submits;
        for i in 0..10u64 {
            submits.inc();
            ring.sample(i);
        }
        let at: Vec<u64> = ring.readings().iter().map(|r| r.at_ns).collect();
        assert_eq!(at, vec![6, 7, 8, 9]);
        assert_eq!(ring.len(), 3);
        // The evicted ticks are in the base: three increments remain.
        assert_eq!(ring.window(Duration::from_secs(1)).submits, 3);
    }

    #[test]
    fn advance_stamps_the_first_and_the_last_boundary_crossed() {
        let (reg, ring) = ring(16);
        let submits = &reg.submits;
        let p = PERIOD_NS;
        ring.sample(0);
        submits.add(5);
        ring.advance(p - 1); // still slot 0
        ring.advance(3 * p + 7);
        ring.advance(3 * p + 9); // slot 3 again
        submits.add(2);
        ring.advance(4 * p);
        let stamps: Vec<(u64, u64)> = ring
            .readings()
            .iter()
            .map(|r| (r.at_ns / p, r.submits))
            .collect();
        assert_eq!(stamps, [(0, 0), (0, 0), (1, 5), (3, 5), (4, 7)]);
        // Boundary 2 was never read; its window reads boundary 1's values.
        assert_eq!(ring.window(2 * PERIOD).submits, 2);
    }

    #[test]
    fn windowed_quantile_reads_the_window_only() {
        let (reg, ring) = ring(16);
        let h = &reg.latency;
        ring.sample(0);
        for v in [100u64, 110, 120] {
            h.record(v);
        }
        ring.sample(1_000_000_000);
        for v in [5000u64, 5100] {
            h.record(v);
        }
        ring.sample(2_000_000_000);
        // Whole window: all five samples; p99 lands in the 4096..8191 bucket.
        let whole = ring.window(Duration::from_secs(3));
        assert!(whole.latency_quantile(0.99) >= 4096.0);
        // Narrow window: only the last tick's two samples.
        assert_eq!(ring.window(Duration::from_millis(100)).latency.count, 2);
    }

    #[test]
    fn slo_status_and_burn() {
        let (reg, ring) = ring(16);
        ring.sample(0);
        for _ in 0..100 {
            reg.latency.record(1_000_000); // 1 ms acks
        }
        reg.sheds.add(1);
        reg.submits.add(99);
        ring.sample(1_000_000_000);
        let window = ring.window(Duration::from_secs(60));
        let ack = SloStatus::new("ack-p99", window.latency_quantile(0.99), 250e6);
        let shed = SloStatus::new("shed-rate", window.shed_ratio(), 0.05);
        assert!(ack.ok && ack.burn_rate < 1.0, "{ack:?}");
        // ~1% shed over a 5% budget → burn ≈ 0.2.
        assert!(shed.ok && (shed.burn_rate - 0.202).abs() < 0.01, "{shed:?}");
    }

    #[test]
    fn empty_window_is_not_a_violation() {
        let (_, ring) = ring(4);
        let window = ring.window(Duration::from_secs(1));
        let status = SloStatus::new("ack-p99", window.latency_quantile(0.99), 1e6);
        assert!(status.ok);
        assert_eq!(status.burn_rate, 0.0);
        assert_eq!(SloStatus::new("zero", 0.0, 0.0).burn_rate, 0.0);
        assert_eq!(SloStatus::new("zero", 1.0, 0.0).burn_rate, f64::INFINITY);
    }
}
