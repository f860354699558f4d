//! Property tests for the reading ring: over random counter and histogram
//! histories, every window's objectives equal, bit for bit, what the
//! whole-registry delta ring it replaced reports
//! (`support/delta_tracker.rs`, the oracle) — through equal and zero
//! timestamps, a clock that jumps backwards, windows shorter and longer
//! than the ring, and rings that have wrapped. And a ring advanced on the
//! wakes of its owner reads, window for window, what a ring sampled at
//! every period boundary reads.

#[path = "support/delta_tracker.rs"]
mod delta_tracker;

use std::time::Duration;

use crowdfill_obs::metrics::{Counter, Gauge};
use crowdfill_obs::timeseries::{ReadingRing, SloInstruments, SloStatus, PERIOD};
use delta_tracker::{DeltaTracker, InstrumentValue, SampleRing, SloSpec};
use proptest::prelude::*;

const ACK: &str = "crowdfill_server_ack_latency_ns";
const SHEDS: &str = "crowdfill_server_sheds";
const SUBMITS: &str = "crowdfill_server_submit_requests";
const EXTRA_COUNTER: &str = "crowdfill_test_props_other_ops";
const EXTRA_GAUGE: &str = "crowdfill_test_props_depth";

/// One tick of history: how the clock moves, what is recorded before it.
#[derive(Debug, Clone)]
struct Step {
    /// Added to the clock, or (`jump`) the clock's new raw value, which
    /// may lie behind the previous tick.
    dt_ns: u64,
    jump: bool,
    latencies: Vec<u64>,
    sheds: u64,
    submits: u64,
    /// Recorded into instruments no objective names.
    other: u64,
}

fn step() -> impl Strategy<Value = Step> {
    let dt = prop_oneof![
        2 => Just(0u64),
        3 => 1u64..1_000_000,
        3 => 1u64..5_000_000_000,
        1 => 1u64..100_000_000_000,
    ];
    let latency = prop_oneof![
        1 => Just(0u64),
        3 => 1u64..1_000_000,
        3 => 1u64..2_000_000_000,
        1 => 1u64..(1 << 50),
    ];
    (
        dt,
        prop_oneof![9 => Just(false), 1 => Just(true)],
        proptest::collection::vec(latency, 0..6),
        0u64..4,
        0u64..40,
        0u64..100,
    )
        .prop_map(|(dt_ns, jump, latencies, sheds, submits, other)| Step {
            dt_ns,
            jump,
            latencies,
            sheds,
            submits,
            other,
        })
}

fn window() -> impl Strategy<Value = u64> {
    prop_oneof![
        1 => Just(0u64),
        3 => 1u64..10_000_000_000,
        2 => 1u64..400_000_000_000,
        1 => Just(u64::MAX),
    ]
}

const PERIOD_NS: u64 = PERIOD.as_nanos() as u64;

/// One wake of the ring's owner: how long after the previous one it comes,
/// what it records after its ring call, and — as a fraction of the longest
/// window the ring answers exactly — the window a `health` request in it
/// reads, if one does.
#[derive(Debug, Clone)]
struct OwnerWake {
    gap_ns: u64,
    latencies: Vec<u64>,
    sheds: u64,
    submits: u64,
    query: Option<f64>,
}

fn owner_wake() -> impl Strategy<Value = OwnerWake> {
    // Back to back, within a period, across a few, and past the span of
    // the largest ring below (24 periods).
    let gap = prop_oneof![
        2 => Just(0u64),
        3 => 1u64..PERIOD_NS,
        3 => 1u64..4 * PERIOD_NS,
        1 => 1u64..40 * PERIOD_NS,
    ];
    let query = prop_oneof![
        2 => Just(None),
        2 => (0.0f64..=1.0).prop_map(Some),
        1 => Just(Some(1.0)),
    ];
    (
        gap,
        proptest::collection::vec(1u64..2_000_000_000, 0..4),
        0u64..3,
        0u64..20,
        query,
    )
        .prop_map(|(gap_ns, latencies, sheds, submits, query)| OwnerWake {
            gap_ns,
            latencies,
            sheds,
            submits,
            query,
        })
}

/// The objectives as the oracle declared them.
fn specs(window: Duration, q: f64, max_ms: u64, max_ratio: f64) -> [SloSpec; 2] {
    [
        SloSpec::quantile_below_ms("ack-p99", ACK, q, max_ms, window),
        SloSpec::ratio_below("shed-rate", SHEDS, SUBMITS, max_ratio, window),
    ]
}

/// The same objectives over the reading ring.
fn evaluate(
    ring: &ReadingRing,
    window: Duration,
    q: f64,
    max_ms: u64,
    max_ratio: f64,
) -> [SloStatus; 2] {
    let moved = ring.window(window);
    let max_ns = max_ms.saturating_mul(1_000_000) as f64;
    [
        SloStatus::new("ack-p99", moved.latency_quantile(q), max_ns),
        SloStatus::new("shed-rate", moved.shed_ratio(), max_ratio),
    ]
}

fn same_bits(a: &SloStatus, b: &SloStatus) -> Result<(), TestCaseError> {
    prop_assert_eq!(&a.name, &b.name);
    prop_assert_eq!(
        a.value.to_bits(),
        b.value.to_bits(),
        "value {:?} vs {:?}",
        a,
        b
    );
    prop_assert_eq!(a.threshold.to_bits(), b.threshold.to_bits());
    prop_assert_eq!(a.ok, b.ok);
    prop_assert_eq!(
        a.burn_rate.to_bits(),
        b.burn_rate.to_bits(),
        "burn {:?} vs {:?}",
        a,
        b
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After every tick, every window's objectives — the default ones and
    /// randomly declared ones — and every windowed sum and histogram are
    /// what the delta ring reports.
    #[test]
    fn reading_ring_matches_the_delta_ring(
        steps in proptest::collection::vec(step(), 0..60),
        capacity in 1usize..24,
        windows in proptest::collection::vec(window(), 1..5),
        q in 0.0f64..1.0,
        max_ms in 0u64..500,
        max_ratio in 0.0f64..0.2,
    ) {
        let instruments = SloInstruments::default();
        let (ack, sheds, submits) = (&instruments.latency, &instruments.sheds, &instruments.submits);
        let (other, depth) = (Counter::new(), Gauge::new());
        let ring = ReadingRing::new(instruments.clone(), capacity);
        let mut oracle = SampleRing::new(capacity);
        let mut tracker = DeltaTracker::new();
        let mut at = 0u64;
        for step in &steps {
            for &v in &step.latencies {
                ack.record(v);
            }
            sheds.add(step.sheds);
            submits.add(step.submits);
            other.add(step.other);
            depth.set(step.other as i64 - 50);
            at = if step.jump { step.dt_ns } else { at.saturating_add(step.dt_ns) };
            let readings = vec![
                (ACK.to_string(), InstrumentValue::Histogram(Box::new(ack.snapshot()))),
                (SHEDS.to_string(), InstrumentValue::Counter(sheds.get())),
                (SUBMITS.to_string(), InstrumentValue::Counter(submits.get())),
                (EXTRA_COUNTER.to_string(), InstrumentValue::Counter(other.get())),
                (EXTRA_GAUGE.to_string(), InstrumentValue::Gauge(depth.get())),
            ];
            oracle.push(tracker.sample(readings, at));
            ring.sample(at);
            prop_assert_eq!(ring.len(), oracle.samples().len());

            for &window_ns in &windows {
                let window = Duration::from_nanos(window_ns);
                for (q, max_ms, max_ratio) in [(0.99, 250, 0.05), (q, max_ms, max_ratio)] {
                    let want = specs(window, q, max_ms, max_ratio).map(|s| s.evaluate(&oracle));
                    let got = evaluate(&ring, window, q, max_ms, max_ratio);
                    for (want, got) in want.iter().zip(&got) {
                        same_bits(want, got)?;
                    }
                }
                let moved = ring.window(window);
                prop_assert_eq!(oracle.windowed_sum(SHEDS, window).unwrap_or(0), moved.sheds);
                prop_assert_eq!(oracle.windowed_sum(SUBMITS, window).unwrap_or(0), moved.submits);
                match oracle.windowed_histogram(ACK, window) {
                    Some(merged) => prop_assert_eq!(merged, moved.latency),
                    None => prop_assert_eq!(moved.latency.count, 0),
                }
            }
        }
    }

    /// The reading rule: a ring whose owner calls `advance` at the top of
    /// each wake, before the wake records anything, answers every window
    /// up to `(capacity − 1)·PERIOD` with the reading — bit for bit — of a
    /// ring sampled at every period boundary the clock crosses.
    #[test]
    fn wake_sampled_ring_matches_a_per_period_ring(
        wakes in proptest::collection::vec(owner_wake(), 0..80),
        capacity in 2usize..24,
    ) {
        let instruments = SloInstruments::default();
        let (ack, sheds, submits) = (&instruments.latency, &instruments.sheds, &instruments.submits);
        let ring = ReadingRing::new(instruments.clone(), capacity);
        let oracle = ReadingRing::new(instruments.clone(), capacity);
        // The reading a service takes at its start.
        ring.sample(0);
        oracle.sample(0);
        let longest = (capacity as u64 - 1) * PERIOD_NS;
        let (mut now, mut crossed) = (0u64, 0u64);
        for wake in &wakes {
            now += wake.gap_ns;
            while crossed < now / PERIOD_NS {
                crossed += 1;
                oracle.sample(crossed * PERIOD_NS);
            }
            ring.advance(now);
            for &v in &wake.latencies {
                ack.record(v);
            }
            sheds.add(wake.sheds);
            submits.add(wake.submits);
            if let Some(fraction) = wake.query {
                let window = Duration::from_nanos((longest as f64 * fraction) as u64);
                prop_assert_eq!(ring.window(window), oracle.window(window), "{:?}", window);
            }
        }
    }

    /// Whatever clock the ring is fed, retained readings are
    /// non-decreasing in time and in every cumulative field, and it keeps
    /// exactly the newest `min(ticks, capacity)` of them behind one base.
    #[test]
    fn readings_stay_monotone_and_bounded(
        raw_clock in proptest::collection::vec(any::<u32>(), 0..80),
        capacity in 1usize..16,
    ) {
        let instruments = SloInstruments::default();
        let ring = ReadingRing::new(instruments.clone(), capacity);
        for (i, &at) in raw_clock.iter().enumerate() {
            instruments.submits.add(i as u64 % 3);
            instruments.latency.record(at as u64);
            ring.sample(at as u64);
        }
        let readings = ring.readings();
        prop_assert_eq!(ring.len(), raw_clock.len().min(capacity));
        prop_assert_eq!(readings.len(), ring.len() + 1);
        for pair in readings.windows(2) {
            let (a, b) = (&pair[0], &pair[1]);
            prop_assert!(a.at_ns <= b.at_ns);
            prop_assert!(a.submits <= b.submits && a.latency.count <= b.latency.count);
            prop_assert!(a.latency.buckets.iter().zip(&b.latency.buckets).all(|(x, y)| x <= y));
        }
    }
}
