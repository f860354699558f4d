//! Metric time series: a [`DeltaTracker`] that diffs the registry into a
//! bounded ring of timestamped deltas, plus windowed queries (rates,
//! quantile trends) and declarative SLO tracking over that ring.
//!
//! The point-in-time instruments in [`metrics`](crate::metrics) answer
//! "how many so far"; this module answers "how fast *right now*" and
//! "is the last minute within budget". Whoever owns the tracker calls
//! [`DeltaTracker::sample`] on its own clock — the server does it from a
//! deadline of a reactor shard, this module starts no thread — and pushes
//! one [`Sample`] per tick: counter/histogram *deltas* against the
//! previous tick and gauge last-values. The ring is bounded (oldest
//! samples drop), so memory is fixed regardless of uptime. When nobody
//! samples nothing in this module runs — recording paths are untouched,
//! so the disabled cost is zero.
//!
//! Windowed histogram queries reuse the log-bucket machinery:
//! per-tick bucket deltas merge exactly ([`HistogramSnapshot::merge`])
//! and quantiles come from the one shared
//! [`HistogramSnapshot::quantile`] estimator, so a "p99 over the last
//! 10 s" agrees with every other quantile consumer in the workspace.
//!
//! [`SloSpec`] declares an objective ("p99 ack < 250 ms over 60 s",
//! "shed ratio < 5%") evaluated against the ring; [`SloStatus`] reports
//! the observed value and its **burn rate** (observed / threshold —
//! above 1.0 the error budget is being consumed faster than allowed),
//! also exported as a `crowdfill_slo_<name>_burn_milli` gauge so burn
//! trends are themselves sampled.

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::time::Duration;

use parking_lot::Mutex;

use crate::metrics::{HistogramSnapshot, InstrumentValue, MetricsRegistry};

/// One instrument's movement between two consecutive samples.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleDelta {
    /// Events since the previous tick, plus the cumulative total.
    Counter { delta: u64, total: u64 },
    /// Gauges are levels, not flows: the value at the tick.
    Gauge { value: i64 },
    /// Bucket-exact histogram movement since the previous tick. The
    /// snapshot's `max` is the *cumulative* max (per-interval maxima
    /// are not recoverable from the underlying atomics), so windowed
    /// quantile estimates are capped by the lifetime max — still a
    /// valid upper bound. Boxed for the same reason as
    /// [`InstrumentValue::Histogram`]: most deltas in a sample are
    /// counters.
    Histogram {
        delta: Box<HistogramSnapshot>,
        total_count: u64,
    },
}

/// One sampling tick: every registered instrument's delta, timestamped
/// on the sampling owner's monotonic clock (nanoseconds since its start).
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// When this tick was taken.
    pub at_ns: u64,
    /// When the previous tick was taken (0 for the first): the deltas
    /// cover `(since_ns, at_ns]`.
    pub since_ns: u64,
    pub deltas: BTreeMap<String, SampleDelta>,
}

/// Diffs successive [`MetricsRegistry::values`] readings into
/// [`Sample`]s. The server's accepting shard drives one from a deadline;
/// tests drive it directly with synthetic timestamps for determinism.
#[derive(Debug, Default)]
pub struct DeltaTracker {
    prev: BTreeMap<String, InstrumentValue>,
    last_at_ns: u64,
}

impl DeltaTracker {
    pub fn new() -> DeltaTracker {
        DeltaTracker::default()
    }

    /// Takes one sample at `at_ns` (clamped to be monotonically
    /// non-decreasing across calls). Instruments registered since the
    /// previous tick appear with their full total as the first delta.
    pub fn sample(&mut self, registry: &MetricsRegistry, at_ns: u64) -> Sample {
        let at_ns = at_ns.max(self.last_at_ns);
        let since_ns = self.last_at_ns;
        let readings = registry.values();
        let mut deltas = BTreeMap::new();
        for (name, value) in &readings {
            let delta = match value {
                InstrumentValue::Counter(total) => {
                    let prev = match self.prev.get(name) {
                        Some(InstrumentValue::Counter(p)) => *p,
                        _ => 0,
                    };
                    SampleDelta::Counter {
                        delta: total.saturating_sub(prev),
                        total: *total,
                    }
                }
                InstrumentValue::Gauge(v) => SampleDelta::Gauge { value: *v },
                InstrumentValue::Histogram(snap) => {
                    let prev = match self.prev.get(name) {
                        Some(InstrumentValue::Histogram(p)) => p.clone(),
                        _ => Box::default(),
                    };
                    let delta = HistogramSnapshot {
                        buckets: std::array::from_fn(|i| {
                            snap.buckets[i].saturating_sub(prev.buckets[i])
                        }),
                        count: snap.count.saturating_sub(prev.count),
                        sum: snap.sum.saturating_sub(prev.sum),
                        max: snap.max,
                    };
                    SampleDelta::Histogram {
                        delta: Box::new(delta),
                        total_count: snap.count,
                    }
                }
            };
            deltas.insert(name.clone(), delta);
        }
        self.prev = readings.into_iter().collect();
        self.last_at_ns = at_ns;
        Sample {
            at_ns,
            since_ns,
            deltas,
        }
    }
}

/// Bounded, thread-safe ring of [`Sample`]s, newest last. When full the
/// oldest sample drops, so the ring always holds the newest
/// `capacity` ticks.
#[derive(Debug)]
pub struct SampleRing {
    capacity: usize,
    samples: Mutex<VecDeque<Sample>>,
}

impl SampleRing {
    pub fn new(capacity: usize) -> SampleRing {
        SampleRing {
            capacity: capacity.max(1),
            samples: Mutex::new(VecDeque::new()),
        }
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    pub fn len(&self) -> usize {
        self.samples.lock().len()
    }

    pub fn is_empty(&self) -> bool {
        self.samples.lock().is_empty()
    }

    /// Appends a sample, evicting the oldest at capacity. Timestamps
    /// are expected non-decreasing ([`DeltaTracker`] guarantees it).
    pub fn push(&self, sample: Sample) {
        let mut q = self.samples.lock();
        debug_assert!(q.back().is_none_or(|b| b.at_ns <= sample.at_ns));
        if q.len() == self.capacity {
            q.pop_front();
        }
        q.push_back(sample);
    }

    /// A copy of the retained samples, oldest first.
    pub fn samples(&self) -> Vec<Sample> {
        self.samples.lock().iter().cloned().collect()
    }

    /// Samples whose interval ends within `window` of the newest tick,
    /// together with the covered span in nanoseconds
    /// (`newest.at_ns - earliest_included.since_ns`).
    fn window(&self, window: Duration) -> (Vec<Sample>, u64) {
        let q = self.samples.lock();
        let Some(newest) = q.back() else {
            return (Vec::new(), 0);
        };
        let window_ns = window.as_nanos().min(u64::MAX as u128) as u64;
        let cutoff = newest.at_ns.saturating_sub(window_ns);
        let included: Vec<Sample> = q.iter().filter(|s| s.at_ns > cutoff).cloned().collect();
        let span = match included.first() {
            Some(first) => newest.at_ns.saturating_sub(first.since_ns),
            None => 0,
        };
        (included, span)
    }

    /// Sum of a counter's deltas over the window. `None` if the metric
    /// has no counter samples in the window.
    pub fn windowed_sum(&self, name: &str, window: Duration) -> Option<u64> {
        let (samples, _span) = self.window(window);
        let mut sum = None;
        for s in &samples {
            if let Some(SampleDelta::Counter { delta, .. }) = s.deltas.get(name) {
                *sum.get_or_insert(0u64) += delta;
            }
        }
        sum
    }

    /// A counter's rate (events per second) over the window: the summed
    /// deltas divided by the covered span.
    pub fn windowed_rate(&self, name: &str, window: Duration) -> Option<f64> {
        let (samples, span_ns) = self.window(window);
        if span_ns == 0 {
            return None;
        }
        let mut sum = None;
        for s in &samples {
            if let Some(SampleDelta::Counter { delta, .. }) = s.deltas.get(name) {
                *sum.get_or_insert(0u64) += delta;
            }
        }
        sum.map(|s| s as f64 * 1e9 / span_ns as f64)
    }

    /// Exact merge of a histogram's per-tick deltas over the window.
    pub fn windowed_histogram(&self, name: &str, window: Duration) -> Option<HistogramSnapshot> {
        let (samples, _span) = self.window(window);
        let mut merged: Option<HistogramSnapshot> = None;
        for s in &samples {
            if let Some(SampleDelta::Histogram { delta, .. }) = s.deltas.get(name) {
                merged = Some(match merged {
                    Some(m) => m.merge(delta),
                    None => (**delta).clone(),
                });
            }
        }
        merged
    }

    /// Estimated quantile of a histogram's samples recorded within the
    /// window (`None` when no samples landed in it).
    pub fn windowed_quantile(&self, name: &str, window: Duration, q: f64) -> Option<u64> {
        self.windowed_histogram(name, window)?.quantile(q)
    }
}

/// What an [`SloSpec`] constrains.
#[derive(Debug, Clone, PartialEq)]
pub enum SloKind {
    /// `quantile(q)` of histogram `metric` over the window stays below
    /// `max` (same unit as the histogram, typically nanoseconds).
    QuantileBelow { metric: String, q: f64, max: u64 },
    /// Counter `metric`'s rate over the window stays below
    /// `max_per_sec` events/s.
    RateBelow { metric: String, max_per_sec: f64 },
    /// The ratio of two counters' windowed deltas stays below `max`
    /// (e.g. sheds / submits < 0.05).
    RatioBelow {
        numerator: String,
        denominator: String,
        max: f64,
    },
}

/// A declarative service-level objective evaluated over a [`SampleRing`].
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    /// Stable identifier; also names the exported burn gauge
    /// `crowdfill_slo_<name>_burn_milli`.
    pub name: String,
    /// Evaluation window (truncated to what the ring retains).
    pub window: Duration,
    pub kind: SloKind,
}

impl SloSpec {
    /// "p`q` of `metric` below `max_ms` milliseconds over `window`".
    pub fn quantile_below_ms(
        name: &str,
        metric: &str,
        q: f64,
        max_ms: u64,
        window: Duration,
    ) -> SloSpec {
        SloSpec {
            name: name.to_string(),
            window,
            kind: SloKind::QuantileBelow {
                metric: metric.to_string(),
                q,
                max: max_ms.saturating_mul(1_000_000),
            },
        }
    }

    /// "`numerator`/`denominator` below `max` over `window`".
    pub fn ratio_below(
        name: &str,
        numerator: &str,
        denominator: &str,
        max: f64,
        window: Duration,
    ) -> SloSpec {
        SloSpec {
            name: name.to_string(),
            window,
            kind: SloKind::RatioBelow {
                numerator: numerator.to_string(),
                denominator: denominator.to_string(),
                max,
            },
        }
    }

    /// Evaluates against the ring. With no data in the window the
    /// objective trivially holds (value 0, burn 0) — absence of load is
    /// not an SLO violation.
    pub fn evaluate(&self, ring: &SampleRing) -> SloStatus {
        let (value, threshold) = match &self.kind {
            SloKind::QuantileBelow { metric, q, max } => {
                let v = ring
                    .windowed_quantile(metric, self.window, *q)
                    .map(|n| n as f64)
                    .unwrap_or(0.0);
                (v, *max as f64)
            }
            SloKind::RateBelow {
                metric,
                max_per_sec,
            } => {
                let v = ring.windowed_rate(metric, self.window).unwrap_or(0.0);
                (v, *max_per_sec)
            }
            SloKind::RatioBelow {
                numerator,
                denominator,
                max,
            } => {
                let num = ring.windowed_sum(numerator, self.window).unwrap_or(0) as f64;
                let den = ring.windowed_sum(denominator, self.window).unwrap_or(0) as f64;
                let v = if den > 0.0 { num / den } else { 0.0 };
                (v, *max)
            }
        };
        let burn_rate = if threshold > 0.0 {
            value / threshold
        } else if value > 0.0 {
            f64::INFINITY
        } else {
            0.0
        };
        SloStatus {
            name: self.name.clone(),
            value,
            threshold,
            ok: value <= threshold,
            burn_rate,
        }
    }
}

/// Result of evaluating one [`SloSpec`].
#[derive(Debug, Clone, PartialEq)]
pub struct SloStatus {
    pub name: String,
    /// Observed value over the window (unit depends on the kind).
    pub value: f64,
    /// The declared limit, same unit as `value`.
    pub threshold: f64,
    pub ok: bool,
    /// `value / threshold`: above 1.0 the error budget is burning
    /// faster than allowed.
    pub burn_rate: f64,
}

/// Evaluates every spec and exports each burn rate as a gauge
/// `crowdfill_slo_<name>_burn_milli` (milli-units: 1000 = exactly at
/// threshold) in `registry`, so burn itself becomes a sampled series.
pub fn evaluate_slos(
    specs: &[SloSpec],
    ring: &SampleRing,
    registry: &MetricsRegistry,
) -> Vec<SloStatus> {
    specs
        .iter()
        .map(|spec| {
            let status = spec.evaluate(ring);
            let slug: String = spec
                .name
                .chars()
                .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
                .collect();
            let milli = (status.burn_rate * 1000.0).clamp(0.0, i64::MAX as f64) as i64;
            registry
                .gauge(&format!("crowdfill_slo_{slug}_burn_milli"))
                .set(milli);
            status
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tick(tracker: &mut DeltaTracker, reg: &MetricsRegistry, ring: &SampleRing, at_ns: u64) {
        ring.push(tracker.sample(reg, at_ns));
    }

    #[test]
    fn counter_deltas_and_windowed_rate() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("crowdfill_test_ts_ops");
        let ring = SampleRing::new(16);
        let mut tracker = DeltaTracker::new();
        tick(&mut tracker, &reg, &ring, 0);
        c.add(10);
        tick(&mut tracker, &reg, &ring, 1_000_000_000);
        c.add(30);
        tick(&mut tracker, &reg, &ring, 2_000_000_000);
        // Window covering both deltas: 40 events over 2 s.
        let rate = ring
            .windowed_rate("crowdfill_test_ts_ops", Duration::from_secs(2))
            .unwrap();
        assert!((rate - 20.0).abs() < 1e-9, "rate={rate}");
        assert_eq!(
            ring.windowed_sum("crowdfill_test_ts_ops", Duration::from_secs(2)),
            Some(40)
        );
        // Window covering only the last delta: 30 events over 1 s.
        let rate = ring
            .windowed_rate("crowdfill_test_ts_ops", Duration::from_millis(500))
            .unwrap();
        assert!((rate - 30.0).abs() < 1e-9, "rate={rate}");
    }

    #[test]
    fn ring_wraps_keeping_newest() {
        let ring = SampleRing::new(3);
        for i in 0..10u64 {
            ring.push(Sample {
                at_ns: i,
                since_ns: i.saturating_sub(1),
                deltas: BTreeMap::new(),
            });
        }
        let at: Vec<u64> = ring.samples().iter().map(|s| s.at_ns).collect();
        assert_eq!(at, vec![7, 8, 9]);
        assert_eq!(ring.len(), 3);
    }

    #[test]
    fn windowed_quantile_merges_deltas() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("crowdfill_test_ts_lat_ns");
        let ring = SampleRing::new(16);
        let mut tracker = DeltaTracker::new();
        tick(&mut tracker, &reg, &ring, 0);
        for v in [100u64, 110, 120] {
            h.record(v);
        }
        tick(&mut tracker, &reg, &ring, 1_000_000_000);
        for v in [5000u64, 5100] {
            h.record(v);
        }
        tick(&mut tracker, &reg, &ring, 2_000_000_000);
        // Whole window: all five samples; p99 lands in the 4096..8191 bucket.
        let p99 = ring
            .windowed_quantile("crowdfill_test_ts_lat_ns", Duration::from_secs(3), 0.99)
            .unwrap();
        assert!(p99 >= 4096, "p99={p99}");
        // Narrow window: only the last tick's two samples.
        let merged = ring
            .windowed_histogram("crowdfill_test_ts_lat_ns", Duration::from_millis(100))
            .unwrap();
        assert_eq!(merged.count, 2);
    }

    #[test]
    fn slo_evaluation_and_burn_gauge() {
        let reg = MetricsRegistry::new();
        let h = reg.histogram("crowdfill_test_ts_ack_ns");
        let shed = reg.counter("crowdfill_test_ts_sheds");
        let subs = reg.counter("crowdfill_test_ts_submits");
        let ring = SampleRing::new(16);
        let mut tracker = DeltaTracker::new();
        tick(&mut tracker, &reg, &ring, 0);
        for _ in 0..100 {
            h.record(1_000_000); // 1 ms acks
        }
        shed.add(1);
        subs.add(99);
        tick(&mut tracker, &reg, &ring, 1_000_000_000);
        let specs = vec![
            SloSpec::quantile_below_ms(
                "ack-p99",
                "crowdfill_test_ts_ack_ns",
                0.99,
                250,
                Duration::from_secs(60),
            ),
            SloSpec::ratio_below(
                "shed-rate",
                "crowdfill_test_ts_sheds",
                "crowdfill_test_ts_submits",
                0.05,
                Duration::from_secs(60),
            ),
        ];
        let statuses = evaluate_slos(&specs, &ring, &reg);
        assert!(statuses.iter().all(|s| s.ok), "{statuses:?}");
        assert!(statuses[0].burn_rate < 1.0);
        // ~1% shed over a 5% budget → burn ≈ 0.2.
        assert!((statuses[1].burn_rate - 0.202).abs() < 0.01, "{statuses:?}");
        assert_eq!(reg.gauge("crowdfill_slo_shed_rate_burn_milli").get(), 202);
    }

    #[test]
    fn empty_window_is_not_a_violation() {
        let ring = SampleRing::new(4);
        let spec = SloSpec::quantile_below_ms(
            "ack-p99",
            "crowdfill_test_ts_none",
            0.99,
            1,
            Duration::from_secs(1),
        );
        let status = spec.evaluate(&ring);
        assert!(status.ok);
        assert_eq!(status.burn_rate, 0.0);
    }
}
