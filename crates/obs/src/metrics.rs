//! Lock-free counters, gauges, and log-bucketed histograms, and the
//! Prometheus-style text exposition of named [`Sample`]s ([`render`]).
//!
//! An instrument has no name and no registry: whoever owns it holds it as
//! a plain field of the struct that does the work (an increment is one
//! relaxed `fetch_add`), and whoever exposes it names its value when it
//! renders.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A copy of the count, counting on by itself.
impl Clone for Counter {
    fn clone(&self) -> Counter {
        Counter {
            value: AtomicU64::new(self.get()),
        }
    }
}

/// A value that can move both ways (queue depths, open connections).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.value.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, delta: i64) {
        self.value.fetch_add(delta, Ordering::Relaxed);
    }

    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Number of histogram buckets: bucket 0 holds zeros, bucket `i` holds
/// values whose bit length is `i` (i.e. `[2^(i-1), 2^i)`), up to the
/// full `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 65;

/// Log-bucketed histogram of `u64` samples (typically nanoseconds).
///
/// Recording is one relaxed `fetch_add` into a power-of-two bucket plus
/// count/sum/max upkeep — no locks. Quantiles are estimated by linear
/// interpolation inside the selected bucket, so an estimate is always
/// within the bucket (at worst a factor-of-2 band) of the true value.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    count: AtomicU64,
    sum: AtomicU64,
    max: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            max: AtomicU64::new(0),
        }
    }
}

/// Bucket index for a sample: its bit length.
#[inline]
pub fn bucket_index(value: u64) -> usize {
    (64 - value.leading_zeros()) as usize
}

/// Inclusive value bounds covered by bucket `i`.
pub fn bucket_bounds(index: usize) -> (u64, u64) {
    match index {
        0 => (0, 0),
        64 => (1 << 63, u64::MAX),
        i => (1 << (i - 1), (1 << i) - 1),
    }
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram::default()
    }

    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
        self.max.fetch_max(value, Ordering::Relaxed);
    }

    #[inline]
    pub fn record_duration(&self, d: std::time::Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A consistent-enough copy for reporting (individual loads are
    /// relaxed; concurrent recording can skew totals by in-flight
    /// samples, which reporting tolerates).
    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed)),
            count: self.count.load(Ordering::Relaxed),
            sum: self.sum.load(Ordering::Relaxed),
            max: self.max.load(Ordering::Relaxed),
        }
    }

    /// Estimated quantile (`q` in `[0, 1]`); `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        self.snapshot().quantile(q)
    }
}

/// A copy of the samples, recording on by itself.
impl Clone for Histogram {
    fn clone(&self) -> Histogram {
        let snap = self.snapshot();
        Histogram {
            buckets: snap.buckets.map(AtomicU64::new),
            count: AtomicU64::new(snap.count),
            sum: AtomicU64::new(snap.sum),
            max: AtomicU64::new(snap.max),
        }
    }
}

/// Plain-data copy of a [`Histogram`], mergeable across sources.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    pub count: u64,
    pub sum: u64,
    pub max: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Combines two snapshots; exact (bucket counts add), hence
    /// associative and commutative.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: std::array::from_fn(|i| self.buckets[i] + other.buckets[i]),
            count: self.count + other.count,
            sum: self.sum.saturating_add(other.sum),
            max: self.max.max(other.max),
        }
    }

    /// Estimated quantile (`q` in `[0, 1]`); `None` when empty.
    ///
    /// # Error bound
    ///
    /// Values are kept in power-of-two log buckets, so the only
    /// information retained about the rank-`⌈q·count⌉` sample is which
    /// bucket `[2^(i-1), 2^i)` it fell in. The estimate interpolates
    /// linearly by the rank's position *within* that bucket, which
    /// guarantees:
    ///
    /// * the estimate lies inside the holding bucket's bounds, i.e.
    ///   within a factor of 2 (strictly: `estimate/true ∈ (1/2, 2)`) of
    ///   the true sample for any bucket `i ≥ 1`, and is exact for
    ///   bucket 0 (the value 0);
    /// * the estimate never exceeds the observed maximum;
    /// * quantiles are monotone in `q` (interpolation is monotone in
    ///   rank and buckets are disjoint and ordered).
    ///
    /// Every consumer in the workspace — the Prometheus-style text of
    /// [`render`], `trace-report`'s per-stage
    /// attribution, and [`TraceSummary`](crate::trace::TraceSummary) —
    /// computes quantiles through this one method, so their numbers
    /// agree on identical samples by construction.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &n) in self.buckets.iter().enumerate() {
            if n == 0 {
                continue;
            }
            if seen + n >= rank {
                let (lo, hi) = bucket_bounds(i);
                // Interpolate by the rank's position within this bucket.
                let within = (rank - seen - 1) as f64 / n as f64;
                let est = lo as f64 + within * (hi - lo) as f64;
                // Never report beyond the observed max.
                return Some((est as u64).min(self.max.max(lo)));
            }
            seen += n;
        }
        Some(self.max)
    }

    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum as f64 / self.count as f64)
        }
    }
}

/// One instrument's value, as the exposition renders it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Sample {
    Counter(u64),
    Gauge(i64),
    Summary(Box<HistogramSnapshot>),
}

impl Sample {
    /// Two values under one name: counts and levels add, distributions
    /// merge.
    ///
    /// # Panics
    /// If they are of different kinds.
    fn merge(&mut self, name: &str, other: Sample) {
        match (self, other) {
            (Sample::Counter(a), Sample::Counter(b)) => *a += b,
            (Sample::Gauge(a), Sample::Gauge(b)) => *a += b,
            (Sample::Summary(a), Sample::Summary(b)) => **a = a.merge(&b),
            _ => panic!("metric {name:?} is rendered as two kinds"),
        }
    }
}

/// Prometheus-style plain-text exposition of named samples. Histograms
/// render as summaries: `_count`, `_sum`, `{quantile="..."}` estimates,
/// and `_max`. Samples that share a name are [merged](Sample::merge)
/// into one.
///
/// The output is **deterministically ordered** — sorted by metric name —
/// so two renderings of the same state are byte-identical and snapshot
/// diffs in tests and bench artifacts are stable.
pub fn render(samples: impl IntoIterator<Item = (String, Sample)>) -> String {
    use std::fmt::Write as _;
    let mut merged: BTreeMap<String, Sample> = BTreeMap::new();
    for (name, sample) in samples {
        if let Some(held) = merged.get_mut(&name) {
            held.merge(&name, sample);
        } else {
            merged.insert(name, sample);
        }
    }
    let mut out = String::new();
    for (name, sample) in &merged {
        match sample {
            Sample::Counter(v) => out.push_str(&format!("# TYPE {name} counter\n{name} {v}\n")),
            Sample::Gauge(v) => out.push_str(&format!("# TYPE {name} gauge\n{name} {v}\n")),
            Sample::Summary(snap) => {
                let _ = writeln!(out, "# TYPE {name} summary");
                let _ = writeln!(out, "{name}_count {}", snap.count);
                let _ = writeln!(out, "{name}_sum {}", snap.sum);
                for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)] {
                    if let Some(v) = snap.quantile(q) {
                        let _ = writeln!(out, "{name}{{quantile=\"{label}\"}} {v}");
                    }
                }
                let _ = writeln!(out, "{name}_max {}", snap.max);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_roundtrip() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.add(-3);
        assert_eq!(g.get(), 4);
    }

    #[test]
    fn bucket_bounds_partition_u64() {
        let mut expected_lo = 0u64;
        for i in 0..HISTOGRAM_BUCKETS {
            let (lo, hi) = bucket_bounds(i);
            assert_eq!(lo, expected_lo, "bucket {i}");
            assert!(lo <= hi);
            for v in [lo, hi] {
                assert_eq!(bucket_index(v), i, "value {v}");
            }
            expected_lo = hi.wrapping_add(1);
        }
        assert_eq!(expected_lo, 0, "buckets must cover all of u64");
    }

    #[test]
    fn histogram_quantiles_bracket_the_data() {
        let h = Histogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        let p50 = h.quantile(0.5).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        // True p50 = 500 (bucket [256,511]), p99 = 990 (bucket [512,1023]).
        assert!((256..=511).contains(&p50), "p50={p50}");
        assert!((512..=1000).contains(&p99), "p99={p99}");
        assert_eq!(h.snapshot().max, 1000);
        assert!(p50 <= p99);
    }

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let h = Histogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.snapshot().mean(), None);
    }

    /// The named samples of a counter, a gauge and a histogram.
    fn samples(c: &Counter, g: &Gauge, h: &Histogram, names: [&str; 3]) -> Vec<(String, Sample)> {
        vec![
            (names[0].to_string(), Sample::Counter(c.get())),
            (names[1].to_string(), Sample::Gauge(g.get())),
            (
                names[2].to_string(),
                Sample::Summary(Box::new(h.snapshot())),
            ),
        ]
    }

    #[test]
    fn snapshot_text_contains_all_kinds() {
        let (c, g, h) = (Counter::new(), Gauge::new(), Histogram::new());
        c.add(3);
        g.set(-2);
        h.record(1500);
        let names = [
            "crowdfill_test_total",
            "crowdfill_test_open",
            "crowdfill_test_latency_ns",
        ];
        let text = render(samples(&c, &g, &h, names));
        assert!(text.contains("# TYPE crowdfill_test_total counter"));
        assert!(text.contains("crowdfill_test_total 3"));
        assert!(text.contains("crowdfill_test_open -2"));
        assert!(text.contains("crowdfill_test_latency_ns_count 1"));
        assert!(text.contains("crowdfill_test_latency_ns_sum 1500"));
        assert!(text.contains("crowdfill_test_latency_ns_max 1500"));
    }

    #[test]
    fn render_is_sorted_by_name_regardless_of_input_order() {
        let (c, g, h) = (Counter::new(), Gauge::new(), Histogram::new());
        // Named deliberately out of order.
        let given = [
            "crowdfill_test_zulu",
            "crowdfill_test_alpha",
            "crowdfill_test_mike",
        ];
        let text = render(samples(&c, &g, &h, given));
        let names: Vec<usize> = ["alpha", "mike", "zulu"]
            .iter()
            .map(|n| text.find(n).expect("metric present"))
            .collect();
        assert!(names[0] < names[1] && names[1] < names[2], "sorted output");
        // Deterministic: identical state renders byte-identically.
        assert_eq!(text, render(samples(&c, &g, &h, given)));
    }

    /// Known-fixture agreement: the quantile value printed in the
    /// Prometheus text is exactly `HistogramSnapshot::quantile` — the
    /// same method `trace-report` and `TraceSummary` use — including the
    /// within-bucket linear interpolation.
    #[test]
    fn prometheus_text_quantiles_match_snapshot_quantiles() {
        let h = Histogram::new();
        // Fixture spanning several log buckets, with a fat middle bucket
        // so interpolation actually moves the estimate off the bound.
        for v in [0, 1, 3, 10, 100, 300, 301, 302, 303, 500, 9000] {
            h.record(v);
        }
        let snap = h.snapshot();
        let text = render([(
            "crowdfill_test_agree_ns".to_string(),
            Sample::Summary(Box::new(snap.clone())),
        )]);
        for (label, q) in [("0.5", 0.5), ("0.9", 0.9), ("0.99", 0.99)] {
            let want = snap.quantile(q).unwrap();
            let line = format!("crowdfill_test_agree_ns{{quantile=\"{label}\"}} {want}");
            assert!(text.contains(&line), "missing {line:?} in:\n{text}");
        }
        // Spot-check the interpolation itself on a hand-computed case:
        // eleven samples, p50 rank 6 → value 300 in bucket [256, 511]
        // holding 5 samples at ranks 6..=10; rank 6 is the first of the
        // five, so the estimate sits at the bucket floor + 0/5.
        assert_eq!(snap.quantile(0.5).unwrap(), 256);
        // p99 rank 11 → the 9000 sample, the only one in [8192, 16383]:
        // interpolation puts rank-1-of-1 at the bucket floor (within a
        // factor of 2 of the true 9000, per the documented bound).
        assert_eq!(snap.quantile(0.99).unwrap(), 8192);
    }

    /// Samples that share a name are one line: counts and levels add,
    /// distributions merge.
    #[test]
    fn render_adds_up_samples_of_one_name() {
        let (a, b) = (Histogram::new(), Histogram::new());
        a.record(10);
        b.record(1000);
        let text = render([
            ("crowdfill_test_c".to_string(), Sample::Counter(2)),
            ("crowdfill_test_g".to_string(), Sample::Gauge(-1)),
            (
                "crowdfill_test_h".to_string(),
                Sample::Summary(Box::new(a.snapshot())),
            ),
            ("crowdfill_test_c".to_string(), Sample::Counter(3)),
            ("crowdfill_test_g".to_string(), Sample::Gauge(4)),
            (
                "crowdfill_test_h".to_string(),
                Sample::Summary(Box::new(b.snapshot())),
            ),
        ]);
        assert_eq!(text.matches("# TYPE").count(), 3, "{text}");
        for line in [
            "crowdfill_test_c 5",
            "crowdfill_test_g 3",
            "crowdfill_test_h_count 2",
            "crowdfill_test_h_max 1000",
        ] {
            assert!(text.lines().any(|l| l == line), "{line:?} in {text}");
        }
    }

    #[test]
    #[should_panic(expected = "two kinds")]
    fn render_refuses_two_kinds_under_one_name() {
        render([
            ("crowdfill_test_kind".to_string(), Sample::Counter(1)),
            ("crowdfill_test_kind".to_string(), Sample::Gauge(1)),
        ]);
    }
}
