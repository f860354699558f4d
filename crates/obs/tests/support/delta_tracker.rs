//! The whole-registry delta ring the reading ring replaced, kept as the
//! oracle of `timeseries_props.rs`: every tick diffs a reading of every
//! instrument against the previous one into a ring of timestamped deltas,
//! and a window merges the deltas of the ticks it covers. The registry
//! lost its typed whole-registry reading with it, so a tick here takes
//! the readings the test lists ([`InstrumentValue`]).

#![allow(dead_code)]

use std::collections::BTreeMap;
use std::collections::VecDeque;
use std::time::Duration;

use crowdfill_obs::metrics::HistogramSnapshot;
use crowdfill_obs::timeseries::SloStatus;

/// A point-in-time reading of one instrument. Counters and histograms
/// carry cumulative totals.
#[derive(Debug, Clone, PartialEq)]
pub enum InstrumentValue {
    Counter(u64),
    Gauge(i64),
    Histogram(Box<HistogramSnapshot>),
}

/// One instrument's movement between two consecutive samples.
#[derive(Debug, Clone, PartialEq)]
pub enum SampleDelta {
    /// Events since the previous tick, plus the cumulative total.
    Counter { delta: u64, total: u64 },
    /// Gauges are levels, not flows: the value at the tick.
    Gauge { value: i64 },
    /// Bucket-exact histogram movement since the previous tick; `max` is
    /// the cumulative max.
    Histogram {
        delta: Box<HistogramSnapshot>,
        total_count: u64,
    },
}

/// One sampling tick: every listed instrument's delta, timestamped.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    pub at_ns: u64,
    /// When the previous tick was taken (0 for the first): the deltas
    /// cover `(since_ns, at_ns]`.
    pub since_ns: u64,
    pub deltas: BTreeMap<String, SampleDelta>,
}

/// Diffs successive readings into [`Sample`]s.
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
    /// non-decreasing across calls). Instruments first listed since the
    /// previous tick appear with their full total as the first delta.
    pub fn sample(&mut self, readings: Vec<(String, InstrumentValue)>, at_ns: u64) -> Sample {
        let at_ns = at_ns.max(self.last_at_ns);
        let since_ns = self.last_at_ns;
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

/// Bounded ring of [`Sample`]s, newest last.
#[derive(Debug)]
pub struct SampleRing {
    capacity: usize,
    samples: VecDeque<Sample>,
}

impl SampleRing {
    pub fn new(capacity: usize) -> SampleRing {
        SampleRing {
            capacity: capacity.max(1),
            samples: VecDeque::new(),
        }
    }

    pub fn push(&mut self, sample: Sample) {
        if self.samples.len() == self.capacity {
            self.samples.pop_front();
        }
        self.samples.push_back(sample);
    }

    pub fn samples(&self) -> Vec<Sample> {
        self.samples.iter().cloned().collect()
    }

    /// Samples whose interval ends within `window` of the newest tick,
    /// with the covered span (`newest.at_ns - earliest_included.since_ns`).
    fn window(&self, window: Duration) -> (Vec<Sample>, u64) {
        let Some(newest) = self.samples.back() else {
            return (Vec::new(), 0);
        };
        let window_ns = window.as_nanos().min(u64::MAX as u128) as u64;
        let cutoff = newest.at_ns.saturating_sub(window_ns);
        let included: Vec<Sample> = self
            .samples
            .iter()
            .filter(|s| s.at_ns > cutoff)
            .cloned()
            .collect();
        let span = match included.first() {
            Some(first) => newest.at_ns.saturating_sub(first.since_ns),
            None => 0,
        };
        (included, span)
    }

    /// Sum of a counter's deltas over the window.
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

    /// A counter's rate (events per second) over the window.
    pub fn windowed_rate(&self, name: &str, window: Duration) -> Option<f64> {
        let (_, span_ns) = self.window(window);
        if span_ns == 0 {
            return None;
        }
        let sum = self.windowed_sum(name, window);
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

    pub fn windowed_quantile(&self, name: &str, window: Duration, q: f64) -> Option<u64> {
        self.windowed_histogram(name, window)?.quantile(q)
    }
}

/// What an [`SloSpec`] constrains (the two kinds a service declared).
#[derive(Debug, Clone, PartialEq)]
pub enum SloKind {
    /// `quantile(q)` of histogram `metric` over the window stays below `max`.
    QuantileBelow { metric: String, q: f64, max: u64 },
    /// The ratio of two counters' windowed deltas stays below `max`.
    RatioBelow {
        numerator: String,
        denominator: String,
        max: f64,
    },
}

/// A declarative objective evaluated over a [`SampleRing`].
#[derive(Debug, Clone, PartialEq)]
pub struct SloSpec {
    pub name: String,
    pub window: Duration,
    pub kind: SloKind,
}

impl SloSpec {
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

    /// With no data in the window the objective holds (value 0, burn 0).
    pub fn evaluate(&self, ring: &SampleRing) -> SloStatus {
        let (value, threshold) = match &self.kind {
            SloKind::QuantileBelow { metric, q, max } => {
                let v = ring
                    .windowed_quantile(metric, self.window, *q)
                    .map(|n| n as f64)
                    .unwrap_or(0.0);
                (v, *max as f64)
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
