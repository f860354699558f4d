//! crowdfill-obs: structured logging, metrics, and span timing.
//!
//! The workspace's observability layer, built on atomics and
//! `parking_lot` only (no external logging/metrics frameworks):
//!
//! * [`log`] — a leveled, structured key-value event log with pluggable
//!   [`Sink`](log::Sink)s (the crate ships a stderr writer, text or JSON
//!   lines). A disabled level costs one relaxed atomic load at the call
//!   site.
//! * [`metrics`] — lock-free [`Counter`](metrics::Counter)s,
//!   [`Gauge`](metrics::Gauge)s, and log-bucketed
//!   [`Histogram`](metrics::Histogram)s (p50/p90/p99/max), and
//!   [`render`](metrics::render), the Prometheus-style plain text of named
//!   [`Sample`](metrics::Sample)s. There is no registry: an instrument is a
//!   plain field of the struct that does the work and has no name, and a
//!   service names its own instruments and its layers' counts, in one
//!   table, when it renders.
//! * [`span`] — [`SpanTimer`](span::SpanTimer), an RAII guard that
//!   records elapsed nanoseconds into a histogram on drop.
//! * [`progress`] — a streaming Chao92-style species estimator
//!   ([`SpeciesEstimator`](progress::SpeciesEstimator)) turning an
//!   observation stream into completeness estimates with confidence
//!   bands, for the progress/auto-stop layer (DESIGN.md §15).
//! * [`timeseries`] — a [`ReadingRing`](timeseries::ReadingRing) of
//!   cumulative readings of the instruments the service's objectives
//!   name, taken on the owner's wakes (no thread or clock of its own);
//!   a window is the difference of two readings, and
//!   [`SloStatus`](timeseries::SloStatus) scores an objective and its
//!   burn rate.
//! * [`trace`] — causal per-op tracing: deterministic
//!   [`TraceId`](trace::TraceId)s/[`SpanId`](trace::SpanId)s, a bounded
//!   [`FlightRecorder`](trace::FlightRecorder) ring of
//!   [`TraceEvent`](trace::TraceEvent)s behind one lock, `OBS_TRACE`
//!   sampling (one relaxed load when off), JSONL dumps, and per-stage
//!   latency summaries.
//!
//! Metric names follow `crowdfill_<crate>_<name>` (e.g.
//! `crowdfill_sync_ops_applied`, `crowdfill_net_bytes_out`). What stays
//! process-wide is what has no owner to hang on: the log sinks and the
//! trace [`FlightRecorder`](trace::FlightRecorder).
//!
//! Call [`init_from_env`] once at binary startup to turn the stderr log
//! on; libraries only emit through whatever sinks the binary installed.

#![forbid(unsafe_code)]

pub mod log;
pub mod metrics;
pub mod progress;
pub mod span;
pub mod timeseries;
pub mod trace;

pub use crate::log::{Event, FieldValue, Level, Sink, StderrFormat, StderrSink};
pub use crate::metrics::{Counter, Gauge, Histogram, Sample};
pub use crate::progress::{ProgressEstimate, SpeciesEstimator};
pub use crate::span::SpanTimer;
pub use crate::timeseries::{Reading, ReadingRing, SloInstruments, SloStatus};
pub use crate::trace::{FlightRecorder, SpanId, Stage, TraceEvent, TraceId, TraceMode};

use std::sync::Once;

static INIT: Once = Once::new();

/// Configures the global logger from the environment; safe to call more
/// than once (later calls are no-ops).
///
/// * `OBS_LEVEL` — `trace` | `debug` | `info` | `warn` | `error` | `off`
///   (default `info`);
/// * `OBS_FORMAT` — `text` | `json` (default `text`);
/// * `OBS_TRACE` — `off` | `sampled:<N>` | `all` (default `off`): op
///   tracing into the [`trace::FlightRecorder`].
///
/// Installs a [`StderrSink`] unless the level is `off`.
pub fn init_from_env() {
    trace::init_from_env();
    INIT.call_once(|| {
        let level = match std::env::var("OBS_LEVEL") {
            Ok(v) => match Level::parse(&v) {
                Some(level) => level,
                None => {
                    eprintln!("obs: ignoring unknown OBS_LEVEL={v:?} (want trace|debug|info|warn|error|off)");
                    Level::Info
                }
            },
            Err(_) => Level::Info,
        };
        let format = match std::env::var("OBS_FORMAT") {
            Ok(v) if v.eq_ignore_ascii_case("json") => StderrFormat::Json,
            Ok(v) if v.eq_ignore_ascii_case("text") => StderrFormat::Text,
            Ok(v) => {
                eprintln!("obs: ignoring unknown OBS_FORMAT={v:?} (want text|json)");
                StderrFormat::Text
            }
            Err(_) => StderrFormat::Text,
        };
        log::set_level(level);
        if level != Level::Off {
            log::add_sink(std::sync::Arc::new(StderrSink::new(format)));
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn init_is_idempotent() {
        let _guard = crate::log::TEST_GLOBAL_LOCK.lock();
        init_from_env();
        init_from_env();
        // Tests must not leave the stderr sink chatting; detach it and
        // re-disable the gate.
        log::clear_sinks();
        log::set_level(Level::Off);
    }
}
