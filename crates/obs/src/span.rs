//! RAII span timing: start a [`SpanTimer`], drop it when the work is
//! done, and the elapsed nanoseconds land in a histogram.

use std::time::Instant;

use crate::metrics::Histogram;

/// Times a scope and records the elapsed nanoseconds on drop.
///
/// ```ignore
/// let timer = SpanTimer::start(&latency_histogram);
/// handle_request();
/// drop(timer); // or just fall off the end of the scope
/// ```
#[must_use = "a SpanTimer records on drop; binding it to _ ends the span immediately"]
pub struct SpanTimer<'a> {
    histogram: &'a Histogram,
    start: Instant,
}

impl<'a> SpanTimer<'a> {
    /// Starts a span recording into `histogram`.
    pub fn start(histogram: &'a Histogram) -> SpanTimer<'a> {
        SpanTimer {
            histogram,
            start: Instant::now(),
        }
    }

    /// Elapsed time so far without ending the span.
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos().min(u64::MAX as u128) as u64
    }
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        self.histogram.record(self.elapsed_ns());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_records_into_histogram() {
        let h = Histogram::new();
        {
            let _t = SpanTimer::start(&h);
            std::hint::black_box((0..1000).sum::<u64>());
        }
        let snap = h.snapshot();
        assert_eq!(snap.count, 1);
        assert!(snap.max > 0);
    }

    #[test]
    fn elapsed_is_monotone() {
        let h = Histogram::new();
        let t = SpanTimer::start(&h);
        let a = t.elapsed_ns();
        std::hint::black_box((0..10_000).sum::<u64>());
        let b = t.elapsed_ns();
        assert!(b >= a);
    }
}
