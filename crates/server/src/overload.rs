//! Overload-protection policy: the knobs shared by the batch pipeline (admission control + load shedding) and the TCP
//! service (slow-client eviction).
//!
//! The model (DESIGN.md §9) in one paragraph: the server admits what it
//! can serve and sheds the rest *before* acknowledging it. Control
//! traffic (resume/sync/stats/health) is answered on the spot by the shard
//! that read it, under the backend lock — `stats` locks every collection's
//! backend in turn, whichever shard owns it — and never queues, so
//! recovery always gets through. Submissions
//! queue in a bounded pipeline; when the queue is full they are rejected
//! at the door, and when a queued op waits longer than its budget it is
//! shed from the queue — both surface as [`SubmitError::Overloaded`]
//! with a `retry_after` hint scaled by queue depth. Speculative fills
//! admit against a lower bound so background traffic yields first. On
//! the fan-out side a connection's one outbound buffer — its writer, what
//! the socket has not taken yet — has a watermark; a reader whose socket
//! stops taking bytes fills it, is downgraded to catch-up-via-`sync`
//! (broadcasts to it are dropped, not buffered) and is evicted if it stays
//! lagging. Because an op is only acked after it is applied and
//! journaled, shedding/rejecting/evicting can never lose an acked
//! submission — the property the overload tests pin down.
//!
//! [`SubmitError::Overloaded`]: crate::backend::SubmitError::Overloaded

use std::time::Duration;

/// Knobs for admission control, load shedding, and slow-client eviction.
///
/// The defaults are sized for the fault/bench harnesses (hundreds of
/// connections, in-process or loopback TCP); production deployments
/// should scale `max_queue`/`write_buffer_frames` with expected fan-out.
#[derive(Debug, Clone)]
pub struct OverloadOptions {
    /// Bound on the batch-pipeline job queue. A submission arriving when
    /// `max_queue` jobs are already waiting is rejected with
    /// `Overloaded` instead of growing memory.
    pub max_queue: usize,
    /// Admission bound for fills the client marked speculative
    /// (prefetch/low-stakes work): they are rejected once queue depth
    /// reaches this (≤ `max_queue`), so they are the first traffic turned
    /// away as load rises.
    pub spec_queue: usize,
    /// Queue-wait budget. A job that has waited longer than
    /// `shed_after` + the batch fill window (`BatchOptions::max_wait`)
    /// when it is taken into a batch is shed — answered
    /// `Overloaded`, never applied, never acked.
    pub shed_after: Duration,
    /// Base for `retry_after` hints; the hint grows with queue depth
    /// (base × (1 + 4·depth/max_queue)) so clients back off harder the
    /// deeper the queue they were turned away from.
    pub retry_after_base: Duration,
    /// Watermark on each connection's outbound buffer, in frames the
    /// socket has not taken yet. A broadcast that finds that many waiting
    /// downgrades the reader to lagging: it is told to catch up via
    /// `sync`, and further broadcasts to it are counted and dropped.
    pub write_buffer_frames: usize,
    /// How long a connection may stay lagging (buffer still full, no
    /// healing `sync`) before the server disconnects it. The session
    /// survives eviction — the client can reconnect and `resume`.
    pub evict_after: Duration,
}

impl Default for OverloadOptions {
    fn default() -> OverloadOptions {
        OverloadOptions {
            max_queue: 1024,
            spec_queue: 512,
            shed_after: Duration::from_secs(2),
            retry_after_base: Duration::from_millis(25),
            write_buffer_frames: 256,
            evict_after: Duration::from_secs(5),
        }
    }
}

impl OverloadOptions {
    /// The `retry_after` hint (in milliseconds) for a client turned away
    /// at queue depth `depth`: the base delay scaled up to 5× as the
    /// queue fills, and never below 1ms so clients always wait.
    pub fn retry_after_ms(&self, depth: usize) -> u64 {
        let base = self.retry_after_base.as_millis() as u64;
        let max_queue = self.max_queue.max(1) as u64;
        let depth = (depth as u64).min(max_queue);
        (base * (1 + 4 * depth / max_queue)).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_hint_scales_with_depth() {
        let opts = OverloadOptions {
            retry_after_base: Duration::from_millis(25),
            max_queue: 100,
            ..OverloadOptions::default()
        };
        assert_eq!(opts.retry_after_ms(0), 25);
        assert_eq!(opts.retry_after_ms(100), 125);
        assert_eq!(opts.retry_after_ms(1000), 125); // clamped at max_queue
        assert!(opts.retry_after_ms(50) > opts.retry_after_ms(0));
    }

    #[test]
    fn retry_hint_never_zero() {
        let opts = OverloadOptions {
            retry_after_base: Duration::ZERO,
            ..OverloadOptions::default()
        };
        assert_eq!(opts.retry_after_ms(0), 1);
    }
}
