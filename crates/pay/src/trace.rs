//! The action trace (paper §5.2).
//!
//! The back-end server stores a complete trace of worker actions as the set
//! `M` of messages it received, each uniquely timestamped and annotated with
//! the originating worker. Messages from the Central Client are *recorded*
//! too (they carry template provenance) but carry no worker and are
//! excluded from `M` for compensation purposes. Settlement reads none of
//! it: the [`Ledger`](crate::Ledger) folds each entry as it is recorded.

use crowdfill_model::{ColumnId, Message};
use std::fmt;

/// Identifies a crowdsourced worker.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct WorkerId(pub u32);

impl fmt::Display for WorkerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "worker#{}", self.0)
    }
}

/// A timestamp in milliseconds since collection start. Integral so it can be
/// ordered and hashed exactly; converted to seconds only for display and
/// regression arithmetic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Millis(pub u64);

impl Millis {
    /// Seconds as a float, for regression/statistics.
    pub fn seconds(self) -> f64 {
        self.0 as f64 / 1000.0
    }

    /// The elapsed time to `later` (saturating).
    pub fn until(self, later: Millis) -> Millis {
        Millis(later.0.saturating_sub(self.0))
    }
}

impl fmt::Display for Millis {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.seconds())
    }
}

/// One recorded message.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceEntry {
    /// Server receipt time (unique per entry is not required; seqs are).
    pub at: Millis,
    /// The originating worker, or `None` for Central-Client messages.
    pub worker: Option<WorkerId>,
    pub msg: Message,
    /// True for the upvote automatically generated when a worker's fill
    /// completed a row (paper §3.4) — applied to the table, but never
    /// compensated as a separate contribution.
    pub auto_upvote: bool,
    /// The column a replace filled, decided once where the message was
    /// applied, against the replaced row before the replace consumed it;
    /// `None` for every other message.
    pub filled: Option<ColumnId>,
}

/// The server's complete, time-ordered action trace.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    entries: Vec<TraceEntry>,
}

impl Trace {
    pub fn new() -> Trace {
        Trace::default()
    }

    /// Appends an entry; timestamps must be non-decreasing (server receipt
    /// order).
    pub fn record(&mut self, entry: TraceEntry) {
        if let Some(last) = self.entries.last() {
            debug_assert!(last.at <= entry.at, "trace timestamps must be ordered");
        }
        self.entries.push(entry);
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn entries(&self) -> &[TraceEntry] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn millis_arithmetic() {
        assert_eq!(Millis(1500).seconds(), 1.5);
        assert_eq!(Millis(1000).until(Millis(2500)), Millis(1500));
        assert_eq!(Millis(2000).until(Millis(1000)), Millis(0)); // saturates
    }
}
