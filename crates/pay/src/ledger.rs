//! Settlement's provenance as one fold of the op log (paper §5.2).
//!
//! §5.2 prices the trace `M` against the final table `S`. Of `M`,
//! settlement needs only what some `S` can still ask about, and a
//! [`Ledger`] keeps exactly that, advanced once per log entry — on apply
//! and on journal replay alike:
//!
//! * for each live row, the worker fill behind each of its cells: a
//!   replace hands the replaced row's fills on to the new row and adds its
//!   own;
//! * the first fill of each `(column, value)` — when, whose (or the
//!   Central Client's: a template value) and the row value q̄ it produced —
//!   which serves both §5.2.1's indirect credit and dual weighting's
//!   first-appearance ranks;
//! * each worker's live votes by kind and value, an undo popping the
//!   latest (§8's undo, netted as it happens);
//! * each worker's last entry time, for §5.2.2's latencies (auto-upvotes
//!   included, unlike the §5.3 estimator's clock).
//!
//! Every credited message is a [`Unit`] named by its history seq. The size
//! is O(live rows × columns + distinct filled values + live votes +
//! workers), not O(history), and the checkpoint carries it, so a collection
//! settles the same whether or not it restarted.
//! [`contributions`](Ledger::contributions) reads it against `S`.

use crate::trace::{Millis, TraceEntry, WorkerId};
use crowdfill_model::{ColumnId, Message, RowId, RowValue, Value};
use std::collections::BTreeMap;

/// A message compensation can credit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Unit {
    /// Its history seq.
    pub seq: u64,
    pub worker: WorkerId,
    pub at: Millis,
    /// Time since the worker's previous log entry; `None` for its first.
    pub latency: Option<Millis>,
}

/// The first fill of a `(column, value)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FirstFill {
    pub at: Millis,
    /// The worker's fill, or `None` when the Central Client was first.
    pub unit: Option<Unit>,
    /// The row value the fill produced.
    pub row: RowValue,
}

/// A vote no undo has retracted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Vote {
    pub unit: Unit,
    /// The automatic completion upvote (§3.4): undoable, never paid.
    pub auto: bool,
}

/// The fold (module docs). Its fields are its image: the checkpoint
/// encodes them as they are.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Ledger {
    /// Each live row with a worker-filled cell → those fills, oldest first.
    pub cells: BTreeMap<RowId, Vec<(ColumnId, Unit)>>,
    pub first: BTreeMap<(ColumnId, Value), FirstFill>,
    /// Live votes by (worker, upvote?, value), oldest first.
    pub votes: BTreeMap<(WorkerId, bool, RowValue), Vec<Vote>>,
    pub last_at: BTreeMap<WorkerId, Millis>,
}

impl Ledger {
    /// Folds the log entry at history seq `seq`.
    pub fn advance(&mut self, seq: u64, entry: &TraceEntry) {
        let at = entry.at;
        let unit = entry.worker.map(|worker| {
            let latency = self.last_at.insert(worker, at).map(|t| t.until(at));
            Unit {
                seq,
                worker,
                at,
                latency,
            }
        });
        let vote = |up, value: &RowValue| unit.map(|u| (u, (u.worker, up, value.clone())));
        match &entry.msg {
            Message::Replace { old, new, value } => {
                let mut cells = self.cells.remove(old).unwrap_or_default();
                if let Some(col) = entry.filled {
                    cells.extend(unit.map(|u| (col, u)));
                    let v = value.get(col).expect("a fill holds its value").clone();
                    let first = || FirstFill {
                        at,
                        unit,
                        row: value.clone(),
                    };
                    self.first.entry((col, v)).or_insert_with(first);
                }
                if !cells.is_empty() {
                    self.cells.insert(*new, cells);
                }
            }
            Message::Upvote { value } | Message::Downvote { value } => {
                let up = matches!(entry.msg, Message::Upvote { .. });
                if let Some((unit, key)) = vote(up, value) {
                    let auto = entry.auto_upvote;
                    self.votes.entry(key).or_default().push(Vote { unit, auto });
                }
            }
            Message::UndoUpvote { value } | Message::UndoDownvote { value } => {
                let up = matches!(entry.msg, Message::UndoUpvote { .. });
                if let Some((_, key)) = vote(up, value) {
                    if let Some(live) = self.votes.get_mut(&key) {
                        live.pop();
                        if live.is_empty() {
                            self.votes.remove(&key);
                        }
                    }
                }
            }
            Message::Insert { .. } => {}
        }
    }
}
