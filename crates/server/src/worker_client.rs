//! The programmatic worker client (paper §3.4).
//!
//! Stands in for the browser data-entry interface: it holds the worker's
//! local copy of the candidate table, exposes the three worker actions
//! (fill, upvote, downvote), auto-upvotes on completion, and presents rows
//! in a per-worker randomized order (the paper randomizes presentation to
//! spread workers across the table).
//!
//! Actions are applied to the local replica immediately (the UI shows the
//! result without waiting for the server) and returned as [`Outgoing`]
//! messages the caller must submit to the backend.

use crate::wire::TableImage;
use crowdfill_model::{ClientId, ColumnId, Message, OpError, Operation, RowId, Schema, Value};
use crowdfill_pay::WorkerId;
use crowdfill_sync::Replica;
use std::sync::Arc;

/// A message the client produced, ready for submission.
#[derive(Debug, Clone)]
pub struct Outgoing {
    pub msg: Message,
    /// True for the automatic completion upvote.
    pub auto_upvote: bool,
}

/// Which way this worker voted on a value (for local undo validation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OwnVote {
    Up,
    Down,
}

/// A worker's local state.
#[derive(Clone)]
pub struct WorkerClient {
    worker: WorkerId,
    replica: Replica,
    /// Seed for the per-worker row shuffle.
    shuffle_seed: u64,
    /// This worker's own standing votes: undo is only valid against these
    /// (the own-votes-only discipline that keeps undos convergent).
    own_votes: std::collections::HashMap<crowdfill_model::RowValue, OwnVote>,
}

impl WorkerClient {
    /// Creates a client after [`Backend::connect`](crate::Backend::connect),
    /// replaying the returned history to reproduce the master table.
    pub fn new(
        worker: WorkerId,
        client: ClientId,
        schema: Arc<Schema>,
        history: &[Message],
    ) -> WorkerClient {
        let mut replica = Replica::new(client, schema);
        replica.replay(history);
        WorkerClient::with_replica(worker, replica)
    }

    /// Creates a client from a bootstrap as the wire carries it: the
    /// replica the image describes, then the log since it was taken.
    pub fn from_image(
        worker: WorkerId,
        client: ClientId,
        schema: Arc<Schema>,
        image: &TableImage,
        log: &[Message],
    ) -> WorkerClient {
        let mut replica = image.replica(client, schema, 0);
        replica.replay(log);
        WorkerClient::with_replica(worker, replica)
    }

    fn with_replica(worker: WorkerId, replica: Replica) -> WorkerClient {
        WorkerClient {
            worker,
            replica,
            shuffle_seed: 0x9E37_79B9_7F4A_7C15u64 ^ ((worker.0 as u64) << 17),
            own_votes: std::collections::HashMap::new(),
        }
    }

    pub fn worker(&self) -> WorkerId {
        self.worker
    }

    /// The worker's local replica (read access).
    pub fn replica(&self) -> &Replica {
        &self.replica
    }

    /// Absorbs a message broadcast by the server.
    pub fn absorb(&mut self, msg: &Message) {
        self.replica.process(msg);
    }

    /// Replaces the local replica with a bootstrap's — a reset, or the
    /// client's recovery of last resort, after its state has provably
    /// diverged (a locally-applied action the server finally rejected).
    /// Own-vote records and the row-id counter survive: the former keep
    /// undo validation working, the latter prevents the client from
    /// re-issuing row ids from its previous life (which would collide
    /// server-side).
    pub fn adopt(&mut self, image: &TableImage, log: &[Message]) {
        let (client, schema) = (self.replica.client(), Arc::clone(self.replica.schema()));
        let mut replica = image.replica(client, schema, self.replica.next_seq());
        replica.replay(log);
        self.replica = replica;
    }

    /// Drops the own-vote record for a vote the server finally rejected: it
    /// never landed and never will, so undo must not be offered against it.
    pub fn retract_own_vote_record(&mut self, msg: &Message) {
        match msg {
            Message::Upvote { value } if self.own_votes.get(value) == Some(&OwnVote::Up) => {
                self.own_votes.remove(value);
            }
            Message::Downvote { value } if self.own_votes.get(value) == Some(&OwnVote::Down) => {
                self.own_votes.remove(value);
            }
            _ => {}
        }
    }

    /// The rows as presented to this worker: a deterministic per-worker
    /// shuffle of the table's row ids (§3.4 "each client randomizes the
    /// order of rows").
    pub fn presented_rows(&self) -> Vec<RowId> {
        let mut rows: Vec<RowId> = self.replica.table().row_ids().collect();
        // Fisher–Yates with a splitmix-style hash of (seed, i).
        let mut state = self.shuffle_seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        for i in (1..rows.len()).rev() {
            let j = (next() % (i as u64 + 1)) as usize;
            rows.swap(i, j);
        }
        rows
    }

    /// Fills an empty cell. Returns the replace message plus, if the fill
    /// completed the row, the automatic upvote (§3.4). The new row id is in
    /// the replace message.
    pub fn fill(
        &mut self,
        row: RowId,
        column: ColumnId,
        value: Value,
    ) -> Result<Vec<Outgoing>, OpError> {
        let msg = self
            .replica
            .apply_local(&Operation::Fill { row, column, value })?;
        let new_row = msg.creates_row().expect("replace creates a row");
        let mut out = vec![Outgoing {
            msg,
            auto_upvote: false,
        }];
        let completed = self
            .replica
            .table()
            .get(new_row)
            .is_some_and(|e| e.value.is_complete(self.replica.schema()));
        if completed {
            let up = self
                .replica
                .apply_local(&Operation::Upvote { row: new_row })
                .expect("completed row is upvotable");
            if let Message::Upvote { value } = &up {
                self.own_votes.insert(value.clone(), OwnVote::Up);
            }
            out.push(Outgoing {
                msg: up,
                auto_upvote: true,
            });
        }
        Ok(out)
    }

    /// Upvotes a complete row.
    pub fn upvote(&mut self, row: RowId) -> Result<Outgoing, OpError> {
        let msg = self.replica.apply_local(&Operation::Upvote { row })?;
        if let Message::Upvote { value } = &msg {
            self.own_votes.insert(value.clone(), OwnVote::Up);
        }
        Ok(Outgoing {
            msg,
            auto_upvote: false,
        })
    }

    /// Downvotes a partial row.
    pub fn downvote(&mut self, row: RowId) -> Result<Outgoing, OpError> {
        let msg = self.replica.apply_local(&Operation::Downvote { row })?;
        if let Message::Downvote { value } = &msg {
            self.own_votes.insert(value.clone(), OwnVote::Down);
        }
        Ok(Outgoing {
            msg,
            auto_upvote: false,
        })
    }

    /// Retracts an earlier upvote on `row` (paper §8 undo). Only this
    /// worker's own standing upvote may be retracted — the discipline that
    /// keeps undo messages convergent; the server enforces it again.
    pub fn undo_upvote(&mut self, row: RowId) -> Result<Outgoing, OpError> {
        let value = self
            .replica
            .table()
            .get(row)
            .ok_or(OpError::UnknownRow)?
            .value
            .clone();
        if self.own_votes.get(&value) != Some(&OwnVote::Up) {
            return Err(OpError::NothingToUndo);
        }
        let msg = self.replica.apply_local(&Operation::UndoUpvote { row })?;
        self.own_votes.remove(&value);
        Ok(Outgoing {
            msg,
            auto_upvote: false,
        })
    }

    /// Retracts an earlier downvote on `row` (own votes only).
    pub fn undo_downvote(&mut self, row: RowId) -> Result<Outgoing, OpError> {
        let value = self
            .replica
            .table()
            .get(row)
            .ok_or(OpError::UnknownRow)?
            .value
            .clone();
        if self.own_votes.get(&value) != Some(&OwnVote::Down) {
            return Err(OpError::NothingToUndo);
        }
        let msg = self.replica.apply_local(&Operation::UndoDownvote { row })?;
        self.own_votes.remove(&value);
        Ok(Outgoing {
            msg,
            auto_upvote: false,
        })
    }

    /// The worker-level *modify* action (paper §8): overwrite the non-empty
    /// `column` of `row` with `value`, translated into the primitive series
    /// the paper prescribes — downvote the old row, insert a fresh row, and
    /// fill it with the old row's values, `column` replaced.
    ///
    /// Submit the result through [`Backend::submit_modify`], which
    /// authorizes the embedded insert (workers cannot insert rows
    /// otherwise).
    ///
    /// [`Backend::submit_modify`]: crate::Backend::submit_modify
    pub fn modify(
        &mut self,
        row: RowId,
        column: ColumnId,
        value: Value,
    ) -> Result<Vec<Outgoing>, OpError> {
        let old = self
            .replica
            .table()
            .get(row)
            .ok_or(OpError::UnknownRow)?
            .value
            .clone();
        if !old.has(column) {
            // Nothing to overwrite: a plain fill is the right action.
            return self.fill(row, column, value);
        }
        self.replica.schema().admits(column, &value)?;
        let mut out = Vec::new();
        let down = self.replica.apply_local(&Operation::Downvote { row })?;
        out.push(Outgoing {
            msg: down,
            auto_upvote: false,
        });
        let insert = self.replica.apply_local(&Operation::Insert)?;
        let mut new_row = insert.creates_row().expect("insert creates");
        out.push(Outgoing {
            msg: insert,
            auto_upvote: false,
        });
        // Refill: corrected column first, then the surviving values.
        let mut cells: Vec<(ColumnId, Value)> = vec![(column, value)];
        cells.extend(
            old.iter()
                .filter(|(c, _)| *c != column)
                .map(|(c, v)| (c, v.clone())),
        );
        for (col, v) in cells {
            let fills = self.fill(new_row, col, v)?;
            new_row = fills[0].msg.creates_row().expect("fill creates");
            out.extend(fills);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdfill_model::{Column, DataType, MessageKind};

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::new(
                "T",
                vec![
                    Column::new("a", DataType::Text),
                    Column::new("b", DataType::Text),
                ],
                &["a"],
            )
            .unwrap(),
        )
    }

    fn seeded_history(schema: &Arc<Schema>) -> (Vec<Message>, RowId) {
        let mut cc = Replica::new(ClientId::CENTRAL, Arc::clone(schema));
        let m = cc.apply_local(&Operation::Insert).unwrap();
        let row = m.creates_row().unwrap();
        (vec![m], row)
    }

    #[test]
    fn history_replay_builds_local_table() {
        let s = schema();
        let (history, row) = seeded_history(&s);
        let client = WorkerClient::new(WorkerId(1), ClientId(1), s, &history);
        assert!(client.replica().table().contains(row));
    }

    #[test]
    fn completing_fill_auto_upvotes() {
        let s = schema();
        let (history, row) = seeded_history(&s);
        let mut client = WorkerClient::new(WorkerId(1), ClientId(1), s, &history);
        let out = client.fill(row, ColumnId(0), Value::text("x")).unwrap();
        assert_eq!(out.len(), 1); // partial: no auto upvote
        let new_row = out[0].msg.creates_row().unwrap();
        let out = client.fill(new_row, ColumnId(1), Value::text("y")).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].msg.kind(), MessageKind::Replace);
        assert_eq!(out[1].msg.kind(), MessageKind::Upvote);
        assert!(out[1].auto_upvote);
        // Applied locally too.
        let done = out[0].msg.creates_row().unwrap();
        assert_eq!(client.replica().table().get(done).unwrap().upvotes, 1);
    }

    #[test]
    fn shuffle_is_deterministic_per_worker_and_differs_between_workers() {
        let s = schema();
        let mut cc = Replica::new(ClientId::CENTRAL, Arc::clone(&s));
        let mut history = Vec::new();
        for _ in 0..16 {
            history.push(cc.apply_local(&Operation::Insert).unwrap());
        }
        let c1 = WorkerClient::new(WorkerId(1), ClientId(1), Arc::clone(&s), &history);
        let c1b = WorkerClient::new(WorkerId(1), ClientId(1), Arc::clone(&s), &history);
        let c2 = WorkerClient::new(WorkerId(2), ClientId(2), s, &history);
        assert_eq!(c1.presented_rows(), c1b.presented_rows());
        assert_ne!(c1.presented_rows(), c2.presented_rows());
        // Same set, different order.
        let mut a = c1.presented_rows();
        let mut b = c2.presented_rows();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn invalid_actions_bubble_up() {
        let s = schema();
        let (history, row) = seeded_history(&s);
        let mut client = WorkerClient::new(WorkerId(1), ClientId(1), s, &history);
        assert!(matches!(client.upvote(row), Err(OpError::RowNotComplete)));
        assert!(matches!(client.downvote(row), Err(OpError::RowEmpty)));
    }
}
