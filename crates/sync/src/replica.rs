//! A replica of the candidate table (paper §2.4).
//!
//! The server and every client hold a [`Replica`]: a copy of the candidate
//! table plus upvote/downvote histories. Locally-performed operations are
//! applied through [`Replica::apply_local`], which returns the [`Message`] to
//! send to the server; messages received from the network are applied through
//! [`Replica::process`]. By construction, applying a local operation is
//! observably identical to processing its corresponding message — the paper
//! leans on this equivalence in the convergence proof, and a test here
//! asserts it directly.

use crate::history::VoteHistory;
use crowdfill_model::{
    CandidateTable, ClientId, Message, OpError, Operation, RowEntry, RowId, RowValue, Schema,
};
use crowdfill_obs::Counter;
use std::sync::Arc;

/// What a replica has done so far ([`Replica::counts`]): local operations
/// applied and refused, messages processed (local ones included),
/// [`Replica::same_state`] comparisons, and the distinct vectors its vote
/// histories hold.
#[derive(Debug, Clone, Default)]
pub struct ReplicaCounts {
    pub ops_applied: u64,
    pub ops_rejected: u64,
    pub ops_processed: u64,
    /// Counted through `&self`.
    pub divergence_checks: Counter,
    pub vote_history_entries: u64,
}

/// One copy of the evolving candidate table, with vote histories.
#[derive(Debug, Clone)]
pub struct Replica {
    client: ClientId,
    schema: Arc<Schema>,
    next_seq: u64,
    table: CandidateTable,
    uh: VoteHistory,
    dh: VoteHistory,
    /// What `counts` reports but the vote-history size.
    counts: ReplicaCounts,
}

impl Replica {
    /// Creates an empty replica owned by `client`. All replicas in a task
    /// share the same `schema`.
    pub fn new(client: ClientId, schema: Arc<Schema>) -> Replica {
        Replica {
            client,
            table: CandidateTable::new(&schema),
            schema,
            next_seq: 0,
            uh: VoteHistory::new(),
            dh: VoteHistory::new(),
            counts: ReplicaCounts::default(),
        }
    }

    /// Rebuilds a replica from its parts (DESIGN.md §14.3): the vote
    /// histories as `(vector, count)` pairs and the live rows, strictly
    /// ascending by id, each with its value's count in the upvote history
    /// — which the caller reads where it already has it (an image pairs
    /// values and votes by index), so no value is hashed for it. A row's
    /// counts are those Lemma 3 derives, exactly as `Replace` does: its
    /// value's upvotes if it is complete (a debug build asserts the count
    /// is `uh[value]`), and the downvotes of every vector it subsumes — so
    /// an image never carries a count that could disagree with the
    /// histories it rides with. Built in bulk: both histories sized up
    /// front, the table in one pass ([`CandidateTable::from_ascending`]),
    /// and each downvoted vector's count added through the key index
    /// where its key is full, as a downvote's replay would.
    pub fn restore(
        client: ClientId,
        schema: Arc<Schema>,
        next_seq: u64,
        uh: impl ExactSizeIterator<Item = (RowValue, u32)>,
        dh: impl ExactSizeIterator<Item = (RowValue, u32)>,
        rows: impl IntoIterator<Item = (RowId, RowValue, u32)>,
    ) -> Replica {
        let (uh, dh) = (VoteHistory::from_counts(uh), VoteHistory::from_counts(dh));
        let rows = rows.into_iter().map(|(id, value, upvotes)| {
            debug_assert_eq!(upvotes, uh.get(&value), "{id}'s upvotes are uh[value]");
            let upvotes = if value.is_complete(&schema) {
                upvotes
            } else {
                0
            };
            let entry = RowEntry {
                value,
                upvotes,
                downvotes: 0,
            };
            (id, entry)
        });
        let mut table = CandidateTable::from_ascending(&schema, rows);
        for (w, n) in dh.iter() {
            table.add_downvotes(w, n);
        }
        let replica = Replica {
            client,
            schema,
            next_seq,
            table,
            uh,
            dh,
            counts: ReplicaCounts::default(),
        };
        #[cfg(debug_assertions)]
        replica.assert_vote_invariants();
        replica
    }

    /// The owning client.
    pub fn client(&self) -> ClientId {
        self.client
    }

    /// What this replica has done since it was made or restored.
    pub fn counts(&self) -> ReplicaCounts {
        let entries = self.uh.distinct_vectors() + self.dh.distinct_vectors();
        ReplicaCounts {
            vote_history_entries: entries as u64,
            ..self.counts.clone()
        }
    }

    /// The shared schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// Read access to the candidate table.
    pub fn table(&self) -> &CandidateTable {
        &self.table
    }

    /// Read access to the upvote history.
    pub fn upvote_history(&self) -> &VoteHistory {
        &self.uh
    }

    /// Read access to the downvote history.
    pub fn downvote_history(&self) -> &VoteHistory {
        &self.dh
    }

    /// Generates a fresh globally-unique row id (client id × local counter).
    fn fresh_row_id(&mut self) -> RowId {
        let id = RowId::new(self.client, self.next_seq);
        self.next_seq += 1;
        id
    }

    /// The next local row-id counter value (for resume bookkeeping).
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Raises the local row-id counter to at least `n`.
    ///
    /// A replica rebuilt from server history during a full resync starts
    /// its counter at zero, but rows with this client's earlier ids already
    /// exist in the history — reissuing those ids would alias two distinct
    /// rows. The rebuilt replica must therefore inherit the old replica's
    /// counter (or any larger value) before generating new ids.
    pub fn resume_seq_at_least(&mut self, n: u64) {
        if n > self.next_seq {
            self.next_seq = n;
        }
    }

    /// Processes a batch of received messages in order (resume replay).
    pub fn replay<'a>(&mut self, msgs: impl IntoIterator<Item = &'a Message>) {
        for m in msgs {
            self.process(m);
        }
    }

    /// Validates `op` against the local copy and converts it into its wire
    /// message, generating fresh row ids for `insert`/`fill`. Does **not**
    /// apply it.
    fn prepare(&mut self, op: &Operation) -> Result<Message, OpError> {
        match op {
            Operation::Insert => Ok(Message::Insert {
                row: self.fresh_row_id(),
            }),
            Operation::Fill { row, column, value } => {
                let entry = self.table.get(*row).ok_or(OpError::UnknownRow)?;
                if entry.value.has(*column) {
                    return Err(OpError::ColumnAlreadyFilled(*column));
                }
                self.schema.admits(*column, value)?;
                let new_value = entry.value.with(*column, value.clone());
                Ok(Message::Replace {
                    old: *row,
                    new: self.fresh_row_id(),
                    value: new_value,
                })
            }
            Operation::Upvote { row } => {
                let entry = self.table.get(*row).ok_or(OpError::UnknownRow)?;
                if !entry.value.is_complete(&self.schema) {
                    return Err(OpError::RowNotComplete);
                }
                Ok(Message::Upvote {
                    value: entry.value.clone(),
                })
            }
            Operation::Downvote { row } => {
                let entry = self.table.get(*row).ok_or(OpError::UnknownRow)?;
                if !entry.value.is_partial() {
                    return Err(OpError::RowEmpty);
                }
                Ok(Message::Downvote {
                    value: entry.value.clone(),
                })
            }
            Operation::UndoUpvote { row } => {
                let entry = self.table.get(*row).ok_or(OpError::UnknownRow)?;
                if self.uh.get(&entry.value) == 0 {
                    return Err(OpError::NothingToUndo);
                }
                Ok(Message::UndoUpvote {
                    value: entry.value.clone(),
                })
            }
            Operation::UndoDownvote { row } => {
                let entry = self.table.get(*row).ok_or(OpError::UnknownRow)?;
                if self.dh.get(&entry.value) == 0 {
                    return Err(OpError::NothingToUndo);
                }
                Ok(Message::UndoDownvote {
                    value: entry.value.clone(),
                })
            }
        }
    }

    /// Applies a locally-generated operation (paper §2.4, "applying
    /// locally-generated operations") and returns the message to send to the
    /// server. Fails — without side effects — if the operation is invalid
    /// against the current local copy (e.g. the row was already replaced).
    pub fn apply_local(&mut self, op: &Operation) -> Result<Message, OpError> {
        let msg = match self.prepare(op) {
            Ok(msg) => msg,
            Err(err) => {
                self.counts.ops_rejected += 1;
                crowdfill_obs::obs_debug!("sync", "rejected local op: {err}");
                return Err(err);
            }
        };
        self.process(&msg);
        self.counts.ops_applied += 1;
        Ok(msg)
    }

    /// Processes a message received from the network (paper §2.4,
    /// "processing received messages"). Identical logic runs at the server
    /// and at every client.
    pub fn process(&mut self, msg: &Message) {
        match msg {
            Message::Insert { row } => {
                self.table.insert(*row, RowEntry::new(RowValue::empty()));
            }
            Message::Replace { old, new, value } => {
                // "If row r is present, delete r" — it may legitimately be
                // absent when a concurrent replace of the same row won the
                // race at this replica.
                self.table.remove(*old);
                let upvotes = if value.is_complete(&self.schema) {
                    self.uh.get(value)
                } else {
                    0
                };
                let downvotes = self.dh.sum_subsets_of(value);
                self.table.insert(
                    *new,
                    RowEntry {
                        value: value.clone(),
                        upvotes,
                        downvotes,
                    },
                );
            }
            Message::Upvote { value } => {
                self.table.upvote_matching(value);
                self.uh.increment(value);
            }
            Message::Downvote { value } => {
                self.table.downvote_subsuming(value);
                self.dh.increment(value);
            }
            Message::UndoUpvote { value } => {
                // The history decrement guards the table decrement: if two
                // clients concurrently undo the same (single) vote, every
                // replica applies exactly one of the undos and no-ops the
                // other — the counter floor is hit at the same net point
                // everywhere, so replicas stay convergent.
                if self.uh.decrement(value) {
                    self.table.undo_upvote_matching(value);
                }
            }
            Message::UndoDownvote { value } => {
                if self.dh.decrement(value) {
                    self.table.undo_downvote_subsuming(value);
                }
            }
        }
        self.counts.ops_processed += 1;
        #[cfg(debug_assertions)]
        self.assert_vote_invariants();
    }

    /// Two replicas have converged when their candidate tables (rows *and*
    /// vote counts) and vote histories are identical — the condition of the
    /// paper's convergence theorem.
    pub fn same_state(&self, other: &Replica) -> bool {
        self.counts.divergence_checks.inc();
        let same = self.table == other.table && self.uh == other.uh && self.dh == other.dh;
        if !same {
            crowdfill_obs::obs_debug!(
                "sync",
                "divergence between replicas";
                left_client => self.client.0,
                right_client => other.client.0,
            );
        }
        same
    }

    /// Checks Lemma 3's invariants for every row:
    /// `u_r = UH[r̄]` (complete rows; incomplete rows have `u_r = 0` and an
    /// un-voted vector) and `d_r = Σ_{w ⊆ r̄} DH[w]`.
    ///
    /// Run automatically after every `process` in debug builds.
    pub fn assert_vote_invariants(&self) {
        for (id, entry) in self.table.iter() {
            let expect_up = if entry.value.is_complete(&self.schema) {
                self.uh.get(&entry.value)
            } else {
                0
            };
            assert_eq!(
                entry.upvotes, expect_up,
                "Lemma 3 violated at {id}: u_r != UH[r̄]"
            );
            let expect_down = self.dh.sum_subsets_of(&entry.value);
            assert_eq!(
                entry.downvotes, expect_down,
                "Lemma 3 violated at {id}: d_r != Σ DH[w⊆r̄]"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdfill_model::{Column, ColumnId, DataType, Value};

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::new(
                "SoccerPlayer",
                vec![
                    Column::new("name", DataType::Text),
                    Column::new("nationality", DataType::Text),
                    Column::new("position", DataType::Text),
                ],
                &["name", "nationality"],
            )
            .unwrap(),
        )
    }

    fn replica(id: u32) -> Replica {
        Replica::new(ClientId(id), schema())
    }

    #[test]
    fn insert_then_fill_builds_lineage() {
        let mut r = replica(1);
        let m1 = r.apply_local(&Operation::Insert).unwrap();
        let row = m1.creates_row().unwrap();
        assert!(r.table().get(row).unwrap().value.is_empty());

        let m2 = r
            .apply_local(&Operation::fill(row, ColumnId(0), "Messi"))
            .unwrap();
        // fill replaces: the old row is gone, the new row has the value.
        assert!(!r.table().contains(row));
        let new = m2.creates_row().unwrap();
        assert_eq!(
            r.table().get(new).unwrap().value.get(ColumnId(0)),
            Some(&Value::text("Messi"))
        );
        assert_ne!(new, row);
    }

    #[test]
    fn fill_on_filled_column_rejected() {
        let mut r = replica(1);
        let row = r
            .apply_local(&Operation::Insert)
            .unwrap()
            .creates_row()
            .unwrap();
        let row = r
            .apply_local(&Operation::fill(row, ColumnId(0), "Messi"))
            .unwrap()
            .creates_row()
            .unwrap();
        let err = r
            .apply_local(&Operation::fill(row, ColumnId(0), "Neymar"))
            .unwrap_err();
        assert_eq!(err, OpError::ColumnAlreadyFilled(ColumnId(0)));
    }

    #[test]
    fn fill_on_missing_row_rejected() {
        let mut r = replica(1);
        let ghost = RowId::new(ClientId(9), 9);
        assert_eq!(
            r.apply_local(&Operation::fill(ghost, ColumnId(0), "x")),
            Err(OpError::UnknownRow)
        );
    }

    #[test]
    fn fill_validates_schema() {
        let mut r = replica(1);
        let row = r
            .apply_local(&Operation::Insert)
            .unwrap()
            .creates_row()
            .unwrap();
        let err = r
            .apply_local(&Operation::fill(row, ColumnId(0), 42i64))
            .unwrap_err();
        assert!(matches!(err, OpError::Invalid(_)));
    }

    fn complete_row(r: &mut Replica, name: &str) -> RowId {
        let mut row = r
            .apply_local(&Operation::Insert)
            .unwrap()
            .creates_row()
            .unwrap();
        for (col, v) in [(0, name), (1, "Argentina"), (2, "FW")] {
            row = r
                .apply_local(&Operation::fill(row, ColumnId(col), v))
                .unwrap()
                .creates_row()
                .unwrap();
        }
        row
    }

    #[test]
    fn upvote_requires_complete_row() {
        let mut r = replica(1);
        let row = r
            .apply_local(&Operation::Insert)
            .unwrap()
            .creates_row()
            .unwrap();
        assert_eq!(
            r.apply_local(&Operation::Upvote { row }),
            Err(OpError::RowNotComplete)
        );
        let done = complete_row(&mut r, "Messi");
        r.apply_local(&Operation::Upvote { row: done }).unwrap();
        assert_eq!(r.table().get(done).unwrap().upvotes, 1);
    }

    #[test]
    fn downvote_requires_partial_row() {
        let mut r = replica(1);
        let row = r
            .apply_local(&Operation::Insert)
            .unwrap()
            .creates_row()
            .unwrap();
        assert_eq!(
            r.apply_local(&Operation::Downvote { row }),
            Err(OpError::RowEmpty)
        );
        let row = r
            .apply_local(&Operation::fill(row, ColumnId(0), "Messi"))
            .unwrap()
            .creates_row()
            .unwrap();
        r.apply_local(&Operation::Downvote { row }).unwrap();
        assert_eq!(r.table().get(row).unwrap().downvotes, 1);
    }

    #[test]
    fn upvote_hits_all_equal_valued_rows() {
        let mut r = replica(1);
        let a = complete_row(&mut r, "Messi");
        let b = complete_row(&mut r, "Messi"); // duplicate value
        let c = complete_row(&mut r, "Neymar");
        r.apply_local(&Operation::Upvote { row: a }).unwrap();
        assert_eq!(r.table().get(a).unwrap().upvotes, 1);
        assert_eq!(r.table().get(b).unwrap().upvotes, 1);
        assert_eq!(r.table().get(c).unwrap().upvotes, 0);
    }

    /// A row completed *after* its value was already upvoted inherits the
    /// historical upvotes — the UH mechanism at work.
    #[test]
    fn replace_inherits_upvotes_from_history() {
        let mut r = replica(1);
        let a = complete_row(&mut r, "Messi");
        r.apply_local(&Operation::Upvote { row: a }).unwrap();
        r.apply_local(&Operation::Upvote { row: a }).unwrap();
        // Build the same value again via a different lineage.
        let b = complete_row(&mut r, "Messi");
        assert_eq!(r.table().get(b).unwrap().upvotes, 2);
    }

    /// A newly-extended row inherits downvotes cast on any subset of its
    /// value — the DH mechanism at work.
    #[test]
    fn replace_inherits_downvotes_of_subsets() {
        let mut r = replica(1);
        let row = r
            .apply_local(&Operation::Insert)
            .unwrap()
            .creates_row()
            .unwrap();
        let partial = r
            .apply_local(&Operation::fill(row, ColumnId(0), "Messi"))
            .unwrap()
            .creates_row()
            .unwrap();
        r.apply_local(&Operation::Downvote { row: partial })
            .unwrap();
        // Extending the downvoted partial row carries the downvote along.
        let extended = r
            .apply_local(&Operation::fill(partial, ColumnId(1), "Brazil"))
            .unwrap()
            .creates_row()
            .unwrap();
        assert_eq!(r.table().get(extended).unwrap().downvotes, 1);
    }

    /// Applying an operation locally leaves the replica in exactly the state
    /// of a peer that merely processed the generated messages.
    #[test]
    fn local_apply_equals_message_processing() {
        let mut a = replica(1);
        let mut b = replica(2);
        let mut msgs = Vec::new();
        let row = {
            let m = a.apply_local(&Operation::Insert).unwrap();
            msgs.push(m.clone());
            m.creates_row().unwrap()
        };
        let row = {
            let m = a
                .apply_local(&Operation::fill(row, ColumnId(0), "Messi"))
                .unwrap();
            msgs.push(m.clone());
            m.creates_row().unwrap()
        };
        let m = a.apply_local(&Operation::Downvote { row }).unwrap();
        msgs.push(m);
        for m in &msgs {
            b.process(m);
        }
        assert!(a.same_state(&b));
    }

    /// Paper §2.4.1's example: two clients fill different columns of the same
    /// row concurrently; both end with *two* derived rows, not a merged one.
    #[test]
    fn concurrent_fills_fork_the_row() {
        let mut cc = replica(3);
        let m = cc.apply_local(&Operation::Insert).unwrap();
        let row = m.creates_row().unwrap();

        let mut a = replica(1);
        let mut b = replica(2);
        a.process(&m);
        b.process(&m);

        // Concurrently: A fills name, B fills nationality.
        let ma = a
            .apply_local(&Operation::fill(row, ColumnId(0), "Lionel Messi"))
            .unwrap();
        let mb = b
            .apply_local(&Operation::fill(row, ColumnId(1), "Brazil"))
            .unwrap();

        // Cross-deliver.
        a.process(&mb);
        b.process(&ma);
        cc.process(&ma);
        cc.process(&mb);

        assert!(a.same_state(&b));
        assert!(a.same_state(&cc));
        // Two one-cell rows exist; the original empty row is gone.
        assert_eq!(a.table().len(), 2);
        let values: Vec<usize> = a.table().iter().map(|(_, e)| e.value.len()).collect();
        assert_eq!(values, vec![1, 1]);
    }

    /// Same-column concurrent fills leave two sibling rows with the two
    /// (possibly different) values.
    #[test]
    fn concurrent_same_column_fills_keep_both_values() {
        let mut cc = replica(3);
        let m = cc.apply_local(&Operation::Insert).unwrap();
        let row = m.creates_row().unwrap();
        let mut a = replica(1);
        let mut b = replica(2);
        a.process(&m);
        b.process(&m);

        let ma = a
            .apply_local(&Operation::fill(row, ColumnId(0), "Ronaldinho"))
            .unwrap();
        let mb = b
            .apply_local(&Operation::fill(row, ColumnId(0), "Ronaldo"))
            .unwrap();
        a.process(&mb);
        b.process(&ma);
        assert!(a.same_state(&b));
        assert_eq!(a.table().len(), 2);
        let mut names: Vec<String> = a
            .table()
            .iter()
            .map(|(_, e)| e.value.get(ColumnId(0)).unwrap().to_string())
            .collect();
        names.sort();
        assert_eq!(names, vec!["Ronaldinho", "Ronaldo"]);
    }

    #[test]
    fn fresh_ids_are_unique_per_client() {
        let mut r = replica(1);
        let a = r
            .apply_local(&Operation::Insert)
            .unwrap()
            .creates_row()
            .unwrap();
        let b = r
            .apply_local(&Operation::Insert)
            .unwrap()
            .creates_row()
            .unwrap();
        assert_ne!(a, b);
        assert_eq!(a.client, ClientId(1));
    }

    /// A replica rebuilt from history must not reissue its own old row ids:
    /// `resume_seq_at_least` carries the counter across the rebuild.
    #[test]
    fn rebuilt_replica_does_not_reissue_row_ids() {
        let mut original = replica(1);
        let mut history = Vec::new();
        history.push(original.apply_local(&Operation::Insert).unwrap());
        let row = history[0].creates_row().unwrap();
        history.push(
            original
                .apply_local(&Operation::fill(row, ColumnId(0), "Messi"))
                .unwrap(),
        );

        let mut rebuilt = Replica::new(ClientId(1), schema());
        rebuilt.replay(history.iter());
        rebuilt.resume_seq_at_least(original.next_seq());
        assert!(rebuilt.same_state(&original));

        let fresh = rebuilt.apply_local(&Operation::Insert).unwrap();
        let fresh_row = fresh.creates_row().unwrap();
        for m in &history {
            assert_ne!(m.creates_row(), Some(fresh_row), "row id reissued");
        }
    }

    /// A replica rebuilt from its checkpointed parts — histories plus live
    /// row values with their upvote counts, downvotes recomputed via Lemma
    /// 3 — is state-identical.
    #[test]
    fn restore_from_parts_matches_original() {
        let mut r = replica(1);
        let row = complete_row(&mut r, "Messi");
        r.apply_local(&Operation::Upvote { row }).unwrap();
        let root = r
            .apply_local(&Operation::Insert)
            .unwrap()
            .creates_row()
            .unwrap();
        let partial = r
            .apply_local(&Operation::fill(root, ColumnId(0), "Ronaldo"))
            .unwrap()
            .creates_row()
            .unwrap();
        r.apply_local(&Operation::Downvote { row: partial })
            .unwrap();

        let counts = |h: &VoteHistory| {
            let counts: Vec<(RowValue, u32)> = h.iter().map(|(v, n)| (v.clone(), n)).collect();
            counts.into_iter()
        };
        let uh = r.upvote_history();
        let rows: Vec<(RowId, RowValue, u32)> = r
            .table()
            .iter()
            .map(|(id, e)| (id, e.value.clone(), uh.get(&e.value)))
            .collect();
        let rebuilt = Replica::restore(
            r.client(),
            r.schema().clone(),
            r.next_seq(),
            counts(r.upvote_history()),
            counts(r.downvote_history()),
            rows,
        );
        assert!(rebuilt.same_state(&r));
        assert_eq!(rebuilt.next_seq(), r.next_seq());
    }

    #[test]
    fn failed_ops_have_no_side_effects() {
        let mut r = replica(1);
        let row = r
            .apply_local(&Operation::Insert)
            .unwrap()
            .creates_row()
            .unwrap();
        let snapshot = r.clone();
        let _ = r.apply_local(&Operation::Upvote { row }); // fails: incomplete
        let _ = r.apply_local(&Operation::fill(row, ColumnId(0), 42i64)); // fails: type
        assert!(r.same_state(&snapshot));
        assert_eq!(r.next_seq, snapshot.next_seq);
    }
}

#[cfg(test)]
mod undo_tests {
    use super::*;
    use crowdfill_model::{Column, ColumnId, DataType};

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

    fn complete_row(r: &mut Replica, name: &str) -> RowId {
        let mut row = r
            .apply_local(&Operation::Insert)
            .unwrap()
            .creates_row()
            .unwrap();
        for (col, v) in [(0u16, name), (1, "x")] {
            row = r
                .apply_local(&Operation::fill(row, ColumnId(col), v))
                .unwrap()
                .creates_row()
                .unwrap();
        }
        row
    }

    #[test]
    fn undo_upvote_reverses_vote_and_history() {
        let mut r = Replica::new(ClientId(1), schema());
        let row = complete_row(&mut r, "A");
        r.apply_local(&Operation::Upvote { row }).unwrap();
        assert_eq!(r.table().get(row).unwrap().upvotes, 1);
        assert_eq!(
            r.upvote_history()
                .get(&r.table().get(row).unwrap().value.clone()),
            1
        );

        r.apply_local(&Operation::UndoUpvote { row }).unwrap();
        assert_eq!(r.table().get(row).unwrap().upvotes, 0);
        let v = r.table().get(row).unwrap().value.clone();
        assert_eq!(r.upvote_history().get(&v), 0);
    }

    #[test]
    fn undo_downvote_reverses_subsuming_rows() {
        let mut r = Replica::new(ClientId(1), schema());
        // partial {a: A} plus its completion {a: A, b: x}
        let row = r
            .apply_local(&Operation::Insert)
            .unwrap()
            .creates_row()
            .unwrap();
        let partial = r
            .apply_local(&Operation::fill(row, ColumnId(0), "A"))
            .unwrap()
            .creates_row()
            .unwrap();
        r.apply_local(&Operation::Downvote { row: partial })
            .unwrap();
        let full = r
            .apply_local(&Operation::fill(partial, ColumnId(1), "x"))
            .unwrap()
            .creates_row()
            .unwrap();
        // The completion inherited the downvote via DH.
        assert_eq!(r.table().get(full).unwrap().downvotes, 1);

        // Undo targets the partial *value*; the partial row is gone but the
        // superset row sheds the inherited downvote.
        // (Rebuild a row with the partial value so the op can address it.)
        let row2 = r
            .apply_local(&Operation::Insert)
            .unwrap()
            .creates_row()
            .unwrap();
        let partial2 = r
            .apply_local(&Operation::fill(row2, ColumnId(0), "A"))
            .unwrap()
            .creates_row()
            .unwrap();
        assert_eq!(r.table().get(partial2).unwrap().downvotes, 1); // inherited
        r.apply_local(&Operation::UndoDownvote { row: partial2 })
            .unwrap();
        assert_eq!(r.table().get(full).unwrap().downvotes, 0);
        assert_eq!(r.table().get(partial2).unwrap().downvotes, 0);
    }

    #[test]
    fn undo_without_recorded_vote_rejected_locally() {
        let mut r = Replica::new(ClientId(1), schema());
        let row = complete_row(&mut r, "A");
        assert_eq!(
            r.apply_local(&Operation::UndoUpvote { row }),
            Err(OpError::NothingToUndo)
        );
        assert_eq!(
            r.apply_local(&Operation::UndoDownvote { row }),
            Err(OpError::NothingToUndo)
        );
    }

    #[test]
    fn stale_remote_undo_is_ignored_by_guard() {
        let mut r = Replica::new(ClientId(1), schema());
        let row = complete_row(&mut r, "A");
        let v = r.table().get(row).unwrap().value.clone();
        // A remote undo with no matching vote: guarded into a no-op.
        r.process(&Message::UndoUpvote { value: v.clone() });
        assert_eq!(r.table().get(row).unwrap().upvotes, 0);
        assert_eq!(r.upvote_history().get(&v), 0);
        r.assert_vote_invariants();
    }

    #[test]
    fn vote_undo_revote_cycle() {
        let mut a = Replica::new(ClientId(1), schema());
        let mut b = Replica::new(ClientId(2), schema());
        let relay = |m: &Message, other: &mut Replica| other.process(m);

        let row = {
            let m = a.apply_local(&Operation::Insert).unwrap();
            relay(&m, &mut b);
            m.creates_row().unwrap()
        };
        let mut cur = row;
        for (col, v) in [(0u16, "A"), (1, "x")] {
            let m = a
                .apply_local(&Operation::fill(cur, ColumnId(col), v))
                .unwrap();
            cur = m.creates_row().unwrap();
            relay(&m, &mut b);
        }
        for _ in 0..3 {
            let m = a.apply_local(&Operation::Upvote { row: cur }).unwrap();
            relay(&m, &mut b);
            let m = a.apply_local(&Operation::UndoUpvote { row: cur }).unwrap();
            relay(&m, &mut b);
        }
        assert!(a.same_state(&b));
        assert_eq!(a.table().get(cur).unwrap().upvotes, 0);
    }
}
