//! Contribution analysis (paper §5.2.1).
//!
//! Given the trace `M` — as the [`Ledger`] folded it — and the final table
//! `S`, determine which messages contributed to `S`:
//!
//! * **direct replace** — for each worker-entered cell `s.A`, the replace in
//!   the lineage chain ending at `s` that filled column `A` (exactly one);
//! * **indirect replace** — the *earliest* fill of the same `(A, v)` whose
//!   resulting row value is a subset of `s̄` (at most one; none when the
//!   value came from a template row, i.e. the Central Client was first);
//! * **upvote** — upvotes whose value equals a final row's value, excluding
//!   the automatic completion upvote;
//! * **downvote** — downvotes consistent with all of `S` (no final row
//!   subsumes the downvoted vector).
//!
//! Undone votes (paper §8's undo) never count: the ledger netted them.

use crate::ledger::{Ledger, Unit};
use crate::trace::Millis;
use crowdfill_model::{ColumnId, FinalTable, RowId, Value};

/// A cell of the final table, identified by its (winning) row id and column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct CellRef {
    pub row: RowId,
    pub column: ColumnId,
}

/// The contributors to one worker-entered final cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CellContribution {
    pub cell: CellRef,
    pub value: Value,
    /// The replace that filled this cell in the winning lineage.
    pub direct: Unit,
    /// The earliest subset-compatible fill of the same `(column, value)`,
    /// when different from a template seeding. May equal `direct`.
    pub indirect: Option<Unit>,
    /// When `(column, value)` first appeared, by anyone: the rank order of
    /// dual weighting.
    pub first_at: Millis,
}

/// Everything the allocation schemes need to distribute the budget.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Contributions {
    /// `C`: worker-entered final cells with their contributors.
    pub cells: Vec<CellContribution>,
    /// `U`: contributing upvotes, in log order.
    pub upvotes: Vec<Unit>,
    /// `D`: contributing downvotes, in log order.
    pub downvotes: Vec<Unit>,
}

impl Contributions {
    /// `|C| + |U| + |D|`, the uniform-allocation denominator.
    pub fn total_units(&self) -> usize {
        self.cells.len() + self.upvotes.len() + self.downvotes.len()
    }

    /// The seqs of all messages that contributed in any way (deduplicated).
    pub fn contributing_messages(&self) -> Vec<u64> {
        let mut out: Vec<u64> = self
            .cells
            .iter()
            .flat_map(|c| std::iter::once(c.direct).chain(c.indirect))
            .chain(self.upvotes.iter().copied())
            .chain(self.downvotes.iter().copied())
            .map(|u| u.seq)
            .collect();
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The worker-entered cells in a given column.
    pub fn cells_in_column(&self, col: ColumnId) -> impl Iterator<Item = &CellContribution> {
        self.cells.iter().filter(move |c| c.cell.column == col)
    }
}

impl Ledger {
    /// Runs the full §5.2.1 analysis against the final table.
    pub fn contributions(&self, final_table: &FinalTable) -> Contributions {
        let mut cells = Vec::new();
        for frow in final_table.rows() {
            // Newest fill first: the order a walk back along the lineage
            // meets them.
            for &(column, direct) in self.cells.get(&frow.id).into_iter().flatten().rev() {
                let value = frow.value.get(column).expect("a fill holds its value");
                let first = self.first.get(&(column, value.clone()));
                let first = first.expect("a filled value has a first fill");
                cells.push(CellContribution {
                    cell: CellRef {
                        row: frow.id,
                        column,
                    },
                    value: value.clone(),
                    direct,
                    indirect: first.unit.filter(|_| frow.value.subsumes(&first.row)),
                    first_at: first.at,
                });
            }
        }
        let (mut upvotes, mut downvotes) = (Vec::new(), Vec::new());
        for ((_, up, value), live) in &self.votes {
            if *up && final_table.row_with_value(value).is_some() {
                upvotes.extend(live.iter().filter(|v| !v.auto).map(|v| v.unit));
            } else if !*up && !final_table.any_subsumes(value) {
                downvotes.extend(live.iter().map(|v| v.unit));
            }
        }
        upvotes.sort_unstable_by_key(|u| u.seq);
        downvotes.sort_unstable_by_key(|u| u.seq);
        Contributions {
            cells,
            upvotes,
            downvotes,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TraceEntry, WorkerId};
    use crowdfill_model::{
        derive_final_table, ClientId, Column, DataType, Operation, QuorumMajority, Schema,
    };
    use crowdfill_sync::Replica;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::new(
                "T",
                vec![
                    Column::new("name", DataType::Text),
                    Column::new("pos", DataType::Text),
                ],
                &["name"],
            )
            .unwrap(),
        )
    }

    /// Replays ops through a replica while folding the ledger, so tests
    /// construct realistic (Lemma-consistent) histories.
    struct Build {
        replica: Replica,
        ledger: Ledger,
        seq: u64,
        now: Millis,
    }

    impl Build {
        fn new() -> Build {
            Build {
                replica: Replica::new(ClientId(10), schema()),
                ledger: Ledger::default(),
                seq: 0,
                now: Millis(0),
            }
        }

        /// Applies `op` as `worker` (the Central Client when `None`) and
        /// folds it; returns its seq and the row it created.
        fn record(&mut self, worker: Option<u32>, op: &Operation, auto: bool) -> (u64, RowId) {
            let msg = self.replica.apply_local(op).unwrap();
            let filled = match op {
                Operation::Fill { column, .. } => Some(*column),
                _ => None,
            };
            let row = msg.creates_row().unwrap_or(RowId::new(ClientId(0), 0));
            self.now = Millis(self.now.0 + 1000);
            let entry = TraceEntry {
                at: self.now,
                worker: worker.map(WorkerId),
                msg,
                auto_upvote: auto,
                filled,
            };
            let seq = self.seq;
            self.ledger.advance(seq, &entry);
            self.seq += 1;
            (seq, row)
        }

        fn system(&mut self, op: &Operation) -> RowId {
            self.record(None, op, false).1
        }

        fn worker(&mut self, w: u32, op: &Operation) -> (u64, RowId) {
            self.record(Some(w), op, false)
        }

        fn auto_upvote(&mut self, w: u32, row: RowId) -> u64 {
            self.record(Some(w), &Operation::Upvote { row }, true).0
        }

        fn analyze(&self) -> Contributions {
            let ft = derive_final_table(
                self.replica.table(),
                self.replica.schema(),
                &QuorumMajority::of_three(),
            );
            self.ledger.contributions(&ft)
        }
    }

    fn seqs(units: &[Unit]) -> Vec<u64> {
        units.iter().map(|u| u.seq).collect()
    }

    #[test]
    fn direct_contribution_follows_winning_lineage() {
        let mut b = Build::new();
        let r0 = b.system(&Operation::Insert);
        let (i_name, r1) = b.worker(1, &Operation::fill(r0, ColumnId(0), "Messi"));
        let (i_pos, done) = b.worker(2, &Operation::fill(r1, ColumnId(1), "FW"));
        b.auto_upvote(2, done);
        b.worker(3, &Operation::Upvote { row: done });

        let c = b.analyze();
        assert_eq!(c.cells.len(), 2);
        let cell = |col| c.cells.iter().find(|c| c.cell.column == col).unwrap();
        let (name_cell, pos_cell) = (cell(ColumnId(0)), cell(ColumnId(1)));
        assert_eq!(name_cell.direct.seq, i_name);
        assert_eq!(pos_cell.direct.seq, i_pos);
        // First (and only) fills of their values: direct == indirect.
        assert_eq!(name_cell.indirect, Some(name_cell.direct));
        assert_eq!(pos_cell.indirect, Some(pos_cell.direct));
        assert_eq!(name_cell.first_at, name_cell.direct.at);
    }

    #[test]
    fn indirect_goes_to_first_filler_on_losing_branch() {
        let mut b = Build::new();
        // Worker 1 fills "Messi" into row A (earliest), but that branch dies;
        // worker 2 independently fills "Messi" into row B which wins.
        let ra = b.system(&Operation::Insert);
        let rb = b.system(&Operation::Insert);
        let (i_first, _) = b.worker(1, &Operation::fill(ra, ColumnId(0), "Messi"));
        let (i_second, r1) = b.worker(2, &Operation::fill(rb, ColumnId(0), "Messi"));
        let (_, done) = b.worker(2, &Operation::fill(r1, ColumnId(1), "FW"));
        b.auto_upvote(2, done);
        b.worker(3, &Operation::Upvote { row: done });

        let c = b.analyze();
        let name_cell = c
            .cells
            .iter()
            .find(|c| c.cell.column == ColumnId(0))
            .unwrap();
        assert_eq!(name_cell.direct.seq, i_second);
        assert_eq!(name_cell.indirect.map(|u| u.seq), Some(i_first));
        assert_eq!(name_cell.indirect.unwrap().worker, WorkerId(1));
    }

    #[test]
    fn template_values_get_no_indirect_credit() {
        let mut b = Build::new();
        let r0 = b.system(&Operation::Insert);
        // CC seeds the name (template value).
        let seeded = b.system(&Operation::fill(r0, ColumnId(0), "Messi"));
        // A worker later re-enters the same (column, value) elsewhere...
        let other = b.system(&Operation::Insert);
        b.worker(1, &Operation::fill(other, ColumnId(0), "Messi"));
        // ...and completes the seeded row.
        let (i_pos, done) = b.worker(2, &Operation::fill(seeded, ColumnId(1), "FW"));
        b.auto_upvote(2, done);
        b.worker(3, &Operation::Upvote { row: done });

        let c = b.analyze();
        // Only the position cell is worker-entered (the name came from CC).
        assert_eq!(c.cells.len(), 1);
        assert_eq!(c.cells[0].cell.column, ColumnId(1));
        assert_eq!(c.cells[0].direct.seq, i_pos);
    }

    #[test]
    fn incompatible_first_fill_gets_no_indirect_credit() {
        let mut b = Build::new();
        // Worker 1 first enters pos=FW but *in a row whose name conflicts*
        // with the final row, so q̄ ⊄ s̄.
        let ra = b.system(&Operation::Insert);
        let (_, ra1) = b.worker(1, &Operation::fill(ra, ColumnId(0), "Xavi"));
        b.worker(1, &Operation::fill(ra1, ColumnId(1), "FW"));
        // Worker 2 builds the winning Messi/FW row.
        let rb = b.system(&Operation::Insert);
        let (_, rb1) = b.worker(2, &Operation::fill(rb, ColumnId(0), "Messi"));
        let (i_good, done) = b.worker(2, &Operation::fill(rb1, ColumnId(1), "FW"));
        b.auto_upvote(2, done);
        b.worker(3, &Operation::Upvote { row: done });

        // Both rows are complete; Xavi has no votes → score 0 → only Messi.
        let c = b.analyze();
        let pos_cell = c
            .cells
            .iter()
            .find(|c| c.cell.column == ColumnId(1) && c.direct.seq == i_good)
            .unwrap();
        // Worker 1 was first with (pos, FW) but in an incompatible row.
        assert_eq!(pos_cell.indirect, None);
    }

    #[test]
    fn auto_upvotes_are_not_contributions() {
        let mut b = Build::new();
        let r0 = b.system(&Operation::Insert);
        let (_, r1) = b.worker(1, &Operation::fill(r0, ColumnId(0), "Messi"));
        let (_, done) = b.worker(1, &Operation::fill(r1, ColumnId(1), "FW"));
        let auto = b.auto_upvote(1, done);
        let manual = b.worker(2, &Operation::Upvote { row: done }).0;

        let c = b.analyze();
        assert_eq!(seqs(&c.upvotes), vec![manual]);
        assert!(!seqs(&c.upvotes).contains(&auto));
    }

    #[test]
    fn upvotes_on_losing_rows_do_not_contribute() {
        let mut b = Build::new();
        // Two complete rows, same key; the second gets more upvotes and wins.
        let ra = b.system(&Operation::Insert);
        let (_, r1) = b.worker(1, &Operation::fill(ra, ColumnId(0), "Messi"));
        let (_, lose) = b.worker(1, &Operation::fill(r1, ColumnId(1), "MF"));
        b.auto_upvote(1, lose);
        let i_lose_vote = b.worker(2, &Operation::Upvote { row: lose }).0;

        let rb = b.system(&Operation::Insert);
        let (_, r1) = b.worker(3, &Operation::fill(rb, ColumnId(0), "Messi"));
        let (_, win) = b.worker(3, &Operation::fill(r1, ColumnId(1), "FW"));
        b.auto_upvote(3, win);
        let i_win_a = b.worker(4, &Operation::Upvote { row: win }).0;
        let i_win_b = b.worker(5, &Operation::Upvote { row: win }).0;

        let c = b.analyze();
        assert_eq!(seqs(&c.upvotes), vec![i_win_a, i_win_b]);
        assert!(!seqs(&c.upvotes).contains(&i_lose_vote));
    }

    #[test]
    fn downvotes_contribute_only_when_consistent_with_final_table() {
        let mut b = Build::new();
        // Winning row: Messi/FW. A downvote on "Xavi" (absent from S) is
        // consistent; a downvote on "Messi" (subset of the final row) is not.
        let ra = b.system(&Operation::Insert);
        let (_, messi_partial) = b.worker(1, &Operation::fill(ra, ColumnId(0), "Messi"));
        let rb = b.system(&Operation::Insert);
        let (_, xavi_partial) = b.worker(2, &Operation::fill(rb, ColumnId(0), "Xavi"));

        let i_inconsistent = b.worker(3, &Operation::Downvote { row: messi_partial }).0;
        let i_consistent = b.worker(3, &Operation::Downvote { row: xavi_partial }).0;
        let i_consistent2 = b.worker(4, &Operation::Downvote { row: xavi_partial }).0;

        let (_, done) = b.worker(1, &Operation::fill(messi_partial, ColumnId(1), "FW"));
        b.auto_upvote(1, done);
        b.worker(2, &Operation::Upvote { row: done });
        b.worker(5, &Operation::Upvote { row: done });

        let c = b.analyze();
        assert_eq!(seqs(&c.downvotes), vec![i_consistent, i_consistent2]);
        assert!(!seqs(&c.downvotes).contains(&i_inconsistent));
    }

    #[test]
    fn an_undo_retracts_the_latest_vote_and_the_ledger_forgets_both() {
        let mut b = Build::new();
        let r0 = b.system(&Operation::Insert);
        let (_, r1) = b.worker(1, &Operation::fill(r0, ColumnId(0), "Messi"));
        let (_, done) = b.worker(1, &Operation::fill(r1, ColumnId(1), "FW"));
        b.auto_upvote(1, done);
        let before = b.ledger.votes.clone();
        b.worker(2, &Operation::Upvote { row: done });
        b.worker(2, &Operation::UndoUpvote { row: done });
        assert_eq!(b.ledger.votes, before, "a vote-then-undo leaves no trace");
        let kept = b.worker(3, &Operation::Upvote { row: done }).0;

        let c = b.analyze();
        assert_eq!(seqs(&c.upvotes), vec![kept]);
    }

    #[test]
    fn totals_and_message_listing() {
        let mut b = Build::new();
        let r0 = b.system(&Operation::Insert);
        let (i1, r1) = b.worker(1, &Operation::fill(r0, ColumnId(0), "Messi"));
        let (i2, done) = b.worker(2, &Operation::fill(r1, ColumnId(1), "FW"));
        b.auto_upvote(2, done);
        let i3 = b.worker(3, &Operation::Upvote { row: done }).0;

        let c = b.analyze();
        assert_eq!(c.total_units(), 3); // 2 cells + 1 upvote
        assert_eq!(c.contributing_messages(), vec![i1, i2, i3]);
        assert_eq!(c.cells_in_column(ColumnId(0)).count(), 1);
        assert_eq!(c.upvotes[0].worker, WorkerId(3));
    }

    #[test]
    fn empty_ledger_empty_final_table() {
        let c = Ledger::default().contributions(&FinalTable::default());
        assert_eq!(c.total_units(), 0);
        assert!(c.contributing_messages().is_empty());
    }

    #[test]
    fn cc_only_collection_yields_no_worker_cells() {
        let mut b = Build::new();
        let r0 = b.system(&Operation::Insert);
        let r1 = b.system(&Operation::fill(r0, ColumnId(0), "Messi"));
        let done = b.system(&Operation::fill(r1, ColumnId(1), "FW"));
        // Two workers approve.
        b.worker(1, &Operation::Upvote { row: done });
        b.worker(2, &Operation::Upvote { row: done });

        let c = b.analyze();
        assert!(c.cells.is_empty());
        assert_eq!(c.upvotes.len(), 2);
        assert!(b.ledger.cells.is_empty(), "no worker fill, no cells kept");
    }

    #[test]
    fn a_replace_hands_its_rows_fills_on_and_drops_the_old_row() {
        let mut b = Build::new();
        let r0 = b.system(&Operation::Insert);
        let (_, r1) = b.worker(1, &Operation::fill(r0, ColumnId(0), "Messi"));
        assert_eq!(b.ledger.cells.keys().collect::<Vec<_>>(), vec![&r1]);
        let (_, r2) = b.worker(2, &Operation::fill(r1, ColumnId(1), "FW"));
        let kept: Vec<(ColumnId, u32)> = b.ledger.cells[&r2]
            .iter()
            .map(|(c, u)| (*c, u.worker.0))
            .collect();
        assert_eq!(kept, vec![(ColumnId(0), 1), (ColumnId(1), 2)]);
        assert_eq!(b.ledger.cells.len(), 1);
    }
}
