//! The counting gate of the live classification: what one message costs
//! the Central Client's classifier, and one action the estimator, is the
//! key group it touched — not the table. Counted, not timed, so machine
//! speed cannot flake it; the counts are instance counters of the
//! classifier and the estimator.
//!
//! On cardinality tables of N ∈ {200, 800, 3,200} rows, workers fill rows
//! whose keys come in pairs (groups of two) and upvote them. After every
//! message, the rows the classifier re-classified must be at most the
//! touched group's size + 2, and so must the probable rows the estimator
//! read for the action. A downvote of a key-incomplete vector is the one
//! message that cannot name its group: the table scans for it, once, and
//! counts the scan; the classifier reads that scan's hits.

use crowdfill_constraints::{Classifier, ProbableView};
use crowdfill_model::{
    ClientId, Column, ColumnId, DataType, Message, Operation, QuorumMajority, RowId, Schema,
    ScoringRef, Template, Value,
};
use crowdfill_pay::{Estimator, Millis, Scheme, TraceEntry, WorkerId};
use crowdfill_sync::Replica;
use std::sync::Arc;

struct Rig {
    replica: Replica,
    classes: Classifier,
    est: Estimator,
    seq: u64,
    now: u64,
}

impl Rig {
    fn new(rows: usize) -> Rig {
        let schema = Arc::new(
            Schema::new(
                "T",
                vec![
                    Column::new("a", DataType::Text),
                    Column::new("b", DataType::Text),
                    Column::new("c", DataType::Text),
                ],
                &["a"],
            )
            .unwrap(),
        );
        let scoring: ScoringRef = Arc::new(QuorumMajority::of_three());
        let mut replica = Replica::new(ClientId::CENTRAL, Arc::clone(&schema));
        for _ in 0..rows {
            replica.apply_local(&Operation::Insert).unwrap();
        }
        Rig {
            classes: Classifier::new(Arc::clone(&schema), Arc::clone(&scoring), replica.table()),
            est: Estimator::new(
                Scheme::DualWeighted,
                rows as f64,
                schema,
                scoring,
                &Template::cardinality(rows),
            ),
            replica,
            seq: 0,
            now: 0,
        }
    }

    /// The size of `value`'s key group (0 without a full key).
    fn group_of(&self, value: &crowdfill_model::RowValue) -> usize {
        let table = self.replica.table();
        table.key_of(value).map_or(0, |k| table.key_group(&k).len())
    }

    /// Applies `op` as worker `w`, classifies and estimates it, and checks
    /// both counts against its key group's size + 2 (a vector without a
    /// key touches no group: its own row, at most two, is all it may cost).
    fn act(&mut self, w: u32, op: Operation) -> Message {
        let msg = self.replica.apply_local(&op).unwrap();
        let reclassified = self.classes.update(self.replica.table(), &msg);
        let value = match &msg {
            Message::Replace { value, .. }
            | Message::Upvote { value }
            | Message::Downvote { value } => value.clone(),
            other => unreachable!("workers do not send {other:?}"),
        };
        self.now += 1_000;
        let entry = TraceEntry {
            at: Millis(self.now),
            worker: Some(WorkerId(w)),
            msg: msg.clone(),
            auto_upvote: false,
            filled: match &op {
                Operation::Fill { column, .. } => Some(*column),
                _ => None,
            },
        };
        let before = self.est.visits();
        let view = ProbableView::new(self.replica.table(), &self.classes);
        self.est.on_action(self.seq, &entry, view);
        self.seq += 1;
        let read = self.est.visits().rows - before.rows;
        if self.replica.table().key_of(&value).is_some() {
            let bound = self.group_of(&value) + 2;
            assert!(
                reclassified <= bound,
                "{msg:?} re-classified {reclassified} rows (bound {bound})"
            );
            assert!(
                read as usize <= bound,
                "{msg:?}: estimator read {read} rows (bound {bound})"
            );
        } else {
            assert!(
                reclassified <= 2,
                "{msg:?} re-classified {reclassified} rows"
            );
        }
        msg
    }

    fn fill(&mut self, w: u32, row: RowId, col: u16, v: String) -> RowId {
        let op = Operation::Fill {
            row,
            column: ColumnId(col),
            value: Value::text(v),
        };
        self.act(w, op).creates_row().unwrap()
    }
}

#[test]
fn per_message_work_is_the_touched_group() {
    for n in [200usize, 800, 3_200] {
        let mut rig = Rig::new(n);
        let seeds: Vec<RowId> = rig.replica.table().row_ids().take(24).collect();
        let mut complete = Vec::new();
        for (i, row) in seeds.into_iter().enumerate() {
            // Keys come in pairs: rows 2k and 2k+1 share key `k{k}`.
            let w = 1 + (i % 3) as u32;
            let row = rig.fill(w, row, 0, format!("k{}", i / 2));
            let row = rig.fill(w, row, 1, format!("b{i}"));
            let row = rig.fill(w, row, 2, "c".into());
            for voter in [w % 3 + 1, (w + 1) % 3 + 1] {
                rig.act(voter, Operation::Upvote { row });
            }
            complete.push(row);
        }
        // A full-key downvote stays in its group; a key-incomplete one
        // (a bare {b} vector) scans, once per message, and is counted. The
        // classifier re-classifies only the rows that scan hit (`act`).
        rig.act(4, Operation::Downvote { row: complete[0] });
        let table = rig.replica.table();
        let empty = table.iter().find(|(_, e)| e.value.is_empty());
        let partial = empty.expect("an unfilled row").0;
        let partial = rig.fill(5, partial, 1, "b-only".into());
        let scans = rig.replica.table().scans();
        rig.act(6, Operation::Downvote { row: partial });
        assert_eq!(rig.replica.table().scans(), scans + 1, "N={n}");
        assert_eq!(rig.replica.table().last_scan(), &[partial], "N={n}");
        assert!(rig.est.visits().scans > 0, "N={n}");
    }
}
