//! The settlement ledger against its oracle, the batch §5.2.1 analysis of
//! the whole trace (`support/oracle.rs`).
//!
//! 500 seeded collections mix worker fills (with their auto-upvotes),
//! Central-Client template values, votes, undos and modify bundles, all
//! applied through one master replica so every history is one a server
//! could log. For each, at seeded prefixes `S` of the log, the ledger's
//! image at `S` advanced over `log[S..)` must give exactly the
//! `Contributions` the oracle reads off the whole log, and under all three
//! schemes the same `Payout`, compared as f64 bits.

mod support {
    pub mod oracle;
}

use crowdfill_model::{
    derive_final_table, ClientId, Column, ColumnId, DataType, Difference, FinalTable, Message,
    Operation, QuorumMajority, RowId, RowValue, Schema, Scoring, Value,
};
use crowdfill_pay::{
    allocate, Ledger, Millis, Payout, Scheme, SplitConfig, Trace, TraceEntry, WorkerId,
};
use crowdfill_sync::Replica;
use std::collections::BTreeSet;
use std::sync::Arc;
use support::oracle;

/// splitmix64: the walk's only source of choice.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn schema() -> Arc<Schema> {
    let columns = ["a", "b", "c"].map(|name| Column::new(name, DataType::Text));
    Arc::new(Schema::new("T", columns.to_vec(), &["a"]).unwrap())
}

/// A collection's log, built the way the server builds it: every message
/// applied to the master first, a fill's column recorded with it.
struct Collection {
    master: Replica,
    trace: Trace,
    now: u64,
    /// Votes cast and not yet undone, for undos to pick from.
    votes: Vec<(u32, bool, RowId)>,
}

impl Collection {
    fn log(&mut self, rng: &mut Rng, worker: Option<u32>, op: &Operation, auto: bool) -> Message {
        let msg = self.master.apply_local(op).expect("a valid operation");
        // Ties included: equal timestamps and zero latencies happen.
        self.now += [0, 1, 7, 250, 1_000, 3_000][rng.below(6)];
        let filled = match op {
            Operation::Fill { column, .. } => Some(*column),
            _ => None,
        };
        self.trace.record(TraceEntry {
            at: Millis(self.now),
            worker: worker.map(WorkerId),
            msg: msg.clone(),
            auto_upvote: auto,
            filled,
        });
        msg
    }

    fn rows(&self, pred: impl Fn(&RowValue) -> bool) -> Vec<(RowId, RowValue)> {
        let mut rows: Vec<_> = self
            .master
            .table()
            .iter()
            .filter(|(_, e)| pred(&e.value))
            .map(|(id, e)| (id, e.value.clone()))
            .collect();
        rows.sort();
        rows
    }

    /// A worker fills `col` of `row`; a completing fill is followed by the
    /// worker's automatic upvote, most of the time.
    fn fill(&mut self, rng: &mut Rng, w: u32, row: RowId, col: ColumnId, v: Value) -> RowId {
        let op = Operation::fill(row, col, v);
        let new = self.log(rng, Some(w), &op, false).creates_row().unwrap();
        let complete = self
            .master
            .table()
            .get(new)
            .unwrap()
            .value
            .is_complete(&schema());
        if complete && rng.below(5) != 0 {
            self.log(rng, Some(w), &Operation::Upvote { row: new }, true);
            self.votes.push((w, true, new));
        }
        new
    }
}

fn value(rng: &mut Rng, col: ColumnId) -> Value {
    Value::text(format!("{}{}", col.0, rng.below(3)))
}

/// One seeded collection's log and final table.
fn collection(seed: u64) -> (Trace, FinalTable) {
    let mut rng = Rng(seed);
    let mut c = Collection {
        master: Replica::new(ClientId::CENTRAL, schema()),
        trace: Trace::new(),
        now: 0,
        votes: Vec::new(),
    };
    let steps = 20 + rng.below(100);
    for _ in 0..steps {
        let w = 1 + rng.below(4) as u32;
        match rng.below(20) {
            // The Central Client seeds a template row, values and all.
            0..=2 => {
                let mut row = c.log(&mut rng, None, &Operation::Insert, false);
                let mut row_id = row.creates_row().unwrap();
                let seeded: Vec<ColumnId> =
                    (0..3).map(ColumnId).filter(|_| rng.below(3) == 0).collect();
                for col in seeded {
                    let op = Operation::fill(row_id, col, value(&mut rng, col));
                    row = c.log(&mut rng, None, &op, false);
                    row_id = row.creates_row().unwrap();
                }
                if c.master
                    .table()
                    .get(row_id)
                    .unwrap()
                    .value
                    .is_complete(&schema())
                {
                    c.log(&mut rng, None, &Operation::Upvote { row: row_id }, false);
                }
            }
            3..=10 => {
                let open = c.rows(|v| !v.is_complete(&schema()));
                if let Some((row, v)) = open.get(rng.below(open.len().max(1))).cloned() {
                    let empty: Vec<ColumnId> = v.empty_columns(&schema()).collect();
                    let col = empty[rng.below(empty.len())];
                    let v = value(&mut rng, col);
                    c.fill(&mut rng, w, row, col, v);
                }
            }
            11..=13 => {
                let done = c.rows(|v| v.is_complete(&schema()));
                if let Some((row, _)) = done.get(rng.below(done.len().max(1))) {
                    c.log(&mut rng, Some(w), &Operation::Upvote { row: *row }, false);
                    c.votes.push((w, true, *row));
                }
            }
            14 | 15 => {
                let partial = c.rows(|v| !v.is_empty());
                if let Some((row, _)) = partial.get(rng.below(partial.len().max(1))) {
                    c.log(&mut rng, Some(w), &Operation::Downvote { row: *row }, false);
                    c.votes.push((w, false, *row));
                }
            }
            // An undo of one of the worker's own votes — or, now and then,
            // of a vote nobody cast, which retracts nothing.
            16 | 17 => {
                let mine: Vec<usize> = (0..c.votes.len()).filter(|&i| c.votes[i].0 == w).collect();
                let pick = match mine.len() {
                    0 => None,
                    n if rng.below(8) != 0 => Some(c.votes.remove(mine[rng.below(n)])),
                    _ => None,
                };
                let (up, row) = match pick {
                    Some((_, up, row)) => (up, row),
                    None => match c.rows(|v| !v.is_empty()).first() {
                        Some((row, _)) => (rng.below(2) == 0, *row),
                        None => continue,
                    },
                };
                let Some(entry) = c.master.table().get(row) else {
                    continue; // the voted row was replaced since
                };
                let value = entry.value.clone();
                let msg = match up {
                    true => Message::UndoUpvote { value },
                    false => Message::UndoDownvote { value },
                };
                c.master.process(&msg);
                c.now += 1;
                c.trace.record(TraceEntry {
                    at: Millis(c.now),
                    worker: Some(WorkerId(w)),
                    msg,
                    auto_upvote: false,
                    filled: None,
                });
            }
            // A modify bundle (§8): downvote the row, insert a fresh one
            // and refill it with one cell changed.
            _ => {
                let partial = c.rows(|v| !v.is_empty());
                let Some((row, old)) = partial.get(rng.below(partial.len().max(1))).cloned() else {
                    continue;
                };
                c.log(&mut rng, Some(w), &Operation::Downvote { row }, false);
                let inserted = c.log(&mut rng, Some(w), &Operation::Insert, false);
                let mut fresh = inserted.creates_row().unwrap();
                let changed = rng.below(old.len());
                for (i, (col, v)) in old.iter().enumerate() {
                    let v = if i == changed {
                        value(&mut rng, col)
                    } else {
                        v.clone()
                    };
                    fresh = c.fill(&mut rng, w, fresh, col, v);
                }
            }
        }
    }
    let scoring: Box<dyn Scoring> = match seed % 2 {
        0 => Box::new(QuorumMajority::of_three()),
        _ => Box::new(Difference),
    };
    let final_table = derive_final_table(c.master.table(), &schema(), &*scoring);
    (c.trace, final_table)
}

/// Everything a payout says, f64s as their bits.
fn bits(p: &Payout) -> Vec<(u64, u64, u64, u64)> {
    let messages = p
        .per_message
        .iter()
        .map(|(seq, c)| (*seq, u64::from(c.worker.0), c.at.0, c.amount.to_bits()));
    let workers = p
        .per_worker
        .iter()
        .map(|(w, a)| (0, u64::from(w.0), 0, a.to_bits()));
    let w = &p.weights;
    let weights = w
        .per_column
        .iter()
        .chain(&w.z)
        .chain([&w.upvote, &w.downvote]);
    let scalars = [&p.unspent, &p.budget].into_iter().chain(weights);
    messages
        .chain(workers)
        .chain(scalars.map(|x| (1, 1, 1, x.to_bits())))
        .collect()
}

#[test]
fn the_ledger_advanced_from_any_prefix_settles_like_the_batch_analysis() {
    for seed in 0..500u64 {
        let (trace, final_table) = collection(seed);
        let expected = oracle::analyze(&trace, &final_table);
        let entries = trace.entries();

        // Images at seeded prefixes, taken on the way through the log.
        let mut rng = Rng(seed ^ 0xA11C);
        let mut prefixes: BTreeSet<usize> = (0..3).map(|_| rng.below(entries.len() + 1)).collect();
        prefixes.extend([0, entries.len()]);
        let (mut ledger, mut images) = (Ledger::default(), Vec::new());
        for (seq, entry) in (0u64..).zip(entries) {
            if prefixes.contains(&(seq as usize)) {
                images.push((seq, ledger.clone()));
            }
            ledger.advance(seq, entry);
        }
        images.push((entries.len() as u64, ledger.clone()));

        let budget = 1.0 + (seed % 97) as f64;
        for (at, mut resumed) in images {
            for (seq, entry) in (at..).zip(&entries[at as usize..]) {
                resumed.advance(seq, entry);
            }
            assert_eq!(resumed, ledger, "seed {seed}: resumed at {at}");
            let got = resumed.contributions(&final_table);
            assert_eq!(got, expected, "seed {seed}: contributions resumed at {at}");
            for scheme in Scheme::ALL {
                let split = SplitConfig::new();
                let paid = allocate(scheme, budget, &got, &schema(), &split);
                let oracle_paid = allocate(scheme, budget, &expected, &schema(), &split);
                assert_eq!(bits(&paid), bits(&oracle_paid), "seed {seed} {scheme}");
            }
        }
    }
}

/// The walk covers what the ledger must get right, not just easy logs.
#[test]
fn the_walks_exercise_every_kind_of_credit() {
    let (mut indirect_elsewhere, mut template_first, mut undone, mut downvotes) = (0, 0, 0, 0);
    for seed in 0..500u64 {
        let (trace, final_table) = collection(seed);
        let c = oracle::analyze(&trace, &final_table);
        indirect_elsewhere += c
            .cells
            .iter()
            .filter(|x| x.indirect.is_some_and(|i| i != x.direct))
            .count();
        template_first += c.cells.iter().filter(|x| x.indirect.is_none()).count();
        downvotes += c.downvotes.len();
        undone += trace
            .entries()
            .iter()
            .filter(|e| {
                matches!(
                    e.msg,
                    Message::UndoUpvote { .. } | Message::UndoDownvote { .. }
                )
            })
            .count();
    }
    assert!(
        indirect_elsewhere > 50,
        "{indirect_elsewhere} cells credited another filler"
    );
    assert!(
        template_first > 50,
        "{template_first} cells had no indirect credit"
    );
    assert!(
        undone > 100 && downvotes > 50,
        "{undone} undos, {downvotes} paid downvotes"
    );
}

// ---- the oracle's own helpers ------------------------------------------

fn rid(c: u32, s: u64) -> RowId {
    RowId::new(ClientId(c), s)
}

fn rv(pairs: &[(u16, &str)]) -> RowValue {
    RowValue::from_pairs(pairs.iter().map(|(c, v)| (ColumnId(*c), Value::text(*v))))
}

fn entry(at: u64, worker: Option<u32>, msg: Message) -> TraceEntry {
    TraceEntry {
        at: Millis(at),
        worker: worker.map(WorkerId),
        msg,
        auto_upvote: false,
        filled: None,
    }
}

#[test]
fn oracle_reconstructs_lineage_and_filled_cells() {
    let mut t = Trace::new();
    t.record(entry(0, None, Message::Insert { row: rid(0, 0) }));
    let fill = Message::Replace {
        old: rid(0, 0),
        new: rid(1, 0),
        value: rv(&[(2, "FW")]),
    };
    t.record(entry(100, Some(1), fill));
    let values = oracle::row_values(&t);
    assert_eq!(values[&rid(0, 0)], RowValue::empty());
    assert_eq!(values[&rid(1, 0)], rv(&[(2, "FW")]));
    let creators = oracle::creators(&t);
    assert_eq!((creators[&rid(0, 0)], creators[&rid(1, 0)]), (0, 1));
    let filled = oracle::filled_cell(&t, 1, &values);
    assert_eq!(filled, Some((ColumnId(2), Value::text("FW"))));
    assert_eq!(oracle::filled_cell(&t, 0, &values), None); // insert, not replace
}

#[test]
fn oracle_latencies_skip_first_messages_and_cc() {
    let mut t = Trace::new();
    let up = || Message::Upvote { value: rv(&[]) };
    t.record(entry(0, None, Message::Insert { row: rid(0, 0) }));
    t.record(entry(1000, Some(1), up()));
    t.record(entry(1500, Some(2), up()));
    t.record(entry(4000, Some(1), up()));
    let lats = oracle::latencies(&t);
    assert_eq!(lats, vec![None, None, None, Some(Millis(3000))]);
}
