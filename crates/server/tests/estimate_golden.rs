//! Golden bits of every per-action compensation estimate (§5.3).
//!
//! The estimator reads the probable rows of the table after each worker
//! message, so any change to how that view is computed must leave every
//! estimate the same `f64`, bit for bit. Each case drives a seeded random
//! walk of fills, upvotes, downvotes, undos and modify bundles through
//! [`Backend::submit`] / [`Backend::submit_modify`] on a values + predicate
//! template, under one allocation scheme, and pins an FNV-1a hash of every
//! estimate's bits — as the submitter saw it in its report and as the
//! estimator's timeline recorded it. The constants were captured on the
//! batch-classification estimator that predates the incremental one.

use crowdfill_model::{
    Column, ColumnId, DataType, Entry, Message, Predicate, QuorumMajority, RowId, Schema, Template,
    TemplateRow, Value,
};
use crowdfill_pay::{Millis, Scheme, WorkerId};
use crowdfill_server::wire::TableImage;
use crowdfill_server::{Backend, TaskConfig, WorkerClient};
use crowdfill_sync::AppliedSeqs;
use std::sync::Arc;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

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

/// A worker with the production client's seq-dedup and resync discipline.
struct Worker {
    id: WorkerId,
    client: WorkerClient,
    applied: AppliedSeqs,
}

impl Worker {
    fn connect(backend: &mut Backend) -> Worker {
        let (id, client_id, history) = backend.connect(Millis(0));
        let client = WorkerClient::new(id, client_id, backend.config().schema.clone(), &history);
        let mut applied = AppliedSeqs::new();
        applied.note_prefix(history.len() as u64);
        Worker {
            id,
            client,
            applied,
        }
    }

    fn deliver(&mut self, backend: &mut Backend) {
        for (seq, msg) in backend.poll_seq(self.id) {
            if self.applied.note(seq) {
                self.client.absorb(&msg);
            }
        }
    }

    /// A rejection rebuilds the client from the true history, as the
    /// production resync path does.
    fn resync(&mut self, backend: &Backend, msg: &Message) {
        self.client.retract_own_vote_record(msg);
        let history: Vec<Message> = backend
            .history_suffix(0)
            .into_iter()
            .map(|(_, m)| m)
            .collect();
        self.client.adopt(&TableImage::default(), &history);
        self.applied.reset_to_prefix(backend.history_len());
    }

    /// Sends one prepared message; folds the estimate it earned into `hash`.
    fn send(
        &mut self,
        backend: &mut Backend,
        msg: Message,
        auto: bool,
        at: u64,
        hash: &mut u64,
    ) -> bool {
        match backend.submit(self.id, msg.clone(), Millis(at), auto) {
            Ok(report) => {
                for s in &report.seqs {
                    self.applied.note(*s);
                }
                fnv1a(hash, &report.estimate.to_bits().to_le_bytes());
                true
            }
            Err(_) => {
                self.resync(backend, &msg);
                false
            }
        }
    }

    /// Sends a modify bundle as one submission.
    fn send_modify(
        &mut self,
        backend: &mut Backend,
        bundle: Vec<(Message, bool)>,
        at: u64,
        hash: &mut u64,
    ) {
        let first = bundle[0].0.clone();
        match backend.submit_modify(self.id, bundle, Millis(at)) {
            Ok(report) => {
                for s in &report.seqs {
                    self.applied.note(*s);
                }
                fnv1a(hash, &report.estimate.to_bits().to_le_bytes());
            }
            Err(_) => self.resync(backend, &first),
        }
    }
}

fn schema() -> Arc<Schema> {
    Arc::new(
        Schema::new(
            "Player",
            vec![
                Column::new("name", DataType::Text),
                Column::new("team", DataType::Text),
                Column::new("goals", DataType::Int),
            ],
            &["name"],
        )
        .unwrap(),
    )
}

fn template(schema: &Schema) -> Template {
    let name = schema.column_id("name").unwrap();
    let team = schema.column_id("team").unwrap();
    let goals = schema.column_id("goals").unwrap();
    Template::from_rows(vec![
        TemplateRow::from_entries([(goals, Entry::Pred(Predicate::Ge(Value::int(10))))]),
        TemplateRow::from_values([(name, Value::text("p0"))]),
        TemplateRow::from_values([(name, Value::text("p1")), (team, Value::text("t1"))]),
        TemplateRow::from_entries([(goals, Entry::Pred(Predicate::Lt(Value::int(5))))]),
        TemplateRow::empty(),
        TemplateRow::from_entries([
            (name, Entry::Value(Value::text("p2"))),
            (
                goals,
                Entry::Pred(Predicate::Between(Value::int(5), Value::int(20))),
            ),
        ]),
        TemplateRow::from_values([(team, Value::text("t0"))]),
        TemplateRow::empty(),
        TemplateRow::from_values([(name, Value::text("p3"))]),
        TemplateRow::empty(),
    ])
}

/// One seeded walk under `scheme`: `(report hash, timeline hash, actions)`.
fn walk(scheme: Scheme, seed: u64, steps: usize) -> (u64, u64, usize) {
    let schema = schema();
    let config = TaskConfig::new(
        Arc::clone(&schema),
        Arc::new(QuorumMajority::of_three()),
        template(&schema),
        20.0,
    )
    .with_scheme(scheme);
    let mut backend = Backend::new(config);
    let mut workers: Vec<Worker> = (0..4).map(|_| Worker::connect(&mut backend)).collect();
    let mut rng = Rng(seed);
    let mut reports = 0xCBF2_9CE4_8422_2325u64;
    let mut at = 0u64;
    for _ in 0..steps {
        let w = &mut workers[rng.below(4)];
        at += 1 + rng.below(9_000) as u64;
        if rng.below(4) != 0 {
            w.deliver(&mut backend);
        }
        let table = w.client.replica().table();
        let ids: Vec<RowId> = table.row_ids().collect();
        if ids.is_empty() {
            continue;
        }
        let row = ids[rng.below(ids.len())];
        let value = table.get(row).expect("listed row").value.clone();
        let roll = rng.below(20);
        let pick = rng.below(8);
        let cell = |col: ColumnId| match col.0 {
            0 => Value::text(format!("p{}", pick % 5)),
            1 => Value::text(format!("t{}", pick % 3)),
            _ => Value::int([0, 3, 7, 12, 20, 30, 4, 11][pick]),
        };
        if roll < 9 {
            let empties: Vec<ColumnId> = value.empty_columns(&schema).collect();
            if empties.is_empty() {
                continue;
            }
            let col = empties[pick % empties.len()];
            if let Ok(outs) = w.client.fill(row, col, cell(col)) {
                for out in outs {
                    if !w.send(&mut backend, out.msg, out.auto_upvote, at, &mut reports) {
                        break;
                    }
                }
            }
        } else if roll < 12 {
            if let Ok(out) = w.client.upvote(row) {
                w.send(&mut backend, out.msg, false, at, &mut reports);
            }
        } else if roll < 15 {
            if let Ok(out) = w.client.downvote(row) {
                w.send(&mut backend, out.msg, false, at, &mut reports);
            }
        } else if roll < 16 {
            if let Ok(out) = w.client.undo_upvote(row) {
                w.send(&mut backend, out.msg, false, at, &mut reports);
            }
        } else if roll < 17 {
            if let Ok(out) = w.client.undo_downvote(row) {
                w.send(&mut backend, out.msg, false, at, &mut reports);
            }
        } else {
            let filled: Vec<ColumnId> = value.columns().collect();
            if filled.is_empty() {
                continue;
            }
            let col = filled[pick % filled.len()];
            if let Ok(outs) = w.client.modify(row, col, cell(col)) {
                let bundle = outs.into_iter().map(|o| (o.msg, o.auto_upvote)).collect();
                w.send_modify(&mut backend, bundle, at, &mut reports);
            }
        }
    }
    assert!(backend.central_client().invariant_holds());
    let mut timeline = 0xCBF2_9CE4_8422_2325u64;
    for e in backend.estimator().timeline() {
        fnv1a(&mut timeline, &(e.idx as u64).to_le_bytes());
        fnv1a(&mut timeline, &e.worker.0.to_le_bytes());
        fnv1a(&mut timeline, &e.amount.to_bits().to_le_bytes());
    }
    (reports, timeline, backend.estimator().timeline().len())
}

fn check(scheme: Scheme, cases: &[(u64, (u64, u64, usize))]) {
    for &(seed, golden) in cases {
        let got = walk(scheme, seed, 300);
        assert_eq!(got, golden, "{scheme:?} seed {seed:#x}: computed {got:?}");
    }
}

#[test]
fn uniform_estimates_are_golden() {
    check(Scheme::Uniform, &GOLDEN_UNIFORM);
}

#[test]
fn column_weighted_estimates_are_golden() {
    check(Scheme::ColumnWeighted, &GOLDEN_COLUMN);
}

#[test]
fn dual_weighted_estimates_are_golden() {
    check(Scheme::DualWeighted, &GOLDEN_DUAL);
}

/// `(seed, (report hash, timeline hash, estimated actions))` per case.
const GOLDEN_UNIFORM: [(u64, (u64, u64, usize)); 2] = [
    (
        0xE571_0001,
        (3_936_616_653_973_613_040, 14_668_843_842_038_879_943, 259),
    ),
    (
        0xE571_0002,
        (7_934_657_733_321_061_480, 9_721_136_968_709_217_751, 247),
    ),
];
const GOLDEN_COLUMN: [(u64, (u64, u64, usize)); 2] = [
    (
        0xE571_0003,
        (15_134_934_040_897_022_079, 2_326_650_312_494_876_498, 257),
    ),
    (
        0xE571_0004,
        (784_403_212_952_371_156, 11_467_997_767_976_169_680, 255),
    ),
];
const GOLDEN_DUAL: [(u64, (u64, u64, usize)); 2] = [
    (
        0xE571_0005,
        (9_921_782_774_094_210_692, 18_259_998_962_772_636_683, 276),
    ),
    (
        0xE571_0006,
        (6_743_177_732_618_672_980, 11_226_272_796_179_221_041, 263),
    ),
];
