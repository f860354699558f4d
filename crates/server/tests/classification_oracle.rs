//! The live classification's oracle property (paper §4.1): after every
//! message the server applies, the Central Client's incremental
//! [`Classifier`](crowdfill_constraints::Classifier) equals the batch
//! `classify` of its table — every status, the winner count, the probable
//! set and the upvote histogram the estimator reads.
//!
//! 600 seeded walks of fills, upvotes, downvotes, undos and modify bundles
//! by three workers, on cardinality, values and predicate templates. The
//! Central Client's own inserts, shuffles and template drops happen inside
//! the submissions; debug builds additionally check the classification
//! against the batch one after each of those (`Classifier::update`).

use crowdfill_constraints::classify;
use crowdfill_model::{
    Column, ColumnId, DataType, Entry, Message, Predicate, QuorumMajority, RowId, Schema, Template,
    TemplateRow, Value,
};
use crowdfill_pay::Millis;
use crowdfill_server::wire::TableImage;
use crowdfill_server::{Backend, TaskConfig, WorkerClient};
use std::sync::Arc;

/// splitmix64: the walk's only source of choice.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
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

/// Cardinality, values or predicate template, by `kind`.
fn template(kind: usize) -> Template {
    let (name, team, goals) = (ColumnId(0), ColumnId(1), ColumnId(2));
    let pred = |p| TemplateRow::from_entries([(goals, Entry::Pred(p))]);
    match kind {
        0 => Template::cardinality(6),
        1 => Template::from_rows(vec![
            TemplateRow::from_values([(name, Value::text("p0"))]),
            TemplateRow::from_values([(name, Value::text("p1")), (team, Value::text("t1"))]),
            TemplateRow::from_values([(team, Value::text("t0"))]),
            TemplateRow::from_values([(name, Value::text("p2"))]),
            TemplateRow::empty(),
        ]),
        _ => Template::from_rows(vec![
            pred(Predicate::Ge(Value::int(10))),
            pred(Predicate::Lt(Value::int(5))),
            pred(Predicate::Between(Value::int(5), Value::int(20))),
            TemplateRow::from_entries([
                (name, Entry::Value(Value::text("p3"))),
                (goals, Entry::Pred(Predicate::Ge(Value::int(10)))),
            ]),
            TemplateRow::empty(),
        ]),
    }
}

fn assert_oracle(backend: &Backend, seed: u64, step: usize) {
    let master = backend.master();
    let config = backend.config();
    let batch = classify(master.table(), &config.schema, &*config.scoring);
    let live = backend.central_client().classification();
    let disagreement = live.disagreement(master.table(), &batch);
    assert_eq!(disagreement, None, "seed {seed} step {step}");
}

fn walk(seed: u64, steps: usize) {
    let config = TaskConfig::new(
        schema(),
        Arc::new(QuorumMajority::of_three()),
        template(seed as usize % 3),
        10.0,
    );
    let mut backend = Backend::new(config);
    assert_oracle(&backend, seed, 0);
    let mut workers: Vec<WorkerClient> = (0..3)
        .map(|_| {
            let (id, client, history) = backend.connect(Millis(0));
            WorkerClient::new(id, client, schema(), &history)
        })
        .collect();
    let mut rng = Rng(seed);
    for step in 1..=steps {
        let w = &mut workers[rng.below(3)];
        // Catch up from the true history: every op is judged against it.
        let history: Vec<Message> = backend
            .history_suffix(0)
            .into_iter()
            .map(|(_, m)| m)
            .collect();
        if rng.below(3) != 0 {
            w.adopt(&TableImage::default(), &history);
        }
        let table = w.replica().table();
        let ids: Vec<RowId> = table.row_ids().collect();
        let row = ids[rng.below(ids.len())];
        let value = table.get(row).expect("listed row").value.clone();
        let pick = rng.below(6);
        let cell = |col: ColumnId| match col.0 {
            0 => Value::text(format!("p{}", pick % 4)),
            1 => Value::text(format!("t{}", pick % 2)),
            _ => Value::int([0, 3, 7, 12, 20, 4][pick]),
        };
        let outs = match rng.below(10) {
            0..=3 => {
                let empties: Vec<ColumnId> = value.empty_columns(&schema()).collect();
                let Some(&col) = empties.get(pick % empties.len().max(1)) else {
                    continue;
                };
                w.fill(row, col, cell(col)).ok()
            }
            4 => w.upvote(row).ok().map(|o| vec![o]),
            5 | 6 => w.downvote(row).ok().map(|o| vec![o]),
            7 => w.undo_upvote(row).ok().map(|o| vec![o]),
            8 => w.undo_downvote(row).ok().map(|o| vec![o]),
            _ => {
                let filled: Vec<ColumnId> = value.columns().collect();
                let Some(&col) = filled.get(pick % filled.len().max(1)) else {
                    continue;
                };
                let Ok(outs) = w.modify(row, col, cell(col)) else {
                    continue;
                };
                let bundle = outs.into_iter().map(|o| (o.msg, o.auto_upvote)).collect();
                let _ = backend.submit_modify(w.worker(), bundle, Millis(step as u64));
                assert_oracle(&backend, seed, step);
                continue;
            }
        };
        for out in outs.into_iter().flatten() {
            let sent = backend.submit(w.worker(), out.msg, Millis(step as u64), out.auto_upvote);
            assert_oracle(&backend, seed, step);
            if sent.is_err() {
                break;
            }
        }
    }
}

#[test]
fn live_classification_equals_batch_after_every_message() {
    for seed in 0..600 {
        walk(0x0A_C1E0_0000 + seed, 40);
    }
}
