//! Deterministic workloads for the throughput benches: a recorded op
//! stream replayable through either the singleton or the batched backend
//! apply path, synthetic many-component bipartite graphs for the matcher,
//! a fill script for a Central Client on its own, and the welcome a late
//! joiner receives.

use crowdfill_constraints::PriMaintainer;
use crowdfill_matching::IncrementalMatcher;
use crowdfill_model::{
    ClientId, Column, ColumnId, DataType, Message, Operation, QuorumMajority, RowId, RowValue,
    Schema, Template, Value,
};
use crowdfill_pay::{Millis, WorkerId};
use crowdfill_server::wire::{Image, Reply, TableImage};
use crowdfill_server::{Backend, BatchJob, BatchOp, TaskConfig, WorkerClient};
use crowdfill_sync::{AppliedSeqs, Replica};
use std::sync::Arc;

/// The 3-column schema used by the sync-pipeline workload.
pub fn pipeline_schema() -> Arc<Schema> {
    Arc::new(
        Schema::new(
            "B",
            vec![
                Column::new("a", DataType::Text),
                Column::new("b", DataType::Text),
                Column::new("c", DataType::Text),
            ],
            &["a"],
        )
        .unwrap(),
    )
}

/// A fresh task configuration for `rows` template rows. Replay targets must
/// be built from this exact config: the recorded messages reference row ids
/// the Central Client mints deterministically from it.
pub fn pipeline_config(rows: usize) -> TaskConfig {
    TaskConfig::new(
        pipeline_schema(),
        Arc::new(QuorumMajority::of_three()),
        Template::cardinality(rows),
        rows as f64,
    )
}

/// The schema of `late_join`'s tables: five text columns, the first two
/// the key.
pub fn join_schema() -> Arc<Schema> {
    let columns = ["name", "nationality", "position", "club", "caps"];
    let columns = columns.map(|c| Column::new(c, DataType::Text)).to_vec();
    Arc::new(Schema::new("SoccerPlayer", columns, &["name", "nationality"]).unwrap())
}

/// Cell `col` of row `r` as `late_join` fills it: 6–18 bytes, drawn from a
/// hash of `(r, col)`, and for a key column led by `r` in hex, so that
/// keys are unique.
fn join_cell(r: usize, col: usize) -> Value {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
    let mut state = ((r as u64) << 8 | col as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let mut next = || {
        state ^= state >> 29;
        state = state.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        state ^ (state >> 32)
    };
    let len = 6 + (next() % 13) as usize;
    let mut cell = if col < 2 {
        format!("{r:03x}")
    } else {
        String::new()
    };
    while cell.len() < len {
        cell.push(ALPHABET[(next() % ALPHABET.len() as u64) as usize] as char);
    }
    Value::text(cell)
}

/// The welcome frame a late joiner receives from a [`join_schema`] table
/// of `rows` rows whose first 7/8 are complete with one upvote each, the
/// shape of `late_join`'s: the table image of DESIGN.md §14.3 with an
/// empty log, escape-free, as the benchmark's tables are.
pub fn welcome_frame(rows: usize) -> String {
    let filled = rows * 7 / 8;
    let schema = join_schema();
    let value = |r: usize| {
        let cells = (0..schema.width()).map(|c| (ColumnId(c as u16), join_cell(r, c)));
        RowValue::from_pairs(cells)
    };
    let id = |r: usize| RowId::new(ClientId(1 + (r % 4) as u32), r as u64);
    let mut table = Replica::new(ClientId(0), Arc::clone(&schema));
    for r in 0..rows {
        table.process(&match r < filled {
            true => Message::Replace {
                old: id(r),
                new: id(r),
                value: value(r),
            },
            false => Message::Insert { row: id(r) },
        });
    }
    for r in 0..filled {
        table.process(&Message::Upvote { value: value(r) });
    }
    let (worker, client) = (WorkerId(5), ClientId(9));
    let image = Image::Table(Box::new(TableImage::of(&table)), Vec::new());
    let history_len = (rows + filled) as u64;
    Reply::Welcome("default".into(), worker, client, history_len, schema, image).encode()
}

struct Driver {
    id: WorkerId,
    client: WorkerClient,
    applied: AppliedSeqs,
}

impl Driver {
    fn connect(backend: &mut Backend) -> Driver {
        let (id, client_id, history) = backend.connect(Millis(0));
        let client = WorkerClient::new(id, client_id, backend.config().schema.clone(), &history);
        let mut applied = AppliedSeqs::new();
        applied.note_prefix(history.len() as u64);
        Driver {
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
}

/// Records a collection run over a `rows`-row template — `fills` template
/// rows (all of them when `fills >= rows`) each filled by one of
/// `n_workers` workers and upvoted to quorum by another — as a replayable
/// job stream. Roughly `4 × fills` jobs.
///
/// Replay the stream into `Backend::new(pipeline_config(rows))` with
/// `n_workers` sessions connected in order; by the batch/singleton
/// equivalence property the resulting state is identical however the
/// stream is chunked.
pub fn record_fill_workload(rows: usize, fills: usize, n_workers: usize) -> Vec<BatchJob> {
    assert!(n_workers >= 2, "need a second worker to reach quorum");
    let mut backend = Backend::new(pipeline_config(rows));
    let mut drivers: Vec<Driver> = (0..n_workers)
        .map(|_| Driver::connect(&mut backend))
        .collect();
    let mut jobs: Vec<BatchJob> = Vec::with_capacity(fills * 4);

    let submit = |backend: &mut Backend,
                  d: &mut Driver,
                  msg: Message,
                  auto: bool,
                  jobs: &mut Vec<BatchJob>| {
        let report = backend
            .submit(d.id, msg.clone(), Millis(1), auto)
            .expect("deterministic workload op rejected");
        for s in report.seqs {
            d.applied.note(s);
        }
        jobs.push(BatchJob {
            worker: d.id,
            op: BatchOp::Msg {
                msg,
                auto_upvote: auto,
            },
            trace: crowdfill_obs::trace::TraceId::generate(0x51_EED, jobs.len() as u64 + 1),
        });
    };

    for r in 0..fills.min(rows) {
        let filler = r % n_workers;
        let voter = (r + 1) % n_workers;

        let mut row: RowId = {
            let d = &mut drivers[filler];
            d.deliver(&mut backend);
            d.client
                .replica()
                .table()
                .iter()
                .find(|(_, e)| e.value.is_empty())
                .map(|(id, _)| id)
                .expect("an unfilled template row remains")
        };
        for (ci, text) in [
            (0u16, format!("key-{r}")),
            (1, format!("b-{r}")),
            (2, format!("c-{r}")),
        ] {
            let d = &mut drivers[filler];
            let outs = d
                .client
                .fill(row, ColumnId(ci), Value::text(text))
                .expect("fill applies locally");
            row = outs[0].msg.creates_row().unwrap();
            for out in outs {
                submit(
                    &mut backend,
                    &mut drivers[filler],
                    out.msg,
                    out.auto_upvote,
                    &mut jobs,
                );
            }
        }

        let d = &mut drivers[voter];
        d.deliver(&mut backend);
        let out = d.client.upvote(row).expect("vote on freshly completed row");
        submit(&mut backend, &mut drivers[voter], out.msg, false, &mut jobs);
    }
    jobs
}

/// Replays a recorded job stream through `submit_batch` in chunks of
/// `batch` against a fresh backend (`batch == 1` measures the batched
/// plumbing at singleton granularity; use [`replay_singleton`] for the
/// true direct path).
pub fn replay_batched(
    jobs: &[BatchJob],
    rows: usize,
    n_workers: usize,
    batch: usize,
    wal: Option<crowdfill_docstore::Wal>,
) -> Backend {
    let mut backend = Backend::new(pipeline_config(rows));
    for _ in 0..n_workers {
        backend.attach(Millis(0));
    }
    if let Some(wal) = wal {
        backend.attach_wal(wal);
    }
    for chunk in jobs.chunks(batch.max(1)) {
        let outcome = backend.submit_batch(chunk.to_vec(), Millis(1));
        for r in outcome.results {
            r.expect("recorded op rejected on replay");
        }
    }
    backend
}

/// Replays a recorded job stream through the direct per-op submit path.
pub fn replay_singleton(
    jobs: &[BatchJob],
    rows: usize,
    n_workers: usize,
    wal: Option<crowdfill_docstore::Wal>,
) -> Backend {
    let mut backend = Backend::new(pipeline_config(rows));
    for _ in 0..n_workers {
        backend.attach(Millis(0));
    }
    if let Some(wal) = wal {
        backend.attach_wal(wal);
    }
    for job in jobs {
        match &job.op {
            BatchOp::Msg { msg, auto_upvote } => {
                backend
                    .submit(job.worker, msg.clone(), Millis(1), *auto_upvote)
                    .expect("recorded op rejected on replay");
            }
            BatchOp::Modify { bundle } => {
                backend
                    .submit_modify(job.worker, bundle.clone(), Millis(1))
                    .expect("recorded bundle rejected on replay");
            }
        }
    }
    backend
}

/// A bipartite graph of `components` disjoint blocks, each with `size`
/// lefts and `size + 1` rights connected in a dense-ish local pattern (left
/// `l` to rights `l`, `l + 1`, `l + 2` mod `size + 1`), every left alone in
/// its class and still unmatched — the repair workload.
pub fn component_graph(components: usize, size: usize) -> IncrementalMatcher<usize, usize> {
    let mut m = IncrementalMatcher::new();
    for l in 0..components * size {
        m.add_left(l, l);
    }
    for c in 0..components {
        let (lbase, rbase) = (c * size, c * (size + 1));
        for r in 0..=size {
            let lefts = (0..=2).map(|dr| (r + size + 1 - dr) % (size + 1));
            m.add_right(rbase + r, lefts.filter(|&l| l < size).map(|l| lbase + l));
        }
    }
    m
}

/// A Central Client over `Template::cardinality(rows)`: `rows` equal
/// template rows, one matcher class, one edge per probable row.
pub fn cardinality_central_client(rows: usize) -> PriMaintainer {
    let scoring = Arc::new(QuorumMajority::of_three());
    PriMaintainer::new(pipeline_schema(), scoring, &Template::cardinality(rows))
}

/// [`cardinality_central_client`] and `fills` worker messages for it, each
/// filling the key column of a different seed row: every one replaces a
/// probable row, so it widows one template row and the matcher re-homes it.
pub fn pri_fill_workload(rows: usize, fills: usize) -> (PriMaintainer, Vec<Message>) {
    let mut cc = cardinality_central_client(rows);
    let mut worker = Replica::new(ClientId(1), pipeline_schema());
    for m in cc.take_outbox() {
        worker.process(&m);
    }
    let seeds: Vec<RowId> = worker.table().row_ids().take(fills).collect();
    let msgs = seeds
        .iter()
        .enumerate()
        .map(|(i, &row)| {
            let fill = Operation::Fill {
                row,
                column: ColumnId(0),
                value: Value::text(format!("k{i}")),
            };
            worker.apply_local(&fill).expect("seed row is fillable")
        })
        .collect();
    (cc, msgs)
}
