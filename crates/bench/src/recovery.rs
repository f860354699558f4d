//! The recovery bench (DESIGN.md §14): does restart cost scale with the
//! *journal* or with the *live state*?
//!
//! The workload pins live state constant while the op count grows: a few
//! rows are filled once, then a voter toggles upvote/undo-upvote cycles
//! over their values. Every cycle is a journaled, acked op, but the vote
//! counts oscillate in place — the table, the vote histories, and the
//! session vote sets never grow. Replay-from-journal recovery therefore
//! scales linearly with ops, while checkpoint + suffix recovery (the
//! compacting configuration) must stay flat: that flatness, within 2× at
//! a 100× op-count spread, is asserted here and gates CI through
//! `BENCH_recovery.json`.

use crowdfill_docstore::FsyncPolicy;
use crowdfill_model::{
    Column, ColumnId, DataType, Message, QuorumMajority, RowId, RowValue, Schema, Template, Value,
};
use crowdfill_pay::Millis;
use crowdfill_server::persist::{self, DurabilityOptions};
use crowdfill_server::{Backend, TaskConfig, WorkerClient};
use std::path::PathBuf;
use std::time::Instant;

/// Rows filled before the vote cycles start (the constant live state).
const BASE_ROWS: usize = 8;

/// One measured recovery configuration.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// `recovery/<journal|compacted>/ops=<n>`.
    pub name: String,
    /// Journaled vote-cycle ops driven before measuring.
    pub ops: usize,
    pub reps: usize,
    /// Median wall time of one `open_or_recover` of the directory.
    pub median_recovery_ns: u64,
    /// Journal size left on disk at measurement time.
    pub wal_bytes: u64,
    /// History seqs below the recovered snapshot (0 = full replay).
    pub history_base: u64,
}

fn config() -> TaskConfig {
    TaskConfig::new(
        std::sync::Arc::new(
            Schema::new(
                "Recovery",
                vec![
                    Column::new("name", DataType::Text),
                    Column::new("n", DataType::Int),
                ],
                &["name"],
            )
            .unwrap(),
        ),
        std::sync::Arc::new(QuorumMajority::of_three()),
        Template::cardinality(BASE_ROWS),
        10.0,
    )
}

fn tmp_dir(tag: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "crowdfill-bench-recovery-{}-{tag}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

/// The lowest row id whose `col` is still empty in the client's replica.
fn row_with_empty(client: &WorkerClient, col: ColumnId) -> RowId {
    let table = client.replica().table();
    let schema = client.replica().schema();
    let mut ids: Vec<RowId> = table.row_ids().collect();
    ids.sort();
    ids.into_iter()
        .find(|r| {
            table
                .get(*r)
                .unwrap()
                .value
                .empty_columns(schema)
                .any(|c| c == col)
        })
        .expect("no row with that column empty")
}

/// Fills the base rows and returns their (complete) values.
fn fill_base(b: &mut Backend) -> Vec<RowValue> {
    let (id, client_id, history) = b.connect(Millis(10));
    let mut client = WorkerClient::new(id, client_id, b.config().schema.clone(), &history);
    for i in 0..BASE_ROWS {
        let row = row_with_empty(&client, ColumnId(0));
        let mut target = row;
        let outs = client
            .fill(row, ColumnId(0), Value::text(format!("row-{i}")))
            .unwrap();
        for out in &outs {
            if let Message::Replace { new, .. } = &out.msg {
                target = *new;
            }
        }
        for out in outs {
            b.submit(id, out.msg, Millis(20), out.auto_upvote).unwrap();
        }
        for (_seq, msg) in b.poll_seq(id) {
            client.absorb(&msg);
        }
        let outs = client
            .fill(target, ColumnId(1), Value::int(i as i64))
            .unwrap();
        for out in outs {
            b.submit(id, out.msg, Millis(20), out.auto_upvote).unwrap();
        }
        for (_seq, msg) in b.poll_seq(id) {
            client.absorb(&msg);
        }
    }
    let mut values: Vec<RowValue> = b
        .master()
        .table()
        .iter()
        .map(|(_, e)| e.value.clone())
        .filter(|v| v.len() == 2)
        .collect();
    values.sort();
    values
}

/// Builds a journal of `ops` vote-cycle ops (live state constant), then
/// measures `open_or_recover` `reps` times and reports the median.
/// `compact_wal_bytes = Some(t)` compacts whenever the journal exceeds
/// `t` bytes — the configuration whose recovery must stay flat.
pub fn run_recovery(
    tag: &str,
    ops: usize,
    compact_wal_bytes: Option<u64>,
    reps: usize,
) -> RecoveryReport {
    let dir = tmp_dir(tag);
    let opts = DurabilityOptions {
        // The bench crashes nothing; what it measures is replay, not sync.
        fsync: FsyncPolicy::OsOnly,
        ..DurabilityOptions::default()
    };
    {
        let mut b = persist::open_or_recover(config(), &dir, &opts).unwrap();
        let values = fill_base(&mut b);
        let (voter, _) = b.attach(Millis(30));
        // Toggle state per value: false = next op upvotes, true = undoes.
        let mut voted = vec![false; values.len()];
        for i in 0..ops {
            let k = i % values.len();
            let value = values[k].clone();
            let msg = if voted[k] {
                Message::UndoUpvote { value }
            } else {
                Message::Upvote { value }
            };
            voted[k] = !voted[k];
            b.submit(voter, msg, Millis(40 + i as u64), false).unwrap();
            if let Some(threshold) = compact_wal_bytes {
                if b.wal_bytes() >= threshold {
                    b.compact_storage().unwrap();
                }
            }
        }
    }

    let mut samples: Vec<u128> = Vec::with_capacity(reps);
    let mut wal_bytes = 0;
    let mut history_base = 0;
    for _ in 0..reps {
        let start = Instant::now();
        let recovered = persist::open_or_recover(config(), &dir, &opts).unwrap();
        samples.push(start.elapsed().as_nanos());
        wal_bytes = recovered.wal_bytes();
        history_base = recovered.history_base();
    }
    samples.sort_unstable();
    let median_recovery_ns = samples[samples.len() / 2] as u64;
    let name = format!(
        "recovery/{}/ops={ops}",
        if compact_wal_bytes.is_some() {
            "compacted"
        } else {
            "journal"
        }
    );
    std::fs::remove_dir_all(&dir).ok();
    RecoveryReport {
        name,
        ops,
        reps,
        median_recovery_ns,
        wal_bytes,
        history_base,
    }
}

/// The acceptance bar behind `BENCH_recovery.json`: with compaction on,
/// recovery at `large.ops` (100× `small.ops`) must land within `factor`×
/// of recovery at `small.ops`. Panics — failing the report run, and with
/// it CI — when recovery cost tracks the journal instead of live state.
pub fn assert_flat(small: &RecoveryReport, large: &RecoveryReport, factor: f64) {
    let (s, l) = (small.median_recovery_ns, large.median_recovery_ns);
    assert!(
        (l as f64) <= (s as f64) * factor,
        "compacted recovery is not flat: {} took {l} ns vs {} at {s} ns \
         (bar: {factor}x) — recovery cost is tracking the journal",
        large.name,
        small.name,
    );
}
