//! Crash-safe collection persistence (DESIGN.md §14): journal-only
//! recovery, checkpoint + suffix recovery, compaction, the synthetic
//! bootstrap for post-compaction connects, snapshot fallback, the
//! durability of the vote policy and the closed marker across restarts,
//! and settlement after a checkpoint or a compaction and a restart.

use crowdfill_docstore::FsyncPolicy;
use crowdfill_model::ClientId;
use crowdfill_model::{
    Column, ColumnId, DataType, Difference, Message, QuorumMajority, RowId, RowValue, Schema,
    Template, Value,
};
use crowdfill_pay::{Millis, Payout, Scheme, WorkerId};
use crowdfill_server::persist::{self, DurabilityOptions};
use crowdfill_server::{wire, Backend, SubmitError, TaskConfig, WorkerClient};
use crowdfill_sync::Replica;
use std::path::PathBuf;
use std::sync::Arc;

fn config() -> TaskConfig {
    TaskConfig::new(
        Arc::new(
            Schema::new(
                "Persist",
                vec![
                    Column::new("name", DataType::Text),
                    Column::new("n", DataType::Int),
                ],
                &["name"],
            )
            .unwrap(),
        ),
        Arc::new(QuorumMajority::of_three()),
        // Enough template slots for every test's fills (a cardinality
        // template seeds one empty fillable row per slot).
        Template::cardinality(6),
        10.0,
    )
}

fn tmp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "crowdfill-persistence-test-{}-{name}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&p);
    p
}

fn opts() -> DurabilityOptions {
    DurabilityOptions {
        // Tests kill nothing; skip the fsyncs for speed.
        fsync: FsyncPolicy::OsOnly,
        ..DurabilityOptions::default()
    }
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

/// Connects a fresh worker and completes one row per `(name, n)` pair
/// (the second fill triggers the automatic completion upvote). Returns
/// the worker id for later resumes.
fn drive(backend: &mut Backend, fills: &[(&str, i64)], at: u64) -> WorkerId {
    let (id, client_id, history) = backend.connect(Millis(at));
    let mut client = WorkerClient::new(id, client_id, backend.config().schema.clone(), &history);
    for (i, (name, n)) in fills.iter().enumerate() {
        let now = Millis(at + i as u64 + 1);
        let row = row_with_empty(&client, ColumnId(0));
        let mut target = row;
        let outs = client.fill(row, ColumnId(0), Value::text(*name)).unwrap();
        for out in &outs {
            if let Message::Replace { new, .. } = &out.msg {
                target = *new;
            }
        }
        for out in outs {
            backend
                .submit(id, out.msg, now, out.auto_upvote)
                .expect("name fill accepted");
        }
        for (_seq, msg) in backend.poll_seq(id) {
            client.absorb(&msg);
        }
        let outs = client.fill(target, ColumnId(1), Value::int(*n)).unwrap();
        for out in outs {
            backend
                .submit(id, out.msg, now, out.auto_upvote)
                .expect("completing fill accepted");
        }
        for (_seq, msg) in backend.poll_seq(id) {
            client.absorb(&msg);
        }
    }
    id
}

/// A second worker downvotes the lowest complete row (puts something in
/// the downvote history so recovery exercises both histories).
fn downvote_one(backend: &mut Backend, at: u64) {
    let (id, client_id, history) = backend.connect(Millis(at));
    let mut voter = WorkerClient::new(id, client_id, backend.config().schema.clone(), &history);
    let complete = {
        let table = voter.replica().table();
        let schema = voter.replica().schema();
        let mut ids: Vec<RowId> = table.row_ids().collect();
        ids.sort();
        ids.into_iter()
            .find(|r| table.get(*r).unwrap().value.is_complete(schema))
            .expect("no complete row to downvote")
    };
    let out = voter.downvote(complete).unwrap();
    backend
        .submit(id, out.msg, Millis(at + 1), out.auto_upvote)
        .expect("downvote accepted");
}

/// Wire-encoded, seq-tagged history suffix (byte-level comparison).
fn suffix_lines(b: &Backend, from: u64) -> Vec<String> {
    b.history_suffix(from)
        .iter()
        .map(|(seq, m)| format!("{seq}:{}", wire::message_to_json(m).encode()))
        .collect()
}

#[test]
fn journal_only_recovery_restores_state() {
    let dir = tmp_dir("journal-only");
    let mut b = persist::open_or_recover(config(), &dir, &opts()).unwrap();
    drive(&mut b, &[("ada", 1), ("grace", 2)], 10);
    downvote_one(&mut b, 40);

    let r = persist::open_or_recover(config(), &dir, &opts()).unwrap();
    assert_eq!(r.history_len(), b.history_len());
    assert_eq!(r.history_base(), 0, "no checkpoint was written");
    assert!(
        r.master().same_state(b.master()),
        "tables/histories diverged"
    );
    assert_eq!(suffix_lines(&r, 0), suffix_lines(&b, 0));
    drop(b);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoint_plus_suffix_recovery_restores_state() {
    let dir = tmp_dir("ckpt-suffix");
    let mut b = persist::open_or_recover(config(), &dir, &opts()).unwrap();
    drive(&mut b, &[("ada", 1), ("grace", 2)], 10);
    let base = b.checkpoint().unwrap();
    drive(&mut b, &[("alan", 3)], 50);
    downvote_one(&mut b, 80);
    assert!(b.history_len() > base);

    let r = persist::open_or_recover(config(), &dir, &opts()).unwrap();
    assert_eq!(r.history_len(), b.history_len());
    assert_eq!(r.history_base(), base, "recovered from the snapshot image");
    assert!(r.master().same_state(b.master()));
    assert_eq!(suffix_lines(&r, base), suffix_lines(&b, base));
    drop(b);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compaction_truncates_journal_and_preserves_state() {
    let dir = tmp_dir("compact");
    let mut b = persist::open_or_recover(config(), &dir, &opts()).unwrap();
    drive(&mut b, &[("ada", 1), ("grace", 2), ("alan", 3)], 10);
    downvote_one(&mut b, 60);
    let bytes_before = b.wal_bytes();
    assert!(bytes_before > 0);

    let base = b.compact_storage().unwrap();
    assert!(base > 0);
    assert_eq!(b.wal_bytes(), 0, "journal truncated");
    assert_eq!(b.history_base(), base);
    assert_eq!(
        b.history_len(),
        base,
        "retained suffix is empty right after"
    );

    drive(&mut b, &[("edsger", 4)], 90);
    assert!(b.wal_bytes() < bytes_before, "journal restarted small");

    let r = persist::open_or_recover(config(), &dir, &opts()).unwrap();
    assert_eq!(r.history_len(), b.history_len());
    assert!(r.master().same_state(b.master()));
    assert_eq!(suffix_lines(&r, base), suffix_lines(&b, base));
    drop(b);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bootstrap_messages_rebuild_master_state() {
    let mut b = Backend::new(config());
    drive(&mut b, &[("ada", 1), ("grace", 2)], 10);
    downvote_one(&mut b, 40);

    let boot = b.table_image().to_messages();
    let mut fresh = Replica::new(ClientId(77), b.config().schema.clone());
    for m in &boot {
        fresh.process(m);
    }
    assert!(
        fresh.same_state(b.master()),
        "bootstrap did not reproduce the master state"
    );
    assert!(
        boot.len() as u64 <= b.history_len(),
        "bootstrap should be O(live state), not longer than history"
    );
}

#[test]
fn connect_after_compaction_seeds_current_state() {
    let dir = tmp_dir("connect-after-compact");
    let mut b = persist::open_or_recover(config(), &dir, &opts()).unwrap();
    drive(&mut b, &[("ada", 1), ("grace", 2)], 10);
    downvote_one(&mut b, 40);
    b.compact_storage().unwrap();

    let (id, client_id, boot) = b.connect(Millis(100));
    let client = WorkerClient::new(id, client_id, b.config().schema.clone(), &boot);
    assert!(
        client.replica().same_state(b.master()),
        "post-compaction connect must land the client in the master state"
    );
    drop(b);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_latest_snapshot_falls_back_to_previous() {
    let dir = tmp_dir("snapshot-fallback");
    let mut b = persist::open_or_recover(config(), &dir, &opts()).unwrap();
    drive(&mut b, &[("ada", 1)], 10);
    b.checkpoint().unwrap();
    drive(&mut b, &[("grace", 2)], 50);
    b.checkpoint().unwrap();
    drive(&mut b, &[("alan", 3)], 90);

    // Flip a payload byte in the newest snapshot file.
    let snapdir = dir.join("snapshots");
    let mut snaps: Vec<PathBuf> = std::fs::read_dir(&snapdir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "cfsnap"))
        .collect();
    snaps.sort();
    assert!(snaps.len() >= 2, "retention should hold two snapshots");
    let newest = snaps.last().unwrap();
    let mut bytes = std::fs::read(newest).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0xFF;
    std::fs::write(newest, bytes).unwrap();

    let r = persist::open_or_recover(config(), &dir, &opts()).unwrap();
    assert_eq!(r.history_len(), b.history_len());
    assert!(
        r.master().same_state(b.master()),
        "older snapshot + longer journal suffix must converge to the same state"
    );
    drop(b);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn closed_marker_survives_recovery() {
    let dir = tmp_dir("closed");
    let mut b = persist::open_or_recover(config(), &dir, &opts()).unwrap();
    let id = drive(&mut b, &[("ada", 1)], 10);
    let _ = b.settle();
    drop(b);

    let mut r = persist::open_or_recover(config(), &dir, &opts()).unwrap();
    r.resume(id, Millis(1_000)).unwrap();
    let err = r
        .submit(
            id,
            Message::Upvote {
                value: RowValue::empty(),
            },
            Millis(1_001),
            false,
        )
        .unwrap_err();
    assert_eq!(err, SubmitError::CollectionClosed);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn vote_policy_survives_recovery() {
    let dir = tmp_dir("vote-policy");
    let mut b = persist::open_or_recover(config(), &dir, &opts()).unwrap();
    // The completing fill auto-upvoted this worker's row.
    let id = drive(&mut b, &[("ada", 1)], 10);
    let value = b
        .master()
        .table()
        .iter()
        .find(|(_, e)| e.value.is_complete(&b.config().schema))
        .map(|(_, e)| e.value.clone())
        .expect("complete row");
    drop(b);

    let mut r = persist::open_or_recover(config(), &dir, &opts()).unwrap();
    r.resume(id, Millis(100)).unwrap();
    let err = r
        .submit(id, Message::Upvote { value }, Millis(101), false)
        .unwrap_err();
    assert_eq!(
        err,
        SubmitError::AlreadyVoted,
        "recovered session lost its vote-policy state"
    );
    std::fs::remove_dir_all(&dir).ok();
}

/// A payout as bits: per worker, per message (seq, worker, time) and the
/// unspent remainder.
type PayoutBits = (Vec<(u32, u64)>, Vec<(u64, u32, u64, u64)>, u64);

fn payout_bits(p: &Payout) -> PayoutBits {
    let workers = p.per_worker.iter().map(|(w, a)| (w.0, a.to_bits()));
    let messages = p.per_message.iter();
    let messages = messages.map(|(seq, c)| (*seq, c.worker.0, c.at.0, c.amount.to_bits()));
    (workers.collect(), messages.collect(), p.unspent.to_bits())
}

/// The settle-after-restart probe: under `Difference` scoring, worker 1
/// completes three rows, `storage` checkpoints or compacts, worker 2
/// completes one; the backend is reopened and settled. Returns its payout
/// and that of a twin that ran the same ops and never stopped.
fn settle_across_a_restart(
    scheme: Scheme,
    name: &str,
    storage: fn(&mut Backend) -> std::io::Result<u64>,
) -> (Payout, Payout) {
    let config = TaskConfig {
        scoring: Arc::new(Difference),
        template: Template::cardinality(4),
        ..config()
    }
    .with_scheme(scheme);
    let dir = tmp_dir(name);
    let mut twin = Backend::new(config.clone());
    let mut b = persist::open_or_recover(config.clone(), &dir, &opts()).unwrap();
    for backend in [&mut twin, &mut b] {
        drive(backend, &[("ada", 1), ("grace", 2), ("alan", 3)], 10);
    }
    storage(&mut b).unwrap();
    for backend in [&mut twin, &mut b] {
        drive(backend, &[("edsger", 4)], 90);
    }
    drop(b);
    let mut r = persist::open_or_recover(config, &dir, &opts()).unwrap();
    let (_, _, recovered) = r.settle();
    std::fs::remove_dir_all(&dir).ok();
    (recovered, twin.settle().2)
}

/// Every cell is its filler's first entry of its value, so nothing goes
/// unspent: 6 of 8 cells are worker 1's, and dual weighting pays worker 2's
/// late key more.
fn settles_like_its_twin(storage: fn(&mut Backend) -> std::io::Result<u64>, name: &str) {
    for (scheme, expected) in [
        (Scheme::Uniform, (7.5, 2.5, 0.0)),
        (Scheme::ColumnWeighted, (7.5, 2.5, 0.0)),
        (Scheme::DualWeighted, (6.25, 3.75, 0.0)),
    ] {
        let (recovered, twin) = settle_across_a_restart(scheme, name, storage);
        assert_eq!(payout_bits(&recovered), payout_bits(&twin), "{scheme}");
        let paid = |w| recovered.worker_total(WorkerId(w));
        assert_eq!((paid(1), paid(2), recovered.unspent), expected, "{scheme}");
    }
}

#[test]
fn settlement_after_a_checkpoint_and_a_restart_matches_the_twin() {
    settles_like_its_twin(Backend::checkpoint, "settle-checkpoint");
}

#[test]
fn settlement_after_a_compaction_and_a_restart_matches_the_twin() {
    settles_like_its_twin(Backend::compact_storage, "settle-compact");
}
