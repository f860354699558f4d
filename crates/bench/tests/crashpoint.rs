//! The crash-point matrix (DESIGN.md §14): a child process runs a fixed
//! append → checkpoint → append → compact → append workload on a
//! [`FaultyDisk`] that hard-aborts (`process::abort`, torn write and all)
//! at one exact syscall boundary; the parent recovers the directory with
//! the real disk and asserts the recovery invariant at EVERY boundary:
//!
//! * every op acked before the crash survives recovery, and
//! * the recovered state — table, vote histories and settlement ledger —
//!   is byte-identical to the reference state at the recovered watermark
//!   (no partial op, no phantom op, no drift), and
//! * a run that finished settles like the reference under every scheme.
//!
//! The matrix is exhaustive by construction — boundary indexes advance
//! 1, 2, 3, … until a child finishes the workload without crashing, so
//! every write/fsync/set_len/rename/remove/dir-sync the persistence
//! stack issues is a tested kill point. Seeds (which pick the torn-write
//! prefixes) extend via `CROWDFILL_CRASH_SEEDS=7,8 cargo test -p
//! crowdfill-bench --test crashpoint` without editing the file.

use crowdfill_docstore::{write_json, FaultyDisk, FsyncPolicy, Json};
use crowdfill_model::{
    Column, ColumnId, DataType, Message, QuorumMajority, RowId, Schema, Template, Value,
};
use crowdfill_pay::{allocate, Millis, Payout, Scheme};
use crowdfill_server::persist::{self, DurabilityOptions};
use crowdfill_server::{Backend, TaskConfig, WorkerClient};
use crowdfill_sim::faultplan::{crash_seeds, FaultPlanner};
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::Arc;

fn config() -> TaskConfig {
    TaskConfig::new(
        Arc::new(
            Schema::new(
                "Crash",
                vec![
                    Column::new("name", DataType::Text),
                    Column::new("n", DataType::Int),
                ],
                &["name"],
            )
            .unwrap(),
        ),
        Arc::new(QuorumMajority::of_three()),
        Template::cardinality(8),
        10.0,
    )
}

fn opts() -> DurabilityOptions {
    DurabilityOptions {
        // Acked ⇒ durable is the invariant under test: every journal
        // append must be synced before the ack.
        fsync: FsyncPolicy::Always,
        ..DurabilityOptions::default()
    }
}

/// The scripted workload. Storage steps interleave with ops so crash
/// points land inside the append, checkpoint, AND compact sequences.
enum Step {
    Fill(&'static str, i64),
    Downvote,
    Checkpoint,
    Compact,
}

const STEPS: &[Step] = &[
    Step::Fill("ada", 1),
    Step::Fill("grace", 2),
    Step::Checkpoint,
    Step::Fill("alan", 3),
    Step::Downvote,
    Step::Compact,
    Step::Fill("edsger", 4),
];

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

/// Runs the workload, invoking `on_acked` after every acknowledged
/// message (granularity: one journal record). Storage steps are skipped
/// when the backend has no snapshot store (the in-memory reference).
fn run_workload(b: &mut Backend, mut on_acked: impl FnMut(&Backend)) {
    let (id, client_id, history) = b.connect(Millis(10));
    let mut client = WorkerClient::new(id, client_id, b.config().schema.clone(), &history);
    let mut at = 10u64;
    for step in STEPS {
        at += 10;
        match step {
            Step::Fill(name, n) => {
                let row = row_with_empty(&client, ColumnId(0));
                let mut target = row;
                let outs = client.fill(row, ColumnId(0), Value::text(*name)).unwrap();
                for out in &outs {
                    if let Message::Replace { new, .. } = &out.msg {
                        target = *new;
                    }
                }
                for out in outs {
                    b.submit(id, out.msg, Millis(at), out.auto_upvote).unwrap();
                    on_acked(b);
                }
                for (_seq, msg) in b.poll_seq(id) {
                    client.absorb(&msg);
                }
                let outs = client.fill(target, ColumnId(1), Value::int(*n)).unwrap();
                for out in outs {
                    b.submit(id, out.msg, Millis(at), out.auto_upvote).unwrap();
                    on_acked(b);
                }
                for (_seq, msg) in b.poll_seq(id) {
                    client.absorb(&msg);
                }
            }
            Step::Downvote => {
                // A second worker votes — the policy refuses self-votes
                // on rows the filler itself completed.
                let (vid, vclient_id, vhistory) = b.connect(Millis(at));
                let mut voter =
                    WorkerClient::new(vid, vclient_id, b.config().schema.clone(), &vhistory);
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
                b.submit(vid, out.msg, Millis(at), out.auto_upvote).unwrap();
                on_acked(b);
                for (_seq, msg) in b.poll_seq(id) {
                    client.absorb(&msg);
                }
            }
            Step::Checkpoint => {
                if b.has_snapshots() {
                    b.checkpoint().unwrap();
                }
            }
            Step::Compact => {
                if b.has_snapshots() {
                    b.compact_storage().unwrap();
                }
            }
        }
    }
}

/// Deterministic wire encoding of the backend's table image, then the
/// settlement ledger as the checkpoint encodes it.
fn state_image(b: &Backend) -> String {
    let checkpoint = Json::parse(&persist::encode_backend_state(&b.capture_state())).unwrap();
    let ledger = checkpoint
        .get("ledger")
        .expect("the image carries the ledger");
    let image = write_json(0, |w| b.table_image().write(w));
    [image, ledger.encode()].join("\n")
}

/// The backend's settlement under every scheme, as bits.
fn settlements(b: &mut Backend) -> Vec<Vec<(u64, u64)>> {
    let (_, contributions, _) = b.settle();
    let config = b.config();
    let bits = |p: Payout| {
        let amounts = p.per_message.iter().map(|(s, c)| (*s, c.amount.to_bits()));
        let workers = p
            .per_worker
            .iter()
            .map(|(w, a)| (u64::from(w.0), a.to_bits()));
        let unspent = (u64::MAX, p.unspent.to_bits());
        amounts.chain(workers).chain([unspent]).collect()
    };
    let split = &config.split;
    let pay = |scheme| allocate(scheme, config.budget, &contributions, &config.schema, split);
    Scheme::ALL
        .into_iter()
        .map(|scheme| bits(pay(scheme)))
        .collect()
}

/// Child mode: run the workload on a crash-scheduled FaultyDisk inside
/// `dir`, logging the acked watermark (fsynced, via the REAL fs — the
/// log must survive the injected abort) after every ack. Aborts at the
/// scheduled boundary, or exits cleanly having written the done marker.
fn run_child(dir: &PathBuf, seed: u64, crash_at: u64) {
    let plan = FaultPlanner::new(seed).crash_at(crash_at);
    let disk = FaultyDisk::new(plan);
    let mut backend = persist::open_or_recover_on(Arc::new(disk), config(), dir, &opts()).unwrap();
    let mut acked = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(dir.join("acked.log"))
        .unwrap();
    run_workload(&mut backend, |b| {
        let line = format!("{}\n", b.history_len());
        acked.write_all(line.as_bytes()).unwrap();
        acked.sync_data().unwrap();
    });
    std::fs::write(dir.join("done"), b"1").unwrap();
}

/// Parent-side verification after a crashed child: recover with the real
/// disk and hold the invariant against the reference trajectory. Returns
/// the recovered backend.
fn verify_recovery(
    dir: &PathBuf,
    reference: &[(u64, String)],
    boundary: u64,
    seed: u64,
) -> Backend {
    let acked_watermark = std::fs::read_to_string(dir.join("acked.log"))
        .unwrap_or_default()
        .lines()
        .filter_map(|l| l.trim().parse::<u64>().ok())
        .max();
    let recovered = persist::open_or_recover(config(), dir, &opts())
        .unwrap_or_else(|e| panic!("seed {seed} boundary {boundary}: recovery failed: {e}"));
    let watermark = recovered.history_len();
    if let Some(acked) = acked_watermark {
        assert!(
            watermark >= acked,
            "seed {seed} boundary {boundary}: acked op lost \
             (acked through {acked}, recovered only {watermark})"
        );
    }
    let expected = reference
        .iter()
        .find(|(len, _)| *len == watermark)
        .unwrap_or_else(|| {
            panic!(
                "seed {seed} boundary {boundary}: recovered watermark {watermark} \
                 not on the reference trajectory"
            )
        });
    assert_eq!(
        state_image(&recovered),
        expected.1,
        "seed {seed} boundary {boundary}: recovered state diverged at watermark {watermark}"
    );
    recovered
}

#[test]
fn crash_point_matrix() {
    // Child mode: the env var carries "<seed>:<boundary>:<dir>".
    if let Ok(spec) = std::env::var("CROWDFILL_CRASH_AT") {
        let mut parts = spec.splitn(3, ':');
        let seed: u64 = parts.next().unwrap().parse().unwrap();
        let crash_at: u64 = parts.next().unwrap().parse().unwrap();
        let dir = PathBuf::from(parts.next().unwrap());
        run_child(&dir, seed, crash_at);
        // Exit without running the test harness epilogue: the parent
        // checks the done marker, not this process's test output.
        std::process::exit(0);
    }

    // The reference trajectory: the same workload on an in-memory
    // backend, recording the state image at every acked watermark (plus
    // the pre-workload template state).
    let mut reference: Vec<(u64, String)> = Vec::new();
    let mut uncrashed = Backend::new(config());
    reference.push((uncrashed.history_len(), state_image(&uncrashed)));
    run_workload(&mut uncrashed, |b| {
        reference.push((b.history_len(), state_image(b)));
    });

    let exe = std::env::current_exe().unwrap();
    for seed in crash_seeds(&[7]) {
        let mut boundary = 1u64;
        let matrix_size = loop {
            let dir = {
                let mut p = std::env::temp_dir();
                p.push(format!(
                    "crowdfill-crashpoint-{}-{seed}-{boundary}",
                    std::process::id()
                ));
                let _ = std::fs::remove_dir_all(&p);
                std::fs::create_dir_all(&p).unwrap();
                p
            };
            let status = std::process::Command::new(&exe)
                .arg("crash_point_matrix")
                .arg("--exact")
                .arg("--nocapture")
                .arg("--test-threads=1")
                .env(
                    "CROWDFILL_CRASH_AT",
                    format!("{seed}:{boundary}:{}", dir.display()),
                )
                .stdout(std::process::Stdio::null())
                .stderr(std::process::Stdio::null())
                .status()
                .unwrap();
            let done = dir.join("done").exists();
            if done {
                // The workload out-ran the boundary index: every syscall
                // boundary of the sequence has now been killed once.
                assert!(
                    status.success(),
                    "seed {seed}: clean child run exited with {status}"
                );
                // A full run must also recover to the final reference state,
                // and settle exactly as the uncrashed run.
                let mut recovered = verify_recovery(&dir, &reference, boundary, seed);
                assert_eq!(
                    settlements(&mut recovered),
                    settlements(&mut uncrashed),
                    "seed {seed}: settlement diverged"
                );
                std::fs::remove_dir_all(&dir).ok();
                assert!(
                    boundary > 20,
                    "matrix suspiciously small: only {boundary} boundaries"
                );
                break boundary;
            }
            // The only acceptable non-finish is the injected abort
            // (SIGABRT). A panic or error exit means the harness itself
            // broke, not that the crash point was exercised.
            use std::os::unix::process::ExitStatusExt;
            assert_eq!(
                status.signal(),
                Some(6), // SIGABRT
                "seed {seed} boundary {boundary}: child ended with {status}, \
                 expected the injected abort"
            );
            verify_recovery(&dir, &reference, boundary, seed);
            std::fs::remove_dir_all(&dir).ok();
            boundary += 1;
            assert!(
                boundary < 10_000,
                "matrix never terminated — workload boundary count exploded"
            );
        };
        println!("seed {seed}: crash matrix held across all {matrix_size} boundaries");
    }
}
