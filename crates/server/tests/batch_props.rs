//! The batch/singleton equivalence property (the correctness half of the
//! batched pipeline): for any operation script, applying the recorded op
//! stream through [`Backend::submit_batch`] — under *any* batch boundaries —
//! yields a broadcast history, master replica, per-op results, and observer
//! outbox **byte-identical** to applying the same ops one at a time.
//!
//! Plus the amortization half: a batch journals exactly one WAL frame (and,
//! under `FsyncPolicy::EveryN(1)`, one fsync), where the singleton path
//! journals one frame per op.

use crowdfill_docstore::{FsyncPolicy, Wal};
use crowdfill_model::{
    Column, ColumnId, DataType, Message, QuorumMajority, RowId, Schema, Template, Value,
};
use crowdfill_obs::trace::TraceId;
use crowdfill_pay::{Millis, WorkerId};
use crowdfill_server::wire::TableImage;
use crowdfill_server::{
    persist, wire, Backend, BatchJob, BatchOp, JournalRecord, TaskConfig, WorkerClient,
};
use crowdfill_sync::AppliedSeqs;
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Arc;

// ---- Allocation counting ---------------------------------------------------
//
// A counting wrapper around the system allocator, tallying per *thread*:
// `submit`/`submit_batch` run synchronously on the calling thread, so a
// thread-local count is immune to the other tests in this binary running
// concurrently on harness threads. Only allocations are counted (frees are
// not interesting for the regression this guards).

struct CountingAlloc;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // `try_with` so counting degrades to a no-op during TLS teardown.
        let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let _ = THREAD_ALLOCS.try_with(|n| n.set(n.get() + 1));
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

fn thread_allocs() -> u64 {
    THREAD_ALLOCS.with(|n| n.get())
}

fn schema() -> Arc<Schema> {
    Arc::new(
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
    )
}

fn config() -> TaskConfig {
    TaskConfig::new(
        schema(),
        Arc::new(QuorumMajority::of_three()),
        Template::cardinality(2),
        10.0,
    )
}

#[derive(Debug, Clone)]
enum Action {
    Fill {
        row_pick: usize,
        col_pick: usize,
        value_pick: usize,
    },
    Upvote {
        row_pick: usize,
    },
    Downvote {
        row_pick: usize,
    },
    Modify {
        row_pick: usize,
        col_pick: usize,
        value_pick: usize,
    },
    Deliver,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        4 => (0usize..8, 0usize..3, 0usize..4).prop_map(|(row_pick, col_pick, value_pick)| {
            Action::Fill { row_pick, col_pick, value_pick }
        }),
        2 => (0usize..8).prop_map(|row_pick| Action::Upvote { row_pick }),
        2 => (0usize..8).prop_map(|row_pick| Action::Downvote { row_pick }),
        2 => (0usize..8, 0usize..3, 4usize..8).prop_map(|(row_pick, col_pick, value_pick)| {
            Action::Modify { row_pick, col_pick, value_pick }
        }),
        2 => Just(Action::Deliver),
    ]
}

/// One recorded submission: exactly what the batched run will replay.
struct Recorded {
    worker: WorkerId,
    op: BatchOp,
}

/// A worker client driving the reference (singleton) run, with the exact
/// seq-dedup bookkeeping the production client library keeps.
struct SimWorker {
    id: WorkerId,
    client: WorkerClient,
    applied: AppliedSeqs,
}

impl SimWorker {
    fn connect(backend: &mut Backend) -> SimWorker {
        let (id, client_id, history) = backend.connect(Millis(0));
        let client = WorkerClient::new(id, client_id, backend.config().schema.clone(), &history);
        let mut applied = AppliedSeqs::new();
        applied.note_prefix(history.len() as u64);
        SimWorker {
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

    fn note_seqs(&mut self, seqs: &[u64]) {
        for s in seqs {
            self.applied.note(*s);
        }
    }

    /// On rejection the client's optimistic local application is erased by a
    /// full rebuild from the true history (the production resync path).
    fn resync(&mut self, backend: &Backend, msgs: &[Message]) {
        for msg in msgs {
            self.client.retract_own_vote_record(msg);
        }
        let history: Vec<Message> = backend
            .history_suffix(0)
            .into_iter()
            .map(|(_, m)| m)
            .collect();
        self.client.adopt(&TableImage::default(), &history);
        self.applied.reset_to_prefix(backend.history_len());
    }
}

/// Runs the script through the direct singleton path, recording every
/// submission and its outcome. The observer (connected first, never polled)
/// accumulates the full broadcast fan-out in its outbox.
fn reference_run(script: &[(usize, Action)]) -> (Backend, WorkerId, Vec<Recorded>, Vec<String>) {
    let mut backend = Backend::new(config());
    let (observer, _, _) = backend.connect(Millis(0));
    let mut workers = [
        SimWorker::connect(&mut backend),
        SimWorker::connect(&mut backend),
    ];
    let mut recorded = Vec::new();
    let mut results = Vec::new();

    for (who, action) in script {
        let w = &mut workers[who % 2];
        let tag = who % 2;
        let table = w.client.replica().table();
        let rows: Vec<RowId> = table.row_ids().collect();
        match action {
            Action::Deliver => w.deliver(&mut backend),
            Action::Fill {
                row_pick,
                col_pick,
                value_pick,
            } => {
                if rows.is_empty() {
                    continue;
                }
                let row = rows[row_pick % rows.len()];
                let empties: Vec<ColumnId> = table
                    .get(row)
                    .unwrap()
                    .value
                    .empty_columns(w.client.replica().schema())
                    .collect();
                if empties.is_empty() {
                    continue;
                }
                let col = empties[col_pick % empties.len()];
                let value = Value::text(format!("w{tag}-v{value_pick}"));
                if let Ok(outs) = w.client.fill(row, col, value) {
                    for out in outs {
                        let result =
                            backend.submit(w.id, out.msg.clone(), Millis(1), out.auto_upvote);
                        recorded.push(Recorded {
                            worker: w.id,
                            op: BatchOp::Msg {
                                msg: out.msg.clone(),
                                auto_upvote: out.auto_upvote,
                            },
                        });
                        results.push(format!("{result:?}"));
                        match result {
                            Ok(report) => w.note_seqs(&report.seqs),
                            Err(_) => {
                                w.resync(&backend, &[out.msg]);
                                break;
                            }
                        }
                    }
                }
            }
            Action::Upvote { row_pick } | Action::Downvote { row_pick } => {
                if rows.is_empty() {
                    continue;
                }
                let row = rows[row_pick % rows.len()];
                let out = match action {
                    Action::Upvote { .. } => w.client.upvote(row),
                    _ => w.client.downvote(row),
                };
                if let Ok(out) = out {
                    let result = backend.submit(w.id, out.msg.clone(), Millis(1), false);
                    recorded.push(Recorded {
                        worker: w.id,
                        op: BatchOp::Msg {
                            msg: out.msg.clone(),
                            auto_upvote: false,
                        },
                    });
                    results.push(format!("{result:?}"));
                    match result {
                        Ok(report) => w.note_seqs(&report.seqs),
                        Err(_) => w.resync(&backend, &[out.msg]),
                    }
                }
            }
            Action::Modify {
                row_pick,
                col_pick,
                value_pick,
            } => {
                if rows.is_empty() {
                    continue;
                }
                let row = rows[row_pick % rows.len()];
                let col = ColumnId((col_pick % 3) as u16);
                let value = Value::text(format!("w{tag}-m{value_pick}"));
                if let Ok(bundle) = w.client.modify(row, col, value) {
                    let msgs: Vec<(Message, bool)> =
                        bundle.into_iter().map(|o| (o.msg, o.auto_upvote)).collect();
                    let result = backend.submit_modify(w.id, msgs.clone(), Millis(1));
                    recorded.push(Recorded {
                        worker: w.id,
                        op: BatchOp::Modify {
                            bundle: msgs.clone(),
                        },
                    });
                    results.push(format!("{result:?}"));
                    match result {
                        Ok(report) => w.note_seqs(&report.seqs),
                        Err(_) => {
                            let only_msgs: Vec<Message> =
                                msgs.into_iter().map(|(m, _)| m).collect();
                            w.resync(&backend, &only_msgs);
                        }
                    }
                }
            }
        }
    }
    (backend, observer, recorded, results)
}

/// Replays the recorded op stream through `submit_batch` with the given
/// batch boundaries (chunk sizes, cycled). Asserts the seq ranges returned
/// by consecutive batches tile the history contiguously.
fn batched_replay(recorded: &[Recorded], sizes: &[usize]) -> (Backend, WorkerId, Vec<String>) {
    let mut backend = Backend::new(config());
    let (observer, _, _) = backend.connect(Millis(0));
    backend.connect(Millis(0));
    backend.connect(Millis(0));
    let mut results = Vec::new();
    let mut next_seq = backend.history_len();
    let mut idx = 0;
    let mut chunk = 0;
    while idx < recorded.len() {
        let size = sizes[chunk % sizes.len()].max(1);
        chunk += 1;
        let end = (idx + size).min(recorded.len());
        let jobs: Vec<BatchJob> = recorded[idx..end]
            .iter()
            .map(|r| BatchJob {
                worker: r.worker,
                op: r.op.clone(),
                trace: TraceId::NONE,
            })
            .collect();
        idx = end;
        let outcome = backend.submit_batch(jobs, Millis(1));
        assert_eq!(
            outcome.first_seq, next_seq,
            "batch seq range does not start where the previous one ended"
        );
        assert_eq!(
            outcome.end_seq,
            backend.history_len(),
            "seq range end drifted"
        );
        next_seq = outcome.end_seq;
        for r in outcome.results {
            results.push(format!("{r:?}"));
        }
    }
    (backend, observer, results)
}

/// Replays the recorded op stream through the singleton `submit` /
/// `submit_modify` path — the comparator for the batch path's per-op
/// allocation and write behavior.
fn singleton_replay(recorded: &[Recorded]) -> (Backend, Vec<String>) {
    let mut backend = attended_backend(0);
    let results = apply_singly(&mut backend, recorded);
    (backend, results)
}

/// A fresh backend with the reference run's three sessions attached, plus
/// `observers` more that nobody ever polls.
fn attended_backend(observers: usize) -> Backend {
    let mut backend = Backend::new(config());
    for _ in 0..3 + observers {
        backend.connect(Millis(0));
    }
    backend
}

fn apply_singly(backend: &mut Backend, recorded: &[Recorded]) -> Vec<String> {
    // Format results exactly as `batched_replay` does, so the two replays
    // differ only in how ops reach the backend.
    let mut results = Vec::new();
    for r in recorded {
        match &r.op {
            BatchOp::Msg { msg, auto_upvote } => {
                let result = backend.submit(r.worker, msg.clone(), Millis(1), *auto_upvote);
                results.push(format!("{result:?}"));
            }
            BatchOp::Modify { bundle } => {
                let result = backend.submit_modify(r.worker, bundle.clone(), Millis(1));
                results.push(format!("{result:?}"));
            }
        }
    }
    results
}

/// A script that keeps the table churning (modifies re-open filled rows),
/// so the recorded stream stays long enough to count allocations over.
fn churn_script() -> Vec<(usize, Action)> {
    (0..160)
        .map(|i| {
            let action = match i % 5 {
                0 => Action::Fill {
                    row_pick: i,
                    col_pick: i / 2,
                    value_pick: i % 4,
                },
                1 => Action::Deliver,
                2 => Action::Upvote { row_pick: i },
                3 => Action::Fill {
                    row_pick: i / 3,
                    col_pick: i,
                    value_pick: (i + 1) % 4,
                },
                _ => Action::Modify {
                    row_pick: i,
                    col_pick: i,
                    value_pick: 4 + (i % 4),
                },
            };
            (i, action)
        })
        .collect()
}

/// The allocation half of the no-win-batcher regression fix: submitting the
/// recorded op stream as batches must not heap-allocate more than submitting
/// it op by op. The regression this pins down was the batch path deep-cloning
/// every op (row-value cell maps and all) before applying it; with the
/// arena/interned model an op clone is a refcount bump, and batching strictly
/// saves work (one journal frame, one broadcast flush per batch).
#[test]
fn batched_apply_allocates_no_more_than_singleton() {
    let (_, _, recorded, _) = reference_run(&churn_script());
    assert!(
        recorded.len() >= 48,
        "script recorded only {} ops — too few for a meaningful comparison",
        recorded.len()
    );

    let count = |f: &dyn Fn() -> Backend| {
        let before = thread_allocs();
        let backend = f();
        let during = thread_allocs() - before;
        drop(backend);
        during
    };
    // One warm-up pass per path: interner pool, metrics registration, and
    // other one-time lazies land outside the measured passes.
    count(&|| singleton_replay(&recorded).0);
    count(&|| batched_replay(&recorded, &[32]).0);

    let singleton = count(&|| singleton_replay(&recorded).0);
    let batched = count(&|| batched_replay(&recorded, &[32]).0);

    // Allow a whisker of fixed per-batch overhead (result vectors, seq
    // bookkeeping); anything like a per-op deep clone (several allocations
    // per op) must fail.
    let slack = recorded.len() as u64 / 8;
    assert!(
        batched <= singleton + slack,
        "batched replay allocated more than singleton: {batched} vs {singleton} (+{slack} slack, {} ops)",
        recorded.len()
    );
}

/// Applying a message costs the same however large the crowd watching it:
/// the op log holds it once and a session is a cursor into the log, so one
/// op stream allocates **exactly** as often with 64 more attached,
/// never-polled sessions as with none. (With a message queue per session
/// it did not: every apply pushed a clone into every other session's.)
#[test]
fn apply_allocations_do_not_depend_on_observers() {
    let (_, _, recorded, _) = reference_run(&churn_script());
    let count = |observers: usize| {
        let mut backend = attended_backend(observers);
        let before = thread_allocs();
        let results = apply_singly(&mut backend, &recorded);
        (thread_allocs() - before, results)
    };
    // Warm-up: one-time lazies (interner, metrics) land outside the counts.
    count(0);
    let (alone, results) = count(0);
    let (watched, results_watched) = count(64);
    assert_eq!(results, results_watched);
    let accepted = results.iter().filter(|r| r.starts_with("Ok")).count();
    assert!(accepted >= 32, "only {accepted} ops accepted");
    assert_eq!(
        alone,
        watched,
        "{} ops allocated {alone} times unobserved, {watched} times under 64 observers",
        recorded.len()
    );
}

/// The broadcast history as the exact bytes the wire codec would carry.
fn history_bytes(backend: &Backend) -> Vec<String> {
    backend
        .history_suffix(0)
        .iter()
        .map(|(seq, m)| format!("{seq}:{}", wire::message_to_json(m).encode()))
        .collect()
}

fn outbox_bytes(backend: &mut Backend, worker: WorkerId) -> Vec<String> {
    backend
        .poll_seq(worker)
        .iter()
        .map(|(seq, m)| format!("{seq}:{}", wire::message_to_json(m).encode()))
        .collect()
}

proptest! {
    /// Any script, any batch boundaries: batched apply ≡ singleton apply,
    /// byte for byte.
    #[test]
    fn batched_apply_is_byte_identical_to_singleton(
        script in proptest::collection::vec((0usize..2, action_strategy()), 4..48),
        sizes in proptest::collection::vec(1usize..9, 1..12),
    ) {
        let (single, obs_a, recorded, results_a) = reference_run(&script);
        let (batched, obs_b, results_b) = batched_replay(&recorded, &sizes);

        prop_assert_eq!(&results_a, &results_b, "per-op results diverged");
        prop_assert_eq!(
            history_bytes(&single),
            history_bytes(&batched),
            "broadcast history diverged"
        );
        prop_assert!(
            single.master().same_state(batched.master()),
            "master replicas diverged"
        );
        let mut single = single;
        let mut batched = batched;
        prop_assert_eq!(
            outbox_bytes(&mut single, obs_a),
            outbox_bytes(&mut batched, obs_b),
            "observer broadcast fan-out diverged"
        );
    }
}

/// The amortization half: n singleton submits journal n WAL frames; the
/// same ops as one batch journal exactly one frame, which decodes back to
/// the identical seq-tagged history delta.
#[test]
fn batch_journals_one_coalesced_wal_frame() {
    let dir = std::env::temp_dir();
    let unique = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .unwrap()
        .as_nanos();
    let single_path = dir.join(format!("crowdfill-batch-wal-single-{unique}.wal"));
    let batch_path = dir.join(format!("crowdfill-batch-wal-batch-{unique}.wal"));

    // Record a short op stream: one worker fills a full row (3 fills + the
    // automatic completion upvote riding on the last one).
    let mut backend = Backend::new(config());
    let (_observer, _, _) = backend.connect(Millis(0));
    let mut w = SimWorker::connect(&mut backend);
    let mut recorded: Vec<Recorded> = Vec::new();
    let mut row: RowId = w.client.replica().table().row_ids().next().unwrap();
    for (c, v) in [(0u16, "a"), (1, "b"), (2, "c")] {
        let outs = w.client.fill(row, ColumnId(c), Value::text(v)).unwrap();
        // A fill replaces its target row with a fresh one; chase it.
        row = outs[0].msg.creates_row().unwrap();
        for out in outs {
            let report = backend
                .submit(w.id, out.msg.clone(), Millis(1), out.auto_upvote)
                .unwrap();
            w.note_seqs(&report.seqs);
            recorded.push(Recorded {
                worker: w.id,
                op: BatchOp::Msg {
                    msg: out.msg.clone(),
                    auto_upvote: out.auto_upvote,
                },
            });
            w.deliver(&mut backend);
        }
    }
    assert!(recorded.len() >= 4, "expected a multi-op stream");

    let frames_on = |path: &std::path::Path, run: &dyn Fn(&mut Backend)| {
        let mut b = Backend::new(config());
        b.connect(Millis(0));
        b.connect(Millis(0));
        let wal = Wal::open_with(path, FsyncPolicy::EveryN(1), |_| {}).unwrap();
        b.attach_wal(wal);
        run(&mut b);
        drop(b.detach_wal());
        let mut frames: Vec<Vec<u8>> = Vec::new();
        let _ = Wal::open(path, |rec| frames.push(rec.to_vec())).unwrap();
        std::fs::remove_file(path).unwrap();
        (frames, b)
    };

    let (single_frames, _) = frames_on(&single_path, &|b| {
        for r in &recorded {
            if let BatchOp::Msg { msg, auto_upvote } = &r.op {
                b.submit(r.worker, msg.clone(), Millis(1), *auto_upvote)
                    .unwrap();
            }
        }
    });
    let (batch_frames, batched) = frames_on(&batch_path, &|b| {
        let jobs: Vec<BatchJob> = recorded
            .iter()
            .map(|r| BatchJob {
                worker: r.worker,
                op: r.op.clone(),
                trace: TraceId::NONE,
            })
            .collect();
        let outcome = b.submit_batch(jobs, Millis(1));
        for r in outcome.results {
            r.unwrap();
        }
    });

    assert_eq!(
        single_frames.len(),
        recorded.len(),
        "singleton path journals one frame per op"
    );
    assert_eq!(batch_frames.len(), 1, "batched path coalesces to one frame");

    // The one frame decodes back to the batch's exact history delta.
    let Some(JournalRecord::Frame(frame)) = persist::decode_journal_record(&batch_frames[0]) else {
        panic!("the batch's record is not a frame");
    };
    let delta: Vec<(u64, Message)> = frame.entries.into_iter().map(|e| (e.seq, e.msg)).collect();
    let suffix = batched.history_suffix(delta[0].0);
    assert_eq!(delta.len(), suffix.len());
    for ((sa, ma), (sb, mb)) in delta.iter().zip(suffix.iter()) {
        assert_eq!(sa, sb);
        assert_eq!(
            wire::message_to_json(ma).encode(),
            wire::message_to_json(mb).encode()
        );
    }
}
