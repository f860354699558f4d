//! Property-based verification of the resume protocol: for any operation
//! script from two workers, any cut point at which one worker's connection
//! dies (losing everything still in its outbox), and any offline window
//! length, the resumed worker — replaying exactly the history suffix its
//! [`AppliedSeqs`] cursor says it is missing — converges back to the same
//! state as the master and the uninterrupted worker.
//!
//! This is the backend half of the recovery layer, exercised without TCP:
//! the wire-level half (redial, in-flight matching, ack recovery) is
//! covered by the fault-injected suite in `tests/faults.rs`.

use crowdfill_model::{
    Column, ColumnId, DataType, Message, QuorumMajority, RowId, Schema, Template, Value,
};
use crowdfill_pay::{Millis, WorkerId};
use crowdfill_server::wire::TableImage;
use crowdfill_server::{Backend, TaskConfig, WorkerClient};
use crowdfill_sync::AppliedSeqs;
use proptest::prelude::*;
use std::sync::Arc;

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
    /// Fill the `row_pick`-th visible row in its `col_pick`-th empty column.
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
    /// Deliver this worker's pending broadcasts.
    Deliver,
}

fn action_strategy() -> impl Strategy<Value = Action> {
    prop_oneof![
        4 => (0usize..8, 0usize..3, 0usize..4).prop_map(|(row_pick, col_pick, value_pick)| {
            Action::Fill { row_pick, col_pick, value_pick }
        }),
        2 => (0usize..8).prop_map(|row_pick| Action::Upvote { row_pick }),
        2 => (0usize..8).prop_map(|row_pick| Action::Downvote { row_pick }),
        3 => Just(Action::Deliver),
    ]
}

/// A worker as the client library models it: a local replica plus the exact
/// set of history seqs it has applied.
struct SimWorker {
    id: WorkerId,
    client: WorkerClient,
    applied: AppliedSeqs,
    online: bool,
}

impl SimWorker {
    fn connect(backend: &mut Backend, at: Millis) -> SimWorker {
        let (id, client_id, history) = backend.connect(at);
        let client = WorkerClient::new(id, client_id, backend.config().schema.clone(), &history);
        let mut applied = AppliedSeqs::new();
        applied.note_prefix(history.len() as u64);
        SimWorker {
            id,
            client,
            applied,
            online: true,
        }
    }

    /// Absorbs pending broadcasts, seq-deduplicated.
    fn deliver(&mut self, backend: &mut Backend) {
        for (seq, msg) in backend.poll_seq(self.id) {
            if self.applied.note(seq) {
                self.client.absorb(&msg);
            }
        }
    }

    /// Submits an already-locally-applied outgoing message; on rejection,
    /// falls back to the production full-resync path. Returns whether the
    /// message landed — a rejection must abort the rest of its bundle, as
    /// the client library does (submitting a bundle's tail after a resync
    /// erased its local application would diverge for good).
    fn submit(&mut self, backend: &mut Backend, msg: &Message, auto: bool, at: Millis) -> bool {
        match backend.submit(self.id, msg.clone(), at, auto) {
            Ok(report) => {
                for s in report.seqs {
                    self.applied.note(s);
                }
                true
            }
            Err(_) => {
                self.client.retract_own_vote_record(msg);
                let history: Vec<Message> = backend
                    .history_suffix(0)
                    .into_iter()
                    .map(|(_, m)| m)
                    .collect();
                self.client.adopt(&TableImage::default(), &history);
                self.applied.reset_to_prefix(backend.history_len());
                false
            }
        }
    }

    /// The resume handshake against the backend: re-attach the session and
    /// replay exactly the missing history suffix.
    fn resume(&mut self, backend: &mut Backend, at: Millis) {
        let from = self.applied.last_contiguous().map_or(0, |s| s + 1);
        backend.resume(self.id, at).expect("known worker resumes");
        for (seq, msg) in backend.history_suffix(from) {
            if self.applied.note(seq) {
                self.client.absorb(&msg);
            }
        }
        self.online = true;
    }

    fn act(&mut self, backend: &mut Backend, action: &Action, tag: u32, at: Millis) {
        let table = self.client.replica().table();
        let rows: Vec<RowId> = table.row_ids().collect();
        match action {
            Action::Deliver => self.deliver(backend),
            Action::Fill {
                row_pick,
                col_pick,
                value_pick,
            } => {
                if rows.is_empty() {
                    return;
                }
                let row = rows[row_pick % rows.len()];
                let empties: Vec<ColumnId> = table
                    .get(row)
                    .unwrap()
                    .value
                    .empty_columns(self.client.replica().schema())
                    .collect();
                if empties.is_empty() {
                    return;
                }
                let col = empties[col_pick % empties.len()];
                // Per-worker value namespaces keep key collisions (and thus
                // uninteresting duplicate-key rejections) out of the script.
                let value = Value::text(format!("w{tag}-v{value_pick}"));
                if let Ok(outs) = self.client.fill(row, col, value) {
                    for out in outs {
                        if !self.submit(backend, &out.msg, out.auto_upvote, at) {
                            break;
                        }
                    }
                }
            }
            Action::Upvote { row_pick } => {
                if rows.is_empty() {
                    return;
                }
                if let Ok(out) = self.client.upvote(rows[row_pick % rows.len()]) {
                    self.submit(backend, &out.msg, false, at);
                }
            }
            Action::Downvote { row_pick } => {
                if rows.is_empty() {
                    return;
                }
                if let Ok(out) = self.client.downvote(rows[row_pick % rows.len()]) {
                    self.submit(backend, &out.msg, false, at);
                }
            }
        }
    }
}

/// Runs the script with worker 0 losing its connection at `cut` (every
/// undelivered broadcast is lost with it) and resuming `gap` actions later;
/// returns the backend and both workers after a final resume + drain.
fn run(script: &[(usize, Action)], cut: usize, gap: usize) -> (Backend, SimWorker, SimWorker) {
    let mut backend = Backend::new(config());
    let mut w0 = SimWorker::connect(&mut backend, Millis(0));
    let mut w1 = SimWorker::connect(&mut backend, Millis(0));
    let cut = cut % script.len();
    let resume_at = cut + gap;

    for (i, (who, action)) in script.iter().enumerate() {
        let at = Millis(1 + i as u64);
        if i == cut && w0.online {
            // The connection dies: the session detaches and everything in
            // its outbox vanishes with the dead socket.
            backend.disconnect(w0.id);
            w0.online = false;
        }
        if i == resume_at && !w0.online {
            w0.resume(&mut backend, at);
        }
        let (w, tag) = if who % 2 == 0 {
            (&mut w0, 0u32)
        } else {
            (&mut w1, 1u32)
        };
        if w.online {
            w.act(&mut backend, action, tag, at);
        }
    }

    if !w0.online {
        w0.resume(&mut backend, Millis(1 + script.len() as u64));
    }
    w0.deliver(&mut backend);
    w1.deliver(&mut backend);
    (backend, w0, w1)
}

/// Deterministic regression (found by the property below): when the head of
/// a fill bundle is rejected mid-script, the resync erases the bundle's
/// local application — submitting the tail anyway (the policy-exempt auto
/// upvote) puts a message in the history that the submitter itself never
/// re-applies, diverging its vote history for good. The bundle must abort
/// at the first rejection.
#[test]
fn rejected_bundle_head_aborts_tail() {
    use Action::*;
    let script = vec![
        (
            1,
            Fill {
                row_pick: 7,
                col_pick: 0,
                value_pick: 0,
            },
        ),
        (0, Upvote { row_pick: 3 }),
        (
            1,
            Fill {
                row_pick: 6,
                col_pick: 2,
                value_pick: 0,
            },
        ),
        (0, Deliver),
        (1, Deliver),
        (
            0,
            Fill {
                row_pick: 2,
                col_pick: 1,
                value_pick: 1,
            },
        ),
        (1, Upvote { row_pick: 4 }),
        (0, Downvote { row_pick: 3 }),
        (0, Deliver),
        (1, Upvote { row_pick: 4 }),
        (1, Deliver),
        (1, Downvote { row_pick: 1 }),
        (1, Upvote { row_pick: 1 }),
        (
            0,
            Fill {
                row_pick: 3,
                col_pick: 0,
                value_pick: 2,
            },
        ),
        (0, Upvote { row_pick: 5 }),
        (
            1,
            Fill {
                row_pick: 5,
                col_pick: 2,
                value_pick: 3,
            },
        ),
        (
            1,
            Fill {
                row_pick: 7,
                col_pick: 0,
                value_pick: 1,
            },
        ),
        (
            0,
            Fill {
                row_pick: 5,
                col_pick: 1,
                value_pick: 2,
            },
        ),
        (
            0,
            Fill {
                row_pick: 1,
                col_pick: 0,
                value_pick: 0,
            },
        ),
        (
            1,
            Fill {
                row_pick: 3,
                col_pick: 2,
                value_pick: 0,
            },
        ),
        (0, Deliver),
        (
            1,
            Fill {
                row_pick: 4,
                col_pick: 2,
                value_pick: 2,
            },
        ),
        (
            0,
            Fill {
                row_pick: 6,
                col_pick: 1,
                value_pick: 2,
            },
        ),
        (
            1,
            Fill {
                row_pick: 1,
                col_pick: 1,
                value_pick: 3,
            },
        ),
        (
            0,
            Fill {
                row_pick: 4,
                col_pick: 0,
                value_pick: 2,
            },
        ),
        (
            0,
            Fill {
                row_pick: 7,
                col_pick: 0,
                value_pick: 1,
            },
        ),
        (1, Deliver),
        (1, Deliver),
        (
            1,
            Fill {
                row_pick: 2,
                col_pick: 1,
                value_pick: 1,
            },
        ),
        (1, Downvote { row_pick: 2 }),
    ];
    let (backend, w0, w1) = run(&script, 33, 8);
    assert!(w0.client.replica().same_state(backend.master()));
    assert!(w1.client.replica().same_state(backend.master()));
}

proptest! {
    /// The resume convergence property: any script, any cut, any gap.
    #[test]
    fn resumed_replica_converges(
        script in proptest::collection::vec((0usize..2, action_strategy()), 4..40),
        cut in 0usize..40,
        gap in 0usize..10,
    ) {
        let (backend, w0, w1) = run(&script, cut, gap);
        prop_assert!(
            w0.client.replica().same_state(backend.master()),
            "resumed replica diverged from master: cut={cut} gap={gap} script={script:?}"
        );
        prop_assert!(
            w1.client.replica().same_state(backend.master()),
            "uninterrupted replica diverged from master"
        );
    }

    /// A resume cursor with holes (extras beyond the contiguous prefix,
    /// from acks racing broadcasts) still yields exact replay: nothing is
    /// double-applied, nothing is missed.
    #[test]
    fn resume_is_exact_under_sparse_applied_sets(
        script in proptest::collection::vec((0usize..2, action_strategy()), 8..40),
        cut in 0usize..40,
    ) {
        // gap 0: disconnect and immediately resume, so the lost-outbox set
        // is exactly what the replay must restore.
        let (backend, w0, _) = run(&script, cut, 0);
        prop_assert!(w0.client.replica().same_state(backend.master()));
    }
}

/// Deterministic regression: a worker that misses a burst of broadcasts
/// (including votes, which are not idempotent) and resumes must match the
/// master exactly — an at-least-once redelivery would double-count votes.
#[test]
fn resume_replays_votes_exactly_once() {
    let mut backend = Backend::new(config());
    let mut w0 = SimWorker::connect(&mut backend, Millis(0));
    let mut w1 = SimWorker::connect(&mut backend, Millis(0));

    // w1 completes a row (three fills plus the automatic upvote).
    for (c, v) in [(0u16, "w1-v0"), (1, "w1-v1"), (2, "w1-v2")] {
        let rows: Vec<RowId> = w1.client.replica().table().row_ids().collect();
        let row = *rows.first().unwrap();
        let outs = w1.client.fill(row, ColumnId(c), Value::text(v)).unwrap();
        for out in outs {
            assert!(w1.submit(&mut backend, &out.msg, out.auto_upvote, Millis(1)));
        }
    }

    // w0's connection dies before any of it is delivered.
    backend.disconnect(w0.id);
    w0.online = false;

    // w1 votes again from another worker's perspective is impossible, but a
    // downvote on its own row is a second non-idempotent message in flight.
    w1.deliver(&mut backend);

    w0.resume(&mut backend, Millis(2));
    w0.deliver(&mut backend);
    w1.deliver(&mut backend);

    assert!(w0.client.replica().same_state(backend.master()));
    assert!(w1.client.replica().same_state(backend.master()));
    assert!(backend.history_len() >= 4);
}
