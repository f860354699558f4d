//! End-to-end backend tests: a full in-process collection run with multiple
//! worker clients, exercising the vote policy, PRI maintenance, estimation,
//! and settlement.

use crowdfill_model::{
    ClientId, Column, ColumnId, DataType, Message, ModelError, OpError, QuorumMajority, RowId,
    RowValue, Schema, Template, Value,
};
use crowdfill_pay::{Millis, Scheme, WorkerId};
use crowdfill_server::{Backend, SubmitError, TaskConfig, WorkerClient};
use crowdfill_sync::Replica;
use std::collections::HashMap;
use std::sync::Arc;

#[path = "../../pay/tests/support/oracle.rs"]
mod oracle;

fn schema() -> Arc<Schema> {
    Arc::new(
        Schema::new(
            "SoccerPlayer",
            vec![
                Column::new("name", DataType::Text),
                Column::new("nationality", DataType::Text),
                Column::new("position", DataType::Text),
            ],
            &["name", "nationality"],
        )
        .unwrap(),
    )
}

fn config(rows: usize, budget: f64) -> TaskConfig {
    TaskConfig::new(
        schema(),
        Arc::new(QuorumMajority::of_three()),
        Template::cardinality(rows),
        budget,
    )
}

/// A small test harness driving workers against a backend with immediate
/// message delivery.
struct Rig {
    backend: Backend,
    clients: HashMap<WorkerId, WorkerClient>,
    now: u64,
}

impl Rig {
    fn new(cfg: TaskConfig, n_workers: usize) -> Rig {
        let schema = Arc::clone(&cfg.schema);
        let mut backend = Backend::new(cfg);
        let mut clients = HashMap::new();
        for _ in 0..n_workers {
            let (w, c, history) = backend.connect(Millis(0));
            clients.insert(w, WorkerClient::new(w, c, Arc::clone(&schema), &history));
        }
        Rig {
            backend,
            clients,
            now: 0,
        }
    }

    fn w(&self, i: u32) -> WorkerId {
        WorkerId(i)
    }

    fn sync_all(&mut self) {
        let ids: Vec<WorkerId> = self.clients.keys().copied().collect();
        for w in ids {
            for msg in self.backend.poll(w) {
                self.clients.get_mut(&w).unwrap().absorb(&msg);
            }
        }
    }

    fn fill(&mut self, w: u32, row: RowId, col: u16, v: &str) -> Result<RowId, SubmitError> {
        self.now += 1000;
        let worker = self.w(w);
        let outgoing = self
            .clients
            .get_mut(&worker)
            .unwrap()
            .fill(row, ColumnId(col), Value::text(v))
            .map_err(SubmitError::Op)?;
        let new_row = outgoing[0].msg.creates_row().unwrap();
        for out in outgoing {
            self.backend
                .submit(worker, out.msg, Millis(self.now), out.auto_upvote)?;
        }
        self.sync_all();
        Ok(new_row)
    }

    fn upvote(&mut self, w: u32, row: RowId) -> Result<(), SubmitError> {
        self.now += 500;
        let worker = self.w(w);
        let out = self
            .clients
            .get_mut(&worker)
            .unwrap()
            .upvote(row)
            .map_err(SubmitError::Op)?;
        self.backend
            .submit(worker, out.msg, Millis(self.now), false)?;
        self.sync_all();
        Ok(())
    }

    fn downvote(&mut self, w: u32, row: RowId) -> Result<(), SubmitError> {
        self.now += 500;
        let worker = self.w(w);
        let out = self
            .clients
            .get_mut(&worker)
            .unwrap()
            .downvote(row)
            .map_err(SubmitError::Op)?;
        self.backend
            .submit(worker, out.msg, Millis(self.now), false)?;
        self.sync_all();
        Ok(())
    }

    fn assert_replicas_converged(&self) {
        for client in self.clients.values() {
            assert!(
                client.replica().same_state(self.backend.master()),
                "worker replica diverged from master"
            );
        }
    }
}

#[test]
fn full_collection_run_reaches_fulfillment() {
    let mut rig = Rig::new(config(2, 10.0), 3);
    assert!(!rig.backend.is_fulfilled());

    // Worker 1 completes the first seeded row; workers 2 and 3 approve.
    let rows: Vec<RowId> = rig.clients[&WorkerId(1)]
        .replica()
        .table()
        .row_ids()
        .collect();
    assert_eq!(rows.len(), 2);

    let r = rig.fill(1, rows[0], 0, "Messi").unwrap();
    let r = rig.fill(1, r, 1, "Argentina").unwrap();
    let done1 = rig.fill(1, r, 2, "FW").unwrap(); // auto-upvote fires
    rig.upvote(2, done1).unwrap();
    assert!(!rig.backend.is_fulfilled());

    let r = rig.fill(2, rows[1], 0, "Neymar").unwrap();
    let r = rig.fill(2, r, 1, "Brazil").unwrap();
    let done2 = rig.fill(2, r, 2, "FW").unwrap();
    rig.upvote(3, done2).unwrap();

    assert!(rig.backend.is_fulfilled());
    let ft = rig.backend.final_table();
    assert_eq!(ft.len(), 2);
    rig.assert_replicas_converged();

    // Settlement: full budget spent across the two rows' cells and votes.
    let (final_table, contributions, payout) = rig.backend.settle();
    assert_eq!(final_table.len(), 2);
    assert_eq!(contributions.cells.len(), 6);
    assert_eq!(contributions.upvotes.len(), 2); // manual ones only
    let total: f64 = payout.per_worker.values().sum();
    assert!(total > 0.0 && total <= 10.0 + 1e-9);
    // Workers 1 and 2 (fillers) must out-earn worker 3 (one vote).
    assert!(payout.worker_total(WorkerId(1)) > payout.worker_total(WorkerId(3)));
    assert!(payout.worker_total(WorkerId(2)) > payout.worker_total(WorkerId(3)));
}

#[test]
fn vote_policy_one_vote_per_row() {
    let mut rig = Rig::new(config(1, 10.0), 2);
    let rows: Vec<RowId> = rig.clients[&WorkerId(1)]
        .replica()
        .table()
        .row_ids()
        .collect();
    let r = rig.fill(1, rows[0], 0, "Messi").unwrap();
    let r = rig.fill(1, r, 1, "Argentina").unwrap();
    let done = rig.fill(1, r, 2, "FW").unwrap();

    // Worker 1 auto-upvoted on completion: a manual upvote now violates the
    // one-vote-per-row rule.
    assert_eq!(rig.upvote(1, done), Err(SubmitError::AlreadyVoted));
    // Worker 2 may vote once, not twice.
    rig.upvote(2, done).unwrap();
    assert_eq!(rig.downvote(2, done), Err(SubmitError::AlreadyVoted));
}

#[test]
fn vote_policy_one_upvote_per_key() {
    let mut rig = Rig::new(config(2, 10.0), 2);
    let rows: Vec<RowId> = rig.clients[&WorkerId(1)]
        .replica()
        .table()
        .row_ids()
        .collect();
    // Worker 1 builds two complete rows with the same primary key
    // (different position). Its second auto-upvote rides on the fill and is
    // exempt from the duplicate-key rule.
    let r = rig.fill(1, rows[0], 0, "Messi").unwrap();
    let r = rig.fill(1, r, 1, "Argentina").unwrap();
    let done_a = rig.fill(1, r, 2, "FW").unwrap();

    let r = rig.fill(1, rows[1], 0, "Messi").unwrap();
    let r = rig.fill(1, r, 1, "Argentina").unwrap();
    let done_b = rig.fill(1, r, 2, "MF").unwrap();

    // Worker 2 upvotes A; then upvoting B (same key) is rejected.
    rig.upvote(2, done_a).unwrap();
    assert_eq!(rig.upvote(2, done_b), Err(SubmitError::DuplicateKeyUpvote));
    // Downvoting B is still allowed (the key rule is upvote-only).
    rig.downvote(2, done_b).unwrap();
}

#[test]
fn vote_cap_enforced() {
    let mut rig = Rig::new(config(1, 10.0).with_max_votes(2), 4);
    let rows: Vec<RowId> = rig.clients[&WorkerId(1)]
        .replica()
        .table()
        .row_ids()
        .collect();
    let r = rig.fill(1, rows[0], 0, "Messi").unwrap();
    let r = rig.fill(1, r, 1, "Argentina").unwrap();
    let done = rig.fill(1, r, 2, "FW").unwrap(); // auto: 1 vote
    rig.upvote(2, done).unwrap(); // 2 votes: at cap
    assert_eq!(rig.upvote(3, done), Err(SubmitError::MaxVotesReached));
}

#[test]
fn workers_cannot_insert() {
    let mut rig = Rig::new(config(1, 10.0), 1);
    let msg = crowdfill_model::Message::Insert {
        row: RowId::new(crowdfill_model::ClientId(1), 999),
    };
    assert!(matches!(
        rig.backend.submit(WorkerId(1), msg, Millis(1), false),
        Err(SubmitError::WorkersCannotInsert)
    ));
}

#[test]
fn unknown_worker_rejected() {
    let mut rig = Rig::new(config(1, 10.0), 1);
    let msg = crowdfill_model::Message::Upvote {
        value: crowdfill_model::RowValue::empty(),
    };
    assert!(matches!(
        rig.backend.submit(WorkerId(99), msg, Millis(1), false),
        Err(SubmitError::UnknownWorker)
    ));
}

#[test]
fn stale_fill_rejected_but_harmless() {
    let mut rig = Rig::new(config(1, 10.0), 2);
    let rows: Vec<RowId> = rig.clients[&WorkerId(1)]
        .replica()
        .table()
        .row_ids()
        .collect();
    // Worker 1 fills the row; worker 2's client still shows the old row but
    // the backend has already replaced it. A fill against the stale id is
    // rejected server-side — worker 2's local state remains consistent after
    // absorbing the broadcast.
    rig.fill(1, rows[0], 0, "Messi").unwrap();
    // Bypass rig.fill to avoid sync: submit a stale message directly.
    let worker2 = WorkerId(2);
    // Worker 2 hasn't polled yet in this test flow (rig.fill synced, so
    // make a new stale target: fill the *same* original row id).
    let stale =
        rig.clients
            .get_mut(&worker2)
            .unwrap()
            .fill(rows[0], ColumnId(1), Value::text("Brazil")); // row gone locally too
    assert!(stale.is_err(), "local replica already replaced the row");
}

#[test]
fn late_joiner_replays_history_and_converges() {
    let mut rig = Rig::new(config(1, 10.0), 1);
    let rows: Vec<RowId> = rig.clients[&WorkerId(1)]
        .replica()
        .table()
        .row_ids()
        .collect();
    let r = rig.fill(1, rows[0], 0, "Messi").unwrap();
    let _ = rig.fill(1, r, 1, "Argentina").unwrap();

    let (w, c, history) = rig.backend.connect(Millis(rig.now));
    let late = WorkerClient::new(w, c, schema(), &history);
    assert!(late.replica().same_state(rig.backend.master()));
    rig.clients.insert(w, late);

    // Late joiner can act immediately.
    let visible: Vec<RowId> = rig.clients[&w].replica().table().row_ids().collect();
    let target = visible
        .into_iter()
        .find(|r| {
            rig.clients[&w]
                .replica()
                .table()
                .get(*r)
                .unwrap()
                .value
                .get(ColumnId(2))
                .is_none()
                && rig.clients[&w]
                    .replica()
                    .table()
                    .get(*r)
                    .unwrap()
                    .value
                    .get(ColumnId(0))
                    .is_some()
        })
        .unwrap();
    rig.fill(w.0, target, 2, "FW").unwrap();
    rig.assert_replicas_converged();
}

#[test]
fn estimates_are_positive_and_tracked() {
    let cfg = config(2, 12.0).with_scheme(Scheme::Uniform);
    let schema_arc = Arc::clone(&cfg.schema);
    let mut backend = Backend::new(cfg);
    let (w, c, history) = backend.connect(Millis(0));
    let mut client = WorkerClient::new(w, c, schema_arc, &history);
    let rows: Vec<RowId> = client.replica().table().row_ids().collect();
    let out = client
        .fill(rows[0], ColumnId(0), Value::text("Messi"))
        .unwrap();
    let report = backend
        .submit(w, out[0].msg.clone(), Millis(1000), false)
        .unwrap();
    // Uniform: |C|=6, |U|=2, |D|=0 ⇒ estimate = 12/8 = 1.5.
    assert!((report.estimate - 1.5).abs() < 1e-9);
    assert_eq!(backend.estimator().timeline().len(), 1);
}

#[test]
fn settlement_closes_collection() {
    let mut rig = Rig::new(config(1, 10.0), 1);
    let (_, _, payout) = rig.backend.settle();
    assert_eq!(payout.per_worker.len(), 0);
    let rows: Vec<RowId> = rig.clients[&WorkerId(1)]
        .replica()
        .table()
        .row_ids()
        .collect();
    assert_eq!(
        rig.fill(1, rows[0], 0, "Messi"),
        Err(SubmitError::CollectionClosed)
    );
}

#[test]
fn undo_vote_lifecycle() {
    let mut rig = Rig::new(config(1, 10.0), 3);
    let rows: Vec<RowId> = rig.clients[&WorkerId(1)]
        .replica()
        .table()
        .row_ids()
        .collect();
    let r = rig.fill(1, rows[0], 0, "Messi").unwrap();
    let r = rig.fill(1, r, 1, "Argentina").unwrap();
    let done = rig.fill(1, r, 2, "FW").unwrap(); // auto-upvote: 1↑

    rig.upvote(2, done).unwrap(); // 2↑: quorum reached
    assert!(rig.backend.is_fulfilled());

    // Worker 2 retracts: score drops below quorum again.
    let worker = WorkerId(2);
    let out = rig
        .clients
        .get_mut(&worker)
        .unwrap()
        .undo_upvote(done)
        .unwrap();
    rig.backend
        .submit(worker, out.msg, Millis(rig.now + 500), false)
        .unwrap();
    rig.sync_all();
    assert!(!rig.backend.is_fulfilled());
    assert_eq!(rig.backend.master().table().get(done).unwrap().upvotes, 1);
    rig.assert_replicas_converged();

    // Having undone it, worker 2 may vote on the row again — downvote now.
    rig.downvote(2, done).unwrap();
    assert_eq!(rig.backend.master().table().get(done).unwrap().downvotes, 1);

    // Worker 3 never voted: the client itself rejects the undo (own-votes
    // -only discipline), even though the shared history shows votes.
    let worker3 = WorkerId(3);
    let out = rig.clients.get_mut(&worker3).unwrap().undo_upvote(done);
    assert!(matches!(out, Err(crowdfill_model::OpError::NothingToUndo)));
    // And a forged raw undo message is still caught by the server policy.
    let forged = crowdfill_model::Message::UndoUpvote {
        value: rig
            .backend
            .master()
            .table()
            .get(done)
            .unwrap()
            .value
            .clone(),
    };
    let err = rig
        .backend
        .submit(worker3, forged, Millis(rig.now + 1000), false);
    assert!(matches!(err, Err(SubmitError::NoVoteToUndo)));
}

#[test]
fn undone_votes_earn_nothing() {
    let mut rig = Rig::new(config(1, 12.0), 3);
    let rows: Vec<RowId> = rig.clients[&WorkerId(1)]
        .replica()
        .table()
        .row_ids()
        .collect();
    let r = rig.fill(1, rows[0], 0, "Messi").unwrap();
    let r = rig.fill(1, r, 1, "Argentina").unwrap();
    let done = rig.fill(1, r, 2, "FW").unwrap();

    // Worker 2 upvotes then retracts; worker 3's vote stands.
    rig.upvote(2, done).unwrap();
    let worker = WorkerId(2);
    let out = rig
        .clients
        .get_mut(&worker)
        .unwrap()
        .undo_upvote(done)
        .unwrap();
    rig.backend
        .submit(worker, out.msg, Millis(rig.now + 500), false)
        .unwrap();
    rig.sync_all();
    rig.upvote(3, done).unwrap();

    let (_, contributions, payout) = rig.backend.settle();
    assert_eq!(
        contributions.upvotes.len(),
        1,
        "only the standing vote pays"
    );
    assert_eq!(payout.worker_total(WorkerId(2)), 0.0);
    assert!(payout.worker_total(WorkerId(3)) > 0.0);
}

#[test]
fn modify_overwrites_a_cell_through_the_primitive_series() {
    let mut rig = Rig::new(config(1, 10.0), 2);
    let rows: Vec<RowId> = rig.clients[&WorkerId(1)]
        .replica()
        .table()
        .row_ids()
        .collect();
    let r = rig.fill(1, rows[0], 0, "Messi").unwrap();
    let r = rig.fill(1, r, 1, "Argentina").unwrap();
    let done = rig.fill(1, r, 2, "MF").unwrap(); // wrong position

    // Worker 2 corrects the position via modify.
    let worker = WorkerId(2);
    let bundle = rig
        .clients
        .get_mut(&worker)
        .unwrap()
        .modify(done, ColumnId(2), Value::text("FW"))
        .unwrap();
    let msgs: Vec<(crowdfill_model::Message, bool)> =
        bundle.into_iter().map(|o| (o.msg, o.auto_upvote)).collect();
    let report = rig
        .backend
        .submit_modify(worker, msgs, Millis(rig.now + 1000))
        .unwrap();
    let _ = report;
    rig.sync_all();
    rig.assert_replicas_converged();

    // The old row is downvoted; a corrected complete row now exists.
    assert_eq!(rig.backend.master().table().get(done).unwrap().downvotes, 1);
    let corrected = rig
        .backend
        .master()
        .table()
        .iter()
        .find(|(_, e)| e.value.get(ColumnId(2)) == Some(&Value::text("FW")))
        .map(|(id, _)| id)
        .expect("corrected row exists");
    assert_ne!(corrected, done);
    assert!(rig
        .backend
        .master()
        .table()
        .get(corrected)
        .unwrap()
        .value
        .is_complete(&schema()));
    // The corrected row was auto-upvoted by worker 2 on completion.
    assert_eq!(
        rig.backend.master().table().get(corrected).unwrap().upvotes,
        1
    );
}

#[test]
fn raw_worker_inserts_still_rejected_outside_modify() {
    let mut rig = Rig::new(config(1, 10.0), 1);
    // A "bundle" that is just an insert must not slip through.
    let msg = Message::Insert {
        row: RowId::new(ClientId(1), 50),
    };
    let err = rig
        .backend
        .submit_modify(WorkerId(1), vec![(msg, false)], Millis(1));
    assert!(matches!(err, Err(SubmitError::WorkersCannotInsert)));
}

/// A row id is `(client, seq)`: a worker creates rows under its own client
/// id only. A raw client naming another worker's live row as the `new` of
/// its replace would overwrite it in place — the victim's cells gone, every
/// invariant still standing — so the frame is refused, plain or inside a
/// modify bundle, and the idempotent re-send of one's own fill is not.
#[test]
fn a_worker_creates_row_ids_of_its_own_only() {
    let mut rig = Rig::new(config(2, 10.0), 2);
    let rows: Vec<RowId> = rig.backend.master().table().row_ids().collect();
    let victim = rig.fill(1, rows[0], 0, "Messi").unwrap();
    assert_eq!(victim.client, ClientId(1));
    let before = rig.backend.history_len();

    // Worker 2 "fills" its own empty row into worker 1's row id.
    let value = RowValue::empty().with(ColumnId(0), Value::text("Mallory"));
    let hostile = Message::Replace {
        old: rows[1],
        new: victim,
        value: value.clone(),
    };
    let refused = rig.backend.submit(WorkerId(2), hostile, Millis(1), false);
    assert_eq!(refused.unwrap_err(), SubmitError::ForeignRowId);
    let entry = rig
        .backend
        .master()
        .table()
        .get(victim)
        .expect("victim row");
    assert_eq!(entry.value.get(ColumnId(0)), Some(&Value::text("Messi")));
    assert!(rig.backend.master().table().contains(rows[1]));

    // Nor does a modify bundle's insert mint a foreign id.
    let done = rig.fill(1, victim, 1, "Argentina").unwrap();
    let done = rig.fill(1, done, 2, "FW").unwrap();
    let after_fills = rig.backend.history_len();
    assert!(after_fills > before);
    let bundle = rig.clients.get_mut(&WorkerId(2)).unwrap();
    let bundle = bundle.modify(done, ColumnId(2), Value::text("MF")).unwrap();
    // The insert under worker 1's client id, the fill that follows it
    // re-pointed at it: the bundle's shape stays valid.
    let theirs = |row: RowId| RowId::new(ClientId(1), row.seq);
    let mut inserted = None;
    let forged = bundle.into_iter().map(|out| match out.msg {
        Message::Insert { row } => {
            inserted = Some(row);
            (Message::Insert { row: theirs(row) }, false)
        }
        Message::Replace { old, new, value } if Some(old) == inserted => {
            let old = theirs(old);
            (Message::Replace { old, new, value }, false)
        }
        msg => (msg, out.auto_upvote),
    });
    let forged: Vec<(Message, bool)> = forged.collect();
    assert!(inserted.is_some());
    let refused = rig.backend.submit_modify(WorkerId(2), forged, Millis(2));
    assert_eq!(refused.unwrap_err(), SubmitError::ForeignRowId);
    assert_eq!(rig.backend.history_len(), after_fills, "half a bundle");

    // A worker re-sending its own fill (a reset client does) mints its own
    // id again: refused as stale if the first landed, never as foreign.
    let resend = Message::Replace {
        old: rows[1],
        new: RowId::new(ClientId(2), 1),
        value,
    };
    let first = rig
        .backend
        .submit(WorkerId(2), resend.clone(), Millis(3), false);
    assert!(first.is_ok(), "{first:?}");
    let again = rig.backend.submit(WorkerId(2), resend, Millis(3), false);
    assert_eq!(again.unwrap_err(), SubmitError::Op(OpError::UnknownRow));
}

fn history(backend: &Backend) -> Vec<Message> {
    let log = backend.history_suffix(0);
    log.into_iter().map(|(_, msg)| msg).collect()
}

/// §2.2's vote preconditions hold at the server, not only in the client
/// that prepares a vote: a raw wire client can neither upvote a partial
/// vector nor downvote the empty one (which every row, present and future,
/// subsumes), flagged automatic or not — and so the state image, exact
/// only where Lemma 3 holds, stays exact.
#[test]
fn malformed_votes_are_refused_and_the_image_stays_exact() {
    let mut rig = Rig::new(config(2, 10.0), 2);
    let row = rig.clients[&WorkerId(1)].replica().table().row_ids().next();
    let row = rig.fill(1, row.unwrap(), 0, "Messi").unwrap();
    let partial = rig.backend.master().table().get(row).unwrap().value.clone();
    let before = rig.backend.history_len();
    for auto in [false, true] {
        let up = Message::Upvote {
            value: partial.clone(),
        };
        let refused = rig.backend.submit(WorkerId(2), up, Millis(1), auto);
        let expected = SubmitError::Op(OpError::RowNotComplete);
        assert_eq!(refused.unwrap_err(), expected, "auto: {auto}");
        let down = Message::Downvote {
            value: RowValue::empty(),
        };
        let refused = rig.backend.submit(WorkerId(2), down, Millis(1), auto);
        let expected = SubmitError::Op(OpError::RowEmpty);
        assert_eq!(refused.unwrap_err(), expected, "auto: {auto}");
    }
    assert_eq!(rig.backend.history_len(), before);
    for replay in [
        rig.backend.table_image().to_messages(),
        history(&rig.backend),
    ] {
        let mut replica = Replica::new(ClientId(9), schema());
        replica.replay(&replay);
        assert!(replica.same_state(rig.backend.master()));
    }
}

/// A message's value holds only cells the schema can: a cell of the wrong
/// type or in a column the schema lacks is refused in any message, so an
/// upvote of such a value cannot pass as "complete" by its count of cells;
/// and a replace must be one fill of its live row — not two cells at once,
/// not none, not a rewrite of a filled one. Flagged automatic or not; the
/// master, its history and its image stay as they were.
#[test]
fn values_the_schema_cannot_hold_are_refused() {
    let mut rig = Rig::new(config(2, 10.0), 2);
    let rows: Vec<RowId> = rig.clients[&WorkerId(1)]
        .replica()
        .table()
        .row_ids()
        .collect();
    let row = rig.fill(1, rows[0], 0, "Messi").unwrap();
    let partial = rig.backend.master().table().get(row).unwrap().value.clone();
    let before = (rig.backend.history_len(), rig.backend.table_image());
    let cell = |c: u16, v: Value| (ColumnId(c), v);
    let text = |s: &str| Value::text(s);
    let mistyped = RowValue::from_pairs([
        cell(0, Value::int(7)),
        cell(1, text("Argentina")),
        cell(2, text("FW")),
    ]);
    let outside = RowValue::from_pairs([
        cell(0, text("Messi")),
        cell(1, text("Argentina")),
        cell(9, text("FW")),
    ]);
    let mistype = SubmitError::Op(OpError::Invalid(ModelError::TypeMismatch {
        expected: DataType::Text,
        found: DataType::Int,
    }));
    let out_of_range = SubmitError::Op(OpError::Invalid(ModelError::ColumnOutOfRange(ColumnId(9))));
    let replace = |old, seq, value| Message::Replace {
        old,
        new: RowId::new(ClientId(2), seq),
        value,
    };
    let cases = [
        (
            "a mistyped fill",
            replace(rows[1], 50, RowValue::from_pairs([cell(0, Value::int(7))])),
            mistype.clone(),
        ),
        (
            "a wrong type and a column outside the schema",
            replace(
                rows[1],
                51,
                RowValue::from_pairs([cell(0, Value::int(7)), cell(9, text("x"))]),
            ),
            mistype.clone(),
        ),
        (
            "a fill of two cells",
            replace(
                row,
                52,
                partial
                    .with(ColumnId(1), text("A"))
                    .with(ColumnId(2), text("FW")),
            ),
            SubmitError::NotAFill,
        ),
        (
            "a fill of nothing",
            replace(row, 53, partial.clone()),
            SubmitError::NotAFill,
        ),
        (
            "a rewrite of a filled cell",
            replace(row, 54, RowValue::from_pairs([cell(0, text("Pele"))])),
            SubmitError::NotAFill,
        ),
        (
            "an upvote of a mistyped value",
            Message::Upvote {
                value: mistyped.clone(),
            },
            mistype.clone(),
        ),
        (
            "an upvote of a column outside the schema",
            Message::Upvote {
                value: outside.clone(),
            },
            out_of_range.clone(),
        ),
        (
            "a downvote of a mistyped value",
            Message::Downvote { value: mistyped },
            mistype,
        ),
        (
            "an undo of a column outside the schema",
            Message::UndoDownvote { value: outside },
            out_of_range,
        ),
    ];
    for (case, msg, expected) in cases {
        for auto in [false, true] {
            let refused = rig
                .backend
                .submit(WorkerId(2), msg.clone(), Millis(1), auto);
            assert_eq!(refused.unwrap_err(), expected, "{case}, auto: {auto}");
        }
    }
    assert_eq!(
        (rig.backend.history_len(), rig.backend.table_image()),
        before
    );
}

/// `auto: true` is the client's word. It exempts the upvote of the row the
/// same worker's fill has just completed and nothing else: flagged or not,
/// a raw client cannot insert a row, replace one that is gone, or vote
/// twice on a value.
#[test]
fn the_auto_flag_exempts_the_completion_upvote_and_nothing_else() {
    let mut rig = Rig::new(config(2, 10.0), 2);
    let mut rows = rig.clients[&WorkerId(1)].replica().table().row_ids();
    let first = rows.next().unwrap();
    drop(rows);
    let a = rig.fill(1, first, 0, "Messi").unwrap();
    let b = rig.fill(1, a, 1, "Argentina").unwrap();
    let done = rig.fill(1, b, 2, "FW").unwrap();
    let master = rig.backend.master().table();
    let complete = master.get(done).unwrap().clone();
    assert_eq!(complete.upvotes, 1, "the honest auto-upvote landed");

    let before = rig.backend.history_len();
    let hostile = [
        (
            Message::Insert {
                row: RowId::new(ClientId(1), 77),
            },
            SubmitError::WorkersCannotInsert,
        ),
        (
            Message::Replace {
                old: first,
                new: RowId::new(ClientId(1), 78),
                value: RowValue::from_pairs([(ColumnId(0), Value::text("Pele"))]),
            },
            SubmitError::Op(OpError::UnknownRow),
        ),
        (
            Message::Upvote {
                value: complete.value,
            },
            SubmitError::AlreadyVoted,
        ),
    ];
    for (msg, expected) in hostile {
        let refused = rig.backend.submit(WorkerId(1), msg, Millis(1), true);
        assert_eq!(refused.unwrap_err(), expected);
    }
    assert_eq!(rig.backend.history_len(), before);
    for replay in [
        rig.backend.table_image().to_messages(),
        history(&rig.backend),
    ] {
        let mut replica = Replica::new(ClientId(9), schema());
        replica.replay(&replay);
        assert!(replica.same_state(rig.backend.master()));
    }
}

/// Empty live rows share the one empty value of the image, and as
/// messages they are the `insert`s they were: a fresh collection's image
/// is one value and its rows, and replays as its history.
#[test]
fn a_fresh_collection_bootstraps_as_its_template_inserts() {
    let backend = Backend::new(config(400, 10.0));
    let image = backend.table_image();
    assert_eq!(
        (image.values, image.rows.len()),
        (vec![RowValue::empty()], 400)
    );
    assert_eq!(backend.table_image().to_messages(), history(&backend));
    assert_eq!(backend.history_len(), 400);
}

/// Trace archival (§3.3 bookkeeping): the stored trace reloads entry for
/// entry, and the batch analysis of the reloaded archive (the settlement
/// ledger's oracle) re-settles to `settle()`'s payout, bit for bit, under
/// every scheme.
#[test]
fn archived_trace_resettles_identically() {
    use crowdfill_server::Frontend;

    let mut rig = Rig::new(config(2, 10.0), 3);
    let rows: Vec<RowId> = rig.clients[&WorkerId(1)]
        .replica()
        .table()
        .row_ids()
        .collect();
    let r = rig.fill(1, rows[0], 0, "Messi").unwrap();
    let r = rig.fill(1, r, 1, "Argentina").unwrap();
    let done1 = rig.fill(1, r, 2, "FW").unwrap();
    rig.upvote(2, done1).unwrap();
    let r = rig.fill(2, rows[1], 0, "Neymar").unwrap();
    let r = rig.fill(2, r, 1, "Brazil").unwrap();
    let done2 = rig.fill(2, r, 2, "FW").unwrap();
    rig.upvote(3, done2).unwrap();

    let mut fe = Frontend::in_memory();
    let task_id = fe.create_task(rig.backend.config()).unwrap();
    fe.store_trace(&task_id, rig.backend.trace()).unwrap();

    let (final_table, contributions, payout) = rig.backend.settle();
    let loaded = fe.load_trace(&task_id).unwrap();
    assert_eq!(loaded.entries(), rig.backend.trace().entries());
    assert!(loaded.entries().iter().any(|e| e.filled.is_some()));

    let reloaded_contribs = oracle::analyze(&loaded, &final_table);
    assert_eq!(reloaded_contribs, contributions);
    let bits = |p: &crowdfill_pay::Payout| {
        let amounts = p.per_message.iter().map(|(s, c)| (*s, c.amount.to_bits()));
        let workers = p
            .per_worker
            .iter()
            .map(|(w, a)| (u64::from(w.0), a.to_bits()));
        let unspent = (u64::MAX, p.unspent.to_bits());
        amounts.chain(workers).chain([unspent]).collect::<Vec<_>>()
    };
    for scheme in Scheme::ALL {
        let split = crowdfill_pay::SplitConfig::new();
        let a = crowdfill_pay::allocate(scheme, 10.0, &contributions, &schema(), &split);
        let b = crowdfill_pay::allocate(scheme, 10.0, &reloaded_contribs, &schema(), &split);
        assert_eq!(bits(&a), bits(&b), "scheme {scheme} diverged");
        if scheme == rig.backend.config().scheme {
            assert_eq!(bits(&payout), bits(&b), "settle() under {scheme}");
        }
    }
}
