//! The bootstrap scaling gate: what a join costs the server follows the
//! live table, not the history (DESIGN.md §14.3). A join builds no state
//! image and encodes no message an earlier join already has — the cache is
//! rebuilt only once the log suffix has outgrown its image — and however
//! long the collection has been open, what a joiner is sent stays within
//! twice the live state.
//!
//! It counts images built (`crowdfill_server_bootstrap_builds`) and
//! messages encoded (`crowdfill_server_bootstrap_encoded_msgs`) instead of
//! timing, so machine speed cannot flake it. The counters are
//! process-global: this file is its own test binary and holds one test.

use crowdfill_model::{
    Column, ColumnId, DataType, Message, QuorumMajority, RowId, Schema, Template, Value,
};
use crowdfill_pay::{Millis, WorkerId};
use crowdfill_server::{wire, Backend, TaskConfig, WorkerClient};
use std::sync::Arc;

const WIDTH: u16 = 5;

fn counter(name: &str) -> u64 {
    crowdfill_obs::metrics::counter(name).get()
}

fn builds() -> u64 {
    counter("crowdfill_server_bootstrap_builds")
}

fn encoded() -> u64 {
    counter("crowdfill_server_bootstrap_encoded_msgs")
}

/// A worker that keeps up with every broadcast.
struct Worker {
    id: WorkerId,
    client: WorkerClient,
    /// Bytes of the `history` array its welcome carried.
    welcome_bytes: usize,
}

impl Worker {
    /// A join as both its consumers see it: `connect`'s replay builds the
    /// replica, the service splices the same bootstrap in as text.
    fn join(backend: &mut Backend) -> Worker {
        let (id, client_id, replay) = backend.connect(Millis(0));
        let client = WorkerClient::new(id, client_id, backend.config().schema.clone(), &replay);
        Worker {
            id,
            client,
            welcome_bytes: backend.bootstrap_text().len(),
        }
    }

    fn catch_up(&mut self, backend: &mut Backend) {
        for msg in backend.poll(self.id) {
            self.client.absorb(&msg);
        }
    }

    fn send(&mut self, backend: &mut Backend, outs: Vec<crowdfill_server::Outgoing>) {
        self.catch_up(backend);
        for out in outs {
            let sent = backend.submit(self.id, out.msg, Millis(1), out.auto_upvote);
            sent.expect("scripted op accepted");
        }
    }

    /// Fills `cells` cells of `row` from column `from` on; returns the
    /// row's last id.
    fn fill(&mut self, backend: &mut Backend, mut row: RowId, from: u16, cells: u16) -> RowId {
        for col in from..from + cells {
            self.catch_up(backend);
            let value = Value::text(format!("{row}-{col}"));
            let outs = self.client.fill(row, ColumnId(col), value).unwrap();
            row = outs[0].msg.creates_row().unwrap();
            self.send(backend, outs);
        }
        row
    }
}

/// Bytes of `msgs` as the elements of a JSON array.
fn array_bytes<'a>(msgs: impl IntoIterator<Item = &'a Message>) -> usize {
    let each = msgs.into_iter();
    each.map(|m| wire::message_to_json(m).encode().len() + 1)
        .sum()
}

/// A `rows`-row collection with its first `prefilled` rows completed by
/// alice, who stays: the backend, alice, the complete rows and the empty.
fn collection(rows: usize, prefilled: usize) -> (Backend, Worker, Vec<RowId>, Vec<RowId>) {
    let columns = (0..WIDTH).map(|c| Column::new(format!("c{c}"), DataType::Text));
    let schema = Schema::new("T", columns.collect(), &["c0", "c1"]).unwrap();
    let config = TaskConfig::new(
        Arc::new(schema),
        Arc::new(QuorumMajority::of_three()),
        Template::cardinality(rows),
        rows as f64,
    );
    let mut backend = Backend::new(config);
    let mut alice = Worker::join(&mut backend);
    let mut empty: Vec<RowId> = alice.client.replica().table().row_ids().collect();
    let complete = empty.drain(..prefilled);
    let complete = complete.map(|row| alice.fill(&mut backend, row, 0, WIDTH));
    let complete = complete.collect();
    (backend, alice, complete, empty)
}

#[test]
fn a_join_costs_the_table_not_the_history() {
    // `late_join`'s table: 112 of 128 rows complete, ≈ 800 messages in.
    let (mut backend, mut alice, complete, empty) = collection(128, 112);

    // 16 rounds of a join and three messages: one image is built, and the
    // joins between them encode it and each log entry since exactly once.
    // (A join that replays the history encodes all of it, every time.)
    let (builds_before, encoded_before) = (builds(), encoded());
    let image = backend.bootstrap_messages().len() as u64;
    let first_join = backend.history_len();
    let (mut last_join, mut history_replayed) = (first_join, 0);
    for round in 0..16 {
        last_join = backend.history_len();
        history_replayed += last_join;
        let mut carol = Worker::join(&mut backend);
        let vote = carol.client.upvote(complete[round]).unwrap();
        carol.send(&mut backend, vec![vote]);
        alice.fill(&mut backend, empty[round], 0, 2);
        backend.disconnect(carol.id);
    }
    assert_eq!(last_join - first_join, 15 * 3, "three messages a round");
    assert_eq!(builds() - builds_before, 1, "images built over 16 rounds");
    let encoded_now = encoded() - encoded_before;
    assert_eq!(encoded_now, image + (last_join - first_join));
    assert!(
        encoded_now * 20 < history_replayed,
        "{encoded_now} messages encoded where replaying the history takes {history_replayed}"
    );

    // Churn on a smaller table (a debug build checks the PRI, quadratic in
    // the rows, per message): bob and carol endorse and retract, row after
    // row, until the log has grown by ten times the image — and the table
    // is where it was. Whenever someone joins, the bootstrap is at most
    // the image twice over.
    const SLACK: usize = 1024;
    let (mut backend, _alice, complete, _) = collection(32, 28);
    let (mut bob, mut carol) = (Worker::join(&mut backend), Worker::join(&mut backend));
    let image = backend.bootstrap_messages().len() as u64;
    let start = backend.history_len();
    let mut largest = 0;
    for turn in 0.. {
        if backend.history_len() - start >= 10 * image {
            break;
        }
        let row = complete[turn % complete.len()];
        for voter in [&mut bob, &mut carol] {
            voter.catch_up(&mut backend);
            let vote = voter.client.upvote(row).unwrap();
            voter.send(&mut backend, vec![vote]);
        }
        for voter in [&mut bob, &mut carol] {
            let undo = voter.client.undo_upvote(row).unwrap();
            voter.send(&mut backend, vec![undo]);
        }
        if turn % 3 == 0 {
            let joiner = Worker::join(&mut backend);
            backend.disconnect(joiner.id);
            let sent = joiner.welcome_bytes;
            let fresh = array_bytes(&backend.bootstrap_messages());
            assert!(
                sent <= 2 * fresh + SLACK,
                "turn {turn}: a joiner was sent {sent} bytes for a {fresh}-byte table"
            );
            largest = largest.max(sent);
        }
    }
    let history = backend.history_suffix(0);
    let history = array_bytes(history.iter().map(|(_, msg)| msg));
    assert!(
        history > 5 * largest,
        "the history is {history} bytes, the largest bootstrap was {largest}"
    );
}
