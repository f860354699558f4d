//! The bootstrap scaling gate: what a join costs the server follows the
//! live table, not the history (DESIGN.md §14.3). A join builds no table
//! image and encodes no entry an earlier join already has — the cache is
//! rebuilt only once the log suffix has outgrown its image's entries
//! (values, rows and vote entries) — and however long the collection has
//! been open, what a joiner is sent stays within twice the live state.
//! What a join costs the joiner follows the log since the image: it
//! processes exactly those messages, and each distinct row value is on the
//! wire once, whatever the vote counts are.
//!
//! It counts images built and entries encoded (the backend's
//! `BackendCounts`) and messages a replica processed (its
//! `ReplicaCounts`) instead of timing, so machine speed cannot flake it.

use crowdfill_docstore::Json;
use crowdfill_model::{
    ClientId, Column, ColumnId, DataType, Message, QuorumMajority, RowId, Schema, Template, Value,
};
use crowdfill_pay::{Millis, WorkerId};
use crowdfill_server::wire::{self, Image, Reply, TableImage};
use crowdfill_server::{Backend, ClientCore, TaskConfig, WorkerClient};
use std::sync::Arc;

const WIDTH: u16 = 5;

fn builds(backend: &Backend) -> u64 {
    backend.counts().bootstrap_builds
}

fn encoded(backend: &Backend) -> u64 {
    backend.counts().bootstrap_encoded_msgs
}

/// A worker that keeps up with every broadcast.
struct Worker {
    id: WorkerId,
    client: WorkerClient,
    /// Image entries and log messages its welcome carried.
    welcome_entries: usize,
    /// Bytes of the `history` member its welcome carried.
    welcome_bytes: usize,
}

impl Worker {
    /// A join as both its consumers see it: `connect`'s replay builds the
    /// replica, the service splices the same bootstrap in as text.
    fn join(backend: &mut Backend) -> Worker {
        let (id, client_id, replay) = backend.connect(Millis(0));
        let client = WorkerClient::new(id, client_id, backend.config().schema.clone(), &replay);
        let (image, log, _) = welcome(backend);
        Worker {
            id,
            client,
            welcome_entries: image.entries() + log.len(),
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

/// A welcome as the service sends it — the frame and its bootstrap,
/// decoded.
fn welcome(backend: &mut Backend) -> (TableImage, Vec<Message>, String) {
    let text = backend.bootstrap_text().to_owned();
    let (len, schema) = (backend.history_len(), backend.config().schema.clone());
    let image = Image::Text(text.into());
    let frame = Reply::Welcome("c".into(), WorkerId(99), ClientId(99), len, schema, image);
    let frame = frame.encode();
    match Reply::decode(&wire::parse_frame(frame.as_bytes()).unwrap()) {
        Ok(Reply::Welcome(.., Image::Table(image, log))) => (*image, log, frame),
        other => panic!("a welcome decodes as one: {other:?}"),
    }
}

/// A welcome taken by a client, which processes exactly the log after
/// the image, and reads each distinct row value off the wire once: the
/// frame holds the cells of the image's values and of the log's messages,
/// and no others.
fn welcome_processes_only_the_log(backend: &mut Backend) {
    let (image, log, frame) = welcome(backend);
    let core = ClientCore::welcomed(frame.as_bytes(), None, None).unwrap();
    let processed = core.view().replica().counts().ops_processed;
    assert_eq!(processed, log.len() as u64, "messages processed");
    assert!(core.view().replica().same_state(backend.master()));
    let msg_cells = |m: &Message| match m {
        Message::Insert { .. } => 0,
        Message::Replace { value, .. }
        | Message::Upvote { value }
        | Message::Downvote { value }
        | Message::UndoUpvote { value }
        | Message::UndoDownvote { value } => value.len(),
    };
    let log_cells: usize = log.iter().map(msg_cells).sum();
    assert_eq!(frame.matches(r#""col":"#).count(), log_cells, "log cells");
    let parsed = Json::parse(&frame).unwrap();
    let values = ["history", "image", "values"]
        .into_iter()
        .try_fold(&parsed, |j, name| j.get(name))
        .and_then(Json::as_arr)
        .expect("an image's values");
    let cells = |v: &Json| {
        v.as_arr()
            .unwrap()
            .iter()
            .filter(|c| **c != Json::Null)
            .count()
    };
    assert_eq!(
        values.iter().map(cells).sum::<usize>(),
        image.values.iter().map(|v| v.len()).sum::<usize>(),
        "image cells"
    );
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
    let (builds_before, encoded_before) = (builds(&backend), encoded(&backend));
    let image = backend.table_image().entries() as u64;
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
    let built = builds(&backend) - builds_before;
    assert_eq!(built, 1, "images built over 16 rounds");
    let encoded_now = encoded(&backend) - encoded_before;
    assert_eq!(encoded_now, image + (last_join - first_join));
    assert!(
        encoded_now * 20 < history_replayed,
        "{encoded_now} entries encoded where replaying the history takes {history_replayed}"
    );
    // A crowd piles votes on one value: the joiner's bill does not move.
    for _ in 0..24 {
        let mut voter = Worker::join(&mut backend);
        let vote = voter.client.downvote(complete[20]).unwrap();
        voter.send(&mut backend, vec![vote]);
        backend.disconnect(voter.id);
    }
    let votes = backend.master().downvote_history().iter().map(|(_, n)| n);
    assert_eq!(votes.max(), Some(24), "one value holds every downvote");
    welcome_processes_only_the_log(&mut backend);

    // Churn on a smaller table (a debug build checks the PRI, quadratic in
    // the rows, per message): bob and carol endorse and retract, row after
    // row, until the log has grown by ten times the image — and the table
    // is where it was, give or take the vote entries of a row in flight.
    // Whenever someone joins, the bootstrap is at most the image's entries
    // twice over.
    const SLACK: usize = 4;
    let (mut backend, _alice, complete, _) = collection(32, 28);
    let (mut bob, mut carol) = (Worker::join(&mut backend), Worker::join(&mut backend));
    let image = backend.table_image().entries() as u64;
    let start = backend.history_len();
    let (mut largest, mut largest_bytes) = (0, 0);
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
            let sent = joiner.welcome_entries;
            let fresh = backend.table_image().entries();
            assert!(
                sent <= 2 * fresh + SLACK,
                "turn {turn}: a joiner was sent {sent} entries for a {fresh}-entry table"
            );
            largest = largest.max(sent);
            largest_bytes = largest_bytes.max(joiner.welcome_bytes);
        }
    }
    let history = backend.history_suffix(0);
    assert!(
        history.len() > 5 * largest,
        "the history is {} messages, the largest bootstrap was {largest} entries",
        history.len()
    );
    let history = array_bytes(history.iter().map(|(_, msg)| msg));
    assert!(
        history > 5 * largest_bytes,
        "the history is {history} bytes, the largest bootstrap was {largest_bytes}"
    );
    welcome_processes_only_the_log(&mut backend);
}
