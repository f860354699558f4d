//! The client state machine on its own: bytes in, events and request frames
//! out. No socket, no thread, no timeout — the server's half is either
//! scripted, or an in-process [`Backend`] behind [`serve`], which speaks
//! just enough of the wire to answer a `submit`, a `modify`, a `resume` and
//! a `sync`. Both build their frames with the codec the server uses. The
//! cut-point matrix drives the core's recovery policy through its steps,
//! the test standing in for the shell.

use crowdfill_docstore::Json;
use crowdfill_model::{
    ClientId, Column, ColumnId, DataType, Message, QuorumMajority, RowId, RowValue, Schema,
    Template, Value,
};
use crowdfill_net::ConnError;
use crowdfill_obs::trace::TraceId;
use crowdfill_pay::{Millis, WorkerId};
use crowdfill_server::client_core::{Event, Input, Step};
use crowdfill_server::wire::{self, CatchUp, Cursor, Image, Reply, Request, SeqMsg, TableImage};
use crowdfill_server::{
    Backend, ClientCore, ReconnectPolicy, RemoteError, TaskConfig, WorkerClient,
};
use crowdfill_sync::Replica;
use std::sync::Arc;

fn schema() -> Arc<Schema> {
    let columns = vec![
        Column::new("name", DataType::Text),
        Column::new("nationality", DataType::Text),
    ];
    Arc::new(Schema::new("SoccerPlayer", columns, &["name"]).unwrap())
}

fn config() -> TaskConfig {
    let quorum = Arc::new(QuorumMajority::of_three());
    TaskConfig::new(schema(), quorum, Template::cardinality(2), 10.0)
}

fn cc_row(seq: u64) -> RowId {
    RowId::new(ClientId(0), seq)
}

fn seq_msg(seq: u64, msg: &Message) -> SeqMsg {
    let (msg, trace) = (msg.clone(), TraceId::NONE);
    SeqMsg { seq, msg, trace }
}

fn frame(reply: Reply<'_>) -> Vec<u8> {
    reply.encode().into_bytes()
}

/// A welcome for worker 1, client 1.
fn welcome(history: &[Message], history_len: u64) -> Vec<u8> {
    let image = Box::new(TableImage::of(&Replica::new(ClientId(0), schema())));
    let history = Image::Table(image, history.to_vec());
    let (worker, client) = (WorkerId(1), ClientId(1));
    let welcome = Reply::Welcome(
        "default".into(),
        worker,
        client,
        history_len,
        schema(),
        history,
    );
    frame(welcome)
}

/// A core welcomed onto the Central Client's two empty rows.
fn scripted_core() -> ClientCore {
    let history = [0, 1].map(|s| Message::Insert { row: cc_row(s) });
    ClientCore::welcomed(&welcome(&history, 2), None, None).unwrap()
}

fn synced(history_len: u64, missing: &[(u64, Message)]) -> Vec<u8> {
    frame(Reply::Synced(
        history_len,
        CatchUp::Suffix(missing.to_vec()),
    ))
}

/// `msg`, `batch` and `lagging` frames interleaved before an ack come back
/// as what they were, with their effect already in the replica and in the
/// cursor of the next `sync`; the note is owed a sync until one is
/// answered.
#[test]
fn interleaved_broadcasts_are_absorbed_and_the_lagging_note_is_owed_a_sync() {
    let mut core = scripted_core();
    let fill = core.fill(cc_row(0), ColumnId(0), Value::text("Messi"), false);
    let fill = fill.unwrap();
    assert_eq!(fill.len(), 1, "a partial row: no auto-upvote");
    assert!(matches!(&fill[0], Request::Submit((_, false), false, _)));

    let pele = Message::Replace {
        old: cc_row(1),
        new: RowId::new(ClientId(2), 0),
        value: RowValue::from_pairs([(ColumnId(0), Value::text("Pele"))]),
    };
    let msg = frame(Reply::Msg(seq_msg(3, &pele)));
    let fresh = |e: Event| matches!(e, Event::Broadcast { fresh: true });
    assert!(fresh(core.handle(&msg).unwrap()));
    // Redelivered: seq-dedup says it is not news.
    assert!(!fresh(core.handle(&msg).unwrap()));
    let batch = vec![
        seq_msg(4, &Message::Insert { row: cc_row(2) }),
        seq_msg(6, &Message::Insert { row: cc_row(3) }),
    ];
    assert!(fresh(core.handle(&frame(Reply::Batch(batch))).unwrap()));
    assert!(!core.needs_sync());
    assert!(!fresh(core.handle(&frame(Reply::Lagging)).unwrap()));
    assert!(core.needs_sync());

    let ack = Reply::Ack(1.5, false, vec![2], TraceId::NONE);
    match core.handle(&frame(ack)).unwrap() {
        Event::Ack(ack) => assert_eq!((ack.estimate, ack.recovered), (1.5, false)),
        other => panic!("expected an ack, got {other:?}"),
    }
    // 0 and 1 came with the welcome, 2 with the ack, 3 and 4 as
    // broadcasts; 6 is known, 5 is the hole.
    assert_eq!(core.local_lag(), 1);
    let cursor = Cursor {
        from: 5,
        have: [6].into(),
    };
    assert_eq!(core.sync_request(false), Request::Sync(cursor));
    // A note that races the reply is about drops the reply cannot cover.
    core.handle(&frame(Reply::Lagging)).unwrap();
    let heal = synced(7, &[(5, Message::Insert { row: cc_row(4) })]);
    assert!(matches!(core.handle(&heal).unwrap(), Event::Synced));
    assert!(core.needs_sync(), "the racing note is still owed");
    core.sync_request(false);
    assert!(matches!(
        core.handle(&synced(7, &[])).unwrap(),
        Event::Synced
    ));
    assert!(!core.needs_sync());
    assert_eq!(core.local_lag(), 0);
    assert_eq!(core.view().replica().table().len(), 5);
}

/// A frame that is not UTF-8 is a protocol error whatever it claims to be
/// — not a panic, not a frame silently skipped.
#[test]
fn a_frame_that_is_not_utf8_is_a_protocol_error() {
    let replies = [
        frame(Reply::Ack(1.5, false, vec![2], TraceId::NONE)),
        synced(3, &[]),
        frame(Reply::Stats("up 1\n".into())),
        frame(Reply::TraceDump("{}\n".into())),
        frame(Reply::Lagging),
    ];
    for mut reply in replies {
        let quote = reply.iter().rposition(|b| *b == b'"').unwrap();
        reply.insert(quote, 0xFF);
        match scripted_core().handle(&reply) {
            Err(RemoteError::Protocol(_)) => {}
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }
    let mut hello = welcome(&[], 0);
    hello.insert(hello.len() - 2, 0xFF);
    let refused = ClientCore::welcomed(&hello, None, None);
    assert!(matches!(refused, Err(RemoteError::Protocol(_))));
}

/// The welcome's `history` is a state image plus a log suffix, so its
/// length is not a cursor: without `history_len` there is nothing to
/// resume from, and the handshake fails instead of guessing.
#[test]
fn a_welcome_without_history_len_is_a_protocol_error() {
    // Malformed on purpose: a welcome with its watermark cut out.
    let mut welcome = Json::parse(std::str::from_utf8(&welcome(&[], 0)).unwrap()).unwrap();
    if let Json::Obj(fields) = &mut welcome {
        fields.remove("history_len").unwrap();
    }
    match ClientCore::welcomed(welcome.encode().as_bytes(), None, None) {
        Err(RemoteError::Protocol(what)) => assert!(what.contains("history_len"), "{what}"),
        Err(other) => panic!("expected a protocol error, got {other:?}"),
        Ok(_) => panic!("joined on a welcome with no watermark"),
    }
}

// ---- The cut-point matrix ---------------------------------------------------

/// The server's half of one exchange, in process: decodes a client frame,
/// applies it to `backend` as `worker`, and encodes the reply.
fn serve(backend: &mut Backend, worker: WorkerId, sent: &str) -> Vec<u8> {
    let request = Request::decode(&wire::parse_frame(sent.as_bytes()).unwrap());
    let catch_up = |backend: &Backend, cursor: Cursor| {
        let mut missing = backend.history_suffix(cursor.from);
        missing.retain(|(seq, _)| !cursor.have.contains(seq));
        (backend.history_len(), CatchUp::Suffix(missing))
    };
    let report = match request.unwrap() {
        Request::Submit((msg, auto), ..) => backend.submit(worker, msg, Millis(0), auto),
        Request::Modify(bundle, _) => backend.submit_modify(worker, bundle, Millis(0)),
        Request::Resume(_, cursor, _) => {
            let client = backend.resume(worker, Millis(0)).unwrap().client;
            let (history_len, body) = catch_up(backend, cursor);
            return frame(Reply::Resumed("default".into(), client, history_len, body));
        }
        Request::Sync(cursor) => {
            let (history_len, body) = catch_up(backend, cursor);
            return frame(Reply::Synced(history_len, body));
        }
        other => panic!("the client sent a {other:?}"),
    };
    frame(match report {
        Ok(r) => Reply::Ack(r.estimate, r.fulfilled, r.seqs, TraceId::NONE),
        Err(e) => Reply::reject(e),
    })
}

/// What becomes of one request on its way through the step machine.
#[derive(Debug, Clone, Copy, Default)]
struct Fate {
    /// The link is cut once the request is sent: the server never saw it,
    /// or (`applied`) applied it and the ack was lost.
    cut: bool,
    applied: bool,
    /// Another worker's fill lands while the link is down.
    foreign: bool,
    /// A resubmission is answered `overloaded` once before its ack.
    overloaded: bool,
}

/// A backend, the core of worker 1 joined to it, and a second worker whose
/// messages the first one only ever learns of from the server.
struct Table {
    backend: Backend,
    core: ClientCore,
    other: WorkerClient,
}

impl Table {
    fn new() -> Table {
        let mut backend = Backend::new(config());
        let (worker, _, history) = backend.connect(Millis(0));
        assert_eq!(worker, WorkerId(1));
        let frame = welcome(&history, backend.history_len());
        let policy = ReconnectPolicy::default();
        let core = ClientCore::welcomed(&frame, None, Some(&policy)).unwrap();
        let (other, client, history) = backend.connect(Millis(0));
        let other = WorkerClient::new(other, client, schema(), &history);
        Table {
            backend,
            core,
            other,
        }
    }

    /// Drives `request` through the core's steps to the event that ends
    /// it, the test doing what a shell does — serving each frame the core
    /// says to send, firing each wait at once — and `fate` what the link
    /// does.
    fn drive(&mut self, request: Request, fate: Fate) -> Event {
        let case = format!("{fate:?}");
        let (mut cut, mut overload, mut resumed) = (fate.cut, fate.overloaded, false);
        let mut step = self.core.start(request);
        loop {
            step = match step {
                Step::Send(sent) if cut => {
                    cut = false;
                    let before = self.backend.history_len();
                    if fate.applied {
                        // The ack is computed, and lost with the link.
                        serve(&mut self.backend, WorkerId(1), &sent);
                        assert!(self.backend.history_len() > before, "{case}");
                    }
                    if fate.foreign {
                        self.foreign_fill();
                    }
                    self.core.step(Input::Dropped(ConnError::Disconnected))
                }
                Step::Send(_) if overload && resumed => {
                    overload = false;
                    let reply = frame(Reply::Overloaded(1, TraceId::NONE));
                    self.core.step(Input::Frame(&reply))
                }
                Step::Send(sent) => {
                    let reply = serve(&mut self.backend, WorkerId(1), &sent);
                    self.core.step(Input::Frame(&reply))
                }
                Step::Redial { resume, .. } => {
                    resumed = true;
                    let reply = serve(&mut self.backend, WorkerId(1), &resume);
                    self.core.step(Input::Frame(&reply))
                }
                Step::Wait(_) => self.core.step(Input::Fired),
                Step::Await => panic!("{case}: nothing left to wait for"),
                Step::Done(outcome) => return outcome.unwrap(),
            };
        }
    }

    fn acked(&mut self, pending: Request) {
        let event = self.drive(pending, Fate::default());
        assert!(matches!(event, Event::Ack(_)), "{event:?}");
    }

    /// The row at the end of `row`'s lineage after a fill of `column`.
    fn fill(&mut self, row: RowId, column: u16, value: &str) -> RowId {
        let fill = self
            .core
            .fill(row, ColumnId(column), Value::text(value), false);
        for pending in fill.unwrap() {
            self.acked(pending);
        }
        let rows = self.core.view().replica().table().row_ids();
        rows.filter(|r| r.client == ClientId(1)).max().unwrap()
    }

    /// The second worker fills the anchor of the other template row: a
    /// message of someone else's for the resume replay to carry.
    fn foreign_fill(&mut self) {
        let out = self.other.fill(cc_row(1), ColumnId(0), Value::text("Pele"));
        for out in out.unwrap() {
            let worker = self.other.worker();
            self.backend
                .submit(worker, out.msg, Millis(0), out.auto_upvote)
                .unwrap();
        }
    }

    /// Plays `requests` in order, the link cut at request `cut` as `fate`
    /// says, then syncs.
    fn run(mut self, requests: Vec<Request>, cut: usize, fate: Fate) {
        let backoffs = self.core.counts().overload_backoffs;
        for (k, pending) in requests.into_iter().enumerate() {
            let fate = Fate {
                cut: k == cut,
                ..fate
            };
            match self.drive(pending, fate) {
                // Recovered exactly when the server had applied it.
                Event::Ack(ack) => assert_eq!(ack.recovered, fate.cut && fate.applied, "{fate:?}"),
                other => panic!("{fate:?}: {other:?}"),
            }
        }
        let resubmitted_overloaded = fate.overloaded && !fate.applied;
        let backoffs = self.core.counts().overload_backoffs - backoffs;
        assert_eq!(backoffs, u64::from(resubmitted_overloaded), "{fate:?}");
        let sync = self.core.sync_request(false);
        assert!(matches!(self.drive(sync, Fate::default()), Event::Synced));
        assert_eq!(self.core.local_lag(), 0, "{fate:?}");
        let replica = self.core.view().replica();
        assert!(replica.same_state(self.backend.master()), "{fate:?}");
    }
}

/// What `faults.rs` samples by seed, exhaustively: for a fill that
/// completes a row (a `replace`, then the automatic upvote) and for a
/// `modify` bundle, the connection is cut before each request is sent and
/// after each is applied — between the fill's two frames included. The
/// core's steps redial and resume: the request is acked as recovered
/// exactly when the server had applied it, a resubmission is acked (the
/// upvote still as the automatic one) — after one `overloaded` answer and
/// the backoff it is retried after, too — and the replica ends equal to
/// the master.
#[test]
fn every_cut_point_of_a_completing_fill_and_of_a_modify_settles() {
    for (foreign, applied, overloaded) in (0..8).map(|b| (b & 1 != 0, b & 2 != 0, b & 4 != 0)) {
        let fate = Fate {
            cut: true,
            applied,
            foreign,
            overloaded,
        };
        for cut in 0..2 {
            let mut table = Table::new();
            let partial = table.fill(cc_row(0), 0, "Messi");
            let core = &mut table.core;
            let fill = core.fill(partial, ColumnId(1), Value::text("Argentina"), false);
            let fill = fill.unwrap();
            assert_eq!(fill.len(), 2, "the replace and the automatic upvote");
            table.run(fill, cut, fate);
        }
        let mut table = Table::new();
        let partial = table.fill(cc_row(0), 0, "Messi");
        let complete = table.fill(partial, 1, "Argentina");
        let modify = table
            .core
            .modify(complete, ColumnId(1), Value::text("Spain"));
        let modify = modify.unwrap();
        let Request::Modify(bundle, _) = &modify else {
            panic!("not a modify: {modify:?}");
        };
        assert_eq!(bundle.len(), 5, "downvote, insert, two fills, upvote");
        table.run(vec![modify], 0, fate);
    }
}

/// `recovery_golden.rs`'s *resume resets to an image* script on a bare
/// core: the link dies with a fill in flight, the `resumed` reply resets
/// the replica to an image that lacks the fill, and the fill is
/// resubmitted. Once it lands — acked, or, if that link dies too, found in
/// the next resume's replay — the fill's row is in the core's own replica,
/// though the image dropped the optimistic application and the fill's seq
/// is noted applied, so no `sync` would ever bring it.
#[test]
fn an_image_reset_resume_keeps_the_acked_row() {
    let history = [0, 1].map(|s| Message::Insert { row: cc_row(s) });
    let policy = ReconnectPolicy::default();
    let image = || {
        let image = Box::new(TableImage::of(&Replica::new(ClientId(0), schema())));
        CatchUp::Image(Image::Table(image, history.to_vec()))
    };
    let resumed = |len, body| frame(Reply::Resumed("default".into(), ClientId(1), len, body));
    let redial = |core: &mut ClientCore| {
        let step = core.step(Input::Dropped(ConnError::Disconnected));
        assert!(matches!(step, Step::Wait(_)), "{step:?}");
        let step = core.step(Input::Fired);
        assert!(matches!(step, Step::Redial { .. }), "{step:?}");
    };
    for dropped_again in [false, true] {
        let mut core = ClientCore::welcomed(&welcome(&history, 2), None, Some(&policy)).unwrap();
        let mut fill = core.fill(cc_row(0), ColumnId(0), Value::text("Messi"), false);
        let fill = fill.as_mut().unwrap().remove(0);
        let Step::Send(sent) = core.start(fill) else {
            panic!("the fill is sent");
        };
        redial(&mut core);
        let step = core.step(Input::Frame(&resumed(2, image())));
        assert!(matches!(step, Step::Send(_)), "resubmitted: {step:?}");
        let step = if dropped_again {
            redial(&mut core);
            let Request::Submit((messi, _), ..) =
                Request::decode(&wire::parse_frame(sent.as_bytes()).unwrap()).unwrap()
            else {
                panic!("a submit");
            };
            let replay = CatchUp::Suffix(vec![(2, messi)]);
            core.step(Input::Frame(&resumed(3, replay)))
        } else {
            let ack = frame(Reply::Ack(1.5, false, vec![2], TraceId::NONE));
            core.step(Input::Frame(&ack))
        };
        assert!(matches!(step, Step::Done(Ok(Event::Ack(_)))), "{step:?}");
        let row = RowId::new(ClientId(1), 0);
        let entry = core.view().replica().table().get(row);
        let value = entry.map(|e| e.value.clone());
        let messi = RowValue::from_pairs([(ColumnId(0), Value::text("Messi"))]);
        assert_eq!(value, Some(messi), "dropped again: {dropped_again}");
        assert_eq!(core.local_lag(), 0);
    }
}
