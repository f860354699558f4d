//! The client state machine on its own: bytes in, events and request frames
//! out. No socket, no thread, no timeout — the server's half is either
//! scripted, or an in-process [`Backend`] behind [`serve`], which speaks
//! just enough of the wire to answer a `submit`, a `modify`, a `resume` and
//! a `sync`.

use crowdfill_docstore::Json;
use crowdfill_model::{
    ClientId, Column, ColumnId, DataType, Message, QuorumMajority, RowId, RowValue, Schema,
    Template, Value,
};
use crowdfill_pay::{Millis, WorkerId};
use crowdfill_server::client_core::{Event, Pending, Settled};
use crowdfill_server::{wire, Backend, ClientCore, RemoteError, TaskConfig, WorkerClient};
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

fn seq_msg(seq: u64, msg: &Message) -> Json {
    Json::obj([
        ("seq", Json::num(seq as f64)),
        ("msg", wire::message_to_json(msg)),
    ])
}

fn typed(ty: &str, fields: impl IntoIterator<Item = (&'static str, Json)>) -> Vec<u8> {
    let fields = fields.into_iter().chain([("type", Json::str(ty))]);
    Json::obj(fields).encode().into_bytes()
}

/// A welcome for worker 1, client 1: `history`, and whatever `extra` adds.
fn welcome(history: &[Message], extra: impl IntoIterator<Item = (&'static str, Json)>) -> Vec<u8> {
    let history = history.iter().map(wire::message_to_json).collect();
    let fields = [
        ("worker", Json::num(1)),
        ("client", Json::num(1)),
        ("schema", wire::schema_to_json(&schema())),
        ("history", Json::Arr(history)),
    ];
    typed("welcome", fields.into_iter().chain(extra))
}

/// A core welcomed onto the Central Client's two empty rows.
fn scripted_core() -> ClientCore {
    let history = [0, 1].map(|s| Message::Insert { row: cc_row(s) });
    let frame = welcome(&history, [("history_len", Json::num(2))]);
    ClientCore::welcomed(&frame, None, None).unwrap()
}

fn parsed(frame: &str) -> Json {
    Json::parse(frame).unwrap()
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
    let request = parsed(&fill[0].frame());
    assert_eq!(request.get("type").and_then(Json::as_str), Some("submit"));
    assert_eq!(request.get("auto"), Some(&Json::Bool(false)));

    let pele = Message::Replace {
        old: cc_row(1),
        new: RowId::new(ClientId(2), 0),
        value: RowValue::from_pairs([(ColumnId(0), Value::text("Pele"))]),
    };
    let mut msg = seq_msg(3, &pele);
    if let Json::Obj(fields) = &mut msg {
        fields.insert("type".into(), Json::str("msg"));
    }
    let fresh = |e: Event| matches!(e, Event::Broadcast { fresh: true });
    assert!(fresh(core.handle(msg.encode().as_bytes()).unwrap()));
    // Redelivered: seq-dedup says it is not news.
    assert!(!fresh(core.handle(msg.encode().as_bytes()).unwrap()));
    let batch = [
        seq_msg(4, &Message::Insert { row: cc_row(2) }),
        seq_msg(6, &Message::Insert { row: cc_row(3) }),
    ];
    let batch = typed("batch", [("msgs", Json::Arr(batch.to_vec()))]);
    assert!(fresh(core.handle(&batch).unwrap()));
    assert!(!core.needs_sync());
    assert!(!fresh(core.handle(&typed("lagging", [])).unwrap()));
    assert!(core.needs_sync());

    let ack = [
        ("estimate", Json::num(1.5)),
        ("fulfilled", Json::Bool(false)),
        ("seqs", Json::Arr(vec![Json::num(2)])),
    ];
    match core.handle(&typed("ack", ack)).unwrap() {
        Event::Ack(ack) => assert_eq!((ack.estimate, ack.recovered), (1.5, false)),
        other => panic!("expected an ack, got {other:?}"),
    }
    // 0 and 1 came with the welcome, 2 with the ack, 3 and 4 as
    // broadcasts; 6 is known, 5 is the hole.
    assert_eq!(core.local_lag(), 1);
    let sync = parsed(&core.sync_frame(false));
    assert_eq!(sync.get("type").and_then(Json::as_str), Some("sync"));
    assert_eq!(sync.get("from").unwrap().encode(), "5");
    assert_eq!(sync.get("have").unwrap().encode(), "[6]");
    // A note that races the reply is about drops the reply cannot cover.
    core.handle(&typed("lagging", [])).unwrap();
    let missing = Json::Arr(vec![seq_msg(5, &Message::Insert { row: cc_row(4) })]);
    let heal = typed("synced", [("history_len", Json::num(7)), ("msgs", missing)]);
    assert!(matches!(core.handle(&heal).unwrap(), Event::Synced));
    assert!(core.needs_sync(), "the racing note is still owed");
    core.sync_frame(false);
    let nothing = [("history_len", Json::num(7)), ("msgs", Json::Arr(vec![]))];
    assert!(matches!(
        core.handle(&typed("synced", nothing)).unwrap(),
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
        typed("ack", [("seqs", Json::Arr(vec![Json::num(2)]))]),
        typed("synced", [("history_len", Json::num(3))]),
        typed("stats", [("snapshot", Json::str("up 1\n"))]),
        typed("trace_dump", [("events", Json::str("{}\n"))]),
        typed("lagging", []),
    ];
    for mut reply in replies {
        let quote = reply.iter().rposition(|b| *b == b'"').unwrap();
        reply.insert(quote, 0xFF);
        match scripted_core().handle(&reply) {
            Err(RemoteError::Protocol(_)) => {}
            other => panic!("expected a protocol error, got {other:?}"),
        }
    }
    // The requests without fields are spelled out; the encoder agrees.
    for (request, ty) in [
        (ClientCore::STATS, "stats"),
        (ClientCore::HEALTH, "health"),
        (ClientCore::TRACE_DUMP, "trace_dump"),
        (ClientCore::BYE, "bye"),
    ] {
        assert_eq!(request.as_bytes(), typed(ty, []));
    }
    let mut hello = welcome(&[], [("history_len", Json::num(0))]);
    hello.insert(hello.len() - 2, 0xFF);
    let refused = ClientCore::welcomed(&hello, None, None);
    assert!(matches!(refused, Err(RemoteError::Protocol(_))));
}

/// The welcome's `history` is a state image plus a log suffix, so its
/// length is not a cursor: without `history_len` there is nothing to
/// resume from, and the handshake fails instead of guessing.
#[test]
fn a_welcome_without_history_len_is_a_protocol_error() {
    match ClientCore::welcomed(&welcome(&[], []), None, None) {
        Err(RemoteError::Protocol(what)) => assert_eq!(what, "missing history_len"),
        Err(other) => panic!("expected a protocol error, got {other:?}"),
        Ok(_) => panic!("joined on a welcome with no watermark"),
    }
}

// ---- The cut-point matrix ---------------------------------------------------

/// The server's half of one exchange, in process: decodes a client frame,
/// applies it to `backend` as `worker`, and encodes the reply.
fn serve(backend: &mut Backend, worker: WorkerId, frame: &str) -> Vec<u8> {
    let req = parsed(frame);
    let entry = |e: &Json| {
        let auto = e.get("auto").and_then(Json::as_bool).unwrap();
        (
            wire::message_from_json(e.get("msg").unwrap()).unwrap(),
            auto,
        )
    };
    let report = match req.get("type").and_then(Json::as_str).unwrap() {
        "submit" => {
            let (msg, auto) = entry(&req);
            backend.submit(worker, msg, Millis(0), auto)
        }
        "modify" => {
            let msgs = req.get("msgs").and_then(Json::as_arr).unwrap();
            backend.submit_modify(worker, msgs.iter().map(entry).collect(), Millis(0))
        }
        ty @ ("resume" | "sync") => {
            if ty == "resume" {
                backend.resume(worker, Millis(0)).unwrap();
            }
            let from = req.get("from").and_then(Json::as_i64).unwrap() as u64;
            let have = req.get("have").and_then(Json::as_arr).unwrap();
            let have: Vec<u64> = have.iter().map(|s| s.as_i64().unwrap() as u64).collect();
            let missing = backend.history_suffix(from).into_iter();
            let missing = missing.filter(|(seq, _)| !have.contains(seq));
            let fields = [
                ("history_len", Json::num(backend.history_len() as f64)),
                (
                    "msgs",
                    Json::Arr(missing.map(|(s, m)| seq_msg(s, &m)).collect()),
                ),
            ];
            return typed(if ty == "resume" { "resumed" } else { "synced" }, fields);
        }
        other => panic!("the client sent a {other}"),
    };
    match report {
        Ok(report) => {
            let seqs = report.seqs.iter().map(|s| Json::num(*s as f64)).collect();
            let fields = [
                ("estimate", Json::num(report.estimate)),
                ("fulfilled", Json::Bool(report.fulfilled)),
                ("seqs", Json::Arr(seqs)),
            ];
            typed("ack", fields)
        }
        Err(e) => typed("reject", [("reason", Json::str(e.to_string()))]),
    }
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
        let history_len = Json::num(backend.history_len() as f64);
        let frame = welcome(&history, [("history_len", history_len)]);
        let core = ClientCore::welcomed(&frame, None, None).unwrap();
        let (other, client, history) = backend.connect(Millis(0));
        let other = WorkerClient::new(other, client, schema(), &history);
        Table {
            backend,
            core,
            other,
        }
    }

    /// One request sent and answered over a healthy connection.
    fn exchange(&mut self, frame: &str) -> Event {
        let reply = serve(&mut self.backend, WorkerId(1), frame);
        self.core.handle(&reply).unwrap()
    }

    fn acked(&mut self, pending: &Pending) {
        let event = self.exchange(&pending.frame());
        assert!(matches!(event, Event::Ack(_)), "{event:?}");
    }

    /// The row at the end of `row`'s lineage after a fill of `column`.
    fn fill(&mut self, row: RowId, column: u16, value: &str) -> RowId {
        let fill = self
            .core
            .fill(row, ColumnId(column), Value::text(value), false);
        for pending in fill.unwrap() {
            self.acked(&pending);
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

    /// Plays `requests` in order, cutting the connection at request `cut`:
    /// before it is sent (`applied: false`) or after the server applied it
    /// and before its ack arrived. Then resume, settle, finish, sync.
    fn run(mut self, requests: Vec<Pending>, cut: usize, applied: bool, foreign: bool) {
        let case = format!("cut at {cut}, applied {applied}, foreign {foreign}");
        for (k, pending) in requests.iter().enumerate() {
            if k != cut {
                self.acked(pending);
                continue;
            }
            let before = self.backend.history_len();
            if applied {
                // The ack is computed, and lost with the connection.
                serve(&mut self.backend, WorkerId(1), &pending.frame());
                assert!(self.backend.history_len() > before, "{case}");
            }
            if foreign {
                self.foreign_fill();
            }
            let resume = self.core.resume_frame();
            let reply = serve(&mut self.backend, WorkerId(1), &resume);
            match self.core.settle_resume(Some(pending), &reply).unwrap() {
                Settled::Recovered => assert!(applied, "{case}: recovered an unsent op"),
                Settled::Resubmit(frame) => {
                    assert!(!applied, "{case}: resubmitting an applied op");
                    let event = self.exchange(&frame);
                    assert!(matches!(event, Event::Ack(_)), "{case}: {event:?}");
                }
                Settled::Redial => panic!("{case}: a resumed reply was not taken"),
            }
        }
        let sync = self.core.sync_frame(false);
        assert!(matches!(self.exchange(&sync), Event::Synced), "{case}");
        assert_eq!(self.core.local_lag(), 0, "{case}");
        let replica = self.core.view().replica();
        assert!(replica.same_state(self.backend.master()), "{case}");
    }
}

/// What `faults.rs` samples by seed, exhaustively: for a fill that
/// completes a row (a `replace`, then the automatic upvote) and for a
/// `modify` bundle, the connection is cut before each request is sent and
/// after each is applied — between the fill's two frames included. After
/// the resume, `settle_resume` says `Recovered` exactly when the server
/// had applied the request, a resubmission is acked (the upvote still as
/// the automatic one), and the replica ends equal to the master.
#[test]
fn every_cut_point_of_a_completing_fill_and_of_a_modify_settles() {
    for foreign in [false, true] {
        for applied in [false, true] {
            for cut in 0..2 {
                let mut table = Table::new();
                let partial = table.fill(cc_row(0), 0, "Messi");
                let core = &mut table.core;
                let fill = core.fill(partial, ColumnId(1), Value::text("Argentina"), false);
                let fill = fill.unwrap();
                assert_eq!(fill.len(), 2, "the replace and the automatic upvote");
                table.run(fill, cut, applied, foreign);
            }
            let mut table = Table::new();
            let partial = table.fill(cc_row(0), 0, "Messi");
            let complete = table.fill(partial, 1, "Argentina");
            let modify = table
                .core
                .modify(complete, ColumnId(1), Value::text("Spain"));
            let modify = modify.unwrap();
            let bundle = parsed(&modify.frame());
            let bundle = bundle.get("msgs").and_then(Json::as_arr).unwrap();
            assert_eq!(bundle.len(), 5, "downvote, insert, two fills, upvote");
            table.run(vec![modify], 0, applied, foreign);
        }
    }
}
