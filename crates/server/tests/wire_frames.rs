//! Byte-identity of the frame codec: one instance of each request and
//! reply kind — with and without `trace`, `speculative`, `collection` and
//! `reset` — encoded by `wire::{Request, Reply}` and compared with
//! `tests/fixtures/wire_frames.txt`. The fixture was captured at the
//! commit *before* the codec existed, from the builders it replaced
//! (`ClientCore::{hello_frame, resume_frame, sync_frame}`, `Pending::frame`,
//! `open_session`, `sync_reply`, `ack_frame`, `broadcast_frame`, …), so a
//! match means no peer can tell the two apart. `crates/e2e` classifies
//! frames by their last 64 bytes; this is where a reordered key would show.
//! Three frames were re-captured, and one added, when a bootstrap became a
//! table image plus a log instead of a message array: `welcome`,
//! `resumed+reset` and `synced+reset`, and the `sync+reset` request that a
//! full resync became. The same three were re-captured when the image
//! became a typed table: a `types` header, positional bare cells, rows as
//! `[client, seq, index]` triples; no other frame moved.

use crowdfill_model::{
    ClientId, Column, ColumnId, DataType, Message, QuorumMajority, RowId, RowValue, Schema,
    Template, Value,
};
use crowdfill_obs::trace::{self as obstrace, TraceId, TraceMode};
use crowdfill_pay::WorkerId;
use crowdfill_server::wire::{
    self, BootstrapText, CatchUp, Cursor, Image, Reply, Request, SeqMsg, TableImage,
};
use crowdfill_server::{Backend, TaskConfig};
use crowdfill_sync::Replica;
use std::collections::BTreeMap;
use std::sync::Arc;

const FIXTURE: &str = include_str!("fixtures/wire_frames.txt");
const TRACE: TraceId = TraceId(0x00c0_ffee_0000_0001);

fn schema() -> Arc<Schema> {
    let columns = vec![
        Column::new("name", DataType::Text),
        Column::new("nationality", DataType::Text),
    ];
    Arc::new(Schema::new("SoccerPlayer", columns, &["name"]).unwrap())
}

fn row(client: u32, seq: u64) -> RowId {
    RowId::new(ClientId(client), seq)
}

fn value() -> RowValue {
    RowValue::from_pairs([
        (ColumnId(0), Value::text("Pel\u{e9} \"O Rei\"")),
        (ColumnId(1), Value::text("Brazil")),
    ])
}

fn replace() -> Message {
    let (old, new) = (row(0, 1), row(7, 0));
    let value = value();
    Message::Replace { old, new, value }
}

fn requests() -> Vec<(&'static str, Request)> {
    let cursor = Cursor {
        from: 2,
        have: [3, 5].into(),
    };
    let players = || Some("players".to_string());
    let upvote = (Message::Upvote { value: value() }, true);
    let submit = |speculative, trace| Request::Submit((replace(), false), speculative, trace);
    let bundle = vec![
        (Message::Downvote { value: value() }, false),
        (Message::Insert { row: row(7, 1) }, false),
        (replace(), false),
        upvote.clone(),
    ];
    vec![
        ("hello", Request::Hello(None)),
        ("hello+collection", Request::Hello(players())),
        ("resume", Request::Resume(WorkerId(7), cursor.clone(), None)),
        (
            "resume+collection",
            Request::Resume(WorkerId(7), cursor.clone(), players()),
        ),
        ("submit", submit(false, TraceId::NONE)),
        ("submit+auto", Request::Submit(upvote, false, TraceId::NONE)),
        ("submit+speculative", submit(true, TraceId::NONE)),
        ("submit+trace", submit(false, TRACE)),
        ("submit+speculative+trace", submit(true, TRACE)),
        ("modify", Request::Modify(bundle.clone(), TraceId::NONE)),
        ("modify+trace", Request::Modify(bundle, TRACE)),
        ("sync", Request::Sync(cursor)),
        ("sync+full", Request::Sync(Cursor::default())),
        ("sync+reset", Request::Resync),
        ("stats", Request::Stats),
        ("health", Request::Health),
        ("trace_dump", Request::TraceDump),
        ("bye", Request::Bye),
    ]
}

fn replies() -> Vec<(&'static str, Reply<'static>)> {
    let insert = |seq| Message::Insert { row: row(0, seq) };
    let default = || "default".to_string();
    // What a reset carries once the first row is filled, upvoted and
    // compacted away: the other template row, empty, and the filled one;
    // each value once, the complete one with its upvote.
    let image = TableImage {
        types: vec![DataType::Text, DataType::Text],
        values: vec![RowValue::empty(), value()],
        rows: vec![(row(0, 0), 0), (row(7, 0), 1)],
        uh: vec![(1, 1)],
        dh: vec![],
    };
    let reset = |text: bool| {
        CatchUp::Image(match text {
            false => Image::Table(Box::new(image.clone()), vec![]),
            // As the server sends it: the backend's text, spliced.
            true => Image::Text(BootstrapText::new(&image).as_str().to_owned().into()),
        })
    };
    let quorum = Arc::new(QuorumMajority::of_three());
    let config = TaskConfig::new(schema(), quorum, Template::cardinality(2), 10.0);
    let report = Box::new(crowdfill_server::collect(&Backend::new(config)));
    let seq_msg = |seq, msg, trace| SeqMsg { seq, msg, trace };
    let batch = vec![
        seq_msg(4, insert(2), TraceId::NONE),
        seq_msg(
            6,
            Message::Upvote {
                value: self::value(),
            },
            TRACE,
        ),
    ];
    let (worker, client) = (WorkerId(1), ClientId(1));
    // An image taken at seq 1, and the log since.
    let joined = TableImage {
        values: vec![RowValue::empty()],
        rows: vec![(row(0, 0), 0)],
        ..TableImage::of(&Replica::new(ClientId(0), schema()))
    };
    let history = Image::Table(Box::new(joined), vec![insert(1)]);
    let ack = |trace| Reply::Ack(1.5, true, vec![2, 3], trace);
    vec![
        (
            "welcome",
            Reply::Welcome(default(), worker, client, 2, schema(), history),
        ),
        (
            "resumed",
            Reply::Resumed(default(), client, 2, CatchUp::Suffix(vec![(0, insert(0))])),
        ),
        (
            "synced",
            Reply::Synced(2, CatchUp::Suffix(vec![(1, insert(1))])),
        ),
        ("health", Reply::Health(report)),
        (
            "resumed+reset",
            Reply::Resumed(default(), client, 3, reset(true)),
        ),
        ("synced+reset", Reply::Synced(3, reset(false))),
        ("ack", ack(TraceId::NONE)),
        ("ack+trace", ack(TRACE)),
        ("reject", Reply::reject("unknown worker")),
        (
            "reject+trace",
            Reply::Reject("unknown worker".into(), TRACE),
        ),
        ("overloaded", Reply::Overloaded(25, TraceId::NONE)),
        ("overloaded+trace", Reply::Overloaded(25, TRACE)),
        ("lagging", Reply::Lagging),
        ("stats", Reply::Stats("up 1\n".into())),
        ("trace_dump", Reply::TraceDump("{}\n".into())),
        ("msg", Reply::Msg(seq_msg(3, replace(), TraceId::NONE))),
        ("msg+trace", Reply::Msg(seq_msg(3, replace(), TRACE))),
        ("batch", Reply::Batch(batch)),
    ]
}

#[test]
fn every_frame_kind_encodes_to_the_bytes_captured_before_the_codec() {
    // Trace ids are only read while tracing is on.
    obstrace::set_mode(TraceMode::All);
    let golden: BTreeMap<&str, &str> = FIXTURE
        .lines()
        .map(|line| line.split_once('\t').expect("name<TAB>frame"))
        .collect();
    let mut seen = 0;
    for (name, request) in requests() {
        let frame = request.encode();
        assert_eq!(frame, golden[format!("request {name}").as_str()], "{name}");
        let parsed = wire::parse_frame(frame.as_bytes()).unwrap();
        assert_eq!(Request::decode(&parsed).unwrap(), request, "{name}");
        seen += 1;
    }
    for (name, reply) in replies() {
        let frame = reply.encode();
        assert_eq!(frame, golden[format!("reply {name}").as_str()], "{name}");
        // Reading it back yields the same frame again (an image comes back
        // decoded, whichever form it went out in).
        let parsed = wire::parse_frame(frame.as_bytes()).unwrap();
        assert_eq!(Reply::decode(&parsed).unwrap().encode(), frame, "{name}");
        seen += 1;
    }
    assert_eq!(
        seen,
        golden.len(),
        "a golden frame no encoder was asked for"
    );
}
