//! A generated corpus of hostile requests over a raw socket: every message
//! kind × every §2.2 precondition or §3.4 rule it can violate × `auto` on
//! and off × as a `submit`, as the whole of a `modify` bundle, and behind a
//! well-formed `[downvote, insert]` bundle prefix. Each frame decodes — the
//! codec is not the defence here, `Backend::apply_msg` and the bundle's
//! shape check are — and each must be answered with a `reject`, by a
//! session that goes on serving, on a master that still equals a replica
//! replayed from its own bootstrap image (a bundle refused half-way has
//! moved the table; the image must have moved with it). Run it in a debug
//! build: that is where `Replica::process` asserts Lemma 3 after every
//! message, so a shape that breaks it is a panic on the collection's shard
//! and a dead session here. One peer is hostile by saying nothing at all:
//! its socket must not outlive the handshake deadline. And a hostile
//! server: a bootstrap image that is not one is a client's protocol error.

use crowdfill_model::{
    ClientId, Column, ColumnId, DataType, Message, QuorumMajority, RowId, RowValue, Schema,
    Template, Value,
};
use crowdfill_net::{FrameConn, TcpConn};
use crowdfill_obs::trace::TraceId;
use crowdfill_pay::WorkerId;
use crowdfill_server::wire::{self, CatchUp, Image, Op, Reply, Request, TableImage};
use crowdfill_server::{
    Backend, ClientCore, OverloadOptions, RemoteError, RemoteWorker, ServiceOptions, TaskConfig,
    TcpService,
};
use crowdfill_sync::Replica;
use std::io::Read;
use std::sync::Arc;
use std::time::Duration;

fn schema() -> Arc<Schema> {
    let columns = vec![
        Column::new("name", DataType::Text),
        Column::new("nationality", DataType::Text),
    ];
    Arc::new(Schema::new("SoccerPlayer", columns, &["name"]).unwrap())
}

fn cells(cells: &[(u16, &str)]) -> RowValue {
    RowValue::from_pairs(cells.iter().map(|(c, v)| (ColumnId(*c), Value::text(*v))))
}

/// The next frame that is not a broadcast, decoded.
fn recv(conn: &TcpConn) -> Reply<'static> {
    loop {
        let frame = conn.recv_timeout(Duration::from_secs(10)).expect("reply");
        match Reply::decode(&wire::parse_frame(&frame).unwrap()).unwrap() {
            Reply::Msg(_) | Reply::Batch(_) => {}
            reply => return reply,
        }
    }
}

fn assert_master_is_its_image(backend: &Backend, case: &str) {
    let mut replayed = Replica::new(ClientId(u32::MAX), schema());
    for msg in backend.table_image().to_messages() {
        replayed.process(&msg);
    }
    assert!(backend.master().same_state(&replayed), "{case}");
}

#[test]
fn every_hostile_shape_is_rejected_by_a_session_that_lives_on() {
    let quorum = Arc::new(QuorumMajority::of_three());
    let config = TaskConfig::new(schema(), quorum, Template::cardinality(2), 10.0);
    let options = ServiceOptions {
        overload: OverloadOptions {
            evict_after: Duration::from_millis(500),
            ..OverloadOptions::default()
        },
        ..ServiceOptions::default()
    };
    let service = TcpService::start_with(Backend::new(config), "127.0.0.1:0", options).unwrap();
    // The peer that never says `hello`: looked at again after the corpus.
    let mut silent = std::net::TcpStream::connect(service.addr()).unwrap();

    // An honest worker completes one row, which kills the two rows of its
    // lineage and leaves a complete value with one upvote.
    let mut honest = RemoteWorker::connect(service.addr()).unwrap();
    let dead = honest.view().presented_rows()[0];
    honest
        .fill(dead, ColumnId(0), Value::text("Messi"))
        .unwrap();
    let partial = *honest.view().presented_rows().iter().max().unwrap();
    let fill = honest.fill(partial, ColumnId(1), Value::text("Argentina"));
    fill.unwrap();
    let complete = cells(&[(0, "Messi"), (1, "Argentina")]);
    let (live, blank) = {
        let table = honest.view().replica().table();
        let found = table.iter().find(|(_, e)| e.value == complete);
        let blank = table.iter().find(|(_, e)| e.value.is_empty());
        (
            found.expect("the completed row").0,
            blank.expect("a row left to fill").0,
        )
    };

    let raw = TcpConn::connect(service.addr()).unwrap();
    raw.send(Request::Hello(None).encode().as_bytes()).unwrap();
    let Reply::Welcome(_, _, me, ..) = recv(&raw) else {
        panic!("no welcome");
    };
    // The raw session casts one honest vote, so that a second is one.
    let upvote = Message::Upvote {
        value: complete.clone(),
    };
    let vote = Request::Submit((upvote.clone(), false), false, TraceId::NONE);
    raw.send(vote.encode().as_bytes()).unwrap();
    assert!(matches!(recv(&raw), Reply::Ack(..)));

    let partial = cells(&[(0, "Pele")]);
    let empty = RowValue::empty();
    let fresh = |seq| RowId::new(me, seq);
    // Two cells, so that a count of cells calls it complete: a cell of
    // the wrong type, and one in a column the schema does not have.
    let mistyped = RowValue::from_pairs([
        (ColumnId(0), Value::int(7)),
        (ColumnId(1), Value::text("x")),
    ]);
    let outside = RowValue::from_pairs([
        (ColumnId(0), Value::text("Pele")),
        (ColumnId(9), Value::text("x")),
    ]);
    let hostile: Vec<(&str, Message)> = vec![
        ("insert: by a worker", Message::Insert { row: fresh(70) }),
        ("insert: over a live row", Message::Insert { row: live }),
        (
            "replace: of a dead row",
            Message::Replace {
                old: dead,
                new: fresh(71),
                value: partial.clone(),
            },
        ),
        (
            "replace: of a row that never was",
            Message::Replace {
                old: fresh(72),
                new: fresh(73),
                value: complete.clone(),
            },
        ),
        (
            // A fill of a row that is there, into an id that is not the
            // sender's to mint: the honest worker's live row.
            "replace: into another worker's row id",
            Message::Replace {
                old: blank,
                new: live,
                value: partial.clone(),
            },
        ),
        (
            "replace: a cell of the wrong type",
            Message::Replace {
                old: blank,
                new: fresh(74),
                value: RowValue::from_pairs([(ColumnId(0), Value::int(7))]),
            },
        ),
        (
            "replace: a wrong type and a column outside the schema",
            Message::Replace {
                old: blank,
                new: fresh(75),
                value: RowValue::from_pairs([
                    (ColumnId(0), Value::int(7)),
                    (ColumnId(9), Value::text("x")),
                ]),
            },
        ),
        (
            "replace: that fills two cells at once",
            Message::Replace {
                old: blank,
                new: fresh(76),
                value: complete.clone(),
            },
        ),
        (
            "replace: that fills nothing",
            Message::Replace {
                old: live,
                new: fresh(77),
                value: complete.clone(),
            },
        ),
        (
            "replace: that rewrites a filled cell",
            Message::Replace {
                old: live,
                new: fresh(78),
                value: cells(&[(0, "Messi"), (1, "Brazil")]),
            },
        ),
        (
            "upvote: a cell of the wrong type",
            Message::Upvote {
                value: mistyped.clone(),
            },
        ),
        (
            "upvote: a column outside the schema",
            Message::Upvote {
                value: outside.clone(),
            },
        ),
        (
            "downvote: a cell of the wrong type",
            Message::Downvote { value: mistyped },
        ),
        (
            "downvote: a column outside the schema",
            Message::Downvote { value: outside },
        ),
        (
            "upvote: of a partial vector",
            Message::Upvote {
                value: partial.clone(),
            },
        ),
        (
            "upvote: of the empty vector",
            Message::Upvote {
                value: empty.clone(),
            },
        ),
        ("upvote: a second one", upvote),
        (
            "downvote: of the empty vector",
            Message::Downvote {
                value: empty.clone(),
            },
        ),
        (
            "undo_upvote: of a vote never cast",
            Message::UndoUpvote { value: partial },
        ),
        (
            "undo_downvote: of a vote never cast",
            Message::UndoDownvote { value: empty },
        ),
    ];

    let mut next_row = 100;
    let mut cases = 0;
    for (what, msg) in &hostile {
        for auto in [false, true] {
            let op: Op = (msg.clone(), auto);
            // The prefix of a well-formed modify: it passes the shape
            // check, so what follows it is judged on its own.
            let downvote = Message::Downvote {
                value: complete.clone(),
            };
            let insert = Message::Insert {
                row: fresh(next_row),
            };
            next_row += 1;
            let prefixed = vec![(downvote, false), (insert, false), op.clone()];
            let placements = [
                ("submit", Request::Submit(op.clone(), false, TraceId::NONE)),
                ("bundle", Request::Modify(vec![op], TraceId::NONE)),
                ("prefixed", Request::Modify(prefixed, TraceId::NONE)),
            ];
            for (placement, request) in placements {
                let case = format!("{what}, auto {auto}, {placement}");
                raw.send(request.encode().as_bytes()).unwrap();
                assert!(matches!(recv(&raw), Reply::Reject(..)), "{case}");
                raw.send(Request::Stats.encode().as_bytes()).unwrap();
                assert!(matches!(recv(&raw), Reply::Stats(_)), "{case}: session");
                assert_master_is_its_image(&service.backend().lock(), &case);
                cases += 1;
            }
        }
    }
    assert_eq!(cases, 120);

    // A row id no `i64` holds: `i64::MAX as f64` is 2^63, so the integer
    // view once saturated it to 2^63 − 1 and the frame decoded. It is a
    // malformed frame, refused before anything is applied.
    let huge = r#"{"auto":false,"msg":{"kind":"replace","new":{"c":1,"s":9223372036854775808},"old":{"c":0,"s":0},"value":[]},"type":"submit"}"#;
    raw.send(huge.as_bytes()).unwrap();
    match recv(&raw) {
        Reply::Reject(reason, _) => assert!(
            reason.contains(r#"field "s" must be a non-negative integer"#),
            "{reason}"
        ),
        other => panic!("a 2^63 seq was not refused: {other:?}"),
    }
    raw.send(Request::Stats.encode().as_bytes()).unwrap();
    assert!(matches!(recv(&raw), Reply::Stats(_)), "2^63: session");
    assert_master_is_its_image(&service.backend().lock(), "2^63");

    // Ids and columns past their width: once truncated — client 2^32 + 1
    // read as client 1, column 2^16 as column 0 — so the master, the
    // journal and the broadcasts carried a rewrite of what was sent. A
    // malformed frame, refused before anything is applied.
    let upvote = Message::Upvote {
        value: complete.clone(),
    };
    let upvote = Request::Submit((upvote, false), false, TraceId::NONE);
    let wide_col = upvote.encode().replacen(r#""col":0"#, r#""col":65536"#, 1);
    let fill = Message::Replace {
        old: blank,
        new: fresh(1),
        value: cells(&[(0, "Pele")]),
    };
    let fill = Request::Submit((fill, false), false, TraceId::NONE).encode();
    let wide_client = fill.replace(&format!(r#""c":{}"#, me.0), r#""c":4294967297"#);
    for (case, frame, field) in [
        (
            "column 2^16",
            wide_col,
            r#"field "col" must be a 16-bit column"#,
        ),
        (
            "client 2^32 + 1",
            wide_client,
            r#"field "c" must be a 32-bit id"#,
        ),
    ] {
        raw.send(frame.as_bytes()).unwrap();
        match recv(&raw) {
            Reply::Reject(reason, _) => assert!(reason.contains(field), "{case}: {reason}"),
            other => panic!("{case} was not refused: {other:?} ({frame})"),
        }
        assert_master_is_its_image(&service.backend().lock(), case);
    }

    // A row id of 2^53 + 1, which no `f64` holds. Every encoder writes
    // numbers as `f64`, so the decoder reads it as one too: the master
    // holds the id that its journal and its broadcasts carry, 2^53.
    let fill = Message::Replace {
        old: blank,
        new: fresh(424_242),
        value: cells(&[(0, "Pele")]),
    };
    let frame = Request::Submit((fill, false), false, TraceId::NONE).encode();
    let frame = frame.replace(r#""s":424242"#, r#""s":9007199254740993"#);
    raw.send(frame.as_bytes()).unwrap();
    assert!(matches!(recv(&raw), Reply::Ack(..)), "2^53 + 1: {frame}");
    let backend = service.backend();
    let backend = backend.lock();
    let ids = || backend.master().table().iter().map(|(id, _)| id);
    assert!(ids().any(|id| id == fresh(1 << 53)), "2^53 + 1");
    let mut replayed = Replica::new(ClientId(u32::MAX), schema());
    for msg in backend.table_image().to_messages() {
        let text = wire::message_to_json(&msg).encode();
        let doc = crowdfill_docstore::Json::parse(&text).unwrap();
        replayed.process(&wire::message_from_json(&doc).unwrap());
    }
    assert!(backend.master().same_state(&replayed), "2^53 + 1: image");
    drop(backend);

    // The silent socket cost the server a descriptor for `evict_after`,
    // not for good: the server closed it, whatever else went on.
    let timeout = Some(Duration::from_secs(10));
    silent.set_read_timeout(timeout).unwrap();
    match silent.read(&mut [0u8; 1]) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("a socket that never said hello is still held: {other:?}"),
    }

    // The honest worker was not harmed: it catches up and equals the master.
    honest.sync().unwrap();
    let backend = service.backend();
    assert!(honest.view().replica().same_state(backend.lock().master()));
    honest.bye();
    service.stop();
}

/// A bootstrap is read strictly: an image whose rows or votes name a value
/// it does not hold, that lists a row twice, that counts past 32 bits or
/// whose `values` is no array, or not distinct and ascending, is a
/// protocol error — and so is a cell its column's type does not admit, a
/// value wider than `types` or ending in `null`, a type no schema has, and
/// `types` that are not the welcome's schema's — in a `welcome` and in a
/// reset alike, and never a panic or a replica built from half of it.
#[test]
fn every_hostile_image_is_a_protocol_error() {
    let types = r#"["text","text"]"#;
    let image = |values: &str, rows: &str, uh: &str| {
        let image = format!(r#""rows":[{rows}],"types":{types},"uh":[{uh}],"values":{values}"#);
        format!(r#"{{"image":{{"dh":[],{image}}},"log":[]}}"#)
    };
    let typed = |types: &str, values: &str| {
        let image = format!(r#""rows":[],"types":{types},"uh":[],"values":{values}"#);
        format!(r#"{{"image":{{"dh":[],{image}}},"log":[]}}"#)
    };
    let one = r#"[[],["Pele","Brazil"]]"#;
    // A sound image, so that each case below is refused for its one flaw.
    let sound = image(one, "[0,0,0],[0,1,1]", "[1,1]");
    let hostile = [
        (
            "a row's value index out of range",
            image(one, "[0,0,2]", ""),
        ),
        ("a vote's value index out of range", image(one, "", "[7,1]")),
        ("a negative value index", image(one, "[0,0,-1]", "")),
        ("a duplicate row id", image(one, "[0,0,0],[0,0,1]", "")),
        ("rows out of order", image(one, "[0,1,0],[0,0,1]", "")),
        ("a row that is no triple", image(one, "[0,0]", "")),
        (
            "a row id as an object",
            image(one, r#"[{"c":0,"s":0},0]"#, ""),
        ),
        ("a client past 32 bits", image(one, "[4294967297,0,0]", "")),
        ("a count of 2^32", image(one, "", "[1,4294967296]")),
        ("a negative count", image(one, "", "[1,-1]")),
        ("a fractional count", image(one, "", "[1,1.5]")),
        ("a vote that is no pair", image(one, "", "[1]")),
        ("non-array values", image(r#"{"0":[]}"#, "", "")),
        ("string values", image(r#""[]""#, "", "")),
        ("a value that is no array", image("[7]", "", "")),
        (
            "values out of order",
            image(r#"[["Pele","Brazil"],[]]"#, "", ""),
        ),
        ("a value twice", image(r#"[[],["Pele"],["Pele"]]"#, "", "")),
        (
            "a cell of the wrong JSON kind",
            image(r#"[["Pele",7]]"#, "", ""),
        ),
        (
            "a self-describing cell",
            image(r#"[[{"t":"text","v":"Pele"}]]"#, "", ""),
        ),
        (
            "a value wider than types",
            image(r#"[["a","b","c"]]"#, "", ""),
        ),
        (
            "a value ending in null",
            image(r#"[["Pele",null]]"#, "", ""),
        ),
        ("an unknown type", typed(r#"["text","varchar"]"#, one)),
        ("a type that is no string", typed(r#"["text",1]"#, one)),
        ("no types", sound.replace(r#""types":["text","text"],"#, "")),
        ("types of another schema", typed(r#"["text","int"]"#, "[]")),
        ("fewer types than the schema", typed(r#"["text"]"#, "[]")),
        ("no image", r#"{"log":[]}"#.to_string()),
        (
            "a message array",
            r#"[{"kind":"insert","row":{"c":0,"s":0}}]"#.to_string(),
        ),
    ];
    let welcome = |history: String| {
        let text = Image::Text(history.into());
        Reply::Welcome("c".into(), WorkerId(1), ClientId(1), 9, schema(), text)
    };
    let core = ClientCore::welcomed(welcome(sound).encode().as_bytes(), None, None);
    assert_eq!(
        core.unwrap().view().replica().table().len(),
        2,
        "the sound image"
    );
    let scripted = || {
        let image = TableImage::of(&Replica::new(ClientId(0), schema()));
        let image = Image::Table(Box::new(image), vec![]);
        let welcome = Reply::Welcome("c".into(), WorkerId(1), ClientId(1), 0, schema(), image);
        ClientCore::welcomed(welcome.encode().as_bytes(), None, None).unwrap()
    };
    for (case, history) in hostile {
        let welcome = welcome(history);
        let welcomed = ClientCore::welcomed(welcome.encode().as_bytes(), None, None);
        assert!(
            matches!(welcomed, Err(RemoteError::Protocol(_))),
            "welcome with {case}"
        );
        let Reply::Welcome(.., text) = welcome else {
            unreachable!()
        };
        let reset = Reply::Synced(9, CatchUp::Image(text)).encode();
        let mut core = scripted();
        let handled = core.handle(reset.as_bytes());
        assert!(
            matches!(handled, Err(RemoteError::Protocol(_))),
            "reset with {case}"
        );
        assert_eq!(
            core.view().replica().table().len(),
            0,
            "{case}: a half-built table"
        );
    }
}
