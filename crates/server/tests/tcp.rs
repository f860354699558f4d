//! Live networked deployment test: a real back-end behind framed TCP, with
//! multiple remote workers collecting a small table end to end.

use crowdfill_model::{
    ClientId, Column, ColumnId, DataType, QuorumMajority, Schema, Template, Value,
};
use crowdfill_net::{ConnError, FrameConn, TcpConn};
use crowdfill_server::wire::{self, CatchUp, Cursor, Image, Reply, Request};
use crowdfill_server::{RemoteError, RemoteWorker, TaskConfig, TcpService};
use std::sync::Arc;
use std::time::Duration;

const WAIT: Duration = Duration::from_secs(5);

fn send(conn: &TcpConn, request: Request) {
    conn.send(request.encode().as_bytes()).unwrap();
}

/// The next frame that is not a broadcast, decoded.
fn recv(conn: &TcpConn) -> Reply<'static> {
    loop {
        let frame = conn.recv_timeout(WAIT).expect("reply frame");
        match Reply::decode(&wire::parse_frame(&frame).unwrap()).unwrap() {
            Reply::Msg(_) | Reply::Batch(_) => {}
            reply => return reply,
        }
    }
}

fn config(rows: usize) -> TaskConfig {
    let schema = Arc::new(
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
    );
    TaskConfig::new(
        schema,
        Arc::new(QuorumMajority::of_three()),
        Template::cardinality(rows),
        10.0,
    )
}

#[test]
fn remote_collection_end_to_end() {
    let backend = crowdfill_server::Backend::new(config(1));
    let service = TcpService::start(backend, "127.0.0.1:0").unwrap();
    let addr = service.addr();

    let mut alice = RemoteWorker::connect(addr).unwrap();
    let mut bob = RemoteWorker::connect(addr).unwrap();

    // Alice sees the seeded empty row and completes it.
    let rows = alice.view().presented_rows();
    assert_eq!(rows.len(), 1);
    let ack = alice
        .fill(rows[0], ColumnId(0), Value::text("Messi"))
        .unwrap();
    assert!(ack.estimate > 0.0);
    let r = alice.view().replica().table().row_ids().next().unwrap();
    let _ = alice
        .fill(r, ColumnId(1), Value::text("Argentina"))
        .unwrap();
    let r = alice.view().replica().table().row_ids().next().unwrap();
    let ack = alice.fill(r, ColumnId(2), Value::text("FW")).unwrap();
    assert!(!ack.fulfilled); // one auto-upvote is below quorum

    // Bob catches up via broadcasts and upvotes the completed row.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    loop {
        bob.absorb_pending();
        let complete = bob
            .view()
            .replica()
            .table()
            .iter()
            .any(|(_, e)| e.value.len() == 3);
        if complete {
            break;
        }
        assert!(std::time::Instant::now() < deadline, "broadcast timed out");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let done = bob
        .view()
        .replica()
        .table()
        .iter()
        .find(|(_, e)| e.value.len() == 3)
        .map(|(id, _)| id)
        .unwrap();
    let ack = bob.upvote(done).unwrap();
    assert!(ack.fulfilled, "quorum reached: constraint fulfilled");

    // Double-voting is rejected over the wire too.
    let err = bob.upvote(done);
    assert!(err.is_err());

    // Settle on the server side.
    let backend = service.backend();
    let (ft, _contribs, payout) = backend.lock().settle();
    assert_eq!(ft.len(), 1);
    assert!(payout.worker_total(crowdfill_pay::WorkerId(1)) > 0.0);
    assert!(payout.worker_total(crowdfill_pay::WorkerId(2)) > 0.0);

    alice.bye();
    bob.bye();
    service.stop();
}

/// Reads a plain `name value` metric line out of a snapshot.
/// A fill that lost the race for its row is refused, and the loser's
/// replica, which had applied it, is replaced by a full resync — a reset,
/// answered with the bootstrap whatever the horizon — after which it is
/// the master.
#[test]
fn a_refused_fill_resyncs_the_loser_to_the_master() {
    let backend = crowdfill_server::Backend::new(config(2));
    let service = TcpService::start(backend, "127.0.0.1:0").unwrap();
    let mut alice = RemoteWorker::connect(service.addr()).unwrap();
    let mut bob = RemoteWorker::connect(service.addr()).unwrap();
    let row = alice.view().replica().table().row_ids().next().unwrap();
    alice.fill(row, ColumnId(0), Value::text("Messi")).unwrap();
    // Bob has not absorbed Alice's fill: his replaces a row that is gone.
    let refused = bob.fill(row, ColumnId(0), Value::text("Pele"));
    assert!(
        matches!(refused, Err(RemoteError::Rejected(_))),
        "{refused:?}"
    );
    let backend = service.backend();
    assert!(bob.view().replica().same_state(backend.lock().master()));
    // The same request by hand: a reset, nowhere near a compaction.
    let raw = TcpConn::connect(service.addr()).unwrap();
    send(&raw, Request::Hello(None));
    assert!(matches!(recv(&raw), Reply::Welcome(..)));
    send(&raw, Request::Resync);
    let Reply::Synced(_, CatchUp::Image(Image::Table(image, log))) = recv(&raw) else {
        panic!("a full resync is answered with a reset");
    };
    let master = backend.lock();
    let mut replica = image.replica(ClientId(9), Arc::clone(&master.config().schema), 0);
    replica.replay(&log);
    assert!(replica.same_state(master.master()));
    drop(master);
    alice.bye();
    bob.bye();
    service.stop();
}

fn metric(snapshot: &str, name: &str) -> u64 {
    snapshot
        .lines()
        .find_map(|l| {
            l.strip_prefix(name)
                .and_then(|rest| rest.strip_prefix(' '))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

#[test]
fn stats_request_reports_live_metrics() {
    let backend = crowdfill_server::Backend::new(config(1));
    let service = TcpService::start(backend, "127.0.0.1:0").unwrap();
    let addr = service.addr();

    let mut worker = RemoteWorker::connect(addr).unwrap();
    let rows = worker.view().presented_rows();
    worker
        .fill(rows[0], ColumnId(0), Value::text("Messi"))
        .unwrap();

    let snapshot = worker.stats().unwrap();
    // The submit above flowed through sync, the TCP framing layer, and
    // the per-request latency histogram; all must show up end to end.
    assert!(
        metric(&snapshot, "crowdfill_sync_ops_applied") > 0,
        "{snapshot}"
    );
    assert!(
        metric(&snapshot, "crowdfill_net_bytes_out") > 0,
        "{snapshot}"
    );
    assert!(
        metric(&snapshot, "crowdfill_server_request_latency_ns_count") > 0,
        "{snapshot}"
    );
    assert!(
        metric(&snapshot, "crowdfill_server_submit_requests") > 0,
        "{snapshot}"
    );
    assert!(
        metric(&snapshot, "crowdfill_server_stats_requests") > 0,
        "{snapshot}"
    );

    // The protocol keeps working after a stats exchange.
    let r = worker.view().replica().table().row_ids().next().unwrap();
    worker
        .fill(r, ColumnId(1), Value::text("Argentina"))
        .unwrap();

    worker.bye();
    service.stop();
}

#[test]
fn malformed_frames_are_rejected_gracefully() {
    let backend = crowdfill_server::Backend::new(config(1));
    let service = TcpService::start(backend, "127.0.0.1:0").unwrap();
    let malformed = &service.metrics().malformed_frames;
    let addr = service.addr();

    // Garbage instead of hello — text that is not JSON, then JSON that is
    // not UTF-8: the server counts the frame, drops the connection, and
    // stays alive.
    let garbage: [&[u8]; 2] = [b"not json at all", b"{\"type\":\"hello\",\"x\":\"\xFF\"}"];
    for frame in garbage {
        let before = malformed.get();
        let conn = TcpConn::connect(addr).unwrap();
        conn.send(frame).unwrap();
        assert_eq!(conn.recv_timeout(WAIT), Err(ConnError::Disconnected));
        assert_eq!(malformed.get(), before + 1);
    }

    // In a session a malformed frame costs the frame, not the session:
    // nothing is applied, one frame is counted, and the next request is
    // served. Bytes that are not JSON text are not answered — a submit
    // whose text cell holds a byte that is not UTF-8 is not rewritten to
    // U+FFFD and applied. JSON that is no request (no `type`, a `type`
    // that is no string or none the server knows, a submit without a
    // message, a second handshake) is answered with a `reject`, so its
    // sender does not wait out a timeout.
    let conn = TcpConn::connect(addr).unwrap();
    send(&conn, Request::Hello(None));
    let Reply::Welcome(_, _, client, ..) = recv(&conn) else {
        panic!("no welcome");
    };
    let client = client.0;
    let mut submit = format!(
        r#"{{"type":"submit","auto":false,"msg":{{"kind":"replace","old":{{"c":0,"s":0}},"new":{{"c":{client},"s":0}},"value":[{{"col":0,"val":{{"t":"text","v":"Mes?si"}}}}]}}}}"#
    )
    .into_bytes();
    let cell = submit.iter().position(|b| *b == b'?').unwrap();
    submit[cell] = 0xFF;
    let in_session: [(&[u8], bool); 8] = [
        (&submit, false),
        (b"not json at all", false),
        (b"{}", true),
        (b"[1]", true),
        (br#"{"type":7}"#, true),
        (br#"{"type":"observe"}"#, true),
        (br#"{"type":"submit","auto":false}"#, true),
        (br#"{"type":"hello"}"#, true),
    ];
    for (frame, answered) in in_session {
        let case = String::from_utf8_lossy(frame);
        let (before, history_len) = (malformed.get(), service.backend().lock().history_len());
        conn.send(frame).unwrap();
        send(&conn, Request::Stats);
        if answered {
            assert!(matches!(recv(&conn), Reply::Reject(..)), "{case}");
        }
        assert!(
            matches!(recv(&conn), Reply::Stats(_)),
            "{case}: the session survives"
        );
        assert_eq!(malformed.get(), before + 1, "{case}");
        assert_eq!(service.backend().lock().history_len(), history_len);
    }
    // Only `bye` closes.
    send(&conn, Request::Bye);
    assert_eq!(conn.recv_timeout(WAIT), Err(ConnError::Disconnected));

    // A proper client still works afterwards.
    let mut worker = RemoteWorker::connect(addr).unwrap();
    let rows = worker.view().presented_rows();
    assert_eq!(rows.len(), 1);
    worker
        .fill(rows[0], ColumnId(0), Value::text("Messi"))
        .unwrap();
    worker.bye();
    service.stop();
}

#[test]
fn undo_and_modify_over_the_wire() {
    let backend = crowdfill_server::Backend::new(config(1));
    let service = TcpService::start(backend, "127.0.0.1:0").unwrap();
    let addr = service.addr();

    let mut alice = RemoteWorker::connect(addr).unwrap();
    let mut bob = RemoteWorker::connect(addr).unwrap();

    // Alice completes the row with a wrong position.
    let rows = alice.view().presented_rows();
    let mut row = rows[0];
    for (col, v) in [(0u16, "Messi"), (1, "Argentina"), (2, "MF")] {
        alice.fill(row, ColumnId(col), Value::text(v)).unwrap();
        row = alice
            .view()
            .replica()
            .table()
            .iter()
            .find(|(_, e)| e.value.get(ColumnId(col)) == Some(&Value::text(v)))
            .map(|(id, _)| id)
            .unwrap();
    }

    // Bob sees it, upvotes, reconsiders, undoes, then corrects via modify.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
    let done = loop {
        bob.absorb_pending();
        if let Some((id, _)) = bob
            .view()
            .replica()
            .table()
            .iter()
            .find(|(_, e)| e.value.len() == 3)
        {
            break id;
        }
        assert!(std::time::Instant::now() < deadline);
        std::thread::sleep(std::time::Duration::from_millis(10));
    };
    bob.upvote(done).unwrap();
    bob.undo_upvote(done).unwrap();
    // Undoing twice is rejected end to end.
    assert!(bob.undo_upvote(done).is_err());

    let ack = bob.modify(done, ColumnId(2), Value::text("FW")).unwrap();
    let _ = ack;
    // The corrected row exists server-side with position FW and the old row
    // carries bob's downvote.
    let backend = service.backend();
    {
        let b = backend.lock();
        let corrected = b
            .master()
            .table()
            .iter()
            .find(|(_, e)| e.value.get(ColumnId(2)) == Some(&Value::text("FW")))
            .expect("corrected row");
        assert_eq!(corrected.1.value.len(), 3);
        let old = b.master().table().get(done).expect("old row remains");
        assert_eq!(old.downvotes, 1);
    }

    alice.bye();
    bob.bye();
    service.stop();
}

/// What the first frame of a connection must produce.
enum Handshake {
    /// A `reject` frame carrying this reason, then EOF.
    Rejected(&'static str),
    /// EOF with no reply, and exactly one malformed-frame count.
    Dropped,
}

/// The handshake's refusal paths and the cursor's tolerance for junk,
/// driven over raw frames so they pin the wire behaviour rather than any
/// decoder's signature. The well-formed frames come from the codec; the
/// hand-written ones are each malformed or hostile in the way their row
/// says.
#[test]
fn handshake_refusals_and_cursor_junk_over_raw_frames() {
    let backend = crowdfill_server::Backend::new(config(2));
    let service = TcpService::start(backend, "127.0.0.1:0").unwrap();
    let malformed = &service.metrics().malformed_frames;
    let addr = service.addr();
    let assert_eof = |conn: &TcpConn, case: &str| match conn.recv_timeout(WAIT) {
        Err(ConnError::Empty) => panic!("{case}: connection left open"),
        Err(_) => {}
        Ok(frame) => panic!(
            "{case}: unexpected frame {}",
            String::from_utf8_lossy(&frame)
        ),
    };

    let nowhere = || Some("nope".to_string());
    let resume = |worker, collection| {
        Request::Resume(
            crowdfill_pay::WorkerId(worker),
            Cursor::default(),
            collection,
        )
        .encode()
    };
    let refusals = [
        (
            Request::Hello(nowhere()).encode(),
            Handshake::Rejected("unknown collection"),
        ),
        (
            resume(0, nowhere()),
            Handshake::Rejected("unknown collection"),
        ),
        (resume(4242, None), Handshake::Rejected("unknown worker")),
        // A worker id that is no id, and none at all.
        (
            r#"{"type":"resume","worker":-1,"from":0,"have":[]}"#.to_string(),
            Handshake::Dropped,
        ),
        (
            r#"{"type":"resume","from":0,"have":[]}"#.to_string(),
            Handshake::Dropped,
        ),
        // A request, but no handshake.
        (Request::Stats.encode(), Handshake::Dropped),
    ];
    for (first_frame, expect) in refusals {
        let before = malformed.get();
        let conn = TcpConn::connect(addr).unwrap();
        conn.send(first_frame.as_bytes()).unwrap();
        match expect {
            Handshake::Rejected(reason) => {
                match recv(&conn) {
                    Reply::Reject(why, _) => assert_eq!(why, reason, "{first_frame}"),
                    other => panic!("{first_frame}: {other:?}"),
                }
                assert_eof(&conn, &first_frame);
                assert_eq!(malformed.get(), before, "{first_frame}");
            }
            Handshake::Dropped => {
                assert_eof(&conn, &first_frame);
                assert_eq!(malformed.get(), before + 1, "{first_frame}");
            }
        }
    }

    // Some history for the cursors to select from.
    let mut filler = RemoteWorker::connect(addr).unwrap();
    let rows = filler.view().presented_rows();
    for (c, v) in ["Messi", "Argentina", "FW"].into_iter().enumerate() {
        let r = if c == 0 {
            rows[0]
        } else {
            filler.view().replica().table().row_ids().next().unwrap()
        };
        filler.fill(r, ColumnId(c as u16), Value::text(v)).unwrap();
    }

    let conn = TcpConn::connect(addr).unwrap();
    send(&conn, Request::Hello(None));
    let Reply::Welcome(_, worker, _, history_len, ..) = recv(&conn) else {
        panic!("no welcome");
    };
    assert!(history_len >= 4, "need a few seqs to skip: {history_len}");

    // Negative and non-integer `have` entries are ignored; the valid ones
    // (1 and 3) are the only seqs missing from the suffix.
    let junk_have = r#"[1,-3,2.5,"x",null,3,-0.5]"#;
    let expected: Vec<u64> = (0..history_len).filter(|s| *s != 1 && *s != 3).collect();
    let seqs_of = |body: CatchUp| match body {
        CatchUp::Suffix(msgs) => msgs.into_iter().map(|(seq, _)| seq).collect::<Vec<_>>(),
        CatchUp::Image(_) => panic!("a reset above the horizon"),
    };
    let before = malformed.get();
    conn.send(format!(r#"{{"type":"sync","from":0,"have":{junk_have}}}"#).as_bytes())
        .unwrap();
    match recv(&conn) {
        Reply::Synced(_, body) => assert_eq!(seqs_of(body), expected),
        other => panic!("{other:?}"),
    }

    let takeover = TcpConn::connect(addr).unwrap();
    let worker = worker.0;
    takeover
        .send(
            format!(r#"{{"type":"resume","worker":{worker},"from":0,"have":{junk_have}}}"#)
                .as_bytes(),
        )
        .unwrap();
    match recv(&takeover) {
        Reply::Resumed(.., body) => assert_eq!(seqs_of(body), expected),
        other => panic!("{other:?}"),
    }
    assert_eq!(
        malformed.get(),
        before,
        "junk cursor entries are not malformed frames"
    );

    filler.bye();
    service.stop();
}

/// `"auto":true` on a raw socket buys no exemption from the policy: an
/// insert, a replace of a row that is gone and a second upvote of a voted
/// value are each turned away, and the history does not move.
#[test]
fn auto_true_over_a_raw_socket_exempts_nothing_but_the_completion_upvote() {
    use crowdfill_model::{Message, RowId, RowValue};
    use crowdfill_obs::trace::TraceId;

    let service = TcpService::start(crowdfill_server::Backend::new(config(2)), "127.0.0.1:0");
    let service = service.unwrap();
    let mut honest = RemoteWorker::connect(service.addr()).unwrap();
    let first = honest.view().presented_rows()[0];
    let mut row = first;
    for (c, v) in ["Messi", "Argentina", "FW"].into_iter().enumerate() {
        honest
            .fill(row, ColumnId(c as u16), Value::text(v))
            .unwrap();
        row = *honest.view().presented_rows().iter().max().unwrap();
    }
    let table = honest.view().replica().table();
    let complete = table.iter().find(|(_, e)| e.upvotes == 1).unwrap().1;
    let complete = complete.value.clone();

    let raw = TcpConn::connect(service.addr()).unwrap();
    let exchange = |request: Request| {
        send(&raw, request);
        recv(&raw)
    };
    let Reply::Welcome(_, _, client, before, ..) = exchange(Request::Hello(None)) else {
        panic!("no welcome");
    };

    // The raw session votes once, honestly, so that a second vote is one.
    let upvote = Message::Upvote { value: complete };
    let submit =
        |msg: &Message, auto| exchange(Request::Submit((msg.clone(), auto), false, TraceId::NONE));
    assert!(matches!(submit(&upvote, false), Reply::Ack(..)));
    let hostile = [
        Message::Insert {
            row: RowId::new(client, 77),
        },
        Message::Replace {
            old: first,
            new: RowId::new(client, 78),
            value: RowValue::from_pairs([(ColumnId(0), Value::text("Pele"))]),
        },
        upvote.clone(),
    ];
    for msg in &hostile {
        assert!(matches!(submit(msg, true), Reply::Reject(..)), "{msg:?}");
    }
    let Reply::Synced(after, _) = exchange(Request::Sync(Cursor::default())) else {
        panic!("no synced");
    };
    assert_eq!(after, before + 1, "only the honest upvote landed");
    honest.bye();
    service.stop();
}

/// A raw session with a replica behind it: the requests are the client's
/// own, when they are sent and what is read back is the test's.
fn join(service: &TcpService) -> (TcpConn, crowdfill_server::ClientCore) {
    let conn = TcpConn::connect(service.addr()).unwrap();
    send(&conn, Request::Hello(None));
    let welcome = conn.recv_timeout(WAIT).expect("welcome");
    let core = crowdfill_server::ClientCore::welcomed(&welcome, None, None).unwrap();
    (conn, core)
}

/// The next frame, broadcasts included.
fn recv_any(conn: &TcpConn) -> Reply<'static> {
    let frame = conn.recv_timeout(WAIT).expect("a frame");
    Reply::decode(&wire::parse_frame(&frame).unwrap()).unwrap()
}

/// What two authors' sockets deliver into one batch is one backend call:
/// it journals as **one** WAL frame and reaches a third session as one
/// `batch` frame, in log order — and each author gets the other's message,
/// its own only as the seq in its ack. The batch is pinned without a clock:
/// `max_batch` = 2 under a fill window nobody waits out, so the first fill
/// is held until the second completes the batch.
#[test]
fn two_authors_one_batch_is_one_wal_frame_and_one_broadcast_frame() {
    use crowdfill_server::persist::{self, DurabilityOptions, JournalRecord};
    use crowdfill_server::{BatchOptions, ServiceOptions};

    let mut dir = std::env::temp_dir();
    dir.push(format!("crowdfill-tcp-one-frame-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durability = DurabilityOptions {
        fsync: crowdfill_docstore::FsyncPolicy::OsOnly,
        ..DurabilityOptions::default()
    };
    let backend = persist::open_or_recover(config(2), &dir, &durability).unwrap();
    let options = ServiceOptions {
        batch: BatchOptions {
            max_batch: 2,
            max_wait: Duration::from_secs(600),
        },
        ..ServiceOptions::default()
    };
    let service = TcpService::start_with(backend, "127.0.0.1:0", options).unwrap();
    let mut authors = [join(&service), join(&service)];
    let (observer, _) = join(&service);

    for (k, (conn, core)) in authors.iter_mut().enumerate() {
        let row = core.view().replica().table().row_ids().nth(k).unwrap();
        let fill = core.fill(row, ColumnId(0), Value::text(format!("player-{k}")), false);
        send(conn, fill.unwrap().remove(0));
    }
    // Each author: its ack and the other's message, in either order.
    let mut acked = Vec::new();
    let mut seen = Vec::new();
    for (conn, _) in &authors {
        for _ in 0..2 {
            match recv_any(conn) {
                Reply::Ack(_, _, seqs, _) => acked.extend(seqs),
                Reply::Msg(other) => seen.push(other.seq),
                other => panic!("unexpected frame: {other:?}"),
            }
        }
    }
    acked.sort();
    seen.sort();
    assert_eq!(acked.len(), 2);
    assert_eq!(seen, acked, "each author saw the other's op, not its own");
    // The observer: one frame for both, in log order.
    let Reply::Batch(msgs) = recv_any(&observer) else {
        panic!("the batch did not arrive as one frame");
    };
    let seqs: Vec<u64> = msgs.iter().map(|m| m.seq).collect();
    assert_eq!(seqs, acked);

    drop((authors, observer));
    service.stop();
    let mut frames = Vec::new();
    let replay = |record: &[u8]| {
        if let Some(JournalRecord::Frame(frame)) = persist::decode_journal_record(record) {
            frames.push((frame.from, frame.entries.len()));
        }
    };
    crowdfill_docstore::Wal::open(dir.join("journal.wal"), replay).unwrap();
    assert_eq!(frames, [(acked[0], 2)], "one batch, one journal frame");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A connection that pipelines is answered in request order: two fills —
/// the second of the row the first creates, so applying them out of order
/// would reject it — and a `sync` sent behind them without waiting come
/// back as ack, ack, synced, and the `synced` covers both.
#[test]
fn pipelined_requests_are_answered_in_request_order() {
    let service = TcpService::start(crowdfill_server::Backend::new(config(1)), "127.0.0.1:0");
    let service = service.unwrap();
    let (conn, mut core) = join(&service);
    let row = core.view().replica().table().row_ids().next().unwrap();
    let first = core.fill(row, ColumnId(0), Value::text("Messi"), false);
    let row = core.view().replica().table().row_ids().next().unwrap();
    let second = core.fill(row, ColumnId(1), Value::text("Argentina"), false);
    for request in [first.unwrap().remove(0), second.unwrap().remove(0)] {
        send(&conn, request);
    }
    send(&conn, Request::Sync(Cursor::default()));

    let Reply::Ack(_, _, first, _) = recv_any(&conn) else {
        panic!("first reply is not the first ack");
    };
    let Reply::Ack(_, _, second, _) = recv_any(&conn) else {
        panic!("second reply is not the second ack");
    };
    assert!(first[0] < second[0], "{first:?} then {second:?}");
    let Reply::Synced(history_len, _) = recv_any(&conn) else {
        panic!("third reply is not the synced");
    };
    assert!(history_len > second[0]);
    drop(conn);
    service.stop();
}
