//! The client's one reply loop, driven by a scripted peer. A `RemoteWorker`
//! is dialed onto one end of an in-process `LocalConn` pair; the test holds
//! the other end and queues the server's half of the conversation *before*
//! the client speaks (the pair is an unbounded queue each way), so every
//! case is one thread and no socket. Only the first-connect backoff case
//! reads a clock, for a lower bound a sleep cannot undercut.

use crowdfill_docstore::Json;
use crowdfill_model::{
    ClientId, Column, ColumnId, DataType, Message, QuorumMajority, RowId, RowValue, Schema,
    Template, Value,
};
use crowdfill_net::{ConnError, FrameConn, LocalConn};
use crowdfill_obs::trace::TraceId;
use crowdfill_pay::WorkerId;
use crowdfill_server::wire::{self, CatchUp, Cursor, Image, Reply, Request, SeqMsg, TableImage};
use crowdfill_server::{Backend, Dialer, ReconnectPolicy, RemoteError, RemoteWorker, TaskConfig};
use crowdfill_sync::Replica;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

fn schema() -> Arc<Schema> {
    let columns = vec![
        Column::new("name", DataType::Text),
        Column::new("nationality", DataType::Text),
    ];
    Arc::new(Schema::new("SoccerPlayer", columns, &["name"]).unwrap())
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

/// The welcome of worker 1, client 1 at `history_len` 2: a two-message
/// history, the Central Client's two empty rows.
fn welcome() -> Vec<u8> {
    let inserts = [0, 1].map(|s| Message::Insert { row: cc_row(s) });
    let image = Box::new(TableImage::of(&Replica::new(ClientId(0), schema())));
    let history = Image::Table(image, inserts.to_vec());
    let (worker, client) = (WorkerId(1), ClientId(1));
    frame(Reply::Welcome(
        "default".into(),
        worker,
        client,
        2,
        schema(),
        history,
    ))
}

/// The handshake with `welcome` queued ahead of the hello. The test keeps
/// the connection's far end.
fn dial_with(welcome: &[u8]) -> (Result<RemoteWorker, RemoteError>, LocalConn) {
    let (near, far) = LocalConn::pair();
    far.send(welcome).unwrap();
    let mut near = Some(near);
    let dialer: Dialer = Box::new(move |_| {
        let conn = near.take().ok_or(ConnError::Disconnected)?;
        Ok(Box::new(conn) as Box<dyn FrameConn>)
    });
    // Everything the client waits for is already queued; no redial.
    let policy = ReconnectPolicy {
        max_attempts: 1,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(1),
        ack_timeout: Duration::from_millis(200),
        jitter_seed: 0,
    };
    (RemoteWorker::connect_with(dialer, policy), far)
}

/// A worker welcomed at `history_len` 2.
fn dial() -> (RemoteWorker, LocalConn) {
    let (worker, far) = dial_with(&welcome());
    (worker.unwrap(), far)
}

/// The requests the client has sent since the last call, decoded.
fn sent(far: &LocalConn) -> Vec<Request> {
    std::iter::from_fn(|| far.try_recv().ok())
        .map(|frame| Request::decode(&wire::parse_frame(&frame).unwrap()).unwrap())
        .collect()
}

fn synced(history_len: u64, missing: &[(u64, Message)]) -> Vec<u8> {
    frame(Reply::Synced(
        history_len,
        CatchUp::Suffix(missing.to_vec()),
    ))
}

#[derive(Debug, Clone, Copy)]
enum Kind {
    Submit,
    Sync,
    Stats,
    Health,
    TraceDump,
}

const KINDS: [Kind; 5] = [
    Kind::Submit,
    Kind::Sync,
    Kind::Stats,
    Kind::Health,
    Kind::TraceDump,
];

impl Kind {
    /// The frame that answers this request.
    fn reply(self) -> Vec<u8> {
        match self {
            Kind::Submit => frame(Reply::Ack(1.5, false, vec![2], TraceId::NONE)),
            // Nothing was missing when the server served it.
            Kind::Sync => synced(3, &[]),
            Kind::Stats => frame(Reply::Stats("up 1\n".into())),
            Kind::Health => {
                let config = TaskConfig::new(
                    schema(),
                    Arc::new(QuorumMajority::of_three()),
                    Template::cardinality(2),
                    10.0,
                );
                let report = crowdfill_server::collect(&Backend::new(config));
                frame(Reply::Health(Box::new(report)))
            }
            Kind::TraceDump => frame(Reply::TraceDump("{}\n".into())),
        }
    }

    /// Issues the request and checks what it decoded from [`reply`].
    fn request(self, worker: &mut RemoteWorker) -> Result<(), RemoteError> {
        match self {
            Kind::Submit => {
                let ack = worker.fill(cc_row(0), ColumnId(0), Value::text("Messi"))?;
                assert_eq!((ack.estimate, ack.recovered), (1.5, false));
            }
            Kind::Sync => worker.sync()?,
            Kind::Stats => assert_eq!(worker.stats()?, "up 1\n"),
            Kind::Health => assert_eq!(worker.health()?.collection.name, "SoccerPlayer"),
            Kind::TraceDump => assert_eq!(worker.trace_dump()?, "{}\n"),
        }
        Ok(())
    }
}

/// Broadcasts that arrive while a request is waiting for its reply: a
/// `msg`, a `batch` that leaves seq 5 missing, and a `lagging` note.
fn interleaved() -> Vec<Vec<u8>> {
    let pele = Message::Replace {
        old: cc_row(1),
        new: RowId::new(ClientId(2), 0),
        value: RowValue::from_pairs([(ColumnId(0), Value::text("Pele"))]),
    };
    let batch = vec![
        seq_msg(4, &Message::Insert { row: cc_row(2) }),
        seq_msg(6, &Message::Insert { row: cc_row(3) }),
    ];
    vec![
        frame(Reply::Msg(seq_msg(3, &pele))),
        frame(Reply::Batch(batch)),
        frame(Reply::Lagging),
    ]
}

/// `msg`, `batch` and `lagging` frames interleaved before the reply are
/// absorbed the same way whichever request was waiting: the same replica,
/// the same applied-seq set (read off the cursor of the client's next
/// `sync`), the lagging flag set.
#[test]
fn interleaved_broadcasts_are_absorbed_alike_under_every_request() {
    let mut outcomes = Vec::new();
    for kind in KINDS {
        let (mut worker, far) = dial();
        // Every case makes the same fill, so the replicas are comparable;
        // only in the submit case is it the request under test.
        if !matches!(kind, Kind::Submit) {
            far.send(&Kind::Submit.reply()).unwrap();
            Kind::Submit.request(&mut worker).unwrap();
        }
        for frame in interleaved() {
            far.send(&frame).unwrap();
        }
        far.send(&kind.reply()).unwrap();
        // What heals the lag afterwards: the one message still missing.
        let heal = synced(7, &[(5, Message::Insert { row: cc_row(4) })]);
        if matches!(kind, Kind::Submit) {
            // An acked submit heals on its own: the reply must be waiting.
            far.send(&heal).unwrap();
            kind.request(&mut worker).unwrap();
            assert!(!worker.needs_sync(), "the note was seen, and healed");
        } else {
            sent(&far);
            kind.request(&mut worker).unwrap();
            assert!(worker.needs_sync(), "{kind:?}: lagging note lost");
            assert_eq!(worker.local_lag(), 1, "{kind:?}");
            far.send(&heal).unwrap();
            worker.sync().unwrap();
        }
        let requests = sent(&far);
        let Some(Request::Sync(cursor)) = requests.last() else {
            panic!("{kind:?}: {requests:?}");
        };
        assert_eq!(worker.local_lag(), 0, "{kind:?}");
        outcomes.push((kind, cursor.clone(), worker));
    }
    let (_, first_cursor, first) = &outcomes[0];
    // 0 and 1 came with the welcome, 2 with the ack, 3 and 4 as
    // broadcasts; 6 is known, 5 is the hole.
    let hole = Cursor {
        from: 5,
        have: [6].into(),
    };
    assert_eq!(first_cursor, &hole);
    assert_eq!(first.view().replica().table().len(), 5);
    for (kind, cursor, worker) in &outcomes[1..] {
        assert_eq!(cursor, first_cursor, "{kind:?}");
        assert!(
            worker.view().replica().same_state(first.view().replica()),
            "{kind:?}: replica differs from the submit case's"
        );
    }
}

/// A reply that is not UTF-8 is a protocol error under every request — not
/// a panic, not a frame silently skipped (the client would then wait out
/// its timeout and redial a connection that is not dead).
#[test]
fn a_reply_that_is_not_utf8_is_a_protocol_error() {
    for kind in KINDS {
        let (mut worker, far) = dial();
        let mut reply = kind.reply();
        let quote = reply.iter().rposition(|b| *b == b'"').unwrap();
        reply.insert(quote, 0xFF);
        far.send(&reply).unwrap();
        match kind.request(&mut worker) {
            Err(RemoteError::Protocol(_)) => {}
            other => panic!("{kind:?}: expected a protocol error, got {other:?}"),
        }
    }
}

/// The welcome's `history` is a state image plus a log suffix, so its
/// length is not a cursor: without `history_len` there is nothing to
/// resume from, and the handshake fails instead of guessing.
#[test]
fn a_welcome_without_history_len_is_a_protocol_error() {
    // Malformed on purpose: a welcome with its watermark cut out.
    let mut welcome = Json::parse(std::str::from_utf8(&welcome()).unwrap()).unwrap();
    if let Json::Obj(fields) = &mut welcome {
        fields.remove("history_len").unwrap();
    }
    match dial_with(welcome.encode().as_bytes()).0 {
        Err(RemoteError::Protocol(what)) => assert!(what.contains("history_len"), "{what}"),
        Err(other) => panic!("expected a protocol error, got {other:?}"),
        Ok(_) => panic!("joined on a welcome with no watermark"),
    }
}

/// The first connect backs off between refused dials as a redial does:
/// each gap between dials is at least the policy's smallest jittered wait,
/// half of `base_delay`.
#[test]
fn refused_first_dials_are_spaced_by_the_redial_backoff() {
    let (near, far) = LocalConn::pair();
    far.send(&welcome()).unwrap();
    let mut near = Some(near);
    let calls = Arc::new(Mutex::new(Vec::new()));
    let seen = Arc::clone(&calls);
    let dialer: Dialer = Box::new(move |attempt| {
        seen.lock().unwrap().push(Instant::now());
        if attempt < 3 {
            return Err(ConnError::Disconnected);
        }
        let conn = near.take().ok_or(ConnError::Disconnected)?;
        Ok(Box::new(conn) as Box<dyn FrameConn>)
    });
    let policy = ReconnectPolicy {
        max_attempts: 4,
        base_delay: Duration::from_millis(20),
        max_delay: Duration::from_millis(80),
        ack_timeout: Duration::from_millis(200),
        jitter_seed: 0,
    };
    let smallest = policy.base_delay / 2;
    RemoteWorker::connect_with(dialer, policy).unwrap();
    let calls = calls.lock().unwrap();
    assert_eq!(calls.len(), 4, "three refusals, then the welcome");
    for (k, pair) in calls.windows(2).enumerate() {
        let gap = pair[1] - pair[0];
        assert!(gap >= smallest, "dial {} followed {k} after {gap:?}", k + 1);
    }
}
