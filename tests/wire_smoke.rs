//! Workspace smoke over the real wire — the one tier-1 test that opens a
//! socket, so `cargo test -q` at the root runs the reactor, the batch
//! pipeline, the client's reply loop and the wire decoder end to end (the
//! suites that pin each of them live behind `cargo test --workspace`).

use crowdfill::net::{FrameConn, TcpConn};
use crowdfill::prelude::*;
use crowdfill::server::wire::{self, CatchUp, Cursor, Reply, Request};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn config() -> TaskConfig {
    let columns = vec![
        Column::new("name", DataType::Text),
        Column::new("nationality", DataType::Text),
    ];
    let schema = Schema::new("SoccerPlayer", columns, &["name"]).unwrap();
    TaskConfig::new(
        Arc::new(schema),
        Arc::new(QuorumMajority::of_three()),
        Template::cardinality(2),
        10.0,
    )
}

/// The row of `worker`'s replica that holds `name`, or an empty one.
fn row_named(worker: &RemoteWorker, name: Option<&str>) -> Option<RowId> {
    let name = name.map(Value::text);
    let table = worker.view().replica().table();
    let found = table
        .iter()
        .find(|(_, entry)| entry.value.get(ColumnId(0)) == name.as_ref());
    found.map(|(id, _)| id)
}

#[test]
fn two_workers_fill_vote_and_converge_over_tcp() {
    let service = TcpService::start(Backend::new(config()), "127.0.0.1:0").unwrap();
    let mut alice = RemoteWorker::connect(service.addr()).unwrap();
    let mut bob = RemoteWorker::connect(service.addr()).unwrap();

    // Alice completes a row; a non-ASCII cell crosses the wire intact.
    let row = row_named(&alice, None).expect("an empty row");
    alice.fill(row, ColumnId(0), Value::text("Pelé")).unwrap();
    let row = row_named(&alice, Some("Pelé")).expect("the filled row");
    let ack = alice.fill(row, ColumnId(1), Value::text("Brazil")).unwrap();
    assert!(!ack.recovered);

    // Bob sees it as broadcasts and endorses it.
    let deadline = Instant::now() + Duration::from_secs(10);
    let complete = loop {
        bob.absorb_pending();
        let seen = row_named(&bob, Some("Pelé")).filter(|row| {
            let table = bob.view().replica().table();
            table.get(*row).is_some_and(|entry| entry.value.len() == 2)
        });
        if let Some(row) = seen {
            break row;
        }
        assert!(Instant::now() < deadline, "bob never saw alice's row");
        std::thread::sleep(Duration::from_millis(5));
    };
    bob.upvote(complete).unwrap();

    // One read-only request through the same reply loop, then a sync each:
    // both replicas equal the master.
    let report = alice.health().unwrap();
    assert_eq!(report.collection.name, "SoccerPlayer");
    alice.sync().unwrap();
    bob.sync().unwrap();
    assert_eq!((alice.local_lag(), bob.local_lag()), (0, 0));
    let backend = service.backend();
    {
        let backend = backend.lock();
        let master = backend.master();
        assert!(alice.view().replica().same_state(master));
        assert!(bob.view().replica().same_state(master));
        assert_eq!(master.table().get(complete).map(|e| e.upvotes), Some(2));
    }

    alice.bye();
    bob.bye();
    service.stop();
    assert_eq!(Arc::strong_count(&backend), 1, "stop means stopped");
}

/// The typed codec over a bare socket: requests built and encoded by
/// `wire::Request`, replies decoded by `wire::Reply`, and each reply read
/// back equal to what its own re-encoding decodes to.
#[test]
fn typed_frames_round_trip_over_a_raw_socket() {
    let service = TcpService::start(Backend::new(config()), "127.0.0.1:0").unwrap();
    let conn = TcpConn::connect(service.addr()).unwrap();
    let exchange = |request: Request| {
        let sent = request.encode();
        let parsed = wire::parse_frame(sent.as_bytes()).unwrap();
        assert_eq!(Request::decode(&parsed), Ok(request));
        conn.send(sent.as_bytes()).unwrap();
        let frame = conn.recv_timeout(Duration::from_secs(10)).unwrap();
        let reply = Reply::decode(&wire::parse_frame(&frame).unwrap()).unwrap();
        let again = reply.encode();
        assert_eq!(again.as_bytes(), frame, "a reply re-encodes to its bytes");
        reply
    };
    let Reply::Welcome(collection, worker, _, history_len, ..) = exchange(Request::Hello(None))
    else {
        panic!("no welcome");
    };
    assert_eq!(
        (collection.as_str(), worker, history_len),
        ("default", WorkerId(1), 2)
    );
    match exchange(Request::Sync(Cursor::default())) {
        Reply::Synced(2, CatchUp::Suffix(history)) => assert_eq!(history.len(), 2),
        other => panic!("{other:?}"),
    }
    assert!(matches!(exchange(Request::Stats), Reply::Stats(_)));
    conn.send(Request::Bye.encode().as_bytes()).unwrap();
    service.stop();
}
