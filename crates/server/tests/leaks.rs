//! Resource accounting across connection churn and service teardown. This
//! file holds exactly one test, so it is the only thing in its process that
//! starts a service or opens a socket — which is what lets the counts below
//! be exact rather than padded with slack for concurrently running tests.

use crowdfill_model::{Column, DataType, QuorumMajority, Schema, Template};
use crowdfill_net::{FrameConn, TcpConn};
use crowdfill_server::{Backend, RemoteWorker, TaskConfig, TcpService};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn config(rows: usize) -> TaskConfig {
    let schema = Arc::new(
        Schema::new(
            "SoccerPlayer",
            vec![
                Column::new("name", DataType::Text),
                Column::new("nationality", DataType::Text),
            ],
            &["name"],
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

/// Every thread in this process (the server's fixed pool, the test
/// harness, and the client-side reader thread each `TcpConn` owns).
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .map(|dir| dir.filter_map(|e| e.ok()).count())
        .unwrap_or(0)
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .map(|dir| dir.filter_map(|e| e.ok()).count())
        .unwrap_or(0)
}

/// Polls `count` until it reads `expected` again; teardown (the shard
/// retiring a connection, a client reader thread exiting) is asynchronous.
fn assert_returns_to(expected: usize, count: fn() -> usize, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while count() != expected {
        assert!(
            Instant::now() < deadline,
            "reactor leaked {what}: {expected} before, {} after",
            count()
        );
        std::thread::sleep(Duration::from_millis(50));
    }
}

/// The reactor's whole point: server threads are O(pool size), not
/// O(connections), and connection churn leaks neither threads nor file
/// descriptors. 500 connect/handshake/disconnect cycles must leave the
/// process with exactly the threads it had (the shard pool was spawned at
/// service start) and exactly the fds it had. And a service that is merely
/// dropped, connections and all, must give back everything `start` took:
/// a leaked shard would block in `epoll_wait` forever, holding its epoll
/// fd, its eventfd and every socket it owns.
#[test]
fn reactor_churn_leaks_neither_threads_nor_fds() {
    if !std::path::Path::new("/proc/self/task").exists() {
        return; // thread accounting needs procfs
    }
    let threads_at_rest = threads();
    let fds_at_rest = open_fds();

    let service = TcpService::start(Backend::new(config(16)), "127.0.0.1:0").unwrap();
    let addr = service.addr();

    // The shard pool, sampler and sweeps are all up before start()
    // returns; give the first sweeps a beat.
    std::thread::sleep(Duration::from_millis(50));
    let threads_before = threads();
    let fds_before = open_fds();

    for _ in 0..500 {
        let conn = TcpConn::connect(addr).unwrap();
        conn.send(br#"{"type":"hello"}"#).unwrap();
        conn.recv().expect("welcome");
        conn.send(br#"{"type":"bye"}"#).unwrap();
        // Dropping the conn closes our side; the shard retires its state.
    }

    // Any growth with connection count is a thread per connection.
    assert_returns_to(threads_before, threads, "threads");
    // retire() closes the stream and the outbox's closer dup.
    assert_returns_to(fds_before, open_fds, "fds");

    service.stop();
    // The detached sweep threads notice the flag at their next tick.
    assert_returns_to(threads_at_rest, threads, "threads after stop");
    assert_returns_to(fds_at_rest, open_fds, "fds after stop");

    // Dropped without `stop`, with eight workers still attached.
    let service = TcpService::start(Backend::new(config(16)), "127.0.0.1:0").unwrap();
    let workers: Vec<RemoteWorker> = (0..8)
        .map(|_| RemoteWorker::connect(service.addr()).unwrap())
        .collect();
    drop(service);
    drop(workers);
    assert_returns_to(threads_at_rest, threads, "threads after drop");
    assert_returns_to(fds_at_rest, open_fds, "fds after drop");
}
