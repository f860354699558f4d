//! Resource accounting across connection churn and service teardown. This
//! file holds exactly one test, so it is the only thing in its process that
//! starts a service or opens a socket — which is what lets the counts below
//! be exact rather than padded with slack for concurrently running tests.

use crowdfill_docstore::FsyncPolicy;
use crowdfill_model::{Column, DataType, QuorumMajority, Schema, Template};
use crowdfill_net::{FrameConn, TcpConn};
use crowdfill_server::persist::{self, DurabilityOptions};
use crowdfill_server::wire::Request;
use crowdfill_server::{
    Backend, RemoteWorker, ServiceOptions, StoppingPolicy, TaskConfig, TcpService,
};
use std::io::{Read, Write};
use std::net::TcpStream;
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

/// The name (`comm`, which the kernel cuts to 15 bytes) of every thread in
/// this process: the server's fixed pool and the test harness. A client
/// owns none. A thread in the kernel's exit path (`PF_EXITING` in its
/// `stat` flags) has run its last instruction — a joined thread is past
/// that point — and only waits to be reaped, so it is not listed.
fn thread_names() -> Vec<String> {
    const PF_EXITING: u64 = 0x4;
    let running = |task: &std::path::Path| {
        let stat = std::fs::read_to_string(task.join("stat")).ok()?;
        // The fields after `(comm)`: state, ppid, pgrp, session, tty,
        // tpgid, flags.
        let flags = stat.rsplit_once(')')?.1.split_whitespace().nth(6)?;
        Some(flags.parse::<u64>().ok()? & PF_EXITING == 0)
    };
    let mut names: Vec<String> = std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .filter_map(|task| Some(task.ok()?.path()))
        .filter(|task| running(task) == Some(true))
        .filter_map(|task| std::fs::read_to_string(task.join("comm")).ok())
        .map(|comm| comm.trim_end().to_string())
        .collect();
    names.sort();
    names
}

fn threads() -> usize {
    thread_names().len()
}

/// Whether a thread of this name is one a service started: everything the
/// product names.
fn ours(name: &str) -> bool {
    name.starts_with("crowdfill-") || name.starts_with("obs-")
}

fn service_threads() -> Vec<String> {
    thread_names().into_iter().filter(|n| ours(n)).collect()
}

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .map(|dir| dir.filter_map(|e| e.ok()).count())
        .unwrap_or(0)
}

/// Polls `count` until it reads `expected` again: the shard retiring a
/// connection whose peer just hung up happens asynchronously.
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

/// A session over a bare socket — one descriptor and no thread on the
/// client side, so whatever else the process gains is the server's.
fn raw_session(addr: std::net::SocketAddr) -> TcpStream {
    let mut stream = TcpStream::connect(addr).unwrap();
    let hello = Request::Hello(None).encode();
    stream
        .write_all(&(hello.len() as u32).to_be_bytes())
        .unwrap();
    stream.write_all(hello.as_bytes()).unwrap();
    let mut header = [0u8; 4];
    stream.read_exact(&mut header).unwrap();
    let mut welcome = vec![0u8; u32::from_be_bytes(header) as usize];
    stream.read_exact(&mut welcome).unwrap();
    stream
}

fn two_shards() -> ServiceOptions {
    ServiceOptions {
        shards: 2,
        ..ServiceOptions::default()
    }
}

/// `n` collections, each opened with storage under `dir` when `durable`
/// (which arms the durability tick on their owners).
fn backends(n: usize, durable: bool, dir: &std::path::Path) -> Vec<(String, Backend)> {
    let durability = DurabilityOptions {
        fsync: FsyncPolicy::OsOnly,
        ..DurabilityOptions::default()
    };
    let open = |i: usize| {
        if !durable {
            return Backend::new(config(1));
        }
        let dir = dir.join(format!("c{i}"));
        persist::open_or_recover(config(1), &dir, &durability).unwrap()
    };
    (0..n).map(|i| (format!("c{i}"), open(i))).collect()
}

/// What a started two-shard service runs, however many collections it
/// hosts, connections it holds and ticks it is configured with: threads =
/// shards. The listener and the maintenance ticks are entries of a
/// shard's loop.
const POOL: [&str; 2] = [
    "crowdfill-shard", // crowdfill-shard-0
    "crowdfill-shard", // crowdfill-shard-1
];

/// Voluntary context switches of the service's threads so far: every
/// return from a blocking `epoll_wait` (or, once, a `sleep`) is one.
fn service_context_switches() -> u64 {
    let switches = |task: std::io::Result<std::fs::DirEntry>| {
        let task = task.ok()?.path();
        let comm = std::fs::read_to_string(task.join("comm")).ok()?;
        let status = std::fs::read_to_string(task.join("status")).ok()?;
        let line = status
            .lines()
            .find_map(|l| l.strip_prefix("voluntary_ctxt_switches:"))?;
        line.trim().parse::<u64>().ok().filter(|_| ours(&comm))
    };
    let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
    tasks.filter_map(switches).sum()
}

/// How often an idle service with eight silent sessions wakes, per second:
/// what is periodic costs its period and nothing else does.
fn idle_switches_per_second(options: ServiceOptions) -> f64 {
    let service = TcpService::start_with(Backend::new(config(16)), "127.0.0.1:0", options).unwrap();
    let sessions: Vec<TcpStream> = (0..8).map(|_| raw_session(service.addr())).collect();
    std::thread::sleep(Duration::from_millis(100));
    let (before, start) = (service_context_switches(), Instant::now());
    std::thread::sleep(Duration::from_secs(2));
    let switches = service_context_switches() - before;
    let rate = switches as f64 / start.elapsed().as_secs_f64();
    drop(sessions);
    service.stop();
    rate
}

/// The reactor's whole point: server threads are O(pool size), not
/// O(connections) and not O(collections), a session costs the server one
/// descriptor, and
/// connection churn leaks neither. 500 connect/handshake/disconnect cycles
/// must leave the process with exactly the threads it had (the whole pool
/// was spawned at service start) and exactly the fds it had. And *stop
/// means stopped*: the moment `stop()` — or a plain drop, connections and
/// all — returns, every thread `start` spawned has been joined, every
/// descriptor it took is closed, and the caller holds the only handle on
/// the backend.
#[test]
fn reactor_churn_leaks_neither_threads_nor_fds() {
    if !std::path::Path::new("/proc/self/task").exists() {
        return; // thread accounting needs procfs
    }
    let threads_at_rest = threads();
    let fds_at_rest = open_fds();

    let service =
        TcpService::start_with(Backend::new(config(16)), "127.0.0.1:0", two_shards()).unwrap();
    let addr = service.addr();

    // Every thread exists before start() returns, but each sets its own
    // name as its first act: give them a beat to have done so.
    std::thread::sleep(Duration::from_millis(50));
    assert_eq!(service_threads(), POOL);
    let threads_before = threads();
    let fds_before = open_fds();

    // A live session is one descriptor on each side and no thread.
    let sessions: Vec<TcpStream> = (0..8).map(|_| raw_session(addr)).collect();
    assert_eq!(open_fds(), fds_before + 2 * sessions.len());
    assert_eq!(threads(), threads_before);
    drop(sessions);
    assert_returns_to(fds_before, open_fds, "fds of raw sessions");

    for _ in 0..500 {
        let conn = TcpConn::connect(addr).unwrap();
        conn.send(Request::Hello(None).encode().as_bytes()).unwrap();
        conn.recv().expect("welcome");
        conn.send(Request::Bye.encode().as_bytes()).unwrap();
        // Dropping the conn closes our side; the shard retires its state.
    }

    // Any growth with connection count is a thread per connection.
    assert_returns_to(threads_before, threads, "threads");
    assert_returns_to(fds_before, open_fds, "fds");

    // One client, no thread: a connected worker reads its own socket. It
    // costs the process three descriptors — its socket, the poller it
    // parks on, the server's end — and gives all back, said goodbye or
    // simply dropped.
    let mut workers: Vec<RemoteWorker> = (0..32)
        .map(|_| RemoteWorker::connect(addr).unwrap())
        .collect();
    assert_eq!(threads(), threads_before, "{:?}", thread_names());
    assert_eq!(open_fds(), fds_before + 3 * workers.len());
    workers.drain(..16).for_each(RemoteWorker::bye);
    drop(workers);
    assert_returns_to(fds_before, open_fds, "fds of workers");
    assert_eq!(threads(), threads_before);

    let backend = service.backend();
    service.stop();
    assert_eq!(threads(), threads_at_rest, "{:?}", thread_names());
    assert_eq!(open_fds(), fds_at_rest);
    assert_eq!(Arc::strong_count(&backend), 1);
    drop(backend);

    // 128 collections run the threads of one — a collection is a queue on
    // the shard that owns it — and so does a service with every tick there
    // is armed (durable collections and a stopping policy): a tick is a
    // deadline of that shard.
    let dir = std::env::temp_dir().join(format!("crowdfill-leaks-{}", std::process::id()));
    let every_tick = || ServiceOptions {
        stopping: Some(StoppingPolicy::close_at(0.9)),
        ..two_shards()
    };
    for (collections, ticking) in [(128, false), (1, true), (128, true)] {
        let _ = std::fs::remove_dir_all(&dir);
        let options = if ticking { every_tick() } else { two_shards() };
        let collections = backends(collections, ticking, &dir);
        let service = TcpService::start_multi(collections, "127.0.0.1:0", options).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(service_threads(), POOL);
        assert_eq!(threads(), threads_before);
        service.stop();
        assert_eq!(threads(), threads_at_rest, "{:?}", thread_names());
        assert_eq!(open_fds(), fds_at_rest);
    }
    let _ = std::fs::remove_dir_all(&dir);

    // Dropped without `stop`, with eight workers still attached.
    let service = TcpService::start(Backend::new(config(16)), "127.0.0.1:0").unwrap();
    let workers: Vec<RemoteWorker> = (0..8)
        .map(|_| RemoteWorker::connect(service.addr()).unwrap())
        .collect();
    let backend = service.backend();
    drop(service);
    assert_eq!(service_threads(), Vec::<String>::new());
    assert_eq!(Arc::strong_count(&backend), 1);
    // What is left is the clients': their sockets and pollers, no thread.
    assert_eq!(threads(), threads_at_rest, "{:?}", thread_names());
    drop(workers);
    assert_eq!(open_fds(), fds_at_rest);

    // Idle is idle: under default options nothing wakes a shard. The
    // telemetry readings are taken on the wakes that can move them, the
    // durability tick is armed only for collections with storage and the
    // progress tick only with a stopping policy, neither of which an
    // in-memory default service has. (52/s at the parent of the change
    // that made the ticks deadlines: a sampler asleep in 20 ms slices; 4/s
    // at the parent of the one that took the readings on wakes.)
    let rate = idle_switches_per_second(two_shards());
    eprintln!("idle default service: {rate:.1} voluntary context switches/s");
    assert_eq!(rate, 0.0, "an idle default service woke");
}
