//! The reactor's wake path, over real sockets: a shard blocks in
//! `epoll_wait` until a socket, the listener, a hand-over, a hang-up, the
//! instant its core asked to be woken at (a connection's deadline, a
//! batch's, a tick) or `stop` is ready — and then reads only what is ready
//! and feeds it to its core, which does everything an action needs before
//! the shard blocks again. The core's rules themselves are tested under a
//! virtual clock in `shard.rs`; these are one smoke test per rule that the
//! driver carries them out. The counters these tests read
//! (`crowdfill_reactor_wakeups`, `_conn_visits`, `_handovers`) are
//! process-global, so the file is its own test binary and its tests take
//! turns.

use crowdfill_docstore::FsyncPolicy;
use crowdfill_model::{Column, ColumnId, DataType, QuorumMajority, Schema, Template, Value};
use crowdfill_net::{ConnError, FrameConn, TcpConn};
use crowdfill_pay::Millis;
use crowdfill_server::persist::{self, DurabilityOptions};
use crowdfill_server::wire::{self, Cursor, Reply, Request};
use crowdfill_server::{
    Backend, BatchOptions, DurabilitySweepOptions, OverloadOptions, RemoteWorker, ServiceOptions,
    StoppingPolicy, TaskConfig, TcpService, WorkerClient,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

static TURN: Mutex<()> = Mutex::new(());

fn take_turn() -> MutexGuard<'static, ()> {
    TURN.lock().unwrap_or_else(|e| e.into_inner())
}

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

/// Two shards, otherwise the defaults — under which an in-memory service
/// arms no tick and `idle_timeout` is `None`: a shard with nothing to do
/// has nothing to wake it, so wakes can be counted exactly.
fn two_shards() -> ServiceOptions {
    ServiceOptions {
        shards: 2,
        ..ServiceOptions::default()
    }
}

fn counter(name: &str) -> u64 {
    crowdfill_obs::metrics::counter(name).get()
}

fn wakeups() -> u64 {
    counter("crowdfill_reactor_wakeups")
}

/// Eight collections over two shards: both shards own some, so a
/// session of a collection the acceptor — shard 0, the lowest that owns
/// any — does not own is handed over, and one of a collection it owns is
/// not. (On a one-collection service the acceptor is the owner and no
/// connection ever moves.)
fn two_owners(rows: usize) -> TcpService {
    let collections = (0..8).map(|i| (format!("c{i}"), Backend::new(config(rows))));
    TcpService::start_multi(collections.collect(), "127.0.0.1:0", two_shards()).unwrap()
}

/// Which of `two_owners`' collections the acceptor owns and which it hands
/// over, found out the way a client can: by the hand-over a session costs.
fn home_and_foreign(addr: SocketAddr) -> (Vec<String>, Vec<String>) {
    let names = (0..8).map(|i| format!("c{i}"));
    let (foreign, home): (Vec<String>, Vec<String>) = names.partition(|name| {
        let before = counter("crowdfill_reactor_handovers");
        drop(session(addr, name));
        counter("crowdfill_reactor_handovers") > before
    });
    assert!(!home.is_empty() && !foreign.is_empty(), "one owner only");
    (home, foreign)
}

/// A raw session: handshake done, nothing sent since. It was accepted by
/// the acceptor shard and lives on the one that owns its collection.
fn session(addr: SocketAddr, collection: &str) -> TcpConn {
    let conn = TcpConn::connect(addr).unwrap();
    let hello = Request::Hello(Some(collection.to_string()));
    conn.send(hello.encode().as_bytes()).unwrap();
    let welcome = conn.recv().expect("welcome");
    assert!(matches!(decoded(&welcome), Reply::Welcome(..)));
    conn
}

fn decoded(frame: &[u8]) -> Reply<'static> {
    Reply::decode(&wire::parse_frame(frame).unwrap()).unwrap()
}

/// Fills the first column of some still-empty row.
fn fill(worker: &mut RemoteWorker, value: &str) {
    worker.absorb_pending();
    let view = worker.view();
    let table = view.replica().table();
    let row = view
        .presented_rows()
        .iter()
        .copied()
        .find(|r| table.get(*r).is_none_or(|e| !e.value.has(ColumnId(0))))
        .expect("an empty row");
    worker.fill(row, ColumnId(0), Value::text(value)).unwrap();
}

/// Lets the shards finish what the set-up started and block again.
fn settle() {
    std::thread::sleep(Duration::from_millis(100));
}

/// Runs `body` on its own thread and fails — rather than hangs — if it is
/// not done within `limit`: a shard that misses a wake blocks forever.
fn within<T: Send + 'static>(
    limit: Duration,
    what: &str,
    body: impl FnOnce() -> T + Send + 'static,
) -> T {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    rx.recv_timeout(limit).unwrap_or_else(|_| {
        panic!("{what}: not within {limit:?} (panicked, or the shard slept through its wake)")
    })
}

const WATCHDOG: Duration = Duration::from_secs(2);

/// Blocks until the server closes the connection; frames that arrive
/// before that are discarded.
fn recv_until_closed(conn: &TcpConn) {
    loop {
        match conn.recv() {
            Ok(_) => {}
            Err(ConnError::Disconnected) => return,
            Err(e) => panic!("expected a clean close, got {e}"),
        }
    }
}

/// (i) Idle is idle: under the default options, connected, silent
/// sessions cost no wakeups at all. The telemetry readings are taken on
/// the wakes that can move them, not on a clock; no tick is armed for an
/// in-memory service without a stopping policy; and the handshake
/// eviction deadlines a `hello` voided — due inside the window with a
/// short `evict_after` — are dropped before a wait, not woken for.
#[test]
fn an_idle_default_service_never_wakes() {
    let _turn = take_turn();
    let options = ServiceOptions {
        overload: OverloadOptions {
            evict_after: Duration::from_millis(200),
            ..OverloadOptions::default()
        },
        ..ServiceOptions::default()
    };
    let service = TcpService::start_with(Backend::new(config(4)), "127.0.0.1:0", options).unwrap();
    let handovers = counter("crowdfill_reactor_handovers");
    let sessions: Vec<TcpConn> = (0..8).map(|_| session(service.addr(), "default")).collect();
    // One collection has one owner, which is the acceptor.
    assert_eq!(counter("crowdfill_reactor_handovers"), handovers);
    settle();
    let before = wakeups();
    std::thread::sleep(Duration::from_millis(800));
    assert_eq!(wakeups() - before, 0, "an idle default service woke");
    drop(sessions);
    service.stop();
}

/// (i) A progress tick is a decision's: without a stopping policy none is
/// armed and an idle service does not wake; with one (that never fires)
/// the tick runs every 500 ms.
#[test]
fn a_progress_tick_is_armed_only_with_a_policy() {
    let _turn = take_turn();
    let never = StoppingPolicy::close_at(2.0);
    for policy in [None, Some(never)] {
        let options = ServiceOptions {
            stopping: policy.clone(),
            ..two_shards()
        };
        let backend = Backend::new(config(4));
        let service = TcpService::start_with(backend, "127.0.0.1:0", options).unwrap();
        settle();
        let (before, start) = (wakeups(), Instant::now());
        std::thread::sleep(Duration::from_millis(1100));
        let (woke, took) = (wakeups() - before, start.elapsed().as_millis() as u64);
        // A tick re-arms one period after it ran: at most one more than
        // whole periods fit in the interval.
        let ticks = 1..=(took / 500 + 1);
        match policy {
            None => assert_eq!(woke, 0, "woke without a policy"),
            Some(_) => assert!(ticks.contains(&woke), "{woke} wakes, ticks {ticks:?}"),
        }
        service.stop();
    }
}

/// Entries of a `/proc/self` directory: `task` for threads.
fn procfs_count(dir: &str) -> usize {
    std::fs::read_dir(format!("/proc/self/{dir}")).map_or(0, Iterator::count)
}

/// Open descriptors of the kinds a service and its clients hold: sockets
/// and epoll/eventfd instances. What else the process holds for a moment
/// is left out (one came and went as the next test's thread started).
fn socket_fds() -> usize {
    let kind = |fd: std::fs::DirEntry| std::fs::read_link(fd.path()).ok();
    let fds = std::fs::read_dir("/proc/self/fd").into_iter().flatten();
    let links = fds.filter_map(|fd| kind(fd.ok()?));
    let ours = |link: &std::path::PathBuf| {
        let link = link.to_string_lossy();
        link.starts_with("socket:") || link.starts_with("anon_inode:")
    };
    links.filter(ours).count()
}

/// (ii) A wake costs O(ready connections): 256 idle sessions share the
/// shards with one busy worker (another collection, so its fills are not
/// broadcast to them) and are not visited on its behalf. Nor do they cost
/// the client side a thread each: a `TcpConn` reads its own socket.
#[test]
fn a_wake_visits_only_ready_connections() {
    let _turn = take_turn();
    let fds_at_rest = socket_fds();
    let backends = vec![
        ("busy".to_string(), Backend::new(config(100))),
        ("idle".to_string(), Backend::new(config(1))),
    ];
    let service = TcpService::start_multi(backends, "127.0.0.1:0", two_shards()).unwrap();
    let addr = service.addr();
    let threads = procfs_count("task");
    let idle: Vec<TcpConn> = (0..256).map(|_| session(addr, "idle")).collect();
    let mut worker = RemoteWorker::connect_to(addr, "busy").unwrap();
    // Slack for test threads the harness starts meanwhile, not for 257.
    assert!(procfs_count("task") < threads + 16, "a thread per session");
    settle();
    let before = counter("crowdfill_reactor_conn_visits");
    for i in 0..100 {
        fill(&mut worker, &format!("player-{i}"));
    }
    let visits = counter("crowdfill_reactor_conn_visits") - before;
    assert!(visits >= 100, "100 fills in {visits} visits?");
    assert!(
        visits < 100 * 16,
        "{visits} visits for 100 fills: a wake is sweeping idle connections"
    );
    worker.bye();
    drop(idle);
    service.stop();
    assert_eq!(socket_fds(), fds_at_rest, "descriptors not given back");
}

/// One action, one wake: with author and observer attached to one
/// collection, a fill is read, applied, broadcast and acked by the wake
/// that its frame caused — on a service with a second shard to lose work
/// to. (Three at the parent of the change that made a collection one
/// shard's: the author's shard for the frame, the observer's for the
/// broadcast, the author's again for the ack.)
#[test]
fn one_fill_costs_one_wake_and_reaches_both_sockets() {
    let _turn = take_turn();
    let service = two_owners(8);
    let addr = service.addr();
    let observer = session(addr, "c0");
    let mut author = RemoteWorker::connect_to(addr, "c0").unwrap();
    for round in 0..3 {
        settle();
        let before = wakeups();
        fill(&mut author, &format!("player-{round}"));
        let frame = observer.recv().expect("broadcast");
        assert!(matches!(decoded(&frame), Reply::Msg(_)));
        settle();
        assert_eq!(wakeups() - before, 1, "round {round}");
    }
    author.bye();
    drop(observer);
    service.stop();
}

/// The shard that accepted a connection is not always the one that serves
/// it: a session is handed over exactly if the acceptor does not own its
/// collection — so hand-overs = sessions on foreign collections — and from
/// then on every visit it gets is the owner's.
#[test]
fn a_session_is_served_by_the_shard_that_owns_its_collection() {
    let _turn = take_turn();
    let service = two_owners(32);
    let addr = service.addr();
    let (home, foreign) = home_and_foreign(addr);
    let handovers = counter("crowdfill_reactor_handovers");
    let at_home: Vec<TcpConn> = (0..5)
        .map(|i| session(addr, &home[i % home.len()]))
        .collect();
    assert_eq!(counter("crowdfill_reactor_handovers"), handovers);
    let away: Vec<TcpConn> = (0..7)
        .map(|i| session(addr, &foreign[i % foreign.len()]))
        .collect();
    assert_eq!(counter("crowdfill_reactor_handovers"), handovers + 7);
    drop((at_home, away));
    let mut workers = [
        RemoteWorker::connect_to(addr, &foreign[0]).unwrap(),
        RemoteWorker::connect_to(addr, &foreign[0]).unwrap(),
    ];
    assert_eq!(counter("crowdfill_reactor_handovers"), handovers + 9);
    settle();
    let visits = |shard: usize| counter(&format!("crowdfill_reactor_shard_{shard}_conn_visits"));
    let before = [visits(0), visits(1)];
    for i in 0..10 {
        for (w, worker) in workers.iter_mut().enumerate() {
            fill(worker, &format!("player-{w}-{i}"));
        }
    }
    let mut after = [visits(0) - before[0], visits(1) - before[1]];
    after.sort();
    assert_eq!(after[0], 0, "both shards served the collection: {after:?}");
    assert!(after[1] >= 20, "20 fills in {} visits?", after[1]);
    workers.into_iter().for_each(RemoteWorker::bye);
    service.stop();
}

/// (iii) Every wake source, alone, unblocks a blocked shard. No timers are
/// armed on the first service, so before each row its shards are blocked
/// with no timeout; the periodic source gets a service of its own, with
/// nothing else that could wake it.
#[test]
fn every_wake_source_unblocks_a_blocked_shard() {
    let _turn = take_turn();
    let service = two_owners(8);
    let addr = service.addr();
    let (home, foreign) = home_and_foreign(addr);

    // The listener is readable (and the first request bytes arrive): the
    // handshake is answered only if the connection woke the acceptor —
    // and, on a collection it does not own, only if the hand-over woke the
    // owner.
    settle();
    let handovers = counter("crowdfill_reactor_handovers");
    let watcher = within(WATCHDOG, "listener", move || session(addr, &home[0]));
    drop(watcher);
    let (first, second) = (foreign[0].clone(), foreign[0].clone());
    let watcher = within(WATCHDOG, "listener or hand-over", move || {
        session(addr, &first)
    });
    let mut worker = within(WATCHDOG, "listener or hand-over", move || {
        RemoteWorker::connect_to(addr, &second).unwrap()
    });
    assert_eq!(counter("crowdfill_reactor_handovers"), handovers + 2);

    // Request bytes arrive on an established, idle connection.
    settle();
    let snapshot = within(WATCHDOG, "request bytes", move || {
        let snapshot = worker.stats().unwrap();
        (worker, snapshot)
    });
    let (worker, snapshot) = snapshot;
    assert!(snapshot.contains("crowdfill_reactor_wakeups"));

    // An off-shard close: disconnect_all pushes one `Wake::CloseAll` per
    // shard; the owner must wake and retire its sessions.
    settle();
    let disconnects = counter("crowdfill_server_disconnects");
    assert_eq!(service.disconnect_all(), 2);
    within(WATCHDOG, "disconnect_all", move || {
        recv_until_closed(&watcher);
        while counter("crowdfill_server_disconnects") < disconnects + 2 {
            std::thread::sleep(Duration::from_millis(5));
        }
    });
    drop(worker);

    // stop() with 64 idle connections: one wake per shard, and the port
    // is closed when it returns.
    let idle: Vec<TcpConn> = (0..64)
        .map(|i| session(addr, &format!("c{}", i % 8)))
        .collect();
    settle();
    let took = within(WATCHDOG, "stop", move || {
        let start = Instant::now();
        service.stop();
        start.elapsed()
    });
    assert!(took < Duration::from_millis(250), "stop took {took:?}");
    assert!(TcpStream::connect(addr).is_err(), "still listening");
    drop(idle);

    // A maintenance tick: nobody is connected, and the durability tick of
    // a collection with storage is all that can end a wait (the progress
    // tick has its own test: it needs a policy).
    let dir = std::env::temp_dir().join(format!("crowdfill-wake-tick-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durability = DurabilityOptions {
        fsync: FsyncPolicy::OsOnly,
        ..DurabilityOptions::default()
    };
    let backend = persist::open_or_recover(config(4), &dir, &durability).unwrap();
    let swept = ServiceOptions {
        durability: DurabilitySweepOptions {
            interval: Duration::from_millis(20),
            ..DurabilitySweepOptions::default()
        },
        ..two_shards()
    };
    let service = TcpService::start_with(backend, "127.0.0.1:0", swept).unwrap();
    let before = wakeups();
    within(WATCHDOG, "Due::Durability", move || {
        while wakeups() < before + 3 {
            std::thread::sleep(Duration::from_millis(5));
        }
    });
    service.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

/// Stop means stopped, ticks included: a tick that is overdue when `stop`
/// raises the flag does not run. The shard is held up inside a handshake
/// (the test holds the backend's lock) until the durability tick — which
/// would compact this journal on sight — is long overdue and `stop` has
/// been called; released, it finds the flag before it looks at its
/// deadlines.
#[test]
fn stop_with_a_tick_overdue_joins_without_running_it() {
    let _turn = take_turn();
    let dir = std::env::temp_dir().join(format!("crowdfill-wake-stop-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durability = DurabilityOptions {
        fsync: FsyncPolicy::OsOnly,
        ..DurabilityOptions::default()
    };
    let mut backend = persist::open_or_recover(config(4), &dir, &durability).unwrap();
    let (id, client_id, history) = backend.connect(Millis(0));
    let mut client = WorkerClient::new(id, client_id, backend.config().schema.clone(), &history);
    let row = client.replica().table().row_ids().min().unwrap();
    for out in client.fill(row, ColumnId(0), Value::text("Messi")).unwrap() {
        let journaled = backend.submit(id, out.msg, Millis(1), out.auto_upvote);
        journaled.expect("a fill to journal");
    }
    let journaled = backend.wal_bytes();
    assert!(journaled > 0 && backend.history_base() == 0);

    let interval = Duration::from_millis(200);
    let options = ServiceOptions {
        durability: DurabilitySweepOptions {
            interval,
            compact_wal_bytes: 1,
        },
        ..two_shards()
    };
    let service = TcpService::start_with(backend, "127.0.0.1:0", options).unwrap();
    let backend = service.backend();
    let held = backend.lock();
    let mut stuck = TcpStream::connect(service.addr()).unwrap();
    send_frame(&mut stuck, Request::Hello(None).encode().as_bytes());
    std::thread::sleep(interval * 2);
    let stopping = std::thread::spawn(move || service.stop());
    // `stop` raises the flag first thing; the shard is let go well after.
    std::thread::sleep(interval);
    assert!(
        !stopping.is_finished(),
        "stop returned with a shard held up"
    );
    drop(held);
    within(WATCHDOG, "stop", move || stopping.join().unwrap());
    let b = backend.lock();
    // The handshake went through (and journaled its session); the
    // compaction that would have emptied the journal did not.
    assert!(
        b.history_base() == 0 && b.wal_bytes() >= journaled,
        "the tick ran"
    );
    drop(b);
    assert_eq!(Arc::strong_count(&backend), 1);
    let _ = std::fs::remove_dir_all(&dir);
}

/// (iv) Eviction is a deadline of the shard's own: the delivery that turns
/// the session lagging starts the clock, and `evict_after` later the wait's
/// timeout does the rest. The stalled session reads nothing, so big fills
/// back up its socket and then its one-frame writer; the fill that finds the
/// writer full downgrades it, nothing is sent after that, and so the
/// eviction deadline is the only thing that can wake the shard.
#[test]
fn eviction_deadline_unblocks_the_shard() {
    let _turn = take_turn();
    let options = ServiceOptions {
        overload: OverloadOptions {
            write_buffer_frames: 1,
            evict_after: Duration::from_millis(50),
            ..OverloadOptions::default()
        },
        ..two_shards()
    };
    let service =
        TcpService::start_with(Backend::new(config(256)), "127.0.0.1:0", options).unwrap();
    let addr = service.addr();
    let stalled = session(addr, "default");
    let mut worker = RemoteWorker::connect(addr).unwrap();
    let evictions = counter("crowdfill_server_evictions");
    let downgrades = counter("crowdfill_server_lag_downgrades");
    let cell = "x".repeat(64 * 1024);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut n = 0;
    while counter("crowdfill_server_lag_downgrades") == downgrades {
        assert!(Instant::now() < deadline, "no downgrade after {n} fills");
        fill(&mut worker, &format!("player-{n}-{cell}"));
        n += 1;
    }
    within(WATCHDOG, "eviction", move || recv_until_closed(&stalled));
    assert_eq!(counter("crowdfill_server_evictions"), evictions + 1);
    worker.bye();
    service.stop();
}

/// (iv) A socket that never says `hello` is not held forever: its
/// handshake has `evict_after` from the accept, on the shard's own clock —
/// half a length prefix and then silence, and nothing else connected, so
/// the deadline is the only thing that can wake the shard. (That a `hello`
/// in time voids the deadline is the core's rule, tested in `shard.rs`.)
#[test]
fn a_silent_handshake_is_evicted_on_the_shards_deadline() {
    let _turn = take_turn();
    let evict_after = Duration::from_millis(300);
    let options = ServiceOptions {
        overload: OverloadOptions {
            evict_after,
            ..OverloadOptions::default()
        },
        ..two_shards()
    };
    let service = TcpService::start_with(Backend::new(config(4)), "127.0.0.1:0", options).unwrap();
    let addr = service.addr();
    let evictions = counter("crowdfill_server_evictions");
    let closed_after = within(WATCHDOG, "handshake eviction", move || {
        let start = Instant::now();
        let mut silent = TcpStream::connect(addr).unwrap();
        silent.write_all(&[0, 0]).unwrap();
        let end = silent.read(&mut [0u8; 1]);
        assert!(matches!(end, Ok(0) | Err(_)), "answered: {end:?}");
        start.elapsed()
    });
    assert!(
        closed_after >= evict_after,
        "closed early: {closed_after:?}"
    );
    assert_eq!(counter("crowdfill_server_evictions"), evictions + 1);
    service.stop();
}

/// (iv) Deadlines come from the wait's timeout, not from traffic: an idle
/// timeout fires on a service nobody talks to.
#[test]
fn idle_timeout_fires_on_a_silent_service() {
    let _turn = take_turn();
    let options = ServiceOptions {
        idle_timeout: Some(Duration::from_millis(150)),
        ..two_shards()
    };
    let service = TcpService::start_with(Backend::new(config(4)), "127.0.0.1:0", options).unwrap();
    let addr = service.addr();
    let idle_disconnects = counter("crowdfill_server_idle_disconnects");
    let closed_after = within(WATCHDOG, "idle timeout", move || {
        // The server's idle clock starts when it reads the hello, which is
        // after this instant.
        let start = Instant::now();
        let conn = session(addr, "default");
        recv_until_closed(&conn);
        start.elapsed()
    });
    assert!(
        closed_after >= Duration::from_millis(150),
        "closed early: {closed_after:?}"
    );
    assert!(
        closed_after < Duration::from_millis(600),
        "closed late: {closed_after:?}"
    );
    assert_eq!(
        counter("crowdfill_server_idle_disconnects"),
        idle_disconnects + 1
    );
    service.stop();
}

/// (iv) A batch's fill window is a deadline of the shard's own, not a
/// thread asleep somewhere: a lone fill under `max_wait` is admitted by the
/// wake that read it and applied, broadcast and acked by the one its
/// deadline causes — two wakes, no sooner than the window.
#[test]
fn a_batch_fill_window_ends_on_the_shards_deadline() {
    let _turn = take_turn();
    let window = Duration::from_millis(40);
    let options = ServiceOptions {
        batch: BatchOptions {
            max_batch: 64,
            max_wait: window,
        },
        ..two_shards()
    };
    let service = TcpService::start_with(Backend::new(config(4)), "127.0.0.1:0", options).unwrap();
    let addr = service.addr();
    let observer = session(addr, "default");
    let mut author = RemoteWorker::connect(addr).unwrap();
    settle();
    let before = wakeups();
    // The sessions come back out: closing one is a wake of its own.
    let (took, sessions) = within(WATCHDOG, "the window's end", move || {
        let sent = Instant::now();
        fill(&mut author, "Messi");
        let frame = observer.recv().expect("broadcast");
        assert!(matches!(decoded(&frame), Reply::Msg(_)));
        (sent.elapsed(), (author, observer))
    });
    assert!(took >= window, "applied {:?} early", window - took);
    settle();
    assert_eq!(wakeups() - before, 2);
    drop(sessions);
    service.stop();
}

fn send_frame(stream: &mut TcpStream, payload: &[u8]) {
    stream
        .write_all(&(payload.len() as u32).to_be_bytes())
        .unwrap();
    stream.write_all(payload).unwrap();
}

fn read_frame(stream: &mut TcpStream) -> Vec<u8> {
    let mut header = [0u8; 4];
    stream.read_exact(&mut header).unwrap();
    let mut payload = vec![0u8; u32::from_be_bytes(header) as usize];
    stream.read_exact(&mut payload).unwrap();
    payload
}

/// (v) Write interest follows the writer: replies that exceed what the
/// socket takes are finished when the client finally reads (`EPOLLOUT`
/// armed while the writer holds bytes), and neither the stall nor the
/// drained connection afterwards spins the shard (`EPOLLOUT` dropped once
/// the writer is empty; a full socket is not "writable").
#[test]
fn write_interest_is_armed_only_while_the_writer_is_full() {
    let _turn = take_turn();
    let service =
        TcpService::start_with(Backend::new(config(32)), "127.0.0.1:0", two_shards()).unwrap();
    let addr = service.addr();
    // 32 fills of 65,000 bytes: a history of about 2 MB.
    let mut worker = RemoteWorker::connect(addr).unwrap();
    for i in 0..32 {
        fill(&mut worker, &format!("{i:-<65000}"));
    }
    worker.bye();

    // A client without a reader thread: what it does not read stays in
    // the socket. Eight pipelined syncs ask for 16 MB; loopback buffers
    // (tcp_wmem + tcp_rmem defaults) hold about a quarter of that.
    let mut client = TcpStream::connect(addr).unwrap();
    send_frame(&mut client, Request::Hello(None).encode().as_bytes());
    let welcome = read_frame(&mut client);
    assert!(welcome.len() > 2_000_000);
    const SYNCS: usize = 8;
    for _ in 0..SYNCS {
        let full = Request::Sync(Cursor::default());
        send_frame(&mut client, full.encode().as_bytes());
    }
    std::thread::sleep(Duration::from_millis(50)); // served, socket full
    let before = wakeups();
    std::thread::sleep(Duration::from_millis(200));
    let stalled = wakeups() - before;
    assert!(stalled < 50, "{stalled} wakeups while the reader stalled");

    let replies = within(WATCHDOG * 2, "draining the replies", move || {
        let replies: Vec<Vec<u8>> = (0..SYNCS).map(|_| read_frame(&mut client)).collect();
        (client, replies)
    });
    let (client, replies) = replies;
    for reply in &replies {
        assert!(matches!(decoded(reply), Reply::Synced(..)));
        assert_eq!(reply.len(), replies[0].len());
        assert!(reply.len() > 2_000_000);
    }

    settle();
    let before = wakeups();
    std::thread::sleep(Duration::from_millis(100));
    let drained = wakeups() - before;
    assert!(drained < 50, "{drained} wakeups on a drained connection");
    drop(client);
    service.stop();
}
