//! Fault-injected end-to-end tests: a worker drives the protocol through a
//! [`FaultyConn`] that drops, delays, tears, and kills frames from a seeded
//! deterministic plan, while the reconnect-and-resume layer keeps the
//! session alive. The invariant under every fault class is the paper's
//! convergence property: after a final catch-up sync, the worker's replica
//! is in the same state as the master.
//!
//! Each scenario runs over a fixed seed set; extend it without editing the
//! file via `CROWDFILL_FAULT_SEEDS=7,8,9 cargo test -p crowdfill-server`.

use crowdfill_model::{Column, ColumnId, DataType, QuorumMajority, RowId, Schema, Template, Value};
use crowdfill_net::{FaultConfig, FaultyConn, FrameConn, TcpConn};
use crowdfill_server::wire::Reply;
use crowdfill_server::{
    Backend, BatchOptions, Dialer, ReconnectPolicy, RemoteError, RemoteWorker, ServiceOptions,
    TaskConfig, TcpService,
};
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

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

fn seeds() -> Vec<u64> {
    let mut s = vec![1, 2, 3];
    if let Ok(extra) = std::env::var("CROWDFILL_FAULT_SEEDS") {
        s.extend(
            extra
                .split(',')
                .filter_map(|t| t.trim().parse::<u64>().ok()),
        );
    }
    s
}

fn faulty_dialer(addr: SocketAddr, cfg: FaultConfig) -> Dialer {
    Box::new(move |attempt| {
        TcpConn::connect(addr).map(|c| {
            Box::new(FaultyConn::new(c, cfg.reseeded(attempt as u64))) as Box<dyn FrameConn>
        })
    })
}

fn policy(seed: u64) -> ReconnectPolicy {
    ReconnectPolicy {
        max_attempts: 30,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(20),
        ack_timeout: Duration::from_millis(750),
        jitter_seed: seed,
    }
}

fn find_row_with(w: &RemoteWorker, col: ColumnId, val: &Value) -> Option<RowId> {
    w.view()
        .replica()
        .table()
        .iter()
        .find(|(_, e)| e.value.get(col) == Some(val))
        .map(|(id, _)| id)
}

/// Ok and Rejected/Op errors are all acceptable outcomes of one attempt (a
/// rejection has already triggered a full resync inside the client); only
/// an exhausted connection or a protocol violation fails the test.
fn tolerate(result: Result<crowdfill_server::RemoteAck, RemoteError>, what: &str) {
    match result {
        Ok(_)
        | Err(RemoteError::Rejected(_))
        | Err(RemoteError::Op(_))
        | Err(RemoteError::Overloaded { .. }) => {}
        Err(e) => panic!("fatal while {what}: {e}"),
    }
}

/// Fills one row completely, riding out injected faults: the value in the
/// first column anchors the row so it can be re-found after any resync.
fn fill_row(w: &mut RemoteWorker, r: usize) {
    let anchor = Value::text(format!("name-{r}"));
    let deadline = Instant::now() + Duration::from_secs(20);
    while find_row_with(w, ColumnId(0), &anchor).is_none() {
        assert!(Instant::now() < deadline, "no row to anchor fill {r}");
        let Some(start) = w.view().presented_rows().first().copied() else {
            w.absorb_pending();
            std::thread::sleep(Duration::from_millis(5));
            continue;
        };
        tolerate(w.fill(start, ColumnId(0), anchor.clone()), "anchoring");
        w.absorb_pending();
    }
    for (ci, val) in [(1u16, format!("nat-{r}")), (2u16, format!("pos-{r}"))] {
        let col = ColumnId(ci);
        loop {
            assert!(Instant::now() < deadline, "cell ({r},{ci}) never filled");
            let Some(row) = find_row_with(w, ColumnId(0), &anchor) else {
                // The anchor vanished in a resync (our fill never landed);
                // outer invariant — convergence — is still checked at the
                // end, so just stop working on this row.
                return;
            };
            let done = w
                .view()
                .replica()
                .table()
                .get(row)
                .is_some_and(|e| e.value.has(col));
            if done {
                break;
            }
            tolerate(w.fill(row, col, Value::text(val.clone())), "filling");
            w.absorb_pending();
        }
    }
}

/// One full scenario run: a faulty worker fills two rows while a clean
/// observer votes on whatever completes; both must converge to the master.
fn run_scenario(name: &str, cfg: FaultConfig) {
    let seed = cfg.seed;
    // A failing seed dumps the flight recorder (sampled op traces) to a
    // file named in the panic message, so the op timeline that led to the
    // divergence survives the process.
    crowdfill_obs::trace::dump_on_panic(&format!("fault-{name}-seed{seed}"), || {
        run_scenario_inner(name, cfg)
    })
}

fn run_scenario_inner(name: &str, cfg: FaultConfig) {
    use crowdfill_obs::trace as obstrace;
    let seed = cfg.seed;
    let mode_before = obstrace::mode();
    if mode_before == obstrace::TraceMode::Off {
        obstrace::set_mode(obstrace::TraceMode::Sampled(8));
    }
    struct ModeGuard(obstrace::TraceMode);
    impl Drop for ModeGuard {
        fn drop(&mut self) {
            obstrace::set_mode(self.0);
        }
    }
    let _restore = ModeGuard(mode_before);
    let backend = Backend::new(config(2));
    let options = ServiceOptions {
        idle_timeout: Some(Duration::from_secs(30)),
        ..ServiceOptions::default()
    };
    let service = TcpService::start_with(backend, "127.0.0.1:0", options).unwrap();
    let addr = service.addr();

    let mut w = RemoteWorker::connect_with(faulty_dialer(addr, cfg), policy(seed))
        .unwrap_or_else(|e| panic!("{name} seed {seed}: connect failed: {e}"));
    let mut observer = RemoteWorker::connect(addr).unwrap();

    for r in 0..2 {
        fill_row(&mut w, r);
    }

    // The observer votes on every complete row it can see, producing
    // broadcast traffic back toward the faulty link.
    observer.absorb_pending();
    let complete: Vec<RowId> = observer
        .view()
        .replica()
        .table()
        .iter()
        .filter(|(_, e)| e.value.len() == 3)
        .map(|(id, _)| id)
        .collect();
    for row in complete {
        tolerate(observer.upvote(row), "observer voting");
    }

    // Final catch-up: each replica asks for exactly what it is missing.
    w.sync()
        .unwrap_or_else(|e| panic!("{name} seed {seed}: final sync failed: {e}"));
    observer.sync().unwrap();

    let backend = service.backend();
    let b = backend.lock();
    assert!(b.history_len() > 0, "{name} seed {seed}: no progress made");
    assert!(
        w.view().replica().same_state(b.master()),
        "{name} seed {seed}: faulty worker diverged from master"
    );
    assert!(
        observer.view().replica().same_state(b.master()),
        "{name} seed {seed}: observer diverged from master"
    );
}

#[test]
fn converges_through_dropped_frames() {
    for seed in seeds() {
        run_scenario("drops", FaultConfig::drops(seed, 150));
    }
}

#[test]
fn converges_through_delayed_frames() {
    for seed in seeds() {
        run_scenario(
            "delays",
            FaultConfig::delays(seed, 300, Duration::from_millis(15)),
        );
    }
}

#[test]
fn converges_through_partial_writes() {
    for seed in seeds() {
        run_scenario("partial-writes", FaultConfig::partial_writes(seed, 100));
    }
}

#[test]
fn converges_through_forced_disconnects() {
    // A connection that dies every 8–25 operations cannot carry the whole
    // workload: the recovery layer MUST have resumed at least once, which
    // guards against the scenario passing trivially (faults never firing).
    let resumes = crowdfill_obs::metrics::counter("crowdfill_client_resumes");
    let before = resumes.get();
    for seed in seeds() {
        run_scenario("disconnects", FaultConfig::disconnects(seed, 8..25));
    }
    assert!(resumes.get() > before, "no session was ever resumed");
}

/// The batched-broadcast recovery property: an observer whose connection
/// dies every few frames — i.e. routinely mid-way through a multi-op
/// `batch` broadcast — must, on resume, receive exactly the missing history
/// suffix. Votes are non-idempotent, so both failure modes of an inexact
/// replay are visible in the final state: a dropped suffix leaves the
/// observer behind the master, a re-replayed one double-counts votes. The
/// fill window (`max_wait`) keeps batches multi-op so the interrupted
/// frames genuinely carry several ops.
#[test]
fn resume_replays_exact_suffix_after_mid_batch_disconnect() {
    let batch_frames = crowdfill_obs::metrics::counter("crowdfill_server_batch_broadcast_frames");
    let resumes = crowdfill_obs::metrics::counter("crowdfill_client_resumes");
    let frames_before = batch_frames.get();
    let resumes_before = resumes.get();
    for seed in seeds() {
        let backend = Backend::new(config(2));
        let options = ServiceOptions {
            idle_timeout: Some(Duration::from_secs(30)),
            batch: BatchOptions {
                max_batch: 64,
                max_wait: Duration::from_millis(10),
            },
            ..ServiceOptions::default()
        };
        let service = TcpService::start_with(backend, "127.0.0.1:0", options).unwrap();
        let addr = service.addr();

        let mut observer = RemoteWorker::connect_with(
            faulty_dialer(addr, FaultConfig::disconnects(seed, 4..12)),
            policy(seed),
        )
        .unwrap_or_else(|e| panic!("mid-batch seed {seed}: observer connect failed: {e}"));

        // Two clean workers fill concurrently so their ops coalesce inside
        // the fill window into multi-op batches — and thus multi-op
        // broadcast frames toward the flapping observer link.
        let workers: Vec<RemoteWorker> = (0..2)
            .map(|r| {
                let mut w = RemoteWorker::connect(addr).unwrap();
                std::thread::spawn(move || {
                    fill_row(&mut w, r);
                    w
                })
            })
            .collect::<Vec<_>>()
            .into_iter()
            .map(|h| h.join().unwrap())
            .collect();
        // Vote through the faulty link too: the observer's own submissions
        // ride alongside the broadcast replays it is recovering.
        observer.absorb_pending();
        let complete: Vec<RowId> = observer
            .view()
            .replica()
            .table()
            .iter()
            .filter(|(_, e)| e.value.len() == 3)
            .map(|(id, _)| id)
            .collect();
        for row in complete {
            tolerate(observer.upvote(row), "observer voting over faulty link");
        }

        observer
            .sync()
            .unwrap_or_else(|e| panic!("mid-batch seed {seed}: observer sync failed: {e}"));
        let mut workers = workers;
        for w in &mut workers {
            w.sync().unwrap();
        }

        let backend = service.backend();
        let b = backend.lock();
        assert!(
            b.history_len() > 0,
            "mid-batch seed {seed}: no progress made"
        );
        assert!(
            observer.view().replica().same_state(b.master()),
            "mid-batch seed {seed}: observer diverged (inexact suffix replay)"
        );
        for w in &workers {
            assert!(
                w.view().replica().same_state(b.master()),
                "mid-batch seed {seed}: clean worker diverged"
            );
        }
    }
    assert!(
        batch_frames.get() > frames_before,
        "no multi-op batch frame was ever broadcast"
    );
    assert!(
        resumes.get() > resumes_before,
        "no session was ever resumed mid-run"
    );
}

#[test]
fn converges_through_mixed_faults() {
    for seed in seeds() {
        let cfg = FaultConfig {
            drop_per_mille: 60,
            delay_per_mille: 60,
            max_delay: Duration::from_millis(10),
            partial_write_per_mille: 40,
            disconnect_after: Some(20..60),
            ..FaultConfig::none(seed)
        };
        run_scenario("mixed", cfg);
    }
}

// ---------------------------------------------------------------------------
// Overload scenarios (DESIGN.md §9): the robustness invariant is the same as
// for link faults — convergence — plus the overload contract: an op answered
// `Overloaded` was shed strictly before its ack, so nothing the server ever
// acked may be missing afterwards.

fn plain_dialer(addr: SocketAddr) -> Dialer {
    Box::new(move |_attempt| TcpConn::connect(addr).map(|c| Box::new(c) as Box<dyn FrameConn>))
}

/// One acked fill, remembered as (anchor value, column, cell value) so it
/// can be re-found in any replica regardless of row-id churn.
type AckedFill = (Value, ColumnId, Value);

/// Anchors one row with `tag` and fills its remaining columns, recording
/// exactly the fills the server acked. Overload give-ups and rejections
/// are tolerated — the point is what happens to the acks.
fn fill_recorded(w: &mut RemoteWorker, tag: &str, acked: &mut Vec<AckedFill>) {
    w.absorb_pending();
    let anchor = Value::text(tag);
    let row = w.view().presented_rows().iter().copied().find(|r| {
        w.view()
            .replica()
            .table()
            .get(*r)
            .is_none_or(|e| !e.value.has(ColumnId(0)))
    });
    let Some(row) = row else {
        return;
    };
    let result = w.fill(row, ColumnId(0), anchor.clone());
    if result.is_ok() {
        acked.push((anchor.clone(), ColumnId(0), anchor.clone()));
    }
    tolerate(result, "anchoring under overload");
    for c in [1u16, 2] {
        w.absorb_pending();
        let Some(row) = find_row_with(w, ColumnId(0), &anchor) else {
            return;
        };
        let val = Value::text(format!("{tag}-c{c}"));
        let result = w.fill(row, ColumnId(c), val.clone());
        if result.is_ok() {
            acked.push((anchor.clone(), ColumnId(c), val));
        }
        tolerate(result, "filling under overload");
    }
}

fn assert_acked_present(verifier: &RemoteWorker, acked: &[AckedFill], scenario: &str) {
    for (anchor, col, val) in acked {
        let present = find_row_with(verifier, ColumnId(0), anchor).is_some_and(|row| {
            verifier
                .view()
                .replica()
                .table()
                .get(row)
                .is_some_and(|e| e.value.get(*col) == Some(val))
        });
        assert!(
            present,
            "{scenario}: acked fill {anchor:?}/{col:?}={val:?} missing from master"
        );
    }
}

/// A burst of eight workers against an admission queue of two while the
/// apply thread is stalled (the backend lock is held, the deterministic
/// stand-in for a slow apply): submissions must be shed/rejected with
/// `Overloaded` rather than queued without bound, every client must ride
/// it out, and afterwards every replica converges with every acked fill
/// in place.
#[test]
fn sheds_under_burst_without_losing_acks() {
    let sheds = crowdfill_obs::metrics::counter("crowdfill_server_sheds");
    let rejects = crowdfill_obs::metrics::counter("crowdfill_server_overload_rejects");
    let turned_away_before = sheds.get() + rejects.get();

    let backend = Backend::new(config(16));
    let options = ServiceOptions {
        idle_timeout: Some(Duration::from_secs(30)),
        batch: BatchOptions {
            max_batch: 4,
            max_wait: Duration::from_millis(1),
        },
        overload: crowdfill_server::OverloadOptions {
            max_queue: 2,
            shed_after: Duration::from_millis(5),
            retry_after_base: Duration::from_millis(2),
            ..crowdfill_server::OverloadOptions::default()
        },
        ..ServiceOptions::default()
    };
    let service = TcpService::start_with(backend, "127.0.0.1:0", options).unwrap();
    let addr = service.addr();

    let backend = service.backend();
    let ready = std::sync::Barrier::new(9);
    let results: Vec<(RemoteWorker, Vec<AckedFill>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..8u64)
            .map(|k| {
                let ready = &ready;
                scope.spawn(move || {
                    let mut w = RemoteWorker::connect_with(plain_dialer(addr), policy(k)).unwrap();
                    ready.wait();
                    let mut acked = Vec::new();
                    fill_recorded(&mut w, &format!("burst-w{k}"), &mut acked);
                    (w, acked)
                })
            })
            .collect();
        // Everyone is connected; stall the apply thread through the whole
        // burst so the queue (capacity two) must turn traffic away.
        ready.wait();
        let guard = backend.lock();
        std::thread::sleep(Duration::from_millis(60));
        drop(guard);
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    assert!(
        sheds.get() + rejects.get() > turned_away_before,
        "a 4x burst against a queue of two never shed or rejected anything"
    );

    let verifier = RemoteWorker::connect(addr).unwrap();
    for (mut w, acked) in results {
        assert_acked_present(&verifier, &acked, "shed-burst");
        w.sync().unwrap();
        assert!(
            w.view().replica().same_state(backend.lock().master()),
            "shed-burst: worker diverged after overload"
        );
    }
}

/// A cell this big fills a loopback socket's buffering in a few dozen
/// broadcasts, so a reader that stops reading backs frames up into the
/// server's writer quickly.
const BIG_CELL: usize = 64 * 1024;

/// `tag`, padded with `bytes` more bytes.
fn padded(tag: &str, bytes: usize) -> String {
    format!("{tag}-{}", "x".repeat(bytes))
}

/// Bytes the kernel can hold between the server's writer and a loopback
/// reader that reads nothing: the sender's buffer grown to its maximum
/// (`tcp_wmem`) plus the receiver's initial one (`tcp_rmem`, which grows
/// only as the application reads). 4 MB + 128 KB where the files are not
/// readable.
fn socket_buffering() -> usize {
    let field = |file: &str, i: usize, default: usize| {
        std::fs::read_to_string(format!("/proc/sys/net/ipv4/{file}"))
            .ok()
            .and_then(|t| t.split_whitespace().nth(i)?.parse().ok())
            .unwrap_or(default)
    };
    field("tcp_wmem", 2, 4 << 20) + field("tcp_rmem", 1, 128 << 10)
}

/// Whether `worker` still has a connection the server counts as its own.
fn connected(service: &TcpService, worker: crowdfill_pay::WorkerId) -> bool {
    service
        .backend()
        .lock()
        .connected_workers()
        .contains(&worker)
}

/// Fills the first column of some still-empty row with `value`; whether
/// the fill lands is not this helper's concern.
fn fill_first_empty(w: &mut RemoteWorker, value: String) {
    w.absorb_pending();
    let view = w.view();
    let table = view.replica().table();
    let row = view
        .presented_rows()
        .iter()
        .copied()
        .find(|r| table.get(*r).is_none_or(|e| !e.value.has(ColumnId(0))))
        .expect("an empty row");
    tolerate(w.fill(row, ColumnId(0), Value::text(value)), "filling");
}

/// A reader that stops draining its connection is downgraded to lagging
/// (its socket and then its writer fill up, broadcasts are dropped and
/// owed via sync) and then evicted; on its next sync it reconnects,
/// resumes, and converges — with every fill the server acked along the
/// way still present.
#[test]
fn slow_client_is_evicted_then_resumes_and_converges() {
    let backend = Backend::new(config(64));
    let options = ServiceOptions {
        idle_timeout: Some(Duration::from_secs(30)),
        overload: crowdfill_server::OverloadOptions {
            write_buffer_frames: 2,
            evict_after: Duration::from_millis(30),
            ..crowdfill_server::OverloadOptions::default()
        },
        ..ServiceOptions::default()
    };
    let service = TcpService::start_with(backend, "127.0.0.1:0", options).unwrap();
    let addr = service.addr();

    // The observer connects and then never reads a frame; its dialer
    // counts the connections it makes.
    let dials = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let counted = Arc::clone(&dials);
    let dialer: Dialer = Box::new(move |_attempt| {
        counted.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        TcpConn::connect(addr).map(|c| Box::new(c) as Box<dyn FrameConn>)
    });
    let mut observer = RemoteWorker::connect_with(dialer, policy(1)).unwrap();
    // The filler keeps big broadcasts flowing until the observer's socket
    // and writer are full and the server has dropped its connection — the
    // only way an open session with a 30 s idle timeout loses it here is
    // the lagging downgrade's eviction.
    let mut filler = RemoteWorker::connect_with(plain_dialer(addr), policy(2)).unwrap();
    let mut acked = Vec::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut n = 0;
    while connected(&service, observer.worker()) {
        assert!(
            Instant::now() < deadline,
            "no eviction after {n} rounds of {BIG_CELL}-byte fills"
        );
        let tag = padded(&format!("slow-{n}"), BIG_CELL);
        fill_recorded(&mut filler, &tag, &mut acked);
        n += 1;
    }
    assert!(!acked.is_empty(), "filler never landed a fill");

    // The evicted observer heals on its next sync: reconnect, resume,
    // replay exactly the missed suffix.
    observer.sync().unwrap();
    filler.sync().unwrap();
    assert_eq!(
        dials.load(std::sync::atomic::Ordering::SeqCst),
        2,
        "the observer did not reconnect"
    );
    let backend = service.backend();
    let b = backend.lock();
    assert!(
        observer.view().replica().same_state(b.master()),
        "evicted observer failed to converge after resume"
    );
    assert!(
        filler.view().replica().same_state(b.master()),
        "filler diverged during eviction churn"
    );
    drop(b);
    let verifier = RemoteWorker::connect(addr).unwrap();
    assert_acked_present(&verifier, &acked, "slow-client");
}

/// The slow-reader bound holds under the defaults, with no lever: a reader
/// that takes its `welcome` and then reads nothing, while another worker
/// makes more big fills than the socket and a full writer can hold, is
/// downgraded to lagging. When it drains its socket at last it finds the
/// `lagging` note, and fewer broadcasts than there were fills. (The
/// process-global `crowdfill_server_lag_downgrades` would say the same, but
/// the other tests of this binary move it concurrently; the connection's
/// own frames do not move.)
#[test]
fn a_reader_that_never_reads_is_bounded_under_default_options() {
    let options = ServiceOptions::default();
    let watermark = options.overload.write_buffer_frames;
    // Twice what the kernel can hold, on top of a full writer.
    let fills = watermark + 2 * socket_buffering() / BIG_CELL;
    let backend = Backend::new(config(fills + 8));
    let service = TcpService::start_with(backend, "127.0.0.1:0", options).unwrap();
    let addr = service.addr();

    let observer = TcpConn::connect(addr).unwrap();
    let hello = crowdfill_server::wire::Request::Hello(None);
    observer.send(hello.encode().as_bytes()).unwrap();
    observer.recv().expect("welcome");

    let mut filler = RemoteWorker::connect(addr).unwrap();
    for n in 0..fills {
        fill_first_empty(&mut filler, padded(&format!("stalled-{n}"), BIG_CELL));
    }

    let (mut broadcasts, mut lagging) = (0, false);
    loop {
        match observer.recv_timeout(Duration::from_millis(500)) {
            Ok(frame) => {
                let json = crowdfill_server::wire::parse_frame(&frame).unwrap();
                match Reply::decode(&json).unwrap() {
                    Reply::Msg(_) => broadcasts += 1,
                    Reply::Batch(msgs) => broadcasts += msgs.len(),
                    Reply::Lagging => lagging = true,
                    _ => {}
                }
            }
            Err(crowdfill_net::ConnError::Empty) => break,
            Err(e) => panic!("the observer's connection failed while draining: {e}"),
        }
    }
    assert!(
        lagging,
        "no lagging note after {fills} fills ({broadcasts} broadcasts delivered)"
    );
    assert!(
        broadcasts < fills,
        "all {broadcasts} broadcasts were buffered for a reader that read nothing"
    );
    filler.bye();
    service.stop();
}
