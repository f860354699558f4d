//! The deterministic overload harness: replays a seeded open-loop
//! [`Schedule`](crowdfill_sim::openloop::Schedule) against a *real*
//! [`TcpService`] and reports what the overload-protection layer did
//! (DESIGN.md §9).
//!
//! Each schedule worker runs on its own thread and connection, submitting
//! its arrivals on the schedule's wall clock — not waiting for the server
//! to be ready for them — so offered load genuinely exceeds capacity when
//! the schedule says it should. The scenario events ride along: stalled
//! readers are extra connections that hello and then never read their
//! socket; a herd disconnect forcibly drops every connection mid-run via
//! [`TcpService::disconnect_all`].
//!
//! The report carries the three acceptance properties the stress tests and
//! `BENCH_overload.json` assert:
//!
//! 1. **bounded queues** — the pipeline depth gauge never exceeded
//!    `max_queue` plus one in-flight submission per connection;
//! 2. **bounded ack latency** — p99 time-to-ack over admitted (acked)
//!    submissions;
//! 3. **zero acked loss** — every fill the server acked is present in the
//!    master table when a fresh verifier connects afterwards.

use crowdfill_model::{Column, ColumnId, DataType, QuorumMajority, RowId, Schema, Template, Value};
use crowdfill_net::{FrameConn, TcpConn};
use crowdfill_server::wire::Request;
use crowdfill_server::{
    Backend, BatchOptions, ClientCounts, OverloadOptions, ReconnectPolicy, RemoteError,
    RemoteWorker, ServiceOptions, TaskConfig, TcpService,
};
use crowdfill_sim::openloop::Schedule;
use std::sync::atomic::{AtomicBool, AtomicI64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Harness configuration: the service under stress and the client budget.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Rows in the collection (the template cardinality); sized so the
    /// schedule cannot run out of empty rows to anchor fills in.
    pub rows: usize,
    /// The overload knobs under test.
    pub overload: OverloadOptions,
    /// The batch pipeline configuration.
    pub batch: BatchOptions,
    /// Per-client reconnect/retry budget (also the overload retry budget).
    pub max_attempts: u32,
    /// Bytes of padding on every row anchor. A row's later cells repeat
    /// its anchor, so every message about the row carries about this much
    /// per filled cell; 0 keeps messages small.
    pub anchor_padding: usize,
}

impl HarnessOptions {
    /// A deliberately tiny server — `max_queue` far below the schedule's
    /// concurrency — so a modest storm is 4x+ the admission bound.
    pub fn tiny(workers: usize, ops_per_worker: usize) -> HarnessOptions {
        HarnessOptions {
            rows: workers * ops_per_worker + workers,
            overload: OverloadOptions {
                max_queue: 8,
                spec_queue: 2,
                shed_after: Duration::from_millis(250),
                retry_after_base: Duration::from_millis(5),
                write_buffer_frames: 8,
                evict_after: Duration::from_millis(150),
            },
            batch: BatchOptions {
                max_batch: 16,
                max_wait: Duration::from_millis(2),
            },
            max_attempts: 8,
            anchor_padding: 0,
        }
    }

    /// [`tiny`](Self::tiny) for the stalled-reader storm: a seat watermark
    /// of 4 frames, eviction 50 ms after the downgrade, and anchors padded
    /// so that what fans out to each stalled reader is more than twice what
    /// a loopback socket buffers for a peer that reads nothing (≈ 4.2 MB on
    /// Linux with the default `tcp_wmem` maximum of 4 MB). A row of three
    /// cells is four messages of 1, 2, 3 and 3 anchors (three fills and
    /// the completing fill's auto-upvote), so `w × o` fills carry about
    /// `3 × w × o` anchors: 192 × 64 KB ≈ 12 MB for 8 workers × 8 ops.
    pub fn stalled(workers: usize, ops_per_worker: usize) -> HarnessOptions {
        let mut opts = HarnessOptions::tiny(workers, ops_per_worker);
        opts.overload.write_buffer_frames = 4;
        opts.overload.evict_after = Duration::from_millis(50);
        opts.anchor_padding = 64 * 1024;
        opts
    }
}

/// One acked fill: the row anchor (the unique text acked into column 0),
/// the column, and the value the server acknowledged.
#[derive(Debug, Clone)]
struct AckedCell {
    anchor: String,
    column: ColumnId,
    value: Value,
}

/// What one scenario run did, in the terms the acceptance gate asserts.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    pub scenario: String,
    pub seed: u64,
    /// Scheduled submissions (open-loop offered load).
    pub offered: usize,
    /// Fills the server acked (and therefore guarantees).
    pub acked: usize,
    /// Fills the client gave up on after its overload retry budget.
    pub overload_give_ups: usize,
    /// Rejections/op conflicts (e.g. two workers anchoring one row) and
    /// arrivals skipped for want of an empty row — acceptable outcomes.
    pub op_failures: usize,
    /// Connection-level failures that exhausted the reconnect budget.
    pub fatal: usize,
    /// Highest pipeline queue depth the sampler saw.
    pub max_queue_depth: i64,
    /// The depth the run must not have exceeded (`max_queue` + one
    /// in-flight submission per connection, from the conservative
    /// admission pre-increment).
    pub queue_bound: i64,
    /// Server-side overload counters over the run.
    pub admission_rejects: u64,
    pub sheds: u64,
    pub lag_downgrades: u64,
    pub evictions: u64,
    /// Client-side overload backoffs taken, and sessions resumed.
    pub client_backoffs: u64,
    pub client_resumes: u64,
    /// p99 of client-observed time-to-ack over acked fills, ms.
    pub p99_ack_ms: u64,
    /// Acked fills missing from the master at verification. MUST be 0.
    pub acked_lost: usize,
}

impl ScenarioReport {
    /// One JSON line for `BENCH_overload.json`.
    pub fn json_line(&self) -> String {
        format!(
            "    {{\"name\": \"{}/seed={}\", \"offered\": {}, \"acked\": {}, \"overload_give_ups\": {}, \
             \"op_failures\": {}, \"max_queue_depth\": {}, \"queue_bound\": {}, \
             \"admission_rejects\": {}, \"sheds\": {}, \"lag_downgrades\": {}, \"evictions\": {}, \
             \"client_backoffs\": {}, \"p99_ack_ms\": {}, \"acked_lost\": {}}}",
            self.scenario,
            self.seed,
            self.offered,
            self.acked,
            self.overload_give_ups,
            self.op_failures,
            self.max_queue_depth,
            self.queue_bound,
            self.admission_rejects,
            self.sheds,
            self.lag_downgrades,
            self.evictions,
            self.client_backoffs,
            self.p99_ack_ms,
            self.acked_lost
        )
    }

    /// The invariants every scenario must satisfy, as a checkable result
    /// so callers can attach diagnostics before failing. Latency is
    /// asserted by the caller (it knows the scenario's budget); loss and
    /// queue bounds are universal.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.acked_lost != 0 {
            return Err(format!(
                "{}/seed={}: {} acked submissions missing from master",
                self.scenario, self.seed, self.acked_lost
            ));
        }
        if self.max_queue_depth > self.queue_bound {
            return Err(format!(
                "{}/seed={}: queue depth {} exceeded bound {}",
                self.scenario, self.seed, self.max_queue_depth, self.queue_bound
            ));
        }
        if self.fatal != 0 {
            return Err(format!(
                "{}/seed={}: {} workers exhausted their reconnect budget",
                self.scenario, self.seed, self.fatal
            ));
        }
        let outcomes = self.acked + self.overload_give_ups + self.op_failures;
        if outcomes != self.offered {
            return Err(format!(
                "{}/seed={}: outcomes {} != offered {}",
                self.scenario, self.seed, outcomes, self.offered
            ));
        }
        Ok(())
    }

    /// [`check_invariants`](Self::check_invariants), panicking on
    /// violation. When the flight recorder holds events for this run, they
    /// are dumped to a file first and the panic message names the path —
    /// the failing seed's op timeline survives the process.
    pub fn assert_invariants(&self) {
        if let Err(msg) = self.check_invariants() {
            let label = format!("overload-{}-seed{}", self.scenario, self.seed);
            match crowdfill_obs::trace::dump_flight_record(&label) {
                Some(path) => panic!("{msg}\nflight record dumped to {}", path.display()),
                None => panic!("{msg}"),
            }
        }
    }
}

fn harness_config(rows: usize) -> TaskConfig {
    let schema = Arc::new(
        Schema::new(
            "StressRow",
            vec![
                Column::new("anchor", DataType::Text),
                Column::new("alpha", DataType::Text),
                Column::new("beta", DataType::Text),
            ],
            &["anchor"],
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

fn plain_dialer(addr: std::net::SocketAddr) -> crowdfill_server::Dialer {
    Box::new(move |_attempt| TcpConn::connect(addr).map(|c| Box::new(c) as Box<dyn FrameConn>))
}

fn policy(seed: u64, max_attempts: u32) -> ReconnectPolicy {
    ReconnectPolicy {
        max_attempts,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(30),
        ack_timeout: Duration::from_millis(1500),
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

/// Per-worker outcome tally plus the acked cells to verify.
#[derive(Default)]
struct WorkerOutcome {
    acked: Vec<AckedCell>,
    ack_latencies_ms: Vec<u64>,
    overload_give_ups: usize,
    op_failures: usize,
    fatal: usize,
    /// What the client's session went through.
    client: ClientCounts,
}

/// Replays one worker's arrivals: anchor a fresh row (unique text into
/// column 0), then fill its remaining columns, one cell per arrival.
fn run_worker(
    addr: std::net::SocketAddr,
    schedule: &Schedule,
    worker_ix: usize,
    start: Instant,
    opts: &HarnessOptions,
) -> WorkerOutcome {
    let mut out = WorkerOutcome::default();
    let seed = schedule.seed ^ (worker_ix as u64).wrapping_mul(0x9E37_79B9);
    let mut w =
        match RemoteWorker::connect_with(plain_dialer(addr), policy(seed, opts.max_attempts)) {
            Ok(w) => w,
            Err(_) => {
                out.fatal = schedule.for_worker(worker_ix).count();
                return out;
            }
        };

    // (anchor text, row) of the row currently being filled, plus the next
    // column due; `None` means the next arrival anchors a fresh row.
    let mut current: Option<(String, RowId)> = None;
    let mut next_col: u16 = 1;
    let mut anchored = 0usize;

    for arrival in schedule.for_worker(worker_ix) {
        let due = start + Duration::from_millis(arrival.at_ms);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        w.absorb_pending();

        let began = Instant::now();
        let result = match &current {
            None => {
                // Anchor: claim a presented row whose anchor column is
                // still empty in our view (others may have part-filled
                // rows that are presented for completion).
                let row = w.view().presented_rows().iter().copied().find(|r| {
                    w.view()
                        .replica()
                        .table()
                        .get(*r)
                        .is_none_or(|e| !e.value.has(ColumnId(0)))
                });
                let Some(row) = row else {
                    out.op_failures += 1;
                    continue;
                };
                let anchor = format!(
                    "w{worker_ix}-r{anchored}{}",
                    "~".repeat(opts.anchor_padding)
                );
                anchored += 1;
                let val = Value::text(anchor.clone());
                let r = if arrival.speculative {
                    w.fill_speculative(row, ColumnId(0), val)
                } else {
                    w.fill(row, ColumnId(0), val)
                };
                if r.is_ok() {
                    out.acked.push(AckedCell {
                        anchor: anchor.clone(),
                        column: ColumnId(0),
                        value: Value::text(anchor.clone()),
                    });
                    current = Some((anchor, row));
                    next_col = 1;
                }
                r
            }
            Some((anchor, _)) => {
                // A resync (rejection, reconnect) may have rebuilt the
                // replica; re-find the anchored row by its unique value.
                let Some(row) = find_row_with(&w, ColumnId(0), &Value::text(anchor.clone())) else {
                    current = None;
                    out.op_failures += 1;
                    continue;
                };
                let anchor = anchor.clone();
                let col = ColumnId(next_col);
                let val = Value::text(format!("{anchor}-c{next_col}"));
                let r = if arrival.speculative {
                    w.fill_speculative(row, col, val.clone())
                } else {
                    w.fill(row, col, val.clone())
                };
                if r.is_ok() {
                    out.acked.push(AckedCell {
                        anchor,
                        column: col,
                        value: val,
                    });
                    next_col += 1;
                    if next_col >= 3 {
                        current = None;
                    }
                }
                r
            }
        };

        match result {
            Ok(_) => out
                .ack_latencies_ms
                .push(began.elapsed().as_millis() as u64),
            Err(RemoteError::Overloaded { .. }) => {
                // The client retracted and resynced; our row state may be
                // stale, so start fresh on the next arrival.
                current = None;
                out.overload_give_ups += 1;
            }
            Err(RemoteError::Rejected(_)) | Err(RemoteError::Op(_)) => {
                current = None;
                out.op_failures += 1;
            }
            Err(_) => {
                current = None;
                out.fatal += 1;
            }
        }
    }

    // Final catch-up so the connection parts cleanly; outcome immaterial.
    let _ = w.sync();
    out.client = w.counts();
    out
}

/// A connection that says hello and then never reads: broadcast fan-out
/// toward it fills its socket and then its writer up to the seat
/// watermark, and no further — the rest is dropped, not held in memory.
/// The connection is held open until dropped.
fn stalled_reader_conn(addr: std::net::SocketAddr) -> Option<TcpConn> {
    let conn = TcpConn::connect(addr).ok()?;
    conn.send(Request::Hello(None).encode().as_bytes()).ok()?;
    // Read the welcome only, so the session is fully registered; every
    // later broadcast is left to rot in the socket.
    conn.recv().ok()?;
    Some(conn)
}

/// Runs one schedule against a fresh service and reports what happened:
/// the service's own counts, and its clients'.
pub fn run_schedule(schedule: &Schedule, opts: &HarnessOptions) -> ScenarioReport {
    // Make sure a failing scenario has a flight record to dump: if tracing
    // is off (the default), sample 1-in-8 ops for the duration of the run.
    // Sampling is pure in the deterministically-seeded trace ids, so the
    // recorded subset is reproducible per seed.
    use crowdfill_obs::trace as obstrace;
    let mode_before = obstrace::mode();
    if mode_before == obstrace::TraceMode::Off {
        obstrace::set_mode(obstrace::TraceMode::Sampled(8));
    }
    let _restore = ModeGuard(mode_before);
    struct ModeGuard(crowdfill_obs::trace::TraceMode);
    impl Drop for ModeGuard {
        fn drop(&mut self) {
            crowdfill_obs::trace::set_mode(self.0);
        }
    }

    let backend = Backend::new(harness_config(opts.rows));
    let options = ServiceOptions {
        idle_timeout: Some(Duration::from_secs(30)),
        batch: opts.batch.clone(),
        overload: opts.overload.clone(),
        ..ServiceOptions::default()
    };
    let service = Arc::new(TcpService::start_with(backend, "127.0.0.1:0", options).unwrap());
    let addr = service.addr();

    // Queue-depth sampler: the bound is asserted on the maximum it saw.
    let sampling = Arc::new(AtomicBool::new(true));
    let max_depth = Arc::new(AtomicI64::new(0));
    let sampler = {
        let sampling = Arc::clone(&sampling);
        let max_depth = Arc::clone(&max_depth);
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            while sampling.load(Ordering::Acquire) {
                let depth = service.metrics().queue_depth.get();
                max_depth.fetch_max(depth, Ordering::AcqRel);
                std::thread::sleep(Duration::from_micros(200));
            }
        })
    };

    // Scenario events: stalled readers connect before the storm...
    let stalled: Vec<TcpConn> = (0..schedule.stalled_readers)
        .filter_map(|_| stalled_reader_conn(addr))
        .collect();
    assert_eq!(
        stalled.len(),
        schedule.stalled_readers,
        "stalled readers failed to connect"
    );
    // ...and the herd disconnect fires mid-run on its own clock.
    let start = Instant::now();
    let herd = schedule.herd_disconnect_at_ms.map(|at_ms| {
        let service = Arc::clone(&service);
        std::thread::spawn(move || {
            let due = start + Duration::from_millis(at_ms);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            service.disconnect_all()
        })
    });

    let outcomes: Vec<WorkerOutcome> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..schedule.workers)
            .map(|ix| scope.spawn(move || run_worker(addr, schedule, ix, start, opts)))
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    if let Some(h) = herd {
        let dropped = h.join().unwrap();
        assert!(dropped > 0, "herd disconnect found no connections to drop");
    }
    drop(stalled);
    sampling.store(false, Ordering::Release);
    sampler.join().unwrap();

    // Verification: a fresh replica's hello carries the full history —
    // every acked fill must be in it.
    let verifier = RemoteWorker::connect(addr).unwrap();
    let mut acked_lost = 0usize;
    let mut all_acked = 0usize;
    let mut latencies: Vec<u64> = Vec::new();
    for out in &outcomes {
        all_acked += out.acked.len();
        latencies.extend_from_slice(&out.ack_latencies_ms);
        for cell in &out.acked {
            let anchor = Value::text(cell.anchor.clone());
            let present = find_row_with(&verifier, ColumnId(0), &anchor).is_some_and(|row| {
                verifier
                    .view()
                    .replica()
                    .table()
                    .get(row)
                    .is_some_and(|e| e.value.get(cell.column) == Some(&cell.value))
            });
            if !present {
                acked_lost += 1;
            }
        }
    }
    verifier.bye();

    latencies.sort_unstable();
    let p99_ack_ms = if latencies.is_empty() {
        0
    } else {
        latencies[(latencies.len() * 99 / 100).min(latencies.len() - 1)]
    };

    let metrics = service.metrics();
    let report = ScenarioReport {
        scenario: schedule.name.to_string(),
        seed: schedule.seed,
        offered: schedule.total_ops(),
        acked: all_acked,
        overload_give_ups: outcomes.iter().map(|o| o.overload_give_ups).sum(),
        op_failures: outcomes.iter().map(|o| o.op_failures).sum(),
        fatal: outcomes.iter().map(|o| o.fatal).sum(),
        max_queue_depth: max_depth.load(Ordering::Acquire),
        queue_bound: (opts.overload.max_queue + schedule.workers) as i64,
        admission_rejects: metrics.overload_rejects.get(),
        sheds: metrics.sheds.get(),
        lag_downgrades: metrics.lag_downgrades.get(),
        evictions: metrics.evictions.get(),
        client_backoffs: outcomes.iter().map(|o| o.client.overload_backoffs).sum(),
        client_resumes: outcomes.iter().map(|o| o.client.resumes).sum(),
        p99_ack_ms,
        acked_lost,
    };

    // Gauge hygiene (DESIGN.md §11): once every connection has gone —
    // evicted stalled readers and herd-dropped sessions included — nothing
    // stays queued (an op whose session was dropped settles at its batch's
    // deadline) and, once the shards are joined, no session is owed a
    // broadcast, or `health`/`top` would show phantom load forever.
    let depth = || service.metrics().queue_depth.get();
    let deadline = Instant::now() + Duration::from_secs(5);
    while depth() != 0 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    assert_eq!(depth(), 0, "gauge hygiene: queue depth with no session");
    let backend = service.backend();
    if let Some(service) = Arc::into_inner(service) {
        service.stop();
        let outbox = backend.lock().counts().outbox_msgs;
        assert_eq!(outbox, 0, "gauge hygiene: outbox after stop");
    }
    report
}
