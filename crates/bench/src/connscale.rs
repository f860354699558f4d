//! Connection-scale harness: thousands of lean wire-level sessions across
//! many collections.
//!
//! The overload harness ([`crate::overload`]) drives full [`RemoteWorker`]
//! clients — a replica, a reconnect policy, and a reader thread per worker —
//! which tops out around a few hundred concurrent connections per process.
//! This harness asks the opposite question: how many *connections* can one
//! service carry? It keeps each session to the bare wire minimum (one
//! nonblocking socket, a [`FrameReader`]/[`FrameWriter`] pair, and a few
//! counters) and sweeps them from a small pool of driver threads. 10k
//! sessions cost 10k sockets and ~10 threads on both ends combined.
//!
//! Each session follows the deterministic [`conn_scale`] open-loop plan:
//! connect at its scheduled offset, `hello` into its collection, then submit
//! `fills_per_worker` anchor fills — hand-minted `replace` messages that
//! claim a template row unique to the (session, fill) pair, so the server's
//! stale-fill policy never rejects two drivers racing for one row — with at
//! most one op in flight per connection. Broadcast frames are drained and
//! discarded; `overloaded` hints are honored with the server's own
//! `retry_after_ms`.
//!
//! The report carries the scale headline (peak concurrent connections, acked
//! ops, ack p50/p99) plus the two gate invariants:
//!
//! * **zero acked-op loss** — every `ack` the drivers recorded corresponds
//!   to a replace in the server's durable history
//!   ([`verify_zero_acked_loss`] / [`verify_zero_acked_loss_remote`]);
//! * **fairness** — per-collection ack latency must stay within a bounded
//!   spread of the best-served collection ([`ConnScaleReport::fairness_spread`]).
//!
//! [`RemoteWorker`]: crowdfill_server::RemoteWorker
//! [`conn_scale`]: crowdfill_sim::openloop::conn_scale

use crowdfill_docstore::Json;
use crowdfill_model::{
    ClientId, Column, ColumnId, DataType, Message, QuorumMajority, RowId, RowValue, Schema,
    Template, Value,
};
use crowdfill_net::nonblocking::{FrameReader, FrameWriter};
use crowdfill_net::ConnError;
use crowdfill_server::wire;
use crowdfill_server::{Backend, ServiceOptions, TaskConfig, TcpService};
use crowdfill_sim::openloop::{conn_scale, SessionPlan};
use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Where the service under test lives.
#[derive(Debug, Clone)]
pub enum ConnScaleMode {
    /// Start a [`TcpService`] inside this process. Verification reads the
    /// backends directly.
    InProcess,
    /// Drive an already-listening server (see the `connscale-server` bin) —
    /// the shape the 10k-connection scenario needs, since driver and server
    /// each spend one file descriptor per session. Verification replays the
    /// history over a fresh wire connection per collection.
    External(SocketAddr),
}

/// One connection-scale scenario.
#[derive(Debug, Clone)]
pub struct ConnScaleOptions {
    /// Scenario label (reports, flight-record dumps).
    pub name: &'static str,
    /// Seed for the open-loop plan.
    pub seed: u64,
    /// Collections multiplexed over the one port.
    pub collections: usize,
    /// Total sessions (spread round-robin over the collections).
    pub workers: usize,
    /// Fills each session submits.
    pub fills_per_worker: usize,
    /// Connect times are spread uniformly over this window.
    pub connect_window_ms: u64,
    /// Fill send times are spread over `[connect, duration_ms)`.
    pub duration_ms: u64,
    /// Hard wall-clock cap on the whole run; sessions still unfinished
    /// when it expires are counted in `timed_out_sessions`.
    pub deadline: Duration,
    /// Driver threads sweeping the sessions.
    pub driver_threads: usize,
    /// In-process service or external address.
    pub mode: ConnScaleMode,
}

impl ConnScaleOptions {
    /// The standard smoke shape: `workers` sessions over `collections`
    /// collections against an in-process reactor service.
    pub fn smoke(seed: u64, collections: usize, workers: usize) -> ConnScaleOptions {
        ConnScaleOptions {
            name: "smoke",
            seed,
            collections,
            workers,
            fills_per_worker: 2,
            connect_window_ms: 2_000,
            duration_ms: 4_000,
            deadline: Duration::from_secs(120),
            driver_threads: 4,
            mode: ConnScaleMode::InProcess,
        }
    }

    fn expected_fills(&self) -> usize {
        self.workers * self.fills_per_worker
    }
}

/// Per-collection outcome lane.
#[derive(Debug, Clone)]
pub struct CollectionLane {
    pub name: String,
    /// Sessions attached to this collection.
    pub sessions: usize,
    /// Fills the plan scheduled for this collection.
    pub expected: usize,
    /// Fills acked by the server.
    pub acked: usize,
    /// Client ids the server assigned to this collection's sessions
    /// (the key for the history audit).
    pub clients: HashSet<u32>,
    pub ack_p50_ns: u64,
    pub ack_p99_ns: u64,
}

/// Outcome of one connection-scale run.
#[derive(Debug, Clone)]
pub struct ConnScaleReport {
    pub name: String,
    pub seed: u64,
    pub conns: usize,
    pub collections: usize,
    pub expected_fills: usize,
    /// Fills acked across all collections.
    pub acked: usize,
    /// Fills the server rejected (policy, not overload).
    pub rejected: usize,
    /// `overloaded` retry hints honored.
    pub backoffs: usize,
    /// Sessions that failed to connect or died mid-run.
    pub conn_failures: usize,
    /// Sessions still unfinished at the deadline.
    pub timed_out_sessions: usize,
    /// High-water mark of concurrently-open driver connections.
    pub peak_concurrent: usize,
    pub elapsed: Duration,
    pub ack_p50_ns: u64,
    pub ack_p99_ns: u64,
    /// Reactor fairness deferrals observed during the run.
    pub fairness_deferrals: u64,
    pub lanes: Vec<CollectionLane>,
}

impl ConnScaleReport {
    /// Max/min ratio of per-collection ack p99 — 1.0 is perfectly fair.
    /// Collections with no acks make the spread infinite.
    pub fn fairness_spread(&self) -> f64 {
        let mut lo = u64::MAX;
        let mut hi = 0u64;
        for lane in &self.lanes {
            if lane.acked == 0 {
                return f64::INFINITY;
            }
            lo = lo.min(lane.ack_p99_ns.max(1));
            hi = hi.max(lane.ack_p99_ns.max(1));
        }
        if lo == u64::MAX {
            return f64::INFINITY;
        }
        hi as f64 / lo as f64
    }

    /// The run-level invariants every gate asserts: every scheduled fill
    /// acked, no sessions lost or timed out, fairness spread bounded.
    pub fn check_invariants(&self, max_spread: f64) -> Result<(), String> {
        if self.conn_failures != 0 {
            return Err(format!(
                "{}/seed={}: {} sessions failed to connect or died",
                self.name, self.seed, self.conn_failures
            ));
        }
        if self.timed_out_sessions != 0 {
            return Err(format!(
                "{}/seed={}: {} sessions unfinished at the deadline",
                self.name, self.seed, self.timed_out_sessions
            ));
        }
        if self.acked + self.rejected != self.expected_fills {
            return Err(format!(
                "{}/seed={}: acked {} + rejected {} != scheduled {}",
                self.name, self.seed, self.acked, self.rejected, self.expected_fills
            ));
        }
        if self.rejected != 0 {
            // Every fill targets a template row unique to its (session,
            // fill) pair, so a policy reject means the plan or the server
            // lost a row.
            return Err(format!(
                "{}/seed={}: {} fills rejected",
                self.name, self.seed, self.rejected
            ));
        }
        let spread = self.fairness_spread();
        if spread > max_spread {
            return Err(format!(
                "{}/seed={}: fairness spread {:.1} exceeds {:.1}",
                self.name, self.seed, spread, max_spread
            ));
        }
        Ok(())
    }

    /// [`check_invariants`](Self::check_invariants), panicking on violation
    /// with the flight record dumped first (same discipline as the overload
    /// harness).
    pub fn assert_invariants(&self, max_spread: f64) {
        if let Err(msg) = self.check_invariants(max_spread) {
            let label = format!("connscale-{}-seed{}", self.name, self.seed);
            match crowdfill_obs::trace::dump_flight_record(&label) {
                Some(path) => panic!("{msg}\nflight record dumped to {}", path.display()),
                None => panic!("{msg}"),
            }
        }
    }
}

/// Collection `i`'s wire name.
pub fn collection_name(i: usize) -> String {
    format!("c{i:03}")
}

/// Template rows each collection needs so every (session, fill) pair can
/// claim its own fresh row, with a little slack for the PRI maintainer.
pub fn rows_per_collection(collections: usize, workers: usize, fills_per_worker: usize) -> usize {
    workers.div_ceil(collections.max(1)) * fills_per_worker + 4
}

fn lane_config(rows: usize) -> TaskConfig {
    let schema = Arc::new(
        Schema::new(
            "ScaleRow",
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

/// The collection set both the in-process mode and the `connscale-server`
/// bin host — same names, same template sizing, so a driver built from the
/// same scenario numbers can target either.
pub fn collection_backends(
    collections: usize,
    workers: usize,
    fills_per_worker: usize,
) -> Vec<(String, Backend)> {
    let rows = rows_per_collection(collections, workers, fills_per_worker);
    (0..collections)
        .map(|i| (collection_name(i), Backend::new(lane_config(rows))))
        .collect()
}

// ---- The lean session state machine ---------------------------------------

enum Phase {
    /// Before the scheduled connect time.
    Waiting,
    /// Hello enqueued; waiting for the welcome.
    HelloSent,
    /// Submitting fills.
    Active,
    /// Bye enqueued; draining the writer, then closed.
    Closing,
    Done,
    Failed,
    TimedOut,
}

struct Sess {
    plan: SessionPlan,
    stream: Option<TcpStream>,
    reader: FrameReader,
    writer: FrameWriter,
    phase: Phase,
    /// Client id from the welcome.
    client: u32,
    /// The first `rows_per_collection` template rows, in history order —
    /// identical for every session of a collection regardless of connect
    /// time, since later history only appends.
    targets: Vec<RowId>,
    next_fill: usize,
    /// Failed connect attempts so far (the accept backlog can push back
    /// during a connect storm; retry with a growing delay before giving up).
    connect_retries: u32,
    /// Retry time for the next connect attempt, if the last one failed.
    next_connect_at_ms: Option<u64>,
    inflight_since: Option<Instant>,
    /// Earliest instant the next submit may go out (overload backoff).
    retry_at: Option<Instant>,
    acks_ns: Vec<u64>,
    rejects: usize,
    backoffs: usize,
}

impl Sess {
    fn new(plan: SessionPlan) -> Sess {
        Sess {
            plan,
            stream: None,
            reader: FrameReader::new(),
            writer: FrameWriter::new(),
            phase: Phase::Waiting,
            client: 0,
            targets: Vec::new(),
            next_fill: 0,
            connect_retries: 0,
            next_connect_at_ms: None,
            inflight_since: None,
            retry_at: None,
            acks_ns: Vec::new(),
            rejects: 0,
            backoffs: 0,
        }
    }

    fn finished(&self) -> bool {
        matches!(self.phase, Phase::Done | Phase::Failed | Phase::TimedOut)
    }
}

fn hello_frame(collection: &str) -> Json {
    Json::obj([
        ("type", Json::str("hello")),
        ("collection", Json::str(collection)),
    ])
}

/// A hand-minted anchor fill: claim template row `old`, producing a row
/// owned by this session's client with a globally-unique anchor text.
fn fill_frame(old: RowId, client: u32, fill_seq: u64, worker: usize) -> Json {
    let msg = Message::Replace {
        old,
        new: RowId::new(ClientId(client), fill_seq),
        value: RowValue::from_pairs([(ColumnId(0), Value::text(format!("w{worker}-f{fill_seq}")))]),
    };
    Json::obj([
        ("type", Json::str("submit")),
        ("auto", Json::Bool(false)),
        ("msg", wire::message_to_json(&msg)),
    ])
}

/// Pulls the session's fill targets out of the welcome: the first
/// `rows` template inserts of the collection's history, then this
/// session's slice of them.
fn targets_from_welcome(
    welcome: &Json,
    rows: usize,
    in_lane_index: usize,
    fills: usize,
) -> Option<Vec<RowId>> {
    let history = welcome.get("history")?.as_arr()?;
    let mut inserts = Vec::with_capacity(rows);
    for msg in history {
        if msg.get("kind").and_then(Json::as_str) == Some("insert") {
            inserts.push(wire::row_id_from_json(msg.get("row")?).ok()?);
            if inserts.len() == rows {
                break;
            }
        }
    }
    let base = in_lane_index * fills;
    if base + fills > inserts.len() {
        return None;
    }
    Some(inserts[base..base + fills].to_vec())
}

struct DriverTally {
    conn_failures: usize,
    timed_out: usize,
}

/// Sweeps one driver thread's sessions to completion (or the deadline).
#[allow(clippy::too_many_arguments)]
fn drive(
    sessions: &mut [Sess],
    addr: SocketAddr,
    opts: &ConnScaleOptions,
    start: Instant,
    active: &AtomicUsize,
    peak: &AtomicUsize,
) -> DriverTally {
    let rows = rows_per_collection(opts.collections, opts.workers, opts.fills_per_worker);
    let mut tally = DriverTally {
        conn_failures: 0,
        timed_out: 0,
    };
    loop {
        let now = Instant::now();
        let now_ms = now.duration_since(start).as_millis() as u64;
        let mut progress = false;
        let mut unfinished = 0usize;
        for s in sessions.iter_mut() {
            if s.finished() {
                continue;
            }
            unfinished += 1;
            if matches!(s.phase, Phase::Waiting) {
                let due = s.next_connect_at_ms.unwrap_or(s.plan.connect_at_ms);
                if now_ms < due {
                    continue;
                }
                match TcpStream::connect(addr) {
                    Ok(stream) => {
                        let _ = stream.set_nodelay(true);
                        let _ = stream.set_nonblocking(true);
                        s.stream = Some(stream);
                        let hello = hello_frame(&collection_name(s.plan.collection));
                        let _ = s.writer.enqueue(hello.encode().as_bytes());
                        s.phase = Phase::HelloSent;
                        let live = active.fetch_add(1, Ordering::AcqRel) + 1;
                        peak.fetch_max(live, Ordering::AcqRel);
                        progress = true;
                    }
                    Err(_) => {
                        s.connect_retries += 1;
                        if s.connect_retries > 50 {
                            s.phase = Phase::Failed;
                            tally.conn_failures += 1;
                        } else {
                            s.next_connect_at_ms = Some(now_ms + 5 * u64::from(s.connect_retries));
                        }
                        continue;
                    }
                }
            }
            let fail = |s: &mut Sess, active: &AtomicUsize, tally: &mut DriverTally| {
                s.stream = None;
                s.phase = Phase::Failed;
                active.fetch_sub(1, Ordering::AcqRel);
                tally.conn_failures += 1;
            };
            // Flush pending writes.
            {
                let stream = s.stream.as_mut().expect("open session has a stream");
                match s.writer.flush(stream) {
                    Ok(n) => progress |= n > 0,
                    Err(_) => {
                        fail(s, active, &mut tally);
                        continue;
                    }
                }
            }
            if matches!(s.phase, Phase::Closing) {
                if s.writer.is_empty() {
                    s.stream = None;
                    s.phase = Phase::Done;
                    active.fetch_sub(1, Ordering::AcqRel);
                    progress = true;
                }
                continue;
            }
            // Drain inbound frames.
            {
                let stream = s.stream.as_mut().expect("open session has a stream");
                match s.reader.fill_from(stream, 256 * 1024) {
                    Ok(0) => {
                        // Peer closed while we still had work: a lost session.
                        fail(s, active, &mut tally);
                        continue;
                    }
                    Ok(n) => progress |= n > 0,
                    Err(ConnError::Empty) => {}
                    Err(_) => {
                        fail(s, active, &mut tally);
                        continue;
                    }
                }
            }
            let mut dead = false;
            while let Some(frame) = s.reader.pop().unwrap_or_else(|_| {
                dead = true;
                None
            }) {
                progress = true;
                let Ok(json) = Json::parse(&String::from_utf8_lossy(&frame)) else {
                    dead = true;
                    break;
                };
                match json.get("type").and_then(Json::as_str) {
                    Some("welcome") => {
                        let client = json.get("client").and_then(Json::as_i64).unwrap_or(-1);
                        let in_lane = s.plan.worker / opts.collections.max(1);
                        let targets =
                            targets_from_welcome(&json, rows, in_lane, opts.fills_per_worker);
                        match (client, targets) {
                            (c, Some(t)) if c >= 0 => {
                                s.client = c as u32;
                                s.targets = t;
                                s.phase = Phase::Active;
                            }
                            _ => dead = true,
                        }
                    }
                    Some("ack") => {
                        if let Some(at) = s.inflight_since.take() {
                            s.acks_ns.push(at.elapsed().as_nanos() as u64);
                        }
                        s.next_fill += 1;
                    }
                    Some("overloaded") => {
                        let hint = json
                            .get("retry_after_ms")
                            .and_then(Json::as_i64)
                            .unwrap_or(5)
                            .max(1) as u64;
                        s.inflight_since = None;
                        s.retry_at = Some(Instant::now() + Duration::from_millis(hint));
                        s.backoffs += 1;
                    }
                    Some("reject") => {
                        s.inflight_since = None;
                        s.rejects += 1;
                        s.next_fill += 1;
                    }
                    // Broadcasts, lagging notes, sync replies: irrelevant
                    // to the driver's ledger.
                    _ => {}
                }
                if dead {
                    break;
                }
            }
            if dead {
                fail(s, active, &mut tally);
                continue;
            }
            // Submit the next fill once its scheduled time arrives.
            if matches!(s.phase, Phase::Active) && s.inflight_since.is_none() {
                if s.next_fill >= s.plan.fill_at_ms.len() {
                    let _ = s
                        .writer
                        .enqueue(Json::obj([("type", Json::str("bye"))]).encode().as_bytes());
                    s.phase = Phase::Closing;
                    progress = true;
                } else if now_ms >= s.plan.fill_at_ms[s.next_fill]
                    && s.retry_at.is_none_or(|at| now >= at)
                {
                    s.retry_at = None;
                    let frame = fill_frame(
                        s.targets[s.next_fill],
                        s.client,
                        s.next_fill as u64,
                        s.plan.worker,
                    );
                    if s.writer.enqueue(frame.encode().as_bytes()).is_err() {
                        fail(s, active, &mut tally);
                        continue;
                    }
                    s.inflight_since = Some(Instant::now());
                    // Flush now, not at the top of this session's next
                    // turn: the ack clock is running and must not time a
                    // pass over every other session this thread drives.
                    let stream = s.stream.as_mut().expect("open session has a stream");
                    if s.writer.flush(stream).is_err() {
                        fail(s, active, &mut tally);
                        continue;
                    }
                    progress = true;
                }
            }
        }
        if unfinished == 0 {
            break;
        }
        if start.elapsed() > opts.deadline {
            for s in sessions.iter_mut() {
                if !s.finished() {
                    if s.stream.take().is_some() {
                        active.fetch_sub(1, Ordering::AcqRel);
                    }
                    s.phase = Phase::TimedOut;
                    tally.timed_out += 1;
                }
            }
            break;
        }
        if !progress {
            thread::sleep(Duration::from_micros(300));
        }
    }
    tally
}

fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs one connection-scale scenario end to end and audits the result.
///
/// In-process mode also verifies zero acked-op loss against the backends
/// before the service is stopped; external mode leaves that to
/// [`verify_zero_acked_loss_remote`] so the caller controls the server's
/// lifetime.
pub fn run_conn_scale(opts: &ConnScaleOptions) -> ConnScaleReport {
    let schedule = conn_scale(
        opts.seed,
        opts.collections,
        opts.workers,
        opts.fills_per_worker,
        opts.connect_window_ms,
        opts.duration_ms,
    );
    let deferrals = crowdfill_obs::metrics::counter("crowdfill_reactor_fairness_deferrals");
    let deferrals_before = deferrals.get();

    let (service, addr) = match &opts.mode {
        ConnScaleMode::InProcess => {
            let backends =
                collection_backends(opts.collections, opts.workers, opts.fills_per_worker);
            let service =
                TcpService::start_multi(backends, "127.0.0.1:0", ServiceOptions::default())
                    .expect("connscale service failed to start");
            let addr = service.addr();
            (Some(service), addr)
        }
        ConnScaleMode::External(addr) => (None, *addr),
    };

    // Deal sessions round-robin to the driver threads so every thread sees
    // the same mix of early and late connectors.
    let threads = opts.driver_threads.max(1);
    let mut per_thread: Vec<Vec<Sess>> = (0..threads).map(|_| Vec::new()).collect();
    for (i, plan) in schedule.sessions.iter().enumerate() {
        per_thread[i % threads].push(Sess::new(plan.clone()));
    }

    let start = Instant::now();
    let active = Arc::new(AtomicUsize::new(0));
    let peak = Arc::new(AtomicUsize::new(0));
    let joined: Vec<(Vec<Sess>, DriverTally)> = thread::scope(|scope| {
        let handles: Vec<_> = per_thread
            .into_iter()
            .map(|mut sessions| {
                let active = Arc::clone(&active);
                let peak = Arc::clone(&peak);
                scope.spawn(move || {
                    let tally = drive(&mut sessions, addr, opts, start, &active, &peak);
                    (sessions, tally)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("driver thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();

    // Fold the per-thread ledgers into per-collection lanes.
    let mut lanes: Vec<CollectionLane> = (0..opts.collections)
        .map(|i| CollectionLane {
            name: collection_name(i),
            sessions: 0,
            expected: 0,
            acked: 0,
            clients: HashSet::new(),
            ack_p50_ns: 0,
            ack_p99_ns: 0,
        })
        .collect();
    let mut lane_lat: Vec<Vec<u64>> = vec![Vec::new(); opts.collections];
    let mut all_lat: Vec<u64> = Vec::new();
    let mut rejected = 0usize;
    let mut backoffs = 0usize;
    let mut conn_failures = 0usize;
    let mut timed_out = 0usize;
    for (sessions, tally) in &joined {
        conn_failures += tally.conn_failures;
        timed_out += tally.timed_out;
        for s in sessions {
            let lane = &mut lanes[s.plan.collection];
            lane.sessions += 1;
            lane.expected += s.plan.fill_at_ms.len();
            lane.acked += s.acks_ns.len();
            if !matches!(s.phase, Phase::Waiting | Phase::HelloSent) && !s.targets.is_empty() {
                lane.clients.insert(s.client);
            }
            lane_lat[s.plan.collection].extend_from_slice(&s.acks_ns);
            all_lat.extend_from_slice(&s.acks_ns);
            rejected += s.rejects;
            backoffs += s.backoffs;
        }
    }
    for (lane, lat) in lanes.iter_mut().zip(lane_lat.iter_mut()) {
        lat.sort_unstable();
        lane.ack_p50_ns = percentile(lat, 0.50);
        lane.ack_p99_ns = percentile(lat, 0.99);
    }
    all_lat.sort_unstable();

    let report = ConnScaleReport {
        name: opts.name.to_string(),
        seed: opts.seed,
        conns: opts.workers,
        collections: opts.collections,
        expected_fills: opts.expected_fills(),
        acked: all_lat.len(),
        rejected,
        backoffs,
        conn_failures,
        timed_out_sessions: timed_out,
        peak_concurrent: peak.load(Ordering::Acquire),
        elapsed,
        ack_p50_ns: percentile(&all_lat, 0.50),
        ack_p99_ns: percentile(&all_lat, 0.99),
        fairness_deferrals: deferrals.get().saturating_sub(deferrals_before),
        lanes,
    };

    if let Some(service) = service {
        if let Err(msg) = verify_zero_acked_loss(&service, &report) {
            let label = format!("connscale-{}-seed{}", opts.name, opts.seed);
            match crowdfill_obs::trace::dump_flight_record(&label) {
                Some(path) => panic!("{msg}\nflight record dumped to {}", path.display()),
                None => panic!("{msg}"),
            }
        }
        service.stop();
    }
    report
}

/// Audits zero acked-op loss against an in-process service: every lane's
/// acked count must equal the number of replaces in its backend's durable
/// history minted by that lane's clients.
pub fn verify_zero_acked_loss(
    service: &TcpService,
    report: &ConnScaleReport,
) -> Result<(), String> {
    for lane in &report.lanes {
        let backend = service
            .backend_of(&lane.name)
            .ok_or_else(|| format!("collection {} missing from service", lane.name))?;
        let durable = {
            let b = backend.lock();
            count_lane_replaces(b.history_suffix(0).iter().map(|(_, m)| m), &lane.clients)
        };
        if durable != lane.acked {
            return Err(format!(
                "{}/seed={}: collection {} acked {} fills but history holds {}",
                report.name, report.seed, lane.name, lane.acked, durable
            ));
        }
    }
    Ok(())
}

/// The external-server flavor of [`verify_zero_acked_loss`]: replays each
/// collection's history over a fresh connection and audits the same count.
pub fn verify_zero_acked_loss_remote(
    addr: SocketAddr,
    report: &ConnScaleReport,
) -> Result<(), String> {
    for lane in &report.lanes {
        let history = fetch_history(addr, &lane.name)
            .map_err(|e| format!("history fetch for {} failed: {e}", lane.name))?;
        let durable = count_lane_replaces(history.iter(), &lane.clients);
        if durable != lane.acked {
            return Err(format!(
                "{}/seed={}: collection {} acked {} fills but history holds {}",
                report.name, report.seed, lane.name, lane.acked, durable
            ));
        }
    }
    Ok(())
}

fn count_lane_replaces<'a>(
    history: impl Iterator<Item = &'a Message>,
    clients: &HashSet<u32>,
) -> usize {
    history
        .filter(|m| matches!(m, Message::Replace { new, .. } if clients.contains(&new.client.0)))
        .count()
}

/// One blocking hello/welcome round-trip that returns a collection's full
/// history.
fn fetch_history(addr: SocketAddr, collection: &str) -> Result<Vec<Message>, String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    let hello = hello_frame(collection).encode();
    let mut framed = Vec::with_capacity(4 + hello.len());
    framed.extend_from_slice(&(hello.len() as u32).to_be_bytes());
    framed.extend_from_slice(hello.as_bytes());
    stream.write_all(&framed).map_err(|e| e.to_string())?;
    let mut hdr = [0u8; 4];
    stream.read_exact(&mut hdr).map_err(|e| e.to_string())?;
    let len = u32::from_be_bytes(hdr) as usize;
    let mut payload = vec![0u8; len];
    stream.read_exact(&mut payload).map_err(|e| e.to_string())?;
    let welcome =
        Json::parse(&String::from_utf8_lossy(&payload)).map_err(|e| format!("bad welcome: {e}"))?;
    if welcome.get("type").and_then(Json::as_str) != Some("welcome") {
        return Err("expected welcome".into());
    }
    let history = welcome
        .get("history")
        .and_then(Json::as_arr)
        .ok_or("welcome missing history")?;
    let bye = Json::obj([("type", Json::str("bye"))]).encode();
    let mut framed = Vec::with_capacity(4 + bye.len());
    framed.extend_from_slice(&(bye.len() as u32).to_be_bytes());
    framed.extend_from_slice(bye.as_bytes());
    let _ = stream.write_all(&framed);
    history
        .iter()
        .map(|m| wire::message_from_json(m).map_err(|e| e.to_string()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tiny_in_process_run_acks_everything() {
        let mut opts = ConnScaleOptions::smoke(7, 4, 32);
        opts.name = "unit";
        opts.connect_window_ms = 200;
        opts.duration_ms = 500;
        opts.driver_threads = 2;
        let report = run_conn_scale(&opts);
        report.assert_invariants(1_000.0);
        assert_eq!(report.acked, 64);
        assert_eq!(report.lanes.len(), 4);
        for lane in &report.lanes {
            assert_eq!(lane.sessions, 8);
            assert_eq!(lane.acked, lane.expected);
        }
        assert!(report.peak_concurrent >= 1);
    }

    #[test]
    fn percentile_picks_bounds() {
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[10], 0.99), 10);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&v, 1.0), 100);
    }
}
