//! Connection-scale harness: thousands of wire sessions across many
//! collections, a handful of threads.
//!
//! The overload harness ([`crate::overload`]) asks how a service behaves
//! past its capacity; this one asks how many *connections* it can carry. A
//! session here is what a [`RemoteWorker`] is — a [`ClientCore`], so a real
//! replica that absorbs every broadcast of its collection, and the same
//! requests built by the same code — minus the blocking: one nonblocking
//! socket and a [`FrameReader`]/[`FrameWriter`] pair, thousands of them per
//! driver thread under one [`Poller`]. A driver sleeps until a socket is
//! ready or the nearest scheduled connect, fill or retry is due, and
//! touches only the sessions that woke it. 10k sessions cost 10k sockets
//! and ~10 threads on both ends combined.
//!
//! Each session follows the deterministic [`conn_scale`] open-loop plan:
//! connect at its scheduled offset, `hello` into its collection, then fill
//! the anchor of `fills_per_worker` template rows that are its alone (so
//! the server's stale-fill policy never rejects two sessions racing for one
//! row), one request in flight at a time. An `overloaded` reply is retried
//! after the core's jittered backoff of the server's hint. When its fills
//! are acked a session stays, as a worker would, and keeps absorbing; once
//! every session is through, each syncs one last time and says `bye`, so
//! at quiescence every replica must equal its collection's master.
//!
//! The report carries the scale headline (peak concurrent connections, acked
//! ops, ack p50/p99) plus the gate invariants:
//!
//! * **zero acked-op loss** — every `ack` the drivers recorded corresponds
//!   to a row in the collection's master table
//!   ([`verify_zero_acked_loss`] / [`verify_zero_acked_loss_remote`]);
//! * **convergence** — no session's replica differs from the master
//!   ([`ConnScaleReport::diverged_replicas`]);
//! * **fairness** — per-collection ack latency must stay within a bounded
//!   spread of the best-served collection ([`ConnScaleReport::fairness_spread`]).
//!
//! [`RemoteWorker`]: crowdfill_server::RemoteWorker
//! [`conn_scale`]: crowdfill_sim::openloop::conn_scale

use crowdfill_model::{
    ClientId, Column, ColumnId, DataType, QuorumMajority, RowId, Schema, Template, Value,
};
use crowdfill_net::nonblocking::{FrameReader, FrameWriter};
use crowdfill_net::{ConnError, Interest, Poller};
use crowdfill_server::client_core::Event;
use crowdfill_server::wire::Request;
use crowdfill_server::{
    Backend, ClientCore, ReconnectPolicy, RemoteWorker, ServiceOptions, TaskConfig, TcpService,
};
use crowdfill_sim::openloop::{conn_scale, SessionPlan};
use crowdfill_sync::Replica;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet};
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
    /// Driver threads, each with one poller over its share of the sessions.
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
    /// Sessions whose replica, at quiescence, is not its collection's
    /// master (a session that never got a replica counts).
    pub diverged_replicas: usize,
    pub elapsed: Duration,
    pub ack_p50_ns: u64,
    pub ack_p99_ns: u64,
    /// Reactor fairness deferrals observed during the run (0 against an
    /// external server).
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
    /// acked, no sessions lost or timed out, every replica converged,
    /// fairness spread bounded.
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
        if self.diverged_replicas != 0 {
            return Err(format!(
                "{}/seed={}: {} replicas differ from their collection's master",
                self.name, self.seed, self.diverged_replicas
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
    /// with the flight record dumped first.
    pub fn assert_invariants(&self, max_spread: f64) {
        if let Err(msg) = self.check_invariants(max_spread) {
            fail(self, &msg);
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

// ---- The session: a `ClientCore` and a nonblocking socket ------------------

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Before the scheduled connect time.
    #[default]
    Waiting,
    /// Hello sent; the next frame is the welcome.
    HelloSent,
    /// Submitting fills.
    Active,
    /// Own fills acked; absorbing the others' until the collection is done.
    Idle,
    /// The last sync is out; `bye` follows its reply.
    Settling,
    /// Bye enqueued; closed once the writer drains.
    Closing,
    Done,
    Failed,
    TimedOut,
}

#[derive(Default)]
struct Sess {
    plan: SessionPlan,
    stream: Option<TcpStream>,
    reader: FrameReader,
    writer: FrameWriter,
    /// Registered for writability too: the last flush left bytes queued.
    want_write: bool,
    core: Option<ClientCore>,
    phase: Phase,
    next_fill: usize,
    /// The request awaiting the server's verdict, and when it went out.
    inflight: Option<(Request, Instant)>,
    /// A request turned away under load, resent when its timer fires.
    parked: Option<Request>,
    overload_tries: u32,
    /// Failed connect attempts so far (the accept backlog can push back
    /// during a connect storm; retry with a growing delay before giving up).
    connect_retries: u32,
    acks_ns: Vec<u64>,
    rejects: usize,
    backoffs: usize,
}

/// One driver thread's side of the run: what a session's step needs
/// besides the session.
struct Driver<'a> {
    opts: &'a ConnScaleOptions,
    addr: SocketAddr,
    start: Instant,
    /// Open connections now, over all drivers, and their high-water mark.
    live: &'a AtomicUsize,
    peak: &'a AtomicUsize,
    poller: Poller,
    /// `(due, session)`: scheduled connects, fills and retries.
    timers: BinaryHeap<Reverse<(Instant, usize)>>,
    /// Sessions of this driver that still owe fills; at zero its
    /// collections are quiescent and everyone syncs one last time.
    filling: usize,
    unfinished: usize,
}

impl Sess {
    /// Leaves the run in `phase` (`Done`, `Failed` or `TimedOut`), closing
    /// the connection if one is open.
    fn finish(&mut self, phase: Phase, d: &mut Driver<'_>) {
        if let Some(stream) = self.stream.take() {
            let _ = d.poller.deregister(&stream);
            d.live.fetch_sub(1, Ordering::AcqRel);
        }
        if matches!(
            self.phase,
            Phase::Waiting | Phase::HelloSent | Phase::Active
        ) {
            d.filling -= 1;
        }
        d.unfinished -= 1;
        self.phase = phase;
    }

    /// Queues `request` (if any) and writes what the socket takes; the rest
    /// goes when it turns writable. A `bye` that has left ends the session.
    fn send(&mut self, i: usize, request: Option<&Request>, d: &mut Driver<'_>) {
        let Some(stream) = self.stream.as_mut() else {
            return;
        };
        let queued = request.map_or(Ok(()), |r| self.writer.enqueue(r.encode().as_bytes()));
        if queued.and_then(|()| self.writer.flush(stream)).is_err() {
            return self.finish(Phase::Failed, d);
        }
        if self.want_write == self.writer.is_empty() {
            self.want_write = !self.want_write;
            let interest = Interest {
                read: true,
                write: self.want_write,
            };
            let _ = d.poller.rearm(stream, i as u64, interest);
        }
        if self.phase == Phase::Closing && !self.want_write {
            self.finish(Phase::Done, d);
        }
    }

    fn connect(&mut self, i: usize, d: &mut Driver<'_>) {
        let registered = TcpStream::connect(d.addr).and_then(|stream| {
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            d.poller.register(&stream, i as u64, Interest::READ)?;
            Ok(stream)
        });
        match registered {
            Ok(stream) => {
                self.stream = Some(stream);
                let live = d.live.fetch_add(1, Ordering::AcqRel) + 1;
                d.peak.fetch_max(live, Ordering::AcqRel);
                self.phase = Phase::HelloSent;
                let collection = collection_name(self.plan.collection);
                self.send(i, Some(&Request::Hello(Some(collection))), d);
            }
            Err(_) if self.connect_retries < 50 => {
                self.connect_retries += 1;
                let retry = Duration::from_millis(5 * u64::from(self.connect_retries));
                d.timers.push(Reverse((Instant::now() + retry, i)));
            }
            Err(_) => self.finish(Phase::Failed, d),
        }
    }

    /// The socket is ready: write what is queued, read what has arrived.
    fn on_ready(&mut self, i: usize, d: &mut Driver<'_>) {
        self.send(i, None, d);
        while let Some(stream) = self.stream.as_mut() {
            let frame = match self.reader.pop() {
                Ok(Some(frame)) => frame,
                Ok(None) => match self.reader.fill_from(stream, 256 * 1024) {
                    Ok(n) if n > 0 => continue,
                    Err(ConnError::Empty) => return,
                    // The peer closed while we still had work: a lost session.
                    _ => return self.finish(Phase::Failed, d),
                },
                Err(_) => return self.finish(Phase::Failed, d),
            };
            if self.on_frame(i, &frame, d).is_none() {
                return self.finish(Phase::Failed, d);
            }
        }
    }

    /// One frame from the server; `None` if the session cannot go on.
    fn on_frame(&mut self, i: usize, frame: &[u8], d: &mut Driver<'_>) -> Option<()> {
        if self.phase == Phase::HelloSent {
            // Every session its own jitter stream, or a turned-away crowd
            // would come back in lockstep.
            let policy = ReconnectPolicy {
                jitter_seed: d.opts.seed ^ self.plan.worker as u64,
                ..ReconnectPolicy::default()
            };
            let collection = collection_name(self.plan.collection);
            self.core = ClientCore::welcomed(frame, Some(collection), Some(&policy)).ok();
            self.core.as_ref()?;
            self.phase = Phase::Active;
            return self.pump(i, d);
        }
        let core = self.core.as_mut()?;
        match core.handle(frame).ok()? {
            Event::Ack(_) => {
                let (_, sent) = self.inflight.take()?;
                self.acks_ns.push(sent.elapsed().as_nanos() as u64);
                self.next_fill += 1;
                self.overload_tries = 0;
                self.pump(i, d)?;
            }
            Event::Overloaded { retry_after_ms } => {
                let wait = core.overload_backoff(retry_after_ms, self.overload_tries);
                self.parked = Some(self.inflight.take()?.0);
                self.overload_tries += 1;
                self.backoffs += 1;
                d.timers.push(Reverse((Instant::now() + wait, i)));
            }
            // A reject fails the run (`check_invariants`: the harness fills
            // rows nobody else touches), so no roll-back is attempted.
            Event::Rejected(_) => {
                self.inflight.take()?;
                self.rejects += 1;
                self.next_fill += 1;
                self.pump(i, d)?;
            }
            // The collection was quiescent when the last sync went out, so
            // its reply is the whole history: nothing left but to leave.
            Event::Synced if self.phase == Phase::Settling => {
                self.phase = Phase::Closing;
                self.send(i, Some(&Request::Bye), d);
            }
            // A `lagging` note needs no `sync` of its own: that last one
            // asks for everything the replica has not applied.
            _ => {}
        }
        Some(())
    }

    /// With nothing in flight, sends what is due: the parked request, or
    /// the next fill of the plan — the anchor of this session's own
    /// template row, read from its replica. `None` if it cannot be made.
    fn pump(&mut self, i: usize, d: &mut Driver<'_>) -> Option<()> {
        if self.phase != Phase::Active || self.inflight.is_some() {
            return Some(());
        }
        let pending = match (self.parked.take(), self.plan.fill_at_ms.get(self.next_fill)) {
            (Some(parked), _) => parked,
            (None, None) => {
                self.phase = Phase::Idle;
                d.filling -= 1;
                return Some(());
            }
            (None, Some(at_ms)) => {
                let due = d.start + Duration::from_millis(*at_ms);
                if due > Instant::now() {
                    d.timers.push(Reverse((due, i)));
                    return Some(());
                }
                let in_lane = self.plan.worker / d.opts.collections.max(1);
                let slot = in_lane * d.opts.fills_per_worker + self.next_fill;
                let row = RowId::new(ClientId::CENTRAL, slot as u64);
                let anchor = Value::text(format!("w{}-f{}", self.plan.worker, self.next_fill));
                // An anchor fill leaves the row partial: one request.
                let fill = self.core.as_mut()?.fill(row, ColumnId(0), anchor, false);
                fill.ok()?.pop()?
            }
        };
        self.send(i, Some(&pending), d);
        self.inflight = Some((pending, Instant::now()));
        Some(())
    }
}

/// Drives one thread's sessions to completion (or the deadline), asleep
/// whenever no socket is ready and no timer is due.
fn drive(sessions: &mut [Sess], mut d: Driver<'_>) {
    for (i, s) in sessions.iter().enumerate() {
        let due = d.start + Duration::from_millis(s.plan.connect_at_ms);
        d.timers.push(Reverse((due, i)));
    }
    let deadline = d.start + d.opts.deadline;
    let (mut events, mut settling) = (Vec::new(), false);
    while d.unfinished > 0 {
        let now = Instant::now();
        if now >= deadline {
            for s in sessions.iter_mut() {
                if !matches!(s.phase, Phase::Done | Phase::Failed | Phase::TimedOut) {
                    s.finish(Phase::TimedOut, &mut d);
                }
            }
            break;
        }
        if d.filling == 0 && !settling {
            settling = true;
            for (i, s) in sessions.iter_mut().enumerate() {
                if let (Phase::Idle, Some(core)) = (s.phase, s.core.as_mut()) {
                    s.phase = Phase::Settling;
                    let sync = core.sync_request(false);
                    s.send(i, Some(&sync), &mut d);
                }
            }
        }
        let next = d.timers.peek().map_or(deadline, |Reverse((due, _))| *due);
        if next > now {
            events.clear();
            let wait = next.min(deadline) - now;
            d.poller.wait(&mut events, Some(wait)).expect("epoll_wait");
            for event in &events {
                sessions[event.token as usize].on_ready(event.token as usize, &mut d);
            }
        } else if let Some(Reverse((_, i))) = d.timers.pop() {
            let s = &mut sessions[i];
            if s.phase == Phase::Waiting {
                s.connect(i, &mut d);
            } else if s.pump(i, &mut d).is_none() {
                s.finish(Phase::Failed, &mut d);
            }
        }
    }
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

    // Deal whole collections to the driver threads: a driver then knows by
    // itself when its collections are quiescent.
    let threads = opts.driver_threads.max(1);
    let mut per_thread: Vec<Vec<Sess>> = (0..threads).map(|_| Vec::new()).collect();
    for plan in schedule.sessions {
        let sess = Sess {
            plan,
            ..Sess::default()
        };
        per_thread[sess.plan.collection % threads].push(sess);
    }

    let start = Instant::now();
    let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
    thread::scope(|scope| {
        for sessions in per_thread.iter_mut() {
            let driver = Driver {
                opts,
                addr,
                start,
                live: &live,
                peak: &peak,
                poller: Poller::new().expect("epoll"),
                timers: BinaryHeap::new(),
                filling: sessions.len(),
                unfinished: sessions.len(),
            };
            scope.spawn(move || drive(sessions, driver));
        }
    });
    let elapsed = start.elapsed();
    let sessions: Vec<Sess> = per_thread.into_iter().flatten().collect();

    // Fold the sessions' ledgers into per-collection lanes.
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
    for s in &sessions {
        let lane = &mut lanes[s.plan.collection];
        lane.sessions += 1;
        lane.expected += s.plan.fill_at_ms.len();
        lane.acked += s.acks_ns.len();
        if let Some(core) = &s.core {
            lane.clients.insert(core.view().replica().client().0);
        }
        lane_lat[s.plan.collection].extend_from_slice(&s.acks_ns);
        all_lat.extend_from_slice(&s.acks_ns);
        rejected += s.rejects;
        backoffs += s.backoffs;
    }
    for (lane, lat) in lanes.iter_mut().zip(lane_lat.iter_mut()) {
        lat.sort_unstable();
        lane.ack_p50_ns = percentile(lat, 0.50);
        lane.ack_p99_ns = percentile(lat, 0.99);
    }
    all_lat.sort_unstable();

    // Quiescence: every session synced after the last fill was acked, so
    // its replica is its collection's master or something was lost on the
    // way.
    let mut diverged_replicas = 0;
    for (i, lane) in lanes.iter().enumerate() {
        let differs = |master: &Replica| {
            let same = |c: &ClientCore| c.view().replica().same_state(master);
            let of_lane = sessions.iter().filter(|s| s.plan.collection == i);
            of_lane
                .filter(|s| !s.core.as_ref().is_some_and(same))
                .count()
        };
        diverged_replicas +=
            with_master(service.as_ref(), addr, &lane.name, differs).unwrap_or(lane.sessions);
    }

    let in_phase = |phase| sessions.iter().filter(|s| s.phase == phase).count();
    let report = ConnScaleReport {
        name: opts.name.to_string(),
        seed: opts.seed,
        conns: opts.workers,
        collections: opts.collections,
        expected_fills: opts.expected_fills(),
        acked: all_lat.len(),
        rejected,
        backoffs,
        conn_failures: in_phase(Phase::Failed),
        timed_out_sessions: in_phase(Phase::TimedOut),
        peak_concurrent: peak.load(Ordering::Acquire),
        diverged_replicas,
        elapsed,
        ack_p50_ns: percentile(&all_lat, 0.50),
        ack_p99_ns: percentile(&all_lat, 0.99),
        fairness_deferrals: service
            .as_ref()
            .map_or(0, |s| s.metrics().fairness_deferrals.get()),
        lanes,
    };

    if let Some(service) = service {
        if let Err(msg) = verify_zero_acked_loss(&service, &report) {
            fail(&report, &msg);
        }
        service.stop();
    }
    report
}

/// Panics with `msg`, the flight record dumped first (same discipline as
/// the overload harness).
fn fail(report: &ConnScaleReport, msg: &str) -> ! {
    let label = format!("connscale-{}-seed{}", report.name, report.seed);
    match crowdfill_obs::trace::dump_flight_record(&label) {
        Some(path) => panic!("{msg}\nflight record dumped to {}", path.display()),
        None => panic!("{msg}"),
    }
}

/// Shows `look` a collection's master replica: the backend's own when the
/// service is in this process, what a fresh joiner is shown otherwise.
fn with_master<T>(
    service: Option<&TcpService>,
    addr: SocketAddr,
    lane: &str,
    look: impl FnOnce(&Replica) -> T,
) -> Result<T, String> {
    let Some(service) = service else {
        let joiner = RemoteWorker::connect_to(addr, lane)
            .map_err(|e| format!("joining {lane} failed: {e}"))?;
        return Ok(look(joiner.view().replica()));
    };
    let backend = service
        .backend_of(lane)
        .ok_or_else(|| format!("collection {lane} missing from service"))?;
    let backend = backend.lock();
    Ok(look(backend.master()))
}

/// Every lane's acked count must equal the number of rows in its master
/// table minted by that lane's clients: one per fill that landed, and
/// nobody else replaces them.
fn audit_acked(
    service: Option<&TcpService>,
    addr: SocketAddr,
    report: &ConnScaleReport,
) -> Result<(), String> {
    for lane in &report.lanes {
        let minted = |master: &Replica| {
            let rows = master.table().row_ids();
            rows.filter(|row| lane.clients.contains(&row.client.0))
                .count()
        };
        let durable = with_master(service, addr, &lane.name, minted)?;
        if durable != lane.acked {
            return Err(format!(
                "{}/seed={}: collection {} acked {} fills but the table holds {}",
                report.name, report.seed, lane.name, lane.acked, durable
            ));
        }
    }
    Ok(())
}

/// Audits zero acked-op loss against an in-process service's backends.
pub fn verify_zero_acked_loss(
    service: &TcpService,
    report: &ConnScaleReport,
) -> Result<(), String> {
    audit_acked(Some(service), service.addr(), report)
}

/// The external-server flavor of [`verify_zero_acked_loss`]: a fresh
/// session joins each collection and audits what it is shown.
pub fn verify_zero_acked_loss_remote(
    addr: SocketAddr,
    report: &ConnScaleReport,
) -> Result<(), String> {
    audit_acked(None, addr, report)
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
