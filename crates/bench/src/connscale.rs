//! The open-loop load generator — `drive`, which replays any [`Plan`], the
//! overload storms of [`crate::overload`] included — and the
//! connection-scale harness built on it: thousands of wire sessions across
//! many collections, a handful of threads.
//!
//! A session here is what a [`RemoteWorker`] is — a [`ClientCore`], so a
//! real replica that absorbs every broadcast of its collection, and the
//! same requests built by the same code — minus the blocking: one
//! nonblocking socket and a [`FrameReader`]/[`FrameWriter`] pair, thousands
//! of them per driver thread under one [`Poller`]. A driver sleeps until a
//! socket is ready or the nearest scheduled connect, fill, retry, redial or
//! scenario event is due, and touches only the sessions that woke it. 10k
//! sessions cost 10k sockets and ~10 threads on both ends combined.
//!
//! Each session connects at its planned offset, `hello`s into its
//! collection, then fills the anchor of one template row per planned fill,
//! rows that are its alone (so the server's stale-fill policy never
//! rejects two sessions racing for one row), one request in flight at a
//! time, speculative where the plan says so. The session is a shell: what
//! to do after an `overloaded`, a `reject` or a dropped link is the core's
//! to say ([`ClientCore::step`]), the one policy [`RemoteWorker`] runs too,
//! and the driver does it — it sends, dials, and arms a timer-heap entry
//! where the blocking worker would sleep:
//!
//! * an `overloaded` fill waits out the core's backoff and is resent, and
//!   after `ReconnectPolicy::max_attempts` retries is rolled back;
//! * a dropped session redials after the core's backoff and resumes: the
//!   request in flight is acked if the replay holds it, resubmitted if not;
//! * a stalled reader reads its welcome and never reads again;
//! * the herd disconnect fires `disconnect_all`;
//! * the service's queue depth is read on every wake.
//!
//! Once every session of a driver is through its fills, each syncs one
//! last time and says `bye`, so at quiescence every replica must equal its
//! collection's master. A fill's ack latency runs from its first send to
//! its ack, retries and recovery included. The report carries the scale
//! headline (peak concurrent connections, acked ops, ack p50/p99) plus the
//! gate invariants: **zero acked-op loss** (every fill seen acked is in the
//! master, [`ConnScaleReport::acked_lost`]), **convergence**
//! ([`ConnScaleReport::diverged_replicas`]) and **fairness** — the spread
//! of per-collection ack p99 ([`ConnScaleReport::fairness_spread`]).
//!
//! [`RemoteWorker`]: crowdfill_server::RemoteWorker

use crowdfill_model::{
    ClientId, Column, ColumnId, DataType, QuorumMajority, RowId, Schema, Template, Value,
};
use crowdfill_net::nonblocking::{FrameReader, FrameWriter};
use crowdfill_net::{ConnError, Interest, Poller};
use crowdfill_server::client_core::{Event, Input, Step};
use crowdfill_server::wire::Request;
use crowdfill_server::{
    Backend, ClientCore, ReconnectPolicy, RemoteError, RemoteWorker, ServiceOptions, TaskConfig,
    TcpService,
};
use crowdfill_sim::openloop::{conn_scale, Plan, SessionPlan};
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
}

/// Per-collection outcome lane.
#[derive(Debug, Clone, Default)]
pub struct CollectionLane {
    pub name: String,
    /// Sessions attached to this collection.
    pub sessions: usize,
    /// Fills the plan scheduled for this collection.
    pub expected: usize,
    /// Fills acked by the server.
    pub acked: usize,
    pub ack_p50_ns: u64,
    pub ack_p99_ns: u64,
}

/// Outcome of one driven plan.
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
    /// Fills given up after the policy's overload retries.
    pub give_ups: usize,
    /// `overloaded` retry hints honored.
    pub backoffs: usize,
    /// Sessions resumed after a dropped connection.
    pub resumes: u64,
    /// Sessions that failed to connect or died mid-run.
    pub conn_failures: usize,
    /// Sessions still unfinished at the deadline.
    pub timed_out_sessions: usize,
    /// High-water mark of concurrently-open driver connections.
    pub peak_concurrent: usize,
    /// Sessions whose replica, at quiescence, is not its collection's
    /// master (a session that never got a replica counts).
    pub diverged_replicas: usize,
    /// Acked fills missing from their collection's master table.
    pub acked_lost: usize,
    /// Highest queue depth of the in-process service over the drivers'
    /// wakes (0 against an external server).
    pub max_queue_depth: i64,
    /// Connections the herd disconnect dropped (0 without one).
    pub herd_dropped: usize,
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
    /// A collection with no acks (or none at all) makes it infinite.
    pub fn fairness_spread(&self) -> f64 {
        let p99 = self.lanes.iter().map(|l| l.ack_p99_ns.max(1));
        match (p99.clone().min(), p99.max()) {
            (Some(lo), Some(hi)) if self.lanes.iter().all(|l| l.acked > 0) => hi as f64 / lo as f64,
            _ => f64::INFINITY,
        }
    }

    /// The run-level invariants every gate asserts: every scheduled fill
    /// acked and none lost, no sessions lost or timed out, every replica
    /// converged, fairness spread bounded.
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
        if self.acked_lost != 0 {
            return Err(format!(
                "{}/seed={}: {} acked fills missing from their collection's master",
                self.name, self.seed, self.acked_lost
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

/// The task every harness collection runs: a three-column text table
/// keyed on its anchor, `rows` template rows.
pub(crate) fn lane_config(rows: usize) -> TaskConfig {
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
/// same scenario numbers can target either. Each collection has a row for
/// every (session, fill) pair, plus a little slack for the PRI maintainer.
pub fn collection_backends(
    collections: usize,
    workers: usize,
    fills_per_worker: usize,
) -> Vec<(String, Backend)> {
    let rows = workers.div_ceil(collections.max(1)) * fills_per_worker + 4;
    (0..collections)
        .map(|i| (collection_name(i), Backend::new(lane_config(rows))))
        .collect()
}

/// What [`drive`] runs a plan against, and how its sessions behave.
pub(crate) struct Drive<'a> {
    pub(crate) addr: SocketAddr,
    /// The service, when it runs in this process: its queue depth is read
    /// on every driver wake (and the run ends only once it is 0), the herd
    /// disconnect goes through it, and the audit reads its backends.
    pub(crate) service: Option<&'a TcpService>,
    /// Driver threads; whole collections are dealt to them.
    pub(crate) threads: usize,
    /// Hard wall-clock cap on the run.
    pub(crate) deadline: Duration,
    /// Backoff shape, and the redials and overload retries per request
    /// (`max_attempts`); each session jitters from `plan.seed ^ worker`.
    pub(crate) policy: ReconnectPolicy,
    /// Bytes of padding on every anchor; 0 keeps messages small.
    pub(crate) padding: usize,
}

/// The anchor fill `k` of `worker` writes, padded with `padding` bytes of
/// `~` (which the audit trims off again).
fn anchor(worker: usize, k: usize, padding: usize) -> String {
    format!("w{worker}-f{k}{}", "~".repeat(padding))
}

// ---- The session: a `ClientCore` and a nonblocking socket ------------------

#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Before the scheduled connect time (or a connect retry).
    #[default]
    Waiting,
    /// Hello sent; the next frame is the welcome.
    HelloSent,
    /// Submitting fills.
    Active,
    /// Own fills through; absorbing the others' until the collection is done.
    Idle,
    /// The last sync is out; `bye` follows its reply.
    Settling,
    /// Bye enqueued; closed once the writer drains.
    Closing,
    /// A stalled reader, welcomed: its socket stays open and unread.
    Stalled,
    Done,
    Failed,
    TimedOut,
}

#[derive(Default)]
struct Sess {
    plan: SessionPlan,
    /// The template row of fill 0; fill `k` anchors row `first_row + k`.
    first_row: usize,
    stalled: bool,
    stream: Option<TcpStream>,
    reader: FrameReader,
    writer: FrameWriter,
    /// Registered for writability too: the last flush left bytes queued.
    want_write: bool,
    core: Option<ClientCore>,
    phase: Phase,
    next_fill: usize,
    /// When the fill under way first went out.
    fill_sent: Option<Instant>,
    /// When the core's last [`Step::Wait`] is over; a timer that fires
    /// before then is a fill's or a stale one.
    wake: Option<Instant>,
    /// Failed connect attempts so far (the accept backlog can push back
    /// during a connect storm; retry with a growing delay before giving up).
    connect_retries: u32,
    /// Counted out of [`Driver::filling`].
    through: bool,
    /// `(fill, ack latency in ns)` per acked fill.
    acks: Vec<(usize, u64)>,
    rejects: usize,
    give_ups: usize,
}

/// One driver thread's side of the run: what a session's step needs
/// besides the session.
struct Driver<'a> {
    run: &'a Drive<'a>,
    seed: u64,
    start: Instant,
    /// Open connections now, over all drivers, and their high-water mark.
    live: &'a AtomicUsize,
    peak: &'a AtomicUsize,
    poller: Poller,
    /// `(due, session)`: scheduled connects, fills, retries and redials;
    /// [`HERD`] for the herd disconnect.
    timers: BinaryHeap<Reverse<(Instant, usize)>>,
    /// Sessions of this driver that still owe fills; at zero its
    /// collections are quiescent and everyone syncs one last time.
    filling: usize,
    unfinished: usize,
    max_depth: i64,
    herd_dropped: usize,
}

/// The timer token of the herd disconnect.
const HERD: usize = usize::MAX;

impl Sess {
    /// Leaves the run in `phase` (`Done`, `Failed`, `TimedOut` or
    /// `Stalled`), closing the connection if one is open — a stalled
    /// reader's stays open, unread, until the run is over.
    fn finish(&mut self, phase: Phase, d: &mut Driver<'_>) {
        match &self.stream {
            Some(stream) if phase == Phase::Stalled => drop(d.poller.deregister(stream)),
            _ => self.close(d),
        }
        self.count_through(d);
        d.unfinished -= 1;
        self.phase = phase;
    }

    fn count_through(&mut self, d: &mut Driver<'_>) {
        if !self.through {
            self.through = true;
            d.filling -= 1;
        }
    }

    /// Queues `frame` (if any) and writes what the socket takes; the rest
    /// goes when it turns writable. A `bye` that has left ends the session.
    fn send(&mut self, i: usize, frame: Option<&str>, d: &mut Driver<'_>) {
        let Some(stream) = self.stream.as_mut() else {
            return;
        };
        let queued = frame.map_or(Ok(()), |f| self.writer.enqueue(f.as_bytes()));
        if let Err(e) = queued.and_then(|()| self.writer.flush(stream).map(drop)) {
            return self.dropped(i, e, d);
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

    /// Dials a registered nonblocking connection.
    fn open(&mut self, i: usize, d: &mut Driver<'_>) -> std::io::Result<()> {
        let stream = TcpStream::connect(d.run.addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        d.poller.register(&stream, i as u64, Interest::READ)?;
        self.stream = Some(stream);
        let live = d.live.fetch_add(1, Ordering::AcqRel) + 1;
        d.peak.fetch_max(live, Ordering::AcqRel);
        Ok(())
    }

    /// Closes the connection, if one is open, with what it had buffered.
    fn close(&mut self, d: &mut Driver<'_>) {
        if let Some(stream) = self.stream.take() {
            let _ = d.poller.deregister(&stream);
            d.live.fetch_sub(1, Ordering::AcqRel);
        }
        (self.reader, self.writer, self.want_write) = Default::default();
    }

    fn connect(&mut self, i: usize, d: &mut Driver<'_>) {
        if self.open(i, d).is_err() {
            return self.retry_connect(i, d);
        }
        self.phase = Phase::HelloSent;
        let hello = Request::Hello(Some(collection_name(self.plan.collection)));
        self.send(i, Some(&hello.encode()), d);
    }

    fn retry_connect(&mut self, i: usize, d: &mut Driver<'_>) {
        if self.connect_retries >= 50 {
            return self.finish(Phase::Failed, d);
        }
        self.connect_retries += 1;
        self.phase = Phase::Waiting;
        let retry = Duration::from_millis(5 * u64::from(self.connect_retries));
        d.timers.push(Reverse((Instant::now() + retry, i)));
    }

    /// The connection is gone. A session not yet welcomed connects afresh;
    /// a welcomed one does what its core says.
    fn dropped(&mut self, i: usize, e: ConnError, d: &mut Driver<'_>) {
        self.close(d);
        match (self.core.as_mut(), self.phase) {
            (None, _) => self.retry_connect(i, d),
            // The last sync was answered: nothing is owed.
            (Some(_), Phase::Closing) => self.finish(Phase::Done, d),
            (Some(core), _) => {
                let step = core.step(Input::Dropped(e));
                self.exec(i, step, d);
            }
        }
    }

    /// Does what the core said: sends, arms a timer, redials, or takes the
    /// outcome of the request in flight.
    fn exec(&mut self, i: usize, step: Step, d: &mut Driver<'_>) {
        let acked = match step {
            Step::Send(frame) => return self.send(i, Some(&frame), d),
            Step::Await => return,
            Step::Wait(wait) => {
                let due = Instant::now() + wait;
                self.wake = Some(due);
                return d.timers.push(Reverse((due, i)));
            }
            Step::Redial { resume, .. } => {
                self.close(d);
                return match self.open(i, d) {
                    Ok(()) => self.send(i, Some(&resume), d),
                    Err(e) => self.dropped(i, ConnError::Io(e.to_string()), d),
                };
            }
            // The collection was quiescent when the last sync went out, so
            // its reply is the whole history.
            Step::Done(Ok(Event::Synced)) if self.phase == Phase::Settling => {
                self.phase = Phase::Closing;
                return self.send(i, Some(&Request::Bye.encode()), d);
            }
            // A resume with nothing in flight.
            Step::Done(Ok(Event::Synced)) => return self.pump(i, d),
            // Applied, a resume may have proved it; or refused, or out of
            // retries and never applied, and rolled back.
            Step::Done(Ok(Event::Ack(_))) => true,
            Step::Done(Err(RemoteError::Rejected(_))) => {
                self.rejects += 1;
                false
            }
            Step::Done(Err(RemoteError::Overloaded { .. })) => {
                self.give_ups += 1;
                false
            }
            Step::Done(_) => return self.finish(Phase::Failed, d),
        };
        let Some(sent) = self.fill_sent.take() else {
            return self.finish(Phase::Failed, d);
        };
        if acked {
            let latency = sent.elapsed().as_nanos() as u64;
            self.acks.push((self.next_fill, latency));
        }
        self.next_fill += 1;
        self.pump(i, d);
    }

    fn on_timer(&mut self, i: usize, d: &mut Driver<'_>) {
        let due = self.wake.filter(|due| *due <= Instant::now());
        match (self.phase, self.core.as_mut()) {
            (Phase::Waiting, _) => self.connect(i, d),
            (Phase::Active | Phase::Idle | Phase::Settling, Some(core)) if due.is_some() => {
                self.wake = None;
                let step = core.step(Input::Fired);
                self.exec(i, step, d);
            }
            (Phase::Active, _) => self.pump(i, d),
            _ => {}
        }
    }

    /// The socket is ready: write what is queued, read what has arrived.
    fn on_ready(&mut self, i: usize, d: &mut Driver<'_>) {
        self.send(i, None, d);
        while let Some(stream) = self
            .stream
            .as_mut()
            .filter(|_| self.phase != Phase::Stalled)
        {
            match self.reader.pop() {
                Ok(Some(frame)) => self.on_frame(i, &frame, d),
                Ok(None) => match self.reader.fill_from(stream, 256 * 1024) {
                    Ok(n) if n > 0 => continue,
                    Err(ConnError::Empty) => return,
                    Ok(_) => return self.dropped(i, ConnError::Disconnected, d),
                    Err(e) => return self.dropped(i, e, d),
                },
                Err(_) => return self.finish(Phase::Failed, d),
            }
        }
    }

    /// One frame from the server: the welcome, or the core's to read.
    fn on_frame(&mut self, i: usize, frame: &[u8], d: &mut Driver<'_>) {
        if let Some(core) = self.core.as_mut() {
            let step = core.step(Input::Frame(frame));
            return self.exec(i, step, d);
        }
        if self.stalled {
            return self.finish(Phase::Stalled, d);
        }
        // Every session its own jitter stream, or a turned-away crowd
        // would come back in lockstep.
        let policy = ReconnectPolicy {
            jitter_seed: d.seed ^ self.plan.worker as u64,
            ..d.run.policy.clone()
        };
        let collection = collection_name(self.plan.collection);
        self.core = ClientCore::welcomed(frame, Some(collection), Some(&policy)).ok();
        match self.core {
            Some(_) => {
                self.phase = Phase::Active;
                self.pump(i, d);
            }
            None => self.finish(Phase::Failed, d),
        }
    }

    /// With nothing under way, starts the next fill of the plan — the
    /// anchor of this session's own template row — once it is due.
    fn pump(&mut self, i: usize, d: &mut Driver<'_>) {
        let (Phase::Active, Some(core)) = (self.phase, self.core.as_mut()) else {
            return;
        };
        if core.busy() {
            return;
        }
        let Some(fill) = self.plan.fills.get(self.next_fill) else {
            self.phase = Phase::Idle;
            return self.count_through(d);
        };
        let due = d.start + Duration::from_millis(fill.at_ms);
        if due > Instant::now() {
            return d.timers.push(Reverse((due, i)));
        }
        let row = RowId::new(ClientId::CENTRAL, (self.first_row + self.next_fill) as u64);
        let value = anchor(self.plan.worker, self.next_fill, d.run.padding);
        // An anchor fill leaves the row partial: one request.
        let fill = core.fill(row, ColumnId(0), Value::text(value), fill.speculative);
        let Some(request) = fill.ok().and_then(|mut fill| fill.pop()) else {
            return self.finish(Phase::Failed, d);
        };
        self.fill_sent = Some(Instant::now());
        let step = core.start(request);
        self.exec(i, step, d);
    }

    /// The collection is quiescent: one last sync, then `bye`.
    fn settle(&mut self, i: usize, d: &mut Driver<'_>) {
        if let (Phase::Idle, Some(core)) = (self.phase, self.core.as_mut()) {
            self.phase = Phase::Settling;
            let sync = core.sync_request(false);
            let step = core.start(sync);
            self.exec(i, step, d);
        }
    }
}

/// Drives one thread's sessions to completion (or the deadline), asleep
/// whenever no socket is ready and no timer is due, then waits for the
/// service's queue to drain.
fn drive_thread(sessions: &mut [Sess], mut d: Driver<'_>) -> (i64, usize) {
    for (i, s) in sessions.iter().enumerate() {
        let due = d.start + Duration::from_millis(s.plan.connect_at_ms);
        d.timers.push(Reverse((due, i)));
    }
    let deadline = d.start + d.run.deadline;
    let (mut events, mut settling) = (Vec::new(), false);
    loop {
        let now = Instant::now();
        let depth = d.run.service.map_or(0, |s| s.metrics().queue_depth.get());
        d.max_depth = d.max_depth.max(depth);
        if d.unfinished == 0 && (depth == 0 || now >= deadline) {
            break;
        }
        if now >= deadline {
            for s in sessions.iter_mut() {
                let over = [Phase::Done, Phase::Failed, Phase::TimedOut, Phase::Stalled];
                if !over.contains(&s.phase) {
                    s.finish(Phase::TimedOut, &mut d);
                }
            }
            continue;
        }
        if d.filling == 0 && !settling {
            settling = true;
            for (i, s) in sessions.iter_mut().enumerate() {
                s.settle(i, &mut d);
            }
        }
        let next = match d.timers.peek() {
            _ if d.unfinished == 0 => now + Duration::from_millis(1),
            Some(Reverse((due, _))) => *due,
            None => deadline,
        };
        if next > now {
            events.clear();
            let wait = next.min(deadline) - now;
            d.poller.wait(&mut events, Some(wait)).expect("epoll_wait");
            for event in &events {
                sessions[event.token as usize].on_ready(event.token as usize, &mut d);
            }
        } else if let Some(Reverse((_, i))) = d.timers.pop() {
            match (i, d.run.service) {
                (HERD, service) => d.herd_dropped = service.map_or(0, TcpService::disconnect_all),
                (i, _) => sessions[i].on_timer(i, &mut d),
            }
        }
    }
    (d.max_depth, d.herd_dropped)
}

/// The nearest-rank `p` quantile of `sorted` (0 when empty).
fn percentile(sorted: &[u64], p: f64) -> u64 {
    let idx = (sorted.len().saturating_sub(1) as f64 * p).round() as usize;
    sorted.get(idx).copied().unwrap_or(0)
}

/// Replays `plan` against the service at `run.addr` and audits the
/// result: every replica against its collection's master, every acked fill
/// in it.
pub(crate) fn drive(plan: &Plan, run: &Drive<'_>) -> ConnScaleReport {
    // A collection's template rows are dealt to its sessions in plan
    // order, one per fill; the stalled readers go first.
    let mut next_row = vec![0; plan.collections];
    let workers = plan.sessions.iter().map(|p| {
        let first_row = next_row[p.collection];
        next_row[p.collection] += p.fills.len();
        Sess {
            plan: p.clone(),
            first_row,
            ..Sess::default()
        }
    });
    let stalled = (0..plan.stalled_readers).map(|k| Sess {
        plan: SessionPlan {
            worker: plan.sessions.len() + k,
            ..SessionPlan::default()
        },
        stalled: true,
        ..Sess::default()
    });

    // Deal whole collections to the driver threads: a driver then knows by
    // itself when its collections are quiescent.
    let threads = run.threads.max(1);
    let mut per_thread: Vec<Vec<Sess>> = (0..threads).map(|_| Vec::new()).collect();
    for sess in stalled.chain(workers) {
        per_thread[sess.plan.collection % threads].push(sess);
    }

    let start = Instant::now();
    let (live, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
    let ran: Vec<(i64, usize)> = thread::scope(|scope| {
        let handles: Vec<_> = per_thread
            .iter_mut()
            .enumerate()
            .map(|(t, sessions)| {
                let mut driver = Driver {
                    run,
                    seed: plan.seed,
                    start,
                    live: &live,
                    peak: &peak,
                    poller: Poller::new().expect("epoll"),
                    timers: BinaryHeap::new(),
                    filling: sessions.len(),
                    unfinished: sessions.len(),
                    max_depth: 0,
                    herd_dropped: 0,
                };
                if let (0, Some(at_ms)) = (t, plan.herd_disconnect_at_ms) {
                    let due = start + Duration::from_millis(at_ms);
                    driver.timers.push(Reverse((due, HERD)));
                }
                scope.spawn(move || drive_thread(sessions, driver))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let elapsed = start.elapsed();
    let sessions: Vec<Sess> = per_thread.into_iter().flatten().collect();
    let workers = || sessions.iter().filter(|s| !s.stalled);

    // Fold the sessions' ledgers into per-collection lanes.
    let mut lanes: Vec<CollectionLane> = (0..plan.collections)
        .map(|i| CollectionLane {
            name: collection_name(i),
            ..CollectionLane::default()
        })
        .collect();
    let mut lane_lat: Vec<Vec<u64>> = vec![Vec::new(); plan.collections];
    for s in workers() {
        let lane = &mut lanes[s.plan.collection];
        lane.sessions += 1;
        lane.expected += s.plan.fills.len();
        lane.acked += s.acks.len();
        lane_lat[s.plan.collection].extend(s.acks.iter().map(|&(_, ns)| ns));
    }
    for (lane, lat) in lanes.iter_mut().zip(lane_lat.iter_mut()) {
        lat.sort_unstable();
        lane.ack_p50_ns = percentile(lat, 0.50);
        lane.ack_p99_ns = percentile(lat, 0.99);
    }
    let mut all_lat: Vec<u64> = lane_lat.concat();
    all_lat.sort_unstable();

    // Quiescence: every session synced after the last fill was acked, so
    // its replica is its collection's master or something was lost on the
    // way; and every acked anchor is in the master.
    let (mut diverged_replicas, mut acked_lost) = (0, 0);
    for (c, lane) in lanes.iter().enumerate() {
        let audit = |master: &Replica| {
            let anchors: HashSet<&str> = master
                .table()
                .iter()
                .filter_map(|(_, e)| match e.value.get(ColumnId(0)) {
                    Some(Value::Text(text)) => Some(text.as_str().trim_end_matches('~')),
                    _ => None,
                })
                .collect();
            let of_lane = || workers().filter(|s| s.plan.collection == c);
            let same = |core: &ClientCore| core.view().replica().same_state(master);
            let differs = of_lane().filter(|s| !s.core.as_ref().is_some_and(same));
            let acked =
                of_lane().flat_map(|s| s.acks.iter().map(|&(k, _)| anchor(s.plan.worker, k, 0)));
            let lost = acked.filter(|a| !anchors.contains(a.as_str()));
            (differs.count(), lost.count())
        };
        let (differs, lost) = with_master(run.service, run.addr, &lane.name, audit)
            .unwrap_or((lane.sessions, lane.acked));
        diverged_replicas += differs;
        acked_lost += lost;
    }

    let in_phase = |phase| sessions.iter().filter(|s| s.phase == phase).count();
    let cores = || {
        workers()
            .filter_map(|s| s.core.as_ref())
            .map(ClientCore::counts)
    };
    let sum = |count: fn(&Sess) -> usize| sessions.iter().map(count).sum::<usize>();
    ConnScaleReport {
        name: plan.name.to_string(),
        seed: plan.seed,
        conns: plan.sessions.len(),
        collections: plan.collections,
        expected_fills: plan.total_fills(),
        acked: all_lat.len(),
        rejected: sum(|s| s.rejects),
        give_ups: sum(|s| s.give_ups),
        backoffs: cores().map(|c| c.overload_backoffs as usize).sum(),
        resumes: cores().map(|c| c.resumes).sum(),
        conn_failures: in_phase(Phase::Failed),
        timed_out_sessions: in_phase(Phase::TimedOut),
        peak_concurrent: peak.load(Ordering::Acquire),
        diverged_replicas,
        acked_lost,
        max_queue_depth: ran.iter().map(|r| r.0).max().unwrap_or(0),
        herd_dropped: ran.iter().map(|r| r.1).sum(),
        elapsed,
        ack_p50_ns: percentile(&all_lat, 0.50),
        ack_p99_ns: percentile(&all_lat, 0.99),
        fairness_deferrals: run
            .service
            .map_or(0, |s| s.metrics().fairness_deferrals.get()),
        lanes,
    }
}

/// Runs one connection-scale scenario end to end, against an in-process
/// service (stopped before this returns) or an external one.
pub fn run_conn_scale(opts: &ConnScaleOptions) -> ConnScaleReport {
    let plan = conn_scale(
        opts.seed,
        opts.collections,
        opts.workers,
        opts.fills_per_worker,
        opts.connect_window_ms,
        opts.duration_ms,
    );
    run_plan(opts, &plan)
}

/// Drives `plan` as `opts` says.
fn run_plan(opts: &ConnScaleOptions, plan: &Plan) -> ConnScaleReport {
    let service = matches!(opts.mode, ConnScaleMode::InProcess).then(|| {
        let backends = collection_backends(opts.collections, opts.workers, opts.fills_per_worker);
        TcpService::start_multi(backends, "127.0.0.1:0", ServiceOptions::default())
            .expect("connscale service failed to start")
    });
    let addr = match (&opts.mode, &service) {
        (ConnScaleMode::External(addr), _) => *addr,
        (_, service) => service.as_ref().expect("started above").addr(),
    };
    let run = Drive {
        addr,
        service: service.as_ref(),
        threads: opts.driver_threads,
        deadline: opts.deadline,
        // A connection-scale session retries an overloaded fill until the
        // deadline: a give-up would fail the gate.
        policy: ReconnectPolicy {
            max_attempts: u32::MAX,
            ..ReconnectPolicy::default()
        },
        padding: 0,
    };
    let mut report = drive(plan, &run);
    report.name = opts.name.to_string();
    if let Some(service) = service {
        service.stop();
    }
    report
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
        // As planned; with one session that stalls after its welcome; with
        // every connection dropped in the middle of the run. A session that
        // is not stalled ends `Done` (no failures, no time-outs) and every
        // fill it saw acked is in the master, a resumed one's too.
        for (stalled, herd) in [(0, None), (1, None), (0, Some(300))] {
            let mut plan = conn_scale(7, 4, 32, 2, 200, 500);
            plan.stalled_readers = stalled;
            plan.herd_disconnect_at_ms = herd;
            let report = run_plan(&opts, &plan);
            report.assert_invariants(1_000.0);
            assert_eq!(report.acked, 64);
            assert_eq!(report.lanes.len(), 4);
            for lane in &report.lanes {
                assert_eq!(lane.sessions, 8);
                assert_eq!(lane.acked, lane.expected);
            }
            assert!(report.peak_concurrent >= 1);
            if herd.is_some() {
                assert!(report.herd_dropped > 0, "the herd dropped nothing");
                assert!(report.resumes > 0, "no session resumed");
            }
        }
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
