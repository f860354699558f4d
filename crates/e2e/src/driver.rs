//! One block = one collection lifetime, driven from this one thread with
//! at most two client connections open: build (or recover, or prefill)
//! the backend → `TcpService::start` → join → scripted actions → late
//! joins → oracle → stop (→ re-open, when journaled).
//!
//! Everything the product is given comes from [`BlockScript`]; everything
//! measured goes into [`BlockOutcome`]. Product defaults everywhere:
//! `TcpService::start` (`ServiceOptions::default()`), `ReconnectPolicy::
//! default()`, `DurabilityOptions::default()`.

use crate::conn::{plain_dialer, traced_dialer, ConnLog, FrameKind, SharedLog};
use crate::procfs::{process_cpu_ns, speed_probe, steal_ticks, GroupBill, ThreadLedger};
use crate::script::{prefill_rows, BlockScript, Spec, Workload, WIDTH};
use crowdfill_model::{ColumnId, Message, RowId, Value};
use crowdfill_pay::Millis;
use crowdfill_server::{
    open_or_recover, Backend, DurabilityOptions, ReconnectPolicy, RemoteWorker, TcpService,
    WorkerClient,
};
use crowdfill_sync::Replica;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How often the observer polls `absorb_pending()` while waiting for a
/// peer's fill. It sleeps between polls: spinning would take one of the
/// machine's two cores from the server.
pub const OBSERVER_POLL: Duration = Duration::from_micros(50);

/// [`speed_probe`] on this machine in its fast state, in microseconds: the
/// reference speed every gated time is expressed at. The machine toggles
/// between this state and one about 1.6 times slower, dwelling 0.1–10 s in
/// each and drifting in mix over minutes; `steal` shows none of it.
pub const PROBE_REF_US: f64 = 515.0;

/// The probe run hot: four times back to back, fastest taken, so that a
/// cold cache or one interrupt does not read as a slow machine.
fn hot_probe_us() -> f64 {
    (0..4).map(|_| speed_probe()).fold(f64::INFINITY, f64::min)
}

/// A measured time at reference speed: the part of it that was CPU time
/// of this process (measured, not assumed) is divided by the speed factor;
/// the rest — sleeps, timers, waiting for the other side — is kept as is.
pub fn at_reference_speed(wall: f64, cpu: f64, factor: f64) -> f64 {
    wall - cpu.min(wall) * (1.0 - 1.0 / factor.max(f64::MIN_POSITIVE))
}

/// An observer that has not seen a fill after this long counts as failed.
const PEER_TIMEOUT: Duration = Duration::from_secs(2);

/// Latency samples of one block, in microseconds, one list per class.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// `fill` that does not complete its row: one round trip.
    pub fill_ack: Vec<f64>,
    /// `fill` that completes its row: replace + automatic upvote, two
    /// round trips.
    pub complete_fill: Vec<f64>,
    pub vote_ack: Vec<f64>,
    /// Fill call entry → the other worker's replica shows the new row.
    pub peer: Vec<f64>,
    /// `RemoteWorker::connect_with` onto a populated table, until the
    /// replica is built. The block's opening joins are not sampled here.
    pub join: Vec<f64>,
    /// `persist::open_or_recover` of the stopped block's directory.
    pub recover: Vec<f64>,
}

impl Samples {
    /// These samples at reference speed, given the CPU time of each.
    pub fn at_reference_speed(&self, cpu: &Samples, factor: f64) -> Samples {
        let scale = |wall: &[f64], cpu: &[f64]| {
            wall.iter()
                .zip(cpu)
                .map(|(w, c)| at_reference_speed(*w, *c, factor))
                .collect()
        };
        Samples {
            fill_ack: scale(&self.fill_ack, &cpu.fill_ack),
            complete_fill: scale(&self.complete_fill, &cpu.complete_fill),
            vote_ack: scale(&self.vote_ack, &cpu.vote_ack),
            peer: scale(&self.peer, &cpu.peer),
            join: scale(&self.join, &cpu.join),
            recover: scale(&self.recover, &cpu.recover),
        }
    }

    pub fn extend(&mut self, other: &Samples) {
        self.fill_ack.extend(&other.fill_ack);
        self.complete_fill.extend(&other.complete_fill);
        self.vote_ack.extend(&other.vote_ack);
        self.peer.extend(&other.peer);
        self.join.extend(&other.join);
        self.recover.extend(&other.recover);
    }
}

/// One span of the traced run. Spans of one worker action share `action`;
/// `parent` is 0 for the action's root span.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub action: u64,
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
}

/// Client-edge samples of the traced blocks (microseconds; bytes for
/// `welcome_bytes`). The ack-path spans are sampled on plain fills only,
/// the class the ledger decomposes.
#[derive(Debug, Clone, Default)]
pub struct EdgeSamples {
    pub prepare: Vec<f64>,
    pub rtt: Vec<f64>,
    pub finish: Vec<f64>,
    pub absorb: Vec<f64>,
    pub bcast_gap: Vec<f64>,
    pub join_connect: Vec<f64>,
    pub join_handshake: Vec<f64>,
    pub join_rebuild: Vec<f64>,
    pub welcome_bytes: Vec<f64>,
}

impl EdgeSamples {
    pub fn extend(&mut self, other: &EdgeSamples) {
        self.prepare.extend(&other.prepare);
        self.rtt.extend(&other.rtt);
        self.finish.extend(&other.finish);
        self.absorb.extend(&other.absorb);
        self.bcast_gap.extend(&other.bcast_gap);
        self.join_connect.extend(&other.join_connect);
        self.join_handshake.extend(&other.join_handshake);
        self.join_rebuild.extend(&other.join_rebuild);
        self.welcome_bytes.extend(&other.welcome_bytes);
    }
}

/// One step of a captured block, in the order the server saw them; the
/// layer replay re-runs exactly this sequence without sockets.
#[derive(Debug, Clone)]
pub enum Step {
    Join {
        worker: u32,
    },
    Leave {
        worker: u32,
    },
    /// A request frame as sent (`submit`, but also `sync` and `bye`).
    Frame {
        worker: u32,
        bytes: Vec<u8>,
    },
}

/// What a traced block adds to its outcome.
#[derive(Debug, Clone, Default)]
pub struct BlockTrace {
    pub spans: Vec<Span>,
    pub edge: EdgeSamples,
    pub bytes_out: u64,
    pub bytes_in: u64,
    pub frames_in: u64,
    /// Filled when the block was run with `capture`.
    pub steps: Vec<Step>,
    pub welcome_frame: Option<Vec<u8>>,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct BlockMode {
    /// Connections go through [`TracedConn`](crate::conn::TracedConn).
    pub traced: bool,
    /// Keep sent frames and the last welcome for the layer replay.
    pub capture: bool,
    /// Read the thread ledger (at both ends and before every leave).
    pub ledger: bool,
}

#[derive(Debug, Clone, Default)]
pub struct BlockOutcome {
    pub samples: Samples,
    /// Process CPU time consumed while each sample of `samples` was taken
    /// (same classes, same order), in microseconds.
    pub cpu: Samples,
    /// Process CPU time consumed by set-up, in seconds.
    pub setup_cpu_s: f64,
    /// Config → backend built / recovered / prefilled → service listening.
    pub setup_s: f64,
    pub scripted: u64,
    pub acked: u64,
    /// Every oracle of the block held (and nothing errored).
    pub correct: bool,
    pub error: Option<String>,
    /// Process CPU and wall time of the action phase (after set-up, before
    /// stop).
    pub cpu_ns: u64,
    pub wall_ns: u64,
    /// Hypervisor steal over the whole block, in ticks.
    pub steal: Option<u64>,
    /// The hot [`speed_probe`] before set-up and after the block's last
    /// action, in microseconds.
    pub probe_us: [f64; 2],
    pub wal_bytes: u64,
    pub bill: Option<GroupBill>,
    pub trace: Option<BlockTrace>,
}

impl BlockOutcome {
    /// How many times slower than the reference the machine ran CPU work
    /// during this block's actions: the mean of the two boundary probes
    /// over [`PROBE_REF_US`].
    pub fn speed_factor(&self) -> f64 {
        (self.probe_us[0] + self.probe_us[1]) / 2.0 / PROBE_REF_US
    }

    /// The same for set-up, which runs right after the first probe.
    pub fn setup_speed_factor(&self) -> f64 {
        self.probe_us[0] / PROBE_REF_US
    }
}

/// What stays the same across the blocks of one run.
pub struct RunContext {
    pub workload: Workload,
    pub spec: Spec,
    pub seed: u64,
    /// Zero of every span timestamp.
    pub epoch: Instant,
    /// Journaled collections live in `wal_root/<block>`.
    pub wal_root: PathBuf,
    /// The set-up prefill, recorded once: messages with their auto-upvote
    /// flag, and the final id of each completed row.
    prefill: Vec<(Message, bool)>,
    prefill_final_rows: Vec<RowId>,
}

impl RunContext {
    pub fn new(workload: Workload, seed: u64, wal_root: PathBuf) -> RunContext {
        let spec = workload.spec();
        let (prefill, prefill_final_rows) = record_prefill(workload, seed);
        RunContext {
            workload,
            spec,
            seed,
            epoch: Instant::now(),
            wal_root,
            prefill,
            prefill_final_rows,
        }
    }

    /// A backend in the state every block of this workload starts from.
    /// The prefilling worker takes id 1 and leaves, so wire workers are
    /// numbered from 2 on `late_join` and from 1 elsewhere — in the wire
    /// phase and in the replay alike.
    pub fn fresh_backend(&self) -> Backend {
        let mut backend = Backend::new(self.spec.config());
        self.replay_prefill(&mut backend);
        backend
    }

    /// Replays the recorded set-up prefill (if the workload has one)
    /// through the `Backend` API as worker 1, who then leaves.
    pub fn replay_prefill(&self, backend: &mut Backend) {
        if self.prefill.is_empty() {
            return;
        }
        let (zed, _, _) = backend.connect(Millis(0));
        for (msg, auto) in &self.prefill {
            backend
                .submit(zed, msg.clone(), Millis(0), *auto)
                .expect("recorded prefill replays onto a fresh backend");
        }
        backend.disconnect(zed);
    }
}

/// Empty rows of a replica in ascending id order — the deterministic
/// stand-in for "the next empty row the worker sees".
fn empty_rows(replica: &Replica) -> Vec<RowId> {
    let mut rows: Vec<RowId> = replica
        .table()
        .iter()
        .filter(|(_, e)| e.value.is_empty())
        .map(|(id, _)| id)
        .collect();
    rows.sort();
    rows
}

/// Runs the prefill once through the `Backend` API with a plain
/// `WorkerClient`, recording what it submitted.
fn record_prefill(workload: Workload, seed: u64) -> (Vec<(Message, bool)>, Vec<RowId>) {
    let spec = workload.spec();
    let values = prefill_rows(workload, seed);
    if values.is_empty() {
        return (Vec::new(), Vec::new());
    }
    let mut backend = Backend::new(spec.config());
    let (zed, client_id, history) = backend.connect(Millis(0));
    let mut client = WorkerClient::new(zed, client_id, spec.schema(), &history);
    let targets = empty_rows(client.replica());
    let mut recorded = Vec::new();
    let mut final_rows = Vec::new();
    for (row_values, start) in values.iter().zip(targets) {
        let mut row = start;
        for (col, value) in row_values.iter().enumerate() {
            let outgoing = client
                .fill(row, ColumnId(col as u16), Value::text(value))
                .expect("prefill fills an empty cell of a live row");
            row = outgoing[0].msg.creates_row().expect("a fill creates a row");
            for out in outgoing {
                backend
                    .submit(zed, out.msg.clone(), Millis(0), out.auto_upvote)
                    .expect("prefill op accepted");
                recorded.push((out.msg, out.auto_upvote));
            }
        }
        final_rows.push(row);
    }
    (recorded, final_rows)
}

struct Worker {
    rw: RemoteWorker,
    log: Option<SharedLog>,
}

impl Worker {
    fn id(&self) -> u32 {
        self.rw.worker().0
    }
}

fn us(d: Duration) -> f64 {
    d.as_nanos() as f64 / 1e3
}

/// Process CPU time since `cpu0` (a [`process_cpu_ns`] reading), in
/// microseconds; 0 where the clock is unavailable.
fn cpu_us_since(cpu0: Option<u64>) -> f64 {
    match (cpu0, process_cpu_ns()) {
        (Some(a), Some(b)) => b.saturating_sub(a) as f64 / 1e3,
        _ => 0.0,
    }
}

/// The action phase of one block: the script cursor, what was measured so
/// far, and the tracing state.
struct Phase<'a> {
    ctx: &'a RunContext,
    mode: BlockMode,
    addr: SocketAddr,
    script: &'a BlockScript,
    next_think: usize,
    samples: Samples,
    cpu: Samples,
    acked: u64,
    ledger: ThreadLedger,
    trace: BlockTrace,
    next_span: u64,
    next_action: u64,
}

impl Phase<'_> {
    /// Seeded think time; outside every sample.
    fn think(&mut self) {
        let t = self.script.think_us[self.next_think];
        self.next_think += 1;
        std::thread::sleep(Duration::from_micros(t as u64));
    }

    fn span(
        &mut self,
        parent: u64,
        action: u64,
        name: &'static str,
        a: Instant,
        b: Instant,
    ) -> u64 {
        self.next_span += 1;
        self.trace.spans.push(Span {
            id: self.next_span,
            parent,
            action,
            name,
            start_us: us(a.saturating_duration_since(self.ctx.epoch)),
            end_us: us(b.saturating_duration_since(self.ctx.epoch)),
        });
        self.next_span
    }

    /// Takes what `worker`'s connection logged since the last call; the
    /// captured request frames move into the block's step list.
    fn drain(&mut self, worker: &Worker) -> Vec<crate::conn::FrameEvent> {
        let Some(log) = &worker.log else {
            return Vec::new();
        };
        let mut log = log.lock().expect("conn log lock");
        let id = worker.id();
        for bytes in log.sent_frames.drain(..) {
            self.trace.steps.push(Step::Frame { worker: id, bytes });
        }
        std::mem::take(&mut log.events)
    }

    /// One join: think, then `connect_with` until the replica is built.
    /// `sampled` joins land on a populated table and feed `join_p50_us`.
    fn join(&mut self, sampled: bool) -> Result<Worker, String> {
        self.think();
        let log = self.mode.traced.then(|| {
            Arc::new(Mutex::new(ConnLog {
                capture: self.mode.capture,
                ..ConnLog::default()
            }))
        });
        let dialer = match &log {
            Some(log) => traced_dialer(self.addr, Arc::clone(log)),
            None => plain_dialer(self.addr),
        };
        let cpu0 = process_cpu_ns();
        let t0 = Instant::now();
        let rw = RemoteWorker::connect_with(dialer, ReconnectPolicy::default())
            .map_err(|e| format!("join: {e}"))?;
        let t1 = Instant::now();
        self.acked += 1;
        if sampled {
            self.samples.join.push(us(t1 - t0));
            self.cpu.join.push(cpu_us_since(cpu0));
        }
        let worker = Worker { rw, log };
        if self.mode.capture {
            self.trace.steps.push(Step::Join {
                worker: worker.id(),
            });
        }
        if let Some(log) = &worker.log {
            let (dial, welcome) = {
                let mut log = log.lock().expect("conn log lock");
                (log.dial, log.welcome_frame.take())
            };
            if welcome.is_some() {
                self.trace.welcome_frame = welcome;
            }
            let events = self.drain(&worker);
            self.next_action += 1;
            let action = self.next_action;
            let name = if sampled { "join" } else { "join_open" };
            let root = self.span(0, action, name, t0, t1);
            let hello = events.iter().find(|e| e.kind == FrameKind::Sent);
            let welcome = events.iter().find(|e| e.kind == FrameKind::Welcome);
            if let (Some((d0, d1)), Some(hello), Some(welcome)) = (dial, hello, welcome) {
                self.span(root, action, "join.connect", d0, d1);
                self.span(root, action, "join.handshake", hello.at, welcome.at);
                self.span(root, action, "join.rebuild", welcome.at, t1);
                if sampled {
                    let edge = &mut self.trace.edge;
                    edge.join_connect.push(us(d1 - d0));
                    edge.join_handshake.push(us(welcome.at - hello.at));
                    edge.join_rebuild.push(us(t1 - welcome.at));
                    edge.welcome_bytes.push(welcome.bytes as f64);
                }
            }
        }
        Ok(worker)
    }

    /// Emits the ack-path spans of one submit-style action and returns
    /// `(first sent, last ack)` when both were seen.
    fn ack_path_spans(
        &mut self,
        name: &'static str,
        t0: Instant,
        t1: Instant,
        events: &[crate::conn::FrameEvent],
    ) -> Option<(u64, Instant, Instant)> {
        self.next_action += 1;
        let action = self.next_action;
        let root = self.span(0, action, name, t0, t1);
        let mut cursor = t0;
        let mut first_sent = None;
        let mut last_ack = None;
        for e in events {
            match e.kind {
                FrameKind::Sent => {
                    self.span(root, action, "client.prepare", cursor, e.at);
                    cursor = e.at;
                    first_sent.get_or_insert(e.at);
                }
                FrameKind::Ack => {
                    self.span(root, action, "wire.rtt", cursor, e.at);
                    cursor = e.at;
                    last_ack = Some(e.at);
                }
                _ => {}
            }
        }
        self.span(root, action, "client.finish", cursor, t1);
        Some((action, first_sent?, last_ack?))
    }

    /// One fill by `actor`: think, fill, and — when `observer` is given
    /// and the fill does not complete its row — wait until the observer's
    /// replica shows the new row. Returns the row's new id.
    fn fill(
        &mut self,
        actor: &mut Worker,
        observer: Option<&mut Worker>,
        row: RowId,
        col: usize,
        value: &str,
    ) -> Result<RowId, String> {
        self.think();
        let completes = col + 1 == WIDTH;
        // The id the local replica will mint for the replacing row.
        let replica = actor.rw.view().replica();
        let new_row = RowId::new(replica.client(), replica.next_seq());
        let value = Value::text(value);
        let cpu0 = process_cpu_ns();
        let t0 = Instant::now();
        actor
            .rw
            .fill(row, ColumnId(col as u16), value)
            .map_err(|e| format!("fill: {e}"))
            .and_then(|ack| {
                if ack.recovered {
                    Err("fill: ack lost, recovered by resume".to_string())
                } else {
                    Ok(())
                }
            })?;
        let t1 = Instant::now();
        self.acked += 1;
        if completes {
            self.samples.complete_fill.push(us(t1 - t0));
            self.cpu.complete_fill.push(cpu_us_since(cpu0));
        } else {
            self.samples.fill_ack.push(us(t1 - t0));
            self.cpu.fill_ack.push(cpu_us_since(cpu0));
        }
        let mut ack_at = None;
        if self.mode.traced {
            let events = self.drain(actor);
            let name = if completes { "complete_fill" } else { "fill" };
            if let Some((action, sent, ack)) = self.ack_path_spans(name, t0, t1, &events) {
                if !completes {
                    let edge = &mut self.trace.edge;
                    edge.prepare.push(us(sent - t0));
                    edge.rtt.push(us(ack - sent));
                    edge.finish.push(us(t1 - ack));
                }
                ack_at = Some((action, ack));
            }
        }
        let Some(observer) = observer.filter(|_| !completes) else {
            return Ok(new_row);
        };
        let seen = wait_visible(observer, new_row)?;
        self.samples.peer.push(us(seen - t0));
        self.cpu.peer.push(cpu_us_since(cpu0));
        if self.mode.traced {
            let events = self.drain(observer);
            let bcast = events.iter().find(|e| e.kind == FrameKind::Broadcast);
            if let (Some((action, ack)), Some(bcast)) = (ack_at, bcast) {
                let root = self.span(0, action, "peer", t0, seen);
                // The broadcast can be dequeued before the actor's ack is
                // (both sit in reader queues while this thread works).
                let gap_start = ack.min(bcast.at);
                self.span(root, action, "wire.bcast_gap", gap_start, bcast.at);
                self.span(root, action, "client.absorb", bcast.at, seen);
                let edge = &mut self.trace.edge;
                edge.bcast_gap
                    .push(us(bcast.at.saturating_duration_since(ack)));
                edge.absorb.push(us(seen - bcast.at));
            }
        }
        Ok(new_row)
    }

    fn upvote(&mut self, actor: &mut Worker, row: RowId) -> Result<(), String> {
        self.think();
        let cpu0 = process_cpu_ns();
        let t0 = Instant::now();
        let ack = actor.rw.upvote(row).map_err(|e| format!("upvote: {e}"))?;
        let t1 = Instant::now();
        if ack.recovered {
            return Err("upvote: ack lost, recovered by resume".to_string());
        }
        self.acked += 1;
        self.samples.vote_ack.push(us(t1 - t0));
        self.cpu.vote_ack.push(cpu_us_since(cpu0));
        if self.mode.traced {
            let events = self.drain(actor);
            self.ack_path_spans("upvote", t0, t1, &events);
        }
        Ok(())
    }

    /// Catches `worker` up, checks its replica against the master, and
    /// says goodbye. The ledger is read first: the connection's reader
    /// thread exits with it.
    fn check_and_leave(&mut self, mut worker: Worker, service: &TcpService) -> Result<(), String> {
        worker.rw.sync().map_err(|e| format!("sync: {e}"))?;
        let same = {
            let backend = service.backend();
            let backend = backend.lock();
            worker.rw.view().replica().same_state(backend.master())
        };
        if !same {
            return Err(format!(
                "oracle: worker {} diverged from the master",
                worker.id()
            ));
        }
        self.drain(&worker);
        if let Some(log) = &worker.log {
            let log = log.lock().expect("conn log lock");
            self.trace.bytes_out += log.bytes_out;
            self.trace.bytes_in += log.bytes_in;
            self.trace.frames_in += log.frames_in;
        }
        if self.mode.ledger {
            self.ledger.sample();
        }
        if self.mode.capture {
            self.trace.steps.push(Step::Leave {
                worker: worker.id(),
            });
        }
        worker.rw.bye();
        Ok(())
    }

    /// `paper_mem`, `paper_wal`, `big_table`: alice fills `filled_rows`
    /// rows cell by cell while bob observes, bob upvotes them and leaves,
    /// carol joins late `late_joins` times and upvotes one row each time.
    fn fill_and_vote(&mut self, service: &TcpService) -> Result<(), String> {
        let spec = self.ctx.spec;
        let mut alice = self.join(false)?;
        let mut bob = self.join(false)?;
        let targets = empty_rows(alice.rw.view().replica());
        let mut done = Vec::with_capacity(spec.filled_rows);
        let script = self.script;
        for (values, start) in script.rows.iter().zip(targets) {
            let mut row = start;
            for (col, value) in values.iter().enumerate() {
                row = self.fill(&mut alice, Some(&mut bob), row, col, value)?;
            }
            done.push(row);
        }
        for row in &done {
            // Completing fills are not waited on above; untimed here.
            wait_visible(&mut bob, *row)?;
            self.upvote(&mut bob, *row)?;
        }
        self.check_and_leave(bob, service)?;
        for k in 0..spec.late_joins {
            // A worker arriving at a nearly finished table endorses a row.
            let mut carol = self.join(true)?;
            self.upvote(&mut carol, done[k % done.len()])?;
            self.check_and_leave(carol, service)?;
        }
        self.check_and_leave(alice, service)
    }

    /// `late_join`: alice stays; each round carol joins the prefilled
    /// table, upvotes one complete row, sees one fill by alice, leaves.
    fn join_rounds(&mut self, service: &TcpService) -> Result<(), String> {
        let mut alice = self.join(false)?;
        let empties = empty_rows(alice.rw.view().replica());
        let script = self.script;
        let ctx = self.ctx;
        for ((values, row), voted) in script.rows.iter().zip(empties).zip(&ctx.prefill_final_rows) {
            let mut carol = self.join(true)?;
            self.upvote(&mut carol, *voted)?;
            self.fill(&mut alice, Some(&mut carol), row, 0, &values[0])?;
            self.check_and_leave(carol, service)?;
        }
        self.check_and_leave(alice, service)
    }
}

/// Polls the observer until its replica holds `row`; returns when it did.
fn wait_visible(observer: &mut Worker, row: RowId) -> Result<Instant, String> {
    let start = Instant::now();
    loop {
        observer.rw.absorb_pending();
        if observer.rw.view().replica().table().contains(row) {
            return Ok(Instant::now());
        }
        if start.elapsed() > PEER_TIMEOUT {
            return Err(format!("peer: {row} not visible after {PEER_TIMEOUT:?}"));
        }
        std::thread::sleep(OBSERVER_POLL);
    }
}

/// Runs block `block` of the run and returns what it measured.
pub fn run_block(ctx: &RunContext, block: u64, mode: BlockMode) -> BlockOutcome {
    let spec = ctx.spec;
    let script = BlockScript::generate(ctx.workload, ctx.seed, block);
    let mut out = BlockOutcome {
        scripted: spec.timed_ops() as u64,
        ..BlockOutcome::default()
    };
    let steal0 = steal_ticks();
    out.probe_us[0] = hot_probe_us();
    let dir = ctx.wal_root.join(format!("block-{block}"));

    let setup_cpu0 = process_cpu_ns();
    let setup_start = Instant::now();
    let backend = if spec.journaled {
        let _ = std::fs::remove_dir_all(&dir);
        match open_or_recover(spec.config(), &dir, &DurabilityOptions::default()) {
            Ok(mut backend) => {
                ctx.replay_prefill(&mut backend);
                backend
            }
            Err(e) => {
                out.error = Some(format!("open_or_recover: {e}"));
                return out;
            }
        }
    } else {
        ctx.fresh_backend()
    };
    let service = match TcpService::start(backend, "127.0.0.1:0") {
        Ok(service) => service,
        Err(e) => {
            out.error = Some(format!("TcpService::start: {e}"));
            return out;
        }
    };
    out.setup_s = setup_start.elapsed().as_secs_f64();
    out.setup_cpu_s = cpu_us_since(setup_cpu0) / 1e6;

    let mut phase = Phase {
        ctx,
        mode,
        addr: service.addr(),
        script: &script,
        next_think: 0,
        samples: Samples::default(),
        cpu: Samples::default(),
        acked: 0,
        ledger: ThreadLedger::default(),
        trace: BlockTrace::default(),
        next_span: block << 20,
        next_action: block << 16,
    };
    if mode.ledger {
        phase.ledger.begin();
    }
    let cpu0 = process_cpu_ns();
    let wall0 = Instant::now();
    let result = if spec.rounds > 0 {
        phase.join_rounds(&service)
    } else {
        phase.fill_and_vote(&service)
    };
    out.wall_ns = wall0.elapsed().as_nanos() as u64;
    out.cpu_ns = match (cpu0, process_cpu_ns()) {
        (Some(a), Some(b)) => b.saturating_sub(a),
        _ => 0,
    };
    if mode.ledger {
        phase.ledger.sample();
        out.bill = Some(phase.ledger.bill());
    }
    out.probe_us[1] = hot_probe_us();

    // What a re-opened backend must reproduce.
    let (history_len, master) = {
        let backend = service.backend();
        let backend = backend.lock();
        out.wal_bytes = backend.wal_bytes();
        (backend.history_len(), backend.master().clone())
    };
    service.stop();

    out.acked = phase.acked;
    out.samples = phase.samples;
    out.cpu = phase.cpu;
    out.error = result.err();
    if out.error.is_none() && out.acked != out.scripted {
        out.error = Some(format!(
            "accounting: {} of {} actions acked",
            out.acked, out.scripted
        ));
    }
    if mode.traced {
        out.trace = Some(phase.trace);
    }

    if spec.journaled {
        // Stop-and-reopen: the service is stopped, not killed, and the
        // page cache is warm. Acked ⇒ present is what is checked.
        let cpu0 = process_cpu_ns();
        let t0 = Instant::now();
        match open_or_recover(spec.config(), &dir, &DurabilityOptions::default()) {
            Ok(reopened) => {
                out.samples.recover.push(us(t0.elapsed()));
                out.cpu.recover.push(cpu_us_since(cpu0));
                if out.error.is_none()
                    && (reopened.history_len() != history_len
                        || !reopened.master().same_state(&master))
                {
                    out.error = Some("oracle: re-opened backend lost acked state".to_string());
                }
            }
            Err(e) => out.error = Some(format!("recover: {e}")),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    out.correct = out.error.is_none();
    out.steal = match (steal0, steal_ticks()) {
        (Some(a), Some(b)) => Some(b.saturating_sub(a)),
        _ => None,
    };
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn only_the_cpu_share_of_a_time_is_scaled() {
        // 1000 us of which 400 were CPU, on a machine running 1.6x slow:
        // the 600 us of waiting stay, the CPU part becomes 250.
        assert!((at_reference_speed(1000.0, 400.0, 1.6) - 850.0).abs() < 1e-9);
        // At reference speed nothing moves; a faster machine scales up.
        assert_eq!(at_reference_speed(1000.0, 400.0, 1.0), 1000.0);
        assert!((at_reference_speed(1000.0, 400.0, 0.8) - 1100.0).abs() < 1e-9);
        // Two busy cores can bill more CPU than wall time: capped at wall.
        assert!((at_reference_speed(1000.0, 1500.0, 2.0) - 500.0).abs() < 1e-9);
        let wall = Samples {
            fill_ack: vec![1000.0, 2000.0],
            ..Samples::default()
        };
        let cpu = Samples {
            fill_ack: vec![400.0, 0.0],
            ..Samples::default()
        };
        let scaled = wall.at_reference_speed(&cpu, 1.6);
        assert!((scaled.fill_ack[0] - 850.0).abs() < 1e-9);
        assert_eq!(scaled.fill_ack[1], 2000.0);
        assert!(scaled.vote_ack.is_empty());
    }

    #[test]
    fn the_recorded_prefill_completes_seven_eighths_of_the_table() {
        let ctx = RunContext::new(Workload::LateJoin, 3, PathBuf::from("unused"));
        let backend = ctx.fresh_backend();
        let spec = ctx.spec;
        let complete = backend.master().table().complete_count(&spec.schema());
        assert_eq!(complete, spec.prefilled_rows);
        assert_eq!(ctx.prefill_final_rows.len(), spec.prefilled_rows);
        assert_eq!(
            backend.master().table().empty_count(),
            spec.rows - spec.prefilled_rows
        );
        // No prefill elsewhere: a fresh backend is just the template.
        let ctx = RunContext::new(Workload::PaperMem, 3, PathBuf::from("unused"));
        assert_eq!(ctx.fresh_backend().master().table().empty_count(), 32);
    }
}
