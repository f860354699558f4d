//! # Sharded event-driven connection layer
//!
//! A thread (or two) per connection is thousands of stacks and a
//! scheduler meltdown at thousands of workers. The reactor instead runs a
//! small fixed pool of *shard* threads, each owning a disjoint set of
//! nonblocking sockets that it drives with a bounded sweep loop — total
//! server threads are O(pool size), not O(connections).
//!
//! ## Sweep anatomy
//!
//! The accept thread hands fresh sockets to shards round-robin over a
//! channel; a socket never migrates between shards, so per-connection
//! state needs no locks. Each sweep, for every connection the shard:
//!
//! 1. completes a parked submit/modify (the batch pipeline's async reply);
//! 2. reads whatever the socket has, bounded by `read_budget`, into the
//!    connection's [`FrameReader`];
//! 3. decodes and serves complete frames — the handshake
//!    ([`open_session`]) and the request grammar ([`parse_request`]) live
//!    in `tcp_service.rs`;
//! 4. drains the connection's [`Outbox`] (broadcasts queued by the apply
//!    thread) into its [`FrameWriter`], honoring `writer_pace`;
//! 5. flushes the writer as far as the socket accepts.
//!
//! A sweep that makes no progress across all connections sleeps
//! `idle_sleep`, so an idle shard costs a few wakeups per millisecond,
//! not a spinning core.
//!
//! ## Outbox policy
//!
//! The [`Outbox`] is where the slow-reader policy lives: a bounded
//! broadcast buffer, a lagging downgrade with dropped-frame accounting
//! when it overflows, a `{"type":"lagging"}` note once the buffer drains,
//! eviction after `evict_after` without a healing `sync`, and
//! `writer_pace` spacing consecutive broadcast frames. Acks and other
//! replies go straight to the connection's [`FrameWriter`]: they are
//! neither bounded by the outbox nor paced.
//!
//! ## Per-collection fairness
//!
//! Each sweep gives every collection a frame budget
//! (`collection_frames_per_sweep`); a connection whose collection has
//! exhausted its budget keeps its frames buffered until the next sweep.
//! One hot collection can therefore saturate neither a shard's CPU nor
//! another collection's admission — the quiet collection's frames are
//! served on the same sweep.

use crate::backend::{BatchOp, SubmitError, SubmitReport};
use crate::batch::AsyncSubmit;
use crate::overload::{OverloadOptions, Priority};
use crate::tcp_service::{
    close_session, flush_worker_outbox, health_reply, lagging_frame, m_evictions, m_lag_downgrades,
    m_lag_dropped, open_session, parse_request, reject_frame, result_frame, stats_reply,
    sync_reply, trace_dump_reply, Collection, Request, ServiceMetrics, ServiceShared, SessionOpen,
};
use crossbeam::channel::{self, TryRecvError};
use crowdfill_docstore::{Json, JsonRef};
use crowdfill_net::{ConnError, FrameReader, FrameWriter};
use crowdfill_obs::metrics::{Counter, Gauge, Histogram};
use crowdfill_obs::trace::TraceId;
use crowdfill_obs::SpanTimer;
use crowdfill_pay::WorkerId;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Connections currently owned by reactor shards (all collections).
fn g_conns() -> &'static Gauge {
    static G: OnceLock<Arc<Gauge>> = OnceLock::new();
    G.get_or_init(|| crowdfill_obs::metrics::gauge("crowdfill_reactor_conns"))
}

/// Request frames served by reactor shards.
fn m_frames_in() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| crowdfill_obs::metrics::counter("crowdfill_reactor_frames_in"))
}

/// Frames deferred to a later sweep by the per-collection fairness budget.
fn m_fairness_deferrals() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| crowdfill_obs::metrics::counter("crowdfill_reactor_fairness_deferrals"))
}

/// Tunables for the sharded reactor (see the module docs).
#[derive(Debug, Clone)]
pub struct ReactorOptions {
    /// Number of shard threads; `0` picks one per available core, capped
    /// at 4 (the sweep is syscall-bound, more shards only shuffle work).
    pub shards: usize,
    /// Sleep after a sweep in which no connection made progress.
    pub idle_sleep: Duration,
    /// Request frames one collection may consume per shard sweep before
    /// its connections yield to other collections.
    pub collection_frames_per_sweep: usize,
    /// Max bytes read from one socket per sweep.
    pub read_budget: usize,
}

impl Default for ReactorOptions {
    fn default() -> ReactorOptions {
        ReactorOptions {
            shards: 0,
            idle_sleep: Duration::from_micros(500),
            collection_frames_per_sweep: 64,
            read_budget: 64 * 1024,
        }
    }
}

impl ReactorOptions {
    fn effective_shards(&self) -> usize {
        if self.shards > 0 {
            return self.shards;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, 4)
    }
}

/// The server-side send half of one connection: a bounded broadcast
/// buffer plus the lagging state that drives the watermark downgrade →
/// `sync` → eviction policy. Enqueuing is non-blocking, so one stalled
/// reader can never wedge the broadcast flush path for everyone else; the
/// owning shard drains the buffer during its sweep. Broadcast producers
/// (the apply thread's after-batch flush, the eviction sweep) touch only
/// this handle, never the socket.
pub struct Outbox {
    peer: String,
    /// A dup of the connection's socket used only to force-close it from
    /// off-shard contexts (eviction sweep, `disconnect_all`).
    closer: TcpStream,
    queue: Mutex<VecDeque<Vec<u8>>>,
    capacity: usize,
    /// Set when the broadcast buffer overflows. While lagging, broadcasts
    /// to this connection are counted and dropped — the client's exact-seq
    /// tracking means a later `sync`/`resume` replays precisely what was
    /// missed — and the eviction clock runs.
    lagging: AtomicBool,
    /// When the connection went lagging (the eviction clock).
    lagging_since: Mutex<Option<Instant>>,
    /// A `{"type":"lagging"}` note owed to the client, emitted by the
    /// shard once the buffer makes progress.
    note_pending: AtomicBool,
    /// Set once the connection has been evicted (shutdown is idempotent,
    /// but the metrics should count each eviction once).
    evicted: AtomicBool,
}

impl Outbox {
    fn new(peer: String, closer: TcpStream, overload: &OverloadOptions) -> Outbox {
        Outbox {
            peer,
            closer,
            queue: Mutex::new(VecDeque::new()),
            capacity: overload.write_buffer_frames.max(1),
            lagging: AtomicBool::new(false),
            lagging_since: Mutex::new(None),
            note_pending: AtomicBool::new(false),
            evicted: AtomicBool::new(false),
        }
    }

    /// Queues one broadcast frame, non-blocking. A full buffer downgrades
    /// the connection to lagging; a connection lagging past
    /// [`OverloadOptions::evict_after`] is forcibly closed (the session
    /// survives — the client reconnects and resumes).
    pub(crate) fn enqueue_broadcast(&self, frame: Vec<u8>, overload: &OverloadOptions) {
        if self.evicted.load(Ordering::Acquire) {
            return;
        }
        if self.lagging.load(Ordering::Acquire) {
            m_lag_dropped().inc();
            self.maybe_evict(overload);
            return;
        }
        let mut q = self.queue.lock();
        if q.len() >= self.capacity {
            drop(q);
            // Watermark crossed: stop buffering for this reader. It is
            // told to catch up via `sync` (which also clears the flag);
            // until then broadcasts to it are dropped, not queued.
            if !self.lagging.swap(true, Ordering::AcqRel) {
                *self.lagging_since.lock() = Some(Instant::now());
                self.note_pending.store(true, Ordering::Release);
                m_lag_downgrades().inc();
                crowdfill_obs::obs_warn!(
                    "server",
                    "client {} lagging: write buffer full, downgraded to sync",
                    self.peer
                );
            }
            m_lag_dropped().inc();
        } else {
            q.push_back(frame);
        }
    }

    /// Pops one queued broadcast (shard-side drain).
    fn pop_broadcast(&self) -> Option<Vec<u8>> {
        self.queue.lock().pop_front()
    }

    /// Takes the owed lagging note, if any.
    fn take_note(&self) -> bool {
        self.note_pending.swap(false, Ordering::AcqRel)
    }

    /// Disconnects the connection if it has been lagging past
    /// [`OverloadOptions::evict_after`] without a healing `sync`. Called
    /// from [`enqueue_broadcast`](Self::enqueue_broadcast) when fresh
    /// broadcasts arrive and from the service's periodic sweep, so a
    /// stalled reader on a quiet collection (no further broadcast traffic)
    /// is still evicted on time.
    pub(crate) fn maybe_evict(&self, overload: &OverloadOptions) {
        if self.evicted.load(Ordering::Acquire) || !self.lagging.load(Ordering::Acquire) {
            return;
        }
        let since = *self.lagging_since.lock();
        if since.is_some_and(|t| t.elapsed() > overload.evict_after)
            && !self.evicted.swap(true, Ordering::AcqRel)
        {
            m_evictions().inc();
            crowdfill_obs::obs_warn!(
                "server",
                "evicting slow client {} (lagging past {:?})",
                self.peer,
                overload.evict_after
            );
            let _ = self.closer.shutdown(Shutdown::Both);
        }
    }

    /// Clears the lagging state. Called by the `sync` handler *before* the
    /// catch-up suffix is computed under the backend lock: every broadcast
    /// dropped while lagging then has a seq below the history length the
    /// reply covers, and anything newer is enqueued normally (overlap is
    /// healed by the client's seq dedup).
    pub(crate) fn clear_lagging(&self) {
        self.lagging.store(false, Ordering::Release);
        *self.lagging_since.lock() = None;
    }

    /// Forcibly closes the connection's socket.
    pub(crate) fn shutdown(&self) {
        let _ = self.closer.shutdown(Shutdown::Both);
    }

    fn is_evicted(&self) -> bool {
        self.evicted.load(Ordering::Acquire)
    }
}

/// Spawns the shard pool; returns the join handles and one socket-inject
/// channel per shard (the accept thread distributes round-robin).
pub(crate) fn start_shards(
    options: &ReactorOptions,
    shared: Arc<ServiceShared>,
    shutdown: Arc<AtomicBool>,
) -> (
    Vec<std::thread::JoinHandle<()>>,
    Vec<channel::Sender<TcpStream>>,
) {
    let n = options.effective_shards();
    let mut handles = Vec::with_capacity(n);
    let mut injects = Vec::with_capacity(n);
    for i in 0..n {
        let (tx, rx) = channel::unbounded::<TcpStream>();
        injects.push(tx);
        let shared = Arc::clone(&shared);
        let shutdown = Arc::clone(&shutdown);
        let options = options.clone();
        let handle = std::thread::Builder::new()
            .name(format!("crowdfill-shard-{i}"))
            .spawn(move || shard_loop(rx, shared, shutdown, options))
            .expect("spawn reactor shard");
        handles.push(handle);
    }
    crowdfill_obs::obs_info!("server", "reactor started with {n} shards");
    (handles, injects)
}

/// A submit/modify parked on the batch pipeline's async reply.
struct PendingReply {
    rx: channel::Receiver<Result<SubmitReport, SubmitError>>,
    trace: TraceId,
    submitted_at: Instant,
    /// Submits record the worker's ack histogram; modifies do not.
    record_hist: bool,
}

/// Post-handshake connection state.
struct Session {
    collection: Arc<Collection>,
    worker: WorkerId,
    epoch: u64,
    outbox: Arc<Outbox>,
    /// This worker's private ack-latency histogram (per-worker health).
    ack_hist: Option<Arc<Histogram>>,
    pending: Option<PendingReply>,
    /// When the last broadcast frame was popped (drives `writer_pace`).
    last_broadcast_pop: Option<Instant>,
}

impl Session {
    /// Hands a decoded submit/modify to the collection's batch pipeline.
    /// If admission settles it on the spot the reply is queued now;
    /// otherwise the connection parks on the async reply — the shard keeps
    /// sweeping other conns and picks the ack up at step 1 of a later sweep.
    fn submit_op(
        &mut self,
        op: BatchOp,
        priority: Priority,
        trace: TraceId,
        metrics: &ServiceMetrics,
        writer: &mut FrameWriter,
        dead: &mut bool,
    ) {
        let submitted_at = Instant::now();
        let record_hist = matches!(op, BatchOp::Msg { .. }); // a submit, not a modify
        let pipeline = &self.collection.pipeline;
        match pipeline.submit_async(self.worker, op, priority, trace) {
            AsyncSubmit::Done(result) => {
                self.record_latency(record_hist, submitted_at, metrics);
                queue_frame(writer, dead, &result_frame(result, trace));
            }
            AsyncSubmit::Pending(rx) => {
                self.pending = Some(PendingReply {
                    rx,
                    trace,
                    submitted_at,
                    record_hist,
                });
            }
        }
    }

    /// Records a settled op's request-to-reply latency.
    fn record_latency(&self, record_hist: bool, submitted_at: Instant, metrics: &ServiceMetrics) {
        let elapsed = submitted_at.elapsed().as_nanos() as u64;
        if record_hist {
            if let Some(h) = &self.ack_hist {
                h.record(elapsed);
            }
            metrics.submit_latency_ns.record(elapsed);
        } else {
            metrics.modify_latency_ns.record(elapsed);
        }
    }
}

enum Phase {
    /// Waiting for the `hello`/`resume` frame.
    Handshake,
    Active(Session),
}

/// One connection owned by a shard: socket, codec state machines, and
/// protocol phase.
struct ConnState {
    stream: TcpStream,
    reader: FrameReader,
    writer: FrameWriter,
    phase: Phase,
    /// Reply written, nothing more to read: close once the writer drains.
    closing: bool,
    /// Peer half-closed; serve what is buffered, then close.
    peer_eof: bool,
    dead: bool,
    last_activity: Instant,
}

impl ConnState {
    fn adopt(stream: TcpStream) -> Option<ConnState> {
        stream.set_nonblocking(true).ok()?;
        let _ = stream.set_nodelay(true);
        Some(ConnState {
            stream,
            reader: FrameReader::new(),
            writer: FrameWriter::new(),
            phase: Phase::Handshake,
            closing: false,
            peer_eof: false,
            dead: false,
            last_activity: Instant::now(),
        })
    }
}

/// Queues a reply frame on a connection's writer (free function so
/// callers holding a borrow of `conn.phase` can still reach the writer).
fn queue_frame(writer: &mut FrameWriter, dead: &mut bool, reply: &Json) {
    if writer.enqueue(reply.encode().as_bytes()).is_err() {
        *dead = true;
    }
}

fn shard_loop(
    inject: channel::Receiver<TcpStream>,
    shared: Arc<ServiceShared>,
    shutdown: Arc<AtomicBool>,
    options: ReactorOptions,
) {
    let mut conns: Vec<ConnState> = Vec::new();
    // Per-sweep fairness budgets, keyed by collection name. The collection
    // set is fixed at service start: built once, refilled in place per sweep.
    let mut budgets: HashMap<String, usize> = shared
        .collections
        .keys()
        .map(|name| (name.clone(), options.collection_frames_per_sweep))
        .collect();
    loop {
        if shutdown.load(Ordering::SeqCst) {
            for conn in conns.iter_mut() {
                retire(conn, &shared);
            }
            g_conns().add(-(conns.len() as i64));
            return;
        }
        let mut progress = false;
        while let Ok(stream) = inject.try_recv() {
            if let Some(conn) = ConnState::adopt(stream) {
                conns.push(conn);
                g_conns().add(1);
                progress = true;
            }
        }
        for budget in budgets.values_mut() {
            *budget = options.collection_frames_per_sweep;
        }
        for conn in conns.iter_mut() {
            if sweep_conn(conn, &shared, &options, &mut budgets) {
                progress = true;
            }
        }
        let before = conns.len();
        conns.retain_mut(|conn| {
            if conn.dead {
                retire(conn, &shared);
                false
            } else {
                true
            }
        });
        g_conns().add(-((before - conns.len()) as i64));
        if !progress {
            std::thread::sleep(options.idle_sleep);
        }
    }
}

/// Tears down one connection's session (if it got that far).
fn retire(conn: &mut ConnState, shared: &ServiceShared) {
    let _ = conn.stream.shutdown(Shutdown::Both);
    if let Phase::Active(session) = &conn.phase {
        close_session(
            &session.collection,
            &session.outbox,
            session.worker,
            session.epoch,
            &shared.metrics,
        );
    }
}

/// One sweep pass over one connection; returns true if it made progress.
fn sweep_conn(
    conn: &mut ConnState,
    shared: &ServiceShared,
    options: &ReactorOptions,
    budgets: &mut HashMap<String, usize>,
) -> bool {
    let mut progress = false;

    // 1. A parked submit/modify completes independently of socket traffic.
    if let Phase::Active(session) = &mut conn.phase {
        let completed = match &session.pending {
            Some(pending) => match pending.rx.try_recv() {
                Ok(result) => Some(result),
                Err(TryRecvError::Empty) => None,
                Err(TryRecvError::Disconnected) => Some(Err(SubmitError::CollectionClosed)),
            },
            None => None,
        };
        if let Some(result) = completed {
            let pending = session.pending.take().unwrap();
            session.record_latency(pending.record_hist, pending.submitted_at, &shared.metrics);
            let reply = result_frame(result, pending.trace);
            queue_frame(&mut conn.writer, &mut conn.dead, &reply);
            progress = true;
        }
    }

    // 2. Pull whatever the socket has, bounded.
    if !conn.peer_eof && !conn.closing {
        match conn.reader.fill_from(&mut conn.stream, options.read_budget) {
            Ok(0) => conn.peer_eof = true,
            Ok(_) => {
                conn.last_activity = Instant::now();
                progress = true;
            }
            Err(ConnError::Empty) => {}
            Err(_) => {
                conn.dead = true;
                return true;
            }
        }
    }

    // 3. Serve complete frames, within the collection's fairness budget.
    loop {
        if conn.dead || conn.closing {
            break;
        }
        if let Phase::Active(session) = &conn.phase {
            if session.pending.is_some() {
                break; // one op in flight per connection: acks stay in request order
            }
            if budgets.get(session.collection.name()) == Some(&0) {
                if conn.reader.pending_bytes() >= 4 {
                    m_fairness_deferrals().inc();
                }
                break;
            }
        }
        let frame = match conn.reader.pop() {
            Ok(Some(f)) => f,
            Ok(None) => break,
            Err(_) => {
                shared.metrics.malformed_frames.inc();
                conn.dead = true;
                return true;
            }
        };
        progress = true;
        m_frames_in().inc();
        if let Phase::Active(session) = &conn.phase {
            if let Some(b) = budgets.get_mut(session.collection.name()) {
                *b -= 1;
            }
        }
        if matches!(conn.phase, Phase::Handshake) {
            serve_handshake(conn, &frame, shared);
        } else {
            serve_request(conn, &frame, shared);
        }
    }

    // 4. Drain broadcasts into the writer, honoring writer_pace. Only
    // broadcasts are paced: acks and other replies never enter the outbox.
    if let Phase::Active(session) = &mut conn.phase {
        let pace = shared.options.overload.writer_pace;
        let mut popped = false;
        loop {
            if let Some(p) = pace {
                let gated = session.last_broadcast_pop.is_some_and(|t| t.elapsed() < p);
                if gated || popped {
                    break; // at most one paced broadcast per sweep
                }
            }
            let Some(frame) = session.outbox.pop_broadcast() else {
                break;
            };
            if conn.writer.enqueue(&frame).is_err() {
                conn.dead = true;
                return true;
            }
            session.last_broadcast_pop = Some(Instant::now());
            popped = true;
        }
        if popped {
            progress = true;
            if session.outbox.take_note() {
                let note = lagging_frame();
                if conn.writer.enqueue(note.encode().as_bytes()).is_err() {
                    conn.dead = true;
                    return true;
                }
            }
        }
        if session.outbox.is_evicted() {
            conn.dead = true;
            return true;
        }
    }

    // 5. Flush as much as the socket accepts.
    if !conn.writer.is_empty() {
        match conn.writer.flush(&mut conn.stream) {
            Ok(0) => {}
            Ok(_) => progress = true,
            Err(_) => {
                conn.dead = true;
                return true;
            }
        }
    }

    // 6. Close conditions: explicit close once drained, half-closed peer
    // with nothing left to do, or idle timeout.
    let parked = matches!(&conn.phase, Phase::Active(s) if s.pending.is_some());
    let drained_bye = conn.closing && conn.writer.is_empty();
    let drained_eof =
        conn.peer_eof && conn.reader.pending_bytes() == 0 && conn.writer.is_empty() && !parked;
    if drained_bye || drained_eof {
        conn.dead = true;
    } else if let Some(t) = shared.options.idle_timeout {
        if conn.last_activity.elapsed() > t {
            shared.metrics.idle_disconnects.inc();
            crowdfill_obs::obs_debug!("server", "idle session disconnected (reactor)");
            conn.dead = true;
        }
    }
    progress
}

/// Serves the connection's first frame (`hello`/`resume`) via
/// [`open_session`].
fn serve_handshake(conn: &mut ConnState, frame: &[u8], shared: &ServiceShared) {
    let text = String::from_utf8_lossy(frame);
    let Ok(req) = JsonRef::parse(&text) else {
        shared.metrics.malformed_frames.inc();
        conn.dead = true;
        return;
    };
    match open_session(&req, shared) {
        SessionOpen::Started {
            collection,
            worker,
            epoch,
            reply,
        } => {
            // Handshake reply enters the writer FIRST: the single outbound
            // queue guarantees no broadcast precedes the welcome.
            queue_frame(&mut conn.writer, &mut conn.dead, &reply);
            if conn.dead {
                collection.backend.lock().disconnect_epoch(worker, epoch);
                shared.metrics.disconnects.inc();
                return;
            }
            let peer = conn
                .stream
                .peer_addr()
                .map(|a| a.to_string())
                .unwrap_or_else(|_| "?".into());
            let Ok(closer) = conn.stream.try_clone() else {
                collection.backend.lock().disconnect_epoch(worker, epoch);
                shared.metrics.disconnects.inc();
                conn.dead = true;
                return;
            };
            let outbox = Arc::new(Outbox::new(peer, closer, &shared.options.overload));
            collection
                .registry
                .lock()
                .insert(worker, Arc::clone(&outbox));
            // Cover broadcasts that landed between the backend call and
            // registration (they sit behind the handshake reply).
            flush_worker_outbox(
                &collection.backend,
                &outbox,
                worker,
                &shared.options.overload,
            );
            let ack_hist = collection.backend.lock().worker_ack_histogram(worker);
            conn.phase = Phase::Active(Session {
                collection,
                worker,
                epoch,
                outbox,
                ack_hist,
                pending: None,
                last_broadcast_pop: None,
            });
        }
        SessionOpen::Rejected(reply) => {
            queue_frame(&mut conn.writer, &mut conn.dead, &reply);
            conn.closing = true;
        }
        SessionOpen::Malformed => {
            conn.dead = true;
        }
    }
}

/// Serves one in-session request frame, decoded by [`parse_request`].
fn serve_request(conn: &mut ConnState, frame: &[u8], shared: &ServiceShared) {
    let ConnState {
        phase,
        writer,
        closing,
        dead,
        ..
    } = conn;
    let Phase::Active(session) = phase else {
        return;
    };
    let text = String::from_utf8_lossy(frame);
    let Ok(req) = JsonRef::parse(&text) else {
        shared.metrics.malformed_frames.inc();
        return;
    };
    let metrics = &shared.metrics;
    let _request_timer = SpanTimer::start(&metrics.request_latency_ns);
    let backend = &session.collection.backend;
    match parse_request(&req) {
        Request::Submit {
            op,
            priority,
            trace,
        } => {
            metrics.submit_requests.inc();
            session.submit_op(op, priority, trace, metrics, writer, dead);
        }
        Request::MalformedSubmit => {
            metrics.submit_requests.inc();
            queue_frame(writer, dead, &reject_frame("malformed message"));
        }
        Request::Modify { op, trace } => {
            metrics.modify_requests.inc();
            session.submit_op(op, Priority::Normal, trace, metrics, writer, dead);
        }
        Request::MalformedModify => {
            metrics.modify_requests.inc();
            queue_frame(writer, dead, &reject_frame("malformed modify bundle"));
        }
        Request::Sync { from, have } => {
            metrics.sync_requests.inc();
            // Clear-before-suffix, see `sync_reply`.
            session.outbox.clear_lagging();
            let reply = sync_reply(backend, session.worker, from, &have);
            queue_frame(writer, dead, &reply);
        }
        Request::Stats => {
            metrics.stats_requests.inc();
            queue_frame(writer, dead, &stats_reply());
        }
        Request::Health => {
            metrics.health_requests.inc();
            let reply = health_reply(backend, shared.telemetry.as_deref());
            queue_frame(writer, dead, &reply);
        }
        Request::TraceDump => {
            metrics.trace_dump_requests.inc();
            queue_frame(writer, dead, &trace_dump_reply());
        }
        Request::Bye => *closing = true,
        Request::Unknown => {}
    }
}
