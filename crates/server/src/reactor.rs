//! # Sharded event-driven connection layer
//!
//! A thread (or two) per connection is thousands of stacks and a
//! scheduler meltdown at thousands of workers. The reactor instead runs a
//! small fixed pool of *shard* threads, each owning a disjoint set of
//! nonblocking sockets, one `epoll` instance and one wake queue
//! ([`crowdfill_net::poller`]) — total server threads are O(pool size),
//! not O(connections), and a shard with nothing to do is blocked in the
//! kernel, not polling.
//!
//! ## What wakes a shard, and what a wake serves
//!
//! The accept thread hands fresh sockets to shards round-robin; a socket
//! never migrates between shards, so per-connection state needs no locks.
//! A shard blocks in `epoll_wait` until one of these happens:
//!
//! * a socket of its own is readable, is writable while its
//!   [`FrameWriter`] holds bytes, or hung up;
//! * another thread pushed a [`Wake`] onto its queue: the accept thread
//!   injects a socket, an apply thread answers a parked submit/modify,
//!   queued a broadcast in a connection's [`Outbox`] or turned it lagging,
//!   `TcpService::disconnect_all` asks for a close, or `TcpService::stop`
//!   raised the shutdown flag;
//! * its nearest deadline passed (`idle_timeout`, a `writer_pace`
//!   release, a lagging connection's eviction), kept in a heap so the
//!   wait's timeout is one `peek`; with no deadline pending the wait has
//!   no timeout.
//!
//! A wake visits exactly the connections those events name, plus the ones
//! the previous wake left with runnable work (frames deferred by the
//! fairness budget, a read cut off by `READ_BUDGET`) — never the whole
//! shard. A visit ([`sweep_conn`]):
//!
//! 1. completes a parked submit/modify whose reply arrived;
//! 2. reads whatever the socket has, bounded by `READ_BUDGET`, into the
//!    connection's [`FrameReader`];
//! 3. parses each complete frame once and decodes it with
//!    [`Request::decode`], handshake and session alike (the grammar is
//!    `wire.rs`'s; [`open_session`] lives in `tcp_service.rs`). What a
//!    frame that fails costs is decided here: before the handshake, the
//!    connection; inside a session, the frame — bytes that are no JSON
//!    text are not answered, JSON that is no request gets a `reject`, so
//!    that its sender does not wait out a timeout;
//! 4. drains the connection's [`Outbox`] (broadcasts queued by the apply
//!    thread) into its [`FrameWriter`], honoring `writer_pace`, and runs
//!    the eviction clock of a lagging one;
//! 5. flushes the writer as far as the socket accepts;
//! 6. closes the connection if it said `bye`, hung up, or sat idle.
//!
//! Afterwards the shard re-arms the socket's epoll interest (read unless
//! the peer is done sending, write only while the writer is non-empty) and
//! the connection's next deadline.
//!
//! ## Outbox policy
//!
//! The slow-reader policy is split where the threads split. The
//! [`Outbox`] is what broadcast producers see: a bounded buffer and a
//! lagging downgrade with dropped-frame accounting when it overflows. The
//! rest is the owning shard's: the `lagging` note once the
//! buffer drains, `writer_pace` spacing consecutive broadcast frames, and
//! eviction — the first visit that sees the lagging flag stamps the
//! eviction clock, `evict_after` later the connection's deadline fires and
//! the shard closes it unless a `sync` healed it first. The shard owns the
//! connection's only descriptor; nothing off-shard ever closes a socket.
//! Acks and other replies go straight to the connection's
//! [`FrameWriter`]: they are neither bounded by the outbox nor paced.
//!
//! ## Per-collection fairness
//!
//! Each wake gives every collection a frame budget
//! (`COLLECTION_FRAMES_PER_WAKE`); a connection whose collection has
//! exhausted its budget keeps its frames buffered and is visited again on
//! the next wake, which follows at once. One hot collection can therefore
//! saturate neither a shard's CPU nor another collection's admission — the
//! quiet collection's frames are served on the same wake.

use crate::backend::{BatchOp, SubmitError, SubmitReport};
use crate::batch::AsyncSubmit;
use crate::overload::{OverloadOptions, Priority};
use crate::tcp_service::{
    close_session, flush_outboxes, health_reply, m_evictions, m_lag_downgrades, m_lag_dropped,
    open_session, result_frame, sync_reply, Collection, Opened, ServiceMetrics, ServiceShared,
};
use crate::wire::{self, Reply, Request};
use crowdfill_net::{ConnError, FrameReader, FrameWriter, Interest, Poller, WakeQueue};
use crowdfill_obs::metrics::{Counter, Gauge, Histogram};
use crowdfill_obs::trace::{self as obstrace, TraceId};
use crowdfill_obs::SpanTimer;
use crowdfill_pay::WorkerId;
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, VecDeque};
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

/// Frames deferred to a later wake by the per-collection fairness budget.
fn m_fairness_deferrals() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| crowdfill_obs::metrics::counter("crowdfill_reactor_fairness_deferrals"))
}

/// Returns from `epoll_wait`, all shards. Flat on an idle service.
fn m_wakeups() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| crowdfill_obs::metrics::counter("crowdfill_reactor_wakeups"))
}

/// Connection visits ([`sweep_conn`] calls): grows with the connections
/// that had something to do, not with the connections a shard owns.
fn m_conn_visits() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| crowdfill_obs::metrics::counter("crowdfill_reactor_conn_visits"))
}

/// Request frames one collection may consume per shard wake before its
/// connections yield to other collections.
const COLLECTION_FRAMES_PER_WAKE: usize = 64;

/// Max bytes read from one socket per visit.
const READ_BUDGET: usize = 64 * 1024;

/// Tunables for the sharded reactor (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct ReactorOptions {
    /// Number of shard threads; `0` (the default) picks one per available
    /// core, capped at 4 (a shard is syscall-bound, more shards only
    /// shuffle work).
    pub shards: usize,
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

/// What another thread hands a shard blocked in `epoll_wait`; the `u64`s
/// are connection tokens of that shard.
pub(crate) enum Wake {
    /// A freshly accepted socket to adopt (accept thread).
    Inject(TcpStream),
    /// The connection's [`Outbox`] has a broadcast to drain (apply thread).
    Broadcast(u64),
    /// The batch pipeline settled the connection's parked submit/modify.
    Reply(u64, Result<SubmitReport, SubmitError>),
    /// Close the connection (`TcpService::disconnect_all`): the shard owns
    /// the socket, so an off-shard close is a request, not a `shutdown`.
    Close(u64),
}

/// One shard's wake queue, shared with everything that can wake it.
pub(crate) type ShardWake = Arc<WakeQueue<Wake>>;

/// The epoll token of a shard's own wake queue (connection tokens count
/// up from zero and never get there).
const WAKE_TOKEN: u64 = u64::MAX;

/// The server-side send half of one connection, as broadcast producers
/// (the apply thread's after-batch flush) see it: a bounded broadcast
/// buffer and the lagging flag it raises when the buffer overflows.
/// Enqueuing is non-blocking, so one stalled reader can never wedge the
/// broadcast flush path for everyone else; it wakes the owning shard,
/// which drains the buffer — and runs a lagging connection's eviction
/// clock — on its next visit. Producers touch only this handle, never the
/// socket.
pub struct Outbox {
    peer: String,
    /// The owning shard's wake queue and this connection's token there.
    wake: ShardWake,
    token: u64,
    queue: Mutex<VecDeque<Vec<u8>>>,
    capacity: usize,
    /// Set when the broadcast buffer overflows. While lagging, broadcasts
    /// to this connection are counted and dropped — the client's exact-seq
    /// tracking means a later `sync`/`resume` replays precisely what was
    /// missed — and the shard's eviction clock runs.
    lagging: AtomicBool,
    /// A `lagging` note owed to the client, emitted by the shard once the
    /// buffer makes progress.
    note_pending: AtomicBool,
}

impl Outbox {
    fn new(peer: String, overload: &OverloadOptions, wake: ShardWake, token: u64) -> Outbox {
        Outbox {
            peer,
            wake,
            token,
            queue: Mutex::new(VecDeque::new()),
            capacity: overload.write_buffer_frames.max(1),
            lagging: AtomicBool::new(false),
            note_pending: AtomicBool::new(false),
        }
    }

    /// Queues one broadcast frame, non-blocking. A full buffer downgrades
    /// the connection to lagging and wakes the shard once, on that
    /// transition, so that it starts the eviction clock: a connection
    /// still lagging [`OverloadOptions::evict_after`] later is closed (the
    /// session survives — the client reconnects and resumes).
    pub(crate) fn enqueue_broadcast(&self, frame: Vec<u8>) {
        if self.is_lagging() {
            m_lag_dropped().inc();
            return;
        }
        let mut q = self.queue.lock();
        if q.len() >= self.capacity {
            drop(q);
            // Watermark crossed: stop buffering for this reader. It is
            // told to catch up via `sync` (which also clears the flag);
            // until then broadcasts to it are dropped, not queued.
            if !self.lagging.swap(true, Ordering::AcqRel) {
                self.note_pending.store(true, Ordering::Release);
                m_lag_downgrades().inc();
                crowdfill_obs::obs_warn!(
                    "server",
                    "client {} lagging: write buffer full, downgraded to sync",
                    self.peer
                );
                self.wake.push(Wake::Broadcast(self.token));
            }
            m_lag_dropped().inc();
        } else {
            q.push_back(frame);
            drop(q);
            self.wake.push(Wake::Broadcast(self.token));
        }
    }

    /// Pops one queued broadcast (shard-side drain).
    fn pop_broadcast(&self) -> Option<Vec<u8>> {
        self.queue.lock().pop_front()
    }

    fn has_broadcasts(&self) -> bool {
        !self.queue.lock().is_empty()
    }

    /// Takes the owed lagging note, if any.
    fn take_note(&self) -> bool {
        self.note_pending.swap(false, Ordering::AcqRel)
    }

    fn is_lagging(&self) -> bool {
        self.lagging.load(Ordering::Acquire)
    }

    /// Clears the lagging flag. Called by the `sync` handler *before* the
    /// catch-up suffix is computed under the backend lock: every broadcast
    /// dropped while lagging then has a seq below the history length the
    /// reply covers, and anything newer is enqueued normally (overlap is
    /// healed by the client's seq dedup).
    fn clear_lagging(&self) {
        self.lagging.store(false, Ordering::Release);
    }

    /// Asks the owning shard to close the connection.
    pub(crate) fn request_close(&self) {
        self.wake.push(Wake::Close(self.token));
    }
}

/// Spawns the shard pool; returns the join handles and one wake queue per
/// shard (the accept thread injects sockets round-robin, `stop` wakes them
/// all). Each shard costs two descriptors, created here so that running
/// out of them fails the start instead of a thread.
pub(crate) fn start_shards(
    options: &ReactorOptions,
    shared: Arc<ServiceShared>,
    shutdown: Arc<AtomicBool>,
) -> std::io::Result<(Vec<std::thread::JoinHandle<()>>, Vec<ShardWake>)> {
    let n = options.effective_shards();
    let mut handles = Vec::with_capacity(n);
    let mut wakes = Vec::with_capacity(n);
    for i in 0..n {
        let poller = Poller::new()?;
        let wake: ShardWake = Arc::new(WakeQueue::new()?);
        poller.register(&*wake, WAKE_TOKEN, Interest::READ)?;
        wakes.push(Arc::clone(&wake));
        let shard = Shard {
            poller,
            wake,
            shared: Arc::clone(&shared),
            budgets: Budgets::new(&shared),
            conns: HashMap::new(),
            next_token: 0,
            run: Vec::new(),
            timers: BinaryHeap::new(),
        };
        let shutdown = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name(format!("crowdfill-shard-{i}"))
            .spawn(move || shard.run(&shutdown))?;
        handles.push(handle);
    }
    crowdfill_obs::obs_info!("server", "reactor started with {n} shards");
    Ok((handles, wakes))
}

/// A submit/modify parked on the batch pipeline's reply.
struct PendingReply {
    /// Filled in by [`Wake::Reply`]; step 1 of the next visit answers it.
    result: Option<Result<SubmitReport, SubmitError>>,
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
    /// The eviction clock: when a visit first saw the outbox lagging. A
    /// `sync` clears it with the flag.
    lagging_since: Option<Instant>,
}

impl Session {
    /// Hands a decoded submit/modify to the collection's batch pipeline.
    /// If admission settles it on the spot the reply is queued now;
    /// otherwise the connection parks — the shard goes back to its other
    /// conns (or to sleep) until the apply thread pushes the result onto
    /// its wake queue.
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
        let (wake, token) = (Arc::clone(&self.outbox.wake), self.outbox.token);
        let reply = move |result| wake.push(Wake::Reply(token, result));
        let pipeline = &self.collection.pipeline;
        match pipeline.submit_async(self.worker, op, priority, trace, reply) {
            AsyncSubmit::Done(result) => {
                self.record_latency(record_hist, submitted_at, metrics);
                queue_frame(writer, dead, &result_frame(result, trace));
            }
            AsyncSubmit::Pending => {
                self.pending = Some(PendingReply {
                    result: None,
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
    /// This connection's key in the shard's map, its epoll token, and what
    /// other threads name it by on the wake queue. Never reused.
    token: u64,
    reader: FrameReader,
    writer: FrameWriter,
    phase: Phase,
    /// Reply written, nothing more to read: close once the writer drains.
    closing: bool,
    /// Peer half-closed; serve what is buffered, then close.
    peer_eof: bool,
    dead: bool,
    last_activity: Instant,
    /// What the socket is registered for in the shard's epoll set.
    interest: Interest,
    /// epoll reported the socket dead in both directions.
    hangup: bool,
    /// Already on the shard's run list for the coming visit.
    queued: bool,
    /// The earliest deadline this connection has in the shard's timer heap.
    armed: Option<Instant>,
}

impl ConnState {
    fn adopt(stream: TcpStream, token: u64) -> Option<ConnState> {
        stream.set_nonblocking(true).ok()?;
        let _ = stream.set_nodelay(true);
        Some(ConnState {
            stream,
            token,
            reader: FrameReader::new(),
            writer: FrameWriter::new(),
            phase: Phase::Handshake,
            closing: false,
            peer_eof: false,
            dead: false,
            last_activity: Instant::now(),
            interest: Interest::READ,
            hangup: false,
            queued: false,
            armed: None,
        })
    }

    /// When this connection next needs a visit that no event will
    /// announce: its idle timeout, the release of a paced broadcast, or
    /// its eviction if it is lagging.
    fn next_deadline(&self, shared: &ServiceShared) -> Option<Instant> {
        let overload = &shared.options.overload;
        let idle = shared.options.idle_timeout.map(|t| self.last_activity + t);
        let (pace, evict) = match &self.phase {
            Phase::Active(session) => (
                overload
                    .writer_pace
                    .filter(|_| session.outbox.has_broadcasts())
                    .and_then(|pace| session.last_broadcast_pop.map(|t| t + pace)),
                session.lagging_since.map(|t| t + overload.evict_after),
            ),
            Phase::Handshake => (None, None),
        };
        [idle, pace, evict].into_iter().flatten().min()
    }
}

/// Queues a reply frame on a connection's writer (free function so
/// callers holding a borrow of `conn.phase` can still reach the writer).
fn queue_frame(writer: &mut FrameWriter, dead: &mut bool, reply: &Reply<'_>) {
    queue_encoded(writer, dead, &reply.encode());
}

/// [`queue_frame`] for a reply that was encoded where it was built (a
/// `welcome` under the backend lock, a catch-up off it).
fn queue_encoded(writer: &mut FrameWriter, dead: &mut bool, reply: &str) {
    if writer.enqueue(reply.as_bytes()).is_err() {
        *dead = true;
    }
}

/// Per-wake fairness budgets, keyed by collection name. The collection
/// set is fixed at service start; an entry is refilled the first time a
/// wake touches it, so starting a wake costs nothing per collection.
struct Budgets {
    wake: u64,
    /// Collection → (the wake it was last refilled for, frames left).
    left: HashMap<String, (u64, usize)>,
}

impl Budgets {
    fn new(shared: &ServiceShared) -> Budgets {
        Budgets {
            wake: 0,
            left: shared
                .collections
                .keys()
                .map(|name| (name.clone(), (0, COLLECTION_FRAMES_PER_WAKE)))
                .collect(),
        }
    }

    fn next_wake(&mut self) {
        self.wake += 1;
    }

    /// Frames `collection` may still consume on this wake.
    fn left(&mut self, collection: &str) -> Option<&mut usize> {
        let (wake, left) = self.left.get_mut(collection)?;
        if *wake != self.wake {
            (*wake, *left) = (self.wake, COLLECTION_FRAMES_PER_WAKE);
        }
        Some(left)
    }
}

/// One shard thread's state.
struct Shard {
    poller: Poller,
    wake: ShardWake,
    shared: Arc<ServiceShared>,
    budgets: Budgets,
    conns: HashMap<u64, ConnState>,
    next_token: u64,
    /// Connections to visit on the coming wake (each at most once, see
    /// `ConnState::queued`). Non-empty across a wait only for connections
    /// carried over with runnable work; the wait then does not block.
    run: Vec<u64>,
    /// Pending deadlines, nearest first. An entry is live only while it
    /// equals its connection's `armed`; superseded ones are skipped when
    /// they surface.
    timers: BinaryHeap<Reverse<(Instant, u64)>>,
}

impl Shard {
    fn run(mut self, shutdown: &AtomicBool) {
        let mut events = Vec::new();
        let mut woken = Vec::new();
        loop {
            let timeout = if !self.run.is_empty() {
                Some(Duration::ZERO)
            } else {
                let nearest = self.timers.peek();
                nearest.map(|Reverse((at, _))| at.saturating_duration_since(Instant::now()))
            };
            events.clear();
            self.poller
                .wait(&mut events, timeout)
                .expect("epoll_wait on the shard's own epoll fd");
            m_wakeups().inc();
            for event in &events {
                if event.token == WAKE_TOKEN {
                    self.wake.drain(&mut woken);
                } else {
                    self.schedule(event.token, event.hangup);
                }
            }
            if shutdown.load(Ordering::SeqCst) {
                g_conns().add(-(self.conns.len() as i64));
                for conn in self.conns.values_mut() {
                    retire(conn, &self.shared);
                }
                return;
            }
            for wake in woken.drain(..) {
                match wake {
                    Wake::Inject(stream) => self.adopt(stream),
                    Wake::Broadcast(token) => self.schedule(token, false),
                    Wake::Close(token) => self.schedule(token, true),
                    Wake::Reply(token, result) => {
                        let parked = self.conns.get_mut(&token).and_then(|c| match &mut c.phase {
                            Phase::Active(session) => session.pending.as_mut(),
                            Phase::Handshake => None,
                        });
                        if let Some(pending) = parked {
                            pending.result = Some(result);
                            self.schedule(token, false);
                        }
                    }
                }
            }
            self.fire_timers();
            self.budgets.next_wake();
            // A visit appends what it carries over; only the tokens that
            // were due on this wake are visited and removed.
            let due = self.run.len();
            for i in 0..due {
                self.visit(self.run[i]);
            }
            self.run.drain(..due);
        }
    }

    /// Puts a connection on the run list. A token that no longer resolves
    /// (a stale event, a late reply or an old deadline of a retired
    /// connection) is dropped here.
    fn schedule(&mut self, token: u64, hangup: bool) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.hangup |= hangup;
        if !conn.queued {
            conn.queued = true;
            self.run.push(token);
        }
    }

    fn adopt(&mut self, stream: TcpStream) {
        let token = self.next_token;
        self.next_token += 1;
        let Some(conn) = ConnState::adopt(stream, token) else {
            return;
        };
        if self
            .poller
            .register(&conn.stream, token, conn.interest)
            .is_err()
        {
            return; // out of epoll watches: refuse the connection
        }
        self.conns.insert(token, conn);
        g_conns().add(1);
        // First visit: the hello may already be in, and the idle deadline
        // wants arming either way.
        self.schedule(token, false);
    }

    /// Moves every connection whose deadline has passed onto the run list.
    fn fire_timers(&mut self) {
        if self.timers.is_empty() {
            return;
        }
        let now = Instant::now();
        while let Some(&Reverse((at, token))) = self.timers.peek() {
            if at > now {
                break;
            }
            self.timers.pop();
            if let Some(conn) = self.conns.get_mut(&token) {
                if conn.armed == Some(at) {
                    conn.armed = None;
                    self.schedule(token, false);
                }
            }
        }
    }

    /// Serves one connection, then settles what it waits for next: retire
    /// it, or re-arm its epoll interest and deadline, and carry it over to
    /// the next wake if it was left with work no event will announce.
    fn visit(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.queued = false;
        let runnable = sweep_conn(conn, &self.shared, &mut self.budgets, &self.wake);
        // A hung-up socket takes no more writes (and a `Wake::Close` is
        // served as one): whatever the visit could still read out of it
        // has been served, the rest is teardown.
        conn.dead |= conn.hangup;
        if !conn.dead {
            let want = Interest {
                read: !conn.peer_eof && !conn.closing,
                write: !conn.writer.is_empty(),
            };
            if want != conn.interest {
                match self.poller.rearm(&conn.stream, token, want) {
                    Ok(()) => conn.interest = want,
                    Err(_) => conn.dead = true,
                }
            }
        }
        if conn.dead {
            retire(conn, &self.shared);
            self.conns.remove(&token);
            g_conns().add(-1);
            return;
        }
        if let Some(at) = conn.next_deadline(&self.shared) {
            if conn.armed.is_none_or(|armed| at < armed) {
                conn.armed = Some(at);
                self.timers.push(Reverse((at, token)));
            }
        }
        if runnable {
            conn.queued = true;
            self.run.push(token);
        }
    }
}

/// Tears down one connection: its socket, then its session, if it got
/// that far. The caller drops the `ConnState` next, which closes the
/// socket's only descriptor and with it the epoll registration.
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

/// One visit to one connection (steps 1–6 of the module docs). Returns
/// true if it leaves work that no socket event, wake or deadline will
/// announce — the connection must be visited again on the next wake.
fn sweep_conn(
    conn: &mut ConnState,
    shared: &ServiceShared,
    budgets: &mut Budgets,
    wake: &ShardWake,
) -> bool {
    m_conn_visits().inc();
    let mut runnable = false;

    // 1. A parked submit/modify completes independently of socket traffic.
    if let Phase::Active(session) = &mut conn.phase {
        match session.pending.take() {
            Some(PendingReply {
                result: Some(result),
                trace,
                submitted_at,
                record_hist,
            }) => {
                session.record_latency(record_hist, submitted_at, &shared.metrics);
                let reply = result_frame(result, trace);
                queue_frame(&mut conn.writer, &mut conn.dead, &reply);
            }
            still_parked => session.pending = still_parked,
        }
    }

    // 2. Pull whatever the socket has, bounded.
    if !conn.peer_eof && !conn.closing {
        match conn.reader.fill_from(&mut conn.stream, READ_BUDGET) {
            Ok(0) => conn.peer_eof = true,
            Ok(n) => {
                conn.last_activity = Instant::now();
                // Cut off by the budget: the socket may hold more.
                runnable |= n >= READ_BUDGET;
            }
            Err(ConnError::Empty) => {}
            Err(_) => {
                conn.dead = true;
                return false;
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
            if budgets
                .left(session.collection.name())
                .is_some_and(|b| *b == 0)
            {
                if conn.reader.pending_bytes() >= 4 {
                    m_fairness_deferrals().inc();
                    runnable = true;
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
                return false;
            }
        };
        m_frames_in().inc();
        if let Phase::Active(session) = &conn.phase {
            if let Some(b) = budgets.left(session.collection.name()) {
                *b -= 1;
            }
        }
        // One parse and one decode, whatever the phase; what a failure
        // costs is the phase's call (step 3 of the module docs).
        let request = match wire::parse_frame(&frame).map(|json| Request::decode(&json)) {
            Ok(Ok(request)) => request,
            failed => {
                shared.metrics.malformed_frames.inc();
                match (&conn.phase, failed) {
                    (Phase::Handshake, _) => conn.dead = true,
                    (_, Ok(Err(e))) => {
                        queue_frame(&mut conn.writer, &mut conn.dead, &Reply::reject(e))
                    }
                    _ => {}
                }
                continue;
            }
        };
        if matches!(conn.phase, Phase::Handshake) {
            serve_handshake(conn, request, shared, wake);
        } else {
            serve_request(conn, request, shared);
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
                    break; // at most one paced broadcast per visit
                }
            }
            let Some(frame) = session.outbox.pop_broadcast() else {
                break;
            };
            if conn.writer.enqueue(&frame).is_err() {
                conn.dead = true;
                return false;
            }
            session.last_broadcast_pop = Some(Instant::now());
            popped = true;
        }
        if popped && session.outbox.take_note() {
            queue_frame(&mut conn.writer, &mut conn.dead, &Reply::Lagging);
            if conn.dead {
                return false;
            }
        }
        // The eviction clock starts on the first visit that sees the
        // flag (the lagging transition wakes the shard for it) and runs
        // out on the deadline `next_deadline` arms from it.
        if session.outbox.is_lagging() {
            let evict_after = shared.options.overload.evict_after;
            let since = *session.lagging_since.get_or_insert_with(Instant::now);
            if since.elapsed() >= evict_after {
                m_evictions().inc();
                crowdfill_obs::obs_warn!(
                    "server",
                    "evicting slow client {} (lagging past {evict_after:?})",
                    session.outbox.peer
                );
                conn.dead = true;
                return false;
            }
        }
    }

    // 5. Flush as much as the socket accepts.
    if !conn.writer.is_empty() && conn.writer.flush(&mut conn.stream).is_err() {
        conn.dead = true;
        return false;
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
    runnable
}

/// Serves the connection's first frame (`hello`/`resume`) via
/// [`open_session`].
fn serve_handshake(
    conn: &mut ConnState,
    request: Request,
    shared: &ServiceShared,
    wake: &ShardWake,
) {
    match open_session(request, shared) {
        Ok(Opened {
            collection,
            worker,
            epoch,
            reply,
        }) => {
            // Handshake reply enters the writer FIRST: the single outbound
            // queue guarantees no broadcast precedes the welcome.
            queue_encoded(&mut conn.writer, &mut conn.dead, &reply);
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
            let outbox = Arc::new(Outbox::new(
                peer,
                &shared.options.overload,
                Arc::clone(wake),
                conn.token,
            ));
            collection
                .registry
                .lock()
                .insert(worker, Arc::clone(&outbox));
            // Cover broadcasts that landed between the backend call and
            // registration (they sit behind the handshake reply).
            flush_outboxes(&collection.backend, vec![(worker, Arc::clone(&outbox))]);
            let ack_hist = collection.backend.lock().worker_ack_histogram(worker);
            conn.phase = Phase::Active(Session {
                collection,
                worker,
                epoch,
                outbox,
                ack_hist,
                pending: None,
                last_broadcast_pop: None,
                lagging_since: None,
            });
        }
        Err(Some(refusal)) => {
            queue_frame(&mut conn.writer, &mut conn.dead, &refusal);
            conn.closing = true;
        }
        Err(None) => conn.dead = true,
    }
}

/// Serves one in-session request.
fn serve_request(conn: &mut ConnState, request: Request, shared: &ServiceShared) {
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
    let metrics = &shared.metrics;
    let _request_timer = SpanTimer::start(&metrics.request_latency_ns);
    let backend = &session.collection.backend;
    match request {
        Request::Submit((msg, auto_upvote), speculative, trace) => {
            metrics.submit_requests.inc();
            let priority = match speculative {
                true => Priority::Speculative,
                false => Priority::Normal,
            };
            let op = BatchOp::Msg { msg, auto_upvote };
            session.submit_op(op, priority, trace, metrics, writer, dead);
        }
        Request::Modify(bundle, trace) => {
            metrics.modify_requests.inc();
            let op = BatchOp::Modify { bundle };
            session.submit_op(op, Priority::Normal, trace, metrics, writer, dead);
        }
        Request::Sync(cursor) => {
            metrics.sync_requests.inc();
            // Clear-before-suffix, see `sync_reply`.
            session.outbox.clear_lagging();
            session.lagging_since = None;
            let reply = sync_reply(backend, session.worker, &cursor, metrics);
            queue_encoded(writer, dead, &reply);
        }
        Request::Stats => {
            metrics.stats_requests.inc();
            let snapshot = crowdfill_obs::metrics::global().snapshot();
            queue_frame(writer, dead, &Reply::Stats(snapshot));
        }
        Request::Health => {
            metrics.health_requests.inc();
            let reply = health_reply(backend, shared.telemetry.as_deref());
            queue_frame(writer, dead, &reply);
        }
        Request::TraceDump => {
            metrics.trace_dump_requests.inc();
            // The recorder's ring, this thread's buffered events included.
            obstrace::flush_thread();
            let events = obstrace::recorder().dump_jsonl();
            queue_frame(writer, dead, &Reply::TraceDump(events));
        }
        Request::Bye => *closing = true,
        Request::Hello(_) | Request::Resume(..) => {
            metrics.malformed_frames.inc();
            queue_frame(writer, dead, &Reply::reject("a session is already open"));
        }
    }
}
