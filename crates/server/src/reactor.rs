//! # Sharded event-driven connection layer
//!
//! A thread (or two) per connection is thousands of stacks and a
//! scheduler meltdown at thousands of workers; a thread per collection is
//! the same mistake one level up. The reactor instead runs a small fixed
//! pool of *shard* threads, each with one `epoll` instance and one wake
//! queue ([`crowdfill_net::poller`]) — total server threads are O(pool
//! size), not O(connections) nor O(collections), and a shard with nothing
//! to do is blocked in the kernel, not polling.
//!
//! ## Ownership
//!
//! A collection is owned by exactly one shard ([`owner_shard`]: a hash of
//! its name over the shard count, fixed at start). The owner holds the
//! collection's [`BatchPipeline`] (its admission queue) and every
//! connection attached to it, so everything an op needs — queue, backend,
//! the author's socket and its peers' — is on the thread that read the
//! op, and nothing about a connection or a queue is locked or handed
//! between threads. So are its periodic jobs: the durability and progress
//! ticks of a collection are deadlines of its owner, and the collection's
//! telemetry fold — the one reader of its op log that a `health` request
//! and a progress tick both advance — is a field of [`Owned`].
//!
//! One shard is also the *acceptor*: the lowest-indexed one that owns a
//! collection. The listening socket is one more fd in its epoll set. The
//! acceptor knows no collection until it has read the `hello`/`resume`; if
//! that names one it does not own, it deregisters the socket and hands the
//! whole connection, with the decoded request, to the owner over its wake
//! queue ([`Wake::HandOver`]) — one hop, once per connection, and none at
//! all on a service with one collection. The shards are all the threads
//! there are.
//!
//! ## What wakes a shard
//!
//! A shard blocks in `epoll_wait` until one of these happens:
//!
//! * a socket of its own is readable, is writable while its
//!   [`FrameWriter`] holds bytes, or hung up;
//! * the listener is readable (the acceptor only): it accepts until the
//!   queue is empty, at most `ACCEPTS_PER_WAKE` per wake, and adopts each
//!   socket on the spot, so a `hello` that is already in is served by the
//!   sweep that accepted it;
//! * another thread pushed a [`Wake`] onto its queue: another shard hands
//!   a connection over, `TcpService::disconnect_all` asks for every
//!   session's close, or `TcpService::stop` raised the shutdown flag (one
//!   wake per shard each);
//! * its nearest deadline ([`Due`]) passed — a connection's
//!   (`idle_timeout`, the eviction of a lagging session or of a socket that
//!   never finished its handshake), the end of a batch's `max_wait`
//!   window, a durability tick (on a shard owning a collection with
//!   storage) or a progress tick (with a stopping policy) over the shard's
//!   collections, or `Due::Accept`, the end of the back-off after a failed
//!   `accept` — kept in a heap so the wait's timeout is one `peek`; with no
//!   deadline pending the wait has no timeout. A deadline that was
//!   superseded (re-armed, or voided by a completed handshake) is dropped
//!   before the wait, so it ends none. A shard never sleeps: a listener
//!   that cannot accept (`EMFILE`) loses its read interest until
//!   `Due::Accept` gives it back, 10 ms later, doubling up to 1 s.
//!
//! Nothing else is periodic. The service objectives' readings
//! ([`ReadingRing::advance`](crowdfill_obs::timeseries::ReadingRing::advance))
//! are taken at the top of every wake, before it records anything, on
//! whichever shard it is — the only place their instruments move — and
//! `health` requests on any shard read them through the shared ring. So a
//! default service with nothing to do never wakes.
//!
//! ## What a wake does
//!
//! A wake visits exactly the connections those events name, plus the ones
//! the previous wake left with runnable work (frames deferred by the
//! fairness budget, a read cut off by `READ_BUDGET`, frames pipelined
//! behind an op that has now settled) — never the whole shard. It is one
//! sweep in three passes:
//!
//! 1. **Serve** each such connection: read whatever its socket has,
//!    bounded by `READ_BUDGET`, into its [`FrameReader`]; parse each
//!    complete frame once and decode it with [`Request::decode`], handshake
//!    and session alike (the grammar is `wire.rs`'s; [`open_session`] lives
//!    in `tcp_service.rs`). What a frame that fails costs is decided here:
//!    before the handshake, the connection; inside a session, the frame —
//!    bytes that are no JSON text are not answered, JSON that is no request
//!    gets a `reject`, so that its sender does not wait out a timeout.
//!    Control requests are answered into the [`FrameWriter`] on the spot;
//!    a `health` first advances its collection's fold over what the log
//!    grew by, under the backend lock, then reads it.
//!    A `submit`/`modify` is admitted into its collection's queue, stamped
//!    with the read time, or refused there (`overloaded`); once one is
//!    admitted the connection's later frames wait until it settles, so
//!    replies stay in request order.
//! 2. **Apply** each collection the sweep admitted into (or whose fill
//!    window ran out): form the batch (`max_batch` caps it; more than that
//!    makes a second one), shed what outwaited `shed_after`, take the
//!    backend lock **once**, [`submit_batch`](crate::Backend::submit_batch)
//!    — one journal frame, one fsync — and read every attached session's undelivered log suffix
//!    under the same lock. Then encode, batch by batch: acks into the
//!    authors' writers, then each broadcast, encoded once, into every
//!    recipient's writer.
//! 3. **Finish** the collection's connections — recipients first, authors
//!    last, so an action is on its peers' sockets no later than its author
//!    is told — then every other served connection: run the eviction clock
//!    of a lagging one; flush the writer as far as the socket accepts;
//!    close it if it said `bye`, hung up, or sat idle; else re-arm its
//!    epoll interest (read unless the peer is done sending, write only
//!    while the writer is non-empty) and its next deadline.
//!
//! So an action costs its shard one wake: read, apply, journal, broadcast
//! and ack all happen before it blocks again.
//!
//! ## Slow readers
//!
//! A connection has one outbound buffer, its [`FrameWriter`]: what the
//! socket has not taken yet waits there. A broadcast that finds the writer
//! already holding `write_buffer_frames` frames downgrades the session to
//! *lagging*: the client is told at once (`lagging`, right behind the last
//! broadcast it was sent), that broadcast and later ones are counted and
//! dropped, and a `sync` heals it, replaying exactly what was dropped. The downgrade
//! starts the eviction clock; `evict_after` later the connection's deadline
//! fires and the shard closes it unless a `sync` healed it first. A socket
//! that has not completed its handshake `evict_after` after it was accepted
//! goes the same way: a peer that never says `hello` does not hold a
//! descriptor for good. Acks and other replies are never dropped: they go
//! into the writer whatever it holds, and count against the watermark for
//! the broadcasts behind them.
//!
//! ## Per-collection fairness
//!
//! Each wake gives every collection a frame budget
//! (`COLLECTION_FRAMES_PER_WAKE`); a connection whose collection has
//! exhausted its budget keeps its frames buffered and is visited again on
//! the next wake, which follows at once. One hot collection can therefore
//! saturate neither a shard's CPU nor another collection's admission — the
//! quiet collection's frames are served on the same wake.

use crate::backend::BatchOp;
use crate::batch::{BatchPipeline, Submission};
use crate::overload::Priority;
use crate::progress::ProgressTracker;
use crate::tcp_service::{
    broadcast_frames, durability_tick, health_reply, m_evictions, m_lag_downgrades, m_lag_dropped,
    open_session, poll_broadcasts, progress_tick, publish_snapshot_age, result_frame, sync_reply,
    Collection, Opened, ServiceMetrics, ServiceShared,
};
use crate::wire::{self, Reply, Request};
use crowdfill_net::{ConnError, FrameReader, FrameWriter, Interest, Poller, TcpServer, WakeQueue};
use crowdfill_obs::metrics::{Counter, Gauge, Histogram};
use crowdfill_obs::trace as obstrace;
use crowdfill_obs::SpanTimer;
use crowdfill_pay::WorkerId;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::{DefaultHasher, Hash, Hasher};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering;
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

/// Connection visits (serve passes): grows with the connections that had
/// something to do, not with the connections a shard owns. Each shard also
/// counts its own under `crowdfill_reactor_shard_<i>_conn_visits`.
fn m_conn_visits() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| crowdfill_obs::metrics::counter("crowdfill_reactor_conn_visits"))
}

/// Connections handed to the shard that owns their collection.
fn m_handovers() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| crowdfill_obs::metrics::counter("crowdfill_reactor_handovers"))
}

/// Request frames one collection may consume per shard wake before its
/// connections yield to other collections.
const COLLECTION_FRAMES_PER_WAKE: usize = 64;

/// Max bytes read from one socket per visit.
const READ_BUDGET: usize = 64 * 1024;

/// The shard, of `shards`, that owns `collection`.
pub(crate) fn owner_shard(collection: &str, shards: usize) -> usize {
    let mut hasher = DefaultHasher::new();
    collection.hash(&mut hasher);
    (hasher.finish() % shards.max(1) as u64) as usize
}

/// What another thread hands a shard blocked in `epoll_wait`.
pub(crate) enum Wake {
    /// A connection whose handshake — the request — names a collection
    /// this shard owns, read by the shard that accepted the socket.
    HandOver(Box<ConnState>, Request),
    /// Close every open session (`TcpService::disconnect_all`): a shard
    /// owns its sockets, so an off-shard close is a request, not a
    /// `shutdown`.
    CloseAll,
}

/// One shard's wake queue, shared with everything that can wake it.
pub(crate) type ShardWake = Arc<WakeQueue<Wake>>;

/// The epoll tokens of a shard's own wake queue and of the listener
/// (connection tokens count up from zero and never get there).
const WAKE_TOKEN: u64 = u64::MAX;
const LISTEN_TOKEN: u64 = u64::MAX - 1;

/// Sockets accepted per wake; epoll is level-triggered, so the rest of a
/// connect storm re-fires the listener and the sessions get served between.
const ACCEPTS_PER_WAKE: usize = 64;

/// How long the listener stays out of the epoll set after a failed
/// `accept` (fd exhaustion, a transient socket error) — a level-triggered
/// listener that cannot accept would otherwise spin its shard: 10 ms,
/// doubling per consecutive failure up to 1 s; a success starts over.
const ACCEPT_BACKOFF_BASE: Duration = Duration::from_millis(10);
const ACCEPT_BACKOFF_MAX: Duration = Duration::from_secs(1);

/// How often the progress tick runs, with a stopping policy set.
const PROGRESS_INTERVAL: Duration = Duration::from_millis(500);

/// The back-off after the one that was `wait`.
fn next_backoff(wait: Duration) -> Duration {
    (wait * 2).min(ACCEPT_BACKOFF_MAX)
}

/// What the acceptor holds besides its collections.
struct Acceptor {
    listener: TcpServer,
    /// How long the next failed `accept` backs off.
    backoff: Duration,
}

/// One collection, as the shard that owns it holds it.
struct Owned {
    collection: Arc<Collection>,
    pipeline: BatchPipeline,
    /// The attached sessions' connections, by worker: whom a batch's
    /// broadcasts go to.
    sessions: HashMap<WorkerId, u64>,
    /// Fairness: the wake this was last refilled for, and frames left.
    budget: (u64, usize),
    /// On the shard's list of collections to apply on this wake.
    dirty: bool,
    /// The end of the batch fill window, while it is in the timer heap.
    armed: Option<Instant>,
    /// The collection's telemetry: one fold of its op log, advanced by a
    /// `health` request and by the progress tick alike.
    fold: ProgressTracker,
    /// Whether the stopping policy has acted on the collection.
    acted: bool,
}

impl Owned {
    /// Frames the collection may still consume on wake `wake`; refilled
    /// the first time a wake asks.
    fn frames_left(&mut self, wake: u64) -> &mut usize {
        if self.budget.0 != wake {
            self.budget = (wake, COLLECTION_FRAMES_PER_WAKE);
        }
        &mut self.budget.1
    }
}

/// Spawns the shard pool — every thread the service runs — shard `i`
/// owning the collections (and their pipelines) in `owned[i]`, the first
/// that owns any also the listener; returns the join handles and one wake
/// queue per shard (`stop` wakes them all). Each shard costs two
/// descriptors, created here so that running out of them fails the start
/// instead of a thread. A start that fails part-way stops and joins the
/// shards it had spawned before it returns the error.
pub(crate) fn start_shards(
    owned: Vec<Vec<(Arc<Collection>, BatchPipeline)>>,
    listener: TcpServer,
    shared: Arc<ServiceShared>,
) -> std::io::Result<(Vec<std::thread::JoinHandle<()>>, Vec<ShardWake>)> {
    let n = owned.len();
    let options = &shared.options;
    listener.set_nonblocking().map_err(std::io::Error::other)?;
    let mut acceptor = Some(Acceptor {
        listener,
        backoff: ACCEPT_BACKOFF_BASE,
    });
    let mut pollers = Vec::with_capacity(n);
    let mut wakes = Vec::with_capacity(n);
    for _ in 0..n {
        let poller = Poller::new()?;
        let wake: ShardWake = Arc::new(WakeQueue::new()?);
        poller.register(&*wake, WAKE_TOKEN, Interest::READ)?;
        pollers.push(poller);
        wakes.push(wake);
    }
    let mut handles = Vec::with_capacity(n);
    let now = Instant::now();
    for (index, (poller, owned)) in pollers.into_iter().zip(owned).enumerate() {
        // What is periodic is a deadline, one interval from now, and only
        // where it has something to do: a durability tick where a
        // collection keeps checkpoints, a progress tick where a stopping
        // policy has something to decide.
        let mut timers = BinaryHeap::new();
        let acceptor = acceptor.take_if(|_| !owned.is_empty());
        if let Some(acceptor) = &acceptor {
            poller
                .register(&acceptor.listener, LISTEN_TOKEN, Interest::READ)
                .map_err(|e| stop_spawned(&shared, &wakes, &mut handles, e))?;
        }
        if owned.iter().any(|(c, _)| c.backend.lock().has_snapshots()) {
            let at = now + options.durability.interval;
            timers.push(Reverse((at, Due::Durability)));
        }
        if options.stopping.is_some() && !owned.is_empty() {
            timers.push(Reverse((now + PROGRESS_INTERVAL, Due::Progress)));
        }
        let owned = owned.into_iter().map(|(collection, pipeline)| Owned {
            collection,
            pipeline,
            sessions: HashMap::new(),
            budget: (0, COLLECTION_FRAMES_PER_WAKE),
            dirty: false,
            armed: None,
            fold: ProgressTracker::new(),
            acted: false,
        });
        let shard = Shard {
            index,
            poller,
            wakes: wakes.clone(),
            shared: Arc::clone(&shared),
            acceptor,
            owned: owned.collect(),
            dirty: Vec::new(),
            conns: HashMap::new(),
            next_token: 0,
            wake_no: 0,
            run: Vec::new(),
            timers,
            visits: crowdfill_obs::metrics::counter(&format!(
                "crowdfill_reactor_shard_{index}_conn_visits"
            )),
        };
        let handle =
            spawn_shard(shard).map_err(|e| stop_spawned(&shared, &wakes, &mut handles, e))?;
        handles.push(handle);
    }
    crowdfill_obs::obs_info!("server", "reactor started with {n} shards");
    Ok((handles, wakes))
}

/// Starts a shard's thread.
fn spawn_shard(shard: Shard) -> std::io::Result<std::thread::JoinHandle<()>> {
    #[cfg(test)]
    if tests::FAIL_SPAWN.with(|at| at.get() == Some(shard.index)) {
        return Err(std::io::Error::other("shard spawn failed (injected)"));
    }
    std::thread::Builder::new()
        .name(format!("crowdfill-shard-{}", shard.index))
        .spawn(move || shard.run())
}

/// Undoes a start that failed part-way, the way `TcpService::stop` stops
/// a running one: raise the flag, wake the shards already spawned, join
/// them. Returns the error.
fn stop_spawned(
    shared: &ServiceShared,
    wakes: &[ShardWake],
    handles: &mut Vec<std::thread::JoinHandle<()>>,
    e: std::io::Error,
) -> std::io::Error {
    shared.shutdown.store(true, Ordering::SeqCst);
    for wake in wakes {
        wake.wake();
    }
    for handle in handles.drain(..) {
        let _ = handle.join();
    }
    e
}

/// Post-handshake connection state.
struct Session {
    /// Its collection, as an index into the shard's `owned`.
    slot: usize,
    worker: WorkerId,
    epoch: u64,
    /// This worker's private ack-latency histogram (per-worker health).
    ack_hist: Option<Arc<Histogram>>,
    /// A submit/modify of this connection sits in the collection's queue:
    /// its later frames wait, so replies stay in request order.
    awaiting: bool,
    /// Lagging, and the eviction clock: when a broadcast found the writer
    /// full. Until a `sync` clears it, broadcasts to this connection are
    /// counted and dropped — the client's exact-seq tracking means a later
    /// `sync`/`resume` replays precisely what was missed.
    lagging_since: Option<Instant>,
}

impl Session {
    /// Writes one broadcast frame into the connection's writer. A writer
    /// already holding `capacity` frames the socket has not taken
    /// downgrades the session to lagging: a connection still lagging
    /// [`OverloadOptions::evict_after`](crate::OverloadOptions::evict_after)
    /// later is closed (the session survives — the client reconnects and
    /// resumes).
    fn broadcast(
        &mut self,
        writer: &mut FrameWriter,
        dead: &mut bool,
        frame: &str,
        capacity: usize,
    ) {
        if self.lagging_since.is_none() && writer.queued_frames() < capacity.max(1) {
            return queue_encoded(writer, dead, frame);
        }
        // Watermark crossed: stop buffering for this reader. It is told
        // to catch up via `sync` (which also clears the clock); until then
        // broadcasts to it are dropped, not buffered.
        if self.lagging_since.is_none() {
            self.lagging_since = Some(Instant::now());
            queue_frame(writer, dead, &Reply::Lagging);
            m_lag_downgrades().inc();
            crowdfill_obs::obs_warn!(
                "server",
                "worker {} lagging: write buffer full, downgraded to sync",
                self.worker.0
            );
        }
        m_lag_dropped().inc();
    }

    /// Records a settled op's request-to-reply latency; only submits feed
    /// the worker's own histogram.
    fn record_latency(&self, modify: bool, read_at: Instant, metrics: &ServiceMetrics) {
        let elapsed = read_at.elapsed().as_nanos() as u64;
        if modify {
            metrics.modify_latency_ns.record(elapsed);
        } else {
            if let Some(h) = &self.ack_hist {
                h.record(elapsed);
            }
            metrics.submit_latency_ns.record(elapsed);
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
pub(crate) struct ConnState {
    stream: TcpStream,
    /// This connection's key in the shard's map, its epoll token, and its
    /// ticket in the collection's queue. Never reused.
    token: u64,
    reader: FrameReader,
    writer: FrameWriter,
    phase: Phase,
    /// Reply written, nothing more to read: close once the writer drains.
    closing: bool,
    /// Peer half-closed; serve what is buffered, then close.
    peer_eof: bool,
    dead: bool,
    /// When the socket was accepted: a handshake has `evict_after` from
    /// here, whatever trickles in meanwhile.
    opened: Instant,
    last_activity: Instant,
    /// What the socket is registered for in the shard's epoll set.
    interest: Interest,
    /// epoll reported the socket dead in both directions.
    hangup: bool,
    /// Already on the shard's run list for the coming wake.
    queued: bool,
    /// Served on this wake and not finished yet.
    served: bool,
    /// Left with work no socket event, wake or deadline will announce:
    /// visit it again on the next wake.
    runnable: bool,
    /// The earliest deadline this connection has in the shard's timer heap.
    armed: Option<Instant>,
}

impl ConnState {
    fn new(stream: TcpStream) -> Option<ConnState> {
        stream.set_nonblocking(true).ok()?;
        let _ = stream.set_nodelay(true);
        let opened = Instant::now();
        Some(ConnState {
            stream,
            token: 0, // the adopting shard's to assign
            reader: FrameReader::new(),
            writer: FrameWriter::new(),
            phase: Phase::Handshake,
            closing: false,
            peer_eof: false,
            dead: false,
            opened,
            last_activity: opened,
            interest: Interest::READ,
            hangup: false,
            queued: false,
            served: false,
            runnable: false,
            armed: None,
        })
    }

    /// When this connection next needs a visit that no event will
    /// announce: its idle timeout, or its eviction if it is lagging or has
    /// not said `hello` yet.
    fn next_deadline(&self, shared: &ServiceShared) -> Option<Instant> {
        let evict_after = shared.options.overload.evict_after;
        let idle = shared.options.idle_timeout.map(|t| self.last_activity + t);
        let evict = match &self.phase {
            Phase::Active(session) => session.lagging_since.map(|t| t + evict_after),
            Phase::Handshake => Some(self.opened + evict_after),
        };
        idle.into_iter().chain(evict).min()
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

/// What a deadline in the shard's timer heap is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Due {
    /// A connection's, by token.
    Conn(u64),
    /// The end of a collection's batch fill window, by slot.
    Batch(usize),
    /// The end of the back-off after a failed `accept`: the listener gets
    /// its read interest back.
    Accept,
    /// The durability tick over the shard's collections, every
    /// `durability.interval`, on a shard that owns one with storage.
    Durability,
    /// The progress tick over the shard's collections, every
    /// `PROGRESS_INTERVAL`, with a stopping policy.
    Progress,
}

/// One shard thread's state.
struct Shard {
    index: usize,
    poller: Poller,
    /// Every shard's wake queue, this one's at `index`.
    wakes: Vec<ShardWake>,
    shared: Arc<ServiceShared>,
    /// The listener, on the one shard that accepts.
    acceptor: Option<Acceptor>,
    /// The collections this shard owns; a `Collection::slot` indexes it.
    owned: Vec<Owned>,
    /// Slots of the collections to apply on this wake (each at most once,
    /// see `Owned::dirty`).
    dirty: Vec<usize>,
    conns: HashMap<u64, ConnState>,
    next_token: u64,
    /// Wakes so far: what the fairness budgets are refilled by.
    wake_no: u64,
    /// Connections to visit on the coming wake (each at most once, see
    /// `ConnState::queued`). Non-empty across a wait only for connections
    /// carried over with runnable work; the wait then does not block.
    run: Vec<u64>,
    /// Pending deadlines, nearest first. A connection's or a batch's
    /// entry is live only while it equals its owner's `armed`
    /// ([`Shard::live`]); superseded ones are dropped when they surface,
    /// and before a wait, so none of them ends one. A periodic one re-arms
    /// itself.
    timers: BinaryHeap<Reverse<(Instant, Due)>>,
    /// This shard's share of `crowdfill_reactor_conn_visits`.
    visits: Arc<Counter>,
}

impl Shard {
    fn run(mut self) {
        let mut events = Vec::new();
        let mut woken = Vec::new();
        loop {
            // A superseded deadline ends no wait.
            while let Some(&Reverse((at, due))) = self.timers.peek() {
                if self.live(at, due) {
                    break;
                }
                self.timers.pop();
            }
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
            // Before anything this wake records: see `ReadingRing::advance`.
            let shared = &self.shared;
            shared
                .telemetry
                .advance(shared.started.elapsed().as_nanos() as u64);
            let mut accept = false;
            for event in &events {
                match event.token {
                    WAKE_TOKEN => self.wakes[self.index].drain(&mut woken),
                    LISTEN_TOKEN => accept = true,
                    token => self.schedule(token, event.hangup),
                }
            }
            // Before anything that was due: a tick that is overdue when
            // `stop` raises the flag does not run, and the listener goes
            // with the shard.
            if self.shared.shutdown.load(Ordering::SeqCst) {
                g_conns().add(-(self.conns.len() as i64));
                for conn in self.conns.values_mut() {
                    retire(conn, &self.shared, &mut self.owned);
                }
                return;
            }
            if accept {
                self.accept();
            }
            for wake in woken.drain(..) {
                match wake {
                    Wake::HandOver(conn, request) => {
                        let adopted = self.adopt(*conn);
                        if let Some(conn) = adopted.and_then(|token| self.conns.get_mut(&token)) {
                            serve_handshake(conn, request, &self.shared, &mut self.owned);
                        }
                    }
                    Wake::CloseAll => {
                        let open = |c: &&ConnState| matches!(c.phase, Phase::Active(_));
                        let tokens: Vec<u64> =
                            self.conns.values().filter(open).map(|c| c.token).collect();
                        // A hung-up socket's visit is its teardown.
                        tokens.into_iter().for_each(|t| self.schedule(t, true));
                    }
                }
            }
            self.fire_timers();
            self.wake_no += 1;
            // A finish appends what it carries over; only the tokens that
            // were due on this wake are visited and removed.
            let due = self.run.len();
            for i in 0..due {
                self.serve(self.run[i]);
            }
            let now = Instant::now();
            for i in 0..self.dirty.len() {
                self.apply(self.dirty[i], now);
            }
            self.dirty.clear();
            for i in 0..due {
                let token = self.run[i];
                if self.conns.get(&token).is_some_and(|c| c.served) {
                    self.finish(token);
                }
            }
            self.run.drain(..due);
        }
    }

    /// Puts a connection on the run list. A token that no longer resolves
    /// (a stale event or an old deadline of a retired connection) is
    /// dropped here.
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

    /// Accepts what is waiting on the listener, within the wake's bound,
    /// and adopts it: the first visit of each socket is this sweep's. A
    /// failed `accept` takes the listener out of the epoll set until
    /// `Due::Accept`.
    fn accept(&mut self) {
        for _ in 0..ACCEPTS_PER_WAKE {
            let Some(acceptor) = &mut self.acceptor else {
                return;
            };
            match acceptor.listener.accept_raw() {
                Ok(stream) => {
                    acceptor.backoff = ACCEPT_BACKOFF_BASE;
                    ConnState::new(stream).and_then(|conn| self.adopt(conn));
                }
                Err(ConnError::Empty) => return,
                Err(_) => {
                    self.shared.metrics.accept_errors.inc();
                    let until = Instant::now() + acceptor.backoff;
                    acceptor.backoff = next_backoff(acceptor.backoff);
                    self.timers.push(Reverse((until, Due::Accept)));
                    return self.listen(false);
                }
            }
        }
    }

    /// Sets whether the listener's readiness wakes the shard.
    fn listen(&mut self, read: bool) {
        if let Some(acceptor) = &self.acceptor {
            let interest = Interest { read, write: false };
            let _ = (self.poller).rearm(&acceptor.listener, LISTEN_TOKEN, interest);
        }
    }

    /// Takes a connection — fresh, or handed over — under a token of this
    /// shard's, which it returns.
    fn adopt(&mut self, mut conn: ConnState) -> Option<u64> {
        let token = self.next_token;
        self.next_token += 1;
        // A deadline it had is in the heap of the shard it came from.
        (conn.token, conn.armed) = (token, None);
        if self
            .poller
            .register(&conn.stream, token, conn.interest)
            .is_err()
        {
            return None; // out of epoll watches: refuse the connection
        }
        self.conns.insert(token, conn);
        g_conns().add(1);
        // First visit: the hello (or what was pipelined behind it) may
        // already be in, and the idle deadline wants arming either way.
        self.schedule(token, false);
        Some(token)
    }

    /// Moves everything whose deadline has passed onto its list — a
    /// connection onto the run list, a collection onto the dirty list — and
    /// runs what is periodic, which then re-arms itself one period from
    /// when it finished.
    fn fire_timers(&mut self) {
        if self.timers.is_empty() {
            return;
        }
        let now = Instant::now();
        while let Some(&Reverse((at, due))) = self.timers.peek() {
            if at > now {
                break;
            }
            self.timers.pop();
            if !self.live(at, due) {
                continue;
            }
            match due {
                Due::Conn(token) => {
                    self.conns.get_mut(&token).expect("live").armed = None;
                    self.schedule(token, false);
                }
                Due::Batch(slot) => {
                    let owned = &mut self.owned[slot];
                    owned.armed = None;
                    mark_dirty(owned, slot, &mut self.dirty);
                }
                Due::Accept => self.listen(true),
                Due::Durability | Due::Progress => {
                    // No period is short enough to spin the shard.
                    let every = self.tick(due).max(Duration::from_millis(1));
                    self.timers.push(Reverse((Instant::now() + every, due)));
                }
            }
        }
    }

    /// Whether a deadline still stands: a connection's or a batch's only
    /// while it is its owner's `armed` (the rest were superseded — re-armed
    /// earlier, voided by a completed handshake, or their connection is
    /// gone); any other kind always.
    fn live(&self, at: Instant, due: Due) -> bool {
        match due {
            Due::Conn(token) => self.conns.get(&token).is_some_and(|c| c.armed == Some(at)),
            Due::Batch(slot) => self.owned[slot].armed == Some(at),
            Due::Accept | Due::Durability | Due::Progress => true,
        }
    }

    /// Runs one periodic job; returns its period. A tick is in the heap
    /// only where it has something to do (`start_shards`).
    fn tick(&mut self, due: Due) -> Duration {
        let shared = &*self.shared;
        match due {
            Due::Durability => {
                let options = &shared.options.durability;
                let ages = self
                    .owned
                    .iter()
                    .map(|o| durability_tick(&o.collection, options));
                if let Some(oldest) = ages.flatten().max() {
                    publish_snapshot_age(&shared.snapshot_ages, self.index, oldest);
                }
                options.interval
            }
            Due::Progress => {
                let policy = shared
                    .options
                    .stopping
                    .as_ref()
                    .expect("armed with a policy");
                for owned in &mut self.owned {
                    let (fold, acted) = (&mut owned.fold, &mut owned.acted);
                    progress_tick(&owned.collection, policy, fold, acted);
                }
                PROGRESS_INTERVAL
            }
            Due::Conn(_) | Due::Batch(_) | Due::Accept => unreachable!("not periodic"),
        }
    }

    /// Pass 1 on one connection: read, decode, answer or admit.
    fn serve(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        (conn.queued, conn.served) = (false, true);
        m_conn_visits().inc();
        self.visits.inc();
        let shared = &*self.shared;

        // Pull whatever the socket has, bounded.
        let read_at = Instant::now();
        if !conn.peer_eof && !conn.closing {
            match conn.reader.fill_from(&mut conn.stream, READ_BUDGET) {
                Ok(0) => conn.peer_eof = true,
                Ok(n) => {
                    conn.last_activity = read_at;
                    // Cut off by the budget: the socket may hold more.
                    conn.runnable |= n >= READ_BUDGET;
                }
                Err(ConnError::Empty) => {}
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }

        // Serve complete frames, within the collection's fairness budget.
        while !conn.dead && !conn.closing {
            if let Phase::Active(session) = &conn.phase {
                if session.awaiting {
                    break; // one op in flight per connection: acks stay in request order
                }
                if *self.owned[session.slot].frames_left(self.wake_no) == 0 {
                    if conn.reader.pending_bytes() >= 4 {
                        m_fairness_deferrals().inc();
                        conn.runnable = true;
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
                    return;
                }
            };
            m_frames_in().inc();
            if let Phase::Active(session) = &conn.phase {
                *self.owned[session.slot].frames_left(self.wake_no) -= 1;
            }
            // One parse and one decode, whatever the phase; what a failure
            // costs is the phase's call (pass 1 of the module docs).
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
            if matches!(conn.phase, Phase::Active(_)) {
                serve_request(
                    conn,
                    request,
                    read_at,
                    shared,
                    &mut self.owned,
                    &mut self.dirty,
                );
                continue;
            }
            let owner = match &request {
                Request::Hello(name) | Request::Resume(.., name) => shared
                    .resolve_collection(name.as_deref())
                    .map(|collection| collection.owner),
                _ => None,
            };
            match owner.filter(|owner| *owner != self.index) {
                // Refusals are anybody's to send; a session is its owner's.
                None => serve_handshake(conn, request, shared, &mut self.owned),
                Some(owner) => {
                    let conn = self.conns.remove(&token).expect("being served");
                    let _ = self.poller.deregister(&conn.stream);
                    g_conns().add(-1);
                    m_handovers().inc();
                    self.wakes[owner].push(Wake::HandOver(Box::new(conn), request));
                    return;
                }
            }
        }
    }

    /// Pass 2 on one collection: every batch that is due at `now`, then
    /// the finish of the connections they touched, authors last.
    fn apply(&mut self, slot: usize, now: Instant) {
        let owned = &mut self.owned[slot];
        owned.dirty = false;
        let capacity = self.shared.options.overload.write_buffer_frames;
        let mut recipients = Vec::new();
        let mut authors = Vec::new();
        while let Some(at) = owned.pipeline.due() {
            if at > now {
                if owned.armed.is_none_or(|armed| at < armed) {
                    owned.armed = Some(at);
                    self.timers.push(Reverse((at, Due::Batch(slot))));
                }
                break;
            }
            let (settled, polled) = {
                let mut b = owned.collection.backend.lock();
                let settled = owned.pipeline.apply(now, &mut b);
                (settled, poll_broadcasts(&mut b, &owned.sessions))
            };
            // Acks first: an author is told ahead of the batch's
            // broadcasts, its peers' ops included.
            for answer in settled {
                // Gone meanwhile: applied all the same, as for any op whose
                // ack is lost with its connection.
                let Some(conn) = self.conns.get_mut(&answer.ticket) else {
                    continue;
                };
                let Phase::Active(session) = &mut conn.phase else {
                    continue;
                };
                session.awaiting = false;
                session.record_latency(answer.modify, answer.admitted, &self.shared.metrics);
                let reply = result_frame(answer.result, answer.trace);
                queue_frame(&mut conn.writer, &mut conn.dead, &reply);
                // Frames pipelined behind the op can be served now.
                conn.runnable |= conn.reader.pending_bytes() >= 4;
                authors.push(answer.ticket);
            }
            // Most recipients are owed the same entries (all but the
            // authors, who miss their own): encoded once, then copied
            // into each recipient's writer.
            let mut last: Option<(Vec<u64>, Vec<String>)> = None;
            for (token, pending) in polled {
                let Some(conn) = self.conns.get_mut(&token) else {
                    continue;
                };
                let Phase::Active(session) = &mut conn.phase else {
                    continue;
                };
                let seqs: Vec<u64> = pending.iter().map(|m| m.seq).collect();
                if last.as_ref().is_none_or(|(same, _)| *same != seqs) {
                    last = Some((seqs, broadcast_frames(pending)));
                }
                for frame in &last.as_ref().expect("just set").1 {
                    session.broadcast(&mut conn.writer, &mut conn.dead, frame, capacity);
                }
                recipients.push(token);
            }
        }
        // Recipients first, authors last (one batch has few of those).
        for token in recipients.into_iter().filter(|t| !authors.contains(t)) {
            self.finish(token);
        }
        for token in authors {
            self.finish(token);
        }
    }

    /// Pass 3 on one connection: pump its output, then settle what it
    /// waits for next — retire it, or re-arm its epoll interest and
    /// deadline, and carry it over to the next wake if it was left with
    /// work no event will announce.
    fn finish(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.served = false;
        if !conn.dead {
            pump(conn, &self.shared);
        }
        // A hung-up socket takes no more writes (and a `Wake::CloseAll` is
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
            retire(conn, &self.shared, &mut self.owned);
            self.conns.remove(&token);
            g_conns().add(-1);
            return;
        }
        if let Some(at) = conn.next_deadline(&self.shared) {
            if conn.armed.is_none_or(|armed| at < armed) {
                conn.armed = Some(at);
                self.timers.push(Reverse((at, Due::Conn(token))));
            }
        }
        if std::mem::take(&mut conn.runnable) && !conn.queued {
            conn.queued = true;
            self.run.push(token);
        }
    }
}

/// Puts a collection on the list of those to apply on this wake.
fn mark_dirty(owned: &mut Owned, slot: usize, dirty: &mut Vec<usize>) {
    if !std::mem::replace(&mut owned.dirty, true) {
        dirty.push(slot);
    }
}

/// Tears down one connection: its socket, then its session, if it got
/// that far — unregistered (guarded: only if the collection still sends to
/// THIS connection) and its epoch retired (guarded in the backend: a
/// resumed successor must survive its predecessor's exit). The caller
/// drops the `ConnState` next, which closes the socket's only descriptor
/// and with it the epoll registration.
fn retire(conn: &mut ConnState, shared: &ServiceShared, owned: &mut [Owned]) {
    let _ = conn.stream.shutdown(Shutdown::Both);
    let Phase::Active(session) = &conn.phase else {
        return;
    };
    let owned = &mut owned[session.slot];
    if owned.sessions.get(&session.worker) == Some(&conn.token) {
        owned.sessions.remove(&session.worker);
    }
    let (worker, epoch) = (session.worker, session.epoch);
    owned
        .collection
        .backend
        .lock()
        .disconnect_epoch(worker, epoch);
    shared.metrics.disconnects.inc();
    shared.attached.fetch_sub(1, Ordering::SeqCst);
    crowdfill_obs::obs_debug!("server", "session ended"; worker => worker.0, epoch => epoch);
}

/// The output half of a visit: the eviction clock, the flush, and the
/// close conditions.
fn pump(conn: &mut ConnState, shared: &ServiceShared) {
    // The eviction clock — a lagging session's, or a handshake's from the
    // accept — runs out on the deadline `next_deadline` arms from it.
    let evict_after = shared.options.overload.evict_after;
    let (clock, who) = match &conn.phase {
        Phase::Active(session) => (session.lagging_since, Some(session.worker.0)),
        Phase::Handshake => (Some(conn.opened), None),
    };
    if clock.is_some_and(|since| since.elapsed() >= evict_after) {
        m_evictions().inc();
        crowdfill_obs::obs_warn!(
            "server",
            "evicting a peer that did not keep up for {evict_after:?} (worker {who:?})"
        );
        conn.dead = true;
        return;
    }

    // Flush as much as the socket accepts.
    if !conn.writer.is_empty() && conn.writer.flush(&mut conn.stream).is_err() {
        conn.dead = true;
        return;
    }

    // Close conditions: explicit close once drained, half-closed peer
    // with nothing left to do, or idle timeout.
    let awaiting = matches!(&conn.phase, Phase::Active(s) if s.awaiting);
    let drained_bye = conn.closing && conn.writer.is_empty();
    let drained_eof =
        conn.peer_eof && conn.reader.pending_bytes() == 0 && conn.writer.is_empty() && !awaiting;
    if drained_bye || drained_eof {
        conn.dead = true;
    } else if let Some(t) = shared.options.idle_timeout {
        if conn.last_activity.elapsed() > t {
            shared.metrics.idle_disconnects.inc();
            crowdfill_obs::obs_debug!("server", "idle session disconnected (reactor)");
            conn.dead = true;
        }
    }
}

/// Serves a connection's first frame (`hello`/`resume`) via
/// [`open_session`], on the shard that owns the collection it names (any
/// shard, if all there is to send is a refusal).
fn serve_handshake(
    conn: &mut ConnState,
    request: Request,
    shared: &ServiceShared,
    owned: &mut [Owned],
) {
    match open_session(request, shared) {
        Ok(Opened {
            collection,
            worker,
            epoch,
            reply,
            ack_hist,
        }) => {
            // Handshake reply enters the writer FIRST: the connection's one
            // outbound buffer guarantees no broadcast precedes the welcome.
            queue_encoded(&mut conn.writer, &mut conn.dead, &reply);
            if conn.dead {
                collection.backend.lock().disconnect_epoch(worker, epoch);
                shared.metrics.disconnects.inc();
                return;
            }
            // From here on the collection's batches poll this worker's
            // cursor, which `open_session` left at the reply's end.
            owned[collection.slot].sessions.insert(worker, conn.token);
            shared.attached.fetch_add(1, Ordering::SeqCst);
            // The handshake's eviction deadline is void: skipped, not
            // visited, when it surfaces.
            conn.armed = None;
            conn.phase = Phase::Active(Session {
                slot: collection.slot,
                worker,
                epoch,
                ack_hist,
                awaiting: false,
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

/// Serves one in-session request, read off the socket at `read_at`.
fn serve_request(
    conn: &mut ConnState,
    request: Request,
    read_at: Instant,
    shared: &ServiceShared,
    owned: &mut [Owned],
    dirty: &mut Vec<usize>,
) {
    let ConnState {
        phase,
        writer,
        closing,
        dead,
        token,
        ..
    } = conn;
    let Phase::Active(session) = phase else {
        return;
    };
    let metrics = &shared.metrics;
    let _request_timer = SpanTimer::start(&metrics.request_latency_ns);
    let slot = session.slot;
    // Hands a decoded submit/modify to the collection's queue. If
    // admission refuses it the reply is queued now; otherwise the
    // connection waits for pass 2 of this wake (or of the one that ends
    // the batch's fill window).
    let mut submit = |op, priority, trace| {
        let job = Submission {
            ticket: *token,
            worker: session.worker,
            op,
            priority,
            trace,
        };
        let modify = matches!(job.op, BatchOp::Modify { .. });
        match owned[slot].pipeline.admit(job, read_at) {
            Ok(()) => {
                session.awaiting = true;
                mark_dirty(&mut owned[slot], slot, dirty);
            }
            Err(refused) => {
                session.record_latency(modify, read_at, metrics);
                queue_frame(writer, dead, &result_frame(Err(refused), trace));
            }
        }
    };
    match request {
        Request::Submit((msg, auto_upvote), speculative, trace) => {
            metrics.submit_requests.inc();
            let priority = match speculative {
                true => Priority::Speculative,
                false => Priority::Normal,
            };
            submit(BatchOp::Msg { msg, auto_upvote }, priority, trace);
        }
        Request::Modify(bundle, trace) => {
            metrics.modify_requests.inc();
            submit(BatchOp::Modify { bundle }, Priority::Normal, trace);
        }
        Request::Sync(_) | Request::Resync => {
            metrics.sync_requests.inc();
            // Clear-before-suffix, see `sync_reply`.
            session.lagging_since = None;
            let cursor = match &request {
                Request::Sync(cursor) => Some(cursor),
                _ => None,
            };
            let backend = &owned[slot].collection.backend;
            let reply = sync_reply(backend, session.worker, cursor, metrics);
            queue_encoded(writer, dead, &reply);
        }
        Request::Stats => {
            metrics.stats_requests.inc();
            let snapshot = crowdfill_obs::metrics::global().snapshot();
            queue_frame(writer, dead, &Reply::Stats(snapshot));
        }
        Request::Health => {
            metrics.health_requests.inc();
            let owned = &mut owned[slot];
            let reply = health_reply(&owned.collection, &mut owned.fold, shared);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Backend, ServiceOptions, TaskConfig, TcpService};
    use std::cell::Cell;

    thread_local! {
        /// The shard whose spawn fails, for starts on this thread.
        pub(super) static FAIL_SPAWN: Cell<Option<usize>> = const { Cell::new(None) };
    }

    fn shard_threads() -> usize {
        let tasks = std::fs::read_dir("/proc/self/task").expect("procfs");
        let comm = |task: std::fs::DirEntry| std::fs::read_to_string(task.path().join("comm"));
        let names = tasks.filter_map(|t| comm(t.ok()?).ok());
        names.filter(|n| n.starts_with("crowdfill-shard")).count()
    }

    /// Stop means stopped, for a start that fails too: the shards spawned
    /// before the one that failed are stopped and joined, not leaked.
    #[test]
    fn a_start_that_fails_part_way_leaves_no_shard_running() {
        if !std::path::Path::new("/proc/self/task").exists() {
            return; // thread accounting needs procfs
        }
        let schema = crowdfill_model::Schema::new(
            "T",
            vec![crowdfill_model::Column::new(
                "a",
                crowdfill_model::DataType::Text,
            )],
            &["a"],
        );
        let scoring = std::sync::Arc::new(crowdfill_model::QuorumMajority::of_three());
        let template = crowdfill_model::Template::cardinality(1);
        let config = TaskConfig::new(std::sync::Arc::new(schema.unwrap()), scoring, template, 1.0);
        let options = ServiceOptions {
            shards: 4,
            ..ServiceOptions::default()
        };
        FAIL_SPAWN.with(|at| at.set(Some(3)));
        let started = TcpService::start_with(Backend::new(config), "127.0.0.1:0", options);
        FAIL_SPAWN.with(|at| at.set(None));
        assert!(
            started.is_err(),
            "the injected spawn failure fails the start"
        );
        // A leaked shard names itself as its first act: give it the beat.
        std::thread::sleep(std::time::Duration::from_millis(50));
        assert_eq!(shard_threads(), 0, "a shard outlived the failed start");
    }

    /// The accept back-off on its own: 10, 20, 40 ms … capped at 1 s; a
    /// success starts over from the base.
    #[test]
    fn accept_backoff_doubles_to_a_cap() {
        let waits = std::iter::successors(Some(ACCEPT_BACKOFF_BASE), |w| Some(next_backoff(*w)));
        let millis: Vec<u128> = waits.take(9).map(|w| w.as_millis()).collect();
        assert_eq!(millis, [10, 20, 40, 80, 160, 320, 640, 1000, 1000]);
    }
}
