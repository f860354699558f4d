//! # The shard core: a shard's session rules, with no socket and no clock
//!
//! Everything a reactor shard decides is this one state machine, fed by
//! the driver (`reactor.rs`) through [`ShardCore::on`]`(now, event,
//! effects)`: the driver says what happened (an [`Event`]) and the core
//! pushes what is to be done about it (an [`Effect`]) onto a buffer the
//! driver reuses. `now` is the driver's one clock reading of the wake; no
//! rule here reads another (the request-latency histogram times its own
//! span of work, and no decision reads it). So every rule runs, in the
//! tests at the end of this file, under a virtual clock with no socket.
//!
//! A collection is owned by one shard, whose [`Owned`] entry holds its
//! [`BatchPipeline`], the connections of its attached sessions, its
//! fairness budget, its batch-window deadline and its telemetry fold. A
//! connection is a [`Conn`] — codecs, phase, clocks — under the token the
//! driver registered its socket by. A handshake naming a collection owned
//! elsewhere leaves as [`Effect::HandOver`].
//!
//! [`Event::Sweep`] ends a wake: it fires what is due at `now`, then visits
//! the run list — connections read from, hung up, whose deadline passed,
//! or carried over with frames still to serve — in three passes:
//!
//! 1. **Serve**: decode each frame with [`Request::decode`]. A failure
//!    costs a handshake the connection, a session the frame (answered with
//!    a `reject` if it was JSON). Control requests are answered into the
//!    [`FrameWriter`] at once; a submit/modify is admitted into its
//!    collection's queue, stamped `now`, and the connection's later frames
//!    wait until it settles, so replies keep request order.
//! 2. **Apply** each collection admitted into: per batch one backend lock,
//!    one `submit_batch` (one journal frame) and a poll of every session's
//!    undelivered log suffix; then the acks into the authors' writers, and
//!    after them each broadcast, encoded once, into every recipient's.
//! 3. **Finish** the recipients first, the authors last — an action is on
//!    its peers' sockets no later than its author is told — then every
//!    other served connection: run its eviction clock and ask for a flush
//!    ([`Effect::Flush`]); once the socket took what it would
//!    ([`Event::Flushed`]), close it on `bye`, EOF or idle, else set its
//!    interest (write only while the writer holds bytes) and deadline.
//!
//! A writer holding `write_buffer_frames` frames the socket has not taken
//! downgrades its session to *lagging* on the next broadcast: `lagging` is
//! written, that broadcast and later ones are dropped until a `sync`, and
//! at `lagging_since + evict_after` the connection is closed. A handshake
//! unfinished at `opened + evict_after` and a session silent at
//! `last_activity + idle_timeout` are closed the same way: every clock
//! closes *at* the deadline it arms. Each wake gives every collection
//! `COLLECTION_FRAMES_PER_WAKE` frames; the rest wait for the next wake,
//! which follows at once, so a hot collection cannot hold back a quiet one.

use crate::backend::{Backend, BatchOp, SubmitError, SubmitReport};
use crate::batch::{BatchPipeline, Submission};
use crate::health::SloHealth;
use crate::progress::{ProgressReport, ProgressTracker, StopAction, StoppingPolicy};
use crate::tcp_service::{Collection, DurabilitySweepOptions, ServiceShared};
use crate::wire::{self, CatchUp, Cursor, Image, Reply, Request, SeqMsg};
use crowdfill_net::{FrameReader, FrameWriter, Interest};
use crowdfill_obs::timeseries::{ReadingRing, SloStatus};
use crowdfill_obs::trace::{self as obstrace, SpanId, Stage, TraceId};
use crowdfill_obs::SpanTimer;
use crowdfill_pay::{Millis, WorkerId};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Request frames one collection may consume per shard wake before its
/// connections yield to other collections.
const COLLECTION_FRAMES_PER_WAKE: usize = 64;

/// How often the progress tick runs, with a stopping policy set.
const PROGRESS_INTERVAL: Duration = Duration::from_millis(500);

/// Most seq-tagged messages packed into one `batch` broadcast frame (keeps
/// frames far inside the transport's frame-size cap).
const BATCH_FRAME_CHUNK: usize = 256;

/// What the driver tells the core. A token is the connection's key on both
/// sides: the driver's epoll token, the core's map key, and its ticket in
/// its collection's queue. Never reused on a shard.
pub(crate) enum Event<'a> {
    /// A socket was accepted and registered for reading under the token.
    Accepted(u64),
    /// A connection another shard read a handshake on, registered for
    /// reading here under the token.
    HandOver(u64, Box<(Conn, Request)>),
    /// Bytes read off the socket; none is the end of what the peer sends.
    Read(u64, &'a [u8]),
    /// The socket took what it would of the connection's writer.
    Flushed(u64),
    /// The socket is dead in both directions (a hang-up, or a failed read,
    /// write or re-arm): serve what is buffered, then close.
    HungUp(u64),
    /// Close every open session (`TcpService::disconnect_all`).
    CloseAll,
    /// The wake's input is in: fire what is due at `now`, then sweep.
    Sweep,
    /// The service stops: retire every connection.
    Stop,
}

/// What the core asks of the driver, in the order it is to be done.
pub(crate) enum Effect {
    /// The connection's writer holds frames: flush it into the socket
    /// ([`ShardCore::writer`]) and report [`Event::Flushed`].
    Flush(u64),
    /// Register the socket for these directions.
    Interest(u64, Interest),
    /// Close the socket; its session has been retired.
    Close(u64),
    /// Hand the connection, with the handshake it sent, to shard `.1`.
    HandOver(u64, usize, Box<(Conn, Request)>),
    /// Wake the core with [`Event::Sweep`] at this instant; `None`: only a
    /// socket or another thread has anything for it.
    Arm(Option<Instant>),
}

/// What a deadline in the core's timer heap is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Due {
    /// A connection's, by token.
    Conn(u64),
    /// The end of a collection's batch fill window, by slot.
    Batch(usize),
    /// The durability tick over the shard's collections, every
    /// `durability.interval`, on a shard that owns one with storage.
    Durability,
    /// The progress tick over the shard's collections, every
    /// `PROGRESS_INTERVAL`, with a stopping policy.
    Progress,
}

/// One collection, as the shard that owns it holds it.
struct Owned {
    collection: Arc<Collection>,
    pipeline: BatchPipeline,
    /// The attached sessions' connections, by worker: whom a batch's
    /// broadcasts go to, in worker order.
    sessions: BTreeMap<WorkerId, u64>,
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

/// Post-handshake connection state.
struct Session {
    /// Its collection, as an index into the shard's `owned`.
    slot: usize,
    worker: WorkerId,
    epoch: u64,
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
    /// Writes one broadcast frame into the connection's writer, unless the
    /// writer already holds `capacity` frames the socket has not taken: then
    /// the session is downgraded to lagging at `now`.
    fn broadcast(
        &mut self,
        writer: &mut FrameWriter,
        dead: &mut bool,
        frame: &str,
        capacity: usize,
        now: Instant,
        shared: &ServiceShared,
    ) {
        if self.lagging_since.is_none() && writer.queued_frames() < capacity.max(1) {
            return write_encoded(writer, dead, frame);
        }
        // Watermark crossed: stop buffering for this reader. It is told
        // to catch up via `sync` (which also clears the clock); until then
        // broadcasts to it are dropped, not buffered.
        if self.lagging_since.is_none() {
            self.lagging_since = Some(now);
            write_frame(writer, dead, &Reply::Lagging);
            shared.metrics.lag_downgrades.inc();
            let worker = self.worker.0;
            crowdfill_obs::obs_warn!("server", "worker {worker} lagging: write buffer full");
        }
        shared.metrics.lag_dropped.inc();
    }
}

enum Phase {
    /// Waiting for the `hello`/`resume` frame.
    Handshake,
    Active(Session),
}

/// The protocol half of one connection: codecs, phase, flags and clocks.
pub(crate) struct Conn {
    reader: FrameReader,
    writer: FrameWriter,
    phase: Phase,
    /// Reply written, nothing more to read: close once the writer drains.
    closing: bool,
    /// Peer half-closed; serve what is buffered, then close.
    peer_eof: bool,
    dead: bool,
    /// The socket is dead in both directions: it takes no more writes.
    hangup: bool,
    /// When the socket was accepted: a handshake has `evict_after` from
    /// here, whatever trickles in meanwhile.
    opened: Instant,
    last_activity: Instant,
    /// What the socket is registered for.
    interest: Interest,
    /// Already on the run list for the coming sweep.
    queued: bool,
    /// Served on this sweep and not finished yet.
    served: bool,
    /// Left with work no socket event, wake or deadline will announce:
    /// visit it again on the next wake.
    runnable: bool,
    /// The earliest deadline this connection has in the timer heap.
    armed: Option<Instant>,
}

impl Conn {
    fn new(now: Instant) -> Conn {
        Conn {
            reader: FrameReader::new(),
            writer: FrameWriter::new(),
            phase: Phase::Handshake,
            closing: false,
            peer_eof: false,
            dead: false,
            hangup: false,
            opened: now,
            last_activity: now,
            interest: Interest::READ,
            queued: false,
            served: false,
            runnable: false,
            armed: None,
        }
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

/// Writes a reply frame into a connection's writer (free function so
/// callers holding a borrow of `conn.phase` can still reach the writer).
fn write_frame(writer: &mut FrameWriter, dead: &mut bool, reply: &Reply<'_>) {
    write_encoded(writer, dead, &reply.encode());
}

/// [`write_frame`] for a reply that was encoded where it was built (a
/// `welcome` under the backend lock, a catch-up off it).
fn write_encoded(writer: &mut FrameWriter, dead: &mut bool, reply: &str) {
    if writer.enqueue(reply.as_bytes()).is_err() {
        *dead = true;
    }
}

/// One shard's rules and state.
pub(crate) struct ShardCore {
    index: usize,
    shared: Arc<ServiceShared>,
    /// The collections this shard owns; a `Collection::slot` indexes it.
    owned: Vec<Owned>,
    /// Slots of the collections to apply on this sweep (each at most once,
    /// see `Owned::dirty`).
    dirty: Vec<usize>,
    /// By token: what visits every connection does so in token order, so
    /// one input sequence yields one effect order.
    conns: BTreeMap<u64, Conn>,
    /// Sweeps so far: what the fairness budgets are refilled by.
    wake_no: u64,
    /// Connections to visit on the coming sweep (each at most once, see
    /// `Conn::queued`). Non-empty after a sweep only for connections
    /// carried over with runnable work; the core then asks to be woken at
    /// once.
    run: Vec<u64>,
    /// Pending deadlines, nearest first. A connection's or a batch's
    /// entry is live only while it equals its owner's `armed`
    /// ([`ShardCore::live`]); superseded ones are dropped when they
    /// surface, so none of them wakes the shard. A periodic one re-arms
    /// itself.
    timers: BinaryHeap<Reverse<(Instant, Due)>>,
    /// The wake instant the driver was last asked for.
    told: Option<Instant>,
}

impl ShardCore {
    /// Shard `index`'s core, owning `owned`, at clock reading `now`. What
    /// is periodic is a deadline one interval from `now`, and only where it
    /// has something to do: a durability tick where a collection keeps
    /// checkpoints, a progress tick where a stopping policy decides.
    pub(crate) fn new(
        index: usize,
        owned: Vec<(Arc<Collection>, BatchPipeline)>,
        shared: Arc<ServiceShared>,
        now: Instant,
    ) -> ShardCore {
        let mut timers = BinaryHeap::new();
        if owned.iter().any(|(c, _)| c.backend.lock().has_snapshots()) {
            let at = now + shared.options.durability.interval;
            timers.push(Reverse((at, Due::Durability)));
        }
        if shared.options.stopping.is_some() && !owned.is_empty() {
            timers.push(Reverse((now + PROGRESS_INTERVAL, Due::Progress)));
        }
        let owned = owned.into_iter().map(|(collection, pipeline)| Owned {
            collection,
            pipeline,
            sessions: BTreeMap::new(),
            budget: (0, COLLECTION_FRAMES_PER_WAKE),
            dirty: false,
            armed: None,
            fold: ProgressTracker::new(),
            acted: false,
        });
        ShardCore {
            index,
            shared,
            owned: owned.collect(),
            dirty: Vec::new(),
            conns: BTreeMap::new(),
            wake_no: 0,
            run: Vec::new(),
            timers,
            told: None,
        }
    }

    /// The entry point: takes one event at clock reading `now` and pushes
    /// what the driver is to do about it onto `fx`, ending with
    /// [`Effect::Arm`] whenever the instant the core wants to be woken at
    /// changed.
    pub(crate) fn on(&mut self, now: Instant, event: Event<'_>, fx: &mut VecDeque<Effect>) {
        match event {
            Event::Accepted(token) => self.adopt(token, Conn::new(now)),
            Event::HandOver(token, handed) => {
                let (conn, request) = *handed;
                self.adopt(token, conn);
                let conn = self.conns.get_mut(&token).expect("just adopted");
                serve_handshake(conn, token, request, now, &self.shared, &mut self.owned);
            }
            Event::Read(token, bytes) => {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                if conn.closing || conn.peer_eof {
                    return;
                }
                if bytes.is_empty() {
                    conn.peer_eof = true;
                } else {
                    conn.reader.push(bytes);
                    conn.last_activity = now;
                }
                self.schedule(token, false);
            }
            Event::Flushed(token) => self.settle(now, token, fx),
            Event::HungUp(token) => self.schedule(token, true),
            Event::CloseAll => {
                let open = |(_, c): &(&u64, &Conn)| matches!(c.phase, Phase::Active(_));
                let tokens: Vec<u64> = self.conns.iter().filter(open).map(|(t, _)| *t).collect();
                // A hung-up socket's visit is its teardown.
                tokens.into_iter().for_each(|t| self.schedule(t, true));
            }
            Event::Sweep => self.sweep(now, fx),
            Event::Stop => {
                self.shared.metrics.conns.add(-(self.conns.len() as i64));
                for (token, conn) in std::mem::take(&mut self.conns) {
                    retire(token, &conn, &self.shared, &mut self.owned);
                    fx.push_back(Effect::Close(token));
                }
                return;
            }
        }
        let wake_at = match self.run.is_empty() {
            true => self.nearest(),
            false => Some(now),
        };
        if wake_at != self.told {
            self.told = wake_at;
            fx.push_back(Effect::Arm(wake_at));
        }
    }

    /// The writer of a connection the core asked to flush.
    pub(crate) fn writer(&mut self, token: u64) -> Option<&mut FrameWriter> {
        self.conns.get_mut(&token).map(|conn| &mut conn.writer)
    }

    /// Takes a connection — fresh, or handed over — under `token`, which
    /// the driver registered for reading.
    fn adopt(&mut self, token: u64, mut conn: Conn) {
        // A deadline it had is in the heap of the shard it came from.
        (conn.interest, conn.armed) = (Interest::READ, None);
        self.conns.insert(token, conn);
        self.shared.metrics.conns.add(1);
        // First visit: the idle or handshake deadline wants arming.
        self.schedule(token, false);
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

    /// The nearest live deadline; superseded ones above it are dropped.
    fn nearest(&mut self) -> Option<Instant> {
        while let Some(&Reverse((at, due))) = self.timers.peek() {
            if self.live(at, due) {
                return Some(at);
            }
            self.timers.pop();
        }
        None
    }

    /// Whether a deadline still stands: a connection's or a batch's only
    /// while it is its owner's `armed` (the rest were superseded — re-armed
    /// earlier, voided by a completed handshake, or their connection is
    /// gone); a tick always.
    fn live(&self, at: Instant, due: Due) -> bool {
        match due {
            Due::Conn(token) => self.conns.get(&token).is_some_and(|c| c.armed == Some(at)),
            Due::Batch(slot) => self.owned[slot].armed == Some(at),
            Due::Durability | Due::Progress => true,
        }
    }

    /// One sweep (module docs): what is due, then serve, apply, finish.
    fn sweep(&mut self, now: Instant, fx: &mut VecDeque<Effect>) {
        self.fire_timers(now);
        self.wake_no += 1;
        // A finish appends what it carries over; only the tokens that
        // were due on this sweep are visited and removed.
        let due = self.run.len();
        for i in 0..due {
            self.serve(self.run[i], now, fx);
        }
        for i in 0..self.dirty.len() {
            self.apply(self.dirty[i], now, fx);
        }
        self.dirty.clear();
        for i in 0..due {
            let token = self.run[i];
            if self.conns.get(&token).is_some_and(|c| c.served) {
                self.finish(token, now, fx);
            }
        }
        self.run.drain(..due);
    }

    /// Moves everything due at `now` onto its list — a connection onto the
    /// run list, a collection onto the dirty list — and runs what is
    /// periodic, which then re-arms itself one period on.
    fn fire_timers(&mut self, now: Instant) {
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
                Due::Durability | Due::Progress => {
                    // No period is short enough to spin the shard.
                    let every = self.tick(due).max(Duration::from_millis(1));
                    self.timers.push(Reverse((now + every, due)));
                }
            }
        }
    }

    /// Runs one periodic job; returns its period.
    fn tick(&mut self, due: Due) -> Duration {
        let shared = &*self.shared;
        match due {
            Due::Durability => {
                let options = &shared.options.durability;
                for owned in &self.owned {
                    durability_tick(&owned.collection, options);
                }
                options.interval
            }
            Due::Progress => {
                let policy = shared.options.stopping.as_ref();
                let policy = policy.expect("armed with a policy");
                for owned in &mut self.owned {
                    let (fold, acted) = (&mut owned.fold, &mut owned.acted);
                    progress_tick(&owned.collection, policy, fold, acted, shared);
                }
                PROGRESS_INTERVAL
            }
            Due::Conn(_) | Due::Batch(_) => unreachable!("not periodic"),
        }
    }

    /// Pass 1 on one connection: decode, answer or admit.
    fn serve(&mut self, token: u64, now: Instant, fx: &mut VecDeque<Effect>) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        (conn.queued, conn.served) = (false, true);
        let shared = &*self.shared;
        shared.metrics.conn_visits.inc();
        shared.metrics.shard_conn_visits[self.index].inc();
        // Serve complete frames, within the collection's fairness budget.
        while !conn.dead && !conn.closing {
            if let Phase::Active(session) = &conn.phase {
                if session.awaiting {
                    break; // one op in flight per connection: acks stay in request order
                }
                if *self.owned[session.slot].frames_left(self.wake_no) == 0 {
                    if conn.reader.pending_bytes() >= 4 {
                        shared.metrics.fairness_deferrals.inc();
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
            shared.metrics.frames_in.inc();
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
                            write_frame(&mut conn.writer, &mut conn.dead, &Reply::reject(e))
                        }
                        _ => {}
                    }
                    continue;
                }
            };
            if matches!(conn.phase, Phase::Active(_)) {
                let (owned, dirty) = (&mut self.owned, &mut self.dirty);
                serve_request(conn, token, request, now, shared, owned, dirty);
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
                None => serve_handshake(conn, token, request, now, shared, &mut self.owned),
                Some(owner) => {
                    let conn = self.conns.remove(&token).expect("being served");
                    shared.metrics.conns.add(-1);
                    shared.metrics.handovers.inc();
                    fx.push_back(Effect::HandOver(token, owner, Box::new((conn, request))));
                    return;
                }
            }
        }
    }

    /// Pass 2 on one collection: every batch that is due at `now`, then
    /// the finish of the connections they touched, authors last.
    fn apply(&mut self, slot: usize, now: Instant, fx: &mut VecDeque<Effect>) {
        let owned = &mut self.owned[slot];
        owned.dirty = false;
        let shared = &*self.shared;
        let capacity = shared.options.overload.write_buffer_frames;
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
            let mut fulfilled = None;
            let metrics = &shared.metrics;
            metrics.queue_depth.add(-(settled.len() as i64));
            for answer in settled {
                metrics.queue_wait_ns.record(answer.waited_ns);
                match answer.latency_ns {
                    Some(latency) => metrics.ack_latency_ns.record(latency),
                    None => metrics.sheds.inc(),
                }
                if let Ok(report) = &answer.result {
                    fulfilled = Some(report.fulfilled);
                }
                // Gone meanwhile: applied all the same, as for any op whose
                // ack is lost with its connection.
                let Some(conn) = self.conns.get_mut(&answer.ticket) else {
                    continue;
                };
                let Phase::Active(session) = &mut conn.phase else {
                    continue;
                };
                session.awaiting = false;
                let reply = result_frame(answer.result, answer.trace);
                write_frame(&mut conn.writer, &mut conn.dead, &reply);
                // Frames pipelined behind the op can be served now.
                conn.runnable |= conn.reader.pending_bytes() >= 4;
                authors.push(answer.ticket);
            }
            if let Some(fulfilled) = fulfilled {
                shared.note_fulfilled(&owned.collection, fulfilled);
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
                    last = Some((seqs, broadcast_frames(pending, shared)));
                }
                for frame in &last.as_ref().expect("just set").1 {
                    let (writer, dead) = (&mut conn.writer, &mut conn.dead);
                    session.broadcast(writer, dead, frame, capacity, now, shared);
                }
                recipients.push(token);
            }
        }
        // Recipients first, authors last (one batch has few of those).
        for token in recipients.into_iter().filter(|t| !authors.contains(t)) {
            self.finish(token, now, fx);
        }
        for token in authors {
            self.finish(token, now, fx);
        }
    }

    /// Pass 3 on one connection: its eviction clock, then a flush of what
    /// its writer holds; the rest is [`settle`](Self::settle)'s, once the
    /// socket took what it would.
    fn finish(&mut self, token: u64, now: Instant, fx: &mut VecDeque<Effect>) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        conn.served = false;
        // A hung-up socket takes no more writes (and `CloseAll` is served
        // as one): what the visit could still read has been served.
        if !conn.dead && !conn.hangup {
            let evict_after = self.shared.options.overload.evict_after;
            let (clock, who) = match &conn.phase {
                Phase::Active(session) => (session.lagging_since, Some(session.worker.0)),
                Phase::Handshake => (Some(conn.opened), None),
            };
            if clock.is_some_and(|since| now >= since + evict_after) {
                self.shared.metrics.evictions.inc();
                let why = "did not keep up for";
                crowdfill_obs::obs_warn!(
                    "server",
                    "evicting a peer that {why} {evict_after:?} ({who:?})"
                );
                conn.dead = true;
            } else if !conn.writer.is_empty() {
                return fx.push_back(Effect::Flush(token));
            }
        }
        self.settle(now, token, fx);
    }

    /// What a connection waits for next, its writer flushed: retire it, or
    /// set its interest and deadline, and carry it over to the next wake if
    /// it was left with work no event will announce.
    fn settle(&mut self, now: Instant, token: u64, fx: &mut VecDeque<Effect>) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let shared = &*self.shared;
        conn.dead |= conn.hangup;
        // Close conditions: explicit close once drained, half-closed peer
        // with nothing left to do, or idle timeout — at its deadline.
        let awaiting = matches!(&conn.phase, Phase::Active(s) if s.awaiting);
        let drained_bye = conn.closing && conn.writer.is_empty();
        let drained_eof = conn.peer_eof
            && conn.reader.pending_bytes() == 0
            && conn.writer.is_empty()
            && !awaiting;
        let idle = shared.options.idle_timeout;
        if conn.dead || drained_bye || drained_eof {
            conn.dead = true;
        } else if idle.is_some_and(|t| now >= conn.last_activity + t) {
            shared.metrics.idle_disconnects.inc();
            crowdfill_obs::obs_debug!("server", "idle session disconnected");
            conn.dead = true;
        }
        if conn.dead {
            let conn = self.conns.remove(&token).expect("settling");
            retire(token, &conn, shared, &mut self.owned);
            shared.metrics.conns.add(-1);
            return fx.push_back(Effect::Close(token));
        }
        let want = Interest {
            read: !conn.peer_eof && !conn.closing,
            write: !conn.writer.is_empty(),
        };
        if want != conn.interest {
            conn.interest = want;
            fx.push_back(Effect::Interest(token, want));
        }
        if let Some(at) = conn.next_deadline(shared) {
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

/// Puts a collection on the list of those to apply on this sweep.
fn mark_dirty(owned: &mut Owned, slot: usize, dirty: &mut Vec<usize>) {
    if !std::mem::replace(&mut owned.dirty, true) {
        dirty.push(slot);
    }
}

/// Tears down a connection's session, if it got that far: unregistered
/// (guarded: only if the collection still sends to THIS connection) and
/// its epoch retired (guarded in the backend: a resumed successor must
/// survive its predecessor's exit). The socket is the driver's to close.
fn retire(token: u64, conn: &Conn, shared: &ServiceShared, owned: &mut [Owned]) {
    let Phase::Active(session) = &conn.phase else {
        return;
    };
    let owned = &mut owned[session.slot];
    if owned.sessions.get(&session.worker) == Some(&token) {
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

/// Serves a connection's first frame (`hello`/`resume`) via
/// [`open_session`], on the shard that owns the collection it names (any
/// shard, if all there is to send is a refusal).
fn serve_handshake(
    conn: &mut Conn,
    token: u64,
    request: Request,
    now: Instant,
    shared: &ServiceShared,
    owned: &mut [Owned],
) {
    match open_session(request, now, shared) {
        Ok((collection, worker, epoch, reply)) => {
            // Handshake reply enters the writer FIRST: the connection's one
            // outbound buffer guarantees no broadcast precedes the welcome.
            write_encoded(&mut conn.writer, &mut conn.dead, &reply);
            if conn.dead {
                collection.backend.lock().disconnect_epoch(worker, epoch);
                shared.metrics.disconnects.inc();
                return;
            }
            // From here on the collection's batches poll this worker's
            // cursor, which `open_session` left at the reply's end.
            owned[collection.slot].sessions.insert(worker, token);
            shared.attached.fetch_add(1, Ordering::SeqCst);
            // The handshake's eviction deadline is void: dropped, not
            // visited, when it surfaces.
            conn.armed = None;
            conn.phase = Phase::Active(Session {
                slot: collection.slot,
                worker,
                epoch,
                awaiting: false,
                lagging_since: None,
            });
        }
        Err(Some(refusal)) => {
            write_frame(&mut conn.writer, &mut conn.dead, &refusal);
            conn.closing = true;
        }
        Err(None) => conn.dead = true,
    }
}

/// Serves one in-session request, read on the wake at `now`.
fn serve_request(
    conn: &mut Conn,
    token: u64,
    request: Request,
    now: Instant,
    shared: &ServiceShared,
    owned: &mut [Owned],
    dirty: &mut Vec<usize>,
) {
    let Conn {
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
    let slot = session.slot;
    // Hands a decoded submit/modify to the collection's queue. If
    // admission refuses it the reply is written now; otherwise the
    // connection waits for pass 2 of this sweep (or of the one that ends
    // the batch's fill window).
    let mut submit = |op, speculative, trace| {
        let job = Submission {
            ticket: token,
            worker: session.worker,
            op,
            speculative,
            trace,
        };
        match owned[slot].pipeline.admit(job, now) {
            Ok(()) => {
                metrics.queue_depth.add(1);
                session.awaiting = true;
                mark_dirty(&mut owned[slot], slot, dirty);
            }
            Err(refused) => {
                metrics.overload_rejects.inc();
                write_frame(writer, dead, &result_frame(Err(refused), trace));
            }
        }
    };
    match request {
        Request::Submit((msg, auto_upvote), speculative, trace) => {
            metrics.submit_requests.inc();
            submit(BatchOp::Msg { msg, auto_upvote }, speculative, trace);
        }
        Request::Modify(bundle, trace) => {
            metrics.modify_requests.inc();
            submit(BatchOp::Modify { bundle }, false, trace);
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
            let reply = sync_reply(backend, session.worker, cursor, shared);
            write_encoded(writer, dead, &reply);
        }
        Request::Stats => {
            metrics.stats_requests.inc();
            write_frame(writer, dead, &Reply::Stats(shared.stats()));
        }
        Request::Health => {
            metrics.health_requests.inc();
            let owned = &mut owned[slot];
            let reply = health_reply(&owned.collection, &mut owned.fold, shared);
            write_frame(writer, dead, &reply);
        }
        Request::TraceDump => {
            metrics.trace_dump_requests.inc();
            let events = obstrace::recorder().dump_jsonl();
            write_frame(writer, dead, &Reply::TraceDump(events));
        }
        Request::Bye => *closing = true,
        Request::Hello(_) | Request::Resume(..) => {
            metrics.malformed_frames.inc();
            write_frame(writer, dead, &Reply::reject("a session is already open"));
        }
    }
}

/// The server's timestamp of clock reading `now`.
fn server_millis(shared: &ServiceShared, now: Instant) -> Millis {
    Millis(now.saturating_duration_since(shared.started).as_millis() as u64)
}

/// What brings `cursor` up to date — for none, a full resync, a reset —
/// and counts a reset. Call under the lock acquisition that re-attached
/// the session (`resume`) or read `history_len` (`sync`): what this reads
/// plus the broadcasts polled afterwards then covers the history with no
/// gap. The reply is encoded off the lock, so an image is a copy of the
/// backend's text.
fn catch_up(b: &mut Backend, cursor: Option<&Cursor>, shared: &ServiceShared) -> CatchUp<'static> {
    let Some(cursor) = cursor.filter(|c| c.from >= b.history_base()) else {
        shared.metrics.reset_resyncs.inc();
        return CatchUp::Image(Image::Text(b.bootstrap_text().to_owned().into()));
    };
    let mut missing = b.history_suffix(cursor.from);
    missing.retain(|(seq, _)| !cursor.have.contains(seq));
    CatchUp::Suffix(missing)
}

/// A session a handshake frame (`hello` or `resume`) opened — its
/// collection, worker and epoch — and its encoded `welcome`/`resumed`
/// reply, NOT yet in the writer: the caller owns delivery so it can order
/// the reply before any broadcast.
type Opened = (Arc<Collection>, WorkerId, u64, String);

/// Processes the first frame of a connection: `hello` creates a worker in
/// the requested collection, `resume` re-attaches to an existing one. The
/// request names the collection; none means the default. An `Err` drops
/// the connection: after sending the reply, if the handshake was understood
/// but refused (unknown collection, failed resume); silently, if the
/// request was no handshake at all.
fn open_session(
    request: Request,
    now: Instant,
    shared: &ServiceShared,
) -> Result<Opened, Option<Reply<'static>>> {
    let attach_to = |name: &Option<String>| {
        let collection = shared.resolve_collection(name.as_deref());
        collection.ok_or(Some(Reply::reject("unknown collection")))
    };
    let at = server_millis(shared, now);
    Ok(match request {
        Request::Hello(collection) => {
            shared.metrics.connects.inc();
            let collection = attach_to(&collection)?;
            // Attach and bootstrap come from ONE lock acquisition, so the
            // text ends exactly where the session's broadcasts begin. It
            // is a state image plus a log suffix, shorter than the history
            // it stands in for — the client's resume cursor must cover the
            // real watermark, which travels as `history_len`.
            let mut b = collection.backend.lock();
            let (worker, client) = b.attach(at);
            let (name, history_len) = (collection.name().to_string(), b.history_len());
            let schema = Arc::clone(&b.config().schema);
            let history = Image::Text(b.bootstrap_text().into());
            let reply = Reply::Welcome(name, worker, client, history_len, schema, history).encode();
            drop(b);
            let (w, c) = (worker.0, client.0);
            crowdfill_obs::obs_debug!("server", "session started"; worker => w, client => c);
            (collection, worker, 0, reply)
        }
        Request::Resume(worker, cursor, collection) => {
            shared.metrics.resume_requests.inc();
            let collection = attach_to(&collection)?;
            // Resume and catch-up come from ONE lock acquisition.
            let resumed = {
                let mut b = collection.backend.lock();
                let info = b.resume(worker, at);
                info.map(|info| (info, catch_up(&mut b, Some(&cursor), shared)))
            };
            let (info, body) = resumed.map_err(|e| Some(Reply::reject(e)))?;
            let name = collection.name().to_string();
            let reply = Reply::Resumed(name, info.client, info.history_len, body).encode();
            let (epoch, reply_bytes) = (info.epoch, reply.len());
            crowdfill_obs::obs_debug!("server", "session resumed";
                worker => worker.0, epoch => epoch, reply_bytes => reply_bytes);
            (collection, worker, info.epoch, reply)
        }
        _ => {
            shared.metrics.malformed_frames.inc();
            return Err(None);
        }
    })
}

/// Builds the encoded `synced` reply to `cursor`, or to a full resync for
/// none. The caller must clear its own session's lagging flag BEFORE
/// calling: every broadcast dropped while lagging then has a seq below the
/// history length this reply covers, and broadcasts after the clear are
/// written normally (overlap is seq-deduped client-side), so nothing can
/// fall in a gap.
fn sync_reply(
    backend: &Mutex<Backend>,
    worker: WorkerId,
    cursor: Option<&Cursor>,
    shared: &ServiceShared,
) -> String {
    let (history_len, body) = {
        let mut b = backend.lock();
        let history_len = b.history_len();
        // The reply covers the history through `history_len`, so the
        // replica-lag gauge for this worker resets.
        b.note_confirmed(worker, history_len);
        (history_len, catch_up(&mut b, cursor, shared))
    };
    Reply::Synced(history_len, body).encode()
}

/// The window both service objectives are evaluated over.
const SLO_WINDOW: Duration = Duration::from_secs(60);
/// `ack-p99`: the 99th percentile of `crowdfill_server_ack_latency_ns`
/// over the window stays at or below 250 ms.
const ACK_P99_MAX_NS: f64 = 250e6;
/// `shed-rate`: `crowdfill_server_sheds` over
/// `crowdfill_server_submit_requests` in the window stays at or below 5 %.
const SHED_RATE_MAX: f64 = 0.05;

/// The service objectives over the last [`SLO_WINDOW`] of `ring`.
fn service_objectives(ring: &ReadingRing) -> [SloStatus; 2] {
    let window = ring.window(SLO_WINDOW);
    [
        SloStatus::new("ack-p99", window.latency_quantile(0.99), ACK_P99_MAX_NS),
        SloStatus::new("shed-rate", window.shed_ratio(), SHED_RATE_MAX),
    ]
}

/// The semantic-health report (DESIGN.md §11) of ONE collection, on the
/// shard that owns it: `fold` — the collection's — is advanced over what
/// the log grew by since and read in place, under one lock acquisition.
/// Then the service objectives over the reading ring and the two
/// progress objectives of this collection's own progress section.
fn health_reply(
    collection: &Collection,
    fold: &mut ProgressTracker,
    shared: &ServiceShared,
) -> Reply<'static> {
    // One target serves the forecast and the stop: the policy's.
    let policy = shared.options.stopping.as_ref();
    let target = policy.map_or(crate::progress::DEFAULT_TARGET, |p| p.target);
    let mut report = {
        let b = collection.backend.lock();
        fold.advance(&b);
        crate::health::report(&b, fold, target)
    };
    report.slos = service_objectives(&shared.telemetry)
        .map(SloHealth::from)
        .into();
    if let Some(p) = &report.progress {
        report.slos.extend(progress_objectives(p));
    }
    Reply::Health(Box::new(report))
}

/// The largest burn a progress objective reports (JSON has no ∞): what a
/// milli-unit `i64` can hold.
const BURN_CEILING: f64 = i64::MAX as f64 / 1000.0;

/// The progress objectives (DESIGN.md §15.4) of one collection's progress
/// section, each against a 1.0 burn line: `burn_to_target`, the share of
/// the budget spent over the share of the way to the target (0 before any
/// progress), and `completeness_target`, the target over the estimated
/// completeness.
fn progress_objectives(p: &ProgressReport) -> [SloHealth; 2] {
    let completeness = p.overall.completeness;
    let ratio = |num: f64, den: f64, none: f64| if den > 0.0 { num / den } else { none };
    let way = ratio(completeness, p.target, 0.0).clamp(0.0, 1.0);
    let burn_to_target = ratio(ratio(p.spent, p.budget, 0.0), way, 0.0);
    let completeness_target = ratio(p.target, completeness, f64::INFINITY);
    let row = |name: &str, burn: f64| {
        let burn = burn.clamp(0.0, BURN_CEILING);
        SloHealth {
            name: name.to_string(),
            ok: burn <= 1.0,
            value: burn,
            threshold: 1.0,
            burn_rate: burn,
        }
    };
    [
        row("burn_to_target", burn_to_target),
        row("completeness_target", completeness_target),
    ]
}

/// Maps a submit/modify outcome to its reply; overload gets its typed
/// frame (so clients can back off) rather than a generic reject. The op's
/// trace id is echoed on every reply and stamps the terminal `ack` span
/// (overload/shed rejects are stamped by the pipeline).
fn result_frame(result: Result<SubmitReport, SubmitError>, trace: TraceId) -> Reply<'static> {
    let stamp = |stage, seqs: usize| {
        if !trace.is_none() {
            obstrace::stamp(trace, stage, SpanId::root(trace), 0, seqs as u64);
        }
    };
    match result {
        Ok(report) => {
            stamp(Stage::Ack, report.seqs.len());
            Reply::Ack(report.estimate, report.fulfilled, report.seqs, trace)
        }
        Err(SubmitError::Overloaded { retry_after_ms }) => Reply::Overloaded(retry_after_ms, trace),
        Err(e) => {
            stamp(Stage::Reject, 0);
            Reply::Reject(e.to_string(), trace)
        }
    }
}

/// What each of `sessions` (worker → its connection's token) has not been
/// handed yet, cursors moved past it. Called under the lock acquisition
/// that applied the batch, so the seq → trace attribution (when tracing)
/// sees the history the polls did. Sessions owed nothing are left out.
fn poll_broadcasts(b: &mut Backend, sessions: &BTreeMap<WorkerId, u64>) -> Vec<(u64, Vec<SeqMsg>)> {
    let traced = obstrace::enabled();
    let mut polled = Vec::new();
    for (&worker, &token) in sessions {
        let pending = b.poll_seq(worker);
        if pending.is_empty() {
            continue;
        }
        let attribute = |(seq, msg)| {
            let trace = if traced {
                b.trace_for_seq(seq)
            } else {
                TraceId::NONE
            };
            if !trace.is_none() {
                // `arg` carries the receiving worker so a trace's
                // broadcast fan-out is visible in reports; the seq
                // salts the span so each seq is a distinct node.
                let root = SpanId::root(trace);
                obstrace::stamp(trace, Stage::Broadcast, root, seq, worker.0 as u64);
            }
            SeqMsg { seq, msg, trace }
        };
        polled.push((token, pending.into_iter().map(attribute).collect()));
    }
    polled
}

/// One session's pending broadcasts as encoded frames: a lone message as a
/// `msg` frame, several as `batch` frames (chunked so a huge backlog
/// cannot overflow the transport's frame-size cap). Called off the backend
/// lock.
fn broadcast_frames(mut pending: Vec<SeqMsg>, shared: &ServiceShared) -> Vec<String> {
    if pending.len() == 1 {
        return vec![Reply::Msg(pending.remove(0)).encode()];
    }
    let mut frames = Vec::new();
    while !pending.is_empty() {
        let rest = pending.split_off(pending.len().min(BATCH_FRAME_CHUNK));
        frames.push(Reply::Batch(std::mem::replace(&mut pending, rest)).encode());
        shared.metrics.batch_broadcast_frames.inc();
    }
    frames
}

/// The durability tick (DESIGN.md §14) for one collection: compaction is
/// driven by journal growth, not by traffic — a collection that went quiet
/// right after a burst still gets its journal truncated. The shard holds
/// the backend lock for the duration of one checkpoint write; sizing
/// `compact_wal_bytes` bounds how much state that write covers.
fn durability_tick(collection: &Collection, options: &DurabilitySweepOptions) {
    let mut b = collection.backend.lock();
    if b.has_snapshots() && b.wal_bytes() >= options.compact_wal_bytes {
        let name = collection.name();
        match b.compact_storage() {
            Ok(base) => {
                crowdfill_obs::obs_info!("server", "compacted collection journal";
                    collection => name, base_seq => base)
            }
            Err(e) => {
                crowdfill_obs::obs_warn!("server", "compaction failed: {e}"; collection => name)
            }
        }
    }
}

/// The progress tick (DESIGN.md §15) for one collection: advances the
/// collection's fold over the ops appended since it was last advanced
/// (O(new ops), not O(trace)) and applies `policy` at most once: `acted`
/// latches it.
fn progress_tick(
    collection: &Collection,
    policy: &StoppingPolicy,
    fold: &mut ProgressTracker,
    acted: &mut bool,
    shared: &ServiceShared,
) {
    if *acted {
        return;
    }
    let report = {
        let b = collection.backend.lock();
        fold.advance(&b);
        fold.report(&b, policy.target)
    };
    let Some(decision) = policy.evaluate(&report) else {
        return;
    };
    *acted = true;
    let (name, reason) = (collection.name(), &decision.reason);
    match decision.action {
        StopAction::Close => {
            collection.backend.lock().close();
            shared.metrics.progress_stopped.set(1);
            let what = "auto-stop closed collection";
            crowdfill_obs::obs_info!("server", "{what}: {reason}"; collection => name);
        }
        StopAction::Reprice => {
            let factor = policy.reprice_factor(&decision);
            let milli = (factor * 1000.0).round() as i64;
            shared.metrics.progress_reprice_milli.set(milli);
            let what = "auto-stop recommends repricing";
            crowdfill_obs::obs_warn!("server", "{what} x{factor:.2}: {reason}"; collection => name);
        }
        StopAction::Alert => {
            crowdfill_obs::obs_warn!("server", "auto-stop alert: {reason}"; collection => name);
        }
    }
}

#[cfg(test)]
mod tests {
    //! The core's rules under a virtual clock: no socket, no sleep. The rig
    //! stands in for the driver — it feeds events at the instant it is set
    //! to, and carries out the effects as `reactor.rs` does, flushing a
    //! writer into a peer that takes only as many bytes as it has room for.
    use super::*;
    use crate::{ClientCore, OverloadOptions, ServiceOptions, TaskConfig};
    use crowdfill_model::{Column, ColumnId, DataType, QuorumMajority, Schema, Template, Value};
    use std::collections::HashMap;
    use std::io::Write;

    fn config(rows: usize) -> TaskConfig {
        let columns = vec![
            Column::new("name", DataType::Text),
            Column::new("nationality", DataType::Text),
        ];
        let schema = Schema::new("SoccerPlayer", columns, &["name"]).unwrap();
        let scoring = Arc::new(QuorumMajority::of_three());
        TaskConfig::new(Arc::new(schema), scoring, Template::cardinality(rows), 10.0)
    }

    /// The far end of a socket: takes at most `room` more bytes.
    struct Peer {
        took: Vec<u8>,
        room: usize,
    }

    impl Write for Peer {
        fn write(&mut self, bytes: &[u8]) -> std::io::Result<usize> {
            let n = bytes.len().min(self.room);
            if n == 0 {
                return Err(std::io::ErrorKind::WouldBlock.into());
            }
            self.room -= n;
            self.took.extend_from_slice(&bytes[..n]);
            Ok(n)
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// An effect as a test reads it; `Arm` as an offset from the rig's start.
    #[derive(Debug, PartialEq)]
    enum Fx {
        Flush(u64),
        Interest(u64, Interest),
        Close(u64),
        HandOver(u64, usize),
        Arm(Option<Duration>),
    }

    struct Rig {
        core: ShardCore,
        t0: Instant,
        now: Instant,
        peers: HashMap<u64, Peer>,
        next_token: u64,
        /// What a hand-over carried out of the core, by token.
        handed: HashMap<u64, Box<(Conn, Request)>>,
    }

    impl Rig {
        /// Shard `index` of a service over `collections`, at its start.
        fn shard(index: usize, collections: &[&str], options: ServiceOptions) -> Rig {
            let backends = collections
                .iter()
                .map(|n| (n.to_string(), Backend::new(config(8))));
            let (shared, mut owned) = ServiceShared::new(backends.collect(), options).unwrap();
            let t0 = shared.started;
            let core = ShardCore::new(index, owned.remove(index), shared, t0);
            let (peers, handed) = (HashMap::new(), HashMap::new());
            let next_token = 0;
            Rig {
                core,
                t0,
                now: t0,
                peers,
                next_token,
                handed,
            }
        }

        fn new(options: ServiceOptions) -> Rig {
            Rig::shard(
                0,
                &["default"],
                ServiceOptions {
                    shards: 1,
                    ..options
                },
            )
        }

        /// Sets the clock to `t` past the start.
        fn at(&mut self, t: Duration) -> &mut Rig {
            self.now = self.t0 + t;
            self
        }

        fn on(&mut self, event: Event<'_>) -> Vec<Fx> {
            let (mut fx, mut seen) = (VecDeque::new(), Vec::new());
            self.core.on(self.now, event, &mut fx);
            while let Some(effect) = fx.pop_front() {
                seen.push(match effect {
                    Effect::Flush(token) => {
                        let peer = self.peers.get_mut(&token).expect("a peer");
                        let flushed = self.core.writer(token).unwrap().flush(peer);
                        let event = match flushed {
                            Ok(_) => Event::Flushed(token),
                            Err(_) => Event::HungUp(token),
                        };
                        self.core.on(self.now, event, &mut fx);
                        Fx::Flush(token)
                    }
                    Effect::Interest(token, want) => Fx::Interest(token, want),
                    Effect::Close(token) => Fx::Close(token),
                    Effect::HandOver(token, owner, handed) => {
                        self.handed.insert(token, handed);
                        Fx::HandOver(token, owner)
                    }
                    Effect::Arm(at) => Fx::Arm(at.map(|at| at - self.t0)),
                });
            }
            seen
        }

        fn sweep(&mut self) -> Vec<Fx> {
            self.on(Event::Sweep)
        }

        /// A socket accepted now, whose peer reads everything.
        fn connect(&mut self) -> u64 {
            let token = self.next_token;
            self.next_token += 1;
            let peer = Peer {
                took: Vec::new(),
                room: usize::MAX,
            };
            self.peers.insert(token, peer);
            self.on(Event::Accepted(token));
            token
        }

        /// Frames read off `token`'s socket.
        fn send(&mut self, token: u64, frames: &[&[u8]]) {
            let mut bytes = Vec::new();
            for frame in frames {
                bytes.extend_from_slice(&(frame.len() as u32).to_be_bytes());
                bytes.extend_from_slice(frame);
            }
            self.on(Event::Read(token, &bytes));
        }

        fn request(&mut self, token: u64, request: &Request) {
            self.send(token, &[request.encode().as_bytes()]);
        }

        /// A session on `collection`, opened now: its token and its client.
        fn session(&mut self, collection: &str) -> (u64, ClientCore) {
            let token = self.connect();
            self.request(token, &Request::Hello(Some(collection.to_string())));
            self.sweep();
            let welcome = self.peer_frames(token).remove(0);
            let client = ClientCore::welcomed(&welcome, None, None).unwrap();
            (token, client)
        }

        /// What `token`'s peer took since it was last asked, frame by frame.
        fn peer_frames(&mut self, token: u64) -> Vec<Vec<u8>> {
            let took = std::mem::take(&mut self.peers.get_mut(&token).unwrap().took);
            let mut reader = FrameReader::new();
            reader.push(&took);
            std::iter::from_fn(|| reader.pop().unwrap()).collect()
        }

        fn replies(&mut self, token: u64) -> Vec<Reply<'static>> {
            let frames = self.peer_frames(token).into_iter();
            frames
                .map(|f| Reply::decode(&wire::parse_frame(&f).unwrap()).unwrap())
                .collect()
        }

        /// Lets `token`'s peer take `room` more bytes and reports it
        /// writable, as the driver does on `EPOLLOUT`.
        fn drain(&mut self, token: u64) -> Vec<Fx> {
            self.peers.get_mut(&token).unwrap().room = usize::MAX;
            let peer = self.peers.get_mut(&token).unwrap();
            self.core.writer(token).unwrap().flush(peer).unwrap();
            self.on(Event::Flushed(token))
        }
    }

    /// The fill of column 0 of some still-empty row, applied locally.
    fn fill(client: &mut ClientCore, value: &str) -> Request {
        let view = client.view();
        let table = view.replica().table();
        let empty =
            |r: &crowdfill_model::RowId| table.get(*r).is_none_or(|e| !e.value.has(ColumnId(0)));
        let row = view
            .presented_rows()
            .into_iter()
            .find(empty)
            .expect("an empty row");
        let mut requests = client
            .fill(row, ColumnId(0), Value::text(value), false)
            .unwrap();
        requests.remove(0)
    }

    fn is_close(fx: &[Fx], token: u64) -> bool {
        fx.contains(&Fx::Close(token))
    }

    fn overload(write_buffer_frames: usize, evict_after: Duration) -> ServiceOptions {
        let overload = OverloadOptions {
            write_buffer_frames,
            evict_after,
            ..OverloadOptions::default()
        };
        ServiceOptions {
            overload,
            ..ServiceOptions::default()
        }
    }

    const MS: Duration = Duration::from_millis(1);
    const NS: Duration = Duration::from_nanos(1);

    /// An idle shard is asked nothing and arms nothing: a sweep with no
    /// input, whenever it comes, has no effect — and neither has one once a
    /// session settled, under the defaults.
    #[test]
    fn an_idle_shard_gets_no_effect_and_no_deadline() {
        let mut rig = Rig::new(ServiceOptions::default());
        assert_eq!(rig.sweep(), []);
        assert_eq!(rig.at(3600 * 1000 * MS).sweep(), []);
        let (token, _) = rig.session("default");
        assert!(rig.at(3601 * 1000 * MS).sweep().is_empty());
        assert_eq!(rig.replies(token), []);
    }

    /// A socket that never says `hello` is closed at `opened + evict_after`,
    /// not a nanosecond before; one that says it in time voids the deadline,
    /// and the core asks for no wake at all any more.
    #[test]
    fn a_silent_handshake_is_evicted_at_its_deadline() {
        let evict_after = 300 * MS;
        let mut rig = Rig::new(overload(256, evict_after));
        let silent = rig.connect();
        rig.on(Event::Read(silent, &[0, 0])); // half a length prefix
        assert_eq!(rig.sweep(), [Fx::Arm(Some(evict_after))]);
        let late = rig.at(100 * MS).connect();
        rig.request(late, &Request::Hello(None));
        rig.sweep();
        assert!(matches!(rig.replies(late)[..], [Reply::Welcome(..)]));
        assert_eq!(rig.at(evict_after - NS).sweep(), []);
        let fx = rig.at(evict_after).sweep();
        assert_eq!(fx, [Fx::Close(silent), Fx::Arm(None)]);
        assert_eq!(rig.at(10 * evict_after).sweep(), []);
        assert_eq!(rig.replies(late), []);
    }

    /// The idle timeout closes a silent session at `last_activity +
    /// idle_timeout` exactly — the instant its deadline is armed for — and
    /// any request before that moves it.
    #[test]
    fn idle_timeout_fires_at_exactly_its_deadline() {
        let idle = 150 * MS;
        let options = ServiceOptions {
            idle_timeout: Some(idle),
            ..ServiceOptions::default()
        };
        let mut rig = Rig::new(options);
        let (quiet, _) = rig.session("default");
        let (talker, _) = rig.session("default");
        rig.at(100 * MS)
            .request(talker, &Request::Sync(Cursor::default()));
        rig.sweep();
        assert_eq!(rig.at(idle - NS).sweep(), []);
        let fx = rig.at(idle).sweep();
        assert!(is_close(&fx, quiet), "not closed at its deadline: {fx:?}");
        assert!(!is_close(&fx, talker));
        assert_eq!(fx.last(), Some(&Fx::Arm(Some(100 * MS + idle))));
        assert!(is_close(&rig.at(100 * MS + idle).sweep(), talker));
    }

    /// The watermark counts frames the socket has not taken: a reader that
    /// stalls is downgraded on the broadcast that finds `write_buffer_frames`
    /// of them — told `lagging` right behind the last one it was sent, the
    /// rest dropped — and its write interest is on while its writer holds
    /// bytes, off once it drained.
    #[test]
    fn a_stalled_reader_is_downgraded_at_the_watermark() {
        let mut rig = Rig::new(overload(2, 5000 * MS));
        let (observer, _) = rig.session("default");
        let (author, mut client) = rig.session("default");
        rig.peers.get_mut(&observer).unwrap().room = 0;
        for n in 0..4 {
            let request = fill(&mut client, &format!("player-{n}"));
            rig.request(author, &request);
            let fx = rig.sweep();
            if n == 0 {
                let write = Interest {
                    read: true,
                    write: true,
                };
                assert!(fx.contains(&Fx::Interest(observer, write)), "{fx:?}");
            }
        }
        assert_eq!(rig.replies(author).len(), 4, "every ack");
        let fx = rig.drain(observer);
        assert_eq!(fx, [Fx::Interest(observer, Interest::READ)]);
        let seen = rig.replies(observer);
        assert!(
            matches!(seen[..], [Reply::Msg(_), Reply::Msg(_), Reply::Lagging]),
            "{seen:?}"
        );
    }

    /// A reader that keeps up is never downgraded, however many broadcasts
    /// it was sent: the watermark is on what its writer still holds, not on
    /// what went through it.
    #[test]
    fn a_reader_that_keeps_up_is_never_downgraded() {
        let mut rig = Rig::new(overload(2, 5000 * MS));
        let (observer, _) = rig.session("default");
        let (author, mut client) = rig.session("default");
        for n in 0..6 {
            let request = fill(&mut client, &format!("player-{n}"));
            rig.request(author, &request);
            rig.sweep();
        }
        let seen = rig.replies(observer);
        assert_eq!(seen.len(), 6, "{seen:?}");
        assert!(seen.iter().all(|r| matches!(r, Reply::Msg(_))), "{seen:?}");
    }

    /// A lagging session is closed at `lagging_since + evict_after`, with
    /// no traffic to prompt it; one that sent a `sync` before then was
    /// healed and stays.
    #[test]
    fn a_lagging_session_is_evicted_at_its_deadline_unless_a_sync_heals_it() {
        let evict_after = 50 * MS;
        let mut rig = Rig::new(overload(1, evict_after));
        let (stalled, _) = rig.session("default");
        let (healed, _) = rig.session("default");
        let (author, mut client) = rig.session("default");
        for token in [stalled, healed] {
            rig.peers.get_mut(&token).unwrap().room = 0;
        }
        let downgraded_at = 10 * MS;
        for n in 0..2 {
            let request = fill(&mut client, &format!("player-{n}"));
            rig.at(downgraded_at).request(author, &request);
            rig.sweep();
        }
        let deadline = downgraded_at + evict_after;
        rig.at(20 * MS)
            .request(healed, &Request::Sync(Cursor::default()));
        rig.sweep();
        assert_eq!(rig.at(deadline - NS).sweep(), []);
        let fx = rig.at(deadline).sweep();
        assert!(is_close(&fx, stalled), "{fx:?}");
        assert!(!is_close(&fx, healed), "{fx:?}");
        rig.drain(healed);
        let seen = rig.replies(healed);
        assert!(matches!(seen.last(), Some(Reply::Synced(..))), "{seen:?}");
    }

    /// A `resume` re-attaches the worker and replays exactly the suffix
    /// its cursor misses — what was applied while it was gone.
    #[test]
    fn resume_replays_exactly_the_missing_suffix() {
        let mut rig = Rig::new(ServiceOptions::default());
        let (gone, mut absent) = rig.session("default");
        let (author, mut client) = rig.session("default");
        rig.on(Event::HungUp(gone));
        assert!(is_close(&rig.sweep(), gone));
        for n in 0..2 {
            let request = fill(&mut client, &format!("player-{n}"));
            rig.request(author, &request);
            rig.sweep();
        }
        let back = rig.connect();
        let resume = absent.resume_request();
        rig.request(back, &resume);
        rig.sweep();
        let replies = rig.replies(back);
        let [Reply::Resumed(_, _, history_len, CatchUp::Suffix(missed))] = &replies[..] else {
            panic!("{replies:?}");
        };
        let seqs: Vec<u64> = missed.iter().map(|(seq, _)| *seq).collect();
        assert_eq!(seqs, [history_len - 2, history_len - 1]);
    }

    /// Per-collection fairness: a collection that floods the shard with
    /// frames gets `COLLECTION_FRAMES_PER_WAKE` of them served per wake,
    /// the rest on the next — which the core asks for at once — and a
    /// quiet collection's frame is served on the wake it came in.
    #[test]
    fn a_hot_collection_cannot_hold_back_a_quiet_one() {
        let options = ServiceOptions {
            shards: 1,
            ..ServiceOptions::default()
        };
        let mut rig = Rig::shard(0, &["hot", "quiet"], options);
        let (hot, _) = rig.session("hot");
        let (quiet, _) = rig.session("quiet");
        // JSON that is no request: a `reject` each, cheaply.
        let flood = vec![&b"{}"[..]; 100];
        rig.send(hot, &flood);
        rig.send(quiet, &[b"{}"]);
        let fx = rig.sweep();
        assert_eq!(fx.last(), Some(&Fx::Arm(Some(Duration::ZERO))), "{fx:?}");
        assert_eq!(rig.replies(quiet).len(), 1);
        assert_eq!(rig.replies(hot).len(), COLLECTION_FRAMES_PER_WAKE);
        assert_eq!(rig.sweep().last(), Some(&Fx::Arm(None)));
        assert_eq!(rig.replies(hot).len(), 100 - COLLECTION_FRAMES_PER_WAKE);
    }

    /// Within a batch the acks go out before its broadcasts: each of two
    /// authors whose ops share a batch hears of its own op before it hears
    /// of the other's; and peers' sockets are flushed before the authors'.
    #[test]
    fn acks_are_written_before_the_batchs_broadcasts() {
        let mut rig = Rig::new(ServiceOptions::default());
        let (observer, _) = rig.session("default");
        let (a, mut alice) = rig.session("default");
        let (b, mut bob) = rig.session("default");
        let (from_alice, from_bob) = (fill(&mut alice, "Pelé"), fill(&mut bob, "Zico"));
        rig.request(a, &from_alice);
        rig.request(b, &from_bob);
        let fx = rig.sweep();
        let flushes: Vec<&Fx> = fx.iter().filter(|f| matches!(f, Fx::Flush(_))).collect();
        assert_eq!(flushes[0], &Fx::Flush(observer), "{fx:?}");
        for token in [a, b] {
            let seen = rig.replies(token);
            assert!(
                matches!(seen[..], [Reply::Ack(..), Reply::Msg(_)]),
                "{seen:?}"
            );
        }
        let seen = rig.replies(observer);
        assert!(matches!(seen[..], [Reply::Batch(_)]), "{seen:?}");
    }

    /// One input sequence, one effect order: two fresh cores fed the same
    /// script — ten sessions, a batch whose broadcasts reach every one of
    /// them, a `CloseAll`, eight more sessions, a `Stop` — ask for the
    /// same effects in the same order and write the same bytes. (With a
    /// randomly keyed hasher behind either map, each core would visit
    /// its connections in an order of its own.)
    #[test]
    fn one_script_gives_one_effect_order() {
        let play = || {
            let mut rig = Rig::new(ServiceOptions::default());
            let mut clients: Vec<_> = (0..10).map(|_| rig.session("default")).collect();
            for (token, client) in clients.iter_mut().take(3) {
                let request = fill(client, &format!("player-{token}"));
                rig.request(*token, &request);
            }
            let mut log = rig.sweep();
            log.extend(rig.on(Event::CloseAll));
            log.extend(rig.sweep());
            let later: Vec<u64> = (0..8).map(|_| rig.session("default").0).collect();
            log.extend(rig.on(Event::Stop));
            let tokens = clients.iter().map(|(token, _)| *token).chain(later);
            let frames: Vec<Vec<Vec<u8>>> = tokens.map(|t| rig.peer_frames(t)).collect();
            (log, frames)
        };
        let (log, frames) = play();
        assert!(log.iter().filter(|fx| matches!(fx, Fx::Close(_))).count() == 18);
        assert_eq!((log, frames), play());
    }

    /// A handshake naming a collection another shard owns leaves the
    /// acceptor as a hand-over, and the owner's core serves it.
    #[test]
    fn a_foreign_handshake_is_handed_to_its_owner() {
        let names: Vec<String> = (0..8).map(|i| format!("c{i}")).collect();
        let names: Vec<&str> = names.iter().map(String::as_str).collect();
        let options = || ServiceOptions {
            shards: 2,
            ..ServiceOptions::default()
        };
        // Collections go to shards round-robin in start order.
        let foreign = names[1];
        let mut acceptor = Rig::shard(0, &names, options());
        let token = acceptor.connect();
        acceptor.request(token, &Request::Hello(Some(foreign.to_string())));
        let fx = acceptor.sweep();
        assert_eq!(fx, [Fx::HandOver(token, 1), Fx::Arm(None)]);
        let mut owner = Rig::shard(1, &names, options());
        owner.peers.insert(
            7,
            Peer {
                took: Vec::new(),
                room: usize::MAX,
            },
        );
        let handed = acceptor.handed.remove(&token).unwrap();
        owner.on(Event::HandOver(7, handed));
        owner.sweep();
        assert!(matches!(owner.replies(7)[..], [Reply::Welcome(..)]));
    }
}
