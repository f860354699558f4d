//! The networked deployment: the back-end server behind framed TCP.
//!
//! Every frame is a [`Request`] or a [`Reply`]: the grammar, the
//! field names and what counts as malformed are `wire.rs`'s, and this file
//! names no field.
//!
//! ## Collections
//!
//! One service multiplexes N independent collections over one port
//! ([`TcpService::start_multi`]). The first handshake frame names the
//! collection to attach to (`"collection"`, defaulting to the first one),
//! and everything after the handshake is scoped to it: each collection has
//! its own [`Backend`] (history, WAL, PRI maintenance) and its own
//! [`BatchPipeline`] admission queue, so one hot collection cannot starve
//! another's queue, and is owned by exactly one reactor shard, which holds
//! that queue and every connection attached to the collection. Worker ids
//! and session epochs are per-collection (they are assigned by the
//! collection's backend), which is why a `resume` must carry the
//! collection id. See DESIGN.md §13.
//!
//! ## Connection layer
//!
//! A small fixed pool of reactor shard threads drives nonblocking sockets
//! with per-connection read/write state machines, each shard blocked in
//! `epoll_wait` until one of its sockets or a deadline is ready; total
//! thread count is O(pool size), neither O(connections) nor
//! O(collections). See `reactor.rs` and DESIGN.md §13.
//!
//! The backend keeps one op log and, per session, a delivery cursor into
//! it. The owner shard applies a batch and, under the same backend lock,
//! polls every attached worker's cursor ([`poll_broadcasts`]); lock
//! released, it encodes what each is owed ([`broadcast_frames`]) into its
//! connection's writer, whose watermark bounds it. One stalled reader cannot
//! wedge that path: it is downgraded to lagging (broadcasts to it dropped,
//! healed by `sync`) and eventually evicted (see [`OverloadOptions`]
//! and DESIGN.md §9). `resume` and `sync` are reads of the same log
//! ([`catch_up`]): the missing suffix, or — below the compaction horizon,
//! or for a full resync — the bootstrap. That — a `welcome`'s `history` —
//! is not the history but [`Backend::bootstrap_text`]: a cached table
//! image plus the log since, encoded once in the backend and spliced into
//! the frame as text ([`Image::Text`]), so a join costs its shard a copy.
//! `history_len` is the cursor it lands on.
//!
//! ## Threads
//!
//! The shards, and nothing else: the listening socket and the durability
//! and progress ticks are entries of a shard's loop (`reactor.rs`), the
//! telemetry readings are taken on the shards' wakes, and no connection
//! owns a thread on either end.
//! *Stop means stopped*: when [`TcpService::stop`] or a drop returns, every
//! shard has been joined and the port is closed.
//!
//! ## Failure model
//!
//! The convergence theorem (paper §2.4) assumes reliable in-order delivery
//! for a worker's whole lifetime; TCP only provides it per *connection*.
//! The recovery layer restores the assumption across connection failures:
//!
//! * Every broadcast carries its index in the server's global message
//!   history (`seq`); acks carry the seqs assigned to the client's own
//!   submissions. The client tracks the exact set it has applied
//!   ([`AppliedSeqs`](crowdfill_sync::AppliedSeqs)). Every client-side
//!   decision below is [`ClientCore`](crate::ClientCore)'s, which touches
//!   no socket; the waiting and the redialing are its shell's.
//! * On a connection failure, [`RemoteWorker`](crate::RemoteWorker) redials
//!   with capped exponential backoff plus jitter
//!   ([`ReconnectPolicy`](crate::ReconnectPolicy)) and sends
//!   `resume`: the server re-attaches the session (bumping its epoch so the
//!   dead connection's teardown cannot retire it) and replays exactly the
//!   history suffix the client is missing.
//! * A submission that was in flight when the connection died is matched by
//!   equality against the replayed suffix: present means the server applied
//!   it (the lost ack is synthesized with `recovered = true`); absent means
//!   it must be resubmitted. A resubmission the server rejects triggers a
//!   full resync — rebuild the replica from the complete history — because
//!   the local optimistic application has provably diverged.
//! * `sync` is the read-only variant of `resume` (no session takeover): the
//!   client asks for whatever it is missing, which also heals silent
//!   broadcast loss on a lossy link.
//!
//! Messages are *not* idempotent (votes increment counters), so exact-set
//! replay — rather than at-least-once redelivery — is what makes a resumed
//! replica provably converge to the master.

use crate::backend::{Backend, SubmitError, SubmitReport};
use crate::batch::{BatchOptions, BatchPipeline};
use crate::health::SloHealth;
use crate::overload::OverloadOptions;
use crate::progress::{ProgressReport, ProgressTracker, StopAction, StoppingPolicy};
use crate::reactor::{self, ShardWake, Wake};
use crate::wire::{CatchUp, Cursor, Image, Reply, Request, SeqMsg};
use crowdfill_net::{ConnError, TcpServer};
use crowdfill_obs::metrics::{Counter, Histogram};
use crowdfill_obs::timeseries::{ReadingRing, SloInstruments, SloStatus};
use crowdfill_obs::trace::{self as obstrace, SpanId, Stage, TraceId};
use crowdfill_pay::{Millis, WorkerId};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Counter of multi-op `batch` broadcast frames sent (each replaces what
/// would have been `msgs-per-frame` singleton `msg` frames).
pub(crate) fn batch_broadcast_frames() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| crowdfill_obs::metrics::counter("crowdfill_server_batch_broadcast_frames"))
}

/// Milliseconds since the newest durable checkpoint of the collection
/// whose checkpoint is oldest, refreshed by the durability tick.
fn m_snapshot_age_ms() -> &'static crowdfill_obs::metrics::Gauge {
    static G: OnceLock<Arc<crowdfill_obs::metrics::Gauge>> = OnceLock::new();
    G.get_or_init(|| crowdfill_obs::metrics::gauge("crowdfill_snapshot_age_ms"))
}

/// Records the oldest checkpoint age among one shard's collections and
/// publishes the worst case over every shard's: each shard ticks for its
/// own collections only, and the gauge must not be the last one's to tick.
pub(crate) fn publish_snapshot_age(ages: &[AtomicU64], shard: usize, age_ms: u64) {
    ages[shard].store(age_ms, Ordering::Relaxed);
    let worst = ages.iter().map(|a| a.load(Ordering::Relaxed)).max();
    m_snapshot_age_ms().set(worst.unwrap_or(age_ms) as i64);
}

/// 1 once the progress tick's stopping policy closed a collection.
pub(crate) fn m_progress_stopped() -> &'static crowdfill_obs::metrics::Gauge {
    static G: OnceLock<Arc<crowdfill_obs::metrics::Gauge>> = OnceLock::new();
    G.get_or_init(|| crowdfill_obs::metrics::gauge("crowdfill_progress_stopped"))
}

/// Latest reward multiplier (milli) the stopping policy recommended.
pub(crate) fn m_progress_reprice_milli() -> &'static crowdfill_obs::metrics::Gauge {
    static G: OnceLock<Arc<crowdfill_obs::metrics::Gauge>> = OnceLock::new();
    G.get_or_init(|| crowdfill_obs::metrics::gauge("crowdfill_progress_reprice_factor_milli"))
}

/// Connections forcibly closed after staying lagging past `evict_after`.
pub(crate) fn m_evictions() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| crowdfill_obs::metrics::counter("crowdfill_server_evictions"))
}

/// Connections downgraded to lagging (a broadcast found the writer full).
pub(crate) fn m_lag_downgrades() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| crowdfill_obs::metrics::counter("crowdfill_server_lag_downgrades"))
}

/// Broadcast frames dropped instead of buffered for lagging connections
/// (each is healed later by the client's `sync`/`resume`).
pub(crate) fn m_lag_dropped() -> &'static Counter {
    static C: OnceLock<Arc<Counter>> = OnceLock::new();
    C.get_or_init(|| crowdfill_obs::metrics::counter("crowdfill_server_lag_dropped_frames"))
}

/// Most seq-tagged messages packed into one `batch` broadcast frame (keeps
/// frames far inside the transport's frame-size cap).
const BATCH_FRAME_CHUNK: usize = 256;

/// Per-endpoint service metrics, resolved once at service start.
#[derive(Debug)]
pub(crate) struct ServiceMetrics {
    pub(crate) connects: Arc<Counter>,
    pub(crate) disconnects: Arc<Counter>,
    pub(crate) submit_requests: Arc<Counter>,
    pub(crate) modify_requests: Arc<Counter>,
    pub(crate) stats_requests: Arc<Counter>,
    pub(crate) health_requests: Arc<Counter>,
    pub(crate) trace_dump_requests: Arc<Counter>,
    pub(crate) resume_requests: Arc<Counter>,
    pub(crate) reset_resyncs: Arc<Counter>,
    pub(crate) sync_requests: Arc<Counter>,
    pub(crate) malformed_frames: Arc<Counter>,
    pub(crate) accept_errors: Arc<Counter>,
    pub(crate) idle_disconnects: Arc<Counter>,
    pub(crate) request_latency_ns: Arc<Histogram>,
    pub(crate) submit_latency_ns: Arc<Histogram>,
    pub(crate) modify_latency_ns: Arc<Histogram>,
}

impl ServiceMetrics {
    fn resolve() -> ServiceMetrics {
        use crowdfill_obs::metrics::{counter, histogram};
        ServiceMetrics {
            connects: counter("crowdfill_server_connects"),
            disconnects: counter("crowdfill_server_disconnects"),
            submit_requests: counter("crowdfill_server_submit_requests"),
            modify_requests: counter("crowdfill_server_modify_requests"),
            stats_requests: counter("crowdfill_server_stats_requests"),
            health_requests: counter("crowdfill_server_health_requests"),
            trace_dump_requests: counter("crowdfill_server_trace_dump_requests"),
            resume_requests: counter("crowdfill_server_resume_requests"),
            reset_resyncs: counter("crowdfill_server_reset_resyncs"),
            sync_requests: counter("crowdfill_server_sync_requests"),
            malformed_frames: counter("crowdfill_server_malformed_frames"),
            accept_errors: counter("crowdfill_server_accept_errors"),
            idle_disconnects: counter("crowdfill_server_idle_disconnects"),
            request_latency_ns: histogram("crowdfill_server_request_latency_ns"),
            submit_latency_ns: histogram("crowdfill_server_submit_latency_ns"),
            modify_latency_ns: histogram("crowdfill_server_modify_latency_ns"),
        }
    }
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

/// Tunables for the service's graceful degradation under misbehaving peers.
#[derive(Debug, Clone, Default)]
pub struct ServiceOptions {
    /// Disconnect a session after this long without a request (`None`:
    /// never). Reclaims connections from clients that vanished without
    /// `bye` behind a link that never resets.
    pub idle_timeout: Option<Duration>,
    /// Batched apply pipeline configuration: every submit/modify request
    /// goes through its collection's admission queue, which the owner
    /// shard drains into [`Backend::submit_batch`] calls.
    pub batch: BatchOptions,
    /// Overload-protection knobs: admission bounds and shed budget for the
    /// batch pipeline, write-buffer watermark and eviction policy for
    /// connections (DESIGN.md §9).
    pub overload: OverloadOptions,
    /// Number of reactor shard threads; `0` (the default) picks one per
    /// available core, capped at 4 (a shard is syscall-bound, more shards
    /// only shuffle work).
    pub shards: usize,
    /// The durability tick (DESIGN.md §14): a deadline on each owner shard
    /// one of whose collections was opened with storage attached
    /// ([`crate::persist`]). It compacts such a collection once its journal
    /// grew past the threshold — the checkpoint write stalls that shard —
    /// and keeps the snapshot-age gauge fresh. A shard whose collections
    /// are all in memory arms none.
    pub durability: DurabilitySweepOptions,
    /// Adaptive stopping (DESIGN.md §15). `Some` arms the progress tick, a
    /// deadline on each owner shard every 500 ms, which advances each
    /// collection's fold and evaluates the policy; the first trigger acts
    /// (`Close` journals the closed marker via [`Backend::close`] and sets
    /// `crowdfill_progress_stopped`; `Reprice` exports the recommended
    /// factor as a gauge and logs it; `Alert` logs) and then latches — the
    /// tick never acts twice on one collection. Its target is also the one
    /// a `health` reply's progress section forecasts toward; `None` (the
    /// default) arms no tick and forecasts toward
    /// [`DEFAULT_TARGET`](crate::progress::DEFAULT_TARGET).
    pub stopping: Option<StoppingPolicy>,
}

impl ServiceOptions {
    /// The shard count `shards` asks for.
    pub(crate) fn effective_shards(&self) -> usize {
        if self.shards > 0 {
            return self.shards;
        }
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
            .clamp(1, 4)
    }
}

/// Knobs for the checkpoint/compaction tick.
#[derive(Debug, Clone)]
pub struct DurabilitySweepOptions {
    /// How often the tick inspects each collection.
    pub interval: Duration,
    /// Compact (checkpoint + truncate the journal) once a collection's
    /// journal reaches this many bytes.
    pub compact_wal_bytes: u64,
}

impl Default for DurabilitySweepOptions {
    fn default() -> DurabilitySweepOptions {
        DurabilitySweepOptions {
            interval: Duration::from_secs(1),
            compact_wal_bytes: 4 << 20,
        }
    }
}

/// The durability tick (DESIGN.md §14) for one collection, on its owner
/// shard: compaction is driven by journal growth, not by traffic — a
/// collection that went quiet right after a burst still gets its journal
/// truncated. The shard holds the backend lock for the duration of one
/// checkpoint write; sizing `compact_wal_bytes` bounds how much state that
/// write covers. Returns the age of the newest checkpoint, if the
/// collection keeps any.
pub(crate) fn durability_tick(
    collection: &Collection,
    options: &DurabilitySweepOptions,
) -> Option<u64> {
    let mut b = collection.backend.lock();
    if !b.has_snapshots() {
        return None;
    }
    if b.wal_bytes() >= options.compact_wal_bytes {
        match b.compact_storage() {
            Ok(base) => crowdfill_obs::obs_info!(
                "server",
                "compacted collection journal";
                collection => collection.name(),
                base_seq => base,
            ),
            Err(e) => crowdfill_obs::obs_warn!(
                "server",
                "compaction failed: {e}";
                collection => collection.name(),
            ),
        }
    }
    Some(b.snapshot_age_ms().unwrap_or(0))
}

/// The progress tick (DESIGN.md §15) for one collection, on its owner
/// shard: advances the collection's fold over the ops appended since it
/// was last advanced (O(new ops), not O(trace)) and applies `policy` at
/// most once: `acted` latches it.
pub(crate) fn progress_tick(
    collection: &Collection,
    policy: &StoppingPolicy,
    fold: &mut ProgressTracker,
    acted: &mut bool,
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
    match decision.action {
        StopAction::Close => {
            collection.backend.lock().close();
            m_progress_stopped().set(1);
            crowdfill_obs::obs_info!(
                "server",
                "auto-stop closed collection: {}",
                decision.reason;
                collection => collection.name(),
            );
        }
        StopAction::Reprice => {
            let factor = policy.reprice_factor(&decision);
            m_progress_reprice_milli().set((factor * 1000.0).round() as i64);
            crowdfill_obs::obs_warn!(
                "server",
                "auto-stop recommends repricing x{factor:.2}: {}",
                decision.reason;
                collection => collection.name(),
            );
        }
        StopAction::Alert => {
            crowdfill_obs::obs_warn!(
                "server",
                "auto-stop alert: {}",
                decision.reason;
                collection => collection.name(),
            );
        }
    }
}

/// One hosted collection: its backend (history, WAL, PRI) and the shard
/// that owns it — the one thread holding its batch pipeline (admission
/// queue) and the connections attached to it. Per-collection isolation is
/// structural: nothing but the listening socket, the shard pool, and the
/// telemetry ring is shared between collections.
pub struct Collection {
    name: String,
    pub(crate) backend: Arc<Mutex<Backend>>,
    /// The owning shard — a hash of the name over the shard count, fixed
    /// at start — and this collection's index among those it owns.
    pub(crate) owner: usize,
    pub(crate) slot: usize,
}

impl Collection {
    /// The collection's wire name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Shared access to this collection's backend.
    pub fn backend(&self) -> Arc<Mutex<Backend>> {
        Arc::clone(&self.backend)
    }
}

/// Immutable per-service state shared by every reactor shard.
pub(crate) struct ServiceShared {
    pub(crate) collections: HashMap<String, Arc<Collection>>,
    /// The collection a handshake without a `"collection"` field attaches
    /// to (the first one passed to [`TcpService::start_multi`]).
    pub(crate) default_collection: String,
    pub(crate) started: Instant,
    pub(crate) metrics: ServiceMetrics,
    pub(crate) options: ServiceOptions,
    /// The readings every shard takes as it wakes and `health` requests
    /// on any shard read.
    pub(crate) telemetry: ReadingRing,
    /// Raised by `stop`: a shard that wakes to it retires its connections
    /// and returns.
    pub(crate) shutdown: AtomicBool,
    /// Open sessions, all shards: what `disconnect_all` is about to close.
    pub(crate) attached: AtomicUsize,
    /// Per shard, the oldest checkpoint age its last durability tick saw
    /// ([`publish_snapshot_age`]).
    pub(crate) snapshot_ages: Vec<AtomicU64>,
}

impl ServiceShared {
    /// Resolves a handshake's collection field. `None` = unknown name.
    pub(crate) fn resolve_collection(&self, name: Option<&str>) -> Option<Arc<Collection>> {
        let name = name.unwrap_or(&self.default_collection);
        self.collections.get(name).cloned()
    }
}

/// A running TCP service around one or more collections.
pub struct TcpService {
    addr: SocketAddr,
    shared: Arc<ServiceShared>,
    /// Every thread the service runs.
    shard_threads: Vec<std::thread::JoinHandle<()>>,
    /// One wake queue per shard: how `stop` reaches a shard blocked in
    /// `epoll_wait`.
    shard_wakes: Vec<ShardWake>,
}

impl TcpService {
    /// Binds and starts serving with default options. Use port 0 for an
    /// ephemeral port.
    pub fn start(backend: Backend, addr: &str) -> Result<TcpService, ConnError> {
        TcpService::start_with(backend, addr, ServiceOptions::default())
    }

    /// Binds and starts serving one collection (named
    /// [`DEFAULT_COLLECTION`]) with explicit options.
    pub fn start_with(
        backend: Backend,
        addr: &str,
        options: ServiceOptions,
    ) -> Result<TcpService, ConnError> {
        TcpService::start_multi(
            vec![(DEFAULT_COLLECTION.to_string(), backend)],
            addr,
            options,
        )
    }

    /// Binds and starts serving N independent collections multiplexed over
    /// one port. The first entry is the default a bare `hello` attaches
    /// to; names must be unique. Each collection gets its own batch
    /// pipeline (admission queue) per `options.batch`, held by the shard
    /// that owns the collection.
    pub fn start_multi(
        backends: Vec<(String, Backend)>,
        addr: &str,
        options: ServiceOptions,
    ) -> Result<TcpService, ConnError> {
        if backends.is_empty() {
            return Err(ConnError::Io(
                "start_multi needs at least one collection".into(),
            ));
        }
        let server = TcpServer::bind(addr)?;
        let addr = server.local_addr()?;
        let started = Instant::now();
        let default_collection = backends[0].0.clone();
        let metrics = ServiceMetrics::resolve();

        // Every shard reads the objectives' three instruments into this
        // ring as it wakes; `health` requests subtract two of its
        // readings. One ring serves every collection (the instruments are
        // process-global), and it starts with a reading at the start.
        /// Ring capacity in readings: a minute of window and a few more
        /// periods.
        const RING_CAPACITY: usize = 256;
        let instruments = SloInstruments {
            latency: Arc::clone(crate::batch::m_ack_latency()),
            sheds: Arc::clone(crate::batch::m_sheds()),
            submits: Arc::clone(&metrics.submit_requests),
        };
        let telemetry = ReadingRing::new(instruments, RING_CAPACITY);
        telemetry.sample(0);

        // One pipeline per collection: admission, shedding, and batching
        // are per-collection, so a storm on one cannot fill another's
        // queue. It goes to the shard that owns the collection, which
        // delivers a batch's broadcasts itself (no after-batch hook).
        let mut map = HashMap::with_capacity(backends.len());
        let mut owned: Vec<Vec<_>> = (0..options.effective_shards())
            .map(|_| Vec::new())
            .collect();
        for (name, backend) in backends {
            let backend = Arc::new(Mutex::new(backend));
            let pipeline = BatchPipeline::start(
                Arc::clone(&backend),
                Box::new(move || now_millis(started)),
                Box::new(|| {}),
                options.batch.clone(),
                options.overload.clone(),
            );
            let owner = reactor::owner_shard(&name, owned.len());
            let collection = Arc::new(Collection {
                name: name.clone(),
                backend,
                owner,
                slot: owned[owner].len(),
            });
            owned[owner].push((Arc::clone(&collection), pipeline));
            if map.insert(name, collection).is_some() {
                return Err(ConnError::Io("duplicate collection name".into()));
            }
        }
        crowdfill_obs::obs_info!(
            "server",
            "tcp service listening on {addr} ({} collections)",
            map.len()
        );

        let shared = Arc::new(ServiceShared {
            collections: map,
            default_collection,
            started,
            metrics,
            options,
            telemetry,
            shutdown: AtomicBool::new(false),
            attached: AtomicUsize::new(0),
            snapshot_ages: owned.iter().map(|_| AtomicU64::new(0)).collect(),
        });

        // The shards are the service: the first that owns a collection
        // also takes the listener, and each runs the ticks of the
        // collections it owns.
        let (shard_threads, shard_wakes) =
            reactor::start_shards(owned, server, Arc::clone(&shared))
                .map_err(|e| ConnError::Io(e.to_string()))?;
        Ok(TcpService {
            addr,
            shared,
            shard_threads,
            shard_wakes,
        })
    }

    /// Forcibly closes every open session at once, across all
    /// collections: each shard is asked to (`Wake::CloseAll`, one wake
    /// per shard) and does so on its next wake. Returns how many were
    /// open. Sessions survive — each client sees a dead connection and
    /// recovers via its reconnect-and-resume path. This is the
    /// thundering-herd lever the overload harness uses to stage a
    /// mass-reconnect storm.
    pub fn disconnect_all(&self) -> usize {
        let open = self.shared.attached.load(Ordering::SeqCst);
        for wake in &self.shard_wakes {
            wake.push(Wake::CloseAll);
        }
        open
    }

    /// The bound address clients connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Shared access to the default collection's backend (settlement,
    /// inspection). Single-collection services behave exactly as before.
    pub fn backend(&self) -> Arc<Mutex<Backend>> {
        self.shared.collections[&self.shared.default_collection].backend()
    }

    /// Shared access to a named collection's backend.
    pub fn backend_of(&self, collection: &str) -> Option<Arc<Mutex<Backend>>> {
        self.shared.collections.get(collection).map(|c| c.backend())
    }

    /// The names of every hosted collection (unordered).
    pub fn collection_names(&self) -> Vec<String> {
        self.shared.collections.keys().cloned().collect()
    }

    /// Stops the service. When this returns (dropping the service does
    /// the same) no thread the service started is alive — they are the
    /// shards, joined here — the port is closed, and the caller's
    /// [`backend`](Self::backend) handles are the only ones left.
    pub fn stop(mut self) {
        self.halt();
    }

    /// The body of `stop`, callable again from `Drop` (every step is a
    /// no-op the second time): raise the flag, one wake per shard — they
    /// are blocked in `epoll_wait`, not polling the flag — and join them.
    /// A tick that was due does not run; the accepting shard drops the
    /// listener on its way out.
    fn halt(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for wake in self.shard_wakes.drain(..) {
            wake.wake();
        }
        for t in self.shard_threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for TcpService {
    fn drop(&mut self) {
        self.halt();
    }
}

/// The collection a bare `hello`/`resume` (no `"collection"` field)
/// attaches to on a single-collection service.
pub const DEFAULT_COLLECTION: &str = "default";

pub(crate) fn now_millis(started: Instant) -> Millis {
    Millis(started.elapsed().as_millis() as u64)
}

/// What brings `cursor` up to date — for none, a full resync, a reset —
/// and counts a reset. Call under the lock acquisition that re-attached
/// the session (`resume`) or read `history_len` (`sync`): what this reads
/// plus the broadcasts polled afterwards then covers the history with no
/// gap. The reply is encoded off the lock, so an image is a copy of the
/// backend's text.
fn catch_up(
    b: &mut Backend,
    cursor: Option<&Cursor>,
    metrics: &ServiceMetrics,
) -> CatchUp<'static> {
    let Some(cursor) = cursor.filter(|c| c.from >= b.history_base()) else {
        metrics.reset_resyncs.inc();
        return CatchUp::Image(Image::Text(b.bootstrap_text().to_owned().into()));
    };
    let mut missing = b.history_suffix(cursor.from);
    missing.retain(|(seq, _)| !cursor.have.contains(seq));
    CatchUp::Suffix(missing)
}

/// A session a handshake frame (`hello` or `resume`) opened. The reply is
/// NOT yet on the wire — the caller owns delivery so it can order the reply
/// before any broadcast.
pub(crate) struct Opened {
    pub(crate) collection: Arc<Collection>,
    pub(crate) worker: WorkerId,
    pub(crate) epoch: u64,
    /// The encoded `welcome` or `resumed` frame.
    pub(crate) reply: String,
    /// The worker's private ack-latency histogram (per-worker health).
    pub(crate) ack_hist: Option<Arc<Histogram>>,
}

/// Processes the first frame of a connection: `hello` creates a worker in
/// the requested collection, `resume` re-attaches to an existing one. The
/// request names the collection; none means the default. An `Err` drops
/// the connection: after sending the reply, if the handshake was understood
/// but refused (unknown collection, failed resume); silently, if the
/// request was no handshake at all.
pub(crate) fn open_session(
    request: Request,
    shared: &ServiceShared,
) -> Result<Opened, Option<Reply<'static>>> {
    let attach_to = |name: &Option<String>| {
        let collection = shared.resolve_collection(name.as_deref());
        collection.ok_or(Some(Reply::reject("unknown collection")))
    };
    let (collection, worker, epoch, reply, ack_hist) = match request {
        Request::Hello(collection) => {
            shared.metrics.connects.inc();
            let collection = attach_to(&collection)?;
            // Attach and bootstrap come from ONE lock acquisition, so the
            // text ends exactly where the session's broadcasts begin. It
            // is a state image plus a log suffix, shorter than the history
            // it stands in for — the client's resume cursor must cover the
            // real watermark, which travels as `history_len`.
            let mut b = collection.backend.lock();
            let (worker, client) = b.attach(now_millis(shared.started));
            let (name, history_len) = (collection.name().to_string(), b.history_len());
            let schema = Arc::clone(&b.config().schema);
            let history = Image::Text(b.bootstrap_text().into());
            let reply = Reply::Welcome(name, worker, client, history_len, schema, history).encode();
            let ack_hist = b.worker_ack_histogram(worker);
            drop(b);
            crowdfill_obs::obs_debug!(
                "server",
                "session started";
                worker => worker.0,
                client => client.0,
            );
            (collection, worker, 0, reply, ack_hist)
        }
        Request::Resume(worker, cursor, collection) => {
            shared.metrics.resume_requests.inc();
            let collection = attach_to(&collection)?;
            // Resume and catch-up come from ONE lock acquisition.
            let resumed = {
                let mut b = collection.backend.lock();
                b.resume(worker, now_millis(shared.started)).map(|info| {
                    let body = catch_up(&mut b, Some(&cursor), &shared.metrics);
                    (info, body, b.worker_ack_histogram(worker))
                })
            };
            let (info, body, ack_hist) = resumed.map_err(|e| Some(Reply::reject(e)))?;
            let name = collection.name().to_string();
            let reply = Reply::Resumed(name, info.client, info.history_len, body).encode();
            crowdfill_obs::obs_debug!(
                "server",
                "session resumed";
                worker => worker.0,
                epoch => info.epoch,
                reply_bytes => reply.len(),
            );
            (collection, worker, info.epoch, reply, ack_hist)
        }
        _ => {
            shared.metrics.malformed_frames.inc();
            return Err(None);
        }
    };
    Ok(Opened {
        collection,
        worker,
        epoch,
        reply,
        ack_hist,
    })
}

/// Builds the encoded `synced` reply to `cursor`, or to a full resync for
/// none. The caller must clear its own session's lagging flag BEFORE
/// calling: every broadcast dropped while lagging then has a seq below the
/// history length this reply covers, and broadcasts after the clear are
/// enqueued normally (overlap is seq-deduped client-side), so nothing can
/// fall in a gap.
pub(crate) fn sync_reply(
    backend: &Mutex<Backend>,
    worker: WorkerId,
    cursor: Option<&Cursor>,
    metrics: &ServiceMetrics,
) -> String {
    let (history_len, body) = {
        let mut b = backend.lock();
        let history_len = b.history_len();
        // The reply covers the history through `history_len`, so the
        // replica-lag gauge for this worker resets.
        b.note_confirmed(worker, history_len);
        (history_len, catch_up(&mut b, cursor, metrics))
    };
    Reply::Synced(history_len, body).encode()
}

/// The semantic-health report (DESIGN.md §11) of ONE collection, on the
/// shard that owns it: `fold` — the collection's — is advanced over what
/// the log grew by since and read in place, under one lock acquisition.
/// Then the service objectives over the reading ring and the two
/// progress objectives of this collection's own progress section.
pub(crate) fn health_reply(
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

/// The largest burn a progress objective reports: what the milli-unit
/// burn gauge these rows were once read from could hold. JSON has no ∞.
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
pub(crate) fn result_frame(
    result: Result<SubmitReport, SubmitError>,
    trace: TraceId,
) -> Reply<'static> {
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
pub(crate) fn poll_broadcasts(
    b: &mut Backend,
    sessions: &HashMap<WorkerId, u64>,
) -> Vec<(u64, Vec<SeqMsg>)> {
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
/// legacy `msg` frame, several as `batch` frames (chunked so a huge backlog
/// cannot overflow the transport's frame-size cap). Called off the backend
/// lock.
pub(crate) fn broadcast_frames(mut pending: Vec<SeqMsg>) -> Vec<String> {
    if pending.len() == 1 {
        return vec![Reply::Msg(pending.remove(0)).encode()];
    }
    let mut frames = Vec::new();
    while !pending.is_empty() {
        let rest = pending.split_off(pending.len().min(BATCH_FRAME_CHUNK));
        frames.push(Reply::Batch(std::mem::replace(&mut pending, rest)).encode());
        batch_broadcast_frames().inc();
    }
    frames
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The snapshot-age gauge is the worst case over every shard's
    /// collections, not the last shard's to tick.
    #[test]
    fn snapshot_age_gauge_is_the_worst_case_over_all_shards() {
        let ages = [AtomicU64::new(0), AtomicU64::new(0), AtomicU64::new(0)];
        publish_snapshot_age(&ages, 1, 9_000);
        assert_eq!(m_snapshot_age_ms().get(), 9_000);
        publish_snapshot_age(&ages, 2, 40);
        assert_eq!(m_snapshot_age_ms().get(), 9_000, "last shard won");
        publish_snapshot_age(&ages, 1, 10); // it compacted
        assert_eq!(m_snapshot_age_ms().get(), 40);
    }
}
