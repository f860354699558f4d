//! The networked deployment: the back-end server behind framed TCP.
//!
//! Every frame is a [`Request`](crate::wire::Request) or a
//! [`Reply`](crate::wire::Reply): the grammar, the field names and what
//! counts as malformed are `wire.rs`'s. One service multiplexes N
//! independent collections over one port ([`TcpService::start_multi`]);
//! the handshake names the collection (none: the first), and everything
//! after it is scoped to that collection's [`Backend`] and its
//! [`BatchPipeline`] admission queue. Worker ids and session epochs are
//! the collection's, so a `resume` carries the collection id (DESIGN.md
//! §13.2).
//!
//! Each collection is owned by one of a small fixed pool of reactor shards,
//! which holds its queue and every connection attached to it; the service's
//! threads are the shards, and no connection owns a thread on either end. A
//! shard is a sans-IO core (`shard.rs`: sessions, batches, broadcasts,
//! deadlines) driven by a reactor that only moves bytes (`reactor.rs`);
//! this file holds what they share — the options, the instruments, the
//! collections. *Stop means stopped*: when [`TcpService::stop`] or a drop
//! returns, every shard has been joined and the port is closed.
//!
//! Recovery across connection failures — every broadcast and ack carries
//! its seq, and `resume` and `sync` replay exactly what a replica misses,
//! so it converges although messages are not idempotent — is DESIGN.md
//! §7's; a slow reader's downgrade and eviction are §9's ([`OverloadOptions`]).

use crate::backend::Backend;
use crate::batch::{BatchOptions, BatchPipeline};
use crate::overload::OverloadOptions;
use crate::progress::StoppingPolicy;
use crate::reactor::{self, ShardWake, Wake};
use crowdfill_net::{ConnError, TcpServer};
use crowdfill_obs::metrics::{Counter, Gauge, Histogram};
use crowdfill_obs::timeseries::{ReadingRing, SloInstruments};
use crowdfill_pay::Millis;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The service's instruments, resolved once at start and read by every
/// shard. Names are in `resolve`.
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
    /// Connections lagging, or in their handshake, `evict_after` long.
    pub(crate) evictions: Arc<Counter>,
    /// Sessions downgraded to lagging (a broadcast found the writer full).
    pub(crate) lag_downgrades: Arc<Counter>,
    /// Broadcast frames dropped for lagging sessions.
    pub(crate) lag_dropped: Arc<Counter>,
    /// Multi-op `batch` broadcast frames sent.
    pub(crate) batch_broadcast_frames: Arc<Counter>,
    /// The oldest collection's checkpoint age, over every shard's.
    pub(crate) snapshot_age_ms: Arc<Gauge>,
    /// 1 once the progress tick's stopping policy closed a collection.
    pub(crate) progress_stopped: Arc<Gauge>,
    /// Latest reward multiplier (milli) the stopping policy recommended.
    pub(crate) progress_reprice_milli: Arc<Gauge>,
    /// Connections the shards hold, all collections.
    pub(crate) conns: Arc<Gauge>,
    /// Request frames served by the shards.
    pub(crate) frames_in: Arc<Counter>,
    /// Frames deferred to the next wake by the fairness budget.
    pub(crate) fairness_deferrals: Arc<Counter>,
    /// Returns from `epoll_wait`, all shards. Flat on an idle service.
    pub(crate) wakeups: Arc<Counter>,
    /// Connection visits (serve passes), all shards; each shard also counts
    /// its own, `crowdfill_reactor_shard_<i>_conn_visits`.
    pub(crate) conn_visits: Arc<Counter>,
    /// Connections handed to the shard that owns their collection.
    pub(crate) handovers: Arc<Counter>,
    pub(crate) request_latency_ns: Arc<Histogram>,
}

impl ServiceMetrics {
    fn resolve() -> ServiceMetrics {
        use crowdfill_obs::metrics::{counter, gauge, histogram};
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
            evictions: counter("crowdfill_server_evictions"),
            lag_downgrades: counter("crowdfill_server_lag_downgrades"),
            lag_dropped: counter("crowdfill_server_lag_dropped_frames"),
            batch_broadcast_frames: counter("crowdfill_server_batch_broadcast_frames"),
            snapshot_age_ms: gauge("crowdfill_snapshot_age_ms"),
            progress_stopped: gauge("crowdfill_progress_stopped"),
            progress_reprice_milli: gauge("crowdfill_progress_reprice_factor_milli"),
            conns: gauge("crowdfill_reactor_conns"),
            frames_in: counter("crowdfill_reactor_frames_in"),
            fairness_deferrals: counter("crowdfill_reactor_fairness_deferrals"),
            wakeups: counter("crowdfill_reactor_wakeups"),
            conn_visits: counter("crowdfill_reactor_conn_visits"),
            handovers: counter("crowdfill_reactor_handovers"),
            request_latency_ns: histogram("crowdfill_server_request_latency_ns"),
        }
    }
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
    /// Whether the last batch the owner applied left the constraints
    /// fulfilled (`SubmitReport::fulfilled`): what
    /// [`TcpService::wait_fulfilled`] waits for.
    pub(crate) fulfilled: AtomicBool,
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

/// What each shard is handed at start: the collections it owns, each with
/// its pipeline.
pub(crate) type ShardCollections = Vec<Vec<(Arc<Collection>, BatchPipeline)>>;

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
    /// Per shard, the oldest checkpoint age its last durability tick saw.
    pub(crate) snapshot_ages: Vec<AtomicU64>,
    /// Notified when a collection's `fulfilled` flag goes up.
    fulfilled: (Mutex<()>, Condvar),
}

impl ServiceShared {
    /// The state every shard of a service over `backends` shares, and what
    /// each shard owns. One pipeline per collection: admission, shedding
    /// and batching are per collection, so a storm on one cannot fill
    /// another's queue.
    pub(crate) fn new(
        backends: Vec<(String, Backend)>,
        options: ServiceOptions,
    ) -> Result<(Arc<ServiceShared>, ShardCollections), ConnError> {
        if backends.is_empty() {
            return Err(ConnError::Io(
                "start_multi needs at least one collection".into(),
            ));
        }
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
        let mut collections = HashMap::with_capacity(backends.len());
        let mut owned: ShardCollections = (0..options.effective_shards())
            .map(|_| Vec::new())
            .collect();
        for (name, backend) in backends {
            let backend = Arc::new(Mutex::new(backend));
            let pipeline = BatchPipeline::start(
                Arc::clone(&backend),
                Box::new(move || Millis(started.elapsed().as_millis() as u64)),
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
                fulfilled: AtomicBool::new(false),
            });
            owned[owner].push((Arc::clone(&collection), pipeline));
            if collections.insert(name, collection).is_some() {
                return Err(ConnError::Io("duplicate collection name".into()));
            }
        }
        let shared = ServiceShared {
            collections,
            default_collection,
            started,
            metrics,
            options,
            telemetry,
            shutdown: AtomicBool::new(false),
            attached: AtomicUsize::new(0),
            snapshot_ages: owned.iter().map(|_| AtomicU64::new(0)).collect(),
            fulfilled: (Mutex::new(()), Condvar::new()),
        };
        Ok((Arc::new(shared), owned))
    }

    /// Resolves a handshake's collection field. `None` = unknown name.
    pub(crate) fn resolve_collection(&self, name: Option<&str>) -> Option<Arc<Collection>> {
        let name = name.unwrap_or(&self.default_collection);
        self.collections.get(name).cloned()
    }

    /// Records whether the batch the owner just applied left `collection`
    /// fulfilled, and wakes [`TcpService::wait_fulfilled`] when it did.
    pub(crate) fn note_fulfilled(&self, collection: &Collection, fulfilled: bool) {
        if collection.fulfilled.swap(fulfilled, Ordering::SeqCst) != fulfilled && fulfilled {
            let _guard = self.fulfilled.0.lock();
            self.fulfilled.1.notify_all();
        }
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
        let (shared, owned) = ServiceShared::new(backends, options)?;
        let server = TcpServer::bind(addr)?;
        let addr = server.local_addr()?;
        crowdfill_obs::obs_info!(
            "server",
            "tcp service listening on {addr} ({} collections)",
            shared.collections.len()
        );
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

    /// Blocks until the default collection's constraints are fulfilled:
    /// at once if they already are (a recovered collection may be), else
    /// until a batch leaves them so. Before it returns it asks the backend
    /// itself, so a table that lost a row since keeps collecting.
    pub fn wait_fulfilled(&self) {
        let collection = &self.shared.collections[&self.shared.default_collection];
        let (lock, fulfilled) = &self.shared.fulfilled;
        loop {
            let backend = collection.backend.lock();
            if backend.is_fulfilled() {
                return;
            }
            // Under the lock: a batch that fulfils the table after this
            // read raises the flag after this store.
            collection.fulfilled.store(false, Ordering::SeqCst);
            drop(backend);
            let mut guard = lock.lock();
            while !collection.fulfilled.load(Ordering::SeqCst) {
                fulfilled.wait(&mut guard);
            }
        }
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
