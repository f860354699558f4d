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
//! The service's instruments are plain fields of [`ServiceMetrics`], which
//! the shards record into and [`TcpService::metrics`] reads; every metric
//! name is spelled in this file: the instruments' in
//! `ServiceMetrics::samples`, the counts the layers below keep
//! ([`Backend::counts`]) in `named`, and the snapshot age, computed as
//! `stats` renders, in `ServiceShared::stats`. [`exposition`] renders them.
//!
//! Recovery across connection failures — every broadcast and ack carries
//! its seq, and `resume` and `sync` replay exactly what a replica misses,
//! so it converges although messages are not idempotent — is DESIGN.md
//! §7's; a slow reader's downgrade and eviction are §9's ([`OverloadOptions`]).

use crate::backend::{Backend, BackendCounts};
use crate::batch::{BatchOptions, BatchPipeline};
use crate::overload::OverloadOptions;
use crate::progress::StoppingPolicy;
use crate::reactor::{self, ShardWake, Wake};
use crowdfill_net::{ConnError, TcpServer};
use crowdfill_obs::metrics::{Counter, Gauge, Histogram, Sample};
use crowdfill_obs::timeseries::{ReadingRing, SloInstruments};
use crowdfill_pay::Millis;
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The service's instruments: plain fields every shard records into, each
/// named once, in `samples`. Only the three the objectives' reading ring
/// also reads are shared.
#[derive(Debug, Default)]
pub struct ServiceMetrics {
    pub connects: Counter,
    pub disconnects: Counter,
    pub submit_requests: Arc<Counter>,
    pub modify_requests: Counter,
    pub stats_requests: Counter,
    pub health_requests: Counter,
    pub trace_dump_requests: Counter,
    pub resume_requests: Counter,
    pub reset_resyncs: Counter,
    pub sync_requests: Counter,
    pub malformed_frames: Counter,
    pub accept_errors: Counter,
    pub idle_disconnects: Counter,
    /// Connections lagging, or in their handshake, `evict_after` long.
    pub evictions: Counter,
    /// Sessions downgraded to lagging (a broadcast found the writer full).
    pub lag_downgrades: Counter,
    /// Broadcast frames dropped for lagging sessions.
    pub lag_dropped: Counter,
    /// Multi-op `batch` broadcast frames sent.
    pub batch_broadcast_frames: Counter,
    /// 1 once the progress tick's stopping policy closed a collection.
    pub progress_stopped: Gauge,
    /// Latest reward multiplier (milli) the stopping policy recommended.
    pub progress_reprice_milli: Gauge,
    /// Connections the shards hold, all collections.
    pub conns: Gauge,
    /// Request frames served by the shards.
    pub frames_in: Counter,
    /// Frames deferred to the next wake by the fairness budget.
    pub fairness_deferrals: Counter,
    /// Returns from `epoll_wait`, all shards. Flat on an idle service.
    pub wakeups: Counter,
    /// Connection visits (serve passes), all shards.
    pub conn_visits: Counter,
    /// Each shard's own share of `conn_visits`, by shard index.
    pub shard_conn_visits: Vec<Counter>,
    /// Connections handed to the shard that owns their collection.
    pub handovers: Counter,
    pub request_latency_ns: Histogram,
    /// Socket bytes the shards read and wrote, and sockets accepted.
    pub bytes_in: Counter,
    pub bytes_out: Counter,
    pub accepts: Counter,
    /// Admission, from what the [`BatchPipeline`]s answer: ops queued,
    /// refused, shed; queue wait and, per applied op, ack latency.
    pub queue_depth: Gauge,
    pub overload_rejects: Counter,
    pub sheds: Arc<Counter>,
    pub queue_wait_ns: Histogram,
    pub ack_latency_ns: Arc<Histogram>,
}

impl ServiceMetrics {
    /// Zeroed instruments for a service of `shards` shards.
    fn new(shards: usize) -> ServiceMetrics {
        ServiceMetrics {
            shard_conn_visits: (0..shards).map(|_| Counter::new()).collect(),
            ..ServiceMetrics::default()
        }
    }

    /// Every instrument's value under its metric name.
    pub(crate) fn samples(&self) -> Vec<(String, Sample)> {
        let counters: &[(&str, &Counter)] = &[
            ("crowdfill_server_connects", &self.connects),
            ("crowdfill_server_disconnects", &self.disconnects),
            ("crowdfill_server_submit_requests", &self.submit_requests),
            ("crowdfill_server_modify_requests", &self.modify_requests),
            ("crowdfill_server_stats_requests", &self.stats_requests),
            ("crowdfill_server_health_requests", &self.health_requests),
            (
                "crowdfill_server_trace_dump_requests",
                &self.trace_dump_requests,
            ),
            ("crowdfill_server_resume_requests", &self.resume_requests),
            ("crowdfill_server_reset_resyncs", &self.reset_resyncs),
            ("crowdfill_server_sync_requests", &self.sync_requests),
            ("crowdfill_server_malformed_frames", &self.malformed_frames),
            ("crowdfill_server_accept_errors", &self.accept_errors),
            ("crowdfill_server_idle_disconnects", &self.idle_disconnects),
            ("crowdfill_server_evictions", &self.evictions),
            ("crowdfill_server_lag_downgrades", &self.lag_downgrades),
            ("crowdfill_server_lag_dropped_frames", &self.lag_dropped),
            (
                "crowdfill_server_batch_broadcast_frames",
                &self.batch_broadcast_frames,
            ),
            ("crowdfill_reactor_frames_in", &self.frames_in),
            (
                "crowdfill_reactor_fairness_deferrals",
                &self.fairness_deferrals,
            ),
            ("crowdfill_reactor_wakeups", &self.wakeups),
            ("crowdfill_reactor_conn_visits", &self.conn_visits),
            ("crowdfill_reactor_handovers", &self.handovers),
            ("crowdfill_net_bytes_in", &self.bytes_in),
            ("crowdfill_net_bytes_out", &self.bytes_out),
            ("crowdfill_net_accepts", &self.accepts),
            ("crowdfill_server_overload_rejects", &self.overload_rejects),
            ("crowdfill_server_sheds", &self.sheds),
        ];
        let gauges: &[(&str, &Gauge)] = &[
            ("crowdfill_progress_stopped", &self.progress_stopped),
            (
                "crowdfill_progress_reprice_factor_milli",
                &self.progress_reprice_milli,
            ),
            ("crowdfill_reactor_conns", &self.conns),
            ("crowdfill_server_queue_depth", &self.queue_depth),
        ];
        let histograms: &[(&str, &Histogram)] = &[
            (
                "crowdfill_server_request_latency_ns",
                &self.request_latency_ns,
            ),
            ("crowdfill_server_queue_wait_ns", &self.queue_wait_ns),
            ("crowdfill_server_ack_latency_ns", &self.ack_latency_ns),
        ];
        let shards = self.shard_conn_visits.iter().enumerate();
        let shards = shards.map(|(i, visits)| {
            let name = format!("crowdfill_reactor_shard_{i}_conn_visits");
            (name, Sample::Counter(visits.get()))
        });
        let summary = |h: &Histogram| Sample::Summary(Box::new(h.snapshot()));
        let counters = counters
            .iter()
            .map(|(n, c)| (n.to_string(), Sample::Counter(c.get())));
        let gauges = gauges
            .iter()
            .map(|(n, g)| (n.to_string(), Sample::Gauge(g.get())));
        let histograms = histograms.iter().map(|(n, h)| (n.to_string(), summary(h)));
        counters
            .chain(gauges)
            .chain(histograms)
            .chain(shards)
            .collect()
    }
}

/// The Prometheus-style text of named `samples` and of collections'
/// `counts`, each under its metric name (collections add up).
pub fn exposition(
    samples: impl IntoIterator<Item = (String, Sample)>,
    counts: impl IntoIterator<Item = BackendCounts>,
) -> String {
    let counts = counts.into_iter().flat_map(named);
    let counts = counts.map(|(name, sample)| (name.to_string(), sample));
    crowdfill_obs::metrics::render(samples.into_iter().chain(counts))
}

/// One collection's counts under their metric names.
fn named(c: BackendCounts) -> impl Iterator<Item = (&'static str, Sample)> {
    use Sample::{Counter as C, Gauge as G};
    let s = |h: &Histogram| Sample::Summary(Box::new(h.snapshot()));
    let (replica, matching, pri) = (c.replica, c.central.matching, c.central);
    let (wal, snap) = (c.journal, c.snapshots);
    [
        ("crowdfill_server_batch_submits", C(c.batch_submits)),
        ("crowdfill_server_batch_ops", C(c.batch_ops)),
        ("crowdfill_server_batch_size", s(&c.batch_size)),
        ("crowdfill_server_batch_apply_ns", s(&c.batch_apply_ns)),
        ("crowdfill_server_batch_wal_frames", C(c.batch_wal_frames)),
        ("crowdfill_server_batch_wal_errors", C(c.batch_wal_errors)),
        ("crowdfill_wal_bytes", G(c.wal_bytes as i64)),
        ("crowdfill_checkpoints", C(c.checkpoints)),
        ("crowdfill_compactions", C(c.compactions)),
        ("crowdfill_server_outbox_msgs", G(c.outbox_msgs)),
        ("crowdfill_server_bootstrap_builds", C(c.bootstrap_builds)),
        (
            "crowdfill_server_bootstrap_encoded_msgs",
            C(c.bootstrap_encoded_msgs),
        ),
        ("crowdfill_sync_ops_applied", C(replica.ops_applied)),
        ("crowdfill_sync_ops_rejected", C(replica.ops_rejected)),
        ("crowdfill_sync_ops_processed", C(replica.ops_processed)),
        (
            "crowdfill_sync_vote_history_entries",
            G(replica.vote_history_entries as i64),
        ),
        (
            "crowdfill_sync_divergence_checks",
            C(replica.divergence_checks.get()),
        ),
        ("crowdfill_constraints_pri_refreshes", C(pri.refreshes)),
        (
            "crowdfill_constraints_template_drops",
            C(pri.template_drops),
        ),
        ("crowdfill_constraints_pri_refresh_ns", s(&pri.refresh_ns)),
        (
            "crowdfill_matching_augment_searches",
            C(matching.augment_searches),
        ),
        (
            "crowdfill_matching_augment_steps",
            C(matching.augment_steps),
        ),
        ("crowdfill_matching_edge_visits", C(matching.edge_visits)),
        ("crowdfill_docstore_wal_appends", C(wal.appends)),
        ("crowdfill_docstore_wal_append_bytes", C(wal.append_bytes)),
        ("crowdfill_docstore_wal_flush_ns", s(&wal.flush_ns)),
        ("crowdfill_docstore_wal_fsyncs", C(wal.fsyncs)),
        ("crowdfill_docstore_wal_compactions", C(wal.compactions)),
        (
            "crowdfill_docstore_wal_replayed_records",
            C(wal.replayed_records),
        ),
        ("crowdfill_wal_torn_tail_bytes", C(wal.torn_tail_bytes)),
        ("crowdfill_wal_torn_tail_repairs", C(wal.torn_tail_repairs)),
        ("crowdfill_snapshot_writes", C(snap.writes.get())),
        ("crowdfill_snapshot_fallbacks", C(snap.fallbacks.get())),
        ("crowdfill_snapshot_corrupt", C(snap.corrupt.get())),
    ]
    .into_iter()
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
    /// Number of reactor shard threads; `0` (the default) runs one per
    /// available core, capped at 4 (a shard is syscall-bound) and at the
    /// number of collections (a shard that owns none would only wait).
    pub shards: usize,
    /// The durability tick (DESIGN.md §14): a deadline on each owner shard
    /// one of whose collections was opened with storage attached
    /// ([`crate::persist`]). It compacts such a collection once its journal
    /// grew past the threshold — the checkpoint write stalls that shard. A
    /// shard whose collections are all in memory arms none.
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
    /// The shard count `shards` asks for, for `collections` collections;
    /// under `0` the host is asked for its cores only if the cap exceeds 1.
    pub(crate) fn effective_shards(&self, collections: usize) -> usize {
        match (self.shards, collections.clamp(1, 4)) {
            (0, 1) => 1,
            (0, cap) => std::thread::available_parallelism().map_or(1, |n| n.get().min(cap)),
            (n, _) => n,
        }
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
    /// The owning shard — dealt round-robin in start order, fixed at
    /// start — and this collection's index among those it owns.
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
        let shards = options.effective_shards(backends.len());
        let metrics = ServiceMetrics::new(shards);
        // Every shard reads the objectives' three instruments into this
        // ring as it wakes; `health` requests subtract two of its
        // readings. One ring serves every collection (the instruments are
        // the service's), and it starts with a reading at the start.
        /// Ring capacity in readings: a minute of window and a few more
        /// periods.
        const RING_CAPACITY: usize = 256;
        let instruments = SloInstruments {
            latency: Arc::clone(&metrics.ack_latency_ns),
            sheds: Arc::clone(&metrics.sheds),
            submits: Arc::clone(&metrics.submit_requests),
        };
        let telemetry = ReadingRing::new(instruments, RING_CAPACITY);
        telemetry.sample(0);
        let mut collections = HashMap::with_capacity(backends.len());
        let mut owned: ShardCollections = (0..shards).map(|_| Vec::new()).collect();
        // Round-robin in start order: no shard owns nothing while there
        // are at least as many collections as shards.
        for (i, (name, backend)) in backends.into_iter().enumerate() {
            let backend = Arc::new(Mutex::new(backend));
            let pipeline = BatchPipeline::start(
                Arc::clone(&backend),
                Box::new(move || Millis(started.elapsed().as_millis() as u64)),
                Box::new(|| {}),
                options.batch.clone(),
                options.overload.clone(),
            );
            let owner = i % shards;
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
            fulfilled: (Mutex::new(()), Condvar::new()),
        };
        Ok((Arc::new(shared), owned))
    }

    /// The [`exposition`] of the service. The snapshot age is the oldest
    /// checkpoint's among the collections that keep them (0 if none do).
    pub(crate) fn stats(&self) -> String {
        let (mut counts, mut oldest) = (Vec::new(), 0);
        for collection in self.collections.values() {
            let backend = collection.backend.lock();
            if backend.has_snapshots() {
                oldest = oldest.max(backend.snapshot_age_ms().unwrap_or(0));
            }
            counts.push(backend.counts());
        }
        let mut samples = self.metrics.samples();
        let age = Sample::Gauge(oldest as i64);
        samples.push(("crowdfill_snapshot_age_ms".to_string(), age));
        exposition(samples, counts)
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

    /// What a `stats` request answers.
    pub fn stats(&self) -> String {
        self.shared.stats()
    }

    /// This service's instruments (not its collections' counts). Reading
    /// one takes no backend lock.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.shared.metrics
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::{self, DurabilityOptions};
    use crate::TaskConfig;
    use crowdfill_model::{Column, DataType, QuorumMajority, Schema, Template};

    fn config() -> TaskConfig {
        let columns = vec![Column::new("name", DataType::Text)];
        let schema = Schema::new("Persist", columns, &["name"]).unwrap();
        let scoring = Arc::new(QuorumMajority::of_three());
        TaskConfig::new(Arc::new(schema), scoring, Template::cardinality(1), 10.0)
    }

    /// Under `shards: 0` a service runs one shard per core, at most 4 and
    /// at most one per collection; an explicit count is taken as it is.
    #[test]
    fn the_default_shard_count_is_capped_by_the_collections() {
        let auto = ServiceOptions::default();
        assert_eq!(auto.effective_shards(0), 1);
        assert_eq!(auto.effective_shards(1), 1);
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        for collections in 2..=9 {
            let n = auto.effective_shards(collections);
            assert_eq!(n, cores.min(4).min(collections), "{collections}");
        }
        for shards in [1, 2, 4, 7] {
            let explicit = ServiceOptions {
                shards,
                ..ServiceOptions::default()
            };
            for collections in [0, 1, 3, 128] {
                assert_eq!(explicit.effective_shards(collections), shards);
            }
        }
        // One count sizes both the per-shard visits and the owner lists.
        let backends = (0..3).map(|i| (format!("c{i}"), Backend::new(config())));
        let (shared, owned) = ServiceShared::new(backends.collect(), auto).unwrap();
        assert_eq!(shared.metrics.shard_conn_visits.len(), owned.len());
        assert_eq!(owned.len(), cores.min(3));
    }

    /// Collections go to shards round-robin in start order, so no shard
    /// owns nothing while there are at least as many collections: a hash
    /// of the names put `c0`, `c1` and `c2` all on shard 0 of 2.
    #[test]
    fn collections_are_dealt_to_shards_in_start_order() {
        let backends = (0..3).map(|i| (format!("c{i}"), Backend::new(config())));
        let options = ServiceOptions {
            shards: 2,
            ..ServiceOptions::default()
        };
        let (shared, owned) = ServiceShared::new(backends.collect(), options).unwrap();
        let names = |shard: &Vec<(Arc<Collection>, BatchPipeline)>| -> Vec<String> {
            shard.iter().map(|(c, _)| c.name.clone()).collect()
        };
        let sizes: Vec<usize> = owned.iter().map(Vec::len).collect();
        assert_eq!(sizes, [2, 1]);
        assert_eq!(names(&owned[0]), ["c0", "c2"]);
        assert_eq!(names(&owned[1]), ["c1"]);
        for (shard, collections) in owned.iter().enumerate() {
            for (slot, (c, _)) in collections.iter().enumerate() {
                assert_eq!((c.owner, c.slot), (shard, slot));
                assert!(Arc::ptr_eq(c, &shared.collections[&c.name]));
            }
        }
    }

    /// `stats` shows the oldest checkpoint among the collections that keep
    /// them, whichever shard owns each: not their sum, not the last one's
    /// to tick.
    #[test]
    fn snapshot_age_is_the_oldest_over_all_shards() {
        // Started first and second: shards 0 and 1.
        let (old, young) = ("c0".to_string(), "c1".to_string());
        let dir = std::env::temp_dir();
        let dir = dir.join(format!("crowdfill-snapshot-age-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = DurabilityOptions::default();
        let open = |name: &str| persist::open_or_recover(config(), dir.join(name), &opts);
        let backends = vec![
            (old.clone(), open(&old).unwrap()),
            (young.clone(), open(&young).unwrap()),
            ("memory".to_string(), Backend::new(config())),
        ];
        let options = ServiceOptions {
            shards: 2,
            ..ServiceOptions::default()
        };
        let (shared, _) = ServiceShared::new(backends, options).unwrap();
        let at = |name: &str, ms: u64, checkpoint: bool| {
            let mut backend = shared.collections[name].backend.lock();
            backend.set_time(Millis(ms));
            if checkpoint {
                backend.checkpoint().unwrap();
            }
        };
        let age = || {
            let stats = shared.stats();
            let line = stats
                .lines()
                .find_map(|l| l.strip_prefix("crowdfill_snapshot_age_ms "));
            line.expect("one snapshot-age line").parse::<u64>().unwrap()
        };
        at(&old, 0, true);
        at(&young, 0, true);
        at(&old, 9_000, false);
        assert_eq!(age(), 9_000);
        at(&young, 40, false);
        assert_eq!(age(), 9_000, "the ages added up");
        at(&old, 9_000, true); // it compacted
        at(&old, 9_010, false);
        assert_eq!(age(), 40);
        drop(shared);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
