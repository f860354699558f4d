//! The deterministic overload harness: replays a seeded open-loop storm
//! ([`Plan`]) against a *real* [`TcpService`] and reports what the
//! overload-protection layer did (DESIGN.md §9).
//!
//! The storm runs on the one load generator, `connscale::drive`, on one
//! driver thread: fills go out on the plan's wall clock, not when the
//! server is ready for them, so offered load genuinely exceeds capacity
//! when the plan says it should. Stalled readers hello and never read
//! again; the herd disconnect drops every connection mid-run
//! ([`TcpService::disconnect_all`]) and every session redials and resumes.
//!
//! The report carries the three acceptance properties the stress tests and
//! `BENCH_overload.json` assert:
//!
//! 1. **bounded queues** — the pipeline depth gauge, read on every driver
//!    wake, never exceeded `max_queue` plus one in-flight submission per
//!    connection;
//! 2. **bounded ack latency** — p99 time-to-ack over admitted (acked)
//!    submissions, from a fill's first send to its ack;
//! 3. **zero acked loss** — every fill the server acked is present in the
//!    master table after the run.

use crate::connscale::{collection_name, drive, lane_config, Drive};
use crowdfill_server::{
    Backend, BatchOptions, OverloadOptions, ReconnectPolicy, ServiceOptions, TcpService,
};
use crowdfill_sim::openloop::Plan;
use std::time::Duration;

/// Harness configuration: the service under stress and the client budget.
#[derive(Debug, Clone)]
pub struct HarnessOptions {
    /// Rows in the collection (the template cardinality); sized so the
    /// schedule cannot run out of empty rows to anchor fills in.
    pub rows: usize,
    /// The overload knobs under test.
    pub overload: OverloadOptions,
    /// The batch pipeline configuration.
    pub batch: BatchOptions,
    /// Per-client reconnect/retry budget (also the overload retry budget).
    pub max_attempts: u32,
    /// Bytes of padding on every row anchor, so every fill's message
    /// carries about this much; 0 keeps messages small.
    pub anchor_padding: usize,
}

impl HarnessOptions {
    /// A deliberately tiny server — `max_queue` far below the schedule's
    /// concurrency — so a modest storm is 4x+ the admission bound.
    pub fn tiny(workers: usize, ops_per_worker: usize) -> HarnessOptions {
        HarnessOptions {
            rows: workers * ops_per_worker + workers,
            overload: OverloadOptions {
                max_queue: 8,
                spec_queue: 2,
                shed_after: Duration::from_millis(250),
                retry_after_base: Duration::from_millis(5),
                write_buffer_frames: 8,
                evict_after: Duration::from_millis(150),
            },
            batch: BatchOptions {
                max_batch: 16,
                max_wait: Duration::from_millis(2),
            },
            max_attempts: 8,
            anchor_padding: 0,
        }
    }

    /// [`tiny`](Self::tiny) for the stalled-reader storm: a seat watermark
    /// of 4 frames, eviction 50 ms after the downgrade, and anchors padded
    /// so that what fans out to each stalled reader is more than twice what
    /// a loopback socket buffers for a peer that reads nothing (≈ 4.2 MB on
    /// Linux with the default `tcp_wmem` maximum of 4 MB). Every fill
    /// anchors a row of its own, one message of one anchor, so `w × o`
    /// fills fan out `w × o` anchors: 64 × 160 KB ≈ 10.5 MB for 8 workers ×
    /// 8 ops.
    pub fn stalled(workers: usize, ops_per_worker: usize) -> HarnessOptions {
        let mut opts = HarnessOptions::tiny(workers, ops_per_worker);
        opts.overload.write_buffer_frames = 4;
        opts.overload.evict_after = Duration::from_millis(50);
        opts.anchor_padding = 160 * 1024;
        opts
    }
}

/// What one scenario run did, in the terms the acceptance gate asserts.
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    pub scenario: String,
    pub seed: u64,
    /// Scheduled submissions (open-loop offered load).
    pub offered: usize,
    /// Fills the server acked (and therefore guarantees).
    pub acked: usize,
    /// Fills the client gave up on after its overload retry budget.
    pub overload_give_ups: usize,
    /// Fills the server rejected (policy, not overload) — an acceptable
    /// outcome.
    pub op_failures: usize,
    /// Sessions that exhausted their reconnect budget or were unfinished
    /// at the deadline.
    pub fatal: usize,
    /// Highest pipeline queue depth the driver read on its wakes.
    pub max_queue_depth: i64,
    /// The depth the run must not have exceeded (`max_queue` + one
    /// in-flight submission per connection, from the conservative
    /// admission pre-increment).
    pub queue_bound: i64,
    /// Server-side overload counters over the run.
    pub admission_rejects: u64,
    pub sheds: u64,
    pub lag_downgrades: u64,
    pub evictions: u64,
    /// Client-side overload backoffs taken, and sessions resumed.
    pub client_backoffs: u64,
    pub client_resumes: u64,
    /// p99 of client-observed time-to-ack over acked fills, from a fill's
    /// first send to its ack, ms.
    pub p99_ack_ms: u64,
    /// Acked fills missing from the master at verification. MUST be 0.
    pub acked_lost: usize,
}

impl ScenarioReport {
    /// One JSON line for `BENCH_overload.json`.
    pub fn json_line(&self) -> String {
        format!(
            "    {{\"name\": \"{}/seed={}\", \"offered\": {}, \"acked\": {}, \"overload_give_ups\": {}, \
             \"op_failures\": {}, \"max_queue_depth\": {}, \"queue_bound\": {}, \
             \"admission_rejects\": {}, \"sheds\": {}, \"lag_downgrades\": {}, \"evictions\": {}, \
             \"client_backoffs\": {}, \"p99_ack_ms\": {}, \"acked_lost\": {}}}",
            self.scenario,
            self.seed,
            self.offered,
            self.acked,
            self.overload_give_ups,
            self.op_failures,
            self.max_queue_depth,
            self.queue_bound,
            self.admission_rejects,
            self.sheds,
            self.lag_downgrades,
            self.evictions,
            self.client_backoffs,
            self.p99_ack_ms,
            self.acked_lost
        )
    }

    /// The invariants every scenario must satisfy, as a checkable result
    /// so callers can attach diagnostics before failing. Latency is
    /// asserted by the caller (it knows the scenario's budget); loss and
    /// queue bounds are universal.
    pub fn check_invariants(&self) -> Result<(), String> {
        if self.acked_lost != 0 {
            return Err(format!(
                "{}/seed={}: {} acked submissions missing from master",
                self.scenario, self.seed, self.acked_lost
            ));
        }
        if self.max_queue_depth > self.queue_bound {
            return Err(format!(
                "{}/seed={}: queue depth {} exceeded bound {}",
                self.scenario, self.seed, self.max_queue_depth, self.queue_bound
            ));
        }
        if self.fatal != 0 {
            return Err(format!(
                "{}/seed={}: {} sessions failed or timed out",
                self.scenario, self.seed, self.fatal
            ));
        }
        let outcomes = self.acked + self.overload_give_ups + self.op_failures;
        if outcomes != self.offered {
            return Err(format!(
                "{}/seed={}: outcomes {} != offered {}",
                self.scenario, self.seed, outcomes, self.offered
            ));
        }
        Ok(())
    }

    /// [`check_invariants`](Self::check_invariants), panicking on
    /// violation. When the flight recorder holds events for this run, they
    /// are dumped to a file first and the panic message names the path —
    /// the failing seed's op timeline survives the process.
    pub fn assert_invariants(&self) {
        if let Err(msg) = self.check_invariants() {
            let label = format!("overload-{}-seed{}", self.scenario, self.seed);
            match crowdfill_obs::trace::dump_flight_record(&label) {
                Some(path) => panic!("{msg}\nflight record dumped to {}", path.display()),
                None => panic!("{msg}"),
            }
        }
    }
}

/// How long a storm may run before its unfinished sessions count as fatal.
const DEADLINE: Duration = Duration::from_secs(60);

/// Runs one storm against a fresh service and reports what happened: the
/// service's own counts, and its clients'.
pub fn run_schedule(plan: &Plan, opts: &HarnessOptions) -> ScenarioReport {
    let lane = collection_name(0);
    let backend = Backend::new(lane_config(opts.rows));
    let options = ServiceOptions {
        idle_timeout: Some(Duration::from_secs(30)),
        batch: opts.batch.clone(),
        overload: opts.overload.clone(),
        ..ServiceOptions::default()
    };
    let service = TcpService::start_multi(vec![(lane.clone(), backend)], "127.0.0.1:0", options)
        .expect("overload service failed to start");
    let run = Drive {
        addr: service.addr(),
        service: Some(&service),
        threads: 1,
        deadline: DEADLINE,
        policy: ReconnectPolicy {
            max_attempts: opts.max_attempts,
            base_delay: Duration::from_millis(1),
            max_delay: Duration::from_millis(30),
            ..ReconnectPolicy::default()
        },
        padding: opts.anchor_padding,
    };
    let ran = drive(plan, &run);
    let herd = plan.herd_disconnect_at_ms.is_some();
    assert!(
        !herd || ran.herd_dropped > 0,
        "herd disconnect found no connections to drop"
    );

    let metrics = service.metrics();
    let report = ScenarioReport {
        scenario: plan.name.to_string(),
        seed: plan.seed,
        offered: ran.expected_fills,
        acked: ran.acked,
        overload_give_ups: ran.give_ups,
        op_failures: ran.rejected,
        fatal: ran.conn_failures + ran.timed_out_sessions,
        max_queue_depth: ran.max_queue_depth,
        queue_bound: (opts.overload.max_queue + plan.sessions.len()) as i64,
        admission_rejects: metrics.overload_rejects.get(),
        sheds: metrics.sheds.get(),
        lag_downgrades: metrics.lag_downgrades.get(),
        evictions: metrics.evictions.get(),
        client_backoffs: ran.backoffs as u64,
        client_resumes: ran.resumes,
        p99_ack_ms: ran.ack_p99_ns / 1_000_000,
        acked_lost: ran.acked_lost,
    };

    // Gauge hygiene (DESIGN.md §11): the driver returns once every session
    // is through and the queue has drained — evicted stalled readers and
    // herd-dropped sessions included (an op whose session was dropped
    // settles at its batch's deadline) — and once the shards are joined no
    // session is owed a broadcast, or `health`/`top` would show phantom
    // load forever.
    let depth = metrics.queue_depth.get();
    assert_eq!(depth, 0, "gauge hygiene: queue depth with no session");
    let backend = service.backend_of(&lane).expect("the storm's collection");
    service.stop();
    let outbox = backend.lock().counts().outbox_msgs;
    assert_eq!(outbox, 0, "gauge hygiene: outbox after stop");
    report
}
