//! The discrete-event simulation engine.
//!
//! Wires [`SimWorker`]s to a real [`Backend`] and advances simulated time:
//! each worker alternates *think* (absorb broadcasts, decide an action,
//! wait its data-entry latency) and *submit* (re-validate against the
//! fresher view, send to the server). This reproduces the paper's live
//! deployment — including the estimator's latency evidence, since the gap
//! between a worker's consecutive messages *is* its data-entry time.

use crate::dataset::GroundTruth;
use crate::worker::{PlannedAction, SimWorker, WorkerProfile};
use crowdfill_model::Template;
use crowdfill_obs::Sample;
use crowdfill_pay::{Millis, Scheme, WorkerId};
use crowdfill_server::{Backend, BatchJob, BatchOp, TaskConfig, WorkerClient};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;

/// Simulation parameters for one collection run.
#[derive(Clone)]
pub struct SimConfig {
    pub universe: GroundTruth,
    pub template: Template,
    pub scoring: crowdfill_model::ScoringRef,
    pub budget: f64,
    pub scheme: Scheme,
    pub profiles: Vec<WorkerProfile>,
    pub seed: u64,
    /// Hard stop, in simulated seconds.
    pub max_sim_secs: f64,
    pub max_votes_per_row: Option<u32>,
}

impl SimConfig {
    /// Defaults mirroring the paper's representative run: majority-of-three
    /// scoring, $10 budget, dual-weighted allocation.
    pub fn new(
        universe: GroundTruth,
        template: Template,
        profiles: Vec<WorkerProfile>,
    ) -> SimConfig {
        SimConfig {
            universe,
            template,
            scoring: Arc::new(crowdfill_model::QuorumMajority::of_three()),
            budget: 10.0,
            scheme: Scheme::DualWeighted,
            profiles,
            seed: 1,
            max_sim_secs: 4.0 * 3600.0,
            max_votes_per_row: None,
        }
    }

    pub fn with_seed(mut self, seed: u64) -> SimConfig {
        self.seed = seed;
        self
    }

    pub fn with_scheme(mut self, scheme: Scheme) -> SimConfig {
        self.scheme = scheme;
        self
    }

    pub fn with_budget(mut self, budget: f64) -> SimConfig {
        self.budget = budget;
        self
    }
}

/// One scheduled simulator event.
#[derive(Debug)]
enum EventKind {
    /// Absorb, decide, schedule the submit.
    Think,
    /// Submit the planned action, then think again.
    Submit(PlannedAction),
}

/// The simulation outcome; everything the experiment binaries report.
pub struct RunReport {
    pub fulfilled: bool,
    /// Simulated time when the constraint was fulfilled (or the stop time).
    pub elapsed: Millis,
    pub final_table: crowdfill_model::FinalTable,
    /// Candidate-table size at completion (paper: 23 rows for 20 final).
    pub candidate_rows: usize,
    /// Rows rejected by downvotes (negative score).
    pub rejected_rows: usize,
    /// Complete rows sharing a key with another complete row (conflicts).
    pub duplicate_key_rows: usize,
    /// Rows still empty or partial at completion.
    pub leftover_incomplete: usize,
    /// Fraction of final rows exactly present in the ground truth.
    pub accuracy: f64,
    /// Worker actions (non-auto messages) per worker.
    pub actions_per_worker: std::collections::BTreeMap<WorkerId, usize>,
    /// Settlement under the configured scheme.
    pub payout: crowdfill_pay::Payout,
    pub contributions: crowdfill_pay::Contributions,
    /// Raw per-worker estimate totals (shown during collection).
    pub estimates_raw: std::collections::BTreeMap<WorkerId, f64>,
    /// Estimates restricted to contributing actions.
    pub estimates_corrected: std::collections::BTreeMap<WorkerId, f64>,
    /// Per-action estimate timeline (for earning-rate analyses).
    pub estimate_timeline: Vec<crowdfill_pay::ActionEstimate>,
    /// The run's op log.
    pub trace: crowdfill_pay::Trace,
    pub schema: Arc<crowdfill_model::Schema>,
    pub split: crowdfill_pay::SplitConfig,
    pub budget: f64,
    /// Prometheus-style metrics text taken as the run finished: this run's
    /// own instruments and its backend's counts, nothing of any other run.
    pub metrics_snapshot: String,
    /// Per-stage latency attribution of the ops this run traced, rendered
    /// by [`TraceSummary`](crowdfill_obs::trace::TraceSummary). Empty when
    /// tracing is off (`OBS_TRACE=off`, the default) or nothing sampled.
    pub trace_summary: String,
    /// The end-of-run health report (completeness, per-column agreement,
    /// per-worker stats, and the predictive-progress pane; DESIGN.md §11,
    /// §15), rendered as text. Taken just before settlement, so it
    /// reflects the final collection state.
    pub health_summary: String,
}

impl RunReport {
    /// Re-settles the same contributions under a different allocation
    /// scheme (ignoring, as the paper does in §6, that workers might have
    /// behaved differently under a different scheme).
    pub fn reallocate(&self, scheme: Scheme) -> crowdfill_pay::Payout {
        let c = &self.contributions;
        crowdfill_pay::allocate(scheme, self.budget, c, &self.schema, &self.split)
    }
}

/// Runs one simulated collection to fulfillment (or the time cap).
pub fn run(cfg: SimConfig) -> RunReport {
    let schema = Arc::clone(&cfg.universe.schema);
    let mut task = TaskConfig::new(
        Arc::clone(&schema),
        Arc::clone(&cfg.scoring),
        cfg.template.clone(),
        cfg.budget,
    )
    .with_scheme(cfg.scheme);
    task.max_votes_per_row = cfg.max_votes_per_row;
    let split = task.split.clone();
    let mut backend = Backend::new(task);

    // Connect workers.
    let mut workers: Vec<SimWorker> = Vec::with_capacity(cfg.profiles.len());
    for profile in &cfg.profiles {
        let (w, c, history) = backend.connect(Millis(0));
        let client = WorkerClient::new(w, c, Arc::clone(&schema), &history);
        workers.push(SimWorker::new(
            profile.clone(),
            client,
            &cfg.universe,
            cfg.seed,
        ));
    }

    // Event queue ordered by (time, sequence) for determinism.
    let mut queue: BinaryHeap<Reverse<(u64, u64, usize)>> = BinaryHeap::new();
    let mut events: Vec<Option<EventKind>> = Vec::new();
    let mut seq = 0u64;
    let mut push = |queue: &mut BinaryHeap<_>,
                    events: &mut Vec<Option<EventKind>>,
                    t: u64,
                    w: usize,
                    kind: EventKind| {
        let id = events.len();
        events.push(Some(kind));
        queue.push(Reverse((t, seq, id | (w << 32))));
        seq += 1;
    };

    for (w, worker) in workers.iter().enumerate() {
        let t = (worker.profile.join_delay * 1000.0) as u64;
        push(&mut queue, &mut events, t, w, EventKind::Think);
    }

    // The run's own instruments; the report renders them with the
    // backend's counts, as a service's `stats` would.
    let mut events_processed = 0u64;
    let run_duration_ns = crowdfill_obs::Histogram::new();
    let run_timer = crowdfill_obs::SpanTimer::start(&run_duration_ns);

    // Trace ids are derived from the run seed and an op counter, so the
    // same seed traces the same ops with the same ids — reports diff
    // cleanly across runs. The cursor scopes the summary to this run.
    use crowdfill_obs::trace as obstrace;
    let trace_cursor = obstrace::recorder().cursor();
    let mut trace_ops = 0u64;
    let next_trace = |n: &mut u64| {
        *n = n.wrapping_add(1);
        obstrace::TraceId::generate(cfg.seed, *n)
    };

    let max_ms = (cfg.max_sim_secs * 1000.0) as u64;
    let mut fulfilled_at: Option<u64> = None;
    let mut now = 0u64;

    while let Some(Reverse((t, _, packed))) = queue.pop() {
        if t > max_ms || fulfilled_at.is_some() {
            break;
        }
        events_processed += 1;
        now = t;
        let widx = packed >> 32;
        let eid = packed & 0xFFFF_FFFF;
        let Some(kind) = events[eid].take() else {
            continue;
        };
        let worker = &mut workers[widx];

        // Absorb everything the server has broadcast to this worker.
        for msg in backend.poll(worker.worker_id()) {
            worker.client.absorb(&msg);
        }

        match kind {
            EventKind::Think => {
                let decision = if worker.profile.follow_recommendations {
                    let recs = backend.recommend(worker.worker_id(), 8);
                    worker.decide_with_recommendations(&cfg.universe, &*cfg.scoring, &recs)
                } else {
                    worker.decide(&cfg.universe, &*cfg.scoring)
                };
                match decision {
                    Some((action, latency)) => {
                        let due = t + (latency * 1000.0) as u64;
                        push(
                            &mut queue,
                            &mut events,
                            due,
                            widx,
                            EventKind::Submit(action),
                        );
                    }
                    None => {
                        let due = t + (worker.profile.idle_backoff.max(0.5) * 1000.0) as u64;
                        push(&mut queue, &mut events, due, widx, EventKind::Think);
                    }
                }
            }
            EventKind::Submit(action) => {
                let is_modify = matches!(action, PlannedAction::Modify { .. });
                if let Some(outgoing) = worker.execute(&action) {
                    let wid = worker.worker_id();
                    let mut job = |op| BatchJob {
                        worker: wid,
                        op,
                        trace: next_trace(&mut trace_ops),
                    };
                    let jobs = if is_modify {
                        // The composite correction travels as one bundle so
                        // the server can authorize its embedded insert.
                        let bundle = outgoing
                            .into_iter()
                            .map(|o| (o.msg, o.auto_upvote))
                            .collect();
                        vec![job(BatchOp::Modify { bundle })]
                    } else {
                        outgoing
                            .into_iter()
                            .map(|o| {
                                job(BatchOp::Msg {
                                    msg: o.msg,
                                    auto_upvote: o.auto_upvote,
                                })
                            })
                            .collect()
                    };
                    // Server-side rejections (vote policy, stale rows) drop
                    // the message; the worker's optimistic local state
                    // reconverges through later broadcasts.
                    let _ = backend.submit_batch(jobs, Millis(t));
                    if backend.is_fulfilled() {
                        fulfilled_at = Some(t);
                    }
                }
                push(&mut queue, &mut events, t, widx, EventKind::Think);
            }
        }
    }

    let fulfilled = fulfilled_at.is_some();
    let elapsed = Millis(fulfilled_at.unwrap_or(now.min(max_ms)));

    // Candidate-table anatomy.
    let table = backend.master().table().clone();
    let scoring = Arc::clone(&cfg.scoring);
    let mut rejected_rows = 0;
    let mut leftover_incomplete = 0;
    let mut complete_keys: std::collections::HashMap<crowdfill_model::RowValue, usize> =
        std::collections::HashMap::new();
    for (_, e) in table.iter() {
        if scoring.score(e.upvotes, e.downvotes) < 0 {
            rejected_rows += 1;
        }
        if !e.value.is_complete(&schema) {
            leftover_incomplete += 1;
        } else if let Some(key) = e.value.key_projection(&schema) {
            *complete_keys.entry(key).or_insert(0) += 1;
        }
    }
    let duplicate_key_rows: usize = complete_keys
        .values()
        .filter(|&&n| n > 1)
        .map(|&n| n - 1)
        .sum();

    // Health must be read before settlement tears the sessions down.
    let health_summary = crowdfill_server::health::collect(&backend).render();

    let (final_table, contributions, payout) = backend.settle();
    let accuracy = if final_table.is_empty() {
        0.0
    } else {
        final_table
            .values()
            .filter(|v| cfg.universe.contains(v))
            .count() as f64
            / final_table.len() as f64
    };

    let sessions = backend.session_stats().into_iter().filter(|s| s.ops > 0);
    let actions_per_worker = sessions.map(|s| (s.worker, s.ops as usize)).collect();

    let estimates_raw = backend.estimator().raw_totals();
    let estimates_corrected = backend.estimator().corrected_totals(&contributions);
    let estimate_timeline = backend.estimator().timeline().to_vec();

    drop(run_timer);
    crowdfill_obs::obs_info!(
        "sim",
        "run finished";
        fulfilled => fulfilled,
        sim_millis => elapsed.0,
        candidate_rows => table.len() as u64,
    );
    let samples = [
        (
            "crowdfill_sim_events_processed".to_string(),
            Sample::Counter(events_processed),
        ),
        (
            "crowdfill_sim_run_ns".to_string(),
            Sample::Summary(Box::new(run_duration_ns.snapshot())),
        ),
    ];
    let metrics_snapshot = crowdfill_server::exposition(samples, [backend.counts()]);
    let trace_summary = if obstrace::enabled() {
        let events = obstrace::recorder().dump_since(trace_cursor);
        obstrace::TraceSummary::from_events(&events).render()
    } else {
        String::new()
    };

    RunReport {
        fulfilled,
        elapsed,
        candidate_rows: table.len(),
        rejected_rows,
        duplicate_key_rows,
        leftover_incomplete,
        accuracy,
        final_table,
        actions_per_worker,
        payout,
        contributions,
        estimates_raw,
        estimates_corrected,
        estimate_timeline,
        trace: backend.into_trace(),
        schema,
        split,
        budget: cfg.budget,
        metrics_snapshot,
        trace_summary,
        health_summary,
    }
}
