//! Predictive progress: completeness estimation, cost-to-target
//! forecasting, and the adaptive stopping policy (DESIGN.md §15).
//!
//! [`crate::health`] describes the collection as it is; this module
//! predicts where it is going. A [`ProgressTracker`] feeds the backend's
//! fill stream into [`SpeciesEstimator`]s — one for the whole collection
//! and one per column — treating each (row-lineage, column) cell as a
//! *species* per "Getting It All from the Crowd" (PAPERS.md): the crowd
//! will eventually produce some unknown number of distinct values, and
//! how often arrivals duplicate earlier coverage tells us how many
//! remain. A fill is the first observation of its cell; an **upvote is a
//! re-observation** of every cell the upvoted value covers — in the
//! paper duplicates are the same answer re-submitted, and §3.4's vote
//! flow (auto-upvote on completion included) is exactly how this system
//! expresses "I found the same thing". The server rejects stale
//! competing fills outright, so without counting votes a live collection
//! would look like an all-singleton stream forever and the estimator
//! could never see saturation. Downvotes are not observations: they
//! assert the value is *wrong*, not re-found.
//!
//! On top of the completeness estimate sits a cost model from
//! `crates/pay`'s online [`Estimator`](crowdfill_pay::Estimator)
//! timeline: `spent` is the summed per-action compensation estimate so
//! far, `cost_per_fill` amortizes it over observations (fills and
//! confirming votes alike), and the **cost to target** uses the
//! coupon-collector expectation — reaching `t·S` distinct values out of
//! an estimated `S` from `D` observed takes `S·ln((S−D)/(S−t·S))` more
//! draws. The ETA divides by the recent fill arrival rate.
//!
//! [`StoppingPolicy`] closes the loop: evaluated against a
//! [`ProgressReport`], it triggers when the *conservative* completeness
//! (`observed / ci_hi`, so wide uncertainty delays stopping) reaches the
//! target, or when the marginal cost of the next novel value
//! (`cost_per_fill / marginal_new_rate`) exceeds a configured ceiling.
//! The action is [`Close`](StopAction::Close) (journal the PR 9 closed
//! marker via [`Backend::close`]), [`Reprice`](StopAction::Reprice)
//! (recommend a new reward, which the simulated marketplace's
//! `Marketplace::recommend_reprice` in `crowdfill-sim` turns into per-HIT
//! proposals),
//! or [`Alert`](StopAction::Alert) (log only). The progress tick in
//! `tcp_service` evaluates the policy; it runs only when one is set.
//!
//! The tracker is also the whole of [`crate::health`]'s view of the op
//! log: one fold per collection, held by the shard that owns it, which a
//! tick or a `health` request advances over what was appended since and
//! then reads. Nothing else in the telemetry reads the log.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};

use crowdfill_docstore::Json;
use crowdfill_model::{Message, RowId, RowValue};
use crowdfill_obs::progress::{species_key, ProgressEstimate, SpeciesEstimator};
use crowdfill_pay::{TraceEntry, WorkerId};

use crate::backend::Backend;

/// Default completeness target for reports and policies.
pub const DEFAULT_TARGET: f64 = 0.9;

/// Look-back window of the health report's rates, saturation and
/// per-worker activity (ms).
pub const WINDOW_MS: u64 = 60_000;

/// Fill-arrival timestamps retained for the ETA rate estimate.
const RECENT_FILLS: usize = 64;

/// Per-column progress, in schema order.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnProgress {
    pub name: String,
    pub estimate: ProgressEstimate,
}

/// A point-in-time predictive progress report.
#[derive(Debug, Clone, PartialEq)]
pub struct ProgressReport {
    /// Completeness target the forecast aims at, in `(0, 1]`.
    pub target: f64,
    /// Whole-collection estimate over (lineage, column) species.
    pub overall: ProgressEstimate,
    pub columns: Vec<ColumnProgress>,
    /// Estimated compensation accrued so far (pay-estimator timeline).
    pub spent: f64,
    /// The collection's configured budget.
    pub budget: f64,
    /// `spent` amortized per fill observation; `None` before any fill.
    pub cost_per_fill: Option<f64>,
    /// Forecast additional spend to reach `target` completeness;
    /// `None` when already there or the stream gives no signal yet.
    pub cost_to_target: Option<f64>,
    /// Forecast seconds to reach `target` at the recent arrival rate.
    pub eta_secs_to_target: Option<f64>,
    /// Recent fill arrival rate (observations per second).
    pub fills_per_sec: f64,
}

impl ProgressReport {
    /// Conservative completeness: observed over the CI's high edge, so
    /// wide uncertainty reads as "further from done". In `[0, 1]`.
    pub fn completeness_lo(&self) -> f64 {
        if self.overall.ci_hi > 0.0 {
            (self.overall.observed as f64 / self.overall.ci_hi).clamp(0.0, 1.0)
        } else {
            0.0
        }
    }

    /// Coupon-collector expectation of additional fill observations to
    /// reach `target` completeness (module docs); `None` once there.
    pub fn expected_fills_to_target(&self) -> Option<f64> {
        expected_draws(
            self.overall.observed as f64,
            self.overall.est_total,
            self.target,
        )
    }
}

/// `S·ln((S−D)/(S−t·S))` — expected further uniform draws from an
/// `S`-species pool, having seen `D`, to reach `t·S` distinct.
fn expected_draws(d: f64, s: f64, t: f64) -> Option<f64> {
    if s <= 0.0 || !(0.0..=1.0).contains(&t) {
        return None;
    }
    let want = t * s;
    if d >= want {
        return None;
    }
    let remaining = s - d;
    let shortfall = s - want;
    if shortfall <= 0.0 || remaining <= 0.0 {
        return None;
    }
    Some(s * (remaining / shortfall).ln())
}

/// One worker entry of the trailing [`WINDOW_MS`]: what the health
/// report's rates count.
#[derive(Debug, Clone, Copy)]
struct Arrival {
    at: u64,
    worker: WorkerId,
    /// Not an auto-upvote: it counts toward the worker's ops rate.
    deliberate: bool,
    /// A fill, and whether it covered its cell first.
    fill: Option<bool>,
}

/// Whether an entry at `at` falls in the window that ends where `cutoff`
/// is [`WINDOW_MS`] behind: with less history than a window, all of it.
fn in_window(at: u64, cutoff: u64) -> bool {
    at > cutoff || cutoff == 0
}

/// The window's worker entries, counted at one clock reading.
#[derive(Debug, Default)]
pub(crate) struct Arrivals {
    pub(crate) fills: u64,
    /// Fills that covered their (lineage, column) cell first.
    pub(crate) novel: u64,
    /// Deliberate operations per worker.
    pub(crate) ops: HashMap<WorkerId, u64>,
}

/// The collection's telemetry as one incremental fold of its op log:
/// [`advance`](Self::advance) consumes only entries appended since the
/// last call, so a tick or a `health` request pays O(new ops) for it.
/// Besides the species estimators it keeps what the health report needs
/// from the log: the lineage map, the cells workers covered, the window
/// of recent worker entries, and where the deliberate votes are.
#[derive(Debug, Default)]
pub struct ProgressTracker {
    /// Trace entries consumed so far.
    cursor: usize,
    /// Row lineage links (`Replace` new → old), grown as consumed.
    parent: HashMap<RowId, RowId>,
    /// Each row value ever created → its lineage root, so upvotes (which
    /// carry the value, not a row id) can be mapped back to their cells.
    value_root: HashMap<RowValue, RowId>,
    overall: SpeciesEstimator,
    /// Per-column estimators, keyed by column index.
    columns: BTreeMap<u16, SpeciesEstimator>,
    /// Arrival clock (ms) of the most recent fills, for the ETA rate.
    recent_at: VecDeque<u64>,
    /// (lineage root, column) cells a worker fill covered: the health
    /// report's saturation. Unlike the species above, Central-Client
    /// fills do not count.
    covered: HashSet<(RowId, u16)>,
    /// Worker entries not yet older than the window, in log order.
    window: VecDeque<Arrival>,
    /// Trace indexes of the workers' deliberate votes, judged against the
    /// live tallies when a report is built.
    votes: Vec<usize>,
}

/// The op log, as the fold reads it.
fn log(backend: &Backend) -> &[TraceEntry] {
    backend.trace().entries()
}

impl ProgressTracker {
    pub fn new() -> ProgressTracker {
        ProgressTracker::default()
    }

    fn lineage_root(&self, mut id: RowId) -> RowId {
        while let Some(&p) = self.parent.get(&id) {
            id = p;
        }
        id
    }

    /// Consumes trace entries appended since the last call, then drops
    /// window entries older than [`WINDOW_MS`] at the backend's clock;
    /// returns how many entries it consumed.
    pub fn advance(&mut self, backend: &Backend) -> usize {
        let entries = log(backend);
        let from = self.cursor.min(entries.len());
        for (index, entry) in entries.iter().enumerate().skip(from) {
            let species_worker = entry.worker.map_or(u64::MAX, |w| w.0 as u64);
            let mut fill = None;
            match &entry.msg {
                Message::Replace { old, new, value } => {
                    self.parent.insert(*new, *old);
                    let root = self.lineage_root(*old);
                    self.value_root.insert(value.clone(), root);
                    if let Some(col) = entry.filled {
                        // Species identity: the cell, named by lineage
                        // root × column.
                        self.observe(root, col.0, species_worker, entry.at.0);
                        fill = entry.worker.map(|_| self.covered.insert((root, col.0)));
                    }
                }
                // An upvote re-observes every cell the value covers
                // (module docs); a downvote observes nothing.
                Message::Upvote { value } => {
                    if let Some(&root) = self.value_root.get(value) {
                        for col in value.columns() {
                            self.observe(root, col.0, species_worker, entry.at.0);
                        }
                    }
                    if entry.worker.is_some() && !entry.auto_upvote {
                        self.votes.push(index);
                    }
                }
                Message::Downvote { .. } if entry.worker.is_some() => self.votes.push(index),
                _ => {}
            }
            if let Some(worker) = entry.worker {
                self.window.push_back(Arrival {
                    at: entry.at.0,
                    worker,
                    deliberate: !entry.auto_upvote,
                    fill,
                });
            }
        }
        self.cursor = entries.len();
        // The clock only moves forward: what is out of the window now
        // stays out (entries behind it are filtered when counted).
        let cutoff = backend.now().0.saturating_sub(WINDOW_MS);
        let stale = self.window.iter().take_while(|a| !in_window(a.at, cutoff));
        self.window.drain(..stale.count());
        entries.len() - from
    }

    /// The window's entries as of `now_ms`.
    pub(crate) fn arrivals(&self, now_ms: u64) -> Arrivals {
        let cutoff = now_ms.saturating_sub(WINDOW_MS);
        let mut counted = Arrivals::default();
        for a in self.window.iter().filter(|a| in_window(a.at, cutoff)) {
            if a.deliberate {
                *counted.ops.entry(a.worker).or_insert(0) += 1;
            }
            if let Some(novel) = a.fill {
                counted.fills += 1;
                counted.novel += novel as u64;
            }
        }
        counted
    }

    /// The deliberate votes consumed so far, in log order: (worker,
    /// whether it was an upvote, the value it named).
    pub(crate) fn votes<'b>(
        &'b self,
        backend: &'b Backend,
    ) -> impl Iterator<Item = (WorkerId, bool, &'b RowValue)> {
        let entries = log(backend);
        self.votes.iter().filter_map(move |&i| {
            let entry = &entries[i];
            match &entry.msg {
                Message::Upvote { value } => Some((entry.worker?, true, value)),
                Message::Downvote { value } => Some((entry.worker?, false, value)),
                _ => None,
            }
        })
    }

    /// Feeds one cell observation to the overall and per-column
    /// estimators and stamps the arrival clock.
    fn observe(&mut self, root: RowId, col: u16, worker: u64, at_ms: u64) {
        let species = species_key(root.client.0 as u64, root.seq, col as u64);
        self.overall.observe(species, worker);
        self.columns
            .entry(col)
            .or_default()
            .observe(species, worker);
        if self.recent_at.len() == RECENT_FILLS {
            self.recent_at.pop_front();
        }
        self.recent_at.push_back(at_ms);
    }

    /// The whole-collection estimate without building a full report.
    pub fn overall(&self) -> ProgressEstimate {
        self.overall.estimate()
    }

    /// Builds the report against the backend's current clock, budget,
    /// and pay-estimator timeline. Call [`advance`](Self::advance)
    /// first; this does not consume the trace.
    pub fn report(&self, backend: &Backend, target: f64) -> ProgressReport {
        let schema = &backend.config().schema;
        let overall = self.overall.estimate();
        let columns = schema
            .iter()
            .map(|(col, column)| ColumnProgress {
                name: column.name().to_string(),
                estimate: self
                    .columns
                    .get(&col.0)
                    .map(|e| e.estimate())
                    .unwrap_or_else(ProgressEstimate::empty),
            })
            .collect();

        let spent: f64 = backend
            .estimator()
            .timeline()
            .iter()
            .map(|a| a.amount)
            .sum();
        let n = self.overall.observations();
        let cost_per_fill = (n > 0).then(|| spent / n as f64);

        let now_ms = backend.now().0;
        let fills_per_sec = match (self.recent_at.front(), self.recent_at.len()) {
            (Some(&first), len) if len >= 2 => {
                let span_ms = now_ms.saturating_sub(first).max(1);
                len as f64 / (span_ms as f64 / 1000.0)
            }
            _ => 0.0,
        };

        let report = ProgressReport {
            target,
            overall,
            columns,
            spent,
            budget: backend.config().budget,
            cost_per_fill,
            cost_to_target: None,
            eta_secs_to_target: None,
            fills_per_sec,
        };
        let expected = report.expected_fills_to_target();
        ProgressReport {
            cost_to_target: match (expected, cost_per_fill) {
                (Some(obs), Some(cpf)) => Some(obs * cpf),
                _ => None,
            },
            eta_secs_to_target: match expected {
                Some(obs) if fills_per_sec > 0.0 => Some(obs / fills_per_sec),
                _ => None,
            },
            ..report
        }
    }
}

/// What to do when a [`StoppingPolicy`] triggers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopAction {
    /// Close the collection (journal the closed marker; further
    /// submissions are rejected).
    Close,
    /// Keep collecting but recommend a new per-assignment reward.
    Reprice,
    /// Log a warning only.
    Alert,
}

impl StopAction {
    pub fn name(&self) -> &'static str {
        match self {
            StopAction::Close => "close",
            StopAction::Reprice => "reprice",
            StopAction::Alert => "alert",
        }
    }
}

/// Adaptive stopping: evaluated by the progress tick against each
/// fresh [`ProgressReport`] (module docs for the trigger semantics).
#[derive(Debug, Clone, PartialEq)]
pub struct StoppingPolicy {
    /// Completeness target; triggers on the conservative
    /// [`completeness_lo`](ProgressReport::completeness_lo).
    pub target: f64,
    /// Ceiling on the marginal cost of the next novel value
    /// (`cost_per_fill / marginal_new_rate`); `None` disables the
    /// diminishing-returns trigger.
    pub max_marginal_cost: Option<f64>,
    /// Minimum fill observations before the policy may trigger, so a
    /// cold stream cannot stop the collection on noise.
    pub min_observations: u64,
    pub action: StopAction,
}

impl StoppingPolicy {
    /// Close at `target` completeness (conservative), no cost ceiling.
    pub fn close_at(target: f64) -> StoppingPolicy {
        StoppingPolicy {
            target,
            max_marginal_cost: None,
            min_observations: 30,
            action: StopAction::Close,
        }
    }

    /// Evaluates against a report; `Some` when the policy triggers.
    pub fn evaluate(&self, report: &ProgressReport) -> Option<StopDecision> {
        // The report does not carry raw n; the observed-species count is
        // the conservative stand-in (n >= observed always).
        if report.overall.observed == 0 || self.min_observations > report.overall.observed {
            return None;
        }
        let completeness_lo = report.completeness_lo();
        let marginal_cost = match report.cost_per_fill {
            Some(cpf) if report.overall.marginal_new_rate > 0.0 => {
                Some(cpf / report.overall.marginal_new_rate)
            }
            // A recent window with zero novelty: the next novel value
            // has no finite observed price.
            Some(_) => None,
            None => return None,
        };
        if completeness_lo >= self.target {
            return Some(StopDecision {
                action: self.action,
                reason: format!(
                    "target-reached: conservative completeness {:.3} >= {:.3}",
                    completeness_lo, self.target
                ),
                completeness_lo,
                marginal_cost,
            });
        }
        if let Some(max) = self.max_marginal_cost {
            let over = match marginal_cost {
                Some(mc) => mc > max,
                // No finite price and the window is saturated: over.
                None => true,
            };
            if over {
                return Some(StopDecision {
                    action: self.action,
                    reason: match marginal_cost {
                        Some(mc) => {
                            format!("marginal-cost: ${mc:.4} per novel value > ${max:.4} ceiling")
                        }
                        None => format!(
                            "marginal-cost: no novelty in the recent window (ceiling ${max:.4})"
                        ),
                    },
                    completeness_lo,
                    marginal_cost,
                });
            }
        }
        None
    }

    /// A reward multiplier to recommend when the [`Reprice`]
    /// (StopAction::Reprice) trigger fires: scales the reward toward the
    /// value of expected novelty (`max_marginal_cost / marginal_cost`),
    /// clamped to `[0.25, 1.0]` — saturated streams only ever price
    /// *down*; attracting more of the same answers is waste.
    pub fn reprice_factor(&self, decision: &StopDecision) -> f64 {
        let Some(max) = self.max_marginal_cost else {
            return 1.0;
        };
        match decision.marginal_cost {
            Some(mc) if mc > 0.0 => (max / mc).clamp(0.25, 1.0),
            _ => 0.25,
        }
    }
}

/// Why (and how) a stopping policy fired.
#[derive(Debug, Clone, PartialEq)]
pub struct StopDecision {
    pub action: StopAction,
    pub reason: String,
    /// Conservative completeness at decision time.
    pub completeness_lo: f64,
    /// Observed marginal cost per novel value, when finite.
    pub marginal_cost: Option<f64>,
}

pub(crate) fn opt_num(v: Option<f64>) -> Json {
    match v {
        Some(v) => Json::num(v),
        None => Json::Null,
    }
}

fn estimate_to_json(e: &ProgressEstimate) -> Json {
    Json::obj([
        ("observed", Json::num(e.observed as f64)),
        ("est_total", Json::num(e.est_total)),
        ("completeness", Json::num(e.completeness)),
        ("ci_lo", Json::num(e.ci_lo)),
        ("ci_hi", Json::num(e.ci_hi)),
        ("marginal_new_rate", Json::num(e.marginal_new_rate)),
    ])
}

fn estimate_from_json(j: &Json) -> Option<ProgressEstimate> {
    Some(ProgressEstimate {
        observed: j.get("observed")?.as_f64()? as u64,
        est_total: j.get("est_total")?.as_f64()?,
        completeness: j.get("completeness")?.as_f64()?,
        ci_lo: j.get("ci_lo")?.as_f64()?,
        ci_hi: j.get("ci_hi")?.as_f64()?,
        marginal_new_rate: j.get("marginal_new_rate")?.as_f64()?,
    })
}

impl ProgressReport {
    /// The report as JSON (embedded in the health reply's `progress`).
    pub fn to_json(&self) -> Json {
        let columns: Vec<Json> = self
            .columns
            .iter()
            .map(|c| {
                Json::obj([
                    ("name", Json::str(c.name.clone())),
                    ("estimate", estimate_to_json(&c.estimate)),
                ])
            })
            .collect();
        Json::obj([
            ("target", Json::num(self.target)),
            ("overall", estimate_to_json(&self.overall)),
            ("columns", Json::Arr(columns)),
            ("spent", Json::num(self.spent)),
            ("budget", Json::num(self.budget)),
            ("cost_per_fill", opt_num(self.cost_per_fill)),
            ("cost_to_target", opt_num(self.cost_to_target)),
            ("eta_secs_to_target", opt_num(self.eta_secs_to_target)),
            ("fills_per_sec", Json::num(self.fills_per_sec)),
        ])
    }

    /// Parses a report back from its JSON form.
    pub fn from_json(json: &Json) -> Option<ProgressReport> {
        let columns = json
            .get("columns")?
            .as_arr()?
            .iter()
            .map(|j| {
                Some(ColumnProgress {
                    name: j.get("name")?.as_str()?.to_string(),
                    estimate: estimate_from_json(j.get("estimate")?)?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(ProgressReport {
            target: json.get("target")?.as_f64()?,
            overall: estimate_from_json(json.get("overall")?)?,
            columns,
            spent: json.get("spent")?.as_f64()?,
            budget: json.get("budget")?.as_f64()?,
            cost_per_fill: json.get("cost_per_fill").and_then(Json::as_f64),
            cost_to_target: json.get("cost_to_target").and_then(Json::as_f64),
            eta_secs_to_target: json.get("eta_secs_to_target").and_then(Json::as_f64),
            fills_per_sec: json.get("fills_per_sec")?.as_f64()?,
        })
    }

    /// The burn-down pane: a compact text rendering appended to the
    /// health report's render (and shown by `crowdfill top`).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let o = &self.overall;
        let _ = writeln!(
            out,
            "  progress: {:.0}% of ~{:.0} values (CI {:.0}-{:.0}), target {:.0}%, marginal new {:.2}",
            o.completeness * 100.0,
            o.est_total,
            o.ci_lo,
            o.ci_hi,
            self.target * 100.0,
            o.marginal_new_rate,
        );
        let cost = match self.cost_to_target {
            Some(c) => format!("${c:.2}"),
            None => "-".to_string(),
        };
        let eta = match self.eta_secs_to_target {
            Some(s) => format!("{s:.0}s"),
            None => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "    spent ${:.2} of ${:.2}, cost to target {}, eta {}, {:.2} fills/s",
            self.spent, self.budget, cost, eta, self.fills_per_sec,
        );
        for c in &self.columns {
            let e = &c.estimate;
            let _ = writeln!(
                out,
                "    {:<14} {:>3.0}% of ~{:.0} ({} seen)",
                c.name,
                e.completeness * 100.0,
                e.est_total,
                e.observed,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TaskConfig;
    use crate::WorkerClient;
    use crowdfill_model::{
        Column, ColumnId, DataType, QuorumMajority, RowId, Schema, Template, Value,
    };
    use crowdfill_pay::{Millis, WorkerId};
    use std::sync::Arc;

    fn config(rows: usize) -> TaskConfig {
        let schema = Schema::new(
            "progress-test",
            vec![
                Column::new("a", DataType::Text),
                Column::new("b", DataType::Text),
            ],
            &["a"],
        )
        .expect("schema");
        TaskConfig::new(
            Arc::new(schema),
            Arc::new(QuorumMajority::of_three()),
            Template::cardinality(rows),
            rows as f64,
        )
    }

    fn join(backend: &mut Backend, at: u64) -> (WorkerId, WorkerClient) {
        let (w, client, history) = backend.connect(Millis(at));
        let schema = Arc::clone(&backend.config().schema);
        (w, WorkerClient::new(w, client, schema, &history))
    }

    fn fill(
        backend: &mut Backend,
        w: WorkerId,
        wc: &mut WorkerClient,
        row: RowId,
        col: u16,
        text: &str,
        at: u64,
    ) -> RowId {
        let out = wc
            .fill(row, ColumnId(col), Value::text(text))
            .expect("fill");
        let new_row = out[0].msg.creates_row().expect("replace");
        for o in out {
            backend
                .submit(w, o.msg, Millis(at), o.auto_upvote)
                .expect("submit");
        }
        new_row
    }

    #[test]
    fn tracker_counts_cells_once_per_lineage() {
        let mut backend = Backend::new(config(4));
        let (w, mut wc) = join(&mut backend, 0);
        let template: Vec<RowId> = wc.replica().table().row_ids().collect();
        // Two fills on distinct cells of one row: two species. The
        // second fill replaces the first's output row — same lineage —
        // and completes the row, so the client auto-upvotes it: the vote
        // re-observes both cells (4 observations, still 2 species).
        let r = fill(&mut backend, w, &mut wc, template[0], 0, "x", 100);
        fill(&mut backend, w, &mut wc, r, 1, "y", 200);
        let mut tracker = ProgressTracker::new();
        assert_eq!(tracker.advance(&backend), backend.trace().len());
        assert_eq!(tracker.overall.observations(), 4);
        let est = tracker.overall();
        assert_eq!(est.observed, 2);
        // Re-advancing without new ops consumes nothing.
        assert_eq!(tracker.advance(&backend), 0);
        // Per-column estimators saw one species each.
        let report = tracker.report(&backend, DEFAULT_TARGET);
        assert_eq!(report.columns.len(), 2);
        assert_eq!(report.columns[0].estimate.observed, 1);
        assert_eq!(report.columns[1].estimate.observed, 1);
    }

    #[test]
    fn saturated_collection_reports_near_complete_and_cheap_finish() {
        let rows = 3;
        let mut backend = Backend::new(config(rows));
        let (w1, mut wc1) = join(&mut backend, 0);
        let template: Vec<RowId> = wc1.replica().table().row_ids().collect();
        // w1 fills every cell.
        let mut frontier: Vec<RowId> = template.clone();
        for (i, row) in template.iter().take(rows).enumerate() {
            let r = fill(&mut backend, w1, &mut wc1, *row, 0, &format!("k{i}"), 100);
            frontier[i] = fill(&mut backend, w1, &mut wc1, r, 1, &format!("v{i}"), 150);
        }
        // w2, from a stale replica holding the same template, re-fills
        // the same cells: duplicate coverage via shared lineage roots.
        let (w2, mut wc2) = join(&mut backend, 200);
        for _ in 0..3 {
            for (seq, msg) in backend.poll_seq(w2) {
                let _ = seq;
                wc2.absorb(&msg);
            }
            let ids: Vec<RowId> = wc2.replica().table().row_ids().collect();
            for id in ids {
                let Some(e) = wc2.replica().table().get(id) else {
                    continue;
                };
                if e.value.has(ColumnId(1)) {
                    continue;
                }
                if e.value.has(ColumnId(0)) {
                    let text = format!("dup{}", id.seq);
                    let _ = wc2.fill(id, ColumnId(1), Value::text(&text)).map(|out| {
                        for o in out {
                            let _ = backend.submit(w2, o.msg, Millis(300), o.auto_upvote);
                        }
                    });
                }
            }
        }
        backend.set_time(Millis(1_000));
        let mut tracker = ProgressTracker::new();
        tracker.advance(&backend);
        let report = tracker.report(&backend, DEFAULT_TARGET);
        assert!(
            report.overall.observed >= (rows * 2) as u64 - 1,
            "{report:?}"
        );
        assert!(report.spent > 0.0);
        assert!(report.cost_per_fill.is_some());
        // JSON round-trips exactly, and the render mentions the pane.
        let back = ProgressReport::from_json(&report.to_json()).expect("parse");
        assert_eq!(back, report);
        assert!(report.render().contains("progress:"), "{}", report.render());
    }

    #[test]
    fn expected_draws_is_coupon_collector() {
        // 100-species pool, 50 seen, target 90%: S·ln(50/10).
        let e = expected_draws(50.0, 100.0, 0.9).expect("draws");
        assert!((e - 100.0 * (5.0f64).ln()).abs() < 1e-9);
        // Already past target.
        assert_eq!(expected_draws(95.0, 100.0, 0.9), None);
        // Degenerate pools.
        assert_eq!(expected_draws(0.0, 0.0, 0.9), None);
    }

    #[test]
    fn policy_triggers_and_reprices() {
        let mk_report =
            |observed: u64, ci_hi: f64, marginal: f64, cpf: Option<f64>| ProgressReport {
                target: 0.9,
                overall: ProgressEstimate {
                    observed,
                    est_total: ci_hi,
                    completeness: observed as f64 / ci_hi,
                    ci_lo: observed as f64,
                    ci_hi,
                    marginal_new_rate: marginal,
                },
                columns: Vec::new(),
                spent: 5.0,
                budget: 10.0,
                cost_per_fill: cpf,
                cost_to_target: None,
                eta_secs_to_target: None,
                fills_per_sec: 1.0,
            };
        let policy = StoppingPolicy {
            target: 0.9,
            max_marginal_cost: Some(0.5),
            min_observations: 30,
            action: StopAction::Close,
        };
        // Below min_observations: never triggers.
        assert_eq!(policy.evaluate(&mk_report(10, 10.5, 0.0, Some(0.1))), None);
        // At target (conservative): triggers with the close action.
        let d = policy
            .evaluate(&mk_report(95, 100.0, 0.2, Some(0.05)))
            .expect("triggered");
        assert_eq!(d.action, StopAction::Close);
        assert!(d.reason.contains("target-reached"), "{}", d.reason);
        // Far from target but each novel value costs $1 > $0.50 ceiling.
        let d = policy
            .evaluate(&mk_report(50, 100.0, 0.1, Some(0.1)))
            .expect("triggered");
        assert!(d.reason.contains("marginal-cost"), "{}", d.reason);
        assert!((d.marginal_cost.expect("finite") - 1.0).abs() < 1e-9);
        // Reprice factor scales the reward toward the ceiling.
        let f = policy.reprice_factor(&d);
        assert!((f - 0.5).abs() < 1e-9, "{f}");
        // Healthy mid-collection stream: no trigger.
        assert_eq!(policy.evaluate(&mk_report(50, 100.0, 0.9, Some(0.1))), None);
    }
}
