//! Crowd-semantic health telemetry (DESIGN.md §11).
//!
//! Point-in-time metrics say how the *process* is doing; this module
//! says how the *collection* is doing: how full the table is and how
//! fast it is filling, whether workers agree with each other, whether a
//! worker's replica is lagging the broadcast history, and whether the
//! declared SLOs are burning their error budget. [`report`] builds a
//! [`HealthReport`] under the caller's lock from the [`Backend`] and the
//! collection's [`ProgressTracker`] — the one fold of its op log, which
//! the caller advanced first (O(new ops)). What the report still pays
//! per call is the live-table section, O(table), and the judgement of
//! past votes against today's tallies, O(votes). It writes nothing.
//! [`collect`] is the same over a fresh fold (the simulator, the tests).
//!
//! Definitions (also in DESIGN.md §11):
//!
//! * **completeness** — filled cells / (rows × schema width) over the
//!   candidate table.
//! * **saturation** — of the fills that arrived in the report window,
//!   the fraction that did *not* cover a (row-lineage, column) cell for
//!   the first time. As a collection saturates, arrivals increasingly
//!   duplicate existing coverage (the arrival-curve intuition of
//!   Trushkowsky et al.), so this climbs toward 1.
//! * **pairwise agreement** (per column) — the probability that two
//!   vote-weighted proposals drawn from the same primary-key group
//!   carry the same value (Simpson index), averaged over groups by
//!   weight. 1.0 means no competing values anywhere.
//! * **vote entropy** (per column) — the mean binary entropy of each
//!   row's up/down vote split, weighted by vote count, over rows that
//!   fill the column. 0 means unanimous votes.
//! * **worker agreement** — the fraction of a worker's deliberate votes
//!   that side with the current vote majority on the row they voted on.
//! * **replica lag** — broadcast history length minus the highest
//!   prefix the worker's replica is known to have absorbed (set at
//!   connect/resume/sync). The messages still owed to its connection
//!   are a separate field, `outbox_depth`.
//!
//! The wire surface is `{"type":"health"}` → a JSON rendering of the
//! report, served by the collection's owner shard (`tcp_service`);
//! `crowdfill top` renders it as a refreshing table and `crowdfill
//! simulate` prints one as the run's epitaph.

use std::collections::HashMap;

use crowdfill_docstore::Json;
use crowdfill_model::{RowValue, Value};
use crowdfill_obs::timeseries::SloStatus;
use crowdfill_pay::WorkerId;

use crate::backend::Backend;
use crate::progress::{opt_num, ProgressReport, ProgressTracker, DEFAULT_TARGET, WINDOW_MS};

/// Health of one schema column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnHealth {
    pub name: String,
    /// Rows currently filling this column.
    pub filled: usize,
    /// Weighted pairwise agreement across key groups, in `[0, 1]`.
    pub agreement: f64,
    /// Weighted mean binary entropy of vote splits, in `[0, 1]`.
    pub vote_entropy: f64,
}

/// Health of the collection's candidate table.
#[derive(Debug, Clone, PartialEq)]
pub struct CollectionHealth {
    pub name: String,
    pub rows: usize,
    pub complete_rows: usize,
    pub cells: usize,
    pub filled_cells: usize,
    /// `filled_cells / cells` (0 when the table has no cells).
    pub completeness: f64,
    /// Fill arrivals in the window, per minute.
    pub fills_per_min: f64,
    /// Fraction of windowed fills that were redundant coverage; `None`
    /// when no fills arrived in the window.
    pub saturation: Option<f64>,
    /// Empty cells over the windowed novel-coverage rate; `None` when
    /// nothing novel arrived in the window.
    pub est_secs_to_full: Option<f64>,
    pub fulfilled: bool,
    pub columns: Vec<ColumnHealth>,
}

/// Health of one worker session.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerHealth {
    pub worker: u32,
    pub connected: bool,
    /// Deliberate operations accepted, lifetime.
    pub ops: u64,
    /// Deliberate operations in the window, per minute.
    pub ops_per_min: f64,
    pub ack_p50_ns: Option<u64>,
    pub ack_p99_ns: Option<u64>,
    /// Fraction of this worker's votes siding with the current majority;
    /// `None` until it has cast a judgeable vote.
    pub agreement: Option<f64>,
    /// Replica lag: history length minus the confirmed-absorbed prefix.
    pub lag: u64,
    /// Broadcast messages still queued server-side for this worker.
    pub outbox_depth: usize,
}

/// Durability posture (DESIGN.md §14): how much journal a crash would
/// replay and how stale the newest checkpoint is. Absent when the
/// backend runs without attached storage.
#[derive(Debug, Clone, PartialEq)]
pub struct DurabilityHealth {
    /// Bytes in the journal (replayed on recovery, on top of a snapshot).
    pub wal_bytes: u64,
    /// Compaction horizon: history below this seq exists only as the
    /// snapshot image.
    pub history_base: u64,
    /// Messages retained above the horizon (served exactly on resume).
    pub retained_msgs: u64,
    /// Milliseconds of accepted history since the last checkpoint this
    /// process wrote; `None` before the first.
    pub snapshot_age_ms: Option<u64>,
}

/// One SLO's evaluation, as carried in the report.
#[derive(Debug, Clone, PartialEq)]
pub struct SloHealth {
    pub name: String,
    pub ok: bool,
    pub value: f64,
    pub threshold: f64,
    pub burn_rate: f64,
}

impl From<SloStatus> for SloHealth {
    fn from(s: SloStatus) -> SloHealth {
        SloHealth {
            name: s.name,
            ok: s.ok,
            value: s.value,
            threshold: s.threshold,
            burn_rate: s.burn_rate,
        }
    }
}

/// A complete point-in-time health report.
#[derive(Debug, Clone, PartialEq)]
pub struct HealthReport {
    /// Server clock at collection time (ms).
    pub at_ms: u64,
    /// Broadcast history length at collection time.
    pub history_len: u64,
    /// Look-back window the rates/saturation/agreement cover (ms).
    pub window_ms: u64,
    pub collection: CollectionHealth,
    pub workers: Vec<WorkerHealth>,
    /// Durability posture; `None` for an in-memory backend.
    pub durability: Option<DurabilityHealth>,
    /// Predictive progress (DESIGN.md §15): completeness estimate,
    /// cost-to-target, ETA. Populated by [`report`]; `None` only in
    /// reports parsed from pre-§15 senders.
    pub progress: Option<ProgressReport>,
    /// Empty unless the caller layers SLO statuses in (the TCP service
    /// evaluates its specs over the reading ring, and the progress
    /// objectives over `progress`, and attaches them).
    pub slos: Vec<SloHealth>,
}

/// A report over a fresh fold of the whole log, progress toward
/// [`DEFAULT_TARGET`]. SLOs are left empty — they live in the transport
/// layer, which owns the reading ring.
pub fn collect(backend: &Backend) -> HealthReport {
    let mut fold = ProgressTracker::new();
    fold.advance(backend);
    report(backend, &fold, DEFAULT_TARGET)
}

/// The report of `backend` as of now, its log read through `fold` —
/// which the caller has advanced over it — and its progress forecast
/// toward `target`. SLOs are left empty.
pub fn report(backend: &Backend, fold: &ProgressTracker, target: f64) -> HealthReport {
    let schema = &backend.config().schema;
    let table = backend.master().table();
    let now_ms = backend.now().0;
    let history_len = backend.history_len();

    let rows = table.len();
    let width = schema.width();
    let cells = rows * width;
    let filled_cells: usize = table.iter().map(|(_, e)| e.value.len()).sum();
    let completeness = if cells > 0 {
        filled_cells as f64 / cells as f64
    } else {
        0.0
    };

    // Key groups: competing proposals share a primary-key projection.
    let mut groups: HashMap<RowValue, Vec<(&RowValue, u32, u32)>> = HashMap::new();
    for (_, e) in table.iter() {
        if let Some(key) = e.value.key_projection(schema) {
            groups
                .entry(key)
                .or_default()
                .push((&e.value, e.upvotes, e.downvotes));
        }
    }

    let mut columns = Vec::with_capacity(width);
    for (col, column) in schema.iter() {
        let filled = table.iter().filter(|(_, e)| e.value.has(col)).count();

        // Pairwise agreement: Simpson index of the vote-weighted value
        // distribution inside each key group, averaged over groups by
        // total weight. Groups that fill the column with one value only
        // contribute 1.0.
        let mut weighted_agreement = 0.0;
        let mut total_weight = 0.0;
        for proposals in groups.values() {
            let mut dist: HashMap<&Value, f64> = HashMap::new();
            for (value, upvotes, _) in proposals {
                if let Some(v) = value.get(col) {
                    *dist.entry(v).or_insert(0.0) += 1.0 + *upvotes as f64;
                }
            }
            let group_weight: f64 = dist.values().sum();
            if group_weight > 0.0 {
                let simpson: f64 = dist
                    .values()
                    .map(|w| (w / group_weight) * (w / group_weight))
                    .sum();
                weighted_agreement += simpson * group_weight;
                total_weight += group_weight;
            }
        }
        let agreement = if total_weight > 0.0 {
            weighted_agreement / total_weight
        } else {
            1.0
        };

        // Vote entropy: binary entropy of each filled row's up/down
        // split, weighted by its vote count.
        let mut weighted_entropy = 0.0;
        let mut vote_weight = 0.0;
        for (_, e) in table.iter() {
            let votes = e.upvotes + e.downvotes;
            if votes == 0 || !e.value.has(col) {
                continue;
            }
            let p = e.upvotes as f64 / votes as f64;
            let h = binary_entropy(p);
            weighted_entropy += h * votes as f64;
            vote_weight += votes as f64;
        }
        let vote_entropy = if vote_weight > 0.0 {
            weighted_entropy / vote_weight
        } else {
            0.0
        };

        columns.push(ColumnHealth {
            name: column.name().to_string(),
            filled,
            agreement,
            vote_entropy,
        });
    }

    // ---- the fold's window: arrival rates, saturation, worker activity ----
    // A fill's cell is (lineage root, column): competing fills of the same
    // cell share the root even though they fork distinct row ids.
    let span_ms = WINDOW_MS.min(now_ms);
    let arrivals = fold.arrivals(now_ms);
    let mins = span_ms as f64 / 60_000.0;
    let per_min = |n: u64| if span_ms > 0 { n as f64 / mins } else { 0.0 };
    let fills_per_min = per_min(arrivals.fills);
    let saturation =
        (arrivals.fills > 0).then(|| 1.0 - arrivals.novel as f64 / arrivals.fills as f64);
    let est_secs_to_full = (arrivals.novel > 0 && span_ms > 0).then(|| {
        let novel_per_sec = arrivals.novel as f64 / (span_ms as f64 / 1000.0);
        (cells - filled_cells) as f64 / novel_per_sec
    });

    // Majority direction per row value (summed over rows sharing the
    // value, matching how upvotes apply — by equality).
    let mut tallies: HashMap<&RowValue, (u32, u32)> = HashMap::new();
    for (_, e) in table.iter() {
        let t = tallies.entry(&e.value).or_insert((0, 0));
        t.0 += e.upvotes;
        t.1 += e.downvotes;
    }
    let mut judged: HashMap<WorkerId, (u64, u64)> = HashMap::new();
    for (worker, was_upvote, value) in fold.votes(backend) {
        let tally = if was_upvote {
            tallies.get(value).copied()
        } else {
            // Downvotes apply by subsumption: judge against the combined
            // votes of every row the downvote hit.
            let mut acc: Option<(u32, u32)> = None;
            for (_, e) in table.iter() {
                if e.value.subsumes(value) {
                    let t = acc.get_or_insert((0, 0));
                    t.0 += e.upvotes;
                    t.1 += e.downvotes;
                }
            }
            acc
        };
        // Rows replaced since the vote are unjudgeable; skip them.
        let Some((up, down)) = tally else {
            continue;
        };
        let majority_up = up >= down;
        let agreed = was_upvote == majority_up;
        let j = judged.entry(worker).or_insert((0, 0));
        j.0 += 1;
        j.1 += agreed as u64;
    }

    let workers = backend
        .session_stats()
        .into_iter()
        .map(|s| {
            let (total, agreed) = judged.get(&s.worker).copied().unwrap_or((0, 0));
            let in_window = arrivals.ops.get(&s.worker).copied().unwrap_or(0);
            WorkerHealth {
                worker: s.worker.0,
                connected: s.connected,
                ops: s.ops,
                ops_per_min: per_min(in_window),
                ack_p50_ns: s.ack_latency.quantile(0.5),
                ack_p99_ns: s.ack_latency.quantile(0.99),
                agreement: (total > 0).then(|| agreed as f64 / total as f64),
                lag: history_len.saturating_sub(s.confirmed_seq),
                outbox_depth: s.outbox_depth,
            }
        })
        .collect();

    let durability = backend.has_snapshots().then(|| DurabilityHealth {
        wal_bytes: backend.wal_bytes(),
        history_base: backend.history_base(),
        retained_msgs: history_len - backend.history_base(),
        snapshot_age_ms: backend.snapshot_age_ms(),
    });

    HealthReport {
        at_ms: now_ms,
        history_len,
        window_ms: WINDOW_MS,
        collection: CollectionHealth {
            name: schema.name().to_string(),
            rows,
            complete_rows: table.complete_count(schema),
            cells,
            filled_cells,
            completeness,
            fills_per_min,
            saturation,
            est_secs_to_full,
            fulfilled: backend.is_fulfilled(),
            columns,
        },
        workers,
        durability,
        progress: Some(fold.report(backend, target)),
        slos: Vec::new(),
    }
}

fn binary_entropy(p: f64) -> f64 {
    let mut h = 0.0;
    for q in [p, 1.0 - p] {
        if q > 0.0 {
            h -= q * q.log2();
        }
    }
    h
}

impl HealthReport {
    /// The report as JSON (schema in DESIGN.md §11).
    pub fn to_json(&self) -> Json {
        let columns: Vec<Json> = self
            .collection
            .columns
            .iter()
            .map(|c| {
                Json::obj([
                    ("name", Json::str(c.name.clone())),
                    ("filled", Json::num(c.filled as f64)),
                    ("agreement", Json::num(c.agreement)),
                    ("vote_entropy", Json::num(c.vote_entropy)),
                ])
            })
            .collect();
        let workers: Vec<Json> = self
            .workers
            .iter()
            .map(|w| {
                Json::obj([
                    ("worker", Json::num(w.worker as f64)),
                    ("connected", Json::Bool(w.connected)),
                    ("ops", Json::num(w.ops as f64)),
                    ("ops_per_min", Json::num(w.ops_per_min)),
                    ("ack_p50_ns", opt_num(w.ack_p50_ns.map(|v| v as f64))),
                    ("ack_p99_ns", opt_num(w.ack_p99_ns.map(|v| v as f64))),
                    ("agreement", opt_num(w.agreement)),
                    ("lag", Json::num(w.lag as f64)),
                    ("outbox_depth", Json::num(w.outbox_depth as f64)),
                ])
            })
            .collect();
        let slos: Vec<Json> = self
            .slos
            .iter()
            .map(|s| {
                Json::obj([
                    ("name", Json::str(s.name.clone())),
                    ("ok", Json::Bool(s.ok)),
                    ("value", Json::num(s.value)),
                    ("threshold", Json::num(s.threshold)),
                    ("burn_rate", Json::num(s.burn_rate)),
                ])
            })
            .collect();
        Json::obj([
            ("at_ms", Json::num(self.at_ms as f64)),
            ("history_len", Json::num(self.history_len as f64)),
            ("window_ms", Json::num(self.window_ms as f64)),
            (
                "collection",
                Json::obj([
                    ("name", Json::str(self.collection.name.clone())),
                    ("rows", Json::num(self.collection.rows as f64)),
                    (
                        "complete_rows",
                        Json::num(self.collection.complete_rows as f64),
                    ),
                    ("cells", Json::num(self.collection.cells as f64)),
                    (
                        "filled_cells",
                        Json::num(self.collection.filled_cells as f64),
                    ),
                    ("completeness", Json::num(self.collection.completeness)),
                    ("fills_per_min", Json::num(self.collection.fills_per_min)),
                    ("saturation", opt_num(self.collection.saturation)),
                    (
                        "est_secs_to_full",
                        opt_num(self.collection.est_secs_to_full),
                    ),
                    ("fulfilled", Json::Bool(self.collection.fulfilled)),
                    ("columns", Json::Arr(columns)),
                ]),
            ),
            ("workers", Json::Arr(workers)),
            (
                "durability",
                match &self.durability {
                    Some(d) => Json::obj([
                        ("wal_bytes", Json::num(d.wal_bytes as f64)),
                        ("history_base", Json::num(d.history_base as f64)),
                        ("retained_msgs", Json::num(d.retained_msgs as f64)),
                        (
                            "snapshot_age_ms",
                            opt_num(d.snapshot_age_ms.map(|v| v as f64)),
                        ),
                    ]),
                    None => Json::Null,
                },
            ),
            (
                "progress",
                match &self.progress {
                    Some(p) => p.to_json(),
                    None => Json::Null,
                },
            ),
            ("slos", Json::Arr(slos)),
        ])
    }

    /// Parses a report back from its JSON form (the `health` reply).
    pub fn from_json(json: &Json) -> Option<HealthReport> {
        let c = json.get("collection")?;
        let columns = c
            .get("columns")?
            .as_arr()?
            .iter()
            .map(|j| {
                Some(ColumnHealth {
                    name: j.get("name")?.as_str()?.to_string(),
                    filled: j.get("filled")?.as_f64()? as usize,
                    agreement: j.get("agreement")?.as_f64()?,
                    vote_entropy: j.get("vote_entropy")?.as_f64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let workers = json
            .get("workers")?
            .as_arr()?
            .iter()
            .map(|j| {
                Some(WorkerHealth {
                    worker: j.get("worker")?.as_f64()? as u32,
                    connected: j.get("connected")?.as_bool()?,
                    ops: j.get("ops")?.as_f64()? as u64,
                    ops_per_min: j.get("ops_per_min")?.as_f64()?,
                    ack_p50_ns: j.get("ack_p50_ns").and_then(Json::as_f64).map(|v| v as u64),
                    ack_p99_ns: j.get("ack_p99_ns").and_then(Json::as_f64).map(|v| v as u64),
                    agreement: j.get("agreement").and_then(Json::as_f64),
                    lag: j.get("lag")?.as_f64()? as u64,
                    outbox_depth: j.get("outbox_depth")?.as_f64()? as usize,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let slos = json
            .get("slos")?
            .as_arr()?
            .iter()
            .map(|j| {
                Some(SloHealth {
                    name: j.get("name")?.as_str()?.to_string(),
                    ok: j.get("ok")?.as_bool()?,
                    value: j.get("value")?.as_f64()?,
                    threshold: j.get("threshold")?.as_f64()?,
                    burn_rate: j.get("burn_rate")?.as_f64()?,
                })
            })
            .collect::<Option<Vec<_>>>()?;
        let durability = match json.get("durability") {
            Some(d) if !matches!(d, Json::Null) => Some(DurabilityHealth {
                wal_bytes: d.get("wal_bytes")?.as_f64()? as u64,
                history_base: d.get("history_base")?.as_f64()? as u64,
                retained_msgs: d.get("retained_msgs")?.as_f64()? as u64,
                snapshot_age_ms: d
                    .get("snapshot_age_ms")
                    .and_then(Json::as_f64)
                    .map(|v| v as u64),
            }),
            _ => None,
        };
        let progress = match json.get("progress") {
            Some(p) if !matches!(p, Json::Null) => Some(ProgressReport::from_json(p)?),
            _ => None,
        };
        Some(HealthReport {
            at_ms: json.get("at_ms")?.as_f64()? as u64,
            history_len: json.get("history_len")?.as_f64()? as u64,
            window_ms: json.get("window_ms")?.as_f64()? as u64,
            collection: CollectionHealth {
                name: c.get("name")?.as_str()?.to_string(),
                rows: c.get("rows")?.as_f64()? as usize,
                complete_rows: c.get("complete_rows")?.as_f64()? as usize,
                cells: c.get("cells")?.as_f64()? as usize,
                filled_cells: c.get("filled_cells")?.as_f64()? as usize,
                completeness: c.get("completeness")?.as_f64()?,
                fills_per_min: c.get("fills_per_min")?.as_f64()?,
                saturation: c.get("saturation").and_then(Json::as_f64),
                est_secs_to_full: c.get("est_secs_to_full").and_then(Json::as_f64),
                fulfilled: c.get("fulfilled")?.as_bool()?,
                columns,
            },
            workers,
            durability,
            progress,
            slos,
        })
    }

    /// A compact fixed-width text rendering (used by `crowdfill top` and
    /// the simulator's run epitaph).
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let c = &self.collection;
        let _ = writeln!(
            out,
            "collection {:?}: {:.0}% complete ({}/{} cells, {}/{} rows){}",
            c.name,
            c.completeness * 100.0,
            c.filled_cells,
            c.cells,
            c.complete_rows,
            c.rows,
            if c.fulfilled { " — fulfilled" } else { "" },
        );
        let saturation = match c.saturation {
            Some(s) => format!("{:.0}%", s * 100.0),
            None => "-".to_string(),
        };
        let eta = match c.est_secs_to_full {
            Some(s) => format!("{s:.0}s"),
            None => "-".to_string(),
        };
        let _ = writeln!(
            out,
            "  {:.1} fills/min, saturation {}, est to full {}, history {} msgs, window {}s",
            c.fills_per_min,
            saturation,
            eta,
            self.history_len,
            self.window_ms / 1000,
        );
        if let Some(d) = &self.durability {
            let age = match d.snapshot_age_ms {
                Some(ms) => format!("{:.1}s", ms as f64 / 1000.0),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "  durability: journal {} B, base seq {} ({} retained), snapshot age {}",
                d.wal_bytes, d.history_base, d.retained_msgs, age,
            );
        }
        if let Some(p) = &self.progress {
            out.push_str(&p.render());
        }
        let _ = writeln!(
            out,
            "  {:<14} {:>7} {:>10} {:>13}",
            "column", "filled", "agreement", "vote-entropy"
        );
        for col in &c.columns {
            let _ = writeln!(
                out,
                "  {:<14} {:>7} {:>10.2} {:>13.2}",
                col.name, col.filled, col.agreement, col.vote_entropy
            );
        }
        let _ = writeln!(
            out,
            "  {:<8} {:>5} {:>6} {:>8} {:>10} {:>10} {:>6} {:>5} {:>7}",
            "worker", "state", "ops", "ops/min", "ack-p50", "ack-p99", "agree", "lag", "outbox"
        );
        for w in &self.workers {
            let fmt_ns = |v: Option<u64>| match v {
                Some(ns) => format!("{:.1}ms", ns as f64 / 1e6),
                None => "-".to_string(),
            };
            let agree = match w.agreement {
                Some(a) => format!("{:.2}", a),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "  {:<8} {:>5} {:>6} {:>8.1} {:>10} {:>10} {:>6} {:>5} {:>7}",
                format!("w{}", w.worker),
                if w.connected { "up" } else { "down" },
                w.ops,
                w.ops_per_min,
                fmt_ns(w.ack_p50_ns),
                fmt_ns(w.ack_p99_ns),
                agree,
                w.lag,
                w.outbox_depth,
            );
        }
        if !self.slos.is_empty() {
            let _ = writeln!(
                out,
                "  {:<22} {:>12} {:>12} {:>6} {:>7}",
                "slo", "value", "threshold", "burn", "status"
            );
            for s in &self.slos {
                let _ = writeln!(
                    out,
                    "  {:<22} {:>12.2} {:>12.2} {:>6.2} {:>7}",
                    s.name,
                    s.value,
                    s.threshold,
                    s.burn_rate,
                    if s.ok { "ok" } else { "BURNING" },
                );
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TaskConfig;
    use crate::WorkerClient;
    use crowdfill_model::{Column, ColumnId, DataType, QuorumMajority, RowId, Schema, Template};
    use crowdfill_pay::Millis;
    use std::sync::Arc;

    fn config(rows: usize) -> TaskConfig {
        let schema = Schema::new(
            "health-test",
            vec![
                Column::new("a", DataType::Text),
                Column::new("b", DataType::Text),
                Column::new("c", DataType::Text),
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

    /// Fills `col` of `row` through the worker client and submits the
    /// resulting messages; returns the replacing row id.
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

    /// Fill distinct cells and check completeness against the exact
    /// ground truth, plus rates, lag, and JSON/render round-trips.
    #[test]
    fn completeness_matches_ground_truth() {
        let rows = 4;
        let mut backend = Backend::new(config(rows));
        let (w, mut wc) = join(&mut backend, 0);
        let template: Vec<RowId> = wc.replica().table().row_ids().collect();
        for (i, row) in template.iter().take(3).enumerate() {
            fill(
                &mut backend,
                w,
                &mut wc,
                *row,
                0,
                &format!("v{i}"),
                1_000 + i as u64,
            );
        }
        backend.set_time(Millis(5_000));
        let report = collect(&backend);
        let c = &report.collection;
        assert_eq!(c.rows, rows);
        assert_eq!(c.cells, rows * 3);
        assert_eq!(c.filled_cells, 3);
        assert!((c.completeness - 3.0 / (rows * 3) as f64).abs() < 1e-9);
        assert_eq!(c.columns[0].filled, 3);
        assert_eq!(c.columns[1].filled, 0);
        // Three fresh fills, all novel coverage: zero saturation.
        assert_eq!(c.saturation, Some(0.0));
        assert!(c.est_secs_to_full.is_some());
        assert!(c.fills_per_min > 0.0);
        // Untouched columns: perfect agreement, zero entropy.
        assert_eq!(c.columns[1].agreement, 1.0);
        assert_eq!(c.columns[1].vote_entropy, 0.0);
        // One worker, confirmed through the template history at connect,
        // now behind by its own three accepted fills (no sync yet).
        assert_eq!(report.workers.len(), 1);
        let wh = &report.workers[0];
        assert_eq!(wh.ops, 3);
        assert_eq!(wh.lag, 3);
        assert_eq!(wh.agreement, None);
        // JSON round-trips exactly.
        let back = HealthReport::from_json(&report.to_json()).expect("parse");
        assert_eq!(back, report);
        let text = report.render();
        assert!(text.contains("health-test"), "{text}");
        assert!(text.contains("fills/min"), "{text}");
    }

    /// Two workers proposing different values for the same key's cell:
    /// the contested column's agreement drops, the duplicate-coverage
    /// fill shows up as saturation, and a minority downvote lowers the
    /// dissenting worker's majority-agreement score.
    #[test]
    fn disagreement_is_visible() {
        let rows = 3;
        let mut backend = Backend::new(config(rows));
        let (w1, mut wc1) = join(&mut backend, 0);
        let template: Vec<RowId> = wc1.replica().table().row_ids().collect();
        // w1 claims key "x" on one template row and fills b=1. Each fill
        // replaces the row, so chain through the returned ids.
        let t1 = fill(&mut backend, w1, &mut wc1, template[0], 0, "x", 100);
        let t1 = fill(&mut backend, w1, &mut wc1, t1, 1, "1", 200);
        // w2 duplicates the key on another template row and fills b=2:
        // same key group, competing value in column b.
        let (w2, mut wc2) = join(&mut backend, 300);
        let template2: Vec<RowId> = wc2.replica().table().row_ids().collect();
        let free = template2
            .into_iter()
            .find(|r| {
                wc2.replica()
                    .table()
                    .get(*r)
                    .is_some_and(|e| e.value.is_empty())
            })
            .expect("an empty template row");
        let t2 = fill(&mut backend, w2, &mut wc2, free, 0, "x", 400);
        fill(&mut backend, w2, &mut wc2, t2, 1, "2", 500);
        backend.set_time(Millis(1_000));
        let report = collect(&backend);
        let cols = &report.collection.columns;
        // Key column: both proposals say "x" — full agreement. Column b:
        // two equal-weight proposals disagree — Simpson index 0.5.
        assert_eq!(cols[0].agreement, 1.0);
        assert!((cols[1].agreement - 0.5).abs() < 1e-9, "{cols:?}");
        // w2's key fill duplicated coverage of the (key-group, column-a)
        // cell? No — different template roots are different lineages, so
        // all four fills are novel coverage.
        assert_eq!(report.collection.saturation, Some(0.0));

        // w1 completes its row (auto-upvote lands on the full value),
        // then w2 downvotes it: a minority vote against an upvoted row.
        let t1b = fill(&mut backend, w1, &mut wc1, t1, 2, "z", 600);
        for (seq, msg) in backend.poll_seq(w2) {
            let _ = seq;
            wc2.absorb(&msg);
        }
        let target = wc2
            .replica()
            .table()
            .row_ids()
            .find(|r| *r == t1b)
            .expect("completed row visible to w2");
        let out = wc2.downvote(target).expect("downvote");
        backend
            .submit(w2, out.msg, Millis(700), out.auto_upvote)
            .expect("submit");
        let report = collect(&backend);
        let wh2 = report
            .workers
            .iter()
            .find(|w| w.worker == w2.0)
            .expect("w2");
        // The downvoted row holds 1 up + 1 down — a tie, which sides
        // with up — so w2's downvote is a minority vote.
        assert_eq!(wh2.agreement, Some(0.0));
        let col2 = &report.collection.columns[2];
        // One vote pair split 1/1 on rows filling column c: entropy 1.
        assert!(col2.vote_entropy > 0.9, "{col2:?}");
    }
}
