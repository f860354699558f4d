//! Budget allocation (paper §5.2.2–5.2.3).
//!
//! Distributes the user's total budget `B` across the contributing units —
//! worker-entered cells `C`, contributing upvotes `U`, and contributing
//! downvotes `D` — under one of three schemes:
//!
//! * **uniform** — every unit gets `B / (|C|+|U|+|D|)`;
//! * **column-weighted** — units are weighted by the *median* observed time
//!   to produce a contributing message of that kind (per column, and for
//!   up/downvotes), so inherently harder columns pay more;
//! * **dual-weighted** — additionally, primary-key cells get linearly
//!   increasing weights `(1−z_i)·y_i .. (1+z_i)·y_i` in the order their
//!   values first appeared, with `z_i` fitted by least squares to the
//!   observed completion times — new keys get harder to find as the table
//!   fills up.
//!
//! Each cell's amount is then split between its direct and indirect
//! contributors by the splitting factor `h_c` (§5.2.3): 0.25 for key
//! columns (the *first* discovery of a key is worth most), 0.5 elsewhere,
//! user-overridable. Cells with no indirect contributor leave `(1−h_c)·b_c`
//! unspent, so allocation need not exhaust `B`.

use crate::contrib::Contributions;
use crate::ledger::Unit;
use crate::stats::{dual_multiplier, fit_z, median};
use crate::trace::{Millis, WorkerId};
use crowdfill_model::{ColumnId, Schema, Value};
use std::collections::{BTreeMap, HashMap};

/// The three allocation schemes of §5.2.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Scheme {
    Uniform,
    ColumnWeighted,
    DualWeighted,
}

impl Scheme {
    /// All schemes, for sweeps.
    pub const ALL: [Scheme; 3] = [
        Scheme::Uniform,
        Scheme::ColumnWeighted,
        Scheme::DualWeighted,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Scheme::Uniform => "uniform",
            Scheme::ColumnWeighted => "column-weighted",
            Scheme::DualWeighted => "dual-weighted",
        }
    }
}

impl std::fmt::Display for Scheme {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Splitting-factor configuration (§5.2.3). `h_c` is the fraction of a
/// cell's amount paid to the *direct* contributor.
#[derive(Debug, Clone, Default)]
pub struct SplitConfig {
    overrides: HashMap<ColumnId, f64>,
}

impl SplitConfig {
    pub fn new() -> SplitConfig {
        SplitConfig::default()
    }

    /// Overrides `h_c` for one column (clamped to `[0, 1]`).
    pub fn with_override(mut self, col: ColumnId, h: f64) -> SplitConfig {
        self.overrides.insert(col, h.clamp(0.0, 1.0));
        self
    }

    /// The effective `h_c`: override, else 0.25 for key columns and 0.5 for
    /// non-key columns (the paper's defaults).
    pub fn h_for(&self, schema: &Schema, col: ColumnId) -> f64 {
        if let Some(&h) = self.overrides.get(&col) {
            return h;
        }
        if schema.is_key(col) {
            0.25
        } else {
            0.5
        }
    }
}

/// The weights a (column/dual)-weighted allocation derived from the units;
/// reported for transparency and reused by estimation accuracy analyses.
#[derive(Debug, Clone)]
pub struct Weights {
    /// `y_i` per column (schema order). Columns with no contributing cells
    /// keep the fallback weight; they carry zero mass anyway.
    pub per_column: Vec<f64>,
    pub upvote: f64,
    pub downvote: f64,
    /// `z_i` per column; non-zero only for key columns under dual weighting.
    pub z: Vec<f64>,
}

/// What one credited message earned.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Credit {
    pub worker: WorkerId,
    pub at: Millis,
    pub amount: f64,
}

/// The outcome of an allocation run.
#[derive(Debug, Clone)]
pub struct Payout {
    pub scheme: Scheme,
    pub budget: f64,
    /// Each message that earned anything, by history seq. Ordered so
    /// downstream summations are deterministic.
    pub per_message: BTreeMap<u64, Credit>,
    /// Total per worker (sorted map for deterministic reporting).
    pub per_worker: BTreeMap<WorkerId, f64>,
    /// Budget left unallocated (cells lacking an indirect contributor).
    pub unspent: f64,
    /// The weights used (uniform weights are all 1).
    pub weights: Weights,
}

impl Payout {
    /// Total actually paid out.
    pub fn total_paid(&self) -> f64 {
        self.per_worker.values().sum()
    }

    /// A worker's total (0 if absent).
    pub fn worker_total(&self, w: WorkerId) -> f64 {
        self.per_worker.get(&w).copied().unwrap_or(0.0)
    }
}

/// Runs the full §5.2 allocation pipeline.
pub fn allocate(
    scheme: Scheme,
    budget: f64,
    contributions: &Contributions,
    schema: &Schema,
    split: &SplitConfig,
) -> Payout {
    let weights = compute_weights(scheme, contributions, schema);

    // Per-cell dual multipliers (1.0 outside dual weighting / non-key cols).
    let cell_multiplier = compute_dual_multipliers(scheme, contributions, schema, &weights);

    // Y = Σ_j y_j·(Σ multipliers of C_j) + y↑|U| + y↓|D|. With multipliers
    // averaging 1 per column this equals the paper's Σ y_j|C_j| + ... form.
    let mut y_total = 0.0;
    for (ci, cell) in contributions.cells.iter().enumerate() {
        y_total += weights.per_column[cell.cell.column.index()] * cell_multiplier[ci];
    }
    y_total += weights.upvote * contributions.upvotes.len() as f64;
    y_total += weights.downvote * contributions.downvotes.len() as f64;

    let mut per_message: BTreeMap<u64, Credit> = BTreeMap::new();
    let mut credit = |u: &Unit, amount: f64| {
        let zero = Credit {
            worker: u.worker,
            at: u.at,
            amount: 0.0,
        };
        per_message.entry(u.seq).or_insert(zero).amount += amount;
    };
    let mut unspent = 0.0;

    if y_total > 0.0 {
        let unit = budget / y_total;
        // Cells: split between direct and indirect contributors.
        for (ci, cell) in contributions.cells.iter().enumerate() {
            let b_c = weights.per_column[cell.cell.column.index()] * cell_multiplier[ci] * unit;
            let h = split.h_for(schema, cell.cell.column);
            credit(&cell.direct, h * b_c);
            match &cell.indirect {
                Some(u) => credit(u, (1.0 - h) * b_c),
                None => unspent += (1.0 - h) * b_c,
            }
        }
        for u in &contributions.upvotes {
            credit(u, weights.upvote * unit);
        }
        for u in &contributions.downvotes {
            credit(u, weights.downvote * unit);
        }
    } else {
        unspent = budget;
    }

    let mut per_worker: BTreeMap<WorkerId, f64> = BTreeMap::new();
    for c in per_message.values() {
        *per_worker.entry(c.worker).or_insert(0.0) += c.amount;
    }

    Payout {
        scheme,
        budget,
        per_message,
        per_worker,
        unspent,
        weights,
    }
}

/// Derives scheme weights from the units (§5.2.2): medians of the latencies
/// of *contributing* messages, per column and per vote kind. Uniform weights
/// are all 1. Missing samples fall back to the global median latency, then 1.
fn compute_weights(scheme: Scheme, contributions: &Contributions, schema: &Schema) -> Weights {
    let width = schema.width();
    let mut weights = Weights {
        per_column: vec![1.0; width],
        upvote: 1.0,
        downvote: 1.0,
        z: vec![0.0; width],
    };
    if scheme == Scheme::Uniform {
        return weights;
    }

    let sample = |u: &Unit| u.latency.map(Millis::seconds);

    let mut col_samples: Vec<Vec<f64>> = vec![Vec::new(); width];
    for cell in &contributions.cells {
        // Both contributing messages give latency evidence for the column.
        for u in std::iter::once(&cell.direct).chain(&cell.indirect) {
            if let Some(s) = sample(u) {
                col_samples[cell.cell.column.index()].push(s);
            }
        }
    }
    let up_samples: Vec<f64> = contributions.upvotes.iter().filter_map(sample).collect();
    let down_samples: Vec<f64> = contributions.downvotes.iter().filter_map(sample).collect();

    let global: Vec<f64> = col_samples
        .iter()
        .flatten()
        .chain(&up_samples)
        .chain(&down_samples)
        .copied()
        .collect();
    // Floor weights at 1ms: a zero median (all evidence within one clock
    // tick) would otherwise zero out a unit's share of the budget entirely.
    const WEIGHT_FLOOR: f64 = 1e-3;
    let fallback = median(&global).unwrap_or(1.0).max(WEIGHT_FLOOR);

    for (i, samples) in col_samples.iter().enumerate() {
        weights.per_column[i] = median(samples).unwrap_or(fallback).max(WEIGHT_FLOOR);
    }
    weights.upvote = median(&up_samples).unwrap_or(fallback).max(WEIGHT_FLOOR);
    weights.downvote = median(&down_samples).unwrap_or(fallback).max(WEIGHT_FLOOR);

    if scheme == Scheme::DualWeighted {
        for &col in schema.key() {
            let times = key_completion_times(contributions, col);
            weights.z[col.index()] = fit_z(&times);
        }
    }
    weights
}

/// For a key column, the per-rank completion times `t_k`: the gap between
/// the first appearances of the (k−1)-th and k-th *distinct contributing*
/// values in that column (the first value measures from collection start).
fn key_completion_times(contributions: &Contributions, col: ColumnId) -> Vec<f64> {
    let ranked = first_appearance_ranks(contributions, col);
    let mut stamps: Vec<f64> = ranked.values().map(|&(_, at)| at).collect();
    stamps.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    let mut prev = 0.0;
    stamps
        .iter()
        .map(|&t| {
            let dt = t - prev;
            prev = t;
            dt
        })
        .collect()
}

/// First-appearance order of each contributing cell's value within `col`:
/// value → (rank 1-based, first-appearance seconds).
fn first_appearance_ranks(
    contributions: &Contributions,
    col: ColumnId,
) -> HashMap<Value, (usize, f64)> {
    let mut entries: Vec<(Value, f64)> = contributions
        .cells_in_column(col)
        .map(|cell| (cell.value.clone(), cell.first_at.seconds()))
        .collect();
    entries.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite"));
    entries.dedup_by(|a, b| a.0 == b.0);
    entries
        .into_iter()
        .enumerate()
        .map(|(i, (v, t))| (v, (i + 1, t)))
        .collect()
}

/// Per-cell dual multipliers, aligned with `contributions.cells`.
fn compute_dual_multipliers(
    scheme: Scheme,
    contributions: &Contributions,
    schema: &Schema,
    weights: &Weights,
) -> Vec<f64> {
    let mut mult = vec![1.0; contributions.cells.len()];
    if scheme != Scheme::DualWeighted {
        return mult;
    }
    for &col in schema.key() {
        let ranked = first_appearance_ranks(contributions, col);
        let n = ranked.len();
        let z = weights.z[col.index()];
        for (ci, cell) in contributions.cells.iter().enumerate() {
            if cell.cell.column != col {
                continue;
            }
            if let Some(&(k, _)) = ranked.get(&cell.value) {
                mult[ci] = dual_multiplier(k, n, z);
            }
        }
    }
    mult
}

/// A worker's cumulative earning curve under a payout: `(time, cumulative)`
/// points at each of the worker's credited messages, used for the paper's
/// Figure 6 earning-rate comparison.
pub fn earning_curve(payout: &Payout, worker: WorkerId) -> Vec<(f64, f64)> {
    let mut events: Vec<(f64, f64)> = payout
        .per_message
        .values()
        .filter(|c| c.worker == worker)
        .map(|c| (c.at.seconds(), c.amount))
        .collect();
    events.sort_by(|a, b| a.0.partial_cmp(&b.0).expect("finite"));
    let mut cum = 0.0;
    events
        .into_iter()
        .map(|(t, a)| {
            cum += a;
            (t, cum)
        })
        .collect()
}

/// Earning-rate *stability*: the maximum absolute deviation between a
/// worker's normalized cumulative earning curve and perfectly linear earning
/// over the same active interval (0 = perfectly steady). Used to quantify
/// the paper's Figure 6 observation that weighted allocation is steadier.
pub fn earning_instability(curve: &[(f64, f64)]) -> f64 {
    let Some(&(t0, _)) = curve.first() else {
        return 0.0;
    };
    let &(t1, total) = curve.last().expect("nonempty");
    if total <= 0.0 || t1 <= t0 {
        return 0.0;
    }
    curve
        .iter()
        .map(|&(t, c)| {
            let linear = (t - t0) / (t1 - t0);
            (c / total - linear).abs()
        })
        .fold(0.0, f64::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::contrib::Contributions;
    use crate::ledger::Ledger;
    use crate::trace::TraceEntry;
    use crowdfill_model::{
        derive_final_table, ClientId, Column, DataType, Operation, QuorumMajority, RowId,
    };
    use crowdfill_sync::Replica;
    use std::sync::Arc;

    fn schema() -> Arc<Schema> {
        Arc::new(
            Schema::new(
                "T",
                vec![
                    Column::new("name", DataType::Text),
                    Column::new("pos", DataType::Text),
                ],
                &["name"],
            )
            .unwrap(),
        )
    }

    struct Build {
        replica: Replica,
        ledger: Ledger,
        seq: u64,
        now: u64,
    }

    impl Build {
        fn new() -> Build {
            Build {
                replica: Replica::new(ClientId(10), schema()),
                ledger: Ledger::default(),
                seq: 0,
                now: 0,
            }
        }

        /// Applies `op` `step` ms after the previous entry and folds it.
        fn record(&mut self, worker: Option<u32>, step: u64, op: &Operation, auto: bool) -> u64 {
            let msg = self.replica.apply_local(op).unwrap();
            let filled = match op {
                Operation::Fill { column, .. } => Some(*column),
                _ => None,
            };
            self.now += step;
            let entry = TraceEntry {
                at: Millis(self.now),
                worker: worker.map(WorkerId),
                msg,
                auto_upvote: auto,
                filled,
            };
            let seq = self.seq;
            self.ledger.advance(seq, &entry);
            self.seq += 1;
            seq
        }

        fn system_insert(&mut self) -> RowId {
            self.record(None, 10, &Operation::Insert, false);
            self.last_row()
        }

        fn worker(&mut self, w: u32, step: u64, op: &Operation) -> (u64, RowId) {
            let seq = self.record(Some(w), step, op, false);
            (seq, self.last_row())
        }

        fn auto(&mut self, w: u32, row: RowId) {
            self.record(Some(w), 1, &Operation::Upvote { row }, true);
        }

        /// The row the last insert or fill created (the newest row id).
        fn last_row(&self) -> RowId {
            self.replica.table().row_ids().max().unwrap()
        }

        fn contributions(&self) -> Contributions {
            let ft = derive_final_table(
                self.replica.table(),
                self.replica.schema(),
                &QuorumMajority::of_three(),
            );
            self.ledger.contributions(&ft)
        }

        fn allocate(&self, scheme: Scheme, budget: f64, split: &SplitConfig) -> Payout {
            allocate(scheme, budget, &self.contributions(), &schema(), split)
        }
    }

    fn amount(p: &Payout, seq: u64) -> f64 {
        p.per_message[&seq].amount
    }

    /// One complete row by one worker, one upvote by another.
    fn simple_run() -> Build {
        let mut b = Build::new();
        let r0 = b.system_insert();
        let (_, r1) = b.worker(1, 1000, &Operation::fill(r0, ColumnId(0), "Messi"));
        let (_, done) = b.worker(1, 2000, &Operation::fill(r1, ColumnId(1), "FW"));
        b.auto(1, done);
        b.worker(2, 500, &Operation::Upvote { row: done });
        b.worker(2, 500, &Operation::Upvote { row: done }); // 2nd vote (other worker would be needed; reuse for arithmetic)
        b
    }

    #[test]
    fn uniform_allocation_splits_equally() {
        let p = simple_run().allocate(Scheme::Uniform, 10.0, &SplitConfig::new());
        // Units: 2 cells + 2 upvotes = 4 ⇒ b = 2.5 each.
        // Worker 1: both cells, both direct+indirect (full amount).
        assert!((p.worker_total(WorkerId(1)) - 5.0).abs() < 1e-9);
        // Worker 2: two upvotes.
        assert!((p.worker_total(WorkerId(2)) - 5.0).abs() < 1e-9);
        assert!(p.unspent.abs() < 1e-9);
        assert!((p.total_paid() + p.unspent - 10.0).abs() < 1e-9);
    }

    #[test]
    fn splitting_withholds_indirect_share_when_absent() {
        // The direct filler of the winning row's position was not first
        // with its value, and the first one is on an incompatible row: the
        // indirect share goes unspent.
        let mut b = Build::new();
        let ra = b.system_insert();
        let rb = b.system_insert();
        let (_, ra1) = b.worker(1, 1000, &Operation::fill(ra, ColumnId(0), "Xavi"));
        let (i_xavi_pos, _) = b.worker(1, 1000, &Operation::fill(ra1, ColumnId(1), "FW"));
        // Worker 2 builds winning row with same pos value FW.
        let (_, rb1) = b.worker(2, 1000, &Operation::fill(rb, ColumnId(0), "Messi"));
        let (i_pos, done) = b.worker(2, 1000, &Operation::fill(rb1, ColumnId(1), "FW"));
        b.auto(2, done);
        b.worker(3, 500, &Operation::Upvote { row: done });
        b.worker(3, 500, &Operation::Upvote { row: done });
        let p = b.allocate(Scheme::Uniform, 12.0, &SplitConfig::new());
        // 4 units (2 cells + 2 votes) ⇒ b = 3.
        // pos cell: first filler of (pos,FW) was worker 1, on row {Xavi,FW}
        // ⊄ final {Messi,FW} ⇒ no indirect ⇒ h=0.5 ⇒ 1.5 paid, 1.5 unspent.
        assert!((p.unspent - 1.5).abs() < 1e-9);
        assert_eq!(p.per_message.get(&i_xavi_pos), None);
        assert!((amount(&p, i_pos) - 1.5).abs() < 1e-9);
    }

    #[test]
    fn key_split_default_quarters() {
        let mut b = Build::new();
        let ra = b.system_insert();
        let rb = b.system_insert();
        // Worker 1 first enters Messi on a dying branch but compatible (just
        // the name — subset of the final row).
        let (i_first, _) = b.worker(1, 1000, &Operation::fill(ra, ColumnId(0), "Messi"));
        // Worker 2 re-enters Messi and completes.
        let (i_direct, rb1) = b.worker(2, 1000, &Operation::fill(rb, ColumnId(0), "Messi"));
        let (_, done) = b.worker(2, 1000, &Operation::fill(rb1, ColumnId(1), "FW"));
        b.auto(2, done);
        b.worker(3, 500, &Operation::Upvote { row: done });
        b.worker(3, 500, &Operation::Upvote { row: done });
        let p = b.allocate(Scheme::Uniform, 16.0, &SplitConfig::new());
        // 4 units ⇒ b = 4. Name cell is a key column: direct 0.25·4 = 1,
        // indirect 0.75·4 = 3.
        assert!((amount(&p, i_direct) - 1.0).abs() < 1e-9);
        assert!((amount(&p, i_first) - 3.0).abs() < 1e-9);
        assert_eq!(p.per_message[&i_first].worker, WorkerId(1));
    }

    #[test]
    fn split_override_applies() {
        let split = SplitConfig::new().with_override(ColumnId(0), 1.0);
        let p = simple_run().allocate(Scheme::Uniform, 10.0, &split);
        // With h=1 the direct message takes everything; worker 1 did both
        // direct and indirect anyway, so totals don't change here — but the
        // clamped override must hold structurally.
        assert!((p.total_paid() + p.unspent - 10.0).abs() < 1e-9);
        let clamped = SplitConfig::new().with_override(ColumnId(0), 7.0);
        assert_eq!(clamped.h_for(&schema(), ColumnId(0)), 1.0);
    }

    /// Two complete rows; name fills take 3000ms, pos fills 500ms, upvotes
    /// 1000ms. Column weighting must pay the slow column proportionally more.
    fn weighted_run() -> (Build, u64, u64) {
        let mut b = Build::new();
        let ra = b.system_insert();
        let rb = b.system_insert();
        let (i_messi, ra1) = b.worker(1, 1000, &Operation::fill(ra, ColumnId(0), "Messi")); // no sample (first msg)
        let (i_xavi, rb1) = b.worker(1, 3000, &Operation::fill(rb, ColumnId(0), "Xavi")); // name: 3.0s
        let (_, done_a) = b.worker(1, 500, &Operation::fill(ra1, ColumnId(1), "FW")); // pos: 0.5s
        b.auto(1, done_a);
        let (_, done_b) = b.worker(1, 500, &Operation::fill(rb1, ColumnId(1), "MF")); // pos: 0.5s
        b.auto(1, done_b);
        b.worker(2, 1000, &Operation::Upvote { row: done_a }); // no sample (first msg)
        b.worker(2, 1000, &Operation::Upvote { row: done_b }); // upvote: 1.0s
        assert_eq!(b.contributions().cells.len(), 4);
        (b, i_messi, i_xavi)
    }

    #[test]
    fn column_weighted_pays_slower_columns_more() {
        let (b, ..) = weighted_run();
        let p = b.allocate(Scheme::ColumnWeighted, 9.0, &SplitConfig::new());
        // Medians: name 3.0, pos 0.5, upvote 1.0.
        assert!((p.weights.per_column[0] - 3.0).abs() < 1e-9);
        assert!((p.weights.per_column[1] - 0.5).abs() < 1e-9);
        assert!((p.weights.upvote - 1.0).abs() < 1e-9);
        // Y = 3·2 + 0.5·2 + 1·2 = 9 ⇒ unit = 1.
        assert!((p.worker_total(WorkerId(1)) - 7.0).abs() < 1e-9);
        assert!((p.worker_total(WorkerId(2)) - 2.0).abs() < 1e-9);
        assert!(p.unspent.abs() < 1e-9);
    }

    #[test]
    fn dual_weighting_pays_later_keys_more() {
        let (b, i_messi, i_xavi) = weighted_run();
        let p = b.allocate(Scheme::DualWeighted, 9.0, &SplitConfig::new());
        // Key completion gaps grow (≈1.0s then 3.0s) ⇒ z > 0 ⇒ the later key
        // (Xavi, rank 2) earns more than the earlier (Messi, rank 1).
        assert!(p.weights.z[0] > 0.0 && p.weights.z[0] <= 1.0);
        assert_eq!(p.weights.z[1], 0.0); // non-key column
        assert!(amount(&p, i_xavi) > amount(&p, i_messi));
        // Budget conservation still holds.
        assert!((p.total_paid() + p.unspent - 9.0).abs() < 1e-6);
    }

    #[test]
    fn earning_curve_is_cumulative_and_sorted() {
        let p = simple_run().allocate(Scheme::Uniform, 10.0, &SplitConfig::new());
        let curve = earning_curve(&p, WorkerId(2));
        assert_eq!(curve.len(), 2);
        assert!(curve[0].0 < curve[1].0);
        assert!(curve[0].1 < curve[1].1);
        assert!((curve[1].1 - 5.0).abs() < 1e-9);
    }

    #[test]
    fn instability_zero_for_linear() {
        let curve = vec![(0.0, 1.0), (1.0, 2.0), (2.0, 3.0), (3.0, 4.0)];
        // Normalized: earns from 1→4 over 0→3... curve starts at (t0, c0)
        // with c0>0; the metric measures deviation from the diagonal. A
        // front-loaded curve is unstable:
        let front = vec![(0.0, 9.0), (1.0, 9.5), (10.0, 10.0)];
        assert!(earning_instability(&front) > earning_instability(&curve));
        assert_eq!(earning_instability(&[]), 0.0);
    }

    #[test]
    fn empty_contributions_leave_budget_unspent() {
        let c = Contributions::default();
        let p = allocate(
            Scheme::DualWeighted,
            10.0,
            &c,
            &schema(),
            &SplitConfig::new(),
        );
        assert_eq!(p.unspent, 10.0);
        assert!(p.per_worker.is_empty());
    }
}
