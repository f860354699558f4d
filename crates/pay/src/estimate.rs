//! Online compensation estimation (paper §5.3).
//!
//! During data collection CrowdFill shows workers an estimated compensation
//! for each action, to keep them engaged. Estimates assume the action will
//! eventually contribute to the final table (and that a fill contributes
//! both directly and indirectly, i.e. earns the full cell amount), so they
//! can overshoot for workers whose entries don't survive.
//!
//! Per scheme:
//! * **uniform** — estimate `|C|` as the number of unprescribed template
//!   cells, `|U|` starting at `(u_min − 1)·|T|` and growing as probable rows
//!   accumulate more upvotes, and `|D|` as the downvotes so far consistent
//!   with the current probable rows.
//! * **column-weighted** — additionally track per-column / per-vote-kind
//!   latency medians over actions consistent with the current probable rows;
//!   estimates converge to the final weights as evidence accumulates.
//! * **dual-weighted** — additionally fit `z_i` online to the observed
//!   first-appearance gaps of distinct key values, and scale key-cell
//!   estimates by the rank multiplier.
//!
//! Documented simplifications vs. the paper's (itself "intuitive initial")
//! approach: `|U|` grows as `max((u_min−1)·|T|, upvotes observed so far)`,
//! and dual weighting reuses the plain median `y_i` rather than re-projecting
//! it for unobserved future latencies. Both keep the estimator strictly
//! online and are evaluated empirically in the E3/E4 experiments.

use crate::allocate::Scheme;
use crate::contrib::Contributions;
use crate::stats::{dual_multiplier, fit_z, sorted_median};
use crate::trace::{Millis, TraceEntry, WorkerId};
use crowdfill_constraints::ProbableView;
use crowdfill_model::{ColumnId, Entry, Message, RowValue, Schema, ScoringRef, Template, Value};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// The estimate attached to one worker action at the moment it happened.
#[derive(Debug, Clone, Copy)]
pub struct ActionEstimate {
    /// The action's history seq.
    pub idx: usize,
    pub at: Millis,
    pub worker: WorkerId,
    pub amount: f64,
}

/// Streaming estimator; feed it every worker action (in order) together with
/// the Central Client's view of the table after that action
/// ([`ProbableView`]: the table and its live probable-row classification).
pub struct Estimator {
    scheme: Scheme,
    budget: f64,
    schema: Arc<Schema>,
    /// |T|.
    template_rows: usize,
    /// Unprescribed template cells per column (the `|C_i|` estimates).
    holes_per_column: Vec<usize>,
    /// `u_min − 1`: paid upvotes expected per row.
    paid_votes_per_row: u32,
    // --- online evidence ---
    last_msg_at: HashMap<WorkerId, Millis>,
    /// Latency samples, each kept sorted by binary insertion so a weight is
    /// a median read in place: per column, per vote kind, and all of them.
    col_samples: Vec<Vec<f64>>,
    up_samples: Vec<f64>,
    down_samples: Vec<f64>,
    all_samples: Vec<f64>,
    upvotes_cast: usize,
    /// All worker-downvoted vectors so far (re-checked for consistency
    /// against the current probable rows at estimate time).
    downvoted_vectors: Vec<RowValue>,
    /// Per key column: distinct values in first-appearance order with their
    /// appearance time (seconds).
    key_first_seen: HashMap<ColumnId, Vec<(Value, f64)>>,
    estimates: Vec<ActionEstimate>,
    /// Probable rows read, and reads that had to scan every probable row
    /// (a key-incomplete vector), over this estimator's lifetime.
    visits: Visits,
}

/// The estimator's reads of the probable rows.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Visits {
    pub rows: u64,
    pub scans: u64,
}

impl Visits {
    /// Whether some probable row near `v` satisfies `pred`, reading the
    /// probable rows of `v`'s key group (all of them for a key-incomplete
    /// `v`), and counting what it read.
    fn any_probable(
        &mut self,
        view: ProbableView<'_>,
        v: &RowValue,
        pred: impl Fn(&RowValue) -> bool,
    ) -> bool {
        let (rows, scan) = view.near(v);
        self.scans += u64::from(scan);
        for row in rows {
            self.rows += 1;
            if pred(row) {
                return true;
            }
        }
        false
    }
}

/// Inserts `x` into the sorted `samples`, after any equal ones.
fn insert_sorted(samples: &mut Vec<f64>, x: f64) {
    let at = samples.partition_point(|s| *s <= x);
    samples.insert(at, x);
}

impl Estimator {
    pub fn new(
        scheme: Scheme,
        budget: f64,
        schema: Arc<Schema>,
        scoring: ScoringRef,
        template: &Template,
    ) -> Estimator {
        let mut holes_per_column = vec![0usize; schema.width()];
        for trow in template.rows() {
            for col in schema.column_ids() {
                if !matches!(trow.entry(col), Entry::Value(_)) {
                    holes_per_column[col.index()] += 1;
                }
            }
        }
        let paid_votes_per_row = scoring.min_upvotes().unwrap_or(1).saturating_sub(1);
        Estimator {
            scheme,
            budget,
            template_rows: template.len(),
            holes_per_column,
            paid_votes_per_row,
            schema: Arc::clone(&schema),
            last_msg_at: HashMap::new(),
            col_samples: vec![Vec::new(); schema.width()],
            up_samples: Vec::new(),
            down_samples: Vec::new(),
            all_samples: Vec::new(),
            upvotes_cast: 0,
            downvoted_vectors: Vec::new(),
            key_first_seen: HashMap::new(),
            estimates: Vec::new(),
            visits: Visits::default(),
        }
    }

    /// Observes one log entry (already applied to `view`'s table) at
    /// history seq `seq` and returns the estimate displayed to its worker:
    /// a fill is priced by the column its entry says it filled. The Central
    /// Client's entries and auto-upvotes estimate to zero ("without
    /// additional payment", §3.4).
    pub fn on_action(&mut self, seq: u64, entry: &TraceEntry, view: ProbableView<'_>) -> f64 {
        let Some(worker) = entry.worker else {
            return 0.0; // CC actions are never estimated or paid
        };
        if entry.auto_upvote {
            // Applied to the table but not a separate compensable action;
            // do not clock it either (it is simultaneous with its fill).
            return 0.0;
        }

        // Latency bookkeeping (vote samples only from actions consistent
        // with the probable view, per §5.3).
        let latency = self
            .last_msg_at
            .insert(worker, entry.at)
            .map(|prev| prev.until(entry.at).seconds());
        let fill = match (&entry.msg, entry.filled) {
            (Message::Replace { value, .. }, Some(col)) => {
                Some((col, value.get(col).expect("a fill holds its value")))
            }
            _ => None,
        };

        match &entry.msg {
            Message::Upvote { value } => {
                self.upvotes_cast += 1;
                if let Some(l) = latency {
                    if self.visits.any_probable(view, value, |v| v == value) {
                        insert_sorted(&mut self.up_samples, l);
                        insert_sorted(&mut self.all_samples, l);
                    }
                }
            }
            Message::Downvote { value } => {
                self.downvoted_vectors.push(value.clone());
                if let Some(l) = latency {
                    if !self.visits.any_probable(view, value, |v| v.subsumes(value)) {
                        insert_sorted(&mut self.down_samples, l);
                        insert_sorted(&mut self.all_samples, l);
                    }
                }
            }
            Message::UndoUpvote { .. } => {
                self.upvotes_cast = self.upvotes_cast.saturating_sub(1);
            }
            Message::UndoDownvote { value } => {
                // Cancel one recorded downvote vector.
                if let Some(pos) = self.downvoted_vectors.iter().position(|v| v == value) {
                    self.downvoted_vectors.swap_remove(pos);
                }
            }
            Message::Replace { .. } => {
                if let Some((column, value)) = fill {
                    if let Some(l) = latency {
                        insert_sorted(&mut self.col_samples[column.index()], l);
                        insert_sorted(&mut self.all_samples, l);
                    }
                    if self.schema.is_key(column) {
                        let seen = self.key_first_seen.entry(column).or_default();
                        if !seen.iter().any(|(v, _)| v == value) {
                            seen.push((value.clone(), entry.at.seconds()));
                        }
                    }
                }
            }
            Message::Insert { .. } => {}
        }

        let amount = self.estimate_amount(&entry.msg, fill, view);
        self.estimates.push(ActionEstimate {
            idx: seq as usize,
            at: entry.at,
            worker,
            amount,
        });
        amount
    }

    /// All per-action estimates so far.
    pub fn timeline(&self) -> &[ActionEstimate] {
        &self.estimates
    }

    /// The probable rows this estimator has read, lifetime.
    pub fn visits(&self) -> Visits {
        self.visits
    }

    /// Raw estimated totals per worker: the sum of the estimates shown when
    /// each action was performed (Figure 5's middle bars).
    pub fn raw_totals(&self) -> BTreeMap<WorkerId, f64> {
        let mut out = BTreeMap::new();
        for e in &self.estimates {
            *out.entry(e.worker).or_insert(0.0) += e.amount;
        }
        out
    }

    /// Corrected estimated totals: only actions that actually contributed to
    /// the final table are summed (Figure 5's right bars).
    pub fn corrected_totals(&self, contributions: &Contributions) -> BTreeMap<WorkerId, f64> {
        let contributing: std::collections::HashSet<u64> =
            contributions.contributing_messages().into_iter().collect();
        let mut out = BTreeMap::new();
        for e in &self.estimates {
            if contributing.contains(&(e.idx as u64)) {
                *out.entry(e.worker).or_insert(0.0) += e.amount;
            }
        }
        out
    }

    // ---- internals -------------------------------------------------------

    /// Current estimates of |C|, |U|, |D| (§5.3).
    ///
    /// `|U|` starts at `(u_min − 1)·|T|` and grows as probable rows gather
    /// more upvotes: each complete probable row is expected to contribute
    /// `max(u_min − 1, observed worker upvotes)` (its automatic completion
    /// upvote is not compensated, hence the `− 1`), and template slots not
    /// yet covered by a complete row contribute the base. Each complete
    /// probable row is one entry of the classification's upvote histogram.
    /// `|D|` reads, per downvoted vector, the probable rows of its key group.
    fn unit_counts(&mut self, view: ProbableView<'_>) -> (f64, f64) {
        let base = self.paid_votes_per_row as usize;
        let (mut complete, mut est_u) = (0usize, 0usize);
        for (u, rows) in view.classification().upvote_histogram() {
            complete += rows;
            est_u += rows * base.max(u.saturating_sub(1) as usize);
        }
        let covered = complete.min(self.template_rows);
        est_u += self.template_rows.saturating_sub(covered) * base;
        let visits = &mut self.visits;
        let est_d = self
            .downvoted_vectors
            .iter()
            .filter(|dv| !visits.any_probable(view, dv, |p| p.subsumes(dv)))
            .count();
        (est_u as f64, est_d as f64)
    }

    /// Per-column weights under the current evidence (uniform ⇒ all 1).
    fn current_weights(&self) -> (Vec<f64>, f64, f64) {
        if self.scheme == Scheme::Uniform {
            return (vec![1.0; self.schema.width()], 1.0, 1.0);
        }
        const WEIGHT_FLOOR: f64 = 1e-3;
        let fallback = sorted_median(&self.all_samples)
            .unwrap_or(1.0)
            .max(WEIGHT_FLOOR);
        let cols: Vec<f64> = self
            .col_samples
            .iter()
            .map(|s| sorted_median(s).unwrap_or(fallback).max(WEIGHT_FLOOR))
            .collect();
        let up = sorted_median(&self.up_samples)
            .unwrap_or(fallback)
            .max(WEIGHT_FLOOR);
        let down = sorted_median(&self.down_samples)
            .unwrap_or(fallback)
            .max(WEIGHT_FLOOR);
        (cols, up, down)
    }

    fn estimate_amount(
        &mut self,
        msg: &Message,
        fill: Option<(ColumnId, &Value)>,
        view: ProbableView<'_>,
    ) -> f64 {
        let (est_u, est_d) = self.unit_counts(view);
        let (cols, up, down) = self.current_weights();

        // Y under current estimates: holes carry per-column weights.
        let mut y_total = 0.0;
        for (i, &holes) in self.holes_per_column.iter().enumerate() {
            y_total += cols[i] * holes as f64;
        }
        y_total += up * est_u + down * est_d;
        if y_total <= 0.0 {
            return 0.0;
        }
        let unit = self.budget / y_total;

        match (msg, fill) {
            (Message::Replace { .. }, Some((col, value))) => {
                let mut w = cols[col.index()];
                if self.scheme == Scheme::DualWeighted && self.schema.is_key(col) {
                    let seen = self
                        .key_first_seen
                        .get(&col)
                        .map(Vec::as_slice)
                        .unwrap_or(&[]);
                    let k = seen
                        .iter()
                        .position(|(v, _)| v == value)
                        .map(|p| p + 1)
                        .unwrap_or(seen.len() + 1);
                    // Expected final distinct count: at least the template
                    // size, at least what we've already seen.
                    let n = self.template_rows.max(seen.len()).max(k);
                    let mut gaps = Vec::with_capacity(seen.len());
                    let mut prev = 0.0;
                    for (_, t) in seen {
                        gaps.push(t - prev);
                        prev = *t;
                    }
                    let z = fit_z(&gaps);
                    w *= dual_multiplier(k, n, z);
                }
                w * unit
            }
            (Message::Upvote { .. }, _) => up * unit,
            (Message::Downvote { .. }, _) => down * unit,
            // Undos earn nothing themselves (they retract earlier credit),
            // nor does an insert, or a replace that filled no column.
            _ => 0.0,
        }
    }
}

impl std::fmt::Debug for Estimator {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Estimator")
            .field("scheme", &self.scheme)
            .field("budget", &self.budget)
            .field("actions", &self.estimates.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ledger::Ledger;
    use crowdfill_constraints::Classifier;
    use crowdfill_model::{
        CandidateTable, ClientId, Column, DataType, Operation, QuorumMajority, RowId, TemplateRow,
    };
    use crowdfill_sync::Replica;

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

    fn scoring() -> ScoringRef {
        Arc::new(QuorumMajority::of_three())
    }

    struct Rig {
        replica: Replica,
        ledger: Ledger,
        seq: u64,
        est: Estimator,
        now: u64,
    }

    impl Rig {
        fn new(scheme: Scheme, budget: f64, template: &Template) -> Rig {
            let s = schema();
            Rig {
                replica: Replica::new(ClientId(10), Arc::clone(&s)),
                ledger: Ledger::default(),
                seq: 0,
                est: Estimator::new(scheme, budget, s, scoring(), template),
                now: 0,
            }
        }

        /// Applies `op` as `worker` `dt` ms after the previous entry, folds
        /// it into the ledger and estimates it; returns the estimate and the
        /// row it created.
        fn act(&mut self, worker: Option<u32>, dt: u64, op: &Operation) -> (f64, Option<RowId>) {
            let msg = self.replica.apply_local(op).unwrap();
            let row = msg.creates_row();
            let filled = match op {
                Operation::Fill { column, .. } => Some(*column),
                _ => None,
            };
            self.now += dt;
            let entry = TraceEntry {
                at: Millis(self.now),
                worker: worker.map(WorkerId),
                msg,
                auto_upvote: false,
                filled,
            };
            self.ledger.advance(self.seq, &entry);
            let classes = self.classes();
            let view = ProbableView::new(self.replica.table(), &classes);
            let amt = self.est.on_action(self.seq, &entry, view);
            self.seq += 1;
            (amt, row)
        }

        fn system_insert(&mut self) -> RowId {
            self.act(None, 10, &Operation::Insert).1.unwrap()
        }

        fn fill(&mut self, w: u32, dt: u64, row: RowId, col: ColumnId, v: &str) -> (f64, RowId) {
            let (amt, new) = self.act(Some(w), dt, &Operation::fill(row, col, v));
            (amt, new.unwrap())
        }

        fn vote(&mut self, w: u32, dt: u64, row: RowId, up: bool) -> f64 {
            let op = if up {
                Operation::Upvote { row }
            } else {
                Operation::Downvote { row }
            };
            self.act(Some(w), dt, &op).0
        }

        /// The replica's classification, built in one batch pass.
        fn classes(&self) -> Classifier {
            Classifier::new(schema(), scoring(), self.replica.table())
        }
    }

    fn template2() -> Template {
        // Two empty template rows over a 2-column schema: |C| = 4,
        // u_min = 2 ⇒ base |U| = 2, |D| starts 0.
        Template::cardinality(2)
    }

    #[test]
    fn uniform_estimates_match_closed_form() {
        let mut rig = Rig::new(Scheme::Uniform, 12.0, &template2());
        let r0 = rig.system_insert();
        // Units = 4 + 2 + 0 = 6 ⇒ b = 2 per action.
        let (amt, r1) = rig.fill(1, 1000, r0, ColumnId(0), "Messi");
        assert!((amt - 2.0).abs() < 1e-9);
        let (amt, done) = rig.fill(1, 1000, r1, ColumnId(1), "FW");
        assert!((amt - 2.0).abs() < 1e-9);
        let amt = rig.vote(2, 1000, done, true);
        assert!((amt - 2.0).abs() < 1e-9);
    }

    #[test]
    fn downvotes_grow_the_denominator() {
        let mut rig = Rig::new(Scheme::Uniform, 12.0, &template2());
        let r0 = rig.system_insert();
        let (_, r1) = rig.fill(1, 1000, r0, ColumnId(0), "Mess");
        // Downvote the (probable) row: at estimate time the vector is still
        // subsumed by a probable row ⇒ not yet "consistent" ⇒ |D| stays 0
        // until the row leaves the probable set.
        let amt = rig.vote(2, 1000, r1, false);
        assert!((amt - 2.0).abs() < 1e-9);
        // Second downvote rejects the row (f(0,2) = −2): now *both* downvote
        // messages on that vector are consistent with the remaining probable
        // rows ⇒ |D| = 2 ⇒ b = 12/8.
        let amt = rig.vote(3, 1000, r1, false);
        assert!((amt - 1.5).abs() < 1e-9);
    }

    #[test]
    fn upvotes_beyond_base_grow_u() {
        let mut rig = Rig::new(Scheme::Uniform, 12.0, &template2());
        let r0 = rig.system_insert();
        let (_, r1) = rig.fill(1, 1000, r0, ColumnId(0), "Messi");
        let (_, done) = rig.fill(1, 1000, r1, ColumnId(1), "FW");
        // Base |U| = 2. First two upvotes estimate with denominator 6; the
        // third pushes |U| to 3 (cast=3 > base=2) ⇒ denominator 7.
        assert!((rig.vote(2, 500, done, true) - 2.0).abs() < 1e-9);
        assert!((rig.vote(3, 500, done, true) - 2.0).abs() < 1e-9);
        let amt = rig.vote(4, 500, done, true);
        assert!((amt - 12.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn column_weighted_estimates_learn_latencies() {
        let mut rig = Rig::new(Scheme::ColumnWeighted, 12.0, &template2());
        let ra = rig.system_insert();
        let rb = rig.system_insert();
        // Build latency evidence: name fills slow (4s), pos fills fast (1s).
        let (first_amt, ra1) = rig.fill(1, 4000, ra, ColumnId(0), "Messi"); // no sample yet
                                                                            // With no samples at all, weights are uniform ⇒ b = 12/6 = 2.
        assert!((first_amt - 2.0).abs() < 1e-9);
        let (_, _ra2) = rig.fill(1, 1000, ra1, ColumnId(1), "FW"); // pos sample 1s
        let (amt_name, _rb1) = rig.fill(1, 4000, rb, ColumnId(0), "Xavi"); // name sample 4s
                                                                           // Weights now: name 4, pos 1, votes fallback = median(1,4) = 2.5.
                                                                           // Y = 4·2 + 1·2 + 2.5·2 = 15 ⇒ name estimate = 4·12/15 = 3.2.
        assert!((amt_name - 3.2).abs() < 1e-9, "got {amt_name}");
    }

    #[test]
    fn dual_weighted_key_rank_raises_estimates() {
        let mut rig = Rig::new(Scheme::DualWeighted, 12.0, &template2());
        let ra = rig.system_insert();
        let rb = rig.system_insert();
        let (amt1, _) = rig.fill(1, 1000, ra, ColumnId(0), "A");
        let (amt2, _) = rig.fill(1, 3000, rb, ColumnId(0), "B");
        // Key gaps 1s then 3s ⇒ z > 0 ⇒ the later key estimate is weighted
        // up relative to its column weight. Both positive, and the second's
        // multiplier exceeds the first's retroactive rank-1 multiplier.
        assert!(amt1 > 0.0 && amt2 > 0.0);
        // Rank of "B" is 2 of n=2 ⇒ multiplier 1+z ≥ 1.
        // Compare against what a rank-1 fill of the same column would get:
        let rc = rig.system_insert();
        let (amt3, _) = rig.fill(2, 3000, rc, ColumnId(0), "A"); // existing value, rank 1
        assert!(amt2 / amt3 >= 1.0);
    }

    #[test]
    fn raw_and_corrected_totals() {
        let mut rig = Rig::new(Scheme::Uniform, 12.0, &template2());
        let r0 = rig.system_insert();
        let (_, r1) = rig.fill(1, 1000, r0, ColumnId(0), "Messi");
        let (_, done) = rig.fill(1, 1000, r1, ColumnId(1), "FW");
        rig.vote(2, 1000, done, true);
        rig.vote(3, 1000, done, true);

        let raw = rig.est.raw_totals();
        assert!(raw[&WorkerId(1)] > 0.0);
        assert!(raw[&WorkerId(2)] > 0.0);

        let ft = crowdfill_model::derive_final_table(
            rig.replica.table(),
            rig.replica.schema(),
            &QuorumMajority::of_three(),
        );
        let contribs = rig.ledger.contributions(&ft);
        let corrected = rig.est.corrected_totals(&contribs);
        // Everything contributed in this clean run, so corrected == raw.
        for (w, v) in &raw {
            assert!((corrected[w] - v).abs() < 1e-9);
        }
    }

    #[test]
    fn estimates_ignore_cc_and_auto_upvotes() {
        let template = Template::from_rows(vec![TemplateRow::empty()]);
        let s = schema();
        let mut est = Estimator::new(Scheme::Uniform, 10.0, Arc::clone(&s), scoring(), &template);
        let table = CandidateTable::new(&s);
        let classes = Classifier::new(Arc::clone(&s), scoring(), &table);
        let view = ProbableView::new(&table, &classes);
        let cc_entry = TraceEntry {
            at: Millis(5),
            worker: None,
            msg: Message::Insert {
                row: RowId::new(ClientId::CENTRAL, 0),
            },
            auto_upvote: false,
            filled: None,
        };
        assert_eq!(est.on_action(0, &cc_entry, view), 0.0);
        let auto = TraceEntry {
            at: Millis(6),
            worker: Some(WorkerId(1)),
            msg: Message::Upvote {
                value: RowValue::empty(),
            },
            auto_upvote: true,
            filled: None,
        };
        assert_eq!(est.on_action(1, &auto, view), 0.0);
        assert!(est.timeline().is_empty());
    }
}
