//! Behavioral worker models.
//!
//! Each simulated worker owns a [`WorkerClient`] (the same client code the
//! live deployment uses), a subset of the ground truth it "knows", and a
//! behavioral profile: how fast it works, how accurate it is, and how much
//! it likes voting. The evaluation's phenomena — compensation spread,
//! weighted-vs-uniform differences, estimate error — all emerge from
//! heterogeneity along these axes, mirroring the paper's human volunteers.

use crate::dataset::GroundTruth;
use crowdfill_model::{ColumnId, Date, RowId, RowValue, Scoring, Value};
use crowdfill_pay::WorkerId;
use crowdfill_server::worker_client::{Outgoing, WorkerClient};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

/// A worker's behavioral parameters.
#[derive(Debug, Clone)]
pub struct WorkerProfile {
    /// Latency multiplier: 0.5 = twice as fast as nominal.
    pub speed: f64,
    /// Fraction of the universe this worker knows.
    pub coverage: f64,
    /// Probability a fill enters a wrong value.
    pub error_rate: f64,
    /// Probability of taking an available vote action before filling.
    pub vote_propensity: f64,
    /// Probability (per decision) of *verifying* a complete row whose
    /// entity the worker does not know offhand — modeling a volunteer
    /// checking a reference source — and voting accordingly.
    pub verify_propensity: f64,
    /// Whether the worker follows the server's cell recommendations
    /// (paper §8's proposed guidance) instead of free scanning.
    pub follow_recommendations: bool,
    /// Probability of *correcting* a known-wrong cell with the worker-level
    /// modify action (paper §8, implemented) instead of merely downvoting.
    pub correction_propensity: f64,
    /// Seconds after collection start before the first action.
    pub join_delay: f64,
    /// Seconds to wait when no useful action is available.
    pub idle_backoff: f64,
}

impl WorkerProfile {
    /// A nominal diligent worker.
    pub fn nominal() -> WorkerProfile {
        WorkerProfile {
            speed: 1.0,
            coverage: 0.5,
            error_rate: 0.03,
            vote_propensity: 0.6,
            verify_propensity: 0.35,
            follow_recommendations: false,
            correction_propensity: 0.2,
            join_delay: 0.0,
            idle_backoff: 5.0,
        }
    }
}

/// A planned action with its data-entry latency (seconds).
#[derive(Debug, Clone)]
pub enum PlannedAction {
    Fill {
        row: RowId,
        column: ColumnId,
        value: Value,
    },
    Upvote {
        row: RowId,
    },
    Downvote {
        row: RowId,
    },
    /// Correct a wrong cell via the composite modify action (paper §8).
    Modify {
        row: RowId,
        column: ColumnId,
        value: Value,
    },
}

/// A simulated worker: behavior around a real [`WorkerClient`].
pub struct SimWorker {
    pub profile: WorkerProfile,
    pub client: WorkerClient,
    /// Indices into the ground truth this worker knows.
    known: Vec<usize>,
    /// Row values this worker has voted on (mirrors the server policy).
    voted: HashSet<RowValue>,
    /// Key projections this worker has upvoted.
    upvoted_keys: HashSet<RowValue>,
    rng: StdRng,
}

/// Seconds a vote takes at nominal speed.
const VOTE_LATENCY: f64 = 3.0;

impl SimWorker {
    pub fn new(
        profile: WorkerProfile,
        client: WorkerClient,
        universe: &GroundTruth,
        seed: u64,
    ) -> SimWorker {
        let mut rng = StdRng::seed_from_u64(seed ^ (client.worker().0 as u64) << 13);
        let mut known: Vec<usize> = (0..universe.len())
            .filter(|_| rng.gen_bool(profile.coverage.clamp(0.0, 1.0)))
            .collect();
        // Each worker's knowledge is enumerated in a private order, so
        // different workers reach for different entities first.
        for i in (1..known.len()).rev() {
            let j = rng.gen_range(0..=i);
            known.swap(i, j);
        }
        SimWorker {
            profile,
            client,
            known,
            voted: HashSet::new(),
            upvoted_keys: HashSet::new(),
            rng,
        }
    }

    pub fn worker_id(&self) -> WorkerId {
        self.client.worker()
    }

    /// How many entities this worker knows.
    pub fn knowledge_size(&self) -> usize {
        self.known.len()
    }

    /// Chooses the next action against the current local view, with its
    /// latency in seconds. `None` when the worker sees nothing useful.
    pub fn decide(
        &mut self,
        universe: &GroundTruth,
        scoring: &dyn Scoring,
    ) -> Option<(PlannedAction, f64)> {
        // 1. Voting pass (gated by propensity).
        if self
            .rng
            .gen_bool(self.profile.vote_propensity.clamp(0.0, 1.0))
        {
            if let Some(action) = self.pick_vote(universe, scoring) {
                let lat = self.action_latency(&action, universe);
                return Some((action, lat));
            }
        }

        // 2. Filling pass.
        for row_id in self.client.presented_rows() {
            if let Some(planned) = self.plan_fill_for_row(row_id, universe) {
                return Some(planned);
            }
        }

        // 3. Nothing fillable: vote even below propensity rather than idle
        // (unless this worker never votes at all).
        if self.profile.vote_propensity > 0.0 || self.profile.verify_propensity > 0.0 {
            if let Some(action) = self.pick_vote(universe, scoring) {
                let lat = self.action_latency(&action, universe);
                return Some((action, lat));
            }
        }
        None
    }

    /// The data-entry latency of a planned action.
    fn action_latency(&mut self, action: &PlannedAction, universe: &GroundTruth) -> f64 {
        match action {
            PlannedAction::Upvote { .. } | PlannedAction::Downvote { .. } => {
                self.latency(VOTE_LATENCY)
            }
            PlannedAction::Fill { column, .. } => {
                let base = universe
                    .base_latency
                    .get(column.index())
                    .copied()
                    .unwrap_or(5.0);
                self.latency(base)
            }
            PlannedAction::Modify { column, .. } => {
                // Re-entering a cell plus confirming the rest of the row.
                let base = universe
                    .base_latency
                    .get(column.index())
                    .copied()
                    .unwrap_or(5.0);
                self.latency(base + 2.0)
            }
        }
    }

    /// Like [`decide`](Self::decide), but tries the server's recommendations
    /// (paper §8's proposed guidance) before falling back to free scanning.
    pub fn decide_with_recommendations(
        &mut self,
        universe: &GroundTruth,
        scoring: &dyn Scoring,
        recommendations: &[crate::Recommendation],
    ) -> Option<(PlannedAction, f64)> {
        // Respect the worker's own appetite for voting: recommendations
        // guide *which* row to act on, not *whether* to vote.
        let vote_now = self
            .rng
            .gen_bool(self.profile.vote_propensity.clamp(0.0, 1.0));
        for pass in 0..2 {
            for rec in recommendations {
                use crate::RecommendationKind::*;
                match rec.kind {
                    VoteOnRow if pass == (!vote_now) as usize => {
                        if let Some(action) = self.plan_vote_for_row(rec.row, universe, scoring) {
                            let lat = self.action_latency(&action, universe);
                            return Some((action, lat));
                        }
                    }
                    FillCell | OpenKey if pass == vote_now as usize => {
                        if let Some(planned) = self.plan_fill_for_row(rec.row, universe) {
                            return Some(planned);
                        }
                    }
                    _ => {}
                }
            }
        }
        self.decide(universe, scoring)
    }

    /// Plans a fill against one specific row, if the worker can contribute
    /// there (knows or researches a consistent entity).
    fn plan_fill_for_row(
        &mut self,
        row_id: RowId,
        universe: &GroundTruth,
    ) -> Option<(PlannedAction, f64)> {
        let schema = universe.schema.clone();
        let row_value = self.client.replica().table().get(row_id)?.value.clone();
        if row_value.is_complete(&schema) {
            return None;
        }
        let entity_idx = self.entity_for(&row_value, universe)?;
        let entity = &universe.rows[entity_idx];
        // Prefer completing the key first (unlocks voting and dedup).
        let column = row_value
            .empty_columns(&schema)
            .find(|c| schema.is_key(*c))
            .or_else(|| row_value.empty_columns(&schema).next())?;
        let correct = entity.get(column).expect("entities are complete").clone();
        let value = if self.rng.gen_bool(self.profile.error_rate.clamp(0.0, 1.0)) {
            self.corrupt(correct, column, universe)
        } else {
            correct
        };
        let base = universe
            .base_latency
            .get(column.index())
            .copied()
            .unwrap_or(5.0);
        Some((
            PlannedAction::Fill {
                row: row_id,
                column,
                value,
            },
            self.latency(base),
        ))
    }

    /// Executes a planned action against the (possibly advanced) local view,
    /// returning the messages to submit. Stale plans fizzle to `None`.
    pub fn execute(&mut self, action: &PlannedAction) -> Option<Vec<Outgoing>> {
        match action {
            PlannedAction::Fill { row, column, value } => {
                let out = self.client.fill(*row, *column, value.clone()).ok()?;
                // Record the auto-upvote in the worker's vote memory.
                for o in &out {
                    if o.auto_upvote {
                        if let crowdfill_model::Message::Upvote { value } = &o.msg {
                            self.voted.insert(value.clone());
                            if let Some(key) = value.key_projection(self.client.replica().schema())
                            {
                                self.upvoted_keys.insert(key);
                            }
                        }
                    }
                }
                Some(out)
            }
            PlannedAction::Upvote { row } => {
                let entry = self.client.replica().table().get(*row)?.value.clone();
                let out = self.client.upvote(*row).ok()?;
                self.voted.insert(entry.clone());
                if let Some(key) = entry.key_projection(self.client.replica().schema()) {
                    self.upvoted_keys.insert(key);
                }
                Some(vec![out])
            }
            PlannedAction::Downvote { row } => {
                let entry = self.client.replica().table().get(*row)?.value.clone();
                let out = self.client.downvote(*row).ok()?;
                self.voted.insert(entry);
                Some(vec![out])
            }
            PlannedAction::Modify { row, column, value } => {
                let old = self.client.replica().table().get(*row)?.value.clone();
                let out = self.client.modify(*row, *column, value.clone()).ok()?;
                // The bundle's downvote and auto-upvote count as this
                // worker's votes.
                self.voted.insert(old);
                for o in &out {
                    if o.auto_upvote {
                        if let crowdfill_model::Message::Upvote { value } = &o.msg {
                            self.voted.insert(value.clone());
                            if let Some(key) = value.key_projection(self.client.replica().schema())
                            {
                                self.upvoted_keys.insert(key);
                            }
                        }
                    }
                }
                Some(out)
            }
        }
    }

    // ---- internals ---------------------------------------------------------

    fn latency(&mut self, base: f64) -> f64 {
        let jitter = 0.7 + 0.6 * self.rng.gen::<f64>();
        (base * self.profile.speed * jitter).max(0.25)
    }

    /// A vote this worker can confidently cast right now. Rows whose score
    /// is already positive are not upvoted further (workers see the vote
    /// counts in the interface and don't pile onto settled rows).
    fn pick_vote(
        &mut self,
        universe: &GroundTruth,
        scoring: &dyn Scoring,
    ) -> Option<PlannedAction> {
        for row_id in self.client.presented_rows() {
            if let Some(action) = self.plan_vote_for_row(row_id, universe, scoring) {
                return Some(action);
            }
        }
        None
    }

    /// The per-row vote evaluation behind [`pick_vote`](Self::pick_vote).
    fn plan_vote_for_row(
        &mut self,
        row_id: RowId,
        universe: &GroundTruth,
        scoring: &dyn Scoring,
    ) -> Option<PlannedAction> {
        let schema = &universe.schema;
        {
            let entry = self.client.replica().table().get(row_id)?;
            let value = &entry.value;
            if value.is_empty() || self.voted.contains(value) {
                return None;
            }
            let settled = scoring.score(entry.upvotes, entry.downvotes) > 0;
            let Some(key) = value.key_projection(schema) else {
                return None; // can't judge a row without its key
            };
            // Does the worker know the entity with this key?
            let known_entity = self
                .known
                .iter()
                .copied()
                .find(|&i| universe.rows[i].key_projection(schema).as_ref() == Some(&key));
            match known_entity {
                Some(entity_idx) => {
                    let entity = &universe.rows[entity_idx];
                    if entity.subsumes(value) {
                        // Consistent with knowledge: endorse once complete.
                        if value.is_complete(schema)
                            && !settled
                            && !self.upvoted_keys.contains(&key)
                        {
                            return Some(PlannedAction::Upvote { row: row_id });
                        }
                    } else {
                        // Contradicts knowledge: correct it outright
                        // sometimes (the modify action), otherwise refute.
                        if self
                            .rng
                            .gen_bool(self.profile.correction_propensity.clamp(0.0, 1.0))
                        {
                            let wrong = value
                                .iter()
                                .find(|(c, v)| entity.get(*c) != Some(v))
                                .map(|(c, _)| c);
                            if let Some(column) = wrong {
                                let correct =
                                    entity.get(column).expect("entities are complete").clone();
                                return Some(PlannedAction::Modify {
                                    row: row_id,
                                    column,
                                    value: correct,
                                });
                            }
                        }
                        return Some(PlannedAction::Downvote { row: row_id });
                    }
                }
                None => {
                    // Unknown entity: occasionally verify against reference
                    // sources instead of skipping, so rows built by other
                    // workers can still reach quorum (and fabricated rows
                    // still get refuted).
                    if !self
                        .rng
                        .gen_bool(self.profile.verify_propensity.clamp(0.0, 1.0))
                    {
                        return None;
                    }
                    if value.is_complete(schema) {
                        if universe.contains(value) {
                            if !settled && !self.upvoted_keys.contains(&key) {
                                return Some(PlannedAction::Upvote { row: row_id });
                            }
                        } else {
                            return Some(PlannedAction::Downvote { row: row_id });
                        }
                    } else {
                        // A keyed partial row: look the key up in the
                        // reference source. A nonexistent key, or present
                        // values contradicting the real entity, are refuted
                        // so the row stops blocking a template slot.
                        let entity = universe
                            .rows
                            .iter()
                            .find(|e| e.key_projection(schema).as_ref() == Some(&key));
                        match entity {
                            None => return Some(PlannedAction::Downvote { row: row_id }),
                            Some(e) if !e.subsumes(value) => {
                                return Some(PlannedAction::Downvote { row: row_id })
                            }
                            Some(_) => {}
                        }
                    }
                }
            }
        }
        None
    }

    /// Picks a known entity consistent with the row's current values and not
    /// yet represented in the table. For rows that already carry a full key
    /// no worker happens to know, the worker may *research* the entity in
    /// the reference source (verify_propensity), so correctly-keyed rows
    /// never orphan.
    fn entity_for(&mut self, row_value: &RowValue, universe: &GroundTruth) -> Option<usize> {
        let schema = &universe.schema;
        let first_key = *schema.key().first()?;
        let known_match = self.known_entity_for(row_value, universe, first_key);
        if known_match.is_some() {
            return known_match;
        }
        if row_value.has_full_key(schema)
            && self
                .rng
                .gen_bool(self.profile.verify_propensity.clamp(0.0, 1.0))
        {
            return universe.rows.iter().position(|e| e.subsumes(row_value));
        }
        None
    }

    fn known_entity_for(
        &self,
        row_value: &RowValue,
        universe: &GroundTruth,
        first_key: ColumnId,
    ) -> Option<usize> {
        // Values of the leading key column already visible anywhere.
        let taken: HashSet<&Value> = self
            .client
            .replica()
            .table()
            .iter()
            .filter_map(|(_, e)| e.value.get(first_key))
            .collect();
        self.known.iter().copied().find(|&i| {
            let entity = &universe.rows[i];
            if !entity.subsumes(row_value) {
                return false;
            }
            // If the row already names the entity (leading key filled),
            // it's the right one regardless of "taken".
            if row_value.has(first_key) {
                return true;
            }
            !taken.contains(entity.get(first_key).expect("complete entity"))
        })
    }

    /// Produces a plausible-but-wrong value for a column.
    fn corrupt(&mut self, correct: Value, column: ColumnId, universe: &GroundTruth) -> Value {
        match &correct {
            Value::Int(v) => {
                let delta = self.rng.gen_range(1..=5i64);
                Value::Int(if self.rng.gen_bool(0.5) {
                    v + delta
                } else {
                    (v - delta).max(0)
                })
            }
            Value::Bool(b) => Value::Bool(!b),
            Value::Date(d) => {
                let year = d.year() + if self.rng.gen_bool(0.5) { 1 } else { -1 };
                Value::Date(Date::new(year, d.month(), d.day()).unwrap_or(*d))
            }
            Value::Text(_) | Value::Float(_) => {
                // Swap in another entity's value for the same column (stays
                // inside any domain restriction).
                let i = self.rng.gen_range(0..universe.len());
                let alt = universe.rows[i]
                    .get(column)
                    .cloned()
                    .unwrap_or_else(|| correct.clone());
                if alt == correct {
                    // Give up rather than loop: a "wrong" value equal to the
                    // right one is harmless.
                    correct
                } else {
                    alt
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::soccer_universe;
    use crowdfill_model::{ClientId, Message, Operation};
    use crowdfill_sync::Replica;
    use std::sync::Arc;

    fn seeded_client(universe: &GroundTruth, n_rows: usize) -> (WorkerClient, Vec<Message>) {
        let mut cc = Replica::new(ClientId::CENTRAL, Arc::clone(&universe.schema));
        let mut history = Vec::new();
        for _ in 0..n_rows {
            history.push(cc.apply_local(&Operation::Insert).unwrap());
        }
        (
            WorkerClient::new(
                WorkerId(1),
                ClientId(1),
                Arc::clone(&universe.schema),
                &history,
            ),
            history,
        )
    }

    #[test]
    fn knowledge_respects_coverage() {
        let gt = soccer_universe(1, 200);
        let (client, _) = seeded_client(&gt, 1);
        let mut profile = WorkerProfile::nominal();
        profile.coverage = 0.3;
        let w = SimWorker::new(profile, client, &gt, 9);
        let k = w.knowledge_size();
        assert!((30..=90).contains(&k), "coverage 0.3 of 200 gave {k}");
    }

    #[test]
    fn decides_to_fill_empty_rows_with_key_first() {
        let gt = soccer_universe(1, 100);
        let (client, _) = seeded_client(&gt, 2);
        let mut w = SimWorker::new(WorkerProfile::nominal(), client, &gt, 9);
        let (action, lat) = w
            .decide(&gt, &crowdfill_model::QuorumMajority::of_three())
            .expect("worker knows plenty");
        match action {
            PlannedAction::Fill { column, .. } => {
                assert!(gt.schema.is_key(column), "key columns first");
            }
            other => panic!("expected a fill, got {other:?}"),
        }
        assert!(lat > 0.0);
    }

    #[test]
    fn execute_fizzles_on_stale_rows() {
        let gt = soccer_universe(1, 50);
        let (client, _) = seeded_client(&gt, 1);
        let mut w = SimWorker::new(WorkerProfile::nominal(), client, &gt, 9);
        let ghost = RowId::new(ClientId(7), 99);
        assert!(w
            .execute(&PlannedAction::Fill {
                row: ghost,
                column: ColumnId(0),
                value: Value::text("X"),
            })
            .is_none());
    }

    #[test]
    fn upvotes_known_correct_rows_and_downvotes_wrong_ones() {
        let gt = soccer_universe(1, 50);
        let (client, history) = seeded_client(&gt, 2);
        let mut profile = WorkerProfile::nominal();
        profile.coverage = 1.0; // knows everything
        profile.vote_propensity = 1.0;
        // Pin to pure voting: a correction would repair the corrupted row
        // on the spot and leave nothing to downvote.
        profile.correction_propensity = 0.0;
        let mut w = SimWorker::new(profile, client, &gt, 9);

        // Build one correct complete row and one corrupted complete row via
        // a second client.
        let mut other =
            WorkerClient::new(WorkerId(2), ClientId(2), Arc::clone(&gt.schema), &history);
        let rows: Vec<RowId> = other.replica().table().row_ids().collect();
        let correct = &gt.rows[0];
        let mut target = rows[0];
        for (col, v) in correct.iter() {
            let out = other.fill(target, col, v.clone()).unwrap();
            for o in &out {
                w.client.absorb(&o.msg);
            }
            target = out[0].msg.creates_row().unwrap();
        }
        // Corrupted copy of entity 1 (wrong caps) in the other seeded row.
        let wrong_entity = &gt.rows[1];
        let mut target2 = rows[1];
        for (col, v) in wrong_entity.iter() {
            let v = if col == ColumnId(3) {
                Value::int(5) // far outside the real caps
            } else {
                v.clone()
            };
            let out = other.fill(target2, col, v).unwrap();
            for o in &out {
                w.client.absorb(&o.msg);
            }
            target2 = out[0].msg.creates_row().unwrap();
        }

        // The worker must produce votes for both rows over repeated decisions.
        let mut saw_upvote = false;
        let mut saw_downvote = false;
        for _ in 0..20 {
            match w.decide(&gt, &crowdfill_model::QuorumMajority::of_three()) {
                Some((PlannedAction::Upvote { row }, _)) => {
                    saw_upvote = true;
                    w.execute(&PlannedAction::Upvote { row });
                }
                Some((PlannedAction::Downvote { row }, _)) => {
                    saw_downvote = true;
                    w.execute(&PlannedAction::Downvote { row });
                }
                Some((f @ (PlannedAction::Fill { .. } | PlannedAction::Modify { .. }), _)) => {
                    w.execute(&f);
                }
                None => break,
            }
            if saw_upvote && saw_downvote {
                break;
            }
        }
        assert!(saw_upvote, "never endorsed the correct row");
        assert!(saw_downvote, "never refuted the corrupted row");
    }

    #[test]
    fn corrupt_changes_ints_bools_dates() {
        let gt = soccer_universe(1, 50);
        let (client, _) = seeded_client(&gt, 1);
        let mut w = SimWorker::new(WorkerProfile::nominal(), client, &gt, 9);
        assert_ne!(w.corrupt(Value::int(83), ColumnId(3), &gt), Value::int(83));
        assert_eq!(
            w.corrupt(Value::bool(true), ColumnId(3), &gt),
            Value::bool(false)
        );
        let d = Value::date(1987, 6, 24);
        assert_ne!(w.corrupt(d.clone(), ColumnId(5), &gt), d);
    }
}
