//! Probable-row classification (paper §4.1).
//!
//! A row is *probable* if, given the current candidate table, it may still
//! contribute to the final table:
//!
//! 1. it lacks values for some primary-key column and has a zero score; or
//! 2. it has all key columns filled and a zero score, and no other row with
//!    the same key has a positive score; or
//! 3. it is a complete row with a positive score and no same-key row has a
//!    greater score — among equal-score winners only one row (the lowest
//!    [`RowId`], our deterministic tie-break) is probable.
//!
//! All three conditions read only the row and its *key group*, so one
//! message can change the status of the rows of the groups it touches and
//! no others. [`Classifier`] keeps the classification live on that basis:
//! after each message it re-classifies the inserted and removed rows and
//! the members of each touched group, found through the candidate table's
//! key index. It is the one classification on the server — the Central
//! Client diffs its probable set into the PRI matcher, the compensation
//! estimator reads it through a [`ProbableView`], and recommendations read
//! its statuses. [`classify`], the batch sweep, is its test oracle.

use crowdfill_model::{
    CandidateTable, Key, Message, RowEntry, RowId, RowValue, Schema, Scoring, ScoringRef, Value,
};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// Why (or why not) a row is probable; useful for diagnostics and tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProbableStatus {
    /// Condition 1: incomplete key, zero score.
    OpenKey,
    /// Condition 2: full key, zero score, no positive competitor.
    Contender,
    /// Condition 3: complete, positive score, group winner.
    Winner,
    /// Negative score.
    Rejected,
    /// Zero score but a same-key row has a positive score.
    Shadowed,
    /// Positive score but a same-key row has a greater score, or loses the
    /// deterministic tie-break, or is not complete.
    Outscored,
}

impl ProbableStatus {
    /// Whether this status makes the row probable.
    pub fn is_probable(self) -> bool {
        matches!(
            self,
            ProbableStatus::OpenKey | ProbableStatus::Contender | ProbableStatus::Winner
        )
    }
}

/// Per-key-group aggregates needed to classify rows.
#[derive(Debug, Default, Clone)]
struct KeyGroup {
    /// Highest score among *complete* rows in the group.
    best_complete_score: Option<i64>,
    /// The complete row achieving `best_complete_score` (lowest id on ties).
    best_complete_row: Option<RowId>,
    /// Whether any row in the group (complete or not) has a positive score.
    any_positive: bool,
}

/// The result of one classification sweep: per-row statuses (ascending id
/// order — `CandidateTable` iteration order) plus the group-winner count.
///
/// `winners` equals the number of key groups with a positive-score complete
/// best row, which is by construction the size of the table's *derived final
/// table* — the PRI maintainer uses it as an O(1) necessary condition for
/// fulfillment (the full matching check can't succeed with fewer final rows
/// than live template rows).
#[derive(Debug, Default, Clone)]
pub struct Classification {
    /// `(row, status)` in ascending row-id order.
    pub statuses: Vec<(RowId, ProbableStatus)>,
    /// Number of rows classified [`ProbableStatus::Winner`].
    pub winners: usize,
}

impl Classification {
    /// The probable row ids, in deterministic (ascending) order.
    pub fn probable(&self) -> BTreeSet<RowId> {
        self.statuses
            .iter()
            .filter(|(_, s)| s.is_probable())
            .map(|(id, _)| *id)
            .collect()
    }
}

/// Classifies every row of a candidate table in one sweep: O(rows), an
/// independent grouping of its own (a hash of each row's key projection),
/// and so the oracle [`Classifier`] is checked against.
pub fn classify(table: &CandidateTable, schema: &Schema, scoring: &dyn Scoring) -> Classification {
    // Per-row facts gathered in one iteration: (id, score, group index).
    let mut rows: Vec<(RowId, i64, Option<usize>)> = Vec::with_capacity(table.len());
    let mut groups: Vec<KeyGroup> = Vec::new();
    let mut group_ids: HashMap<Vec<Value>, usize> = HashMap::new();

    for (id, entry) in table.iter() {
        let score = scoring.score(entry.upvotes, entry.downvotes);
        let group = entry.value.key_values(schema).map(|key| {
            let gi = *group_ids.entry(key).or_insert_with(|| {
                groups.push(KeyGroup::default());
                groups.len() - 1
            });
            let g = &mut groups[gi];
            if score > 0 {
                g.any_positive = true;
                if entry.value.is_complete(schema) {
                    // Ascending-id iteration + strict `>` = lowest-id ties.
                    if g.best_complete_score.is_none_or(|b| score > b) {
                        g.best_complete_score = Some(score);
                        g.best_complete_row = Some(id);
                    }
                }
            }
            gi
        });
        rows.push((id, score, group));
    }

    let mut out = Classification {
        statuses: Vec::with_capacity(rows.len()),
        winners: 0,
    };
    for (id, score, group) in rows {
        let status = if score < 0 {
            ProbableStatus::Rejected
        } else {
            match group {
                None => {
                    if score == 0 {
                        ProbableStatus::OpenKey
                    } else {
                        // Positive score without a full key is impossible for
                        // monotone scoring (incomplete rows can't be upvoted),
                        // but classify defensively.
                        ProbableStatus::Outscored
                    }
                }
                Some(gi) => {
                    let group = &groups[gi];
                    if score == 0 {
                        if group.any_positive {
                            ProbableStatus::Shadowed
                        } else {
                            ProbableStatus::Contender
                        }
                    } else if group.best_complete_row == Some(id) {
                        out.winners += 1;
                        ProbableStatus::Winner
                    } else {
                        ProbableStatus::Outscored
                    }
                }
            }
        };
        out.statuses.push((id, status));
    }
    out
}

/// Classifies every row of a candidate table (map form, for diagnostics).
pub fn classify_rows(
    table: &CandidateTable,
    schema: &Schema,
    scoring: &dyn Scoring,
) -> HashMap<RowId, ProbableStatus> {
    classify(table, schema, scoring)
        .statuses
        .into_iter()
        .collect()
}

/// The set of probable row ids, in deterministic (ascending) order.
pub fn probable_rows(
    table: &CandidateTable,
    schema: &Schema,
    scoring: &dyn Scoring,
) -> BTreeSet<RowId> {
    classify(table, schema, scoring).probable()
}

/// One row as the classifier last classified it.
#[derive(Debug, Clone)]
struct Classed {
    status: ProbableStatus,
    /// The row's value: once a `replace` has removed the row from the
    /// table, this is how its key group is found again.
    value: RowValue,
    /// The row's upvotes while it is a complete probable row (its entry in
    /// the upvote histogram), else `None`.
    counted: Option<u32>,
}

impl Classed {
    fn new(e: &RowEntry, status: ProbableStatus, schema: &Schema) -> Classed {
        let complete = status.is_probable() && e.value.is_complete(schema);
        Classed {
            status,
            value: e.value.clone(),
            counted: complete.then_some(e.upvotes),
        }
    }
}

/// The live probable-row classification of one candidate table (§4.1),
/// maintained message by message (see the module docs).
///
/// It holds each row's status, the probable set, the winner count (the size
/// of the derived final table) and a histogram of upvote counts over the
/// complete probable rows (the estimator's `|U|`, §5.3). Membership changes
/// since it was built accumulate until [`take_delta`](Self::take_delta)
/// hands them over, net:
/// the removed and the added rows since the previous call, each ascending —
/// exactly the two differences of the old and the new probable set.
#[derive(Clone)]
pub struct Classifier {
    schema: Arc<Schema>,
    scoring: ScoringRef,
    rows: HashMap<RowId, Classed>,
    probable: BTreeSet<RowId>,
    winners: usize,
    upvotes: BTreeMap<u32, usize>,
    /// Rows whose membership changed since the last `take_delta`, with
    /// whether they were probable then.
    pending: BTreeMap<RowId, bool>,
    /// Rows classified or dropped: what [`update`](Self::update) reports.
    visits: u64,
    /// The table's scan count as of the last update: a key-incomplete vote
    /// reached rows only if the count has moved since (an undo with nothing
    /// left to undo leaves the table untouched).
    scans_seen: u64,
}

/// What classifying a key group's members reads: its best complete score
/// (lowest id on ties) and whether any member scores positive.
struct GroupBest {
    best: Option<(i64, RowId)>,
    any_positive: bool,
}

impl GroupBest {
    /// Aggregates `members`, ascending.
    fn of(
        table: &CandidateTable,
        members: &[RowId],
        schema: &Schema,
        scoring: &dyn Scoring,
    ) -> Self {
        let mut group = GroupBest {
            best: None,
            any_positive: false,
        };
        for &id in members {
            let e = table.get(id).expect("indexed row exists");
            let score = scoring.score(e.upvotes, e.downvotes);
            if score > 0 {
                group.any_positive = true;
                if e.value.is_complete(schema) && group.best.is_none_or(|(b, _)| score > b) {
                    group.best = Some((score, id));
                }
            }
        }
        group
    }

    /// The status of member `id`, which scores `score`.
    fn status(&self, id: RowId, score: i64) -> ProbableStatus {
        if score < 0 {
            ProbableStatus::Rejected
        } else if score == 0 {
            if self.any_positive {
                ProbableStatus::Shadowed
            } else {
                ProbableStatus::Contender
            }
        } else if self.best.is_some_and(|(_, row)| row == id) {
            ProbableStatus::Winner
        } else {
            ProbableStatus::Outscored
        }
    }
}

/// The status of a row whose key is incomplete, scoring `score`:
/// condition 1 or nothing.
fn keyless_status(score: i64) -> ProbableStatus {
    match score {
        s if s < 0 => ProbableStatus::Rejected,
        0 => ProbableStatus::OpenKey,
        // Impossible for monotone scoring (incomplete rows can't be
        // upvoted), but classify defensively.
        _ => ProbableStatus::Outscored,
    }
}

impl Classifier {
    /// Classifies every row of `table` in one batch pass: each key group,
    /// then each row with an incomplete key. The probable set is built from
    /// one ascending run, not row by row. Nothing is pending: a reader of
    /// the delta takes the probable set as its start.
    pub fn new(schema: Arc<Schema>, scoring: ScoringRef, table: &CandidateTable) -> Classifier {
        let mut classed: Vec<(RowId, Classed)> = Vec::with_capacity(table.len());
        let score = |e: &RowEntry| scoring.score(e.upvotes, e.downvotes);
        for (_, members) in table.key_groups() {
            let group = GroupBest::of(table, members, &schema, &*scoring);
            for &id in members {
                let e = table.get(id).expect("indexed row exists");
                classed.push((id, Classed::new(e, group.status(id, score(e)), &schema)));
            }
        }
        for (id, e) in table.iter() {
            if !e.value.has_full_key(&schema) {
                classed.push((id, Classed::new(e, keyless_status(score(e)), &schema)));
            }
        }
        classed.sort_unstable_by_key(|(id, _)| *id);
        let mut upvotes = BTreeMap::new();
        for u in classed.iter().filter_map(|(_, c)| c.counted) {
            *upvotes.entry(u).or_insert(0) += 1;
        }
        let winner = |(_, c): &&(RowId, Classed)| c.status == ProbableStatus::Winner;
        let winners = classed.iter().filter(winner).count();
        let probable: BTreeSet<RowId> = (classed.iter())
            .filter(|(_, c)| c.status.is_probable())
            .map(|(id, _)| *id)
            .collect();
        Classifier {
            pending: BTreeMap::new(),
            probable,
            winners,
            upvotes,
            visits: classed.len() as u64,
            rows: classed.into_iter().collect(),
            scans_seen: table.scans(),
            schema,
            scoring,
        }
    }

    /// Re-classifies `table` from scratch (after messages were absorbed
    /// without [`update`](Self::update), e.g. a journal replay), keeping the
    /// pending delta relative to what the last `take_delta` reported.
    pub fn rebuild(&mut self, table: &CandidateTable) {
        let mut fresh = Classifier::new(Arc::clone(&self.schema), Arc::clone(&self.scoring), table);
        let mut pending = std::mem::take(&mut self.pending);
        for id in self.probable.symmetric_difference(&fresh.probable) {
            pending.entry(*id).or_insert(self.probable.contains(id));
        }
        fresh.pending = pending;
        *self = fresh;
    }

    /// Brings the classification up to date with `msg`, which `table` has
    /// just processed: re-classifies the rows it inserted and removed and
    /// the members of every key group it touched. Returns how many rows
    /// that re-classified.
    ///
    /// Only a vote on a key-incomplete vector (a downvote, or its undo)
    /// cannot name its groups up front: the table scanned for the rows it
    /// reached, and the update reads them from
    /// [`CandidateTable::last_scan`].
    pub fn update(&mut self, table: &CandidateTable, msg: &Message) -> usize {
        let before = self.visits;
        let mut ids: Vec<RowId> = Vec::new();
        let mut groups: Vec<Key> = Vec::new();
        match msg {
            Message::Insert { row } => ids.push(*row),
            Message::Replace { old, new, .. } => ids.extend([*old, *new]),
            Message::Upvote { value }
            | Message::UndoUpvote { value }
            | Message::Downvote { value }
            | Message::UndoDownvote { value } => match table.key_of(value) {
                Some(key) => groups.push(key),
                None if table.scans() != self.scans_seen => ids.extend(table.last_scan()),
                None => {}
            },
        }
        self.scans_seen = table.scans();
        ids.sort_unstable();
        ids.dedup();
        let mut keyless = Vec::new();
        for id in ids {
            groups.extend(self.rows.get(&id).and_then(|c| table.key_of(&c.value)));
            match table.get(id) {
                Some(entry) => match table.key_of(&entry.value) {
                    Some(key) => groups.push(key),
                    None => keyless.push(id),
                },
                None => self.forget(id),
            }
        }
        groups.sort_unstable();
        groups.dedup();
        for key in &groups {
            self.classify_group(table, table.key_group(key));
        }
        for id in keyless {
            self.classify_keyless(id, table.get(id).expect("present row"));
        }
        #[cfg(debug_assertions)]
        if let Some(d) = self.disagreement(table, &classify(table, &self.schema, &*self.scoring)) {
            panic!("live classification diverged from the batch one after {msg:?}: {d}");
        }
        (self.visits - before) as usize
    }

    /// Classifies one key group, `members` ascending: its aggregates first
    /// (the best complete score, lowest id on ties, and whether any member
    /// scores positive), then each member.
    fn classify_group(&mut self, table: &CandidateTable, members: &[RowId]) {
        let group = GroupBest::of(table, members, &self.schema, &*self.scoring);
        for &id in members {
            let e = table.get(id).expect("indexed row exists");
            let status = group.status(id, self.scoring.score(e.upvotes, e.downvotes));
            self.set(id, e, status);
        }
    }

    /// Classifies a row whose key is incomplete.
    fn classify_keyless(&mut self, id: RowId, e: &RowEntry) {
        let status = keyless_status(self.scoring.score(e.upvotes, e.downvotes));
        self.set(id, e, status);
    }

    fn set(&mut self, id: RowId, e: &RowEntry, status: ProbableStatus) {
        let now = Classed::new(e, status, &self.schema);
        let counted = now.counted;
        let before = self.rows.insert(id, now);
        self.account(
            id,
            before.map(|c| (c.status, c.counted)),
            Some((status, counted)),
        );
    }

    /// Drops a row the table no longer has.
    fn forget(&mut self, id: RowId) {
        if let Some(before) = self.rows.remove(&id) {
            self.account(id, Some((before.status, before.counted)), None);
        }
    }

    /// Moves one row's contribution to the aggregates from `before` to
    /// `after` (status and histogram entry; `None`: not in the table), and
    /// notes a membership change.
    fn account(
        &mut self,
        id: RowId,
        before: Option<(ProbableStatus, Option<u32>)>,
        after: Option<(ProbableStatus, Option<u32>)>,
    ) {
        self.visits += 1;
        let is = |c: Option<(ProbableStatus, Option<u32>)>, f: fn(ProbableStatus) -> bool| {
            c.is_some_and(|(s, _)| f(s))
        };
        let winner = |s| s == ProbableStatus::Winner;
        self.winners =
            self.winners + usize::from(is(after, winner)) - usize::from(is(before, winner));
        if let Some(u) = before.and_then(|(_, counted)| counted) {
            let n = self.upvotes.get_mut(&u).expect("counted row");
            *n -= 1;
            if *n == 0 {
                self.upvotes.remove(&u);
            }
        }
        if let Some(u) = after.and_then(|(_, counted)| counted) {
            *self.upvotes.entry(u).or_insert(0) += 1;
        }
        let (was, now) = (
            is(before, ProbableStatus::is_probable),
            is(after, ProbableStatus::is_probable),
        );
        if was != now {
            if now {
                self.probable.insert(id);
            } else {
                self.probable.remove(&id);
            }
            self.pending.entry(id).or_insert(was);
        }
    }

    /// The net membership change since the previous call: `(removed,
    /// added)`, each in ascending [`RowId`] order.
    pub fn take_delta(&mut self) -> (Vec<RowId>, Vec<RowId>) {
        let (mut removed, mut added) = (Vec::new(), Vec::new());
        for (id, was) in std::mem::take(&mut self.pending) {
            match (was, self.probable.contains(&id)) {
                (true, false) => removed.push(id),
                (false, true) => added.push(id),
                _ => {}
            }
        }
        (removed, added)
    }

    /// A row's status (`None` for a row the table does not hold).
    pub fn status(&self, id: RowId) -> Option<ProbableStatus> {
        self.rows.get(&id).map(|c| c.status)
    }

    /// Whether `id` is a probable row.
    pub fn is_probable(&self, id: RowId) -> bool {
        self.probable.contains(&id)
    }

    /// The probable rows, ascending.
    pub fn probable(&self) -> &BTreeSet<RowId> {
        &self.probable
    }

    /// Rows classified [`ProbableStatus::Winner`]: the derived final
    /// table's size.
    pub fn winners(&self) -> usize {
        self.winners
    }

    /// `(upvotes, rows)` over the complete probable rows, ascending by
    /// upvotes.
    pub fn upvote_histogram(&self) -> impl Iterator<Item = (u32, usize)> + '_ {
        self.upvotes.iter().map(|(u, n)| (*u, *n))
    }

    /// Where this classification of `table` differs from the batch one —
    /// a status, the winner count, the probable set or the upvote histogram
    /// — or `None` if it does not.
    pub fn disagreement(&self, table: &CandidateTable, batch: &Classification) -> Option<String> {
        if self.rows.len() != batch.statuses.len() {
            return Some(format!(
                "{} rows, batch {}",
                self.rows.len(),
                batch.statuses.len()
            ));
        }
        for &(id, status) in &batch.statuses {
            if self.status(id) != Some(status) {
                return Some(format!("{id}: {:?}, batch {status:?}", self.status(id)));
            }
        }
        if self.winners != batch.winners {
            return Some(format!("{} winners, batch {}", self.winners, batch.winners));
        }
        if self.probable != batch.probable() {
            return Some("probable set".into());
        }
        let mut upvotes = BTreeMap::new();
        for &(id, status) in &batch.statuses {
            let e = table.get(id).expect("classified row exists");
            if status.is_probable() && e.value.is_complete(&self.schema) {
                *upvotes.entry(e.upvotes).or_insert(0) += 1;
            }
        }
        (self.upvotes != upvotes).then(|| "upvote histogram".to_string())
    }
}

impl std::fmt::Debug for Classifier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Classifier")
            .field("rows", &self.rows.len())
            .field("probable", &self.probable.len())
            .field("winners", &self.winners)
            .field("visits", &self.visits)
            .finish()
    }
}

/// What the compensation estimator reads (§5.3): a candidate table and its
/// live classification, as the Central Client holds them.
#[derive(Debug, Clone, Copy)]
pub struct ProbableView<'a> {
    table: &'a CandidateTable,
    classes: &'a Classifier,
}

impl<'a> ProbableView<'a> {
    /// Pairs a table with its classification.
    pub fn new(table: &'a CandidateTable, classes: &'a Classifier) -> ProbableView<'a> {
        ProbableView { table, classes }
    }

    /// The classification.
    pub fn classification(&self) -> &'a Classifier {
        self.classes
    }

    /// The probable rows that can equal or subsume `v`, and whether finding
    /// them took a scan: the probable members of `v`'s key group when its
    /// key is full (every row equal to or subsuming `v` holds that key),
    /// else every probable row.
    pub fn near(&self, v: &RowValue) -> (impl Iterator<Item = &'a RowValue> + 'a, bool) {
        let (table, classes) = (self.table, self.classes);
        let group = table.key_of(v).map(|key| table.key_group(&key));
        let scan = group.is_none();
        let grouped = group
            .into_iter()
            .flatten()
            .filter(move |id| classes.is_probable(**id));
        let all = scan
            .then(|| classes.probable().iter())
            .into_iter()
            .flatten();
        let rows = grouped
            .chain(all)
            .map(move |id| &table.get(*id).expect("probable row exists").value);
        (rows, scan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdfill_model::{
        ClientId, Column, ColumnId, DataType, QuorumMajority, RowEntry, RowValue, Value,
    };

    fn schema() -> Schema {
        Schema::new(
            "T",
            vec![
                Column::new("name", DataType::Text),
                Column::new("nat", DataType::Text),
                Column::new("pos", DataType::Text),
            ],
            &["name", "nat"],
        )
        .unwrap()
    }

    fn rv(pairs: &[(u16, &str)]) -> RowValue {
        RowValue::from_pairs(pairs.iter().map(|(c, v)| (ColumnId(*c), Value::text(*v))))
    }

    fn id(seq: u64) -> RowId {
        RowId::new(ClientId(1), seq)
    }

    fn entry(v: RowValue, up: u32, down: u32) -> RowEntry {
        RowEntry {
            value: v,
            upvotes: up,
            downvotes: down,
        }
    }

    /// The batch statuses — checked against a classifier built over the
    /// same table.
    fn classify(rows: Vec<(RowId, RowEntry)>) -> HashMap<RowId, ProbableStatus> {
        let s = Arc::new(schema());
        let mut t = CandidateTable::new(&s);
        for (i, e) in rows {
            t.insert(i, e);
        }
        let scoring = Arc::new(QuorumMajority::of_three());
        let live = Classifier::new(Arc::clone(&s), scoring.clone(), &t);
        assert_eq!(
            live.disagreement(&t, &super::classify(&t, &s, &*scoring)),
            None
        );
        classify_rows(&t, &s, &*scoring)
    }

    #[test]
    fn empty_row_is_open_key() {
        let c = classify(vec![(id(0), entry(RowValue::empty(), 0, 0))]);
        assert_eq!(c[&id(0)], ProbableStatus::OpenKey);
        assert!(c[&id(0)].is_probable());
    }

    #[test]
    fn downvoted_incomplete_key_is_rejected() {
        // Condition 1 requires a zero score.
        let c = classify(vec![(id(0), entry(rv(&[(0, "A")]), 0, 2))]);
        assert_eq!(c[&id(0)], ProbableStatus::Rejected);
    }

    #[test]
    fn full_key_zero_score_is_contender() {
        let c = classify(vec![(id(0), entry(rv(&[(0, "A"), (1, "X")]), 0, 0))]);
        assert_eq!(c[&id(0)], ProbableStatus::Contender);
    }

    #[test]
    fn contender_shadowed_by_positive_sibling() {
        let partial = rv(&[(0, "A"), (1, "X")]);
        let complete = rv(&[(0, "A"), (1, "X"), (2, "FW")]);
        let c = classify(vec![
            (id(0), entry(partial, 0, 0)),
            (id(1), entry(complete, 2, 0)),
        ]);
        assert_eq!(c[&id(0)], ProbableStatus::Shadowed);
        assert_eq!(c[&id(1)], ProbableStatus::Winner);
    }

    #[test]
    fn winner_is_highest_score() {
        let a = rv(&[(0, "A"), (1, "X"), (2, "FW")]);
        let b = rv(&[(0, "A"), (1, "X"), (2, "MF")]);
        let c = classify(vec![
            (id(0), entry(a, 2, 1)), // score 1
            (id(1), entry(b, 3, 0)), // score 3
        ]);
        assert_eq!(c[&id(0)], ProbableStatus::Outscored);
        assert_eq!(c[&id(1)], ProbableStatus::Winner);
    }

    #[test]
    fn tie_breaks_to_lowest_id() {
        let a = rv(&[(0, "A"), (1, "X"), (2, "FW")]);
        let b = rv(&[(0, "A"), (1, "X"), (2, "MF")]);
        let c = classify(vec![(id(7), entry(a, 2, 0)), (id(3), entry(b, 2, 0))]);
        assert_eq!(c[&id(3)], ProbableStatus::Winner);
        assert_eq!(c[&id(7)], ProbableStatus::Outscored);
    }

    #[test]
    fn different_keys_do_not_interfere() {
        let a = rv(&[(0, "A"), (1, "X"), (2, "FW")]);
        let b = rv(&[(0, "B"), (1, "X"), (2, "MF")]);
        let c = classify(vec![(id(0), entry(a, 5, 0)), (id(1), entry(b, 2, 0))]);
        assert_eq!(c[&id(0)], ProbableStatus::Winner);
        assert_eq!(c[&id(1)], ProbableStatus::Winner);
    }

    #[test]
    fn complete_zero_score_with_positive_sibling_not_probable() {
        let a = rv(&[(0, "A"), (1, "X"), (2, "FW")]);
        let b = rv(&[(0, "A"), (1, "X"), (2, "MF")]);
        let c = classify(vec![
            (id(0), entry(a, 1, 0)), // zero (below quorum)
            (id(1), entry(b, 2, 0)), // positive
        ]);
        assert_eq!(c[&id(0)], ProbableStatus::Shadowed);
        assert!(!c[&id(0)].is_probable());
    }

    #[test]
    fn probable_rows_set_is_ordered() {
        let s = schema();
        let mut t = CandidateTable::new(&s);
        t.insert(id(5), entry(RowValue::empty(), 0, 0));
        t.insert(id(2), entry(RowValue::empty(), 0, 0));
        let p = probable_rows(&t, &s, &QuorumMajority::of_three());
        let v: Vec<RowId> = p.into_iter().collect();
        assert_eq!(v, vec![id(2), id(5)]);
    }

    /// The §4.3 walkthrough's starting point: all four rows probable.
    #[test]
    fn paper_4_3_initial_classification() {
        let rows = vec![
            (
                id(1),
                entry(rv(&[(0, "Neymar"), (1, "Brazil"), (2, "FW")]), 0, 0),
            ),
            (
                id(2),
                entry(rv(&[(0, "Ronaldinho"), (1, "Brazil"), (2, "FW")]), 0, 1),
            ),
            (
                id(3),
                entry(rv(&[(0, "Messi"), (1, "Spain"), (2, "FW")]), 0, 0),
            ),
            (id(4), entry(rv(&[(2, "FW")]), 0, 0)),
        ];
        let c = classify(rows);
        // Row 2 has one downvote but score f(0,1)=0 — still probable.
        for i in 1..=4 {
            assert!(c[&id(i)].is_probable(), "row {i} should be probable");
        }
    }
}
