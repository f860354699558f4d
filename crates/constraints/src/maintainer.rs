//! The Central Client and Probable Rows Invariant maintenance (paper §4.2).
//!
//! The Central Client (CC) is the only client allowed to insert rows. It
//! keeps the candidate table in a state where filling in empty values can
//! still produce a final table satisfying the values constraint, by
//! maintaining the **Probable Rows Invariant**: every template row `t ∈ T`
//! corresponds to a unique probable row `r` with `r ⊇ t` — equivalently, a
//! maximum matching of the template-to-probable-rows bipartite graph has
//! exactly `|T|` edges.
//!
//! After every table change CC brings its live [`Classifier`] up to date —
//! re-classifying only the key groups the message touched — and hands the
//! net change of the probable set to the matcher (row values are immutable
//! per id, so only *membership* changes), repairs the matching with
//! augmenting paths, and when a template row goes unmatched:
//!
//! 1. inserts a fresh row carrying the template's prescribed values, if that
//!    row would itself be probable;
//! 2. otherwise *shuffles* the matching (paper: finds another template row
//!    `t'` on an alternating path and frees that one instead) and inserts for
//!    `t'`;
//! 3. if no insertable template row can be freed, **drops** `t` from the
//!    template — the paper's degraded-continuation behavior; dropped rows
//!    are reported so callers may abort instead.
//!
//! ### Predicates extension
//! The paper's system implements values constraints only. We also support
//! predicate entries with *optimistic* edges: a partial row is connected to
//! `t` when every prescribed value matches exactly and every predicate is
//! either satisfied or its column is still empty; a complete row must
//! satisfy all entries strictly. This preserves the fulfillment theorem:
//! when every matched row is a condition-3 winner (complete, positive,
//! group-best), the derived final table satisfies the constraint.

use crate::probable::{Classifier, ProbableView};
use crowdfill_matching::{IncrementalMatcher, MatchCounts};
use crowdfill_model::{
    ClientId, ColumnId, Entry, Message, Operation, RowId, RowValue, Schema, ScoringRef, Template,
    TemplateRow,
};
use crowdfill_obs::metrics::Histogram;
use crowdfill_sync::Replica;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// What the Central Client has done so far ([`PriMaintainer::counts`];
/// its replica keeps its own): [`maintain`](PriMaintainer::maintain)
/// passes and the wall time of each, template rows given up on (paper
/// §4.2's degenerate case), its matcher's work, and where its
/// construction's time went.
#[derive(Debug, Clone, Default)]
pub struct PriCounts {
    pub refreshes: u64,
    pub refresh_ns: Histogram,
    pub template_drops: u64,
    pub matching: MatchCounts,
    pub build: BuildSplit,
}

/// The wall time of each phase of a Central Client's construction, in
/// order ([`PriMaintainer::new`]; a restore applies no ops).
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildSplit {
    /// Applying the template's ops to the fresh replica.
    pub ops: Duration,
    /// Entering the live template into the matcher.
    pub lefts: Duration,
    /// Classifying the table.
    pub classify: Duration,
    /// Entering the probable rows and their edges into the matcher.
    pub rights: Duration,
    /// The repair and, for a new Central Client, the free-left loop.
    pub repair: Duration,
}

/// A template row's index in the *original* user template. Stable across
/// drops, so reports stay meaningful.
pub type TemplateIdx = usize;

/// The Central Client: a replica plus PRI bookkeeping.
#[derive(Clone)]
pub struct PriMaintainer {
    replica: Replica,
    scoring: ScoringRef,
    /// Live template rows (original index, row), ascending by index so a
    /// row is found by binary search. Dropped rows are removed.
    template: Vec<(TemplateIdx, TemplateRow)>,
    /// Template rows CC had to give up on (paper §4.2's degenerate case).
    dropped: Vec<(TemplateIdx, TemplateRow)>,
    /// Live template rows (left) against probable rows (right). Its matching
    /// is a pure function of the mutation history, so two maintainers fed
    /// identical messages make identical decisions (the batched server
    /// relies on that for cross-instance history identity).
    matcher: IncrementalMatcher<TemplateIdx, RowId>,
    /// The distinct template rows, indexed by matcher class, each with its
    /// number of live members. Equal rows have equal edges, so a class holds
    /// one adjacency list; a class with no live member takes no new edges.
    template_classes: Vec<(TemplateRow, usize)>,
    /// The replica's live probable-row classification. Its probable set is
    /// the matcher's right vertices as of the last sync, plus the pending
    /// delta; its winner count lets [`is_fulfilled`] reject in O(1) without
    /// deriving the final table (a matching covering the template needs at
    /// least `template.len()` final rows).
    ///
    /// [`is_fulfilled`]: Self::is_fulfilled
    classes: Classifier,
    /// Messages CC has generated and not yet handed to the caller, each
    /// with the column it filled if it is a fill (a template value).
    outbox: Vec<(Message, Option<ColumnId>)>,
    /// What `counts` reports but the matcher's.
    counts: PriCounts,
}

impl PriMaintainer {
    /// Creates the CC for a task: populates the candidate table with the
    /// template rows (upvoting fully-prescribed complete ones, as if workers
    /// had completed them) and establishes the PRI.
    ///
    /// Call [`take_outbox`](Self::take_outbox) afterwards to collect the
    /// initialization messages for broadcast.
    ///
    /// It applies the template's ops to a fresh replica, then builds the
    /// rest as [`restore`](Self::restore) does, and runs
    /// [`maintain`](Self::maintain)'s free-left loop once.
    pub fn new(schema: Arc<Schema>, scoring: ScoringRef, template: &Template) -> PriMaintainer {
        let mut replica = Replica::new(ClientId::CENTRAL, schema);
        let mut outbox = Vec::new();
        let mut ops = Duration::ZERO;
        timed(&mut ops, || {
            for trow in template.rows() {
                insert_template_row(&mut replica, trow, |_, msg, filled| {
                    outbox.push((msg, filled))
                });
            }
        });
        let template = template.rows().iter().cloned().enumerate().collect();
        let mut m = PriMaintainer::build(scoring, replica, template, Vec::new(), outbox);
        let mut cover = Duration::ZERO;
        timed(&mut cover, || m.cover());
        let build = &mut m.counts.build;
        (build.ops, build.repair) = (ops, build.repair + cover);
        // Its rights, repair and free-left loop are its maintenance pass.
        let maintained = build.rights + build.repair;
        m.counts.refreshes += 1;
        m.counts.refresh_ns.record_duration(maintained);
        m
    }

    /// Rebuilds the CC from checkpointed state (DESIGN.md §14): a restored
    /// replica plus the live/dropped template partition as of the
    /// checkpoint. The matching, probable set, and final-row count are all
    /// *derived* state, so they are recomputed rather than stored; crucially
    /// this emits **no messages** — recovery must reproduce history, not
    /// extend it. Recovered history always ends on a submit boundary, where
    /// maintenance had just run, so the recomputed maximum matching covers
    /// the live template; if it somehow does not, the next incoming message
    /// triggers ordinary maintenance and journals its repairs with that op.
    pub fn restore(
        scoring: ScoringRef,
        replica: Replica,
        mut template: Vec<(TemplateIdx, TemplateRow)>,
        dropped: Vec<(TemplateIdx, TemplateRow)>,
    ) -> PriMaintainer {
        template.sort_by_key(|(idx, _)| *idx);
        let m = PriMaintainer::build(scoring, replica, template, dropped, Vec::new());
        if !m.invariant_holds() {
            crowdfill_obs::obs_warn!(
                "constraints",
                "PRI not covered after restore; deferring repair to next message";
                matched => m.matcher.matching_size() as u64,
                template => m.template.len() as u64,
            );
        }
        m
    }

    /// The constructor tail new and restored Central Clients share, over a
    /// replica that holds the table: every live template row enters the
    /// matcher at once, the table is classified once, every probable row
    /// enters with its edges at once, and one repair matches them.
    ///
    /// The matching is the one the row-at-a-time constructor reached: the
    /// lefts enter in ascending index order and the probable rows in
    /// ascending id order either way, the bulk calls leave the slots and
    /// edge positions that one call per vertex does, and no choice is made
    /// before the repair (DESIGN.md §8).
    fn build(
        scoring: ScoringRef,
        replica: Replica,
        template: Vec<(TemplateIdx, TemplateRow)>,
        dropped: Vec<(TemplateIdx, TemplateRow)>,
        outbox: Vec<(Message, Option<ColumnId>)>,
    ) -> PriMaintainer {
        let mut build = BuildSplit::default();
        let (matcher, template_classes) = timed(&mut build.lefts, || template_lefts(&template));
        let classes = timed(&mut build.classify, || {
            let schema = Arc::clone(replica.schema());
            Classifier::new(schema, Arc::clone(&scoring), replica.table())
        });
        let mut m = PriMaintainer {
            classes,
            replica,
            scoring,
            template,
            dropped,
            matcher,
            template_classes,
            outbox,
            counts: PriCounts::default(),
        };
        timed(&mut build.rights, || {
            // The probable set, ascending, read off the table in one walk.
            let mut probable = m.classes.probable().iter().peekable();
            let rows = m.replica.table().iter();
            let rows = rows.filter(|(id, _)| probable.next_if(|p| **p == *id).is_some());
            let rows = rows.map(|(id, e)| (id, &e.value));
            add_probable(
                &mut m.matcher,
                &m.template_classes,
                m.replica.schema(),
                rows,
            );
        });
        timed(&mut build.repair, || m.matcher.repair());
        m.counts.build = build;
        m
    }

    /// CC's replica (read access).
    pub fn replica(&self) -> &Replica {
        &self.replica
    }

    /// What this Central Client has done since it was made or restored.
    pub fn counts(&self) -> PriCounts {
        let matching = self.matcher.counts();
        PriCounts {
            matching,
            ..self.counts.clone()
        }
    }

    /// Absorbs one recovered message into CC's replica WITHOUT running
    /// maintenance. Journal replay must reproduce history, not extend it:
    /// the repairs CC generated for this message are themselves later
    /// entries in the journal, so re-running maintenance here would emit
    /// them twice. Nor is the classification kept up: call
    /// [`rederive`](Self::rederive) once after the whole replay to rebuild
    /// it, and the matching, over the final replica state.
    pub fn replay_message(&mut self, msg: &Message) {
        self.replica.process(msg);
    }

    /// Replays a journaled template-drop event: moves original template row
    /// `idx` from the live template to the dropped list. Drops are decided
    /// by the *pre-crash* maintainer (they depend on its matching, which is
    /// not checkpointed), so recovery takes them from the journal instead of
    /// re-deriving them. No-op if `idx` is not live (e.g. the snapshot
    /// already reflects the drop and the journal frame overlaps it).
    pub fn replay_template_drop(&mut self, idx: TemplateIdx) {
        if self.drop_template_row(idx) {
            self.matcher.repair();
        }
    }

    /// Raises CC's row-id counter to at least `n` (recovery bookkeeping:
    /// replayed CC messages go through [`replay_message`](Self::replay_message),
    /// which — unlike the original `apply_local` — does not advance it).
    pub fn resume_seq_at_least(&mut self, n: u64) {
        self.replica.resume_seq_at_least(n);
    }

    /// Recomputes the derived state — probable set, matching, final-row
    /// count — after a journal replay, emitting no messages (the same
    /// deferred-repair contract as [`restore`](Self::restore)).
    pub fn rederive(&mut self) {
        self.classes.rebuild(self.replica.table());
        self.sync_probable_set();
        self.matcher.repair();
        if !self.invariant_holds() {
            crowdfill_obs::obs_warn!(
                "constraints",
                "PRI not covered after replay; deferring repair to next message";
                matched => self.matcher.matching_size() as u64,
                template => self.template.len() as u64,
            );
        }
    }

    /// The live template (original indexes preserved).
    pub fn live_template(&self) -> &[(TemplateIdx, TemplateRow)] {
        &self.template
    }

    /// Template rows that had to be dropped to keep the PRI maintainable.
    pub fn dropped_template_rows(&self) -> &[(TemplateIdx, TemplateRow)] {
        &self.dropped
    }

    /// The current probable-row set.
    pub fn probable_set(&self) -> &BTreeSet<RowId> {
        self.classes.probable()
    }

    /// The live classification of CC's replica.
    pub fn classification(&self) -> &Classifier {
        &self.classes
    }

    /// CC's table and its classification: what the compensation estimator
    /// reads (§5.3).
    pub fn view(&self) -> ProbableView<'_> {
        ProbableView::new(self.replica.table(), &self.classes)
    }

    /// The probable row currently matched to original template row `idx`.
    pub fn matched_row(&self, idx: TemplateIdx) -> Option<RowId> {
        self.matcher.matched_right(&idx).copied()
    }

    /// Edges the PRI graph holds: one per (template class, probable row).
    pub fn edges_held(&self) -> usize {
        self.matcher.edge_count()
    }

    /// Drains CC's pending messages (inserts/fills/upvotes it generated).
    /// The caller must apply them to the master table and broadcast them.
    pub fn take_outbox(&mut self) -> Vec<Message> {
        let outbox = self.take_outbox_filled().into_iter();
        outbox.map(|(msg, _)| msg).collect()
    }

    /// [`take_outbox`](Self::take_outbox), each message with the column it
    /// filled if it is a fill: CC applied it to its replica already, so the
    /// replaced row is gone and only CC can still say which column that was.
    pub fn take_outbox_filled(&mut self) -> Vec<(Message, Option<ColumnId>)> {
        std::mem::take(&mut self.outbox)
    }

    /// Processes a message that arrived at CC (any worker message the server
    /// broadcasts), then re-establishes the PRI. New CC messages appear in
    /// the outbox. The same as [`absorb`](Self::absorb) followed by
    /// [`maintain`](Self::maintain).
    pub fn on_message(&mut self, msg: &Message) {
        self.absorb(msg);
        self.maintain();
    }

    /// The first half of [`on_message`](Self::on_message): processes `msg`
    /// and re-classifies what it touched, without maintenance — so a reader
    /// of [`view`](Self::view) sees the table after the message and before
    /// CC's repairs.
    pub fn absorb(&mut self, msg: &Message) {
        self.replica.process(msg);
        self.classes.update(self.replica.table(), msg);
    }

    /// Fulfillment check: does the final table derived from the current
    /// candidate table satisfy the (live) values/predicates constraint?
    ///
    /// Note this is *not* "is CC's current matching made of winners": the
    /// maintenance matching maximizes coverage of the template by probable
    /// rows (which include zero-score contenders), so it may pin a template
    /// row to a still-open row even though a finished winner could serve it.
    /// Satisfaction is therefore checked directly against the derived final
    /// table, with its own unique-witness matching.
    pub fn is_fulfilled(&self) -> bool {
        // O(1) necessary condition first: the unique-witness matching cannot
        // cover the template with fewer final rows than live template rows,
        // and the classification already counts the final rows (the
        // per-key-group winners). This skips the full derivation on the vast
        // majority of mid-collection checks.
        if self.classes.winners() < self.template.len() {
            return false;
        }
        let final_table = crowdfill_model::derive_final_table(
            self.replica.table(),
            self.replica.schema(),
            &*self.scoring,
        );
        crowdfill_model::rows_satisfied_by(self.template.iter().map(|(_, r)| r), &final_table)
    }

    /// Whether the PRI currently holds (matching covers the live template).
    pub fn invariant_holds(&self) -> bool {
        self.matcher.matching_size() == self.template.len()
    }

    // ---- internals -------------------------------------------------------

    /// Inserts a row carrying `trow`'s prescribed values, classifying each
    /// message and queueing it.
    fn insert_classified(&mut self, trow: &TemplateRow) -> RowId {
        let (classes, outbox) = (&mut self.classes, &mut self.outbox);
        insert_template_row(&mut self.replica, trow, |replica, msg, filled| {
            classes.update(replica.table(), &msg);
            outbox.push((msg, filled));
        })
    }

    /// Would a freshly-inserted row with `trow`'s prescribed values be
    /// probable right now? (Paper §4.2's "inserting row q with value t̄ does
    /// not always make q probable".)
    fn insertable(&self, trow: &TemplateRow) -> bool {
        let schema = self.replica.schema();
        let value = trow.prescribed_row_value();
        let complete = value.is_complete(schema);
        // A fresh row completed by CC would also be auto-upvoted; its counts
        // come from the vote histories.
        let upvotes = if complete {
            self.replica.upvote_history().get(&value) + 1
        } else {
            0
        };
        let downvotes = self.replica.downvote_history().sum_subsets_of(&value);
        let score = self.scoring.score(upvotes, downvotes);
        if score < 0 {
            // Failure case 1: the template value has been downvoted into
            // unacceptability.
            return false;
        }
        let table = self.replica.table();
        match table.key_of(&value) {
            None => score == 0,
            Some(key) => {
                // Scores of existing same-key rows. If the new row would be
                // complete, CC's auto-upvote also bumps every *equal-valued*
                // row, so account for that when projecting their scores.
                let mut best_other = 0i64;
                for &id in table.key_group(&key) {
                    let e = table.get(id).expect("indexed row exists");
                    let up = if complete && e.value == value {
                        e.upvotes + 1
                    } else {
                        e.upvotes
                    };
                    best_other = best_other.max(self.scoring.score(up, e.downvotes));
                }
                if score == 0 {
                    best_other <= 0
                } else {
                    // The new row has the highest id, so an equal-score
                    // incumbent wins the tie: require strictly greater.
                    score > best_other
                }
            }
        }
    }

    /// The second half of [`on_message`](Self::on_message), after
    /// [`absorb`](Self::absorb): hands the probable set's change to the
    /// matcher, repairs, and restores the PRI by insertion / shuffle /
    /// template-drop.
    pub fn maintain(&mut self) {
        self.counts.refreshes += 1;
        let started = Instant::now();
        self.sync_probable_set();
        self.matcher.repair();
        self.cover();
        self.counts.refresh_ns.record_duration(started.elapsed());
    }

    /// Restores the matching to cover the whole live template after a
    /// repair, lowest uncovered row first (determinism): by insertion,
    /// shuffle or template drop.
    fn cover(&mut self) {
        while let Some(&t) = self.matcher.lowest_free_left() {
            let trow = self.template_row(t).clone();

            if self.insertable(&trow) {
                let row = self.insert_classified(&trow);
                self.sync_probable_set();
                debug_assert!(self.classes.is_probable(row), "inserted row not probable");
                self.matcher.repair();
                continue;
            }

            // Shuffle: free some other (insertable) template row instead.
            let mut donors = self.matcher.exchangeable_lefts(&t);
            donors.sort_unstable();
            let donor = donors
                .iter()
                .copied()
                .find(|d| self.insertable(self.template_row(*d)));
            match donor {
                Some(d) => {
                    let ok = self.matcher.exchange(&t, &d);
                    debug_assert!(ok, "exchangeable donor must be reachable");
                    let drow = self.template_row(d).clone();
                    let row = self.insert_classified(&drow);
                    self.sync_probable_set();
                    debug_assert!(self.classes.is_probable(row));
                    self.matcher.repair();
                }
                None => {
                    // Degenerate case: drop t from the template and continue
                    // with the reduced constraint (paper §4.2).
                    let live = self.drop_template_row(t);
                    debug_assert!(live, "free left is a live template row");
                    self.counts.template_drops += 1;
                    crowdfill_obs::obs_warn!(
                        "constraints",
                        "PRI degenerate case: dropped template row";
                        template_idx => t,
                    );
                    self.matcher.repair();
                }
            }
        }
        debug_assert!(self.matcher.check_consistency());
    }

    fn template_pos(&self, idx: TemplateIdx) -> Option<usize> {
        self.template.binary_search_by_key(&idx, |(i, _)| *i).ok()
    }

    fn template_row(&self, idx: TemplateIdx) -> &TemplateRow {
        &self.template[self.template_pos(idx).expect("live template row")].1
    }

    /// Moves template row `idx` from the live template (and the matcher) to
    /// the dropped list. Returns `false` if it is not live.
    fn drop_template_row(&mut self, idx: TemplateIdx) -> bool {
        let Some(pos) = self.template_pos(idx) else {
            return false;
        };
        let dropped = self.template.remove(pos);
        self.matcher.remove_left(&idx);
        let (_, live) = self
            .template_classes
            .iter_mut()
            .find(|(row, live)| *live > 0 && *row == dropped.1)
            .expect("a live template row has a class");
        *live -= 1;
        self.dropped.push(dropped);
        true
    }

    /// Applies the classification's net change since the last sync to the
    /// matcher: removals, then additions, each ascending — so the matching
    /// stays the same pure function of the mutation history. Row values are
    /// immutable, so existing edges never change; only vertices enter and
    /// leave.
    fn sync_probable_set(&mut self) {
        let (removed, added) = self.classes.take_delta();
        for id in &removed {
            self.matcher.remove_right(id);
        }
        let table = self.replica.table();
        let rows = added.into_iter().map(|id| {
            let entry = table.get(id).expect("probable row exists");
            (id, &entry.value)
        });
        add_probable(
            &mut self.matcher,
            &self.template_classes,
            self.replica.schema(),
            rows,
        );
    }
}

/// Runs `f`, its wall time in `phase`.
fn timed<T>(phase: &mut Duration, f: impl FnOnce() -> T) -> T {
    let started = Instant::now();
    let out = f();
    *phase = started.elapsed();
    out
}

/// Enters probable `rows`, ascending, into `matcher`, each with an edge to
/// every live template class whose edge condition holds.
fn add_probable<'a>(
    matcher: &mut IncrementalMatcher<TemplateIdx, RowId>,
    template_classes: &[(TemplateRow, usize)],
    schema: &Schema,
    rows: impl Iterator<Item = (RowId, &'a RowValue)>,
) {
    matcher.add_rights(rows.map(|(id, value)| {
        let complete = value.is_complete(schema);
        let classes = template_classes.iter().enumerate();
        let classes = classes.filter(move |(_, (t, live))| *live > 0 && edge(t, value, complete));
        (id, classes.map(|(class, _)| class))
    }));
}

/// A matcher holding the live template as its lefts, equal rows in one
/// class, and the distinct rows by class with their member counts.
fn template_lefts(
    template: &[(TemplateIdx, TemplateRow)],
) -> (
    IncrementalMatcher<TemplateIdx, RowId>,
    Vec<(TemplateRow, usize)>,
) {
    let mut classes: Vec<(TemplateRow, usize)> = Vec::new();
    let mut class_of: HashMap<&TemplateRow, usize> = HashMap::new();
    let mut matcher = IncrementalMatcher::new();
    matcher.add_lefts(template.iter().map(|(idx, row)| {
        let class = *class_of.entry(row).or_insert_with(|| {
            classes.push((row.clone(), 0));
            classes.len() - 1
        });
        classes[class].1 += 1;
        (*idx, class)
    }));
    (matcher, classes)
}

/// Inserts a row carrying `trow`'s prescribed values on `replica`, upvoting
/// it if the prescription is complete (paper §4.2 initialization rule).
/// Each message goes to `queue` with the column it filled, if a fill, as
/// soon as `replica` has applied it. Returns the final row id.
fn insert_template_row(
    replica: &mut Replica,
    trow: &TemplateRow,
    mut queue: impl FnMut(&Replica, Message, Option<ColumnId>),
) -> RowId {
    let mut cc_op = |replica: &mut Replica, op: &Operation| {
        let msg = replica
            .apply_local(op)
            .unwrap_or_else(|e| unreachable!("CC generated an invalid operation {op}: {e}"));
        let created = msg.creates_row();
        let filled = match op {
            Operation::Fill { column, .. } => Some(*column),
            _ => None,
        };
        queue(replica, msg, filled);
        created
    };
    let mut row = cc_op(replica, &Operation::Insert).expect("insert creates");
    for (col, v) in trow.prescribed_values() {
        let fill = Operation::Fill {
            row,
            column: col,
            value: v.clone(),
        };
        row = cc_op(replica, &fill).expect("fill creates");
    }
    let value = &replica.table().get(row).expect("row just created").value;
    if value.is_complete(replica.schema()) {
        cc_op(replica, &Operation::Upvote { row });
    }
    row
}

/// The PRI edge condition: prescribed values strict, predicates optimistic on
/// partial rows (see module docs). `complete` is `value`'s completeness.
fn edge(trow: &TemplateRow, value: &RowValue, complete: bool) -> bool {
    trow.entries().iter().all(|(col, entry)| match entry {
        Entry::Any => true,
        Entry::Value(v) => value.get(*col) == Some(v),
        Entry::Pred(p) => match value.get(*col) {
            Some(cell) => p.eval(cell),
            None => !complete,
        },
    })
}

impl std::fmt::Debug for PriMaintainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PriMaintainer")
            .field("live_template", &self.template.len())
            .field("dropped", &self.dropped.len())
            .field("probable", &self.classes.probable().len())
            .field("matching", &self.matcher.matching_size())
            .field("edges", &self.matcher.edge_count())
            .field("outbox", &self.outbox.len())
            .finish()
    }
}
