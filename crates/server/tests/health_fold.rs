//! The telemetry fold against the batch walks it replaced (DESIGN.md §11,
//! §15). A `health` report built from a collection's incrementally
//! advanced [`ProgressTracker`] must be exactly `==` what the parent
//! commit's `health::collect_windowed` computed by walking the whole log
//! — with the parent's `progress::collect`, a fresh tracker over the whole
//! log, as its progress section. Both walks are kept here, verbatim but
//! for the gauges the old one wrote as a side effect, as the oracle.
//!
//! Seeded walks: fills, competing fills from stale replicas, upvotes,
//! downvotes, undos, modify bundles, the Central Client's template fills
//! and drops, clock jumps past the window, and a backend reopened by
//! `open_or_recover` after `compact_storage` (the fold then sees only the
//! log suffix, and so does the oracle). The fold is advanced after every
//! submit and compared at every cut; each advance consumes exactly the
//! entries appended since the last one.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::path::PathBuf;
use std::sync::Arc;

use crowdfill_docstore::FsyncPolicy;
use crowdfill_model::{
    Column, ColumnId, DataType, Entry, Message, Predicate, QuorumMajority, RowId, RowValue, Schema,
    Template, TemplateRow, Value,
};
use crowdfill_obs::progress::{species_key, ProgressEstimate, SpeciesEstimator};
use crowdfill_pay::{Millis, WorkerId};
use crowdfill_server::health::{
    self, CollectionHealth, ColumnHealth, DurabilityHealth, HealthReport, WorkerHealth,
};
use crowdfill_server::persist::{open_or_recover, DurabilityOptions};
use crowdfill_server::{
    Backend, ColumnProgress, Outgoing, ProgressReport, ProgressTracker, TaskConfig, WorkerClient,
    DEFAULT_TARGET,
};
use crowdfill_sync::AppliedSeqs;

#[path = "../../pay/tests/support/oracle.rs"]
mod oracle;

// ---- the oracle: the parent's batch walks -----------------------------------

/// Row id → value: what a fill is attributed by (the column it added over
/// the replaced row's value).
type Rows = HashMap<RowId, RowValue>;

/// Every row value the oracle can know of: those the log in memory
/// created, and `start`, the live rows a recovered backend began from.
fn row_values(backend: &Backend, start: &Rows) -> Rows {
    let mut values = start.clone();
    values.extend(oracle::row_values(backend.trace()));
    values
}

/// The parent's `progress::ProgressTracker`, advanced once over the whole
/// log by `progress::collect`.
#[derive(Default)]
struct OracleTracker {
    parent: HashMap<RowId, RowId>,
    value_root: HashMap<RowValue, RowId>,
    overall: SpeciesEstimator,
    columns: BTreeMap<u16, SpeciesEstimator>,
    recent_at: VecDeque<u64>,
}

impl OracleTracker {
    fn lineage_root(&self, mut id: RowId) -> RowId {
        while let Some(&p) = self.parent.get(&id) {
            id = p;
        }
        id
    }

    fn advance(&mut self, backend: &Backend, start: &Rows) {
        let values = row_values(backend, start);
        for entry in backend.trace().entries() {
            let worker = entry.worker.map(|w| w.0 as u64).unwrap_or(u64::MAX);
            match &entry.msg {
                Message::Replace { old, new, value } => {
                    self.parent.insert(*new, *old);
                    let root = self.lineage_root(*old);
                    self.value_root.insert(value.clone(), root);
                    let Some(col) = values
                        .get(old)
                        .and_then(|old_value| old_value.added_column(value))
                    else {
                        continue;
                    };
                    self.observe(root, col.0, worker, entry.at.0);
                }
                Message::Upvote { value } => {
                    let Some(&root) = self.value_root.get(value) else {
                        continue;
                    };
                    for col in value.columns() {
                        self.observe(root, col.0, worker, entry.at.0);
                    }
                }
                _ => {}
            }
        }
    }

    fn observe(&mut self, root: RowId, col: u16, worker: u64, at_ms: u64) {
        let species = species_key(root.client.0 as u64, root.seq, col as u64);
        self.overall.observe(species, worker);
        self.columns
            .entry(col)
            .or_default()
            .observe(species, worker);
        if self.recent_at.len() == 64 {
            self.recent_at.pop_front();
        }
        self.recent_at.push_back(at_ms);
    }

    fn report(&self, backend: &Backend, target: f64) -> ProgressReport {
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

fn binary_entropy(p: f64) -> f64 {
    let mut h = 0.0;
    for q in [p, 1.0 - p] {
        if q > 0.0 {
            h -= q * q.log2();
        }
    }
    h
}

/// The parent's `health::collect_windowed(backend, 60_000)`.
fn oracle(backend: &Backend, start: &Rows) -> HealthReport {
    let window_ms = 60_000;
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
        let mut weighted_entropy = 0.0;
        let mut vote_weight = 0.0;
        for (_, e) in table.iter() {
            let votes = e.upvotes + e.downvotes;
            if votes == 0 || !e.value.has(col) {
                continue;
            }
            let p = e.upvotes as f64 / votes as f64;
            weighted_entropy += binary_entropy(p) * votes as f64;
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

    let cutoff = now_ms.saturating_sub(window_ms);
    let span_ms = window_ms.min(now_ms);
    let mut parent: HashMap<RowId, RowId> = HashMap::new();
    for entry in backend.trace().entries() {
        if let Message::Replace { old, new, .. } = &entry.msg {
            parent.insert(*new, *old);
        }
    }
    fn lineage_root(parent: &HashMap<RowId, RowId>, mut id: RowId) -> RowId {
        while let Some(&p) = parent.get(&id) {
            id = p;
        }
        id
    }
    let values = row_values(backend, start);
    let mut covered: HashSet<(RowId, u16)> = HashSet::new();
    let mut fills_in_window = 0u64;
    let mut novel_in_window = 0u64;
    let mut ops_in_window: HashMap<WorkerId, u64> = HashMap::new();
    let mut votes: Vec<(WorkerId, bool, &RowValue)> = Vec::new();
    for entry in backend.trace().entries() {
        let Some(worker) = entry.worker else { continue };
        let in_window = entry.at.0 > cutoff || (cutoff == 0 && entry.at.0 == 0);
        if !entry.auto_upvote && in_window {
            *ops_in_window.entry(worker).or_insert(0) += 1;
        }
        match &entry.msg {
            Message::Replace { old, new: _, value } => {
                let col = values
                    .get(old)
                    .and_then(|old_value| old_value.added_column(value));
                if let Some(col) = col {
                    let root = lineage_root(&parent, *old);
                    let novel = covered.insert((root, col.0));
                    if in_window {
                        fills_in_window += 1;
                        if novel {
                            novel_in_window += 1;
                        }
                    }
                }
            }
            Message::Upvote { value } if !entry.auto_upvote => {
                votes.push((worker, true, value));
            }
            Message::Downvote { value } => votes.push((worker, false, value)),
            _ => {}
        }
    }

    let span_min = span_ms as f64 / 60_000.0;
    let fills_per_min = if span_ms > 0 {
        fills_in_window as f64 / span_min
    } else {
        0.0
    };
    let saturation =
        (fills_in_window > 0).then(|| 1.0 - novel_in_window as f64 / fills_in_window as f64);
    let est_secs_to_full = (novel_in_window > 0 && span_ms > 0).then(|| {
        let novel_per_sec = novel_in_window as f64 / (span_ms as f64 / 1000.0);
        (cells - filled_cells) as f64 / novel_per_sec
    });

    let mut tallies: HashMap<&RowValue, (u32, u32)> = HashMap::new();
    for (_, e) in table.iter() {
        let t = tallies.entry(&e.value).or_insert((0, 0));
        t.0 += e.upvotes;
        t.1 += e.downvotes;
    }
    let mut judged: HashMap<WorkerId, (u64, u64)> = HashMap::new();
    for (worker, was_upvote, value) in votes {
        let tally = if was_upvote {
            tallies.get(value).copied()
        } else {
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
        let Some((up, down)) = tally else {
            continue;
        };
        let agreed = was_upvote == (up >= down);
        let j = judged.entry(worker).or_insert((0, 0));
        j.0 += 1;
        j.1 += agreed as u64;
    }

    let workers = backend
        .session_stats()
        .into_iter()
        .map(|s| {
            let (total, agreed) = judged.get(&s.worker).copied().unwrap_or((0, 0));
            let in_window = ops_in_window.get(&s.worker).copied().unwrap_or(0);
            WorkerHealth {
                worker: s.worker.0,
                connected: s.connected,
                ops: s.ops,
                ops_per_min: if span_ms > 0 {
                    in_window as f64 / span_min
                } else {
                    0.0
                },
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

    let mut progress = OracleTracker::default();
    progress.advance(backend, start);
    HealthReport {
        at_ms: now_ms,
        history_len,
        window_ms,
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
        progress: Some(progress.report(backend, DEFAULT_TARGET)),
        slos: Vec::new(),
    }
}

// ---- the walks --------------------------------------------------------------

/// splitmix64: the walk's only source of choice.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A worker with the production client's seq dedup and reset discipline.
struct Peer {
    id: WorkerId,
    client: WorkerClient,
    applied: AppliedSeqs,
}

impl Peer {
    fn join(backend: &mut Backend, at: u64) -> Peer {
        let (id, client_id, replay) = backend.connect(Millis(at));
        let schema = Arc::clone(&backend.config().schema);
        let mut applied = AppliedSeqs::new();
        applied.note_prefix(backend.history_len());
        let client = WorkerClient::new(id, client_id, schema, &replay);
        Peer {
            id,
            client,
            applied,
        }
    }

    fn poll(&mut self, backend: &mut Backend) {
        for (seq, msg) in backend.poll_seq(self.id) {
            if self.applied.note(seq) {
                self.client.absorb(&msg);
            }
        }
    }

    /// Sends one bundle; a rejection resets the client to the truth.
    fn send(&mut self, backend: &mut Backend, at: u64, bundle: Vec<Outgoing>, modify: bool) {
        let sent = if modify {
            let pairs = bundle.iter().map(|o| (o.msg.clone(), o.auto_upvote));
            backend
                .submit_modify(self.id, pairs.collect(), Millis(at))
                .map(|r| r.seqs)
        } else {
            bundle.iter().try_fold(Vec::new(), |mut seqs, o| {
                let report = backend.submit(self.id, o.msg.clone(), Millis(at), o.auto_upvote)?;
                seqs.extend(report.seqs);
                Ok(seqs)
            })
        };
        match sent {
            Ok(seqs) => seqs.into_iter().for_each(|seq| {
                self.applied.note(seq);
            }),
            Err(_) => {
                for out in &bundle {
                    self.client.retract_own_vote_record(&out.msg);
                }
                self.client.adopt(&backend.table_image(), &[]);
                self.applied.reset_to_prefix(backend.history_len());
            }
        }
    }
}

/// One step: a seeded worker maybe catches up (or stays stale, so its
/// fills compete), then fills, votes, undoes a vote or modifies.
fn step(rng: &mut Rng, backend: &mut Backend, peers: &mut [Peer], at: u64) {
    let w = &mut peers[rng.below(peers.len())];
    let (poll, roll, row_pick, pick) = (
        rng.below(3) != 0,
        rng.below(20),
        rng.next() as usize,
        rng.below(64),
    );
    if poll {
        w.poll(backend);
    }
    let table = w.client.replica().table();
    let ids: Vec<RowId> = table.row_ids().collect();
    if ids.is_empty() {
        return;
    }
    let row = ids[row_pick % ids.len()];
    let value = table.get(row).expect("listed row").value.clone();
    let schema = Arc::clone(w.client.replica().schema());
    let cell = |col: ColumnId| match schema.column(col).unwrap().data_type() {
        DataType::Int => Value::int([0, 3, 7, 12, 20, 30, 4, 11][pick % 8]),
        _ if col == ColumnId(0) => Value::text(format!("p{}", pick % 6)),
        _ => Value::text(format!("v{}", pick % 3)),
    };
    let outs = match roll {
        0..=10 => {
            let empties: Vec<ColumnId> = value.empty_columns(&schema).collect();
            let Some(col) = empties.get(pick % empties.len().max(1)) else {
                return;
            };
            w.client.fill(row, *col, cell(*col))
        }
        11..=13 => w.client.upvote(row).map(|o| vec![o]),
        14 | 15 => w.client.downvote(row).map(|o| vec![o]),
        16 => w.client.undo_upvote(row).map(|o| vec![o]),
        17 => w.client.undo_downvote(row).map(|o| vec![o]),
        18 => {
            let filled: Vec<ColumnId> = value.iter().map(|(c, _)| c).collect();
            let Some(col) = filled.get(pick % filled.len().max(1)) else {
                return;
            };
            w.client.modify(row, *col, cell(*col))
        }
        _ => return,
    };
    if let Ok(outs) = outs {
        w.send(backend, at, outs, roll == 18);
    }
}

fn cardinality() -> TaskConfig {
    let columns = ["a", "b", "c"].map(|name| Column::new(name, DataType::Text));
    let schema = Schema::new("T", columns.to_vec(), &["a"]).unwrap();
    let scoring = Arc::new(QuorumMajority::of_three());
    TaskConfig::new(Arc::new(schema), scoring, Template::cardinality(6), 10.0)
}

/// Template values the Central Client fills in itself, and predicates
/// the walk's downvotes get rows dropped against.
fn templated() -> TaskConfig {
    let columns = vec![
        Column::new("name", DataType::Text),
        Column::new("goals", DataType::Int),
    ];
    let schema = Arc::new(Schema::new("Player", columns, &["name"]).unwrap());
    let (name, goals) = (ColumnId(0), ColumnId(1));
    let at_least = |n| Entry::Pred(Predicate::Ge(Value::int(n)));
    let named = |n: &str| TemplateRow::from_values([(name, Value::text(n))]);
    let template = Template::from_rows(vec![
        TemplateRow::from_entries([(goals, at_least(10))]),
        named("p0"),
        named("p1"),
        TemplateRow::from_entries([(goals, Entry::Pred(Predicate::Lt(Value::int(5))))]),
        TemplateRow::empty(),
        named("p2"),
    ]);
    TaskConfig::new(schema, Arc::new(QuorumMajority::of_three()), template, 10.0)
}

fn tmp_dir(seed: u64) -> PathBuf {
    let pid = std::process::id();
    let dir = std::env::temp_dir().join(format!("crowdfill-health-fold-{pid}-{seed}"));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn open(config: &TaskConfig, dir: &PathBuf) -> Backend {
    let opts = DurabilityOptions {
        // Nothing is killed here; skip the fsyncs.
        fsync: FsyncPolicy::OsOnly,
        ..DurabilityOptions::default()
    };
    open_or_recover(config.clone(), dir, &opts).unwrap()
}

/// Where a fresh fold starts: the log a backend holds in memory begins
/// at the restart (and at 0 on a fresh one), not at the history's start.
fn unread(backend: &Backend) -> u64 {
    backend.history_len() - backend.trace().len() as u64
}

/// `report` is `oracle`'s, bit for bit — but for the columns' pairwise
/// agreement, which both sum over the key groups in a `HashMap`'s order:
/// from one call to the next the parent's walk disagrees with itself in
/// the last bits, so that one number is held to 1e-12.
fn assert_same(mut report: HealthReport, oracle: HealthReport, when: &str) {
    let pairs = report.collection.columns.iter_mut();
    for (fold, batch) in pairs.zip(&oracle.collection.columns) {
        let off = (fold.agreement - batch.agreement).abs();
        assert!(off <= 1e-12, "{when}: agreement {fold:?} vs {batch:?}");
        fold.agreement = batch.agreement;
    }
    assert_eq!(report, oracle, "{when}");
}

/// What the walks exercised, by kind: the test fails if any stays 0.
type Tally = BTreeMap<&'static str, usize>;

fn tally(tally: &mut Tally, new: &[crowdfill_pay::TraceEntry], report: &HealthReport) {
    for entry in new {
        let kind = match (&entry.msg, entry.worker, entry.auto_upvote) {
            (Message::Replace { .. }, None, _) => "central-client fill",
            (Message::Replace { .. }, Some(_), _) => "worker fill",
            (Message::Insert { .. }, Some(_), _) => "modify bundle",
            (Message::Upvote { .. }, Some(_), false) => "upvote",
            (Message::Upvote { .. }, Some(_), true) => "auto-upvote",
            (Message::Downvote { .. }, Some(_), _) => "downvote",
            (Message::UndoUpvote { .. } | Message::UndoDownvote { .. }, ..) => "undo",
            _ => continue,
        };
        *tally.entry(kind).or_default() += 1;
    }
    let windowed = report.collection.saturation.is_some();
    let dissent = report
        .workers
        .iter()
        .any(|w| w.agreement.is_some_and(|a| a < 1.0));
    for (kind, hit) in [("fills in window", windowed), ("minority vote", dissent)] {
        *tally.entry(kind).or_default() += hit as usize;
    }
}

/// The fold's report is the oracle's, and the fold consumed exactly what
/// the log grew by since its last advance — nothing on a repeat.
fn cut(
    (backend, start): (&Backend, &Rows),
    fold: &mut ProgressTracker,
    seen: &mut u64,
    when: &str,
    t: &mut Tally,
) {
    let grown = backend.history_len() - *seen;
    assert_eq!(
        fold.advance(backend) as u64,
        grown,
        "{when}: entries consumed"
    );
    assert_eq!(fold.advance(backend), 0, "{when}: an immediate repeat");
    *seen = backend.history_len();
    let report = health::report(backend, fold, DEFAULT_TARGET);
    let log = backend.trace().entries();
    tally(t, &log[log.len() - grown as usize..], &report);
    assert_same(report, oracle(backend, start), when);
}

/// One execution: 4 workers, 70 steps 1, 1.5 or 2 s apart — so entries
/// land exactly on the window's edge — with two idle gaps past the
/// window, and at step 35 a compaction, a restart and 3 new workers.
fn walk(config: &TaskConfig, seed: u64, t: &mut Tally) {
    let dir = tmp_dir(seed);
    let mut rng = Rng(seed);
    let mut backend = open(config, &dir);
    let mut start = Rows::new();
    let mut fold = ProgressTracker::new();
    let mut seen = unread(&backend);
    let mut peers: Vec<Peer> = (0..4).map(|_| Peer::join(&mut backend, 0)).collect();
    let mut at = 0;
    for i in 0..70 {
        at += 500 * (2 + rng.below(3) as u64);
        if i == 20 || i == 50 {
            // Nobody works for longer than the window: it empties. The
            // report reads a clock its fold was not advanced at, too.
            at += 61_000 + 500 * rng.below(10) as u64;
            backend.set_time(Millis(at));
            let report = health::report(&backend, &fold, DEFAULT_TARGET);
            assert_same(
                report,
                oracle(&backend, &start),
                &format!("seed {seed}: gap at step {i}"),
            );
        }
        if i == 35 {
            backend.compact_storage().unwrap();
            drop(backend);
            backend = open(config, &dir);
            (fold, seen) = (ProgressTracker::new(), unread(&backend));
            let live = backend.master().table().iter();
            start = live.map(|(id, e)| (id, e.value.clone())).collect();
            peers = (0..3).map(|_| Peer::join(&mut backend, at)).collect();
        }
        step(&mut rng, &mut backend, &mut peers, at);
        cut(
            (&backend, &start),
            &mut fold,
            &mut seen,
            &format!("seed {seed} step {i}"),
            t,
        );
    }
    backend.set_time(Millis(at + 30_000));
    cut(
        (&backend, &start),
        &mut fold,
        &mut seen,
        &format!("seed {seed} at the end"),
        t,
    );
    drop(backend);
    std::fs::remove_dir_all(&dir).ok();
}

fn walks(config: TaskConfig, seeds: std::ops::Range<u64>, kinds: &[&str]) {
    let mut t = Tally::new();
    for seed in seeds {
        walk(&config, seed, &mut t);
    }
    for kind in kinds {
        assert!(t.get(kind).is_some_and(|n| *n > 0), "no {kind} in {t:?}");
    }
}

const KINDS: [&str; 8] = [
    "worker fill",
    "modify bundle",
    "upvote",
    "auto-upvote",
    "downvote",
    "undo",
    "fills in window",
    "minority vote",
];

#[test]
fn the_fold_reports_what_the_batch_walk_did_at_every_cut() {
    walks(cardinality(), 0..100, &KINDS);
}

#[test]
fn the_fold_reports_what_the_batch_walk_did_with_template_fills() {
    walks(templated(), 100..200, &["central-client fill"]);
}
