//! Golden broadcast histories for the Central Client's PRI decisions.
//!
//! The CC's insert / shuffle / template-drop decisions read the PRI matching,
//! so the matching has to stay the same pure function of the mutation history
//! whatever data structure holds it. Each case below drives a seeded script
//! through [`Backend::submit`] and pins an FNV-1a hash of the full broadcast
//! history (the exact wire bytes) plus the dropped-template indices. The
//! first three constants were captured with the keyed-`BTreeMap` matcher, on
//! a 32-row table, a 400-row table (160k edges with one adjacency list per
//! template row) and a values+predicate template that shuffles and drops.
//! The repeated-rows case was captured with the dense per-template-row
//! matcher: equal template rows shuffle and drop within their group. The
//! class matcher, one adjacency list per group of equal rows, must make
//! identical decisions on all four.

use crowdfill_model::{
    Column, ColumnId, DataType, Entry, Message, Predicate, QuorumMajority, RowId, Schema, Template,
    TemplateRow, Value,
};
use crowdfill_pay::{Millis, WorkerId};
use crowdfill_server::wire::TableImage;
use crowdfill_server::{wire, Backend, TaskConfig, WorkerClient};
use crowdfill_sync::AppliedSeqs;
use std::sync::Arc;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
}

/// Hash of everything the matcher's choices can reach: every broadcast
/// message in order, then the original indices of the dropped template rows.
fn fingerprint(backend: &Backend) -> u64 {
    let mut hash = 0xCBF2_9CE4_8422_2325u64;
    for (seq, msg) in backend.history_suffix(0) {
        let line = format!("{seq}:{}\n", wire::message_to_json(&msg).encode());
        fnv1a(&mut hash, line.as_bytes());
    }
    for (idx, _) in backend.central_client().dropped_template_rows() {
        fnv1a(&mut hash, format!("drop:{idx}\n").as_bytes());
    }
    hash
}

/// splitmix64: the script's only source of choice.
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

/// A worker with the production client's seq-dedup and resync discipline.
struct Worker {
    id: WorkerId,
    client: WorkerClient,
    applied: AppliedSeqs,
}

impl Worker {
    fn connect(backend: &mut Backend) -> Worker {
        let (id, client_id, history) = backend.connect(Millis(0));
        let client = WorkerClient::new(id, client_id, backend.config().schema.clone(), &history);
        let mut applied = AppliedSeqs::new();
        applied.note_prefix(history.len() as u64);
        Worker {
            id,
            client,
            applied,
        }
    }

    fn deliver(&mut self, backend: &mut Backend) {
        for (seq, msg) in backend.poll_seq(self.id) {
            if self.applied.note(seq) {
                self.client.absorb(&msg);
            }
        }
    }

    /// Sends one prepared message; a rejection rebuilds the client from the
    /// true history, as the production resync path does.
    fn send(&mut self, backend: &mut Backend, msg: Message, auto_upvote: bool) -> bool {
        match backend.submit(self.id, msg.clone(), Millis(1), auto_upvote) {
            Ok(report) => {
                for s in &report.seqs {
                    self.applied.note(*s);
                }
                true
            }
            Err(_) => {
                self.client.retract_own_vote_record(&msg);
                let history: Vec<Message> = backend
                    .history_suffix(0)
                    .into_iter()
                    .map(|(_, m)| m)
                    .collect();
                self.client.adopt(&TableImage::default(), &history);
                self.applied.reset_to_prefix(backend.history_len());
                false
            }
        }
    }

    fn fill(&mut self, backend: &mut Backend, row: RowId, col: ColumnId, value: Value) -> RowId {
        let outs = self.client.fill(row, col, value).expect("valid fill");
        let mut created = row;
        for out in outs {
            if let Some(id) = out.msg.creates_row() {
                created = id;
            }
            assert!(
                self.send(backend, out.msg, out.auto_upvote),
                "fill accepted"
            );
        }
        created
    }

    fn upvote(&mut self, backend: &mut Backend, row: RowId) {
        let out = self.client.upvote(row).expect("valid upvote");
        assert!(self.send(backend, out.msg, false), "upvote accepted");
    }

    fn downvote(&mut self, backend: &mut Backend, row: RowId) {
        let out = self.client.downvote(row).expect("valid downvote");
        assert!(self.send(backend, out.msg, false), "downvote accepted");
    }
}

fn text_schema() -> Arc<Schema> {
    Arc::new(
        Schema::new(
            "T",
            vec![
                Column::new("a", DataType::Text),
                Column::new("b", DataType::Text),
                Column::new("c", DataType::Text),
            ],
            &["a"],
        )
        .unwrap(),
    )
}

/// A random walk of fills, upvotes and downvotes by two workers who only
/// sometimes catch up on broadcasts first (so some ops arrive stale and are
/// rejected). Key values come from a pool of `rows / 2` names, so same-key
/// rivals shadow each other and rows leave the probable set by every route.
fn random_walk(backend: &mut Backend, seed: u64, steps: usize, rows: usize) {
    let mut rng = Rng(seed);
    let mut workers = [Worker::connect(backend), Worker::connect(backend)];
    for _ in 0..steps {
        let w = &mut workers[rng.below(2)];
        if rng.below(4) != 0 {
            w.deliver(backend);
        }
        let table = w.client.replica().table();
        let ids: Vec<RowId> = table.row_ids().collect();
        if ids.is_empty() {
            continue;
        }
        let row = ids[rng.below(ids.len())];
        let roll = rng.below(20);
        let pick = rng.below(64);
        if roll < 12 {
            let empties: Vec<ColumnId> = table
                .get(row)
                .expect("listed row")
                .value
                .empty_columns(w.client.replica().schema())
                .collect();
            if empties.is_empty() {
                continue;
            }
            let col = empties[pick % empties.len()];
            let pool = if col == ColumnId(0) { rows / 2 } else { 3 };
            let value = Value::text(format!("v{}", rng.below(pool)));
            if let Ok(outs) = w.client.fill(row, col, value) {
                for out in outs {
                    if !w.send(backend, out.msg, out.auto_upvote) {
                        break;
                    }
                }
            }
        } else if roll < 15 {
            if let Ok(out) = w.client.upvote(row) {
                w.send(backend, out.msg, false);
            }
        } else if let Ok(out) = w.client.downvote(row) {
            w.send(backend, out.msg, false);
        }
    }
}

fn cardinality_case(rows: usize, seed: u64, steps: usize) -> (u64, u64, usize) {
    let config = TaskConfig::new(
        text_schema(),
        Arc::new(QuorumMajority::of_three()),
        Template::cardinality(rows),
        10.0,
    );
    let mut backend = Backend::new(config);
    random_walk(&mut backend, seed, steps, rows);
    assert!(backend.central_client().invariant_holds());
    (
        fingerprint(&backend),
        backend.history_len(),
        backend.master().table().len(),
    )
}

#[test]
fn cardinality_32_history_is_golden() {
    assert_eq!(cardinality_case(32, 0x5EED_0032, 600), GOLDEN_C32);
}

#[test]
fn cardinality_400_history_is_golden() {
    assert_eq!(cardinality_case(400, 0x5EED_0400, 160), GOLDEN_C400);
}

fn player_schema() -> (Arc<Schema>, ColumnId, ColumnId) {
    let schema = Arc::new(
        Schema::new(
            "Player",
            vec![
                Column::new("name", DataType::Text),
                Column::new("goals", DataType::Int),
            ],
            &["name"],
        )
        .unwrap(),
    );
    let name = schema.column_id("name").unwrap();
    let goals = schema.column_id("goals").unwrap();
    (schema, name, goals)
}

fn seed_of(backend: &Backend, idx: usize) -> RowId {
    backend
        .central_client()
        .matched_row(idx)
        .expect("template row matched")
}

fn dropped(backend: &Backend) -> Vec<usize> {
    let cc = backend.central_client();
    cc.dropped_template_rows()
        .iter()
        .map(|(idx, _)| *idx)
        .collect()
}

/// A random tail over a `Player` table: four fresh workers fill names from
/// `p0..p5` and goals from a fixed pool, upvote and downvote for `steps`
/// steps.
fn player_tail(backend: &mut Backend, name: ColumnId, goals: ColumnId, seed: u64, steps: usize) {
    let mut rng = Rng(seed);
    let mut workers: Vec<Worker> = (0..4).map(|_| Worker::connect(backend)).collect();
    for _ in 0..steps {
        let w = &mut workers[rng.below(4)];
        if rng.below(4) != 0 {
            w.deliver(backend);
        }
        let table = w.client.replica().table();
        let ids: Vec<RowId> = table.row_ids().collect();
        let row = ids[rng.below(ids.len())];
        let roll = rng.below(10);
        let pick = rng.below(8);
        if roll < 6 {
            let value = &table.get(row).expect("listed row").value;
            let (col, v) = if value.get(name).is_none() {
                (name, Value::text(format!("p{}", pick % 6)))
            } else if value.get(goals).is_none() {
                (goals, Value::int([0, 3, 7, 12, 20, 30, 4, 11][pick]))
            } else {
                continue;
            };
            if let Ok(outs) = w.client.fill(row, col, v) {
                for out in outs {
                    if !w.send(backend, out.msg, out.auto_upvote) {
                        break;
                    }
                }
            }
        } else if roll < 8 {
            if let Ok(out) = w.client.upvote(row) {
                w.send(backend, out.msg, false);
            }
        } else if let Ok(out) = w.client.downvote(row) {
            w.send(backend, out.msg, false);
        }
    }
}

/// A values+predicate template walked through the two decisions a
/// cardinality template never reaches: a **shuffle** (template row 1 is free
/// and not insertable, row 0 donates its match and gets a fresh row instead)
/// and a **template drop** (row 2's prescription is downvoted out and has no
/// donor), followed by a random tail over the reduced template.
#[test]
fn values_and_predicates_history_is_golden() {
    let (schema, name, goals) = player_schema();
    let template = Template::from_rows(vec![
        TemplateRow::from_entries([(goals, Entry::Pred(Predicate::Ge(Value::int(10))))]),
        TemplateRow::from_values([(name, Value::text("Messi"))]),
        TemplateRow::from_values([(name, Value::text("Xavi"))]),
        TemplateRow::from_entries([(goals, Entry::Pred(Predicate::Lt(Value::int(5))))]),
        TemplateRow::empty(),
        TemplateRow::from_values([(name, Value::text("p0"))]),
        TemplateRow::from_values([(name, Value::text("p1"))]),
        TemplateRow::from_entries([(
            goals,
            Entry::Pred(Predicate::Between(Value::int(5), Value::int(9))),
        )]),
        TemplateRow::from_entries([
            (name, Entry::Value(Value::text("p2"))),
            (goals, Entry::Pred(Predicate::Ge(Value::int(10)))),
        ]),
        TemplateRow::empty(),
        TemplateRow::from_values([(name, Value::text("p3"))]),
        TemplateRow::from_entries([(goals, Entry::Pred(Predicate::Ge(Value::int(10))))]),
    ]);
    let config = TaskConfig::new(schema, Arc::new(QuorumMajority::of_three()), template, 10.0);
    let mut backend = Backend::new(config);
    let mut w1 = Worker::connect(&mut backend);
    let mut w2 = Worker::connect(&mut backend);

    // Shuffle. Row 0's seed becomes a complete Messi row; once a second
    // upvote makes it a winner it shadows row 1's bare {Messi} seed, which
    // leaves the probable set. Row 1 is then free, a fresh {Messi} would be
    // shadowed too (not insertable), and the only donor is row 0.
    let open = seed_of(&backend, 0);
    let bare_messi = seed_of(&backend, 1);
    let r = w1.fill(&mut backend, open, name, Value::text("Messi"));
    let messi = w1.fill(&mut backend, r, goals, Value::int(30));
    assert_eq!(seed_of(&backend, 0), messi);
    assert_eq!(seed_of(&backend, 1), bare_messi);
    let before = backend.master().table().len();
    w2.deliver(&mut backend);
    w2.upvote(&mut backend, messi);
    let cc = backend.central_client();
    assert!(!cc.probable_set().contains(&bare_messi));
    assert_eq!(cc.matched_row(1), Some(messi), "row 1 took the donor's row");
    assert_eq!(
        backend.master().table().len(),
        before + 1,
        "donor re-seeded"
    );
    assert!(cc.dropped_template_rows().is_empty());

    // Drop. Two downvotes reject {Xavi}; a re-inserted copy would inherit
    // them, and row 2 has no neighbour left to shuffle through.
    let xavi = seed_of(&backend, 2);
    w1.deliver(&mut backend);
    w1.downvote(&mut backend, xavi);
    w2.deliver(&mut backend);
    w2.downvote(&mut backend, xavi);
    assert_eq!(dropped(&backend), vec![2]);
    assert!(backend.central_client().invariant_holds());

    // Random tail: four more workers fill and vote over what is left.
    player_tail(&mut backend, name, goals, 0x5EED_0005, 600);
    assert!(backend.central_client().invariant_holds());
    assert_eq!(dropped(&backend), GOLDEN_VALUES_DROPPED);
    assert_eq!(
        (
            fingerprint(&backend),
            backend.history_len(),
            backend.master().table().len()
        ),
        GOLDEN_VALUES
    );
}

/// Equal template rows: three `{Messi}`, two `{goals ≥ 10}`, two
/// `{p2, goals ≥ 10}` and four empty rows, interleaved. Once a complete Messi
/// row wins, it shadows all three bare `{Messi}` seeds: the first `{Messi}`
/// row takes that winner from its `{goals ≥ 10}` holder by a **shuffle**, and
/// the other two — whose only neighbour is held by their own equal — are
/// **dropped**. A random tail follows over the reduced template.
#[test]
fn repeated_template_rows_history_is_golden() {
    let (schema, name, goals) = player_schema();
    let messi = || TemplateRow::from_values([(name, Value::text("Messi"))]);
    let scorer =
        || TemplateRow::from_entries([(goals, Entry::Pred(Predicate::Ge(Value::int(10))))]);
    let p2_scorer = || {
        TemplateRow::from_entries([
            (name, Entry::Value(Value::text("p2"))),
            (goals, Entry::Pred(Predicate::Ge(Value::int(10)))),
        ])
    };
    let template = Template::from_rows(vec![
        scorer(),
        messi(),
        TemplateRow::empty(),
        p2_scorer(),
        messi(),
        TemplateRow::empty(),
        scorer(),
        messi(),
        p2_scorer(),
        TemplateRow::empty(),
        TemplateRow::empty(),
    ]);
    let config = TaskConfig::new(schema, Arc::new(QuorumMajority::of_three()), template, 10.0);
    let mut backend = Backend::new(config);
    let mut w1 = Worker::connect(&mut backend);
    let mut w2 = Worker::connect(&mut backend);

    let open = seed_of(&backend, 0);
    let r = w1.fill(&mut backend, open, name, Value::text("Messi"));
    let winner = w1.fill(&mut backend, r, goals, Value::int(30));
    assert_eq!(seed_of(&backend, 0), winner);
    let bare = [1, 4, 7].map(|idx| seed_of(&backend, idx));
    let before = backend.master().table().len();
    w2.deliver(&mut backend);
    w2.upvote(&mut backend, winner);
    let cc = backend.central_client();
    assert!(bare.iter().all(|id| !cc.probable_set().contains(id)));
    assert_eq!(
        cc.matched_row(1),
        Some(winner),
        "row 1 took the donor's row"
    );
    assert_eq!(
        backend.master().table().len(),
        before + 1,
        "donor re-seeded"
    );
    assert_eq!(dropped(&backend), vec![4, 7]);
    assert!(backend.central_client().invariant_holds());

    player_tail(&mut backend, name, goals, 0x5EED_0011, 600);
    assert!(backend.central_client().invariant_holds());
    let got = (
        fingerprint(&backend),
        backend.history_len(),
        backend.master().table().len(),
    );
    assert_eq!(dropped(&backend), GOLDEN_CLASSES_DROPPED);
    assert_eq!(got, GOLDEN_CLASSES);
}

/// `(fingerprint, history length, table rows)` per case.
const GOLDEN_C32: (u64, u64, usize) = (2_271_542_946_171_960_410, 459, 118);
const GOLDEN_C400: (u64, u64, usize) = (2_499_603_086_928_263_471, 528, 421);
const GOLDEN_VALUES: (u64, u64, usize) = (4_655_398_675_973_598_392, 206, 36);
const GOLDEN_VALUES_DROPPED: [usize; 3] = [2, 8, 5];
const GOLDEN_CLASSES: (u64, u64, usize) = (3_638_188_336_798_549_216, 153, 25);
const GOLDEN_CLASSES_DROPPED: [usize; 5] = [4, 7, 3, 8, 1];
