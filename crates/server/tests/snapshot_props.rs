//! Property tests for the snapshot payload codec (DESIGN.md §14):
//! arbitrary table/vote/session/ledger states round-trip byte-exactly
//! through `encode_backend_state` / `decode_backend_state`, and the
//! CRC-framed snapshot file rejects every single-byte corruption rather
//! than ever surfacing a wrong image. An image without the settlement
//! ledger is refused, and so are v2 and v3 payloads and an image whose
//! column types are not the collection's; recovery falls back past each.
//!
//! For the table image itself (§14.3): at a seeded seq `S` of a generated
//! log, adopting `image(S)` and then processing `log[S..)` lands on the
//! state of the whole log replayed, and on that of the old message
//! expansion `to_messages(image(S)) ++ log[S..)` — the oracle.
//!
//! And for the image a joiner starts from: seeded walks — fills, votes,
//! undos, modify bundles, template drops, disconnects and resumes,
//! compactions, a restart — joined every few steps, where each join must
//! be served `image(S) ++ log[S..)` for an `S` at or above the serving
//! horizon, as messages and as wire text alike, and land on the master.

use crowdfill_docstore::{write_json, FsyncPolicy, Json, SnapshotStore, Tape};
use crowdfill_model::{
    ClientId, Column, ColumnId, DataType, Entry, Message, Predicate, QuorumMajority, RowId,
    RowValue, Schema, Template, TemplateRow, Value,
};
use crowdfill_pay::{FirstFill, Ledger, Millis, Unit, Vote, WorkerId};
use crowdfill_server::persist::{
    decode_backend_state, encode_backend_state, open_or_recover, DurabilityOptions,
};
use crowdfill_server::wire::{self, CatchUp, Image, Reply, TableImage};
use crowdfill_server::{
    Backend, BackendState, Outgoing, SessionState, SubmitError, TaskConfig, WorkerClient,
};
use crowdfill_sync::{AppliedSeqs, Replica};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use typed_image::EXACT_INT;

#[path = "support/typed_image.rs"]
mod typed_image;

/// JSON numbers travel as f64: exactness holds below 2^53. Real
/// watermarks/clocks live far below this; the strategy stays inside it.
const MAX_EXACT: u64 = 1 << 50;

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        "[a-zA-Z0-9 _-]{0,12}".prop_map(Value::text),
        // i64 cells ride the same f64 lane; stay within exact range.
        (-(1i64 << 40)..(1i64 << 40)).prop_map(Value::int),
        // Dyadic rationals encode/parse exactly.
        (-(1i32 << 20)..(1i32 << 20)).prop_map(|v| Value::float(v as f64 / 8.0)),
        any::<bool>().prop_map(Value::bool),
        (1900i32..2100, 1u8..=12, 1u8..=28).prop_map(|(y, m, d)| Value::date(y, m, d)),
    ]
}

fn row_value_strategy() -> impl Strategy<Value = RowValue> {
    proptest::collection::btree_map(0u16..4, value_strategy(), 0..4)
        .prop_map(|cells| RowValue::from_pairs(cells.into_iter().map(|(c, v)| (ColumnId(c), v))))
}

fn row_id_strategy() -> impl Strategy<Value = RowId> {
    (0u32..1000, 0u64..100_000).prop_map(|(c, s)| RowId::new(ClientId(c), s))
}

fn session_strategy() -> impl Strategy<Value = SessionState> {
    (
        (1u32..500, 1u32..500, 0u64..50, 0u64..1000, 0u64..MAX_EXACT),
        proptest::collection::vec((row_value_strategy(), any::<bool>()), 0..5),
        proptest::collection::vec(row_value_strategy(), 0..5),
    )
        .prop_map(
            |((worker, client, epoch, ops, confirmed), voted, upvoted_keys)| SessionState {
                worker,
                client,
                epoch,
                ops,
                confirmed,
                voted,
                upvoted_keys,
            },
        )
}

fn column_strategy() -> impl Strategy<Value = ColumnId> {
    (0u16..4).prop_map(ColumnId)
}

fn millis_strategy() -> impl Strategy<Value = Millis> {
    (0u64..MAX_EXACT).prop_map(Millis)
}

fn unit_strategy() -> impl Strategy<Value = Unit> {
    let latency = (any::<bool>(), millis_strategy()).prop_map(|(some, l)| some.then_some(l));
    (0u64..MAX_EXACT, 1u32..500, millis_strategy(), latency).prop_map(
        |(seq, worker, at, latency)| Unit {
            seq,
            worker: WorkerId(worker),
            at,
            latency,
        },
    )
}

fn ledger_strategy() -> impl Strategy<Value = Ledger> {
    use proptest::collection::{btree_map, vec};
    let fills = vec((column_strategy(), unit_strategy()), 1..3);
    let unit = (any::<bool>(), unit_strategy()).prop_map(|(some, u)| some.then_some(u));
    let first = (millis_strategy(), unit, row_value_strategy())
        .prop_map(|(at, unit, row)| FirstFill { at, unit, row });
    let vote = (unit_strategy(), any::<bool>()).prop_map(|(unit, auto)| Vote { unit, auto });
    let voter = (1u32..500, any::<bool>(), row_value_strategy())
        .prop_map(|(w, up, value)| (WorkerId(w), up, value));
    (
        btree_map(row_id_strategy(), fills, 0..5),
        btree_map((column_strategy(), value_strategy()), first, 0..5),
        btree_map(voter, vec(vote, 1..3), 0..5),
        btree_map((1u32..500).prop_map(WorkerId), millis_strategy(), 0..5),
    )
        .prop_map(|(cells, first, votes, last_at)| Ledger {
            cells,
            first,
            votes,
            last_at,
        })
}

fn state_strategy() -> impl Strategy<Value = BackendState> {
    (
        (
            0u64..MAX_EXACT,
            0u64..MAX_EXACT,
            1u32..10_000,
            any::<bool>(),
            0u64..MAX_EXACT,
        ),
        typed_image::table_image(),
        (
            proptest::collection::vec(0usize..64, 0..8),
            proptest::collection::vec(0usize..64, 0..8),
        ),
        (
            proptest::collection::vec(session_strategy(), 0..4),
            ledger_strategy(),
        ),
    )
        .prop_map(
            |(
                (base_seq, at_ms, next_worker, closed, cc_next_seq),
                image,
                (live_template, dropped_template),
                (sessions, ledger),
            )| BackendState {
                base_seq,
                at_ms,
                next_worker,
                closed,
                cc_next_seq,
                image,
                live_template,
                dropped_template,
                sessions,
                ledger,
            },
        )
}

fn tmp_dir(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!("crowdfill-snapprops-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&p);
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any live state the backend can image decodes back to exactly
    /// itself — vote counts, row ids, session vote sets, template
    /// partition, counters, the closed flag, everything.
    #[test]
    fn backend_state_roundtrips(state in state_strategy()) {
        let encoded = encode_backend_state(&state);
        let decoded = decode_backend_state(encoded.as_bytes())
            .expect("own encoding must decode");
        prop_assert_eq!(decoded, state);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Through the CRC frame on a real file: a single flipped byte at any
    /// offset is never served as a snapshot — the store either falls back
    /// to an older intact file or reports nothing usable.
    #[test]
    fn single_byte_corruption_never_decodes(
        state in state_strategy(),
        flip in 0usize..1_000_000,
    ) {
        let dir = tmp_dir("corrupt");
        let store = SnapshotStore::open(&dir).unwrap();
        let payload = encode_backend_state(&state);
        store.write(state.base_seq, payload.as_bytes()).unwrap();

        let path = dir.join(format!("snap-{:020}.cfsnap", state.base_seq));
        let mut bytes = std::fs::read(&path).unwrap();
        let at = flip % bytes.len();
        bytes[at] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();

        // Sole file corrupted: nothing usable may be returned.
        prop_assert_eq!(store.load_latest().unwrap(), None);
        std::fs::remove_dir_all(&dir).ok();
    }
}

// ---- image(S) ++ log[S..) --------------------------------------------------

/// The table of the image property: columns `a`, `b`, `c` of `types`,
/// key `(a, b)`, so a value can lack part of its key.
fn abc_schema(types: [DataType; 3]) -> Arc<Schema> {
    let columns = ["a", "b", "c"].into_iter().zip(types);
    let columns = columns.map(|(name, t)| Column::new(name, t)).collect();
    Arc::new(Schema::new("T", columns, &["a", "b"]).unwrap())
}

/// The `n`th (1 or 2) of the two cells a column of type `t` draws from:
/// ints at ±2^53, an integral float, dates.
fn sample(t: DataType, n: usize) -> Value {
    let pick = |a: Value, b: Value| if n == 1 { a } else { b };
    match t {
        DataType::Text => pick(Value::text("x"), Value::text("y")),
        DataType::Int => pick(Value::int(-EXACT_INT), Value::int(EXACT_INT)),
        DataType::Float => pick(Value::float(3.0), Value::float(-0.5)),
        DataType::Bool => pick(Value::bool(false), Value::bool(true)),
        DataType::Date => pick(Value::date(1940, 10, 23), Value::date(2014, 6, 22)),
    }
}

/// Value `i` of the 27 that 3 columns of absent or one of two cells of
/// their type spell: 0 is the empty value, 26 the last complete one.
fn pooled(i: usize, types: [DataType; 3]) -> RowValue {
    let cell = |c: usize| match (i / 3usize.pow(c as u32)) % 3 {
        0 => None,
        n => Some((ColumnId(c as u16), sample(types[c], n))),
    };
    RowValue::from_pairs((0..3).filter_map(cell))
}

/// A log of messages over [`abc_schema`] that every replica processes
/// alike and that keeps Lemma 3 (upvotes of complete values, downvotes of
/// non-empty ones, any replace or undo): a fixed prefix — two rows of one
/// value, a key-incomplete downvote, votes on a value its row then dies
/// out of — then `script`, whose rows are picked among the live ones.
fn generated_log(script: &[(u8, u8, u8)], types: [DataType; 3]) -> Vec<Message> {
    let schema = abc_schema(types);
    let pooled = |i| pooled(i, types);
    let complete: Vec<RowValue> = (0..27)
        .map(pooled)
        .filter(|v| v.is_complete(&schema))
        .collect();
    let mut table = Replica::new(ClientId(0), Arc::clone(&schema));
    let mut next = 0;
    let mut fresh = || {
        next += 1;
        RowId::new(ClientId(1), next)
    };
    let (r1, r2, r3) = (fresh(), fresh(), fresh());
    let twice = pooled(4); // a = x, b = x
    let mut log = vec![
        Message::Insert { row: r1 },
        Message::Insert { row: r2 },
        Message::Insert { row: r3 },
    ];
    let (new1, new2, new3) = (fresh(), fresh(), fresh());
    let replace = |old, new, value| Message::Replace { old, new, value };
    log.extend([
        replace(r1, new1, twice.clone()),
        replace(r2, new2, twice.clone()),
        Message::Downvote { value: pooled(9) }, // c = x: no key at all
        Message::Downvote {
            value: twice.clone(),
        },
        Message::Upvote {
            value: complete[0].clone(),
        },
        replace(r3, new3, complete[0].clone()),
        replace(new3, fresh(), complete[1].clone()),
    ]);
    table.replay(&log);
    for &(kind, a, b) in script {
        let live: Vec<RowId> = table.table().row_ids().collect();
        let (a, b) = (a as usize, b as usize);
        let msg = match kind % 7 {
            0 => Message::Insert { row: fresh() },
            1 | 2 => Message::Replace {
                old: live
                    .get(a % live.len().max(1))
                    .copied()
                    .unwrap_or_else(&mut fresh),
                new: fresh(),
                value: pooled(b % 27),
            },
            3 => Message::Upvote {
                value: complete[b % complete.len()].clone(),
            },
            4 => Message::Downvote {
                value: pooled(1 + b % 26),
            },
            5 => Message::UndoUpvote {
                value: complete[b % complete.len()].clone(),
            },
            _ => Message::UndoDownvote {
                value: pooled(1 + b % 26),
            },
        };
        table.process(&msg);
        log.push(msg);
    }
    log
}

fn three_types() -> impl Strategy<Value = [DataType; 3]> {
    let t = typed_image::data_type;
    (t(), t(), t()).prop_map(|(a, b, c)| [a, b, c])
}

fn replayed<'m>(log: impl IntoIterator<Item = &'m Message>, types: [DataType; 3]) -> Replica {
    let mut replica = Replica::new(ClientId(7), abc_schema(types));
    replica.replay(log);
    replica
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// At a seeded `S`, the image of the log's first `S` messages — through
    /// its codec — adopted and then fed `log[S..)` is the state of the
    /// whole log replayed, and of the old expansion replayed:
    /// `to_messages(image(S)) ++ log[S..)`. The columns are of generated
    /// types; each distinct value is in the image once, ascending,
    /// whatever the vote counts.
    #[test]
    fn adopting_an_image_then_the_log_since_is_replaying_the_log(
        script in proptest::collection::vec((0u8..7, any::<u8>(), any::<u8>()), 0..60),
        types in three_types(),
        seed in any::<u64>(),
    ) {
        let log = generated_log(&script, types);
        let at = (seed % (log.len() as u64 + 1)) as usize;
        let image = TableImage::of(&replayed(&log[..at], types));
        let text = write_json(0, |w| image.write(w));
        let decoded = TableImage::from_json(Tape::parse(&text).unwrap().root()).unwrap();
        prop_assert_eq!(&decoded, &image);
        prop_assert!(decoded.fits(&abc_schema(types)));

        let mut adopted = decoded.replica(ClientId(9), abc_schema(types), 0);
        adopted.replay(&log[at..]);
        prop_assert!(adopted.same_state(&replayed(&log, types)), "S = {}", at);
        let oracle = image.to_messages();
        let expanded = oracle.iter().chain(&log[at..]);
        prop_assert!(adopted.same_state(&replayed(expanded, types)));

        let mut named: Vec<usize> = image.rows.iter().map(|(_, i)| *i as usize).collect();
        named.extend(image.uh.iter().chain(&image.dh).map(|(i, _)| *i as usize));
        named.sort_unstable();
        named.dedup();
        prop_assert_eq!(named, (0..image.values.len()).collect::<Vec<_>>());
        prop_assert!(image.values.windows(2).all(|w| w[0] < w[1]), "distinct, ascending");
    }
}

/// A journaled collection of four rows, two of them filled and auto-
/// upvoted, and checkpointed: the backend, its config and the checkpoint's
/// base. `fixtures/snapshot_v2.json` is this collection's checkpoint as
/// the v2 payload encoded it.
fn two_fills(dir: &Path) -> (Backend, TaskConfig, u64) {
    let schema = Arc::new(Schema::new("T", text_columns(&["a"]), &["a"]).unwrap());
    let scoring = Arc::new(crowdfill_model::Difference);
    let config = TaskConfig::new(Arc::clone(&schema), scoring, Template::cardinality(4), 10.0);
    let mut b = open(&config, dir);
    let (id, client_id, history) = b.connect(Millis(0));
    let mut client = WorkerClient::new(id, client_id, schema, &history);
    for (at, key) in [(10, "x"), (20, "y")] {
        let table = client.replica().table();
        let empty = table
            .row_ids()
            .filter(|r| table.get(*r).unwrap().value.is_empty());
        let row = empty.min().expect("an empty row");
        for out in client.fill(row, ColumnId(0), Value::text(key)).unwrap() {
            b.submit(id, out.msg, Millis(at), out.auto_upvote).unwrap();
        }
    }
    let base = b.checkpoint().unwrap();
    (b, config, base)
}

/// Replaces the checkpoint of `b` (in `dir`, at `base`) with `payload`,
/// which recovery must refuse, and reopens: recovery takes the next rung
/// of the ladder — here the whole journal, which settles exactly like the
/// backend that never stopped.
fn refused_and_passed_over(
    mut b: Backend,
    config: &TaskConfig,
    dir: &Path,
    base: u64,
    payload: &str,
) {
    let (_, _, twin) = b.settle();
    assert_eq!(twin.per_message.len(), 2, "both fills are paid");
    let master = b.table_image();
    drop(b);
    let store = SnapshotStore::open(dir.join("snapshots")).unwrap();
    store.write(base, payload.as_bytes()).unwrap();

    let mut r = open(config, dir);
    assert_eq!(r.history_base(), 0, "the refused image was passed over");
    assert_eq!(r.history_len(), base);
    assert_eq!(r.table_image(), master);
    let (_, _, payout) = r.settle();
    assert_eq!(payout.per_message, twin.per_message);
    assert_eq!(payout.per_worker, twin.per_worker);
    assert_eq!(payout.unspent.to_bits(), twin.unspent.to_bits());
}

/// An image that predates the ledger is not an image of a collection with
/// nothing to settle: the decoder refuses it, and recovery falls back.
#[test]
fn an_image_without_its_ledger_is_refused_and_recovery_falls_back() {
    let dir = tmp_dir("no-ledger");
    let (b, config, base) = two_fills(&dir);
    let encoded = encode_backend_state(&b.capture_state());
    let Json::Obj(mut fields) = Json::parse(&encoded).unwrap() else {
        panic!("an image is an object");
    };
    fields.remove("ledger");
    let stripped = Json::Obj(fields).encode();
    assert!(decode_backend_state(stripped.as_bytes()).is_none());
    refused_and_passed_over(b, &config, &dir, base, &stripped);
    std::fs::remove_dir_all(&dir).ok();
}

/// A v2 payload — its table three arrays of whole values, not the wire's
/// image — is another format, refused like v1 was, and recovery falls
/// back. The fixture is this collection's checkpoint as written before
/// the payload became v3.
#[test]
fn a_v2_payload_is_refused_and_recovery_falls_back() {
    let dir = tmp_dir("v2");
    let (b, config, base) = two_fills(&dir);
    let v2 = include_str!("fixtures/snapshot_v2.json").trim_end();
    assert!(v2.contains(r#""v":2"#) && v2.contains(r#""rows":"#), "{v2}");
    assert!(decode_backend_state(v2.as_bytes()).is_none());
    refused_and_passed_over(b, &config, &dir, base, v2);
    std::fs::remove_dir_all(&dir).ok();
}

/// A v3 payload — its image's cells self-describing `{"t","v"}` objects
/// and its rows `[id, index]` pairs, with no `types` — is refused the same
/// way. The fixture is this collection's checkpoint as written before the
/// payload became v4.
#[test]
fn a_v3_payload_is_refused_and_recovery_falls_back() {
    let dir = tmp_dir("v3");
    let (b, config, base) = two_fills(&dir);
    let v3 = include_str!("fixtures/snapshot_v3.json").trim_end();
    assert!(
        v3.contains(r#""v":3"#) && v3.contains(r#""t":"text""#),
        "{v3}"
    );
    assert!(decode_backend_state(v3.as_bytes()).is_none());
    let current = encode_backend_state(&b.capture_state());
    assert!(current.contains(r#""v":4"#) && current.contains(r#""types":["text"]"#));
    refused_and_passed_over(b, &config, &dir, base, v3);
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint whose image is sound but of another schema's column types
/// decodes, and recovery still passes it over: a table built of it would
/// not be this collection's.
#[test]
fn an_image_of_other_types_is_passed_over_by_recovery() {
    let dir = tmp_dir("types");
    let (b, config, base) = two_fills(&dir);
    let encoded = encode_backend_state(&b.capture_state());
    let other = encoded.replace(r#""types":["text"]"#, r#""types":["text","int"]"#);
    assert_ne!(other, encoded);
    let state = decode_backend_state(other.as_bytes()).expect("a sound payload");
    assert!(!state.image.fits(&config.schema));
    refused_and_passed_over(b, &config, &dir, base, &other);
    std::fs::remove_dir_all(&dir).ok();
}

// ---- the bootstrap a joiner is served (DESIGN.md §14.3) ---------------------

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

fn open(config: &TaskConfig, dir: &Path) -> Backend {
    let opts = DurabilityOptions {
        // Nothing is killed here; skip the fsyncs.
        fsync: FsyncPolicy::OsOnly,
        ..DurabilityOptions::default()
    };
    open_or_recover(config.clone(), dir, &opts).unwrap()
}

/// A backend, and its state image at every seq its bootstrap was read at
/// — the only seqs the bootstrap's own image can have been taken at.
struct Host {
    backend: Backend,
    images: BTreeMap<u64, Vec<Message>>,
}

impl Host {
    fn note_image(&mut self) {
        let image = self.backend.table_image().to_messages();
        self.images.insert(self.backend.history_len(), image);
    }

    /// The `"history"` member of a `welcome` or a reset as the service
    /// splices it together, decoded the way the client does.
    fn served(&mut self) -> (TableImage, Vec<Message>) {
        self.note_image();
        let text = self.backend.bootstrap_text().to_owned();
        let frame = Reply::Synced(0, CatchUp::Image(Image::Text(text.into()))).encode();
        match Reply::decode(&wire::parse_frame(frame.as_bytes()).unwrap()) {
            Ok(Reply::Synced(_, CatchUp::Image(Image::Table(image, log)))) => (*image, log),
            other => panic!("a reset decodes as one: {other:?}"),
        }
    }
}

/// A worker with the production client's seq-dedup and reset discipline.
struct Peer {
    id: crowdfill_pay::WorkerId,
    client: WorkerClient,
    applied: AppliedSeqs,
    online: bool,
    /// The seq the image its join was served had been taken at.
    image_at: u64,
}

impl Peer {
    /// Joins, and checks what the join was served: `image(S) ++ log[S..)`
    /// for a seq `S` of an earlier read, never below the serving horizon;
    /// the same as wire text; and the master's state once replayed.
    fn join(host: &mut Host, at: u64) -> Peer {
        host.note_image();
        let (id, client_id, replay) = host.backend.connect(Millis(at));
        let (image, log) = host.served();
        let expanded: Vec<Message> = image.to_messages().into_iter().chain(log.clone()).collect();
        assert_eq!(expanded, replay, "welcome text at step {at}");
        let backend = &host.backend;
        let horizon = backend.history_base();
        let taken_at = host.images.range(horizon..).find(|(seq, image)| {
            let suffix = backend.history_suffix(**seq);
            let suffix = suffix.iter().map(|(_, msg)| msg);
            replay.len() == image.len() + suffix.len()
                && replay.iter().eq(image.iter().chain(suffix))
        });
        assert!(
            taken_at.is_some(),
            "step {at}: the replay is not an image at or above seq {horizon} plus the log since"
        );
        let image_at = *taken_at.unwrap().0;
        let schema = backend.config().schema.clone();
        let client = WorkerClient::from_image(id, client_id, schema, &image, &log);
        assert!(
            client.replica().same_state(backend.master()),
            "step {at}: a joiner does not start from the master's state"
        );
        let mut applied = AppliedSeqs::new();
        applied.note_prefix(backend.history_len());
        Peer {
            id,
            client,
            applied,
            online: true,
            image_at,
        }
    }

    fn take(&mut self, delivered: Vec<(u64, Message)>) {
        for (seq, msg) in delivered {
            if self.applied.note(seq) {
                self.client.absorb(&msg);
            }
        }
    }

    /// Everything the backend still owes this peer; afterwards it must
    /// hold the master's state.
    fn catch_up(&mut self, backend: &mut Backend, when: &str) {
        self.take(backend.poll_seq(self.id));
        assert!(
            self.client.replica().same_state(backend.master()),
            "worker {} diverged {when}",
            self.id.0
        );
    }

    /// A reset as the service serves it: adopt the bootstrap.
    fn reset(&mut self, host: &mut Host) {
        let (image, log) = host.served();
        self.client.adopt(&image, &log);
        self.applied.reset_to_prefix(host.backend.history_len());
    }

    /// The resume handshake: the missing suffix, or a reset below the
    /// serving horizon.
    fn resume(&mut self, host: &mut Host, at: u64) {
        host.backend
            .resume(self.id, Millis(at))
            .expect("known worker");
        self.online = true;
        let from = self.applied.last_contiguous().map_or(0, |s| s + 1);
        if from < host.backend.history_base() {
            self.reset(host);
        } else {
            self.take(host.backend.history_suffix(from));
        }
    }

    /// Sends one bundle; a rejection resets the client to the truth.
    fn send(&mut self, host: &mut Host, at: u64, bundle: Vec<Outgoing>, modify: bool) {
        let backend = &mut host.backend;
        let seqs: Result<Vec<u64>, SubmitError> = if modify {
            let pairs = bundle.iter().map(|o| (o.msg.clone(), o.auto_upvote));
            let report = backend.submit_modify(self.id, pairs.collect(), Millis(at));
            report.map(|r| r.seqs)
        } else {
            bundle.iter().try_fold(Vec::new(), |mut seqs, o| {
                let report = backend.submit(self.id, o.msg.clone(), Millis(at), o.auto_upvote)?;
                seqs.extend(report.seqs);
                Ok(seqs)
            })
        };
        match seqs {
            Ok(seqs) => seqs.into_iter().for_each(|seq| {
                self.applied.note(seq);
            }),
            Err(_) => {
                for out in &bundle {
                    self.client.retract_own_vote_record(&out.msg);
                }
                self.reset(host);
            }
        }
    }
}

/// One step of the walk: a seeded worker maybe catches up, then fills,
/// votes, retracts a vote, modifies or idles on a seeded row of its own
/// replica.
fn step(rng: &mut Rng, host: &mut Host, workers: &mut [Peer], at: u64) {
    let w = &mut workers[rng.below(workers.len())];
    let (poll, roll, row_pick, pick) = (
        rng.below(3) != 0,
        rng.below(20),
        rng.next() as usize,
        rng.below(64),
    );
    if !w.online {
        return;
    }
    if poll {
        w.take(host.backend.poll_seq(w.id));
    }
    let table = w.client.replica().table();
    let ids: Vec<RowId> = table.row_ids().collect();
    let row = ids[row_pick % ids.len()];
    let value = table.get(row).expect("listed row").value.clone();
    let schema = Arc::clone(w.client.replica().schema());
    // Keys from a pool of 6, the rest from 8 values that straddle the
    // second script's predicates.
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
        w.send(host, at, outs, roll == 18);
    }
}

/// Walks `config`'s collection for 400 steps with a join every 10: W1
/// loses its connection and resumes by suffix, W2 sits the first
/// compaction out and resumes by reset, the process restarts at 220 and
/// compacts again at 300. Every joiner stays connected, unpolled, until
/// the restart or the end, then takes what it is owed in one poll.
/// Returns how many template rows the Central Client dropped.
fn walk(name: &str, config: TaskConfig, seed: u64) -> usize {
    let dir = tmp_dir(name);
    let mut rng = Rng(seed);
    let mut host = Host {
        backend: open(&config, &dir),
        images: BTreeMap::new(),
    };
    let mut workers: Vec<Peer> = (0..4).map(|_| Peer::join(&mut host, 0)).collect();
    let mut joiners: Vec<Peer> = Vec::new();
    // Joins whose image predates them, and where those images were taken.
    let (mut behind, mut image_seqs) = (0, BTreeSet::new());
    for at in 1..=400 {
        step(&mut rng, &mut host, &mut workers, at);
        match at {
            100 | 140 => {
                let w = &mut workers[if at == 100 { 1 } else { 2 }];
                host.backend.disconnect(w.id);
                w.online = false;
            }
            150 | 300 => {
                let base = host.backend.compact_storage().unwrap();
                assert_eq!(host.backend.history_base(), base);
            }
            180 => workers[1].resume(&mut host, at),
            200 => {
                let horizon = host.backend.history_base();
                assert!(workers[2].applied.last_contiguous().unwrap() < horizon);
                workers[2].resume(&mut host, at);
            }
            220 => {
                for joiner in &mut joiners {
                    joiner.catch_up(&mut host.backend, "before the restart");
                }
                joiners.clear();
                let master = host.backend.table_image().to_messages();
                let images = std::mem::take(&mut host.images);
                drop(host);
                let backend = open(&config, &dir);
                host = Host { backend, images };
                assert_eq!(host.backend.table_image().to_messages(), master);
                for w in &mut workers {
                    w.resume(&mut host, at);
                }
            }
            _ => {}
        }
        if at % 10 == 0 {
            let joiner = Peer::join(&mut host, at);
            behind += usize::from(joiner.image_at < host.backend.history_len());
            image_seqs.insert(joiner.image_at);
            joiners.push(joiner);
        }
    }
    assert!(behind >= 20, "{behind} joins were served a log suffix");
    assert!(image_seqs.len() >= 4, "images taken at {image_seqs:?}");
    let mut backend = host.backend;
    for peer in workers.iter_mut().chain(&mut joiners) {
        peer.catch_up(&mut backend, "at the end");
    }
    let dropped = backend.central_client().dropped_template_rows().len();
    drop(backend);
    std::fs::remove_dir_all(&dir).ok();
    dropped
}

fn text_columns(names: &[&str]) -> Vec<Column> {
    let column = |name: &&str| Column::new(*name, DataType::Text);
    names.iter().map(column).collect()
}

#[test]
fn every_join_of_a_cardinality_walk_is_an_image_plus_a_suffix() {
    let schema = Schema::new("T", text_columns(&["a", "b", "c"]), &["a"]).unwrap();
    let scoring = Arc::new(QuorumMajority::of_three());
    let config = TaskConfig::new(Arc::new(schema), scoring, Template::cardinality(8), 10.0);
    walk("cardinality", config, 0x5EED_B007);
}

/// `pri_history_golden.rs`'s values-and-predicates template: rows the
/// walk's downvotes get dropped from it, and the image must carry on.
#[test]
fn every_join_of_a_template_drop_walk_is_an_image_plus_a_suffix() {
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
        TemplateRow::from_entries([
            (name, Entry::Value(Value::text("p3"))),
            (goals, at_least(10)),
        ]),
        TemplateRow::empty(),
        named("p4"),
        TemplateRow::from_entries([(goals, at_least(10))]),
    ]);
    let scoring = Arc::new(QuorumMajority::of_three());
    let config = TaskConfig::new(schema, scoring, template, 10.0);
    let dropped = walk("template-drops", config, 0x5EED_D209);
    assert!(dropped > 0, "the walk was to drop template rows");
}
