//! Golden delivery streams: what every worker is handed, and when.
//!
//! `pri_history_golden.rs` pins *what the history is*; this file pins *who
//! is sent which part of it*. One seeded script drives a `cardinality(8)`
//! collection through [`persist::open_or_recover`] with two eager workers
//! (one of which sits the compaction out offline and resumes by reset), a
//! laggard that loses its connection, resumes by suffix and later carries
//! undelivered entries across the compaction, a never-polled observer and
//! two late joiners — fills, votes and modify bundles, polls at seeded
//! points, one `compact_storage` mid-script and one drop-and-recover — and
//! hashes (FNV-1a over the wire bytes):
//!
//! * per worker, everything the log handed it, in order: every `poll_seq`
//!   batch with its seqs (tagged with the step it was polled at) and every
//!   resume suffix;
//! * per worker, every bootstrap it was handed — the `connect` replay and
//!   each reset, decoded from [`Backend::bootstrap_text`] as the service
//!   serves it and expanded into messages (`TableImage::to_messages`, then
//!   the log), so the hash reads the table an image stands for, not its
//!   encoding;
//! * `session_stats()` — connected, ops, `outbox_depth`, `confirmed_seq`
//!   of every session — at each checkpoint of the script;
//! * the journal's payload bytes before the compaction, before the
//!   restart and at the end.
//!
//! The constants were captured with per-session message queues (a cloned
//! `VecDeque<(u64, Message)>` per connected worker, filled on apply); a
//! green run means a session that holds nothing but a cursor into the one
//! op log delivers byte-identical streams at identical moments. The
//! bootstraps are hashed apart (`GOLDEN_BOOTSTRAPS`, split off the streams
//! at `608554e`, where a join replayed the whole history): what a joiner
//! starts from is a state image plus a log suffix, and changing where the
//! image is taken moves that constant and no other — that the replica it
//! builds is the master's is `snapshot_props.rs`'s to show.

use crowdfill_docstore::{FsyncPolicy, Wal};
use crowdfill_model::{
    Column, ColumnId, DataType, Message, QuorumMajority, RowId, Schema, Template, Value,
};
use crowdfill_pay::{Millis, WorkerId};
use crowdfill_server::persist::{self, DurabilityOptions};
use crowdfill_server::wire::{self, CatchUp, Image, Reply, TableImage};
use crowdfill_server::{Backend, TaskConfig, WorkerClient};
use crowdfill_sync::AppliedSeqs;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const FNV_OFFSET: u64 = 0xCBF2_9CE4_8422_2325;

fn fnv1a(hash: &mut u64, bytes: &[u8]) {
    for b in bytes {
        *hash ^= u64::from(*b);
        *hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
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

fn config() -> TaskConfig {
    let schema = Schema::new(
        "T",
        vec![
            Column::new("a", DataType::Text),
            Column::new("b", DataType::Text),
            Column::new("c", DataType::Text),
        ],
        &["a"],
    )
    .unwrap();
    TaskConfig::new(
        Arc::new(schema),
        Arc::new(QuorumMajority::of_three()),
        Template::cardinality(8),
        10.0,
    )
}

fn open(dir: &Path) -> Backend {
    let opts = DurabilityOptions {
        // Nothing is killed here; skip the fsyncs.
        fsync: FsyncPolicy::OsOnly,
        ..DurabilityOptions::default()
    };
    persist::open_or_recover(config(), dir, &opts).unwrap()
}

/// Hash and record count of the journal's payloads as they sit on disk
/// (every append is flushed, so a second reader sees them all).
fn journal(dir: &Path) -> (u64, usize) {
    let mut hash = FNV_OFFSET;
    let mut records = 0;
    Wal::open_with(dir.join("journal.wal"), FsyncPolicy::OsOnly, |payload| {
        fnv1a(&mut hash, payload);
        fnv1a(&mut hash, b"\n");
        records += 1;
    })
    .unwrap();
    (hash, records)
}

/// Folds every session's health reading into `hash` under `label`.
fn checkpoint(hash: &mut u64, backend: &Backend, label: &str) {
    for s in backend.session_stats() {
        let line = format!(
            "{label}:{}:{}:{}:{}:{}\n",
            s.worker.0, s.connected, s.ops, s.outbox_depth, s.confirmed_seq
        );
        fnv1a(hash, line.as_bytes());
    }
}

/// A worker with the production client's seq-dedup and resync discipline,
/// hashing everything the backend hands it.
struct Worker {
    id: WorkerId,
    client: WorkerClient,
    applied: AppliedSeqs,
    online: bool,
    /// One poll in `eagerness` is taken when the script offers it.
    eagerness: usize,
    stream: u64,
    /// Hash of every bootstrap it was handed: the `connect` replay and
    /// each reset image.
    bootstraps: u64,
    /// Lowest seq any `poll_seq` handed this worker.
    lowest_polled: u64,
    resyncs: usize,
}

/// The bootstrap a reset is served, decoded the way the client does.
fn served(backend: &mut Backend) -> (TableImage, Vec<Message>) {
    let text = backend.bootstrap_text().to_owned();
    let frame = Reply::Synced(0, CatchUp::Image(Image::Text(text.into()))).encode();
    match Reply::decode(&wire::parse_frame(frame.as_bytes()).unwrap()) {
        Ok(Reply::Synced(_, CatchUp::Image(Image::Table(image, log)))) => (*image, log),
        other => panic!("a reset decodes as one: {other:?}"),
    }
}

impl Worker {
    fn join(backend: &mut Backend, at: u64, eagerness: usize) -> Worker {
        let (id, client_id, replay) = backend.connect(Millis(at));
        let client = WorkerClient::new(id, client_id, backend.config().schema.clone(), &replay);
        let mut applied = AppliedSeqs::new();
        applied.note_prefix(backend.history_len());
        let mut bootstraps = FNV_OFFSET;
        for msg in &replay {
            let line = format!("connect:{}\n", wire::message_to_json(msg).encode());
            fnv1a(&mut bootstraps, line.as_bytes());
        }
        Worker {
            id,
            client,
            applied,
            online: true,
            eagerness,
            stream: FNV_OFFSET,
            bootstraps,
            lowest_polled: u64::MAX,
            resyncs: 0,
        }
    }

    fn take(&mut self, tag: &str, at: u64, seq: u64, msg: &Message) {
        let line = format!("{tag}@{at}:{seq}:{}\n", wire::message_to_json(msg).encode());
        fnv1a(&mut self.stream, line.as_bytes());
        if self.applied.note(seq) {
            self.client.absorb(msg);
        }
    }

    fn deliver(&mut self, backend: &mut Backend, at: u64) {
        for (seq, msg) in backend.poll_seq(self.id) {
            self.lowest_polled = self.lowest_polled.min(seq);
            self.take("poll", at, seq, &msg);
        }
    }

    /// A full resync: adopt the master's image. Taken fresh, not through
    /// the bootstrap cache the service reads: a read of the cache may move
    /// where it is rebuilt, and so the resets hashed below, which are kept
    /// comparable with the message-array bootstraps `GOLDEN_BOOTSTRAPS` was
    /// captured from.
    fn resync(&mut self, backend: &Backend) {
        self.client.adopt(&backend.table_image(), &[]);
        self.applied.reset_to_prefix(backend.history_len());
        self.resyncs += 1;
    }

    /// The resume handshake as `tcp_service` serves it: re-attach, then
    /// the missing suffix, or a reset below the compaction horizon.
    fn resume(&mut self, backend: &mut Backend, at: u64) {
        backend.resume(self.id, Millis(at)).expect("known worker");
        self.online = true;
        let from = self.applied.last_contiguous().map_or(0, |s| s + 1);
        if from < backend.history_base() {
            // The `history` member of the reset reply, as served.
            let (image, log) = served(backend);
            for msg in image.to_messages().iter().chain(&log) {
                let line = format!("reset@{at}:{}\n", wire::message_to_json(msg).encode());
                fnv1a(&mut self.bootstraps, line.as_bytes());
            }
            self.resync(backend);
            return;
        }
        for (seq, msg) in backend.history_suffix(from) {
            self.take("resume", at, seq, &msg);
        }
    }

    /// Sends one bundle; a rejection rebuilds the client from the truth
    /// and abandons the bundle's tail.
    fn send(&mut self, backend: &mut Backend, at: u64, bundle: Vec<(Message, bool)>, modify: bool) {
        if modify {
            match backend.submit_modify(self.id, bundle.clone(), Millis(at)) {
                Ok(report) => report.seqs.iter().for_each(|s| {
                    self.applied.note(*s);
                }),
                Err(_) => {
                    for (msg, _) in &bundle {
                        self.client.retract_own_vote_record(msg);
                    }
                    self.resync(backend);
                }
            }
            return;
        }
        for (msg, auto) in bundle {
            match backend.submit(self.id, msg.clone(), Millis(at), auto) {
                Ok(report) => report.seqs.iter().for_each(|s| {
                    self.applied.note(*s);
                }),
                Err(_) => {
                    self.client.retract_own_vote_record(&msg);
                    self.resync(backend);
                    return;
                }
            }
        }
    }
}

/// The roll (of 20) on which a step modifies a filled cell.
const MODIFY: usize = 16;

/// One step of the walk: a seeded worker maybe catches up, then fills,
/// votes, modifies or idles on a seeded row of its own replica.
fn step(rng: &mut Rng, backend: &mut Backend, workers: &mut [Worker], at: u64) {
    let w = &mut workers[rng.below(workers.len())];
    let (poll, roll, row_pick, pick) = (
        rng.below(w.eagerness) == 0,
        rng.below(20),
        rng.next() as usize,
        rng.below(64),
    );
    if !w.online {
        return;
    }
    if poll {
        w.deliver(backend, at);
    }
    let table = w.client.replica().table();
    let ids: Vec<RowId> = table.row_ids().collect();
    if ids.is_empty() {
        return;
    }
    let row = ids[row_pick % ids.len()];
    let value = &table.get(row).expect("listed row").value;
    let schema = w.client.replica().schema();
    let outs = if roll < 11 {
        let empties: Vec<ColumnId> = value.empty_columns(schema).collect();
        if empties.is_empty() {
            return;
        }
        let col = empties[pick % empties.len()];
        let pool = if col == ColumnId(0) { 8 } else { 3 };
        w.client
            .fill(row, col, Value::text(format!("v{}", pick % pool)))
    } else if roll < 14 {
        w.client.upvote(row).map(|o| vec![o])
    } else if roll < 16 {
        w.client.downvote(row).map(|o| vec![o])
    } else if roll == MODIFY {
        let filled: Vec<ColumnId> = value.iter().map(|(c, _)| c).collect();
        if filled.is_empty() {
            return;
        }
        let col = filled[pick % filled.len()];
        w.client
            .modify(row, col, Value::text(format!("m{}", pick % 4)))
    } else {
        return;
    };
    if let Ok(outs) = outs {
        let bundle = outs.into_iter().map(|o| (o.msg, o.auto_upvote)).collect();
        w.send(backend, at, bundle, roll == MODIFY);
    }
}

fn tmp_dir() -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("crowdfill-delivery-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn delivery_streams_are_golden() {
    let dir = tmp_dir();
    let mut rng = Rng(0x5EED_D311);
    let mut stats = FNV_OFFSET;
    let mut backend = open(&dir);

    // The observer connects first and is never polled; A and B take every
    // other poll the script offers them, the laggard C one in eight.
    let (observer, _, _) = backend.connect(Millis(0));
    let mut workers = vec![
        Worker::join(&mut backend, 0, 2),
        Worker::join(&mut backend, 0, 2),
        Worker::join(&mut backend, 0, 8),
    ];
    const B: usize = 1;
    const C: usize = 2;
    // Steps are numbered 1.. and double as the server clock.
    let mut next = 1;
    let mut walk = |backend: &mut Backend, workers: &mut [Worker], until: u64| {
        for at in next..until {
            step(&mut rng, backend, workers, at);
        }
        next = until;
    };

    walk(&mut backend, &mut workers, 100);
    checkpoint(&mut stats, &backend, "warm");

    // C's connection dies: nothing is pending for it, nothing accumulates,
    // and the resume restarts it at the watermark the suffix covers.
    backend.disconnect(workers[C].id);
    workers[C].online = false;
    walk(&mut backend, &mut workers, 160);
    checkpoint(&mut stats, &backend, "c-offline");
    assert!(backend.poll_seq(workers[C].id).is_empty());
    assert!(backend.poll_seq(WorkerId(999)).is_empty());
    workers[C].resume(&mut backend, 160);
    checkpoint(&mut stats, &backend, "c-resumed");

    // From here to its forced poll at 280 C takes no poll, so it carries
    // undelivered entries across the compaction; B sits the compaction
    // out offline.
    workers[C].eagerness = usize::MAX;
    walk(&mut backend, &mut workers, 200);
    backend.disconnect(workers[B].id);
    workers[B].online = false;
    walk(&mut backend, &mut workers, 220);
    checkpoint(&mut stats, &backend, "pre-compact");
    let journal_pre_compact = journal(&dir);
    let base = backend.compact_storage().unwrap();
    assert_eq!(backend.history_base(), base);
    checkpoint(&mut stats, &backend, "post-compact");

    walk(&mut backend, &mut workers, 240);
    // D joins past the horizon: its replay is the synthetic image.
    workers.push(Worker::join(&mut backend, 240, 2));
    walk(&mut backend, &mut workers, 260);
    // B's cursor is below the horizon: it resumes by reset.
    let resyncs = workers[B].resyncs;
    workers[B].resume(&mut backend, 260);
    assert_eq!(workers[B].resyncs, resyncs + 1, "B was to resume by reset");
    checkpoint(&mut stats, &backend, "b-reset");
    walk(&mut backend, &mut workers, 280);
    workers[C].deliver(&mut backend, 280);
    assert!(
        workers[C].lowest_polled < base,
        "C was to be handed entries from below the compaction horizon"
    );
    workers[C].eagerness = 8;
    checkpoint(&mut stats, &backend, "pre-restart");
    let journal_pre_restart = journal(&dir);

    // Restart. Every session comes back disconnected with nothing pending;
    // D and the observer never return.
    drop(backend);
    let mut backend = open(&dir);
    checkpoint(&mut stats, &backend, "recovered");
    for w in &mut workers {
        w.online = false;
        assert!(backend.poll_seq(w.id).is_empty());
    }
    assert!(backend.poll_seq(observer).is_empty());
    for w in &mut workers[..=C] {
        w.resume(&mut backend, 280);
    }
    workers.push(Worker::join(&mut backend, 280, 2));
    checkpoint(&mut stats, &backend, "re-attached");
    walk(&mut backend, &mut workers, 360);

    checkpoint(&mut stats, &backend, "pre-drain");
    for w in workers.iter_mut().filter(|w| w.online) {
        w.deliver(&mut backend, 360);
    }
    checkpoint(&mut stats, &backend, "final");
    let journal_final = journal(&dir);

    let mut history = FNV_OFFSET;
    for (seq, msg) in backend.history_suffix(0) {
        let line = format!("{seq}:{}\n", wire::message_to_json(&msg).encode());
        fnv1a(&mut history, line.as_bytes());
    }
    drop(backend);
    std::fs::remove_dir_all(&dir).ok();

    let streams: Vec<u64> = workers.iter().map(|w| w.stream).collect();
    assert_eq!(streams, GOLDEN_STREAMS, "per-worker delivery streams");
    let bootstraps: Vec<u64> = workers.iter().map(|w| w.bootstraps).collect();
    assert_eq!(bootstraps, GOLDEN_BOOTSTRAPS, "per-worker bootstraps");
    assert_eq!(stats, GOLDEN_STATS, "session stats at the checkpoints");
    assert_eq!(
        [journal_pre_compact, journal_pre_restart, journal_final],
        GOLDEN_JOURNALS,
        "journal payloads (hash, records)"
    );
    assert_eq!((history, base), GOLDEN_HISTORY, "retained history, horizon");
}

/// Per worker (A, B, C, D, E): hash of everything it was handed.
const GOLDEN_STREAMS: [u64; 5] = [
    3_704_703_582_063_131_248,
    9_018_870_688_957_386_616,
    10_247_115_537_421_599_904,
    15_643_802_833_629_882_137,
    4_263_053_120_604_815_301,
];
/// Per worker: hash of its `connect` replay and every reset image.
/// Re-captured when an image's values came to be ordered by `RowValue`'s
/// `Ord` instead of by their wire encoding: the same 243 hashed lines, in
/// another order (the votes of an image replay in value order).
const GOLDEN_BOOTSTRAPS: [u64; 5] = [
    18_413_652_376_785_104_421,
    17_926_727_849_440_964_804,
    18_413_652_376_785_104_421,
    3_288_681_061_670_930_294,
    11_568_785_473_786_978_088,
];
/// Hash of `session_stats()` over the script's eleven checkpoints.
const GOLDEN_STATS: u64 = 71_118_562_630_849_152;
/// `(hash, records)` of the journal before the compaction, before the
/// restart and at the end.
const GOLDEN_JOURNALS: [(u64, usize); 3] = [
    (15_493_073_922_680_692_695, 84),
    (832_399_221_596_820_935, 13),
    (1_055_662_495_313_098_898, 28),
];
/// `(hash of the retained history, compaction horizon)`.
const GOLDEN_HISTORY: (u64, u64) = (7_199_679_073_295_025_345, 131);
