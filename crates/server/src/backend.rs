//! The back-end server (paper §3.3–3.4, §4, §5).
//!
//! The [`Backend`] owns the Central Client (PRI maintainer), the per-worker
//! sessions with their vote-policy state, the action trace, and the online
//! compensation estimator. The Central Client's replica is the master
//! table: the server keeps one copy of the table and one probable-row
//! classification of it, which the Central Client, the estimator and
//! recommendations all read. The backend is transport-agnostic: the discrete-event simulator drives it directly,
//! while `tcp_service` runs it behind framed TCP connections. Time is
//! supplied by the caller (simulated or wall-clock milliseconds).
//!
//! One op log (§5.2): the trace — every applied message, timestamped and
//! annotated with its originating worker and, for a fill, the column it
//! filled — is the only copy the backend keeps, and a message's history
//! seq is its index in it (plus the checkpoint watermark after a
//! recovery). Everything that leaves is a read of `log[seq..]`: the
//! journal frame, a resume suffix, and each session's broadcasts — a
//! session holds a delivery *cursor*, not a queue, and
//! [`Backend::poll_seq`] hands it the entries above the cursor that are
//! not its own. Applying a message therefore costs the same however many
//! workers are attached. Settlement reads no log: each entry is folded
//! into the [`Ledger`] as it is logged, and the checkpoint carries it.
//!
//! One bootstrap (§2.4's "initial copy of the master table"): a joiner, a
//! reset replica and [`Backend::connect`] all start from one cached table
//! image plus the log since it was taken ([`Backend::bootstrap_text`]),
//! so a join costs the table, not the history.
//!
//! Vote policy (§3.4): each worker may cast at most one vote per row value
//! (directly or via the automatic completion upvote); a worker may not
//! upvote two rows with the same primary key; an optional per-row vote cap
//! limits total votes.

use crate::config::TaskConfig;
use crate::persist::{self, BackendState, JournalFrame, SessionState};
use crate::wire::{BootstrapText, TableImage};
use crowdfill_constraints::{PriCounts, PriMaintainer};
use crowdfill_docstore::{SnapshotCounts, SnapshotStore, Wal, WalCounts};
use crowdfill_model::{
    derive_final_table, ClientId, ColumnId, FinalTable, Message, OpError, RowValue, TemplateRow,
};
use crowdfill_obs::metrics::{Histogram, HistogramSnapshot};
use crowdfill_obs::trace::{self as obstrace, ActiveSpan, SpanId, Stage, TraceId};
use crowdfill_pay::{
    allocate, Contributions, Estimator, Ledger, Millis, Payout, Trace, TraceEntry, WorkerId,
};
use crowdfill_sync::{Replica, ReplicaCounts};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

/// What a backend has done since it was made or recovered, with the counts
/// of its replica, Central Client, journal and checkpoint store (zero while
/// none is attached). `tcp_service.rs` names them.
#[derive(Debug, Clone, Default)]
pub struct BackendCounts {
    /// Batches applied, their ops, ops per batch, apply time per batch.
    pub batch_submits: u64,
    pub batch_ops: u64,
    pub batch_size: Histogram,
    pub batch_apply_ns: Histogram,
    /// Journal records written (one per batch that grew the history),
    /// appends failed (never blocking an ack), and the journal's bytes.
    pub batch_wal_frames: u64,
    pub batch_wal_errors: u64,
    pub wal_bytes: u64,
    /// [`Backend::checkpoint`]s and [`Backend::compact_storage`]s.
    pub checkpoints: u64,
    pub compactions: u64,
    /// Log entries owed to connected sessions, not handed yet.
    pub outbox_msgs: i64,
    /// Bootstrap images built, and entries encoded into their text.
    pub bootstrap_builds: u64,
    pub bootstrap_encoded_msgs: u64,
    pub replica: ReplicaCounts,
    pub central: PriCounts,
    pub journal: WalCounts,
    pub snapshots: SnapshotCounts,
}

/// Why the backend rejected a submission.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// Unknown worker (never connected or already disconnected).
    UnknownWorker,
    /// Worker clients never insert rows (§3.4).
    WorkersCannotInsert,
    /// The message creates a row under another client's id: a row id is
    /// `(client, seq)` so that clients mint them without coordinating, and
    /// a worker mints only its own.
    ForeignRowId,
    /// The worker already voted on this row value (§3.4).
    AlreadyVoted,
    /// The worker already upvoted a row with this primary key (§3.4).
    DuplicateKeyUpvote,
    /// The per-row vote cap has been reached (§3.4).
    MaxVotesReached,
    /// An undo for a vote this worker never cast (or already retracted).
    NoVoteToUndo,
    /// The underlying operation was invalid against the master table.
    Op(OpError),
    /// A `replace` whose value is not its live row's plus exactly one
    /// cell: no fill makes it.
    NotAFill,
    /// Data collection already finished.
    CollectionClosed,
    /// The server's admission queue is full or the op was shed before
    /// apply; retry after the hinted delay. Never raised after an ack.
    Overloaded { retry_after_ms: u64 },
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::UnknownWorker => write!(f, "unknown worker"),
            SubmitError::WorkersCannotInsert => write!(f, "workers cannot insert rows"),
            SubmitError::ForeignRowId => write!(f, "row ids of another client cannot be created"),
            SubmitError::AlreadyVoted => write!(f, "already voted on this row"),
            SubmitError::DuplicateKeyUpvote => {
                write!(f, "already upvoted a row with this primary key")
            }
            SubmitError::MaxVotesReached => write!(f, "vote cap reached for this row"),
            SubmitError::NoVoteToUndo => write!(f, "no matching vote of yours to undo"),
            SubmitError::Op(e) => write!(f, "invalid operation: {e}"),
            SubmitError::NotAFill => {
                write!(f, "a replace must add exactly one cell to its live row")
            }
            SubmitError::CollectionClosed => write!(f, "data collection is closed"),
            SubmitError::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded; retry after {retry_after_ms}ms")
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// The result of a successful submission.
#[derive(Debug, Clone)]
pub struct SubmitReport {
    /// Estimated compensation shown to the worker for this action (§5.3).
    pub estimate: f64,
    /// Whether the task's constraints are now fulfilled.
    pub fulfilled: bool,
    /// History sequence numbers assigned to the worker's own message(s) in
    /// this submission. The worker never receives those back as broadcasts,
    /// so the ack carries their seqs for its applied-set bookkeeping.
    pub seqs: Vec<u64>,
}

/// Why a `resume` request was refused.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResumeError {
    /// No session with that worker id was ever created.
    UnknownWorker,
}

impl std::fmt::Display for ResumeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ResumeError::UnknownWorker => write!(f, "unknown worker"),
        }
    }
}

impl std::error::Error for ResumeError {}

/// A successful session resumption.
#[derive(Debug, Clone, Copy)]
pub struct ResumeInfo {
    /// The client id originally assigned to the worker.
    pub client: ClientId,
    /// The session's new epoch. A connection thread holding an older epoch
    /// must not tear the session down (it has been superseded).
    pub epoch: u64,
    /// Current length of the global message history.
    pub history_len: u64,
}

/// Which way a worker voted on a value (for the undo policy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VoteKind {
    Up,
    Down,
}

/// Per-worker session state.
struct Session {
    client: ClientId,
    /// Row values this worker has voted on (auto-upvotes included) and how.
    voted_values: HashMap<RowValue, VoteKind>,
    /// Primary-key projections this worker has upvoted.
    upvoted_keys: HashSet<RowValue>,
    /// Delivery cursor: every log entry below it has been handed to this
    /// worker's connection (or predates it); [`Backend::poll_seq`] hands
    /// over the rest, minus the worker's own. Only read while `connected`.
    cursor: u64,
    connected: bool,
    /// Bumped on every [`Backend::resume`]: lets a stale connection thread
    /// detect that it no longer owns the session.
    epoch: u64,
    /// Deliberate (non-auto-upvote) operations accepted from this worker.
    ops: u64,
    /// The complete row this worker's last applied message produced, if it
    /// was a fill that completed one: the only value `auto` may upvote.
    /// In memory only — a restart forgets it, and the upvote that follows
    /// is then policy-checked like any other.
    completed: Option<RowValue>,
    /// Highest history length this worker is known to have fully absorbed:
    /// set at connect/resume (the reply replays everything up to it) and
    /// bumped by [`Backend::note_confirmed`] when a sync completes.
    confirmed_seq: u64,
    /// Ack-latency distribution of this worker's submits, recorded by the
    /// batch pipeline as it applies them ([`Backend::record_ack`]; kept out
    /// of the `stats` exposition to avoid per-worker cardinality there).
    ack_latency: Histogram,
}

impl Session {
    /// Whether the row `msg` creates, if any, is this session's to name.
    fn mints(&self, msg: &Message) -> bool {
        msg.creates_row()
            .is_none_or(|row| row.client == self.client)
    }

    /// A session no connection is attached to: what recovery recreates,
    /// and what [`Backend::connect`] starts from.
    fn detached(client: ClientId) -> Session {
        Session {
            client,
            voted_values: HashMap::new(),
            upvoted_keys: HashSet::new(),
            cursor: 0,
            connected: false,
            epoch: 0,
            ops: 0,
            completed: None,
            confirmed_seq: 0,
            ack_latency: Histogram::new(),
        }
    }
}

/// A per-worker session health reading (see [`Backend::session_stats`]).
#[derive(Debug, Clone)]
pub struct SessionStats {
    pub worker: WorkerId,
    pub connected: bool,
    /// Deliberate (non-auto-upvote) operations accepted, lifetime.
    pub ops: u64,
    /// Log entries above this worker's cursor that it is owed (not its
    /// own), not yet handed to its connection; 0 while disconnected.
    pub outbox_depth: usize,
    /// Highest history length the worker is known to have fully absorbed.
    pub confirmed_seq: u64,
    /// Ack-latency distribution of the worker's submits.
    pub ack_latency: HistogramSnapshot,
}

/// The cached bootstrap (DESIGN.md §14.3): the table image at seq `at`,
/// and — once the wire has asked — the text of the image and of
/// `log[at..)` as far as joins have read it, so each is encoded once.
struct Bootstrap {
    at: u64,
    image: TableImage,
    text: Option<BootstrapText>,
}

/// The CrowdFill back-end server for one data-collection task.
pub struct Backend {
    config: TaskConfig,
    /// The Central Client; its replica is the master table.
    cc: PriMaintainer,
    sessions: HashMap<WorkerId, Session>,
    /// How many sessions are connected: what one applied message adds to
    /// the outbox gauge, known without walking `sessions`.
    connected: usize,
    /// The op log (§5.2) and the broadcast history in one: history seq
    /// `log_base + i` is `trace.entries()[i]`, with the message, who sent
    /// it (`None`: the Central Client), when, and whether it was an
    /// automatic upvote — everything a journal frame carries.
    trace: Trace,
    /// Seq of the log's first entry: 0, or the image's watermark on a
    /// backend rebuilt by [`from_state`](Self::from_state).
    log_base: u64,
    /// The serving horizon: history seqs below it are served only as
    /// checkpointed *state* — resume/sync cursors below it get the
    /// [`bootstrap_text`](Self::bootstrap_text) every joiner gets — because
    /// after a restart that is all there is. Compaction moves it; the log
    /// itself is never trimmed (the telemetry fold, `ProgressTracker`,
    /// indexes it).
    history_base: u64,
    /// What a joiner or a reset replica starts from, kept between joins.
    bootstrap: Option<Bootstrap>,
    /// Settlement's fold of the log (§5.2), advanced per logged entry.
    ledger: Ledger,
    estimator: Estimator,
    next_worker: u32,
    clock: Millis,
    closed: bool,
    /// Optional history journal: every accepted submit/modify/batch appends
    /// its whole history delta as **one** frame, so under
    /// `FsyncPolicy::EveryN(1)` a batch costs one fsync (group commit).
    wal: Option<Wal>,
    /// Optional checkpoint store; with both a journal and this attached,
    /// [`checkpoint`](Self::checkpoint) and
    /// [`compact_storage`](Self::compact_storage) become available.
    snapshots: Option<SnapshotStore>,
    /// How many Central Client template drops have already been journaled.
    /// `journal_from` compares this against the CC's dropped list to attach
    /// fresh drop indexes (`tdrops`) to the frame that caused them.
    noted_drops: usize,
    /// Server clock at the last successful checkpoint (snapshot-age
    /// telemetry; `None` until the first checkpoint this process).
    last_checkpoint_at: Option<Millis>,
    /// Recent `[from, to)` history-seq ranges produced by traced ops, so
    /// the broadcast flusher can attribute each outgoing seq to the
    /// originating trace. Bounded; old ranges age out (their broadcasts
    /// have long since flushed).
    seq_traces: VecDeque<(u64, u64, TraceId)>,
    /// Its own counts; [`counts`](Self::counts) adds its layers'.
    counts: BackendCounts,
}

/// How many traced seq ranges [`Backend::trace_for_seq`] remembers.
const SEQ_TRACE_WINDOW: usize = 1024;

/// One operation inside a [`Backend::submit_batch`] call.
#[derive(Debug, Clone)]
pub enum BatchOp {
    /// A plain worker message, as accepted by [`Backend::submit`].
    Msg { msg: Message, auto_upvote: bool },
    /// A modify bundle, as accepted by [`Backend::submit_modify`].
    Modify { bundle: Vec<(Message, bool)> },
}

/// A worker-attributed operation queued for batched application.
#[derive(Debug, Clone)]
pub struct BatchJob {
    pub worker: WorkerId,
    pub op: BatchOp,
    /// Trace context for latency attribution ([`TraceId::NONE`] when the
    /// op is untraced — the common case).
    pub trace: TraceId,
}

/// The result of applying one batch: per-job outcomes plus the contiguous
/// history seq range `[first_seq, end_seq)` the batch produced (CC reactions
/// included). Broadcast fan-out covers exactly this range.
#[derive(Debug)]
pub struct BatchOutcome {
    pub results: Vec<Result<SubmitReport, SubmitError>>,
    pub first_seq: u64,
    pub end_seq: u64,
}

impl Backend {
    /// Launches a task: seeds the Central Client, whose replica is the
    /// master table, and logs its initialization messages.
    pub fn new(config: TaskConfig) -> Backend {
        let mut cc = PriMaintainer::new(
            Arc::clone(&config.schema),
            Arc::clone(&config.scoring),
            &config.template,
        );
        let estimator = Estimator::new(
            config.scheme,
            config.budget,
            Arc::clone(&config.schema),
            Arc::clone(&config.scoring),
            &config.template,
        );
        let seeds = cc.take_outbox_filled();
        let noted_drops = cc.dropped_template_rows().len();
        let mut backend = Backend {
            cc,
            sessions: HashMap::new(),
            connected: 0,
            trace: Trace::new(),
            log_base: 0,
            history_base: 0,
            bootstrap: None,
            ledger: Ledger::default(),
            estimator,
            next_worker: 1,
            clock: Millis(0),
            closed: false,
            wal: None,
            snapshots: None,
            noted_drops,
            last_checkpoint_at: None,
            seq_traces: VecDeque::new(),
            counts: BackendCounts::default(),
            config,
        };
        for (msg, filled) in seeds {
            backend.log(None, msg, false, filled);
        }
        backend
    }

    /// Appends a message to the op log at the server clock and folds it
    /// into the ledger; returns its seq.
    fn log(
        &mut self,
        worker: Option<WorkerId>,
        msg: Message,
        auto_upvote: bool,
        filled: Option<ColumnId>,
    ) -> u64 {
        let seq = self.history_len();
        let at = self.clock;
        let entry = TraceEntry {
            at,
            worker,
            msg,
            auto_upvote,
            filled,
        };
        self.ledger.advance(seq, &entry);
        self.trace.record(entry);
        seq
    }

    /// The column `msg` fills, if it is a replace: read off the master
    /// before the replace consumes `old`. The one place the backend decides
    /// it (the Central Client reports its own fills with its outbox); the
    /// log entry carries it to every reader.
    fn filled(&self, msg: &Message) -> Option<ColumnId> {
        let Message::Replace { old, .. } = msg else {
            return None;
        };
        msg.filled_column(&self.master().table().get(*old)?.value)
    }

    /// Remembers that history seqs `[from, to)` came from `trace`.
    fn note_seq_trace(&mut self, from: u64, to: u64, trace: TraceId) {
        if trace.is_none() || from >= to {
            return;
        }
        while self.seq_traces.len() >= SEQ_TRACE_WINDOW {
            self.seq_traces.pop_front();
        }
        self.seq_traces.push_back((from, to, trace));
    }

    /// The trace that produced history seq `seq`, if it was traced and
    /// still inside the remembered window ([`TraceId::NONE`] otherwise).
    pub fn trace_for_seq(&self, seq: u64) -> TraceId {
        // Recent ranges live at the back; broadcast flushes run right
        // after the apply, so scan backwards.
        for &(from, to, trace) in self.seq_traces.iter().rev() {
            if (from..to).contains(&seq) {
                return trace;
            }
        }
        TraceId::NONE
    }

    /// Attaches a history journal. From now on every accepted
    /// submit/modify/batch appends its history delta (the messages it added,
    /// with their seqs) as a single WAL frame — so batching coalesces WAL
    /// traffic to one frame, and under `FsyncPolicy::EveryN(1)` one fsync,
    /// per batch. Journaling is best-effort: an append failure is logged and
    /// counted ([`BackendCounts::batch_wal_errors`]) but does not fail the
    /// submission that triggered it.
    ///
    /// Journaling starts at the current history length; to recover a
    /// backend, decode the records with [`persist::decode_journal_record`]
    /// and replay them ([`persist::open_or_recover`] does both).
    pub fn attach_wal(&mut self, wal: Wal) {
        self.wal = Some(wal);
    }

    /// Detaches and returns the journal, syncing any buffered frames.
    pub fn detach_wal(&mut self) -> Option<Wal> {
        let mut wal = self.wal.take()?;
        if wal.sync().is_err() {
            self.counts.batch_wal_errors += 1;
        }
        Some(wal)
    }

    /// The task configuration.
    pub fn config(&self) -> &TaskConfig {
        &self.config
    }

    /// Advances the server clock (monotonic; earlier stamps are ignored).
    pub fn set_time(&mut self, at: Millis) {
        if at > self.clock {
            self.clock = at;
        }
    }

    /// The current server clock.
    pub fn now(&self) -> Millis {
        self.clock
    }

    /// Registers a worker; returns its id, its client id (for row-id
    /// generation), and the messages to replay into its local replica (the
    /// "initial copy of the master table", §2.4): the cached table image
    /// as messages ([`TableImage::to_messages`]) followed by the log since
    /// it was taken — never the history. The replica is then caught up
    /// through [`history_len`](Self::history_len), which is not the
    /// replay's length. The wire sends the image itself
    /// ([`bootstrap_text`](Self::bootstrap_text)).
    pub fn connect(&mut self, at: Millis) -> (WorkerId, ClientId, Vec<Message>) {
        let (worker, client) = self.attach(at);
        let (cache, suffix) = self.bootstrap();
        let mut replay = cache.image.to_messages();
        replay.extend(suffix.iter().map(|e| e.msg.clone()));
        (worker, client, replay)
    }

    /// [`connect`](Self::connect) without the replay: registers a worker
    /// and journals its birth. The transport follows it, under the same
    /// lock acquisition, with [`bootstrap_text`](Self::bootstrap_text).
    pub fn attach(&mut self, at: Millis) -> (WorkerId, ClientId) {
        self.set_time(at);
        let worker = WorkerId(self.next_worker);
        // Client 0 is the CC; worker clients start at 1.
        let client = ClientId(self.next_worker);
        self.next_worker += 1;
        // The bootstrap catches the new replica up to here, and its
        // broadcasts start here.
        let end = self.history_len();
        self.sessions.insert(
            worker,
            Session {
                cursor: end,
                connected: true,
                confirmed_seq: end,
                ..Session::detached(client)
            },
        );
        self.connected += 1;
        // Journal the session birth: recovery must know which worker ids
        // exist (and their client ids) to re-attribute replayed messages,
        // even for sessions born after the last checkpoint.
        self.journal_record(persist::encode_journal_session(
            worker.0,
            client.0,
            self.clock.0,
        ));
        (worker, client)
    }

    /// The bootstrap cache, valid for a read at the current
    /// [`history_len`](Self::history_len), and the log from its seq on:
    /// `image ++ suffix` is recovery's own argument (snapshot + journal
    /// suffix) and lands on the master's state. The one place the cache is
    /// rebuilt: when there is none, when it predates the serving horizon
    /// (a served suffix never reaches below it), or when the suffix has
    /// outgrown the image's entries — so a read stays within ≈ 2× live
    /// state, rebuilds amortise to O(1) per applied message, and a
    /// collection nobody joins builds nothing.
    fn bootstrap(&mut self) -> (&mut Bootstrap, &[TraceEntry]) {
        let end = self.history_len();
        let fresh =
            |c: &Bootstrap| c.at >= self.history_base && (end - c.at) as usize <= c.image.entries();
        if !self.bootstrap.as_ref().is_some_and(fresh) {
            self.counts.bootstrap_builds += 1;
            self.bootstrap = Some(Bootstrap {
                at: end,
                image: self.table_image(),
                text: None,
            });
        }
        let cache = self.bootstrap.as_mut().expect("built above");
        let suffix = &self.trace.entries()[(cache.at - self.log_base) as usize..];
        (cache, suffix)
    }

    /// The bootstrap as the wire carries it: the `"history"` member of a
    /// `welcome` or a reset, `{"image":…,"log":[…]}`, as JSON text. Encodes
    /// only what no earlier call has — the image on the first call after
    /// a rebuild, then the log entries since the previous call — so a join
    /// costs a copy of the text.
    pub fn bootstrap_text(&mut self) -> &str {
        let (cache, suffix) = self.bootstrap();
        let mut encoded = 0;
        let text = cache.text.get_or_insert_with(|| {
            encoded += cache.image.entries() as u64;
            BootstrapText::new(&cache.image)
        });
        let logged = text.logged();
        for entry in &suffix[logged..] {
            text.push(&entry.msg);
        }
        encoded += (suffix.len() - logged) as u64;
        self.counts.bootstrap_encoded_msgs += encoded;
        let cache = self.bootstrap.as_ref().and_then(|c| c.text.as_ref());
        cache.expect("encoded above").as_str()
    }

    /// Marks a worker disconnected (its session state is retained so the
    /// vote policy still applies if it reconnects under the same id).
    pub fn disconnect(&mut self, worker: WorkerId) {
        // What it was still owed is lost with the connection.
        let owed = self.undelivered(worker).count();
        if let Some(s) = self.sessions.get_mut(&worker).filter(|s| s.connected) {
            s.connected = false;
            self.connected -= 1;
            self.counts.outbox_msgs -= owed as i64;
        }
    }

    /// Marks a worker disconnected, but only if `epoch` still names the
    /// session's current incarnation. A connection thread that lost the
    /// session to a [`resume`](Self::resume) becomes a no-op here instead of
    /// tearing down its successor.
    pub fn disconnect_epoch(&mut self, worker: WorkerId, epoch: u64) {
        if self.session_epoch(worker) == Some(epoch) {
            self.disconnect(worker);
        }
    }

    /// Re-attaches a previously-created session after a connection loss:
    /// marks it connected, restarts its cursor at the end of the log (what
    /// the dead connection was still owed is lost with it), and bumps the
    /// epoch so the old connection thread can no longer interfere. The
    /// caller replays the missed history suffix to the client and then
    /// delivers new broadcasts via [`poll_seq`](Self::poll_seq); do both
    /// under the same lock acquisition as this call, or broadcasts racing
    /// in between are silently lost.
    pub fn resume(&mut self, worker: WorkerId, at: Millis) -> Result<ResumeInfo, ResumeError> {
        self.set_time(at);
        let history_len = self.history_len();
        self.disconnect(worker);
        let s = self
            .sessions
            .get_mut(&worker)
            .ok_or(ResumeError::UnknownWorker)?;
        s.connected = true;
        self.connected += 1;
        s.cursor = history_len;
        s.epoch += 1;
        // The resume reply replays the missed suffix under the caller's
        // lock, so the resumed replica is caught up to here.
        s.confirmed_seq = history_len;
        Ok(ResumeInfo {
            client: s.client,
            epoch: s.epoch,
            history_len,
        })
    }

    /// The session's current epoch (0 until the first resume).
    pub fn session_epoch(&self, worker: WorkerId) -> Option<u64> {
        self.sessions.get(&worker).map(|s| s.epoch)
    }

    /// Number of messages ever accepted into the global broadcast history
    /// (compacted ones included). The next message accepted by the backend
    /// gets this as its sequence number.
    pub fn history_len(&self) -> u64 {
        self.log_base + self.trace.len() as u64
    }

    /// The lowest history seq still served as replayable messages (the
    /// journal below it is gone). Cursors below it are not served a suffix
    /// — the transport layer answers them with a full resync instead
    /// (reset protocol).
    pub fn history_base(&self) -> u64 {
        self.history_base
    }

    /// The op log from history seq `seq` on, each entry with its seq.
    fn log_from(&self, seq: u64) -> impl Iterator<Item = (u64, &TraceEntry)> {
        let seq = seq.clamp(self.log_base, self.history_len());
        (seq..).zip(&self.trace.entries()[(seq - self.log_base) as usize..])
    }

    /// What `worker`'s connection has not been handed yet: the log above
    /// its cursor minus its own entries (it got those seqs in its acks).
    /// Nothing for a disconnected or unknown worker.
    fn undelivered(&self, worker: WorkerId) -> impl Iterator<Item = (u64, &TraceEntry)> {
        let session = self.sessions.get(&worker).filter(|s| s.connected);
        let cursor = session.map_or(self.history_len(), |s| s.cursor);
        self.log_from(cursor)
            .filter(move |(_, e)| e.worker != Some(worker))
    }

    /// The seq-tagged history suffix starting at `from_seq` (for resume
    /// replay; the caller filters out seqs the client reports as applied).
    /// `from_seq` below [`history_base`](Self::history_base) clamps to the
    /// base — callers that need the compacted prefix must detect that case
    /// themselves and fall back to a full resync.
    pub fn history_suffix(&self, from_seq: u64) -> Vec<(u64, Message)> {
        self.log_from(from_seq.max(self.history_base))
            .map(|(seq, e)| (seq, e.msg.clone()))
            .collect()
    }

    /// The currently-connected workers (ascending).
    pub fn connected_workers(&self) -> Vec<WorkerId> {
        let mut ws: Vec<WorkerId> = self
            .sessions
            .iter()
            .filter(|(_, s)| s.connected)
            .map(|(w, _)| *w)
            .collect();
        ws.sort_unstable();
        ws
    }

    /// Whether `worker` has a standing vote on this row value.
    pub fn has_voted(&self, worker: WorkerId, value: &RowValue) -> bool {
        self.sessions
            .get(&worker)
            .is_some_and(|s| s.voted_values.contains_key(value))
    }

    /// Drains the messages pending delivery to `worker`.
    pub fn poll(&mut self, worker: WorkerId) -> Vec<Message> {
        self.poll_seq(worker).into_iter().map(|(_, m)| m).collect()
    }

    /// Hands over the messages pending delivery to `worker`, each tagged
    /// with its history sequence number, and moves its cursor past them.
    pub fn poll_seq(&mut self, worker: WorkerId) -> Vec<(u64, Message)> {
        let owed: Vec<(u64, Message)> = self
            .undelivered(worker)
            .map(|(seq, e)| (seq, e.msg.clone()))
            .collect();
        let end = self.history_len();
        if let Some(s) = self.sessions.get_mut(&worker) {
            s.cursor = end;
        }
        self.counts.outbox_msgs -= owed.len() as i64;
        owed
    }

    /// Submits a worker-generated message (produced by the worker client's
    /// local application of a fill/upvote/downvote). `auto_upvote` marks the
    /// automatic completion upvote (§3.4). On success the message has been
    /// applied to the master table, recorded in the op log (where every
    /// other worker's cursor finds it), reacted to by the Central Client,
    /// and journaled (one WAL frame) if a journal is attached.
    pub fn submit(
        &mut self,
        worker: WorkerId,
        msg: Message,
        at: Millis,
        auto_upvote: bool,
    ) -> Result<SubmitReport, SubmitError> {
        let op = BatchOp::Msg { msg, auto_upvote };
        self.submit_one(worker, op, at)
    }

    /// Submits a worker-level *modify* bundle (paper §8): the series
    /// `[downvote old, insert fresh, fill…]` produced by
    /// [`WorkerClient::modify`](crate::WorkerClient::modify). The embedded
    /// insert — normally forbidden for workers — is authorized after the
    /// bundle's shape is validated: exactly one insert, immediately after a
    /// leading downvote, with every subsequent fill extending the inserted
    /// row's lineage. The downvote is exempt from the one-vote-per-row rule
    /// (it is part of the correction, like the fill's automatic upvote) but
    /// still recorded against the worker. The bundle's whole history delta
    /// journals as one frame.
    pub fn submit_modify(
        &mut self,
        worker: WorkerId,
        bundle: Vec<(Message, bool)>,
        at: Millis,
    ) -> Result<SubmitReport, SubmitError> {
        self.submit_one(worker, BatchOp::Modify { bundle }, at)
    }

    /// One untraced job, one journal frame.
    fn submit_one(
        &mut self,
        worker: WorkerId,
        op: BatchOp,
        at: Millis,
    ) -> Result<SubmitReport, SubmitError> {
        let from = self.history_len();
        let trace = TraceId::NONE;
        let result = self.apply_job(BatchJob { worker, op, trace }, at);
        self.journal_from(from, &[]);
        result
    }

    /// Applies a batch of queued operations in one pass and returns per-job
    /// outcomes plus the contiguous history seq range the batch produced.
    ///
    /// Each job takes the one route [`submit`](Self::submit) and
    /// [`submit_modify`](Self::submit_modify) take (`apply_job`: policy
    /// checks, per-op Central Client reaction), so the resulting log and
    /// master replica — and with them everything any cursor will ever read
    /// — are **identical** to applying the jobs singly: the batch/singleton
    /// equivalence property. What the batch amortizes is everything around
    /// the ops: one lock acquisition (the caller's), one journal frame +
    /// fsync, and one broadcast flush for the whole seq range.
    pub fn submit_batch(&mut self, jobs: Vec<BatchJob>, at: Millis) -> BatchOutcome {
        let timer = std::time::Instant::now();
        let first_seq = self.history_len();
        let n = jobs.len() as u64;
        let traced: Vec<TraceId> = jobs
            .iter()
            .map(|job| job.trace)
            .filter(|trace| !trace.is_none())
            .collect();
        let results = jobs
            .into_iter()
            .map(|job| self.apply_job(job, at))
            .collect();
        let end_seq = self.history_len();
        self.journal_from(first_seq, &traced);
        self.counts.batch_submits += 1;
        self.counts.batch_ops += n;
        self.counts.batch_size.record(n);
        self.counts.batch_apply_ns.record_duration(timer.elapsed());
        BatchOutcome {
            results,
            first_seq,
            end_seq,
        }
    }

    /// The one route an operation takes into the log, journaling aside
    /// (that is the caller's: one frame per call, however many jobs).
    /// A traced job gets an `apply` span under its trace's root span, and
    /// the seq range it produced is remembered for broadcast attribution.
    fn apply_job(&mut self, job: BatchJob, at: Millis) -> Result<SubmitReport, SubmitError> {
        let from = self.history_len();
        let span = (!job.trace.is_none())
            .then(|| ActiveSpan::start(job.trace, Stage::Apply, SpanId::root(job.trace), 0, from));
        let result = match job.op {
            BatchOp::Msg { msg, auto_upvote } => {
                self.apply_msg(job.worker, msg, at, auto_upvote, false)
            }
            BatchOp::Modify { bundle } => self.apply_modify(job.worker, bundle, at),
        };
        drop(span);
        if result.is_ok() {
            self.note_seq_trace(from, self.history_len(), job.trace);
        }
        result
    }

    /// One message: admission checks, the vote policy unless `exempt`,
    /// then apply.
    fn apply_msg(
        &mut self,
        worker: WorkerId,
        msg: Message,
        at: Millis,
        auto_upvote: bool,
        exempt: bool,
    ) -> Result<SubmitReport, SubmitError> {
        self.set_time(at);
        if self.closed {
            return Err(SubmitError::CollectionClosed);
        }
        let Some(session) = self.sessions.get(&worker).filter(|s| s.connected) else {
            return Err(SubmitError::UnknownWorker);
        };
        // `auto` is the client's word, so it is honoured for exactly what
        // the system generates: the upvote of the row this worker's own
        // fill has just completed. On anything else it is ignored.
        let auto_upvote = auto_upvote
            && matches!(&msg, Message::Upvote { value } if session.completed.as_ref() == Some(value));
        // Nor is anything exempt from minting row ids under one's own
        // client id only (a modify's insert included): a `new` that names
        // another worker's live row would overwrite it — with Lemma 3 and
        // the image intact, so nothing downstream would notice.
        if !session.mints(&msg) {
            return Err(SubmitError::ForeignRowId);
        }
        self.check_shape(&msg)?;
        // Automatic completion upvotes are system-generated: they are
        // recorded against the worker's vote state but exempt from the vote
        // policy checks — failing them would abort the fill they ride on.
        if !(auto_upvote || exempt) {
            self.check_policy(worker, &msg)?;
        }
        Ok(self.apply_worker_message(worker, msg, auto_upvote))
    }

    /// The post-policy half of a submission: applies, records, estimates,
    /// and lets the Central Client react.
    fn apply_worker_message(
        &mut self,
        worker: WorkerId,
        msg: Message,
        auto_upvote: bool,
    ) -> SubmitReport {
        // Apply to the master table — the Central Client's replica — and
        // re-classify the key groups the message touched.
        let filled = self.filled(&msg);
        self.cc.absorb(&msg);
        self.update_vote_policy_state(worker, &msg);
        if let Some(s) = self.sessions.get_mut(&worker) {
            s.ops += u64::from(!auto_upvote);
            s.completed = match &msg {
                Message::Replace { value, .. } if value.is_complete(&self.config.schema) => {
                    Some(value.clone())
                }
                _ => None,
            };
        }

        // Record in the op log — the one copy kept. Its place there is its
        // seq: the submitter gets it in the ack instead of an echo, every
        // other connected worker's cursor reaches it on its next poll.
        let own_seq = self.log(Some(worker), msg, auto_upvote, filled);
        let entry = self.trace.entries().last().expect("just logged");

        // Estimate compensation for the action against the table after it
        // and before the Central Client's repairs.
        let estimate = self.estimator.on_action(own_seq, entry, self.cc.view());

        // Let the Central Client react; its messages are owed to everyone.
        self.cc.maintain();
        let cc_msgs = self.cc.take_outbox_filled();
        let owed = (1 + cc_msgs.len()) * self.connected - 1;
        for (cc_msg, filled) in cc_msgs {
            self.log(None, cc_msg, false, filled);
        }
        self.counts.outbox_msgs += owed as i64;

        SubmitReport {
            estimate,
            fulfilled: self.cc.is_fulfilled(),
            seqs: vec![own_seq],
        }
    }

    /// A modify bundle: shape validation, then its messages one by one.
    fn apply_modify(
        &mut self,
        worker: WorkerId,
        bundle: Vec<(Message, bool)>,
        at: Millis,
    ) -> Result<SubmitReport, SubmitError> {
        // Shape validation before any mutation.
        let mut stage = 0; // 0: expect downvote, 1: expect insert, 2+: fills
        let mut lineage: Option<crowdfill_model::RowId> = None;
        let session = self.sessions.get(&worker);
        for (msg, auto) in &bundle {
            if session.is_some_and(|s| !s.mints(msg)) {
                return Err(SubmitError::ForeignRowId);
            }
            match (stage, msg) {
                (0, Message::Downvote { .. }) => stage = 1,
                // A modify of an *empty* cell degrades to a plain fill
                // bundle; hand it to the normal path.
                (0, Message::Replace { .. }) => {
                    let mut last: Option<SubmitReport> = None;
                    let mut seqs = Vec::new();
                    for (m, a) in bundle {
                        let report = self.apply_msg(worker, m, at, a, false)?;
                        seqs.extend_from_slice(&report.seqs);
                        last = Some(report);
                    }
                    let mut report = last.ok_or(SubmitError::Op(OpError::UnknownRow))?;
                    report.seqs = seqs;
                    return Ok(report);
                }
                (1, Message::Insert { row }) => {
                    lineage = Some(*row);
                    stage = 2;
                }
                (2, Message::Replace { old, new, .. }) if Some(*old) == lineage => {
                    lineage = Some(*new);
                }
                (2, Message::Upvote { .. }) if *auto => {}
                _ => return Err(SubmitError::WorkersCannotInsert),
            }
        }
        if stage < 2 {
            return Err(SubmitError::WorkersCannotInsert);
        }
        // Apply: the downvote and insert bypass the per-message policy, the
        // fills go through the normal path (which accepts them: the rows
        // exist because we just inserted them).
        let mut last: Option<SubmitReport> = None;
        let mut seqs = Vec::new();
        for (msg, auto) in bundle {
            let exempt = matches!(msg, Message::Downvote { .. } | Message::Insert { .. });
            let report = self.apply_msg(worker, msg, at, auto, exempt)?;
            seqs.extend_from_slice(&report.seqs);
            if !exempt {
                last = Some(report);
            }
        }
        let mut report = last.ok_or(SubmitError::Op(OpError::UnknownRow))?;
        report.seqs = seqs;
        Ok(report)
    }

    /// Appends the log's tail `[from, len)` to the journal as one frame
    /// ([`persist::encode_journal_frame`]): the entries, plus any template
    /// drops they caused (drops depend on the live matcher, which is not
    /// checkpointed, so replay takes them from here). No-op without a
    /// journal or delta. Every traced op that rode the frame gets a
    /// `wal_append` trace event: the frame — and its fsync — is shared by
    /// the whole batch, so each is billed the same duration.
    fn journal_from(&mut self, from: u64, traces: &[TraceId]) {
        if self.wal.is_none() || from >= self.history_len() {
            return;
        }
        let timer = (!traces.is_empty()).then(std::time::Instant::now);
        let drops = self.cc.dropped_template_rows();
        let fresh: Vec<usize> = drops[self.noted_drops..].iter().map(|(i, _)| *i).collect();
        self.noted_drops = drops.len();
        let tail = &self.trace.entries()[(from - self.log_base) as usize..];
        let frame = persist::encode_journal_frame(from, self.clock.0, tail, &fresh);
        self.journal_record(frame);
        if let Some(timer) = timer {
            let (msgs, dur_ns) = (self.history_len() - from, timer.elapsed().as_nanos() as u64);
            for &trace in traces {
                let root = SpanId::root(trace);
                obstrace::stamp_dur(trace, Stage::WalAppend, root, 0, msgs, dur_ns);
            }
        }
    }

    /// Appends one record to the journal (best-effort, like every journal
    /// write): frames, session births, and the closed marker all go
    /// through here.
    fn journal_record(&mut self, record: String) {
        let Some(wal) = self.wal.as_mut() else {
            return;
        };
        match wal.append(record.as_bytes()) {
            Ok(()) => self.counts.batch_wal_frames += 1,
            Err(e) => {
                self.counts.batch_wal_errors += 1;
                crowdfill_obs::obs_warn!(
                    "server",
                    "history journal append failed";
                    error => e.to_string(),
                );
            }
        }
    }

    /// The master replica: the Central Client's.
    pub fn master(&self) -> &Replica {
        self.cc.replica()
    }

    /// The Central Client's state (PRI diagnostics).
    pub fn central_client(&self) -> &PriMaintainer {
        &self.cc
    }

    /// The action trace so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Consumes the backend, handing over its op log (a finished run's
    /// record, kept without a copy).
    pub fn into_trace(self) -> Trace {
        self.trace
    }

    /// The online estimator (read access for reporting).
    pub fn estimator(&self) -> &Estimator {
        &self.estimator
    }

    /// Whether the constraints are fulfilled (collection can stop).
    pub fn is_fulfilled(&self) -> bool {
        self.cc.is_fulfilled()
    }

    /// Derives the current final table from the master candidate table.
    pub fn final_table(&self) -> FinalTable {
        derive_final_table(
            self.master().table(),
            &self.config.schema,
            &*self.config.scoring,
        )
    }

    /// Whether the collection has been closed (by [`settle`](Self::settle),
    /// [`close`](Self::close), or a recovered closed marker). Closed
    /// collections reject further submissions.
    pub fn is_closed(&self) -> bool {
        self.closed
    }

    /// Closes the collection without settling: journals the closed
    /// marker (the same record [`settle`](Self::settle) writes, so
    /// recovery treats both identically) and makes every further
    /// submission fail with [`SubmitError::CollectionClosed`]. Used by
    /// the progress layer's auto-stop policy (DESIGN.md §15);
    /// idempotent.
    pub fn close(&mut self) {
        if self.closed {
            return;
        }
        self.closed = true;
        self.journal_record(persist::encode_journal_closed(self.clock.0));
    }

    /// Closes collection and settles compensation: contribution analysis
    /// of the ledger plus budget allocation under the configured scheme.
    pub fn settle(&mut self) -> (FinalTable, Contributions, Payout) {
        self.close();
        let final_table = self.final_table();
        let contributions = self.ledger.contributions(&final_table);
        let payout = allocate(
            self.config.scheme,
            self.config.budget,
            &contributions,
            &self.config.schema,
            &self.config.split,
        );
        (final_table, contributions, payout)
    }

    /// Per-worker session health readings, ascending by worker id
    /// (consumed by [`crate::health`]).
    pub fn session_stats(&self) -> Vec<SessionStats> {
        let mut out: Vec<SessionStats> = self
            .sessions
            .iter()
            .map(|(w, s)| SessionStats {
                worker: *w,
                connected: s.connected,
                ops: s.ops,
                outbox_depth: self.undelivered(*w).count(),
                confirmed_seq: s.confirmed_seq,
                ack_latency: s.ack_latency.snapshot(),
            })
            .collect();
        out.sort_unstable_by_key(|s| s.worker);
        out
    }

    /// Records one acked submission's latency in `worker`'s ack-latency
    /// histogram: the batch pipeline calls it as it applies the batch.
    pub fn record_ack(&self, worker: WorkerId, latency_ns: u64) {
        if let Some(s) = self.sessions.get(&worker) {
            s.ack_latency.record(latency_ns);
        }
    }

    /// Records that `worker`'s replica has absorbed the history prefix
    /// `0..history_len` (a completed sync told us so). Monotone.
    pub fn note_confirmed(&mut self, worker: WorkerId, history_len: u64) {
        if let Some(s) = self.sessions.get_mut(&worker) {
            s.confirmed_seq = s.confirmed_seq.max(history_len);
        }
    }

    // ---- durability & recovery (DESIGN.md §14) -----------------------------

    /// Attaches a checkpoint store next to the journal, enabling
    /// [`checkpoint`](Self::checkpoint) and
    /// [`compact_storage`](Self::compact_storage).
    pub fn attach_snapshots(&mut self, store: SnapshotStore) {
        self.snapshots = Some(store);
    }

    /// Whether a checkpoint store is attached.
    pub fn has_snapshots(&self) -> bool {
        self.snapshots.is_some()
    }

    /// Bytes currently in the attached journal (0 without one) — the
    /// quantity the checkpoint sweep bounds.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.as_ref().map(Wal::bytes).unwrap_or(0)
    }

    /// What this backend and its layers have done.
    pub fn counts(&self) -> BackendCounts {
        BackendCounts {
            wal_bytes: self.wal_bytes(),
            replica: self.cc.replica().counts(),
            central: self.cc.counts(),
            journal: self.wal.as_ref().map(Wal::counts).unwrap_or_default(),
            snapshots: self
                .snapshots
                .as_ref()
                .map(|s| s.counts().clone())
                .unwrap_or_default(),
            ..self.counts.clone()
        }
    }

    /// Server clock at the last checkpoint written by this process (`None`
    /// before the first).
    pub fn last_checkpoint_at(&self) -> Option<Millis> {
        self.last_checkpoint_at
    }

    /// Milliseconds of history accepted since the last checkpoint, by the
    /// server clock (`None` before the first checkpoint this process).
    pub fn snapshot_age_ms(&self) -> Option<u64> {
        self.last_checkpoint_at
            .map(|t| self.clock.0.saturating_sub(t.0))
    }

    /// Writes a crash-atomic checkpoint of the current live state at the
    /// current history watermark and returns that watermark. The journal is
    /// left untouched, so this bounds recovery *replay* without giving up
    /// any retained history. Requires an attached snapshot store.
    pub fn checkpoint(&mut self) -> std::io::Result<u64> {
        let store = self.snapshots.as_ref().ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::Unsupported,
                "no snapshot store attached",
            )
        })?;
        let base = self.history_len();
        let payload = persist::encode_backend_state(&self.capture_state());
        store.write(base, payload.as_bytes())?;
        self.counts.checkpoints += 1;
        self.last_checkpoint_at = Some(self.clock);
        Ok(base)
    }

    /// Checkpoint + truncate: writes a snapshot at the current watermark,
    /// truncates the journal, and moves the serving horizon up to it, so
    /// both recovery *and* storage become O(live state). After this,
    /// resume/sync cursors below the new [`history_base`](Self::history_base)
    /// get a deterministic full resync — what a restart could serve them —
    /// and everything at or above it is served exactly. The in-memory log
    /// is not trimmed (settlement reads it), so a *connected* session's
    /// delivery cursor below the horizon is still handed every entry.
    /// The ordering is crash-safe: the snapshot is fully durable
    /// (tmp → fsync → rename → dir fsync) before the WAL is touched, and
    /// recovery skips journal entries below the snapshot watermark, so a
    /// crash between the two steps replays the overlap idempotently.
    pub fn compact_storage(&mut self) -> std::io::Result<u64> {
        let base = self.checkpoint()?;
        if let Some(wal) = self.wal.as_mut() {
            wal.compact(std::iter::empty::<&[u8]>())?;
        }
        self.history_base = base;
        self.counts.compactions += 1;
        Ok(base)
    }

    /// The master's state as one image (DESIGN.md §14.3): what the
    /// bootstrap cache and the checkpoint are built from. Deterministic,
    /// and O(live state), not O(history).
    pub fn table_image(&self) -> TableImage {
        TableImage::of(self.master())
    }

    /// A point-in-time image of the backend's live state: everything
    /// recovery cannot re-derive from the task config plus the journal
    /// suffix, settlement's ledger included. Live rows only — dead
    /// lineages, the trace, and estimator state are deliberately excluded
    /// (see DESIGN.md §14 for what resets).
    pub fn capture_state(&self) -> BackendState {
        let mut sessions: Vec<SessionState> = self
            .sessions
            .iter()
            .map(|(w, s)| {
                let mut voted: Vec<(RowValue, bool)> = s
                    .voted_values
                    .iter()
                    .map(|(v, k)| (v.clone(), *k == VoteKind::Up))
                    .collect();
                voted.sort_unstable();
                let mut keys: Vec<RowValue> = s.upvoted_keys.iter().cloned().collect();
                keys.sort_unstable();
                SessionState {
                    worker: w.0,
                    client: s.client.0,
                    epoch: s.epoch,
                    ops: s.ops,
                    confirmed: s.confirmed_seq,
                    voted,
                    upvoted_keys: keys,
                }
            })
            .collect();
        sessions.sort_by_key(|s| s.worker);
        BackendState {
            base_seq: self.history_len(),
            at_ms: self.clock.0,
            next_worker: self.next_worker,
            closed: self.closed,
            cc_next_seq: self.cc.replica().next_seq(),
            image: self.table_image(),
            live_template: self.cc.live_template().iter().map(|(i, _)| *i).collect(),
            dropped_template: self
                .cc
                .dropped_template_rows()
                .iter()
                .map(|(i, _)| *i)
                .collect(),
            sessions,
            ledger: self.ledger.clone(),
        }
    }

    /// Rebuilds a backend from a checkpoint image. History below
    /// `state.base_seq` exists only as this state; the caller then replays
    /// the journal suffix via [`replay_frame`](Self::replay_frame) /
    /// [`replay_session_record`](Self::replay_session_record) /
    /// [`replay_closed`](Self::replay_closed) and finishes with
    /// [`finish_recovery`](Self::finish_recovery).
    pub fn from_state(config: TaskConfig, state: &BackendState) -> Backend {
        let trows = config.template.rows();
        let pick = |idxs: &[usize]| -> Vec<(usize, TemplateRow)> {
            idxs.iter()
                .filter_map(|&i| trows.get(i).map(|r| (i, r.clone())))
                .collect()
        };
        let cc = PriMaintainer::restore(
            Arc::clone(&config.scoring),
            state.central_replica(Arc::clone(&config.schema)),
            pick(&state.live_template),
            pick(&state.dropped_template),
        );
        let estimator = Estimator::new(
            config.scheme,
            config.budget,
            Arc::clone(&config.schema),
            Arc::clone(&config.scoring),
            &config.template,
        );
        let mut sessions = HashMap::new();
        for s in &state.sessions {
            sessions.insert(
                WorkerId(s.worker),
                Session {
                    voted_values: s
                        .voted
                        .iter()
                        .map(|(v, up)| (v.clone(), if *up { VoteKind::Up } else { VoteKind::Down }))
                        .collect(),
                    upvoted_keys: s.upvoted_keys.iter().cloned().collect(),
                    epoch: s.epoch,
                    ops: s.ops,
                    confirmed_seq: s.confirmed,
                    ..Session::detached(ClientId(s.client))
                },
            );
        }
        let noted_drops = cc.dropped_template_rows().len();
        Backend {
            cc,
            sessions,
            connected: 0,
            trace: Trace::new(),
            log_base: state.base_seq,
            history_base: state.base_seq,
            bootstrap: None,
            ledger: state.ledger.clone(),
            estimator,
            next_worker: state.next_worker,
            clock: Millis(state.at_ms),
            closed: state.closed,
            wal: None,
            snapshots: None,
            noted_drops,
            last_checkpoint_at: None,
            seq_traces: VecDeque::new(),
            counts: BackendCounts::default(),
            config,
        }
    }

    /// Replays one recovered journal frame. Entries below the checkpoint
    /// watermark are skipped (their effects are inside the snapshot); the
    /// rest must continue the history exactly — a gap means the journal
    /// lost an acked frame, which recovery refuses to paper over.
    pub fn replay_frame(&mut self, frame: &JournalFrame) -> std::io::Result<()> {
        self.set_time(Millis(frame.at));
        for entry in &frame.entries {
            if entry.seq < self.history_base {
                continue;
            }
            if entry.seq != self.history_len() {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "journal gap: frame entry at seq {} but history is at {}",
                        entry.seq,
                        self.history_len()
                    ),
                ));
            }
            let msg = &entry.msg;
            let filled = self.filled(msg);
            // The CC replica absorbs every message (its repairs are later
            // journal entries — maintenance must NOT run again here).
            self.cc.replay_message(msg);
            if entry.worker == 0 {
                // A Central Client message: system trace attribution, and
                // keep CC's row-id counter ahead of its replayed rows.
                self.log(None, msg.clone(), false, filled);
                if let Some(row) = msg.creates_row() {
                    if row.client == ClientId::CENTRAL {
                        self.cc.resume_seq_at_least(row.seq + 1);
                    }
                }
            } else {
                let worker = WorkerId(entry.worker);
                // Sessions normally pre-exist via their journaled birth
                // record; create defensively if that record was lost to a
                // torn tail the frame survived.
                self.ensure_replay_session(entry.worker, entry.worker);
                self.update_vote_policy_state(worker, msg);
                if !entry.auto {
                    if let Some(s) = self.sessions.get_mut(&worker) {
                        s.ops += 1;
                    }
                }
                self.log(Some(worker), msg.clone(), entry.auto, filled);
            }
        }
        for idx in &frame.tdrops {
            self.cc.replay_template_drop(*idx);
        }
        self.noted_drops = self.cc.dropped_template_rows().len();
        Ok(())
    }

    /// Replays a journaled session birth: recreates the session
    /// (disconnected) unless the checkpoint already carries it.
    pub fn replay_session_record(&mut self, worker: u32, client: u32) {
        self.ensure_replay_session(worker, client);
    }

    /// Replays the journaled collection-closed marker.
    pub fn replay_closed(&mut self) {
        self.closed = true;
    }

    /// Recomputes the Central Client's derived state — classification and
    /// matching — once after the whole journal replay.
    pub fn finish_recovery(&mut self) {
        self.cc.rederive();
    }

    fn ensure_replay_session(&mut self, worker: u32, client: u32) {
        self.next_worker = self.next_worker.max(worker + 1);
        self.sessions
            .entry(WorkerId(worker))
            .or_insert_with(|| Session::detached(ClientId(client)));
    }

    // ---- internals ---------------------------------------------------------

    /// §2.2's preconditions: a message's shape, not policy, so nothing is
    /// exempt from them. Every cell of its value is one the schema admits
    /// in its column; a replace fills exactly one cell of a row the master
    /// holds (one replaced concurrently makes the fill stale — the model
    /// would tolerate it, but the paper's server validates fills against
    /// reality to avoid resurrecting dead lineages); an upvote's vector is
    /// complete and a downvote's is not empty. A message that breaks one
    /// would break Lemma 3, or the typed image the state is sent in.
    fn check_shape(&self, msg: &Message) -> Result<(), SubmitError> {
        let schema = &self.config.schema;
        let value = match msg {
            Message::Insert { .. } => return Ok(()),
            Message::Replace { value, .. }
            | Message::Upvote { value }
            | Message::Downvote { value }
            | Message::UndoUpvote { value }
            | Message::UndoDownvote { value } => value,
        };
        for (col, v) in value.iter() {
            schema
                .admits(col, v)
                .map_err(|e| SubmitError::Op(OpError::Invalid(e)))?;
        }
        match msg {
            Message::Replace { old, value, .. } => {
                let row = self.master().table().get(*old);
                let row = row.ok_or(SubmitError::Op(OpError::UnknownRow))?;
                match row.value.added_column(value) {
                    Some(_) => Ok(()),
                    None => Err(SubmitError::NotAFill),
                }
            }
            Message::Upvote { value } if !value.is_complete(schema) => {
                Err(SubmitError::Op(OpError::RowNotComplete))
            }
            Message::Downvote { value } if value.is_empty() => {
                Err(SubmitError::Op(OpError::RowEmpty))
            }
            _ => Ok(()),
        }
    }

    /// §3.4 vote policy checks.
    fn check_policy(&self, worker: WorkerId, msg: &Message) -> Result<(), SubmitError> {
        let session = &self.sessions[&worker];
        match msg {
            Message::Insert { .. } => Err(SubmitError::WorkersCannotInsert),
            Message::Replace { .. } => Ok(()),
            Message::Upvote { value } => {
                if session.voted_values.contains_key(value) {
                    return Err(SubmitError::AlreadyVoted);
                }
                if let Some(key) = value.key_projection(&self.config.schema) {
                    if session.upvoted_keys.contains(&key) {
                        return Err(SubmitError::DuplicateKeyUpvote);
                    }
                }
                self.check_vote_cap(value)
            }
            Message::Downvote { value } => {
                if session.voted_values.contains_key(value) {
                    return Err(SubmitError::AlreadyVoted);
                }
                self.check_vote_cap(value)
            }
            // Undo (paper §8, implemented): only a vote this worker actually
            // cast, of the matching kind, may be retracted.
            Message::UndoUpvote { value } => {
                if session.voted_values.get(value) != Some(&VoteKind::Up) {
                    return Err(SubmitError::NoVoteToUndo);
                }
                Ok(())
            }
            Message::UndoDownvote { value } => {
                if session.voted_values.get(value) != Some(&VoteKind::Down) {
                    return Err(SubmitError::NoVoteToUndo);
                }
                Ok(())
            }
        }
    }

    fn check_vote_cap(&self, value: &RowValue) -> Result<(), SubmitError> {
        let Some(cap) = self.config.max_votes_per_row else {
            return Ok(());
        };
        let at_cap = self
            .master()
            .table()
            .iter()
            .any(|(_, e)| e.value == *value && e.upvotes + e.downvotes >= cap);
        if at_cap {
            Err(SubmitError::MaxVotesReached)
        } else {
            Ok(())
        }
    }

    fn update_vote_policy_state(&mut self, worker: WorkerId, msg: &Message) {
        let session = self.sessions.get_mut(&worker).expect("checked");
        match msg {
            Message::Upvote { value } => {
                session.voted_values.insert(value.clone(), VoteKind::Up);
                if let Some(key) = value.key_projection(&self.config.schema) {
                    session.upvoted_keys.insert(key);
                }
            }
            Message::Downvote { value } => {
                session.voted_values.insert(value.clone(), VoteKind::Down);
            }
            Message::UndoUpvote { value } => {
                session.voted_values.remove(value);
                if let Some(key) = value.key_projection(&self.config.schema) {
                    session.upvoted_keys.remove(&key);
                }
            }
            Message::UndoDownvote { value } => {
                session.voted_values.remove(value);
            }
            _ => {}
        }
    }
}
