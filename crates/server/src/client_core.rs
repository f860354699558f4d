//! The client half of the wire protocol, once, as a state machine that
//! touches no socket: [`ClientCore`] owns the replica and everything the
//! protocol makes a client remember, builds every request frame, and reads
//! every reply. Its drivers are shells that move bytes and wait —
//! [`RemoteWorker`](crate::RemoteWorker) over a blocking connection, the
//! scale harness over one poller for thousands of sessions — and none of
//! them names a frame type or a field. The grammar is documented in
//! `tcp_service.rs`.
//!
//! ## One decode path
//!
//! A frame is read the way the server reads one: UTF-8 checked (bytes that
//! are not are a [`RemoteError::Protocol`], never rewritten), parsed once
//! as a borrowed [`JsonRef`], messages decoded by the [`wire`] functions.
//! [`ClientCore::handle`] does that for every frame after the handshake and
//! answers with what the frame *was*, its effect on the replica already
//! applied.
//!
//! ## No clock, no sleep, no dial
//!
//! The core decides nothing from a clock it reads, never waits and never
//! connects: a backoff is a `Duration` handed to the shell, a reconnect is
//! a [`resume_frame`](ClientCore::resume_frame) to send on whatever the
//! shell dialed and a [`settle_resume`](ClientCore::settle_resume) of the
//! reply. (Trace stamps read the recorder's clock: observability only.)

use crate::health::HealthReport;
use crate::wire;
use crate::worker_client::{Outgoing, WorkerClient};
use crowdfill_docstore::{Json, JsonRef};
use crowdfill_model::{ClientId, ColumnId, Message, OpError, RowId, Value};
use crowdfill_net::ConnError;
use crowdfill_obs::metrics::counter;
use crowdfill_obs::trace::{self as obstrace, SpanId, Stage, TraceId};
use crowdfill_pay::WorkerId;
use crowdfill_sync::AppliedSeqs;
use std::sync::Arc;
use std::time::Duration;

/// Reconnection behavior of a client.
#[derive(Debug, Clone)]
pub struct ReconnectPolicy {
    /// Redial attempts per recovery episode before giving up.
    pub max_attempts: u32,
    /// First backoff delay (doubles per attempt).
    pub base_delay: Duration,
    /// Cap on the backoff delay.
    pub max_delay: Duration,
    /// How long to wait for an ack (or handshake reply) before treating the
    /// connection as dead. Bounds the wait when a request or its reply was
    /// silently dropped by a lossy link.
    pub ack_timeout: Duration,
    /// Seed of the jitter stream (deterministic for reproducible tests).
    pub jitter_seed: u64,
}

impl Default for ReconnectPolicy {
    fn default() -> ReconnectPolicy {
        ReconnectPolicy {
            max_attempts: 8,
            base_delay: Duration::from_millis(10),
            max_delay: Duration::from_millis(500),
            ack_timeout: Duration::from_secs(2),
            jitter_seed: 0,
        }
    }
}

/// Client-side protocol errors.
#[derive(Debug)]
pub enum RemoteError {
    Conn(ConnError),
    Protocol(String),
    Rejected(String),
    /// The server refused the op under load (it was never applied). With a
    /// [`ReconnectPolicy`] the client retries with jittered backoff first;
    /// this surfaces only once those retries are exhausted.
    Overloaded {
        retry_after_ms: u64,
    },
    Op(OpError),
}

impl std::fmt::Display for RemoteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RemoteError::Conn(e) => write!(f, "connection: {e}"),
            RemoteError::Protocol(e) => write!(f, "protocol: {e}"),
            RemoteError::Rejected(r) => write!(f, "rejected: {r}"),
            RemoteError::Overloaded { retry_after_ms } => {
                write!(f, "server overloaded; retry after {retry_after_ms}ms")
            }
            RemoteError::Op(e) => write!(f, "operation: {e}"),
        }
    }
}

impl std::error::Error for RemoteError {}

/// The outcome of a submitted action.
#[derive(Debug, Clone, Copy)]
pub struct RemoteAck {
    pub estimate: f64,
    /// Whether the task's constraints are now fulfilled.
    pub fulfilled: bool,
    /// True when the real ack was lost to a connection failure and this one
    /// was synthesized after the resume replay proved the submission landed
    /// (`estimate`/`fulfilled` then carry no information).
    pub recovered: bool,
}

impl RemoteAck {
    /// The ack synthesized once a resume has settled what was in flight.
    pub const RECOVERED: RemoteAck = RemoteAck {
        estimate: 0.0,
        fulfilled: false,
        recovered: true,
    };
}

/// What a received frame was, as [`ClientCore::handle`] found it.
#[derive(Debug)]
pub enum Event {
    /// A `msg` or `batch` broadcast, absorbed through seq-dedup (`fresh`:
    /// it changed the replica), or a `lagging` note, remembered.
    Broadcast {
        fresh: bool,
    },
    /// The submission in flight was applied; its seqs are noted.
    Ack(RemoteAck),
    /// The submission in flight was turned away under load, unapplied.
    Overloaded {
        retry_after_ms: u64,
    },
    /// The submission in flight was refused: [`ClientCore::roll_back`].
    Rejected(String),
    /// A `sync` was answered and its catch-up applied.
    Synced,
    Stats(String),
    Health(Box<HealthReport>),
    TraceDump(String),
}

/// A request that changes the table: applied to the replica already, and
/// owed to the server until an [`Event::Ack`] or a
/// [`settle_resume`](ClientCore::settle_resume) says it landed.
#[derive(Debug, Clone)]
pub struct Pending {
    /// One message for a `submit`, the bundle for a `modify`.
    msgs: Vec<Outgoing>,
    modify: bool,
    speculative: bool,
    trace: TraceId,
}

impl Pending {
    /// The op's trace id ([`TraceId::NONE`] when it is not sampled): the
    /// shell opens the root span that times the whole transaction.
    pub fn trace(&self) -> TraceId {
        self.trace
    }

    /// The request frame, encoded.
    pub fn frame(&self) -> String {
        self.encode(self.speculative, self.trace)
    }

    fn encode(&self, speculative: bool, trace: TraceId) -> String {
        let entry = |o: &Outgoing| {
            [
                ("auto", Json::Bool(o.auto_upvote)),
                ("msg", wire::message_to_json(&o.msg)),
            ]
        };
        let mut fields = match self.modify {
            true => {
                let msgs = self.msgs.iter().map(|o| Json::obj(entry(o))).collect();
                vec![("type", Json::str("modify")), ("msgs", Json::Arr(msgs))]
            }
            false => {
                let mut fields = vec![("type", Json::str("submit"))];
                fields.extend(entry(&self.msgs[0]));
                fields
            }
        };
        if speculative {
            fields.push(("speculative", Json::Bool(true)));
        }
        if !trace.is_none() {
            fields.push(("trace", Json::str(trace.to_hex())));
        }
        Json::obj(fields).encode()
    }
}

/// How [`ClientCore::settle_resume`] settled what was in flight.
#[derive(Debug)]
pub enum Settled {
    /// The frame was no `resumed` reply: this connection is no use.
    Redial,
    /// Nothing was in flight, or the replay contained it: the server had
    /// applied it and only the ack was lost.
    Recovered,
    /// The server never saw it: send this frame and await its ack.
    Resubmit(String),
}

/// Whether a catch-up `sync` is owed for broadcasts the server dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Lag {
    None,
    /// A `lagging` note (or a resume that reset to an image) since the
    /// last sync request was built.
    Owed,
    /// A sync request was built after the last note; its reply clears it.
    /// A note that races the reply refers to drops that reply cannot
    /// cover, and puts the state back to `Owed`.
    Asked,
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn protocol(what: impl ToString) -> RemoteError {
    RemoteError::Protocol(what.to_string())
}

/// Decodes one received frame, borrowed. Bytes that are not UTF-8 are a
/// protocol error exactly like text that is not JSON.
fn parse_frame(frame: &[u8]) -> Result<JsonRef<'_>, RemoteError> {
    JsonRef::parse(std::str::from_utf8(frame).map_err(protocol)?).map_err(protocol)
}

fn frame_type<'a>(j: &'a JsonRef<'_>) -> Option<&'a str> {
    j.get("type").and_then(JsonRef::as_str)
}

fn u64_field(j: &JsonRef<'_>, name: &str) -> Option<u64> {
    u64::try_from(j.get(name).and_then(JsonRef::as_i64)?).ok()
}

fn required(j: &JsonRef<'_>, name: &str) -> Result<u64, RemoteError> {
    u64_field(j, name).ok_or_else(|| protocol(format!("missing {name}")))
}

fn rejected(reply: &JsonRef<'_>) -> String {
    let reason = reply.get("reason").and_then(JsonRef::as_str);
    reason.unwrap_or("unknown").to_string()
}

/// The `"history"` array of a `welcome`, or of a `resumed`/`synced` reply
/// that carries the bootstrap image instead of a suffix.
fn history_from_json(reply: &JsonRef<'_>) -> Result<Vec<Message>, RemoteError> {
    let history = reply.get("history").and_then(JsonRef::as_arr);
    history
        .ok_or_else(|| protocol("missing history"))?
        .iter()
        .map(|m| wire::message_from_json(m).map_err(protocol))
        .collect()
}

/// What a `resumed` or `synced` reply carries for a cursor.
enum CatchUp {
    /// The messages the cursor was missing, seq-tagged.
    Suffix(Vec<(u64, Message)>),
    /// `reset: true`: the cursor fell below the server's compaction
    /// horizon, and this is the bootstrap image that stands in for the
    /// history the suffix would have come from.
    Image(Vec<Message>),
}

/// Decodes a `resumed`/`synced` reply: the server's watermark, and what
/// it sent to get the replica there.
fn catch_up_from_json(reply: &JsonRef<'_>) -> Result<(u64, CatchUp), RemoteError> {
    let history_len = required(reply, "history_len")?;
    if reply.get("reset").and_then(JsonRef::as_bool) == Some(true) {
        return Ok((history_len, CatchUp::Image(history_from_json(reply)?)));
    }
    let msgs = reply.get("msgs").and_then(JsonRef::as_arr);
    let msgs = msgs
        .ok_or_else(|| protocol("missing msgs"))?
        .iter()
        .map(|e| {
            let msg = e.get("msg").ok_or_else(|| protocol("missing msg"))?;
            let msg = wire::message_from_json(msg).map_err(protocol)?;
            Ok((required(e, "seq")?, msg))
        })
        .collect::<Result<_, RemoteError>>()?;
    Ok((history_len, CatchUp::Suffix(msgs)))
}

/// One decoded broadcast: the `{"seq":n,"msg":{...}}` shape a `msg` frame
/// body and a `batch` frame entry share, plus the originating op's trace
/// id when tracing is on.
struct Broadcast {
    seq: Option<u64>,
    msg: Message,
    trace: TraceId,
}

impl Broadcast {
    /// `None` for an entry whose message does not decode (skipped).
    fn from_json(entry: &JsonRef<'_>) -> Option<Broadcast> {
        Some(Broadcast {
            seq: u64_field(entry, "seq"),
            msg: wire::message_from_json(entry.get("msg")?).ok()?,
            trace: wire::trace_id_from_json(entry),
        })
    }
}

/// One session's protocol state: a [`WorkerClient`] replica, exactly which
/// history seqs it has applied, and what the server is owed.
pub struct ClientCore {
    /// The collection this session attached to. Carried on every `resume`
    /// so recovery after an eviction or redial re-attaches to the SAME
    /// collection — worker ids and epochs are per-collection, and a bare
    /// resume would land on the server's default collection and be
    /// rejected (or worse, take over an unrelated worker's session).
    collection: Option<String>,
    client: WorkerClient,
    applied: AppliedSeqs,
    /// The highest server history length this client has evidence of
    /// (welcome, synced replies, broadcast/ack seqs): the denominator of
    /// [`local_lag`](Self::local_lag).
    server_history_len: u64,
    lag: Lag,
    /// `Some` while a full resync's reply is outstanding: broadcasts that
    /// race it are held here, decoded, and replayed AFTER the rebuild,
    /// which would otherwise erase them.
    full_sync: Option<Vec<Broadcast>>,
    /// Backoff shape (`base_delay`, `max_delay`) of the session's policy.
    delays: Option<(Duration, Duration)>,
    /// Jitter stream state.
    jitter: u64,
    /// Seed + counter of the deterministic trace-id stream: op ids are
    /// `TraceId::generate(trace_seed, n)` so a reconnecting client under a
    /// fixed policy emits the same ids run-to-run.
    trace_seed: u64,
    trace_count: u64,
}

impl ClientCore {
    /// The requests without fields. The first three are answered by the
    /// [`Event`] of the same name; `bye` makes the server release the
    /// session, and is not answered.
    pub const STATS: &'static str = r#"{"type":"stats"}"#;
    pub const HEALTH: &'static str = r#"{"type":"health"}"#;
    pub const TRACE_DUMP: &'static str = r#"{"type":"trace_dump"}"#;
    pub const BYE: &'static str = r#"{"type":"bye"}"#;

    /// The request that opens a session (on `collection`, or the server's
    /// default one).
    pub fn hello_frame(collection: Option<&str>) -> String {
        let collection = collection.map(|c| ("collection", Json::str(c)));
        Json::obj([("type", Json::str("hello"))].into_iter().chain(collection)).encode()
    }

    /// Builds the session from the server's `welcome`: the replica replays
    /// its history, the cursor starts at its watermark.
    pub fn welcomed(
        frame: &[u8],
        collection: Option<String>,
        policy: Option<&ReconnectPolicy>,
    ) -> Result<ClientCore, RemoteError> {
        let welcome = parse_frame(frame)?;
        if frame_type(&welcome) != Some("welcome") {
            return Err(protocol("expected welcome"));
        }
        let worker = WorkerId(required(&welcome, "worker")? as u32);
        let client_id = ClientId(required(&welcome, "client")? as u32);
        // The schema is read once per session: the owned detour keeps the
        // cold decoders (schema, template, trace, health) off the generics.
        let schema = welcome
            .get("schema")
            .ok_or_else(|| protocol("missing schema"))?;
        let schema = wire::schema_from_json(&schema.to_owned()).map_err(protocol)?;
        let history = history_from_json(&welcome)?;
        let client = WorkerClient::new(worker, client_id, Arc::new(schema), &history);
        // The welcome's `history_len` is the server's real watermark; the
        // message array is a state image plus a log suffix that stands in
        // for that prefix, so the cursor can only come from the field.
        let history_len = required(&welcome, "history_len")?;
        let mut applied = AppliedSeqs::new();
        applied.note_prefix(history_len);
        let jitter = policy.map_or(0, |p| p.jitter_seed);
        Ok(ClientCore {
            collection,
            client,
            applied,
            server_history_len: history_len,
            lag: Lag::None,
            full_sync: None,
            delays: policy.map(|p| (p.base_delay, p.max_delay)),
            jitter,
            trace_seed: splitmix64(jitter ^ (worker.0 as u64)),
            trace_count: 0,
        })
    }

    /// The local view, kept in sync by [`handle`](Self::handle).
    pub fn view(&self) -> &WorkerClient {
        &self.client
    }

    /// This worker's id.
    pub fn worker(&self) -> WorkerId {
        self.client.worker()
    }

    /// Whether the server has said broadcasts to this session were dropped
    /// and no `sync` has been answered since.
    pub fn needs_sync(&self) -> bool {
        self.lag != Lag::None
    }

    /// How far this replica trails the server's history as of the last
    /// frame handled: `history_len − applied`. Zero right after a `sync`.
    pub fn local_lag(&self) -> u64 {
        self.applied.lag_behind(self.server_history_len)
    }

    /// Reads one received frame — the only place a client does — and says
    /// what it was. A broadcast is absorbed from the tree in hand (or held
    /// back, during a full resync); an `ack`'s seqs are noted; a `synced`
    /// reply's catch-up is applied: the missing suffix, or the image that
    /// replaces the replica, then the broadcasts held back for it.
    pub fn handle(&mut self, frame: &[u8]) -> Result<Event, RemoteError> {
        let json = parse_frame(frame)?;
        let text = |field: &str, what: &str| {
            let text = json.get(field).and_then(JsonRef::as_str);
            text.map(str::to_string)
                .ok_or_else(|| protocol(format!("malformed {what} reply")))
        };
        let entries = match frame_type(&json) {
            Some("msg") => std::slice::from_ref(&json),
            Some("batch") => json.get("msgs").and_then(JsonRef::as_arr).unwrap_or(&[]),
            Some("lagging") => {
                self.lag = Lag::Owed;
                &[]
            }
            Some("ack") => {
                // The seqs the server assigned to our own submission: we
                // never get them back as broadcasts.
                let seqs = json.get("seqs").and_then(JsonRef::as_arr).unwrap_or(&[]);
                for s in seqs.iter().filter_map(JsonRef::as_i64) {
                    if let Ok(s) = u64::try_from(s) {
                        self.server_history_len = self.server_history_len.max(s + 1);
                        self.applied.note(s);
                    }
                }
                let estimate = json.get("estimate").and_then(JsonRef::as_f64);
                let fulfilled = json.get("fulfilled").and_then(JsonRef::as_bool);
                return Ok(Event::Ack(RemoteAck {
                    estimate: estimate.unwrap_or(0.0),
                    fulfilled: fulfilled.unwrap_or(false),
                    recovered: false,
                }));
            }
            Some("overloaded") => {
                let retry_after_ms = u64_field(&json, "retry_after_ms").unwrap_or(0);
                return Ok(Event::Overloaded { retry_after_ms });
            }
            Some("reject") => return Ok(Event::Rejected(rejected(&json))),
            Some("synced") => return self.synced(&json).map(|()| Event::Synced),
            Some("stats") => return text("snapshot", "stats").map(Event::Stats),
            Some("trace_dump") => return text("events", "trace_dump").map(Event::TraceDump),
            Some("health") => {
                let report = json.get("report").map(JsonRef::to_owned);
                let report = report.as_ref().and_then(HealthReport::from_json);
                let report = report.ok_or_else(|| protocol("malformed health reply"))?;
                return Ok(Event::Health(Box::new(report)));
            }
            other => return Err(protocol(format!("unexpected frame {other:?}"))),
        };
        let mut fresh = false;
        for broadcast in entries.iter().filter_map(Broadcast::from_json) {
            match &mut self.full_sync {
                Some(held) => held.push(broadcast),
                None => fresh |= self.absorb(broadcast),
            }
        }
        Ok(Event::Broadcast { fresh })
    }

    /// Applies one broadcast if it is fresh; seq-based dedup makes
    /// redelivery (e.g. overlap between a resume replay and a racing
    /// flush) harmless even though messages themselves are not idempotent.
    fn absorb(&mut self, broadcast: Broadcast) -> bool {
        let Broadcast { seq, msg, trace } = broadcast;
        if let Some(seq) = seq {
            self.server_history_len = self.server_history_len.max(seq + 1);
            if !self.applied.note(seq) {
                return false;
            }
        }
        self.client.absorb(&msg);
        if let (Some(seq), false) = (seq, trace.is_none()) {
            // The far edge of the causal chain: another replica applied
            // the originating op's broadcast.
            let worker = self.client.worker().0 as u64;
            obstrace::stamp(trace, Stage::ClientAbsorb, SpanId::root(trace), seq, worker);
        }
        true
    }

    fn synced(&mut self, reply: &JsonRef<'_>) -> Result<(), RemoteError> {
        let (history_len, catch_up) = catch_up_from_json(reply)?;
        let held = self.full_sync.take();
        self.server_history_len = self.server_history_len.max(history_len);
        match catch_up {
            CatchUp::Image(history) => {
                self.adopt_image(&history, history_len, "sync reset to bootstrap image")
            }
            CatchUp::Suffix(msgs) if held.is_some() => {
                let history: Vec<Message> = msgs.into_iter().map(|(_, m)| m).collect();
                self.adopt_image(&history, history_len, "full resync");
            }
            CatchUp::Suffix(msgs) => drop(self.replay(&msgs, &[])),
        }
        // Seq-dedup drops the held broadcasts the image already covers.
        for broadcast in held.into_iter().flatten() {
            self.absorb(broadcast);
        }
        if self.lag == Lag::Asked {
            self.lag = Lag::None;
        }
        Ok(())
    }

    /// Replays a seq-tagged suffix through seq-dedup, matching `mine` — the
    /// messages of a request in flight — by equality: each is already
    /// applied locally, so a matched instance is noted but not re-absorbed.
    /// (A vote identical to another worker's is indistinguishable on the
    /// wire; skipping exactly one instance keeps the replica convergent
    /// either way, because identical vote messages are interchangeable in
    /// effect.) Says which of `mine` the suffix contained.
    fn replay(&mut self, msgs: &[(u64, Message)], mine: &[Outgoing]) -> Vec<bool> {
        let mut matched = vec![false; mine.len()];
        for (seq, m) in msgs {
            self.server_history_len = self.server_history_len.max(*seq + 1);
            if self.applied.note(*seq) {
                match (0..mine.len()).find(|&i| !matched[i] && mine[i].msg == *m) {
                    Some(i) => matched[i] = true,
                    None => self.client.absorb(m),
                }
            }
        }
        matched
    }

    /// Rebuilds the replica from a complete image of the history — a full
    /// resync's, or the bootstrap image a compacted server substitutes for
    /// a suffix it no longer has — and restarts the cursor at the server's
    /// watermark.
    fn adopt_image(&mut self, history: &[Message], history_len: u64, what: &str) {
        self.client.rebuild(history);
        self.applied.reset_to_prefix(history_len);
        self.server_history_len = self.server_history_len.max(history_len);
        counter("crowdfill_client_resyncs").inc();
        crowdfill_obs::obs_debug!(
            "client",
            "{what}";
            worker => self.client.worker().0,
            history_len => history_len,
        );
    }

    /// The next op's trace id: [`TraceId::NONE`] unless tracing is on and
    /// the op is sampled, so the disabled hot path pays one branch here.
    fn next_trace(&mut self) -> TraceId {
        self.trace_count = self.trace_count.wrapping_add(1);
        TraceId::generate(self.trace_seed, self.trace_count)
    }

    fn submit(&mut self, out: Outgoing, speculative: bool) -> Pending {
        Pending {
            msgs: vec![out],
            modify: false,
            speculative,
            trace: self.next_trace(),
        }
    }

    /// Fills a cell locally and returns what is owed to the server, in
    /// order, one ack each: the replace, then the automatic upvote when
    /// the fill completed the row. `speculative` marks the requests as the
    /// first traffic the server may turn away under load.
    pub fn fill(
        &mut self,
        row: RowId,
        column: ColumnId,
        value: Value,
        speculative: bool,
    ) -> Result<Vec<Pending>, RemoteError> {
        let outgoing = self.client.fill(row, column, value);
        let outgoing = outgoing.map_err(RemoteError::Op)?.into_iter();
        Ok(outgoing.map(|out| self.submit(out, speculative)).collect())
    }

    /// One of the replica's vote actions ([`WorkerClient::upvote`],
    /// `downvote`, `undo_upvote`, `undo_downvote`) on `row`, applied
    /// locally.
    pub fn vote(
        &mut self,
        row: RowId,
        action: fn(&mut WorkerClient, RowId) -> Result<Outgoing, OpError>,
    ) -> Result<Pending, RemoteError> {
        let out = action(&mut self.client, row).map_err(RemoteError::Op)?;
        Ok(self.submit(out, false))
    }

    /// Overwrites a non-empty cell via the composite modify action; the
    /// bundle travels as one frame so the server can authorize its insert.
    pub fn modify(
        &mut self,
        row: RowId,
        column: ColumnId,
        value: Value,
    ) -> Result<Pending, RemoteError> {
        let msgs = self.client.modify(row, column, value);
        Ok(Pending {
            msgs: msgs.map_err(RemoteError::Op)?,
            modify: true,
            speculative: false,
            trace: self.next_trace(),
        })
    }

    /// Undoes an op that was applied locally on optimistic grounds the
    /// server refuted (a reject) or never took up (overload): drops the
    /// vote record, and returns the full resync that rebuilds the replica
    /// from the authoritative history.
    pub fn roll_back(&mut self, pending: &Pending) -> String {
        for out in &pending.msgs {
            self.client.retract_own_vote_record(&out.msg);
        }
        self.sync_frame(true)
    }

    /// A `sync` request: for every history message this replica is missing,
    /// or (`full`) for the complete history to rebuild it from — the
    /// recovery of last resort after provable divergence. Await
    /// [`Event::Synced`].
    pub fn sync_frame(&mut self, full: bool) -> String {
        self.full_sync = full.then(Vec::new);
        if self.lag == Lag::Owed {
            self.lag = Lag::Asked;
        }
        let request = [("type", Json::str("sync"))];
        Json::obj(request.into_iter().chain(self.cursor(full))).encode()
    }

    /// The `from`/`have` fields of a `resume` or `sync` request: the
    /// contiguously-applied prefix and the sparse seqs above it — or
    /// nothing at all, to ask for the full history.
    fn cursor(&self, full: bool) -> [(&'static str, Json); 2] {
        let (from, have) = match full {
            true => (0, Vec::new()),
            false => (
                self.applied.last_contiguous().map_or(0, |s| s + 1),
                self.applied.extras().map(|s| Json::num(s as f64)).collect(),
            ),
        };
        [("from", Json::num(from as f64)), ("have", Json::Arr(have))]
    }

    /// The first request on a redialed connection. It carries the
    /// collection: re-attaching through the default one would be rejected
    /// (or hijack an unrelated id). A sync the old connection never
    /// answered is forgotten; what it held back was never applied, so the
    /// cursor still asks for it.
    pub fn resume_frame(&mut self) -> String {
        self.full_sync = None;
        let mut fields = vec![
            ("type", Json::str("resume")),
            ("worker", Json::num(self.client.worker().0 as f64)),
        ];
        fields.extend(self.cursor(false));
        if let Some(c) = &self.collection {
            fields.push(("collection", Json::str(c)));
        }
        Json::obj(fields).encode()
    }

    /// Reads the reply to a [`resume_frame`](Self::resume_frame) and
    /// settles `pending`, the request that was in flight when the old
    /// connection died. The missed suffix is replayed into the replica; if
    /// it contains the pending messages the server had applied them. A
    /// `reject` — unknown worker — is final.
    pub fn settle_resume(
        &mut self,
        pending: Option<&Pending>,
        reply: &[u8],
    ) -> Result<Settled, RemoteError> {
        let Ok(reply) = parse_frame(reply) else {
            return Ok(Settled::Redial);
        };
        match frame_type(&reply) {
            Some("resumed") => {}
            Some("reject") => return Err(RemoteError::Rejected(rejected(&reply))),
            _ => return Ok(Settled::Redial),
        }
        let (history_len, catch_up) = catch_up_from_json(&reply)?;
        counter("crowdfill_client_resumes").inc();
        let msgs = match catch_up {
            // The server compacted past our cursor while we were gone.
            CatchUp::Image(history) => {
                self.adopt_image(&history, history_len, "resume reset to bootstrap image");
                // Broadcasts that raced the image are not distinguishable
                // inside it; owe a catch-up sync.
                self.lag = Lag::Owed;
                // Nor does the image carry per-op identity, so whether
                // an in-flight submission landed is not decidable here:
                // nothing matches, and it is resubmitted below. If it HAD
                // landed, a re-sent fill is absorbed idempotently (the
                // Replace re-inserts the row it already produced with the
                // same Lemma-3 counts), and a re-sent vote is refused by
                // the vote policy, which routes through the rejection →
                // resync path like any divergence.
                Vec::new()
            }
            CatchUp::Suffix(msgs) => msgs,
        };
        crowdfill_obs::obs_debug!(
            "client",
            "session resumed";
            worker => self.client.worker().0,
            replayed => msgs.len(),
        );

        let matched = self.replay(&msgs, pending.map_or(&[], |p| &p.msgs));
        let Some(pending) = pending else {
            return Ok(Settled::Recovered);
        };
        if matched.iter().all(|&m| m) {
            // The server applied the submission; only its ack was lost.
            counter("crowdfill_client_recovered_acks").inc();
            return Ok(Settled::Recovered);
        }
        // The server never saw it. The resubmission goes out untraced —
        // its original root span already covers the recovery, and a fresh
        // id here would split one logical op across two traces — and
        // unmarked: the client has already paid for recovery, so the op is
        // no longer cheap to throw away.
        Ok(Settled::Resubmit(pending.encode(false, TraceId::NONE)))
    }

    /// The wait before redial number `attempt` of a recovery episode.
    pub fn backoff(&mut self, attempt: u32) -> Duration {
        counter("crowdfill_client_reconnect_attempts").inc();
        let (base, max) = self.delays.unwrap_or_default();
        let exp = base.saturating_mul(1u32 << attempt.min(16)).min(max);
        self.jittered(exp)
    }

    /// The wait before retrying an overload-rejected op: the server's
    /// `retry_after` hint, doubled per consecutive rejection and jittered
    /// like [`backoff`](Self::backoff) so a crowd of rejected clients does
    /// not return in lockstep.
    pub fn overload_backoff(&mut self, retry_after_ms: u64, tries: u32) -> Duration {
        counter("crowdfill_client_overload_backoffs").inc();
        let base = Duration::from_millis(retry_after_ms.max(1));
        let cap = self.delays.map_or(Duration::from_secs(2), |(_, max)| max);
        let exp = base
            .saturating_mul(1u32 << tries.min(10))
            .min(cap.max(base));
        self.jittered(exp)
    }

    /// Jitter in [50%, 100%] of the exponential step: desynchronizes a
    /// thundering herd of clients redialing after a server restart.
    fn jittered(&mut self, exp: Duration) -> Duration {
        self.jitter = splitmix64(self.jitter);
        exp * (500 + (self.jitter % 501) as u32) / 1000
    }
}
