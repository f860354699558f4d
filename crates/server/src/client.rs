//! The client half of the networked deployment: [`RemoteWorker`], a
//! [`WorkerClient`](crate::WorkerClient) replica kept in sync with a
//! [`TcpService`](crate::TcpService) over framed TCP, with
//! reconnect-and-resume recovery. The wire grammar and the failure model
//! it implements the client side of are documented in `tcp_service.rs`; it
//! depends on the wire codec and the transport only, never on the service.
//!
//! ## One decode path, one reply loop
//!
//! The client reads frames the way the server does: UTF-8 checked (bytes
//! that are not are a [`RemoteError::Protocol`], never rewritten), parsed
//! once as a borrowed [`JsonRef`], messages decoded by the same
//! [`wire`] functions. Every frame received after the handshake passes
//! through `RemoteWorker::dispatch`: a `msg`/`batch` broadcast or a
//! `lagging` note is absorbed from the tree already in hand, anything else
//! goes to the matcher of whichever request is waiting. Requests differ
//! only in that matcher — `RemoteWorker::await_reply` is the one loop
//! that receives for them all.

use crate::wire;
use crowdfill_docstore::{Json, JsonRef};
use crowdfill_model::Message;
use crowdfill_net::{ConnError, FrameConn, TcpConn};
use crowdfill_obs::metrics::Counter;
use crowdfill_obs::trace::{self as obstrace, ActiveSpan, SpanId, Stage, TraceId};
use crowdfill_pay::WorkerId;
use crowdfill_sync::AppliedSeqs;
use std::net::SocketAddr;
use std::ops::ControlFlow;
use std::sync::Arc;
use std::time::Duration;

/// How a [`RemoteWorker`] obtains a fresh connection: called with the attempt
/// number (0 for the initial connect, then one per redial). Tests wrap the
/// dialed connection in a [`FaultyConn`](crowdfill_net::FaultyConn) with a
/// per-attempt reseeded plan.
pub type Dialer = Box<dyn FnMut(u32) -> Result<Box<dyn FrameConn>, ConnError> + Send>;

/// Reconnection behavior of a [`RemoteWorker`].
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

/// Client-side recovery metrics.
#[derive(Debug)]
struct ClientMetrics {
    reconnect_attempts: Arc<Counter>,
    resumes: Arc<Counter>,
    resyncs: Arc<Counter>,
    recovered_acks: Arc<Counter>,
    overload_backoffs: Arc<Counter>,
}

impl ClientMetrics {
    fn resolve() -> ClientMetrics {
        use crowdfill_obs::metrics::counter;
        ClientMetrics {
            reconnect_attempts: counter("crowdfill_client_reconnect_attempts"),
            resumes: counter("crowdfill_client_resumes"),
            resyncs: counter("crowdfill_client_resyncs"),
            recovered_acks: counter("crowdfill_client_recovered_acks"),
            overload_backoffs: counter("crowdfill_client_overload_backoffs"),
        }
    }
}

/// A client-side handle: a [`WorkerClient`](crate::WorkerClient) replica kept
/// in sync over the TCP protocol, with reconnect-and-resume recovery when a
/// [`ReconnectPolicy`] is configured.
pub struct RemoteWorker {
    conn: Box<dyn FrameConn>,
    dialer: Dialer,
    policy: Option<ReconnectPolicy>,
    /// The collection this session attached to. Carried on every `resume`
    /// so recovery after an eviction or redial re-attaches to the SAME
    /// collection — worker ids and epochs are per-collection, and a bare
    /// resume would land on the server's default collection and be
    /// rejected (or worse, take over an unrelated worker's session).
    collection: Option<String>,
    client: crate::worker_client::WorkerClient,
    /// Exactly which history seqs this replica has applied.
    applied: AppliedSeqs,
    /// The highest server history length this client has evidence of
    /// (welcome, synced replies, broadcast/ack seqs): the denominator of
    /// [`local_lag`](Self::local_lag).
    server_history_len: u64,
    /// Set by a server `lagging` note: broadcasts to us were dropped and a
    /// `sync` is owed. Healed opportunistically after the next ack or
    /// [`absorb_pending`](Self::absorb_pending) call.
    needs_sync: bool,
    /// Jitter stream state.
    jitter: u64,
    /// Seed + counter of the deterministic trace-id stream: op ids are
    /// `TraceId::generate(trace_seed, n)` so a reconnecting client under a
    /// fixed policy emits the same ids run-to-run.
    trace_seed: u64,
    trace_count: u64,
    metrics: ClientMetrics,
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
    Op(crowdfill_model::OpError),
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
    const RECOVERED: RemoteAck = RemoteAck {
        estimate: 0.0,
        fulfilled: false,
        recovered: true,
    };
}

/// What was in flight when a connection died, for [`RemoteWorker::recover`].
enum Pending<'a> {
    Nothing,
    /// A single `submit` frame: the message and its auto-upvote flag.
    Submit(&'a Message, bool),
    /// A `modify` bundle (applied atomically by the server).
    Modify(&'a [crate::worker_client::Outgoing]),
}

impl Pending<'_> {
    fn messages(&self) -> Vec<&Message> {
        match self {
            Pending::Nothing => Vec::new(),
            Pending::Submit(m, _) => vec![m],
            Pending::Modify(bundle) => bundle.iter().map(|o| &o.msg).collect(),
        }
    }
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn protocol(what: &str) -> RemoteError {
    RemoteError::Protocol(what.into())
}

fn unexpected(ty: Option<&str>) -> RemoteError {
    RemoteError::Protocol(format!("unexpected frame {ty:?}"))
}

/// Decodes one received frame, borrowed. Bytes that are not UTF-8 are a
/// protocol error exactly like text that is not JSON.
fn parse_frame(frame: &[u8]) -> Result<JsonRef<'_>, RemoteError> {
    let text = std::str::from_utf8(frame).map_err(|e| RemoteError::Protocol(e.to_string()))?;
    JsonRef::parse(text).map_err(|e| RemoteError::Protocol(e.to_string()))
}

fn frame_type<'a>(j: &'a JsonRef<'_>) -> Option<&'a str> {
    j.get("type").and_then(JsonRef::as_str)
}

fn u64_field(j: &JsonRef<'_>, name: &str) -> Option<u64> {
    let v = j.get(name).and_then(JsonRef::as_i64)?;
    u64::try_from(v).ok()
}

fn rejected(reply: &JsonRef<'_>) -> RemoteError {
    let reason = reply.get("reason").and_then(JsonRef::as_str);
    RemoteError::Rejected(reason.unwrap_or("unknown").to_string())
}

fn message_from_json(j: &JsonRef<'_>) -> Result<Message, RemoteError> {
    wire::message_from_json(j).map_err(|e| RemoteError::Protocol(e.to_string()))
}

/// The `"history"` array of a `welcome`, or of a `resumed`/`synced` reply
/// that carries the bootstrap image instead of a suffix.
fn history_from_json(reply: &JsonRef<'_>) -> Result<Vec<Message>, RemoteError> {
    let history = reply.get("history").and_then(JsonRef::as_arr);
    history
        .ok_or_else(|| protocol("missing history"))?
        .iter()
        .map(message_from_json)
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
    let history_len =
        u64_field(reply, "history_len").ok_or_else(|| protocol("missing history_len"))?;
    if reply.get("reset").and_then(JsonRef::as_bool) == Some(true) {
        return Ok((history_len, CatchUp::Image(history_from_json(reply)?)));
    }
    let msgs = reply.get("msgs").and_then(JsonRef::as_arr);
    let msgs = msgs
        .ok_or_else(|| protocol("missing msgs"))?
        .iter()
        .map(|e| {
            let seq = u64_field(e, "seq").ok_or_else(|| protocol("missing seq"))?;
            let msg = e.get("msg").ok_or_else(|| protocol("missing msg"))?;
            Ok((seq, message_from_json(msg)?))
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

impl RemoteWorker {
    /// Connects, handshakes, and replays the history into a local replica.
    /// No reconnect policy: a connection failure surfaces as an error, as a
    /// plain TCP client would see it.
    pub fn connect(addr: SocketAddr) -> Result<RemoteWorker, RemoteError> {
        let dialer: Dialer =
            Box::new(move |_| TcpConn::connect(addr).map(|c| Box::new(c) as Box<dyn FrameConn>));
        RemoteWorker::establish(dialer, None, None)
    }

    /// Like [`connect`](Self::connect), but attaches to a named collection
    /// on a multi-collection service.
    pub fn connect_to(addr: SocketAddr, collection: &str) -> Result<RemoteWorker, RemoteError> {
        let dialer: Dialer =
            Box::new(move |_| TcpConn::connect(addr).map(|c| Box::new(c) as Box<dyn FrameConn>));
        RemoteWorker::establish(dialer, None, Some(collection.to_string()))
    }

    /// Connects through `dialer` and recovers from connection failures per
    /// `policy`: redial with capped backoff plus jitter, resume the session,
    /// replay what was missed, and finish any in-flight submission.
    pub fn connect_with(
        dialer: Dialer,
        policy: ReconnectPolicy,
    ) -> Result<RemoteWorker, RemoteError> {
        RemoteWorker::establish(dialer, Some(policy), None)
    }

    /// [`connect_with`](Self::connect_with) targeting a named collection;
    /// every resume after a failure re-attaches to the same collection.
    pub fn connect_with_to(
        dialer: Dialer,
        policy: ReconnectPolicy,
        collection: &str,
    ) -> Result<RemoteWorker, RemoteError> {
        RemoteWorker::establish(dialer, Some(policy), Some(collection.to_string()))
    }

    fn establish(
        mut dialer: Dialer,
        policy: Option<ReconnectPolicy>,
        collection: Option<String>,
    ) -> Result<RemoteWorker, RemoteError> {
        let attempts = policy.as_ref().map_or(1, |p| p.max_attempts.max(1));
        let mut last_err = RemoteError::Conn(ConnError::Disconnected);
        for attempt in 0..attempts {
            let conn = match dialer(attempt).map_err(RemoteError::Conn) {
                Ok(c) => c,
                Err(e) => {
                    last_err = e;
                    continue;
                }
            };
            match RemoteWorker::hello(&*conn, policy.as_ref(), collection.as_deref()) {
                Ok((client, applied)) => {
                    let jitter = policy.as_ref().map_or(0, |p| p.jitter_seed);
                    let trace_seed = splitmix64(jitter ^ (client.worker().0 as u64));
                    let server_history_len = applied.len();
                    return Ok(RemoteWorker {
                        conn,
                        dialer,
                        policy,
                        collection,
                        client,
                        applied,
                        server_history_len,
                        needs_sync: false,
                        jitter,
                        trace_seed,
                        trace_count: 0,
                        metrics: ClientMetrics::resolve(),
                    });
                }
                Err(e @ RemoteError::Conn(_)) => last_err = e,
                Err(e) => return Err(e),
            }
        }
        Err(last_err)
    }

    /// The hello handshake on a fresh connection.
    fn hello(
        conn: &dyn FrameConn,
        policy: Option<&ReconnectPolicy>,
        collection: Option<&str>,
    ) -> Result<(crate::worker_client::WorkerClient, AppliedSeqs), RemoteError> {
        let mut fields = vec![("type", Json::str("hello"))];
        if let Some(c) = collection {
            fields.push(("collection", Json::str(c)));
        }
        conn.send(Json::obj(fields).encode().as_bytes())
            .map_err(RemoteError::Conn)?;
        let frame = match policy {
            Some(p) => conn.recv_timeout(p.ack_timeout),
            None => conn.recv(),
        }
        .map_err(RemoteError::Conn)?;
        let welcome = parse_frame(&frame)?;
        if frame_type(&welcome) != Some("welcome") {
            return Err(protocol("expected welcome"));
        }
        let field = |name, missing| u64_field(&welcome, name).ok_or_else(|| protocol(missing));
        let worker = WorkerId(field("worker", "missing worker id")? as u32);
        let client_id = crowdfill_model::ClientId(field("client", "missing client id")? as u32);
        // The schema is read once per session: the owned detour keeps the
        // cold decoders (schema, template, trace, health) off the generics.
        let schema = welcome
            .get("schema")
            .ok_or_else(|| protocol("missing schema"))?;
        let schema = wire::schema_from_json(&schema.to_owned())
            .map_err(|e| RemoteError::Protocol(e.to_string()))?;
        let history = history_from_json(&welcome)?;
        let client =
            crate::worker_client::WorkerClient::new(worker, client_id, Arc::new(schema), &history);
        // The welcome's `history_len` is the server's real watermark; the
        // message array is a state image plus a log suffix that stands in
        // for that prefix, so the cursor can only come from the field.
        let history_len = field("history_len", "missing history_len")?;
        let mut applied = AppliedSeqs::new();
        applied.note_prefix(history_len);
        Ok((client, applied))
    }

    /// The local view (kept in sync by [`Self::absorb_pending`] and acks).
    pub fn view(&self) -> &crate::worker_client::WorkerClient {
        &self.client
    }

    /// This worker's id.
    pub fn worker(&self) -> WorkerId {
        self.client.worker()
    }

    /// Absorbs any broadcast messages that have arrived. If the server has
    /// flagged this connection as lagging (broadcasts to it were dropped),
    /// a catch-up `sync` is attempted here, best-effort — this is the heal
    /// point for read-mostly clients that rarely submit.
    pub fn absorb_pending(&mut self) -> usize {
        let mut n = 0;
        while let Ok(frame) = self.conn.try_recv() {
            // Nothing is awaited here: a stray reply is dropped.
            if let Ok(ControlFlow::Continue(true)) = self.dispatch(&frame, None, |_, _, _| Ok(())) {
                n += 1;
            }
        }
        self.heal_lag();
        n
    }

    /// Whether the server has told us to catch up via `sync` and we have
    /// not yet managed to.
    pub fn needs_sync(&self) -> bool {
        self.needs_sync
    }

    /// The owed catch-up `sync`, if any, best-effort: a failure re-sets
    /// the flag and the next heal point tries again.
    fn heal_lag(&mut self) {
        if self.needs_sync {
            // Clear first: a note that arrives during the sync refers to
            // drops the sync reply cannot cover and must re-set the flag.
            self.needs_sync = false;
            if self.sync().is_err() {
                self.needs_sync = true;
            }
        }
    }

    /// Parses one received frame — the only place the client does — and
    /// routes it. A broadcast (`msg`, or a multi-op `batch`) is absorbed
    /// from the tree in hand, or pushed decoded onto `stash` if the caller
    /// defers it, and a `lagging` note sets the flag: `Continue(fresh)`,
    /// `fresh` if anything new was applied. Any other frame is `reply`'s,
    /// and what it makes of it is the `Break` value.
    fn dispatch<T>(
        &mut self,
        frame: &[u8],
        mut stash: Option<&mut Vec<Broadcast>>,
        reply: impl FnOnce(&mut RemoteWorker, Option<&str>, &JsonRef<'_>) -> Result<T, RemoteError>,
    ) -> Result<ControlFlow<T, bool>, RemoteError> {
        let json = parse_frame(frame)?;
        let entries = match frame_type(&json) {
            Some("msg") => std::slice::from_ref(&json),
            Some("batch") => json.get("msgs").and_then(JsonRef::as_arr).unwrap_or(&[]),
            Some("lagging") => {
                self.needs_sync = true;
                &[]
            }
            other => return reply(self, other, &json).map(ControlFlow::Break),
        };
        let mut fresh = false;
        for broadcast in entries.iter().filter_map(Broadcast::from_json) {
            match &mut stash {
                Some(stash) => stash.push(broadcast),
                None => fresh |= self.absorb(broadcast),
            }
        }
        Ok(ControlFlow::Continue(fresh))
    }

    /// The one loop that receives after the handshake: frames go through
    /// [`dispatch`](Self::dispatch) until one is not a broadcast, and that
    /// one is `reply`'s to accept or refuse. With a policy each wait is
    /// bounded by `ack_timeout` (a dropped request or reply must not hang
    /// the client forever).
    fn await_reply<T>(
        &mut self,
        mut stash: Option<&mut Vec<Broadcast>>,
        mut reply: impl FnMut(&mut RemoteWorker, Option<&str>, &JsonRef<'_>) -> Result<T, RemoteError>,
    ) -> Result<T, RemoteError> {
        loop {
            let frame = match &self.policy {
                Some(p) => self.conn.recv_timeout(p.ack_timeout),
                None => self.conn.recv(),
            }
            .map_err(RemoteError::Conn)?;
            if let ControlFlow::Break(t) =
                self.dispatch(&frame, stash.as_deref_mut(), &mut reply)?
            {
                return Ok(t);
            }
        }
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

    /// Fills a cell: applies locally, submits (plus the auto-upvote when the
    /// fill completed the row), and returns the last ack.
    pub fn fill(
        &mut self,
        row: crowdfill_model::RowId,
        column: crowdfill_model::ColumnId,
        value: crowdfill_model::Value,
    ) -> Result<RemoteAck, RemoteError> {
        self.fill_as(row, column, value, false)
    }

    /// [`fill`](Self::fill), marked speculative: the server admits it only
    /// while its queue is comfortably below the admission bound, so under
    /// load this is the first traffic to be turned away
    /// ([`RemoteError::Overloaded`] after the retry budget). Use for
    /// prefetch/low-stakes work whose loss costs nothing.
    pub fn fill_speculative(
        &mut self,
        row: crowdfill_model::RowId,
        column: crowdfill_model::ColumnId,
        value: crowdfill_model::Value,
    ) -> Result<RemoteAck, RemoteError> {
        self.fill_as(row, column, value, true)
    }

    fn fill_as(
        &mut self,
        row: crowdfill_model::RowId,
        column: crowdfill_model::ColumnId,
        value: crowdfill_model::Value,
        speculative: bool,
    ) -> Result<RemoteAck, RemoteError> {
        let outgoing = self
            .client
            .fill(row, column, value)
            .map_err(RemoteError::Op)?;
        let mut last = None;
        for out in outgoing {
            last = Some(self.submit(&out.msg, out.auto_upvote, speculative)?);
        }
        Ok(last.expect("fill yields at least one message"))
    }

    /// Upvotes a row.
    pub fn upvote(&mut self, row: crowdfill_model::RowId) -> Result<RemoteAck, RemoteError> {
        let out = self.client.upvote(row).map_err(RemoteError::Op)?;
        self.submit(&out.msg, false, false)
    }

    /// Downvotes a row.
    pub fn downvote(&mut self, row: crowdfill_model::RowId) -> Result<RemoteAck, RemoteError> {
        let out = self.client.downvote(row).map_err(RemoteError::Op)?;
        self.submit(&out.msg, false, false)
    }

    /// Retracts an earlier upvote (own votes only).
    pub fn undo_upvote(&mut self, row: crowdfill_model::RowId) -> Result<RemoteAck, RemoteError> {
        let out = self.client.undo_upvote(row).map_err(RemoteError::Op)?;
        self.submit(&out.msg, false, false)
    }

    /// Retracts an earlier downvote (own votes only).
    pub fn undo_downvote(&mut self, row: crowdfill_model::RowId) -> Result<RemoteAck, RemoteError> {
        let out = self.client.undo_downvote(row).map_err(RemoteError::Op)?;
        self.submit(&out.msg, false, false)
    }

    /// Overwrites a non-empty cell via the composite modify action; the
    /// bundle travels as one frame so the server can authorize its insert.
    pub fn modify(
        &mut self,
        row: crowdfill_model::RowId,
        column: crowdfill_model::ColumnId,
        value: crowdfill_model::Value,
    ) -> Result<RemoteAck, RemoteError> {
        let bundle = self
            .client
            .modify(row, column, value)
            .map_err(RemoteError::Op)?;
        let trace = self.next_trace();
        self.transact(
            modify_frame(&bundle, trace),
            Pending::Modify(&bundle),
            trace,
        )
    }

    /// The next op's trace id: [`TraceId::NONE`] unless tracing is on and
    /// the op is sampled, so the disabled hot path pays one branch here.
    fn next_trace(&mut self) -> TraceId {
        self.trace_count = self.trace_count.wrapping_add(1);
        TraceId::generate(self.trace_seed, self.trace_count)
    }

    fn submit(
        &mut self,
        msg: &Message,
        auto: bool,
        speculative: bool,
    ) -> Result<RemoteAck, RemoteError> {
        let trace = self.next_trace();
        self.transact(
            submit_frame(msg, auto, speculative, trace),
            Pending::Submit(msg, auto),
            trace,
        )
    }

    /// Sends one request frame and drives it to an outcome:
    ///
    /// * connection failure → [`recover`](Self::recover) (with a policy);
    /// * `reject` → the optimistic local application has diverged: retract
    ///   the vote record, full resync, surface the rejection;
    /// * `overloaded` → the op was never applied server-side; retry the
    ///   same frame after a jittered backoff honoring the server's
    ///   `retry_after` hint, up to the policy's attempt budget, then roll
    ///   back the local application and surface the overload.
    fn transact(
        &mut self,
        frame: Json,
        pending: Pending<'_>,
        trace: TraceId,
    ) -> Result<RemoteAck, RemoteError> {
        // The root span covers the whole client-side transaction — send,
        // overload retries, recovery — so its duration is the op's true
        // submit-to-ack latency as the caller experienced it.
        let _root = if trace.is_none() {
            None
        } else {
            Some(ActiveSpan::root(trace, Stage::ClientSubmit))
        };
        let bytes = frame.encode();
        let mut overload_tries: u32 = 0;
        loop {
            let result = self
                .conn
                .send(bytes.as_bytes())
                .map_err(RemoteError::Conn)
                .and_then(|_| self.await_ack());
            match result {
                Ok(ack) => {
                    // The op is acked — durably applied server-side — so the
                    // lagging heal is best-effort, like `absorb_pending`: a
                    // transient sync failure must not surface as the op's
                    // error (a caller treating it as failure could retry an
                    // already-applied op).
                    self.heal_lag();
                    return Ok(ack);
                }
                Err(RemoteError::Conn(_)) if self.policy.is_some() => {
                    return self.recover(&pending);
                }
                Err(RemoteError::Rejected(r)) => {
                    self.roll_back(&pending.messages())?;
                    return Err(RemoteError::Rejected(r));
                }
                Err(RemoteError::Overloaded { retry_after_ms }) => {
                    let budget = self.policy.as_ref().map_or(0, |p| p.max_attempts);
                    if overload_tries >= budget {
                        // Out of retries, and the server never applied the op.
                        self.roll_back(&pending.messages())?;
                        return Err(RemoteError::Overloaded { retry_after_ms });
                    }
                    self.metrics.overload_backoffs.inc();
                    std::thread::sleep(self.overload_delay(retry_after_ms, overload_tries));
                    overload_tries += 1;
                }
                other => return other,
            }
        }
    }

    /// Undoes an op that was applied locally on optimistic grounds the
    /// server refuted (a reject) or never took up (overload): drop the vote
    /// record and rebuild from the authoritative history.
    fn roll_back(&mut self, msgs: &[&Message]) -> Result<(), RemoteError> {
        for m in msgs {
            self.client.retract_own_vote_record(m);
        }
        self.resync()
    }

    /// Waits for the server's ack/reject, absorbing interleaved broadcasts.
    fn await_ack(&mut self) -> Result<RemoteAck, RemoteError> {
        self.await_reply(None, |this, ty, json| match ty {
            Some("ack") => {
                // The seqs the server assigned to our own submission: we
                // never get them back as broadcasts.
                let seqs = json.get("seqs").and_then(JsonRef::as_arr).unwrap_or(&[]);
                for s in seqs.iter().filter_map(JsonRef::as_i64) {
                    if let Ok(s) = u64::try_from(s) {
                        this.server_history_len = this.server_history_len.max(s + 1);
                        this.applied.note(s);
                    }
                }
                let estimate = json.get("estimate").and_then(JsonRef::as_f64);
                let fulfilled = json.get("fulfilled").and_then(JsonRef::as_bool);
                Ok(RemoteAck {
                    estimate: estimate.unwrap_or(0.0),
                    fulfilled: fulfilled.unwrap_or(false),
                    recovered: false,
                })
            }
            Some("overloaded") => Err(RemoteError::Overloaded {
                retry_after_ms: u64_field(json, "retry_after_ms").unwrap_or(0),
            }),
            Some("reject") => Err(rejected(json)),
            other => Err(unexpected(other)),
        })
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

    fn backoff_delay(&mut self, policy: &ReconnectPolicy, attempt: u32) -> Duration {
        let exp = policy
            .base_delay
            .saturating_mul(1u32 << attempt.min(16))
            .min(policy.max_delay);
        // Jitter in [50%, 100%] of the exponential step: desynchronizes a
        // thundering herd of clients redialing after a server restart.
        self.jitter = splitmix64(self.jitter);
        let per_mille = 500 + (self.jitter % 501) as u32;
        exp * per_mille / 1000
    }

    /// The wait before retrying an overload-rejected op: the server's
    /// `retry_after` hint, doubled per consecutive rejection and jittered
    /// like [`backoff_delay`](Self::backoff_delay) so a crowd of rejected
    /// clients does not return in lockstep.
    fn overload_delay(&mut self, retry_after_ms: u64, tries: u32) -> Duration {
        let base = Duration::from_millis(retry_after_ms.max(1));
        let cap = self
            .policy
            .as_ref()
            .map_or(Duration::from_secs(2), |p| p.max_delay)
            .max(base);
        let exp = base.saturating_mul(1u32 << tries.min(10)).min(cap);
        self.jitter = splitmix64(self.jitter);
        let per_mille = 500 + (self.jitter % 501) as u32;
        exp * per_mille / 1000
    }

    /// Reconnect-and-resume. Replays the missed history suffix into the
    /// replica, then settles whatever was in flight: if the replay contains
    /// it, the server applied it and the lost ack is synthesized
    /// (`recovered = true`); otherwise it is resubmitted. A rejected
    /// resubmission forces a full [`resync`](Self::resync) (the optimistic
    /// local application has diverged) and surfaces the rejection.
    fn recover(&mut self, pending: &Pending<'_>) -> Result<RemoteAck, RemoteError> {
        let policy = self.policy.clone().expect("recover requires a policy");
        let pending_msgs = pending.messages();
        for attempt in 0..policy.max_attempts {
            std::thread::sleep(self.backoff_delay(&policy, attempt));
            self.metrics.reconnect_attempts.inc();
            let conn = match (self.dialer)(attempt + 1) {
                Ok(c) => c,
                Err(_) => continue,
            };
            // The resume carries the collection id: worker ids and epochs
            // are per-collection, so re-attaching through the default
            // collection would be rejected (or hijack an unrelated id).
            let mut fields = vec![
                ("type", Json::str("resume")),
                ("worker", Json::num(self.client.worker().0 as f64)),
            ];
            fields.extend(self.cursor(false));
            if let Some(c) = &self.collection {
                fields.push(("collection", Json::str(c)));
            }
            let resume = Json::obj(fields).encode();
            let exchange = conn.send(resume.as_bytes());
            let Ok(frame) = exchange.and_then(|()| conn.recv_timeout(policy.ack_timeout)) else {
                continue;
            };
            let Ok(reply) = parse_frame(&frame) else {
                continue;
            };
            match frame_type(&reply) {
                Some("resumed") => {}
                // Unknown worker: unrecoverable, no point redialing.
                Some("reject") => return Err(rejected(&reply)),
                _ => continue,
            }
            let (history_len, catch_up) = catch_up_from_json(&reply)?;
            self.conn = conn;
            self.metrics.resumes.inc();
            let msgs = match catch_up {
                // The server compacted past our cursor while we were gone.
                CatchUp::Image(history) => {
                    self.adopt_image(&history, history_len, "resume reset to bootstrap image");
                    // Broadcasts that raced the image are not distinguishable
                    // inside it; owe a catch-up sync.
                    self.needs_sync = true;
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
                attempt => attempt,
                replayed => msgs.len(),
            );

            // Replay, matching our in-flight messages by equality: each is
            // already applied locally, so a matched instance is noted but
            // not re-absorbed. (A vote identical to another worker's is
            // indistinguishable on the wire; skipping exactly one instance
            // keeps the replica convergent either way, because identical
            // vote messages are interchangeable in effect.)
            let mut matched = vec![false; pending_msgs.len()];
            for (seq, m) in &msgs {
                self.server_history_len = self.server_history_len.max(*seq + 1);
                if !self.applied.note(*seq) {
                    continue;
                }
                let mine = pending_msgs
                    .iter()
                    .enumerate()
                    .find(|(i, pm)| !matched[*i] && **pm == m)
                    .map(|(i, _)| i);
                match mine {
                    Some(i) => matched[i] = true,
                    None => self.client.absorb(m),
                }
            }
            if pending_msgs.is_empty() {
                return Ok(RemoteAck::RECOVERED);
            }
            if matched.iter().all(|&m| m) {
                // The server applied the submission; only its ack was lost.
                self.metrics.recovered_acks.inc();
                return Ok(RemoteAck::RECOVERED);
            }

            // The server never saw it: resubmit on the fresh connection.
            // The resubmission goes out untraced — its original root span
            // already covers the recovery, and a fresh id here would split
            // one logical op across two traces.
            let frame = match pending {
                Pending::Submit(msg, auto) => submit_frame(msg, *auto, false, TraceId::NONE),
                Pending::Modify(bundle) => modify_frame(bundle, TraceId::NONE),
                Pending::Nothing => unreachable!("handled above"),
            };
            let result = self
                .conn
                .send(frame.encode().as_bytes())
                .map_err(RemoteError::Conn)
                .and_then(|_| self.await_ack());
            match result {
                Ok(ack) => return Ok(ack),
                Err(RemoteError::Rejected(r)) => {
                    self.roll_back(&pending_msgs)?;
                    return Err(RemoteError::Rejected(r));
                }
                Err(RemoteError::Overloaded { retry_after_ms }) => {
                    // Queue full on an otherwise healthy connection: wait
                    // out the hint and take another lap — resume is
                    // control-class and always gets through, and the next
                    // replay settles whether the resubmission landed.
                    self.metrics.overload_backoffs.inc();
                    std::thread::sleep(Duration::from_millis(retry_after_ms.max(1)));
                    continue;
                }
                Err(RemoteError::Conn(_)) => continue,
                Err(e) => return Err(e),
            }
        }
        Err(RemoteError::Conn(ConnError::Disconnected))
    }

    /// Asks the server for every history message this replica is missing
    /// and applies them — the catch-up that heals silent broadcast loss on
    /// a lossy link. Call before comparing replicas (or periodically).
    pub fn sync(&mut self) -> Result<(), RemoteError> {
        self.sync_inner(false)
    }

    /// Rebuilds the local replica from the server's complete history — the
    /// recovery of last resort after provable divergence (e.g. a rejected
    /// submission that was already applied locally).
    pub fn resync(&mut self) -> Result<(), RemoteError> {
        self.sync_inner(true)
    }

    fn sync_inner(&mut self, full: bool) -> Result<(), RemoteError> {
        let attempts = self.policy.as_ref().map_or(1, |p| p.max_attempts.max(1));
        let mut last = RemoteError::Conn(ConnError::Disconnected);
        for _ in 0..attempts {
            match self.try_sync(full) {
                Ok(()) => return Ok(()),
                Err(e @ RemoteError::Conn(_)) if self.policy.is_some() => {
                    last = e;
                    // Re-establish the session, then retry the sync on the
                    // fresh connection.
                    self.recover(&Pending::Nothing)?;
                }
                Err(e) => return Err(e),
            }
        }
        Err(last)
    }

    fn try_sync(&mut self, full: bool) -> Result<(), RemoteError> {
        let request = [("type", Json::str("sync"))];
        self.send(&Json::obj(request.into_iter().chain(self.cursor(full))))?;
        // During a full resync, broadcasts that race the reply must be
        // replayed AFTER the rebuild (the rebuild would otherwise erase
        // them): they are stashed, decoded, and run through seq-dedup at
        // the end. Incremental syncs apply them immediately, as usual. A
        // `lagging` note that races the reply means drops after the server
        // processed this very sync: another round is owed once it is done.
        let mut stash = Vec::new();
        let (history_len, catch_up) =
            self.await_reply(full.then_some(&mut stash), |_, ty, json| match ty {
                Some("synced") => catch_up_from_json(json),
                other => Err(unexpected(other)),
            })?;
        self.server_history_len = self.server_history_len.max(history_len);
        match catch_up {
            CatchUp::Image(history) => {
                self.adopt_image(&history, history_len, "sync reset to bootstrap image")
            }
            CatchUp::Suffix(msgs) if full => {
                let history: Vec<Message> = msgs.into_iter().map(|(_, m)| m).collect();
                self.adopt_image(&history, history_len, "full resync");
            }
            CatchUp::Suffix(msgs) => {
                for (seq, m) in &msgs {
                    if self.applied.note(*seq) {
                        self.client.absorb(m);
                    }
                }
            }
        }
        // Seq-dedup drops the stashed broadcasts the image already covers.
        for broadcast in stash {
            self.absorb(broadcast);
        }
        Ok(())
    }

    /// Rebuilds the replica from a complete image of the history — a full
    /// resync's, or the bootstrap image a compacted server substitutes for
    /// a suffix it no longer has — and restarts the cursor at the server's
    /// watermark.
    fn adopt_image(&mut self, history: &[Message], history_len: u64, what: &str) {
        self.client.rebuild(history);
        self.applied.reset_to_prefix(history_len);
        self.server_history_len = self.server_history_len.max(history_len);
        self.metrics.resyncs.inc();
        crowdfill_obs::obs_debug!(
            "client",
            "{what}";
            worker => self.client.worker().0,
            history_len => history_len,
        );
    }

    fn send(&self, frame: &Json) -> Result<(), RemoteError> {
        self.conn
            .send(frame.encode().as_bytes())
            .map_err(RemoteError::Conn)
    }

    /// Sends a bare `{"type":ty}` request and decodes the reply of the same
    /// type, absorbing any interleaved broadcasts.
    fn request<T>(
        &mut self,
        ty: &'static str,
        decode: impl Fn(&JsonRef<'_>) -> Option<T>,
    ) -> Result<T, RemoteError> {
        self.send(&Json::obj([("type", Json::str(ty))]))?;
        self.await_reply(None, |_, got, json| match got {
            Some(got) if got == ty => {
                decode(json).ok_or_else(|| RemoteError::Protocol(format!("malformed {ty} reply")))
            }
            other => Err(unexpected(other)),
        })
    }

    /// Fetches the server's metrics snapshot (Prometheus-style text).
    pub fn stats(&mut self) -> Result<String, RemoteError> {
        self.request("stats", |reply| {
            reply.get("snapshot")?.as_str().map(str::to_string)
        })
    }

    /// Fetches the server's live health report (completeness, per-column
    /// agreement, per-worker latency and lag, SLO burn rates).
    pub fn health(&mut self) -> Result<crate::health::HealthReport, RemoteError> {
        self.request("health", |reply| {
            crate::health::HealthReport::from_json(&reply.get("report")?.to_owned())
        })
    }

    /// How far this replica trails the server's history as of the last
    /// frame processed: `history_len − applied`. Zero right after a
    /// successful `sync`.
    pub fn local_lag(&self) -> u64 {
        self.applied.lag_behind(self.server_history_len)
    }

    /// Fetches the server's flight-recorder contents as JSON lines (one
    /// [`TraceEvent`] per line).
    pub fn trace_dump(&mut self) -> Result<String, RemoteError> {
        self.request("trace_dump", |reply| {
            reply.get("events")?.as_str().map(str::to_string)
        })
    }

    /// Says goodbye (the server releases the session).
    pub fn bye(self) {
        let _ = self
            .conn
            .send(Json::obj([("type", Json::str("bye"))]).encode().as_bytes());
    }
}

/// A submit frame with an explicit admission class. A speculative
/// resubmission after a reconnect intentionally goes out unmarked
/// ([`Pending`] carries no flag): the client has already paid for
/// recovery, so the op is no longer cheap to throw away.
fn submit_frame(msg: &Message, auto: bool, speculative: bool, trace: TraceId) -> Json {
    let mut fields = vec![
        ("type", Json::str("submit")),
        ("auto", Json::Bool(auto)),
        ("msg", wire::message_to_json(msg)),
    ];
    if speculative {
        fields.push(("speculative", Json::Bool(true)));
    }
    if !trace.is_none() {
        fields.push(("trace", Json::str(trace.to_hex())));
    }
    Json::obj(fields)
}

fn modify_frame(bundle: &[crate::worker_client::Outgoing], trace: TraceId) -> Json {
    let msgs = Json::Arr(
        bundle
            .iter()
            .map(|o| {
                Json::obj([
                    ("auto", Json::Bool(o.auto_upvote)),
                    ("msg", wire::message_to_json(&o.msg)),
                ])
            })
            .collect(),
    );
    let mut fields = vec![("type", Json::str("modify")), ("msgs", msgs)];
    if !trace.is_none() {
        fields.push(("trace", Json::str(trace.to_hex())));
    }
    Json::obj(fields)
}
