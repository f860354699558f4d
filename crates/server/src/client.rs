//! The client half of the networked deployment: [`RemoteWorker`], a
//! [`WorkerClient`](crate::WorkerClient) replica kept in sync with a
//! [`TcpService`](crate::TcpService) over framed TCP, with
//! reconnect-and-resume recovery. The wire grammar and the failure model
//! it implements the client side of are documented in `tcp_service.rs`; it
//! depends on the wire codec and the transport only, never on the service.

use crate::wire;
use crowdfill_docstore::Json;
use crowdfill_model::Message;
use crowdfill_net::{ConnError, FrameConn, TcpConn};
use crowdfill_obs::metrics::Counter;
use crowdfill_obs::trace::{self as obstrace, ActiveSpan, SpanId, Stage, TraceId};
use crowdfill_pay::WorkerId;
use crowdfill_sync::AppliedSeqs;
use std::net::SocketAddr;
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

/// The trace context of a broadcast entry: an optional `"trace"` field
/// carrying the id in hex. Only consulted when tracing is on, so the
/// disabled path pays one branch.
fn json_trace(j: &Json) -> TraceId {
    if !obstrace::enabled() {
        return TraceId::NONE;
    }
    j.get("trace")
        .and_then(Json::as_str)
        .and_then(TraceId::from_hex)
        .unwrap_or(TraceId::NONE)
}

fn seq_msgs_from_json(j: &Json) -> Result<Vec<(u64, Message)>, RemoteError> {
    j.as_arr()
        .ok_or_else(|| RemoteError::Protocol("msgs must be an array".into()))?
        .iter()
        .map(|e| {
            let seq = e
                .get("seq")
                .and_then(Json::as_i64)
                .filter(|v| *v >= 0)
                .ok_or_else(|| RemoteError::Protocol("missing seq".into()))?
                as u64;
            let msg = e
                .get("msg")
                .ok_or_else(|| RemoteError::Protocol("missing msg".into()))
                .and_then(|m| {
                    wire::message_from_json(m).map_err(|e| RemoteError::Protocol(e.to_string()))
                })?;
            Ok((seq, msg))
        })
        .collect()
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
        let welcome = Json::parse(&String::from_utf8_lossy(&frame))
            .map_err(|e| RemoteError::Protocol(e.to_string()))?;
        if welcome.get("type").and_then(Json::as_str) != Some("welcome") {
            return Err(RemoteError::Protocol("expected welcome".into()));
        }
        let worker = WorkerId(
            welcome
                .get("worker")
                .and_then(Json::as_i64)
                .ok_or_else(|| RemoteError::Protocol("missing worker id".into()))?
                as u32,
        );
        let client_id = crowdfill_model::ClientId(
            welcome
                .get("client")
                .and_then(Json::as_i64)
                .ok_or_else(|| RemoteError::Protocol("missing client id".into()))?
                as u32,
        );
        let schema = wire::schema_from_json(
            welcome
                .get("schema")
                .ok_or_else(|| RemoteError::Protocol("missing schema".into()))?,
        )
        .map_err(|e| RemoteError::Protocol(e.to_string()))?;
        let history = welcome
            .get("history")
            .and_then(Json::as_arr)
            .ok_or_else(|| RemoteError::Protocol("missing history".into()))?
            .iter()
            .map(wire::message_from_json)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| RemoteError::Protocol(e.to_string()))?;
        let client =
            crate::worker_client::WorkerClient::new(worker, client_id, Arc::new(schema), &history);
        // The welcome's `history_len` is the server's real watermark; the
        // message array may be the shorter post-compaction bootstrap that
        // stands in for that prefix, so the cursor comes from the field
        // (falling back to the array length for old servers).
        let history_len = welcome
            .get("history_len")
            .and_then(Json::as_i64)
            .filter(|v| *v >= 0)
            .map_or(history.len() as u64, |v| v as u64);
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
            if self.absorb_frame(&frame) {
                n += 1;
            }
        }
        if self.needs_sync {
            // Clear first: a note that arrives during the sync refers to
            // drops the sync reply cannot cover and must re-set the flag.
            self.needs_sync = false;
            if self.sync().is_err() {
                self.needs_sync = true;
            }
        }
        n
    }

    /// Whether the server has told us to catch up via `sync` and we have
    /// not yet managed to.
    pub fn needs_sync(&self) -> bool {
        self.needs_sync
    }

    /// Applies a broadcast frame — a single `msg` or a multi-op `batch` —
    /// if it carries anything fresh; seq-based dedup makes redelivery (e.g.
    /// overlap between a resume replay and a racing flush) harmless even
    /// though messages themselves are not idempotent.
    fn absorb_frame(&mut self, frame: &[u8]) -> bool {
        let Ok(json) = Json::parse(&String::from_utf8_lossy(frame)) else {
            return false;
        };
        match json.get("type").and_then(Json::as_str) {
            Some("msg") => self.absorb_seq_msg(&json),
            Some("batch") => {
                let mut any = false;
                if let Some(entries) = json.get("msgs").and_then(Json::as_arr) {
                    for entry in entries {
                        any |= self.absorb_seq_msg(entry);
                    }
                }
                any
            }
            Some("lagging") => {
                self.needs_sync = true;
                false
            }
            _ => false,
        }
    }

    /// Applies one `{"seq":n,"msg":{...}}` element (the shared shape of a
    /// `msg` frame body and a `batch` frame entry), seq-deduplicated.
    fn absorb_seq_msg(&mut self, entry: &Json) -> bool {
        let Some(m) = entry
            .get("msg")
            .and_then(|m| wire::message_from_json(m).ok())
        else {
            return false;
        };
        match entry.get("seq").and_then(Json::as_i64).filter(|v| *v >= 0) {
            Some(seq) => {
                self.server_history_len = self.server_history_len.max(seq as u64 + 1);
                if self.applied.note(seq as u64) {
                    self.client.absorb(&m);
                    let trace = json_trace(entry);
                    if !trace.is_none() {
                        // The far edge of the causal chain: another
                        // replica applied the originating op's broadcast.
                        obstrace::stamp(
                            trace,
                            Stage::ClientAbsorb,
                            SpanId::root(trace),
                            seq as u64,
                            self.client.worker().0 as u64,
                        );
                    }
                    return true;
                }
                false
            }
            None => {
                self.client.absorb(&m);
                true
            }
        }
    }

    /// Fills a cell: applies locally, submits (plus the auto-upvote when the
    /// fill completed the row), and returns the last ack.
    pub fn fill(
        &mut self,
        row: crowdfill_model::RowId,
        column: crowdfill_model::ColumnId,
        value: crowdfill_model::Value,
    ) -> Result<RemoteAck, RemoteError> {
        let outgoing = self
            .client
            .fill(row, column, value)
            .map_err(RemoteError::Op)?;
        let mut last = None;
        for out in outgoing {
            last = Some(self.submit(&out.msg, out.auto_upvote)?);
        }
        Ok(last.expect("fill yields at least one message"))
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
        let outgoing = self
            .client
            .fill(row, column, value)
            .map_err(RemoteError::Op)?;
        let mut last = None;
        for out in outgoing {
            let trace = self.next_trace();
            last = Some(self.transact(
                submit_frame_with(&out.msg, out.auto_upvote, true, trace),
                Pending::Submit(&out.msg, out.auto_upvote),
                trace,
            )?);
        }
        Ok(last.expect("fill yields at least one message"))
    }

    /// Upvotes a row.
    pub fn upvote(&mut self, row: crowdfill_model::RowId) -> Result<RemoteAck, RemoteError> {
        let out = self.client.upvote(row).map_err(RemoteError::Op)?;
        self.submit(&out.msg, false)
    }

    /// Downvotes a row.
    pub fn downvote(&mut self, row: crowdfill_model::RowId) -> Result<RemoteAck, RemoteError> {
        let out = self.client.downvote(row).map_err(RemoteError::Op)?;
        self.submit(&out.msg, false)
    }

    /// Retracts an earlier upvote (own votes only).
    pub fn undo_upvote(&mut self, row: crowdfill_model::RowId) -> Result<RemoteAck, RemoteError> {
        let out = self.client.undo_upvote(row).map_err(RemoteError::Op)?;
        self.submit(&out.msg, false)
    }

    /// Retracts an earlier downvote (own votes only).
    pub fn undo_downvote(&mut self, row: crowdfill_model::RowId) -> Result<RemoteAck, RemoteError> {
        let out = self.client.undo_downvote(row).map_err(RemoteError::Op)?;
        self.submit(&out.msg, false)
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

    fn submit(&mut self, msg: &Message, auto: bool) -> Result<RemoteAck, RemoteError> {
        let trace = self.next_trace();
        self.transact(
            submit_frame_with(msg, auto, false, trace),
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
                    // already-applied op). Re-set the flag and heal later.
                    if self.needs_sync {
                        self.needs_sync = false;
                        if self.sync().is_err() {
                            self.needs_sync = true;
                        }
                    }
                    return Ok(ack);
                }
                Err(RemoteError::Conn(_)) if self.policy.is_some() => {
                    return self.recover(&pending);
                }
                Err(RemoteError::Rejected(r)) => {
                    // Applied locally on optimistic grounds the server just
                    // refuted: drop the vote record and rebuild from the
                    // authoritative history before surfacing the rejection.
                    for m in pending.messages() {
                        self.client.retract_own_vote_record(m);
                    }
                    self.resync()?;
                    return Err(RemoteError::Rejected(r));
                }
                Err(RemoteError::Overloaded { retry_after_ms }) => {
                    let budget = self.policy.as_ref().map_or(0, |p| p.max_attempts);
                    if overload_tries >= budget {
                        // Out of retries. The server never applied the op,
                        // so the optimistic local application must go too.
                        for m in pending.messages() {
                            self.client.retract_own_vote_record(m);
                        }
                        self.resync()?;
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

    /// Waits for the server's ack/reject, absorbing interleaved broadcasts.
    /// With a policy, the wait is bounded by `ack_timeout` (a dropped
    /// request or reply must not hang the client forever).
    fn await_ack(&mut self) -> Result<RemoteAck, RemoteError> {
        loop {
            let frame = self.recv_frame().map_err(RemoteError::Conn)?;
            let json = Json::parse(&String::from_utf8_lossy(&frame))
                .map_err(|e| RemoteError::Protocol(e.to_string()))?;
            match json.get("type").and_then(Json::as_str) {
                Some("msg") | Some("batch") | Some("lagging") => {
                    self.absorb_frame(&frame);
                }
                Some("overloaded") => {
                    return Err(RemoteError::Overloaded {
                        retry_after_ms: json
                            .get("retry_after_ms")
                            .and_then(Json::as_i64)
                            .filter(|v| *v >= 0)
                            .unwrap_or(0) as u64,
                    });
                }
                Some("ack") => {
                    self.note_ack_seqs(&json);
                    return Ok(RemoteAck {
                        estimate: json.get("estimate").and_then(Json::as_f64).unwrap_or(0.0),
                        fulfilled: json
                            .get("fulfilled")
                            .and_then(Json::as_bool)
                            .unwrap_or(false),
                        recovered: false,
                    });
                }
                Some("reject") => {
                    return Err(RemoteError::Rejected(
                        json.get("reason")
                            .and_then(Json::as_str)
                            .unwrap_or("unknown")
                            .to_string(),
                    ));
                }
                other => return Err(RemoteError::Protocol(format!("unexpected frame {other:?}"))),
            }
        }
    }

    fn recv_frame(&self) -> Result<Vec<u8>, ConnError> {
        match &self.policy {
            Some(p) => self.conn.recv_timeout(p.ack_timeout),
            None => self.conn.recv(),
        }
    }

    /// Records the seqs the server assigned to our own submission (we never
    /// get them back as broadcasts).
    fn note_ack_seqs(&mut self, ack: &Json) {
        if let Some(seqs) = ack.get("seqs").and_then(Json::as_arr) {
            for s in seqs.iter().filter_map(Json::as_i64).filter(|v| *v >= 0) {
                self.server_history_len = self.server_history_len.max(s as u64 + 1);
                self.applied.note(s as u64);
            }
        }
    }

    /// Number of contiguously-applied history messages (the resume cursor).
    fn contig(&self) -> u64 {
        self.applied.last_contiguous().map_or(0, |s| s + 1)
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
                ("from", Json::num(self.contig() as f64)),
                (
                    "have",
                    Json::Arr(self.applied.extras().map(|s| Json::num(s as f64)).collect()),
                ),
            ];
            if let Some(c) = &self.collection {
                fields.push(("collection", Json::str(c)));
            }
            let req = Json::obj(fields);
            if conn.send(req.encode().as_bytes()).is_err() {
                continue;
            }
            let frame = match conn.recv_timeout(policy.ack_timeout) {
                Ok(f) => f,
                Err(_) => continue,
            };
            let reply = match Json::parse(&String::from_utf8_lossy(&frame)) {
                Ok(j) => j,
                Err(_) => continue,
            };
            match reply.get("type").and_then(Json::as_str) {
                Some("resumed") => {}
                Some("reject") => {
                    // Unknown worker: unrecoverable, no point redialing.
                    return Err(RemoteError::Rejected(
                        reply
                            .get("reason")
                            .and_then(Json::as_str)
                            .unwrap_or("unknown")
                            .to_string(),
                    ));
                }
                _ => continue,
            }
            if reply.get("reset").and_then(Json::as_bool).unwrap_or(false) {
                // The server compacted past our cursor while we were gone:
                // the suffix we asked for no longer exists. Rebuild the
                // replica from the bootstrap image and restart the cursor
                // at the server's watermark.
                let history_len = reply
                    .get("history_len")
                    .and_then(Json::as_i64)
                    .filter(|v| *v >= 0)
                    .ok_or_else(|| {
                        RemoteError::Protocol("reset resume missing history_len".into())
                    })? as u64;
                let history = reply
                    .get("history")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| RemoteError::Protocol("reset resume missing history".into()))?
                    .iter()
                    .map(wire::message_from_json)
                    .collect::<Result<Vec<_>, _>>()
                    .map_err(|e| RemoteError::Protocol(e.to_string()))?;
                self.conn = conn;
                self.metrics.resumes.inc();
                self.metrics.resyncs.inc();
                self.client.rebuild(&history);
                self.applied.reset_to_prefix(history_len);
                self.server_history_len = self.server_history_len.max(history_len);
                // Broadcasts that raced the image are not distinguishable
                // inside it; owe a catch-up sync.
                self.needs_sync = true;
                crowdfill_obs::obs_debug!(
                    "client",
                    "resume reset to bootstrap image";
                    worker => self.client.worker().0,
                    attempt => attempt,
                    history_len => history_len,
                );
                if pending_msgs.is_empty() {
                    return Ok(RemoteAck {
                        estimate: 0.0,
                        fulfilled: false,
                        recovered: true,
                    });
                }
                // The synthetic image carries no per-op identity, so whether
                // the in-flight submission landed is not decidable here:
                // fall through and resubmit it. If it HAD landed, a re-sent
                // fill is absorbed idempotently (the Replace re-inserts the
                // row it already produced with the same Lemma-3 counts), and
                // a re-sent vote is refused by the vote policy, which routes
                // through the rejection → resync path like any divergence.
            } else {
                let msgs = seq_msgs_from_json(
                    reply
                        .get("msgs")
                        .ok_or_else(|| RemoteError::Protocol("resumed missing msgs".into()))?,
                )?;
                self.conn = conn;
                self.metrics.resumes.inc();
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
                    return Ok(RemoteAck {
                        estimate: 0.0,
                        fulfilled: false,
                        recovered: true,
                    });
                }
                if matched.iter().all(|&m| m) {
                    // The server applied the submission; only its ack was lost.
                    self.metrics.recovered_acks.inc();
                    return Ok(RemoteAck {
                        estimate: 0.0,
                        fulfilled: false,
                        recovered: true,
                    });
                }
            }

            // The server never saw it: resubmit on the fresh connection.
            // The resubmission goes out untraced — its original root span
            // already covers the recovery, and a fresh id here would split
            // one logical op across two traces.
            let frame = match pending {
                Pending::Submit(msg, auto) => submit_frame(msg, *auto),
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
                    // Applied locally, refused by the server: diverged.
                    for m in &pending_msgs {
                        self.client.retract_own_vote_record(m);
                    }
                    self.resync()?;
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
        let (from, have) = if full {
            (0, Vec::new())
        } else {
            (self.contig(), self.applied.extras().collect())
        };
        let req = Json::obj([
            ("type", Json::str("sync")),
            ("from", Json::num(from as f64)),
            (
                "have",
                Json::Arr(have.iter().map(|s| Json::num(*s as f64)).collect()),
            ),
        ]);
        self.conn
            .send(req.encode().as_bytes())
            .map_err(RemoteError::Conn)?;
        // During a full resync, broadcasts that race the reply must be
        // replayed AFTER the rebuild (the rebuild would otherwise erase
        // them); stash their frames and run them through seq-dedup at the
        // end. Incremental syncs apply them immediately, as usual.
        let mut stash: Vec<Vec<u8>> = Vec::new();
        loop {
            let frame = self.recv_frame().map_err(RemoteError::Conn)?;
            let json = Json::parse(&String::from_utf8_lossy(&frame))
                .map_err(|e| RemoteError::Protocol(e.to_string()))?;
            match json.get("type").and_then(Json::as_str) {
                Some("msg") | Some("batch") => {
                    if full {
                        stash.push(frame);
                    } else {
                        self.absorb_frame(&frame);
                    }
                }
                Some("lagging") => {
                    // Drops after the server processed this very sync:
                    // another round is owed once this one completes.
                    self.needs_sync = true;
                }
                Some("synced") => {
                    let history_len = json
                        .get("history_len")
                        .and_then(Json::as_i64)
                        .filter(|v| *v >= 0)
                        .ok_or_else(|| RemoteError::Protocol("synced missing history_len".into()))?
                        as u64;
                    self.server_history_len = self.server_history_len.max(history_len);
                    if json.get("reset").and_then(Json::as_bool).unwrap_or(false) {
                        // Our cursor fell below the server's compaction
                        // horizon: the reply is the bootstrap image, not a
                        // suffix. Rebuild, restart the cursor, and replay
                        // any stashed racing broadcasts (seq-dedup drops
                        // the ones the image already covers).
                        let history = json
                            .get("history")
                            .and_then(Json::as_arr)
                            .ok_or_else(|| {
                                RemoteError::Protocol("reset sync missing history".into())
                            })?
                            .iter()
                            .map(wire::message_from_json)
                            .collect::<Result<Vec<_>, _>>()
                            .map_err(|e| RemoteError::Protocol(e.to_string()))?;
                        self.client.rebuild(&history);
                        self.applied.reset_to_prefix(history_len);
                        self.metrics.resyncs.inc();
                        for f in stash {
                            self.absorb_frame(&f);
                        }
                        crowdfill_obs::obs_debug!(
                            "client",
                            "sync reset to bootstrap image";
                            worker => self.client.worker().0,
                            history_len => history_len,
                        );
                        return Ok(());
                    }
                    let msgs = seq_msgs_from_json(
                        json.get("msgs")
                            .ok_or_else(|| RemoteError::Protocol("synced missing msgs".into()))?,
                    )?;
                    if full {
                        let history: Vec<Message> = msgs.iter().map(|(_, m)| m.clone()).collect();
                        self.client.rebuild(&history);
                        self.applied.reset_to_prefix(history_len);
                        self.metrics.resyncs.inc();
                        for f in stash {
                            self.absorb_frame(&f);
                        }
                        crowdfill_obs::obs_debug!(
                            "client",
                            "full resync";
                            worker => self.client.worker().0,
                            history_len => history_len,
                        );
                    } else {
                        for (seq, m) in &msgs {
                            if self.applied.note(*seq) {
                                self.client.absorb(m);
                            }
                        }
                    }
                    return Ok(());
                }
                other => return Err(RemoteError::Protocol(format!("unexpected frame {other:?}"))),
            }
        }
    }

    /// Fetches the server's metrics snapshot (Prometheus-style text),
    /// absorbing any interleaved broadcasts.
    pub fn stats(&mut self) -> Result<String, RemoteError> {
        self.conn
            .send(
                Json::obj([("type", Json::str("stats"))])
                    .encode()
                    .as_bytes(),
            )
            .map_err(RemoteError::Conn)?;
        loop {
            let frame = self.recv_frame().map_err(RemoteError::Conn)?;
            let json = Json::parse(&String::from_utf8_lossy(&frame))
                .map_err(|e| RemoteError::Protocol(e.to_string()))?;
            match json.get("type").and_then(Json::as_str) {
                Some("msg") | Some("batch") | Some("lagging") => {
                    self.absorb_frame(&frame);
                }
                Some("stats") => {
                    return json
                        .get("snapshot")
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| RemoteError::Protocol("stats missing snapshot".into()));
                }
                other => return Err(RemoteError::Protocol(format!("unexpected frame {other:?}"))),
            }
        }
    }

    /// Fetches the server's live health report (completeness, per-column
    /// agreement, per-worker latency and lag, SLO burn rates), absorbing
    /// any interleaved broadcasts.
    pub fn health(&mut self) -> Result<crate::health::HealthReport, RemoteError> {
        self.conn
            .send(
                Json::obj([("type", Json::str("health"))])
                    .encode()
                    .as_bytes(),
            )
            .map_err(RemoteError::Conn)?;
        loop {
            let frame = self.recv_frame().map_err(RemoteError::Conn)?;
            let json = Json::parse(&String::from_utf8_lossy(&frame))
                .map_err(|e| RemoteError::Protocol(e.to_string()))?;
            match json.get("type").and_then(Json::as_str) {
                Some("msg") | Some("batch") | Some("lagging") => {
                    self.absorb_frame(&frame);
                }
                Some("health") => {
                    return json
                        .get("report")
                        .and_then(crate::health::HealthReport::from_json)
                        .ok_or_else(|| RemoteError::Protocol("malformed health report".into()));
                }
                other => return Err(RemoteError::Protocol(format!("unexpected frame {other:?}"))),
            }
        }
    }

    /// How far this replica trails the server's history as of the last
    /// frame processed: `history_len − applied`. Zero right after a
    /// successful `sync`.
    pub fn local_lag(&self) -> u64 {
        self.applied.lag_behind(self.server_history_len)
    }

    /// Fetches the server's flight-recorder contents as JSON lines (one
    /// [`TraceEvent`] per line), absorbing any interleaved broadcasts.
    pub fn trace_dump(&mut self) -> Result<String, RemoteError> {
        self.conn
            .send(
                Json::obj([("type", Json::str("trace_dump"))])
                    .encode()
                    .as_bytes(),
            )
            .map_err(RemoteError::Conn)?;
        loop {
            let frame = self.recv_frame().map_err(RemoteError::Conn)?;
            let json = Json::parse(&String::from_utf8_lossy(&frame))
                .map_err(|e| RemoteError::Protocol(e.to_string()))?;
            match json.get("type").and_then(Json::as_str) {
                Some("msg") | Some("batch") | Some("lagging") => {
                    self.absorb_frame(&frame);
                }
                Some("trace_dump") => {
                    return json
                        .get("events")
                        .and_then(Json::as_str)
                        .map(str::to_string)
                        .ok_or_else(|| RemoteError::Protocol("trace_dump missing events".into()));
                }
                other => return Err(RemoteError::Protocol(format!("unexpected frame {other:?}"))),
            }
        }
    }

    /// Says goodbye (the server releases the session).
    pub fn bye(self) {
        let _ = self
            .conn
            .send(Json::obj([("type", Json::str("bye"))]).encode().as_bytes());
    }
}

fn submit_frame(msg: &Message, auto: bool) -> Json {
    submit_frame_with(msg, auto, false, TraceId::NONE)
}

/// A submit frame with an explicit admission class. A speculative
/// resubmission after a reconnect intentionally goes out unmarked
/// ([`Pending`] carries no flag): the client has already paid for
/// recovery, so the op is no longer cheap to throw away.
fn submit_frame_with(msg: &Message, auto: bool, speculative: bool, trace: TraceId) -> Json {
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
