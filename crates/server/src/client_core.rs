//! The client half of the wire protocol, once, as a state machine that
//! touches no socket: [`ClientCore`] owns the replica and everything the
//! protocol makes a client remember, builds every [`Request`], and reads
//! every [`Reply`]. Its drivers are shells that move bytes and wait —
//! [`RemoteWorker`](crate::RemoteWorker) over a blocking connection, the
//! scale harness over one poller for thousands of sessions. The frames
//! themselves — grammar, field names, what is malformed — are `wire.rs`'s.
//!
//! ## One decode path
//!
//! A frame is read the way the server reads one: [`wire::parse_frame`]
//! (bytes that are not UTF-8 are never rewritten), then the typed decoder;
//! whatever either refuses is a [`RemoteError::Protocol`].
//! [`ClientCore::handle`] does that for every frame after the handshake and
//! answers with what the frame *was*, its effect on the replica already
//! applied.
//!
//! ## One recovery policy, no clock, no sleep, no dial
//!
//! What to do after an `overloaded`, a `reject`, a dropped link or a
//! `resumed` reply is decided here, once, for every shell: the core holds
//! the request in flight, its overload retries and its redial attempt, and
//! for each [`Input`] — a frame, a dropped link, a wait that is over — it
//! answers with the next [`Step`]: send this frame, wait this long, redial
//! and resume, or done. It reads no clock, never waits and never connects:
//! a backoff is a `Duration` handed to the shell, a reconnect a frame to
//! send on whatever the shell dialed. (Trace stamps read the recorder's
//! clock: observability only.)

use crate::health::HealthReport;
use crate::wire::{self, CatchUp, Cursor, Image, Op, Reply, Request, SeqMsg, TableImage};
use crate::worker_client::{Outgoing, WorkerClient};
use crowdfill_model::{ColumnId, Message, OpError, RowId, Schema, Value};
use crowdfill_net::ConnError;
use crowdfill_obs::splitmix64;
use crowdfill_obs::trace::{self as obstrace, SpanId, Stage, TraceId};
use crowdfill_pay::WorkerId;
use crowdfill_sync::AppliedSeqs;
use std::time::Duration;

/// Reconnection behavior of a client.
#[derive(Debug, Clone)]
pub struct ReconnectPolicy {
    /// Redials per request before giving up, and `overloaded` retries per
    /// request before rolling it back (also the dials of the first
    /// connect).
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

impl ReconnectPolicy {
    /// The wait before dial number `attempt + 1` of a recovery, or of the
    /// first connect: `base_delay` doubled per attempt, capped at
    /// `max_delay`, jittered from the stream `jitter`.
    pub(crate) fn redial_wait(&self, attempt: u32, jitter: &mut u64) -> Duration {
        let exp = self.base_delay.saturating_mul(1u32 << attempt.min(16));
        jittered(exp.min(self.max_delay), jitter)
    }
}

/// Jitter in [50%, 100%] of an exponential step, from the next value of
/// the splitmix64 stream `jitter`: desynchronizes a thundering herd of
/// clients redialing after a server restart.
fn jittered(exp: Duration, jitter: &mut u64) -> Duration {
    *jitter = splitmix64(*jitter);
    exp * (500 + (*jitter % 501) as u32) / 1000
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
    /// The submission in flight was refused; [`ClientCore::step`] rolls it
    /// back.
    Rejected(String),
    /// A `sync` was answered and its catch-up applied.
    Synced,
    Stats(String),
    Health(Box<HealthReport>),
    TraceDump(String),
}

/// The ops of a request that changes the table: the one of a `submit`, the
/// bundle of a `modify`.
fn ops(request: &Request) -> &[Op] {
    match request {
        Request::Submit(op, ..) => std::slice::from_ref(op),
        Request::Modify(bundle, _) => bundle,
        _ => &[],
    }
}

/// What a shell feeds [`ClientCore::step`].
#[derive(Debug)]
pub enum Input<'a> {
    /// A frame arrived on the link.
    Frame(&'a [u8]),
    /// The link failed: a send or a receive did, the wait for an answer
    /// timed out, or a redial did not connect.
    Dropped(ConnError),
    /// The wait of the last [`Step::Wait`] is over.
    Fired,
}

/// What a shell does next, as [`ClientCore::start`] and
/// [`ClientCore::step`] say.
#[derive(Debug)]
pub enum Step {
    /// Send this frame on the link; feed what comes back.
    Send(String),
    /// Nothing to send: feed the next frame.
    Await,
    /// Wait this long, then feed [`Input::Fired`].
    Wait(Duration),
    /// Replace the link: dial afresh (`dial`, from 1, counts the redials of
    /// this recovery), send `resume` on the new link first, and feed its
    /// answer — or [`Input::Dropped`] if the dial failed.
    Redial { dial: u32, resume: String },
    /// The request is answered: the event that ended it ([`Event::Ack`],
    /// [`RemoteAck::RECOVERED`] when a resume proved it applied), or the
    /// error it ends with. A recovery with no request in flight ends with
    /// [`Event::Synced`]: the resume's replay was the catch-up.
    Done(Result<Event, RemoteError>),
}

/// Where a request in flight stands with its link.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
enum Link {
    /// Sent, or about to be: the next answer is its.
    #[default]
    Up,
    /// Turned away under load: resent when the wait is over.
    Parked,
    /// The link is gone: redialed when the wait is over.
    Down,
    /// Redialed: the next frame answers the `resume`.
    Resuming,
}

/// The request a session is driving to an answer, and how its recovery
/// stands.
#[derive(Debug, Default)]
struct Flight {
    /// `None` while a redial re-attaches a session with nothing in flight.
    request: Option<Request>,
    link: Link,
    /// `overloaded` answers this request was retried after.
    overloads: u32,
    /// Redials made since the request started.
    redials: u32,
    /// Set when the request is the resync of a roll-back: the refusal the
    /// flight ends with once the resync is answered.
    refusal: Option<RemoteError>,
    /// A resume's image replaced the replica, the request's local
    /// application with it: its ops are absorbed once it is acked.
    reapply: bool,
}

/// An answer that is not one to the request in flight.
pub(crate) fn unexpected(event: Event) -> RemoteError {
    RemoteError::Protocol(format!("unexpected {event:?}"))
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

fn protocol(what: impl ToString) -> RemoteError {
    RemoteError::Protocol(what.to_string())
}

/// Reads one received frame: parsed once, borrowed, and decoded.
fn decode(frame: &[u8]) -> Result<Reply<'static>, RemoteError> {
    let json = wire::parse_frame(frame).map_err(protocol)?;
    Reply::decode(&json).map_err(protocol)
}

/// A received bootstrap's image and log (a decoder yields no text), if
/// the image's column types are `schema`'s.
fn decoded(image: Image<'_>, schema: &Schema) -> Result<(TableImage, Vec<Message>), RemoteError> {
    match image {
        Image::Table(image, _) if !image.fits(schema) => {
            Err(protocol("an image whose types are not the schema's"))
        }
        Image::Table(image, log) => Ok((*image, log)),
        Image::Text(_) => Err(protocol("a bootstrap left undecoded")),
    }
}

/// What a session has been through ([`ClientCore::counts`]): replicas
/// replaced by an image, resumes, submissions a resume proved applied
/// (their ack lost), redials waited for, and overload rejections waited
/// out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ClientCounts {
    pub resyncs: u64,
    pub resumes: u64,
    pub recovered_acks: u64,
    pub reconnect_attempts: u64,
    pub overload_backoffs: u64,
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
    /// The session's policy: its backoff shape, and its `max_attempts`
    /// overload retries per request and redials per recovery. `None`:
    /// nothing is retried.
    policy: Option<ReconnectPolicy>,
    /// The request being driven to an answer, if any.
    flight: Option<Flight>,
    /// Jitter stream state.
    jitter: u64,
    /// Seed + counter of the deterministic trace-id stream: op ids are
    /// `TraceId::generate(trace_seed, n)` so a reconnecting client under a
    /// fixed policy emits the same ids run-to-run.
    trace_seed: u64,
    trace_count: u64,
    counts: ClientCounts,
}

impl ClientCore {
    /// Builds the session from the server's `welcome`: the replica adopts
    /// its image and processes the log after it, the cursor starts at its
    /// watermark.
    pub fn welcomed(
        frame: &[u8],
        collection: Option<String>,
        policy: Option<&ReconnectPolicy>,
    ) -> Result<ClientCore, RemoteError> {
        let Reply::Welcome(_, worker, client, history_len, schema, history) = decode(frame)? else {
            return Err(protocol("expected welcome"));
        };
        let (image, log) = decoded(history, &schema)?;
        let client = WorkerClient::from_image(worker, client, schema, &image, &log);
        // The welcome's `history_len` is the server's real watermark; the
        // bootstrap is a table image plus a log suffix that stands in for
        // that prefix, so the cursor can only come from the field.
        let mut applied = AppliedSeqs::new();
        applied.note_prefix(history_len);
        let jitter = policy.map_or(0, |p| p.jitter_seed);
        Ok(ClientCore {
            collection,
            client,
            applied,
            server_history_len: history_len,
            lag: Lag::None,
            policy: policy.cloned(),
            flight: None,
            jitter,
            trace_seed: splitmix64(jitter ^ (worker.0 as u64)),
            trace_count: 0,
            counts: ClientCounts::default(),
        })
    }

    /// The local view, kept in sync by [`handle`](Self::handle).
    pub fn view(&self) -> &WorkerClient {
        &self.client
    }

    /// What this session has been through since its welcome.
    pub fn counts(&self) -> ClientCounts {
        self.counts
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
    /// what it was. A broadcast is absorbed; an `ack`'s seqs are noted; a
    /// `synced` reply's catch-up is applied: the missing suffix, or the
    /// image that replaces the replica.
    pub fn handle(&mut self, frame: &[u8]) -> Result<Event, RemoteError> {
        let fresh = match decode(frame)? {
            Reply::Msg(entry) => self.absorb(entry),
            Reply::Batch(entries) => {
                let absorb = |fresh, entry| self.absorb(entry) | fresh;
                entries.into_iter().fold(false, absorb)
            }
            Reply::Lagging => {
                self.lag = Lag::Owed;
                false
            }
            Reply::Ack(estimate, fulfilled, seqs, _) => {
                // The seqs the server assigned to our own submission: we
                // never get them back as broadcasts.
                for s in seqs {
                    self.server_history_len = self.server_history_len.max(s + 1);
                    self.applied.note(s);
                }
                return Ok(Event::Ack(RemoteAck {
                    estimate,
                    fulfilled,
                    recovered: false,
                }));
            }
            Reply::Overloaded(retry_after_ms, _) => {
                return Ok(Event::Overloaded { retry_after_ms })
            }
            Reply::Reject(reason, _) => return Ok(Event::Rejected(reason)),
            Reply::Synced(history_len, body) => {
                return self.synced(history_len, body).map(|()| Event::Synced)
            }
            Reply::Stats(snapshot) => return Ok(Event::Stats(snapshot)),
            Reply::TraceDump(events) => return Ok(Event::TraceDump(events)),
            Reply::Health(report) => return Ok(Event::Health(report)),
            Reply::Welcome(..) | Reply::Resumed(..) => {
                return Err(protocol("a handshake reply inside a session"))
            }
        };
        Ok(Event::Broadcast { fresh })
    }

    /// Applies one broadcast if it is fresh; seq-based dedup makes
    /// redelivery (e.g. overlap between a resume replay and a racing
    /// flush) harmless even though messages themselves are not idempotent.
    fn absorb(&mut self, broadcast: SeqMsg) -> bool {
        let SeqMsg { seq, msg, trace } = broadcast;
        self.server_history_len = self.server_history_len.max(seq + 1);
        if !self.applied.note(seq) {
            return false;
        }
        self.client.absorb(&msg);
        if !trace.is_none() {
            // The far edge of the causal chain: another replica applied
            // the originating op's broadcast.
            let worker = self.client.worker().0 as u64;
            obstrace::stamp(trace, Stage::ClientAbsorb, SpanId::root(trace), seq, worker);
        }
        true
    }

    /// A reset replaces whatever the broadcasts that raced the request
    /// did: the collection's one shard reads the reply's `history_len` and
    /// queues the reply in one go, so every broadcast ahead of it on the
    /// wire has a seq below it, which the image covers.
    fn synced(&mut self, history_len: u64, catch_up: CatchUp<'_>) -> Result<(), RemoteError> {
        self.server_history_len = self.server_history_len.max(history_len);
        match catch_up {
            CatchUp::Image(image) => self.adopt_image(image, history_len, "sync reset")?,
            CatchUp::Suffix(msgs) => drop(self.replay(&msgs, &[])),
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
    fn replay(&mut self, msgs: &[(u64, Message)], mine: &[Op]) -> Vec<bool> {
        let mut matched = vec![false; mine.len()];
        for (seq, m) in msgs {
            self.server_history_len = self.server_history_len.max(*seq + 1);
            if self.applied.note(*seq) {
                match (0..mine.len()).find(|&i| !matched[i] && mine[i].0 == *m) {
                    Some(i) => matched[i] = true,
                    None => self.client.absorb(m),
                }
            }
        }
        matched
    }

    /// Replaces the replica with a bootstrap's — a full resync's, or the
    /// one a compacted server substitutes for a suffix it no longer has —
    /// and restarts the cursor at the server's watermark.
    fn adopt_image(
        &mut self,
        image: Image<'_>,
        history_len: u64,
        what: &str,
    ) -> Result<(), RemoteError> {
        let (image, log) = decoded(image, self.client.replica().schema())?;
        self.client.adopt(&image, &log);
        self.applied.reset_to_prefix(history_len);
        self.server_history_len = self.server_history_len.max(history_len);
        self.counts.resyncs += 1;
        crowdfill_obs::obs_debug!(
            "client",
            "{what}";
            worker => self.client.worker().0,
            history_len => history_len,
        );
        Ok(())
    }

    /// The next op's trace id: [`TraceId::NONE`] unless tracing is on and
    /// the op is sampled, so the disabled hot path pays one branch here.
    fn next_trace(&mut self) -> TraceId {
        self.trace_count = self.trace_count.wrapping_add(1);
        TraceId::generate(self.trace_seed, self.trace_count)
    }

    fn submit(&mut self, out: Outgoing, speculative: bool) -> Request {
        Request::Submit((out.msg, out.auto_upvote), speculative, self.next_trace())
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
    ) -> Result<Vec<Request>, RemoteError> {
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
    ) -> Result<Request, RemoteError> {
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
    ) -> Result<Request, RemoteError> {
        let msgs = self.client.modify(row, column, value);
        let msgs = msgs.map_err(RemoteError::Op)?.into_iter();
        let bundle = msgs.map(|out| (out.msg, out.auto_upvote)).collect();
        Ok(Request::Modify(bundle, self.next_trace()))
    }

    /// Whether a request, or a recovery, is under way: start nothing else
    /// until it is [`Step::Done`].
    pub fn busy(&self) -> bool {
        self.flight.is_some()
    }

    /// Puts `request` in flight. A recovery under way sends it once the
    /// session is back.
    pub fn start(&mut self, request: Request) -> Step {
        match self.flight.as_mut() {
            Some(flight) if flight.request.is_none() => {
                flight.request = Some(request);
                Step::Await
            }
            _ => self.fly(request, None),
        }
    }

    /// The recovery policy, one input at a time. A frame is read as
    /// [`handle`](Self::handle) reads it: a broadcast leaves the request
    /// waiting, an answer settles it — `overloaded` parks a `submit` or
    /// `modify` for the jittered backoff of the server's hint, up to the
    /// policy's `max_attempts` retries, and past them, or on a `reject`,
    /// the request is rolled back. A dropped link is redialed after the
    /// backoff, up to `max_attempts` redials per request, and the session
    /// resumed (`settle_resume`).
    pub fn step(&mut self, input: Input<'_>) -> Step {
        match (input, self.flight.as_ref().map(|f| f.link)) {
            (Input::Frame(frame), None | Some(Link::Up | Link::Parked)) => self.answered(frame),
            (Input::Frame(frame), Some(Link::Resuming)) => self.settle_resume(frame),
            (Input::Dropped(e), _) => self.dropped(e),
            (Input::Fired, Some(Link::Parked)) => {
                self.flight_mut().link = Link::Up;
                self.send()
            }
            (Input::Fired, Some(Link::Down)) => {
                let flight = self.flight_mut();
                flight.redials += 1;
                flight.link = Link::Resuming;
                let dial = flight.redials;
                let resume = self.resume_request().encode();
                Step::Redial { dial, resume }
            }
            // A frame from a link given up, a wait no one is in.
            _ => Step::Await,
        }
    }

    fn flight_mut(&mut self) -> &mut Flight {
        self.flight.as_mut().expect("a request in flight")
    }

    /// Puts `request` in flight with fresh budgets; `refusal` is the
    /// outcome once it is answered (the resync of a roll-back).
    fn fly(&mut self, request: Request, refusal: Option<RemoteError>) -> Step {
        let request = Some(request);
        self.flight = Some(Flight {
            request,
            refusal,
            ..Flight::default()
        });
        self.send()
    }

    /// The request in flight, (re)sent.
    fn send(&self) -> Step {
        let request = self.flight.as_ref().and_then(|f| f.request.as_ref());
        Step::Send(request.expect("a request in flight").encode())
    }

    fn done(&mut self, outcome: Result<Event, RemoteError>) -> Step {
        self.flight = None;
        Step::Done(outcome)
    }

    /// A frame on a live link.
    fn answered(&mut self, frame: &[u8]) -> Step {
        let event = match self.handle(frame) {
            Ok(Event::Broadcast { .. }) => return Step::Await,
            Ok(event) => event,
            Err(e) => return self.done(Err(e)),
        };
        let max = self.policy.as_ref().map_or(0, |p| p.max_attempts);
        let Some(flight) = self.flight.as_mut() else {
            return Step::Done(Err(unexpected(event)));
        };
        // A `submit` or `modify`: what an overload retries and a refusal
        // rolls back.
        let table = flight.request.as_ref().is_some_and(|r| !ops(r).is_empty());
        let refusal = match (event, flight.refusal.take()) {
            (Event::Overloaded { retry_after_ms }, _) if table && flight.overloads < max => {
                let tries = flight.overloads;
                flight.overloads += 1;
                flight.link = Link::Parked;
                return Step::Wait(self.overload_backoff(retry_after_ms, tries));
            }
            (Event::Overloaded { retry_after_ms }, _) if table => {
                RemoteError::Overloaded { retry_after_ms }
            }
            (Event::Rejected(reason), _) if table => RemoteError::Rejected(reason),
            (Event::Synced, Some(refusal)) => return self.done(Err(refusal)),
            (event, Some(_)) => return self.done(Err(unexpected(event))),
            (event, None) => {
                let flight = self.flight.take().filter(|f| f.reapply);
                if let (Event::Ack(_), Some(request)) = (&event, flight.and_then(|f| f.request)) {
                    self.reapply(&request);
                }
                return self.done(Ok(event));
            }
        };
        // Refused, or out of retries and never applied: the optimistic
        // local application is undone — the vote record dropped, the
        // replica rebuilt from the authoritative history by a full resync
        // — and the refusal is the outcome once that is answered.
        if let Some(pending) = self.flight.take().and_then(|f| f.request) {
            for (msg, _) in ops(&pending) {
                self.client.retract_own_vote_record(msg);
            }
        }
        let resync = self.sync_request(true);
        self.fly(resync, Some(refusal))
    }

    /// Absorbs the ops of a request that landed after a resume's image
    /// dropped their local application ([`Flight::reapply`]).
    fn reapply(&mut self, request: &Request) {
        for (msg, _) in ops(request) {
            self.client.absorb(msg);
        }
    }

    /// The link is gone. A request a resume settles — or none, a session
    /// to re-attach — is redialed for after the backoff, up to the
    /// policy's `max_attempts` redials; without a policy, or for a `stats`,
    /// `health` or `trace_dump`, the failure is the outcome.
    fn dropped(&mut self, e: ConnError) -> Step {
        let max = self.policy.as_ref().map(|p| p.max_attempts);
        let flight = self.flight.get_or_insert_with(Flight::default);
        let settles = flight.request.as_ref().is_none_or(|r| {
            matches!(
                r,
                Request::Submit(..) | Request::Modify(..) | Request::Sync(_) | Request::Resync
            )
        });
        match max {
            Some(max) if settles && flight.redials < max => {
                flight.link = Link::Down;
                let attempt = flight.redials;
                Step::Wait(self.backoff(attempt))
            }
            Some(_) if settles => self.done(Err(RemoteError::Conn(ConnError::Disconnected))),
            _ => self.done(Err(RemoteError::Conn(e))),
        }
    }

    /// A `sync` request: for every history message this replica is missing,
    /// or (`full`) for the bootstrap to replace it with — the recovery of
    /// last resort after provable divergence. Await [`Event::Synced`].
    pub fn sync_request(&mut self, full: bool) -> Request {
        if self.lag == Lag::Owed {
            self.lag = Lag::Asked;
        }
        match full {
            true => Request::Resync,
            false => Request::Sync(self.cursor()),
        }
    }

    /// Where this replica stands: the contiguously-applied prefix and the
    /// sparse seqs above it.
    fn cursor(&self) -> Cursor {
        Cursor {
            from: self.applied.last_contiguous().map_or(0, |s| s + 1),
            have: self.applied.extras().collect(),
        }
    }

    /// The first request on a redialed connection. It carries the
    /// collection: re-attaching through the default one would be rejected
    /// (or hijack an unrelated id).
    pub fn resume_request(&mut self) -> Request {
        Request::Resume(self.client.worker(), self.cursor(), self.collection.clone())
    }

    /// Reads the reply to a [`resume_request`](Self::resume_request): the
    /// missed suffix is replayed into the replica, and the request that was
    /// in flight when the old link died is settled by it — acked if the
    /// replay holds its messages (the server had applied them and only the
    /// ack was lost), resubmitted if not, as an ordinary request with a
    /// fresh overload budget; a `sync` is built afresh from the cursor the
    /// replay left. A frame that is no `resumed` reply calls for another
    /// redial; a `reject` — unknown worker — is final.
    fn settle_resume(&mut self, frame: &[u8]) -> Step {
        let (history_len, catch_up) = match wire::parse_frame(frame).map(|r| Reply::decode(&r)) {
            Ok(Ok(Reply::Resumed(_, _, history_len, body))) => (history_len, body),
            Ok(Ok(Reply::Reject(reason, _))) => {
                return self.done(Err(RemoteError::Rejected(reason)))
            }
            Ok(Err(e)) => return self.done(Err(protocol(e))),
            _ => return self.dropped(ConnError::Disconnected),
        };
        self.counts.resumes += 1;
        let reset = matches!(catch_up, CatchUp::Image(_));
        let msgs = match catch_up {
            // The server compacted past our cursor while we were gone.
            CatchUp::Image(image) => {
                if let Err(e) = self.adopt_image(image, history_len, "resume reset") {
                    return self.done(Err(e));
                }
                // Broadcasts that raced the image are not distinguishable
                // inside it; owe a catch-up sync.
                self.lag = Lag::Owed;
                // Nor does the image carry per-op identity, so whether
                // an in-flight submission landed is not decidable here:
                // nothing matches, and it is resubmitted below, to be
                // absorbed once acked (`reapply`). If it HAD
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
        let flight = self.flight_mut();
        flight.reapply |= reset;
        let (request, reapply) = (flight.request.take(), flight.reapply);
        let matched = self.replay(&msgs, request.as_ref().map_or(&[], ops));
        // The server never saw a request the replay lacks. Its
        // resubmission goes out untraced — the original root span already
        // covers the recovery, and a fresh id here would split one logical
        // op across two traces — and unmarked: the client has already paid
        // for recovery, so the op is no longer cheap to throw away.
        let next = match request {
            None => return self.done(Ok(Event::Synced)),
            Some(Request::Sync(_)) => self.sync_request(false),
            Some(Request::Resync) => self.sync_request(true),
            Some(request) if matched.iter().all(|&m| m) => {
                // The replay matched what an earlier image dropped.
                if reapply {
                    self.reapply(&request);
                }
                self.counts.recovered_acks += 1;
                return self.done(Ok(Event::Ack(RemoteAck::RECOVERED)));
            }
            Some(Request::Submit(op, ..)) => Request::Submit(op, false, TraceId::NONE),
            Some(Request::Modify(bundle, _)) => Request::Modify(bundle, TraceId::NONE),
            Some(other) => other,
        };
        let flight = self.flight_mut();
        (flight.request, flight.link, flight.overloads) = (Some(next), Link::Up, 0);
        self.send()
    }

    /// The wait before redial number `attempt` of a recovery episode.
    fn backoff(&mut self, attempt: u32) -> Duration {
        self.counts.reconnect_attempts += 1;
        let policy = self.policy.as_ref().expect("a redial has a policy");
        policy.redial_wait(attempt, &mut self.jitter)
    }

    /// The wait before retrying an overload-rejected op: the server's
    /// `retry_after` hint, doubled per consecutive rejection and jittered
    /// like a redial so a crowd of rejected clients does not return in
    /// lockstep.
    fn overload_backoff(&mut self, retry_after_ms: u64, tries: u32) -> Duration {
        self.counts.overload_backoffs += 1;
        let base = Duration::from_millis(retry_after_ms.max(1));
        let cap = self
            .policy
            .as_ref()
            .map_or(Duration::from_secs(2), |p| p.max_delay);
        let exp = base
            .saturating_mul(1u32 << tries.min(10))
            .min(cap.max(base));
        jittered(exp, &mut self.jitter)
    }
}
