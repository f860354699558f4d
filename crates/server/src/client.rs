//! The blocking client of the networked deployment: [`RemoteWorker`], a
//! shell around a [`ClientCore`]. The core holds the replica, speaks the
//! protocol and decides every retry, redial and resume; what is left here
//! is what has to *wait*: the connection and its dial, the receive with its
//! ack timeout, the sleep of whatever delay the core returned, and the root
//! span that times a submission from send to ack. One loop,
//! `RemoteWorker::run`, does what the core's steps say. The failure model
//! is documented in `tcp_service.rs`.

use crate::client_core::{unexpected, ClientCore, ClientCounts, Event, Input, Step};
pub use crate::client_core::{ReconnectPolicy, RemoteAck, RemoteError};
use crate::wire::Request;
use crate::worker_client::WorkerClient;
use crowdfill_model::{ColumnId, RowId, Value};
use crowdfill_net::{ConnError, FrameConn, TcpConn};
use crowdfill_obs::trace::{ActiveSpan, Stage};
use crowdfill_pay::WorkerId;
use std::net::SocketAddr;
use std::time::Duration;

/// How a [`RemoteWorker`] obtains a fresh connection: called with the attempt
/// number (0 for the initial connect, then one per redial). Tests wrap the
/// dialed connection in a [`FaultyConn`](crowdfill_net::FaultyConn) with a
/// per-attempt reseeded plan.
pub type Dialer = Box<dyn FnMut(u32) -> Result<Box<dyn FrameConn>, ConnError> + Send>;

/// A client-side handle: a [`WorkerClient`] replica kept in sync over the
/// TCP protocol, with reconnect-and-resume recovery when a
/// [`ReconnectPolicy`] is configured.
pub struct RemoteWorker {
    core: ClientCore,
    conn: Box<dyn FrameConn>,
    dialer: Dialer,
    /// The policy's bound on a wait for an answer; none without a policy.
    ack_timeout: Option<Duration>,
}

fn tcp_dialer(addr: SocketAddr) -> Dialer {
    Box::new(move |_| TcpConn::connect(addr).map(|c| Box::new(c) as Box<dyn FrameConn>))
}

impl RemoteWorker {
    /// Connects, handshakes, and replays the history into a local replica.
    /// No reconnect policy: a connection failure surfaces as an error, as a
    /// plain TCP client would see it.
    pub fn connect(addr: SocketAddr) -> Result<RemoteWorker, RemoteError> {
        RemoteWorker::establish(tcp_dialer(addr), None, None)
    }

    /// Like [`connect`](Self::connect), but attaches to a named collection
    /// on a multi-collection service.
    pub fn connect_to(addr: SocketAddr, collection: &str) -> Result<RemoteWorker, RemoteError> {
        RemoteWorker::establish(tcp_dialer(addr), None, Some(collection.to_string()))
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

    /// Dials and handshakes, once per attempt the policy allows, waiting
    /// the policy's jittered, doubling backoff between failed dials: a
    /// crowd refused at a server restart, its jitter seeds distinct, does
    /// not redial in lockstep.
    fn establish(
        mut dialer: Dialer,
        policy: Option<ReconnectPolicy>,
        collection: Option<String>,
    ) -> Result<RemoteWorker, RemoteError> {
        let attempts = policy.as_ref().map_or(1, |p| p.max_attempts.max(1));
        let mut jitter = policy.as_ref().map_or(0, |p| p.jitter_seed);
        let mut last_err = ConnError::Disconnected;
        for attempt in 0..attempts {
            if let Some(p) = policy.as_ref().filter(|_| attempt > 0) {
                std::thread::sleep(p.redial_wait(attempt - 1, &mut jitter));
            }
            let hello = Request::Hello(collection.clone());
            let welcome = dialer(attempt).and_then(|conn| {
                conn.send(hello.encode().as_bytes())?;
                let frame = match &policy {
                    Some(p) => conn.recv_timeout(p.ack_timeout),
                    None => conn.recv(),
                };
                Ok((frame?, conn))
            });
            match welcome {
                Ok((frame, conn)) => {
                    let core = ClientCore::welcomed(&frame, collection, policy.as_ref())?;
                    return Ok(RemoteWorker {
                        core,
                        conn,
                        dialer,
                        ack_timeout: policy.map(|p| p.ack_timeout),
                    });
                }
                Err(e) => last_err = e,
            }
        }
        Err(RemoteError::Conn(last_err))
    }

    /// The local view (kept in sync by [`Self::absorb_pending`] and acks).
    pub fn view(&self) -> &WorkerClient {
        self.core.view()
    }

    /// This worker's id.
    pub fn worker(&self) -> WorkerId {
        self.core.worker()
    }

    /// What this session has been through since its welcome.
    pub fn counts(&self) -> ClientCounts {
        self.core.counts()
    }

    /// Absorbs any broadcast messages that have arrived. If the server has
    /// flagged this connection as lagging (broadcasts to it were dropped),
    /// a catch-up `sync` is attempted here, best-effort — this is the heal
    /// point for read-mostly clients that rarely submit.
    pub fn absorb_pending(&mut self) -> usize {
        let mut n = 0;
        while let Ok(frame) = self.conn.try_recv() {
            // Nothing is awaited here: a stray reply is not an error.
            if let Ok(Event::Broadcast { fresh: true }) = self.core.handle(&frame) {
                n += 1;
            }
        }
        self.heal_lag();
        n
    }

    /// Whether the server has told us to catch up via `sync` and we have
    /// not yet managed to.
    pub fn needs_sync(&self) -> bool {
        self.core.needs_sync()
    }

    /// The owed catch-up `sync`, if any, best-effort: after a failure it is
    /// still owed, and the next heal point tries again.
    fn heal_lag(&mut self) {
        if self.core.needs_sync() {
            let _ = self.sync();
        }
    }

    /// The next frame, waiting at most the policy's `ack_timeout` (a
    /// dropped request or reply must not hang the client forever).
    fn recv(&self) -> Result<Vec<u8>, ConnError> {
        match self.ack_timeout {
            Some(timeout) => self.conn.recv_timeout(timeout),
            None => self.conn.recv(),
        }
    }

    /// Drives `request` to the event that answers it, which `answer` takes
    /// or refuses. The core decides each step — send, wait, redial and
    /// resume — and this loop does it: it sends, sleeps, dials, and feeds
    /// back every frame it receives and every failure of the link.
    fn run<T>(
        &mut self,
        request: Request,
        answer: impl Fn(Event) -> Result<T, Event>,
    ) -> Result<T, RemoteError> {
        let mut step = self.core.start(request);
        loop {
            let sent = match step {
                Step::Send(frame) => self.conn.send(frame.as_bytes()),
                Step::Await => Ok(()),
                Step::Wait(wait) => {
                    std::thread::sleep(wait);
                    step = self.core.step(Input::Fired);
                    continue;
                }
                Step::Redial { dial, resume } => (self.dialer)(dial).and_then(|conn| {
                    self.conn = conn;
                    self.conn.send(resume.as_bytes())
                }),
                Step::Done(outcome) => return answer(outcome?).map_err(unexpected),
            };
            step = match sent.and_then(|()| self.recv()) {
                Ok(frame) => self.core.step(Input::Frame(&frame)),
                Err(e) => self.core.step(Input::Dropped(e)),
            };
        }
    }

    /// Fills a cell: applies locally, submits (plus the auto-upvote when the
    /// fill completed the row), and returns the last ack.
    pub fn fill(
        &mut self,
        row: RowId,
        column: ColumnId,
        value: Value,
    ) -> Result<RemoteAck, RemoteError> {
        let mut last = None;
        for pending in self.core.fill(row, column, value, false)? {
            last = Some(self.transact(pending)?);
        }
        Ok(last.expect("fill yields at least one message"))
    }

    /// Upvotes a row.
    pub fn upvote(&mut self, row: RowId) -> Result<RemoteAck, RemoteError> {
        let pending = self.core.vote(row, WorkerClient::upvote)?;
        self.transact(pending)
    }

    /// Downvotes a row.
    pub fn downvote(&mut self, row: RowId) -> Result<RemoteAck, RemoteError> {
        let pending = self.core.vote(row, WorkerClient::downvote)?;
        self.transact(pending)
    }

    /// Retracts an earlier upvote (own votes only).
    pub fn undo_upvote(&mut self, row: RowId) -> Result<RemoteAck, RemoteError> {
        let pending = self.core.vote(row, WorkerClient::undo_upvote)?;
        self.transact(pending)
    }

    /// Retracts an earlier downvote (own votes only).
    pub fn undo_downvote(&mut self, row: RowId) -> Result<RemoteAck, RemoteError> {
        let pending = self.core.vote(row, WorkerClient::undo_downvote)?;
        self.transact(pending)
    }

    /// Overwrites a non-empty cell via the composite modify action; the
    /// bundle travels as one frame so the server can authorize its insert.
    pub fn modify(
        &mut self,
        row: RowId,
        column: ColumnId,
        value: Value,
    ) -> Result<RemoteAck, RemoteError> {
        let pending = self.core.modify(row, column, value)?;
        self.transact(pending)
    }

    /// Drives one locally-applied request to its ack — what an
    /// `overloaded`, a `reject` or a dropped link does to it is the core's
    /// to say ([`ClientCore::step`]).
    fn transact(&mut self, pending: Request) -> Result<RemoteAck, RemoteError> {
        // The root span covers the whole client-side transaction — send,
        // overload retries, recovery — so its duration is the op's true
        // submit-to-ack latency as the caller experienced it.
        let trace = pending.trace();
        let _root = (!trace.is_none()).then(|| ActiveSpan::root(trace, Stage::ClientSubmit));
        let resumes = self.core.counts().resumes;
        let ack = self.run(pending, |event| match event {
            Event::Ack(ack) => Ok(ack),
            other => Err(other),
        })?;
        // The op is acked — durably applied server-side — so the lagging
        // heal is best-effort, like `absorb_pending`: a transient sync
        // failure must not surface as the op's error (a caller treating it
        // as failure could retry an already-applied op). After a resume
        // it waits for the next heal point.
        if self.core.counts().resumes == resumes {
            self.heal_lag();
        }
        Ok(ack)
    }

    /// Asks the server for every history message this replica is missing
    /// and applies them — the catch-up that heals silent broadcast loss on
    /// a lossy link. Call before comparing replicas (or periodically).
    pub fn sync(&mut self) -> Result<(), RemoteError> {
        let sync = self.core.sync_request(false);
        self.run(sync, |event| match event {
            Event::Synced => Ok(()),
            other => Err(other),
        })
    }

    /// Fetches the server's metrics snapshot (Prometheus-style text).
    pub fn stats(&mut self) -> Result<String, RemoteError> {
        self.run(Request::Stats, |event| match event {
            Event::Stats(snapshot) => Ok(snapshot),
            other => Err(other),
        })
    }

    /// Fetches the server's live health report (completeness, per-column
    /// agreement, per-worker latency and lag, SLO burn rates).
    pub fn health(&mut self) -> Result<crate::health::HealthReport, RemoteError> {
        self.run(Request::Health, |event| match event {
            Event::Health(report) => Ok(*report),
            other => Err(other),
        })
    }

    /// How far this replica trails the server's history as of the last
    /// frame processed: `history_len − applied`. Zero right after a
    /// successful `sync`.
    pub fn local_lag(&self) -> u64 {
        self.core.local_lag()
    }

    /// Fetches the server's flight-recorder contents as JSON lines (one
    /// [`TraceEvent`] per line).
    pub fn trace_dump(&mut self) -> Result<String, RemoteError> {
        self.run(Request::TraceDump, |event| match event {
            Event::TraceDump(events) => Ok(events),
            other => Err(other),
        })
    }

    /// Says goodbye (the server releases the session).
    pub fn bye(self) {
        let _ = self.conn.send(Request::Bye.encode().as_bytes());
    }
}
