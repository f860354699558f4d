//! Golden recovery policy: what a client does after an `overloaded`, a
//! `reject`, a dropped link or a `resumed` reply, pinned per script.
//!
//! A script is the server's half of the conversation, queued up front on
//! each connection the client will dial (as in `client_loop.rs`: a
//! `LocalConn` pair is an unbounded queue each way, so no thread and no
//! socket), plus the client actions to run against it. A connection with
//! nothing left queued stands for a dead link: the client waits out its
//! short `ack_timeout` and recovers. A dial the script does not hold is
//! refused. Each script pins, in order, the frames the client sent on
//! every connection it dialed, the result of each action, the session's
//! `ClientCounts`, and whether a catch-up `sync` is still owed.
//!
//! Every script runs twice against the one fixture: through a
//! `RemoteWorker`, and through a bare `ClientCore` whose steps a loop of
//! this file executes — the policy is the core's, so the shell adds no
//! decision of its own.

use crowdfill_model::{
    ClientId, Column, ColumnId, DataType, Message, RowId, RowValue, Schema, Value,
};
use crowdfill_net::{ConnError, FrameConn, LocalConn};
use crowdfill_obs::trace::TraceId;
use crowdfill_pay::WorkerId;
use crowdfill_server::client_core::{Event, Input, Step};
use crowdfill_server::wire::{CatchUp, Image, Reply, Request, TableImage};
use crowdfill_server::{
    ClientCore, Dialer, ReconnectPolicy, RemoteAck, RemoteError, RemoteWorker, WorkerClient,
};
use crowdfill_sync::Replica;
use std::collections::VecDeque;
use std::fmt::Write;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn schema() -> Arc<Schema> {
    let columns = vec![
        Column::new("name", DataType::Text),
        Column::new("nationality", DataType::Text),
    ];
    Arc::new(Schema::new("SoccerPlayer", columns, &["name"]).unwrap())
}

fn cc_row(seq: u64) -> RowId {
    RowId::new(ClientId(0), seq)
}

fn frame(reply: Reply<'_>) -> Vec<u8> {
    reply.encode().into_bytes()
}

fn value(cells: &[&str]) -> RowValue {
    let cells = cells.iter().enumerate();
    RowValue::from_pairs(cells.map(|(c, v)| (ColumnId(c as u16), Value::text(*v))))
}

/// Another worker's complete row, there before this worker joins.
fn pele() -> RowId {
    RowId::new(ClientId(2), 0)
}

/// The history every script starts from, `history_len` 3: the Central
/// Client's two empty rows, the second filled complete by another worker.
fn history() -> Vec<Message> {
    vec![
        Message::Insert { row: cc_row(0) },
        Message::Insert { row: cc_row(1) },
        Message::Replace {
            old: cc_row(1),
            new: pele(),
            value: value(&["Pele", "Brazil"]),
        },
    ]
}

/// The bootstrap of [`history`]: an empty image and the log after it.
fn bootstrap() -> Image<'static> {
    let image = Box::new(TableImage::of(&Replica::new(ClientId(0), schema())));
    Image::Table(image, history())
}

/// The welcome of worker 1, client 1.
fn welcome() -> Vec<u8> {
    let (worker, client) = (WorkerId(1), ClientId(1));
    let name = "default".into();
    frame(Reply::Welcome(
        name,
        worker,
        client,
        3,
        schema(),
        bootstrap(),
    ))
}

/// The message of [`Action::FillAnchor`], as the client builds it.
fn messi() -> Message {
    Message::Replace {
        old: cc_row(0),
        new: RowId::new(ClientId(1), 0),
        value: value(&["Messi"]),
    }
}

fn ack(seqs: &[u64]) -> Vec<u8> {
    frame(Reply::Ack(1.5, false, seqs.to_vec(), TraceId::NONE))
}

fn overloaded() -> Vec<u8> {
    frame(Reply::Overloaded(1, TraceId::NONE))
}

fn resumed(history_len: u64, suffix: &[(u64, Message)]) -> Vec<u8> {
    let body = CatchUp::Suffix(suffix.to_vec());
    frame(Reply::Resumed(
        "default".into(),
        ClientId(1),
        history_len,
        body,
    ))
}

fn resumed_image() -> Vec<u8> {
    let body = CatchUp::Image(bootstrap());
    frame(Reply::Resumed("default".into(), ClientId(1), 3, body))
}

fn synced(history_len: u64, suffix: &[(u64, Message)]) -> Vec<u8> {
    frame(Reply::Synced(history_len, CatchUp::Suffix(suffix.to_vec())))
}

/// The reset that answers the full resync of a roll-back.
fn reset() -> Vec<u8> {
    frame(Reply::Synced(3, CatchUp::Image(bootstrap())))
}

/// Another worker's upvote of [`pele`]: a message for a replay to carry.
fn foreign() -> Message {
    Message::Upvote {
        value: value(&["Pele", "Brazil"]),
    }
}

/// What a script has the client do.
#[derive(Debug, Clone, Copy)]
enum Action {
    /// Fill the anchor of the Central Client's empty row: one request.
    FillAnchor,
    /// Fill the nationality of this worker's newest row, which completes
    /// it: the replace, then the automatic upvote.
    Complete,
    /// Upvote the other worker's complete row.
    Upvote,
    Sync,
}

impl Action {
    /// Runs the action through a `RemoteWorker`; its result, rendered.
    fn on_worker(self, worker: &mut RemoteWorker) -> String {
        let result = match self {
            Action::FillAnchor => worker.fill(cc_row(0), ColumnId(0), Value::text("Messi")),
            Action::Complete => {
                let row = newest_own(worker.view().replica());
                worker.fill(row, ColumnId(1), Value::text("Argentina"))
            }
            Action::Upvote => worker.upvote(pele()),
            Action::Sync => return format!("{:?}", worker.sync()),
        };
        format!("{result:?}")
    }
}

/// A bare core and the loop that does what its steps say: send, dial,
/// receive with the policy's timeout. A wait fires at once — time is the
/// shell's, and every frame a script holds is queued before it starts.
struct Bare {
    core: ClientCore,
    conn: Box<dyn FrameConn>,
    dialer: Dialer,
}

impl Bare {
    /// Dials, says `hello`, and builds the core from the welcome.
    fn connect(mut dialer: Dialer) -> Bare {
        let conn = dialer(0).unwrap();
        conn.send(Request::Hello(None).encode().as_bytes()).unwrap();
        let welcome = conn.recv_timeout(policy().ack_timeout).unwrap();
        let core = ClientCore::welcomed(&welcome, None, Some(&policy())).unwrap();
        Bare { core, conn, dialer }
    }

    fn run(&mut self, request: Request) -> Result<Event, RemoteError> {
        let mut step = self.core.start(request);
        loop {
            let sent = match step {
                Step::Send(frame) => self.conn.send(frame.as_bytes()),
                Step::Await => Ok(()),
                Step::Wait(_) => {
                    step = self.core.step(Input::Fired);
                    continue;
                }
                Step::Redial { dial, resume } => (self.dialer)(dial).and_then(|conn| {
                    self.conn = conn;
                    self.conn.send(resume.as_bytes())
                }),
                Step::Done(outcome) => return outcome,
            };
            let received = sent.and_then(|()| self.conn.recv_timeout(policy().ack_timeout));
            step = match received {
                Ok(frame) => self.core.step(Input::Frame(&frame)),
                Err(e) => self.core.step(Input::Dropped(e)),
            };
        }
    }

    /// A table-changing request to its ack, then the owed catch-up, unless
    /// the session resumed on the way — `RemoteWorker`'s heal points.
    fn transact(&mut self, request: Request) -> Result<RemoteAck, RemoteError> {
        let resumes = self.core.counts().resumes;
        let ack = match self.run(request)? {
            Event::Ack(ack) => ack,
            other => panic!("answered by {other:?}"),
        };
        if self.core.counts().resumes == resumes && self.core.needs_sync() {
            let _ = self.sync();
        }
        Ok(ack)
    }

    fn sync(&mut self) -> Result<(), RemoteError> {
        let sync = self.core.sync_request(false);
        self.run(sync)
            .map(|event| assert!(matches!(event, Event::Synced)))
    }

    fn fill(&mut self, row: RowId, column: u16, text: &str) -> Result<RemoteAck, RemoteError> {
        let fill = self
            .core
            .fill(row, ColumnId(column), Value::text(text), false);
        let mut last = None;
        for request in fill? {
            last = Some(self.transact(request)?);
        }
        Ok(last.expect("a fill is one request or two"))
    }

    /// Runs the action; its result, rendered as [`Action::on_worker`]
    /// renders it.
    fn act(&mut self, action: Action) -> String {
        let result = match action {
            Action::FillAnchor => self.fill(cc_row(0), 0, "Messi"),
            Action::Complete => self.fill(newest_own(self.core.view().replica()), 1, "Argentina"),
            Action::Upvote => {
                let upvote = self.core.vote(pele(), WorkerClient::upvote).unwrap();
                self.transact(upvote)
            }
            Action::Sync => return format!("{:?}", self.sync()),
        };
        format!("{result:?}")
    }
}

/// This worker's newest row.
fn newest_own(replica: &Replica) -> RowId {
    let rows = replica.table().row_ids();
    rows.filter(|r| r.client == ClientId(1)).max().unwrap()
}

/// A scripted run: the frames queued on each connection, in dial order
/// (`None`: the dial is refused), and the actions.
struct Script {
    name: &'static str,
    conns: Vec<Option<Vec<Vec<u8>>>>,
    actions: Vec<Action>,
}

/// Every dial so far: its attempt number, and the far end of the
/// connection it returned (`None`: refused).
type Dials = Arc<Mutex<Vec<(u32, Option<LocalConn>)>>>;

/// A dialer that hands out the script's connections in order, each with
/// its frames already queued, and keeps their far ends in `dials`.
fn dialer(conns: &[Option<Vec<Vec<u8>>>], dials: &Dials) -> Dialer {
    let mut conns: VecDeque<_> = conns.iter().cloned().collect();
    let dials = Arc::clone(dials);
    Box::new(move |attempt| {
        let Some(frames) = conns.pop_front().flatten() else {
            dials.lock().unwrap().push((attempt, None));
            return Err(ConnError::Disconnected);
        };
        let (near, far) = LocalConn::pair();
        for frame in frames {
            far.send(&frame).unwrap();
        }
        dials.lock().unwrap().push((attempt, Some(far)));
        Ok(Box::new(near) as Box<dyn FrameConn>)
    })
}

/// Redials back off 1–2 ms; a dead link is given 30 ms.
fn policy() -> ReconnectPolicy {
    ReconnectPolicy {
        max_attempts: 3,
        base_delay: Duration::from_millis(1),
        max_delay: Duration::from_millis(2),
        ack_timeout: Duration::from_millis(30),
        jitter_seed: 7,
    }
}

/// The frames each dial carried, one line each, after the dial's line.
fn render_dials(dials: &Dials, out: &mut String) {
    for (k, (attempt, far)) in dials.lock().unwrap().iter().enumerate() {
        let Some(far) = far else {
            let _ = writeln!(out, "dial {k} (attempt {attempt}): refused");
            continue;
        };
        let _ = writeln!(out, "dial {k} (attempt {attempt}):");
        while let Ok(frame) = far.try_recv() {
            let _ = writeln!(out, "  > {}", String::from_utf8(frame).unwrap());
        }
    }
}

/// Runs `script` through a `RemoteWorker`, rendered.
fn through_worker(script: &Script) -> String {
    let dials: Dials = Arc::default();
    let mut worker = RemoteWorker::connect_with(dialer(&script.conns, &dials), policy()).unwrap();
    let mut out = String::new();
    for action in &script.actions {
        let result = action.on_worker(&mut worker);
        let _ = writeln!(out, "{action:?}: {result}");
    }
    let _ = writeln!(out, "{:?}", worker.counts());
    let _ = writeln!(out, "needs_sync: {}", worker.needs_sync());
    render_dials(&dials, &mut out);
    out
}

/// Runs `script` through a bare core and [`Bare`]'s loop, rendered.
fn through_core(script: &Script) -> String {
    let dials: Dials = Arc::default();
    let mut bare = Bare::connect(dialer(&script.conns, &dials));
    let mut out = String::new();
    for action in &script.actions {
        let result = bare.act(*action);
        let _ = writeln!(out, "{action:?}: {result}");
    }
    let _ = writeln!(out, "{:?}", bare.core.counts());
    let _ = writeln!(out, "needs_sync: {}", bare.core.needs_sync());
    render_dials(&dials, &mut out);
    out
}

fn scripts() -> Vec<Script> {
    use Action::*;
    let script = |name, conns, actions| Script {
        name,
        conns,
        actions,
    };
    vec![
        script(
            "overloaded twice, then the ack",
            vec![Some(vec![welcome(), overloaded(), overloaded(), ack(&[3])])],
            vec![FillAnchor],
        ),
        script(
            "overloaded past max_attempts: roll back, resync, Overloaded",
            vec![Some(vec![
                welcome(),
                overloaded(),
                overloaded(),
                overloaded(),
                overloaded(),
                reset(),
            ])],
            vec![FillAnchor],
        ),
        script(
            "reject: roll back, resync, Rejected",
            vec![Some(vec![
                welcome(),
                frame(Reply::reject("stale")),
                reset(),
            ])],
            vec![FillAnchor],
        ),
        script(
            "link dies after the send, the resumed suffix holds the op",
            vec![
                Some(vec![welcome()]),
                Some(vec![resumed(4, &[(3, messi())])]),
            ],
            vec![FillAnchor],
        ),
        script(
            "link dies after the send, the resumed suffix lacks the op",
            vec![
                Some(vec![welcome()]),
                Some(vec![resumed(4, &[(3, foreign())]), ack(&[4])]),
            ],
            vec![FillAnchor],
        ),
        script(
            "link dies after the send, the resume resets to an image",
            vec![
                Some(vec![welcome()]),
                Some(vec![resumed_image(), ack(&[3])]),
            ],
            vec![FillAnchor],
        ),
        script(
            "the resubmission is answered overloaded once, then acked",
            vec![
                Some(vec![welcome()]),
                Some(vec![resumed(3, &[]), overloaded(), ack(&[3])]),
                Some(vec![resumed(3, &[]), ack(&[3])]),
            ],
            vec![FillAnchor],
        ),
        script(
            "every redial refused",
            vec![Some(vec![welcome()])],
            vec![FillAnchor],
        ),
        script(
            "a sync in flight when the link dies",
            vec![
                Some(vec![welcome()]),
                Some(vec![resumed(4, &[(3, foreign())]), synced(4, &[])]),
            ],
            vec![Sync],
        ),
        script(
            "a completing fill's link dies between the replace and the auto-upvote",
            vec![
                Some(vec![welcome(), ack(&[3]), ack(&[4])]),
                Some(vec![resumed(5, &[]), ack(&[5])]),
            ],
            vec![FillAnchor, Complete],
        ),
        script(
            "no fault: fill, vote, sync",
            vec![Some(vec![welcome(), ack(&[3]), ack(&[4]), synced(5, &[])])],
            vec![FillAnchor, Upvote, Sync],
        ),
    ]
}

/// Every script's rendering, under a `==== name` header.
fn render(through: fn(&Script) -> String) -> String {
    let mut out = String::new();
    for script in scripts() {
        let _ = write!(out, "==== {}\n{}", script.name, through(&script));
    }
    out
}

const FIXTURE: &str = include_str!("fixtures/recovery_golden.txt");

/// Set `UPDATE_FIXTURE` to rewrite the fixture from the `RemoteWorker`
/// runs.
#[test]
fn the_recovery_policy_is_golden() {
    let got = render(through_worker);
    if std::env::var("UPDATE_FIXTURE").is_ok() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/fixtures/recovery_golden.txt"
        );
        std::fs::write(path, &got).unwrap();
        panic!("fixture regenerated at {path}; rerun without UPDATE_FIXTURE");
    }
    assert_golden(&got, "through a RemoteWorker");
}

#[test]
fn the_bare_core_decides_as_the_worker_does() {
    assert_golden(&render(through_core), "through a bare ClientCore");
}

fn assert_golden(got: &str, through: &str) {
    for (got, want) in got.split("==== ").zip(FIXTURE.split("==== ")) {
        assert_eq!(got, want, "{through}");
    }
    assert_eq!(got, FIXTURE, "{through}");
}
