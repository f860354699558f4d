//! The overload-protection invariants at the pipeline layer (DESIGN.md §9):
//!
//! * **shed-strictly-before-ack** — an op the pipeline answers
//!   `Overloaded` (admission reject or deadline shed) was never applied:
//!   it is absent from the master and the broadcast history. Conversely an
//!   acked op is always present. There is no third state.
//! * **bounded admission** — while nothing is taken, at most `max_queue`
//!   jobs are ever admitted; the rest are turned away with a non-zero
//!   `retry_after`.
//! * **speculative gate** — speculative ops are refused the moment queue
//!   depth reaches `spec_queue`, while normal ops still get in.
//!
//! The pipeline owns no thread and reads no clock: the tests drive it the
//! way a shard does — admit, advance their own `Instant`, apply — so
//! a stall is a gap between two readings, not a sleep, and the outcome of a
//! seed does not depend on machine speed. Seeds extend via
//! `CROWDFILL_FAULT_SEEDS`, as in `faults.rs`. The last test runs the same
//! property over the wire, through a `TcpService`.

use crowdfill_model::{Column, ColumnId, DataType, QuorumMajority, RowId, Schema, Template, Value};
use crowdfill_net::{FrameConn, TcpConn};
use crowdfill_obs::trace::TraceId;
use crowdfill_pay::{Millis, WorkerId};
use crowdfill_server::client_core::Event;
use crowdfill_server::wire::Request;
use crowdfill_server::{
    Backend, BatchOp, BatchOptions, BatchPipeline, ClientCore, OverloadOptions, ServiceOptions,
    Submission, SubmitError, TaskConfig, TcpService, WorkerClient,
};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn config(rows: usize) -> TaskConfig {
    let schema = Arc::new(
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
    );
    TaskConfig::new(
        schema,
        Arc::new(QuorumMajority::of_three()),
        Template::cardinality(rows),
        10.0,
    )
}

fn seeds() -> Vec<u64> {
    let mut s = vec![5, 17, 29];
    if let Ok(extra) = std::env::var("CROWDFILL_FAULT_SEEDS") {
        s.extend(
            extra
                .split(',')
                .filter_map(|t| t.trim().parse::<u64>().ok()),
        );
    }
    s
}

fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One worker's independent workload: fills of its own row, each tagged
/// with a unique value so presence in the master decides "was applied".
struct Workload {
    worker: WorkerId,
    /// The tag is the claim: `Some` for fill ops (acked ⇔ value in the
    /// master), `None` for the auto-upvotes riding along (votes carry no
    /// cell value to check).
    ops: Vec<(Option<String>, BatchOp)>,
}

/// Connects `workers` clients and records, per worker, fills of every
/// column of its own row — all ops valid and non-conflicting, so the only
/// possible outcomes are ack and overload.
fn workloads(backend: &mut Backend, workers: usize) -> Vec<Workload> {
    let mut out = Vec::new();
    for k in 0..workers {
        let (id, client_id, history) = backend.connect(Millis(0));
        let mut client =
            WorkerClient::new(id, client_id, backend.config().schema.clone(), &history);
        let rows: Vec<RowId> = client.replica().table().row_ids().collect();
        // Each fill replaces the row under a fresh id (the replace message
        // creates it), so chase the id from fill to fill.
        let mut row = rows[k];
        let mut ops = Vec::new();
        for c in 0..3u16 {
            let tag = format!("w{k}-c{c}");
            let outs = client
                .fill(row, ColumnId(c), Value::text(tag.clone()))
                .expect("fill of own empty cell is valid");
            row = outs[0].msg.creates_row().expect("fill replaces the row");
            for o in outs {
                let claim = (!o.auto_upvote).then(|| tag.clone());
                ops.push((
                    claim,
                    BatchOp::Msg {
                        msg: o.msg,
                        auto_upvote: o.auto_upvote,
                    },
                ));
            }
        }
        out.push(Workload { worker: id, ops });
    }
    out
}

fn master_contains(backend: &Backend, tag: &str) -> bool {
    let val = Value::text(tag);
    backend
        .master()
        .table()
        .iter()
        .any(|(_, e)| (0..3u16).any(|c| e.value.get(ColumnId(c)) == Some(&val)))
}

fn pipeline(
    backend: &Arc<Mutex<Backend>>,
    options: BatchOptions,
    overload: OverloadOptions,
) -> BatchPipeline {
    BatchPipeline::start(
        Arc::clone(backend),
        Box::new(|| Millis(1)),
        Box::new(|| {}),
        options,
        overload,
    )
}

/// Workers submitting their ops one after the other — the next once the
/// previous was answered — to a pipeline somebody else decides when to
/// drain, all on the caller's clock.
struct Crowd<'a> {
    p: &'a BatchPipeline,
    backend: &'a Mutex<Backend>,
    loads: &'a [Workload],
    /// Per worker, the index of the op it offers next.
    next: Vec<usize>,
    outcomes: Vec<(Option<String>, Result<(), SubmitError>)>,
}

impl<'a> Crowd<'a> {
    fn new(p: &'a BatchPipeline, backend: &'a Mutex<Backend>, loads: &'a [Workload]) -> Self {
        Crowd {
            p,
            backend,
            loads,
            next: vec![0; loads.len()],
            outcomes: Vec::new(),
        }
    }

    /// Worker `k` offers its next op at `at`, `speculative` or not. One
    /// refused at the door is answered on the spot, and the worker moves on
    /// to the op after it.
    fn offer(&mut self, k: usize, speculative: bool, at: Instant) {
        while let Some((tag, op)) = self.loads[k].ops.get(self.next[k]) {
            let job = Submission {
                ticket: k as u64,
                worker: self.loads[k].worker,
                op: op.clone(),
                speculative,
                trace: TraceId::NONE,
            };
            match self.p.admit(job, at) {
                Ok(()) => return,
                Err(refused) => {
                    self.outcomes.push((tag.clone(), Err(refused)));
                    self.next[k] += 1;
                }
            }
        }
    }

    /// Takes and applies at `now` until the queue is empty; a worker whose
    /// op was answered offers its next one at once.
    fn drain(&mut self, now: Instant) {
        while self.p.queue_depth() > 0 {
            let settled = self.p.apply(now, &mut self.backend.lock());
            for answer in settled {
                let k = answer.ticket as usize;
                let (tag, _) = &self.loads[k].ops[self.next[k]];
                self.outcomes.push((tag.clone(), answer.result.map(|_| ())));
                self.next[k] += 1;
                self.offer(k, false, now);
            }
        }
    }
}

/// Every fill is either acked and in the master, or answered
/// `Overloaded` (or failed in the wake of one that was) and absent.
/// Returns (acked, turned away).
fn assert_acked_iff_applied(
    b: &Backend,
    outcomes: &[(Option<String>, Result<(), SubmitError>)],
    context: &str,
) -> (usize, usize) {
    let (mut acked, mut turned_away) = (0, 0);
    for (tag, result) in outcomes {
        match result {
            Ok(()) => {
                acked += 1;
                if let Some(tag) = tag {
                    assert!(
                        master_contains(b, tag),
                        "{context}: acked fill {tag} missing from master"
                    );
                }
            }
            Err(e) => {
                // Overloaded = shed or refused; any other error is the
                // cascade of an earlier one (the op targets a row whose
                // creating fill never applied). Either way: never applied.
                turned_away += 1;
                if let SubmitError::Overloaded { retry_after_ms } = e {
                    assert!(*retry_after_ms >= 1, "{context}: zero retry hint");
                }
                if let Some(tag) = tag {
                    assert!(
                        !master_contains(b, tag),
                        "{context}: failed fill {tag} ({e}) was applied anyway"
                    );
                }
            }
        }
    }
    // The history a client would replay must agree with the master:
    // exactly the acked ops, in some order — no shed op smuggled in.
    assert!(
        b.history_len() >= acked as u64,
        "{context}: history shorter than acked ops"
    );
    (acked, turned_away)
}

/// The headline property, under a seeded stall/stagger interleaving:
/// every fill is either acked and in the master, or answered `Overloaded`
/// and absent — shedding happens strictly before the ack, never after.
#[test]
fn shed_strictly_before_ack() {
    let (mut acked_ever, mut shed_ever) = (0, 0);
    for seed in seeds() {
        let workers = 6;
        let mut backend = Backend::new(config(workers));
        let loads = workloads(&mut backend, workers);
        let backend = Arc::new(Mutex::new(backend));
        let p = pipeline(
            &backend,
            BatchOptions {
                max_batch: 4,
                max_wait: Duration::ZERO,
            },
            OverloadOptions {
                max_queue: 64,
                shed_after: Duration::from_millis(5),
                ..OverloadOptions::default()
            },
        );

        // Nothing is taken for a seeded window while workers arrive at
        // seeded offsets around its end: early arrivals outwait the shed
        // budget, late ones sail through.
        let start = Instant::now();
        let hold = Duration::from_millis(10 + splitmix64(seed) % 20);
        let mut arrivals: Vec<(Duration, usize)> = (0..workers)
            .map(|k| {
                let stagger =
                    splitmix64(seed ^ (k as u64) << 32) % (2 * hold.as_millis() as u64 + 1);
                (Duration::from_millis(stagger), k)
            })
            .collect();
        arrivals.sort();
        let mut crowd = Crowd::new(&p, &backend, &loads);
        let (stalled, flowing): (Vec<_>, Vec<_>) = arrivals.into_iter().partition(|a| a.0 <= hold);
        for (at, k) in stalled {
            crowd.offer(k, false, start + at);
        }
        crowd.drain(start + hold);
        for (at, k) in flowing {
            crowd.offer(k, false, start + at);
            crowd.drain(start + at);
        }

        let outcomes = crowd.outcomes;
        assert_eq!(outcomes.len(), loads.iter().map(|l| l.ops.len()).sum());
        let sheds = outcomes
            .iter()
            .filter(|(_, r)| matches!(r, Err(SubmitError::Overloaded { .. })))
            .count();
        let (acked, _) =
            assert_acked_iff_applied(&backend.lock(), &outcomes, &format!("seed {seed}"));
        acked_ever += acked;
        shed_ever += sheds;
    }
    assert!(
        acked_ever > 0 && shed_ever > 0,
        "the seeds exercise one side only: {acked_ever} acked, {shed_ever} shed"
    );
}

/// While nothing is taken, admission stops at `max_queue`; everyone else
/// is rejected immediately with a hint. Once taken, the admitted ops all
/// apply.
#[test]
fn admission_is_bounded_while_stalled() {
    let workers = 10;
    let mut backend = Backend::new(config(workers));
    let loads = workloads(&mut backend, workers);
    let backend = Arc::new(Mutex::new(backend));
    let overload = OverloadOptions {
        max_queue: 4,
        shed_after: Duration::from_secs(10), // no shedding: isolate admission
        ..OverloadOptions::default()
    };
    let p = pipeline(
        &backend,
        BatchOptions {
            max_batch: 1,
            max_wait: Duration::ZERO,
        },
        overload.clone(),
    );

    // One op per worker: ten submissions against a queue of four.
    let start = Instant::now();
    let history_len = backend.lock().history_len();
    let mut verdicts = Vec::new();
    for (k, load) in loads.iter().enumerate() {
        let (tag, op) = load.ops[0].clone();
        let job = Submission {
            ticket: k as u64,
            worker: load.worker,
            op,
            speculative: false,
            trace: TraceId::NONE,
        };
        verdicts.push((tag.expect("first op is a fill"), p.admit(job, start)));
        assert!(p.queue_depth() <= overload.max_queue);
    }
    assert_eq!(p.queue_depth(), overload.max_queue);
    assert_eq!(
        backend.lock().history_len(),
        history_len,
        "admission touched the backend"
    );

    // Four batches of one, 50 ms later.
    let mut applied = Vec::new();
    while p.queue_depth() > 0 {
        applied.extend(p.apply(start + Duration::from_millis(50), &mut backend.lock()));
    }
    assert_eq!(applied.len(), overload.max_queue);

    let b = backend.lock();
    for (k, (tag, verdict)) in verdicts.iter().enumerate() {
        match verdict {
            Ok(()) => {
                let answer = applied.iter().find(|a| a.ticket == k as u64);
                assert!(answer.is_some_and(|a| a.result.is_ok()), "{tag} not acked");
                assert!(master_contains(&b, tag), "acked {tag} missing");
            }
            Err(SubmitError::Overloaded { retry_after_ms }) => {
                assert!(k >= overload.max_queue, "{tag} bounced with room left");
                assert!(*retry_after_ms >= 1);
                assert!(!master_contains(&b, tag), "rejected {tag} applied");
            }
            Err(e) => panic!("unexpected outcome for {tag}: {e}"),
        }
    }
}

/// Speculative ops are refused as soon as the queue shows any depth at or
/// past `spec_queue`, while the same op submitted unmarked is admitted;
/// on an idle pipeline speculative ops go through like any other.
#[test]
fn speculative_gate_closes_first() {
    let workers = 4;
    let mut backend = Backend::new(config(workers));
    let loads = workloads(&mut backend, workers);
    let backend = Arc::new(Mutex::new(backend));
    let p = pipeline(
        &backend,
        BatchOptions {
            max_batch: 1,
            max_wait: Duration::ZERO,
        },
        OverloadOptions {
            max_queue: 8,
            spec_queue: 1,
            shed_after: Duration::from_secs(10),
            ..OverloadOptions::default()
        },
    );
    let now = Instant::now();
    // Only first ops, so that no answered worker offers a second.
    let firsts: Vec<Workload> = loads
        .iter()
        .map(|load| Workload {
            worker: load.worker,
            ops: load.ops[..1].to_vec(),
        })
        .collect();
    let tag = |k: usize| firsts[k].ops[0].0.clone().expect("first op is a fill");
    let mut crowd = Crowd::new(&p, &backend, &firsts);

    // Idle pipeline: a speculative op is admitted and applied.
    crowd.offer(0, true, now);
    crowd.drain(now);
    assert!(matches!(crowd.outcomes[..], [(_, Ok(()))]));
    assert!(master_contains(&backend.lock(), &tag(0)));

    // Visible depth: the gate is closed for speculative traffic...
    crowd.offer(1, false, now);
    crowd.offer(2, false, now);
    assert_eq!(p.queue_depth(), 2);
    crowd.offer(3, true, now);
    match crowd.outcomes.last() {
        Some((_, Err(SubmitError::Overloaded { retry_after_ms }))) => assert!(*retry_after_ms >= 1),
        other => panic!("speculative admitted at depth >= spec_queue: {other:?}"),
    }
    assert_eq!(p.queue_depth(), 2);

    // ...but still open for normal traffic: the same op, unmarked, is
    // admitted (the queue has room) and lands, proving the refusal above
    // was the gate, not the op.
    crowd.next[3] = 0;
    crowd.offer(3, false, now);
    assert_eq!(p.queue_depth(), 3);
    crowd.drain(now + Duration::from_millis(1));
    assert_eq!(crowd.outcomes.len(), 5);
    assert!(crowd.outcomes[2..].iter().all(|(_, r)| r.is_ok()));
    let b = backend.lock();
    assert!((0..4).all(|k| master_contains(&b, &tag(k))));
}

/// The same property where clients meet it: over the wire, an `ack` means
/// the fill is in the master and an `overloaded` means it is not. The
/// shard is held up on the backend lock (a `health` request needs it)
/// while six sessions send one fill each, so one wake reads all six
/// against a queue of two.
#[test]
fn over_the_wire_acked_is_applied_and_overloaded_is_not() {
    let sessions = 6;
    let options = ServiceOptions {
        overload: OverloadOptions {
            max_queue: 2,
            ..OverloadOptions::default()
        },
        ..ServiceOptions::default()
    };
    let service =
        TcpService::start_with(Backend::new(config(sessions)), "127.0.0.1:0", options).unwrap();
    let join = || {
        let conn = TcpConn::connect(service.addr()).unwrap();
        conn.send(Request::Hello(None).encode().as_bytes()).unwrap();
        let core = ClientCore::welcomed(&conn.recv().expect("welcome"), None, None).unwrap();
        (conn, core)
    };
    let mut clients: Vec<_> = (0..sessions).map(|_| join()).collect();
    let (staller, _) = join();

    let backend = service.backend();
    // The service's own handle: `stats()` would wait on the lock held here.
    let health_requests = &service.metrics().health_requests;
    let stalled = backend.lock();
    let before = health_requests.get();
    staller.send(Request::Health.encode().as_bytes()).unwrap();
    while health_requests.get() == before {
        std::thread::yield_now(); // counted, then blocked on the lock we hold
    }
    let mut tags = Vec::new();
    for (k, (conn, core)) in clients.iter_mut().enumerate() {
        let row = core.view().replica().table().row_ids().nth(k).unwrap();
        let tag = format!("wire-{k}");
        let fill = core.fill(row, ColumnId(0), Value::text(tag.clone()), false);
        conn.send(fill.unwrap()[0].encode().as_bytes()).unwrap();
        tags.push(tag);
    }
    drop(stalled);

    let mut outcomes = Vec::new();
    for ((conn, core), tag) in clients.iter_mut().zip(tags) {
        let verdict = loop {
            match core.handle(&conn.recv().expect("a reply")).unwrap() {
                Event::Ack(_) => break Ok(()),
                Event::Overloaded { retry_after_ms } => {
                    break Err(SubmitError::Overloaded { retry_after_ms })
                }
                Event::Broadcast { .. } => {}
                other => panic!("unexpected reply: {other:?}"),
            }
        };
        outcomes.push((Some(tag), verdict));
    }
    let (acked, turned_away) = assert_acked_iff_applied(&backend.lock(), &outcomes, "wire");
    assert_eq!((acked, turned_away), (2, 4), "one wake, a queue of two");
    drop(clients);
    service.stop();
}
