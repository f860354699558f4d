//! `profile-apply`: stage-by-stage decomposition of the backend apply hot
//! path at a chosen table size, for attributing where the per-op
//! microseconds go (EXPERIMENTS.md).
//!
//! `profile-apply [--rows N]` records a cardinality template of `N` rows
//! (default 32) whose first `min(N, 32)` rows are filled and upvoted to
//! quorum, then replays that op stream through
//! progressively larger slices of the apply path: bare replica processing,
//! the Central Client's classification update, PRI maintenance, and the
//! full backend, whose fill and vote apply are reported as their own
//! per-op medians (and a fill's mean heap allocations). The Central Client's build (`PriMaintainer::new`, with
//! the edges its PRI graph holds) and `Backend::new` are timed on their own,
//! the latter with its heap allocations and its Central Client's phases
//! (template ops, lefts, classification, rights, repair); the batch
//! classification and the fulfillment check against the final state, for
//! scale.
//!
//! Then the encoders, whatever `--rows` says: ns/op and heap allocations
//! per op (a counting allocator wraps the system one) of every frame kind
//! on the op path and of a journal record, for a 5-text-cell `replace` and
//! an `upvote`, and `persist::encode_backend_state` µs of the checkpoint of
//! a filled 32-, 400- and 3,200-row table.

use crowdfill_bench::workload::{pipeline_config, record_fill_workload};
use crowdfill_constraints::{Classifier, PriMaintainer};
use crowdfill_model::{ClientId, ColumnId, DataType, Message, RowId, RowValue, Value};
use crowdfill_obs::trace::TraceId;
use crowdfill_pay::{Millis, TraceEntry, WorkerId};
use crowdfill_server::persist;
use crowdfill_server::wire::{BootstrapText, CatchUp, Reply, Request, SeqMsg, TableImage};
use crowdfill_server::{Backend, BatchJob, BatchOp};
use crowdfill_sync::Replica;
use std::alloc::{GlobalAlloc, Layout, System};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The system allocator, counting allocations and reallocations.
struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn median(mut v: Vec<u128>) -> u128 {
    v.sort_unstable();
    v[v.len() / 2]
}

fn flag(args: &[String], name: &str) -> Option<usize> {
    let at = args.iter().position(|a| a == name)?;
    let value = args
        .get(at + 1)
        .unwrap_or_else(|| panic!("{name} needs a value"));
    Some(
        value
            .parse()
            .unwrap_or_else(|_| panic!("{name}: not a count: {value}")),
    )
}

/// The backend `jobs` leave behind on a `rows`-row table, with `workers`
/// sessions, each op's apply time and heap allocations handed to `timed`.
fn replayed(
    rows: usize,
    workers: usize,
    jobs: &[BatchJob],
    mut timed: impl FnMut(&Message, bool, u128, u64),
) -> Backend {
    let mut backend = Backend::new(pipeline_config(rows));
    for _ in 0..workers {
        backend.attach(Millis(0));
    }
    for job in jobs {
        let BatchOp::Msg { msg, auto_upvote } = &job.op else {
            unreachable!("fill workload has no modifies")
        };
        let msg_copy = msg.clone();
        let (t, allocations) = (Instant::now(), ALLOCATIONS.load(Ordering::Relaxed));
        backend
            .submit(job.worker, msg_copy, Millis(1), *auto_upvote)
            .expect("recorded op rejected");
        let allocations = ALLOCATIONS.load(Ordering::Relaxed) - allocations;
        timed(msg, *auto_upvote, t.elapsed().as_nanos(), allocations);
    }
    backend
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rows = flag(&args, "--rows").unwrap_or(32);
    let fills = rows.min(32);
    let (workers, reps) = (4usize, if rows > 400 { 3 } else { 9 });
    let jobs = record_fill_workload(rows, fills, workers);
    let msgs: Vec<Message> = jobs
        .iter()
        .map(|j| match &j.op {
            BatchOp::Msg { msg, .. } => msg.clone(),
            BatchOp::Modify { .. } => unreachable!("fill workload has no modifies"),
        })
        .collect();
    let ops = jobs.len();
    let config = pipeline_config(rows);
    eprintln!("profiling {ops} ops on {rows} rows ({fills} filled), {reps} reps");

    let stage = |name: &str, samples: Vec<u128>, per: usize| {
        eprintln!("{:<32} {:>10} ns/op", name, median(samples) / per as u128);
    };
    // The Central Client's initial inserts: every stage starts from them.
    let fresh_cc = || {
        let mut cc = PriMaintainer::new(
            Arc::clone(&config.schema),
            config.scoring.clone(),
            &config.template,
        );
        let init = cc.take_outbox();
        (cc, init)
    };
    let (mut s, mut edges) = (Vec::new(), 0);
    for _ in 0..reps {
        let t = Instant::now();
        let (cc, _) = fresh_cc();
        s.push(t.elapsed().as_nanos());
        edges = cc.edges_held();
    }
    eprintln!("{:<32} {:>10} us", "PriMaintainer::new", median(s) / 1000);
    eprintln!("{:<32} {:>10} edges", "  PRI graph held", edges);
    let (mut s, mut phases, mut allocations) = (Vec::new(), [(); 5].map(|_| Vec::new()), 0);
    for _ in 0..reps {
        let config = config.clone();
        let (t, before) = (Instant::now(), ALLOCATIONS.load(Ordering::Relaxed));
        let backend = Backend::new(config);
        s.push(t.elapsed().as_nanos());
        allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
        let split = backend.central_client().counts().build;
        let split = [
            split.ops,
            split.lefts,
            split.classify,
            split.rights,
            split.repair,
        ];
        for (phase, took) in phases.iter_mut().zip(split) {
            phase.push(took.as_nanos());
        }
        drop(black_box(backend));
    }
    eprintln!("{:<32} {:>10} us", "Backend::new", median(s) / 1000);
    let names = ["template ops", "lefts", "classify", "rights", "repair"];
    for (name, phase) in names.into_iter().zip(phases) {
        eprintln!(
            "{:<32} {:>10} us",
            format!("  {name}"),
            median(phase) / 1000
        );
    }
    eprintln!("{:<32} {:>10} allocs", "  heap allocations", allocations);
    let (_, init) = fresh_cc();
    let fresh_replica = || {
        let mut r = Replica::new(ClientId(u32::MAX), Arc::clone(&config.schema));
        r.replay(&init);
        r
    };

    // 1. Bare replica: process every recorded message once.
    let mut s = Vec::new();
    for _ in 0..reps {
        let mut r = fresh_replica();
        let t = Instant::now();
        for m in &msgs {
            r.process(m);
        }
        s.push(t.elapsed().as_nanos());
    }
    stage("replica.process", s, ops);

    // 2. The Central Client's classification update alone, per message.
    let (mut s, mut visits) = (Vec::new(), 0);
    for _ in 0..reps {
        let mut r = fresh_replica();
        let mut classes = Classifier::new(
            Arc::clone(&config.schema),
            config.scoring.clone(),
            r.table(),
        );
        let mut spent = 0;
        for m in &msgs {
            r.process(m);
            let t = Instant::now();
            visits = classes.update(r.table(), m).max(visits);
            spent += t.elapsed().as_nanos();
        }
        s.push(spent);
    }
    stage("classifier.update", s, ops);
    eprintln!("{:<32} {:>10} rows", "  most rows re-classified", visits);

    // 3. PRI maintainer: replica processing, classification and repair.
    let mut s = Vec::new();
    for _ in 0..reps {
        let (mut cc, _) = fresh_cc();
        let t = Instant::now();
        for m in &msgs {
            cc.on_message(m);
            cc.take_outbox();
        }
        s.push(t.elapsed().as_nanos());
    }
    stage("pri.on_message", s, ops);

    // 4. The full backend, op by op: fills and worker upvotes apart.
    let (mut fill, mut vote, mut build) = (Vec::new(), Vec::new(), Vec::new());
    let (mut fills, mut fill_allocations) = (0u64, 0);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        let mut built = false;
        let backend = replayed(
            rows,
            workers,
            &jobs,
            |msg, auto_upvote, took, allocations| {
                if !std::mem::replace(&mut built, true) {
                    build.push(t.elapsed().as_nanos() - took);
                }
                match msg {
                    Message::Replace { .. } => {
                        fill.push(took);
                        (fills, fill_allocations) = (fills + 1, fill_allocations + allocations);
                    }
                    Message::Upvote { .. } if !auto_upvote => vote.push(took),
                    _ => {}
                }
            },
        );
        last = Some(backend);
    }
    stage("backend.submit fill p50", fill, 1);
    stage("backend.submit vote p50", vote, 1);
    let per_fill = fill_allocations as f64 / fills as f64;
    eprintln!("{:<32} {:>10.1} allocs/op", "backend.submit fill", per_fill);
    eprintln!(
        "{:<32} {:>10} us",
        "backend::new + connects",
        median(build) / 1000
    );

    // 5. Against the final state: the batch classification (the test
    // oracle the server no longer runs) and the fulfillment check.
    let backend = last.expect("at least one rep");
    eprintln!("final table rows: {}", backend.master().table().len());
    let mut s = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(crowdfill_constraints::classify(
            backend.master().table(),
            &config.schema,
            &*config.scoring,
        ));
        s.push(t.elapsed().as_nanos());
    }
    stage("batch classify (final state)", s, 1);
    let mut s = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        for _ in 0..ops {
            std::hint::black_box(backend.is_fulfilled());
        }
        s.push(t.elapsed().as_nanos());
    }
    stage("is_fulfilled (final state)", s, ops);

    encoders();
}

/// A row of five text cells of `late_join`'s widths (6–18 bytes).
fn five_cells(n: u64) -> RowValue {
    let cells = [
        "Lionel Messi",
        "Argentina",
        "FW",
        "Inter Miami CF",
        "Rosario",
    ];
    let cell = |(c, s): (usize, &str)| (ColumnId(c as u16), Value::text(format!("{s} {n}")));
    RowValue::from_pairs(cells.into_iter().enumerate().map(cell))
}

fn replace(n: u64) -> Message {
    let (old, new) = (RowId::new(ClientId(3), n), RowId::new(ClientId(3), n + 1));
    let value = five_cells(n);
    Message::Replace { old, new, value }
}

fn upvote(n: u64) -> Message {
    Message::Upvote {
        value: five_cells(n),
    }
}

/// ns and allocations per call of `f`, over `n` calls.
fn per_op<T>(n: u64, mut f: impl FnMut() -> T) -> (f64, f64) {
    let (before, t) = (ALLOCATIONS.load(Ordering::Relaxed), Instant::now());
    for _ in 0..n {
        black_box(f());
    }
    let ns = t.elapsed().as_nanos() as f64 / n as f64;
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    (ns, allocations as f64 / n as f64)
}

/// Every op-path frame and journal record, for a 5-text-cell `replace`
/// and an `upvote`; then the checkpoint at three table sizes.
fn encoders() {
    const TRACE: TraceId = TraceId(0x00c0_ffee_0000_0001);
    const N: u64 = 2_000;
    eprintln!("{:<32} {:>10} {:>10}", "encode", "ns/op", "allocs/op");
    for (kind, msg) in [
        ("replace", replace as fn(u64) -> Message),
        ("upvote", upvote),
    ] {
        let entries = |n: u64| {
            let entry = |seq| SeqMsg {
                seq: 1_000 + seq,
                msg: msg(seq),
                trace: TRACE,
            };
            (0..n).map(entry).collect::<Vec<_>>()
        };
        let suffix = entries(8).into_iter().map(|e| (e.seq, e.msg)).collect();
        let modify = (0..3).map(|n| (msg(n), n == 2)).collect();
        let reason = "a replace must add exactly one cell to its live row".to_string();
        let requests = [
            (
                "submit",
                Request::Submit((msg(7), false), false, TraceId::NONE),
            ),
            ("submit+trace", Request::Submit((msg(7), true), true, TRACE)),
            ("modify of 3", Request::Modify(modify, TRACE)),
        ];
        let replies = [
            (
                "ack",
                Reply::Ack(12.5, false, vec![1_041, 1_042, 1_043], TRACE),
            ),
            ("reject", Reply::Reject(reason, TRACE)),
            ("overloaded", Reply::Overloaded(250, TRACE)),
            ("msg", Reply::Msg(entries(1).remove(0))),
            ("batch of 8", Reply::Batch(entries(8))),
            ("batch of 64", Reply::Batch(entries(64))),
            (
                "synced suffix of 8",
                Reply::Synced(1_064, CatchUp::Suffix(suffix)),
            ),
        ];
        let row = |name: &str, (ns, allocs): (f64, f64)| {
            eprintln!(
                "{:<32} {:>10.0} {:>10.1}",
                format!("{name} ({kind})"),
                ns,
                allocs
            );
        };
        for (name, r) in &requests {
            row(name, per_op(N, || r.encode()));
        }
        for (name, r) in &replies {
            row(name, per_op(N, || r.encode()));
        }
        let image = TableImage {
            types: vec![DataType::Text; 5],
            values: (0..32).map(five_cells).collect(),
            rows: (0..32)
                .map(|i| (RowId::new(ClientId(1), i), i as u32))
                .collect(),
            uh: vec![(0, 2)],
            dh: vec![],
        };
        let mut text = BootstrapText::new(&image);
        let pushed = msg(3);
        row("BootstrapText::push", per_op(N, || text.push(&pushed)));
        let log: Vec<TraceEntry> = (0..2)
            .map(|n| TraceEntry {
                at: Millis(10 * n),
                worker: (n == 0).then_some(WorkerId(4)),
                msg: msg(n),
                auto_upvote: n == 1,
                filled: None,
            })
            .collect();
        let frame = || persist::encode_journal_frame(900, 12_345, &log, &[]);
        row("journal frame of 2", per_op(N, frame));
    }
    let session = per_op(N, || persist::encode_journal_session(4, 5, 12_345));
    let closed = per_op(N, || persist::encode_journal_closed(12_345));
    eprintln!(
        "{:<32} {:>10.0} {:>10.1}",
        "journal session", session.0, session.1
    );
    eprintln!(
        "{:<32} {:>10.0} {:>10.1}",
        "journal closed", closed.0, closed.1
    );
    for rows in [32, 400, 3_200] {
        let jobs = record_fill_workload(rows, rows.min(400), 4);
        let state = replayed(rows, 4, &jobs, |_, _, _, _| {}).capture_state();
        let reps = if rows > 1_000 { 5 } else { 25 };
        let samples = (0..reps)
            .map(|_| {
                let t = Instant::now();
                black_box(persist::encode_backend_state(&state));
                t.elapsed().as_nanos()
            })
            .collect();
        let bytes = persist::encode_backend_state(&state).len();
        let name = format!("encode_backend_state {rows} rows");
        eprintln!(
            "{:<32} {:>10} us {:>9} bytes",
            name,
            median(samples) / 1000,
            bytes
        );
    }
}
