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
//! per-op medians. The Central Client's build (`PriMaintainer::new`, with
//! the edges its PRI graph holds) and `Backend::new` are timed on their own;
//! the batch classification and the fulfillment check against the final
//! state, for scale.

use crowdfill_bench::workload::{pipeline_config, record_fill_workload};
use crowdfill_constraints::{Classifier, PriMaintainer};
use crowdfill_model::{ClientId, Message};
use crowdfill_pay::Millis;
use crowdfill_server::{Backend, BatchOp};
use crowdfill_sync::Replica;
use std::sync::Arc;
use std::time::Instant;

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
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        let mut backend = Backend::new(pipeline_config(rows));
        for _ in 0..workers {
            backend.attach(Millis(0));
        }
        build.push(t.elapsed().as_nanos());
        for job in &jobs {
            let BatchOp::Msg { msg, auto_upvote } = &job.op else {
                unreachable!()
            };
            let t = Instant::now();
            backend
                .submit(job.worker, msg.clone(), Millis(1), *auto_upvote)
                .expect("recorded op rejected");
            let took = t.elapsed().as_nanos();
            match msg {
                Message::Replace { .. } => fill.push(took),
                Message::Upvote { .. } if !auto_upvote => vote.push(took),
                _ => {}
            }
        }
        last = Some(backend);
    }
    stage("backend.submit fill p50", fill, 1);
    stage("backend.submit vote p50", vote, 1);
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
}
