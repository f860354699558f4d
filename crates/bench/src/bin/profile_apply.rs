//! `profile-apply`: stage-by-stage decomposition of the backend apply hot
//! path, for attributing where the per-op microseconds go (EXPERIMENTS.md).
//!
//! Replays the recorded sync-pipeline workload through progressively larger
//! slices of the apply path: bare replica processing, PRI maintenance, the
//! fulfillment check, and the full backend — so `full - pri - replica`
//! attributes the remainder (policy, estimator, trace, broadcast fan-out).

use crowdfill_bench::workload::{pipeline_config, record_fill_workload, replay_singleton};
use crowdfill_constraints::PriMaintainer;
use crowdfill_model::ClientId;
use crowdfill_server::{Backend, BatchOp};
use crowdfill_sync::Replica;
use std::sync::Arc;
use std::time::Instant;

fn median(mut v: Vec<u128>) -> u128 {
    v.sort_unstable();
    v[v.len() / 2]
}

fn main() {
    let (rows, workers, reps) = (32usize, 4usize, 9usize);
    let jobs = record_fill_workload(rows, workers);
    let msgs: Vec<crowdfill_model::Message> = jobs
        .iter()
        .map(|j| match &j.op {
            BatchOp::Msg { msg, .. } => msg.clone(),
            BatchOp::Modify { .. } => unreachable!("fill workload has no modifies"),
        })
        .collect();
    let ops = jobs.len();
    let config = pipeline_config(rows);
    eprintln!("profiling {ops} ops, {reps} reps (median ns/op per stage)");

    let stage = |name: &str, samples: Vec<u128>| {
        let med = median(samples);
        eprintln!("{:<28} {:>10} ns/op", name, med / ops as u128);
        med
    };

    // 1. Bare replica: process every recorded message once.
    let mut s = Vec::new();
    for _ in 0..reps {
        let mut r = Replica::new(ClientId(u32::MAX), Arc::clone(&config.schema));
        let t = Instant::now();
        for m in &msgs {
            r.process(m);
        }
        s.push(t.elapsed().as_nanos());
    }
    stage("replica.process", s);

    // 2. PRI maintainer: replica processing plus per-message PRI repair.
    let mut s = Vec::new();
    for _ in 0..reps {
        let mut cc = PriMaintainer::new(
            Arc::clone(&config.schema),
            config.scoring.clone(),
            &config.template,
        );
        cc.take_outbox();
        let t = Instant::now();
        for m in &msgs {
            cc.on_message(m);
            cc.take_outbox();
        }
        s.push(t.elapsed().as_nanos());
    }
    stage("pri.on_message", s);

    // 3. The fulfillment check alone, against the final table state.
    let backend = replay_singleton(&jobs, rows, workers, None);
    eprintln!("final table rows: {}", backend.master().table().len());

    // 3a. One classification sweep over the final table, per op.
    let mut s = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        for _ in 0..ops {
            std::hint::black_box(crowdfill_constraints::classify(
                backend.master().table(),
                &config.schema,
                &*config.scoring,
            ));
        }
        s.push(t.elapsed().as_nanos());
    }
    stage("classify (final state)", s);
    let mut s = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        for _ in 0..ops {
            std::hint::black_box(backend.is_fulfilled());
        }
        s.push(t.elapsed().as_nanos());
    }
    stage("is_fulfilled (final state)", s);

    // 3b. Backend construction alone (amortized over the op count, to match
    // how the bench suite reports it).
    let mut s = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        let mut backend = Backend::new(pipeline_config(rows));
        for _ in 0..workers {
            backend.attach(crowdfill_pay::Millis(0));
        }
        std::hint::black_box(&backend);
        s.push(t.elapsed().as_nanos());
    }
    stage("backend::new + connects", s);

    // 4. Full backend singleton replay.
    let mut s = Vec::new();
    for _ in 0..reps {
        let mut backend = Backend::new(pipeline_config(rows));
        for _ in 0..workers {
            backend.attach(crowdfill_pay::Millis(0));
        }
        let t = Instant::now();
        for job in &jobs {
            match &job.op {
                BatchOp::Msg { msg, auto_upvote } => {
                    backend
                        .submit(
                            job.worker,
                            msg.clone(),
                            crowdfill_pay::Millis(1),
                            *auto_upvote,
                        )
                        .expect("recorded op rejected");
                }
                BatchOp::Modify { .. } => unreachable!(),
            }
        }
        s.push(t.elapsed().as_nanos());
    }
    stage("backend.submit (full)", s);

    // 5. The whole pass as the bench suite times it: construction, replay,
    // and Backend drop all inside the timer.
    let mut s = Vec::new();
    for _ in 0..reps {
        let t = Instant::now();
        replay_singleton(&jobs, rows, workers, None);
        s.push(t.elapsed().as_nanos());
    }
    stage("full pass incl. drop", s);
}
