//! The blocking connection-scale CI gate (DESIGN.md §13): 1k concurrent
//! wire sessions over 16 collections against the in-process reactor
//! service, on pinned seeds.
//!
//! Asserted per seed:
//!
//! * every scheduled fill acked — no policy rejects, no lost sessions, no
//!   deadline timeouts (and, via the in-process audit inside
//!   [`run_conn_scale`], zero acked-op loss: every ack corresponds to a
//!   row in the collection's master table);
//! * convergence — a session is a real client, so it holds a replica that
//!   absorbed every broadcast of its collection, and at quiescence each of
//!   the 1,000 equals its collection's master: the run acks into something;
//! * per-collection fairness — ack p99 spread across the 16 collections
//!   stays bounded, so no collection is starved by its neighbors;
//! * thread discipline — the service runs O(shard pool) threads, not
//!   O(connections).
//!
//! On violation the harness dumps the flight record before panicking, and
//! CI uploads the dump as an artifact.
//!
//! Seeds can be overridden for bisection without recompiling:
//! `CROWDFILL_CONNSCALE_SEEDS=7,11 cargo test --release -p crowdfill-bench
//! --test connscale_smoke`.

use crowdfill_bench::connscale::{run_conn_scale, ConnScaleOptions};

/// Max/min ratio of per-collection ack p99. Generous — the gate is about
/// starvation, not scheduler jitter: a starved collection shows up as an
/// unbounded (or infinite) spread.
const MAX_FAIRNESS_SPREAD: f64 = 100.0;

fn seeds() -> Vec<u64> {
    match std::env::var("CROWDFILL_CONNSCALE_SEEDS") {
        Ok(s) => s
            .split(',')
            .map(|t| {
                t.trim()
                    .parse()
                    .expect("CROWDFILL_CONNSCALE_SEEDS: bad seed")
            })
            .collect(),
        Err(_) => vec![1009, 2003],
    }
}

/// Service threads currently alive in this process, by thread-name prefix
/// (`/proc/self/task/*/comm`; names are truncated to 15 bytes there).
fn crowdfill_threads() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0; // non-procfs platform: the assertion degrades to a no-op
    };
    tasks
        .filter_map(|t| {
            let comm = t.ok()?.path().join("comm");
            let name = std::fs::read_to_string(comm).ok()?;
            name.trim().starts_with("crowdfill").then_some(())
        })
        .count()
}

#[test]
fn one_thousand_conns_over_sixteen_collections_lose_nothing() {
    let threads_before = crowdfill_threads();
    for seed in seeds() {
        let mut opts = ConnScaleOptions::smoke(seed, 16, 1_000);
        opts.name = "ci-1kx16";
        let report = run_conn_scale(&opts);
        report.assert_invariants(MAX_FAIRNESS_SPREAD);
        assert_eq!(
            report.acked, report.expected_fills,
            "seed {seed}: {} of {} fills acked",
            report.acked, report.expected_fills
        );
        assert!(
            report.peak_concurrent >= 500,
            "seed {seed}: peak concurrency {} never reached half the fleet \
             (sessions closing faster than the plan intends?)",
            report.peak_concurrent
        );
        assert_eq!(
            report.diverged_replicas, 0,
            "seed {seed}: replicas differ from their collection's master"
        );
        for lane in &report.lanes {
            assert_eq!(
                lane.acked, lane.expected,
                "seed {seed}: collection {} acked {} of {}",
                lane.name, lane.acked, lane.expected
            );
        }
    }
    // The service is stopped inside run_conn_scale; whatever threads remain
    // must be O(shard pool), not O(connections). Allow slack for detached
    // writer threads still unwinding.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let now = crowdfill_threads();
        if now <= threads_before + 8 {
            break;
        }
        assert!(
            std::time::Instant::now() < deadline,
            "{} crowdfill threads survived the run (started with {})",
            now,
            threads_before
        );
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
}
