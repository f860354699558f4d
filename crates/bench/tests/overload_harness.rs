//! Fixed-seed overload acceptance gate: each scenario replays a seeded
//! open-loop schedule against a real `TcpService` whose admission bound is
//! a fraction of the offered concurrency (4x+ overload), and asserts the
//! DESIGN.md §9 contract:
//!
//! * queue depth stays bounded (`max_queue` + one in-flight per conn);
//! * admitted submissions ack within a bounded p99;
//! * overload is surfaced (rejects with `retry_after`, client backoffs)
//!   instead of absorbed into memory;
//! * no acked submission is ever lost — across shedding, eviction, and
//!   herd reconnect alike.
//!
//! Extend the seed set without editing the file via
//! `CROWDFILL_STRESS_SEEDS=7,8 cargo test -p crowdfill-bench`.
//!
//! The tests run on parallel threads and share the process-wide trace
//! mode, so it is set once, for the whole binary: sampled (1 in 8 ops,
//! pure in the seeded trace ids) unless tracing is already on, so a
//! failing seed has a flight record to dump.

use crowdfill_bench::overload::{run_schedule, HarnessOptions, ScenarioReport};
use crowdfill_obs::trace::{self as obstrace, dump_on_panic, TraceMode};
use crowdfill_sim::openloop::{self, Plan};
use std::sync::Once;

/// [`run_schedule`] with the binary's trace mode set.
fn run(plan: &Plan, opts: &HarnessOptions) -> ScenarioReport {
    static TRACING: Once = Once::new();
    TRACING.call_once(|| {
        if obstrace::mode() == TraceMode::Off {
            obstrace::set_mode(TraceMode::Sampled(8));
        }
    });
    run_schedule(plan, opts)
}

fn seeds() -> Vec<u64> {
    let mut s = vec![11, 47];
    if let Ok(extra) = std::env::var("CROWDFILL_STRESS_SEEDS") {
        s.extend(
            extra
                .split(',')
                .filter_map(|t| t.trim().parse::<u64>().ok()),
        );
    }
    s
}

/// Generous wall-clock budget for p99 time-to-ack of *admitted* ops: the
/// point is that it is bounded by the retry/backoff budget, not that it is
/// small on a loaded CI box.
const P99_BUDGET_MS: u64 = 3_000;

#[test]
fn burst_bounded_and_lossless() {
    for seed in seeds() {
        dump_on_panic(&format!("burst-seed{seed}"), || {
            // 32 connections against an admission bound of 4: an 8x storm,
            // all arrivals inside one 10ms window.
            let schedule = openloop::burst(seed, 32, 3, 10, 300);
            let mut opts = HarnessOptions::tiny(32, 3);
            opts.overload.max_queue = 4;
            opts.overload.spec_queue = 2;
            let report = run(&schedule, &opts);
            eprintln!("burst seed {seed}: {report:?}");
            report.assert_invariants();
            assert!(report.acked > 0, "seed {seed}: nothing was ever admitted");
            assert!(
                report.admission_rejects > 0,
                "seed {seed}: an 8x burst never tripped admission control"
            );
            assert!(
                report.client_backoffs > 0,
                "seed {seed}: no client honored a retry_after hint"
            );
            assert!(
                report.p99_ack_ms <= P99_BUDGET_MS,
                "seed {seed}: admitted p99 {}ms over budget",
                report.p99_ack_ms
            );
        });
    }
}

#[test]
fn ramp_admits_until_saturation() {
    for seed in seeds() {
        dump_on_panic(&format!("ramp-seed{seed}"), || {
            let schedule = openloop::ramp(seed, 16, 96, 400);
            let mut opts = HarnessOptions::tiny(16, 6);
            opts.overload.max_queue = 4;
            let report = run(&schedule, &opts);
            eprintln!("ramp seed {seed}: {report:?}");
            report.assert_invariants();
            assert!(report.acked > 0, "seed {seed}: nothing admitted");
            assert!(
                report.p99_ack_ms <= P99_BUDGET_MS,
                "seed {seed}: admitted p99 {}ms over budget",
                report.p99_ack_ms
            );
        });
    }
}

#[test]
fn stalled_readers_are_downgraded_then_evicted() {
    for seed in seeds() {
        dump_on_panic(&format!("stalled-reader-seed{seed}"), || {
            let schedule = openloop::stalled_reader(seed, 8, 8, 400, 2);
            // Big cells: the fan-out to each stalled reader is more than
            // twice what its socket buffers, so its writer must fill.
            let opts = HarnessOptions::stalled(8, 8);
            let report = run(&schedule, &opts);
            eprintln!("stalled-reader seed {seed}: {report:?}");
            report.assert_invariants();
            assert!(report.acked > 0, "seed {seed}: nothing admitted");
            assert!(
                report.lag_downgrades > 0,
                "seed {seed}: no seat ever hit the write watermark"
            );
            assert!(
                report.evictions > 0,
                "seed {seed}: a stalled reader was never evicted"
            );
        });
    }
}

#[test]
fn thundering_herd_reconnects_without_losing_acks() {
    for seed in seeds() {
        dump_on_panic(&format!("thundering-herd-seed{seed}"), || {
            let schedule = openloop::thundering_herd(seed, 12, 5, 400, 150);
            let opts = HarnessOptions::tiny(12, 5);
            let report = run(&schedule, &opts);
            eprintln!("thundering-herd seed {seed}: {report:?}");
            report.assert_invariants();
            assert!(report.acked > 0, "seed {seed}: nothing admitted");
            assert!(
                report.client_resumes > 0,
                "seed {seed}: the herd never resumed a session"
            );
            assert!(
                report.p99_ack_ms <= P99_BUDGET_MS,
                "seed {seed}: admitted p99 {}ms over budget",
                report.p99_ack_ms
            );
        });
    }
}
