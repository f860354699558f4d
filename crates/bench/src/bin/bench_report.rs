//! `bench-report`: the machine-readable throughput harness behind the CI
//! bench gate. Each suite writes one `BENCH_<suite>.json`, one result
//! object per line, which `scripts/bench_compare.sh` diffs against a
//! checked-in baseline:
//!
//! * `sync` — the batched apply pipeline (batch-size sweep, with and
//!   without a journal);
//! * `matching` — the PRI matcher (bulk repair, and a Central Client's
//!   per-message cost as the table grows);
//! * `overhead` — what tracing and a shard's periodic jobs cost the apply
//!   path;
//! * `overload`, `connscale`, `recovery` — storms, many connections and
//!   crash recovery against a real `TcpService`;
//! * `progress` — the completeness estimator's accuracy, auto-stop's
//!   savings and the progress tick's own cost.
//!
//! Usage: `bench-report [--quick] [--out-dir DIR] [--suite NAME]`
//!
//! `--quick` shrinks the workload and repetition count for CI smoke runs;
//! the numbers are noisier but the file format is identical.

use crowdfill_bench::connscale::{run_conn_scale, ConnScaleMode, ConnScaleOptions};
use crowdfill_bench::overload::{run_schedule, HarnessOptions, ScenarioReport};
use crowdfill_bench::workload::{
    cardinality_central_client, component_graph, pri_fill_workload, record_fill_workload,
    replay_batched, replay_singleton,
};
use crowdfill_docstore::{FsyncPolicy, Wal};
use crowdfill_server::Backend;
use crowdfill_sim::openloop;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One measured configuration, serialized as a single JSON line.
struct Entry {
    name: String,
    median_ns_per_op: u64,
    ops_per_sec: f64,
    ops: usize,
    reps: usize,
}

impl Entry {
    fn json_line(&self) -> String {
        format!(
            "    {{\"name\": \"{}\", \"median_ns_per_op\": {}, \"ops_per_sec\": {:.1}, \"ops\": {}, \"reps\": {}}}",
            self.name, self.median_ns_per_op, self.ops_per_sec, self.ops, self.reps
        )
    }
}

/// Runs `f` (a whole-workload pass over `ops` operations) `reps` times and
/// reduces to the median per-op cost.
fn measure(name: &str, ops: usize, reps: usize, mut f: impl FnMut()) -> Entry {
    let mut samples: Vec<u128> = Vec::with_capacity(reps);
    for _ in 0..reps {
        let start = Instant::now();
        f();
        samples.push(start.elapsed().as_nanos());
    }
    reduce(name, ops, reps, samples)
}

/// Reduces whole-pass timings (nanoseconds each) to a median-based entry;
/// for suites that interleave configurations and time the passes
/// themselves rather than handing a closure to [`measure`].
fn reduce(name: &str, ops: usize, reps: usize, mut samples: Vec<u128>) -> Entry {
    samples.sort_unstable();
    let median_total = samples[samples.len() / 2];
    let median_ns_per_op = (median_total / ops.max(1) as u128) as u64;
    let ops_per_sec = if median_total == 0 {
        f64::INFINITY
    } else {
        ops as f64 * 1e9 / median_total as f64
    };
    let entry = Entry {
        name: name.to_string(),
        median_ns_per_op,
        ops_per_sec,
        ops,
        reps,
    };
    eprintln!(
        "{:<44} {:>12} ns/op {:>14.0} ops/s",
        entry.name, entry.median_ns_per_op, entry.ops_per_sec
    );
    entry
}

fn temp_wal(tag: &str) -> (PathBuf, Wal) {
    let path = std::env::temp_dir().join(format!(
        "crowdfill-bench-report-{tag}-{}-{}.wal",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let wal = Wal::open_with(&path, FsyncPolicy::EveryN(1), |_| {}).unwrap();
    (path, wal)
}

fn write_report(path: &Path, suite: &str, quick: bool, entries: &[Entry]) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).ok();
    }
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"suite\": \"{suite}\",\n"));
    out.push_str("  \"generated_by\": \"bench-report\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str("  \"results\": [\n");
    for (i, e) in entries.iter().enumerate() {
        out.push_str(&e.json_line());
        out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    let mut f = std::fs::File::create(path)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
    f.write_all(out.as_bytes()).unwrap();
    eprintln!("wrote {}", path.display());
}

fn sync_suite(quick: bool) -> Vec<Entry> {
    // Modest table size on purpose: per-op apply cost grows with the table
    // (PRI maintenance is table-sized work), and what this suite isolates
    // is the pipeline's amortization of the per-op constants — the journal
    // fsync above all — not replica scaling.
    // The regression gate on this suite is blocking in CI, so quick mode
    // still takes enough reps for a stable median.
    let (rows, workers, reps) = if quick { (16, 4, 5) } else { (32, 4, 9) };
    let jobs = record_fill_workload(rows, rows, workers);
    let ops = jobs.len();
    eprintln!("sync workload: {ops} ops over {rows} rows, {workers} workers, {reps} reps");
    let mut entries = Vec::new();

    // Interleave every variant rep by rep: timing each variant as its own
    // back-to-back pass lets clock/cache drift between passes masquerade
    // as a batching regression, when singleton and batch replay the same
    // ops through the same pipeline. The order also rotates each rep so no variant always
    // occupies the same slot of the cycle — a fixed slot picks up a small
    // systematic bias from whatever the previous variant left in cache.
    const BATCHES: [usize; 4] = [1, 8, 32, 128];
    replay_singleton(&jobs, rows, workers, None); // warm-up
    let variants = 1 + BATCHES.len();
    let mut samples: Vec<Vec<u128>> = vec![Vec::with_capacity(reps); variants];
    for rep in 0..reps {
        for k in 0..variants {
            let i = (rep + k) % variants;
            let start = Instant::now();
            match i {
                0 => replay_singleton(&jobs, rows, workers, None),
                _ => replay_batched(&jobs, rows, workers, BATCHES[i - 1], None),
            };
            samples[i].push(start.elapsed().as_nanos());
        }
    }
    let mut samples = samples.into_iter();
    entries.push(reduce(
        "apply/singleton",
        ops,
        reps,
        samples.next().unwrap(),
    ));
    for batch in BATCHES {
        entries.push(reduce(
            &format!("apply/batch={batch}"),
            ops,
            reps,
            samples.next().unwrap(),
        ));
    }

    // The journaled sweep is the headline: with FsyncPolicy::EveryN(1) a
    // batch pays one fsync regardless of size, so batch=32 must clear the
    // 2x acceptance bar over the per-op-fsync singleton path. Interleaved
    // for the same reason as above (fsync latency drifts too).
    const JBATCHES: [usize; 3] = [8, 32, 128];
    let jvariants = 1 + JBATCHES.len();
    let mut jsamples: Vec<Vec<u128>> = vec![Vec::with_capacity(reps); jvariants];
    for rep in 0..reps {
        for k in 0..jvariants {
            let i = (rep + k) % jvariants;
            let (path, wal) = temp_wal(if i == 0 { "single" } else { "batch" });
            let start = Instant::now();
            match i {
                0 => replay_singleton(&jobs, rows, workers, Some(wal)),
                _ => replay_batched(&jobs, rows, workers, JBATCHES[i - 1], Some(wal)),
            };
            jsamples[i].push(start.elapsed().as_nanos());
            std::fs::remove_file(path).ok();
        }
    }
    let mut jsamples = jsamples.into_iter();
    entries.push(reduce(
        "apply_journaled/singleton",
        ops,
        reps,
        jsamples.next().unwrap(),
    ));
    for batch in JBATCHES {
        entries.push(reduce(
            &format!("apply_journaled/batch={batch}"),
            ops,
            reps,
            jsamples.next().unwrap(),
        ));
    }
    entries
}

/// The matching layer on its own. `repair/*` builds a many-component graph
/// and augments every left once (ns per augmenting start). `pri_on_message/*`
/// is what one worker fill costs a Central Client over a cardinality
/// template — N equal rows, one matcher class — at four table sizes, so a
/// cost that grows with the table shows up as a step between neighbouring
/// rows; `pri_new/*` is one Central Client build.
fn matching_suite(quick: bool) -> Vec<Entry> {
    const FILLS: usize = 40;
    let (configs, tables, reps): (&[(usize, usize)], &[usize], usize) = if quick {
        (&[(16, 16), (64, 16)], &[32, 400], 5)
    } else {
        (
            &[(16, 16), (64, 16), (64, 64), (256, 32)],
            &[32, 200, 400, 800],
            31,
        )
    };
    let mut entries = Vec::new();
    for &(components, size) in configs {
        let lefts = components * size;
        component_graph(components, size).repair(); // warm-up
        entries.push(measure(
            &format!("repair/c{components}x{size}"),
            lefts,
            reps,
            || assert_eq!(component_graph(components, size).repair(), lefts),
        ));
    }
    for &rows in tables {
        let ops = FILLS.min(rows);
        let mut fills = Vec::with_capacity(reps);
        for _ in 0..reps {
            let (mut cc, msgs) = pri_fill_workload(rows, ops);
            let start = Instant::now();
            for msg in &msgs {
                cc.on_message(msg);
            }
            fills.push(start.elapsed().as_nanos());
            assert!(cc.invariant_holds() && cc.take_outbox().is_empty());
        }
        let name = format!("pri_on_message/cardinality-{rows}");
        entries.push(reduce(&name, ops, reps, fills));
    }
    entries.push(measure("pri_new/cardinality-400", 1, reps, || {
        assert!(cardinality_central_client(400).invariant_holds());
    }));
    entries
}

/// What observability costs the apply path, one suite: the batched
/// replay with tracing off, sampled (1-in-64) and on for every op, then
/// without and with the periodic jobs of a shard. The `apply_traced/off`
/// row is the hot path the ≤ 2 % regression gate watches; the others price
/// turning the flight recorder on.
///
/// The `apply_ticked` pair runs on one thread, as a shard does: the `on`
/// side takes the telemetry reading and advances a `ProgressTracker` (and
/// builds its report) between batches, each at 50× the product's cadence
/// (every 5 ms and every 10 ms), so their cost shows above noise. Off and
/// on reps are interleaved, so clock-frequency and cache drift over the
/// run land on both sides equally; a sequential A-then-B layout shows
/// multi-percent phantom deltas on shared runners. The rows carry the
/// table size, so quick and full runs never collide in the compare.
fn overhead_suite(quick: bool) -> Vec<Entry> {
    use crowdfill_obs::timeseries::{ReadingRing, SloInstruments};
    use crowdfill_obs::trace::{self as obstrace, TraceMode};
    use crowdfill_server::ProgressTracker;
    use std::sync::Arc;
    use std::time::Duration;

    let (rows, workers, reps) = if quick { (16, 4, 3) } else { (32, 4, 9) };
    eprintln!("trace overhead workload: {rows} rows, {workers} workers, {reps} reps");
    let before = obstrace::mode();
    let mut entries = Vec::new();
    for (label, mode) in [
        ("off", TraceMode::Off),
        ("sampled64", TraceMode::Sampled(64)),
        ("all", TraceMode::All),
    ] {
        obstrace::set_mode(mode);
        // Re-record under each mode: the workload mints its jobs' trace
        // ids at record time, gated on the mode (off → untraced jobs,
        // sampled → 1-in-64, all → every job).
        let jobs = record_fill_workload(rows, rows, workers);
        let ops = jobs.len();
        entries.push(measure(&format!("apply_traced/{label}"), ops, reps, || {
            replay_batched(&jobs, rows, workers, 32, None);
        }));
    }
    obstrace::set_mode(before);

    let (rows, workers, reps) = if quick { (16, 4, 5) } else { (96, 4, 25) };
    // A pass is a couple of milliseconds, so a rep replays the workload
    // `passes` times, each on a fresh backend, for the cadence to come
    // round many times within one rep.
    let passes = if quick { 8 } else { 32 };
    eprintln!(
        "tick overhead workload: {rows} rows, {workers} workers, \
         {passes} passes x {reps} interleaved reps"
    );
    let jobs = record_fill_workload(rows, rows, workers);
    let ops = jobs.len() * passes;
    const SAMPLE_EVERY: Duration = Duration::from_millis(5);
    const PROGRESS_EVERY: Duration = Duration::from_millis(10);
    // Returns how many readings and progress ticks the rep took. Both are
    // due at its start, as a shard's are at service start.
    let replay = |ticked: bool| {
        let ring = ReadingRing::new(
            SloInstruments {
                latency: Arc::default(),
                sheds: Arc::default(),
                submits: Arc::default(),
            },
            256,
        );
        let started = Instant::now();
        let (mut sampled, mut advanced) = (started - SAMPLE_EVERY, started - PROGRESS_EVERY);
        let mut ticks = (0, 0);
        for _ in 0..passes {
            let mut backend = Backend::new(crowdfill_bench::workload::pipeline_config(rows));
            for _ in 0..workers {
                backend.attach(crowdfill_pay::Millis(0));
            }
            let mut tracker = ProgressTracker::new();
            for chunk in jobs.chunks(32) {
                let outcome = backend.submit_batch(chunk.to_vec(), crowdfill_pay::Millis(1));
                for r in outcome.results {
                    r.expect("recorded op rejected on replay");
                }
                if !ticked {
                    continue;
                }
                let now = Instant::now();
                if now - sampled >= SAMPLE_EVERY {
                    ring.sample((now - started).as_nanos() as u64);
                    (sampled, ticks.0) = (now, ticks.0 + 1);
                }
                if now - advanced >= PROGRESS_EVERY {
                    tracker.advance(&backend);
                    std::hint::black_box(tracker.report(&backend, 0.9));
                    (advanced, ticks.1) = (now, ticks.1 + 1);
                }
            }
        }
        ticks
    };
    replay(true); // warm-up
    let mut off: Vec<u128> = Vec::with_capacity(reps);
    let mut on: Vec<u128> = Vec::with_capacity(reps);
    let mut ticks = (0, 0);
    for _ in 0..reps {
        let start = Instant::now();
        replay(false);
        off.push(start.elapsed().as_nanos());
        let start = Instant::now();
        ticks = replay(true);
        on.push(start.elapsed().as_nanos());
    }
    eprintln!(
        "tick overhead: the last on-rep took {} readings and {} progress ticks",
        ticks.0, ticks.1
    );
    entries.push(reduce(&format!("apply_ticked/off-{rows}r"), ops, reps, off));
    entries.push(reduce(&format!("apply_ticked/on-{rows}r"), ops, reps, on));
    entries
}

/// The overload stress suite: seeded open-loop storms against a tiny
/// admission bound (DESIGN.md §9). Every scenario's invariants — bounded
/// queue depth, zero acked loss — are asserted, so a regression fails the
/// report run rather than just shifting a number. Sampled tracing is on for
/// the whole suite, so a failing storm has a flight record to dump.
fn overload_suite(quick: bool) -> Vec<ScenarioReport> {
    use crowdfill_obs::trace::{self as obstrace, TraceMode};
    if obstrace::mode() == TraceMode::Off {
        obstrace::set_mode(TraceMode::Sampled(8));
    }
    let seeds: &[u64] = if quick { &[11] } else { &[11, 47, 101] };
    let mut reports = Vec::new();
    for &seed in seeds {
        let mut burst_opts = HarnessOptions::tiny(32, 3);
        burst_opts.overload.max_queue = 4;
        burst_opts.overload.spec_queue = 2;
        reports.push(run_schedule(
            &openloop::burst(seed, 32, 3, 10, 300),
            &burst_opts,
        ));

        let mut ramp_opts = HarnessOptions::tiny(16, 6);
        ramp_opts.overload.max_queue = 4;
        reports.push(run_schedule(&openloop::ramp(seed, 16, 96, 400), &ramp_opts));

        reports.push(run_schedule(
            &openloop::stalled_reader(seed, 8, 8, 400, 2),
            &HarnessOptions::stalled(8, 8),
        ));

        reports.push(run_schedule(
            &openloop::thundering_herd(seed, 12, 5, 400, 150),
            &HarnessOptions::tiny(12, 5),
        ));
    }
    for r in &reports {
        r.assert_invariants();
        eprintln!(
            "{:<28} offered {:>4} acked {:>4} rejects {:>4} sheds {:>3} evictions {:>2} p99 {:>5}ms depth {:>3}/{}",
            format!("{}/seed={}", r.scenario, r.seed),
            r.offered,
            r.acked,
            r.admission_rejects,
            r.sheds,
            r.evictions,
            r.p99_ack_ms,
            r.max_queue_depth,
            r.queue_bound,
        );
    }
    reports
}

/// The connection-scale suite (DESIGN.md §13): lean wire-level sessions
/// across many collections, reported as ack-latency entries so the same
/// `bench_compare.sh` gate that guards the apply pipeline also guards the
/// connection layer. Every scenario's invariants — zero acked-op loss,
/// bounded fairness spread, no lost or timed-out sessions — are asserted
/// here, so a regression fails the report run outright.
///
/// `median_ns_per_op` is the ack p50; `ops` is the acked fill count.
fn connscale_suite(quick: bool) -> Vec<Entry> {
    let mut entries = Vec::new();
    let mut run = |opts: &ConnScaleOptions| {
        let report = run_conn_scale(opts);
        report.assert_invariants(100.0);
        eprintln!(
            "connscale/{:<24} conns {:>6} peak {:>6} acked {:>6} p50 {:>6}ms p99 {:>6}ms spread {:>5.1} deferrals {:>6}",
            report.name,
            report.conns,
            report.peak_concurrent,
            report.acked,
            report.ack_p50_ns / 1_000_000,
            report.ack_p99_ns / 1_000_000,
            report.fairness_spread(),
            report.fairness_deferrals,
        );
        let secs = report.elapsed.as_secs_f64();
        entries.push(Entry {
            name: format!("connscale/{}", opts.name),
            median_ns_per_op: report.ack_p50_ns.max(1),
            ops_per_sec: report.acked as f64 / secs.max(1e-9),
            ops: report.acked,
            reps: 1,
        });
    };

    // The gated headline: 1k connections over 16 collections against the
    // in-process reactor.
    let mut headline = ConnScaleOptions::smoke(211, 16, 1_000);
    headline.name = "reactor-1kx16";
    run(&headline);

    // The small shape: the plan the historical thread-per-connection A/B
    // (EXPERIMENTS.md §A5) was measured on.
    let mut small = ConnScaleOptions::smoke(223, 4, 128);
    small.name = "reactor-128x4";
    small.connect_window_ms = 500;
    small.duration_ms = 1_500;
    run(&small);

    // Full mode only: the 10k-connection, 128-collection headline. Driver
    // and server each spend a file descriptor per session, so the server
    // runs as a child process (see the `connscale-server` bin). The entry
    // is informational in the compare gate — quick CI runs don't produce
    // it, and one-sided names never gate.
    if !quick {
        let mut opts = ConnScaleOptions::smoke(227, 128, 10_000);
        opts.name = "reactor-10kx128";
        opts.connect_window_ms = 15_000;
        opts.duration_ms = 30_000;
        opts.deadline = std::time::Duration::from_secs(240);
        opts.driver_threads = 8;
        let (mut child, addr) =
            spawn_connscale_server(opts.collections, opts.workers, opts.fills_per_worker);
        opts.mode = ConnScaleMode::External(addr);
        // The audit joins each collection over the wire; should it fail,
        // the server sees this process's end of its stdin close and exits.
        run(&opts);
        drop(child.stdin.take()); // EOF tells the server to exit
        let _ = child.wait();
    }
    entries
}

/// Spawns the `connscale-server` sibling binary hosting the scenario's
/// collections and scrapes its `LISTENING <addr>` line.
fn spawn_connscale_server(
    collections: usize,
    workers: usize,
    fills: usize,
) -> (std::process::Child, std::net::SocketAddr) {
    let bin = std::env::current_exe()
        .expect("current_exe")
        .with_file_name("connscale-server");
    if !bin.exists() {
        panic!(
            "{} not found — build it first: cargo build --release -p crowdfill-bench --bins",
            bin.display()
        );
    }
    let mut child = std::process::Command::new(&bin)
        .args([
            "--collections",
            &collections.to_string(),
            "--workers",
            &workers.to_string(),
            "--fills",
            &fills.to_string(),
        ])
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .spawn()
        .expect("spawn connscale-server");
    let stdout = child.stdout.take().expect("child stdout");
    let mut line = String::new();
    std::io::BufRead::read_line(&mut std::io::BufReader::new(stdout), &mut line)
        .expect("read LISTENING line");
    let addr = line
        .trim()
        .strip_prefix("LISTENING ")
        .unwrap_or_else(|| panic!("unexpected server banner: {line:?}"))
        .parse()
        .expect("parse server addr");
    (child, addr)
}

/// The recovery suite (DESIGN.md §14): restart cost at a 100× op-count
/// spread, with and without compaction. The workload holds live state
/// constant (vote/undo cycles), so journal-replay recovery grows ~100×
/// while checkpoint + suffix recovery must stay flat — asserted at 2×, so
/// a regression fails the report run (and the CI gate) outright.
///
/// `median_ns_per_op` carries the *total* median recovery wall time
/// (ops=1): flatness across scales is the signal, not per-op cost.
fn recovery_suite(quick: bool) -> Vec<Entry> {
    use crowdfill_bench::recovery::{assert_flat, run_recovery};
    let (small_ops, reps) = if quick { (300, 5) } else { (500, 9) };
    let large_ops = small_ops * 100;
    // Compact once the journal tops 16 KiB: both scales cross it, so both
    // recover from a snapshot plus a bounded (constant-size) suffix.
    let threshold = Some(16 << 10);
    eprintln!("recovery workload: vote cycles over {small_ops} and {large_ops} ops, {reps} reps");
    let mut entries = Vec::new();
    let mut push = |r: &crowdfill_bench::recovery::RecoveryReport| {
        eprintln!(
            "{:<40} {:>12} ns/recovery  wal {:>9} B  base seq {:>7}",
            r.name, r.median_recovery_ns, r.wal_bytes, r.history_base
        );
        entries.push(Entry {
            name: r.name.clone(),
            median_ns_per_op: r.median_recovery_ns,
            ops_per_sec: 1e9 / r.median_recovery_ns.max(1) as f64,
            ops: 1,
            reps: r.reps,
        });
    };
    let journal_small = run_recovery("journal-small", small_ops, None, reps);
    let journal_large = run_recovery("journal-large", large_ops, None, reps);
    let compact_small = run_recovery("compact-small", small_ops, threshold, reps);
    let compact_large = run_recovery("compact-large", large_ops, threshold, reps);
    push(&journal_small);
    push(&journal_large);
    push(&compact_small);
    push(&compact_large);
    // The §14 acceptance bar: flat within 2× at 100× ops.
    assert_flat(&compact_small, &compact_large, 2.0);
    assert!(
        compact_large.median_recovery_ns < journal_large.median_recovery_ns,
        "compaction did not beat full replay at {large_ops} ops"
    );
    entries
}

/// The progress suite (DESIGN.md §15): estimator accuracy and overhead.
///
/// Accuracy entries replay pinned-seed species-arrival schedules through
/// the streaming Chao92 estimator and score `est_total` against realized
/// ground truth at fixed true-completeness checkpoints; adaptive-stop
/// entries replay the same schedules under the conservative stopping rule
/// and record how much of the stream (≈ cost) the stop avoided. Both are
/// pure functions of the seeds — quick and full runs emit identical
/// values, so the CI compare gates them exactly. The §15 acceptance bar
/// (APE ≤ 20% once true completeness ≥ 50%) is asserted in-run, so an
/// estimator regression fails the report (and the CI gate) outright.
///
/// `median_ns_per_op` carries the score in basis points (APE × 100 /
/// saved-percent × 100): the field the compare script diffs.
///
/// The `progress_tick` entries are real timings: what one advance of a
/// `ProgressTracker` and its report cost, sized into the name so quick and
/// full runs never collide in the compare. What the tick costs the apply
/// path is [`overhead_suite`]'s.
fn progress_suite(quick: bool) -> Vec<Entry> {
    use crowdfill_bench::progress::{autostop, score_schedule, CHECKPOINTS};
    use crowdfill_server::ProgressTracker;
    use crowdfill_sim::{species_streakers, species_zipf};

    let mut entries = Vec::new();

    // Pinned estimator-accuracy scenarios, three seeds each so one lucky
    // or unlucky crossing cannot swing a gate. The finite-universe crowds
    // (uniform / Zipf-skewed) carry the §15 acceptance bar; the streaker
    // crowds keep minting brand-new species forever, so their realized
    // richness includes arrivals no finite-universe estimator can see yet
    // — they are report-only diagnostics, bounded (the streaker-corrected
    // f1′ must keep the error under 100%) but not held to 20%.
    const SEEDS: [u64; 3] = [1, 2, 3];
    let scenarios: Vec<(&str, bool, Vec<crowdfill_sim::SpeciesSchedule>)> = vec![
        (
            "uniform",
            true,
            SEEDS
                .iter()
                .map(|&s| species_zipf(s, 6, 300, 4000, 60_000, 0.0))
                .collect(),
        ),
        (
            "zipf1.0",
            true,
            SEEDS
                .iter()
                .map(|&s| species_zipf(s, 6, 300, 6000, 60_000, 1.0))
                .collect(),
        ),
        (
            "zipf0.6",
            true,
            SEEDS
                .iter()
                .map(|&s| species_zipf(s, 6, 300, 6000, 60_000, 0.6))
                .collect(),
        ),
        (
            "adv-streak2x10",
            false,
            SEEDS
                .iter()
                .map(|&s| species_streakers(s, 6, 300, 4000, 60_000, 2, 0.10))
                .collect(),
        ),
        (
            "adv-streak3x20",
            false,
            SEEDS
                .iter()
                .map(|&s| species_streakers(s, 8, 300, 5000, 60_000, 3, 0.20))
                .collect(),
        ),
    ];

    // (est_total, truth) pairs per checkpoint, asserted scenarios only.
    let mut by_checkpoint: std::collections::BTreeMap<u32, Vec<(f64, f64)>> =
        std::collections::BTreeMap::new();
    for (label, asserted, scheds) in &scenarios {
        let mut per_cp: std::collections::BTreeMap<u32, Vec<(f64, f64)>> =
            std::collections::BTreeMap::new();
        let mut obs_at: std::collections::BTreeMap<u32, u64> = std::collections::BTreeMap::new();
        for sched in scheds {
            for s in score_schedule(sched, &CHECKPOINTS) {
                // `mape` pairs are (actual, estimate).
                per_cp
                    .entry(s.pct)
                    .or_default()
                    .push((s.truth as f64, s.est_total));
                *obs_at.entry(s.pct).or_default() += s.observations;
            }
        }
        for (pct, pairs) in &per_cp {
            let mape = crowdfill_pay::mape(pairs).expect("non-empty, nonzero truths");
            eprintln!(
                "{:<44} mape {:>6.1}%  ({} seeds)",
                format!("progress_mape/{label}@{pct}"),
                mape,
                pairs.len()
            );
            // The §15 acceptance bar on the finite-universe crowds; the
            // adversarial streaker rows only have to stay bounded.
            if *asserted {
                assert!(
                    *pct < 50 || mape <= 20.0,
                    "estimator MAPE {mape:.1}% > 20% on {label} at {pct}% true completeness"
                );
                by_checkpoint.entry(*pct).or_default().extend(pairs);
            } else {
                assert!(
                    mape <= 100.0,
                    "streaker correction lost control on {label} at {pct}%: MAPE {mape:.1}%"
                );
            }
            entries.push(Entry {
                name: format!("progress_mape_bp/{label}@{pct}"),
                median_ns_per_op: (mape * 100.0).round() as u64,
                ops_per_sec: mape,
                ops: obs_at[pct] as usize,
                reps: pairs.len(),
            });
        }
    }
    // Cross-scenario MAPE per checkpoint: the headline §15 trajectory.
    for (pct, pairs) in &by_checkpoint {
        let mape = crowdfill_pay::mape(pairs).expect("non-empty, nonzero truths");
        assert!(
            *pct < 50 || mape <= 20.0,
            "aggregate estimator MAPE {mape:.1}% > 20% at {pct}% true completeness"
        );
        entries.push(Entry {
            name: format!("progress_mape_bp/all@{pct}"),
            median_ns_per_op: (mape * 100.0).round() as u64,
            ops_per_sec: mape,
            ops: pairs.len(),
            reps: pairs.len(),
        });
    }

    // Adaptive stopping: stream share (≈ cost at uniform per-fill
    // pricing) saved at the default 90% target. Saturated finite pools
    // must stop early without giving up real coverage; streaker streams
    // are reported as-is (an unbounded-novelty crowd may hold the CI open
    // to the end, or stop against its own estimated universe).
    for (label, asserted, scheds) in &scenarios {
        let reports: Vec<_> = scheds.iter().map(|s| autostop(s, 0.9, 30)).collect();
        let mean = |f: fn(&crowdfill_bench::progress::AutostopReport) -> f64| {
            reports.iter().map(f).sum::<f64>() / reports.len() as f64
        };
        let saved = mean(|r| r.saved_pct);
        let realized = mean(|r| r.realized_completeness);
        eprintln!(
            "{:<44} saved {:>5.1}%  realized {:>5.2}  ({} seeds)",
            format!("progress_autostop/{label}"),
            saved,
            realized,
            reports.len()
        );
        if *asserted {
            for r in &reports {
                assert!(
                    r.stopped && r.saved_pct > 0.0,
                    "auto-stop never fired on saturated schedule {label}"
                );
                assert!(
                    r.realized_completeness >= 0.85,
                    "auto-stop fired too greedily on {label}: realized {:.2}",
                    r.realized_completeness
                );
            }
        }
        entries.push(Entry {
            name: format!("progress_autostop_saved_bp/{label}"),
            median_ns_per_op: (saved * 100.0).round() as u64,
            ops_per_sec: realized * 100.0,
            ops: reports.iter().map(|r| r.consumed).sum(),
            reps: reports.len(),
        });
    }

    let (rows, workers, reps) = if quick { (16, 4, 5) } else { (96, 4, 25) };
    let jobs = record_fill_workload(rows, rows, workers);

    // The sweep's own per-tick cost on a fully-applied backend: the first
    // advance pays the O(trace) catch-up once; steady-state ticks only
    // re-estimate (O(columns × workers)). `steady × cadence` is the
    // sweep's production duty cycle.
    {
        let mut backend = Backend::new(crowdfill_bench::workload::pipeline_config(rows));
        for _ in 0..workers {
            backend.attach(crowdfill_pay::Millis(0));
        }
        for chunk in jobs.chunks(32) {
            let outcome = backend.submit_batch(chunk.to_vec(), crowdfill_pay::Millis(1));
            for r in outcome.results {
                r.expect("recorded op rejected on replay");
            }
        }
        let tick_reps = if quick { 200 } else { 2000 };
        let mut first: Vec<u128> = Vec::with_capacity(reps);
        for _ in 0..reps {
            let mut tracker = ProgressTracker::new();
            let start = Instant::now();
            tracker.advance(&backend);
            std::hint::black_box(tracker.report(&backend, 0.9));
            first.push(start.elapsed().as_nanos());
        }
        let mut tracker = ProgressTracker::new();
        tracker.advance(&backend);
        let mut steady: Vec<u128> = Vec::with_capacity(reps);
        for _ in 0..reps {
            let start = Instant::now();
            for _ in 0..tick_reps {
                tracker.advance(&backend);
                std::hint::black_box(tracker.report(&backend, 0.9));
            }
            steady.push(start.elapsed().as_nanos());
        }
        entries.push(reduce(
            &format!("progress_tick/first-{rows}r"),
            1,
            reps,
            first,
        ));
        entries.push(reduce(
            &format!("progress_tick/steady-{rows}r"),
            tick_reps,
            reps,
            steady,
        ));
    }

    entries
}

fn write_overload_report(path: &Path, quick: bool, reports: &[ScenarioReport]) {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).ok();
    }
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"suite\": \"overload\",\n");
    out.push_str("  \"generated_by\": \"bench-report\",\n");
    out.push_str(&format!("  \"quick\": {quick},\n"));
    out.push_str("  \"results\": [\n");
    for (i, r) in reports.iter().enumerate() {
        out.push_str(&r.json_line());
        out.push_str(if i + 1 < reports.len() { ",\n" } else { "\n" });
    }
    out.push_str("  ]\n}\n");
    let mut f = std::fs::File::create(path)
        .unwrap_or_else(|e| panic!("cannot create {}: {e}", path.display()));
    f.write_all(out.as_bytes()).unwrap();
    eprintln!("wrote {}", path.display());
}

fn main() {
    let mut quick = false;
    let mut out_dir = PathBuf::from(".");
    let mut suite: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--out-dir" => {
                out_dir = PathBuf::from(args.next().expect("--out-dir needs a value"));
            }
            "--suite" => {
                suite = Some(args.next().expect("--suite needs a name"));
            }
            other => {
                eprintln!("unknown argument: {other}");
                eprintln!(
                    "usage: bench-report [--quick] [--out-dir DIR] \
                     [--suite sync|matching|overhead|overload|connscale|recovery|progress]"
                );
                std::process::exit(2);
            }
        }
    }
    let wants = |name: &str| suite.as_deref().is_none_or(|s| s == name);

    let mut sync = Vec::new();
    if wants("sync") {
        sync = sync_suite(quick);
        write_report(&out_dir.join("BENCH_sync.json"), "sync", quick, &sync);
    }

    if wants("matching") {
        let matching = matching_suite(quick);
        write_report(
            &out_dir.join("BENCH_matching.json"),
            "matching",
            quick,
            &matching,
        );
    }

    if wants("overhead") {
        let overhead = overhead_suite(quick);
        write_report(
            &out_dir.join("BENCH_overhead.json"),
            "overhead",
            quick,
            &overhead,
        );
    }

    if wants("overload") {
        let overload = overload_suite(quick);
        write_overload_report(&out_dir.join("BENCH_overload.json"), quick, &overload);
    }

    if wants("connscale") {
        let connscale = connscale_suite(quick);
        write_report(
            &out_dir.join("BENCH_connscale.json"),
            "connscale",
            quick,
            &connscale,
        );
    }

    if wants("recovery") {
        let recovery = recovery_suite(quick);
        write_report(
            &out_dir.join("BENCH_recovery.json"),
            "recovery",
            quick,
            &recovery,
        );
    }

    if wants("progress") {
        let progress = progress_suite(quick);
        write_report(
            &out_dir.join("BENCH_progress.json"),
            "progress",
            quick,
            &progress,
        );
    }

    // Surface the acceptance ratio so a human skimming CI logs sees it.
    let find = |name: &str| {
        sync.iter()
            .find(|e| e.name == name)
            .map(|e| e.ops_per_sec)
            .unwrap_or(0.0)
    };
    let single = find("apply_journaled/singleton");
    let batch32 = find("apply_journaled/batch=32");
    if single > 0.0 {
        eprintln!(
            "journaled batch=32 vs singleton: {:.2}x ops/sec",
            batch32 / single
        );
    }
}
