//! One run of one workload: blocks until the budget is spent, warm-up and
//! steal-dirty blocks set aside, metrics computed over the rest, the
//! traced run's replay and ledger, and the printed report.

use crate::driver::{
    at_reference_speed, run_block, BlockMode, BlockOutcome, EdgeSamples, RunContext, Samples, Span,
    OBSERVER_POLL, PROBE_REF_US,
};
use crate::metrics::{end_to_end, per_layer, MetricDef};
use crate::procfs::{self, GroupBill};
use crate::replay::{replay_layers, Layer};
use crate::script::{script_hash, Workload, THINK_MAX_US};
use crate::stats::{clean_blocks, median, quantile, THREAD_GROUPS};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// How long a run goes on: until `Seconds` of wall time have passed (and
/// at least [`MIN_BLOCKS`] blocks ran), or for exactly `Blocks` blocks.
/// Either way block `i` of a seed is the same script, so a longer run is a
/// longer prefix of the same work.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Seconds(f64),
    Blocks(u64),
}

/// Fewest blocks a time-budgeted run measures, so that a slow machine
/// still has a warm-up block and a median of block steal to cut at.
pub const MIN_BLOCKS: u64 = 10;

/// Blocks whose scripts the header's hash covers.
const HASHED_BLOCKS: u64 = 4;

#[derive(Debug, Clone)]
pub struct RunOptions {
    pub workload: Workload,
    pub seed: u64,
    pub budget: Budget,
    /// Interleave traced blocks, replay the layers, print per-layer
    /// metrics (instead of the end-to-end ones).
    pub trace: bool,
    /// Trace files, layer tables and journals go here.
    pub out_dir: PathBuf,
}

#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Samples (or blocks, or actions) the value rests on.
    pub n: usize,
}

#[derive(Debug, Clone)]
pub struct RunReport {
    pub workload: Workload,
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    pub correct: bool,
    pub errors: Vec<String>,
    pub blocks: usize,
    pub wall_s: f64,
    pub steal_ticks: Option<u64>,
}

/// Blocks metrics are computed over: the first tenth (at least one, never
/// all) is warm-up; of the rest, those whose steal is at most the median.
fn timed_blocks(blocks: &[BlockOutcome]) -> Vec<&BlockOutcome> {
    let warm_up = blocks
        .len()
        .div_ceil(10)
        .min(blocks.len().saturating_sub(1));
    let rest = &blocks[warm_up..];
    let steal: Vec<Option<u64>> = rest.iter().map(|b| b.steal).collect();
    clean_blocks(&steal).into_iter().map(|i| &rest[i]).collect()
}

/// Everything the kept blocks measured, pooled. `samples`, `setup_s` and
/// `cpu_ref_ns` are at reference speed (each block scaled by its own
/// speed factor); the `raw_*` twins are as the clock read them.
#[derive(Default)]
struct Pool {
    blocks: usize,
    samples: Samples,
    raw_samples: Samples,
    setup_s: Vec<f64>,
    raw_setup_s: Vec<f64>,
    speed_factors: Vec<f64>,
    acked: u64,
    cpu_ref_ns: f64,
    cpu_ns: u64,
    wall_ns: u64,
    wal_bytes: u64,
    bill: GroupBill,
    edge: EdgeSamples,
    bytes_out: u64,
    bytes_in: u64,
    frames_in: u64,
}

impl Pool {
    fn of(blocks: &[&BlockOutcome]) -> Pool {
        let mut pool = Pool {
            blocks: blocks.len(),
            ..Pool::default()
        };
        for b in blocks {
            let factor = b.speed_factor();
            pool.speed_factors.push(factor);
            pool.samples
                .extend(&b.samples.at_reference_speed(&b.cpu, factor));
            pool.raw_samples.extend(&b.samples);
            pool.setup_s.push(at_reference_speed(
                b.setup_s,
                b.setup_cpu_s,
                b.setup_speed_factor(),
            ));
            pool.raw_setup_s.push(b.setup_s);
            pool.acked += b.acked;
            pool.cpu_ref_ns += b.cpu_ns as f64 / factor.max(f64::MIN_POSITIVE);
            pool.cpu_ns += b.cpu_ns;
            pool.wall_ns += b.wall_ns;
            pool.wal_bytes += b.wal_bytes;
            if let Some(bill) = &b.bill {
                pool.bill.add(bill);
            }
            if let Some(t) = &b.trace {
                pool.edge.extend(&t.edge);
                pool.bytes_out += t.bytes_out;
                pool.bytes_in += t.bytes_in;
                pool.frames_in += t.frames_in;
            }
        }
        pool
    }

    fn per_action(&self, total: f64) -> f64 {
        total / self.acked.max(1) as f64
    }
}

type Values = HashMap<String, (f64, usize)>;

fn put(values: &mut Values, name: &str, value: f64, n: usize) {
    values.insert(name.to_string(), (value, n));
}

fn put_quantile(values: &mut Values, name: &str, samples: &[f64], q: f64) {
    put(
        values,
        name,
        quantile(samples, q).unwrap_or(0.0),
        samples.len(),
    );
}

fn end_to_end_values(pool: &Pool) -> Values {
    let mut v = Values::new();
    let s = &pool.samples;
    put_quantile(&mut v, "fill_ack_p50_us", &s.fill_ack, 0.5);
    put_quantile(&mut v, "vote_ack_p50_us", &s.vote_ack, 0.5);
    put_quantile(&mut v, "peer_p50_us", &s.peer, 0.5);
    put_quantile(&mut v, "join_p50_us", &s.join, 0.5);
    put(
        &mut v,
        "cpu_us_per_action",
        pool.per_action(pool.cpu_ref_ns / 1e3),
        pool.acked as usize,
    );
    put_quantile(&mut v, "setup_s", &pool.setup_s, 0.5);
    v
}

/// The per-layer values: thread ledger, tails and environment from the
/// untraced blocks; client-edge spans from the traced ones; the replayed
/// layers; and the ledger that reconciles them with `fill_ack_p50_us`.
fn per_layer_values(
    untraced: &Pool,
    traced: &Pool,
    layers: &[Layer],
    journaled: bool,
    steal_share_pct: f64,
) -> Values {
    let mut v = Values::new();
    let actions = untraced.acked as usize;
    for (i, group) in THREAD_GROUPS.iter().enumerate() {
        put(
            &mut v,
            &format!("{group}.cpu_us_per_action"),
            untraced.per_action(untraced.bill.cpu_ns[i] as f64 / 1e3),
            actions,
        );
        put(
            &mut v,
            &format!("{group}.runq_wait_us_per_action"),
            untraced.per_action(untraced.bill.runq_wait_ns[i] as f64 / 1e3),
            actions,
        );
    }
    // Everything below is as the clock read it: layers are compared with
    // each other inside one run, where the machine is what it is.
    let s = &untraced.raw_samples;
    put_quantile(&mut v, "raw.fill_ack_p50_us", &s.fill_ack, 0.5);
    put_quantile(&mut v, "raw.vote_ack_p50_us", &s.vote_ack, 0.5);
    put_quantile(&mut v, "raw.peer_p50_us", &s.peer, 0.5);
    put_quantile(&mut v, "raw.join_p50_us", &s.join, 0.5);
    put(
        &mut v,
        "raw.cpu_us_per_action",
        untraced.per_action(untraced.cpu_ns as f64 / 1e3),
        actions,
    );
    put_quantile(&mut v, "raw.setup_s", &untraced.raw_setup_s, 0.5);
    put_quantile(&mut v, "env.speed_factor", &untraced.speed_factors, 0.5);
    let billed: u64 = untraced.bill.cpu_ns.iter().sum();
    put(
        &mut v,
        "ledger.cpu_coverage_pct",
        billed as f64 / untraced.cpu_ns.max(1) as f64 * 100.0,
        actions,
    );
    put_quantile(&mut v, "tail.fill_ack_p90_us", &s.fill_ack, 0.9);
    put_quantile(&mut v, "tail.fill_ack_p99_us", &s.fill_ack, 0.99);
    put_quantile(&mut v, "tail.vote_ack_p90_us", &s.vote_ack, 0.9);
    put_quantile(&mut v, "tail.peer_p90_us", &s.peer, 0.9);
    put_quantile(&mut v, "tail.join_p90_us", &s.join, 0.9);
    put_quantile(&mut v, "tail.complete_fill_p50_us", &s.complete_fill, 0.5);
    put(
        &mut v,
        "tail.actions_per_s",
        untraced.acked as f64 / (untraced.wall_ns.max(1) as f64 / 1e9),
        actions,
    );
    put(&mut v, "env.steal_share", steal_share_pct, untraced.blocks);
    put(
        &mut v,
        "env.clean_blocks",
        untraced.blocks as f64,
        untraced.blocks,
    );
    put_quantile(&mut v, "journal.recover_p50_us", &s.recover, 0.5);
    put(
        &mut v,
        "journal.wal_bytes_per_action",
        untraced.per_action(untraced.wal_bytes as f64),
        if journaled { actions } else { 0 },
    );

    let e = &traced.edge;
    put_quantile(&mut v, "client.prepare_us", &e.prepare, 0.5);
    put_quantile(&mut v, "wire.rtt_us", &e.rtt, 0.5);
    put_quantile(&mut v, "client.finish_us", &e.finish, 0.5);
    put_quantile(&mut v, "client.absorb_us", &e.absorb, 0.5);
    put_quantile(&mut v, "wire.bcast_gap_us", &e.bcast_gap, 0.5);
    put_quantile(&mut v, "join.connect_us", &e.join_connect, 0.5);
    put_quantile(&mut v, "join.handshake_us", &e.join_handshake, 0.5);
    put_quantile(&mut v, "join.rebuild_us", &e.join_rebuild, 0.5);
    put_quantile(&mut v, "net.welcome_bytes", &e.welcome_bytes, 0.5);
    let traced_actions = traced.acked as usize;
    for (name, total) in [
        ("net.bytes_out_per_action", traced.bytes_out),
        ("net.bytes_in_per_action", traced.bytes_in),
        ("net.frames_in_per_action", traced.frames_in),
    ] {
        put(
            &mut v,
            name,
            traced.per_action(total as f64),
            traced_actions,
        );
    }

    for (name, _unit, value, n) in layers {
        put(&mut v, name, *value, *n);
    }

    // The ack path of a plain fill, outside in: the client prepares and
    // sends, the frame is cut from the stream, parsed and decoded, the
    // batch pipeline admits, applies (and, when journaled, appends) and
    // replies, the ack frame travels back, the client finishes.
    let get = |name: &str| v.get(name).map_or(0.0, |(value, _)| *value);
    let attributed = get("client.prepare_us")
        + 2.0 * get("net.frame_us")
        + get("docstore.parse_us")
        + get("wire.decode_us")
        + get("batch.submit_us")
        + if journaled {
            get("docstore.wal_append_us")
        } else {
            0.0
        }
        + get("client.finish_us");
    let fill_ack = median(&s.fill_ack);
    let traced_fill_ack = median(&traced.raw_samples.fill_ack);
    put(&mut v, "ledger.attributed_us", attributed, s.fill_ack.len());
    put(
        &mut v,
        "ledger.unattributed_us",
        fill_ack - attributed,
        s.fill_ack.len(),
    );
    put(
        &mut v,
        "trace.overhead_pct",
        if fill_ack > 0.0 {
            (traced_fill_ack / fill_ack - 1.0) * 100.0
        } else {
            0.0
        },
        traced.raw_samples.fill_ack.len(),
    );
    v
}

fn in_order(defs: Vec<MetricDef>, values: &Values) -> Vec<Metric> {
    defs.into_iter()
        .map(|d| {
            let (value, n) = values.get(&d.name).copied().unwrap_or((0.0, 0));
            Metric {
                name: d.name,
                unit: d.unit,
                value: if value.is_finite() { value } else { 0.0 },
                n,
            }
        })
        .collect()
}

fn write_spans(path: &Path, spans: &[&Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            r#"{{"id":{},"parent":{},"action":{},"name":"{}","start_us":{:.3},"end_us":{:.3}}}"#,
            s.id, s.parent, s.action, s.name, s.start_us, s.end_us
        )?;
    }
    out.flush()
}

fn write_layers(path: &Path, opts: &RunOptions, metrics: &[Metric]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(
        out,
        r#"{{"workload":"{}","seed":{},"layers":["#,
        opts.workload.spec().name,
        opts.seed
    )?;
    for (i, m) in metrics.iter().enumerate() {
        let comma = if i + 1 < metrics.len() { "," } else { "" };
        writeln!(
            out,
            r#"  {{"name":"{}","unit":"{}","value":{},"n":{}}}{comma}"#,
            m.name, m.unit, m.value, m.n
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

/// Where journaled collections live: a directory of this run on tmpfs
/// (`/dev/shm`) when there is one to write to, else under `out_dir`. On a
/// disk, fsync bills the device and the host's other tenants — block
/// medians of one binary moved by a fifth between runs on ext4 here — and
/// the journaling *code* is what this benchmark can resolve.
fn journal_root(opts: &RunOptions) -> PathBuf {
    let name = format!(
        "crowdfill-e2e-{}-{}",
        opts.workload.spec().name,
        std::process::id()
    );
    let shm = Path::new("/dev/shm").join(&name);
    if std::fs::create_dir_all(&shm).is_ok() {
        shm
    } else {
        opts.out_dir.join(name)
    }
}

/// Runs the workload and computes its report. Prints nothing.
pub fn run(opts: &RunOptions) -> RunReport {
    let spec = opts.workload.spec();
    let journal_root = journal_root(opts);
    let ctx = RunContext::new(opts.workload, opts.seed, journal_root.clone());
    let steal0 = procfs::steal_ticks();
    let start = Instant::now();
    let mut untraced: Vec<BlockOutcome> = Vec::new();
    let mut traced: Vec<BlockOutcome> = Vec::new();
    let mut capture = None;
    let mut errors = Vec::new();

    for block in 0u64.. {
        let done = match opts.budget {
            Budget::Blocks(n) => block >= n,
            Budget::Seconds(s) => start.elapsed().as_secs_f64() >= s && block >= MIN_BLOCKS,
        };
        if done {
            break;
        }
        // Traced and untraced blocks alternate, so drift in the machine
        // lands on both sides of `trace.overhead_pct`.
        let is_traced = opts.trace && block % 2 == 1;
        let mode = BlockMode {
            traced: is_traced,
            capture: is_traced && capture.is_none(),
            ledger: opts.trace && !is_traced,
        };
        let mut outcome = run_block(&ctx, block, mode);
        if let Some(e) = &outcome.error {
            errors.push(format!("block {block}: {e}"));
        }
        if mode.capture {
            if let Some(t) = &mut outcome.trace {
                capture = Some((std::mem::take(&mut t.steps), t.welcome_frame.take()));
            }
        }
        if is_traced {
            traced.push(outcome);
        } else {
            untraced.push(outcome);
        }
    }
    let wall_s = start.elapsed().as_secs_f64();
    let steal_ticks = match (steal0, procfs::steal_ticks()) {
        (Some(a), Some(b)) => Some(b.saturating_sub(a)),
        _ => None,
    };

    let every = || untraced.iter().chain(&traced);
    let attempted: u64 = every().map(|b| b.scripted).sum();
    let failed: u64 = every()
        .map(|b| {
            if b.correct {
                0
            } else {
                // A block whose oracle missed vouches for none of its acks.
                b.scripted
            }
        })
        .sum();

    let kept = timed_blocks(&untraced);
    let pool = Pool::of(&kept);
    let metrics = if opts.trace {
        let kept_traced = timed_blocks(&traced);
        let traced_pool = Pool::of(&kept_traced);
        let layers = match &capture {
            Some((steps, welcome)) => replay_layers(&ctx, steps, welcome.as_deref(), &journal_root)
                .unwrap_or_else(|e| {
                    errors.push(format!("layer replay: {e}"));
                    Vec::new()
                }),
            None => Vec::new(),
        };
        let cpus = std::thread::available_parallelism().map_or(1, |n| n.get()) as f64;
        let steal_share_pct =
            steal_ticks.map_or(0.0, |t| t as f64 * 0.01 / (wall_s * cpus).max(1e-9) * 100.0);
        let values = per_layer_values(
            &pool,
            &traced_pool,
            &layers,
            spec.journaled,
            steal_share_pct,
        );
        let metrics = in_order(per_layer(), &values);
        let spans: Vec<&Span> = traced
            .iter()
            .filter_map(|b| b.trace.as_ref())
            .flat_map(|t| &t.spans)
            .collect();
        let written = std::fs::create_dir_all(&opts.out_dir)
            .and_then(|_| {
                write_spans(
                    &opts.out_dir.join(format!("trace-{}.jsonl", spec.name)),
                    &spans,
                )
            })
            .and_then(|_| {
                write_layers(
                    &opts.out_dir.join(format!("layers-{}.json", spec.name)),
                    opts,
                    &metrics,
                )
            });
        if let Err(e) = written {
            errors.push(format!("writing trace files: {e}"));
        }
        metrics
    } else {
        in_order(end_to_end(), &end_to_end_values(&pool))
    };
    let _ = std::fs::remove_dir_all(&journal_root);

    RunReport {
        workload: opts.workload,
        metrics,
        attempted,
        failed,
        correct: errors.is_empty() && failed == 0,
        errors,
        blocks: untraced.len() + traced.len(),
        wall_s,
        steal_ticks,
    }
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

/// The run header: what machine, what inputs, and what the numbers below
/// do and do not mean.
pub fn print_header(opts: &RunOptions) {
    let spec = opts.workload.spec();
    println!(
        "# crowdfill-e2e  workload={}  seed={}  trace={}  script_hash={:016x} (first {HASHED_BLOCKS} blocks)",
        spec.name,
        opts.seed,
        opts.trace as u8,
        script_hash(opts.workload, opts.seed, HASHED_BLOCKS),
    );
    println!("# why: {}", spec.why);
    println!(
        "# commit={}  {}",
        command_line("git", &["rev-parse", "--short", "HEAD"]),
        command_line("rustc", &["--version"]),
    );
    println!(
        "# nproc={}  cpu=\"{}\"  kernel={}",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
        procfs::cpu_model(),
        procfs::kernel(),
    );
    println!(
        "# driver: 1 thread, <=2 client connections, closed loop; think time uniform 0-{THINK_MAX_US} us before every timed op (outside every sample); observer polls every {} us, sleeping",
        OBSERVER_POLL.as_micros()
    );
    println!("# product defaults: ServiceOptions::default(), QuorumMajority::of_three(), ReconnectPolicy::default(), DurabilityOptions::default() (fsync Always)");
    println!("# loopback TCP: no link rate or wire latency measured");
    if spec.journaled || opts.trace {
        let root = journal_root(opts);
        let fs = procfs::filesystem_of(&root);
        println!(
            "# journal under {} ({fs}); re-open is stop-and-reopen with a warm page cache, not kill-and-drop-caches",
            root.parent().unwrap_or(&root).display()
        );
        if fs == "tmpfs" {
            println!("# fsync on tmpfs: journaling CPU and syscalls, not a device");
        }
        let _ = std::fs::remove_dir_all(&root);
    }
    println!("# metrics over blocks with steal <= the run's median block steal, after a 10% warm-up; latencies are medians over all samples of a class");
    println!(
        "# gated times are at reference speed: the measured CPU share of each sample is divided by its block's speed factor (hot probe / {PROBE_REF_US} us); raw.* and every layer metric are as the clock read them"
    );
}

/// The metric table, the accounting lines, and the closing JSON line.
pub fn print_report(report: &RunReport) {
    println!("{:<36} {:>14} {:<6} {:>7}", "metric", "value", "unit", "n");
    for m in &report.metrics {
        println!("{:<36} {:>14.4} {:<6} {:>7}", m.name, m.value, m.unit, m.n);
    }
    println!(
        "# {}: {} blocks in {:.2} s wall, steal {} ticks",
        report.workload.spec().name,
        report.blocks,
        report.wall_s,
        report
            .steal_ticks
            .map_or_else(|| "unreadable".to_string(), |t| t.to_string()),
    );
    for e in &report.errors {
        println!("# FAILED {e}");
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .map(|m| {
            format!(
                r#""{}":{{"value":{},"unit":"{}"}}"#,
                m.name, m.value, m.unit
            )
        })
        .collect();
    println!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{{{}}}}}"#,
        report.correct,
        report.attempted.max(1),
        report.failed,
        metrics.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn block(steal: u64, fill: f64) -> BlockOutcome {
        BlockOutcome {
            steal: Some(steal),
            samples: Samples {
                fill_ack: vec![fill],
                ..Samples::default()
            },
            ..BlockOutcome::default()
        }
    }

    #[test]
    fn warm_up_and_dirty_blocks_are_set_aside_by_steal_alone() {
        // Block 0 is warm-up. Of the rest the dirty ones go — including
        // the fastest (steal 9, 1 us): selection never sees a latency.
        let blocks: Vec<BlockOutcome> = [
            (0, 50.0),
            (0, 10.0),
            (9, 1.0),
            (1, 30.0),
            (7, 5.0),
            (0, 20.0),
        ]
        .into_iter()
        .map(|(s, f)| block(s, f))
        .collect();
        let kept: Vec<f64> = timed_blocks(&blocks)
            .iter()
            .map(|b| b.samples.fill_ack[0])
            .collect();
        assert_eq!(kept, vec![10.0, 30.0, 20.0]);
        // A single block is never all warm-up.
        assert_eq!(timed_blocks(&blocks[..1]).len(), 1);
    }

    #[test]
    fn every_defined_metric_gets_a_value() {
        let pool = Pool::default();
        let e2e = end_to_end_values(&pool);
        for d in end_to_end() {
            assert!(e2e.contains_key(&d.name), "{}", d.name);
        }
        let replayed: Vec<Layer> = [
            "docstore.parse_us",
            "wire.decode_us",
            "net.frame_us",
            "wire.encode_us",
            "backend.apply_us",
            "sync.process_us",
            "constraints.pri_us",
            "backend.other_us",
            "client.absorb_apply_us",
            "backend.connect_us",
            "client.rebuild_us",
            "wire.welcome_encode_us",
            "client.welcome_parse_us",
            "client.welcome_decode_us",
            "batch.submit_us",
            "docstore.wal_append_us",
            "docstore.wal_bytes_per_op",
            "docstore.fsyncs_per_op",
            "persist.recover_us",
            "persist.checkpoint_us",
            "persist.snapshot_bytes",
        ]
        .into_iter()
        .map(|n| (n, "us", 1.0, 1))
        .collect();
        let layers = per_layer_values(&pool, &pool, &replayed, true, 0.0);
        for d in per_layer() {
            assert!(layers.contains_key(&d.name), "{}", d.name);
        }
        assert_eq!(layers.len(), per_layer().len());
    }
}
