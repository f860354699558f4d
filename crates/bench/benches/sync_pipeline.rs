//! Throughput bench for the batched apply pipeline: one recorded collection
//! run replayed through `Backend::submit_batch` across a batch-size sweep,
//! with and without an attached history journal. The journaled sweep is the
//! headline: under `FsyncPolicy::EveryN(1)` a batch pays one fsync however
//! many ops it carries, so throughput scales with batch size until the
//! in-memory apply cost dominates.
//!
//! `bench-report` (src/bin/bench_report.rs) measures the same sweep without
//! criterion and writes the machine-readable `BENCH_sync.json` CI consumes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use crowdfill_bench::workload::{record_fill_workload, replay_batched, replay_singleton};
use crowdfill_docstore::{FsyncPolicy, Wal};

const ROWS: usize = 48;
const WORKERS: usize = 4;

fn temp_wal(tag: &str) -> (std::path::PathBuf, Wal) {
    let path = std::env::temp_dir().join(format!(
        "crowdfill-bench-{tag}-{}-{}.wal",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .unwrap()
            .as_nanos()
    ));
    let wal = Wal::open_with(&path, FsyncPolicy::EveryN(1), |_| {}).unwrap();
    (path, wal)
}

fn bench_batched_apply(c: &mut Criterion) {
    let jobs = record_fill_workload(ROWS, ROWS, WORKERS);

    let mut group = c.benchmark_group("sync_pipeline/apply");
    group.bench_function("singleton", |b| {
        b.iter(|| replay_singleton(&jobs, ROWS, WORKERS, None));
    });
    for batch in [1usize, 8, 32, 128] {
        group.bench_with_input(BenchmarkId::new("batch", batch), &batch, |b, &batch| {
            b.iter(|| replay_batched(&jobs, ROWS, WORKERS, batch, None));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("sync_pipeline/apply_journaled");
    group.bench_function("singleton", |b| {
        b.iter(|| {
            let (path, wal) = temp_wal("single");
            let backend = replay_singleton(&jobs, ROWS, WORKERS, Some(wal));
            drop(backend);
            std::fs::remove_file(path).ok();
        });
    });
    for batch in [8usize, 32, 128] {
        group.bench_with_input(BenchmarkId::new("batch", batch), &batch, |b, &batch| {
            b.iter(|| {
                let (path, wal) = temp_wal("batch");
                let backend = replay_batched(&jobs, ROWS, WORKERS, batch, Some(wal));
                drop(backend);
                std::fs::remove_file(path).ok();
            });
        });
    }
    group.finish();
}

/// Tracing overhead on the batched apply path: off (the disabled-branch
/// hot path the ≤2% gate compares against the pre-tracing baseline),
/// sampled 1-in-64, and every-op. The workload is re-recorded per mode
/// because jobs mint their trace ids at record time.
fn bench_trace_overhead(c: &mut Criterion) {
    use crowdfill_obs::trace::{self as obstrace, TraceMode};
    let before = obstrace::mode();
    let mut group = c.benchmark_group("sync_pipeline/trace_overhead");
    for (label, mode) in [
        ("off", TraceMode::Off),
        ("sampled64", TraceMode::Sampled(64)),
        ("all", TraceMode::All),
    ] {
        obstrace::set_mode(mode);
        let jobs = record_fill_workload(ROWS, ROWS, WORKERS);
        group.bench_function(label, |b| {
            b.iter(|| replay_batched(&jobs, ROWS, WORKERS, 32, None));
        });
    }
    obstrace::set_mode(before);
    group.finish();
}

criterion_group!(benches, bench_batched_apply, bench_trace_overhead);
criterion_main!(benches);
