//! Microbenchmarks for the observability layer's hot paths.
//!
//! The design goal is that instrumentation sprinkled through sync/net/wal
//! hot loops is effectively free: a counter increment is one relaxed
//! atomic add, a histogram record is three, and a log call below the
//! active level is a single relaxed load. These benches quantify all
//! three so regressions in the "near-zero when disabled" promise show up.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use crowdfill_obs::metrics::{Counter, Histogram};
use crowdfill_obs::{obs_debug, Level, SpanTimer};

fn bench_counter(c: &mut Criterion) {
    let counter = Counter::new();
    c.bench_function("obs/counter_inc", |b| {
        b.iter(|| black_box(&counter).inc());
    });
    c.bench_function("obs/counter_add", |b| {
        b.iter(|| black_box(&counter).add(black_box(7)));
    });
}

fn bench_histogram(c: &mut Criterion) {
    let histogram = Histogram::new();
    let mut v = 0u64;
    c.bench_function("obs/histogram_record", |b| {
        b.iter(|| {
            v = v.wrapping_mul(6364136223846793005).wrapping_add(1);
            black_box(&histogram).record(black_box(v >> 32));
        });
    });
    c.bench_function("obs/span_timer", |b| {
        b.iter(|| drop(SpanTimer::start(black_box(&histogram))));
    });
}

fn bench_disabled_log(c: &mut Criterion) {
    // No sink installed and the global gate left at Off: the call must
    // reduce to one relaxed load plus the branch.
    crowdfill_obs::log::set_level(Level::Off);
    c.bench_function("obs/disabled_log_call", |b| {
        b.iter(|| {
            obs_debug!("bench", "this never renders: {}", black_box(42); key => 1u64);
        });
    });
}

criterion_group!(benches, bench_counter, bench_histogram, bench_disabled_log);
criterion_main!(benches);
