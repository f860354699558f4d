//! One bench per paper figure/table: times the regeneration pipeline of each
//! §6 artifact at reduced scale (the full-scale regenerations are the
//! `src/bin/` binaries; these benches keep every experiment path exercised
//! and timed under `cargo bench`).
//!
//! * `e1_effectiveness` — a full simulated collection run (the table behind
//!   E1/E2's summary rows).
//! * `e3_fig5_estimates` — run + raw/corrected estimate aggregation (Fig 5).
//! * `e4_mape_by_scheme` — one run per scheme with MAPE computation.
//! * `e5_scheme_comparison` — reallocation of one trace under all schemes.
//! * `e6_fig6_earning_rates` — earning-curve + instability computation (Fig 6).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use crowdfill_pay::{earning_curve, earning_instability, mape, Scheme};
use crowdfill_sim::{paper_setup, run};

const ROWS: usize = 5; // reduced scale for bench iterations

fn bench_e1(c: &mut Criterion) {
    c.bench_function("experiments/e1_effectiveness", |b| {
        b.iter(|| {
            let r = run(paper_setup(2014, ROWS));
            black_box((r.fulfilled, r.candidate_rows, r.final_table.len()))
        });
    });
}

fn bench_e3(c: &mut Criterion) {
    let r = run(paper_setup(2014, ROWS));
    c.bench_function("experiments/e3_fig5_estimates", |b| {
        b.iter(|| {
            let pairs: Vec<(f64, f64)> = r
                .payout
                .per_worker
                .iter()
                .map(|(w, a)| (*a, r.estimates_raw.get(w).copied().unwrap_or(0.0)))
                .collect();
            black_box(mape(&pairs))
        });
    });
}

fn bench_e4(c: &mut Criterion) {
    c.bench_function("experiments/e4_mape_by_scheme", |b| {
        b.iter(|| {
            let mut out = Vec::new();
            for scheme in Scheme::ALL {
                let r = run(paper_setup(7, ROWS).with_scheme(scheme));
                let pairs: Vec<(f64, f64)> = r
                    .payout
                    .per_worker
                    .iter()
                    .map(|(w, a)| (*a, r.estimates_raw.get(w).copied().unwrap_or(0.0)))
                    .collect();
                out.push(mape(&pairs));
            }
            black_box(out)
        });
    });
}

fn bench_e5(c: &mut Criterion) {
    let r = run(paper_setup(2014, ROWS));
    c.bench_function("experiments/e5_scheme_comparison", |b| {
        b.iter(|| {
            let u = r.reallocate(Scheme::Uniform);
            let cw = r.reallocate(Scheme::ColumnWeighted);
            let d = r.reallocate(Scheme::DualWeighted);
            black_box((u.total_paid(), cw.total_paid(), d.total_paid()))
        });
    });
}

fn bench_e6(c: &mut Criterion) {
    let r = run(paper_setup(2014, ROWS));
    let uniform = r.reallocate(Scheme::Uniform);
    let dual = r.reallocate(Scheme::DualWeighted);
    c.bench_function("experiments/e6_fig6_earning_rates", |b| {
        b.iter(|| {
            let mut total = 0.0;
            for w in r.payout.per_worker.keys() {
                total += earning_instability(&earning_curve(&uniform, *w));
                total += earning_instability(&earning_curve(&dual, *w));
            }
            black_box(total)
        });
    });
}

fn config() -> Criterion {
    // Full simulation runs are heavy; keep sampling modest.
    Criterion::default().sample_size(10)
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench_e1, bench_e3, bench_e4, bench_e5, bench_e6
}
criterion_main!(benches);
