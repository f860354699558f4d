//! Compensation pipeline benchmarks: the settlement ledger's fold over a
//! run's op log and its contribution analysis, allocation under each scheme
//! (one bench per §5.2.2 scheme), and the online estimator's per-action
//! overhead (§5.3).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use crowdfill_pay::{allocate, Ledger, Scheme, SplitConfig};
use crowdfill_sim::{paper_setup, run, RunReport};

fn report(rows: usize) -> RunReport {
    let r = run(paper_setup(2014, rows));
    assert!(r.fulfilled);
    r
}

/// The ledger folded over the whole of a run's log.
fn fold(r: &RunReport) -> Ledger {
    let mut ledger = Ledger::default();
    for (seq, e) in (0..).zip(r.trace.entries()) {
        ledger.advance(seq, e);
    }
    ledger
}

fn bench_ledger(c: &mut Criterion) {
    let mut group = c.benchmark_group("pay/ledger");
    for &rows in &[5usize, 10, 20] {
        let r = report(rows);
        let msgs = r.trace.len();
        group.bench_function(format!("fold/{msgs}msgs"), |b| {
            b.iter(|| black_box(fold(&r)));
        });
        let ledger = fold(&r);
        assert_eq!(ledger.contributions(&r.final_table), r.contributions);
        group.bench_function(format!("contributions/{msgs}msgs"), |b| {
            b.iter(|| black_box(ledger.contributions(&r.final_table)));
        });
    }
    group.finish();
}

fn bench_allocation_schemes(c: &mut Criterion) {
    let r = report(20);
    let mut group = c.benchmark_group("pay/allocate");
    for scheme in Scheme::ALL {
        group.bench_with_input(
            BenchmarkId::from_parameter(scheme.name()),
            &scheme,
            |b, &scheme| {
                b.iter(|| {
                    let split = SplitConfig::new();
                    black_box(allocate(scheme, 10.0, &r.contributions, &r.schema, &split))
                });
            },
        );
    }
    group.finish();
}

fn bench_estimator_throughput(c: &mut Criterion) {
    // Replay a full run's trace through a fresh estimator, measuring the
    // end-to-end per-action estimation cost (including probable-row
    // recomputation against the evolving table).
    use crowdfill_constraints::{Classifier, ProbableView};
    use crowdfill_model::{QuorumMajority, Template};
    use crowdfill_pay::Estimator;
    use crowdfill_sync::Replica;
    use std::sync::Arc;

    let r = report(10);
    let mut group = c.benchmark_group("pay/estimator_replay");
    group.bench_function(format!("{}msgs", r.trace.len()), |b| {
        b.iter(|| {
            let mut est = Estimator::new(
                Scheme::DualWeighted,
                10.0,
                Arc::clone(&r.schema),
                Arc::new(QuorumMajority::of_three()),
                &Template::cardinality(10),
            );
            let mut replica =
                Replica::new(crowdfill_model::ClientId(u32::MAX), Arc::clone(&r.schema));
            let mut classes = Classifier::new(
                Arc::clone(&r.schema),
                Arc::new(QuorumMajority::of_three()),
                replica.table(),
            );
            for (seq, e) in (0..).zip(r.trace.entries()) {
                replica.process(&e.msg);
                classes.update(replica.table(), &e.msg);
                let view = ProbableView::new(replica.table(), &classes);
                est.on_action(seq, e, view);
            }
            black_box(est.raw_totals())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_ledger,
    bench_allocation_schemes,
    bench_estimator_throughput
);
criterion_main!(benches);
