//! Compensation pipeline benchmarks: contribution analysis over the trace,
//! allocation under each scheme (one bench per §5.2.2 scheme), and the
//! online estimator's per-action overhead (§5.3).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use crowdfill_pay::{allocate, analyze, Scheme, SplitConfig};
use crowdfill_sim::{paper_setup, run, RunReport};

fn report(rows: usize) -> RunReport {
    let r = run(paper_setup(2014, rows));
    assert!(r.fulfilled);
    r
}

fn bench_contribution_analysis(c: &mut Criterion) {
    let mut group = c.benchmark_group("pay/analyze");
    for &rows in &[5usize, 10, 20] {
        let r = report(rows);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{}msgs", r.trace.len())),
            &rows,
            |b, _| {
                b.iter(|| black_box(analyze(&r.trace, &r.final_table)));
            },
        );
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
                    black_box(allocate(
                        scheme,
                        10.0,
                        &r.trace,
                        &r.contributions,
                        &r.schema,
                        &SplitConfig::new(),
                    ))
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
    use crowdfill_model::{Message, QuorumMajority, Template};
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
            let mut row_values: std::collections::HashMap<_, crowdfill_model::RowValue> =
                std::collections::HashMap::new();
            for (idx, e) in r.trace.entries().iter().enumerate() {
                let old_value = match &e.msg {
                    Message::Replace { old, .. } => row_values.get(old).cloned(),
                    _ => None,
                };
                match &e.msg {
                    Message::Insert { row } => {
                        row_values.insert(*row, crowdfill_model::RowValue::empty());
                    }
                    Message::Replace { new, value, .. } => {
                        row_values.insert(*new, value.clone());
                    }
                    _ => {}
                }
                replica.process(&e.msg);
                classes.update(replica.table(), &e.msg);
                let view = ProbableView::new(replica.table(), &classes);
                if e.worker.is_none() {
                    continue;
                }
                match (&e.msg, old_value) {
                    (Message::Replace { value, .. }, Some(ov)) => {
                        if let Some(col) = ov.added_column(value) {
                            let v = value.get(col).unwrap().clone();
                            est.on_fill(idx, e, col, &v, view);
                        }
                    }
                    _ => {
                        est.on_action(idx, e, view);
                    }
                }
            }
            black_box(est.raw_totals())
        });
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_contribution_analysis,
    bench_allocation_schemes,
    bench_estimator_throughput
);
criterion_main!(benches);
