//! Ablation bench (DESIGN.md): incremental augmenting-path repair vs full
//! Hopcroft–Karp recomputation for the PRI's bipartite matching. The paper
//! maintains the matching incrementally after each change (§4.2); this
//! bench quantifies why — single-vertex churn repaired incrementally is far
//! cheaper than rebuilding, at every realistic table size.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use crowdfill_matching::{hopcroft_karp, IncrementalMatcher};

/// A random-ish bipartite graph: `t` templates, each its own class, and `p`
/// probable rows, each template adjacent to ~p/4 rows (deterministic hash
/// pattern).
fn build(t: usize, p: usize) -> IncrementalMatcher<usize, usize> {
    let mut m = IncrementalMatcher::new();
    for left in 0..t {
        m.add_left(left, left);
    }
    for right in 0..p {
        m.add_right(
            right,
            (0..t).filter(|left| (left * 7 + right * 13) % 4 == 0),
        );
    }
    m.repair();
    m
}

fn adjacency(t: usize, p: usize) -> Vec<Vec<usize>> {
    (0..t)
        .map(|left| {
            (0..p)
                .filter(|right| (left * 7 + right * 13) % 4 == 0)
                .collect()
        })
        .collect()
}

fn bench_incremental_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching/incremental_churn");
    for &(t, p) in &[(10usize, 30usize), (50, 150), (200, 600)] {
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{t}x{p}")),
            &(t, p),
            |b, &(t, p)| {
                let base = build(t, p);
                b.iter_batched(
                    || base.clone(),
                    |mut m| {
                        // One probable row leaves, a replacement arrives: the
                        // per-worker-action churn PRI maintenance sees.
                        m.remove_right(&0);
                        m.add_right(
                            p + 1,
                            (0..t).filter(|left| (left * 7 + (p + 1) * 13) % 4 == 0),
                        );
                        black_box(m.repair());
                    },
                    criterion::BatchSize::SmallInput,
                );
            },
        );
    }
    group.finish();
}

fn bench_full_recompute(c: &mut Criterion) {
    let mut group = c.benchmark_group("matching/hopcroft_karp_rebuild");
    for &(t, p) in &[(10usize, 30usize), (50, 150), (200, 600)] {
        let adj = adjacency(t, p);
        group.bench_with_input(
            BenchmarkId::from_parameter(format!("{t}x{p}")),
            &(t, p),
            |b, &(_, p)| {
                b.iter(|| black_box(hopcroft_karp(&adj, p)));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_incremental_churn, bench_full_recompute);
criterion_main!(benches);
