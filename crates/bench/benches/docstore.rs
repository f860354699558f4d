//! Document-store substrate benchmarks: JSON parse/encode (and the tape
//! parse of a late joiner's welcome), collection inserts and a scan over a
//! field, and WAL append/replay throughput.

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use crowdfill_bench::workload::welcome_frame;
use crowdfill_docstore::{Collection, DocStore, Json, Tape, Wal};

fn doc(i: usize) -> Json {
    Json::obj([
        ("name", Json::str(format!("Player {i}"))),
        ("nationality", Json::str(format!("Country {}", i % 30))),
        ("caps", Json::num((80 + i % 20) as f64)),
        ("active", Json::Bool(i.is_multiple_of(3))),
    ])
}

fn bench_json(c: &mut Criterion) {
    let mut group = c.benchmark_group("docstore/json");
    let value = Json::Arr((0..50).map(doc).collect());
    let text = value.encode();
    group.bench_function("encode_50_docs", |b| b.iter(|| black_box(value.encode())));
    group.bench_function("parse_50_docs", |b| {
        b.iter(|| black_box(Json::parse(&text).unwrap()))
    });
    for rows in [32, 400] {
        let welcome = welcome_frame(rows);
        group.bench_function(format!("parse_welcome_{rows}"), |b| {
            b.iter(|| black_box(Tape::parse(&welcome).unwrap()))
        });
    }
    group.finish();
}

fn bench_collection(c: &mut Criterion) {
    let mut group = c.benchmark_group("docstore/collection");
    for &n in &[100usize, 1000] {
        group.bench_with_input(BenchmarkId::new("insert", n), &n, |b, &n| {
            b.iter(|| {
                let mut coll = Collection::new();
                for i in 0..n {
                    coll.insert(format!("{i:06}"), doc(i)).unwrap();
                }
                black_box(coll.len())
            });
        });

        let mut coll = Collection::new();
        for i in 0..n {
            coll.insert(format!("{i:06}"), doc(i)).unwrap();
        }
        let want = Json::str("Country 7");
        group.bench_with_input(BenchmarkId::new("scan", n), &n, |b, _| {
            b.iter(|| {
                let hits = coll
                    .iter()
                    .filter(|(_, d)| d.get("nationality") == Some(&want));
                black_box(hits.count())
            });
        });
    }
    group.finish();
}

fn bench_wal(c: &mut Criterion) {
    let mut group = c.benchmark_group("docstore/wal");
    group.bench_function("append_1k_records", |b| {
        let path = std::env::temp_dir().join(format!("crowdfill-bench-{}.wal", std::process::id()));
        b.iter(|| {
            let _ = std::fs::remove_file(&path);
            let mut wal = Wal::open(&path, |_| {}).unwrap();
            let payload = doc(1).encode();
            for _ in 0..1000 {
                wal.append(payload.as_bytes()).unwrap();
            }
        });
        let _ = std::fs::remove_file(&path);
    });
    group.bench_function("replay_1k_records", |b| {
        let path =
            std::env::temp_dir().join(format!("crowdfill-bench-replay-{}.wal", std::process::id()));
        let _ = std::fs::remove_file(&path);
        {
            let mut store = DocStore::open(&path).unwrap();
            for i in 0..1000 {
                store.insert("t", format!("{i}"), doc(i)).unwrap();
            }
        }
        b.iter(|| {
            let store = DocStore::open(&path).unwrap();
            black_box(store.collection("t").unwrap().len())
        });
        let _ = std::fs::remove_file(&path);
    });
    group.finish();
}

criterion_group!(benches, bench_json, bench_collection, bench_wal);
criterion_main!(benches);
