//! End-to-end query benchmarks: one HD-Index kANN query under the two
//! filter pipelines (the wall-clock counterpart of Fig. 5), plus an HNSW
//! and a linear-scan reference point on the same workload.

use criterion::{criterion_group, criterion_main, Criterion};
use hd_baselines::hnsw::{Hnsw, HnswParams};
use hd_baselines::linear::LinearScan;
use hd_core::dataset::{generate, DatasetProfile};
use hd_index::{HdIndex, HdIndexParams, QueryParams};
use std::hint::black_box;

fn bench_query(c: &mut Criterion) {
    let (data, queries) = generate(&DatasetProfile::SIFT, 10_000, 8, 7);
    let dir = std::env::temp_dir().join(format!("hd_bench_e2e_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let params = HdIndexParams::for_profile(&DatasetProfile::SIFT);
    let index = HdIndex::build(&data, &params, &dir).unwrap();
    let hnsw = Hnsw::build(&data, HnswParams::default());
    let linear = LinearScan::new(&data);

    let mut g = c.benchmark_group("query_sift10k_k10");
    g.sample_size(20);
    let mut qi = 0usize;
    let mut next_q = || {
        qi = (qi + 1) % queries.len();
        queries.get(qi)
    };

    let tri = QueryParams::triangular(1024, 256, 10);
    g.bench_function("hd_index_triangular", |b| {
        b.iter(|| index.knn(black_box(next_q()), &tri).unwrap())
    });
    let pto = QueryParams::ptolemaic(1024, 512, 256, 10);
    g.bench_function("hd_index_ptolemaic", |b| {
        b.iter(|| index.knn(black_box(next_q()), &pto).unwrap())
    });
    g.bench_function("hnsw", |b| b.iter(|| hnsw.knn(black_box(next_q()), 10)));
    g.bench_function("linear_scan", |b| {
        b.iter(|| linear.knn(black_box(next_q()), 10))
    });
    g.finish();
    std::fs::remove_dir_all(dir).ok();
}

criterion_group!(benches, bench_query);
criterion_main!(benches);
