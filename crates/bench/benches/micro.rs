//! Criterion micro-benchmarks backing the design-choice claims:
//!
//! * Hilbert encode/decode cost (the O(ω·η) term of §3.5.1),
//! * distance kernel throughput,
//! * triangular vs Ptolemaic filter kernels (the ~m/2× CPU gap behind the
//!   1.5–2× query-time difference of §5.2.5),
//! * B+-tree point lookups and cursor scans, including the fwd/bwd lockstep
//!   leaf walk of the candidate stage,
//! * heap block fetches, the refinement stage's 16-page fetch window.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use hd_core::dataset::{generate, DatasetProfile};
use hd_hilbert::HilbertCurve;
use hd_index::filters::{ptolemaic_lb, triangular_lb};
use hd_index::reference::select;
use hd_index::RefSelection;
use std::hint::black_box;

fn bench_hilbert(c: &mut Criterion) {
    let mut g = c.benchmark_group("hilbert");
    g.sample_size(30);
    for (dims, order) in [(16usize, 8u32), (24, 32), (64, 32)] {
        let curve = HilbertCurve::new(dims, order);
        let cells = if order == 32 {
            u32::MAX as u64
        } else {
            (1 << order) - 1
        };
        let point: Vec<u64> = (0..dims).map(|i| (i as u64 * 7919) % (cells + 1)).collect();
        g.bench_function(format!("encode_{dims}d_w{order}"), |b| {
            b.iter(|| curve.encode(black_box(&point)))
        });
        // The build's and the query probe's path: quantize and encode into
        // a reused buffer.
        let floats: Vec<f32> = (0..dims).map(|i| (i * 37 % 256) as f32).collect();
        let mut out = vec![0u8; curve.key_len()];
        g.bench_function(format!("encode_floats_into_{dims}d_w{order}"), |b| {
            b.iter(|| curve.encode_floats_into(black_box(&floats), 0.0, 255.0, &mut out))
        });
        let key = curve.encode(&point);
        g.bench_function(format!("decode_{dims}d_w{order}"), |b| {
            b.iter(|| curve.decode(black_box(&key)))
        });
    }
    g.finish();
}

fn bench_distance(c: &mut Criterion) {
    use hd_core::distance::{l2_sq, l2_sq_batch, l2_sq_bounded};
    let mut g = c.benchmark_group("distance");
    g.sample_size(50);
    for dim in [128usize, 512, 1369] {
        let a: Vec<f32> = (0..dim).map(|i| i as f32 * 0.31).collect();
        let b_: Vec<f32> = (0..dim).map(|i| (dim - i) as f32 * 0.17).collect();
        g.bench_function(format!("l2_sq_{dim}d"), |b| {
            b.iter(|| l2_sq(black_box(&a), black_box(&b_)))
        });
        // Tight bound (1/16 of the true distance): the early-abandon case
        // the refinement pipeline hits once its top-k radius stabilizes.
        let tight = l2_sq(&a, &b_) / 16.0;
        g.bench_function(format!("l2_sq_bounded_tight_{dim}d"), |b| {
            b.iter(|| l2_sq_bounded(black_box(&a), black_box(&b_), black_box(tight)))
        });
        // Infinite bound: the full-evaluation overhead of the bound checks.
        g.bench_function(format!("l2_sq_bounded_full_{dim}d"), |b| {
            b.iter(|| l2_sq_bounded(black_box(&a), black_box(&b_), f32::INFINITY))
        });
    }
    // One heap page of SIFT vectors (8 × 128d), the refinement block shape.
    let q: Vec<f32> = (0..128).map(|i| i as f32 * 0.31).collect();
    let block: Vec<f32> = (0..8 * 128).map(|i| (i % 251) as f32 * 0.5).collect();
    let mut out = Vec::with_capacity(8);
    g.bench_function("l2_sq_batch_8x128d", |b| {
        b.iter(|| l2_sq_batch(black_box(&q), black_box(&block), &mut out))
    });
    g.finish();
}

fn bench_filters(c: &mut Criterion) {
    // m = 10 reference objects, the paper's default.
    let (data, _) = generate(&DatasetProfile::SIFT, 2000, 1, 3);
    let refs = select(&data, 10, RefSelection::Sss { f: 0.3 }, 1);
    let mut qd = Vec::new();
    let mut od = Vec::new();
    refs.distances_to(data.get(0), &mut qd);
    refs.distances_to(data.get(999), &mut od);

    let mut g = c.benchmark_group("filters_m10");
    g.sample_size(50);
    g.bench_function("triangular_lb", |b| {
        b.iter(|| triangular_lb(black_box(&qd), black_box(&od)))
    });
    g.bench_function("ptolemaic_lb", |b| {
        b.iter(|| ptolemaic_lb(black_box(&qd), black_box(&od), black_box(&refs)))
    });
    g.finish();
}

fn bench_btree(c: &mut Criterion) {
    use hd_btree::BTree;
    use hd_storage::{BufferPool, Pager};
    use std::sync::Arc;

    let dir = std::env::temp_dir().join("hd_bench_btree");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("bench_{}", std::process::id()));
    let pager = Pager::create(&path).unwrap();
    let pool = Arc::new(BufferPool::new(pager, 4096));
    let mut tree = BTree::create(Arc::clone(&pool), 8, 8).unwrap();
    tree.bulk_load(
        (0..100_000u64).map(|i| (i.to_be_bytes().to_vec(), i.to_le_bytes().to_vec())),
        1.0,
    )
    .unwrap();

    let mut g = c.benchmark_group("btree_100k");
    g.sample_size(50);
    g.bench_function("point_lookup_cached", |b| {
        let mut i = 0u64;
        b.iter(|| {
            i = (i * 2654435761 + 1) % 100_000;
            tree.get(black_box(&i.to_be_bytes())).unwrap()
        })
    });
    g.bench_function("scan_256_from_seek", |b| {
        b.iter_batched(
            || tree.seek(&50_000u64.to_be_bytes()).unwrap(),
            |mut cur| {
                let mut sum = 0u64;
                for _ in 0..256 {
                    if !cur.valid() {
                        break;
                    }
                    sum += cur.value()[0] as u64;
                    cur.advance().unwrap();
                }
                sum
            },
            BatchSize::SmallInput,
        )
    });
    // The candidate stage's walk shape: from one seek, alternate a forward
    // and a backward step, reading every key and value, for 4096 entries.
    g.bench_function("walk_4096_lockstep", |b| {
        b.iter_batched(
            || {
                let fwd = tree.seek(&50_000u64.to_be_bytes()).unwrap();
                let mut bwd = fwd.clone();
                bwd.retreat().unwrap();
                (fwd, bwd)
            },
            |(mut fwd, mut bwd)| {
                let mut sum = 0u64;
                let mut seen = 0;
                while seen < 4096 && (fwd.valid() || bwd.valid()) {
                    if fwd.valid() {
                        sum += u64::from(fwd.key()[7] ^ fwd.value()[0]);
                        seen += 1;
                        fwd.advance().unwrap();
                    }
                    if seen < 4096 && bwd.valid() {
                        sum += u64::from(bwd.key()[7] ^ bwd.value()[0]);
                        seen += 1;
                        bwd.retreat().unwrap();
                    }
                }
                sum
            },
            BatchSize::SmallInput,
        )
    });
    g.finish();
    std::fs::remove_file(path).ok();
}

fn bench_heap(c: &mut Criterion) {
    use hd_storage::VectorHeap;

    let dir = std::env::temp_dir().join("hd_bench_heap");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("bench_{}", std::process::id()));
    // 32768 SIFT-sized vectors: 4096 pages (16 MiB), all cached — larger
    // than a core's L2, like the heap of a real shard.
    const VECTORS: u64 = 32_768;
    let mut heap = VectorHeap::create(&path, 128, 4096).unwrap();
    let rows: Vec<Vec<f32>> = (0..VECTORS)
        .map(|i| (0..128).map(|j| ((i * 131 + j) % 251) as f32).collect())
        .collect();
    heap.append_all(rows.iter().map(Vec::as_slice)).unwrap();
    drop(rows);

    let mut g = c.benchmark_group("heap");
    g.sample_size(50);
    // One refinement fetch window: 18 sorted candidates on 16 heap pages
    // spread over the file (two pages hold two). Every call draws a fresh
    // window from the whole heap, so, as in refinement, the lines mostly
    // start outside the core's private caches.
    let pages = VECTORS / 8;
    let mut state = 1u64;
    let mut arena = Vec::new();
    g.bench_function("block_fetch_16_pages", |b| {
        b.iter(|| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let base = state >> 40;
            let mut ids: Vec<u64> = (0..16u64)
                .map(|p| ((base + p * 257) % pages) * 8 + (base + p) % 8)
                .collect();
            ids.push(ids[3] ^ 1);
            ids.push(ids[11] ^ 1);
            ids.sort_unstable();
            heap.get_block_into(black_box(&ids), &mut arena).unwrap();
            arena[0]
        })
    });
    g.finish();
    std::fs::remove_file(path).ok();
}

criterion_group!(
    benches,
    bench_hilbert,
    bench_distance,
    bench_filters,
    bench_btree,
    bench_heap
);
criterion_main!(benches);
