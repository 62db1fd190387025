//! Conformance suite for the unified `AnnIndex` trait, run over **every**
//! method in the bench registry: HD-Index, the serving engine, and all ten
//! baselines plus the exact references.
//!
//! Contracts checked per method:
//!
//! * result lists are sorted by (distance, id) — the deterministic
//!   tie-breaking of `Neighbor`'s `Ord` — with no duplicate ids;
//! * `search_batch` ≡ sequential `search` (bitwise, including the engine's
//!   true batched override);
//! * exact methods achieve recall 1.0 against brute-force ground truth at
//!   small scale;
//! * `stats()` reports a non-zero footprint after build;
//! * edge cases normalized at the trait boundary: `k == 0` → empty,
//!   `k > n` → capped at n (all n for exact methods), `n == 1` works, and
//!   an index built over an empty corpus (where buildable) answers empty.

use hd_bench::methods::{registry, MethodSpec, Workload};
use hd_core::api::{AnnIndex, SearchRequest};
use hd_core::dataset::DatasetProfile;
use hd_core::ground_truth::knn_exact;
use hd_core::metric::Metric;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;

fn scratch(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir()
        .join("hd_conformance")
        .join(format!("{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn build<'a>(
    spec: &MethodSpec,
    w: &'a Workload,
    dir: &'a Path,
) -> io::Result<Box<dyn AnnIndex + 'a>> {
    (spec.build)(w, dir)
}

/// Sorted by (dist, id), no duplicate ids.
fn assert_well_formed(method: &str, out: &[hd_core::Neighbor]) {
    let mut seen = std::collections::HashSet::new();
    for n in out {
        assert!(
            seen.insert(n.id),
            "{method}: duplicate id {} in results",
            n.id
        );
    }
    for pair in out.windows(2) {
        assert!(
            (pair[0].dist, pair[0].id) < (pair[1].dist, pair[1].id),
            "{method}: results not in (distance, id) order: {:?} then {:?}",
            pair[0],
            pair[1]
        );
    }
}

#[test]
fn every_registered_method_honors_the_search_contract() {
    let k = 10;
    let w = Workload::new("conf", DatasetProfile::SIFT, 300, 5, 7);
    let queries: Vec<&[f32]> = w.queries.iter().collect();

    for spec in registry() {
        let dir = scratch(spec.name);
        let index =
            build(spec, &w, &dir).unwrap_or_else(|e| panic!("{}: build failed: {e}", spec.name));
        assert_eq!(index.len(), 300, "{}", spec.name);
        assert_eq!(index.dim(), w.data.dim(), "{}", spec.name);

        // Non-zero footprint after build.
        let stats = index.stats();
        assert!(
            stats.disk_bytes > 0 || stats.memory_bytes > 0,
            "{}: stats() reports no footprint at all",
            spec.name
        );
        assert!(
            stats.build_memory_bytes > 0,
            "{}: no build memory estimate",
            spec.name
        );

        let req = SearchRequest::new(k);
        let sequential: Vec<_> = queries
            .iter()
            .map(|q| {
                index
                    .search(q, &req)
                    .unwrap_or_else(|e| panic!("{}: {e}", spec.name))
            })
            .collect();

        for out in &sequential {
            assert_eq!(out.neighbors.len(), k, "{}: wrong result count", spec.name);
            assert_well_formed(spec.name, &out.neighbors);
        }

        // search_batch ≡ sequential search (covers the engine's true batch
        // override as well as the default implementation).
        let batch = index
            .search_batch(&queries, &req)
            .unwrap_or_else(|e| panic!("{}: batch: {e}", spec.name));
        assert_eq!(batch.len(), sequential.len(), "{}", spec.name);
        for (qi, (b, s)) in batch.iter().zip(&sequential).enumerate() {
            assert_eq!(
                b.neighbors, s.neighbors,
                "{}: batch result diverges from sequential search on query {qi}",
                spec.name
            );
        }

        // Exact methods: recall 1.0 (id-identical to brute force; both
        // sides share the deterministic (dist, id) ordering).
        if spec.exact {
            for (q, out) in queries.iter().zip(&sequential) {
                let truth = knn_exact(&w.data, q, k);
                let truth_ids: Vec<u64> = truth.iter().map(|n| n.id).collect();
                let got_ids: Vec<u64> = out.neighbors.iter().map(|n| n.id).collect();
                assert_eq!(got_ids, truth_ids, "{}: not exact", spec.name);
            }
        }

        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn k_edge_cases_are_normalized_at_the_trait_boundary() {
    let n = 40;
    let w = Workload::new("edge", DatasetProfile::GLOVE, n, 3, 11);
    let queries: Vec<&[f32]> = w.queries.iter().collect();

    for spec in registry() {
        let dir = scratch(&format!("edge_{}", spec.name));
        let index =
            build(spec, &w, &dir).unwrap_or_else(|e| panic!("{}: build failed: {e}", spec.name));

        // k == 0 → empty result, never an error or a silent clamp to 1.
        for q in &queries {
            let out = index.search(q, &SearchRequest::new(0)).unwrap();
            assert!(
                out.neighbors.is_empty(),
                "{}: k=0 must yield nothing",
                spec.name
            );
        }

        // Absurd budget overrides must clamp, not overflow or pre-allocate
        // by the raw request.
        let req = SearchRequest::new(3)
            .with_candidates(usize::MAX)
            .with_refine(usize::MAX);
        let out = index.search(queries[0], &req).unwrap();
        assert_eq!(
            out.neighbors.len(),
            3,
            "{}: huge budgets broke search",
            spec.name
        );

        // k > n → capped at n; exact methods return all n.
        let out = index
            .search(queries[0], &SearchRequest::new(n + 25))
            .unwrap();
        assert!(
            out.neighbors.len() <= n,
            "{}: returned more than n results",
            spec.name
        );
        assert_well_formed(spec.name, &out.neighbors);
        if spec.exact {
            assert_eq!(
                out.neighbors.len(),
                n,
                "{}: exact method must return all n",
                spec.name
            );
        } else {
            assert!(
                !out.neighbors.is_empty(),
                "{}: k>n returned nothing",
                spec.name
            );
        }

        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn single_point_corpora_are_searchable() {
    let w = Workload::new("one", DatasetProfile::SIFT, 1, 2, 13);
    for spec in registry() {
        let dir = scratch(&format!("one_{}", spec.name));
        let index = build(spec, &w, &dir)
            .unwrap_or_else(|e| panic!("{}: build failed on n=1: {e}", spec.name));
        assert_eq!(index.len(), 1, "{}", spec.name);
        for k in [1usize, 3] {
            let out = index
                .search(w.queries.get(0), &SearchRequest::new(k))
                .unwrap();
            assert_eq!(
                out.neighbors.len(),
                1,
                "{}: n=1, k={k} must return the single point",
                spec.name
            );
            assert_eq!(out.neighbors[0].id, 0, "{}", spec.name);
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}

#[test]
fn empty_corpora_answer_empty_where_buildable() {
    let profile = DatasetProfile::SIFT;
    let w = Workload {
        name: "empty".into(),
        profile,
        data: hd_core::Dataset::new(profile.dim),
        queries: hd_core::dataset::generate(&profile, 0, 2, 17).1,
        metric: Metric::L2,
    };
    let mut buildable = 0usize;
    for spec in registry() {
        let dir = scratch(&format!("empty_{}", spec.name));
        // Most builds (correctly) refuse an empty corpus with an assert or
        // an Err; methods that *can* represent emptiness must answer empty
        // through the trait boundary instead of panicking in search.
        let built = catch_unwind(AssertUnwindSafe(|| build(spec, &w, &dir)));
        if let Ok(Ok(index)) = built {
            buildable += 1;
            assert_eq!(index.len(), 0, "{}", spec.name);
            for k in [0usize, 1, 5] {
                let out = index
                    .search(w.queries.get(0), &SearchRequest::new(k))
                    .unwrap();
                assert!(
                    out.neighbors.is_empty(),
                    "{}: empty index, k={k}",
                    spec.name
                );
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }
    // The in-memory references handle emptiness today (kd-tree, linear
    // scan, HNSW); keep that floor from regressing.
    assert!(buildable >= 3, "only {buildable} methods still build empty");
}

/// Every registry entry × every metric it declares: builds, reports the
/// metric through the trait, honors the (dist, id) ordering and the
/// batch ≡ sequential contract, and — for exact methods — achieves recall
/// 1.0 against the metric-aware brute-force ground truth (the ISSUE's
/// "exact methods must hit recall 1.0 under L1 and cosine", extended to
/// every declared metric including dot).
#[test]
fn every_method_honors_its_declared_metrics() {
    let k = 10;
    for spec in registry() {
        for &metric in spec.supported_metrics {
            if metric == Metric::L2 {
                continue; // the L2 leg is the main conformance test above
            }
            let w = Workload::with_metric(
                format!("conf_{}", metric),
                DatasetProfile::GLOVE,
                250,
                4,
                29,
                metric,
            );
            let queries: Vec<&[f32]> = w.queries.iter().collect();
            let dir = scratch(&format!("m_{}_{}", spec.name, metric));
            let index = build(spec, &w, &dir)
                .unwrap_or_else(|e| panic!("{} under {metric}: build failed: {e}", spec.name));
            assert_eq!(index.metric(), metric, "{}: metric() disagrees", spec.name);
            assert_eq!(
                index.stats().metric,
                metric,
                "{}: stats().metric disagrees",
                spec.name
            );

            // A request pinned to the right metric passes; the wrong one
            // is refused at the trait boundary — on the sequential path
            // *and* on search_batch (the engine's true batched override
            // must apply the same guard as the provided default).
            let req = SearchRequest::new(k).with_metric(metric);
            let wrong = Metric::ALL.iter().copied().find(|&m| m != metric).unwrap();
            let wrong_req = SearchRequest::new(k).with_metric(wrong);
            let err = index.search(queries[0], &wrong_req).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{}", spec.name);
            let err = index.search_batch(&queries, &wrong_req).unwrap_err();
            assert_eq!(
                err.kind(),
                io::ErrorKind::InvalidInput,
                "{}: batch path must refuse mismatched metrics too",
                spec.name
            );

            let sequential: Vec<_> = queries
                .iter()
                .map(|q| {
                    index
                        .search(q, &req)
                        .unwrap_or_else(|e| panic!("{} under {metric}: {e}", spec.name))
                })
                .collect();
            for out in &sequential {
                assert_eq!(out.neighbors.len(), k, "{} under {metric}", spec.name);
                assert_well_formed(spec.name, &out.neighbors);
            }
            let batch = index.search_batch(&queries, &req).unwrap();
            for (qi, (b, s)) in batch.iter().zip(&sequential).enumerate() {
                assert_eq!(
                    b.neighbors, s.neighbors,
                    "{} under {metric}: batch diverges on query {qi}",
                    spec.name
                );
            }
            if spec.exact {
                for (q, out) in queries.iter().zip(&sequential) {
                    let truth_ids: Vec<u64> =
                        knn_exact(&w.data, q, k).iter().map(|n| n.id).collect();
                    let got_ids: Vec<u64> = out.neighbors.iter().map(|n| n.id).collect();
                    assert_eq!(
                        got_ids, truth_ids,
                        "{} under {metric}: exact method lost recall",
                        spec.name
                    );
                }
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Unsupported (method, metric) pairs must refuse cleanly — an `Err` from
/// the builder, never a wrong-distance index and never a panic.
#[test]
fn undeclared_metrics_are_refused_cleanly() {
    for spec in registry() {
        for metric in Metric::ALL {
            if spec.supports(metric) {
                continue;
            }
            let w = Workload::with_metric(
                format!("refuse_{}", metric),
                DatasetProfile::GLOVE,
                60,
                1,
                37,
                metric,
            );
            let dir = scratch(&format!("refuse_{}_{}", spec.name, metric));
            // Engine/kd-tree surface the refusal as a panic-free Err where
            // the build returns Result; reference-selection asserts are
            // also acceptable refusals — what is *not* acceptable is a
            // successfully built index serving the wrong metric.
            let outcome = catch_unwind(AssertUnwindSafe(|| build(spec, &w, &dir)));
            if let Ok(Ok(index)) = outcome {
                panic!(
                    "{} built under undeclared metric {metric} (serves {})",
                    spec.name,
                    index.metric()
                );
            }
            std::fs::remove_dir_all(&dir).ok();
        }
    }
}

/// Cosine-via-normalization must rank identically to a brute-force cosine
/// scan over the *raw* vectors — the reduction's whole claim. Property
/// test over random raw datasets and queries; ranking comparisons tolerate
/// floating-point near-ties by checking distances, not positions.
mod cosine_reduction_property {
    use super::Metric;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn cosine_normalization_ranks_like_a_raw_cosine_scan(
            dim in 4usize..=12,
            n in 30usize..=80,
            seed in 0u64..1_000_000,
        ) {
            let raw = hd_core::dataset::generate_uniform(dim, -5.0, 5.0, n + 1, seed);
            // Last generated row doubles as the query; the rest is corpus.
            let query = raw.get(n).to_vec();
            let mut corpus = hd_core::Dataset::new(dim);
            for i in 0..n {
                corpus.push(raw.get(i));
            }

            // Brute-force cosine over the raw, unnormalized vectors, in f64.
            let cos = |a: &[f32], b: &[f32]| -> f64 {
                let (mut dot, mut na, mut nb) = (0f64, 0f64, 0f64);
                for (x, y) in a.iter().zip(b) {
                    dot += *x as f64 * *y as f64;
                    na += *x as f64 * *x as f64;
                    nb += *y as f64 * *y as f64;
                }
                1.0 - dot / (na.sqrt() * nb.sqrt()).max(1e-300)
            };
            let mut want: Vec<(f64, u64)> = (0..n)
                .map(|i| (cos(&query, corpus.get(i)), i as u64))
                .collect();
            want.sort_by(|a, b| a.partial_cmp(b).unwrap());

            // The normalized-L2 path, through the real index machinery.
            let data = corpus.clone().with_metric(Metric::Cosine);
            let scan = hd_baselines::LinearScan::new(&data);
            let got = scan.knn(&query, n);

            prop_assert_eq!(got.len(), n);
            for (rank, nb) in got.iter().enumerate() {
                let got_cos = cos(&query, corpus.get(nb.id as usize));
                // Identical ranking up to f32 near-ties: the candidate at
                // this rank must have (essentially) the rank-th cosine
                // distance, and the reported distance must *be* 1 − cos.
                prop_assert!(
                    (got_cos - want[rank].0).abs() < 1e-5,
                    "rank {}: cosine {} vs expected {}",
                    rank,
                    got_cos,
                    want[rank].0
                );
                prop_assert!(
                    (nb.dist as f64 - got_cos).abs() < 1e-4,
                    "reported {} is not 1 − cos = {}",
                    nb.dist,
                    got_cos
                );
            }
        }
    }
}

#[test]
fn budget_knobs_reach_the_methods_that_support_them() {
    let w = Workload::new("knob", DatasetProfile::SIFT, 400, 3, 19);
    let dir = scratch("knobs");
    let spec = registry().iter().find(|s| s.name == "hd-index").unwrap();
    let index = build(spec, &w, &dir).unwrap();

    // A wide-open budget must dominate a starved one on candidate volume:
    // with tracing on, κ reflects the per-call γ override.
    let starved = index
        .search(
            w.queries.get(0),
            &SearchRequest::new(5)
                .with_candidates(8)
                .with_refine(8)
                .with_trace(),
        )
        .unwrap();
    let wide = index
        .search(
            w.queries.get(0),
            &SearchRequest::new(5)
                .with_candidates(400)
                .with_refine(400)
                .with_trace(),
        )
        .unwrap();
    let (st, wt) = (starved.trace.expect("trace"), wide.trace.expect("trace"));
    assert!(
        st.kappa < wt.kappa,
        "γ override did not change the refinement volume ({} vs {})",
        st.kappa,
        wt.kappa
    );
    assert!(
        st.scanned < wt.scanned,
        "α override did not change candidate volume"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_stage_times_sum_to_approximately_total() {
    let w = Workload::new("stage_times", DatasetProfile::SIFT, 600, 8, 23);
    let dir = scratch("stage_times");
    let spec = registry().iter().find(|s| s.name == "hd-index").unwrap();
    let index = build(spec, &w, &dir).unwrap();

    // Aggregate over the whole query set: individual queries are microsecond
    // scale where scheduler noise could flip a per-query bound, but the sums
    // must obey the stage accounting.
    let mut staged = 0u64;
    let mut total = 0u64;
    for qi in 0..w.queries.len() {
        let out = index
            .search(w.queries.get(qi), &SearchRequest::new(10).with_trace())
            .unwrap();
        let t = out.trace.expect("hd-index reports traces");
        assert!(t.total_nanos > 0, "query {qi} reported no wall time");
        let sum = t.ref_dist_nanos + t.candidate_nanos + t.refine_nanos;
        assert!(
            sum <= t.total_nanos,
            "query {qi}: stages ({sum} ns) exceed the total they are part of ({} ns)",
            t.total_nanos
        );
        staged += sum;
        total += t.total_nanos;
    }
    // The three stages are the query pipeline; what is left over is
    // normalization + IO accounting. ≥ 50% is a deliberately loose bound
    // (the bench-level telemetry gate enforces ≥ 90% on a release build) —
    // here it only has to prove the fields are wired to real measurements.
    assert!(
        staged * 2 >= total,
        "stage times cover {staged} of {total} ns — accounting is broken"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn wrong_dimension_queries_are_invalid_input() {
    // The HD-Index query pipeline (and the engine, which runs it on pool
    // threads) must refuse a query of the wrong dimensionality with a typed
    // error, not a panic — on the single-query and the batched path. An
    // insert of the wrong dimensionality is refused the same way, before
    // it reserves an id or reaches the WAL.
    let w = Workload::new("wrong_dim", DatasetProfile::SIFT, 200, 2, 41);
    let short = vec![1.0f32; w.data.dim() - 1];
    for name in ["hd-index", "engine"] {
        let dir = scratch(&format!("wrong_dim_{name}"));
        let spec = registry().iter().find(|s| s.name == name).unwrap();
        let mut index = build(spec, &w, &dir).unwrap();
        let err = index.search(&short, &SearchRequest::new(5)).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{name}: {err}");
        assert!(err.to_string().contains("dimensions"), "{name}: {err}");
        let batch = [w.queries.get(0), short.as_slice()];
        let err = index
            .search_batch(&batch, &SearchRequest::new(5))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{name}: {err}");

        let len = index.len();
        let lifecycle = index.lifecycle().unwrap();
        let err = lifecycle.insert(&short).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{name}: {err}");
        assert!(err.to_string().contains("dimensions"), "{name}: {err}");
        assert_eq!(
            lifecycle.len(),
            len,
            "{name}: a refused insert stored nothing"
        );
        let id = lifecycle.insert(w.queries.get(0)).unwrap();
        assert_eq!(id, len, "{name}: the refused insert consumed an id");
        assert_eq!(index.len(), len + 1, "{name}");
        drop(index);
        std::fs::remove_dir_all(&dir).ok();
    }
}
