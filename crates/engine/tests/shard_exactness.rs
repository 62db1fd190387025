//! Shard-merge exactness: an S-shard engine must return *identical*
//! `(id, dist)` top-k lists to a single unsharded `HdIndex` with the same
//! parameters, once the candidate stage is saturated.
//!
//! With α, γ ≥ n every tree surfaces every object on both sides, so both
//! the unsharded index and every shard compute exact kNN over their slice —
//! and the engine's merge (global id mapping + bounded-heap union) is the
//! only thing under test. Any off-by-one in the round-robin id arithmetic,
//! a dropped shard, or a tie-break divergence in the merge shows up as a
//! mismatch.

use hd_core::dataset::{generate, DatasetProfile};
use hd_core::topk::Neighbor;
use hd_engine::{Engine, EngineParams};
use hd_index::{HdIndex, HdIndexParams, QueryParams, RefSelection};
use proptest::prelude::*;
use std::path::PathBuf;

fn index_params() -> HdIndexParams {
    HdIndexParams {
        tau: 4,
        hilbert_order: 8,
        num_references: 5,
        ref_selection: RefSelection::Sss { f: 0.3 },
        domain: (0.0, 255.0),
        random_partitioning: None,
        query_cache_pages: 0,
        seed: 7,
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("hd_engine_exactness")
        .join(format!("{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    #[test]
    fn sharded_engine_matches_unsharded_index(seed in 0u64..1_000_000) {
        let n = 400;
        let k = 10;
        let (data, queries) = generate(&DatasetProfile::SIFT, n, 5, seed);
        // Saturating candidate stage: α = γ = n.
        let qp = QueryParams::triangular(n, n, k);
        let dir = scratch(&format!("prop_{seed}"));

        let unsharded = HdIndex::build(&data, &index_params(), dir.join("unsharded")).unwrap();
        let expected: Vec<Vec<Neighbor>> =
            queries.iter().map(|q| unsharded.knn(q, &qp).unwrap()).collect();

        for shards in [1usize, 2, 4] {
            let params = EngineParams {
                shards,
                threads: 4,
                cache_budget_pages: 0,
                build_budget_bytes: 0,
                index: index_params(),
            compaction_threshold: None,
            };
            let engine = Engine::build(&data, &params, dir.join(format!("s{shards}"))).unwrap();
            let answers = engine.search_batch(queries.iter(), &qp).unwrap();
            prop_assert_eq!(
                &answers,
                &expected,
                "S = {} diverged from the unsharded index (seed {})",
                shards,
                seed
            );
        }
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn cosine_engine_matches_exact_cosine_scan_when_saturated() {
    // The metric threads through sharding: a cosine engine (normalized
    // slices, shared cosine reference set, one batch-level query
    // normalization) must reproduce the exact cosine ground truth when the
    // candidate stage is saturated, across shard counts.
    use hd_core::metric::Metric;
    let n = 400;
    let k = 10;
    let (raw, queries) = generate(&DatasetProfile::GLOVE, n, 5, 31);
    let data = raw.with_metric(Metric::Cosine);
    let qp = QueryParams::triangular(n, n, k);
    let dir = scratch("cosine");
    let mut ip = index_params();
    ip.domain = (-1.0, 1.0);

    let expected: Vec<Vec<Neighbor>> = queries
        .iter()
        .map(|q| hd_core::ground_truth::knn_exact(&data, q, k))
        .collect();
    for shards in [1usize, 3] {
        let params = EngineParams {
            shards,
            threads: 4,
            cache_budget_pages: 0,
            build_budget_bytes: 0,
            index: ip.clone(),
            compaction_threshold: None,
        };
        let engine = Engine::build(&data, &params, dir.join(format!("s{shards}"))).unwrap();
        assert_eq!(engine.metric(), Metric::Cosine);
        let answers = engine.search_batch(queries.iter(), &qp).unwrap();
        for (qi, (got, want)) in answers.iter().zip(&expected).enumerate() {
            let got_ids: Vec<u64> = got.iter().map(|nb| nb.id).collect();
            let want_ids: Vec<u64> = want.iter().map(|nb| nb.id).collect();
            assert_eq!(got_ids, want_ids, "S = {shards}, query {qi}");
            for (g, w) in got.iter().zip(want) {
                assert!(
                    (g.dist - w.dist).abs() < 1e-5,
                    "S = {shards}, query {qi}: cosine distance {} vs {}",
                    g.dist,
                    w.dist
                );
            }
        }
    }
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn single_shard_engine_is_identical_even_unsaturated() {
    // With S = 1 the engine wraps the very same index the library would
    // build (same data order, same reference selection seed), so answers
    // must match bit for bit even when α/γ truncate the candidate stage:
    // the engine's prepared query (normalized once, reference distances
    // computed once) must equal what the index computes for itself. L2
    // runs the triangular filter, cosine adds normalization and the
    // Ptolemaic filter, L1 runs the triangular filter in another metric.
    use hd_core::metric::Metric;
    let (raw, queries) = generate(&DatasetProfile::SIFT, 1500, 10, 99);
    for (metric, qp) in [
        (Metric::L2, QueryParams::triangular(128, 32, 10)),
        (Metric::Cosine, QueryParams::ptolemaic(128, 64, 32, 10)),
        (Metric::L1, QueryParams::triangular(128, 32, 10)),
    ] {
        let data = raw.clone().with_metric(metric);
        let dir = scratch(&format!("s1_unsat_{metric}"));
        let index = HdIndex::build(&data, &index_params(), dir.join("plain")).unwrap();
        let engine = Engine::build(
            &data,
            &EngineParams {
                threads: 2,
                ..EngineParams::new(index_params())
            },
            dir.join("engine"),
        )
        .unwrap();

        for q in queries.iter() {
            assert_eq!(
                engine.search(q, &qp).unwrap(),
                index.knn(q, &qp).unwrap(),
                "{metric}: single-shard engine must be a transparent wrapper"
            );
        }
        std::fs::remove_dir_all(dir).ok();
    }
}

#[test]
fn sharded_answers_survive_reopen() {
    let (data, queries) = generate(&DatasetProfile::SIFT, 900, 6, 5);
    let dir = scratch("reopen");
    let params = EngineParams {
        shards: 3,
        threads: 4,
        cache_budget_pages: 0,
        build_budget_bytes: 0,
        index: index_params(),
        compaction_threshold: None,
    };
    let qp = QueryParams::triangular(256, 64, 10);
    let expected = {
        let engine = Engine::build(&data, &params, &dir).unwrap();
        engine.search_batch(queries.iter(), &qp).unwrap()
    };
    let reopened = Engine::open(&dir, &params).unwrap();
    assert_eq!(reopened.shards(), 3, "shard count comes from metadata");
    assert_eq!(reopened.len(), 900);
    assert_eq!(
        reopened.search_batch(queries.iter(), &qp).unwrap(),
        expected,
        "answers diverged after reopen"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn global_ids_round_trip_through_shards() {
    // Self-queries with a saturated candidate stage must return the
    // object's own *global* id at distance 0 for every shard count.
    let n = 300;
    let (data, _) = generate(&DatasetProfile::SIFT, n, 1, 11);
    let dir = scratch("ids");
    let qp = QueryParams::triangular(n, n, 1);
    for shards in [2usize, 4] {
        let params = EngineParams {
            shards,
            threads: 4,
            cache_budget_pages: 0,
            build_budget_bytes: 0,
            index: index_params(),
            compaction_threshold: None,
        };
        let engine = Engine::build(&data, &params, dir.join(format!("s{shards}"))).unwrap();
        for probe in [0usize, 1, 137, 255, n - 1] {
            let hit = engine.search(data.get(probe), &qp).unwrap()[0];
            assert_eq!(hit.id, probe as u64, "wrong global id at S = {shards}");
            assert_eq!(hit.dist, 0.0);
        }
        std::fs::remove_dir_all(dir.join(format!("s{shards}"))).ok();
    }
    std::fs::remove_dir_all(dir).ok();
}
