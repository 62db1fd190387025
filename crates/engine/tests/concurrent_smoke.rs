//! Concurrency smoke: many caller threads firing batched searches at one
//! engine while a writer interleaves inserts and deletes. The assertions
//! are structural (crash-free, well-formed answers, metrics bookkeeping) —
//! exactness under a quiescent engine is covered by `shard_exactness.rs`.

use hd_core::dataset::{generate, DatasetProfile};
use hd_engine::{Engine, EngineParams};
use hd_index::{HdIndexParams, QueryParams, RefSelection};

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

#[test]
fn concurrent_batches_with_interleaved_writes() {
    const CALLERS: usize = 4;
    const BATCHES_PER_CALLER: usize = 5;
    const BATCH: usize = 8;
    const INSERTS: usize = 24;
    let k = 10;

    let (data, queries) = generate(&DatasetProfile::SIFT, 600, BATCH, 21);
    let dir = std::env::temp_dir().join(format!("hd_engine_smoke_{}", std::process::id()));
    let params = EngineParams {
        shards: 3,
        threads: 4,
        cache_budget_pages: 256,
        build_budget_bytes: 0,
        index: HdIndexParams {
            query_cache_pages: 64,
            ..index_params()
        },
        compaction_threshold: None,
    };
    let engine = Engine::build(&data, &params, &dir).unwrap();
    let qp = QueryParams::triangular(128, 64, k);

    std::thread::scope(|s| {
        for _ in 0..CALLERS {
            let engine = &engine;
            let queries = &queries;
            let qp = &qp;
            s.spawn(move || {
                for _ in 0..BATCHES_PER_CALLER {
                    let answers = engine.search_batch(queries.iter(), qp).unwrap();
                    assert_eq!(answers.len(), BATCH);
                    for result in answers {
                        assert_eq!(result.len(), k, "short answer under concurrency");
                        for w in result.windows(2) {
                            assert!(w[0].dist <= w[1].dist, "unsorted answer");
                        }
                    }
                }
            });
        }
        // Writer: interleaved inserts (new, recognizable vectors) and a few
        // deletes, racing the searchers above.
        let engine = &engine;
        s.spawn(move || {
            for i in 0..INSERTS {
                let v: Vec<f32> = (0..128).map(|d| ((d * 7 + i) % 256) as f32).collect();
                let id = engine.insert(&v).unwrap();
                assert!(id >= 600, "inserted ids continue the global sequence");
                if i % 5 == 0 {
                    engine.delete((i * 13 % 600) as u64).unwrap();
                }
            }
        });
    });

    // Bookkeeping survived the race.
    assert_eq!(engine.len(), 600 + INSERTS as u64);
    let stats = engine.serving_stats();
    assert_eq!(
        stats.queries,
        (CALLERS * BATCHES_PER_CALLER * BATCH) as u64,
        "every query must be counted exactly once"
    );
    assert_eq!(stats.batches, (CALLERS * BATCHES_PER_CALLER) as u64);
    assert!(stats.qps > 0.0);
    assert!(stats.p50_ms > 0.0 && stats.p50_ms <= stats.p99_ms);
    assert!(stats.io.logical_reads > 0, "queries must hit the IO ledger");
    if let Some(budget) = engine.cache_budget() {
        assert!(
            budget.used() <= budget.capacity(),
            "cache budget over-committed: {}/{}",
            budget.used(),
            budget.capacity()
        );
    }

    // The engine is still coherent after the dust settles: an inserted
    // vector is findable at distance 0 under a saturated candidate stage,
    // and a deleted object stays gone.
    let needle: Vec<f32> = (0..128).map(|d| ((d * 7) % 256) as f32).collect();
    let n = engine.len() as usize;
    let wide = QueryParams::triangular(n, n, 1);
    let hit = engine.search(&needle, &wide).unwrap()[0];
    assert_eq!(hit.dist, 0.0, "inserted vector not found");
    engine.delete(hit.id).unwrap();
    let after = engine.search(&needle, &wide).unwrap()[0];
    assert_ne!(after.id, hit.id, "deleted object resurfaced");

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn reset_io_stats_clears_serving_metrics_too() {
    // Regression: reset_io_stats used to clear only the shard IO ledgers,
    // leaving the latency histogram and query counters accumulating across
    // bench phases — a second phase's QPS/p99 silently averaged in the
    // first phase's samples.
    let (data, queries) = generate(&DatasetProfile::SIFT, 300, 4, 44);
    let dir = std::env::temp_dir().join(format!("hd_engine_reset_{}", std::process::id()));
    let engine = Engine::build(
        &data,
        &EngineParams {
            shards: 2,
            threads: 2,
            ..EngineParams::new(index_params())
        },
        &dir,
    )
    .unwrap();
    let qp = QueryParams::triangular(64, 32, 5);
    engine.search_batch(queries.iter(), &qp).unwrap();
    let before = engine.serving_stats();
    assert_eq!(before.queries, 4);
    assert!(before.p50_ms > 0.0);

    engine.reset_io_stats();
    let after = engine.serving_stats();
    assert_eq!(after.queries, 0, "query counter must reset");
    assert_eq!(after.batches, 0, "batch counter must reset");
    assert_eq!(after.busy_secs, 0.0, "busy time must reset");
    assert_eq!(after.p50_ms, 0.0, "latency histogram must reset");
    assert_eq!(after.io.logical_reads, 0, "IO ledger must reset");

    // A fresh phase counts from zero.
    engine.search_batch(queries.iter(), &qp).unwrap();
    let fresh = engine.serving_stats();
    assert_eq!(fresh.queries, 4);
    assert_eq!(fresh.batches, 1);
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn batch_of_zero_and_one_are_well_formed() {
    let (data, queries) = generate(&DatasetProfile::SIFT, 300, 2, 33);
    let dir = std::env::temp_dir().join(format!("hd_engine_edge_{}", std::process::id()));
    let engine = Engine::build(
        &data,
        &EngineParams {
            shards: 2,
            threads: 2,
            ..EngineParams::new(index_params())
        },
        &dir,
    )
    .unwrap();
    let qp = QueryParams::triangular(64, 32, 5);
    assert!(engine
        .search_batch(std::iter::empty::<&[f32]>(), &qp)
        .unwrap()
        .is_empty());
    let one = engine
        .search_batch(std::iter::once(queries.get(0)), &qp)
        .unwrap();
    assert_eq!(one.len(), 1);
    assert_eq!(one[0].len(), 5);
    std::fs::remove_dir_all(dir).ok();
}
