//! Engine-level durability: background compaction under live search
//! traffic, threshold triggering, and reopen after crash/compaction.

use hd_core::api::AnnIndex;
use hd_core::dataset::{generate, DatasetProfile};
use hd_engine::{Engine, EngineParams};
use hd_index::{HdIndexParams, QueryParams, RefSelection};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

fn index_params() -> HdIndexParams {
    HdIndexParams {
        tau: 4,
        hilbert_order: 8,
        num_references: 5,
        ref_selection: RefSelection::Sss { f: 0.3 },
        domain: (0.0, 255.0),
        random_partitioning: None,
        query_cache_pages: 32,
        seed: 13,
    }
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("hd_engine_durability")
        .join(format!("{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Spin until no background compaction is in flight (bounded).
fn quiesce(engine: &Engine) {
    let deadline = Instant::now() + Duration::from_secs(30);
    while engine.compacting() {
        assert!(Instant::now() < deadline, "compaction never finished");
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// Deleting past the density threshold schedules a background compaction
/// on the worker pool, and searches keep running (and keep returning
/// well-formed answers) the whole time. Afterwards the engine reopens
/// with its id space intact even though the shard heaps shrank.
#[test]
fn background_compaction_races_searches_then_reopens() {
    let n = 1200usize;
    let k = 10usize;
    let (data, queries) = generate(&DatasetProfile::SIFT, n, 8, 29);
    let dir = scratch("bg_compact");
    let params = EngineParams {
        shards: 3,
        threads: 4,
        cache_budget_pages: 512,
        build_budget_bytes: 0,
        index: index_params(),
        compaction_threshold: Some(0.10),
    };
    let engine = Engine::build(&data, &params, &dir).unwrap();
    let qp = QueryParams::triangular(128, 64, k);

    // Delete ~25% of the corpus while searcher threads hammer the engine.
    // The threshold is 10%, so every shard must compact at least once.
    let deleted: Vec<u64> = (0..n as u64)
        .filter(|id| id.wrapping_mul(2_654_435_761) % 100 < 25)
        .collect();
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..3 {
            let (engine, queries, qp, stop) = (&engine, &queries, &qp, &stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for q in queries.iter() {
                        let result = engine.search(q, qp).unwrap();
                        assert_eq!(result.len(), k);
                        for w in result.windows(2) {
                            assert!(w[0].dist <= w[1].dist);
                        }
                    }
                }
            });
        }
        for &id in &deleted {
            engine.delete(id).unwrap();
        }
        quiesce(&engine);
        stop.store(true, Ordering::Relaxed);
    });

    // Every shard crossed the threshold, so compactions actually ran and
    // drove every shard back below it: what tombstones remain are under
    // 10% of stored slots in aggregate (per-shard bound implies it).
    let stats = AnnIndex::stats(&engine);
    assert!(
        stats.write.compactions >= 1,
        "no background compaction ever installed"
    );
    assert_eq!(engine.len(), n as u64, "id space must survive compaction");
    assert_eq!(stats.live_len, (n - deleted.len()) as u64);
    let residual = (stats.stored_len - stats.live_len) as f64 / stats.stored_len as f64;
    assert!(
        residual < 0.10,
        "residual tombstone density {residual:.3} still above the threshold"
    );
    // The heaps really shrank: ~25% of the corpus is gone, so stored slots
    // must sit well below the build-time count.
    assert!(
        stats.stored_len < n as u64,
        "no heap ever shrank: {} stored of {n} built",
        stats.stored_len
    );

    // Durable across reopen: same id space, same live set, deleted ids
    // refuse further deletes with the compacted-away diagnostic.
    engine.save().unwrap();
    drop(engine);
    let reopened = Engine::open(&dir, &params).unwrap();
    assert_eq!(reopened.len(), n as u64);
    assert_eq!(
        AnnIndex::stats(&reopened).live_len,
        (n - deleted.len()) as u64
    );
    let err = reopened.delete(deleted[0]).unwrap_err();
    assert!(
        err.to_string().contains("compacted away"),
        "unexpected error: {err}"
    );
    for q in queries.iter().take(2) {
        assert_eq!(reopened.search(q, &qp).unwrap().len(), k);
    }
    std::fs::remove_dir_all(dir).ok();
}

/// Write+search stress: concurrent inserters, deleters and searchers with
/// background compaction enabled. The engine must stay coherent — exact
/// global length, every surviving insert findable at distance 0.
#[test]
fn concurrent_writes_searches_and_compactions_stay_coherent() {
    const INSERTS: usize = 60;
    let n = 900usize;
    let (data, queries) = generate(&DatasetProfile::SIFT, n, 6, 31);
    let dir = scratch("stress");
    let params = EngineParams {
        shards: 3,
        threads: 4,
        cache_budget_pages: 512,
        build_budget_bytes: 0,
        index: index_params(),
        compaction_threshold: Some(0.08),
    };
    let engine = Engine::build(&data, &params, &dir).unwrap();
    let qp = QueryParams::triangular(96, 48, 5);
    let needle =
        |i: usize| -> Vec<f32> { (0..128).map(|d| ((d * 11 + i * 3) % 256) as f32).collect() };

    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        for _ in 0..2 {
            let (engine, queries, qp, stop) = (&engine, &queries, &qp, &stop);
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    for q in queries.iter() {
                        engine.search(q, qp).unwrap();
                    }
                }
            });
        }
        // Writer: inserts race deletes, deletes race background
        // compactions of whatever shard crosses the threshold first.
        let (engine, stop) = (&engine, &stop);
        s.spawn(move || {
            for i in 0..INSERTS {
                let id = engine.insert(&needle(i)).unwrap();
                assert_eq!(id, (n + i) as u64, "global ids must stay sequential");
                for j in 0..4 {
                    let victim = ((i * 4 + j) * 13 % n) as u64;
                    // A victim may already be gone (deleted, or deleted and
                    // compacted away) — only "unknown id" style errors are
                    // acceptable, never a crash or a wrong delete.
                    let _ = engine.delete(victim);
                }
            }
            stop.store(true, Ordering::Relaxed);
        });
    });
    quiesce(&engine);

    assert_eq!(engine.len(), (n + INSERTS) as u64);
    let wide = QueryParams::triangular(n + INSERTS, n + INSERTS, 1);
    for i in 0..INSERTS {
        let global = (n + i) as u64;
        let hit = engine.search(&needle(i), &wide).unwrap()[0];
        assert_eq!(
            (hit.id, hit.dist),
            (global, 0.0),
            "insert {i} lost in the race"
        );
    }
    let stats = AnnIndex::stats(&engine);
    assert!(stats.live_len <= stats.stored_len);
    assert!(stats.write.wal_records >= (INSERTS as u64));
    std::fs::remove_dir_all(dir).ok();
}

/// `compact_now` on a quiescent engine is exact: answers before and after
/// are identical, and reclaimed disk shows up in `disk_bytes`.
#[test]
fn compact_now_is_transparent_to_search() {
    let n = 600usize;
    let (data, queries) = generate(&DatasetProfile::SIFT, n, 6, 37);
    let dir = scratch("compact_now");
    let params = EngineParams {
        shards: 2,
        threads: 2,
        cache_budget_pages: 256,
        build_budget_bytes: 0,
        index: index_params(),
        compaction_threshold: None,
    };
    let engine = Engine::build(&data, &params, &dir).unwrap();
    for id in (0..n as u64).filter(|id| id % 3 == 0) {
        engine.delete(id).unwrap();
    }
    // Saturated budgets: exact answers over the live set on both sides.
    let qp = QueryParams::triangular(n, n, 10);
    let before: Vec<_> = queries
        .iter()
        .map(|q| engine.search(q, &qp).unwrap())
        .collect();
    let disk_before = engine.disk_bytes();

    assert_eq!(
        engine.compact_now().unwrap(),
        2,
        "both shards had tombstones"
    );
    for (qi, q) in queries.iter().enumerate() {
        assert_eq!(
            engine.search(q, &qp).unwrap(),
            before[qi],
            "compact_now changed query {qi}"
        );
    }
    assert!(
        engine.disk_bytes() < disk_before,
        "compaction reclaimed nothing: {} -> {}",
        disk_before,
        engine.disk_bytes()
    );
    // Second call: nothing left to do.
    assert_eq!(engine.compact_now().unwrap(), 0);
    std::fs::remove_dir_all(dir).ok();
}

/// A one-shard engine over `n` SIFT-profile vectors with every third id
/// deleted, plus its queries.
fn tombstoned_engine(
    name: &str,
    n: usize,
    threshold: Option<f64>,
) -> (Engine, EngineParams, PathBuf, hd_core::dataset::Dataset) {
    let (data, queries) = generate(&DatasetProfile::SIFT, n, 6, 41);
    let dir = scratch(name);
    let params = EngineParams {
        shards: 1,
        threads: 2,
        cache_budget_pages: 256,
        build_budget_bytes: 0,
        index: index_params(),
        compaction_threshold: threshold,
    };
    let engine = Engine::build(&data, &params, &dir).unwrap();
    (engine, params, dir, queries)
}

/// Two `compact_now` calls released together share the engine's one
/// compaction slot: the second waits for the first, finds nothing left to
/// rebuild, and neither reports an error. Answers match the pre-compaction
/// ones at saturated budgets, before and after a reopen.
#[test]
fn overlapping_compact_now_calls_rebuild_once() {
    let n = 1500;
    let (engine, params, dir, queries) = tombstoned_engine("compact_now_overlap", n, None);
    for id in (0..n as u64).step_by(3) {
        engine.delete(id).unwrap();
    }
    let qp = QueryParams::triangular(n, n, 10);
    let answers = |engine: &Engine| -> Vec<_> {
        queries
            .iter()
            .map(|q| engine.search(q, &qp).unwrap())
            .collect()
    };
    let before = answers(&engine);

    let barrier = Barrier::new(2);
    let rebuilt: Vec<usize> = std::thread::scope(|s| {
        let calls: Vec<_> = (0..2)
            .map(|_| {
                let (engine, barrier) = (&engine, &barrier);
                s.spawn(move || {
                    barrier.wait();
                    engine.compact_now()
                })
            })
            .collect();
        calls
            .into_iter()
            .map(|call| call.join().unwrap().unwrap())
            .collect()
    });
    assert_eq!(rebuilt.iter().sum::<usize>(), 1, "rebuilds: {rebuilt:?}");
    assert_eq!(AnnIndex::stats(&engine).write.compactions, 1);
    assert_eq!(answers(&engine), before);

    drop(engine);
    let reopened = Engine::open(&dir, &params).unwrap();
    assert_eq!(answers(&reopened), before);
    std::fs::remove_dir_all(dir).ok();
}

/// `compact_now` issued while the background job that a delete just
/// scheduled runs waits for it instead of rebuilding the same shard beside
/// it, and no deleted id is returned afterwards.
#[test]
fn compact_now_waits_for_the_background_job() {
    let n = 1500;
    let (engine, _, dir, queries) = tombstoned_engine("compact_now_vs_job", n, Some(0.25));
    let mut deleted = Vec::new();
    for id in (0..n as u64).step_by(3) {
        engine.delete(id).unwrap();
        deleted.push(id);
        if engine.compacting() {
            break;
        }
    }
    assert!(engine.compacting(), "no delete scheduled a compaction");
    engine.compact_now().unwrap();
    quiesce(&engine);

    let stats = AnnIndex::stats(&engine);
    assert_eq!(stats.live_len, (n - deleted.len()) as u64);
    assert_eq!(stats.stored_len, stats.live_len, "tombstones left behind");
    let qp = QueryParams::triangular(n, n, 10);
    for q in queries.iter() {
        let answer = engine.search(q, &qp).unwrap();
        assert_eq!(answer.len(), 10);
        for nb in &answer {
            assert!(
                deleted.binary_search(&nb.id).is_err(),
                "deleted id {} returned",
                nb.id
            );
        }
    }
    std::fs::remove_dir_all(dir).ok();
}

/// Every file under `dir` with its bytes, in path order.
fn dir_contents(dir: &std::path::Path) -> Vec<(PathBuf, Vec<u8>)> {
    let mut out = Vec::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.is_dir() {
            out.extend(dir_contents(&path));
        } else {
            let bytes = std::fs::read(&path).unwrap();
            out.push((path, bytes));
        }
    }
    out.sort();
    out
}

/// An engine directory whose shards carry version-3 index metas (leaves
/// of four-byte distances) does not open: `InvalidData` naming the
/// version, and no file in it changes, logged writes included.
#[test]
fn previous_version_engine_is_refused_and_left_untouched() {
    let (data, _) = generate(&DatasetProfile::SIFT, 400, 1, 31);
    let dir = scratch("old_version");
    let params = EngineParams {
        shards: 2,
        threads: 2,
        ..EngineParams::new(index_params())
    };
    let engine = Engine::build(&data, &params, &dir).unwrap();
    engine.insert(data.get(0)).unwrap();
    engine.delete(7).unwrap();
    drop(engine);
    for si in 0..2 {
        let meta = dir.join(format!("shard_{si}")).join("meta.txt");
        let v3: String = std::fs::read_to_string(&meta)
            .unwrap()
            .replace("hdindex-meta v4", "hdindex-meta v3")
            .lines()
            .filter(|l| !l.starts_with("refgrid "))
            .map(|l| format!("{l}\n"))
            .collect();
        std::fs::write(meta, v3).unwrap();
    }
    let before = dir_contents(&dir);

    let err = Engine::open(&dir, &params).expect_err("an old engine directory");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    assert!(err.to_string().contains("v3"), "{err}");
    assert!(
        dir_contents(&dir) == before,
        "a refused open changed the directory"
    );
    std::fs::remove_dir_all(&dir).ok();
}
