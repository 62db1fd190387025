//! Serving-health snapshots and batch time budgets — the two engine hooks
//! the HTTP front-end builds on: `/healthz` maps [`Engine::health`] onto
//! 200/503, and a request's `time_budget` must turn into a `TimedOut`
//! error instead of an arbitrarily late answer.

use std::io::ErrorKind;
use std::time::Duration;

use hd_core::api::{AnnIndex, SearchRequest};
use hd_core::dataset::{generate, DatasetProfile};
use hd_engine::{Engine, EngineParams};
use hd_index::{HdIndexParams, RefSelection};

fn index_params() -> HdIndexParams {
    HdIndexParams {
        tau: 4,
        hilbert_order: 8,
        num_references: 5,
        ref_selection: RefSelection::Sss { f: 0.3 },
        domain: (0.0, 255.0),
        random_partitioning: None,
        query_cache_pages: 64,
        seed: 7,
    }
}

fn build(dir: &std::path::Path, n: usize) -> (Engine, Vec<Vec<f32>>) {
    let (data, queries) = generate(&DatasetProfile::SIFT, n, 8, 17);
    let params = EngineParams {
        shards: 2,
        threads: 2,
        compaction_threshold: None,
        ..EngineParams::new(index_params())
    };
    let engine = Engine::build(&data, &params, dir).unwrap();
    let queries = queries.iter().map(|q| q.to_vec()).collect();
    (engine, queries)
}

fn tmp(tag: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("hd_engine_{tag}_{}", std::process::id()))
}

#[test]
fn expired_deadline_fails_with_timed_out() {
    let dir = tmp("deadline_expired");
    let (engine, queries) = build(&dir, 300);
    let refs: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();

    // A zero time budget has expired before any shard work starts, for
    // single queries and batches alike.
    let req = SearchRequest::new(5).with_time_budget(Duration::ZERO);
    let err = AnnIndex::search(&engine, &queries[0], &req).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::TimedOut);
    let err = AnnIndex::search_batch(&engine, &refs, &req).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::TimedOut);

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn generous_deadline_matches_unbudgeted_answers() {
    let dir = tmp("deadline_generous");
    let (engine, queries) = build(&dir, 300);
    let refs: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();

    let plain = SearchRequest::new(5).with_candidates(64).with_refine(32);
    let budgeted = plain.with_time_budget(Duration::from_secs(3600));
    let a = AnnIndex::search_batch(&engine, &refs, &plain).unwrap();
    let b = AnnIndex::search_batch(&engine, &refs, &budgeted).unwrap();
    assert_eq!(a.len(), b.len());
    for (x, y) in a.iter().zip(&b) {
        let ids = |out: &hd_core::api::SearchOutput| {
            out.neighbors.iter().map(|n| n.id).collect::<Vec<_>>()
        };
        assert_eq!(ids(x), ids(y), "a generous budget must not change answers");
    }

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn health_tracks_wal_tail_and_save() {
    let dir = tmp("health_wal");
    let (engine, _) = build(&dir, 200);

    let fresh = engine.health();
    assert!(
        fresh.healthy,
        "fresh engine must be healthy: {}",
        fresh.status
    );
    assert_eq!(fresh.status, "ok");
    assert_eq!(fresh.shards, 2);
    assert_eq!(fresh.compacting_shards, 0);
    assert_eq!(fresh.compaction_backlog, 0);
    assert_eq!(fresh.live_len, 200);

    // Un-snapshotted writes pile up in the WAL tail...
    let before = fresh.wal_tail_bytes;
    let v: Vec<f32> = (0..128).map(|d| (d % 256) as f32).collect();
    for _ in 0..8 {
        engine.insert(&v).unwrap();
    }
    let dirty = engine.health();
    assert!(
        dirty.wal_tail_bytes > before,
        "inserts must grow the WAL tail ({} -> {})",
        before,
        dirty.wal_tail_bytes
    );
    assert_eq!(dirty.live_len, 208);

    // ...and a snapshot truncates it.
    engine.save().unwrap();
    let saved = engine.health();
    assert_eq!(saved.wal_tail_bytes, 0, "save must leave no WAL tail");
    assert!(saved.healthy);

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn health_reports_compaction_backlog_as_unhealthy() {
    let dir = tmp("health_backlog");
    // compaction_threshold: None in `build` — deletes only tombstone, so
    // the density climbs and nothing compacts behind our back.
    let (engine, _) = build(&dir, 200);
    for id in 0..100 {
        engine.delete(id).unwrap();
    }

    let seen = engine.health();
    assert!(
        seen.max_tombstone_density >= 0.4,
        "mass delete must raise density, got {}",
        seen.max_tombstone_density
    );
    // No threshold configured: density alone never flips the verdict.
    assert!(seen.healthy);
    assert_eq!(seen.compaction_backlog, 0);

    // Judged against a threshold the engine has blown through, every shard
    // is backlogged and the verdict flips.
    let judged = engine.health_against(Some(0.2));
    assert_eq!(judged.compaction_backlog, judged.shards);
    assert!(!judged.healthy);
    assert!(
        judged.status.contains("compaction"),
        "status must name the cause: {}",
        judged.status
    );

    // Compacting clears the backlog and the verdict recovers.
    engine.compact_now().unwrap();
    let after = engine.health_against(Some(0.2));
    assert_eq!(after.compaction_backlog, 0);
    assert!(after.healthy, "post-compaction engine must be healthy");
    assert!(after.max_tombstone_density < 0.2);

    std::fs::remove_dir_all(dir).ok();
}
