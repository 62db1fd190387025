//! Crash-injection suite for the durable write path.
//!
//! The WAL promises: after a kill at *any* byte position, reopening the
//! index recovers exactly the longest prefix of fully written records —
//! committed writes survive, a torn tail is dropped, and nothing in
//! between is possible. These tests simulate the crash by copying the
//! index directory and truncating the copied `wal.log` at every byte
//! boundary, then reopening and comparing against the reference state
//! reached by applying that record prefix. The compaction crash matrix
//! (DESIGN.md §9) is pinned the same way: a crash between a compaction's
//! prepare and its install, and one between its meta rename and the unlink
//! of the old generation. Each test runs with refine codes off and on:
//! with codes on, an open derives them from the heap after replay, so
//! replayed inserts must be found through them too.

use hd_core::dataset::{generate_uniform, Dataset};
use hd_index::{BuildOpts, HdIndex, HdIndexParams, QueryParams, RefSelection};
use hd_storage::{WalRecord, WAL_FILE};
use proptest::prelude::*;
use std::path::{Path, PathBuf};

const DIM: usize = 16;

fn params() -> HdIndexParams {
    HdIndexParams {
        tau: 2,
        hilbert_order: 8,
        num_references: 3,
        ref_selection: RefSelection::Sss { f: 0.3 },
        domain: (0.0, 255.0),
        random_partitioning: None,
        query_cache_pages: 0,
        seed: 11,
    }
}

/// Builds `data` in `dir` with refine codes on or off.
fn build(data: &Dataset, dir: &Path, refine_codes: bool) -> HdIndex {
    let opts = BuildOpts {
        refine_codes,
        ..BuildOpts::default()
    };
    HdIndex::build_with(data, &params(), dir, opts).unwrap()
}

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("hd_index_crash_recovery")
        .join(format!("{name}_{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Flat-directory copy — an index directory has no subdirectories.
fn copy_dir(src: &Path, dst: &Path) {
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

/// A recognizable vector for global id `i`: distance-0 probes find it.
fn vec_for(i: u64) -> Vec<f32> {
    (0..DIM)
        .map(|d| ((d as u64 * 31 + i * 7) % 256) as f32)
        .collect()
}

/// Every byte-boundary truncation of the WAL recovers exactly the longest
/// prefix of complete records — no committed write lost, no torn write
/// applied, and never an error.
#[test]
fn truncation_at_every_byte_recovers_longest_prefix() {
    for refine_codes in [false, true] {
        truncation_at_every_byte(refine_codes);
    }
}

fn truncation_at_every_byte(refine_codes: bool) {
    let dir = scratch(&format!("every_byte_{refine_codes}"));
    let base_n = 40u64;
    let data = generate_uniform(DIM, 0.0, 255.0, base_n as usize, 5);

    // Build (which snapshots and resets the WAL), then run an unflushed
    // write burst so the WAL is the only durable copy of these writes.
    let mut index = build(&data, &dir.join("base"), refine_codes);
    let inserts = 3u64;
    for i in 0..inserts {
        index.insert(&vec_for(base_n + i)).unwrap();
    }
    index.delete(1).unwrap();
    index.delete(base_n).unwrap(); // delete one of the WAL-only inserts
    drop(index);

    // Record boundaries of the log we are about to shear.
    let ops: Vec<WalRecord> = vec![
        WalRecord::Insert {
            id: base_n,
            vector: vec_for(base_n),
        },
        WalRecord::Insert {
            id: base_n + 1,
            vector: vec_for(base_n + 1),
        },
        WalRecord::Insert {
            id: base_n + 2,
            vector: vec_for(base_n + 2),
        },
        WalRecord::Delete { id: 1 },
        WalRecord::Delete { id: base_n },
    ];
    let wal_bytes = std::fs::read(dir.join("base").join(WAL_FILE)).unwrap();
    let total: u64 = ops.iter().map(|r| r.encoded_len()).sum();
    assert_eq!(wal_bytes.len() as u64, total, "log holds exactly the burst");

    let qp = QueryParams::triangular(64, 64, 1);
    for cut in 0..=wal_bytes.len() {
        let crashed = dir.join(format!("cut_{cut}"));
        copy_dir(&dir.join("base"), &crashed);
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(crashed.join(WAL_FILE))
            .unwrap();
        f.set_len(cut as u64).unwrap();
        drop(f);

        let reopened = HdIndex::open(&crashed, 0).unwrap_or_else(|e| {
            panic!("reopen failed at cut {cut}: {e}");
        });
        assert_eq!(reopened.has_refine_codes(), refine_codes);

        // How many whole records fit in `cut` bytes?
        let mut applied = 0usize;
        let mut pos = 0u64;
        for r in &ops {
            if pos + r.encoded_len() > cut as u64 {
                break;
            }
            pos += r.encoded_len();
            applied += 1;
        }

        let applied_inserts = applied.min(inserts as usize) as u64;
        assert_eq!(
            reopened.next_id(),
            base_n + applied_inserts,
            "cut {cut}: wrong id watermark"
        );
        for i in 0..applied_inserts {
            // Inserted and replayed: findable at distance 0 — unless the
            // replayed prefix also contains its tombstone.
            let deleted = i == 0 && applied == ops.len();
            assert_eq!(
                reopened.is_deleted(base_n + i),
                deleted,
                "cut {cut}: tombstone state of replayed insert {i}"
            );
            if !deleted {
                let hit = &reopened.knn(&vec_for(base_n + i), &qp).unwrap()[0];
                assert_eq!(hit.id, base_n + i, "cut {cut}: replayed insert lost");
                assert_eq!(hit.dist, 0.0);
            }
        }
        assert_eq!(
            reopened.is_deleted(1),
            applied >= 4,
            "cut {cut}: delete of id 1 must apply iff its record survived"
        );
        drop(reopened);
        std::fs::remove_dir_all(&crashed).ok();
    }
    std::fs::remove_dir_all(dir).ok();
}

/// Kill-and-reopen after a committed write burst loses nothing, even
/// though `save` was never called: the WAL alone carries the writes across
/// the crash. Every insert and every delete is its own WAL commit, so no
/// write waits in a buffer for a later one.
#[test]
fn kill_after_committed_writes_loses_nothing() {
    for refine_codes in [false, true] {
        kill_after_committed_writes(refine_codes);
    }
}

fn kill_after_committed_writes(refine_codes: bool) {
    let dir = scratch(&format!("kill_reopen_{refine_codes}"));
    let base_n = 60u64;
    let data = generate_uniform(DIM, 0.0, 255.0, base_n as usize, 6);
    let mut index = build(&data, &dir.join("live"), refine_codes);
    let commits_before = index.write_stats().wal_commits;
    for i in 0..8 {
        index.insert(&vec_for(base_n + i)).unwrap();
    }
    for id in [3u64, 17, base_n + 2] {
        index.delete(id).unwrap();
    }
    assert_eq!(
        index.write_stats().wal_commits - commits_before,
        8 + 3,
        "one WAL commit per insert and per delete"
    );
    let live_before = index.live_len();
    // Simulate kill -9: copy the directory out from under the open index
    // (every record was fsynced when its write returned) and never call
    // save.
    let crashed = dir.join("crashed");
    copy_dir(&dir.join("live"), &crashed);
    drop(index);

    let reopened = HdIndex::open(&crashed, 0).unwrap();
    assert_eq!(reopened.has_refine_codes(), refine_codes);
    assert_eq!(reopened.next_id(), base_n + 8);
    assert_eq!(reopened.live_len(), live_before);
    let qp = QueryParams::triangular(80, 80, 1);
    for i in 0..8u64 {
        if i == 2 {
            assert!(reopened.is_deleted(base_n + 2));
            continue;
        }
        let hit = &reopened.knn(&vec_for(base_n + i), &qp).unwrap()[0];
        assert_eq!(
            (hit.id, hit.dist),
            (base_n + i, 0.0),
            "write {i} lost in crash"
        );
    }
    for id in [3u64, 17] {
        assert!(reopened.is_deleted(id), "delete of {id} lost in crash");
    }
    std::fs::remove_dir_all(dir).ok();
}

/// A snapshot (`save`) truncates the WAL; records before the checkpoint
/// are never replayed twice, and post-snapshot writes still recover.
#[test]
fn snapshot_then_crash_replays_only_the_tail() {
    for refine_codes in [false, true] {
        snapshot_then_crash(refine_codes);
    }
}

fn snapshot_then_crash(refine_codes: bool) {
    let dir = scratch(&format!("snapshot_tail_{refine_codes}"));
    let base_n = 50u64;
    let data = generate_uniform(DIM, 0.0, 255.0, base_n as usize, 7);
    let mut index = build(&data, &dir.join("live"), refine_codes);
    for i in 0..4 {
        index.insert(&vec_for(base_n + i)).unwrap();
    }
    index.save().unwrap();
    let wal_len = std::fs::metadata(dir.join("live").join(WAL_FILE))
        .unwrap()
        .len();
    assert_eq!(wal_len, 0, "save must reset the log");
    index.insert(&vec_for(base_n + 4)).unwrap();
    index.delete(2).unwrap();
    let crashed = dir.join("crashed");
    copy_dir(&dir.join("live"), &crashed);
    drop(index);

    let reopened = HdIndex::open(&crashed, 0).unwrap();
    assert_eq!(reopened.next_id(), base_n + 5);
    assert!(reopened.is_deleted(2));
    // Only the two post-snapshot records needed replay.
    assert_eq!(reopened.write_stats().wal_replayed, 2);
    // Both the snapshotted and the replayed inserts are found at distance 0.
    let qp = QueryParams::triangular(64, 64, 1);
    for i in [0u64, 4] {
        let hit = &reopened.knn(&vec_for(base_n + i), &qp).unwrap()[0];
        assert_eq!((hit.id, hit.dist), (base_n + i, 0.0), "insert {i} lost");
    }
    std::fs::remove_dir_all(dir).ok();
}

/// State equality probe used by the idempotence property below.
fn fingerprint(index: &HdIndex, probe_ids: &[u64]) -> (u64, usize, Vec<(u64, bool)>) {
    (
        index.next_id(),
        index.live_len(),
        probe_ids
            .iter()
            .map(|&id| (id, index.contains_id(id) && !index.is_deleted(id)))
            .collect(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Replay is idempotent: reopening a crashed directory once or twice
    /// (the first reopen replays the WAL but leaves it in place until the
    /// next snapshot) yields identical index state, for arbitrary
    /// insert/delete bursts.
    #[test]
    fn replay_is_idempotent(
        n_inserts in 1usize..12,
        delete_picks in proptest::collection::vec(0u64..1000, 0..6),
        seed in 0u64..1000,
        refine_codes in any::<bool>(),
    ) {
        let dir = scratch(&format!("idem_{seed}_{n_inserts}_{refine_codes}"));
        let base_n = 30u64;
        let data = generate_uniform(DIM, 0.0, 255.0, base_n as usize, seed);
        let mut index = build(&data, &dir.join("live"), refine_codes);
        for i in 0..n_inserts as u64 {
            index.insert(&vec_for(base_n + i)).unwrap();
        }
        for pick in &delete_picks {
            let id = pick % (base_n + n_inserts as u64);
            if !index.is_deleted(id) {
                index.delete(id).unwrap();
            }
        }
        let probe: Vec<u64> = (0..base_n + n_inserts as u64).collect();
        let expected = fingerprint(&index, &probe);
        let crashed = dir.join("crashed");
        copy_dir(&dir.join("live"), &crashed);
        drop(index);

        let once = HdIndex::open(&crashed, 0).unwrap();
        let replayed = once.write_stats().wal_replayed;
        prop_assert_eq!(fingerprint(&once, &probe), expected.clone());
        drop(once);

        // Second reopen re-reads the same (un-truncated) log: the replay
        // loop must skip already-applied inserts by the id watermark and
        // re-apply deletes harmlessly.
        let twice = HdIndex::open(&crashed, 0).unwrap();
        prop_assert_eq!(fingerprint(&twice, &probe), expected);
        prop_assert_eq!(twice.write_stats().wal_replayed, replayed);
        std::fs::remove_dir_all(dir).ok();
    }
}

/// The generation data files (RDB-trees and heap) in `dir`, sorted.
fn data_files(dir: &Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.ends_with(".rdb") || name.ends_with(".heap"))
        .collect();
    names.sort();
    names
}

/// Exact answers (saturated budgets) of `index` for every probe.
fn answers(index: &HdIndex, probes: &[Vec<f32>]) -> Vec<Vec<hd_core::topk::Neighbor>> {
    let qp = QueryParams::triangular(1000, 1000, 5);
    probes.iter().map(|q| index.knn(q, &qp).unwrap()).collect()
}

/// A crash after `prepare_compaction` and before `apply_compaction`: the
/// generation k+1 files are on disk but no meta names them. The reopen
/// serves generation k plus the whole log — the deletes the plan dropped
/// and every write since the prepare — and sweeps the orphaned files.
#[test]
fn crash_between_prepare_and_apply_serves_the_old_generation() {
    for refine_codes in [false, true] {
        crash_between_prepare_and_apply(refine_codes);
    }
}

fn crash_between_prepare_and_apply(refine_codes: bool) {
    let dir = scratch(&format!("prepare_crash_{refine_codes}"));
    let base_n = 80u64;
    let data = generate_uniform(DIM, 0.0, 255.0, base_n as usize, 8);
    let live = dir.join("live");
    let mut index = build(&data, &live, refine_codes);
    let old_files = data_files(&live);
    for id in (0..base_n).step_by(4) {
        index.delete(id).unwrap();
    }
    let plan = index.prepare_compaction().unwrap();
    assert!(
        data_files(&live).len() > old_files.len(),
        "plan files written"
    );
    // Writes after the prepare: inserts, one deleted again, and a delete
    // of an object the plan kept.
    for i in 0..5 {
        index.insert(&vec_for(base_n + i)).unwrap();
    }
    index.delete(base_n + 1).unwrap();
    index.delete(1).unwrap();
    let probes: Vec<Vec<f32>> = (0..base_n + 5).map(vec_for).collect();
    let want = answers(&index, &probes);
    let crashed = dir.join("crashed");
    copy_dir(&live, &crashed);
    drop(plan);
    drop(index);

    let reopened = HdIndex::open(&crashed, 0).unwrap();
    assert_eq!(reopened.has_refine_codes(), refine_codes);
    assert_eq!(
        reopened.write_stats().wal_replayed,
        base_n / 4 + 5 + 2,
        "every write replays"
    );
    assert_eq!(reopened.next_id(), base_n + 5);
    assert!(reopened.is_deleted(0) && reopened.is_deleted(1) && reopened.is_deleted(base_n + 1));
    assert_eq!(answers(&reopened, &probes), want, "codes {refine_codes}");
    assert_eq!(data_files(&crashed), old_files, "generation k+1 swept");
    std::fs::remove_dir_all(dir).ok();
}

/// A crash after a compaction's meta rename and before it unlinked the old
/// generation: both generations are on disk and the meta names the new
/// one. The reopen serves the compacted index and deletes generation k.
#[test]
fn crash_after_the_meta_rename_serves_the_new_generation() {
    for refine_codes in [false, true] {
        crash_after_the_meta_rename(refine_codes);
    }
}

fn crash_after_the_meta_rename(refine_codes: bool) {
    let dir = scratch(&format!("rename_crash_{refine_codes}"));
    let base_n = 80u64;
    let data = generate_uniform(DIM, 0.0, 255.0, base_n as usize, 9);
    let live = dir.join("live");
    let mut index = build(&data, &live, refine_codes);
    for id in (0..base_n).step_by(3) {
        index.delete(id).unwrap();
    }
    let old = dir.join("old");
    copy_dir(&live, &old);
    let old_files = data_files(&old);
    assert!(index.compact().unwrap());
    let new_files = data_files(&live);
    assert!(new_files.iter().all(|name| !old_files.contains(name)));
    let probes: Vec<Vec<f32>> = (0..base_n).map(vec_for).collect();
    let want = answers(&index, &probes);
    let crashed = dir.join("crashed");
    copy_dir(&live, &crashed);
    drop(index);
    // Generation k's files, as the interrupted unlink left them.
    for name in &old_files {
        std::fs::copy(old.join(name), crashed.join(name)).unwrap();
    }

    let reopened = HdIndex::open(&crashed, 0).unwrap();
    assert_eq!(reopened.has_refine_codes(), refine_codes);
    assert_eq!(reopened.len(), base_n - base_n.div_ceil(3));
    assert_eq!(reopened.write_stats().wal_replayed, 0);
    assert_eq!(answers(&reopened, &probes), want, "codes {refine_codes}");
    assert_eq!(data_files(&crashed), new_files, "generation k deleted");
    std::fs::remove_dir_all(dir).ok();
}
