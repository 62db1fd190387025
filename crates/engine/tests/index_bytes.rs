//! The bytes a build writes, pinned. A small seeded 2-shard SIFT-profile
//! engine must write exactly the generation files whose digest is
//! [`EXPECTED`], with an unbounded build budget (in-memory sort) and with a
//! budget small enough to spill sorted runs (loser-tree merge). Work on the
//! build's speed (the Hilbert encoder, the external sort) must not move one
//! byte of the index; a change that means to alter the on-disk format
//! updates the constant and says why.

use hd_core::dataset::{generate, DatasetProfile};
use hd_engine::{Engine, EngineParams};
use hd_index::HdIndexParams;
use std::path::{Path, PathBuf};

/// FNV-1a over every generation file (relative path, length, bytes, in
/// path order) of the engine below.
const EXPECTED: u64 = 0x1ee6_f261_90f6_eda8;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

/// The generation files under `dir`: RDB-trees, vector heaps, shard metas
/// and the engine meta (not the write-ahead logs).
fn generation_files(dir: &Path, out: &mut Vec<PathBuf>) {
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_str().unwrap();
        if path.is_dir() {
            generation_files(&path, out);
        } else if (name.starts_with("tree_") && name.ends_with(".rdb"))
            || name == "vectors.heap"
            || name == "meta.txt"
            || name == "engine.meta"
        {
            out.push(path);
        }
    }
}

fn digest(dir: &Path) -> u64 {
    let mut files = Vec::new();
    generation_files(dir, &mut files);
    files.sort();
    assert_eq!(files.len(), 1 + 2 * (1 + 1 + 8), "files: {files:?}");
    files.iter().fold(0xCBF2_9CE4_8422_2325, |hash, path| {
        let bytes = std::fs::read(path).unwrap();
        let rel = path.strip_prefix(dir).unwrap().to_str().unwrap();
        let hash = fnv1a(hash, rel.as_bytes());
        let hash = fnv1a(hash, &(bytes.len() as u64).to_le_bytes());
        fnv1a(hash, &bytes)
    })
}

#[test]
fn seeded_two_shard_build_writes_the_pinned_bytes() {
    let (data, _) = generate(&DatasetProfile::SIFT, 4000, 1, 7);
    hd_telemetry::set_enabled(true);
    let root = std::env::temp_dir()
        .join("hd_engine_index_bytes")
        .join(std::process::id().to_string());
    // 48 KiB is less than the chunk buffers' floor, so each sorter gets
    // only its own floor of records and the budgeted build spills runs.
    for (name, build_budget_bytes) in [("unbounded", 0), ("budgeted", 48 << 10)] {
        let dir = root.join(name);
        let _ = std::fs::remove_dir_all(&dir);
        let params = EngineParams {
            shards: 2,
            threads: 2,
            cache_budget_pages: 0,
            build_budget_bytes,
            index: HdIndexParams::for_profile(&DatasetProfile::SIFT),
            compaction_threshold: None,
        };
        let merge_nanos = || {
            hd_telemetry::global()
                .histogram("build_merge_nanos", "")
                .sum()
        };
        let before = merge_nanos();
        drop(Engine::build(&data, &params, &dir).unwrap());
        // Only a spilled sort merges runs.
        assert_eq!(
            merge_nanos() > before,
            build_budget_bytes > 0,
            "{name} build"
        );
        let got = digest(&dir);
        assert_eq!(got, EXPECTED, "{name} build: digest {got:#018x}");
    }
    std::fs::remove_dir_all(root).ok();
}
