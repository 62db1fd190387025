//! The generation file protocol, shared by a build, an open and a
//! compaction (DESIGN.md §9). An index directory holds one live
//! *generation* of data files — τ RDB-tree files and one vector heap —
//! named by the generation number the meta records. A build writes
//! generation 0, each compaction writes generation k+1 beside generation
//! k, and the meta rename in [`commit_snapshot`] is the atomic switch
//! between them; [`remove_stale_generations`] sweeps every data file the
//! meta does not name. This is the only module that forms a generation's
//! file names.

use crate::build::BuildCtx;
use crate::config::HdIndexParams;
use crate::meta::IndexMeta;
use crate::rdb::RefGrid;
use crate::reference::ReferenceSet;
use hd_btree::BTree;
use hd_core::metric::Metric;
use hd_core::partition::Partitioning;
use hd_hilbert::HilbertCurve;
use hd_storage::{BufferPool, BuildBudget, CacheBudget, VectorHeap, Wal, WalRecord};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// On-disk name of RDB-tree `g` at file `generation`. Generation 0 keeps
/// the legacy names so pre-WAL index directories open unchanged; each
/// compaction bumps the generation and writes a fresh set of files, and the
/// meta rename is the atomic switch between generations.
pub(super) fn tree_file(dir: &Path, g: usize, generation: u64) -> PathBuf {
    if generation == 0 {
        dir.join(format!("tree_{g}.rdb"))
    } else {
        dir.join(format!("tree_{g}.g{generation}.rdb"))
    }
}

/// On-disk name of the vector heap at file `generation` (see [`tree_file`]).
pub(super) fn heap_file(dir: &Path, generation: u64) -> PathBuf {
    if generation == 0 {
        dir.join("vectors.heap")
    } else {
        dir.join(format!("vectors.g{generation}.heap"))
    }
}

/// Parses a data-file name back to its generation, `None` for files that are
/// not generation-managed (meta, WAL, foreign files).
pub(super) fn file_generation(name: &str) -> Option<u64> {
    if name == "vectors.heap" {
        return Some(0);
    }
    if let Some(rest) = name
        .strip_prefix("vectors.g")
        .and_then(|r| r.strip_suffix(".heap"))
    {
        return number(rest);
    }
    if let Some(rest) = name
        .strip_prefix("tree_")
        .and_then(|r| r.strip_suffix(".rdb"))
    {
        return match rest.split_once(".g") {
            None => number(rest).map(|_| 0),
            Some((g, k)) => number(g).and(number(k)),
        };
    }
    None
}

/// A number as the file names spell it: ASCII digits only, which
/// `str::parse` alone is not (it accepts a leading `+`).
fn number(digits: &str) -> Option<u64> {
    if digits.bytes().all(|b| b.is_ascii_digit()) {
        digits.parse().ok()
    } else {
        None
    }
}

/// Deletes every tree/heap file the meta does not name — debris of a
/// compaction that crashed before (new generation never committed) or
/// after (old generation not yet unlinked) the meta rename, and the extra
/// trees of an earlier index with a larger τ built into the same directory.
pub(super) fn remove_stale_generations(dir: &Path, generation: u64, tau: usize) -> io::Result<()> {
    let live: Vec<PathBuf> = (0..tau)
        .map(|g| tree_file(dir, g, generation))
        .chain([heap_file(dir, generation)])
        .collect();
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        let managed = path
            .file_name()
            .and_then(|name| name.to_str())
            .is_some_and(|name| file_generation(name).is_some());
        if managed && !live.contains(&path) {
            std::fs::remove_file(path)?;
        }
    }
    Ok(())
}

/// The context that streams a build into generation 0 of the index in
/// `dir` through the out-of-core pipeline: its heap and tree paths.
pub(super) fn build_ctx<'a>(
    dir: &'a Path,
    domain: (f32, f32),
    refs: &'a ReferenceSet,
    partitioning: &'a Partitioning,
    curves: &'a [HilbertCurve],
    budget: BuildBudget,
) -> BuildCtx<'a> {
    BuildCtx {
        domain,
        refs,
        partitioning,
        curves,
        dir,
        heap_path: heap_file(dir, 0),
        tree_paths: (0..curves.len()).map(|g| tree_file(dir, g, 0)).collect(),
        budget,
    }
}

/// Opens generation `generation`'s τ trees and its heap of `n` vectors of
/// `dim` dimensions, every pool caching up to `cache_pages` pages.
pub(super) fn open_generation(
    dir: &Path,
    generation: u64,
    tau: usize,
    (dim, n): (usize, u64),
    cache_pages: usize,
    cache_budget: &Option<CacheBudget>,
) -> io::Result<(Vec<BTree>, VectorHeap)> {
    let mut trees = Vec::with_capacity(tau);
    for g in 0..tau {
        let pager =
            hd_storage::Pager::open(tree_file(dir, g, generation), hd_storage::DEFAULT_PAGE_SIZE)?;
        let pool = Arc::new(BufferPool::with_budget(
            pager,
            cache_pages,
            cache_budget.clone(),
        ));
        trees.push(BTree::open(pool)?);
    }
    let heap = VectorHeap::open_budgeted(
        heap_file(dir, generation),
        dim,
        cache_pages,
        n,
        cache_budget.clone(),
    )?;
    Ok((trees, heap))
}

/// The meta of an index with this layout and no objects: generation 0,
/// snapshot 0, no tombstones. Callers fill in the state.
pub(super) fn layout_meta(
    params: &HdIndexParams,
    partitioning: &Partitioning,
    refs: &ReferenceSet,
    grid: &RefGrid,
    metric: Metric,
    dim: usize,
) -> IndexMeta {
    IndexMeta {
        dim,
        tau: params.tau,
        omega: params.hilbert_order,
        m: refs.m(),
        domain: params.domain,
        groups: (0..partitioning.tau())
            .map(|g| partitioning.group(g).to_vec())
            .collect(),
        ref_ids: refs.ids.clone(),
        ref_vectors: refs.vectors.clone(),
        ref_grid: grid.params().to_vec(),
        metric,
        ..IndexMeta::default()
    }
}

/// The snapshot commit, shared by a build's generation 0,
/// [`HdIndex::save`](crate::HdIndex::save) and
/// [`HdIndex::apply_compaction`](crate::HdIndex::apply_compaction): bumps
/// `meta`'s snapshot version, logs and fsyncs a checkpoint carrying it,
/// renames the meta into place (the commit point) and empties the log. The
/// data files the meta names must already be synced. Before the rename
/// recovery replays the full log onto the previous snapshot; after it the
/// checkpoint tells replay everything earlier is already captured.
pub(super) fn commit_snapshot(wal: &Wal, dir: &Path, meta: &mut IndexMeta) -> io::Result<()> {
    meta.snapshot_version += 1;
    wal.append(&WalRecord::Checkpoint {
        snapshot_version: meta.snapshot_version,
    })?;
    meta.wal_pos = wal.commit()?;
    meta.write(dir)?;
    wal.reset()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::testutil::{small_params, test_dir};
    use crate::HdIndex;
    use hd_core::dataset::{generate, DatasetProfile};

    /// [`remove_stale_generations`] deletes every name the parser accepts,
    /// so the parser must accept exactly the generation-managed names.
    #[test]
    fn file_generation_accepts_only_generation_files() {
        for (name, generation) in [
            ("tree_3.rdb", 0),
            ("tree_3.g7.rdb", 7),
            ("vectors.heap", 0),
            ("vectors.g2.heap", 2),
        ] {
            assert_eq!(file_generation(name), Some(generation), "{name}");
        }
        for name in [
            "meta.txt",
            "meta.txt.tmp",
            "wal.log",
            "tree_x.rdb",
            "tree_1.g.rdb",
            "tree_1.gx.rdb",
            "vectors.g2.heap.tmp",
            "notes.rdb",
            "build.tmp",
            "tree_+3.rdb",
            "vectors.g+2.heap",
            "tree_1.g+2.rdb",
        ] {
            assert_eq!(file_generation(name), None, "{name}");
        }
    }

    #[test]
    fn foreign_files_survive_open_and_compaction() {
        let (data, _) = generate(&DatasetProfile::SIFT, 400, 1, 35);
        let dir = test_dir("foreign_files");
        let foreign = ["notes.rdb", "tree_x.rdb", "vectors.g2.heap.tmp", "README"];
        let mut index = HdIndex::build(&data, &small_params(), &dir).unwrap();
        for name in foreign {
            std::fs::write(dir.join(name), name).unwrap();
        }
        for id in (0..400u64).step_by(4) {
            index.delete(id).unwrap();
        }
        assert!(index.compact().unwrap());
        drop(index);
        let reopened = HdIndex::open(&dir, 0).unwrap();
        assert_eq!(reopened.live_len(), 300);
        for name in foreign {
            assert_eq!(
                std::fs::read_to_string(dir.join(name)).unwrap(),
                name,
                "{name} must survive a compaction and an open"
            );
        }
        std::fs::remove_dir_all(dir).ok();
    }
}
