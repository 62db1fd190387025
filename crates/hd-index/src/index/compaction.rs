//! Compaction: the tombstone sweep of the durability layer. The next
//! generation is prepared beside the serving one as a copy of its live
//! RDB-tree leaf entries and heap rows, and installed with the snapshot
//! commit, carrying over the writes applied in between (DESIGN.md §9).

use super::generation::{heap_file, open_generation, remove_stale_generations, tree_file};
use super::HdIndex;
use crate::live::{IdMap, IdSet};
use crate::rdb;
use hd_btree::BTree;
use hd_storage::{BufferPool, Pager, VectorHeap};
use std::io;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// A fully written, fully synced next-generation file set, ready to swap in.
/// Produced by [`HdIndex::prepare_compaction`] (concurrent with searches),
/// installed by [`HdIndex::apply_compaction`], which carries over the
/// writes applied in between.
pub struct CompactionPlan {
    generation: u64,
    /// Heap slots of the generation the plan was prepared from; slots at
    /// or past it were inserted since.
    heap_len: u64,
    /// Tombstones the plan dropped; any other tombstone is a delete since.
    dropped: IdSet,
    trees: Vec<BTree>,
    heap: VectorHeap,
    id_map: Option<IdMap>,
}

impl HdIndex {
    /// Writes the next generation over the survivors whenever tombstones
    /// exist, reclaiming their space, and snapshots. Returns whether a
    /// compaction ran. The serving engine instead splits this into
    /// [`Self::prepare_compaction`] (concurrent with searches) and
    /// [`Self::apply_compaction`] (brief, under its write lock).
    pub fn compact(&mut self) -> io::Result<bool> {
        if self.tombstones.is_empty() {
            return Ok(false);
        }
        let plan = self.prepare_compaction()?;
        self.apply_compaction(plan)?;
        Ok(true)
    }

    /// Writes the next file generation over the surviving (non-tombstoned)
    /// objects: bulk-loaded RDB-trees and a dense heap, fully synced to
    /// disk, ids preserved via the slot→id map. Read-only on the current
    /// state, so searches (and WAL appends) proceed while it runs; nothing
    /// becomes visible until [`Self::apply_compaction`].
    ///
    /// Each tree's leaf level already holds every object's entry (Hilbert
    /// key, id, reference-distance codes; paper §3.2) in key order, so the
    /// new tree is its leaf chain minus the dead entries, bulk-loaded as it
    /// streams, and the new heap is the survivors' rows in slot order. The
    /// entries keep their codes, so the index keeps the grid its build
    /// fitted; the files equal a survivor rebuild's on that grid byte for
    /// byte, with no reference distance, Hilbert key, sort or scratch file
    /// computed. Both passes read uncached, so a compaction never evicts
    /// the pages queries use.
    ///
    /// # Errors
    /// `InvalidData` naming the tree when a new tree does not hold exactly
    /// one entry per survivor: an object never drops out silently.
    ///
    /// At most one plan may be outstanding per index, from this call until
    /// it is applied or dropped: two plans share generation k+1's file
    /// names. A caller that prepares under a shared lock must keep a second
    /// preparation out itself (the engine runs every compaction under its
    /// one compaction slot).
    pub fn prepare_compaction(&self) -> io::Result<CompactionPlan> {
        let _s = hd_telemetry::span!("compaction_prepare_nanos");
        let next_gen = self.generation + 1;
        // Survivor slots ascend, and so do their ids (the map is monotone).
        let survives = |slot: u64| !self.tombstones.contains(self.id_at(slot));
        let survivor_ids: Vec<u64> = (0..self.heap.len())
            .filter(|&slot| survives(slot))
            .map(|slot| self.id_at(slot))
            .collect();
        let n = survivor_ids.len() as u64;

        // Every file is written uncached (a second copy of the shard's
        // cache while the current generation still serves); the plan
        // reopens the synced files with serving pools, which queries warm.
        for (g, tree) in self.trees.iter().enumerate() {
            let pager = Pager::create(tree_file(&self.dir, g, next_gen))?;
            let mut copy = BTree::create(
                Arc::new(BufferPool::new(pager, 0)),
                tree.key_len(),
                tree.val_len(),
            )?;
            // The live entries: the leaf chain minus every entry whose
            // object a query could not return (tombstoned or orphaned).
            let mut live = tree.scan_uncached(|key| self.live_slot(rdb::decode_id(key)).is_some());
            copy.bulk_load_stream(&mut live, 1.0)?;
            if copy.len() != n {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!(
                        "compaction of {}: tree {g} holds {} live entries for {n} survivors",
                        self.dir.display(),
                        copy.len()
                    ),
                ));
            }
            copy.pool().sync()?;
        }
        let mut heap = VectorHeap::create(heap_file(&self.dir, next_gen), self.dim, 0)?;
        let mut copied = Ok(());
        let mut slot = 0u64;
        self.heap.scan(|block| {
            let rows = block.chunks_exact(self.dim).filter(|_| {
                slot += 1;
                survives(slot - 1)
            });
            if copied.is_ok() {
                copied = heap.append_all(rows);
            }
        })?;
        copied?;
        heap.pool().sync()?;
        drop(heap);
        let (trees, heap) = open_generation(
            &self.dir,
            next_gen,
            self.trees.len(),
            (self.dim, n),
            self.params.query_cache_pages,
            &self.cache_budget,
        )?;

        // When nothing before next_id was ever dropped the map is identity;
        // normalize it back to None so the fast path stays fast.
        let identity = self.next_id.load(Ordering::Relaxed) == n
            && survivor_ids
                .iter()
                .enumerate()
                .all(|(s, &id)| s as u64 == id);
        // The inverse is built here, off the write lock, so installing the
        // plan stays a swap.
        let id_map = if identity {
            None
        } else {
            Some(IdMap::new(survivor_ids)?)
        };

        Ok(CompactionPlan {
            generation: next_gen,
            heap_len: self.heap.len(),
            dropped: self.tombstones.clone(),
            trees,
            heap,
            id_map,
        })
    }

    /// Installs a [`CompactionPlan`]: swaps the file generation in, carries
    /// over the writes applied since the plan was prepared (inserts are
    /// appended to the new generation, deletes stay tombstones), and
    /// commits via checkpoint + meta rename. Callers that split the halves
    /// must apply no write during the install itself (the engine holds its
    /// append gate), so every logged write is applied by then and the
    /// checkpoint covers it.
    pub fn apply_compaction(&mut self, plan: CompactionPlan) -> io::Result<()> {
        let _s = hd_telemetry::span!("compaction_apply_nanos");
        let bytes_before = self.disk_bytes();
        // Writes since the plan: inserts occupy the heap slots past the
        // plan's, deletes are the tombstones the plan did not drop.
        let mut inserted = Vec::new();
        for slot in plan.heap_len..self.heap.len() {
            inserted.push((self.id_at(slot), self.heap.get(slot)?));
        }
        let deleted: Vec<u64> = self
            .tombstones
            .iter()
            .filter(|&id| !plan.dropped.contains(id))
            .collect();
        // The survivors' codes keep their order; the inserts since are
        // appended again below, like their vectors.
        if let Some(codes) = &mut self.codes {
            let keep: Vec<bool> = (0..plan.heap_len)
                .map(|slot| {
                    !plan.dropped.contains(match &self.id_map {
                        None => slot,
                        Some(map) => map.id(slot),
                    })
                })
                .collect();
            codes.retain_rows(&keep);
        }
        self.trees = plan.trees;
        self.heap = plan.heap;
        self.id_map = plan.id_map;
        self.tombstones.clear();
        self.generation = plan.generation;
        self.compactions += 1;
        if !inserted.is_empty() {
            let mut ref_dists = Vec::new();
            for (id, vector) in &inserted {
                self.refs.distances_to(vector, &mut ref_dists);
                self.append_prepared(*id, vector, &ref_dists)?;
            }
            // The plan's files were synced when it was built; these appends
            // must be durable too before the checkpoint empties the WAL.
            for pool in self.pools() {
                pool.sync()?;
            }
        }
        for id in deleted {
            self.tombstones.insert(id);
        }

        // Same commit as save(): the meta rename atomically switches
        // generations; crash before it leaves the old generation plus the
        // full WAL, crash after leaves stale files that the next open sweeps.
        self.commit()?;
        remove_stale_generations(&self.dir, self.generation, self.trees.len())?;
        if hd_telemetry::enabled() {
            let reclaimed = bytes_before.saturating_sub(self.disk_bytes());
            hd_telemetry::global()
                .counter(
                    "compaction_bytes_reclaimed_total",
                    "on-disk bytes freed by installed compactions",
                )
                .add(reclaimed);
            hd_telemetry::event!(
                hd_telemetry::Level::Info,
                "compaction",
                "generation installed",
                generation = self.generation,
                bytes_reclaimed = reclaimed,
                live = self.live_len(),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::testutil::{build_coded, small_params, test_dir};
    use hd_core::dataset::{generate, Dataset, DatasetProfile};
    use hd_core::metric::Metric;
    use std::collections::BTreeMap;

    /// Every entry of `tree` in key order.
    fn entries(tree: &BTree) -> Vec<(Vec<u8>, Vec<u8>)> {
        let mut out = Vec::new();
        let mut c = tree.first().unwrap();
        while c.valid() {
            out.push((c.key().to_vec(), c.value().to_vec()));
            c.advance().unwrap();
        }
        out
    }

    /// Leaves in `tree`'s chain: a walk of an uncached tree reads each
    /// leaf once.
    fn leaves(tree: &BTree) -> u64 {
        let before = tree.pool().stats().physical_reads;
        entries(tree);
        tree.pool().stats().physical_reads - before
    }

    /// The leaf value of reference distances `dists` on a grid of
    /// `(floor, step)` per reference: per reference, how many of the edges
    /// `floor + c·step`, `c = 1..=255`, lie at or below the distance.
    fn leaf_codes(grid: &[(f32, f32)], dists: &[f32]) -> Vec<u8> {
        grid.iter()
            .zip(dists)
            .map(|(&(floor, step), &d)| {
                (1..=255).filter(|&c| floor + c as f32 * step <= d).count() as u8
            })
            .collect()
    }

    /// Checks the installed generation against the survivors, computed
    /// from `vectors` (id → the vector in index form) and the leaf grid
    /// `grid` the build persisted.
    fn assert_matches_survivors(
        index: &HdIndex,
        vectors: &BTreeMap<u64, Vec<f32>>,
        grid: &[(f32, f32)],
    ) {
        assert_eq!(index.ref_grid.params(), grid, "a compaction keeps the grid");
        let survivors: Vec<(u64, &[f32], Vec<f32>)> = vectors
            .iter()
            .filter(|(&id, _)| index.is_live(id))
            .map(|(&id, v)| {
                let mut ref_dists = Vec::new();
                index.refs.distances_to(v, &mut ref_dists);
                (id, v.as_slice(), ref_dists)
            })
            .collect();
        let n = survivors.len() as u64;
        assert_eq!(index.len(), n);
        let mut sub = Vec::new();
        for (g, tree) in index.trees.iter().enumerate() {
            let curve = &index.curves[g];
            let mut key = vec![0u8; rdb::key_len(curve.key_len())];
            let mut want: Vec<(Vec<u8>, Vec<u8>)> = survivors
                .iter()
                .map(|(id, v, ref_dists)| {
                    index.partitioning.project_into(v, g, &mut sub);
                    rdb::encode_key_into(curve, &sub, index.params.domain, *id, &mut key);
                    (key.clone(), leaf_codes(grid, ref_dists))
                })
                .collect();
            want.sort();
            assert!(entries(tree) == want, "tree {g} entries");
            let omega = tree.leaf_order() as u64;
            assert_eq!(leaves(tree), n.div_ceil(omega), "tree {g} leaves");
        }
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for (slot, (id, v, _)) in survivors.iter().enumerate() {
            assert_eq!(index.id_at(slot as u64), *id);
            let stored = index.heap.get(slot as u64).unwrap();
            assert_eq!(bits(&stored), bits(v), "heap slot {slot}");
        }
    }

    #[test]
    fn compaction_output_matches_the_survivors() {
        let n = 1500;
        for metric in [Metric::L2, Metric::Cosine] {
            let (raw, _) = generate(&DatasetProfile::SIFT, n, 1, 41);
            let (extra, _) = generate(&DatasetProfile::SIFT, 300, 1, 42);
            let data: Dataset = raw.with_metric(metric);
            for refine_codes in [false, true] {
                let dir = test_dir(&format!("copy_{metric}_{refine_codes}"));
                let mut index = build_coded(&data, &small_params(), &dir, refine_codes);
                // `with_metric` already put the corpus rows in index form.
                let mut vectors: BTreeMap<u64, Vec<f32>> = (0..n as u64)
                    .zip(data.iter().map(<[f32]>::to_vec))
                    .collect();
                let grid = index.ref_grid.params().to_vec();
                let pages = |index: &HdIndex| index.trees[0].pool().num_pages();
                for round in 0..2 {
                    // Inserts into full bulk-loaded leaves split them.
                    let before = pages(&index);
                    let mut inserted = Vec::new();
                    for v in extra.iter().skip(round * 150).take(150) {
                        let id = index.insert(v).unwrap();
                        let mut indexed = v.to_vec();
                        metric.normalize_for_index(&mut indexed);
                        vectors.insert(id, indexed);
                        inserted.push(id);
                    }
                    assert!(pages(&index) > before + 1, "inserts split no leaf");
                    for id in (round as u64..n as u64).step_by(7) {
                        if index.is_live(id) {
                            index.delete(id).unwrap();
                        }
                    }
                    for &id in inserted.iter().step_by(4) {
                        index.delete(id).unwrap();
                    }
                    assert!(index.compact().unwrap());
                    assert_eq!(index.has_refine_codes(), refine_codes);
                    assert_matches_survivors(&index, &vectors, &grid);
                }
                std::fs::remove_dir_all(dir).ok();
            }
        }
    }

    /// A tree that lost a survivor's entry fails the compaction with
    /// `InvalidData` naming the tree, rather than dropping the object.
    #[test]
    fn compaction_refuses_a_tree_missing_a_survivor() {
        let (data, _) = generate(&DatasetProfile::SIFT, 600, 1, 43);
        let dir = test_dir("copy_missing_entry");
        let mut index = build_coded(&data, &small_params(), &dir, false);
        for id in (0..600u64).step_by(3) {
            index.delete(id).unwrap();
        }
        // Tree 2 without the entry of live object 1.
        let original = &index.trees[2];
        let pager = Pager::create(dir.join("lossy.tree")).unwrap();
        let mut lossy = BTree::create(
            Arc::new(BufferPool::new(pager, 0)),
            original.key_len(),
            original.val_len(),
        )
        .unwrap();
        let kept = entries(original)
            .into_iter()
            .filter(|(key, _)| rdb::decode_id(key) != 1);
        lossy.bulk_load(kept, 1.0).unwrap();
        index.trees[2] = lossy;

        let err = index.prepare_compaction().err().expect("a lossy tree");
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("tree 2"), "{err}");
        std::fs::remove_dir_all(dir).ok();
    }
}
