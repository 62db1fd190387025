//! Compaction: the tombstone rebuild of the durability layer. A rebuild
//! over the survivors is prepared beside the serving generation and
//! installed with the snapshot commit, carrying over the writes applied
//! in between (DESIGN.md §9).

use super::generation::{build_ctx, open_generation, remove_stale_generations};
use super::{BuildStats, HdIndex};
use crate::build;
use crate::live::{IdMap, IdSet};
use hd_btree::BTree;
use hd_storage::VectorHeap;
use std::io;
use std::sync::atomic::Ordering;

/// A fully built, fully synced next-generation file set, ready to swap in.
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
    /// Spill/scratch accounting of the streaming rebuild.
    build_stats: BuildStats,
}

impl HdIndex {
    /// Rebuilds the index over the survivors whenever tombstones exist,
    /// reclaiming their space, and snapshots. Returns whether a compaction
    /// ran. The serving engine instead splits this into
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

    /// Builds the next file generation over the surviving (non-tombstoned)
    /// objects: fresh bulk-loaded RDB-trees and a dense heap, fully synced
    /// to disk, ids preserved via the slot→id map. Read-only on the current
    /// state, so searches (and WAL appends) proceed while it runs; nothing
    /// becomes visible until [`Self::apply_compaction`].
    ///
    /// Survivors stream through the same out-of-core pipeline as a fresh
    /// build (DESIGN.md §11), under the index's
    /// [`BuildBudget`](hd_storage::BuildBudget) — compacting a shard much
    /// larger than RAM spills sorted runs instead of materializing every
    /// entry.
    ///
    /// At most one plan may be outstanding per index, from this call until
    /// it is applied or dropped: two plans share generation k+1's file
    /// names and its `build.tmp/` scratch. A caller that prepares under a
    /// shared lock must keep a second preparation out itself (the engine
    /// runs every rebuild under its one compaction slot).
    pub fn prepare_compaction(&self) -> io::Result<CompactionPlan> {
        let _s = hd_telemetry::span!("compaction_prepare_nanos");
        let next_gen = self.generation + 1;
        // Survivor slots ascend, and so do their ids (the map is monotone).
        let mut survivor_slots: Vec<u64> = Vec::with_capacity(self.live_len());
        let mut survivor_ids: Vec<u64> = Vec::with_capacity(self.live_len());
        for slot in 0..self.heap.len() {
            let id = self.id_at(slot);
            if !self.tombstones.contains(id) {
                survivor_slots.push(slot);
                survivor_ids.push(id);
            }
        }
        let n = survivor_slots.len();

        // Vectors in the heap are already in index form (normalized at
        // original ingest), so the streamed ref-distances are exactly what
        // the original build computed.
        let mut src = build::HeapSurvivorSource::new(&self.heap, &survivor_slots, self.metric);
        // The rebuild writes uncached (a second copy of the shard's cache
        // while the current generation still serves); the plan reopens the
        // synced files with serving pools, which queries warm.
        let ctx = build_ctx(
            &self.dir,
            next_gen,
            self.params.domain,
            &self.refs,
            &self.partitioning,
            &self.curves,
            self.build_budget.clone(),
        );
        let build_stats = build::run(&ctx, &mut src, Some(&survivor_ids))?;
        let (trees, heap) = open_generation(
            &self.dir,
            next_gen,
            self.trees.len(),
            (self.dim, n as u64),
            self.params.query_cache_pages,
            &self.cache_budget,
        )?;

        // When nothing before next_id was ever dropped the map is identity;
        // normalize it back to None so the fast path stays fast.
        let identity = self.next_id.load(Ordering::Relaxed) == n as u64
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
            build_stats,
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
        self.build_stats = plan.build_stats;
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
