//! HD-Index construction (Algorithm 1) and reopening: a build streams the
//! corpus into generation 0, commits it as snapshot 1, and comes up through
//! the same [`HdIndex::open_with`] as every reopen, which replays the WAL
//! tail the snapshot did not capture (DESIGN.md §9, §11).

use super::generation::{
    build_ctx, commit_snapshot, layout_meta, open_generation, remove_stale_generations,
};
use super::{BuildOpts, BuildStats, HdIndex};
use crate::build;
use crate::codes::RefineCodes;
use crate::config::{HdIndexParams, QueryParams};
use crate::live::IdMap;
use crate::meta::IndexMeta;
use crate::rdb::{self, RefGrid};
use crate::reference::{self, ReferenceSet};
use hd_core::dataset::{Dataset, VectorSource};
use hd_core::metric::Metric;
use hd_core::partition::Partitioning;
use hd_hilbert::HilbertCurve;
use hd_storage::{BuildBudget, CacheBudget, Wal, WalRecord, WAL_FILE};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

impl HdIndex {
    /// Builds the index over `data` in directory `dir` (Algorithm 1):
    /// select references → compute reference distances → partition
    /// dimensions → Hilbert-key each partition → bulk-load τ RDB-trees →
    /// store raw descriptors in the heap file.
    ///
    /// # Errors
    /// `InvalidInput` on an empty dataset, τ > ν, or a non-metric distance.
    pub fn build(
        data: &Dataset,
        params: &HdIndexParams,
        dir: impl AsRef<Path>,
    ) -> io::Result<Self> {
        Self::build_with(data, params, dir, BuildOpts::default())
    }

    /// [`Self::build`] with explicit [`BuildOpts`] (shared reference set,
    /// shared cache budget, build budget) — the entry point the serving
    /// engine uses. Selects references over the full in-memory dataset
    /// (when none are shared) and streams the rest through
    /// [`Self::build_from_source`].
    pub fn build_with(
        data: &Dataset,
        params: &HdIndexParams,
        dir: impl AsRef<Path>,
        mut opts: BuildOpts,
    ) -> io::Result<Self> {
        if opts.references.is_none() && !data.is_empty() && data.metric().is_metric_space() {
            opts.references = Some(reference::select(
                data,
                params.num_references,
                params.ref_selection,
                params.seed,
            ));
        }
        let mut src = hd_core::dataset::DatasetSource::new(data);
        Self::build_from_source(&mut src, params, dir, opts)
    }

    /// Builds the index by streaming an arbitrary [`VectorSource`] — the
    /// out-of-core entry point (DESIGN.md §11): the corpus can be a flat
    /// file orders of magnitude larger than RAM, and working memory is
    /// capped by [`BuildOpts::build_budget`]. When no reference set is
    /// supplied one is selected over a deterministic strided sample of the
    /// source (the full corpus may not fit in memory).
    ///
    /// The build writes generation 0, commits it as snapshot 1 with an
    /// empty log, and brings it up through [`Self::open_with`]: a
    /// just-built index is its reopened directory, cold pools included.
    pub fn build_from_source(
        src: &mut dyn VectorSource,
        params: &HdIndexParams,
        dir: impl AsRef<Path>,
        opts: BuildOpts,
    ) -> io::Result<Self> {
        if src.is_empty() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "cannot index an empty dataset",
            ));
        }
        let dim = src.dim();
        if params.tau > dim {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "τ = {} trees over {dim} dimensions: every tree needs at least one \
                     dimension",
                    params.tau
                ),
            ));
        }
        let metric = src.metric();
        if !metric.is_metric_space() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "HD-Index's reference-distance lower bounds require a true metric; \
                     {metric} satisfies no triangle inequality (serve inner-product \
                     workloads with a brute-force or graph method instead)"
                ),
            ));
        }
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        // Debris of a build that crashed mid-pipeline is meaningless —
        // sweep it before spilling fresh runs into the same scratch dir.
        build::sweep_tmp(&dir);

        // Metrics that normalize vectors move the corpus into the unit
        // ball; the Hilbert grid must quantize over the occupied domain,
        // whatever the caller's (profile-derived) domain says — otherwise
        // every vector lands in one or two grid cells and candidate
        // generation silently collapses. Derived here, once, instead of
        // trusting every call site to remember.
        let mut params = params.clone();
        if metric.normalizes_vectors() {
            params.domain = (-1.0, 1.0);
        }
        let params = &params;

        // 1. Reference objects (the leaf payloads are their distances).
        if let Some(shared) = &opts.references {
            if shared.metric() != metric {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "shared reference set was selected under {} but the dataset \
                         records {metric}",
                        shared.metric()
                    ),
                ));
            }
        }
        let refs = match opts.references {
            Some(r) => r,
            None => Self::select_refs_from_source(src, params, metric)?,
        };
        let n = src.len();

        // 2. Dimension partitioning (contiguous by default, §3.1).
        let partitioning = match params.random_partitioning {
            Some(seed) => Partitioning::random(dim, params.tau, seed),
            None => Partitioning::contiguous(dim, params.tau),
        };

        // 3. One Hilbert curve per partition.
        let mut curves = Vec::with_capacity(params.tau);
        for g in 0..params.tau {
            let eta = partitioning.group(g).len();
            if eta > 64 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "η = {eta} dimensions per curve exceeds the 64-dim Hilbert kernel; \
                         raise τ (the paper doubles τ for 500+ dims, §5.2.4)"
                    ),
                ));
            }
            curves.push(HilbertCurve::new(eta, params.hilbert_order));
        }

        // 4. Stream heap + τ trees through the out-of-core pipeline into
        //    generation 0, synced.
        let ctx = build_ctx(
            &dir,
            params.domain,
            &refs,
            &partitioning,
            &curves,
            opts.build_budget.unwrap_or_else(BuildBudget::unbounded),
        );
        let (build_stats, grid) = build::run(&ctx, src)?;

        // 5. Commit generation 0 as snapshot 1 with an empty log. The log of
        //    an index built here before is emptied first, so its tail can
        //    never replay onto the new corpus.
        let wal = Wal::create(dir.join(WAL_FILE))?;
        let mut meta = IndexMeta {
            n: n as u64,
            next_id: n as u64,
            refine_codes: opts.refine_codes,
            ..layout_meta(params, &partitioning, &refs, &grid, metric, dim)
        };
        commit_snapshot(&wal, &dir, &mut meta)?;
        drop(wal);

        // 6. Come up the way every reopen does.
        let mut index = Self::open_with(&dir, params.query_cache_pages, opts.cache_budget)?;
        index.build_stats = build_stats;
        Ok(index)
    }

    /// Selects a reference set over a deterministic strided sample of the
    /// source — build-from-disk cannot hand the full corpus to
    /// [`reference::select`]. The stride keeps the sample spread over the
    /// whole corpus (clustered corpora are often written cluster-by-
    /// cluster, so a prefix would be biased).
    fn select_refs_from_source(
        src: &mut dyn VectorSource,
        params: &HdIndexParams,
        metric: Metric,
    ) -> io::Result<ReferenceSet> {
        const SAMPLE_MAX: usize = 1 << 17;
        let n = src.len();
        let stride = n.div_ceil(SAMPLE_MAX).max(1);
        let mut sample = Dataset::new(src.dim()).with_metric(metric);
        let mut buf: Vec<f32> = Vec::new();
        let dim = src.dim();
        src.reset()?;
        let mut j = 0usize;
        loop {
            let got = src.next_chunk(4096, &mut buf)?;
            if got == 0 {
                break;
            }
            for (i, v) in buf.chunks_exact(dim).enumerate() {
                if (j + i).is_multiple_of(stride) {
                    sample.push(v);
                }
            }
            j += got;
        }
        if sample.len() < params.num_references {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "m = {} references from {} objects: need at least one object per \
                     reference",
                    params.num_references, n
                ),
            ));
        }
        Ok(reference::select(
            &sample,
            params.num_references,
            params.ref_selection,
            params.seed,
        ))
    }

    /// Reopens a previously built index from its directory: metadata, τ
    /// RDB-tree files, and the vector heap. Tombstones survive the round
    /// trip; the reference set and the leaf grid are restored bit-exactly;
    /// the index serves whatever metric the metadata records. Callers that
    /// *expect* a particular metric should use [`Self::open_expecting`]
    /// instead of trusting the directory.
    ///
    /// # Errors
    /// `InvalidData` naming the version for a directory written by an
    /// earlier meta version (four-byte distances in the leaves), before
    /// anything in it is touched: such an index must be rebuilt.
    pub fn open(dir: impl AsRef<Path>, query_cache_pages: usize) -> io::Result<Self> {
        Self::open_with(dir, query_cache_pages, None)
    }

    /// [`Self::open`] that refuses to serve when the on-disk index was
    /// built under a different metric than the caller expects — the
    /// distances would be silently wrong, which is strictly worse than an
    /// error.
    pub fn open_expecting(
        dir: impl AsRef<Path>,
        query_cache_pages: usize,
        expected: Metric,
    ) -> io::Result<Self> {
        let index = Self::open_with(&dir, query_cache_pages, None)?;
        if index.metric != expected {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "index at {} was built under metric {} but the caller expects \
                     {expected}; rebuild the index or fix the caller — serving would \
                     return wrong distances",
                    dir.as_ref().display(),
                    index.metric
                ),
            ));
        }
        Ok(index)
    }

    /// [`Self::open`] with the pools charging a shared [`CacheBudget`].
    pub fn open_with(
        dir: impl AsRef<Path>,
        query_cache_pages: usize,
        cache_budget: Option<CacheBudget>,
    ) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let meta = crate::meta::IndexMeta::read(&dir)?;
        let ref_grid = RefGrid::new(meta.ref_grid.clone())?;
        // Clear debris of a compaction that crashed before or after its
        // meta-rename commit point — only the generation the meta names is
        // live — plus any scratch of a build/compaction that died
        // mid-pipeline.
        remove_stale_generations(&dir, meta.generation, meta.tau)?;
        build::sweep_tmp(&dir);
        let partitioning = Partitioning::from_groups(meta.dim, meta.groups.clone());
        let refs =
            ReferenceSet::from_parts(meta.ref_ids.clone(), meta.ref_vectors.clone(), meta.metric);

        let curves = (0..meta.tau)
            .map(|g| HilbertCurve::new(partitioning.group(g).len(), meta.omega))
            .collect();
        let (trees, heap) = open_generation(
            &dir,
            meta.generation,
            meta.tau,
            (meta.dim, meta.n),
            query_cache_pages,
            &cache_budget,
        )?;
        // Every leaf value is one code per reference.
        if let Some(g) = trees
            .iter()
            .position(|t| t.val_len() != rdb::val_len(meta.m))
        {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "tree {g} in {} stores {}-byte leaf values, but m = {} references \
                     take {}",
                    dir.display(),
                    trees[g].val_len(),
                    meta.m,
                    rdb::val_len(meta.m)
                ),
            ));
        }

        let params = HdIndexParams {
            tau: meta.tau,
            hilbert_order: meta.omega,
            num_references: meta.m,
            ref_selection: crate::config::RefSelection::default(),
            domain: meta.domain,
            random_partitioning: None,
            query_cache_pages,
            seed: 0,
        };
        // Opening the WAL truncates any torn tail back to the last intact
        // record boundary; everything before it is committed history.
        let (wal, records) = Wal::open(dir.join(WAL_FILE))?;
        let mut index = Self {
            params,
            partitioning,
            curves,
            trees,
            heap,
            refs,
            ref_grid,
            tombstones: meta.tombstones.into_iter().collect(),
            dim: meta.dim,
            metric: meta.metric,
            dir,
            serve: QueryParams::default(),
            wal,
            id_map: meta.id_map.map(IdMap::new).transpose()?,
            // Derived below, once replay has appended every logged insert.
            codes: None,
            next_id: AtomicU64::new(meta.next_id),
            snapshot_version: meta.snapshot_version,
            generation: meta.generation,
            compactions: 0,
            cache_budget,
            build_stats: BuildStats::default(),
        };
        index.replay(&records)?;
        if meta.refine_codes {
            index.codes = Some(RefineCodes::derive(&index.heap, index.params.domain)?);
        }
        index.reset_io_stats();
        Ok(index)
    }

    /// Applies the WAL tail that the snapshot this directory was opened from
    /// did not capture. Replay is idempotent: inserts are id-watermarked
    /// (ids below [`Self::next_id`] are already present — the heap rewrites
    /// their slot in place and the trees upsert), deletes re-tombstone, and
    /// checkpoints past the meta's snapshot version (a snapshot that crashed
    /// before its meta rename) are inert.
    fn replay(&mut self, records: &[WalRecord]) -> io::Result<()> {
        // Skip to just past the last checkpoint the current snapshot
        // captured; everything before it is already in the data files.
        let mut start = 0;
        for (i, r) in records.iter().enumerate() {
            if let WalRecord::Checkpoint { snapshot_version } = r {
                if *snapshot_version <= self.snapshot_version {
                    start = i + 1;
                }
            }
        }
        let mut applied = 0u64;
        for record in &records[start..] {
            match record {
                WalRecord::Insert { id, vector } => {
                    let next = self.next_id.load(Ordering::Relaxed);
                    if *id < next {
                        continue; // captured by the snapshot already
                    }
                    if *id > next {
                        return Err(io::Error::new(
                            io::ErrorKind::InvalidData,
                            format!("WAL insert id {id} skips ahead of next id {next}"),
                        ));
                    }
                    self.next_id.store(id + 1, Ordering::Relaxed);
                    self.apply_insert(*id, vector)?;
                    applied += 1;
                }
                WalRecord::Delete { id } => {
                    if self.is_live(*id) {
                        self.apply_delete(*id)?;
                        applied += 1;
                    }
                }
                WalRecord::Checkpoint { .. } => {}
            }
        }
        self.wal.note_replayed(applied);
        Ok(())
    }

    /// The meta of the current state, as the next snapshot records it.
    fn meta(&self) -> IndexMeta {
        IndexMeta {
            n: self.heap.len(),
            tombstones: self.tombstones.iter().collect(),
            snapshot_version: self.snapshot_version,
            next_id: self.next_id.load(Ordering::Relaxed),
            generation: self.generation,
            id_map: self.id_map.as_ref().map(|map| map.ids().to_vec()),
            refine_codes: self.codes.is_some(),
            ..layout_meta(
                &self.params,
                &self.partitioning,
                &self.refs,
                &self.ref_grid,
                self.metric,
                self.dim,
            )
        }
    }

    /// Commits the current state as the next snapshot ([`commit_snapshot`]).
    /// The data files must already be synced.
    pub(super) fn commit(&mut self) -> io::Result<()> {
        let mut meta = self.meta();
        commit_snapshot(&self.wal, &self.dir, &mut meta)?;
        self.snapshot_version = meta.snapshot_version;
        Ok(())
    }
}
