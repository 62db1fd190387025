//! Shard management: splitting a corpus across S independent HD-Indexes
//! and mapping between global and shard-local object ids.
//!
//! Objects are assigned **round-robin**: global id `g` lives in shard
//! `g mod S` under local id `g div S`. The mapping is pure arithmetic — no
//! id table to keep in memory or on disk — and it stays an invariant under
//! appends: the `n`-th inserted object (global id `n`) always lands in the
//! shard whose next local id is exactly `n div S`.
//!
//! Every shard is built with the *same* reference set, selected once over
//! the full corpus (`hd_index::BuildOpts::references`), so a query's
//! reference distances are computed once and shared by every shard's
//! filter pipeline, and all shards charge one [`CacheBudget`]. Every shard
//! keeps refine codes (`hd_index::BuildOpts::refine_codes`): serving
//! trades `n·d` bytes of RAM for fetching only the candidates that can
//! still enter the top-k.

use crate::config::EngineParams;
use hd_core::dataset::Dataset;
use hd_core::pool::WorkerPool;
use hd_index::{BuildOpts, HdIndex, ReferenceSet};
use hd_storage::{BuildBudget, CacheBudget, IoSnapshot};
use parking_lot::{Mutex, RwLock};
use std::io::{self, BufRead, Write};
use std::path::{Path, PathBuf};

const META_FILE: &str = "engine.meta";
const MAGIC: &str = "hd-engine v1";

/// `global → (shard, local)` under round-robin placement.
#[inline]
pub fn shard_of(global: u64, shards: u64) -> (usize, u64) {
    ((global % shards) as usize, global / shards)
}

/// `(shard, local) → global` under round-robin placement.
#[inline]
pub fn global_of(shard: usize, local: u64, shards: u64) -> u64 {
    local * shards + shard as u64
}

/// The shard fleet plus what they share: the reference set, the cache
/// budget and the append gate. Each shard is a full HD-Index over its
/// round-robin slice, behind a read-write lock so searches (`read`) run
/// concurrently with each other and exclusively with structural updates
/// (`write`).
pub(crate) struct ShardSet {
    pub shards: Vec<RwLock<HdIndex>>,
    pub refs: ReferenceSet,
    pub budget: Option<CacheBudget>,
    /// The append gate: total object ids ever assigned across all shards.
    /// It serializes writes so the round-robin placement invariant
    /// (`global id n → shard n mod S`) holds under concurrency, and a
    /// compaction takes it while installing a rebuilt shard so no write
    /// interleaves with the swap.
    ///
    /// Lock order: the engine's compaction slot, then the gate, then a
    /// shard lock. Never take the gate while holding a shard guard (read or
    /// write) — writers hold the gate while they wait for a shard's write
    /// lock — and never wait for the slot while holding the gate or a shard
    /// guard: its holder takes both.
    pub gate: Mutex<u64>,
}

impl ShardSet {
    /// Splits `data` round-robin into `params.shards` slices and builds one
    /// HD-Index per slice (in parallel on `pool`), all sharing one
    /// reference set selected over the full corpus and one cache budget.
    pub fn build(
        data: &Dataset,
        params: &EngineParams,
        dir: &Path,
        pool: &WorkerPool,
    ) -> io::Result<Self> {
        let s = params.shards;
        if s == 0 || data.len() < s {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "cannot spread {} objects over {s} shards: every shard needs at least \
                     one object",
                    data.len()
                ),
            ));
        }
        std::fs::create_dir_all(dir)?;

        let refs = hd_index::reference::select(
            data,
            params.index.num_references,
            params.index.ref_selection,
            params.index.seed,
        );
        let (budget, build_budget) = budgets(params);

        // Each build task *owns* its slice, so a slice is freed the moment
        // its shard finishes building. Peak memory is still corpus + slices
        // at submission (HdIndex::build_with needs a contiguous Dataset; a
        // zero-copy strided view is future work), but it decays as shards
        // complete instead of persisting through the whole parallel build.
        // Every slice carries the corpus metric and the corpus rows bit for
        // bit, so each shard builds under the same distance function over
        // exactly the vectors an unsharded index would store.
        let slices: Vec<Dataset> = (0..s)
            .map(|si| data.subset((si..data.len()).step_by(s)))
            .collect();

        let mut built: Vec<Option<io::Result<HdIndex>>> = (0..s).map(|_| None).collect();
        pool.run_scoped(
            built
                .iter_mut()
                .zip(slices)
                .enumerate()
                .map(|(si, (slot, slice))| {
                    let refs = refs.clone();
                    let budget = budget.clone();
                    let build_budget = build_budget.clone();
                    let index_params = &params.index;
                    let target = shard_dir(dir, si);
                    let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                        *slot = Some(HdIndex::build_with(
                            &slice,
                            index_params,
                            target,
                            BuildOpts {
                                references: Some(refs),
                                cache_budget: budget,
                                build_budget,
                                refine_codes: true,
                            },
                        ));
                    });
                    (si, task)
                }),
        );

        let mut shards = Vec::with_capacity(s);
        for slot in built {
            shards.push(RwLock::new(slot.expect("pool completed every build task")?));
        }

        let set = Self::new(shards, refs, budget);
        set.write_meta(dir)?;
        Ok(set)
    }

    /// Reopens a previously built shard fleet from `dir`, opening the
    /// shards in parallel on `pool` (each replays its WAL and derives its
    /// refine codes from its heap). Only the serving fields of `params`
    /// are used (`cache_budget_pages`, `index.query_cache_pages`); the
    /// shard count comes from the metadata.
    pub fn open(dir: &Path, params: &EngineParams, pool: &WorkerPool) -> io::Result<Self> {
        let s = Self::read_meta(dir)?;
        let (budget, _) = budgets(params);
        let mut opened: Vec<Option<io::Result<HdIndex>>> = (0..s).map(|_| None).collect();
        pool.run_scoped(opened.iter_mut().enumerate().map(|(si, slot)| {
            let budget = budget.clone();
            let cache_pages = params.index.query_cache_pages;
            let target = shard_dir(dir, si);
            let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                *slot = Some(HdIndex::open_with(target, cache_pages, budget));
            });
            (si, task)
        }));
        let mut shards = Vec::with_capacity(s);
        for (si, slot) in opened.into_iter().enumerate() {
            let index = slot.expect("pool completed every open task")?;
            // Shards of one engine were built together under one metric;
            // a disagreement means the directory holds a mix of index
            // generations, and serving it would return wrong distances for
            // some shards — refuse instead.
            let m0 = shards
                .first()
                .map(|s0: &RwLock<HdIndex>| s0.read().metric());
            if let Some(m0) = m0 {
                if index.metric() != m0 {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!(
                            "shard {si} was built under metric {} but shard 0 under {m0}; \
                             the engine directory mixes index generations",
                            index.metric()
                        ),
                    ));
                }
            }
            shards.push(RwLock::new(index));
        }
        // Every shard persisted the same shared reference set.
        let refs = shards[0].read().references().clone();
        Ok(Self::new(shards, refs, budget))
    }

    /// The gate starts at the shards' `next_id` watermarks, not their stored
    /// counts: compaction shrinks a shard's heap but never reuses an id, and
    /// the round-robin arithmetic is defined over assigned ids.
    fn new(shards: Vec<RwLock<HdIndex>>, refs: ReferenceSet, budget: Option<CacheBudget>) -> Self {
        let n = shards.iter().map(|s| s.read().next_id()).sum();
        Self {
            shards,
            refs,
            budget,
            gate: Mutex::new(n),
        }
    }

    fn write_meta(&self, dir: &Path) -> io::Result<()> {
        let tmp = dir.join(format!("{META_FILE}.tmp"));
        {
            let mut f = io::BufWriter::new(std::fs::File::create(&tmp)?);
            writeln!(f, "{MAGIC}")?;
            writeln!(f, "shards {}", self.shards.len())?;
            f.flush()?;
            // The rename publishes the fleet: its content must be on stable
            // storage first.
            f.get_ref().sync_all()?;
        }
        std::fs::rename(tmp, dir.join(META_FILE))
    }

    fn read_meta(dir: &Path) -> io::Result<usize> {
        let f = io::BufReader::new(std::fs::File::open(dir.join(META_FILE))?);
        let mut shards = 0usize;
        for (i, line) in f.lines().enumerate() {
            let line = line?;
            if i == 0 {
                if line != MAGIC {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("bad engine metadata magic: {line}"),
                    ));
                }
                continue;
            }
            if let Some(v) = line.strip_prefix("shards ") {
                shards = v.parse().map_err(|_| {
                    io::Error::new(io::ErrorKind::InvalidData, format!("bad shard count: {v}"))
                })?;
            }
        }
        if shards == 0 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "engine metadata missing shard count",
            ));
        }
        Ok(shards)
    }

    /// Aggregated IO ledger over every shard's pools.
    pub fn io_stats(&self) -> IoSnapshot {
        self.shards.iter().map(|s| s.read().io_stats()).sum()
    }
}

/// The fleet's shared quotas, `None` where `params` sets 0: one page-cache
/// budget every shard's pools charge, and one build-memory budget split
/// dynamically across the parallel shard builds — clones share the
/// counter, so the fleet-wide working set stays under one cap however the
/// shards interleave.
fn budgets(params: &EngineParams) -> (Option<CacheBudget>, Option<BuildBudget>) {
    (
        (params.cache_budget_pages > 0).then(|| CacheBudget::new(params.cache_budget_pages)),
        (params.build_budget_bytes > 0).then(|| BuildBudget::new(params.build_budget_bytes)),
    )
}

/// Path of shard `si`'s index directory under the engine directory — the
/// single definition of the on-disk layout, used by both build and open.
pub fn shard_dir(engine_dir: &Path, si: usize) -> PathBuf {
    engine_dir.join(format!("shard_{si}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_mapping_is_a_bijection() {
        for s in [1u64, 2, 3, 7] {
            for g in 0..200u64 {
                let (si, local) = shard_of(g, s);
                assert!((si as u64) < s);
                assert_eq!(global_of(si, local, s), g);
            }
        }
    }

    #[test]
    fn consecutive_globals_fill_shards_evenly() {
        let s = 4u64;
        let mut next_local = [0u64; 4];
        for g in 0..1000u64 {
            let (si, local) = shard_of(g, s);
            assert_eq!(local, next_local[si], "append invariant broken at {g}");
            next_local[si] += 1;
        }
        assert!(next_local.iter().all(|&n| n == 250));
    }
}
