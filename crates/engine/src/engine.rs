//! The serving engine: batched, concurrent kANN over a shard fleet.

use crate::config::EngineParams;
use crate::metrics::{EngineMetrics, EngineStats};
use crate::shard::{global_of, shard_of, ShardSet};
use hd_core::api::{
    check_metric, AnnIndex, IndexStats, Lifecycle, SearchOutput, SearchRequest, WriteStats,
};
use hd_core::dataset::Dataset;
use hd_core::pool::WorkerPool;
use hd_core::topk::{Neighbor, TopK};
use hd_index::{PreparedQuery, QueryParams};
use parking_lot::{Condvar, Mutex};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// A sharded, batched, concurrent query-serving engine over HD-Index.
///
/// * **Sharding** — the corpus is split round-robin across S independent
///   [`hd_index::HdIndex`] shards (one directory each, one shared reference
///   set, one shared cache budget). A query fans out to every shard and the
///   per-shard top-k lists are exact-merged, so the answer is identical to
///   what one index over the union of the shards' *candidates* would
///   return (see `tests/shard_exactness.rs` for the invariant).
/// * **Batching** — [`Engine::search_batch`] answers many queries per
///   submission: each query is prepared once and shared by all S shards,
///   and one task per shard sweeps the whole batch on the engine's
///   persistent worker pool.
/// * **Concurrency** — searches take `&self` and run concurrently from any
///   number of caller threads; [`Engine::insert`] / [`Engine::delete`] are
///   lock-guarded (per-shard `RwLock` writes plus a global append gate) and
///   interleave with in-flight searches.
///
/// No code path spawns OS threads per query: all fan-out rides the pool
/// created when the engine was.
pub struct Engine {
    /// Shared (`Arc`) with the background compaction job.
    set: Arc<ShardSet>,
    pool: WorkerPool,
    metrics: EngineMetrics,
    /// The one compaction slot every rebuild runs under; it comes first in
    /// the lock order (see [`ShardSet::gate`]).
    slot: Arc<CompactionSlot>,
    /// Tombstone-density trigger for background compaction (see
    /// [`EngineParams::compaction_threshold`]).
    compaction_threshold: Option<f64>,
    dir: PathBuf,
    /// Default query-time parameters used when the engine is driven through
    /// the [`hd_core::api::AnnIndex`] trait. Set with
    /// [`Engine::set_serve_params`].
    serve: QueryParams,
}

/// Aggregated serving-health snapshot ([`Engine::health`]): per-shard
/// openness, compaction backlog, and WAL state rolled into one verdict a
/// `/healthz` endpoint can map onto 200/503.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineHealth {
    /// Shards probed (all of them — the probe blocks on each read lock).
    pub shards: usize,
    /// `1` while the engine's compaction slot is held (a background job,
    /// queued or running, or a [`Engine::compact_now`] call), else `0`:
    /// the engine compacts one shard at a time.
    pub compacting_shards: usize,
    /// Shards at or above the judging threshold, not counting the one
    /// being rebuilt. `0` when no threshold is configured.
    pub compaction_backlog: usize,
    /// Worst per-shard tombstone density, in `[0, 1]`.
    pub max_tombstone_density: f64,
    /// Committed WAL bytes across shards that a reopen would replay —
    /// writes applied but not yet snapshotted by [`Engine::save`].
    pub wal_tail_bytes: u64,
    /// Live (non-tombstoned) objects across shards.
    pub live_len: u64,
    /// The verdict: `false` means admission control should stop sending
    /// traffic (see [`Engine::health_against`] for the exact rule).
    pub healthy: bool,
    /// Human-readable reason, `"ok"` when healthy.
    pub status: String,
}

impl std::fmt::Debug for Engine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Engine")
            .field("shards", &self.set.shards.len())
            .field("threads", &self.pool.threads())
            .field("n", &*self.set.gate.lock())
            .finish()
    }
}

impl Engine {
    /// Builds a fresh engine over `data` in `dir`: selects one reference
    /// set over the full corpus, splits the data round-robin, and builds
    /// all shards in parallel on the engine's own pool.
    ///
    /// # Errors
    /// `InvalidInput` when `params.shards` is 0 or exceeds the corpus size,
    /// besides every error a shard build can return.
    pub fn build(data: &Dataset, params: &EngineParams, dir: impl AsRef<Path>) -> io::Result<Self> {
        Self::start(dir.as_ref(), params, |dir, pool| {
            ShardSet::build(data, params, dir, pool)
        })
    }

    /// Reopens an engine previously built in `dir`. The shard count comes
    /// from the on-disk metadata; `params` supplies the serving knobs
    /// (threads, cache pages, cache budget).
    pub fn open(dir: impl AsRef<Path>, params: &EngineParams) -> io::Result<Self> {
        Self::start(dir.as_ref(), params, |dir, pool| {
            ShardSet::open(dir, params, pool)
        })
    }

    /// The one constructor: creates the worker pool, brings the shard
    /// fleet up on it with `shards`, and serves it.
    fn start(
        dir: &Path,
        params: &EngineParams,
        shards: impl FnOnce(&Path, &WorkerPool) -> io::Result<ShardSet>,
    ) -> io::Result<Self> {
        let pool = WorkerPool::new(params.resolved_threads());
        Ok(Self {
            set: Arc::new(shards(dir, &pool)?),
            pool,
            metrics: EngineMetrics::new(),
            slot: Arc::new(CompactionSlot::default()),
            compaction_threshold: params.compaction_threshold,
            dir: dir.to_path_buf(),
            serve: QueryParams::default(),
        })
    }

    /// Answers one query (a batch of one). Prefer [`Self::search_batch`]
    /// when requests can be grouped — that is where the engine amortizes.
    pub fn search(&self, query: &[f32], qp: &QueryParams) -> io::Result<Vec<Neighbor>> {
        Ok(self
            .run_batch(&[query], qp, None)?
            .pop()
            .expect("one answer per query"))
    }

    /// Answers a batch of queries, returning one nearest-first neighbor
    /// list per query, in input order (global ids; distances in the
    /// engine metric's reported scale — true L2 for L2, `1 − cos` for
    /// cosine, …).
    ///
    /// Scheduling: each query is prepared once ([`ReferenceSet::prepare`]:
    /// index form plus reference distances) and shared by all S shard
    /// tasks, and per-shard top-k lists are exact-merged through one
    /// bounded heap per query.
    ///
    /// [`ReferenceSet::prepare`]: hd_index::ReferenceSet::prepare
    pub fn search_batch<'q, I>(
        &self,
        queries: I,
        qp: &QueryParams,
    ) -> io::Result<Vec<Vec<Neighbor>>>
    where
        I: IntoIterator<Item = &'q [f32]>,
    {
        let queries: Vec<&[f32]> = queries.into_iter().collect();
        self.run_batch(&queries, qp, None)
    }

    /// The batch body every search entry point runs, with an optional
    /// wall-clock deadline honored at **batch granularity**: the deadline
    /// is checked before the fan-out and again as each shard task reaches
    /// each query, so a batch queued behind slow work fails fast with
    /// [`io::ErrorKind::TimedOut`] instead of hanging the caller while
    /// every remaining shard task still grinds through. A shard query
    /// already running completes — the check is cooperative, not
    /// preemptive.
    fn run_batch(
        &self,
        queries: &[&[f32]],
        qp: &QueryParams,
        deadline: Option<Instant>,
    ) -> io::Result<Vec<Vec<Neighbor>>> {
        if queries.is_empty() {
            return Ok(Vec::new());
        }
        let t0 = Instant::now();
        let expired = || {
            deadline
                .is_some_and(|d| Instant::now() >= d)
                .then(|| io::Error::new(io::ErrorKind::TimedOut, "batch exceeded its time budget"))
        };
        if let Some(err) = expired() {
            return Err(err);
        }
        let s_count = self.set.shards.len();

        // Index form and reference distances: once per query, not once per
        // (query, shard). A wrong-dimension query fails here, before any
        // shard work.
        let prepared: Vec<PreparedQuery> = {
            let _s = hd_telemetry::span!("engine_ref_dists_nanos");
            queries
                .iter()
                .map(|q| self.set.refs.prepare(q))
                .collect::<io::Result<_>>()?
        };

        // One task per *shard*, not per (query, shard): the task sweeps the
        // whole batch against its shard under a single read-lock
        // acquisition, so a batch of B costs S pool handoffs and one latch
        // instead of B·S handoffs and B latches. Slots are shard-major:
        // slot (si, qi) lives at si·B + qi.
        let b = queries.len();
        let prepared = &prepared;
        let mut slots: Vec<Option<io::Result<Vec<Neighbor>>>> =
            (0..b * s_count).map(|_| None).collect();
        // Opened on the calling thread around the whole fan-out.
        let fanout_span = hd_telemetry::span!("engine_fanout_nanos");
        self.pool
            .run_scoped(slots.chunks_mut(b).enumerate().map(|(si, shard_slots)| {
                let shard = &self.set.shards[si];
                let task: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
                    let index = shard.read();
                    for (query, slot) in prepared.iter().zip(shard_slots) {
                        // Expired budget: bail before touching the shard so
                        // one slow shard cannot hold the whole batch hostage
                        // — the remaining queries all fail fast and the
                        // caller gets TimedOut as soon as the latch opens.
                        let result = match expired() {
                            Some(err) => Err(err),
                            None => index.knn_prepared(query, qp).map(|(mut neighbors, _)| {
                                for nb in &mut neighbors {
                                    nb.id = global_of(si, nb.id, s_count as u64);
                                }
                                neighbors
                            }),
                        };
                        *slot = Some(result);
                    }
                });
                (si, task)
            }));
        drop(fanout_span);

        let merge_span = hd_telemetry::span!("engine_merge_nanos");
        let mut answers = Vec::with_capacity(b);
        for qi in 0..b {
            let mut tk = TopK::new(qp.k);
            for si in 0..s_count {
                let shard_answer = slots[si * b + qi].take().expect("pool completed")?;
                for nb in shard_answer {
                    tk.push(nb);
                }
            }
            answers.push(tk.into_sorted());
        }
        drop(merge_span);

        self.metrics
            .record_batch(b as u64, t0.elapsed().as_nanos() as u64);
        Ok(answers)
    }

    /// Appends a new object, returning its global id. Concurrent with
    /// searches; appends themselves are fully serialized behind one gate —
    /// the simplest way to preserve the round-robin placement invariant.
    /// Ingest throughput therefore does not scale with S; this engine
    /// serves a read-heavy profile, and parallel ingest (per-shard ticket
    /// ordering) is deliberately left to a later PR.
    pub fn insert(&self, vector: &[f32]) -> io::Result<u64> {
        let mut n = self.set.gate.lock();
        let s_count = self.set.shards.len() as u64;
        let (si, expected_local) = shard_of(*n, s_count);
        let shard = &self.set.shards[si];
        // Durability first, under the shard *read* lock: the WAL append and
        // its fsync — the slow part of a write — run while searches on this
        // shard proceed. Only the in-memory/tree mutation below takes the
        // write lock. The append gate (held across both halves) keeps the
        // log and apply order identical.
        let local = shard.read().log_insert(vector)?;
        if local != expected_local {
            // The shard's id watermark disagrees with the engine's count —
            // its directory was modified behind the engine's back. Surface
            // an error on every write rather than panicking the process.
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "shard {si} drifted from round-robin placement \
                     (local id {local}, expected {expected_local})"
                ),
            ));
        }
        shard.write().apply_insert(local, vector)?;
        *n += 1;
        Ok(global_of(si, local, s_count))
    }

    /// Whether `global_id` is stored and not tombstoned — what a search
    /// can still return. The serving layer uses this to distinguish "never
    /// existed / already deleted" (404) from a failed delete.
    pub fn contains_live(&self, global_id: u64) -> bool {
        let n = *self.set.gate.lock();
        if global_id >= n {
            return false;
        }
        let (si, local) = shard_of(global_id, self.set.shards.len() as u64);
        self.set.shards[si].read().is_live(local)
    }

    /// Tombstones a global id so it is never returned again. May schedule a
    /// background compaction (see [`EngineParams::compaction_threshold`]).
    pub fn delete(&self, global_id: u64) -> io::Result<()> {
        {
            let n = self.set.gate.lock();
            if global_id >= *n {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("object {global_id} out of bounds ({n} stored)"),
                ));
            }
            let (si, local) = shard_of(global_id, self.set.shards.len() as u64);
            let shard = &self.set.shards[si];
            // Same split as insert: log + fsync under the read lock,
            // tombstone under the write lock.
            {
                let index = shard.read();
                if !index.contains_id(local) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("object {global_id} was deleted and compacted away"),
                    ));
                }
                index.log_delete(local)?;
            }
            shard.write().apply_delete(local)?;
        }
        self.maybe_schedule_compaction();
        Ok(())
    }

    /// Schedules the background compaction job when a shard's tombstone
    /// density reaches the configured threshold and the compaction slot is
    /// free. Searches, on the shard being rebuilt and on every other, are
    /// never blocked.
    fn maybe_schedule_compaction(&self) {
        let Some(threshold) = self.compaction_threshold else {
            return;
        };
        if let Some((si, slot)) = Self::due(&self.set, &self.slot, threshold) {
            let set = Arc::clone(&self.set);
            let job = move || Self::compact_in_background(&set, slot, threshold);
            self.pool.submit(si, Box::new(job));
        }
    }

    /// The worst shard at or above `threshold`, with the slot taken to
    /// rebuild it, when the slot is free. It probes before taking the slot,
    /// so only a compaction run ever holds it, and every run calls this
    /// after releasing it: a delete that found the slot held is still seen.
    fn due(
        set: &ShardSet,
        slot: &Arc<CompactionSlot>,
        threshold: f64,
    ) -> Option<(usize, SlotGuard)> {
        if slot.state() != SlotState::Free {
            return None;
        }
        let si = Self::worst_shard(set, threshold, |_| false)?;
        Some((si, slot.try_take()?))
    }

    /// The background job: passes at `threshold` while they rebuild
    /// something (carried-over deletes may push a shard back over), then
    /// releases the slot and probes once more. A failed rebuild leaves its
    /// shard serving the current generation (stale files are swept at the
    /// next open) and ends the job; the next delete retries.
    fn compact_in_background(set: &ShardSet, mut slot: SlotGuard, threshold: f64) {
        loop {
            let pass = Self::compact_worst(set, &slot, threshold);
            if matches!(pass, Ok(n) if n > 0) {
                continue;
            }
            let slots = Arc::clone(&slot.0);
            drop(slot);
            match pass.ok().and_then(|_| Self::due(set, &slots, threshold)) {
                Some((_, next)) => slot = next,
                None => return,
            }
        }
    }

    /// The one compaction routine, run with the slot held by the background
    /// job and by [`Self::compact_now`]: compacts the worst shard at or
    /// above `threshold` until none is, each shard at most once per call so
    /// a steady stream of deletes cannot keep one call going. Returns how
    /// many shards it rebuilt.
    fn compact_worst(set: &ShardSet, slot: &SlotGuard, threshold: f64) -> io::Result<usize> {
        let mut rebuilt = vec![false; set.shards.len()];
        while let Some(si) = Self::worst_shard(set, threshold, |si| rebuilt[si]) {
            slot.set(SlotState::Rebuilding(si));
            let installed = Self::compact_shard(set, si);
            slot.set(SlotState::Held);
            installed?;
            rebuilt[si] = true;
        }
        Ok(rebuilt.iter().filter(|&&r| r).count())
    }

    /// The shard with tombstones and the highest density at or above
    /// `threshold`, among those `skip` passes.
    fn worst_shard(set: &ShardSet, threshold: f64, skip: impl Fn(usize) -> bool) -> Option<usize> {
        let mut worst: Option<(usize, f64)> = None;
        for (si, shard) in set.shards.iter().enumerate() {
            let d = shard.read().tombstone_density();
            if d > 0.0 && d >= threshold && !skip(si) && worst.is_none_or(|(_, wd)| d > wd) {
                worst = Some((si, d));
            }
        }
        worst.map(|(si, _)| si)
    }

    /// One shard compaction: build the survivor generation under a read
    /// lock (searches proceed, and so do writes to other shards), then
    /// install it under the append gate plus a brief write lock, carrying
    /// over the writes this shard applied in between. With the gate held no
    /// write is between its WAL record and its apply, so the install
    /// carries over every logged write and its checkpoint may empty the log.
    fn compact_shard(set: &ShardSet, si: usize) -> io::Result<()> {
        let plan = set.shards[si].read().prepare_compaction()?;
        let _gate = set.gate.lock();
        set.shards[si].write().apply_compaction(plan)
    }

    /// Compacts every shard that has tombstones, synchronously, returning
    /// how many shards were rebuilt: the forced path for tests, benches,
    /// `Lifecycle::compact`, and engines running without a background
    /// threshold. It takes the engine's compaction slot, first waiting for
    /// a running background job, so it never overlaps another rebuild. Each
    /// shard is rebuilt at most once per call: a delete that lands after its
    /// shard's rebuild stays a tombstone.
    pub fn compact_now(&self) -> io::Result<usize> {
        let rebuilt = Self::compact_worst(&self.set, &self.slot.take(), 0.0);
        // The slot is free again. Deletes that crossed the threshold while
        // it was held scheduled nothing.
        self.maybe_schedule_compaction();
        rebuilt
    }

    /// One aggregated "can this engine serve?" view for health endpoints,
    /// using the engine's own compaction threshold as the backlog yardstick.
    /// See [`Self::health_against`] for the semantics.
    pub fn health(&self) -> EngineHealth {
        self.health_against(self.compaction_threshold)
    }

    /// [`Self::health`] judged against an explicit tombstone-density
    /// `threshold` (tests use this to probe verdicts the engine's own
    /// configuration would immediately repair).
    ///
    /// Aggregates, per shard: openness (the read lock is acquired and the
    /// shard answers basic accessors — a shard wedged behind a poisoned
    /// write path would block here, which is exactly what a health probe
    /// should observe), compaction backlog (shards at or above `threshold`
    /// other than the one being rebuilt), and WAL state (committed bytes an
    /// open would replay, i.e. writes not yet snapshotted). The compaction
    /// slot is read once, without waiting for its holder.
    ///
    /// The verdict is `healthy = false` only when **every** shard is
    /// backlogged and no compaction holds the slot: maintenance has
    /// demonstrably stopped keeping up, so admission control should shed
    /// load. Tombstone debt on some shards degrades recall/latency but the
    /// engine still serves — that state stays `healthy = true` with the
    /// numbers exposed for dashboards to alarm on.
    pub fn health_against(&self, threshold: Option<f64>) -> EngineHealth {
        let slot = self.slot.state();
        let mut health = EngineHealth {
            shards: self.set.shards.len(),
            compacting_shards: usize::from(slot != SlotState::Free),
            compaction_backlog: 0,
            max_tombstone_density: 0.0,
            wal_tail_bytes: 0,
            live_len: 0,
            healthy: true,
            status: String::new(),
        };
        for (si, shard) in self.set.shards.iter().enumerate() {
            let index = shard.read();
            let density = index.tombstone_density();
            health.max_tombstone_density = health.max_tombstone_density.max(density);
            health.wal_tail_bytes += index.wal_tail_bytes();
            health.live_len += index.live_len() as u64;
            if threshold.is_some_and(|t| density >= t) && slot != SlotState::Rebuilding(si) {
                health.compaction_backlog += 1;
            }
        }
        if health.compaction_backlog == health.shards && slot == SlotState::Free {
            health.healthy = false;
            health.status = format!(
                "every shard is above the compaction threshold (max density {:.3}) and no \
                 compaction is running",
                health.max_tombstone_density
            );
        } else {
            health.status = "ok".to_string();
        }
        health
    }

    /// Whether a compaction holds the engine's slot: a background job
    /// (from the delete that scheduled it until it finds no shard left to
    /// rebuild) or a [`Self::compact_now`] call. Reads the slot without
    /// waiting for its holder.
    pub fn compacting(&self) -> bool {
        self.slot.state() != SlotState::Free
    }

    /// Snapshots every shard: WAL-committed writes become part of the data
    /// files and each shard's log is emptied (see `HdIndex::save`).
    pub fn save(&self) -> io::Result<()> {
        // The gate keeps writes out while shards snapshot one by one.
        let _gate = self.set.gate.lock();
        for shard in &self.set.shards {
            shard.write().save()?;
        }
        Ok(())
    }

    /// Total objects across all shards (including tombstoned ones).
    pub fn len(&self) -> u64 {
        *self.set.gate.lock()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.set.shards.len()
    }

    /// The metric every shard serves (shards are verified to agree at
    /// open time).
    pub fn metric(&self) -> hd_core::metric::Metric {
        self.set.shards[0].read().metric()
    }

    /// Engine directory (shard subdirectories live underneath).
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Serving statistics: QPS, latency percentiles, aggregated IO.
    ///
    /// (Named `serving_stats` so it cannot be confused with the unified
    /// [`hd_core::api::AnnIndex::stats`] resource accounting.)
    pub fn serving_stats(&self) -> EngineStats {
        self.metrics.snapshot(self.set.io_stats())
    }

    /// The fleet-wide page-cache budget, when one was configured — its
    /// `used()` never exceeds `capacity()` no matter how many pools the
    /// shards opened.
    pub fn cache_budget(&self) -> Option<&hd_storage::CacheBudget> {
        self.set.budget.as_ref()
    }

    /// Resets the IO ledgers of every shard *and* the serving metrics
    /// (latency histogram, query/batch counters, busy time), so a bench
    /// phase that calls this measures from a clean slate on both axes.
    pub fn reset_io_stats(&self) {
        for shard in &self.set.shards {
            shard.read().reset_io_stats();
        }
        self.metrics.reset();
    }

    /// Total on-disk footprint across shards.
    pub fn disk_bytes(&self) -> u64 {
        self.set.shards.iter().map(|s| s.read().disk_bytes()).sum()
    }

    /// Query-resident memory across shards (reference sets + caches). The
    /// cache portion is capped by the shared budget when one is set.
    pub fn memory_bytes(&self) -> usize {
        self.set
            .shards
            .iter()
            .map(|s| s.read().memory_bytes())
            .sum()
    }

    /// The [`QueryParams`] used when the engine is queried through the
    /// [`hd_core::api::AnnIndex`] trait.
    pub fn serve_params(&self) -> &QueryParams {
        &self.serve
    }

    /// Sets the trait-level default [`QueryParams`]. Per-call
    /// [`hd_core::api::SearchRequest`] knobs still override α and γ; `k`
    /// always comes from the request.
    pub fn set_serve_params(&mut self, qp: QueryParams) {
        self.serve = qp;
    }
}

impl AnnIndex for Engine {
    fn len(&self) -> u64 {
        Engine::len(self)
    }

    fn dim(&self) -> usize {
        self.set.shards[0].read().dim()
    }

    fn metric(&self) -> hd_core::metric::Metric {
        Engine::metric(self)
    }

    /// One-query batch through the sharded pipeline; `candidates` → α per
    /// RDB-tree of every shard, `refine` → γ, `time_budget` → batch-level
    /// deadline.
    fn search_core(&self, query: &[f32], req: &SearchRequest) -> io::Result<SearchOutput> {
        Ok(AnnIndex::search_batch(self, &[query], req)?
            .pop()
            .expect("one answer per query"))
    }

    /// True batched execution: one task per shard on the engine's worker
    /// pool, exact-merged per query — result-identical to sequential
    /// [`AnnIndex::search`] calls (the conformance suite checks this),
    /// including the metric-expectation guard the provided `search`
    /// applies (sequential calls would all fail, so the batch must too).
    fn search_batch(
        &self,
        queries: &[&[f32]],
        req: &SearchRequest,
    ) -> io::Result<Vec<SearchOutput>> {
        check_metric(req, self.metric())?;
        let k = req.k.min(self.len() as usize);
        if k == 0 {
            return Ok(queries.iter().map(|_| SearchOutput::default()).collect());
        }
        let qp = self
            .serve
            .resolve(&SearchRequest { k, ..*req }, self.len() as usize);
        let deadline = req.time_budget.map(|b| Instant::now() + b);
        let answers = self.run_batch(queries, &qp, deadline)?;
        Ok(answers
            .into_iter()
            .map(SearchOutput::from_neighbors)
            .collect())
    }

    fn stats(&self) -> IndexStats {
        // Peak construction memory: every shard builds in parallel, so the
        // sort-buffer estimate applies to the whole corpus at once. `len`
        // takes the append gate, so it runs before any shard guard is held.
        let n = self.len() as usize;
        let build_memory_bytes = {
            let shard0 = self.set.shards[0].read();
            shard0.params().build_memory_bytes(n, shard0.dim())
        };
        let mut stored = 0u64;
        let mut live = 0u64;
        let mut write = WriteStats::default();
        for shard in &self.set.shards {
            let index = shard.read();
            stored += index.len();
            live += index.live_len() as u64;
            let w = index.write_stats();
            write.wal_records += w.wal_records;
            write.wal_commits += w.wal_commits;
            write.wal_replayed += w.wal_replayed;
            write.compactions += w.compactions;
        }
        IndexStats {
            disk_bytes: self.disk_bytes(),
            memory_bytes: self.memory_bytes(),
            build_memory_bytes,
            io: self.serving_stats().io,
            metric: self.metric(),
            stored_len: stored,
            live_len: live,
            write,
        }
    }

    fn reset_io_stats(&self) {
        Engine::reset_io_stats(self);
    }

    fn lifecycle(&mut self) -> Option<&mut dyn Lifecycle> {
        Some(self)
    }
}

/// Who holds an engine's compaction slot.
#[derive(Clone, Copy, PartialEq, Default)]
enum SlotState {
    #[default]
    Free,
    /// Held by a queued job, or by a run between rebuilds.
    Held,
    Rebuilding(usize),
}

/// The engine's one compaction slot (DESIGN.md §9): every rebuild, the
/// background job's and [`Engine::compact_now`]'s, runs holding it. Its
/// lock is held only for a transition, never across a rebuild, so reading
/// the slot never waits on one.
#[derive(Default)]
struct CompactionSlot {
    state: Mutex<SlotState>,
    freed: Condvar,
}

impl CompactionSlot {
    fn state(&self) -> SlotState {
        *self.state.lock()
    }

    /// Takes the slot if it is free.
    fn try_take(self: &Arc<Self>) -> Option<SlotGuard> {
        let mut state = self.state.lock();
        (*state == SlotState::Free).then(|| {
            *state = SlotState::Held;
            SlotGuard(Arc::clone(self))
        })
    }

    /// Takes the slot, waiting for its holder to release it.
    fn take(self: &Arc<Self>) -> SlotGuard {
        let held = |s: &mut SlotState| *s != SlotState::Free;
        *self.freed.wait_while(self.state.lock(), held) = SlotState::Held;
        SlotGuard(Arc::clone(self))
    }
}

/// A held compaction slot; dropping it frees the slot.
struct SlotGuard(Arc<CompactionSlot>);

impl SlotGuard {
    fn set(&self, state: SlotState) {
        *self.0.state.lock() = state;
    }
}

impl Drop for SlotGuard {
    fn drop(&mut self) {
        self.set(SlotState::Free);
        self.0.freed.notify_all();
    }
}

impl Lifecycle for Engine {
    fn insert(&mut self, vector: &[f32]) -> io::Result<u64> {
        Engine::insert(self, vector)
    }

    fn delete(&mut self, id: u64) -> io::Result<()> {
        Engine::delete(self, id)
    }

    fn flush(&mut self) -> io::Result<()> {
        Engine::save(self)
    }

    fn compact(&mut self) -> io::Result<bool> {
        Engine::compact_now(self).map(|rebuilt| rebuilt > 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_core::dataset::{generate, DatasetProfile};
    use hd_index::HdIndexParams;

    /// `build_budget_bytes` caps the initial build only: a reopened engine
    /// with a small one compacts both shards by copying their live
    /// entries, spilling nothing, and answers exactly as before.
    #[test]
    fn reopened_engine_compacts_without_the_build_budget() {
        let dir =
            std::env::temp_dir().join(format!("hd_engine_reopen_budget_{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        let (data, queries) = generate(&DatasetProfile::SIFT, 1200, 8, 7);
        let params = EngineParams {
            shards: 2,
            threads: 2,
            build_budget_bytes: 16 << 10,
            ..EngineParams::new(HdIndexParams {
                tau: 4,
                num_references: 5,
                ..HdIndexParams::for_profile(&DatasetProfile::SIFT)
            })
        };
        let built = Engine::build(&data, &params, &dir).unwrap();
        built.save().unwrap();
        drop(built);

        let engine = Engine::open(&dir, &params).unwrap();
        let deleted: Vec<u64> = (0..engine.len()).filter(|id| id % 10 < 3).collect();
        for &id in &deleted {
            engine.delete(id).unwrap();
        }
        // Saturated budgets: every answer is exact over the live set.
        let qp = QueryParams::triangular(1200, 1200, 10);
        let answers = |engine: &Engine| -> Vec<Vec<(u64, u32)>> {
            queries
                .iter()
                .map(|q| {
                    let answer = engine.search(q, &qp).unwrap();
                    answer.iter().map(|n| (n.id, n.dist.to_bits())).collect()
                })
                .collect()
        };
        let want = answers(&engine);
        assert!(want.iter().flatten().all(|(id, _)| !deleted.contains(id)));

        assert_eq!(engine.compact_now().unwrap(), 2);
        for shard in &engine.set.shards {
            let shard = shard.read();
            assert_eq!(shard.write_stats().compactions, 1);
            assert_eq!(shard.build_stats().spilled_runs, 0);
        }
        assert_eq!(answers(&engine), want);
        drop(engine);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A shard count the corpus cannot fill is a typed error, not a panic.
    #[test]
    fn build_rejects_shard_counts_the_corpus_cannot_fill() {
        let dir = std::env::temp_dir().join(format!("hd_engine_bad_shards_{}", std::process::id()));
        let (data, _) = generate(&DatasetProfile::SIFT, 3, 1, 8);
        for shards in [0, 4] {
            let params = EngineParams {
                shards,
                threads: 1,
                ..EngineParams::new(HdIndexParams {
                    tau: 4,
                    num_references: 1,
                    ..HdIndexParams::for_profile(&DatasetProfile::SIFT)
                })
            };
            let err = Engine::build(&data, &params, &dir).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "{shards} shards");
            assert!(err.to_string().contains("3 objects over"), "{err}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
