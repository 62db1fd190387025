//! The serving engine: batched, concurrent kANN over a shard fleet.

use crate::config::EngineParams;
use crate::metrics::{EngineMetrics, EngineStats};
use crate::shard::{global_of, shard_of, Shard, ShardSet};
use hd_core::api::{
    check_metric, AnnIndex, IndexStats, Lifecycle, SearchOutput, SearchRequest, WriteStats,
};
use hd_core::dataset::Dataset;
use hd_core::pool::WorkerPool;
use hd_core::topk::{Neighbor, TopK};
use hd_index::{PreparedQuery, QueryParams};
use parking_lot::Mutex;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
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
    set: ShardSet,
    pool: WorkerPool,
    metrics: EngineMetrics,
    /// Total object count; serializes appends so the round-robin placement
    /// invariant (`global id n → shard n mod S`) holds under concurrency.
    /// Shared (`Arc`) with background compaction jobs, which take it while
    /// installing a rebuilt shard so no write can interleave with the swap.
    append_gate: Arc<Mutex<u64>>,
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
    /// Shards with a background compaction currently in flight.
    pub compacting_shards: usize,
    /// Shards at or above the judging threshold with no compaction running
    /// for them. `0` when no threshold is configured.
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
            .field("n", &*self.append_gate.lock())
            .finish()
    }
}

impl Engine {
    /// Builds a fresh engine over `data` in `dir`: selects one reference
    /// set over the full corpus, splits the data round-robin, and builds
    /// all shards in parallel on the engine's own pool.
    pub fn build(data: &Dataset, params: &EngineParams, dir: impl AsRef<Path>) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let pool = WorkerPool::new(params.resolved_threads());
        let set = ShardSet::build(data, params, &dir, &pool)?;
        let n = set.len();
        Ok(Self {
            set,
            pool,
            metrics: EngineMetrics::new(),
            append_gate: Arc::new(Mutex::new(n)),
            compaction_threshold: params.compaction_threshold,
            dir,
            serve: QueryParams::default(),
        })
    }

    /// Reopens an engine previously built in `dir`. The shard count comes
    /// from the on-disk metadata; `params` supplies the serving knobs
    /// (threads, cache pages, cache budget).
    pub fn open(dir: impl AsRef<Path>, params: &EngineParams) -> io::Result<Self> {
        let dir = dir.as_ref().to_path_buf();
        let set = ShardSet::open(&dir, params)?;
        let n = set.len();
        Ok(Self {
            set,
            pool: WorkerPool::new(params.resolved_threads()),
            metrics: EngineMetrics::new(),
            append_gate: Arc::new(Mutex::new(n)),
            compaction_threshold: params.compaction_threshold,
            dir,
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
    pub fn search_batch<'q, I>(&self, queries: I, qp: &QueryParams) -> io::Result<Vec<Vec<Neighbor>>>
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
                    let index = shard.index.read();
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
        let mut n = self.append_gate.lock();
        let s_count = self.set.shards.len() as u64;
        let (si, expected_local) = shard_of(*n, s_count);
        let shard = &self.set.shards[si];
        // Durability first, under the shard *read* lock: the WAL append and
        // its fsync — the slow part of a write — run while searches on this
        // shard proceed. Only the in-memory/tree mutation below takes the
        // write lock. The append gate (held across both halves) keeps the
        // log and apply order identical.
        let local = shard.index.read().log_insert(vector)?;
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
        shard.index.write().apply_insert(local, vector)?;
        *n += 1;
        Ok(global_of(si, local, s_count))
    }

    /// Tombstones a global id so it is never returned again. May schedule a
    /// background compaction (see [`EngineParams::compaction_threshold`]).
    /// Whether `global_id` is stored and not tombstoned — what a search
    /// can still return. The serving layer uses this to distinguish "never
    /// existed / already deleted" (404) from a failed delete.
    pub fn contains_live(&self, global_id: u64) -> bool {
        let n = *self.append_gate.lock();
        if global_id >= n {
            return false;
        }
        let (si, local) = shard_of(global_id, self.set.shards.len() as u64);
        self.set.shards[si].index.read().is_live(local)
    }

    pub fn delete(&self, global_id: u64) -> io::Result<()> {
        {
            let n = self.append_gate.lock();
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
                let index = shard.index.read();
                if !index.contains_id(local) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!("object {global_id} was deleted and compacted away"),
                    ));
                }
                index.log_delete(local)?;
            }
            shard.index.write().apply_delete(local)?;
        }
        self.maybe_schedule_compaction();
        Ok(())
    }

    /// Schedules a background compaction of the worst shard when its
    /// tombstone density crosses the configured threshold. At most one
    /// compaction per shard runs at a time; searches on other shards (and
    /// on this one, while the rebuild runs) are never blocked.
    fn maybe_schedule_compaction(&self) {
        let Some(threshold) = self.compaction_threshold else {
            return;
        };
        let mut worst: Option<(usize, f64)> = None;
        for (si, shard) in self.set.shards.iter().enumerate() {
            if shard.compacting.load(Ordering::Acquire) {
                continue;
            }
            let d = shard.index.read().tombstone_density();
            if d >= threshold && worst.is_none_or(|(_, wd)| d > wd) {
                worst = Some((si, d));
            }
        }
        if let Some((si, _)) = worst {
            self.spawn_compaction(si);
        }
    }

    /// Submits a compaction of shard `si` to the worker pool, unless one is
    /// already in flight for it.
    fn spawn_compaction(&self, si: usize) {
        let shard = Arc::clone(&self.set.shards[si]);
        if shard.compacting.swap(true, Ordering::AcqRel) {
            return;
        }
        let gate = Arc::clone(&self.append_gate);
        let threshold = self.compaction_threshold.unwrap_or(f64::INFINITY);
        self.pool.submit(
            si,
            Box::new(move || {
                // A plan prepared while writes keep landing on this shard is
                // discarded by the epoch check — and the trailing delete saw
                // `compacting` set, so nobody reschedules. Retry here until
                // the shard either compacts or drops below the threshold;
                // each retry prepares against fresher state, and once the
                // write burst ends the next plan installs. Failure leaves
                // the shard serving its current generation (stale files are
                // swept at the next open); the flag flips back either way so
                // the next delete can retry.
                loop {
                    match Self::compact_shard(&shard, &gate) {
                        Ok(true) | Err(_) => break,
                        Ok(false) => {
                            if shard.index.read().tombstone_density() < threshold {
                                break;
                            }
                        }
                    }
                }
                shard.compacting.store(false, Ordering::Release);
            }),
        );
    }

    /// One shard compaction: build the survivor generation under a read
    /// lock (searches proceed, and so do writes to other shards), then
    /// install it under the append gate plus a brief write lock. If a write
    /// landed on this shard while the rebuild ran, the plan is discarded —
    /// the next trigger retries against the newer state.
    fn compact_shard(shard: &Shard, gate: &Mutex<u64>) -> io::Result<bool> {
        let plan = {
            let index = shard.index.read();
            if index.tombstone_density() == 0.0 {
                return Ok(false);
            }
            index.prepare_compaction()?
        };
        // Gate before write lock (the engine's universal lock order). With
        // the gate held no new WAL record can be logged, so the epoch check
        // inside apply_compaction is race-free.
        let _gate = gate.lock();
        shard.index.write().apply_compaction(plan)
    }

    /// Compacts every shard that has tombstones, synchronously, returning
    /// how many shards were rebuilt. The forced path for tests, benches,
    /// and engines running without a background threshold.
    pub fn compact_now(&self) -> io::Result<usize> {
        let mut rebuilt = 0;
        for shard in &self.set.shards {
            if Self::compact_shard(shard, &self.append_gate)? {
                rebuilt += 1;
            }
        }
        Ok(rebuilt)
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
    /// with no compaction in flight for them), and WAL state (committed
    /// bytes an open would replay, i.e. writes not yet snapshotted).
    ///
    /// The verdict is `healthy = false` only when **every** shard is
    /// backlogged and none is compacting: maintenance has demonstrably
    /// stopped keeping up, so admission control should shed load. Tombstone
    /// debt on some shards degrades recall/latency but the engine still
    /// serves — that state stays `healthy = true` with the numbers exposed
    /// for dashboards to alarm on.
    pub fn health_against(&self, threshold: Option<f64>) -> EngineHealth {
        let mut health = EngineHealth {
            shards: self.set.shards.len(),
            compacting_shards: 0,
            compaction_backlog: 0,
            max_tombstone_density: 0.0,
            wal_tail_bytes: 0,
            live_len: 0,
            healthy: true,
            status: String::new(),
        };
        for shard in &self.set.shards {
            let compacting = shard.compacting.load(Ordering::Acquire);
            let index = shard.index.read();
            let density = index.tombstone_density();
            health.compacting_shards += usize::from(compacting);
            health.max_tombstone_density = health.max_tombstone_density.max(density);
            health.wal_tail_bytes += index.wal_tail_bytes();
            health.live_len += index.live_len() as u64;
            if threshold.is_some_and(|t| density >= t) && !compacting {
                health.compaction_backlog += 1;
            }
        }
        if health.compaction_backlog == health.shards {
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

    /// Whether any background shard compaction is currently in flight.
    pub fn compacting(&self) -> bool {
        self.set
            .shards
            .iter()
            .any(|s| s.compacting.load(Ordering::Acquire))
    }

    /// Snapshots every shard: WAL-committed writes become part of the data
    /// files and each shard's log is emptied (see `HdIndex::save`).
    pub fn save(&self) -> io::Result<()> {
        // The gate keeps writes out while shards snapshot one by one.
        let _gate = self.append_gate.lock();
        for shard in &self.set.shards {
            shard.index.write().save()?;
        }
        Ok(())
    }

    /// Total objects across all shards (including tombstoned ones).
    pub fn len(&self) -> u64 {
        *self.append_gate.lock()
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
        self.set.shards[0].index.read().metric()
    }

    /// Worker threads in the serving pool.
    pub fn threads(&self) -> usize {
        self.pool.threads()
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
            shard.index.read().reset_io_stats();
        }
        self.metrics.reset();
    }

    /// Total on-disk footprint across shards.
    pub fn disk_bytes(&self) -> u64 {
        self.set
            .shards
            .iter()
            .map(|s| s.index.read().disk_bytes())
            .sum()
    }

    /// Query-resident memory across shards (reference sets + caches). The
    /// cache portion is capped by the shared budget when one is set.
    pub fn memory_bytes(&self) -> usize {
        self.set
            .shards
            .iter()
            .map(|s| s.index.read().memory_bytes())
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
        self.set.shards[0].index.read().dim()
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
    fn search_batch(&self, queries: &[&[f32]], req: &SearchRequest) -> io::Result<Vec<SearchOutput>> {
        check_metric(req, self.metric())?;
        let k = req.k.min(self.len() as usize);
        if k == 0 {
            return Ok(queries.iter().map(|_| SearchOutput::default()).collect());
        }
        let qp = self.serve.resolve(&SearchRequest { k, ..*req }, self.len() as usize);
        let deadline = req.time_budget.map(|b| Instant::now() + b);
        let answers = self.run_batch(queries, &qp, deadline)?;
        Ok(answers.into_iter().map(SearchOutput::from_neighbors).collect())
    }

    fn stats(&self) -> IndexStats {
        // Peak construction memory: every shard builds in parallel, so the
        // sort-buffer estimate applies to the whole corpus at once (same
        // per-entry formula as `HdIndex`).
        let shard0 = self.set.shards[0].index.read();
        let params = shard0.params().clone();
        let dim = shard0.dim();
        drop(shard0);
        let n = self.len() as usize;
        let m = params.num_references;
        let eta = dim.div_ceil(params.tau);
        let entry = eta * params.hilbert_order as usize / 8 + 8 + 4 * m + 48;
        let mut stored = 0u64;
        let mut live = 0u64;
        let mut write = WriteStats::default();
        for shard in &self.set.shards {
            let index = shard.index.read();
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
            build_memory_bytes: n * (entry + 4 * m),
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
