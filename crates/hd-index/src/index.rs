//! The [`HdIndex`] itself: its state, accessors, id/slot helpers, IO and
//! memory accounting, and the [`AnnIndex`]/[`Lifecycle`] impls. Each
//! lifecycle stage lives in its own submodule, which sees the private
//! state: construction and reopening (Algorithm 1) in `open`, inserts and
//! deletes (§3.6) in `write`, the tombstone sweep in `compaction`, and
//! the file-naming and commit protocol they share in `generation`.
//! Querying (Algorithm 2) lives in the crate's `query` module.

use crate::codes::RefineCodes;
use crate::config::{HdIndexParams, QueryParams};
use crate::live::{IdMap, IdSet};
use crate::rdb::RefGrid;
use crate::reference::ReferenceSet;
use hd_btree::BTree;
use hd_core::api::{AnnIndex, IndexStats, Lifecycle, SearchOutput, SearchRequest};
use hd_core::metric::Metric;
use hd_core::partition::Partitioning;
use hd_hilbert::HilbertCurve;
use hd_storage::{BufferPool, BuildBudget, CacheBudget, IoSnapshot, VectorHeap, Wal};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

mod compaction;
mod generation;
mod open;
mod write;

pub use compaction::CompactionPlan;

/// Optional knobs for [`HdIndex::build_with`] / [`HdIndex::open_with`]
/// beyond [`HdIndexParams`]. The defaults reproduce [`HdIndex::build`].
#[derive(Debug, Clone, Default)]
pub struct BuildOpts {
    /// Use this reference set instead of selecting one from the data. A
    /// sharded engine selects references over the *full* corpus once and
    /// passes the same set to every shard, so query-to-reference distances
    /// are computed once per query and shared across shards.
    pub references: Option<ReferenceSet>,
    /// Shared page-cache quota charged by all τ+1 pools of this index (and
    /// by any other index holding a clone); per-pool capacity still comes
    /// from `query_cache_pages`. The build writes its files uncached, so
    /// the quota is charged only once the built index serves.
    pub cache_budget: Option<CacheBudget>,
    /// Working-memory cap for construction (DESIGN.md §11): chunk buffers
    /// and external-sort buffers are charged here, and the sorter spills
    /// runs to disk when it fills. `None` builds unbounded (the sorter
    /// never spills — the classic in-memory build as a degenerate case). A
    /// sharded engine clones one budget into every parallel shard build the
    /// way `cache_budget` is shared at query time. It caps the build only:
    /// a compaction copies the live leaf entries of the serving trees and
    /// needs no chunk or sort buffer.
    pub build_budget: Option<BuildBudget>,
    /// Keep one byte per dimension per object in memory and refine in two
    /// phases: bound every candidate from its codes, then fetch only those
    /// that can still enter the top-k (DESIGN.md §3). Answers are
    /// identical either way; the codes cost `n·d` bytes of RAM and no
    /// disk. Off by default, the paper's memory model (only the
    /// references stay in RAM). The choice is persisted: reopening and
    /// compacting follow it. The codes are derived from the heap when the
    /// index comes up, after a build as after a reopen; they are the
    /// index's resident state, not construction working memory, so
    /// `build_budget` does not cap them.
    pub refine_codes: bool,
}

/// How the streaming build that created this index behaved: external-sort
/// spill volume and scratch-file block transfers (DESIGN.md §11). All zero
/// for an index opened from disk, and for builds whose budget never filled
/// (nothing spilled).
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildStats {
    /// Sorted runs spilled across all τ trees.
    pub spilled_runs: u64,
    /// Bytes written to spill runs across all τ trees.
    pub spilled_bytes: u64,
    /// Scratch-file block transfers (spill runs, merge reads, the
    /// ref-distance file), in `DEFAULT_PAGE_SIZE` units.
    pub scratch_io: IoSnapshot,
}

/// The HD-Index: τ RDB-trees over Hilbert keys plus a vector heap file.
pub struct HdIndex {
    pub(crate) params: HdIndexParams,
    pub(crate) partitioning: Partitioning,
    pub(crate) curves: Vec<HilbertCurve>,
    pub(crate) trees: Vec<BTree>,
    pub(crate) heap: VectorHeap,
    pub(crate) refs: ReferenceSet,
    /// The grid the leaf entries' reference-distance codes sit on, fitted
    /// by the build and persisted in the meta; inserts encode on it too.
    pub(crate) ref_grid: RefGrid,
    /// Deleted ids, until a compaction drops them.
    pub(crate) tombstones: IdSet,
    pub(crate) dim: usize,
    /// The metric this index was built under (from the dataset); persisted
    /// in the meta file and enforced at reopen.
    pub(crate) metric: Metric,
    dir: PathBuf,
    /// Default query-time parameters used when this index is driven through
    /// the [`hd_core::api::AnnIndex`] trait (which only carries `k` and
    /// generic budget knobs). Set with [`HdIndex::set_serve_params`].
    serve: QueryParams,
    /// The write-ahead log: every insert/delete is logged and fsynced
    /// *before* the trees/heap are touched, so a crash loses nothing that
    /// was acknowledged.
    wal: Wal,
    /// `heap slot ↔ original object id`; `None` means identity. Becomes
    /// `Some` after a compaction drops tombstoned slots: survivors keep
    /// their ids while their heap slots shift down.
    pub(crate) id_map: Option<IdMap>,
    /// Per heap slot, the vector's refine codes, when the index was built
    /// with [`BuildOpts::refine_codes`].
    pub(crate) codes: Option<RefineCodes>,
    /// Next object id to assign; never reused, so it exceeds the stored
    /// count once a compaction has dropped slots. Atomic so the engine can
    /// reserve ids while logging under a shard *read* lock.
    next_id: AtomicU64,
    /// Bumped by every snapshot/compaction; WAL `Checkpoint` records carry
    /// it so replay can skip what the snapshot captured.
    snapshot_version: u64,
    /// Current data-file generation (see [`generation::tree_file`]).
    generation: u64,
    /// Compactions applied since open.
    compactions: u64,
    /// Shared cache quota the pools charge; kept so compaction can open
    /// the next generation's pools under the same budget.
    cache_budget: Option<CacheBudget>,
    /// Spill/scratch accounting of the build that created this index.
    build_stats: BuildStats,
}

impl std::fmt::Debug for HdIndex {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HdIndex")
            .field("n", &self.heap.len())
            .field("dim", &self.dim)
            .field("tau", &self.params.tau)
            .field("m", &self.refs.m())
            .finish()
    }
}

impl HdIndex {
    pub fn len(&self) -> u64 {
        self.heap.len()
    }

    /// Objects that are stored and not tombstoned — the most candidates
    /// any query can actually touch.
    pub fn live_len(&self) -> usize {
        self.heap.len() as usize - self.tombstones.len()
    }

    /// Fraction of stored slots that are tombstoned — the signal compaction
    /// triggers on. 0 when nothing is stored.
    pub fn tombstone_density(&self) -> f64 {
        if self.heap.is_empty() {
            0.0
        } else {
            self.tombstones.len() as f64 / self.heap.len() as f64
        }
    }

    /// The next object id this index will assign.
    pub fn next_id(&self) -> u64 {
        self.next_id.load(Ordering::Relaxed)
    }

    /// Whether object `id` is stored (tombstoned or not). Ids at or past
    /// [`Self::next_id`] and ids whose slot a compaction dropped are absent.
    pub fn contains_id(&self, id: u64) -> bool {
        self.slot_of(id).is_some()
    }

    /// The heap slot holding object `id`, if it is stored. O(1): identity
    /// until the first compaction, then the id map's dense inverse.
    #[inline]
    pub(crate) fn slot_of(&self, id: u64) -> Option<u64> {
        match &self.id_map {
            None => (id < self.heap.len()).then_some(id),
            Some(map) => map.slot(id),
        }
    }

    /// The heap slot of object `id` if a query may return it (stored and
    /// not tombstoned) — the per-entry check of the candidate walk.
    #[inline]
    pub(crate) fn live_slot(&self, id: u64) -> Option<u64> {
        if self.tombstones.contains(id) {
            return None;
        }
        self.slot_of(id)
    }

    /// The object id stored at heap `slot`.
    #[inline]
    pub(crate) fn id_at(&self, slot: u64) -> u64 {
        match &self.id_map {
            None => slot,
            Some(map) => map.id(slot),
        }
    }

    /// Whether object `id` is stored *and* not tombstoned — i.e. a query
    /// can still return it.
    pub fn is_live(&self, id: u64) -> bool {
        self.live_slot(id).is_some()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The metric this index was built under and serves.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// The parameters read back from the meta. The knobs that only steer
    /// selection at build time (`ref_selection`, `random_partitioning`,
    /// `seed`) are not persisted and read as their defaults; their results
    /// (the reference set, the partitioning) are.
    pub fn params(&self) -> &HdIndexParams {
        &self.params
    }

    /// The [`QueryParams`] used when this index is queried through the
    /// [`hd_core::api::AnnIndex`] trait.
    pub fn serve_params(&self) -> &QueryParams {
        &self.serve
    }

    /// Sets the trait-level default [`QueryParams`] (filter kind, α/β/γ).
    /// Per-call [`hd_core::api::SearchRequest`] knobs still override α and
    /// γ; `k` always comes from the request.
    pub fn set_serve_params(&mut self, qp: QueryParams) {
        self.serve = qp;
    }

    pub fn references(&self) -> &ReferenceSet {
        &self.refs
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Whether an object is deleted.
    pub fn is_deleted(&self, id: u64) -> bool {
        self.tombstones.contains(id)
    }

    /// The τ tree pools followed by the heap pool.
    fn pools(&self) -> impl Iterator<Item = &BufferPool> {
        self.trees
            .iter()
            .map(|t| t.pool().as_ref())
            .chain([self.heap.pool()])
    }

    /// Aggregated IO counters over all τ tree pools and the heap pool.
    pub fn io_stats(&self) -> IoSnapshot {
        self.pools().map(BufferPool::stats).sum()
    }

    pub fn reset_io_stats(&self) {
        self.pools().for_each(BufferPool::reset_stats);
    }

    /// Total on-disk index size (trees + heap), the paper's "index size".
    pub fn disk_bytes(&self) -> u64 {
        self.trees.iter().map(|t| t.disk_bytes()).sum::<u64>() + self.heap.disk_bytes()
    }

    /// On-disk size of the RDB-trees alone (excluding raw data).
    pub fn tree_disk_bytes(&self) -> u64 {
        self.trees.iter().map(|t| t.disk_bytes()).sum()
    }

    /// Query-resident memory: reference set + buffer-pool caches + refine
    /// codes. With the paper's configuration (cache off, codes off) this is
    /// just the references — the "≤ 40 MB querying footprint" of Fig.
    /// 8e/j/o; [`BuildOpts::refine_codes`] adds `n·d` bytes.
    pub fn memory_bytes(&self) -> usize {
        self.refs.memory_bytes()
            + self.pools().map(BufferPool::memory_bytes).sum::<usize>()
            + self.codes.as_ref().map_or(0, RefineCodes::memory_bytes)
    }

    /// Whether this index keeps refine codes ([`BuildOpts::refine_codes`]).
    pub fn has_refine_codes(&self) -> bool {
        self.codes.is_some()
    }

    /// Spill/scratch accounting of the streaming build that created this
    /// index in this process (DESIGN.md §11); all zero once it comes up
    /// from disk. A compaction builds nothing and leaves it unchanged.
    pub fn build_stats(&self) -> BuildStats {
        self.build_stats
    }

    /// Leaf order Ω of tree `g` (for Table 3 style reporting).
    pub fn leaf_order(&self, g: usize) -> usize {
        self.trees[g].leaf_order()
    }

    /// Height of tree `g`.
    pub fn tree_height(&self, g: usize) -> u32 {
        self.trees[g].height()
    }
}

impl AnnIndex for HdIndex {
    fn len(&self) -> u64 {
        self.heap.len()
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    /// Maps the request onto [`QueryParams`]: `candidates` → α (per tree),
    /// `refine` → γ, filter kind and β from [`HdIndex::serve_params`]
    /// ([`QueryParams::resolve`]).
    fn search_core(&self, query: &[f32], req: &SearchRequest) -> io::Result<SearchOutput> {
        let qp = self.serve.resolve(req, self.heap.len() as usize);
        let (neighbors, trace) = self.knn_traced(query, &qp)?;
        Ok(SearchOutput {
            neighbors,
            trace: req.trace.then_some(trace),
        })
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            disk_bytes: self.disk_bytes(),
            memory_bytes: self.memory_bytes(),
            build_memory_bytes: self
                .params
                .build_memory_bytes(self.heap.len() as usize, self.dim),
            io: self.io_stats(),
            metric: self.metric,
            stored_len: self.heap.len(),
            live_len: self.live_len() as u64,
            write: self.write_stats(),
        }
    }

    fn reset_io_stats(&self) {
        HdIndex::reset_io_stats(self);
    }

    fn lifecycle(&mut self) -> Option<&mut dyn Lifecycle> {
        Some(self)
    }
}

impl Lifecycle for HdIndex {
    fn insert(&mut self, vector: &[f32]) -> io::Result<u64> {
        HdIndex::insert(self, vector)
    }

    fn delete(&mut self, id: u64) -> io::Result<()> {
        HdIndex::delete(self, id)
    }

    fn flush(&mut self) -> io::Result<()> {
        HdIndex::save(self)
    }

    fn compact(&mut self) -> io::Result<bool> {
        HdIndex::compact(self)
    }
}

#[cfg(test)]
mod tests {
    use super::generation::file_generation;
    use super::testutil::{answer_bits, build_both_ways, build_coded, small_params, test_dir};
    use super::*;
    use hd_core::dataset::{generate, Dataset, DatasetProfile};
    use hd_core::ground_truth::ground_truth_knn;
    use hd_core::metrics::{ids, score_workload};
    use hd_core::topk::Neighbor;
    use proptest::prelude::*;

    #[test]
    fn build_and_query_returns_k_sorted_neighbors() {
        let (data, queries) = generate(&DatasetProfile::SIFT, 2000, 5, 1);
        let dir = test_dir("basic");
        let index = HdIndex::build(&data, &small_params(), &dir).unwrap();
        assert_eq!(index.len(), 2000);
        let qp = QueryParams::triangular(256, 64, 10);
        for q in queries.iter() {
            let res = index.knn(q, &qp).unwrap();
            assert_eq!(res.len(), 10);
            for w in res.windows(2) {
                assert!(w[0].dist <= w[1].dist);
            }
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn self_query_finds_the_object_itself() {
        let (data, _) = generate(&DatasetProfile::SIFT, 1000, 1, 2);
        let dir = test_dir("self");
        let index = HdIndex::build(&data, &small_params(), &dir).unwrap();
        let qp = QueryParams::triangular(128, 32, 1);
        // Database points are their own nearest neighbor at distance 0, and
        // the query's Hilbert key equals the object's, so the object is
        // always among the α candidates of every tree.
        for probe in [0usize, 137, 500, 999] {
            let res = index.knn(data.get(probe), &qp).unwrap();
            assert_eq!(res[0].dist, 0.0, "object {probe} not found");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn quality_beats_random_guessing_by_far() {
        let (data, queries) = generate(&DatasetProfile::SIFT, 5000, 20, 3);
        let dir = test_dir("quality");
        let index = HdIndex::build(&data, &small_params(), &dir).unwrap();
        let k = 10;
        let truth = ground_truth_knn(&data, &queries, k, 4);
        let qp = QueryParams::triangular(512, 128, k);
        let approx: Vec<Vec<Neighbor>> =
            queries.iter().map(|q| index.knn(q, &qp).unwrap()).collect();
        let s = score_workload(&truth, &approx);
        assert!(s.map > 0.5, "MAP@10 too low: {}", s.map);
        assert!(s.ratio < 1.2, "ratio too high: {}", s.ratio);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn ptolemaic_pipeline_at_least_matches_triangular_map() {
        let (data, queries) = generate(&DatasetProfile::SIFT, 4000, 15, 4);
        let dir = test_dir("pto");
        let index = HdIndex::build(&data, &small_params(), &dir).unwrap();
        let k = 10;
        let truth = ground_truth_knn(&data, &queries, k, 4);
        let t_ids: Vec<Vec<u64>> = truth.iter().map(|t| ids(t)).collect();

        let run = |qp: &QueryParams| -> f64 {
            let approx: Vec<Vec<u64>> = queries
                .iter()
                .map(|q| ids(&index.knn(q, qp).unwrap()))
                .collect();
            hd_core::metrics::mean_average_precision(&t_ids, &approx)
        };
        // Aggressive reduction (α:β = 1:4 over the paper's framing) is where
        // Ptolemaic helps most (§5.2.5).
        let tri = run(&QueryParams::triangular(512, 32, k));
        let pto = run(&QueryParams::ptolemaic(512, 128, 32, k));
        assert!(
            pto + 0.02 >= tri,
            "Ptolemaic should not be materially worse: {pto} vs {tri}"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn trace_reports_cost_model_quantities() {
        let (data, queries) = generate(&DatasetProfile::SIFT, 3000, 1, 5);
        let dir = test_dir("trace");
        let index = HdIndex::build(&data, &small_params(), &dir).unwrap();
        let qp = QueryParams::triangular(256, 64, 10);
        let (_, trace) = index.knn_traced(queries.get(0), &qp).unwrap();
        let tau = 4;
        assert!(trace.scanned <= qp.alpha * tau);
        assert!(trace.scanned >= qp.alpha, "all trees should contribute");
        assert!(
            trace.kappa >= qp.gamma.min(3000) / 4,
            "kappa implausibly small"
        );
        assert!(trace.kappa <= qp.gamma * tau);
        // With caches off, every logical read is physical.
        assert_eq!(trace.physical_reads, trace.logical_reads);
        assert!(trace.physical_reads > 0);
        // No deletes: every deduped candidate gets a distance evaluation,
        // and with κ ≫ k the bounded kernel must abandon a healthy share.
        assert_eq!(trace.refine_evals, trace.kappa);
        assert!(
            trace.refine_abandoned > 0,
            "κ = {} candidates for k = {} with zero early abandons",
            trace.kappa,
            qp.k
        );
        assert!(trace.refine_abandoned < trace.refine_evals);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn saturated_query_is_bit_identical_to_exact_scan() {
        // α = γ = n: every tree surfaces every object, so the blocked,
        // early-abandoning refinement must reproduce the exact linear scan
        // bit for bit — same ids, same distances. This is the contract the
        // per-id refinement path satisfied before it was blocked.
        let n = 800;
        let (data, queries) = generate(&DatasetProfile::SIFT, n, 8, 14);
        let dir = test_dir("bit_identical");
        let qp = QueryParams::triangular(n, n, 10);
        for refine_codes in [false, true] {
            let index = build_coded(
                &data,
                &small_params(),
                &dir.join(format!("{refine_codes}")),
                refine_codes,
            );
            for q in queries.iter() {
                assert_eq!(
                    index.knn(q, &qp).unwrap(),
                    hd_core::ground_truth::knn_exact(&data, q, 10),
                    "refinement diverged from the exact scan (refine codes {refine_codes})"
                );
            }
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn insert_then_query_finds_new_object() {
        let (data, _) = generate(&DatasetProfile::SIFT, 1500, 1, 6);
        let dir = test_dir("insert");
        let mut index = HdIndex::build(&data, &small_params(), &dir).unwrap();
        let novel: Vec<f32> = (0..128).map(|i| ((i * 7) % 256) as f32).collect();
        let id = index.insert(&novel).unwrap();
        assert_eq!(id, 1500);
        let res = index
            .knn(&novel, &QueryParams::triangular(128, 32, 1))
            .unwrap();
        assert_eq!(res[0].id, id);
        assert_eq!(res[0].dist, 0.0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn delete_hides_object_from_results() {
        let (data, _) = generate(&DatasetProfile::SIFT, 1500, 1, 7);
        let dir = test_dir("delete");
        let mut index = HdIndex::build(&data, &small_params(), &dir).unwrap();
        let qp = QueryParams::triangular(128, 32, 1);
        let target = index.knn(data.get(3), &qp).unwrap()[0];
        assert_eq!(target.dist, 0.0);
        index.delete(target.id).unwrap();
        let after = index.knn(data.get(3), &qp).unwrap();
        assert_ne!(after[0].id, target.id, "deleted object must not reappear");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn k_larger_than_candidates_returns_fewer() {
        let (data, _) = generate(&DatasetProfile::SIFT, 50, 1, 8);
        let dir = test_dir("smallk");
        let mut p = small_params();
        p.num_references = 3;
        let index = HdIndex::build(&data, &p, &dir).unwrap();
        let res = index
            .knn(data.get(0), &QueryParams::triangular(16, 4, 40))
            .unwrap();
        assert!(!res.is_empty() && res.len() <= 40);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn random_partitioning_builds_and_queries() {
        let (data, queries) = generate(&DatasetProfile::SIFT, 2000, 5, 9);
        let dir = test_dir("randpart");
        let mut p = small_params();
        p.random_partitioning = Some(123);
        let index = HdIndex::build(&data, &p, &dir).unwrap();
        let res = index
            .knn(queries.get(0), &QueryParams::triangular(256, 64, 10))
            .unwrap();
        assert_eq!(res.len(), 10);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn disk_and_memory_accounting_nonzero() {
        let (data, _) = generate(&DatasetProfile::SIFT, 1000, 1, 10);
        let dir = test_dir("acct");
        let index = HdIndex::build(&data, &small_params(), &dir).unwrap();
        assert!(index.disk_bytes() > 0);
        assert!(index.tree_disk_bytes() > 0);
        assert!(index.memory_bytes() > 0, "reference set is memory-resident");
        // Cache-off pools hold nothing.
        assert_eq!(
            index.memory_bytes(),
            index.references().memory_bytes(),
            "with query_cache_pages=0 only the references stay in RAM"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn reopen_from_disk_preserves_answers_and_tombstones() {
        let (data, queries) = generate(&DatasetProfile::SIFT, 1200, 3, 12);
        let qp = QueryParams::triangular(256, 64, 10);
        // Pools that cache: a build that kept what it wrote would answer
        // from warm pools and report other memory and IO than its reopen.
        let params = HdIndexParams {
            query_cache_pages: 64,
            ..small_params()
        };
        for refine_codes in [false, true] {
            let dir = test_dir(&format!("reopen_{refine_codes}"));
            // The just-built index and its directory reopened come up
            // identical: same answers to the bit, same memory, same write
            // counters, same IO for the same queries.
            let built = build_coded(&data, &params, &dir, refine_codes);
            let built_answers = answer_bits(&built, &queries, &qp);
            let built_stats = AnnIndex::stats(&built);
            drop(built);
            let mut reopened = HdIndex::open(&dir, params.query_cache_pages).unwrap();
            assert_eq!(reopened.has_refine_codes(), refine_codes);
            assert_eq!(answer_bits(&reopened, &queries, &qp), built_answers);
            assert_eq!(
                AnnIndex::stats(&reopened),
                built_stats,
                "refine codes {refine_codes}"
            );

            let victim = reopened.knn(data.get(0), &qp).unwrap()[0].id;
            reopened.delete(victim).unwrap();
            let expected = answer_bits(&reopened, &queries, &qp);
            drop(reopened);
            // Reopen in a fresh struct and compare every answer.
            let reopened = HdIndex::open(&dir, params.query_cache_pages).unwrap();
            assert_eq!(reopened.len(), 1200);
            assert!(reopened.is_deleted(victim), "tombstone must survive reopen");
            assert_eq!(
                answer_bits(&reopened, &queries, &qp),
                expected,
                "answers diverged after reopen (refine codes {refine_codes})"
            );
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn build_over_an_older_index_serves_only_the_new_corpus() {
        let (old, _) = generate(&DatasetProfile::SIFT, 900, 1, 29);
        let (extra, _) = generate(&DatasetProfile::SIFT, 20, 1, 30);
        let (new, queries) = generate(&DatasetProfile::SIFT, 700, 6, 31);
        let dir = test_dir("rebuild_over");
        {
            // An older index at generation 1 with a WAL tail it never
            // saved: inserts and deletes a reopen would replay.
            let mut older = HdIndex::build(&old, &small_params(), &dir).unwrap();
            for id in (0..900u64).step_by(3) {
                older.delete(id).unwrap();
            }
            assert!(older.compact().unwrap());
            for v in extra.iter() {
                older.insert(v).unwrap();
            }
            older.delete(1).unwrap();
            assert!(older.wal_tail_bytes() > 0);
        }
        // Saturated budgets: answers are exact over whatever is stored.
        let qp = QueryParams::triangular(700, 700, 10);
        let check = |index: &HdIndex| {
            assert_eq!(index.len(), 700);
            assert_eq!(index.next_id(), 700);
            assert_eq!(index.live_len(), 700);
            assert_eq!(index.write_stats().wal_replayed, 0);
            assert_eq!(index.wal_tail_bytes(), 0);
            for q in queries.iter() {
                assert_eq!(
                    index.knn(q, &qp).unwrap(),
                    hd_core::ground_truth::knn_exact(&new, q, 10)
                );
            }
            let mut stale: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .filter(|name| file_generation(name).is_some_and(|g| g != 0))
                .collect();
            stale.sort();
            assert!(stale.is_empty(), "stale generation files: {stale:?}");
        };
        let built = HdIndex::build(&new, &small_params(), &dir).unwrap();
        check(&built);
        drop(built);
        check(&HdIndex::open(&dir, 0).unwrap());
        std::fs::remove_dir_all(dir).ok();
    }

    /// A build with a smaller τ over an index with a larger one leaves only
    /// the files its meta names: the old index's trees τ.. go too.
    #[test]
    fn build_over_a_larger_tau_removes_the_extra_trees() {
        let (data, _) = generate(&DatasetProfile::SIFT, 400, 1, 33);
        let dir = test_dir("rebuild_smaller_tau");
        let tree_files = || -> Vec<String> {
            let mut names: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .filter(|name| name.starts_with("tree_"))
                .collect();
            names.sort();
            names
        };
        let wide = HdIndexParams {
            tau: 8,
            ..small_params()
        };
        drop(HdIndex::build(&data, &wide, &dir).unwrap());
        assert_eq!(tree_files().len(), 8);
        let narrow = HdIndex::build(&data, &small_params(), &dir).unwrap();
        let expected: Vec<String> = (0..4).map(|g| format!("tree_{g}.rdb")).collect();
        assert_eq!(tree_files(), expected);
        drop(narrow);
        HdIndex::open(&dir, 0).unwrap();
        assert_eq!(tree_files(), expected);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn refine_codes_derived_at_open_answer_like_the_built_index() {
        let (data, queries) = generate(&DatasetProfile::SIFT, 1500, 6, 15);
        let (extra, _) = generate(&DatasetProfile::SIFT, 40, 1, 16);
        let dir = test_dir("codes_reopen");
        let qp = QueryParams::triangular(256, 64, 10);
        let answer_bits = |index: &HdIndex| -> Vec<(Vec<(u64, u32)>, usize)> {
            queries
                .iter()
                .map(|q| {
                    let (answer, trace) = index.knn_traced(q, &qp).unwrap();
                    let bits = answer.iter().map(|n| (n.id, n.dist.to_bits())).collect();
                    (bits, trace.refine_evals)
                })
                .collect()
        };
        let expected = {
            let mut index = build_coded(&data, &small_params(), &dir, true);
            assert!(
                index.memory_bytes() >= index.references().memory_bytes() + 1500 * 128,
                "the codes count in memory_bytes"
            );
            // WAL-only writes: replayed at open before the codes are
            // derived.
            for v in extra.iter() {
                index.insert(v).unwrap();
            }
            for id in [3u64, 700, 1510] {
                index.delete(id).unwrap();
            }
            answer_bits(&index)
        };
        let reopened = HdIndex::open(&dir, 0).unwrap();
        assert!(reopened.has_refine_codes(), "the meta persists the choice");
        // Same answers to the bit, and the same evaluations: the derived
        // codes bound every candidate exactly as the built ones did.
        assert_eq!(answer_bits(&reopened), expected);
        let stats = AnnIndex::stats(&reopened);
        assert_eq!(stats.memory_bytes, reopened.memory_bytes());
        assert!(stats.memory_bytes >= reopened.references().memory_bytes() + 1540 * 128);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn compaction_carries_over_writes_made_while_it_was_prepared() {
        let n = 1200;
        let (data, queries) = generate(&DatasetProfile::SIFT, n, 5, 17);
        let (extra, _) = generate(&DatasetProfile::SIFT, 6, 1, 18);
        // Saturated budgets: answers are exact over the live set.
        let qp = QueryParams::triangular(n + 6, n + 6, 10);
        for refine_codes in [false, true] {
            let dir = test_dir(&format!("carry_over_{refine_codes}"));
            let mut index = build_coded(&data, &small_params(), &dir, refine_codes);
            for id in (0..n as u64).step_by(5) {
                index.delete(id).unwrap();
            }
            let plan = index.prepare_compaction().unwrap();
            // Writes between prepare and install: inserts, one of them
            // deleted again, and a delete of an object the plan kept.
            let ids: Vec<u64> = extra.iter().map(|v| index.insert(v).unwrap()).collect();
            index.delete(ids[0]).unwrap();
            index.delete(1).unwrap();
            let probes: Vec<&[f32]> = queries.iter().chain(extra.iter()).collect();
            let answers = |index: &HdIndex| -> Vec<Vec<Neighbor>> {
                probes.iter().map(|q| index.knn(q, &qp).unwrap()).collect()
            };
            let want = answers(&index);

            index.apply_compaction(plan).unwrap();
            assert_eq!(index.len(), (n - n / 5 + 6) as u64, "survivors + inserts");
            assert!(index.is_deleted(1) && index.is_deleted(ids[0]));
            assert!(ids[1..].iter().all(|&id| index.is_live(id)));
            assert_eq!(index.has_refine_codes(), refine_codes);
            assert_eq!(answers(&index), want, "refine codes {refine_codes}");
            assert_eq!(want[5 + 1][0].id, ids[1], "a carried insert is found");

            // The carried writes are durable: the WAL was emptied at the
            // install, and a reopen serves them from the new generation.
            drop(index);
            let reopened = HdIndex::open(&dir, 0).unwrap();
            assert_eq!(reopened.write_stats().wal_replayed, 0);
            assert!(reopened.is_deleted(1) && reopened.is_deleted(ids[0]));
            assert_eq!(
                answers(&reopened),
                want,
                "reopen, refine codes {refine_codes}"
            );
            std::fs::remove_dir_all(dir).ok();
        }
    }

    #[test]
    fn open_missing_dir_errors() {
        let err = HdIndex::open("/nonexistent/hd_index_dir", 0).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }

    #[test]
    fn saturated_l1_query_matches_exact_l1_scan() {
        // α = γ = n under L1: the whole pipeline — L1 reference distances,
        // triangular-only filter, L1 bounded refinement — must reproduce
        // the exact L1 scan bit for bit.
        let n = 600;
        let (raw, queries) = generate(&DatasetProfile::SIFT, n, 6, 21);
        let data = raw.with_metric(Metric::L1);
        let dir = test_dir("l1_exact");
        let qp = QueryParams::triangular(n, n, 10);
        for refine_codes in [false, true] {
            let index = build_coded(
                &data,
                &small_params(),
                &dir.join(format!("{refine_codes}")),
                refine_codes,
            );
            assert_eq!(index.metric(), Metric::L1);
            for q in queries.iter() {
                assert_eq!(
                    index.knn(q, &qp).unwrap(),
                    hd_core::ground_truth::knn_exact(&data, q, 10),
                    "L1 refinement diverged from the exact L1 scan (refine codes {refine_codes})"
                );
            }
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn saturated_cosine_query_matches_exact_cosine_scan() {
        let n = 600;
        let (raw, queries) = generate(&DatasetProfile::GLOVE, n, 6, 22);
        let data = raw.with_metric(Metric::Cosine);
        let dir = test_dir("cos_exact");
        for refine_codes in [false, true] {
            // No domain override: the builder derives the unit-ball Hilbert
            // domain (and the refine codes' grid) from the cosine metric
            // itself.
            let index = build_coded(
                &data,
                &small_params(),
                &dir.join(format!("{refine_codes}")),
                refine_codes,
            );
            // Both Ptolemaic (sound on the unit sphere) and triangular modes.
            for qp in [
                QueryParams::triangular(n, n, 10),
                QueryParams::ptolemaic(n, n, n, 10),
            ] {
                for q in queries.iter() {
                    assert_eq!(
                        index.knn(q, &qp).unwrap(),
                        hd_core::ground_truth::knn_exact(&data, q, 10),
                        "cosine refinement diverged from the exact cosine scan \
                         (refine codes {refine_codes})"
                    );
                }
            }
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn l1_index_rejects_ptolemaic_queries() {
        let (raw, _) = generate(&DatasetProfile::SIFT, 300, 1, 23);
        let data = raw.with_metric(Metric::L1);
        let dir = test_dir("l1_pto");
        let index = HdIndex::build(&data, &small_params(), &dir).unwrap();
        let err = index
            .knn(data.get(0), &QueryParams::ptolemaic(64, 32, 16, 5))
            .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(
            err.to_string()
                .contains("Ptolemaic filter is unsound under l1"),
            "{err}"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn dot_metric_build_is_refused_cleanly() {
        let (raw, _) = generate(&DatasetProfile::SIFT, 200, 1, 24);
        let data = raw.with_metric(Metric::Dot);
        let dir = test_dir("dot_np");
        let err = HdIndex::build(&data, &small_params(), &dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("triangle inequality"), "{err}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn metric_survives_reopen_and_mismatch_is_refused() {
        let (raw, queries) = generate(&DatasetProfile::GLOVE, 500, 3, 25);
        let data = raw.with_metric(Metric::Cosine);
        let dir = test_dir("metric_reopen");
        let qp = QueryParams::triangular(128, 32, 5);
        let expected: Vec<Vec<Neighbor>> = {
            let index = HdIndex::build(&data, &small_params(), &dir).unwrap();
            queries.iter().map(|q| index.knn(q, &qp).unwrap()).collect()
        };
        // Reopen adopts the persisted metric and reproduces every answer.
        let reopened = HdIndex::open(&dir, 0).unwrap();
        assert_eq!(reopened.metric(), Metric::Cosine);
        for (qi, q) in queries.iter().enumerate() {
            assert_eq!(reopened.knn(q, &qp).unwrap(), expected[qi], "query {qi}");
        }
        // An L2-expecting caller is refused with a clear error instead of
        // being served cosine distances.
        let err = HdIndex::open_expecting(&dir, 0, Metric::L2).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("cosine"), "{err}");
        // The matching expectation opens fine.
        assert!(HdIndex::open_expecting(&dir, 0, Metric::Cosine).is_ok());
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn cosine_insert_normalizes_and_is_found() {
        let (raw, _) = generate(&DatasetProfile::GLOVE, 400, 1, 26);
        let data = raw.with_metric(Metric::Cosine);
        let dir = test_dir("cos_insert");
        let mut index = HdIndex::build(&data, &small_params(), &dir).unwrap();
        // Insert a raw (unnormalized) vector; the index must normalize it.
        let novel: Vec<f32> = (0..100).map(|i| (i as f32 - 50.0) * 3.0).collect();
        let id = index.insert(&novel).unwrap();
        let res = index
            .knn(&novel, &QueryParams::triangular(128, 32, 1))
            .unwrap();
        assert_eq!(res[0].id, id);
        assert!(res[0].dist.abs() < 1e-6, "self cosine distance must be ~0");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn trace_reports_effective_budgets_after_clamping() {
        let (data, queries) = generate(&DatasetProfile::SIFT, 300, 1, 27);
        let dir = test_dir("clamp_trace");
        let index = HdIndex::build(&data, &small_params(), &dir).unwrap();
        // Absurd per-call overrides must clamp to n — and the trace must
        // say so instead of leaving the sweep guessing.
        let req = SearchRequest::new(5)
            .with_candidates(usize::MAX)
            .with_refine(usize::MAX)
            .with_trace();
        let out = index.search(queries.get(0), &req).unwrap();
        let trace = out.trace.expect("trace requested");
        assert_eq!(trace.effective_candidates, 300, "α must clamp to n");
        assert_eq!(trace.effective_refine, 300, "γ must clamp to n");
        // Unclamped requests report the requested budgets.
        let out = index
            .search(
                queries.get(0),
                &SearchRequest::new(5)
                    .with_candidates(64)
                    .with_refine(16)
                    .with_trace(),
            )
            .unwrap();
        let trace = out.trace.unwrap();
        assert_eq!(trace.effective_candidates, 64);
        assert_eq!(trace.effective_refine, 16);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn effective_budgets_account_for_tombstones() {
        let (data, queries) = generate(&DatasetProfile::SIFT, 300, 1, 28);
        let dir = test_dir("clamp_tomb");
        let mut index = HdIndex::build(&data, &small_params(), &dir).unwrap();
        for id in 0..200u64 {
            index.delete(id).unwrap();
        }
        // Only 100 objects remain live: a tree can never surface more, so
        // a saturating override must report 100, not the stored 300.
        let req = SearchRequest::new(5)
            .with_candidates(usize::MAX)
            .with_refine(usize::MAX)
            .with_trace();
        let trace = index.search(queries.get(0), &req).unwrap().trace.unwrap();
        assert_eq!(
            trace.effective_candidates, 100,
            "α must clamp to the live count"
        );
        assert_eq!(
            trace.effective_refine, 100,
            "γ must clamp to the live count"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn leaf_orders_follow_eq4_shape() {
        let (data, _) = generate(&DatasetProfile::SIFT, 500, 1, 11);
        let dir = test_dir("leaf");
        let mut p = small_params();
        p.tau = 8;
        p.num_references = 10;
        let index = HdIndex::build(&data, &p, &dir).unwrap();
        // η=16, ω=8, m=10: a 16-byte Hilbert key, the 8-byte id and ten
        // one-byte distance codes make a 34-byte entry, so a leaf holds
        // (4096 − 19) / 34 = 119 entries, where Eq. (4)'s four-byte
        // distances give Ω = 63.
        assert_eq!(crate::config::rdb_leaf_order_eq4(16, 8, 10, 4096), 63);
        assert_eq!(index.leaf_order(0), 119);
        std::fs::remove_dir_all(dir).ok();
    }

    /// Every file under `dir` with its bytes, in path order.
    fn dir_contents(dir: &Path) -> Vec<(PathBuf, Vec<u8>)> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                out.extend(dir_contents(&path));
            } else {
                let bytes = std::fs::read(&path).unwrap();
                out.push((path, bytes));
            }
        }
        out.sort();
        out
    }

    /// A directory whose meta is version 3 (leaves of four-byte distances,
    /// no grid) is refused with `InvalidData` naming the version, and the
    /// refusal touches nothing: not the WAL tail, not the debris an open
    /// would otherwise sweep (a stale generation, a build scratch dir).
    #[test]
    fn previous_version_index_is_refused_and_left_untouched() {
        let (data, _) = generate(&DatasetProfile::SIFT, 300, 1, 12);
        let dir = test_dir("old_version");
        let mut index = HdIndex::build(&data, &small_params(), &dir).unwrap();
        index.insert(data.get(3)).unwrap();
        index.delete(5).unwrap();
        drop(index);
        let meta = std::fs::read_to_string(dir.join(crate::meta::META_FILE)).unwrap();
        let v3: String = meta
            .replace("hdindex-meta v4", "hdindex-meta v3")
            .lines()
            .filter(|l| !l.starts_with("refgrid "))
            .map(|l| format!("{l}\n"))
            .collect();
        std::fs::write(dir.join(crate::meta::META_FILE), v3).unwrap();
        std::fs::write(dir.join("tree_0.g9.rdb"), "stale generation").unwrap();
        std::fs::create_dir_all(dir.join(crate::build::BUILD_TMP)).unwrap();
        std::fs::write(dir.join(crate::build::BUILD_TMP).join("run"), "scratch").unwrap();
        let before = dir_contents(&dir);

        let err = HdIndex::open(&dir, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("v3"), "{err}");
        assert!(
            dir_contents(&dir) == before,
            "a refused open changed the directory"
        );
        std::fs::remove_dir_all(dir).ok();
    }

    /// A tree file whose leaf values are not one byte per reference (the
    /// four-byte layout under a current meta) is refused at open.
    #[test]
    fn tree_with_four_byte_distances_is_refused() {
        let (data, _) = generate(&DatasetProfile::SIFT, 300, 1, 13);
        let dir = test_dir("wide_values");
        let index = HdIndex::build(&data, &small_params(), &dir).unwrap();
        let (key_len, m) = (index.trees[1].key_len(), index.refs.m());
        drop(index);
        let pager = hd_storage::Pager::create(super::generation::tree_file(&dir, 1, 0)).unwrap();
        BTree::create(
            std::sync::Arc::new(BufferPool::new(pager, 0)),
            key_len,
            4 * m,
        )
        .unwrap();
        let err = HdIndex::open(&dir, 0).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("tree 1"), "{err}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn empty_dataset_build_is_invalid_input() {
        let dir = test_dir("empty_err");
        let err = HdIndex::build(&Dataset::new(8), &small_params(), &dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn more_trees_than_dims_build_is_invalid_input() {
        let dir = test_dir("tau_err");
        let mut data = Dataset::new(4);
        data.push(&[1.0, 2.0, 3.0, 4.0]);
        let mut p = small_params();
        p.tau = 5;
        p.num_references = 1;
        let err = HdIndex::build(&data, &p, &dir).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        std::fs::remove_dir_all(dir).ok();
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(6))]

        /// The spilling build writes byte-identical tree files to the
        /// in-memory build for any budget small enough to force spill runs
        /// — the external sort is invisible in the output (DESIGN.md §11).
        #[test]
        fn budgeted_build_trees_match_unbounded_build(
            n in 200usize..450,
            seed in 0u64..100,
            runs_target in 1usize..16,
        ) {
            // Budget ≈ the sorter volume of one tree divided by the target
            // run count (key 40 + val 5 + index 4 bytes per record), so
            // higher targets force more, smaller runs.
            let budget = (n * 49 / runs_target).max(4096);
            let ((mem_trees, mem_runs), (ext_trees, ext_runs)) =
                build_both_ways(n, seed, budget, &format!("prop_{n}_{seed}_{runs_target}"));
            prop_assert_eq!(mem_runs, 0, "unbounded build must not spill");
            prop_assert!(ext_runs > 0, "budget {} too generous to exercise spilling", budget);
            for (g, (a, b)) in mem_trees.iter().zip(&ext_trees).enumerate() {
                prop_assert!(a == b, "tree {} differs between build paths", g);
            }
        }
    }
}

/// Fixtures shared by the unit tests of the index's lifecycle modules.
#[cfg(test)]
mod testutil {
    use super::generation::tree_file;
    use super::{BuildOpts, HdIndex};
    use crate::config::{HdIndexParams, QueryParams, RefSelection};
    use hd_core::dataset::{generate, Dataset, DatasetProfile};
    use std::path::{Path, PathBuf};

    pub(crate) fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("hd_index_tests")
            .join(format!("{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Builds `data` in `dir` with refine codes on or off.
    pub(crate) fn build_coded(
        data: &Dataset,
        params: &HdIndexParams,
        dir: &Path,
        refine_codes: bool,
    ) -> HdIndex {
        let opts = BuildOpts {
            refine_codes,
            ..BuildOpts::default()
        };
        HdIndex::build_with(data, params, dir, opts).unwrap()
    }

    pub(crate) fn small_params() -> HdIndexParams {
        HdIndexParams {
            tau: 4,
            hilbert_order: 8,
            num_references: 5,
            ref_selection: RefSelection::Sss { f: 0.3 },
            domain: (0.0, 255.0),
            random_partitioning: None,
            query_cache_pages: 0,
            seed: 7,
        }
    }

    /// Every answer of `index` to `queries`, ids and distance bits.
    pub(crate) fn answer_bits(
        index: &HdIndex,
        queries: &Dataset,
        qp: &QueryParams,
    ) -> Vec<Vec<(u64, u32)>> {
        queries
            .iter()
            .map(|q| {
                let answer = index.knn(q, qp).unwrap();
                answer.iter().map(|n| (n.id, n.dist.to_bits())).collect()
            })
            .collect()
    }

    /// Builds the same corpus unbounded and under `budget_bytes`, returning
    /// (per-tree file bytes, spilled runs) for each.
    #[allow(clippy::type_complexity)]
    pub(crate) fn build_both_ways(
        n: usize,
        seed: u64,
        budget_bytes: usize,
        tag: &str,
    ) -> ((Vec<Vec<u8>>, u64), (Vec<Vec<u8>>, u64)) {
        let (data, _) = generate(&DatasetProfile::SIFT, n, 1, seed);
        let p = small_params();
        let read_trees = |dir: &Path| -> Vec<Vec<u8>> {
            (0..p.tau)
                .map(|g| std::fs::read(tree_file(dir, g, 0)).unwrap())
                .collect()
        };
        let dir_a = test_dir(&format!("{tag}_mem"));
        let mem = HdIndex::build(&data, &p, &dir_a).unwrap();
        let mem_out = (read_trees(&dir_a), mem.build_stats().spilled_runs);
        drop(mem);
        std::fs::remove_dir_all(&dir_a).ok();

        let dir_b = test_dir(&format!("{tag}_ext"));
        let opts = BuildOpts {
            build_budget: Some(hd_storage::BuildBudget::new(budget_bytes)),
            ..BuildOpts::default()
        };
        let ext = HdIndex::build_with(&data, &p, &dir_b, opts).unwrap();
        let ext_out = (read_trees(&dir_b), ext.build_stats().spilled_runs);
        drop(ext);
        std::fs::remove_dir_all(&dir_b).ok();
        (mem_out, ext_out)
    }
}
