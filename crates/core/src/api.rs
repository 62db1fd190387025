//! The unified index API: one object-safe trait every kANN method in the
//! workspace — [`HdIndex`], the serving [`Engine`], and all ten baselines —
//! implements, so benchmarks, sweeps, and serving code can hold any method
//! as a `Box<dyn AnnIndex>` and account quality / time / IO / memory
//! uniformly (the §5 evaluation contract).
//!
//! Design notes (see DESIGN.md § "Unified index API" for the full rationale):
//!
//! * **Object safety.** Every method takes `&self`/`&mut self` with concrete
//!   argument types; construction stays on the concrete types (each method's
//!   `build` wants different parameters), so the trait covers the *built*
//!   index only. A method registry maps names to `fn(&Workload, &Path) ->
//!   io::Result<Box<dyn AnnIndex>>` builders on top of this trait.
//! * **Edge-case normalization.** `k == 0` returns an empty result and
//!   `k > n` returns all `n` neighbors, enforced once in the provided
//!   [`AnnIndex::search`] wrapper rather than by per-method `k.min(n).max(1)`
//!   clamps. Implementations provide [`AnnIndex::search_core`], which is
//!   only ever called with `1 ≤ k ≤ len()`.
//! * **Budget knobs.** [`SearchRequest`] carries per-call overrides of the
//!   two budgets almost every method exposes: a candidate-generation budget
//!   (α for HD-Index/Multicurves, `ef` for HNSW) and a refinement budget
//!   (γ for HD-Index, the exact-rerank shortlist for PQ/OPQ). Methods ignore
//!   knobs that do not map onto their search (documented per impl).
//! * **Tracing.** [`SearchTrace`] generalizes HD-Index's per-query
//!   diagnostics; methods that do not trace return `None` at zero cost.
//!
//! [`HdIndex`]: https://docs.rs/hd-index
//! [`Engine`]: https://docs.rs/hd-engine

use crate::metric::Metric;
use crate::topk::Neighbor;
use std::io;

/// A point-in-time copy of a set of IO counters.
///
/// The paper analyzes query cost in *random disk accesses* (§4.4.1); these
/// counters are the hardware-independent reproduction of that measurement.
/// Defined here (rather than in `hd-storage`, which re-exports it) so
/// [`IndexStats`] can report IO without the core crate depending on the
/// storage layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    /// Page requests, whether or not they hit the buffer pool.
    pub logical_reads: u64,
    /// Page reads that went to the pager (i.e., "random disk accesses").
    pub physical_reads: u64,
    /// Page writes that went to the pager.
    pub physical_writes: u64,
}

impl IoSnapshot {
    /// Accesses between two snapshots (`self` taken after `earlier`).
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            logical_reads: self.logical_reads - earlier.logical_reads,
            physical_reads: self.physical_reads - earlier.physical_reads,
            physical_writes: self.physical_writes - earlier.physical_writes,
        }
    }
}

/// Counter-wise total, for aggregating the ledgers of many pools or shards.
impl std::iter::Sum for IoSnapshot {
    fn sum<I: Iterator<Item = IoSnapshot>>(iter: I) -> Self {
        iter.fold(IoSnapshot::default(), |a, b| IoSnapshot {
            logical_reads: a.logical_reads + b.logical_reads,
            physical_reads: a.physical_reads + b.physical_reads,
            physical_writes: a.physical_writes + b.physical_writes,
        })
    }
}

/// One kNN request: how many neighbors, optional per-call budget overrides,
/// and whether to collect a [`SearchTrace`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SearchRequest {
    /// Number of neighbors to return. `0` yields an empty result; values
    /// above the index size are capped at it ([`AnnIndex::search`]).
    pub k: usize,
    /// Candidate-generation budget override: α per RDB-tree for
    /// HD-Index/Engine, `ef` for HNSW. `None` uses the method's default.
    pub candidates: Option<usize>,
    /// Refinement budget override: γ (exact evaluations) for
    /// HD-Index/Engine, the exact-rerank shortlist size for PQ/OPQ.
    /// `None` uses the method's default.
    pub refine: Option<usize>,
    /// The metric the caller expects this index to serve. `None` (the
    /// default) accepts whatever the index was built under; `Some(m)` makes
    /// [`AnnIndex::search`] fail with `InvalidInput` when `m` differs from
    /// [`AnnIndex::metric`] — the guard that keeps a router from silently
    /// sending cosine traffic to an L2 index.
    pub metric: Option<Metric>,
    /// Ask the method to fill [`SearchOutput::trace`]. Methods without
    /// instrumentation return `None` regardless.
    pub trace: bool,
    /// Wall-clock budget for the whole call. Methods that honor it (the
    /// serving engine, at batch granularity) fail with
    /// [`io::ErrorKind::TimedOut`] once the budget expires instead of
    /// completing late — the hook an HTTP front-end needs to turn a slow
    /// shard into a 504 rather than a hung connection. `None` (the default)
    /// never times out; methods without a cooperative cancellation point
    /// ignore the budget (documented per impl).
    pub time_budget: Option<std::time::Duration>,
}

impl SearchRequest {
    /// A plain top-`k` request with method-default budgets, no metric
    /// expectation, and no trace.
    pub fn new(k: usize) -> Self {
        Self {
            k,
            candidates: None,
            refine: None,
            metric: None,
            trace: false,
            time_budget: None,
        }
    }

    /// Overrides the candidate-generation budget (α / `ef`).
    pub fn with_candidates(mut self, candidates: usize) -> Self {
        self.candidates = Some(candidates);
        self
    }

    /// Overrides the refinement budget (γ / rerank shortlist).
    pub fn with_refine(mut self, refine: usize) -> Self {
        self.refine = Some(refine);
        self
    }

    /// Declares the metric the caller expects the index to serve
    /// ([`SearchRequest::metric`]).
    pub fn with_metric(mut self, metric: Metric) -> Self {
        self.metric = Some(metric);
        self
    }

    /// Requests a [`SearchTrace`] alongside the neighbors.
    pub fn with_trace(mut self) -> Self {
        self.trace = true;
        self
    }

    /// Caps the call's wall time ([`SearchRequest::time_budget`]).
    pub fn with_time_budget(mut self, budget: std::time::Duration) -> Self {
        self.time_budget = Some(budget);
        self
    }
}

/// Per-query diagnostics, generalizing HD-Index's cost model (§4.4.1) so
/// any instrumented method can report through the same channel.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SearchTrace {
    /// Candidates pulled from the index structure (≤ α·τ for HD-Index).
    pub scanned: usize,
    /// Final candidate-set size entering exact refinement (κ for HD-Index,
    /// the shortlist size for PQ-style rerankers).
    pub kappa: usize,
    /// Pages physically read during the query (the paper's "random disk
    /// accesses" when caches are off).
    pub physical_reads: u64,
    /// Page requests including buffer-pool hits.
    pub logical_reads: u64,
    /// Exact-distance evaluations attempted during refinement.
    pub refine_evals: usize,
    /// Refinement evaluations the bounded kernel abandoned before touching
    /// every dimension. `refine_abandoned / refine_evals` is the query's
    /// pruning rate.
    pub refine_abandoned: usize,
    /// The candidate-generation budget the query actually ran with, after
    /// per-method clamping of [`SearchRequest::candidates`] (e.g. α clamped
    /// into `[1, n]`). `0` when the method does not report it. Budgets are
    /// clamped silently otherwise, which makes parameter sweeps misread
    /// their own operating points.
    pub effective_candidates: usize,
    /// The refinement budget the query actually ran with, after per-method
    /// clamping of [`SearchRequest::refine`] (e.g. γ clamped into `[1, n]`).
    /// `0` when the method does not report it.
    pub effective_refine: usize,
    /// Wall time computing query→reference distances (HD-Index stage 1).
    /// `0` when the method does not report stage times.
    pub ref_dist_nanos: u64,
    /// Wall time in candidate generation (the per-tree walks + filters for
    /// HD-Index; the structure probe for other methods).
    pub candidate_nanos: u64,
    /// Wall time in exact refinement.
    pub refine_nanos: u64,
    /// Wall time for the whole query as measured by the method itself. The
    /// three stage times above sum to ≤ this; the remainder is
    /// setup/merge/accounting outside the named stages.
    pub total_nanos: u64,
}

/// The result of one [`AnnIndex::search`] call.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SearchOutput {
    /// Nearest-first neighbors with distances in the index metric's
    /// reported scale ([`Metric::finalize`]: true L2 for L2, the L1 sum for
    /// L1, `1 − cos` for cosine, `−⟨q, o⟩` for dot). Ordering is fully
    /// deterministic: ascending distance, ties broken by ascending id
    /// (the [`Neighbor`] `Ord`).
    pub neighbors: Vec<Neighbor>,
    /// Per-query diagnostics, when requested and supported.
    pub trace: Option<SearchTrace>,
}

impl SearchOutput {
    /// Wraps a bare neighbor list (no trace).
    pub fn from_neighbors(neighbors: Vec<Neighbor>) -> Self {
        Self {
            neighbors,
            trace: None,
        }
    }
}

/// Durability and space-reclamation counters for methods with a write-ahead
/// log (HD-Index and the serving engine; zero for everything else).
/// `wal_records / wal_commits` is the fsync amortization of the write path —
/// the quantity `write_bench` tracks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteStats {
    /// WAL records appended since open.
    pub wal_records: u64,
    /// WAL commit batches fsynced since open.
    pub wal_commits: u64,
    /// WAL records applied by crash recovery at the last open.
    pub wal_replayed: u64,
    /// Tombstone compactions applied since open.
    pub compactions: u64,
}

/// Uniform resource accounting (§5's evaluation dimensions beyond quality
/// and wall-clock time). All fields refer to the *current* state of the
/// index; IO counters accumulate since the last
/// [`AnnIndex::reset_io_stats`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IndexStats {
    /// On-disk footprint of the index files. `0` for in-memory methods.
    pub disk_bytes: u64,
    /// Query-time resident memory of the index structure (plus the corpus,
    /// for methods that must keep it resident to answer queries).
    pub memory_bytes: usize,
    /// Structural estimate of peak construction memory.
    pub build_memory_bytes: usize,
    /// IO counters accumulated since the last reset. Zero for in-memory
    /// methods.
    pub io: IoSnapshot,
    /// The metric this index serves ([`AnnIndex::metric`]), so resource
    /// reports carry the distance function alongside the numbers.
    pub metric: Metric,
    /// Objects currently stored (slots in the heap/structure), tombstoned
    /// or not. `0` when the method does not report occupancy.
    pub stored_len: u64,
    /// Stored objects that are not tombstoned — what queries can actually
    /// return. `0` when the method does not report occupancy.
    pub live_len: u64,
    /// Write-path counters (WAL, compaction). All-zero for methods without
    /// a durable write path.
    pub write: WriteStats,
}

impl IndexStats {
    /// An in-memory method: no disk, no IO, build ≈ query residency.
    pub fn in_memory(memory_bytes: usize) -> Self {
        Self {
            disk_bytes: 0,
            memory_bytes,
            build_memory_bytes: memory_bytes,
            io: IoSnapshot::default(),
            metric: Metric::L2,
            stored_len: 0,
            live_len: 0,
            write: WriteStats::default(),
        }
    }

    /// Fraction of stored objects that are tombstoned, in `[0, 1]` — the
    /// quantity compaction thresholds and the bench tables' `dead` column
    /// are defined over. `0.0` when occupancy is not reported.
    pub fn tombstone_density(&self) -> f64 {
        if self.stored_len == 0 {
            0.0
        } else {
            (self.stored_len - self.live_len) as f64 / self.stored_len as f64
        }
    }

    /// Stamps the stats with the serving metric (builder style, so the
    /// common L2 constructors stay one-liners).
    pub fn with_metric(mut self, metric: Metric) -> Self {
        self.metric = metric;
        self
    }
}

/// The metric-expectation guard of [`AnnIndex::search`]: `InvalidInput`
/// when `req` pins a [`SearchRequest::metric`] other than `actual`.
/// Batched overrides of [`AnnIndex::search_batch`] apply it too.
pub fn check_metric(req: &SearchRequest, actual: Metric) -> io::Result<()> {
    match req.metric {
        Some(expected) if expected != actual => Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("request expects metric {expected} but this index serves {actual}"),
        )),
        _ => Ok(()),
    }
}

/// An immutable, queryable kANN index over a fixed-dimensional corpus.
///
/// Implementations provide [`Self::search_core`]; callers use
/// [`Self::search`], whose provided body normalizes the `k` edge cases
/// (`k == 0` → empty, `k > n` → capped at `n`) once for every method.
///
/// ```no_run
/// use hd_core::api::{AnnIndex, SearchRequest};
/// fn serve(index: &dyn AnnIndex, query: &[f32]) {
///     let out = index.search(query, &SearchRequest::new(10)).unwrap();
///     println!("nearest: {:?}", out.neighbors.first());
/// }
/// ```
pub trait AnnIndex {
    /// Number of indexed objects (including tombstoned ones, for methods
    /// with deletes).
    fn len(&self) -> u64;

    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Dimensionality ν of the indexed vectors.
    fn dim(&self) -> usize;

    /// The metric this index was built under and serves. Defaults to
    /// [`Metric::L2`], the right answer for every method that predates the
    /// metric layer; multi-metric methods override it with the metric of
    /// the dataset they indexed.
    fn metric(&self) -> Metric {
        Metric::L2
    }

    /// Implementation hook for [`Self::search`]. Called only with
    /// `1 ≤ req.k ≤ self.len()`; do **not** call directly — the public
    /// entry point is [`Self::search`], which enforces that contract.
    fn search_core(&self, query: &[f32], req: &SearchRequest) -> io::Result<SearchOutput>;

    /// Answers one kNN query with normalized edge-case semantics:
    /// `k == 0` returns an empty result, `k > len()` returns all `len()`
    /// neighbors (for exact methods; approximate methods may return fewer
    /// if their budgets exhaust first). A request carrying an explicit
    /// [`SearchRequest::metric`] expectation fails with `InvalidInput`
    /// when it differs from [`Self::metric`] — wrong-metric answers look
    /// plausible and are otherwise silent.
    fn search(&self, query: &[f32], req: &SearchRequest) -> io::Result<SearchOutput> {
        check_metric(req, self.metric())?;
        let n = self.len();
        let k = req.k.min(n as usize);
        if k == 0 {
            return Ok(SearchOutput::default());
        }
        let mut out = self.search_core(query, &SearchRequest { k, ..*req })?;
        out.neighbors.truncate(k);
        Ok(out)
    }

    /// Answers a batch of queries, one output per query in input order.
    ///
    /// The default implementation is sequential [`Self::search`] calls;
    /// methods with real batch execution (the engine) override it. Overrides
    /// must preserve the contract that the results equal per-query
    /// [`Self::search`] calls (the conformance suite checks this).
    fn search_batch(&self, queries: &[&[f32]], req: &SearchRequest) -> io::Result<Vec<SearchOutput>> {
        queries.iter().map(|q| self.search(q, req)).collect()
    }

    /// Uniform disk / memory / IO accounting.
    fn stats(&self) -> IndexStats;

    /// Zeroes the IO counters reported by [`Self::stats`]. No-op for
    /// in-memory methods.
    fn reset_io_stats(&self) {}

    /// Access to updates, for methods that support them. `None` (the
    /// default) marks a static index.
    fn lifecycle(&mut self) -> Option<&mut dyn Lifecycle> {
        None
    }
}

/// Update operations for indexes that support them (§3.6): HD-Index and the
/// serving engine. Obtain through [`AnnIndex::lifecycle`].
pub trait Lifecycle: AnnIndex {
    /// Appends a new vector, returning its object id.
    fn insert(&mut self, vector: &[f32]) -> io::Result<u64>;

    /// Tombstones an object id so it is never returned again.
    fn delete(&mut self, id: u64) -> io::Result<()>;

    /// Makes every applied write durable (commits the WAL and/or snapshots
    /// the on-disk state, method-defined). The default is a no-op for
    /// methods whose writes are immediately durable or purely in-memory.
    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }

    /// Reclaims the space held by tombstoned objects, rebuilding the index
    /// over survivors. Returns whether any compaction work ran. The default
    /// no-op suits methods without tombstone debt.
    fn compact(&mut self) -> io::Result<bool> {
        Ok(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ObjectId;

    /// A toy exact index over explicit points, for exercising the provided
    /// trait methods.
    struct Toy {
        dim: usize,
        points: Vec<Vec<f32>>,
    }

    impl AnnIndex for Toy {
        fn len(&self) -> u64 {
            self.points.len() as u64
        }

        fn dim(&self) -> usize {
            self.dim
        }

        fn search_core(&self, query: &[f32], req: &SearchRequest) -> io::Result<SearchOutput> {
            assert!(req.k >= 1 && req.k <= self.points.len(), "contract violated");
            let mut tk = crate::topk::TopK::new(req.k);
            for (i, p) in self.points.iter().enumerate() {
                tk.push(Neighbor::new(i as ObjectId, crate::l2(query, p)));
            }
            Ok(SearchOutput::from_neighbors(tk.into_sorted()))
        }

        fn stats(&self) -> IndexStats {
            IndexStats::in_memory(self.points.len() * self.dim * 4)
        }
    }

    fn toy() -> Toy {
        Toy {
            dim: 1,
            points: vec![vec![3.0], vec![1.0], vec![2.0]],
        }
    }

    #[test]
    fn k_zero_returns_empty() {
        let out = toy().search(&[0.0], &SearchRequest::new(0)).unwrap();
        assert!(out.neighbors.is_empty());
        assert!(out.trace.is_none());
    }

    #[test]
    fn k_above_n_returns_all_n() {
        let out = toy().search(&[0.0], &SearchRequest::new(100)).unwrap();
        assert_eq!(out.neighbors.len(), 3);
        let ids: Vec<ObjectId> = out.neighbors.iter().map(|n| n.id).collect();
        assert_eq!(ids, vec![1, 2, 0], "sorted nearest-first from query 0.0");
    }

    #[test]
    fn empty_index_always_answers_empty() {
        let idx = Toy {
            dim: 2,
            points: Vec::new(),
        };
        for k in [0usize, 1, 5] {
            let out = idx.search(&[0.0, 0.0], &SearchRequest::new(k)).unwrap();
            assert!(out.neighbors.is_empty(), "k={k}");
        }
    }

    #[test]
    fn batch_default_matches_sequential() {
        let idx = toy();
        let queries: Vec<Vec<f32>> = vec![vec![0.0], vec![2.5]];
        let refs: Vec<&[f32]> = queries.iter().map(|q| q.as_slice()).collect();
        let req = SearchRequest::new(2);
        let batch = idx.search_batch(&refs, &req).unwrap();
        for (q, b) in refs.iter().zip(&batch) {
            assert_eq!(*b, idx.search(q, &req).unwrap());
        }
    }

    #[test]
    fn request_builder_sets_knobs() {
        let req = SearchRequest::new(7)
            .with_candidates(256)
            .with_refine(64)
            .with_metric(Metric::Cosine)
            .with_trace()
            .with_time_budget(std::time::Duration::from_millis(250));
        assert_eq!(req.k, 7);
        assert_eq!(req.candidates, Some(256));
        assert_eq!(req.refine, Some(64));
        assert_eq!(req.metric, Some(Metric::Cosine));
        assert!(req.trace);
        assert_eq!(req.time_budget, Some(std::time::Duration::from_millis(250)));
    }

    #[test]
    fn metric_expectation_guards_the_search_boundary() {
        let idx = toy(); // serves the default Metric::L2
        assert_eq!(AnnIndex::metric(&idx), Metric::L2);
        // Matching expectation (or none) passes through.
        idx.search(&[0.0], &SearchRequest::new(1).with_metric(Metric::L2)).unwrap();
        idx.search(&[0.0], &SearchRequest::new(1)).unwrap();
        // A mismatched expectation is an InvalidInput error, even for k=0.
        for k in [0usize, 1] {
            let err = idx
                .search(&[0.0], &SearchRequest::new(k).with_metric(Metric::Cosine))
                .unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidInput, "k={k}");
            assert!(err.to_string().contains("cosine"), "k={k}: {err}");
        }
    }

    #[test]
    fn io_snapshot_since_subtracts() {
        let a = IoSnapshot {
            logical_reads: 10,
            physical_reads: 4,
            physical_writes: 1,
        };
        let b = IoSnapshot {
            logical_reads: 25,
            physical_reads: 9,
            physical_writes: 1,
        };
        assert_eq!(
            b.since(&a),
            IoSnapshot {
                logical_reads: 15,
                physical_reads: 5,
                physical_writes: 0,
            }
        );
    }

    #[test]
    fn lifecycle_defaults_to_none() {
        let mut idx = toy();
        assert!(idx.lifecycle().is_none());
    }

    #[test]
    fn tombstone_density_follows_occupancy() {
        let mut s = IndexStats::in_memory(64);
        assert_eq!(s.tombstone_density(), 0.0, "no occupancy reported");
        s.stored_len = 10;
        s.live_len = 7;
        assert!((s.tombstone_density() - 0.3).abs() < 1e-12);
        s.live_len = 10;
        assert_eq!(s.tombstone_density(), 0.0);
    }
}
