//! The HD-Index query pipeline (Algorithm 2, §4.3–4.4): one staged body
//! that every query entry point runs — [`HdIndex::knn`],
//! [`HdIndex::knn_traced`] and, for the sharded engine,
//! [`HdIndex::knn_prepared`].
//!
//! 1. validate the query parameters;
//! 2. get the query's distances to the m references — computed here
//!    ([`crate::ReferenceSet::prepare`]) or supplied as a [`PreparedQuery`];
//! 3. per RDB-tree, take α candidates by Hilbert adjacency and cut them to
//!    γ with the triangular (and optionally Ptolemaic) lower bound;
//! 4. refine the union with exact, early-abandoning distance evaluations.
//!
//! Every run fills a [`QueryTrace`] (stage times, IO delta, κ, evaluations,
//! abandons) and, while telemetry is enabled, records the `hd_query_*`
//! histograms.

use crate::config::{FilterKind, QueryParams};
use crate::filters::{keep_smallest, ptolemaic_lb, triangular_lb};
use crate::rdb;
use crate::reference::PreparedQuery;
use crate::HdIndex;
use hd_core::metric::Metric;
use hd_core::topk::{Neighbor, TopK};
use hd_storage::VectorHeap;
use std::io;
use std::sync::Arc;
use std::time::Instant;

/// Per-query diagnostics mirroring the paper's cost model (§4.4.1).
///
/// Since the unified index API landed this is the workspace-wide
/// [`hd_core::api::SearchTrace`]; the historical name is kept as an alias
/// because every HD-Index entry point and test speaks it.
pub type QueryTrace = hd_core::api::SearchTrace;

/// Counters produced by [`HdIndex::refine`], feeding [`QueryTrace`].
#[derive(Debug, Clone, Copy, Default)]
struct RefineStats {
    /// Final candidate-set size κ = |C| (after dedup, before tombstones).
    kappa: usize,
    /// Distance evaluations attempted (κ minus tombstoned candidates).
    evals: usize,
    /// Evaluations abandoned early by the bounded kernel.
    abandoned: usize,
}

/// Cached global-registry handles for the pipeline — resolved once, then
/// pure histogram records per query. Only touched while telemetry is
/// enabled; the stage times themselves always land in the [`QueryTrace`]
/// (a handful of clock reads per query).
struct QueryTelemetry {
    total: Arc<hd_telemetry::LatencyHistogram>,
    ref_dists: Arc<hd_telemetry::LatencyHistogram>,
    candidates: Arc<hd_telemetry::LatencyHistogram>,
    refine: Arc<hd_telemetry::LatencyHistogram>,
}

fn query_telemetry() -> &'static QueryTelemetry {
    static HANDLES: std::sync::OnceLock<QueryTelemetry> = std::sync::OnceLock::new();
    HANDLES.get_or_init(|| {
        let reg = hd_telemetry::global();
        QueryTelemetry {
            total: reg.histogram("hd_query_nanos", "end-to-end traced HD-Index query latency"),
            ref_dists: reg.histogram(
                "hd_query_ref_dists_nanos",
                "stage 1: query-to-reference distances",
            ),
            candidates: reg.histogram(
                "hd_query_candidates_nanos",
                "stage 2: per-tree candidate walks + lower-bound filters",
            ),
            refine: reg.histogram(
                "hd_query_refine_nanos",
                "stage 3: blocked early-abandoning exact refinement",
            ),
        }
    })
}

/// The blocked, early-abandoning scoring loop of the refinement pipeline —
/// the single definition shared by [`HdIndex`]'s refine step and the
/// `refine_bench` regression gate, so CI exercises exactly the code the
/// index runs.
///
/// Walks sorted candidate `ids` in heap-page runs, fetches each run once
/// into the reusable `arena` ([`VectorHeap::get_block_into`]), and scores
/// every vector with `metric`'s bounded kernel
/// ([`Metric::key_bounded_traced`]) against `tk`'s running radius, so the
/// one refinement loop serves every metric (metrics without early
/// abandonment simply evaluate fully). `tk` accumulates internal keys
/// (squared L2 for L2/Cosine, …); callers convert with
/// [`Metric::finalize`]. Returns `(evals, abandoned)`: distance
/// evaluations attempted, and those truly abandoned before touching every
/// dimension.
pub fn score_candidates_blocked(
    heap: &VectorHeap,
    metric: Metric,
    query: &[f32],
    ids: &[u64],
    tk: &mut TopK,
    arena: &mut Vec<f32>,
) -> io::Result<(usize, usize)> {
    let dim = heap.dim();
    let (mut evals, mut abandoned) = (0usize, 0usize);
    let mut i = 0usize;
    while i < ids.len() {
        // One block per heap page: [i, j) are the candidates resident on
        // the page holding ids[i] (ids are sorted, so pages arrive in
        // sequential order).
        let page = heap.page_of(ids[i]);
        let mut j = i + 1;
        while j < ids.len() && heap.page_of(ids[j]) == page {
            j += 1;
        }
        let block = &ids[i..j];
        heap.get_block_into(block, arena)?;
        for (bi, &id) in block.iter().enumerate() {
            let bound = tk.bound();
            let (d, early) =
                metric.key_bounded_traced(query, &arena[bi * dim..(bi + 1) * dim], bound);
            evals += 1;
            abandoned += usize::from(early);
            if d <= bound {
                tk.push(Neighbor::new(id, d));
            }
        }
        i = j;
    }
    Ok((evals, abandoned))
}

/// What stage 2 of the pipeline starts from.
enum QueryInput<'q> {
    /// The caller's raw vector: normalize and compute reference distances.
    Raw(&'q [f32]),
    /// Already prepared against this index's reference set.
    Prepared(&'q PreparedQuery),
}

impl HdIndex {
    /// Answers a kANN query (Algorithm 2).
    pub fn knn(&self, query: &[f32], qp: &QueryParams) -> io::Result<Vec<Neighbor>> {
        self.run_query(QueryInput::Raw(query), qp)
            .map(|(answer, _)| answer)
    }

    /// Answers a kANN query, also reporting the paper's cost-model
    /// quantities for this query.
    pub fn knn_traced(
        &self,
        query: &[f32],
        qp: &QueryParams,
    ) -> io::Result<(Vec<Neighbor>, QueryTrace)> {
        self.run_query(QueryInput::Raw(query), qp)
    }

    /// [`Self::knn_traced`] for a query already prepared against a
    /// reference set equal to [`Self::references`]. A sharded engine builds
    /// all shards over one shared reference set, prepares each query once,
    /// and hands the same [`PreparedQuery`] to every shard. The trace's
    /// `ref_dist_nanos` is 0: that stage ran in
    /// [`crate::ReferenceSet::prepare`].
    pub fn knn_prepared(
        &self,
        query: &PreparedQuery,
        qp: &QueryParams,
    ) -> io::Result<(Vec<Neighbor>, QueryTrace)> {
        self.run_query(QueryInput::Prepared(query), qp)
    }

    /// The one pipeline body; see the module docs for the stages.
    fn run_query(
        &self,
        input: QueryInput<'_>,
        qp: &QueryParams,
    ) -> io::Result<(Vec<Neighbor>, QueryTrace)> {
        let t_query = Instant::now();
        // 1. Validate.
        qp.validate(self.metric)?;

        // 2. Distances from the query to all references (kept in memory;
        // §4.4.1 argues the reference set always fits).
        let t_stage = Instant::now();
        let prepared;
        let (query, ref_dist_nanos) = match input {
            QueryInput::Raw(raw) => {
                prepared = self.refs.prepare(raw)?;
                (&prepared, Some(t_stage.elapsed().as_nanos() as u64))
            }
            QueryInput::Prepared(p)
                if p.ref_dists().len() == self.refs.m() && p.vector().len() == self.dim =>
            {
                (p, None)
            }
            QueryInput::Prepared(_) => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "query was prepared against a different reference set",
                ))
            }
        };
        let before = self.io_stats();

        // 3. Candidates from every tree.
        let t_stage = Instant::now();
        let mut candidate_ids: Vec<u64> = Vec::with_capacity(qp.gamma * self.trees.len());
        let mut scanned_total = 0usize;
        for g in 0..self.trees.len() {
            let (survivors, scanned) = self.tree_candidates(g, query, qp)?;
            scanned_total += scanned;
            candidate_ids.extend(survivors);
        }
        let candidate_nanos = t_stage.elapsed().as_nanos() as u64;

        // 4. Refine the union across trees: C, κ = |C|.
        let t_stage = Instant::now();
        let (answer, stats) = self.refine(query.vector(), candidate_ids, qp.k)?;
        let refine_nanos = t_stage.elapsed().as_nanos() as u64;
        let delta = self.io_stats().since(&before);
        let total_nanos = t_query.elapsed().as_nanos() as u64;

        if hd_telemetry::enabled() {
            let t = query_telemetry();
            t.total.record(total_nanos);
            if let Some(nanos) = ref_dist_nanos {
                t.ref_dists.record(nanos);
            }
            t.candidates.record(candidate_nanos);
            t.refine.record(refine_nanos);
        }

        Ok((
            answer,
            QueryTrace {
                scanned: scanned_total,
                kappa: stats.kappa,
                physical_reads: delta.physical_reads,
                logical_reads: delta.logical_reads,
                refine_evals: stats.evals,
                refine_abandoned: stats.abandoned,
                // The budgets this query actually ran with, so sweeps see
                // the effective operating point instead of the requested
                // one. Clamped against the *live* count here (not only in
                // QueryParams::resolve) so direct callers get honest
                // numbers too — a tree can never surface more candidates
                // than undeleted objects, however large α is.
                effective_candidates: qp.alpha.min(self.live_len()),
                effective_refine: qp.gamma.min(self.live_len()),
                ref_dist_nanos: ref_dist_nanos.unwrap_or(0),
                candidate_nanos,
                refine_nanos,
                total_nanos,
            },
        ))
    }

    /// Steps (i)–(iii) of Algorithm 2 for one RDB-tree: fetch α candidates
    /// by Hilbert-key adjacency (walking the leaf chain outward in both
    /// directions from the query's position), then shrink them to γ with
    /// the triangular — and optionally Ptolemaic — lower bound, computed
    /// purely from the leaf-resident reference distances.
    ///
    /// Returns the surviving object ids and the number of scanned entries.
    fn tree_candidates(
        &self,
        g: usize,
        query: &PreparedQuery,
        qp: &QueryParams,
    ) -> io::Result<(Vec<u64>, usize)> {
        let m = self.refs.m();
        let q_dists = query.ref_dists();
        let (lo, hi) = self.params.domain;

        // (i) α candidates by Hilbert-key adjacency. Tombstoned entries are
        // skipped *here*, not during refinement: a deleted object must not
        // consume one of the α scan slots (nor, downstream, a γ survivor
        // slot), or delete-heavy workloads silently shrink the effective
        // candidate budget and recall decays.
        let mut sub = Vec::new();
        self.partitioning.project_into(query.vector(), g, &mut sub);
        let probe = rdb::encode_probe_key(&self.curves[g].encode_floats(&sub, lo, hi));
        let mut fwd = self.trees[g].seek(&probe)?;
        let mut bwd = fwd.clone();
        bwd.retreat()?;

        let mut ids: Vec<u64> = Vec::with_capacity(qp.alpha);
        let mut dists_flat: Vec<f32> = Vec::with_capacity(qp.alpha * m);
        let take = |cursor: &hd_btree::Cursor, ids: &mut Vec<u64>, dists: &mut Vec<f32>| {
            let id = rdb::decode_id(cursor.key());
            // Skip tombstones and orphans (tree entries whose object a
            // crash un-assigned or a compaction dropped) so neither
            // consumes an α slot.
            if self.tombstones.contains(&id) || !self.contains_id(id) {
                return;
            }
            ids.push(id);
            rdb::decode_value_into(cursor.value(), dists);
        };
        while ids.len() < qp.alpha && (fwd.valid() || bwd.valid()) {
            if fwd.valid() {
                take(&fwd, &mut ids, &mut dists_flat);
                fwd.advance()?;
            }
            if ids.len() < qp.alpha && bwd.valid() {
                take(&bwd, &mut ids, &mut dists_flat);
                bwd.retreat()?;
            }
        }
        let scanned = ids.len();

        // (ii) Triangular filter (Eq. 5): α → β (or straight to γ when
        // running triangular-only, the paper's "β = γ").
        let tri_keep = match qp.filter {
            FilterKind::TriangularOnly => qp.gamma,
            FilterKind::TriangularPtolemaic => qp.beta,
        };
        let scored: Vec<(f32, u32)> = (0..ids.len())
            .map(|i| {
                (
                    triangular_lb(q_dists, &dists_flat[i * m..(i + 1) * m]),
                    i as u32,
                )
            })
            .collect();
        let mut survivors = keep_smallest(scored, tri_keep);

        // (iii) Ptolemaic filter (Eq. 6): β → γ.
        if qp.filter == FilterKind::TriangularPtolemaic {
            let rescored: Vec<(f32, u32)> = survivors
                .iter()
                .map(|&(_, i)| {
                    let o = &dists_flat[i as usize * m..(i as usize + 1) * m];
                    (ptolemaic_lb(q_dists, o, &self.refs), i)
                })
                .collect();
            survivors = keep_smallest(rescored, qp.gamma);
        }

        Ok((
            survivors
                .into_iter()
                .map(|(_, i)| ids[i as usize])
                .collect(),
            scanned,
        ))
    }

    /// Final refinement, as a blocked, early-abandoning pipeline (Algorithm
    /// 2 step (iv), the dominant IO+CPU cost of a query): dedup the
    /// candidate union, walk it in heap-page order fetching each page's
    /// resident candidates once into a reusable arena
    /// ([`VectorHeap::get_block_into`]), and score every vector with the
    /// bounded kernel against the running top-k radius
    /// ([`score_candidates_blocked`]) — κ random point reads become
    /// sequential page-granular reads, and candidates that cannot enter the
    /// top-k are abandoned mid-evaluation.
    ///
    /// Results are bit-identical to the naive per-id path: sorting by id
    /// *is* sorting by heap page (ids are append-ordered), so candidates
    /// are visited in the same order, and the bounded kernel only abandons
    /// evaluations whose exact distance a full computation would also have
    /// rejected (see the `hd_core::distance` contract).
    fn refine(
        &self,
        query: &[f32],
        mut candidate_ids: Vec<u64>,
        k: usize,
    ) -> io::Result<(Vec<Neighbor>, RefineStats)> {
        candidate_ids.sort_unstable();
        candidate_ids.dedup();
        let kappa = candidate_ids.len();
        // Normally a no-op: tree_candidates already drops tombstoned and
        // absent ids. Kept as the last line of defense so refine never
        // resurrects a delete or reads past the heap.
        candidate_ids.retain(|&id| !self.tombstones.contains(&id) && self.contains_id(id));
        // The heap is addressed by slot. Until the first compaction slots
        // and ids coincide; afterwards the strictly ascending id map keeps
        // the translation monotone, so sorted ids stay sorted slots (the
        // blocked scorer's page-order walk and TopK's id tie-breaking are
        // unaffected by translating back afterwards).
        let slots: std::borrow::Cow<[u64]> = match &self.id_map {
            None => std::borrow::Cow::Borrowed(&candidate_ids),
            Some(map) => std::borrow::Cow::Owned(
                candidate_ids
                    .iter()
                    .filter_map(|id| map.binary_search(id).ok().map(|s| s as u64))
                    .collect(),
            ),
        };
        let mut tk = TopK::new(k);
        let mut arena: Vec<f32> = Vec::new();
        let (evals, abandoned) =
            score_candidates_blocked(&self.heap, self.metric, query, &slots, &mut tk, &mut arena)?;
        let mut answer = tk.into_sorted();
        for nb in &mut answer {
            if let Some(map) = &self.id_map {
                nb.id = map[nb.id as usize];
            }
            nb.dist = self.metric.finalize(nb.dist);
        }
        Ok((
            answer,
            RefineStats {
                kappa,
                evals,
                abandoned,
            },
        ))
    }
}
