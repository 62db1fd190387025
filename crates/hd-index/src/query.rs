//! The HD-Index query pipeline (Algorithm 2, §4.3–4.4): one staged body
//! that every query entry point runs — [`HdIndex::knn`],
//! [`HdIndex::knn_traced`] and, for the sharded engine,
//! [`HdIndex::knn_prepared`].
//!
//! 1. validate the query parameters;
//! 2. get the query's distances to the m references — computed here
//!    ([`crate::ReferenceSet::prepare`]) or supplied as a [`PreparedQuery`];
//! 3. per RDB-tree, take α candidates by Hilbert adjacency and cut them to
//!    γ with the triangular (and optionally Ptolemaic) lower bound, in their
//!    interval forms over the leaves' one-byte distance codes;
//! 4. refine the union with exact, early-abandoning distance evaluations —
//!    every candidate, or, with refine codes, only those whose cell bound
//!    can still beat the running k-th key.
//!
//! Every run fills a [`QueryTrace`] (stage times, IO delta, κ, evaluations,
//! abandons) and, while telemetry is enabled, records the `hd_query_*`
//! histograms.

use crate::codes::RefineCodes;
use crate::config::{FilterKind, QueryParams};
use crate::filters::{keep_smallest, ptolemaic_interval_lb, TriangularTable};
use crate::live::IdSet;
use crate::rdb;
use crate::reference::PreparedQuery;
use crate::HdIndex;
use hd_core::metric::Metric;
use hd_core::topk::{Neighbor, TopK};
use hd_storage::{touch_lines, VectorHeap};
use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
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
    /// Final candidate-set size κ = |C| (after dedup).
    kappa: usize,
    /// Distance evaluations attempted: κ without refine codes (every
    /// candidate is live), the candidates the bound could not skip with.
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
                "stage 3: exact refinement (blocked, or two-phase over refine codes)",
            ),
        }
    })
}

/// Heap pages whose candidates [`score_candidates_blocked`] fetches in one
/// [`VectorHeap::get_block_into`] call: enough independent loads in the
/// decode loop to overlap the misses of a cached query, few enough that the
/// block stays in L1/L2 until it is scored.
const FETCH_PAGES: usize = 16;

/// The blocked, early-abandoning scoring loop of [`HdIndex`]'s refine
/// step.
///
/// Walks sorted candidate heap slots `ids` in windows of up to 16 distinct
/// heap pages. Each window is one [`VectorHeap::get_block_into`] call into
/// the reusable `arena` — one pool read per page, then a decode loop whose
/// loads do not depend on each other, so the CPU overlaps the cache misses
/// of the whole window instead of taking each page's misses between two
/// scoring loops. Each vector is then scored with `metric`'s bounded
/// kernel ([`Metric::key_bounded_traced`]) against `tk`'s running radius,
/// in slot order, so the one refinement loop serves every metric (metrics
/// without early abandonment simply evaluate fully). Windows end on page
/// boundaries, so every page is still read once per query. `tk`
/// accumulates internal keys (squared L2 for L2/Cosine, …) under the slot
/// ids; callers convert with [`Metric::finalize`]. Returns
/// `(evals, abandoned)`: distance evaluations attempted, and those truly
/// abandoned before touching every dimension.
fn score_candidates_blocked(
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
        // [i, j): the candidates on the next FETCH_PAGES heap pages (ids
        // are sorted, so pages arrive in sequential order).
        let mut j = i;
        let mut pages = 0usize;
        let mut page = None;
        while j < ids.len() {
            let p = heap.page_of(ids[j]);
            if page != Some(p) {
                if pages == FETCH_PAGES {
                    break;
                }
                pages += 1;
                page = Some(p);
            }
            j += 1;
        }
        let block = &ids[i..j];
        heap.get_block_into(block, arena)?;
        for (&id, row) in block.iter().zip(arena.chunks_exact(dim)) {
            let bound = tk.bound();
            let (d, early) = metric.key_bounded_traced(query, row, bound);
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

/// Candidates whose code rows [`score_candidates_by_bound`] touches before
/// bounding them: the rows sit at random places in an `n·d`-byte array, and
/// touching a window's lines first lets their misses overlap.
const BOUND_WINDOW: usize = 16;

/// The two-phase refine loop, used when the index keeps refine codes.
///
/// Phase 1 bounds every candidate slot from its in-memory codes
/// ([`hd_core::grid::CellQuery::lower_bound`], in key units, never above
/// the kernel's key), a window of rows at a time, and heapifies the
/// `(bound, slot)` pairs in O(κ).
/// Phase 2 pops them in bound order and scores each with `metric`'s bounded
/// kernel against `tk`'s running radius, one heap read per candidate, and
/// stops at the first bound strictly above the k-th key: that candidate and
/// every one after it have keys above the final k-th, so `tk` ends as it
/// would after scoring all of them. Returns `(evals, abandoned)` like
/// [`score_candidates_blocked`].
fn score_candidates_by_bound(
    heap: &VectorHeap,
    codes: &RefineCodes,
    metric: Metric,
    query: &[f32],
    slots: &[u64],
    tk: &mut TopK,
) -> io::Result<(usize, usize)> {
    let cells = codes.grid().query(metric, query);
    // Bounds are +0.0, positive or NaN, so their bit patterns order as
    // the values do (NaN last, where it never stops the loop).
    let mut bounded: Vec<Reverse<(u32, u64)>> = Vec::with_capacity(slots.len());
    for window in slots.chunks(BOUND_WINDOW) {
        for &slot in window {
            touch_lines(codes.row(slot));
        }
        bounded.extend(
            window
                .iter()
                .map(|&slot| Reverse((cells.lower_bound(codes.row(slot)).to_bits(), slot))),
        );
    }
    let mut order = BinaryHeap::from(bounded);
    let mut row = Vec::with_capacity(heap.dim());
    let (mut evals, mut abandoned) = (0usize, 0usize);
    while let Some(Reverse((lb, slot))) = order.pop() {
        let bound = tk.bound();
        if f32::from_bits(lb) > bound {
            break;
        }
        heap.get_into(slot, &mut row)?;
        let (d, early) = metric.key_bounded_traced(query, &row, bound);
        evals += 1;
        abandoned += usize::from(early);
        if d <= bound {
            tk.push(Neighbor::new(slot, d));
        }
    }
    Ok((evals, abandoned))
}

thread_local! {
    /// [`HdIndex::refine`]'s dedup bitset over heap slots. Each refine
    /// leaves it empty again, so it is kept per thread between queries and
    /// a query neither allocates nor zeroes one.
    static SEEN_SLOTS: RefCell<IdSet> = RefCell::new(IdSet::default());
    /// [`HdIndex::tree_candidates`]' projected sub-vector and probe key,
    /// reused across trees and queries.
    static PROBE: RefCell<(Vec<f32>, Vec<u8>)> = const { RefCell::new((Vec::new(), Vec::new())) };
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
        let table = TriangularTable::new(&self.ref_grid, query.ref_dists());
        let mut candidate_slots: Vec<u64> = Vec::with_capacity(qp.gamma * self.trees.len());
        let mut scanned_total = 0usize;
        for g in 0..self.trees.len() {
            scanned_total += self.tree_candidates(g, query, &table, qp, &mut candidate_slots)?;
        }
        let candidate_nanos = t_stage.elapsed().as_nanos() as u64;

        // 4. Refine the union across trees: C, κ = |C|.
        let t_stage = Instant::now();
        let (answer, stats) = self.refine(query.vector(), candidate_slots, qp.k)?;
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
    /// purely from the leaf-resident reference-distance codes.
    ///
    /// The walk does the per-entry work in one visit: an O(1) liveness
    /// check ([`HdIndex::live_slot`]: a tombstone bit, then the id's heap
    /// slot) and the triangular bound as m lookups into the query's
    /// `table`. Codes are kept only for the Ptolemaic filter.
    ///
    /// Appends the surviving heap slots to `out`; returns the number of
    /// scanned entries.
    fn tree_candidates(
        &self,
        g: usize,
        query: &PreparedQuery,
        table: &TriangularTable,
        qp: &QueryParams,
        out: &mut Vec<u64>,
    ) -> io::Result<usize> {
        let m = self.refs.m();
        let q_dists = query.ref_dists();
        let ptolemaic = qp.filter == FilterKind::TriangularPtolemaic;

        // (i) α candidates by Hilbert-key adjacency. Tombstoned entries are
        // skipped *here*, not during refinement: a deleted object must not
        // consume one of the α scan slots (nor, downstream, a γ survivor
        // slot), or delete-heavy workloads silently shrink the effective
        // candidate budget and recall decays. Orphans (tree entries whose
        // object a crash un-assigned or a compaction dropped) have no heap
        // slot and are skipped the same way.
        let mut fwd = PROBE.with_borrow_mut(|(sub, key)| {
            self.partitioning.project_into(query.vector(), g, sub);
            let curve = &self.curves[g];
            key.resize(rdb::key_len(curve.key_len()), 0);
            rdb::encode_key_into(curve, sub, self.params.domain, 0, key);
            self.trees[g].seek(key)
        })?;
        let mut bwd = fwd.clone();
        bwd.retreat()?;

        // (lower bound, scan index) per scanned entry; scan index → slot.
        let mut scored: Vec<(f32, u32)> = Vec::with_capacity(qp.alpha);
        let mut slots: Vec<u64> = Vec::with_capacity(qp.alpha);
        let mut codes_flat: Vec<u8> = Vec::with_capacity(if ptolemaic { qp.alpha * m } else { 0 });
        let mut take = |cursor: &hd_btree::Cursor| {
            let Some(slot) = self.live_slot(rdb::decode_id(cursor.key())) else {
                return 0;
            };
            let codes = cursor.value();
            scored.push((table.lower_bound(codes), slots.len() as u32));
            slots.push(slot);
            if ptolemaic {
                codes_flat.extend_from_slice(codes);
            }
            1
        };
        let mut scanned = 0usize;
        while scanned < qp.alpha && (fwd.valid() || bwd.valid()) {
            if fwd.valid() {
                scanned += take(&fwd);
                fwd.advance()?;
            }
            if scanned < qp.alpha && bwd.valid() {
                scanned += take(&bwd);
                bwd.retreat()?;
            }
        }

        // (ii) Triangular filter (Eq. 5): α → β (or straight to γ when
        // running triangular-only, the paper's "β = γ").
        let tri_keep = if ptolemaic { qp.beta } else { qp.gamma };
        let mut survivors = keep_smallest(scored, tri_keep);

        // (iii) Ptolemaic filter (Eq. 6): β → γ.
        if ptolemaic {
            let rescored: Vec<(f32, u32)> = survivors
                .iter()
                .map(|&(_, i)| {
                    let codes = &codes_flat[i as usize * m..(i as usize + 1) * m];
                    let lb = ptolemaic_interval_lb(q_dists, codes, &self.ref_grid, &self.refs);
                    (lb, i)
                })
                .collect();
            survivors = keep_smallest(rescored, qp.gamma);
        }

        out.extend(survivors.iter().map(|&(_, i)| slots[i as usize]));
        Ok(scanned)
    }

    /// Final refinement (Algorithm 2 step (iv), the dominant IO+CPU cost of
    /// a query): dedup the candidate union with a bitset over heap slots
    /// (no sort), then either
    ///
    /// * without refine codes, walk it in heap-page order
    ///   ([`score_candidates_blocked`]: 16 pages per fetch, each page read
    ///   once, the window decoded before any of it is scored) and score
    ///   every vector with the bounded kernel against the running top-k
    ///   radius, after sorting the deduped slots — κ random point reads
    ///   become sequential page-granular reads whose misses overlap, and
    ///   candidates that cannot enter the top-k are abandoned
    ///   mid-evaluation; or
    /// * with refine codes, bound every candidate from its codes and fetch
    ///   and score only those whose bound does not exceed the running k-th
    ///   key, in bound order ([`score_candidates_by_bound`]).
    ///
    /// `candidate_slots` are heap slots of live objects (the walk already
    /// dropped tombstones and orphans). The answer carries object ids:
    /// slot → id is monotone, so TopK's tie-breaking on slots is its
    /// tie-breaking on ids. Both loops give results bit-identical to a
    /// per-candidate path over every candidate: the bounded kernel only abandons
    /// evaluations whose exact distance a full computation would also have
    /// rejected (see the `hd_core::distance` contract), `TopK` keeps the k
    /// smallest by (key, slot) whatever the push order, and a skipped
    /// candidate's key exceeds the final k-th key. Neither depends on the
    /// order in which the union arrives: the bound order pops `(bound,
    /// slot)` pairs, which are distinct.
    fn refine(
        &self,
        query: &[f32],
        mut candidate_slots: Vec<u64>,
        k: usize,
    ) -> io::Result<(Vec<Neighbor>, RefineStats)> {
        SEEN_SLOTS.with_borrow_mut(|seen| {
            candidate_slots.retain(|&slot| seen.insert(slot));
            for &slot in &candidate_slots {
                seen.remove(slot);
            }
        });
        let kappa = candidate_slots.len();
        let mut tk = TopK::new(k);
        let (evals, abandoned) = match &self.codes {
            Some(codes) => score_candidates_by_bound(
                &self.heap,
                codes,
                self.metric,
                query,
                &candidate_slots,
                &mut tk,
            )?,
            None => {
                candidate_slots.sort_unstable();
                score_candidates_blocked(
                    &self.heap,
                    self.metric,
                    query,
                    &candidate_slots,
                    &mut tk,
                    &mut Vec::new(),
                )?
            }
        };
        let mut answer = tk.into_sorted();
        for nb in &mut answer {
            nb.id = self.id_at(nb.id);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RefSelection;
    use crate::filters::keep_smallest;
    use crate::{BuildOpts, HdIndexParams};
    use hd_core::dataset::{generate, DatasetProfile};
    use hd_core::grid::UniformGrid;
    use std::collections::HashSet;

    /// What the reference predicts for one query.
    struct Reference {
        /// Per tree, the surviving object ids in `keep_smallest` order.
        survivors: Vec<Vec<u64>>,
        answer: Vec<Neighbor>,
        scanned: usize,
        kappa: usize,
        evals: usize,
        abandoned: usize,
        logical_reads: u64,
    }

    /// Cell `code` of reference `r`, from the grid's persisted floor and
    /// step: edges at `floor + c·step`, cell 0 open down to 0 and cell 255
    /// up to `f32::MAX`.
    fn cell(index: &HdIndex, r: usize, code: u8) -> (f32, f32) {
        let (floor, step) = index.ref_grid.params()[r];
        let edge = |c: usize| floor + c as f32 * step;
        let c = usize::from(code);
        let lo = if c == 0 { 0.0 } else { edge(c) };
        let hi = if c == 255 { f32::MAX } else { edge(c + 1) };
        (lo, hi)
    }

    /// Eq. 5 over the cells `codes` name: per reference, the least
    /// `|q − x|` over `x` in the cell.
    fn interval_triangular(index: &HdIndex, q_dists: &[f32], codes: &[u8]) -> f32 {
        let mut best = 0.0f32;
        for (r, (&q, &c)) in q_dists.iter().zip(codes).enumerate() {
            let (lo, hi) = cell(index, r, c);
            best = best.max((q - hi).max(lo - q));
        }
        best
    }

    /// Eq. 6 over the cells `codes` name: per pair, the least
    /// `|q_i·x_j − q_j·x_i|` over the box of cells (it rises in `x_j` and
    /// falls in `x_i`), over `d(R_i, R_j)`.
    fn interval_ptolemaic(index: &HdIndex, q: &[f32], codes: &[u8]) -> f32 {
        let mut best = 0.0f32;
        for i in 0..q.len() {
            for j in (i + 1)..q.len() {
                let denom = index.refs.dist(i, j);
                if denom <= f32::EPSILON {
                    continue;
                }
                let ((lo_i, hi_i), (lo_j, hi_j)) =
                    (cell(index, i, codes[i]), cell(index, j, codes[j]));
                let least = (q[i] * lo_j - q[j] * hi_i).max(q[j] * lo_i - q[i] * hi_j);
                best = best.max(least / denom);
            }
        }
        best
    }

    /// Algorithm 2 spelled out with nothing but the public cursor API, the
    /// interval bounds above over the stored codes, `keep_smallest`, a
    /// per-candidate heap read, and membership by binary search over the
    /// persisted slot → id map plus the test's own record of deletes. For an index
    /// with refine codes, refinement re-encodes each candidate's heap
    /// vector on a 256-cell grid over the index domain, sorts the
    /// candidates by (cell bound, slot) and evaluates them in that order
    /// until the first bound above the running k-th key: one heap page per
    /// evaluation.
    fn reference(
        index: &HdIndex,
        deleted: &HashSet<u64>,
        q: &[f32],
        qp: &QueryParams,
    ) -> Reference {
        let slot_of = |id: u64| match &index.id_map {
            None => (id < index.heap.len()).then_some(id),
            Some(map) => map.ids().binary_search(&id).ok().map(|s| s as u64),
        };
        let m = index.refs.m();
        let prepared = index.refs.prepare(q).unwrap();
        let q_dists = prepared.ref_dists();
        let before = index.io_stats();
        let (mut survivors, mut scanned) = (Vec::new(), 0usize);
        for g in 0..index.trees.len() {
            let mut sub = Vec::new();
            index
                .partitioning
                .project_into(prepared.vector(), g, &mut sub);
            let mut probe = vec![0u8; rdb::key_len(index.curves[g].key_len())];
            rdb::encode_key_into(&index.curves[g], &sub, index.params.domain, 0, &mut probe);
            let mut fwd = index.trees[g].seek(&probe).unwrap();
            let mut bwd = fwd.clone();
            bwd.retreat().unwrap();
            let (mut ids, mut codes) = (Vec::new(), Vec::new());
            let mut take = |c: &hd_btree::Cursor, ids: &mut Vec<u64>| {
                let id = rdb::decode_id(c.key());
                if !deleted.contains(&id) && slot_of(id).is_some() {
                    ids.push(id);
                    codes.extend_from_slice(c.value());
                }
            };
            while ids.len() < qp.alpha && (fwd.valid() || bwd.valid()) {
                if fwd.valid() {
                    take(&fwd, &mut ids);
                    fwd.advance().unwrap();
                }
                if ids.len() < qp.alpha && bwd.valid() {
                    take(&bwd, &mut ids);
                    bwd.retreat().unwrap();
                }
            }
            scanned += ids.len();
            let row = |i: u32| &codes[i as usize * m..(i as usize + 1) * m];
            let scored = (0..ids.len() as u32)
                .map(|i| (interval_triangular(index, q_dists, row(i)), i))
                .collect();
            let mut kept = match qp.filter {
                FilterKind::TriangularOnly => keep_smallest(scored, qp.gamma),
                FilterKind::TriangularPtolemaic => keep_smallest(scored, qp.beta),
            };
            if qp.filter == FilterKind::TriangularPtolemaic {
                let rescored = kept
                    .iter()
                    .map(|&(_, i)| (interval_ptolemaic(index, q_dists, row(i)), i))
                    .collect();
                kept = keep_smallest(rescored, qp.gamma);
            }
            survivors.push(
                kept.iter()
                    .map(|&(_, i)| ids[i as usize])
                    .collect::<Vec<_>>(),
            );
        }
        let walk_reads = index.io_stats().since(&before).logical_reads;

        let mut slots: Vec<u64> = survivors
            .iter()
            .flatten()
            .map(|&id| slot_of(id).unwrap())
            .collect();
        slots.sort_unstable();
        slots.dedup();
        let mut pages: Vec<u64> = slots.iter().map(|&s| index.heap.page_of(s)).collect();
        pages.dedup();
        // The evaluation order: slot order, or bound order with codes.
        let order: Vec<(f32, u64)> = match &index.codes {
            None => slots.iter().map(|&s| (0.0, s)).collect(),
            Some(_) => {
                let grid = UniformGrid::new(index.params.domain, 256);
                let cells = grid.query(index.metric, prepared.vector());
                let mut order: Vec<(f32, u64)> = slots
                    .iter()
                    .map(|&s| {
                        let mut code = Vec::new();
                        grid.encode_into(&index.heap.get(s).unwrap(), &mut code);
                        (cells.lower_bound(&code), s)
                    })
                    .collect();
                order.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                order
            }
        };
        let mut tk = TopK::new(qp.k);
        let (mut evals, mut abandoned) = (0, 0);
        for (lb, slot) in order {
            if lb > tk.bound() {
                break;
            }
            let v = index.heap.get(slot).unwrap();
            let bound = tk.bound();
            let (d, early) = index
                .metric
                .key_bounded_traced(prepared.vector(), &v, bound);
            evals += 1;
            abandoned += usize::from(early);
            if d <= bound {
                tk.push(Neighbor::new(slot, d));
            }
        }
        let heap_reads = match &index.codes {
            None => pages.len() as u64,
            Some(_) => evals as u64,
        };
        let mut answer = tk.into_sorted();
        for nb in &mut answer {
            nb.id = match &index.id_map {
                None => nb.id,
                Some(map) => map.ids()[nb.id as usize],
            };
            nb.dist = index.metric.finalize(nb.dist);
        }
        Reference {
            survivors,
            answer,
            scanned,
            kappa: slots.len(),
            evals,
            abandoned,
            logical_reads: walk_reads + heap_reads,
        }
    }

    /// Runs every query under both filters and checks the walk's survivors,
    /// the answer and the trace's cost-model counts against the reference.
    /// Returns the answers' (id, distance bits), query by query, and the
    /// evaluations summed over the queries.
    fn assert_matches_reference(
        index: &HdIndex,
        deleted: &HashSet<u64>,
        queries: &hd_core::Dataset,
    ) -> (Vec<Vec<(u64, u32)>>, usize) {
        let (mut answers, mut evals) = (Vec::new(), 0);
        for qp in [
            QueryParams::triangular(200, 48, 10),
            QueryParams::ptolemaic(200, 96, 48, 10),
        ] {
            for q in queries.iter() {
                let want = reference(index, deleted, q, &qp);
                let prepared = index.refs.prepare(q).unwrap();
                let table = TriangularTable::new(&index.ref_grid, prepared.ref_dists());
                for (g, want_ids) in want.survivors.iter().enumerate() {
                    let mut slots = Vec::new();
                    index
                        .tree_candidates(g, &prepared, &table, &qp, &mut slots)
                        .unwrap();
                    let ids: Vec<u64> = slots.iter().map(|&s| index.id_at(s)).collect();
                    assert_eq!(&ids, want_ids, "tree {g} survivors, {:?}", qp.filter);
                }
                let (answer, trace) = index.knn_traced(q, &qp).unwrap();
                let bits = |a: &[Neighbor]| {
                    a.iter()
                        .map(|n| (n.id, n.dist.to_bits()))
                        .collect::<Vec<_>>()
                };
                assert_eq!(bits(&answer), bits(&want.answer), "{:?}", qp.filter);
                assert_eq!(trace.scanned, want.scanned);
                assert_eq!(trace.kappa, want.kappa);
                assert_eq!(trace.refine_evals, want.evals);
                assert_eq!(trace.refine_abandoned, want.abandoned);
                assert_eq!(trace.logical_reads, want.logical_reads);
                // No page cache: every logical read is a physical one.
                assert_eq!(trace.physical_reads, want.logical_reads);
                answers.push(bits(&answer));
                evals += trace.refine_evals;
            }
        }
        (answers, evals)
    }

    /// Checks both indexes against the reference, and their answers against
    /// each other: refine codes change the work, never the answer.
    fn assert_both_match_reference(
        plain: &HdIndex,
        coded: &HdIndex,
        deleted: &HashSet<u64>,
        queries: &hd_core::Dataset,
    ) {
        let (want, all) = assert_matches_reference(plain, deleted, queries);
        let (got, bounded) = assert_matches_reference(coded, deleted, queries);
        assert_eq!(got, want, "refine codes changed an answer");
        assert!(
            bounded * 2 < all,
            "the cell bound skipped too little: {bounded} of {all} evaluations"
        );
    }

    #[test]
    fn walk_matches_reference_through_deletes_compaction_and_inserts() {
        let (data, queries) = generate(&DatasetProfile::SIFT, 1600, 6, 3);
        let (extra, _) = generate(&DatasetProfile::SIFT, 120, 1, 4);
        let dir = std::env::temp_dir()
            .join("hd_index_tests")
            .join(format!("walk_reference_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let params = HdIndexParams {
            tau: 4,
            hilbert_order: 8,
            num_references: 6,
            ref_selection: RefSelection::Sss { f: 0.3 },
            domain: (0.0, 255.0),
            random_partitioning: None,
            query_cache_pages: 0,
            seed: 11,
        };
        // The same index twice: without refine codes (every candidate
        // scored in slot order) and with them (bound order, early stop).
        let build = |refine_codes: bool, name: &str| {
            let opts = BuildOpts {
                refine_codes,
                ..BuildOpts::default()
            };
            HdIndex::build_with(&data, &params, dir.join(name), opts).unwrap()
        };
        let (mut plain, mut coded) = (build(false, "plain"), build(true, "coded"));
        let mut deleted = HashSet::new();
        assert!(plain.id_map.is_none() && plain.codes.is_none());
        assert!(coded.codes.is_some());
        assert_both_match_reference(&plain, &coded, &deleted, &queries);

        // Tombstones: every 7th id.
        for id in (0..1600u64).step_by(7) {
            for index in [&mut plain, &mut coded] {
                index.delete(id).unwrap();
            }
            deleted.insert(id);
        }
        assert_both_match_reference(&plain, &coded, &deleted, &queries);

        // Compaction drops them: slots shift, the id map appears, and the
        // codes are rebuilt for the new slots.
        for index in [&mut plain, &mut coded] {
            assert!(index.compact().unwrap());
            assert!(
                index.id_map.is_some(),
                "compaction must leave a non-identity id map"
            );
        }
        assert!(coded.codes.is_some(), "compaction keeps the codes");
        deleted.clear();
        assert_both_match_reference(&plain, &coded, &deleted, &queries);

        // Inserts after the compaction extend the map (and the codes);
        // fresh deletes mix old and new ids.
        for index in [&mut plain, &mut coded] {
            for v in extra.iter() {
                index.insert(v).unwrap();
            }
            for id in [1u64, 2, 3, 500, 1601, 1650] {
                index.delete(id).unwrap();
            }
        }
        deleted.extend([1u64, 2, 3, 500, 1601, 1650]);
        assert_both_match_reference(&plain, &coded, &deleted, &queries);
        drop((plain, coded));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
