//! Multicurves (Valle, Cord, Philipp-Foliguet — CIKM 2008), the paper's
//! space-filling-curve comparator (§2.2.3, §2.2.6).
//!
//! Like HD-Index it builds one Hilbert curve per dimension subset, but its
//! B+-tree leaves store the **full object descriptor** next to the key. That
//! removes the per-candidate random access (distances are computed straight
//! from leaf bytes) at the cost of replicating the entire dataset once per
//! curve — which is exactly why Fig. 8 shows Multicurves with the largest
//! index (1.2 TB for SIFT100M) and why it cannot scale to SIFT1B. With
//! descriptors larger than a page (e.g. Enron's 5476 B), construction fails
//! — the paper's "NP: not possible due to an inherent limitation".

use hd_btree::{leaf_capacity, BTree};
use hd_core::api::{AnnIndex, IndexStats, SearchOutput, SearchRequest};
use hd_core::dataset::Dataset;
use hd_core::metric::Metric;
use hd_core::partition::Partitioning;
use hd_core::topk::{Neighbor, TopK};
use hd_hilbert::HilbertCurve;
use hd_storage::{BufferPool, IoSnapshot, Pager};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Construction parameters (paper §5: τ = 8, α = 4096).
#[derive(Debug, Clone, Copy)]
pub struct MulticurvesParams {
    pub tau: usize,
    pub hilbert_order: u32,
    /// Per-axis domain for grid quantization.
    pub domain: (f32, f32),
    /// Candidates examined per curve at query time.
    pub alpha: usize,
    pub cache_pages: usize,
}

impl Default for MulticurvesParams {
    fn default() -> Self {
        Self {
            tau: 8,
            hilbert_order: 8,
            domain: (0.0, 255.0),
            alpha: 4096,
            cache_pages: 0,
        }
    }
}

/// The Multicurves index: τ B+-trees, each storing `(hilbert key ++ id) →
/// full descriptor`.
pub struct Multicurves {
    params: MulticurvesParams,
    partitioning: Partitioning,
    curves: Vec<HilbertCurve>,
    trees: Vec<BTree>,
    dim: usize,
    n: usize,
    metric: Metric,
}

impl std::fmt::Debug for Multicurves {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Multicurves")
            .field("n", &self.n)
            .field("tau", &self.params.tau)
            .finish()
    }
}

impl Multicurves {
    /// Builds the index; errors with `InvalidInput` when a descriptor cannot
    /// fit in a leaf page (the paper's "NP" configurations).
    pub fn build(
        data: &Dataset,
        params: MulticurvesParams,
        dir: impl AsRef<Path>,
    ) -> io::Result<Self> {
        assert!(!data.is_empty(), "cannot index an empty dataset");
        let dim = data.dim();
        assert!(params.tau <= dim, "more curves than dimensions");
        let metric = data.metric();
        if !metric.is_metric_space() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "Multicurves' Hilbert-adjacency candidates presuppose spatial \
                     locality, which {metric} does not provide (paper: NP)"
                ),
            ));
        }
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        // Same domain derivation as HdIndex: normalized (cosine) corpora
        // occupy the unit ball regardless of the caller's domain.
        let mut params = params;
        if metric.normalizes_vectors() {
            params.domain = (-1.0, 1.0);
        }
        let partitioning = Partitioning::contiguous(dim, params.tau);
        let (lo, hi) = params.domain;
        let val_len = dim * 4;

        let mut curves = Vec::with_capacity(params.tau);
        let mut trees = Vec::with_capacity(params.tau);
        let mut sub = Vec::new();
        for g in 0..params.tau {
            let eta = partitioning.group(g).len();
            if eta > 64 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "η = {eta} dimensions per curve exceeds the 64-dim Hilbert kernel: \
                         Multicurves cannot index ν = {dim} at τ = {} (paper: NP)",
                        params.tau
                    ),
                ));
            }
            let curve = HilbertCurve::new(eta, params.hilbert_order);
            let key_len = curve.key_len() + 8;
            let pager = Pager::create(dir.join(format!("mc_tree_{g}.bt")))?;
            let page_size = pager.page_size();
            if leaf_capacity(page_size, key_len, val_len) == 0 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!(
                        "descriptor ({val_len} B) + key ({key_len} B) exceed a {page_size} B \
                         leaf page: Multicurves cannot index this dimensionality (paper: NP)"
                    ),
                ));
            }
            let pool = Arc::new(BufferPool::new(pager, params.cache_pages));

            let hk_len = curve.key_len();
            let mut entries: Vec<(Vec<u8>, Vec<u8>)> = Vec::with_capacity(data.len());
            for (j, p) in data.iter().enumerate() {
                partitioning.project_into(p, g, &mut sub);
                let mut key = vec![0u8; key_len];
                curve.encode_floats_into(&sub, lo, hi, &mut key[..hk_len]);
                key[hk_len..].copy_from_slice(&(j as u64).to_be_bytes());
                let mut value = Vec::with_capacity(val_len);
                for &x in p {
                    value.extend_from_slice(&x.to_le_bytes());
                }
                entries.push((key, value));
            }
            entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));

            let mut tree = BTree::create(pool, key_len, val_len)?;
            tree.bulk_load(entries, 1.0)?;
            curves.push(curve);
            trees.push(tree);
        }
        let mc = Self {
            params,
            partitioning,
            curves,
            trees,
            dim,
            n: data.len(),
            metric,
        };
        mc.reset_io_stats();
        Ok(mc)
    }

    /// Approximate kNN: α key-adjacent candidates per curve, distances
    /// computed directly from leaf-resident descriptors, best k of the
    /// aggregate (Valle et al.'s aggregation step).
    pub fn knn(&self, query: &[f32], k: usize) -> io::Result<Vec<Neighbor>> {
        self.knn_with_alpha(query, k, self.params.alpha)
    }

    /// [`Self::knn`] with a per-call candidate budget α instead of the
    /// build-time default.
    pub fn knn_with_alpha(
        &self,
        query: &[f32],
        k: usize,
        alpha: usize,
    ) -> io::Result<Vec<Neighbor>> {
        assert_eq!(query.len(), self.dim, "query dimensionality mismatch");
        let k = k.min(self.n);
        if k == 0 {
            return Ok(Vec::new());
        }
        let mut qnorm = Vec::new();
        let query = self.metric.normalized_query(query, &mut qnorm);
        // At most n distinct ids can ever be collected, whatever α says.
        let alpha = alpha.min(self.n);
        let mut tk = TopK::new(k);
        let mut seen = std::collections::HashSet::with_capacity(
            alpha.saturating_mul(self.trees.len()).min(self.n),
        );
        let (lo, hi) = self.params.domain;
        let (mut sub, mut probe) = (Vec::new(), Vec::new());
        let mut vbuf: Vec<f32> = Vec::with_capacity(self.dim);

        for (g, tree) in self.trees.iter().enumerate() {
            self.partitioning.project_into(query, g, &mut sub);
            // Hilbert key ++ id 0: sorts before every entry of the same cell.
            let hk_len = self.curves[g].key_len();
            probe.clear();
            probe.resize(hk_len + 8, 0);
            self.curves[g].encode_floats_into(&sub, lo, hi, &mut probe[..hk_len]);
            let mut fwd = tree.seek(&probe)?;
            let mut bwd = fwd.clone();
            bwd.retreat()?;

            let mut taken = 0usize;
            let consume = |cur: &hd_btree::Cursor,
                           seen: &mut std::collections::HashSet<u64>,
                           tk: &mut TopK,
                           vbuf: &mut Vec<f32>| {
                let klen = cur.key().len();
                let id = u64::from_be_bytes(cur.key()[klen - 8..].try_into().expect("id tail"));
                if seen.insert(id) {
                    vbuf.clear();
                    for c in cur.value().chunks_exact(4) {
                        vbuf.push(f32::from_le_bytes([c[0], c[1], c[2], c[3]]));
                    }
                    tk.push(Neighbor::new(id, self.metric.key(query, vbuf)));
                }
            };
            while taken < alpha && (fwd.valid() || bwd.valid()) {
                if fwd.valid() {
                    consume(&fwd, &mut seen, &mut tk, &mut vbuf);
                    taken += 1;
                    fwd.advance()?;
                }
                if taken < alpha && bwd.valid() {
                    consume(&bwd, &mut seen, &mut tk, &mut vbuf);
                    taken += 1;
                    bwd.retreat()?;
                }
            }
        }
        let mut out = tk.into_sorted();
        for nb in &mut out {
            nb.dist = self.metric.finalize(nb.dist);
        }
        Ok(out)
    }

    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// τ× dataset replication makes this the largest index of the lineup.
    pub fn disk_bytes(&self) -> u64 {
        self.trees.iter().map(|t| t.disk_bytes()).sum()
    }

    pub fn memory_bytes(&self) -> usize {
        self.trees.iter().map(|t| t.pool().memory_bytes()).sum()
    }

    pub fn io_stats(&self) -> IoSnapshot {
        let mut total = IoSnapshot::default();
        for t in &self.trees {
            let s = t.pool().stats();
            total.logical_reads += s.logical_reads;
            total.physical_reads += s.physical_reads;
            total.physical_writes += s.physical_writes;
        }
        total
    }

    pub fn reset_io_stats(&self) {
        for t in &self.trees {
            t.pool().reset_stats();
        }
    }
}

impl AnnIndex for Multicurves {
    fn len(&self) -> u64 {
        self.n as u64
    }

    fn dim(&self) -> usize {
        self.dim
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    /// `candidates` overrides the per-curve budget α (clamped into
    /// `[1, n]`, the same convention as HD-Index); `refine` does not apply
    /// (descriptors live in the leaves, so candidate generation *is*
    /// refinement).
    fn search_core(&self, query: &[f32], req: &SearchRequest) -> io::Result<SearchOutput> {
        let alpha = req
            .candidates
            .unwrap_or(self.params.alpha)
            .clamp(1, self.n.max(1));
        Ok(SearchOutput::from_neighbors(
            self.knn_with_alpha(query, req.k, alpha)?,
        ))
    }

    fn stats(&self) -> IndexStats {
        // Construction sorts each curve's (key, descriptor) table over the
        // in-memory corpus.
        IndexStats {
            disk_bytes: self.disk_bytes(),
            memory_bytes: self.memory_bytes(),
            build_memory_bytes: self.n * (self.dim * 4 + 64),
            io: self.io_stats(),
            metric: self.metric,
            // Static baselines: nothing tombstoned, no write path.
            stored_len: AnnIndex::len(self),
            live_len: AnnIndex::len(self),
            write: Default::default(),
        }
    }

    fn reset_io_stats(&self) {
        Multicurves::reset_io_stats(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_core::dataset::{generate, DatasetProfile};
    use hd_core::ground_truth::ground_truth_knn;
    use hd_core::metrics::{ids, score_workload};
    use std::path::PathBuf;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("hd_multicurves_tests")
            .join(format!("{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn params() -> MulticurvesParams {
        MulticurvesParams {
            tau: 4,
            hilbert_order: 8,
            domain: (0.0, 255.0),
            alpha: 256,
            cache_pages: 0,
        }
    }

    #[test]
    fn finds_self_and_ranks_correctly() {
        let (data, queries) = generate(&DatasetProfile::SIFT, 3000, 10, 12);
        let dir = test_dir("quality");
        let mc = Multicurves::build(&data, params(), &dir).unwrap();
        let res = mc.knn(data.get(5), 1).unwrap();
        assert_eq!(res[0].dist, 0.0, "self-query must hit the object");

        let truth = ground_truth_knn(&data, &queries, 10, 4);
        let approx: Vec<Vec<Neighbor>> = queries.iter().map(|q| mc.knn(q, 10).unwrap()).collect();
        let s = score_workload(&truth, &approx);
        assert!(s.map > 0.4, "Multicurves MAP too low: {}", s.map);
        let _ = ids(&truth[0]);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn index_replicates_dataset_per_curve() {
        let (data, _) = generate(&DatasetProfile::SIFT, 1000, 1, 13);
        let dir = test_dir("size");
        let mc = Multicurves::build(&data, params(), &dir).unwrap();
        let raw = (data.len() * data.dim() * 4) as u64;
        assert!(
            mc.disk_bytes() > 3 * raw,
            "leaves must replicate descriptors per curve: {} vs raw {}",
            mc.disk_bytes(),
            raw
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn oversized_eta_is_np_not_panic() {
        // SUN at τ = 4 would need 128-dim curves: must error, not panic.
        let (data, _) = generate(&DatasetProfile::SUN, 50, 1, 16);
        let dir = test_dir("eta_np");
        let err = Multicurves::build(
            &data,
            MulticurvesParams {
                tau: 4,
                hilbert_order: 8,
                domain: (0.0, 1.0),
                alpha: 64,
                cache_pages: 0,
            },
            &dir,
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn oversized_descriptor_is_np() {
        // Enron-like: 1369 dims × 4 B > 4096 B page ⇒ construction refused.
        let (data, _) = generate(&DatasetProfile::ENRON, 30, 1, 14);
        let dir = test_dir("np");
        let err = Multicurves::build(
            &data,
            MulticurvesParams {
                tau: 37,
                hilbert_order: 8,
                domain: (0.0, 252_429.0),
                alpha: 64,
                cache_pages: 0,
            },
            &dir,
        )
        .unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn queries_do_no_heap_io_beyond_trees() {
        // Multicurves's design point: candidate refinement reads no extra
        // pages because descriptors live in the leaves.
        let (data, queries) = generate(&DatasetProfile::SIFT, 2000, 1, 15);
        let dir = test_dir("io");
        let mc = Multicurves::build(&data, params(), &dir).unwrap();
        mc.reset_io_stats();
        mc.knn(queries.get(0), 10).unwrap();
        let io = mc.io_stats();
        assert!(io.physical_reads > 0);
        assert_eq!(io.physical_writes, 0, "queries must be read-only");
        std::fs::remove_dir_all(dir).ok();
    }
}
