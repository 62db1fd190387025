//! SRS (Sun, Wang, Qin, Zhang, Lin — PVLDB 2014): c-ANN with a *tiny* index.
//!
//! SRS projects the ν-dimensional data onto just `m ≈ 6` Gaussian
//! dimensions, indexes the projections in a low-dimensional spatial
//! structure, and answers queries by walking the projected space in
//! **incremental nearest-neighbor order**, verifying each visited point with
//! one exact (disk) distance. Because `‖f(o)−f(q)‖²/d(o,q)² ~ χ²_m`, the
//! projected frontier distance bounds the probability that any unseen point
//! beats the current k-th answer — SRS stops when that probability is small
//! (early termination, threshold τ) or when `t·n` points have been examined
//! (paper §5: SRS-12 with m = 6, τ = 0.1809, t = 0.00242).
//!
//! Reproduction note: the original indexes projections in a disk R-tree; the
//! projected table is 6 floats/point (24 B), the "tiny index that fits in
//! memory" that is SRS's headline feature, so we use the in-memory kd-tree
//! substrate with incremental NN — the same access order, the same
//! verification IO.

use crate::kdtree::KdTree;
use crate::lsh::{gaussian_projections, project};
use crate::stats_math::chi2_cdf;
use hd_core::api::{AnnIndex, IndexStats, SearchOutput, SearchRequest};
use hd_core::dataset::Dataset;
use hd_core::distance::l2_sq;
use hd_core::topk::{Neighbor, TopK};
use hd_storage::{IoSnapshot, VectorHeap};
use std::io;
use std::path::Path;

/// Parameters (paper §5: SRS-12, c = 2, m = 6, τ = 0.1809, t = 0.00242).
#[derive(Debug, Clone, Copy)]
pub struct SrsParams {
    /// Projected dimensionality m.
    pub m: usize,
    /// Early-termination threshold τ on the χ² confidence.
    pub tau: f64,
    /// Maximum fraction of points examined, t.
    pub t: f64,
    pub cache_pages: usize,
    pub seed: u64,
}

impl Default for SrsParams {
    fn default() -> Self {
        Self {
            m: 6,
            tau: 0.1809,
            t: 0.00242,
            cache_pages: 0,
            seed: 9,
        }
    }
}

/// The SRS index: an in-memory kd-tree over 6-D projections + the disk heap.
pub struct Srs {
    params: SrsParams,
    projections: Vec<Vec<f32>>,
    tree: KdTree,
    heap: VectorHeap,
    n: usize,
}

impl std::fmt::Debug for Srs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Srs")
            .field("n", &self.n)
            .field("m", &self.params.m)
            .finish()
    }
}

impl Srs {
    pub fn build(data: &Dataset, params: SrsParams, dir: impl AsRef<Path>) -> io::Result<Self> {
        crate::require_l2(
            data,
            "SRS",
            "its 2-stable Gaussian projections preserve Euclidean distances only",
        )?;
        assert!(!data.is_empty(), "cannot index an empty dataset");
        assert!(params.m >= 1, "need at least one projection");
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let projections = gaussian_projections(data.dim(), params.m, params.seed);

        let mut projected = Vec::with_capacity(data.len() * params.m);
        for p in data.iter() {
            for a in &projections {
                projected.push(project(a, p));
            }
        }
        let tree = KdTree::build(&Dataset::from_flat(params.m, projected));

        let mut heap = VectorHeap::create(dir.join("srs.heap"), data.dim(), params.cache_pages)?;
        for p in data.iter() {
            heap.append(p)?;
        }
        heap.pool().reset_stats();
        Ok(Self {
            params,
            projections,
            tree,
            heap,
            n: data.len(),
        })
    }

    /// kANN query: incremental NN in projected space with χ²-based early
    /// termination.
    pub fn knn(&self, query: &[f32], k: usize) -> io::Result<Vec<Neighbor>> {
        let k = k.min(self.n);
        if k == 0 {
            return Ok(Vec::new());
        }
        let q_proj: Vec<f32> = self.projections.iter().map(|a| project(a, query)).collect();
        let max_examined = ((self.params.t * self.n as f64).ceil() as usize).max(k);

        let mut tk = TopK::new(k);
        let mut vbuf = Vec::with_capacity(self.heap.dim());
        let mut examined = 0usize;
        for (id, proj_d2) in self.tree.incremental_nn(&q_proj) {
            self.heap.get_into(id as u64, &mut vbuf)?;
            tk.push(Neighbor::new(u64::from(id), l2_sq(query, &vbuf)));
            examined += 1;
            if examined >= max_examined && tk.len() == k {
                break;
            }
            // Early termination: any unseen point has projected distance ≥
            // the frontier; the chance its true distance beats the current
            // k-th is 1 − ψ_m(Δ²_proj / D_k²). Stop once that is ≤ τ.
            if tk.len() == k {
                let dk2 = tk.bound() as f64; // squared k-th distance
                if dk2 > 0.0 {
                    let confidence = chi2_cdf(proj_d2 as f64 / dk2, self.params.m);
                    if confidence >= 1.0 - self.params.tau {
                        break;
                    }
                }
            }
        }

        let mut out = tk.into_sorted();
        for nb in &mut out {
            nb.dist = nb.dist.sqrt();
        }
        Ok(out)
    }

    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The famous tiny index: m floats per point plus the kd-tree topology.
    pub fn memory_bytes(&self) -> usize {
        self.tree.memory_bytes()
            + self
                .projections
                .iter()
                .map(|p| p.capacity() * 4)
                .sum::<usize>()
    }

    pub fn disk_bytes(&self) -> u64 {
        self.heap.disk_bytes()
    }

    pub fn io_stats(&self) -> IoSnapshot {
        self.heap.pool().stats()
    }

    pub fn reset_io_stats(&self) {
        self.heap.pool().reset_stats();
    }
}

impl AnnIndex for Srs {
    fn len(&self) -> u64 {
        self.n as u64
    }

    fn dim(&self) -> usize {
        self.heap.dim()
    }

    /// The budget knobs do not apply: SRS terminates on its χ² confidence
    /// threshold τ or the t·n examination cap.
    fn search_core(&self, query: &[f32], req: &SearchRequest) -> io::Result<SearchOutput> {
        Ok(SearchOutput::from_neighbors(self.knn(query, req.k)?))
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            disk_bytes: self.disk_bytes(),
            memory_bytes: self.memory_bytes(),
            build_memory_bytes: self.memory_bytes() + self.heap.dim() * 4 * self.params.m,
            io: self.io_stats(),
            metric: hd_core::metric::Metric::L2,
            // Static baselines: nothing tombstoned, no write path.
            stored_len: AnnIndex::len(self),
            live_len: AnnIndex::len(self),
            write: Default::default(),
        }
    }

    fn reset_io_stats(&self) {
        Srs::reset_io_stats(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_core::dataset::{generate, DatasetProfile};
    use hd_core::ground_truth::ground_truth_knn;
    use hd_core::metrics::score_workload;
    use std::path::PathBuf;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("hd_srs_tests")
            .join(format!("{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn self_query_finds_itself() {
        let (data, _) = generate(&DatasetProfile::SIFT, 1000, 1, 41);
        let dir = test_dir("self");
        let idx = Srs::build(&data, SrsParams::default(), &dir).unwrap();
        // The query's projection coincides with the object's, so it is the
        // first incremental NN and is verified immediately.
        let res = idx.knn(data.get(99), 1).unwrap();
        assert_eq!(res[0].id, 99);
        assert_eq!(res[0].dist, 0.0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn tiny_index_memory_profile() {
        let (data, _) = generate(&DatasetProfile::SIFT, 4000, 1, 42);
        let dir = test_dir("tiny");
        let idx = Srs::build(&data, SrsParams::default(), &dir).unwrap();
        let raw = data.len() * data.dim() * 4;
        assert!(
            idx.memory_bytes() < raw / 4,
            "SRS index ({}) should be far smaller than the data ({raw})",
            idx.memory_bytes()
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn examination_budget_bounds_io() {
        let (data, queries) = generate(&DatasetProfile::SIFT, 3000, 1, 43);
        let dir = test_dir("budget");
        let params = SrsParams {
            t: 0.01,  // 30 points
            tau: 0.0, // disable early termination: force the budget path
            ..Default::default()
        };
        let idx = Srs::build(&data, params, &dir).unwrap();
        idx.reset_io_stats();
        idx.knn(queries.get(0), 10).unwrap();
        assert!(
            idx.io_stats().physical_reads <= 35,
            "examined more than t·n: {:?}",
            idx.io_stats()
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn moderate_quality_on_clustered_data() {
        let (data, queries) = generate(&DatasetProfile::SIFT, 3000, 10, 44);
        let dir = test_dir("qual");
        // Generous budget for the quality check.
        let params = SrsParams {
            t: 0.05,
            ..Default::default()
        };
        let idx = Srs::build(&data, params, &dir).unwrap();
        let truth = ground_truth_knn(&data, &queries, 10, 4);
        let approx: Vec<Vec<Neighbor>> = queries.iter().map(|q| idx.knn(q, 10).unwrap()).collect();
        let s = score_workload(&truth, &approx);
        assert!(s.recall > 0.15, "SRS recall too low: {}", s.recall);
        assert!(s.ratio < 2.0, "SRS ratio too high: {}", s.ratio);
        std::fs::remove_dir_all(dir).ok();
    }
}
