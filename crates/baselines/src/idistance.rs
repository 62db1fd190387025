//! iDistance (Yu, Ooi, Tan, Jagadish — VLDB 2001): the paper's *exact*
//! comparator (§2.2.6).
//!
//! Data space is partitioned by k-means; each partition `i` gets its centroid
//! as reference point, and every member `p` is indexed in a single disk
//! B+-tree under the scalar key `i·C + d(p, c_i)` (`C` strictly larger than
//! any intra-partition distance keeps partitions disjoint in key space).
//! Queries expand a search radius `r` by `Δr` per round, scanning only the
//! *delta* key intervals `[d(q,c_i) − r, d(q,c_i) + r]` of partitions whose
//! sphere intersects the query sphere, until the current k-th distance is
//! `≤ r` — at which point no unexamined point can improve the answer, so the
//! result is exact (MAP = 1 by construction, Fig. 8).

use hd_btree::BTree;
use hd_core::api::{AnnIndex, IndexStats, SearchOutput, SearchRequest};
use hd_core::dataset::Dataset;
use hd_core::distance::{l2, l2_sq_bounded};
use hd_core::kmeans::kmeans;
use hd_core::topk::{Neighbor, TopK};
use hd_storage::{BufferPool, IoSnapshot, Pager, VectorHeap};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Order-preserving 8-byte encoding of a non-negative `f64` key.
fn f64_key(v: f64) -> [u8; 8] {
    debug_assert!(v >= 0.0);
    v.to_bits().to_be_bytes()
}

/// Construction/query parameters.
#[derive(Debug, Clone, Copy)]
pub struct IDistanceParams {
    /// Number of k-means partitions (reference points).
    pub partitions: usize,
    /// Initial radius and increment, as fractions of the estimated data
    /// diameter (the paper's `r = 0.01, Δr = 0.01` are in normalized units).
    pub initial_r: f64,
    pub delta_r: f64,
    /// Buffer-pool pages for tree + heap (0 = paper measurement mode).
    pub cache_pages: usize,
    pub seed: u64,
}

impl Default for IDistanceParams {
    fn default() -> Self {
        Self {
            partitions: 64,
            initial_r: 0.01,
            delta_r: 0.01,
            cache_pages: 0,
            seed: 1,
        }
    }
}

/// The iDistance index: one B+-tree over scalar keys + the vector heap.
pub struct IDistance {
    tree: BTree,
    heap: VectorHeap,
    centers: Vec<Vec<f32>>,
    max_radius: Vec<f32>,
    /// Key-space stride `C` between partitions.
    stride: f64,
    /// Estimated diameter (scales `r`/`Δr`).
    diameter: f64,
    params: IDistanceParams,
}

impl std::fmt::Debug for IDistance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IDistance")
            .field("partitions", &self.centers.len())
            .field("n", &self.heap.len())
            .finish()
    }
}

impl IDistance {
    /// Builds the index in `dir` (files `idistance.bt`, `idistance.heap`).
    pub fn build(
        data: &Dataset,
        params: IDistanceParams,
        dir: impl AsRef<Path>,
    ) -> io::Result<Self> {
        crate::require_l2(
            data,
            "iDistance",
            "its one-dimensional key mapping and radius-expansion arithmetic assume \
             Euclidean geometry",
        )?;
        assert!(!data.is_empty(), "cannot index an empty dataset");
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let k_parts = params.partitions.min(data.len()).max(1);
        let km = kmeans(data, k_parts, 25, params.seed);

        // Partition radii and the key stride.
        let mut max_radius = vec![0.0f32; km.centroids.len()];
        let mut dists = vec![0.0f32; data.len()];
        for (i, p) in data.iter().enumerate() {
            let c = km.assignment[i] as usize;
            let d = l2(p, &km.centroids[c]);
            dists[i] = d;
            if d > max_radius[c] {
                max_radius[c] = d;
            }
        }
        let diameter = max_radius.iter().fold(0.0f32, |a, &b| a.max(b)) as f64 * 2.0;
        let stride = (diameter + 1.0) * 2.0;

        // Bulk-load sorted (key, id) entries; appending the id keeps keys
        // unique under distance ties.
        let mut entries: Vec<(Vec<u8>, Vec<u8>)> = (0..data.len())
            .map(|i| {
                let key_scalar = km.assignment[i] as f64 * stride + dists[i] as f64;
                let mut key = f64_key(key_scalar).to_vec();
                key.extend_from_slice(&(i as u64).to_be_bytes());
                (key, (i as u64).to_le_bytes().to_vec())
            })
            .collect();
        entries.sort_unstable();

        let pager = Pager::create(dir.join("idistance.bt"))?;
        let pool = Arc::new(BufferPool::new(pager, params.cache_pages));
        let mut tree = BTree::create(pool, 16, 8)?;
        tree.bulk_load(entries, 1.0)?;

        let mut heap =
            VectorHeap::create(dir.join("idistance.heap"), data.dim(), params.cache_pages)?;
        for p in data.iter() {
            heap.append(p)?;
        }

        let idx = Self {
            tree,
            heap,
            centers: km.centroids,
            max_radius,
            stride,
            diameter,
            params,
        };
        idx.reset_io_stats();
        Ok(idx)
    }

    /// Exact kNN by radius expansion.
    pub fn knn(&self, query: &[f32], k: usize) -> io::Result<Vec<Neighbor>> {
        let n = self.heap.len() as usize;
        let k = k.min(n);
        if k == 0 {
            return Ok(Vec::new());
        }
        let mut tk = TopK::new(k);
        let q_dists: Vec<f64> = self.centers.iter().map(|c| l2(query, c) as f64).collect();

        // Per-partition scan state: how far outward we've examined, in key
        // units left/right of d(q, c_i).
        let mut examined = vec![0usize; self.centers.len()];
        let mut left_done = vec![false; self.centers.len()];
        let mut right_done = vec![false; self.centers.len()];
        let mut lo_edge: Vec<f64> = q_dists.clone();
        let mut hi_edge: Vec<f64> = q_dists.clone();

        let mut scale = self.diameter;
        if scale <= 0.0 {
            // Every point coincides with its centroid (n = 1, or all
            // duplicates): the r += Δr crawl would step by ~ε and never
            // reach the data. Expand on the query-to-center scale instead;
            // exactness is independent of the step size — termination still
            // requires the k-th distance to be proven ≤ r.
            scale = q_dists.iter().fold(0.0f64, |a, &b| a.max(b)).max(1.0);
        }
        let mut r = self.params.initial_r * scale;
        let dr = (self.params.delta_r * scale).max(f64::EPSILON);
        let mut vbuf = Vec::with_capacity(self.heap.dim());
        let mut total_examined = 0usize;

        loop {
            for i in 0..self.centers.len() {
                // Skip partitions whose sphere cannot intersect B(q, r).
                if q_dists[i] - r > self.max_radius[i] as f64 {
                    continue;
                }
                // Right (outward) delta: (hi_edge, q_dist + r].
                if !right_done[i] {
                    let hi_target = (q_dists[i] + r).min(self.max_radius[i] as f64);
                    if hi_target >= hi_edge[i] {
                        let from = self.stride * i as f64 + hi_edge[i];
                        let to = self.stride * i as f64 + hi_target;
                        self.scan_range(query, from, to, &mut tk, &mut vbuf, &mut total_examined)?;
                        hi_edge[i] = hi_target + 1e-12;
                        if hi_target >= self.max_radius[i] as f64 {
                            right_done[i] = true;
                        }
                        examined[i] += 1;
                    }
                }
                // Left (inward) delta: [q_dist − r, lo_edge).
                if !left_done[i] {
                    let lo_target = (q_dists[i] - r).max(0.0);
                    if lo_target <= lo_edge[i] {
                        let from = self.stride * i as f64 + lo_target;
                        let to = self.stride * i as f64 + lo_edge[i];
                        self.scan_range(query, from, to, &mut tk, &mut vbuf, &mut total_examined)?;
                        lo_edge[i] = (lo_target - 1e-12).max(0.0);
                        if lo_target <= 0.0 {
                            left_done[i] = true;
                        }
                    }
                }
            }
            // Exactness: every unexamined point has |d(p,c) − d(q,c)| > r,
            // hence d(p,q) > r; if the k-th best ≤ r nothing can improve.
            // `tk.bound()` is the *squared* k-th distance, so it compares
            // against r² — comparing against r would terminate too early
            // (and lose exactness) whenever distances are below 1.
            if tk.len() == k && (tk.bound() as f64) <= r * r {
                break;
            }
            if total_examined >= n && left_done.iter().all(|&b| b) && right_done.iter().all(|&b| b)
            {
                break; // scanned everything: answer is exact by exhaustion
            }
            r += dr;
        }

        let mut out = tk.into_sorted();
        for nb in &mut out {
            nb.dist = nb.dist.sqrt();
        }
        Ok(out)
    }

    /// Scans B+-tree keys in `[from, to]` (scalar key space), refining every
    /// hit with an exact distance. Refinement uses the bounded kernel
    /// against the running k-th radius: points provably outside the top-k
    /// are abandoned mid-evaluation without affecting exactness (only
    /// points a full evaluation would also reject are abandoned).
    fn scan_range(
        &self,
        query: &[f32],
        from: f64,
        to: f64,
        tk: &mut TopK,
        vbuf: &mut Vec<f32>,
        examined: &mut usize,
    ) -> io::Result<()> {
        let mut probe = f64_key(from.max(0.0)).to_vec();
        probe.extend_from_slice(&0u64.to_be_bytes());
        let hi = f64_key(to.max(0.0));
        let mut cur = self.tree.seek(&probe)?;
        while cur.valid() {
            if cur.key()[..8] > hi[..] {
                break;
            }
            let id = u64::from_le_bytes(cur.value().try_into().expect("8-byte value"));
            self.heap.get_into(id, vbuf)?;
            let bound = tk.bound();
            let d = l2_sq_bounded(query, vbuf, bound);
            if d <= bound {
                tk.push(Neighbor::new(id, d));
            }
            *examined += 1;
            cur.advance()?;
        }
        Ok(())
    }

    pub fn len(&self) -> u64 {
        self.heap.len()
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub fn dim(&self) -> usize {
        self.heap.dim()
    }

    pub fn disk_bytes(&self) -> u64 {
        self.tree.disk_bytes() + self.heap.disk_bytes()
    }

    /// Indexing-time resident memory: the paper highlights that the public
    /// iDistance implementation loads the whole dataset (here: the dataset
    /// itself plus centroids — the build signature takes `&Dataset`, so the
    /// entire corpus is memory-resident during construction).
    pub fn build_memory_bytes(&self, n: usize, dim: usize) -> usize {
        n * dim * 4 + self.centers.len() * dim * 4
    }

    pub fn memory_bytes(&self) -> usize {
        self.centers.iter().map(|c| c.capacity() * 4).sum::<usize>()
            + self.max_radius.capacity() * 4
            + self.tree.pool().memory_bytes()
            + self.heap.pool().memory_bytes()
    }

    pub fn io_stats(&self) -> IoSnapshot {
        let a = self.tree.pool().stats();
        let b = self.heap.pool().stats();
        IoSnapshot {
            logical_reads: a.logical_reads + b.logical_reads,
            physical_reads: a.physical_reads + b.physical_reads,
            physical_writes: a.physical_writes + b.physical_writes,
        }
    }

    pub fn reset_io_stats(&self) {
        self.tree.pool().reset_stats();
        self.heap.pool().reset_stats();
    }
}

impl AnnIndex for IDistance {
    fn len(&self) -> u64 {
        self.heap.len()
    }

    fn dim(&self) -> usize {
        self.heap.dim()
    }

    /// Exact search; the budget knobs do not apply (radius expansion runs
    /// to proof of exactness).
    fn search_core(&self, query: &[f32], req: &SearchRequest) -> io::Result<SearchOutput> {
        Ok(SearchOutput::from_neighbors(self.knn(query, req.k)?))
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            disk_bytes: self.disk_bytes(),
            memory_bytes: self.memory_bytes(),
            build_memory_bytes: self.build_memory_bytes(self.heap.len() as usize, self.heap.dim()),
            io: self.io_stats(),
            metric: hd_core::metric::Metric::L2,
            // Static baselines: nothing tombstoned, no write path.
            stored_len: AnnIndex::len(self),
            live_len: AnnIndex::len(self),
            write: Default::default(),
        }
    }

    fn reset_io_stats(&self) {
        IDistance::reset_io_stats(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_core::dataset::{generate, DatasetProfile};
    use hd_core::ground_truth::knn_exact;
    use std::path::PathBuf;

    fn test_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir()
            .join("hd_idistance_tests")
            .join(format!("{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn degenerate_diameter_terminates() {
        // n = 1 (the sole point IS its centroid, diameter 0) used to make
        // the radius expansion crawl by f64::EPSILON per round — an
        // effectively infinite loop. It must answer (exactly) instead.
        let (data, queries) = generate(&DatasetProfile::SIFT, 1, 2, 13);
        let dir = test_dir("degenerate");
        let idx = IDistance::build(&data, IDistanceParams::default(), &dir).unwrap();
        for q in queries.iter() {
            let got = idx.knn(q, 3).unwrap();
            assert_eq!(got.len(), 1);
            assert_eq!(got[0].id, 0);
            assert_eq!(got, knn_exact(&data, q, 1));
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn exactness_on_clustered_data() {
        let (data, queries) = generate(&DatasetProfile::GLOVE, 1200, 10, 3);
        let dir = test_dir("exact");
        let idx = IDistance::build(
            &data,
            IDistanceParams {
                partitions: 16,
                cache_pages: 64,
                ..Default::default()
            },
            &dir,
        )
        .unwrap();
        for q in queries.iter() {
            let got = idx.knn(q, 10).unwrap();
            let want = knn_exact(&data, q, 10);
            let g: Vec<u64> = got.iter().map(|n| n.id).collect();
            let w: Vec<u64> = want.iter().map(|n| n.id).collect();
            assert_eq!(g, w, "iDistance must be exact");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn exactness_on_high_dim_integer_data() {
        let (data, queries) = generate(&DatasetProfile::SIFT, 800, 5, 4);
        let dir = test_dir("sift");
        let idx = IDistance::build(
            &data,
            IDistanceParams {
                partitions: 8,
                cache_pages: 64,
                ..Default::default()
            },
            &dir,
        )
        .unwrap();
        for q in queries.iter() {
            let got = idx.knn(q, 5).unwrap();
            let want = knn_exact(&data, q, 5);
            assert_eq!(
                got.iter().map(|n| n.id).collect::<Vec<_>>(),
                want.iter().map(|n| n.id).collect::<Vec<_>>()
            );
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn exactness_on_sub_unit_distances() {
        // All pairwise distances < 1: the radius-vs-squared-bound
        // termination check must compare r² (comparing r terminates the
        // expansion too early and silently loses exactness here).
        let (raw, raw_q) = generate(&DatasetProfile::GLOVE, 600, 6, 8);
        let scale = 1.0e-3f32;
        let mut data = Dataset::new(raw.dim());
        for p in raw.iter() {
            let s: Vec<f32> = p.iter().map(|x| x * scale).collect();
            data.push(&s);
        }
        let mut queries = Dataset::new(raw.dim());
        for q in raw_q.iter() {
            let s: Vec<f32> = q.iter().map(|x| x * scale).collect();
            queries.push(&s);
        }
        let dir = test_dir("subunit");
        let idx = IDistance::build(
            &data,
            IDistanceParams {
                partitions: 8,
                cache_pages: 64,
                ..Default::default()
            },
            &dir,
        )
        .unwrap();
        for q in queries.iter() {
            let got = idx.knn(q, 5).unwrap();
            let want = knn_exact(&data, q, 5);
            assert_eq!(
                got.iter().map(|n| n.id).collect::<Vec<_>>(),
                want.iter().map(|n| n.id).collect::<Vec<_>>(),
                "iDistance lost exactness on sub-unit distances"
            );
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn k_exceeding_n_returns_all() {
        let (data, _) = generate(&DatasetProfile::GLOVE, 30, 1, 5);
        let dir = test_dir("smalln");
        let idx = IDistance::build(
            &data,
            IDistanceParams {
                partitions: 4,
                cache_pages: 16,
                ..Default::default()
            },
            &dir,
        )
        .unwrap();
        let got = idx.knn(data.get(0), 100).unwrap();
        assert_eq!(got.len(), 30);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn io_is_counted() {
        let (data, queries) = generate(&DatasetProfile::GLOVE, 500, 1, 6);
        let dir = test_dir("io");
        let idx = IDistance::build(&data, IDistanceParams::default(), &dir).unwrap();
        idx.reset_io_stats();
        idx.knn(queries.get(0), 5).unwrap();
        assert!(idx.io_stats().physical_reads > 0);
        std::fs::remove_dir_all(dir).ok();
    }
}
