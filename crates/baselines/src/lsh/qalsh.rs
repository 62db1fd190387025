//! QALSH (Huang, Feng, Zhang, Fang, Ng — PVLDB 2015): *query-aware* LSH.
//!
//! Buckets are not fixed at build time: each hash function is just the raw
//! projection `h_i(o) = a_i·o`, indexed in its own **disk B+-tree**. At query
//! time the bucket of width `w` is anchored *at the query's own projection*,
//! and virtual rehashing widens it by `c` per round. Collision counting and
//! the T1/T2 termination conditions mirror C2LSH; the query-aware anchoring
//! is what buys the accuracy edge the paper reports (§2.2.4: "as a result,
//! accuracy improves").
//!
//! This is a faithfully disk-based method: both the projection trees and the
//! verification heap are paged, so its IO profile (two cursor walks per tree
//! per round + one random access per verified candidate) lands in the ledger.

use crate::lsh::{encode_f64_key, gaussian_projections, project};
use crate::stats_math::qalsh_collision;
use hd_btree::BTree;
use hd_core::api::{AnnIndex, IndexStats, SearchOutput, SearchRequest};
use hd_core::dataset::Dataset;
use hd_core::distance::l2_sq;
use hd_core::topk::{Neighbor, TopK};
use hd_storage::{BufferPool, IoSnapshot, Pager, VectorHeap};
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Parameters (paper §5: c = 2, β = 100/n, δ = 1/e; w from QALSH's optimal
/// formula ≈ 2.719 for c = 2).
#[derive(Debug, Clone, Copy)]
pub struct QalshParams {
    pub c: f64,
    pub w: f64,
    pub delta: f64,
    pub beta_n: usize,
    /// Cap on the hash-function count (each is a disk B+-tree).
    pub max_m: usize,
    pub cache_pages: usize,
    pub seed: u64,
}

impl Default for QalshParams {
    fn default() -> Self {
        Self {
            c: 2.0,
            w: 2.719,
            delta: 1.0 / std::f64::consts::E,
            beta_n: 100,
            max_m: 64,
            cache_pages: 0,
            seed: 5,
        }
    }
}

fn derive_m_l(p: &QalshParams, n: usize) -> (usize, usize) {
    let p1 = qalsh_collision(p.w, 1.0);
    let p2 = qalsh_collision(p.w, p.c);
    let alpha = (p1 + p2) / 2.0;
    let beta = (p.beta_n as f64 / n as f64).clamp(1e-9, 0.5);
    let m1 = (1.0 / (2.0 * (p1 - alpha).powi(2))) * (1.0 / p.delta).ln();
    let m2 = (1.0 / (2.0 * (alpha - p2).powi(2))) * (2.0 / beta).ln();
    let m = (m1.max(m2).ceil() as usize).clamp(4, p.max_m);
    let l = ((alpha * m as f64).ceil() as usize).max(1);
    (m, l)
}

/// The QALSH index: m projection B+-trees + the vector heap.
pub struct Qalsh {
    params: QalshParams,
    m: usize,
    l: usize,
    projections: Vec<Vec<f32>>,
    trees: Vec<BTree>,
    heap: VectorHeap,
    n: usize,
    /// Corpus residency during build, for uniform construction-memory
    /// accounting.
    corpus_bytes: usize,
}

impl std::fmt::Debug for Qalsh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Qalsh")
            .field("n", &self.n)
            .field("m", &self.m)
            .field("l", &self.l)
            .finish()
    }
}

impl Qalsh {
    pub fn build(data: &Dataset, params: QalshParams, dir: impl AsRef<Path>) -> io::Result<Self> {
        crate::require_l2(data, "QALSH", "its query-aware hash family is Euclidean")?;
        assert!(!data.is_empty(), "cannot index an empty dataset");
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let n = data.len();
        let (m, l) = derive_m_l(&params, n);
        let projections = gaussian_projections(data.dim(), m, params.seed);

        let mut trees = Vec::with_capacity(m);
        for (i, a) in projections.iter().enumerate() {
            let mut entries: Vec<(Vec<u8>, Vec<u8>)> = (0..n)
                .map(|j| {
                    let p = project(a, data.get(j)) as f64;
                    let mut key = encode_f64_key(p).to_vec();
                    key.extend_from_slice(&(j as u64).to_be_bytes());
                    (key, (j as u64).to_le_bytes().to_vec())
                })
                .collect();
            entries.sort_unstable();
            let pager = Pager::create(dir.join(format!("qalsh_{i}.bt")))?;
            let pool = Arc::new(BufferPool::new(pager, params.cache_pages));
            let mut tree = BTree::create(pool, 16, 8)?;
            tree.bulk_load(entries, 1.0)?;
            trees.push(tree);
        }

        let mut heap = VectorHeap::create(dir.join("qalsh.heap"), data.dim(), params.cache_pages)?;
        for p in data.iter() {
            heap.append(p)?;
        }

        let q = Self {
            params,
            m,
            l,
            projections,
            trees,
            heap,
            n,
            corpus_bytes: data.memory_bytes(),
        };
        q.reset_io_stats();
        Ok(q)
    }

    pub fn m(&self) -> usize {
        self.m
    }

    /// kANN query with query-anchored virtual rehashing.
    pub fn knn(&self, query: &[f32], k: usize) -> io::Result<Vec<Neighbor>> {
        let k = k.min(self.n);
        if k == 0 {
            return Ok(Vec::new());
        }
        let budget = self.params.beta_n + k;
        let q_proj: Vec<f64> = self
            .projections
            .iter()
            .map(|a| project(a, query) as f64)
            .collect();

        // Bidirectional frontier per tree.
        let mut fwd = Vec::with_capacity(self.m);
        let mut bwd = Vec::with_capacity(self.m);
        for (i, tree) in self.trees.iter().enumerate() {
            let mut probe = encode_f64_key(q_proj[i]).to_vec();
            probe.extend_from_slice(&0u64.to_be_bytes());
            let f = tree.seek(&probe)?;
            let mut b = f.clone();
            b.retreat()?;
            fwd.push(f);
            bwd.push(b);
        }

        let mut counts = vec![0u16; self.n];
        let mut verified = vec![false; self.n];
        let mut tk = TopK::new(k);
        let mut n_verified = 0usize;
        let mut vbuf = Vec::with_capacity(self.heap.dim());

        let mut level: i32 = 0;
        'rounds: loop {
            let half_window = self.params.w / 2.0 * self.params.c.powi(level);
            for i in 0..self.m {
                // Pull entries whose projection lies within the window.
                loop {
                    let mut progressed = false;
                    if fwd[i].valid() {
                        let p = crate::lsh::decode_f64_key(fwd[i].key());
                        if p - q_proj[i] <= half_window {
                            let id =
                                u64::from_le_bytes(fwd[i].value().try_into().expect("id value"));
                            self.count_and_verify(
                                id,
                                query,
                                &mut counts,
                                &mut verified,
                                &mut tk,
                                &mut n_verified,
                                &mut vbuf,
                            )?;
                            fwd[i].advance()?;
                            progressed = true;
                        }
                    }
                    if bwd[i].valid() {
                        let p = crate::lsh::decode_f64_key(bwd[i].key());
                        if q_proj[i] - p <= half_window {
                            let id =
                                u64::from_le_bytes(bwd[i].value().try_into().expect("id value"));
                            self.count_and_verify(
                                id,
                                query,
                                &mut counts,
                                &mut verified,
                                &mut tk,
                                &mut n_verified,
                                &mut vbuf,
                            )?;
                            bwd[i].retreat()?;
                            progressed = true;
                        }
                    }
                    if !progressed {
                        break;
                    }
                    if n_verified >= budget {
                        break 'rounds; // T2
                    }
                }
            }
            // T1: k verified candidates within c·R.
            let radius = self.params.w * self.params.c.powi(level);
            let threshold = (self.params.c * radius) as f32;
            if tk.len() == k && tk.bound() <= threshold * threshold {
                break;
            }
            // All trees exhausted in both directions: exhaustive.
            if (0..self.m).all(|i| !fwd[i].valid() && !bwd[i].valid()) {
                break;
            }
            level += 1;
            if level > 128 {
                break;
            }
        }

        let mut out = tk.into_sorted();
        for nb in &mut out {
            nb.dist = nb.dist.sqrt();
        }
        Ok(out)
    }

    #[allow(clippy::too_many_arguments)]
    fn count_and_verify(
        &self,
        id: u64,
        query: &[f32],
        counts: &mut [u16],
        verified: &mut [bool],
        tk: &mut TopK,
        n_verified: &mut usize,
        vbuf: &mut Vec<f32>,
    ) -> io::Result<()> {
        let i = id as usize;
        counts[i] += 1;
        if counts[i] as usize >= self.l && !verified[i] {
            verified[i] = true;
            self.heap.get_into(id, vbuf)?;
            tk.push(Neighbor::new(id, l2_sq(query, vbuf)));
            *n_verified += 1;
        }
        Ok(())
    }

    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    pub fn disk_bytes(&self) -> u64 {
        self.trees.iter().map(|t| t.disk_bytes()).sum::<u64>() + self.heap.disk_bytes()
    }

    /// Query-resident memory: just projection vectors (m · ν floats) and the
    /// per-query count array — QALSH's small-footprint profile (Fig. 8e/j/o).
    pub fn memory_bytes(&self) -> usize {
        self.projections
            .iter()
            .map(|p| p.capacity() * 4)
            .sum::<usize>()
            + self
                .trees
                .iter()
                .map(|t| t.pool().memory_bytes())
                .sum::<usize>()
            + self.heap.pool().memory_bytes()
    }

    pub fn io_stats(&self) -> IoSnapshot {
        let mut total = self.heap.pool().stats();
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
        self.heap.pool().reset_stats();
    }
}

impl AnnIndex for Qalsh {
    fn len(&self) -> u64 {
        self.n as u64
    }

    fn dim(&self) -> usize {
        self.heap.dim()
    }

    /// The budget knobs do not apply: QALSH's candidate volume is governed
    /// by its own βn + k bound and collision threshold.
    fn search_core(&self, query: &[f32], req: &SearchRequest) -> io::Result<SearchOutput> {
        Ok(SearchOutput::from_neighbors(self.knn(query, req.k)?))
    }

    fn stats(&self) -> IndexStats {
        // Build sorts (projection, id) pairs per hash tree over the
        // resident corpus.
        IndexStats {
            disk_bytes: self.disk_bytes(),
            memory_bytes: self.memory_bytes(),
            build_memory_bytes: self.n * 24 + self.corpus_bytes,
            io: self.io_stats(),
            metric: hd_core::metric::Metric::L2,
            // Static baselines: nothing tombstoned, no write path.
            stored_len: AnnIndex::len(self),
            live_len: AnnIndex::len(self),
            write: Default::default(),
        }
    }

    fn reset_io_stats(&self) {
        Qalsh::reset_io_stats(self);
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
            .join("hd_qalsh_tests")
            .join(format!("{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn small_params() -> QalshParams {
        QalshParams {
            max_m: 24,
            ..Default::default()
        }
    }

    #[test]
    fn self_query_finds_itself() {
        let (data, _) = generate(&DatasetProfile::SIFT, 800, 1, 31);
        let dir = test_dir("self");
        let idx = Qalsh::build(&data, small_params(), &dir).unwrap();
        let res = idx.knn(data.get(13), 1).unwrap();
        assert_eq!(res[0].id, 13);
        assert_eq!(res[0].dist, 0.0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn quality_exceeds_c2lsh_class() {
        let (data, queries) = generate(&DatasetProfile::SIFT, 3000, 10, 32);
        let dir = test_dir("qual");
        let idx = Qalsh::build(&data, small_params(), &dir).unwrap();
        let truth = ground_truth_knn(&data, &queries, 10, 4);
        let approx: Vec<Vec<Neighbor>> = queries.iter().map(|q| idx.knn(q, 10).unwrap()).collect();
        let s = score_workload(&truth, &approx);
        assert!(s.recall > 0.2, "QALSH recall too low: {}", s.recall);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn termination_respects_budget() {
        let (data, queries) = generate(&DatasetProfile::SIFT, 2000, 1, 33);
        let dir = test_dir("budget");
        let idx = Qalsh::build(
            &data,
            QalshParams {
                beta_n: 40,
                max_m: 16,
                ..Default::default()
            },
            &dir,
        )
        .unwrap();
        let res = idx.knn(queries.get(0), 10).unwrap();
        assert!(res.len() <= 10);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn disk_based_trees_do_physical_reads() {
        let (data, queries) = generate(&DatasetProfile::SIFT, 1500, 1, 34);
        let dir = test_dir("io");
        let idx = Qalsh::build(&data, small_params(), &dir).unwrap();
        idx.reset_io_stats();
        idx.knn(queries.get(0), 5).unwrap();
        let io = idx.io_stats();
        assert!(io.physical_reads > 0, "QALSH must hit the disk trees");
        assert_eq!(io.physical_writes, 0);
        std::fs::remove_dir_all(dir).ok();
    }
}
