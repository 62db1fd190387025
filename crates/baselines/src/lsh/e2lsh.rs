//! E2LSH (Datar, Immorlica, Indyk, Mirrokni — SCG 2004): the classic
//! p-stable LSH scheme for Euclidean spaces that the rest of the family
//! builds on (paper §2.2.4: "The basic LSH scheme \[34\] was extended for use
//! in Euclidean spaces by E2LSH").
//!
//! `L` composite hash tables, each indexed by the concatenation
//! `g_j(o) = (h_{j,1}(o), …, h_{j,K}(o))` of `K` atomic hashes
//! `h(o) = ⌊(a·o + b)/w⌋`. A query probes its own bucket in every table and
//! verifies the union of the occupants. This is the structure whose
//! *super-linear index space* (`L` grows polynomially in `n` for theoretical
//! guarantees) motivates the paper's scalability critique (§1).

use crate::lsh::{gaussian_projections, project};
use hd_core::api::{AnnIndex, IndexStats, SearchOutput, SearchRequest};
use hd_core::dataset::Dataset;
use hd_core::distance::l2_sq;
use hd_core::topk::{Neighbor, TopK};
use hd_storage::{IoSnapshot, VectorHeap};
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::io;
use std::path::Path;

/// Parameters: `l` tables of `k_hashes` concatenated atomic hashes with
/// bucket width `w` (in units of the data's distance scale).
#[derive(Debug, Clone, Copy)]
pub struct E2lshParams {
    pub l: usize,
    pub k_hashes: usize,
    pub w: f64,
    pub cache_pages: usize,
    pub seed: u64,
}

impl Default for E2lshParams {
    fn default() -> Self {
        Self {
            l: 16,
            k_hashes: 4,
            w: 8.0,
            cache_pages: 0,
            seed: 17,
        }
    }
}

/// One composite hash table: bucket signature → object ids.
struct Table {
    projections: Vec<Vec<f32>>,
    offsets: Vec<f64>,
    buckets: HashMap<Vec<i32>, Vec<u32>>,
}

/// The E2LSH index.
pub struct E2lsh {
    params: E2lshParams,
    /// Bucket width scaled to the data (w × mean 1-NN-ish distance scale).
    w_scaled: f64,
    tables: Vec<Table>,
    heap: VectorHeap,
    n: usize,
}

impl std::fmt::Debug for E2lsh {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("E2lsh")
            .field("n", &self.n)
            .field("L", &self.params.l)
            .field("K", &self.params.k_hashes)
            .finish()
    }
}

impl E2lsh {
    pub fn build(data: &Dataset, params: E2lshParams, dir: impl AsRef<Path>) -> io::Result<Self> {
        crate::require_l2(data, "E2LSH", "its p-stable hash family is Euclidean")?;
        assert!(!data.is_empty(), "cannot index an empty dataset");
        assert!(params.l >= 1 && params.k_hashes >= 1);
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let n = data.len();

        // Scale w to the data: sample pair distances to estimate the scale
        // LSH buckets should live at (E2LSH leaves w's units to the user).
        let mut rng = rand::rngs::StdRng::seed_from_u64(params.seed);
        let mut scale = 0.0f64;
        let samples = 64.min(n * (n - 1) / 2).max(1);
        for _ in 0..samples {
            let a = rng.gen_range(0..n);
            let b = rng.gen_range(0..n);
            scale += (l2_sq(data.get(a), data.get(b)) as f64).sqrt();
        }
        let w_scaled = params.w * (scale / samples as f64).max(1e-9) / 16.0;

        let mut tables = Vec::with_capacity(params.l);
        for t in 0..params.l {
            let projections = gaussian_projections(
                data.dim(),
                params.k_hashes,
                params.seed ^ (t as u64 + 1) << 8,
            );
            let offsets: Vec<f64> = (0..params.k_hashes)
                .map(|_| rng.gen_range(0.0..w_scaled))
                .collect();
            let mut buckets: HashMap<Vec<i32>, Vec<u32>> = HashMap::new();
            for j in 0..n {
                let sig = Self::signature(&projections, &offsets, w_scaled, data.get(j));
                buckets.entry(sig).or_default().push(j as u32);
            }
            tables.push(Table {
                projections,
                offsets,
                buckets,
            });
        }

        let mut heap = VectorHeap::create(dir.join("e2lsh.heap"), data.dim(), params.cache_pages)?;
        for p in data.iter() {
            heap.append(p)?;
        }
        heap.pool().reset_stats();
        Ok(Self {
            params,
            w_scaled,
            tables,
            heap,
            n,
        })
    }

    fn signature(projections: &[Vec<f32>], offsets: &[f64], w: f64, v: &[f32]) -> Vec<i32> {
        projections
            .iter()
            .zip(offsets)
            .map(|(a, b)| ((project(a, v) as f64 + b) / w).floor() as i32)
            .collect()
    }

    /// kANN query: probe the query's bucket in every table, verify the union
    /// of occupants with exact (disk) distances.
    pub fn knn(&self, query: &[f32], k: usize) -> io::Result<Vec<Neighbor>> {
        let k = k.min(self.n);
        if k == 0 {
            return Ok(Vec::new());
        }
        let mut seen = std::collections::HashSet::new();
        let mut tk = TopK::new(k);
        let mut vbuf = Vec::with_capacity(self.heap.dim());
        for t in &self.tables {
            let sig = Self::signature(&t.projections, &t.offsets, self.w_scaled, query);
            if let Some(ids) = t.buckets.get(&sig) {
                for &id in ids {
                    if seen.insert(id) {
                        self.heap.get_into(id as u64, &mut vbuf)?;
                        tk.push(Neighbor::new(u64::from(id), l2_sq(query, &vbuf)));
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

    /// Number of candidates a query would verify (bucket-union size).
    pub fn candidate_count(&self, query: &[f32]) -> usize {
        let mut seen = std::collections::HashSet::new();
        for t in &self.tables {
            let sig = Self::signature(&t.projections, &t.offsets, self.w_scaled, query);
            if let Some(ids) = t.buckets.get(&sig) {
                seen.extend(ids.iter().copied());
            }
        }
        seen.len()
    }

    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The super-linear footprint: L tables × n entries (plus buckets).
    pub fn memory_bytes(&self) -> usize {
        self.tables
            .iter()
            .map(|t| {
                t.buckets
                    .iter()
                    .map(|(k, v)| k.capacity() * 4 + v.capacity() * 4 + 48)
                    .sum::<usize>()
                    + t.projections
                        .iter()
                        .map(|p| p.capacity() * 4)
                        .sum::<usize>()
            })
            .sum()
    }

    /// On-disk footprint: the verification heap file.
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

impl AnnIndex for E2lsh {
    fn len(&self) -> u64 {
        self.n as u64
    }

    fn dim(&self) -> usize {
        self.heap.dim()
    }

    /// The budget knobs do not apply: the candidate set is exactly the
    /// bucket union of the L tables.
    fn search_core(&self, query: &[f32], req: &SearchRequest) -> io::Result<SearchOutput> {
        Ok(SearchOutput::from_neighbors(self.knn(query, req.k)?))
    }

    fn stats(&self) -> IndexStats {
        // Build hashes the resident corpus into L tables.
        IndexStats {
            disk_bytes: self.disk_bytes(),
            memory_bytes: self.memory_bytes(),
            build_memory_bytes: self.memory_bytes() + self.n * self.heap.dim() * 4,
            io: self.io_stats(),
            metric: hd_core::metric::Metric::L2,
            // Static baselines: nothing tombstoned, no write path.
            stored_len: AnnIndex::len(self),
            live_len: AnnIndex::len(self),
            write: Default::default(),
        }
    }

    fn reset_io_stats(&self) {
        E2lsh::reset_io_stats(self);
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
            .join("hd_e2lsh_tests")
            .join(format!("{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn self_query_collides_with_itself() {
        let (data, _) = generate(&DatasetProfile::SIFT, 800, 1, 71);
        let dir = test_dir("self");
        let idx = E2lsh::build(&data, E2lshParams::default(), &dir).unwrap();
        // A point always lands in its own bucket in every table.
        let res = idx.knn(data.get(5), 1).unwrap();
        assert_eq!(res[0].id, 5);
        assert_eq!(res[0].dist, 0.0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn recall_beats_chance_with_modest_candidates() {
        let (data, queries) = generate(&DatasetProfile::SIFT, 3000, 10, 72);
        let dir = test_dir("recall");
        let idx = E2lsh::build(&data, E2lshParams::default(), &dir).unwrap();
        let truth = ground_truth_knn(&data, &queries, 10, 4);
        let approx: Vec<Vec<Neighbor>> = queries.iter().map(|q| idx.knn(q, 10).unwrap()).collect();
        let s = score_workload(&truth, &approx);
        assert!(s.recall > 0.1, "E2LSH recall at chance: {}", s.recall);
        // Candidate sets must be sub-linear (the whole point of hashing).
        let cands = idx.candidate_count(queries.get(0));
        assert!(cands < data.len() / 2, "bucket union too large: {cands}");
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn more_tables_more_candidates() {
        let (data, queries) = generate(&DatasetProfile::SIFT, 1500, 2, 73);
        let dir = test_dir("tables");
        let small = E2lsh::build(
            &data,
            E2lshParams {
                l: 2,
                ..Default::default()
            },
            dir.join("s"),
        )
        .unwrap();
        let large = E2lsh::build(
            &data,
            E2lshParams {
                l: 24,
                ..Default::default()
            },
            dir.join("l"),
        )
        .unwrap();
        let q = queries.get(0);
        assert!(large.candidate_count(q) >= small.candidate_count(q));
        assert!(large.memory_bytes() > small.memory_bytes());
        std::fs::remove_dir_all(dir).ok();
    }
}
