//! VA-file (Weber, Schek, Blott — VLDB 1998): the paper's §2.2.1 exemplar of
//! "compress the data and perform the unavoidable linear scan faster".
//!
//! Every dimension is quantized to `b` bits, producing a *vector
//! approximation* of `ν·b/8` bytes per object. A kNN query scans the (small)
//! approximation file computing, per object, a **lower bound** on its true
//! distance from the cell geometry; only objects whose lower bound beats the
//! current k-th **upper bound** are refined by fetching the exact vector —
//! the two-phase scan that made VA-files the standard against which early
//! high-dimensional indexes were judged. Exact by construction.
//!
//! The grid and its bound are [`hd_core::grid`]'s, shared with HD-Index's
//! refine codes; its edge cells are open on their outer side, so values
//! outside `domain` still get sound bounds.

use hd_core::api::{AnnIndex, IndexStats, SearchOutput, SearchRequest};
use hd_core::dataset::Dataset;
use hd_core::distance::l2_sq;
use hd_core::grid::UniformGrid;
use hd_core::metric::Metric;
use hd_core::topk::{Neighbor, TopK};
use hd_storage::{IoSnapshot, VectorHeap};
use std::io;
use std::path::Path;

/// Parameters: `bits` per dimension (the classic choice is 4–8) and the
/// per-axis domain used for grid quantization.
#[derive(Debug, Clone, Copy)]
pub struct VaFileParams {
    pub bits: u32,
    pub domain: (f32, f32),
    pub cache_pages: usize,
}

impl Default for VaFileParams {
    fn default() -> Self {
        Self {
            bits: 8,
            domain: (0.0, 255.0),
            cache_pages: 0,
        }
    }
}

/// The VA-file: quantized approximations in memory (they are the compressed
/// scan target; ν·b bits per object), exact vectors on disk.
pub struct VaFile {
    params: VaFileParams,
    dim: usize,
    grid: UniformGrid,
    /// n × dim cell indices (u8 ⇒ bits ≤ 8).
    approx: Vec<u8>,
    heap: VectorHeap,
    n: usize,
}

impl std::fmt::Debug for VaFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VaFile")
            .field("n", &self.n)
            .field("bits", &self.params.bits)
            .finish()
    }
}

impl VaFile {
    pub fn build(data: &Dataset, params: VaFileParams, dir: impl AsRef<Path>) -> io::Result<Self> {
        crate::require_l2(
            data,
            "VA-file",
            "its per-dimension cell lower/upper bounds are squared-Euclidean sums",
        )?;
        assert!(!data.is_empty(), "cannot index an empty dataset");
        assert!((1..=8).contains(&params.bits), "bits must be in 1..=8");
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let grid = UniformGrid::new(params.domain, 1u32 << params.bits);
        let dim = data.dim();
        let mut approx = Vec::with_capacity(data.len() * dim);
        for p in data.iter() {
            grid.encode_into(p, &mut approx);
        }

        let mut heap = VectorHeap::create(dir.join("vafile.heap"), dim, params.cache_pages)?;
        for p in data.iter() {
            heap.append(p)?;
        }
        heap.pool().reset_stats();
        Ok(Self {
            params,
            dim,
            grid,
            approx,
            heap,
            n: data.len(),
        })
    }

    /// Exact kNN by the two-phase VA scan.
    pub fn knn(&self, query: &[f32], k: usize) -> io::Result<Vec<Neighbor>> {
        Ok(self.scan(query, k)?.0)
    }

    /// How many exact vectors a query fetches (phase-2 volume) — the
    /// quantity the VA-file exists to minimize.
    pub fn refinement_count(&self, query: &[f32], k: usize) -> io::Result<usize> {
        Ok(self.scan(query, k.max(1))?.1)
    }

    /// The two-phase scan: returns the k nearest and the number of exact
    /// vectors fetched.
    fn scan(&self, query: &[f32], k: usize) -> io::Result<(Vec<Neighbor>, usize)> {
        assert_eq!(query.len(), self.dim, "dimensionality mismatch");
        let k = k.min(self.n);
        if k == 0 {
            return Ok((Vec::new(), 0));
        }

        // Phase 1: scan approximations, collect (lower bound, id) sorted.
        let cq = self.grid.query(Metric::L2, query);
        let mut bounds: Vec<(f32, u32)> = self
            .approx
            .chunks_exact(self.dim)
            .zip(0u32..)
            .map(|(code, o)| (cq.lower_bound(code), o))
            .collect();
        bounds.sort_by(|a, b| a.0.total_cmp(&b.0));

        // Phase 2: refine in lower-bound order; stop when the next lower
        // bound exceeds the current k-th true distance (exactness).
        let mut tk = TopK::new(k);
        let mut vbuf = Vec::with_capacity(self.dim);
        let mut refined = 0usize;
        for &(lb, id) in &bounds {
            if lb > tk.bound() {
                break;
            }
            self.heap.get_into(u64::from(id), &mut vbuf)?;
            tk.push(Neighbor::new(u64::from(id), l2_sq(query, &vbuf)));
            refined += 1;
        }
        let mut out = tk.into_sorted();
        for nb in &mut out {
            nb.dist = nb.dist.sqrt();
        }
        Ok((out, refined))
    }

    pub fn len(&self) -> usize {
        self.n
    }

    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The compressed scan target: n · ν bytes (one byte per dimension
    /// whatever `bits` is).
    pub fn memory_bytes(&self) -> usize {
        self.approx.capacity()
    }

    /// On-disk footprint: the exact-vector heap file.
    pub fn disk_bytes(&self) -> u64 {
        self.heap.disk_bytes()
    }

    pub fn io_stats(&self) -> IoSnapshot {
        self.heap.pool().stats()
    }

    pub fn reset_io_stats(&self) {
        self.heap.pool().reset_stats();
    }

    pub fn cells(&self) -> u32 {
        self.grid.cells()
    }
}

impl AnnIndex for VaFile {
    fn len(&self) -> u64 {
        self.n as u64
    }

    fn dim(&self) -> usize {
        self.dim
    }

    /// Exact search; the budget knobs do not apply (phase 2 refines until
    /// the lower bounds prove exactness).
    fn search_core(&self, query: &[f32], req: &SearchRequest) -> io::Result<SearchOutput> {
        Ok(SearchOutput::from_neighbors(self.knn(query, req.k)?))
    }

    fn stats(&self) -> IndexStats {
        // Build quantizes the resident corpus into the approximation table.
        IndexStats {
            disk_bytes: self.disk_bytes(),
            memory_bytes: self.memory_bytes(),
            build_memory_bytes: self.memory_bytes() + self.n * self.dim * 4,
            io: self.io_stats(),
            metric: hd_core::metric::Metric::L2,
            // Static baselines: nothing tombstoned, no write path.
            stored_len: AnnIndex::len(self),
            live_len: AnnIndex::len(self),
            write: Default::default(),
        }
    }

    fn reset_io_stats(&self) {
        VaFile::reset_io_stats(self);
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
            .join("hd_vafile_tests")
            .join(format!("{name}_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn exactness_against_linear_scan() {
        let (data, queries) = generate(&DatasetProfile::SIFT, 1500, 10, 81);
        let dir = test_dir("exact");
        let va = VaFile::build(&data, VaFileParams::default(), &dir).unwrap();
        for q in queries.iter() {
            let got = va.knn(q, 10).unwrap();
            let want = knn_exact(&data, q, 10);
            assert_eq!(
                got.iter().map(|n| n.id).collect::<Vec<_>>(),
                want.iter().map(|n| n.id).collect::<Vec<_>>(),
                "VA-file must be exact"
            );
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn lower_bounds_are_sound() {
        let (data, queries) = generate(&DatasetProfile::SIFT, 500, 5, 82);
        let dir = test_dir("bounds");
        let va = VaFile::build(&data, VaFileParams::default(), &dir).unwrap();
        for q in queries.iter() {
            let cq = va.grid.query(Metric::L2, q);
            for (o, code) in va.approx.chunks_exact(va.dim).enumerate() {
                let lb = cq.lower_bound(code);
                let actual = l2_sq(q, data.get(o));
                assert!(lb <= actual, "lb {lb} > true {actual}");
            }
        }
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn points_beyond_the_domain_edge_are_not_pruned() {
        // A query and its true nearest neighbour `a` share a coordinate
        // beyond the top of the grid's domain. A closed edge cell bounds
        // `a` at ≥ 745² on that axis alone, above `b`'s true distance, so
        // the scan used to stop before refining `a` and return `b`.
        let mut data = Dataset::new(2);
        data.push(&[1000.0, 0.0]); // a: distance 100
        data.push(&[255.0, 100.0]); // b: distance 745
        let dir = test_dir("beyond_edge");
        let va = VaFile::build(&data, VaFileParams::default(), &dir).unwrap();
        let q = [1000.0f32, 100.0];
        let got = va.knn(&q, 1).unwrap();
        assert_eq!(
            got,
            knn_exact(&data, &q, 1),
            "the exact method lost its neighbour"
        );
        assert_eq!(got[0].id, 0);
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn refinement_is_sublinear_on_clustered_data() {
        let (data, queries) = generate(&DatasetProfile::SIFT, 4000, 5, 83);
        let dir = test_dir("refine");
        let va = VaFile::build(&data, VaFileParams::default(), &dir).unwrap();
        let avg: f64 = queries
            .iter()
            .map(|q| va.refinement_count(q, 10).unwrap() as f64)
            .sum::<f64>()
            / queries.len() as f64;
        assert!(
            avg < data.len() as f64 * 0.5,
            "VA refinement should prune most objects: {avg} of {}",
            data.len()
        );
        std::fs::remove_dir_all(dir).ok();
    }

    #[test]
    fn fewer_bits_coarser_bounds_more_refinements() {
        let (data, queries) = generate(&DatasetProfile::SIFT, 2000, 3, 84);
        let dir = test_dir("bits");
        let fine = VaFile::build(
            &data,
            VaFileParams {
                bits: 8,
                ..Default::default()
            },
            dir.join("fine"),
        )
        .unwrap();
        let coarse = VaFile::build(
            &data,
            VaFileParams {
                bits: 2,
                ..Default::default()
            },
            dir.join("coarse"),
        )
        .unwrap();
        let q = queries.get(0);
        let rf = fine.refinement_count(q, 10).unwrap();
        let rc = coarse.refinement_count(q, 10).unwrap();
        assert!(
            rc >= rf,
            "coarser quantization must refine at least as much ({rc} vs {rf})"
        );
        assert!(coarse.memory_bytes() <= fine.memory_bytes());
        std::fs::remove_dir_all(dir).ok();
    }
}
