//! Exhaustive linear scan — the exact comparator of §5.5 and the fallback
//! every high-dimensional index degrades toward (§2.2.1).
//!
//! Two flavors: an in-memory scan (the practical gold standard for quality
//! evaluation) and a disk scan over a [`VectorHeap`] that pays one page read
//! per page of data — the cost profile the VA-file line of work assumes.
//!
//! Both serve **every** [`Metric`]: a brute-force scan needs nothing from
//! the distance function, so this is the one method that answers
//! inner-product (dot) workloads exactly. Metrics with a bounded kernel
//! still abandon hopeless evaluations early; dot evaluates fully.

use hd_core::api::{AnnIndex, IndexStats, SearchOutput, SearchRequest};
use hd_core::dataset::Dataset;
use hd_core::metric::Metric;
use hd_core::topk::{Neighbor, TopK};
use hd_storage::VectorHeap;
use std::io;
use std::path::Path;

/// In-memory exhaustive scan, in the dataset's recorded metric.
#[derive(Debug)]
pub struct LinearScan<'a> {
    data: &'a Dataset,
    metric: Metric,
}

impl<'a> LinearScan<'a> {
    pub fn new(data: &'a Dataset) -> Self {
        Self {
            data,
            metric: data.metric(),
        }
    }

    /// Exact k nearest neighbors, distances in the metric's reported scale.
    /// Queries arrive raw; the scan normalizes them itself when the metric
    /// requires it.
    ///
    /// Scanning rides the bounded kernel: once the top-k heap is full, a
    /// point whose partial distance exceeds the current k-th radius is
    /// abandoned mid-evaluation. Exactness is unaffected — the kernel only
    /// abandons points a full evaluation would also have rejected (and
    /// metrics without early abandonment always evaluate fully).
    pub fn knn(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        let k = k.min(self.data.len());
        if k == 0 {
            return Vec::new();
        }
        let mut qbuf = Vec::new();
        let query = self.metric.normalized_query(query, &mut qbuf);
        let mut tk = TopK::new(k);
        for (i, p) in self.data.iter().enumerate() {
            let bound = tk.bound();
            let d = self.metric.key_bounded(query, p, bound);
            if d <= bound {
                tk.push(Neighbor::new(i as u64, d));
            }
        }
        let mut out = tk.into_sorted();
        for n in &mut out {
            n.dist = self.metric.finalize(n.dist);
        }
        out
    }

    /// Bytes resident in memory (the whole dataset).
    pub fn memory_bytes(&self) -> usize {
        self.data.memory_bytes()
    }
}

/// Disk-resident exhaustive scan over a paged heap file, in the metric of
/// the dataset it was built from (vectors are stored in index form, i.e.
/// unit-normalized for cosine).
#[derive(Debug)]
pub struct DiskLinearScan {
    heap: VectorHeap,
    metric: Metric,
}

impl DiskLinearScan {
    /// Materializes `data` into a heap file at `path`.
    pub fn build(data: &Dataset, path: impl AsRef<Path>, cache_pages: usize) -> io::Result<Self> {
        let mut heap = VectorHeap::create(path, data.dim(), cache_pages)?;
        for p in data.iter() {
            heap.append(p)?;
        }
        heap.pool().reset_stats();
        Ok(Self {
            heap,
            metric: data.metric(),
        })
    }

    /// Exact k nearest neighbors, reading every vector from disk (scored
    /// with the bounded kernel, same exactness argument as [`LinearScan`]).
    pub fn knn(&self, query: &[f32], k: usize) -> io::Result<Vec<Neighbor>> {
        let n = self.heap.len();
        let k = k.min(n as usize);
        if k == 0 {
            return Ok(Vec::new());
        }
        let mut qbuf = Vec::new();
        let query = self.metric.normalized_query(query, &mut qbuf);
        let mut tk = TopK::new(k);
        let mut buf = Vec::with_capacity(self.heap.dim());
        for id in 0..n {
            self.heap.get_into(id, &mut buf)?;
            let bound = tk.bound();
            let d = self.metric.key_bounded(query, &buf, bound);
            if d <= bound {
                tk.push(Neighbor::new(id, d));
            }
        }
        let mut out = tk.into_sorted();
        for nb in &mut out {
            nb.dist = self.metric.finalize(nb.dist);
        }
        Ok(out)
    }

    pub fn heap(&self) -> &VectorHeap {
        &self.heap
    }

    pub fn disk_bytes(&self) -> u64 {
        self.heap.disk_bytes()
    }
}

impl AnnIndex for LinearScan<'_> {
    fn len(&self) -> u64 {
        self.data.len() as u64
    }

    fn dim(&self) -> usize {
        self.data.dim()
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    /// Exact exhaustive scan; the budget knobs do not apply.
    fn search_core(&self, query: &[f32], req: &SearchRequest) -> io::Result<SearchOutput> {
        Ok(SearchOutput::from_neighbors(self.knn(query, req.k)))
    }

    fn stats(&self) -> IndexStats {
        IndexStats::in_memory(self.memory_bytes()).with_metric(self.metric)
    }
}

impl AnnIndex for DiskLinearScan {
    fn len(&self) -> u64 {
        self.heap.len()
    }

    fn dim(&self) -> usize {
        self.heap.dim()
    }

    fn metric(&self) -> Metric {
        self.metric
    }

    /// Exact exhaustive disk scan; the budget knobs do not apply.
    fn search_core(&self, query: &[f32], req: &SearchRequest) -> io::Result<SearchOutput> {
        Ok(SearchOutput::from_neighbors(self.knn(query, req.k)?))
    }

    fn stats(&self) -> IndexStats {
        IndexStats {
            disk_bytes: self.disk_bytes(),
            memory_bytes: self.heap.pool().memory_bytes(),
            build_memory_bytes: self.heap.len() as usize * self.heap.dim() * 4,
            io: self.heap.pool().stats(),
            metric: self.metric,
            // Static baselines: nothing tombstoned, no write path.
            stored_len: AnnIndex::len(self),
            live_len: AnnIndex::len(self),
            write: Default::default(),
        }
    }

    fn reset_io_stats(&self) {
        self.heap.pool().reset_stats();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_core::dataset::{generate, DatasetProfile};
    use hd_core::ground_truth::knn_exact;

    #[test]
    fn matches_ground_truth_kernel() {
        let (data, queries) = generate(&DatasetProfile::GLOVE, 400, 5, 1);
        let scan = LinearScan::new(&data);
        for q in queries.iter() {
            assert_eq!(scan.knn(q, 7), knn_exact(&data, q, 7));
        }
    }

    #[test]
    fn every_metric_matches_metric_aware_ground_truth() {
        let (raw, queries) = generate(&DatasetProfile::GLOVE, 300, 4, 5);
        let dir = std::env::temp_dir().join("hd_baselines_linear_metric");
        std::fs::create_dir_all(&dir).unwrap();
        for m in Metric::ALL {
            let data = raw.clone().with_metric(m);
            let scan = LinearScan::new(&data);
            assert_eq!(hd_core::api::AnnIndex::metric(&scan), m);
            let path = dir.join(format!("scan_{m}_{}", std::process::id()));
            let disk = DiskLinearScan::build(&data, &path, 1).unwrap();
            for q in queries.iter() {
                let expect = knn_exact(&data, q, 6);
                assert_eq!(scan.knn(q, 6), expect, "{m}: in-memory scan diverged");
                assert_eq!(disk.knn(q, 6).unwrap(), expect, "{m}: disk scan diverged");
            }
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn disk_scan_matches_memory_scan() {
        let (data, queries) = generate(&DatasetProfile::SIFT, 300, 3, 2);
        let dir = std::env::temp_dir().join("hd_baselines_linear");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("scan_{}", std::process::id()));
        // One page of cache: a sequential scan then reads each page exactly
        // once (with zero cache every *vector* fetch would be physical).
        let disk = DiskLinearScan::build(&data, &path, 1).unwrap();
        let mem = LinearScan::new(&data);
        for q in queries.iter() {
            assert_eq!(disk.knn(q, 5).unwrap(), mem.knn(q, 5));
        }
        disk.heap().pool().reset_stats();
        disk.knn(queries.get(0), 5).unwrap();
        let pages = disk.heap().pool().num_pages();
        assert_eq!(disk.heap().pool().stats().physical_reads, pages);
        std::fs::remove_file(path).ok();
    }
}
