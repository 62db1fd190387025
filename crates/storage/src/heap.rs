//! Paged heap file of raw vectors — the "complete object descriptors".
//!
//! Step (iii) of the paper's query algorithm (§4.3) follows the object
//! pointers stored in RDB-tree leaves and fetches full descriptors to compute
//! exact distances; each fetch is one random disk access in the paper's cost
//! model (κ accesses total, §4.4.1). `VectorHeap` reproduces that: vectors
//! are packed into pages (never spanning one when they fit), fetched by id
//! through the [`BufferPool`], so every candidate refinement shows up in the
//! IO ledger.
//!
//! Vectors larger than a page (e.g. Enron's 1369 dims × 4 B = 5476 B) occupy
//! `ceil(size/page)` consecutive pages, again matching the "few sequential
//! pages per object" behaviour of a real heap file.

use crate::budget::CacheBudget;
use crate::buffer::BufferPool;
use crate::pager::Pager;
use std::io;
use std::path::Path;
use std::sync::Arc;

/// Pages [`VectorHeap::scan`] reads per call: 256 KiB, few enough calls
/// that a whole-heap pass is not syscall-bound.
const SCAN_PAGES: usize = 64;

/// A read-mostly heap file of fixed-dimension `f32` vectors.
pub struct VectorHeap {
    pool: Arc<BufferPool>,
    dim: usize,
    len: u64,
    /// Vectors per page (when a vector fits in a page), else 0.
    per_page: usize,
    /// Pages per vector (when a vector exceeds a page), else 1.
    pages_per_vec: usize,
}

impl std::fmt::Debug for VectorHeap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VectorHeap")
            .field("dim", &self.dim)
            .field("len", &self.len)
            .finish()
    }
}

impl VectorHeap {
    /// Creates a heap file at `path` for `dim`-dimensional vectors, cached by
    /// a buffer pool of `cache_pages` pages.
    ///
    /// # Panics
    /// Panics if `dim == 0`.
    pub fn create(path: impl AsRef<Path>, dim: usize, cache_pages: usize) -> io::Result<Self> {
        assert!(dim > 0, "dimensionality must be positive");
        let pager = Pager::create(path)?;
        Ok(Self::with_pool(
            Arc::new(BufferPool::new(pager, cache_pages)),
            dim,
        ))
    }

    /// Reopens an existing heap file holding `len` vectors of `dim`
    /// dimensions (the owning index persists `len` in its metadata).
    pub fn open(
        path: impl AsRef<Path>,
        dim: usize,
        cache_pages: usize,
        len: u64,
    ) -> io::Result<Self> {
        Self::open_budgeted(path, dim, cache_pages, len, None)
    }

    /// [`Self::open`] with the pool charging a shared [`CacheBudget`].
    pub fn open_budgeted(
        path: impl AsRef<Path>,
        dim: usize,
        cache_pages: usize,
        len: u64,
        budget: Option<CacheBudget>,
    ) -> io::Result<Self> {
        assert!(dim > 0, "dimensionality must be positive");
        let pager = Pager::open(path, crate::page::DEFAULT_PAGE_SIZE)?;
        let pool = Arc::new(BufferPool::with_budget(pager, cache_pages, budget));
        let mut heap = Self::with_pool(pool, dim);
        let needed_pages = if heap.per_page > 0 {
            len.div_ceil(heap.per_page as u64)
        } else {
            len * heap.pages_per_vec as u64
        };
        if heap.pool.num_pages() < needed_pages {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "heap file too short: {} pages for {} vectors",
                    heap.pool.num_pages(),
                    len
                ),
            ));
        }
        heap.len = len;
        Ok(heap)
    }

    /// Wraps an existing (fresh) pool. The pool must be empty.
    pub fn with_pool(pool: Arc<BufferPool>, dim: usize) -> Self {
        let page = pool.page_size();
        let vec_bytes = dim * 4;
        let (per_page, pages_per_vec) = if vec_bytes <= page {
            (page / vec_bytes, 1)
        } else {
            (0, vec_bytes.div_ceil(page))
        };
        Self {
            pool,
            dim,
            len: 0,
            per_page,
            pages_per_vec,
        }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of stored vectors.
    pub fn len(&self) -> u64 {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The buffer pool (for stats and cache control).
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// On-disk footprint in bytes.
    pub fn disk_bytes(&self) -> u64 {
        self.pool.disk_bytes()
    }

    /// Appends a vector, returning its id.
    ///
    /// # Panics
    /// Panics if the vector length differs from the heap dimensionality.
    pub fn append(&mut self, v: &[f32]) -> io::Result<u64> {
        assert_eq!(v.len(), self.dim, "dimensionality mismatch");
        let id = self.len;
        let page_size = self.pool.page_size();
        if self.per_page > 0 {
            let page_id = id / self.per_page as u64;
            let slot = (id % self.per_page as u64) as usize;
            if page_id >= self.pool.num_pages() {
                self.pool.allocate_page()?;
            }
            let mut buf = self.pool.read(page_id)?.to_vec();
            encode_into(&mut buf[slot * self.dim * 4..], v);
            self.pool.write(page_id, &buf)?;
        } else {
            let first_page = id * self.pages_per_vec as u64;
            if first_page + self.pages_per_vec as u64 > self.pool.num_pages() {
                self.pool.allocate_pages(self.pages_per_vec as u64)?;
            }
            let mut bytes = Vec::with_capacity(self.pages_per_vec * page_size);
            for &x in v {
                bytes.extend_from_slice(&x.to_le_bytes());
            }
            bytes.resize(self.pages_per_vec * page_size, 0);
            for (i, chunk) in bytes.chunks(page_size).enumerate() {
                self.pool.write(first_page + i as u64, chunk)?;
            }
        }
        self.len += 1;
        Ok(id)
    }

    /// Bulk-appends a row-major batch of vectors: each page is filled in one
    /// buffer (starting from the partial last page) and written once, rather
    /// than once per vector. Vectors larger than a page take the per-vector
    /// path, which already writes whole pages.
    ///
    /// # Panics
    /// Panics if a vector's length differs from the heap dimensionality.
    pub fn append_all<'a>(&mut self, vectors: impl Iterator<Item = &'a [f32]>) -> io::Result<()> {
        let mut vectors = vectors.peekable();
        if self.per_page == 0 {
            return vectors.try_for_each(|v| self.append(v).map(drop));
        }
        while vectors.peek().is_some() {
            let page_id = self.len / self.per_page as u64;
            let mut buf = if page_id < self.pool.num_pages() {
                self.pool.read(page_id)?.to_vec()
            } else {
                self.pool.allocate_page()?;
                vec![0; self.pool.page_size()]
            };
            let first = (self.len % self.per_page as u64) as usize;
            let mut filled = 0;
            for (slot, v) in (first..self.per_page).zip(vectors.by_ref()) {
                assert_eq!(v.len(), self.dim, "dimensionality mismatch");
                encode_into(&mut buf[slot * self.dim * 4..], v);
                filled += 1;
            }
            self.pool.write(page_id, &buf)?;
            self.len += filled;
        }
        Ok(())
    }

    /// Fetches vector `id` into `out` (resized to `dim`).
    pub fn get_into(&self, id: u64, out: &mut Vec<f32>) -> io::Result<()> {
        if id >= self.len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("vector {id} out of bounds ({} stored)", self.len),
            ));
        }
        out.clear();
        let page_size = self.pool.page_size();
        if self.per_page > 0 {
            let page_id = id / self.per_page as u64;
            let slot = (id % self.per_page as u64) as usize;
            let page = self.pool.read(page_id)?;
            decode_into(&page[slot * self.dim * 4..], self.dim, out);
        } else {
            let first_page = id * self.pages_per_vec as u64;
            let mut bytes = Vec::with_capacity(self.pages_per_vec * page_size);
            for i in 0..self.pages_per_vec {
                bytes.extend_from_slice(&self.pool.read(first_page + i as u64)?);
            }
            decode_into(&bytes, self.dim, out);
        }
        Ok(())
    }

    /// Allocating convenience wrapper around [`Self::get_into`].
    pub fn get(&self, id: u64) -> io::Result<Vec<f32>> {
        let mut out = Vec::new();
        self.get_into(id, &mut out)?;
        Ok(out)
    }

    /// The heap page holding vector `id` (its first page when vectors span
    /// several). Ids are append-ordered, so sorting ids sorts pages: callers
    /// group candidates by this value to turn per-id random reads into one
    /// sequential page-granular fetch per page.
    pub fn page_of(&self, id: u64) -> u64 {
        if self.per_page > 0 {
            id / self.per_page as u64
        } else {
            id * self.pages_per_vec as u64
        }
    }

    /// Fetches the vectors of `ids` into `out` as one flat row-major block
    /// (`ids.len() * dim` floats, row order = id order).
    ///
    /// Each underlying heap page is requested once per *run* of ids living
    /// on it, so a sorted id list costs one page read per distinct page
    /// instead of one per id — the block-fetch primitive of the refinement
    /// pipeline. Unsorted ids are still read correctly, just without the
    /// single-read guarantee.
    pub fn get_block_into(&self, ids: &[u64], out: &mut Vec<f32>) -> io::Result<()> {
        out.clear();
        out.reserve(ids.len() * self.dim);
        if self.per_page == 0 {
            // Oversized vectors already occupy whole pages of their own;
            // the per-id path is the page-granular path.
            let mut row = Vec::with_capacity(self.dim);
            for &id in ids {
                self.get_into(id, &mut row)?;
                out.extend_from_slice(&row);
            }
            return Ok(());
        }
        let mut cur: Option<(u64, std::sync::Arc<[u8]>)> = None;
        for &id in ids {
            if id >= self.len {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("vector {id} out of bounds ({} stored)", self.len),
                ));
            }
            let page_id = id / self.per_page as u64;
            if cur.as_ref().map(|(pid, _)| *pid) != Some(page_id) {
                cur = Some((page_id, self.pool.read(page_id)?));
            }
            let page = &cur.as_ref().expect("page just cached").1;
            let slot = (id % self.per_page as u64) as usize;
            decode_into(&page[slot * self.dim * 4..], self.dim, out);
        }
        Ok(())
    }
}

impl VectorHeap {
    /// Visits every stored vector in slot order, a run of pages' vectors at
    /// a time as a flat row-major block, reading each page once and without
    /// caching it ([`BufferPool::read_pages_uncached`]; a whole-heap pass
    /// must not evict the pages queries use).
    pub fn scan(&self, mut visit: impl FnMut(&[f32])) -> io::Result<()> {
        let page_size = self.pool.page_size();
        let mut rows: Vec<f32> = Vec::new();
        if self.per_page == 0 {
            let mut bytes = vec![0u8; self.pages_per_vec * page_size];
            for id in 0..self.len {
                self.pool
                    .read_pages_uncached(id * self.pages_per_vec as u64, &mut bytes)?;
                rows.clear();
                decode_into(&bytes, self.dim, &mut rows);
                visit(&rows);
            }
            return Ok(());
        }
        let per_page = self.per_page as u64;
        let pages = self.len.div_ceil(per_page);
        let mut bytes = vec![0u8; SCAN_PAGES.min(pages as usize) * page_size];
        for first in (0..pages).step_by(SCAN_PAGES) {
            let run = (pages - first).min(SCAN_PAGES as u64) as usize;
            let bytes = &mut bytes[..run * page_size];
            self.pool.read_pages_uncached(first, bytes)?;
            rows.clear();
            for (i, page) in bytes.chunks_exact(page_size).enumerate() {
                let count = (self.len - (first + i as u64) * per_page).min(per_page) as usize;
                for slot in 0..count {
                    decode_into(&page[slot * self.dim * 4..], self.dim, &mut rows);
                }
            }
            visit(&rows);
        }
        Ok(())
    }
}

/// Writes `v` little-endian at the start of `dst`.
fn encode_into(dst: &mut [u8], v: &[f32]) {
    for (b, x) in dst.chunks_exact_mut(4).zip(v) {
        b.copy_from_slice(&x.to_le_bytes());
    }
}

/// Appends the `dim` little-endian floats at the start of `src` onto `out`,
/// as one exact-size `extend` the compiler vectorises.
fn decode_into(src: &[u8], dim: usize, out: &mut Vec<f32>) {
    let floats = src[..dim * 4].chunks_exact(4);
    out.extend(floats.map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])));
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("hd_storage_heap_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{name}_{}", std::process::id()))
    }

    #[test]
    fn roundtrip_small_vectors() {
        let path = temp("small");
        let mut heap = VectorHeap::create(&path, 4, 8).unwrap();
        for i in 0..100 {
            let v = [i as f32, 1.0, 2.0, 3.0];
            assert_eq!(heap.append(&v).unwrap(), i);
        }
        for i in 0..100u64 {
            assert_eq!(heap.get(i).unwrap()[0], i as f32);
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn paper_packing_density_128d() {
        // §3.2: "assuming a page size of 4 KB, only 4 objects of
        // dimensionality 128 can fit in a page, where each dimension is of
        // 8 bytes" — with f32 storage, 8 fit.
        let path = temp("pack");
        let heap = VectorHeap::create(&path, 128, 0).unwrap();
        assert_eq!(heap.per_page, 8);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn oversized_vectors_span_pages() {
        // Enron: 1369 dims × 4 B = 5476 B > 4096 B.
        let path = temp("span");
        let mut heap = VectorHeap::create(&path, 1369, 0).unwrap();
        assert_eq!(heap.pages_per_vec, 2);
        let v: Vec<f32> = (0..1369).map(|i| i as f32).collect();
        heap.append(&v).unwrap();
        let w: Vec<f32> = (0..1369).map(|i| -(i as f32)).collect();
        heap.append(&w).unwrap();
        assert_eq!(heap.get(0).unwrap(), v);
        assert_eq!(heap.get(1).unwrap(), w);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn scan_visits_every_vector_in_order_without_caching() {
        // 600 vectors span two read runs, the second ending in a partial page.
        for (dim, n) in [(128usize, 600u64), (1369, 3)] {
            let path = temp(&format!("scan_{dim}"));
            let mut heap = VectorHeap::create(&path, dim, 64).unwrap();
            let rows: Vec<Vec<f32>> = (0..n)
                .map(|i| (0..dim).map(|d| (i * 1000 + d as u64) as f32).collect())
                .collect();
            for v in &rows {
                heap.append(v).unwrap();
            }
            heap.pool().clear_cache();
            heap.pool().reset_stats();
            let mut seen: Vec<f32> = Vec::new();
            heap.scan(|block| seen.extend_from_slice(block)).unwrap();
            assert_eq!(seen, rows.concat(), "dim {dim}");
            assert_eq!(heap.pool().memory_bytes(), 0, "scan must not cache pages");
            assert_eq!(heap.pool().stats().logical_reads, heap.pool().num_pages());
            let pages = heap.pool().num_pages();
            assert_eq!(
                heap.pool().stats().physical_reads,
                pages,
                "one read per page"
            );
            std::fs::remove_file(path).ok();
        }
    }

    #[test]
    fn fetch_counts_one_physical_read_uncached() {
        let path = temp("iocount");
        let mut heap = VectorHeap::create(&path, 128, 0).unwrap();
        for i in 0..64 {
            let v = vec![i as f32; 128];
            heap.append(&v).unwrap();
        }
        heap.pool().reset_stats();
        heap.get(17).unwrap();
        assert_eq!(heap.pool().stats().physical_reads, 1);
        std::fs::remove_file(path).ok();
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Bit patterns a float decoder could disturb: −0.0, subnormals, ±∞
    /// and a NaN with a payload.
    const SPECIALS: [f32; 6] = [
        -0.0,
        f32::from_bits(1),
        f32::from_bits(0x0040_0000),
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::from_bits(0x7fc0_1234),
    ];

    #[test]
    fn block_fetch_matches_per_id_fetch() {
        let path = temp("block");
        let mut heap = VectorHeap::create(&path, 128, 0).unwrap();
        let rows: Vec<Vec<f32>> = (0..100usize)
            .map(|i| {
                let mut v = vec![i as f32; 128];
                for (k, &x) in SPECIALS.iter().enumerate() {
                    v[(i + 21 * k) % 128] = x;
                }
                v
            })
            .collect();
        for v in &rows {
            heap.append(v).unwrap();
        }
        let ids: Vec<u64> = vec![0, 1, 7, 8, 9, 33, 64, 65, 99];
        let mut block = Vec::new();
        heap.get_block_into(&ids, &mut block).unwrap();
        assert_eq!(block.len(), ids.len() * 128);
        for (r, &id) in ids.iter().enumerate() {
            let row = bits(&block[r * 128..(r + 1) * 128]);
            assert_eq!(row, bits(&heap.get(id).unwrap()));
            assert_eq!(row, bits(&rows[id as usize]), "row {id} not bit-identical");
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn append_all_matches_per_vector_append() {
        // 128-d: 8 vectors per page, bulk writes; 1369-d: two pages per
        // vector, per-vector path. Both start from a partial heap.
        for (dim, pages_touched) in [(128usize, 6u64), (1369, 80)] {
            let rows: Vec<Vec<f32>> = (0..43)
                .map(|i| (0..dim).map(|j| (i * dim + j) as f32 * 0.5).collect())
                .collect();
            let (path_bulk, path_each) = (temp("bulk"), temp("each"));
            let mut bulk = VectorHeap::create(&path_bulk, dim, 0).unwrap();
            let mut each = VectorHeap::create(&path_each, dim, 0).unwrap();
            for v in &rows[..3] {
                bulk.append(v).unwrap();
                each.append(v).unwrap();
            }
            bulk.pool().reset_stats();
            let tail = rows[3..].iter().map(Vec::as_slice);
            bulk.append_all(tail).unwrap();
            for v in &rows[3..] {
                each.append(v).unwrap();
            }
            assert_eq!(bulk.pool().stats().physical_writes, pages_touched);
            assert_eq!(bulk.len(), each.len());
            let same = std::fs::read(&path_bulk).unwrap() == std::fs::read(&path_each).unwrap();
            assert!(same, "{dim}-d heaps differ");
            std::fs::remove_file(path_bulk).ok();
            std::fs::remove_file(path_each).ok();
        }
    }

    #[test]
    fn block_fetch_reads_each_page_once() {
        // 128-dim f32 → 8 vectors per 4 KB page: ids 0..16 span 2 pages.
        let path = temp("blockio");
        let mut heap = VectorHeap::create(&path, 128, 0).unwrap();
        for i in 0..32 {
            let v = vec![i as f32; 128];
            heap.append(&v).unwrap();
        }
        let ids: Vec<u64> = (0..16).collect();
        heap.pool().reset_stats();
        let mut block = Vec::new();
        heap.get_block_into(&ids, &mut block).unwrap();
        assert_eq!(
            heap.pool().stats().physical_reads,
            2,
            "16 sorted ids on 2 pages must cost 2 reads, not 16"
        );
        // The per-id path with caches off pays one read per id.
        heap.pool().reset_stats();
        let mut row = Vec::new();
        for &id in &ids {
            heap.get_into(id, &mut row).unwrap();
        }
        assert_eq!(heap.pool().stats().physical_reads, 16);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn block_fetch_handles_oversized_vectors() {
        let path = temp("blockspan");
        let mut heap = VectorHeap::create(&path, 1369, 0).unwrap();
        for i in 0..6 {
            let v: Vec<f32> = (0..1369).map(|j| (i * 10_000 + j) as f32).collect();
            heap.append(&v).unwrap();
        }
        let ids = [1u64, 2, 5];
        let mut block = Vec::new();
        heap.get_block_into(&ids, &mut block).unwrap();
        for (r, &id) in ids.iter().enumerate() {
            assert_eq!(&block[r * 1369..(r + 1) * 1369], heap.get(id).unwrap());
        }
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn block_fetch_out_of_bounds_errors() {
        let path = temp("blockoob");
        let mut heap = VectorHeap::create(&path, 4, 0).unwrap();
        heap.append(&[1.0, 2.0, 3.0, 4.0]).unwrap();
        let mut block = Vec::new();
        assert!(heap.get_block_into(&[0, 1], &mut block).is_err());
    }

    #[test]
    fn page_of_follows_layout() {
        let path = temp("pageof");
        let heap = VectorHeap::create(&path, 128, 0).unwrap();
        assert_eq!(heap.page_of(0), 0);
        assert_eq!(heap.page_of(7), 0);
        assert_eq!(heap.page_of(8), 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn out_of_bounds_get_errors() {
        let path = temp("oob");
        let heap = VectorHeap::create(&path, 4, 0).unwrap();
        assert!(heap.get(0).is_err());
        std::fs::remove_file(path).ok();
    }
}
