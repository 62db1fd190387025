//! Buffer pool: a CLOCK (second-chance) page cache over a [`Pager`] with
//! exact IO accounting.
//!
//! Two modes matter for the reproduction:
//!
//! * **capacity = 0** — every page request is a physical access. This is the
//!   paper's measurement mode ("we turn off buffering and caching effects in
//!   all the experiments", §5) and makes the physical-read counter equal the
//!   paper's "number of random disk accesses".
//! * **capacity > 0** — normal operation with CLOCK eviction, used during
//!   index construction (where the paper, too, builds with bounded memory:
//!   HD-Index builds in ~100 MB, Fig. 8d/i/n) and when serving.
//!
//! Pages are handed out as `Arc<[u8]>` snapshots: readers never block each
//! other, and a writer simply replaces the cached entry (write-through).

use crate::budget::CacheBudget;
use crate::page::PageId;
use crate::pager::Pager;
use crate::stats::{IoSnapshot, IoStats};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::io;
use std::sync::Arc;

/// Multiplicative (Fibonacci) hash for page ids. Page ids are internal,
/// never outside input, so a keyed hash buys nothing.
#[derive(Default)]
struct PageIdHasher(u64);

impl Hasher for PageIdHasher {
    fn write(&mut self, bytes: &[u8]) {
        let id = u64::from_ne_bytes(bytes.try_into().expect("page ids are u64"));
        self.0 = id.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

struct Frame {
    id: PageId,
    page: Arc<[u8]>,
    /// Second-chance bit: set on every hit, cleared by the passing hand.
    referenced: bool,
}

#[derive(Default)]
struct Inner {
    frames: Vec<Frame>,
    slots: HashMap<PageId, usize, BuildHasherDefault<PageIdHasher>>,
    hand: usize,
}

/// A CLOCK-cached, statistics-counting view over a [`Pager`]. A hit is one
/// map probe under one lock; a miss reuses the victim's frame in place.
pub struct BufferPool {
    pager: Pager,
    capacity: usize,
    /// Optional global quota shared with other pools; every cached page
    /// holds one charge (invariant: charges == frames.len()).
    budget: Option<CacheBudget>,
    inner: Mutex<Inner>,
    stats: IoStats,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.capacity)
            .field("pages", &self.pager.num_pages())
            .finish()
    }
}

impl BufferPool {
    /// Wraps `pager` with a CLOCK cache of `capacity` pages (0 disables
    /// caching entirely — the paper's measurement mode).
    pub fn new(pager: Pager, capacity: usize) -> Self {
        Self::with_budget(pager, capacity, None)
    }

    /// Like [`Self::new`], but every cached page also charges the shared
    /// `budget`; when the global quota is exhausted this pool evicts one of
    /// its own pages (charge transfer) or forgoes caching, so the sum of
    /// cached pages across all pools sharing the budget never exceeds it.
    pub fn with_budget(pager: Pager, capacity: usize, budget: Option<CacheBudget>) -> Self {
        Self {
            pager,
            capacity,
            budget,
            inner: Mutex::new(Inner::default()),
            stats: IoStats::new(),
        }
    }

    pub fn page_size(&self) -> usize {
        self.pager.page_size()
    }

    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// IO counters for this pool.
    pub fn stats(&self) -> IoSnapshot {
        self.stats.snapshot()
    }

    pub fn reset_stats(&self) {
        self.stats.reset()
    }

    /// Heap bytes currently held by cached pages (the pool's RAM footprint).
    pub fn memory_bytes(&self) -> usize {
        self.inner.lock().frames.len() * self.pager.page_size()
    }

    /// Bytes on disk behind this pool.
    pub fn disk_bytes(&self) -> u64 {
        self.pager.disk_bytes()
    }

    /// Allocates a fresh page (see [`Pager::allocate_page`]).
    pub fn allocate_page(&self) -> io::Result<PageId> {
        self.pager.allocate_page()
    }

    /// Allocates `count` consecutive pages, returning the first id.
    pub fn allocate_pages(&self, count: u64) -> io::Result<PageId> {
        self.pager.allocate_pages(count)
    }

    /// Number of allocated pages.
    pub fn num_pages(&self) -> u64 {
        self.pager.num_pages()
    }

    /// Reads page `id`, from cache when possible.
    pub fn read(&self, id: PageId) -> io::Result<Arc<[u8]>> {
        self.stats.record_logical_read();
        if self.capacity > 0 {
            let mut inner = self.inner.lock();
            if let Some(&slot) = inner.slots.get(&id) {
                let frame = &mut inner.frames[slot];
                frame.referenced = true;
                return Ok(Arc::clone(&frame.page));
            }
        }
        // Miss: physical read straight into the page handed out.
        let mut page: Arc<[u8]> = std::iter::repeat_n(0u8, self.pager.page_size()).collect();
        let buf = Arc::get_mut(&mut page).expect("a fresh page is unshared");
        self.pager.read_page(id, buf)?;
        self.stats.record_physical_read();
        if self.capacity > 0 {
            self.install(id, Arc::clone(&page));
        }
        Ok(page)
    }

    /// Reads the consecutive pages starting at `first` into `buf` (a whole
    /// number of pages) straight from disk, without caching them: a
    /// sequential pass over a whole file must not evict the pages queries
    /// use. Writes are write-through, so disk holds every cached page's
    /// current bytes. Counts one logical and one physical read per page.
    pub fn read_pages_uncached(&self, first: PageId, buf: &mut [u8]) -> io::Result<()> {
        self.pager.read_pages(first, buf)?;
        for _ in 0..buf.len() / self.pager.page_size() {
            self.stats.record_logical_read();
            self.stats.record_physical_read();
        }
        Ok(())
    }

    /// Write-through: persists the page and refreshes the cached copy.
    ///
    /// # Panics
    /// Panics if `data` is not exactly one page.
    pub fn write(&self, id: PageId, data: &[u8]) -> io::Result<()> {
        self.pager.write_page(id, data)?;
        self.stats.record_physical_write();
        if self.capacity > 0 {
            self.install(id, Arc::from(data));
        }
        Ok(())
    }

    /// Drops all cached pages (the working set survives on disk).
    pub fn clear_cache(&self) {
        let mut inner = self.inner.lock();
        if let Some(budget) = &self.budget {
            budget.release(inner.frames.len());
        }
        *inner = Inner::default();
    }

    /// Flushes OS buffers to stable storage.
    pub fn sync(&self) -> io::Result<()> {
        self.pager.sync()
    }

    /// Caches `page` as `id`, replacing the bytes of a page already cached.
    fn install(&self, id: PageId, page: Arc<[u8]>) {
        let mut inner = self.inner.lock();
        let inner = &mut *inner;
        if let Some(&slot) = inner.slots.get(&id) {
            let frame = &mut inner.frames[slot];
            frame.page = page;
            frame.referenced = true;
            return;
        }
        let frame = Frame {
            id,
            page,
            referenced: false,
        };
        let charge = || self.budget.as_ref().is_none_or(|b| b.try_charge());
        if inner.frames.len() < self.capacity && charge() {
            inner.slots.insert(id, inner.frames.len());
            inner.frames.push(frame);
        } else if !inner.frames.is_empty() {
            // Full, or the quota is exhausted: the hand stops at the first
            // unreferenced frame (clearing the bits it passes), and that
            // frame and its charge pass to the incoming page.
            let slot = loop {
                let slot = inner.hand;
                inner.hand = (slot + 1) % inner.frames.len();
                if !std::mem::take(&mut inner.frames[slot].referenced) {
                    break slot;
                }
            };
            let old = std::mem::replace(&mut inner.frames[slot], frame);
            inner.slots.remove(&old.id);
            inner.slots.insert(id, slot);
        }
        // Else the quota is exhausted with no charge to transfer: no caching.
    }

    /// Entries in the page→frame map (one per frame), for leak tests.
    #[cfg(test)]
    fn bookkeeping_entries(&self) -> usize {
        self.inner.lock().slots.len()
    }
}

impl Drop for BufferPool {
    fn drop(&mut self) {
        self.clear_cache();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn temp_pager(name: &str, page_size: usize, pages: u64) -> (Pager, PathBuf) {
        let dir = std::env::temp_dir().join("hd_storage_buffer_tests");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(format!("{name}_{}", std::process::id()));
        let pager = Pager::create_with_page_size(&path, page_size).unwrap();
        pager.allocate_pages(pages).unwrap();
        (pager, path)
    }

    fn pool(name: &str, page_size: usize, capacity: usize, pages: u64) -> (BufferPool, PathBuf) {
        let (pager, path) = temp_pager(name, page_size, pages);
        (BufferPool::new(pager, capacity), path)
    }

    #[test]
    fn cache_hit_avoids_physical_read() {
        let (pool, path) = pool("hit", 32, 4, 2);
        pool.write(0, &[1u8; 32]).unwrap();
        pool.reset_stats();
        pool.read(0).unwrap();
        pool.read(0).unwrap();
        let s = pool.stats();
        assert_eq!(s.logical_reads, 2);
        assert_eq!(s.physical_reads, 0, "page was cached by the write");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn zero_capacity_counts_every_read_as_physical() {
        let (pool, path) = pool("nocache", 32, 0, 1);
        pool.write(0, &[9u8; 32]).unwrap();
        pool.reset_stats();
        for _ in 0..5 {
            let page = pool.read(0).unwrap();
            assert_eq!(page[0], 9);
        }
        let s = pool.stats();
        assert_eq!(s.logical_reads, 5);
        assert_eq!(s.physical_reads, 5);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn lru_evicts_oldest() {
        let (pool, path) = pool("lru", 32, 2, 3);
        for id in 0..3u64 {
            pool.write(id, &[id as u8; 32]).unwrap();
        }
        // Cache now holds {1, 2} (capacity 2, page 0 evicted).
        pool.reset_stats();
        pool.read(1).unwrap();
        pool.read(2).unwrap();
        assert_eq!(pool.stats().physical_reads, 0);
        pool.read(0).unwrap();
        assert_eq!(pool.stats().physical_reads, 1);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn touching_a_page_protects_it_from_eviction() {
        let (pool, path) = pool("touch", 32, 2, 3);
        pool.write(0, &[0u8; 32]).unwrap();
        pool.write(1, &[1u8; 32]).unwrap();
        pool.read(0).unwrap(); // 0 is now most recent
        pool.write(2, &[2u8; 32]).unwrap(); // evicts 1
        pool.reset_stats();
        pool.read(0).unwrap();
        assert_eq!(
            pool.stats().physical_reads,
            0,
            "page 0 must still be cached"
        );
        pool.read(1).unwrap();
        assert_eq!(
            pool.stats().physical_reads,
            1,
            "page 1 must have been evicted"
        );
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn hits_do_not_grow_the_bookkeeping() {
        let (pool, path) = pool("leak", 32, 4, 4);
        // One filling pass, then 100 × capacity hits.
        for id in (0..101).flat_map(|_| 0..4u64) {
            pool.read(id).unwrap();
        }
        assert_eq!(pool.stats().physical_reads, 4, "all but the first pass hit");
        let entries = pool.bookkeeping_entries();
        assert!(entries <= 4, "{entries} entries after 400 hits on 4 pages");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn write_through_is_visible_after_cache_clear() {
        let (pool, path) = pool("wt", 32, 4, 1);
        pool.write(0, &[0x5Au8; 32]).unwrap();
        pool.clear_cache();
        let page = pool.read(0).unwrap();
        assert!(page.iter().all(|&b| b == 0x5A));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn memory_accounting_tracks_cache() {
        let (pool, path) = pool("mem", 64, 2, 4);
        assert_eq!(pool.memory_bytes(), 0);
        pool.read(0).unwrap();
        assert_eq!(pool.memory_bytes(), 64);
        pool.read(1).unwrap();
        pool.read(2).unwrap(); // eviction keeps it at capacity
        assert_eq!(pool.memory_bytes(), 128);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn shared_budget_caps_total_cached_pages() {
        let budget = CacheBudget::new(4);
        let mk = |name: &str| {
            let (pager, path) = temp_pager(name, 32, 8);
            let pool = BufferPool::with_budget(pager, 8, Some(budget.clone()));
            (pool, path)
        };
        let (a, pa) = mk("budget_a");
        let (b, pb) = mk("budget_b");
        for id in 0..8u64 {
            a.read(id).unwrap();
            b.read(id).unwrap();
        }
        // Local capacity would allow 8 + 8; the shared budget holds at 4.
        assert!(
            budget.used() <= 4,
            "budget over-committed: {}",
            budget.used()
        );
        assert_eq!(
            a.memory_bytes() + b.memory_bytes(),
            budget.used() * 32,
            "cached pages must equal charged pages"
        );
        // Cached reads still hit under pressure.
        a.reset_stats();
        for _ in 0..3 {
            a.read(7).unwrap();
        }
        assert!(
            a.stats().physical_reads <= 1,
            "most-recent page should stay cached"
        );
        std::fs::remove_file(pa).ok();
        std::fs::remove_file(pb).ok();
    }

    #[test]
    fn clearing_and_dropping_release_the_budget() {
        let budget = CacheBudget::new(4);
        let (pager, path) = temp_pager("budget_rel", 32, 4);
        let pool = BufferPool::with_budget(pager, 8, Some(budget.clone()));
        for id in 0..4u64 {
            pool.read(id).unwrap();
        }
        assert_eq!(budget.used(), 4);
        pool.clear_cache();
        assert_eq!(budget.used(), 0, "clear_cache must refund every charge");
        for id in 0..2u64 {
            pool.read(id).unwrap();
        }
        assert_eq!(budget.used(), 2);
        drop(pool);
        assert_eq!(budget.used(), 0, "drop must refund every charge");
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn exhausted_budget_transfers_charges_locally() {
        // One pool, budget 2 < local capacity 8: the pool must keep serving
        // reads and keep at most 2 pages cached, recycling its own charges.
        let budget = CacheBudget::new(2);
        let (pager, path) = temp_pager("budget_xfer", 32, 8);
        let pool = BufferPool::with_budget(pager, 8, Some(budget.clone()));
        for id in (0..3).flat_map(|_| 0..8u64) {
            pool.read(id).unwrap();
        }
        assert_eq!(budget.used(), 2);
        assert_eq!(pool.memory_bytes(), 2 * 32);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn concurrent_readers() {
        let (pool, path) = pool("conc", 32, 8, 8);
        for id in 0..8u64 {
            pool.write(id, &[id as u8; 32]).unwrap();
        }
        std::thread::scope(|s| {
            for t in 0..4 {
                let pool = &pool;
                s.spawn(move || {
                    for i in 0..100u64 {
                        let id = (i + t) % 8;
                        let page = pool.read(id).unwrap();
                        assert_eq!(page[0], id as u8);
                    }
                });
            }
        });
        std::fs::remove_file(path).ok();
    }
}
