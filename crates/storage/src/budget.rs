//! Shared memory budgets: a page-cache quota for serving pools and a
//! working-memory quota for index construction.
//!
//! An HD-Index opens τ + 1 buffer pools (one per RDB-tree plus the heap
//! file); a sharded serving engine opens S of those. Giving every pool its
//! own fixed capacity multiplies the memory footprint by S·(τ+1). A
//! [`CacheBudget`] is a cloneable handle on one global page quota: every
//! pool charges it per cached page and a pool that cannot charge evicts one
//! of its *own* pages instead (charge transfer), so the fleet-wide cache
//! never exceeds the budget while eviction stays pool-local and lock-free
//! across pools.
//!
//! [`BuildBudget`] is the construction-time sibling: one byte-denominated
//! quota shared by every external sorter and chunk buffer of a build,
//! including S parallel shard builds of one engine. Reservations grab what
//! is currently available (between a caller-supplied floor and want), so
//! concurrent builders divide the budget dynamically instead of deadlocking
//! on a fixed split.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

#[derive(Debug)]
struct Inner {
    capacity: usize,
    used: AtomicUsize,
}

/// Cloneable handle on a shared page quota. All clones charge the same
/// counter.
#[derive(Debug, Clone)]
pub struct CacheBudget {
    inner: Arc<Inner>,
}

impl CacheBudget {
    /// A budget of `pages` cached pages shared by every pool holding a
    /// clone of this handle.
    pub fn new(pages: usize) -> Self {
        Self {
            inner: Arc::new(Inner {
                capacity: pages,
                used: AtomicUsize::new(0),
            }),
        }
    }

    /// Total page quota.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Pages currently charged across all pools.
    pub fn used(&self) -> usize {
        self.inner.used.load(Ordering::Relaxed)
    }

    /// Attempts to charge one page; `false` when the quota is exhausted.
    pub(crate) fn try_charge(&self) -> bool {
        let mut current = self.inner.used.load(Ordering::Relaxed);
        loop {
            if current >= self.inner.capacity {
                return false;
            }
            match self.inner.used.compare_exchange_weak(
                current,
                current + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(seen) => current = seen,
            }
        }
    }

    /// Returns `count` charged pages to the quota.
    pub(crate) fn release(&self, count: usize) {
        let previous = self.inner.used.fetch_sub(count, Ordering::Relaxed);
        debug_assert!(previous >= count, "budget release underflow");
    }
}

#[derive(Debug)]
struct BuildInner {
    capacity: usize,
    used: AtomicUsize,
}

/// Cloneable handle on a shared quota of **build working memory, in bytes**.
///
/// Everything a streaming index build buffers in RAM — corpus chunk
/// buffers, external-sort runs, merge read-ahead — is charged here via
/// [`BuildBudget::reserve`], so one number caps the whole build the way
/// [`CacheBudget`] caps the whole serving cache. Clones share the counter:
/// an engine hands one handle to S parallel shard builds and the shards
/// split the budget dynamically.
///
/// A reservation always grants at least its floor, even when the budget is
/// exhausted — the floor is what keeps k concurrent builders live (none can
/// starve waiting on the others), at the cost of a bounded overshoot of at
/// most `builders × floor` bytes. Floors are small (tens of KB); callers
/// size real buffers from whatever was granted above the floor.
#[derive(Debug, Clone)]
pub struct BuildBudget {
    inner: Arc<BuildInner>,
}

impl BuildBudget {
    /// A budget of `bytes` of working memory shared by every holder of a
    /// clone of this handle.
    pub fn new(bytes: usize) -> Self {
        Self {
            inner: Arc::new(BuildInner {
                capacity: bytes,
                used: AtomicUsize::new(0),
            }),
        }
    }

    /// An effectively infinite budget: every reservation is granted its
    /// full `want`. This is the in-memory build path expressed as a
    /// degenerate case of the streaming one.
    pub fn unbounded() -> Self {
        Self::new(usize::MAX)
    }

    /// Total byte quota.
    pub fn capacity(&self) -> usize {
        self.inner.capacity
    }

    /// Bytes currently reserved across all holders.
    pub fn used(&self) -> usize {
        self.inner.used.load(Ordering::Relaxed)
    }

    /// Reserves between `floor` and `want` bytes: the grant is whatever is
    /// currently available, clamped into `[floor, want]`. Never fails and
    /// never blocks (see the type docs for the overshoot bound). The grant
    /// is returned to the budget when the [`BuildReservation`] drops.
    pub fn reserve(&self, floor: usize, want: usize) -> BuildReservation {
        let floor = floor.min(want);
        let mut current = self.inner.used.load(Ordering::Relaxed);
        loop {
            let available = self.inner.capacity.saturating_sub(current);
            let grant = available.clamp(floor, want);
            match self.inner.used.compare_exchange_weak(
                current,
                current.saturating_add(grant),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => {
                    return BuildReservation {
                        inner: Arc::clone(&self.inner),
                        bytes: grant,
                    }
                }
                Err(seen) => current = seen,
            }
        }
    }
}

/// RAII grant from a [`BuildBudget`]; the bytes return to the quota on drop.
#[derive(Debug)]
pub struct BuildReservation {
    inner: Arc<BuildInner>,
    bytes: usize,
}

impl BuildReservation {
    /// Bytes this reservation holds.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Returns `excess` bytes to the budget early (e.g. after the sort
    /// buffer shrinks into merge read-ahead buffers).
    pub fn shrink(&mut self, excess: usize) {
        let excess = excess.min(self.bytes);
        self.bytes -= excess;
        let previous = self.inner.used.fetch_sub(excess, Ordering::Relaxed);
        debug_assert!(previous >= excess, "build budget release underflow");
    }
}

impl Drop for BuildReservation {
    fn drop(&mut self) {
        let previous = self.inner.used.fetch_sub(self.bytes, Ordering::Relaxed);
        debug_assert!(previous >= self.bytes, "build budget release underflow");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charges_up_to_capacity() {
        let b = CacheBudget::new(2);
        assert!(b.try_charge());
        assert!(b.try_charge());
        assert!(!b.try_charge());
        assert_eq!(b.used(), 2);
        b.release(1);
        assert!(b.try_charge());
        assert_eq!(b.used(), 2);
    }

    #[test]
    fn zero_budget_rejects_everything() {
        let b = CacheBudget::new(0);
        assert!(!b.try_charge());
        assert_eq!(b.used(), 0);
    }

    #[test]
    fn clones_share_the_quota() {
        let a = CacheBudget::new(1);
        let b = a.clone();
        assert!(a.try_charge());
        assert!(!b.try_charge());
        b.release(1);
        assert!(b.try_charge());
    }

    #[test]
    fn build_budget_grants_available_and_releases_on_drop() {
        let b = BuildBudget::new(1000);
        let r1 = b.reserve(100, 600);
        assert_eq!(r1.bytes(), 600);
        let r2 = b.reserve(100, 600);
        assert_eq!(r2.bytes(), 400, "second grab gets what is left");
        assert_eq!(b.used(), 1000);
        drop(r1);
        assert_eq!(b.used(), 400);
        let r3 = b.reserve(100, 600);
        assert_eq!(r3.bytes(), 600);
    }

    #[test]
    fn build_budget_floor_is_always_granted() {
        let b = BuildBudget::new(100);
        let _all = b.reserve(50, 100);
        let floored = b.reserve(50, 100);
        assert_eq!(floored.bytes(), 50, "floor granted past exhaustion");
        assert_eq!(b.used(), 150, "bounded overshoot, never deadlock");
    }

    #[test]
    fn build_budget_unbounded_grants_want() {
        let b = BuildBudget::unbounded();
        assert_eq!(b.capacity(), usize::MAX);
        let r = b.reserve(1, 1 << 30);
        assert_eq!(r.bytes(), 1 << 30);
    }

    #[test]
    fn build_reservation_shrink_returns_bytes() {
        let b = BuildBudget::new(1000);
        let mut r = b.reserve(10, 800);
        r.shrink(300);
        assert_eq!(r.bytes(), 500);
        assert_eq!(b.used(), 500);
        r.shrink(10_000);
        assert_eq!(r.bytes(), 0, "shrink clamps to held bytes");
        assert_eq!(b.used(), 0);
    }
}
