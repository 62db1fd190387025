//! Disk substrate for the HD-Index reproduction.
//!
//! HD-Index is explicitly a *disk-based* structure evaluated with OS
//! buffering and caching turned off (paper §5, "Evaluation Metrics"). This
//! crate provides the storage stack every disk-resident index in the
//! workspace is built on:
//!
//! * [`page`] — fixed-size pages (4096 B, the paper's `B`), and
//!   [`touch_lines`], which requests every cache line of a byte range at
//!   once so the misses overlap (the query path's memory-level parallelism).
//! * [`pager`] — a file-backed page allocator with raw page IO.
//! * [`buffer`] — a buffer pool with CLOCK (second-chance) eviction,
//!   pin-free `Arc` page handles, an exact IO-statistics ledger, and a
//!   zero-capacity mode that reproduces the paper's cache-off measurements.
//! * [`heap`] — a paged heap file of raw vectors, the "complete object
//!   descriptors" that step (iii) of the query algorithm fetches by pointer.
//! * [`budget`] — a shared page-cache quota so a fleet of pools (τ trees ×
//!   S shards) runs under one memory ceiling, plus the byte-denominated
//!   [`BuildBudget`] that caps streaming-build working memory the same way.
//! * [`extsort`] — external merge sort of fixed-width records under a
//!   `BuildBudget`: budget-sized sorted runs spilled to disk, replayed
//!   through a loser-tree k-way merge, all charged to the IO ledger
//!   (DESIGN.md §11).
//! * [`stats`] — logical/physical access counters shared across components.
//! * [`wal`] — per-shard write-ahead log: checksummed records, fsync-on-
//!   commit batching, torn-tail-tolerant replay (DESIGN.md §9).

pub mod budget;
pub mod buffer;
pub mod extsort;
pub mod heap;
pub mod page;
pub mod pager;
pub mod stats;
pub mod wal;

pub use budget::{BuildBudget, BuildReservation, CacheBudget};
pub use buffer::BufferPool;
pub use extsort::{ExternalSorter, MergeReader};
pub use heap::VectorHeap;
pub use page::{touch_lines, PageId, DEFAULT_PAGE_SIZE};
pub use pager::Pager;
pub use stats::{IoSnapshot, IoStats};
pub use wal::{Wal, WalCounters, WalRecord, WAL_FILE};
