//! Core substrates for the HD-Index reproduction.
//!
//! This crate contains everything that is *not* an index structure but that
//! every index structure in the workspace depends on:
//!
//! * [`dataset`] — flat `f32` vector datasets, synthetic generators emulating
//!   the paper's corpora (Table 4), and `fvecs`/`bvecs`/`ivecs` readers.
//! * [`distance`] — L2 / L1 / inner-product distance kernels.
//! * [`metric`] — the [`metric::Metric`] layer dispatching every index
//!   structure onto those kernels (L2, L1, cosine-via-normalization, dot).
//! * [`grid`] — the uniform one-byte-per-dimension grid and its sound cell
//!   lower bound (VA-file approximations, HD-Index refine codes).
//! * [`topk`] — bounded max-heaps for k-nearest-neighbor accumulation.
//! * [`metrics`] — approximation ratio (Def. 1), AP@k (Def. 2), MAP@k
//!   (Def. 3), and recall.
//! * [`ground_truth`] — multi-threaded exact kNN used as the gold standard.
//! * [`partition`] — dimension partitioning schemes (§3.1, §5.2.1).
//! * [`pool`] — a persistent worker pool with per-worker queues and
//!   stealing; the serving substrate for parallel queries (never spawn
//!   per-query OS threads).
//! * [`kmeans`] — Lloyd's algorithm with k-means++ seeding (iDistance, PQ).
//! * [`linalg`] — dense matrices, Jacobi eigendecomposition, SVD, and the
//!   orthogonal Procrustes solver used by OPQ.
//! * [`util`] — small numeric helpers shared by the benchmark harness.
//! * [`api`] — the unified [`api::AnnIndex`] trait every index structure
//!   (HD-Index, the serving engine, and all baselines) implements, plus the
//!   request/response/accounting types that make them interchangeable
//!   behind `Box<dyn AnnIndex>`.

pub mod api;
pub mod dataset;
pub mod distance;
pub mod grid;
pub mod ground_truth;
pub mod kmeans;
pub mod linalg;
pub mod metric;
pub mod metrics;
pub mod partition;
pub mod pool;
pub mod topk;
pub mod util;

pub use api::{AnnIndex, IndexStats, Lifecycle, SearchOutput, SearchRequest, SearchTrace};
pub use dataset::{Dataset, DatasetProfile, DatasetSource, RawF32Source, VectorSource};
pub use distance::{
    l1, l1_batch, l1_bounded, l1_bounded_traced, l2, l2_sq, l2_sq_batch, l2_sq_bounded,
    l2_sq_bounded_traced,
};
pub use ground_truth::ground_truth_knn;
pub use metric::Metric;
pub use metrics::{approximation_ratio, average_precision, mean_average_precision, recall_at_k};
pub use topk::{Neighbor, TopK};

/// Identifier of a database object (its position in the [`Dataset`]).
///
/// `u64` matches the width of heap-file object pointers end to end: result
/// ids flow from the storage layer to callers without narrowing casts, so a
/// sharded deployment can address far more than the ~4.3 billion objects a
/// `u32` would allow (the serving engine maps shard-local ids to global ids
/// in this same space).
pub type ObjectId = u64;
