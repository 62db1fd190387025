//! # HD-Index: the paper's primary contribution.
//!
//! A disk-resident index for approximate k-nearest-neighbor search in
//! high-dimensional Euclidean spaces (Arora et al., VLDB 2018):
//!
//! 1. the ν dimensions are split into τ partitions (§3.1);
//! 2. each partition gets a Hilbert curve of order ω and an **RDB-tree** — a
//!    B+-tree on the Hilbert keys whose leaves store, per object, the object
//!    pointer and its distances to m shared *reference objects* (§3.2);
//! 3. queries retrieve α key-adjacent candidates per tree, shrink them to γ
//!    with triangular (and optionally Ptolemaic) lower-bound filters computed
//!    purely from the leaf-resident reference distances — no extra IO — and
//!    refine the union of survivors with κ exact distance computations
//!    (§4, Algorithm 2).
//!
//! ```no_run
//! use hd_core::dataset::{generate, DatasetProfile};
//! use hd_index::{HdIndex, HdIndexParams, QueryParams};
//!
//! let profile = DatasetProfile::SIFT;
//! let (data, queries) = generate(&profile, 10_000, 100, 42);
//! let params = HdIndexParams::for_profile(&profile);
//! let index = HdIndex::build(&data, &params, "/tmp/hd_index_demo").unwrap();
//! let knn = index.knn(queries.get(0), &QueryParams::default()).unwrap();
//! println!("nearest: {:?}", knn.first());
//! ```

mod build;
pub mod config;
pub mod filters;
pub mod index;
pub mod meta;
mod query;
pub mod rdb;
pub mod reference;

pub use config::{FilterKind, HdIndexParams, QueryParams, RefSelection};
pub use index::{BuildOpts, BuildStats, HdIndex};
pub use query::{score_candidates_blocked, QueryTrace};
pub use reference::{PreparedQuery, ReferenceSet};
