//! # HD-Index: the paper's primary contribution.
//!
//! A disk-resident index for approximate k-nearest-neighbor search in
//! high-dimensional Euclidean spaces (Arora et al., VLDB 2018):
//!
//! 1. the ν dimensions are split into τ partitions (§3.1);
//! 2. each partition gets a Hilbert curve of order ω and an **RDB-tree** — a
//!    B+-tree on the Hilbert keys whose leaves store, per object, the object
//!    pointer and its distances to m shared *reference objects* (§3.2), one
//!    byte each on a per-reference grid ([`rdb::RefGrid`]);
//! 3. queries retrieve α key-adjacent candidates per tree, shrink them to γ
//!    with triangular (and optionally Ptolemaic) lower-bound filters computed
//!    purely from the leaf-resident reference distances — no extra IO — and
//!    refine the union of survivors with κ exact distance computations
//!    (§4, Algorithm 2); with [`BuildOpts::refine_codes`], with exact
//!    distances for only the survivors whose in-memory 8-bit cell bound
//!    can still enter the top-k.
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
//!
//! [`index`] holds [`HdIndex`] and one submodule per lifecycle stage
//! (DESIGN.md §9): `open` builds (Algorithm 1), reopens and replays the
//! WAL; `write` inserts and deletes (§3.6) and snapshots; `compaction`
//! copies the survivors' entries into the next generation; `generation`
//! owns the file names and the commit the other three share. `query`
//! answers (Algorithm 2) and `build` is the out-of-core construction
//! pipeline (DESIGN.md §11).

mod build;
mod codes;
pub mod config;
pub mod filters;
pub mod index;
mod live;
pub mod meta;
mod query;
pub mod rdb;
pub mod reference;

pub use config::{FilterKind, HdIndexParams, QueryParams, RefSelection};
pub use index::{BuildOpts, BuildStats, HdIndex};
pub use query::QueryTrace;
pub use reference::{PreparedQuery, ReferenceSet};
