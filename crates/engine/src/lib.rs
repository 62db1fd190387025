//! # hd-engine — a sharded, batched, concurrent serving layer for HD-Index.
//!
//! The paper's headline claim is scalability: kANN over ~100M points on
//! commodity hardware, with the τ RDB-trees parallelizing "with little
//! synchronization" (§5.2.8, §6). This crate turns the single-query
//! [`hd_index`] library into a query-serving *engine*:
//!
//! * [`shard`] — the corpus splits round-robin across S independent
//!   HD-Index shards sharing one reference set and one page-cache budget;
//!   global ↔ local id mapping is pure arithmetic.
//! * [`Engine::search_batch`] — batched submission: each query is prepared
//!   once (index form + reference distances), one task per shard sweeps the
//!   batch on a persistent worker pool ([`hd_core::pool::WorkerPool`]), and
//!   per-shard top-k lists exact-merge through bounded heaps.
//! * Concurrent callers — searches take `&self`; inserts and deletes are
//!   lock-guarded per shard and interleave with searches.
//! * [`metrics`] — [`EngineStats`]: QPS, p50/p95/p99 latency from a
//!   log-linear [`hd_telemetry::LatencyHistogram`], and the aggregated IO
//!   ledger of every shard's pools, all kept per engine
//!   ([`Engine::serving_stats`]). Only the fan-out stage spans
//!   (`engine_*_nanos`) record into the global `hd_telemetry` registry,
//!   and only while telemetry is enabled.
//!
//! ```no_run
//! use hd_core::dataset::{generate, DatasetProfile};
//! use hd_engine::{Engine, EngineParams};
//! use hd_index::{HdIndexParams, QueryParams};
//!
//! let profile = DatasetProfile::SIFT;
//! let (data, queries) = generate(&profile, 10_000, 64, 42);
//! let params = EngineParams {
//!     shards: 4,
//!     ..EngineParams::new(HdIndexParams::for_profile(&profile))
//! };
//! let engine = Engine::build(&data, &params, "/tmp/hd_engine_demo").unwrap();
//! let batch: Vec<&[f32]> = queries.iter().collect();
//! let answers = engine.search_batch(batch, &QueryParams::default()).unwrap();
//! println!("{} answers, {:?}", answers.len(), engine.serving_stats());
//! ```

pub mod config;
pub mod engine;
pub mod metrics;
pub mod shard;

pub use config::EngineParams;
pub use engine::{Engine, EngineHealth};
pub use metrics::EngineStats;
pub use shard::{global_of, shard_of};
