//! Benchmark harness regenerating every table and figure of the HD-Index
//! evaluation (paper §5): `paper <experiment>` runs one entry of the
//! experiment table in [`paper`] (DESIGN.md §4), and `build_bench` is the
//! out-of-core build's memory gate (DESIGN.md §11). Both share the strict
//! command line of [`config`]; every method builds behind
//! `Box<dyn AnnIndex>` from the registry in [`methods`] and is measured by
//! its one code path.

pub mod bespoke;
pub mod config;
pub mod methods;
pub mod paper;
pub mod table;
pub mod telemetry_report;

pub use config::BenchConfig;
pub use methods::{MethodOutcome, MethodResult, MethodSpec, Workload};
