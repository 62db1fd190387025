//! Dependency-free telemetry for the HD-Index workspace.
//!
//! Three layers, all usable independently:
//!
//! - **Metrics** ([`MetricsRegistry`], [`global`]): named lock-free
//!   counters and log-linear latency histograms with Prometheus text
//!   exposition ([`MetricsRegistry::render_prometheus`]) and a JSON
//!   snapshot ([`MetricsRegistry::render_json`]). The registry is
//!   process-global and unlabelled, so it holds only measurements with no
//!   per-instance home: stage spans, compaction bytes reclaimed, the build
//!   merge time and the HTTP server's counters. Per-engine and per-WAL
//!   numbers live on their instances (`EngineStats`, `WriteStats`,
//!   `BuildStats`, `QueryTrace`) and are not mirrored here.
//! - **Spans** ([`span!`]): RAII stage timers that feed per-stage
//!   histograms. Gated by [`set_enabled`]; the disabled path is one relaxed
//!   atomic load.
//! - **Events** ([`event!`], [`install_events`]): a structured JSONL log
//!   with a minimum level and per-target rate limiting.
//! - **JSON** ([`json`]): the shared std-only JSON tree, writer, and strict
//!   parser (depth/size limits) behind the JSON exposition, the event log's
//!   escaping, and the HTTP serving front-end's DTOs.
//!
//! ```
//! hd_telemetry::set_enabled(true);
//! {
//!     let _q = hd_telemetry::span!("doc_query_nanos");
//!     let _r = hd_telemetry::span!("doc_refine_nanos");
//! }
//! let text = hd_telemetry::global().render_prometheus();
//! assert!(text.contains("# TYPE doc_refine_nanos summary"));
//! hd_telemetry::set_enabled(false);
//! ```

mod events;
mod histogram;
pub mod json;
mod registry;
mod span;

pub use events::{event, install_events, uninstall_events, FieldValue, Level};
pub use histogram::LatencyHistogram;
pub use registry::{global, validate_prometheus, Counter, MetricsRegistry};
pub use span::{enabled, set_enabled, Span};
