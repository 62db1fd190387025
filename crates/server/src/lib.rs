//! # hd-server — an HTTP serving front-end over the engine.
//!
//! This crate serves [`hd_engine::Engine`] over HTTP/1.1. Every
//! `POST /v1/query` body, single or batch, makes one
//! [`hd_core::api::AnnIndex::search_batch`] call on its own
//! connection-handler thread. HD-Index shares no page work between
//! queries, so holding requests back to batch them across connections
//! would only add waiting.
//!
//! * [`routes`] — `GET /healthz` (engine health → 200/503), `GET /v1/info`,
//!   `POST /v1/query` (single and batch bodies, per-request `k` /
//!   `candidates` / `refine` / `metric` / `timeout_ms`), `POST /v1/records`
//!   and `DELETE /v1/records/{id}` riding the engine's write path, and
//!   `GET /metrics` in Prometheus exposition format.
//! * Admission control — `max_connections` handler threads with the TCP
//!   accept backlog behind them, a per-client token bucket (429, keyed by
//!   `X-Api-Key` or peer IP), body caps (413), and per-request deadlines
//!   (504).
//! * [`Server::shutdown`] — stop accepting, drain every in-flight request,
//!   snapshot the engine.
//!
//! The transport is the vendored std-only [`minihttp`] codec: HTTP/1.1
//! keep-alive with explicit `Content-Length`, no TLS, no chunking — the
//! protocol slice a reproduction's serving benchmark actually exercises.
//!
//! ```no_run
//! use std::sync::Arc;
//! use hd_core::dataset::{generate, DatasetProfile};
//! use hd_engine::{Engine, EngineParams};
//! use hd_index::HdIndexParams;
//! use hd_server::{Server, ServerConfig};
//!
//! let profile = DatasetProfile::SIFT;
//! let (data, _) = generate(&profile, 10_000, 0, 42);
//! let params = EngineParams::new(HdIndexParams::for_profile(&profile));
//! let engine = Arc::new(Engine::build(&data, &params, "/tmp/hd_serve_demo").unwrap());
//! let server = Server::bind(engine, ServerConfig::default()).unwrap();
//! println!("serving on http://{}", server.addr());
//! // … curl -s localhost:PORT/v1/query -d '{"vector":[…],"k":10}' …
//! server.shutdown().unwrap();
//! ```

pub mod config;
pub mod dto;
pub mod limiter;
pub mod metrics;
pub mod routes;
pub mod server;

pub use config::ServerConfig;
pub use limiter::RateLimiter;
pub use metrics::ServerMetrics;
pub use server::{Server, ServerState};
