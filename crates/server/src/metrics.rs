//! Server metrics, registered once in the process-global
//! [`hd_telemetry`] registry and exposed verbatim on `GET /metrics`.

use std::sync::Arc;

use hd_telemetry::{Counter, LatencyHistogram};

/// Handles to every `hd_server_*` metric. Cloning clones the handles, not
/// the metrics — all clones point at the same registry entries.
#[derive(Clone)]
pub struct ServerMetrics {
    /// Requests received, any route, any outcome.
    pub requests_total: Counter,
    /// Wall-clock per request, nanoseconds, route handling only (excludes
    /// socket reads).
    pub request_nanos: Arc<LatencyHistogram>,
    /// Queries per `/v1/query` engine call: 1 for a single-query body, B
    /// for a batch body of B vectors. Its count is the number of engine
    /// calls.
    pub batch_size: Arc<LatencyHistogram>,
    /// Queries sent to the engine in a call that carried more than one
    /// query, i.e. the vectors of batch bodies.
    pub coalesced_total: Counter,
    /// Requests refused with 429 by the per-client token bucket.
    pub throttled_total: Counter,
    /// Nothing increments this any more: the server has no query queue to
    /// overflow. It stays registered because the repository benchmark
    /// (`perfbench`) still reads it.
    pub overload_total: Counter,
}

impl ServerMetrics {
    pub fn new() -> Self {
        let registry = hd_telemetry::global();
        ServerMetrics {
            requests_total: registry.counter("hd_server_requests_total", "HTTP requests received"),
            request_nanos: registry.histogram(
                "hd_server_request_nanos",
                "Per-request handling latency in nanoseconds",
            ),
            batch_size: registry
                .histogram("hd_server_batch_size", "Queries per /v1/query engine call"),
            coalesced_total: registry.counter(
                "hd_server_coalesced_queries_total",
                "Queries sent in an engine call carrying more than one query",
            ),
            throttled_total: registry.counter(
                "hd_server_throttled_total",
                "Requests refused with 429 (rate limit)",
            ),
            overload_total: registry.counter(
                "hd_server_overload_total",
                "Requests refused with 503 for load (never incremented)",
            ),
        }
    }
}

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}
