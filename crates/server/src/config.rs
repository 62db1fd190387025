//! Server tuning knobs, all in one plain struct.

/// Configuration for [`crate::Server`]. The defaults suit an integration
/// test or a small deployment: loopback-only, a megabyte of body, no rate
/// limiting.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Bind address; `"127.0.0.1:0"` picks an ephemeral port (read the
    /// real one back from [`crate::Server::addr`]).
    pub addr: String,
    /// Connection-handler threads — also the cap on concurrently *served*
    /// connections; extras queue on the accept backlog.
    pub max_connections: usize,
    /// Per-request body cap; beyond it the server answers 413 without
    /// buffering the body.
    pub max_body_bytes: usize,
    /// Per-client token-bucket refill rate (requests/second) on `/v1/*`
    /// routes, keyed by `X-Api-Key` or peer IP. `0.0` disables limiting.
    pub rate_limit_qps: f64,
    /// Token-bucket burst capacity (full bucket size).
    pub rate_limit_burst: f64,
    /// Socket read timeout — how often an idle connection handler wakes up
    /// to notice shutdown.
    pub read_timeout_ms: u64,
    /// Snapshot the engine ([`hd_engine::Engine::save`]) as the last step
    /// of [`crate::Server::shutdown`].
    pub save_on_shutdown: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            addr: "127.0.0.1:0".to_string(),
            max_connections: 8,
            max_body_bytes: 1024 * 1024,
            rate_limit_qps: 0.0,
            rate_limit_burst: 8.0,
            read_timeout_ms: 50,
            save_on_shutdown: true,
        }
    }
}
