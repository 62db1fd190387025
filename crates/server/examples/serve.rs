//! Runnable demo: build a small engine over a synthetic SIFT-profile
//! corpus and serve it over HTTP until Enter is pressed.
//!
//! ```text
//! cargo run --release -p hd-server --example serve
//! curl -s localhost:7700/healthz
//! ```
//!
//! `HD_SERVER_ADDR` overrides the listen address (default
//! `127.0.0.1:7700`). The index lives in a temp directory and is
//! persisted there by the graceful shutdown.

use std::sync::Arc;

use hd_core::dataset::{generate, DatasetProfile};
use hd_engine::{Engine, EngineParams};
use hd_index::HdIndexParams;
use hd_server::{Server, ServerConfig};

fn main() {
    let addr = std::env::var("HD_SERVER_ADDR").unwrap_or_else(|_| "127.0.0.1:7700".to_string());
    let profile = DatasetProfile::SIFT;
    let (data, _) = generate(&profile, 10_000, 1, 42);
    let dir = std::env::temp_dir().join(format!("hd_server_demo_{}", std::process::id()));
    let params = EngineParams {
        shards: 2,
        threads: 2,
        ..EngineParams::new(HdIndexParams::for_profile(&profile))
    };
    eprintln!(
        "building a {}-point dim-{} demo index …",
        data.len(),
        profile.dim
    );
    let engine = Arc::new(Engine::build(&data, &params, &dir).expect("build engine"));

    let config = ServerConfig {
        addr,
        ..ServerConfig::default()
    };
    let server = Server::bind(engine, config).expect("bind server");
    eprintln!("serving on http://{} — press Enter to stop", server.addr());
    eprintln!("try: curl -s localhost:{}/v1/info", server.addr().port());

    let mut line = String::new();
    let _ = std::io::stdin().read_line(&mut line);
    eprintln!("draining in-flight requests and saving …");
    server.shutdown().expect("graceful shutdown");
}
