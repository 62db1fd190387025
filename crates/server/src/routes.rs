//! Route table and handlers — every endpoint maps a parsed
//! [`minihttp::Request`] onto the engine and renders strict JSON back.
//!
//! Error contract: every non-2xx body is the uniform envelope
//! `{"error":{"code":…,"message":…}}` ([`envelope`]); engine `io::Error`s
//! map by kind (`TimedOut` → 504, `InvalidInput` → 400, `NotFound` → 404,
//! anything else → 500), and the token bucket maps to 429 +
//! `Retry-After`.

use std::io;
use std::time::Instant;

use hd_core::api::AnnIndex;
use hd_telemetry::json::Json;
use minihttp::{Request, Response};

use crate::dto::{self, error_body};
use crate::server::ServerState;

/// The uniform error response.
pub fn envelope(status: u16, code: &str, message: &str) -> Response {
    Response::json(status, error_body(code, message))
}

fn io_error_response(e: &io::Error) -> Response {
    match e.kind() {
        io::ErrorKind::TimedOut => envelope(504, "deadline_exceeded", &e.to_string()),
        io::ErrorKind::InvalidInput => envelope(400, "bad_request", &e.to_string()),
        io::ErrorKind::NotFound => envelope(404, "not_found", &e.to_string()),
        _ => envelope(500, "internal", &e.to_string()),
    }
}

/// Entry point for one request: counts it, routes it, times it.
pub fn dispatch(state: &ServerState, req: &Request, peer_ip: &str) -> Response {
    state.metrics.requests_total.inc();
    let start = Instant::now();
    let response = route(state, req, peer_ip);
    state
        .metrics
        .request_nanos
        .record(start.elapsed().as_nanos() as u64);
    response
}

fn route(state: &ServerState, req: &Request, peer_ip: &str) -> Response {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/healthz") => healthz(state),
        ("GET", "/v1/info") => info(state),
        ("GET", "/metrics") => metrics_exposition(),
        ("POST", "/v1/query") => throttled(state, req, peer_ip, query),
        ("POST", "/v1/records") => throttled(state, req, peer_ip, upsert),
        ("DELETE", path) if path.starts_with("/v1/records/") => {
            throttled(state, req, peer_ip, delete)
        }
        (_, "/healthz" | "/v1/info" | "/metrics" | "/v1/query" | "/v1/records") => envelope(
            405,
            "method_not_allowed",
            &format!("{} is not served on {}", req.method, req.path),
        ),
        (_, path) if path.starts_with("/v1/records/") => envelope(
            405,
            "method_not_allowed",
            &format!("{} is not served on {}", req.method, path),
        ),
        (_, path) => envelope(404, "not_found", &format!("no route for {path}")),
    }
}

/// Wraps the mutating/query routes in the per-client token bucket, keyed
/// by `X-Api-Key` when the client sends one, peer IP otherwise.
fn throttled(
    state: &ServerState,
    req: &Request,
    peer_ip: &str,
    handler: fn(&ServerState, &Request) -> Response,
) -> Response {
    let key = req.header("x-api-key").unwrap_or(peer_ip);
    if let Err(retry_after) = state.limiter.check(key) {
        state.metrics.throttled_total.inc();
        return envelope(429, "rate_limited", "per-client request budget exhausted")
            .header("retry-after", &retry_after.to_string());
    }
    handler(state, req)
}

fn healthz(state: &ServerState) -> Response {
    let health = state.engine.health();
    let body = Json::Obj(vec![
        ("healthy".to_string(), Json::Bool(health.healthy)),
        ("status".to_string(), Json::Str(health.status.clone())),
        ("shards".to_string(), Json::Num(health.shards as f64)),
        (
            "compacting_shards".to_string(),
            Json::Num(health.compacting_shards as f64),
        ),
        (
            "compaction_backlog".to_string(),
            Json::Num(health.compaction_backlog as f64),
        ),
        (
            "max_tombstone_density".to_string(),
            Json::Num(health.max_tombstone_density),
        ),
        (
            "wal_tail_bytes".to_string(),
            Json::Num(health.wal_tail_bytes as f64),
        ),
        ("live_len".to_string(), Json::Num(health.live_len as f64)),
    ])
    .render();
    Response::json(if health.healthy { 200 } else { 503 }, body)
}

fn info(state: &ServerState) -> Response {
    let engine = state.engine.as_ref();
    let stats = AnnIndex::stats(engine);
    let body = Json::Obj(vec![
        ("dim".to_string(), Json::Num(AnnIndex::dim(engine) as f64)),
        (
            "metric".to_string(),
            Json::Str(stats.metric.name().to_string()),
        ),
        ("shards".to_string(), Json::Num(engine.shards() as f64)),
        ("len".to_string(), Json::Num(engine.len() as f64)),
        ("live_len".to_string(), Json::Num(stats.live_len as f64)),
        (
            "stats".to_string(),
            Json::Obj(vec![
                ("disk_bytes".to_string(), Json::Num(stats.disk_bytes as f64)),
                (
                    "memory_bytes".to_string(),
                    Json::Num(stats.memory_bytes as f64),
                ),
                (
                    "wal_records".to_string(),
                    Json::Num(stats.write.wal_records as f64),
                ),
                (
                    "compactions".to_string(),
                    Json::Num(stats.write.compactions as f64),
                ),
            ]),
        ),
    ])
    .render();
    Response::json(200, body)
}

fn metrics_exposition() -> Response {
    Response::text(200, &hd_telemetry::global().render_prometheus())
        .header("content-type", "text/plain; version=0.0.4")
}

fn query(state: &ServerState, req: &Request) -> Response {
    let engine = state.engine.as_ref();
    let dim = AnnIndex::dim(engine);
    let dto = match dto::parse_query(&req.body, state.max_body_bytes, dim) {
        Ok(dto) => dto,
        Err(message) => return envelope(400, "bad_request", &message),
    };

    // Single and batch bodies alike make one engine call on this handler
    // thread; `timeout_ms` rides along as the call's `time_budget`.
    let refs: Vec<&[f32]> = dto.vectors.iter().map(|v| v.as_slice()).collect();
    let metrics = &state.metrics;
    metrics.batch_size.record(refs.len() as u64);
    if refs.len() > 1 {
        metrics.coalesced_total.add(refs.len() as u64);
    }
    let outputs = match AnnIndex::search_batch(engine, &refs, &dto.req) {
        Ok(outputs) => outputs,
        Err(e) => return io_error_response(&e),
    };
    let (field, answer) = if dto.batch {
        let results = outputs.iter().map(|o| dto::neighbors_json(&o.neighbors));
        ("results", Json::Arr(results.collect()))
    } else {
        ("neighbors", dto::neighbors_json(&outputs[0].neighbors))
    };
    Response::json(200, Json::Obj(vec![(field.to_string(), answer)]).render())
}

fn upsert(state: &ServerState, req: &Request) -> Response {
    let engine = state.engine.as_ref();
    let record = match dto::parse_record(&req.body, state.max_body_bytes, AnnIndex::dim(engine)) {
        Ok(record) => record,
        Err(message) => return envelope(400, "bad_request", &message),
    };
    match engine.insert(&record.vector) {
        Ok(id) => Response::json(
            201,
            Json::Obj(vec![("id".to_string(), Json::Num(id as f64))]).render(),
        ),
        Err(e) => io_error_response(&e),
    }
}

fn delete(state: &ServerState, req: &Request) -> Response {
    let suffix = req
        .path
        .strip_prefix("/v1/records/")
        .expect("routed by prefix");
    let id: u64 = match suffix.parse() {
        Ok(id) => id,
        Err(_) => {
            return envelope(
                400,
                "bad_request",
                &format!("record id must be an integer, got {suffix:?}"),
            )
        }
    };
    // The engine treats a re-delete of a tombstoned id as a no-op `Ok` and
    // an out-of-range id as `InvalidInput`; REST semantics want 404 for
    // both "gone" shapes, so probe liveness first.
    if !state.engine.contains_live(id) {
        return envelope(404, "not_found", &format!("no live record {id}"));
    }
    match state.engine.delete(id) {
        Ok(()) => Response::json(
            200,
            Json::Obj(vec![("deleted".to_string(), Json::Num(id as f64))]).render(),
        ),
        Err(e) => io_error_response(&e),
    }
}
