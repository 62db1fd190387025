//! End-to-end tests over real TCP: a tiny engine behind a real
//! [`hd_server::Server`], driven by a hand-rolled HTTP/1.1 client.
//!
//! The server metrics live in the process-global telemetry registry, and
//! every server in this binary shares it — tests serialize on a gate so
//! metric-delta assertions (and the single-CPU port dance) don't race.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use hd_core::api::{AnnIndex, SearchRequest};
use hd_core::dataset::{generate, DatasetProfile};
use hd_engine::{Engine, EngineParams};
use hd_index::{HdIndexParams, RefSelection};
use hd_server::{Server, ServerConfig};
use hd_telemetry::json::{parse, Json};

static GATE: Mutex<()> = Mutex::new(());

fn gate() -> std::sync::MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn index_params() -> HdIndexParams {
    HdIndexParams {
        tau: 4,
        hilbert_order: 8,
        num_references: 5,
        ref_selection: RefSelection::Sss { f: 0.3 },
        domain: (0.0, 255.0),
        random_partitioning: None,
        build_cache_pages: 64,
        query_cache_pages: 64,
        seed: 7,
    }
}

fn build_engine(tag: &str, n: usize) -> (Arc<Engine>, Vec<Vec<f32>>, std::path::PathBuf) {
    let (data, queries) = generate(&DatasetProfile::SIFT, n, 16, 29);
    let dir = std::env::temp_dir().join(format!("hd_server_e2e_{tag}_{}", std::process::id()));
    let params = EngineParams {
        shards: 2,
        threads: 2,
        compaction_threshold: None,
        ..EngineParams::new(index_params())
    };
    let engine = Arc::new(Engine::build(&data, &params, &dir).unwrap());
    let queries = queries.iter().map(|q| q.to_vec()).collect();
    (engine, queries, dir)
}

/// A keep-alive HTTP/1.1 client over one TCP connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

struct Reply {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Reply {
    fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    fn json(&self) -> Json {
        parse(&self.body).unwrap_or_else(|e| panic!("bad JSON body {:?}: {e}", self.body))
    }
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        Client {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    fn send_raw(&mut self, raw: &str) -> Reply {
        self.writer.write_all(raw.as_bytes()).unwrap();
        self.writer.flush().unwrap();
        self.read_reply()
    }

    fn send(&mut self, method: &str, path: &str, headers: &[(&str, &str)], body: Option<&str>) -> Reply {
        let mut raw = format!("{method} {path} HTTP/1.1\r\n");
        for (name, value) in headers {
            raw.push_str(&format!("{name}: {value}\r\n"));
        }
        if let Some(body) = body {
            raw.push_str(&format!("content-length: {}\r\n\r\n{body}", body.len()));
        } else {
            raw.push_str("\r\n");
        }
        self.send_raw(&raw)
    }

    fn read_reply(&mut self) -> Reply {
        let mut line = String::new();
        self.reader.read_line(&mut line).unwrap();
        let status: u16 = line
            .split(' ')
            .nth(1)
            .unwrap_or_else(|| panic!("bad status line {line:?}"))
            .parse()
            .unwrap();
        let mut headers = Vec::new();
        loop {
            let mut header = String::new();
            self.reader.read_line(&mut header).unwrap();
            let header = header.trim_end();
            if header.is_empty() {
                break;
            }
            let (name, value) = header.split_once(':').unwrap();
            headers.push((name.to_ascii_lowercase(), value.trim().to_string()));
        }
        let length: usize = headers
            .iter()
            .find(|(k, _)| k == "content-length")
            .map(|(_, v)| v.parse().unwrap())
            .unwrap_or(0);
        let mut body = vec![0u8; length];
        self.reader.read_exact(&mut body).unwrap();
        Reply {
            status,
            headers,
            body: String::from_utf8(body).unwrap(),
        }
    }
}

fn vector_json(v: &[f32]) -> String {
    let items: Vec<String> = v.iter().map(|x| format!("{x}")).collect();
    format!("[{}]", items.join(","))
}

fn ids_of(neighbors: &Json) -> Vec<u64> {
    neighbors
        .as_arr()
        .unwrap()
        .iter()
        .map(|n| n.get("id").unwrap().as_u64().unwrap())
        .collect()
}

#[test]
fn health_info_metrics_round_trip() {
    let _g = gate();
    let (engine, _, dir) = build_engine("info", 300);
    let server = Server::bind(Arc::clone(&engine), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr());

    let health = client.send("GET", "/healthz", &[], None);
    assert_eq!(health.status, 200);
    let health = health.json();
    assert_eq!(health.get("healthy").unwrap().as_bool(), Some(true));
    assert_eq!(health.get("status").unwrap().as_str(), Some("ok"));

    let info = client.send("GET", "/v1/info", &[], None);
    assert_eq!(info.status, 200);
    let info = info.json();
    assert_eq!(info.get("dim").unwrap().as_u64(), Some(128));
    assert_eq!(info.get("metric").unwrap().as_str(), Some("l2"));
    assert_eq!(info.get("shards").unwrap().as_u64(), Some(2));
    assert_eq!(info.get("len").unwrap().as_u64(), Some(300));

    let metrics = client.send("GET", "/metrics", &[], None);
    assert_eq!(metrics.status, 200);
    assert!(metrics
        .header("content-type")
        .unwrap()
        .starts_with("text/plain"));
    assert!(metrics.body.contains("# TYPE hd_server_requests_total counter"));
    hd_telemetry::validate_prometheus(&metrics.body).unwrap();

    server.shutdown().unwrap();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn served_answers_match_direct_engine_calls() {
    let _g = gate();
    let (engine, queries, dir) = build_engine("ids", 400);
    let server = Server::bind(Arc::clone(&engine), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr());
    let metrics = &server.state().metrics;
    let counts = || {
        (
            metrics.batches_total.get(),
            metrics.batch_size.sum(),
            metrics.coalesced_total.get(),
        )
    };

    let before = counts();
    let req = SearchRequest::new(5).with_candidates(64).with_refine(32);
    for query in queries.iter().take(8) {
        let body = format!(
            "{{\"vector\":{},\"k\":5,\"candidates\":64,\"refine\":32}}",
            vector_json(query)
        );
        let reply = client.send("POST", "/v1/query", &[], Some(&body));
        assert_eq!(reply.status, 200, "{}", reply.body);
        let served = ids_of(reply.json().get("neighbors").unwrap());

        let direct = AnnIndex::search(engine.as_ref(), query, &req).unwrap();
        let expected: Vec<u64> = direct.neighbors.iter().map(|n| n.id).collect();
        assert_eq!(served, expected, "served ids must match the direct engine");
    }
    let after_singles = counts();
    assert_eq!(
        (
            after_singles.0 - before.0,
            after_singles.1 - before.1,
            after_singles.2 - before.2
        ),
        (8, 8, 0),
        "each single query is one engine call of size 1"
    );

    // An explicit batch body answers per query, in order.
    let body = format!(
        "{{\"vectors\":[{},{}],\"k\":3}}",
        vector_json(&queries[0]),
        vector_json(&queries[1])
    );
    let reply = client.send("POST", "/v1/query", &[], Some(&body));
    assert_eq!(reply.status, 200);
    let results = reply.json();
    let results = results.get("results").unwrap().as_arr().unwrap().to_vec();
    assert_eq!(results.len(), 2);
    let direct = AnnIndex::search(engine.as_ref(), &queries[1], &SearchRequest::new(3)).unwrap();
    let expected: Vec<u64> = direct.neighbors.iter().map(|n| n.id).collect();
    assert_eq!(ids_of(&results[1]), expected);
    let after_batch = counts();
    assert_eq!(
        (
            after_batch.0 - after_singles.0,
            after_batch.1 - after_singles.1,
            after_batch.2 - after_singles.2
        ),
        (1, 2, 2),
        "a 2-vector batch body is one engine call carrying both queries"
    );

    server.shutdown().unwrap();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn error_envelope_covers_400_404_405_413_501() {
    let _g = gate();
    let (engine, queries, dir) = build_engine("errors", 300);
    let config = ServerConfig {
        max_body_bytes: 512,
        ..ServerConfig::default()
    };
    let server = Server::bind(Arc::clone(&engine), config).unwrap();

    let assert_envelope = |reply: &Reply, status: u16, code: &str| {
        assert_eq!(reply.status, status, "{}", reply.body);
        let error = reply.json();
        let error = error.get("error").unwrap();
        assert_eq!(error.get("code").unwrap().as_str(), Some(code));
        assert!(error
            .get("message")
            .unwrap()
            .as_str()
            .is_some_and(|m| !m.is_empty()));
    };

    let mut client = Client::connect(server.addr());
    let reply = client.send("POST", "/v1/query", &[], Some("{not json"));
    assert_envelope(&reply, 400, "bad_request");
    let reply = client.send("POST", "/v1/query", &[], Some("{\"vector\":[1,2],\"k\":1}"));
    assert_envelope(&reply, 400, "bad_request"); // wrong dimensionality
    let reply = client.send("GET", "/v2/anything", &[], None);
    assert_envelope(&reply, 404, "not_found");
    let reply = client.send("DELETE", "/v1/records/99999", &[], None);
    assert_envelope(&reply, 404, "not_found"); // no such record
    let reply = client.send("PUT", "/v1/query", &[], None);
    assert_envelope(&reply, 405, "method_not_allowed");
    // Wrong metric for the index → engine InvalidInput → 400.
    let body = format!("{{\"vector\":{},\"metric\":\"l1\"}}", vector_json(&queries[0]));
    let reply = client.send("POST", "/v1/query", &[], Some(&body));
    assert_envelope(&reply, 400, "bad_request");

    // Oversized body → 413 before the server buffers it; the connection
    // closes, so use a fresh client per protocol error.
    let mut client = Client::connect(server.addr());
    let huge = "x".repeat(600); // rejected on Content-Length, never parsed
    let reply = client.send("POST", "/v1/query", &[], Some(&huge));
    assert_envelope(&reply, 413, "payload_too_large");

    let mut client = Client::connect(server.addr());
    let reply = client.send_raw(
        "POST /v1/query HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n0\r\n\r\n",
    );
    assert_envelope(&reply, 501, "not_implemented");

    server.shutdown().unwrap();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn rate_limiter_throttles_per_api_key() {
    let _g = gate();
    let (engine, queries, dir) = build_engine("ratelimit", 300);
    let config = ServerConfig {
        rate_limit_qps: 1.0,
        rate_limit_burst: 3.0,
        ..ServerConfig::default()
    };
    let server = Server::bind(Arc::clone(&engine), config).unwrap();
    let mut client = Client::connect(server.addr());
    let body = format!("{{\"vector\":{},\"k\":2}}", vector_json(&queries[0]));

    for i in 0..3 {
        let reply = client.send("POST", "/v1/query", &[("x-api-key", "tenant-a")], Some(&body));
        assert_eq!(reply.status, 200, "burst request {i}: {}", reply.body);
    }
    let reply = client.send("POST", "/v1/query", &[("x-api-key", "tenant-a")], Some(&body));
    assert_eq!(reply.status, 429, "{}", reply.body);
    assert!(reply.header("retry-after").is_some());
    let error = reply.json();
    assert_eq!(
        error.get("error").unwrap().get("code").unwrap().as_str(),
        Some("rate_limited")
    );
    // A different key is a different bucket.
    let reply = client.send("POST", "/v1/query", &[("x-api-key", "tenant-b")], Some(&body));
    assert_eq!(reply.status, 200);
    // Health and metrics stay exempt.
    let reply = client.send("GET", "/healthz", &[("x-api-key", "tenant-a")], None);
    assert_eq!(reply.status, 200);

    server.shutdown().unwrap();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn records_lifecycle_over_http() {
    let _g = gate();
    let (engine, _, dir) = build_engine("records", 300);
    let server = Server::bind(Arc::clone(&engine), ServerConfig::default()).unwrap();
    let mut client = Client::connect(server.addr());

    let vector: Vec<f32> = (0..128).map(|d| ((d * 3) % 256) as f32).collect();
    let reply = client.send(
        "POST",
        "/v1/records",
        &[],
        Some(&format!("{{\"vector\":{}}}", vector_json(&vector))),
    );
    assert_eq!(reply.status, 201, "{}", reply.body);
    let id = reply.json().get("id").unwrap().as_u64().unwrap();
    assert_eq!(id, 300, "ids continue the global sequence");

    // The inserted vector is findable at distance zero under wide budgets.
    let body = format!(
        "{{\"vector\":{},\"k\":1,\"candidates\":301,\"refine\":301}}",
        vector_json(&vector)
    );
    let reply = client.send("POST", "/v1/query", &[], Some(&body));
    assert_eq!(reply.status, 200);
    let reply = reply.json();
    let top = &reply.get("neighbors").unwrap().as_arr().unwrap()[0];
    assert_eq!(top.get("id").unwrap().as_u64(), Some(id));
    assert_eq!(top.get("dist").unwrap().as_f64(), Some(0.0));

    let reply = client.send("DELETE", &format!("/v1/records/{id}"), &[], None);
    assert_eq!(reply.status, 200, "{}", reply.body);
    assert_eq!(reply.json().get("deleted").unwrap().as_u64(), Some(id));
    let reply = client.send("DELETE", &format!("/v1/records/{id}"), &[], None);
    assert_eq!(reply.status, 404, "double delete: {}", reply.body);
    let reply = client.send("DELETE", "/v1/records/not-a-number", &[], None);
    assert_eq!(reply.status, 400, "{}", reply.body);

    server.shutdown().unwrap();
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn shutdown_snapshots_and_stops_listening() {
    let _g = gate();
    let (engine, _, dir) = build_engine("drain", 300);
    let server = Server::bind(Arc::clone(&engine), ServerConfig::default()).unwrap();
    let addr = server.addr();

    // Dirty the WAL so the final snapshot is observable.
    let mut client = Client::connect(addr);
    let vector: Vec<f32> = (0..128).map(|d| (d % 256) as f32).collect();
    let reply = client.send(
        "POST",
        "/v1/records",
        &[],
        Some(&format!("{{\"vector\":{}}}", vector_json(&vector))),
    );
    assert_eq!(reply.status, 201);
    assert!(engine.health().wal_tail_bytes > 0);

    server.shutdown().unwrap();
    assert_eq!(
        engine.health().wal_tail_bytes,
        0,
        "shutdown must snapshot the engine"
    );

    // The port no longer answers.
    assert!(TcpStream::connect(addr).is_err() || {
        // Accept backlog may briefly linger; a request must at least fail.
        let mut probe = Client::connect(addr);
        probe.writer.write_all(b"GET /healthz HTTP/1.1\r\n\r\n").is_err()
            || probe.reader.read_line(&mut String::new()).unwrap_or(0) == 0
    });

    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn concurrent_clients_stay_exact() {
    let _g = gate();
    let (engine, queries, dir) = build_engine("concurrent", 400);
    let server = Server::bind(Arc::clone(&engine), ServerConfig::default()).unwrap();
    let addr = server.addr();

    const CLIENTS: usize = 8;
    const PER_CLIENT: usize = 12;
    let req = SearchRequest::new(5).with_candidates(64).with_refine(32);
    std::thread::scope(|s| {
        for c in 0..CLIENTS {
            let queries = &queries;
            let engine = &engine;
            s.spawn(move || {
                let mut client = Client::connect(addr);
                for i in 0..PER_CLIENT {
                    let query = &queries[(c + i * CLIENTS) % queries.len()];
                    let body = format!(
                        "{{\"vector\":{},\"k\":5,\"candidates\":64,\"refine\":32}}",
                        vector_json(query)
                    );
                    let reply = client.send("POST", "/v1/query", &[], Some(&body));
                    assert_eq!(reply.status, 200, "{}", reply.body);
                    let served = ids_of(reply.json().get("neighbors").unwrap());
                    let direct = AnnIndex::search(engine.as_ref(), query, &req).unwrap();
                    let expected: Vec<u64> = direct.neighbors.iter().map(|n| n.id).collect();
                    assert_eq!(served, expected, "concurrent answers must stay exact");
                }
            });
        }
    });

    server.shutdown().unwrap();
    std::fs::remove_dir_all(dir).ok();
}
