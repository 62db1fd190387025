//! serve_bench: served throughput of the HTTP front-end against the
//! in-process engine baseline, and exactness of the served answers.
//!
//! Closed-loop load: 8 client threads each keep exactly one request in
//! flight (send → wait → send) for a fixed request count. Two phases over
//! one engine:
//!
//! 1. **direct** — clients call `AnnIndex::search` in-process; no HTTP.
//!    The ceiling, and the cost floor the served number is judged against.
//! 2. **served** — real TCP clients against a `ServerConfig::default()`
//!    server; every request is one engine call on its handler thread.
//!
//! The process exits nonzero when the server answers anything but 200, or
//! when any served answer's ids differ from `AnnIndex::search` on the
//! engine for the same query. `--json PATH` writes the checked-in
//! artifact, `--probe` dumps the cumulative telemetry histograms after the
//! served phase.

use std::io::{BufRead, BufReader, Read, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::Instant;

use hd_bench::config::{flag_value, BenchConfig};
use hd_bench::table;
use hd_core::api::{AnnIndex, SearchRequest};
use hd_core::dataset::{generate, DatasetProfile};
use hd_engine::{Engine, EngineParams};
use hd_index::HdIndexParams;
use hd_server::{Server, ServerConfig};
use std::fmt::Write as _;

const BASE_N: usize = 20_000;
/// Requests per client per phase (scaled, floor keeps statistics honest).
const BASE_REQUESTS: usize = 3_000;
/// Closed-loop clients; equal to `ServerConfig::default().max_connections`
/// so every client holds a handler for the whole phase.
const CLIENTS: usize = 8;
const K: usize = 10;
/// Light point-lookup knobs: the front-end's per-request fixed costs
/// (socket, parse, handler handoff, serialise) show on cheap queries,
/// where they are a large fraction of the request.
const CANDIDATES: usize = 32;
const REFINE: usize = 16;

struct Phase {
    name: &'static str,
    qps: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// One request over an open connection; returns latency and the reply
/// body. Panics on any non-200 — a load generator that silently counts
/// errors measures nothing.
fn http_roundtrip(
    reader: &mut BufReader<TcpStream>,
    writer: &mut TcpStream,
    request: &[u8],
) -> (f64, Vec<u8>) {
    let t0 = Instant::now();
    writer.write_all(request).expect("write request");
    let mut status_line = String::new();
    reader.read_line(&mut status_line).expect("status line");
    assert!(
        status_line.starts_with("HTTP/1.1 200"),
        "server answered {status_line:?}"
    );
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("header line");
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some(v) = header.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().expect("content-length");
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (t0.elapsed().as_secs_f64() * 1e3, body)
}

/// The neighbor ids of a single-query reply, in rank order.
fn served_ids(body: &[u8]) -> Vec<u64> {
    let text = std::str::from_utf8(body).expect("UTF-8 reply");
    let reply = hd_telemetry::json::parse(text).expect("JSON reply");
    reply
        .get("neighbors")
        .and_then(|n| n.as_arr())
        .expect("reply carries a neighbors array")
        .iter()
        .map(|n| n.get("id").and_then(|id| id.as_u64()).expect("neighbor id"))
        .collect()
}

fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 * q) as usize).min(sorted.len() - 1);
    sorted[idx]
}

fn summarize(name: &'static str, mut latencies: Vec<f64>, wall_secs: f64) -> Phase {
    latencies.sort_by(|a, b| a.total_cmp(b));
    Phase {
        name,
        qps: latencies.len() as f64 / wall_secs,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
    }
}

fn request() -> SearchRequest {
    SearchRequest::new(K)
        .with_candidates(CANDIDATES)
        .with_refine(REFINE)
}

/// Phase 1: in-process closed loop, no HTTP.
fn direct_phase(engine: &Arc<Engine>, requests: usize, queries: &[Vec<f32>]) -> Phase {
    let req = request();
    let barrier = Barrier::new(CLIENTS);
    let t0 = std::sync::OnceLock::new();
    let latencies: Vec<Vec<f64>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (engine, barrier, t0, req) = (engine, &barrier, &t0, &req);
                s.spawn(move || {
                    barrier.wait();
                    let _ = t0.set(Instant::now());
                    let mut lat = Vec::with_capacity(requests);
                    for i in 0..requests {
                        let query = &queries[(c + i * CLIENTS) % queries.len()];
                        let s = Instant::now();
                        AnnIndex::search(engine.as_ref(), query, req).expect("direct search");
                        lat.push(s.elapsed().as_secs_f64() * 1e3);
                    }
                    lat
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = t0.get().expect("started").elapsed().as_secs_f64();
    summarize("direct", latencies.concat(), wall)
}

/// Phase 2: real TCP clients against a default-config server. Returns the
/// phase and the number of replies whose ids differ from `expected`.
fn served_phase(
    engine: &Arc<Engine>,
    requests: usize,
    bodies: &[Vec<u8>],
    expected: &[Vec<u64>],
) -> (Phase, usize) {
    let server = Server::bind(Arc::clone(engine), ServerConfig::default()).expect("bind server");
    let addr: SocketAddr = server.addr();

    let barrier = Barrier::new(CLIENTS);
    let t0 = std::sync::OnceLock::new();
    // Per client: latencies, and (query index, reply body) checked after
    // the clock stops so parsing does not load the measured loop.
    type ClientRun = (Vec<f64>, Vec<(usize, Vec<u8>)>);
    let runs: Vec<ClientRun> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (barrier, t0) = (&barrier, &t0);
                s.spawn(move || {
                    let stream = TcpStream::connect(addr).expect("connect");
                    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
                    let mut writer = stream;
                    // Warm up the connection (and the engine caches) off
                    // the clock.
                    http_roundtrip(&mut reader, &mut writer, &bodies[c % bodies.len()]);
                    barrier.wait();
                    let _ = t0.set(Instant::now());
                    let mut lat = Vec::with_capacity(requests);
                    let mut replies = Vec::with_capacity(requests);
                    for i in 0..requests {
                        let q = (c + i * CLIENTS) % bodies.len();
                        let (ms, body) = http_roundtrip(&mut reader, &mut writer, &bodies[q]);
                        lat.push(ms);
                        replies.push((q, body));
                    }
                    (lat, replies)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    let wall = t0.get().expect("started").elapsed().as_secs_f64();
    server.shutdown().expect("shutdown");
    if std::env::args().any(|a| a == "--probe") {
        let reg = hd_telemetry::global();
        for m in [
            "engine_batch_nanos",
            "engine_fanout_nanos",
            "engine_merge_nanos",
            "engine_ref_dists_nanos",
            "hd_server_request_nanos",
        ] {
            let h = reg.histogram(m, "");
            eprintln!(
                "probe served {m}: sum_ms={:.1} count={}",
                h.sum() as f64 / 1e6,
                h.count()
            );
        }
        eprintln!("probe served wall_ms={:.1}", wall * 1e3);
    }

    let mut latencies = Vec::new();
    let mut mismatches = 0;
    for (lat, replies) in runs {
        latencies.extend(lat);
        for (q, body) in replies {
            if served_ids(&body) != expected[q] {
                mismatches += 1;
            }
        }
    }
    (summarize("served", latencies, wall), mismatches)
}

fn main() {
    let cfg = BenchConfig::from_args();
    hd_bench::telemetry_report::init(&cfg);
    let json_path = flag_value("--json").map(std::path::PathBuf::from);
    let n = cfg.n(BASE_N);
    let requests = ((BASE_REQUESTS as f64 * cfg.scale) as usize).max(100);
    let nproc = std::thread::available_parallelism().map_or(1, |p| p.get());

    let profile = DatasetProfile::SIFT;
    let (data, queries) = generate(&profile, n, 64, cfg.seed);
    let queries: Vec<Vec<f32>> = queries.iter().map(|q| q.to_vec()).collect();
    let scratch = cfg.scratch("serve_bench");
    let params = EngineParams {
        // 4 shards, so each request pays a realistic fan-out (S pool
        // handoffs and a latch) on top of the wire costs.
        shards: 4,
        threads: 2,
        index: HdIndexParams {
            build_cache_pages: 256,
            query_cache_pages: 64,
            ..HdIndexParams::for_profile(&profile)
        },
        ..EngineParams::new(HdIndexParams::for_profile(&profile))
    };
    let engine = Arc::new(Engine::build(&data, &params, scratch.join("engine")).expect("build"));
    println!(
        "serve_bench: n = {n}, dim = {}, {CLIENTS} closed-loop clients × {requests} requests/phase, \
         k = {K}, {nproc} CPUs",
        profile.dim
    );

    // The reference answer for every query: the engine's own single-query
    // path, which a served answer must match id for id.
    let expected: Vec<Vec<u64>> = queries
        .iter()
        .map(|q| {
            let out = AnnIndex::search(engine.as_ref(), q, &request()).expect("reference search");
            out.neighbors.iter().map(|nb| nb.id).collect()
        })
        .collect();

    // Pre-rendered request bytes so the load loop measures serving, not
    // client-side formatting.
    let bodies: Vec<Vec<u8>> = queries
        .iter()
        .map(|q| {
            let items: Vec<String> = q.iter().map(|x| format!("{x}")).collect();
            let body = format!(
                "{{\"vector\":[{}],\"k\":{K},\"candidates\":{CANDIDATES},\"refine\":{REFINE}}}",
                items.join(",")
            );
            format!(
                "POST /v1/query HTTP/1.1\r\ncontent-length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes()
        })
        .collect();

    let direct = direct_phase(&engine, requests, &queries);
    let (served, mismatches) = served_phase(&engine, requests, &bodies, &expected);
    let phases = [direct, served];

    let widths = [8usize, 10, 10, 10];
    table::header(
        "served throughput, closed loop",
        &["phase", "qps", "p50", "p99"],
        &widths,
    );
    for p in &phases {
        table::row(
            &[
                p.name.to_string(),
                format!("{:.0}", p.qps),
                table::ms(p.p50_ms),
                table::ms(p.p99_ms),
            ],
            &widths,
        );
    }

    let (direct, served) = (&phases[0], &phases[1]);
    let served_share = served.qps / direct.qps;
    println!(
        "\nHTTP overhead: served {:.0}% of direct QPS",
        100.0 * served_share
    );
    let answered = CLIENTS * requests;
    println!(
        "served-answer exactness: {} ({mismatches} of {answered} replies differ from the engine)",
        if mismatches == 0 { "PASS" } else { "FAIL" },
    );

    if let Some(path) = json_path {
        let mut j = String::from("{\n");
        let _ = writeln!(j, "  \"bench\": \"serve_bench\",");
        let _ = writeln!(j, "  \"scale\": {},", cfg.scale);
        let _ = writeln!(j, "  \"seed\": {},", cfg.seed);
        let _ = writeln!(j, "  \"nproc\": {nproc},");
        let _ = writeln!(j, "  \"n\": {n},");
        let _ = writeln!(j, "  \"clients\": {CLIENTS},");
        let _ = writeln!(j, "  \"requests_per_client\": {requests},");
        let _ = writeln!(j, "  \"k\": {K},");
        let _ = writeln!(j, "  \"phases\": [");
        for (i, p) in phases.iter().enumerate() {
            let comma = if i + 1 < phases.len() { "," } else { "" };
            let _ = writeln!(
                j,
                "    {{ \"phase\": \"{}\", \"qps\": {:.1}, \"p50_ms\": {:.3}, \"p99_ms\": {:.3} }}{comma}",
                p.name, p.qps, p.p50_ms, p.p99_ms
            );
        }
        let _ = writeln!(j, "  ],");
        let _ = writeln!(j, "  \"served_share_of_direct\": {served_share:.3},");
        let _ = writeln!(j, "  \"served_mismatches\": {mismatches}");
        j.push_str("}\n");
        std::fs::write(&path, j).expect("write json");
        println!("wrote {}", path.display());
    }

    std::fs::remove_dir_all(&scratch).ok();
    hd_bench::telemetry_report::report(&cfg);
    if mismatches > 0 {
        eprintln!("serve_bench: {mismatches} served answers differ from direct engine calls");
        std::process::exit(1);
    }
}
