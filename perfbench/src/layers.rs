//! The traced run: per-layer metrics, the share of client latency the
//! layer rows account for, and the tracing overhead.
//!
//! The workload runs once untraced and once with `hd_telemetry` enabled;
//! the layer rows come from the traced loop (engine spans and serving
//! stats, server metrics, the benchmark's own timers around the write
//! calls). The HD-Index stage split then reopens each shard directory as an
//! `HdIndex` and replays the queries through `knn_traced`, because the
//! engine's shard path reports no per-query counts.

use std::io;
use std::path::Path;

use hd_core::api::AnnIndex;
use hd_core::dataset::Dataset;
use hd_engine::shard::shard_dir;
use hd_index::{HdIndex, QueryParams};
use hd_storage::CacheBudget;

use crate::report::{mean, percentile, ratio, Report};
use crate::workloads::{Bench, Workload, POOL_PAGES, SHARDS};

/// Per-query HD-Index stage numbers, summed over the shards.
struct Stages {
    candidates_us: f64,
    refine_us: f64,
    scanned: f64,
    kappa: f64,
    refine_evals: f64,
    abandoned_share: f64,
}

/// Reopens every shard of the engine in `dir` with the workload's cache
/// settings, warms it with one pass, then traces one pass of `queries`.
fn stage_split(
    dir: &Path,
    cache_budget_pages: usize,
    queries: &Dataset,
    qp: &QueryParams,
) -> io::Result<Stages> {
    let budget = (cache_budget_pages > 0).then(|| CacheBudget::new(cache_budget_pages));
    let shards = (0..SHARDS)
        .map(|si| HdIndex::open_with(shard_dir(dir, si), POOL_PAGES, budget.clone()))
        .collect::<io::Result<Vec<_>>>()?;
    for query in queries.iter() {
        for shard in &shards {
            shard.knn(query, qp)?;
        }
    }
    let (mut candidate_ns, mut refine_ns, mut scanned, mut kappa, mut evals, mut abandoned) =
        (0u64, 0u64, 0, 0, 0, 0);
    for query in queries.iter() {
        for shard in &shards {
            let (_, trace) = shard.knn_traced(query, qp)?;
            candidate_ns += trace.candidate_nanos;
            refine_ns += trace.refine_nanos;
            scanned += trace.scanned;
            kappa += trace.kappa;
            evals += trace.refine_evals;
            abandoned += trace.refine_abandoned;
        }
    }
    let n = queries.len() as f64;
    Ok(Stages {
        candidates_us: candidate_ns as f64 / 1e3 / n,
        refine_us: refine_ns as f64 / 1e3 / n,
        scanned: scanned as f64 / n,
        kappa: kappa as f64 / n,
        refine_evals: evals as f64 / n,
        abandoned_share: ratio(abandoned as f64, evals as f64),
    })
}

/// What the server measured during the traced loop.
struct ServerSide {
    handle_us: f64,
    batch_size_mean: f64,
    coalesced_share: f64,
    refused: f64,
}

pub fn run(w: Workload, seed: u64, seconds: f64, scratch: &Path) -> io::Result<Report> {
    let mut bench = Bench::new(w, seed, scratch, 1)?;
    let build_pts_s = ratio(bench.corpus.base.len() as f64, bench.dep.build_s[0]);
    let untraced = bench.timed_loop(seconds)?;

    hd_telemetry::set_enabled(true);
    let registry = hd_telemetry::global();
    registry.reset();
    bench.dep.engine.reset_io_stats();
    let writes_before = AnnIndex::stats(bench.dep.engine.as_ref()).write;
    let traced = bench.timed_loop(seconds)?;
    let serving = bench.dep.engine.serving_stats();
    let span_us = |name: &str| registry.histogram(name, "").mean() / 1e3;
    let ref_dists_us = span_us("engine_ref_dists_nanos");
    let fanout_us = span_us("engine_fanout_nanos");
    let merge_us = span_us("engine_merge_nanos");
    let server = bench.dep.server.as_ref().map(|server| {
        let m = &server.state().metrics;
        ServerSide {
            handle_us: m.request_nanos.mean() / 1e3,
            batch_size_mean: m.batch_size.mean(),
            coalesced_share: ratio(
                m.coalesced_total.get() as f64,
                m.requests_total.get() as f64,
            ),
            refused: (m.throttled_total.get() + m.overload_total.get()) as f64,
        }
    });
    let writes_after = AnnIndex::stats(bench.dep.engine.as_ref()).write;
    hd_telemetry::set_enabled(false);
    let query_ms = &traced.query_ms;
    let correct = bench.checks.ok() && !query_ms.is_empty();

    let (dir, cache_budget_pages) = (bench.dep.dir.clone(), bench.dep.cache_budget_pages);
    let corpus = bench.finish()?;
    let stages = stage_split(&dir, cache_budget_pages, &corpus.queries, &w.query_params())?;

    let client_us = mean(query_ms) * 1e3;
    let engine_search_us = ratio(serving.busy_secs * 1e6, serving.batches as f64);
    // The outermost measured layer of each query: the server's handler on
    // `serve_http`, the engine's three stages everywhere else.
    let attributed_us = match &server {
        Some(s) => s.handle_us,
        None => ref_dists_us + fanout_us + merge_us,
    };
    let writes = (traced.insert_ms.len() + traced.delete_ms.len()) as f64;
    let queries = serving.queries as f64;
    let io = serving.io;
    let overhead_share = ratio(traced.cpu_ms_per_op(), untraced.cpu_ms_per_op()) - 1.0;

    print_attribution(
        w,
        client_us,
        engine_search_us,
        [ref_dists_us, fanout_us, merge_us],
        &stages,
        server.as_ref(),
    );
    println!(
        "tracing overhead: {:.4} CPU ms/op untraced, {:.4} traced ({:+.1}%)",
        untraced.cpu_ms_per_op(),
        traced.cpu_ms_per_op(),
        overhead_share * 100.0
    );

    let attempted = untraced.attempted + traced.attempted;
    let failed = untraced.failed + traced.failed;
    let mut r = Report::new(correct, attempted, failed);
    r.metric("hd_index.candidates_us", stages.candidates_us, "us");
    r.metric("hd_index.refine_us", stages.refine_us, "us");
    r.metric("hd_index.scanned_per_query", stages.scanned, "count");
    r.metric("hd_index.kappa_per_query", stages.kappa, "count");
    r.metric("core.refine_evals_per_query", stages.refine_evals, "count");
    r.metric("core.abandoned_share", stages.abandoned_share, "ratio");
    r.metric(
        "storage.logical_reads_per_query",
        ratio(io.logical_reads as f64, queries),
        "count",
    );
    r.metric(
        "storage.physical_reads_per_query",
        ratio(io.physical_reads as f64, queries),
        "count",
    );
    r.metric(
        "storage.hit_ratio",
        1.0 - ratio(io.physical_reads as f64, io.logical_reads as f64),
        "ratio",
    );
    r.metric("engine.search_us", engine_search_us, "us");
    r.metric("engine.ref_dists_us", ref_dists_us, "us");
    r.metric("engine.fanout_us", fanout_us, "us");
    r.metric("engine.merge_us", merge_us, "us");
    r.metric("engine.build_pts_s", build_pts_s, "1/s");
    r.metric("engine.insert_us", mean(&traced.insert_ms) * 1e3, "us");
    r.metric("engine.delete_us", mean(&traced.delete_ms) * 1e3, "us");
    r.metric(
        "storage.wal_commits_per_write",
        ratio(
            (writes_after.wal_commits - writes_before.wal_commits) as f64,
            writes,
        ),
        "count",
    );
    r.metric(
        "engine.compactions",
        (writes_after.compactions - writes_before.compactions) as f64,
        "count",
    );
    r.metric(
        "engine.compacting_share",
        ratio(traced.compacting_ops as f64, traced.attempted as f64),
        "ratio",
    );
    r.metric(
        "engine.query_p99_while_compacting_ms",
        percentile(&traced.query_ms_compacting, 0.99),
        "ms",
    );
    let s = server.as_ref();
    r.metric("server.handle_us", s.map_or(0.0, |s| s.handle_us), "us");
    r.metric(
        "server.outside_handler_us",
        s.map_or(0.0, |s| client_us - s.handle_us),
        "us",
    );
    r.metric(
        "server.batch_size_mean",
        s.map_or(0.0, |s| s.batch_size_mean),
        "count",
    );
    r.metric(
        "server.coalesced_share",
        s.map_or(0.0, |s| s.coalesced_share),
        "ratio",
    );
    r.metric("server.refused", s.map_or(0.0, |s| s.refused), "count");
    r.metric("client.ops_s", untraced.ops_s(), "1/s");
    r.metric(
        "client.query_p50_ms",
        percentile(&untraced.query_ms, 0.5),
        "ms",
    );
    r.metric(
        "client.query_p90_ms",
        percentile(&untraced.query_ms, 0.9),
        "ms",
    );
    r.metric("trace.client_query_us", client_us, "us");
    r.metric(
        "trace.attributed_share",
        ratio(attributed_us, client_us),
        "ratio",
    );
    r.metric("trace.unattributed_us", client_us - attributed_us, "us");
    r.metric("trace.overhead_share", overhead_share, "ratio");
    Ok(r)
}

/// The attribution report: client-side query latency split into the
/// layer rows that account for it, and the remainder no row covers.
fn print_attribution(
    w: Workload,
    client_us: f64,
    engine_search_us: f64,
    [ref_dists_us, fanout_us, merge_us]: [f64; 3],
    stages: &Stages,
    server: Option<&ServerSide>,
) {
    let row = |name: &str, us: f64| {
        println!(
            "  {name:<44} {us:>12.1} us {:>6.1}%",
            100.0 * ratio(us, client_us)
        )
    };
    println!(
        "attribution ({}, traced run): mean client query latency {client_us:.1} us",
        w.name()
    );
    match server {
        Some(s) => {
            row(
                "server.outside_handler_us (socket, kernel, read)",
                client_us - s.handle_us,
            );
            row("server.handle_us", s.handle_us);
            row("  engine.search_us (per engine batch)", engine_search_us);
            row(
                "  parse, coalescer wait, serialise",
                s.handle_us - engine_search_us,
            );
        }
        None => {
            row("engine.ref_dists_us", ref_dists_us);
            row("engine.fanout_us", fanout_us);
            row("engine.merge_us", merge_us);
            row(
                "unattributed",
                client_us - ref_dists_us - fanout_us - merge_us,
            );
        }
    }
    println!(
        "  inside the fan-out, per query summed over shards: hd_index.candidates_us {:.1}, \
         hd_index.refine_us {:.1} (hilbert and btree time is inside candidates)",
        stages.candidates_us, stages.refine_us
    );
}
