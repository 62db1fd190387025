//! build_bench: out-of-core index construction under a hard memory budget
//! (DESIGN.md §11).
//!
//! The corpus never exists in process memory: it is generated straight to a
//! flat `f32` file (same clustered distribution as `hd_core::generate`,
//! written chunk by chunk) and consumed through `RawF32Source`, so the
//! process high-water mark measures the *build pipeline*, not the workload.
//! Four sections:
//!
//! 1. **Budgeted build** — `HdIndex::build_from_source` under
//!    `--budget-mb` (default 64). Reports wall time, spill-run counts, the
//!    scratch-IO ledger, and the `VmHWM` delta, which must stay under
//!    `1.5 × budget + slack` (slack covers the buffer pools, merge
//!    cursors, and allocator overhead — itemized below). At ≥ 1M points the
//!    whole cap must also undercut a tenth of what the naive in-memory
//!    build would materialize (corpus + n×m reference table + sort vec).
//! 2. **Query stage** — QPS and mean latency over the freshly built index.
//! 3. **Equivalence** — over `min(n, 200k)` points, an unbounded and a
//!    budgeted build (shared references) must answer every query
//!    identically, id for id; MAP/ratio/recall come from streaming exact
//!    ground truth over the corpus file.
//! 4. **Telemetry** — with `--telemetry`, the three disjoint build spans
//!    (`build_refdist_nanos`, `build_sort_nanos`, `build_bulkload_nanos`;
//!    `build_merge_nanos` nests inside bulk-load) must attribute ≥ 80% of
//!    the measured build wall, or the process exits non-zero — the CI gate
//!    extending the query-stage coverage gate to construction.
//!
//! `--json PATH` writes the numbers for check-in (`BENCH_build_bench.json`).

use hd_bench::config::flag_value;
use hd_bench::{table, BenchConfig};
use hd_core::dataset::{DatasetProfile, Dataset, RawF32Source, VectorSource};
use hd_core::metric::Metric;
use hd_core::metrics::score_workload;
use hd_core::topk::{Neighbor, TopK};
use hd_index::{BuildOpts, HdIndex, HdIndexParams, QueryParams};
use hd_storage::BuildBudget;
use rand::distributions::Distribution;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::io::{BufWriter, Write as _};
use std::path::{Path, PathBuf};
use std::time::Instant;

const BASE_N: usize = 10_000_000;
/// Corpus size of the equivalence section: big enough to force spills at
/// the default budget, small enough that the unbounded control build stays
/// seconds-fast.
const EQ_N: usize = 200_000;
/// Build-span coverage the telemetry gate requires.
const BUILD_COVERAGE_GATE: f64 = 0.80;

/// `VmHWM` from `/proc/self/status` in bytes — the kernel's lifetime peak
/// resident set, monotone by definition, so each section snapshots it
/// *before* later sections can raise it. 0 when unavailable (non-Linux).
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            if let Some(kb) = rest.split_whitespace().next().and_then(|v| v.parse::<u64>().ok()) {
                return kb * 1024;
            }
        }
    }
    0
}

/// Streams the clustered synthetic distribution of `hd_core::generate`
/// (90% Gaussian mixture, 10% uniform background) straight to a flat
/// little-endian `f32` file, then returns `nq` query points drawn from the
/// same stream. Memory held: one point plus the cluster centers.
fn write_corpus(
    path: &Path,
    profile: &DatasetProfile,
    n: usize,
    nq: usize,
    seed: u64,
) -> std::io::Result<Vec<Vec<f32>>> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let n_clusters = (n / 500).clamp(4, 64);
    let span = profile.hi - profile.lo;
    let sigma = span * 0.05;
    let mut centers = Vec::with_capacity(n_clusters);
    for _ in 0..n_clusters {
        let c: Vec<f32> =
            (0..profile.dim).map(|_| rng.gen_range(profile.lo..=profile.hi)).collect();
        centers.push(c);
    }
    let normal = rand::distributions::Uniform::new(-1.0f32, 1.0f32);
    let sample_point = |rng: &mut rand::rngs::StdRng| -> Vec<f32> {
        let mut p = Vec::with_capacity(profile.dim);
        if rng.gen_bool(0.9) {
            let c = &centers[rng.gen_range(0..n_clusters)];
            for &center in c.iter().take(profile.dim) {
                let g = normal.sample(rng) + normal.sample(rng) + normal.sample(rng);
                p.push((center + g * sigma).clamp(profile.lo, profile.hi));
            }
        } else {
            for _ in 0..profile.dim {
                p.push(rng.gen_range(profile.lo..=profile.hi));
            }
        }
        if profile.integral {
            for v in &mut p {
                *v = v.round();
            }
        }
        p
    };

    let mut w = BufWriter::with_capacity(1 << 20, std::fs::File::create(path)?);
    for _ in 0..n {
        for v in sample_point(&mut rng) {
            w.write_all(&v.to_le_bytes())?;
        }
    }
    w.flush()?;
    Ok((0..nq).map(|_| sample_point(&mut rng)).collect())
}

/// Exact k-NN over the corpus *file*: one sequential pass, a `TopK` per
/// query, never more than one chunk of vectors in memory.
fn streaming_truth(
    src: &mut RawF32Source,
    queries: &[Vec<f32>],
    k: usize,
) -> std::io::Result<Vec<Vec<Neighbor>>> {
    let dim = src.dim();
    let metric = src.metric();
    let mut tops: Vec<TopK> = queries.iter().map(|_| TopK::new(k)).collect();
    src.reset()?;
    let mut buf = Vec::new();
    let mut base = 0u64;
    loop {
        let got = src.next_chunk(8192, &mut buf)?;
        if got == 0 {
            break;
        }
        for (i, row) in buf.chunks_exact(dim).enumerate() {
            let id = base + i as u64;
            for (q, top) in queries.iter().zip(tops.iter_mut()) {
                top.push(Neighbor::new(id, metric.dist(q, row)));
            }
        }
        base += got as u64;
    }
    Ok(tops.into_iter().map(|t| t.into_sorted()).collect())
}

/// Strided reference-selection sample, mirroring what
/// `HdIndex::build_from_source` does internally. Selecting *before* the
/// timed build keeps the measured wall aligned with the three instrumented
/// pipeline spans (selection has no span), and folds the sample's memory
/// into the pre-build baseline where it belongs.
fn select_refs(
    src: &mut RawF32Source,
    params: &HdIndexParams,
) -> std::io::Result<hd_index::ReferenceSet> {
    const SAMPLE_MAX: usize = 1 << 17;
    let dim = src.dim();
    let stride = src.len().div_ceil(SAMPLE_MAX).max(1);
    let mut sample = Dataset::new(dim).with_metric(src.metric());
    src.reset()?;
    let (mut buf, mut j) = (Vec::new(), 0usize);
    loop {
        let got = src.next_chunk(4096, &mut buf)?;
        if got == 0 {
            break;
        }
        for (i, v) in buf.chunks_exact(dim).enumerate() {
            if (j + i).is_multiple_of(stride) {
                sample.push(v);
            }
        }
        j += got;
    }
    src.reset()?;
    Ok(hd_index::reference::select(
        &sample,
        params.num_references,
        params.ref_selection,
        params.seed,
    ))
}

fn build_span_nanos() -> (u64, u64, u64) {
    let reg = hd_telemetry::global();
    (
        reg.histogram("build_refdist_nanos", "").sum(),
        reg.histogram("build_sort_nanos", "").sum(),
        reg.histogram("build_bulkload_nanos", "").sum(),
    )
}

#[allow(clippy::too_many_lines)]
fn main() {
    let cfg = BenchConfig::from_args();
    hd_bench::telemetry_report::init(&cfg);
    let budget_mb: usize = flag_value("--budget-mb").and_then(|v| v.parse().ok()).unwrap_or(64);
    let budget = budget_mb << 20;
    let json_path = flag_value("--json").map(PathBuf::from);

    let profile = DatasetProfile::SIFT;
    let n = cfg.n(BASE_N);
    let nq = cfg.nq(64).clamp(16, 128);
    let k = 10;
    let scratch = cfg.scratch("build_bench");
    let corpus = scratch.join("corpus.f32");

    println!(
        "build_bench: n = {n}, dim = {}, budget = {budget_mb} MiB, {nq} queries, k = {k}",
        profile.dim
    );
    let t0 = Instant::now();
    let queries = write_corpus(&corpus, &profile, n, nq, cfg.seed).expect("write corpus");
    println!(
        "corpus: {:.2} GB streamed to {} in {:.1}s",
        (n * profile.dim * 4) as f64 / 1e9,
        corpus.display(),
        t0.elapsed().as_secs_f64()
    );

    // Buffer pools are cache, not pipeline working memory; still, a
    // memory-capped build should not smuggle an uncapped cache in through
    // the back door, so the per-pool page quota scales with the budget
    // (τ+1 pools sharing ~budget/4).
    let mut params = HdIndexParams::for_profile(&profile);
    let pool_pages = ((budget / 4) / 4096 / (params.tau + 1)).clamp(64, 1024);
    params.build_cache_pages = pool_pages;
    let pool_bytes = pool_pages * 4096 * (params.tau + 1);

    let mut src = RawF32Source::open(&corpus, profile.dim, Metric::L2).expect("open corpus");
    let refs = select_refs(&mut src, &params).expect("select references");
    let baseline_rss = peak_rss_bytes();

    // --- §1 Budgeted build -------------------------------------------------
    let spans_before = build_span_nanos();
    let t0 = Instant::now();
    let index = HdIndex::build_from_source(
        &mut src,
        &params,
        scratch.join("budgeted"),
        BuildOpts {
            references: Some(refs.clone()),
            cache_budget: None,
            build_budget: Some(BuildBudget::new(budget)),
        },
    )
    .expect("budgeted build");
    let build_secs = t0.elapsed().as_secs_f64();
    let peak_rss = peak_rss_bytes();
    let spans_after = build_span_nanos();
    let stats = index.build_stats();

    let rss_delta = peak_rss.saturating_sub(baseline_rss);
    // Slack components, itemized: the τ+1 buffer pools (page cache is
    // outside the pipeline budget but capped above), and a fixed 96 MiB
    // for allocator retention, merge cursors, thread stacks, and the
    // index's in-memory tombstone/metadata state.
    let allowance = (3 * budget) / 2 + pool_bytes + (96 << 20);
    let m = params.num_references;
    let eta = profile.dim.div_ceil(params.tau);
    let naive_entry = eta * params.hilbert_order as usize / 8 + 8 + 4 * m + 48;
    let naive_bytes = n * (profile.dim * 4 + m * 4 + naive_entry);

    let widths = [12usize, 12, 12, 12, 12, 12];
    table::header(
        "budgeted build",
        &["wall", "points/s", "spills", "spill MB", "peak ΔRSS", "disk MB"],
        &widths,
    );
    table::row(
        &[
            format!("{build_secs:.1}s"),
            format!("{:.0}", n as f64 / build_secs),
            stats.spilled_runs.to_string(),
            format!("{:.1}", stats.spilled_bytes as f64 / 1e6),
            format!("{:.1}MB", rss_delta as f64 / 1e6),
            format!("{:.1}", index.disk_bytes() as f64 / 1e6),
        ],
        &widths,
    );
    println!(
        "scratch IO: {} physical reads, {} physical writes (page units)",
        stats.scratch_io.physical_reads, stats.scratch_io.physical_writes
    );
    println!(
        "memory: peak ΔRSS {:.1} MB vs allowance {:.1} MB (1.5×budget + pools {:.1} MB + 96 MB); \
         naive in-memory build ≈ {:.1} MB",
        rss_delta as f64 / 1e6,
        allowance as f64 / 1e6,
        pool_bytes as f64 / 1e6,
        naive_bytes as f64 / 1e6,
    );
    if rss_delta > allowance as u64 {
        eprintln!(
            "FAIL: peak RSS delta {:.1} MB exceeds the {:.1} MB allowance",
            rss_delta as f64 / 1e6,
            allowance as f64 / 1e6
        );
        std::process::exit(1);
    }
    if n >= 1_000_000 && budget + allowance > naive_bytes / 10 {
        eprintln!(
            "FAIL: memory cap {:.1} MB is not under a tenth of the naive build's {:.1} MB",
            (budget + allowance) as f64 / 1e6,
            naive_bytes as f64 / 1e6
        );
        std::process::exit(1);
    }

    // Build-span coverage gate (§4): snapshot *now*, before the
    // equivalence builds add their own span samples.
    let attributed_nanos = (spans_after.0 - spans_before.0)
        + (spans_after.1 - spans_before.1)
        + (spans_after.2 - spans_before.2);
    let build_coverage = attributed_nanos as f64 / (build_secs * 1e9);
    if cfg.telemetry {
        println!(
            "[telemetry] build-span coverage: {} of build wall attributed \
             (refdist + sort + bulkload; gate ≥ {})",
            table::pct(build_coverage),
            table::pct(BUILD_COVERAGE_GATE),
        );
        if build_coverage < BUILD_COVERAGE_GATE {
            eprintln!("[telemetry] FAIL: build spans below the coverage gate");
            std::process::exit(1);
        }
    }

    // --- §2 Query stage ----------------------------------------------------
    let qp = QueryParams::triangular(4096.min(n), 1024.min(n), k);
    let t0 = Instant::now();
    let mut approx: Vec<Vec<Neighbor>> = Vec::with_capacity(nq);
    for q in &queries {
        approx.push(index.knn(q, &qp).expect("query"));
    }
    let query_secs = t0.elapsed().as_secs_f64();
    let qps = nq as f64 / query_secs;
    println!(
        "queries: {qps:.1} QPS ({:.2} ms/query) at α = {}, γ = {}",
        1e3 * query_secs / nq as f64,
        qp.alpha,
        qp.gamma
    );
    drop(index);

    // --- §3 Equivalence + quality over min(n, 200k) ------------------------
    let eq_n = n.min(EQ_N);
    let eq_corpus = if eq_n == n {
        corpus.clone()
    } else {
        let path = scratch.join("corpus_eq.f32");
        let mut r = std::fs::File::open(&corpus).expect("reopen corpus");
        let mut w = std::fs::File::create(&path).expect("create eq corpus");
        std::io::copy(
            &mut std::io::Read::take(&mut r, (eq_n * profile.dim * 4) as u64),
            &mut w,
        )
        .expect("copy eq corpus");
        path
    };
    let mut eq_src = RawF32Source::open(&eq_corpus, profile.dim, Metric::L2).expect("eq corpus");
    let eq_refs = select_refs(&mut eq_src, &params).expect("eq references");
    let shared = |budget: Option<BuildBudget>| BuildOpts {
        references: Some(eq_refs.clone()),
        cache_budget: None,
        build_budget: budget,
    };
    let unbounded =
        HdIndex::build_from_source(&mut eq_src, &params, scratch.join("eq_unbounded"), shared(None))
            .expect("unbounded build");
    assert_eq!(unbounded.build_stats().spilled_runs, 0, "unbounded build must not spill");
    eq_src.reset().expect("rewind eq corpus");
    let budgeted = HdIndex::build_from_source(
        &mut eq_src,
        &params,
        scratch.join("eq_budgeted"),
        shared(Some(BuildBudget::new(budget.min(8 << 20)))),
    )
    .expect("eq budgeted build");

    let eq_qp = QueryParams::triangular(4096.min(eq_n), 1024.min(eq_n), k);
    let mut identical = true;
    let mut eq_answers: Vec<Vec<Neighbor>> = Vec::with_capacity(nq);
    for q in &queries {
        let a = unbounded.knn(q, &eq_qp).expect("unbounded query");
        let b = budgeted.knn(q, &eq_qp).expect("budgeted query");
        identical &= a == b;
        eq_answers.push(b);
    }
    assert!(
        identical,
        "budgeted build answered differently from the unbounded build (n = {eq_n})"
    );
    let truth = streaming_truth(&mut eq_src, &queries, k).expect("ground truth");
    let quality = score_workload(&truth, &eq_answers);
    println!(
        "equivalence @ {eq_n}: budgeted ≡ unbounded on all {nq} queries \
         ({} spill runs); MAP {:.3}, ratio {:.3}, recall {:.3}",
        budgeted.build_stats().spilled_runs,
        quality.map,
        quality.ratio,
        quality.recall
    );

    if let Some(path) = json_path {
        let mut j = String::from("{\n");
        let _ = writeln!(j, "  \"bench\": \"build_bench\",");
        let _ = writeln!(j, "  \"scale\": {},", cfg.scale);
        let _ = writeln!(j, "  \"seed\": {},", cfg.seed);
        let _ = writeln!(j, "  \"n\": {n},");
        let _ = writeln!(j, "  \"dim\": {},", profile.dim);
        let _ = writeln!(j, "  \"tau\": {},", params.tau);
        let _ = writeln!(j, "  \"num_references\": {m},");
        let _ = writeln!(j, "  \"budget_bytes\": {budget},");
        let _ = writeln!(j, "  \"build\": {{");
        let _ = writeln!(j, "    \"seconds\": {build_secs:.2},");
        let _ = writeln!(j, "    \"points_per_sec\": {:.0},", n as f64 / build_secs);
        let _ = writeln!(j, "    \"spilled_runs\": {},", stats.spilled_runs);
        let _ = writeln!(j, "    \"spilled_bytes\": {},", stats.spilled_bytes);
        let _ = writeln!(j, "    \"scratch_reads\": {},", stats.scratch_io.physical_reads);
        let _ = writeln!(j, "    \"scratch_writes\": {},", stats.scratch_io.physical_writes);
        let _ = writeln!(j, "    \"peak_rss_delta_bytes\": {rss_delta},");
        let _ = writeln!(j, "    \"rss_allowance_bytes\": {allowance},");
        let _ = writeln!(j, "    \"naive_build_bytes\": {naive_bytes},");
        let _ = writeln!(j, "    \"index_disk_bytes\": {},", disk_bytes_final(&scratch));
        let _ = writeln!(j, "    \"span_coverage\": {build_coverage:.3}");
        let _ = writeln!(j, "  }},");
        let _ = writeln!(j, "  \"queries\": {{ \"count\": {nq}, \"qps\": {qps:.2} }},");
        let _ = writeln!(
            j,
            "  \"equivalence\": {{ \"n\": {eq_n}, \"identical\": {identical}, \
             \"spilled_runs\": {}, \"map\": {:.4}, \"ratio\": {:.4}, \"recall\": {:.4} }}",
            budgeted.build_stats().spilled_runs,
            quality.map,
            quality.ratio,
            quality.recall
        );
        j.push_str("}\n");
        std::fs::write(&path, j).expect("write json");
        println!("\nwrote {}", path.display());
    }

    drop((unbounded, budgeted));
    std::fs::remove_dir_all(&scratch).ok();
    hd_bench::telemetry_report::report(&cfg);
}

/// Bytes of the budgeted index directory, read back from disk so the JSON
/// survives the `drop(index)` above.
fn disk_bytes_final(scratch: &Path) -> u64 {
    fn walk(dir: &Path, total: &mut u64) {
        if let Ok(entries) = std::fs::read_dir(dir) {
            for e in entries.flatten() {
                let p = e.path();
                if p.is_dir() {
                    walk(&p, total);
                } else if let Ok(md) = e.metadata() {
                    *total += md.len();
                }
            }
        }
    }
    let mut total = 0;
    walk(&scratch.join("budgeted"), &mut total);
    total
}
