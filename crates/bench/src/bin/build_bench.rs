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
//!    `--budget-mb` (default 64), run in a child process of its own (this
//!    binary re-run with a hidden first argument), so the `VmHWM` peak it
//!    reports is the build's alone: the parent's corpus generation and
//!    reference sample never reach it. Reports wall time, spill-run
//!    counts, the scratch-IO ledger, and the child's `VmHWM` growth over
//!    its start, which must stay under `1.5 × budget + 96 MiB` (the slack
//!    covers merge cursors, thread stacks, and allocator overhead). At
//!    ≥ 1M points the whole cap must also undercut a tenth of what the
//!    naive in-memory build would materialize (corpus + n×m reference
//!    table + sort vec).
//! 2. **Query stage** — QPS and mean latency over the freshly built index.
//! 3. **Equivalence** — over `min(n, 200k)` points, an unbounded and a
//!    budgeted build (shared references) must answer every query
//!    identically, id for id; MAP/ratio/recall come from streaming exact
//!    ground truth over the corpus file.
//! 4. **Telemetry** — with `--telemetry`, the four disjoint build spans
//!    (`build_refdist_nanos`, `build_encode_nanos`, `build_sort_nanos`,
//!    `build_bulkload_nanos`; `build_merge_nanos` nests inside bulk-load)
//!    are printed as per-stage seconds beside the build's points/s, and
//!    must attribute ≥ 80% of the measured build wall, or the process exits
//!    non-zero — the CI gate extending the query-stage coverage gate to
//!    construction.
//!
//! `--json PATH` writes the numbers for check-in (`BENCH_build_bench.json`).

use hd_bench::config::{self, parse_value};
use hd_bench::{table, BenchConfig};
use hd_core::dataset::{Dataset, DatasetProfile, RawF32Source, VectorSource};
use hd_core::metric::Metric;
use hd_core::metrics::score_workload;
use hd_core::topk::{Neighbor, TopK};
use hd_index::{BuildOpts, HdIndex, HdIndexParams, QueryParams};
use hd_storage::BuildBudget;
use rand::distributions::Distribution;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;
use std::io::{BufWriter, Read as _, Write as _};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

const BASE_N: usize = 10_000_000;
/// Corpus size of the equivalence section: big enough to force spills at
/// the default budget, small enough that the unbounded control build stays
/// seconds-fast.
const EQ_N: usize = 200_000;
/// Build-span coverage the telemetry gate requires.
const BUILD_COVERAGE_GATE: f64 = 0.80;
/// First argument of the child process that runs §1's budgeted build.
const CHILD: &str = "--budgeted-build-child";

/// `VmHWM` from `/proc/self/status` in bytes — the kernel's lifetime peak
/// resident set, monotone by definition, so each section snapshots it
/// *before* later sections can raise it. 0 when unavailable (non-Linux).
fn peak_rss_bytes() -> u64 {
    let Ok(status) = std::fs::read_to_string("/proc/self/status") else {
        return 0;
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            if let Some(kb) = rest
                .split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
            {
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
        let c: Vec<f32> = (0..profile.dim)
            .map(|_| rng.gen_range(profile.lo..=profile.hi))
            .collect();
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
/// timed build keeps the measured wall aligned with the four instrumented
/// pipeline spans (selection has no span), and keeps the sample's memory
/// out of the build's peak (the build runs in a child process that only
/// reads the selected references).
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

/// The disjoint build spans, in pipeline order.
const BUILD_SPANS: [(&str, &str); 4] = [
    ("refdist", "build_refdist_nanos"),
    ("encode", "build_encode_nanos"),
    ("sort", "build_sort_nanos"),
    ("bulk load", "build_bulkload_nanos"),
];

/// Nanoseconds recorded so far under each of [`BUILD_SPANS`].
fn build_span_nanos() -> [u64; 4] {
    let reg = hd_telemetry::global();
    BUILD_SPANS.map(|(_, name)| reg.histogram(name, "").sum())
}

/// What the budgeted-build child reports back on its last stdout line.
struct ChildBuild {
    /// The child's `VmHWM` growth from its start to the end of the build.
    peak_rss_delta: u64,
    secs: f64,
    spilled_runs: u64,
    spilled_bytes: u64,
    scratch_reads: u64,
    scratch_writes: u64,
    /// Nanoseconds each of [`BUILD_SPANS`] attributed (0 without
    /// telemetry).
    stage_nanos: [u64; 4],
}

/// Writes the reference set as `id (u64 LE) ++ vector (f32 LE)` records.
fn write_refs(path: &Path, refs: &hd_index::ReferenceSet) -> std::io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for (id, v) in refs.ids.iter().zip(&refs.vectors) {
        w.write_all(&id.to_le_bytes())?;
        for x in v {
            w.write_all(&x.to_le_bytes())?;
        }
    }
    w.flush()
}

fn read_refs(path: &Path, dim: usize) -> std::io::Result<hd_index::ReferenceSet> {
    let mut bytes = Vec::new();
    std::fs::File::open(path)?.read_to_end(&mut bytes)?;
    let (mut ids, mut vectors) = (Vec::new(), Vec::new());
    for rec in bytes.chunks_exact(8 + 4 * dim) {
        let (id, v) = rec.split_at(8);
        ids.push(u64::from_le_bytes(id.try_into().expect("8 bytes")));
        vectors.push(
            v.chunks_exact(4)
                .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
                .collect(),
        );
    }
    Ok(hd_index::ReferenceSet::from_parts(ids, vectors, Metric::L2))
}

/// The child side of §1: `CHILD corpus refs out budget_bytes telemetry`.
/// Builds the corpus under the budget and prints a [`ChildBuild`] line.
fn budgeted_build_child(args: &[String]) {
    let baseline_rss = peak_rss_bytes();
    let [corpus, refs, out, budget, telemetry] = args else {
        panic!("{CHILD} takes corpus, refs, out, budget_bytes, telemetry")
    };
    if telemetry == "1" {
        hd_telemetry::set_enabled(true);
    }
    let profile = DatasetProfile::SIFT;
    let params = HdIndexParams::for_profile(&profile);
    let refs = read_refs(Path::new(refs), profile.dim).expect("read references");
    let mut src = RawF32Source::open(corpus, profile.dim, Metric::L2).expect("open corpus");
    let spans_before = build_span_nanos();
    let t0 = Instant::now();
    let index = HdIndex::build_from_source(
        &mut src,
        &params,
        out,
        BuildOpts {
            references: Some(refs),
            cache_budget: None,
            build_budget: Some(BuildBudget::new(budget.parse().expect("budget bytes"))),
            refine_codes: false,
        },
    )
    .expect("budgeted build");
    let secs = t0.elapsed().as_secs_f64();
    let peak_rss = peak_rss_bytes();
    let spans_after = build_span_nanos();
    let stats = index.build_stats();
    let stages = std::array::from_fn::<_, 4, _>(|i| spans_after[i] - spans_before[i]);
    println!(
        "{} {secs} {} {} {} {} {} {} {} {}",
        peak_rss.saturating_sub(baseline_rss),
        stats.spilled_runs,
        stats.spilled_bytes,
        stats.scratch_io.physical_reads,
        stats.scratch_io.physical_writes,
        stages[0],
        stages[1],
        stages[2],
        stages[3],
    );
}

/// Runs [`budgeted_build_child`] in a child process and parses its report.
fn run_budgeted_build(
    corpus: &Path,
    refs: &Path,
    out: &Path,
    budget: usize,
    telemetry: bool,
) -> ChildBuild {
    let output = Command::new(std::env::current_exe().expect("own executable"))
        .arg(CHILD)
        .args([corpus, refs, out])
        .args([budget.to_string(), u8::from(telemetry).to_string()])
        .output()
        .expect("spawn the budgeted build");
    if !output.status.success() {
        eprintln!("{}", String::from_utf8_lossy(&output.stderr));
        panic!("budgeted build child failed: {}", output.status);
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let f: Vec<&str> = stdout
        .lines()
        .last()
        .expect("child report")
        .split_whitespace()
        .collect();
    let int = |i: usize| f[i].parse::<u64>().expect("child report field");
    ChildBuild {
        peak_rss_delta: int(0),
        secs: f[1].parse().expect("child build seconds"),
        spilled_runs: int(2),
        spilled_bytes: int(3),
        scratch_reads: int(4),
        scratch_writes: int(5),
        stage_nanos: std::array::from_fn(|i| int(6 + i)),
    }
}

/// The shared flags plus `--budget-mb N` (default 64) and `--json PATH`.
fn parse_args(args: &[String]) -> Result<(BenchConfig, usize, Option<PathBuf>), String> {
    let (cfg, own) = BenchConfig::parse(args, &["--budget-mb", "--json"])?;
    let budget_mb = own[0]
        .as_deref()
        .map_or(Ok(64), |v| parse_value("--budget-mb", v))?;
    Ok((cfg, budget_mb, own[1].as_ref().map(PathBuf::from)))
}

#[allow(clippy::too_many_lines)]
fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some(CHILD) {
        budgeted_build_child(&args[1..]);
        return;
    }
    let (cfg, budget_mb, json_path) = parse_args(&args)
        .unwrap_or_else(|err| config::exit_usage(&err, &config::build_bench_usage()));
    hd_bench::telemetry_report::init(&cfg);
    let budget = budget_mb << 20;

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

    // A build writes through uncached pools and the profile's serving pools
    // hold no pages either (`query_cache_pages = 0`), so the build's only
    // cache is the OS page cache, which RSS does not count.
    let params = HdIndexParams::for_profile(&profile);

    let mut src = RawF32Source::open(&corpus, profile.dim, Metric::L2).expect("open corpus");
    let refs = select_refs(&mut src, &params).expect("select references");
    let refs_path = scratch.join("refs.bin");
    write_refs(&refs_path, &refs).expect("write references");
    drop(src);

    // --- §1 Budgeted build (child process) ---------------------------------
    let child = run_budgeted_build(
        &corpus,
        &refs_path,
        &scratch.join("budgeted"),
        budget,
        cfg.telemetry,
    );
    let index = HdIndex::open(scratch.join("budgeted"), params.query_cache_pages)
        .expect("open the budgeted build");
    let build_secs = child.secs;
    let rss_delta = child.peak_rss_delta;
    // Slack: a fixed 96 MiB for allocator retention, merge cursors, thread
    // stacks, and the index's in-memory tombstone/metadata state.
    let allowance = (3 * budget) / 2 + (96 << 20);
    let naive_bytes = n * profile.dim * 4 + params.build_memory_bytes(n, profile.dim);

    let widths = [12usize, 12, 12, 12, 12, 12];
    table::header(
        "budgeted build",
        &[
            "wall",
            "points/s",
            "spills",
            "spill MB",
            "peak ΔRSS",
            "disk MB",
        ],
        &widths,
    );
    table::row(
        &[
            format!("{build_secs:.1}s"),
            format!("{:.0}", n as f64 / build_secs),
            child.spilled_runs.to_string(),
            format!("{:.1}", child.spilled_bytes as f64 / 1e6),
            format!("{:.1}MB", rss_delta as f64 / 1e6),
            format!("{:.1}", index.disk_bytes() as f64 / 1e6),
        ],
        &widths,
    );
    println!(
        "scratch IO: {} physical reads, {} physical writes (page units)",
        child.scratch_reads, child.scratch_writes
    );
    println!(
        "memory: peak ΔRSS {:.1} MB vs allowance {:.1} MB (1.5×budget + 96 MB); \
         naive in-memory build ≈ {:.1} MB",
        rss_delta as f64 / 1e6,
        allowance as f64 / 1e6,
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

    // Build-span coverage gate (§4): the child's spans over its build wall.
    let build_coverage = child.stage_nanos.iter().sum::<u64>() as f64 / (build_secs * 1e9);
    if cfg.telemetry {
        let stages: Vec<String> = BUILD_SPANS
            .iter()
            .zip(child.stage_nanos)
            .map(|((stage, _), nanos)| format!("{stage} {:.2}s", nanos as f64 / 1e9))
            .collect();
        println!(
            "[telemetry] build stages: {} at {:.0} points/s",
            stages.join(", "),
            n as f64 / build_secs
        );
        println!(
            "[telemetry] build-span coverage: {} of build wall attributed \
             (refdist + encode + sort + bulk load; gate ≥ {})",
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
        refine_codes: false,
    };
    let unbounded = HdIndex::build_from_source(
        &mut eq_src,
        &params,
        scratch.join("eq_unbounded"),
        shared(None),
    )
    .expect("unbounded build");
    assert_eq!(
        unbounded.build_stats().spilled_runs,
        0,
        "unbounded build must not spill"
    );
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
        let _ = writeln!(j, "  \"num_references\": {},", params.num_references);
        let _ = writeln!(j, "  \"budget_bytes\": {budget},");
        let _ = writeln!(j, "  \"build\": {{");
        let _ = writeln!(j, "    \"seconds\": {build_secs:.2},");
        let _ = writeln!(j, "    \"points_per_sec\": {:.0},", n as f64 / build_secs);
        let _ = writeln!(j, "    \"spilled_runs\": {},", child.spilled_runs);
        let _ = writeln!(j, "    \"spilled_bytes\": {},", child.spilled_bytes);
        let _ = writeln!(j, "    \"scratch_reads\": {},", child.scratch_reads);
        let _ = writeln!(j, "    \"scratch_writes\": {},", child.scratch_writes);
        let _ = writeln!(j, "    \"peak_rss_delta_bytes\": {rss_delta},");
        let _ = writeln!(j, "    \"rss_allowance_bytes\": {allowance},");
        let _ = writeln!(j, "    \"naive_build_bytes\": {naive_bytes},");
        let _ = writeln!(
            j,
            "    \"index_disk_bytes\": {},",
            disk_bytes_final(&scratch)
        );
        let _ = writeln!(j, "    \"span_coverage\": {build_coverage:.3}");
        let _ = writeln!(j, "  }},");
        let _ = writeln!(
            j,
            "  \"queries\": {{ \"count\": {nq}, \"qps\": {qps:.2} }},"
        );
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
