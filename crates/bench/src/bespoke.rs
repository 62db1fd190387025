//! The six experiments with logic of their own, each named by its entry in
//! the [`crate::paper`] table: the measured grid (if any) is the runner's,
//! what is computed from it is here.

use crate::config::BenchConfig;
use crate::methods::{MethodOutcome, MethodResult};
use crate::paper::Measured;
use crate::table::{self, f3, ms};
use hd_app::image_search::{search_image, ImageCorpus, ImageSearchResult};
use hd_baselines::hnsw::{Hnsw, HnswParams};
use hd_baselines::lsh::c2lsh::{C2lsh, C2lshParams};
use hd_baselines::lsh::qalsh::{Qalsh, QalshParams};
use hd_baselines::lsh::srs::{Srs, SrsParams};
use hd_baselines::multicurves::{Multicurves, MulticurvesParams};
use hd_baselines::quantization::{Opq, OpqParams, PqParams};
use hd_core::dataset::{generate, DatasetProfile};
use hd_core::ground_truth::knn_exact;
use hd_core::topk::Neighbor;
use hd_core::util::{fmt_bytes, mean, std_dev};
use hd_index::config::rdb_leaf_order_eq4;
use hd_index::{HdIndex, HdIndexParams, QueryParams};
use std::path::Path;

/// Table 3: RDB-tree leaf orders Ω per dataset at page size B = 4 KB,
/// computed from Eq. (4), beside the leaf capacity of an actually-built
/// RDB-tree, whose entries store one-byte distance codes where Eq. (4)
/// charges four-byte distances.
pub fn table3(cfg: &BenchConfig, scratch: &Path, _: &[Measured]) {
    // (profile, τ for Table 3's η column, paper Ω). Table 3 lists SUN with
    // η = 64 (τ = 8), although §5.2.4 recommends τ = 16 for querying.
    let profiles: [(&DatasetProfile, usize, usize); 6] = [
        (&DatasetProfile::SIFT, 8, 63),
        (&DatasetProfile::YORCK, 8, 36),
        (&DatasetProfile::SUN, 8, 13),
        (&DatasetProfile::AUDIO, 8, 28),
        (&DatasetProfile::ENRON, 37, 18),
        (&DatasetProfile::GLOVE, 10, 40),
    ];
    let row = |&(p, tau, paper_omega): &(&DatasetProfile, usize, usize)| {
        let (eta, m) = (p.dim / tau, 10);
        let eq4 = rdb_leaf_order_eq4(eta, p.hilbert_order, m, 4096);
        // Build a miniature index with exactly these parameters and read the
        // real leaf capacity back from the tree.
        let n = ((500.0 * cfg.scale) as usize).max(100);
        let (data, _) = generate(p, n, 1, cfg.seed);
        let params = HdIndexParams {
            tau,
            num_references: m,
            ..HdIndexParams::for_profile(p)
        };
        let built = match HdIndex::build(&data, &params, scratch.join(p.name)) {
            Ok(idx) => idx.leaf_order(0).to_string(),
            Err(e) => format!("err: {e}"),
        };
        let cells = [p.dim, p.hilbert_order as usize, eta, m, eq4, paper_omega];
        [
            vec![p.name.to_string()],
            cells.map(|v| v.to_string()).into(),
            vec![built],
        ]
        .concat()
    };
    table::print(
        "Table 3: RDB-tree leaf order (page size = 4 KB)",
        &[
            "dataset",
            "ν",
            "ω",
            "η(=ν/τ)",
            "m",
            "Ω (Eq.4)",
            "Ω (paper)",
            "Ω (built)",
        ],
        &[10, 6, 6, 10, 6, 10, 10, 10],
        &profiles.iter().map(row).collect::<Vec<_>>(),
    );
    println!(
        "\nNote: Enron and Glove rows of the paper's Table 3 (Ω = 18, 40) do not\n\
         follow Eq. (4) with the row's own parameters (the formula gives 33, 46);\n\
         all other rows match exactly. \"Ω (built)\" is larger than Eq. (4) by\n\
         design: our leaves store each of the m reference distances as a one-byte\n\
         cell code instead of a 4-byte float, so an entry is η·ω/8 + 8 + m bytes,\n\
         not η·ω/8 + 8 + 4·m, and a 4 KB leaf (19 header bytes) holds\n\
         ⌊4077 / entry⌋ entries: 119 instead of 63 for SIFT."
    );
}

/// Table 5: HD-Index's query-time and MAP@100 gains over every other
/// method, per dataset. A gain of `2.0x` in time means the competitor takes
/// twice HD-Index's query time; `<1x` means the competitor is faster
/// (in-memory OPQ/HNSW, and everything on tiny datasets — exactly the
/// paper's pattern). CR/NP rows mirror the paper's crashed / not-possible
/// entries.
pub fn table5(_: &BenchConfig, _: &Path, all: &[Measured]) {
    for m in all {
        let name = m.data.name;
        let is_hd = |r: &&MethodResult| r.method == "HD-Index";
        let Some(hd) = m.cells.iter().filter_map(|c| c.result()).find(is_hd) else {
            // Table 5 is defined as gains *over HD-Index*; with a
            // --methods selection that omits it there is nothing to report.
            println!("\n[{name}] skipped: HD-Index not in the selected methods");
            continue;
        };
        let mut rows = Vec::new();
        for c in &m.cells {
            let tail = match &c.outcome {
                Some(MethodOutcome::Done(r)) if !is_hd(&r) => {
                    let time_gain = format!("{:.2}x", r.avg_query_ms / hd.avg_query_ms);
                    let map_gain = if r.map > 0.0 {
                        format!("{:.2}x", hd.map / r.map)
                    } else {
                        "∞".into()
                    };
                    vec![time_gain, map_gain, f3(r.map)]
                }
                Some(MethodOutcome::NotPossible(..)) => vec!["NP".into(), "NP".into(), "—".into()],
                _ => continue,
            };
            rows.push([vec![name.into(), c.label[0].clone()], tail].concat());
        }
        let title = format!(
            "Table 5 [{name}]: HD-Index query {} | MAP@100 {}",
            ms(hd.avg_query_ms),
            f3(hd.map)
        );
        table::print(
            &title,
            &["dataset", "vs method", "time gain", "MAP gain", "their MAP"],
            &[10, 12, 12, 12, 10],
            &rows,
        );
    }
    println!("\nPaper shape: time gains < 1x on tiny data, crossing above 1x as n grows");
    println!("(disk methods); MAP gains ≫ 1x over the LSH family, ≈ 1x vs OPQ/HNSW.");
}

/// Figure 9: qualitative classification of methods into the
/// Quality / Memory-footprint / Efficiency (Q/M/E) triangle, derived from a
/// measured run rather than asserted.
///
/// Thresholds (scale-sensitive; §5.6 defines footprint as *external memory
/// storing the index plus main memory while querying*):
/// **Q** — MAP within 60% of the best approximate MAP; **M** — total
/// footprint (index on disk + query-resident RAM) at most 4× the raw data;
/// **E** — query time within 25× of the fastest (in-memory methods enjoy
/// what §5.4.2 calls an "unfair advantage", so the envelope is generous).
///
/// Paper shape (large-data regime): HD-Index = QME; OPQ/HNSW/Multicurves
/// fail M; C2LSH/SRS fail Q as n grows; QALSH is quality-limited at our
/// capped hash-function budget (the paper's QALSH = QM).
pub fn fig9(_: &BenchConfig, _: &Path, all: &[Measured]) {
    for m in all {
        let raw_bytes = m.n * m.dim * 4;
        let results: Vec<&MethodResult> = m.cells.iter().filter_map(|c| c.result()).collect();
        let best_map = results.iter().map(|r| r.map).fold(0.0, f64::max);
        let best_time = results
            .iter()
            .map(|r| r.avg_query_ms)
            .fold(f64::INFINITY, f64::min);
        let row = |r: &&MethodResult| {
            let footprint = r.index_disk_bytes as usize + r.query_mem_bytes;
            let classes = [
                ("Q", r.map >= 0.6 * best_map),
                ("M", footprint <= 4 * raw_bytes),
                ("E", r.avg_query_ms <= 25.0 * best_time),
            ];
            let class: String = classes.iter().filter(|c| c.1).map(|c| c.0).collect();
            let class = if class.is_empty() {
                "—".into()
            } else {
                class
            };
            let mem = [footprint, r.query_mem_bytes].map(fmt_bytes);
            [
                vec![r.method.into(), f3(r.map), ms(r.avg_query_ms)],
                mem.into(),
                vec![class],
            ]
            .concat()
        };
        table::print(
            &format!(
                "Fig. 9: Q/M/E classification (n={}, raw data {})",
                m.n,
                fmt_bytes(raw_bytes)
            ),
            &[
                "method",
                "MAP@100",
                "query",
                "footprint",
                "qry RAM",
                "class",
            ],
            &[12, 8, 12, 12, 12, 8],
            &results.iter().map(row).collect::<Vec<_>>(),
        );
    }
    println!("\nPaper's Fig. 9 placement: HD-Index QME; Multicurves/HNSW/OPQ QE;");
    println!("QALSH QM; SRS M(E); C2LSH E. The Q and E splits sharpen as n grows.");
}

/// §5.2.1 ablation: does the dimension-partitioning scheme matter? The
/// paper builds 100 indices with random partitionings and reports MAP@10
/// mean ± std next to the contiguous default — e.g. SIFT10K 0.974 ± 0.002 —
/// concluding quality "does not depend significantly on the choice of
/// partitioning scheme". The first build of each dataset is the contiguous
/// default, the rest are random rounds.
pub fn ablation(_: &BenchConfig, _: &Path, all: &[Measured]) {
    for m in all {
        let name = m.data.name;
        let maps: Vec<f64> = m
            .cells
            .iter()
            .map(|c| c.result().map_or(f64::NAN, |r| r.map))
            .collect();
        let (contiguous, random) = maps.split_first().expect("the contiguous build");
        let rows = [
            vec![
                name.into(),
                "contiguous".into(),
                f3(*contiguous),
                "—".into(),
            ],
            vec![
                name.into(),
                "random".into(),
                f3(mean(random)),
                f3(std_dev(random)),
            ],
        ];
        table::print(
            &format!(
                "§5.2.1 [{name}]: partitioning ablation ({} random rounds)",
                random.len()
            ),
            &["dataset", "scheme", "MAP@10", "±std"],
            &[10, 14, 10, 10],
            &rows,
        );
    }
    println!("\nPaper shape: random ≈ contiguous (e.g. SIFT10K 0.974 ± 0.002), so the");
    println!("simple contiguous scheme is justified.");
}

/// §5.4.4 (billion-scale feasibility): HD-Index is the only method that ran
/// on SIFT1B — ~10 days to build, 1.2 TB of index, 4.8 s/query at 30 MB RAM.
///
/// We cannot host a billion points on a laptop, so this experiment measures
/// HD-Index at a geometric ladder of sizes, verifies the paper's linearity
/// claims (§3.5: construction time and space are O(n·ν); §4.4: query cost is
/// O(τ(log n + α/Ω + γ)) — i.e. *nearly flat* in n), and extrapolates the
/// fitted per-point costs to 10⁹ points for comparison with the reported
/// SIFT1B numbers.
pub fn scaling(_: &BenchConfig, _: &Path, all: &[Measured]) {
    let ladder: Vec<(f64, &MethodResult)> = all
        .iter()
        .filter_map(|m| Some((m.n as f64, m.cells.first()?.result()?)))
        .collect();
    let row = |&(n, r): &(f64, &MethodResult)| {
        let (build, disk) = (ms(r.build_ms), fmt_bytes(r.index_disk_bytes as usize));
        let io = format!("{:.0}", r.avg_physical_reads);
        vec![
            n.to_string(),
            build,
            disk,
            ms(r.avg_query_ms),
            f3(r.map),
            io,
        ]
    };
    table::print(
        "§5.4.4: HD-Index scaling ladder (SIFT profile)",
        &["n", "build", "index", "query", "MAP@100", "IO/qry"],
        &[10, 12, 12, 12, 10, 10],
        &ladder.iter().map(row).collect::<Vec<_>>(),
    );
    if ladder.len() < 2 {
        return;
    }
    let ((first_n, first), (last_n, last)) = (ladder[0], ladder[ladder.len() - 1]);
    // Per-point slopes from the largest run (amortizing constants) and
    // growth ratios across the ladder.
    let n_ratio = last_n / first_n;
    let build_ratio = last.build_ms / first.build_ms;
    let query_ratio = last.avg_query_ms / first.avg_query_ms;
    println!("\nLinearity check over a {n_ratio:.0}x size ladder:");
    println!(
        "  build time grew {build_ratio:.1}x (O(n·ν) predicts {n_ratio:.0}x)  |  \
         query time grew {query_ratio:.2}x (cost model predicts ~log-factor growth)"
    );

    let proj_build_days = last.build_ms / last_n * 1e9 / 1000.0 / 86_400.0;
    let proj_bytes = last.index_disk_bytes as f64 / last_n * 1e9;
    println!("\nExtrapolation to n = 10⁹ (SIFT1B):");
    println!(
        "  projected build: {proj_build_days:.1} machine-days   \
         (paper measured ~10 days on a 2013 i7 + HDD)"
    );
    println!(
        "  projected index: {}            (paper measured ~1.2 TB)",
        fmt_bytes(proj_bytes as usize)
    );
    println!(
        "  query time: ~flat in n — paper measured 4.8 s/query dominated by HDD seeks;\n\
         \x20 our per-query page reads ({:.0}) × ~10 ms/seek on an HDD ≈ the same order.",
        last.avg_physical_reads
    );
}

/// Table 6 + §5.5 (Appendices D–E): end-to-end image search with Borda-count
/// aggregation, scoring every method by its top-k image overlap with the
/// linear-scan ground truth.
///
/// Paper shape: HD-Index, QALSH, OPQ and HNSW overlap most with the ground
/// truth; C2LSH retrieves poorly; SRS is moderate. Small per-descriptor
/// errors vanish in aggregation — high single-probe MAP translates directly
/// into correct image retrieval.
pub fn table6(cfg: &BenchConfig, scratch: &Path, _: &[Measured]) {
    let (n_images, descs, dim) = (((300.0 * cfg.scale) as usize).max(40), 16, 64);
    let corpus = ImageCorpus::generate(n_images, descs, dim, -1.0, 1.0, cfg.seed);
    let k_desc = 20; // per-descriptor neighbors fed into Borda
    let k_img = 3; // paper shows top-3 images
    let descriptors = &corpus.descriptors;
    let n = descriptors.len();
    println!("Corpus: {n_images} images × {descs} descriptors × {dim} dims = {n} descriptors");

    // Every method answers the same distorted query images; the ground
    // truth is exact per-descriptor search + Borda.
    let queries: Vec<_> = (0..20.min(n_images))
        .map(|img| (img, corpus.query_image(img, 0.05)))
        .collect();
    let search_all = |knn: &dyn Fn(&[f32], usize) -> Vec<Neighbor>| -> Vec<ImageSearchResult> {
        queries
            .iter()
            .map(|(_, q)| search_image(&corpus, q, k_desc, knn))
            .collect()
    };
    let gt = search_all(&|d, k| knn_exact(descriptors, d, k));
    let mut rows = Vec::new();
    let mut report = |name: &str, results: Vec<ImageSearchResult>| {
        let overlap = results
            .iter()
            .zip(&gt)
            .map(|(r, g)| r.overlap_at(g, k_img))
            .sum::<f64>();
        // How often the distorted query image retrieves its own source at 1.
        let self_hits = (results.iter().zip(&queries))
            .filter(|(r, (img, _))| r.top_k(1).first() == Some(&(*img as u32)))
            .count() as f64;
        let nq = results.len() as f64;
        rows.push(vec![name.into(), f3(overlap / nq), f3(self_hits / nq)]);
    };

    // Linear scan (ground truth against itself — sanity row).
    report("Linear", gt.clone());

    let params = HdIndexParams {
        tau: 8,
        hilbert_order: 16,
        domain: (-1.0, 1.0),
        ..HdIndexParams::for_profile(&DatasetProfile::SIFT)
    };
    let hd = HdIndex::build(descriptors, &params, scratch.join("hd")).expect("build HD-Index");
    let qp = QueryParams::triangular(1024.min(n), 256.min(n), k_desc);
    report(
        "HD-Index",
        search_all(&|d, k| hd.knn(d, &QueryParams { k, ..qp }).expect("valid query")),
    );

    let params = MulticurvesParams {
        tau: 8,
        hilbert_order: 16,
        domain: (-1.0, 1.0),
        alpha: 1024.min(n),
        cache_pages: 0,
    };
    let mc =
        Multicurves::build(descriptors, params, scratch.join("mc")).expect("build Multicurves");
    report(
        "Multicurves",
        search_all(&|d, k| mc.knn(d, k).expect("disk read")),
    );

    let c2 =
        C2lsh::build(descriptors, C2lshParams::default(), scratch.join("c2")).expect("build C2LSH");
    report(
        "C2LSH",
        search_all(&|d, k| c2.knn(d, k).expect("disk read")),
    );

    let params = QalshParams {
        max_m: 32,
        ..Default::default()
    };
    let qa = Qalsh::build(descriptors, params, scratch.join("qa")).expect("build QALSH");
    report(
        "QALSH",
        search_all(&|d, k| qa.knn(d, k).expect("disk read")),
    );

    let params = SrsParams {
        t: 0.05,
        ..Default::default()
    };
    let srs = Srs::build(descriptors, params, scratch.join("srs")).expect("build SRS");
    report("SRS", search_all(&|d, k| srs.knn(d, k).expect("disk read")));

    let pq = PqParams {
        m_subspaces: 8,
        k_sub: 64.min(n),
        train_size: n,
        kmeans_iters: 8,
        seed: cfg.seed,
    };
    let opq = Opq::build(
        descriptors,
        OpqParams {
            pq,
            opt_iters: 4,
            opt_sample: 800.min(n),
        },
    );
    report(
        "OPQ",
        search_all(&|d, k| opq.knn_rerank(descriptors, d, k, 10)),
    );

    let hnsw = Hnsw::build(descriptors, HnswParams::default());
    report("HNSW", search_all(&|d, k| hnsw.knn(d, k)));

    table::print(
        "Table 6 / §5.5: Borda-count image search vs linear-scan ground truth",
        &["method", "overlap@3", "self-hit@1"],
        &[12, 12, 12],
        &rows,
    );
    println!("\nPaper shape: HD-Index/QALSH/OPQ/HNSW overlap most with the ground truth;");
    println!("C2LSH poorest; SRS moderate (Table 6 shows the same visual ranking).");
}
