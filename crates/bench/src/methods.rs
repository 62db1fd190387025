//! The method registry and the single generic runner behind every
//! comparative experiment: build an index behind `Box<dyn AnnIndex>`,
//! answer a query workload, score it against exact ground truth, and
//! account time / disk / memory / IO the way §5 reports them.
//!
//! Adding a method to every comparative figure is one [`MethodSpec`] entry;
//! selecting methods on the command line (`--methods hd-index,pq`) works on
//! every comparative experiment for free.

use hd_baselines::hnsw::{Hnsw, HnswParams};
use hd_baselines::idistance::{IDistance, IDistanceParams};
use hd_baselines::kdtree::KdTree;
use hd_baselines::linear::{DiskLinearScan, LinearScan};
use hd_baselines::lsh::c2lsh::{C2lsh, C2lshParams};
use hd_baselines::lsh::e2lsh::{E2lsh, E2lshParams};
use hd_baselines::lsh::qalsh::{Qalsh, QalshParams};
use hd_baselines::lsh::srs::{Srs, SrsParams};
use hd_baselines::multicurves::{Multicurves, MulticurvesParams};
use hd_baselines::quantization::{Opq, OpqParams, OpqRerank, Pq, PqParams, PqRerank};
use hd_baselines::vafile::{VaFile, VaFileParams};
use hd_core::api::{AnnIndex, SearchRequest};
use hd_core::dataset::{generate, Dataset, DatasetProfile};
use hd_core::ground_truth::ground_truth_knn;
use hd_core::metric::Metric;
use hd_core::metrics::score_workload;
use hd_core::topk::Neighbor;
use hd_engine::{Engine, EngineParams};
use hd_index::{BuildOpts, HdIndex, HdIndexParams};
use std::io;
use std::path::Path;
use std::time::Instant;

/// A named dataset + query set drawn from one of the paper's profiles,
/// searched under one [`Metric`] (recorded on the dataset; cosine workloads
/// are unit-normalized at creation).
pub struct Workload {
    pub name: String,
    pub profile: DatasetProfile,
    pub data: Dataset,
    pub queries: Dataset,
    pub metric: Metric,
}

impl Workload {
    pub fn new(
        name: impl Into<String>,
        profile: DatasetProfile,
        n: usize,
        nq: usize,
        seed: u64,
    ) -> Self {
        Self::with_metric(name, profile, n, nq, seed, Metric::L2)
    }

    /// [`Self::new`] under an explicit metric. The same seed generates the
    /// same raw vectors for every metric; only the build-time preparation
    /// (cosine normalization) differs.
    pub fn with_metric(
        name: impl Into<String>,
        profile: DatasetProfile,
        n: usize,
        nq: usize,
        seed: u64,
        metric: Metric,
    ) -> Self {
        let (data, queries) = generate(&profile, n, nq, seed);
        Self {
            name: name.into(),
            profile,
            data: data.with_metric(metric),
            queries,
            metric,
        }
    }

    /// Exact ground truth at depth `k` (multi-threaded scan) in the
    /// workload metric.
    pub fn truth(&self, k: usize) -> Vec<Vec<Neighbor>> {
        let threads = std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4);
        ground_truth_knn(&self.data, &self.queries, k, threads)
    }
}

/// Uniform per-method measurements (§5's evaluation dimensions).
#[derive(Debug, Clone)]
pub struct MethodResult {
    pub method: &'static str,
    pub map: f64,
    pub ratio: f64,
    pub recall: f64,
    pub build_ms: f64,
    pub avg_query_ms: f64,
    pub index_disk_bytes: u64,
    /// Query-time resident memory of the index structure.
    pub query_mem_bytes: usize,
    /// Structural estimate of peak construction memory.
    pub build_mem_bytes: usize,
    pub avg_physical_reads: f64,
}

/// Either a result or the paper's CR/NP outcome with a reason.
pub enum MethodOutcome {
    Done(MethodResult),
    NotPossible(&'static str, String),
}

impl MethodOutcome {
    pub fn result(&self) -> Option<&MethodResult> {
        match self {
            MethodOutcome::Done(r) => Some(r),
            MethodOutcome::NotPossible(..) => None,
        }
    }
}

/// Where a registry entry appears in the default comparative lineup
/// (Fig. 1/7/8/9, Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LineupRole {
    /// Always part of the lineup.
    Core,
    /// Included only when the caller asks for the (slow) exact reference.
    ExactReference,
    /// Registered — buildable, conformance-tested, selectable with
    /// `--methods` — but not in the default lineup.
    None,
}

/// Builds a boxed index over a workload. The HRTB lifetime lets in-memory
/// adapters (linear scan, PQ/OPQ rerank) borrow the workload's dataset
/// instead of cloning multi-megabyte corpora.
pub type BuildFn = for<'a> fn(&'a Workload, &'a Path) -> io::Result<Box<dyn AnnIndex + 'a>>;

/// Metric families a registry entry can declare. The brute-force and graph
/// methods take anything; tree/reference methods need metric-space axioms;
/// the rest are structurally L2-bound (ADC tables, VA bounds, Euclidean
/// LSH, radius arithmetic).
const ALL_METRICS: &[Metric] = &Metric::ALL;
const METRIC_SPACES: &[Metric] = &[Metric::L2, Metric::L1, Metric::Cosine];
const L2_ONLY: &[Metric] = &[Metric::L2];

/// One registered method: a CLI-friendly name, the paper's display label,
/// and a builder producing the method behind the unified trait.
#[derive(Debug)]
pub struct MethodSpec {
    /// Registry key (`--methods` selector), kebab-case.
    pub name: &'static str,
    /// Display label matching the paper's tables.
    pub label: &'static str,
    /// Whether the method is exact (recall 1.0 by construction) — used by
    /// the conformance suite and the Fig. 1 exactness reference.
    pub exact: bool,
    pub lineup: LineupRole,
    /// The metrics this method can serve. [`build`] refuses unsupported
    /// combinations with a CR/NP outcome, and the builders refuse them too
    /// (the registry declaration is the *announcement*, the builder guard
    /// the enforcement).
    pub supported_metrics: &'static [Metric],
    pub build: BuildFn,
}

impl MethodSpec {
    /// Whether this method can serve `metric`.
    pub fn supports(&self, metric: Metric) -> bool {
        self.supported_metrics.contains(&metric)
    }
}

/// Every method in the workspace, in default-lineup order (the paper's
/// Fig. 8 ordering), followed by the registered-only methods.
pub fn registry() -> &'static [MethodSpec] {
    static REGISTRY: &[MethodSpec] = &[
        MethodSpec {
            name: "hd-index",
            label: "HD-Index",
            exact: false,
            lineup: LineupRole::Core,
            supported_metrics: METRIC_SPACES,
            build: build_hd_index,
        },
        MethodSpec {
            name: "idistance",
            label: "iDistance",
            exact: true,
            lineup: LineupRole::ExactReference,
            supported_metrics: L2_ONLY,
            build: build_idistance,
        },
        MethodSpec {
            name: "multicurves",
            label: "Multicurves",
            exact: false,
            lineup: LineupRole::Core,
            supported_metrics: METRIC_SPACES,
            build: build_multicurves,
        },
        MethodSpec {
            name: "c2lsh",
            label: "C2LSH",
            exact: false,
            lineup: LineupRole::Core,
            supported_metrics: L2_ONLY,
            build: build_c2lsh,
        },
        MethodSpec {
            name: "qalsh",
            label: "QALSH",
            exact: false,
            lineup: LineupRole::Core,
            supported_metrics: L2_ONLY,
            build: build_qalsh,
        },
        MethodSpec {
            name: "srs",
            label: "SRS",
            exact: false,
            lineup: LineupRole::Core,
            supported_metrics: L2_ONLY,
            build: build_srs,
        },
        MethodSpec {
            name: "opq",
            label: "OPQ",
            exact: false,
            lineup: LineupRole::Core,
            supported_metrics: L2_ONLY,
            build: build_opq,
        },
        MethodSpec {
            name: "hnsw",
            label: "HNSW",
            exact: false,
            lineup: LineupRole::Core,
            supported_metrics: ALL_METRICS,
            build: build_hnsw,
        },
        MethodSpec {
            name: "pq",
            label: "PQ",
            exact: false,
            lineup: LineupRole::None,
            supported_metrics: L2_ONLY,
            build: build_pq,
        },
        MethodSpec {
            name: "e2lsh",
            label: "E2LSH",
            exact: false,
            lineup: LineupRole::None,
            supported_metrics: L2_ONLY,
            build: build_e2lsh,
        },
        MethodSpec {
            name: "vafile",
            label: "VA-file",
            exact: true,
            lineup: LineupRole::None,
            supported_metrics: L2_ONLY,
            build: build_vafile,
        },
        MethodSpec {
            name: "linear-scan",
            label: "LinearScan",
            exact: true,
            lineup: LineupRole::None,
            supported_metrics: ALL_METRICS,
            build: build_linear_scan,
        },
        MethodSpec {
            name: "disk-linear-scan",
            label: "DiskScan",
            exact: true,
            lineup: LineupRole::None,
            supported_metrics: ALL_METRICS,
            build: build_disk_linear_scan,
        },
        MethodSpec {
            name: "kdtree",
            label: "kd-tree",
            exact: true,
            lineup: LineupRole::None,
            supported_metrics: METRIC_SPACES,
            build: build_kdtree,
        },
        MethodSpec {
            name: "hd-index-codes",
            label: "HD-Idx+codes",
            exact: false,
            lineup: LineupRole::None,
            supported_metrics: METRIC_SPACES,
            build: build_hd_index_codes,
        },
        MethodSpec {
            name: "engine",
            label: "Engine",
            exact: false,
            lineup: LineupRole::None,
            supported_metrics: METRIC_SPACES,
            build: build_engine,
        },
    ];
    REGISTRY
}

/// Looks up a registry entry by its CLI name.
pub fn spec(name: &str) -> Option<&'static MethodSpec> {
    registry().iter().find(|s| s.name == name)
}

// ---------------------------------------------------------------------------
// Registered builders. Parameters follow §5 "Parameters" per profile; every
// count is clamped against the corpus so the registry stays buildable at any
// `--scale` (including the n = 1 conformance corner).
// ---------------------------------------------------------------------------

fn build_hd_index<'a>(w: &'a Workload, dir: &'a Path) -> io::Result<Box<dyn AnnIndex + 'a>> {
    build_hd_index_with(w, dir, false)
}

/// HD-Index with in-memory refine codes: the same answers as `hd-index`,
/// with refinement fetching only the candidates whose cell bound can still
/// enter the top-k, for `n·d` more bytes of RAM.
fn build_hd_index_codes<'a>(w: &'a Workload, dir: &'a Path) -> io::Result<Box<dyn AnnIndex + 'a>> {
    build_hd_index_with(w, dir, true)
}

fn build_hd_index_with<'a>(
    w: &'a Workload,
    dir: &'a Path,
    refine_codes: bool,
) -> io::Result<Box<dyn AnnIndex + 'a>> {
    let mut params = HdIndexParams::for_profile(&w.profile);
    params.num_references = params.num_references.min(w.data.len());
    // No domain fixup needed for cosine: the builder derives the unit-ball
    // domain from the dataset metric itself.
    let opts = BuildOpts {
        refine_codes,
        ..BuildOpts::default()
    };
    let index = HdIndex::build_with(&w.data, &params, dir, opts)?;
    // Serve defaults are the paper's recommended α = 4096, γ = 1024
    // triangular pipeline (clamped to n per query by the trait adapter).
    Ok(Box::new(index))
}

fn build_engine<'a>(w: &'a Workload, dir: &'a Path) -> io::Result<Box<dyn AnnIndex + 'a>> {
    let mut index = HdIndexParams::for_profile(&w.profile);
    index.num_references = index.num_references.min(w.data.len());
    let params = EngineParams {
        shards: 2.min(w.data.len()).max(1),
        ..EngineParams::new(index)
    };
    Ok(Box::new(Engine::build(&w.data, &params, dir)?))
}

fn build_idistance<'a>(w: &'a Workload, dir: &'a Path) -> io::Result<Box<dyn AnnIndex + 'a>> {
    let params = IDistanceParams {
        partitions: 64.min(w.data.len() / 10).max(1),
        ..Default::default()
    };
    Ok(Box::new(IDistance::build(&w.data, params, dir)?))
}

fn build_multicurves<'a>(w: &'a Workload, dir: &'a Path) -> io::Result<Box<dyn AnnIndex + 'a>> {
    let params = MulticurvesParams {
        tau: 8.min(w.data.dim()),
        hilbert_order: w.profile.hilbert_order,
        domain: (w.profile.lo, w.profile.hi),
        alpha: 4096.min(w.data.len()),
        cache_pages: 0,
    };
    Ok(Box::new(Multicurves::build(&w.data, params, dir)?))
}

fn build_c2lsh<'a>(w: &'a Workload, dir: &'a Path) -> io::Result<Box<dyn AnnIndex + 'a>> {
    Ok(Box::new(C2lsh::build(
        &w.data,
        C2lshParams::default(),
        dir,
    )?))
}

fn build_qalsh<'a>(w: &'a Workload, dir: &'a Path) -> io::Result<Box<dyn AnnIndex + 'a>> {
    Ok(Box::new(Qalsh::build(
        &w.data,
        QalshParams::default(),
        dir,
    )?))
}

fn build_srs<'a>(w: &'a Workload, dir: &'a Path) -> io::Result<Box<dyn AnnIndex + 'a>> {
    // The paper's t = 0.00242 assumes n ≥ 1M; floor the budget so small
    // workloads examine at least a few hundred points.
    let params = SrsParams {
        t: (0.00242f64).max(500.0 / w.data.len() as f64),
        ..Default::default()
    };
    Ok(Box::new(Srs::build(&w.data, params, dir)?))
}

fn build_e2lsh<'a>(w: &'a Workload, dir: &'a Path) -> io::Result<Box<dyn AnnIndex + 'a>> {
    Ok(Box::new(E2lsh::build(
        &w.data,
        E2lshParams::default(),
        dir,
    )?))
}

fn build_vafile<'a>(w: &'a Workload, dir: &'a Path) -> io::Result<Box<dyn AnnIndex + 'a>> {
    let params = VaFileParams {
        bits: 8,
        domain: (w.profile.lo, w.profile.hi),
        cache_pages: 0,
    };
    Ok(Box::new(VaFile::build(&w.data, params, dir)?))
}

fn pq_params(w: &Workload) -> PqParams {
    PqParams {
        m_subspaces: 8.min(w.data.dim()),
        k_sub: 256.min(w.data.len()),
        train_size: 10_000,
        kmeans_iters: 10,
        seed: 11,
    }
}

fn build_pq<'a>(w: &'a Workload, _dir: &'a Path) -> io::Result<Box<dyn AnnIndex + 'a>> {
    hd_baselines::require_l2(
        &w.data,
        "PQ",
        "its ADC distance tables accumulate squared-L2 terms",
    )?;
    let pq = Pq::build(&w.data, pq_params(w));
    Ok(Box::new(PqRerank { pq, data: &w.data }))
}

fn build_opq<'a>(w: &'a Workload, _dir: &'a Path) -> io::Result<Box<dyn AnnIndex + 'a>> {
    // Rotation learning solves a ν×ν Procrustes per iteration (O(ν³) Jacobi
    // SVD); beyond ~300 dims that dominates everything else, so the harness
    // falls back to the identity rotation (plain PQ codebooks) there — the
    // same quality envelope the paper's OPQ shows on SUN/Enron.
    hd_baselines::require_l2(
        &w.data,
        "OPQ",
        "its rotation objective and ADC tables are squared-L2",
    )?;
    let opt_iters = if w.data.dim() > 300 { 0 } else { 6 };
    let params = OpqParams {
        pq: pq_params(w),
        opt_iters,
        opt_sample: 1500.min(w.data.len()),
    };
    let opq = Opq::build(&w.data, params);
    Ok(Box::new(OpqRerank { opq, data: &w.data }))
}

fn build_hnsw<'a>(w: &'a Workload, _dir: &'a Path) -> io::Result<Box<dyn AnnIndex + 'a>> {
    // Default ef_search = 96; the trait adapter floors the effective ef at
    // 2k per query — together the paper's (2k).max(96) operating point.
    Ok(Box::new(Hnsw::build(&w.data, HnswParams::default())))
}

fn build_linear_scan<'a>(w: &'a Workload, _dir: &'a Path) -> io::Result<Box<dyn AnnIndex + 'a>> {
    Ok(Box::new(LinearScan::new(&w.data)))
}

fn build_disk_linear_scan<'a>(
    w: &'a Workload,
    dir: &'a Path,
) -> io::Result<Box<dyn AnnIndex + 'a>> {
    std::fs::create_dir_all(dir)?;
    // One cache page: a sequential scan then reads each page exactly once.
    Ok(Box::new(DiskLinearScan::build(
        &w.data,
        dir.join("scan.heap"),
        1,
    )?))
}

fn build_kdtree<'a>(w: &'a Workload, _dir: &'a Path) -> io::Result<Box<dyn AnnIndex + 'a>> {
    Ok(Box::new(KdTree::build(&w.data)))
}

/// Builds `spec` over the workload, or returns the CR/NP reason: an
/// unsupported metric or a failed build.
pub fn build<'a>(
    spec: &MethodSpec,
    w: &'a Workload,
    dir: &'a Path,
) -> Result<Box<dyn AnnIndex + 'a>, String> {
    if !spec.supports(w.metric) {
        let names: Vec<&str> = spec.supported_metrics.iter().map(|m| m.name()).collect();
        return Err(format!(
            "metric {} unsupported (serves: {})",
            w.metric,
            names.join(", ")
        ));
    }
    (spec.build)(w, dir).map_err(|e| e.to_string())
}

/// **The** measurement every experiment runs: answers the workload through
/// the unified trait, scores it, and reads the uniform accounting.
pub fn run_built(
    label: &'static str,
    w: &Workload,
    k: usize,
    truth: &[Vec<Neighbor>],
    index: &dyn AnnIndex,
    build_ms: f64,
) -> MethodOutcome {
    let req = SearchRequest::new(k);
    index.reset_io_stats();
    let t0 = Instant::now();
    let mut approx: Vec<Vec<Neighbor>> = Vec::with_capacity(w.queries.len());
    for q in w.queries.iter() {
        match index.search(q, &req) {
            Ok(out) => approx.push(out.neighbors),
            Err(e) => return MethodOutcome::NotPossible(label, e.to_string()),
        }
    }
    let query_ms = t0.elapsed().as_secs_f64() * 1000.0;
    let stats = index.stats();

    let s = score_workload(truth, &approx);
    let nq = truth.len().max(1) as f64;
    MethodOutcome::Done(MethodResult {
        method: label,
        map: s.map,
        ratio: s.ratio,
        recall: s.recall,
        build_ms,
        avg_query_ms: query_ms / nq,
        index_disk_bytes: stats.disk_bytes,
        query_mem_bytes: stats.memory_bytes,
        build_mem_bytes: stats.build_memory_bytes,
        avg_physical_reads: stats.io.physical_reads as f64 / nq,
    })
}

/// The default lineup names of the Fig. 8 comparative study.
/// `include_exact` adds iDistance (slow; it is only the exactness
/// reference).
pub fn lineup_names(include_exact: bool) -> Vec<&'static str> {
    registry()
        .iter()
        .filter(|s| match s.lineup {
            LineupRole::Core => true,
            LineupRole::ExactReference => include_exact,
            LineupRole::None => false,
        })
        .map(|s| s.name)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::{self, measure, Build, Cell, Ctx, Data, Query};
    use crate::BenchConfig;
    use hd_index::QueryParams;

    #[test]
    fn registry_names_are_unique_and_resolvable() {
        let mut seen = std::collections::HashSet::new();
        for s in registry() {
            assert!(seen.insert(s.name), "duplicate registry name {}", s.name);
            assert!(spec(s.name).is_some());
        }
        assert!(spec("no-such-method").is_none());
    }

    #[test]
    fn lineup_matches_fig8_ordering() {
        assert_eq!(
            lineup_names(true),
            vec![
                "hd-index",
                "idistance",
                "multicurves",
                "c2lsh",
                "qalsh",
                "srs",
                "opq",
                "hnsw"
            ]
        );
        assert_eq!(lineup_names(false).len(), 7);
        assert!(!lineup_names(false).contains(&"idistance"));
    }

    #[test]
    fn generic_runner_produces_sane_numbers_for_hd_index() {
        let w = Workload::new("t", DatasetProfile::SIFT, 1500, 10, 1);
        let truth = w.truth(10);
        let dir = std::env::temp_dir().join(format!("hd_bench_m_{}", std::process::id()));
        let registry_dir = dir.join("registry");
        let index = build(spec("hd-index").unwrap(), &w, &registry_dir).unwrap();
        match run_built("HD-Index", &w, 10, &truth, index.as_ref(), 0.0) {
            MethodOutcome::Done(r) => {
                assert_eq!(r.method, "HD-Index");
                assert!(r.map > 0.3, "MAP {}", r.map);
                assert!(r.ratio >= 1.0);
                assert!(r.avg_query_ms > 0.0);
                assert!(r.index_disk_bytes > 0);
                assert!(r.avg_physical_reads > 0.0);
            }
            MethodOutcome::NotPossible(_, e) => panic!("should run: {e}"),
        }

        // Build once, query twice: one HD-Index serving a triangular and a
        // Ptolemaic variant must measure exactly like a fresh build per
        // variant.
        let params = HdIndexParams::for_profile(&w.profile);
        let queries = [
            Query::hd(QueryParams::triangular(512, 128, 10), vec![]),
            Query::hd(QueryParams::ptolemaic(1024, 512, 64, 10), vec![]),
        ];
        let numbers = |c: &Cell| {
            let r = c.result().expect("HD-Index runs");
            (
                r.map,
                r.ratio,
                r.recall,
                r.index_disk_bytes,
                r.avg_physical_reads,
            )
        };
        let shared = measure(
            &w,
            &[Build::hd(vec![], params.clone())],
            &queries,
            &dir.join("shared"),
        );
        assert_ne!(
            numbers(&shared[0]).4,
            numbers(&shared[1]).4,
            "the variants must differ"
        );
        for (i, cell) in shared.iter().enumerate() {
            let q = std::slice::from_ref(&queries[i]);
            let fresh = measure(
                &w,
                &[Build::hd(vec![], params.clone())],
                q,
                &dir.join(format!("fresh{i}")),
            );
            assert_eq!(numbers(cell), numbers(&fresh[0]), "variant {i}");
        }
        std::fs::remove_dir_all(dir).ok();
    }

    /// The measured cells of `experiment`'s grid on a workload.
    fn grid_cells(experiment: &str, cfg: &BenchConfig, w: &Workload, exact: bool) -> Vec<Cell> {
        let e = paper::experiment(experiment).unwrap();
        let data = Data {
            exact,
            ..paper::SIFT10K
        };
        let c = Ctx {
            cfg,
            data: &data,
            w,
        };
        let dir =
            std::env::temp_dir().join(format!("hd_bench_{experiment}_{}", std::process::id()));
        let cells = measure(w, &(e.builds)(&c), &(e.queries)(&c), &dir);
        std::fs::remove_dir_all(dir).ok();
        cells
    }

    #[test]
    fn lineup_produces_all_methods() {
        let w = Workload::new("t", DatasetProfile::SIFT, 800, 5, 2);
        let out = grid_cells("fig7", &BenchConfig::default(), &w, false);
        assert_eq!(out.len(), 7);
        for o in &out {
            if let Some(r) = o.result() {
                assert!(r.map >= 0.0 && r.map <= 1.0, "{}: map {}", r.method, r.map);
            }
        }
    }

    #[test]
    fn methods_filter_selects_by_name() {
        let w = Workload::new("t", DatasetProfile::SIFT, 400, 3, 3);
        let args = ["--methods", "linear-scan,pq"].map(String::from);
        let (cfg, _) = BenchConfig::parse(&args, &[]).unwrap();
        let out = grid_cells("fig8", &cfg, &w, true);
        let labels: Vec<&str> = out
            .iter()
            .filter_map(|o| o.result())
            .map(|r| r.method)
            .collect();
        assert_eq!(labels, vec!["LinearScan", "PQ"]);
    }
}
