//! The paper's evaluation (§5) as one table of experiments, run by
//! `paper <id>`. Each [`Experiment`] lists its datasets, build variants,
//! query variants and columns; [`run`] owns the scratch directory, the
//! `--telemetry` report and the row formatting, and builds each (dataset,
//! build variant) once for every query variant. Six entries name a function
//! of their own in [`crate::bespoke`].

use crate::bespoke;
use crate::config::BenchConfig;
use crate::methods::{self, lineup_names, MethodOutcome, MethodResult, MethodSpec, Workload};
use crate::{table, telemetry_report};
use hd_core::api::AnnIndex;
use hd_core::dataset::DatasetProfile;
use hd_core::metric::Metric;
use hd_core::util::fmt_bytes;
use hd_index::{HdIndex, HdIndexParams, QueryParams, RefSelection};
use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;
use Show::*;

/// One of the paper's datasets (Table 4) at its base size, before `--scale`.
#[derive(Debug, Clone, Copy)]
pub struct Data {
    pub name: &'static str,
    pub profile: DatasetProfile,
    pub n: usize,
    /// Query-set size before `--scale` / `--queries`.
    pub nq: usize,
    /// Whether comparative runs include the exact (slow) iDistance reference.
    pub exact: bool,
}

impl Data {
    /// The same dataset with another base query count.
    const fn queries(self, nq: usize) -> Self {
        Self { nq, ..self }
    }

    /// The same profile at another base size.
    const fn sized(self, n: usize) -> Self {
        Self { n, ..self }
    }
}

const fn data(name: &'static str, p: DatasetProfile, n: usize, nq: usize, exact: bool) -> Data {
    Data {
        name,
        profile: p,
        n,
        nq,
        exact,
    }
}

pub const SIFT10K: Data = data("SIFT10K", DatasetProfile::SIFT, 10_000, 100, true);
pub const AUDIO: Data = data("Audio", DatasetProfile::AUDIO, 20_000, 100, true);
pub const SUN: Data = data("SUN", DatasetProfile::SUN, 8_000, 50, true);
pub const SIFT100K: Data = data("SIFT100K", DatasetProfile::SIFT, 100_000, 50, false);
pub const YORCK: Data = data("Yorck", DatasetProfile::YORCK, 50_000, 50, false);
pub const ENRON: Data = data("Enron", DatasetProfile::ENRON, 5_000, 20, false);
pub const GLOVE: Data = data("Glove", DatasetProfile::GLOVE, 50_000, 50, false);

/// What a build variant builds.
pub enum Index {
    /// A registry method, serving its own default parameters.
    Method(&'static MethodSpec),
    /// An HD-Index with these construction parameters.
    Hd(HdIndexParams),
    /// Nothing: the variant does not apply to the dataset, and its label
    /// says why.
    Skip,
}

/// One build variant: the cells it labels its rows with, and what it builds.
pub struct Build {
    pub label: Vec<String>,
    pub index: Index,
}

impl Build {
    pub fn hd(label: Vec<String>, params: HdIndexParams) -> Self {
        Self {
            label,
            index: Index::Hd(params),
        }
    }

    /// The method label of its rows (and of its CR/NP outcome).
    fn name(&self) -> &'static str {
        match self.index {
            Index::Method(spec) => spec.label,
            _ => "HD-Index",
        }
    }
}

/// One query variant, run against every build of the dataset.
pub struct Query {
    /// Which of the entry's panels (table headers) its rows go under.
    pub panel: usize,
    pub k: usize,
    /// What HD-Index variants serve: filter kind and α/β/γ (`None` serves
    /// the defaults). Registry methods always serve their own defaults.
    pub params: Option<QueryParams>,
    pub label: Vec<String>,
}

impl Query {
    /// Every method's default serve parameters at depth `k`.
    pub fn k(k: usize) -> Self {
        Self {
            panel: 0,
            k,
            params: None,
            label: vec![],
        }
    }

    /// HD-Index serve parameters `qp`, at depth `qp.k`.
    pub fn hd(qp: QueryParams, label: Vec<String>) -> Self {
        Self {
            panel: 0,
            k: qp.k,
            params: Some(qp),
            label,
        }
    }
}

/// One measured (build, query) pair.
pub struct Cell {
    pub panel: usize,
    /// The build's label cells, then the query's.
    pub label: Vec<String>,
    /// `None` when the build variant does not apply.
    pub outcome: Option<MethodOutcome>,
}

impl Cell {
    pub fn result(&self) -> Option<&MethodResult> {
        self.outcome.as_ref().and_then(MethodOutcome::result)
    }
}

/// Everything measured on one dataset, in row order.
pub struct Measured {
    pub data: &'static Data,
    pub metric: Metric,
    /// Sizes after `--scale` / `--queries`.
    pub n: usize,
    pub dim: usize,
    pub nq: usize,
    pub cells: Vec<Cell>,
}

/// What an entry derives its variants from.
pub struct Ctx<'a> {
    pub cfg: &'a BenchConfig,
    pub data: &'a Data,
    pub w: &'a Workload,
}

/// What a column shows: the dataset, the next label cell, or a measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Show {
    Dataset,
    Label,
    Map,
    Ratio,
    Recall,
    /// Mean query time.
    Time,
    /// Index size on disk, "(mem)" for in-memory methods.
    Disk,
    BuildRam,
    QueryRam,
    /// Physical page reads per query.
    Io,
}

/// One table header, printed per dataset: its title, where `{name}`, `{n}`
/// and `{dim}` stand for the dataset's, and its columns' headers, widths
/// and contents.
pub struct Panel {
    pub title: &'static str,
    pub heads: &'static [&'static str],
    pub widths: &'static [usize],
    pub cols: &'static [Show],
}

pub struct Experiment {
    pub id: &'static str,
    pub datasets: &'static [Data],
    /// Cap on the query-set size after `--scale` / `--queries`.
    pub max_queries: usize,
    pub builds: fn(&Ctx) -> Vec<Build>,
    pub queries: fn(&Ctx) -> Vec<Query>,
    /// Table headers, indexed by [`Query::panel`].
    pub panels: &'static [Panel],
    /// Printed before each dataset's tables.
    pub intro: fn(&Measured),
    /// Printed after the last table.
    pub outro: &'static str,
    /// The entry's own function, in place of the rows: handed the config,
    /// the scratch directory and every measured dataset after the last one.
    pub bespoke: Option<fn(&BenchConfig, &Path, &[Measured])>,
}

/// What an entry does not say otherwise: the comparative lineup at k = 100.
const BASE: Experiment = Experiment {
    id: "",
    datasets: &[],
    max_queries: 100,
    builds: lineup,
    queries: |_| vec![Query::k(100)],
    panels: &[],
    intro: |_| {},
    outro: "",
    bespoke: None,
};

pub fn experiment(id: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.id == id)
}

/// Runs one experiment end to end.
pub fn run(e: &Experiment, cfg: &BenchConfig) {
    telemetry_report::init(cfg);
    let scratch = cfg.scratch(e.id);
    let measured = e.datasets.iter().enumerate().map(|(i, data)| {
        let (n, nq) = (cfg.n(data.n), cfg.nq(data.nq).min(e.max_queries));
        let w = Workload::with_metric(data.name, data.profile, n, nq, cfg.seed, cfg.metric);
        let c = Ctx { cfg, data, w: &w };
        let dir = scratch.join(format!("{i}_{}", data.name));
        let cells = measure(&w, &(e.builds)(&c), &(e.queries)(&c), &dir);
        let (n, dim, nq) = (w.data.len(), w.data.dim(), w.queries.len());
        Measured {
            data,
            metric: w.metric,
            n,
            dim,
            nq,
            cells,
        }
    });
    match e.bespoke {
        Some(bespoke) => bespoke(cfg, &scratch, &measured.collect::<Vec<_>>()),
        None => {
            for m in measured {
                (e.intro)(&m);
                // One table per run of cells in the same panel.
                for cells in m.cells.chunk_by(|a, b| a.panel == b.panel) {
                    let p = &e.panels[cells[0].panel];
                    let title = (p.title)
                        .replace("{name}", &row_name(&m))
                        .replace("{n}", &m.n.to_string())
                        .replace("{dim}", &m.dim.to_string());
                    let rows: Vec<Vec<String>> = cells.iter().map(|c| row(&m, p.cols, c)).collect();
                    table::print(&title, p.heads, p.widths, &rows);
                }
            }
            println!("\n{}", e.outro);
        }
    }
    std::fs::remove_dir_all(&scratch).ok();
    telemetry_report::report(cfg);
}

/// One row's cells. A CR/NP cell shows "NP" in its first measured column,
/// its reason (cut to 24 characters) in the last one and "—" between; a
/// variant that does not apply shows only its label, which says why.
fn row(m: &Measured, cols: &[Show], c: &Cell) -> Vec<String> {
    let mut labels = c.label.iter().cloned();
    let first = cols.iter().position(|col| !matches!(col, Dataset | Label));
    let mut cell = |(i, &show): (usize, &Show)| match (show, &c.outcome) {
        (Dataset, _) => row_name(m),
        (Label, _) | (_, None) => labels.next().unwrap_or_default(),
        (_, Some(MethodOutcome::Done(r))) => value(show, r),
        (_, Some(MethodOutcome::NotPossible(..))) if Some(i) == first => "NP".into(),
        (_, Some(MethodOutcome::NotPossible(_, why))) if i + 1 == cols.len() => {
            why.chars().take(24).collect()
        }
        _ => "—".into(),
    };
    cols.iter().enumerate().map(&mut cell).collect()
}

fn value(show: Show, r: &MethodResult) -> String {
    match show {
        Map => table::f3(r.map),
        Ratio => table::f3(r.ratio),
        Recall => table::f3(r.recall),
        Time => table::ms(r.avg_query_ms),
        Disk if r.index_disk_bytes == 0 => "(mem)".into(),
        Disk => fmt_bytes(r.index_disk_bytes as usize),
        BuildRam => fmt_bytes(r.build_mem_bytes),
        QueryRam => fmt_bytes(r.query_mem_bytes),
        Io => format!("{:.0}", r.avg_physical_reads),
        Dataset | Label => unreachable!("not a measurement"),
    }
}

/// The dataset column: labelled with the metric on non-L2 runs, so the L2
/// output keeps the historical names.
fn row_name(m: &Measured) -> String {
    if m.metric == Metric::L2 {
        m.data.name.to_string()
    } else {
        format!("{}/{}", m.data.name, m.metric)
    }
}

/// Measures every (build, query) pair on one workload, building each
/// variant once: a build answers every query variant, then it is dropped
/// and its files under `dir` removed. Cells come back query-major (every
/// build under the first query variant first), the row order of every
/// table.
pub fn measure(w: &Workload, builds: &[Build], queries: &[Query], dir: &Path) -> Vec<Cell> {
    let mut truths = BTreeMap::new();
    for q in queries {
        truths.entry(q.k).or_insert_with(|| w.truth(q.k));
    }
    let mut cells = Vec::with_capacity(builds.len() * queries.len());
    for (i, b) in builds.iter().enumerate() {
        let bdir = dir.join(i.to_string());
        let t0 = Instant::now();
        let mut built = build(b, w, &bdir);
        let build_ms = t0.elapsed().as_secs_f64() * 1000.0;
        for (qi, q) in queries.iter().enumerate() {
            let outcome = match &mut built {
                Ok(None) => None,
                Err(why) => Some(MethodOutcome::NotPossible(b.name(), why.clone())),
                Ok(Some(index)) => {
                    let index: &dyn AnnIndex = match index {
                        Built::Method(index) => &**index,
                        Built::Hd(index) => {
                            let params = q.params.unwrap_or_default();
                            index.set_serve_params(QueryParams { k: q.k, ..params });
                            &**index
                        }
                    };
                    let truth = &truths[&q.k];
                    Some(methods::run_built(b.name(), w, q.k, truth, index, build_ms))
                }
            };
            let label = [&b.label[..], &q.label[..]].concat();
            cells.push((
                qi,
                Cell {
                    panel: q.panel,
                    label,
                    outcome,
                },
            ));
        }
        drop(built);
        std::fs::remove_dir_all(&bdir).ok();
    }
    // Stable, so builds keep their order under each query variant.
    cells.sort_by_key(|&(qi, _)| qi);
    cells.into_iter().map(|(_, cell)| cell).collect()
}

enum Built<'a> {
    Method(Box<dyn AnnIndex + 'a>),
    Hd(Box<HdIndex>),
}

/// Builds one variant: `None` for a skipped variant, `Err` with the CR/NP
/// reason.
fn build<'a>(b: &Build, w: &'a Workload, dir: &'a Path) -> Result<Option<Built<'a>>, String> {
    Ok(Some(match &b.index {
        Index::Method(spec) => Built::Method(methods::build(spec, w, dir)?),
        Index::Hd(params) => Built::Hd(Box::new(
            HdIndex::build(&w.data, params, dir).map_err(|e| e.to_string())?,
        )),
        Index::Skip => return Ok(None),
    }))
}

/// The registry methods of a comparative entry: `--methods` if given, else
/// `default`.
fn methods(c: &Ctx, default: &[&str]) -> Vec<Build> {
    let specs: Vec<&'static MethodSpec> = match &c.cfg.methods {
        Some(specs) => specs.clone(),
        None => default
            .iter()
            .map(|&n| methods::spec(n).expect("registered"))
            .collect(),
    };
    let build = |s: &'static MethodSpec| Build {
        label: vec![s.label.into()],
        index: Index::Method(s),
    };
    specs.into_iter().map(build).collect()
}

/// The Fig. 8 lineup, with iDistance on the datasets small enough for it.
fn lineup(c: &Ctx) -> Vec<Build> {
    methods(c, &lineup_names(c.data.exact))
}

/// The profile's recommended HD-Index.
fn recommended(c: &Ctx) -> Vec<Build> {
    vec![Build::hd(vec![], HdIndexParams::for_profile(&c.w.profile))]
}

/// One HD-Index per value of a construction parameter, labelled with it.
/// Hilbert curves support at most 64 dimensions, so a variant whose trees
/// would each cover more (η = ν/τ > 64) is skipped; the paper's SUN runs
/// also start at larger τ for this reason.
fn vary(c: &Ctx, values: &[usize], set: fn(&mut HdIndexParams, usize)) -> Vec<Build> {
    let vary = |&v: &usize| {
        let mut params = HdIndexParams::for_profile(&c.w.profile);
        set(&mut params, v);
        if c.w.data.dim().div_ceil(params.tau) > 64 {
            let label = vec![v.to_string(), "η>64 (skipped)".into()];
            Build {
                label,
                index: Index::Skip,
            }
        } else {
            Build::hd(vec![v.to_string()], params)
        }
    };
    values.iter().map(vary).collect()
}

/// The recommended triangular pipeline, α = 4096 and γ = 1024, clamped to n.
fn recommended_query(c: &Ctx, k: usize) -> Vec<Query> {
    let n = c.w.data.len();
    vec![Query::hd(
        QueryParams::triangular(4096.min(n), 1024.min(n), k),
        vec![],
    )]
}

/// Every experiment `paper` runs, by id.
pub static EXPERIMENTS: &[Experiment] = &[
    // Fig. 1: MAP@10 vs approximation ratio (k = 10). Methods with close-to-1
    // ratios can have terrible MAP; the two metrics can even rank methods in
    // opposite orders.
    Experiment {
        id: "fig1",
        datasets: &[SIFT10K, AUDIO],
        max_queries: 200,
        queries: |_| vec![Query::k(10)],
        intro: |m| {
            println!(
                "\nDataset {}: n={} ν={} queries={}",
                m.data.name, m.n, m.dim, m.nq
            )
        },
        panels: &[Panel {
            title: "Fig. 1 ({name}): MAP@10 vs approximation ratio",
            heads: &["method", "MAP@10", "ratio", "recall"],
            widths: &[12, 8, 8, 8],
            cols: &[Label, Map, Ratio, Recall],
        }],
        outro: "Paper shape: good ratios (≤1.5) coexist with MAP ≤ 0.2 for the\n\
                LSH family, while HD-Index holds MAP near the exact methods.",
        ..BASE
    },
    // Fig. 4(a-d): reference objects m ∈ {2, 5, 10, 15, 20}. Query time grows
    // sub-linearly in m, index size linearly; quality saturates at m = 10.
    Experiment {
        id: "fig4-m",
        datasets: &[SIFT10K, AUDIO, SUN],
        max_queries: 200,
        builds: |c| vary(c, &[2, 5, 10, 15, 20], |p, m| p.num_references = m),
        queries: |c| recommended_query(c, 10),
        panels: &[Panel {
            title: "Fig. 4(a-d) [{name}]: varying number of reference objects m",
            heads: &["dataset", "m", "query", "index", "MAP@10", "ratio"],
            widths: &[10, 4, 12, 12, 8, 8],
            cols: &[Dataset, Label, Time, Disk, Map, Ratio],
        }],
        outro: "Paper shape: MAP and ratio saturate at m = 10; index grows linearly in m.",
        ..BASE
    },
    // Fig. 4(e-h): RDB-trees τ ∈ {2, 4, 8, 16, 32}. Time and index size grow
    // linearly with τ; quality saturates at τ = 8 (16 for 512-d SUN).
    Experiment {
        id: "fig4-tau",
        datasets: &[SIFT10K, AUDIO, SUN],
        max_queries: 200,
        builds: |c| vary(c, &[2, 4, 8, 16, 32], |p, tau| p.tau = tau),
        queries: |c| recommended_query(c, 10),
        panels: &[Panel {
            title: "Fig. 4(e-h) [{name}]: varying number of RDB-trees τ",
            heads: &["dataset", "τ", "query", "index", "MAP@10", "ratio"],
            widths: &[10, 4, 12, 12, 8, 8],
            cols: &[Dataset, Label, Time, Disk, Map, Ratio],
        }],
        outro: "Paper shape: linear cost growth in τ; quality saturates at τ = 8 \
                (16 for 512-d SUN).",
        ..BASE
    },
    // Figs. 5, 11, 12: triangular-only vs triangular + Ptolemaic filtering
    // for α ∈ {2048, 4096, 8192} and (α:β, β:γ) ∈ {(1,4), (2,2), (1,2)}. The
    // combined filter wins slightly on MAP at ~1.5-2x the query time, with
    // zero extra disk accesses (the IO column).
    Experiment {
        id: "fig5",
        datasets: &[SIFT10K, AUDIO, SUN, SIFT100K],
        builds: recommended,
        queries: |c| {
            let mut queries = Vec::new();
            for alpha in [2048, 4096, 8192].map(|a: usize| a.min(c.w.data.len())) {
                for (r1, r2) in [(1, 4), (2, 2), (1, 2)] {
                    let (beta, gamma) = (alpha / r1, alpha / r1 / r2);
                    let label = |f: &str| vec![alpha.to_string(), format!("({r1},{r2})"), f.into()];
                    // Triangular-only keeps the same final γ (paper: "β = γ").
                    let tri = QueryParams::triangular(alpha, gamma, 10);
                    queries.push(Query::hd(tri, label("Tri")));
                    let pto = QueryParams::ptolemaic(alpha, beta, gamma, 10);
                    queries.push(Query::hd(pto, label("Tri+Pto")));
                }
            }
            queries
        },
        panels: &[Panel {
            title: "Fig. 5 [{name}]: filter pipelines (query time | MAP@10 | IO)",
            heads: &[
                "dataset",
                "α",
                "(α:β,β:γ)",
                "filter",
                "query",
                "MAP@10",
                "IO/query",
            ],
            widths: &[10, 6, 10, 14, 10, 8, 10],
            cols: &[Dataset, Label, Label, Label, Time, Map, Io],
        }],
        outro: "Paper shape: Tri+Pto ≥ Tri on MAP (same disk IO), ~1.5-2x slower wall-clock.",
        ..BASE
    },
    // Fig. 6: α ∈ {2048 … 16384} at α/γ ∈ {2, 4, 8} (a-f), and γ ∈ {128 …
    // 4096} at α = 4096 (g, h). Time is linear in α and γ; MAP saturates at
    // α = 4096 (8192 for large sets) and γ = 1024, so α/γ = 4.
    Experiment {
        id: "fig6",
        datasets: &[SIFT10K, AUDIO, SUN, SIFT100K, YORCK],
        builds: recommended,
        queries: |c| {
            let n = c.w.data.len();
            let mut queries = Vec::new();
            for ratio in [2usize, 4, 8] {
                for alpha in [2048, 4096, 8192, 16384].map(|a: usize| a.min(n)) {
                    let qp = QueryParams::triangular(alpha, (alpha / ratio).max(10), 10);
                    queries.push(Query::hd(qp, vec![alpha.to_string(), ratio.to_string()]));
                }
            }
            let alpha = 4096.min(n);
            for gamma in [128, 256, 512, 1024, 2048, 4096].map(|g: usize| g.min(alpha)) {
                let qp = QueryParams::triangular(alpha, gamma, 10);
                let label = vec![gamma.to_string(), String::new()];
                queries.push(Query {
                    panel: 1,
                    ..Query::hd(qp, label)
                });
            }
            queries
        },
        panels: &[
            Panel {
                title: "Fig. 6(a-f) [{name}]: varying α at α/γ ∈ {2,4,8}",
                heads: &["dataset", "α", "α/γ", "query", "MAP@10"],
                widths: &[10, 7, 6, 12, 8],
                cols: &[Dataset, Label, Label, Time, Map],
            },
            Panel {
                title: "Fig. 6(g,h) [{name}]: varying γ at α = 4096",
                heads: &["dataset", "γ", "", "query", "MAP@10"],
                widths: &[10, 7, 6, 12, 8],
                cols: &[Dataset, Label, Label, Time, Map],
            },
        ],
        outro: "Paper shape: time linear in α and γ; MAP saturates at α = 4096 (8192 for\n\
                the larger sets) and γ = 1024, giving the recommended α/γ = 4.",
        ..BASE
    },
    // Fig. 7: MAP@10 and ratio across methods at k = 10 on five datasets.
    // Ratios bunch below ~1.5 while MAP spreads over an order of magnitude.
    Experiment {
        id: "fig7",
        datasets: &[SIFT10K, AUDIO, SUN, SIFT100K, YORCK],
        queries: |_| vec![Query::k(10)],
        panels: &[Panel {
            title: "Fig. 7 [{name}] (n={n}, ν={dim}): MAP@10 and ratio",
            heads: &["dataset", "method", "MAP@10", "ratio"],
            widths: &[10, 12, 8, 8],
            cols: &[Dataset, Label, Map, Ratio],
        }],
        outro: "Paper shape: near-1 ratios for everything; MAP separates the methods,\n\
                with HD-Index well ahead of the LSH family on every dataset.",
        ..BASE
    },
    // Fig. 8(a-o): the comparative study at k = 100 (MAP, query time, index
    // size, build and query memory, IO) over the small, larger and text
    // dataset groups. `--metric` reruns it under another distance function.
    Experiment {
        id: "fig8",
        datasets: &[SIFT10K, AUDIO, SUN, SIFT100K, YORCK, ENRON, GLOVE],
        intro: |m| {
            let group = match m.data.name {
                "SIFT10K" => "small (Fig. 8a-e)",
                "SIFT100K" => "larger (Fig. 8f-j)",
                "Enron" => "text (Fig. 8k-o)",
                _ => return,
            };
            println!("\n######## Group: {group} ########");
        },
        panels: &[Panel {
            title: "Fig. 8 [{name}] n={n} ν={dim} k=100",
            heads: &[
                "dataset", "method", "MAP@100", "query", "index", "bld RAM", "qry RAM", "IO/qry",
            ],
            widths: &[10, 12, 8, 10, 10, 10, 10, 10],
            cols: &[Dataset, Label, Map, Time, Disk, BuildRam, QueryRam, Io],
        }],
        outro: "Paper shape: OPQ/HNSW fastest with the largest query RAM; Multicurves the\n\
                fattest index (NP on Enron); SRS the smallest; HD-Index balanced on all axes.",
        ..BASE
    },
    // Fig. 9: each method's Quality / Memory-footprint / Efficiency class,
    // derived from a measured run.
    Experiment {
        id: "fig9",
        datasets: &[SIFT100K.queries(40)],
        bespoke: Some(bespoke::fig9),
        ..BASE
    },
    // Fig. 10 (Appendix A): reference-object selection — Random, SSS,
    // SSS-Dyn — by selection time and MAP@100. Random lands within ~90% of
    // SSS; SSS ≈ SSS-Dyn on quality while much faster to select.
    Experiment {
        id: "fig10",
        datasets: &[AUDIO.queries(50), SUN.queries(30), SIFT100K],
        builds: |c| {
            let selections = [
                ("Random", RefSelection::Random),
                ("SSS", RefSelection::Sss { f: 0.3 }),
                ("SSS-Dyn", RefSelection::SssDyn { f: 0.3, pairs: 100 }),
            ];
            let select = |(label, sel): (&str, RefSelection)| {
                // Time the selection step alone (what Fig. 10a plots).
                let t0 = Instant::now();
                let _refs = hd_index::reference::select(&c.w.data, 10, sel, c.cfg.seed);
                let select_ms = t0.elapsed().as_secs_f64() * 1000.0;
                let params = HdIndexParams {
                    ref_selection: sel,
                    ..HdIndexParams::for_profile(&c.w.profile)
                };
                Build::hd(vec![label.into(), table::ms(select_ms)], params)
            };
            selections.into_iter().map(select).collect()
        },
        queries: |c| recommended_query(c, 100),
        panels: &[Panel {
            title: "Fig. 10 [{name}]: reference-selection algorithms",
            heads: &["dataset", "method", "select time", "MAP@100"],
            widths: &[10, 10, 14, 10],
            cols: &[Dataset, Label, Label, Map],
        }],
        outro: "Paper shape: Random within ~90% of SSS on MAP; SSS ≈ SSS-Dyn but faster;\n\
                differences shrink with dataset size. Recommended: SSS.",
        ..BASE
    },
    // Fig. 13 (Appendix C): MAP@k and query time for k ∈ {1, 5, 10, 50,
    // 100}. HD-Index and Multicurves stay flat in k (α ≫ k); the LSH
    // family's time grows with k; iDistance is exact but slowest.
    Experiment {
        id: "fig13",
        datasets: &[SIFT10K.queries(50), AUDIO.queries(50), SIFT100K.queries(30)],
        builds: |c| {
            let mut names = vec!["hd-index", "multicurves", "c2lsh", "qalsh", "srs"];
            if c.data.exact {
                names.push("idistance");
            }
            methods(c, &names)
        },
        queries: |_| {
            let at = |k: usize| Query {
                label: vec![k.to_string()],
                ..Query::k(k)
            };
            [1, 5, 10, 50, 100].map(at).into()
        },
        panels: &[Panel {
            title: "Fig. 13 [{name}]: MAP@k and query time vs k",
            heads: &["dataset", "method", "k", "MAP@k", "query"],
            widths: &[10, 12, 5, 8, 12],
            cols: &[Dataset, Label, Label, Map, Time],
        }],
        outro: "Paper shape: HD-Index/Multicurves flat in k (α ≫ k); LSH times grow with k.",
        ..BASE
    },
    // Table 3: RDB-tree leaf orders Ω by Eq. (4), checked against built trees.
    Experiment {
        id: "table3",
        bespoke: Some(bespoke::table3),
        ..BASE
    },
    // Table 5: HD-Index's query-time and MAP@100 gains over each method.
    Experiment {
        id: "table5",
        datasets: &[
            SIFT10K.queries(50),
            AUDIO.queries(50),
            SUN.queries(30),
            SIFT100K,
            YORCK,
            ENRON,
            GLOVE,
        ],
        bespoke: Some(bespoke::table5),
        ..BASE
    },
    // Table 6 + §5.5: Borda-count image search against the linear-scan truth.
    Experiment {
        id: "table6",
        bespoke: Some(bespoke::table6),
        ..BASE
    },
    // §5.2.1: random dimension partitionings vs the contiguous default,
    // MAP@10 mean ± std over 10 rounds (`--scale 10` for the paper's 100).
    // The first build is the contiguous one.
    Experiment {
        id: "ablation",
        datasets: &[SIFT10K.queries(50), AUDIO.queries(50), SUN.queries(30)],
        builds: |c| {
            let base = HdIndexParams::for_profile(&c.w.profile);
            let rounds = ((10.0 * c.cfg.scale) as usize).clamp(3, 100) as u64;
            let random = (0..rounds).map(|r| {
                let seed = Some(c.cfg.seed ^ (r + 1));
                Build::hd(
                    vec![],
                    HdIndexParams {
                        random_partitioning: seed,
                        ..base.clone()
                    },
                )
            });
            std::iter::once(Build::hd(vec![], base.clone()))
                .chain(random)
                .collect()
        },
        queries: |c| recommended_query(c, 10),
        bespoke: Some(bespoke::ablation),
        ..BASE
    },
    // §5.4.4: HD-Index at a ladder of sizes, extrapolated to SIFT1B.
    Experiment {
        id: "scaling",
        datasets: &[
            SIFT100K.sized(12_500).queries(30),
            SIFT100K.sized(25_000).queries(30),
            SIFT100K.sized(50_000).queries(30),
            SIFT100K.queries(30),
        ],
        max_queries: 50,
        builds: recommended,
        queries: |c| {
            let n = c.w.data.len();
            vec![Query::hd(
                QueryParams::triangular(8192.min(n), 2048.min(n), 100),
                vec![],
            )]
        },
        bespoke: Some(bespoke::scaling),
        ..BASE
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn experiment_ids_are_unique_and_documented_ids_resolve() {
        let mut seen = std::collections::HashSet::new();
        for e in EXPERIMENTS {
            assert!(seen.insert(e.id), "duplicate experiment id {}", e.id);
        }
        let docs = [
            ("README.md", include_str!("../../../README.md")),
            ("DESIGN.md", include_str!("../../../DESIGN.md")),
        ];
        for (doc, text) in docs {
            // Commands appear as `` `paper <id> …` `` or `--bin paper -- <id> …`.
            let ids: Vec<&str> = ["`paper ", "--bin paper -- "]
                .iter()
                .flat_map(|pat| text.split(pat).skip(1))
                .filter_map(|rest| {
                    rest.split(|ch: char| ch.is_whitespace() || ch == '`')
                        .next()
                })
                .filter(|id| !id.starts_with('<'))
                .collect();
            assert!(!ids.is_empty(), "{doc} names no `paper <id>` command");
            for id in ids {
                assert!(
                    experiment(id).is_some(),
                    "{doc} names unknown experiment {id:?}"
                );
            }
        }
    }
}
