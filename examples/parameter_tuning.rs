//! Parameter-tuning walkthrough (paper §3.4, §5.2): sweep the number of
//! reference objects m, the number of trees τ, and the candidate budget α,
//! and watch where quality saturates — reproducing in miniature the tuning
//! methodology behind the paper's recommended defaults (m=10, τ=8, α=4096,
//! α/γ=4, triangular-only filtering).
//!
//! Construction parameters vary per *build*; the α/γ sweeps ride the
//! per-call budget knobs of the unified `AnnIndex` request instead of
//! rebuilding anything.
//!
//! ```text
//! cargo run --release --example parameter_tuning
//! ```

use hd_index_repro::hd_core::api::{AnnIndex, SearchRequest};
use hd_index_repro::hd_core::dataset::{generate, DatasetProfile};
use hd_index_repro::hd_core::ground_truth::ground_truth_knn;
use hd_index_repro::hd_core::metrics::{ids, mean_average_precision};
use hd_index_repro::hd_index::{HdIndex, HdIndexParams, QueryParams};

fn main() -> std::io::Result<()> {
    let profile = DatasetProfile::SIFT;
    let (data, queries) = generate(&profile, 10_000, 30, 11);
    let truth = ground_truth_knn(&data, &queries, 10, 4);
    let truth_ids: Vec<Vec<u64>> = truth.iter().map(|t| ids(t)).collect();
    let base = HdIndexParams::for_profile(&profile);
    let scratch = std::env::temp_dir().join("hd_index_tuning");

    // Everything below talks to the index through the trait object — the
    // sweep harness would work unchanged for any registered method.
    let evaluate = |index: &dyn AnnIndex, req: &SearchRequest| -> (f64, std::time::Duration) {
        let t0 = std::time::Instant::now();
        let approx: Vec<Vec<u64>> = queries
            .iter()
            .map(|q| ids(&index.search(q, req).expect("query IO").neighbors))
            .collect();
        let per_query = t0.elapsed() / queries.len() as u32;
        (mean_average_precision(&truth_ids, &approx), per_query)
    };

    let req = |alpha: usize, gamma: usize| {
        SearchRequest::new(10)
            .with_candidates(alpha)
            .with_refine(gamma)
    };

    println!("-- sweep m (reference objects), τ=8, α=2048, γ=512 --");
    for m in [2usize, 5, 10, 15] {
        let params = HdIndexParams {
            num_references: m,
            ..base.clone()
        };
        let index = HdIndex::build(&data, &params, scratch.join(format!("m{m}")))?;
        let (map, t) = evaluate(&index, &req(2048, 512));
        println!("  m={m:<3} MAP@10={map:.3}  {t:.2?}/query");
    }

    println!("-- sweep τ (trees), m=10, α=2048, γ=512 --");
    for tau in [2usize, 4, 8, 16] {
        let params = HdIndexParams {
            tau,
            ..base.clone()
        };
        let index = HdIndex::build(&data, &params, scratch.join(format!("t{tau}")))?;
        let (map, t) = evaluate(&index, &req(2048, 512));
        println!("  τ={tau:<3} MAP@10={map:.3}  {t:.2?}/query");
    }

    println!("-- sweep α (candidates/tree) at α/γ=4, defaults otherwise --");
    let mut index = HdIndex::build(&data, &base, scratch.join("alpha"))?;
    for alpha in [512usize, 1024, 2048, 4096, 8192] {
        let (map, t) = evaluate(&index, &req(alpha, alpha / 4));
        println!("  α={alpha:<5} MAP@10={map:.3}  {t:.2?}/query");
    }

    println!("-- filters at α=2048 (triangular vs +Ptolemaic) --");
    // Filter choice is a serve-time default (`set_serve_params`), not a
    // per-request knob — the request API stays method-agnostic.
    for (label, qp) in [
        ("triangular ", QueryParams::triangular(2048, 512, 10)),
        ("tri+ptolemy", QueryParams::ptolemaic(2048, 1024, 512, 10)),
    ] {
        index.set_serve_params(qp);
        let (map, t) = evaluate(&index, &SearchRequest::new(10));
        println!("  {label} MAP@10={map:.3}  {t:.2?}/query");
    }

    println!("\nExpected shape: MAP saturates at m≈10, τ≈8, α≈4096; Ptolemaic adds a");
    println!("little MAP for ~2x the query time (paper's recommended defaults).");
    std::fs::remove_dir_all(scratch).ok();
    Ok(())
}
