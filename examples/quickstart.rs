//! Quickstart: build an HD-Index over a synthetic SIFT-like corpus and run
//! approximate k-nearest-neighbor queries through the unified `AnnIndex`
//! trait — the same interface every method in the workspace (the serving
//! engine and all ten baselines included) answers queries behind.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hd_index_repro::hd_core::api::{AnnIndex, SearchRequest};
use hd_index_repro::hd_core::dataset::{generate, DatasetProfile};
use hd_index_repro::hd_core::ground_truth::knn_exact;
use hd_index_repro::hd_core::metrics::{average_precision, ids};
use hd_index_repro::hd_index::{HdIndex, HdIndexParams};

fn main() -> std::io::Result<()> {
    // 1. Data: 20,000 SIFT-profile vectors (128-D, integers in [0, 255])
    //    plus 5 held-out queries from the same distribution.
    let profile = DatasetProfile::SIFT;
    let (data, queries) = generate(&profile, 20_000, 5, 42);
    println!(
        "dataset: n={} ν={} ({})",
        data.len(),
        data.dim(),
        profile.name
    );

    // 2. Build with the paper's recommended parameters for this profile:
    //    τ=8 RDB-trees, Hilbert order ω=8, m=10 reference objects (SSS).
    let dir = std::env::temp_dir().join("hd_index_quickstart");
    let params = HdIndexParams::for_profile(&profile);
    let t0 = std::time::Instant::now();
    // `Box<dyn AnnIndex>`: from here on, nothing below depends on the
    // concrete method — swap in `hd_engine::Engine::build(..)` or any
    // baseline and the query loop is unchanged.
    let index: Box<dyn AnnIndex> = Box::new(HdIndex::build(&data, &params, &dir)?);
    let stats = index.stats();
    println!(
        "built HD-Index in {:.2?}: {} on disk, {} resident",
        t0.elapsed(),
        hd_index_repro::hd_core::util::fmt_bytes(stats.disk_bytes as usize),
        hd_index_repro::hd_core::util::fmt_bytes(stats.memory_bytes),
    );

    // 3. Query: k=10 with the serve defaults (α=4096 candidates per tree,
    //    triangular filter to γ=1024 — the paper's recommended pipeline);
    //    `.with_trace()` asks for the per-query cost diagnostics.
    let req = SearchRequest::new(10).with_trace();
    for (qi, q) in queries.iter().enumerate() {
        let t0 = std::time::Instant::now();
        let out = index.search(q, &req)?;
        let elapsed = t0.elapsed();
        let trace = out.trace.expect("requested trace");

        // Score against the exact answer.
        let truth = knn_exact(&data, q, 10);
        let ap = average_precision(&ids(&truth), &ids(&out.neighbors));
        println!(
            "query {qi}: {elapsed:.2?}, {} disk reads, κ={}, AP@10={ap:.3}, nn=(id {}, d {:.1})",
            trace.physical_reads, trace.kappa, out.neighbors[0].id, out.neighbors[0].dist
        );
    }

    std::fs::remove_dir_all(dir).ok();
    Ok(())
}
