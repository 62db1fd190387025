//! The paper's §5.5 application end-to-end: multi-descriptor image search
//! with Borda-count aggregation, comparing HD-Index against the exact
//! linear-scan pipeline.
//!
//! Each "image" is a bag of local descriptors; a query image is a distorted
//! re-render of a database image. Every query descriptor runs a kANN search,
//! and per-image Borda scores (Eq. 7) pick the answer — demonstrating why
//! modest per-descriptor approximation suffices for exact image retrieval.
//!
//! ```text
//! cargo run --release --example image_search
//! ```

use hd_index_repro::hd_app::image_search::{search_image, ImageCorpus};
use hd_index_repro::hd_core::ground_truth::knn_exact;
use hd_index_repro::hd_index::{HdIndex, HdIndexParams, QueryParams};

fn main() -> std::io::Result<()> {
    let corpus = ImageCorpus::generate(200, 16, 64, -1.0, 1.0, 7);
    println!(
        "corpus: {} images × {} descriptors ({} total, {}-D)",
        corpus.n_images,
        corpus.descs_per_image,
        corpus.descriptors.len(),
        corpus.dim()
    );

    // Index all descriptors with HD-Index.
    let dir = std::env::temp_dir().join("hd_index_image_search");
    let params = HdIndexParams {
        tau: 8,
        hilbert_order: 16,
        num_references: 10,
        domain: (-1.0, 1.0),
        ..HdIndexParams::for_profile(&hd_index_repro::hd_core::dataset::DatasetProfile::SIFT)
    };
    let index = HdIndex::build(&corpus.descriptors, &params, &dir)?;
    let qp = QueryParams::triangular(1024, 256, 20);

    let mut hits_hd = 0;
    let mut hits_exact = 0;
    let n_queries = 25;
    for img in 0..n_queries {
        let query = corpus.query_image(img, 0.05);

        // Approximate pipeline (HD-Index per-descriptor kANN).
        let approx = search_image(&corpus, &query, 20, |d, k| {
            let mut qp = qp;
            qp.k = k;
            index.knn(d, &qp).expect("query IO")
        });
        // Exact pipeline (linear scan per descriptor).
        let exact = search_image(&corpus, &query, 20, |d, k| {
            knn_exact(&corpus.descriptors, d, k)
        });

        let hd_top = approx.top_k(3);
        let ex_top = exact.top_k(3);
        if hd_top.first() == Some(&(img as u32)) {
            hits_hd += 1;
        }
        if ex_top.first() == Some(&(img as u32)) {
            hits_exact += 1;
        }
        if img < 5 {
            println!(
                "query image {img}: HD-Index top-3 {:?} | linear top-3 {:?} | overlap@3 {:.2}",
                hd_top,
                ex_top,
                approx.overlap_at(&exact, 3)
            );
        }
    }
    println!(
        "\nsource image retrieved at rank 1: HD-Index {hits_hd}/{n_queries}, linear scan {hits_exact}/{n_queries}"
    );
    println!("(paper §5.5: approximate kANN + Borda aggregation ≈ exact retrieval)");

    std::fs::remove_dir_all(dir).ok();
    Ok(())
}
