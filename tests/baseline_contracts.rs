//! Cross-crate contracts for the extended baseline set (E2LSH, VA-file) and
//! index persistence through the facade crate.

use hd_index_repro::hd_baselines::lsh::e2lsh::{E2lsh, E2lshParams};
use hd_index_repro::hd_baselines::vafile::{VaFile, VaFileParams};
use hd_index_repro::hd_core::dataset::{generate, DatasetProfile};
use hd_index_repro::hd_core::ground_truth::ground_truth_knn;
use hd_index_repro::hd_core::metrics::{ids, score_workload};
use hd_index_repro::hd_core::topk::Neighbor;
use hd_index_repro::hd_index::{HdIndex, HdIndexParams, QueryParams};
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("hd_repro_contracts")
        .join(format!("{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn vafile_is_exact_and_prunes() {
    // §2.2.1: the VA-file accelerates the unavoidable scan without giving up
    // exactness — both halves of that claim, checked.
    let (data, queries) = generate(&DatasetProfile::SIFT, 2000, 8, 300);
    let dir = scratch("vafile");
    let va = VaFile::build(&data, VaFileParams::default(), &dir).unwrap();
    let truth = ground_truth_knn(&data, &queries, 10, 4);
    let mut total_refined = 0usize;
    for (qi, q) in queries.iter().enumerate() {
        let got = va.knn(q, 10).unwrap();
        assert_eq!(ids(&got), ids(&truth[qi]), "VA-file lost exactness");
        total_refined += va.refinement_count(q, 10).unwrap();
    }
    assert!(
        total_refined < queries.len() * data.len(),
        "VA-file refined everything — no pruning at all"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn e2lsh_candidates_sublinear_quality_above_chance() {
    let (data, queries) = generate(&DatasetProfile::SIFT, 3000, 10, 301);
    let dir = scratch("e2lsh");
    let idx = E2lsh::build(&data, E2lshParams::default(), &dir).unwrap();
    let truth = ground_truth_knn(&data, &queries, 10, 4);
    let approx: Vec<Vec<Neighbor>> = queries.iter().map(|q| idx.knn(q, 10).unwrap()).collect();
    let s = score_workload(&truth, &approx);
    assert!(s.recall > 0.1, "E2LSH at chance: {}", s.recall);
    let avg_cands: f64 = queries
        .iter()
        .map(|q| idx.candidate_count(q) as f64)
        .sum::<f64>()
        / queries.len() as f64;
    assert!(
        avg_cands < data.len() as f64 * 0.6,
        "bucket unions nearly exhaustive: {avg_cands}"
    );
    std::fs::remove_dir_all(dir).ok();
}

#[test]
fn persistence_through_facade_with_inserts() {
    // Build → insert → drop → open → the inserted object is still there.
    let (data, _) = generate(&DatasetProfile::GLOVE, 1500, 1, 303);
    let dir = scratch("persist_facade");
    let params = HdIndexParams::for_profile(&DatasetProfile::GLOVE);
    let novel: Vec<f32> = (0..100).map(|i| (i % 21) as f32 - 10.0).collect();
    let id = {
        let mut index = HdIndex::build(&data, &params, &dir).unwrap();
        index.insert(&novel).unwrap()
    };
    let reopened = HdIndex::open(&dir, 0).unwrap();
    assert_eq!(reopened.len(), 1501);
    let hit = reopened
        .knn(&novel, &QueryParams::triangular(512, 128, 1))
        .unwrap()[0];
    assert_eq!(hit.id, id, "inserted object lost across reopen");
    assert_eq!(hit.dist, 0.0);
    std::fs::remove_dir_all(dir).ok();
}
