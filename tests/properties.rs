//! Cross-crate property-based tests: invariants that must hold for *any*
//! data, not just the synthetic profiles.

use hd_index_repro::hd_core::dataset::Dataset;
use hd_index_repro::hd_core::distance::l2;
use hd_index_repro::hd_core::ground_truth::knn_exact;
use hd_index_repro::hd_core::metrics::{approximation_ratio, average_precision};
use hd_index_repro::hd_core::topk::Neighbor;
use hd_index_repro::hd_index::filters::{ptolemaic_lb, triangular_lb};
use hd_index_repro::hd_index::reference::{select, ReferenceSet};
use hd_index_repro::hd_index::RefSelection;
use proptest::prelude::*;

fn small_dataset() -> impl Strategy<Value = Dataset> {
    // 20–60 points in 4–8 dims, values in [-100, 100].
    (4usize..=8, 20usize..=60).prop_flat_map(|(dim, n)| {
        proptest::collection::vec(-100.0f32..100.0, dim * n)
            .prop_map(move |flat| Dataset::from_flat(dim, flat))
    })
}

fn refs_for(data: &Dataset, m: usize, seed: u64) -> ReferenceSet {
    select(data, m.min(data.len()), RefSelection::Random, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Both paper filters are *true* lower bounds of the real distance for
    /// any data and any reference choice — the soundness property pruning
    /// relies on (§4.2).
    #[test]
    fn filters_never_exceed_true_distance(data in small_dataset(), seed in 0u64..1000) {
        let refs = refs_for(&data, 5, seed);
        let mut qd = Vec::new();
        let mut od = Vec::new();
        let q = data.get(0);
        refs.distances_to(q, &mut qd);
        for o in 1..data.len().min(20) {
            let ov = data.get(o);
            refs.distances_to(ov, &mut od);
            let actual = l2(q, ov);
            let tri = triangular_lb(&qd, &od);
            let pto = ptolemaic_lb(&qd, &od, &refs);
            // f32 tolerance scaled to the data magnitude.
            let tol = 1e-3 * (1.0 + actual);
            prop_assert!(tri <= actual + tol, "triangular {tri} > {actual}");
            prop_assert!(pto <= actual + tol, "ptolemaic {pto} > {actual}");
        }
    }

    /// Exact kNN output is sorted, unique, and closed under the distance
    /// function.
    #[test]
    fn knn_exact_invariants(data in small_dataset(), k in 1usize..10) {
        let q = data.get(0).to_vec();
        let res = knn_exact(&data, &q, k);
        prop_assert_eq!(res.len(), k.min(data.len()));
        for w in res.windows(2) {
            prop_assert!(w[0].dist <= w[1].dist);
            prop_assert!(w[0].id != w[1].id);
        }
        for n in &res {
            let d = l2(&q, data.get(n.id as usize));
            prop_assert!((d - n.dist).abs() < 1e-3 * (1.0 + d));
        }
        // Every returned distance must be ≤ the distance of any non-member.
        let worst = res.last().unwrap().dist;
        let member: std::collections::HashSet<u64> = res.iter().map(|n| n.id).collect();
        for i in 0..data.len() {
            if !member.contains(&(i as u64)) {
                prop_assert!(l2(&q, data.get(i)) >= worst - 1e-3 * (1.0 + worst));
            }
        }
    }

    /// AP@k is 1 exactly when every returned id is relevant from rank 1
    /// onward, 0 when nothing is relevant, and within [0, 1] always.
    #[test]
    fn average_precision_bounds(perm in proptest::sample::subsequence((0u64..30).collect::<Vec<_>>(), 1..10)) {
        let truth: Vec<u64> = (0..perm.len() as u64).collect();
        let ap = average_precision(&truth, &perm);
        prop_assert!((0.0..=1.0).contains(&ap));
        let perfect = average_precision(&truth, &truth);
        prop_assert!((perfect - 1.0).abs() < 1e-12);
    }

    /// The approximation ratio of a result set against itself is exactly 1,
    /// and any other same-length result is ≥ 1 − ε.
    #[test]
    fn ratio_reflexive_and_bounded(dists in proptest::collection::vec(0.1f32..100.0, 1..10)) {
        let mut sorted = dists.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let truth: Vec<Neighbor> = sorted.iter().enumerate().map(|(i, &d)| Neighbor::new(i as u64, d)).collect();
        prop_assert!((approximation_ratio(&truth, &truth) - 1.0).abs() < 1e-9);
        // Any reordering scored against the sorted truth is ≥ 1: the i-th
        // true distance is the minimum possible at rank i.
        let shuffled: Vec<Neighbor> = truth.iter().rev().cloned().collect();
        prop_assert!(approximation_ratio(&truth, &shuffled) >= 1.0 - 1e-6);
    }
}

#[test]
fn hd_index_never_returns_duplicates_or_unsorted() {
    use hd_index_repro::hd_core::dataset::{generate, DatasetProfile};
    use hd_index_repro::hd_index::{HdIndex, HdIndexParams, QueryParams};
    let (data, queries) = generate(&DatasetProfile::GLOVE, 2000, 20, 200);
    let dir = std::env::temp_dir().join(format!("hd_prop_{}", std::process::id()));
    let params = HdIndexParams::for_profile(&DatasetProfile::GLOVE);
    let index = HdIndex::build(&data, &params, &dir).unwrap();
    let qp = QueryParams::triangular(512, 128, 25);
    for q in queries.iter() {
        let res = index.knn(q, &qp).unwrap();
        let mut seen = std::collections::HashSet::new();
        for w in res.windows(2) {
            assert!(w[0].dist <= w[1].dist, "unsorted result");
        }
        for n in &res {
            assert!(seen.insert(n.id), "duplicate id {} in result", n.id);
        }
    }
    std::fs::remove_dir_all(dir).ok();
}
