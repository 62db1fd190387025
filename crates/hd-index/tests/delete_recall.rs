//! Regression: tombstoned objects must not consume candidate-stage budget.
//!
//! Before the fix, `tree_candidates` let deleted entries occupy α scan
//! slots and γ survivor slots — they were only dropped later, in
//! refinement — so a delete-heavy index quietly searched with a shrunken
//! effective budget and recall decayed. With tombstones skipped during the
//! leaf walk, an index that deleted 30% of its corpus must behave exactly
//! like a fresh index built over the survivors: same live candidates per
//! tree (identical Hilbert ordering, identical reference distances when the
//! reference set is shared), hence recall within noise. Every check runs
//! with refine codes off and on, and the two answer alike.

use hd_core::dataset::{generate, Dataset, DatasetProfile};
use hd_core::ground_truth::ground_truth_knn;
use hd_index::{BuildOpts, HdIndex, HdIndexParams, QueryParams, RefSelection};
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("hd_index_delete_recall")
        .join(format!("{name}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Build options that turn refine codes on.
fn codes_on() -> BuildOpts {
    BuildOpts {
        refine_codes: true,
        ..BuildOpts::default()
    }
}

#[test]
fn recall_after_30pct_deletes_matches_rebuilt_index() {
    let n = 3000usize;
    let k = 10usize;
    let (data, queries) = generate(&DatasetProfile::SIFT, n, 12, 21);
    // Deterministic ~30% victim set, spread across the id space.
    let deleted: Vec<bool> = (0..n)
        .map(|i| (i as u64).wrapping_mul(2_654_435_761) % 10 < 3)
        .collect();

    let params = HdIndexParams {
        tau: 4,
        hilbert_order: 8,
        num_references: 5,
        ref_selection: RefSelection::Sss { f: 0.3 },
        domain: (0.0, 255.0),
        random_partitioning: None,
        query_cache_pages: 0,
        seed: 7,
    };
    let dir = scratch("recall30");

    // Index over the full corpus, then tombstone the victims; a twin with
    // refine codes must answer identically.
    let mut full = HdIndex::build(&data, &params, dir.join("full")).unwrap();
    let mut coded = HdIndex::build_with(&data, &params, dir.join("coded"), codes_on()).unwrap();
    for (id, dead) in deleted.iter().enumerate() {
        if *dead {
            full.delete(id as u64).unwrap();
            coded.delete(id as u64).unwrap();
        }
    }

    // Fresh index over the survivors only, sharing the full index's
    // reference set so both filter pipelines see identical geometry and the
    // candidate stage is the sole variable under test.
    let mut survivors = Dataset::new(data.dim());
    let mut surv_of_orig: HashMap<u64, u64> = HashMap::new();
    for (id, dead) in deleted.iter().enumerate() {
        if !*dead {
            surv_of_orig.insert(id as u64, survivors.len() as u64);
            survivors.push(data.get(id));
        }
    }
    let fresh = HdIndex::build_with(
        &survivors,
        &params,
        dir.join("fresh"),
        BuildOpts {
            references: Some(full.references().clone()),
            cache_budget: None,
            build_budget: None,
            refine_codes: false,
        },
    )
    .unwrap();

    // Tight candidate budget so wasted slots would actually show.
    let qp = QueryParams::triangular(128, 32, k);
    let truth = ground_truth_knn(&survivors, &queries, k, 4);
    let total = queries.len() * k;
    let (mut hits_full, mut hits_fresh) = (0usize, 0usize);
    for (qi, q) in queries.iter().enumerate() {
        let true_ids: HashSet<u64> = truth[qi].iter().map(|nb| nb.id).collect();
        let answer = full.knn(q, &qp).unwrap();
        assert_eq!(
            coded.knn(q, &qp).unwrap(),
            answer,
            "refine codes changed query {qi}"
        );
        for nb in answer {
            assert!(
                !deleted[nb.id as usize],
                "tombstoned object {} returned",
                nb.id
            );
            if true_ids.contains(&surv_of_orig[&nb.id]) {
                hits_full += 1;
            }
        }
        for nb in fresh.knn(q, &qp).unwrap() {
            if true_ids.contains(&nb.id) {
                hits_fresh += 1;
            }
        }
    }
    let recall_full = hits_full as f64 / total as f64;
    let recall_fresh = hits_fresh as f64 / total as f64;
    assert!(
        recall_full + 0.02 >= recall_fresh,
        "deletes degraded recall: tombstoned index {recall_full:.3} vs rebuilt {recall_fresh:.3}"
    );
    // And the workload is non-trivial: recall far above chance (k/n ≈
    // 0.005) but far from saturated, so wasted candidate slots would show.
    assert!(
        recall_fresh > 0.2,
        "test workload degenerate: fresh recall {recall_fresh:.3}"
    );
    std::fs::remove_dir_all(dir).ok();
}

/// Compaction equivalence: after tombstoning ~30% of the corpus,
/// `compact()` must leave search behavior *identical* (same ids under the
/// original numbering, same distances) to the tombstoned index it
/// replaced, match a from-scratch rebuild over the survivors, and shed the
/// dead rows' disk footprint — all checked under L2, L1 and cosine, with
/// refine codes off and on, and again after a reopen so the persisted
/// generation + id map (and the codes derived at open) get the same
/// scrutiny as the in-memory swap.
#[test]
fn compaction_matches_survivor_rebuild_across_metrics() {
    use hd_core::metric::Metric;

    let n = 800usize;
    let k = 5usize;
    let dim = 32usize;
    let params = HdIndexParams {
        tau: 3,
        hilbert_order: 8,
        num_references: 4,
        ref_selection: RefSelection::Sss { f: 0.3 },
        domain: (0.0, 255.0),
        random_partitioning: None,
        query_cache_pages: 0,
        seed: 9,
    };

    // The codes-off leg's answers, which the codes-on leg must repeat.
    let mut codes_off_answers = Vec::new();
    for (metric, refine_codes) in [Metric::L2, Metric::L1, Metric::Cosine]
        .into_iter()
        .flat_map(|m| [(m, false), (m, true)])
    {
        let raw = hd_core::dataset::generate_uniform(dim, 0.0, 255.0, n + 6, 41);
        let mut data = Dataset::new(dim).with_metric(metric);
        for i in 0..n {
            data.push(raw.get(i));
        }
        let mut queries = Dataset::new(dim).with_metric(metric);
        for i in n..n + 6 {
            queries.push(raw.get(i));
        }
        let deleted: Vec<bool> = (0..n)
            .map(|i| (i as u64).wrapping_mul(2_654_435_761) % 10 < 3)
            .collect();

        let dir = scratch(&format!("compact_eq_{}_{refine_codes}", metric.name()));
        let opts = BuildOpts {
            refine_codes,
            ..BuildOpts::default()
        };
        let mut index = HdIndex::build_with(&data, &params, dir.join("live"), opts).unwrap();
        for (id, dead) in deleted.iter().enumerate() {
            if *dead {
                index.delete(id as u64).unwrap();
            }
        }

        // Saturated budgets: every live object is refined, so answers are
        // exact over the live set and any compaction bug must surface.
        let qp = QueryParams::triangular(n, n, k);
        let before: Vec<Vec<_>> = queries.iter().map(|q| index.knn(q, &qp).unwrap()).collect();
        if refine_codes {
            assert_eq!(
                before, codes_off_answers,
                "{metric:?}: refine codes changed an answer"
            );
        } else {
            codes_off_answers = before.clone();
        }

        assert!(index.compact().unwrap(), "30% tombstones must compact");
        assert_eq!(index.tombstone_density(), 0.0);
        assert_eq!(index.has_refine_codes(), refine_codes);
        for (qi, q) in queries.iter().enumerate() {
            let after = index.knn(q, &qp).unwrap();
            assert_eq!(
                after, before[qi],
                "{metric:?} (refine codes {refine_codes}): compaction changed query {qi}'s answer"
            );
        }

        // Survivor rebuild under the shared reference set: the compacted
        // index must agree with it id-for-id (after renumbering) and spend
        // within 10% of its disk budget.
        let mut survivors = Dataset::new(dim).with_metric(metric);
        let mut orig_of_surv: Vec<u64> = Vec::new();
        for (id, dead) in deleted.iter().enumerate() {
            if !*dead {
                orig_of_surv.push(id as u64);
                survivors.push(data.get(id));
            }
        }
        let fresh = HdIndex::build_with(
            &survivors,
            &params,
            dir.join("fresh"),
            BuildOpts {
                references: Some(index.references().clone()),
                cache_budget: None,
                build_budget: None,
                refine_codes,
            },
        )
        .unwrap();
        for (qi, q) in queries.iter().enumerate() {
            let rebuilt = fresh.knn(q, &qp).unwrap();
            assert_eq!(rebuilt.len(), before[qi].len());
            for (a, b) in before[qi].iter().zip(&rebuilt) {
                assert_eq!(
                    a.id, orig_of_surv[b.id as usize],
                    "{metric:?} (refine codes {refine_codes}): query {qi} diverged from survivor rebuild"
                );
                if metric == Metric::Cosine {
                    // The rebuild re-normalizes raw rows while compaction
                    // carries the already-unit stored bytes — last-ulp drift
                    // is possible, bounded well under 1e-6.
                    assert!((a.dist - b.dist).abs() <= 1e-6);
                } else {
                    assert_eq!(a.dist, b.dist);
                }
            }
        }
        let (compacted_b, fresh_b) = (index.disk_bytes() as f64, fresh.disk_bytes() as f64);
        assert!(
            compacted_b <= fresh_b * 1.10,
            "{metric:?} (refine codes {refine_codes}): compacted index {compacted_b}B vs survivor rebuild {fresh_b}B"
        );

        // The swap is durable: a reopen serves the same answers through the
        // persisted generation files and id map.
        drop(index);
        let reopened = HdIndex::open(dir.join("live"), 0).unwrap();
        assert_eq!(reopened.metric(), metric);
        assert_eq!(reopened.has_refine_codes(), refine_codes);
        for (qi, q) in queries.iter().enumerate() {
            assert_eq!(
                reopened.knn(q, &qp).unwrap(),
                before[qi],
                "{metric:?} (refine codes {refine_codes}): reopen after compaction changed query {qi}"
            );
        }
        std::fs::remove_dir_all(dir).ok();
    }
}
