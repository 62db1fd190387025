//! Exact kNN by (parallel) linear scan — the evaluation gold standard.
//!
//! Every quality number in the paper is computed against the true k nearest
//! neighbors. For the workload sizes the reproduction runs (10K–200K points,
//! 50–10,000 queries) a multi-threaded scan is the pragmatic choice; it also
//! doubles as the "linear scan" comparator of §5.5 (its per-query cost is the
//! impractical baseline the paper mentions).

use crate::dataset::Dataset;
use crate::metric::Metric;
use crate::topk::{Neighbor, TopK};

/// Exact k nearest neighbors of a single query under the dataset's recorded
/// [`Metric`] (distances in the metric's reported scale: true L2 for L2,
/// `1 − cos` for cosine, …). The query is normalized on the fly when the
/// metric requires it, so callers pass raw queries for every metric.
pub fn knn_exact(data: &Dataset, query: &[f32], k: usize) -> Vec<Neighbor> {
    let metric = data.metric();
    let mut qbuf = Vec::new();
    let query = metric.normalized_query(query, &mut qbuf);
    let mut tk = TopK::new(k.min(data.len().max(1)));
    for (i, p) in data.iter().enumerate() {
        tk.push(Neighbor::new(i as crate::ObjectId, metric.key(query, p)));
    }
    finalize(tk, metric)
}

fn finalize(tk: TopK, metric: Metric) -> Vec<Neighbor> {
    let mut out = tk.into_sorted();
    for n in &mut out {
        n.dist = metric.finalize(n.dist);
    }
    out
}

/// Exact k nearest neighbors for a whole query set, scanning with `threads`
/// worker threads (queries are partitioned across workers).
///
/// Returns one nearest-first list per query.
pub fn ground_truth_knn(
    data: &Dataset,
    queries: &Dataset,
    k: usize,
    threads: usize,
) -> Vec<Vec<Neighbor>> {
    assert_eq!(data.dim(), queries.dim(), "dimensionality mismatch");
    let nq = queries.len();
    if nq == 0 {
        return Vec::new();
    }
    let threads = threads.clamp(1, nq);
    let mut results: Vec<Vec<Neighbor>> = vec![Vec::new(); nq];
    let chunk = nq.div_ceil(threads);
    std::thread::scope(|s| {
        for (t, out_chunk) in results.chunks_mut(chunk).enumerate() {
            let start = t * chunk;
            s.spawn(move || {
                for (off, slot) in out_chunk.iter_mut().enumerate() {
                    *slot = knn_exact(data, queries.get(start + off), k);
                }
            });
        }
    });
    results
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{generate, DatasetProfile};

    #[test]
    fn finds_self_at_distance_zero() {
        let mut ds = Dataset::new(2);
        ds.push(&[0.0, 0.0]);
        ds.push(&[1.0, 0.0]);
        ds.push(&[5.0, 5.0]);
        let nn = knn_exact(&ds, &[0.0, 0.0], 2);
        assert_eq!(nn[0].id, 0);
        assert_eq!(nn[0].dist, 0.0);
        assert_eq!(nn[1].id, 1);
        assert!((nn[1].dist - 1.0).abs() < 1e-6);
    }

    #[test]
    fn k_larger_than_dataset_is_clamped() {
        let mut ds = Dataset::new(1);
        ds.push(&[1.0]);
        ds.push(&[2.0]);
        let nn = knn_exact(&ds, &[0.0], 10);
        assert_eq!(nn.len(), 2);
    }

    #[test]
    fn parallel_matches_sequential() {
        let (data, queries) = generate(&DatasetProfile::GLOVE, 500, 20, 11);
        let par = ground_truth_knn(&data, &queries, 5, 4);
        for (qi, q) in queries.iter().enumerate() {
            let seq = knn_exact(&data, q, 5);
            assert_eq!(par[qi], seq, "query {qi} diverged");
        }
    }

    #[test]
    fn results_are_sorted_ascending() {
        let (data, queries) = generate(&DatasetProfile::SIFT, 300, 5, 2);
        for r in ground_truth_knn(&data, &queries, 10, 2) {
            for w in r.windows(2) {
                assert!(w[0].dist <= w[1].dist);
            }
        }
    }

    #[test]
    fn cosine_ground_truth_ranks_by_descending_similarity() {
        let (raw, queries) = generate(&DatasetProfile::GLOVE, 200, 3, 7);
        let data = raw.clone().with_metric(Metric::Cosine);
        for q in queries.iter() {
            let res = knn_exact(&data, q, 5);
            // Reported distance is 1 − cos, so it must agree with a direct
            // cosine computation on the *raw* vectors.
            for n in &res {
                let o = raw.get(n.id as usize);
                let cos = crate::distance::dot(q, o)
                    / (crate::distance::norm_sq(q).sqrt() * crate::distance::norm_sq(o).sqrt());
                assert!(
                    (n.dist - (1.0 - cos)).abs() < 1e-4,
                    "reported {} vs 1−cos {}",
                    n.dist,
                    1.0 - cos
                );
            }
        }
    }

    #[test]
    fn dot_ground_truth_reports_negated_inner_product() {
        let (raw, queries) = generate(&DatasetProfile::GLOVE, 100, 2, 8);
        let data = raw.clone().with_metric(Metric::Dot);
        let q = queries.get(0);
        let res = knn_exact(&data, q, 3);
        for n in &res {
            assert_eq!(n.dist, -crate::distance::dot(q, raw.get(n.id as usize)));
        }
        for w in res.windows(2) {
            assert!(w[0].dist <= w[1].dist, "ascending −dot = descending dot");
        }
    }

    #[test]
    fn empty_query_set() {
        let (data, _) = generate(&DatasetProfile::SIFT, 10, 1, 2);
        let empty = Dataset::new(128);
        assert!(ground_truth_knn(&data, &empty, 3, 4).is_empty());
    }
}
