//! Reference-object selection (paper §3.3, Appendix A).
//!
//! The reference set `R` approximates query–object distances at query time
//! via leaf-resident precomputed distances, so it must be *spread out*: no
//! matter where the query lands, some reference should be near it. The paper
//! evaluates three selectors (Fig. 10) and recommends SSS; Random is within
//! ~90% of SSS on MAP, which the ablation bench reproduces.

use crate::config::RefSelection;
use hd_core::dataset::Dataset;
use hd_core::metric::Metric;
use hd_core::ObjectId;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::io;

/// The selected reference objects, their vectors (pinned in memory: m ≪ n,
/// §4.4.1), and the pairwise distance matrix the Ptolemaic filter divides by.
///
/// All distances are in the set's [`Metric::linear_dist`] — the
/// triangle-inequality distance reference bounds are sound in (true L2 for
/// L2/Cosine, L1 for L1). Selection inherits the metric of the dataset it
/// ran over, so reference distances and query distances can never disagree
/// on the distance function.
#[derive(Debug, Clone)]
pub struct ReferenceSet {
    pub ids: Vec<ObjectId>,
    pub vectors: Vec<Vec<f32>>,
    /// `dist[i * m + j] = d(R_i, R_j)`.
    pub pairwise: Vec<f32>,
    metric: Metric,
}

impl ReferenceSet {
    pub fn m(&self) -> usize {
        self.ids.len()
    }

    /// The metric all of this set's distances are computed in.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// `d(R_i, R_j)`.
    #[inline]
    pub fn dist(&self, i: usize, j: usize) -> f32 {
        self.pairwise[i * self.ids.len() + j]
    }

    /// Distances from `point` to every reference, appended into `out`
    /// (cleared first). `point` must already be in index form (unit-
    /// normalized for cosine) — reference vectors always are.
    pub fn distances_to(&self, point: &[f32], out: &mut Vec<f32>) {
        out.clear();
        out.extend(self.vectors.iter().map(|r| self.metric.linear_dist(point, r)));
    }

    /// Turns a caller's query into a [`PreparedQuery`] against this set:
    /// checks its dimension, moves it into index form (unit-normalized for
    /// cosine) and computes its distance to every reference. The only
    /// place the query path normalizes.
    ///
    /// # Errors
    /// `InvalidInput` when `query` differs in dimension from the references.
    pub fn prepare(&self, query: &[f32]) -> io::Result<PreparedQuery> {
        let dim = self.vectors.first().map_or(0, Vec::len);
        if query.len() != dim {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "query has {} dimensions but the index has {dim}",
                    query.len()
                ),
            ));
        }
        let mut vector = query.to_vec();
        self.metric.normalize_for_index(&mut vector);
        let mut ref_dists = Vec::with_capacity(self.m());
        self.distances_to(&vector, &mut ref_dists);
        Ok(PreparedQuery { vector, ref_dists })
    }

    /// Heap bytes held by the reference set (query-resident state).
    pub fn memory_bytes(&self) -> usize {
        self.vectors.iter().map(|v| v.capacity() * 4).sum::<usize>()
            + self.pairwise.capacity() * 4
            + self.ids.capacity() * std::mem::size_of::<ObjectId>()
    }

    /// Rebuilds a reference set from persisted ids and vectors under the
    /// persisted metric, recomputing the pairwise matrix.
    pub fn from_parts(ids: Vec<ObjectId>, vectors: Vec<Vec<f32>>, metric: Metric) -> Self {
        assert_eq!(ids.len(), vectors.len(), "ids/vectors mismatch");
        let m = ids.len();
        let mut pairwise = vec![0.0f32; m * m];
        for i in 0..m {
            for j in (i + 1)..m {
                let d = metric.linear_dist(&vectors[i], &vectors[j]);
                pairwise[i * m + j] = d;
                pairwise[j * m + i] = d;
            }
        }
        Self {
            ids,
            vectors,
            pairwise,
            metric,
        }
    }

    fn from_ids(data: &Dataset, ids: Vec<ObjectId>) -> Self {
        let vectors: Vec<Vec<f32>> = ids.iter().map(|&i| data.get(i as usize).to_vec()).collect();
        Self::from_parts(ids, vectors, data.metric())
    }
}

/// A query in index form plus its distances to one [`ReferenceSet`] —
/// stage 1 of Algorithm 2, done once. Only [`ReferenceSet::prepare`]
/// builds one, so holding a `PreparedQuery` *means* the vector is already
/// normalized for the set's metric and `ref_dists[i] = d(vector, R_i)`.
/// A sharded engine prepares each query once against the reference set all
/// its shards share and hands the same value to every shard.
#[derive(Debug)]
pub struct PreparedQuery {
    vector: Vec<f32>,
    ref_dists: Vec<f32>,
}

impl PreparedQuery {
    /// The query in index form.
    pub fn vector(&self) -> &[f32] {
        &self.vector
    }

    /// `d(query, R_i)` for every reference `R_i`, in set order.
    pub fn ref_dists(&self) -> &[f32] {
        &self.ref_dists
    }
}

/// Estimates the database diameter `dmax` by farthest-neighbor hopping
/// (§3.3): start from a random object, repeatedly jump to the farthest
/// object, for a bounded number of iterations or until the estimate stops
/// growing.
pub fn estimate_dmax(data: &Dataset, seed: u64, max_hops: usize) -> f32 {
    let metric = data.metric();
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut cur = rng.gen_range(0..data.len());
    let mut dmax = 0.0f32;
    for _ in 0..max_hops {
        let mut far = cur;
        let mut far_d = 0.0f32;
        let cv = data.get(cur);
        for (i, p) in data.iter().enumerate() {
            let d = metric.linear_dist(cv, p);
            if d > far_d {
                far_d = d;
                far = i;
            }
        }
        if far_d <= dmax {
            break; // converged
        }
        dmax = far_d;
        cur = far;
    }
    dmax
}

/// Selects `m` reference objects with the given algorithm, in the metric
/// recorded on `data` (all spread/distance computations use
/// [`Metric::linear_dist`]).
///
/// # Panics
/// Panics if `m == 0`, `m > data.len()`, or the dataset metric is not a
/// metric space (reference-distance bounds are unsound under dot).
pub fn select(data: &Dataset, m: usize, method: RefSelection, seed: u64) -> ReferenceSet {
    assert!(m > 0, "need at least one reference object");
    assert!(m <= data.len(), "cannot select more references than objects");
    assert!(
        data.metric().is_metric_space(),
        "reference selection requires a true metric; {} is not one",
        data.metric()
    );
    let ids = match method {
        RefSelection::Random => select_random(data, m, seed),
        RefSelection::Sss { f } => select_sss(data, m, f, seed),
        RefSelection::SssDyn { f, pairs } => select_sss_dyn(data, m, f, pairs, seed),
        RefSelection::MaxMin { sample } => select_maxmin(data, m, sample, seed),
    };
    ReferenceSet::from_ids(data, ids)
}

/// Greedy k-center: start from a random point; repeatedly add the candidate
/// whose minimum distance to the chosen set is largest. On a bounded random
/// sample for O(sample · m) cost.
fn select_maxmin(data: &Dataset, m: usize, sample: usize, seed: u64) -> Vec<ObjectId> {
    let dist = |a: &[f32], b: &[f32]| data.metric().linear_dist(a, b);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x6d61_786d);
    let pool: Vec<ObjectId> = if sample >= data.len() {
        (0..data.len() as ObjectId).collect()
    } else {
        let mut all: Vec<ObjectId> = (0..data.len() as ObjectId).collect();
        all.shuffle(&mut rng);
        all.truncate(sample.max(m));
        all
    };
    let mut ids = vec![pool[rng.gen_range(0..pool.len())]];
    // min-distance of every pool point to the chosen set, updated greedily.
    let mut min_d: Vec<f32> = pool
        .iter()
        .map(|&p| dist(data.get(p as usize), data.get(ids[0] as usize)))
        .collect();
    while ids.len() < m {
        let (best_idx, _) = min_d
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .expect("non-empty pool");
        let chosen = pool[best_idx];
        if ids.contains(&chosen) {
            // Entire pool already at distance 0 (degenerate data): pad.
            for &p in &pool {
                if ids.len() >= m {
                    break;
                }
                if !ids.contains(&p) {
                    ids.push(p);
                }
            }
            break;
        }
        ids.push(chosen);
        for (i, &p) in pool.iter().enumerate() {
            min_d[i] = min_d[i].min(dist(data.get(p as usize), data.get(chosen as usize)));
        }
    }
    ids
}

fn select_random(data: &Dataset, m: usize, seed: u64) -> Vec<ObjectId> {
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
    let mut ids: Vec<ObjectId> = (0..data.len() as ObjectId).collect();
    ids.shuffle(&mut rng);
    ids.truncate(m);
    ids
}

/// Sparse Spatial Selection (Pedreira & Brisaboa; the paper's [56]):
/// greedily admit objects farther than `f · dmax` from every admitted
/// reference. If a full scan admits fewer than `m`, the threshold is relaxed
/// geometrically so the set always reaches `m` (synthetic datasets can be
/// more compact than `f = 0.3` assumes).
fn select_sss(data: &Dataset, m: usize, f: f32, seed: u64) -> Vec<ObjectId> {
    let dist = |a: &[f32], b: &[f32]| data.metric().linear_dist(a, b);
    let dmax = estimate_dmax(data, seed, 10);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x5353_535f);
    let mut ids: Vec<ObjectId> = vec![rng.gen_range(0..data.len()) as ObjectId];
    let mut threshold = f * dmax;
    while ids.len() < m {
        let before = ids.len();
        for (i, p) in data.iter().enumerate() {
            if ids.len() >= m {
                break;
            }
            let i = i as ObjectId;
            if ids.contains(&i) {
                continue;
            }
            let min_d = ids
                .iter()
                .map(|&r| dist(p, data.get(r as usize)))
                .fold(f32::INFINITY, f32::min);
            if min_d > threshold {
                ids.push(i);
            }
        }
        if ids.len() == before {
            threshold *= 0.8; // relax and rescan
            if threshold < 1e-12 {
                // Degenerate data (all points identical): pad with randoms.
                for i in 0..data.len() as ObjectId {
                    if ids.len() >= m {
                        break;
                    }
                    if !ids.contains(&i) {
                        ids.push(i);
                    }
                }
                break;
            }
        }
    }
    ids
}

/// SSS-Dyn (Bustos et al.; the paper's [18]): run SSS, then keep scanning.
/// Every further object satisfying the `f · dmax` spread condition competes
/// with the current set: the *victim* is the reference contributing least to
/// lower-bounding the distances of a fixed sample of object pairs, and is
/// replaced when the newcomer's contribution is higher.
fn select_sss_dyn(data: &Dataset, m: usize, f: f32, pairs: usize, seed: u64) -> Vec<ObjectId> {
    let dist = |a: &[f32], b: &[f32]| data.metric().linear_dist(a, b);
    let mut ids = select_sss(data, m, f, seed);
    let dmax = estimate_dmax(data, seed, 10);
    let threshold = f * dmax;
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed ^ 0x4459_4e5f);
    let sample: Vec<(usize, usize)> = (0..pairs.max(1))
        .map(|_| (rng.gen_range(0..data.len()), rng.gen_range(0..data.len())))
        .collect();

    // Lower bound of d(a, b) through reference r: |d(a,r) − d(b,r)|.
    let bound_via = |a: usize, b: usize, r: ObjectId| -> f32 {
        let rv = data.get(r as usize);
        (dist(data.get(a), rv) - dist(data.get(b), rv)).abs()
    };
    // Total bound quality of a candidate reference set.
    let set_quality = |set: &[ObjectId]| -> f32 {
        sample
            .iter()
            .map(|&(a, b)| {
                set.iter()
                    .map(|&r| bound_via(a, b, r))
                    .fold(0.0f32, f32::max)
            })
            .sum()
    };

    for i in 0..data.len() {
        let i = i as ObjectId;
        if ids.contains(&i) {
            continue;
        }
        let p = data.get(i as usize);
        let min_d = ids
            .iter()
            .map(|&r| dist(p, data.get(r as usize)))
            .fold(f32::INFINITY, f32::min);
        if min_d <= threshold {
            continue;
        }
        // Try replacing each current reference with the newcomer; keep the
        // best strictly-improving swap.
        let current = set_quality(&ids);
        let mut best: Option<(usize, f32)> = None;
        for victim in 0..ids.len() {
            let mut trial = ids.clone();
            trial[victim] = i;
            let q = set_quality(&trial);
            if q > current && best.map(|(_, bq)| q > bq).unwrap_or(true) {
                best = Some((victim, q));
            }
        }
        if let Some((victim, _)) = best {
            ids[victim] = i;
        }
    }
    ids
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_core::dataset::{generate, DatasetProfile};
    use hd_core::distance::{l1, l2};

    fn small_data() -> Dataset {
        generate(&DatasetProfile::GLOVE, 300, 1, 5).0
    }

    #[test]
    fn selection_inherits_the_dataset_metric() {
        let l1_data = small_data().with_metric(Metric::L1);
        let r = select(&l1_data, 6, RefSelection::Random, 11);
        assert_eq!(r.metric(), Metric::L1);
        let q = l1_data.get(42);
        let mut out = Vec::new();
        r.distances_to(q, &mut out);
        for (i, &d) in out.iter().enumerate() {
            assert_eq!(d, l1(q, &r.vectors[i]), "reference {i} not an L1 distance");
        }
        // Pairwise matrix is in the same metric.
        assert_eq!(r.dist(0, 1), l1(&r.vectors[0], &r.vectors[1]));
    }

    #[test]
    fn cosine_selection_runs_on_unit_vectors() {
        let data = small_data().with_metric(Metric::Cosine);
        let r = select(&data, 5, RefSelection::Sss { f: 0.3 }, 3);
        assert_eq!(r.metric(), Metric::Cosine);
        for v in &r.vectors {
            let n = hd_core::distance::norm_sq(v).sqrt();
            assert!((n - 1.0).abs() < 1e-5, "reference not unit-normalized: ‖v‖ = {n}");
        }
        // linear_dist for cosine is true L2, so every pairwise distance is
        // within the unit-sphere diameter.
        for i in 0..r.m() {
            for j in 0..r.m() {
                assert!(r.dist(i, j) <= 2.0 + 1e-5);
            }
        }
    }

    #[test]
    #[should_panic(expected = "requires a true metric")]
    fn dot_metric_datasets_are_refused() {
        let data = small_data().with_metric(Metric::Dot);
        select(&data, 5, RefSelection::Random, 1);
    }

    #[test]
    fn random_selects_distinct_ids() {
        let data = small_data();
        let r = select(&data, 10, RefSelection::Random, 1);
        assert_eq!(r.m(), 10);
        let mut ids = r.ids.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 10);
    }

    #[test]
    fn sss_produces_m_spread_references() {
        let data = small_data();
        let r = select(&data, 10, RefSelection::Sss { f: 0.3 }, 1);
        assert_eq!(r.m(), 10);
        // Spread: average pairwise reference distance must exceed the
        // average pairwise distance of a random sample (SSS's entire point).
        let rand_set = select(&data, 10, RefSelection::Random, 99);
        let avg = |s: &ReferenceSet| {
            let m = s.m();
            let mut tot = 0.0;
            for i in 0..m {
                for j in (i + 1)..m {
                    tot += s.dist(i, j) as f64;
                }
            }
            tot / (m * (m - 1) / 2) as f64
        };
        assert!(
            avg(&r) > 0.9 * avg(&rand_set),
            "SSS refs no more spread than random: {} vs {}",
            avg(&r),
            avg(&rand_set)
        );
    }

    #[test]
    fn sss_dyn_matches_m() {
        let data = small_data();
        let r = select(&data, 8, RefSelection::SssDyn { f: 0.3, pairs: 50 }, 1);
        assert_eq!(r.m(), 8);
        let mut ids = r.ids.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 8, "replacement must never introduce duplicates");
    }

    #[test]
    fn maxmin_produces_m_distinct_spread_references() {
        let data = small_data();
        let r = select(&data, 10, RefSelection::MaxMin { sample: 200 }, 1);
        assert_eq!(r.m(), 10);
        let mut ids = r.ids.clone();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 10);
        // k-center maximizes the min pairwise distance: it must beat a
        // random selection on that criterion.
        let min_pair = |s: &ReferenceSet| {
            let mut best = f32::INFINITY;
            for i in 0..s.m() {
                for j in (i + 1)..s.m() {
                    best = best.min(s.dist(i, j));
                }
            }
            best
        };
        let rand_set = select(&data, 10, RefSelection::Random, 99);
        assert!(
            min_pair(&r) >= min_pair(&rand_set),
            "k-center min-pair {} < random {}",
            min_pair(&r),
            min_pair(&rand_set)
        );
    }

    #[test]
    fn maxmin_degenerate_data_pads() {
        let mut ds = Dataset::new(3);
        for _ in 0..12 {
            ds.push(&[2.0, 2.0, 2.0]);
        }
        let r = select(&ds, 6, RefSelection::MaxMin { sample: 12 }, 3);
        assert_eq!(r.m(), 6);
    }

    #[test]
    fn dmax_estimate_is_plausible() {
        let data = small_data();
        let est = estimate_dmax(&data, 7, 10);
        // Must be at least the distance of some concrete far pair and no
        // larger than the true diameter.
        let mut true_max = 0.0f32;
        for i in 0..data.len() {
            for j in (i + 1)..data.len() {
                true_max = true_max.max(l2(data.get(i), data.get(j)));
            }
        }
        assert!(est <= true_max + 1e-5);
        assert!(est >= 0.5 * true_max, "hopping estimate too weak: {est} vs {true_max}");
    }

    #[test]
    fn pairwise_matrix_is_symmetric_zero_diagonal() {
        let data = small_data();
        let r = select(&data, 5, RefSelection::Random, 3);
        for i in 0..5 {
            assert_eq!(r.dist(i, i), 0.0);
            for j in 0..5 {
                assert_eq!(r.dist(i, j), r.dist(j, i));
            }
        }
    }

    #[test]
    fn degenerate_identical_points_still_selects_m() {
        let mut ds = Dataset::new(4);
        for _ in 0..20 {
            ds.push(&[1.0, 2.0, 3.0, 4.0]);
        }
        let r = select(&ds, 5, RefSelection::Sss { f: 0.3 }, 1);
        assert_eq!(r.m(), 5);
    }

    #[test]
    fn distances_to_matches_direct_computation() {
        let data = small_data();
        let r = select(&data, 6, RefSelection::Random, 11);
        let q = data.get(42);
        let mut out = Vec::new();
        r.distances_to(q, &mut out);
        for (i, &d) in out.iter().enumerate() {
            assert_eq!(d, l2(q, &r.vectors[i]));
        }
    }
}
