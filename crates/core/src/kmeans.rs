//! Lloyd's k-means with k-means++ seeding.
//!
//! Used by two baselines: iDistance (data-space partitions whose centroids
//! become the reference points, \[73\] §3) and PQ/OPQ (per-subspace codebooks).

use crate::dataset::Dataset;
use crate::distance::l2_sq;
use rand::distributions::{Distribution, WeightedIndex};
use rand::{Rng, SeedableRng};

/// Result of a k-means run: `k` centroids plus the assignment of every input
/// point to its nearest centroid.
#[derive(Debug, Clone)]
pub struct KMeans {
    pub centroids: Vec<Vec<f32>>,
    pub assignment: Vec<u32>,
}

impl KMeans {
    /// Index of the centroid nearest to `point`.
    pub fn nearest(&self, point: &[f32]) -> usize {
        let mut best = 0;
        let mut best_d = f32::INFINITY;
        for (i, c) in self.centroids.iter().enumerate() {
            let d = l2_sq(point, c);
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }
}

/// Runs k-means++ seeding followed by at most `max_iters` Lloyd iterations
/// (stopping early when assignments stabilize).
///
/// Empty clusters are re-seeded from the point currently farthest from its
/// centroid, which keeps all `k` centroids meaningful on clustered data.
///
/// # Panics
/// Panics if `k == 0` or the dataset is empty.
pub fn kmeans(data: &Dataset, k: usize, max_iters: usize, seed: u64) -> KMeans {
    assert!(k > 0, "k must be positive");
    assert!(!data.is_empty(), "cannot cluster an empty dataset");
    let n = data.len();
    let k = k.min(n);
    let mut rng = rand::rngs::StdRng::seed_from_u64(seed);

    // k-means++ seeding.
    let mut centroids: Vec<Vec<f32>> = Vec::with_capacity(k);
    centroids.push(data.get(rng.gen_range(0..n)).to_vec());
    let mut d2: Vec<f32> = (0..n).map(|i| l2_sq(data.get(i), &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().map(|&d| d as f64).sum();
        let next = if total <= f64::EPSILON {
            rng.gen_range(0..n)
        } else {
            let weights: Vec<f64> = d2.iter().map(|&d| d as f64 + 1e-12).collect();
            WeightedIndex::new(&weights)
                .expect("positive weights")
                .sample(&mut rng)
        };
        let c = data.get(next).to_vec();
        for (i, slot) in d2.iter_mut().enumerate() {
            *slot = slot.min(l2_sq(data.get(i), &c));
        }
        centroids.push(c);
    }

    let dim = data.dim();
    let mut assignment = vec![0u32; n];
    for _ in 0..max_iters {
        // Assignment step.
        let mut changed = false;
        for (i, slot) in assignment.iter_mut().enumerate() {
            let p = data.get(i);
            let mut best = 0u32;
            let mut best_d = f32::INFINITY;
            for (c, centroid) in centroids.iter().enumerate() {
                let d = l2_sq(p, centroid);
                if d < best_d {
                    best_d = d;
                    best = c as u32;
                }
            }
            if *slot != best {
                *slot = best;
                changed = true;
            }
        }
        if !changed {
            break;
        }
        // Update step.
        let mut sums = vec![vec![0.0f64; dim]; k];
        let mut counts = vec![0usize; k];
        for (i, &a) in assignment.iter().enumerate() {
            let a = a as usize;
            counts[a] += 1;
            for (s, v) in sums[a].iter_mut().zip(data.get(i)) {
                *s += *v as f64;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Re-seed from the point farthest from its centroid.
                let far = (0..n)
                    .max_by(|&a, &b| {
                        let da = l2_sq(data.get(a), &centroids[assignment[a] as usize]);
                        let db = l2_sq(data.get(b), &centroids[assignment[b] as usize]);
                        da.partial_cmp(&db).unwrap()
                    })
                    .expect("non-empty dataset");
                centroids[c] = data.get(far).to_vec();
            } else {
                for (d, s) in centroids[c].iter_mut().zip(&sums[c]) {
                    *d = (*s / counts[c] as f64) as f32;
                }
            }
        }
    }

    KMeans {
        centroids,
        assignment,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_blob_dataset() -> Dataset {
        let mut ds = Dataset::new(2);
        for i in 0..20 {
            let j = i as f32 * 0.01;
            ds.push(&[j, j]);
            ds.push(&[10.0 + j, 10.0 + j]);
        }
        ds
    }

    #[test]
    fn separates_two_blobs() {
        let km = kmeans(&two_blob_dataset(), 2, 50, 1);
        // All points of each blob must share an assignment.
        let first_blob = km.assignment[0];
        let second_blob = km.assignment[1];
        assert_ne!(first_blob, second_blob);
        for i in 0..40 {
            let expect = if i % 2 == 0 { first_blob } else { second_blob };
            assert_eq!(km.assignment[i], expect, "point {i} misassigned");
        }
    }

    #[test]
    fn centroids_land_near_blob_centers() {
        let km = kmeans(&two_blob_dataset(), 2, 50, 1);
        let mut mins: Vec<f32> = km
            .centroids
            .iter()
            .map(|c| l2_sq(c, &[0.095, 0.095]).min(l2_sq(c, &[10.095, 10.095])))
            .collect();
        mins.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert!(mins[1] < 0.1, "centroids {:?}", km.centroids);
    }

    #[test]
    fn k_clamped_to_n() {
        let mut ds = Dataset::new(1);
        ds.push(&[1.0]);
        ds.push(&[2.0]);
        let km = kmeans(&ds, 10, 10, 0);
        assert_eq!(km.centroids.len(), 2);
    }

    #[test]
    fn nearest_is_consistent_with_assignment() {
        let km = kmeans(&two_blob_dataset(), 2, 50, 3);
        let ds = two_blob_dataset();
        for i in 0..ds.len() {
            assert_eq!(km.nearest(ds.get(i)) as u32, km.assignment[i]);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = kmeans(&two_blob_dataset(), 3, 25, 9);
        let b = kmeans(&two_blob_dataset(), 3, 25, 9);
        assert_eq!(a.assignment, b.assignment);
        assert_eq!(a.centroids, b.centroids);
    }
}
