//! Distance lower-bound filters (paper §4.2).
//!
//! Both filters run entirely on leaf-resident reference distances — they cost
//! CPU but **zero** additional IO, which is why the paper can afford to fetch
//! α·τ candidates and refine only κ ≤ τ·γ of them.
//!
//! **Metric applicability.** The triangular bound needs only the triangle
//! inequality, so it is sound in *any* metric space — L2, L1, and
//! cosine-as-normalized-L2 alike — provided `q_dists`/`o_dists` were
//! computed in that metric's [`hd_core::metric::Metric::linear_dist`]. The
//! Ptolemaic bound rests on Ptolemy's inequality, a strictly Euclidean
//! property: sound for L2 and cosine (true L2 on the unit sphere), unsound
//! for L1 — [`crate::QueryParams::validate`] rejects that combination
//! before a query ever reaches this module.

use crate::reference::ReferenceSet;

/// Triangular lower bound (Eq. 5):
/// `d(q, o) ≥ max_i |d(q, R_i) − d(o, R_i)|`.
///
/// `q_dists[i] = d(q, R_i)`, `o_dists[i] = d(o, R_i)`, all in one metric's
/// linear distance — the bound then holds in that metric.
#[inline]
pub fn triangular_lb(q_dists: &[f32], o_dists: &[f32]) -> f32 {
    debug_assert_eq!(q_dists.len(), o_dists.len());
    max_abs_diff(q_dists, o_dists.iter().copied())
}

/// [`triangular_lb`] over `o_dists` as an RDB-tree leaf stores them
/// (little-endian `f32`s, [`crate::rdb::encode_value`]): the candidate walk
/// bounds each entry straight from the page bytes, bit-identical to
/// decoding first.
#[inline]
pub(crate) fn triangular_lb_le(q_dists: &[f32], o_le: &[u8]) -> f32 {
    debug_assert_eq!(q_dists.len() * 4, o_le.len());
    let o_dists = o_le
        .chunks_exact(4)
        .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]]));
    max_abs_diff(q_dists, o_dists)
}

/// `max_i |q_dists[i] − o_dists[i]|`, folded left to right from 0.
#[inline(always)]
fn max_abs_diff(q_dists: &[f32], o_dists: impl Iterator<Item = f32>) -> f32 {
    let mut best = 0.0f32;
    for (qa, ob) in q_dists.iter().zip(o_dists) {
        let lb = (qa - ob).abs();
        if lb > best {
            best = lb;
        }
    }
    best
}

/// Ptolemaic lower bound (Eq. 6):
/// `d(q, o) ≥ max_{i<j} |d(q,R_i)·d(o,R_j) − d(q,R_j)·d(o,R_i)| / d(R_i,R_j)`.
///
/// Degenerate pairs (coincident references) are skipped. Costs O(m²) per
/// candidate versus O(m) for the triangular bound — the ~2× query-time gap
/// of §5.2.5 is exactly this loop.
#[inline]
pub fn ptolemaic_lb(q_dists: &[f32], o_dists: &[f32], refs: &ReferenceSet) -> f32 {
    let m = q_dists.len();
    debug_assert_eq!(o_dists.len(), m);
    debug_assert_eq!(refs.m(), m);
    let mut best = 0.0f32;
    for i in 0..m {
        for j in (i + 1)..m {
            let denom = refs.dist(i, j);
            if denom <= f32::EPSILON {
                continue;
            }
            let lb = (q_dists[i] * o_dists[j] - q_dists[j] * o_dists[i]).abs() / denom;
            if lb > best {
                best = lb;
            }
        }
    }
    best
}

/// Keeps the `count` entries with the smallest scores, in arbitrary order
/// (the paper's successive-refinement steps only need the *set* of
/// survivors). Uses an O(n) selection, not a sort.
pub fn keep_smallest<T>(mut items: Vec<(f32, T)>, count: usize) -> Vec<(f32, T)> {
    if items.len() > count && count > 0 {
        items.select_nth_unstable_by(count - 1, |a, b| {
            a.0.partial_cmp(&b.0).unwrap_or(std::cmp::Ordering::Equal)
        });
        items.truncate(count);
    }
    items
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_core::dataset::{generate, DatasetProfile};
    use hd_core::distance::l2;

    /// Builds a reference set plus distance tables for real points so the
    /// bounds can be checked against true distances.
    fn setup() -> (hd_core::Dataset, ReferenceSet) {
        let data = generate(&DatasetProfile::GLOVE, 200, 1, 9).0;
        let refs = crate::reference::select(&data, 8, crate::RefSelection::Random, 4);
        (data, refs)
    }

    #[test]
    fn triangular_is_a_true_lower_bound() {
        let (data, refs) = setup();
        let mut qd = Vec::new();
        let mut od = Vec::new();
        for q in 0..20 {
            refs.distances_to(data.get(q), &mut qd);
            for o in 100..150 {
                refs.distances_to(data.get(o), &mut od);
                let lb = triangular_lb(&qd, &od);
                let actual = l2(data.get(q), data.get(o));
                assert!(
                    lb <= actual + 1e-3,
                    "triangular bound {lb} exceeds true distance {actual}"
                );
            }
        }
    }

    #[test]
    fn triangular_is_a_true_lower_bound_under_l1() {
        // The triangular bound holds in any metric space; check it end to
        // end with L1 reference distances against true L1 distances.
        use hd_core::distance::l1;
        use hd_core::metric::Metric;
        let data = generate(&DatasetProfile::GLOVE, 200, 1, 9)
            .0
            .with_metric(Metric::L1);
        let refs = crate::reference::select(&data, 8, crate::RefSelection::Random, 4);
        assert_eq!(refs.metric(), Metric::L1);
        let mut qd = Vec::new();
        let mut od = Vec::new();
        for q in 0..20 {
            refs.distances_to(data.get(q), &mut qd);
            for o in 100..150 {
                refs.distances_to(data.get(o), &mut od);
                let lb = triangular_lb(&qd, &od);
                let actual = l1(data.get(q), data.get(o));
                assert!(
                    lb <= actual + 1e-2 * (1.0 + actual),
                    "L1 triangular bound {lb} exceeds true distance {actual}"
                );
            }
        }
    }

    #[test]
    fn both_bounds_hold_under_cosine_normalization() {
        // Cosine reduces to L2 on the unit sphere, so *both* bounds apply —
        // against the normalized-space L2 distance (the space the index
        // filters in).
        use hd_core::metric::Metric;
        let data = generate(&DatasetProfile::GLOVE, 200, 1, 10)
            .0
            .with_metric(Metric::Cosine);
        let refs = crate::reference::select(&data, 8, crate::RefSelection::Random, 4);
        let mut qd = Vec::new();
        let mut od = Vec::new();
        for q in 0..15 {
            refs.distances_to(data.get(q), &mut qd);
            for o in 100..140 {
                refs.distances_to(data.get(o), &mut od);
                let actual = l2(data.get(q), data.get(o));
                let tri = triangular_lb(&qd, &od);
                let pto = ptolemaic_lb(&qd, &od, &refs);
                assert!(tri <= actual + 1e-4, "tri {tri} > {actual}");
                assert!(pto <= actual + 1e-3, "pto {pto} > {actual}");
            }
        }
    }

    #[test]
    fn ptolemaic_is_a_true_lower_bound() {
        let (data, refs) = setup();
        let mut qd = Vec::new();
        let mut od = Vec::new();
        for q in 0..20 {
            refs.distances_to(data.get(q), &mut qd);
            for o in 100..150 {
                refs.distances_to(data.get(o), &mut od);
                let lb = ptolemaic_lb(&qd, &od, &refs);
                let actual = l2(data.get(q), data.get(o));
                assert!(
                    lb <= actual + 1e-2,
                    "ptolemaic bound {lb} exceeds true distance {actual}"
                );
            }
        }
    }

    #[test]
    fn bounds_are_zero_for_identical_points() {
        let (data, refs) = setup();
        let mut qd = Vec::new();
        refs.distances_to(data.get(0), &mut qd);
        assert_eq!(triangular_lb(&qd, &qd), 0.0);
        assert_eq!(ptolemaic_lb(&qd, &qd, &refs), 0.0);
    }

    #[test]
    fn ptolemaic_tightness_on_average() {
        // §4.2: Ptolemaic yields tighter (≥) bounds than triangular on
        // average — on Euclidean data it dominates in aggregate.
        let (data, refs) = setup();
        let mut qd = Vec::new();
        let mut od = Vec::new();
        let (mut tri_sum, mut pto_sum) = (0.0f64, 0.0f64);
        for q in 0..10 {
            refs.distances_to(data.get(q), &mut qd);
            for o in 100..180 {
                refs.distances_to(data.get(o), &mut od);
                tri_sum += triangular_lb(&qd, &od) as f64;
                pto_sum += ptolemaic_lb(&qd, &od, &refs) as f64;
            }
        }
        assert!(
            pto_sum >= tri_sum,
            "Ptolemaic should be tighter in aggregate: {pto_sum} vs {tri_sum}"
        );
    }

    #[test]
    fn keep_smallest_selects_minima() {
        let items: Vec<(f32, u32)> = vec![(5.0, 0), (1.0, 1), (3.0, 2), (0.5, 3), (4.0, 4)];
        let mut kept = keep_smallest(items, 2);
        kept.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
        assert_eq!(kept.iter().map(|&(_, i)| i).collect::<Vec<_>>(), vec![3, 1]);
    }

    #[test]
    fn keep_smallest_noop_when_under_count() {
        let items: Vec<(f32, u32)> = vec![(5.0, 0), (1.0, 1)];
        assert_eq!(keep_smallest(items, 10).len(), 2);
    }

    #[test]
    fn keep_smallest_zero_count_keeps_everything() {
        // count = 0 is a degenerate request; the guard leaves input as-is
        // (callers always pass γ ≥ 1, asserted at the query boundary).
        let items: Vec<(f32, u32)> = vec![(5.0, 0), (1.0, 1)];
        assert_eq!(keep_smallest(items, 0).len(), 2);
    }

    #[test]
    fn keep_smallest_handles_nan_scores_without_panicking() {
        // A NaN lower bound can only arise from corrupted leaf data; the
        // selection must stay total and not panic.
        let items: Vec<(f32, u32)> = vec![(f32::NAN, 0), (1.0, 1), (2.0, 2)];
        let kept = keep_smallest(items, 2);
        assert_eq!(kept.len(), 2);
    }

    #[test]
    fn triangular_bound_is_tight_when_object_is_a_reference() {
        // For o = R_i the bound via R_i equals d(q, R_i) exactly: the filter
        // loses nothing on reference objects themselves.
        let (data, refs) = setup();
        let mut qd = Vec::new();
        let mut od = Vec::new();
        let q = data.get(3);
        refs.distances_to(q, &mut qd);
        for (i, rv) in refs.vectors.iter().enumerate() {
            refs.distances_to(rv, &mut od);
            let lb = triangular_lb(&qd, &od);
            assert!(
                (lb - qd[i]).abs() < 1e-4 * (1.0 + qd[i]),
                "bound {lb} should equal true distance {} for reference {i}",
                qd[i]
            );
        }
    }
}
