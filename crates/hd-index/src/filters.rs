//! Distance lower-bound filters (paper §4.2).
//!
//! Both filters run entirely on leaf-resident reference distances — they cost
//! CPU but **zero** additional IO, which is why the paper can afford to fetch
//! α·τ candidates and refine only κ ≤ τ·γ of them. A leaf stores each
//! distance as a one-byte cell ([`crate::rdb::RefGrid`]), so the query path
//! runs the interval forms, [`TriangularTable`] and
//! [`ptolemaic_interval_lb`]; each is at most the exact-distance bound of
//! any distances inside the cells, [`triangular_lb`] and [`ptolemaic_lb`].
//!
//! **Metric applicability.** The triangular bound needs only the triangle
//! inequality, so it is sound in *any* metric space — L2, L1, and
//! cosine-as-normalized-L2 alike — provided `q_dists`/`o_dists` were
//! computed in that metric's [`hd_core::metric::Metric::linear_dist`]. The
//! Ptolemaic bound rests on Ptolemy's inequality, a strictly Euclidean
//! property: sound for L2 and cosine (true L2 on the unit sphere), unsound
//! for L1 — [`crate::QueryParams::validate`] rejects that combination
//! before a query ever reaches this module.

use crate::rdb::{RefGrid, CELLS};
use crate::reference::ReferenceSet;

/// Triangular lower bound (Eq. 5):
/// `d(q, o) ≥ max_i |d(q, R_i) − d(o, R_i)|`.
///
/// `q_dists[i] = d(q, R_i)`, `o_dists[i] = d(o, R_i)`, all in one metric's
/// linear distance — the bound then holds in that metric.
#[inline]
pub fn triangular_lb(q_dists: &[f32], o_dists: &[f32]) -> f32 {
    debug_assert_eq!(q_dists.len(), o_dists.len());
    let mut best = 0.0f32;
    for (qa, ob) in q_dists.iter().zip(o_dists) {
        let lb = (qa - ob).abs();
        if lb > best {
            best = lb;
        }
    }
    best
}

/// The triangular bound over RDB-tree leaf codes, tabulated for one query.
///
/// A leaf stores `d(o, R_i)` only as a cell of the index's [`RefGrid`], so
/// the bound takes the least `|d(q, R_i) − x|` over the cell `[lo, hi]`:
/// `max(0, d(q, R_i) − hi, lo − d(q, R_i))`. Those are m × 256 numbers per
/// query, built once; an entry's bound is then the max of m lookups. It
/// never exceeds [`triangular_lb`] of any distances inside the cells, in
/// `f32` as in exact arithmetic: rounding is monotone, so `q − hi ≤ q − x`
/// and `lo − q ≤ x − q` survive it.
pub struct TriangularTable {
    /// Per reference, the bound of each cell.
    rows: Vec<[f32; CELLS]>,
}

impl TriangularTable {
    /// The table of a query whose reference distances are `q_dists`.
    pub fn new(grid: &RefGrid, q_dists: &[f32]) -> Self {
        debug_assert_eq!(grid.m(), q_dists.len());
        let mut rows = vec![[0.0f32; CELLS]; q_dists.len()];
        for (r, (row, &q)) in rows.iter_mut().zip(q_dists).enumerate() {
            for (bound, (lo, hi)) in row.iter_mut().zip(grid.cells(r)) {
                *bound = max(max(q - hi, lo - q), 0.0);
            }
        }
        Self { rows }
    }

    /// The bound of an entry whose leaf value is `codes`.
    #[inline]
    pub fn lower_bound(&self, codes: &[u8]) -> f32 {
        debug_assert_eq!(codes.len(), self.rows.len());
        let mut best = 0.0f32;
        for (row, &c) in self.rows.iter().zip(codes) {
            best = max(best, row[usize::from(c)]);
        }
        best
    }
}

/// `a.max(b)` without `f32::max`'s NaN handling.
#[inline(always)]
fn max(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
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

/// [`ptolemaic_lb`] over RDB-tree leaf codes: the least
/// `|d(q,R_i)·x_j − d(q,R_j)·x_i| / d(R_i,R_j)` over `x_i`, `x_j` inside
/// the cells `codes` name on `grid`.
///
/// The numerator is linear in `(x_i, x_j)`, rising in `x_j` and falling in
/// `x_i` (query distances are non-negative), so over the box
/// `[lo_i, hi_i] × [lo_j, hi_j]` its least absolute value is
/// `max(0, q_i·lo_j − q_j·hi_i, q_j·lo_i − q_i·hi_j)`. Each product and
/// difference rounds monotonically, so the result never exceeds
/// [`ptolemaic_lb`] of any distances inside the cells.
#[inline]
pub fn ptolemaic_interval_lb(
    q_dists: &[f32],
    codes: &[u8],
    grid: &RefGrid,
    refs: &ReferenceSet,
) -> f32 {
    let m = q_dists.len();
    debug_assert_eq!(codes.len(), m);
    debug_assert_eq!(refs.m(), m);
    let mut best = 0.0f32;
    for i in 0..m {
        let (lo_i, hi_i) = grid.cell(i, codes[i]);
        for j in (i + 1)..m {
            let denom = refs.dist(i, j);
            if denom <= f32::EPSILON {
                continue;
            }
            let (lo_j, hi_j) = grid.cell(j, codes[j]);
            let least = max(
                q_dists[i] * lo_j - q_dists[j] * hi_i,
                q_dists[j] * lo_i - q_dists[i] * hi_j,
            );
            best = max(best, least / denom);
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
    use proptest::prelude::*;

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

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The interval bounds over leaf codes are sound: interval
        /// triangular ≤ `triangular_lb` ≤ the true distance, and interval
        /// Ptolemaic ≤ `ptolemaic_lb` for any distances inside the cells,
        /// the stored ones and others spread over each cell by `spread`.
        /// The grid is fitted to the first `fit` points only, so the rest
        /// can fall outside its range into the open edge cells, as inserts
        /// after a build do, and reference 0's grid is one value: its min
        /// equals its max.
        #[test]
        fn interval_bounds_never_exceed_the_exact_ones(
            (dim, flat) in (2usize..=8).prop_flat_map(|dim| {
                (Just(dim), proptest::collection::vec(-100.0f32..100.0, dim * 40))
            }),
            fit in 2usize..20,
            seed in 0u64..1000,
            spread in proptest::collection::vec(0.0f32..=1.0, 5),
        ) {
            let data = hd_core::Dataset::from_flat(dim, flat);
            let refs = crate::reference::select(&data, 5, crate::RefSelection::Random, seed);
            let dists = |i: usize| {
                let mut d = Vec::new();
                refs.distances_to(data.get(i), &mut d);
                d
            };
            let mut ranges = vec![(f32::INFINITY, f32::NEG_INFINITY); 5];
            for i in 0..fit {
                for (range, d) in ranges.iter_mut().zip(dists(i)) {
                    *range = (range.0.min(d), range.1.max(d));
                }
            }
            ranges[0] = (ranges[0].0, ranges[0].0);
            let grid = RefGrid::fit(&ranges);
            for q in [0, fit, 39] {
                let qd = dists(q);
                let table = TriangularTable::new(&grid, &qd);
                for o in 0..40 {
                    let od = dists(o);
                    let codes = grid.encode_value(&od);
                    let actual = l2(data.get(q), data.get(o));
                    let tri = triangular_lb(&qd, &od);
                    let interval = table.lower_bound(&codes);
                    prop_assert!(interval <= tri, "interval {interval} > triangular {tri}");
                    prop_assert!(tri <= actual + 1e-3 * (1.0 + actual), "{tri} > {actual}");
                    // Distances inside the cells: the stored ones, and a
                    // point spread across each cell (capped above the
                    // open top cell, whose end no distance reaches).
                    let inside: Vec<f32> = (0..5)
                        .map(|r| {
                            let (lo, hi) = grid.cell(r, codes[r]);
                            let hi = hi.min(lo + 400.0);
                            (lo + spread[r] * (hi - lo)).clamp(lo, hi)
                        })
                        .collect();
                    let pto = ptolemaic_interval_lb(&qd, &codes, &grid, &refs);
                    for x in [&od, &inside] {
                        let exact = ptolemaic_lb(&qd, x, &refs);
                        prop_assert!(pto <= exact, "interval Ptolemaic {pto} > {exact}");
                    }
                }
            }
        }
    }
}
