//! Distance kernels: L2 (the paper's distance function, §2.1), L1, and
//! inner product — the loops behind every [`crate::metric::Metric`].
//!
//! Squared L2 distances are used for comparisons wherever possible — `sqrt`
//! is monotone, so rankings are unaffected — and converted to true distances
//! only at API boundaries. L1 needs no such transform (the sum of absolute
//! differences *is* the distance), and the dot product is negated at the
//! metric layer so that "smaller is better" holds uniformly.
//!
//! Three kernel shapes back the refinement hot path (Algorithm 2 step (iv),
//! the dominant CPU+IO cost of a query), each provided per metric family:
//!
//! * [`l2_sq`] / [`l1`] / [`dot`] — one-to-one, the baselines everything
//!   else must agree with.
//! * [`l2_sq_batch`] / [`l1_batch`] — one-to-many over a flat row-major
//!   candidate block, the shape produced by page-granular heap fetches and
//!   kd-tree leaves.
//! * [`l2_sq_bounded`] / [`l1_bounded`] — partial-distance evaluation that
//!   abandons once the running sum exceeds a caller-supplied bound (the
//!   current top-k radius). The dot product has **no** bounded variant: its
//!   partial sums are not monotone (terms can be negative), so no prefix of
//!   the accumulation ever lower-bounds the final value.
//!
//! **Bounded-kernel contract.** `*_bounded(a, b, bound)` returns the exact
//! distance whenever that value is `<= bound`; any returned value `> bound`
//! means the evaluation may have been abandoned early and is only a *lower
//! bound* on the true distance. Because the partial sums are monotone
//! non-decreasing (each term is non-negative and IEEE addition is monotone),
//! an evaluation is never abandoned while the exact result could still be
//! `<= bound` — so a candidate rejected by a bounded kernel is exactly a
//! candidate a full evaluation would have rejected, and results are
//! bit-identical to the unbounded path.
//!
//! All kernels accumulate in the same eight-lane chunked order and reduce
//! lanes left-to-right, so full evaluations agree *bitwise* across kernels.
//! Every kernel runs one of two loop bodies, `sum_lanes` and
//! `sum_lanes_bounded`, written over `chunks_exact` so each chunk is a
//! fixed-length slice: the bounds checks fold away and LLVM keeps the eight
//! accumulators in one vector register (a 128-d `l2_sq` runs in about a
//! third of the time of the older indexed form, which LLVM left scalar).
//! Plain safe Rust; no `unsafe`, no platform intrinsics. These are the only
//! distance loops in the workspace: [`l2`] delegates to [`l2_sq`],
//! [`norm_sq`] to [`dot`], and every index structure dispatches here
//! through the metric layer.

/// Accumulator width of the chunked kernels (eight f32 lanes — two SSE or
/// one AVX2 register worth).
const LANES: usize = 8;

/// How many 8-lane chunks the bounded kernels process between bound checks
/// (32 dimensions). Checking every chunk would serialize the lanes through
/// a horizontal reduction; every fourth chunk keeps the check cost ~3%.
const BOUND_CHECK_CHUNKS: usize = 4;

/// Dimensions between two bound checks.
const CHECK_BLOCK: usize = LANES * BOUND_CHECK_CHUNKS;

/// The one lane-reduction order used by every kernel in this module: fixed
/// left-to-right, so full evaluations are bit-identical across kernels.
#[inline(always)]
fn reduce(acc: &[f32; LANES]) -> f32 {
    let mut s = 0.0f32;
    for &lane in acc {
        s += lane;
    }
    s
}

/// Adds `term(a[i], b[i])` into lane `i` for every full 8-lane chunk of
/// `a`/`b` (equal lengths, multiples of [`LANES`]).
#[inline(always)]
fn accumulate(acc: &mut [f32; LANES], a: &[f32], b: &[f32], term: impl Fn(f32, f32) -> f32) {
    for (ca, cb) in a.chunks_exact(LANES).zip(b.chunks_exact(LANES)) {
        for ((slot, &x), &y) in acc.iter_mut().zip(ca).zip(cb) {
            *slot += term(x, y);
        }
    }
}

/// The dimensions after the last full chunk, summed in index order.
#[inline(always)]
fn tail_sum(a: &[f32], b: &[f32], term: impl Fn(f32, f32) -> f32) -> f32 {
    let mut tail = 0.0f32;
    for (&x, &y) in a.iter().zip(b) {
        tail += term(x, y);
    }
    tail
}

/// Σ term(aᵢ, bᵢ): lane `i mod 8` accumulates full chunks, the tail sums
/// separately, and the result is `reduce(lanes) + tail`.
#[inline(always)]
fn sum_lanes(a: &[f32], b: &[f32], term: impl Fn(f32, f32) -> f32 + Copy) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dimensionality mismatch");
    let n = a.len().min(b.len());
    let full = n - n % LANES;
    let mut acc = [0.0f32; LANES];
    accumulate(&mut acc, &a[..full], &b[..full], term);
    reduce(&acc) + tail_sum(&a[full..n], &b[full..n], term)
}

/// [`sum_lanes`] that checks `reduce(lanes) > bound` after every
/// [`CHECK_BLOCK`] dimensions and after the last full chunk, returning the
/// partial sum and whether dimensions were left unprocessed. The lanes see
/// the same terms in the same order as [`sum_lanes`], so a completed
/// evaluation is bit-identical to it.
#[inline(always)]
fn sum_lanes_bounded(
    a: &[f32],
    b: &[f32],
    bound: f32,
    term: impl Fn(f32, f32) -> f32 + Copy,
) -> (f32, bool) {
    debug_assert_eq!(a.len(), b.len(), "dimensionality mismatch");
    let n = a.len().min(b.len());
    let (a, b) = (&a[..n], &b[..n]);
    let mut acc = [0.0f32; LANES];
    let blocks = a.chunks_exact(CHECK_BLOCK).zip(b.chunks_exact(CHECK_BLOCK));
    for (done, (ba, bb)) in (1..).zip(blocks) {
        accumulate(&mut acc, ba, bb, term);
        let partial = reduce(&acc);
        if partial > bound {
            // Lower bound only; "early" iff dimensions remain unprocessed.
            return (partial, done * CHECK_BLOCK < n);
        }
    }
    let checked = n - n % CHECK_BLOCK;
    let full = n - n % LANES;
    if full > checked {
        accumulate(&mut acc, &a[checked..full], &b[checked..full], term);
        let partial = reduce(&acc);
        if partial > bound {
            return (partial, full < n);
        }
    }
    (reduce(&acc) + tail_sum(&a[full..], &b[full..], term), false)
}

#[inline(always)]
fn sq_diff(x: f32, y: f32) -> f32 {
    let d = x - y;
    d * d
}

#[inline(always)]
fn abs_diff(x: f32, y: f32) -> f32 {
    (x - y).abs()
}

#[inline(always)]
fn product(x: f32, y: f32) -> f32 {
    x * y
}

/// Squared Euclidean distance between two equal-length vectors.
///
/// # Panics
/// Panics in debug builds if the slices differ in length.
#[inline]
pub fn l2_sq(a: &[f32], b: &[f32]) -> f32 {
    sum_lanes(a, b, sq_diff)
}

/// Bounded partial-distance evaluation: squared L2 distance, abandoning the
/// scan once the running sum strictly exceeds `bound`.
///
/// Contract (see module docs): the result is the exact squared distance
/// whenever it is `<= bound`; a result `> bound` only lower-bounds the true
/// distance. Pass `f32::INFINITY` to force a full (exact) evaluation —
/// useful while a top-k heap is not yet full.
///
/// # Panics
/// Panics in debug builds if the slices differ in length.
#[inline]
pub fn l2_sq_bounded(a: &[f32], b: &[f32], bound: f32) -> f32 {
    l2_sq_bounded_traced(a, b, bound).0
}

/// [`l2_sq_bounded`] that also reports whether the evaluation was truly
/// abandoned *early*: the returned flag is `true` iff the kernel exited
/// with dimensions still unprocessed (arithmetic actually saved). A full
/// evaluation whose final sum merely exceeds `bound` returns `false` — it
/// did all the work. Kernels shorter than one 8-lane chunk can never
/// abandon. This is the honest numerator of a pruning-rate metric.
#[inline]
pub fn l2_sq_bounded_traced(a: &[f32], b: &[f32], bound: f32) -> (f32, bool) {
    sum_lanes_bounded(a, b, bound, sq_diff)
}

/// One-to-many squared distances from `query` to every row of a flat
/// row-major `block` (`block.len()` must be a multiple of `query.len()`).
///
/// `out` is cleared and filled with one distance per row, each bit-identical
/// to `l2_sq(query, row)`. This is the scoring shape of a page-granular heap
/// fetch or a kd-tree leaf: one contiguous candidate block, scored in one
/// cache-friendly sweep.
///
/// # Panics
/// Panics if `query` is empty or `block` is ragged.
#[inline]
pub fn l2_sq_batch(query: &[f32], block: &[f32], out: &mut Vec<f32>) {
    batch(query, block, out, l2_sq);
}

/// Shared body of the batch kernels: `kernel(query, row)` per row.
#[inline(always)]
fn batch(query: &[f32], block: &[f32], out: &mut Vec<f32>, kernel: impl Fn(&[f32], &[f32]) -> f32) {
    let d = query.len();
    assert!(d > 0, "empty query");
    assert_eq!(block.len() % d, 0, "ragged candidate block");
    out.clear();
    out.extend(block.chunks_exact(d).map(|row| kernel(query, row)));
}

/// Euclidean (L2) distance between two equal-length vectors.
#[inline]
pub fn l2(a: &[f32], b: &[f32]) -> f32 {
    l2_sq(a, b).sqrt()
}

/// Manhattan (L1) distance between two equal-length vectors: Σ|aᵢ − bᵢ|.
///
/// Same eight-lane chunked accumulation as [`l2_sq`], so [`l1_bounded`] with
/// an infinite bound and [`l1_batch`] agree with this bitwise.
///
/// # Panics
/// Panics in debug builds if the slices differ in length.
#[inline]
pub fn l1(a: &[f32], b: &[f32]) -> f32 {
    sum_lanes(a, b, abs_diff)
}

/// Bounded partial-distance evaluation of the L1 distance: same contract as
/// [`l2_sq_bounded`] (exact iff the result is `<= bound`; monotone partial
/// sums, so abandonment never rejects a candidate a full evaluation would
/// have kept).
#[inline]
pub fn l1_bounded(a: &[f32], b: &[f32], bound: f32) -> f32 {
    l1_bounded_traced(a, b, bound).0
}

/// [`l1_bounded`] that also reports whether the evaluation was truly
/// abandoned early (dimensions left unprocessed) — the L1 counterpart of
/// [`l2_sq_bounded_traced`].
#[inline]
pub fn l1_bounded_traced(a: &[f32], b: &[f32], bound: f32) -> (f32, bool) {
    sum_lanes_bounded(a, b, bound, abs_diff)
}

/// One-to-many L1 distances from `query` to every row of a flat row-major
/// `block` — the L1 counterpart of [`l2_sq_batch`], bit-identical to
/// per-row [`l1`].
///
/// # Panics
/// Panics if `query` is empty or `block` is ragged.
#[inline]
pub fn l1_batch(query: &[f32], block: &[f32], out: &mut Vec<f32>) {
    batch(query, block, out, l1);
}

/// Squared L2 norm of a vector — [`dot`] of the vector with itself, so the
/// eight-lane kernel is the only accumulation loop.
#[inline]
pub fn norm_sq(a: &[f32]) -> f32 {
    dot(a, a)
}

/// Inner (dot) product of two equal-length vectors, in the same eight-lane
/// chunked accumulation order as every other kernel in this module.
///
/// # Panics
/// Panics in debug builds if the slices differ in length.
#[inline]
pub fn dot(a: &[f32], b: &[f32]) -> f32 {
    sum_lanes(a, b, product)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l2_sq_matches_naive() {
        let a: Vec<f32> = (0..37).map(|i| i as f32 * 0.5).collect();
        let b: Vec<f32> = (0..37).map(|i| (36 - i) as f32 * 0.25).collect();
        let naive: f32 = a.iter().zip(&b).map(|(x, y)| (x - y) * (x - y)).sum();
        assert!((l2_sq(&a, &b) - naive).abs() < 1e-3);
    }

    #[test]
    fn l2_zero_for_identical() {
        let a = vec![1.5f32; 128];
        assert_eq!(l2(&a, &a), 0.0);
    }

    #[test]
    fn l2_known_value() {
        // 3-4-5 triangle.
        assert!((l2(&[0.0, 0.0], &[3.0, 4.0]) - 5.0).abs() < 1e-6);
    }

    #[test]
    fn l2_symmetric() {
        let a = [1.0f32, -2.0, 3.5, 0.0, 7.25];
        let b = [0.5f32, 2.0, -3.5, 1.0, -7.25];
        assert_eq!(l2_sq(&a, &b), l2_sq(&b, &a));
    }

    #[test]
    fn dot_and_norm() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(norm_sq(&[3.0, 4.0]), 25.0);
    }

    #[test]
    fn triangle_inequality_holds() {
        // Sanity check that l2 is a metric on a few points.
        let pts = [
            vec![0.0f32, 1.0, 2.0],
            vec![5.0f32, -1.0, 0.5],
            vec![-3.0f32, 2.0, 2.0],
        ];
        for a in &pts {
            for b in &pts {
                for c in &pts {
                    assert!(l2(a, c) <= l2(a, b) + l2(b, c) + 1e-6);
                }
            }
        }
    }

    fn vectors(dim: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        let a: Vec<f32> = (0..dim)
            .map(|i| ((i as u64 * 37 + seed * 11) % 251) as f32 * 0.5)
            .collect();
        let b: Vec<f32> = (0..dim)
            .map(|i| ((i as u64 * 73 + seed * 29) % 241) as f32 * 0.25)
            .collect();
        (a, b)
    }

    #[test]
    fn bounded_with_infinite_bound_is_bitwise_l2_sq() {
        for dim in [1usize, 7, 8, 64, 128, 131, 1369] {
            let (a, b) = vectors(dim, dim as u64);
            assert_eq!(
                l2_sq_bounded(&a, &b, f32::INFINITY),
                l2_sq(&a, &b),
                "dim {dim}"
            );
        }
    }

    #[test]
    fn bounded_is_exact_when_result_at_most_bound() {
        for dim in [32usize, 128, 500] {
            let (a, b) = vectors(dim, 3);
            let exact = l2_sq(&a, &b);
            // Bound exactly at the true distance: never abandoned (the
            // partial sums are monotone and only strictly-greater aborts),
            // result bit-identical.
            assert_eq!(l2_sq_bounded(&a, &b, exact), exact, "dim {dim}");
            assert_eq!(l2_sq_bounded(&a, &b, exact * 2.0), exact, "dim {dim}");
        }
    }

    #[test]
    fn bounded_abandons_with_lower_bound_result() {
        let (a, b) = vectors(1024, 9);
        let exact = l2_sq(&a, &b);
        let (got, early) = l2_sq_bounded_traced(&a, &b, exact * 0.01);
        // Abandoned: the result exceeds the bound and lower-bounds the truth.
        assert!(got > exact * 0.01);
        assert!(got <= exact, "partial sum {got} exceeds exact {exact}");
        assert!(early, "a 1/100 bound on 1024 dims must abandon early");
        assert_eq!(got, l2_sq_bounded(&a, &b, exact * 0.01));
    }

    #[test]
    fn traced_flag_is_false_whenever_all_dims_were_processed() {
        // Completed evaluations — under, at, or over the bound — report
        // early = false: no arithmetic was saved.
        let (a, b) = vectors(128, 4);
        let exact = l2_sq(&a, &b);
        assert_eq!(l2_sq_bounded_traced(&a, &b, f32::INFINITY), (exact, false));
        assert_eq!(l2_sq_bounded_traced(&a, &b, exact), (exact, false));
        // Sub-chunk vectors (dim < 8) have no check points at all: the
        // kernel mathematically cannot abandon, whatever the bound.
        let (c, d) = vectors(5, 6);
        let (v, early) = l2_sq_bounded_traced(&c, &d, 0.0);
        assert_eq!(v, l2_sq(&c, &d));
        assert!(!early, "dim < 8 can never abandon early");
    }

    #[test]
    fn bounded_zero_bound_on_identical_vectors_is_exact_zero() {
        let a = vec![2.5f32; 96];
        // dist == bound == 0: must not be treated as abandoned by a caller
        // comparing `result <= bound`.
        assert_eq!(l2_sq_bounded(&a, &a, 0.0), 0.0);
    }

    #[test]
    fn batch_matches_per_row_kernel_bitwise() {
        let dim = 128;
        let (q, _) = vectors(dim, 1);
        let mut block = Vec::new();
        let mut rows = Vec::new();
        for r in 0..11u64 {
            let (row, _) = vectors(dim, 100 + r);
            block.extend_from_slice(&row);
            rows.push(row);
        }
        let mut out = Vec::new();
        l2_sq_batch(&q, &block, &mut out);
        assert_eq!(out.len(), rows.len());
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(out[r], l2_sq(&q, row), "row {r}");
        }
        // Reuse clears the previous contents.
        l2_sq_batch(&q, &block[..dim], &mut out);
        assert_eq!(out.len(), 1);
    }

    #[test]
    fn batch_on_empty_block_yields_nothing() {
        let q = vec![1.0f32; 16];
        let mut out = vec![3.0f32];
        l2_sq_batch(&q, &[], &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn l1_matches_naive() {
        for dim in [1usize, 7, 8, 64, 131] {
            let (a, b) = vectors(dim, dim as u64 + 1);
            let naive: f32 = a.iter().zip(&b).map(|(x, y)| (x - y).abs()).sum();
            assert!(
                (l1(&a, &b) - naive).abs() < 1e-2 * (1.0 + naive),
                "dim {dim}"
            );
        }
    }

    #[test]
    fn l1_is_a_metric_on_sample_points() {
        let pts = [
            vec![0.0f32, 1.0, 2.0],
            vec![5.0f32, -1.0, 0.5],
            vec![-3.0f32, 2.0, 2.0],
        ];
        for a in &pts {
            assert_eq!(l1(a, a), 0.0);
            for b in &pts {
                assert_eq!(l1(a, b), l1(b, a));
                for c in &pts {
                    assert!(l1(a, c) <= l1(a, b) + l1(b, c) + 1e-6);
                }
            }
        }
    }

    #[test]
    fn l1_bounded_with_infinite_bound_is_bitwise_l1() {
        for dim in [1usize, 8, 128, 131] {
            let (a, b) = vectors(dim, dim as u64);
            assert_eq!(l1_bounded(&a, &b, f32::INFINITY), l1(&a, &b), "dim {dim}");
            let exact = l1(&a, &b);
            assert_eq!(l1_bounded(&a, &b, exact), exact, "dim {dim}");
        }
    }

    #[test]
    fn l1_bounded_abandons_with_lower_bound_result() {
        let (a, b) = vectors(1024, 9);
        let exact = l1(&a, &b);
        let (got, early) = l1_bounded_traced(&a, &b, exact * 0.01);
        assert!(got > exact * 0.01);
        assert!(got <= exact, "partial sum {got} exceeds exact {exact}");
        assert!(early, "a 1/100 bound on 1024 dims must abandon early");
    }

    #[test]
    fn l1_batch_matches_per_row_kernel_bitwise() {
        let dim = 37;
        let (q, _) = vectors(dim, 2);
        let mut block = Vec::new();
        let mut rows = Vec::new();
        for r in 0..5u64 {
            let (row, _) = vectors(dim, 300 + r);
            block.extend_from_slice(&row);
            rows.push(row);
        }
        let mut out = Vec::new();
        l1_batch(&q, &block, &mut out);
        assert_eq!(out.len(), rows.len());
        for (r, row) in rows.iter().enumerate() {
            assert_eq!(out[r], l1(&q, row), "row {r}");
        }
    }

    #[test]
    fn chunked_dot_matches_naive_order_insensitively() {
        for dim in [1usize, 7, 8, 64, 131] {
            let (a, b) = vectors(dim, dim as u64 + 5);
            let naive: f64 = a.iter().zip(&b).map(|(x, y)| *x as f64 * *y as f64).sum();
            let got = dot(&a, &b) as f64;
            assert!(
                (got - naive).abs() < 1e-3 * (1.0 + naive.abs()),
                "dim {dim}: {got} vs {naive}"
            );
        }
    }

    #[test]
    fn norm_sq_is_self_dot() {
        let (a, _) = vectors(100, 3);
        assert_eq!(norm_sq(&a), dot(&a, &a));
    }
}
