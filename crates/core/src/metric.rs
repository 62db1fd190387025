//! The metric layer: one enum, four distance functions, one contract.
//!
//! HD-Index's candidate pipeline is metric-generic by construction — the
//! triangular lower bound (Eq. 5) holds in *any* metric space, and the paper
//! frames the index for general Lp norms — so the workspace routes every
//! distance computation through a [`Metric`] instead of hardcoding L2:
//!
//! * [`Metric::L2`] — Euclidean distance, the paper's default (§2.1).
//! * [`Metric::L1`] — Manhattan distance. A true metric; the Ptolemaic
//!   bound (Eq. 6) does **not** hold (it requires Euclidean geometry), so
//!   query pipelines must fall back to triangular-only filtering.
//! * [`Metric::Cosine`] — cosine distance `1 − cos(a, b)`. Reduced to L2
//!   over unit-normalized vectors at build time
//!   ([`Metric::normalize_for_index`]): for unit vectors
//!   `‖a − b‖² = 2(1 − cos)`, so L2 machinery — Hilbert clustering,
//!   triangular *and* Ptolemaic reference bounds, the early-abandoning
//!   kernels — works unchanged and ranks identically to a brute-force
//!   cosine scan.
//! * [`Metric::Dot`] — (negated) inner product `−⟨a, b⟩`. **Not** a metric:
//!   no triangle inequality, so reference-distance filtering is unsound and
//!   HD-Index refuses it; and its partial sums are not monotone, so there is
//!   no early-abandoning kernel ([`Metric::supports_early_abandon`] is
//!   `false`). Brute-force and graph methods (linear scan, HNSW) serve it.
//!
//! ## Keys versus distances
//!
//! Search internals compare **keys** ([`Metric::key`]) — a cheap value
//! monotone in the reported distance (squared L2 for L2/Cosine, the L1 sum
//! for L1, the negated dot product for Dot) — and convert to the reported
//! distance only at API boundaries ([`Metric::finalize`]). This generalizes
//! the long-standing "compare squared, `sqrt` at the edge" convention of the
//! L2 path, and under L2 every dispatch lands on exactly the same kernels as
//! before, so results stay bit-identical.
//!
//! Metric-space machinery (reference selection, triangular/Ptolemaic
//! filters) instead needs the *linear* distance that satisfies the triangle
//! inequality: [`Metric::linear_dist`] (true L2 for L2/Cosine, L1 for L1;
//! panics for Dot, which has none).

use crate::distance::{
    dot, l1, l1_batch, l1_bounded_traced, l2, l2_sq, l2_sq_batch, l2_sq_bounded_traced, norm_sq,
};

/// The distance function an index was built under. See the module docs for
/// the contract each variant satisfies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Metric {
    /// Euclidean distance (the paper's default).
    #[default]
    L2,
    /// Manhattan distance.
    L1,
    /// Cosine distance `1 − cos(a, b)`, served as L2 over unit-normalized
    /// vectors.
    Cosine,
    /// Negated inner product `−⟨a, b⟩` (maximum inner-product search).
    Dot,
}

impl Metric {
    /// Every metric, in declaration order.
    pub const ALL: [Metric; 4] = [Metric::L2, Metric::L1, Metric::Cosine, Metric::Dot];

    /// The CLI / persistence name (`l2`, `l1`, `cosine`, `dot`).
    pub fn name(&self) -> &'static str {
        match self {
            Metric::L2 => "l2",
            Metric::L1 => "l1",
            Metric::Cosine => "cosine",
            Metric::Dot => "dot",
        }
    }

    /// Parses a CLI / persistence name (the inverse of [`Self::name`], plus
    /// the common aliases `euclidean`, `manhattan`, `cos`, `ip`,
    /// `inner-product`).
    pub fn parse(s: &str) -> Option<Metric> {
        match s.trim().to_ascii_lowercase().as_str() {
            "l2" | "euclidean" => Some(Metric::L2),
            "l1" | "manhattan" => Some(Metric::L1),
            "cosine" | "cos" => Some(Metric::Cosine),
            "dot" | "ip" | "inner-product" => Some(Metric::Dot),
            _ => None,
        }
    }

    /// Whether this metric satisfies the metric-space axioms (symmetry,
    /// triangle inequality) that reference-distance lower bounds require.
    /// Cosine qualifies because it is served as true L2 on the unit sphere.
    pub fn is_metric_space(&self) -> bool {
        !matches!(self, Metric::Dot)
    }

    /// Whether the Ptolemaic lower bound (Eq. 6) is sound under this metric.
    /// Ptolemy's inequality is a Euclidean property: it holds for L2 and for
    /// cosine-as-normalized-L2, but not for L1.
    pub fn supports_ptolemaic(&self) -> bool {
        matches!(self, Metric::L2 | Metric::Cosine)
    }

    /// Whether [`Self::key_bounded`] can abandon evaluations early. True for
    /// L2/L1/Cosine (non-negative terms ⇒ monotone partial sums); false for
    /// Dot, whose partial sums never lower-bound the final value.
    pub fn supports_early_abandon(&self) -> bool {
        !matches!(self, Metric::Dot)
    }

    /// Whether indexed vectors (and queries) must be unit-normalized. Only
    /// cosine: normalization is exactly what reduces it to L2.
    pub fn normalizes_vectors(&self) -> bool {
        matches!(self, Metric::Cosine)
    }

    /// Scales `v` to unit L2 norm in place when this metric requires
    /// normalized vectors; no-op otherwise. The zero vector is left as-is:
    /// it has no direction, so its cosine distance is undefined — under
    /// the L2 reduction it sits at key `‖0 − b‖² = 1` against every unit
    /// vector (reported distance 0.5, as if cos = 0.5). Callers who care
    /// should drop zero vectors before indexing; keeping them is at least
    /// deterministic and crash-free.
    pub fn normalize_for_index(&self, v: &mut [f32]) {
        if !self.normalizes_vectors() {
            return;
        }
        let n = norm_sq(v).sqrt();
        if n > 0.0 {
            for x in v {
                *x /= n;
            }
        }
    }

    /// Returns `query` ready for this metric's kernels: the slice itself
    /// for metrics without normalization, or a unit-normalized copy staged
    /// in `buf` for cosine. `buf` is only touched when normalization
    /// applies.
    pub fn normalized_query<'q>(&self, query: &'q [f32], buf: &'q mut Vec<f32>) -> &'q [f32] {
        if !self.normalizes_vectors() {
            return query;
        }
        buf.clear();
        buf.extend_from_slice(query);
        self.normalize_for_index(buf);
        buf
    }

    /// The internal comparison key: monotone in the reported distance and
    /// as cheap as the metric allows (no `sqrt`). Squared L2 for L2/Cosine,
    /// the L1 sum for L1, `−⟨a, b⟩` for Dot.
    #[inline]
    pub fn key(&self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Metric::L2 | Metric::Cosine => l2_sq(a, b),
            Metric::L1 => l1(a, b),
            Metric::Dot => -dot(a, b),
        }
    }

    /// Bounded key evaluation with the shared early-abandon contract: the
    /// result is exact whenever it is `<= bound`; a result `> bound` only
    /// lower-bounds the true key. Metrics without early abandonment (Dot)
    /// always evaluate fully, which satisfies the contract trivially.
    #[inline]
    pub fn key_bounded(&self, a: &[f32], b: &[f32], bound: f32) -> f32 {
        self.key_bounded_traced(a, b, bound).0
    }

    /// [`Self::key_bounded`] that also reports whether the evaluation was
    /// truly abandoned early (dimensions left unprocessed). Always `false`
    /// for Dot.
    #[inline]
    pub fn key_bounded_traced(&self, a: &[f32], b: &[f32], bound: f32) -> (f32, bool) {
        match self {
            Metric::L2 | Metric::Cosine => l2_sq_bounded_traced(a, b, bound),
            Metric::L1 => l1_bounded_traced(a, b, bound),
            Metric::Dot => (-dot(a, b), false),
        }
    }

    /// One-to-many keys from `query` to every row of a flat row-major
    /// `block`, each bit-identical to [`Self::key`] on that row.
    #[inline]
    pub fn key_batch(&self, query: &[f32], block: &[f32], out: &mut Vec<f32>) {
        match self {
            Metric::L2 | Metric::Cosine => l2_sq_batch(query, block, out),
            Metric::L1 => l1_batch(query, block, out),
            Metric::Dot => {
                let d = query.len();
                assert!(d > 0, "empty query");
                assert_eq!(block.len() % d, 0, "ragged candidate block");
                out.clear();
                out.reserve(block.len() / d);
                for row in block.chunks_exact(d) {
                    out.push(-dot(query, row));
                }
            }
        }
    }

    /// Converts an internal key to the reported distance: `sqrt` for L2,
    /// identity for L1 and Dot, `key / 2` for Cosine (for unit vectors
    /// `‖a − b‖² = 2(1 − cos)`, so the halved key *is* the cosine
    /// distance `1 − cos`).
    #[inline]
    pub fn finalize(&self, key: f32) -> f32 {
        match self {
            Metric::L2 => key.sqrt(),
            Metric::L1 | Metric::Dot => key,
            Metric::Cosine => key * 0.5,
        }
    }

    /// The reported distance in one call: `finalize(key(a, b))`.
    #[inline]
    pub fn dist(&self, a: &[f32], b: &[f32]) -> f32 {
        self.finalize(self.key(a, b))
    }

    /// The triangle-inequality-satisfying distance that reference-based
    /// lower bounds (triangular, Ptolemaic) and reference *selection* work
    /// in: true L2 for L2 and Cosine (reference distances of a cosine index
    /// are Euclidean distances between unit vectors), L1 for L1.
    ///
    /// # Panics
    /// Panics for [`Metric::Dot`], which satisfies no triangle inequality —
    /// callers must gate on [`Self::is_metric_space`] first.
    #[inline]
    pub fn linear_dist(&self, a: &[f32], b: &[f32]) -> f32 {
        match self {
            Metric::L2 | Metric::Cosine => l2(a, b),
            Metric::L1 => l1(a, b),
            Metric::Dot => panic!("the dot product is not a metric: no linear distance exists"),
        }
    }
}

impl std::fmt::Display for Metric {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vectors(dim: usize, seed: u64) -> (Vec<f32>, Vec<f32>) {
        let a: Vec<f32> = (0..dim)
            .map(|i| ((i as u64 * 37 + seed * 11) % 251) as f32 * 0.5 - 30.0)
            .collect();
        let b: Vec<f32> = (0..dim)
            .map(|i| ((i as u64 * 73 + seed * 29) % 241) as f32 * 0.25 - 15.0)
            .collect();
        (a, b)
    }

    #[test]
    fn names_round_trip() {
        for m in Metric::ALL {
            assert_eq!(Metric::parse(m.name()), Some(m));
            assert_eq!(format!("{m}"), m.name());
        }
        assert_eq!(Metric::parse("IP"), Some(Metric::Dot));
        assert_eq!(Metric::parse("euclidean"), Some(Metric::L2));
        assert_eq!(Metric::parse("no-such"), None);
    }

    #[test]
    fn l2_key_is_the_legacy_kernel_bitwise() {
        let (a, b) = vectors(131, 4);
        assert_eq!(Metric::L2.key(&a, &b), l2_sq(&a, &b));
        assert_eq!(Metric::L2.key_bounded(&a, &b, f32::INFINITY), l2_sq(&a, &b));
        assert_eq!(Metric::L2.finalize(4.0), 2.0);
        assert_eq!(Metric::L2.dist(&a, &b), l2(&a, &b));
    }

    #[test]
    fn capability_matrix() {
        assert!(Metric::L2.is_metric_space() && Metric::L2.supports_ptolemaic());
        assert!(Metric::L1.is_metric_space() && !Metric::L1.supports_ptolemaic());
        assert!(Metric::Cosine.is_metric_space() && Metric::Cosine.supports_ptolemaic());
        assert!(!Metric::Dot.is_metric_space() && !Metric::Dot.supports_ptolemaic());
        assert!(!Metric::Dot.supports_early_abandon());
        assert!(Metric::Cosine.normalizes_vectors());
        assert!(!Metric::L1.normalizes_vectors());
    }

    #[test]
    fn normalize_produces_unit_vectors_and_keeps_zero() {
        let mut v = vec![3.0f32, 4.0];
        Metric::Cosine.normalize_for_index(&mut v);
        assert!((norm_sq(&v) - 1.0).abs() < 1e-6);
        let mut z = vec![0.0f32; 4];
        Metric::Cosine.normalize_for_index(&mut z);
        assert!(z.iter().all(|&x| x == 0.0));
        // Non-normalizing metrics leave the vector untouched bit-for-bit.
        let mut w = vec![3.0f32, 4.0];
        Metric::L2.normalize_for_index(&mut w);
        assert_eq!(w, vec![3.0, 4.0]);
    }

    #[test]
    fn normalized_query_stages_only_for_cosine() {
        let q = [3.0f32, 4.0];
        let mut buf = Vec::new();
        let out = Metric::L2.normalized_query(&q, &mut buf);
        assert_eq!(out.as_ptr(), q.as_ptr(), "L2 must not copy");
        let mut buf = Vec::new();
        let out = Metric::Cosine.normalized_query(&q, &mut buf);
        assert!((out[0] - 0.6).abs() < 1e-6 && (out[1] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn cosine_key_equals_two_one_minus_cos() {
        let (mut a, mut b) = vectors(64, 7);
        Metric::Cosine.normalize_for_index(&mut a);
        Metric::Cosine.normalize_for_index(&mut b);
        let cos = dot(&a, &b);
        let key = Metric::Cosine.key(&a, &b);
        assert!(
            (key - 2.0 * (1.0 - cos)).abs() < 1e-5,
            "‖a−b‖² = 2(1−cos) violated: {key} vs {}",
            2.0 * (1.0 - cos)
        );
        // finalize halves the key into the cosine distance 1 − cos.
        assert!((Metric::Cosine.finalize(key) - (1.0 - cos)).abs() < 1e-5);
    }

    #[test]
    fn dot_key_negates_and_never_abandons() {
        let (a, b) = vectors(128, 9);
        assert_eq!(Metric::Dot.key(&a, &b), -dot(&a, &b));
        // Even a hopeless bound evaluates fully and exactly.
        let (k, early) = Metric::Dot.key_bounded_traced(&a, &b, f32::NEG_INFINITY);
        assert_eq!(k, -dot(&a, &b));
        assert!(!early);
        assert_eq!(Metric::Dot.finalize(-3.5), -3.5);
    }

    #[test]
    fn key_batch_matches_per_row_for_every_metric() {
        let dim = 24;
        let (q, _) = vectors(dim, 1);
        let mut block = Vec::new();
        let mut rows = Vec::new();
        for r in 0..6u64 {
            let (row, _) = vectors(dim, 40 + r);
            block.extend_from_slice(&row);
            rows.push(row);
        }
        let mut out = Vec::new();
        for m in Metric::ALL {
            m.key_batch(&q, &block, &mut out);
            assert_eq!(out.len(), rows.len(), "{m}");
            for (r, row) in rows.iter().enumerate() {
                assert_eq!(out[r], m.key(&q, row), "{m} row {r}");
            }
        }
    }

    #[test]
    fn linear_dist_satisfies_triangle_inequality_for_metric_spaces() {
        let pts: Vec<Vec<f32>> = (0..4).map(|s| vectors(16, s).0).collect();
        for m in [Metric::L2, Metric::L1] {
            for a in &pts {
                for b in &pts {
                    for c in &pts {
                        assert!(
                            m.linear_dist(a, c) <= m.linear_dist(a, b) + m.linear_dist(b, c) + 1e-3,
                            "{m} triangle inequality violated"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "not a metric")]
    fn dot_has_no_linear_distance() {
        Metric::Dot.linear_dist(&[1.0], &[2.0]);
    }
}
