//! Construction and query parameters, and the paper's leaf-order formula.

use hd_core::api::SearchRequest;
use hd_core::dataset::DatasetProfile;
use hd_core::metric::Metric;
use std::io;

/// Reference-object selection algorithm (§3.3, §5.2.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RefSelection {
    /// m uniformly random objects.
    Random,
    /// Sparse Spatial Selection with spread fraction `f` (paper default 0.3).
    Sss { f: f32 },
    /// SSS-Dyn: SSS followed by victim replacement driven by how well each
    /// reference lower-bounds distances of `pairs` sampled object pairs.
    SssDyn { f: f32, pairs: usize },
}

impl Default for RefSelection {
    fn default() -> Self {
        RefSelection::Sss { f: 0.3 }
    }
}

/// Which lower-bound filters the query pipeline applies (§4.2, §5.2.5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FilterKind {
    /// Triangular inequality only; the paper's recommended default
    /// ("β = γ"), trading a little MAP for ~2× faster queries.
    #[default]
    TriangularOnly,
    /// Triangular to β survivors, then Ptolemaic to γ — tighter bounds,
    /// same IO, more CPU.
    TriangularPtolemaic,
}

/// Index-construction parameters (paper §3, Table 3, §5.2).
#[derive(Debug, Clone, PartialEq)]
pub struct HdIndexParams {
    /// Number of partitions / RDB-trees τ (default 8; 16 for 500+ dims).
    pub tau: usize,
    /// Hilbert curve order ω (bits per dimension).
    pub hilbert_order: u32,
    /// Number of reference objects m (default 10, §5.2.3).
    pub num_references: usize,
    /// Selection algorithm for the reference set.
    pub ref_selection: RefSelection,
    /// Per-axis value domain `[lo, hi]` used for grid quantization.
    pub domain: (f32, f32),
    /// Use a seeded random dimension partitioning instead of contiguous
    /// (the §5.2.1 ablation).
    pub random_partitioning: Option<u64>,
    /// Buffer-pool capacity in pages for each RDB-tree and the heap file
    /// of the serving index (0 = paper measurement mode: every read is
    /// physical). Construction writes through uncached pools whatever this
    /// says.
    pub query_cache_pages: usize,
    /// RNG seed for reference selection.
    pub seed: u64,
}

impl HdIndexParams {
    /// The paper's recommended configuration for a dataset profile
    /// (Table 3 + §5.2.3/§5.2.4 defaults: m=10, τ=8 or 16, profile ω).
    pub fn for_profile(p: &DatasetProfile) -> Self {
        Self {
            tau: p.num_trees,
            hilbert_order: p.hilbert_order,
            num_references: 10,
            ref_selection: RefSelection::default(),
            domain: (p.lo, p.hi),
            random_partitioning: None,
            query_cache_pages: 0,
            seed: 0x4844_5F53_4545_4453, // deterministic default ("HD_SEEDS")
        }
    }

    /// Estimated peak memory of an in-memory build of `n` objects of
    /// dimensionality `dim` (`IndexStats::build_memory_bytes`): one tree's
    /// sort buffer — per entry the η·ω-bit Hilbert key, the 8-byte id, m
    /// one-byte distance codes and 48 bytes of `Vec` headers — plus the
    /// n×m `f32` reference-distance table.
    pub fn build_memory_bytes(&self, n: usize, dim: usize) -> usize {
        let m = self.num_references;
        let eta = dim.div_ceil(self.tau);
        let entry = eta * self.hilbert_order as usize / 8 + 8 + m + 48;
        n * (entry + 4 * m)
    }
}

/// Query-time parameters (§4, §5.2.5–§5.2.6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryParams {
    /// Candidates fetched per RDB-tree by Hilbert-key proximity (default
    /// 4096; the paper recommends 8192 for very large datasets).
    pub alpha: usize,
    /// Survivors of the triangular filter (only meaningful with
    /// [`FilterKind::TriangularPtolemaic`]).
    pub beta: usize,
    /// Survivors entering the final exact-refinement union (default 1024,
    /// α/γ = 4).
    pub gamma: usize,
    /// Number of neighbors to return (paper default k=100).
    pub k: usize,
    pub filter: FilterKind,
}

impl Default for QueryParams {
    fn default() -> Self {
        Self {
            alpha: 4096,
            beta: 2048,
            gamma: 1024,
            k: 100,
            filter: FilterKind::TriangularOnly,
        }
    }
}

impl QueryParams {
    /// Convenience: the recommended triangular-only pipeline with explicit
    /// α, γ and k.
    pub fn triangular(alpha: usize, gamma: usize, k: usize) -> Self {
        Self {
            alpha,
            beta: gamma,
            gamma,
            k,
            filter: FilterKind::TriangularOnly,
        }
    }

    /// Convenience: the combined triangular + Ptolemaic pipeline.
    pub fn ptolemaic(alpha: usize, beta: usize, gamma: usize, k: usize) -> Self {
        Self {
            alpha,
            beta,
            gamma,
            k,
            filter: FilterKind::TriangularPtolemaic,
        }
    }

    /// Rejects parameters that are degenerate or unsound for the index's
    /// metric. The query pipeline calls this once per query: `k`, `α`, and
    /// `γ` must be positive; in [`FilterKind::TriangularPtolemaic`] mode
    /// `β ≥ γ` — the triangular stage feeds β survivors into the Ptolemaic
    /// cut, so `β = 0` would yield zero candidates and `β < γ` silently
    /// caps survivors at β — and the metric must support the Ptolemaic
    /// bound (Ptolemy's inequality is Euclidean: it holds for L2 and
    /// cosine-as-normalized-L2, **not** for L1, where the "bound" can
    /// exceed the true distance and prune correct answers).
    ///
    /// # Errors
    /// `InvalidInput` naming the violated rule.
    pub fn validate(&self, metric: Metric) -> io::Result<()> {
        let invalid = |msg: String| Err(io::Error::new(io::ErrorKind::InvalidInput, msg));
        if self.k == 0 || self.alpha == 0 || self.gamma == 0 {
            return invalid("degenerate query params".to_string());
        }
        if self.filter == FilterKind::TriangularPtolemaic {
            if !metric.supports_ptolemaic() {
                return invalid(format!(
                    "the Ptolemaic filter is unsound under {metric}: Ptolemy's inequality only \
                     holds in Euclidean geometry (use FilterKind::TriangularOnly)"
                ));
            }
            if self.beta < self.gamma {
                return invalid(format!(
                    "beta ({}) must be >= gamma ({}) in the Ptolemaic pipeline",
                    self.beta, self.gamma
                ));
            }
        }
        Ok(())
    }

    /// Resolves a trait-level [`SearchRequest`] against these serve-time
    /// defaults for an index of `n` objects: `k` comes from the request,
    /// `candidates`/`refine` override α/γ, everything is clamped into
    /// `[1, n]` (the paper's `min(·, n)` convention), and β is re-derived
    /// from the filter kind (β = γ in triangular mode, `β ≥ γ` enforced in
    /// Ptolemaic mode). Shared by every `AnnIndex` impl that speaks
    /// [`QueryParams`] — `HdIndex` and the serving engine — so budget
    /// resolution cannot drift between them.
    pub fn resolve(&self, req: &SearchRequest, n: usize) -> QueryParams {
        let n = n.max(1);
        let mut qp = *self;
        qp.k = req.k;
        qp.alpha = req.candidates.unwrap_or(qp.alpha).clamp(1, n);
        qp.gamma = req.refine.unwrap_or(qp.gamma).clamp(1, n);
        match qp.filter {
            FilterKind::TriangularOnly => qp.beta = qp.gamma,
            FilterKind::TriangularPtolemaic => qp.beta = qp.beta.clamp(qp.gamma, n.max(qp.gamma)),
        }
        qp
    }
}

/// RDB-tree leaf order Ω per the paper's Eq. (4):
/// `(η·(ω/8) + 4·m + 8) · Ω + 16 + 1 ≤ B`. The built trees hold more: their
/// entries store one-byte distance codes, not 4-byte floats (DESIGN.md §3,
/// "Leaf layout").
///
/// `eta` is dimensions per curve, `omega` the Hilbert order, `m` the number
/// of reference objects, `page_size` the disk page size B.
pub fn rdb_leaf_order_eq4(eta: usize, omega: u32, m: usize, page_size: usize) -> usize {
    let key_bytes = eta * omega as usize / 8;
    let entry = key_bytes + 4 * m + 8;
    (page_size - 17) / entry
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq4_reproduces_table3_rows() {
        // Table 3 (page size 4 KB): dataset → (ω, η, m, Ω).
        assert_eq!(rdb_leaf_order_eq4(16, 8, 10, 4096), 63); // SIFTn
        assert_eq!(rdb_leaf_order_eq4(16, 32, 10, 4096), 36); // Yorck
        assert_eq!(rdb_leaf_order_eq4(64, 32, 10, 4096), 13); // SUN
        assert_eq!(rdb_leaf_order_eq4(24, 32, 10, 4096), 28); // Audio
                                                              // Enron and Glove rows of Table 3 (18 and 40) do not follow Eq. (4)
                                                              // with the row's own parameters; we record the formula's value and
                                                              // flag the discrepancy in EXPERIMENTS.md.
        assert_eq!(rdb_leaf_order_eq4(37, 16, 10, 4096), 33); // Enron (paper: 18)
        assert_eq!(rdb_leaf_order_eq4(10, 32, 10, 4096), 46); // Glove (paper: 40)
    }

    #[test]
    fn default_query_params_match_paper_recommendations() {
        let qp = QueryParams::default();
        assert_eq!(qp.alpha, 4096);
        assert_eq!(qp.gamma, 1024);
        assert_eq!(qp.alpha / qp.gamma, 4);
        assert_eq!(qp.k, 100);
        assert_eq!(qp.filter, FilterKind::TriangularOnly);
    }

    #[test]
    fn validate_accepts_the_convenience_constructors() {
        let ok = |qp: QueryParams, metric| qp.validate(metric).unwrap();
        ok(QueryParams::triangular(256, 64, 10), Metric::L2);
        ok(QueryParams::ptolemaic(256, 128, 64, 10), Metric::L2);
        // β = γ is the paper's triangular-only framing and stays legal.
        ok(QueryParams::ptolemaic(256, 64, 64, 10), Metric::L2);
        // The Ptolemaic bound is sound on the unit sphere (cosine = L2
        // there), and triangular-only is fine in any metric space.
        ok(QueryParams::ptolemaic(256, 128, 64, 10), Metric::Cosine);
        ok(QueryParams::triangular(256, 64, 10), Metric::L1);
        ok(QueryParams::triangular(256, 64, 10), Metric::Cosine);
    }

    /// Asserts `qp` is refused under `metric` with `InvalidInput` and a
    /// message containing `expected`.
    fn assert_rejected(qp: QueryParams, metric: Metric, expected: &str) {
        let err = qp.validate(metric).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains(expected), "{err}");
    }

    #[test]
    fn validate_rejects_zero_beta_in_ptolemaic_mode() {
        assert_rejected(
            QueryParams::ptolemaic(256, 0, 64, 10),
            Metric::L2,
            "beta (0) must be >= gamma",
        );
    }

    #[test]
    fn validate_rejects_beta_below_gamma() {
        assert_rejected(
            QueryParams::ptolemaic(256, 32, 64, 10),
            Metric::L2,
            "beta (32) must be >= gamma (64)",
        );
    }

    #[test]
    fn validate_rejects_zero_k() {
        assert_rejected(
            QueryParams::triangular(256, 64, 0),
            Metric::L2,
            "degenerate query params",
        );
    }

    #[test]
    fn validate_rejects_ptolemaic_under_l1() {
        assert_rejected(
            QueryParams::ptolemaic(256, 128, 64, 10),
            Metric::L1,
            "Ptolemaic filter is unsound under l1",
        );
    }

    #[test]
    fn profile_params_follow_table3() {
        let p = HdIndexParams::for_profile(&DatasetProfile::SIFT);
        assert_eq!(p.tau, 8);
        assert_eq!(p.hilbert_order, 8);
        assert_eq!(p.num_references, 10);
        let p = HdIndexParams::for_profile(&DatasetProfile::SUN);
        assert_eq!(p.tau, 16, "500+ dims doubles τ (§5.2.4)");
    }
}
