//! A uniform scalar grid: one byte per dimension per vector, and a sound
//! lower bound on the distance from a query to any vector in a cell.
//!
//! The grid splits the per-axis domain `[lo, hi]` into `cells` equal cells
//! (at most 256, so a code is one `u8`). This is the VA-file's vector
//! approximation (Weber, Schek & Blott, VLDB 1998): the distance from a
//! query to a code's cell box lower-bounds the distance to every vector the
//! code can stand for, so a scan over codes can skip exact evaluations.
//!
//! **Open edge cells.** Values below `lo` encode to cell 0 and values above
//! `hi` to the last cell, so those two cells are unbounded on their outer
//! side: the bound treats cell 0 as `(-∞, lo + step)` and the last cell as
//! `[hi - step, +∞)`. A query coordinate is clamped into the domain before
//! the gaps are measured, which is what makes the outer sides open — a
//! point beyond an edge can never get a bound larger than its true distance,
//! wherever the query lies.
//!
//! **Soundness under rounding.** [`CellQuery::lower_bound`] is ≤ the
//! metric's kernel key ([`Metric::key`]) for any vector its code was
//! encoded from, including the kernel's own f32 rounding: every per-axis
//! gap is shrunk by [`GAP_SLACK`] cells (covering the rounding of `encode`
//! and of the query's cell coordinate), and the sum is deflated by a
//! relative slack that covers the rounding of both sums.

use crate::metric::Metric;

/// Cells by which every per-axis gap is shrunk: far above the rounding of
/// a cell coordinate (a few ulps of a value ≤ 256, about 1e-4 cells), far
/// below a cell.
pub const GAP_SLACK: f32 = 1.0 / 256.0;

/// Lanes of the bound's accumulator, as in the distance kernels.
const LANES: usize = 8;

/// 2²³: adding it to a float in `[0, 2²³)` rounds the float to an integer
/// held in the sum's low mantissa bits (one ulp of the sum is 1).
const ROUND: f32 = 8_388_608.0;

/// A uniform grid of `cells` equal cells over `[lo, hi]` on every axis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformGrid {
    lo: f32,
    /// Cells per value unit.
    inv_step: f32,
    /// Value units per cell.
    step: f32,
    /// The last cell's index, as a float.
    last: f32,
    cells: u32,
}

impl UniformGrid {
    /// The most cells a one-byte code can name.
    pub const MAX_CELLS: u32 = 256;

    /// A grid of `cells` cells over `domain = (lo, hi)`.
    ///
    /// # Panics
    /// Panics unless `lo < hi` (both finite) and `2 <= cells <= 256`.
    pub fn new(domain: (f32, f32), cells: u32) -> Self {
        let (lo, hi) = domain;
        assert!(
            lo.is_finite() && hi.is_finite() && lo < hi,
            "degenerate grid domain {domain:?}"
        );
        assert!(
            (2..=Self::MAX_CELLS).contains(&cells),
            "a one-byte grid has 2..=256 cells, not {cells}"
        );
        let step = (f64::from(hi) - f64::from(lo)) / f64::from(cells);
        Self {
            lo,
            inv_step: (1.0 / step) as f32,
            step: step as f32,
            last: (cells - 1) as f32,
            cells,
        }
    }

    pub fn cells(&self) -> u32 {
        self.cells
    }

    /// The cell holding `v`: `⌊(v − lo) / step⌋`, clamped into the grid.
    /// Values outside the domain land in the edge cells (NaN in cell 0).
    #[inline]
    pub fn encode(&self, v: f32) -> u8 {
        // Clamp first (NaN fails both tests and becomes 0), then floor
        // with the ROUND trick, which vectorises where a float-to-int `as`
        // (saturating, NaN-checked) does not: round to the nearest
        // integer, step down one if that rounded up, read the low bits.
        let t = (v - self.lo) * self.inv_step;
        let t = if t > 0.0 { t } else { 0.0 };
        let t = if t < self.last { t } else { self.last };
        let r = (t + ROUND) - ROUND;
        let r = if r > t { r - 1.0 } else { r };
        (r + ROUND).to_bits() as u8
    }

    /// Appends the code of every coordinate of `v` to `out`.
    pub fn encode_into(&self, v: &[f32], out: &mut Vec<u8>) {
        out.extend(v.iter().map(|&x| self.encode(x)));
    }

    /// Puts `query` into cell units once, ready to bound any number of
    /// codes under `metric`'s key (squared L2 for L2 and cosine, the L1 sum
    /// for L1).
    ///
    /// # Panics
    /// Panics for [`Metric::Dot`], whose key has no cell bound (its terms
    /// can be negative).
    pub fn query(&self, metric: Metric, query: &[f32]) -> CellQuery {
        let squared = match metric {
            Metric::L2 | Metric::Cosine => true,
            Metric::L1 => false,
            Metric::Dot => panic!("the dot product has no cell lower bound"),
        };
        let top = self.cells as f32;
        let (mut below, mut above) = (
            Vec::with_capacity(query.len()),
            Vec::with_capacity(query.len()),
        );
        for &q in query {
            // Clamping opens the edge cells' outer sides (module docs).
            let t = ((q - self.lo) * self.inv_step).clamp(0.0, top);
            below.push(t + GAP_SLACK);
            above.push(t - 1.0 - GAP_SLACK);
        }
        // Both sums carry at most (d/8 + 8 + d mod 8) roundings of relative
        // size 2^-24, plus a few per term; 8 ulps per dimension covers both.
        let deflate = 1.0 - (query.len() as f32 + 8.0) * 4.0 * f32::EPSILON;
        let scale = if squared {
            self.step * self.step
        } else {
            self.step
        };
        CellQuery {
            below,
            above,
            scale: scale * deflate,
            squared,
        }
    }
}

/// A query in cell units ([`UniformGrid::query`]).
#[derive(Debug, Clone)]
pub struct CellQuery {
    /// Per axis, the clamped cell coordinate plus [`GAP_SLACK`]: a code `c`
    /// lies above the query by `c − below`.
    below: Vec<f32>,
    /// Per axis, the clamped cell coordinate minus one minus
    /// [`GAP_SLACK`]: a code `c` lies below the query by `above − c`.
    above: Vec<f32>,
    /// Cell units → key units (step² or step), deflated by the rounding
    /// slack.
    scale: f32,
    squared: bool,
}

impl CellQuery {
    /// A lower bound, in key units, on the distance from the query to any
    /// vector whose codes are `code` (one per dimension). Never larger
    /// than the metric's kernel key for such a vector (module docs).
    #[inline]
    pub fn lower_bound(&self, code: &[u8]) -> f32 {
        let sum = if self.squared {
            self.gap_sum(code, |g| g * g)
        } else {
            self.gap_sum(code, |g| g)
        };
        sum * self.scale
    }

    /// Σ term(gap) over the axes, eight lanes at a time like the kernels
    /// (written over `chunks_exact` so it vectorises).
    #[inline(always)]
    fn gap_sum(&self, code: &[u8], term: impl Fn(f32) -> f32 + Copy) -> f32 {
        debug_assert_eq!(code.len(), self.below.len(), "dimensionality mismatch");
        let n = code.len().min(self.below.len());
        let full = n - n % LANES;
        let gap = |c: u8, below: f32, above: f32| {
            let c = f32::from(c);
            term(max(max(c - below, above - c), 0.0))
        };
        let mut acc = [0.0f32; LANES];
        let chunks = code[..full]
            .chunks_exact(LANES)
            .zip(self.below[..full].chunks_exact(LANES))
            .zip(self.above[..full].chunks_exact(LANES));
        for ((cc, cb), ca) in chunks {
            for (((slot, &c), &b), &a) in acc.iter_mut().zip(cc).zip(cb).zip(ca) {
                *slot += gap(c, b, a);
            }
        }
        let mut sum = 0.0f32;
        for lane in acc {
            sum += lane;
        }
        for ((&c, &b), &a) in code[full..n]
            .iter()
            .zip(&self.below[full..n])
            .zip(&self.above[full..n])
        {
            sum += gap(c, b, a);
        }
        sum
    }
}

/// `a.max(b)` without `f32::max`'s NaN handling, which keeps the loop a
/// plain vector max.
#[inline(always)]
fn max(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_is_floor_clamped_into_the_grid() {
        let g = UniformGrid::new((0.0, 256.0), 256);
        assert_eq!(g.encode(0.0), 0);
        assert_eq!(g.encode(0.99), 0);
        assert_eq!(g.encode(1.0), 1);
        assert_eq!(g.encode(255.5), 255);
        assert_eq!(g.encode(256.0), 255, "hi lands in the last cell");
        assert_eq!(g.encode(-7.0), 0);
        assert_eq!(g.encode(1e30), 255);
        assert_eq!(g.encode(f32::INFINITY), 255);
        assert_eq!(g.encode(f32::NAN), 0);
        let coarse = UniformGrid::new((-1.0, 1.0), 4);
        let mut out = Vec::new();
        coarse.encode_into(&[-1.0, -0.4, 0.2, 0.9, 3.0], &mut out);
        assert_eq!(out, vec![0, 1, 2, 3, 3]);
    }

    #[test]
    fn encode_matches_a_saturating_cast() {
        // The plain formula, which the ROUND trick must reproduce: `as`
        // saturates (negative and NaN give 0), then the last cell caps it.
        for (domain, cells) in [
            ((0.0f32, 255.0f32), 256u32),
            ((-1.0, 1.0), 256),
            ((-3.7, 12.1), 5),
        ] {
            let g = UniformGrid::new(domain, cells);
            let reference = |v: f32| (((v - g.lo) * g.inv_step) as u32).min(cells - 1) as u8;
            let near_edges = (-2 * cells as i32..4 * cells as i32).flat_map(|i| {
                let v = domain.0 + i as f32 * 0.5 * g.step;
                [v, v.next_up(), v.next_down()]
            });
            let anywhere = (0..=u32::MAX).step_by(65_521).map(f32::from_bits);
            for v in near_edges.chain(anywhere) {
                assert_eq!(g.encode(v), reference(v), "{v} in {domain:?}/{cells}");
            }
        }
    }

    #[test]
    fn bound_is_zero_inside_the_cell_and_grows_with_the_gap() {
        let g = UniformGrid::new((0.0, 8.0), 8);
        let code = [g.encode(2.5)];
        assert_eq!(g.query(Metric::L2, &[2.9]).lower_bound(&code), 0.0);
        // Three whole cells above the cell's top edge, less the slack.
        let lb = g.query(Metric::L2, &[6.0]).lower_bound(&code);
        assert!(lb > 8.9 && lb <= 9.0, "{lb}");
        let lb1 = g.query(Metric::L1, &[6.0]).lower_bound(&code);
        assert!(lb1 > 2.9 && lb1 <= 3.0, "{lb1}");
    }

    #[test]
    fn edge_cells_are_open_on_their_outer_side() {
        let g = UniformGrid::new((0.0, 255.0), 256);
        // Query and point both beyond the top edge: a closed edge cell
        // would put a bound of ~745² on a true distance of 0.
        let code = [g.encode(1000.0)];
        assert_eq!(g.query(Metric::L2, &[1000.0]).lower_bound(&code), 0.0);
        let code = [g.encode(-50.0)];
        assert_eq!(g.query(Metric::L1, &[-80.0]).lower_bound(&code), 0.0);
        // The inner side stays closed: a point beyond the top edge is at
        // least the cell's bottom edge away from a query at 0.
        let lb = g.query(Metric::L1, &[0.0]).lower_bound(&[g.encode(1000.0)]);
        assert!(lb > 250.0 && lb <= 1000.0, "{lb}");
    }

    #[test]
    #[should_panic(expected = "no cell lower bound")]
    fn dot_has_no_cell_bound() {
        UniformGrid::new((0.0, 1.0), 16).query(Metric::Dot, &[0.5]);
    }

    #[test]
    #[should_panic(expected = "2..=256 cells")]
    fn more_cells_than_a_byte_names_are_refused() {
        UniformGrid::new((0.0, 1.0), 257);
    }
}
