//! Hilbert space-filling curve for arbitrary dimensionality and order.
//!
//! HD-Index passes one Hilbert curve through each η-dimensional partition
//! (paper §3.1), with η up to 64 and curve order ω up to 32 (Table 3); a key
//! therefore spans η·ω bits — up to 2048 — so keys are multi-precision byte
//! strings, not machine words.
//!
//! The mapping is computed with the Butz algorithm in Hamilton's formulation
//! (A. R. Butz, *Alternative algorithm for Hilbert's space-filling curve*,
//! IEEE ToC 1971 — the paper's reference \[19\]; C. Hamilton, *Compact Hilbert
//! indices*, Dalhousie TR CS-2006-07): the index is produced one ω-level at a
//! time by Gray-coding the bit-slice of the coordinates after rotating it
//! into the orientation of the current sub-hypercube.
//!
//! Those recurrences run a word at a time: a level's η-bit slice is
//! gathered eight coordinates per multiply from byte planes of the
//! coordinates, rotations are reduced without `%`, the Gray inverse takes
//! ⌈log₂ η⌉ shifts, and each level's word enters the key through a 64-bit
//! accumulator. [`HilbertCurve::encode_into`] and
//! [`HilbertCurve::encode_floats_into`] write into a caller's buffer and
//! allocate nothing; [`HilbertCurve::encode`] wraps the first in an owned
//! [`HilbertKey`].
//!
//! Guaranteed (and property-tested) invariants:
//!
//! * `decode(encode(p)) == p` — the mapping is a bijection;
//! * consecutive keys map to points at L1 distance exactly 1 — the defining
//!   adjacency property of the Hilbert curve (this is what makes key
//!   proximity imply spatial proximity, the soundness direction the index
//!   relies on);
//! * every key, and every decoded point, equals the bit-serial
//!   formulation's (one coordinate bit gathered and one key bit written at
//!   a time, every step taken modulo η), which the tests keep as the
//!   reference.

mod bits;
mod curve;
mod key;

pub use curve::HilbertCurve;
pub use key::HilbertKey;

/// Quantizes a float in `[lo, hi]` onto the `2^order`-cell grid of one axis
/// (paper §3.1: order-ω curves split every dimension into `2^ω` cells).
/// Values outside the domain clamp to the boundary cells.
pub fn quantize(v: f32, lo: f32, hi: f32, order: u32) -> u64 {
    debug_assert!(hi > lo, "degenerate domain");
    debug_assert!((1..=32).contains(&order), "order must be in 1..=32");
    let cells = 1u64 << order;
    let t = (((v - lo) as f64) / ((hi - lo) as f64)).clamp(0.0, 1.0);
    ((t * cells as f64) as u64).min(cells - 1)
}

#[cfg(test)]
mod reference;

#[cfg(test)]
mod quantize_tests {
    use super::*;

    #[test]
    fn boundaries_map_to_extreme_cells() {
        assert_eq!(quantize(0.0, 0.0, 255.0, 8), 0);
        assert_eq!(quantize(255.0, 0.0, 255.0, 8), 255);
    }

    #[test]
    fn out_of_domain_clamps() {
        assert_eq!(quantize(-5.0, 0.0, 1.0, 4), 0);
        assert_eq!(quantize(2.0, 0.0, 1.0, 4), 15);
    }

    #[test]
    fn midpoint_lands_mid_grid() {
        assert_eq!(quantize(0.5, 0.0, 1.0, 1), 1);
        assert_eq!(quantize(0.49, 0.0, 1.0, 1), 0);
        assert_eq!(quantize(0.5, -1.0, 1.0, 8), 192);
    }

    #[test]
    fn order_32_does_not_overflow() {
        assert_eq!(quantize(1.0, 0.0, 1.0, 32), (1u64 << 32) - 1);
        assert_eq!(quantize(0.0, 0.0, 1.0, 32), 0);
    }

    #[test]
    fn monotone_in_value() {
        let mut prev = 0;
        for i in 0..=100 {
            let c = quantize(i as f32 / 100.0, 0.0, 1.0, 16);
            assert!(c >= prev);
            prev = c;
        }
    }
}
