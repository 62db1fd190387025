//! The Hilbert mapping itself (Butz algorithm, Hamilton formulation).
//!
//! State per refinement level: the *entry point* `e` (an n-bit corner label)
//! and *direction* `d` (an axis index) of the sub-hypercube the curve is
//! currently traversing. At each level the bit-slice `l` of the coordinates
//! is rotated into the canonical orientation, Gray-decoded into the position
//! `w` of the sub-cell along the curve, and `(e, d)` is advanced by the
//! standard recurrences on `w`.

use crate::bits::{gray, gray_inverse, mask, rotl, rotr, trailing_set_bits, BitReader, BitWriter};
use crate::key::HilbertKey;

/// A Hilbert curve over `dims` dimensions at refinement `order`
/// (each axis split into `2^order` cells).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HilbertCurve {
    dims: u32,
    order: u32,
}

impl HilbertCurve {
    /// # Panics
    /// Panics unless `1 <= dims <= 64` and `1 <= order <= 32`.
    pub fn new(dims: usize, order: u32) -> Self {
        assert!(
            (1..=64).contains(&dims),
            "dims must be in 1..=64 (got {dims})"
        );
        assert!(
            (1..=32).contains(&order),
            "order must be in 1..=32 (got {order})"
        );
        Self {
            dims: dims as u32,
            order,
        }
    }

    pub fn dims(&self) -> usize {
        self.dims as usize
    }

    pub fn order(&self) -> u32 {
        self.order
    }

    /// Key length in bytes.
    pub fn key_len(&self) -> usize {
        HilbertKey::byte_len(self.dims as usize, self.order)
    }

    /// Entry point of sub-cell `w` (Hamilton's `e(w)`).
    #[inline]
    fn entry(w: u64) -> u64 {
        if w == 0 {
            0
        } else {
            gray(2 * ((w - 1) / 2))
        }
    }

    /// Intra-cell direction of sub-cell `w` (Hamilton's `d(w)`).
    #[inline]
    fn direction(w: u64, n: u32) -> u32 {
        if w == 0 {
            0
        } else if w.is_multiple_of(2) {
            trailing_set_bits(w - 1) % n
        } else {
            trailing_set_bits(w) % n
        }
    }

    /// Maps grid coordinates (each `< 2^order`) to the Hilbert index.
    ///
    /// # Panics
    /// Panics if `point.len() != dims` or any coordinate overflows the grid.
    pub fn encode(&self, point: &[u64]) -> HilbertKey {
        let n = self.dims;
        assert_eq!(point.len(), n as usize, "dimensionality mismatch");
        let cell_mask = mask(self.order);
        for (i, &c) in point.iter().enumerate() {
            assert!(c <= cell_mask, "coordinate {i} = {c} exceeds 2^order - 1");
        }

        let mut writer = BitWriter::with_capacity(n as usize * self.order as usize);
        let mut e = 0u64;
        let mut d = 0u32;
        for level in (0..self.order).rev() {
            // Gather bit `level` of every coordinate: dim j contributes bit j.
            let mut l = 0u64;
            for (j, &c) in point.iter().enumerate() {
                l |= ((c >> level) & 1) << j;
            }
            // Rotate into the canonical orientation of this sub-hypercube.
            let t = rotr(l ^ e, d + 1, n);
            let w = gray_inverse(t);
            writer.push(w, n);
            // Advance the orientation state.
            e ^= rotl(Self::entry(w), d + 1, n);
            d = (d + Self::direction(w, n) + 1) % n;
        }
        HilbertKey::from_bytes(writer.finish())
    }

    /// Inverse mapping: Hilbert index back to grid coordinates.
    ///
    /// # Panics
    /// Panics if the key length does not match this curve.
    pub fn decode(&self, key: &HilbertKey) -> Vec<u64> {
        assert_eq!(key.len(), self.key_len(), "key length mismatch");
        let n = self.dims;
        let mut reader = BitReader::new(key.as_bytes());
        let mut point = vec![0u64; n as usize];
        let mut e = 0u64;
        let mut d = 0u32;
        for level in (0..self.order).rev() {
            let w = reader.read(n);
            let t = gray(w);
            let l = rotl(t, d + 1, n) ^ e;
            for (j, p) in point.iter_mut().enumerate() {
                *p |= ((l >> j) & 1) << level;
            }
            e ^= rotl(Self::entry(w), d + 1, n);
            d = (d + Self::direction(w, n) + 1) % n;
        }
        point
    }

    /// Quantizes a float sub-vector over per-axis domain `[lo, hi]` and
    /// encodes it. This is the paper's point→key path: project onto the
    /// partition, overlay the order-ω grid, take the Hilbert key.
    pub fn encode_floats(&self, v: &[f32], lo: f32, hi: f32) -> HilbertKey {
        let cells: Vec<u64> = v
            .iter()
            .map(|&x| crate::quantize(x, lo, hi, self.order))
            .collect();
        self.encode(&cells)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Walk the entire curve and return the visited points in key order.
    fn full_walk(dims: usize, order: u32) -> Vec<Vec<u64>> {
        let curve = HilbertCurve::new(dims, order);
        let cells = 1u64 << order;
        let total: u64 = (0..dims).fold(1u64, |acc, _| acc * cells);
        // Enumerate all grid points, key them, sort by key, return points.
        let mut keyed: Vec<(HilbertKey, Vec<u64>)> = Vec::with_capacity(total as usize);
        let mut p = vec![0u64; dims];
        loop {
            keyed.push((curve.encode(&p), p.clone()));
            // Odometer increment.
            let mut i = 0;
            loop {
                if i == dims {
                    break;
                }
                p[i] += 1;
                if p[i] < cells {
                    break;
                }
                p[i] = 0;
                i += 1;
            }
            if i == dims {
                break;
            }
        }
        keyed.sort_by(|a, b| a.0.cmp(&b.0));
        keyed.into_iter().map(|(_, p)| p).collect()
    }

    fn l1(a: &[u64], b: &[u64]) -> u64 {
        a.iter().zip(b).map(|(x, y)| x.abs_diff(*y)).sum()
    }

    #[test]
    fn curve_2d_order1_is_a_hilbert_walk() {
        let walk = full_walk(2, 1);
        assert_eq!(walk.len(), 4);
        // Each consecutive pair adjacent; all 4 cells visited once.
        for w in walk.windows(2) {
            assert_eq!(l1(&w[0], &w[1]), 1, "walk {walk:?}");
        }
    }

    #[test]
    fn curve_2d_order2_visits_16_cells_adjacently() {
        let walk = full_walk(2, 2);
        assert_eq!(walk.len(), 16);
        for w in walk.windows(2) {
            assert_eq!(l1(&w[0], &w[1]), 1, "walk {walk:?}");
        }
    }

    #[test]
    fn curve_3d_order2_adjacency() {
        let walk = full_walk(3, 2);
        assert_eq!(walk.len(), 64);
        for w in walk.windows(2) {
            assert_eq!(l1(&w[0], &w[1]), 1);
        }
    }

    #[test]
    fn curve_4d_order1_adjacency() {
        let walk = full_walk(4, 1);
        assert_eq!(walk.len(), 16);
        for w in walk.windows(2) {
            assert_eq!(l1(&w[0], &w[1]), 1);
        }
    }

    #[test]
    fn curve_5d_order2_bijective_and_adjacent() {
        let walk = full_walk(5, 2);
        assert_eq!(walk.len(), 1 << 10);
        let mut seen = std::collections::HashSet::new();
        for p in &walk {
            assert!(seen.insert(p.clone()), "duplicate point {p:?}");
        }
        for w in walk.windows(2) {
            assert_eq!(l1(&w[0], &w[1]), 1);
        }
    }

    #[test]
    fn roundtrip_high_dims() {
        // 64 dims at order 32 — the largest configuration Table 3 implies.
        let curve = HilbertCurve::new(64, 32);
        let p: Vec<u64> = (0..64)
            .map(|i| (i as u64 * 0x9E3779B9) & 0xFFFF_FFFF)
            .collect();
        let key = curve.encode(&p);
        assert_eq!(key.len(), 256);
        assert_eq!(curve.decode(&key), p);
    }

    #[test]
    fn first_cell_is_origin() {
        // Key 0 must decode to the origin: the curve starts at corner 0.
        for dims in [2usize, 3, 7, 16] {
            let curve = HilbertCurve::new(dims, 4);
            let zero = HilbertKey::from_raw(&vec![0u8; curve.key_len()]);
            assert_eq!(curve.decode(&zero), vec![0u64; dims]);
        }
    }

    #[test]
    fn encode_floats_uses_domain() {
        let curve = HilbertCurve::new(2, 8);
        let k1 = curve.encode_floats(&[0.0, 0.0], 0.0, 1.0);
        let k2 = curve.encode(&[0, 0]);
        assert_eq!(k1, k2);
        let k3 = curve.encode_floats(&[1.0, 1.0], 0.0, 1.0);
        let k4 = curve.encode(&[255, 255]);
        assert_eq!(k3, k4);
    }

    #[test]
    #[should_panic(expected = "exceeds 2^order")]
    fn overflowing_coordinate_panics() {
        HilbertCurve::new(2, 2).encode(&[4, 0]);
    }

    #[test]
    fn keys_of_nearby_points_share_prefixes_more_than_far_points() {
        // Locality smoke test: points in the same orthant agree on the top
        // level word; points in different orthants cannot.
        let curve = HilbertCurve::new(8, 8);
        let a: Vec<u64> = vec![10; 8];
        let b: Vec<u64> = vec![11; 8];
        let c: Vec<u64> = vec![200; 8];
        let (ka, kb, kc) = (curve.encode(&a), curve.encode(&b), curve.encode(&c));
        let prefix = |x: &HilbertKey, y: &HilbertKey| {
            x.as_bytes()
                .iter()
                .zip(y.as_bytes())
                .take_while(|(p, q)| p == q)
                .count()
        };
        assert!(prefix(&ka, &kb) > prefix(&ka, &kc));
    }
}
