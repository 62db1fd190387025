//! The Hilbert mapping itself (Butz algorithm, Hamilton formulation).
//!
//! State per refinement level: the *entry point* `e` (an n-bit corner label)
//! and *direction* `d` (an axis index) of the sub-hypercube the curve is
//! currently traversing. At each level the bit-slice `l` of the coordinates
//! is rotated into the canonical orientation, Gray-decoded into the position
//! `w` of the sub-cell along the curve, and `(e, d)` is advanced by the
//! standard recurrences on `w`.
//!
//! The recurrences run a word at a time. The coordinates are first laid out
//! as byte planes (byte `b` of eight coordinates in one `u64`), so a level's
//! bit-slice is one multiply per eight coordinates ([`gather_bit`]). The
//! rotation `d + 1` is kept reduced modulo n by conditional subtraction, the
//! Gray inverse stops after ⌈log₂ n⌉ shifts, and each level's n-bit word
//! goes into the key through a 64-bit accumulator. The keys are the ones the
//! bit-serial formulation gives, bit for bit (the tests check this against a
//! copy of it).

use crate::bits::{
    gather_bit, gray, gray_inverse, mask, rotl, rotr, spread_bits, trailing_set_bits, WordReader,
    WordWriter,
};
use crate::key::HilbertKey;

/// Byte planes of up to 64 coordinates of up to 32 bits: `planes[b][g]`
/// holds byte `b` of coordinates `8g..8g + 8`, coordinate `8g + j` in byte
/// `j`.
type Planes = [[u64; 8]; 4];

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
            gray((w - 1) & !1)
        }
    }

    /// The rotation `d' + 1 (mod n)` of the next level, from this level's
    /// rotation `r = d + 1 (mod n)` and sub-cell `w`, where
    /// `d' = d + d(w) + 1 (mod n)` with Hamilton's intra-cell direction
    /// `d(w)`: the trailing set bits of `w - 1` for even `w`, of `w` for odd
    /// `w`, and 0 for `w = 0`. `(w - 1) | 1` names the right operand in all
    /// three cases (for `w = 0` the mask leaves n set bits, and n ≡ 0).
    #[inline]
    fn next_rotation(r: u32, w: u64, n: u32) -> u32 {
        let dir = trailing_set_bits((w.wrapping_sub(1) | 1) & mask(n));
        // r < n and dir <= n, so two subtractions reduce it.
        let mut s = r + dir + 1;
        if s >= n {
            s -= n;
        }
        if s >= n {
            s -= n;
        }
        s
    }

    /// The rotation of the first level: `d + 1 (mod n)` with `d = 0`.
    #[inline]
    fn first_rotation(n: u32) -> u32 {
        u32::from(n > 1)
    }

    /// Gray-inverse shifts a level word needs: ⌈log₂ n⌉.
    #[inline]
    fn gray_steps(n: u32) -> u32 {
        32 - (n - 1).leading_zeros()
    }

    /// Maps grid coordinates (each `< 2^order`) to the Hilbert index.
    ///
    /// # Panics
    /// Panics if `point.len() != dims` or any coordinate overflows the grid.
    pub fn encode(&self, point: &[u64]) -> HilbertKey {
        let mut bytes = vec![0u8; self.key_len()];
        self.encode_into(point, &mut bytes);
        HilbertKey::from_bytes(bytes)
    }

    /// [`Self::encode`] into a caller's buffer of [`Self::key_len`] bytes,
    /// with no allocation.
    ///
    /// # Panics
    /// Panics if `point.len() != dims`, any coordinate overflows the grid,
    /// or `out.len() != key_len()`.
    pub fn encode_into(&self, point: &[u64], out: &mut [u8]) {
        assert_eq!(point.len(), self.dims(), "dimensionality mismatch");
        let cell_mask = mask(self.order);
        for (i, &c) in point.iter().enumerate() {
            assert!(c <= cell_mask, "coordinate {i} = {c} exceeds 2^order - 1");
        }
        self.encode_cells(point.iter().copied(), out);
    }

    /// Quantizes a float sub-vector over per-axis domain `[lo, hi]` and
    /// encodes it into a caller's buffer of [`Self::key_len`] bytes, with no
    /// allocation. This is the paper's point→key path: project onto the
    /// partition, overlay the order-ω grid, take the Hilbert key.
    ///
    /// # Panics
    /// Panics if `v.len() != dims` or `out.len() != key_len()`.
    pub fn encode_floats_into(&self, v: &[f32], lo: f32, hi: f32, out: &mut [u8]) {
        assert_eq!(v.len(), self.dims(), "dimensionality mismatch");
        let order = self.order;
        self.encode_cells(v.iter().map(|&x| crate::quantize(x, lo, hi, order)), out);
    }

    /// The encoder proper, over `dims` in-range grid coordinates.
    fn encode_cells(&self, cells: impl Iterator<Item = u64>, out: &mut [u8]) {
        assert_eq!(out.len(), self.key_len(), "key buffer length mismatch");
        let n = self.dims;
        let groups = self.dims.div_ceil(8) as usize;
        let mut planes: Planes = [[0; 8]; 4];
        let used = &mut planes[..self.order.div_ceil(8) as usize];
        for (k, c) in cells.enumerate() {
            let (g, shift) = (k >> 3, 8 * (k & 7));
            for (b, plane) in used.iter_mut().enumerate() {
                plane[g] |= ((c >> (8 * b)) & 0xFF) << shift;
            }
        }

        let steps = Self::gray_steps(n);
        let mut writer = WordWriter::new(out);
        let mut e = 0u64;
        let mut r = Self::first_rotation(n);
        for level in (0..self.order).rev() {
            // Gather bit `level` of every coordinate: dim j contributes bit j.
            let (plane, bit) = (&planes[(level >> 3) as usize], level & 7);
            let mut l = 0u64;
            for (g, &p) in plane[..groups].iter().enumerate() {
                l |= gather_bit(p, bit) << (8 * g);
            }
            // Rotate into the canonical orientation of this sub-hypercube.
            let w = gray_inverse(rotr(l ^ e, r, n), steps);
            writer.push(w, n);
            // Advance the orientation state.
            e ^= rotl(Self::entry(w), r, n);
            r = Self::next_rotation(r, w, n);
        }
        writer.finish();
    }

    /// Inverse mapping: Hilbert index back to grid coordinates.
    ///
    /// # Panics
    /// Panics if the key length does not match this curve.
    pub fn decode(&self, key: &HilbertKey) -> Vec<u64> {
        assert_eq!(key.len(), self.key_len(), "key length mismatch");
        let n = self.dims;
        let groups = self.dims.div_ceil(8) as usize;
        let mut planes: Planes = [[0; 8]; 4];
        let mut reader = WordReader::new(key.as_bytes());
        let mut e = 0u64;
        let mut r = Self::first_rotation(n);
        for level in (0..self.order).rev() {
            let w = reader.read(n);
            let l = rotl(gray(w), r, n) ^ e;
            // Scatter bit j of the slice to bit `level` of coordinate j.
            let (plane, bit) = (&mut planes[(level >> 3) as usize], level & 7);
            for (g, p) in plane[..groups].iter_mut().enumerate() {
                *p |= spread_bits(l >> (8 * g)) << bit;
            }
            e ^= rotl(Self::entry(w), r, n);
            r = Self::next_rotation(r, w, n);
        }
        let mut point = vec![0u64; n as usize];
        for (g, coords) in point.chunks_mut(8).enumerate() {
            for (j, c) in coords.iter_mut().enumerate() {
                for (b, plane) in planes.iter().enumerate() {
                    *c |= ((plane[g] >> (8 * j)) & 0xFF) << (8 * b);
                }
            }
        }
        point
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use proptest::prelude::*;

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
        let mut k1 = vec![0u8; curve.key_len()];
        curve.encode_floats_into(&[0.0, 0.0], 0.0, 1.0, &mut k1);
        assert_eq!(k1, curve.encode(&[0, 0]).as_bytes());
        let mut k3 = vec![0xAA; curve.key_len()];
        curve.encode_floats_into(&[1.0, 1.0], 0.0, 1.0, &mut k3);
        assert_eq!(k3, curve.encode(&[255, 255]).as_bytes());
    }

    #[test]
    #[should_panic(expected = "key buffer length mismatch")]
    fn short_key_buffer_panics() {
        HilbertCurve::new(16, 8).encode_into(&[0; 16], &mut [0; 15]);
    }

    /// Deterministic pseudo-random grid point (splitmix64).
    fn point(dims: usize, order: u32, seed: u64) -> Vec<u64> {
        let mut state = seed;
        (0..dims)
            .map(|_| {
                state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let mut z = state;
                z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
                (z ^ (z >> 31)) & crate::bits::mask(order)
            })
            .collect()
    }

    /// `encode_into` writes the bit-serial reference's key (over a buffer
    /// full of garbage), and `decode` inverts it as the reference does.
    fn assert_matches_reference(dims: usize, order: u32, p: &[u64]) {
        let curve = HilbertCurve::new(dims, order);
        let want = reference::encode(p, order);
        let mut got = vec![0xA5u8; curve.key_len()];
        curve.encode_into(p, &mut got);
        assert_eq!(got, want, "encode, η = {dims}, ω = {order}, p = {p:?}");
        let key = HilbertKey::from_raw(&want);
        assert_eq!(curve.decode(&key), reference::decode(&want, dims, order));
        assert_eq!(curve.decode(&key), p, "decode, η = {dims}, ω = {order}");
    }

    #[test]
    fn named_shapes_match_the_bit_serial_reference() {
        // Table 3's shapes and the edges, then shapes whose η·ω is not a
        // multiple of 8 (the key ends in a padded byte).
        let shapes = [
            (1, 1),
            (16, 8),
            (37, 16),
            (63, 9),
            (64, 32),
            (3, 5),
            (7, 3),
            (9, 7),
            (13, 31),
            (61, 1),
            (1, 32),
        ];
        for (dims, order) in shapes {
            for seed in 0..64 {
                assert_matches_reference(dims, order, &point(dims, order, seed));
            }
            let top = crate::bits::mask(order);
            assert_matches_reference(dims, order, &vec![0; dims]);
            assert_matches_reference(dims, order, &vec![top; dims]);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn encode_and_decode_match_the_bit_serial_reference(
            dims in 1usize..=64,
            order in 1u32..=32,
            seed in any::<u64>(),
        ) {
            assert_matches_reference(dims, order, &point(dims, order, seed));
        }
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
