//! RDB-tree entry encoding (paper §3.2).
//!
//! An RDB-tree leaf entry holds what the paper prescribes, with the
//! reference distances quantised to one byte each (DESIGN.md §3, "Leaf
//! layout"):
//!
//! * the object's **Hilbert key** (η·ω/8 bytes),
//! * the **pointer** to the full descriptor (8 bytes — here the object id,
//!   which addresses the vector heap file), and
//! * the **distances to the m reference objects** as one-byte cell codes on
//!   the index's [`RefGrid`] (m bytes; the paper's Eq. 4 charges 4·m).
//!
//! The Hilbert key and pointer together form the B+-tree key (appending the
//! id makes keys unique, so grid-cell collisions — two objects in the same
//! Hilbert cell — keep well-defined scan semantics); the code block is the
//! B+-tree value.

use hd_hilbert::HilbertCurve;
use std::io;

/// B+-tree key length for a Hilbert key of `hk_len` bytes.
pub fn key_len(hk_len: usize) -> usize {
    hk_len + 8
}

/// B+-tree value length for `m` reference distances: one code each.
pub fn val_len(m: usize) -> usize {
    m
}

/// Writes the B+-tree key `hilbert_key ++ id_be` of sub-vector `sub` into
/// `key`, which must be [`key_len`]`(curve.key_len())` bytes (big-endian id
/// keeps byte order total). A probe key for `seek` takes id 0, which sorts
/// before every real entry sharing the same Hilbert key.
pub fn encode_key_into(
    curve: &HilbertCurve,
    sub: &[f32],
    (lo, hi): (f32, f32),
    id: u64,
    key: &mut [u8],
) {
    let (hk, tail) = key.split_at_mut(curve.key_len());
    curve.encode_floats_into(sub, lo, hi, hk);
    tail.copy_from_slice(&id.to_be_bytes());
}

/// Extracts the object id from an encoded key.
pub fn decode_id(key: &[u8]) -> u64 {
    let off = key.len() - 8;
    u64::from_be_bytes(key[off..].try_into().expect("key too short"))
}

/// Cells per reference: the most one byte names.
pub const CELLS: usize = 256;

/// The upper end of the last cell. Every finite distance lies below it, and
/// unlike `+∞` it multiplies by a zero query distance to 0, not NaN, which
/// keeps the Ptolemaic interval bound defined.
const TOP: f32 = f32::MAX;

/// Per reference object, a grid of [`CELLS`] cells over the distances a
/// build saw to it: the value of an RDB-tree leaf entry is one cell code
/// per reference.
///
/// Reference `r`'s grid is a `floor` and a `step` (what `meta.txt`
/// persists). Its cell edges are `e_c = floor + c·step` in `f32`, for
/// `c = 1..=255`; cell `c` is `[e_c, e_{c+1})`. Cell 0 and cell 255 are open
/// on their outer sides, as in [`hd_core::grid`]: cell 0 reaches down to 0
/// (a distance is never negative) and cell 255 up to `f32::MAX`, so an
/// insert whose distance falls outside the build's range still lies inside
/// its cell. A distance's code is the number of edges at or below it,
/// computed against the same `f32` edges the bounds read, so
/// [`Self::cell`] contains the distance exactly, with no rounding slack.
#[derive(Debug, Clone, PartialEq)]
pub struct RefGrid {
    /// Per reference, `(floor, step)`.
    params: Vec<(f32, f32)>,
    /// Per reference, the edges `e_0..=e_256`, with `e_0 = 0` and
    /// `e_256 = f32::MAX` closing the open cells.
    edges: Vec<[f32; CELLS + 1]>,
}

impl RefGrid {
    /// The grid with `(floor, step)` per reference, as `meta.txt` stores
    /// it.
    ///
    /// # Errors
    /// `InvalidData` unless every floor and step is finite and every step
    /// is non-negative (a zero step puts edges 1..=255 on the floor).
    pub fn new(params: Vec<(f32, f32)>) -> io::Result<Self> {
        let mut edges = Vec::with_capacity(params.len());
        for (r, &(floor, step)) in params.iter().enumerate() {
            if !(floor.is_finite() && step.is_finite() && step >= 0.0) {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("reference {r} has a bad distance grid: floor {floor}, step {step}"),
                ));
            }
            let mut e = [0.0f32; CELLS + 1];
            for (c, edge) in e.iter_mut().enumerate().take(CELLS).skip(1) {
                *edge = floor + c as f32 * step;
            }
            e[CELLS] = TOP;
            edges.push(e);
        }
        Ok(Self { params, edges })
    }

    /// Fits reference `r`'s grid to `ranges[r] = (min, max)` of the
    /// distances a build saw to it: floor `min`, step `(max − min) / 256`,
    /// so the build's distances spread over all 256 cells. A range that is
    /// empty or not finite gets floor 0 and step 0.
    pub fn fit(ranges: &[(f32, f32)]) -> Self {
        let params = ranges
            .iter()
            .map(|&(min, max)| {
                if min.is_finite() && max.is_finite() && min <= max {
                    let step = (f64::from(max) - f64::from(min)) / CELLS as f64;
                    (min, step as f32)
                } else {
                    (0.0, 0.0)
                }
            })
            .collect();
        Self::new(params).expect("a fitted grid is finite")
    }

    /// References the grid covers.
    pub fn m(&self) -> usize {
        self.params.len()
    }

    /// Per reference, `(floor, step)`.
    pub fn params(&self) -> &[(f32, f32)] {
        &self.params
    }

    /// The code of `dist` on reference `r`'s grid: the number of edges
    /// `e_1..=e_255` at or below it (NaN gives 0).
    #[inline]
    pub fn encode(&self, r: usize, dist: f32) -> u8 {
        self.edges[r][1..CELLS].partition_point(|&e| e <= dist) as u8
    }

    /// The leaf value of an object whose distance to reference `r` is
    /// `dists[r]`: one code per reference.
    pub fn encode_value(&self, dists: &[f32]) -> Vec<u8> {
        debug_assert_eq!(dists.len(), self.m());
        dists
            .iter()
            .enumerate()
            .map(|(r, &d)| self.encode(r, d))
            .collect()
    }

    /// Cell `code` of reference `r` as `(lo, hi)`: every non-negative,
    /// finite distance with this code lies in `[lo, hi]`.
    #[inline]
    pub fn cell(&self, r: usize, code: u8) -> (f32, f32) {
        let e = &self.edges[r];
        (e[usize::from(code)], e[usize::from(code) + 1])
    }

    /// Every cell of reference `r` as `(lo, hi)`, in code order.
    pub fn cells(&self, r: usize) -> impl Iterator<Item = (f32, f32)> + '_ {
        let e = &self.edges[r];
        e[..CELLS].iter().copied().zip(e[1..].iter().copied())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The key of `sub` on `curve` over the domain `[0, 255]`.
    fn key(curve: &HilbertCurve, sub: &[f32], id: u64) -> Vec<u8> {
        let mut key = vec![0u8; key_len(curve.key_len())];
        encode_key_into(curve, sub, (0.0, 255.0), id, &mut key);
        key
    }

    #[test]
    fn key_roundtrip_and_order() {
        let curve = HilbertCurve::new(4, 8);
        let (a, b) = ([1.0, 2.0, 3.0, 4.0], [200.0, 3.0, 7.0, 9.0]);
        let ka = key(&curve, &a, 42);
        assert_eq!(decode_id(&ka), 42);
        assert_eq!(ka.len(), key_len(curve.key_len()));
        let hk_a = curve.encode(&[1, 2, 3, 4]);
        assert_eq!(&ka[..curve.key_len()], hk_a.as_bytes());
        // Probe key sorts at/under all ids of the same Hilbert key.
        let probe = key(&curve, &a, 0);
        assert!(probe <= ka);
        // Ordering primarily by Hilbert key.
        let hk_b = curve.encode(&[200, 3, 7, 9]);
        let kb = key(&curve, &b, 0);
        assert_eq!(
            hk_a.cmp(&hk_b),
            ka[..curve.key_len()].cmp(&kb[..curve.key_len()])
        );
    }

    #[test]
    fn same_cell_entries_ordered_by_id() {
        let curve = HilbertCurve::new(4, 8);
        let k1 = key(&curve, &[9.0; 4], 1);
        let k2 = key(&curve, &[9.0; 4], 2);
        assert!(k1 < k2);
    }

    #[test]
    fn value_roundtrip() {
        // Every distance lies inside the cell its code names: in range, on
        // and beside the edges, beyond both ends (the open edge cells), and
        // for a reference whose build range is a single value.
        let grid = RefGrid::fit(&[(2.0, 10.0), (5.0, 5.0), (0.0, 1e9)]);
        let mut dists = vec![
            0.0f32,
            -0.0,
            f32::from_bits(1),
            1.9,
            2.0,
            6.0,
            9.99,
            10.0,
            1e30,
        ];
        let (floor, step) = grid.params()[0];
        for c in [1.0f32, 17.0, 128.0, 255.0] {
            let e = floor + c * step;
            dists.extend([e, e.next_down(), e.next_up()]);
        }
        dists.extend([5.0f32.next_down(), 5.0, 5.0f32.next_up()]);
        assert_eq!(grid.encode_value(&[3.0, 5.0, 7.0]).len(), val_len(3));
        for r in 0..grid.m() {
            for &d in &dists {
                let (lo, hi) = grid.cell(r, grid.encode(r, d));
                assert!(
                    lo <= d && d <= hi,
                    "reference {r}: {d} outside [{lo}, {hi}]"
                );
            }
        }
        // The build's range spreads over all 256 cells.
        assert_eq!(grid.encode(0, 2.0), 0);
        assert_eq!(grid.encode(0, 10.0), 255);
        assert_eq!(grid.encode(0, 6.0), 128);
        assert_eq!(grid.encode(0, f32::NAN), 0);
        assert_eq!(grid.cell(0, 0).0, 0.0, "cell 0 is open below");
        assert_eq!(grid.cell(0, 255).1, f32::MAX, "cell 255 is open above");
    }

    #[test]
    fn bad_grids_are_invalid_data() {
        for params in [(f32::NAN, 1.0), (0.0, -1.0), (0.0, f32::INFINITY)] {
            let err = RefGrid::new(vec![(0.0, 1.0), params]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData);
            assert!(err.to_string().contains("reference 1"), "{err}");
        }
    }
}
