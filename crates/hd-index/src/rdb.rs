//! RDB-tree entry encoding (paper §3.2).
//!
//! An RDB-tree leaf entry holds exactly what the paper prescribes:
//!
//! * the object's **Hilbert key** (η·ω/8 bytes),
//! * the **pointer** to the full descriptor (8 bytes — here the object id,
//!   which addresses the vector heap file), and
//! * the **distances to the m reference objects** (4·m bytes).
//!
//! The Hilbert key and pointer together form the B+-tree key (appending the
//! id makes keys unique, so grid-cell collisions — two objects in the same
//! Hilbert cell — keep well-defined scan semantics); the distance block is
//! the B+-tree value.

use hd_hilbert::HilbertKey;

/// B+-tree key length for a Hilbert key of `hk_len` bytes.
pub fn key_len(hk_len: usize) -> usize {
    hk_len + 8
}

/// B+-tree value length for `m` reference distances.
pub fn val_len(m: usize) -> usize {
    4 * m
}

/// Encodes `hilbert_key ++ id_be` (big-endian id keeps byte order total).
pub fn encode_key(hk: &HilbertKey, id: u64) -> Vec<u8> {
    let mut out = Vec::with_capacity(hk.len() + 8);
    out.extend_from_slice(hk.as_bytes());
    out.extend_from_slice(&id.to_be_bytes());
    out
}

/// Encodes a probe key for `seek`: `hilbert_key ++ 0`, which sorts before
/// every real entry sharing the same Hilbert key.
pub fn encode_probe_key(hk: &HilbertKey) -> Vec<u8> {
    encode_key(hk, 0)
}

/// Extracts the object id from an encoded key.
pub fn decode_id(key: &[u8]) -> u64 {
    let off = key.len() - 8;
    u64::from_be_bytes(key[off..].try_into().expect("key too short"))
}

/// Encodes the reference-distance block.
pub fn encode_value(dists: &[f32]) -> Vec<u8> {
    let mut out = Vec::with_capacity(dists.len() * 4);
    for d in dists {
        out.extend_from_slice(&d.to_le_bytes());
    }
    out
}

/// Appends the decoded reference distances onto `out`.
pub fn decode_value_into(buf: &[u8], out: &mut Vec<f32>) {
    debug_assert_eq!(buf.len() % 4, 0);
    let floats = buf.chunks_exact(4);
    out.extend(floats.map(|c| f32::from_le_bytes([c[0], c[1], c[2], c[3]])));
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_hilbert::HilbertCurve;

    #[test]
    fn key_roundtrip_and_order() {
        let curve = HilbertCurve::new(4, 8);
        let hk_a = curve.encode(&[1, 2, 3, 4]);
        let hk_b = curve.encode(&[200, 3, 7, 9]);
        let ka = encode_key(&hk_a, 42);
        assert_eq!(decode_id(&ka), 42);
        assert_eq!(ka.len(), key_len(curve.key_len()));
        // Probe key sorts at/under all ids of the same Hilbert key.
        let probe = encode_probe_key(&hk_a);
        assert!(probe <= ka);
        // Ordering primarily by Hilbert key.
        let kb = encode_key(&hk_b, 0);
        assert_eq!(
            hk_a.cmp(&hk_b),
            ka[..curve.key_len()].cmp(&kb[..curve.key_len()])
        );
    }

    #[test]
    fn same_cell_entries_ordered_by_id() {
        let curve = HilbertCurve::new(4, 8);
        let hk = curve.encode(&[9, 9, 9, 9]);
        let k1 = encode_key(&hk, 1);
        let k2 = encode_key(&hk, 2);
        assert!(k1 < k2);
    }

    #[test]
    fn value_roundtrip() {
        // Ordinary distances, then −0.0, subnormals, ±∞ and a NaN payload.
        let dists = [
            0.5f32,
            1.25,
            1e9,
            0.0,
            -0.0,
            f32::from_bits(1),
            f32::from_bits(0x0040_0000),
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::from_bits(0x7fc0_1234),
        ];
        let buf = encode_value(&dists);
        assert_eq!(buf.len(), val_len(dists.len()));
        let mut out = Vec::new();
        decode_value_into(&buf, &mut out);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out), bits(&dists));
    }
}
