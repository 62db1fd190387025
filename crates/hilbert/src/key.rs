//! Multi-precision Hilbert keys.

/// A Hilbert index of `dims × order` bits, stored MSB-first so that byte
/// comparison equals numeric comparison. This is exactly the key stored in
/// RDB-tree nodes (η·ω/8 bytes per key, paper Eq. 4).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct HilbertKey {
    bytes: Box<[u8]>,
}

impl HilbertKey {
    pub(crate) fn from_bytes(bytes: Vec<u8>) -> Self {
        Self {
            bytes: bytes.into_boxed_slice(),
        }
    }

    /// Key length in bytes for a `dims`-dimensional order-`order` curve.
    pub fn byte_len(dims: usize, order: u32) -> usize {
        (dims * order as usize).div_ceil(8)
    }

    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.bytes.is_empty()
    }

    /// Interprets up to the first 16 bytes as a big-endian integer — handy
    /// for displaying/debugging small-curve keys.
    pub fn to_u128_lossy(&self) -> u128 {
        let mut v = 0u128;
        for &b in self.bytes.iter().take(16) {
            v = (v << 8) | b as u128;
        }
        v
    }

    /// Builds a key from raw bytes produced elsewhere (e.g. read back from a
    /// B+-tree page).
    pub fn from_raw(bytes: &[u8]) -> Self {
        Self {
            bytes: bytes.to_vec().into_boxed_slice(),
        }
    }
}

impl std::fmt::Display for HilbertKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for b in self.bytes.iter() {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_len_matches_paper_examples() {
        // SIFT: η=16, ω=8 → 16 bytes; SUN (Table 3): η=64, ω=32 → 256 bytes.
        assert_eq!(HilbertKey::byte_len(16, 8), 16);
        assert_eq!(HilbertKey::byte_len(64, 32), 256);
        // Enron: η=37, ω=16 → 592 bits → 74 bytes.
        assert_eq!(HilbertKey::byte_len(37, 16), 74);
    }

    #[test]
    fn ordering_is_big_endian() {
        let a = HilbertKey::from_bytes(vec![0x00, 0xFF]);
        let b = HilbertKey::from_bytes(vec![0x01, 0x00]);
        assert!(a < b);
    }

    #[test]
    fn display_is_hex() {
        let a = HilbertKey::from_bytes(vec![0xDE, 0xAD]);
        assert_eq!(a.to_string(), "dead");
    }

    #[test]
    fn u128_view() {
        let a = HilbertKey::from_bytes(vec![0x01, 0x02]);
        assert_eq!(a.to_u128_lossy(), 0x0102);
    }
}
