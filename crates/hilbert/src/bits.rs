//! Word-level helpers: n-bit word rotations, Gray codes, the byte-plane
//! bit gather and scatter, and MSB-first word streams backing
//! multi-precision Hilbert keys.

/// All-ones mask of the low `n` bits (`n` in `1..=64`).
#[inline]
pub fn mask(n: u32) -> u64 {
    u64::MAX >> (64 - n)
}

/// Rotate the low `n` bits of `x` right by `r` (`r < n`; bits above `n`
/// must be 0).
#[inline]
pub fn rotr(x: u64, r: u32, n: u32) -> u64 {
    debug_assert!(r < n && x <= mask(n));
    // `x << (n - r)` split in two so that `r = 0`, `n = 64` never shifts by 64.
    ((x >> r) | ((x << 1) << (n - 1 - r))) & mask(n)
}

/// Rotate the low `n` bits of `x` left by `r` (`r < n`).
#[inline]
pub fn rotl(x: u64, r: u32, n: u32) -> u64 {
    debug_assert!(r < n && x <= mask(n));
    ((x << r) | ((x >> 1) >> (n - 1 - r))) & mask(n)
}

/// Binary-reflected Gray code.
#[inline]
pub fn gray(i: u64) -> u64 {
    i ^ (i >> 1)
}

/// Inverse Gray code (prefix-xor) of a code at most `2^steps` bits wide:
/// `steps = ⌈log₂ width⌉` shifts clear it, since wider shifts only move
/// zeros.
#[inline]
pub fn gray_inverse(g: u64, steps: u32) -> u64 {
    let mut i = g;
    for s in 0..steps {
        i ^= i >> (1u32 << s);
    }
    i
}

/// Number of trailing set bits — the axis along which `gray(i)` and
/// `gray(i+1)` differ.
#[inline]
pub fn trailing_set_bits(i: u64) -> u32 {
    i.trailing_ones()
}

/// The low bit of every byte of a word.
const LOW_BITS: u64 = 0x0101_0101_0101_0101;

/// Collects bit `i` of every byte of `plane` into one byte: bit `j` of the
/// result is bit `i` of byte `j`. The multiply moves byte `j`'s low bit to
/// bit `56 + j` with no carries (each product term lands on its own bit).
#[inline]
pub fn gather_bit(plane: u64, i: u32) -> u64 {
    (((plane >> i) & LOW_BITS).wrapping_mul(0x0102_0408_1020_4080)) >> 56
}

/// Inverse of [`gather_bit`] at bit 0: byte `j` of the result is bit `j`
/// of `byte` (the low 8 bits). The multiply puts bit `j` at the top of byte
/// `7 - j`; the byte swap puts it back in order.
#[inline]
pub fn spread_bits(byte: u64) -> u64 {
    ((((byte & 0xFF).wrapping_mul(0x8040_2010_0804_0201)) & 0x8080_8080_8080_8080) >> 7)
        .swap_bytes()
}

/// Writes words MSB-first into a byte slice, 64 bits at a time (most
/// significant level of the Hilbert index first, so byte-lexicographic key
/// order equals numeric index order). A final partial byte is zero-padded
/// below its last bit.
pub struct WordWriter<'a> {
    out: &'a mut [u8],
    /// Bytes of `out` written so far.
    pos: usize,
    /// Pending bits, right-aligned; fewer than 64 between calls.
    acc: u128,
    bits: u32,
}

impl<'a> WordWriter<'a> {
    pub fn new(out: &'a mut [u8]) -> Self {
        Self {
            out,
            pos: 0,
            acc: 0,
            bits: 0,
        }
    }

    /// Appends the low `n` bits of `w` (bits above `n` must be 0).
    #[inline]
    pub fn push(&mut self, w: u64, n: u32) {
        debug_assert!((1..=64).contains(&n) && w <= mask(n));
        self.acc = (self.acc << n) | u128::from(w);
        self.bits += n;
        if self.bits >= 64 {
            self.bits -= 64;
            let word = (self.acc >> self.bits) as u64;
            self.out[self.pos..self.pos + 8].copy_from_slice(&word.to_be_bytes());
            self.pos += 8;
        }
    }

    /// Flushes the pending bits; the slice must end exactly there.
    pub fn finish(self) {
        let tail = self.bits.div_ceil(8) as usize;
        assert_eq!(self.pos + tail, self.out.len(), "key length mismatch");
        if tail > 0 {
            let word = ((self.acc << (64 - self.bits)) as u64).to_be_bytes();
            self.out[self.pos..].copy_from_slice(&word[..tail]);
        }
    }
}

/// Reads words MSB-first from a byte slice (inverse of [`WordWriter`]),
/// loading up to 64 bits at a time.
pub struct WordReader<'a> {
    buf: &'a [u8],
    /// Bytes of `buf` loaded so far.
    pos: usize,
    /// Loaded bits not yet read, right-aligned.
    acc: u128,
    bits: u32,
}

impl<'a> WordReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            acc: 0,
            bits: 0,
        }
    }

    /// Reads the next `n` bits as the low bits of a word.
    #[inline]
    pub fn read(&mut self, n: u32) -> u64 {
        debug_assert!((1..=64).contains(&n));
        if self.bits < n {
            let take = (self.buf.len() - self.pos).min(8);
            let mut word = [0u8; 8];
            word[..take].copy_from_slice(&self.buf[self.pos..self.pos + take]);
            self.pos += take;
            let loaded = 8 * take as u32;
            self.acc = (self.acc << loaded) | u128::from(u64::from_be_bytes(word) >> (64 - loaded));
            self.bits += loaded;
        }
        self.bits -= n;
        (self.acc >> self.bits) as u64 & mask(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mask_widths() {
        assert_eq!(mask(1), 1);
        assert_eq!(mask(8), 0xFF);
        assert_eq!(mask(64), u64::MAX);
    }

    #[test]
    fn rotations_inverse_each_other() {
        for n in [1u32, 2, 3, 7, 16, 63, 64] {
            for x in [0u64, 1, 0b1011, mask(n)] {
                let x = x & mask(n);
                for r in 0..n {
                    assert_eq!(rotl(rotr(x, r, n), r, n), x, "n={n} r={r} x={x:b}");
                    // One step at a time: rotation by r is r rotations by 1.
                    let stepped = (0..r).fold(x, |y, _| (y >> 1) | ((y & 1) << (n - 1)));
                    assert_eq!(rotr(x, r, n), stepped, "n={n} r={r} x={x:b}");
                }
            }
        }
    }

    #[test]
    fn rotr_known_values() {
        assert_eq!(rotr(0b001, 1, 3), 0b100);
        assert_eq!(rotr(0b110, 2, 3), 0b101);
        assert_eq!(rotl(0b100, 1, 3), 0b001);
        assert_eq!(rotr(1, 0, 64), 1);
        assert_eq!(rotr(1, 1, 64), 1 << 63);
        assert_eq!(rotl(1 << 63, 1, 64), 1);
    }

    #[test]
    fn gray_code_properties() {
        // Successive Gray codes differ in exactly one bit.
        for i in 0u64..256 {
            assert_eq!((gray(i) ^ gray(i + 1)).count_ones(), 1);
            assert_eq!(gray_inverse(gray(i), 6), i);
            // A 9-bit code needs ⌈log₂ 9⌉ = 4 steps, no more.
            assert_eq!(gray_inverse(gray(i), 4), i);
        }
        let wide = u64::MAX - 12345;
        assert_eq!(gray_inverse(gray(wide), 6), wide);
    }

    #[test]
    fn gray_difference_position_is_trailing_set_bits() {
        for i in 0u64..256 {
            let diff = gray(i) ^ gray(i + 1);
            assert_eq!(diff.trailing_zeros(), trailing_set_bits(i));
        }
    }

    #[test]
    fn gather_and_spread_move_one_bit_per_byte() {
        let plane = 0x8001_40FF_2002_0110u64;
        for i in 0..8 {
            let want = (0..8).fold(0, |acc, j| acc | (((plane >> (8 * j + i)) & 1) << j));
            assert_eq!(gather_bit(plane, i), want, "bit {i}");
        }
        for byte in 0..256u64 {
            let spread = spread_bits(byte);
            assert_eq!(spread & !LOW_BITS, 0);
            assert_eq!(gather_bit(spread, 0), byte);
        }
    }

    #[test]
    fn bit_stream_roundtrip() {
        let words: [(u64, u32); 7] = [
            (0b101, 3),
            (0xFFFF, 16),
            (0, 5),
            (0b1, 1),
            (u64::MAX, 64),
            (0x1234_5678_9ABC, 48),
            (0x35, 6),
        ];
        let bits: u32 = words.iter().map(|&(_, n)| n).sum();
        let mut bytes = vec![0u8; bits.div_ceil(8) as usize];
        let mut w = WordWriter::new(&mut bytes);
        for &(v, n) in &words {
            w.push(v, n);
        }
        w.finish();
        let mut r = WordReader::new(&bytes);
        for &(v, n) in &words {
            assert_eq!(r.read(n), v, "{n}-bit word");
        }
        // 143 bits: the padding below the last bit is zero.
        assert_eq!(bits % 8, 7);
        assert_eq!(bytes.last().unwrap() & 1, 0);
    }

    #[test]
    fn msb_first_layout_orders_lexicographically() {
        // Larger word ⇒ lexicographically larger byte string.
        let encode = |v: u64| {
            let mut bytes = vec![0u8; 2];
            let mut w = WordWriter::new(&mut bytes);
            w.push(v, 12);
            w.finish();
            bytes
        };
        assert!(encode(5) < encode(6));
        assert!(encode(255) < encode(256));
        assert!(encode(0) < encode(4095));
        assert_eq!(encode(0xABC), vec![0xAB, 0xC0]);
    }
}
