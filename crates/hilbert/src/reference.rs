//! The bit-serial Butz–Hamilton mapping the word-at-a-time encoder must
//! reproduce bit for bit: one coordinate bit gathered, one key bit written
//! and one key bit read at a time, with every rotation and direction taken
//! modulo n and the Gray inverse run over all 64 bits. Self-contained on
//! purpose, so the differential tests share no helper with the encoder.

fn mask(n: u32) -> u64 {
    if n >= 64 {
        u64::MAX
    } else {
        (1u64 << n) - 1
    }
}

fn rotr(x: u64, r: u32, n: u32) -> u64 {
    let r = r % n;
    if r == 0 {
        return x;
    }
    ((x >> r) | (x << (n - r))) & mask(n)
}

fn rotl(x: u64, r: u32, n: u32) -> u64 {
    let r = r % n;
    if r == 0 {
        return x;
    }
    rotr(x, n - r, n)
}

fn gray(i: u64) -> u64 {
    i ^ (i >> 1)
}

fn gray_inverse(g: u64) -> u64 {
    let mut i = g;
    let mut shift = 1u32;
    while shift < 64 {
        i ^= i >> shift;
        shift <<= 1;
    }
    i
}

fn entry(w: u64) -> u64 {
    if w == 0 {
        0
    } else {
        gray(2 * ((w - 1) / 2))
    }
}

fn direction(w: u64, n: u32) -> u32 {
    if w == 0 {
        0
    } else if w.is_multiple_of(2) {
        (w - 1).trailing_ones() % n
    } else {
        w.trailing_ones() % n
    }
}

/// Key bytes of `point` on an `n`-dimensional order-`order` curve.
pub fn encode(point: &[u64], order: u32) -> Vec<u8> {
    let n = point.len() as u32;
    let mut key = vec![0u8; (point.len() * order as usize).div_ceil(8)];
    let mut pos = 0usize;
    let mut e = 0u64;
    let mut d = 0u32;
    for level in (0..order).rev() {
        let mut l = 0u64;
        for (j, &c) in point.iter().enumerate() {
            l |= ((c >> level) & 1) << j;
        }
        let w = gray_inverse(rotr(l ^ e, d + 1, n));
        for bit in (0..n).rev() {
            key[pos / 8] |= (((w >> bit) & 1) as u8) << (7 - pos % 8);
            pos += 1;
        }
        e ^= rotl(entry(w), d + 1, n);
        d = (d + direction(w, n) + 1) % n;
    }
    key
}

/// Grid coordinates of `key` on a `dims`-dimensional order-`order` curve.
pub fn decode(key: &[u8], dims: usize, order: u32) -> Vec<u64> {
    let n = dims as u32;
    let mut point = vec![0u64; dims];
    let mut pos = 0usize;
    let mut e = 0u64;
    let mut d = 0u32;
    for level in (0..order).rev() {
        let mut w = 0u64;
        for _ in 0..n {
            w = (w << 1) | u64::from((key[pos / 8] >> (7 - pos % 8)) & 1);
            pos += 1;
        }
        let l = rotl(gray(w), d + 1, n) ^ e;
        for (j, p) in point.iter_mut().enumerate() {
            *p |= ((l >> j) & 1) << level;
        }
        e ^= rotl(entry(w), d + 1, n);
        d = (d + direction(w, n) + 1) % n;
    }
    point
}
