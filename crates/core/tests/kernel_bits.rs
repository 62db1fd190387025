//! Bit-identity of every distance kernel against a plain scalar reference.
//!
//! The reference below spells out the kernels' accumulation order with
//! nothing but indexed loops: dimension `i` of each full eight-lane chunk
//! adds into lane `i % 8`, the dimensions after the last full chunk sum
//! into a separate tail, lanes reduce left to right, and the bounded
//! variants compare the reduced lanes against the bound after every 32
//! dimensions and after the last full chunk. The kernels must agree with
//! it to the bit (`to_bits()`), including the bounded variants' `early`
//! flag, for every dimensionality the workspace meets (1..=1369).

use hd_core::distance::{
    dot, l1, l1_batch, l1_bounded, l1_bounded_traced, l2, l2_sq, l2_sq_batch, l2_sq_bounded,
    l2_sq_bounded_traced, norm_sq,
};
use proptest::prelude::*;

const LANES: usize = 8;
const CHECK_EVERY: usize = 32;

type Term = fn(f32, f32) -> f32;
type Traced = fn(&[f32], &[f32], f32) -> (f32, bool);
type Bounded = fn(&[f32], &[f32], f32) -> f32;

fn reduce(acc: &[f32; LANES]) -> f32 {
    let mut s = 0.0f32;
    for &lane in acc {
        s += lane;
    }
    s
}

fn reference(a: &[f32], b: &[f32], term: Term) -> f32 {
    reference_bounded(a, b, f32::INFINITY, term).0
}

fn reference_bounded(a: &[f32], b: &[f32], bound: f32, term: Term) -> (f32, bool) {
    let n = a.len();
    let full = n - n % LANES;
    let mut acc = [0.0f32; LANES];
    for i in 0..full {
        acc[i % LANES] += term(a[i], b[i]);
        let done = i + 1;
        if done % CHECK_EVERY == 0 || done == full {
            let partial = reduce(&acc);
            if partial > bound {
                return (partial, done < n);
            }
        }
    }
    let mut tail = 0.0f32;
    for i in full..n {
        tail += term(a[i], b[i]);
    }
    (reduce(&acc) + tail, false)
}

fn sq_diff(x: f32, y: f32) -> f32 {
    (x - y) * (x - y)
}

fn abs_diff(x: f32, y: f32) -> f32 {
    (x - y).abs()
}

fn product(x: f32, y: f32) -> f32 {
    x * y
}

/// Deterministic vector of `dim` floats spanning several binades and both
/// signs, so any change of summation order would change rounding.
fn vector(dim: usize, seed: u64) -> Vec<f32> {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..dim)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let unit = (s >> 40) as f32 / (1u64 << 24) as f32 - 0.5;
            unit * [0.01f32, 1.0, 37.0, 1000.0][(s & 3) as usize]
        })
        .collect()
}

fn bits(v: f32) -> u32 {
    v.to_bits()
}

fn all_bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|&x| bits(x)).collect()
}

/// Dimensionalities: anything in 1..=1369, with the edges of an eight-lane
/// chunk and of a 32-dimension bound-check block drawn often.
fn dims() -> impl Strategy<Value = usize> {
    prop_oneof![
        1usize..=1369,
        1usize..=40,
        prop_oneof![
            Just(63usize),
            Just(64),
            Just(65),
            Just(95),
            Just(96),
            Just(97)
        ],
        prop_oneof![
            Just(127usize),
            Just(128),
            Just(129),
            Just(960),
            Just(1368),
            Just(1369)
        ],
    ]
}

/// Bounds as a fraction of the exact distance: anywhere below and a little
/// above it, exactly at it, zero and infinite.
fn fractions() -> impl Strategy<Value = f32> {
    prop_oneof![0.0f32..1.5, Just(0.0f32), Just(1.0f32), Just(f32::INFINITY)]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn unbounded_kernels_match_reference(dim in dims(), seed in any::<u64>()) {
        let (a, b) = (vector(dim, seed), vector(dim, seed ^ 0xABCD));
        prop_assert_eq!(bits(l2_sq(&a, &b)), bits(reference(&a, &b, sq_diff)), "l2_sq dim {}", dim);
        prop_assert_eq!(bits(l2(&a, &b)), bits(reference(&a, &b, sq_diff).sqrt()), "l2 dim {}", dim);
        prop_assert_eq!(bits(l1(&a, &b)), bits(reference(&a, &b, abs_diff)), "l1 dim {}", dim);
        prop_assert_eq!(bits(dot(&a, &b)), bits(reference(&a, &b, product)), "dot dim {}", dim);
        prop_assert_eq!(bits(norm_sq(&a)), bits(reference(&a, &a, product)), "norm_sq dim {}", dim);
    }

    #[test]
    fn bounded_kernels_match_reference(dim in dims(), seed in any::<u64>(), fraction in fractions()) {
        let (a, b) = (vector(dim, seed), vector(dim, seed.rotate_left(17)));
        let kernels: [(&str, Term, Traced, Bounded); 2] = [
            ("l2_sq", sq_diff, l2_sq_bounded_traced, l2_sq_bounded),
            ("l1", abs_diff, l1_bounded_traced, l1_bounded),
        ];
        for (name, term, traced, bounded) in kernels {
            let bound = reference(&a, &b, term) * fraction;
            let (want, want_early) = reference_bounded(&a, &b, bound, term);
            let (got, early) = traced(&a, &b, bound);
            prop_assert_eq!(bits(got), bits(want), "{} dim {} bound {}", name, dim, bound);
            prop_assert_eq!(early, want_early, "{} early flag, dim {} bound {}", name, dim, bound);
            prop_assert_eq!(bits(bounded(&a, &b, bound)), bits(want), "{} untraced", name);
        }
    }

    #[test]
    fn batch_kernels_match_per_row_calls(dim in dims(), rows in 0usize..7, seed in any::<u64>()) {
        let q = vector(dim, seed);
        let block: Vec<f32> = (0..rows as u64)
            .flat_map(|r| vector(dim, seed ^ ((r + 1) << 32)))
            .collect();
        let mut out = vec![f32::NAN; 3];
        l2_sq_batch(&q, &block, &mut out);
        let want: Vec<u32> = block.chunks_exact(dim).map(|row| bits(l2_sq(&q, row))).collect();
        prop_assert_eq!(all_bits(&out), want);
        l1_batch(&q, &block, &mut out);
        let want: Vec<u32> = block.chunks_exact(dim).map(|row| bits(l1(&q, row))).collect();
        prop_assert_eq!(all_bits(&out), want);
    }
}
