//! Soundness of the uniform grid's cell lower bound: for every metric with
//! a cell bound (L2, L1, cosine), the bound of a vector's codes never
//! exceeds the metric's kernel key for that vector, bit for bit as the
//! kernel computes it. Vectors and queries mix in-domain values, values far
//! outside the domain, values on and next to cell edges, and vectors drawn
//! inside randomly chosen cells.

use hd_core::grid::UniformGrid;
use hd_core::metric::Metric;
use proptest::prelude::*;

/// xorshift64 stream for the per-coordinate draws of one case.
struct Stream(u64);

impl Stream {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in [0, 1].
    fn unit(&mut self) -> f32 {
        (self.next() >> 40) as f32 / (1u64 << 24) as f32
    }
}

/// One coordinate in `(lo, hi)` of a grid with `cells` cells, drawn from
/// `mode`: 0 in the domain, 1 far outside it, 2 on a cell edge or one ulp
/// off it, 3 inside a random cell (the random-code case), 4 exactly the
/// domain edges.
fn coordinate(s: &mut Stream, mode: u64, (lo, hi): (f32, f32), cells: u32) -> f32 {
    let span = hi - lo;
    let step = span / cells as f32;
    match mode {
        0 => lo + s.unit() * span,
        1 => {
            let out = span * (1.0 + 20.0 * s.unit());
            if s.next() & 1 == 0 {
                lo - out
            } else {
                hi + out
            }
        }
        2 => {
            let edge = lo + (s.next() % (cells as u64 + 1)) as f32 * step;
            match s.next() % 3 {
                0 => edge,
                1 => edge.next_up(),
                _ => edge.next_down(),
            }
        }
        3 => {
            let code = (s.next() % cells as u64) as f32;
            lo + (code + s.unit()) * step
        }
        _ => {
            if s.next() & 1 == 0 {
                lo
            } else {
                hi
            }
        }
    }
}

fn vector(s: &mut Stream, dim: usize, domain: (f32, f32), cells: u32, modes: u64) -> Vec<f32> {
    (0..dim)
        .map(|_| {
            let mode = s.next() % modes;
            coordinate(s, mode, domain, cells)
        })
        .collect()
}

/// Asserts bound(codes(v)) ≤ key(q, v) for `points` vectors around `q`.
fn check(metric: Metric, grid: &UniformGrid, q: &[f32], points: &[Vec<f32>]) {
    let cq = grid.query(metric, q);
    let mut code = Vec::new();
    for v in points {
        code.clear();
        grid.encode_into(v, &mut code);
        let lb = cq.lower_bound(&code);
        let key = metric.key(q, v);
        assert!(
            lb <= key,
            "{metric} bound {lb} > key {key} (dim {})",
            q.len()
        );
        assert!(lb >= 0.0, "negative bound {lb}");
    }
}

fn domains() -> impl Strategy<Value = (f32, f32)> {
    prop_oneof![
        Just((0.0f32, 255.0f32)),
        Just((-1.0f32, 1.0f32)),
        Just((-3.7f32, 12.1f32)),
        Just((1000.0f32, 1000.5f32)),
    ]
}

fn cell_counts() -> impl Strategy<Value = u32> {
    prop_oneof![Just(256u32), Just(2u32), Just(16u32), 2u32..=256]
}

fn dims() -> impl Strategy<Value = usize> {
    prop_oneof![1usize..=40, Just(128usize), Just(129usize), 41usize..=1369]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn cell_bound_never_exceeds_the_l2_and_l1_key(
        dim in dims(),
        domain in domains(),
        cells in cell_counts(),
        seed in any::<u64>(),
    ) {
        let mut s = Stream(seed | 1);
        for modes in [1u64, 5] {
            // modes = 1: everything in the domain; 5: every kind mixed.
            let q = vector(&mut s, dim, domain, cells, modes);
            let mut points: Vec<Vec<f32>> =
                (0..6).map(|_| vector(&mut s, dim, domain, cells, modes)).collect();
            // A point equal to the query, and one a hair away from it:
            // bounds at and next to a zero distance.
            points.push(q.clone());
            points.push(q.iter().map(|&x| x.next_up()).collect());
            let grid = UniformGrid::new(domain, cells);
            check(Metric::L2, &grid, &q, &points);
            check(Metric::L1, &grid, &q, &points);
        }
    }

    #[test]
    fn cell_bound_never_exceeds_the_cosine_key(
        dim in dims(),
        cells in cell_counts(),
        seed in any::<u64>(),
        scale in prop_oneof![Just(1.0f32), 0.01f32..100.0],
    ) {
        // A cosine index quantises unit vectors over (-1, 1); its key is
        // squared L2 between the normalised vectors.
        let mut s = Stream(seed | 1);
        let unit = |s: &mut Stream| {
            let mut v = vector(s, dim, (-scale, scale), cells, 5);
            Metric::Cosine.normalize_for_index(&mut v);
            v
        };
        let q = unit(&mut s);
        let mut points: Vec<Vec<f32>> = (0..8).map(|_| unit(&mut s)).collect();
        points.push(q.clone());
        check(Metric::Cosine, &UniformGrid::new((-1.0, 1.0), cells), &q, &points);
    }
}
