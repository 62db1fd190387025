//! Dimension partitioning (paper §3.1).
//!
//! HD-Index splits the `ν` dimensions into `τ` disjoint groups, one Hilbert
//! curve (and RDB-tree) per group. The paper uses equal contiguous groups and
//! shows (§5.2.1) that random groupings perform equivalently; both schemes
//! are provided so the ablation can be reproduced.

use rand::seq::SliceRandom;
use rand::SeedableRng;

/// A disjoint partition of dimension indices `0..dim` into `τ` groups.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Partitioning {
    dim: usize,
    groups: Vec<Vec<usize>>,
}

impl Partitioning {
    /// Equal, contiguous partitioning (the paper's default). When `dim` is
    /// not divisible by `tau`, the first `dim % tau` groups receive one extra
    /// dimension so group sizes differ by at most one.
    ///
    /// # Panics
    /// Panics if `tau == 0` or `tau > dim`.
    pub fn contiguous(dim: usize, tau: usize) -> Self {
        assert!(tau > 0 && tau <= dim, "need 0 < tau <= dim");
        let base = dim / tau;
        let extra = dim % tau;
        let mut groups = Vec::with_capacity(tau);
        let mut start = 0;
        for g in 0..tau {
            let len = base + usize::from(g < extra);
            groups.push((start..start + len).collect());
            start += len;
        }
        Self { dim, groups }
    }

    /// Random partitioning with (near-)equal group sizes: a seeded shuffle of
    /// `0..dim` dealt out contiguously. Used by the §5.2.1 ablation.
    pub fn random(dim: usize, tau: usize, seed: u64) -> Self {
        assert!(tau > 0 && tau <= dim, "need 0 < tau <= dim");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut dims: Vec<usize> = (0..dim).collect();
        dims.shuffle(&mut rng);
        let base = dim / tau;
        let extra = dim % tau;
        let mut groups = Vec::with_capacity(tau);
        let mut start = 0;
        for g in 0..tau {
            let len = base + usize::from(g < extra);
            groups.push(dims[start..start + len].to_vec());
            start += len;
        }
        Self { dim, groups }
    }

    /// Rebuilds a partitioning from explicit groups (used when reopening a
    /// persisted index).
    ///
    /// # Panics
    /// Panics if the groups are not a disjoint cover of `0..dim`.
    pub fn from_groups(dim: usize, groups: Vec<Vec<usize>>) -> Self {
        let mut all: Vec<usize> = groups.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(
            all,
            (0..dim).collect::<Vec<_>>(),
            "groups must cover 0..dim exactly once"
        );
        Self { dim, groups }
    }

    /// Total dimensionality `ν`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of groups `τ`.
    pub fn tau(&self) -> usize {
        self.groups.len()
    }

    /// Dimension indices of group `g`.
    pub fn group(&self, g: usize) -> &[usize] {
        &self.groups[g]
    }

    /// Iterates over all groups.
    pub fn groups(&self) -> impl Iterator<Item = &[usize]> {
        self.groups.iter().map(|g| g.as_slice())
    }

    /// Extracts the sub-vector of `point` selected by group `g` into `out`
    /// (cleared first). An out-parameter avoids per-call allocation on the
    /// query hot path.
    pub fn project_into(&self, point: &[f32], g: usize, out: &mut Vec<f32>) {
        out.clear();
        out.extend(self.groups[g].iter().map(|&d| point[d]));
    }

    /// Allocating convenience wrapper around [`Self::project_into`].
    pub fn project(&self, point: &[f32], g: usize) -> Vec<f32> {
        let mut out = Vec::with_capacity(self.groups[g].len());
        self.project_into(point, g, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contiguous_even_split() {
        let p = Partitioning::contiguous(8, 2);
        assert_eq!(p.group(0), &[0, 1, 2, 3]);
        assert_eq!(p.group(1), &[4, 5, 6, 7]);
    }

    #[test]
    fn contiguous_uneven_split_distributes_remainder() {
        let p = Partitioning::contiguous(10, 3);
        let sizes: Vec<usize> = p.groups().map(|g| g.len()).collect();
        assert_eq!(sizes, vec![4, 3, 3]);
        let all: Vec<usize> = p.groups().flatten().copied().collect();
        assert_eq!(all, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn random_covers_all_dims_exactly_once() {
        let p = Partitioning::random(128, 8, 42);
        let mut all: Vec<usize> = p.groups().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..128).collect::<Vec<_>>());
        for g in p.groups() {
            assert_eq!(g.len(), 16);
        }
    }

    #[test]
    fn random_is_seeded() {
        assert_eq!(
            Partitioning::random(16, 4, 1),
            Partitioning::random(16, 4, 1)
        );
        assert_ne!(
            Partitioning::random(16, 4, 1),
            Partitioning::random(16, 4, 2)
        );
    }

    #[test]
    fn project_extracts_group_values() {
        let p = Partitioning::contiguous(4, 2);
        let v = [10.0, 20.0, 30.0, 40.0];
        assert_eq!(p.project(&v, 0), vec![10.0, 20.0]);
        assert_eq!(p.project(&v, 1), vec![30.0, 40.0]);
    }

    #[test]
    fn paper_enron_partitioning() {
        // Enron: ν=1369 = 37 × 37 (§5.2.4).
        let p = Partitioning::contiguous(1369, 37);
        assert_eq!(p.tau(), 37);
        assert!(p.groups().all(|g| g.len() == 37));
    }

    #[test]
    #[should_panic(expected = "need 0 < tau <= dim")]
    fn zero_tau_panics() {
        Partitioning::contiguous(8, 0);
    }
}
