//! The corpus every workload shares, exact ground truth, and the checks
//! every answer must pass.

use hd_core::dataset::{generate, Dataset, DatasetProfile};
use hd_core::distance::l2_sq;
use hd_core::ground_truth::ground_truth_knn;
use hd_core::topk::{Neighbor, TopK};
use hd_core::ObjectId;

/// Indexed vectors. The same for every workload, so every `setup_s` builds
/// the same index and is long enough to time steadily.
pub const N: usize = 200_000;
/// Distinct query vectors; the query loops cycle through them.
pub const QUERIES: usize = 200;
/// Vectors the write paths insert, in order (reused cyclically if a run
/// inserts more).
pub const INSERT_POOL: usize = 20_000;
/// Neighbours per query, as in MAP@10.
pub const K: usize = 10;

pub struct Corpus {
    /// The indexed vectors: global ids `0..N`.
    pub base: Dataset,
    /// The j-th insert of a run gets global id `N + j` (the engine assigns
    /// ids in arrival order) and this pool's vector `j mod INSERT_POOL`.
    pub inserts: Dataset,
    pub queries: Dataset,
}

impl Corpus {
    /// SIFT-profile synthetic data (128-d, clustered) from `seed`. Base,
    /// insert pool and queries come from one draw, so every workload sees
    /// the same base corpus and queries for a given seed.
    pub fn generate(seed: u64) -> Self {
        let (all, queries) = generate(&DatasetProfile::SIFT, N + INSERT_POOL, QUERIES, seed);
        let dim = all.dim();
        let (base, inserts) = all.as_flat().split_at(N * dim);
        Self {
            base: Dataset::from_flat(dim, base.to_vec()),
            inserts: Dataset::from_flat(dim, inserts.to_vec()),
            queries,
        }
    }

    pub fn dim(&self) -> usize {
        self.base.dim()
    }

    /// The vector of the j-th insert of a run.
    pub fn insert_vector(&self, j: usize) -> &[f32] {
        self.inserts.get(j % self.inserts.len())
    }

    /// The vector stored under global id `id` (base or inserted).
    pub fn vector(&self, id: ObjectId) -> &[f32] {
        let id = id as usize;
        if id < N {
            self.base.get(id)
        } else {
            self.insert_vector(id - N)
        }
    }

    /// Exact top-k ids of every query over the base corpus.
    pub fn ground_truth(&self) -> Vec<Vec<ObjectId>> {
        ground_truth_knn(&self.base, &self.queries, K, 2)
            .iter()
            .map(|answer| ids(answer))
            .collect()
    }

    /// Exact top-k ids of `query` over the given live ids, by brute force.
    pub fn exact_knn(&self, query: &[f32], live: impl Iterator<Item = ObjectId>) -> Vec<ObjectId> {
        let mut top = TopK::new(K);
        for id in live {
            top.push(Neighbor::new(id, l2_sq(query, self.vector(id))));
        }
        ids(&top.into_sorted())
    }

    /// Checks what every answer must satisfy whatever the search budgets:
    /// `want` results, nearest first, no id twice, only live ids, and each
    /// reported distance equal to the exact L2 distance of that id.
    pub fn check_answer(
        &self,
        query: &[f32],
        answer: &[Neighbor],
        want: usize,
        is_live: impl Fn(ObjectId) -> bool,
    ) -> Result<(), String> {
        if answer.len() != want {
            return Err(format!("{} neighbours, expected {want}", answer.len()));
        }
        for (i, nb) in answer.iter().enumerate() {
            if !is_live(nb.id) {
                return Err(format!("returned id {} is not live", nb.id));
            }
            if answer[..i].iter().any(|other| other.id == nb.id) {
                return Err(format!("id {} returned twice", nb.id));
            }
            if i > 0 && answer[i - 1].dist > nb.dist {
                return Err("neighbours are not nearest first".to_string());
            }
            let exact = l2_sq(query, self.vector(nb.id)).sqrt();
            if !close(nb.dist, exact) {
                return Err(format!(
                    "id {} reported at {} but lies at {exact}",
                    nb.id, nb.dist
                ));
            }
        }
        Ok(())
    }
}

pub fn ids(answer: &[Neighbor]) -> Vec<ObjectId> {
    answer.iter().map(|nb| nb.id).collect()
}

/// Same ids in the same order, same distances up to rounding (served
/// answers pass through a JSON decimal).
pub fn same_answer(a: &[Neighbor], b: &[Neighbor]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.id == y.id && close(x.dist, y.dist))
}

fn close(a: f32, b: f32) -> bool {
    (a - b).abs() <= 1e-3 * a.abs().max(b.abs()).max(1.0)
}
