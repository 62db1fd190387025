//! Optimized product quantization (non-parametric OPQ, Ge et al., CVPR
//! 2013): learn an orthogonal rotation `R` jointly with the PQ codebooks so
//! subspaces decorrelate and quantization distortion drops.
//!
//! The alternation: (1) fix `R`, train/encode PQ on the rotated sample
//! `Y = R·X`; (2) fix the codes, solve the orthogonal Procrustes problem
//! `R ← argmin ‖R·X − Ŷ‖_F` where `Ŷ` is the PQ reconstruction of `Y` —
//! solved in closed form by the SVD in [`hd_core::linalg`].

use super::pq::{Pq, PqParams};
use hd_core::api::{AnnIndex, IndexStats, SearchOutput, SearchRequest};
use hd_core::dataset::Dataset;
use hd_core::linalg::{procrustes, Matrix};
use hd_core::topk::Neighbor;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Parameters (paper §5: M = 8 subspaces).
#[derive(Debug, Clone, Copy)]
pub struct OpqParams {
    pub pq: PqParams,
    /// Alternating-optimization iterations.
    pub opt_iters: usize,
    /// Sample size for the rotation optimization (Procrustes is O(ν²·s)).
    pub opt_sample: usize,
}

impl Default for OpqParams {
    fn default() -> Self {
        Self {
            pq: PqParams::default(),
            opt_iters: 8,
            opt_sample: 2000,
        }
    }
}

/// A trained OPQ index: rotation + PQ over the rotated space.
pub struct Opq {
    rotation: Matrix,
    pq: Pq,
    dim: usize,
}

impl std::fmt::Debug for Opq {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Opq").field("dim", &self.dim).finish()
    }
}

impl Opq {
    /// Trains the rotation and codebooks, then encodes the whole dataset.
    pub fn build(data: &Dataset, params: OpqParams) -> Self {
        assert!(!data.is_empty(), "cannot quantize an empty dataset");
        let dim = data.dim();

        // Optimization sample, as column matrix X (dim × s).
        let mut rng = rand::rngs::StdRng::seed_from_u64(params.pq.seed ^ 0x0b0b);
        let mut idx: Vec<usize> = (0..data.len()).collect();
        idx.shuffle(&mut rng);
        idx.truncate(params.opt_sample.min(data.len()));
        let s = idx.len();
        let mut x = Matrix::zeros(dim, s);
        for (col, &i) in idx.iter().enumerate() {
            for (row, &v) in data.get(i).iter().enumerate() {
                x[(row, col)] = v as f64;
            }
        }

        let mut rotation = Matrix::identity(dim);
        let mut pq_params = params.pq;
        // Cheaper k-means inside the alternation; full training afterwards.
        pq_params.kmeans_iters = params.pq.kmeans_iters.min(6);

        for _ in 0..params.opt_iters {
            // (1) Rotate sample, train + encode PQ on it.
            let y = rotation.matmul(&x);
            let mut sample = Dataset::new(dim);
            let mut col_buf = vec![0.0f32; dim];
            for c in 0..s {
                for r in 0..dim {
                    col_buf[r] = y[(r, c)] as f32;
                }
                sample.push(&col_buf);
            }
            let mut pq = Pq::build(&sample, pq_params);
            pq.encode_all(&sample);
            // (2) Reconstruction Ŷ, then Procrustes: R ← argmin ‖R·X − Ŷ‖.
            let mut y_hat = Matrix::zeros(dim, s);
            for c in 0..s {
                for (r, &v) in pq.reconstruct(c).iter().enumerate() {
                    y_hat[(r, c)] = v as f64;
                }
            }
            rotation = procrustes(&x, &y_hat);
        }

        // Final: rotate the full dataset, train PQ properly, encode.
        let rotated = Self::rotate_dataset(&rotation, data);
        let pq = Pq::build(&rotated, params.pq);
        Self { rotation, pq, dim }
    }

    fn rotate_dataset(r: &Matrix, data: &Dataset) -> Dataset {
        let dim = data.dim();
        let mut out = Dataset::new(dim);
        out.reserve(data.len());
        let mut buf = vec![0.0f32; dim];
        for p in data.iter() {
            r.apply_f32(p, &mut buf);
            out.push(&buf);
        }
        out
    }

    /// kANN by ADC in the rotated space (rotations preserve L2, so the
    /// estimates target the original distances).
    pub fn knn(&self, query: &[f32], k: usize) -> Vec<Neighbor> {
        assert_eq!(query.len(), self.dim);
        let mut rq = vec![0.0f32; self.dim];
        self.rotation.apply_f32(query, &mut rq);
        self.pq.knn(&rq, k)
    }

    /// ADC shortlist + exact re-ranking against the original (unrotated)
    /// data — the paper's OPQ operating point (see [`Pq::knn_rerank`]).
    pub fn knn_rerank(
        &self,
        data: &Dataset,
        query: &[f32],
        k: usize,
        expand: usize,
    ) -> Vec<Neighbor> {
        self.knn_rerank_shortlist(data, query, k, k * expand.max(1))
    }

    /// [`Self::knn_rerank`] with the shortlist size given directly (the
    /// refinement budget of the unified trait API).
    pub fn knn_rerank_shortlist(
        &self,
        data: &Dataset,
        query: &[f32],
        k: usize,
        shortlist: usize,
    ) -> Vec<Neighbor> {
        use hd_core::distance::l2_sq;
        use hd_core::topk::TopK;
        let k = k.min(self.pq.len());
        if k == 0 {
            return Vec::new();
        }
        let shortlist = self.knn(query, shortlist.max(k).min(self.pq.len()));
        let mut tk = TopK::new(k);
        for c in shortlist {
            tk.push(Neighbor::new(c.id, l2_sq(query, data.get(c.id as usize))));
        }
        let mut out = tk.into_sorted();
        for nb in &mut out {
            nb.dist = nb.dist.sqrt();
        }
        out
    }

    /// Distortion over the (rotated) dataset — comparable with
    /// [`Pq::distortion`] because rotations are isometries.
    pub fn distortion(&self, data: &Dataset) -> f64 {
        let rotated = Self::rotate_dataset(&self.rotation, data);
        self.pq.distortion(&rotated)
    }

    pub fn rotation(&self) -> &Matrix {
        &self.rotation
    }

    pub fn memory_bytes(&self) -> usize {
        self.pq.memory_bytes() + self.rotation.data.capacity() * 8
    }

    pub fn len(&self) -> usize {
        self.pq.len()
    }

    pub fn is_empty(&self) -> bool {
        self.pq.is_empty()
    }
}

/// An [`Opq`] bundled with the corpus it encodes — see
/// [`crate::quantization::PqRerank`] for the rationale.
pub struct OpqRerank<'a> {
    pub opq: Opq,
    pub data: &'a Dataset,
}

impl AnnIndex for OpqRerank<'_> {
    fn len(&self) -> u64 {
        self.opq.len() as u64
    }

    fn dim(&self) -> usize {
        self.opq.dim
    }

    /// `refine` overrides the exact-rerank shortlist size (default `20·k`);
    /// `candidates` does not apply.
    fn search_core(&self, query: &[f32], req: &SearchRequest) -> std::io::Result<SearchOutput> {
        let shortlist = req.refine.unwrap_or(req.k.saturating_mul(20));
        Ok(SearchOutput::from_neighbors(
            self.opq
                .knn_rerank_shortlist(self.data, query, req.k, shortlist),
        ))
    }

    fn stats(&self) -> IndexStats {
        IndexStats::in_memory(self.opq.memory_bytes() + self.data.memory_bytes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hd_core::dataset::{generate, Dataset, DatasetProfile};
    use hd_core::ground_truth::ground_truth_knn;
    use hd_core::metrics::score_workload;
    use rand::{Rng, SeedableRng};

    fn tiny_params() -> OpqParams {
        OpqParams {
            pq: PqParams {
                m_subspaces: 4,
                k_sub: 16,
                train_size: 400,
                kmeans_iters: 6,
                seed: 2,
            },
            opt_iters: 4,
            opt_sample: 300,
        }
    }

    /// Data with strong cross-dimension correlation — the regime where OPQ's
    /// rotation visibly beats plain PQ.
    fn correlated_data(n: usize, dim: usize, seed: u64) -> Dataset {
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut ds = Dataset::new(dim);
        let mut p = vec![0.0f32; dim];
        for _ in 0..n {
            let base: f32 = rng.gen_range(-10.0..10.0);
            for (j, v) in p.iter_mut().enumerate() {
                // Every dim strongly follows `base` with small noise, putting
                // all the variance on one diagonal direction.
                *v = base * (1.0 + j as f32 * 0.01) + rng.gen_range(-0.5..0.5);
            }
            ds.push(&p);
        }
        ds
    }

    #[test]
    fn rotation_is_orthogonal() {
        let data = correlated_data(500, 16, 1);
        let opq = Opq::build(&data, tiny_params());
        assert!(
            opq.rotation().orthogonality_error() < 1e-6,
            "R must stay orthogonal: {}",
            opq.rotation().orthogonality_error()
        );
    }

    #[test]
    fn opq_distortion_not_worse_than_pq_on_correlated_data() {
        let data = correlated_data(800, 16, 3);
        let pq = Pq::build(&data, tiny_params().pq);
        let opq = Opq::build(&data, tiny_params());
        let (dp, do_) = (pq.distortion(&data), opq.distortion(&data));
        assert!(
            do_ <= dp * 1.05,
            "OPQ ({do_:.3}) should not lose to PQ ({dp:.3}) on correlated data"
        );
    }

    #[test]
    fn knn_quality_on_real_profile() {
        let (data, queries) = generate(&DatasetProfile::GLOVE, 2000, 10, 55);
        let opq = Opq::build(
            &data,
            OpqParams {
                pq: PqParams {
                    m_subspaces: 5,
                    k_sub: 32,
                    train_size: 1000,
                    kmeans_iters: 8,
                    seed: 7,
                },
                opt_iters: 3,
                opt_sample: 500,
            },
        );
        let truth = ground_truth_knn(&data, &queries, 10, 4);
        let approx: Vec<Vec<Neighbor>> = queries
            .iter()
            .map(|q| opq.knn_rerank(&data, q, 10, 20))
            .collect();
        let s = score_workload(&truth, &approx);
        assert!(
            s.recall > 0.4,
            "OPQ (re-ranked) recall too low: {}",
            s.recall
        );
    }
}
