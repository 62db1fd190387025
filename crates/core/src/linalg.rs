//! Minimal dense linear algebra for OPQ rotation learning.
//!
//! OPQ's non-parametric training loop (Ge et al., CVPR 2013) alternates
//! between PQ encoding and solving an orthogonal Procrustes problem
//! `min_R ‖RX − Y‖_F` whose solution is `R = U Vᵀ` from the SVD of `X Yᵀ`.
//! No external linear-algebra crate is available offline, so this module
//! implements exactly what that loop needs, in `f64`:
//!
//! * a row-major [`Matrix`] with multiply/transpose,
//! * cyclic Jacobi eigendecomposition of symmetric matrices, and
//! * SVD of square matrices via the eigendecomposition of `AᵀA`
//!   (adequate for the well-conditioned correlation matrices OPQ produces).

/// Dense row-major `f64` matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    pub rows: usize,
    pub cols: usize,
    pub data: Vec<f64>,
}

impl Matrix {
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), rows * cols, "buffer size mismatch");
        Self { rows, cols, data }
    }

    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                t[(c, r)] = self[(r, c)];
            }
        }
        t
    }

    /// Matrix product `self × other`.
    ///
    /// # Panics
    /// Panics on inner-dimension mismatch.
    pub fn matmul(&self, other: &Matrix) -> Matrix {
        assert_eq!(self.cols, other.rows, "inner dimension mismatch");
        let mut out = Matrix::zeros(self.rows, other.cols);
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self[(i, k)];
                if a == 0.0 {
                    continue;
                }
                for j in 0..other.cols {
                    out[(i, j)] += a * other[(k, j)];
                }
            }
        }
        out
    }

    /// Applies the matrix to an `f32` vector (used on the OPQ hot path).
    pub fn apply_f32(&self, v: &[f32], out: &mut [f32]) {
        assert_eq!(v.len(), self.cols, "vector length mismatch");
        assert_eq!(out.len(), self.rows, "output length mismatch");
        for (i, o) in out.iter_mut().enumerate() {
            let mut s = 0.0f64;
            let row = &self.data[i * self.cols..(i + 1) * self.cols];
            for (a, &x) in row.iter().zip(v) {
                s += a * x as f64;
            }
            *o = s as f32;
        }
    }

    /// Frobenius norm of `self − other`.
    pub fn frobenius_distance(&self, other: &Matrix) -> f64 {
        assert_eq!((self.rows, self.cols), (other.rows, other.cols));
        self.data
            .iter()
            .zip(&other.data)
            .map(|(a, b)| (a - b) * (a - b))
            .sum::<f64>()
            .sqrt()
    }

    /// `‖Mᵀ M − I‖_F`, the deviation from orthogonality.
    pub fn orthogonality_error(&self) -> f64 {
        self.transpose()
            .matmul(self)
            .frobenius_distance(&Matrix::identity(self.cols))
    }
}

impl std::ops::Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &f64 {
        &self.data[r * self.cols + c]
    }
}

impl std::ops::IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f64 {
        &mut self.data[r * self.cols + c]
    }
}

/// Eigendecomposition `A = V diag(λ) Vᵀ` of a symmetric matrix, by cyclic
/// Jacobi rotations. Eigenpairs are returned sorted by descending eigenvalue;
/// `V`'s columns are the eigenvectors.
///
/// # Panics
/// Panics if `a` is not square.
pub fn jacobi_eigen(a: &Matrix, max_sweeps: usize) -> (Vec<f64>, Matrix) {
    assert_eq!(a.rows, a.cols, "matrix must be square");
    let n = a.rows;
    let mut m = a.clone();
    let mut v = Matrix::identity(n);

    for _ in 0..max_sweeps {
        let mut off = 0.0;
        for p in 0..n {
            for q in (p + 1)..n {
                off += m[(p, q)] * m[(p, q)];
            }
        }
        if off < 1e-24 {
            break;
        }
        for p in 0..n {
            for q in (p + 1)..n {
                let apq = m[(p, q)];
                if apq.abs() < 1e-300 {
                    continue;
                }
                let app = m[(p, p)];
                let aqq = m[(q, q)];
                let theta = (aqq - app) / (2.0 * apq);
                let t = theta.signum() / (theta.abs() + (theta * theta + 1.0).sqrt());
                let c = 1.0 / (t * t + 1.0).sqrt();
                let s = t * c;
                // Rotate rows/columns p and q of m.
                for i in 0..n {
                    let mip = m[(i, p)];
                    let miq = m[(i, q)];
                    m[(i, p)] = c * mip - s * miq;
                    m[(i, q)] = s * mip + c * miq;
                }
                for j in 0..n {
                    let mpj = m[(p, j)];
                    let mqj = m[(q, j)];
                    m[(p, j)] = c * mpj - s * mqj;
                    m[(q, j)] = s * mpj + c * mqj;
                }
                // Accumulate the rotation into V.
                for i in 0..n {
                    let vip = v[(i, p)];
                    let viq = v[(i, q)];
                    v[(i, p)] = c * vip - s * viq;
                    v[(i, q)] = s * vip + c * viq;
                }
            }
        }
    }

    let mut pairs: Vec<(f64, usize)> = (0..n).map(|i| (m[(i, i)], i)).collect();
    pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
    let eigvals: Vec<f64> = pairs.iter().map(|&(l, _)| l).collect();
    let mut sorted_v = Matrix::zeros(n, n);
    for (new_col, &(_, old_col)) in pairs.iter().enumerate() {
        for r in 0..n {
            sorted_v[(r, new_col)] = v[(r, old_col)];
        }
    }
    (eigvals, sorted_v)
}

/// SVD `A = U diag(σ) Vᵀ` of a square matrix via the eigendecomposition of
/// `AᵀA`. Near-zero singular directions get their `U` column completed by
/// Gram–Schmidt so `U` stays orthogonal.
///
/// # Panics
/// Panics if `a` is not square.
pub fn svd_square(a: &Matrix) -> (Matrix, Vec<f64>, Matrix) {
    assert_eq!(a.rows, a.cols, "svd_square expects a square matrix");
    let n = a.rows;
    let ata = a.transpose().matmul(a);
    let (eigvals, v) = jacobi_eigen(&ata, 64);
    let sigma: Vec<f64> = eigvals.iter().map(|&l| l.max(0.0).sqrt()).collect();

    let mut u = Matrix::zeros(n, n);
    let av = a.matmul(&v);
    let scale_floor = sigma.first().copied().unwrap_or(0.0) * 1e-10;
    for j in 0..n {
        if sigma[j] > scale_floor && sigma[j] > 0.0 {
            for i in 0..n {
                u[(i, j)] = av[(i, j)] / sigma[j];
            }
        } else {
            // Placeholder direction; orthogonalized below.
            for i in 0..n {
                u[(i, j)] = if i == j { 1.0 } else { 1e-3 * (i as f64 + 1.0) };
            }
        }
    }
    // Modified Gram–Schmidt re-orthonormalization: small singular values
    // amplify eigenvector error when forming U = A·V·Σ⁻¹, and Procrustes
    // callers need U orthogonal to machine precision (R = U·Vᵀ must be a
    // true rotation).
    for j in 0..n {
        for prev in 0..j {
            let dot: f64 = (0..n).map(|i| u[(i, j)] * u[(i, prev)]).sum();
            for i in 0..n {
                u[(i, j)] -= dot * u[(i, prev)];
            }
        }
        let norm: f64 = (0..n)
            .map(|i| u[(i, j)] * u[(i, j)])
            .sum::<f64>()
            .sqrt()
            .max(1e-30);
        for i in 0..n {
            u[(i, j)] /= norm;
        }
    }
    (u, sigma, v)
}

/// Solves the orthogonal Procrustes problem `argmin_R ‖R X − Y‖_F` over
/// orthogonal `R`, where columns of `X`, `Y` are paired observations:
/// `R = U Vᵀ` with `U Σ Vᵀ = svd(Y Xᵀ)`.
pub fn procrustes(x: &Matrix, y: &Matrix) -> Matrix {
    assert_eq!((x.rows, x.cols), (y.rows, y.cols), "shape mismatch");
    let c = y.matmul(&x.transpose());
    let (u, _sigma, v) = svd_square(&c);
    u.matmul(&v.transpose())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matmul_identity() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]);
        let i = Matrix::identity(2);
        assert_eq!(a.matmul(&i), a);
        assert_eq!(i.matmul(&a), a);
    }

    #[test]
    fn transpose_involutive() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn jacobi_diagonal_matrix() {
        let mut a = Matrix::zeros(3, 3);
        a[(0, 0)] = 3.0;
        a[(1, 1)] = 1.0;
        a[(2, 2)] = 2.0;
        let (vals, _) = jacobi_eigen(&a, 32);
        assert!((vals[0] - 3.0).abs() < 1e-10);
        assert!((vals[1] - 2.0).abs() < 1e-10);
        assert!((vals[2] - 1.0).abs() < 1e-10);
    }

    #[test]
    fn jacobi_known_2x2() {
        // [[2,1],[1,2]] has eigenvalues 3 and 1.
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]);
        let (vals, v) = jacobi_eigen(&a, 32);
        assert!((vals[0] - 3.0).abs() < 1e-10);
        assert!((vals[1] - 1.0).abs() < 1e-10);
        // Check A v = λ v for the top eigenvector.
        let av0: Vec<f64> = (0..2)
            .map(|i| a[(i, 0)] * v[(0, 0)] + a[(i, 1)] * v[(1, 0)])
            .collect();
        for i in 0..2 {
            assert!((av0[i] - 3.0 * v[(i, 0)]).abs() < 1e-8);
        }
    }

    #[test]
    fn svd_reconstructs() {
        let a = Matrix::from_vec(3, 3, vec![4.0, 1.0, 0.5, -2.0, 3.0, 1.0, 0.0, 1.5, 5.0]);
        let (u, s, v) = svd_square(&a);
        let mut sig = Matrix::zeros(3, 3);
        for i in 0..3 {
            sig[(i, i)] = s[i];
        }
        let recon = u.matmul(&sig).matmul(&v.transpose());
        assert!(
            a.frobenius_distance(&recon) < 1e-8,
            "err {}",
            a.frobenius_distance(&recon)
        );
        assert!(u.orthogonality_error() < 1e-8);
        assert!(v.orthogonality_error() < 1e-8);
    }

    #[test]
    fn svd_singular_values_descending_nonnegative() {
        let a = Matrix::from_vec(2, 2, vec![1.0, 2.0, 2.0, 4.0]); // rank 1
        let (_, s, _) = svd_square(&a);
        assert!(s[0] >= s[1] && s[1] >= -1e-12);
        assert!(
            s[1].abs() < 1e-8,
            "rank-1 matrix must have σ₂≈0, got {}",
            s[1]
        );
    }

    #[test]
    fn procrustes_recovers_rotation() {
        // Build a random-ish rotation (Givens) and check recovery.
        let theta = 0.7f64;
        let r_true = Matrix::from_vec(
            2,
            2,
            vec![theta.cos(), -theta.sin(), theta.sin(), theta.cos()],
        );
        let x = Matrix::from_vec(2, 4, vec![1.0, 0.0, 2.0, -1.0, 0.0, 1.0, 1.0, 3.0]);
        let y = r_true.matmul(&x);
        let r = procrustes(&x, &y);
        assert!(r.frobenius_distance(&r_true) < 1e-8);
        assert!(r.orthogonality_error() < 1e-8);
    }

    #[test]
    fn apply_f32_matches_matmul() {
        let a = Matrix::from_vec(2, 3, vec![1.0, 0.0, 2.0, -1.0, 1.0, 0.5]);
        let mut out = [0.0f32; 2];
        a.apply_f32(&[1.0, 2.0, 3.0], &mut out);
        assert!((out[0] - 7.0).abs() < 1e-6);
        assert!((out[1] - 2.5).abs() < 1e-6);
    }
}
