//! Symmetric eigendecomposition via the cyclic Jacobi method.
//!
//! The deterministic ensemble-space formulation of the EnKF (the LETKF of
//! Ott et al. 2004, which the paper's L-EnKF baselines build on) needs the
//! eigendecomposition of an `N × N` symmetric matrix in ensemble space —
//! `N` is the ensemble size, so a simple, robust Jacobi sweep is entirely
//! adequate and keeps the stack dependency-free.

use crate::{LinalgError, Matrix, Result};

/// Eigendecomposition `A = V diag(λ) Vᵀ` of a symmetric matrix.
#[derive(Debug, Clone)]
pub struct SymEigen {
    /// Eigenvalues, ascending.
    pub values: Vec<f64>,
    /// Orthonormal eigenvectors as *columns* (`V`), ordered like `values`.
    pub vectors: Matrix,
}

impl SymEigen {
    /// Decompose a symmetric matrix with cyclic Jacobi rotations.
    ///
    /// Only the lower triangle is trusted; the matrix is symmetrized
    /// internally. Converges quadratically; `max_sweeps` bounds the work
    /// (15 sweeps are far more than small ensemble-space problems need).
    ///
    /// Convenience wrapper over [`EigenWorkspace::decompose`]; both run the
    /// same kernel, so their results are bit-identical.
    pub fn decompose(a: &Matrix) -> Result<Self> {
        let mut ws = EigenWorkspace::new();
        ws.decompose(a)?;
        Ok(SymEigen {
            values: ws.values,
            vectors: ws.vectors,
        })
    }

    /// Reassemble `V diag(λ) Vᵀ` (diagnostics / tests).
    pub fn reconstruct(&self) -> Matrix {
        let n = self.values.len();
        let mut scaled = self.vectors.clone();
        for j in 0..n {
            for i in 0..n {
                scaled[(i, j)] *= self.values[j];
            }
        }
        scaled.matmul_tr(&self.vectors).expect("square")
    }

    /// Apply `f` to the spectrum: `V diag(f(λ)) Vᵀ`. The workhorse for the
    /// ETKF's inverse and symmetric square root.
    pub fn map_spectrum(&self, f: impl Fn(f64) -> f64) -> Matrix {
        let n = self.values.len();
        let mut scaled = self.vectors.clone();
        for j in 0..n {
            let fj = f(self.values[j]);
            for i in 0..n {
                scaled[(i, j)] *= fj;
            }
        }
        let mut out = scaled.matmul_tr(&self.vectors).expect("square");
        out.symmetrize();
        out
    }

    /// Smallest eigenvalue.
    pub fn min_eigenvalue(&self) -> f64 {
        *self.values.first().expect("non-empty spectrum")
    }
}

/// Reusable buffers for repeated symmetric eigendecompositions.
///
/// The LETKF solves one small ensemble-space eigenproblem per grid point;
/// with a workspace the whole sequence — Jacobi iteration, eigenvalue sort,
/// column permutation and `map_spectrum` products — runs without touching
/// the allocator once the buffers have reached steady-state size. The
/// kernel is shared with [`SymEigen::decompose`], so results are
/// bit-identical to the allocating API.
#[derive(Debug, Clone)]
pub struct EigenWorkspace {
    m: Matrix,
    /// Accumulated rotations as `Vᵀ`: row `k` is the `k`-th eigenvector.
    vt: Matrix,
    diag: Vec<f64>,
    order: Vec<usize>,
    values: Vec<f64>,
    vectors: Matrix,
    scaled: Matrix,
}

impl Default for EigenWorkspace {
    fn default() -> Self {
        Self::new()
    }
}

impl EigenWorkspace {
    /// An empty workspace; buffers grow on first use and are then reused.
    pub fn new() -> Self {
        EigenWorkspace {
            m: Matrix::zeros(0, 0),
            vt: Matrix::zeros(0, 0),
            diag: Vec::new(),
            order: Vec::new(),
            values: Vec::new(),
            vectors: Matrix::zeros(0, 0),
            scaled: Matrix::zeros(0, 0),
        }
    }

    /// Decompose a symmetric matrix into the workspace buffers.
    ///
    /// See [`SymEigen::decompose`] for the algorithm; the results are read
    /// back through [`EigenWorkspace::values`] / [`EigenWorkspace::vectors`].
    pub fn decompose(&mut self, a: &Matrix) -> Result<()> {
        if !a.is_square() {
            return Err(LinalgError::NotSquare { shape: a.shape() });
        }
        let n = a.nrows();
        self.m.copy_from(a);
        self.m.symmetrize();
        self.vt.resize_identity(n);
        jacobi_iterate(&mut self.m, &mut self.vt);
        self.finish(n);
        Ok(())
    }

    /// Post-iteration path: extract the diagonal, sort ascending,
    /// and scatter eigenvectors into columns.
    fn finish(&mut self, n: usize) {
        // Extract the diagonal and sort ascending. The insertion sort is
        // stable (like the `sort_by` it replaces) and allocation-free.
        self.diag.clear();
        self.diag.extend((0..n).map(|i| self.m[(i, i)]));
        self.order.clear();
        self.order.extend(0..n);
        for i in 1..n {
            let oi = self.order[i];
            let key = self.diag[oi];
            let mut j = i;
            while j > 0 && self.diag[self.order[j - 1]] > key {
                self.order[j] = self.order[j - 1];
                j -= 1;
            }
            self.order[j] = oi;
        }
        self.values.clear();
        self.values.extend(self.order.iter().map(|&i| self.diag[i]));
        self.vectors.resize(n, n);
        for (new_col, &old_row) in self.order.iter().enumerate() {
            // Eigenvector `old_row` is a contiguous row of `vt`; scatter it
            // into column `new_col` of the column-major-by-convention output.
            for (r, &x) in self.vt.row(old_row).iter().enumerate() {
                self.vectors[(r, new_col)] = x;
            }
        }
    }

    /// Eigenvalues of the last decomposition, ascending.
    #[inline]
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Eigenvectors of the last decomposition (columns, ordered like
    /// [`EigenWorkspace::values`]).
    #[inline]
    pub fn vectors(&self) -> &Matrix {
        &self.vectors
    }

    /// Smallest eigenvalue of the last decomposition.
    pub fn min_eigenvalue(&self) -> f64 {
        *self.values.first().expect("non-empty spectrum")
    }

    /// `V diag(f(λ)) Vᵀ` written into a caller-owned matrix.
    ///
    /// Same kernel as [`SymEigen::map_spectrum`] (bit-identical), but the
    /// scaled-eigenvector scratch and the output are reused buffers.
    pub fn map_spectrum_into(&mut self, f: impl Fn(f64) -> f64, out: &mut Matrix) -> Result<()> {
        let n = self.values.len();
        self.scaled.copy_from(&self.vectors);
        for j in 0..n {
            let fj = f(self.values[j]);
            for i in 0..n {
                self.scaled[(i, j)] *= fj;
            }
        }
        self.scaled.matmul_tr_into(&self.vectors, out)?;
        out.symmetrize();
        Ok(())
    }
}

/// Cyclic Jacobi sweeps on a symmetrized matrix `m`, accumulating the
/// rotations into the *rows* of `vt` (which must start as the identity).
/// On exit row `k` of `vt` is the eigenvector belonging to `m[(k, k)]`.
///
/// The row layout keeps every rotation a pair of contiguous-slice updates
/// (no strided column walks, no per-element bounds-checked 2-D indexing);
/// the arithmetic per element is unchanged from the textbook two-sided
/// update, so results are bit-identical to the column-accumulating form.
fn jacobi_iterate(m: &mut Matrix, vt: &mut Matrix) {
    let n = m.nrows();
    let max_sweeps = 30;
    for _ in 0..max_sweeps {
        let off: f64 = off_diagonal_norm(m);
        if off < 1e-14 * (1.0 + m.frobenius_norm()) {
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
                // Stable rotation computation (Golub & Van Loan).
                let tau = (aqq - app) / (2.0 * apq);
                let t = if tau >= 0.0 {
                    1.0 / (tau + (1.0 + tau * tau).sqrt())
                } else {
                    -1.0 / (-tau + (1.0 + tau * tau).sqrt())
                };
                let c = 1.0 / (1.0 + t * t).sqrt();
                let s = t * c;
                apply_rotation(m, p, q, c, s);
                rotate_rows(vt, p, q, c, s);
            }
        }
    }
}

fn off_diagonal_norm(m: &Matrix) -> f64 {
    let n = m.nrows();
    let mut s = 0.0;
    for i in 0..n {
        for j in (i + 1)..n {
            s += m[(i, j)] * m[(i, j)];
        }
    }
    (2.0 * s).sqrt()
}

/// Two-sided Jacobi rotation on rows/columns `p < q`.
///
/// `m` stays exactly symmetric throughout the iteration, so the column
/// entries `m[(k, p)]` are read from the contiguous row `p` instead of
/// walking a stride-`n` column. The rotation runs branch-free over both
/// full rows (the `p`/`q` entries are overwritten by the 2×2 diagonal-block
/// update from values saved beforehand), then the rows are mirrored back
/// into their columns. Every element sees the same inputs and the same
/// expression as the classic per-element loop — bit-identical output.
fn apply_rotation(m: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    let n = m.nrows();
    debug_assert!(p < q);
    let data = m.as_mut_slice();
    let (head, tail) = data.split_at_mut(q * n);
    let rp = &mut head[p * n..(p + 1) * n];
    let rq = &mut tail[..n];
    let app = rp[p];
    let aqq = rq[q];
    let apq = rp[q];
    for (xp, xq) in rp.iter_mut().zip(rq.iter_mut()) {
        let mkp = *xp;
        let mkq = *xq;
        *xp = c * mkp - s * mkq;
        *xq = s * mkp + c * mkq;
    }
    rp[p] = c * c * app - 2.0 * s * c * apq + s * s * aqq;
    rq[q] = s * s * app + 2.0 * s * c * apq + c * c * aqq;
    rp[q] = 0.0;
    rq[p] = 0.0;
    for k in 0..n {
        data[k * n + p] = data[p * n + k];
        data[k * n + q] = data[q * n + k];
    }
}

/// Rotate rows `p` and `q` of the accumulated `Vᵀ` (contiguous slices).
fn rotate_rows(vt: &mut Matrix, p: usize, q: usize, c: f64, s: f64) {
    let n = vt.ncols();
    let data = vt.as_mut_slice();
    let (head, tail) = data.split_at_mut(q * n);
    let rp = &mut head[p * n..(p + 1) * n];
    let rq = &mut tail[..n];
    for (xp, xq) in rp.iter_mut().zip(rq.iter_mut()) {
        let vkp = *xp;
        let vkq = *xq;
        *xp = c * vkp - s * vkq;
        *xq = s * vkp + c * vkq;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::GaussianSampler;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn random_symmetric(n: usize, seed: u64) -> Matrix {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut gs = GaussianSampler::new();
        let mut m = Matrix::from_fn(n, n, |_, _| gs.sample(&mut rng));
        m.symmetrize();
        m
    }

    #[test]
    fn diagonal_matrix_is_its_own_spectrum() {
        let a = Matrix::from_diag(&[3.0, -1.0, 2.0]);
        let e = SymEigen::decompose(&a).unwrap();
        assert_eq!(e.values.len(), 3);
        assert!((e.values[0] + 1.0).abs() < 1e-12);
        assert!((e.values[1] - 2.0).abs() < 1e-12);
        assert!((e.values[2] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn reconstruction_matches_input() {
        for seed in [1, 7, 23] {
            let a = random_symmetric(8, seed);
            let e = SymEigen::decompose(&a).unwrap();
            assert!(e.reconstruct().approx_eq(&a, 1e-9), "seed {seed}");
        }
    }

    #[test]
    fn eigenvectors_are_orthonormal() {
        let a = random_symmetric(10, 5);
        let e = SymEigen::decompose(&a).unwrap();
        let vtv = e.vectors.tr_matmul(&e.vectors).unwrap();
        assert!(vtv.approx_eq(&Matrix::identity(10), 1e-10));
    }

    #[test]
    fn known_2x2_eigenvalues() {
        // [[2,1],[1,2]] has eigenvalues 1 and 3.
        let a = Matrix::from_vec(2, 2, vec![2.0, 1.0, 1.0, 2.0]).unwrap();
        let e = SymEigen::decompose(&a).unwrap();
        assert!((e.values[0] - 1.0).abs() < 1e-12);
        assert!((e.values[1] - 3.0).abs() < 1e-12);
    }

    #[test]
    fn map_spectrum_inverse() {
        // For SPD A, map_spectrum(1/λ) must equal A⁻¹.
        let m = random_symmetric(6, 9);
        let a = {
            let mut spd = m.matmul_tr(&m).unwrap();
            for i in 0..6 {
                spd[(i, i)] += 6.0;
            }
            spd
        };
        let e = SymEigen::decompose(&a).unwrap();
        let inv = e.map_spectrum(|l| 1.0 / l);
        let prod = inv.matmul(&a).unwrap();
        assert!(prod.approx_eq(&Matrix::identity(6), 1e-8));
    }

    #[test]
    fn map_spectrum_square_root() {
        let m = random_symmetric(5, 11);
        let a = {
            let mut spd = m.matmul_tr(&m).unwrap();
            for i in 0..5 {
                spd[(i, i)] += 5.0;
            }
            spd
        };
        let e = SymEigen::decompose(&a).unwrap();
        let root = e.map_spectrum(f64::sqrt);
        let back = root.matmul(&root).unwrap();
        assert!(back.approx_eq(&a, 1e-8));
    }

    #[test]
    fn rejects_non_square() {
        assert!(SymEigen::decompose(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn workspace_matches_symeigen_bitwise_across_reuse() {
        // One workspace reused across different sizes and seeds must produce
        // exactly what the allocating API produces.
        let mut ws = EigenWorkspace::new();
        let mut out = Matrix::zeros(0, 0);
        for (n, seed) in [(8usize, 1u64), (4, 7), (10, 23), (6, 9)] {
            let a = random_symmetric(n, seed);
            let e = SymEigen::decompose(&a).unwrap();
            ws.decompose(&a).unwrap();
            assert_eq!(ws.values(), &e.values[..]);
            assert_eq!(ws.vectors(), &e.vectors);
            assert_eq!(ws.min_eigenvalue(), e.min_eigenvalue());
            ws.map_spectrum_into(|l| 1.0 / (l * l + 1.0), &mut out)
                .unwrap();
            assert_eq!(out, e.map_spectrum(|l| 1.0 / (l * l + 1.0)));
        }
    }

    #[test]
    fn workspace_rejects_non_square() {
        assert!(EigenWorkspace::new()
            .decompose(&Matrix::zeros(2, 3))
            .is_err());
    }

    #[test]
    fn trace_equals_eigenvalue_sum() {
        let a = random_symmetric(7, 13);
        let e = SymEigen::decompose(&a).unwrap();
        let trace: f64 = (0..7).map(|i| a[(i, i)]).sum();
        let sum: f64 = e.values.iter().sum();
        assert!((trace - sum).abs() < 1e-9);
    }
}
