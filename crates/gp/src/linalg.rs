//! Dense linear algebra for symmetric kernels.
//!
//! The GP component needs exactly the operations implemented here: dense
//! matrix arithmetic, Cholesky factorisation of symmetric positive definite
//! matrices, triangular solves and SPD inverses. Implementing them in ~300
//! lines avoids an external linear-algebra dependency; matrices are stored
//! row-major.

// Index-based loops are kept where they mirror the textbook algorithms
// (Cholesky, triangular solves) — clarity over iterator zips here.
#![allow(clippy::needless_range_loop)]

use crate::error::GpError;

/// A dense row-major `rows × cols` matrix of `f64`.
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// A zero matrix.
    pub(crate) fn zeros(rows: usize, cols: usize) -> Matrix {
        Matrix { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// The identity matrix.
    pub(crate) fn identity(n: usize) -> Matrix {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.set(i, i, 1.0);
        }
        m
    }

    /// Number of rows.
    pub(crate) fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub(crate) fn cols(&self) -> usize {
        self.cols
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j]
    }

    /// Element mutator.
    #[inline]
    pub(crate) fn set(&mut self, i: usize, j: usize, v: f64) {
        debug_assert!(i < self.rows && j < self.cols);
        self.data[i * self.cols + j] = v;
    }

    /// In-place element update.
    #[inline]
    pub(crate) fn add_to(&mut self, i: usize, j: usize, v: f64) {
        self.data[i * self.cols + j] += v;
    }

    /// One row as a slice.
    pub(crate) fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Transpose.
    pub(crate) fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                t.set(j, i, self.get(i, j));
            }
        }
        t
    }

    /// Matrix product `self · rhs`.
    pub(crate) fn matmul(&self, rhs: &Matrix) -> Result<Matrix, GpError> {
        if self.cols != rhs.rows {
            return Err(GpError::DimensionMismatch {
                detail: format!("matmul: {}×{} · {}×{}", self.rows, self.cols, rhs.rows, rhs.cols),
            });
        }
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        // i-k-j loop order for cache-friendly access of row-major operands.
        for i in 0..self.rows {
            for k in 0..self.cols {
                let a = self.get(i, k);
                if a == 0.0 {
                    continue;
                }
                let rhs_row = rhs.row(k);
                let out_row = &mut out.data[i * rhs.cols..(i + 1) * rhs.cols];
                for (o, &b) in out_row.iter_mut().zip(rhs_row) {
                    *o += a * b;
                }
            }
        }
        Ok(out)
    }

    /// Matrix-vector product.
    pub(crate) fn matvec(&self, v: &[f64]) -> Result<Vec<f64>, GpError> {
        if self.cols != v.len() {
            return Err(GpError::DimensionMismatch {
                detail: format!("matvec: {}×{} · len {}", self.rows, self.cols, v.len()),
            });
        }
        Ok((0..self.rows).map(|i| self.row(i).iter().zip(v).map(|(a, b)| a * b).sum()).collect())
    }

    /// Elementwise sum. (Named like a matrix API, not `std::ops::Add`,
    /// because it is fallible.)
    #[allow(clippy::should_implement_trait)]
    pub(crate) fn add(&self, rhs: &Matrix) -> Result<Matrix, GpError> {
        if self.rows != rhs.rows || self.cols != rhs.cols {
            return Err(GpError::DimensionMismatch { detail: "add: shape mismatch".into() });
        }
        let data = self.data.iter().zip(&rhs.data).map(|(a, b)| a + b).collect();
        Ok(Matrix { rows: self.rows, cols: self.cols, data })
    }

    /// Scalar multiple.
    pub(crate) fn scale(&self, s: f64) -> Matrix {
        Matrix { rows: self.rows, cols: self.cols, data: self.data.iter().map(|v| v * s).collect() }
    }

    /// Adds `s` to the diagonal (jitter / noise term).
    pub(crate) fn add_diagonal(&self, s: f64) -> Matrix {
        let mut out = self.clone();
        for i in 0..self.rows.min(self.cols) {
            out.add_to(i, i, s);
        }
        out
    }

    /// Extracts the submatrix with the given row and column indices.
    pub(crate) fn submatrix(
        &self,
        row_idx: &[usize],
        col_idx: &[usize],
    ) -> Result<Matrix, GpError> {
        for &i in row_idx.iter().chain(col_idx) {
            if i >= self.rows.max(self.cols) {
                return Err(GpError::VertexOutOfRange { index: i, n: self.rows });
            }
        }
        let mut out = Matrix::zeros(row_idx.len(), col_idx.len());
        for (oi, &i) in row_idx.iter().enumerate() {
            for (oj, &j) in col_idx.iter().enumerate() {
                out.set(oi, oj, self.get(i, j));
            }
        }
        Ok(out)
    }

    /// Cholesky factorisation: returns lower-triangular `L` with
    /// `L·Lᵀ = self`. Fails when the matrix is not SPD.
    pub(crate) fn cholesky(&self) -> Result<Matrix, GpError> {
        if self.rows != self.cols {
            return Err(GpError::DimensionMismatch { detail: "cholesky: not square".into() });
        }
        let n = self.rows;
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            for j in 0..=i {
                let mut sum = self.get(i, j);
                for k in 0..j {
                    sum -= l.get(i, k) * l.get(j, k);
                }
                if i == j {
                    if sum <= 0.0 || !sum.is_finite() {
                        return Err(GpError::NotPositiveDefinite { pivot: i, value: sum });
                    }
                    l.set(i, j, sum.sqrt());
                } else {
                    l.set(i, j, sum / l.get(j, j));
                }
            }
        }
        Ok(l)
    }

    /// Solves `self · x = b` for SPD `self` via Cholesky.
    pub(crate) fn solve_spd(&self, b: &[f64]) -> Result<Vec<f64>, GpError> {
        let l = self.cholesky()?;
        let y = forward_substitute(&l, b)?;
        backward_substitute_transposed(&l, &y)
    }

    /// Solves `self · X = B` (column-wise) for SPD `self`.
    pub(crate) fn solve_spd_matrix(&self, b: &Matrix) -> Result<Matrix, GpError> {
        if self.rows != b.rows {
            return Err(GpError::DimensionMismatch { detail: "solve: rhs rows".into() });
        }
        let l = self.cholesky()?;
        let mut out = Matrix::zeros(b.rows, b.cols);
        let mut col = vec![0.0; b.rows];
        for j in 0..b.cols {
            for i in 0..b.rows {
                col[i] = b.get(i, j);
            }
            let y = forward_substitute(&l, &col)?;
            let x = backward_substitute_transposed(&l, &y)?;
            for i in 0..b.rows {
                out.set(i, j, x[i]);
            }
        }
        Ok(out)
    }

    /// Inverse of an SPD matrix.
    pub(crate) fn inverse_spd(&self) -> Result<Matrix, GpError> {
        self.solve_spd_matrix(&Matrix::identity(self.rows))
    }

    /// Maximum absolute row sum (the induced ∞-norm).
    pub(crate) fn norm_inf(&self) -> f64 {
        (0..self.rows).map(|i| self.row(i).iter().map(|v| v.abs()).sum::<f64>()).fold(0.0, f64::max)
    }

    /// Matrix exponential `exp(self)` by scaling-and-squaring with a
    /// truncated Taylor series — adequate for the symmetric, moderately
    /// sized matrices of graph kernels (the diffusion kernel `exp(−βL)`).
    pub(crate) fn expm(&self) -> Result<Matrix, GpError> {
        if self.rows != self.cols {
            return Err(GpError::DimensionMismatch { detail: "expm: not square".into() });
        }
        let n = self.rows;
        // Scale so the norm is below 0.5, then square back.
        let norm = self.norm_inf();
        let squarings = if norm > 0.5 { (norm / 0.5).log2().ceil() as u32 } else { 0 };
        let scaled = self.scale(1.0 / f64::powi(2.0, squarings as i32));

        // Taylor series Σ Aᵏ/k! — with ‖A‖ ≤ 0.5, 16 terms reach ~1e-16.
        let mut result = Matrix::identity(n);
        let mut term = Matrix::identity(n);
        for k in 1..=16u32 {
            term = term.matmul(&scaled)?.scale(1.0 / k as f64);
            result = result.add(&term)?;
        }
        for _ in 0..squarings {
            result = result.matmul(&result)?;
        }
        Ok(result)
    }
}

/// Solves `L · y = b` for lower-triangular `L`.
fn forward_substitute(l: &Matrix, b: &[f64]) -> Result<Vec<f64>, GpError> {
    let n = l.rows();
    if b.len() != n {
        return Err(GpError::DimensionMismatch { detail: "forward substitution".into() });
    }
    let mut y = vec![0.0; n];
    for i in 0..n {
        let mut sum = b[i];
        for k in 0..i {
            sum -= l.get(i, k) * y[k];
        }
        y[i] = sum / l.get(i, i);
    }
    Ok(y)
}

/// Solves `Lᵀ · x = y` for lower-triangular `L`.
fn backward_substitute_transposed(l: &Matrix, y: &[f64]) -> Result<Vec<f64>, GpError> {
    let n = l.rows();
    if y.len() != n {
        return Err(GpError::DimensionMismatch { detail: "backward substitution".into() });
    }
    let mut x = vec![0.0; n];
    for i in (0..n).rev() {
        let mut sum = y[i];
        for k in (i + 1)..n {
            sum -= l.get(k, i) * x[k];
        }
        x[i] = sum / l.get(i, i);
    }
    Ok(x)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Builds from nested rows. Panics on ragged input.
    fn from_rows(rows: &[Vec<f64>]) -> Matrix {
        let r = rows.len();
        let c = rows.first().map(Vec::len).unwrap_or(0);
        assert!(rows.iter().all(|row| row.len() == c), "ragged rows");
        Matrix { rows: r, cols: c, data: rows.iter().flatten().copied().collect() }
    }

    /// Maximum absolute elementwise difference of two matrices.
    pub(crate) fn max_abs_diff(a: &Matrix, b: &Matrix) -> f64 {
        a.data.iter().zip(&b.data).map(|(x, y)| (x - y).abs()).fold(0.0, f64::max)
    }

    /// Whether a matrix is (numerically) symmetric.
    pub(crate) fn is_symmetric(m: &Matrix, tol: f64) -> bool {
        m.rows == m.cols
            && (0..m.rows)
                .all(|i| (i + 1..m.cols).all(|j| (m.get(i, j) - m.get(j, i)).abs() <= tol))
    }

    fn spd3() -> Matrix {
        // A known SPD matrix.
        from_rows(&[vec![4.0, 2.0, 0.6], vec![2.0, 5.0, 1.0], vec![0.6, 1.0, 3.0]])
    }

    #[test]
    fn construction_and_access() {
        let mut m = Matrix::zeros(2, 3);
        m.set(1, 2, 5.0);
        assert_eq!(m.get(1, 2), 5.0);
        assert_eq!(m.rows(), 2);
        assert_eq!(m.cols(), 3);
        let i = Matrix::identity(3);
        assert_eq!(i.get(1, 1), 1.0);
        assert_eq!(i.get(0, 1), 0.0);
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b).unwrap();
        assert_eq!(c, from_rows(&[vec![19.0, 22.0], vec![43.0, 50.0]]));
    }

    #[test]
    fn matmul_dimension_check() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        assert!(a.matmul(&b).is_err());
    }

    #[test]
    fn matvec_works() {
        let a = from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        assert_eq!(a.matvec(&[1.0, 1.0]).unwrap(), vec![3.0, 7.0]);
        assert!(a.matvec(&[1.0]).is_err());
    }

    #[test]
    fn transpose_add_sub_scale() {
        let a = from_rows(&[vec![1.0, 2.0, 3.0]]);
        assert_eq!(a.transpose(), from_rows(&[vec![1.0], vec![2.0], vec![3.0]]));
        let b = a.add(&a).unwrap();
        assert_eq!(b, a.scale(2.0));
    }

    #[test]
    fn cholesky_reconstructs() {
        let m = spd3();
        let l = m.cholesky().unwrap();
        let back = l.matmul(&l.transpose()).unwrap();
        assert!(max_abs_diff(&m, &back) < 1e-12);
        // L is lower triangular.
        assert_eq!(l.get(0, 1), 0.0);
        assert_eq!(l.get(0, 2), 0.0);
        assert_eq!(l.get(1, 2), 0.0);
    }

    #[test]
    fn cholesky_rejects_non_spd() {
        let m = from_rows(&[vec![1.0, 2.0], vec![2.0, 1.0]]); // indefinite
        assert!(matches!(m.cholesky(), Err(GpError::NotPositiveDefinite { .. })));
        let m = Matrix::zeros(2, 3);
        assert!(matches!(m.cholesky(), Err(GpError::DimensionMismatch { .. })));
    }

    #[test]
    fn solve_spd_solves() {
        let m = spd3();
        let x_true = vec![1.0, -2.0, 0.5];
        let b = m.matvec(&x_true).unwrap();
        let x = m.solve_spd(&b).unwrap();
        for (a, b) in x.iter().zip(&x_true) {
            assert!((a - b).abs() < 1e-10);
        }
    }

    #[test]
    fn inverse_spd_gives_identity() {
        let m = spd3();
        let inv = m.inverse_spd().unwrap();
        let prod = m.matmul(&inv).unwrap();
        assert!(max_abs_diff(&prod, &Matrix::identity(3)) < 1e-10);
        // Inverse of SPD is symmetric.
        assert!(is_symmetric(&inv, 1e-12));
    }

    #[test]
    fn submatrix_extracts() {
        let m = spd3();
        let s = m.submatrix(&[0, 2], &[1]).unwrap();
        assert_eq!(s.rows(), 2);
        assert_eq!(s.cols(), 1);
        assert_eq!(s.get(0, 0), 2.0);
        assert_eq!(s.get(1, 0), 1.0);
        assert!(m.submatrix(&[5], &[0]).is_err());
    }

    #[test]
    fn add_diagonal_jitters() {
        let m = Matrix::zeros(2, 2).add_diagonal(0.5);
        assert_eq!(m.get(0, 0), 0.5);
        assert_eq!(m.get(1, 1), 0.5);
        assert_eq!(m.get(0, 1), 0.0);
    }

    #[test]
    fn solve_matrix_multiple_rhs() {
        let m = spd3();
        let b = from_rows(&[vec![1.0, 0.0], vec![0.0, 1.0], vec![1.0, 1.0]]);
        let x = m.solve_spd_matrix(&b).unwrap();
        let back = m.matmul(&x).unwrap();
        assert!(max_abs_diff(&back, &b) < 1e-10);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn from_rows_rejects_ragged() {
        let _ = from_rows(&[vec![1.0], vec![1.0, 2.0]]);
    }

    #[test]
    fn norm_inf_is_max_row_sum() {
        let m = from_rows(&[vec![1.0, -2.0], vec![0.5, 0.25]]);
        assert_eq!(m.norm_inf(), 3.0);
        assert_eq!(Matrix::zeros(2, 2).norm_inf(), 0.0);
    }

    #[test]
    fn expm_of_zero_is_identity() {
        let e = Matrix::zeros(3, 3).expm().unwrap();
        assert!(max_abs_diff(&e, &Matrix::identity(3)) < 1e-14);
    }

    #[test]
    fn expm_diagonal() {
        let mut m = Matrix::zeros(2, 2);
        m.set(0, 0, 1.0);
        m.set(1, 1, -2.0);
        let e = m.expm().unwrap();
        assert!((e.get(0, 0) - 1.0f64.exp()).abs() < 1e-12);
        assert!((e.get(1, 1) - (-2.0f64).exp()).abs() < 1e-12);
        assert!(e.get(0, 1).abs() < 1e-14);
    }

    #[test]
    fn expm_path_laplacian_closed_form() {
        // L of the 2-path: [[1,-1],[-1,1]], eigenvalues {0, 2}.
        // exp(-βL) = [[(1+e^{-2β})/2, (1-e^{-2β})/2], …] symmetric.
        let l = from_rows(&[vec![1.0, -1.0], vec![-1.0, 1.0]]);
        let beta = 0.7;
        let e = l.scale(-beta).expm().unwrap();
        let lam = (-2.0 * beta).exp();
        assert!((e.get(0, 0) - (1.0 + lam) / 2.0).abs() < 1e-10);
        assert!((e.get(0, 1) - (1.0 - lam) / 2.0).abs() < 1e-10);
        assert!(is_symmetric(&e, 1e-10));
    }

    #[test]
    fn expm_rejects_non_square() {
        assert!(Matrix::zeros(2, 3).expm().is_err());
    }
}
