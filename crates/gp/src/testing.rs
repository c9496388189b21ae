//! Test support: checks that tests outside this crate make on kernel
//! matrices. No model code calls these.

use crate::linalg::Matrix;

/// Whether `m` is square, symmetric within `tol` and positive definite (its
/// Cholesky factorisation succeeds).
pub fn is_spd(m: &Matrix, tol: f64) -> bool {
    let n = m.rows();
    n == m.cols()
        && (0..n).all(|i| (0..i).all(|j| (m.get(i, j) - m.get(j, i)).abs() <= tol))
        && m.cholesky().is_ok()
}
