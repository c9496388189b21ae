//! Test support: a grid graph to fit on and the checks that tests outside
//! this crate make on kernel matrices. No model code calls these.

use crate::graph::Graph;
use crate::linalg::Matrix;

impl Graph {
    /// A rectangular grid graph: `w × h` vertices at integer coordinates,
    /// 4-connected.
    pub fn grid(w: usize, h: usize) -> Graph {
        let coords = (0..h).flat_map(|y| (0..w).map(move |x| (x as f64, y as f64))).collect();
        let mut edges = Vec::new();
        for v in 0..w * h {
            if v % w + 1 < w {
                edges.push((v, v + 1));
            }
            if v + w < w * h {
                edges.push((v, v + w));
            }
        }
        Graph::new(coords, &edges).expect("grid edges are in range")
    }
}

/// Whether `m` is square, symmetric within `tol` and positive definite (its
/// Cholesky factorisation succeeds).
pub fn is_spd(m: &Matrix, tol: f64) -> bool {
    let n = m.rows();
    n == m.cols()
        && (0..n).all(|i| (0..i).all(|j| (m.get(i, j) - m.get(j, i)).abs() <= tol))
        && m.cholesky().is_ok()
}
