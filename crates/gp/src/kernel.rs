//! Graph kernels: the covariance functions of the GP.
//!
//! The paper uses the regularized Laplacian kernel
//! `K = [β (L + I/α²)]⁻¹` (equation 16), whose covariances reflect the
//! street-network structure: adjacent vertices are highly correlated. An RBF
//! kernel over raw planar coordinates is provided as the *non-structural*
//! baseline the evaluation compares against.

use crate::error::GpError;
use crate::graph::Graph;
use crate::linalg::Matrix;

/// A covariance-matrix factory over the vertices of a traffic graph.
pub trait Kernel {
    /// The full `n × n` covariance matrix over the graph's vertices.
    fn covariance(&self, graph: &Graph) -> Result<Matrix, GpError>;

    /// A short human-readable description (for experiment logs).
    fn describe(&self) -> String;
}

/// The regularized Laplacian kernel `K = [β (L + I/α²)]⁻¹` with
/// hyperparameters `α, β > 0`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RegularizedLaplacian {
    /// Smoothness hyperparameter `α` (larger ⇒ longer-range correlation).
    pub alpha: f64,
    /// Scale hyperparameter `β` (larger ⇒ smaller overall variance).
    pub beta: f64,
}

impl RegularizedLaplacian {
    /// Validates and builds the kernel.
    pub fn new(alpha: f64, beta: f64) -> Result<RegularizedLaplacian, GpError> {
        if !(alpha > 0.0) || !alpha.is_finite() {
            return Err(GpError::InvalidHyperparameter { name: "alpha", value: alpha });
        }
        if !(beta > 0.0) || !beta.is_finite() {
            return Err(GpError::InvalidHyperparameter { name: "beta", value: beta });
        }
        Ok(RegularizedLaplacian { alpha, beta })
    }
}

impl Kernel for RegularizedLaplacian {
    fn covariance(&self, graph: &Graph) -> Result<Matrix, GpError> {
        // β (L + I/α²) is SPD: L is PSD and I/α² shifts all eigenvalues by a
        // positive amount, so the inverse exists.
        let shifted = graph.laplacian().add_diagonal(1.0 / (self.alpha * self.alpha));
        shifted.scale(self.beta).inverse_spd()
    }

    fn describe(&self) -> String {
        format!("RegularizedLaplacian(alpha={}, beta={})", self.alpha, self.beta)
    }
}

/// The diffusion kernel `K = σ_f² · exp(−βL)` (Smola & Kondor 2003 — the
/// paper's reference \[27\] for graph kernels). Covariance spreads along the
/// graph like heat; `β` controls the diffusion time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DiffusionKernel {
    /// Diffusion time `β > 0`.
    pub beta: f64,
    /// Signal variance scaling.
    pub signal_variance: f64,
}

impl DiffusionKernel {
    /// Validates and builds the kernel.
    pub fn new(beta: f64, signal_variance: f64) -> Result<DiffusionKernel, GpError> {
        if !(beta > 0.0) || !beta.is_finite() {
            return Err(GpError::InvalidHyperparameter { name: "beta", value: beta });
        }
        if !(signal_variance > 0.0) || !signal_variance.is_finite() {
            return Err(GpError::InvalidHyperparameter {
                name: "signal_variance",
                value: signal_variance,
            });
        }
        Ok(DiffusionKernel { beta, signal_variance })
    }
}

impl Kernel for DiffusionKernel {
    fn covariance(&self, graph: &Graph) -> Result<Matrix, GpError> {
        Ok(graph.laplacian().scale(-self.beta).expm()?.scale(self.signal_variance))
    }

    fn describe(&self) -> String {
        format!("Diffusion(beta={}, sf2={})", self.beta, self.signal_variance)
    }
}

/// Squared-exponential kernel over planar vertex coordinates:
/// `k(i,j) = σ_f² · exp(−‖x_i − x_j‖² / (2ℓ²))`.
///
/// Ignores the street network entirely; serves as the non-structural
/// baseline in the Figure 9 experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RbfKernel {
    /// Length scale `ℓ > 0`.
    pub length_scale: f64,
    /// Signal variance `σ_f² > 0`.
    pub signal_variance: f64,
}

impl RbfKernel {
    /// Validates and builds the kernel.
    pub fn new(length_scale: f64, signal_variance: f64) -> Result<RbfKernel, GpError> {
        if !(length_scale > 0.0) || !length_scale.is_finite() {
            return Err(GpError::InvalidHyperparameter {
                name: "length_scale",
                value: length_scale,
            });
        }
        if !(signal_variance > 0.0) || !signal_variance.is_finite() {
            return Err(GpError::InvalidHyperparameter {
                name: "signal_variance",
                value: signal_variance,
            });
        }
        Ok(RbfKernel { length_scale, signal_variance })
    }
}

impl Kernel for RbfKernel {
    fn covariance(&self, graph: &Graph) -> Result<Matrix, GpError> {
        let n = graph.len();
        let mut k = Matrix::zeros(n, n);
        let inv_2l2 = 1.0 / (2.0 * self.length_scale * self.length_scale);
        for i in 0..n {
            let (xi, yi) = graph.coords(i);
            for j in i..n {
                let (xj, yj) = graph.coords(j);
                let d2 = (xi - xj).powi(2) + (yi - yj).powi(2);
                let v = self.signal_variance * (-d2 * inv_2l2).exp();
                k.set(i, j, v);
                k.set(j, i, v);
            }
        }
        Ok(k)
    }

    fn describe(&self) -> String {
        format!("Rbf(l={}, sf2={})", self.length_scale, self.signal_variance)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linalg::tests::{is_symmetric, max_abs_diff};

    #[test]
    fn hyperparameter_validation() {
        assert!(RegularizedLaplacian::new(0.0, 1.0).is_err());
        assert!(RegularizedLaplacian::new(1.0, -1.0).is_err());
        assert!(RegularizedLaplacian::new(f64::NAN, 1.0).is_err());
        assert!(RegularizedLaplacian::new(2.0, 0.5).is_ok());
        assert!(RbfKernel::new(0.0, 1.0).is_err());
        assert!(RbfKernel::new(1.0, 0.0).is_err());
    }

    #[test]
    fn regularized_laplacian_is_spd_and_symmetric() {
        let g = Graph::grid(3, 3);
        let k = RegularizedLaplacian::new(2.0, 1.0).unwrap().covariance(&g).unwrap();
        assert!(is_symmetric(&k, 1e-10));
        assert!(k.cholesky().is_ok(), "covariance must be SPD");
    }

    #[test]
    fn adjacent_vertices_more_correlated_than_distant() {
        let g = Graph::grid(5, 1); // path graph 0-1-2-3-4
        let k = RegularizedLaplacian::new(2.0, 1.0).unwrap().covariance(&g).unwrap();
        // correlation with neighbour > correlation with far vertex
        assert!(k.get(0, 1) > k.get(0, 4));
        assert!(k.get(0, 0) > k.get(0, 1), "self-covariance dominates");
    }

    #[test]
    fn kernel_inverse_matches_definition() {
        let g = Graph::grid(2, 2);
        let rl = RegularizedLaplacian::new(1.5, 0.7).unwrap();
        let k = rl.covariance(&g).unwrap();
        let def = g.laplacian().add_diagonal(1.0 / (1.5f64 * 1.5)).scale(0.7);
        let prod = k.matmul(&def).unwrap();
        assert!(max_abs_diff(&prod, &Matrix::identity(4)) < 1e-10);
    }

    #[test]
    fn rbf_depends_only_on_distance() {
        let g = Graph::new(vec![(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (3.0, 4.0)], &[]).unwrap();
        let k = RbfKernel::new(1.0, 2.0).unwrap().covariance(&g).unwrap();
        assert!((k.get(0, 1) - k.get(0, 2)).abs() < 1e-12, "equal distances, equal covariance");
        assert!((k.get(0, 0) - 2.0).abs() < 1e-12, "diagonal = signal variance");
        assert!(k.get(0, 3) < k.get(0, 1));
        assert!(is_symmetric(&k, 1e-12));
    }

    #[test]
    fn describe_mentions_parameters() {
        assert!(RegularizedLaplacian::new(2.0, 1.0).unwrap().describe().contains("alpha=2"));
        assert!(RbfKernel::new(1.0, 1.0).unwrap().describe().contains("l=1"));
        assert!(DiffusionKernel::new(0.5, 1.0).unwrap().describe().contains("beta=0.5"));
    }

    #[test]
    fn diffusion_kernel_validation_and_structure() {
        assert!(DiffusionKernel::new(0.0, 1.0).is_err());
        assert!(DiffusionKernel::new(1.0, -1.0).is_err());
        let g = Graph::grid(5, 1);
        let k = DiffusionKernel::new(0.8, 1.0).unwrap().covariance(&g).unwrap();
        assert!(is_symmetric(&k, 1e-9));
        // Heat spreads along the path: neighbour > far vertex.
        assert!(k.get(0, 1) > k.get(0, 4));
        assert!(k.get(0, 0) > k.get(0, 1));
        // PSD up to jitter: Cholesky of K + εI succeeds.
        assert!(k.add_diagonal(1e-9).cholesky().is_ok());
    }

    #[test]
    fn diffusion_rows_sum_to_signal_variance() {
        // exp(-βL)·1 = 1 because L·1 = 0: each row sums to σ_f².
        let g = Graph::grid(3, 3);
        let k = DiffusionKernel::new(1.3, 2.0).unwrap().covariance(&g).unwrap();
        for i in 0..g.len() {
            let sum: f64 = (0..g.len()).map(|j| k.get(i, j)).sum();
            assert!((sum - 2.0).abs() < 1e-8, "row {i} sums to {sum}");
        }
    }
}
