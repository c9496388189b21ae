//! GP regression: the predictive distribution at unmeasured locations.
//!
//! Implements the closed-form Gaussian conditional of Section 6:
//!
//! ```text
//! m = K_{u,ū} (K_{ū,ū} + σ²I)⁻¹ y
//! Σ = K_{u,u} − K_{u,ū} (K_{ū,ū} + σ²I)⁻¹ K_{ū,u}
//! ```
//!
//! where `ū` are the observed vertices (SCATS locations mapped to their
//! nearest junctions) and `u` the unobserved ones. The paper assumes a zero
//! prior mean "without loss of generality"; we optionally centre the
//! observations and add the mean back, which is the standard way to realise
//! that assumption on real data.

use crate::error::GpError;
use crate::graph::Graph;
use crate::kernel::Kernel;
use crate::linalg::Matrix;

/// The Gaussian posterior at a set of target vertices.
#[derive(Debug, Clone)]
pub struct Posterior {
    /// The target vertex indices, in the order of `mean`/`variance`.
    pub targets: Vec<usize>,
    /// Posterior means.
    pub mean: Vec<f64>,
    /// Posterior (marginal) variances — the diagonal of `Σ`.
    pub variance: Vec<f64>,
}

impl Posterior {
    /// Mean at a specific vertex, if it is among the targets.
    pub(crate) fn mean_at(&self, vertex: usize) -> Option<f64> {
        self.targets.iter().position(|&v| v == vertex).map(|i| self.mean[i])
    }
}

/// A fitted GP over a traffic graph.
pub struct GpRegression {
    kernel_matrix: Matrix,
    observed: Vec<usize>,
    /// `(K_{ū,ū} + σ²I)⁻¹ (y − μ)`
    alpha: Vec<f64>,
    /// Cholesky-based solver input `K_{ū,ū} + σ²I`.
    gram: Matrix,
    mean_offset: f64,
    n: usize,
}

impl GpRegression {
    /// Fits the GP: computes the full kernel matrix over `graph` and
    /// conditions on the observations `(vertex, value)` with noise `σ²`.
    ///
    /// `centre` subtracts the observation mean before conditioning (and adds
    /// it back in predictions), realising the paper's zero-mean assumption.
    pub fn fit(
        graph: &Graph,
        kernel: &dyn Kernel,
        observations: &[(usize, f64)],
        noise_variance: f64,
        centre: bool,
    ) -> Result<GpRegression, GpError> {
        if observations.is_empty() {
            return Err(GpError::DegenerateObservations { detail: "no observations".into() });
        }
        if !(noise_variance >= 0.0) {
            return Err(GpError::InvalidHyperparameter {
                name: "noise_variance",
                value: noise_variance,
            });
        }
        let n = graph.len();
        for &(v, _) in observations {
            if v >= n {
                return Err(GpError::VertexOutOfRange { index: v, n });
            }
        }
        let k = kernel.covariance(graph)?;

        let observed: Vec<usize> = observations.iter().map(|&(v, _)| v).collect();
        let mut y: Vec<f64> = observations.iter().map(|&(_, val)| val).collect();
        let mean_offset = if centre { y.iter().sum::<f64>() / y.len() as f64 } else { 0.0 };
        for v in &mut y {
            *v -= mean_offset;
        }

        // K_{ū,ū} + σ²I (with a tiny jitter for numerical robustness when
        // σ² = 0 and observations repeat a vertex).
        let k_oo = k.submatrix(&observed, &observed)?;
        let gram = k_oo.add_diagonal(noise_variance + 1e-10);
        let alpha = gram.solve_spd(&y)?;

        Ok(GpRegression { kernel_matrix: k, observed, alpha, gram, mean_offset, n })
    }

    /// Predicts the posterior at the given target vertices.
    pub(crate) fn predict(&self, targets: &[usize]) -> Result<Posterior, GpError> {
        for &v in targets {
            if v >= self.n {
                return Err(GpError::VertexOutOfRange { index: v, n: self.n });
            }
        }
        // K_{u,ū}
        let k_uo = self.kernel_matrix.submatrix(targets, &self.observed)?;
        let mean: Vec<f64> =
            k_uo.matvec(&self.alpha)?.into_iter().map(|m| m + self.mean_offset).collect();

        // Marginal variances: diag(K_uu) − row_i(K_uo) · G⁻¹ · row_i(K_uo)ᵀ.
        let k_ou = k_uo.transpose();
        let solved = self.gram.solve_spd_matrix(&k_ou)?; // G⁻¹ K_{ū,u}
        let mut variance = Vec::with_capacity(targets.len());
        for (i, &v) in targets.iter().enumerate() {
            let prior = self.kernel_matrix.get(v, v);
            let reduction: f64 =
                (0..self.observed.len()).map(|o| k_uo.get(i, o) * solved.get(o, i)).sum();
            variance.push((prior - reduction).max(0.0));
        }

        Ok(Posterior { targets: targets.to_vec(), mean, variance })
    }

    /// Predicts at every vertex not in the observation set (the paper's
    /// "unobserved traffic flows").
    pub fn predict_unobserved(&self) -> Result<Posterior, GpError> {
        let targets: Vec<usize> = (0..self.n).filter(|v| !self.observed.contains(v)).collect();
        self.predict(&targets)
    }

    /// Predicts at every vertex (observed ones included — useful for
    /// rendering the full map of Figure 9).
    pub fn predict_all(&self) -> Result<Posterior, GpError> {
        self.predict(&(0..self.n).collect::<Vec<_>>())
    }
}

/// Root-mean-square error between predictions and a ground truth, evaluated
/// at the intersection of vertices present in both.
pub fn rmse(posterior: &Posterior, truth: &[(usize, f64)]) -> Option<f64> {
    let mut sum = 0.0;
    let mut count = 0usize;
    for &(v, t) in truth {
        if let Some(m) = posterior.mean_at(v) {
            sum += (m - t) * (m - t);
            count += 1;
        }
    }
    (count > 0).then(|| (sum / count as f64).sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernel::RegularizedLaplacian;

    fn kernel() -> RegularizedLaplacian {
        RegularizedLaplacian::new(2.0, 1.0).unwrap()
    }

    #[test]
    fn interpolates_exactly_with_zero_noise() {
        let g = Graph::grid(4, 1);
        let obs = [(0, 1.0), (3, 4.0)];
        let gp = GpRegression::fit(&g, &kernel(), &obs, 0.0, false).unwrap();
        let p = gp.predict(&[0, 3]).unwrap();
        assert!((p.mean[0] - 1.0).abs() < 1e-4);
        assert!((p.mean[1] - 4.0).abs() < 1e-4);
        // Variance at observed points ≈ 0.
        assert!(p.variance[0] < 1e-4);
    }

    #[test]
    fn unobserved_predictions_interpolate_between_neighbours() {
        let g = Graph::grid(3, 1); // 0-1-2
        let obs = [(0, 0.0), (2, 10.0)];
        let gp = GpRegression::fit(&g, &kernel(), &obs, 1e-6, true).unwrap();
        let p = gp.predict(&[1]).unwrap();
        let m = p.mean[0];
        assert!(m > 2.0 && m < 8.0, "middle vertex between endpoint values, got {m}");
    }

    #[test]
    fn posterior_variance_grows_with_graph_distance() {
        let g = Graph::grid(7, 1);
        let obs = [(0, 5.0)];
        let gp = GpRegression::fit(&g, &kernel(), &obs, 0.01, false).unwrap();
        let p = gp.predict(&[1, 6]).unwrap();
        assert!(
            p.variance[1] > p.variance[0],
            "far vertex more uncertain: {} vs {}",
            p.variance[1],
            p.variance[0]
        );
    }

    #[test]
    fn centring_restores_offset() {
        let g = Graph::grid(3, 3);
        let obs = [(0, 100.0), (8, 102.0)];
        let gp = GpRegression::fit(&g, &kernel(), &obs, 0.1, true).unwrap();
        let p = gp.predict_unobserved().unwrap();
        for m in &p.mean {
            assert!(*m > 90.0 && *m < 112.0, "means near the observation level, got {m}");
        }
    }

    #[test]
    fn predict_unobserved_excludes_observed() {
        let g = Graph::grid(3, 1);
        let gp = GpRegression::fit(&g, &kernel(), &[(1, 1.0)], 0.1, false).unwrap();
        let p = gp.predict_unobserved().unwrap();
        assert_eq!(p.targets, vec![0, 2]);
        let all = gp.predict_all().unwrap();
        assert_eq!(all.targets.len(), 3);
    }

    #[test]
    fn validation_errors() {
        let g = Graph::grid(2, 2);
        assert!(matches!(
            GpRegression::fit(&g, &kernel(), &[], 0.1, false),
            Err(GpError::DegenerateObservations { .. })
        ));
        assert!(matches!(
            GpRegression::fit(&g, &kernel(), &[(99, 1.0)], 0.1, false),
            Err(GpError::VertexOutOfRange { .. })
        ));
        assert!(GpRegression::fit(&g, &kernel(), &[(0, 1.0)], -1.0, false).is_err());
        let gp = GpRegression::fit(&g, &kernel(), &[(0, 1.0)], 0.1, false).unwrap();
        assert!(gp.predict(&[99]).is_err());
    }

    #[test]
    fn posterior_accessors() {
        let g = Graph::grid(3, 1);
        let gp = GpRegression::fit(&g, &kernel(), &[(0, 1.0)], 0.1, false).unwrap();
        let p = gp.predict(&[1, 2]).unwrap();
        assert!(p.mean_at(1).is_some());
        assert!(p.mean_at(0).is_none());
    }

    #[test]
    fn rmse_computes_over_overlap() {
        let p = Posterior { targets: vec![1, 2], mean: vec![1.0, 3.0], variance: vec![0.0, 0.0] };
        let truth = [(1, 2.0), (2, 3.0), (5, 100.0)];
        let e = rmse(&p, &truth).unwrap();
        assert!((e - (0.5f64).sqrt()).abs() < 1e-12);
        assert!(rmse(&p, &[(9, 1.0)]).is_none());
    }

    #[test]
    fn structural_kernel_beats_naive_mean_on_smooth_graph_signal() {
        // Ground truth varies smoothly along a path graph; observing every
        // second vertex, the GP should reconstruct the rest better than the
        // global mean.
        let n = 21;
        let g = Graph::grid(n, 1);
        let truth: Vec<f64> = (0..n).map(|i| (i as f64 / 4.0).sin() * 10.0).collect();
        let obs: Vec<(usize, f64)> = (0..n).step_by(2).map(|i| (i, truth[i])).collect();
        let gp = GpRegression::fit(&g, &kernel(), &obs, 0.01, true).unwrap();
        let p = gp.predict_unobserved().unwrap();
        let truth_pairs: Vec<(usize, f64)> = p.targets.iter().map(|&v| (v, truth[v])).collect();
        let gp_err = rmse(&p, &truth_pairs).unwrap();
        let mean_val = obs.iter().map(|&(_, v)| v).sum::<f64>() / obs.len() as f64;
        let mean_err =
            (truth_pairs.iter().map(|&(_, t)| (t - mean_val) * (t - mean_val)).sum::<f64>()
                / truth_pairs.len() as f64)
                .sqrt();
        assert!(gp_err < mean_err * 0.6, "GP rmse {gp_err} should beat mean rmse {mean_err}");
    }
}
