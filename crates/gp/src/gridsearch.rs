//! Hyperparameter selection by grid search.
//!
//! "The hyperparameters are chosen in advance using grid search within the
//! interval [0, …, 10]" (§7.3). Candidates are scored by hold-out RMSE: a
//! fraction of the observed vertices is withheld, the GP is fitted on the
//! rest, and the error on the withheld readings is measured.

use crate::error::GpError;
use crate::graph::Graph;
use crate::kernel::RegularizedLaplacian;
use crate::regression::{rmse, GpRegression};

/// The outcome of a grid search.
#[derive(Debug, Clone)]
pub struct GridSearchResult {
    /// The winning kernel.
    pub best: RegularizedLaplacian,
    /// Hold-out RMSE of the winner.
    pub best_rmse: f64,
    /// Every evaluated `(alpha, beta, rmse)` triple.
    pub evaluated: Vec<(f64, f64, f64)>,
}

/// Grid-search configuration.
#[derive(Debug, Clone)]
pub struct GridSearch {
    /// Candidate `α` values (non-positive candidates are skipped, matching
    /// the paper's `[0, 10]` interval which degenerates at 0).
    pub alphas: Vec<f64>,
    /// Candidate `β` values.
    pub betas: Vec<f64>,
    /// Observation noise `σ²` used during scoring fits.
    pub noise_variance: f64,
    /// Every k-th observation is withheld for scoring.
    pub holdout_every: usize,
}

impl Default for GridSearch {
    fn default() -> GridSearch {
        // 1..=10 in unit steps on both axes, as in the paper's interval.
        let steps: Vec<f64> = (1..=10).map(|i| i as f64).collect();
        GridSearch { alphas: steps.clone(), betas: steps, noise_variance: 0.1, holdout_every: 3 }
    }
}

impl GridSearch {
    /// Runs the search over the observations `(vertex, value)`.
    pub fn run(
        &self,
        graph: &Graph,
        observations: &[(usize, f64)],
    ) -> Result<GridSearchResult, GpError> {
        if self.holdout_every < 2 {
            return Err(GpError::DegenerateObservations {
                detail: "holdout_every must be >= 2 (otherwise nothing is trained on)".into(),
            });
        }
        let holdout: Vec<(usize, f64)> = observations
            .iter()
            .enumerate()
            .filter(|(i, _)| i % self.holdout_every == 0)
            .map(|(_, &o)| o)
            .collect();
        let train: Vec<(usize, f64)> = observations
            .iter()
            .enumerate()
            .filter(|(i, _)| i % self.holdout_every != 0)
            .map(|(_, &o)| o)
            .collect();
        if holdout.is_empty() || train.is_empty() {
            return Err(GpError::DegenerateObservations {
                detail: format!(
                    "need at least {} observations for a {}-fold holdout",
                    self.holdout_every + 1,
                    self.holdout_every
                ),
            });
        }
        let holdout_targets: Vec<usize> = holdout.iter().map(|&(v, _)| v).collect();

        let mut evaluated = Vec::new();
        let mut best: Option<(RegularizedLaplacian, f64)> = None;
        for &alpha in &self.alphas {
            if alpha <= 0.0 {
                continue;
            }
            for &beta in &self.betas {
                if beta <= 0.0 {
                    continue;
                }
                let kernel = RegularizedLaplacian::new(alpha, beta)?;
                let gp = GpRegression::fit(graph, &kernel, &train, self.noise_variance, true)?;
                let posterior = gp.predict(&holdout_targets)?;
                let Some(err) = rmse(&posterior, &holdout) else { continue };
                evaluated.push((alpha, beta, err));
                if best.as_ref().map(|&(_, e)| err < e).unwrap_or(true) {
                    best = Some((kernel, err));
                }
            }
        }
        let (best, best_rmse) = best.ok_or_else(|| GpError::DegenerateObservations {
            detail: "grid contained no valid (alpha, beta) candidates".into(),
        })?;
        Ok(GridSearchResult { best, best_rmse, evaluated })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smooth_observations(g: &Graph) -> Vec<(usize, f64)> {
        (0..g.len())
            .step_by(2)
            .map(|v| {
                let (x, y) = g.coords(v);
                (v, (x * 0.5).sin() * 5.0 + (y * 0.3).cos() * 3.0 + 10.0)
            })
            .collect()
    }

    #[test]
    fn finds_a_candidate_on_default_grid() {
        let g = Graph::grid(6, 6);
        let obs = smooth_observations(&g);
        let result = GridSearch::default().run(&g, &obs).unwrap();
        assert!(result.best.alpha >= 1.0 && result.best.alpha <= 10.0);
        assert!(result.best.beta >= 1.0 && result.best.beta <= 10.0);
        assert!(result.best_rmse.is_finite());
        assert_eq!(result.evaluated.len(), 100);
        // Winner is the minimum of the evaluated errors.
        let min = result.evaluated.iter().map(|e| e.2).fold(f64::INFINITY, f64::min);
        assert!((result.best_rmse - min).abs() < 1e-12);
    }

    #[test]
    fn skips_non_positive_candidates() {
        let g = Graph::grid(4, 4);
        let obs = smooth_observations(&g);
        let gs =
            GridSearch { alphas: vec![0.0, 2.0], betas: vec![-1.0, 1.0], ..GridSearch::default() };
        let result = gs.run(&g, &obs).unwrap();
        assert_eq!(result.evaluated.len(), 1);
        assert_eq!(result.best.alpha, 2.0);
        assert_eq!(result.best.beta, 1.0);
    }

    #[test]
    fn degenerate_configurations_error() {
        let g = Graph::grid(4, 4);
        let obs = smooth_observations(&g);
        assert!(GridSearch { holdout_every: 1, ..GridSearch::default() }.run(&g, &obs).is_err());
        assert!(GridSearch::default().run(&g, &obs[..1]).is_err());
        let empty_grid =
            GridSearch { alphas: vec![0.0], betas: vec![1.0], ..GridSearch::default() };
        assert!(empty_grid.run(&g, &obs).is_err());
    }
}
