//! Stochastic-approximation step-size schedules `γ_t`.
//!
//! The online EM update (equation 12) mixes the old sufficient statistics
//! with the newest event using a step size `γ_t` that must satisfy
//! `Σ γ_t = ∞` and `Σ γ_t² < ∞` for convergence (Cappé & Moulines 2009).
//!
//! The paper states "we used γ_t = t/(t+1)" — a sequence that *increases*
//! towards 1 and violates the square-summability condition; the smooth
//! convergence shown in Figure 5 is consistent with the *running-mean*
//! schedule `γ_t = 1/(t+1)` instead, which we therefore use as the default
//! (the literal schedule is kept as [`GammaSchedule::PaperLiteral`] and
//! compared in the `ablation_gamma` bench; see EXPERIMENTS.md).

/// A step-size schedule; `t` counts how often the participant has been
/// queried so far, starting at 1.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum GammaSchedule {
    /// `γ_t = 1/(t+1)` — running mean; the default.
    #[default]
    RunningMean,
    /// `γ_t = t/(t+1)` — the schedule as literally printed in the paper.
    PaperLiteral,
    /// `γ_t = t^(−a)` with `0.5 < a ≤ 1` — the standard polynomial family.
    Polynomial(f64),
    /// Constant step size (tracks drifting participants; does not converge).
    Constant(f64),
}

impl GammaSchedule {
    /// The step size for the `t`-th update (`t ≥ 1`).
    pub(crate) fn gamma(&self, t: usize) -> f64 {
        let t = t.max(1) as f64;
        match self {
            GammaSchedule::RunningMean => 1.0 / (t + 1.0),
            GammaSchedule::PaperLiteral => t / (t + 1.0),
            GammaSchedule::Polynomial(a) => t.powf(-a),
            GammaSchedule::Constant(c) => *c,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn running_mean_decreases_to_zero() {
        let s = GammaSchedule::RunningMean;
        assert!((s.gamma(1) - 0.5).abs() < 1e-12);
        assert!(s.gamma(10) < s.gamma(2));
        assert!(s.gamma(1_000_000) < 1e-5);
    }

    #[test]
    fn paper_literal_increases_to_one() {
        let s = GammaSchedule::PaperLiteral;
        assert!((s.gamma(1) - 0.5).abs() < 1e-12);
        assert!(s.gamma(100) > 0.99);
    }

    #[test]
    fn polynomial_and_constant() {
        let s = GammaSchedule::Polynomial(0.7);
        assert!((s.gamma(1) - 1.0).abs() < 1e-12);
        assert!(s.gamma(100) < s.gamma(10));
        assert_eq!(GammaSchedule::Constant(0.1).gamma(5), 0.1);
    }

    #[test]
    fn t_zero_is_clamped() {
        assert_eq!(GammaSchedule::RunningMean.gamma(0), GammaSchedule::RunningMean.gamma(1));
    }
}
