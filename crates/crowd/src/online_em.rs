//! Algorithm 1: online Expectation-Maximisation over disagreement events.
//!
//! For each event the posterior over labels is computed from the prior and
//! the participants' answers under the current reliability estimates
//! (sufficient statistics, lines 3–8 of Algorithm 1); the most likely label
//! is emitted as the `crowd` event (line 10); and each answering
//! participant's error-probability estimate is updated with a per-participant
//! stochastic-approximation step (lines 11–14):
//!
//! ```text
//! p_i ← (1 − γ_{t_i}) p_i + γ_{t_i} (1 − α(y_{i,t}) / Σ_x α(x))
//! ```
//!
//! The event and its answers can be forgotten once processed — the property
//! that lets the component run on an unbounded stream.

use crate::error::CrowdError;
use crate::model::LabelSet;
use crate::schedule::GammaSchedule;

/// Estimates are clamped to this distance from {0, 1} so that a single
/// perfectly (un)reliable stretch cannot zero out future posteriors.
const P_CLAMP: f64 = 1e-6;

/// The outcome of processing one disagreement event.
#[derive(Debug, Clone, PartialEq)]
pub struct PosteriorOutcome {
    /// Normalised posterior `P(Xₜ | answers)` over the labels.
    pub posterior: Vec<f64>,
    /// The most likely label (the content of the emitted `crowd` event).
    pub map_label: usize,
    /// The posterior mass of `map_label` (peakedness; the paper reports the
    /// fraction of events where this exceeds 0.99).
    pub confidence: f64,
}

/// Online EM state: per-participant error-probability estimates.
#[derive(Debug, Clone)]
pub struct OnlineEm {
    labels: LabelSet,
    p_hat: Vec<f64>,
    queries: Vec<usize>,
    schedule: GammaSchedule,
}

impl OnlineEm {
    /// Creates the estimator for `n_participants`, all initialised to
    /// `initial_p` (the paper biases towards trustful participants with
    /// 0.25).
    pub fn new(
        n_participants: usize,
        labels: LabelSet,
        initial_p: f64,
        schedule: GammaSchedule,
    ) -> Result<OnlineEm, CrowdError> {
        if !(0.0..=1.0).contains(&initial_p) || !initial_p.is_finite() {
            return Err(CrowdError::InvalidProbability { name: "initial_p", value: initial_p });
        }
        Ok(OnlineEm {
            labels,
            p_hat: vec![initial_p.clamp(P_CLAMP, 1.0 - P_CLAMP); n_participants],
            queries: vec![0; n_participants],
            schedule,
        })
    }

    /// Creates an estimator with explicit per-participant estimates
    /// (frozen: `Constant(0)` schedule). Used by the batch EM reference to
    /// evaluate posteriors under fixed parameters.
    pub(crate) fn with_estimates(labels: LabelSet, p: &[f64]) -> OnlineEm {
        OnlineEm {
            labels,
            p_hat: p.iter().map(|v| v.clamp(P_CLAMP, 1.0 - P_CLAMP)).collect(),
            queries: vec![0; p.len()],
            schedule: GammaSchedule::Constant(0.0),
        }
    }

    /// The paper's configuration: 10 participants, 4 labels, `p_i = 0.25`.
    pub fn paper_default(n_participants: usize) -> OnlineEm {
        OnlineEm::new(n_participants, LabelSet::traffic_default(), 0.25, GammaSchedule::default())
            .expect("static parameters")
    }

    /// Current error-probability estimates.
    pub fn estimates(&self) -> &[f64] {
        &self.p_hat
    }

    /// Computes the posterior for one event without updating any estimate
    /// (the pure E-step; used by the batch reference and by tests).
    pub(crate) fn posterior(
        &self,
        prior: &[f64],
        answers: &[(usize, usize)],
    ) -> Result<Vec<f64>, CrowdError> {
        self.labels.validate_prior(prior)?;
        let n_labels = self.labels.len();
        for &(i, y) in answers {
            if i >= self.p_hat.len() {
                return Err(CrowdError::UnknownWorker { id: i as u64 });
            }
            if y >= n_labels {
                return Err(CrowdError::LabelOutOfRange { label: y, n_labels });
            }
        }
        let mut alpha: Vec<f64> = prior.to_vec();
        for &(i, y) in answers {
            let p = self.p_hat[i];
            let wrong = p / (n_labels as f64 - 1.0);
            for (x, a) in alpha.iter_mut().enumerate() {
                *a *= if x == y { 1.0 - p } else { wrong };
            }
        }
        let sum: f64 = alpha.iter().sum();
        if sum > 0.0 && sum.is_finite() {
            for a in &mut alpha {
                *a /= sum;
            }
        } else {
            // All mass vanished numerically: fall back to the normalised prior.
            let psum: f64 = prior.iter().sum();
            alpha = prior.iter().map(|p| p / psum).collect();
        }
        Ok(alpha)
    }

    /// Exports the mutable estimator state — per-participant estimates and
    /// query counts — as a line-based text blob for checkpointing.
    ///
    /// The label set and γ schedule are *configuration*, not state: import
    /// the blob into an estimator built with the same configuration. Unlike
    /// `OnlineEm::with_estimates` (which freezes the schedule for batch
    /// evaluation), an export/import round trip keeps the
    /// stochastic-approximation steps adapting exactly where they left off,
    /// because the per-participant query counts that index γ are restored
    /// too.
    pub fn export_state(&self) -> String {
        let mut out = String::from("crowd-em v1\n");
        for (p, q) in self.p_hat.iter().zip(&self.queries) {
            out.push_str(&format!("{:016x} {q}\n", p.to_bits()));
        }
        out
    }

    /// Restores state captured by [`OnlineEm::export_state`]. The snapshot
    /// must cover exactly this estimator's participant count.
    pub fn import_state(&mut self, state: &str) -> Result<(), CrowdError> {
        let corrupt = |detail: String| CrowdError::CorruptState { detail };
        let mut lines = state.lines();
        match lines.next() {
            Some("crowd-em v1") => {}
            other => {
                return Err(corrupt(format!("unsupported header `{}`", other.unwrap_or_default())))
            }
        }
        let mut p_hat = Vec::with_capacity(self.p_hat.len());
        let mut queries = Vec::with_capacity(self.queries.len());
        for (ln, line) in lines.filter(|l| !l.is_empty()).enumerate() {
            let (bits, count) = line
                .split_once(' ')
                .ok_or_else(|| corrupt(format!("line {}: `{line}`", ln + 2)))?;
            let p = u64::from_str_radix(bits, 16)
                .map(f64::from_bits)
                .map_err(|_| corrupt(format!("line {}: bad estimate `{bits}`", ln + 2)))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(CrowdError::InvalidProbability { name: "p_hat", value: p });
            }
            p_hat.push(p);
            queries.push(
                count
                    .parse::<usize>()
                    .map_err(|_| corrupt(format!("line {}: bad query count `{count}`", ln + 2)))?,
            );
        }
        if p_hat.len() != self.p_hat.len() {
            return Err(corrupt(format!(
                "snapshot covers {} participants, estimator has {}",
                p_hat.len(),
                self.p_hat.len()
            )));
        }
        self.p_hat = p_hat;
        self.queries = queries;
        Ok(())
    }

    /// Processes one disagreement event: answers are `(participant, label)`
    /// pairs. Returns the posterior outcome and updates the reliability
    /// estimates of every answering participant.
    pub fn process(
        &mut self,
        prior: &[f64],
        answers: &[(usize, usize)],
    ) -> Result<PosteriorOutcome, CrowdError> {
        let posterior = self.posterior(prior, answers)?;
        let (map_label, &confidence) = posterior
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .expect("label set is non-empty");

        for &(i, y) in answers {
            let t = self.queries[i] + 1;
            let gamma = self.schedule.gamma(t);
            // 1 − α(y_{i,t}): posterior probability that the answer was wrong.
            let wrongness = 1.0 - posterior[y];
            self.p_hat[i] =
                ((1.0 - gamma) * self.p_hat[i] + gamma * wrongness).clamp(P_CLAMP, 1.0 - P_CLAMP);
            self.queries[i] = t;
        }

        Ok(PosteriorOutcome { posterior, map_label, confidence })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::SimulatedParticipant;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn uniform4() -> Vec<f64> {
        vec![0.25; 4]
    }

    #[test]
    fn posterior_favours_majority() {
        let em = OnlineEm::paper_default(3);
        // Two participants say 0, one says 2.
        let post = em.posterior(&uniform4(), &[(0, 0), (1, 0), (2, 2)]).unwrap();
        let map = post.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        assert_eq!(map, 0);
        assert!((post.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn prior_shifts_posterior() {
        let em = OnlineEm::paper_default(1);
        // A strong prior on label 3 overrides a single answer for label 1.
        let prior = vec![0.01, 0.01, 0.01, 0.97];
        let post = em.posterior(&prior, &[(0, 1)]).unwrap();
        let map = post.iter().enumerate().max_by(|a, b| a.1.total_cmp(b.1)).unwrap().0;
        assert_eq!(map, 3);
    }

    #[test]
    fn validates_inputs() {
        let mut em = OnlineEm::paper_default(2);
        assert!(em.process(&[0.5, 0.5], &[]).is_err(), "prior of wrong length");
        assert!(em.process(&uniform4(), &[(5, 0)]).is_err(), "unknown participant");
        assert!(em.process(&uniform4(), &[(0, 9)]).is_err(), "label out of range");
        assert!(
            OnlineEm::new(1, LabelSet::traffic_default(), 1.5, GammaSchedule::default()).is_err()
        );
    }

    #[test]
    fn estimates_converge_to_true_error_rates() {
        // The §7.2 protocol: 10 participants with known error probabilities,
        // all answering every event; estimates must converge.
        let cohort = SimulatedParticipant::paper_cohort();
        let labels = LabelSet::traffic_default();
        let mut em = OnlineEm::paper_default(cohort.len());
        let mut rng = StdRng::seed_from_u64(42);

        for t in 0..1500u64 {
            let truth = (t % 4) as usize;
            let answers: Vec<(usize, usize)> = cohort
                .iter()
                .enumerate()
                .map(|(i, p)| (i, p.answer(truth, &labels, &mut rng).unwrap()))
                .collect();
            em.process(&uniform4(), &answers).unwrap();
        }

        for (i, p) in cohort.iter().enumerate() {
            let err = (em.estimates()[i] - p.p_err).abs();
            assert!(
                err < 0.08,
                "participant {i}: estimate {} vs true {} (|Δ|={err})",
                em.estimates()[i],
                p.p_err
            );
        }
        // Ordering of the reliable vs unreliable participants is recovered.
        assert!(em.estimates()[0] < em.estimates()[7]);
        assert!(em.estimates()[7] < em.estimates()[9]);
    }

    #[test]
    fn posteriors_become_peaked_with_reliable_crowd() {
        let cohort = SimulatedParticipant::paper_cohort();
        let labels = LabelSet::traffic_default();
        let mut em = OnlineEm::paper_default(cohort.len());
        let mut rng = StdRng::seed_from_u64(7);
        let mut peaked = 0usize;
        let total = 600usize;
        for t in 0..total {
            let truth = t % 4;
            let answers: Vec<(usize, usize)> = cohort
                .iter()
                .enumerate()
                .map(|(i, p)| (i, p.answer(truth, &labels, &mut rng).unwrap()))
                .collect();
            let out = em.process(&uniform4(), &answers).unwrap();
            if out.confidence > 0.99 {
                peaked += 1;
            }
        }
        // The paper reports ~94%; any clearly dominant fraction validates
        // the mechanism.
        assert!(
            peaked as f64 / total as f64 > 0.85,
            "peaked fraction {}",
            peaked as f64 / total as f64
        );
    }

    #[test]
    fn partial_participation_updates_only_answerers() {
        let mut em = OnlineEm::paper_default(3);
        let before = em.estimates().to_vec();
        em.process(&uniform4(), &[(0, 0), (2, 0)]).unwrap();
        assert_eq!(em.estimates()[1], before[1], "non-answering participant untouched");
        assert_eq!(em.queries[0], 1);
        assert_eq!(em.queries.get(1).copied(), Some(0));
        assert_eq!(em.queries.get(9).copied(), None);
    }

    #[test]
    fn estimates_stay_in_open_unit_interval() {
        let labels = LabelSet::traffic_default();
        let mut em = OnlineEm::new(1, labels, 0.25, GammaSchedule::Constant(1.0)).unwrap();
        // Constant γ=1 copies the wrongness estimate directly; after a
        // perfectly confident event it must still stay clamped inside (0,1).
        for _ in 0..50 {
            em.process(&[0.997, 0.001, 0.001, 0.001], &[(0, 0)]).unwrap();
        }
        let p = em.estimates()[0];
        assert!(p > 0.0 && p < 1.0);
    }

    #[test]
    fn export_import_resumes_adaptation_exactly() {
        let cohort = SimulatedParticipant::paper_cohort();
        let labels = LabelSet::traffic_default();
        let mut live = OnlineEm::paper_default(cohort.len());
        let mut rng = StdRng::seed_from_u64(11);
        let events: Vec<Vec<(usize, usize)>> = (0..400u64)
            .map(|t| {
                cohort
                    .iter()
                    .enumerate()
                    .map(|(i, p)| (i, p.answer((t % 4) as usize, &labels, &mut rng).unwrap()))
                    .collect()
            })
            .collect();
        for ev in &events[..200] {
            live.process(&uniform4(), ev).unwrap();
        }
        let snapshot = live.export_state();

        // A rebuilt estimator restored from the snapshot continues the
        // γ-schedule exactly where the live one left off.
        let mut restored = OnlineEm::paper_default(cohort.len());
        restored.import_state(&snapshot).unwrap();
        assert_eq!(restored.estimates(), live.estimates());
        assert_eq!(restored.queries[0], live.queries[0]);
        assert_eq!(restored.export_state(), snapshot, "round trip is lossless");
        for ev in &events[200..] {
            let a = live.process(&uniform4(), ev).unwrap();
            let b = restored.process(&uniform4(), ev).unwrap();
            assert_eq!(a, b, "post-restore outcomes diverged");
        }
        assert_eq!(restored.estimates(), live.estimates());
    }

    #[test]
    fn import_rejects_corrupt_and_mismatched_snapshots() {
        let mut em = OnlineEm::paper_default(3);
        let before = em.estimates().to_vec();
        for bad in [
            "",
            "crowd-em v0\n",
            "crowd-em v1\nzz 1\n",
            "crowd-em v1\n0000000000000000\n",
            "crowd-em v1\n3fd0000000000000 x\n",
        ] {
            assert!(
                matches!(em.import_state(bad), Err(CrowdError::CorruptState { .. })),
                "accepted {bad:?}"
            );
        }
        // Wrong participant count.
        let other = OnlineEm::paper_default(5).export_state();
        assert!(em.import_state(&other).is_err());
        // Out-of-range estimate.
        let nan = format!(
            "crowd-em v1\n{:016x} 1\n{:016x} 1\n{:016x} 1\n",
            2.0f64.to_bits(),
            0.5f64.to_bits(),
            0.5f64.to_bits()
        );
        assert!(matches!(em.import_state(&nan), Err(CrowdError::InvalidProbability { .. })));
        assert_eq!(em.estimates(), before, "failed imports leave state untouched");
    }

    #[test]
    fn map_label_resolves_congestion_question() {
        // 3 of 4 reliable participants say "Traffic congestion" (label 0):
        // the crowd event must carry positive congestion.
        let mut em = OnlineEm::paper_default(4);
        let out = em.process(&uniform4(), &[(0, 0), (1, 0), (2, 0), (3, 1)]).unwrap();
        assert_eq!(out.map_label, 0);
        assert!(out.confidence > 0.5);
    }
}
