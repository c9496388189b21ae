//! The crowdsourced model of §5.1.
//!
//! Each source-disagreement event is an unobserved categorical variable `Xₜ`
//! over a fixed label set; participant `i` answers with the true label with
//! probability `1 − p_i` and otherwise picks one of the remaining labels
//! uniformly (equations (6)–(7)):
//!
//! ```text
//! P(Y_{i,t} = x_t | X_t = x_t) = 1 − p_i
//! P(Y_{i,t} = x   | X_t = x_t) = p_i / (|Val(X_t)| − 1)    for x ≠ x_t
//! ```

use crate::error::CrowdError;
use rand::Rng;

/// The set of possible answers for disagreement events (e.g. the four
/// answers of the paper's experiment, one of which is "Traffic congestion").
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LabelSet {
    labels: Vec<String>,
}

impl LabelSet {
    /// Builds a label set; needs at least two labels.
    pub(crate) fn new<I, S>(labels: I) -> Result<LabelSet, CrowdError>
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let labels: Vec<String> = labels.into_iter().map(Into::into).collect();
        if labels.len() < 2 {
            return Err(CrowdError::DegenerateLabelSet);
        }
        Ok(LabelSet { labels })
    }

    /// The four-answer label set used by the paper's experiment, with
    /// "Traffic congestion" as label 0.
    pub fn traffic_default() -> LabelSet {
        LabelSet::new(["Traffic congestion", "Free flowing", "Accident", "Road works"])
            .expect("static labels")
    }

    /// Number of labels `|Val(X)|`.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether empty (never true for a constructed set).
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Label text by index.
    pub fn name(&self, label: usize) -> Option<&str> {
        self.labels.get(label).map(String::as_str)
    }

    /// Index of a label text.
    pub fn index_of(&self, name: &str) -> Option<usize> {
        self.labels.iter().position(|l| l == name)
    }

    /// A uniform prior over the labels.
    pub fn uniform_prior(&self) -> Vec<f64> {
        vec![1.0 / self.len() as f64; self.len()]
    }

    /// Validates a prior distribution against this label set.
    pub(crate) fn validate_prior(&self, prior: &[f64]) -> Result<(), CrowdError> {
        if prior.len() != self.len() {
            return Err(CrowdError::InvalidPrior {
                detail: format!("length {} != {} labels", prior.len(), self.len()),
            });
        }
        if prior.iter().any(|&p| p < 0.0 || !p.is_finite()) {
            return Err(CrowdError::InvalidPrior { detail: "negative or non-finite mass".into() });
        }
        let sum: f64 = prior.iter().sum();
        if sum <= 0.0 {
            return Err(CrowdError::InvalidPrior { detail: "zero total mass".into() });
        }
        Ok(())
    }
}

/// One source-disagreement event handed to the crowdsourcing component.
#[derive(Debug, Clone, PartialEq)]
pub struct DisagreementEvent {
    /// Monotone event index `t`.
    pub id: u64,
    /// Longitude of the SCATS intersection in question.
    pub lon: f64,
    /// Latitude of the SCATS intersection in question.
    pub lat: f64,
    /// Event time (seconds).
    pub time: i64,
    /// Prior `P(Xₜ)` over the labels, e.g. from the CE component's bus-vote
    /// ratio, or uniform.
    pub prior: Vec<f64>,
}

/// A query as handed to the execution engine:
/// `{Question, [answer₁, …, answerₙ]}` (§5.3).
#[derive(Debug, Clone, PartialEq)]
pub struct CrowdQuery {
    /// The question text.
    pub question: String,
    /// The possible answers (the label set's names).
    pub answers: Vec<String>,
    /// Longitude of the location the question is about.
    pub lon: f64,
    /// Latitude of the location the question is about.
    pub lat: f64,
    /// Optional real-time deadline in milliseconds.
    pub deadline_ms: Option<f64>,
}

impl CrowdQuery {}

/// A simulated participant with a fixed (hidden) error probability — the
/// protocol of the paper's own evaluation (§7.2).
#[derive(Debug, Clone, PartialEq)]
pub struct SimulatedParticipant {
    /// Probability of answering with a wrong label.
    pub p_err: f64,
}

impl SimulatedParticipant {
    /// Validates and builds the participant.
    pub fn new(p_err: f64) -> Result<SimulatedParticipant, CrowdError> {
        if !(0.0..=1.0).contains(&p_err) || !p_err.is_finite() {
            return Err(CrowdError::InvalidProbability { name: "p_err", value: p_err });
        }
        Ok(SimulatedParticipant { p_err })
    }

    /// The paper's ten participants:
    /// p = {0.05, 0.15, 0.2, 0.25, 0.25, 0.38, 0.4, 0.5, 0.75, 0.9}.
    pub fn paper_cohort() -> Vec<SimulatedParticipant> {
        [0.05, 0.15, 0.2, 0.25, 0.25, 0.38, 0.4, 0.5, 0.75, 0.9]
            .into_iter()
            .map(|p| SimulatedParticipant::new(p).expect("static probabilities"))
            .collect()
    }

    /// Draws an answer for an event whose true label is `truth`, following
    /// equations (6)–(7).
    pub fn answer<R: Rng + ?Sized>(
        &self,
        truth: usize,
        labels: &LabelSet,
        rng: &mut R,
    ) -> Result<usize, CrowdError> {
        if truth >= labels.len() {
            return Err(CrowdError::LabelOutOfRange { label: truth, n_labels: labels.len() });
        }
        if rng.random::<f64>() >= self.p_err {
            Ok(truth)
        } else {
            // Uniform over the |Val| − 1 wrong labels.
            let k = rng.random_range(0..labels.len() - 1);
            Ok(if k >= truth { k + 1 } else { k })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn label_set_basics() {
        let ls = LabelSet::traffic_default();
        assert_eq!(ls.len(), 4);
        assert_eq!(ls.name(0), Some("Traffic congestion"));
        assert_eq!(ls.index_of("Accident"), Some(2));
        assert_eq!(ls.index_of("nothing"), None);
        assert_eq!(ls.uniform_prior(), vec![0.25; 4]);
        assert!(LabelSet::new(["only-one"]).is_err());
    }

    #[test]
    fn prior_validation() {
        let ls = LabelSet::traffic_default();
        assert!(ls.validate_prior(&[0.25; 4]).is_ok());
        assert!(ls.validate_prior(&[0.5, 0.5]).is_err());
        assert!(ls.validate_prior(&[-0.1, 0.4, 0.4, 0.3]).is_err());
        assert!(ls.validate_prior(&[0.0; 4]).is_err());
        assert!(ls.validate_prior(&[f64::NAN, 0.1, 0.1, 0.1]).is_err());
    }

    #[test]
    fn participant_validation() {
        assert!(SimulatedParticipant::new(-0.1).is_err());
        assert!(SimulatedParticipant::new(1.1).is_err());
        assert!(SimulatedParticipant::new(0.25).is_ok());
        assert_eq!(SimulatedParticipant::paper_cohort().len(), 10);
    }

    #[test]
    fn answers_match_error_rate() {
        let ls = LabelSet::traffic_default();
        let p = SimulatedParticipant::new(0.4).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let trials = 20_000;
        let mut wrong = 0;
        let mut wrong_counts = [0usize; 4];
        for _ in 0..trials {
            let a = p.answer(1, &ls, &mut rng).unwrap();
            if a != 1 {
                wrong += 1;
                wrong_counts[a] += 1;
            }
        }
        let rate = wrong as f64 / trials as f64;
        assert!((rate - 0.4).abs() < 0.02, "empirical error rate {rate}");
        // Wrong answers are uniform over the other three labels.
        for (label, &c) in wrong_counts.iter().enumerate() {
            if label == 1 {
                continue;
            }
            let share = c as f64 / wrong as f64;
            assert!((share - 1.0 / 3.0).abs() < 0.05, "label {label} share {share}");
        }
    }

    #[test]
    fn perfect_and_adversarial_participants() {
        let ls = LabelSet::traffic_default();
        let mut rng = StdRng::seed_from_u64(1);
        let perfect = SimulatedParticipant::new(0.0).unwrap();
        for _ in 0..100 {
            assert_eq!(perfect.answer(2, &ls, &mut rng).unwrap(), 2);
        }
        let adversary = SimulatedParticipant::new(1.0).unwrap();
        for _ in 0..100 {
            assert_ne!(adversary.answer(2, &ls, &mut rng).unwrap(), 2);
        }
    }

    #[test]
    fn answer_rejects_bad_truth() {
        let ls = LabelSet::traffic_default();
        let p = SimulatedParticipant::new(0.1).unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        assert!(p.answer(9, &ls, &mut rng).is_err());
    }
}
