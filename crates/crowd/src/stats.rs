//! Experiment bookkeeping: posterior peakedness and estimation traces.
//!
//! Figure 5 of the paper plots, per participant, the evolving estimate of
//! the error probability and its relative estimation error as a function of
//! the number of queries; §7.2 additionally reports the fraction of events
//! whose posterior is "very peaked" (one label above 0.99). These helpers
//! collect exactly those series.

/// Counts how often the posterior's top label exceeds a threshold.
#[derive(Debug, Clone, PartialEq)]
pub struct PeakednessTracker {
    threshold: f64,
    peaked: usize,
    total: usize,
}

impl PeakednessTracker {
    /// A tracker with the paper's 0.99 threshold.
    pub fn paper_default() -> PeakednessTracker {
        PeakednessTracker::new(0.99)
    }

    /// A tracker with a custom threshold.
    pub(crate) fn new(threshold: f64) -> PeakednessTracker {
        PeakednessTracker { threshold, peaked: 0, total: 0 }
    }

    /// Records one posterior's confidence (its maximum mass).
    pub fn record(&mut self, confidence: f64) {
        self.total += 1;
        if confidence > self.threshold {
            self.peaked += 1;
        }
    }

    /// Fraction of peaked posteriors (`None` before any event).
    pub fn fraction(&self) -> Option<f64> {
        (self.total > 0).then(|| self.peaked as f64 / self.total as f64)
    }
}

/// Records, per participant, the estimate after each query — the data behind
/// both panels of Figure 5.
#[derive(Debug, Clone, Default)]
pub struct EstimationTrace {
    /// `series[i]` = estimates of participant `i` after each processed event.
    pub series: Vec<Vec<f64>>,
}

impl EstimationTrace {
    /// A trace for `n` participants.
    pub fn new(n: usize) -> EstimationTrace {
        EstimationTrace { series: vec![Vec::new(); n] }
    }

    /// Appends a snapshot of the current estimates.
    pub fn snapshot(&mut self, estimates: &[f64]) {
        for (s, &e) in self.series.iter_mut().zip(estimates) {
            s.push(e);
        }
    }

    /// Relative estimation error `(p̂ − p)/p` of participant `i` after query
    /// `t` (the lower panel of Figure 5).
    pub fn relative_error(&self, i: usize, t: usize, true_p: f64) -> Option<f64> {
        if true_p == 0.0 {
            return None;
        }
        self.series.get(i)?.get(t).map(|&e| (e - true_p) / true_p)
    }

    /// Final estimate of participant `i`.
    pub fn final_estimate(&self, i: usize) -> Option<f64> {
        self.series.get(i)?.last().copied()
    }

    /// Whether the participants, ordered by their final estimates, match the
    /// ordering of the true error probabilities — the paper's "after ~100
    /// calls the ordering is more or less correct" check. Ties within
    /// `tolerance` are not counted as violations (participants 2-3 and 6-7
    /// of the paper's cohort are near-ties).
    pub fn ordering_correct(&self, true_p: &[f64], tolerance: f64) -> bool {
        let n = self.series.len().min(true_p.len());
        for i in 0..n {
            for j in (i + 1)..n {
                let (Some(ei), Some(ej)) = (self.final_estimate(i), self.final_estimate(j)) else {
                    return false;
                };
                if (true_p[i] - true_p[j]).abs() <= tolerance {
                    continue;
                }
                if (true_p[i] < true_p[j]) != (ei < ej) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peakedness_counts() {
        let mut t = PeakednessTracker::paper_default();
        assert_eq!(t.fraction(), None);
        t.record(0.999);
        t.record(0.5);
        t.record(0.995);
        assert_eq!(t.total, 3);
        assert!((t.fraction().unwrap() - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn trace_snapshots_and_errors() {
        let mut tr = EstimationTrace::new(2);
        tr.snapshot(&[0.3, 0.6]);
        tr.snapshot(&[0.25, 0.7]);
        assert_eq!(tr.series[0].len(), 2);
        assert_eq!(tr.final_estimate(0), Some(0.25));
        let re = tr.relative_error(1, 1, 0.5).unwrap();
        assert!((re - 0.4).abs() < 1e-12);
        assert!(tr.relative_error(0, 5, 0.5).is_none());
        assert!(tr.relative_error(0, 0, 0.0).is_none());
    }

    #[test]
    fn ordering_check_tolerates_near_ties() {
        let mut tr = EstimationTrace::new(3);
        // true: 0.2, 0.25, 0.9 — estimates swap the two near ones
        tr.snapshot(&[0.26, 0.21, 0.88]);
        assert!(tr.ordering_correct(&[0.2, 0.25, 0.9], 0.06));
        assert!(!tr.ordering_correct(&[0.2, 0.25, 0.9], 0.01));
        // swapping a clearly separated pair fails regardless
        let mut tr2 = EstimationTrace::new(2);
        tr2.snapshot(&[0.9, 0.1]);
        assert!(!tr2.ordering_correct(&[0.1, 0.9], 0.05));
    }
}
