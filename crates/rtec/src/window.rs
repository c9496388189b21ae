//! Working-memory windowing (Section 4.2 / Figure 2 of the paper).
//!
//! RTEC performs recognition at query times `Q1, Q2, …`; at `Qi` only the
//! SDEs inside the working memory `(Qi − WM, Qi]` are considered. The *step*
//! `Qi − Qi−1` and `WM` are tuning parameters; making `WM` larger than the
//! step allows delayed SDEs — those that occurred in `(Qi − WM, Qi−1]` but
//! arrived after `Qi−1` — to be amended into the result instead of lost.

use crate::error::RtecError;
use crate::time::Time;

/// Working-memory and step configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowConfig {
    wm: i64,
    step: i64,
}

impl WindowConfig {
    /// Creates a configuration. Requires `wm >= step > 0`: a step larger than
    /// the working memory would leave gaps of time that are never processed.
    pub fn new(wm: i64, step: i64) -> Result<WindowConfig, RtecError> {
        if step <= 0 {
            return Err(RtecError::InvalidWindow {
                detail: format!("step must be positive, got {step}"),
            });
        }
        if wm < step {
            return Err(RtecError::InvalidWindow {
                detail: format!("working memory ({wm}) must be at least the step ({step})"),
            });
        }
        Ok(WindowConfig { wm, step })
    }

    /// The step between consecutive query times.
    pub fn step(&self) -> i64 {
        self.step
    }

    /// The window start for a query at `q` (exclusive bound in the paper's
    /// notation; SDEs with occurrence time in `(q − WM, q]` are considered —
    /// with our half-open convention the processed range is `[q − WM + 1,
    /// q]`, which the engine queries as occurrence times `> q − WM`).
    pub(crate) fn window_start(&self, q: Time) -> Time {
        q - self.wm
    }

    /// [`WindowConfig::window_start`], or `None` where it overflows.
    pub(crate) fn checked_window_start(&self, q: Time) -> Option<Time> {
        q.checked_sub(self.wm)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn validates_parameters() {
        assert!(WindowConfig::new(10, 0).is_err());
        assert!(WindowConfig::new(10, -5).is_err());
        assert!(WindowConfig::new(5, 10).is_err());
        assert!(WindowConfig::new(10, 10).is_ok());
        assert!(WindowConfig::new(100, 31).is_ok());
    }

    #[test]
    fn window_arithmetic() {
        let w = WindowConfig::new(600, 31).unwrap();
        assert_eq!(w.step(), 31);
        assert_eq!(w.window_start(1000), 400);
    }
}
