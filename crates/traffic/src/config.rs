//! Configuration of the traffic rule library.

use insight_datagen::congestion::{LOWER_FLOW_THRESHOLD, UPPER_DENSITY_THRESHOLD};

/// Which `noisy(Bus)` definition is active.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NoisyVariant {
    /// Rule-set (4): a bus becomes noisy only when crowdsourced information
    /// confirms the SCATS sensors against it.
    CrowdValidated,
    /// Rule-set (5): a bus becomes noisy on any disagreement (SCATS sensors
    /// are trusted by default); crowdsourced information can clear it.
    Pessimistic,
}

/// Static vs self-adaptive recognition (the two curves of Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecognitionMode {
    /// Rule-set (3): every source is always taken into consideration.
    Static,
    /// Rule-set (3′) + `noisy` + `disagree`/`agree`: unreliable sources are
    /// detected at run time and discarded until they recover.
    SelfAdaptive(NoisyVariant),
}

/// Thresholds and parameters of the CE definitions.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficRulesConfig {
    /// Recognition mode.
    pub mode: RecognitionMode,
    /// `close/4` distance threshold in metres.
    pub close_threshold_m: f64,
    /// `delayIncrease`: minimum delay growth `d` (seconds).
    pub delay_increase_d: f64,
    /// `delayIncrease`: maximum SDE spacing `t` (seconds).
    pub delay_increase_t: f64,
    /// Rule-set (2): `upper_Density_threshold` (vehicles/km).
    pub density_upper: f64,
    /// Rule-set (2): `lower_Flow_threshold` (vehicles/hour).
    pub flow_lower: f64,
    /// Rule-set (4)/(5): crowd answers older than this do not affect bus
    /// reliability (seconds).
    pub crowd_window_s: f64,
    /// Trend CEs: minimum flow change between consecutive readings (veh/h).
    pub trend_flow_delta: f64,
    /// Trend CEs: minimum density change between consecutive readings
    /// (veh/km).
    pub trend_density_delta: f64,
    /// Trend CEs: maximum spacing between the two readings (seconds; a bit
    /// over one SCATS period pairs consecutive readings only).
    pub trend_window_s: f64,
    /// Whether to also evaluate SCATS sensor reliability from crowd answers
    /// (the rule-set the paper omits to save space).
    pub scats_reliability: bool,
    /// When the areas of interest coincide with the SCATS intersections
    /// (the paper's default choice), the adaptive mode can share one
    /// spatial join between `busCongestion` and `disagree`/`agree`. The
    /// recogniser disables this automatically when extra areas are added.
    pub shared_spatial_join: bool,
    /// Enables the `citizenCongestion` extension rule-set over classified
    /// micro-blogging reports (the paper's §1 Twitter motivation, not part
    /// of its implemented system).
    pub citizen_reports: bool,
    /// Additionally derives `scatsApproachCongestion(Int, A)` — the
    /// intermediate level of the paper's structured intersection-congestion
    /// definition family (per-approach visibility for operators).
    pub approach_congestion: bool,
    /// `scatsIntCongestion` requires at least this many simultaneously
    /// congested sensors (the paper: "a SCATS intersection is congested if
    /// at least n (n ≥ 1) of its sensors are congested"). Supported values:
    /// 1 (union of sensors, the default) and 2 (pairwise intersection).
    pub intersection_congestion_n: usize,
}

impl Default for TrafficRulesConfig {
    fn default() -> TrafficRulesConfig {
        TrafficRulesConfig {
            mode: RecognitionMode::SelfAdaptive(NoisyVariant::Pessimistic),
            close_threshold_m: 250.0,
            // A bus gains at most one second of delay per second, so `d`
            // must be comfortably below `t`: +45 s of schedule delay inside
            // two minutes (≥ 37 % of the elapsed time lost) marks a
            // congestion in the making.
            delay_increase_d: 45.0,
            delay_increase_t: 120.0,
            density_upper: UPPER_DENSITY_THRESHOLD,
            flow_lower: LOWER_FLOW_THRESHOLD,
            crowd_window_s: 600.0,
            trend_flow_delta: 450.0,
            trend_density_delta: 30.0,
            trend_window_s: 400.0,
            scats_reliability: false,
            shared_spatial_join: true,
            citizen_reports: false,
            approach_congestion: false,
            intersection_congestion_n: 1,
        }
    }
}

impl TrafficRulesConfig {
    /// The static-mode configuration (Figure 4's baseline curve).
    pub fn static_mode() -> TrafficRulesConfig {
        TrafficRulesConfig { mode: RecognitionMode::Static, ..TrafficRulesConfig::default() }
    }

    /// Self-adaptive configuration with the chosen `noisy` variant.
    pub fn self_adaptive(variant: NoisyVariant) -> TrafficRulesConfig {
        TrafficRulesConfig {
            mode: RecognitionMode::SelfAdaptive(variant),
            ..TrafficRulesConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_thresholds_come_from_fundamental_diagram() {
        let c = TrafficRulesConfig::default();
        assert!((c.density_upper - 84.0).abs() < 1e-9);
        assert!((c.flow_lower - 1512.0).abs() < 1e-9);
        assert!(matches!(c.mode, RecognitionMode::SelfAdaptive(_)));
    }

    #[test]
    fn mode_constructors() {
        assert_eq!(TrafficRulesConfig::static_mode().mode, RecognitionMode::Static);
        let c = TrafficRulesConfig::self_adaptive(NoisyVariant::CrowdValidated);
        assert_eq!(c.mode, RecognitionMode::SelfAdaptive(NoisyVariant::CrowdValidated));
    }
}
