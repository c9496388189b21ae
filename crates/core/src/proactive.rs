//! Proactive traffic control recommendations.
//!
//! The paper's motivating application (§1): "an urban monitoring system
//! that identifies traffic congestions (in-the-make) and (proactively)
//! changes traffic light priorities and speed limits to reduce ripple
//! effects." The monitoring system of the paper stops at detection; this
//! module implements the decision layer on top of the recognised CEs:
//!
//! * a congested SCATS intersection ⇒ extend its green-phase priority;
//! * a rising density trend on a sensor ⇒ reduce the speed limit on the
//!   approach feeding it (slowing inflow before the jam forms);
//! * a `delayIncrease` CE (congestion in the making) ⇒ advisory rerouting
//!   around the segment.
//!
//! Actions carry a per-target cooldown so the controller does not flap.

use insight_rtec::term::Term;
use insight_traffic::TrafficRecognition;
use std::collections::HashMap;
use std::fmt;

/// A recommended control action.
#[derive(Debug, Clone, PartialEq)]
pub enum ControlAction {
    /// Extend green-phase priority at a congested intersection.
    SignalPriority {
        /// Intersection longitude.
        lon: f64,
        /// Intersection latitude.
        lat: f64,
        /// Recommended green extension in seconds.
        green_extension_s: i64,
    },
    /// Temporarily reduce the speed limit feeding a sensor with rising
    /// density.
    SpeedLimit {
        /// Intersection id.
        intersection: i64,
        /// Approach index.
        approach: i64,
        /// Recommended limit in km/h.
        limit_kmh: i64,
    },
    /// Advise rerouting around a segment with a sharp delay increase.
    RerouteAdvisory {
        /// Segment end longitude.
        lon: f64,
        /// Segment end latitude.
        lat: f64,
        /// The bus that evidenced the delay.
        bus: i64,
    },
}

impl ControlAction {
    fn target_key(&self) -> (u8, i64, i64) {
        match self {
            ControlAction::SignalPriority { lon, lat, .. } => {
                (0, (lon * 1e6) as i64, (lat * 1e6) as i64)
            }
            ControlAction::SpeedLimit { intersection, approach, .. } => {
                (1, *intersection, *approach)
            }
            ControlAction::RerouteAdvisory { lon, lat, .. } => {
                (2, (lon * 1e6) as i64, (lat * 1e6) as i64)
            }
        }
    }
}

impl fmt::Display for ControlAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ControlAction::SignalPriority { lon, lat, green_extension_s } => write!(
                f,
                "extend green phase by {green_extension_s}s at ({lon:.5}, {lat:.5})"
            ),
            ControlAction::SpeedLimit { intersection, approach, limit_kmh } => write!(
                f,
                "reduce speed limit to {limit_kmh} km/h on approach {approach} of intersection {intersection}"
            ),
            ControlAction::RerouteAdvisory { lon, lat, bus } => write!(
                f,
                "advise rerouting near ({lon:.5}, {lat:.5}) — delay spike on bus {bus}"
            ),
        }
    }
}

/// Controller configuration.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct ControllerConfig {
    /// Green extension recommended per congested intersection (seconds).
    pub green_extension_s: i64,
    /// Reduced limit recommended on rising-density approaches (km/h).
    pub reduced_limit_kmh: i64,
    /// Minimum seconds between repeated actions on the same target.
    pub cooldown_s: i64,
}

impl Default for ControllerConfig {
    fn default() -> ControllerConfig {
        ControllerConfig { green_extension_s: 15, reduced_limit_kmh: 30, cooldown_s: 900 }
    }
}

/// The proactive controller: turns recognised CEs into control actions.
#[derive(Debug, Clone)]
pub(crate) struct ProactiveController {
    config: ControllerConfig,
    last_fired: HashMap<(u8, i64, i64), i64>,
}

impl ProactiveController {
    /// A controller with the given configuration.
    pub(crate) fn new(config: ControllerConfig) -> ProactiveController {
        ProactiveController { config, last_fired: HashMap::new() }
    }

    /// Derives actions from one recognition result at query time `now`.
    /// Targets in cooldown are skipped.
    pub(crate) fn decide(
        &mut self,
        recognition: &TrafficRecognition,
        now: i64,
    ) -> Vec<ControlAction> {
        let mut actions = Vec::new();

        // Congested intersections (open intervals only: the condition is
        // current) -> signal priority.
        for ((lon, lat), ivs) in recognition.congested_intersections() {
            if ivs.contains(now.saturating_sub(1)) || ivs.iter().any(|iv| iv.is_open()) {
                actions.push(ControlAction::SignalPriority {
                    lon,
                    lat,
                    green_extension_s: self.config.green_extension_s,
                });
            }
        }

        // Rising density trends -> speed limits.
        for e in recognition.trend_events() {
            let is_density = e.kind
                == insight_rtec::term::Symbol::new(insight_traffic::rules::ce::DENSITY_TREND);
            if !is_density || e.args.get(3) != Some(&Term::sym("up")) {
                continue;
            }
            if let (Some(int), Some(a)) = (e.args[0].as_i64(), e.args[1].as_i64()) {
                actions.push(ControlAction::SpeedLimit {
                    intersection: int,
                    approach: a,
                    limit_kmh: self.config.reduced_limit_kmh,
                });
            }
        }

        // Delay increases (congestion in the making) -> reroute advisories.
        for e in recognition.delay_increases() {
            if let (Some(bus), Some(lon), Some(lat)) =
                (e.args[0].as_i64(), e.args[3].as_f64(), e.args[4].as_f64())
            {
                actions.push(ControlAction::RerouteAdvisory { lon, lat, bus });
            }
        }

        // Cooldown filter.
        actions.retain(|a| {
            let key = a.target_key();
            match self.last_fired.get(&key) {
                Some(&t) if now - t < self.config.cooldown_s => false,
                _ => {
                    self.last_fired.insert(key, now);
                    true
                }
            }
        });
        actions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insight_rtec::engine::Engine;
    use insight_rtec::event::Event;
    use insight_rtec::window::WindowConfig;
    use insight_traffic::rules::{build_ruleset, rel};
    use insight_traffic::TrafficRulesConfig;

    const LON: f64 = -6.26;
    const LAT: f64 = 53.35;

    fn recognition_with_congestion_and_trend() -> TrafficRecognition {
        let config = TrafficRulesConfig::static_mode();
        let rs = build_ruleset(&config).unwrap();
        let mut e = Engine::new(rs, WindowConfig::new(10_000, 10_000).unwrap());
        e.register_builtin("close", insight_traffic::geo::close_builtin(250.0)).unwrap();
        e.set_relation(
            rel::SCATS_INTERSECTION,
            vec![vec![Term::int(1), Term::float(LON), Term::float(LAT)]],
        )
        .unwrap();
        e.set_relation(rel::AREA, vec![vec![Term::float(LON), Term::float(LAT)]]).unwrap();
        let close_box = insight_traffic::geo::close_box_tuples(250.0, [LAT]);
        e.set_relation(rel::CLOSE_BOX, close_box).unwrap();
        // Ongoing congestion + a rising density trend (30 -> 95 veh/km).
        e.add_event(Event::new(
            "traffic",
            [Term::int(1), Term::int(0), Term::int(5), Term::float(30.0), Term::float(1700.0)],
            360,
        ))
        .unwrap();
        e.add_event(Event::new(
            "traffic",
            [Term::int(1), Term::int(0), Term::int(5), Term::float(95.0), Term::float(900.0)],
            720,
        ))
        .unwrap();
        TrafficRecognition { raw: e.query(10_000).unwrap() }
    }

    #[test]
    fn congestion_and_trend_produce_actions() {
        let rec = recognition_with_congestion_and_trend();
        let mut ctl = ProactiveController::new(ControllerConfig::default());
        let actions = ctl.decide(&rec, 10_000);
        assert!(
            actions.iter().any(|a| matches!(a, ControlAction::SignalPriority { .. })),
            "ongoing congestion triggers signal priority: {actions:?}"
        );
        assert!(
            actions.iter().any(|a| matches!(
                a,
                ControlAction::SpeedLimit { intersection: 1, approach: 0, .. }
            )),
            "rising density triggers a speed limit: {actions:?}"
        );
    }

    #[test]
    fn cooldown_suppresses_repeats() {
        let rec = recognition_with_congestion_and_trend();
        let mut ctl = ProactiveController::new(ControllerConfig::default());
        let first = ctl.decide(&rec, 10_000);
        assert!(!first.is_empty());
        let repeat = ctl.decide(&rec, 10_100);
        assert!(repeat.is_empty(), "inside cooldown: {repeat:?}");
        let later = ctl.decide(&rec, 10_000 + 1000);
        assert_eq!(later.len(), first.len(), "cooldown expired");
    }

    #[test]
    fn actions_display_readably() {
        let a = ControlAction::SignalPriority { lon: LON, lat: LAT, green_extension_s: 15 };
        assert!(a.to_string().contains("green phase"));
        let a = ControlAction::SpeedLimit { intersection: 1, approach: 0, limit_kmh: 30 };
        assert!(a.to_string().contains("30 km/h"));
        let a = ControlAction::RerouteAdvisory { lon: LON, lat: LAT, bus: 7 };
        assert!(a.to_string().contains("rerouting"));
    }
}
