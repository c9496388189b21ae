//! Operator-facing alerts.
//!
//! "The system helps an operator manage the traffic situation … issue alerts
//! when issues that may impact traffic are identified" (§2). The paper's
//! interactive map is replaced by a typed alert feed any front-end could
//! render.

use std::fmt;

/// An alert delivered to the city operator.
#[derive(Debug, Clone, PartialEq)]
pub enum OperatorAlert {
    /// A SCATS intersection is congested.
    IntersectionCongestion {
        /// Longitude.
        lon: f64,
        /// Latitude.
        lat: f64,
        /// When the congestion started.
        since: i64,
    },
    /// Buses report congestion at an area of interest.
    BusCongestion {
        /// Longitude.
        lon: f64,
        /// Latitude.
        lat: f64,
        /// When the congestion started.
        since: i64,
    },
    /// Bus and SCATS sources disagree; optionally labelled with the crowd's
    /// resolution (§2: "CEs are labelled with the details obtained from the
    /// participants").
    SourceDisagreement {
        /// Longitude.
        lon: f64,
        /// Latitude.
        lat: f64,
        /// When the disagreement started.
        since: i64,
        /// The crowd's verdict, when it arrived in time: `true` =
        /// congestion confirmed.
        crowd_verdict: Option<bool>,
        /// The crowd's posterior confidence in the verdict.
        confidence: Option<f64>,
    },
    /// A bus was marked unreliable.
    NoisyBus {
        /// Vehicle id.
        bus: i64,
        /// When it became noisy.
        since: i64,
    },
    /// A sharp delay increase — congestion in the making.
    DelayIncrease {
        /// Vehicle id.
        bus: i64,
        /// Where it was observed (end position).
        lon: f64,
        /// Latitude.
        lat: f64,
        /// When.
        at: i64,
    },
    /// A flow or density trend on a sensor.
    Trend {
        /// Intersection id.
        intersection: i64,
        /// Sensor id.
        sensor: i64,
        /// `"flow"` or `"density"`.
        quantity: &'static str,
        /// `true` = increasing.
        rising: bool,
        /// When.
        at: i64,
    },
}

impl OperatorAlert {}

impl fmt::Display for OperatorAlert {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OperatorAlert::IntersectionCongestion { lon, lat, since } => {
                write!(f, "[{since}] congestion at SCATS intersection ({lon:.5}, {lat:.5})")
            }
            OperatorAlert::BusCongestion { lon, lat, since } => {
                write!(f, "[{since}] buses report congestion near ({lon:.5}, {lat:.5})")
            }
            OperatorAlert::SourceDisagreement { lon, lat, since, crowd_verdict, confidence } => {
                write!(f, "[{since}] source disagreement at ({lon:.5}, {lat:.5})")?;
                match (crowd_verdict, confidence) {
                    (Some(v), Some(c)) => write!(
                        f,
                        " — crowd says {} (confidence {:.2})",
                        if *v { "congested" } else { "clear" },
                        c
                    ),
                    (Some(v), None) => {
                        write!(f, " — crowd says {}", if *v { "congested" } else { "clear" })
                    }
                    _ => write!(f, " — unresolved"),
                }
            }
            OperatorAlert::NoisyBus { bus, since } => {
                write!(f, "[{since}] bus {bus} marked unreliable")
            }
            OperatorAlert::DelayIncrease { bus, lon, lat, at } => {
                write!(f, "[{at}] sharp delay increase of bus {bus} near ({lon:.5}, {lat:.5})")
            }
            OperatorAlert::Trend { intersection, sensor, quantity, rising, at } => write!(
                f,
                "[{at}] {quantity} {} on sensor {sensor} (intersection {intersection})",
                if *rising { "rising" } else { "falling" }
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let a = OperatorAlert::SourceDisagreement {
            lon: -6.26,
            lat: 53.35,
            since: 10,
            crowd_verdict: Some(true),
            confidence: Some(0.97),
        };
        let s = a.to_string();
        assert!(s.contains("disagreement") && s.contains("congested") && s.contains("0.97"));
        let unresolved = OperatorAlert::SourceDisagreement {
            lon: 0.0,
            lat: 0.0,
            since: 0,
            crowd_verdict: None,
            confidence: None,
        };
        assert!(unresolved.to_string().contains("unresolved"));
        let t = OperatorAlert::Trend {
            intersection: 1,
            sensor: 2,
            quantity: "flow",
            rising: false,
            at: 5,
        };
        assert!(t.to_string().contains("falling"));
    }
}
