//! Citizen micro-blogging reports (the paper's §1 Twitter motivation).
//!
//! "The data sources include traditional ones (sensors) as well as novel
//! ones such as micro-blogging applications like Twitter; these provide a
//! new stream of textual information that can be utilized to capture
//! events." The paper's system does not consume this source yet; this
//! module provides the synthetic stream and a keyword classifier so the
//! extension rule-set (`citizenCongestion` in `insight-traffic`) can be
//! exercised — an implemented piece of the paper's future-work surface.

use crate::congestion::CongestionField;
use crate::network::StreetNetwork;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One geo-tagged textual report.
#[derive(Debug, Clone, PartialEq)]
pub struct CitizenReport {
    /// Pseudonymous user id.
    pub user: u32,
    /// The message text.
    pub text: String,
    /// Longitude of the report.
    pub lon: f64,
    /// Latitude of the report.
    pub lat: f64,
    /// Report time (seconds).
    pub time: i64,
}

/// Phrases indicating congestion.
const CONGESTION_PHRASES: [&str; 5] = [
    "stuck in traffic, not moving at all",
    "total gridlock here",
    "bumper to bumper congestion",
    "traffic jam again, avoid this junction",
    "massive tailback, hasn't moved in minutes",
];

/// Phrases indicating free flow.
const CLEAR_PHRASES: [&str; 4] = [
    "roads are clear this morning",
    "traffic flowing nicely",
    "no traffic at all, smooth ride",
    "quick drive through town, no jams",
];

/// Irrelevant chatter.
const CHATTER_PHRASES: [&str; 4] = [
    "great coffee at the quay",
    "match day! up the dubs",
    "lovely weather over the liffey",
    "anyone know a good lunch spot",
];

/// The keyword classifier: `Some(true)` = congestion, `Some(false)` =
/// free flow, `None` = irrelevant.
pub fn classify(text: &str) -> Option<bool> {
    const CONGESTED: [&str; 6] = [
        "traffic jam",
        "gridlock",
        "stuck in traffic",
        "congestion",
        "tailback",
        "bumper to bumper",
    ];
    const CLEAR: [&str; 4] = ["clear", "flowing", "no traffic", "no jams"];
    let lower = text.to_lowercase();
    if CONGESTED.iter().any(|k| lower.contains(k)) {
        return Some(true);
    }
    if CLEAR.iter().any(|k| lower.contains(k)) {
        return Some(false);
    }
    None
}

/// Generator configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CitizenConfig {
    /// Number of active users.
    pub n_users: usize,
    /// Mean reports per user per hour.
    pub reports_per_hour: f64,
    /// Probability a report is on-topic (traffic) rather than chatter.
    pub topicality: f64,
    /// Probability an on-topic report correctly reflects the ground truth.
    pub accuracy: f64,
}

impl Default for CitizenConfig {
    fn default() -> CitizenConfig {
        CitizenConfig { n_users: 50, reports_per_hour: 4.0, topicality: 0.5, accuracy: 0.9 }
    }
}

/// Generates the report stream over a scenario window, deterministically
/// under `seed`. Reports are sorted by time.
pub fn generate(
    network: &StreetNetwork,
    field: &CongestionField,
    config: &CitizenConfig,
    start: i64,
    duration: i64,
    seed: u64,
) -> Vec<CitizenReport> {
    let mut reports = Vec::new();
    generate_into(network, field, config, start, duration, seed, &mut reports);
    reports
}

/// [`generate`], appending into a caller-owned buffer — the batched ingest
/// form. The new tail (the whole buffer, when it starts empty) ends up
/// sorted by time.
#[allow(clippy::too_many_arguments)]
pub(crate) fn generate_into(
    network: &StreetNetwork,
    field: &CongestionField,
    config: &CitizenConfig,
    start: i64,
    duration: i64,
    seed: u64,
    reports: &mut Vec<CitizenReport>,
) {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xc171_2e45);
    if network.is_empty() || duration <= 0 {
        return;
    }
    let first = reports.len();
    for user in 0..config.n_users as u32 {
        // Each user hangs around one home junction, jittered per report.
        let home = rng.random_range(0..network.len());
        let expected = config.reports_per_hour * duration as f64 / 3600.0;
        let n_reports = rng.random_range(0.0..2.0 * expected).round() as usize;
        for _ in 0..n_reports {
            let t = start + rng.random_range(0..duration);
            let junction =
                if rng.random::<f64>() < 0.7 { home } else { rng.random_range(0..network.len()) };
            let (lon, lat) = network.coords(junction);
            let text = if rng.random::<f64>() < config.topicality {
                let truth = field.is_congested(junction, t);
                let claim = if rng.random::<f64>() < config.accuracy { truth } else { !truth };
                if claim {
                    CONGESTION_PHRASES[rng.random_range(0..CONGESTION_PHRASES.len())]
                } else {
                    CLEAR_PHRASES[rng.random_range(0..CLEAR_PHRASES.len())]
                }
            } else {
                CHATTER_PHRASES[rng.random_range(0..CHATTER_PHRASES.len())]
            };
            reports.push(CitizenReport {
                user,
                text: text.to_string(),
                lon: lon + rng.random_range(-0.0005..0.0005),
                lat: lat + rng.random_range(-0.0005..0.0005),
                time: t,
            });
        }
    }
    reports[first..].sort_by_key(|r| r.time);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::CongestionConfig;
    use crate::network::NetworkConfig;

    fn setup() -> (StreetNetwork, CongestionField) {
        let net = StreetNetwork::generate(
            &NetworkConfig { nx: 8, ny: 6, ..NetworkConfig::dublin_default() },
            2,
        )
        .unwrap();
        let field = CongestionField::generate(&net, CongestionConfig::default_for(86_400), 2);
        (net, field)
    }

    #[test]
    fn classifier_keywords() {
        assert_eq!(classify("Total GRIDLOCK here"), Some(true));
        assert_eq!(classify("stuck in traffic on the quays"), Some(true));
        assert_eq!(classify("roads are clear this morning"), Some(false));
        assert_eq!(classify("traffic flowing nicely"), Some(false));
        assert_eq!(classify("great coffee at the quay"), None);
        assert_eq!(classify(""), None);
    }

    #[test]
    fn every_generated_phrase_classifies_consistently() {
        for p in CONGESTION_PHRASES {
            assert_eq!(classify(p), Some(true), "{p}");
        }
        for p in CLEAR_PHRASES {
            assert_eq!(classify(p), Some(false), "{p}");
        }
        for p in CHATTER_PHRASES {
            assert_eq!(classify(p), None, "{p}");
        }
    }

    #[test]
    fn generates_sorted_in_window_reports() {
        let (net, field) = setup();
        let reports = generate(&net, &field, &CitizenConfig::default(), 28_800, 3600, 7);
        assert!(!reports.is_empty());
        assert!(reports.windows(2).all(|w| w[0].time <= w[1].time));
        for r in &reports {
            assert!(r.time >= 28_800 && r.time < 32_400);
        }
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let (net, field) = setup();
        let a = generate(&net, &field, &CitizenConfig::default(), 0, 3600, 1);
        let b = generate(&net, &field, &CitizenConfig::default(), 0, 3600, 1);
        assert_eq!(a, b);
        let c = generate(&net, &field, &CitizenConfig::default(), 0, 3600, 2);
        assert_ne!(a, c);
    }

    #[test]
    fn accurate_users_track_ground_truth() {
        let (net, field) = setup();
        let cfg =
            CitizenConfig { n_users: 200, reports_per_hour: 6.0, topicality: 1.0, accuracy: 1.0 };
        // Evening rush: plenty of both congested and clear junctions.
        let reports = generate(&net, &field, &cfg, (17 * 3600) as i64, 3600, 5);
        let mut checked = 0;
        for r in &reports {
            if let Some(claim) = classify(&r.text) {
                let j = net.nearest_junction(r.lon, r.lat).unwrap();
                assert_eq!(claim, field.is_congested(j, r.time), "text: {}", r.text);
                checked += 1;
            }
        }
        assert!(checked > 50);
    }
}
