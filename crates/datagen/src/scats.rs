//! SCATS sensor deployment and readings.
//!
//! 966 vehicle detectors are installed at a subset of intersections
//! (weighted towards the centre, as in Dublin), several per intersection —
//! one per approach. Every six minutes each sensor reports density and flow
//! derived from the ground-truth field through the fundamental diagram,
//! with a small multiplicative measurement noise.

use crate::congestion::CongestionField;
use crate::error::DatagenError;
use crate::network::{distance_m, StreetNetwork};
use crate::regions::{Region, CITY_CENTRE};
use crate::stream::ScatsRecord;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One deployed sensor.
#[derive(Debug, Clone, PartialEq)]
pub struct ScatsSensor {
    /// Sensor id (unique across the deployment).
    pub id: u32,
    /// Owning intersection id.
    pub intersection: u32,
    /// Approach index within the intersection.
    pub approach: u8,
    /// The junction the sensor sits at.
    pub junction: usize,
}

/// One instrumented intersection.
#[derive(Debug, Clone, PartialEq)]
pub struct ScatsIntersection {
    /// Intersection id.
    pub id: u32,
    /// The junction index in the street network.
    pub junction: usize,
    /// Longitude.
    pub lon: f64,
    /// Latitude.
    pub lat: f64,
    /// Ids of the sensors mounted on this intersection's approaches.
    pub sensors: Vec<u32>,
    /// The SCATS region.
    pub region: Region,
}

/// The full deployment.
#[derive(Debug, Clone)]
pub struct ScatsDeployment {
    intersections: Vec<ScatsIntersection>,
    sensors: Vec<ScatsSensor>,
    /// Per-reading multiplicative noise half-width (e.g. 0.05 = ±5 %).
    pub measurement_noise: f64,
}

impl ScatsDeployment {
    /// Places `n_sensors` detectors on intersections sampled with
    /// centre-weighted probability; each chosen intersection receives 1–4
    /// sensors (its approaches, bounded by its degree).
    pub fn place(
        network: &StreetNetwork,
        n_sensors: usize,
        measurement_noise: f64,
        seed: u64,
    ) -> Result<ScatsDeployment, DatagenError> {
        if n_sensors == 0 {
            return Err(DatagenError::InvalidConfig {
                name: "n_sensors",
                detail: "need at least one sensor".into(),
            });
        }
        if !(0.0..=0.5).contains(&measurement_noise) {
            return Err(DatagenError::InvalidConfig {
                name: "measurement_noise",
                detail: format!("must be in [0, 0.5], got {measurement_noise}"),
            });
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5ca7_5000);

        // Centre-weighted sampling without replacement.
        // Strong centre weighting: Dublin's SCATS coverage is densest in
        // the inner city, and the congested core must be instrumented for
        // the congestion CEs to have anything to detect.
        let mut weights: Vec<f64> = network
            .junctions()
            .iter()
            .map(|&(lon, lat)| (-distance_m((lon, lat), CITY_CENTRE) / 2000.0).exp() + 0.02)
            .collect();

        let mut intersections: Vec<ScatsIntersection> = Vec::new();
        let mut sensors: Vec<ScatsSensor> = Vec::new();

        fn instrument(
            network: &StreetNetwork,
            junction: usize,
            n_sensors: usize,
            rng: &mut StdRng,
            intersections: &mut Vec<ScatsIntersection>,
            sensors: &mut Vec<ScatsSensor>,
        ) {
            let next_int = intersections.len() as u32;
            let degree = network.neighbours(junction).len().max(1);
            let remaining = n_sensors - sensors.len();
            let approaches = rng.random_range(1..=degree.min(4)).min(remaining);
            let (lon, lat) = network.coords(junction);
            let mut ids = Vec::with_capacity(approaches);
            for a in 0..approaches {
                let id = sensors.len() as u32;
                sensors.push(ScatsSensor {
                    id,
                    intersection: next_int,
                    approach: a as u8,
                    junction,
                });
                ids.push(id);
            }
            intersections.push(ScatsIntersection {
                id: next_int,
                junction,
                lon,
                lat,
                sensors: ids,
                region: Region::of(lon, lat),
            });
        }

        // Phase 1 — the inner city is always instrumented: the junctions
        // nearest the centre receive sensors first (~30 % of the budget), as
        // in the real deployment where the core is fully covered.
        let mut by_distance: Vec<usize> = (0..network.len()).collect();
        by_distance.sort_by(|&a, &b| {
            distance_m(network.coords(a), CITY_CENTRE)
                .total_cmp(&distance_m(network.coords(b), CITY_CENTRE))
        });
        let core_budget = n_sensors.div_ceil(3);
        for &junction in &by_distance {
            if sensors.len() >= core_budget {
                break;
            }
            weights[junction] = 0.0; // taken
            instrument(network, junction, n_sensors, &mut rng, &mut intersections, &mut sensors);
        }

        // Phase 2 — centre-weighted roulette for the remaining budget.
        while sensors.len() < n_sensors {
            let total: f64 = weights.iter().sum();
            if total <= 0.0 {
                return Err(DatagenError::InvalidConfig {
                    name: "n_sensors",
                    detail: format!(
                        "cannot place {n_sensors} sensors on {} junctions",
                        network.len()
                    ),
                });
            }
            // Roulette-wheel pick.
            let mut r = rng.random_range(0.0..total);
            let mut junction = 0usize;
            for (i, &w) in weights.iter().enumerate() {
                if r < w {
                    junction = i;
                    break;
                }
                r -= w;
            }
            weights[junction] = 0.0; // without replacement
            instrument(network, junction, n_sensors, &mut rng, &mut intersections, &mut sensors);
        }

        Ok(ScatsDeployment { intersections, sensors, measurement_noise })
    }

    /// The instrumented intersections.
    pub fn intersections(&self) -> &[ScatsIntersection] {
        &self.intersections
    }

    /// All sensors.
    pub fn sensors(&self) -> &[ScatsSensor] {
        &self.sensors
    }

    /// Number of sensors.
    pub fn len(&self) -> usize {
        self.sensors.len()
    }

    /// Whether the deployment is empty.
    pub fn is_empty(&self) -> bool {
        self.sensors.is_empty()
    }

    /// Appends the readings of every sensor at reading time `t` to a
    /// caller-owned buffer — the batched ingest form: a sweep over many
    /// ticks reuses one buffer instead of allocating a fresh vector per
    /// tick.
    pub(crate) fn readings_into(
        &self,
        network: &StreetNetwork,
        field: &CongestionField,
        t: i64,
        rng: &mut StdRng,
        out: &mut Vec<ScatsRecord>,
    ) {
        out.reserve(self.sensors.len());
        for s in &self.sensors {
            let noise = |v: f64, rng: &mut StdRng| {
                if self.measurement_noise > 0.0 {
                    v * rng.random_range(1.0 - self.measurement_noise..1.0 + self.measurement_noise)
                } else {
                    v
                }
            };
            let (lon, lat) = network.coords(s.junction);
            out.push(ScatsRecord {
                intersection: s.intersection,
                approach: s.approach,
                sensor: s.id,
                density: noise(field.density(s.junction, t), rng),
                flow: noise(field.flow(s.junction, t), rng),
                lon,
                lat,
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::congestion::CongestionConfig;
    use crate::network::NetworkConfig;

    fn net() -> StreetNetwork {
        StreetNetwork::generate(
            &NetworkConfig { nx: 14, ny: 10, ..NetworkConfig::dublin_default() },
            5,
        )
        .unwrap()
    }

    #[test]
    fn places_exact_sensor_count() {
        let n = net();
        let d = ScatsDeployment::place(&n, 50, 0.05, 1).unwrap();
        assert_eq!(d.len(), 50);
        // Intersections have between 1 and 4 sensors each.
        for i in d.intersections() {
            assert!((1..=4).contains(&i.sensors.len()));
        }
        // Sensor ids are unique and dense.
        let mut ids: Vec<u32> = d.sensors().iter().map(|s| s.id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 50);
    }

    #[test]
    fn deployment_is_deterministic() {
        let n = net();
        let a = ScatsDeployment::place(&n, 30, 0.05, 9).unwrap();
        let b = ScatsDeployment::place(&n, 30, 0.05, 9).unwrap();
        assert_eq!(a.sensors(), b.sensors());
    }

    #[test]
    fn rejects_bad_configs() {
        let n = net();
        assert!(ScatsDeployment::place(&n, 0, 0.05, 1).is_err());
        assert!(ScatsDeployment::place(&n, 10, 0.9, 1).is_err());
        // More sensors than 4 × junctions is impossible.
        assert!(ScatsDeployment::place(&n, n.len() * 5, 0.05, 1).is_err());
    }

    #[test]
    fn readings_follow_the_field() {
        let n = net();
        let field = CongestionField::generate(&n, CongestionConfig::default_for(86_400), 2);
        let d = ScatsDeployment::place(&n, 40, 0.0, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let t = (8.5 * 3600.0) as i64;
        let mut readings = Vec::new();
        d.readings_into(&n, &field, t, &mut rng, &mut readings);
        assert_eq!(readings.len(), 40);
        for (r, s) in readings.iter().zip(d.sensors()) {
            assert!(
                (r.density - field.density(s.junction, t)).abs() < 1e-9,
                "noise-free readings equal field"
            );
            assert!((r.flow - field.flow(s.junction, t)).abs() < 1e-9);
        }
    }

    #[test]
    fn noise_perturbs_but_bounded() {
        let n = net();
        let field = CongestionField::generate(&n, CongestionConfig::default_for(86_400), 2);
        let d = ScatsDeployment::place(&n, 40, 0.05, 3).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let t = 30_000;
        let mut readings = Vec::new();
        d.readings_into(&n, &field, t, &mut rng, &mut readings);
        for (r, s) in readings.iter().zip(d.sensors()) {
            let truth = field.density(s.junction, t);
            assert!((r.density - truth).abs() <= truth * 0.05 + 1e-9);
        }
    }

    #[test]
    fn centre_weighting_prefers_central_intersections() {
        let n = net();
        let d = ScatsDeployment::place(&n, 60, 0.05, 1).unwrap();
        let chosen_central =
            d.intersections().iter().filter(|i| i.region == Region::Central).count() as f64
                / d.intersections().len() as f64;
        let base_central = n
            .junctions()
            .iter()
            .filter(|&&(lon, lat)| Region::of(lon, lat) == Region::Central)
            .count() as f64
            / n.len() as f64;
        // The centre-weighted sampler must over-represent the central disc
        // relative to its share of all junctions.
        assert!(
            chosen_central >= base_central * 2.0,
            "central share {chosen_central:.3} should exceed 2x base share {base_central:.3}"
        );
    }
}
