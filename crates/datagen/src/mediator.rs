//! The mediator layer: the source of SDE veracity problems.
//!
//! "Sensor data may go through multiple mediators en route to our systems.
//! Such mediators apply filtering and aggregation mechanisms, most of which
//! are unknown to the system that receives the data" (§1). The simulated
//! mediator assigns each record a *delivery delay* (exercising the
//! late-arrival amendment of Figure 2), drops a fraction of records, and can
//! thin streams by forwarding only every k-th record of a source
//! (aggregation-style filtering).

use crate::error::DatagenError;
use crate::stream::Sde;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Mediator behaviour configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct MediatorConfig {
    /// Maximum delivery delay in seconds (uniform `0..=max`).
    pub max_delay_s: i64,
    /// Probability a record is silently dropped.
    pub drop_probability: f64,
    /// Forward only every k-th record per source (1 = all).
    pub thinning: usize,
}

impl MediatorConfig {
    /// A transparent mediator: no delay, no loss.
    pub fn transparent() -> MediatorConfig {
        MediatorConfig { max_delay_s: 0, drop_probability: 0.0, thinning: 1 }
    }

    /// The default lossy mediator used by the Dublin preset.
    pub(crate) fn default_lossy() -> MediatorConfig {
        MediatorConfig { max_delay_s: 45, drop_probability: 0.01, thinning: 1 }
    }

    fn validate(&self) -> Result<(), DatagenError> {
        if self.max_delay_s < 0 {
            return Err(DatagenError::InvalidConfig {
                name: "max_delay_s",
                detail: "must be non-negative".into(),
            });
        }
        if !(0.0..=1.0).contains(&self.drop_probability) {
            return Err(DatagenError::InvalidConfig {
                name: "drop_probability",
                detail: format!("must be in [0,1], got {}", self.drop_probability),
            });
        }
        if self.thinning == 0 {
            return Err(DatagenError::InvalidConfig {
                name: "thinning",
                detail: "must be at least 1".into(),
            });
        }
        Ok(())
    }
}

/// Applies the mediator to a time-sorted record stream: assigns arrival
/// times, drops and thins. The output is sorted by **arrival** time — the
/// order in which the system actually receives the SDEs.
pub fn mediate(
    records: Vec<Sde>,
    config: &MediatorConfig,
    seed: u64,
) -> Result<Vec<Sde>, DatagenError> {
    config.validate()?;
    let mut rng = StdRng::seed_from_u64(seed ^ 0x3ed1_a70f);
    let mut out = Vec::with_capacity(records.len());
    for (i, mut sde) in records.into_iter().enumerate() {
        if config.thinning > 1 && i % config.thinning != 0 {
            continue;
        }
        if config.drop_probability > 0.0 && rng.random::<f64>() < config.drop_probability {
            continue;
        }
        let delay =
            if config.max_delay_s > 0 { rng.random_range(0..=config.max_delay_s) } else { 0 };
        sde.arrival = sde.time + delay;
        out.push(sde);
    }
    out.sort_by_key(|s| (s.arrival, s.time));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stream::{BusRecord, SdeBody};

    fn records(n: i64) -> Vec<Sde> {
        (0..n)
            .map(|t| {
                Sde::punctual(
                    t * 10,
                    SdeBody::Bus(BusRecord {
                        bus: 1,
                        line: 0,
                        operator: 0,
                        delay_s: 0,
                        lon: -6.26,
                        lat: 53.35,
                        direction: 0,
                        congestion: false,
                    }),
                )
            })
            .collect()
    }

    #[test]
    fn transparent_mediator_is_identity_ordering() {
        let out = mediate(records(50), &MediatorConfig::transparent(), 1).unwrap();
        assert_eq!(out.len(), 50);
        for s in &out {
            assert_eq!(s.arrival, s.time);
        }
    }

    #[test]
    fn delays_bound_and_reorder_by_arrival() {
        let cfg = MediatorConfig { max_delay_s: 100, drop_probability: 0.0, thinning: 1 };
        let out = mediate(records(200), &cfg, 2).unwrap();
        assert_eq!(out.len(), 200);
        for s in &out {
            assert!(s.arrival >= s.time && s.arrival <= s.time + 100);
        }
        assert!(out.windows(2).all(|w| w[0].arrival <= w[1].arrival), "sorted by arrival");
        // With delays up to 100s over 10s spacing, some records must arrive
        // out of occurrence order.
        let occurrence_sorted = out.windows(2).all(|w| w[0].time <= w[1].time);
        assert!(!occurrence_sorted, "delays should reorder occurrences");
    }

    #[test]
    fn dropping_loses_records() {
        let cfg = MediatorConfig { max_delay_s: 0, drop_probability: 0.3, thinning: 1 };
        let out = mediate(records(1000), &cfg, 3).unwrap();
        assert!(out.len() < 1000 && out.len() > 500, "got {}", out.len());
    }

    #[test]
    fn thinning_keeps_every_kth() {
        let cfg = MediatorConfig { max_delay_s: 0, drop_probability: 0.0, thinning: 4 };
        let out = mediate(records(100), &cfg, 4).unwrap();
        assert_eq!(out.len(), 25);
    }

    #[test]
    fn validation() {
        assert!(mediate(
            records(1),
            &MediatorConfig { max_delay_s: -1, drop_probability: 0.0, thinning: 1 },
            1
        )
        .is_err());
        assert!(mediate(
            records(1),
            &MediatorConfig { max_delay_s: 0, drop_probability: 1.5, thinning: 1 },
            1
        )
        .is_err());
        assert!(mediate(
            records(1),
            &MediatorConfig { max_delay_s: 0, drop_probability: 0.0, thinning: 0 },
            1
        )
        .is_err());
    }

    #[test]
    fn deterministic() {
        let cfg = MediatorConfig { max_delay_s: 30, drop_probability: 0.1, thinning: 1 };
        let a = mediate(records(100), &cfg, 9).unwrap();
        let b = mediate(records(100), &cfg, 9).unwrap();
        assert_eq!(a, b);
    }
}
