//! The mobile-network latency model behind Figure 6.
//!
//! The paper measures three steps of the query execution engine per
//! connection type:
//!
//! | step | 2G | 3G | WiFi |
//! |---|---|---|---|
//! | trigger task (server-side) | 38–55 ms, network-independent | | |
//! | send push notification | 467 ms | 169 ms | 184 ms |
//! | communication (retrieve task + send answer) | 423 ms | 171 ms | 182 ms |
//!
//! The simulator samples each step around those means with multiplicative
//! jitter, reproducing the measured shape: 2G roughly 2.5× slower than
//! 3G/WiFi on the two communication steps, end-to-end below one second.

use rand::Rng;

/// Mobile connection type of a worker's device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ConnectionType {
    /// 2G (GPRS/EDGE).
    TwoG,
    /// 3G (UMTS/HSPA).
    ThreeG,
    /// WiFi.
    WiFi,
}

impl ConnectionType {
    /// All connection types, in the paper's presentation order.
    pub const ALL: [ConnectionType; 3] =
        [ConnectionType::TwoG, ConnectionType::ThreeG, ConnectionType::WiFi];

    /// Display name matching the paper's figure labels.
    pub fn name(&self) -> &'static str {
        match self {
            ConnectionType::TwoG => "2G",
            ConnectionType::ThreeG => "3G",
            ConnectionType::WiFi => "WiFi",
        }
    }
}

/// Latencies of the three engine steps for one task execution, in
/// milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StepLatency {
    /// Worker selection + task assignment inside the engine.
    pub trigger_ms: f64,
    /// Push notification via the GCM-style service.
    pub push_ms: f64,
    /// Task retrieval + answer transmission.
    pub comm_ms: f64,
}

impl StepLatency {
    /// End-to-end latency (excluding human thinking time, which the paper
    /// excludes as well).
    pub fn total_ms(&self) -> f64 {
        self.trigger_ms + self.push_ms + self.comm_ms
    }
}

/// Parameterised sampler for step latencies.
#[derive(Debug, Clone)]
pub struct LatencyModel {
    /// Trigger-step range (uniform), network independent.
    pub trigger_range_ms: (f64, f64),
    /// Mean push latency per connection type `(2G, 3G, WiFi)`.
    pub push_mean_ms: (f64, f64, f64),
    /// Mean communication latency per connection type `(2G, 3G, WiFi)`.
    pub comm_mean_ms: (f64, f64, f64),
    /// Multiplicative jitter: each sample is `mean · U(1−j, 1+j)`.
    pub jitter: f64,
}

impl Default for LatencyModel {
    fn default() -> LatencyModel {
        LatencyModel {
            trigger_range_ms: (38.0, 55.0),
            push_mean_ms: (467.0, 169.0, 184.0),
            comm_mean_ms: (423.0, 171.0, 182.0),
            jitter: 0.15,
        }
    }
}

impl LatencyModel {
    fn pick(tuple: (f64, f64, f64), c: ConnectionType) -> f64 {
        match c {
            ConnectionType::TwoG => tuple.0,
            ConnectionType::ThreeG => tuple.1,
            ConnectionType::WiFi => tuple.2,
        }
    }

    /// Mean push latency for a connection type.
    pub(crate) fn push_mean(&self, c: ConnectionType) -> f64 {
        Self::pick(self.push_mean_ms, c)
    }

    /// Mean communication latency for a connection type.
    pub(crate) fn comm_mean(&self, c: ConnectionType) -> f64 {
        Self::pick(self.comm_mean_ms, c)
    }

    /// Expected (mean) end-to-end network latency for a connection type:
    /// trigger-range midpoint + mean push + mean communication. Used to rank
    /// workers by speed without sampling.
    pub(crate) fn expected_total_ms(&self, c: ConnectionType) -> f64 {
        let trigger = (self.trigger_range_ms.0 + self.trigger_range_ms.1) / 2.0;
        trigger + self.push_mean(c) + self.comm_mean(c)
    }

    /// Samples the three steps for one task execution.
    pub(crate) fn sample<R: Rng + ?Sized>(
        &self,
        connection: ConnectionType,
        rng: &mut R,
    ) -> StepLatency {
        let jitter = |mean: f64, rng: &mut R| -> f64 {
            mean * rng.random_range(1.0 - self.jitter..1.0 + self.jitter)
        };
        StepLatency {
            trigger_ms: rng.random_range(self.trigger_range_ms.0..=self.trigger_range_ms.1),
            push_ms: jitter(self.push_mean(connection), rng),
            comm_ms: jitter(self.comm_mean(connection), rng),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn names() {
        assert_eq!(ConnectionType::TwoG.name(), "2G");
        assert_eq!(ConnectionType::ALL.len(), 3);
    }

    #[test]
    fn samples_track_paper_means() {
        let model = LatencyModel::default();
        let mut rng = StdRng::seed_from_u64(5);
        for c in ConnectionType::ALL {
            let n = 2000;
            let mut push_sum = 0.0;
            let mut comm_sum = 0.0;
            let mut trig_sum = 0.0;
            for _ in 0..n {
                let s = model.sample(c, &mut rng);
                push_sum += s.push_ms;
                comm_sum += s.comm_ms;
                trig_sum += s.trigger_ms;
                assert!(s.total_ms() < 1200.0, "end-to-end below ~1s even on 2G");
            }
            let push_avg = push_sum / n as f64;
            let comm_avg = comm_sum / n as f64;
            let trig_avg = trig_sum / n as f64;
            assert!((push_avg - model.push_mean(c)).abs() / model.push_mean(c) < 0.05);
            assert!((comm_avg - model.comm_mean(c)).abs() / model.comm_mean(c) < 0.05);
            assert!((38.0..=55.0).contains(&trig_avg));
        }
    }

    #[test]
    fn two_g_is_slowest_shape() {
        let model = LatencyModel::default();
        assert!(
            model.push_mean(ConnectionType::TwoG) > 2.0 * model.push_mean(ConnectionType::ThreeG)
        );
        assert!(
            model.comm_mean(ConnectionType::TwoG) > 2.0 * model.comm_mean(ConnectionType::WiFi)
        );
    }

    #[test]
    fn total_sums_steps() {
        let s = StepLatency { trigger_ms: 40.0, push_ms: 170.0, comm_ms: 180.0 };
        assert!((s.total_ms() - 390.0).abs() < 1e-12);
    }
}
