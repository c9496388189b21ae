//! The traffic-modelling component as a Streams service.
//!
//! "The procedure for making congestion estimates at locations with low
//! sensor coverage is wrapped as a Streams service" (§3). The service keeps
//! the street graph, ingests aggregated SCATS readings (and, per §6, any
//! other source of located congestion information — including crowd
//! verdicts), and on demand fits the GP of §6 to produce flow estimates at
//! unobserved junctions.

use insight_datagen::network::StreetNetwork;
use insight_gp::graph::Graph;
use insight_gp::kernel::RegularizedLaplacian;
use insight_gp::regression::{GpRegression, Posterior};
use insight_gp::GpError;
use insight_streams::service::Service;
use std::collections::HashMap;
use std::sync::Mutex;

/// Converts a generated street network into a GP graph.
pub(crate) fn to_gp_graph(network: &StreetNetwork) -> Graph {
    Graph::new(network.junctions().to_vec(), network.segments())
        .expect("street network is a valid graph")
}

/// The traffic-modelling service.
pub struct TrafficModelService {
    graph: Graph,
    kernel: RegularizedLaplacian,
    noise_variance: f64,
    /// Latest reading per junction (vertex -> flow).
    readings: Mutex<HashMap<usize, f64>>,
}

impl Service for TrafficModelService {}

impl TrafficModelService {
    /// Builds the service over a street network with the given kernel
    /// hyperparameters.
    pub(crate) fn new(
        network: &StreetNetwork,
        kernel: RegularizedLaplacian,
        noise_variance: f64,
    ) -> TrafficModelService {
        TrafficModelService {
            graph: to_gp_graph(network),
            kernel,
            noise_variance,
            readings: Mutex::new(HashMap::new()),
        }
    }

    /// Records a flow observation at the junction nearest to `(lon, lat)` —
    /// a SCATS reading or any other located information (e.g. a crowd
    /// verdict mapped to a nominal flow).
    pub(crate) fn observe(&self, lon: f64, lat: f64, flow: f64) {
        if let Some(v) = self.graph.nearest_vertex(lon, lat) {
            self.readings.lock().unwrap().insert(v, flow);
        }
    }

    /// Number of junctions currently observed.
    pub(crate) fn observed_count(&self) -> usize {
        self.readings.lock().unwrap().len()
    }

    /// Fits the GP on the current readings and predicts flow at every
    /// unobserved junction.
    pub(crate) fn estimate_unobserved(&self) -> Result<Posterior, GpError> {
        let observations: Vec<(usize, f64)> =
            self.readings.lock().unwrap().iter().map(|(&v, &f)| (v, f)).collect();
        let gp =
            GpRegression::fit(&self.graph, &self.kernel, &observations, self.noise_variance, true)?;
        gp.predict_unobserved()
    }

    /// Fits the GP and predicts at every junction (for map rendering).
    pub(crate) fn estimate_all(&self) -> Result<Posterior, GpError> {
        let observations: Vec<(usize, f64)> =
            self.readings.lock().unwrap().iter().map(|(&v, &f)| (v, f)).collect();
        let gp =
            GpRegression::fit(&self.graph, &self.kernel, &observations, self.noise_variance, true)?;
        gp.predict_all()
    }

    /// The underlying GP graph.
    pub fn graph(&self) -> &Graph {
        &self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insight_datagen::network::NetworkConfig;

    fn service() -> (StreetNetwork, TrafficModelService) {
        let net = StreetNetwork::generate(
            &NetworkConfig { nx: 8, ny: 6, ..NetworkConfig::dublin_default() },
            11,
        )
        .unwrap();
        let svc = TrafficModelService::new(&net, RegularizedLaplacian::new(3.0, 1.0).unwrap(), 0.1);
        (net, svc)
    }

    #[test]
    fn graph_conversion_preserves_structure() {
        let (net, svc) = service();
        assert_eq!(svc.graph().len(), net.len());
        assert_eq!(
            (0..net.len()).map(|v| svc.graph().degree(v)).sum::<usize>() / 2,
            net.segments().len()
        );
        assert!(svc.graph().is_connected());
    }

    #[test]
    fn observe_maps_to_nearest_junction() {
        let (net, svc) = service();
        let (lon, lat) = net.coords(5);
        svc.observe(lon, lat, 1200.0);
        assert_eq!(svc.observed_count(), 1);
        // Observing the same location twice replaces, not duplicates.
        svc.observe(lon, lat, 1100.0);
        assert_eq!(svc.observed_count(), 1);
    }

    #[test]
    fn estimates_cover_unobserved_junctions() {
        let (net, svc) = service();
        for v in (0..net.len()).step_by(3) {
            let (lon, lat) = net.coords(v);
            svc.observe(lon, lat, 900.0 + v as f64);
        }
        let posterior = svc.estimate_unobserved().unwrap();
        assert_eq!(posterior.targets.len(), net.len() - svc.observed_count());
        assert!(posterior.mean.iter().all(|m| m.is_finite()));
        let all = svc.estimate_all().unwrap();
        assert_eq!(all.targets.len(), net.len());
    }

    #[test]
    fn no_observations_is_an_error() {
        let (_, svc) = service();
        assert!(svc.estimate_unobserved().is_err());
    }
}
