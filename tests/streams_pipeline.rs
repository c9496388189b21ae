//! Integration: the Streams middleware carrying scenario SDEs through the
//! §3 Dublin topology — the stream processing component end to end.

use insight_repro::core::pipeline::{build_pipeline_with, PipelineOptions};
use insight_repro::datagen::scenario::{Scenario, ScenarioConfig};
use insight_repro::rtec::window::WindowConfig;
use insight_repro::streams::runtime::Runtime;
use insight_repro::traffic::TrafficRulesConfig;

#[test]
fn full_streams_pipeline_over_scenario() {
    let scenario = Scenario::generate(ScenarioConfig::small(1500, 31)).unwrap();
    let window = WindowConfig::new(600, 300).unwrap();
    let options = PipelineOptions::default();
    let (topology, sink) =
        build_pipeline_with(&scenario, TrafficRulesConfig::default(), window, &options).unwrap();
    let stats = Runtime::new(topology).run().unwrap();

    // The bus feed forwarded every bus SDE into the shared `sde` queue.
    let bus_records = scenario.sdes.iter().filter(|s| s.is_bus()).count();
    assert_eq!(stats.per_process["bus-feed"].0 as usize, bus_records);
    assert!(!sink.items().is_empty());
}
