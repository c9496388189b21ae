//! Integration: the Streams middleware carrying scenario SDEs, including an
//! XML-configured topology — the §3 stream processing component end to end.

use insight_repro::core::items::{item_to_sde, sde_to_item};
use insight_repro::core::pipeline::{build_pipeline_with, PipelineOptions};
use insight_repro::datagen::scenario::{Scenario, ScenarioConfig};
use insight_repro::rtec::window::WindowConfig;
use insight_repro::streams::item::DataItem;
use insight_repro::streams::processor::default_factories;
use insight_repro::streams::runtime::Runtime;
use insight_repro::streams::sink::{CollectSink, Sink};
use insight_repro::streams::source::VecSource;
use insight_repro::streams::topology::Topology;
use insight_repro::streams::xml::compile_into;
use insight_repro::traffic::TrafficRulesConfig;
use std::collections::HashMap;

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

#[test]
fn xml_topology_routes_scenario_items() {
    // An XML-declared topology splitting bus from SCATS records.
    let scenario = Scenario::generate(ScenarioConfig::small(900, 32)).unwrap();
    let items: Vec<DataItem> = scenario.sdes.iter().map(sde_to_item).collect();
    let n_bus = scenario.sdes.iter().filter(|s| s.is_bus()).count();

    let doc = r#"
        <container>
            <queue id="buses" capacity="2048"/>
            <process id="filter-bus" input="stream:sde" output="queue:buses">
                <processor class="FilterEquals" key="kind" value="bus"/>
            </process>
            <process id="collect" input="queue:buses" output="sink:out"/>
        </container>
    "#;
    let mut topology = Topology::new();
    topology.add_source("sde", VecSource::new(items));
    let out = CollectSink::shared();
    let mut sinks: HashMap<String, Box<dyn Sink>> = HashMap::new();
    sinks.insert("out".into(), Box::new(out.clone()));
    compile_into(&mut topology, doc, &default_factories(), &mut sinks).unwrap();
    Runtime::new(topology).run().unwrap();

    assert_eq!(out.len(), n_bus);
    // Items survive the trip intact.
    for item in out.items().iter().take(20) {
        let sde = item_to_sde(item).expect("items parse back into SDEs");
        assert!(sde.is_bus());
    }
}
