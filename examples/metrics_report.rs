//! Observability report: run the §3 Streams topology over a synthetic Dublin
//! rush-hour scenario and print what the metrics layer saw — per-stage
//! throughput and process latency, how many items the crowd stage's order
//! gate ever held behind a frontier, queue depths and backpressure stalls
//! (the queues inside the sharded RTEC stage carry data only), RTEC
//! per-window query latencies and counted solver work, crowd resolution
//! counters — first as human-readable tables, then as the JSON snapshot.
//!
//! ```sh
//! cargo run --release --example metrics_report
//! ```

use insight_repro::core::pipeline::{build_pipeline_with, PipelineOptions};
use insight_repro::datagen::scenario::{Scenario, ScenarioConfig};
use insight_repro::rtec::window::WindowConfig;
use insight_repro::streams::runtime::Runtime;
use insight_repro::traffic::{NoisyVariant, TrafficRulesConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 45-minute scenario with a quarter of the bus fleet mis-reporting,
    // so the crowdsourcing stage has disagreements to resolve.
    let mut cfg = ScenarioConfig::small(2700, 42);
    cfg.fleet.faulty_fraction = 0.25;
    cfg.fleet.n_buses = 32;
    let scenario = Scenario::generate(cfg)?;
    let (start, end) = scenario.window();
    println!(
        "scenario: {} SDEs over {} s, {} buses, {} SCATS sensors",
        scenario.sdes.len(),
        end - start,
        scenario.fleet.buses.len(),
        scenario.scats.len()
    );

    // Rule-set (4): buses stay trusted until the crowd sides with SCATS,
    // which is what lets sourceDisagreement CEs reach the crowd stage.
    let window = WindowConfig::new(600, 300)?;
    let rules = TrafficRulesConfig::self_adaptive(NoisyVariant::CrowdValidated);
    let (topology, sink) =
        build_pipeline_with(&scenario, rules, window, &PipelineOptions::default())?;

    // The runtime owns a metrics registry; grab a handle before `run`
    // consumes it. Every stage, queue, and the RTEC/crowd processors
    // report into it.
    let runtime = Runtime::new(topology);
    let metrics = runtime.metrics();
    let stats = runtime.run()?;

    println!(
        "\npipeline done: {} recognition summaries collected \
         ({} items consumed, {} emitted across all stages)",
        sink.len(),
        stats.total_consumed(),
        stats.total_emitted()
    );

    let snapshot = metrics.snapshot();
    println!("\n{}", snapshot.render_table());

    // What the RTEC solver and the window stores did, counted rather than
    // timed: the same numbers on every run of this scenario, on any host.
    // `admitted` is every input fact written into a store (once per fact),
    // `amended` those that came late but inside the working memory, `lost`
    // those that came later than that and were dropped unseen.
    println!(
        "{:<16} {:>8} {:>12} {:>11} {:>9} {:>8} {:>6} {:>8}",
        "rtec region",
        "windows",
        "solver steps",
        "candidates",
        "admitted",
        "amended",
        "lost",
        "derived"
    );
    for (name, windows) in &snapshot.histograms {
        let Some(region) = name.strip_prefix("rtec.").and_then(|n| n.strip_suffix(".window_ns"))
        else {
            continue;
        };
        let counter = |what: &str| {
            snapshot.counters.get(&format!("rtec.{region}.{what}")).copied().unwrap_or(0)
        };
        println!(
            "{region:<16} {:>8} {:>12} {:>11} {:>9} {:>8} {:>6} {:>8}",
            windows.count,
            counter("solver_steps"),
            counter("candidates"),
            counter("facts_admitted"),
            counter("sdes_amended"),
            counter("sdes_lost"),
            counter("derived_written")
        );
    }
    println!();

    println!("=== JSON snapshot ===");
    println!("{}", snapshot.to_json());
    Ok(())
}
