//! Chaos run: the §3 Streams topology over a synthetic Dublin scenario with
//! deterministic fault injection — 5% of SDE items corrupted at the source,
//! plus drops and out-of-order delivery — executed under supervision
//! policies (`Skip` on the region engines, `DeadLetter` on the crowd
//! stage). The run must complete with a non-empty recognition report and
//! zero process aborts; the example exits non-zero otherwise, so CI can use
//! it as a smoke test.
//!
//! ```sh
//! cargo run --release --example chaos_run
//! ```

use insight_repro::core::pipeline::{build_pipeline_with, PipelineOptions};
use insight_repro::core::system::FaultReport;
use insight_repro::datagen::scenario::{Scenario, ScenarioConfig};
use insight_repro::rtec::window::WindowConfig;
use insight_repro::streams::chaos::{ChaosConfig, ChaosStats};
use insight_repro::streams::runtime::Runtime;
use insight_repro::traffic::{NoisyVariant, TrafficRulesConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A 45-minute rush-hour scenario with some of the fleet mis-reporting,
    // so every stage — including crowdsourcing — sees traffic.
    let mut cfg = ScenarioConfig::small(2700, 42);
    cfg.fleet.faulty_fraction = 0.25;
    cfg.fleet.n_buses = 32;
    let scenario = Scenario::generate(cfg)?;
    println!(
        "scenario: {} SDEs, {} buses, {} SCATS sensors",
        scenario.sdes.len(),
        scenario.fleet.buses.len(),
        scenario.scats.len()
    );

    // The acceptance bar: 5% corruption plus drops and reordering.
    let chaos = ChaosConfig {
        corrupt_rate: 0.05,
        drop_rate: 0.02,
        duplicate_rate: 0.01,
        delay_rate: 0.02,
        ..ChaosConfig::new(1)
    };
    println!(
        "chaos: corrupt {:.0}%, drop {:.0}%, duplicate {:.0}%, delay {:.0}% (seed {})",
        chaos.corrupt_rate * 100.0,
        chaos.drop_rate * 100.0,
        chaos.duplicate_rate * 100.0,
        chaos.delay_rate * 100.0,
        chaos.seed
    );

    let window = WindowConfig::new(600, 300)?;
    let rules = TrafficRulesConfig::self_adaptive(NoisyVariant::CrowdValidated);
    let options = PipelineOptions { chaos: Some(chaos), ..PipelineOptions::default() };
    let (topology, sink) = build_pipeline_with(&scenario, rules, window, &options)?;
    let dead_letters = topology.dead_letters();
    // The builder registers each wrapped source's counters as `chaos.<source>`.
    let mut chaos_stats = Vec::new();
    for name in topology.services().names() {
        if let Some(source) = name.strip_prefix("chaos.") {
            let stats = topology.services().get::<ChaosStats>(&name)?;
            chaos_stats.push((source.to_string(), stats));
        }
    }

    let runtime = Runtime::new(topology);
    let metrics = runtime.metrics();
    let stats = runtime.run()?; // supervised: injected faults must not abort

    println!("\n=== injected chaos per source ===");
    for (source, s) in &chaos_stats {
        println!(
            "{source:>12}: dropped {}, duplicated {}, delayed {}, corrupted {}",
            s.dropped.get(),
            s.duplicated.get(),
            s.delayed.get(),
            s.corrupted.get()
        );
    }

    let snapshot = metrics.snapshot();
    let faults = FaultReport::from_snapshot(&snapshot);
    println!("\n=== fault report ===\n{faults}");
    println!("dead-letter records: {}", dead_letters.len());

    println!(
        "\npipeline done: {} recognition summaries ({} items consumed, {} emitted)",
        sink.len(),
        stats.total_consumed(),
        stats.total_emitted()
    );

    // Smoke-test assertions for CI: the Dublin report is non-empty despite
    // the injected faults, and corruption was actually exercised.
    let corrupted: u64 = chaos_stats.iter().map(|(_, s)| s.corrupted.get()).sum();
    assert!(corrupted > 0, "chaos harness injected no corruption");
    assert!(!sink.is_empty(), "no recognition summaries despite supervision");
    assert!(faults.malformed_sdes > 0, "corrupted SDEs should be counted as malformed");
    println!("\nOK: non-empty recognition report under 5% corruption, zero aborts");
    Ok(())
}
