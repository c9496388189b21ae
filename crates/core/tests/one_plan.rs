//! The §3 topology compiles its rule set once.
//!
//! Alone in its test binary on purpose: [`plans_compiled`] is process-wide,
//! so no other test may build an engine while this one counts.

use insight_core::pipeline::{build_pipeline_with, PipelineOptions};
use insight_datagen::scenario::{Scenario, ScenarioConfig};
use insight_rtec::testing::plans_compiled;
use insight_rtec::window::WindowConfig;
use insight_streams::chaos::KillSwitch;
use insight_streams::metrics::MetricsSnapshot;
use insight_streams::runtime::Runtime;
use insight_traffic::TrafficRulesConfig;

/// Builds and runs the Dublin topology; returns how many plans that compiled
/// and the run's metrics.
fn run(scenario: &Scenario, options: &PipelineOptions) -> (u64, MetricsSnapshot) {
    let window = WindowConfig::new(600, 300).unwrap();
    let before = plans_compiled();
    let (topology, sink) =
        build_pipeline_with(scenario, TrafficRulesConfig::default(), window, options).unwrap();
    let runtime = Runtime::new(topology);
    let metrics = runtime.metrics();
    runtime.run().unwrap();
    assert!(!sink.items().is_empty(), "recognition summaries must be produced");
    (plans_compiled() - before, metrics.snapshot())
}

/// Region engines that answered at least one query.
fn engines(snap: &MetricsSnapshot) -> usize {
    snap.histograms.keys().filter(|k| k.starts_with("rtec.") && k.ends_with(".window_ns")).count()
}

/// Every engine runs a compiled plan and only `CompiledPlan::compile` makes
/// one, so one compilation for a whole run means every region engine of
/// every `rtec` replica — and the replica the `Restart` supervisor rebuilt
/// after the kill — evaluates the same `Arc` allocation.
#[test]
fn all_rtec_replicas_and_a_rebuilt_one_share_the_plan_compiled_at_build_time() {
    let scenario = Scenario::generate(ScenarioConfig::small(1200, 77)).unwrap();

    let (compiled, snap) = run(&scenario, &PipelineOptions::default());
    assert!(engines(&snap) > 1, "several region engines ran");
    assert_eq!(compiled, 1, "the default topology compiles its rule set once");

    let switch = KillSwitch::new();
    let options = PipelineOptions {
        kill_rtec_at: Some((40, switch.clone())),
        ..PipelineOptions::recovering(16, 2)
    };
    let (compiled, snap) = run(&scenario, &options);
    assert!(switch.fired(), "the injected kill must actually strike");
    let rtec = snap.rollup_stages().remove("rtec").expect("rtec stage reported");
    assert_eq!(rtec.combined.restores, 1, "exactly one replica was rebuilt and restored");
    assert_eq!(compiled, 1, "the rebuilt replica reuses the plan instead of recompiling");
}
