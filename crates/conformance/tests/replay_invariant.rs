//! Tentpole part 3: the Dublin topology's recognition output must be
//! invariant under the process interleaving.
//!
//! Each seed drives the deterministic replay scheduler
//! (`insight_streams::replay::ReplayRuntime`) through one exact single-
//! threaded interleaving of the §3 topology — feed processes, the sharded
//! RTEC stage and the crowd-EM stage — and the canonical (sorted,
//! wall-clock-stripped) recognition output must be byte-identical across
//! all of them, and across every shard count of the RTEC stage. A failure names the two diverging seeds, which
//! replay the interleavings exactly.

use insight_conformance::seed_offset;
use insight_core::pipeline::PipelineOptions;
use insight_core::testing::{assert_schedule_invariant, replay_recognitions_with};
use insight_datagen::scenario::{Scenario, ScenarioConfig};
use insight_rtec::window::WindowConfig;
use insight_traffic::TrafficRulesConfig;

/// `n` scheduler seeds starting at `CONFORMANCE_SEED * 1000` (0 by default),
/// so each CI seed pin exercises a disjoint family of interleavings.
fn scheduler_seeds(n: u64) -> Vec<u64> {
    let base = seed_offset() * 1000;
    (base..base + n).collect()
}

#[test]
fn dublin_topology_recognitions_are_schedule_invariant() {
    let scenario = Scenario::generate(ScenarioConfig::small(1200, 77)).expect("scenario");
    let window = WindowConfig::new(600, 300).expect("window");
    assert_schedule_invariant(
        &scenario,
        TrafficRulesConfig::default(),
        window,
        &scheduler_seeds(9),
    );
}

#[test]
fn schedule_invariance_holds_with_crowd_resolutions_in_the_loop() {
    // A faulty fleet produces source disagreements, so the crowd stage's
    // order-sensitive resolve path actually runs; rule-set (4) surfaces
    // the disagreements as CEs.
    let mut cfg = ScenarioConfig::small(2400, 91);
    cfg.fleet.faulty_fraction = 0.5;
    cfg.fleet.n_buses = 40;
    let scenario = Scenario::generate(cfg).expect("scenario");
    let window = WindowConfig::new(900, 450).expect("window");
    let rules = TrafficRulesConfig::self_adaptive(insight_traffic::NoisyVariant::CrowdValidated);
    let out = replay_recognitions_with(&scenario, rules.clone(), window, 0, &Default::default())
        .expect("replay runs");
    assert!(
        out.lines().any(|l| l.contains("crowd_verdict_congested")),
        "the crowd stage must have resolved at least one disagreement:\n{out}"
    );
    assert_schedule_invariant(&scenario, rules, window, &scheduler_seeds(8));
}

#[test]
fn recognitions_invariant_in_shard_count_under_replay() {
    // The keyed shard-parallel stages must be pure plumbing: for every
    // scheduler seed, running the same scenario with 1, 2, or 4 replicas of
    // the RTEC stage yields byte-identical canonical output.
    let scenario = Scenario::generate(ScenarioConfig::small(1200, 77)).expect("scenario");
    let window = WindowConfig::new(600, 300).expect("window");
    let rules = TrafficRulesConfig::default();
    for seed in [0, 77, 777] {
        let shapes = [1, 2, 4]
            .map(|rtec_replicas| PipelineOptions { rtec_replicas, ..PipelineOptions::standard() });
        let outputs: Vec<String> = shapes
            .iter()
            .map(|o| {
                replay_recognitions_with(&scenario, rules.clone(), window, seed, o)
                    .expect("replay runs")
            })
            .collect();
        assert!(!outputs[0].is_empty(), "seed {seed} produced recognitions");
        for (o, shape) in outputs.iter().zip(&shapes) {
            assert_eq!(o, &outputs[0], "seed {seed}, shape {shape:?} diverged");
        }
    }
}

#[test]
fn replay_output_matches_threaded_runtime_content() {
    // The replay scheduler is not a parallel implementation to trust
    // separately: its canonical output must equal what the threaded runtime
    // produces for the same scenario.
    use insight_core::pipeline::build_pipeline_with;
    use insight_core::replay::canonical_recognitions;
    use insight_streams::runtime::Runtime;

    let scenario = Scenario::generate(ScenarioConfig::small(900, 42)).expect("scenario");
    let window = WindowConfig::new(300, 300).expect("window");
    let rules = TrafficRulesConfig::static_mode();
    let (topology, sink) =
        build_pipeline_with(&scenario, rules.clone(), window, &PipelineOptions::default())
            .expect("topology");
    Runtime::new(topology).run().expect("threaded run");
    let threaded = canonical_recognitions(&sink.items());
    let replayed = replay_recognitions_with(&scenario, rules, window, 123, &Default::default())
        .expect("replayed run");
    assert_eq!(threaded, replayed, "replay and threaded runtimes recognise identically");
}
