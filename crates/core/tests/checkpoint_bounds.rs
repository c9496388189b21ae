//! Checkpoint memory stays bounded as the trace grows: the benchmark's
//! Dublin trace, at four lengths, through the §3 topology with a barrier
//! every 1 000 items on each recovering RTEC replica. At every barrier each
//! replica's checkpoint — a base and the deltas written since — holds at
//! most two full snapshots (the chain never passes its base), the replay
//! log it truncates held one cadence of items, and the largest checkpoint
//! does not grow with the trace.

use insight_core::pipeline::{build_pipeline_with, PipelineOptions};
use insight_datagen::mediator::{mediate, MediatorConfig};
use insight_datagen::scenario::{Scenario, ScenarioConfig};
use insight_rtec::window::WindowConfig;
use insight_streams::replay::ReplayRuntime;
use insight_streams::testing::watch_barriers;
use insight_traffic::config::{NoisyVariant, TrafficRulesConfig};

const CADENCE: usize = 1000;

/// The trace `benchmark/` runs: the Dublin preset's city and traffic day
/// drawn from seed 2013 with a quarter of the fleet faulty, the mediator's
/// losses and delays drawn from seed 42.
fn dublin_trace(duration: i64) -> Scenario {
    let mut config = ScenarioConfig::dublin_jan_2013(duration, 2013);
    config.fleet.faulty_fraction = 0.25;
    let mediator = std::mem::replace(&mut config.mediator, MediatorConfig::transparent());
    let mut scenario = Scenario::generate(config).expect("scenario generates");
    scenario.sdes = mediate(std::mem::take(&mut scenario.sdes), &mediator, 42).expect("mediates");
    scenario
}

#[test]
fn checkpoints_hold_at_most_two_snapshots_and_the_log_one_cadence() {
    let rules = TrafficRulesConfig::self_adaptive(NoisyVariant::CrowdValidated);
    let window = WindowConfig::new(600, 60).expect("valid window");
    // Per trace length: barriers, the largest checkpoint, the largest full
    // snapshot, and the largest ratio of a checkpoint to a full snapshot
    // taken at the same barrier.
    let mut runs = Vec::new();
    for duration in [900, 1200, 1500, 1800] {
        let scenario = dublin_trace(duration);
        let options = PipelineOptions::recovering(CADENCE, 2);
        let (mut topology, _sink) =
            build_pipeline_with(&scenario, rules.clone(), window, &options).expect("topology");
        let watch = watch_barriers(&mut topology, "rtec");
        ReplayRuntime::new(topology, 7).run().expect("run");
        let barriers = watch.barriers();
        assert!(barriers.len() >= 4, "{duration} s: {} barriers", barriers.len());
        let (mut chained, mut largest, mut largest_full, mut ratio) = (0, 0, 0, 0f64);
        for b in &barriers {
            assert_eq!(b.replay_log, CADENCE, "{duration} s: {b:?}");
            for s in &b.slots {
                assert!(s.deltas <= s.base, "{duration} s: the chain passed its base: {b:?}");
                chained += usize::from(s.deltas > 0);
                largest = largest.max(s.base + s.deltas);
                largest_full = largest_full.max(s.full);
                ratio = ratio.max((s.base + s.deltas) as f64 / s.full as f64);
            }
        }
        assert!(chained > 0, "{duration} s: no barrier kept a delta");
        runs.push((duration, barriers.len(), largest, largest_full, ratio));
    }
    eprintln!("(trace s, barriers, largest checkpoint B, largest full B, max ratio): {runs:?}");
    let (first, last) = (runs[0], runs[runs.len() - 1]);
    assert!(last.1 > first.1 && last.2 < 2 * first.2, "{runs:?}");
    for run in &runs {
        assert!(run.2 <= 2 * run.3, "a checkpoint outgrew two full snapshots: {runs:?}");
    }
}
