//! Crash-recovery conformance: a supervised Dublin topology that loses a
//! stateful worker mid-stream must recognise exactly what the kill-free run
//! recognises.
//!
//! Each case injects a deterministic kill (`insight_streams::chaos::KillAt`
//! behind a shared `KillSwitch`) into a stage running under
//! `FaultPolicy::Restart`: the supervisor rebuilds
//! the worker from its factory, restores the latest checkpoint (RTEC engine
//! snapshot, watermarks, EM estimator, held summaries — a finished summary
//! leaves with the call that finished it, so no blob carries pending output)
//! and silently replays the logged suffix, discarding everything the
//! replayed calls emit. The kill point sweeps the whole input range —
//! including item 1, before any checkpoint exists — and every run executes
//! under the deterministic replay scheduler with seeds {0, 77, 777}, for
//! both the plain (1-replica) and the paper's 4-way region-sharded RTEC
//! stage. Recovery is correct iff the canonical recognition output is
//! byte-identical to the kill-free baseline in every combination.

use insight_core::pipeline::{build_pipeline_with, PipelineOptions};
use insight_core::replay::{
    canonical_recognitions, gate_sources_at_scats_report, replay_recognitions_with,
};
use insight_datagen::scenario::{Scenario, ScenarioConfig};
use insight_rtec::window::WindowConfig;
use insight_streams::chaos::KillSwitch;
use insight_streams::checkpoint::CheckpointStore;
use insight_streams::metrics::MetricsRegistry;
use insight_streams::replay::ReplayRuntime;
use insight_traffic::TrafficRulesConfig;
use std::sync::Arc;

const SCHEDULER_SEEDS: [u64; 3] = [0, 77, 777];

/// Supervision used throughout: checkpoint every 8 items, 2 restarts per
/// worker lifetime (one kill needs one).
fn supervised(rtec_replicas: usize) -> PipelineOptions {
    PipelineOptions { rtec_replicas, ..PipelineOptions::recovering(8, 2) }
}

/// Kill points covering the input range: the first items (no checkpoint
/// taken yet, recovery replays from the start), then evenly spaced steps up
/// to and including the last item.
fn kill_points(n: u64) -> Vec<u64> {
    assert!(n >= 2, "stream too short to sweep ({n} items)");
    let mut points = vec![1, 2];
    for i in 1..=6 {
        points.push(n * i / 6);
    }
    points.sort_unstable();
    points.dedup();
    points.retain(|&k| (1..=n).contains(&k));
    points
}

/// Sweeps kills over the RTEC stage of the given shard shape and asserts
/// recovery equivalence for every scheduler seed.
fn assert_rtec_kill_sweep_recovers(rtec_replicas: usize) {
    let scenario = Scenario::generate(ScenarioConfig::small(900, 42)).expect("scenario");
    let window = WindowConfig::new(300, 300).expect("window");
    let rules = TrafficRulesConfig::static_mode();
    // The RTEC stage consumes every SDE of the scenario (the feeds forward
    // 1:1 into the `sde` queue), so the sweep range is the SDE count.
    let n = scenario.sdes.len() as u64;
    for seed in SCHEDULER_SEEDS {
        let baseline = replay_recognitions_with(
            &scenario,
            rules.clone(),
            window,
            seed,
            &supervised(rtec_replicas),
        )
        .expect("kill-free replay");
        assert!(!baseline.is_empty(), "seed {seed} produced recognitions");
        for k in kill_points(n) {
            let switch = KillSwitch::new();
            let options = PipelineOptions {
                kill_rtec_at: Some((k, switch.clone())),
                ..supervised(rtec_replicas)
            };
            let out = replay_recognitions_with(&scenario, rules.clone(), window, seed, &options)
                .unwrap_or_else(|e| {
                    panic!(
                        "seed {seed}, kill at {k}/{n}, {rtec_replicas} replica(s): \
                         recovery failed: {e}"
                    )
                });
            assert!(switch.fired(), "seed {seed}: kill at {k}/{n} never struck");
            assert_eq!(
                out, baseline,
                "seed {seed}, kill at {k}/{n}, {rtec_replicas} RTEC replica(s): \
                 recovered output diverged from the kill-free run"
            );
        }
    }
}

#[test]
fn plain_rtec_stage_recovers_from_kills_across_the_whole_stream() {
    assert_rtec_kill_sweep_recovers(1);
}

#[test]
fn sharded_rtec_stage_recovers_from_kills_across_the_whole_stream() {
    // Four replicas — the paper's one-engine-per-region decomposition; the
    // shared switch kills whichever replica happens to process the k-th
    // item, so the sweep exercises partitioned recovery too.
    assert_rtec_kill_sweep_recovers(4);
}

#[test]
fn crowd_em_stage_recovers_with_its_estimator_state_intact() {
    // The faulty-fleet scenario produces source disagreements, so the EM
    // merge stage is genuinely stateful when the kill strikes: a restore
    // that lost the estimator or the held-summary gate would change the
    // verdicts downstream of the kill point.
    let mut cfg = ScenarioConfig::small(2400, 91);
    cfg.fleet.faulty_fraction = 0.5;
    cfg.fleet.n_buses = 40;
    let scenario = Scenario::generate(cfg).expect("scenario");
    let window = WindowConfig::new(900, 450).expect("window");
    let rules = TrafficRulesConfig::self_adaptive(insight_traffic::NoisyVariant::CrowdValidated);
    let supervised =
        || PipelineOptions { checkpoint_every: 1, ..PipelineOptions::recovering(1, 2) };
    for seed in SCHEDULER_SEEDS {
        let baseline =
            replay_recognitions_with(&scenario, rules.clone(), window, seed, &supervised())
                .expect("kill-free replay");
        assert!(
            baseline.contains("crowd_verdict_congested"),
            "seed {seed}: baseline resolves at least one disagreement"
        );
        // The EM stage consumes exactly the summaries that reach the sink.
        let n = baseline.lines().count() as u64;
        for k in [1, n / 2, n] {
            let switch = KillSwitch::new();
            let options =
                PipelineOptions { kill_crowd_em_at: Some((k, switch.clone())), ..supervised() };
            let out = replay_recognitions_with(&scenario, rules.clone(), window, seed, &options)
                .unwrap_or_else(|e| panic!("seed {seed}, EM kill at {k}/{n} failed: {e}"));
            assert!(switch.fired(), "seed {seed}: EM kill at {k}/{n} never struck");
            assert_eq!(
                out, baseline,
                "seed {seed}, EM kill at {k}/{n}: recovered verdicts diverged"
            );
        }
    }
}

#[test]
fn crowd_em_kill_keeps_the_task_counters() {
    // A restored stage must report the crowd tasks counted before its
    // barrier too, not only those its rebuilt task bridge ran since.
    let mut cfg = ScenarioConfig::small(2400, 91);
    cfg.fleet.faulty_fraction = 0.5;
    cfg.fleet.n_buses = 40;
    let scenario = Scenario::generate(cfg).expect("scenario");
    let window = WindowConfig::new(900, 450).expect("window");
    let rules = TrafficRulesConfig::self_adaptive(insight_traffic::NoisyVariant::CrowdValidated);
    let counters = |options: &PipelineOptions, seed: u64| {
        let (topology, sink) =
            build_pipeline_with(&scenario, rules.clone(), window, options).expect("topology");
        let metrics = Arc::new(MetricsRegistry::new());
        ReplayRuntime::new(topology, seed)
            .with_metrics(Arc::clone(&metrics))
            .run()
            .unwrap_or_else(|e| panic!("seed {seed}: run failed: {e}"));
        let counters = metrics.snapshot().counters;
        let counts = ["crowd.queries", "crowd.tasks", "crowd.answers", "crowd.deadline_misses"]
            .map(|name| (name, counters.get(name).copied().unwrap_or(0)));
        (counts, sink.items().len() as u64)
    };
    let supervised =
        || PipelineOptions { checkpoint_every: 1, ..PipelineOptions::recovering(1, 2) };
    for seed in SCHEDULER_SEEDS {
        let (baseline, n) = counters(&supervised(), seed);
        assert!(baseline[0].1 > 0, "seed {seed}: the baseline ran crowd queries");
        for k in [n / 2, n] {
            let switch = KillSwitch::new();
            let options =
                PipelineOptions { kill_crowd_em_at: Some((k, switch.clone())), ..supervised() };
            let (got, _) = counters(&options, seed);
            assert!(switch.fired(), "seed {seed}: EM kill at {k}/{n} never struck");
            assert_eq!(got, baseline, "seed {seed}, EM kill at {k}/{n}: task counters diverged");
        }
    }
}

/// The multi-output scenario: a query step of a sixth of the SCATS period,
/// so one SCATS report settles six queries per region at once, and a
/// half-faulty fleet under rule-set (4), so the EM stage's canonical-order
/// gate releases several disagreement summaries on one input.
fn six_queries_per_report() -> (Scenario, WindowConfig, TrafficRulesConfig) {
    let mut cfg = ScenarioConfig::small(1500, 91);
    cfg.fleet.faulty_fraction = 0.5;
    cfg.fleet.n_buses = 40;
    assert_eq!(cfg.scats_period, 360);
    let scenario = Scenario::generate(cfg).expect("scenario");
    let window = WindowConfig::new(600, 60).expect("window");
    let rules = TrafficRulesConfig::self_adaptive(insight_traffic::NoisyVariant::CrowdValidated);
    (scenario, window, rules)
}

#[test]
fn rtec_worker_killed_by_the_sde_that_fires_six_queued_queries_emits_each_summary_once() {
    let (scenario, window, rules) = six_queries_per_report();
    let report = scenario.window().0 + 2 * 360;
    let ahead = scenario.sdes.iter().filter(|s| s.time < report).count();
    let report_len = scenario.sdes.iter().filter(|s| !s.is_bus() && s.time == report).count();
    assert!(report_len >= 4, "the report has items for every region");
    for seed in SCHEDULER_SEEDS {
        for rtec_replicas in [1usize, 4] {
            let baseline = replay_recognitions_with(
                &scenario,
                rules.clone(),
                window,
                seed,
                &supervised(rtec_replicas),
            )
            .expect("kill-free replay");
            // One worker hosts all four engines and sees the `sde` queue in
            // order, so there the offsets count from the report's first
            // item: the one that finds six queries waiting. With four
            // replicas the count runs across them and only brackets it.
            for offset in [1, 2, report_len / 2, report_len] {
                let switch = KillSwitch::new();
                let options = PipelineOptions {
                    kill_rtec_at: Some(((ahead + offset) as u64, switch.clone())),
                    ..supervised(rtec_replicas)
                };
                let (mut topology, sink) =
                    build_pipeline_with(&scenario, rules.clone(), window, &options)
                        .expect("topology");
                // The sources hold the rest of the trace back until the kill
                // has struck, so nothing but the report can be its victim.
                let struck = switch.clone();
                let released = move || struck.fired();
                let gated =
                    gate_sources_at_scats_report(&mut topology, &scenario, report, released);
                assert_eq!(gated, ahead, "the report's first item is number {ahead} + 1");
                let label = format!(
                    "seed {seed}, {rtec_replicas} RTEC replica(s), kill on item {offset} of the report"
                );
                ReplayRuntime::new(topology, seed)
                    .run()
                    .unwrap_or_else(|e| panic!("{label}: recovery failed: {e}"));
                assert!(switch.fired(), "{label}: the kill never struck");
                assert_eq!(
                    canonical_recognitions(&sink.items()),
                    baseline,
                    "{label}: a summary was duplicated, lost or changed"
                );
            }
        }
    }
}

#[test]
fn crowd_em_killed_on_a_summary_that_releases_several_emits_each_once() {
    let (scenario, window, rules) = six_queries_per_report();
    // A barrier every four summaries: the restored stage replays up to three
    // logged inputs — discarding whatever those calls release — before the
    // killed one re-runs.
    let supervised = || PipelineOptions::recovering(4, 2);
    for seed in SCHEDULER_SEEDS {
        let baseline =
            replay_recognitions_with(&scenario, rules.clone(), window, seed, &supervised())
                .expect("kill-free replay");
        // The first SCATS report settles five queries per region, the second
        // six more: summaries 21..=44 into the EM stage are the second
        // report's, and whichever of them completes a query time across the
        // four regions releases every disagreement held for it.
        for k in 21..=44u64 {
            let switch = KillSwitch::new();
            let options =
                PipelineOptions { kill_crowd_em_at: Some((k, switch.clone())), ..supervised() };
            let (mut topology, sink) =
                build_pipeline_with(&scenario, rules.clone(), window, &options).expect("topology");
            let store = CheckpointStore::in_memory();
            topology.set_checkpoint_store(store.clone());
            ReplayRuntime::new(topology, seed)
                .run()
                .unwrap_or_else(|e| panic!("seed {seed}, EM kill at {k} failed: {e}"));
            assert!(switch.fired(), "seed {seed}: EM kill at {k} never struck");
            assert_eq!(
                canonical_recognitions(&sink.items()),
                baseline,
                "seed {seed}, EM kill at {k}: a summary was duplicated, lost or changed"
            );
            // Slot 0 is the kill injector, slot 1 the EM stage.
            let blob = store.latest("crowd-em", 1).expect("EM barrier taken").blob;
            assert!(blob.get_str("held").is_some(), "the gate's held summaries are state");
            assert!(blob.get_str("pending").is_none(), "released summaries are not");
        }
    }
}
