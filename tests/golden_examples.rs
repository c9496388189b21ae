//! Golden-snapshot tests for the examples' observable output.
//!
//! Each test re-runs an example's logic in-process with the example's exact
//! parameters, renders the same lines the example prints, canonicalises away
//! everything wall-clock or schedule-dependent (recognition-time lines,
//! `*_ns` histogram contents, queue `depth_high_water`/stall counters, held
//! high-water marks — all of which measure the host, not the data), and
//! compares the result byte-for-byte against the checked-
//! in snapshot under `tests/golden/`.
//!
//! To refresh after an intentional behaviour change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test golden_examples
//! ```
//!
//! then review the diff of `tests/golden/*.txt` like any other code change.

use insight_repro::core::pipeline::{build_pipeline_with, PipelineOptions};
use insight_repro::core::{InsightSystem, OperatorAlert, SystemConfig};
use insight_repro::datagen::scenario::{Scenario, ScenarioConfig};
use insight_repro::rtec::window::WindowConfig;
use insight_repro::streams::metrics::{HistogramSnapshot, MetricsSnapshot, HISTOGRAM_BUCKETS};
use insight_repro::streams::runtime::Runtime;
use insight_repro::traffic::{DistributedRecognizer, NoisyVariant, TrafficRulesConfig};
use std::fmt::Write as _;
use std::path::PathBuf;

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(name)
}

/// Compares `actual` against the golden file, or rewrites the file when
/// `UPDATE_GOLDEN=1` is set.
fn assert_golden(name: &str, actual: &str) {
    let path = golden_path(name);
    if std::env::var("UPDATE_GOLDEN").is_ok_and(|v| v == "1") {
        std::fs::create_dir_all(path.parent().expect("golden dir")).expect("mkdir golden");
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden snapshot {} ({e}); generate it with \
             `UPDATE_GOLDEN=1 cargo test --test golden_examples`",
            path.display()
        )
    });
    if actual != expected {
        let mismatch = expected
            .lines()
            .zip(actual.lines())
            .position(|(e, a)| e != a)
            .map(|i| {
                format!(
                    "first differing line {}:\n  - {}\n  + {}",
                    i + 1,
                    expected.lines().nth(i).unwrap_or(""),
                    actual.lines().nth(i).unwrap_or(""),
                )
            })
            .unwrap_or_else(|| {
                format!(
                    "line counts differ: {} golden vs {} actual",
                    expected.lines().count(),
                    actual.lines().count()
                )
            });
        panic!(
            "golden mismatch for {name}\n{mismatch}\n\
             if the change is intentional, refresh with \
             `UPDATE_GOLDEN=1 cargo test --test golden_examples` and review the diff"
        );
    }
}

/// FNV-1a over arbitrary bytes — pins large binary artefacts (the operator
/// map) without checking megabytes of pixels into the tree.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// The quickstart example's output with the one wall-clock line (max
/// recognition time) omitted and the rendered map reduced to a size + hash.
#[test]
fn golden_quickstart() {
    let mut config = SystemConfig::small(2700, 42);
    config.scenario.fleet.faulty_fraction = 0.25;
    let mut system = InsightSystem::new(config).expect("system");

    let mut out = String::new();
    writeln!(
        out,
        "street network: {} junctions, {} segments",
        system.scenario().network.len(),
        system.scenario().network.segments().len()
    )
    .unwrap();
    writeln!(
        out,
        "{} SCATS sensors on {} intersections, {} buses, {} SDEs",
        system.scenario().scats.len(),
        system.scenario().scats.intersections().len(),
        system.scenario().fleet.buses.len(),
        system.scenario().sdes.len()
    )
    .unwrap();

    let report = system.run().expect("run");

    writeln!(out, "\n=== operator alert feed ===").unwrap();
    for alert in report.alerts.iter().take(40) {
        writeln!(out, "{alert}").unwrap();
    }
    if report.alerts.len() > 40 {
        writeln!(out, "… and {} more alerts", report.alerts.len() - 40).unwrap();
    }

    writeln!(out, "\n=== run summary ===").unwrap();
    writeln!(out, "windows processed:        {}", report.windows.len()).unwrap();
    let total_sdes: usize = report.windows.iter().map(|w| w.sde_count).sum();
    writeln!(out, "SDEs recognised over:     {total_sdes}").unwrap();
    // The example also prints the max recognition time; that measures the
    // host, so the snapshot leaves it out.
    let disagreements =
        report.alerts_where(|a| matches!(a, OperatorAlert::SourceDisagreement { .. })).len();
    writeln!(out, "source disagreements:     {disagreements}").unwrap();
    match report.crowd_accuracy {
        Some(acc) => writeln!(out, "crowd verdict accuracy:   {:.1} %", acc * 100.0).unwrap(),
        None => writeln!(out, "crowd verdict accuracy:   n/a").unwrap(),
    }
    let (observed, estimated) = report.model_coverage;
    writeln!(out, "junctions observed:       {observed}").unwrap();
    writeln!(out, "junctions GP-estimated:   {estimated}").unwrap();

    writeln!(out, "\n=== proactive control recommendations ===").unwrap();
    for (t, action) in report.control_actions.iter().take(10) {
        writeln!(out, "[{t}] {action}").unwrap();
    }
    if report.control_actions.is_empty() {
        writeln!(out, "(no congestion severe enough to act on in this run)").unwrap();
    }

    let map = system.render_map(480, 360).expect("map");
    writeln!(out, "\noperator map: {} bytes, fnv1a {:016x}", map.len(), fnv1a(map.as_bytes()))
        .unwrap();

    assert_golden("quickstart.txt", &out);
}

/// One recognition pass of the congestion_monitoring example.
fn congestion_mode(scenario: &Scenario, rules: TrafficRulesConfig) -> (usize, usize, Vec<i64>) {
    let window = WindowConfig::new(900, 450).expect("window");
    let mut rec =
        DistributedRecognizer::from_deployment(rules, window, &scenario.scats).expect("recognizer");
    let (start, end) = scenario.window();

    let mut sde_idx = 0;
    let mut bus_congestion_intervals = 0usize;
    let mut disagreement_intervals = 0usize;
    let mut noisy: Vec<i64> = Vec::new();
    let mut q = start + 450;
    while q <= end {
        while sde_idx < scenario.sdes.len() && scenario.sdes[sde_idx].arrival <= q {
            rec.ingest(&scenario.sdes[sde_idx]).expect("ingest");
            sde_idx += 1;
        }
        let result = rec.query(q).expect("query");
        for (_, r) in &result.per_region {
            bus_congestion_intervals +=
                r.bus_congestions().iter().map(|(_, ivs)| ivs.len()).sum::<usize>();
            disagreement_intervals +=
                r.source_disagreements().iter().map(|(_, ivs)| ivs.len()).sum::<usize>();
            for (bus, _) in r.noisy_buses() {
                if !noisy.contains(&bus) {
                    noisy.push(bus);
                }
            }
        }
        q += 450;
    }
    (bus_congestion_intervals, disagreement_intervals, noisy)
}

/// The congestion_monitoring example prints only logical-time quantities, so
/// its snapshot is the full output verbatim.
#[test]
fn golden_congestion_monitoring() {
    let mut cfg = ScenarioConfig::small(2700, 2024);
    cfg.fleet.n_buses = 40;
    cfg.fleet.faulty_fraction = 0.35;
    let scenario = Scenario::generate(cfg).expect("scenario");

    let faulty: Vec<i64> =
        scenario.fleet.buses.iter().filter(|b| b.faulty).map(|b| b.id as i64).collect();
    let mut out = String::new();
    writeln!(
        out,
        "scenario: {} buses ({} faulty), {} sensors, {} SDEs, {} incidents",
        scenario.fleet.buses.len(),
        faulty.len(),
        scenario.scats.len(),
        scenario.sdes.len(),
        scenario.field.incidents().len(),
    )
    .unwrap();

    writeln!(out, "\n--- static recognition (rule-set 3: every source trusted) ---").unwrap();
    let (bus_cong_s, disagree_s, _) = congestion_mode(&scenario, TrafficRulesConfig::static_mode());
    writeln!(out, "bus congestion intervals:     {bus_cong_s}").unwrap();
    writeln!(out, "source disagreement intervals: {disagree_s}").unwrap();

    writeln!(out, "\n--- self-adaptive recognition (rule-sets 3' + 5) ---").unwrap();
    let (bus_cong_a, disagree_a, noisy) =
        congestion_mode(&scenario, TrafficRulesConfig::self_adaptive(NoisyVariant::Pessimistic));
    writeln!(out, "bus congestion intervals:     {bus_cong_a}").unwrap();
    writeln!(out, "source disagreement intervals: {disagree_a}").unwrap();
    writeln!(out, "buses marked noisy:            {}", noisy.len()).unwrap();

    let true_positive = noisy.iter().filter(|b| faulty.contains(b)).count();
    writeln!(
        out,
        "  of which actually faulty:    {true_positive} ({} faulty in total)",
        faulty.len()
    )
    .unwrap();
    writeln!(
        out,
        "\nsuppressed bus-congestion intervals: {}",
        bus_cong_s.saturating_sub(bus_cong_a)
    )
    .unwrap();

    assert_golden("congestion_monitoring.txt", &out);
}

/// Zeroes every wall-clock measurement in a metrics snapshot, keeping the
/// deterministic parts (flow counts, fault counters, histogram sample
/// counts).
fn scrub_wall_clock(mut snap: MetricsSnapshot) -> MetricsSnapshot {
    fn keep_count_only(h: &mut HistogramSnapshot) {
        *h = HistogramSnapshot {
            count: h.count,
            sum_ns: 0,
            min_ns: 0,
            max_ns: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        };
    }
    for stage in snap.stages.values_mut() {
        keep_count_only(&mut stage.process_ns);
        // How far a holding stage's buffer grew depends on how its inputs
        // interleaved, which is up to the thread schedule.
        stage.held_high_water = 0;
    }
    for queue in snap.queues.values_mut() {
        // Depth high water and stalls depend on the thread schedule, stall
        // time on the host; none describe the data. The batch-size
        // distribution is the same kind of measurement: how many items a
        // consumer finds per wake is a race between producer and consumer,
        // not a property of the stream (total items flow through `sent` /
        // `received`, which stay).
        queue.depth = 0;
        queue.depth_high_water = 0;
        queue.send_stalls = 0;
        queue.stall_ns = 0;
        queue.batch_sizes = HistogramSnapshot {
            count: 0,
            sum_ns: 0,
            min_ns: 0,
            max_ns: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        };
    }
    for (name, hist) in snap.histograms.iter_mut() {
        if name.ends_with("_ns") {
            keep_count_only(hist);
        }
    }
    snap
}

/// The metrics_report example's JSON snapshot with wall-clock and schedule-
/// dependent fields scrubbed to zero.
#[test]
fn golden_metrics_report_json() {
    let mut cfg = ScenarioConfig::small(2700, 42);
    cfg.fleet.faulty_fraction = 0.25;
    cfg.fleet.n_buses = 32;
    let scenario = Scenario::generate(cfg).expect("scenario");
    let (start, end) = scenario.window();

    let mut out = String::new();
    writeln!(
        out,
        "scenario: {} SDEs over {} s, {} buses, {} SCATS sensors",
        scenario.sdes.len(),
        end - start,
        scenario.fleet.buses.len(),
        scenario.scats.len()
    )
    .unwrap();

    let window = WindowConfig::new(600, 300).expect("window");
    let rules = TrafficRulesConfig::self_adaptive(NoisyVariant::CrowdValidated);
    let (topology, sink) =
        build_pipeline_with(&scenario, rules, window, &PipelineOptions::default())
            .expect("topology");
    let runtime = Runtime::new(topology);
    let metrics = runtime.metrics();
    let stats = runtime.run().expect("run");

    writeln!(
        out,
        "pipeline done: {} recognition summaries, {} items consumed, {} emitted",
        sink.len(),
        stats.total_consumed(),
        stats.total_emitted()
    )
    .unwrap();

    writeln!(out, "\n=== JSON snapshot (wall-clock scrubbed) ===").unwrap();
    writeln!(out, "{}", scrub_wall_clock(metrics.snapshot()).to_json()).unwrap();

    assert_golden("metrics_report.txt", &out);
}
