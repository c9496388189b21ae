//! A finished recognition never waits for the next SCATS burst.
//!
//! The §3 topology is fed from gated sources: first every SDE up to the
//! second SCATS report — the bus SDEs, then, behind them, the SCATS items
//! whose arrival opens six queued queries in each of the four regions — and
//! then nothing: the rest of the trace is released only once every summary
//! the first part can produce is in the sink. Nothing but the pipeline
//! itself can open that gate. A stage that parks a finished summary until
//! more input arrives (an RTEC worker handing on one summary per SDE, a
//! merge waiting for a count-based watermark, the EM stage handing on one
//! per summary) leaves the gate shut: the replay scheduler then reports
//! `ReplayDeadlock`, and the threaded run trips the gate's failure-path-only
//! deadline. No assertion depends on timing, and gating must not change
//! what is recognised.

use insight_core::pipeline::{build_pipeline_with, PipelineOptions};
use insight_core::replay::canonical_recognitions;
use insight_core::testing::gate_sources_at_scats_report;
use insight_datagen::regions::Region;
use insight_datagen::scenario::{Scenario, ScenarioConfig};
use insight_rtec::window::WindowConfig;
use insight_streams::item::DataItem;
use insight_streams::replay::ReplayRuntime;
use insight_streams::runtime::Runtime;
use insight_streams::sink::CollectSink;
use insight_streams::topology::Topology;
use insight_traffic::{NoisyVariant, TrafficRulesConfig};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const STEP: i64 = 60;
const SCATS_PERIOD: i64 = 360;

type Summaries = BTreeSet<(i64, String)>;

fn summaries(items: &[DataItem]) -> Summaries {
    items
        .iter()
        .map(|i| (i.get_i64("query_time").unwrap(), i.get_str("region").unwrap().to_string()))
        .collect()
}

struct Fixture {
    scenario: Scenario,
    rules: TrafficRulesConfig,
    window: WindowConfig,
    /// When the SCATS report after which the sources stall is sensed.
    report: i64,
    /// Canonical output of the ungated run.
    reference: String,
    /// What must be in the sink before the rest of the trace is released.
    due: Summaries,
}

/// What the gate saw when it let the rest of the trace go.
#[derive(Default)]
struct Witness {
    seen: Mutex<Summaries>,
    /// Threaded runs only: the deadline passed before the sink filled.
    gave_up: AtomicBool,
}

impl Fixture {
    fn new() -> Fixture {
        // A half-faulty fleet under rule-set (4), so summaries carry source
        // disagreements and the crowd stage's canonical-order gate matters.
        let mut cfg = ScenarioConfig::small(1500, 91);
        cfg.fleet.faulty_fraction = 0.5;
        cfg.fleet.n_buses = 40;
        assert_eq!(cfg.scats_period, SCATS_PERIOD);
        let scenario = Scenario::generate(cfg).unwrap();
        let rules = TrafficRulesConfig::self_adaptive(NoisyVariant::CrowdValidated);
        let window = WindowConfig::new(600, STEP).unwrap();

        let (topology, sink) =
            build_pipeline_with(&scenario, rules.clone(), window, &PipelineOptions::default())
                .unwrap();
        Runtime::new(topology).run().unwrap();
        let items = sink.items();

        // A region fires query q once its bus and its SCATS arrivals have
        // both passed q; the sources stall after the second SCATS report.
        let report = scenario.window().0 + 2 * SCATS_PERIOD;
        let first_query = scenario.window().0 + STEP;
        let mut fired = Summaries::new();
        let mut frontier = i64::MAX;
        for region in Region::ALL {
            let watermark = |bus: bool| {
                scenario
                    .sdes
                    .iter()
                    .filter(|s| s.region() == region && s.is_bus() == bus)
                    .filter(|s| if bus { s.time < report } else { s.time <= report })
                    .map(|s| s.arrival)
                    .max()
                    .unwrap_or(i64::MIN)
            };
            let passed = watermark(true).min(watermark(false));
            let queries: Vec<i64> =
                (first_query..).step_by(STEP as usize).take_while(|q| *q < passed).collect();
            assert!(queries.len() >= 6, "{region}: the second SCATS report opens six queries");
            frontier = frontier.min(*queries.last().unwrap());
            fired.extend(queries.into_iter().map(|q| (q, region.to_string())));
        }
        // The EM stage rightly keeps a disagreement whose query time some
        // region has not reached yet; everything else is due.
        let disagreements = summaries(
            &items.iter().filter(|i| i.contains("disagreement_lon")).cloned().collect::<Vec<_>>(),
        );
        let due: Summaries = fired
            .into_iter()
            .filter(|key| key.0 <= frontier || !disagreements.contains(key))
            .collect();
        assert!(due.len() >= 24, "six queries in four regions, at least");
        assert!(due.iter().any(|key| disagreements.contains(key)), "the crowd gate is exercised");
        assert!(due.len() < items.len(), "there is a rest of the trace to hold back");
        Fixture { scenario, rules, window, report, reference: canonical_recognitions(&items), due }
    }

    /// The §3 topology with its five sources swapped for gated ones.
    fn gated(&self, witness: &Arc<Witness>, deadline: Option<Duration>) -> (Topology, CollectSink) {
        let (mut topology, sink) = build_pipeline_with(
            &self.scenario,
            self.rules.clone(),
            self.window,
            &PipelineOptions::default(),
        )
        .unwrap();
        // Opens once everything due is in the sink (or, threaded, once the
        // deadline has passed: the run then finishes and the test fails).
        let started = Instant::now();
        let sink_is_full = {
            let (sink, witness, due) = (sink.clone(), Arc::clone(witness), self.due.len());
            move || {
                let full = sink.len() >= due;
                let timed_out = deadline.is_some_and(|d| started.elapsed() > d);
                if !(full || timed_out) {
                    return false;
                }
                if !full {
                    witness.gave_up.store(true, Ordering::SeqCst);
                }
                let mut seen = witness.seen.lock().unwrap();
                if seen.is_empty() {
                    *seen = summaries(&sink.items());
                }
                true
            }
        };
        gate_sources_at_scats_report(&mut topology, &self.scenario, self.report, sink_is_full);
        (topology, sink)
    }

    fn assert_nothing_was_held(
        &self,
        run: Result<(), insight_streams::error::StreamsError>,
        sink: &CollectSink,
        witness: &Witness,
        label: &str,
    ) {
        run.unwrap_or_else(|e| panic!("{label}: a stage sat on a finished summary: {e}"));
        let seen = witness.seen.lock().unwrap().clone();
        assert!(
            !witness.gave_up.load(Ordering::SeqCst),
            "{label}: the sources went quiet with {} of {} due summaries delivered",
            seen.len(),
            self.due.len()
        );
        assert_eq!(seen, self.due, "{label}: in the sink before anything more was released");
        assert_eq!(
            canonical_recognitions(&sink.items()),
            self.reference,
            "{label}: gating the sources changes no recognition"
        );
    }
}

#[test]
fn threaded_pipeline_delivers_every_summary_of_a_burst_before_the_next_input() {
    let fixture = Fixture::new();
    let witness = Arc::new(Witness::default());
    let (topology, sink) = fixture.gated(&witness, Some(Duration::from_secs(30)));
    let run = Runtime::new(topology).run();
    fixture.assert_nothing_was_held(run.map(drop), &sink, &witness, "threaded");
}

#[test]
fn replayed_pipeline_delivers_every_summary_of_a_burst_before_the_next_input() {
    let fixture = Fixture::new();
    let base =
        std::env::var("CONFORMANCE_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0u64) * 1000;
    for seed in [0, 77, 777].map(|s| base + s) {
        let witness = Arc::new(Witness::default());
        let (topology, sink) = fixture.gated(&witness, None);
        let run = ReplayRuntime::new(topology, seed).run();
        fixture.assert_nothing_was_held(run.map(drop), &sink, &witness, &format!("seed {seed}"));
    }
}
