//! Test support: the schedule-invariance harness of the §3 pipeline, used
//! by the conformance suites and the no-hold tests. No pipeline calls it.
//!
//! The paper's dataflow decomposition is only sound if the recognition
//! output does not depend on how the processes happen to interleave. This
//! module turns that claim into an executable assertion: run the Dublin
//! topology under the deterministic replay scheduler
//! ([`insight_streams::replay::ReplayRuntime`]) once per seed — each seed is
//! one exact interleaving — canonicalise each run's recognition summaries
//! ([`canonical_recognitions`]), and require the canonical forms to be
//! byte-identical.

use crate::pipeline::{build_pipeline_with, PipelineOptions};
use crate::replay::canonical_recognitions;
use insight_datagen::regions::Region;
use insight_datagen::scenario::Scenario;
use insight_rtec::window::WindowConfig;
use insight_streams::error::StreamsError;
use insight_streams::item::DataItem;
use insight_streams::replay::ReplayRuntime;
use insight_streams::source::GatedSource;
use insight_streams::topology::Topology;
use insight_traffic::TrafficRulesConfig;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Runs the full §3 topology built with `options` over `scenario` under the
/// replay scheduler with `seed` and returns the canonical recognition
/// output.
pub fn replay_recognitions_with(
    scenario: &Scenario,
    rules: TrafficRulesConfig,
    window: WindowConfig,
    seed: u64,
    options: &PipelineOptions,
) -> Result<String, StreamsError> {
    let (topology, sink) = build_pipeline_with(scenario, rules.clone(), window, options)?;
    ReplayRuntime::new(topology, seed).run()?;
    Ok(canonical_recognitions(&sink.items()))
}

/// Swaps the five sources of a built §3 topology for
/// [`GatedSource`]s that release the trace in three parts around the SCATS
/// report sensed at `report`:
///
/// 1. every SDE sensed before the report, from all five feeds;
/// 2. the report's SCATS items — only once every feed has handed on all of
///    part 1, so they sit behind it in the `sde` queue and the first of them
///    to reach a region's engine fires every query the bus watermark was
///    waiting with (six, at a step of a sixth of the SCATS period);
/// 3. the rest of the trace, once `released()` holds.
///
/// Returns the number of items in part 1: item number `that + 1` into the
/// RTEC stage is the first of the report. Works under both drivers (a
/// closed gate is "nothing yet" to the replay scheduler). This is the
/// harness of the no-hold regression test and of the recovery suite's kill
/// on exactly that item.
pub fn gate_sources_at_scats_report(
    topology: &mut Topology,
    scenario: &Scenario,
    report: i64,
    released: impl Fn() -> bool + Clone + Send + 'static,
) -> usize {
    let sensed_by = |items: Vec<DataItem>, t: i64| -> (Vec<DataItem>, Vec<DataItem>) {
        items.into_iter().partition(|item| item.get_i64("time").is_some_and(|time| time <= t))
    };
    // Bit `f` is set once feed `f` asks for what follows its part 1, which a
    // worker does only after it has handed all of part 1 on.
    const ALL_FEEDS: usize = 0b11111;
    let handed_on = Arc::new(AtomicUsize::new(0));
    let gate = |feed: usize, parts: usize| {
        let (handed_on, released) = (Arc::clone(&handed_on), released.clone());
        move |part: usize| {
            if part == 0 {
                return true;
            }
            let feeds = handed_on.fetch_or(1 << feed, Ordering::SeqCst) | 1 << feed;
            if part + 1 < parts {
                feeds == ALL_FEEDS
            } else {
                released()
            }
        }
    };
    let feeds = crate::items::feed_items(scenario);
    let (before, rest) = sensed_by(feeds.bus, report - 1);
    let mut ahead = before.len();
    topology.add_source("bus", GatedSource::new(vec![before, rest], gate(0, 2)));
    for (f, (region, items)) in Region::ALL.into_iter().zip(feeds.scats).enumerate() {
        let (upto, rest) = sensed_by(items, report);
        let (before, the_report) = sensed_by(upto, report - 1);
        ahead += before.len();
        let source = GatedSource::new(vec![before, the_report, rest], gate(1 + f, 3));
        topology.add_source(&format!("scats-{region}"), source);
    }
    ahead
}

/// Asserts that the Dublin topology produces byte-identical canonical
/// recognition output under every scheduler seed in `seeds`.
///
/// Panics with the offending seed pair and a line-level diff summary on the
/// first divergence, so a failure is immediately replayable:
/// `ReplayRuntime::new(topology, seed)` reproduces the exact interleaving.
pub fn assert_schedule_invariant(
    scenario: &Scenario,
    rules: TrafficRulesConfig,
    window: WindowConfig,
    seeds: &[u64],
) {
    assert!(!seeds.is_empty(), "at least one seed required");
    let mut baseline: Option<(u64, String)> = None;
    for &seed in seeds {
        let options = PipelineOptions::default();
        let output = replay_recognitions_with(scenario, rules.clone(), window, seed, &options)
            .unwrap_or_else(|e| panic!("replay under seed {seed} failed: {e}"));
        match &baseline {
            None => baseline = Some((seed, output)),
            Some((base_seed, base)) => {
                if output != *base {
                    let diff = first_line_diff(base, &output);
                    panic!(
                        "SCHEDULE DIVERGENCE: seeds {base_seed} and {seed} disagree \
                         ({} vs {} canonical lines){diff}\n\
                         replay with ReplayRuntime::new(topology, {base_seed}) vs \
                         ReplayRuntime::new(topology, {seed})",
                        base.lines().count(),
                        output.lines().count(),
                    );
                }
            }
        }
    }
}

/// Renders the first differing canonical line of two outputs.
fn first_line_diff(a: &str, b: &str) -> String {
    for (i, pair) in a.lines().zip(b.lines()).enumerate() {
        if pair.0 != pair.1 {
            return format!("\nfirst differing line {}:\n  - {}\n  + {}", i + 1, pair.0, pair.1);
        }
    }
    let (short, long, side) =
        if a.lines().count() < b.lines().count() { (a, b, "second") } else { (b, a, "first") };
    match long.lines().nth(short.lines().count()) {
        Some(extra) => format!("\nextra line only in the {side} output:\n  + {extra}"),
        None => String::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_diff_pinpoints_first_divergence() {
        let d = first_line_diff("a\nb\nc\n", "a\nX\nc\n");
        assert!(d.contains("line 2"), "{d}");
        assert!(d.contains("- b") && d.contains("+ X"), "{d}");
        let d = first_line_diff("a\n", "a\nb\n");
        assert!(d.contains("extra line"), "{d}");
    }
}
