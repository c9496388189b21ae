//! The one differential suite: the windowed `insight_rtec::Engine` against
//! the naive full-history oracle, over ≥ 512 seeded SDE streams per run.
//!
//! Four proptests (128 cases each by default; `PROPTEST_CASES=512` in the
//! nightly CI variant) cover the fixture rule set under adversarial arrival
//! schedules and three different query grids, and **fuzzed rule sets**
//! ([`insight_datagen::adversarial::fuzz_ruleset`]: mixed pivotable and
//! non-pivotable bodies, negation over lower strata, multi-stratum chains,
//! unused fluents) under default and late-heavy arrivals, plus **fuzzed
//! joins** ([`insight_datagen::adversarial::fuzz_join_ruleset`]: what the
//! join planner reorders and re-routes — multi-event joins under
//! time-difference guards, relations probed by column, band and scan, a
//! builtin between guards, negation after a hoisted guard); deterministic
//! tests pin the two hardest schedules (occurrences exactly on the
//! `Qi − WM` boundary, arrivals beyond the working memory) and run the
//! *real* Dublin traffic rule library over perturbed scenario traces.
//!
//! Where the oracle cannot referee — rules reading fluents at times outside
//! the window, which any windowed engine answers from truncated knowledge
//! (designed §4.2 loss) — the live incremental engine is held against
//! [`Harness::check_restored`]'s relay of restored engines, which re-derive
//! every window in full. The same relay runs over the fixture streams
//! (relations, builtins, statically-determined fluents: the clamp-reuse and
//! interval-algebra paths the fuzzer does not draw).
//!
//! Failures replay from the printed seed; the pinned families run per CI
//! seed job, reproducible locally with `CONFORMANCE_SEED={0,77,777}`.

use insight_conformance::{
    fixture_grid, fixture_harness, fixture_stream, seed_offset, CheckStats, Harness,
    StimulusConfig, Stream,
};
use insight_datagen::adversarial::{
    fuzz_join_ruleset, fuzz_ruleset, perturb_sdes, FuzzCase, FuzzConfig, LatenessMix, QueryGrid,
};
use insight_datagen::scenario::{Scenario, ScenarioConfig};
use insight_traffic::config::TrafficRulesConfig;
use insight_traffic::geo::{close_box_tuples, close_builtin};
use insight_traffic::rules::{build_ruleset, rel};
use insight_traffic::sde::to_rtec;
use proptest::prelude::*;

fn run(harness: &Harness, stream: &Stream) -> CheckStats {
    match harness.check(stream) {
        Ok(stats) => {
            assert!(stats.queries > 0, "no queries executed");
            assert!(stats.ticks > 0, "no time-points compared");
            stats
        }
        Err(report) => panic!("{report}"),
    }
}

fn fuzz_grid() -> QueryGrid {
    QueryGrid { first: 100, step: 50, wm: 100, last: 500 }
}

/// WM = step: every window re-derives from scratch rather than from deltas.
fn tumbling_grid() -> QueryGrid {
    QueryGrid { first: 80, step: 80, wm: 80, last: 480 }
}

fn stream_of(case: &FuzzCase) -> Stream {
    Stream {
        label: case.label.clone(),
        seed: case.seed,
        events: case.events.clone(),
        obs: case.obs.clone(),
    }
}

/// A harness loaded with the relations and builtins a fuzzed case brings.
fn harness_of(case: &FuzzCase, grid: QueryGrid) -> Harness {
    let mut harness = Harness::new(case.rules.clone(), grid);
    for (name, tuples) in &case.relations {
        harness = harness.relation(name, tuples.clone());
    }
    for &(ref name, f) in &case.builtins {
        harness = harness.builtin(name, f);
    }
    harness
}

const LATE_HEAVY: LatenessMix =
    LatenessMix { on_time: 0.3, within_wm: 0.3, beyond_wm: 0.2, boundary: 0.2 };

/// One fuzzed join seed: the planned engine against the oracle's brute-force
/// nested loops (body order, no indexes, no ranges), then the live engine
/// (pivot programs) against the restore relay (full programs).
fn check_join_case(seed: u64, grid: QueryGrid, mix: LatenessMix) -> CheckStats {
    // A denser stream than the single-anchor fuzzer's: joins need partners.
    let cfg = FuzzConfig { mix, n_points: 200, ..FuzzConfig::default() };
    let case = fuzz_join_ruleset(seed, &grid, &cfg);
    let harness = harness_of(&case, grid);
    let stats = run(&harness, &stream_of(&case));
    harness.check_restored(&stream_of(&case)).unwrap_or_else(|e| panic!("live vs restored: {e}"));
    stats
}

/// One fuzzed seed: engine against the oracle, then live engine against the
/// restore relay.
///
/// The oracle leg uses the caller's config (which must keep
/// `aux_lookback = 0`: out-of-window `holdsAt` references are answered from
/// truncated knowledge by *any* windowed engine — designed §4.2 loss, not a
/// bug). The relay leg reruns the same seed with a real lookback, so
/// non-pivotable conditions genuinely roam the past — event-argument
/// `holdsAt` reads that flip when their time leaves the window with no
/// input delta: both engines share the same windowed knowledge, so they
/// must still agree tick-for-tick.
fn check_fuzz_case(seed: u64, grid: QueryGrid, cfg: &FuzzConfig) {
    let case = fuzz_ruleset(seed, &grid, cfg);
    run(&Harness::new(case.rules.clone(), grid), &stream_of(&case));

    let deep = FuzzConfig { aux_lookback: grid.wm / 2, ..*cfg };
    let deep_case = fuzz_ruleset(seed, &grid, &deep);
    Harness::new(deep_case.rules.clone(), grid)
        .check_restored(&stream_of(&deep_case))
        .unwrap_or_else(|e| panic!("live vs restored: {e}"));
}

proptest! {
    /// Fuzzed rule sets under the default lateness mix.
    #[test]
    fn fuzzed_rule_sets_match_oracle(seed in any::<u64>()) {
        check_fuzz_case(seed, fuzz_grid(), &FuzzConfig::default());
    }

    /// Fuzzed rule sets under late-heavy arrivals (amendment and loss paths)
    /// and a tumbling grid, where every window re-derives from scratch
    /// rather than from deltas.
    #[test]
    fn fuzzed_rule_sets_survive_late_arrivals(seed in any::<u64>(), tumbling in any::<bool>()) {
        let grid = if tumbling { tumbling_grid() } else { fuzz_grid() };
        check_fuzz_case(seed, grid, &FuzzConfig { mix: LATE_HEAVY, ..FuzzConfig::default() });
    }

    /// Fuzzed joins on the overlapping and the tumbling grid, on-time and
    /// late-heavy.
    #[test]
    fn fuzzed_joins_match_oracle(
        seed in any::<u64>(),
        tumbling in any::<bool>(),
        late_heavy in any::<bool>(),
    ) {
        let grid = if tumbling { tumbling_grid() } else { fuzz_grid() };
        check_join_case(seed, grid, if late_heavy { LATE_HEAVY } else { LatenessMix::default() });
    }

    /// The default overlapping grid (WM = 2·step) under a seed-drawn
    /// lateness mix, duplicates included.
    #[test]
    fn overlapping_window_streams_match_oracle(
        seed in any::<u64>(),
        late_heavy in any::<bool>(),
    ) {
        let grid = fixture_grid();
        let mix = if late_heavy {
            LatenessMix { on_time: 0.3, within_wm: 0.3, beyond_wm: 0.2, boundary: 0.2 }
        } else {
            LatenessMix::default()
        };
        let cfg = StimulusConfig { mix, ..StimulusConfig::default() };
        let harness = fixture_harness(grid);
        run(&harness, &fixture_stream(seed, grid, &cfg));
    }

    /// Tumbling (WM = step) and long-memory (WM = 3·step) grids: the window
    /// arithmetic differs, the recognition must not.
    #[test]
    fn alternate_grids_match_oracle(seed in any::<u64>(), tumbling in any::<bool>()) {
        let grid = if tumbling {
            QueryGrid { first: 60, step: 60, wm: 60, last: 540 }
        } else {
            QueryGrid { first: 120, step: 40, wm: 120, last: 560 }
        };
        let cfg = StimulusConfig::default();
        let harness = fixture_harness(grid);
        run(&harness, &fixture_stream(seed, grid, &cfg));
    }
}

/// A pinned family of fuzzed cases per CI seed job.
#[test]
fn pinned_fuzz_family_matches_oracle() {
    let base = 3000 + seed_offset() * 100_000;
    for seed in base..base + 12 {
        check_fuzz_case(seed, fuzz_grid(), &FuzzConfig::default());
    }
}

/// A pinned family of fuzzed joins per CI seed job: every seed on both grids
/// and both lateness mixes.
#[test]
fn pinned_join_family_matches_oracle() {
    let base = 5000 + seed_offset() * 100_000;
    let mut stats = Vec::new();
    for seed in base..base + 24 {
        for grid in [fuzz_grid(), tumbling_grid()] {
            for mix in [LatenessMix::default(), LATE_HEAVY] {
                stats.push(check_join_case(seed, grid, mix));
            }
        }
    }
    // Not vacuous: the joins do fire, by the thousand.
    let total = CheckStats::merge(stats);
    assert!(total.events_compared > 2_000, "only {} joined events compared", total.events_compared);
}

/// The fixture rule set (relations, builtins, statically-determined fluents
/// — vocabulary the fuzzer does not draw), pinned per CI seed job: against
/// the oracle, and live against the restore relay (static-fluent
/// clamp-reuse vs full re-solve).
#[test]
fn pinned_fixture_family_matches_oracle_and_restore_relay() {
    let grid = fixture_grid();
    let harness = fixture_harness(grid);
    let cfg = StimulusConfig::default();
    let base = 4000 + seed_offset() * 100_000;
    for seed in base..base + 8 {
        let stream = fixture_stream(seed, grid, &cfg);
        run(&harness, &stream);
        harness.check_restored(&stream).unwrap_or_else(|e| panic!("live vs restored: {e}"));
    }
}

/// Occurrences exactly on `Qi − WM` (excluded by the half-open window) and
/// on `Qi − WM + 1` (the first included tick) dominate these streams.
#[test]
fn boundary_occurrences_match_oracle() {
    let grid = fixture_grid();
    let harness = fixture_harness(grid);
    let mix = LatenessMix { on_time: 0.1, within_wm: 0.0, beyond_wm: 0.0, boundary: 0.9 };
    let cfg = StimulusConfig { mix, ..StimulusConfig::default() };
    let base = 1000 + seed_offset() * 100_000;
    for seed in base..base + 16 {
        run(&harness, &fixture_stream(seed, grid, &cfg));
    }
}

/// Arrivals after the occurrence time left the working memory must be
/// irrevocably dropped — by the engine and by the oracle's knowledge base.
#[test]
fn beyond_wm_arrivals_match_oracle() {
    let grid = fixture_grid();
    let harness = fixture_harness(grid);
    let mix = LatenessMix { on_time: 0.3, within_wm: 0.1, beyond_wm: 0.6, boundary: 0.0 };
    let cfg = StimulusConfig { mix, ..StimulusConfig::default() };
    let base = 2000 + seed_offset() * 100_000;
    for seed in base..base + 16 {
        run(&harness, &fixture_stream(seed, grid, &cfg));
    }
}

/// The real Dublin rule library over mediated scenario traces whose arrival
/// times were adversarially perturbed (delays within and beyond WM, plus
/// duplicates).
#[test]
fn traffic_scenario_streams_match_oracle() {
    let grid = QueryGrid { first: 600, step: 300, wm: 600, last: 1200 };
    for (seed, config) in
        [(3u64, TrafficRulesConfig::static_mode()), (11u64, TrafficRulesConfig::default())]
    {
        let mut cfg = ScenarioConfig::small(1200, seed);
        cfg.fleet.n_buses = 10;
        cfg.n_scats_sensors = 12;
        let scenario = Scenario::generate(cfg).expect("scenario generates");
        let mut sdes = scenario.sdes.clone();
        perturb_sdes(&mut sdes, seed, &grid, &LatenessMix::default(), 0.05);

        let mut events = Vec::new();
        let mut obs = Vec::new();
        for sde in &sdes {
            let (e, o) = to_rtec(sde);
            events.extend(e);
            obs.extend(o);
        }
        let stream = Stream { label: format!("traffic-small-{seed}"), seed, events, obs };

        let rules = build_ruleset(&config).expect("traffic rule set builds");
        let close = close_builtin(config.close_threshold_m);
        let intersections: Vec<Vec<insight_rtec::term::Term>> = scenario
            .scats
            .intersections()
            .iter()
            .map(|i| {
                vec![
                    insight_rtec::term::Term::int(i.id as i64),
                    insight_rtec::term::Term::float(i.lon),
                    insight_rtec::term::Term::float(i.lat),
                ]
            })
            .collect();
        let areas: Vec<Vec<insight_rtec::term::Term>> = scenario
            .scats
            .intersections()
            .iter()
            .map(|i| {
                vec![insight_rtec::term::Term::float(i.lon), insight_rtec::term::Term::float(i.lat)]
            })
            .collect();
        let close_box = close_box_tuples(
            config.close_threshold_m,
            scenario.scats.intersections().iter().map(|i| i.lat),
        );
        let harness = Harness::new(rules, grid)
            .builtin("close", move |args| close(args))
            .relation(rel::SCATS_INTERSECTION, intersections)
            .relation(rel::AREA, areas)
            .relation(rel::CLOSE_BOX, close_box);
        run(&harness, &stream);
    }
}
