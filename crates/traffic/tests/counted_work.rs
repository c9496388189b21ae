//! Counted solver work on the benchmark's Dublin trace, exact per seed.
//!
//! Wall time on a shared host drifts by a third; the number of solver steps
//! and of candidates the access paths hand to the matcher does not move at
//! all, so this is where a join-planning regression is caught. One pass:
//! the 1 800 s trace of `benchmark/` (seed 42, 37 370 SDEs) through four
//! region engines at WM 600 s / step 60 s, 124 windows.
//!
//! The second count is what the window stores are made to write. Until PR 19
//! every query refilled them from the buffered SDEs: 583 484 input facts
//! pushed, sorted and indexed per pass for 69 958 that arrived (each one
//! again in every window it lived through, ×8.3), and 244 925 derived events
//! re-pushed for 38 877 fresh derivations. The stores now slide: a fact is
//! written when it is admitted and never again.

mod common;

use insight_rtec::compile::SolveWork;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// The same pass before join planning (PR 15, counted on a scratch copy with
/// the same driver): every body ran in the order it was typed, `holdsAt` on
/// `gps` walked all observations of its second and the spatial join called
/// `close` on every intersection of the region.
const BEFORE: SolveWork = SolveWork { steps: 8_476_766, candidates: 17_684_157 };
const CLOSE_CALLS_BEFORE: u64 = 5_586_143;

/// Exact per trace, like the solver counts: late arrivals admitted into the
/// overlap, facts that arrived behind the window start, and derived events
/// written into their slots.
const AMENDED: u64 = 28_806;
const LOST: u64 = 0;
const DERIVED_WRITTEN: u64 = 37_512;

#[test]
fn dublin_pass_does_a_fifth_of_the_work_it_did_before_join_planning() {
    let scenario = common::dublin_trace(1800, 42);
    assert_eq!(scenario.sdes.len(), 37_370, "the benchmark's trace");

    let calls = Arc::new(AtomicU64::new(0));
    let hits = Arc::new(AtomicU64::new(0));
    let close = insight_traffic::geo::close_builtin(common::rules().close_threshold_m);
    let close = Arc::new(close);
    let counting = {
        let (calls, hits) = (calls.clone(), hits.clone());
        move |args: &[insight_rtec::term::Term]| {
            calls.fetch_add(1, Ordering::Relaxed);
            let hit = close(args);
            hits.fetch_add(u64::from(hit), Ordering::Relaxed);
            hit
        }
    };
    let mut engines = common::region_engines(&scenario, &common::rules(), counting);

    let mut work = SolveWork::default();
    let mut windows = 0usize;
    let (mut window_time, mut windowing, mut upkeep) =
        (Duration::ZERO, Duration::ZERO, Duration::ZERO);
    let (mut admitted, mut amended, mut expired, mut lost, mut derived) = (0, 0, 0, 0, 0);
    common::drive(&scenario, &mut engines, |rec| {
        windows += 1;
        window_time += rec.timing.total;
        windowing += rec.timing.windowing;
        upkeep += rec.timing.cache_rebuild;
        work.steps += rec.timing.solver_steps;
        work.candidates += rec.timing.candidates_examined;
        admitted += rec.timing.facts_admitted;
        amended += rec.timing.facts_amended;
        expired += rec.timing.facts_expired;
        lost += rec.timing.facts_lost;
        derived += rec.timing.derived_written;
        assert_eq!(rec.stats().solver_steps, rec.timing.solver_steps);
        assert_eq!(rec.stats().facts_admitted, rec.timing.facts_admitted);
    });
    let (calls, hits) = (calls.load(Ordering::Relaxed), hits.load(Ordering::Relaxed));
    println!("{windows} windows, {work:?}, close: {calls} calls, {hits} hits");
    println!(
        "stores: {admitted} facts admitted ({amended} amended), {expired} expired, {lost} lost, \
         {derived} derived events written; windowing {windowing:?}, publish {:?}",
        upkeep - windowing
    );

    // Every fact that was ever visible was written into its store exactly
    // once (583 484 pushes before the stores slid), and has by the end of
    // the pass either expired or is still in the window.
    assert_eq!(admitted, 69_958);
    let held: usize = engines.iter().map(|e| e.buffered()).sum();
    assert_eq!(admitted, expired + held as u64, "admitted = expired + still buffered");
    assert_eq!((amended, lost), (AMENDED, LOST));
    // Derived slots are cut at the stratum's output frontier and receive
    // only the tail behind it (244 925 re-pushed per pass before).
    assert_eq!(derived, DERIVED_WRITTEN);
    assert!(derived < 80_000);

    assert_eq!(windows, 124);
    // Exact: the plan and the trace are deterministic.
    assert_eq!(work, SolveWork { steps: 874_947, candidates: 802_616 });
    assert!(work.steps * 5 <= BEFORE.steps, "{} steps", work.steps);
    assert!(work.candidates * 5 <= BEFORE.candidates, "{} candidates", work.candidates);
    // `close` is the last condition of the one rule that calls it, so every
    // hit is one busNearInt solution: the box guards leave it at most ten
    // candidates per solution (285 before).
    assert!(hits > 10_000 && calls <= 10 * hits, "{calls} calls for {hits} solutions");
    assert!(calls * 25 <= CLOSE_CALLS_BEFORE);

    // Per stratum, from the engines' own profile: the two joins that were
    // 83 % of window time each do a tenth of the steps they did.
    let mut by_rule: BTreeMap<&str, SolveWork> = BTreeMap::new();
    for p in engines.iter().flat_map(|e| e.stratum_profile()) {
        *by_rule.entry(p.symbol.as_str()).or_default() += p.work;
    }
    let steps: u64 = by_rule.values().map(|w| w.steps).sum();
    assert_eq!(steps, work.steps, "the per-stratum profile accounts for every step");
    println!("window time {window_time:?}; share of the solver steps by stratum:");
    for (rule, w) in &by_rule {
        let share = 100.0 * w.steps as f64 / steps as f64;
        println!("{rule:>20} {share:>5.1} % {:>9} steps {:>9} candidates", w.steps, w.candidates);
    }
    for (rule, before) in [("busNearInt", 5_692_590), ("delayIncrease", 2_539_486)] {
        let now = by_rule[rule].steps;
        assert!(now * 10 <= before, "{rule}: {now} steps, {before} before join planning");
    }
}
