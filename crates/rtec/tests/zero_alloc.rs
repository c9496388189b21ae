//! Steady-state zero-allocation regression test for the engine.
//!
//! The plan's solver runs out of a thread-local scratch arena
//! ([`insight_rtec::compile::scratch_allocations`] counts every capacity
//! growth of its buffers). After a warm-up window has sized the arena, further
//! windows over a stream with the same working-set shape must not grow any
//! scratch buffer. Window construction and output materialisation are outside
//! this claim — only the per-rule solve loop is allocation-free.

use insight_rtec::compile::scratch_allocations;
use insight_rtec::dsl::RuleSet;
use insight_rtec::prelude::*;

fn ruleset() -> RuleSet {
    let mut b = RuleSetBuilder::new();
    b.declare_event("enter", 1).declare_event("leave", 1);
    let d = b.var("D");
    let t1 = b.var("T1");
    b.initiated(
        fluent("inside", [pat(d)], val(true)),
        t1,
        [happens(event_pat("enter", [pat(d)]), t1)],
    );
    let t2 = b.var("T2");
    b.terminated(
        fluent("inside", [pat(d)], val(true)),
        t2,
        [happens(event_pat("leave", [pat(d)]), t2)],
    );
    let d2 = b.var("D2");
    let t3 = b.var("T3");
    b.derived_event(
        event_head("reentry", [pat(d2)]),
        t3,
        [
            happens(event_pat("enter", [pat(d2)]), t3),
            holds(fluent_pat("inside", [pat(d2)], val(true)), t3),
        ],
    );
    b.build().unwrap()
}

/// Runs a steady-state stream through the engine and pins the *full window
/// cycle* — slide, solve, publish — at zero allocations once the
/// retained tables have sized to the working set.
/// `QueryTiming::window_allocations` counts retained-buffer capacity growth
/// plus solver-scratch growth on the querying thread (output materialisation
/// is outside the counter by definition).
fn assert_full_cycle_allocation_free(wm: Time, step: Time) {
    let mut e = Engine::new(ruleset(), WindowConfig::new(wm, step).unwrap());

    let pairs: i64 = (step / 2).min(20);
    let feed = |e: &mut Engine, base: Time| {
        for i in 0..pairs {
            let d = Term::sym(["a", "b", "c", "d"][(i % 4) as usize]);
            e.add_event(Event::new("enter", [d.clone()], base + 2 * i as Time)).unwrap();
            e.add_event(Event::new("leave", [d], base + 2 * i as Time + 1)).unwrap();
        }
    };

    // Warm-up windows size every retained buffer (stores, grounding tables,
    // pools, scratch) to the steady-state working set. The working set only
    // reaches its full size once the stream has filled the working memory
    // (wm / step windows), so warm up past that point.
    let warm = (wm / step) + 4;
    for w in 0..warm {
        feed(&mut e, w * step);
        e.query((w + 1) * step).unwrap();
    }
    for w in warm..warm + 10 {
        feed(&mut e, w * step);
        let rec = e.query((w + 1) * step).unwrap();
        assert!(rec.sde_count > 0, "stream must stay live");
        assert_eq!(
            rec.timing.window_allocations,
            0,
            "window cycle at q={} allocated (wm={wm}, step={step})",
            (w + 1) * step
        );
    }
}

/// Disjoint windows (step = WM, the paper's ratio-1 configuration): every
/// window re-derives from scratch, so this pins the allocation-free claim
/// for the full-evaluation shape of the cycle.
#[test]
fn disjoint_window_cycle_is_allocation_free() {
    assert_full_cycle_allocation_free(100, 100);
}

/// Overlapping windows (WM = 8 × step, the ratio-1/8 configuration):
/// survivor filtering, set comparison and clamp-reuse dominate, so this pins
/// the allocation-free claim for the incremental shape of the cycle.
#[test]
fn overlapping_window_cycle_is_allocation_free() {
    assert_full_cycle_allocation_free(160, 20);
}

/// Sliding stores under late arrivals (WM = 8 × step): every window admits
/// punctual facts at its end and amends late ones into its middle, and
/// expires a head. Once warm, no buffer grows — and the rows freed by the
/// expired head are the rows the admitted facts take, so the retained
/// capacity of the whole window state is the same at window 50 as at 20.
#[test]
fn sliding_stores_reuse_what_the_expired_head_frees() {
    let (wm, step) = (160, 20);
    let mut e = Engine::new(ruleset(), WindowConfig::new(wm, step).unwrap());
    let feed = |e: &mut Engine, w: Time| {
        let base = w * step;
        for i in 0..8 {
            let d = Term::sym(["a", "b", "c", "d"][(i % 4) as usize]);
            // Every fourth pair is up to five steps late; one in eight comes
            // later than the working memory and is lost.
            let late = match i % 8 {
                3 => step * (1 + w % 5),
                7 => wm + step,
                _ => 0,
            };
            let enter = Event::new("enter", [d.clone()], base + 2 * i - late);
            let leave = Event::new("leave", [d], base + 2 * i + 1 - late);
            e.add_stamped_event(Stamped::arriving_at(enter, base + 2 * i)).unwrap();
            e.add_stamped_event(Stamped::arriving_at(leave, base + 2 * i + 1)).unwrap();
        }
    };
    let mut capacity_at_20 = 0;
    let (mut amended, mut lost) = (0, 0);
    for w in 0..=50 {
        feed(&mut e, w);
        let rec = e.query((w + 1) * step).unwrap();
        amended += rec.timing.facts_amended;
        lost += rec.timing.facts_lost;
        if w >= 20 {
            assert_eq!(rec.timing.window_allocations, 0, "window {w} grew a retained buffer");
            assert!(rec.timing.facts_expired > 0 && rec.timing.facts_admitted > 0);
        }
        if w == 20 {
            capacity_at_20 = e.retained_capacity();
        }
    }
    assert!(amended > 50 && lost > 50, "{amended} amended, {lost} lost");
    assert_eq!(e.retained_capacity(), capacity_at_20, "retained capacity is flat");
}

#[test]
fn steady_state_windows_do_not_allocate_scratch() {
    let mut e = Engine::new(ruleset(), WindowConfig::new(100, 50).unwrap());

    let feed = |e: &mut Engine, base: Time| {
        for i in 0..20i64 {
            let d = Term::sym(["a", "b", "c", "d"][(i % 4) as usize]);
            e.add_event(Event::new("enter", [d.clone()], base + 2 * i as Time)).unwrap();
            e.add_event(Event::new("leave", [d], base + 2 * i as Time + 1)).unwrap();
        }
    };

    // Warm-up: two windows size the arena to the working set.
    feed(&mut e, 0);
    e.query(50).unwrap();
    feed(&mut e, 50);
    e.query(100).unwrap();

    let before = scratch_allocations();
    for w in 2..12u64 {
        let base = 50 * w as Time;
        feed(&mut e, base);
        let rec = e.query(base + 50).unwrap();
        assert!(!rec.events_of("reentry").is_empty() || rec.sde_count > 0);
    }
    let after = scratch_allocations();
    assert_eq!(
        after - before,
        0,
        "solver scratch grew during steady-state windows ({} allocations)",
        after - before
    );
}
