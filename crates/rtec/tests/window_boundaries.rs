//! Deterministic boundary tests pinning the §4.2 window semantics: a query
//! at `Qi` with working memory `WM` processes exactly the SDEs that have
//! arrived by `Qi` and occurred in the half-open window `(Qi − WM, Qi]`.

use insight_rtec::prelude::*;

/// A single on/off-switched boolean fluent `f(X)`.
fn ruleset() -> insight_rtec::dsl::RuleSet {
    let mut b = RuleSetBuilder::new();
    b.declare_event("on", 1);
    b.declare_event("off", 1);
    let x = b.var("X");
    let t1 = b.var("T1");
    b.initiated(fluent("f", [pat(x)], val(true)), t1, [happens(event_pat("on", [pat(x)]), t1)]);
    let t2 = b.var("T2");
    b.terminated(fluent("f", [pat(x)], val(true)), t2, [happens(event_pat("off", [pat(x)]), t2)]);
    b.build().unwrap()
}

fn engine(wm: i64, step: i64) -> Engine {
    Engine::new(ruleset(), WindowConfig::new(wm, step).unwrap())
}

fn on(id: i64, t: i64) -> Event {
    Event::new("on", [Term::int(id)], t)
}

#[test]
fn sde_at_exactly_window_start_is_excluded() {
    // Window of q=200 with WM=100 is (100, 200]: an SDE timestamped exactly
    // at q − WM = 100 lies on the open end and must not be processed.
    let mut e = engine(100, 100);
    e.add_event(on(1, 100)).unwrap();
    let rec = e.query(200).unwrap();
    assert_eq!(rec.window_start, 100);
    assert_eq!(rec.sde_count, 0, "SDE at q-WM is outside (q-WM, q]");
    assert!(!rec.holds_at("f", &[Term::int(1)], &Term::truth(), 200));
}

#[test]
fn sde_just_inside_window_start_is_included() {
    // One tick later than q − WM and the same SDE is in the window.
    let mut e = engine(100, 100);
    e.add_event(on(1, 101)).unwrap();
    let rec = e.query(200).unwrap();
    assert_eq!(rec.sde_count, 1);
    assert!(rec.holds_at("f", &[Term::int(1)], &Term::truth(), 200));
}

#[test]
fn sde_at_exactly_query_time_is_included() {
    // The window is closed at q: an SDE timestamped exactly at q counts.
    let mut e = engine(100, 100);
    e.add_event(on(1, 200)).unwrap();
    let rec = e.query(200).unwrap();
    assert_eq!(rec.sde_count, 1, "SDE at q is inside (q-WM, q]");
    assert!(rec.holds_at("f", &[Term::int(1)], &Term::truth(), 200));
}

#[test]
fn sde_after_query_time_is_deferred_to_the_next_window() {
    // Timestamped past q: invisible now, processed by the next query.
    let mut e = engine(200, 100);
    e.add_event(on(1, 250)).unwrap();
    let rec = e.query(200).unwrap();
    assert_eq!(rec.sde_count, 0);
    let rec = e.query(300).unwrap();
    assert_eq!(rec.sde_count, 1);
    assert!(rec.holds_at("f", &[Term::int(1)], &Term::truth(), 250));
}

#[test]
fn delayed_sde_is_amended_into_the_next_result() {
    // The SDE occurs at 150 but only arrives at 230 — after Q1 = 200. Q1
    // must not see it; Q2 = 300 (window (100, 300]) must retro-actively
    // amend the recognition so `f` holds from 150 on.
    let mut e = engine(200, 100);
    e.add_stamped_event(Stamped::arriving_at(on(1, 150), 230)).unwrap();

    let q1 = e.query(200).unwrap();
    assert_eq!(q1.sde_count, 0, "not yet arrived at Q1");
    assert!(!q1.holds_at("f", &[Term::int(1)], &Term::truth(), 150));

    let q2 = e.query(300).unwrap();
    assert_eq!(q2.sde_count, 1, "arrived and still inside the window");
    assert!(
        q2.holds_at("f", &[Term::int(1)], &Term::truth(), 150),
        "delayed SDE amended into the Q2 recognition"
    );
    assert!(q2.holds_at("f", &[Term::int(1)], &Term::truth(), 300));
}

#[test]
fn sde_delayed_past_its_window_is_discarded() {
    // Occurs at 150 with WM=100: by Q2 = 300 the window starts at 200, so
    // the late arrival at 230 can never be processed — exactly the paper's
    // trade-off of bounded working memory against unbounded delays.
    let mut e = engine(100, 100);
    e.add_stamped_event(Stamped::arriving_at(on(1, 150), 230)).unwrap();
    let q1 = e.query(200).unwrap();
    assert_eq!(q1.sde_count, 0);
    let q2 = e.query(300).unwrap();
    assert_eq!(q2.sde_count, 0, "occurrence time fell behind the window");
    assert!(!q2.holds_at("f", &[Term::int(1)], &Term::truth(), 250));
    assert_eq!(e.buffered(), 0, "expired SDEs are evicted from memory");
    assert_eq!(q2.timing.facts_lost, 1, "and counted: dropped without having been seen");
    assert_eq!((q2.timing.facts_admitted, q2.timing.facts_expired), (0, 0));
}

#[test]
fn late_sde_exactly_on_the_window_start_is_lost_one_tick_later_amended() {
    // Sliding windows, WM=200, step=100. Two SDEs arrive at 230, after
    // Q1 = 200. Q2 = 300 has the window (100, 300]: the one that occurred
    // at 100 = Q2 − WM sits on the open end and is lost on first sight; the
    // one at 101 is amended — and expires at Q3 = 400, the very next slide.
    let mut e = engine(200, 100);
    e.add_stamped_event(Stamped::arriving_at(on(1, 100), 230)).unwrap();
    e.add_stamped_event(Stamped::arriving_at(on(2, 101), 230)).unwrap();
    let q1 = e.query(200).unwrap();
    assert_eq!((q1.sde_count, e.buffered()), (0, 2), "both still pending at Q1");

    let q2 = e.query(300).unwrap();
    assert_eq!(q2.sde_count, 1);
    assert_eq!(
        (q2.timing.facts_admitted, q2.timing.facts_amended, q2.timing.facts_lost),
        (1, 1, 1)
    );
    assert!(!q2.holds_at("f", &[Term::int(1)], &Term::truth(), 300));
    assert!(q2.holds_at("f", &[Term::int(2)], &Term::truth(), 101));
    assert_eq!(e.buffered(), 1);

    let q3 = e.query(400).unwrap();
    assert_eq!((q3.sde_count, q3.timing.facts_expired, e.buffered()), (0, 1, 0));
    assert!(q3.holds_at("f", &[Term::int(2)], &Term::truth(), 400), "inertia outlives the SDE");
}

#[test]
fn sde_admitted_in_the_window_in_which_it_also_expires() {
    // An SDE at 151 is admitted by the query at 350 (window (150, 350]) and
    // expired by the next one, 351, whose window starts on it.
    let mut e = engine(200, 1);
    e.add_stamped_event(Stamped::arriving_at(on(1, 151), 160)).unwrap();
    let q1 = e.query(350).unwrap();
    assert_eq!((q1.sde_count, q1.timing.facts_admitted, q1.timing.facts_amended), (1, 1, 0));
    // A second SDE of the same time arrives at 351: the slide that could
    // admit it is the one that expires the first — it is lost instead.
    e.add_stamped_event(Stamped::arriving_at(on(2, 151), 351)).unwrap();
    let q2 = e.query(351).unwrap();
    assert_eq!((q2.sde_count, q2.timing.facts_expired, q2.timing.facts_lost), (0, 1, 1));
    assert_eq!(e.buffered(), 0);
}

#[test]
fn query_timing_is_populated() {
    let mut e = engine(100, 100);
    e.add_event(on(1, 150)).unwrap();
    let rec = e.query(200).unwrap();
    assert!(rec.timing.total >= rec.timing.windowing);
    assert!(rec.timing.total >= rec.timing.evaluation);
}
