//! Property-based tests of the windowing machinery (Section 4.2 semantics).

use insight_rtec::prelude::*;
use proptest::prelude::*;

/// The on/off rule set used throughout.
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

fn arb_events() -> impl Strategy<Value = Vec<(i64, bool, u8)>> {
    proptest::collection::vec((1i64..950, proptest::bool::ANY, 0u8..3), 1..40)
}

proptest! {
    /// Sliding recognition (step < WM, punctual arrivals) agrees with a
    /// single big window about `holdsAt` at the final query time and about
    /// every recent time-point still inside the last window.
    #[test]
    fn sliding_windows_agree_with_one_shot(events in arb_events(), step in 50i64..500) {
        let horizon = 1000i64;
        let wm = 1000i64;

        // One-shot reference: a window covering everything.
        let mut reference = Engine::new(ruleset(), WindowConfig::new(wm, wm).unwrap());
        for &(t, on, id) in &events {
            reference
                .add_event(Event::new(if on { "on" } else { "off" }, [Term::int(id as i64)], t))
                .unwrap();
        }
        let ref_rec = reference.query(horizon).unwrap();

        // Sliding run with the same WM but a smaller step: every event is
        // eventually inside some window, and since WM covers the whole
        // horizon nothing is ever evicted.
        let mut sliding = Engine::new(ruleset(), WindowConfig::new(wm, step).unwrap());
        for &(t, on, id) in &events {
            sliding
                .add_event(Event::new(if on { "on" } else { "off" }, [Term::int(id as i64)], t))
                .unwrap();
        }
        let mut q = step.min(horizon);
        let mut last = None;
        while q < horizon {
            last = Some(sliding.query(q).unwrap());
            q += step;
        }
        let slide_rec = sliding.query(horizon).unwrap();
        let _ = last;

        for id in 0u8..3 {
            for probe in [1i64, 250, 500, 750, 999] {
                prop_assert_eq!(
                    ref_rec.holds_at("f", &[Term::int(id as i64)], &Term::truth(), probe),
                    slide_rec.holds_at("f", &[Term::int(id as i64)], &Term::truth(), probe),
                    "id={} probe={}", id, probe
                );
            }
        }
    }

    /// Delayed events are amended as long as they arrive within WM of their
    /// occurrence; the final recognition equals the punctual one.
    #[test]
    fn bounded_delays_are_amended(
        events in arb_events(),
        delay in 0i64..200,
    ) {
        let wm = 400i64;
        let step = 200i64;
        let horizon = 1200i64;

        // Punctual reference processed with the same window schedule.
        let mut punctual = Engine::new(ruleset(), WindowConfig::new(wm, step).unwrap());
        let mut delayed = Engine::new(ruleset(), WindowConfig::new(wm, step).unwrap());
        for &(t, on, id) in &events {
            let kind = if on { "on" } else { "off" };
            let ev = Event::new(kind, [Term::int(id as i64)], t);
            punctual.add_event(ev.clone()).unwrap();
            // The delay keeps the event inside the window of a later query:
            // arrival <= t + delay < t + wm - step, so some query at
            // q in [arrival, t + wm) sees it.
            delayed.add_stamped_event(Stamped::arriving_at(ev, t + delay.min(wm - step - 1))).unwrap();
        }
        let mut q = step;
        let (mut final_p, mut final_d) = (None, None);
        while q <= horizon {
            final_p = Some(punctual.query(q).unwrap());
            final_d = Some(delayed.query(q).unwrap());
            q += step;
        }
        let (final_p, final_d) = (final_p.unwrap(), final_d.unwrap());
        // At the end of the trace the two agree about the final state.
        for id in 0u8..3 {
            prop_assert_eq!(
                final_p.holds_at("f", &[Term::int(id as i64)], &Term::truth(), horizon - 1),
                final_d.holds_at("f", &[Term::int(id as i64)], &Term::truth(), horizon - 1),
                "id={}", id
            );
        }
    }

    /// The stores' accounting is exact on any grid: a query sees precisely
    /// the facts with `arrival ≤ q ∧ q − WM < time ≤ q`, and over a run
    /// every fact is admitted exactly once or lost unseen or still held —
    /// including one planted exactly on a window start (`q − WM`, excluded)
    /// and one a tick inside it (admitted, then expired by the next slide).
    #[test]
    fn every_fact_is_admitted_once_or_lost(
        events in arb_events(),
        delay in 0i64..600,
        step in 50i64..400,
        edge in 1i64..4,
    ) {
        let wm = 400i64;
        let mut e = Engine::new(ruleset(), WindowConfig::new(wm, step.min(wm)).unwrap());
        // (time, arrival): the drawn events, every third one delayed, plus
        // the two edge facts of query `edge`, arriving just in time.
        let q_edge = edge * step;
        let mut facts: Vec<(i64, i64)> = events
            .iter()
            .enumerate()
            .map(|(i, &(t, _, _))| (t, if i % 3 == 0 { t + delay } else { t }))
            .collect();
        facts.push((q_edge - wm, q_edge));
        facts.push((q_edge - wm + 1, q_edge));
        for (i, &(t, arrival)) in facts.iter().enumerate() {
            let ev = Event::new("on", [Term::int(i as i64 % 3)], t);
            e.add_stamped_event(Stamped::arriving_at(ev, arrival)).unwrap();
        }
        let (mut admitted, mut expired, mut lost) = (0u64, 0u64, 0u64);
        // Until the last window has slid past every occurrence (< 950).
        let mut q = step;
        while q - step - wm < 950 {
            let rec = e.query(q).unwrap();
            let visible = facts.iter().filter(|&&(t, a)| a <= q && t > q - wm && t <= q).count();
            prop_assert_eq!(rec.sde_count, visible, "q={}", q);
            if q == q_edge {
                prop_assert!(rec.timing.facts_lost >= 1, "the fact on q - WM is lost at {}", q);
            }
            admitted += rec.timing.facts_admitted;
            expired += rec.timing.facts_expired;
            lost += rec.timing.facts_lost;
            prop_assert_eq!(admitted + lost + (e.buffered() - rec.sde_count) as u64, facts.len() as u64);
            prop_assert_eq!(admitted, expired + rec.sde_count as u64);
            q += step;
        }
        prop_assert_eq!(e.buffered(), 0, "everything has left by the end");
        prop_assert!(admitted >= 1, "the fact on q - WM + 1 is admitted");
    }
}
