//! Compile-pass and plan-sharing edge cases.
//!
//! The heavy differential (engine == oracle on fuzzed rule sets and fixture
//! streams) lives in the conformance crate; these tests pin the corners of
//! the execution plan itself: empty plans, never-queried heads, beyond-WM
//! lateness, the `set_initially` error path, plan sharing and the
//! determinism of plan rebuilds across checkpoint restore.

use insight_rtec::dsl::RuleSet;
use insight_rtec::event::Stamped;
use insight_rtec::prelude::*;
use insight_rtec::rule::CmpOp;
use std::sync::Arc;

/// `on(Dev)` switched by two input events, plus a derived event
/// `flip(Dev)` fired when the device switches on while `hot(Dev)` holds —
/// a two-level stratification with a non-trivial join.
fn two_level_ruleset() -> RuleSet {
    let mut b = RuleSetBuilder::new();
    b.declare_event("switch_on", 1)
        .declare_event("switch_off", 1)
        .declare_event("heat", 1)
        .declare_event("cool", 1);
    let dev = b.var("Dev");
    let t1 = b.var("T1");
    b.initiated(
        fluent("on", [pat(dev)], val(true)),
        t1,
        [happens(event_pat("switch_on", [pat(dev)]), t1)],
    );
    let t2 = b.var("T2");
    b.terminated(
        fluent("on", [pat(dev)], val(true)),
        t2,
        [happens(event_pat("switch_off", [pat(dev)]), t2)],
    );
    let dev2 = b.var("Dev2");
    let t3 = b.var("T3");
    b.initiated(
        fluent("hot", [pat(dev2)], val(true)),
        t3,
        [happens(event_pat("heat", [pat(dev2)]), t3)],
    );
    let t4 = b.var("T4");
    b.terminated(
        fluent("hot", [pat(dev2)], val(true)),
        t4,
        [happens(event_pat("cool", [pat(dev2)]), t4)],
    );
    let dev3 = b.var("Dev3");
    let t5 = b.var("T5");
    b.derived_event(
        event_head("flip", [pat(dev3)]),
        t5,
        [
            happens(event_pat("switch_on", [pat(dev3)]), t5),
            holds(fluent_pat("hot", [pat(dev3)], val(true)), t5),
        ],
    );
    b.build().unwrap()
}

fn stream() -> Vec<Stamped<Event>> {
    let mut evs = Vec::new();
    for (kind, dev, t) in [
        ("heat", "a", 5),
        ("switch_on", "a", 10),
        ("switch_off", "a", 30),
        ("switch_on", "b", 12),
        ("cool", "a", 40),
        ("switch_on", "a", 55),
        ("heat", "b", 60),
        ("switch_on", "b", 70),
        ("switch_off", "b", 85),
    ] {
        evs.push(Stamped::<Event>::punctual(Event::new(kind, [Term::sym(dev)], t)));
    }
    // A late arrival: occurs at 20, arrives at 95 (amended into Q=100).
    evs.push(Stamped::arriving_at(Event::new("heat", [Term::sym("b")], 20), 95));
    evs
}

#[test]
fn two_level_join_fires_across_windows() {
    let mut e = Engine::new(two_level_ruleset(), WindowConfig::new(50, 25).unwrap());
    for ev in stream() {
        e.add_stamped_event(ev).unwrap();
    }
    // `flip` needs `hot` to hold at the switch-on: a@10 (hot since 5) and
    // b@70 (hot since 60); a@55 comes after `cool a`@40, b@12 before any
    // heat, and the late `heat b`@20 arrives after its window has passed.
    let expect = [
        (25, vec![("a", 10)]),
        (50, vec![("a", 10)]),
        (75, vec![("b", 70)]),
        (100, vec![("b", 70)]),
        (125, vec![]),
    ];
    for (q, flips) in expect {
        let rec = e.query(q).unwrap();
        let got: Vec<(Term, Time)> =
            rec.events_of("flip").iter().map(|e| (e.args[0].clone(), e.time)).collect();
        let want: Vec<(Term, Time)> = flips.into_iter().map(|(d, t)| (Term::sym(d), t)).collect();
        assert_eq!(got, want, "flip events at q={q}");
    }
}

#[test]
fn empty_ruleset_compiles_to_empty_plan() {
    let mut b = RuleSetBuilder::new();
    b.declare_event("ping", 1);
    let rs = b.build().unwrap();
    let mut e = Engine::new(rs, WindowConfig::new(10, 10).unwrap());
    assert_eq!(e.plan().n_strata(), 0);
    e.add_event(Event::new("ping", [Term::int(1)], 3)).unwrap();
    let rec = e.query(10).unwrap();
    assert!(rec.derived_events.is_empty());
    assert_eq!(rec.sde_count, 1);
}

#[test]
fn never_queried_head_fluent_still_evaluates() {
    // `idle` is derived but its initiating event never occurs: the stratum
    // runs, produces no groundings, and downstream queries see nothing.
    let mut b = RuleSetBuilder::new();
    b.declare_event("go", 1).declare_event("stop", 1);
    let d = b.var("D");
    let t = b.var("T");
    b.initiated(fluent("idle", [pat(d)], val(true)), t, [happens(event_pat("stop", [pat(d)]), t)]);
    let d2 = b.var("D2");
    let t2 = b.var("T2");
    b.initiated(
        fluent("busy", [pat(d2)], val(true)),
        t2,
        [happens(event_pat("go", [pat(d2)]), t2)],
    );
    let rs = b.build().unwrap();
    let mut e = Engine::new(rs, WindowConfig::new(20, 20).unwrap());
    e.add_event(Event::new("go", [Term::sym("x")], 4)).unwrap();
    let rec = e.query(20).unwrap();
    assert!(rec.holds_at("busy", &[Term::sym("x")], &Term::truth(), 10));
    assert!(rec.fluent_entries("idle").is_empty());
    assert!(rec.intervals_of("idle", &[Term::sym("x")], &Term::truth()).is_none());
}

#[test]
fn beyond_wm_delayed_events_are_lost() {
    // An event occurring at t=5 but arriving at t=70 misses every window
    // containing t=5 (WM=20): it must never fire a rule.
    let mut e = Engine::new(two_level_ruleset(), WindowConfig::new(20, 20).unwrap());
    e.add_event(Event::new("heat", [Term::sym("a")], 2)).unwrap();
    e.add_stamped_event(Stamped::arriving_at(Event::new("switch_on", [Term::sym("a")], 5), 70))
        .unwrap();
    for q in [20, 40, 60, 80] {
        let rec = e.query(q).unwrap();
        assert!(rec.events_of("flip").is_empty(), "lost event must not fire rules at q={q}");
        assert!(rec.fluent_entries("on").is_empty());
    }
}

#[test]
fn set_initially_after_start_fails() {
    let mut e = Engine::new(two_level_ruleset(), WindowConfig::new(10, 10).unwrap());
    e.set_initially("on", vec![Term::sym("a")], Term::truth()).unwrap();
    e.query(10).unwrap();
    let err = e.set_initially("on", vec![Term::sym("b")], Term::truth()).unwrap_err();
    assert!(matches!(err, RtecError::EngineAlreadyStarted { first_query: 10 }));
}

#[test]
fn plan_rebuild_is_deterministic() {
    let p1 = CompiledPlan::compile(two_level_ruleset());
    let p2 = CompiledPlan::compile(two_level_ruleset());
    assert_eq!(p1.signature(), p2.signature());
}

#[test]
fn restore_rebuilds_plan_and_preserves_results() {
    let w = WindowConfig::new(50, 25).unwrap();
    let events = stream();

    // Uninterrupted engine: the reference.
    let mut reference = Engine::new(two_level_ruleset(), w);
    for e in &events {
        reference.add_stamped_event(e.clone()).unwrap();
    }
    let mut expected = Vec::new();
    for q in [25, 50, 75, 100] {
        expected.push(reference.query(q).unwrap().derived_events.clone());
    }

    // Crash after the second query; restore into a freshly built engine.
    let mut original = Engine::new(two_level_ruleset(), w);
    let sig_before = original.plan().signature();
    for e in &events {
        original.add_stamped_event(e.clone()).unwrap();
    }
    original.query(25).unwrap();
    original.query(50).unwrap();
    let snapshot = original.snapshot_state();
    // The snapshot never mentions the plan: it is derived state.
    assert!(!snapshot.windows(4).any(|w| w == b"plan"), "plan must be excluded from checkpoints");

    let mut restored = Engine::new(two_level_ruleset(), w);
    restored.restore_state(&snapshot).unwrap();
    let sig_after = restored.plan().signature();
    assert_eq!(sig_before, sig_after, "restored engine must rebuild the identical plan");
    assert_eq!(restored.query(75).unwrap().derived_events, expected[2]);
    assert_eq!(restored.query(100).unwrap().derived_events, expected[3]);
}

#[test]
fn one_arc_plan_shared_across_replica_engines() {
    let plan = CompiledPlan::compile(two_level_ruleset());
    let w = WindowConfig::new(50, 25).unwrap();
    let mut a = Engine::with_plan(Arc::clone(&plan), w);
    let mut b = Engine::with_plan(Arc::clone(&plan), w);
    assert!(Arc::ptr_eq(a.plan(), b.plan()), "replicas share one plan allocation");
    for e in stream() {
        a.add_stamped_event(e.clone()).unwrap();
        b.add_stamped_event(e).unwrap();
    }
    for q in [25, 50, 75, 100] {
        assert_eq!(a.query(q).unwrap().derived_events, b.query(q).unwrap().derived_events);
    }
}

#[test]
fn guards_relations_and_negation() {
    // A rule set exercising the remaining operand kinds: a relation join, a
    // numeric guard and negation-as-failure on a derived fluent.
    let mut b = RuleSetBuilder::new();
    b.declare_event("reading", 2).declare_relation("watched", 1);
    let d = b.var("D");
    let v = b.var("V");
    let t = b.var("T");
    b.initiated(
        fluent("alarm", [pat(d)], val(true)),
        t,
        [
            happens(event_pat("reading", [pat(d), pat(v)]), t),
            relation("watched", [pat(d)]),
            guard(cmp(v, CmpOp::Gt, 10.0)),
        ],
    );
    let d2 = b.var("D2");
    let v2 = b.var("V2");
    let t2 = b.var("T2");
    b.terminated(
        fluent("alarm", [pat(d2)], val(true)),
        t2,
        [happens(event_pat("reading", [pat(d2), pat(v2)]), t2), guard(cmp(v2, CmpOp::Le, 10.0))],
    );
    let d3 = b.var("D3");
    let t3 = b.var("T3");
    b.derived_event(
        event_head("quiet", [pat(d3)]),
        t3,
        [
            happens(event_pat("reading", [pat(d3), any()]), t3),
            not_holds(fluent_pat("alarm", [pat(d3)], val(true)), t3),
        ],
    );
    let mut e = Engine::new(b.build().unwrap(), WindowConfig::new(40, 20).unwrap());
    e.set_relation("watched", vec![vec![Term::sym("s1")], vec![Term::sym("s2")]]).unwrap();
    for (dev, t, v) in
        [("s1", 5, 3), ("s1", 20, 12), ("s2", 25, 40), ("s1", 30, 2), ("s3", 35, 99), ("s2", 55, 1)]
    {
        e.add_event(Event::new("reading", [Term::sym(dev), Term::int(v)], t)).unwrap();
    }
    // alarm(s1) = [20, 30), alarm(s2) = [25, 55); s3 is not watched. A
    // reading is quiet when its device's alarm does not hold at that instant.
    let expect = [
        (20, vec![("s1", 5)]),
        (40, vec![("s1", 5), ("s1", 30), ("s3", 35)]),
        (60, vec![("s1", 30), ("s3", 35), ("s2", 55)]),
        (80, vec![("s2", 55)]),
    ];
    for (q, quiet) in expect {
        let rec = e.query(q).unwrap();
        let got: Vec<(Term, Time)> =
            rec.events_of("quiet").iter().map(|e| (e.args[0].clone(), e.time)).collect();
        let want: Vec<(Term, Time)> = quiet.into_iter().map(|(d, t)| (Term::sym(d), t)).collect();
        assert_eq!(got, want, "quiet events at q={q}");
    }
    let rec = e.query(100).unwrap();
    assert!(rec.fluent_entries("alarm").is_empty(), "both alarms ended before (60, 100]");
}
