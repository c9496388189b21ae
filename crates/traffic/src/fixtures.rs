//! Compact rule fixtures for conformance testing.
//!
//! The full Dublin rule set ([`crate::rules`]) is the thing we ultimately
//! want to trust, but its groundings are large (hundreds of sensors) and its
//! vocabulary is tied to the scenario generator. Differential testing wants
//! something orthogonal as well: a *small* rule set that still exercises
//! every feature of the rule language — multi-valued simple fluents,
//! negation as failure, relation joins, builtins, arithmetic guards, all
//! three statically-determined combinators, co-timed derived events feeding
//! later strata, and a *spanning* derived event whose evidence covers an
//! interval (the case where windowed re-derivation genuinely differs from
//! keeping state).
//!
//! The vocabulary is a miniature traffic network: buses enter/leave stops,
//! sensors observe flow and raise `spike`/`calm`/`fault`/`fixed` SDEs.

use crate::geo;
use insight_rtec::dsl::{
    builtin, cmp, event_head, event_pat, fluent, fluent_pat, guard, happens, holds, not_holds, pat,
    relation, term_ne, val, RuleSet, RuleSetBuilder,
};
use insight_rtec::error::RtecError;
use insight_rtec::rule::{CmpOp, IntervalExpr, NumExpr, ValRef};
use insight_rtec::term::Term;

/// A fixture: the rule set plus the relation tables and builtins the engine
/// (or the conformance oracle) must be loaded with.
pub struct RuleFixture {
    /// Compiled rule set.
    pub rules: RuleSet,
    /// `(relation name, tuples)` to register via `set_relation`.
    pub relations: Vec<(&'static str, Vec<Vec<Term>>)>,
    /// Builtin names to bind to [`fixture_builtin`] implementations.
    pub builtins: Vec<&'static str>,
}

/// A boxed builtin predicate implementation, as the engines accept it.
pub(crate) type BuiltinImpl = Box<dyn Fn(&[Term]) -> bool + Send + Sync>;

/// Returns the implementation of a fixture builtin by name.
///
/// `watched(Region)` — the region is under observation (here: `central`).
/// `near(Lon1, Lat1, Lon2, Lat2)` — within 300 m, reusing the haversine
/// distance from [`crate::geo`] so the fixture exercises the same float
/// builtin path as the production rules.
pub fn fixture_builtin(name: &str) -> Option<BuiltinImpl> {
    match name {
        "watched" => Some(Box::new(
            |args: &[Term]| matches!(args, [Term::Sym(s)] if s.as_str() == "central"),
        )),
        "near" => {
            let close = geo::close_builtin(300.0);
            Some(Box::new(move |args: &[Term]| close(args)))
        }
        _ => None,
    }
}

/// The number of sensors the default fixture relations know about.
pub const FIXTURE_SENSORS: i64 = 4;
/// The number of stops the default fixture relations know about.
pub const FIXTURE_STOPS: i64 = 3;

fn fixture_relations() -> Vec<(&'static str, Vec<Vec<Term>>)> {
    let region_of = |i: i64| {
        if i % 2 == 0 {
            Term::sym("central")
        } else {
            Term::sym("north")
        }
    };
    let sensor_region: Vec<Vec<Term>> =
        (0..FIXTURE_SENSORS).map(|i| vec![Term::int(i), region_of(i)]).collect();
    let stop_region: Vec<Vec<Term>> =
        (0..FIXTURE_STOPS).map(|i| vec![Term::int(i), region_of(i + 1)]).collect();
    vec![("sensor_region", sensor_region), ("stop_region", stop_region)]
}

/// Builds the conformance fixture rule set.
///
/// Derived vocabulary:
///
/// * `at_stop(Bus, Stop)` — simple fluent, initiated by `enter`, terminated
///   by `leave` (plain inertia).
/// * `congested(Sensor)` — simple fluent; initiated by `spike` when the
///   co-timed `flow` observation exceeds 60 (arithmetic guard over an input
///   fluent), terminated by `calm` *or* by a `spike` whose flow has dropped
///   below 20 (two termination rules for one grounding).
/// * `faulty(Sensor)` — simple fluent, `fault`/`fixed`.
/// * `status(Sensor) = high | low` — multi-valued: values evolve
///   independently (the engine keeps no cross-value exclusion, and the
///   conformance oracle must agree).
/// * `ghost_spike(Sensor)` — co-timed derived event with negation as
///   failure: a spike at a sensor *not* currently congested.
/// * `alert(Sensor, Region)` — co-timed derived event joining the
///   `sensor_region` relation and the `watched` builtin; feeds …
/// * `alerting(Region)` — a second-stratum simple fluent initiated by the
///   derived `alert` event and terminated by `all_clear`.
/// * `hop(Bus, From, To)` — *spanning* derived event: two `enter` events at
///   different stops within 40 ticks (evidence span `(T1, T2]`).
/// * `disturbed(Sensor)` — static union of `congested` and `faulty`.
/// * `confirmed(Sensor)` — static intersection of the same.
/// * `clear_congestion(Sensor)` — static relative complement:
///   congested-but-not-faulty.
pub fn conformance_fixture() -> Result<RuleFixture, RtecError> {
    let mut b = RuleSetBuilder::new();
    b.declare_event("enter", 2)
        .declare_event("leave", 2)
        .declare_event("spike", 1)
        .declare_event("calm", 1)
        .declare_event("fault", 1)
        .declare_event("fixed", 1)
        .declare_event("all_clear", 1)
        .declare_input_fluent("flow", 1)
        .declare_relation("sensor_region", 2)
        .declare_relation("stop_region", 2)
        .declare_builtin("watched", 1);

    let bus = b.var("Bus");
    let stop = b.var("Stop");
    let sensor = b.var("S");
    let region = b.var("R");
    let flow = b.var("F");
    let t = b.var("T");

    // at_stop: plain initiate/terminate inertia.
    b.initiated(
        fluent("at_stop", [pat(bus), pat(stop)], val(true)),
        t,
        [happens(event_pat("enter", [pat(bus), pat(stop)]), t)],
    );
    b.terminated(
        fluent("at_stop", [pat(bus), pat(stop)], val(true)),
        t,
        [happens(event_pat("leave", [pat(bus), pat(stop)]), t)],
    );

    // congested: guard over a co-timed input-fluent observation.
    b.initiated(
        fluent("congested", [pat(sensor)], val(true)),
        t,
        [
            happens(event_pat("spike", [pat(sensor)]), t),
            holds(fluent_pat("flow", [pat(sensor)], pat(flow)), t),
            guard(cmp(flow, CmpOp::Gt, 60.0)),
        ],
    );
    b.terminated(
        fluent("congested", [pat(sensor)], val(true)),
        t,
        [happens(event_pat("calm", [pat(sensor)]), t)],
    );
    b.terminated(
        fluent("congested", [pat(sensor)], val(true)),
        t,
        [
            happens(event_pat("spike", [pat(sensor)]), t),
            holds(fluent_pat("flow", [pat(sensor)], pat(flow)), t),
            guard(cmp(flow, CmpOp::Lt, 20.0)),
        ],
    );

    // faulty: fault/fixed.
    b.initiated(
        fluent("faulty", [pat(sensor)], val(true)),
        t,
        [happens(event_pat("fault", [pat(sensor)]), t)],
    );
    b.terminated(
        fluent("faulty", [pat(sensor)], val(true)),
        t,
        [happens(event_pat("fixed", [pat(sensor)]), t)],
    );

    // status: multi-valued, values evolve independently.
    b.initiated(
        fluent("status", [pat(sensor)], val(Term::sym("high"))),
        t,
        [
            happens(event_pat("spike", [pat(sensor)]), t),
            holds(fluent_pat("flow", [pat(sensor)], pat(flow)), t),
            guard(cmp(flow, CmpOp::Ge, 50.0)),
        ],
    );
    b.terminated(
        fluent("status", [pat(sensor)], val(Term::sym("high"))),
        t,
        [happens(event_pat("calm", [pat(sensor)]), t)],
    );
    b.initiated(
        fluent("status", [pat(sensor)], val(Term::sym("low"))),
        t,
        [happens(event_pat("calm", [pat(sensor)]), t)],
    );
    b.terminated(
        fluent("status", [pat(sensor)], val(Term::sym("low"))),
        t,
        [happens(event_pat("spike", [pat(sensor)]), t)],
    );

    // ghost_spike: negation as failure against a derived fluent.
    b.derived_event(
        event_head("ghost_spike", [pat(sensor)]),
        t,
        [
            happens(event_pat("spike", [pat(sensor)]), t),
            not_holds(fluent_pat("congested", [pat(sensor)], val(true)), t),
        ],
    );

    // alert: relation join + builtin, co-timed; feeds the next stratum.
    b.derived_event(
        event_head("alert", [pat(sensor), pat(region)]),
        t,
        [
            happens(event_pat("spike", [pat(sensor)]), t),
            holds(fluent_pat("congested", [pat(sensor)], val(true)), t),
            relation("sensor_region", [pat(sensor), pat(region)]),
            builtin("watched", [ValRef::Var(region)]),
        ],
    );

    // alerting: initiated by a *derived* event (second stratum).
    b.initiated(
        fluent("alerting", [pat(region)], val(true)),
        t,
        [happens(event_pat("alert", [pat(sensor), pat(region)]), t)],
    );
    b.terminated(
        fluent("alerting", [pat(region)], val(true)),
        t,
        [happens(event_pat("all_clear", [pat(region)]), t)],
    );

    // hop: a spanning derived event — evidence covers (T1, T2].
    let stop2 = b.var("Stop2");
    let t1 = b.var("T1");
    b.derived_event(
        event_head("hop", [pat(bus), pat(stop), pat(stop2)]),
        t,
        [
            happens(event_pat("enter", [pat(bus), pat(stop)]), t1),
            happens(event_pat("enter", [pat(bus), pat(stop2)]), t),
            guard(term_ne(stop, stop2)),
            guard(cmp(
                NumExpr::Sub(Box::new(NumExpr::Var(t)), Box::new(NumExpr::Var(t1))),
                CmpOp::Gt,
                0.0,
            )),
            guard(cmp(
                NumExpr::Sub(Box::new(NumExpr::Var(t)), Box::new(NumExpr::Var(t1))),
                CmpOp::Le,
                40.0,
            )),
        ],
    );

    // Statically-determined combinators over congested/faulty.
    b.static_fluent(
        fluent("disturbed", [pat(sensor)], val(true)),
        [relation("sensor_region", [pat(sensor), pat(region)])],
        IntervalExpr::Union(vec![
            IntervalExpr::Fluent(fluent_pat("congested", [pat(sensor)], val(true))),
            IntervalExpr::Fluent(fluent_pat("faulty", [pat(sensor)], val(true))),
        ]),
    );
    b.static_fluent(
        fluent("confirmed", [pat(sensor)], val(true)),
        [relation("sensor_region", [pat(sensor), pat(region)])],
        IntervalExpr::Intersect(vec![
            IntervalExpr::Fluent(fluent_pat("congested", [pat(sensor)], val(true))),
            IntervalExpr::Fluent(fluent_pat("faulty", [pat(sensor)], val(true))),
        ]),
    );
    b.static_fluent(
        fluent("clear_congestion", [pat(sensor)], val(true)),
        [relation("sensor_region", [pat(sensor), pat(region)])],
        IntervalExpr::RelComp(
            Box::new(IntervalExpr::Fluent(fluent_pat("congested", [pat(sensor)], val(true)))),
            vec![IntervalExpr::Fluent(fluent_pat("faulty", [pat(sensor)], val(true)))],
        ),
    );

    Ok(RuleFixture { rules: b.build()?, relations: fixture_relations(), builtins: vec!["watched"] })
}

#[cfg(test)]
mod tests {
    use super::*;
    use insight_rtec::engine::Engine;
    use insight_rtec::event::{Event, FluentObs, Stamped};
    use insight_rtec::window::WindowConfig;

    fn engine_with_fixture() -> Engine {
        let fx = conformance_fixture().expect("fixture builds");
        let mut engine = Engine::new(fx.rules, WindowConfig::new(100, 50).expect("window"));
        for (name, tuples) in fx.relations {
            engine.set_relation(name, tuples).expect("relation");
        }
        for name in fx.builtins {
            let f = fixture_builtin(name).expect("builtin impl");
            engine.register_builtin(name, move |args| f(args)).expect("builtin");
        }
        engine
    }

    #[test]
    fn fixture_builds_and_stratifies() {
        let fx = conformance_fixture().expect("fixture builds");
        let (sf, ev, st) =
            (fx.rules.sf_rules().len(), fx.rules.ev_rules().len(), fx.rules.static_rules().len());
        assert_eq!(sf, 13);
        assert_eq!(ev, 3);
        assert_eq!(st, 3);
        // alerting must come after alert, which must come after congested.
        let strata = fx.rules.strata();
        let pos = |n: &str| {
            strata
                .iter()
                .position(|s| s.symbol == insight_rtec::term::Symbol::new(n))
                .unwrap_or_else(|| panic!("{n} missing from strata"))
        };
        assert!(pos("congested") < pos("alert"));
        assert!(pos("alert") < pos("alerting"));
    }

    #[test]
    fn fixture_recognises_an_alert() {
        let mut engine = engine_with_fixture();
        // Sensor 0 is in `central` (watched). Flow 80 at t=10 → congested
        // holds from t=10 (initiation is co-timed), so both spikes alert.
        engine
            .add_stamped_obs(Stamped::<FluentObs>::punctual(FluentObs::new(
                "flow",
                [Term::int(0)],
                80.0,
                10,
            )))
            .expect("obs");
        engine.add_event(Event::new("spike", vec![Term::int(0)], 10)).expect("event");
        engine
            .add_stamped_obs(Stamped::<FluentObs>::punctual(FluentObs::new(
                "flow",
                [Term::int(0)],
                70.0,
                20,
            )))
            .expect("obs");
        engine.add_event(Event::new("spike", vec![Term::int(0)], 20)).expect("event");
        let rec = engine.query(50).expect("query");
        assert!(rec.holds_at("congested", &[Term::int(0)], &Term::truth(), 20));
        assert!(rec.holds_at("disturbed", &[Term::int(0)], &Term::truth(), 20));
        assert!(rec.holds_at("clear_congestion", &[Term::int(0)], &Term::truth(), 20));
        assert!(!rec.holds_at("confirmed", &[Term::int(0)], &Term::truth(), 20));
        let alerts: Vec<_> =
            rec.derived_events.iter().filter(|e| e.kind.as_str() == "alert").collect();
        assert_eq!(alerts.len(), 2);
        assert_eq!(alerts[0].time, 10);
        assert_eq!(alerts[1].time, 20);
        assert!(rec.holds_at("alerting", &[Term::sym("central")], &Term::truth(), 30));
    }

    #[test]
    fn fixture_spanning_hop() {
        let mut engine = engine_with_fixture();
        engine.add_event(Event::new("enter", vec![Term::int(7), Term::int(1)], 10)).expect("e");
        engine.add_event(Event::new("enter", vec![Term::int(7), Term::int(2)], 30)).expect("e");
        let rec = engine.query(50).expect("query");
        let hops: Vec<_> = rec.derived_events.iter().filter(|e| e.kind.as_str() == "hop").collect();
        assert_eq!(hops.len(), 1);
        assert_eq!(hops[0].args, vec![Term::int(7), Term::int(1), Term::int(2)]);
        assert_eq!(hops[0].time, 30);
    }
}
