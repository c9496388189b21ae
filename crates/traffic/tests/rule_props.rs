//! Property-based validation of the paper's rule-sets against direct
//! reference models.

use insight_datagen::congestion::{LOWER_FLOW_THRESHOLD, UPPER_DENSITY_THRESHOLD};
use insight_rtec::engine::Engine;
use insight_rtec::event::{Event, FluentObs, Stamped};
use insight_rtec::interval::{Interval, IntervalList};
use insight_rtec::term::Term;
use insight_rtec::window::WindowConfig;
use insight_traffic::rules::{build_ruleset, ce, rel};
use insight_traffic::TrafficRulesConfig;
use proptest::prelude::*;

fn engine() -> Engine {
    let config = TrafficRulesConfig::static_mode();
    let rs = build_ruleset(&config).unwrap();
    let mut e = Engine::new(rs, WindowConfig::new(100_000, 100_000).unwrap());
    e.register_builtin("close", insight_traffic::geo::close_builtin(250.0)).unwrap();
    e.set_relation(
        rel::SCATS_INTERSECTION,
        vec![vec![Term::int(1), Term::float(-6.26), Term::float(53.35)]],
    )
    .unwrap();
    e.set_relation(rel::AREA, vec![vec![Term::float(-6.26), Term::float(53.35)]]).unwrap();
    let close_box = insight_traffic::geo::close_box_tuples(250.0, [53.35]);
    e.set_relation(rel::CLOSE_BOX, close_box).unwrap();
    e
}

/// Direct reference model of rule-set (2): scan readings in time order,
/// toggling the congestion state, and build the expected maximal intervals.
fn reference_intervals(readings: &[(i64, f64, f64)]) -> IntervalList {
    let mut intervals = Vec::new();
    let mut since: Option<i64> = None;
    for &(t, d, f) in readings {
        let congested = d >= UPPER_DENSITY_THRESHOLD && f <= LOWER_FLOW_THRESHOLD;
        match (since, congested) {
            (None, true) => since = Some(t),
            (Some(s), false) => {
                if t > s {
                    intervals.push(Interval::span(s, t));
                }
                since = None;
            }
            _ => {}
        }
    }
    if let Some(s) = since {
        intervals.push(Interval::open_from(s));
    }
    IntervalList::from_intervals(intervals)
}

proptest! {
    /// The engine's scatsCongestion intervals equal the reference scan for
    /// arbitrary reading sequences.
    #[test]
    fn scats_congestion_matches_reference_model(
        raw in proptest::collection::vec((0.0f64..130.0, 0.0f64..1900.0), 1..40)
    ) {
        // Readings every 360 s starting at 360 (inside the window).
        let readings: Vec<(i64, f64, f64)> = raw
            .iter()
            .enumerate()
            .map(|(i, &(d, f))| ((i as i64 + 1) * 360, d, f))
            .collect();

        let mut e = engine();
        for &(t, d, f) in &readings {
            e.add_event(Event::new(
                "traffic",
                [Term::int(1), Term::int(0), Term::int(5), Term::float(d), Term::float(f)],
                t,
            ))
            .unwrap();
        }
        let rec = e.query(100_000).unwrap();
        let expected = reference_intervals(&readings);
        let actual = rec
            .intervals_of(
                ce::SCATS_CONGESTION,
                &[Term::int(1), Term::int(0), Term::int(5)],
                &Term::truth(),
            )
            .cloned()
            .unwrap_or_else(IntervalList::empty);
        prop_assert_eq!(actual, expected);
    }

    /// sourceDisagreement == busCongestion \ scatsIntCongestion for random
    /// interleavings of bus reports and SCATS readings at one intersection.
    #[test]
    fn source_disagreement_is_exact_relative_complement(
        bus_flags in proptest::collection::vec(proptest::bool::ANY, 1..20),
        scats_cong in proptest::collection::vec(proptest::bool::ANY, 1..12),
    ) {
        let mut e = engine();
        // Bus reports every 100 s; SCATS readings every 360 s.
        for (i, &flag) in bus_flags.iter().enumerate() {
            let t = (i as i64 + 1) * 100;
            e.add_event(Event::new(
                "move",
                [Term::int(7), Term::int(1), Term::int(0), Term::int(0)],
                t,
            ))
            .unwrap();
            e.add_stamped_obs(Stamped::<FluentObs>::punctual(FluentObs::new(
                "gps",
                [
                    Term::int(7),
                    Term::float(-6.26),
                    Term::float(53.35),
                    Term::int(0),
                    Term::int(flag as i64),
                ],
                true,
                t,
            )))
            .unwrap();
        }
        for (i, &cong) in scats_cong.iter().enumerate() {
            let t = (i as i64 + 1) * 360;
            let (d, f) = if cong { (100.0, 900.0) } else { (30.0, 1700.0) };
            e.add_event(Event::new(
                "traffic",
                [Term::int(1), Term::int(0), Term::int(5), Term::float(d), Term::float(f)],
                t,
            ))
            .unwrap();
        }
        let rec = e.query(100_000).unwrap();
        let key = [Term::float(-6.26), Term::float(53.35)];
        let bus = rec
            .intervals_of(ce::BUS_CONGESTION, &key, &Term::truth())
            .cloned()
            .unwrap_or_else(IntervalList::empty);
        let scats = rec
            .intervals_of(ce::SCATS_INT_CONGESTION, &key, &Term::truth())
            .cloned()
            .unwrap_or_else(IntervalList::empty);
        let disagreement = rec
            .intervals_of(ce::SOURCE_DISAGREEMENT, &key, &Term::truth())
            .cloned()
            .unwrap_or_else(IntervalList::empty);
        prop_assert_eq!(disagreement, bus.difference(&scats));
    }
}
