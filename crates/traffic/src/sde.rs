//! Conversion of scenario SDE records into RTEC input facts.
//!
//! A bus probe record becomes the pair of facts of formalisation (1):
//!
//! ```text
//! happensAt(move(Bus, Line, Operator, Delay), T)
//! holdsAt(gps(Bus, Lon, Lat, Direction, Congestion) = true, T)
//! ```
//!
//! and a SCATS record becomes
//!
//! ```text
//! happensAt(traffic(Int, A, S, D, F), T)
//! ```
//!
//! The `crowd(LonInt, LatInt, Val)` events produced by the crowdsourcing
//! component are also input events of the rule library.

use insight_datagen::stream::{BusRecord, ScatsRecord, Sde, SdeBody};
use insight_rtec::event::{Event, FluentObs, Stamped};
use insight_rtec::term::Term;

/// Symbol names of the input SDE vocabulary.
pub mod names {
    /// `move(Bus, Line, Operator, Delay)` event.
    pub(crate) const MOVE: &str = "move";
    /// `gps(Bus, Lon, Lat, Direction, Congestion)` input fluent.
    pub(crate) const GPS: &str = "gps";
    /// `traffic(Int, A, S, D, F)` event.
    pub(crate) const TRAFFIC: &str = "traffic";
    /// `crowd(LonInt, LatInt, Val)` event from the crowdsourcing component.
    pub(crate) const CROWD: &str = "crowd";
    /// `citizenReport(User, Lon, Lat, Polarity)` — classified
    /// micro-blogging report (extension source).
    pub(crate) const CITIZEN_REPORT: &str = "citizenReport";
}

/// Crowd answer values.
pub mod vals {
    use insight_rtec::term::Term;

    /// There is a congestion according to the crowd.
    pub(crate) fn positive() -> Term {
        Term::sym("positive")
    }

    /// No congestion according to the crowd.
    pub(crate) fn negative() -> Term {
        Term::sym("negative")
    }

    /// Maps a boolean congestion answer to `positive`/`negative`.
    pub(crate) fn of_bool(congested: bool) -> Term {
        if congested {
            positive()
        } else {
            negative()
        }
    }
}

/// The `move` event of a bus record.
pub(crate) fn move_event(r: &BusRecord, time: i64) -> Event {
    Event::new(
        names::MOVE,
        [
            Term::int(r.bus as i64),
            Term::int(r.line as i64),
            Term::int(r.operator as i64),
            Term::int(r.delay_s),
        ],
        time,
    )
}

/// The `gps` fluent observation of a bus record.
pub(crate) fn gps_obs(r: &BusRecord, time: i64) -> FluentObs {
    FluentObs::new(
        names::GPS,
        [
            Term::int(r.bus as i64),
            Term::float(r.lon),
            Term::float(r.lat),
            Term::int(r.direction as i64),
            Term::int(r.congestion as i64),
        ],
        true,
        time,
    )
}

/// The `traffic` event of a SCATS record.
pub(crate) fn traffic_event(r: &ScatsRecord, time: i64) -> Event {
    Event::new(
        names::TRAFFIC,
        [
            Term::int(r.intersection as i64),
            Term::int(r.approach as i64),
            Term::int(r.sensor as i64),
            Term::float(r.density),
            Term::float(r.flow),
        ],
        time,
    )
}

/// A `crowd(LonInt, LatInt, Val)` event.
pub(crate) fn crowd_event(lon: f64, lat: f64, congested: bool, time: i64) -> Event {
    Event::new(names::CROWD, [Term::float(lon), Term::float(lat), vals::of_bool(congested)], time)
}

/// Classifies a citizen report's text and converts it into a
/// `citizenReport(User, Lon, Lat, Polarity)` event; chatter yields `None`.
pub(crate) fn citizen_report_event(
    report: &insight_datagen::citizens::CitizenReport,
) -> Option<Event> {
    let congested = insight_datagen::citizens::classify(&report.text)?;
    Some(Event::new(
        names::CITIZEN_REPORT,
        [
            Term::int(report.user as i64),
            Term::float(report.lon),
            Term::float(report.lat),
            Term::int(congested as i64),
        ],
        report.time,
    ))
}

/// The RTEC input facts of one scenario SDE, preserving its arrival time.
pub fn to_rtec(sde: &Sde) -> (Vec<Stamped<Event>>, Vec<Stamped<FluentObs>>) {
    match &sde.body {
        SdeBody::Bus(r) => (
            vec![Stamped::arriving_at(move_event(r, sde.time), sde.arrival)],
            vec![Stamped::arriving_at(gps_obs(r, sde.time), sde.arrival)],
        ),
        SdeBody::Scats(r) => {
            (vec![Stamped::arriving_at(traffic_event(r, sde.time), sde.arrival)], vec![])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus_record() -> BusRecord {
        BusRecord {
            bus: 33009,
            line: 10,
            operator: 7,
            delay_s: 400,
            lon: -6.26,
            lat: 53.35,
            direction: 1,
            congestion: true,
        }
    }

    #[test]
    fn move_event_matches_paper_example() {
        let e = move_event(&bus_record(), 99);
        assert_eq!(e.to_string(), "happensAt(move(33009, 10, 7, 400), 99)");
    }

    #[test]
    fn gps_obs_encodes_flags_as_ints() {
        let o = gps_obs(&bus_record(), 99);
        assert_eq!(o.args[3], Term::int(1));
        assert_eq!(o.args[4], Term::int(1));
        assert_eq!(o.value, Term::Bool(true));
    }

    #[test]
    fn traffic_event_carries_measurements() {
        let r = ScatsRecord {
            intersection: 5,
            approach: 2,
            sensor: 17,
            density: 90.0,
            flow: 1200.0,
            lon: -6.3,
            lat: 53.34,
        };
        let e = traffic_event(&r, 360);
        assert_eq!(e.args.len(), 5);
        assert_eq!(e.args[0], Term::int(5));
        assert_eq!(e.args[3], Term::float(90.0));
    }

    #[test]
    fn crowd_event_values() {
        let e = crowd_event(-6.26, 53.35, true, 5);
        assert_eq!(e.args[2], Term::sym("positive"));
        let e = crowd_event(-6.26, 53.35, false, 5);
        assert_eq!(e.args[2], Term::sym("negative"));
    }

    #[test]
    fn to_rtec_preserves_arrival() {
        let sde = Sde { time: 100, arrival: 130, body: SdeBody::Bus(bus_record()) };
        let (events, obs) = to_rtec(&sde);
        assert_eq!(events.len(), 1);
        assert_eq!(obs.len(), 1);
        assert_eq!(events[0].arrival, 130);
        assert_eq!(events[0].item.time, 100);
        assert_eq!(obs[0].arrival, 130);
    }
}
