//! A typed facade over one RTEC engine running the traffic rule library.

use crate::config::TrafficRulesConfig;
use crate::geo::{close_box_tuples, close_builtin};
use crate::rules::{build_ruleset, ce, rel};
use crate::sde;
use insight_datagen::regions::Region;
use insight_datagen::scats::{ScatsDeployment, ScatsIntersection, ScatsSensor};
use insight_datagen::stream::Sde;
use insight_rtec::compile::CompiledPlan;
use insight_rtec::engine::{Engine, Recognition};
use insight_rtec::error::RtecError;
use insight_rtec::event::Event;
use insight_rtec::interval::IntervalList;
use insight_rtec::term::Term;
use insight_rtec::time::Time;
use insight_rtec::window::WindowConfig;
use std::collections::HashSet;
use std::sync::Arc;

/// An instrumented intersection as the recogniser needs it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IntersectionInfo {
    /// Intersection id.
    pub id: i64,
    /// Longitude.
    pub lon: f64,
    /// Latitude.
    pub lat: f64,
}

/// One engine + the traffic rule library.
pub struct TrafficRecognizer {
    engine: Engine,
    config: TrafficRulesConfig,
}

impl TrafficRecognizer {
    /// Builds a recogniser for the given intersections, compiling the rule
    /// library `config` selects. The areas of interest default to the
    /// intersection locations (the paper's choice); `extra_areas` adds more.
    /// Without the deployment's sensors, the `scats_approach` and
    /// `scats_sensor_pair` relations stay empty: build from a deployment
    /// ([`TrafficRecognizer::from_deployment`],
    /// [`TrafficRecognizer::with_plan`]) to use the rules over them.
    pub fn new(
        config: TrafficRulesConfig,
        window: WindowConfig,
        intersections: &[IntersectionInfo],
        extra_areas: &[(f64, f64)],
    ) -> Result<TrafficRecognizer, RtecError> {
        let mut config = config;
        if !extra_areas.is_empty() {
            // Extra areas of interest: busCongestion must run its own
            // spatial join over the `area` relation.
            config.shared_spatial_join = false;
        }
        let plan = CompiledPlan::compile(build_ruleset(&config)?);
        TrafficRecognizer::assemble(plan, config, window, intersections, extra_areas)
    }

    /// Builds a recogniser covering a whole SCATS deployment.
    pub fn from_deployment(
        config: TrafficRulesConfig,
        window: WindowConfig,
        scats: &ScatsDeployment,
    ) -> Result<TrafficRecognizer, RtecError> {
        let plan = CompiledPlan::compile(build_ruleset(&config)?);
        TrafficRecognizer::with_plan(plan, config, window, scats, None)
    }

    /// Builds a recogniser for the intersections of `scats` in `region` (all
    /// of them for `None`) over an already compiled rule library, so that
    /// recognisers serving different regions (region engines, shard
    /// replicas, a replica rebuilt after a crash) share one plan. `plan` and
    /// `config` must belong together: compile `plan` from
    /// [`build_ruleset`]`(&config)`, or take it ([`TrafficRecognizer::plan`])
    /// from a recogniser [`TrafficRecognizer::new`] built with that
    /// `config`.
    pub fn with_plan(
        plan: Arc<CompiledPlan>,
        config: TrafficRulesConfig,
        window: WindowConfig,
        scats: &ScatsDeployment,
        region: Option<Region>,
    ) -> Result<TrafficRecognizer, RtecError> {
        let intersections: Vec<&ScatsIntersection> = (scats.intersections().iter())
            .filter(|i| region.is_none_or(|r| i.region == r))
            .collect();
        let infos: Vec<IntersectionInfo> = (intersections.iter())
            .map(|i| IntersectionInfo { id: i.id as i64, lon: i.lon, lat: i.lat })
            .collect();
        let mut rec = TrafficRecognizer::assemble(plan, config, window, &infos, &[])?;
        rec.set_sensor_relations(&intersections, scats.sensors())?;
        Ok(rec)
    }

    /// An engine over `plan` with the relations every rule library joins
    /// over: the intersections and the areas of interest.
    fn assemble(
        plan: Arc<CompiledPlan>,
        config: TrafficRulesConfig,
        window: WindowConfig,
        intersections: &[IntersectionInfo],
        extra_areas: &[(f64, f64)],
    ) -> Result<TrafficRecognizer, RtecError> {
        let mut engine = Engine::with_plan(plan, window);
        engine.register_builtin("close", close_builtin(config.close_threshold_m))?;
        engine.set_relation(
            rel::SCATS_INTERSECTION,
            intersections
                .iter()
                .map(|i| vec![Term::int(i.id), Term::float(i.lon), Term::float(i.lat)])
                .collect(),
        )?;
        let mut areas: Vec<Vec<Term>> =
            intersections.iter().map(|i| vec![Term::float(i.lon), Term::float(i.lat)]).collect();
        areas
            .extend(extra_areas.iter().map(|&(lon, lat)| vec![Term::float(lon), Term::float(lat)]));
        engine.set_relation(rel::AREA, areas)?;
        // The box `close` implies over every latitude either relation holds.
        let lats = intersections.iter().map(|i| i.lat).chain(extra_areas.iter().map(|a| a.1));
        engine.set_relation(rel::CLOSE_BOX, close_box_tuples(config.close_threshold_m, lats))?;
        Ok(TrafficRecognizer { engine, config })
    }

    /// Fills the relations over the sensors of `intersections` that the
    /// configuration declares: `scats_approach` for approach congestion,
    /// `scats_sensor_pair` for two-sensor intersection congestion.
    fn set_sensor_relations(
        &mut self,
        intersections: &[&ScatsIntersection],
        sensors: &[ScatsSensor],
    ) -> Result<(), RtecError> {
        if self.config.approach_congestion {
            let ids: HashSet<u32> = intersections.iter().map(|i| i.id).collect();
            let mut approaches: Vec<Vec<Term>> = (sensors.iter())
                .filter(|s| ids.contains(&s.intersection))
                .map(|s| vec![Term::int(s.intersection as i64), Term::int(s.approach as i64)])
                .collect();
            approaches.sort();
            approaches.dedup();
            self.engine.set_relation(rel::SCATS_APPROACH, approaches)?;
        }
        if self.config.intersection_congestion_n == 2 {
            let mut pairs: Vec<Vec<Term>> = Vec::new();
            for i in intersections {
                for (a, &s1) in i.sensors.iter().enumerate() {
                    for &s2 in &i.sensors[a + 1..] {
                        pairs.push(vec![
                            Term::int(i.id as i64),
                            Term::int(s1 as i64),
                            Term::int(s2 as i64),
                        ]);
                    }
                }
            }
            self.engine.set_relation(rel::SCATS_SENSOR_PAIR, pairs)?;
        }
        Ok(())
    }

    /// The compiled rule library this recogniser runs (see
    /// [`TrafficRecognizer::with_plan`]).
    pub fn plan(&self) -> &Arc<CompiledPlan> {
        self.engine.plan()
    }

    /// A standalone full snapshot of the underlying engine's windowed
    /// recognition state (see [`Engine::snapshot_state`]); restore into a
    /// recogniser rebuilt with the same configuration and intersections.
    pub fn snapshot_state(&self) -> Vec<u8> {
        self.engine.snapshot_state()
    }

    /// Restores state captured by [`TrafficRecognizer::snapshot_state`]
    /// (see [`Engine::restore_state`]).
    pub fn restore_state(&mut self, snapshot: &[u8]) -> Result<(), RtecError> {
        self.engine.restore_state(snapshot)
    }

    /// A checkpoint barrier's full snapshot (see [`Engine::checkpoint_full`]).
    pub fn checkpoint_full(&mut self, out: &mut Vec<u8>) {
        self.engine.checkpoint_full(out)
    }

    /// A checkpoint barrier's delta, if the engine keeps a cursor (see
    /// [`Engine::checkpoint_delta`]).
    pub fn checkpoint_delta(&mut self, out: &mut Vec<u8>) -> bool {
        self.engine.checkpoint_delta(out)
    }

    /// Restores a checkpoint chain (see [`Engine::restore_chain`]).
    pub fn restore_chain(&mut self, base: &[u8], deltas: &[&[u8]]) -> Result<(), RtecError> {
        self.engine.restore_chain(base, deltas)
    }

    /// Ingests one scenario SDE (move+gps or traffic), preserving its
    /// arrival time.
    pub fn ingest(&mut self, record: &Sde) -> Result<(), RtecError> {
        let (events, obs) = sde::to_rtec(record);
        for e in events {
            self.engine.add_stamped_event(e)?;
        }
        for o in obs {
            self.engine.add_stamped_obs(o)?;
        }
        Ok(())
    }

    /// Ingests a crowd answer for the intersection at `(lon, lat)`.
    pub(crate) fn ingest_crowd(
        &mut self,
        lon: f64,
        lat: f64,
        congested: bool,
        time: Time,
    ) -> Result<(), RtecError> {
        self.engine.add_event(sde::crowd_event(lon, lat, congested, time))
    }

    /// Ingests a citizen report (only meaningful when
    /// `config.citizen_reports` is enabled); chatter is silently skipped.
    pub fn ingest_citizen_report(
        &mut self,
        report: &insight_datagen::citizens::CitizenReport,
    ) -> Result<(), RtecError> {
        match sde::citizen_report_event(report) {
            Some(event) => self.engine.add_event(event),
            None => Ok(()),
        }
    }

    /// Runs recognition at query time `q`.
    pub fn query(&mut self, q: Time) -> Result<TrafficRecognition, RtecError> {
        Ok(TrafficRecognition { raw: self.engine.query(q)? })
    }
}

/// Typed access to the CEs recognised at one query time.
#[derive(Debug, Clone)]
pub struct TrafficRecognition {
    /// The underlying engine result.
    pub raw: Recognition,
}

// The engine delivers groundings in key order, and keys compare interned
// symbols by id — an order that depends on what the process interned first.
// Every typed accessor below therefore sorts by a value-based key: callers
// (alert feeds, the proactive controller, golden snapshots) see the same
// order on every run.
fn location_entries<'a>(raw: &'a Recognition, fluent: &str) -> Vec<((f64, f64), &'a IntervalList)> {
    let mut entries: Vec<((f64, f64), &IntervalList)> = raw
        .fluent_entries(fluent)
        .iter()
        .filter_map(|e| match (e.args.first()?.as_f64(), e.args.get(1)?.as_f64()) {
            (Some(lon), Some(lat)) => Some(((lon, lat), &e.ivs)),
            _ => None,
        })
        .collect();
    entries.sort_by(|a, b| a.0 .0.total_cmp(&b.0 .0).then(a.0 .1.total_cmp(&b.0 .1)));
    entries
}

/// Sorts events by `(time, rendered args)` — a value-based key, unlike the
/// interned-symbol `Ord` on [`Event`]'s fields, whose order depends on
/// process-global interning order.
fn sorted_events(mut events: Vec<&Event>) -> Vec<&Event> {
    events
        .sort_by_cached_key(|e| (e.time, e.args.iter().map(|a| a.to_string()).collect::<Vec<_>>()));
    events
}

impl TrafficRecognition {
    /// `scatsIntCongestion` intervals per intersection location.
    pub fn congested_intersections(&self) -> Vec<((f64, f64), &IntervalList)> {
        location_entries(&self.raw, ce::SCATS_INT_CONGESTION)
    }

    /// `busCongestion` intervals per area of interest.
    pub fn bus_congestions(&self) -> Vec<((f64, f64), &IntervalList)> {
        location_entries(&self.raw, ce::BUS_CONGESTION)
    }

    /// `sourceDisagreement` intervals per intersection location.
    pub fn source_disagreements(&self) -> Vec<((f64, f64), &IntervalList)> {
        location_entries(&self.raw, ce::SOURCE_DISAGREEMENT)
    }

    /// Source disagreements whose intervals are still open at the query
    /// time — the ones worth crowdsourcing about right now. Sorted by
    /// `(lon, lat)` so the list (and in particular which disagreement a
    /// caller picks "first") is independent of the engine's internal
    /// grounding order, which varies with SDE ingestion order.
    pub fn open_disagreements(&self) -> Vec<(f64, f64)> {
        let q = self.raw.query_time;
        let mut open: Vec<(f64, f64)> = self
            .source_disagreements()
            .into_iter()
            .filter(|(_, ivs)| ivs.contains(q) || ivs.iter().any(|iv| iv.is_open()))
            .map(|(loc, _)| loc)
            .collect();
        open.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        open
    }

    /// `noisy(Bus)` intervals per bus id, sorted by bus id.
    pub fn noisy_buses(&self) -> Vec<(i64, &IntervalList)> {
        let mut buses: Vec<(i64, &IntervalList)> = self
            .raw
            .fluent_entries(ce::NOISY)
            .iter()
            .filter_map(|e| e.args.first()?.as_i64().map(|b| (b, &e.ivs)))
            .collect();
        buses.sort_by_key(|(b, _)| *b);
        buses
    }

    /// `delayIncrease` events, time-sorted.
    pub fn delay_increases(&self) -> Vec<&Event> {
        sorted_events(self.raw.events_of(ce::DELAY_INCREASE))
    }

    /// Number of `delayIncrease` events — without sorting them, which
    /// renders every argument of every event for its sort key.
    pub fn delay_increase_count(&self) -> usize {
        self.raw.events_of(ce::DELAY_INCREASE).len()
    }

    /// Flow/density trend events, time-sorted.
    pub fn trend_events(&self) -> Vec<&Event> {
        let mut v = self.raw.events_of(ce::FLOW_TREND);
        v.extend(self.raw.events_of(ce::DENSITY_TREND));
        sorted_events(v)
    }

    /// Number of input SDE facts inside this window.
    pub fn sde_count(&self) -> usize {
        self.raw.sde_count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use insight_datagen::scenario::{Scenario, ScenarioConfig};

    fn window() -> WindowConfig {
        WindowConfig::new(1800, 1800).unwrap()
    }

    #[test]
    fn runs_over_a_generated_scenario() {
        let scenario = Scenario::generate(ScenarioConfig::small(1800, 21)).unwrap();
        let mut rec = TrafficRecognizer::from_deployment(
            TrafficRulesConfig::default(),
            window(),
            &scenario.scats,
        )
        .unwrap();
        for sde in &scenario.sdes {
            rec.ingest(sde).unwrap();
        }
        let (_, end) = scenario.window();
        let result = rec.query(end).unwrap();
        assert!(result.sde_count() > 0);
        // The rush-hour scenario must produce at least some congestion
        // evidence from one of the sources.
        let evidence = result.congested_intersections().len()
            + result.bus_congestions().len()
            + sorted_events(result.raw.events_of(ce::DISAGREE)).len();
        assert!(evidence > 0, "no CEs recognised over a rush-hour scenario");
    }

    #[test]
    fn faulty_buses_become_noisy_in_adaptive_mode() {
        let mut cfg = ScenarioConfig::small(1800, 33);
        cfg.fleet.faulty_fraction = 0.5;
        let scenario = Scenario::generate(cfg).unwrap();
        let mut rec = TrafficRecognizer::from_deployment(
            TrafficRulesConfig::default(),
            window(),
            &scenario.scats,
        )
        .unwrap();
        for s in &scenario.sdes {
            rec.ingest(s).unwrap();
        }
        let (_, end) = scenario.window();
        let result = rec.query(end).unwrap();
        if sorted_events(result.raw.events_of(ce::DISAGREE)).is_empty() {
            // The scenario happened to produce no close encounters; the
            // other tests cover the rule logic deterministically.
            return;
        }
        assert!(
            !result.noisy_buses().is_empty(),
            "disagreeing buses should be marked noisy under the pessimistic variant"
        );
        // Noisy buses are predominantly the faulty ones.
        let faulty: Vec<i64> =
            scenario.fleet.buses.iter().filter(|b| b.faulty).map(|b| b.id as i64).collect();
        let noisy_ids: Vec<i64> = result.noisy_buses().iter().map(|&(b, _)| b).collect();
        let hits = noisy_ids.iter().filter(|b| faulty.contains(b)).count();
        assert!(
            hits * 2 >= noisy_ids.len(),
            "noisy set should be dominated by faulty buses: {hits}/{}",
            noisy_ids.len()
        );
    }

    #[test]
    fn crowd_input_flows_into_recognition() {
        let intersections = [IntersectionInfo { id: 1, lon: -6.26, lat: 53.35 }];
        let mut rec =
            TrafficRecognizer::new(TrafficRulesConfig::default(), window(), &intersections, &[])
                .unwrap();
        rec.ingest_crowd(-6.26, 53.35, true, 100).unwrap();
        let result = rec.query(1800).unwrap();
        // The crowd event itself is an input; recognition just must accept it.
        assert_eq!(result.sde_count(), 1);
    }

    #[test]
    fn ingest_rejects_nothing_from_valid_scenarios() {
        let scenario = Scenario::generate(ScenarioConfig::small(600, 5)).unwrap();
        let mut rec = TrafficRecognizer::from_deployment(
            TrafficRulesConfig::static_mode(),
            window(),
            &scenario.scats,
        )
        .unwrap();
        for s in &scenario.sdes {
            rec.ingest(s).unwrap();
        }
        assert!(rec.engine.buffered() > 0);
    }
}
