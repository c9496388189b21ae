//! The benchmark's Dublin trace driven through hand-wired region engines,
//! so a test can wrap the `close` builtin (count its calls, watch the
//! allocator around them) — wiring otherwise identical to
//! `TrafficRecognizer::with_plan`.

use insight_datagen::mediator::{mediate, MediatorConfig};
use insight_datagen::regions::Region;
use insight_datagen::scenario::{Scenario, ScenarioConfig};
use insight_rtec::compile::CompiledPlan;
use insight_rtec::engine::{Engine, Recognition};
use insight_rtec::term::Term;
use insight_rtec::window::WindowConfig;
use insight_traffic::config::{NoisyVariant, TrafficRulesConfig};
use insight_traffic::geo::close_box_tuples;
use insight_traffic::rules::{build_ruleset, rel};
use insight_traffic::sde::to_rtec;

/// Working memory and step of the §3 deployment.
pub const WINDOW: (i64, i64) = (600, 60);

/// The trace `benchmark/` runs: the Dublin preset's city and traffic day
/// drawn from seed 2013 with a quarter of the fleet faulty; `seed` draws
/// what the mediator loses and delays.
pub fn dublin_trace(duration: i64, seed: u64) -> Scenario {
    let mut config = ScenarioConfig::dublin_jan_2013(duration, 2013);
    config.fleet.faulty_fraction = 0.25;
    let mediator = std::mem::replace(&mut config.mediator, MediatorConfig::transparent());
    let mut scenario = Scenario::generate(config).expect("scenario generates");
    scenario.sdes = mediate(std::mem::take(&mut scenario.sdes), &mediator, seed).expect("mediates");
    scenario
}

/// The benchmark's rule library.
pub fn rules() -> TrafficRulesConfig {
    TrafficRulesConfig::self_adaptive(NoisyVariant::CrowdValidated)
}

/// One engine per region with intersections, all over one compiled plan,
/// with `close` as the `close/4` builtin.
pub fn region_engines<F>(scenario: &Scenario, config: &TrafficRulesConfig, close: F) -> Vec<Engine>
where
    F: Fn(&[Term]) -> bool + Clone + Send + Sync + 'static,
{
    let plan = CompiledPlan::compile(build_ruleset(config).expect("rule set builds"));
    let window = WindowConfig::new(WINDOW.0, WINDOW.1).expect("valid window");
    Region::ALL
        .iter()
        .map(|&region| {
            let here: Vec<_> =
                scenario.scats.intersections().iter().filter(|i| i.region == region).collect();
            let mut engine = Engine::with_plan(plan.clone(), window);
            engine.register_builtin("close", close.clone()).expect("declared");
            let location = |lon: f64, lat: f64| vec![Term::float(lon), Term::float(lat)];
            let ints = here
                .iter()
                .map(|i| vec![Term::int(i.id as i64), Term::float(i.lon), Term::float(i.lat)])
                .collect();
            engine.set_relation(rel::SCATS_INTERSECTION, ints).expect("declared");
            let areas = here.iter().map(|i| location(i.lon, i.lat)).collect();
            engine.set_relation(rel::AREA, areas).expect("declared");
            let close_box = close_box_tuples(config.close_threshold_m, here.iter().map(|i| i.lat));
            engine.set_relation(rel::CLOSE_BOX, close_box).expect("declared");
            engine
        })
        .collect()
}

/// One pass over the trace: at every grid point `q` each engine receives
/// what has arrived by `q` for its region and answers `q`; one closing query
/// past the last arrival. `on_window` sees every recognition.
pub fn drive(scenario: &Scenario, engines: &mut [Engine], mut on_window: impl FnMut(&Recognition)) {
    let (start, _) = scenario.window();
    let last = scenario.sdes.last().map_or(start, |s| s.arrival);
    let mut next = 0usize;
    let mut q = start + WINDOW.1;
    loop {
        while let Some(sde) = scenario.sdes.get(next).filter(|s| s.arrival <= q) {
            let (events, obs) = to_rtec(sde);
            let engine = &mut engines[sde.region().index()];
            for e in events {
                engine.add_stamped_event(e).expect("declared event");
            }
            for o in obs {
                engine.add_stamped_obs(o).expect("declared fluent");
            }
            next += 1;
        }
        for engine in engines.iter_mut() {
            on_window(&engine.query(q).expect("monotone queries"));
        }
        if q > last {
            break;
        }
        q += WINDOW.1;
    }
}
