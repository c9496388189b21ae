//! The closed-loop system: windows, crowdsourcing, feedback, alerts.
//!
//! [`InsightSystem`] drives the whole Figure 1 architecture over a generated
//! scenario: at every query time the four region engines recognise CEs;
//! open `sourceDisagreement` CEs are handed to the crowdsourcing component,
//! whose verdicts (a) label the operator alert and (b) are fed back into
//! RTEC as `crowd` events — letting the `noisy(Bus)` rule-sets act on them —
//! and into the traffic-modelling service.

use crate::alerts::OperatorAlert;
use crate::crowdbridge::{CrowdBridge, CrowdBridgeConfig};
use crate::modelsvc::TrafficModelService;
use insight_crowd::error::CrowdError;
use insight_datagen::congestion::CAPACITY;
use insight_datagen::error::DatagenError;
use insight_datagen::scenario::{Scenario, ScenarioConfig};
use insight_datagen::stream::SdeBody;
use insight_gp::kernel::RegularizedLaplacian;
use insight_gp::GpError;
use insight_rtec::error::RtecError;
use insight_rtec::window::WindowConfig;
use insight_streams::metrics::{MetricsRegistry, MetricsSnapshot};
use insight_traffic::{DistributedRecognizer, TrafficRulesConfig};
use std::collections::HashSet;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Errors of the integrated system.
#[derive(Debug)]
pub enum SystemError {
    /// Scenario generation failed.
    Datagen(DatagenError),
    /// Recognition failed.
    Rtec(RtecError),
    /// Crowdsourcing failed.
    Crowd(CrowdError),
    /// Traffic modelling failed.
    Gp(GpError),
}

impl fmt::Display for SystemError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SystemError::Datagen(e) => write!(f, "datagen: {e}"),
            SystemError::Rtec(e) => write!(f, "rtec: {e}"),
            SystemError::Crowd(e) => write!(f, "crowd: {e}"),
            SystemError::Gp(e) => write!(f, "gp: {e}"),
        }
    }
}

impl std::error::Error for SystemError {}

impl From<DatagenError> for SystemError {
    fn from(e: DatagenError) -> Self {
        SystemError::Datagen(e)
    }
}
impl From<RtecError> for SystemError {
    fn from(e: RtecError) -> Self {
        SystemError::Rtec(e)
    }
}
impl From<CrowdError> for SystemError {
    fn from(e: CrowdError) -> Self {
        SystemError::Crowd(e)
    }
}
impl From<GpError> for SystemError {
    fn from(e: GpError) -> Self {
        SystemError::Gp(e)
    }
}

/// Configuration of the integrated system.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// The scenario to run over.
    pub scenario: ScenarioConfig,
    /// The CE rule configuration.
    pub rules: TrafficRulesConfig,
    /// RTEC working memory / step.
    pub window: WindowConfig,
    /// Crowdsourcing configuration.
    pub crowd: CrowdBridgeConfig,
    /// GP kernel hyperparameters `(alpha, beta)`.
    pub gp_hyper: (f64, f64),
    /// GP observation noise.
    pub gp_noise: f64,
}

impl SystemConfig {
    /// A small, fast configuration for tests and the quickstart example.
    pub fn small(duration: i64, seed: u64) -> SystemConfig {
        SystemConfig {
            scenario: ScenarioConfig::small(duration, seed),
            // Rule-set (4): buses stay trusted until the crowd sides with
            // the SCATS sensors, so `sourceDisagreement` CEs can form and
            // the full crowdsourcing loop of Figure 1 is exercised.
            rules: TrafficRulesConfig::self_adaptive(insight_traffic::NoisyVariant::CrowdValidated),
            window: WindowConfig::new(600, 300).expect("static window"),
            crowd: CrowdBridgeConfig::default(),
            gp_hyper: (3.0, 1.0),
            gp_noise: 0.1,
        }
    }
}

/// Statistics of one recognition window.
#[derive(Debug, Clone, PartialEq)]
pub struct WindowStats {
    /// Query time.
    pub query_time: i64,
    /// SDEs inside the window (across regions).
    pub sde_count: usize,
    /// Wall-clock recognition time (max over the parallel regions).
    pub recognition_time: Duration,
    /// Source disagreements open at this query.
    pub open_disagreements: usize,
    /// Crowd resolutions performed in this window.
    pub resolutions: usize,
}

/// Fault counters of one stage, extracted from a [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StageFaults {
    /// Failed processor invocations (errors + panics).
    pub faults: u64,
    /// The subset of `faults` that were isolated panics.
    pub panics: u64,
    /// Items dropped by a `Skip` policy.
    pub skipped: u64,
    /// Items moved to the dead-letter queue.
    pub dead_letters: u64,
}

/// Aggregated fault/degradation picture of a run: per-stage supervision
/// counters plus the pipeline-level graceful-degradation counters (malformed
/// SDEs skipped by RTEC, SDEs lost to lateness, sensor-only crowd fallbacks,
/// crowd task retries).
#[derive(Debug, Clone, Default)]
pub struct FaultReport {
    /// Stages that recorded at least one fault, skip, or dead letter.
    pub per_stage: std::collections::BTreeMap<String, StageFaults>,
    /// SDE items that failed schema validation and were skipped by RTEC
    /// (summed over the `rtec.<region>.malformed_sdes` counters).
    pub malformed_sdes: u64,
    /// Input facts that arrived after a query had passed their occurrence
    /// but still inside the working memory, and were amended into a later
    /// window (summed over `rtec.<region>.sdes_amended`). What `WM > step`
    /// is for — reported beside the losses, not a degradation itself.
    pub sdes_amended: u64,
    /// Input facts RTEC dropped unseen: by the time they arrived, their
    /// occurrence was behind the window start (summed over
    /// `rtec.<region>.sdes_lost`).
    pub sdes_lost: u64,
    /// Disagreements resolved sensor-only because the crowd engine errored.
    pub crowd_fallbacks: u64,
    /// Deadline-missed crowd tasks re-assigned to a faster worker.
    pub crowd_retries: u64,
}

impl FaultReport {
    /// Extracts the fault picture from a metrics snapshot (works for both
    /// [`InsightSystem::run`] reports and Streams runtime registries).
    pub fn from_snapshot(snap: &MetricsSnapshot) -> FaultReport {
        let mut report = FaultReport::default();
        for (name, stage) in &snap.stages {
            let faults = StageFaults {
                faults: stage.faults,
                panics: stage.panics,
                skipped: stage.skipped,
                dead_letters: stage.dead_letters,
            };
            if faults != StageFaults::default() {
                report.per_stage.insert(name.clone(), faults);
            }
        }
        for (name, &value) in &snap.counters {
            if name.ends_with(".malformed_sdes") {
                report.malformed_sdes += value;
            } else if name.ends_with(".sdes_amended") {
                report.sdes_amended += value;
            } else if name.ends_with(".sdes_lost") {
                report.sdes_lost += value;
            }
        }
        report.crowd_fallbacks = snap.counters.get("crowd.fallbacks").copied().unwrap_or(0);
        report.crowd_retries = snap.counters.get("crowd.retries").copied().unwrap_or(0);
        report
    }

    /// Total failed processor invocations across all stages.
    pub(crate) fn total_faults(&self) -> u64 {
        self.per_stage.values().map(|s| s.faults).sum()
    }

    /// True when the run saw no faults and no degradation at all.
    pub(crate) fn is_clean(&self) -> bool {
        self.per_stage.is_empty()
            && self.malformed_sdes == 0
            && self.sdes_lost == 0
            && self.crowd_fallbacks == 0
            && self.crowd_retries == 0
    }
}

impl fmt::Display for FaultReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return write!(f, "no faults");
        }
        writeln!(
            f,
            "{} stage faults, {} malformed SDEs, {} SDEs lost to lateness ({} amended), \
             {} crowd fallbacks, {} crowd retries",
            self.total_faults(),
            self.malformed_sdes,
            self.sdes_lost,
            self.sdes_amended,
            self.crowd_fallbacks,
            self.crowd_retries
        )?;
        for (stage, s) in &self.per_stage {
            writeln!(
                f,
                "  {stage}: faults {} (panics {}), skipped {}, dead-letters {}",
                s.faults, s.panics, s.skipped, s.dead_letters
            )?;
        }
        Ok(())
    }
}

/// The report of a completed run.
#[derive(Debug, Clone)]
pub struct SystemReport {
    /// All alerts in emission order.
    pub alerts: Vec<OperatorAlert>,
    /// Proactive control recommendations `(issued at, action)`.
    pub control_actions: Vec<(i64, crate::proactive::ControlAction)>,
    /// Per-window statistics.
    pub windows: Vec<WindowStats>,
    /// Crowd verdict accuracy against the scenario's ground truth
    /// (`None` when no disagreement was crowdsourced).
    pub crowd_accuracy: Option<f64>,
    /// Junction coverage: `(observed, estimated)` by the traffic model.
    pub model_coverage: (usize, usize),
    /// Observability snapshot taken at the end of the run: per-window RTEC
    /// latencies, SDE/crowd counters. JSON-serialisable via
    /// [`MetricsSnapshot::to_json`].
    pub metrics: MetricsSnapshot,
    /// Fault and graceful-degradation counters extracted from `metrics`.
    pub faults: FaultReport,
}

impl SystemReport {
    /// Alerts of a specific kind.
    pub fn alerts_where(&self, pred: impl Fn(&OperatorAlert) -> bool) -> Vec<&OperatorAlert> {
        self.alerts.iter().filter(|a| pred(a)).collect()
    }
}

/// The integrated system.
pub struct InsightSystem {
    config: SystemConfig,
    scenario: Scenario,
    recognizer: DistributedRecognizer,
    crowd: CrowdBridge,
    model: TrafficModelService,
    controller: crate::proactive::ProactiveController,
    metrics: Arc<MetricsRegistry>,
}

impl InsightSystem {
    /// Generates the scenario and assembles all components.
    pub fn new(config: SystemConfig) -> Result<InsightSystem, SystemError> {
        let scenario = Scenario::generate(config.scenario.clone())?;
        let recognizer = DistributedRecognizer::from_deployment(
            config.rules.clone(),
            config.window,
            &scenario.scats,
        )?;
        let centre = {
            let (x0, y0, x1, y1) = scenario.network.bbox();
            ((x0 + x1) / 2.0, (y0 + y1) / 2.0)
        };
        let crowd = CrowdBridge::new(&config.crowd, centre, config.scenario.seed)?;
        let kernel = RegularizedLaplacian::new(config.gp_hyper.0, config.gp_hyper.1)
            .map_err(SystemError::Gp)?;
        let model = TrafficModelService::new(&scenario.network, kernel, config.gp_noise);
        let controller = crate::proactive::ProactiveController::new(
            crate::proactive::ControllerConfig::default(),
        );
        Ok(InsightSystem {
            config,
            scenario,
            recognizer,
            crowd,
            model,
            controller,
            metrics: Arc::new(MetricsRegistry::new()),
        })
    }

    /// The generated scenario.
    pub fn scenario(&self) -> &Scenario {
        &self.scenario
    }

    /// The traffic-modelling service.
    pub fn model(&self) -> &TrafficModelService {
        &self.model
    }

    /// Renders the operator map: the traffic model's flow estimate at every
    /// junction as a green→red PPM image (the paper's "simple, intuitive
    /// interactive map" requirement, §2). Call after [`InsightSystem::run`]
    /// so the model has observations.
    pub fn render_map(&self, width: usize, height: usize) -> Result<String, SystemError> {
        let posterior = self.model.estimate_all()?;
        let values: Vec<(usize, f64)> =
            posterior.targets.iter().copied().zip(posterior.mean.iter().copied()).collect();
        Ok(insight_gp::render::render_ppm(self.model.graph(), &values, width, height, 2))
    }

    /// Runs the closed loop over the whole scenario.
    pub fn run(&mut self) -> Result<SystemReport, SystemError> {
        let (start, end) = self.scenario.window();
        let step = self.config.window.step();

        let mut alerts: Vec<OperatorAlert> = Vec::new();
        let mut control_actions: Vec<(i64, crate::proactive::ControlAction)> = Vec::new();
        let mut windows: Vec<WindowStats> = Vec::new();
        // Alert de-duplication: a location/bus alerts once while its
        // condition persists across (overlapping) windows, and re-arms when
        // it disappears for a window.
        let mut active_congestion: HashSet<(i64, i64)> = HashSet::new();
        let mut active_noisy: HashSet<i64> = HashSet::new();
        let mut seen_disagreement: HashSet<(i64, i64)> = HashSet::new();
        let mut seen_delay: HashSet<(i64, i64)> = HashSet::new();
        let mut crowd_checked = 0usize;
        let mut crowd_correct = 0usize;

        let window_ns = self.metrics.histogram("rtec.window_ns");
        let resolve_ns = self.metrics.histogram("crowd.resolve_ns");
        let sdes_delivered = self.metrics.counter("system.sdes_delivered");
        let windows_run = self.metrics.counter("system.windows");
        let disagreements_open = self.metrics.counter("rtec.open_disagreements");
        let crowd_resolutions = self.metrics.counter("crowd.resolutions");
        let crowd_fallbacks = self.metrics.counter("crowd.fallbacks");

        let mut sde_idx = 0usize;
        let mut q = start + step;
        while q <= end {
            // Deliver every SDE that has arrived by q (the trace is sorted
            // by arrival).
            while sde_idx < self.scenario.sdes.len() && self.scenario.sdes[sde_idx].arrival <= q {
                let sde = &self.scenario.sdes[sde_idx];
                self.recognizer.ingest(sde)?;
                if let SdeBody::Scats(s) = &sde.body {
                    self.model.observe(s.lon, s.lat, s.flow);
                }
                sdes_delivered.inc();
                sde_idx += 1;
            }

            let recognition = self.recognizer.query(q)?;
            windows_run.inc();
            window_ns.record(recognition.max_region_time);
            let mut open = 0usize;
            let mut resolutions = 0usize;
            let mut sde_count = 0usize;

            let mut congestion_now: HashSet<(i64, i64)> = HashSet::new();
            let mut noisy_now: HashSet<i64> = HashSet::new();
            for (_, result) in &recognition.per_region {
                sde_count += result.sde_count();

                // Congestion alerts: once per onset.
                for ((lon, lat), ivs) in result.congested_intersections() {
                    if let Some(first) = ivs.iter().next() {
                        let key = (keyf(lon), keyf(lat));
                        congestion_now.insert(key);
                        if !active_congestion.contains(&key) {
                            alerts.push(OperatorAlert::IntersectionCongestion {
                                lon,
                                lat,
                                since: first.start(),
                            });
                        }
                    }
                }
                for e in result.delay_increases() {
                    let bus = e.args[0].as_i64().unwrap_or(-1);
                    if !seen_delay.insert((bus, e.time)) {
                        continue; // same event visible in an overlapping window
                    }
                    let (lon, lat) =
                        (e.args[3].as_f64().unwrap_or(0.0), e.args[4].as_f64().unwrap_or(0.0));
                    alerts.push(OperatorAlert::DelayIncrease { bus, lon, lat, at: e.time });
                }
                for (bus, ivs) in result.noisy_buses() {
                    if let Some(first) = ivs.iter().next() {
                        noisy_now.insert(bus);
                        if !active_noisy.contains(&bus) {
                            alerts.push(OperatorAlert::NoisyBus { bus, since: first.start() });
                        }
                    }
                }

                // Crowdsource the open disagreements.
                for (lon, lat) in result.open_disagreements() {
                    open += 1;
                    let key = (keyf(lon), keyf(lat));
                    if !seen_disagreement.insert(key) {
                        continue; // already being handled
                    }
                    let truth = self.scenario.truth_congested(lon, lat, q);
                    let resolve_started = Instant::now();
                    let resolution = match self.crowd.resolve(lon, lat, truth, None) {
                        Ok(r) => r,
                        Err(_) => {
                            // Sensor-only fallback: the disagreement is
                            // alerted without a crowd verdict and no crowd
                            // feedback enters RTEC or the traffic model.
                            crowd_fallbacks.inc();
                            alerts.push(OperatorAlert::SourceDisagreement {
                                lon,
                                lat,
                                since: q,
                                crowd_verdict: None,
                                confidence: None,
                            });
                            continue;
                        }
                    };
                    resolve_ns.record(resolve_started.elapsed());
                    crowd_resolutions.inc();
                    resolutions += 1;
                    crowd_checked += 1;
                    if resolution.congested == truth {
                        crowd_correct += 1;
                    }
                    alerts.push(OperatorAlert::SourceDisagreement {
                        lon,
                        lat,
                        since: q,
                        crowd_verdict: Some(resolution.congested),
                        confidence: Some(resolution.confidence),
                    });
                    // Feedback into RTEC (arrives shortly after the query)
                    // and into the traffic model.
                    self.recognizer.ingest_crowd(lon, lat, resolution.congested, q + 1)?;
                    let implied_flow =
                        if resolution.congested { 0.3 * CAPACITY } else { 0.9 * CAPACITY };
                    self.model.observe(lon, lat, implied_flow);
                }
            }

            // Proactive control layer (the paper's §1 motivation).
            for (_, result) in &recognition.per_region {
                for action in self.controller.decide(result, q) {
                    control_actions.push((q, action));
                }
            }

            active_congestion = congestion_now;
            active_noisy = noisy_now;

            disagreements_open.add(open as u64);
            windows.push(WindowStats {
                query_time: q,
                sde_count,
                recognition_time: recognition.max_region_time,
                open_disagreements: open,
                resolutions,
            });
            q += step;
        }

        // Copy the crowd engine's cumulative counters into the registry so
        // the snapshot carries task-level dispatch/deadline statistics.
        let engine = self.crowd.engine_stats();
        let tasks = self.metrics.counter("crowd.tasks");
        tasks.add(engine.tasks.saturating_sub(tasks.get()));
        let answers = self.metrics.counter("crowd.answers");
        answers.add(engine.answers.saturating_sub(answers.get()));
        let misses = self.metrics.counter("crowd.deadline_misses");
        misses.add(engine.deadline_misses.saturating_sub(misses.get()));
        let retries = self.metrics.counter("crowd.retries");
        retries.add(engine.retries.saturating_sub(retries.get()));

        // Final sparsity estimate over the whole network.
        let observed = self.model.observed_count();
        let estimated = if observed > 0 {
            self.model.estimate_unobserved().map(|p| p.targets.len()).unwrap_or(0)
        } else {
            0
        };

        let metrics = self.metrics.snapshot();
        let faults = FaultReport::from_snapshot(&metrics);
        Ok(SystemReport {
            alerts,
            control_actions,
            windows,
            crowd_accuracy: (crowd_checked > 0)
                .then(|| crowd_correct as f64 / crowd_checked as f64),
            model_coverage: (observed, estimated),
            metrics,
            faults,
        })
    }
}

/// Quantises a coordinate for alert dedup keys.
fn keyf(v: f64) -> i64 {
    (v * 1e6).round() as i64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_loop_runs_and_reports() {
        let mut system = InsightSystem::new(SystemConfig::small(1800, 101)).unwrap();
        let report = system.run().unwrap();
        assert!(!report.windows.is_empty());
        // SDEs flowed through the windows.
        assert!(report.windows.iter().map(|w| w.sde_count).sum::<usize>() > 0);
        // The model covered unobserved junctions.
        let (observed, estimated) = report.model_coverage;
        assert!(observed > 0, "SCATS readings reached the model");
        assert_eq!(observed + estimated, system.model().graph().len());
    }

    #[test]
    fn report_carries_a_populated_metrics_snapshot() {
        let mut system = InsightSystem::new(SystemConfig::small(1800, 101)).unwrap();
        let report = system.run().unwrap();
        let snap = &report.metrics;
        assert!(snap.counters.get("system.sdes_delivered").copied().unwrap_or(0) > 0);
        assert_eq!(
            snap.counters.get("system.windows").copied().unwrap_or(0),
            report.windows.len() as u64
        );
        let windows = snap.histograms.get("rtec.window_ns").expect("per-window timings");
        assert_eq!(windows.count, report.windows.len() as u64);
        assert!(windows.max_ns > 0, "recognition takes measurable time");
        // The snapshot serialises; spot-check the schema.
        let json = snap.to_json();
        assert!(json.contains("\"rtec.window_ns\""));
        assert!(json.contains("\"p99_ns\""));
    }

    #[test]
    fn faulty_scenario_produces_disagreement_handling() {
        let mut cfg = SystemConfig::small(2400, 103);
        cfg.scenario.fleet.faulty_fraction = 0.5;
        cfg.scenario.fleet.n_buses = 40;
        let mut system = InsightSystem::new(cfg).unwrap();
        let report = system.run().unwrap();
        // With half the fleet lying, some disagreement should be observed
        // and resolved; when it is, accuracy should beat guessing.
        if let Some(acc) = report.crowd_accuracy {
            assert!(acc >= 0.5, "crowd accuracy {acc}");
            assert!(!report
                .alerts_where(|a| matches!(a, OperatorAlert::SourceDisagreement { .. }))
                .is_empty());
        }
    }

    #[test]
    fn clean_run_reports_no_faults() {
        let mut system = InsightSystem::new(SystemConfig::small(1200, 11)).unwrap();
        let report = system.run().unwrap();
        assert!(report.faults.is_clean(), "unexpected faults: {}", report.faults);
        assert_eq!(report.faults.to_string(), "no faults");
        assert_eq!(report.faults.total_faults(), 0);
    }

    #[test]
    fn fault_report_extracts_degradation_counters() {
        let registry = MetricsRegistry::new();
        registry.counter("rtec.north.malformed_sdes").add(3);
        registry.counter("rtec.south.malformed_sdes").add(2);
        registry.counter("rtec.north.sdes_amended").add(40);
        registry.counter("rtec.west.sdes_amended").add(2);
        registry.counter("rtec.north.sdes_lost").add(7);
        registry.counter("crowd.fallbacks").add(1);
        registry.counter("crowd.retries").add(4);
        let stage = registry.stage("rtec-north");
        stage.faults.add(2);
        stage.panics.inc();
        stage.skipped.add(2);
        let report = FaultReport::from_snapshot(&registry.snapshot());
        assert!(!report.is_clean());
        assert_eq!(report.malformed_sdes, 5);
        assert_eq!((report.sdes_amended, report.sdes_lost), (42, 7));
        assert_eq!(report.crowd_fallbacks, 1);
        assert_eq!(report.crowd_retries, 4);
        assert_eq!(report.total_faults(), 2);
        let s = report.per_stage.get("rtec-north").expect("faulted stage listed");
        assert_eq!((s.faults, s.panics, s.skipped), (2, 1, 2));
        let rendered = report.to_string();
        assert!(rendered.contains("rtec-north"), "{rendered}");
        assert!(rendered.contains("5 malformed SDEs"), "{rendered}");
        assert!(rendered.contains("7 SDEs lost to lateness (42 amended)"), "{rendered}");

        // Amended alone is the overlap doing its job; a loss is not clean.
        let registry = MetricsRegistry::new();
        registry.counter("rtec.north.sdes_amended").add(3);
        assert!(FaultReport::from_snapshot(&registry.snapshot()).is_clean());
        registry.counter("rtec.north.sdes_lost").inc();
        assert!(!FaultReport::from_snapshot(&registry.snapshot()).is_clean());
    }

    #[test]
    fn map_renders_after_a_run() {
        let mut system = InsightSystem::new(SystemConfig::small(1200, 5)).unwrap();
        system.run().unwrap();
        let ppm = system.render_map(120, 90).unwrap();
        assert!(ppm.starts_with("P3\n120 90\n255\n"));
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let mut s = InsightSystem::new(SystemConfig::small(1200, seed)).unwrap();
            let r = s.run().unwrap();
            (r.alerts.len(), r.windows.len())
        };
        assert_eq!(run(7), run(7));
    }
}
