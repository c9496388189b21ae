//! The assembled crowdsourcing component.
//!
//! Combines the §5.3 query execution engine with the §5.1/§5.2 online EM
//! estimator: given a `sourceDisagreement` location, participants near it
//! are selected, queried (simulated answers driven by the scenario's ground
//! truth), and their answers merged into a posterior; the most likely label
//! is returned as the `crowd` event content, and the participants'
//! reliability estimates are updated.

use insight_crowd::engine::{QueryExecutionEngine, Worker, WorkerId};
use insight_crowd::error::CrowdError;
use insight_crowd::latency::{ConnectionType, StepLatency};
use insight_crowd::model::{CrowdQuery, LabelSet, SimulatedParticipant};
use insight_crowd::online_em::OnlineEm;
use insight_crowd::policy::SelectionPolicy;
use insight_crowd::schedule::GammaSchedule;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The first phase of a resolution: worker selection plus the selected
/// workers' simulated answers, produced by [`CrowdBridge::simulate_task`]
/// without touching the EM state.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct SimulatedTask {
    /// `(participant index, label index)` pairs in dispatch order — the
    /// input [`CrowdBridge::merge_task`] expects.
    pub answers: Vec<(usize, usize)>,
    /// Mean per-step latency of the answering workers.
    pub latency: Option<StepLatency>,
}

/// The outcome of resolving one disagreement through the crowd.
#[derive(Debug, Clone, PartialEq)]
pub struct CrowdResolution {
    /// The crowd's verdict: congestion or not.
    pub congested: bool,
    /// Posterior confidence of the verdict.
    pub confidence: f64,
    /// Mean per-step latency of the answering workers.
    pub latency: Option<StepLatency>,
    /// Number of answers received.
    pub answers: usize,
}

/// Configuration of the bridge.
#[derive(Debug, Clone)]
pub struct CrowdBridgeConfig {
    /// Number of simulated participants.
    pub n_participants: usize,
    /// Error probabilities; cycled when fewer than `n_participants`.
    pub error_probabilities: Vec<f64>,
    /// Workers selected per query.
    pub workers_per_query: usize,
    /// Initial reliability estimate (the paper's 0.25).
    pub initial_p: f64,
    /// Step-size schedule of the online EM.
    pub schedule: GammaSchedule,
    /// Deadline-missed tasks re-assigned to the next-fastest unused worker
    /// this many times per query before a `deadline_miss` is counted.
    pub retry_budget: u64,
}

impl Default for CrowdBridgeConfig {
    fn default() -> CrowdBridgeConfig {
        CrowdBridgeConfig {
            n_participants: 10,
            error_probabilities: SimulatedParticipant::paper_cohort()
                .into_iter()
                .map(|p| p.p_err)
                .collect(),
            workers_per_query: 5,
            initial_p: 0.25,
            schedule: GammaSchedule::default(),
            retry_budget: 1,
        }
    }
}

/// The crowdsourcing component of Figure 1.
pub struct CrowdBridge {
    engine: QueryExecutionEngine,
    em: OnlineEm,
    participants: Vec<SimulatedParticipant>,
    labels: LabelSet,
    rng: StdRng,
    workers_per_query: usize,
    retry_budget: u64,
}

impl CrowdBridge {
    /// Builds the bridge: participants are registered as workers scattered
    /// around `(centre_lon, centre_lat)` with mixed connection types.
    pub fn new(
        config: &CrowdBridgeConfig,
        centre: (f64, f64),
        seed: u64,
    ) -> Result<CrowdBridge, CrowdError> {
        let labels = LabelSet::traffic_default();
        let mut rng = StdRng::seed_from_u64(seed ^ 0xc0ed_b41d);
        let mut engine = QueryExecutionEngine::new();
        let mut participants = Vec::with_capacity(config.n_participants);
        for i in 0..config.n_participants {
            let p_err = config.error_probabilities[i % config.error_probabilities.len().max(1)];
            participants.push(SimulatedParticipant::new(p_err)?);
            let connection = match i % 3 {
                0 => ConnectionType::WiFi,
                1 => ConnectionType::ThreeG,
                _ => ConnectionType::TwoG,
            };
            engine.register(Worker {
                id: WorkerId(i as u64),
                lon: centre.0 + rng.random_range(-0.05..0.05),
                lat: centre.1 + rng.random_range(-0.03..0.03),
                connection,
                avg_comp_ms: rng.random_range(50.0..250.0),
            });
        }
        let em = OnlineEm::new(
            config.n_participants,
            labels.clone(),
            config.initial_p,
            config.schedule,
        )?;
        Ok(CrowdBridge {
            engine,
            em,
            participants,
            labels,
            rng,
            workers_per_query: config.workers_per_query,
            retry_budget: config.retry_budget,
        })
    }

    /// Cumulative query/task/answer counters of the underlying execution
    /// engine (queries issued, tasks dispatched, deadline misses, latency).
    pub(crate) fn engine_stats(&self) -> insight_crowd::engine::EngineStats {
        self.engine.stats()
    }

    /// Serialises the online EM estimator state (the evolving part of the
    /// bridge) for checkpointing; everything else is reproducible from the
    /// construction parameters.
    pub(crate) fn export_em_state(&self) -> String {
        self.em.export_state()
    }

    /// Restores an estimator state produced by
    /// [`CrowdBridge::export_em_state`] on a bridge built from the same
    /// configuration. Fails — leaving the estimator untouched — on a corrupt
    /// or mismatched snapshot.
    pub(crate) fn import_em_state(&mut self, state: &str) -> Result<(), CrowdError> {
        self.em.import_state(state)
    }

    /// The crowd query asking about the traffic situation at a location.
    fn query_at(&self, lon: f64, lat: f64) -> CrowdQuery {
        CrowdQuery {
            question: format!("Traffic situation near ({lon:.5}, {lat:.5})?"),
            answers: (0..self.labels.len())
                .map(|i| self.labels.name(i).expect("in range").to_string())
                .collect(),
            lon,
            lat,
            deadline_ms: None,
        }
    }

    /// The label index matching a ground-truth congestion flag.
    fn truth_label(&self, truth_congested: bool) -> usize {
        if truth_congested {
            self.labels.index_of("Traffic congestion").expect("static label")
        } else {
            self.labels.index_of("Free flowing").expect("static label")
        }
    }

    /// Phase one of a resolution: selects workers over the *current*
    /// reliability estimates and simulates their answers, leaving the EM
    /// state untouched.
    ///
    /// Every random draw derives from `task_seed`, so on a bridge whose EM
    /// estimates are never advanced (the pipeline's crowd stage runs
    /// [`CrowdBridge::merge_task`] on a second instance) the outcome is a
    /// pure function of `(lon, lat, truth_congested, task_seed)` —
    /// independent of call order.
    pub(crate) fn simulate_task(
        &self,
        lon: f64,
        lat: f64,
        truth_congested: bool,
        task_seed: u64,
    ) -> Result<SimulatedTask, CrowdError> {
        let query = self.query_at(lon, lat);
        let reliability: HashMap<WorkerId, f64> =
            self.em.estimates().iter().enumerate().map(|(i, &p)| (WorkerId(i as u64), p)).collect();
        let selected = self.engine.select(
            &SelectionPolicy::MostReliableK(self.workers_per_query),
            &query,
            Some(&reliability),
        )?;
        let truth_label = self.truth_label(truth_congested);
        let participants = &self.participants;
        let labels = &self.labels;
        let mut task_rng = StdRng::seed_from_u64(task_seed);
        let mut answer_rng = StdRng::seed_from_u64(task_seed ^ 0x9e37_79b9_7f4a_7c15);
        let execution = self.engine.execute_with_retry(
            &query,
            &selected,
            |id| {
                participants
                    .get(id.0 as usize)
                    .and_then(|p| p.answer(truth_label, labels, &mut answer_rng).ok())
            },
            &mut task_rng,
            self.retry_budget,
        )?;
        Ok(SimulatedTask {
            answers: execution.answers.iter().map(|&(w, l)| (w.0 as usize, l)).collect(),
            latency: execution.mean_latency(),
        })
    }

    /// Phase two of a resolution: merges simulated answers into the online
    /// EM, updating the reliability estimates. Order-sensitive — the EM
    /// state evolves with every call — so callers must fix a canonical merge
    /// order (the pipeline uses `(query_time, region)`).
    pub(crate) fn merge_task(
        &mut self,
        answers: &[(usize, usize)],
        prior: Option<Vec<f64>>,
    ) -> Result<CrowdResolution, CrowdError> {
        let prior = prior.unwrap_or_else(|| self.labels.uniform_prior());
        let outcome = self.em.process(&prior, answers)?;
        Ok(CrowdResolution {
            congested: outcome.map_label
                == self.labels.index_of("Traffic congestion").expect("static label"),
            confidence: outcome.confidence,
            latency: None,
            answers: answers.len(),
        })
    }

    /// Resolves one source disagreement: queries workers near the location;
    /// `truth_congested` drives the simulated participants' answers.
    pub fn resolve(
        &mut self,
        lon: f64,
        lat: f64,
        truth_congested: bool,
        prior: Option<Vec<f64>>,
    ) -> Result<CrowdResolution, CrowdError> {
        let query = self.query_at(lon, lat);
        // Reliability-aware selection: prefer the workers the EM currently
        // trusts most.
        let reliability: HashMap<WorkerId, f64> =
            self.em.estimates().iter().enumerate().map(|(i, &p)| (WorkerId(i as u64), p)).collect();
        let selected = self.engine.select(
            &SelectionPolicy::MostReliableK(self.workers_per_query),
            &query,
            Some(&reliability),
        )?;

        let truth_label = self.truth_label(truth_congested);

        let participants = &self.participants;
        let labels = &self.labels;
        let mut answer_rng = StdRng::seed_from_u64(self.rng.random());
        let execution = self.engine.execute_with_retry(
            &query,
            &selected,
            |id| {
                participants
                    .get(id.0 as usize)
                    .and_then(|p| p.answer(truth_label, labels, &mut answer_rng).ok())
            },
            &mut self.rng,
            self.retry_budget,
        )?;

        let prior = prior.unwrap_or_else(|| self.labels.uniform_prior());
        let em_answers: Vec<(usize, usize)> =
            execution.answers.iter().map(|&(w, l)| (w.0 as usize, l)).collect();
        let outcome = self.em.process(&prior, &em_answers)?;

        Ok(CrowdResolution {
            congested: outcome.map_label
                == self.labels.index_of("Traffic congestion").expect("static label"),
            confidence: outcome.confidence,
            latency: execution.mean_latency(),
            answers: em_answers.len(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bridge() -> CrowdBridge {
        CrowdBridge::new(&CrowdBridgeConfig::default(), (-6.26, 53.35), 7).unwrap()
    }

    #[test]
    fn resolves_towards_ground_truth() {
        let mut b = bridge();
        let mut correct = 0;
        let total = 200;
        for i in 0..total {
            let truth = i % 2 == 0;
            let r = b.resolve(-6.26, 53.35, truth, None).unwrap();
            if r.congested == truth {
                correct += 1;
            }
            assert!(r.answers > 0);
            assert!(r.confidence > 0.0 && r.confidence <= 1.0);
        }
        assert!(correct as f64 / total as f64 > 0.85, "crowd accuracy too low: {correct}/{total}");
    }

    #[test]
    fn reliability_estimates_update() {
        let mut b = bridge();
        let before = b.em.estimates().to_vec();
        for _ in 0..50 {
            b.resolve(-6.26, 53.35, true, None).unwrap();
        }
        assert_ne!(before, b.em.estimates(), "estimates must move");
    }

    #[test]
    fn latency_reported_for_answering_workers() {
        let mut b = bridge();
        let r = b.resolve(-6.26, 53.35, false, None).unwrap();
        let lat = r.latency.expect("some workers answered");
        assert!(lat.total_ms() > 0.0 && lat.total_ms() < 2000.0);
    }

    #[test]
    fn prior_influences_resolution() {
        let mut b = bridge();
        // Overwhelming prior on congestion: even with truth=false some
        // resolutions can flip, but the call must accept the prior shape.
        let prior = vec![0.97, 0.01, 0.01, 0.01];
        let r = b.resolve(-6.26, 53.35, true, Some(prior)).unwrap();
        assert!(r.congested, "strong congestion prior plus congested ground truth");
    }

    #[test]
    fn simulate_task_is_call_order_independent() {
        // Two bridges built identically; interleaving the same tasks in
        // different orders must yield identical per-task answers, because
        // each task's randomness derives from its seed alone.
        let a = bridge();
        let b = bridge();
        let tasks: Vec<(f64, f64, bool, u64)> = (0..20)
            .map(|i| (-6.26 + i as f64 * 1e-3, 53.35, i % 3 == 0, 0xfeed ^ i as u64))
            .collect();
        let out_a: Vec<_> = tasks
            .iter()
            .map(|&(lon, lat, t, s)| a.simulate_task(lon, lat, t, s).unwrap())
            .collect();
        let out_b: Vec<_> = tasks
            .iter()
            .rev()
            .map(|&(lon, lat, t, s)| b.simulate_task(lon, lat, t, s).unwrap())
            .collect();
        for (task, rev) in out_a.iter().zip(out_b.iter().rev()) {
            assert_eq!(task, rev, "same seed, same task, any order");
        }
    }

    #[test]
    fn split_phases_track_ground_truth_and_update_estimates() {
        let tasker = bridge();
        let mut merger = bridge();
        let before = merger.em.estimates().to_vec();
        let mut correct = 0;
        let total = 100;
        for i in 0..total {
            let truth = i % 2 == 0;
            let task = tasker.simulate_task(-6.26, 53.35, truth, 31 * i as u64).unwrap();
            assert!(!task.answers.is_empty());
            let r = merger.merge_task(&task.answers, None).unwrap();
            if r.congested == truth {
                correct += 1;
            }
        }
        assert!(correct as f64 / total as f64 > 0.85, "crowd accuracy too low: {correct}/{total}");
        assert_ne!(before, merger.em.estimates(), "EM estimates must move");
    }

    #[test]
    fn config_validation_bubbles_up() {
        let cfg =
            CrowdBridgeConfig { error_probabilities: vec![1.7], ..CrowdBridgeConfig::default() };
        assert!(CrowdBridge::new(&cfg, (0.0, 0.0), 1).is_err());
    }
}
