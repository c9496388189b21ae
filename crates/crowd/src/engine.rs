//! The crowdsourcing query execution engine (§5.3).
//!
//! Participants register with the engine from their mobile devices (the
//! paper's app connects to Google Cloud Messaging for push notifications and
//! identifies itself as a *map worker*); the engine selects workers per the
//! active policy, pushes the query, collects the answers of the map phase,
//! and reduces them. The simulation models each step's latency with the
//! means measured in Figure 6.

use crate::error::CrowdError;
use crate::latency::{ConnectionType, LatencyModel, StepLatency};
use crate::mapreduce::count_votes;
use crate::model::CrowdQuery;
use crate::policy::SelectionPolicy;
use rand::Rng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

/// Identifier of a registered worker/participant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct WorkerId(pub u64);

/// A registered mobile worker.
#[derive(Debug, Clone, PartialEq)]
pub struct Worker {
    /// The worker's id.
    pub id: WorkerId,
    /// Current longitude.
    pub lon: f64,
    /// Current latitude.
    pub lat: f64,
    /// Current connection type (may change, e.g. WiFi → 3G; GCM keeps the
    /// worker reachable either way).
    pub connection: ConnectionType,
    /// Expected local computation time (ms), fixed when the worker
    /// registers.
    pub avg_comp_ms: f64,
}

/// Execution record of one worker's map task.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskExecution {
    /// The worker.
    pub worker: WorkerId,
    /// Step latencies for this worker.
    pub latency: StepLatency,
    /// The answer (label index), or `None` when the worker missed the
    /// deadline / did not respond.
    pub answer: Option<usize>,
}

/// The full trace of one crowd query execution.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryExecution {
    /// Per-worker task traces.
    pub tasks: Vec<TaskExecution>,
    /// Vote counts per label, from the reduce phase.
    pub votes: Vec<(usize, usize)>,
    /// `(participant index into the selection, label)` pairs, ready for the
    /// online EM component.
    pub answers: Vec<(WorkerId, usize)>,
}

impl QueryExecution {
    /// Mean latency per step across the answering workers.
    pub fn mean_latency(&self) -> Option<StepLatency> {
        let answered: Vec<&TaskExecution> =
            self.tasks.iter().filter(|t| t.answer.is_some()).collect();
        if answered.is_empty() {
            return None;
        }
        let n = answered.len() as f64;
        Some(StepLatency {
            trigger_ms: answered.iter().map(|t| t.latency.trigger_ms).sum::<f64>() / n,
            push_ms: answered.iter().map(|t| t.latency.push_ms).sum::<f64>() / n,
            comm_ms: answered.iter().map(|t| t.latency.comm_ms).sum::<f64>() / n,
        })
    }
}

/// Cumulative execution counters, updated on every [`execute`] call.
///
/// Atomics only, so recording is lock-free; engine clones share the same
/// counters (the bridge layer snapshots them into the pipeline metrics).
///
/// [`execute`]: QueryExecutionEngine::execute
#[derive(Debug, Default)]
struct EngineCounters {
    queries: AtomicU64,
    tasks: AtomicU64,
    answers: AtomicU64,
    deadline_misses: AtomicU64,
    retries: AtomicU64,
    /// Summed simulated end-to-end latency of all tasks, microseconds.
    latency_us: AtomicU64,
}

/// Plain-data snapshot of the engine's cumulative execution counters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EngineStats {
    /// Crowd queries executed.
    pub queries: u64,
    /// Map tasks dispatched (one per selected worker).
    pub tasks: u64,
    /// Tasks that produced an answer.
    pub answers: u64,
    /// Tasks dropped because the worker's latency exceeded the deadline.
    pub deadline_misses: u64,
    /// Deadline-missed tasks re-assigned to a faster worker under a retry
    /// budget (see [`QueryExecutionEngine::execute_with_retry`]).
    pub retries: u64,
    /// Mean simulated end-to-end task latency, milliseconds.
    pub mean_latency_ms: f64,
}

/// The engine: worker registry + latency model + policy application.
#[derive(Debug, Clone)]
pub struct QueryExecutionEngine {
    workers: HashMap<WorkerId, Worker>,
    latency: LatencyModel,
    counters: Arc<EngineCounters>,
}

impl Default for QueryExecutionEngine {
    fn default() -> QueryExecutionEngine {
        QueryExecutionEngine::new()
    }
}

impl QueryExecutionEngine {
    /// An engine with the default (paper-parameterised) latency model.
    pub fn new() -> QueryExecutionEngine {
        QueryExecutionEngine::with_latency(LatencyModel::default())
    }

    /// An engine with a custom latency model.
    pub(crate) fn with_latency(latency: LatencyModel) -> QueryExecutionEngine {
        QueryExecutionEngine {
            workers: HashMap::new(),
            latency,
            counters: Arc::new(EngineCounters::default()),
        }
    }

    /// Snapshot of the cumulative execution counters.
    pub fn stats(&self) -> EngineStats {
        let tasks = self.counters.tasks.load(Relaxed);
        let latency_us = self.counters.latency_us.load(Relaxed);
        EngineStats {
            queries: self.counters.queries.load(Relaxed),
            tasks,
            answers: self.counters.answers.load(Relaxed),
            deadline_misses: self.counters.deadline_misses.load(Relaxed),
            retries: self.counters.retries.load(Relaxed),
            mean_latency_ms: if tasks == 0 {
                0.0
            } else {
                latency_us as f64 / 1000.0 / tasks as f64
            },
        }
    }

    /// Registers (or re-registers) a worker — the mobile app's "connect to
    /// the Crowdsourcing Server and identify as a Map Worker" step.
    pub fn register(&mut self, worker: Worker) {
        self.workers.insert(worker.id, worker);
    }

    /// Registered (online) workers.
    pub(crate) fn online(&self) -> Vec<&Worker> {
        let mut v: Vec<&Worker> = self.workers.values().collect();
        v.sort_by_key(|w| w.id);
        v
    }

    /// Selects workers for a query per the policy.
    pub fn select(
        &self,
        policy: &SelectionPolicy,
        query: &CrowdQuery,
        reliability: Option<&HashMap<WorkerId, f64>>,
    ) -> Result<Vec<WorkerId>, CrowdError> {
        let selected =
            policy.select(&self.online(), query.lon, query.lat, reliability, &self.latency);
        if selected.is_empty() {
            return Err(CrowdError::NoEligibleWorkers {
                detail: format!("policy {policy:?} matched none of {} workers", self.workers.len()),
            });
        }
        Ok(selected)
    }

    /// Executes the map/reduce lifecycle of a query on the selected workers.
    ///
    /// `answer_of` simulates (or relays) each worker's map task: given the
    /// worker id it returns the chosen label, or `None` for no response.
    /// Workers whose end-to-end latency exceeds the query deadline (when
    /// set) are recorded as unanswered, matching the engine's "reply time
    /// interval has expired" behaviour.
    pub fn execute<R: Rng + ?Sized>(
        &self,
        query: &CrowdQuery,
        selected: &[WorkerId],
        answer_of: impl FnMut(WorkerId) -> Option<usize>,
        rng: &mut R,
    ) -> Result<QueryExecution, CrowdError> {
        self.execute_with_retry(query, selected, answer_of, rng, 0)
    }

    /// [`execute`](Self::execute) with a *retry budget*: a deadline-missed
    /// task is re-assigned once to the fastest not-yet-used worker (ranked
    /// by expected end-to-end latency + expected computation time) before a
    /// `deadline_miss` is counted, while the budget lasts. The miss is only
    /// recorded if the replacement also fails; each re-assignment is counted
    /// in [`EngineStats::retries`]. The missed task's trace stays in the
    /// execution (with `answer: None`) so latency accounting is unchanged.
    pub fn execute_with_retry<R: Rng + ?Sized>(
        &self,
        query: &CrowdQuery,
        selected: &[WorkerId],
        mut answer_of: impl FnMut(WorkerId) -> Option<usize>,
        rng: &mut R,
        retry_budget: u64,
    ) -> Result<QueryExecution, CrowdError> {
        self.counters.queries.fetch_add(1, Relaxed);
        let mut budget = retry_budget;
        let mut used: std::collections::HashSet<WorkerId> = selected.iter().copied().collect();
        let mut tasks = Vec::with_capacity(selected.len());
        let mut answers = Vec::new();
        for &id in selected {
            let (mut task, mut missed) = self.dispatch(query, id, &mut answer_of, rng)?;
            if missed && budget > 0 {
                if let Some(next) = self.next_fastest(&used) {
                    budget -= 1;
                    used.insert(next);
                    self.counters.retries.fetch_add(1, Relaxed);
                    tasks.push(task); // keep the missed task's trace
                    (task, missed) = self.dispatch(query, next, &mut answer_of, rng)?;
                }
            }
            if missed {
                self.counters.deadline_misses.fetch_add(1, Relaxed);
            }
            if let Some(label) = task.answer {
                answers.push((task.worker, label));
            }
            tasks.push(task);
        }
        let votes = count_votes(answers.iter().map(|&(_, l)| l));
        Ok(QueryExecution { tasks, votes, answers })
    }

    /// Pushes one map task to `id`; returns its trace and whether the
    /// worker would have answered but missed the deadline.
    fn dispatch<R: Rng + ?Sized>(
        &self,
        query: &CrowdQuery,
        id: WorkerId,
        answer_of: &mut impl FnMut(WorkerId) -> Option<usize>,
        rng: &mut R,
    ) -> Result<(TaskExecution, bool), CrowdError> {
        let worker = self.workers.get(&id).ok_or(CrowdError::UnknownWorker { id: id.0 })?;
        let latency = self.latency.sample(worker.connection, rng);
        self.counters.tasks.fetch_add(1, Relaxed);
        self.counters.latency_us.fetch_add((latency.total_ms() * 1000.0) as u64, Relaxed);
        let mut answer = answer_of(id);
        let mut missed = false;
        if let Some(deadline) = query.deadline_ms {
            if latency.total_ms() + worker.avg_comp_ms > deadline {
                missed = answer.is_some();
                answer = None;
            }
        }
        if let Some(label) = answer {
            if label >= query.answers.len() {
                return Err(CrowdError::LabelOutOfRange { label, n_labels: query.answers.len() });
            }
            self.counters.answers.fetch_add(1, Relaxed);
        }
        Ok((TaskExecution { worker: id, latency, answer }, missed))
    }

    /// The not-yet-used registered worker with the lowest expected
    /// end-to-end latency (network expectation + the computation time fixed
    /// at registration);
    /// ties break on worker id for determinism.
    fn next_fastest(&self, used: &std::collections::HashSet<WorkerId>) -> Option<WorkerId> {
        self.workers
            .values()
            .filter(|w| !used.contains(&w.id))
            .map(|w| (self.latency.expected_total_ms(w.connection) + w.avg_comp_ms, w.id))
            .min_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| a.1.cmp(&b.1))
            })
            .map(|(_, id)| id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn engine_with_fleet() -> QueryExecutionEngine {
        let mut e = QueryExecutionEngine::new();
        for (i, c) in [ConnectionType::WiFi, ConnectionType::ThreeG, ConnectionType::TwoG]
            .into_iter()
            .enumerate()
        {
            e.register(Worker {
                id: WorkerId(i as u64),
                lon: -6.26 + i as f64 * 0.01,
                lat: 53.35,
                connection: c,
                avg_comp_ms: 100.0,
            });
        }
        e
    }

    fn query() -> CrowdQuery {
        CrowdQuery {
            question: "Congestion?".into(),
            answers: vec!["yes".into(), "no".into()],
            lon: -6.26,
            lat: 53.35,
            deadline_ms: None,
        }
    }

    #[test]
    fn select_applies_policy_and_errors_when_empty() {
        let e = engine_with_fleet();
        let ids = e.select(&SelectionPolicy::NearestK(2), &query(), None).unwrap();
        assert_eq!(ids.len(), 2);
        let empty = QueryExecutionEngine::new();
        assert!(empty.select(&SelectionPolicy::All, &query(), None).is_err());
    }

    #[test]
    fn execute_collects_answers_and_votes() {
        let e = engine_with_fleet();
        let mut rng = StdRng::seed_from_u64(3);
        let selected: Vec<WorkerId> = e.online().iter().map(|w| w.id).collect();
        let exec =
            e.execute(&query(), &selected, |id| Some((id.0 % 2) as usize), &mut rng).unwrap();
        assert_eq!(exec.tasks.len(), 3);
        assert_eq!(exec.answers.len(), 3);
        // ids 0,2 answer label 0; id 1 answers label 1.
        assert_eq!(exec.votes, vec![(0, 2), (1, 1)]);
        let mean = exec.mean_latency().unwrap();
        assert!(mean.total_ms() > 0.0);
    }

    #[test]
    fn deadline_drops_slow_workers() {
        let e = engine_with_fleet();
        let mut rng = StdRng::seed_from_u64(3);
        let selected: Vec<WorkerId> = e.online().iter().map(|w| w.id).collect();
        let mut q = query();
        // 2G ≈ 45+467+423+100comp ≈ 1035ms; WiFi/3G ≈ 500ms.
        q.deadline_ms = Some(800.0);
        let exec = e.execute(&q, &selected, |_| Some(0), &mut rng).unwrap();
        let unanswered: Vec<WorkerId> =
            exec.tasks.iter().filter(|t| t.answer.is_none()).map(|t| t.worker).collect();
        assert_eq!(unanswered, vec![WorkerId(2)], "the 2G worker misses the deadline");
        assert_eq!(exec.answers.len(), 2);
    }

    #[test]
    fn execute_validates_labels_and_workers() {
        let e = engine_with_fleet();
        let mut rng = StdRng::seed_from_u64(3);
        assert!(e.execute(&query(), &[WorkerId(77)], |_| Some(0), &mut rng).is_err());
        let selected = vec![WorkerId(0)];
        assert!(e.execute(&query(), &selected, |_| Some(9), &mut rng).is_err());
    }

    #[test]
    fn stats_accumulate_across_executions() {
        let e = engine_with_fleet();
        let mut rng = StdRng::seed_from_u64(3);
        let selected: Vec<WorkerId> = e.online().iter().map(|w| w.id).collect();
        assert_eq!(e.stats(), EngineStats::default());
        e.execute(&query(), &selected, |_| Some(0), &mut rng).unwrap();
        let mut q = query();
        q.deadline_ms = Some(800.0); // the 2G worker cannot make this
        e.execute(&q, &selected, |_| Some(0), &mut rng).unwrap();
        let stats = e.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.tasks, 6);
        assert_eq!(stats.deadline_misses, 1);
        assert_eq!(stats.answers, 5);
        assert!(stats.mean_latency_ms > 0.0);
    }

    #[test]
    fn retry_budget_reassigns_deadline_misses() {
        let mut q = query();
        q.deadline_ms = Some(800.0); // 2G ≈ 1035 ms > deadline; WiFi/3G fit

        // Without a budget the 2G worker's miss is simply counted.
        let e = engine_with_fleet();
        let mut rng = StdRng::seed_from_u64(3);
        let exec = e.execute_with_retry(&q, &[WorkerId(2)], |_| Some(0), &mut rng, 0).unwrap();
        assert!(exec.answers.is_empty());
        let s = e.stats();
        assert_eq!((s.tasks, s.deadline_misses, s.retries), (1, 1, 0));

        // With a budget the task is re-assigned to the fastest unused
        // worker and no miss is recorded. Per the paper's Figure 6 means the
        // 3G worker (169 + 171 ms) edges out WiFi (184 + 182 ms).
        let e = engine_with_fleet();
        let mut rng = StdRng::seed_from_u64(3);
        let exec = e.execute_with_retry(&q, &[WorkerId(2)], |_| Some(0), &mut rng, 1).unwrap();
        assert_eq!(exec.tasks.len(), 2, "the missed task's trace is kept");
        assert_eq!(exec.tasks[0].worker, WorkerId(2));
        assert_eq!(exec.tasks[0].answer, None);
        assert_eq!(exec.tasks[1].worker, WorkerId(1), "next-fastest is the 3G worker");
        assert_eq!(exec.answers, vec![(WorkerId(1), 0)]);
        let s = e.stats();
        assert_eq!((s.queries, s.tasks, s.answers, s.deadline_misses, s.retries), (1, 2, 1, 0, 1));
    }

    #[test]
    fn retry_budget_counts_miss_when_replacement_also_fails() {
        // A fleet of only 2G workers: the replacement misses too, so the
        // miss is recorded exactly once alongside the retry.
        let mut e = QueryExecutionEngine::new();
        for i in 0..2u64 {
            e.register(Worker {
                id: WorkerId(i),
                lon: -6.26,
                lat: 53.35,
                connection: ConnectionType::TwoG,
                avg_comp_ms: 100.0,
            });
        }
        let mut rng = StdRng::seed_from_u64(3);
        let mut q = query();
        q.deadline_ms = Some(800.0);
        let exec = e.execute_with_retry(&q, &[WorkerId(0)], |_| Some(0), &mut rng, 5).unwrap();
        assert!(exec.answers.is_empty());
        let s = e.stats();
        assert_eq!((s.tasks, s.deadline_misses, s.retries), (2, 1, 1));
    }

    #[test]
    fn retry_budget_without_spare_workers_counts_miss() {
        let mut e = QueryExecutionEngine::new();
        e.register(Worker {
            id: WorkerId(0),
            lon: -6.26,
            lat: 53.35,
            connection: ConnectionType::TwoG,
            avg_comp_ms: 100.0,
        });
        let mut rng = StdRng::seed_from_u64(3);
        let mut q = query();
        q.deadline_ms = Some(800.0);
        e.execute_with_retry(&q, &[WorkerId(0)], |_| Some(0), &mut rng, 3).unwrap();
        let s = e.stats();
        assert_eq!((s.tasks, s.deadline_misses, s.retries), (1, 1, 0));
    }

    #[test]
    fn no_answers_mean_latency_none() {
        let e = engine_with_fleet();
        let mut rng = StdRng::seed_from_u64(3);
        let exec = e.execute(&query(), &[WorkerId(0)], |_| None, &mut rng).unwrap();
        assert!(exec.mean_latency().is_none());
        assert!(exec.votes.is_empty());
    }
}
