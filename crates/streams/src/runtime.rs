//! Runtime: executes a validated topology on a thread per source-fed
//! process plus a pool for everything fed by a queue.
//!
//! Every process is a `Worker` that advances one `Worker::step` at a
//! time: hand owed items on, pull a batch and run it through the processor
//! chain, go idle, or — once the input has ended — flush the chain and
//! propagate end-of-stream. Two drivers step the same workers and differ
//! only in who waits. [`crate::replay::ReplayRuntime`] steps them all on one
//! thread under a seeded scheduler and is told when a worker is blocked.
//! This [`Runtime`] gives each process that pulls a [`Source`] a thread of
//! its own, which steps it to the end and waits inside the source call or a
//! full queue — a source may block in `next_batch`, and must not hold up
//! anything else while it does. Every process fed by a queue is stepped by a
//! pool of `available_parallelism` threads instead: a pool thread visits
//! the workers in topology order and steps each until it is blocked, done,
//! or has had a small budget of steps, and a pool thread that found nothing
//! to do parks on one doorbell that every queue rings on each publication,
//! end and drain (a `spsc::Doorbell`). Every queue consumer is a
//! pool worker, so the replay scheduler's argument — on an acyclic topology
//! some worker can always move — is what keeps the pool live
//! ([`Topology::validate`] rejects a cycle through queues).
//! End-of-stream propagates through queues as each producer closes its own
//! ring, so the whole graph drains and terminates deterministically.
//!
//! Every processor invocation — `process` and `finish` alike — is
//! *supervised*: errors and panics (`catch_unwind`) become faults governed by
//! the process's [`FaultPolicy`] — fail the run, skip the call's output,
//! retry the failing call, dead-letter it, or restart the chain — with
//! outcomes counted in the process's [`StageMetrics`]. Under the default
//! [`FaultPolicy::FailFast`] the first fault aborts its process;
//! end-of-stream is still propagated downstream so no worker waits forever,
//! and `run` returns the first error.

use crate::checkpoint::{Checkpoint, CheckpointStore};
use crate::error::StreamsError;
use crate::fault::{DeadLetterQueue, DeadLetterRecord, FaultPolicy};
use crate::item::{DataItem, Stamp};
use crate::metrics::{MetricsRegistry, StageMetrics};
use crate::partition::Dispatch;
use crate::processor::{drive_chain, push_outputs, Context, Processor};
use crate::queue::{queue_on, QueueReceiver, QueueSender};
use crate::sink::Sink;
use crate::source::{Polled, Source};
use crate::spsc::Doorbell;
use crate::topology::{Input, Output, Role, SharedProcessorFactory, Topology};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread;
use std::time::Instant;

/// Checkpoint cadence applied when [`FaultPolicy::Restart`] is armed but
/// the process declares no explicit
/// [`checkpoint_every`](crate::topology::ProcessBuilder::checkpoint_every):
/// the replay log is truncated only at barriers, so supervision without a
/// cadence would retain every input for the life of the stream.
pub const DEFAULT_RESTART_CADENCE: usize = 1000;

/// Statistics of one completed run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Per process: `(items consumed, items emitted)`.
    pub per_process: HashMap<String, (u64, u64)>,
}

impl RunStats {
    /// Total items consumed across processes.
    pub fn total_consumed(&self) -> u64 {
        self.per_process.values().map(|v| v.0).sum()
    }

    /// Total items emitted across processes.
    pub fn total_emitted(&self) -> u64 {
        self.per_process.values().map(|v| v.1).sum()
    }

    /// The run's result from its workers' [`Worker::outcome`]s, in topology
    /// order: the first error, else every process's counts.
    pub(crate) fn collect(
        outcomes: impl IntoIterator<Item = Result<(String, u64, u64), StreamsError>>,
    ) -> Result<RunStats, StreamsError> {
        let mut stats = RunStats::default();
        for outcome in outcomes {
            let (name, consumed, emitted) = outcome?;
            stats.per_process.insert(name, (consumed, emitted));
        }
        Ok(stats)
    }
}

enum ProcInput {
    Source(Box<dyn Source>),
    Queue(QueueReceiver),
}

impl ProcInput {
    /// Appends up to `max` items to `out` without waiting.
    fn poll(&mut self, max: usize, out: &mut Vec<DataItem>) -> Result<Polled, StreamsError> {
        match self {
            ProcInput::Queue(q) => Ok(q.try_recv_batch(max, out)),
            ProcInput::Source(s) => s.poll_batch(max, out),
        }
    }

    /// The input's sequence progress (see [`crate::partition`]); a source
    /// has none.
    fn progress(&self) -> i64 {
        match self {
            ProcInput::Queue(q) => q.progress(),
            ProcInput::Source(_) => 0,
        }
    }

    /// Appends up to `max` items to `out`, waiting for the first one:
    /// [`Polled::Items`] or [`Polled::Ended`], never `Pending`. Only a
    /// source waits: a queue-fed worker is stepped by the pool, which never
    /// lets a step wait.
    fn wait(&mut self, max: usize, out: &mut Vec<DataItem>) -> Result<Polled, StreamsError> {
        let ProcInput::Source(s) = self else {
            unreachable!("a queue-fed worker is stepped without waiting")
        };
        let n = s.next_batch(max, out)?;
        Ok(if n == 0 { Polled::Ended } else { Polled::Items(n) })
    }
}

enum ProcOutput {
    Queue(QueueSender),
    Sink(Box<dyn Sink>),
    Discard,
}

/// Executes a [`Topology`].
pub struct Runtime {
    topology: Topology,
    metrics: Arc<MetricsRegistry>,
}

impl Runtime {
    /// Wraps a topology for execution (with a fresh metrics registry).
    pub fn new(topology: Topology) -> Runtime {
        Runtime { topology, metrics: Arc::new(MetricsRegistry::new()) }
    }

    /// Uses an externally owned metrics registry, so the caller can snapshot
    /// instruments after (or while) the topology runs.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> Runtime {
        self.metrics = metrics;
        self
    }

    /// The registry this runtime records into.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// Validates and runs the topology to completion: a thread per
    /// source-fed process, stepping its worker with waiting allowed until it
    /// is done, and `available_parallelism` pool threads stepping the rest
    /// (see the module docs).
    pub fn run(self) -> Result<RunStats, StreamsError> {
        self.run_on(thread::available_parallelism().map_or(1, |n| n.get()))
    }

    /// [`Runtime::run`] with `threads` pool threads.
    fn run_on(self, threads: usize) -> Result<RunStats, StreamsError> {
        let bell = Arc::new(Doorbell::default());
        let workers = materialize(self.topology, &self.metrics, &bell)?;
        let mut outcomes: Vec<_> = workers.iter().map(|_| None).collect();
        let mut sources = Vec::new();
        let mut pooled = Vec::new();
        for (i, mut w) in workers.into_iter().enumerate() {
            if matches!(w.input, ProcInput::Queue(_)) {
                pooled.push((i, w));
                continue;
            }
            let name = w.name.clone();
            let handle = thread::spawn(move || {
                while w.step(true) != Progress::Done {}
                w.outcome()
            });
            sources.push((i, name, handle));
        }
        let (index, pooled): (Vec<usize>, Vec<Worker>) = pooled.into_iter().unzip();
        let pool = Pool::new(pooled, bell);
        thread::scope(|scope| {
            for _ in 0..threads.max(1) {
                scope.spawn(|| pool.drive());
            }
        });
        for (i, outcome) in index.into_iter().zip(pool.outcomes()) {
            outcomes[i] = Some(outcome);
        }
        for (i, process, handle) in sources {
            // A panic that escaped the per-invocation supervision (a bug in
            // the worker itself, a panicking sink, ...) still must not abort
            // the caller: surface it as an error.
            outcomes[i] = Some(handle.join().unwrap_or_else(|payload| {
                Err(StreamsError::ProcessorPanicked { process, payload: panic_message(payload) })
            }));
        }
        RunStats::collect(outcomes.into_iter().map(|o| o.expect("every worker has an outcome")))
    }
}

/// Steps a pool thread gives one worker per visit at most, so a worker that
/// always has input cannot keep its thread from the rest of the graph.
const STEP_BUDGET: usize = 16;

/// Times a pool thread that found nothing to do yields its CPU, sweeping
/// after each, before it parks.
const YIELDS_BEFORE_PARK: usize = 16;

/// The queue-fed workers of a [`Runtime`] run, shared by its pool threads.
struct Pool {
    slots: Vec<Slot>,
    /// Rung by every queue on each publication, end and drain; the pool
    /// threads park on it.
    bell: Arc<Doorbell>,
    /// Workers not yet finished.
    live: AtomicUsize,
}

/// One pooled worker: whichever pool thread holds the lock steps it.
struct Slot {
    name: String,
    /// The worker until it finishes; dropping it closes its queue ends.
    worker: Mutex<Option<Worker>>,
    outcome: OnceLock<Result<(String, u64, u64), StreamsError>>,
}

impl Pool {
    fn new(workers: Vec<Worker>, bell: Arc<Doorbell>) -> Pool {
        Pool {
            live: AtomicUsize::new(workers.len()),
            slots: workers
                .into_iter()
                .map(|w| Slot {
                    name: w.name.clone(),
                    worker: Mutex::new(Some(w)),
                    outcome: OnceLock::new(),
                })
                .collect(),
            bell,
        }
    }

    /// One pool thread: sweeps the workers in topology order, stepping each
    /// one no other thread holds, until every worker has finished. After a
    /// sweep in which nothing moved it yields its CPU a few times, sweeping
    /// after each — a source thread sharing the CPU gets to publish a batch
    /// instead of waking the pool for every item — and then parks on the
    /// bell. It registers on the bell *before* its last sweep, so whatever
    /// happens after that sweep looked rings it awake: every event that can
    /// unblock a worker rings the bell (a publication, end or drain of a
    /// queue), and a worker another thread held during the sweep is that
    /// thread's to account for. A parked pool leaves nothing runnable
    /// behind.
    fn drive(&self) {
        while self.live.load(Ordering::Acquire) > 0 {
            if self.sweep()
                || (0..YIELDS_BEFORE_PARK).any(|_| {
                    thread::yield_now();
                    self.sweep()
                })
            {
                continue;
            }
            self.bell.wait_until(|| self.sweep() || self.live.load(Ordering::Acquire) == 0);
        }
    }

    /// Steps every worker no other thread holds, in topology order; returns
    /// whether any moved.
    fn sweep(&self) -> bool {
        let mut progressed = false;
        for slot in &self.slots {
            if slot.outcome.get().is_some() {
                continue;
            }
            if let Ok(mut worker) = slot.worker.try_lock() {
                progressed |= self.visit(slot, &mut worker);
            }
        }
        progressed
    }

    /// Steps one worker until it is blocked or done, at most
    /// [`STEP_BUDGET`] times. Returns whether it moved.
    fn visit(&self, slot: &Slot, held: &mut Option<Worker>) -> bool {
        let Some(worker) = held else { return false };
        let mut steps = 0;
        let panicked = loop {
            if steps == STEP_BUDGET {
                return true;
            }
            match catch_unwind(AssertUnwindSafe(|| worker.step(false))) {
                Ok(Progress::Blocked) => return steps > 0,
                Ok(_) if worker.is_done() => break None,
                Ok(_) => steps += 1,
                Err(payload) => break Some(payload),
            }
        };
        let worker = held.take().expect("the worker was running");
        let outcome = match panicked {
            None => worker.outcome(),
            // A panic that escaped the per-invocation supervision (a bug in
            // the worker itself, a panicking sink, ...) ends this worker
            // only: dropping it closes its queue ends.
            Some(payload) => {
                drop(worker);
                Err(StreamsError::ProcessorPanicked {
                    process: slot.name.clone(),
                    payload: panic_message(payload),
                })
            }
        };
        let _ = slot.outcome.set(outcome);
        if self.live.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.bell.wake();
        }
        true
    }

    /// Every worker's outcome, in topology order, once all have finished.
    fn outcomes(self) -> impl Iterator<Item = Result<(String, u64, u64), StreamsError>> {
        self.slots
            .into_iter()
            .map(|slot| slot.outcome.into_inner().expect("the pool ran every worker to the end"))
    }
}

/// Validates a topology and builds one [`Worker`] per process, wired up with
/// its queues, metrics and fault policy. Shared by the threaded [`Runtime`]
/// and the single-threaded [`crate::replay::ReplayRuntime`], which step the
/// very same workers.
pub(crate) fn materialize(
    mut topology: Topology,
    metrics: &Arc<MetricsRegistry>,
    bell: &Arc<Doorbell>,
) -> Result<Vec<Worker>, StreamsError> {
    // Replicated processes become ordinary partition/replica/merge processes
    // first, so validation, queue accounting, metrics and scheduling all see
    // the real (expanded) graph.
    crate::partition::expand_replicas(&mut topology)?;
    topology.validate()?;
    let Topology { mut sources, queues, processes, services, dead_letters: _, checkpoint_store } =
        topology;
    let store = checkpoint_store.unwrap_or_else(CheckpointStore::in_memory);
    // Processors can reach the instruments through their Context.
    if !services.contains("metrics") {
        services.register_arc("metrics", Arc::clone(metrics));
    }

    // Count producers per queue: each gets a ring of its own.
    let mut producers: HashMap<String, usize> = HashMap::new();
    for p in &processes {
        for o in &p.outputs {
            if let Output::Queue(q) = o {
                *producers.entry(q.clone()).or_default() += 1;
            }
        }
    }

    // Create channels: one sender (and ring) per producing process, one
    // receiver per queue — queues are single-consumer by validation. Every
    // queue's consumer doorbell is `bell`. A merge's input receives in
    // sequence order.
    let mut senders: HashMap<String, Vec<QueueSender>> = HashMap::new();
    let mut receivers: HashMap<String, QueueReceiver> = HashMap::new();
    for (name, cap) in &queues {
        let n_prod = producers.get(name).copied().unwrap_or(0);
        if n_prod == 0 {
            // validate() guarantees such a queue also has no consumer;
            // skip it entirely.
            continue;
        }
        let ordered = processes
            .iter()
            .any(|p| p.role == Role::Merge && matches!(&p.input, Input::Queue(q) if q == name));
        let (mut txs, rx) = queue_on(*cap, n_prod, metrics.queue(name), Arc::clone(bell), ordered);
        // Popped in topology order: the i-th producer owns ring i, so a
        // merge releases trailing items in shard order.
        txs.reverse();
        senders.insert(name.clone(), txs);
        receivers.insert(name.clone(), rx);
    }

    // Materialise process workers.
    let mut workers = Vec::new();
    for p in processes {
        let input = match &p.input {
            Input::Stream(s) => ProcInput::Source(
                sources.remove(s).expect("validated: source exists and is unique"),
            ),
            Input::Queue(q) => ProcInput::Queue(
                receivers.remove(q).expect("validated: queue exists with one consumer"),
            ),
        };
        let outputs: Vec<ProcOutput> = p
            .outputs
            .into_iter()
            .map(|o| match o {
                Output::Queue(q) => ProcOutput::Queue(
                    senders.get_mut(&q).and_then(Vec::pop).expect("one sender per producer"),
                ),
                Output::Sink(s) => ProcOutput::Sink(s),
                Output::Discard => ProcOutput::Discard,
            })
            .collect();
        let mut factories = p.factories;
        factories.resize(p.processors.len(), None);
        let log_inputs = matches!(p.fault_policy, FaultPolicy::Restart { .. });
        // Restart truncates the replay log only at barriers, so a zero
        // cadence would let the log grow with the stream. Arm a default
        // cadence rather than silently keeping every input alive.
        let checkpoint_every = if log_inputs && p.checkpoint_every == 0 {
            DEFAULT_RESTART_CADENCE
        } else {
            p.checkpoint_every
        };
        workers.push(Worker {
            stage: metrics.stage(&p.name),
            ctx: Context::new(services.clone(), &p.name),
            name: p.name,
            input,
            chain: p.processors,
            owed: outputs.iter().map(|_| Vec::new()).collect(),
            outputs,
            policy: p.fault_policy,
            consecutive_faults: 0,
            batch_size: p.batch_size,
            dispatch: match p.role {
                Role::Router => {
                    Dispatch::Shard { keys: p.partition_keys, hints: p.partition_hints }
                }
                _ => Dispatch::Broadcast,
            },
            sequenced: matches!(p.role, Role::Router | Role::Shard),
            seq: None,
            through: 0,
            lifecycle: Lifecycle::Pump,
            error: None,
            inbox: Vec::new(),
            outs: Vec::new(),
            work: Vec::new(),
            consumed: 0,
            emitted: 0,
            factories,
            checkpoint_every,
            store: store.clone(),
            consumed_pos: 0,
            since_ckpt: 0,
            replay_log: VecDeque::new(),
            restarts_done: 0,
            log_inputs,
            entry_item: None,
        });
    }
    Ok(workers)
}

/// What one [`Worker::step`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Progress {
    /// Observable work: items consumed or handed on, progress published, a
    /// chain flush, end-of-stream.
    Progressed,
    /// Nothing can move without waiting: the input is empty and going idle
    /// published nothing, or every owed output is full. Only a step that may
    /// not wait returns this.
    Blocked,
    /// The worker has terminated.
    Done,
}

/// Where a worker is in its lifecycle.
enum Lifecycle {
    /// Consuming input.
    Pump,
    /// Input ended; flushing chain slot `i` (its `finish`) next.
    Finish(usize),
    /// Propagating end-of-stream to the outputs.
    Eos,
    /// Terminated.
    Done,
}

/// One process: its input, processor chain and outputs, plus everything the
/// supervisor and the checkpoint barriers need. Both drivers step it with
/// [`Worker::step`].
pub(crate) struct Worker {
    pub(crate) name: String,
    input: ProcInput,
    chain: Vec<Box<dyn Processor>>,
    outputs: Vec<ProcOutput>,
    ctx: Context,
    stage: Arc<StageMetrics>,
    policy: FaultPolicy,
    consecutive_faults: usize,
    batch_size: usize,
    dispatch: Dispatch,
    /// Router or shard: stamps its outputs and publishes its progress (see
    /// [`crate::partition`]).
    sequenced: bool,
    /// The sequence number of the input being processed, on a sequenced
    /// worker (`None` in the finish flush).
    seq: Option<i64>,
    /// Every input sequenced below it has had its outputs routed.
    through: i64,
    lifecycle: Lifecycle,
    /// The first unrecoverable error; from then on the worker only
    /// propagates end-of-stream.
    error: Option<StreamsError>,
    /// Reused receive buffer: the batch pulled off the input.
    inbox: Vec<DataItem>,
    /// Reused buffer of what left the chain's last slot, not yet routed.
    outs: Vec<DataItem>,
    /// Per output, the items routed to it and not yet handed on. A worker
    /// that owes anything hands it on before it does anything else.
    owed: Vec<Vec<DataItem>>,
    /// Reused walk stack of [`Worker::run_chain`]: `(slot, call)` pairs still
    /// to be invoked, popped depth-first — `Some(item)` is a `process` call,
    /// `None` the slot's `finish`.
    work: Vec<(usize, Option<DataItem>)>,
    /// Items taken off the input edge / handed to the outputs so far (the
    /// [`RunStats`] pair).
    consumed: u64,
    emitted: u64,
    /// One optional rebuild factory per chain slot (the restart supervisor
    /// needs every slot rebuildable).
    factories: Vec<Option<SharedProcessorFactory>>,
    /// Checkpoint barrier cadence in consumed items; 0 disables barriers.
    checkpoint_every: usize,
    /// Shared store the barriers write to and recovery reads from.
    store: CheckpointStore,
    /// Items fully applied from the input edge (the checkpoint position).
    consumed_pos: u64,
    /// Items consumed since the last barrier.
    since_ckpt: usize,
    /// Items consumed since the last barrier, kept for recovery replay
    /// (clones are `Arc` bumps). Only populated under `Restart`.
    replay_log: VecDeque<DataItem>,
    /// Lifetime restarts performed (bounded by `Restart::max`).
    restarts_done: usize,
    /// Whether the policy requires the replay log.
    log_inputs: bool,
    /// The current input item as it entered chain slot 0, so a restart can
    /// re-run it through the *whole* recovered chain. `None` outside the
    /// per-input phase (e.g. during the finish flush).
    entry_item: Option<DataItem>,
}

impl Worker {
    /// Advances the worker by one step. In order of precedence, a step
    ///
    /// * hands on what it owes its outputs, if anything;
    /// * pulls up to `batch_size` input items, runs each through the chain
    ///   ([`Worker::process_input`]), routes what leaves it into the
    ///   per-output buckets with the worker's [`Dispatch`] and hands it on;
    /// * goes idle ([`Worker::on_idle`]) if the input is open but empty;
    /// * flushes the chain once the input has ended — one slot's `finish`
    ///   per step — and then propagates end-of-stream.
    ///
    /// `wait` is the one thing the drivers do differently. The threaded
    /// [`Runtime`] passes `true` to a source-fed worker on its own thread:
    /// an idle worker then waits in the source's `next_batch`, and hands on
    /// through the blocking `send_batch`, so the step never returns
    /// [`Progress::Blocked`]. The runtime's pool and the replay scheduler
    /// pass `false` and get `Blocked` back instead; only a source-fed worker
    /// may wait.
    ///
    /// A fault no policy absorbs is kept as the worker's error; the worker
    /// drops what it cannot hand on and goes straight to end-of-stream, so
    /// nothing downstream waits for it.
    pub(crate) fn step(&mut self, wait: bool) -> Progress {
        let stepped = match self.lifecycle {
            _ if self.owed.iter().any(|owed| !owed.is_empty()) => self.hand_on(wait),
            Lifecycle::Pump => self.pump(wait),
            Lifecycle::Finish(i) if i < self.chain.len() => self.flush(i, wait),
            Lifecycle::Finish(_) | Lifecycle::Eos => {
                self.end_of_stream();
                return Progress::Progressed;
            }
            Lifecycle::Done => return Progress::Done,
        };
        match stepped {
            Ok(true) => Progress::Progressed,
            Ok(false) => Progress::Blocked,
            Err(e) => {
                self.error.get_or_insert(e);
                self.owed.iter_mut().for_each(Vec::clear);
                self.outs.clear();
                self.lifecycle = Lifecycle::Eos;
                Progress::Progressed
            }
        }
    }

    /// Whether the worker has terminated.
    pub(crate) fn is_done(&self) -> bool {
        matches!(self.lifecycle, Lifecycle::Done)
    }

    /// The terminated worker's `(name, consumed, emitted)`, or its error.
    pub(crate) fn outcome(self) -> Result<(String, u64, u64), StreamsError> {
        match self.error {
            Some(e) => Err(e),
            None => Ok((self.name, self.consumed, self.emitted)),
        }
    }

    /// The input phase of a step: a batch through the chain, or going idle.
    /// `Ok(false)` when there was nothing to do and the step may not wait.
    ///
    /// The input is asked without waiting first — a queue through
    /// `try_recv_batch`, a source through [`Source::poll_batch`] — and
    /// "nothing yet" is the moment this worker goes idle; only then, if
    /// allowed to, does it wait in the blocking call. A source that does not
    /// override `poll_batch` waits inside it, where the worker cannot see it
    /// wait.
    fn pump(&mut self, wait: bool) -> Result<bool, StreamsError> {
        let max = self.batch_size;
        // Read before the poll: should the input turn out empty, every input
        // sequenced below it has been handled.
        let settled = if self.sequenced { self.input.progress() } else { 0 };
        let started = Instant::now();
        let mut polled = self.input.poll(max, &mut self.inbox)?;
        // A merge's work is its ordered receive: each item it releases
        // carries a share of it. Any other receive is the queue hop's.
        let received_ns = match (&self.input, polled) {
            (ProcInput::Queue(q), Polled::Items(n)) if q.is_ordered() => {
                started.elapsed().as_nanos() as u64 / n as u64
            }
            _ => 0,
        };
        if polled == Polled::Pending {
            let advanced = self.on_idle(settled);
            if !wait {
                return Ok(advanced);
            }
            polled = self.input.wait(max, &mut self.inbox)?;
        }
        if polled == Polled::Ended {
            // From here on a restart must not re-run the last consumed item:
            // trailing items re-enter the chain mid-way instead, unstamped.
            self.entry_item = None;
            self.seq = None;
            self.lifecycle = Lifecycle::Finish(0);
            return Ok(true);
        }
        // A fault drops the rest of the batch with the drain.
        let mut inbox = std::mem::take(&mut self.inbox);
        let ran = inbox.drain(..).try_for_each(|item| self.process_input(item, received_ns));
        self.inbox = inbox;
        ran?;
        self.hand_on(wait)?;
        Ok(true)
    }

    /// Flushes chain slot `i`: its `finish` call, supervised like any
    /// `process` call, and what that hands on through the rest of the chain.
    fn flush(&mut self, i: usize, wait: bool) -> Result<bool, StreamsError> {
        let started = Instant::now();
        let ran = self.run_chain(i, None);
        self.stage.process_ns.record(started.elapsed());
        ran?;
        self.route();
        self.lifecycle = Lifecycle::Finish(i + 1);
        self.hand_on(wait)?;
        Ok(true)
    }

    /// Finishes every queue output and flushes every sink; the worker is
    /// done.
    fn end_of_stream(&mut self) {
        for o in &mut self.outputs {
            match o {
                ProcOutput::Queue(tx) => tx.finish(),
                ProcOutput::Sink(s) => {
                    if let Err(e) = s.flush() {
                        self.error.get_or_insert(e);
                    }
                }
                ProcOutput::Discard => {}
            }
        }
        self.lifecycle = Lifecycle::Done;
    }

    /// Hands owed items on to the outputs: all of them when the step may
    /// wait (blocking while a queue is full), otherwise what fits. Returns
    /// whether anything moved — a partial hand-off is progress, and
    /// reporting it as blocked could convince the replay scheduler of a
    /// deadlock that the consumer it already polled would resolve.
    fn hand_on(&mut self, wait: bool) -> Result<bool, StreamsError> {
        let mut moved = false;
        for (output, owed) in self.outputs.iter_mut().zip(&mut self.owed) {
            let before = owed.len();
            if before == 0 {
                continue;
            }
            match output {
                ProcOutput::Queue(tx) if wait => {
                    tx.send_batch(owed);
                }
                ProcOutput::Queue(tx) => {
                    tx.try_send_batch(owed);
                }
                ProcOutput::Sink(s) => {
                    for item in owed.drain(..) {
                        s.write_item(item)?;
                    }
                }
                ProcOutput::Discard => owed.clear(),
            }
            moved |= owed.len() < before;
        }
        if self.sequenced {
            // Every input below the first one still owed has been handed on.
            let owed_from = self.owed.iter().filter_map(|owed| owed.first()?.stamp().seq()).min();
            moved |= self.advance(owed_from.unwrap_or(self.through));
        }
        Ok(moved)
    }

    /// The idle transition: the input has nothing for this worker and it
    /// owes nothing. A shard passes on its input's progress `settled`, read
    /// before the input was found empty: the inputs it never saw are settled
    /// too (see [`crate::partition`]). Returns whether that told its
    /// consumer anything new. Idleness is read off the input's own answer;
    /// there is no timer.
    fn on_idle(&self, settled: i64) -> bool {
        self.sequenced && self.advance(settled)
    }

    /// Publishes `to` as this sequenced worker's progress on its queue
    /// outputs (see [`crate::partition`]). Returns whether it rose.
    fn advance(&self, to: i64) -> bool {
        self.outputs.iter().fold(false, |rose, output| match output {
            ProcOutput::Queue(tx) => tx.advance(to) | rose,
            _ => rose,
        })
    }

    /// Routes what left the chain into the per-output buckets according to
    /// this worker's [`Dispatch`]. A sequenced worker first stamps the
    /// outputs of its current input `(seq, 0)`, `(seq, 1)`, ….
    fn route(&mut self) {
        for (sub, mut item) in self.outs.drain(..).enumerate() {
            if let Some(seq) = self.seq {
                item.set_stamp(Stamp::Seq { seq, sub: sub as u32 });
            }
            self.dispatch.plan_into(item, &mut self.owed);
        }
        if let Some(seq) = self.seq {
            self.through = seq + 1;
        }
    }

    /// Consumes one input item: counts it, runs it through the chain under
    /// the fault policy and routes what left the chain — the timed part,
    /// together with the item's share `received_ns` of an ordered receive —
    /// then
    /// advances the checkpoint bookkeeping (position, replay log, barrier).
    ///
    /// The item's stamp comes off first. A shard's input carries its
    /// sequence number and the router numbers its input itself; any other
    /// worker — the merge among them — passes its items on unstamped.
    fn process_input(&mut self, mut item: DataItem, received_ns: u64) -> Result<(), StreamsError> {
        self.stage.items_in.inc();
        self.consumed += 1;
        let stamp = item.take_stamp();
        self.seq = self.sequenced.then(|| stamp.seq().unwrap_or(self.through));
        if matches!(self.policy, FaultPolicy::Restart { .. }) {
            self.entry_item = Some(item.clone());
        }
        let started = Instant::now();
        let ran = self.run_chain(0, Some(item));
        if ran.is_ok() {
            self.route();
        }
        self.stage.process_ns.record_ns(received_ns + started.elapsed().as_nanos() as u64);
        ran?;
        self.consumed_pos += 1;
        if self.log_inputs {
            // The chain succeeded, so the entry item's only remaining use is
            // the replay log — move it instead of cloning (the next input
            // re-arms it before anything can fault).
            let logged = self.entry_item.take().expect("Restart keeps the entry item");
            self.replay_log.push_back(logged);
        }
        self.maybe_checkpoint()
    }

    /// Takes a checkpoint barrier when the cadence is due: snapshots every
    /// checkpointable chain slot at the current position and truncates the
    /// replay log — items before the snapshot are covered by the stored
    /// state and never need replaying again.
    fn maybe_checkpoint(&mut self) -> Result<(), StreamsError> {
        if self.checkpoint_every == 0 {
            return Ok(());
        }
        self.since_ckpt += 1;
        if self.since_ckpt < self.checkpoint_every {
            return Ok(());
        }
        let mut any = false;
        for i in 0..self.chain.len() {
            if let Some(c) = self.chain[i].as_checkpointable() {
                let blob = c.snapshot();
                self.store.put(&self.name, i, Checkpoint { position: self.consumed_pos, blob })?;
                any = true;
            }
        }
        self.replay_log.clear();
        if any {
            self.stage.checkpoints.inc();
        }
        self.since_ckpt = 0;
        Ok(())
    }

    /// Rebuilds the whole chain from its factories, restores the latest
    /// checkpoints and silently replays the logged items. Their outputs were
    /// already emitted before the fault and processors are deterministic, so
    /// the regenerated outputs — all of them, however many a call produces —
    /// are discarded; what matters is that the replayed state catches up to
    /// the exact pre-fault position. A fault *during* replay escalates: the
    /// state can no longer be trusted.
    fn recover(&mut self) -> Result<(), StreamsError> {
        for (i, factory) in self.factories.iter().enumerate() {
            match factory {
                Some(make) => self.chain[i] = make(),
                None => {
                    return Err(StreamsError::ProcessorFailed {
                        process: self.name.clone(),
                        processor: Some(i),
                        message: "restart requires a processor_factory for every chain slot".into(),
                    })
                }
            }
        }
        for i in 0..self.chain.len() {
            let Some(cp) = self.store.latest(&self.name, i) else { continue };
            if let Some(c) = self.chain[i].as_checkpointable() {
                c.restore(&cp.blob)?;
            }
        }
        // `self.work` may hold the faulted walk's pending siblings.
        let mut work = Vec::new();
        for logged in &self.replay_log {
            self.stage.replayed_items.inc();
            drive_chain(
                &mut self.chain,
                0,
                logged.clone(),
                &mut self.ctx,
                &mut work,
                |p, item, ctx, i| invoke(p, Some(item), ctx, &self.name, i),
                drop,
            )?;
        }
        Ok(())
    }

    /// Before a retry re-invokes a stateful processor, roll it back to its
    /// last checkpoint — *iff* that checkpoint covers exactly the current
    /// position (i.e. it was taken after the previous item; with
    /// `checkpoint_every(1)` that is always true). A stale checkpoint would
    /// silently lose the state applied since the barrier, which is worse than
    /// retrying on the partially-applied state, so it is left alone.
    fn restore_for_retry(&mut self, i: usize) {
        let Some(cp) = self.store.latest(&self.name, i) else { return };
        if cp.position != self.consumed_pos {
            return;
        }
        if let Some(c) = self.chain[i].as_checkpointable() {
            if c.restore(&cp.blob).is_ok() {
                self.stage.restores.inc();
            }
        }
    }

    /// Walks one call through the chain under the fault policy, depth-first
    /// (see [`drive_chain`]): `process(item)` of slot `from`, or with no
    /// item slot `from`'s `finish`. Every output of a call — what it
    /// emitted, then what it returned — traverses the rest of the chain, and
    /// what leaves the last slot is appended to `outs` in output order and
    /// counted. Nothing appended covers a filtering processor as well as a
    /// faulted call the policy dropped (skipped or dead-lettered).
    ///
    /// A fault is handled here, once, for the call that failed: its siblings
    /// already walked keep their outputs, those still to walk proceed. The
    /// exception is `Restart` on an input item, which voids everything the
    /// input produced so far (see [`Worker::on_fault`]).
    ///
    /// The loop is [`drive_chain`]'s, written out: a fault needs the whole
    /// worker while the walk is under way — a retry pushes its outputs on
    /// the stack, a restart swaps the chain out from under it and rewinds
    /// `outs` — and a closure handed to `drive_chain` next to `&mut
    /// self.chain` can have none of that. Both push through
    /// [`push_outputs`], so the output order is defined once.
    fn run_chain(&mut self, from: usize, call: Option<DataItem>) -> Result<(), StreamsError> {
        // Preserve the item as it entered each processor so Retry can re-run
        // it and DeadLetter can record it; FailFast skips the clone tax.
        let preserve = !matches!(self.policy, FaultPolicy::FailFast);
        let mark = self.outs.len();
        debug_assert!(self.work.is_empty());
        self.work.push((from, call));
        while let Some((i, cur)) = self.work.pop() {
            if i == self.chain.len() {
                self.consecutive_faults = 0;
                self.outs.push(cur.expect("only items leave the chain"));
                continue;
            }
            let entered = if preserve { cur.clone() } else { None };
            match invoke(&mut self.chain[i], cur, &mut self.ctx, &self.name, i) {
                Ok(returned) => {
                    if returned.is_none() && !self.ctx.has_emitted() {
                        self.consecutive_faults = 0; // filtered, not faulted
                    }
                    push_outputs(&mut self.work, i + 1, returned, &mut self.ctx);
                }
                Err(error) => {
                    if let Err(fatal) = self.on_fault(i, entered, error, mark) {
                        self.work.clear();
                        return Err(fatal);
                    }
                }
            }
        }
        let out = (self.outs.len() - mark) as u64;
        self.stage.items_out.add(out);
        self.emitted += out;
        Ok(())
    }

    /// Applies the fault policy to a failed call of processor `i` during a
    /// [`Worker::run_chain`] walk. `entered` is the call as it entered that
    /// processor: the item of a `process` call (`None` under `FailFast`,
    /// which never needs it), `None` for `finish`. `Ok` means the walk goes
    /// on — with whatever this pushed onto the work stack; `Err` ends it.
    fn on_fault(
        &mut self,
        i: usize,
        entered: Option<DataItem>,
        error: StreamsError,
        mark: usize,
    ) -> Result<(), StreamsError> {
        self.record_fault(&error);
        match self.policy.clone() {
            FaultPolicy::FailFast => Err(error),
            FaultPolicy::Skip { max_consecutive } => {
                self.consecutive_faults += 1;
                if self.consecutive_faults > max_consecutive {
                    return Err(error);
                }
                self.stage.skipped.inc();
                Ok(())
            }
            FaultPolicy::Retry { attempts, backoff } => {
                let mut last = error;
                for attempt in 1..=attempts {
                    if !backoff.is_zero() {
                        thread::sleep(backoff * attempt as u32);
                    }
                    self.stage.retries.inc();
                    // Roll a checkpointable processor back to its barrier
                    // state so the retry does not double-apply the mutations
                    // of the failed attempt (see the `Processor` state
                    // contract). What the failed attempt emitted is gone
                    // already: `invoke` discards a failed call's buffer.
                    self.restore_for_retry(i);
                    match invoke(&mut self.chain[i], entered.clone(), &mut self.ctx, &self.name, i)
                    {
                        Ok(returned) => {
                            self.consecutive_faults = 0;
                            push_outputs(&mut self.work, i + 1, returned, &mut self.ctx);
                            return Ok(());
                        }
                        Err(e) => {
                            self.record_fault(&e);
                            last = e;
                        }
                    }
                }
                Err(last)
            }
            FaultPolicy::DeadLetter { queue } => {
                self.dead_letter(&queue, Some(i), entered, error);
                Ok(())
            }
            FaultPolicy::Restart { max } => {
                if self.restarts_done >= max {
                    return Err(error);
                }
                self.restarts_done += 1;
                self.stage.restores.inc();
                let started = Instant::now();
                self.recover()?;
                self.stage.recovery_ns.add(started.elapsed().as_nanos() as u64);
                match self.entry_item.clone() {
                    // Recovery rebuilt the WHOLE chain to the state before
                    // the current input item entered slot 0, so that item
                    // re-runs from the top — re-invoking at slot `i` would
                    // skip the rebuilt earlier slots — and everything it
                    // had produced before the fault, delivered nowhere yet,
                    // is void: the re-run produces it again. A fault in the
                    // re-run comes back here and spends another restart.
                    Some(item) => {
                        self.outs.truncate(mark);
                        self.work.clear();
                        self.work.push((0, Some(item)));
                    }
                    // In the finish flush there is no entry item: a trailing
                    // item re-enters where it faulted (its siblings stand),
                    // a `finish` call is made again — the recovered state
                    // includes every consumed item, and earlier slots have
                    // flushed already.
                    None => self.work.push((i, entered)),
                }
                Ok(())
            }
        }
    }

    fn record_fault(&self, error: &StreamsError) {
        self.stage.faults.inc();
        if matches!(error, StreamsError::ProcessorPanicked { .. }) {
            self.stage.panics.inc();
        }
    }

    /// Records a dead-lettered call, with the sequence number of a shard's
    /// current input.
    fn dead_letter(
        &self,
        queue: &DeadLetterQueue,
        processor: Option<usize>,
        item: Option<DataItem>,
        error: StreamsError,
    ) {
        self.stage.dead_letters.inc();
        let seq = self.seq;
        queue.push(DeadLetterRecord { process: self.name.clone(), processor, item, seq, error });
    }
}

fn wrap(process: &str, processor: usize, e: StreamsError) -> StreamsError {
    match e {
        StreamsError::ProcessorFailed { .. } | StreamsError::ProcessorPanicked { .. } => e,
        other => StreamsError::ProcessorFailed {
            process: process.to_string(),
            processor: Some(processor),
            message: other.to_string(),
        },
    }
}

/// Renders a caught panic payload (`&str`/`String` survive verbatim).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// One supervised call: `process(item)`, or `finish()` without an item,
/// whose trailing items are handed on like emitted ones (after what it
/// emitted). Panics are isolated via `catch_unwind` and surfaced as
/// [`StreamsError::ProcessorPanicked`]. On success the call's emitted items
/// are left in the context's buffer for the caller to drain; a failed call's
/// are discarded.
fn invoke(
    p: &mut Box<dyn Processor>,
    item: Option<DataItem>,
    ctx: &mut Context,
    process: &str,
    index: usize,
) -> Result<Option<DataItem>, StreamsError> {
    let call = catch_unwind(AssertUnwindSafe(|| match item {
        Some(item) => p.process(item, ctx),
        None => p.finish(ctx).map(|trailing| {
            trailing.into_iter().for_each(|item| ctx.emit(item));
            None
        }),
    }));
    let result = match call {
        Ok(result) => result.map_err(|e| wrap(process, index, e)),
        Err(payload) => Err(StreamsError::ProcessorPanicked {
            process: process.to_string(),
            payload: panic_message(payload),
        }),
    };
    if result.is_err() {
        ctx.discard_emitted();
    }
    result
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::DataItem;
    use crate::processor::FnProcessor;
    use crate::sink::{CollectSink, CountSink};
    use crate::source::VecSource;

    fn numbers(n: i64) -> VecSource {
        VecSource::new((0..n).map(|i| DataItem::new().with("n", i)))
    }

    #[test]
    fn linear_pipeline_runs() {
        let mut t = Topology::new();
        t.add_source("nums", numbers(100));
        t.add_queue("q", 8);
        t.process("double")
            .input(Input::Stream("nums".into()))
            .processor(FnProcessor::new(|mut item: DataItem, _| {
                let n = item.get_i64("n").unwrap();
                item.set("n", n * 2);
                Ok(Some(item))
            }))
            .output(Output::Queue("q".into()))
            .done();
        let sink = CollectSink::shared();
        t.process("collect")
            .input(Input::Queue("q".into()))
            .output(Output::Sink(Box::new(sink.clone())))
            .done();
        let stats = Runtime::new(t).run().unwrap();
        assert_eq!(sink.len(), 100);
        let values: Vec<i64> = sink.items().iter().map(|i| i.get_i64("n").unwrap()).collect();
        assert!(values.contains(&0) && values.contains(&198));
        assert_eq!(stats.per_process["double"], (100, 100));
        assert_eq!(stats.per_process["collect"], (100, 100));
    }

    #[test]
    fn filtering_drops_items() {
        let mut t = Topology::new();
        t.add_source("nums", numbers(10));
        let sink = CountSink::shared();
        t.process("odd-only")
            .input(Input::Stream("nums".into()))
            .processor(FnProcessor::new(|item: DataItem, _| {
                Ok((item.get_i64("n").unwrap() % 2 == 1).then_some(item))
            }))
            .output(Output::Sink(Box::new(sink.clone())))
            .done();
        Runtime::new(t).run().unwrap();
        assert_eq!(sink.count(), 5);
    }

    #[test]
    fn fan_in_multiple_producers() {
        let mut t = Topology::new();
        t.add_source("a", numbers(10));
        t.add_source("b", numbers(20));
        t.add_queue("merged", 4);
        t.process("pa")
            .input(Input::Stream("a".into()))
            .output(Output::Queue("merged".into()))
            .done();
        t.process("pb")
            .input(Input::Stream("b".into()))
            .output(Output::Queue("merged".into()))
            .done();
        let sink = CountSink::shared();
        t.process("sum")
            .input(Input::Queue("merged".into()))
            .output(Output::Sink(Box::new(sink.clone())))
            .done();
        Runtime::new(t).run().unwrap();
        assert_eq!(sink.count(), 30);
    }

    #[test]
    fn fan_out_broadcasts_to_all_outputs() {
        let mut t = Topology::new();
        t.add_source("nums", numbers(5));
        t.add_queue("q1", 4);
        t.add_queue("q2", 4);
        t.process("p")
            .input(Input::Stream("nums".into()))
            .output(Output::Queue("q1".into()))
            .output(Output::Queue("q2".into()))
            .done();
        let s1 = CountSink::shared();
        let s2 = CountSink::shared();
        t.process("c1")
            .input(Input::Queue("q1".into()))
            .output(Output::Sink(Box::new(s1.clone())))
            .done();
        t.process("c2")
            .input(Input::Queue("q2".into()))
            .output(Output::Sink(Box::new(s2.clone())))
            .done();
        Runtime::new(t).run().unwrap();
        assert_eq!(s1.count(), 5);
        assert_eq!(s2.count(), 5);
    }

    #[test]
    fn chained_queues_terminate() {
        let mut t = Topology::new();
        t.add_source("nums", numbers(50));
        t.add_queue("q1", 4);
        t.add_queue("q2", 4);
        t.process("s1")
            .input(Input::Stream("nums".into()))
            .output(Output::Queue("q1".into()))
            .done();
        t.process("s2").input(Input::Queue("q1".into())).output(Output::Queue("q2".into())).done();
        let sink = CountSink::shared();
        t.process("s3")
            .input(Input::Queue("q2".into()))
            .output(Output::Sink(Box::new(sink.clone())))
            .done();
        let stats = Runtime::new(t).run().unwrap();
        assert_eq!(sink.count(), 50);
        assert_eq!(stats.total_consumed(), 150);
    }

    #[test]
    fn processor_error_fails_run_without_deadlock() {
        let mut t = Topology::new();
        t.add_source("nums", numbers(10));
        t.add_queue("q", 4);
        t.process("boom")
            .input(Input::Stream("nums".into()))
            .processor(FnProcessor::new(|item: DataItem, _| {
                if item.get_i64("n") == Some(3) {
                    Err(StreamsError::ServiceError { detail: "kaput".into() })
                } else {
                    Ok(Some(item))
                }
            }))
            .output(Output::Queue("q".into()))
            .done();
        let sink = CountSink::shared();
        t.process("down")
            .input(Input::Queue("q".into()))
            .output(Output::Sink(Box::new(sink.clone())))
            .done();
        let err = Runtime::new(t).run().unwrap_err();
        assert!(matches!(err, StreamsError::ProcessorFailed { .. }));
        // Downstream received the items before the failure and terminated.
        assert_eq!(sink.count(), 3);
    }

    #[test]
    fn finish_items_flow_through_rest_of_chain() {
        struct Tail;
        impl Processor for Tail {
            fn process(
                &mut self,
                item: DataItem,
                _ctx: &mut Context,
            ) -> Result<Option<DataItem>, StreamsError> {
                Ok(Some(item))
            }
            fn finish(&mut self, _ctx: &mut Context) -> Result<Vec<DataItem>, StreamsError> {
                Ok(vec![DataItem::new().with("summary", true)])
            }
        }
        let mut t = Topology::new();
        t.add_source("nums", numbers(2));
        let sink = CollectSink::shared();
        t.process("p")
            .input(Input::Stream("nums".into()))
            .processor(Tail)
            .processor(FnProcessor::new(|mut item: DataItem, _| {
                item.set("tagged", true);
                Ok(Some(item))
            }))
            .output(Output::Sink(Box::new(sink.clone())))
            .done();
        Runtime::new(t).run().unwrap();
        let items = sink.items();
        assert_eq!(items.len(), 3);
        let summary = items.iter().find(|i| i.contains("summary")).unwrap();
        assert_eq!(summary.get_bool("tagged"), Some(true), "finish items traverse the rest");
    }

    #[test]
    fn metrics_record_stage_flow_and_queue_traffic() {
        let mut t = Topology::new();
        t.add_source("nums", numbers(100));
        t.add_queue("q", 8);
        t.process("halve")
            .input(Input::Stream("nums".into()))
            .processor(FnProcessor::new(|item: DataItem, _| {
                Ok((item.get_i64("n").unwrap() % 2 == 0).then_some(item))
            }))
            .output(Output::Queue("q".into()))
            .done();
        let sink = CountSink::shared();
        t.process("collect")
            .input(Input::Queue("q".into()))
            .output(Output::Sink(Box::new(sink.clone())))
            .done();
        let rt = Runtime::new(t);
        let metrics = rt.metrics();
        rt.run().unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.stages["halve"].items_in, 100);
        assert_eq!(snap.stages["halve"].items_out, 50);
        assert!(snap.stages["halve"].process_ns.count >= 100, "every call timed");
        assert_eq!(snap.stages["collect"].items_in, 50);
        assert_eq!(snap.queues["q"].sent, 50);
        assert_eq!(snap.queues["q"].received, 50);
        assert_eq!(snap.queues["q"].depth, 0, "queue fully drained");
        assert!(snap.queues["q"].depth_high_water >= 1);
    }

    #[test]
    fn metrics_registry_is_exposed_as_a_service() {
        let mut t = Topology::new();
        t.add_source("nums", numbers(3));
        let sink = CountSink::shared();
        t.process("p")
            .input(Input::Stream("nums".into()))
            .processor(FnProcessor::new(|item: DataItem, ctx: &mut Context| {
                let m = ctx.services().get::<MetricsRegistry>("metrics")?;
                m.counter("custom.seen").inc();
                Ok(Some(item))
            }))
            .output(Output::Sink(Box::new(sink.clone())))
            .done();
        let rt = Runtime::new(t);
        let metrics = rt.metrics();
        rt.run().unwrap();
        assert_eq!(metrics.snapshot().counters["custom.seen"], 3);
    }

    #[test]
    fn batched_pipeline_matches_per_item_results() {
        let build = |batch: usize| {
            let mut t = Topology::new();
            t.add_source("nums", numbers(97));
            t.add_queue("q", 8);
            t.process("halve")
                .input(Input::Stream("nums".into()))
                .processor(FnProcessor::new(|item: DataItem, _| {
                    Ok((item.get_i64("n").unwrap() % 2 == 0).then_some(item))
                }))
                .output(Output::Queue("q".into()))
                .batch_size(batch)
                .done();
            let sink = CollectSink::shared();
            t.process("collect")
                .input(Input::Queue("q".into()))
                .output(Output::Sink(Box::new(sink.clone())))
                .batch_size(batch)
                .done();
            (t, sink)
        };
        let mut outcomes = Vec::new();
        for batch in [1usize, 16] {
            let (t, sink) = build(batch);
            let rt = Runtime::new(t);
            let metrics = rt.metrics();
            let stats = rt.run().unwrap();
            let values: Vec<i64> = sink.items().iter().map(|i| i.get_i64("n").unwrap()).collect();
            let snap = metrics.snapshot();
            assert_eq!(snap.queues["q"].sent, 49);
            assert_eq!(snap.queues["q"].received, 49);
            if batch > 1 {
                let sizes = &snap.queues["q"].batch_sizes;
                assert!(sizes.count > 0, "batched transfers were recorded");
                assert!(sizes.max_ns <= 16, "never exceeds the configured size");
            } else {
                assert_eq!(snap.queues["q"].batch_sizes.count, 0, "default records nothing");
            }
            outcomes.push((values, stats.per_process["halve"], stats.per_process["collect"]));
        }
        assert_eq!(outcomes[0], outcomes[1], "batching never changes results");
    }

    /// Two feeds fan in to a filtering 3-way replicated stage whose output a
    /// stage with a `finish` summary relays; tiny queues keep every worker
    /// blocking and waking.
    fn pooled_topology(sink: &CollectSink) -> Topology {
        struct Summary(i64);
        impl Processor for Summary {
            fn process(
                &mut self,
                item: DataItem,
                _: &mut Context,
            ) -> Result<Option<DataItem>, StreamsError> {
                self.0 += 1;
                Ok(Some(item))
            }
            fn finish(&mut self, _: &mut Context) -> Result<Vec<DataItem>, StreamsError> {
                Ok(vec![DataItem::new().with("seen", self.0)])
            }
        }
        let mut t = Topology::new();
        t.add_queue("in", 2);
        t.add_queue("out", 1);
        for (name, range) in [("a", 0..150), ("b", 1000..1090)] {
            let items = range.map(|n: i64| DataItem::new().with("n", n).with("key", n % 11));
            t.add_source(name, VecSource::new(items));
            t.process(&format!("feed-{name}"))
                .input(Input::Stream(name.into()))
                .output(Output::Queue("in".into()))
                .done();
        }
        t.process("stage")
            .input(Input::Queue("in".into()))
            .replicas(3)
            .partition_by(["key"])
            .batch_size(4)
            .processor_factory(|| {
                Box::new(FnProcessor::new(|item: DataItem, _: &mut Context| {
                    Ok((item.get_i64("n").unwrap() % 5 != 2).then_some(item))
                }))
            })
            .output(Output::Queue("out".into()))
            .done();
        t.process("summary")
            .input(Input::Queue("out".into()))
            .processor(Summary(0))
            .output(Output::Sink(Box::new(sink.clone())))
            .done();
        t
    }

    #[test]
    fn pool_matches_replay_at_every_thread_count() {
        let canonical = |sink: &CollectSink| {
            let mut items: Vec<String> = sink.items().iter().map(DataItem::to_json).collect();
            items.sort();
            items
        };
        let sink = CollectSink::shared();
        let replayed = crate::replay::ReplayRuntime::new(pooled_topology(&sink), 9).run().unwrap();
        let expected = canonical(&sink);
        assert_eq!(expected.len(), 192 + 1, "filtered data plus the summary");
        for threads in [1, 2, 4] {
            for _ in 0..5 {
                let sink = CollectSink::shared();
                let stats = Runtime::new(pooled_topology(&sink)).run_on(threads).unwrap();
                assert_eq!(stats, replayed, "{threads} pool thread(s)");
                assert_eq!(canonical(&sink), expected, "{threads} pool thread(s)");
            }
        }
    }

    #[test]
    fn invalid_topology_fails_before_spawning() {
        let mut t = Topology::new();
        t.process("a").input(Input::Stream("ghost".into())).output(Output::Discard).done();
        assert!(Runtime::new(t).run().is_err());
    }
}
