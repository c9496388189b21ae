//! Runtime: executes a validated topology, one thread per process.
//!
//! Sources are drained, items flow through processor chains, survivors are
//! cloned to every output. End-of-stream propagates through queues via
//! per-producer markers, so the whole graph drains and terminates
//! deterministically.
//!
//! Every processor invocation is *supervised*: errors and panics
//! (`catch_unwind`) become faults governed by the process's
//! [`FaultPolicy`] — fail the run, skip the item, retry the failing
//! processor, or dead-letter the item — with outcomes counted in the
//! process's [`StageMetrics`]. Under the default [`FaultPolicy::FailFast`]
//! the first fault aborts its process; end-of-stream is still propagated
//! downstream so no thread deadlocks, and `run` returns the first error.

use crate::checkpoint::{Checkpoint, CheckpointStore};
use crate::error::StreamsError;
use crate::fault::{DeadLetterQueue, DeadLetterRecord, FaultPolicy};
use crate::item::DataItem;
use crate::metrics::{MetricsRegistry, StageMetrics};
use crate::partition::{is_punctuation, Dispatch};
use crate::processor::{drive_chain, push_outputs, Context, Processor};
use crate::queue::{queue_with_metrics, QueueReceiver, QueueSender, TryRecv};
use crate::sink::Sink;
use crate::source::{Polled, Source};
use crate::topology::{Input, Output, SharedProcessorFactory, Topology};
use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread;
use std::time::Instant;

/// Checkpoint cadence applied when [`FaultPolicy::Restart`] with
/// `from_checkpoint` is armed but the process declares no explicit
/// [`checkpoint_every`](crate::topology::ProcessBuilder::checkpoint_every):
/// the replay log is truncated only at barriers, so supervision without a
/// cadence would retain every input for the life of the stream.
pub const DEFAULT_RESTART_CADENCE: usize = 1000;

/// Statistics of one completed run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunStats {
    /// Per process: `(data items consumed, data items emitted)`. Punctuation
    /// exchanged inside a sharded stage is not counted (see
    /// [`StageMetrics::punctuation_in`]).
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
}

pub(crate) enum ProcInput {
    Source(Box<dyn Source>),
    Queue(QueueReceiver),
}

pub(crate) enum ProcOutput {
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

    /// Validates and runs the topology to completion.
    pub fn run(self) -> Result<RunStats, StreamsError> {
        let metrics = self.metrics;
        let workers = materialize(self.topology, &metrics)?;

        let mut handles = Vec::new();
        for w in workers {
            let name = w.name.clone();
            handles.push((name, thread::spawn(move || w.run())));
        }

        let mut stats = RunStats::default();
        let mut first_error = None;
        for (process, h) in handles {
            match h.join() {
                Ok(Ok((name, consumed, emitted))) => {
                    stats.per_process.insert(name, (consumed, emitted));
                }
                Ok(Err(e)) => first_error = first_error.or(Some(e)),
                // A panic that escaped the per-invocation supervision (a bug
                // in the worker itself, a panicking sink, ...) still must not
                // abort the caller: surface it as an error.
                Err(payload) => {
                    first_error = first_error.or(Some(StreamsError::ProcessorPanicked {
                        process,
                        payload: panic_message(payload),
                    }))
                }
            }
        }
        match first_error {
            Some(e) => Err(e),
            None => Ok(stats),
        }
    }
}

/// Validates a topology and builds one [`Worker`] per process, wired up with
/// its queues, metrics and fault policy. Shared by the threaded [`Runtime`]
/// and the single-threaded [`crate::replay::ReplayRuntime`] so both execute
/// exactly the same supervised per-item semantics.
pub(crate) fn materialize(
    mut topology: Topology,
    metrics: &Arc<MetricsRegistry>,
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

    // Count producers per queue to size the EOS protocol.
    let mut producers: HashMap<&str, usize> = HashMap::new();
    for p in &processes {
        for o in &p.outputs {
            if let Output::Queue(q) = o {
                *producers.entry(q.as_str()).or_default() += 1;
            }
        }
    }

    // Create channels. Queues are single-consumer by validation; an edge
    // with exactly one producing process is therefore provably SPSC and gets
    // the lock-free ring (this covers every partition shard queue and every
    // linear pipeline edge). Fan-in edges keep the MPMC queue.
    let mut senders: HashMap<String, QueueSender> = HashMap::new();
    let mut receivers: HashMap<String, QueueReceiver> = HashMap::new();
    for (name, cap) in &queues {
        let n_prod = producers.get(name.as_str()).copied().unwrap_or(0);
        if n_prod == 0 {
            // validate() guarantees such a queue also has no consumer;
            // skip it entirely.
            continue;
        }
        let (tx, rx) = if n_prod == 1 {
            crate::queue::spsc_queue_with_metrics(*cap, metrics.queue(name))
        } else {
            queue_with_metrics(*cap, n_prod, metrics.queue(name))
        };
        senders.insert(name.clone(), tx);
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
                Output::Queue(q) => {
                    // An SPSC sender is single-owner: hand the worker the
                    // original handle instead of a clone (its sole producer
                    // is exactly this process).
                    if senders.get(&q).expect("validated").is_spsc() {
                        ProcOutput::Queue(senders.remove(&q).expect("validated"))
                    } else {
                        ProcOutput::Queue(senders.get(&q).expect("validated").clone())
                    }
                }
                Output::Sink(s) => ProcOutput::Sink(s),
                Output::Discard => ProcOutput::Discard,
            })
            .collect();
        let mut factories = p.factories;
        factories.resize(p.processors.len(), None);
        let log_inputs =
            matches!(p.fault_policy, FaultPolicy::Restart { from_checkpoint: true, .. });
        // From-checkpoint restart truncates the replay log only at barriers,
        // so a zero cadence would let the log grow with the stream. Arm a
        // default cadence rather than silently keeping every input alive.
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
            outputs,
            policy: p.fault_policy,
            consecutive_faults: 0,
            batch_size: p.batch_size,
            dispatch: if p.shard_dispatch {
                Dispatch::Shard {
                    keys: p.partition_keys.into(),
                    hints: p.partition_hints.into(),
                    since_wm: 0,
                    next_wm: 0,
                }
            } else {
                Dispatch::Broadcast
            },
            plan_buf: Vec::new(),
            pulled: Vec::with_capacity(1),
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
    // Drop the construction-time sender clones so queues can disconnect.
    drop(senders);
    Ok(workers)
}

pub(crate) struct Worker {
    pub(crate) name: String,
    pub(crate) input: ProcInput,
    pub(crate) chain: Vec<Box<dyn Processor>>,
    pub(crate) outputs: Vec<ProcOutput>,
    pub(crate) ctx: Context,
    pub(crate) stage: Arc<StageMetrics>,
    pub(crate) policy: FaultPolicy,
    pub(crate) consecutive_faults: usize,
    pub(crate) batch_size: usize,
    pub(crate) dispatch: Dispatch,
    /// Reused dispatch-plan buffer: the per-item hot path plans into this
    /// instead of allocating a fresh `Vec` per survivor.
    pub(crate) plan_buf: Vec<(usize, DataItem)>,
    /// Reused one-item buffer of the per-item source poll.
    pulled: Vec<DataItem>,
    /// Reused walk stack of [`Worker::run_chain`]: `(slot, item)` pairs still
    /// to be invoked, popped depth-first.
    work: Vec<(usize, DataItem)>,
    /// Data items taken off the input edge / handed to the outputs so far
    /// (the [`RunStats`] pair; punctuation is not counted).
    pub(crate) consumed: u64,
    pub(crate) emitted: u64,
    /// One optional rebuild factory per chain slot (the restart supervisor
    /// needs every slot rebuildable).
    pub(crate) factories: Vec<Option<SharedProcessorFactory>>,
    /// Checkpoint barrier cadence in consumed items; 0 disables barriers.
    pub(crate) checkpoint_every: usize,
    /// Shared store the barriers write to and recovery reads from.
    pub(crate) store: CheckpointStore,
    /// Items fully applied from the input edge (the checkpoint position).
    pub(crate) consumed_pos: u64,
    /// Items consumed since the last barrier.
    pub(crate) since_ckpt: usize,
    /// Items consumed since the last barrier, kept for recovery replay
    /// (clones are `Arc` bumps). Only populated under
    /// `Restart { from_checkpoint: true }`.
    pub(crate) replay_log: VecDeque<DataItem>,
    /// Lifetime restarts performed (bounded by `Restart::max`).
    pub(crate) restarts_done: usize,
    /// Whether the policy requires the replay log.
    pub(crate) log_inputs: bool,
    /// The current input item as it entered chain slot 0, so a restart can
    /// re-run it through the *whole* recovered chain. `None` outside the
    /// per-item phase (e.g. during the finish flush).
    pub(crate) entry_item: Option<DataItem>,
}

impl Worker {
    fn run(mut self) -> Result<(String, u64, u64), StreamsError> {
        let result = self.pump();
        // Always propagate end-of-stream so downstream processes terminate,
        // even if this process failed.
        for o in &mut self.outputs {
            match o {
                ProcOutput::Queue(tx) => tx.finish(),
                ProcOutput::Sink(s) => s.flush()?,
                ProcOutput::Discard => {}
            }
        }
        result.map(|()| (self.name, self.consumed, self.emitted))
    }

    fn pump(&mut self) -> Result<(), StreamsError> {
        // Batching never adds latency: `recv_batch` drains what is already
        // available in a queue without waiting for the batch to fill, and a
        // source's `next_batch` defaults to a single `next_item` pull unless
        // the source itself (pre-materialised data, e.g. `VecSource`) can
        // hand over a batch without holding earlier items back.
        if self.batch_size == 1 {
            // Per-item path: one queue round-trip per item and no batch-size
            // samples in the queue metrics.
            let mut outs = Vec::new();
            while let Some(item) = self.next_item()? {
                self.process_input(item, &mut outs)?;
                for out in outs.drain(..) {
                    self.dispatch_emit(out)?;
                }
            }
        } else {
            // Batched path: drain up to `batch_size` items per queue lock,
            // process them one at a time (identical results), forward the
            // outputs of each input batch in one batched send. Shard
            // dispatch buckets the plan per output first — bucketing keeps
            // each queue's sub-sequence in plan order, so per-queue FIFO
            // (and with it merge determinism) is untouched.
            let mut buckets: Vec<Vec<DataItem>> = Vec::new();
            if matches!(self.dispatch, Dispatch::Shard { .. }) {
                buckets = (0..self.outputs.len()).map(|_| Vec::new()).collect();
            }
            while let Some(items) = self.next_batch()? {
                let mut outs = Vec::with_capacity(items.len());
                for item in items {
                    self.process_input(item, &mut outs)?;
                }
                if outs.is_empty() {
                    continue;
                }
                if matches!(self.dispatch, Dispatch::Broadcast) {
                    emit_batch(&mut self.outputs, outs)?;
                } else {
                    self.plan_buf.clear();
                    for item in outs {
                        self.plan_output(item);
                    }
                    for (idx, it) in self.plan_buf.drain(..) {
                        buckets[idx].push(it);
                    }
                    for (idx, bucket) in buckets.iter_mut().enumerate() {
                        if !bucket.is_empty() {
                            deliver_batch(&mut self.outputs[idx], std::mem::take(bucket))?;
                        }
                    }
                }
            }
        }
        // Flush processor chain: finish() items of processor i traverse the
        // rest of the chain. From here on a restart must not re-run the last
        // consumed item — trailing items re-enter the chain mid-way instead.
        self.entry_item = None;
        let mut outs = Vec::new();
        for i in 0..self.chain.len() {
            let started = Instant::now();
            let trailing = self.run_finish(i);
            self.stage.process_ns.record(started.elapsed());
            for item in trailing? {
                self.run_chain(i + 1, item, &mut outs)?;
            }
            for out in outs.drain(..) {
                self.dispatch_emit(out)?;
            }
        }
        Ok(())
    }

    /// The next input item, `None` at end of stream. The input is asked
    /// without waiting first — a queue through `try_recv`, a source through
    /// [`Source::poll_batch`] — and "nothing yet" is the moment this worker
    /// goes idle (see [`Worker::on_idle`]); only then does it park in the
    /// blocking receive or pull. A source that does not override
    /// `poll_batch` waits inside it, where the worker cannot see it wait.
    fn next_item(&mut self) -> Result<Option<DataItem>, StreamsError> {
        match &mut self.input {
            ProcInput::Queue(q) => {
                if let TryRecv::Item(item) = q.try_recv() {
                    return Ok(Some(item));
                }
            }
            ProcInput::Source(s) => match s.poll_batch(1, &mut self.pulled)? {
                Polled::Items(_) => return Ok(self.pulled.pop()),
                Polled::Ended => return Ok(None),
                Polled::Pending => {}
            },
        }
        self.idle()?;
        match &mut self.input {
            ProcInput::Source(s) => s.next_item(),
            ProcInput::Queue(q) => Ok(q.recv()),
        }
    }

    /// [`Worker::next_item`] for the batched path: up to `batch_size` items.
    fn next_batch(&mut self) -> Result<Option<Vec<DataItem>>, StreamsError> {
        let max = self.batch_size;
        match &mut self.input {
            ProcInput::Queue(q) => {
                if let Some(items) = q.try_recv_batch(max) {
                    return Ok(Some(items));
                }
            }
            ProcInput::Source(s) => {
                let mut items = Vec::new();
                match s.poll_batch(max, &mut items)? {
                    Polled::Items(_) => return Ok(Some(items)),
                    Polled::Ended => return Ok(None),
                    Polled::Pending => {}
                }
            }
        }
        self.idle()?;
        match &mut self.input {
            ProcInput::Source(s) => {
                let mut items = Vec::new();
                Ok((s.next_batch(max, &mut items)? > 0).then_some(items))
            }
            ProcInput::Queue(q) => Ok(q.recv_batch(max)),
        }
    }

    /// The threaded driver's idle transition: sends are blocking here, so
    /// whatever going idle produced is delivered before the worker parks.
    fn idle(&mut self) -> Result<(), StreamsError> {
        if self.on_idle()? {
            for (idx, it) in self.plan_buf.drain(..) {
                deliver(&mut self.outputs[idx], it)?;
            }
        }
        Ok(())
    }

    /// Called by either driver at the instant this worker's input — queue
    /// or polled source — has nothing for it and everything it produced has
    /// been handed on: the threaded pump about to park in `recv` or a
    /// blocking pull, a replay step about to report itself blocked. A worker must not sit on anything that is ready to leave
    /// while it waits for input that may be long in coming: a sharding
    /// partitioner that routed items since its last watermark punctuates now
    /// (see [`crate::partition`]), which also puts its dispatch on a
    /// watermark, so a checkpoint barrier that was waiting for one lands.
    /// Returns whether `plan_buf` now holds deliveries for the driver to
    /// make. Quiescence is read off the input's own answer; there is no timer.
    pub(crate) fn on_idle(&mut self) -> Result<bool, StreamsError> {
        self.plan_buf.clear();
        let n_outputs = self.outputs.len();
        if !self.dispatch.plan_idle(n_outputs, &mut self.plan_buf) {
            return Ok(false);
        }
        self.stage.punctuation_out.add(n_outputs as u64);
        if self.checkpoint_every > 0 && self.since_ckpt >= self.checkpoint_every {
            self.take_checkpoint()?;
        }
        Ok(true)
    }

    /// Appends the deliveries of one chain output to `plan_buf` according to
    /// this worker's [`Dispatch`]: a copy for every output, or (on a
    /// synthesized partitioner) the keyed shard's output plus, when the
    /// flood cadence is due, a watermark for each.
    pub(crate) fn plan_output(&mut self, item: DataItem) {
        let n_outputs = self.outputs.len();
        if self.dispatch.plan_into(n_outputs, item, &mut self.plan_buf) {
            self.stage.punctuation_out.add(n_outputs as u64);
        }
    }

    /// Delivers one chain output (threaded driver).
    fn dispatch_emit(&mut self, item: DataItem) -> Result<(), StreamsError> {
        if matches!(self.dispatch, Dispatch::Broadcast) {
            return emit(&mut self.outputs, item);
        }
        self.plan_buf.clear();
        self.plan_output(item);
        for (idx, it) in self.plan_buf.drain(..) {
            deliver(&mut self.outputs[idx], it)?;
        }
        Ok(())
    }

    /// Consumes one input item: counts it, runs it through the chain under
    /// the fault policy — appending everything that leaves the chain to
    /// `out` — then advances the checkpoint bookkeeping (position, replay
    /// log, barrier). Shared by the threaded pump and the replay scheduler's
    /// step worker, so recovery semantics are identical under both drivers.
    ///
    /// Punctuation travels the same path as data (it occupies a position on
    /// the input edge and a restored merge needs it replayed) but is counted
    /// apart and does not advance the barrier cadence: how much of it there
    /// is depends on the schedule, and neither the data counters nor the
    /// number of barriers should. It must not detach the state from its
    /// checkpoint either — see the re-base at the end.
    pub(crate) fn process_input(
        &mut self,
        item: DataItem,
        out: &mut Vec<DataItem>,
    ) -> Result<(), StreamsError> {
        let punctuation = is_punctuation(&item);
        if punctuation {
            self.stage.punctuation_in.inc();
        } else {
            self.stage.items_in.inc();
            self.consumed += 1;
        }
        if matches!(self.policy, FaultPolicy::Restart { .. }) {
            self.entry_item = Some(item.clone());
        }
        let started = Instant::now();
        let ran = self.run_chain(0, item, out);
        self.stage.process_ns.record(started.elapsed());
        ran?;
        self.consumed_pos += 1;
        if self.log_inputs {
            // The chain succeeded, so the entry item's only remaining use is
            // the replay log — move it instead of cloning (the next input
            // re-arms it before anything can fault).
            let logged = self.entry_item.take().expect("Restart keeps the entry item");
            self.replay_log.push_back(logged);
        }
        if !punctuation {
            self.maybe_checkpoint()?;
        } else if self.checkpoint_every > 0 && self.since_ckpt == 0 {
            // Re-base: this punctuation arrived right behind a barrier (no
            // data since). It occupies a position and may have changed state
            // (a merge's frontier), so the barrier's snapshot is re-taken
            // here; left one position stale, `restore_for_retry` would skip
            // the rollback and a retried item apply twice — whenever a
            // watermark happens to follow a barrier, i.e. on some schedules.
            // It is the same barrier, not a new one: `checkpoints` counts
            // barriers and stays a function of the data.
            self.snapshot_chain()?;
        }
        Ok(())
    }

    /// Takes a checkpoint barrier when the cadence is due. On a sharding
    /// partitioner the barrier is deferred until the dispatch sits exactly on
    /// a watermark broadcast, so a restored partitioner and its merge agree
    /// on the settled frontier (the barrier/watermark alignment rule); it
    /// lands with the next item that finds it there, or when the worker goes
    /// idle and punctuates.
    fn maybe_checkpoint(&mut self) -> Result<(), StreamsError> {
        if self.checkpoint_every == 0 {
            return Ok(());
        }
        self.since_ckpt += 1;
        if self.since_ckpt < self.checkpoint_every {
            return Ok(());
        }
        if let Dispatch::Shard { since_wm, .. } = &self.dispatch {
            if *since_wm != 0 {
                return Ok(()); // deferred
            }
        }
        self.take_checkpoint()
    }

    /// Takes a barrier: snapshots the chain (see [`Worker::snapshot_chain`])
    /// and restarts the cadence.
    fn take_checkpoint(&mut self) -> Result<(), StreamsError> {
        if self.snapshot_chain()? {
            self.stage.checkpoints.inc();
        }
        self.since_ckpt = 0;
        Ok(())
    }

    /// Snapshots every checkpointable chain slot at the current position and
    /// truncates the replay log — items before the snapshot are covered by
    /// the stored state and never need replaying again. Returns whether any
    /// slot had state to store.
    fn snapshot_chain(&mut self) -> Result<bool, StreamsError> {
        let mut any = false;
        for i in 0..self.chain.len() {
            if let Some(c) = self.chain[i].as_checkpointable() {
                let blob = c.snapshot();
                self.store.put(&self.name, i, Checkpoint { position: self.consumed_pos, blob })?;
                any = true;
            }
        }
        self.replay_log.clear();
        Ok(any)
    }

    /// Rebuilds the whole chain from its factories and — under
    /// `from_checkpoint` — restores the latest checkpoints and silently
    /// replays the logged items. Their outputs were already emitted before
    /// the fault and processors are deterministic, so the regenerated outputs
    /// — all of them, however many a call produces — are discarded; what
    /// matters is that the replayed state catches up to the exact pre-fault
    /// position. A fault *during* replay escalates: the state can no longer
    /// be trusted.
    fn recover(&mut self, from_checkpoint: bool) -> Result<(), StreamsError> {
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
        if !from_checkpoint {
            self.replay_log.clear();
            return Ok(());
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
                |p, item, ctx, i| invoke(p, item, ctx, &self.name, i),
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

    /// Walks `item` through the chain from processor `from` under the fault
    /// policy, depth-first (see [`drive_chain`]): every output of a call —
    /// what it emitted, then what it returned — traverses the rest of the
    /// chain, and what leaves the last slot is appended to `out` in output
    /// order and counted. Nothing appended covers a filtering processor as
    /// well as a faulted item the policy dropped (skipped or dead-lettered).
    ///
    /// A fault is handled here, once, for the item that entered the failing
    /// slot: its siblings already walked keep their outputs, those still to
    /// walk proceed. The exception is `Restart` on an input item, which
    /// voids everything the input produced so far (see [`Worker::on_fault`]).
    ///
    /// The loop is [`drive_chain`]'s, written out: a fault needs the whole
    /// worker while the walk is under way — a retry pushes its outputs on
    /// the stack, a restart swaps the chain out from under it and rewinds
    /// `out` — and a closure handed to `drive_chain` next to `&mut
    /// self.chain` can have none of that. Both push through
    /// [`push_outputs`], so the output order is defined once.
    pub(crate) fn run_chain(
        &mut self,
        from: usize,
        item: DataItem,
        out: &mut Vec<DataItem>,
    ) -> Result<(), StreamsError> {
        // Preserve the item as it entered each processor so Retry can re-run
        // it and DeadLetter can record it; FailFast skips the clone tax.
        let preserve = !matches!(self.policy, FaultPolicy::FailFast);
        let mark = out.len();
        debug_assert!(self.work.is_empty());
        self.work.push((from, item));
        while let Some((i, cur)) = self.work.pop() {
            if i == self.chain.len() {
                self.consecutive_faults = 0;
                out.push(cur);
                continue;
            }
            let entered = preserve.then(|| cur.clone());
            match invoke(&mut self.chain[i], cur, &mut self.ctx, &self.name, i) {
                Ok(returned) => {
                    if returned.is_none() && !self.ctx.has_emitted() {
                        self.consecutive_faults = 0; // filtered, not faulted
                    }
                    push_outputs(&mut self.work, i + 1, returned, &mut self.ctx);
                }
                Err(error) => {
                    if let Err(fatal) = self.on_fault(i, entered, error, mark, out) {
                        self.work.clear();
                        return Err(fatal);
                    }
                }
            }
        }
        for item in &out[mark..] {
            if is_punctuation(item) {
                self.stage.punctuation_out.inc();
            } else {
                self.stage.items_out.inc();
                self.emitted += 1;
            }
        }
        Ok(())
    }

    /// Applies the fault policy to a failed invocation of processor `i`
    /// during a [`Worker::run_chain`] walk. `entered` is the item as it
    /// entered that processor (`None` under `FailFast`, which never needs
    /// it). `Ok` means the walk goes on — with whatever this pushed onto the
    /// work stack; `Err` ends it.
    fn on_fault(
        &mut self,
        i: usize,
        entered: Option<DataItem>,
        error: StreamsError,
        mark: usize,
        out: &mut Vec<DataItem>,
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
                    let again = entered.clone().expect("Retry preserves the input item");
                    match invoke(&mut self.chain[i], again, &mut self.ctx, &self.name, i) {
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
            FaultPolicy::Restart { max, from_checkpoint } => {
                if self.restarts_done >= max {
                    return Err(error);
                }
                self.restarts_done += 1;
                self.stage.restores.inc();
                let started = Instant::now();
                self.recover(from_checkpoint)?;
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
                        out.truncate(mark);
                        self.work.clear();
                        self.work.push((0, item));
                    }
                    // Trailing (finish flush) items have no entry item and
                    // re-enter where they faulted; their siblings stand.
                    None => {
                        let again = entered.expect("Restart preserves the input item");
                        self.work.push((i, again));
                    }
                }
                Ok(())
            }
        }
    }

    /// Supervised `finish` of processor `i`; a fault during the flush phase
    /// has no input item, so Skip/DeadLetter drop the trailing items.
    pub(crate) fn run_finish(&mut self, i: usize) -> Result<Vec<DataItem>, StreamsError> {
        match invoke_finish(&mut self.chain[i], &mut self.ctx, &self.name, i) {
            Ok(trailing) => {
                self.consecutive_faults = 0;
                Ok(trailing)
            }
            Err(error) => {
                self.record_fault(&error);
                match self.policy.clone() {
                    FaultPolicy::FailFast => Err(error),
                    FaultPolicy::Skip { max_consecutive } => {
                        self.consecutive_faults += 1;
                        if self.consecutive_faults > max_consecutive {
                            return Err(error);
                        }
                        Ok(Vec::new())
                    }
                    FaultPolicy::Retry { attempts, backoff } => {
                        let mut last = error;
                        for attempt in 1..=attempts {
                            if !backoff.is_zero() {
                                thread::sleep(backoff * attempt as u32);
                            }
                            self.stage.retries.inc();
                            match invoke_finish(&mut self.chain[i], &mut self.ctx, &self.name, i) {
                                Ok(trailing) => {
                                    self.consecutive_faults = 0;
                                    return Ok(trailing);
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
                        self.dead_letter(&queue, Some(i), None, error);
                        Ok(Vec::new())
                    }
                    FaultPolicy::Restart { max, from_checkpoint } => {
                        // Recover the chain, then re-run only this slot's
                        // finish: earlier slots already flushed. Chains with
                        // a single stateful slot (the supported shape) lose
                        // nothing; the recovered state includes every
                        // consumed item.
                        let mut last = error;
                        loop {
                            if self.restarts_done >= max {
                                return Err(last);
                            }
                            self.restarts_done += 1;
                            self.stage.restores.inc();
                            let started = Instant::now();
                            self.recover(from_checkpoint)?;
                            self.stage.recovery_ns.add(started.elapsed().as_nanos() as u64);
                            match invoke_finish(&mut self.chain[i], &mut self.ctx, &self.name, i) {
                                Ok(trailing) => {
                                    self.consecutive_faults = 0;
                                    return Ok(trailing);
                                }
                                Err(e) => {
                                    self.record_fault(&e);
                                    last = e;
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    fn record_fault(&self, error: &StreamsError) {
        self.stage.faults.inc();
        if matches!(error, StreamsError::ProcessorPanicked { .. }) {
            self.stage.panics.inc();
        }
    }

    fn dead_letter(
        &self,
        queue: &DeadLetterQueue,
        processor: Option<usize>,
        item: Option<DataItem>,
        error: StreamsError,
    ) {
        self.stage.dead_letters.inc();
        queue.push(DeadLetterRecord { process: self.name.clone(), processor, item, error });
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

/// One supervised `process` call: panics are isolated via `catch_unwind` and
/// surfaced as [`StreamsError::ProcessorPanicked`]. On success the call's
/// emitted items are left in the context's buffer for the caller to drain;
/// a failed call's are discarded.
fn invoke(
    p: &mut Box<dyn Processor>,
    item: DataItem,
    ctx: &mut Context,
    process: &str,
    index: usize,
) -> Result<Option<DataItem>, StreamsError> {
    let result = match catch_unwind(AssertUnwindSafe(|| p.process(item, ctx))) {
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

/// One supervised `finish` call (see [`invoke`]); returns what it emitted
/// followed by what it returned.
fn invoke_finish(
    p: &mut Box<dyn Processor>,
    ctx: &mut Context,
    process: &str,
    index: usize,
) -> Result<Vec<DataItem>, StreamsError> {
    let result = match catch_unwind(AssertUnwindSafe(|| p.finish(ctx))) {
        Ok(result) => result.map_err(|e| wrap(process, index, e)),
        Err(payload) => Err(StreamsError::ProcessorPanicked {
            process: process.to_string(),
            payload: panic_message(payload),
        }),
    };
    match result {
        Ok(returned) if ctx.has_emitted() => Ok(ctx.take_emitted().chain(returned).collect()),
        Ok(returned) => Ok(returned),
        Err(e) => {
            ctx.discard_emitted();
            Err(e)
        }
    }
}

fn deliver(output: &mut ProcOutput, item: DataItem) -> Result<(), StreamsError> {
    match output {
        ProcOutput::Queue(tx) => {
            tx.send(item);
        }
        ProcOutput::Sink(s) => s.write_item(item)?,
        ProcOutput::Discard => {}
    }
    Ok(())
}

fn emit(outputs: &mut [ProcOutput], item: DataItem) -> Result<(), StreamsError> {
    let Some(last) = outputs.len().checked_sub(1) else { return Ok(()) };
    for o in &mut outputs[..last] {
        deliver(o, item.clone())?;
    }
    deliver(&mut outputs[last], item)
}

fn deliver_batch(output: &mut ProcOutput, items: Vec<DataItem>) -> Result<(), StreamsError> {
    match output {
        ProcOutput::Queue(tx) => {
            tx.send_batch(items);
        }
        ProcOutput::Sink(s) => {
            for item in items {
                s.write_item(item)?;
            }
        }
        ProcOutput::Discard => {}
    }
    Ok(())
}

fn emit_batch(outputs: &mut [ProcOutput], items: Vec<DataItem>) -> Result<(), StreamsError> {
    let Some(last) = outputs.len().checked_sub(1) else { return Ok(()) };
    for o in &mut outputs[..last] {
        deliver_batch(o, items.clone())?;
    }
    deliver_batch(&mut outputs[last], items)
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

    #[test]
    fn invalid_topology_fails_before_spawning() {
        let mut t = Topology::new();
        t.process("a").input(Input::Stream("ghost".into())).output(Output::Discard).done();
        assert!(Runtime::new(t).run().is_err());
    }
}
