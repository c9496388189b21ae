//! Topology: the data-flow graph description.
//!
//! A topology declares named *sources* (streams), named *queues*, and
//! *processes*. Each process reads from one input (a stream or a queue), runs
//! its items through a processor chain, and forwards survivors to its
//! outputs (queues and/or sinks). The [`crate::runtime::Runtime`] runs a
//! validated topology: a thread per source-fed process, a worker pool for
//! the rest.

use crate::checkpoint::CheckpointStore;
use crate::error::StreamsError;
use crate::fault::{DeadLetterQueue, FaultPolicy};
use crate::processor::Processor;
use crate::service::ServiceRegistry;
use crate::sink::Sink;
use crate::source::Source;
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Default queue capacity when none is given.
pub const DEFAULT_QUEUE_CAPACITY: usize = 1024;

/// A shareable processor factory, retained per chain slot so the fault
/// supervisor can rebuild a processor after a crash
/// (see [`FaultPolicy::Restart`]).
pub type SharedProcessorFactory = Arc<dyn Fn() -> Box<dyn Processor> + Send + Sync>;

/// The input of a process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Input {
    /// A declared source stream.
    Stream(String),
    /// A declared queue.
    Queue(String),
}

/// One output of a process.
pub enum Output {
    /// Forward to a declared queue.
    Queue(String),
    /// Forward to a sink.
    Sink(Box<dyn Sink>),
    /// Drop survivors (useful for processes run for their side effects).
    Discard,
}

/// What a process does in a replicated stage (see [`crate::partition`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// An ordinary process.
    Plain,
    /// `P[part]`: sequences its input and routes each item to its key's
    /// shard.
    Router,
    /// `P[i]`: runs the chain on one shard, sequencing what it emits.
    Shard,
    /// `P[merge]`: receives the shards' outputs in sequence order.
    Merge,
}

pub(crate) struct ProcessDef {
    pub(crate) name: String,
    pub(crate) input: Input,
    pub(crate) processors: Vec<Box<dyn Processor>>,
    pub(crate) outputs: Vec<Output>,
    pub(crate) fault_policy: FaultPolicy,
    pub(crate) batch_size: usize,
    /// Shard count; 1 means an ordinary (unreplicated) process.
    pub(crate) replicas: usize,
    /// Attribute names whose values select the shard (see [`crate::partition`]).
    pub(crate) partition_keys: Vec<String>,
    /// Known key values, round-robined over the shards by list position
    /// (see [`ProcessBuilder::partition_hints`]).
    pub(crate) partition_hints: Vec<String>,
    /// One pre-instantiated processor chain per replica (filled by
    /// [`ProcessBuilder::processor_factory`]).
    pub(crate) replica_chains: Vec<Vec<Box<dyn Processor>>>,
    /// The process's part in a replicated stage, if any.
    pub(crate) role: Role,
    /// One optional rebuild factory per chain slot (aligned with
    /// `processors` after expansion); only slots added through
    /// [`ProcessBuilder::processor_factory`] are restartable.
    pub(crate) factories: Vec<Option<SharedProcessorFactory>>,
    /// Checkpoint cadence in consumed items; 0 disables barriers.
    pub(crate) checkpoint_every: usize,
}

/// A data-flow graph under construction.
#[derive(Default)]
pub struct Topology {
    pub(crate) sources: HashMap<String, Box<dyn Source>>,
    pub(crate) queues: HashMap<String, usize>,
    pub(crate) processes: Vec<ProcessDef>,
    pub(crate) services: ServiceRegistry,
    pub(crate) dead_letters: DeadLetterQueue,
    pub(crate) checkpoint_store: Option<CheckpointStore>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Topology {
        Topology::default()
    }

    /// Declares a named source stream.
    pub fn add_source<S: Source + 'static>(&mut self, name: &str, source: S) -> &mut Self {
        self.sources.insert(name.to_string(), Box::new(source));
        self
    }

    /// Declares a named queue with the given capacity.
    pub fn add_queue(&mut self, name: &str, capacity: usize) -> &mut Self {
        self.queues.insert(name.to_string(), capacity);
        self
    }

    /// The shared service registry of this topology.
    pub fn services(&self) -> &ServiceRegistry {
        &self.services
    }

    /// The topology-wide dead-letter queue. Processes whose fault policy is
    /// [`FaultPolicy::DeadLetter`] record into it; keep a clone to inspect
    /// the records after the run.
    pub fn dead_letters(&self) -> DeadLetterQueue {
        self.dead_letters.clone()
    }

    /// Installs the checkpoint store workers write barriers into and recover
    /// from (default: a fresh in-memory store per run). Keep a clone to
    /// inspect checkpoints after the run, or pass a
    /// [`CheckpointStore::file_backed`] store to make them durable.
    pub fn set_checkpoint_store(&mut self, store: CheckpointStore) -> &mut Self {
        self.checkpoint_store = Some(store);
        self
    }

    /// The installed checkpoint store, if any.
    pub fn checkpoint_store(&self) -> Option<CheckpointStore> {
        self.checkpoint_store.clone()
    }

    /// Starts defining a process; finish with [`ProcessBuilder::done`].
    pub fn process(&mut self, name: &str) -> ProcessBuilder<'_> {
        ProcessBuilder {
            topology: self,
            def: ProcessDef {
                name: name.to_string(),
                input: Input::Stream(String::new()),
                processors: Vec::new(),
                outputs: Vec::new(),
                fault_policy: FaultPolicy::FailFast,
                batch_size: 1,
                replicas: 1,
                partition_keys: Vec::new(),
                partition_hints: Vec::new(),
                replica_chains: Vec::new(),
                role: Role::Plain,
                factories: Vec::new(),
                checkpoint_every: 0,
            },
            input_set: false,
        }
    }

    /// Structural validation: name uniqueness, endpoint existence,
    /// single-consumer queues, no dangling queues, no cycle through queues.
    pub fn validate(&self) -> Result<(), StreamsError> {
        // Unique process names; source/queue namespaces are maps already.
        let mut names = HashSet::new();
        for p in &self.processes {
            if !names.insert(&p.name) {
                return Err(StreamsError::DuplicateName { name: p.name.clone() });
            }
        }
        for q in self.queues.keys() {
            if self.sources.contains_key(q) {
                return Err(StreamsError::DuplicateName { name: q.clone() });
            }
        }

        // Endpoint existence + consumer counting.
        let mut stream_consumers: HashMap<&str, usize> = HashMap::new();
        let mut queue_consumers: HashMap<&str, usize> = HashMap::new();
        let mut queue_producers: HashMap<&str, usize> = HashMap::new();
        for p in &self.processes {
            match &p.input {
                Input::Stream(s) => {
                    if !self.sources.contains_key(s) {
                        return Err(StreamsError::UnknownEndpoint {
                            name: s.clone(),
                            referenced_by: p.name.clone(),
                        });
                    }
                    *stream_consumers.entry(s).or_default() += 1;
                }
                Input::Queue(q) => {
                    if !self.queues.contains_key(q) {
                        return Err(StreamsError::UnknownEndpoint {
                            name: q.clone(),
                            referenced_by: p.name.clone(),
                        });
                    }
                    *queue_consumers.entry(q).or_default() += 1;
                }
            }
            for o in &p.outputs {
                if let Output::Queue(q) = o {
                    if !self.queues.contains_key(q) {
                        return Err(StreamsError::UnknownEndpoint {
                            name: q.clone(),
                            referenced_by: p.name.clone(),
                        });
                    }
                    *queue_producers.entry(q).or_default() += 1;
                }
            }
        }

        for (s, n) in stream_consumers {
            if n > 1 {
                return Err(StreamsError::MultipleConsumers { queue: s.to_string() });
            }
        }
        for q in self.queues.keys() {
            let consumers = queue_consumers.get(q.as_str()).copied().unwrap_or(0);
            let producers = queue_producers.get(q.as_str()).copied().unwrap_or(0);
            if consumers > 1 {
                return Err(StreamsError::MultipleConsumers { queue: q.clone() });
            }
            if consumers == 1 && producers == 0 {
                return Err(StreamsError::Disconnected {
                    detail: format!("queue `{q}` is consumed but never written"),
                });
            }
            if consumers == 0 && producers > 0 {
                return Err(StreamsError::Disconnected {
                    detail: format!("queue `{q}` is written but never consumed"),
                });
            }
        }
        self.reject_cycles()
    }

    /// Rejects a cycle through queues. Both drivers' liveness rests on the
    /// graph being acyclic: every queue drains toward a sink, so a full ring
    /// always has a consumer that can make room (see [`crate::runtime`]).
    fn reject_cycles(&self) -> Result<(), StreamsError> {
        let consumer: HashMap<&str, usize> = self
            .processes
            .iter()
            .enumerate()
            .filter_map(|(i, p)| match &p.input {
                Input::Queue(q) => Some((q.as_str(), i)),
                Input::Stream(_) => None,
            })
            .collect();
        let next = |i: usize| {
            self.processes[i].outputs.iter().filter_map(|o| match o {
                Output::Queue(q) => consumer.get(q.as_str()).copied(),
                _ => None,
            })
        };
        // Depth-first; a successor still on the path closes a cycle.
        let mut done = vec![false; self.processes.len()];
        for root in 0..self.processes.len() {
            if done[root] {
                continue;
            }
            let mut path = vec![(root, next(root))];
            while let Some((i, succ)) = path.last_mut() {
                let i = *i;
                match succ.next() {
                    Some(j) => {
                        if let Some(at) = path.iter().position(|(k, _)| *k == j) {
                            let processes =
                                path[at..].iter().map(|(k, _)| self.processes[*k].name.clone());
                            return Err(StreamsError::Cycle { processes: processes.collect() });
                        }
                        if !done[j] {
                            path.push((j, next(j)));
                        }
                    }
                    None => {
                        done[i] = true;
                        path.pop();
                    }
                }
            }
        }
        Ok(())
    }
}

/// Fluent builder for one process.
pub struct ProcessBuilder<'a> {
    topology: &'a mut Topology,
    def: ProcessDef,
    input_set: bool,
}

impl<'a> ProcessBuilder<'a> {
    /// Sets the input (required).
    pub fn input(mut self, input: Input) -> Self {
        self.def.input = input;
        self.input_set = true;
        self
    }

    /// Appends a processor to the chain.
    pub fn processor<P: Processor + 'static>(mut self, p: P) -> Self {
        self.def.processors.push(Box::new(p));
        self.def.factories.push(None);
        self
    }

    /// Adds an output (items surviving the chain are cloned to every output).
    pub fn output(mut self, output: Output) -> Self {
        self.def.outputs.push(output);
        self
    }

    /// Sets the process's fault policy (default: [`FaultPolicy::FailFast`]).
    pub fn fault_policy(mut self, policy: FaultPolicy) -> Self {
        self.def.fault_policy = policy;
        self
    }

    /// Shorthand: dead-letter faulted items into the topology's shared
    /// [`DeadLetterQueue`] (see [`Topology::dead_letters`]).
    pub fn dead_letter(self) -> Self {
        let queue = self.topology.dead_letters.clone();
        self.fault_policy(FaultPolicy::DeadLetter { queue })
    }

    /// Runs this process as `n` keyed shard replicas (default 1 = ordinary
    /// process). The runtimes expand such a process into a router, `n`
    /// shard processes (each owning a private processor chain) and an
    /// order-restoring merge — see [`crate::partition`] for the protocol and
    /// the determinism guarantees. Requires [`partition_by`](Self::partition_by),
    /// and processors must be added through
    /// [`processor_factory`](Self::processor_factory) (each replica needs its
    /// own instance). Call `replicas` *before* adding processors.
    ///
    /// # Panics
    /// Panics if replica chains were already populated (factory calls must
    /// come after `replicas`).
    pub fn replicas(mut self, n: usize) -> Self {
        assert!(
            self.def.replica_chains.is_empty(),
            "process `{}`: call replicas() before processor_factory()",
            self.def.name
        );
        self.def.replicas = n.max(1);
        self
    }

    /// Sets the partition key(s) for a replicated process: items whose listed
    /// attributes render to the same values always land on the same shard,
    /// for any replica count.
    pub fn partition_by<I, S>(mut self, keys: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.def.partition_keys = keys.into_iter().map(Into::into).collect();
        self
    }

    /// Declares the key values this stage expects, for balanced routing of
    /// low-cardinality keys: a single string partition key whose value
    /// appears in this list is routed to shard `position % replicas`
    /// instead of by hash. With only a handful of distinct key values a
    /// hash assigns each value an independent random shard, and the odds
    /// that the heavy values collide on one replica are substantial — this
    /// is how a sharded stage ends up *slower* than serial. Enumerating the
    /// values spreads them as evenly as arithmetic allows, for every
    /// replica count, while values outside the list still fall back to the
    /// hash. Routing stays a pure function of the key value, so the
    /// same-key-same-shard guarantee (and with it merge determinism) is
    /// unchanged.
    ///
    /// Ignored for multi-key partitions and non-string key values.
    pub fn partition_hints<I, S>(mut self, hints: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.def.partition_hints = hints.into_iter().map(Into::into).collect();
        self
    }

    /// Appends one processor *per replica*, instantiated by calling `make`
    /// once for each replica. For `replicas(1)` (the default) this is
    /// equivalent to [`processor`](Self::processor) with `make()`'s result.
    ///
    /// The factory is *retained*: under [`FaultPolicy::Restart`] the fault
    /// supervisor calls it again to rebuild a crashed processor before
    /// restoring its latest checkpoint. Only factory-built chain slots are
    /// restartable.
    pub fn processor_factory<F>(mut self, make: F) -> Self
    where
        F: Fn() -> Box<dyn Processor> + Send + Sync + 'static,
    {
        if self.def.replica_chains.is_empty() {
            self.def.replica_chains = (0..self.def.replicas).map(|_| Vec::new()).collect();
        }
        for chain in &mut self.def.replica_chains {
            chain.push(make());
        }
        self.def.factories.push(Some(Arc::new(make)));
        self
    }

    /// Sets the transfer batch size (default 1). A process with batch size
    /// `n > 1` drains up to `n` items from its input queue per lock
    /// acquisition and forwards survivors to queue outputs in one batched
    /// send. Items are still processed one at a time, so results are
    /// identical to `batch_size(1)` — only lock traffic changes. Values
    /// below 1 are clamped to 1.
    pub fn batch_size(mut self, n: usize) -> Self {
        self.def.batch_size = n.max(1);
        self
    }

    /// Sets the checkpoint cadence: every `n` consumed items the runtime
    /// snapshots each [`crate::checkpoint::Checkpointable`] chain slot into
    /// the topology's [`CheckpointStore`], together with the input-edge
    /// position, and truncates the recovery replay log. `0` (the default)
    /// disables barriers — unless `Restart` is
    /// armed, in which case the runtime substitutes
    /// [`DEFAULT_RESTART_CADENCE`](crate::runtime::DEFAULT_RESTART_CADENCE)
    /// so the replay log stays bounded. In a replicated stage each shard
    /// takes its own barriers; the router and the merge hold no state.
    pub fn checkpoint_every(mut self, n: usize) -> Self {
        self.def.checkpoint_every = n;
        self
    }

    /// Registers the process with the topology.
    ///
    /// # Panics
    /// Panics if no input was set — that is a programming error, caught
    /// immediately in development.
    pub fn done(self) {
        assert!(self.input_set, "process `{}` has no input", self.def.name);
        self.topology.processes.push(self.def);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::DataItem;
    use crate::runtime::Runtime;
    use crate::sink::NullSink;
    use crate::source::VecSource;

    fn items(n: i64) -> VecSource {
        VecSource::new((0..n).map(|i| DataItem::new().with("n", i)))
    }

    #[test]
    fn valid_linear_topology() {
        let mut t = Topology::new();
        t.add_source("in", items(3));
        t.add_queue("q", 8);
        t.process("a").input(Input::Stream("in".into())).output(Output::Queue("q".into())).done();
        t.process("b")
            .input(Input::Queue("q".into()))
            .output(Output::Sink(Box::new(NullSink)))
            .done();
        t.validate().unwrap();
    }

    #[test]
    fn unknown_stream_rejected() {
        let mut t = Topology::new();
        t.process("a").input(Input::Stream("ghost".into())).output(Output::Discard).done();
        assert!(matches!(t.validate(), Err(StreamsError::UnknownEndpoint { .. })));
    }

    #[test]
    fn unknown_queue_rejected() {
        let mut t = Topology::new();
        t.add_source("in", items(1));
        t.process("a")
            .input(Input::Stream("in".into()))
            .output(Output::Queue("ghost".into()))
            .done();
        assert!(matches!(t.validate(), Err(StreamsError::UnknownEndpoint { .. })));
    }

    #[test]
    fn duplicate_process_names_rejected() {
        let mut t = Topology::new();
        t.add_source("in", items(1));
        t.add_source("in2", items(1));
        t.process("a").input(Input::Stream("in".into())).output(Output::Discard).done();
        t.process("a").input(Input::Stream("in2".into())).output(Output::Discard).done();
        assert!(matches!(t.validate(), Err(StreamsError::DuplicateName { .. })));
    }

    #[test]
    fn queue_with_two_consumers_rejected() {
        let mut t = Topology::new();
        t.add_source("in", items(1));
        t.add_queue("q", 8);
        t.process("p").input(Input::Stream("in".into())).output(Output::Queue("q".into())).done();
        t.process("c1").input(Input::Queue("q".into())).output(Output::Discard).done();
        t.process("c2").input(Input::Queue("q".into())).output(Output::Discard).done();
        assert!(matches!(t.validate(), Err(StreamsError::MultipleConsumers { .. })));
    }

    #[test]
    fn consumed_but_never_written_queue_rejected() {
        let mut t = Topology::new();
        t.add_queue("q", 8);
        t.process("c").input(Input::Queue("q".into())).output(Output::Discard).done();
        assert!(matches!(t.validate(), Err(StreamsError::Disconnected { .. })));
    }

    #[test]
    fn written_but_never_consumed_queue_rejected() {
        let mut t = Topology::new();
        t.add_source("in", items(1));
        t.add_queue("q", 8);
        t.process("p").input(Input::Stream("in".into())).output(Output::Queue("q".into())).done();
        assert!(matches!(t.validate(), Err(StreamsError::Disconnected { .. })));
    }

    #[test]
    fn stream_with_two_consumers_rejected() {
        let mut t = Topology::new();
        t.add_source("in", items(1));
        t.process("a").input(Input::Stream("in".into())).output(Output::Discard).done();
        t.process("b").input(Input::Stream("in".into())).output(Output::Discard).done();
        assert!(matches!(t.validate(), Err(StreamsError::MultipleConsumers { .. })));
    }

    #[test]
    fn cycle_through_queues_rejected_naming_its_processes() {
        // a: q1 → q2, b: q2 → q1, fed by nothing but each other.
        let mut t = Topology::new();
        t.add_queue("q1", 8);
        t.add_queue("q2", 8);
        t.process("a").input(Input::Queue("q1".into())).output(Output::Queue("q2".into())).done();
        t.process("b").input(Input::Queue("q2".into())).output(Output::Queue("q1".into())).done();
        let err = t.validate().unwrap_err();
        assert_eq!(err, StreamsError::Cycle { processes: vec!["a".into(), "b".into()] });
        assert!(err.to_string().contains("a → b → a"), "{err}");
        let err = Runtime::new(t).run().unwrap_err();
        assert!(matches!(err, StreamsError::Cycle { .. }), "the runtime refuses to start: {err}");

        // A source-fed stage feeding a loop of two; the loop alone is named.
        let mut t = Topology::new();
        t.add_source("in", items(1));
        for q in ["q0", "q1", "q2"] {
            t.add_queue(q, 8);
        }
        t.process("feed")
            .input(Input::Stream("in".into()))
            .output(Output::Queue("q0".into()))
            .done();
        t.process("join")
            .input(Input::Queue("q0".into()))
            .output(Output::Queue("q1".into()))
            .done();
        t.process("back")
            .input(Input::Queue("q1".into()))
            .output(Output::Queue("q0".into()))
            .output(Output::Discard)
            .done();
        let err = t.validate().unwrap_err();
        assert_eq!(err, StreamsError::Cycle { processes: vec!["join".into(), "back".into()] });

        // A self-loop.
        let mut t = Topology::new();
        t.add_source("in", items(1));
        t.add_queue("q", 8);
        t.process("p").input(Input::Queue("q".into())).output(Output::Queue("q".into())).done();
        let err = t.validate().unwrap_err();
        assert_eq!(err, StreamsError::Cycle { processes: vec!["p".into()] });
    }

    #[test]
    #[should_panic(expected = "has no input")]
    fn process_without_input_panics() {
        let mut t = Topology::new();
        t.process("a").output(Output::Discard).done();
    }

    #[test]
    fn queue_name_clashing_with_source_rejected() {
        let mut t = Topology::new();
        t.add_source("x", items(1));
        t.add_queue("x", 8);
        t.process("p").input(Input::Stream("x".into())).output(Output::Discard).done();
        assert!(matches!(t.validate(), Err(StreamsError::DuplicateName { .. })));
    }
}
