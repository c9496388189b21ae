//! Integration tests for checkpoint/restore and the crash-recovery
//! supervisor.
//!
//! The contract under test: a stage supervised with
//! [`FaultPolicy::Restart`] that checkpoints every `n` items and is killed
//! mid-stream must produce output byte-identical to a kill-free run — the
//! rebuilt chain restores the latest barrier, silently replays the logged
//! suffix and re-runs the faulted item. `Retry` composes with checkpoints
//! too: a stateful processor that mutated before faulting is rolled back to
//! the pre-item snapshot, so the retry applies the item exactly once.

use insight_streams::chaos::{KillAt, KillSwitch};
use insight_streams::checkpoint::{Checkpointable, StateBlob};
use insight_streams::error::StreamsError;
use insight_streams::fault::FaultPolicy;
use insight_streams::item::DataItem;
use insight_streams::processor::{Context, Processor};
use insight_streams::replay::ReplayRuntime;
use insight_streams::runtime::Runtime;
use insight_streams::sink::CollectSink;
use insight_streams::source::VecSource;
use insight_streams::topology::{Input, Output, Topology};
use std::collections::HashSet;
use std::time::Duration;

/// A running prefix sum: the canonical "state the supervisor must not lose".
/// Emits `total` (the sum including the current item) alongside each input.
#[derive(Default)]
struct PrefixSum {
    total: i64,
}

impl Processor for PrefixSum {
    fn process(
        &mut self,
        mut item: DataItem,
        _: &mut Context,
    ) -> Result<Option<DataItem>, StreamsError> {
        self.total += item.get_i64("n").unwrap_or(0);
        item.set("total", self.total);
        Ok(Some(item))
    }

    fn as_checkpointable(&mut self) -> Option<&mut dyn Checkpointable> {
        Some(self)
    }
}

impl Checkpointable for PrefixSum {
    fn snapshot(&mut self) -> StateBlob {
        let mut blob = StateBlob::new();
        blob.set("total", self.total);
        blob
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), StreamsError> {
        self.total = blob.require_i64("total")?;
        Ok(())
    }
}

fn numbered(range: std::ops::RangeInclusive<i64>) -> Vec<DataItem> {
    range.map(|n| DataItem::new().with("n", n)).collect()
}

/// `(n, total)` pairs in sink order.
fn totals(sink: &CollectSink) -> Vec<(i64, i64)> {
    sink.items().iter().map(|i| (i.get_i64("n").unwrap(), i.get_i64("total").unwrap())).collect()
}

fn prefix_sums(range: std::ops::RangeInclusive<i64>) -> Vec<(i64, i64)> {
    let mut total = 0;
    range
        .map(|n| {
            total += n;
            (n, total)
        })
        .collect()
}

/// Single supervised stage: `KillAt` (chaos) in front of `PrefixSum`
/// (state), both rebuildable from factories, feeding a pass-through
/// collector so outputs cross a queue edge.
fn killable_topology(
    kill_at: u64,
    switch: &KillSwitch,
    checkpoint_every: usize,
    policy: FaultPolicy,
    sink: &CollectSink,
) -> Topology {
    let kill_switch = switch.clone();
    let mut t = Topology::new();
    t.add_source("in", VecSource::new(numbered(1..=40)));
    t.add_queue("out", 8);
    t.process("stage")
        .input(Input::Stream("in".into()))
        .processor_factory(move || Box::new(KillAt::with_switch(kill_at, kill_switch.clone())))
        .processor_factory(|| Box::<PrefixSum>::default())
        .checkpoint_every(checkpoint_every)
        .fault_policy(policy)
        .output(Output::Queue("out".into()))
        .done();
    t.process("collect")
        .input(Input::Queue("out".into()))
        .output(Output::Sink(Box::new(sink.clone())))
        .done();
    t
}

#[test]
fn restart_recovers_a_kill_and_matches_the_kill_free_run() {
    let expected = prefix_sums(1..=40);
    for kill_at in [1u64, 10, 39] {
        let switch = KillSwitch::new();
        let sink = CollectSink::shared();
        let t = killable_topology(kill_at, &switch, 1, FaultPolicy::Restart { max: 1 }, &sink);
        let rt = Runtime::new(t);
        let metrics = rt.metrics();
        rt.run().unwrap();
        assert!(switch.fired(), "kill_at={kill_at}: the injected kill must fire");
        assert_eq!(totals(&sink), expected, "kill_at={kill_at}: recovered output diverged");
        let stage = metrics.stage("stage");
        assert_eq!(stage.restores.get(), 1, "kill_at={kill_at}: exactly one recovery");
        assert!(stage.checkpoints.get() > 0, "kill_at={kill_at}: barriers were taken");
    }
}

#[test]
fn restart_replays_the_logged_suffix_at_coarse_cadence() {
    // Barrier every 8 items, kill on item 14: the log holds items 9..=13,
    // all of which must be replayed (outputs discarded) before the faulted
    // item re-runs.
    let switch = KillSwitch::new();
    let sink = CollectSink::shared();
    let t = killable_topology(14, &switch, 8, FaultPolicy::Restart { max: 1 }, &sink);
    let rt = Runtime::new(t);
    let metrics = rt.metrics();
    rt.run().unwrap();
    assert!(switch.fired());
    assert_eq!(totals(&sink), prefix_sums(1..=40));
    let stage = metrics.stage("stage");
    assert_eq!(stage.restores.get(), 1);
    assert_eq!(stage.replayed_items.get(), 5, "items 9..=13 sit between barrier and kill");
    assert!(stage.recovery_ns.get() > 0, "recovery wall-clock is metered");
}

#[test]
fn restart_recovery_is_deterministic_under_the_replay_scheduler() {
    let expected = prefix_sums(1..=40);
    for seed in [0u64, 77, 777] {
        let switch = KillSwitch::new();
        let sink = CollectSink::shared();
        let t = killable_topology(10, &switch, 4, FaultPolicy::Restart { max: 1 }, &sink);
        ReplayRuntime::new(t, seed).run().unwrap();
        assert!(switch.fired(), "seed={seed}");
        assert_eq!(totals(&sink), expected, "seed={seed}: recovered output diverged");
    }
}

#[test]
fn restart_budget_exhaustion_escalates_the_fault() {
    // `max: 0` means the stage may never restart: the first kill is fatal
    // and the run surfaces the fault instead of wedging.
    let switch = KillSwitch::new();
    let sink = CollectSink::shared();
    let t = killable_topology(10, &switch, 1, FaultPolicy::Restart { max: 0 }, &sink);
    let err = Runtime::new(t).run().unwrap_err();
    assert!(
        err.to_string().contains("injected kill"),
        "the original fault must escalate, got: {err}"
    );
}

#[test]
fn restart_recovers_a_killed_replica_in_a_sharded_stage() {
    // Four-way sharded prefix sums (per-shard state via the replica shell):
    // kill one replica mid-stream and the merged output must still match
    // the kill-free baseline, under the threaded and replay runtimes alike.
    let build = |kill_at: u64, switch: &KillSwitch, sink: &CollectSink| {
        let kill_switch = switch.clone();
        let mut t = Topology::new();
        let items: Vec<DataItem> =
            (1..=60i64).map(|n| DataItem::new().with("n", n).with("key", n % 7)).collect();
        t.add_source("in", VecSource::new(items));
        t.add_queue("out", 8);
        t.process("stage")
            .input(Input::Stream("in".into()))
            .replicas(4)
            .partition_by(["key"])
            .processor_factory(move || Box::new(KillAt::with_switch(kill_at, kill_switch.clone())))
            .processor_factory(|| Box::<PrefixSum>::default())
            .checkpoint_every(1)
            .fault_policy(FaultPolicy::Restart { max: 2 })
            .output(Output::Queue("out".into()))
            .done();
        t.process("collect")
            .input(Input::Queue("out".into()))
            .output(Output::Sink(Box::new(sink.clone())))
            .done();
        t
    };
    let baseline_sink = CollectSink::shared();
    Runtime::new(build(0, &KillSwitch::new(), &baseline_sink)).run().unwrap();
    let baseline = totals(&baseline_sink);
    assert_eq!(baseline.len(), 60, "baseline covers every input");

    let threaded_switch = KillSwitch::new();
    let threaded_sink = CollectSink::shared();
    Runtime::new(build(9, &threaded_switch, &threaded_sink)).run().unwrap();
    assert!(threaded_switch.fired());
    assert_eq!(totals(&threaded_sink), baseline, "threaded recovery diverged");

    for seed in [0u64, 77, 777] {
        let switch = KillSwitch::new();
        let sink = CollectSink::shared();
        ReplayRuntime::new(build(9, &switch, &sink), seed).run().unwrap();
        assert!(switch.fired(), "seed={seed}");
        assert_eq!(totals(&sink), baseline, "seed={seed}: replayed recovery diverged");
    }
}

/// A process that arms from-checkpoint restart but never sets a cadence
/// still takes barriers: the runtime substitutes
/// [`insight_streams::runtime::DEFAULT_RESTART_CADENCE`] so the replay log
/// cannot grow with the stream. With 2500 inputs and a kill at 2100 the
/// barriers sit at 1000 and 2000, so recovery replays 99 items — not 2099.
#[test]
fn restart_without_a_cadence_gets_the_default_and_bounds_the_log() {
    assert_eq!(insight_streams::runtime::DEFAULT_RESTART_CADENCE, 1000);
    let switch = KillSwitch::new();
    let kill_switch = switch.clone();
    let sink = CollectSink::shared();
    let mut t = Topology::new();
    t.add_source("in", VecSource::new(numbered(1..=2500)));
    t.add_queue("out", 8);
    t.process("stage")
        .input(Input::Stream("in".into()))
        .processor_factory(move || Box::new(KillAt::with_switch(2100, kill_switch.clone())))
        .processor_factory(|| Box::<PrefixSum>::default())
        // No .checkpoint_every(..): the default cadence must engage.
        .fault_policy(FaultPolicy::Restart { max: 1 })
        .output(Output::Queue("out".into()))
        .done();
    t.process("collect")
        .input(Input::Queue("out".into()))
        .output(Output::Sink(Box::new(sink.clone())))
        .done();
    let rt = Runtime::new(t);
    let metrics = rt.metrics();
    rt.run().unwrap();
    assert!(switch.fired());
    assert_eq!(totals(&sink), prefix_sums(1..=2500));
    let stage = metrics.stage("stage");
    assert_eq!(stage.checkpoints.get(), 2, "default cadence: barriers at 1000 and 2000");
    assert_eq!(stage.restores.get(), 1);
    assert_eq!(stage.replayed_items.get(), 99, "items 2001..=2099 sit between barrier and kill");
}

/// A prefix sum that mutates *before* faulting — once per multiple of three —
/// so a retry on un-rolled-back state applies the item twice. Which items
/// have faulted is deliberately not part of the snapshot: a restore must not
/// re-arm the fault.
#[derive(Default)]
struct FlakySum {
    total: i64,
    faulted: HashSet<i64>,
}

impl Processor for FlakySum {
    fn process(
        &mut self,
        mut item: DataItem,
        _: &mut Context,
    ) -> Result<Option<DataItem>, StreamsError> {
        let n = item.get_i64("n").unwrap();
        // State mutates first — the failure mode the checkpoint restore
        // exists to roll back.
        self.total += n;
        if n % 3 == 0 && self.faulted.insert(n) {
            return Err(StreamsError::ServiceError {
                detail: format!("transient fault after applying n={n}"),
            });
        }
        item.set("total", self.total);
        Ok(Some(item))
    }
    fn as_checkpointable(&mut self) -> Option<&mut dyn Checkpointable> {
        Some(self)
    }
}

impl Checkpointable for FlakySum {
    fn snapshot(&mut self) -> StateBlob {
        let mut blob = StateBlob::new();
        blob.set("total", self.total);
        blob
    }
    fn restore(&mut self, blob: &StateBlob) -> Result<(), StreamsError> {
        self.total = blob.require_i64("total")?;
        Ok(())
    }
}

/// Satellite regression: a stateful processor that mutates *before* faulting
/// must not double-apply the item across a retry. With `checkpoint_every(1)`
/// the supervisor restores the pre-item snapshot before each re-attempt.
#[test]
fn retry_restores_checkpointed_state_so_items_apply_exactly_once() {
    let sink = CollectSink::shared();
    let mut t = Topology::new();
    // Start at n=1 so a checkpoint exists before the first fault (n=3).
    t.add_source("in", VecSource::new(numbered(1..=12)));
    t.process("sum")
        .input(Input::Stream("in".into()))
        .processor(FlakySum::default())
        .checkpoint_every(1)
        .fault_policy(FaultPolicy::Retry { attempts: 2, backoff: Duration::ZERO })
        .output(Output::Sink(Box::new(sink.clone())))
        .done();
    let rt = Runtime::new(t);
    let metrics = rt.metrics();
    rt.run().unwrap();
    assert_eq!(totals(&sink), prefix_sums(1..=12), "a retried item must apply exactly once");
    let stage = metrics.stage("sum");
    assert_eq!(stage.retries.get(), 4, "n = 3, 6, 9, 12 each fault once");
    assert_eq!(stage.restores.get(), 4, "each retry restored the pre-item snapshot");
}

/// The same inside a sharded stage. Each shard takes its own barriers on
/// its own input, and how its steps interleave with the router's — whether
/// its input runs empty between a barrier and its next item, and how often
/// it publishes progress meanwhile — is up to the schedule: the rollback
/// must happen either way. The replay seeds are the schedules.
#[test]
fn retry_rolls_back_in_a_sharded_stage_whatever_the_watermark_timing() {
    let build = |flaky: bool, sink: &CollectSink| {
        let mut t = Topology::new();
        let items = (1..=40i64).map(|n| DataItem::new().with("n", n).with("key", n % 5));
        t.add_source("in", VecSource::new(items));
        // A per-item hop in front, so the router's input runs empty.
        t.add_queue("hop", 4);
        t.process("feed")
            .input(Input::Stream("in".into()))
            .output(Output::Queue("hop".into()))
            .done();
        let stage = t.process("sum").input(Input::Queue("hop".into())).replicas(2);
        let stage = if flaky {
            stage.processor_factory(|| Box::<FlakySum>::default())
        } else {
            stage.processor_factory(|| Box::<PrefixSum>::default())
        };
        stage
            .partition_by(["key"])
            .checkpoint_every(1)
            .fault_policy(FaultPolicy::Retry { attempts: 2, backoff: Duration::ZERO })
            .output(Output::Sink(Box::new(sink.clone())))
            .done();
        t
    };
    // Per-replica prefix sums of a chain that never faults.
    let baseline_sink = CollectSink::shared();
    ReplayRuntime::new(build(false, &baseline_sink), 0).run().unwrap();
    let baseline = totals(&baseline_sink);
    assert_eq!(baseline.len(), 40);

    for seed in 0..32u64 {
        let sink = CollectSink::shared();
        let rt = ReplayRuntime::new(build(true, &sink), seed);
        let metrics = rt.metrics();
        rt.run().unwrap();
        assert_eq!(totals(&sink), baseline, "seed={seed}: a retried item applied twice");
        let (retries, restores): (u64, u64) = (0..2)
            .map(|r| metrics.stage(&format!("sum[{r}]")))
            .fold((0, 0), |(a, b), s| (a + s.retries.get(), b + s.restores.get()));
        assert_eq!(retries, 13, "seed={seed}: every multiple of three up to 40 faults once");
        assert_eq!(restores, 13, "seed={seed}: every retry found a position-exact checkpoint");
    }
    for round in 0..8 {
        let sink = CollectSink::shared();
        Runtime::new(build(true, &sink)).run().unwrap();
        assert_eq!(totals(&sink), baseline, "threaded round {round}");
    }
}
