//! Multi-output `process` calls: order and recovery.
//!
//! A call's outputs are what it passed to `Context::emit`, in order, then
//! what it returned, and each of them traverses the rest of the chain before
//! the next one does. Inside a replicated stage the outputs of one input
//! leave stamped `(seq, sub)` and the merge restores exactly the sequence
//! the unreplicated chain produces — for every replica count, batch size and
//! schedule. A fault in the middle of a fan-out is handled once, for the
//! item that faulted, and neither duplicates nor loses its siblings —
//! replicated or not.
//!
//! The replay seeds shift with `CONFORMANCE_SEED` and the case count follows
//! `PROPTEST_CASES`, like the conformance suites.

use insight_streams::chaos::{KillAt, KillSwitch};
use insight_streams::checkpoint::{Checkpointable, FieldWriter, Fields};
use insight_streams::error::StreamsError;
use insight_streams::fault::{DeadLetterQueue, FaultPolicy};
use insight_streams::item::DataItem;
use insight_streams::processor::{Context, Processor};
use insight_streams::replay::ReplayRuntime;
use insight_streams::runtime::Runtime;
use insight_streams::sink::CollectSink;
use insight_streams::source::VecSource;
use insight_streams::testing::FnProcessor;
use insight_streams::topology::{Input, Output, Topology};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::{Arc, Mutex};

fn seed_base() -> u64 {
    std::env::var("CONFORMANCE_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0u64) * 1000
}

/// Slot 0: item `n` becomes `fan` copies — all but the last emitted, the
/// last returned; `fan == 0` filters the item.
fn fan_out() -> Box<dyn Processor> {
    Box::new(FnProcessor::new(|item: DataItem, ctx: &mut Context| {
        let fan = item.get_i64("fan").unwrap();
        for copy in 0..fan - 1 {
            ctx.emit(item.clone().with("copy", copy));
        }
        Ok((fan > 0).then(|| item.with("copy", fan - 1)))
    }))
}

/// Slot 1: drops a copy when `(n + copy) % 5 == 4`, and announces every
/// copy 1 with an emitted echo ahead of it.
fn echo_and_drop() -> Box<dyn Processor> {
    Box::new(FnProcessor::new(|item: DataItem, ctx: &mut Context| {
        let (n, copy) = (item.get_i64("n").unwrap(), item.get_i64("copy").unwrap());
        if (n + copy) % 5 == 4 {
            return Ok(None);
        }
        if copy == 1 {
            ctx.emit(item.clone().with("echo", true));
        }
        Ok(Some(item))
    }))
}

/// What the two slots above produce, written down independently of any
/// runtime: `(n, copy, is_echo)` in output order.
fn model(fans: &[i64]) -> Vec<(i64, i64, bool)> {
    let mut out = Vec::new();
    for (n, &fan) in fans.iter().enumerate() {
        for copy in (0..fan).filter(|copy| (n as i64 + copy) % 5 != 4) {
            if copy == 1 {
                out.push((n as i64, copy, true));
            }
            out.push((n as i64, copy, false));
        }
    }
    out
}

fn observed(items: &[DataItem]) -> Vec<(i64, i64, bool)> {
    items
        .iter()
        .map(|i| (i.get_i64("n").unwrap(), i.get_i64("copy").unwrap(), i.contains("echo")))
        .collect()
}

fn inputs(keys: &[i64], fans: &[i64]) -> Vec<DataItem> {
    (keys.iter().zip(fans).enumerate())
        .map(|(n, (key, fan))| {
            DataItem::new().with("n", n as i64).with("key", *key).with("fan", *fan)
        })
        .collect()
}

/// source → stage (`replicas` × [fan_out, echo_and_drop]) → `out` → collect.
fn fan_topology(
    items: Vec<DataItem>,
    replicas: usize,
    batch: usize,
    sink: &CollectSink,
) -> Topology {
    let mut t = Topology::new();
    t.add_source("in", VecSource::new(items));
    t.add_queue("out", 8);
    t.process("stage")
        .input(Input::Stream("in".into()))
        .replicas(replicas)
        .partition_by(["key"])
        .batch_size(batch)
        .processor_factory(fan_out)
        .processor_factory(echo_and_drop)
        .output(Output::Queue("out".into()))
        .done();
    t.process("collect")
        .input(Input::Queue("out".into()))
        .batch_size(batch)
        .output(Output::Sink(Box::new(sink.clone())))
        .done();
    t
}

proptest! {
    /// The sink sequence of a replicated multi-output chain is byte-identical
    /// to the unreplicated chain's, which is the model's.
    #[test]
    fn replicated_multi_output_chain_equals_the_unreplicated_one(
        stream in proptest::collection::vec((0i64..9, 0i64..=3), 1..60),
        seed in 0u64..1000,
    ) {
        let (keys, fans): (Vec<i64>, Vec<i64>) = stream.into_iter().unzip();
        let run = |replicas: usize, batch: usize, replay: bool| {
            let sink = CollectSink::shared();
            let t = fan_topology(inputs(&keys, &fans), replicas, batch, &sink);
            if replay {
                ReplayRuntime::new(t, seed_base() + seed).run().unwrap();
            } else {
                Runtime::new(t).run().unwrap();
            }
            sink.items()
        };
        let unreplicated = run(1, 1, false);
        prop_assert_eq!(observed(&unreplicated), model(&fans), "depth-first output order");
        for replicas in [1usize, 2, 4] {
            for batch in [1usize, 16] {
                for replay in [false, true] {
                    prop_assert_eq!(
                        &run(replicas, batch, replay), &unreplicated,
                        "replicas={}, batch={}, replay={}", replicas, batch, replay
                    );
                }
            }
        }
    }
}

/// Three copies per input, then a slot that fails on copy 1 of item 2; the
/// stage runs on `replicas` shards partitioned by `key`.
fn faulting_topology(policy: FaultPolicy, replicas: usize, sink: &CollectSink) -> Topology {
    let mut t = Topology::new();
    t.add_source("in", VecSource::new(inputs(&[0, 1, 2, 3], &[3, 3, 3, 3])));
    t.process("stage")
        .input(Input::Stream("in".into()))
        .replicas(replicas)
        .partition_by(["key"])
        .fault_policy(policy)
        .processor_factory(fan_out)
        .processor_factory(|| {
            Box::new(FnProcessor::new(|item: DataItem, _: &mut Context| {
                if (item.get_i64("n"), item.get_i64("copy")) == (Some(2), Some(1)) {
                    return Err(StreamsError::ServiceError { detail: "injected".into() });
                }
                Ok(Some(item))
            }))
        })
        .output(Output::Sink(Box::new(sink.clone())))
        .done();
    t
}

fn all_but_the_faulted() -> Vec<(i64, i64, bool)> {
    (0..4)
        .flat_map(|n| (0..3).map(move |copy| (n, copy, false)))
        .filter(|&(n, copy, _)| (n, copy) != (2, 1))
        .collect()
}

#[test]
fn skip_mid_fan_out_drops_the_faulted_sibling_only() {
    for replicas in [1usize, 2] {
        let sink = CollectSink::shared();
        let policy = FaultPolicy::Skip { max_consecutive: 0 };
        let err = Runtime::new(faulting_topology(policy, replicas, &sink)).run();
        assert!(err.is_err(), "replicas {replicas}: max_consecutive 0 tolerates no fault at all");

        let sink = CollectSink::shared();
        let policy = FaultPolicy::Skip { max_consecutive: 1 };
        let runtime = Runtime::new(faulting_topology(policy, replicas, &sink));
        let metrics = runtime.metrics();
        runtime.run().unwrap();
        assert_eq!(observed(&sink.items()), all_but_the_faulted(), "replicas {replicas}");
        let stage = &metrics.snapshot().rollup_stages()["stage"].combined;
        assert_eq!(
            (stage.items_in, stage.items_out, stage.skipped),
            (4, 11, 1),
            "replicas {replicas}"
        );
    }
}

#[test]
fn dead_letter_mid_fan_out_records_the_faulted_sibling_only() {
    for replicas in [1usize, 2] {
        let dead = DeadLetterQueue::shared();
        let sink = CollectSink::shared();
        let policy = FaultPolicy::DeadLetter { queue: dead.clone() };
        Runtime::new(faulting_topology(policy, replicas, &sink)).run().unwrap();
        assert_eq!(observed(&sink.items()), all_but_the_faulted(), "replicas {replicas}");
        let records = dead.records();
        assert_eq!(records.len(), 1, "replicas {replicas}");
        assert_eq!(
            records[0].processor,
            Some(1),
            "replicas {replicas}: the slot that failed, not the one that fanned out"
        );
        assert_eq!(observed(&[records[0].item.clone().unwrap()]), vec![(2, 1, false)]);
        let seq = (replicas > 1).then_some(2);
        assert_eq!(records[0].seq, seq, "replicas {replicas}: the input's sequence number");
    }
}

#[test]
fn restart_discards_what_the_failed_call_emitted() {
    // The fan-out itself fails once per item — after emitting two copies.
    // Which items failed is shared, so a rebuilt fan-out does not fail again.
    let flaky_fan = |failed: Arc<Mutex<HashSet<i64>>>| {
        move || -> Box<dyn Processor> {
            let failed = Arc::clone(&failed);
            Box::new(FnProcessor::new(move |item: DataItem, ctx: &mut Context| {
                ctx.emit(item.clone().with("copy", 0i64));
                ctx.emit(item.clone().with("copy", 1i64));
                if failed.lock().unwrap().insert(item.get_i64("n").unwrap()) {
                    return Err(StreamsError::ServiceError { detail: "transient".into() });
                }
                Ok(Some(item.with("copy", 2i64)))
            }))
        }
    };
    for replay in [false, true] {
        let sink = CollectSink::shared();
        let mut t = Topology::new();
        t.add_source("in", VecSource::new(inputs(&[0, 1, 2], &[3, 3, 3])));
        t.process("stage")
            .input(Input::Stream("in".into()))
            .fault_policy(FaultPolicy::Restart { max: 3 })
            .processor_factory(flaky_fan(Arc::default()))
            .output(Output::Sink(Box::new(sink.clone())))
            .done();
        if replay {
            ReplayRuntime::new(t, seed_base()).run().unwrap();
        } else {
            Runtime::new(t).run().unwrap();
        }
        let expected: Vec<(i64, i64, bool)> =
            (0..3).flat_map(|n| (0..3).map(move |copy| (n, copy, false))).collect();
        assert_eq!(observed(&sink.items()), expected, "replay={replay}: no copy twice");
    }
}

/// A stateful fan-out: numbers every copy it produces with a running
/// counter, so a copy produced twice or not at all shows in the output.
struct NumberedFan {
    next: i64,
}

impl Processor for NumberedFan {
    fn process(
        &mut self,
        item: DataItem,
        ctx: &mut Context,
    ) -> Result<Option<DataItem>, StreamsError> {
        for _ in 0..3 {
            ctx.emit(item.clone().with("serial", self.next));
            self.next += 1;
        }
        Ok(None)
    }

    fn as_checkpointable(&mut self) -> Option<&mut dyn Checkpointable> {
        Some(self)
    }
}

impl Checkpointable for NumberedFan {
    fn snapshot(&mut self, out: &mut Vec<u8>) {
        FieldWriter::new(out).i64("next", self.next);
    }

    fn restore(&mut self, snapshot: &[u8], _: &[&[u8]]) -> Result<(), StreamsError> {
        self.next = Fields::parse(snapshot)?.i64("next")?;
        Ok(())
    }
}

/// `[NumberedFan, KillAt(kill_at)]` under `Restart`: the kill strikes the
/// `kill_at`-th copy entering slot 1, i.e. in the middle of a fan-out
/// whenever `kill_at` is not a multiple of three.
fn killed_fan_run(replicas: usize, kill_at: u64, replay: Option<u64>) -> (Vec<(i64, i64)>, bool) {
    let sink = CollectSink::shared();
    let switch = KillSwitch::new();
    let mut t = Topology::new();
    let items: Vec<DataItem> =
        (0..20).map(|n| DataItem::new().with("n", n).with("key", n % 3)).collect();
    t.add_source("in", VecSource::new(items));
    t.add_queue("out", 8);
    let kill = switch.clone();
    t.process("stage")
        .input(Input::Stream("in".into()))
        .replicas(replicas)
        .partition_by(["key"])
        .fault_policy(FaultPolicy::Restart { max: 2 })
        .checkpoint_every(4)
        .processor_factory(|| Box::new(NumberedFan { next: 0 }))
        .processor_factory(move || Box::new(KillAt::with_switch(kill_at, kill.clone())))
        .output(Output::Queue("out".into()))
        .done();
    t.process("collect")
        .input(Input::Queue("out".into()))
        .output(Output::Sink(Box::new(sink.clone())))
        .done();
    match replay {
        Some(seed) => ReplayRuntime::new(t, seed).run().map(drop),
        None => Runtime::new(t).run().map(drop),
    }
    .unwrap();
    let out = sink
        .items()
        .iter()
        .map(|i| (i.get_i64("n").unwrap(), i.get_i64("serial").unwrap()))
        .collect();
    (out, switch.fired())
}

#[test]
fn restart_mid_fan_out_neither_duplicates_nor_loses_an_output() {
    for replicas in [1usize, 2] {
        let (baseline, fired) = killed_fan_run(replicas, 0, None);
        assert!(!fired, "kill_at 0 never fires");
        assert_eq!(baseline.len(), 60);
        assert_eq!(baseline[..3], [(0, 0), (0, 1), (0, 2)], "input order, copies in emit order");
        // First copy of an input, second, third; before and after the first
        // barrier; the very last copy of the stream.
        for kill_at in [1u64, 2, 3, 14, 29, 60] {
            for replay in [None, Some(seed_base()), Some(seed_base() + 77), Some(seed_base() + 777)]
            {
                let (out, fired) = killed_fan_run(replicas, kill_at, replay);
                assert!(fired, "replicas {replicas}, kill at {kill_at}: the kill must strike");
                assert_eq!(
                    out, baseline,
                    "replicas {replicas}, kill at {kill_at}, replay {replay:?}: \
                     recovered output diverged"
                );
            }
        }
    }
}
