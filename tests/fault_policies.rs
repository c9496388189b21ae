//! Supervision-layer integration tests: fault policies, panic isolation,
//! and dead-letter capture over real topologies.

use insight_repro::streams::chaos::PanicEvery;
use insight_repro::streams::error::StreamsError;
use insight_repro::streams::fault::FaultPolicy;
use insight_repro::streams::item::DataItem;
use insight_repro::streams::processor::{Context, Processor};
use insight_repro::streams::runtime::Runtime;
use insight_repro::streams::sink::CollectSink;
use insight_repro::streams::source::VecSource;
use insight_repro::streams::topology::{Input, Output, Topology};
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

fn numbered(n: i64) -> Vec<DataItem> {
    (0..n).map(|i| DataItem::new().with("n", i)).collect()
}

fn values(sink: &CollectSink) -> Vec<i64> {
    sink.items().iter().map(|i| i.get_i64("n").unwrap()).collect()
}

/// Errors on items whose `n` is in the faulted set.
struct FailOn {
    faulted: HashSet<i64>,
}

impl Processor for FailOn {
    fn process(
        &mut self,
        item: DataItem,
        _ctx: &mut Context,
    ) -> Result<Option<DataItem>, StreamsError> {
        match item.get_i64("n") {
            Some(n) if self.faulted.contains(&n) => {
                Err(StreamsError::ServiceError { detail: format!("injected fault on item {n}") })
            }
            _ => Ok(Some(item)),
        }
    }
}

/// Fails the first `failures` invocations, then succeeds forever. The call
/// count is shared, so a chain rebuilt by `Restart` does not re-arm it.
struct FlakyUntil {
    failures: usize,
    calls: Arc<AtomicUsize>,
}

impl Processor for FlakyUntil {
    fn process(
        &mut self,
        item: DataItem,
        _ctx: &mut Context,
    ) -> Result<Option<DataItem>, StreamsError> {
        let calls = self.calls.fetch_add(1, Ordering::Relaxed) + 1;
        if calls <= self.failures {
            Err(StreamsError::ServiceError { detail: format!("flaky call {calls}") })
        } else {
            Ok(Some(item))
        }
    }
}

proptest! {
    /// Under `Skip`, the output stream equals the input stream minus the
    /// faulted items, in the original order.
    #[test]
    fn skip_output_is_input_minus_faults_in_order(
        n in 1i64..120,
        fault_every in 2i64..10,
        offset in 0i64..10,
    ) {
        let faulted: HashSet<i64> =
            (0..n).filter(|i| (i + offset) % fault_every == 0).collect();
        let sink = CollectSink::shared();
        let mut topology = Topology::new();
        topology.add_source("in", VecSource::new(numbered(n)));
        topology
            .process("flaky")
            .input(Input::Stream("in".into()))
            .fault_policy(FaultPolicy::Skip { max_consecutive: usize::MAX })
            .processor(FailOn { faulted: faulted.clone() })
            .output(Output::Sink(Box::new(sink.clone())))
            .done();
        Runtime::new(topology).run().unwrap();

        let expected: Vec<i64> = (0..n).filter(|i| !faulted.contains(i)).collect();
        prop_assert_eq!(values(&sink), expected);
    }
}

#[test]
fn skip_escalates_after_max_consecutive_faults() {
    // Items 10..=13 fault: a run of 4 > max_consecutive = 3 must escalate.
    let sink = CollectSink::shared();
    let mut topology = Topology::new();
    topology.add_source("in", VecSource::new(numbered(20)));
    topology
        .process("flaky")
        .input(Input::Stream("in".into()))
        .fault_policy(FaultPolicy::Skip { max_consecutive: 3 })
        .processor(FailOn { faulted: (10..=13).collect() })
        .output(Output::Sink(Box::new(sink.clone())))
        .done();
    let err = Runtime::new(topology).run().unwrap_err();
    assert!(matches!(err, StreamsError::ProcessorFailed { .. }), "escalated: {err}");
}

#[test]
fn restart_succeeds_on_the_nth_attempt() {
    // Two failures, then success: Restart with a budget of 2 re-runs the
    // item until it passes; a budget of 1 would fail the run.
    let run = |max: usize| {
        let sink = CollectSink::shared();
        let mut topology = Topology::new();
        topology.add_source("in", VecSource::new(numbered(5)));
        let calls = Arc::new(AtomicUsize::new(0));
        topology
            .process("flaky")
            .input(Input::Stream("in".into()))
            .fault_policy(FaultPolicy::Restart { max })
            .processor_factory(move || {
                Box::new(FlakyUntil { failures: 2, calls: Arc::clone(&calls) })
            })
            .output(Output::Sink(Box::new(sink.clone())))
            .done();
        let runtime = Runtime::new(topology);
        let metrics = runtime.metrics();
        (runtime.run(), sink, metrics)
    };

    let (result, sink, metrics) = run(2);
    result.expect("two restarts cover two failures");
    assert_eq!(values(&sink), vec![0, 1, 2, 3, 4], "every item recovered, order kept");
    let stage = metrics.snapshot().stages.get("flaky").cloned().unwrap();
    assert_eq!(stage.restores, 2, "one restart per failure");
    assert_eq!(stage.faults, 2);

    let (result, _, _) = run(1);
    assert!(result.is_err(), "one restart cannot cover two failures");
}

#[test]
fn dead_letter_preserves_item_payloads_and_stage_identity() {
    let faulted: HashSet<i64> = [2, 5, 11].into_iter().collect();
    let sink = CollectSink::shared();
    let mut topology = Topology::new();
    topology.add_source("in", VecSource::new(numbered(15)));
    topology
        .process("flaky")
        .input(Input::Stream("in".into()))
        .dead_letter()
        .processor(FailOn { faulted: faulted.clone() })
        .output(Output::Sink(Box::new(sink.clone())))
        .done();
    let dead_letters = topology.dead_letters();
    Runtime::new(topology).run().unwrap();

    assert_eq!(values(&sink), vec![0, 1, 3, 4, 6, 7, 8, 9, 10, 12, 13, 14]);
    let records = dead_letters.drain();
    assert_eq!(records.len(), 3);
    let mut dead: Vec<i64> = Vec::new();
    for r in &records {
        assert_eq!(r.process, "flaky");
        assert_eq!(r.processor, Some(0), "the failing processor is identified");
        let item = r.item.as_ref().expect("offending item preserved");
        dead.push(item.get_i64("n").unwrap());
        assert!(r.error.to_string().contains("injected fault"), "{}", r.error);
    }
    dead.sort_unstable();
    assert_eq!(dead, vec![2, 5, 11], "payloads survive for post-mortem");
}

/// Regression: a panicking processor must not wedge downstream queues —
/// end-of-stream still propagates through the full topology and the run
/// completes with correct ordering under both `Skip` and `DeadLetter`.
#[test]
fn panicking_processor_does_not_wedge_downstream() {
    for policy in [
        FaultPolicy::Skip { max_consecutive: usize::MAX },
        FaultPolicy::DeadLetter { queue: Default::default() },
    ] {
        let sink = CollectSink::shared();
        let mut topology = Topology::new();
        topology.add_source("in", VecSource::new(numbered(100)));
        topology.add_queue("mid", 8);
        topology
            .process("panicky")
            .input(Input::Stream("in".into()))
            .fault_policy(policy.clone())
            .processor(PanicEvery::new(20))
            .output(Output::Queue("mid".into()))
            .done();
        // A second process downstream of the panicking one: if EOS were
        // lost or the queue poisoned, this process would hang the join.
        topology
            .process("downstream")
            .input(Input::Queue("mid".into()))
            .output(Output::Sink(Box::new(sink.clone())))
            .done();
        let runtime = Runtime::new(topology);
        let metrics = runtime.metrics();
        runtime.run().unwrap_or_else(|e| panic!("run must survive panics under {policy:?}: {e}"));

        // Items 19, 39, 59, 79, 99 hit the scheduled panic (1-based 20th).
        let expected: Vec<i64> = (0..100).filter(|n| (n + 1) % 20 != 0).collect();
        assert_eq!(values(&sink), expected, "ordering survives under {policy:?}");
        let stage = metrics.snapshot().stages.get("panicky").cloned().unwrap();
        assert_eq!(stage.faults, 5);
        assert_eq!(stage.panics, 5, "all five faults were isolated panics");
    }
}

#[test]
fn panic_under_fail_fast_reports_processor_panicked() {
    let sink = CollectSink::shared();
    let mut topology = Topology::new();
    topology.add_source("in", VecSource::new(numbered(30)));
    topology
        .process("panicky")
        .input(Input::Stream("in".into()))
        .processor(PanicEvery::new(10))
        .output(Output::Sink(Box::new(sink.clone())))
        .done();
    let err = Runtime::new(topology).run().unwrap_err();
    match err {
        StreamsError::ProcessorPanicked { process, payload } => {
            assert_eq!(process, "panicky");
            assert!(payload.contains("scheduled panic"), "{payload}");
        }
        other => panic!("expected ProcessorPanicked, got {other}"),
    }
}
