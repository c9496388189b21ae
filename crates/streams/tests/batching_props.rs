//! Property tests for batched queue transfer.
//!
//! Batching is a lock-traffic optimisation: `send_batch`/`recv_batch` and
//! the runtime's `batch_size(n)` must be observably indistinguishable from
//! per-item transfer — same FIFO order, same termination, same pipeline
//! results — under both the threaded runtime and the deterministic replay
//! scheduler.

use insight_streams::item::DataItem;
use insight_streams::processor::Context;
use insight_streams::queue::queue;
use insight_streams::replay::ReplayRuntime;
use insight_streams::runtime::Runtime;
use insight_streams::sink::CollectSink;
use insight_streams::source::VecSource;
use insight_streams::testing::FnProcessor;
use insight_streams::topology::{Input, Output, Topology};
use proptest::prelude::*;

fn run_threaded(n: i64, modulus: i64, batch: usize, capacity: usize) -> Vec<(i64, i64)> {
    let sink = CollectSink::shared();
    let t = pipeline_with_sink(n, modulus, batch, capacity, &sink);
    Runtime::new(t).run().unwrap();
    sink.items().iter().map(|i| (i.get_i64("n").unwrap(), i.get_i64("rank").unwrap())).collect()
}

/// A two-stage pipeline whose tail is order-sensitive (a stateful counter
/// stamps each item's arrival rank), so any reordering or loss introduced by
/// batching would change the output.
fn pipeline_with_sink(
    n: i64,
    modulus: i64,
    batch: usize,
    capacity: usize,
    sink: &CollectSink,
) -> Topology {
    let mut t = Topology::new();
    t.add_source("nums", VecSource::new((0..n).map(|i| DataItem::new().with("n", i))));
    t.add_queue("q", capacity);
    t.process("filter")
        .input(Input::Stream("nums".into()))
        .processor(FnProcessor::new(move |item: DataItem, _: &mut Context| {
            Ok((item.get_i64("n").unwrap() % modulus == 0).then_some(item))
        }))
        .output(Output::Queue("q".into()))
        .batch_size(batch)
        .done();
    t.process("stamp")
        .input(Input::Queue("q".into()))
        .processor(FnProcessor::new({
            let mut seen = 0i64;
            move |mut item: DataItem, _: &mut Context| {
                item.set("rank", seen);
                seen += 1;
                Ok(Some(item))
            }
        }))
        .output(Output::Sink(Box::new(sink.clone())))
        .batch_size(batch)
        .done();
    t
}

proptest! {
    /// Queue level: a mix of batched and per-item sends drains as one FIFO
    /// sequence and terminates exactly once the producer finishes.
    #[test]
    fn batched_sends_drain_fifo_and_terminate(
        batches in proptest::collection::vec(proptest::collection::vec(0i64..1000, 0..12), 0..12),
        capacity in 1usize..9,
        max_recv in 1usize..9,
    ) {
        let expected: Vec<i64> = batches.iter().flatten().copied().collect();
        let (mut senders, mut rx) = queue(capacity, 1);
        let tx = senders.pop().unwrap();
        let producer = std::thread::spawn(move || {
            for (i, b) in batches.into_iter().enumerate() {
                let mut items: Vec<DataItem> =
                    b.into_iter().map(|n| DataItem::new().with("n", n)).collect();
                // Alternate batched and per-item sends: the buffer cannot
                // tell them apart.
                if i % 2 == 0 {
                    tx.send_batch(&mut items);
                } else {
                    for item in items {
                        tx.send_batch(&mut vec![item]);
                    }
                }
            }
            tx.finish();
        });
        let mut drained = Vec::new();
        let mut batch = Vec::new();
        while rx.recv_batch(max_recv, &mut batch) > 0 {
            prop_assert!(!batch.is_empty(), "recv_batch never returns an empty batch");
            prop_assert!(batch.len() <= max_recv, "recv_batch honours its cap");
            drained.extend(batch.drain(..).map(|i| i.get_i64("n").unwrap()));
        }
        producer.join().unwrap();
        prop_assert_eq!(drained, expected, "FIFO order survives mixed batching");
        prop_assert!(rx.recv_batch(max_recv, &mut batch) == 0, "termination is sticky");
    }

    /// Threaded runtime: any batch size yields the same pipeline output as
    /// per-item transfer, even through tiny queues that force mid-batch
    /// blocking.
    #[test]
    fn threaded_batch_size_is_observationally_equivalent(
        n in 0i64..120,
        modulus in 1i64..5,
        batch in 2usize..33,
        capacity in 1usize..9,
    ) {
        let baseline = run_threaded(n, modulus, 1, capacity);
        let batched = run_threaded(n, modulus, batch, capacity);
        prop_assert_eq!(baseline, batched);
    }

    /// Replay scheduler: batched steps terminate (no deadlock) and produce
    /// the same output as per-item steps for every seed.
    #[test]
    fn replay_batch_size_is_observationally_equivalent(
        n in 0i64..120,
        modulus in 1i64..5,
        batch in 2usize..33,
        capacity in 1usize..9,
        seed in any::<u64>(),
    ) {
        let run = |batch: usize| {
            let sink = CollectSink::shared();
            let t = pipeline_with_sink(n, modulus, batch, capacity, &sink);
            ReplayRuntime::new(t, seed).run().unwrap();
            sink.items()
                .iter()
                .map(|i| (i.get_i64("n").unwrap(), i.get_i64("rank").unwrap()))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(1), run(batch));
    }
}
