//! Property tests for keyed shard-parallel stages.
//!
//! The partition protocol (`P[part]` → replicas → `P[merge]`) is pure
//! plumbing: routing must depend only on the partition-key values, the
//! merged output must be byte-identical for every replica count under both
//! the threaded runtime and the deterministic replay scheduler, and a fault
//! policy on the stage must supervise each replica independently — a
//! faulting shard never wedges its siblings or end-of-stream propagation.

use insight_streams::error::StreamsError;
use insight_streams::fault::{DeadLetterQueue, FaultPolicy};
use insight_streams::item::DataItem;
use insight_streams::partition::shard_for;
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

/// `keys[i]` becomes the routing key of the `i`-th item; `n = i` makes the
/// expected output order trivially computable.
fn items_from_keys(keys: &[i64]) -> Vec<DataItem> {
    keys.iter()
        .enumerate()
        .map(|(i, k)| DataItem::new().with("key", *k).with("n", i as i64))
        .collect()
}

/// A replicated stage partitioned by `key`, followed by a pass-through
/// collector, so every output crosses the merge and a queue.
fn sharded_topology(
    items: Vec<DataItem>,
    replicas: usize,
    policy: Option<FaultPolicy>,
    factory: impl Fn() -> Box<dyn Processor> + Send + Sync + 'static,
    sink: &CollectSink,
) -> Topology {
    let mut t = Topology::new();
    t.add_source("in", VecSource::new(items));
    t.add_queue("out", 8);
    let builder = t
        .process("stage")
        .input(Input::Stream("in".into()))
        .replicas(replicas)
        .partition_by(["key"])
        .processor_factory(factory);
    let builder = match policy {
        Some(p) => builder.fault_policy(p),
        None => builder,
    };
    builder.output(Output::Queue("out".into())).done();
    t.process("collect")
        .input(Input::Queue("out".into()))
        .output(Output::Sink(Box::new(sink.clone())))
        .done();
    t
}

/// The reference stage body: drops `n % 5 == 3` (creating sequence gaps the
/// merge must bridge), faults on `n % fail_mod == 0` when `fail_mod > 0`,
/// squares the rest.
fn square_factory(fail_mod: i64) -> impl Fn() -> Box<dyn Processor> + Send + Sync + 'static {
    move || {
        Box::new(FnProcessor::new(move |mut item: DataItem, _: &mut Context| {
            let n = item.get_i64("n").unwrap();
            if fail_mod > 0 && n % fail_mod == 0 {
                return Err(StreamsError::ServiceError {
                    detail: format!("injected fault on n={n}"),
                });
            }
            if n % 5 == 3 {
                return Ok(None);
            }
            item.set("sq", n * n);
            Ok(Some(item))
        }))
    }
}

/// `(n, sq)` pairs in sink order.
fn collected(sink: &CollectSink) -> Vec<(i64, i64)> {
    sink.items().iter().map(|i| (i.get_i64("n").unwrap(), i.get_i64("sq").unwrap())).collect()
}

/// What [`square_factory`] emits for `0..len` minus dropped and faulted
/// items, in input order.
fn expected_squares(len: usize, fail_mod: i64) -> Vec<(i64, i64)> {
    (0..len as i64)
        .filter(|n| n % 5 != 3 && (fail_mod == 0 || n % fail_mod != 0))
        .map(|n| (n, n * n))
        .collect()
}

proptest! {
    /// Routing is a pure function of the partition-key values: two items
    /// agreeing on every key land on the same shard for every shard count,
    /// regardless of their payloads.
    #[test]
    fn same_key_values_land_on_the_same_shard(
        key in any::<i64>(),
        aux in proptest::collection::vec(0u8..26, 0..6)
            .prop_map(|v| v.iter().map(|b| (b'a' + b) as char).collect::<String>()),
        payload_a in any::<i64>(),
        payload_b in any::<i64>(),
        shards in 1usize..=16,
    ) {
        let keys: Vec<String> = vec!["key".into(), "aux".into()];
        let a = DataItem::new().with("key", key).with("aux", aux.clone()).with("p", payload_a);
        let b = DataItem::new()
            .with("key", key)
            .with("aux", aux)
            .with("p", payload_b)
            .with("extra", true);
        let shard = shard_for(&a, &keys, shards);
        prop_assert!(shard < shards, "shard index in range");
        prop_assert_eq!(shard, shard_for(&b, &keys, shards), "payload must not affect routing");
    }
}

proptest! {
    /// The merged output is identical for 1, 2, 4 and 8 replicas, under the
    /// threaded runtime and the replay scheduler alike, and every merged
    /// item's attributes are exactly its input's plus what the chain set:
    /// the protocol's bookkeeping never shows in the attribute map.
    #[test]
    fn merged_output_invariant_in_replica_count(
        keys in proptest::collection::vec(0i64..12, 1..80),
        seed in any::<u64>(),
    ) {
        let threaded = |replicas: usize| {
            let sink = CollectSink::shared();
            let t = sharded_topology(
                items_from_keys(&keys), replicas, None, square_factory(0), &sink);
            Runtime::new(t).run().unwrap();
            sink.items()
        };
        let replayed = |replicas: usize| {
            let sink = CollectSink::shared();
            let t = sharded_topology(
                items_from_keys(&keys), replicas, None, square_factory(0), &sink);
            ReplayRuntime::new(t, seed).run().unwrap();
            sink.items()
        };
        let inputs = items_from_keys(&keys);
        let expected: Vec<DataItem> = expected_squares(keys.len(), 0)
            .into_iter()
            .map(|(n, sq)| inputs[n as usize].clone().with("sq", sq))
            .collect();
        for replicas in [1usize, 2, 4, 8] {
            prop_assert_eq!(&threaded(replicas), &expected, "threaded, replicas={}", replicas);
            prop_assert_eq!(&replayed(replicas), &expected, "replay, replicas={}", replicas);
        }
    }

    /// Batched transfers over the one-producer shard edges compose with the
    /// fan-in merge edge (one ring per replica): for any batch size
    /// (including ones larger than the queue capacity, which forces the
    /// partial-drain path) the merged output is unchanged and every schedule
    /// terminates — the replay scheduler treats "batch not fully drained" as
    /// progress, not as a deadlocked process.
    #[test]
    fn batched_shard_and_fan_in_edges_replay_without_false_deadlocks(
        keys in proptest::collection::vec(0i64..12, 1..80),
        batch_idx in 0usize..4,
        capacity_idx in 0usize..3,
        replicas in 1usize..=6,
        seed in any::<u64>(),
    ) {
        let batch = [1usize, 3, 16, 64][batch_idx];
        let capacity = [2usize, 8, 64][capacity_idx];
        let build = |sink: &CollectSink| {
            let mut t = Topology::new();
            t.add_source("in", VecSource::new(items_from_keys(&keys)));
            t.add_queue("out", capacity);
            t.process("stage")
                .input(Input::Stream("in".into()))
                .replicas(replicas)
                .partition_by(["key"])
                .batch_size(batch)
                .processor_factory(square_factory(0))
                .output(Output::Queue("out".into()))
                .done();
            t.process("collect")
                .input(Input::Queue("out".into()))
                .batch_size(batch)
                .output(Output::Sink(Box::new(sink.clone())))
                .done();
            t
        };
        let expected = expected_squares(keys.len(), 0);
        let threaded_sink = CollectSink::shared();
        Runtime::new(build(&threaded_sink)).run().unwrap();
        prop_assert_eq!(&collected(&threaded_sink), &expected, "threaded");
        let replay_sink = CollectSink::shared();
        ReplayRuntime::new(build(&replay_sink), seed).run().unwrap();
        prop_assert_eq!(&collected(&replay_sink), &expected, "replay");
    }

    /// `Skip` drops exactly the faulted items, keeps the survivors in input
    /// order, and the run terminates even when one shard (or all of them)
    /// faults on every single item.
    #[test]
    fn skip_policy_supervises_each_replica_independently(
        keys in proptest::collection::vec(0i64..8, 1..60),
        fail_mod in 1i64..6,
        replicas in 1usize..=6,
    ) {
        let sink = CollectSink::shared();
        let t = sharded_topology(
            items_from_keys(&keys),
            replicas,
            Some(FaultPolicy::Skip { max_consecutive: usize::MAX }),
            square_factory(fail_mod),
            &sink,
        );
        Runtime::new(t).run().unwrap();
        prop_assert_eq!(collected(&sink), expected_squares(keys.len(), fail_mod));
    }

    /// `DeadLetter` preserves every faulted item (attributed to a replica
    /// sub-stage) while the survivors flow through unharmed.
    #[test]
    fn dead_letter_policy_captures_faults_per_replica(
        keys in proptest::collection::vec(0i64..8, 1..60),
        fail_mod in 1i64..6,
        replicas in 1usize..=6,
    ) {
        let dead = DeadLetterQueue::shared();
        let sink = CollectSink::shared();
        let t = sharded_topology(
            items_from_keys(&keys),
            replicas,
            Some(FaultPolicy::DeadLetter { queue: dead.clone() }),
            square_factory(fail_mod),
            &sink,
        );
        Runtime::new(t).run().unwrap();
        prop_assert_eq!(collected(&sink), expected_squares(keys.len(), fail_mod));
        let mut lettered: Vec<i64> = dead
            .records()
            .iter()
            .map(|r| r.item.as_ref().expect("faulted data item").get_i64("n").unwrap())
            .collect();
        lettered.sort_unstable();
        let expected: Vec<i64> = (0..keys.len() as i64).filter(|n| n % fail_mod == 0).collect();
        prop_assert_eq!(lettered, expected, "every faulted item is preserved exactly once");
        for record in dead.records() {
            prop_assert!(
                record.process.starts_with("stage"),
                "fault attributed to the stage, got `{}`", record.process
            );
            // A shard's input is sequenced by its position in the stage's
            // input, which is `n`; an unreplicated stage sequences nothing.
            let n = record.item.as_ref().and_then(|i| i.get_i64("n"));
            prop_assert_eq!(record.seq, if replicas > 1 { n } else { None });
        }
    }

    /// `Restart` re-runs a transiently failing item on a rebuilt chain:
    /// when every item fails exactly once, each replica restarts once per
    /// item and the run still emits the complete output in order.
    #[test]
    fn restart_policy_recovers_transient_faults(
        keys in proptest::collection::vec(0i64..8, 1..50),
        replicas in 1usize..=6,
    ) {
        // Shared by every rebuilt instance, so a restart does not re-arm it.
        let seen = Arc::new(Mutex::new(HashSet::new()));
        let transient_factory = move || {
            let seen = Arc::clone(&seen);
            Box::new(FnProcessor::new(move |mut item: DataItem, _: &mut Context| {
                let n = item.get_i64("n").unwrap();
                if seen.lock().unwrap().insert(n) {
                    return Err(StreamsError::ServiceError {
                        detail: format!("transient fault on n={n}"),
                    });
                }
                if n % 5 == 3 {
                    return Ok(None);
                }
                item.set("sq", n * n);
                Ok(Some(item))
            })) as Box<dyn Processor>
        };
        let sink = CollectSink::shared();
        let t = sharded_topology(
            items_from_keys(&keys),
            replicas,
            Some(FaultPolicy::Restart { max: usize::MAX }),
            transient_factory,
            &sink,
        );
        Runtime::new(t).run().unwrap();
        prop_assert_eq!(collected(&sink), expected_squares(keys.len(), 0));
    }
}
