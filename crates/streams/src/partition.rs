//! Keyed shard parallelism: partition / replicate / merge.
//!
//! A process declared with [`replicas(n)`](crate::topology::ProcessBuilder::replicas)
//! and [`partition_by`](crate::topology::ProcessBuilder::partition_by) is
//! expanded — transparently, inside the runtimes — into `n + 2` workers:
//!
//! ```text
//!            ┌─ P[shard:0] ─ P[0] ─┐
//! input ─ P[part] ─ P[shard:1] ─ P[1] ─┼─ P[merge:q] ─ P[merge] ─ outputs
//!            └─ P[shard:2] ─ P[2] ─┘
//! ```
//!
//! * **`P[part]`**, the router, numbers its input items `0, 1, 2, …` and
//!   hands each to the queue of the shard its partition-key values select (a
//!   stable hash, or the declared hints).
//! * **`P[0]`‥`P[n-1]`**, the shards, each run a private instance of the
//!   processor chain, under the stage's fault policy like any process. A
//!   shard takes the sequence number off each input before its chain sees
//!   it, and the `k` outputs of input `s` leave as `(s, 0)`‥`(s, k-1)`.
//! * **`P[merge]`** receives from `P[merge:q]`, whose receiver pops in
//!   `(seq, sub)` order (see [`crate::queue`]), and takes the stamps off.
//!
//! The router and the merge run no processor chain and hold no state.
//!
//! ## Determinism
//!
//! The merge emits data items in strictly increasing `(seq, sub)` order,
//! which *is* the router's input order with each input's outputs in the
//! order its chain produced them — independent of thread scheduling and of
//! the shard count. A replicated stage with a stateless chain is therefore
//! byte-identical to the unreplicated stage for any `n`, whether the chain
//! emits zero, one or several items per input. Items a chain emits from
//! `finish` carry no sequence number; the merge releases them after all
//! sequenced data, shard by shard (each shard's trailing items keep their
//! FIFO order), so they too are schedule-independent — but their grouping
//! depends on the shard count, which is why stages with stateful
//! end-of-stream output should be compared in canonical (sorted) form across
//! shard counts.
//!
//! ## Progress
//!
//! Each shard writes into its own FIFO ring of `P[merge:q]` and finishes one
//! input before it starts the next, so every ring is sorted by `(seq, sub)`.
//! The merge queue releases the smallest head once no other ring can still
//! deliver anything smaller: a ring with a head cannot, nor can one that is
//! closed and drained. An empty, open ring answers with its *progress*, a
//! counter its producer keeps on the ring: every sequence number below it
//! has been pushed. That is how an input filtered inside a shard, and a
//! shard that receives nothing at all, still let the others' items go.
//!
//! * After each hand-on the router stores on every shard ring the next
//!   sequence number — or, if part of the hand-on still waits for room, the
//!   smallest one it still owes.
//! * A shard stores `s + 1` on its output ring once the outputs of input `s`
//!   are handed on. When its input is empty and it owes nothing, it copies
//!   its input ring's progress, read before it found the input empty, onto
//!   its output ring.
//!
//! Progress only rises; it is stored after the pushes it covers (release)
//! and loaded before the ring is looked at (acquire). When it is read can
//! therefore delay a release but not change what is released or in which
//! order. Nothing of the protocol is an item: the queues inside the stage
//! carry data only, and no worker has to go idle for the merge to move. The
//! merge buffers nothing — waiting items stay in their rings — so a ring it
//! waits on is empty and its shard always has room to catch up.
//!
//! ## Stamps
//!
//! The sequence number travels *beside* the attributes, in a small copyable
//! stamp each [`DataItem`] carries next to its shared attribute map, so the
//! protocol costs no map write, no copy-on-write detach and no spill of a
//! full-width item. A stamp is not part of an item's equality, JSON or
//! `Display`; user chains never see one, and nothing leaves the merge
//! stamped. An input a shard dead-letters keeps its number as the record's
//! [`seq`](crate::fault::DeadLetterRecord::seq).

use crate::error::StreamsError;
use crate::fault::FaultPolicy;
use crate::item::DataItem;
use crate::topology::{Input, Output, ProcessDef, Role, Topology, DEFAULT_QUEUE_CAPACITY};

/// Stable shard assignment: FNV-1a over the rendered partition-key values.
///
/// Missing keys hash as a distinct sentinel, so items without the key still
/// land deterministically on one shard. The hash depends only on the item's
/// key values — never on the replica count in any way other than the final
/// modulo — so `same key ⇒ same shard` holds for every `shards` value.
pub fn shard_for(item: &DataItem, keys: &[String], shards: usize) -> usize {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn feed(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
        h
    }
    let mut h = OFFSET;
    // Feed the same bytes `Value`'s Display renders, but without building a
    // String per key — this runs once per item on the partitioned hot path.
    // String keys (the common case) hash without any allocation; numeric
    // keys share one reused buffer.
    let mut numbuf = String::new();
    for key in keys {
        match item.get(key) {
            Some(crate::item::Value::Str(s)) => h = feed(h, s.as_bytes()),
            Some(crate::item::Value::Null) => h = feed(h, b"null"),
            Some(crate::item::Value::Bool(b)) => h = feed(h, if *b { b"true" } else { b"false" }),
            Some(v) => {
                numbuf.clear();
                use std::fmt::Write as _;
                write!(numbuf, "{v}").expect("formatting a number into a String cannot fail");
                h = feed(h, numbuf.as_bytes());
            }
            None => h = feed(h, b"\x00<missing>"),
        }
        h = feed(h, &[0x1f]);
    }
    (h % shards.max(1) as u64) as usize
}

/// [`shard_for`] with declared key values: a single string key whose value
/// is listed in `hints` routes to `position % shards` — a round-robin over
/// the enumerated values, the only assignment that cannot collide the
/// heavy values of a low-cardinality key onto one replica (see
/// [`crate::topology::ProcessBuilder::partition_hints`]). Anything not
/// covered by the hints keeps the hash route. Both routes are pure
/// functions of the key value, so `same key ⇒ same shard` holds either
/// way.
pub fn shard_for_hinted(
    item: &DataItem,
    keys: &[String],
    hints: &[String],
    shards: usize,
) -> usize {
    if !hints.is_empty() {
        if let [key] = keys {
            if let Some(crate::item::Value::Str(s)) = item.get(key) {
                if let Some(pos) = hints.iter().position(|h| h.as_str() == s.as_str()) {
                    return pos % shards.max(1);
                }
            }
        }
    }
    shard_for(item, keys, shards)
}

/// Expands every process declared with `replicas(n > 1)` into the
/// router / shards / merge workers described in the module docs. Processes
/// with `replicas(1)` (or none) are untouched — their behaviour is
/// bit-identical to a plain process. Called by the runtimes before
/// validation, so the expanded graph is what gets validated, scheduled and
/// measured.
pub(crate) fn expand_replicas(topology: &mut Topology) -> Result<(), StreamsError> {
    let processes = std::mem::take(&mut topology.processes);
    for mut p in processes {
        if p.replicas <= 1 {
            // Collapse the (single) replica chain into the direct chain.
            if let Some(chain) = p.replica_chains.pop() {
                assert!(
                    p.processors.is_empty(),
                    "process `{}` mixes processor() and processor_factory()",
                    p.name
                );
                p.processors = chain;
            }
            topology.processes.push(p);
            continue;
        }
        let n = p.replicas;
        if p.partition_keys.is_empty() {
            return Err(StreamsError::InvalidPartition {
                process: p.name,
                detail: format!("replicas({n}) requires partition_by(...)"),
            });
        }
        if !p.processors.is_empty() {
            return Err(StreamsError::InvalidPartition {
                process: p.name,
                detail: "replicated processors must be added via processor_factory(), \
                         not processor()"
                    .into(),
            });
        }
        let mut chains = std::mem::take(&mut p.replica_chains);
        if chains.is_empty() {
            chains = (0..n).map(|_| Vec::new()).collect();
        }
        assert_eq!(chains.len(), n, "one replica chain per replica");

        // The shard queues size themselves off the stage's input edge: the
        // router only routes, so it must not impose backpressure tighter
        // than the edge feeding it — with keyed (skewed) routing a smaller
        // shard queue fills while its shard is busy and parks the router
        // even though upstream capacity remains.
        let inner_capacity = match &p.input {
            Input::Queue(q) => topology.queues.get(q).copied().unwrap_or(DEFAULT_QUEUE_CAPACITY),
            _ => DEFAULT_QUEUE_CAPACITY,
        }
        .max(DEFAULT_QUEUE_CAPACITY);
        let merge_queue = format!("{}[merge:q]", p.name);
        topology.queues.insert(merge_queue.clone(), inner_capacity);
        let shard_queues: Vec<String> = (0..n).map(|i| format!("{}[shard:{i}]", p.name)).collect();
        for q in &shard_queues {
            topology.queues.insert(q.clone(), inner_capacity);
        }

        // The router and the merge run no chain: nothing in them can fault
        // and nothing needs a barrier.
        let batch_size = p.batch_size;
        let worker = |suffix: &str, input: Input, outputs: Vec<Output>, role: Role| ProcessDef {
            name: format!("{}[{suffix}]", p.name),
            input,
            processors: Vec::new(),
            outputs,
            fault_policy: FaultPolicy::FailFast,
            batch_size,
            replicas: 1,
            partition_keys: Vec::new(),
            partition_hints: Vec::new(),
            replica_chains: Vec::new(),
            role,
            factories: Vec::new(),
            checkpoint_every: 0,
        };
        let router = ProcessDef {
            partition_keys: std::mem::take(&mut p.partition_keys),
            partition_hints: std::mem::take(&mut p.partition_hints),
            ..worker(
                "part",
                p.input.clone(),
                shard_queues.iter().cloned().map(Output::Queue).collect(),
                Role::Router,
            )
        };
        let shards: Vec<ProcessDef> = chains
            .into_iter()
            .enumerate()
            .map(|(i, chain)| ProcessDef {
                processors: chain,
                fault_policy: p.fault_policy.clone(),
                factories: p.factories.clone(),
                checkpoint_every: p.checkpoint_every,
                ..worker(
                    &i.to_string(),
                    Input::Queue(shard_queues[i].clone()),
                    vec![Output::Queue(merge_queue.clone())],
                    Role::Shard,
                )
            })
            .collect();
        let merge =
            worker("merge", Input::Queue(merge_queue), std::mem::take(&mut p.outputs), Role::Merge);
        topology.processes.push(router);
        topology.processes.extend(shards);
        topology.processes.push(merge);
    }
    Ok(())
}

/// How a worker distributes chain survivors to its outputs.
pub(crate) enum Dispatch {
    /// Clone to every output (the default process semantics).
    Broadcast,
    /// The router's: each item to the output of the shard chosen by
    /// [`shard_for_hinted`] over the partition keys.
    Shard { keys: Vec<String>, hints: Vec<String> },
}

impl Dispatch {
    /// Routes one chain survivor into the per-output buckets `owed` (one per
    /// output, in output order): a copy into every bucket, or the keyed
    /// shard's. Each bucket keeps its items in routing order, which is all
    /// per-queue FIFO — and with it merge determinism — needs. Item clones
    /// are `Arc` reference bumps (see [`crate::item`]), never attribute-map
    /// copies.
    pub(crate) fn plan_into(&self, item: DataItem, owed: &mut [Vec<DataItem>]) {
        match self {
            Dispatch::Broadcast => {
                if let Some((last, rest)) = owed.split_last_mut() {
                    for bucket in rest {
                        bucket.push(item.clone());
                    }
                    last.push(item);
                }
            }
            Dispatch::Shard { keys, hints } => {
                let shard = shard_for_hinted(&item, keys, hints, owed.len());
                owed[shard].push(item);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::item::Stamp;
    use crate::processor::{Context, FnProcessor};

    #[test]
    fn shard_for_is_stable_and_covers_missing_keys() {
        let keys = vec!["region".to_string()];
        let item = DataItem::new().with("region", "north");
        assert_eq!(shard_for(&item, &keys, 4), shard_for(&item, &keys, 4));
        // Items without the key still land somewhere deterministic.
        let bare = DataItem::new().with("x", 1i64);
        assert!(shard_for(&bare, &keys, 4) < 4);
        assert_eq!(shard_for(&bare, &keys, 4), shard_for(&bare, &keys, 4));
    }

    #[test]
    fn shard_dispatch_routes_by_key_and_broadcast_copies() {
        let keys = vec!["k".to_string()];
        let shard = Dispatch::Shard { keys: keys.clone(), hints: Vec::new() };
        let mut owed = vec![Vec::new(); 3];
        for k in 0..30i64 {
            let item = DataItem::new().with("k", k);
            let expect = shard_for(&item, &keys, 3);
            shard.plan_into(item, &mut owed);
            assert_eq!(owed[expect].last().unwrap().get_i64("k"), Some(k), "the keyed shard");
            assert_eq!(owed.iter().map(Vec::len).sum::<usize>(), k as usize + 1, "one copy");
        }
        let mut owed = vec![Vec::new(); 3];
        Dispatch::Broadcast.plan_into(DataItem::new().with("k", 1i64), &mut owed);
        assert!(owed.iter().all(|bucket| bucket.len() == 1), "a copy for every output");
    }

    fn replicated_topology(
        n_items: i64,
        replicas: usize,
        sink: &crate::sink::CollectSink,
    ) -> Topology {
        use crate::source::VecSource;
        let mut t = Topology::new();
        t.add_source(
            "nums",
            VecSource::new((0..n_items).map(|i| DataItem::new().with("n", i).with("key", i % 7))),
        );
        t.add_queue("out", 8);
        t.process("square")
            .input(Input::Stream("nums".into()))
            .replicas(replicas)
            .partition_by(["key"])
            .processor_factory(|| {
                Box::new(FnProcessor::new(|mut item: DataItem, _: &mut Context| {
                    assert_eq!(item.stamp(), Stamp::None, "the chain never sees a stamp");
                    let n = item.get_i64("n").unwrap();
                    if n % 5 == 3 {
                        return Ok(None); // filtered: creates sequence gaps
                    }
                    item.set("sq", n * n);
                    Ok(Some(item))
                }))
            })
            .output(Output::Queue("out".into()))
            .done();
        t.process("collect")
            .input(Input::Queue("out".into()))
            .output(Output::Sink(Box::new(sink.clone())))
            .done();
        t
    }

    #[test]
    fn replicated_stage_preserves_input_order_threaded_and_replay() {
        let expected: Vec<(i64, i64)> =
            (0..200).filter(|n| n % 5 != 3).map(|n| (n, n * n)).collect();
        let got = |sink: &crate::sink::CollectSink| -> Vec<(i64, i64)> {
            let items = sink.items();
            assert!(items.iter().all(|i| i.stamp() == Stamp::None), "no stamp leaves the merge");
            items.iter().map(|i| (i.get_i64("n").unwrap(), i.get_i64("sq").unwrap())).collect()
        };
        for replicas in [1usize, 2, 4, 8] {
            let sink = crate::sink::CollectSink::shared();
            crate::runtime::Runtime::new(replicated_topology(200, replicas, &sink)).run().unwrap();
            assert_eq!(got(&sink), expected, "threaded, replicas={replicas}");

            let sink = crate::sink::CollectSink::shared();
            crate::replay::ReplayRuntime::new(replicated_topology(200, replicas, &sink), 42)
                .run()
                .unwrap();
            assert_eq!(got(&sink), expected, "replay, replicas={replicas}");
        }
    }

    #[test]
    fn order_holds_while_a_full_shard_ring_keeps_the_router_owing() {
        // Shard rings of two items against batches of eight: the router
        // keeps handing on only part of a batch, and the progress it
        // publishes must stop at the first item it still owes.
        let expected: Vec<i64> = (0..200).filter(|n| n % 5 != 3).collect();
        for seed in 0..40 {
            let sink = crate::sink::CollectSink::shared();
            let mut t = replicated_topology(200, 3, &sink);
            t.processes[0].batch_size = 8;
            expand_replicas(&mut t).unwrap();
            for (name, capacity) in t.queues.iter_mut() {
                if name.contains("[shard:") {
                    *capacity = 2;
                }
            }
            crate::replay::ReplayRuntime::new(t, seed).run().unwrap();
            let got: Vec<i64> = sink.items().iter().map(|i| i.get_i64("n").unwrap()).collect();
            assert_eq!(got, expected, "seed {seed}");
        }
    }

    #[test]
    fn finish_outputs_leave_after_all_data_shard_by_shard() {
        /// Passes items on; its `finish` names its shard twice.
        struct Tail(i64);
        impl crate::processor::Processor for Tail {
            fn process(
                &mut self,
                item: DataItem,
                _: &mut Context,
            ) -> Result<Option<DataItem>, StreamsError> {
                Ok(Some(item))
            }
            fn finish(&mut self, ctx: &mut Context) -> Result<Vec<DataItem>, StreamsError> {
                ctx.emit(DataItem::new().with("tail", self.0));
                Ok(vec![DataItem::new().with("tail", self.0)])
            }
        }
        let build = |sink: &crate::sink::CollectSink| {
            let mut t = Topology::new();
            let items = (0..60i64).map(|n| DataItem::new().with("n", n).with("key", n % 7));
            t.add_source("nums", crate::source::VecSource::new(items));
            t.process("tails")
                .input(Input::Stream("nums".into()))
                .replicas(3)
                .partition_by(["key"])
                .processor_factory({
                    // Called once per replica, in shard order.
                    let shard = std::sync::atomic::AtomicI64::new(0);
                    move || Box::new(Tail(shard.fetch_add(1, std::sync::atomic::Ordering::SeqCst)))
                })
                .output(Output::Sink(Box::new(sink.clone())))
                .done();
            t
        };
        let expected: Vec<(Option<i64>, Option<i64>)> = (0..60)
            .map(|n| (Some(n), None))
            .chain((0..3).flat_map(|i| [(None, Some(i)), (None, Some(i))]))
            .collect();
        let got = |sink: &crate::sink::CollectSink| -> Vec<(Option<i64>, Option<i64>)> {
            sink.items().iter().map(|i| (i.get_i64("n"), i.get_i64("tail"))).collect()
        };
        for seed in [0, 7, 42] {
            let sink = crate::sink::CollectSink::shared();
            crate::replay::ReplayRuntime::new(build(&sink), seed).run().unwrap();
            assert_eq!(got(&sink), expected, "replay seed {seed}");
        }
        let sink = crate::sink::CollectSink::shared();
        crate::runtime::Runtime::new(build(&sink)).run().unwrap();
        assert_eq!(got(&sink), expected, "threaded");
    }

    #[test]
    fn replicas_without_partition_keys_rejected() {
        let sink = crate::sink::CollectSink::shared();
        let mut t = replicated_topology(10, 2, &sink);
        t.processes[0].partition_keys.clear();
        assert!(matches!(
            crate::runtime::Runtime::new(t).run(),
            Err(StreamsError::InvalidPartition { .. })
        ));
    }

    #[test]
    fn replicated_stage_metrics_have_distinct_labels() {
        let sink = crate::sink::CollectSink::shared();
        let rt = crate::runtime::Runtime::new(replicated_topology(100, 2, &sink));
        let metrics = rt.metrics();
        rt.run().unwrap();
        let snap = metrics.snapshot();
        for stage in ["square[part]", "square[0]", "square[1]", "square[merge]"] {
            assert!(snap.stages.contains_key(stage), "stage `{stage}` missing");
        }
        assert!(!snap.stages.contains_key("square"), "no aliased unsuffixed stage");
        // Every input item went through the router exactly once, and the
        // two shards split it: per-shard counters never alias.
        assert_eq!(snap.stages["square[part]"].items_in, 100);
        assert_eq!(snap.stages["square[part]"].process_ns.count, 100, "one routing per item");
        let r0 = snap.stages["square[0]"].items_in;
        let r1 = snap.stages["square[1]"].items_in;
        assert!(r0 > 0 && r1 > 0, "both shards saw traffic: {r0}/{r1}");
        assert_eq!(r0 + r1, 100, "the shards split the input");
        // The queues inside the stage carry data and nothing else.
        let sent = |q: &str| snap.queues[q].sent;
        assert_eq!((sent("square[shard:0]"), sent("square[shard:1]")), (r0, r1));
        assert_eq!(sent("square[merge:q]"), 80, "20 of 100 were filtered");
        let merge = &snap.stages["square[merge]"];
        assert_eq!((merge.items_in, merge.items_out, merge.process_ns.count), (80, 80, 80));
        assert_eq!(merge.held_high_water, 0, "the merge holds nothing: items wait in rings");
    }
}
