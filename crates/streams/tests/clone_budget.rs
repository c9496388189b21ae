//! Regression tests for the payload clone budget of the partition protocol.
//!
//! `DataItem` payloads sit behind a copy-on-write `Arc`, so routing, the
//! shards and the merge share payloads instead of deep-cloning them. The process-global
//! [`deep_copies`] counter makes that budget testable: a sharded
//! run may detach a payload a constant number of times per item (a write to
//! a still-shared map), but the count must not scale with the replica
//! count — that was exactly the bug where every extra shard re-cloned every
//! item it never even saw.
//!
//! The flat-map representation adds a second budget next to deep copies:
//! raw heap *allocations*. The counting global allocator measures the whole
//! sharded run, so the same test also pins allocations/item through the
//! router→shard→merge path — and, like deep copies, that count must
//! not scale with the replica count.
//!
//! The partition protocol itself writes nothing into an item: its position
//! travels in a stamp beside the attribute map. A full-width (12-attribute)
//! bus item therefore crosses a 4-replica identity stage with zero deep
//! copies and stays in inline storage — one protocol attribute would spill
//! it to the heap.
//!
//! How often a shard finds its input empty and publishes its progress (see
//! `insight_streams::partition`) depends on the thread schedule; the test
//! runs a shape where the router races its feed to show that costs nothing
//! per item: progress is a counter on a ring, not an item.
//!
//! These tests live in their own integration-test binary because both
//! counters are process-global: sibling tests running on other harness
//! threads would otherwise bleed their own detaches and allocations into
//! the deltas measured here. Keep this file to a single `#[test]` for that
//! reason.

use insight_streams::alloc::{allocation_count, CountingAllocator};
use insight_streams::fault::FaultPolicy;
use insight_streams::item::{DataItem, INLINE_ATTRS};
use insight_streams::processor::{Context, Processor};
use insight_streams::runtime::Runtime;
use insight_streams::sink::CollectSink;
use insight_streams::source::VecSource;
use insight_streams::testing::{deep_copies, is_inline, FnProcessor};
use insight_streams::topology::{Input, Output, Topology};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const ITEMS: usize = 400;

fn items() -> Vec<DataItem> {
    (0..ITEMS as i64)
        .map(|n| {
            DataItem::new().with("key", n % 7).with("n", n).with("payload", format!("payload-{n}"))
        })
        .collect()
}

fn square_factory() -> Box<dyn Processor> {
    Box::new(FnProcessor::new(|mut item: DataItem, _: &mut Context| {
        let n = item.get_i64("n").unwrap();
        item.set("sq", n * n);
        Ok(Some(item))
    }))
}

/// A bus-schema-shaped item: 12 attributes, every value inline-width.
fn bus_item(n: i64) -> DataItem {
    DataItem::new()
        .with("time", n)
        .with("arrival", n + 17)
        .with("region", ["north", "south", "east", "west"][n as usize % 4])
        .with("kind", "bus")
        .with("bus", 33000 + n)
        .with("line", n % 60)
        .with("operator", 7i64)
        .with("delay", 120i64)
        .with("lon", -6.26 + n as f64 * 1e-6)
        .with("lat", 53.35)
        .with("direction", n % 2)
        .with("congestion", n % 3 == 0)
}

/// Relays full-width bus items through a 4-replica identity stage while the
/// caller keeps a clone of every input, so any write to an item's map on the
/// way would have to deep-copy it. Returns the deep copies counted and what
/// arrived.
fn full_width_through_identity_stage() -> (u64, Vec<DataItem>, Vec<DataItem>) {
    let inputs: Vec<DataItem> = (0..ITEMS as i64).map(bus_item).collect();
    assert!(inputs.iter().all(|i| i.len() == INLINE_ATTRS && is_inline(i)));
    let sink = CollectSink::shared();
    let mut t = Topology::new();
    t.add_source("in", VecSource::new(inputs.clone()));
    t.process("stage")
        .input(Input::Stream("in".into()))
        .replicas(4)
        .partition_by(["region"])
        .processor_factory(|| {
            Box::new(FnProcessor::new(|item: DataItem, _: &mut Context| Ok(Some(item))))
        })
        .output(Output::Sink(Box::new(sink.clone())))
        .done();
    let before = deep_copies();
    Runtime::new(t).run().unwrap();
    (deep_copies() - before, inputs, sink.items())
}

/// Runs `square_factory` in a `Skip` process and returns the deep copies
/// counted. `Skip` never reads the item a processor faulted on, so the
/// runtime keeps no copy of it, and the processor's write finds the map
/// unshared.
fn skip_stage_copies() -> u64 {
    let sink = CollectSink::shared();
    let mut t = Topology::new();
    t.add_source("in", VecSource::new(items()));
    t.process("stage")
        .input(Input::Stream("in".into()))
        .fault_policy(FaultPolicy::Skip { max_consecutive: 0 })
        .processor_factory(square_factory)
        .output(Output::Sink(Box::new(sink.clone())))
        .done();
    let before = deep_copies();
    Runtime::new(t).run().unwrap();
    assert_eq!(sink.items().len(), ITEMS, "all items arrive");
    deep_copies() - before
}

/// Runs the canonical `P[part]` → replicas → `P[merge]` stage and returns
/// how many payload deep-copies and heap allocations the whole run
/// performed. `racing` puts a per-item feed process and a queue in front of
/// the stage, so the router runs on the pool and its shards keep catching
/// their input empty — as often as the thread schedule has it, up to once
/// per item.
fn budgets_for(replicas: usize, racing: bool) -> (u64, u64) {
    let sink = CollectSink::shared();
    let mut t = Topology::new();
    t.add_source("in", VecSource::new(items()));
    t.add_queue("out", 8);
    let input = if racing {
        t.add_queue("fed", 8);
        t.process("feed")
            .input(Input::Stream("in".into()))
            .output(Output::Queue("fed".into()))
            .done();
        Input::Queue("fed".into())
    } else {
        Input::Stream("in".into())
    };
    t.process("stage")
        .input(input)
        .replicas(replicas)
        .partition_by(["key"])
        .processor_factory(square_factory)
        .output(Output::Queue("out".into()))
        .done();
    t.process("collect")
        .input(Input::Queue("out".into()))
        .output(Output::Sink(Box::new(sink.clone())))
        .done();
    let copies_before = deep_copies();
    let allocs_before = allocation_count();
    Runtime::new(t).run().unwrap();
    let allocs = allocation_count() - allocs_before;
    let copies = deep_copies() - copies_before;
    assert_eq!(sink.items().len(), ITEMS, "replicas={replicas}: all items arrive");
    (copies, allocs)
}

/// The per-item deep-copy and allocation budgets are O(1) and independent
/// of the replica count: 8 shards may not clone — or allocate — more than
/// 1 shard does, beyond a small per-replica constant for the per-shard
/// workers and queues.
#[test]
fn budgets_stay_constant_in_replica_count() {
    let (copies, inputs, outputs) = full_width_through_identity_stage();
    assert_eq!(copies, 0, "the partition protocol wrote to a shared attribute map");
    assert_eq!(outputs, inputs, "the identity stage relays every item unchanged, in order");
    assert!(outputs.iter().all(is_inline), "a relayed bus item spilled to the heap");
    assert_eq!(skip_stage_copies(), 0, "a Skip process copied the items its processor writes");

    let (base_copies, base_allocs) = budgets_for(1, false);
    assert!(
        base_copies <= 2 * ITEMS as u64,
        "single-replica run stays within 2 deep-copies per item, got {base_copies} for {ITEMS} items"
    );
    // With inline attributes, the run's allocation budget is a handful per
    // item: detach Arcs on write (set "sq"), batch
    // vectors, and queue hand-off — but no per-attribute or per-value
    // allocations. The pre-flat-map representation paid several extra
    // allocations per item for B-tree nodes and heap-string values alone
    // (the bench_report ingest sweep measures that A/B directly).
    assert!(
        base_allocs <= 10 * ITEMS as u64,
        "single-replica run stays within 10 allocations per item, got {base_allocs} for {ITEMS} items"
    );
    for replicas in [2usize, 4, 8] {
        let (copies, allocs) = budgets_for(replicas, false);
        // The slack terms cover per-replica infrastructure (workers,
        // queues) — O(replicas) with an O(1) budget, NOT O(items ×
        // replicas).
        let copy_budget = base_copies + 4 * replicas as u64 + 16;
        assert!(
            copies <= copy_budget,
            "replicas={replicas}: {copies} deep copies exceed budget {copy_budget} \
             (base {base_copies} at 1 replica, {ITEMS} items) — the partition path \
             is deep-cloning payloads again"
        );
        let alloc_budget = base_allocs + base_allocs / 2 + 600 * replicas as u64;
        assert!(
            allocs <= alloc_budget,
            "replicas={replicas}: {allocs} allocations exceed budget {alloc_budget} \
             (base {base_allocs} at 1 replica, {ITEMS} items) — the partition path \
             is allocating per item × replica again"
        );
    }
    // Idle shards on a racing schedule: however often the schedule has them
    // publish progress, that copies no attribute map and allocates nothing,
    // so the deep-copy budget is the flood one and two replicas stay inside
    // the per-item ceiling of the single-replica run.
    let (base_copies, _) = budgets_for(1, true);
    for replicas in [2usize, 4] {
        let (copies, allocs) = budgets_for(replicas, true);
        let copy_budget = base_copies + 4 * replicas as u64 + 16;
        assert!(
            copies <= copy_budget,
            "racing, replicas={replicas}: {copies} deep copies exceed budget {copy_budget} — \
             idle shards are copying attribute maps"
        );
        if replicas == 2 {
            assert!(
                allocs <= 10 * ITEMS as u64,
                "racing, replicas=2: {allocs} allocations for {ITEMS} items exceed 10 per item"
            );
        }
    }
}
