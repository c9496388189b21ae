//! Regression tests for the payload clone budget of the partition protocol.
//!
//! PR 5's hot-path fix put `DataItem` payloads behind a copy-on-write
//! `Arc`, so planning, watermark bridging and the merge share payloads
//! instead of deep-cloning them. The process-global
//! [`DataItem::deep_copies`] counter makes that budget testable: a sharded
//! run may detach a payload a constant number of times per item (a write to
//! a still-shared map), but the count must not scale with the replica
//! count — that was exactly the bug where every extra shard re-cloned every
//! item it never even saw.
//!
//! The flat-map representation adds a second budget next to deep copies:
//! raw heap *allocations*. The counting global allocator measures the whole
//! sharded run, so the same test also pins allocations/item through the
//! partition→replica→merge path — and, like deep copies, that count must
//! not scale with the replica count.
//!
//! Idle punctuation (see `insight_streams::partition`) adds watermark items
//! whose number depends on the thread schedule; the test runs a shape where
//! the partitioner races its feed to show they fit the same budgets.
//!
//! These tests live in their own integration-test binary because both
//! counters are process-global: sibling tests running on other harness
//! threads would otherwise bleed their own detaches and allocations into
//! the deltas measured here. Keep this file to a single `#[test]` for that
//! reason.

use insight_streams::alloc::{allocation_count, CountingAllocator};
use insight_streams::item::DataItem;
use insight_streams::processor::{Context, FnProcessor, Processor};
use insight_streams::runtime::Runtime;
use insight_streams::sink::CollectSink;
use insight_streams::source::VecSource;
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

/// Runs the canonical `P[part]` → replicas → `P[merge]` stage and returns
/// how many payload deep-copies and heap allocations the whole run
/// performed. `racing` puts a per-item feed process and a queue in front of
/// the stage, so the partitioner keeps catching its input empty and
/// punctuates on idle — as often as the thread schedule has it, up to once
/// per item — instead of only at the flood cadence.
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
    let copies_before = DataItem::deep_copies();
    let allocs_before = allocation_count();
    Runtime::new(t).run().unwrap();
    let allocs = allocation_count() - allocs_before;
    let copies = DataItem::deep_copies() - copies_before;
    assert_eq!(sink.items().len(), ITEMS, "replicas={replicas}: all items arrive");
    (copies, allocs)
}

/// The per-item deep-copy and allocation budgets are O(1) and independent
/// of the replica count: 8 shards may not clone — or allocate — more than
/// 1 shard does, beyond a small per-replica constant for the extra
/// bookkeeping items (watermarks) and per-shard queues/threads.
#[test]
fn budgets_stay_constant_in_replica_count() {
    let (base_copies, base_allocs) = budgets_for(1, false);
    assert!(
        base_copies <= 2 * ITEMS as u64,
        "single-replica run stays within 2 deep-copies per item, got {base_copies} for {ITEMS} items"
    );
    // With inline attributes, the run's allocation budget is a handful per
    // item: detach Arcs on write (set "sq", shard/seq tagging), batch
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
        // The slack terms cover per-replica control items (one watermark
        // bridge per shard per cadence) and per-replica infrastructure
        // (threads, queues, merge buffers) — O(replicas) each with an O(1)
        // budget, NOT O(items × replicas).
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
    // Idle punctuation on a racing schedule. A watermark is built per shard,
    // already attributed, and forwarded untouched: however many the schedule
    // produces, none copies an attribute map, so the deep-copy budget is the
    // flood one. Each costs one small allocation, and the worst schedule
    // sends `replicas` of them per item — two replicas stay inside the
    // per-item ceiling of the single-replica run.
    let (base_copies, _) = budgets_for(1, true);
    for replicas in [2usize, 4] {
        let (copies, allocs) = budgets_for(replicas, true);
        let copy_budget = base_copies + 4 * replicas as u64 + 16;
        assert!(
            copies <= copy_budget,
            "racing, replicas={replicas}: {copies} deep copies exceed budget {copy_budget} — \
             watermarks are copying attribute maps"
        );
        if replicas == 2 {
            assert!(
                allocs <= 10 * ITEMS as u64,
                "racing, replicas=2: {allocs} allocations for {ITEMS} items exceed 10 per item"
            );
        }
    }
}
