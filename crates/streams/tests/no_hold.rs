//! A stage never holds an item that is ready to leave — Streams-level twin
//! of `crates/core/tests/no_hold.rs`.
//!
//! A sharded stage whose chain filters seven items in eight sits behind a
//! feed — a feed process and a queue, or the gated source itself — that
//! hands over one burst and then goes quiet. What tells the order-restoring
//! merge "the other shards have nothing older" is the progress each shard
//! keeps on its output ring: for the inputs it filtered, and — when its
//! input is empty — for the inputs it never saw. With partition hints that
//! send every item to shard 0, shards 1 and 2 receive nothing at all and
//! only that idle path speaks for them. The feed releases its second burst
//! only once every survivor of the first is in the sink: under the replay
//! scheduler a stage that sat on one would end the run in `ReplayDeadlock`,
//! under the threaded runtime the gate gives up after a (generous,
//! failure-path-only) deadline and the test fails on the flag. No assertion
//! depends on timing.

use insight_streams::error::StreamsError;
use insight_streams::item::DataItem;
use insight_streams::processor::{Context, Processor};
use insight_streams::replay::ReplayRuntime;
use insight_streams::runtime::Runtime;
use insight_streams::sink::CollectSink;
use insight_streams::source::GatedSource;
use insight_streams::testing::FnProcessor;
use insight_streams::topology::{Input, Output, Topology};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const REPLICAS: usize = 3;
const BURST: i64 = 40;
const TOTAL: i64 = 200;

fn items(range: std::ops::Range<i64>) -> Vec<DataItem> {
    range.map(|n| DataItem::new().with("n", n).with("key", n % 7).with("lane", "main")).collect()
}

fn keep_every_eighth() -> Box<dyn Processor> {
    Box::new(FnProcessor::new(|item: DataItem, _: &mut Context| {
        Ok((item.get_i64("n").unwrap() % 8 == 0).then_some(item))
    }))
}

fn survivors(range: std::ops::Range<i64>) -> Vec<i64> {
    range.filter(|n| n % 8 == 0).collect()
}

/// What the gate saw when it let the second burst go.
#[derive(Default)]
struct Witness {
    /// The sink's `n` values at that moment.
    seen: Mutex<Vec<i64>>,
    /// Threaded runs only: the deadline passed before the sink filled.
    gave_up: AtomicBool,
}

/// How the sharded stage gets its input.
#[derive(Clone, Copy, Debug)]
enum Fed {
    /// feed → `in` → stage: the router runs on the pool.
    ThroughQueue,
    /// The stage pulls the source itself: the router has a thread of its
    /// own and waits inside the source.
    BySource,
}

/// How the sharded stage routes.
#[derive(Clone, Copy, Debug)]
enum Routed {
    /// By the hash of `key`: every shard gets items.
    Hashed,
    /// Every item on one `lane`, which the hints send to shard 0: the other
    /// shards never receive an item.
    AllToShardZero,
}

/// [feed → `in` →] sharded filter → `out` → collect. `deadline` bounds how
/// long a threaded run waits for a hold to clear before failing.
fn topology(
    fed: Fed,
    routed: Routed,
    sink: &CollectSink,
    witness: &Arc<Witness>,
    deadline: Option<Duration>,
) -> Topology {
    let expected = survivors(0..BURST).len();
    let gate = {
        let (sink, witness, started) = (sink.clone(), Arc::clone(witness), Instant::now());
        move |burst: usize| {
            if burst == 0 {
                return true;
            }
            let full = sink.len() >= expected;
            let timed_out = deadline.is_some_and(|d| started.elapsed() > d);
            if !(full || timed_out) {
                return false;
            }
            witness.gave_up.store(!full, Ordering::SeqCst);
            *witness.seen.lock().unwrap() =
                sink.items().iter().map(|i| i.get_i64("n").unwrap()).collect();
            true
        }
    };
    let mut t = Topology::new();
    t.add_source("live", GatedSource::new(vec![items(0..BURST), items(BURST..TOTAL)], gate));
    t.add_queue("out", 64);
    let input = match fed {
        Fed::BySource => Input::Stream("live".into()),
        Fed::ThroughQueue => {
            t.add_queue("in", 64);
            t.process("feed")
                .input(Input::Stream("live".into()))
                .batch_size(16)
                .output(Output::Queue("in".into()))
                .done();
            Input::Queue("in".into())
        }
    };
    let stage = t.process("stage").input(input).replicas(REPLICAS);
    let stage = match routed {
        Routed::Hashed => stage.partition_by(["key"]),
        Routed::AllToShardZero => stage.partition_by(["lane"]).partition_hints(["main"]),
    };
    stage
        .batch_size(16)
        .processor_factory(keep_every_eighth)
        .output(Output::Queue("out".into()))
        .done();
    t.process("collect")
        .input(Input::Queue("out".into()))
        .output(Output::Sink(Box::new(sink.clone())))
        .done();
    t
}

fn assert_nothing_was_held(
    run: Result<(), StreamsError>,
    sink: &CollectSink,
    witness: &Witness,
    label: &str,
) {
    run.unwrap_or_else(|e| panic!("{label}: the stage sat on a settled item: {e}"));
    let seen = witness.seen.lock().unwrap().clone();
    assert!(
        !witness.gave_up.load(Ordering::SeqCst),
        "{label}: the feed went quiet and the merge kept settled items: sink had {seen:?}"
    );
    assert_eq!(seen, survivors(0..BURST), "{label}: released in input order before burst 2");
    let all: Vec<i64> = sink.items().iter().map(|i| i.get_i64("n").unwrap()).collect();
    assert_eq!(all, survivors(0..TOTAL), "{label}: gating the feed changes no output");
}

const SHAPES: [(Fed, Routed); 4] = [
    (Fed::ThroughQueue, Routed::Hashed),
    (Fed::BySource, Routed::Hashed),
    (Fed::ThroughQueue, Routed::AllToShardZero),
    (Fed::BySource, Routed::AllToShardZero),
];

#[test]
fn threaded_merge_releases_everything_settled_when_the_source_stalls() {
    for (fed, routed) in SHAPES {
        let sink = CollectSink::shared();
        let witness = Arc::new(Witness::default());
        let deadline = Some(Duration::from_secs(20));
        let run = Runtime::new(topology(fed, routed, &sink, &witness, deadline)).run();
        let label = format!("threaded, {fed:?}, {routed:?}");
        assert_nothing_was_held(run.map(drop), &sink, &witness, &label);
    }
}

#[test]
fn replayed_merge_releases_everything_settled_when_the_source_stalls() {
    let base =
        std::env::var("CONFORMANCE_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0u64) * 1000;
    for (fed, routed) in SHAPES {
        for seed in [0, 77, 777].map(|s| base + s) {
            let sink = CollectSink::shared();
            let witness = Arc::new(Witness::default());
            let run = ReplayRuntime::new(topology(fed, routed, &sink, &witness, None), seed).run();
            let label = format!("replay seed {seed}, {fed:?}, {routed:?}");
            assert_nothing_was_held(run.map(drop), &sink, &witness, &label);
        }
    }
}
