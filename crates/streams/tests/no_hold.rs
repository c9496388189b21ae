//! A stage never holds an item that is ready to leave — Streams-level twin
//! of `crates/core/tests/no_hold.rs`.
//!
//! A sharded stage whose chain filters seven items in eight sits behind a
//! feed — a feed process and a queue, or the gated source itself — that
//! hands over one burst and then goes quiet. The burst is shorter
//! than the flood watermark cadence, so the only thing that can tell the
//! order-restoring merge "the other shards have nothing older" is the
//! partitioner punctuating when its input has nothing for it. The feed releases its
//! second burst only once every survivor of the first is in the sink: under
//! the replay scheduler a stage that sat on one would end the run in
//! `ReplayDeadlock`, under the threaded runtime the gate gives up after a
//! (generous, failure-path-only) deadline and the test fails on the flag.
//! No assertion depends on timing.

use insight_streams::error::StreamsError;
use insight_streams::item::DataItem;
use insight_streams::partition::WM_EVERY;
use insight_streams::processor::{Context, FnProcessor, Processor};
use insight_streams::replay::ReplayRuntime;
use insight_streams::runtime::Runtime;
use insight_streams::sink::CollectSink;
use insight_streams::source::GatedSource;
use insight_streams::topology::{Input, Output, Topology};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

const REPLICAS: usize = 3;
const BURST: i64 = 40;
const TOTAL: i64 = 200;

fn items(range: std::ops::Range<i64>) -> Vec<DataItem> {
    range.map(|n| DataItem::new().with("n", n).with("key", n % 7)).collect()
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
    /// feed → `in` → stage: the partitioner goes idle on an empty queue.
    ThroughQueue,
    /// The stage pulls the source itself: the partitioner goes idle when the
    /// source's `poll_batch` answers `Pending`.
    BySource,
}

/// [feed → `in` →] sharded filter → `out` → collect. `deadline` bounds how
/// long a threaded run waits for a hold to clear before failing.
fn topology(
    fed: Fed,
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
    t.process("stage")
        .input(input)
        .replicas(REPLICAS)
        .partition_by(["key"])
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

#[test]
fn the_burst_is_shorter_than_the_flood_cadence() {
    // Otherwise a count-based watermark could release the burst and the
    // tests below would prove nothing about quiescence.
    assert!((BURST as usize) < WM_EVERY * REPLICAS);
}

#[test]
fn threaded_merge_releases_everything_settled_when_the_source_stalls() {
    for fed in [Fed::ThroughQueue, Fed::BySource] {
        let sink = CollectSink::shared();
        let witness = Arc::new(Witness::default());
        let deadline = Some(Duration::from_secs(20));
        let run = Runtime::new(topology(fed, &sink, &witness, deadline)).run();
        assert_nothing_was_held(run.map(drop), &sink, &witness, &format!("threaded, {fed:?}"));
    }
}

#[test]
fn replayed_merge_releases_everything_settled_when_the_source_stalls() {
    let base =
        std::env::var("CONFORMANCE_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0u64) * 1000;
    for fed in [Fed::ThroughQueue, Fed::BySource] {
        for seed in [0, 77, 777].map(|s| base + s) {
            let sink = CollectSink::shared();
            let witness = Arc::new(Witness::default());
            let run = ReplayRuntime::new(topology(fed, &sink, &witness, None), seed).run();
            let label = format!("replay seed {seed}, {fed:?}");
            assert_nothing_was_held(run.map(drop), &sink, &witness, &label);
        }
    }
}
