//! Liveness of the threaded runtime's worker pool.
//!
//! The threaded runtime runs every source-fed process on a thread of its
//! own and steps everything fed by a queue on `available_parallelism` pool
//! threads, which park on one doorbell when nothing can move. Two ways that
//! can go wrong, each watched by a deadline so that it fails the test
//! instead of hanging it:
//!
//! * a source that blocks inside `next_batch` holds a pool thread — with
//!   more blocked sources than pool threads, nothing downstream runs;
//! * a wake-up is lost — a pool thread parks while a worker could move, and
//!   with every other pool thread parked too the run never ends. Tiny
//!   queues make every worker block and wake all the time, so a lost
//!   wake-up shows within a few hundred runs.
//!
//! ```sh
//! cargo test --release -p insight-streams --test pool_liveness
//! ```

use insight_streams::error::StreamsError;
use insight_streams::item::DataItem;
use insight_streams::processor::{Context, FnProcessor, Processor};
use insight_streams::runtime::Runtime;
use insight_streams::sink::CollectSink;
use insight_streams::source::{Source, VecSource};
use insight_streams::topology::{Input, Output, Topology};
use rand::{Rng, SeedableRng, StdRng};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Far above what a run takes even in a debug build on a loaded host.
const DEADLINE: Duration = Duration::from_secs(120);

/// Runs `work` on a thread of its own and fails if it takes longer than
/// [`DEADLINE`].
fn within_deadline<T: Send + 'static>(what: &str, work: impl FnOnce() -> T + Send + 'static) -> T {
    let (done, finished) = mpsc::channel();
    std::thread::spawn(move || done.send(work()).expect("the watchdog is waiting"));
    finished
        .recv_timeout(DEADLINE)
        .unwrap_or_else(|_| panic!("{what}: no result after {DEADLINE:?} — the pool hangs"))
}

/// A feed that hands over its first half, then sleeps inside `next_batch`
/// until the sink holds `release_at` items (or the deadline passes, which
/// fails the test), then hands over the rest.
struct SleepyFeed {
    items: std::vec::IntoIter<DataItem>,
    pause_after: usize,
    handed: usize,
    sink: CollectSink,
    release_at: usize,
    deadline: Instant,
}

impl Source for SleepyFeed {
    fn next_item(&mut self) -> Result<Option<DataItem>, StreamsError> {
        if self.handed == self.pause_after {
            while self.sink.len() < self.release_at {
                if Instant::now() > self.deadline {
                    return Err(StreamsError::ServiceError {
                        detail: "the partitioned stage never delivered the first half".into(),
                    });
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        self.handed += 1;
        Ok(self.items.next())
    }
}

fn relay() -> Box<dyn Processor> {
    Box::new(FnProcessor::new(|item: DataItem, _: &mut Context| Ok(Some(item))))
}

#[test]
fn sleeping_sources_do_not_hold_the_pool() {
    const FEEDS: i64 = 5;
    const PER_FEED: i64 = 40;
    let received = within_deadline("five sleeping sources", || {
        let sink = CollectSink::shared();
        let mut t = Topology::new();
        t.add_queue("sde", 4);
        let deadline = Instant::now() + DEADLINE / 2;
        for f in 0..FEEDS {
            let items: Vec<DataItem> =
                (0..PER_FEED).map(|n| DataItem::new().with("feed", f).with("n", n)).collect();
            t.add_source(
                &format!("src{f}"),
                SleepyFeed {
                    items: items.into_iter(),
                    pause_after: PER_FEED as usize / 2,
                    handed: 0,
                    sink: sink.clone(),
                    release_at: (FEEDS * PER_FEED / 2) as usize,
                    deadline,
                },
            );
            t.process(&format!("feed{f}"))
                .input(Input::Stream(format!("src{f}")))
                .output(Output::Queue("sde".into()))
                .done();
        }
        t.add_queue("out", 4);
        t.process("stage")
            .input(Input::Queue("sde".into()))
            .replicas(4)
            .partition_by(["feed"])
            .processor_factory(relay)
            .output(Output::Queue("out".into()))
            .done();
        t.process("collect")
            .input(Input::Queue("out".into()))
            .output(Output::Sink(Box::new(sink.clone())))
            .done();
        Runtime::new(t).run().expect("the stage delivered while every source slept");
        sink.items()
    });
    assert_eq!(received.len(), (FEEDS * PER_FEED) as usize);
    for f in 0..FEEDS {
        let order: Vec<i64> = received
            .iter()
            .filter(|i| i.get_i64("feed") == Some(f))
            .map(|i| i.get_i64("n").unwrap())
            .collect();
        assert_eq!(order, (0..PER_FEED).collect::<Vec<_>>(), "feed {f} keeps its order");
    }
}

/// Per producer, what one run of the fan-in → partition → merge shape
/// delivered, in arrival order.
fn fan_in_partition_merge(seed: u64) -> (Vec<Vec<i64>>, Vec<i64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let producers = rng.random_range(1..=5usize);
    let counts: Vec<i64> = (0..producers).map(|_| rng.random_range(0..120i64)).collect();
    let [a, b, c]: [usize; 3] = std::array::from_fn(|_| rng.random_range(1..=2usize));
    let mut t = Topology::new();
    t.add_queue("in", a);
    t.add_queue("mid", b);
    t.add_queue("out", c);
    for (p, &count) in counts.iter().enumerate() {
        let items = (0..count).map(move |n| DataItem::new().with("p", p as i64).with("n", n));
        t.add_source(&format!("src{p}"), VecSource::new(items));
        t.process(&format!("feed{p}"))
            .input(Input::Stream(format!("src{p}")))
            .batch_size(rng.random_range(1..=4usize))
            .output(Output::Queue("in".into()))
            .done();
    }
    t.process("relay")
        .input(Input::Queue("in".into()))
        .batch_size(rng.random_range(1..=4usize))
        .output(Output::Queue("mid".into()))
        .done();
    // Drops every seventh item, so the merge waits on watermarks too.
    t.process("stage")
        .input(Input::Queue("mid".into()))
        .replicas(rng.random_range(2..=4usize))
        .partition_by(["n"])
        .batch_size(rng.random_range(1..=4usize))
        .processor_factory(|| {
            Box::new(FnProcessor::new(|item: DataItem, _: &mut Context| {
                Ok((item.get_i64("n").unwrap() % 7 != 6).then_some(item))
            }))
        })
        .output(Output::Queue("out".into()))
        .done();
    let sink = CollectSink::shared();
    t.process("collect")
        .input(Input::Queue("out".into()))
        .batch_size(rng.random_range(1..=4usize))
        .output(Output::Sink(Box::new(sink.clone())))
        .done();
    Runtime::new(t).run().expect("the run completes");
    let mut received = vec![Vec::new(); producers];
    for item in sink.items() {
        received[item.get_i64("p").unwrap() as usize].push(item.get_i64("n").unwrap());
    }
    (received, counts)
}

#[test]
fn tiny_queues_never_lose_a_pool_wake_up() {
    let base: u64 =
        std::env::var("CONFORMANCE_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0);
    for seed in base * 1000..base * 1000 + 300 {
        let (received, counts) =
            within_deadline(&format!("seed {seed}"), move || fan_in_partition_merge(seed));
        for (p, (got, count)) in received.iter().zip(counts).enumerate() {
            let expected: Vec<i64> = (0..count).filter(|n| n % 7 != 6).collect();
            assert_eq!(
                got, &expected,
                "seed {seed}, producer {p}: items lost, duplicated or reordered"
            );
        }
    }
}
