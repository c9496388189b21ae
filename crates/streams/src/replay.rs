//! Deterministic replay: a single-threaded, seeded scheduler for topologies.
//!
//! The threaded [`crate::runtime::Runtime`] runs a thread per source-fed
//! process and a pool of threads for the rest, so the interleaving of queue
//! operations is up to the kernel scheduler and differs run to run. That
//! makes "the recognition output is independent of the interleaving" an
//! untestable claim: a race observed once may never reproduce. [`ReplayRuntime`] closes that gap by stepping the *same*
//! workers — the same `Worker::step`, so the same pump, supervision,
//! checkpointing and metrics — on a single thread, where a seeded RNG picks
//! which process steps next. One seed ⇒ one exact, reproducible
//! interleaving; N seeds ⇒ N distinct interleavings. A test can therefore
//! assert that an output is invariant across schedules, and any divergence
//! comes with the seed that replays it. What it proves is what the threaded
//! runtime runs: the two drivers differ only in that a replay step may not
//! wait.
//!
//! A step that would have to wait returns `Progress::Blocked` instead: an
//! output queue it owes items to is full, or its input is empty (but open)
//! *and going idle produced nothing* — the quiescent moment of
//! `Worker::on_idle`, the same transition a threaded worker makes before it
//! parks. On a validated (so acyclic) topology some process can always
//! run; if ever none can, the scheduler reports
//! [`StreamsError::ReplayDeadlock`] instead of hanging — which is also how a stage that holds finished output
//! back while its source has "nothing yet" ([`Polled::Pending`]) shows up.
//!
//! [`Polled::Pending`]: crate::source::Polled::Pending

use crate::error::StreamsError;
use crate::metrics::MetricsRegistry;
use crate::runtime::{materialize, Progress, RunStats, Worker};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Executes a [`crate::topology::Topology`] single-threaded under a seeded
/// scheduler. Drop-in alternative to [`crate::runtime::Runtime`]: same
/// validation, same workers, same [`RunStats`].
pub struct ReplayRuntime {
    topology: crate::topology::Topology,
    seed: u64,
    metrics: Arc<MetricsRegistry>,
}

impl ReplayRuntime {
    /// Wraps a topology; `seed` fully determines the schedule.
    pub fn new(topology: crate::topology::Topology, seed: u64) -> ReplayRuntime {
        ReplayRuntime { topology, seed, metrics: Arc::new(MetricsRegistry::new()) }
    }

    /// Uses an externally owned metrics registry.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> ReplayRuntime {
        self.metrics = metrics;
        self
    }

    /// The registry this runtime records into.
    pub fn metrics(&self) -> Arc<MetricsRegistry> {
        Arc::clone(&self.metrics)
    }

    /// Runs the topology to completion under the seeded schedule.
    pub fn run(self) -> Result<RunStats, StreamsError> {
        let mut workers = materialize(self.topology, &self.metrics, &Arc::default())?;
        let mut rng = StdRng::seed_from_u64(self.seed);
        loop {
            // The scheduler's only nondeterminism source: draw uniformly
            // among unfinished processes until one makes progress. Blocked
            // picks are removed and redrawn, so a round either progresses or
            // proves that every unfinished process is stuck.
            let mut candidates: Vec<usize> =
                (0..workers.len()).filter(|&i| !workers[i].is_done()).collect();
            if candidates.is_empty() {
                break;
            }
            let mut progressed = false;
            while !candidates.is_empty() {
                let pick = rng.random_range(0..candidates.len());
                let idx = candidates.swap_remove(pick);
                if workers[idx].step(false) == Progress::Progressed {
                    progressed = true;
                    break;
                }
            }
            if !progressed {
                let blocked =
                    workers.iter().filter(|w| !w.is_done()).map(|w| w.name.clone()).collect();
                return Err(StreamsError::ReplayDeadlock { blocked });
            }
        }
        RunStats::collect(workers.into_iter().map(Worker::outcome))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::{DeadLetterQueue, FaultPolicy};
    use crate::item::DataItem;
    use crate::processor::{Context, FnProcessor};
    use crate::sink::{CollectSink, CountSink};
    use crate::source::VecSource;
    use crate::topology::{Input, Output, Topology};

    fn numbers(n: i64) -> VecSource {
        VecSource::new((0..n).map(|i| DataItem::new().with("n", i)))
    }

    /// source → double → q → collect, with a deliberately tiny queue so the
    /// scheduler exercises the blocked/flush paths.
    fn linear_topology(sink: &CollectSink) -> Topology {
        let mut t = Topology::new();
        t.add_source("nums", numbers(50));
        t.add_queue("q", 2);
        t.process("double")
            .input(Input::Stream("nums".into()))
            .processor(FnProcessor::new(|mut item: DataItem, _: &mut Context| {
                let n = item.get_i64("n").unwrap();
                item.set("n", n * 2);
                Ok(Some(item))
            }))
            .output(Output::Queue("q".into()))
            .done();
        t.process("collect")
            .input(Input::Queue("q".into()))
            .output(Output::Sink(Box::new(sink.clone())))
            .done();
        t
    }

    #[test]
    fn replay_matches_threaded_semantics() {
        let sink = CollectSink::shared();
        let stats = ReplayRuntime::new(linear_topology(&sink), 1).run().unwrap();
        let values: Vec<i64> = sink.items().iter().map(|i| i.get_i64("n").unwrap()).collect();
        assert_eq!(values, (0..50).map(|n| n * 2).collect::<Vec<_>>());
        assert_eq!(stats.per_process["double"], (50, 50));
        assert_eq!(stats.per_process["collect"], (50, 50));
    }

    #[test]
    fn same_seed_same_schedule_different_seed_may_differ() {
        // Fan-in from two sources: the arrival order at the shared queue is
        // pure scheduling. Same seed ⇒ byte-identical order; across many
        // seeds at least two orders must differ, proving the scheduler
        // actually explores interleavings.
        let run = |seed: u64| {
            let mut t = Topology::new();
            t.add_source("a", VecSource::new((0..10).map(|i| DataItem::new().with("a", i))));
            t.add_source("b", VecSource::new((0..10).map(|i| DataItem::new().with("b", i))));
            t.add_queue("merged", 4);
            t.process("pa")
                .input(Input::Stream("a".into()))
                .output(Output::Queue("merged".into()))
                .done();
            t.process("pb")
                .input(Input::Stream("b".into()))
                .output(Output::Queue("merged".into()))
                .done();
            let sink = CollectSink::shared();
            t.process("merge")
                .input(Input::Queue("merged".into()))
                .output(Output::Sink(Box::new(sink.clone())))
                .done();
            ReplayRuntime::new(t, seed).run().unwrap();
            sink.items()
        };
        assert_eq!(run(7), run(7), "a seed pins the interleaving exactly");
        let baseline = run(0);
        assert!(
            (1..16).any(|seed| run(seed) != baseline),
            "16 seeds must yield at least two distinct interleavings"
        );
    }

    #[test]
    fn fan_out_and_finish_items_behave_as_threaded() {
        struct Tail;
        impl crate::processor::Processor for Tail {
            fn process(
                &mut self,
                item: DataItem,
                _ctx: &mut Context,
            ) -> Result<Option<DataItem>, StreamsError> {
                Ok(Some(item))
            }
            fn finish(&mut self, _ctx: &mut Context) -> Result<Vec<DataItem>, StreamsError> {
                Ok(vec![DataItem::new().with("summary", true)])
            }
        }
        let mut t = Topology::new();
        t.add_source("nums", numbers(5));
        t.add_queue("q1", 2);
        t.add_queue("q2", 2);
        t.process("p")
            .input(Input::Stream("nums".into()))
            .processor(Tail)
            .output(Output::Queue("q1".into()))
            .output(Output::Queue("q2".into()))
            .done();
        let s1 = CollectSink::shared();
        let s2 = CountSink::shared();
        t.process("c1")
            .input(Input::Queue("q1".into()))
            .output(Output::Sink(Box::new(s1.clone())))
            .done();
        t.process("c2")
            .input(Input::Queue("q2".into()))
            .output(Output::Sink(Box::new(s2.clone())))
            .done();
        ReplayRuntime::new(t, 3).run().unwrap();
        assert_eq!(s1.len(), 6, "5 items + 1 finish summary broadcast");
        assert_eq!(s2.count(), 6);
        assert!(s1.items().iter().any(|i| i.contains("summary")));
    }

    #[test]
    fn processor_error_fails_run_and_still_terminates_downstream() {
        let mut t = Topology::new();
        t.add_source("nums", numbers(10));
        t.add_queue("q", 4);
        t.process("boom")
            .input(Input::Stream("nums".into()))
            .processor(FnProcessor::new(|item: DataItem, _: &mut Context| {
                if item.get_i64("n") == Some(3) {
                    Err(StreamsError::ServiceError { detail: "kaput".into() })
                } else {
                    Ok(Some(item))
                }
            }))
            .output(Output::Queue("q".into()))
            .done();
        let sink = CountSink::shared();
        t.process("down")
            .input(Input::Queue("q".into()))
            .output(Output::Sink(Box::new(sink.clone())))
            .done();
        let err = ReplayRuntime::new(t, 0).run().unwrap_err();
        assert!(matches!(err, StreamsError::ProcessorFailed { .. }));
        assert_eq!(sink.count(), 3, "items before the fault were delivered");
    }

    #[test]
    fn dead_letter_drain_order_is_deterministic_under_replay() {
        // Two processes dead-letter every odd item into the same shared
        // queue. The threaded runtime interleaves their pushes arbitrarily;
        // under replay the drain order is a pure function of the seed, which
        // is what lets a regression test pin it at all.
        let run = |seed: u64| {
            let dl = DeadLetterQueue::shared();
            let mut t = Topology::new();
            let sink = CountSink::shared();
            for name in ["pa", "pb"] {
                t.add_source(&format!("src-{name}"), numbers(8));
                t.process(name)
                    .input(Input::Stream(format!("src-{name}")))
                    .fault_policy(FaultPolicy::DeadLetter { queue: dl.clone() })
                    .processor(FnProcessor::new(|item: DataItem, _: &mut Context| {
                        if item.get_i64("n").unwrap() % 2 == 1 {
                            Err(StreamsError::ServiceError { detail: "odd".into() })
                        } else {
                            Ok(Some(item))
                        }
                    }))
                    .output(Output::Sink(Box::new(sink.clone())))
                    .done();
            }
            ReplayRuntime::new(t, seed).run().unwrap();
            dl.drain()
                .into_iter()
                .map(|r| (r.process, r.item.unwrap().get_i64("n").unwrap()))
                .collect::<Vec<_>>()
        };
        let a = run(11);
        assert_eq!(a, run(11), "same seed, same drain order");
        assert_eq!(a.len(), 8, "both processes dead-letter their four odd items");
        for name in ["pa", "pb"] {
            let per: Vec<i64> = a.iter().filter(|(p, _)| p == name).map(|&(_, n)| n).collect();
            assert_eq!(per, vec![1, 3, 5, 7], "per-process order is FIFO regardless of seed");
        }
    }

    #[test]
    fn replay_records_metrics_like_threaded() {
        let sink = CollectSink::shared();
        let rt = ReplayRuntime::new(linear_topology(&sink), 5);
        let metrics = rt.metrics();
        rt.run().unwrap();
        let snap = metrics.snapshot();
        assert_eq!(snap.stages["double"].items_in, 50);
        assert_eq!(snap.stages["double"].items_out, 50);
        assert_eq!(snap.queues["q"].sent, 50);
        assert_eq!(snap.queues["q"].received, 50);
        assert_eq!(snap.queues["q"].depth, 0);
    }
}
