//! Fault supervision of `Processor::finish`.
//!
//! A flush that fails goes through the same fault policy as a `process` call
//! that fails: FailFast aborts, Skip drops the flush's output (escalating
//! past `max_consecutive`), Retry re-invokes `finish`, DeadLetter records the
//! slot with no item, Restart rebuilds the chain — restored and replayed, or
//! fresh — and calls `finish` again. Every case runs under the threaded
//! runtime and under the replay scheduler, and both must agree with each
//! other and with the pinned outcome: sink contents, run statistics, the
//! error and the stage's supervision counters.
//!
//! The replay seeds shift with `CONFORMANCE_SEED`, like the conformance
//! suites.

use insight_streams::checkpoint::{Checkpointable, StateBlob};
use insight_streams::error::StreamsError;
use insight_streams::fault::{DeadLetterQueue, FaultPolicy};
use insight_streams::item::DataItem;
use insight_streams::metrics::MetricsRegistry;
use insight_streams::processor::{Context, FnProcessor, Processor};
use insight_streams::replay::ReplayRuntime;
use insight_streams::runtime::{RunStats, Runtime};
use insight_streams::sink::CollectSink;
use insight_streams::source::VecSource;
use insight_streams::topology::{Input, Output, Topology};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn seeds() -> [u64; 3] {
    let base =
        std::env::var("CONFORMANCE_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0u64) * 1000;
    [0, 77, 777].map(|s| base + s)
}

/// Slot 0: sums `n` and, on `finish`, emits the total — unless one of the
/// first `fail_first` `finish` calls (counted across every instance a
/// restart builds) is due, which errors or panics instead.
struct Summing {
    total: i64,
    fail_first: usize,
    panics: bool,
    finish_calls: Arc<AtomicUsize>,
}

impl Processor for Summing {
    fn process(
        &mut self,
        item: DataItem,
        _: &mut Context,
    ) -> Result<Option<DataItem>, StreamsError> {
        self.total += item.get_i64("n").unwrap_or(0);
        Ok(Some(item))
    }

    fn finish(&mut self, ctx: &mut Context) -> Result<Vec<DataItem>, StreamsError> {
        let call = self.finish_calls.fetch_add(1, Ordering::SeqCst) + 1;
        if call <= self.fail_first {
            if self.panics {
                panic!("finish panic on call {call}");
            }
            return Err(StreamsError::ServiceError { detail: format!("finish fault {call}") });
        }
        ctx.emit(DataItem::new().with("total", self.total));
        Ok(Vec::new())
    }

    fn as_checkpointable(&mut self) -> Option<&mut dyn Checkpointable> {
        Some(self)
    }
}

impl Checkpointable for Summing {
    fn snapshot(&mut self) -> StateBlob {
        let mut blob = StateBlob::new();
        blob.set("total", self.total);
        blob
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), StreamsError> {
        self.total = blob.require_i64("total")?;
        Ok(())
    }
}

/// `(n, total, tagged)` of one sink item.
type SinkRow = (Option<i64>, Option<i64>, Option<bool>);

/// `(process, (consumed, emitted))` sorted, or the error's variant, process
/// and slot.
type RunResult = Result<Vec<(String, (u64, u64))>, String>;

/// What one run left behind, in a form both drivers can be compared on.
#[derive(Debug, PartialEq)]
struct Outcome {
    /// The sink's items, in sink order.
    sink: Vec<SinkRow>,
    result: RunResult,
    /// The stage's `[faults, panics, retries, dead_letters, restores]`.
    counters: [u64; 5],
    /// `(process, slot, item present)` per dead-letter record.
    dead: Vec<(String, Option<usize>, bool)>,
}

fn describe(result: Result<RunStats, StreamsError>) -> RunResult {
    match result {
        Ok(stats) => {
            let mut per: Vec<_> = stats.per_process.into_iter().collect();
            per.sort();
            Ok(per)
        }
        Err(StreamsError::ProcessorFailed { process, processor, .. }) => {
            Err(format!("failed {process} {processor:?}"))
        }
        Err(StreamsError::ProcessorPanicked { process, payload }) => {
            Err(format!("panicked {process}: {payload}"))
        }
        Err(other) => Err(format!("other: {other}")),
    }
}

/// source (n = 1..=5) → stage [Summing, tag] → queue (2) → collect.
fn run(policy: &FaultPolicy, fail_first: usize, panics: bool, replay: Option<u64>) -> Outcome {
    let dead_letters = DeadLetterQueue::shared();
    let policy = match policy {
        FaultPolicy::DeadLetter { .. } => FaultPolicy::DeadLetter { queue: dead_letters.clone() },
        other => other.clone(),
    };
    let finish_calls = Arc::new(AtomicUsize::new(0));
    let sink = CollectSink::shared();
    let mut t = Topology::new();
    t.add_source("in", VecSource::new((1..=5).map(|n| DataItem::new().with("n", n))));
    t.add_queue("out", 2);
    t.process("stage")
        .input(Input::Stream("in".into()))
        .processor_factory(move || {
            Box::new(Summing {
                total: 0,
                fail_first,
                panics,
                finish_calls: Arc::clone(&finish_calls),
            })
        })
        .processor_factory(|| {
            Box::new(FnProcessor::new(|mut item: DataItem, _: &mut Context| {
                item.set("tagged", true);
                Ok(Some(item))
            }))
        })
        .checkpoint_every(if matches!(policy, FaultPolicy::Restart { .. }) { 2 } else { 0 })
        .fault_policy(policy)
        .output(Output::Queue("out".into()))
        .done();
    t.process("collect")
        .input(Input::Queue("out".into()))
        .output(Output::Sink(Box::new(sink.clone())))
        .done();
    let metrics = Arc::new(MetricsRegistry::new());
    let result = match replay {
        Some(seed) => ReplayRuntime::new(t, seed).with_metrics(Arc::clone(&metrics)).run(),
        None => Runtime::new(t).with_metrics(Arc::clone(&metrics)).run(),
    };
    let stage = metrics.snapshot().stages["stage"].clone();
    Outcome {
        sink: sink
            .items()
            .iter()
            .map(|i| (i.get_i64("n"), i.get_i64("total"), i.get_bool("tagged")))
            .collect(),
        result: describe(result),
        counters: [stage.faults, stage.panics, stage.retries, stage.dead_letters, stage.restores],
        dead: dead_letters
            .drain()
            .into_iter()
            .map(|r| (r.process, r.processor, r.item.is_some()))
            .collect(),
    }
}

/// Runs one case under every driver and checks each against `expected`.
fn check(policy: FaultPolicy, fail_first: usize, panics: bool, expected: &Outcome) {
    let label = format!("{policy:?}, {fail_first} failing finish call(s), panics: {panics}");
    assert_eq!(&run(&policy, fail_first, panics, None), expected, "threaded: {label}");
    for seed in seeds() {
        assert_eq!(&run(&policy, fail_first, panics, Some(seed)), expected, "seed {seed}: {label}");
    }
}

fn data() -> Vec<SinkRow> {
    (1..=5).map(|n| (Some(n), None, Some(true))).collect()
}

fn with_total(total: i64) -> Vec<SinkRow> {
    let mut sink = data();
    sink.push((None, Some(total), Some(true)));
    sink
}

fn stats(stage_out: u64) -> RunResult {
    Ok(vec![("collect".into(), (stage_out, stage_out)), ("stage".into(), (5, stage_out))])
}

/// The error a failing flush of slot 0 ends the run with.
fn failed(panics: bool) -> RunResult {
    Err(if panics {
        "panicked stage: finish panic on call 1".to_string()
    } else {
        "failed stage Some(0)".to_string()
    })
}

/// `[faults, panics, retries, dead_letters, restores]` for `faults` faulted
/// finish calls.
fn counters(faults: u64, panics: bool, retries: u64, dead_letters: u64, restores: u64) -> [u64; 5] {
    [faults, if panics { faults } else { 0 }, retries, dead_letters, restores]
}

#[test]
fn fail_fast_and_exhausted_skip_end_the_run_after_the_data() {
    for panics in [false, true] {
        for policy in [FaultPolicy::FailFast, FaultPolicy::Skip { max_consecutive: 0 }] {
            let expected = Outcome {
                sink: data(),
                result: failed(panics),
                counters: counters(1, panics, 0, 0, 0),
                dead: Vec::new(),
            };
            check(policy, 1, panics, &expected);
        }
    }
}

#[test]
fn skip_drops_the_flush_output() {
    for panics in [false, true] {
        let expected = Outcome {
            sink: data(),
            result: stats(5),
            counters: counters(1, panics, 0, 0, 0),
            dead: Vec::new(),
        };
        check(FaultPolicy::Skip { max_consecutive: 1 }, 1, panics, &expected);
    }
}

#[test]
fn retry_reinvokes_finish_until_it_succeeds() {
    for panics in [false, true] {
        let expected = Outcome {
            sink: with_total(15),
            result: stats(6),
            counters: counters(2, panics, 2, 0, 0),
            dead: Vec::new(),
        };
        check(FaultPolicy::Retry { attempts: 2, backoff: Duration::ZERO }, 2, panics, &expected);
    }
}

#[test]
fn retry_escalates_once_the_attempts_are_spent() {
    for panics in [false, true] {
        let expected = Outcome {
            sink: data(),
            result: if panics {
                Err("panicked stage: finish panic on call 2".to_string())
            } else {
                failed(false)
            },
            counters: counters(2, panics, 1, 0, 0),
            dead: Vec::new(),
        };
        check(FaultPolicy::Retry { attempts: 1, backoff: Duration::ZERO }, 2, panics, &expected);
    }
}

#[test]
fn dead_letter_records_the_slot_without_an_item() {
    for panics in [false, true] {
        let expected = Outcome {
            sink: data(),
            result: stats(5),
            counters: counters(1, panics, 0, 1, 0),
            dead: vec![("stage".to_string(), Some(0), false)],
        };
        let policy = FaultPolicy::DeadLetter { queue: DeadLetterQueue::shared() };
        check(policy, 1, panics, &expected);
    }
}

#[test]
fn restart_rebuilds_the_chain_and_calls_finish_again() {
    for panics in [false, true] {
        // The barrier at item 4 plus the replayed fifth item bring the
        // rebuilt sum back to 15 before `finish` re-runs.
        let expected = Outcome {
            sink: with_total(15),
            result: stats(6),
            counters: counters(1, panics, 0, 0, 1),
            dead: Vec::new(),
        };
        check(FaultPolicy::Restart { max: 1 }, 1, panics, &expected);
    }
}

#[test]
fn restart_escalates_once_the_budget_is_spent() {
    for panics in [false, true] {
        let expected = Outcome {
            sink: data(),
            result: if panics {
                Err("panicked stage: finish panic on call 2".to_string())
            } else {
                failed(false)
            },
            counters: counters(2, panics, 0, 0, 1),
            dead: Vec::new(),
        };
        check(FaultPolicy::Restart { max: 1 }, 2, panics, &expected);
    }
}
