//! Fault policies: per-process supervision of processor failures.
//!
//! The paper's inputs are inherently unreliable — SCATS sensors drop
//! readings, bus GPS arrives late or corrupted (§3), crowd workers miss
//! deadlines (§5) — so component failure is a steady-state condition, not an
//! exception. A [`FaultPolicy`] tells the runtime what to do when a
//! processor returns an error **or panics** while handling an item:
//!
//! | policy | behaviour |
//! |---|---|
//! | [`FaultPolicy::FailFast`] | abort the process on the first fault (the pre-supervision behaviour) |
//! | [`FaultPolicy::Skip`] | drop the faulted item and continue; more than `max_consecutive` consecutive faulted items escalates to failure |
//! | [`FaultPolicy::Retry`] | re-run the failing processor on a pristine copy of the item up to `attempts` times with linear backoff, then fail |
//! | [`FaultPolicy::DeadLetter`] | move the offending item plus its error context to a [`DeadLetterQueue`] for post-mortem and continue |
//! | [`FaultPolicy::Restart`] | rebuild the processor chain from its factories, restore the latest checkpoint, replay the logged items and re-run the faulted item (see [`crate::checkpoint`]) |
//!
//! Policies are set per process on the topology builder
//! ([`crate::topology::ProcessBuilder::fault_policy`]) or via the
//! `fault-policy` attribute of a `<process>` element in the XML data-flow
//! language ([`FaultPolicy::parse`] documents the attribute grammar).

use crate::error::StreamsError;
use crate::item::DataItem;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What the runtime does when a processor errors or panics on an item.
#[derive(Debug, Clone, Default)]
pub enum FaultPolicy {
    /// Abort the whole run on the first fault (the default).
    #[default]
    FailFast,
    /// Drop the faulted item and keep consuming. Output order is preserved:
    /// the output stream equals the input stream minus the faulted items.
    Skip {
        /// A run of more than this many *consecutive* faulted items
        /// escalates to a process failure — a stage that faults on every
        /// item is broken, not unlucky. `usize::MAX` never escalates.
        max_consecutive: usize,
    },
    /// Re-invoke the failing processor with a pristine copy of the item.
    Retry {
        /// Additional attempts after the initial failure; when all are
        /// exhausted the fault escalates to a process failure.
        attempts: usize,
        /// Sleep `backoff × attempt_number` before each re-attempt (linear
        /// backoff; `Duration::ZERO` retries immediately).
        backoff: Duration,
    },
    /// Preserve the offending item plus error context in a dead-letter
    /// queue and continue with the next item.
    DeadLetter {
        /// The shared queue receiving [`DeadLetterRecord`]s.
        queue: DeadLetterQueue,
    },
    /// Crash recovery: rebuild the processor chain from its factories
    /// (registered via
    /// [`processor_factory`](crate::topology::ProcessBuilder::processor_factory)),
    /// restore each checkpointable processor from its latest checkpoint,
    /// replay the input items logged since that barrier, then re-run the
    /// faulted item from the head of the rebuilt chain. Slots without a
    /// factory keep their (possibly inconsistent) instance, so restartable
    /// stages should be built entirely from factories.
    Restart {
        /// Lifetime restart budget of the process; one more fault after the
        /// budget is spent escalates to a process failure.
        max: usize,
        /// `true`: restore state from the latest checkpoint and replay the
        /// log (exact recovery — the barrier cadence bounds the log;
        /// processes that leave
        /// [`checkpoint_every`](crate::topology::ProcessBuilder::checkpoint_every)
        /// at `0` get
        /// [`DEFAULT_RESTART_CADENCE`](crate::runtime::DEFAULT_RESTART_CADENCE)).
        /// `false`: restart *fresh* — factory state only, for stages whose
        /// state is disposable.
        from_checkpoint: bool,
    },
}

impl FaultPolicy {
    /// Parses the `fault-policy` XML attribute. Grammar:
    ///
    /// * `fail-fast`
    /// * `skip` (unlimited) or `skip:N` (escalate after N consecutive)
    /// * `retry:N` or `retry:N:MS` (N attempts, MS milliseconds backoff)
    /// * `dead-letter` (records land in `dead_letters`, typically the
    ///   topology's shared queue)
    /// * `restart` (one restart, from checkpoint), `restart:N` (N restarts)
    ///   or `restart:N:fresh` (N restarts without checkpoint restore)
    pub fn parse(spec: &str, dead_letters: &DeadLetterQueue) -> Result<FaultPolicy, StreamsError> {
        let bad = |detail: String| StreamsError::XmlSemantics { detail };
        let mut parts = spec.split(':');
        let head = parts.next().unwrap_or_default();
        let args: Vec<&str> = parts.collect();
        let int = |s: &str, what: &str| {
            s.parse::<u64>().map_err(|_| {
                bad(format!("fault-policy `{spec}`: `{what}` must be a non-negative integer"))
            })
        };
        match (head, args.as_slice()) {
            ("fail-fast", []) => Ok(FaultPolicy::FailFast),
            ("skip", []) => Ok(FaultPolicy::Skip { max_consecutive: usize::MAX }),
            ("skip", [n]) => Ok(FaultPolicy::Skip { max_consecutive: int(n, "N")? as usize }),
            ("retry", [n]) => {
                Ok(FaultPolicy::Retry { attempts: int(n, "N")? as usize, backoff: Duration::ZERO })
            }
            ("retry", [n, ms]) => Ok(FaultPolicy::Retry {
                attempts: int(n, "N")? as usize,
                backoff: Duration::from_millis(int(ms, "MS")?),
            }),
            ("dead-letter", []) => Ok(FaultPolicy::DeadLetter { queue: dead_letters.clone() }),
            ("restart", []) => Ok(FaultPolicy::Restart { max: 1, from_checkpoint: true }),
            ("restart", [n]) => {
                Ok(FaultPolicy::Restart { max: int(n, "N")? as usize, from_checkpoint: true })
            }
            ("restart", [n, "fresh"]) => {
                Ok(FaultPolicy::Restart { max: int(n, "N")? as usize, from_checkpoint: false })
            }
            _ => Err(bad(format!(
                "unknown fault-policy `{spec}` (expected fail-fast, skip[:N], \
                 retry:N[:MS], dead-letter or restart[:N[:fresh]])"
            ))),
        }
    }
}

/// One item that a [`FaultPolicy::DeadLetter`] policy moved aside, with the
/// context needed for post-mortem.
#[derive(Debug, Clone, PartialEq)]
pub struct DeadLetterRecord {
    /// The process the fault happened in.
    pub process: String,
    /// Position of the failing processor in the process's chain.
    pub processor: Option<usize>,
    /// The offending item as it entered the failing processor (`None` for
    /// faults during the end-of-stream `finish` phase, which has no input
    /// item).
    pub item: Option<DataItem>,
    /// When a shard of a replicated stage dead-lettered the call, the
    /// sequence number of the input it was processing: its position in the
    /// stage's input (see [`crate::partition`]). `None` everywhere else,
    /// and in the `finish` phase.
    pub seq: Option<i64>,
    /// The fault itself ([`StreamsError::ProcessorPanicked`] for isolated
    /// panics).
    pub error: StreamsError,
}

#[derive(Debug)]
struct DeadLetterInner {
    records: std::collections::VecDeque<DeadLetterRecord>,
    capacity: usize,
    dropped: u64,
}

impl Default for DeadLetterInner {
    fn default() -> DeadLetterInner {
        DeadLetterInner {
            records: std::collections::VecDeque::new(),
            capacity: usize::MAX,
            dropped: 0,
        }
    }
}

/// A shared, *bounded* queue of [`DeadLetterRecord`]s; clones observe the
/// same buffer (like [`crate::sink::CollectSink`]).
///
/// Sustained faults must not grow memory without limit, so the queue keeps at
/// most `capacity` records: pushing into a full queue evicts the oldest
/// record and counts it in [`DeadLetterQueue::dropped`]. The default
/// ([`DeadLetterQueue::shared`]) capacity is effectively unbounded
/// (`usize::MAX`), preserving the historical behaviour; long-running
/// topologies should use [`DeadLetterQueue::bounded`].
#[derive(Debug, Clone, Default)]
pub struct DeadLetterQueue {
    inner: Arc<Mutex<DeadLetterInner>>,
}

impl DeadLetterQueue {
    /// A fresh shared queue with unbounded capacity.
    pub fn shared() -> DeadLetterQueue {
        DeadLetterQueue::default()
    }

    /// A fresh shared queue keeping at most `capacity` records (oldest
    /// evicted first; a capacity of 0 drops everything).
    pub fn bounded(capacity: usize) -> DeadLetterQueue {
        let q = DeadLetterQueue::default();
        q.inner.lock().unwrap().capacity = capacity;
        q
    }

    /// Appends one record (called by the runtime), evicting the oldest when
    /// the queue is at capacity.
    pub fn push(&self, record: DeadLetterRecord) {
        let mut inner = self.inner.lock().unwrap();
        if inner.capacity == 0 {
            inner.dropped += 1;
            return;
        }
        while inner.records.len() >= inner.capacity {
            inner.records.pop_front();
            inner.dropped += 1;
        }
        inner.records.push_back(record);
    }

    /// Snapshot of the records accumulated so far.
    pub fn records(&self) -> Vec<DeadLetterRecord> {
        self.inner.lock().unwrap().records.iter().cloned().collect()
    }

    /// Removes and returns every record.
    pub fn drain(&self) -> Vec<DeadLetterRecord> {
        self.inner.lock().unwrap().records.drain(..).collect()
    }

    /// Drains the queue and re-injects every record that still carries its
    /// item (records of `finish`-phase faults carry none and are discarded)
    /// through `inject` — e.g. back into the topology's input source after a
    /// recovery. Returns the number of items re-injected.
    pub fn drain_and_reinject<F: FnMut(DataItem)>(&self, mut inject: F) -> usize {
        let mut count = 0;
        for record in self.drain() {
            if let Some(item) = record.item {
                inject(item);
                count += 1;
            }
        }
        count
    }

    /// This queue's capacity.
    pub fn capacity(&self) -> usize {
        self.inner.lock().unwrap().capacity
    }

    /// Records evicted (or refused) because the queue was at capacity.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().unwrap().dropped
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().records.len()
    }

    /// Whether no item was dead-lettered.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().unwrap().records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_grammar() {
        let dl = DeadLetterQueue::shared();
        assert!(matches!(FaultPolicy::parse("fail-fast", &dl), Ok(FaultPolicy::FailFast)));
        assert!(matches!(
            FaultPolicy::parse("skip", &dl),
            Ok(FaultPolicy::Skip { max_consecutive: usize::MAX })
        ));
        assert!(matches!(
            FaultPolicy::parse("skip:5", &dl),
            Ok(FaultPolicy::Skip { max_consecutive: 5 })
        ));
        match FaultPolicy::parse("retry:3", &dl) {
            Ok(FaultPolicy::Retry { attempts: 3, backoff }) => assert_eq!(backoff, Duration::ZERO),
            other => panic!("unexpected {other:?}"),
        }
        match FaultPolicy::parse("retry:2:10", &dl) {
            Ok(FaultPolicy::Retry { attempts: 2, backoff }) => {
                assert_eq!(backoff, Duration::from_millis(10))
            }
            other => panic!("unexpected {other:?}"),
        }
        assert!(matches!(
            FaultPolicy::parse("dead-letter", &dl),
            Ok(FaultPolicy::DeadLetter { .. })
        ));
        assert!(matches!(
            FaultPolicy::parse("restart", &dl),
            Ok(FaultPolicy::Restart { max: 1, from_checkpoint: true })
        ));
        assert!(matches!(
            FaultPolicy::parse("restart:3", &dl),
            Ok(FaultPolicy::Restart { max: 3, from_checkpoint: true })
        ));
        assert!(matches!(
            FaultPolicy::parse("restart:2:fresh", &dl),
            Ok(FaultPolicy::Restart { max: 2, from_checkpoint: false })
        ));
        let bad = [
            "",
            "skippy",
            "skip:x",
            "retry",
            "retry:a",
            "retry:1:b",
            "dead-letter:1",
            "restart:x",
            "restart:1:bogus",
        ];
        for bad in bad {
            assert!(FaultPolicy::parse(bad, &dl).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn bounded_queue_evicts_oldest_and_counts_drops() {
        let dl = DeadLetterQueue::bounded(2);
        assert_eq!(dl.capacity(), 2);
        let record = |n: i64| DeadLetterRecord {
            process: "p".into(),
            processor: Some(0),
            item: Some(DataItem::new().with("n", n)),
            seq: None,
            error: StreamsError::ServiceError { detail: "boom".into() },
        };
        dl.push(record(1));
        dl.push(record(2));
        dl.push(record(3));
        assert_eq!(dl.len(), 2);
        assert_eq!(dl.dropped(), 1, "oldest record evicted");
        let kept: Vec<i64> =
            dl.records().iter().map(|r| r.item.as_ref().unwrap().get_i64("n").unwrap()).collect();
        assert_eq!(kept, vec![2, 3]);

        let none = DeadLetterQueue::bounded(0);
        none.push(record(9));
        assert!(none.is_empty());
        assert_eq!(none.dropped(), 1, "zero capacity refuses every record");
    }

    #[test]
    fn drain_and_reinject_replays_items_and_skips_itemless_records() {
        let dl = DeadLetterQueue::shared();
        dl.push(DeadLetterRecord {
            process: "p".into(),
            processor: Some(0),
            item: Some(DataItem::new().with("n", 1i64)),
            seq: None,
            error: StreamsError::ServiceError { detail: "boom".into() },
        });
        dl.push(DeadLetterRecord {
            process: "p".into(),
            processor: None,
            item: None,
            seq: None,
            error: StreamsError::ServiceError { detail: "finish".into() },
        });
        let mut seen = Vec::new();
        let n = dl.drain_and_reinject(|item| seen.push(item.get_i64("n").unwrap()));
        assert_eq!(n, 1);
        assert_eq!(seen, vec![1]);
        assert!(dl.is_empty());
    }

    #[test]
    fn parsed_dead_letter_shares_the_queue() {
        let dl = DeadLetterQueue::shared();
        let policy = FaultPolicy::parse("dead-letter", &dl).unwrap();
        let FaultPolicy::DeadLetter { queue } = policy else { panic!("wrong variant") };
        queue.push(DeadLetterRecord {
            process: "p".into(),
            processor: Some(0),
            item: Some(DataItem::new().with("n", 1i64)),
            seq: None,
            error: StreamsError::ServiceError { detail: "boom".into() },
        });
        assert_eq!(dl.len(), 1, "records are visible through the original handle");
    }

    #[test]
    fn queue_snapshot_and_drain() {
        let dl = DeadLetterQueue::shared();
        assert!(dl.is_empty());
        let record = DeadLetterRecord {
            process: "p".into(),
            processor: None,
            item: None,
            seq: None,
            error: StreamsError::ServiceError { detail: "x".into() },
        };
        dl.push(record.clone());
        assert_eq!(dl.records(), vec![record.clone()]);
        assert_eq!(dl.drain(), vec![record]);
        assert!(dl.is_empty());
    }
}
