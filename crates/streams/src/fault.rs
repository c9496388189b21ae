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
//! | [`FaultPolicy::DeadLetter`] | move the offending item plus its error context to a [`DeadLetterQueue`] for post-mortem and continue |
//! | [`FaultPolicy::Restart`] | rebuild the processor chain from its factories, restore the latest checkpoint, replay the logged items and re-run the faulted item (see [`crate::checkpoint`]) |
//!
//! Policies are set per process on the topology builder
//! ([`crate::topology::ProcessBuilder::fault_policy`]).

use crate::error::StreamsError;
use crate::item::DataItem;
use std::sync::{Arc, Mutex};

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
    /// faulted item from the head of the rebuilt chain. Every slot needs a
    /// factory. The barrier cadence bounds the replay log; processes that
    /// leave
    /// [`checkpoint_every`](crate::topology::ProcessBuilder::checkpoint_every)
    /// at `0` get
    /// [`DEFAULT_RESTART_CADENCE`](crate::runtime::DEFAULT_RESTART_CADENCE).
    Restart {
        /// Lifetime restart budget of the process; one more fault after the
        /// budget is spent escalates to a process failure.
        max: usize,
    },
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

/// A shared queue of [`DeadLetterRecord`]s; clones observe the same buffer
/// (like [`crate::sink::CollectSink`]).
#[derive(Debug, Clone, Default)]
pub struct DeadLetterQueue {
    records: Arc<Mutex<Vec<DeadLetterRecord>>>,
}

impl DeadLetterQueue {
    /// A fresh shared queue.
    pub fn shared() -> DeadLetterQueue {
        DeadLetterQueue::default()
    }

    /// Appends one record (called by the runtime).
    pub(crate) fn push(&self, record: DeadLetterRecord) {
        self.records.lock().unwrap().push(record);
    }

    /// Snapshot of the records accumulated so far.
    pub fn records(&self) -> Vec<DeadLetterRecord> {
        self.records.lock().unwrap().clone()
    }

    /// Removes and returns every record.
    pub fn drain(&self) -> Vec<DeadLetterRecord> {
        std::mem::take(&mut *self.records.lock().unwrap())
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.lock().unwrap().len()
    }

    /// Whether no item was dead-lettered.
    pub fn is_empty(&self) -> bool {
        self.records.lock().unwrap().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
