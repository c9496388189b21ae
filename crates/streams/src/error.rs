//! Error type for topology construction and execution.

use std::fmt;

/// Errors produced by the streams middleware.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamsError {
    /// A process referenced a stream/queue/sink that does not exist.
    UnknownEndpoint {
        /// The missing name.
        name: String,
        /// What referenced it.
        referenced_by: String,
    },
    /// Two declarations share a name.
    DuplicateName {
        /// The duplicated name.
        name: String,
    },
    /// A queue has more than one consuming process.
    MultipleConsumers {
        /// The contested queue.
        queue: String,
    },
    /// The processes form a cycle through queues, which neither driver can
    /// run to completion.
    Cycle {
        /// The processes on the cycle, in data-flow order.
        processes: Vec<String>,
    },
    /// A topology element is unused/disconnected in a way that would hang
    /// the runtime (e.g. a queue no process writes to).
    Disconnected {
        /// Description of the problem.
        detail: String,
    },
    /// A processor signalled a failure while handling an item.
    ProcessorFailed {
        /// The process in which it ran.
        process: String,
        /// Position of the failing processor in the process's chain, when
        /// known (dead-letter records use it to identify the exact stage).
        processor: Option<usize>,
        /// The processor's error message.
        message: String,
    },
    /// A processor panicked while handling an item; the runtime isolates the
    /// panic and converts it into this policy-governed fault.
    ProcessorPanicked {
        /// The process in which it ran.
        process: String,
        /// The panic payload rendered to a string (`&str`/`String` payloads
        /// are preserved, anything else becomes a placeholder).
        payload: String,
    },
    /// A replicated process is misconfigured (missing partition keys,
    /// processors added outside the per-replica factory, ...).
    InvalidPartition {
        /// The offending process.
        process: String,
        /// Description.
        detail: String,
    },
    /// A service lookup failed (missing name or wrong type).
    ServiceError {
        /// Description.
        detail: String,
    },
    /// I/O failure in a file source/sink.
    Io {
        /// Stringified I/O error (kept as a string so the error stays `Clone`).
        detail: String,
    },
    /// The deterministic replay scheduler found no runnable process: every
    /// unfinished process is blocked on an empty or full queue. A validated
    /// (hence acyclic) topology cannot reach this state; it guards against
    /// scheduler bugs.
    ReplayDeadlock {
        /// Names of the blocked processes.
        blocked: Vec<String>,
    },
}

impl fmt::Display for StreamsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StreamsError::UnknownEndpoint { name, referenced_by } => {
                write!(f, "`{referenced_by}` references unknown stream/queue/sink `{name}`")
            }
            StreamsError::DuplicateName { name } => write!(f, "duplicate name `{name}`"),
            StreamsError::MultipleConsumers { queue } => {
                write!(f, "queue `{queue}` has more than one consumer")
            }
            StreamsError::Cycle { processes } => {
                let back = processes.first().map_or("", String::as_str);
                write!(f, "cyclic topology: {} → {back}", processes.join(" → "))
            }
            StreamsError::Disconnected { detail } => write!(f, "disconnected topology: {detail}"),
            StreamsError::ProcessorFailed { process, processor, message } => match processor {
                Some(i) => write!(f, "processor #{i} in `{process}` failed: {message}"),
                None => write!(f, "processor in `{process}` failed: {message}"),
            },
            StreamsError::ProcessorPanicked { process, payload } => {
                write!(f, "processor in `{process}` panicked: {payload}")
            }
            StreamsError::InvalidPartition { process, detail } => {
                write!(f, "invalid partitioning on `{process}`: {detail}")
            }
            StreamsError::ServiceError { detail } => write!(f, "service error: {detail}"),
            StreamsError::Io { detail } => write!(f, "I/O error: {detail}"),
            StreamsError::ReplayDeadlock { blocked } => {
                write!(f, "replay deadlock: no runnable process (blocked: {})", blocked.join(", "))
            }
        }
    }
}

impl std::error::Error for StreamsError {}

impl From<std::io::Error> for StreamsError {
    fn from(e: std::io::Error) -> Self {
        StreamsError::Io { detail: e.to_string() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_mentions_names() {
        let e = StreamsError::UnknownEndpoint { name: "q1".into(), referenced_by: "p".into() };
        assert!(e.to_string().contains("q1"));
        let e = StreamsError::MultipleConsumers { queue: "shared".into() };
        assert!(e.to_string().contains("shared"));
    }

    #[test]
    fn processor_errors_identify_the_stage() {
        let e = StreamsError::ProcessorFailed {
            process: "rtec-north".into(),
            processor: Some(2),
            message: "bad SDE".into(),
        };
        assert_eq!(e.to_string(), "processor #2 in `rtec-north` failed: bad SDE");
        let e = StreamsError::ProcessorPanicked {
            process: "rtec-north".into(),
            payload: "index out of bounds".into(),
        };
        assert!(e.to_string().contains("panicked"));
        assert!(e.to_string().contains("index out of bounds"));
    }

    #[test]
    fn io_conversion() {
        let io = std::io::Error::new(std::io::ErrorKind::NotFound, "nope");
        let e: StreamsError = io.into();
        assert!(matches!(e, StreamsError::Io { .. }));
    }
}
