//! # insight-conformance — correctness tooling for the INSIGHT reproduction
//!
//! The paper's two hardest correctness surfaces are (a) RTEC's *incremental*
//! windowed recognition (§4.2: working-memory amendment of delayed SDEs must
//! equal recomputation from scratch) and (b) the Streams dataflow's claim
//! that recognition output is independent of thread interleaving (§3). This
//! crate provides the machinery to *test* both claims rather than assume
//! them:
//!
//! * [`oracle`] — a deliberately naive reference Event Calculus interpreter
//!   over the complete SDE history: no windows, no caches, no incremental
//!   state.
//! * [`differential`] — runs the windowed engine and the oracle over the
//!   same seeded stream and compares `holdsAt` at every time-point of every
//!   window plus the derived-event sets.
//! * [`diff`] — divergence reports: minimal fluent/interval diff plus the
//!   replayable seed, optionally written to `CONFORMANCE_REPORT_DIR`.
//!
//! The deterministic replay *scheduler* itself lives in
//! `insight_streams::replay` (it is a runtime concern); the Dublin-topology
//! schedule-invariance helper lives in `insight_core::replay`. This crate's
//! integration tests drive both.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod diff;
pub mod differential;
pub mod oracle;
mod stimulus;

pub use diff::DivergenceReport;
pub use differential::{CheckStats, Harness, Stream};
pub use oracle::{Oracle, OracleResult};
pub use stimulus::{fixture_grid, fixture_harness, fixture_stream, seed_offset, StimulusConfig};
