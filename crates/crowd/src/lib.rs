//! # insight-crowd — crowdsourcing for sensor-disagreement resolution
//!
//! Implements Section 5 of the EDBT 2014 paper: when the complex event
//! processing component detects a `sourceDisagreement` between buses and
//! SCATS sensors, human *participants* near the location are queried about
//! the true state of traffic, and their (imperfect) answers are aggregated.
//!
//! Two halves:
//!
//! * **Estimation** ([`model`], [`online_em`], [`batch_em`]) — the
//!   crowdsourced model of §5.1: each source-disagreement event is an
//!   unobserved categorical variable; each participant `i` has an unknown
//!   error probability `p_i`; answers follow equations (6)–(7). The *online*
//!   Expectation-Maximisation algorithm (Algorithm 1, after Cappé & Moulines)
//!   processes one event at a time with a per-participant stochastic
//!   approximation step, which is what makes the component viable on an
//!   unbounded stream. A classical batch EM is included as the reference the
//!   online variant is validated against.
//! * **Query execution** ([`engine`], [`latency`], [`policy`], `mapreduce`)
//!   — the §5.3 engine: a registry of mobile workers, GCM-style push
//!   notifications, MapReduce-style map/reduce task execution and the
//!   2G/3G/WiFi latency behaviour measured in Figure 6.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
// `!(x > 0.0)` guards are deliberate: they reject NaN along with the
// out-of-range values, which `x <= 0.0` would not.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod batch_em;
pub mod engine;
pub mod error;
pub mod latency;
mod mapreduce;
pub mod model;
pub mod online_em;
pub mod policy;
pub mod schedule;
pub mod stats;

pub use engine::{QueryExecutionEngine, Worker, WorkerId};
pub use error::CrowdError;
pub use latency::{ConnectionType, LatencyModel, StepLatency};
pub use model::{CrowdQuery, DisagreementEvent, LabelSet, SimulatedParticipant};
pub use online_em::{OnlineEm, PosteriorOutcome};
pub use policy::SelectionPolicy;
pub use schedule::GammaSchedule;
