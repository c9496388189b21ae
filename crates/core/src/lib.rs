//! # insight-core — the integrated urban traffic management system
//!
//! Wires the component crates into the architecture of Figure 1 of the
//! EDBT 2014 paper:
//!
//! ```text
//!  buses ─┐                      ┌─> operator alerts
//!         ├─ mediators ─ Streams ┼─> RTEC (4 region engines) ─┐
//!  SCATS ─┘                      └─> traffic model (GP)       │
//!              ▲                                              │
//!              │         crowd answers      sourceDisagreement CEs
//!              └──── crowdsourcing component <────────────────┘
//! ```
//!
//! * [`items`] — conversions between scenario SDE records and Streams
//!   [`insight_streams::item::DataItem`]s;
//! * [`alerts`] — the operator-facing alert types (the paper's interactive
//!   map is replaced by a typed alert feed);
//! * [`crowdbridge`] — the crowdsourcing component assembled from
//!   [`insight_crowd`]: query execution engine + online EM, with simulated
//!   participants answering from the scenario's ground truth;
//! * `modelsvc` — the traffic-modelling component as a Streams *service*:
//!   GP regression over the street graph from the latest SCATS readings;
//! * [`pipeline`] — the Streams topology of §3 (input handling, event
//!   processing, crowdsourcing processes);
//! * [`replay`] — schedule-invariance checking: the §3 topology under the
//!   deterministic replay scheduler, asserting byte-identical canonical
//!   recognitions across scheduler seeds;
//! * [`system`] — [`system::InsightSystem`]: the closed recognition loop
//!   driving windows, crowdsourcing and feedback, used by the experiments.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod alerts;
pub mod crowdbridge;
pub mod items;
mod modelsvc;
pub mod pipeline;
pub mod proactive;
pub mod replay;
pub mod system;
pub mod testing;

pub use alerts::OperatorAlert;
pub use crowdbridge::CrowdBridge;
pub use modelsvc::TrafficModelService;
pub use system::{InsightSystem, SystemConfig, SystemReport};
