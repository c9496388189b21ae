//! # insight-traffic — the Dublin traffic complex event definitions
//!
//! Implements Section 4.3 of the EDBT 2014 paper on top of the
//! [`insight_rtec`] Event Calculus engine: every rule-set printed in the
//! paper, machine-checked against the synthetic Dublin scenario.
//!
//! | Paper artefact | Here |
//! |---|---|
//! | `delayIncrease` CE | [`rules`] (derived event) |
//! | rule-set (2) `scatsCongestion` | [`rules`] (simple fluent) |
//! | `scatsIntCongestion` | [`rules`] (statically-determined; union of the intersection's sensors) |
//! | rule-set (3) `busCongestion` | [`rules`] (simple fluent over areas of interest) |
//! | `sourceDisagreement` | [`rules`] (statically-determined, `relative_complement_all`) |
//! | `disagree` / `agree` events | [`rules`] |
//! | rule-set (4) / (5) `noisy(Bus)` | [`rules`], selected by [`config::NoisyVariant`] |
//! | rule-set (3′) noise-filtered `busCongestion` | [`rules`], self-adaptive mode |
//! | SCATS-sensor reliability (omitted in the paper "to save space") | [`rules`], `noisyScats` |
//! | flow/density trend CEs | [`rules`] (`flowTrend`, `densityTrend`) |
//! | 4-region distributed recognition (§7.1) | [`distributed`] |
//!
//! [`recognizer::TrafficRecognizer`] wraps one engine with typed ingestion
//! of the scenario's SDE records and typed access to the recognised CEs;
//! [`distributed::DistributedRecognizer`] runs one recogniser per SCATS
//! region on its own thread, as the paper's evaluation does.

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod config;
pub mod distributed;
pub mod fixtures;
pub mod geo;
pub mod recognizer;
pub mod rules;
pub mod sde;

pub use config::{NoisyVariant, RecognitionMode, TrafficRulesConfig};
pub use distributed::DistributedRecognizer;
pub use recognizer::{TrafficRecognition, TrafficRecognizer};
