//! # insight-datagen — a synthetic Dublin traffic scenario
//!
//! The paper evaluates on the dublinked.ie January 2013 feeds: 942 buses
//! emitting position/congestion SDEs every 20–30 s and 966 SCATS vehicle
//! detectors reporting flow/density every 6 minutes, over the OpenStreetMap
//! street network of Dublin. Those feeds are no longer obtainable in their
//! original form, so this crate generates a faithful synthetic substitute
//! (see DESIGN.md §3 for the substitution argument):
//!
//! * [`network`] — a procedural street network over the Dublin bounding box
//!   (perturbed grid + arterials + ring road), standing in for OSM;
//! * [`regions`] — the four SCATS regions (central/north/west/south) used to
//!   distribute complex event recognition;
//! * [`congestion`] — the ground-truth congestion field: rush-hour peaks,
//!   a centre-weighted spatial profile, and injected incidents; flow and
//!   density follow the fundamental diagram of traffic flow (Greenshields);
//! * [`scats`] — sensor placement and 6-minute `traffic(Int, A, S, D, F)`
//!   readings;
//! * [`buses`] — routes, fleet shifts, 20–30 s `move`/`gps` emissions with
//!   congestion-dependent delays, and configurable *faulty* buses that
//!   mis-report congestion (the veracity problem of §1);
//! * [`mediator`] — the pre-processing layer the paper blames for
//!   uncertainty: delivery delay, drop-out, batching;
//! * [`scenario`] — presets (`dublin_jan_2013`, `small`) and the generator
//!   producing a time-ordered SDE trace plus ground-truth accessors;
//! * [`stream`] — the SDE record types shared with the rest of the system.
//!
//! Everything is deterministic under the scenario seed.

#![warn(missing_docs)]
#![warn(unreachable_pub)]
// `!(x > 0.0)` guards are deliberate: they reject NaN along with the
// out-of-range values, which `x <= 0.0` would not.
#![allow(clippy::neg_cmp_op_on_partial_ord)]

pub mod adversarial;
pub mod buses;
pub mod citizens;
pub mod congestion;
pub mod error;
pub mod mediator;
pub mod network;
pub mod regions;
pub mod scats;
pub mod scenario;
pub mod stream;

pub use error::DatagenError;
pub use network::StreetNetwork;
pub use regions::Region;
pub use scenario::{Scenario, ScenarioConfig};
pub use stream::{BusRecord, ScatsRecord, Sde, SdeBody};
