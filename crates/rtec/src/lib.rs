//! # insight-rtec — a run-time Event Calculus engine
//!
//! A from-scratch Rust implementation of RTEC, the *Event Calculus for
//! Run-Time reasoning* (Artikis, Sergot, Paliouras; DEBS 2012), as used as the
//! complex event processing component of the EDBT 2014 paper *"Heterogeneous
//! Stream Processing and Crowdsourcing for Urban Traffic Management"*.
//!
//! The engine recognises *complex events* (CEs) over streams of time-stamped
//! *simple derived events* (SDEs). It provides the Event Calculus predicates
//! of the paper's Table 1:
//!
//! | Predicate | Meaning | Here |
//! |---|---|---|
//! | `happensAt(E, T)` | event `E` occurs at time `T` | input events + [`rule::EventRule`] |
//! | `holdsAt(F=V, T)` | fluent `F` has value `V` at `T` | point queries on interval lists |
//! | `holdsFor(F=V, I)` | maximal intervals where `F=V` holds | [`interval::IntervalList`] |
//! | `initiatedAt` / `terminatedAt` | effects of events on simple fluents | [`rule::SimpleFluentRule`] |
//! | `union_all`, `intersect_all`, `relative_complement_all` | interval algebra for statically-determined fluents | [`interval`] + [`rule::IntervalExpr`] |
//!
//! ## Windowing
//!
//! Recognition runs at query times `Q1, Q2, …` separated by a *step*; at each
//! query only SDEs inside the *working memory* `(Qi − WM, Qi]` that have
//! **arrived** by `Qi` are considered (Section 4.2 / Figure 2 of the paper).
//! Choosing `WM > step` lets SDEs that occurred before the previous query but
//! arrived late still be amended into the recognition result; SDEs older than
//! the window are irrevocably discarded.
//!
//! ## Quick example
//!
//! ```
//! use insight_rtec::prelude::*;
//!
//! // A fluent `on(Device)=true` initiated by `switch_on(Device)` and
//! // terminated by `switch_off(Device)`.
//! let mut b = RuleSetBuilder::new();
//! b.declare_event("switch_on", 1);
//! b.declare_event("switch_off", 1);
//! let dev = b.var("Dev");
//! let t1 = b.var("T1");
//! b.initiated(
//!     fluent("on", [pat(dev)], val(Term::truth())),
//!     t1,
//!     [happens(event_pat("switch_on", [pat(dev)]), t1)],
//! );
//! let t2 = b.var("T2");
//! b.terminated(
//!     fluent("on", [pat(dev)], val(Term::truth())),
//!     t2,
//!     [happens(event_pat("switch_off", [pat(dev)]), t2)],
//! );
//! let rs = b.build().unwrap();
//!
//! let mut engine = Engine::new(rs, WindowConfig::new(100, 100).unwrap());
//! engine.add_event(Event::new("switch_on", [Term::sym("lamp")], 10));
//! engine.add_event(Event::new("switch_off", [Term::sym("lamp")], 40));
//! let rec = engine.query(100).unwrap();
//! let ivs = rec.intervals_of("on", &[Term::sym("lamp")], &Term::truth()).unwrap();
//! assert_eq!(ivs.iter().collect::<Vec<_>>(), vec![&Interval::span(10, 40)]);
//! ```

#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod compile;
pub mod dsl;
pub mod engine;
pub mod error;
pub mod event;
pub mod interval;
pub mod pattern;
mod planner;
pub mod rule;
mod slotstate;
pub mod stratify;
pub mod term;
pub mod testing;
pub mod time;
pub mod window;

/// Convenience re-exports for typical engine users.
pub mod prelude {
    pub use crate::compile::CompiledPlan;
    pub use crate::dsl::{
        any, builtin, cmp, cnst, event_head, event_pat, fluent, fluent_pat, guard, happens, holds,
        not_holds, pat, relation, term_ne, val, RuleSetBuilder,
    };
    pub use crate::engine::{Engine, Recognition};
    pub use crate::error::RtecError;
    pub use crate::event::{Event, FluentObs, Stamped};
    pub use crate::interval::{Interval, IntervalList};
    pub use crate::rule::{GuardExpr, IntervalExpr, NumExpr};
    pub use crate::term::{Symbol, Term};
    pub use crate::time::Time;
    pub use crate::window::WindowConfig;
}
