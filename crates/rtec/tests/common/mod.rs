//! The rule set and window of `fixtures/parent_state.v2`, shared by the
//! tests that restore it.

use insight_rtec::dsl::RuleSet;
use insight_rtec::prelude::*;
use insight_rtec::rule::CmpOp;

pub const WM: Time = 80;
pub const STEP: Time = 10;

/// Joins on a bound column, an input fluent read with its first argument
/// bound, a derived event read by a later stratum, and inertia.
fn ruleset() -> RuleSet {
    let mut b = RuleSetBuilder::new();
    b.declare_event("enter", 2).declare_event("leave", 1).declare_input_fluent("speed", 1);
    let (d, z, t) = (b.var("D"), b.var("Z"), b.var("T"));
    b.initiated(
        fluent("inside", [pat(d)], val(true)),
        t,
        [happens(event_pat("enter", [pat(d), pat(z)]), t)],
    );
    let (d, t) = (b.var("D2"), b.var("T2"));
    b.terminated(
        fluent("inside", [pat(d)], val(true)),
        t,
        [happens(event_pat("leave", [pat(d)]), t)],
    );
    let (d, z, t1, t2) = (b.var("D3"), b.var("Z3"), b.var("T3a"), b.var("T3b"));
    b.derived_event(
        event_head("visit", [pat(d), pat(z)]),
        t2,
        [
            happens(event_pat("enter", [pat(d), pat(z)]), t1),
            happens(event_pat("leave", [pat(d)]), t2),
            guard(cmp(NumExpr::sub(t2.into(), t1.into()), CmpOp::Gt, 0.0)),
            guard(cmp(NumExpr::sub(t2.into(), t1.into()), CmpOp::Lt, 25.0)),
        ],
    );
    let (d, z, v, t) = (b.var("D4"), b.var("Z4"), b.var("V4"), b.var("T4"));
    b.derived_event(
        event_head("rush", [pat(d)]),
        t,
        [
            happens(event_pat("enter", [pat(d), pat(z)]), t),
            holds(fluent_pat("speed", [pat(d)], pat(v)), t),
            guard(cmp(v, CmpOp::Gt, 50.0)),
        ],
    );
    let (d, z, t1, t2) = (b.var("D5"), b.var("Z5"), b.var("T5a"), b.var("T5b"));
    b.derived_event(
        event_head("rushedVisit", [pat(d)]),
        t2,
        [
            happens(event_pat("rush", [pat(d)]), t1),
            happens(event_pat("visit", [pat(d), pat(z)]), t2),
            holds(fluent_pat("inside", [pat(d)], val(true)), t1),
            guard(cmp(NumExpr::sub(t2.into(), t1.into()), CmpOp::Gt, 0.0)),
        ],
    );
    b.build().unwrap()
}

/// A fresh engine over that rule set and window.
pub fn engine() -> Engine {
    Engine::new(ruleset(), WindowConfig::new(WM, STEP).unwrap())
}
