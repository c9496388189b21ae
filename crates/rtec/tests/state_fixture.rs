//! A `rtec-state v1` blob written by the commit before the sliding window
//! stores (PR 17: buffered `Vec<Seen<_>>` inputs, stores refilled per query)
//! restores into this engine and continues identically.
//!
//! `fixtures/parent_state_v1.blob` is that engine's `snapshot_state()` after
//! [`SPLIT`] windows of the stream below and the arrivals of the next one
//! (so it holds unseen facts too); `parent_state_v1.expected` is what the
//! same engine recognised over the remaining windows. Both files were
//! written by driving this very file's `stream`/`drive` at the parent commit.

use insight_rtec::dsl::RuleSet;
use insight_rtec::prelude::*;
use insight_rtec::rule::CmpOp;

const WM: Time = 80;
const STEP: Time = 10;
const SPLIT: i64 = 14;
const WINDOWS: i64 = 30;

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

/// What arrives during window `w` (arrival in `(w·STEP, (w+1)·STEP]`):
/// punctual facts, facts late inside the overlap, facts later than the
/// working memory, future-stamped facts, equal times and exact duplicates —
/// from a fixed linear congruential sequence.
fn stream(e: &mut Engine, w: i64) {
    let mut x = (w as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let mut next = |m: u64| {
        x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        ((x >> 33) % m) as i64
    };
    for i in 0..14 {
        let arrival = w * STEP + 1 + next(STEP as u64);
        let time = match next(10) {
            0..=5 => arrival,
            6 | 7 => arrival - next(WM as u64 - 5),
            8 => arrival - WM - next(30),
            _ => arrival + next(2 * STEP as u64),
        };
        let d = Term::sym(["a", "b", "c", "d", "e"][next(5) as usize]);
        let stamped = |item| Stamped::arriving_at(item, arrival);
        match next(4) {
            0 | 1 => {
                let ev = Event::new("enter", [d, Term::int(next(3))], time);
                if i % 5 == 0 {
                    e.add_stamped_event(stamped(ev.clone())).unwrap();
                }
                e.add_stamped_event(stamped(ev)).unwrap();
            }
            2 => e.add_stamped_event(stamped(Event::new("leave", [d], time))).unwrap(),
            _ => {
                let obs = FluentObs::new("speed", [d], Term::int(30 + next(40)), time);
                e.add_stamped_obs(Stamped::arriving_at(obs, arrival)).unwrap();
            }
        }
    }
}

/// Feeds and queries windows `from..to`, rendering every recognition;
/// with `fed`, window `from` has had its arrivals already.
fn drive(e: &mut Engine, from: i64, to: i64, fed: bool) -> String {
    let mut out = String::new();
    for w in from..to {
        if !(fed && w == from) {
            stream(e, w);
        }
        let rec = e.query((w + 1) * STEP).unwrap();
        let mut lines: Vec<String> = rec.derived_events.iter().map(|ev| ev.to_string()).collect();
        for name in ["inside"] {
            for g in rec.fluent_entries(name) {
                lines.push(format!("{name}{:?}={} {:?}", g.args, g.value, g.ivs.as_slice()));
            }
        }
        lines.sort();
        out.push_str(&format!("q={} sdes={}\n", rec.query_time, rec.sde_count));
        for l in lines {
            out.push_str(&l);
            out.push('\n');
        }
    }
    out
}

fn engine() -> Engine {
    Engine::new(ruleset(), WindowConfig::new(WM, STEP).unwrap())
}

#[test]
fn parent_blob_restores_and_continues_identically() {
    let blob = include_str!("fixtures/parent_state_v1.blob");
    let expected = include_str!("fixtures/parent_state_v1.expected");
    assert!(blob.lines().any(|l| l.starts_with("ev 0 ")), "the blob holds unseen facts");
    assert!(blob.lines().any(|l| l.starts_with("obs 0 ")), "of both sorts");
    assert!(blob.lines().any(|l| l.starts_with("obs 1 ")), "and seen observations");

    // The format did not move: this engine writes the parent's bytes.
    let mut uninterrupted = engine();
    drive(&mut uninterrupted, 0, SPLIT, false);
    stream(&mut uninterrupted, SPLIT);
    assert_eq!(uninterrupted.snapshot_state(), blob);

    let mut restored = engine();
    restored.restore_state(blob).unwrap();
    assert_eq!(restored.buffered(), uninterrupted.buffered());
    assert_eq!(drive(&mut restored, SPLIT, WINDOWS, true), expected);
    assert_eq!(drive(&mut uninterrupted, SPLIT, WINDOWS, true), expected);
}
