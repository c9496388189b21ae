//! The state of an engine from before the sliding window stores (buffered
//! `Vec<Seen<_>>` inputs, stores refilled per query) restores into this
//! engine and continues identically.
//!
//! That engine wrote its snapshot after [`SPLIT`] windows of the stream below
//! and the arrivals of the next one (so it holds unseen facts too) as
//! `rtec-state v1` text; `fixtures/parent_state.v2` is the `rtec-state v2`
//! snapshot an engine wrote once it had restored that text, while it still
//! read v1. `parent_state.expected` is what an engine driven without
//! interruption recognises over the remaining windows, rendered by this
//! file's `drive` (symbols by their text).

mod common;

use common::{engine, STEP, WM};
use insight_rtec::prelude::*;

const SPLIT: i64 = 14;
const WINDOWS: i64 = 30;

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
                let args: Vec<String> = g.args.iter().map(Term::to_string).collect();
                let args = args.join(", ");
                lines.push(format!("{name}({args})={} {:?}", g.value, g.ivs.as_slice()));
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

#[test]
fn parent_state_restores_and_continues_identically() {
    let blob = include_bytes!("fixtures/parent_state.v2");
    let expected = include_str!("fixtures/parent_state.expected");

    let mut uninterrupted = engine();
    drive(&mut uninterrupted, 0, SPLIT, false);
    stream(&mut uninterrupted, SPLIT);

    // The snapshot restores; what the restored engine writes restores into
    // a fresh one and writes the same bytes back. (The fixture's own bytes
    // are not compared: a `pf` table is ordered by symbol, and symbols
    // compare by the order this process interned them in.)
    let mut restored = engine();
    restored.restore_state(blob).unwrap();
    assert_eq!(restored.buffered(), uninterrupted.buffered());
    let v2 = restored.snapshot_state();
    let mut again = engine();
    again.restore_state(&v2).unwrap();
    assert_eq!(again.snapshot_state(), v2);

    assert_eq!(drive(&mut restored, SPLIT, WINDOWS, true), expected);
    assert_eq!(drive(&mut again, SPLIT, WINDOWS, true), expected);
    assert_eq!(drive(&mut uninterrupted, SPLIT, WINDOWS, true), expected);
}
