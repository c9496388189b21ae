//! Checkpoint restore refuses what it cannot restore, and restores what it
//! can exactly; the damage and the streams follow `CONFORMANCE_SEED`, like
//! the conformance suites.
//!
//! * Foreign snapshots: a well-formed `rtec-state v2` snapshot written under
//!   another rule set — an undeclared event, a `pf` grounding no rule of
//!   this rule set initiates, another input arity — and bytes that are not
//!   v2 at all (the retired `rtec-state v1` text among them) are refused and
//!   leave the engine as it was.
//! * A checkpoint chain (a base and its deltas), damaged by byte flips,
//!   truncation and length and count splices, or reordered — a delta
//!   dropped, repeated or swapped, the chain put on another base — never
//!   panics `Engine::restore_chain`, is refused whole or restores to a state
//!   that snapshots and restores to itself.
//! * At every barrier of a random cadence over a fuzzed stream, base plus
//!   deltas restore to an engine whose full snapshot is the live engine's,
//!   byte for byte, across rebases and restarts from the chain.

mod common;

use common::{engine, STEP, WM};
use insight_rtec::pattern::ArgPat;
use insight_rtec::prelude::*;
use rand::{Rng, SeedableRng, StdRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// A snapshot of the `common` engine's state, holding unseen facts and
/// `pf` groundings (see `state_fixture.rs`).
const FIXTURE: &[u8] = include_bytes!("fixtures/parent_state.v2");

/// Refuses `snapshot` as corrupt, naming `names` in the detail, and leaves
/// an engine holding the fixture's state as it was.
fn assert_refused(snapshot: &[u8], names: &str, case: &str) {
    let mut e = engine();
    e.restore_state(FIXTURE).unwrap();
    let before = e.snapshot_state();
    match e.restore_state(snapshot) {
        Err(RtecError::CorruptState { detail }) => {
            assert!(detail.contains(names), "{case}: {detail}")
        }
        other => panic!("{case} accepted: {other:?}"),
    }
    assert_eq!(e.snapshot_state(), before, "{case}: a refused restore changed the engine");
}

/// A snapshot written under another rule set: the fixture's inputs with
/// `enter` of arity `enter`, `inside` as `inside` builds it, and with
/// `ghost` an event the fixture's rule set does not declare; after
/// `enter(a, 1, …)` at 5, a query at 10 and, with `ghost`, `ghost(a)` at 12.
fn foreign(enter: usize, inside: impl FnOnce(&mut RuleSetBuilder), ghost: bool) -> Vec<u8> {
    let mut b = RuleSetBuilder::new();
    b.declare_event("enter", enter).declare_event("leave", 1).declare_input_fluent("speed", 1);
    if ghost {
        b.declare_event("ghost", 1);
    }
    inside(&mut b);
    let mut e = Engine::new(b.build().unwrap(), WindowConfig::new(WM, STEP).unwrap());
    let args = [Term::sym("a"), Term::int(1), Term::int(2)];
    e.add_event(Event::new("enter", args[..enter].to_vec(), 5)).unwrap();
    e.query(10).unwrap();
    if ghost {
        e.add_event(Event::new("ghost", [Term::sym("a")], 12)).unwrap();
    }
    e.snapshot_state()
}

/// `inside(…) = value` initiated by `enter(D, Z)`, its arguments the first
/// `args` of `D, Z`.
fn inside(args: usize, value: ArgPat) -> impl FnOnce(&mut RuleSetBuilder) {
    move |b| {
        let (d, z, t) = (b.var("D"), b.var("Z"), b.var("T"));
        b.initiated(
            fluent("inside", [pat(d), pat(z)].into_iter().take(args), value),
            t,
            [happens(event_pat("enter", [pat(d), pat(z)]), t)],
        );
    }
}

/// Bytes that are no `rtec-state v2` snapshot — nothing, an unknown
/// version, the `rtec-state v1` text earlier engines wrote — are refused.
#[test]
fn other_formats_are_refused() {
    let v1 = include_str!("fixtures/parent_state_v1.blob");
    assert!(v1.starts_with("rtec-state v1\n"));
    for bad in ["", "rtec-state v0\n", v1] {
        assert_refused(bad.as_bytes(), "unsupported header", bad.lines().next().unwrap_or(""));
    }
}

/// A well-formed snapshot of another rule set is checked against this one:
/// an event it does not declare, and a `pf` grounding that no rule of it
/// initiates — an argument too many or too few, a value its `inside` rules
/// never give — are refused by name.
#[test]
fn foreign_rule_sets_are_refused() {
    // The control: the same declarations and `inside` rule restore.
    engine().restore_state(&foreign(2, inside(1, val(true)), false)).unwrap();

    let undeclared = foreign(2, inside(1, val(true)), true);
    assert_refused(&undeclared, "event `ghost` is not declared", "an undeclared event");
    for (case, args, value) in [
        ("an argument too many", 2, val(true)),
        ("an argument too few", 0, val(true)),
        ("a foreign value", 1, val(7)),
    ] {
        let snapshot = foreign(2, inside(args, value), false);
        assert_refused(&snapshot, "no rule of this rule set initiates inside", case);
    }
    // A row's width is the restoring rule set's: v2 does not record an
    // arity to check. This `enter(a, 1, 2)` is refused only because the
    // rest of the part no longer decodes once a term is left over.
    assert_refused(&foreign(3, |_| {}, false), "", "enter of arity 3");
}

fn conformance_seed() -> u64 {
    std::env::var("CONFORMANCE_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// Feeds window `w`'s arrivals (`(w·STEP, (w+1)·STEP]`): punctual facts,
/// facts late inside the window, facts later than the working memory,
/// future-stamped ones and repeats, of every input kind.
fn fuzzed_window(e: &mut Engine, w: i64, rng: &mut StdRng, mut barrier: impl FnMut(&mut Engine)) {
    for _ in 0..rng.random_range(0..16) {
        let arrival = w * STEP + rng.random_range(1..=STEP);
        let time = match rng.random_range(0..10) {
            0..=4 => arrival,
            5 | 6 => arrival - rng.random_range(0..WM - 5),
            7 => arrival - WM - rng.random_range(0..30i64),
            _ => arrival + rng.random_range(0..3 * STEP),
        };
        let d = Term::sym(["a", "b", "c", "d", "e"][rng.random_range(0..5usize)]);
        let stamped = |item| Stamped::arriving_at(item, arrival);
        match rng.random_range(0..4) {
            0 | 1 => {
                // Zones are integers or floats: both term encodings.
                let z = rng.random_range(0..3i64);
                let z =
                    if rng.random_bool(0.5) { Term::int(z) } else { Term::float(z as f64 / 3.0) };
                e.add_stamped_event(stamped(Event::new("enter", [d, z], time))).unwrap();
            }
            2 => e.add_stamped_event(stamped(Event::new("leave", [d], time))).unwrap(),
            _ => {
                let obs = FluentObs::new("speed", [d], Term::int(rng.random_range(30..70)), time);
                e.add_stamped_obs(Stamped::arriving_at(obs, arrival)).unwrap();
            }
        }
        if rng.random_bool(0.1) {
            barrier(e);
        }
    }
}

/// A checkpoint slot as the streams runtime keeps one: a base and the
/// deltas since, rebased once the deltas' bytes pass the base's.
#[derive(Clone, Default)]
struct Chain {
    base: Vec<u8>,
    deltas: Vec<Vec<u8>>,
    rebases: usize,
}

impl Chain {
    fn barrier(&mut self, e: &mut Engine) {
        let mut delta = Vec::new();
        if !self.base.is_empty() && e.checkpoint_delta(&mut delta) {
            let chain: usize = self.deltas.iter().map(Vec::len).sum::<usize>() + delta.len();
            if chain <= self.base.len() {
                self.deltas.push(delta);
                return;
            }
            self.rebases += 1;
        }
        self.base.clear();
        self.deltas.clear();
        e.checkpoint_full(&mut self.base);
    }

    fn restore(&self) -> Result<Engine, RtecError> {
        let mut e = engine();
        let deltas: Vec<&[u8]> = self.deltas.iter().map(Vec::as_slice).collect();
        e.restore_chain(&self.base, &deltas)?;
        Ok(e)
    }
}

/// Base plus deltas restore to the live engine's state at every barrier of
/// a random cadence — barriers between ingests and between queries — and a
/// live engine replaced by its restored copy continues the same chain.
#[test]
fn chains_restore_to_the_live_engine_byte_for_byte() {
    let seed = conformance_seed();
    let mut rng = StdRng::seed_from_u64(0x6368_6169 ^ seed);
    let (mut barriers, mut rebases, mut restarts) = (0, 0, 0);
    for run in 0..12 {
        let mut live = engine();
        let mut chain = Chain::default();
        let mut check = |e: &mut Engine, chain: &mut Chain| {
            chain.barrier(e);
            barriers += 1;
            let restored = chain.restore().unwrap_or_else(|err| {
                panic!("run {run} (seed {seed}): the chain does not restore: {err}")
            });
            assert_eq!(restored.snapshot_state(), e.snapshot_state(), "run {run} (seed {seed})");
            restored
        };
        for w in 0..rng.random_range(10..40) {
            let cadence = rng.random_bool(0.5);
            fuzzed_window(&mut live, w, &mut rng, |e| {
                if cadence {
                    check(e, &mut chain);
                }
            });
            if rng.random_bool(0.6) {
                let restored = check(&mut live, &mut chain);
                if rng.random_bool(0.2) {
                    live = restored;
                    restarts += 1;
                }
            }
            live.query((w + 1) * STEP).unwrap();
        }
        rebases += chain.rebases;
    }
    assert!(barriers > 150 && rebases > 5 && restarts > 5, "{barriers} {rebases} {restarts}");
}

/// A chain cut at a random barrier of a fuzzed run, and another engine's.
fn sample_chains(rng: &mut StdRng) -> (Chain, Chain) {
    let run = |rng: &mut StdRng| {
        let mut live = engine();
        let mut chain = Chain::default();
        let windows = rng.random_range(6..24);
        for w in 0..windows {
            fuzzed_window(&mut live, w, rng, |_| {});
            chain.barrier(&mut live);
            live.query((w + 1) * STEP).unwrap();
        }
        fuzzed_window(&mut live, windows, rng, |_| {});
        chain.barrier(&mut live);
        chain
    };
    (run(rng), run(rng))
}

/// What a length or count splice writes: LEB128 varints from zero to past
/// `u64::MAX`, and raw little-endian lengths.
const SPLICES: [&[u8]; 8] = [
    &[0],
    &[1],
    &[0x7f],
    &[0xff, 0xff, 0x03],
    &[0xff, 0xff, 0xff, 0xff, 0x0f],
    &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01],
    &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f],
    &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f],
];

/// Damages one part of `chain` one to three times, or the chain's order.
fn mutate_chain(chain: &mut Chain, other: &Chain, rng: &mut StdRng) -> &'static str {
    let n = chain.deltas.len();
    match rng.random_range(0..10) {
        0 if n >= 2 => {
            let i = rng.random_range(0..n);
            chain.deltas.swap(i, (i + 1) % n);
            return "deltas swapped";
        }
        1 if n >= 1 => {
            chain.deltas.remove(rng.random_range(0..n));
            return "delta dropped";
        }
        2 if n >= 1 => {
            let i = rng.random_range(0..n);
            chain.deltas.insert(i, chain.deltas[i].clone());
            return "delta repeated";
        }
        3 => {
            chain.base = other.base.clone();
            return "another base";
        }
        4 if !other.deltas.is_empty() => {
            chain.deltas.push(other.deltas[0].clone());
            return "another chain's delta";
        }
        _ => {}
    }
    let part = rng.random_range(0..=n);
    let bytes = if part == n { &mut chain.base } else { &mut chain.deltas[part] };
    for _ in 0..rng.random_range(1..4usize) {
        if bytes.is_empty() {
            break;
        }
        let at = rng.random_range(0..bytes.len());
        match rng.random_range(0..3u32) {
            0 => bytes[at] = rng.random_range(0..=u8::MAX),
            1 => bytes.truncate(at),
            _ => {
                let splice = SPLICES[rng.random_range(0..SPLICES.len())];
                let end = (at + rng.random_range(0..=splice.len())).min(bytes.len());
                bytes.splice(at..end, splice.iter().copied());
            }
        }
    }
    "bytes damaged"
}

/// A damaged or reordered chain never panics the restore. A refused one
/// leaves the engine's state as it was; an accepted one snapshots to bytes
/// that a fresh engine restores and snapshots back to the same bytes.
#[test]
fn mutated_chains_never_panic_and_accepted_ones_round_trip() {
    let seed = conformance_seed();
    let mut rng = StdRng::seed_from_u64(0x7632_6368 ^ seed);
    let (mut accepted, mut refused, mut reorder_refused) = (0, 0, 0);
    for case in 0..1500 {
        let (good, other) = sample_chains(&mut rng);
        let mut damaged = good.clone();
        let what = mutate_chain(&mut damaged, &other, &mut rng);
        let mut e = good.restore().unwrap();
        let before = e.snapshot_state();
        let deltas: Vec<&[u8]> = damaged.deltas.iter().map(Vec::as_slice).collect();
        let Ok(restored) =
            catch_unwind(AssertUnwindSafe(|| e.restore_chain(&damaged.base, &deltas)))
        else {
            panic!("case {case} (seed {seed}): restore panicked ({what})");
        };
        match restored {
            Ok(()) => {
                accepted += 1;
                let snapshot = e.snapshot_state();
                let mut fresh = engine();
                fresh.restore_state(&snapshot).unwrap_or_else(|err| {
                    panic!(
                        "case {case} (seed {seed}, {what}): its snapshot does not restore: {err}"
                    )
                });
                assert_eq!(fresh.snapshot_state(), snapshot, "case {case} (seed {seed}, {what})");
            }
            Err(err) => {
                refused += 1;
                reorder_refused += usize::from(what != "bytes damaged");
                assert!(matches!(err, RtecError::CorruptState { .. }), "case {case}: {err}");
                assert_eq!(e.snapshot_state(), before, "case {case} (seed {seed}, {what}): {err}");
            }
        }
    }
    assert!(accepted > 100 && refused > 100, "accepted {accepted}, refused {refused}");
    assert!(reorder_refused > 50, "only {reorder_refused} reordered chains refused");
}
