//! Seeded properties of checkpoint restore; the damage and the streams
//! follow `CONFORMANCE_SEED`, like the conformance suites.
//!
//! * v1: the `fixtures/parent_state_v1.blob` text, damaged by byte flips,
//!   truncation, dropped, repeated and swapped lines and token splices (huge
//!   counts, negative and `inf` times, unknown symbols, an argument too
//!   many), never panics `Engine::restore_state`, is refused whole or
//!   restores to a state that snapshots and restores to itself.
//! * v2: a checkpoint chain (a base and its deltas), damaged by byte flips,
//!   truncation and length and count splices, or reordered — a delta
//!   dropped, repeated or swapped, the chain put on another base — does the
//!   same under `Engine::restore_chain`.
//! * v2 chains: at every barrier of a random cadence over a fuzzed stream,
//!   base plus deltas restore to an engine whose full snapshot is the live
//!   engine's, byte for byte, across rebases and restarts from the chain.

mod common;

use common::{engine, STEP, WM};
use insight_rtec::prelude::*;
use rand::{Rng, SeedableRng, StdRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

const BLOB: &str = include_str!("fixtures/parent_state_v1.blob");

/// A `pf` line whose grounding no rule initiates — one argument too many,
/// or a value the `inside` rules never give — is refused, naming the line,
/// and leaves the engine as it was.
#[test]
fn pf_line_no_rule_initiates_is_refused() {
    let blob = BLOB;
    let good = "pf inside b:1 1 s:a ";
    assert!(blob.contains(good));
    for bad in ["pf inside b:1 2 s:a s:z ", "pf inside i:7 1 s:a ", "pf inside b:1 0 "] {
        let mut e = engine();
        e.restore_state(blob.as_bytes()).unwrap();
        let before = e.snapshot_state();
        match e.restore_state(blob.replacen(good, bad, 1).as_bytes()) {
            Err(RtecError::CorruptState { detail }) => {
                assert!(detail.contains(bad.trim_end()), "{bad:?}: {detail}")
            }
            other => panic!("{bad:?} accepted: {other:?}"),
        }
        assert_eq!(e.snapshot_state(), before, "{bad:?}: a refused restore changed the engine");
    }
}

fn conformance_seed() -> u64 {
    std::env::var("CONFORMANCE_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// What a byte flip writes: the format's separators and digits, a sign, a
/// NUL and a byte that is never valid UTF-8.
const FLIPS: &[u8] = b"0123456789 :-\nisbf\x00\xff";

/// What a token splice writes: huge counts, negative and `inf` times,
/// unknown symbols and term tags.
const TOKENS: [&str; 12] = [
    "18446744073709551616",
    "9223372036854775807",
    "99999999",
    "-9223372036854775808",
    "-5",
    "inf",
    "5:inf",
    "7:3",
    "s:ghost",
    "ghost",
    "x:1",
    "f:7ff8000000000000",
];

/// Damages the blob one to three times.
fn mutate(blob: &str, rng: &mut StdRng) -> String {
    let mut lines: Vec<String> = blob.lines().map(str::to_string).collect();
    for _ in 0..rng.random_range(1..4usize) {
        let at = rng.random_range(0..lines.len());
        match rng.random_range(0..7u32) {
            0 => {
                let mut bytes = lines.join("\n").into_bytes();
                let i = rng.random_range(0..bytes.len());
                bytes[i] = FLIPS[rng.random_range(0..FLIPS.len())];
                let text = String::from_utf8_lossy(&bytes).into_owned();
                lines = text.split('\n').map(str::to_string).collect();
            }
            1 => {
                let text = lines.join("\n");
                let mut cut = rng.random_range(0..=text.len());
                while !text.is_char_boundary(cut) {
                    cut -= 1;
                }
                lines = text[..cut].split('\n').map(str::to_string).collect();
            }
            2 => {
                lines.remove(at);
            }
            3 => lines.insert(at, lines[at].clone()),
            4 => {
                let other = rng.random_range(0..lines.len());
                lines.swap(at, other);
            }
            5 => {
                let mut toks: Vec<&str> = lines[at].split(' ').collect();
                let i = rng.random_range(0..toks.len());
                toks[i] = TOKENS[rng.random_range(0..TOKENS.len())];
                lines[at] = toks.join(" ");
            }
            _ => {
                // Wrong arity: an argument more. On a `pf` line the count
                // goes up with it, so only the rule set can tell.
                let line = &lines[at];
                lines[at] = match line.strip_prefix("pf inside b:1 1 ") {
                    Some(rest) => {
                        let (arg, ivs) = rest.split_once(' ').unwrap_or((rest, ""));
                        format!("pf inside b:1 2 {arg} s:z {ivs}")
                    }
                    None if line.starts_with("ev ") || line.starts_with("obs ") => {
                        format!("{line} s:z")
                    }
                    None => line.clone(),
                };
            }
        }
        if lines.is_empty() {
            break;
        }
    }
    let mut text = lines.join("\n");
    text.push('\n');
    text
}

/// A damaged snapshot never panics the restore. A refused one leaves the
/// engine's state as it was; an accepted one snapshots to a text that a
/// fresh engine restores and snapshots back to the same bytes.
#[test]
fn mutated_blobs_never_panic_and_accepted_ones_round_trip() {
    let blob = BLOB;
    let seed = conformance_seed();
    let mut rng = StdRng::seed_from_u64(0x7274_6563 ^ seed);
    let (mut accepted, mut refused, mut pf_arity_refused) = (0, 0, 0);
    for case in 0..1500 {
        let damaged = mutate(blob, &mut rng);
        // `inside` has one argument: whatever else is wrong with such a line,
        // it must not restore.
        let pf_arity = damaged.lines().any(|l| l.starts_with("pf inside b:1 2 "));
        let mut e = engine();
        e.restore_state(blob.as_bytes()).unwrap();
        let before = e.snapshot_state();
        let Ok(restored) = catch_unwind(AssertUnwindSafe(|| e.restore_state(damaged.as_bytes())))
        else {
            panic!("case {case} (seed {seed}): restore panicked on {damaged:?}");
        };
        assert!(!pf_arity || restored.is_err(), "case {case}: a pf line of arity 2 was accepted");
        match restored {
            Ok(()) => {
                accepted += 1;
                let snapshot = e.snapshot_state();
                let mut fresh = engine();
                fresh.restore_state(&snapshot).unwrap_or_else(|err| {
                    panic!(
                        "case {case} (seed {seed}): {damaged:?} snapshots to {snapshot:?}: {err}"
                    )
                });
                assert_eq!(fresh.snapshot_state(), snapshot, "case {case} (seed {seed})");
            }
            Err(err) => {
                refused += 1;
                pf_arity_refused += usize::from(pf_arity);
                assert!(matches!(err, RtecError::CorruptState { .. }), "case {case}: {err}");
                assert_eq!(e.snapshot_state(), before, "case {case} (seed {seed}): {err}");
            }
        }
    }
    assert!(accepted > 100 && refused > 100, "accepted {accepted}, refused {refused}");
    assert!(pf_arity_refused > 10, "only {pf_arity_refused} pf arity cases");
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
