//! Seeded mutation property for `Engine::restore_state`: the
//! `fixtures/parent_state_v1.blob` snapshot, damaged by byte flips,
//! truncation, dropped, repeated and swapped lines and token splices (huge
//! counts, negative and `inf` times, unknown symbols, an argument too many),
//! never panics the restore, is refused whole or restores to a state that
//! snapshots and restores to itself. The damage follows `CONFORMANCE_SEED`,
//! like the conformance suites.

mod common;

use common::engine;
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
        e.restore_state(blob).unwrap();
        let before = e.snapshot_state();
        match e.restore_state(&blob.replacen(good, bad, 1)) {
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
        e.restore_state(blob).unwrap();
        let before = e.snapshot_state();
        let Ok(restored) = catch_unwind(AssertUnwindSafe(|| e.restore_state(&damaged))) else {
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
