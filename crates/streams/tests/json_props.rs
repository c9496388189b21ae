//! Round-trip property tests for the zero-copy JSON scanner/writer.
//!
//! The wire format must be loss-free: `parse(serialize(x)) == x` for any
//! `DataItem`, including values that stress the escape paths (quotes,
//! backslashes, control characters, non-ASCII) and f64 shortest-round-trip
//! formatting. Serialization must also be stable — re-serializing the
//! parsed item reproduces the bytes — and malformed input must be rejected,
//! not silently coerced.
//!
//! The mutation fuzz at the end feeds damaged lines to both readers built
//! on the scanner (`DataItem::from_json`, `json::parse_object`); its
//! corpus and mutations follow `CONFORMANCE_SEED`, like the conformance
//! suites. So do the lines with shuffled and repeated keys, which keep the
//! parser's append-when-sorted fast path honest: whatever order a line
//! lists its keys in, it parses to the item `set` builds.

use insight_streams::item::{DataItem, Value};
use insight_streams::json::{escape_into, parse_object, value_into};
use proptest::prelude::*;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng, StdRng};
use std::panic::{catch_unwind, AssertUnwindSafe};

/// Fixed key pool (the interner is process-global and permanent; arbitrary
/// keys would grow it per proptest case). Escape-heavy *keys* are covered
/// by the dedicated case below.
const KEYS: [&str; 8] = ["a", "kind", "lat", "lon", "region", "text", "time", "zz"];

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        // Finite doubles only: the wire format has no NaN/Infinity.
        any::<f64>().prop_filter("finite", |f| f.is_finite()).prop_map(Value::Float),
        any::<bool>().prop_map(Value::Bool),
        Just(Value::Null),
        // Arbitrary (valid-UTF-8) strings: quotes, backslashes, control
        // characters, astral-plane codepoints — everything escaping and
        // surrogate-pair decoding must survive.
        any::<String>().prop_map(Value::from),
    ]
}

fn item_strategy() -> impl Strategy<Value = DataItem> {
    proptest::collection::btree_map(0..KEYS.len(), value_strategy(), 0..KEYS.len()).prop_map(|m| {
        let mut item = DataItem::new();
        for (k, v) in m {
            item.set(KEYS[k], v);
        }
        item
    })
}

proptest! {
    /// parse(serialize(x)) == x, and serialization is a fixed point after
    /// one round trip.
    #[test]
    fn roundtrip_is_identity(item in item_strategy()) {
        let json = item.to_json();
        let back = DataItem::from_json(&json).expect("serializer output must parse");
        prop_assert_eq!(&back, &item, "round trip changed the item: {}", json);
        prop_assert_eq!(back.to_json(), json, "re-serialization is not byte-stable");
    }

    /// Float formatting round-trips exactly (shortest representation that
    /// reparses to the same bits, modulo -0.0 == 0.0).
    #[test]
    fn float_roundtrip_is_exact(f in any::<f64>().prop_filter("finite", |f| f.is_finite())) {
        let item = DataItem::new().with("f", f);
        let back = DataItem::from_json(&item.to_json()).unwrap();
        let got = back.get_f64("f").expect("float survives as a number");
        prop_assert_eq!(got.to_bits(), f.to_bits(), "lossy float round trip");
    }

    /// Truncating a serialized item anywhere strictly inside produces a
    /// parse error, never a silently-truncated item.
    #[test]
    fn truncation_is_rejected(item in item_strategy(), cut in 0.0..1.0f64) {
        let json = item.to_json();
        // Cut at a char boundary strictly inside the document.
        let mut at = ((json.len() - 1) as f64 * cut) as usize;
        while !json.is_char_boundary(at) {
            at -= 1;
        }
        prop_assert!(DataItem::from_json(&json[..at]).is_err(), "accepted truncation at {at} of {json}");
    }
}

/// Keys pass through the same escaping as string values.
#[test]
fn escaped_keys_roundtrip() {
    let mut item = DataItem::new();
    item.set("quote\"back\\slash", 1i64);
    item.set("ctrl\nnew\tline", 2i64);
    item.set("unicode-é-\u{1F68C}", 3i64);
    let json = item.to_json();
    let back = DataItem::from_json(&json).unwrap();
    assert_eq!(back, item);
    assert_eq!(back.get_i64("ctrl\nnew\tline"), Some(2));
}

/// A grab-bag of malformed documents the scanner must reject.
#[test]
fn malformed_documents_rejected() {
    for bad in [
        "",
        "{",
        "}",
        "{\"a\":}",
        "{\"a\":1,}",
        "{\"a\" 1}",
        "{\"a\":1}{",
        "{\"a\":1} x",
        "{\"a\":+1}",
        "{\"a\":01e}",
        "{\"a\":\"unterminated}",
        "{\"a\":\"bad\\q\"}",
        "{\"a\":\"\\ud800\"}",
        "{\"a\":nul}",
        "[1,2]",
        "{\"a\":1 \"b\":2}",
        // Each of these parsed before, into something else or something the
        // writer cannot write back.
        "{\"a\":1e999}",
        "{\"a\":\"\\u+041\"}",
        "{\"a\":01}",
        "{\"a\":1.}",
        "{\"a\":-}",
        "{\"a\":-01}",
        "{\"a\":1.e5}",
        "{\"a\":1e+}",
        "{\"a\":-.5}",
        "{\"a\":\"\\u-041\"}",
    ] {
        assert!(DataItem::from_json(bad).is_err(), "accepted malformed input: {bad:?}");
    }
}

fn conformance_seed() -> u64 {
    std::env::var("CONFORMANCE_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// A line listing `pairs` in the given order, repeats included.
fn line_of(pairs: &[(&str, Value)]) -> String {
    let mut line = String::from("{");
    for (i, (key, value)) in pairs.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        escape_into(&mut line, key);
        line.push(':');
        value_into(&mut line, value);
    }
    line.push('}');
    line
}

/// Keys in any order, some repeated: the parsed item is the one `set`
/// builds from the same pairs in the same order (the last value of a key
/// wins), and it writes back in key order.
#[test]
fn shuffled_and_repeated_keys_parse_like_set() {
    let seed = conformance_seed();
    let mut rng = StdRng::seed_from_u64(0x6b65_7973 ^ seed);
    for case in 0..2000 {
        // Half the cases start from keys in written (sorted) order, then
        // shuffle; repeats land anywhere.
        let mut pairs: Vec<(&str, Value)> = Vec::new();
        for key in KEYS {
            if rng.random_bool(0.7) {
                pairs.push((key, Value::Int(rng.random_range(-1000..1000i64))));
            }
        }
        if rng.random_bool(0.5) {
            pairs.shuffle(&mut rng);
        }
        for _ in 0..rng.random_range(0..4usize) {
            let key = KEYS[rng.random_range(0..KEYS.len())];
            let value = match rng.random_range(0..4u32) {
                0 => Value::Float(rng.random::<f64>() * 100.0),
                1 => Value::from("again"),
                2 => Value::Bool(rng.random_bool(0.5)),
                _ => Value::Null,
            };
            let at = rng.random_range(0..=pairs.len());
            pairs.insert(at, (key, value));
        }
        let line = line_of(&pairs);
        let mut want = DataItem::new();
        for (key, value) in &pairs {
            want.set(*key, value.clone());
        }
        let got = DataItem::from_json(&line)
            .unwrap_or_else(|e| panic!("case {case} (seed {seed}): {line} did not parse: {e}"));
        assert_eq!(got, want, "case {case} (seed {seed}): {line}");
        assert_eq!(got.to_json(), want.to_json(), "case {case} (seed {seed})");
        let keys: Vec<&str> = got.iter().map(|(k, _)| k).collect();
        assert!(keys.windows(2).all(|w| w[0] < w[1]), "case {case}: keys out of order {keys:?}");
    }
}

/// What a byte flip writes: JSON's structural and number bytes, a NUL and a
/// byte that is never valid UTF-8.
const FLIPS: &[u8] = b"0123456789.eE+-\"\\{}:,untf \x00\xff";

/// What a mutation splices in: digit runs, exponents (overflowing, bare,
/// signed) and `\u` escapes (valid, signed, short, lone surrogates).
const EXPONENTS: [&str; 8] = ["e999", "E+999", "e-999", "e308", "e", "e+", ".", ".e1"];
const ESCAPES: [&str; 9] = [
    "\\u0041",
    "\\u+041",
    "\\u-041",
    "\\u12",
    "\\uZZZZ",
    "\\ud800",
    "\\udc00",
    "\\ud83d\\ude8c",
    "\\",
];

/// A valid line drawn from `rng`: a few keys with ints, floats, strings with
/// escapes, booleans and nulls.
fn valid_line(rng: &mut StdRng) -> String {
    let mut item = DataItem::new();
    for _ in 0..rng.random_range(1..5usize) {
        let key = KEYS[rng.random_range(0..KEYS.len())];
        let value = match rng.random_range(0..6u32) {
            0 => Value::Int(rng.random_range(-1_000_000..1_000_000i64)),
            1 => Value::Int(rng.random::<u64>() as i64),
            2 => Value::Float((rng.random::<f64>() - 0.5) * 10f64.powi(rng.random_range(-30..30))),
            3 => Value::from(
                ["bus", "q\"uote", "new\nline", "é\u{1F68C}", "\u{1}"][rng.random_range(0..5usize)],
            ),
            4 => Value::Bool(rng.random_bool(0.5)),
            _ => Value::Null,
        };
        item.set(key, value);
    }
    item.to_json()
}

/// Damages `line` one to three times.
fn mutate(line: &str, rng: &mut StdRng) -> Vec<u8> {
    let mut bytes = line.as_bytes().to_vec();
    for _ in 0..rng.random_range(1..4usize) {
        let at = rng.random_range(0..=bytes.len());
        let splice: Vec<u8> = match rng.random_range(0..5u32) {
            0 => {
                if at < bytes.len() {
                    bytes[at] = FLIPS[rng.random_range(0..FLIPS.len())];
                }
                continue;
            }
            1 => {
                bytes.truncate(at);
                continue;
            }
            2 => (0..rng.random_range(1..25usize))
                .map(|_| b'0' + rng.random_range(0..10u8))
                .collect(),
            3 => EXPONENTS[rng.random_range(0..EXPONENTS.len())].into(),
            _ => ESCAPES[rng.random_range(0..ESCAPES.len())].into(),
        };
        // Splices land after a digit or inside a string more often than not.
        let at = match bytes[..at].iter().rposition(|b| b.is_ascii_digit() || *b == b'"') {
            Some(i) if rng.random_bool(0.7) => i + 1,
            _ => at,
        };
        bytes.splice(at..at, splice);
    }
    bytes
}

/// Damaged lines never panic either reader, and whatever a reader accepts
/// it writes back as a line that parses to the same value.
#[test]
fn mutated_lines_never_panic_and_accepted_ones_round_trip() {
    let seed = conformance_seed();
    let mut rng = StdRng::seed_from_u64(0x6a73_6f6e ^ seed);
    let mut accepted = 0;
    for case in 0..4000 {
        let bytes = mutate(&valid_line(&mut rng), &mut rng);
        let line = String::from_utf8_lossy(&bytes);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            (DataItem::from_json(&line).ok(), parse_object(&line).ok())
        }));
        let Ok((item, object)) = outcome else {
            panic!("case {case} (seed {seed}): a reader panicked on {line:?}");
        };
        if let Some(item) = item {
            accepted += 1;
            let json = item.to_json();
            let back = DataItem::from_json(&json);
            assert_eq!(back.as_ref().ok(), Some(&item), "case {case}: {line:?} wrote {json:?}");
        }
        if let Some(object) = object {
            let pairs: Vec<(&str, Value)> =
                object.iter().map(|(k, v)| (k.as_str(), v.clone())).collect();
            let json = line_of(&pairs);
            let back = parse_object(&json);
            assert_eq!(back.as_ref().ok(), Some(&object), "case {case}: {line:?} wrote {json:?}");
        }
    }
    // The damage is not so heavy that every line is refused.
    assert!(accepted > 100, "only {accepted} of 4000 mutated lines parsed");
}
