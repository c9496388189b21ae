//! Differential property tests for the flat attribute map.
//!
//! `DataItem` stores attributes in a sorted flat vector with inline
//! capacity (spilling to the heap only past [`INLINE_ATTRS`] entries). The
//! reference model is the representation it replaced: a `BTreeMap` keyed by
//! the attribute name. Any random operation sequence must leave both with
//! the same contents, the same lookup answers, and the same (sorted)
//! iteration order — including sequences that cross the inline→spill
//! boundary in either direction of length.
//!
//! Insertion appends without a search when a key sorts after the last one,
//! so the random key order (repeats included) reaches every insert branch;
//! `collect` of the same pairs is held to the model as well.

use insight_streams::intern::Key;
use insight_streams::item::{DataItem, Value, INLINE_ATTRS};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// A fixed key pool wider than the inline capacity, so random sequences
/// cross the spill boundary; the pool also keeps the process-global key
/// interner bounded under proptest.
const KEYS: [&str; 18] = [
    "a",
    "arrival",
    "bus",
    "congestion",
    "delay",
    "density",
    "direction",
    "flow",
    "intersection",
    "kind",
    "lat",
    "line",
    "lon",
    "operator",
    "region",
    "sensor",
    "time",
    "zz",
];

#[derive(Debug, Clone)]
enum Op {
    Insert(usize, Value),
    Remove(usize),
    Get(usize),
}

fn value_strategy() -> impl Strategy<Value = Value> {
    prop_oneof![
        any::<i64>().prop_map(Value::Int),
        (-1.0e9..1.0e9f64).prop_map(Value::Float),
        any::<bool>().prop_map(Value::Bool),
        Just(Value::Null),
        // Lengths straddle the inline small-string boundary (22 bytes).
        proptest::collection::vec(0u8..27, 0..40usize).prop_map(|bytes| {
            let s: String =
                bytes.into_iter().map(|b| if b == 26 { ' ' } else { (b'a' + b) as char }).collect();
            Value::from(s)
        }),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        3 => (0..KEYS.len(), value_strategy()).prop_map(|(k, v)| Op::Insert(k, v)),
        1 => (0..KEYS.len()).prop_map(Op::Remove),
        1 => (0..KEYS.len()).prop_map(Op::Get),
    ]
}

proptest! {
    /// Every operation sequence leaves the flat map and the `BTreeMap`
    /// model observationally identical.
    #[test]
    fn flat_map_matches_btreemap_model(ops in proptest::collection::vec(op_strategy(), 0..120)) {
        let mut item = DataItem::new();
        let mut model: BTreeMap<&str, Value> = BTreeMap::new();
        let mut inserted: Vec<(&str, Value)> = Vec::new();
        for op in ops {
            match op {
                Op::Insert(k, v) => {
                    item.set(KEYS[k], v.clone());
                    inserted.push((KEYS[k], v.clone()));
                    model.insert(KEYS[k], v);
                }
                Op::Remove(k) => {
                    let got = item.remove(KEYS[k]);
                    let want = model.remove(KEYS[k]);
                    prop_assert_eq!(got, want, "remove({}) disagrees", KEYS[k]);
                }
                Op::Get(k) => {
                    prop_assert_eq!(item.get(KEYS[k]), model.get(KEYS[k]), "get({})", KEYS[k]);
                }
            }
            prop_assert_eq!(item.len(), model.len());
            prop_assert_eq!(item.is_empty(), model.is_empty());
        }
        // Iteration order is the model's sorted order, pairwise equal.
        let got: Vec<(&str, &Value)> = item.iter().collect();
        let want: Vec<(&str, &Value)> = model.iter().map(|(k, v)| (*k, v)).collect();
        prop_assert_eq!(got, want, "iteration order or contents diverged");
        for k in KEYS {
            prop_assert_eq!(item.contains(k), model.contains_key(k));
        }
        // `collect` of the inserted pairs, in arrival order with repeats,
        // builds the map the model builds from them (the last value wins).
        let collected: DataItem =
            inserted.iter().map(|(k, v)| (Key::new(k), v.clone())).collect();
        let collect_model: BTreeMap<&str, Value> = inserted.into_iter().collect();
        let got: Vec<(&str, &Value)> = collected.iter().collect();
        let want: Vec<(&str, &Value)> = collect_model.iter().map(|(k, v)| (*k, v)).collect();
        prop_assert_eq!(got, want, "collect diverged from the model");
        prop_assert_eq!(insight_streams::testing::is_inline(&collected), collect_model.len() <= INLINE_ATTRS);
    }

    /// Walking the length up across the spill boundary and back down keeps
    /// lookups and order intact at every step (spill is one-way storage,
    /// but contents must behave as if it never happened).
    #[test]
    fn spill_boundary_roundtrip(extra in 1usize..6, seed_vals in proptest::collection::vec(any::<i64>(), 18)) {
        let n = INLINE_ATTRS + extra;
        let mut item = DataItem::new();
        let mut model: BTreeMap<&str, Value> = BTreeMap::new();
        // Grow past the boundary…
        for (i, k) in KEYS.iter().take(n).enumerate() {
            item.set(*k, seed_vals[i]);
            model.insert(k, Value::Int(seed_vals[i]));
            prop_assert_eq!(item.len(), model.len());
        }
        // …then shrink back below it, checking after every removal.
        for k in KEYS.iter().take(n) {
            prop_assert_eq!(item.remove(k), model.remove(k));
            let got: Vec<(&str, &Value)> = item.iter().collect();
            let want: Vec<(&str, &Value)> = model.iter().map(|(k, v)| (*k, v)).collect();
            prop_assert_eq!(got, want);
        }
        prop_assert!(item.is_empty());
    }
}
