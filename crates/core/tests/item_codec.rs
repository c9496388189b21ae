//! `item_to_sde` against a keyed-lookup reference decoder.
//!
//! `item_to_sde` reads an item in one pass over its attributes. The
//! reference below reads it the obvious way, one `get_*` per field, which is
//! what the schema means: a missing or wrongly typed field gives `None`, an
//! integer is accepted where a float is read, and other attributes are
//! ignored. Items start from real SDEs and are then damaged — attributes
//! dropped, retyped, renamed, added — with draws that follow
//! `CONFORMANCE_SEED`, like the conformance suites.

use insight_core::items::{item_to_sde, sde_to_item, KIND};
use insight_datagen::stream::{BusRecord, ScatsRecord, Sde, SdeBody};
use insight_streams::item::{DataItem, Value};
use rand::{Rng, SeedableRng, StdRng};

/// The schema, one keyed lookup per field.
fn reference(item: &DataItem) -> Option<Sde> {
    let time = item.get_i64("time")?;
    let arrival = item.get_i64("arrival")?;
    let body = match item.get_str(KIND)? {
        "bus" => SdeBody::Bus(BusRecord {
            bus: item.get_i64("bus")? as u32,
            line: item.get_i64("line")? as u32,
            operator: item.get_i64("operator")? as u32,
            delay_s: item.get_i64("delay")?,
            lon: item.get_f64("lon")?,
            lat: item.get_f64("lat")?,
            direction: item.get_i64("direction")? as u8,
            congestion: item.get("congestion")?.as_bool()?,
        }),
        "scats" => SdeBody::Scats(ScatsRecord {
            intersection: item.get_i64("intersection")? as u32,
            approach: item.get_i64("approach")? as u8,
            sensor: item.get_i64("sensor")? as u32,
            density: item.get_f64("density")?,
            flow: item.get_f64("flow")?,
            lon: item.get_f64("lon")?,
            lat: item.get_f64("lat")?,
        }),
        _ => return None,
    };
    Some(Sde { time, arrival, body })
}

/// Every key either schema has, plus ones neither has.
const KEYS: [&str; 21] = [
    "approach",
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
    "a",
    "speed",
    "zz",
    "kind2",
];

fn random_sde(rng: &mut StdRng) -> Sde {
    let time = rng.random_range(0..100_000i64);
    let arrival = time + rng.random_range(0..600i64);
    let lon = -6.4 + rng.random::<f64>() * 0.3;
    let lat = 53.2 + rng.random::<f64>() * 0.3;
    let body = if rng.random_bool(0.5) {
        SdeBody::Bus(BusRecord {
            bus: rng.random_range(0..100_000u32),
            line: rng.random_range(0..200u32),
            operator: rng.random_range(0..10u32),
            delay_s: rng.random_range(-600..3600i64),
            lon,
            lat,
            direction: rng.random_range(0..2u8),
            congestion: rng.random_bool(0.3),
        })
    } else {
        SdeBody::Scats(ScatsRecord {
            intersection: rng.random_range(0..1000u32),
            approach: rng.random_range(0..8u8),
            sensor: rng.random_range(0..5000u32),
            density: rng.random::<f64>() * 120.0,
            flow: rng.random::<f64>() * 2000.0,
            lon,
            lat,
        })
    };
    Sde { time, arrival, body }
}

fn random_value(rng: &mut StdRng) -> Value {
    match rng.random_range(0..7u32) {
        0 => Value::Int(rng.random_range(-5..5000i64)),
        1 => Value::Float(rng.random::<f64>() * 100.0),
        2 => Value::Bool(rng.random_bool(0.5)),
        3 => Value::Null,
        4 => Value::from("bus"),
        5 => Value::from("scats"),
        _ => Value::from("north"),
    }
}

/// An SDE's item, damaged zero to four times.
fn damaged_item(rng: &mut StdRng) -> DataItem {
    let mut item = sde_to_item(&random_sde(rng));
    for _ in 0..rng.random_range(0..5usize) {
        let key = KEYS[rng.random_range(0..KEYS.len())];
        match rng.random_range(0..4u32) {
            0 => {
                item.remove(key);
            }
            // Retype an attribute that is there, or add a new one.
            1 | 2 => item.set(key, random_value(rng)),
            // An int where a float is read, or the reverse.
            _ => match item.get(key).cloned() {
                Some(Value::Float(f)) => item.set(key, f as i64),
                Some(Value::Int(i)) => item.set(key, i as f64),
                _ => {}
            },
        }
    }
    item
}

#[test]
fn item_to_sde_matches_keyed_lookups() {
    let seed: u64 =
        std::env::var("CONFORMANCE_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0);
    let mut rng = StdRng::seed_from_u64(0x7364_6531 ^ seed);
    let (mut decoded, mut refused) = (0, 0);
    for case in 0..5000 {
        let item = damaged_item(&mut rng);
        let want = reference(&item);
        assert_eq!(item_to_sde(&item), want, "case {case} (seed {seed}): {item}");
        match want {
            Some(_) => decoded += 1,
            None => refused += 1,
        }
    }
    // Both outcomes are exercised, each often.
    assert!(decoded > 1000 && refused > 1000, "decoded {decoded}, refused {refused}");
}

#[test]
fn undamaged_items_round_trip() {
    let mut rng = StdRng::seed_from_u64(7);
    for _ in 0..1000 {
        let sde = random_sde(&mut rng);
        assert_eq!(item_to_sde(&sde_to_item(&sde)), Some(sde));
    }
}
