//! Steady-state allocation pins for the flat-map data plane.
//!
//! The point of the inline attribute representation is a hard allocation
//! contract, measured here with the real allocator hook
//! ([`insight_streams::alloc::CountingAllocator`]) rather than inferred:
//!
//! * building an item of at most [`INLINE_ATTRS`] attributes with
//!   inline-width values costs exactly **one** allocation (the shared `Arc`
//!   payload) — zero per attribute;
//! * cloning, lookups, and iteration cost **zero**;
//! * serializing into a warm reused buffer costs **zero**, and so does a
//!   warm [`JsonLinesSink`] writing an item (it keeps one line buffer);
//! * parsing one JSON item without escapes costs exactly **one** (the
//!   `Arc` again — keys intern to statics, values stay inline, and the
//!   attributes fill a local map that is wrapped once).
//!
//! The counter is process-global, so this binary holds a single `#[test]`
//! (same discipline as `clone_budget.rs`) and every pinned window runs
//! single-threaded after a warm-up pass that populates the key interner
//! and grows the scratch buffers.

use insight_streams::alloc::{allocation_count, CountingAllocator};
use insight_streams::item::{DataItem, INLINE_ATTRS};
use insight_streams::json::parse_item;
use insight_streams::sink::{JsonLinesSink, Sink};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

const ITEMS: u64 = 512;

/// A bus-schema-shaped item: 12 attributes, every value inline-width.
fn build_item(n: i64) -> DataItem {
    DataItem::new()
        .with("time", n)
        .with("arrival", n + 17)
        .with("region", "central")
        .with("kind", "bus")
        .with("bus", 33000 + n)
        .with("line", n % 60)
        .with("operator", 7i64)
        .with("delay", 120i64)
        .with("lon", -6.26 + n as f64 * 1e-6)
        .with("lat", 53.35)
        .with("direction", n % 2)
        .with("congestion", n % 3 == 0)
}

fn measured(work: impl FnOnce()) -> u64 {
    let before = allocation_count();
    work();
    allocation_count() - before
}

#[test]
fn steady_state_allocations_are_pinned() {
    assert!(build_item(0).len() <= INLINE_ATTRS, "the probe schema must fit inline");

    // Warm-up: intern every key, touch every code path once, and size the
    // scratch buffers past what the measured windows need.
    let warm = build_item(0);
    let mut json = String::with_capacity(4096);
    warm.to_json_into(&mut json);
    let parsed = DataItem::from_json(&json).unwrap();
    assert_eq!(parsed, warm, "warm-up round trip");
    let inputs: Vec<String> = (0..ITEMS as i64).map(|n| build_item(n).to_json()).collect();

    // Build: exactly one allocation per item — the Arc'd attribute payload.
    let mut built: Vec<DataItem> = Vec::with_capacity(ITEMS as usize);
    let allocs = measured(|| {
        for n in 0..ITEMS as i64 {
            built.push(build_item(n));
        }
    });
    assert_eq!(
        allocs, ITEMS,
        "build: want exactly 1 allocation/item (the Arc), got {allocs} for {ITEMS}"
    );

    // Clone + lookup + iterate: zero allocations.
    let allocs = measured(|| {
        for item in &built {
            let c = item.clone();
            assert_eq!(c.get_i64("time"), item.get_i64("time"));
            assert!(c.get_str("region").is_some());
            assert_eq!(c.iter().count(), 12);
        }
    });
    assert_eq!(allocs, 0, "clone/lookup/iterate must not allocate, got {allocs}");

    // Serialize into a warm buffer: zero allocations.
    let allocs = measured(|| {
        for item in &built {
            json.clear();
            item.to_json_into(&mut json);
        }
    });
    assert_eq!(allocs, 0, "serialize-into must not allocate, got {allocs}");

    // A warm JSON-lines sink: zero allocations per item. The writer has
    // room for every line, so only the sink itself could allocate.
    let mut sink = JsonLinesSink::new(Vec::<u8>::with_capacity(ITEMS as usize * 512));
    sink.write_item(warm.clone()).unwrap();
    let allocs = measured(|| {
        for item in &built {
            sink.write_item(item.clone()).unwrap();
        }
    });
    assert_eq!(allocs, 0, "a warm JsonLinesSink must not allocate, got {allocs}");
    let written = String::from_utf8(insight_streams::testing::into_writer(sink)).unwrap();
    assert_eq!(written.lines().nth(1), Some(inputs[0].as_str()), "the sink writes the line");

    // Parse: one allocation per item (the Arc), zero per key/value — the
    // scanner itself, and the `Result`-mapping wrapper around it.
    for parse in [parse_item as fn(&str) -> Result<DataItem, String>, |line: &str| {
        DataItem::from_json(line).map_err(|e| e.to_string())
    }] {
        let mut reparsed: Vec<DataItem> = Vec::with_capacity(ITEMS as usize);
        let allocs = measured(|| {
            for line in &inputs {
                reparsed.push(parse(line).unwrap());
            }
        });
        assert_eq!(
            allocs, ITEMS,
            "parse: want exactly 1 allocation/item (the Arc), got {allocs} for {ITEMS}"
        );
        assert_eq!(reparsed, built, "parsed items match the originals");
    }
}
