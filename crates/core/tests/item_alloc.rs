//! Allocation pins for the SDE item codec.
//!
//! `sde_to_item` lists its pairs in key order and builds the item in place:
//! exactly **one** allocation per SDE (the item's shared map), none per
//! attribute. `item_to_sde` reads the item without allocating.
//!
//! The counter is process-global, so this binary holds a single `#[test]`
//! and measures after a warm-up that interns every key on this thread.

use insight_core::items::{item_to_sde, sde_to_item};
use insight_datagen::stream::{BusRecord, ScatsRecord, Sde, SdeBody};
use insight_streams::alloc::{allocation_count, CountingAllocator};
use insight_streams::item::DataItem;

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn sde(n: i64) -> Sde {
    let body = if n % 2 == 0 {
        SdeBody::Bus(BusRecord {
            bus: 33000 + n as u32,
            line: (n % 60) as u32,
            operator: 7,
            delay_s: 120 + n,
            lon: -6.26 + n as f64 * 1e-5,
            lat: 53.35,
            direction: (n % 2) as u8,
            congestion: n % 3 == 0,
        })
    } else {
        SdeBody::Scats(ScatsRecord {
            intersection: n as u32,
            approach: 1,
            sensor: 12,
            density: 90.5,
            flow: 1100.0,
            lon: -6.27,
            lat: 53.34 + n as f64 * 1e-5,
        })
    };
    Sde { time: n, arrival: n + 5, body }
}

#[test]
fn sde_codec_allocations_are_pinned() {
    const N: usize = 512;
    let sdes: Vec<Sde> = (0..N as i64).map(sde).collect();
    assert_eq!(item_to_sde(&sde_to_item(&sdes[0])).as_ref(), Some(&sdes[0]), "warm-up");
    assert_eq!(item_to_sde(&sde_to_item(&sdes[1])).as_ref(), Some(&sdes[1]), "warm-up");

    let mut items: Vec<DataItem> = Vec::with_capacity(N);
    let before = allocation_count();
    for sde in &sdes {
        items.push(sde_to_item(sde));
    }
    let allocs = allocation_count() - before;
    assert_eq!(allocs, N as u64, "sde_to_item: want exactly 1 allocation per SDE");

    let before = allocation_count();
    let decoded = items.iter().filter(|item| item_to_sde(item).is_some()).count();
    let allocs = allocation_count() - before;
    assert_eq!(decoded, N);
    assert_eq!(allocs, 0, "item_to_sde must not allocate");
}
