//! Property tests for deterministic chaos injection.
//!
//! Whatever the rate combination, [`ChaosSource`] must obey the accounting
//! identity `emitted + dropped = input + duplicated` (delays and corruption
//! only reorder or rewrite, never create or lose items), and the same
//! [`ChaosConfig`] must always inject the same faults at the same positions.

use insight_streams::chaos::{ChaosConfig, ChaosSource};
use insight_streams::item::DataItem;
use insight_streams::source::{Source, VecSource};
use proptest::prelude::*;

fn numbered(n: i64) -> VecSource {
    VecSource::new((0..n).map(|i| DataItem::new().with("n", i)))
}

fn drain(src: &mut ChaosSource) -> Vec<DataItem> {
    let mut out = Vec::new();
    while let Some(item) = src.next_item().expect("chaos source never errors") {
        out.push(item);
    }
    out
}

/// Arbitrary rate combination, including the degenerate corners (all zero,
/// all one). Tuples are nested because the shim caps tuple strategies at
/// five elements.
fn arb_cfg() -> impl Strategy<Value = ChaosConfig> {
    ((any::<u64>(), 0.0f64..=1.0, 0.0f64..=1.0), (0.0f64..=1.0, 1usize..6, 0.0f64..=1.0)).prop_map(
        |((seed, drop_rate, duplicate_rate), (delay_rate, delay_max, corrupt_rate))| ChaosConfig {
            seed,
            drop_rate,
            duplicate_rate,
            delay_rate,
            delay_max,
            corrupt_rate,
        },
    )
}

proptest! {
    #[test]
    fn accounting_identity_holds_for_every_rate_combo(
        cfg in arb_cfg(),
        n in 0i64..200,
    ) {
        let mut src = ChaosSource::new(numbered(n), cfg);
        let out = drain(&mut src);
        let stats = src.stats();
        // Drops remove, duplicates add, delays and corruption only
        // reorder/rewrite: every input item is accounted for.
        prop_assert_eq!(
            out.len() as u64 + stats.dropped.get(),
            n as u64 + stats.duplicated.get(),
            "emitted + dropped = input + duplicated (n={}, delayed={})",
            n,
            stats.delayed.get(),
        );
        // Delayed items are all eventually released: the end-of-stream flush
        // leaves nothing held back.
        prop_assert!(stats.delayed.get() <= n as u64 + stats.duplicated.get());
    }

    #[test]
    fn identical_seeds_produce_identical_traces(
        cfg in arb_cfg(),
        n in 0i64..200,
    ) {
        let run = |cfg: ChaosConfig| {
            let mut src = ChaosSource::new(numbered(n), cfg);
            let out = drain(&mut src);
            let stats = src.stats();
            (
                out,
                (
                    stats.dropped.get(),
                    stats.duplicated.get(),
                    stats.delayed.get(),
                    stats.corrupted.get(),
                ),
            )
        };
        let (items_a, stats_a) = run(cfg.clone());
        let (items_b, stats_b) = run(cfg);
        prop_assert_eq!(items_a, items_b, "same config → same emitted trace");
        prop_assert_eq!(stats_a, stats_b, "same config → same fault counters");
    }
}
