//! Deterministic fault injection for robustness testing.
//!
//! The paper's inputs misbehave in predictable ways — sensors drop readings,
//! bus GPS arrives late, out of order or corrupted (§3) — and this module
//! reproduces those failure modes *on demand and deterministically*, so a
//! test or CI smoke-run can assert that a topology under a given
//! [`FaultPolicy`](crate::fault::FaultPolicy) still produces correct output.
//! All randomness comes from the seeded workspace `rand` shim
//! (xoshiro256++), so the same [`ChaosConfig`] always injects the same
//! faults at the same positions.
//!
//! [`ChaosSource`] wraps any [`Source`] and applies *stream-level* chaos:
//! drop, duplicate, delay/reorder, corrupt. Processor faults that exercise
//! the runtime's supervision layer are scheduled, not drawn:
//! [`PanicEvery`] panics on every Nth item and [`KillAt`] kills once.

use crate::error::StreamsError;
use crate::item::DataItem;
use crate::metrics::Counter;
use crate::processor::{Context, Processor};
use crate::source::Source;
use rand::{Rng, SeedableRng, StdRng};
use std::collections::VecDeque;
use std::sync::Arc;

/// The value a corrupted field is scrambled to (U+FFFD makes the damage
/// obvious in dumps and reliably breaks numeric schema expectations).
pub const CORRUPTED_VALUE: &str = "\u{fffd}chaos";

/// Injection rates and determinism seed of a [`ChaosSource`]. All rates are
/// probabilities in `[0, 1]`; a default-constructed config injects nothing.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosConfig {
    /// Seed for the deterministic generator.
    pub seed: u64,
    /// Probability an item is silently dropped.
    pub drop_rate: f64,
    /// Probability an item is emitted twice.
    pub duplicate_rate: f64,
    /// Probability an item is held back and re-emitted later, i.e. delivered
    /// out of order.
    pub delay_rate: f64,
    /// Maximum number of subsequent items a delayed item is held behind
    /// (at least 1 when `delay_rate > 0`).
    pub delay_max: usize,
    /// Probability one field of the item is scrambled to [`CORRUPTED_VALUE`].
    pub corrupt_rate: f64,
}

impl Default for ChaosConfig {
    fn default() -> ChaosConfig {
        ChaosConfig {
            seed: 0,
            drop_rate: 0.0,
            duplicate_rate: 0.0,
            delay_rate: 0.0,
            delay_max: 4,
            corrupt_rate: 0.0,
        }
    }
}

impl ChaosConfig {
    /// A config that injects nothing, with the given seed.
    pub fn new(seed: u64) -> ChaosConfig {
        ChaosConfig { seed, ..ChaosConfig::default() }
    }
}

/// Counters of injected faults (shared: clone the `Arc` handle before the
/// run, read after).
#[derive(Debug, Default)]
pub struct ChaosStats {
    /// Items silently dropped.
    pub dropped: Counter,
    /// Items emitted twice.
    pub duplicated: Counter,
    /// Items delivered out of order.
    pub delayed: Counter,
    /// Items with one scrambled field.
    pub corrupted: Counter,
}

/// A topology can publish its sources' counters on its service registry.
impl crate::service::Service for ChaosStats {}

fn corrupt(item: &mut DataItem, rng: &mut StdRng) {
    if item.is_empty() {
        return;
    }
    let idx = rng.random_range(0..item.len());
    let key = item.iter().nth(idx).map(|(k, _)| k.to_string()).expect("index in range");
    item.set(key, CORRUPTED_VALUE);
}

/// A [`Source`] adapter injecting stream-level chaos (drop, duplicate,
/// delay/reorder, corrupt) at the configured rates, deterministically.
pub struct ChaosSource {
    inner: Box<dyn Source>,
    cfg: ChaosConfig,
    rng: StdRng,
    stats: Arc<ChaosStats>,
    /// Items ready to emit (matured delays, duplicates).
    ready: VecDeque<DataItem>,
    /// Held-back items with the number of pulls they still sit out.
    delayed: Vec<(usize, DataItem)>,
    exhausted: bool,
}

impl ChaosSource {
    /// Wraps `inner` with the given chaos config.
    pub fn new<S: Source + 'static>(inner: S, cfg: ChaosConfig) -> ChaosSource {
        ChaosSource {
            inner: Box::new(inner),
            rng: StdRng::seed_from_u64(cfg.seed),
            cfg,
            stats: Arc::new(ChaosStats::default()),
            ready: VecDeque::new(),
            delayed: Vec::new(),
            exhausted: false,
        }
    }

    /// Handle to the injection counters.
    pub fn stats(&self) -> Arc<ChaosStats> {
        Arc::clone(&self.stats)
    }

    /// Ages held-back items by one pull; matured ones become ready.
    fn tick_delayed(&mut self) {
        let mut i = 0;
        while i < self.delayed.len() {
            if self.delayed[i].0 <= 1 {
                let (_, item) = self.delayed.remove(i);
                self.ready.push_back(item);
            } else {
                self.delayed[i].0 -= 1;
                i += 1;
            }
        }
    }

    /// Releases every still-delayed item (at end of stream), shortest
    /// remaining hold first so relative delay order is preserved.
    fn flush_delayed(&mut self) {
        self.delayed.sort_by_key(|(hold, _)| *hold);
        for (_, item) in self.delayed.drain(..) {
            self.ready.push_back(item);
        }
    }
}

impl Source for ChaosSource {
    fn next_item(&mut self) -> Result<Option<DataItem>, StreamsError> {
        loop {
            if let Some(item) = self.ready.pop_front() {
                return Ok(Some(item));
            }
            if self.exhausted {
                return Ok(None);
            }
            match self.inner.next_item()? {
                None => {
                    self.exhausted = true;
                    self.flush_delayed();
                }
                Some(mut item) => {
                    self.tick_delayed();
                    if self.rng.random_bool(self.cfg.drop_rate) {
                        self.stats.dropped.inc();
                        continue;
                    }
                    if self.rng.random_bool(self.cfg.corrupt_rate) {
                        corrupt(&mut item, &mut self.rng);
                        self.stats.corrupted.inc();
                    }
                    if self.rng.random_bool(self.cfg.delay_rate) {
                        let hold = self.rng.random_range(1..=self.cfg.delay_max.max(1));
                        self.delayed.push((hold, item));
                        self.stats.delayed.inc();
                        continue;
                    }
                    if self.rng.random_bool(self.cfg.duplicate_rate) {
                        self.ready.push_back(item.clone());
                        self.stats.duplicated.inc();
                    }
                    self.ready.push_back(item);
                }
            }
        }
    }
}

/// A [`Processor`] that panics on every `n`-th item it sees — the
/// deterministic fixture for supervision regression tests.
pub struct PanicEvery {
    n: u64,
    seen: u64,
}

impl PanicEvery {
    /// Panics on items number `n`, `2n`, `3n`, ... (1-based).
    ///
    /// # Panics
    /// Panics immediately if `n` is 0.
    pub fn new(n: u64) -> PanicEvery {
        assert!(n > 0, "PanicEvery requires n >= 1");
        PanicEvery { n, seen: 0 }
    }
}

impl Processor for PanicEvery {
    fn process(
        &mut self,
        item: DataItem,
        _ctx: &mut Context,
    ) -> Result<Option<DataItem>, StreamsError> {
        self.seen += 1;
        if self.seen.is_multiple_of(self.n) {
            panic!("chaos: scheduled panic on item {}", self.seen);
        }
        Ok(Some(item))
    }
}

/// Shared one-shot trigger for [`KillAt`]: instances cloned from the same
/// switch (e.g. by a restart factory rebuilding the processor) share the
/// item count and the fired flag, so the kill fires exactly once per run.
#[derive(Debug, Clone, Default)]
pub struct KillSwitch {
    seen: Arc<std::sync::atomic::AtomicU64>,
    fired: Arc<std::sync::atomic::AtomicBool>,
}

impl KillSwitch {
    /// A fresh, un-fired switch.
    pub fn new() -> KillSwitch {
        KillSwitch::default()
    }

    /// Whether the kill has fired.
    pub fn fired(&self) -> bool {
        self.fired.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Items observed across every [`KillAt`] sharing this switch.
    pub fn seen(&self) -> u64 {
        self.seen.load(std::sync::atomic::Ordering::SeqCst)
    }
}

/// A [`Processor`] that panics exactly once, when the `at`-th item (1-based)
/// passes through — the injected *kill* for crash-recovery tests. The count
/// and the fired flag live in a shared [`KillSwitch`], so the processor a
/// restart supervisor rebuilds from its factory (holding a clone of the same
/// switch) passes items through: replayed and resumed traffic never re-fires
/// the kill. `at == 0` never fires. The trigger is `>=` rather than `==`, so
/// a kill point landing inside an already-skipped stretch still fires on the
/// next item instead of being missed — which also means several replicas
/// sharing the switch can be at or past the kill point at once; the one that
/// flips the fired flag dies, the others pass their item through.
pub struct KillAt {
    at: u64,
    switch: KillSwitch,
}

impl KillAt {
    /// Kills on the `at`-th item (1-based); 0 disables.
    pub fn new(at: u64) -> KillAt {
        KillAt { at, switch: KillSwitch::new() }
    }

    /// A kill sharing an external switch — hand the same switch to the
    /// processor factory so rebuilt instances know the kill already fired.
    pub fn with_switch(at: u64, switch: KillSwitch) -> KillAt {
        KillAt { at, switch }
    }

    /// Handle to the shared trigger state.
    pub fn switch(&self) -> KillSwitch {
        self.switch.clone()
    }
}

impl Processor for KillAt {
    fn process(
        &mut self,
        item: DataItem,
        _ctx: &mut Context,
    ) -> Result<Option<DataItem>, StreamsError> {
        use std::sync::atomic::Ordering;
        if self.at == 0 || self.switch.fired.load(Ordering::SeqCst) {
            return Ok(Some(item));
        }
        let n = self.switch.seen.fetch_add(1, Ordering::SeqCst) + 1;
        if n >= self.at
            && self
                .switch
                .fired
                .compare_exchange(false, true, Ordering::SeqCst, Ordering::SeqCst)
                .is_ok()
        {
            panic!("chaos: injected kill at item {n}");
        }
        Ok(Some(item))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::VecSource;

    fn numbered(n: i64) -> VecSource {
        VecSource::new((0..n).map(|i| DataItem::new().with("n", i)))
    }

    fn drain(src: &mut ChaosSource) -> Vec<DataItem> {
        let mut out = Vec::new();
        while let Some(item) = src.next_item().unwrap() {
            out.push(item);
        }
        out
    }

    #[test]
    fn zero_rates_are_a_no_op() {
        let mut src = ChaosSource::new(numbered(50), ChaosConfig::new(7));
        let out = drain(&mut src);
        assert_eq!(out.len(), 50);
        let ns: Vec<i64> = out.iter().map(|i| i.get_i64("n").unwrap()).collect();
        assert_eq!(ns, (0..50).collect::<Vec<_>>(), "order untouched");
        let stats = src.stats();
        assert_eq!(stats.dropped.get() + stats.corrupted.get() + stats.delayed.get(), 0);
    }

    #[test]
    fn same_seed_injects_identically() {
        let cfg = ChaosConfig {
            seed: 42,
            drop_rate: 0.1,
            duplicate_rate: 0.1,
            delay_rate: 0.2,
            corrupt_rate: 0.1,
            ..ChaosConfig::default()
        };
        let a = drain(&mut ChaosSource::new(numbered(200), cfg.clone()));
        let b = drain(&mut ChaosSource::new(numbered(200), cfg.clone()));
        assert_eq!(a, b, "identical seeds → identical streams");
        let c = drain(&mut ChaosSource::new(numbered(200), ChaosConfig { seed: 43, ..cfg }));
        assert_ne!(a, c, "different seed → different injection pattern");
    }

    #[test]
    fn drops_duplicates_and_delays_account_for_every_item() {
        let cfg = ChaosConfig {
            seed: 5,
            drop_rate: 0.15,
            duplicate_rate: 0.1,
            delay_rate: 0.25,
            delay_max: 3,
            ..ChaosConfig::default()
        };
        let mut src = ChaosSource::new(numbered(400), cfg);
        let out = drain(&mut src);
        let stats = src.stats();
        assert!(stats.dropped.get() > 0 && stats.duplicated.get() > 0 && stats.delayed.get() > 0);
        assert_eq!(
            out.len() as u64,
            400 - stats.dropped.get() + stats.duplicated.get(),
            "emitted = input - dropped + duplicated (delays only reorder)"
        );
        // Delays reorder but never lose: every surviving value appears.
        let ns: std::collections::BTreeSet<i64> =
            out.iter().map(|i| i.get_i64("n").unwrap()).collect();
        assert!(ns.len() as u64 >= 400 - stats.dropped.get());
    }

    #[test]
    fn corruption_scrambles_one_field() {
        let cfg = ChaosConfig { seed: 9, corrupt_rate: 1.0, ..ChaosConfig::default() };
        let mut src = ChaosSource::new(numbered(10), cfg);
        let out = drain(&mut src);
        assert_eq!(out.len(), 10);
        assert!(out.iter().all(|i| i.get_str("n") == Some(CORRUPTED_VALUE)));
        assert_eq!(src.stats().corrupted.get(), 10);
    }

    #[test]
    fn kill_at_fires_exactly_once_across_rebuilds() {
        let mut k = KillAt::new(3);
        let switch = k.switch();
        let mut ctx = Context::new(crate::service::ServiceRegistry::default(), "t");
        for i in 1..=2u64 {
            assert!(k.process(DataItem::new().with("n", i as i64), &mut ctx).is_ok());
        }
        assert!(!switch.fired());
        let boom = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            k.process(DataItem::new().with("n", 3i64), &mut ctx)
        }));
        assert!(boom.is_err(), "third item kills");
        assert!(switch.fired());
        // A rebuilt instance sharing the switch never re-fires — replayed
        // and resumed traffic passes through.
        let mut rebuilt = KillAt::with_switch(3, switch.clone());
        for i in 1..=10u64 {
            assert!(rebuilt.process(DataItem::new().with("n", i as i64), &mut ctx).is_ok());
        }
        assert_eq!(switch.seen(), 3, "counting stopped at the kill");
    }

    #[test]
    fn kill_at_strikes_one_replica_when_several_cross_the_kill_point_together() {
        const REPLICAS: u64 = 4;
        const ITEMS: u64 = 2000;
        // Every replica hammers the shared switch flat out, so whenever the
        // count crosses the kill point several of them are between the
        // fired check and the claim.
        let rounds: Vec<(usize, u64)> = (0..100)
            .map(|_| {
                let switch = KillSwitch::new();
                let barrier = std::sync::Barrier::new(REPLICAS as usize);
                let kills = std::thread::scope(|scope| {
                    let replicas: Vec<_> = (0..REPLICAS)
                        .map(|_| {
                            scope.spawn(|| {
                                let mut k =
                                    KillAt::with_switch(REPLICAS * ITEMS / 2, switch.clone());
                                let mut ctx =
                                    Context::new(crate::service::ServiceRegistry::default(), "t");
                                barrier.wait();
                                (0..ITEMS)
                                    .filter(|&i| {
                                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(
                                            || {
                                                k.process(
                                                    DataItem::new().with("n", i as i64),
                                                    &mut ctx,
                                                )
                                            },
                                        ))
                                        .is_err()
                                    })
                                    .count()
                            })
                        })
                        .collect();
                    replicas.into_iter().map(|r| r.join().expect("replica thread")).sum()
                });
                assert!(switch.fired());
                (kills, switch.seen())
            })
            .collect();
        for (round, (kills, seen)) in rounds.into_iter().enumerate() {
            assert_eq!(kills, 1, "round {round}: the kill struck {kills} replicas");
            // Every replica that raced past the fired check counted its
            // item; nothing is counted once the kill is visible.
            let at = REPLICAS * ITEMS / 2;
            assert!(
                (at..at + REPLICAS).contains(&seen),
                "round {round}: {seen} items counted, kill point {at}, {REPLICAS} replicas"
            );
        }
    }

    #[test]
    fn panic_every_schedules_exactly() {
        let mut p = PanicEvery::new(3);
        let mut ctx = Context::new(crate::service::ServiceRegistry::default(), "t");
        for i in 1..=10u64 {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                p.process(DataItem::new().with("n", i as i64), &mut ctx)
            }));
            assert_eq!(result.is_err(), i % 3 == 0, "item {i}");
        }
    }
}
