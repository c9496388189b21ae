//! Pipeline observability: lock-light counters, gauges and histograms.
//!
//! Every hot-path operation (recording an item, a latency sample or a queue
//! depth change) is a handful of `Relaxed` atomic operations on
//! pre-registered instruments — no locks, no allocation. The only lock in
//! the module guards instrument *registration* (cold path: once per stage or
//! queue at topology start-up).
//!
//! Instruments are grouped in a [`MetricsRegistry`], registered as a Streams
//! service so every processor can reach it through its
//! [`Context`](crate::processor::Context). [`MetricsRegistry::snapshot`]
//! returns a plain-data [`MetricsSnapshot`] that renders to JSON
//! ([`MetricsSnapshot::to_json`]) or a human-readable per-stage table
//! ([`MetricsSnapshot::render_table`]).

use crate::json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering::Relaxed};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// An instantaneous level (e.g. queue depth) with a high-water mark.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
    high_water: AtomicI64,
}

impl Gauge {
    /// Moves the level by `delta` (positive or negative).
    pub(crate) fn add(&self, delta: i64) {
        let new = self.value.fetch_add(delta, Relaxed) + delta;
        if delta > 0 {
            self.high_water.fetch_max(new, Relaxed);
        }
    }

    /// Sets the level outright.
    pub fn set(&self, value: i64) {
        self.value.store(value, Relaxed);
        self.high_water.fetch_max(value, Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.value.load(Relaxed)
    }

    /// Highest level ever observed.
    pub(crate) fn high_water(&self) -> i64 {
        self.high_water.load(Relaxed)
    }
}

/// Number of power-of-two latency buckets (bucket `i` covers
/// `[2^i, 2^(i+1))` nanoseconds; the last one is open-ended ≈ 9 minutes+).
pub const HISTOGRAM_BUCKETS: usize = 40;

/// A fixed-bucket latency histogram (power-of-two nanosecond buckets).
///
/// Recording is four `Relaxed` atomic adds/maxes — no locks, suitable for
/// per-item hot paths.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum_ns: AtomicU64,
    min_ns: AtomicU64,
    max_ns: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram {
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            min_ns: AtomicU64::new(u64::MAX),
            max_ns: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
        }
    }
}

impl Histogram {
    /// Records one duration.
    pub fn record(&self, d: Duration) {
        self.record_ns(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Records one latency sample in nanoseconds.
    pub fn record_ns(&self, ns: u64) {
        self.count.fetch_add(1, Relaxed);
        self.sum_ns.fetch_add(ns, Relaxed);
        self.min_ns.fetch_min(ns, Relaxed);
        self.max_ns.fetch_max(ns, Relaxed);
        let idx = (63 - ns.max(1).leading_zeros() as usize).min(HISTOGRAM_BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Relaxed);
    }

    /// A point-in-time copy of the histogram's state.
    pub(crate) fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Relaxed);
        let min = self.min_ns.load(Relaxed);
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (slot, bucket) in buckets.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Relaxed);
        }
        HistogramSnapshot {
            count,
            sum_ns: self.sum_ns.load(Relaxed),
            min_ns: if count == 0 { 0 } else { min },
            max_ns: self.max_ns.load(Relaxed),
            buckets,
        }
    }
}

/// Plain-data copy of a [`Histogram`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Number of recorded samples.
    pub count: u64,
    /// Sum of all samples, nanoseconds.
    pub sum_ns: u64,
    /// Smallest sample (0 when empty).
    pub min_ns: u64,
    /// Largest sample.
    pub max_ns: u64,
    /// Power-of-two bucket counts (bucket `i` = `[2^i, 2^(i+1))` ns).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
}

impl Default for HistogramSnapshot {
    fn default() -> HistogramSnapshot {
        HistogramSnapshot {
            count: 0,
            sum_ns: 0,
            min_ns: 0,
            max_ns: 0,
            buckets: [0; HISTOGRAM_BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Mean sample in nanoseconds (0 when empty).
    pub(crate) fn mean_ns(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_ns as f64 / self.count as f64
        }
    }

    /// Approximate quantile (`q` in `[0, 1]`): the upper bound of the bucket
    /// holding the q-th sample, clamped to the observed max.
    pub(crate) fn quantile_ns(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                let upper = 1u64 << (i + 1).min(63);
                return upper.min(self.max_ns);
            }
        }
        self.max_ns
    }

    /// Folds another histogram's samples into this one (bucket-wise sums;
    /// min/max widen). Quantiles of the merge are as approximate as the
    /// operands' — buckets align, so no extra error is introduced.
    pub(crate) fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        self.min_ns = if self.count == 0 { other.min_ns } else { self.min_ns.min(other.min_ns) };
        self.count += other.count;
        self.sum_ns += other.sum_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
        for (slot, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *slot += b;
        }
    }

    fn json_into(&self, out: &mut String) {
        out.push_str(&format!(
            "{{\"count\":{},\"sum_ns\":{},\"min_ns\":{},\"max_ns\":{},\"mean_ns\":",
            self.count, self.sum_ns, self.min_ns, self.max_ns
        ));
        json::float_into(out, self.mean_ns());
        out.push_str(&format!(
            ",\"p50_ns\":{},\"p90_ns\":{},\"p99_ns\":{}}}",
            self.quantile_ns(0.50),
            self.quantile_ns(0.90),
            self.quantile_ns(0.99)
        ));
    }
}

/// Per-processor instruments: item flow, per-call latency and fault
/// supervision outcomes (see [`crate::fault::FaultPolicy`]).
#[derive(Debug, Default)]
pub struct StageMetrics {
    /// Items entering the stage.
    pub items_in: Counter,
    /// Items leaving the stage (after filtering/fan-out).
    pub items_out: Counter,
    /// Items the stage's processors buffer behind a frontier that has not
    /// passed them yet (the crowd EM gate), with the high-water mark. Zero
    /// at rest: an item held while nothing is in flight upstream is a stage
    /// waiting for input that may never come.
    pub held: Gauge,
    /// Time spent on each input — the chain, routing what left it and, on a
    /// merge, its share of the ordered receive — and on each `finish` call.
    pub process_ns: Histogram,
    /// Failed processor invocations (errors and panics).
    pub faults: Counter,
    /// The subset of `faults` that were isolated panics.
    pub panics: Counter,
    /// Items dropped by a `Skip` policy.
    pub skipped: Counter,
    /// Items moved to the dead-letter queue by a `DeadLetter` policy.
    pub dead_letters: Counter,
    /// Checkpoint barriers that snapshotted at least one chain slot.
    pub checkpoints: Counter,
    /// `Restart` recoveries.
    pub restores: Counter,
    /// Logged items replayed through the chain during recoveries.
    pub replayed_items: Counter,
    /// Total wall-clock time spent in recovery (rebuild + restore + replay),
    /// nanoseconds.
    pub recovery_ns: Counter,
}

/// Per-queue instruments: depth, throughput, backpressure stalls.
#[derive(Debug, Default)]
pub struct QueueMetrics {
    /// Current number of buffered items (high-water mark retained).
    pub depth: Gauge,
    /// Items pushed.
    pub sent: Counter,
    /// Items popped.
    pub received: Counter,
    /// Sends that found the queue full and had to block.
    pub send_stalls: Counter,
    /// Total time producers spent blocked on a full queue, nanoseconds.
    pub stall_ns: Counter,
    /// Sizes of transfers that moved more than one item (a transfer of one
    /// is not a batch, so a per-item edge leaves this empty). Samples are
    /// item counts, not nanoseconds; the power-of-two buckets still apply.
    pub batch_sizes: Histogram,
}

impl QueueMetrics {
    /// Records one transfer of `n` items in [`QueueMetrics::batch_sizes`].
    pub(crate) fn record_batch(&self, n: usize) {
        if n > 1 {
            self.batch_sizes.record_ns(n as u64);
        }
    }
}

/// The per-run instrument registry.
///
/// Cheap to share (`Arc` per instrument group); instrument lookup takes a
/// short-lived registration lock, so fetch instruments once at start-up and
/// hold the `Arc` on the hot path.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    stages: Mutex<BTreeMap<String, Arc<StageMetrics>>>,
    queues: Mutex<BTreeMap<String, Arc<QueueMetrics>>>,
    counters: Mutex<BTreeMap<String, Arc<Counter>>>,
    histograms: Mutex<BTreeMap<String, Arc<Histogram>>>,
}

impl crate::service::Service for MetricsRegistry {}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The instruments of stage `name` (created on first use).
    pub fn stage(&self, name: &str) -> Arc<StageMetrics> {
        let mut stages = self.stages.lock().unwrap();
        Arc::clone(stages.entry(name.to_string()).or_default())
    }

    /// The instruments of queue `name` (created on first use).
    pub(crate) fn queue(&self, name: &str) -> Arc<QueueMetrics> {
        let mut queues = self.queues.lock().unwrap();
        Arc::clone(queues.entry(name.to_string()).or_default())
    }

    /// A free-standing named counter (created on first use).
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut counters = self.counters.lock().unwrap();
        Arc::clone(counters.entry(name.to_string()).or_default())
    }

    /// A free-standing named histogram (created on first use).
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut histograms = self.histograms.lock().unwrap();
        Arc::clone(histograms.entry(name.to_string()).or_default())
    }

    /// A point-in-time plain-data copy of every instrument.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            stages: self
                .stages
                .lock()
                .unwrap()
                .iter()
                .map(|(name, m)| {
                    (
                        name.clone(),
                        StageSnapshot {
                            items_in: m.items_in.get(),
                            items_out: m.items_out.get(),
                            held: m.held.get(),
                            held_high_water: m.held.high_water(),
                            process_ns: m.process_ns.snapshot(),
                            faults: m.faults.get(),
                            panics: m.panics.get(),
                            skipped: m.skipped.get(),
                            dead_letters: m.dead_letters.get(),
                            checkpoints: m.checkpoints.get(),
                            restores: m.restores.get(),
                            replayed_items: m.replayed_items.get(),
                            recovery_ns: m.recovery_ns.get(),
                        },
                    )
                })
                .collect(),
            queues: self
                .queues
                .lock()
                .unwrap()
                .iter()
                .map(|(name, m)| {
                    (
                        name.clone(),
                        QueueSnapshot {
                            depth: m.depth.get(),
                            depth_high_water: m.depth.high_water(),
                            sent: m.sent.get(),
                            received: m.received.get(),
                            send_stalls: m.send_stalls.get(),
                            stall_ns: m.stall_ns.get(),
                            batch_sizes: m.batch_sizes.snapshot(),
                        },
                    )
                })
                .collect(),
            counters: self
                .counters
                .lock()
                .unwrap()
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            histograms: self
                .histograms
                .lock()
                .unwrap()
                .iter()
                .map(|(name, h)| (name.clone(), h.snapshot()))
                .collect(),
        }
    }
}

/// Plain-data copy of one stage's instruments.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StageSnapshot {
    /// Items entering the stage.
    pub items_in: u64,
    /// Items leaving the stage.
    pub items_out: u64,
    /// Items buffered behind a frontier at snapshot time.
    pub held: i64,
    /// Most items ever buffered behind a frontier (schedule-dependent).
    pub held_high_water: i64,
    /// Per-input and per-`finish` time distribution.
    pub process_ns: HistogramSnapshot,
    /// Failed processor invocations (errors + panics).
    pub faults: u64,
    /// The subset of `faults` that were isolated panics.
    pub panics: u64,
    /// Items dropped by a `Skip` policy.
    pub skipped: u64,
    /// Items moved to the dead-letter queue.
    pub dead_letters: u64,
    /// Checkpoint barriers taken.
    pub checkpoints: u64,
    /// `Restart` recoveries performed.
    pub restores: u64,
    /// Logged items replayed during recoveries.
    pub replayed_items: u64,
    /// Total recovery wall-clock, nanoseconds.
    pub recovery_ns: u64,
}

impl StageSnapshot {
    /// Folds another stage's counters and latency histogram into this one.
    pub(crate) fn merge(&mut self, other: &StageSnapshot) {
        self.items_in += other.items_in;
        self.items_out += other.items_out;
        self.held += other.held;
        self.held_high_water += other.held_high_water;
        self.process_ns.merge(&other.process_ns);
        self.faults += other.faults;
        self.panics += other.panics;
        self.skipped += other.skipped;
        self.dead_letters += other.dead_letters;
        self.checkpoints += other.checkpoints;
        self.restores += other.restores;
        self.replayed_items += other.replayed_items;
        self.recovery_ns += other.recovery_ns;
    }
}

/// One logical stage's metrics after replica rollup: the combined shard
/// totals plus the per-role breakdown (see [`MetricsSnapshot::rollup_stages`]).
#[derive(Debug, Clone, PartialEq)]
pub struct StageRollup {
    /// Sum over the numeric shard replicas (`name[0]`, `name[1]`, ...). For
    /// an unreplicated stage this is the stage snapshot itself.
    pub combined: StageSnapshot,
    /// Every sub-stage keyed by its replica dimension — `"0"`, `"1"`, ...
    /// for the shards plus `"part"`/`"merge"` for the router and the
    /// merge. Empty for unreplicated stages.
    pub replicas: BTreeMap<String, StageSnapshot>,
}

/// Plain-data copy of one queue's instruments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueueSnapshot {
    /// Buffered items at snapshot time.
    pub depth: i64,
    /// Highest depth ever observed.
    pub depth_high_water: i64,
    /// Items pushed.
    pub sent: u64,
    /// Items popped.
    pub received: u64,
    /// Sends that blocked on a full queue.
    pub send_stalls: u64,
    /// Total producer blocking time, nanoseconds.
    pub stall_ns: u64,
    /// Batched-transfer size distribution (samples are item counts).
    pub batch_sizes: HistogramSnapshot,
}

/// Point-in-time copy of a whole [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Default)]
pub struct MetricsSnapshot {
    /// Per-stage flow and latency, keyed by stage name.
    pub stages: BTreeMap<String, StageSnapshot>,
    /// Per-queue depth and backpressure, keyed by queue name.
    pub queues: BTreeMap<String, QueueSnapshot>,
    /// Free-standing counters.
    pub counters: BTreeMap<String, u64>,
    /// Free-standing histograms.
    pub histograms: BTreeMap<String, HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Groups replicated-stage metrics under their logical stage name.
    ///
    /// A process declared with `.replicas(n)` runs as sub-stages labelled
    /// `name[part]`, `name[0]`..`name[n-1]` and `name[merge]` (see
    /// [`crate::partition`]); each gets its own instruments so replicas never
    /// alias one counter. This helper re-groups those labels by `name`,
    /// summing the numeric shard replicas into
    /// [`StageRollup::combined`] (the router and merge stay visible in
    /// [`StageRollup::replicas`] but are bookkeeping, not shard work, so
    /// they are excluded from the combined totals). Unreplicated stages pass
    /// through unchanged with an empty replica map. The shards' combined
    /// `items_in` is the stage's logical input count.
    pub fn rollup_stages(&self) -> BTreeMap<String, StageRollup> {
        let mut out: BTreeMap<String, StageRollup> = BTreeMap::new();
        for (name, snap) in &self.stages {
            let split = name
                .strip_suffix(']')
                .and_then(|n| n.split_once('['))
                .map(|(base, dim)| (base.to_string(), dim.to_string()));
            match split {
                Some((base, dim)) => {
                    let entry = out.entry(base).or_insert_with(|| StageRollup {
                        combined: StageSnapshot::default(),
                        replicas: BTreeMap::new(),
                    });
                    if dim.parse::<usize>().is_ok() {
                        entry.combined.merge(snap);
                    }
                    entry.replicas.insert(dim, snap.clone());
                }
                None => {
                    out.insert(
                        name.clone(),
                        StageRollup { combined: snap.clone(), replicas: BTreeMap::new() },
                    );
                }
            }
        }
        out
    }

    /// Serialises the snapshot as one JSON object (schema documented in the
    /// repository README under *Metrics snapshot schema*).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(1024);
        out.push_str("{\"stages\":{");
        for (i, (name, s)) in self.stages.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::escape_into(&mut out, name);
            out.push_str(&format!(
                ":{{\"items_in\":{},\"items_out\":{},\"process_ns\":",
                s.items_in, s.items_out
            ));
            s.process_ns.json_into(&mut out);
            out.push_str(&format!(
                ",\"faults\":{},\"panics\":{},\"skipped\":{},\"dead_letters\":{},\"checkpoints\":{},\"restores\":{},\"replayed_items\":{},\"recovery_ns\":{}",
                s.faults, s.panics, s.skipped, s.dead_letters,
                s.checkpoints, s.restores, s.replayed_items, s.recovery_ns
            ));
            out.push_str(&format!(
                ",\"held\":{},\"held_high_water\":{}}}",
                s.held, s.held_high_water
            ));
        }
        out.push_str("},\"queues\":{");
        for (i, (name, q)) in self.queues.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::escape_into(&mut out, name);
            out.push_str(&format!(
                ":{{\"depth\":{},\"depth_high_water\":{},\"sent\":{},\"received\":{},\"send_stalls\":{},\"stall_ns\":{}",
                q.depth, q.depth_high_water, q.sent, q.received, q.send_stalls, q.stall_ns
            ));
            // Batch sizes count items, not nanoseconds, so they get their own
            // compact object instead of the `*_ns` histogram schema.
            let b = &q.batch_sizes;
            out.push_str(&format!(
                ",\"batch_sizes\":{{\"count\":{},\"sum\":{},\"min\":{},\"max\":{},\"mean\":",
                b.count, b.sum_ns, b.min_ns, b.max_ns
            ));
            json::float_into(&mut out, b.mean_ns());
            out.push_str(&format!(
                ",\"p50\":{},\"p99\":{}}}}}",
                b.quantile_ns(0.50),
                b.quantile_ns(0.99)
            ));
        }
        out.push_str("},\"counters\":{");
        for (i, (name, v)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::escape_into(&mut out, name);
            out.push_str(&format!(":{v}"));
        }
        out.push_str("},\"histograms\":{");
        for (i, (name, h)) in self.histograms.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            json::escape_into(&mut out, name);
            out.push(':');
            h.json_into(&mut out);
        }
        out.push_str("}}");
        out
    }

    /// Renders a fixed-width per-stage/per-queue summary table.
    pub fn render_table(&self) -> String {
        fn ms(ns: f64) -> String {
            format!("{:.3}", ns / 1e6)
        }
        let mut out = String::new();
        out.push_str(&format!(
            "{:<28} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8}\n",
            "stage", "in", "out", "mean ms", "p99 ms", "max ms", "faults"
        ));
        for (name, s) in &self.stages {
            out.push_str(&format!(
                "{:<28} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8}\n",
                name,
                s.items_in,
                s.items_out,
                ms(s.process_ns.mean_ns()),
                ms(s.process_ns.quantile_ns(0.99) as f64),
                ms(s.process_ns.max_ns as f64),
                s.faults,
            ));
        }
        let recovering: Vec<(&String, &StageSnapshot)> = self
            .stages
            .iter()
            .filter(|(_, s)| s.checkpoints > 0 || s.restores > 0 || s.replayed_items > 0)
            .collect();
        if !recovering.is_empty() {
            out.push('\n');
            out.push_str(&format!(
                "{:<28} {:>10} {:>10} {:>10} {:>12}\n",
                "recovery", "ckpts", "restores", "replayed", "recovery ms"
            ));
            for (name, s) in recovering {
                out.push_str(&format!(
                    "{:<28} {:>10} {:>10} {:>10} {:>12}\n",
                    name,
                    s.checkpoints,
                    s.restores,
                    s.replayed_items,
                    ms(s.recovery_ns as f64),
                ));
            }
        }
        let holding: Vec<(&String, &StageSnapshot)> =
            self.stages.iter().filter(|(_, s)| s.held_high_water > 0).collect();
        if !holding.is_empty() {
            out.push('\n');
            out.push_str(&format!("{:<28} {:>10} {:>10}\n", "holding", "held", "held hwm"));
            for (name, s) in holding {
                out.push_str(&format!("{:<28} {:>10} {:>10}\n", name, s.held, s.held_high_water));
            }
        }
        out.push('\n');
        out.push_str(&format!(
            "{:<28} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9}\n",
            "queue", "sent", "received", "hwm", "stalls", "stall ms", "avg batch"
        ));
        for (name, q) in &self.queues {
            out.push_str(&format!(
                "{:<28} {:>10} {:>10} {:>10} {:>10} {:>10} {:>9.1}\n",
                name,
                q.sent,
                q.received,
                q.depth_high_water,
                q.send_stalls,
                ms(q.stall_ns as f64),
                q.batch_sizes.mean_ns(),
            ));
        }
        if !self.histograms.is_empty() {
            out.push('\n');
            out.push_str(&format!(
                "{:<28} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                "timer", "count", "mean ms", "p50 ms", "p99 ms", "max ms"
            ));
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "{:<28} {:>10} {:>10} {:>10} {:>10} {:>10}\n",
                    name,
                    h.count,
                    ms(h.mean_ns()),
                    ms(h.quantile_ns(0.50) as f64),
                    ms(h.quantile_ns(0.99) as f64),
                    ms(h.max_ns as f64),
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_basics() {
        let c = Counter::default();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);

        let g = Gauge::default();
        g.add(3);
        g.add(2);
        g.add(-4);
        assert_eq!(g.get(), 1);
        assert_eq!(g.high_water(), 5);
        g.set(10);
        assert_eq!((g.get(), g.high_water()), (10, 10));
    }

    #[test]
    fn histogram_buckets_and_quantiles() {
        let h = Histogram::default();
        assert_eq!(h.snapshot().quantile_ns(0.5), 0, "empty histogram");
        for ns in [100, 200, 400, 800, 100_000] {
            h.record_ns(ns);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 5);
        assert_eq!(s.min_ns, 100);
        assert_eq!(s.max_ns, 100_000);
        assert_eq!(s.sum_ns, 101_500);
        assert!((s.mean_ns() - 20_300.0).abs() < 1e-9);
        // p50 is the 3rd sample (400 ns) → bucket [256, 512) → upper 512.
        assert_eq!(s.quantile_ns(0.5), 512);
        // p99 lands in the top sample's bucket, clamped to the observed max.
        assert_eq!(s.quantile_ns(0.99), 100_000);
    }

    #[test]
    fn histogram_extremes_do_not_panic() {
        let h = Histogram::default();
        h.record_ns(0); // clamps into the first bucket
        h.record_ns(u64::MAX); // clamps into the last bucket
        h.record(Duration::from_secs(1));
        let s = h.snapshot();
        assert_eq!(s.count, 3);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[HISTOGRAM_BUCKETS - 1], 1);
    }

    #[test]
    fn registry_reuses_instruments() {
        let r = MetricsRegistry::new();
        r.stage("rtec").items_in.add(7);
        r.stage("rtec").items_in.inc();
        r.queue("sde").depth.add(3);
        r.counter("alerts").add(2);
        r.histogram("window").record_ns(1000);
        let snap = r.snapshot();
        assert_eq!(snap.stages["rtec"].items_in, 8);
        assert_eq!(snap.queues["sde"].depth_high_water, 3);
        assert_eq!(snap.counters["alerts"], 2);
        assert_eq!(snap.histograms["window"].count, 1);
    }

    #[test]
    fn instruments_are_thread_safe() {
        let r = Arc::new(MetricsRegistry::new());
        let stage = r.stage("s");
        std::thread::scope(|scope| {
            for _ in 0..4 {
                let stage = Arc::clone(&stage);
                scope.spawn(move || {
                    for _ in 0..10_000 {
                        stage.items_in.inc();
                        stage.process_ns.record_ns(50);
                    }
                });
            }
        });
        let snap = r.snapshot();
        assert_eq!(snap.stages["s"].items_in, 40_000);
        assert_eq!(snap.stages["s"].process_ns.count, 40_000);
    }

    #[test]
    fn rollup_groups_replicated_stages() {
        let r = MetricsRegistry::new();
        r.stage("rtec[part]").items_in.add(100);
        r.stage("rtec[0]").items_in.add(60);
        r.stage("rtec[0]").process_ns.record_ns(100);
        r.stage("rtec[1]").items_in.add(40);
        r.stage("rtec[1]").process_ns.record_ns(300);
        r.stage("rtec[1]").faults.add(2);
        r.stage("rtec[merge]").items_in.add(100);
        r.stage("plain").items_in.add(5);
        let rollup = r.snapshot().rollup_stages();

        let rtec = &rollup["rtec"];
        assert_eq!(rtec.combined.items_in, 100, "shards only; part/merge excluded");
        assert_eq!(rtec.combined.faults, 2);
        assert_eq!(rtec.combined.process_ns.count, 2);
        assert_eq!(rtec.combined.process_ns.sum_ns, 400);
        assert_eq!(rtec.combined.process_ns.min_ns, 100);
        assert_eq!(rtec.combined.process_ns.max_ns, 300);
        assert_eq!(
            rtec.replicas.keys().collect::<Vec<_>>(),
            ["0", "1", "merge", "part"],
            "every role keeps its own row"
        );
        assert_eq!(rtec.replicas["part"].items_in, 100);

        let plain = &rollup["plain"];
        assert_eq!(plain.combined.items_in, 5);
        assert!(plain.replicas.is_empty());
    }

    #[test]
    fn snapshot_serialises_and_renders() {
        let r = MetricsRegistry::new();
        r.stage("rtec-north").items_in.add(10);
        r.stage("rtec-north").items_out.add(2);
        r.stage("rtec-north").process_ns.record_ns(2_000_000);
        r.queue("sde-north").sent.add(10);
        r.queue("sde-north").batch_sizes.record_ns(4);
        r.histogram("rtec.window_ns").record_ns(5_000_000);
        let snap = r.snapshot();

        let json = snap.to_json();
        for needle in [
            "\"stages\":{\"rtec-north\":{\"items_in\":10,\"items_out\":2",
            "\"queues\":{\"sde-north\":{\"depth\":0",
            "\"batch_sizes\":{\"count\":1,\"sum\":4,\"min\":4,\"max\":4",
            "\"histograms\":{\"rtec.window_ns\":{\"count\":1",
            "\"p99_ns\":",
        ] {
            assert!(json.contains(needle), "JSON missing {needle}: {json}");
        }

        let table = snap.render_table();
        assert!(table.contains("rtec-north"));
        assert!(table.contains("sde-north"));
        assert!(table.contains("rtec.window_ns"));
    }
}
