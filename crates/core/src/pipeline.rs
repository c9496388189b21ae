//! The Streams topology of §3.
//!
//! Reproduces the paper's stream processing component layout:
//!
//! * **input handling processes** — all bus SDEs form one stream; SCATS SDEs
//!   are referenced by four streams, one per region of Dublin city; the feed
//!   processes forward every SDE into one `sde` queue;
//! * **event processing processes** — the CE definitions are wrapped by a
//!   processor embedding the RTEC engine in the Streams environment; the
//!   RTEC stage runs as keyed shard replicas partitioned by `region`
//!   ([`insight_streams::partition`]), realising the paper's one-engine-per-
//!   region decomposition as data parallelism; derived CEs are emitted to a
//!   queue;
//! * **crowdsourcing processes** — one `crowd-em` stage takes the
//!   summaries in canonical `(query_time, region)` order; for each
//!   disagreement it selects workers, simulates their answers and merges
//!   them into the online EM, then hands the summary to the collecting sink.
//!   The crowd carries one summary per region window, a fraction of a
//!   percent of the items, so the stage is not sharded.
//!
//! The RTEC processor buffers SDE items, and whenever the arrival time
//! crosses the next query time it runs recognition and emits one summary
//! item per window (CE counts + the disagreement locations to be
//! crowdsourced). Every stage hands a summary on in the call that finished
//! it — the SDE that fires six queued queries leaves with six summaries —
//! so a recognition reaches the sink as fast as the path carries it, not
//! when the next burst of input pushes it out.
//!
//! The RTEC shard count is controlled by [`PipelineOptions`]; the
//! recognition output is identical (in the canonical form of
//! [`crate::replay::canonical_recognitions`]) for every shard count,
//! including 1.

use crate::items::item_to_sde;
use insight_datagen::regions::Region;
use insight_datagen::scats::ScatsDeployment;
use insight_datagen::scenario::Scenario;
use insight_rtec::compile::CompiledPlan;
use insight_rtec::window::WindowConfig;
use insight_streams::chaos::{ChaosConfig, ChaosSource, KillAt, KillSwitch};
use insight_streams::checkpoint::{corrupt, Checkpointable, FieldWriter, Fields};
use insight_streams::error::StreamsError;
use insight_streams::fault::FaultPolicy;
use insight_streams::item::DataItem;
use insight_streams::metrics::{Counter, Histogram, MetricsRegistry, StageMetrics};
use insight_streams::processor::{Context, Processor};
use insight_streams::sink::CollectSink;
use insight_streams::source::VecSource;
use insight_streams::topology::{Input, Output, Topology};
use insight_traffic::recognizer::TrafficRecognizer;
use insight_traffic::TrafficRulesConfig;
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

/// Embeds a [`TrafficRecognizer`] as a Streams processor ("we integrated
/// RTEC by a dedicated processor in Streams", §3).
///
/// # Schedule-independence
///
/// The items a region worker sees interleave two producers — the bus feed
/// and the region's SCATS feed — in scheduler-determined order (the `sde`
/// queue merges the feeds; the partitioner and merge of the sharded stage
/// preserve each producer's FIFO order end to end). To make recognition
/// output a pure function of the two *per-producer* subsequences rather
/// than of their merge, query `Qi` fires only once the **arrival watermark
/// of each input class** (bus, SCATS) has strictly passed `Qi`: each
/// producer emits in nondecreasing arrival order, so a watermark beyond
/// `Qi` proves every SDE with `arrival ≤ Qi` of that class has been
/// ingested. Queries whose gate never opens in-stream (e.g. a region
/// without SCATS sensors, or whose bus watermark never passes the last grid
/// point) are flushed at end-of-stream, where the knowledge is complete by
/// definition — so the *set* of fired queries depends only on the region's
/// data, never on the schedule or the shard count. The deterministic replay
/// scheduler ([`insight_streams::replay::ReplayRuntime`]) relies on exactly
/// this property to assert byte-identical recognitions across
/// interleavings.
///
/// # Faults
///
/// A call that fires several queries advances the query cursor with each
/// one and fails as a whole if any of them does, and a failed call's emitted
/// summaries are discarded by the runtime. So under `Restart`, which rolls
/// the state back to a checkpoint (the pipeline's `recovering` options), the
/// re-run fires all of them again and nothing is lost; under `Skip` or
/// `DeadLetter`, which keep the state a failed call left behind, the
/// summaries of the queries that had already succeeded in that call are
/// lost with it. A query fails only on a misconfigured or misused engine
/// (`RtecError`), never on data, so there is nothing for those two policies
/// to skip past.
///
/// One per region, built by [`MultiRegionRtecProcessor`].
struct RtecProcessor {
    recognizer: TrafficRecognizer,
    next_query: i64,
    step: i64,
    last_query: i64,
    region: Region,
    /// Highest arrival time seen on the bus input class (`i64::MIN` before
    /// the first bus SDE).
    bus_watermark: i64,
    /// Highest arrival time seen on the SCATS input class.
    scats_watermark: i64,
    /// Highest arrival time seen on any input item, bounding the queries
    /// flushed at end-of-stream.
    max_arrival: i64,
    /// Per-window RTEC query latency, fetched lazily from the runtime's
    /// metrics service (absent when the processor runs outside a runtime).
    window_ns: Option<Arc<Histogram>>,
    /// Items that failed SDE schema validation and were skipped.
    malformed: Option<Arc<Counter>>,
    /// Incremental-evaluation effort counters, summed over queries.
    eval_counters: Option<EvalCounters>,
}

/// Per-region evaluation-effort metrics: strata actually re-evaluated,
/// fluent groundings recomputed, window-cycle heap allocations, the solver's
/// counted work (steps taken, candidates examined — exact per trace, unlike
/// any timer) and the per-window store refill/re-index time. Clean cache
/// hits add nothing, so the counters expose how much work delta-awareness
/// saved; the allocation counter stops growing once the engine's retained
/// state has sized to the working set.
#[derive(Clone)]
struct EvalCounters {
    strata: Arc<Counter>,
    groundings: Arc<Counter>,
    allocations: Arc<Counter>,
    solver_steps: Arc<Counter>,
    candidates: Arc<Counter>,
    /// Store work, counted like the solver's: input facts written into the
    /// window stores, facts that left them, derived events written.
    facts_admitted: Arc<Counter>,
    facts_expired: Arc<Counter>,
    derived_written: Arc<Counter>,
    /// Late SDEs per outcome: admitted into the window overlap after a
    /// query had already passed their occurrence, or dropped unseen because
    /// they arrived behind the window start.
    sdes_amended: Arc<Counter>,
    sdes_lost: Arc<Counter>,
    rebuild_ns: Arc<Histogram>,
}

impl RtecProcessor {
    /// Wraps a recogniser; queries run at `first_query, first_query + step, …`.
    fn new(
        recognizer: TrafficRecognizer,
        first_query: i64,
        step: i64,
        region: Region,
    ) -> RtecProcessor {
        RtecProcessor {
            recognizer,
            next_query: first_query,
            step,
            last_query: i64::MIN,
            region,
            bus_watermark: i64::MIN,
            scats_watermark: i64::MIN,
            max_arrival: i64::MIN,
            window_ns: None,
            malformed: None,
            eval_counters: None,
        }
    }

    fn window_histogram(&mut self, ctx: &Context) -> Option<Arc<Histogram>> {
        if self.window_ns.is_none() {
            if let Ok(registry) = ctx.services().get::<MetricsRegistry>("metrics") {
                self.window_ns =
                    Some(registry.histogram(&format!("rtec.{}.window_ns", self.region)));
            }
        }
        self.window_ns.clone()
    }

    fn malformed_counter(&mut self, ctx: &Context) -> Option<Arc<Counter>> {
        if self.malformed.is_none() {
            if let Ok(registry) = ctx.services().get::<MetricsRegistry>("metrics") {
                self.malformed =
                    Some(registry.counter(&format!("rtec.{}.malformed_sdes", self.region)));
            }
        }
        self.malformed.clone()
    }

    fn evaluation_counters(&mut self, ctx: &Context) -> Option<EvalCounters> {
        if self.eval_counters.is_none() {
            if let Ok(registry) = ctx.services().get::<MetricsRegistry>("metrics") {
                let counter =
                    |what: &str| registry.counter(&format!("rtec.{}.{what}", self.region));
                self.eval_counters = Some(EvalCounters {
                    strata: counter("strata_evaluated"),
                    groundings: counter("groundings_recomputed"),
                    allocations: counter("window_allocations"),
                    solver_steps: counter("solver_steps"),
                    candidates: counter("candidates"),
                    facts_admitted: counter("facts_admitted"),
                    facts_expired: counter("facts_expired"),
                    derived_written: counter("derived_written"),
                    sdes_amended: counter("sdes_amended"),
                    sdes_lost: counter("sdes_lost"),
                    rebuild_ns: registry
                        .histogram(&format!("rtec.{}.cache_rebuild_ns", self.region)),
                });
            }
        }
        self.eval_counters.clone()
    }

    /// Runs query `q` and emits its summary.
    fn run_query(&mut self, q: i64, ctx: &mut Context) -> Result<(), StreamsError> {
        let result = self.recognizer.query(q).map_err(|e| StreamsError::ProcessorFailed {
            process: format!("rtec-{}", self.region),
            processor: None,
            message: e.to_string(),
        })?;
        let query_ns = result.raw.timing.total.as_nanos().min(i64::MAX as u128) as i64;
        if let Some(hist) = self.window_histogram(ctx) {
            hist.record_ns(query_ns as u64);
        }
        if let Some(c) = self.evaluation_counters(ctx) {
            let timing = &result.raw.timing;
            c.strata.add(timing.strata_evaluated as u64);
            c.groundings.add(timing.groundings_recomputed as u64);
            c.allocations.add(timing.window_allocations);
            c.solver_steps.add(timing.solver_steps);
            c.candidates.add(timing.candidates_examined);
            c.facts_admitted.add(timing.facts_admitted);
            c.facts_expired.add(timing.facts_expired);
            c.derived_written.add(timing.derived_written);
            c.sdes_amended.add(timing.facts_amended);
            c.sdes_lost.add(timing.facts_lost);
            c.rebuild_ns.record(timing.cache_rebuild);
        }
        let mut item = DataItem::new()
            .with("kind", "recognition")
            .with("region", self.region.to_string())
            .with("query_time", q)
            .with("recognition_ns", query_ns)
            .with("sde_count", result.sde_count() as i64)
            .with("congested_intersections", result.congested_intersections().len() as i64)
            .with("bus_congestions", result.bus_congestions().len() as i64)
            .with("noisy_buses", result.noisy_buses().len() as i64)
            .with("delay_increases", result.delay_increase_count() as i64);
        let open = result.open_disagreements();
        item.set("open_disagreements", open.len() as i64);
        if let Some(&(lon, lat)) = open.first() {
            item.set("disagreement_lon", lon);
            item.set("disagreement_lat", lat);
        }
        ctx.emit(item);
        self.last_query = q;
        Ok(())
    }
}

impl Processor for RtecProcessor {
    fn process(
        &mut self,
        item: DataItem,
        ctx: &mut Context,
    ) -> Result<Option<DataItem>, StreamsError> {
        match item_to_sde(&item) {
            Some(sde) => {
                // Watermarks advance on *every* well-formed SDE, including
                // foreign-region bus SDEs that are filtered out below — they
                // still prove how far their producer has progressed.
                if sde.is_bus() {
                    self.bus_watermark = self.bus_watermark.max(sde.arrival);
                } else {
                    self.scats_watermark = self.scats_watermark.max(sde.arrival);
                }
                self.max_arrival = self.max_arrival.max(sde.arrival);
                if sde.region() == self.region {
                    self.recognizer.ingest(&sde).map_err(|e| StreamsError::ProcessorFailed {
                        process: format!("rtec-{}", self.region),
                        processor: None,
                        message: e.to_string(),
                    })?;
                }
                // Fire every query both classes have strictly passed — one
                // SCATS report can settle several — and emit each summary
                // now; SDEs already ingested with later arrivals are
                // invisible to those queries, so ingestion order never leaks
                // into the result. If query k of the call fails, the cursor
                // has moved past the k − 1 before it and the runtime drops
                // what a failed call emitted (see "Faults" above).
                while self.bus_watermark.min(self.scats_watermark) > self.next_query {
                    let q = self.next_query;
                    self.run_query(q, ctx)?;
                    self.next_query += self.step;
                }
            }
            // Graceful degradation: a malformed SDE (schema violation,
            // corrupted field) is skipped and counted rather than failing
            // the recognition stage. It carries no trustworthy arrival time,
            // so it does not advance the watermarks either.
            None => {
                if let Some(counter) = self.malformed_counter(ctx) {
                    counter.inc();
                }
            }
        }
        Ok(None)
    }

    fn finish(&mut self, ctx: &mut Context) -> Result<Vec<DataItem>, StreamsError> {
        // End-of-stream: the knowledge is complete, so every query the
        // watermark gate still held back fires now, up to the last grid
        // point the stream reached...
        while self.next_query <= self.max_arrival {
            let q = self.next_query;
            self.run_query(q, ctx)?;
            self.next_query += self.step;
        }
        // ...plus one final query covering the tail of the stream.
        let q = self.next_query;
        if q > self.last_query {
            self.run_query(q, ctx)?;
        }
        Ok(Vec::new())
    }

    fn as_checkpointable(&mut self) -> Option<&mut dyn Checkpointable> {
        Some(self)
    }
}

/// Serialises items one JSON object per line (the reverse of
/// [`items_from_lines`]); items round-trip exactly, floats included, via the
/// shortest-round-trip encoding of [`insight_streams::json`].
fn items_to_lines<'a>(items: impl Iterator<Item = &'a DataItem>) -> String {
    items.map(DataItem::to_json).collect::<Vec<_>>().join("\n")
}

fn items_from_lines(lines: &str) -> Result<Vec<DataItem>, StreamsError> {
    lines.lines().map(DataItem::from_json).collect()
}

/// The query grid cursor and the per-class arrival watermarks, written in
/// full at every barrier.
const RTEC_CLOCK: [&str; 5] =
    ["next_query", "last_query", "bus_watermark", "scats_watermark", "max_arrival"];

impl RtecProcessor {
    fn clock(&mut self) -> [&mut i64; 5] {
        [
            &mut self.next_query,
            &mut self.last_query,
            &mut self.bus_watermark,
            &mut self.scats_watermark,
            &mut self.max_arrival,
        ]
    }

    /// The `region` and `engine` fields, then the clock. `engine` is what
    /// `write` appends: a full engine snapshot or a delta, or nothing — in
    /// which case nothing is written.
    fn write(
        &mut self,
        out: &mut Vec<u8>,
        write: impl FnOnce(&mut TrafficRecognizer, &mut Vec<u8>) -> bool,
    ) -> bool {
        let at = out.len();
        let mut w = FieldWriter::new(out);
        w.str("region", self.region.name());
        if !w.with("engine", |out| write(&mut self.recognizer, out)) {
            out.truncate(at);
            return false;
        }
        let mut w = FieldWriter::new(out);
        for (name, v) in RTEC_CLOCK.iter().zip(self.clock()) {
            w.i64(name, *v);
        }
        true
    }
}

/// The worker's semantic state is the engine's checkpoint plus the query
/// grid cursor and the per-class arrival watermarks — a summary leaves in
/// the call that produced it, so there is no output to carry across a
/// barrier. A barrier writes the engine's delta when it has one, the clock
/// in full either way. The configuration (`step`, `region`) is rebuilt by
/// the processor factory and only recorded to detect a checkpoint restored
/// into the wrong worker.
impl Checkpointable for RtecProcessor {
    fn snapshot(&mut self, out: &mut Vec<u8>) {
        self.write(out, |engine, out| {
            engine.checkpoint_full(out);
            true
        });
    }

    fn delta(&mut self, out: &mut Vec<u8>) -> bool {
        self.write(out, TrafficRecognizer::checkpoint_delta)
    }

    fn restore(&mut self, snapshot: &[u8], deltas: &[&[u8]]) -> Result<(), StreamsError> {
        let parts = std::iter::once(snapshot)
            .chain(deltas.iter().copied())
            .map(Fields::parse)
            .collect::<Result<Vec<_>, _>>()?;
        let mut engine = Vec::with_capacity(parts.len());
        for part in &parts {
            let region = part.str("region")?;
            if region != self.region.name() {
                return Err(corrupt(&format!(
                    "checkpoint is for region `{region}`, worker serves `{}`",
                    self.region
                )));
            }
            engine.push(part.bytes("engine")?);
        }
        self.recognizer
            .restore_chain(engine[0], &engine[1..])
            .map_err(|e| corrupt(&e.to_string()))?;
        let last = parts.last().expect("the snapshot is a part");
        let clock: Vec<i64> =
            RTEC_CLOCK.iter().map(|name| last.i64(name)).collect::<Result<_, _>>()?;
        for (v, read) in self.clock().into_iter().zip(clock) {
            *v = read;
        }
        Ok(())
    }
}

/// One replica of the sharded RTEC stage: routes each SDE to a per-region
/// `RtecProcessor` worker, created lazily on the region's first item.
///
/// The stage partitions by the `region` attribute (with the four region
/// names declared as partition hints, so each replica hosts a disjoint
/// subset of the four region engines for every replica count). An item
/// whose routing attribute disagrees with the *semantic* region recomputed
/// from its coordinates (what [`crate::items::sde_to_item`] derived the
/// attribute from) was corrupted in flight: it is counted as malformed and
/// dropped rather than processed, because which shard a corrupted key
/// routes to is an accident of the hash — honouring it would split one
/// region's stream across two replicas' engines and make the summary set
/// depend on the replica count.
///
/// Because every region's items carry the same partition key, the region's
/// entire stream — and therefore its engine, watermarks, and query grid —
/// lives behind a single replica's FIFO input for any replica count, which
/// is what makes the recognition output shard-count-invariant.
pub(crate) struct MultiRegionRtecProcessor {
    rules: Arc<TrafficRulesConfig>,
    /// The rule library compiled once at build time; every replica's region
    /// engines — including those of a replica rebuilt by the `Restart`
    /// supervisor — evaluate this one plan (it holds no window state).
    plan: Arc<CompiledPlan>,
    window: WindowConfig,
    /// The SCATS deployment every region engine takes its intersections and
    /// sensors from, shared across replicas.
    scats: Arc<ScatsDeployment>,
    first_query: i64,
    /// Lazily created per-region workers, in deterministic region order for
    /// the end-of-stream flush.
    states: BTreeMap<Region, RtecProcessor>,
    /// Items that failed SDE schema validation, counted stage-wide (a
    /// malformed item has no trustworthy region).
    malformed: Option<Arc<Counter>>,
}

impl MultiRegionRtecProcessor {
    /// A replica serving queries at `first_query, first_query + step, …` per
    /// region (step taken from `window`). `plan` must be the compiled form
    /// of `rules` (see [`TrafficRecognizer::with_plan`]).
    pub(crate) fn new(
        rules: Arc<TrafficRulesConfig>,
        plan: Arc<CompiledPlan>,
        window: WindowConfig,
        scats: Arc<ScatsDeployment>,
        first_query: i64,
    ) -> MultiRegionRtecProcessor {
        MultiRegionRtecProcessor {
            rules,
            plan,
            window,
            scats,
            first_query,
            states: BTreeMap::new(),
            malformed: None,
        }
    }

    fn state_for(&mut self, region: Region) -> Result<&mut RtecProcessor, StreamsError> {
        if !self.states.contains_key(&region) {
            let recognizer = TrafficRecognizer::with_plan(
                Arc::clone(&self.plan),
                (*self.rules).clone(),
                self.window,
                &self.scats,
                Some(region),
            )
            .map_err(|e| StreamsError::ProcessorFailed {
                process: format!("rtec[{region}]"),
                processor: None,
                message: e.to_string(),
            })?;
            self.states.insert(
                region,
                RtecProcessor::new(recognizer, self.first_query, self.window.step(), region),
            );
        }
        Ok(self.states.get_mut(&region).expect("just inserted"))
    }

    fn malformed_counter(&mut self, ctx: &Context) -> Option<Arc<Counter>> {
        if self.malformed.is_none() {
            if let Ok(registry) = ctx.services().get::<MetricsRegistry>("metrics") {
                self.malformed = Some(registry.counter("rtec.malformed_sdes"));
            }
        }
        self.malformed.clone()
    }
}

impl Processor for MultiRegionRtecProcessor {
    fn process(
        &mut self,
        item: DataItem,
        ctx: &mut Context,
    ) -> Result<Option<DataItem>, StreamsError> {
        // The `region` routing attribute must agree with the semantic
        // region derived from the coordinates. A mismatch means the item
        // was corrupted in flight, and which shard it then lands on is an
        // accident of the routing function — honouring it would let the
        // same region's stream split across two replicas' engines, making
        // the summary set depend on the replica count. Rejecting it here is
        // a per-item decision, identical for every shard shape.
        let valid =
            item_to_sde(&item).filter(|sde| item.get_str("region") == Some(sde.region().name()));
        match valid {
            Some(sde) => self.state_for(sde.region())?.process(item, ctx),
            None => {
                if let Some(counter) = self.malformed_counter(ctx) {
                    counter.inc();
                }
                Ok(None)
            }
        }
    }

    fn finish(&mut self, ctx: &mut Context) -> Result<Vec<DataItem>, StreamsError> {
        for state in self.states.values_mut() {
            state.finish(ctx)?;
        }
        Ok(Vec::new())
    }

    fn as_checkpointable(&mut self) -> Option<&mut dyn Checkpointable> {
        Some(self)
    }
}

/// One field per lazily created region worker, named after its region and
/// holding that worker's snapshot or delta. A barrier writes a delta only if
/// every region worker has one — a region first seen since the previous
/// barrier makes it a full snapshot. Restore rebuilds each worker through
/// the normal lazy path and then restores its chain, so a region the
/// replica had not seen yet simply has no field.
impl Checkpointable for MultiRegionRtecProcessor {
    fn snapshot(&mut self, out: &mut Vec<u8>) {
        let mut w = FieldWriter::new(out);
        for (region, state) in &mut self.states {
            w.with(region.name(), |out| state.snapshot(out));
        }
    }

    fn delta(&mut self, out: &mut Vec<u8>) -> bool {
        let at = out.len();
        let mut w = FieldWriter::new(out);
        for (region, state) in &mut self.states {
            if !w.with(region.name(), |out| state.delta(out)) {
                out.truncate(at);
                return false;
            }
        }
        true
    }

    fn restore(&mut self, snapshot: &[u8], deltas: &[&[u8]]) -> Result<(), StreamsError> {
        let base = Fields::parse(snapshot)?;
        let deltas = deltas.iter().map(|d| Fields::parse(d)).collect::<Result<Vec<_>, _>>()?;
        self.states.clear();
        for name in base.names() {
            let region = Region::ALL
                .into_iter()
                .find(|r| r.name() == name)
                .ok_or_else(|| corrupt(&format!("unknown region `{name}`")))?;
            let chain = deltas.iter().map(|d| d.bytes(name)).collect::<Result<Vec<_>, _>>()?;
            self.state_for(region)?.restore(base.bytes(name)?, &chain)?;
        }
        Ok(())
    }
}

/// The canonical-order gate of the crowd-EM stage ([`CrowdEmProcessor`]).
///
/// The EM estimate depends on the *order* of merges, while summaries reach
/// the stage from one producer per region in scheduler-determined
/// interleaving. To keep the verdicts a pure function
/// of the region streams, summaries carrying a disagreement are held here
/// and handed back in canonical `(query_time, region)` order, an entry only
/// once every declared region's **query-time watermark** has reached its
/// query time (each region emits summaries in strictly increasing query
/// time, and the sharded RTEC stage preserves per-region FIFO order end to
/// end, so the watermark proves no earlier-keyed summary can still arrive).
/// Summaries without a disagreement touch no crowd state and are not held.
struct CanonicalGate {
    /// The regions expected to produce summaries; the gate waits for all of
    /// them. Empty ⇒ nothing is released before end-of-stream.
    regions: Vec<String>,
    /// Per-region highest `query_time` seen so far.
    watermarks: HashMap<String, i64>,
    /// Disagreement summaries awaiting their turn, keyed by
    /// `(query_time, region)`.
    held: BTreeMap<(i64, String), Vec<DataItem>>,
    /// The owning stage's instruments (`None` until first used, and outside
    /// a runtime).
    stage: Option<Arc<StageMetrics>>,
}

impl CanonicalGate {
    fn new() -> CanonicalGate {
        CanonicalGate {
            regions: Vec::new(),
            watermarks: HashMap::new(),
            held: BTreeMap::new(),
            stage: None,
        }
    }

    /// Advances the item's region watermark and holds the item if it carries
    /// a disagreement; anything else is handed straight back.
    fn admit(&mut self, item: DataItem) -> Option<DataItem> {
        let (Some(region), Some(q)) = (item.get_str("region"), item.get_i64("query_time")) else {
            return Some(item);
        };
        let region = region.to_string();
        let wm = self.watermarks.entry(region.clone()).or_insert(i64::MIN);
        *wm = (*wm).max(q);
        if !item.contains("disagreement_lon") {
            return Some(item);
        }
        self.held.entry((q, region)).or_default().push(item);
        None
    }

    /// Removes every held summary the watermark frontier — the lowest
    /// per-region watermark, once every declared region has reported — has
    /// reached, in canonical order; `everything` ignores the frontier (the
    /// knowledge is complete at end-of-stream).
    fn take_ready(&mut self, everything: bool, ctx: &Context) -> Vec<DataItem> {
        let frontier = if everything {
            Some(i64::MAX)
        } else if self.regions.is_empty() {
            None
        } else {
            self.regions
                .iter()
                .map(|r| self.watermarks.get(r).copied())
                .try_fold(i64::MAX, |acc, wm| wm.map(|w| acc.min(w)))
        };
        let mut ready = Vec::new();
        if let Some(frontier) = frontier {
            while let Some(entry) = self.held.first_entry() {
                if entry.key().0 > frontier {
                    break;
                }
                ready.append(&mut entry.remove());
            }
        }
        if self.stage.is_none() {
            self.stage = ctx.stage_metrics();
        }
        if let Some(stage) = &self.stage {
            let held: usize = self.held.values().map(Vec::len).sum();
            stage.held.set(held as i64);
        }
        ready
    }

    /// Watermarks and held summaries. Held entries are keyed by attributes
    /// the items themselves carry, so restoring re-derives the map keys; the
    /// declared `regions` are configuration, rebuilt by the processor factory.
    fn snapshot_into(&self, w: &mut FieldWriter<'_>) {
        let mut watermarks: Vec<String> =
            self.watermarks.iter().map(|(r, wm)| format!("{r}={wm}")).collect();
        watermarks.sort_unstable();
        w.str("watermarks", &watermarks.join("\n"));
        w.str("held", &items_to_lines(self.held.values().flatten()));
    }

    fn restore_from(&mut self, fields: &Fields<'_>) -> Result<(), StreamsError> {
        self.watermarks.clear();
        for line in fields.str("watermarks")?.lines() {
            let (region, wm) = line
                .split_once('=')
                .ok_or_else(|| corrupt(&format!("bad watermark entry `{line}`")))?;
            let wm =
                wm.parse::<i64>().map_err(|_| corrupt(&format!("bad watermark value `{line}`")))?;
            self.watermarks.insert(region.to_string(), wm);
        }
        self.held.clear();
        for item in items_from_lines(fields.str("held")?)? {
            let (Some(region), Some(q)) =
                (item.get_str("region").map(str::to_string), item.get_i64("query_time"))
            else {
                return Err(corrupt("held summary lost its (query_time, region) key"));
            };
            self.held.entry((q, region)).or_default().push(item);
        }
        Ok(())
    }
}

/// The ground truth the crowd stage's simulated workers answer from:
/// whether the junction nearest `(lon, lat)` is congested at a time.
pub(crate) type TruthOracle = Arc<dyn Fn(f64, f64, i64) -> bool + Send + Sync>;

/// FNV-1a over the identifying fields of a crowd task; combined with the
/// scenario seed this keys all randomness of one simulated task, so the
/// outcome is independent of when the task runs.
fn crowd_task_seed(query_time: i64, region: &str, lon: f64, lat: f64) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x100_0000_01b3);
        }
    };
    eat(&query_time.to_le_bytes());
    eat(region.as_bytes());
    eat(&lon.to_bits().to_le_bytes());
    eat(&lat.to_bits().to_le_bytes());
    h
}

/// The crowd stage's metrics, fetched lazily from the runtime's metrics
/// service.
struct CrowdInstruments {
    task_ns: Arc<Histogram>,
    resolve_ns: Arc<Histogram>,
    resolutions: Arc<Counter>,
    fallbacks: Arc<Counter>,
}

/// The crowdsourcing stage: for each summary carrying an open disagreement
/// it selects workers, simulates their answers
/// ([`CrowdBridge::simulate_task`](crate::crowdbridge::CrowdBridge::simulate_task)),
/// merges them into the online EM in canonical `(query_time, region)` order
/// and annotates the summary with the verdict. Summaries without a
/// disagreement pass straight through.
///
/// # Schedule-independence
///
/// The EM state evolves with every merge, so merge order must not depend on
/// the schedule: disagreement summaries pass a `CanonicalGate`, and every
/// summary it lets through is resolved and emitted in the call whose
/// watermark let it through — the fourth region's summary for a query time
/// releases all four — with the remainder flushed, in the same canonical
/// order, at end-of-stream.
///
/// Tasks run on a second bridge built from the same configuration and seed
/// whose EM is never advanced, so workers are always selected over the
/// initial reliability estimates and each task's answers are a pure
/// function of its `(query_time, region, lon, lat)` key and the seed.
pub(crate) struct CrowdEmProcessor {
    /// Merges every task's answers into the online EM.
    bridge: crate::crowdbridge::CrowdBridge,
    /// Simulates tasks; its EM is never advanced.
    tasks: crate::crowdbridge::CrowdBridge,
    truth_of: TruthOracle,
    seed: u64,
    gate: CanonicalGate,
    instruments: Option<CrowdInstruments>,
    /// Added (wrapping) to the task bridge's own [`TASK_COUNTERS`] to give
    /// the stage's: what a restored barrier had counted, less what the
    /// bridge had counted when it was restored.
    task_offset: [u64; 4],
}

/// The task bridge's counters the stage reports as `crowd.<name>`.
const TASK_COUNTERS: [&str; 4] = ["queries", "tasks", "answers", "deadline_misses"];

impl CrowdEmProcessor {
    /// Builds the EM and task bridges from `config` around `centre`, both
    /// seeded by `seed`, which also salts every task's RNG streams; workers
    /// answer according to `truth_of`. Without
    /// [`CrowdEmProcessor::with_regions`] every merge happens at
    /// end-of-stream.
    pub(crate) fn new(
        config: &crate::crowdbridge::CrowdBridgeConfig,
        centre: (f64, f64),
        seed: u64,
        truth_of: TruthOracle,
    ) -> Result<CrowdEmProcessor, insight_crowd::error::CrowdError> {
        Ok(CrowdEmProcessor {
            bridge: crate::crowdbridge::CrowdBridge::new(config, centre, seed)?,
            tasks: crate::crowdbridge::CrowdBridge::new(config, centre, seed)?,
            truth_of,
            seed,
            gate: CanonicalGate::new(),
            instruments: None,
            task_offset: [0; 4],
        })
    }

    /// The task bridge's [`TASK_COUNTERS`] as counted since it was built.
    fn bridge_task_counts(&self) -> [u64; 4] {
        let stats = self.tasks.engine_stats();
        [stats.queries, stats.tasks, stats.answers, stats.deadline_misses]
    }

    /// The stage's [`TASK_COUNTERS`] over the whole stream, across restores.
    fn task_counts(&self) -> [u64; 4] {
        let raw = self.bridge_task_counts();
        std::array::from_fn(|i| raw[i].wrapping_add(self.task_offset[i]))
    }

    /// Declares the upstream regions whose watermarks gate in-stream merges.
    pub(crate) fn with_regions<I, S>(mut self, regions: I) -> CrowdEmProcessor
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.gate.regions = regions.into_iter().map(Into::into).collect();
        self
    }

    /// Resolves and emits what the gate lets through.
    fn release(&mut self, everything: bool, ctx: &mut Context) {
        for item in self.gate.take_ready(everything, ctx) {
            let resolved = self.resolve(item, ctx);
            ctx.emit(resolved);
        }
    }

    /// One disagreement through the crowd: simulate the task, merge its
    /// answers into the EM and annotate the summary with the verdict. When
    /// either step fails (no eligible workers, engine error) the summary
    /// degrades to sensor-only reporting, marked `crowd_fallback`.
    fn resolve(&mut self, mut item: DataItem, ctx: &Context) -> DataItem {
        let (Some(lon), Some(lat), Some(q)) = (
            item.get_f64("disagreement_lon"),
            item.get_f64("disagreement_lat"),
            item.get_i64("query_time"),
        ) else {
            return item;
        };
        let task_seed = crowd_task_seed(q, item.get_str("region").unwrap_or(""), lon, lat);
        if self.instruments.is_none() {
            if let Ok(registry) = ctx.services().get::<MetricsRegistry>("metrics") {
                self.instruments = Some(CrowdInstruments {
                    task_ns: registry.histogram("crowd.task_ns"),
                    resolve_ns: registry.histogram("crowd.resolve_ns"),
                    resolutions: registry.counter("crowd.resolutions"),
                    fallbacks: registry.counter("crowd.fallbacks"),
                });
            }
        }
        let metrics = self.instruments.as_ref();
        let truth = (self.truth_of)(lon, lat, q);
        let started = Instant::now();
        let task = self.tasks.simulate_task(lon, lat, truth, task_seed ^ self.seed);
        if let (Ok(_), Some(m)) = (&task, metrics) {
            m.task_ns.record(started.elapsed());
        }
        let started = Instant::now();
        match task.and_then(|task| self.bridge.merge_task(&task.answers, None)) {
            Ok(resolution) => {
                if let Some(m) = metrics {
                    m.resolve_ns.record(started.elapsed());
                    m.resolutions.inc();
                }
                item.set("crowd_verdict_congested", resolution.congested);
                item.set("crowd_confidence", resolution.confidence);
                item.set("crowd_answers", resolution.answers as i64);
            }
            Err(_) => {
                if let Some(m) = metrics {
                    m.fallbacks.inc();
                }
                item.set("crowd_fallback", true);
            }
        }
        item
    }
}

impl Processor for CrowdEmProcessor {
    fn process(
        &mut self,
        item: DataItem,
        ctx: &mut Context,
    ) -> Result<Option<DataItem>, StreamsError> {
        // A summary the gate does not hold leaves first, then whatever its
        // watermark released.
        if let Some(unordered) = self.gate.admit(item) {
            ctx.emit(unordered);
        }
        self.release(false, ctx);
        Ok(None)
    }

    fn finish(&mut self, ctx: &mut Context) -> Result<Vec<DataItem>, StreamsError> {
        self.release(true, ctx);
        // Only the task bridge dispatches queries; the EM bridge merges.
        if let Ok(registry) = ctx.services().get::<MetricsRegistry>("metrics") {
            for (name, n) in TASK_COUNTERS.iter().zip(self.task_counts()) {
                registry.counter(&format!("crowd.{name}")).add(n);
            }
        }
        Ok(Vec::new())
    }

    fn as_checkpointable(&mut self) -> Option<&mut dyn Checkpointable> {
        Some(self)
    }
}

/// The evolving state is the EM estimator, the gate (per-region watermarks,
/// held summaries) and the task counters (`task.<name>`, reported at
/// `finish`). A released summary leaves with the call that released it, so
/// nothing else waits across a barrier; the task bridge's selection state
/// never changes. The state is small, so every barrier writes it in full.
///
/// The held summaries stay JSON lines inside their field: a summary is an
/// arbitrary `DataItem` the gate does not interpret, and the Streams JSON
/// codec is the one item codec that is exact and fuzzed (`json_props`);
/// named binary fields would be a second item codec to keep exact beside
/// it, for the few summaries a gate holds at a barrier.
impl Checkpointable for CrowdEmProcessor {
    fn snapshot(&mut self, out: &mut Vec<u8>) {
        let mut w = FieldWriter::new(out);
        w.str("em", &self.bridge.export_em_state());
        self.gate.snapshot_into(&mut w);
        for (name, n) in TASK_COUNTERS.iter().zip(self.task_counts()) {
            w.i64(&format!("task.{name}"), n as i64);
        }
    }

    fn restore(&mut self, snapshot: &[u8], _: &[&[u8]]) -> Result<(), StreamsError> {
        let fields = Fields::parse(snapshot)?;
        self.bridge.import_em_state(fields.str("em")?).map_err(|e| corrupt(&e.to_string()))?;
        self.gate.restore_from(&fields)?;
        let raw = self.bridge_task_counts();
        for (i, name) in TASK_COUNTERS.iter().enumerate() {
            let counted = fields.i64(&format!("task.{name}"))? as u64;
            self.task_offset[i] = counted.wrapping_sub(raw[i]);
        }
        Ok(())
    }
}

/// Shard counts, crash-recovery and fault-injection knobs of the §3
/// topology's stages.
#[derive(Debug, Clone)]
pub struct PipelineOptions {
    /// Replicas of the RTEC stage, partitioned by `region` (values below 1
    /// are clamped to 1; 1 means an ordinary unsharded process).
    pub rtec_replicas: usize,
    /// Checkpoint cadence of the stateful stages (RTEC and crowd-EM): a
    /// barrier every `checkpoint_every` consumed items per worker. 0
    /// disables checkpointing.
    pub checkpoint_every: usize,
    /// Crash supervision: `Some(max)` runs the stateful stages under
    /// [`FaultPolicy::Restart`] with `max` restarts per worker lifetime,
    /// restoring from the latest checkpoint and replaying the logged
    /// suffix. Takes precedence over the chaos-mode `Skip`/dead-letter
    /// defaults on those stages.
    pub restarts: Option<usize>,
    /// Deterministic kill injection on the RTEC stage: panic when the n-th
    /// item (1-based, counted across all replicas) enters a worker. The
    /// [`KillSwitch`] is shared with the rebuilt processors so recovery
    /// traffic never re-fires; `(0, _)` never fires.
    pub kill_rtec_at: Option<(u64, KillSwitch)>,
    /// Deterministic kill injection on the crowd-EM stage, same contract as
    /// [`PipelineOptions::kill_rtec_at`].
    pub kill_crowd_em_at: Option<(u64, KillSwitch)>,
    /// Deterministic fault injection and supervision: every source is
    /// wrapped in a [`ChaosSource`] (seeded per source from `chaos.seed`),
    /// the RTEC replicas run under `Skip` so corrupted or erroring items are
    /// dropped instead of aborting a shard, and the crowd-EM stage
    /// dead-letters failed summaries for post-mortem (read them via
    /// [`Topology::dead_letters`] before `Runtime::new`). Each source's
    /// [`ChaosStats`](insight_streams::chaos::ChaosStats) is registered on
    /// the topology's services as `chaos.<source>`.
    pub chaos: Option<ChaosConfig>,
}

impl Default for PipelineOptions {
    fn default() -> PipelineOptions {
        PipelineOptions::standard()
    }
}

impl PipelineOptions {
    /// The default shard count (4 RTEC replicas — the paper's one engine
    /// per region) with recovery and fault injection disabled.
    pub fn standard() -> PipelineOptions {
        PipelineOptions {
            rtec_replicas: 4,
            checkpoint_every: 0,
            restarts: None,
            kill_rtec_at: None,
            kill_crowd_em_at: None,
            chaos: None,
        }
    }

    /// [`PipelineOptions::standard`] plus checkpointing every
    /// `checkpoint_every` items and restart supervision on the stateful
    /// stages.
    pub fn recovering(checkpoint_every: usize, restarts: usize) -> PipelineOptions {
        PipelineOptions {
            checkpoint_every,
            restarts: Some(restarts),
            ..PipelineOptions::standard()
        }
    }
}

/// Adds `items` as a source named `name`, wrapped in a [`ChaosSource`] when
/// chaos is enabled (the per-source seed is salted so streams fault
/// independently) whose counters are registered as `chaos.<name>`.
fn add_source(
    topology: &mut Topology,
    name: &str,
    items: Vec<DataItem>,
    chaos: Option<&ChaosConfig>,
    salt: u64,
) {
    let source = VecSource::new(items);
    match chaos {
        Some(cfg) => {
            let cfg = ChaosConfig { seed: cfg.seed.wrapping_add(salt), ..cfg.clone() };
            let chaotic = ChaosSource::new(source, cfg);
            topology.services().register_arc(&format!("chaos.{name}"), chaotic.stats());
            topology.add_source(name, chaotic);
        }
        None => {
            topology.add_source(name, source);
        }
    }
}

/// Builds the full §3 topology over a generated scenario and returns it
/// together with the sink collecting the recognition summaries. `window`
/// controls the RTEC working memory/step of every region engine; `options`
/// the shard counts, recovery and fault injection. The recognition output is
/// identical in canonical form ([`crate::replay::canonical_recognitions`])
/// for every shard count and recovery setting.
pub fn build_pipeline_with(
    scenario: &Scenario,
    rules: TrafficRulesConfig,
    window: WindowConfig,
    options: &PipelineOptions,
) -> Result<(Topology, CollectSink), StreamsError> {
    let mut topology = Topology::new();
    let chaos = options.chaos.as_ref();
    let (start, _) = scenario.window();
    let first_query = start + window.step();

    // Input handling: one bus stream, four SCATS region streams, all
    // feeding the shared `sde` queue that the sharded RTEC stage consumes.
    // Every feed's items are pre-built in a single pass over the trace.
    let feeds = crate::items::feed_items(scenario);
    add_source(&mut topology, "bus", feeds.bus, chaos, 0);
    for (i, (region, items)) in Region::ALL.into_iter().zip(feeds.scats).enumerate() {
        add_source(&mut topology, &format!("scats-{region}"), items, chaos, 1 + i as u64);
    }

    // The capacity must be small enough that a fast producer *blocks* and
    // yields to the other feeds: the RTEC query gate opens only when every
    // SDE class's watermark has passed, so if one source can burst its whole
    // stream ahead of the others (short benches on few cores), queries — and
    // with them window eviction — defer to end-of-stream and the engines
    // buffer the entire history. Every feed has a ring of its own in `sde`,
    // so the capacity caps how far each feed runs ahead of the RTEC stage —
    // and with it the skew between feeds — keeping worker state (and
    // checkpoint blobs) at steady-state window size.
    // Feed stages batch their pre-materialised sources: `VecSource` hands
    // over up to 64 items per `next_batch` call and the forwarders push them
    // into `sde` with one batched send, cutting per-item dispatch and wake
    // traffic on the hottest edge of the graph. Chaos runs keep the per-item
    // default — `ChaosSource` injects faults item by item.
    let feed_batch = if chaos.is_some() { 1 } else { 64 };
    topology.add_queue("sde", 512);
    topology
        .process("bus-feed")
        .input(Input::Stream("bus".into()))
        .batch_size(feed_batch)
        .output(Output::Queue("sde".into()))
        .done();
    for region in Region::ALL {
        topology
            .process(&format!("scats-feed-{region}"))
            .input(Input::Stream(format!("scats-{region}")))
            .batch_size(feed_batch)
            .output(Output::Queue("sde".into()))
            .done();
    }

    // Event processing: one sharded RTEC stage partitioned by region. Every
    // item of a region lands on the same replica, so each region engine
    // sees its full stream in FIFO order (see [`MultiRegionRtecProcessor`]).
    // Compile the rule set once here: a bad configuration fails at build
    // time rather than inside a replica, and every region engine of every
    // replica shares the one execution plan.
    let plan = TrafficRecognizer::new(rules.clone(), window, &[], &[])
        .map_err(|e| StreamsError::ProcessorFailed {
            process: "rtec".into(),
            processor: None,
            message: e.to_string(),
        })?
        .plan()
        .clone();
    let scats = Arc::new(scenario.scats.clone());
    let rules = Arc::new(rules);
    let sink = CollectSink::shared();
    topology.add_queue("recognitions", 4096);
    let mut builder = topology
        .process("rtec")
        .input(Input::Queue("sde".into()))
        .replicas(options.rtec_replicas.max(1))
        .partition_by(["region"])
        // The region key has exactly four values; hashing four values into
        // a handful of shards routinely collides the heavy ones onto a
        // single replica (with the FNV route, *all four* regions share one
        // shard at two replicas). Enumerating them round-robins regions
        // over replicas — at four replicas this is exactly the paper's
        // one-engine-per-region decomposition.
        .partition_hints(Region::ALL.map(|r| r.to_string()))
        // SDEs arrive in bursts per query window; draining them in batches
        // amortises queue lock/wake traffic through the partitioner, the
        // shards and the merge alike.
        .batch_size(32);
    if chaos.is_some() {
        // Under injected faults a corrupted SDE must cost one item, not a
        // whole shard.
        builder = builder.fault_policy(FaultPolicy::Skip { max_consecutive: usize::MAX });
    }
    if let Some(max) = options.restarts {
        // Crash supervision overrides the chaos default: a killed worker is
        // rebuilt from its factory, restored from the latest checkpoint and
        // caught up by replaying the logged suffix.
        builder = builder
            .fault_policy(FaultPolicy::Restart { max })
            .checkpoint_every(options.checkpoint_every);
    } else if options.checkpoint_every > 0 {
        builder = builder.checkpoint_every(options.checkpoint_every);
    }
    if let Some((at, switch)) = options.kill_rtec_at.clone() {
        // The kill slot precedes the engine slot, so the panic strikes
        // before the item mutates any state; the shared switch keeps the
        // rebuilt chain from re-firing on replayed traffic.
        builder =
            builder.processor_factory(move || Box::new(KillAt::with_switch(at, switch.clone())));
    }
    builder
        .processor_factory(move || {
            Box::new(MultiRegionRtecProcessor::new(
                rules.clone(),
                plan.clone(),
                window,
                scats.clone(),
                first_query,
            ))
        })
        .output(Output::Queue("recognitions".into()))
        .done();

    // Crowdsourcing: one stage selects workers, simulates their answers and
    // merges them into the online EM in canonical order. Only regions that
    // actually produce SDEs emit summaries; gating on anything else would
    // defer every merge to end-of-stream.
    let bridge_config = crate::crowdbridge::CrowdBridgeConfig::default();
    let (x0, y0, x1, y1) = scenario.network.bbox();
    let centre = ((x0 + x1) / 2.0, (y0 + y1) / 2.0);
    let seed = scenario.config.seed;
    let network = scenario.network.clone();
    let field = scenario.field.clone();
    let truth_of: TruthOracle = Arc::new(move |lon: f64, lat: f64, t: i64| {
        network.nearest_junction(lon, lat).map(|j| field.is_congested(j, t)).unwrap_or(false)
    });
    let active_regions: std::collections::BTreeSet<String> =
        scenario.sdes.iter().map(|s| s.region().to_string()).collect();
    let crowd_em = move || {
        CrowdEmProcessor::new(&bridge_config, centre, seed, truth_of.clone())
            .map(|p| p.with_regions(active_regions.clone()))
    };
    // Validate the bridge configuration eagerly, so the factory below cannot
    // fail at runtime.
    crowd_em().map_err(|e| StreamsError::ProcessorFailed {
        process: "crowd-em".into(),
        processor: None,
        message: e.to_string(),
    })?;
    let mut builder = topology.process("crowd-em").input(Input::Queue("recognitions".into()));
    if chaos.is_some() {
        // Failed summaries are preserved for post-mortem instead of
        // aborting the run.
        builder = builder.dead_letter();
    }
    if let Some(max) = options.restarts {
        builder = builder
            .fault_policy(FaultPolicy::Restart { max })
            .checkpoint_every(options.checkpoint_every);
    } else if options.checkpoint_every > 0 {
        builder = builder.checkpoint_every(options.checkpoint_every);
    }
    if let Some((at, switch)) = options.kill_crowd_em_at.clone() {
        builder =
            builder.processor_factory(move || Box::new(KillAt::with_switch(at, switch.clone())));
    }
    builder
        .processor_factory(move || {
            Box::new(crowd_em().expect("bridge configuration validated at build time"))
        })
        .output(Output::Sink(Box::new(sink.clone())))
        .done();

    Ok((topology, sink))
}

#[cfg(test)]
mod tests {
    use super::*;
    use insight_datagen::scenario::ScenarioConfig;
    use insight_streams::chaos::ChaosStats;
    use insight_streams::runtime::Runtime;

    /// The chaos counters the builder registered, one per wrapped source.
    fn chaos_stats(topology: &Topology) -> Vec<Arc<ChaosStats>> {
        let services = topology.services();
        let names = services.names().into_iter().filter(|n| n.starts_with("chaos."));
        names.map(|n| services.get::<ChaosStats>(&n).unwrap()).collect()
    }

    fn chaotic(chaos: ChaosConfig, options: &PipelineOptions) -> PipelineOptions {
        PipelineOptions { chaos: Some(chaos), ..options.clone() }
    }

    #[test]
    fn pipeline_runs_end_to_end() {
        let scenario = Scenario::generate(ScenarioConfig::small(1200, 77)).unwrap();
        let window = WindowConfig::new(600, 300).unwrap();
        let (topology, sink) = build_pipeline_with(
            &scenario,
            TrafficRulesConfig::default(),
            window,
            &PipelineOptions::default(),
        )
        .unwrap();
        Runtime::new(topology).run().unwrap();
        let items = sink.items();
        assert!(!items.is_empty(), "recognition summaries must be produced");
        for item in &items {
            assert_eq!(item.get_str("kind"), Some("recognition"));
            assert!(item.get_i64("query_time").is_some());
        }
        // Every region with sensors reports at least one summary (buses move
        // through regions, so even sensor-less regions may report).
        let with_sdes: Vec<&DataItem> =
            items.iter().filter(|i| i.get_i64("sde_count").unwrap_or(0) > 0).collect();
        assert!(!with_sdes.is_empty(), "some window contains SDEs");
    }

    #[test]
    fn pipeline_metrics_capture_stages_queues_and_rtec_timings() {
        let scenario = Scenario::generate(ScenarioConfig::small(1200, 77)).unwrap();
        let window = WindowConfig::new(600, 300).unwrap();
        let (topology, sink) = build_pipeline_with(
            &scenario,
            TrafficRulesConfig::default(),
            window,
            &PipelineOptions::default(),
        )
        .unwrap();
        let runtime = Runtime::new(topology);
        let metrics = runtime.metrics();
        runtime.run().unwrap();
        let snap = metrics.snapshot();

        // Per-stage item counts are non-zero where data flowed.
        let feed = snap.stages.get("bus-feed").expect("stage registered");
        assert!(feed.items_in > 0, "bus SDEs entered the feed");
        assert_eq!(feed.items_out, feed.items_in, "the feed forwards 1:1");

        // The RTEC stage expanded into partitioner, shard replicas, and
        // merge, each with its own metrics label; the rollup groups them
        // back under the stage name.
        assert!(snap.stages.contains_key("rtec[part]"), "partitioner labelled");
        assert!(snap.stages.contains_key("rtec[merge]"), "merge labelled");
        let rollup = snap.rollup_stages();
        let rtec = rollup.get("rtec").expect("replicated stage rolls up");
        assert_eq!(
            rtec.replicas.keys().filter(|k| k.parse::<usize>().is_ok()).count(),
            4,
            "four shard replicas reported"
        );
        assert!(rtec.combined.items_in > 0, "shards consumed items");

        // The crowd half is one stage reading the recognitions directly.
        let mut names = snap.stages.keys().chain(snap.queues.keys());
        assert!(names.all(|n| !n.starts_with("crowd[")), "the crowd stage is not sharded");
        assert_eq!(snap.stages.len(), 12, "five feeds, partitioner, four shards, merge, crowd-em");

        // Queue throughput balances and the high-water mark moved.
        let recs = snap.queues.get("recognitions").expect("queue registered");
        assert!(recs.sent > 0);
        assert_eq!(recs.sent, recs.received, "queue fully drained");
        assert_eq!(recs.depth, 0);
        assert!(recs.depth_high_water >= 1);
        let crowd_em = snap.stages.get("crowd-em").expect("crowd-em stage reported");
        assert_eq!(crowd_em.items_in, recs.received, "crowd-em drains the recognitions");
        // No queue between the recognitions and the crowd stage.
        let queues: Vec<&str> = snap.queues.keys().map(String::as_str).collect();
        let shards = ["rtec[shard:0]", "rtec[shard:1]", "rtec[shard:2]", "rtec[shard:3]"];
        assert_eq!(queues, [&["recognitions", "rtec[merge:q]"][..], &shards, &["sde"]].concat());

        // RTEC per-window latencies were recorded via the metrics service.
        let rtec_windows: u64 = snap
            .histograms
            .iter()
            .filter(|(name, _)| name.starts_with("rtec.") && name.ends_with(".window_ns"))
            .map(|(_, h)| h.count)
            .sum();
        assert!(rtec_windows > 0, "RTEC window timings recorded");

        // Incremental-evaluation effort counters were recorded per region.
        let strata: u64 = snap
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with("rtec.") && name.ends_with(".strata_evaluated"))
            .map(|(_, v)| *v)
            .sum();
        assert!(strata > 0, "windows with fresh SDEs re-evaluate strata");
        assert!(
            snap.counters
                .keys()
                .any(|name| name.starts_with("rtec.") && name.ends_with(".groundings_recomputed")),
            "grounding-recompute counters registered"
        );

        // The engine's allocation and cache-maintenance accounting flows
        // through the same per-region metrics.
        assert!(
            snap.counters
                .keys()
                .any(|name| name.starts_with("rtec.") && name.ends_with(".window_allocations")),
            "window-allocation counters registered"
        );
        for work in [".solver_steps", ".candidates"] {
            let total: u64 = snap
                .counters
                .iter()
                .filter(|(name, _)| name.starts_with("rtec.") && name.ends_with(work))
                .map(|(_, v)| *v)
                .sum();
            assert!(total > 0, "counted solver work ({work}) recorded per region");
        }
        let rebuild_ns: u64 = snap
            .histograms
            .iter()
            .filter(|(name, _)| name.starts_with("rtec.") && name.ends_with(".cache_rebuild_ns"))
            .map(|(_, h)| h.sum_ns)
            .sum();
        assert!(rebuild_ns > 0, "windows spend time sliding and publishing into the stores");

        // Every summary carries its own recognition latency.
        for item in sink.items() {
            assert!(item.get_i64("recognition_ns").unwrap_or(-1) >= 0);
        }
    }

    /// Runs the default topology and returns the `window_allocations`
    /// counters summed over the regions.
    fn window_allocations(scenario: &Scenario) -> u64 {
        let window = WindowConfig::new(600, 300).unwrap();
        let (topology, _sink) = build_pipeline_with(
            scenario,
            TrafficRulesConfig::default(),
            window,
            &PipelineOptions::default(),
        )
        .unwrap();
        let runtime = Runtime::new(topology);
        let metrics = runtime.metrics();
        runtime.run().unwrap();
        let snap = metrics.snapshot();
        snap.counters
            .iter()
            .filter(|(name, _)| name.starts_with("rtec.") && name.ends_with(".window_allocations"))
            .map(|(_, v)| *v)
            .sum()
    }

    #[test]
    fn window_allocations_stop_growing_after_the_first_windows() {
        // The same two-hour Dublin trace run in full (24 windows per region)
        // and cut off halfway. The first windows size the engines' retained
        // state to the working set; after that a window allocates only when
        // traffic brings a grounding it has never seen or a store passes its
        // high-water mark (expired rows are reused, so only a busier window
        // than any before grows one): the second hour adds a fifteenth of what
        // the first one did (709 → 757 buffer growths on this trace). An
        // engine that rebuilt its window state per query would double the
        // count.
        let mut scenario = Scenario::generate(ScenarioConfig::small(7200, 77)).unwrap();
        let full = window_allocations(&scenario);
        let (start, end) = scenario.window();
        scenario.sdes.retain(|s| s.arrival <= start + (end - start) / 2);
        let first_half = window_allocations(&scenario);
        assert!(first_half > 0, "the cold start sizes the retained tables");
        assert!(
            full <= first_half + first_half / 8,
            "window allocations kept growing: {first_half} after one hour, {full} after two"
        );
    }

    #[test]
    fn crowd_processor_annotates_disagreement_summaries() {
        let mut cfg = ScenarioConfig::small(2400, 91);
        cfg.fleet.faulty_fraction = 0.5;
        cfg.fleet.n_buses = 40;
        let scenario = Scenario::generate(cfg).unwrap();
        let window = WindowConfig::new(900, 450).unwrap();
        // Rule-set (4) lets disagreements surface as sourceDisagreement CEs.
        let rules =
            TrafficRulesConfig::self_adaptive(insight_traffic::NoisyVariant::CrowdValidated);
        let (topology, sink) =
            build_pipeline_with(&scenario, rules, window, &PipelineOptions::default()).unwrap();
        Runtime::new(topology).run().unwrap();
        let items = sink.items();
        assert!(!items.is_empty());
        // Whenever a summary carries a disagreement location, the crowd
        // stage must have annotated it.
        let mut annotated = 0;
        for item in &items {
            if item.contains("disagreement_lon") {
                assert!(item
                    .get("crowd_verdict_congested")
                    .and_then(insight_streams::item::Value::as_bool)
                    .is_some());
                assert!(item.get_f64("crowd_confidence").unwrap() > 0.0);
                annotated += 1;
            }
        }
        // This heavily faulty scenario reliably produces at least one.
        assert!(annotated > 0, "no disagreement summary produced");
    }

    #[test]
    fn crowd_em_verdicts_follow_canonical_order_for_any_interleaving() {
        use crate::crowdbridge::{CrowdBridge, CrowdBridgeConfig};
        let config = CrowdBridgeConfig::default();
        let centre = (-6.26, 53.35);
        let seed = 42;
        let truth = |lon: f64, _lat: f64, t: i64| (t / 300 + (lon * 1e3) as i64) % 2 == 0;
        let summary = |region: &str, q: i64, lon: f64| {
            DataItem::new()
                .with("kind", "recognition")
                .with("region", region)
                .with("query_time", q)
                .with("disagreement_lon", lon)
                .with("disagreement_lat", 53.35)
        };
        let north = [summary("north", 300, -6.261), summary("north", 600, -6.262)];
        let south = [summary("south", 300, -6.263), summary("south", 600, -6.264)];
        let verdicts = |order: Vec<&DataItem>| {
            let mut em = CrowdEmProcessor::new(&config, centre, seed, Arc::new(truth))
                .unwrap()
                .with_regions(["north", "south"]);
            let mut ctx = Context::new(Default::default(), "crowd-em");
            for item in order {
                em.process(item.clone(), &mut ctx).unwrap();
            }
            em.finish(&mut ctx).unwrap();
            let out: Vec<DataItem> = ctx.take_emitted().collect();
            out.iter()
                .map(|i| {
                    (
                        i.get_i64("query_time").unwrap(),
                        i.get_str("region").unwrap().to_string(),
                        i.get("crowd_verdict_congested")
                            .and_then(insight_streams::item::Value::as_bool)
                            .expect("resolved"),
                        i.get_f64("crowd_confidence").unwrap(),
                        i.get_i64("crowd_answers").unwrap(),
                    )
                })
                .collect::<Vec<_>>()
        };
        let interleaved = verdicts(vec![&north[0], &south[0], &north[1], &south[1]]);
        let region_by_region = verdicts(vec![&south[0], &south[1], &north[0], &north[1]]);
        assert_eq!(interleaved, region_by_region);

        // Simulating each task on a fresh bridge and merging in canonical
        // order gives the same verdicts.
        let tasks = CrowdBridge::new(&config, centre, seed).unwrap();
        let mut bridge = CrowdBridge::new(&config, centre, seed).unwrap();
        let expected: Vec<_> = [&north[0], &south[0], &north[1], &south[1]]
            .into_iter()
            .map(|item| {
                let region = item.get_str("region").unwrap();
                let q = item.get_i64("query_time").unwrap();
                let (lon, lat) = (item.get_f64("disagreement_lon").unwrap(), 53.35);
                let task_seed = crowd_task_seed(q, region, lon, lat) ^ seed;
                let task = tasks.simulate_task(lon, lat, truth(lon, lat, q), task_seed).unwrap();
                let resolution = bridge.merge_task(&task.answers, None).unwrap();
                let answers = resolution.answers as i64;
                (q, region.to_string(), resolution.congested, resolution.confidence, answers)
            })
            .collect();
        assert_eq!(interleaved, expected);
    }

    #[test]
    fn chaos_pipeline_survives_injected_corruption() {
        let scenario = Scenario::generate(ScenarioConfig::small(1200, 77)).unwrap();
        let window = WindowConfig::new(600, 300).unwrap();
        let chaos = ChaosConfig {
            corrupt_rate: 0.05,
            drop_rate: 0.02,
            delay_rate: 0.02,
            ..ChaosConfig::new(9)
        };
        let options = chaotic(chaos, &PipelineOptions::default());
        let (topology, sink) =
            build_pipeline_with(&scenario, TrafficRulesConfig::default(), window, &options)
                .unwrap();
        let stats = chaos_stats(&topology);
        assert_eq!(stats.len(), 5, "every source is wrapped");
        let dead_letters = topology.dead_letters();
        let runtime = Runtime::new(topology);
        let metrics = runtime.metrics();
        runtime.run().expect("supervised run completes despite injected faults");

        assert!(!sink.items().is_empty(), "recognition summaries still produced");
        let corrupted: u64 = stats.iter().map(|s| s.corrupted.get()).sum();
        assert!(corrupted > 0, "the harness actually injected corruption");
        // Corrupted SDEs are counted, not fatal; the run aborts nowhere.
        let snap = metrics.snapshot();
        let malformed: u64 = snap
            .counters
            .iter()
            .filter(|(name, _)| name.ends_with(".malformed_sdes"))
            .map(|(_, v)| *v)
            .sum();
        assert!(malformed > 0, "RTEC skipped the corrupted SDEs");
        // Nothing in this run errors inside a processor, so the dead-letter
        // queue stays empty even though the crowd stage is armed with it.
        assert!(dead_letters.is_empty());
    }

    #[test]
    fn chaos_pipeline_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let scenario = Scenario::generate(ScenarioConfig::small(900, 42)).unwrap();
            let window = WindowConfig::new(300, 300).unwrap();
            let chaos = ChaosConfig { corrupt_rate: 0.1, drop_rate: 0.1, ..ChaosConfig::new(seed) };
            let options = chaotic(chaos, &PipelineOptions::default());
            let (topology, sink) =
                build_pipeline_with(&scenario, TrafficRulesConfig::static_mode(), window, &options)
                    .unwrap();
            let stats = chaos_stats(&topology);
            Runtime::new(topology).run().unwrap();
            let injected: (u64, u64) = (
                stats.iter().map(|s| s.dropped.get()).sum(),
                stats.iter().map(|s| s.corrupted.get()).sum(),
            );
            (sink.len(), injected)
        };
        assert_eq!(run(5), run(5), "same seed, same chaos, same output");
    }

    #[test]
    fn recognitions_identical_across_shard_counts() {
        let canonical = |options: &PipelineOptions| {
            let scenario = Scenario::generate(ScenarioConfig::small(1200, 77)).unwrap();
            let window = WindowConfig::new(600, 300).unwrap();
            let rules =
                TrafficRulesConfig::self_adaptive(insight_traffic::NoisyVariant::CrowdValidated);
            let (topology, sink) = build_pipeline_with(&scenario, rules, window, options).unwrap();
            Runtime::new(topology).run().unwrap();
            crate::replay::canonical_recognitions(&sink.items())
        };
        let base = canonical(&PipelineOptions { rtec_replicas: 1, ..PipelineOptions::standard() });
        assert!(!base.is_empty());
        for rtec_replicas in [2, 4, 8] {
            let options = PipelineOptions { rtec_replicas, ..PipelineOptions::standard() };
            assert_eq!(
                canonical(&options),
                base,
                "recognition output must not depend on the shard count ({rtec_replicas})"
            );
        }
    }

    #[test]
    fn chaos_pipeline_output_invariant_across_shard_counts() {
        // Fault injection happens at the sources, upstream of the
        // partitioner — so even a degraded run must produce canonically
        // identical output for every shard count.
        let canonical = |options: &PipelineOptions| {
            let scenario = Scenario::generate(ScenarioConfig::small(900, 42)).unwrap();
            let window = WindowConfig::new(300, 300).unwrap();
            let chaos = ChaosConfig { corrupt_rate: 0.1, drop_rate: 0.1, ..ChaosConfig::new(11) };
            let (topology, sink) = build_pipeline_with(
                &scenario,
                TrafficRulesConfig::static_mode(),
                window,
                &chaotic(chaos, options),
            )
            .unwrap();
            Runtime::new(topology).run().unwrap();
            crate::replay::canonical_recognitions(&sink.items())
        };
        let base = canonical(&PipelineOptions { rtec_replicas: 1, ..PipelineOptions::standard() });
        assert!(!base.is_empty());
        assert_eq!(
            canonical(&PipelineOptions { rtec_replicas: 4, ..PipelineOptions::standard() }),
            base
        );
    }

    #[test]
    fn checkpointing_is_output_transparent() {
        // Barriers snapshot state but must never change what the pipeline
        // recognises — with no kill the supervised run is byte-identical to
        // the unsupervised one.
        let canonical = |options: &PipelineOptions| {
            let scenario = Scenario::generate(ScenarioConfig::small(1200, 77)).unwrap();
            let window = WindowConfig::new(600, 300).unwrap();
            let (topology, sink) =
                build_pipeline_with(&scenario, TrafficRulesConfig::default(), window, options)
                    .unwrap();
            Runtime::new(topology).run().unwrap();
            crate::replay::canonical_recognitions(&sink.items())
        };
        let base = canonical(&PipelineOptions::standard());
        assert!(!base.is_empty());
        assert_eq!(canonical(&PipelineOptions::recovering(8, 2)), base);
    }

    #[test]
    fn killed_rtec_worker_recovers_to_the_kill_free_output() {
        let canonical = |kill: Option<(u64, KillSwitch)>| {
            let scenario = Scenario::generate(ScenarioConfig::small(1200, 77)).unwrap();
            let window = WindowConfig::new(600, 300).unwrap();
            let options =
                PipelineOptions { kill_rtec_at: kill, ..PipelineOptions::recovering(16, 2) };
            let (topology, sink) =
                build_pipeline_with(&scenario, TrafficRulesConfig::default(), window, &options)
                    .unwrap();
            let runtime = Runtime::new(topology);
            let metrics = runtime.metrics();
            runtime.run().unwrap();
            (crate::replay::canonical_recognitions(&sink.items()), metrics.snapshot())
        };
        let (base, _) = canonical(None);
        assert!(!base.is_empty());
        let switch = KillSwitch::new();
        let (recovered, snap) = canonical(Some((40, switch.clone())));
        assert!(switch.fired(), "the injected kill must actually strike");
        assert_eq!(recovered, base, "recovery must reproduce the kill-free recognitions");
        let rtec = snap.rollup_stages().remove("rtec").expect("rtec stage reported");
        assert!(rtec.combined.checkpoints > 0, "barriers were taken");
        assert_eq!(rtec.combined.restores, 1, "exactly one worker was restored");
    }

    #[test]
    fn killed_crowd_em_stage_recovers_to_the_kill_free_output() {
        // The faulty-fleet scenario from
        // `crowd_processor_annotates_disagreement_summaries`, so the EM
        // state the restore must reconstruct is actually exercised.
        let canonical = |kill: Option<(u64, KillSwitch)>| {
            let mut cfg = ScenarioConfig::small(2400, 91);
            cfg.fleet.faulty_fraction = 0.5;
            cfg.fleet.n_buses = 40;
            let scenario = Scenario::generate(cfg).unwrap();
            let window = WindowConfig::new(900, 450).unwrap();
            let rules =
                TrafficRulesConfig::self_adaptive(insight_traffic::NoisyVariant::CrowdValidated);
            let options =
                PipelineOptions { kill_crowd_em_at: kill, ..PipelineOptions::recovering(1, 2) };
            let (topology, sink) = build_pipeline_with(&scenario, rules, window, &options).unwrap();
            let runtime = Runtime::new(topology);
            let metrics = runtime.metrics();
            runtime.run().unwrap();
            (crate::replay::canonical_recognitions(&sink.items()), metrics.snapshot())
        };
        let (base, _) = canonical(None);
        assert!(base.contains("crowd_verdict_congested"), "baseline resolves disagreements");
        let switch = KillSwitch::new();
        let (recovered, snap) = canonical(Some((5, switch.clone())));
        assert!(switch.fired(), "the injected kill must actually strike");
        assert_eq!(recovered, base, "recovery must reproduce the kill-free verdicts");
        let em = snap.stages.get("crowd-em").expect("crowd-em stage reported");
        assert_eq!(em.restores, 1, "the EM stage was restored once");
        assert!(em.recovery_ns > 0, "recovery latency recorded");
    }

    #[test]
    fn pipeline_summaries_cover_expected_query_times() {
        let scenario = Scenario::generate(ScenarioConfig::small(900, 78)).unwrap();
        let window = WindowConfig::new(300, 300).unwrap();
        let (topology, sink) = build_pipeline_with(
            &scenario,
            TrafficRulesConfig::static_mode(),
            window,
            &PipelineOptions::default(),
        )
        .unwrap();
        Runtime::new(topology).run().unwrap();
        let (start, _) = scenario.window();
        let times: Vec<i64> = sink.items().iter().filter_map(|i| i.get_i64("query_time")).collect();
        assert!(times.iter().all(|t| (t - start) % 300 == 0), "query times on the step grid");
    }
}
