//! The system under test: every call the benchmark makes into `crates/*`
//! lives in this file, so the surface later PRs must keep callable (listed
//! in README.md) can be read off its imports.
//!
//! Deliberately absent: evaluation-mode toggles (`set_compiled`,
//! `set_arena`, `compiled_rtec`, …) and `ReplayRuntime` — the benchmark
//! measures what `build_pipeline` users get by default, and ROADMAP items
//! 2–3 delete those.

use crate::pacing::{self, FeedView, FEEDS, REGIONS};
use crate::taps::{MemoryFile, Poller};
use crate::trace::{SpanId, Tracer};
use insight_core::crowdbridge::{CrowdBridge, CrowdBridgeConfig};
use insight_core::items::{feed_items, item_to_sde};
use insight_core::pipeline::{build_pipeline_with, PipelineOptions};
use insight_core::replay::canonical_recognitions;
use insight_datagen::mediator::{mediate, MediatorConfig};
use insight_datagen::regions::Region;
use insight_datagen::scenario::{Scenario, ScenarioConfig};
use insight_rtec::window::WindowConfig;
use insight_streams::chaos::KillSwitch;
use insight_streams::error::StreamsError;
use insight_streams::item::DataItem;
use insight_streams::metrics::{MetricsRegistry, MetricsSnapshot};
use insight_streams::processor::{Context, Processor};
use insight_streams::runtime::Runtime;
use insight_streams::sink::{CountSink, JsonLinesSink};
use insight_streams::source::{JsonLinesSource, Source, VecSource};
use insight_streams::topology::{Input, Output, Topology};
use insight_traffic::config::NoisyVariant;
use insight_traffic::recognizer::{IntersectionInfo, TrafficRecognizer};
use insight_traffic::TrafficRulesConfig;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Working memory and step of every region engine (the §3 deployment's
/// overlapping windows), and the disjoint-window point of the Fig. 4 axis.
pub const WINDOW: (i64, i64) = (600, 60);
pub const WINDOW_STEP_EQ_WM: (i64, i64) = (600, 600);

/// Seed of everything structural in the inputs (see [`Inputs::generate`]).
const CITY_SEED: u64 = 2013;

/// Items per span of the per-item layers.
const SPAN_ITEMS: usize = 1024;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// Source names of the §3 topology, feed 0 = bus, 1–4 = SCATS by region.
fn feed_names() -> [String; FEEDS] {
    std::array::from_fn(|f| match f {
        0 => "bus".to_string(),
        f => format!("scats-{}", Region::ALL[f - 1]),
    })
}

pub fn region_names() -> [&'static str; REGIONS] {
    Region::ALL.map(Region::name)
}

/// Everything a pass reads, made once per set-up from the seed alone.
pub struct Inputs {
    pub scenario: Scenario,
    rules: TrafficRulesConfig,
    /// The five feeds as pre-built items (what `build_pipeline` hands its
    /// sources).
    pub feeds: [Vec<DataItem>; FEEDS],
    /// The same feeds as plain `(arrival, region)` sequences.
    pub views: [FeedView; FEEDS],
    pub generate_s: f64,
}

impl Inputs {
    /// One city and one traffic day for every seed — the Dublin preset's
    /// network, sensors, fleet (a quarter of it faulty) and congestion, drawn
    /// once from [`CITY_SEED`] — so runs on different seeds do comparable
    /// work. The run's seed draws what varies between two recordings of that
    /// day: which SDEs the mediator loses, how long it delays each one (hence
    /// the arrival order), and what the crowd answers. Rules are the
    /// crowd-validated self-adaptive set, so the crowd stages receive source
    /// disagreements.
    pub fn generate(duration: i64, seed: u64) -> Result<Inputs, String> {
        let started = Instant::now();
        let mut config = ScenarioConfig::dublin_jan_2013(duration, CITY_SEED);
        config.fleet.faulty_fraction = 0.25;
        let mediator = std::mem::replace(&mut config.mediator, MediatorConfig::transparent());
        let mut scenario = Scenario::generate(config).map_err(err)?;
        scenario.sdes =
            mediate(std::mem::take(&mut scenario.sdes), &mediator, seed).map_err(err)?;
        scenario.config.mediator = mediator;
        scenario.config.seed = seed;
        let generate_s = started.elapsed().as_secs_f64();

        let built = feed_items(&scenario);
        let [c, n, w, s] = built.scats;
        let feeds = [built.bus, c, n, w, s];

        let mut views: [FeedView; FEEDS] = Default::default();
        for (view, items) in views.iter_mut().zip(&feeds) {
            for item in items {
                let sde = item_to_sde(item).ok_or("feed item is not an SDE")?;
                view.arrival.push(sde.arrival);
                view.region.push(sde.region().index() as u8);
            }
        }
        let rules = TrafficRulesConfig::self_adaptive(NoisyVariant::CrowdValidated);
        Ok(Inputs { scenario, rules, feeds, views, generate_s })
    }

    pub fn n_sdes(&self) -> usize {
        self.feeds.iter().map(Vec::len).sum()
    }

    /// First query time of every region engine for a window step.
    pub fn first_query(&self, step: i64) -> i64 {
        self.scenario.window().0 + step
    }

    /// The feeds' items in the trace's global arrival order.
    fn arrival_order(&self) -> Vec<&DataItem> {
        let mut cursor = [0usize; FEEDS];
        self.scenario
            .sdes
            .iter()
            .map(|sde| {
                let feed = if sde.is_bus() { 0 } else { 1 + sde.region().index() };
                cursor[feed] += 1;
                &self.feeds[feed][cursor[feed] - 1]
            })
            .collect()
    }
}

fn window_config((wm, step): (i64, i64)) -> WindowConfig {
    WindowConfig::new(wm, step).expect("constant window is valid")
}

/// Open-loop schedule: per feed, the offset from pass start at which each
/// item is due ([`pacing::due_offsets_ns`]).
pub type Schedule = Arc<[Vec<u64>; FEEDS]>;

/// `(items released so far, instant)` per hand-over of one feed; instants are
/// ns from the start of the pass.
pub type ReleaseLog = Vec<(usize, u64)>;

/// One feed of the open loop: sleeps until the next item is due and hands
/// over what is due, never holding a due item back to fill a batch. Logs
/// each hand-over and publishes the log when exhausted.
struct PacedSource {
    items: std::vec::IntoIter<DataItem>,
    released: usize,
    due_ns: Vec<u64>,
    origin: Instant,
    log: ReleaseLog,
    out: Arc<Mutex<ReleaseLog>>,
}

impl Source for PacedSource {
    fn next_item(&mut self) -> Result<Option<DataItem>, StreamsError> {
        let mut one = Vec::with_capacity(1);
        self.next_batch(1, &mut one)?;
        Ok(one.pop())
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<DataItem>) -> Result<usize, StreamsError> {
        let mut now_ns = self.origin.elapsed().as_nanos() as u64;
        let mut take = 0;
        while self.released < self.due_ns.len() {
            take = pacing::due_count(&self.due_ns, self.released, now_ns, max);
            if take > 0 {
                break;
            }
            std::thread::sleep(Duration::from_nanos(self.due_ns[self.released] - now_ns));
            now_ns = self.origin.elapsed().as_nanos() as u64;
        }
        out.extend(self.items.by_ref().take(take));
        if take == 0 {
            *self.out.lock().expect("release log lock") = std::mem::take(&mut self.log);
        } else {
            self.released += take;
            self.log.push((self.released, now_ns));
        }
        Ok(take)
    }
}

/// Busy and stall times copied out of the runtime's own stage metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageTimes {
    pub rtec_busy_ms: f64,
    pub partition_busy_ms: f64,
    pub merge_busy_ms: f64,
    pub crowd_busy_ms: f64,
    pub queue_stall_ms: f64,
    /// Checkpoint restores across all stages (one per injected kill).
    pub restores: u64,
}

impl StageTimes {
    fn of(snapshot: &MetricsSnapshot) -> StageTimes {
        let mut t = StageTimes::default();
        for (name, stage) in &snapshot.stages {
            let busy_ms = stage.process_ns.sum_ns as f64 / 1e6;
            if name.ends_with("[part]") {
                t.partition_busy_ms += busy_ms;
            } else if name.ends_with("[merge]") {
                t.merge_busy_ms += busy_ms;
            } else if name.starts_with("rtec[") {
                t.rtec_busy_ms += busy_ms;
            } else if name.starts_with("crowd") {
                t.crowd_busy_ms += busy_ms;
            }
            t.restores += stage.restores;
        }
        t.queue_stall_ms = snapshot.queues.values().map(|q| q.stall_ns as f64 / 1e6).sum();
        t
    }
}

/// Which pipeline a Dublin pass builds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Recovery {
    /// `PipelineOptions::default()`.
    Off,
    /// `PipelineOptions::recovering(1000, 2)` and one injected RTEC kill at
    /// half the trace.
    KillAtHalf,
}

/// What one pass of the §3 topology produced and when.
pub struct DublinPass {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Canonical recognitions of the whole pass.
    pub canonical: String,
    /// `(query_time, region index)` of each summary in sink-arrival order.
    pub summaries: Vec<(i64, usize)>,
    /// The sink's growth as the poller saw it (open loop only).
    pub seen: Vec<(usize, u64)>,
    /// Each feed's hand-overs (open loop only).
    pub released: [ReleaseLog; FEEDS],
    pub stages: StageTimes,
    /// Whether the injected kill fired (`None` without recovery).
    pub kill_fired: Option<bool>,
}

/// Builds the default pipeline over the inputs and runs it to completion.
/// Closed loop (`schedule` is `None`): the pipeline as built, every item
/// available at once, backpressure from the bounded `sde` queue the only
/// brake. Open loop: each feed's source is swapped (by name) for a
/// [`PacedSource`] and a poller watches the sink. Only `Runtime::run` is
/// timed: building belongs to set-up.
pub fn run_dublin_pass(
    inputs: &Inputs,
    schedule: Option<&Schedule>,
    recovery: Recovery,
) -> Result<DublinPass, String> {
    let switch = KillSwitch::new();
    let options = match recovery {
        Recovery::Off => PipelineOptions::default(),
        Recovery::KillAtHalf => PipelineOptions {
            kill_rtec_at: Some((inputs.n_sdes() as u64 / 2, switch.clone())),
            ..PipelineOptions::recovering(1000, 2)
        },
    };
    let (mut topology, sink) = build_pipeline_with(
        &inputs.scenario,
        inputs.rules.clone(),
        window_config(WINDOW),
        &options,
    )
    .map_err(err)?;

    let logs: [Arc<Mutex<ReleaseLog>>; FEEDS] = Default::default();
    let origin = Instant::now();
    let poller = schedule.map(|due| {
        for (f, name) in feed_names().iter().enumerate() {
            let source = PacedSource {
                items: inputs.feeds[f].clone().into_iter(),
                released: 0,
                due_ns: due[f].clone(),
                origin,
                log: Vec::new(),
                out: Arc::clone(&logs[f]),
            };
            topology.add_source(name, source);
        }
        let watched = sink.clone();
        Poller::spawn(move || watched.len(), origin)
    });
    let registry = Arc::new(MetricsRegistry::new());
    let cpu_before = crate::host::cpu_seconds();
    let started = Instant::now();
    let run = Runtime::new(topology).with_metrics(Arc::clone(&registry)).run();
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = crate::host::cpu_seconds() - cpu_before;
    let seen = poller.map(Poller::finish).unwrap_or_default();
    run.map_err(err)?;

    let items = sink.items();
    let mut summaries = Vec::with_capacity(items.len());
    for item in &items {
        let q = item.get_i64("query_time").ok_or("summary without query_time")?;
        let region = item.get_str("region").ok_or("summary without region")?;
        let region =
            region_names().iter().position(|r| *r == region).ok_or("summary of unknown region")?;
        summaries.push((q, region));
    }
    Ok(DublinPass {
        wall_s,
        cpu_s,
        canonical: canonical_recognitions(&items),
        summaries,
        seen,
        released: logs.map(|log| std::mem::take(&mut *log.lock().expect("release log lock"))),
        stages: StageTimes::of(&registry.snapshot()),
        kill_fired: (recovery == Recovery::KillAtHalf).then(|| switch.fired()),
    })
}

/// The relay replica: checks that the item still is a well-formed SDE and
/// passes it on unchanged.
struct ValidateSde;

impl Processor for ValidateSde {
    fn process(
        &mut self,
        item: DataItem,
        _ctx: &mut Context,
    ) -> Result<Option<DataItem>, StreamsError> {
        match item_to_sde(&item) {
            Some(_) => Ok(Some(item)),
            None => Err(StreamsError::Io { detail: "relayed item is not an SDE".into() }),
        }
    }
}

/// The identity replica of the `plumbing` topology.
struct PassThrough;

impl Processor for PassThrough {
    fn process(
        &mut self,
        item: DataItem,
        _ctx: &mut Context,
    ) -> Result<Option<DataItem>, StreamsError> {
        Ok(Some(item))
    }
}

/// Each feed serialised one JSON object per line, the whole file `repeats`
/// times over.
pub fn encode_feeds(inputs: &Inputs, repeats: usize) -> [Arc<[u8]>; FEEDS] {
    std::array::from_fn(|f| {
        let mut bytes = Vec::new();
        for item in &inputs.feeds[f] {
            bytes.extend_from_slice(item.to_json().as_bytes());
            bytes.push(b'\n');
        }
        bytes.repeat(repeats).into()
    })
}

/// What one relay pass wrote and how long it took.
pub struct RelayPass {
    pub wall_s: f64,
    pub cpu_s: f64,
    pub written: Vec<u8>,
    pub stages: StageTimes,
}

/// The input-handling half of §3 from the public `Topology` API: five
/// JSON-lines sources → feed stages → `sde` queue (512) → partition by
/// region over four validating replicas → merge → JSON-lines sink in
/// memory (`buffer`, recycled from the previous pass).
pub fn run_relay_pass(lines: &[Arc<[u8]>; FEEDS], buffer: Vec<u8>) -> Result<RelayPass, String> {
    let mut topology = Topology::new();
    topology.add_queue("sde", 512);
    for (f, name) in feed_names().iter().enumerate() {
        let reader = std::io::Cursor::new(Arc::clone(&lines[f]));
        topology.add_source(name, JsonLinesSource::new(reader));
        topology
            .process(&format!("{name}-feed"))
            .input(Input::Stream(name.clone()))
            .batch_size(64)
            .output(Output::Queue("sde".into()))
            .done();
    }
    let out_bytes = lines.iter().map(|l| l.len()).sum();
    let written = Arc::new(Mutex::new(Vec::new()));
    let file = MemoryFile::new(buffer, out_bytes, Arc::clone(&written));
    topology
        .process("relay")
        .input(Input::Queue("sde".into()))
        .replicas(REGIONS)
        .partition_by(["region"])
        .partition_hints(region_names())
        .batch_size(32)
        .processor_factory(|| Box::new(ValidateSde))
        .output(Output::Sink(Box::new(JsonLinesSink::new(file))))
        .done();

    let registry = Arc::new(MetricsRegistry::new());
    let cpu_before = crate::host::cpu_seconds();
    let started = Instant::now();
    Runtime::new(topology).with_metrics(Arc::clone(&registry)).run().map_err(err)?;
    let wall_s = started.elapsed().as_secs_f64();
    let cpu_s = crate::host::cpu_seconds() - cpu_before;
    let written = std::mem::take(&mut *written.lock().expect("output lock"));
    Ok(RelayPass { wall_s, cpu_s, written, stages: StageTimes::of(&registry.snapshot()) })
}

/// Drives the recognition layers single-threaded over the trace in arrival
/// order, one span per layer call: `items.decode` and `rtec.ingest` per
/// 1 024 SDEs, `rtec.window` per `(query, region)`, `crowd.resolve` per
/// window with an open disagreement, and at half the trace one
/// `checkpoint.snapshot`/`checkpoint.restore` per region engine. Fires
/// exactly the queries the pipeline fires ([`pacing::gates`]).
pub fn drive_recognition(
    inputs: &Inputs,
    window: (i64, i64),
    tracer: &mut Tracer,
    root: SpanId,
) -> Result<(), String> {
    let config = window_config(window);
    let new_engine = |region: usize| {
        let infos: Vec<IntersectionInfo> = inputs
            .scenario
            .scats
            .intersections()
            .iter()
            .filter(|i| i.region.index() == region)
            .map(|i| IntersectionInfo { id: i.id as i64, lon: i.lon, lat: i.lat })
            .collect();
        TrafficRecognizer::new(inputs.rules.clone(), config, &infos, &[]).map_err(err)
    };
    let gates = pacing::gates(&inputs.views, inputs.first_query(window.1), window.1);
    let mut queries: [std::collections::VecDeque<i64>; REGIONS] = Default::default();
    for gate in &gates {
        queries[gate.region].push_back(gate.q);
    }
    let mut engines = Vec::new();
    for (region, qs) in queries.iter().enumerate() {
        engines.push(if qs.is_empty() { None } else { Some(new_engine(region)?) });
    }
    let (x0, y0, x1, y1) = inputs.scenario.network.bbox();
    let centre = ((x0 + x1) / 2.0, (y0 + y1) / 2.0);
    let mut bridge =
        CrowdBridge::new(&CrowdBridgeConfig::default(), centre, inputs.scenario.config.seed)
            .map_err(err)?;

    let mut fire =
        |tracer: &mut Tracer, engine: &mut TrafficRecognizer, q: i64| -> Result<(), String> {
            let id = tracer.open("rtec.window", Some(root));
            let result = engine.query(q).map_err(err)?;
            tracer.close(id, result.sde_count() as u64);
            if let Some(&(lon, lat)) = result.open_disagreements().first() {
                let truth = inputs.scenario.truth_congested(lon, lat, q);
                let id = tracer.open("crowd.resolve", Some(root));
                // An unresolvable disagreement degrades to the sensor-only
                // summary in the pipeline; it is no failure here either.
                let _ = bridge.resolve(lon, lat, truth, None);
                tracer.close(id, 1);
            }
            Ok(())
        };

    let order = inputs.arrival_order();
    let half = order.len() / 2 / SPAN_ITEMS;
    for (c, chunk) in order.chunks(SPAN_ITEMS).enumerate() {
        if c == half {
            for (region, engine) in engines.iter().enumerate() {
                let Some(engine) = engine else { continue };
                let id = tracer.open("checkpoint.snapshot", Some(root));
                let blob = engine.snapshot_state();
                tracer.close(id, blob.len() as u64);
                let mut fresh = new_engine(region)?;
                let id = tracer.open("checkpoint.restore", Some(root));
                fresh.restore_state(&blob).map_err(err)?;
                tracer.close(id, blob.len() as u64);
            }
        }
        let id = tracer.open("items.decode", Some(root));
        let sdes: Vec<_> = chunk.iter().filter_map(|item| item_to_sde(item)).collect();
        tracer.close(id, sdes.len() as u64);
        if sdes.len() != chunk.len() {
            return Err("feed item is not an SDE".into());
        }
        let mut ingest = tracer.open("rtec.ingest", Some(root));
        let mut ingested = 0;
        for sde in &sdes {
            if queries.iter().any(|qs| qs.front().is_some_and(|&q| q < sde.arrival)) {
                tracer.close(ingest, ingested);
                for (qs, engine) in queries.iter_mut().zip(&mut engines) {
                    while let Some(q) = qs.front().copied().filter(|&q| q < sde.arrival) {
                        qs.pop_front();
                        fire(tracer, engine.as_mut().expect("region with queries"), q)?;
                    }
                }
                ingest = tracer.open("rtec.ingest", Some(root));
                ingested = 0;
            }
            let engine = engines[sde.region().index()].as_mut().expect("region with SDEs");
            engine.ingest(sde).map_err(err)?;
            ingested += 1;
        }
        tracer.close(ingest, ingested);
    }
    // End of stream: the queries no later arrival released.
    for (qs, engine) in queries.iter_mut().zip(&mut engines) {
        while let Some(q) = qs.pop_front() {
            fire(tracer, engine.as_mut().expect("region with queries"), q)?;
        }
    }
    Ok(())
}

/// Exact counts of the Streams data plane, measured while driving it.
pub struct StreamsCounts {
    pub bytes_per_item: f64,
    pub allocs_per_item: f64,
}

/// Drives the Streams layers: `items.build` (`feed_items`), `json.write` and
/// `json.parse` per 1 024 items single-threaded, then three small
/// topologies through the runtime — a two-process queue hop at batch 64 and
/// at batch 1 (`queue.hop.b64`, `queue.hop.b1`) and partition → four
/// identity replicas → merge (`plumbing`) — over the trace's own items.
pub fn drive_streams(
    inputs: &Inputs,
    tracer: &mut Tracer,
    root: SpanId,
) -> Result<StreamsCounts, String> {
    let n = inputs.n_sdes() as u64;
    tracer.span("items.build", Some(root), n, || feed_items(&inputs.scenario));

    let order = inputs.arrival_order();
    let (mut bytes, mut allocs) = (0u64, 0u64);
    for chunk in order.chunks(SPAN_ITEMS) {
        let id = tracer.open("json.write", Some(root));
        let lines: Vec<String> = chunk.iter().map(|item| item.to_json()).collect();
        tracer.close(id, chunk.len() as u64);
        bytes += lines.iter().map(|l| l.len() as u64 + 1).sum::<u64>();

        let id = tracer.open("json.parse", Some(root));
        let (parsed, made) = crate::host::count_allocations(|| {
            lines.iter().filter(|line| DataItem::from_json(line).is_ok()).count()
        });
        tracer.close(id, chunk.len() as u64);
        allocs += made;
        if parsed != chunk.len() {
            return Err("a serialised feed item does not parse back".into());
        }
    }

    // Several copies of the trace per topology run, so thread start-up is a
    // small share of the span.
    let items: Vec<DataItem> =
        std::iter::repeat_n(&order, 4).flatten().map(|&item| item.clone()).collect();
    for (name, batch) in [("queue.hop.b64", 64), ("queue.hop.b1", 1)] {
        let mut topology = Topology::new();
        let sink = CountSink::shared();
        topology.add_source("items", VecSource::new(items.clone()));
        topology.add_queue("hop", 512);
        topology
            .process("send")
            .input(Input::Stream("items".into()))
            .batch_size(batch)
            .output(Output::Queue("hop".into()))
            .done();
        topology
            .process("receive")
            .input(Input::Queue("hop".into()))
            .batch_size(batch)
            .output(Output::Sink(Box::new(sink.clone())))
            .done();
        let run =
            tracer.span(name, Some(root), items.len() as u64, || Runtime::new(topology).run());
        run.map_err(err)?;
        if sink.count() != items.len() as u64 {
            return Err(format!("{name}: {} of {} items arrived", sink.count(), items.len()));
        }
    }

    let mut topology = Topology::new();
    let sink = CountSink::shared();
    topology.add_source("items", VecSource::new(items.clone()));
    topology
        .process("identity")
        .input(Input::Stream("items".into()))
        .replicas(REGIONS)
        .partition_by(["region"])
        .partition_hints(region_names())
        .batch_size(32)
        .processor_factory(|| Box::new(PassThrough))
        .output(Output::Sink(Box::new(sink.clone())))
        .done();
    let run =
        tracer.span("plumbing", Some(root), items.len() as u64, || Runtime::new(topology).run());
    run.map_err(err)?;
    if sink.count() != items.len() as u64 {
        return Err(format!("plumbing: {} of {} items arrived", sink.count(), items.len()));
    }

    Ok(StreamsCounts {
        bytes_per_item: bytes as f64 / n as f64,
        allocs_per_item: allocs as f64 / n as f64,
    })
}
