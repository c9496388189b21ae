//! Performance report: windowed recognition, batched queue transfer, shard
//! scaling and crash recovery.
//!
//! The recognition benchmark sweeps the window-overlap ratio step/WM over
//! {1, 1/2, 1/4, 1/8} and measures the mean per-query recognition time of
//! the RTEC engine plus its counted work: solver steps and candidates
//! examined (exact per trace — this is what `--check` gates; wall time is
//! reported only) and the window-cycle allocation accounting. Ratio 1
//! means disjoint windows (no reusable work); ratio 1/8 means 7/8 of each
//! window is shared with the previous query (maximal reuse). The engine has
//! one evaluation path; the numbers of the interpreted and full-recompute
//! paths it replaced are kept in the `"history"` note of
//! `BENCH_recognition.json`.
//!
//! The streams benchmark pushes a fixed item count through a bounded
//! one-producer queue (one lock-free ring, what every queue is made of) with
//! a producer thread and measures throughput for per-item transfer versus
//! `send_batch`/`recv_batch` at several batch sizes. An ingest sweep
//! then A/Bs the flat inline-attribute `DataItem` (and its zero-copy JSON
//! codec) against the pre-flat-map representation — an `Arc<BTreeMap>` with
//! heap-string values, rebuilt in this binary so both arms run on the same
//! host — reporting items/s and allocations/item from the counting global
//! allocator.
//!
//! The shard-scaling benchmark runs the full Dublin pipeline end to end
//! under the threaded runtime, sweeping the replica count of the RTEC stage
//! (sharded by `region`) from 1 up to the core count — always including
//! the 4-replica point — and reports SDEs/s. Wall-clock speedup from
//! sharding requires real cores; the report records the host's core count
//! alongside the numbers.
//!
//! Results are written to `BENCH_recognition.json`, `BENCH_streams.json`
//! and `BENCH_parallel.json` in the current directory (run from the repo
//! root) and printed as tables.
//!
//! ```sh
//! cargo run --release -p insight-bench --bin bench_report [--quick] [--check]
//! ```
//!
//! `--check` exits non-zero if the recognition sweep's solver steps or
//! candidates differ from their pins (exact — the plan and the trace are
//! deterministic; the sweep's wall time is reported, not gated), or if another
//! guarded number *regresses* by more than 25% against its reference path or
//! absolute floor — a CI smoke guard, deliberately lenient to tolerate noisy
//! shared runners. The shard sweep's speedups are reported only: a run this
//! short times thread start-up, not sharding; its partition+merge cost per
//! SDE is gated.

use insight_bench::ResultsWriter;
use insight_core::pipeline::{build_pipeline_with, PipelineOptions};
use insight_datagen::scenario::{Scenario, ScenarioConfig};
use insight_rtec::window::WindowConfig;
use insight_streams::alloc::{allocation_count, CountingAllocator};
use insight_streams::intern::Key;
use insight_streams::item::DataItem;
use insight_streams::metrics::MetricsRegistry;
use insight_streams::queue::queue;
use insight_streams::runtime::Runtime;
use insight_traffic::{TrafficRecognizer, TrafficRulesConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// The ingest sweep's allocations/item column needs the real allocator
/// hook; the counter costs one relaxed increment per allocation, noise the
/// wall-clock columns absorb.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// One step/WM ratio of the recognition sweep.
struct RatioPoint {
    label: &'static str,
    ratio: f64,
    step: i64,
    run: MeasuredRun,
}

/// One queue batch size and its measured throughput.
struct BatchPoint {
    batch: usize,
    elapsed_ms: f64,
    items_per_sec: f64,
}

/// Plumbing costs of one partitioned pipeline run, extracted from the
/// metrics snapshot: time spent inside the synthesized partitioner and
/// merge stages, producer time lost blocking on full queues, and the items
/// entering the merge stages.
struct Overhead {
    partition_ms: f64,
    merge_ms: f64,
    queue_stall_ms: f64,
    merge_in_items: u64,
}

/// One replica count of the partitioned RTEC stage and its measured
/// end-to-end run time plus overhead breakdown.
struct ShardPoint {
    replicas: usize,
    elapsed_ms: f64,
    sdes_per_sec: f64,
    overhead: Overhead,
}

/// One checkpoint cadence of the supervised pipeline and its measured
/// end-to-end run time (cadence 0 = checkpointing off, the baseline).
struct RecoveryPoint {
    label: &'static str,
    cadence: usize,
    elapsed_ms: f64,
    sdes_per_sec: f64,
    checkpoints: u64,
    /// Minimum over reps of (this arm − the same rep's cadence-off arm):
    /// the barriers' cost with common-mode scheduler noise cancelled,
    /// clamped at zero.
    paired_delta_ms: f64,
}

/// One measured recognition sweep: wall-clock mean plus the engine's
/// window-cycle allocation and cache-maintenance accounting.
struct MeasuredRun {
    mean_ms: f64,
    queries: usize,
    /// Mean `QueryTiming::window_allocations` per query (retained-buffer
    /// capacity growth + solver-scratch growth; includes the cold start, so
    /// steady state is better read from `allocs_last`).
    allocs_per_window: f64,
    /// `window_allocations` of the first measured query — the cold start
    /// that sizes the retained tables.
    allocs_first: u64,
    /// `window_allocations` of the *last* measured query. On a synthetic
    /// steady-state stream this is 0 (the zero-alloc tests pin that); on
    /// real traffic the working set keeps evolving, so the check asserts
    /// decay from `allocs_first` instead of strict zero.
    allocs_last: u64,
    /// Mean `QueryTiming::cache_rebuild` per query, in ms.
    cache_rebuild_ms: f64,
    /// `QueryTiming::solver_steps` summed over the measured queries.
    solver_steps: u64,
    /// `QueryTiming::candidates_examined` summed over the measured queries.
    candidates: u64,
    /// `QueryTiming::facts_admitted` summed over the measured queries: input
    /// facts written into the window stores, each once however many windows
    /// it lives through.
    facts_admitted: u64,
}

/// Mean per-query wall-clock recognition time (ms) over `n_queries` fully
/// populated windows.
fn mean_query_ms(
    scenario: &Scenario,
    wm: i64,
    step: i64,
    n_queries: usize,
) -> Result<MeasuredRun, Box<dyn std::error::Error>> {
    let window = WindowConfig::new(wm, step)?;
    let mut rec =
        TrafficRecognizer::from_deployment(TrafficRulesConfig::default(), window, &scenario.scats)?;
    let (start, end) = scenario.window();

    let mut sde_idx = 0usize;
    let mut total_ms = 0.0f64;
    let mut queries = 0usize;
    let mut total_allocs = 0u64;
    let mut allocs_first = 0u64;
    let mut allocs_last = 0u64;
    let mut total_rebuild_ms = 0.0f64;
    let (mut solver_steps, mut candidates, mut facts_admitted) = (0u64, 0u64, 0u64);
    let mut q = start + wm;
    while queries < n_queries && q <= end {
        while sde_idx < scenario.sdes.len() && scenario.sdes[sde_idx].arrival <= q {
            rec.ingest(&scenario.sdes[sde_idx])?;
            sde_idx += 1;
        }
        let t = Instant::now();
        let r = rec.query(q)?;
        total_ms += t.elapsed().as_secs_f64() * 1e3;
        total_allocs += r.raw.timing.window_allocations;
        if queries == 0 {
            allocs_first = r.raw.timing.window_allocations;
        }
        allocs_last = r.raw.timing.window_allocations;
        total_rebuild_ms += r.raw.timing.cache_rebuild.as_secs_f64() * 1e3;
        solver_steps += r.raw.timing.solver_steps;
        candidates += r.raw.timing.candidates_examined;
        facts_admitted += r.raw.timing.facts_admitted;
        queries += 1;
        q += step;
    }
    if queries == 0 {
        return Err("scenario shorter than one working memory".into());
    }
    Ok(MeasuredRun {
        mean_ms: total_ms / queries as f64,
        queries,
        allocs_per_window: total_allocs as f64 / queries as f64,
        allocs_first,
        allocs_last,
        cache_rebuild_ms: total_rebuild_ms / queries as f64,
        solver_steps,
        candidates,
        facts_admitted,
    })
}

/// Pushes `n` items through a bounded queue with a producer thread; the
/// consumer drains on the calling thread. Both sides move `batch` items per
/// `send_batch`/`recv_batch` call through buffers they reuse, as a worker
/// does; `batch == 1` is per-item transfer.
fn queue_throughput_ms(n: usize, capacity: usize, batch: usize) -> f64 {
    let (mut senders, mut rx) = queue(capacity, 1);
    let tx = senders.pop().expect("one producer");
    let t = Instant::now();
    let producer = std::thread::spawn(move || {
        let mut chunk = Vec::with_capacity(batch);
        for i in 0..n {
            chunk.push(DataItem::new().with("n", i as i64));
            if chunk.len() == batch {
                tx.send_batch(&mut chunk);
            }
        }
        tx.send_batch(&mut chunk);
        tx.finish();
    });
    let mut received = 0usize;
    let mut items = Vec::with_capacity(batch);
    while rx.recv_batch(batch, &mut items) > 0 {
        received += items.len();
        items.clear();
    }
    producer.join().expect("producer thread panicked");
    assert_eq!(received, n, "queue dropped items");
    t.elapsed().as_secs_f64() * 1e3
}

/// Wall-clock time (ms) of one end-to-end threaded run of the Dublin
/// pipeline with `replicas` replicas of the RTEC stage, plus the
/// partition/merge/queue overhead breakdown from the run's metrics.
/// Topology construction is excluded; only `Runtime::run` is timed.
fn pipeline_run_ms(
    scenario: &Scenario,
    window: WindowConfig,
    replicas: usize,
) -> Result<(f64, Overhead), Box<dyn std::error::Error>> {
    let options = PipelineOptions { rtec_replicas: replicas, ..PipelineOptions::standard() };
    let (topology, sink) =
        build_pipeline_with(scenario, TrafficRulesConfig::default(), window, &options)?;
    let metrics = Arc::new(MetricsRegistry::new());
    let t = Instant::now();
    Runtime::new(topology).with_metrics(metrics.clone()).run()?;
    let elapsed_ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(!sink.items().is_empty(), "pipeline produced no recognitions");

    let snap = metrics.snapshot();
    let mut partition_ns = 0u64;
    let mut merge_ns = 0u64;
    for (name, stage) in &snap.stages {
        if name.ends_with("[part]") {
            partition_ns += stage.process_ns.sum_ns;
        } else if name.ends_with("[merge]") {
            merge_ns += stage.process_ns.sum_ns;
        }
    }
    if std::env::var_os("BENCH_DEBUG").is_some() {
        let mut stages: Vec<_> = snap.stages.iter().collect();
        stages.sort_by(|a, b| a.0.cmp(b.0));
        for (name, stage) in stages {
            eprintln!(
                "    [debug] stage {name}: {:.3} ms process, {} in / {} out",
                stage.process_ns.sum_ns as f64 / 1e6,
                stage.items_in,
                stage.items_out
            );
        }
    }
    let mut stall_ns = 0u64;
    let mut merge_in_items = 0u64;
    for (name, q) in &snap.queues {
        stall_ns += q.stall_ns;
        if q.stall_ns > 0 && std::env::var_os("BENCH_DEBUG").is_some() {
            eprintln!(
                "    [debug] queue {name}: {} stalls, {:.3} ms",
                q.send_stalls,
                q.stall_ns as f64 / 1e6
            );
        }
        if name.ends_with("[merge:q]") {
            merge_in_items += q.sent;
        }
    }
    let overhead = Overhead {
        partition_ms: partition_ns as f64 / 1e6,
        merge_ms: merge_ns as f64 / 1e6,
        queue_stall_ms: stall_ns as f64 / 1e6,
        merge_in_items,
    };
    Ok((elapsed_ms, overhead))
}

/// Wall-clock time (ms) of one end-to-end threaded run of the Dublin
/// pipeline under explicit [`PipelineOptions`] (recovery knobs included),
/// plus the full metrics snapshot for checkpoint/recovery counters.
fn supervised_run_ms(
    scenario: &Scenario,
    window: WindowConfig,
    options: &PipelineOptions,
) -> Result<(f64, insight_streams::metrics::MetricsSnapshot), Box<dyn std::error::Error>> {
    let (topology, sink) =
        build_pipeline_with(scenario, TrafficRulesConfig::default(), window, options)?;
    let metrics = Arc::new(MetricsRegistry::new());
    let t = Instant::now();
    Runtime::new(topology).with_metrics(metrics.clone()).run()?;
    let elapsed_ms = t.elapsed().as_secs_f64() * 1e3;
    assert!(!sink.items().is_empty(), "pipeline produced no recognitions");
    Ok((elapsed_ms, metrics.snapshot()))
}

/// Best of `reps` runs — throughput microbenchmarks want the least-noisy
/// sample, not the mean.
fn best_of(reps: usize, mut f: impl FnMut() -> f64) -> f64 {
    (0..reps).map(|_| f()).fold(f64::INFINITY, f64::min)
}

// ---- ingest sweep: item representation + JSON A/B --------------------------

/// One ingest-path operation measured on one representation arm.
struct IngestPoint {
    op: &'static str,
    arm: &'static str,
    elapsed_ms: f64,
    items_per_sec: f64,
    allocs_per_item: f64,
}

/// The pre-flat-map value representation: heap strings for every string
/// value. The fields are never read back — the arm exists to pay the old
/// representation's build/allocation cost, not to be queried.
#[derive(Clone)]
#[allow(dead_code)]
enum RefValue {
    Int(i64),
    Float(f64),
    Str(String),
    Bool(bool),
}

/// The pre-flat-map item representation: a shared B-tree keyed by the
/// interned key. Kept here as the reference arm so the sweep measures the
/// representation change itself, in one binary, on the same host — not two
/// checkouts against each other. Like the old `DataItem`, every insert goes
/// through `Key::new` (both arms pay the interner equally).
#[derive(Clone)]
struct RefItem {
    attrs: Arc<BTreeMap<Key, RefValue>>,
}

impl RefItem {
    fn new() -> RefItem {
        RefItem { attrs: Arc::new(BTreeMap::new()) }
    }

    fn with(mut self, key: &str, value: RefValue) -> RefItem {
        Arc::make_mut(&mut self.attrs).insert(Key::new(key), value);
        self
    }
}

/// A bus-schema-shaped item (12 attributes, the widest feed schema) on the
/// flat representation.
fn flat_bus_item(n: i64) -> DataItem {
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

/// The same item on the reference representation.
fn ref_bus_item(n: i64) -> RefItem {
    RefItem::new()
        .with("time", RefValue::Int(n))
        .with("arrival", RefValue::Int(n + 17))
        .with("region", RefValue::Str("central".to_string()))
        .with("kind", RefValue::Str("bus".to_string()))
        .with("bus", RefValue::Int(33000 + n))
        .with("line", RefValue::Int(n % 60))
        .with("operator", RefValue::Int(7))
        .with("delay", RefValue::Int(120))
        .with("lon", RefValue::Float(-6.26 + n as f64 * 1e-6))
        .with("lat", RefValue::Float(53.35))
        .with("direction", RefValue::Int(n % 2))
        .with("congestion", RefValue::Bool(n % 3 == 0))
}

/// Times `n` iterations of `f` and counts their allocations, returning an
/// [`IngestPoint`]. Single measurement per call — wrap in [`best_of`]-style
/// repetition by taking the fastest rep's wall clock while keeping the
/// (deterministic) allocation count from the first.
fn ingest_point(
    op: &'static str,
    arm: &'static str,
    n: usize,
    reps: usize,
    mut f: impl FnMut(i64),
) -> IngestPoint {
    let mut elapsed_ms = f64::INFINITY;
    let mut allocs_per_item = f64::NAN;
    for rep in 0..reps {
        let allocs_before = allocation_count();
        let t = Instant::now();
        for i in 0..n {
            f(i as i64);
        }
        elapsed_ms = elapsed_ms.min(t.elapsed().as_secs_f64() * 1e3);
        // The allocation count is deterministic; take the last rep so
        // one-off warm-up allocations (interner, buffer growth) fall out.
        if rep + 1 == reps {
            allocs_per_item = (allocation_count() - allocs_before) as f64 / n as f64;
        }
    }
    IngestPoint {
        op,
        arm,
        elapsed_ms,
        items_per_sec: n as f64 / (elapsed_ms / 1e3),
        allocs_per_item,
    }
}

/// The last numbers of the evaluation paths this engine replaced (standard
/// profile, PR 10 host, ms per query), kept so the trajectory survives their
/// removal: `full` re-evaluated the whole window every query, `interpreted`
/// was the delta-aware AST interpreter, `compiled` the plan over slot-indexed
/// retained state — the path that is now the engine, whose series `query_ms`
/// continues.
///
/// `before_join_planning` is the same engine at PR 15, when every rule body
/// ran in the order it was typed and the spatial join called `close` on every
/// intersection (the counted work was not recorded then).
///
/// `before_sliding_stores` is the engine at PR 17, when every query cleared
/// the window stores and refilled, re-sorted and re-indexed them from the
/// buffered SDEs (same counted solver work as now; facts written per point
/// were the window's content times the queries, not recorded then).
const RECOGNITION_HISTORY: &str = r#"{
    "note": "paths removed when the compiled slot-state engine became the only one; query_ms continues the compiled_ms series",
    "last_measured": [
      {"step_over_wm": "1", "full_ms": 15.875, "interpreted_ms": 15.546, "compiled_ms": 9.297},
      {"step_over_wm": "1/2", "full_ms": 15.340, "interpreted_ms": 13.053, "compiled_ms": 7.416},
      {"step_over_wm": "1/4", "full_ms": 13.852, "interpreted_ms": 8.394, "compiled_ms": 4.733},
      {"step_over_wm": "1/8", "full_ms": 13.477, "interpreted_ms": 6.111, "compiled_ms": 3.025}
    ],
    "before_join_planning": {
      "note": "PR 15, standard profile: rule bodies in typed order, first-argument indexes only",
      "query_ms": [
        {"step_over_wm": "1", "query_ms": 9.065},
        {"step_over_wm": "1/2", "query_ms": 8.982},
        {"step_over_wm": "1/4", "query_ms": 4.557},
        {"step_over_wm": "1/8", "query_ms": 2.956}
      ]
    },
    "before_sliding_stores": {
      "note": "PR 17, standard profile: stores refilled from the buffered SDEs on every query",
      "points": [
        {"step_over_wm": "1", "query_ms": 1.147, "cache_rebuild_ms": 0.141},
        {"step_over_wm": "1/2", "query_ms": 0.717, "cache_rebuild_ms": 0.107},
        {"step_over_wm": "1/4", "query_ms": 0.530, "cache_rebuild_ms": 0.100},
        {"step_over_wm": "1/8", "query_ms": 0.383, "cache_rebuild_ms": 0.091}
      ]
    }
  }"#;

/// The recognition sweep's counted work, `(solver steps, candidates)` per
/// step/WM point in sweep order. Exact: the scenario, the rule library and
/// the plan are deterministic, so any difference is a change to one of them —
/// re-pin when that change is deliberate.
const RECOGNITION_WORK_QUICK: [(u64, u64); 4] =
    [(21_642, 20_053), (13_922, 12_906), (9_445, 8_841), (6_810, 6_186)];
const RECOGNITION_WORK_STANDARD: [(u64, u64); 4] =
    [(86_874, 83_472), (49_726, 48_299), (30_588, 29_616), (20_584, 19_856)];

/// The last parallel-strata A/B before strata went serial and `rtec::pool`
/// was removed (standard profile, 1 core: every stratum ran inline).
///
/// `before_join_planning` is the shard sweep at PR 15 (2 cores), before the
/// RTEC stage's share of a run fell again.
const PARALLEL_HISTORY: &str = r#"{
    "note": "parallel stratum evaluation and its worker pool were removed: region engines already fill the cores",
    "last_strata_ab": {"queries": 6, "wm_s": 1200, "step_s": 300, "serial_ms": 9.519, "parallel_ms": 9.258, "speedup": 1.028, "pool": {"threads_spawned": 0, "tasks_dispatched": 0}},
    "before_join_planning": {
      "note": "PR 15, standard profile, 2 cores",
      "points": [
        {"replicas": 1, "elapsed_ms": 13.391, "partition_ms": 0.000, "merge_ms": 0.000},
        {"replicas": 2, "elapsed_ms": 11.791, "partition_ms": 2.888, "merge_ms": 0.227},
        {"replicas": 3, "elapsed_ms": 10.441, "partition_ms": 2.506, "merge_ms": 0.147},
        {"replicas": 4, "elapsed_ms": 10.666, "partition_ms": 1.845, "merge_ms": 0.109}
      ]
    }
  }"#;

/// The queue sweep's last points on the Mutex+Condvar queue, which
/// `queue(capacity, 1)` built until every queue became one ring per producer.
const STREAMS_HISTORY: &str = r#"{
    "note": "standard profile, last measured on the Mutex+Condvar queue before it was deleted; the points above are the ring every edge runs on",
    "mutex_queue": [
      {"batch_size": 1, "elapsed_ms": 174.178, "items_per_sec": 1148253},
      {"batch_size": 4, "elapsed_ms": 115.940, "items_per_sec": 1725027},
      {"batch_size": 16, "elapsed_ms": 91.946, "items_per_sec": 2175200},
      {"batch_size": 64, "elapsed_ms": 67.596, "items_per_sec": 2958740}
    ]
  }"#;

fn write_json(path: &str, body: &str) -> std::io::Result<()> {
    std::fs::write(path, body)?;
    eprintln!("wrote {path}");
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let quick = std::env::args().any(|a| a == "--quick");
    let check = std::env::args().any(|a| a == "--check");
    let profile = if quick { "quick" } else { "standard" };

    // ---- recognition: per-query time over the window-overlap sweep ---------
    let wm: i64 = if quick { 480 } else { 1200 };
    let n_queries = if quick { 4 } else { 6 };
    // Enough data for the widest sweep: WM plus n_queries steps at ratio 1.
    let duration = wm + wm * n_queries as i64 + 120;
    let mut out = ResultsWriter::new("bench_report");
    out.line(format!("=== bench_report ({profile} profile) ==="));
    out.line(format!(
        "recognition: WM {wm} s, {n_queries} queries per point, scenario small/{duration} s"
    ));
    let scenario = Scenario::generate(ScenarioConfig::small(duration, 7))?;
    out.line(format!("  {} SDEs total", scenario.sdes.len()));
    out.line(String::new());
    out.line(format!(
        "{:>9} {:>8} {:>9} {:>12} {:>9} {:>12} {:>10} {:>10} {:>9}",
        "step/WM",
        "step s",
        "queries",
        "query (ms)",
        "allocs/w",
        "rebuild (ms)",
        "steps",
        "candidates",
        "admitted"
    ));

    // Warm-up: the first evaluation of a fresh process pays one-off costs
    // (lazy allocator pools, page faults on the engine's tables) that
    // otherwise land entirely on the first measured point and read as a
    // phantom regression there.
    let _ = mean_query_ms(&scenario, wm, wm, n_queries)?;

    let ratios: &[(&'static str, i64)] = &[("1", 1), ("1/2", 2), ("1/4", 4), ("1/8", 8)];
    let mut points = Vec::new();
    for &(label, den) in ratios {
        let step = wm / den;
        let run = mean_query_ms(&scenario, wm, step, n_queries)?;
        out.line(format!(
            "{:>9} {:>8} {:>9} {:>12.3} {:>9.1} {:>12.3} {:>10} {:>10} {:>9}",
            label,
            step,
            run.queries,
            run.mean_ms,
            run.allocs_per_window,
            run.cache_rebuild_ms,
            run.solver_steps,
            run.candidates,
            run.facts_admitted
        ));
        points.push(RatioPoint { label, ratio: 1.0 / den as f64, step, run });
    }

    let mut rec_json = String::new();
    write!(
        rec_json,
        "{{\n  \"benchmark\": \"windowed_recognition\",\n  \"profile\": \"{profile}\",\n  \
         \"scenario\": {{\"preset\": \"small\", \"duration_s\": {duration}, \"sdes\": {}}},\n  \
         \"wm_s\": {wm},\n  \"points\": [\n",
        scenario.sdes.len()
    )?;
    for (i, p) in points.iter().enumerate() {
        writeln!(
            rec_json,
            "    {{\"step_over_wm\": \"{}\", \"ratio\": {}, \"step_s\": {}, \"queries\": {}, \
             \"solver_steps\": {}, \"candidates\": {}, \"facts_admitted\": {}, \
             \"query_ms\": {:.3}, \"allocs_per_window\": {:.1}, \"allocs_first\": {}, \
             \"allocs_last\": {}, \"cache_rebuild_ms\": {:.3}}}{}",
            p.label,
            p.ratio,
            p.step,
            p.run.queries,
            p.run.solver_steps,
            p.run.candidates,
            p.run.facts_admitted,
            p.run.mean_ms,
            p.run.allocs_per_window,
            p.run.allocs_first,
            p.run.allocs_last,
            p.run.cache_rebuild_ms,
            if i + 1 < points.len() { "," } else { "" }
        )?;
    }
    write!(rec_json, "  ],\n  \"history\": {RECOGNITION_HISTORY}\n}}\n")?;
    write_json("BENCH_recognition.json", &rec_json)?;

    // ---- streams: per-item vs batched queue transfer ------------------------
    let items = if quick { 50_000 } else { 200_000 };
    let capacity = 1024;
    let reps = if quick { 3 } else { 5 };
    out.line(String::new());
    out.line(format!("streams: {items} items through a capacity-{capacity} queue, best of {reps}"));
    out.line(format!(
        "{:>11} {:>13} {:>14} {:>9}",
        "batch size", "elapsed (ms)", "items/s", "speedup"
    ));

    let mut batch_points = Vec::new();
    for &batch in &[1usize, 4, 16, 64] {
        let elapsed_ms = best_of(reps, || queue_throughput_ms(items, capacity, batch));
        let items_per_sec = items as f64 / (elapsed_ms / 1e3);
        batch_points.push(BatchPoint { batch, elapsed_ms, items_per_sec });
    }
    let unbatched_ms = batch_points[0].elapsed_ms;
    for p in &batch_points {
        out.line(format!(
            "{:>11} {:>13.2} {:>14.0} {:>8.2}x",
            p.batch,
            p.elapsed_ms,
            p.items_per_sec,
            unbatched_ms / p.elapsed_ms
        ));
    }

    // ---- ingest sweep: flat inline items + zero-copy JSON vs the old
    // representation, measured in-binary on the same host ---------------------
    let ingest_items = if quick { 20_000 } else { 100_000 };
    out.line(String::new());
    out.line(format!(
        "ingest sweep: {ingest_items} bus-schema items (12 attrs), best of {reps}, \
         allocations counted by the global allocator hook"
    ));
    out.line(format!(
        "{:>11} {:>15} {:>13} {:>14} {:>13}",
        "op", "arm", "elapsed (ms)", "items/s", "allocs/item"
    ));

    let mut ingest_points = Vec::new();
    ingest_points.push(ingest_point("build", "flat", ingest_items, reps, |n| {
        std::hint::black_box(flat_bus_item(n));
    }));
    ingest_points.push(ingest_point("build", "btreemap-ref", ingest_items, reps, |n| {
        std::hint::black_box(ref_bus_item(n));
    }));
    let lines: Vec<String> = (0..ingest_items as i64).map(|n| flat_bus_item(n).to_json()).collect();
    ingest_points.push(ingest_point("parse", "flat", ingest_items, reps, |n| {
        std::hint::black_box(DataItem::from_json(&lines[n as usize]).expect("line parses"));
    }));
    ingest_points.push(ingest_point("parse", "btreemap-ref", ingest_items, reps, |n| {
        // The old parse path: a fresh `String`-keyed B-tree per item.
        std::hint::black_box(
            insight_streams::json::parse_object(&lines[n as usize]).expect("line parses"),
        );
    }));
    let flat_items: Vec<DataItem> = (0..ingest_items as i64).map(flat_bus_item).collect();
    let mut buf = String::with_capacity(1024);
    ingest_points.push(ingest_point("serialize", "reused-buffer", ingest_items, reps, |n| {
        buf.clear();
        flat_items[n as usize].to_json_into(&mut buf);
        std::hint::black_box(buf.len());
    }));
    ingest_points.push(ingest_point("serialize", "fresh-string", ingest_items, reps, |n| {
        std::hint::black_box(flat_items[n as usize].to_json());
    }));
    drop((lines, flat_items));
    for p in &ingest_points {
        out.line(format!(
            "{:>11} {:>15} {:>13.2} {:>14.0} {:>13.2}",
            p.op, p.arm, p.elapsed_ms, p.items_per_sec, p.allocs_per_item
        ));
    }
    let ingest_pair = |op: &str| {
        let flat = ingest_points
            .iter()
            .find(|p| p.op == op && p.arm == "flat")
            .expect("flat arm measured");
        let reference = ingest_points
            .iter()
            .find(|p| p.op == op && p.arm == "btreemap-ref")
            .expect("reference arm measured");
        (flat, reference)
    };
    for op in ["build", "parse"] {
        let (flat, reference) = ingest_pair(op);
        out.line(format!(
            "  {op}: {:.1}x fewer allocations, {:.2}x throughput vs the old representation",
            reference.allocs_per_item / flat.allocs_per_item.max(1e-9),
            flat.items_per_sec / reference.items_per_sec
        ));
    }

    let mut str_json = String::new();
    write!(
        str_json,
        "{{\n  \"benchmark\": \"queue_batching\",\n  \"profile\": \"{profile}\",\n  \
         \"items\": {items},\n  \"capacity\": {capacity},\n  \"reps\": {reps},\n  \"points\": [\n"
    )?;
    for (i, p) in batch_points.iter().enumerate() {
        writeln!(
            str_json,
            "    {{\"batch_size\": {}, \"elapsed_ms\": {:.3}, \"items_per_sec\": {:.0}, \
             \"speedup_vs_unbatched\": {:.3}}}{}",
            p.batch,
            p.elapsed_ms,
            p.items_per_sec,
            unbatched_ms / p.elapsed_ms,
            if i + 1 < batch_points.len() { "," } else { "" }
        )?;
    }
    write!(
        str_json,
        "  ],\n  \"ingest\": {{\n    \"items\": {ingest_items},\n    \"reps\": {reps},\n    \
         \"schema\": \"bus (12 attrs)\",\n    \"reference\": \"Arc<BTreeMap> + heap-string values \
         (pre-flat-map representation)\",\n    \"points\": [\n"
    )?;
    for (i, p) in ingest_points.iter().enumerate() {
        writeln!(
            str_json,
            "      {{\"op\": \"{}\", \"arm\": \"{}\", \"elapsed_ms\": {:.3}, \
             \"items_per_sec\": {:.0}, \"allocs_per_item\": {:.3}}}{}",
            p.op,
            p.arm,
            p.elapsed_ms,
            p.items_per_sec,
            p.allocs_per_item,
            if i + 1 < ingest_points.len() { "," } else { "" }
        )?;
    }
    write!(str_json, "    ]\n  }},\n  \"history\": {STREAMS_HISTORY}\n}}\n")?;
    write_json("BENCH_streams.json", &str_json)?;

    // ---- shard-parallel stages: replica scaling ------------------------------
    let cores = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    // Sweep 1..=cores, but always include the 4-replica point so the report
    // is comparable across hosts; cap at 8 (the RTEC stage shards by the 4
    // regions, so scaling flattens well before that).
    let max_replicas = cores.clamp(4, 8);
    // Both profiles run the same stream. At ~10 ms end to end it times
    // thread start-up as much as sharding, so the speedup columns are
    // reported, not gated; `--check` bounds only the partition plumbing per
    // SDE, which the stage timers measure whatever the run's length.
    let pipe_duration: i64 = 2400;
    let pipe_reps = 5;
    let pipe_window = WindowConfig::new(600, 300)?;
    let pipe_scenario = Scenario::generate(ScenarioConfig::small(pipe_duration, 7))?;
    let n_sdes = pipe_scenario.sdes.len();
    out.line(String::new());
    out.line(format!(
        "shard scaling: Dublin pipeline end to end, {n_sdes} SDEs, WM 600 s / step 300 s, \
         best of {pipe_reps}, {cores} core(s)"
    ));
    out.line(format!(
        "{:>9} {:>13} {:>12} {:>9} {:>11}",
        "replicas", "elapsed (ms)", "SDEs/s", "speedup", "eff/core"
    ));

    // Warm-up for the same reason as the recognition sweep: the first
    // pipeline run of the process pays one-off costs that would otherwise
    // inflate the single-replica baseline every other point is divided by.
    let _ = pipeline_run_ms(&pipe_scenario, pipe_window, 1)?;

    // Interleave the reps round-robin over the replica counts instead of
    // running each point's reps back to back: a sustained load spike on the
    // host then costs every point one rep rather than wiping out all reps of
    // whichever point it happened to land on, which is what the best-of-reps
    // minimum needs to stay comparable across points.
    let mut best_elapsed: Vec<Option<f64>> = vec![None; max_replicas];
    let mut best_overhead: Vec<Option<Overhead>> = (0..max_replicas).map(|_| None).collect();
    for _ in 0..pipe_reps {
        for replicas in 1..=max_replicas {
            let (elapsed, overhead) = pipeline_run_ms(&pipe_scenario, pipe_window, replicas)?;
            let e = &mut best_elapsed[replicas - 1];
            if e.is_none_or(|b| elapsed < b) {
                *e = Some(elapsed);
            }
            // The overhead breakdown is tracked independently of the elapsed
            // minimum: the stage timers are wall-clock brackets, so a
            // preemption landing inside a bracketed section charges the whole
            // descheduled quantum (several ms on a busy 1-core host) to that
            // stage even in a rep whose end-to-end time was the fastest. The
            // minimum overhead across reps is the intrinsic plumbing cost the
            // guard band is meant to bound.
            let sum = |o: &Overhead| o.partition_ms + o.merge_ms + o.queue_stall_ms;
            let slot = &mut best_overhead[replicas - 1];
            if slot.as_ref().is_none_or(|b| sum(&overhead) < sum(b)) {
                *slot = Some(overhead);
            }
        }
    }
    let mut shard_points = Vec::new();
    for (i, elapsed) in best_elapsed.into_iter().enumerate() {
        let elapsed_ms = elapsed.expect("at least one rep");
        let overhead = best_overhead[i].take().expect("at least one rep");
        let sdes_per_sec = n_sdes as f64 / (elapsed_ms / 1e3);
        shard_points.push(ShardPoint { replicas: i + 1, elapsed_ms, sdes_per_sec, overhead });
    }
    let serial_pipeline_ms = shard_points[0].elapsed_ms;
    // Per-core efficiency divides the speedup by the cores a shard shape can
    // actually use — extra replicas on a starved host are not "wasted cores".
    let usable = |replicas: usize| replicas.min(cores) as f64;
    for p in &shard_points {
        let speedup = serial_pipeline_ms / p.elapsed_ms;
        out.line(format!(
            "{:>9} {:>13.1} {:>12.0} {:>8.2}x {:>11.2}",
            p.replicas,
            p.elapsed_ms,
            p.sdes_per_sec,
            speedup,
            speedup / usable(p.replicas)
        ));
    }

    out.line(String::new());
    out.line("shard overhead breakdown (cleanest rep per point):");
    out.line(format!(
        "{:>9} {:>11} {:>11} {:>12} {:>12}",
        "replicas", "part (ms)", "merge (ms)", "stalls (ms)", "merge items"
    ));
    for p in &shard_points {
        out.line(format!(
            "{:>9} {:>11.2} {:>11.2} {:>12.2} {:>12}",
            p.replicas,
            p.overhead.partition_ms,
            p.overhead.merge_ms,
            p.overhead.queue_stall_ms,
            p.overhead.merge_in_items
        ));
    }

    let mut par_json = String::new();
    write!(
        par_json,
        "{{\n  \"benchmark\": \"shard_scaling\",\n  \"profile\": \"{profile}\",\n  \
         \"cores\": {cores},\n  \
         \"scenario\": {{\"preset\": \"small\", \"duration_s\": {pipe_duration}, \"sdes\": {n_sdes}}},\n  \
         \"window\": {{\"wm_s\": 600, \"step_s\": 300}},\n  \
         \"reps\": {pipe_reps},\n  \"points\": [\n"
    )?;
    for (i, p) in shard_points.iter().enumerate() {
        let speedup = serial_pipeline_ms / p.elapsed_ms;
        writeln!(
            par_json,
            "    {{\"replicas\": {}, \"elapsed_ms\": {:.3}, \"sdes_per_sec\": {:.0}, \
             \"speedup_vs_1\": {:.3}, \"efficiency_per_core\": {:.3}, \
             \"partition_ms\": {:.3}, \"merge_ms\": {:.3}, \"queue_stall_ms\": {:.3}, \
             \"merge_in_items\": {}}}{}",
            p.replicas,
            p.elapsed_ms,
            p.sdes_per_sec,
            speedup,
            speedup / usable(p.replicas),
            p.overhead.partition_ms,
            p.overhead.merge_ms,
            p.overhead.queue_stall_ms,
            p.overhead.merge_in_items,
            if i + 1 < shard_points.len() { "," } else { "" }
        )?;
    }
    write!(par_json, "  ],\n  \"history\": {PARALLEL_HISTORY}\n}}\n")?;
    write_json("BENCH_parallel.json", &par_json)?;

    // ---- crash recovery: checkpoint overhead + recovery latency -------------
    // Two costs, reported separately because they have different knobs:
    //
    // * *supervision* — arming `FaultPolicy::Restart` logs every input item
    //   (one clone per supervised worker pass) so a crashed worker can be
    //   replayed; this is paid regardless of cadence, measured as the
    //   cadence-off arm against the unsupervised baseline;
    // * *checkpointing* — the barriers themselves (engine snapshots, store
    //   writes, log truncation), measured as each cadence against the
    //   cadence-off arm. Cadence 1000 is the default recommended in the
    //   README; the check below holds its cost to ≤5%.
    let recovery_reps = pipe_reps + 2;
    // The sweep runs the *plain* (1-replica) topology: checkpoint cost is a
    // property of the barrier/snapshot machinery, not of the shard shape,
    // and single workers keep the 1-core scheduler noise far below the 5%
    // band. It also needs a longer stream than the shard sweep so each
    // worker consumes well past the default cadence and barriers actually
    // fire.
    let plain = |base: PipelineOptions| PipelineOptions { rtec_replicas: 1, ..base };
    let recovery_duration: i64 = if quick { 4800 } else { 9600 };
    let recovery_scenario = Scenario::generate(ScenarioConfig::small(recovery_duration, 7))?;
    let n_recovery_sdes = recovery_scenario.sdes.len();
    out.line(String::new());
    out.line(format!(
        "crash recovery: plain Dublin pipeline, {n_recovery_sdes} SDEs, WM 600 s / step 300 s, \
         best of {recovery_reps}"
    ));
    out.line(format!(
        "{:>13} {:>13} {:>12} {:>10} {:>16} {:>7}",
        "cadence", "elapsed (ms)", "SDEs/s", "vs unsup", "ckpt cost (ms)", "ckpts"
    ));
    let cadences: &[(&'static str, usize)] = &[("off", 0), ("1k", 1_000), ("10k", 10_000)];
    let mut best_unsupervised = f64::INFINITY;
    let mut best: Vec<Option<(f64, u64)>> = vec![None; cadences.len()];
    // Checkpoint overhead is a couple of milliseconds against scheduler
    // noise of the same order, so it is measured as a *paired* difference:
    // each rep runs the cadence-off arm and every cadence arm back to back,
    // and a load spike that inflates one inflates the other, cancelling in
    // the per-rep delta. The minimum delta over reps is the cleanest
    // observation of the barriers' true cost.
    let mut best_delta: Vec<f64> = vec![f64::INFINITY; cadences.len()];
    for _ in 0..recovery_reps {
        let (unsupervised, _) = supervised_run_ms(
            &recovery_scenario,
            pipe_window,
            &plain(PipelineOptions::standard()),
        )?;
        best_unsupervised = best_unsupervised.min(unsupervised);
        let mut rep_off = f64::INFINITY;
        for (i, &(_, cadence)) in cadences.iter().enumerate() {
            // An unset cadence under restart supervision now defaults to
            // `DEFAULT_RESTART_CADENCE`, so the off arm disables barriers
            // explicitly with a cadence the stream can never reach.
            let effective = if cadence == 0 { usize::MAX } else { cadence };
            let options = plain(PipelineOptions::recovering(effective, 2));
            let (elapsed, snap) = supervised_run_ms(&recovery_scenario, pipe_window, &options)?;
            let checkpoints: u64 = snap.stages.values().map(|s| s.checkpoints).sum();
            if cadence == 0 {
                rep_off = elapsed;
            }
            best_delta[i] = best_delta[i].min(elapsed - rep_off);
            let slot = &mut best[i];
            if slot.is_none_or(|(b, _)| elapsed < b) {
                *slot = Some((elapsed, checkpoints));
            }
        }
    }
    let mut recovery_points = Vec::new();
    for (i, &(label, cadence)) in cadences.iter().enumerate() {
        let (elapsed_ms, checkpoints) = best[i].expect("at least one rep");
        recovery_points.push(RecoveryPoint {
            label,
            cadence,
            elapsed_ms,
            sdes_per_sec: n_recovery_sdes as f64 / (elapsed_ms / 1e3),
            checkpoints,
            paired_delta_ms: best_delta[i].max(0.0),
        });
    }
    let supervised_off_ms = recovery_points[0].elapsed_ms;
    out.line(format!(
        "{:>13} {:>13.1} {:>12.0} {:>9.1}% {:>16} {:>7}",
        "unsupervised",
        best_unsupervised,
        n_recovery_sdes as f64 / (best_unsupervised / 1e3),
        0.0,
        "-",
        0
    ));
    for p in &recovery_points {
        out.line(format!(
            "{:>13} {:>13.1} {:>12.0} {:>9.1}% {:>9.2} ({:.1}%) {:>7}",
            p.label,
            p.elapsed_ms,
            p.sdes_per_sec,
            (p.elapsed_ms / best_unsupervised - 1.0) * 100.0,
            p.paired_delta_ms,
            p.paired_delta_ms / supervised_off_ms * 100.0,
            p.checkpoints
        ));
    }

    // Recovery latency: kill an RTEC worker halfway through the stream and
    // measure how long the supervisor takes to rebuild, restore and replay
    // it back to the pre-fault position (the stage's recovery_ns counter).
    let kill_at = (n_recovery_sdes / 2).max(1) as u64;
    let mut recovery_ms = f64::INFINITY;
    let mut replayed_items = 0u64;
    let mut killed_elapsed_ms = f64::INFINITY;
    for _ in 0..recovery_reps {
        let switch = insight_streams::chaos::KillSwitch::new();
        let options = PipelineOptions {
            kill_rtec_at: Some((kill_at, switch.clone())),
            ..plain(PipelineOptions::recovering(1_000, 2))
        };
        let (elapsed, snap) = supervised_run_ms(&recovery_scenario, pipe_window, &options)?;
        assert!(switch.fired(), "the injected kill never struck");
        let rtec = snap.rollup_stages().remove("rtec").expect("rtec stage reported");
        assert!(rtec.combined.restores > 0, "the supervisor restored the killed worker");
        let rep_recovery_ms = rtec.combined.recovery_ns as f64 / 1e6;
        if rep_recovery_ms < recovery_ms {
            recovery_ms = rep_recovery_ms;
            replayed_items = rtec.combined.replayed_items;
        }
        killed_elapsed_ms = killed_elapsed_ms.min(elapsed);
    }
    out.line(String::new());
    out.line(format!(
        "recovery latency: kill at SDE {kill_at}, cadence 1k — restore+replay {recovery_ms:.3} ms \
         ({replayed_items} item(s) replayed), killed run {killed_elapsed_ms:.1} ms end to end"
    ));

    let mut rcv_json = String::new();
    write!(
        rcv_json,
        "{{\n  \"benchmark\": \"crash_recovery\",\n  \"profile\": \"{profile}\",\n  \
         \"scenario\": {{\"preset\": \"small\", \"duration_s\": {recovery_duration}, \"sdes\": {n_recovery_sdes}}},\n  \
         \"window\": {{\"wm_s\": 600, \"step_s\": 300}},\n  \"reps\": {recovery_reps},\n  \
         \"unsupervised_ms\": {best_unsupervised:.3},\n  \
         \"checkpoint_overhead\": [\n"
    )?;
    for (i, p) in recovery_points.iter().enumerate() {
        writeln!(
            rcv_json,
            "    {{\"cadence\": \"{}\", \"checkpoint_every\": {}, \"elapsed_ms\": {:.3}, \
             \"sdes_per_sec\": {:.0}, \"overhead_vs_unsupervised\": {:.4}, \
             \"paired_checkpoint_cost_ms\": {:.3}, \
             \"overhead_vs_checkpoint_off\": {:.4}, \"checkpoints\": {}}}{}",
            p.label,
            p.cadence,
            p.elapsed_ms,
            p.sdes_per_sec,
            p.elapsed_ms / best_unsupervised - 1.0,
            p.paired_delta_ms,
            p.paired_delta_ms / supervised_off_ms,
            p.checkpoints,
            if i + 1 < recovery_points.len() { "," } else { "" }
        )?;
    }
    write!(
        rcv_json,
        "  ],\n  \"recovery\": {{\"kill_at_sde\": {kill_at}, \"checkpoint_every\": 1000, \
         \"recovery_ms\": {recovery_ms:.3}, \"replayed_items\": {replayed_items}, \
         \"killed_run_ms\": {killed_elapsed_ms:.3}}}\n}}\n"
    )?;
    write_json("BENCH_recovery.json", &rcv_json)?;

    let path = out.finish()?;
    eprintln!("results saved to {}", path.display());

    if check {
        let mut failures = Vec::new();
        // The recognition sweep is gated on what the solver *did*, not on
        // how long the host took over it: wall-clock floors here passed two
        // runs in four on the very commit that set them. Solver steps and
        // candidates examined repeat exactly, so the gate is equality.
        let pins = if quick { RECOGNITION_WORK_QUICK } else { RECOGNITION_WORK_STANDARD };
        for (p, (steps, candidates)) in points.iter().zip(pins) {
            if (p.run.solver_steps, p.run.candidates) != (steps, candidates) {
                failures.push(format!(
                    "recognition work at step/WM={}: {} solver steps, {} candidates vs the \
                     pinned {steps} and {candidates} (re-pin if the rules or the planner \
                     changed on purpose)",
                    p.label, p.run.solver_steps, p.run.candidates
                ));
            }
        }
        // Window-cycle allocations must decay sharply after the cold start:
        // the first query sizes the retained tables, later queries allocate
        // only for genuinely new working-set entries (Dublin traffic keeps
        // introducing vehicles and areas, so strict zero only holds on the
        // synthetic steady-state stream the zero-alloc tests pin). A last
        // window allocating half the cold start or more means the retained
        // state is being rebuilt instead of reused.
        for p in &points {
            let r = &p.run;
            if r.allocs_last.saturating_mul(2) >= r.allocs_first.max(1) {
                failures.push(format!(
                    "window-cycle allocations did not decay at step/WM={}: cold start {} vs \
                     last window {} (mean {:.1}/window over the sweep)",
                    p.label, r.allocs_first, r.allocs_last, r.allocs_per_window
                ));
            }
        }
        for p in &batch_points[1..] {
            if p.elapsed_ms > unbatched_ms * 1.25 {
                failures.push(format!(
                    "batching regression at batch={}: {:.2} ms vs per-item {:.2} ms",
                    p.batch, p.elapsed_ms, unbatched_ms
                ));
            }
        }
        // The flat representation's claim is its allocation contract, which
        // the counting allocator measures deterministically: building or
        // parsing a bus-schema item must allocate at least 5x less than the
        // old Arc<BTreeMap> representation (the measured ratios are far
        // higher — the floor only catches a representation regression).
        // Wall clock gets the file-wide lenient band: the flat arm must not
        // be slower than the reference beyond noise. Serializing into a warm
        // reused buffer must stay allocation-free.
        for op in ["build", "parse"] {
            let (flat, reference) = ingest_pair(op);
            let ratio = reference.allocs_per_item / flat.allocs_per_item.max(1e-9);
            if ratio < 5.0 {
                failures.push(format!(
                    "ingest {op} allocation regression: flat {:.2} allocs/item vs reference \
                     {:.2} (ratio {ratio:.1}x < 5x floor)",
                    flat.allocs_per_item, reference.allocs_per_item
                ));
            }
            if flat.elapsed_ms > reference.elapsed_ms * 1.25 {
                failures.push(format!(
                    "ingest {op} wall-clock regression: flat {:.2} ms vs reference {:.2} ms \
                     (> 25%)",
                    flat.elapsed_ms, reference.elapsed_ms
                ));
            }
        }
        for p in ingest_points.iter().filter(|p| p.arm == "reused-buffer") {
            if p.allocs_per_item >= 0.01 {
                failures.push(format!(
                    "ingest serialize regression: reused-buffer arm allocates \
                     {:.3}/item (want ~0)",
                    p.allocs_per_item
                ));
            }
        }
        // The partition plumbing itself (routing, merge) must stay cheap on
        // any host. The bound is per SDE, not a share of the run: a share moves
        // whenever another layer gets faster (it doubled when the RTEC
        // stage's cost halved) without the plumbing having changed. Clean
        // runs measure 0.4–1 µs per SDE; an accidental per-item deep clone or
        // lock costs several. Producer queue stalls are reported in the
        // table but *not* counted as plumbing: a blocked producer is
        // backpressure doing its job (it burns no CPU and the consumer keeps
        // draining), and on the bounded `sde` queue the feeds spend most of
        // the run parked by design.
        const PLUMBING_NS_PER_SDE: f64 = 3000.0;
        for p in &shard_points[1..] {
            let overhead_ms = p.overhead.partition_ms + p.overhead.merge_ms;
            let ns_per_sde = overhead_ms * 1e6 / n_sdes as f64;
            if ns_per_sde > PLUMBING_NS_PER_SDE {
                failures.push(format!(
                    "partition overhead at replicas={}: {:.2} ms over {n_sdes} SDEs = {:.0} ns/SDE \
                     (> {PLUMBING_NS_PER_SDE} ns)",
                    p.replicas, overhead_ms, ns_per_sde
                ));
            }
        }
        // Checkpointing at the default cadence must cost at most 5% of
        // throughput on top of the armed supervisor, measured by the paired
        // per-rep delta (common-mode noise cancelled — see the sweep above).
        for p in recovery_points.iter().filter(|p| p.cadence == 1_000) {
            if p.paired_delta_ms > supervised_off_ms * 0.05 {
                failures.push(format!(
                    "checkpoint overhead at cadence {}: {:.2} ms paired cost on a {:.1} ms \
                     run ({:+.1}% > 5%)",
                    p.cadence,
                    p.paired_delta_ms,
                    supervised_off_ms,
                    p.paired_delta_ms / supervised_off_ms * 100.0
                ));
            }
        }
        // The supervision cost itself (per-item input logging) gets the
        // file-wide lenient band: it guards against an accidental extra
        // clone in the hot path, not against noise.
        if supervised_off_ms > best_unsupervised * 1.25 {
            failures.push(format!(
                "supervision regression: {supervised_off_ms:.1} ms armed vs \
                 {best_unsupervised:.1} ms unsupervised (> 25%)"
            ));
        }
        // A recovery must actually have been measured, and must not cost
        // more than the whole killed run.
        if !recovery_ms.is_finite() || recovery_ms <= 0.0 {
            failures.push(format!("no recovery latency measured (got {recovery_ms} ms)"));
        }
        if !failures.is_empty() {
            for f in &failures {
                eprintln!("CHECK FAILED: {f}");
            }
            std::process::exit(1);
        }
        eprintln!(
            "check passed: recognition work matches its pins, no regression beyond the 25% guard band"
        );
    }
    Ok(())
}
