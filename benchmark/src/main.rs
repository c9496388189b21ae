//! End-to-end benchmark of the §3 Dublin topology. One invocation runs one
//! workload in one process, checks its outputs, prints every metric by name
//! with its unit and, as the last line of stdout, the result as one JSON
//! object. See README.md for what each workload and metric means.

mod host;
mod pacing;
mod stats;
mod sut;
mod taps;
mod trace;

use pacing::{Gate, FEEDS};
use stats::{median, percentile, LineSet};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;
use sut::{DublinPass, Inputs, Recovery, RelayPass, Schedule, StageTimes};

#[global_allocator]
static ALLOCATOR: host::CountingAllocator = host::CountingAllocator;

/// Trace seconds generated per run (about 37 k SDEs, 30 queries per
/// region), and for `--smoke`.
const TRACE_SECONDS: i64 = 1800;
const SMOKE_TRACE_SECONDS: i64 = 300;
/// Set-ups per run, each in a fresh process (this one and two children);
/// `setup_s` is their median.
const SETUPS: usize = 3;
/// Offered rate of `dublin_paced`, SDE/s: a fifth of flood capacity on
/// the reference host, so latency measures the path and not a backlog.
const PACED_RATE: f64 = 5000.0;
/// Times `relay_flood` replays each feed file per pass.
const RELAY_REPEATS: usize = 4;
/// Seed whose outputs are pinned under `golden/`.
const GOLDEN_SEED: u64 = 42;

/// Gated metrics, printed by every untraced run.
const END_TO_END: [(&str, &str); 5] = [
    ("sde_per_s", "1/s"),
    ("ce_latency_p50_ms", "ms"),
    ("ce_latency_p95_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, printed by every traced run.
const PER_LAYER: [(&str, &str); 35] = [
    ("rtec.window_ms_p50", "ms"),
    ("rtec.window_ms_p95", "ms"),
    ("rtec.windows", "count"),
    ("rtec.busy_share", "ratio"),
    ("rtec.ingest_ns_per_sde", "ns"),
    ("rtec.window_ms_p50.step_eq_wm", "ms"),
    ("items.build_ns_per_sde", "ns"),
    ("items.decode_ns_per_sde", "ns"),
    ("json.parse_ns_per_item", "ns"),
    ("json.write_ns_per_item", "ns"),
    ("json.bytes_per_item", "bytes"),
    ("item.allocs_per_item", "count"),
    ("queue.hop_ns_per_item.b64", "ns"),
    ("queue.hop_ns_per_item.b1", "ns"),
    ("plumbing.ns_per_item", "ns"),
    ("stage.rtec.busy_ms", "ms"),
    ("stage.partition.busy_ms", "ms"),
    ("stage.merge.busy_ms", "ms"),
    ("stage.crowd.busy_ms", "ms"),
    ("stage.queue.stall_ms", "ms"),
    ("crowd.resolves", "count"),
    ("crowd.resolve_us_p50", "us"),
    ("ce.path_ms_p50", "ms"),
    ("ce.path_ms_p95", "ms"),
    ("checkpoint.snapshot_ms_p50", "ms"),
    ("checkpoint.restore_ms_p50", "ms"),
    ("checkpoint.blob_kb", "kB"),
    ("trace.serial_cost_s", "s"),
    ("trace.unattributed_share", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("mem.run_delta_mb", "MB"),
    ("host.cpu_s_per_msde", "s"),
    ("host.calib_ms", "ms"),
    ("gen.late_p95_ms", "ms"),
    ("datagen.generate_s", "s"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Workload {
    DublinFlood,
    DublinPaced,
    DublinRecovering,
    RelayFlood,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::DublinFlood,
        Workload::DublinPaced,
        Workload::DublinRecovering,
        Workload::RelayFlood,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::DublinFlood => "dublin_flood",
            Workload::DublinPaced => "dublin_paced",
            Workload::DublinRecovering => "dublin_recovering",
            Workload::RelayFlood => "relay_flood",
        }
    }

    fn recovery(self) -> Recovery {
        match self {
            Workload::DublinRecovering => Recovery::KillAtHalf,
            _ => Recovery::Off,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    write_golden: bool,
    /// Set up once, print how long it took and exit: what a run starts as a
    /// child process to sample `setup_s` from a cold start.
    setup_only: bool,
}

const USAGE: &str = "usage: --workload <dublin_flood|dublin_paced|dublin_recovering|relay_flood> \
                     [--seed <u64>] [--seconds <n>] [--trace <0|1>] [--smoke] [--write-golden] [--setup-only]";

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: Workload::DublinFlood,
        seed: GOLDEN_SEED,
        seconds: 18.0,
        trace: false,
        smoke: false,
        write_golden: false,
        setup_only: false,
    };
    let mut named = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                parsed.workload = *Workload::ALL
                    .iter()
                    .find(|w| w.name() == name)
                    .ok_or(format!("unknown workload `{name}`"))?;
                named = true;
            }
            "--seed" => parsed.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                parsed.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                parsed.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--smoke" => parsed.smoke = true,
            "--write-golden" => parsed.write_golden = true,
            "--setup-only" => parsed.setup_only = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if !named {
        return Err("--workload is required".into());
    }
    Ok(parsed)
}

/// What a set-up leaves behind for the timed passes.
enum Prepared {
    Dublin {
        inputs: Box<Inputs>,
        gates: HashMap<(i64, usize), Gate>,
        /// The open loop's due times (`dublin_paced` only).
        schedule: Option<Schedule>,
        /// Canonical recognitions of the warm-up pass, as a set of lines.
        reference: BTreeSet<String>,
        reference_digest: String,
    },
    Relay {
        inputs: Box<Inputs>,
        lines: [Arc<[u8]>; FEEDS],
        expected: LineSet,
        /// The previous pass's output buffer, for the next pass to reuse.
        spare: Vec<u8>,
    },
}

impl Prepared {
    fn inputs(&self) -> &Inputs {
        match self {
            Prepared::Dublin { inputs, .. } | Prepared::Relay { inputs, .. } => inputs,
        }
    }

    /// Digest pinned under `golden/` for the default seed.
    fn digest(&self) -> String {
        match self {
            Prepared::Dublin { reference_digest, .. } => reference_digest.clone(),
            Prepared::Relay { expected, .. } => expected.digest(),
        }
    }
}

/// One set-up: generate the inputs from the seed, build what the workload
/// reads, and run one untimed warm-up pass (which is also the pass-to-pass
/// reference).
fn set_up(workload: Workload, trace_seconds: i64, seed: u64) -> Result<Prepared, String> {
    let inputs = Box::new(Inputs::generate(trace_seconds, seed)?);
    if workload == Workload::RelayFlood {
        let lines = sut::encode_feeds(&inputs, RELAY_REPEATS);
        let expected =
            lines.iter().map(|l| LineSet::of(l)).fold(LineSet::default(), LineSet::merge);
        let spare = sut::run_relay_pass(&lines, Vec::new())?.written;
        return Ok(Prepared::Relay { inputs, lines, expected, spare });
    }
    let step = sut::WINDOW.1;
    let gates = pacing::gates(&inputs.views, inputs.first_query(step), step)
        .into_iter()
        .map(|g| ((g.q, g.region), g))
        .collect();
    let schedule = if workload == Workload::DublinPaced {
        let first = inputs.views.iter().filter_map(|v| v.arrival.first()).min();
        let last = inputs.views.iter().filter_map(|v| v.arrival.last()).max();
        let (first, last) = first.zip(last).ok_or("the trace is empty")?;
        let n = inputs.n_sdes();
        Some(Arc::new(std::array::from_fn(|f| {
            pacing::due_offsets_ns(&inputs.views[f].arrival, *first, last - first, n, PACED_RATE)
        })))
    } else {
        None
    };
    let warm_up = sut::run_dublin_pass(&inputs, None, workload.recovery())?;
    Ok(Prepared::Dublin {
        inputs,
        gates,
        schedule,
        reference: warm_up.canonical.lines().map(str::to_string).collect(),
        reference_digest: stats::text_digest(&warm_up.canonical),
    })
}

/// A set-up's share of `setup_s`: from `started` to ready for the first
/// timed pass, less the time the load generator took to make the trace
/// (`datagen.generate_s`: not the system's work).
fn set_up_seconds(started: Instant, prepared: &Prepared) -> f64 {
    started.elapsed().as_secs_f64() - prepared.inputs().generate_s
}

/// One more set-up of the same workload and seed, in a child process that
/// starts cold — lazily built state and a fresh allocator included, which a
/// repeat inside this process would skip. Waits for the child to end.
fn set_up_in_child(args: &Args) -> Result<f64, String> {
    let exe = std::env::current_exe().map_err(|e| format!("own executable: {e}"))?;
    let out = std::process::Command::new(exe)
        .args(["--workload", args.workload.name(), "--setup-only"])
        .args(["--seed", &args.seed.to_string()])
        .output()
        .map_err(|e| format!("set-up child: {e}"))?;
    let text = String::from_utf8_lossy(&out.stdout);
    match text.trim().parse::<f64>() {
        Ok(seconds) if out.status.success() => Ok(seconds),
        _ => Err(format!(
            "set-up child {}: {text}{}",
            out.status,
            String::from_utf8_lossy(&out.stderr)
        )),
    }
}

/// What one timed pass contributes to the run's result.
#[derive(Default)]
struct PassOutcome {
    sdes: u64,
    wall_s: f64,
    cpu_s: f64,
    attempted: u64,
    failed: u64,
    /// Per summary, sink arrival minus the instant its inputs were complete,
    /// and minus the arrival that released it (open loop only).
    latencies_ms: Vec<f64>,
    path_ms: Vec<f64>,
    /// Generator lateness per hand-over, in release order (open loop only).
    late_ms: Vec<f64>,
    /// The open loop's pass did not take the offered load.
    fell_behind: bool,
    stages: StageTimes,
    notes: Vec<String>,
}

impl PassOutcome {
    fn fail(&mut self, n: u64, why: String) {
        if n > 0 {
            self.failed += n;
            self.notes.push(why);
        }
    }
}

/// Whether a paced pass kept up: it took the offered rate within 3 %, and
/// the generator's lateness p95 did not grow by more than 50 ms from the
/// first to the second half of the hand-overs (`late_ms`, in release order).
fn kept_up(rate: f64, late_ms: &[f64]) -> Result<(), String> {
    let (early, recent) = late_ms.split_at(late_ms.len() / 2);
    let growth = percentile(recent, 95.0) - percentile(early, 95.0);
    if (rate / PACED_RATE - 1.0).abs() > 0.03 || growth > 50.0 {
        return Err(format!(
            "fell behind: took {rate:.0} of {PACED_RATE:.0} SDE/s offered, generator lateness \
             p95 grew by {growth:.1} ms from the first to the second half"
        ));
    }
    Ok(())
}

fn judge_dublin(
    workload: Workload,
    pass: DublinPass,
    inputs: &Inputs,
    gates: &HashMap<(i64, usize), Gate>,
    schedule: Option<&Schedule>,
    reference: &BTreeSet<String>,
) -> PassOutcome {
    let mut out = PassOutcome {
        sdes: inputs.n_sdes() as u64,
        wall_s: pass.wall_s,
        cpu_s: pass.cpu_s,
        attempted: (inputs.n_sdes() + gates.len()) as u64,
        stages: pass.stages,
        ..PassOutcome::default()
    };

    // Every expected summary present, each identical to the warm-up pass's.
    let lines: BTreeSet<String> = pass.canonical.lines().map(str::to_string).collect();
    let differing = reference.difference(&lines).count().max(lines.difference(reference).count());
    let unexpected = pass.summaries.iter().filter(|key| !gates.contains_key(key)).count();
    let miscounted = pass.summaries.len().abs_diff(gates.len());
    out.fail(
        differing.max(miscounted).max(unexpected) as u64,
        format!(
            "{differing} summaries differ from the warm-up pass; {} arrived ({unexpected} \
             unexpected), {} expected",
            pass.summaries.len(),
            gates.len()
        ),
    );

    if let Some(due) = schedule {
        // Latency of each summary, from two starting points: the instant
        // its inputs were complete (`ce_latency`) and the arrival that pushed
        // it out (`ce.path`).
        let eos_ns = due.iter().filter_map(|d| d.last().copied()).max().unwrap_or(0);
        let ready = |gate: &Gate| pacing::ready_ns(gate, |feed, pos| due[feed][pos], eos_ns);
        let mut openings: Vec<u64> = gates.values().map(ready).chain([eos_ns]).collect();
        openings.sort_unstable();
        let mut unplaced = 0;
        for (i, key) in pass.summaries.iter().enumerate() {
            let sighting = gates.get(key).map(ready).zip(taps::reached_at(&pass.seen, i));
            let Some((complete, seen)) = sighting.filter(|(complete, seen)| complete <= seen)
            else {
                unplaced += 1;
                continue;
            };
            // The summary's own opening is among them and not after `seen`.
            let released = pacing::released_by_ns(&openings, seen).unwrap_or(complete);
            out.latencies_ms.push((seen - complete) as f64 / 1e6);
            out.path_ms.push((seen - released) as f64 / 1e6);
        }
        out.fail(
            unplaced,
            format!("{unplaced} summaries never seen by the poller, or before their inputs"),
        );

        let mut late: Vec<(u64, f64)> = Vec::new();
        for (log, due) in pass.released.iter().zip(due.iter()) {
            let mut first = 0;
            for &(upto, at) in log {
                late.push((at, at.saturating_sub(due[first]) as f64 / 1e6));
                first = upto;
            }
        }
        late.sort_by_key(|l| l.0);
        out.late_ms = late.iter().map(|l| l.1).collect();
        // An open loop's throughput is the rate at which the system took
        // the load: SDEs over the time to the last release. (Sources block
        // on a full queue, so a system that falls behind stretches it.) The
        // drain after the last release is not offered load.
        out.wall_s = late.last().map_or(out.wall_s, |l| l.0 as f64 / 1e9);
        if let Err(why) = kept_up(out.sdes as f64 / out.wall_s, &out.late_ms) {
            out.fell_behind = true;
            out.notes.push(why);
        }
    }
    if workload == Workload::DublinRecovering {
        // `KillAt` checks its switch and then sets it, so two replicas
        // passing the kill point together both die: more than one restore
        // is the system's race, not a lost recovery — noted, since the pass
        // then did the recovery work twice (README.md, deviations).
        let restores = pass.stages.restores;
        if pass.kill_fired != Some(true) || restores == 0 {
            out.fail(1, format!("kill fired: {:?}, restores: {restores}", pass.kill_fired));
        } else if restores > 1 {
            out.notes.push(format!("the injected kill struck {restores} replicas at once"));
        }
    }
    out
}

fn judge_relay(pass: &RelayPass, expected: LineSet) -> PassOutcome {
    let mut out = PassOutcome {
        sdes: expected.lines,
        wall_s: pass.wall_s,
        cpu_s: pass.cpu_s,
        attempted: expected.lines,
        stages: pass.stages,
        ..PassOutcome::default()
    };
    let got = LineSet::of(&pass.written);
    if got != expected {
        out.fail(
            got.lines.abs_diff(expected.lines).max(1),
            format!("relayed {} expected {}", got.digest(), expected.digest()),
        );
    }
    out
}

fn timed_pass(workload: Workload, prepared: &mut Prepared) -> Result<PassOutcome, String> {
    match prepared {
        Prepared::Dublin { inputs, gates, schedule, reference, .. } => {
            let pass = sut::run_dublin_pass(inputs, schedule.as_ref(), workload.recovery())?;
            Ok(judge_dublin(workload, pass, inputs, gates, schedule.as_ref(), reference))
        }
        Prepared::Relay { lines, expected, spare, .. } => {
            let mut pass = sut::run_relay_pass(lines, std::mem::take(spare))?;
            let outcome = judge_relay(&pass, *expected);
            *spare = std::mem::take(&mut pass.written);
            Ok(outcome)
        }
    }
}

fn golden_path(workload: Workload) -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("golden")
        .join(format!("{}.{GOLDEN_SEED}.digest", workload.name()))
}

/// `Ok(None)` when the run is not the pinned one (another seed, `--smoke`).
fn check_golden(args: &Args, digest: &str) -> Result<Option<bool>, String> {
    if args.seed != GOLDEN_SEED || args.smoke {
        return Ok(None);
    }
    let path = golden_path(args.workload);
    if args.write_golden {
        std::fs::write(&path, format!("{digest}\n")).map_err(|e| format!("{path:?}: {e}"))?;
    }
    let pinned = std::fs::read_to_string(&path).map_err(|e| format!("{path:?}: {e}"))?;
    Ok(Some(pinned.trim() == digest))
}

/// The layer drives of a traced run and the metrics read off their spans.
fn drive_layers(
    workload: Workload,
    inputs: &Inputs,
    plain: &PassOutcome,
    values: &mut HashMap<&'static str, f64>,
) -> Result<(), String> {
    let mut tracer = trace::Tracer::new();
    let n = inputs.n_sdes() as f64;

    let serial = tracer.open("serial_pass", None);
    sut::drive_recognition(inputs, sut::WINDOW, &mut tracer, serial)?;
    tracer.close(serial, n as u64);
    let serial_wall_s = tracer.layer("serial_pass", serial).durations_ms[0] / 1e3;

    let disjoint = tracer.open("serial_pass.step_eq_wm", None);
    sut::drive_recognition(inputs, sut::WINDOW_STEP_EQ_WM, &mut tracer, disjoint)?;
    tracer.close(disjoint, n as u64);

    let streams = tracer.open("streams", None);
    let counts = sut::drive_streams(inputs, &mut tracer, streams)?;
    tracer.close(streams, n as u64);

    let ns_per_unit = |name: &str, root| {
        let layer = tracer.layer(name, root);
        layer.self_s * 1e9 / layer.count.max(1) as f64
    };
    let windows = tracer.layer("rtec.window", serial);
    values.insert("rtec.window_ms_p50", median(&windows.durations_ms));
    values.insert("rtec.window_ms_p95", percentile(&windows.durations_ms, 95.0));
    values.insert("rtec.windows", windows.durations_ms.len() as f64);
    values.insert("rtec.busy_share", windows.self_s / serial_wall_s);
    values.insert("rtec.ingest_ns_per_sde", ns_per_unit("rtec.ingest", serial));
    values.insert(
        "rtec.window_ms_p50.step_eq_wm",
        median(&tracer.layer("rtec.window", disjoint).durations_ms),
    );
    values.insert("items.build_ns_per_sde", ns_per_unit("items.build", streams));
    values.insert("items.decode_ns_per_sde", ns_per_unit("items.decode", serial));
    values.insert("json.parse_ns_per_item", ns_per_unit("json.parse", streams));
    values.insert("json.write_ns_per_item", ns_per_unit("json.write", streams));
    values.insert("json.bytes_per_item", counts.bytes_per_item);
    values.insert("item.allocs_per_item", counts.allocs_per_item);
    values.insert("queue.hop_ns_per_item.b64", ns_per_unit("queue.hop.b64", streams));
    values.insert("queue.hop_ns_per_item.b1", ns_per_unit("queue.hop.b1", streams));
    values.insert("plumbing.ns_per_item", ns_per_unit("plumbing", streams));
    let resolves = tracer.layer("crowd.resolve", serial);
    values.insert("crowd.resolves", resolves.durations_ms.len() as f64);
    values.insert(
        "crowd.resolve_us_p50",
        if resolves.durations_ms.is_empty() { 0.0 } else { median(&resolves.durations_ms) * 1e3 },
    );
    let snapshots = tracer.layer("checkpoint.snapshot", serial);
    values.insert("checkpoint.snapshot_ms_p50", median(&snapshots.durations_ms));
    values.insert(
        "checkpoint.restore_ms_p50",
        median(&tracer.layer("checkpoint.restore", serial).durations_ms),
    );
    values.insert(
        "checkpoint.blob_kb",
        snapshots.count as f64 / 1024.0 / snapshots.durations_ms.len().max(1) as f64,
    );

    // Serial cost of one pass: the self times of the layers on this
    // workload's path (README.md, "Layers"). The relay walks its per-item
    // layers once per replayed line.
    let serial_cost_s = match workload {
        Workload::RelayFlood => {
            let per_item: f64 =
                [("json.parse", streams), ("items.decode", serial), ("json.write", streams)]
                    .iter()
                    .map(|&(name, root)| ns_per_unit(name, root))
                    .sum();
            per_item / 1e9 * plain.sdes as f64
        }
        _ => {
            let mut on_path = vec!["items.decode", "rtec.ingest", "rtec.window", "crowd.resolve"];
            if workload == Workload::DublinRecovering {
                on_path.extend(["checkpoint.snapshot", "checkpoint.restore"]);
            }
            on_path.iter().map(|name| tracer.layer(name, serial).self_s).sum()
        }
    };
    values.insert("trace.serial_cost_s", serial_cost_s);
    values.insert("trace.unattributed_share", 1.0 - serial_cost_s / plain.cpu_s);

    // What recording costs: spans of the serial pass times the measured
    // price of one span, as a share of that pass.
    let mut scratch = trace::Tracer::new();
    let started = Instant::now();
    for _ in 0..100_000 {
        let id = scratch.open("span", None);
        scratch.close(id, 1);
    }
    let s_per_span = started.elapsed().as_secs_f64() / 100_000.0;
    values.insert(
        "trace.overhead_share",
        tracer.spans_below(serial) as f64 * s_per_span / serial_wall_s,
    );

    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("trace.{}.jsonl", workload.name()));
    let write = || -> std::io::Result<()> {
        std::fs::create_dir_all(&dir)?;
        let mut file = std::io::BufWriter::new(std::fs::File::create(&path)?);
        tracer.write_jsonl(workload.name(), &mut file)?;
        std::io::Write::flush(&mut file)
    };
    write().map_err(|e| format!("{path:?}: {e}"))?;
    println!("# spans written to {}", path.display());
    Ok(())
}

/// The run's result, as printed on the last line.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

fn run(args: &Args) -> Result<Outcome, String> {
    let trace_seconds = if args.smoke { SMOKE_TRACE_SECONDS } else { TRACE_SECONDS };

    // The children first, so that this process goes from its own set-up
    // straight into the timed passes.
    let mut setup_s = Vec::new();
    if !(args.smoke || args.trace) {
        for _ in 1..SETUPS {
            setup_s.push(set_up_in_child(args)?);
        }
    }
    let started = Instant::now();
    let mut prepared = set_up(args.workload, trace_seconds, args.seed)?;
    setup_s.push(set_up_seconds(started, &prepared));
    let rss_after_setup_mb = host::rss_mb();
    println!(
        "# set-ups: {setup_s:.3?} s after {:.3} s of datagen, {} SDEs per trace",
        prepared.inputs().generate_s,
        prepared.inputs().n_sdes()
    );
    let golden = check_golden(args, &prepared.digest())?;
    println!("# output digest {} (golden: {golden:?})", prepared.digest());

    // Timed passes: whole passes until the time is up. A traced run spends
    // a quarter of it here, the rest of its budget goes to the layer drives.
    let budget_s = if args.trace { args.seconds / 4.0 } else { args.seconds };
    let started = Instant::now();
    let mut passes: Vec<PassOutcome> = Vec::new();
    let mut calib_ms = Vec::new();
    loop {
        let pass = timed_pass(args.workload, &mut prepared)?;
        println!(
            "# pass {}: {:.3} s wall, {:.2} s cpu, {:.0} SDE/s, {} latency samples, {} failed",
            passes.len(),
            pass.wall_s,
            pass.cpu_s,
            pass.sdes as f64 / pass.wall_s,
            pass.latencies_ms.len(),
            pass.failed
        );
        for note in &pass.notes {
            println!("#   {note}");
        }
        passes.push(pass);
        calib_ms.push(host::calib_ms());
        let done = if args.smoke {
            passes.len() == 2
        } else {
            started.elapsed().as_secs_f64() >= budget_s
        };
        if done {
            break;
        }
    }

    let attempted: u64 = passes.iter().map(|p| p.attempted).sum();
    let mut failed: u64 = passes.iter().map(|p| p.failed).sum();
    if golden == Some(false) {
        println!("# output differs from {}", golden_path(args.workload).display());
        failed += 1;
    }
    // A system that cannot take the offered rate falls behind on every
    // pass; one pass alone is what a stall of the shared host looks like
    // (one in thirty, with `host.calib_ms` 40 % up) and stays a note.
    let behind = passes.iter().filter(|p| p.fell_behind).count() as u64;
    if behind >= 2 {
        println!("# {behind} passes fell behind the offered rate");
        failed += behind;
    }
    let rates: Vec<f64> = passes.iter().map(|p| p.sdes as f64 / p.wall_s).collect();
    let pooled = |pick: fn(&PassOutcome) -> &Vec<f64>| -> Vec<f64> {
        passes.iter().flat_map(|p| pick(p).iter().copied()).collect()
    };
    let (latencies, path) = (pooled(|p| &p.latencies_ms), pooled(|p| &p.path_ms));
    println!(
        "# {} passes, {} latency samples (supports p{:?}), host.calib_ms {:.3}",
        passes.len(),
        latencies.len(),
        stats::top_percentile(latencies.len()),
        median(&calib_ms)
    );

    let mut values: HashMap<&'static str, f64> = HashMap::new();
    let names: &[(&'static str, &'static str)] = if args.trace {
        let plain = &passes[0];
        drive_layers(args.workload, prepared.inputs(), plain, &mut values)?;
        let stage = |pick: fn(&StageTimes) -> f64| {
            median(&passes.iter().map(|p| pick(&p.stages)).collect::<Vec<_>>())
        };
        values.insert("stage.rtec.busy_ms", stage(|s| s.rtec_busy_ms));
        values.insert("stage.partition.busy_ms", stage(|s| s.partition_busy_ms));
        values.insert("stage.merge.busy_ms", stage(|s| s.merge_busy_ms));
        values.insert("stage.crowd.busy_ms", stage(|s| s.crowd_busy_ms));
        values.insert("stage.queue.stall_ms", stage(|s| s.queue_stall_ms));
        let cpu: Vec<f64> = passes.iter().map(|p| p.cpu_s / p.sdes as f64 * 1e6).collect();
        values.insert("host.cpu_s_per_msde", median(&cpu));
        values.insert("host.calib_ms", median(&calib_ms));
        // The open loop's own readings are 0 in the closed loops.
        let late = pooled(|p| &p.late_ms);
        let or_zero = |v: f64| if v.is_nan() { 0.0 } else { v };
        values.insert("gen.late_p95_ms", or_zero(percentile(&late, 95.0)));
        values.insert("ce.path_ms_p50", or_zero(median(&path)));
        values.insert("ce.path_ms_p95", or_zero(percentile(&path, 95.0)));
        values.insert("datagen.generate_s", prepared.inputs().generate_s);
        values.insert("mem.run_delta_mb", host::peak_rss_mb() - rss_after_setup_mb);
        &PER_LAYER
    } else {
        values.insert("sde_per_s", median(&rates));
        if latencies.is_empty() {
            // A closed loop has no arrival schedule to time a summary
            // against; the one latency it has is the batch's, input
            // available to output complete. Every run must print every
            // metric, so that is what both print here.
            let batch_ms = median(&passes.iter().map(|p| p.wall_s * 1e3).collect::<Vec<_>>());
            values.insert("ce_latency_p50_ms", batch_ms);
            values.insert("ce_latency_p95_ms", batch_ms);
        } else {
            values.insert("ce_latency_p50_ms", median(&latencies));
            values.insert("ce_latency_p95_ms", percentile(&latencies, 95.0));
        }
        values.insert("peak_rss_mb", host::peak_rss_mb());
        values.insert("setup_s", median(&setup_s));
        &END_TO_END
    };
    let metrics: Vec<_> = names
        .iter()
        .map(|&(name, unit)| (name, unit, values.get(name).copied().unwrap_or(f64::NAN)))
        .collect();
    if let Some(missing) = metrics.iter().find(|m| !m.2.is_finite()) {
        return Err(format!("{} was not measured", missing.0));
    }
    Ok(Outcome { correct: failed == 0, attempted, failed, metrics })
}

fn main() {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.workload == Workload::DublinRecovering {
        // The injected kill is a panic by design; keep its message and
        // backtrace out of the report, and every other panic in it.
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|message| message.starts_with("chaos: injected kill"));
            if !injected {
                default_hook(info);
            }
        }));
    }
    if args.setup_only {
        match set_up(args.workload, TRACE_SECONDS, args.seed) {
            Ok(prepared) => println!("{}", set_up_seconds(process_start, &prepared)),
            Err(e) => {
                eprintln!("{}: {e}", args.workload.name());
                std::process::exit(1);
            }
        }
        return;
    }
    let outcome = match run(&args) {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("{}: {e}", args.workload.name());
            std::process::exit(1);
        }
    };
    let mut json = Vec::new();
    for (name, unit, value) in &outcome.metrics {
        println!("{name} {value} {unit}");
        json.push(format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"));
    }
    println!("ops_attempted {} count", outcome.attempted);
    println!("ops_failed {} count", outcome.failed);
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.correct,
        outcome.attempted,
        outcome.failed,
        json.join(", ")
    );
    if !outcome.correct {
        std::process::exit(1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(&list.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn driver_arguments_parse() {
        let a =
            args(&["--workload", "relay_flood", "--seed", "7", "--seconds", "20", "--trace", "1"])
                .unwrap();
        assert_eq!(a.workload, Workload::RelayFlood);
        assert_eq!((a.seed, a.seconds, a.trace, a.smoke), (7, 20.0, true, false));
        assert_eq!(args(&["--workload", "dublin_paced"]).unwrap().seed, GOLDEN_SEED);
        assert!(args(&["--workload", "dublin_paced", "--setup-only"]).unwrap().setup_only);
        assert!(args(&[]).is_err(), "the workload must be named");
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--workload", "dublin_flood", "--trace", "2"]).is_err());
        assert!(args(&["--workload", "dublin_flood", "--seed"]).is_err());
    }

    #[test]
    fn a_paced_pass_keeps_up_on_rate_and_steady_lateness() {
        let steady: Vec<f64> = (0..100).map(|i| 0.2 + (i % 7) as f64 * 0.1).collect();
        assert!(kept_up(PACED_RATE * 0.98, &steady).is_ok());
        assert!(kept_up(PACED_RATE * 0.96, &steady).is_err(), "took 4 % less than offered");
        // Lateness that climbs through the pass is a growing backlog, even
        // when the sources' blocking has not yet dented the rate.
        let growing: Vec<f64> = (0..100).map(|i| i as f64 * 2.0).collect();
        assert!(kept_up(PACED_RATE, &growing).is_err());
    }

    /// `BENCHMARK.json` and the binary must name the same workloads and
    /// metrics with the same units.
    #[test]
    fn benchmark_json_matches_the_binary() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).unwrap();
        let count = |needle: &str| text.matches(needle).count();
        for w in Workload::ALL {
            assert_eq!(count(&format!("{{\"name\": \"{}\", \"why\"", w.name())), 1, "{}", w.name());
        }
        for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
            let entry = format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\", \"better\"");
            assert_eq!(count(&entry), 1, "{name}");
        }
        assert_eq!(count("\"better\""), END_TO_END.len() + PER_LAYER.len());
        assert_eq!(count("\"why\""), Workload::ALL.len());
    }
}
