//! Time arithmetic of the load generator and of the latency definition, over
//! plain arrival times — no system types, so every rule here is unit-tested
//! on hand-built traces.
//!
//! A trace is five feeds (feed 0 = bus, feeds 1–4 = the SCATS feed of region
//! 0–3), each a sequence of `(arrival second, region)` in nondecreasing
//! arrival order. Wall-clock instants are nanoseconds from the start of the
//! pass.

/// Number of feeds of the §3 topology.
pub const FEEDS: usize = 5;
/// Number of regions.
pub const REGIONS: usize = 4;

/// One feed, as the generator and the latency rule see it.
#[derive(Debug, Clone, Default)]
pub struct FeedView {
    /// Arrival second of each item, nondecreasing.
    pub arrival: Vec<i64>,
    /// Region index (0–3) of each item.
    pub region: Vec<u8>,
}

/// Open-loop schedule: the offset from pass start at which each item of a
/// feed is due, `(arrival − first) · n_total / (span · rate)` seconds — trace
/// time compressed by the one constant that makes the whole trace
/// (`n_total` items over `span` trace seconds) arrive at `rate` items/s.
/// Items sharing an arrival second are due together, as in the trace.
pub fn due_offsets_ns(
    arrival: &[i64],
    first: i64,
    span: i64,
    n_total: usize,
    rate: f64,
) -> Vec<u64> {
    let ns_per_trace_s = n_total as f64 / (span.max(1) as f64 * rate) * 1e9;
    arrival.iter().map(|&a| ((a - first).max(0) as f64 * ns_per_trace_s) as u64).collect()
}

/// How many items starting at `pos` are due at `now_ns`, at most `max`.
pub fn due_count(due_ns: &[u64], pos: usize, now_ns: u64, max: usize) -> usize {
    due_ns[pos..].iter().take(max).take_while(|&&d| d <= now_ns).count()
}

/// One expected recognition summary and the two items whose arrival opens
/// its query gate.
///
/// A region's engine fires query `q` once it has seen, on *both* of its
/// input classes, an SDE with `arrival > q`: a bus SDE of that region and an
/// SDE of the region's SCATS feed. `bus`/`scats` are the positions of those
/// first items in feed 0 and in the region's SCATS feed. When either class
/// never passes `q` (the tail of the trace, a region without sensors) the
/// query fires at end of stream instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Gate {
    pub q: i64,
    pub region: usize,
    pub bus: Option<usize>,
    pub scats: Option<usize>,
}

/// Every summary the pipeline must emit for the trace: per region that has
/// any SDE, one per grid point `first_query + k·step` up to the region's
/// last arrival, plus the one closing query beyond it.
pub fn gates(feeds: &[FeedView; FEEDS], first_query: i64, step: i64) -> Vec<Gate> {
    let mut out = Vec::new();
    for region in 0..REGIONS {
        let bus: Vec<(usize, i64)> = (0..feeds[0].arrival.len())
            .filter(|&i| feeds[0].region[i] as usize == region)
            .map(|i| (i, feeds[0].arrival[i]))
            .collect();
        let scats = &feeds[1 + region].arrival;
        let last = bus.last().map(|b| b.1).into_iter().chain(scats.last().copied()).max();
        let Some(last) = last else { continue };
        let mut q = first_query;
        loop {
            let b = bus.partition_point(|&(_, a)| a <= q);
            let s = scats.partition_point(|&a| a <= q);
            out.push(Gate {
                q,
                region,
                bus: bus.get(b).map(|&(i, _)| i),
                scats: (s < scats.len()).then_some(s),
            });
            if q > last {
                break;
            }
            q += step;
        }
    }
    out
}

/// The instant a summary's inputs were complete: the later of its two gate
/// items' instants (`at(feed, position)`), or `eos_ns` when the gate only
/// opens at end of stream. Not the query time: SCATS reports every 360 s, so
/// `q` itself precedes the data by up to a reporting period and would measure
/// the data's cadence, not the system.
pub fn ready_ns(gate: &Gate, at: impl Fn(usize, usize) -> u64, eos_ns: u64) -> u64 {
    match (gate.bus, gate.scats) {
        (Some(b), Some(s)) => at(0, b).max(at(1 + gate.region, s)),
        _ => eos_ns,
    }
}

/// The instant of the arrival that pushed a summary out. The pipeline moves
/// only when input does, and the only input that moves a finished summary
/// further is one that opens a query gate (or the end of the stream): of
/// those instants (`openings`, sorted, end of stream included) the latest at
/// or before the summary was `seen` in the sink. A summary the system emits
/// as soon as its inputs are complete is released by its own gate's opening;
/// one it holds back is released by a later one.
pub fn released_by_ns(openings: &[u64], seen: u64) -> Option<u64> {
    openings[..openings.partition_point(|&o| o <= seen)].last().copied()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(items: &[(i64, u8)]) -> FeedView {
        FeedView {
            arrival: items.iter().map(|i| i.0).collect(),
            region: items.iter().map(|i| i.1).collect(),
        }
    }

    #[test]
    fn due_times_compress_the_trace_to_the_offered_rate() {
        // 1000 items over 100 trace seconds offered at 500/s: the trace must
        // take 2 s of wall time, so one trace second is 20 ms.
        let due = due_offsets_ns(&[10, 10, 11, 60, 110], 10, 100, 1000, 500.0);
        assert_eq!(due, vec![0, 0, 20_000_000, 1_000_000_000, 2_000_000_000]);
        // Arrivals before `first` are due at once, never in the past.
        assert_eq!(due_offsets_ns(&[5], 10, 100, 1000, 500.0), vec![0]);
    }

    #[test]
    fn due_count_releases_what_is_due_and_nothing_else() {
        let due = [0, 0, 20, 20, 20, 50];
        assert_eq!(due_count(&due, 0, 0, 64), 2);
        assert_eq!(due_count(&due, 2, 19, 64), 0);
        assert_eq!(due_count(&due, 2, 20, 64), 3);
        assert_eq!(due_count(&due, 2, 20, 2), 2, "capped by the batch size");
        assert_eq!(due_count(&due, 5, 1000, 64), 1);
        assert_eq!(due_count(&due, 6, 1000, 64), 0, "exhausted");
    }

    /// Region 0: buses every 10 s, SCATS in two bursts (at 100 and 460).
    /// Region 1: buses only, no SCATS feed at all.
    fn scats_burst_trace() -> [FeedView; FEEDS] {
        let bus: Vec<(i64, u8)> = (0..60).map(|k| (10 * k, (k % 2) as u8)).collect();
        let scats0 = [(100, 0), (100, 0), (101, 0), (460, 0), (461, 0)];
        [feed(&bus), feed(&scats0), feed(&[]), feed(&[]), feed(&[])]
    }

    #[test]
    fn gate_waits_for_the_later_class() {
        let feeds = scats_burst_trace();
        let all = gates(&feeds, 60, 60);
        let g = |q: i64, region: usize| {
            all.iter().find(|g| g.q == q && g.region == region).cloned().unwrap()
        };
        // q = 60: first region-0 bus item after 60 is arrival 80 (position
        // 8); first SCATS item after 60 is the burst at 100 (position 0).
        assert_eq!(g(60, 0), Gate { q: 60, region: 0, bus: Some(8), scats: Some(0) });
        // q = 120 … 420 all wait for the *second* burst (position 3), however
        // early their bus item passed.
        for q in [120, 180, 420] {
            assert_eq!(g(q, 0).scats, Some(3), "q = {q}");
        }
        assert_eq!(g(120, 0).bus, Some(14), "region-0 bus item at arrival 140");
        // Past the last burst the gate never opens in-stream.
        assert_eq!(g(480, 0).scats, None);
        // Region 0's last arrival is 580 (bus): grid points 60..=540, plus
        // the closing query at 600.
        let qs: Vec<i64> = all.iter().filter(|g| g.region == 0).map(|g| g.q).collect();
        assert_eq!(qs, (1..=10).map(|k| 60 * k).collect::<Vec<_>>());
        assert_eq!(g(600, 0), Gate { q: 600, region: 0, bus: None, scats: None });
    }

    #[test]
    fn ready_is_the_later_gate_item_or_end_of_stream() {
        let feeds = scats_burst_trace();
        let all = gates(&feeds, 60, 60);
        // Instants: bus item i at 1000·i, SCATS item i at 50_000 + i.
        let at =
            |feed: usize, i: usize| if feed == 0 { 1000 * i as u64 } else { 50_000 + i as u64 };
        let ready = |q: i64, region: usize| {
            ready_ns(all.iter().find(|g| g.q == q && g.region == region).unwrap(), at, 99_999)
        };
        // The SCATS burst is the later class: every window it unblocks
        // counts from the burst, not from its own query time.
        assert_eq!(ready(120, 0), 50_003);
        assert_eq!(ready(420, 0), 50_003);
        // No gate item on one class: ready at end of stream.
        assert_eq!(ready(480, 0), 99_999);
    }

    #[test]
    fn a_held_summary_is_released_by_a_later_opening() {
        // Bursts open gates at 100 and 1600, the stream ends at 3000.
        let openings = [100, 104, 1600, 1604, 3000];
        // Emitted at once: released by its own burst (its last opening).
        assert_eq!(released_by_ns(&openings, 250), Some(104));
        // Held until the next burst came through, or until end of stream.
        assert_eq!(released_by_ns(&openings, 1850), Some(1604));
        assert_eq!(released_by_ns(&openings, 3000), Some(3000));
        assert_eq!(released_by_ns(&openings, 99), None, "seen before any gate opened");
    }

    #[test]
    fn region_without_scats_feed_fires_only_at_end_of_stream() {
        let feeds = scats_burst_trace();
        let all = gates(&feeds, 60, 60);
        let region1: Vec<&Gate> = all.iter().filter(|g| g.region == 1).collect();
        // Last region-1 arrival is 590: grid 60..=540 plus closing 600.
        assert_eq!(region1.len(), 10);
        assert!(region1.iter().all(|g| g.scats.is_none()));
        assert!(region1.iter().all(|g| ready_ns(g, |_, _| 1, 77) == 77));
        // Regions 2 and 3 have no SDE at all: no engine, no summaries.
        assert!(all.iter().all(|g| g.region < 2));
    }
}
