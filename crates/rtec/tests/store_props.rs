//! Differential test of the sliding window stores.
//!
//! The engine's stores persist across queries: a fact is written once, waits
//! in a pending area, is merged into its kind's order and indexes by the
//! first query that may see it, and leaves with the head that falls behind
//! the window start. The model here is what the stores replaced: after every
//! query, rebuild the visible set from everything ever ingested (`arrival ≤
//! q ∧ q − WM < time ≤ q`), stable-sort it by time, and answer each access
//! path by filtering that list. Every probe — `time_range`, `col_range` on
//! each indexed column, `CObsKind::at` with and without a first argument —
//! must return the model's facts in the model's order, the change frontiers
//! must be the earliest newly visible time, and a derived-event slot must
//! hold exactly what the recognition delivered.
//!
//! Reads `PROPTEST_CASES` (the nightly conformance sweep raises it) and
//! `CONFORMANCE_SEED`, which rotates every drawn fact so that the three seed
//! jobs of the matrix cover three disjoint families of streams.

use insight_rtec::dsl::RuleSet;
use insight_rtec::prelude::*;
use insight_rtec::rule::CmpOp;
use insight_rtec::testing::ProbedEvent;
use insight_rtec::time::{TIME_MAX, TIME_MIN};
use proptest::prelude::*;

const WM: Time = 40;

/// `enter`/`leave` are joined on their first column (both get a column
/// index), `speed` is read with its first argument bound (`(time, first)`
/// order), `alarm` without (time order), and `stay` is a derived event a
/// later stratum probes by column.
fn ruleset() -> RuleSet {
    let mut b = RuleSetBuilder::new();
    b.declare_event("enter", 2).declare_event("leave", 1);
    b.declare_input_fluent("speed", 1).declare_input_fluent("alarm", 1);
    let (d, z, t) = (b.var("D"), b.var("Z"), b.var("T"));
    b.initiated(
        fluent("inside", [pat(d)], val(true)),
        t,
        [happens(event_pat("enter", [pat(d), pat(z)]), t)],
    );
    let (d, t) = (b.var("D2"), b.var("T2"));
    b.terminated(
        fluent("inside", [pat(d)], val(true)),
        t,
        [happens(event_pat("leave", [pat(d)]), t)],
    );
    let (d, z, t1, t2) = (b.var("D3"), b.var("Z3"), b.var("T3a"), b.var("T3b"));
    b.derived_event(
        event_head("stay", [pat(d), pat(z)]),
        t2,
        [
            happens(event_pat("enter", [pat(d), pat(z)]), t1),
            happens(event_pat("leave", [pat(d)]), t2),
            guard(cmp(NumExpr::sub(t2.into(), t1.into()), CmpOp::Gt, 0.0)),
            guard(cmp(NumExpr::sub(t2.into(), t1.into()), CmpOp::Lt, 15.0)),
        ],
    );
    let (d, z, v, t) = (b.var("D4"), b.var("Z4"), b.var("V4"), b.var("T4"));
    b.derived_event(
        event_head("rush", [pat(d)]),
        t,
        [
            happens(event_pat("enter", [pat(d), pat(z)]), t),
            holds(fluent_pat("speed", [pat(d)], pat(v)), t),
            guard(cmp(v, CmpOp::Gt, 50.0)),
        ],
    );
    let (d, x, t) = (b.var("D5"), b.var("X5"), b.var("T5"));
    b.derived_event(
        event_head("alarmed", [pat(d), pat(x)]),
        t,
        [
            happens(event_pat("leave", [pat(d)]), t),
            holds(fluent_pat("alarm", [pat(x)], val(true)), t),
        ],
    );
    let (d, z, t1, t2) = (b.var("D6"), b.var("Z6"), b.var("T6a"), b.var("T6b"));
    b.derived_event(
        event_head("rushedStay", [pat(d)]),
        t2,
        [
            happens(event_pat("rush", [pat(d)]), t1),
            happens(event_pat("stay", [pat(d), pat(z)]), t2),
            guard(cmp(NumExpr::sub(t2.into(), t1.into()), CmpOp::Ge, 0.0)),
        ],
    );
    b.build().unwrap()
}

const EVENT_KINDS: [&str; 2] = ["enter", "leave"];
const OBS_KINDS: [&str; 2] = ["speed", "alarm"];
const DERIVED_KINDS: [&str; 4] = ["stay", "rush", "alarmed", "rushedStay"];

/// One ingested fact as the model keeps it, in ingestion order.
#[derive(Debug, Clone)]
struct Fact {
    kind: &'static str,
    arrival: Time,
    time: Time,
    args: Vec<Term>,
    /// `Some` for an observation.
    value: Option<Term>,
    /// Whether a query has seen it.
    seen: bool,
}

/// A drawn fact: `((kind, lateness class, offset), (entity, datum, duplicate))`.
type Draw = ((u8, u8, i64), (u8, u8, bool));

/// One step of a case: facts arriving before a query `advance` later, and
/// whether the engine is checkpointed and rebuilt before that query.
type Step = (Vec<Draw>, i64, bool);

fn arb_steps() -> impl Strategy<Value = Vec<Step>> {
    let draw = ((0u8..4, 0u8..10, 0i64..60), (0u8..4, 0u8..3, proptest::bool::ANY));
    // Overlapping (advance < WM), tumbling (= WM) and gapped (> WM) grids.
    let advance = prop_oneof![1i64..WM, Just(WM), WM + 1..2 * WM];
    let restore = (0u8..6).prop_map(|r| r == 0);
    proptest::collection::vec((proptest::collection::vec(draw, 0..12), advance, restore), 1..14)
}

/// Turns a draw into facts arriving in `(q_prev, q]`: punctual, late inside
/// the working memory, late beyond it, future-stamped, on the window edge.
fn facts_of(draw: Draw, q_prev: Time, q: Time, out: &mut Vec<Fact>) {
    let ((kind, class, offset), (entity, datum, duplicate)) = draw;
    let seed: u64 =
        std::env::var("CONFORMANCE_SEED").ok().and_then(|v| v.parse().ok()).unwrap_or(0);
    let class = (class as u64 + seed) % 10;
    let offset = (offset + 13 * seed as i64) % 60;
    let entity = (entity as u64 + seed) % 4;
    let arrival = q_prev + 1 + offset % (q - q_prev);
    let time = match class {
        0..=3 => arrival,
        4 | 5 => arrival - offset % WM,
        6 => arrival - WM - offset,
        7 => arrival + 1 + offset,
        // Exactly on the edges of this query's window.
        8 => q - WM,
        _ => q - WM + 1,
    };
    let d = Term::sym(["a", "b", "c", "d"][entity as usize]);
    let fact = match kind {
        0 => ("enter", vec![d, Term::int(datum as i64)], None),
        1 => ("leave", vec![d], None),
        2 => ("speed", vec![d], Some(Term::int(40 + 10 * datum as i64))),
        _ => ("alarm", vec![d], Some(Term::Bool(datum > 0))),
    };
    let fact = Fact { kind: fact.0, arrival, time, args: fact.1, value: fact.2, seen: false };
    if duplicate {
        out.push(fact.clone());
    }
    out.push(fact);
}

fn ingest(e: &mut Engine, f: &Fact) {
    match &f.value {
        None => e
            .add_stamped_event(Stamped::arriving_at(
                Event::new(f.kind, f.args.clone(), f.time),
                f.arrival,
            ))
            .unwrap(),
        Some(v) => e
            .add_stamped_obs(Stamped::arriving_at(
                FluentObs::new(f.kind, f.args.clone(), v.clone(), f.time),
                f.arrival,
            ))
            .unwrap(),
    }
}

/// The from-scratch rebuild: the facts of `kind` visible at `q`, stable-
/// sorted by time (so ties keep ingestion order).
fn visible<'a>(all: &'a [Fact], kind: &str, q: Time) -> Vec<&'a Fact> {
    let mut v: Vec<&Fact> = all
        .iter()
        .filter(|f| f.kind == kind && f.arrival <= q && f.time > q - WM && f.time <= q)
        .collect();
    v.sort_by_key(|f| f.time);
    v
}

/// Compares every access path of every kind with the model at `q`.
fn check_stores(e: &Engine, all: &[Fact], q: Time, derived: &[Event]) {
    let probe = e.store_probe();
    let entities: Vec<Term> = ["a", "b", "c", "d", "z"].iter().map(|s| Term::sym(s)).collect();
    let ranges =
        [(TIME_MIN, TIME_MAX), (q - WM, q), (q - WM + 1, q - 1), (q - 10, q - 3), (q - 3, q - 10)];

    // Input and derived event kinds: the time order and every column index.
    let mut kinds: Vec<(&str, Vec<ProbedEvent>)> = Vec::new();
    for kind in EVENT_KINDS {
        kinds
            .push((kind, visible(all, kind, q).iter().map(|f| (f.time, f.args.clone())).collect()));
    }
    for kind in DERIVED_KINDS {
        // Delivered time-sorted with ties in `(time, args)` order per kind.
        let k = Symbol::new(kind);
        let model = derived.iter().filter(|ev| ev.kind == k);
        kinds.push((kind, model.map(|ev| (ev.time, ev.args.clone())).collect()));
    }
    for (kind, model) in &kinds {
        for &(lo, hi) in &ranges {
            let want: Vec<_> = model.iter().filter(|f| lo <= f.0 && f.0 <= hi).cloned().collect();
            prop_assert_eq!(
                probe.time_range(kind, lo, hi),
                want,
                "{} time_range {}..{}",
                kind,
                lo,
                hi
            );
            for col in probe.indexed_columns(kind) {
                for key in entities.iter().chain(&[Term::int(0), Term::int(1), Term::int(2)]) {
                    let want: Vec<_> = model
                        .iter()
                        .filter(|f| lo <= f.0 && f.0 <= hi && &f.1[col] == key)
                        .cloned()
                        .collect();
                    let got = probe.col_range(kind, col, key, lo, hi);
                    prop_assert_eq!(got, want, "{}[{}] = {} in {}..{}", kind, col, key, lo, hi);
                }
            }
        }
    }
    prop_assert!(!probe.indexed_columns("enter").is_empty(), "the join indexes `enter`");
    prop_assert!(!probe.indexed_columns("stay").is_empty(), "and the derived `stay`");

    // Observation kinds: `at(t, first)`.
    prop_assert!(probe.ordered_by_first("speed") && !probe.ordered_by_first("alarm"));
    for kind in OBS_KINDS {
        let model = visible(all, kind, q);
        let by_first = probe.ordered_by_first(kind);
        for t in q - WM - 1..=q + 1 {
            let mut want: Vec<&Fact> = model.iter().filter(|f| f.time == t).copied().collect();
            if by_first {
                want.sort_by(|a, b| a.args[0].cmp(&b.args[0]));
            }
            let pair = |f: &&Fact| (f.args.clone(), f.value.clone().expect("an observation"));
            let all_at: Vec<_> = want.iter().map(pair).collect();
            prop_assert_eq!(probe.obs_at(kind, t, None), all_at, "{} at {}", kind, t);
            if by_first {
                for key in &entities {
                    let of: Vec<_> = want.iter().filter(|f| &f.args[0] == key).map(pair).collect();
                    prop_assert_eq!(
                        probe.obs_at(kind, t, Some(key)),
                        of,
                        "{}({}) at {}",
                        kind,
                        key,
                        t
                    );
                }
            }
        }
    }
}

proptest! {
    #[test]
    fn sliding_stores_answer_like_a_rebuild(steps in arb_steps()) {
        let window = WindowConfig::new(WM, 1).unwrap();
        let mut e = Engine::new(ruleset(), window);
        let mut all: Vec<Fact> = Vec::new();
        let mut q = 0;
        let (mut admitted, mut expired, mut lost) = (0u64, 0u64, 0u64);
        for (draws, advance, restore) in steps {
            let q_prev = q;
            q += advance;
            let from = all.len();
            for draw in draws {
                facts_of(draw, q_prev, q, &mut all);
            }
            // `arrival` out of ingestion order: hand the batch over reversed.
            all[from..].reverse();
            for f in &all[from..] {
                ingest(&mut e, f);
            }
            if restore {
                let blob = e.snapshot_state();
                let held = e.buffered();
                e = Engine::new(ruleset(), window);
                e.restore_state(&blob).unwrap();
                prop_assert_eq!(e.buffered(), held);
                prop_assert_eq!(e.snapshot_state(), blob, "a restored engine writes the blob it read");
                if q_prev > 0 {
                    // Restore alone rebuilds the stores of the last query
                    // (derived slots refill at the next one).
                    let probe = e.store_probe();
                    for kind in EVENT_KINDS {
                        let want: Vec<_> = visible(&all[..from], kind, q_prev)
                            .iter()
                            .map(|f| (f.time, f.args.clone()))
                            .collect();
                        prop_assert_eq!(probe.time_range(kind, TIME_MIN, TIME_MAX), want);
                    }
                }
            }

            let rec = e.query(q).unwrap();
            check_stores(&e, &all, q, &rec.derived_events);

            // Change frontiers: the earliest fact no earlier query saw.
            let mut newly = 0u64;
            for kind in EVENT_KINDS.iter().chain(&OBS_KINDS) {
                let fresh = visible(&all, kind, q).into_iter().filter(|f| !f.seen);
                let frontier = fresh.map(|f| f.time).min().unwrap_or(TIME_MAX);
                prop_assert_eq!(e.store_probe().frontier(kind), frontier, "{} frontier at {}", kind, q);
            }
            for f in all.iter_mut().filter(|f| f.arrival <= q && f.time > q - WM && f.time <= q) {
                newly += u64::from(!f.seen);
                f.seen = true;
            }
            prop_assert_eq!(rec.timing.facts_admitted, newly);
            prop_assert_eq!(rec.sde_count, all.iter().filter(|f| f.seen && f.time > q - WM).count());
            admitted += rec.timing.facts_admitted;
            expired += rec.timing.facts_expired;
            lost += rec.timing.facts_lost;
            // Every fact is in exactly one place: still held, expired after
            // having been seen, or lost unseen.
            prop_assert_eq!(all.len() as u64, e.buffered() as u64 + expired + lost);
            let unseen_held = all.iter().filter(|f| !f.seen && f.time > q - WM).count();
            prop_assert_eq!(admitted, expired + (e.buffered() - unseen_held) as u64);
        }
    }
}
