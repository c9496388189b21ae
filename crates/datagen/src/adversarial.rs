//! Adversarial arrival-time generators for windowed-recognition testing.
//!
//! RTEC's working-memory semantics (§4.2 of the paper) are exercised hardest
//! by *when* SDEs arrive relative to the query grid, not by what they say:
//! late arrivals inside the working memory must be amended into later
//! windows, arrivals beyond the working memory must be irrevocably ignored,
//! and occurrence times landing exactly on a `Qi − WM` boundary must fall
//! outside the half-open window `(Qi − WM, Qi]`. This module generates those
//! schedules deterministically from a seed, plus the pure arithmetic
//! ([`QueryGrid`]) that predicts which events a correct engine can ever see.

use crate::stream::Sde;
use insight_rtec::dsl::{
    any, builtin, cmp, event_head, event_pat, fluent, fluent_pat, guard, happens, holds, not_holds,
    pat, relation, term_ne, val, RuleSet, RuleSetBuilder,
};
use insight_rtec::event::{Event, FluentObs, Stamped};
use insight_rtec::pattern::VarId;
use insight_rtec::rule::{BodyAtom, CmpOp, GuardExpr, NumExpr, ValRef};
use insight_rtec::term::Term;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The query grid of a windowed recognition run: queries at
/// `first, first + step, …` up to `last`, each looking back `wm`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryGrid {
    /// First query time.
    pub first: i64,
    /// Distance between consecutive queries (the window *step*/slide).
    pub step: i64,
    /// Working-memory size (window length).
    pub wm: i64,
    /// Last query time (inclusive; the grid stops at the largest
    /// `first + k·step ≤ last`).
    pub last: i64,
}

impl QueryGrid {
    /// All query times of the grid, in increasing order.
    pub fn queries(&self) -> Vec<i64> {
        let mut out = Vec::new();
        let mut q = self.first;
        while q <= self.last {
            out.push(q);
            q += self.step;
        }
        out
    }

    /// Whether an item with the given occurrence and arrival time is inside
    /// the window evaluated at query `q`: it must have arrived, and its
    /// occurrence time must lie in the half-open working memory `(q − wm, q]`.
    pub(crate) fn visible_at(&self, time: i64, arrival: i64, q: i64) -> bool {
        arrival <= q && time > q - self.wm && time <= q
    }

    /// Whether any query of the grid up to `horizon` (inclusive) can see the
    /// item. Items for which this is `false` are *irrevocably lost* to a
    /// correct windowed engine — they arrived after their occurrence time
    /// slid out of the working memory.
    pub fn ever_visible_by(&self, time: i64, arrival: i64, horizon: i64) -> bool {
        let mut q = self.first;
        while q <= self.last && q <= horizon {
            if self.visible_at(time, arrival, q) {
                return true;
            }
            q += self.step;
        }
        false
    }

    /// The largest query time strictly before `time + wm` (the last query
    /// that could still admit an occurrence at `time`), if any.
    fn last_admitting_query(&self, time: i64) -> Option<i64> {
        let mut candidate = None;
        let mut q = self.first;
        while q <= self.last {
            if q < time + self.wm && time <= q {
                candidate = Some(q);
            }
            q += self.step;
        }
        candidate
    }
}

/// How an adversarially scheduled item relates to the query grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Lateness {
    /// Arrives before the first query that covers its occurrence time.
    OnTime,
    /// Arrives one or more queries late, but while its occurrence time is
    /// still inside the working memory — must be amended in.
    WithinWm,
    /// Arrives after its occurrence time left the working memory — must be
    /// dropped by every query.
    BeyondWm,
    /// Occurrence time exactly on a `Qi − WM` boundary (excluded by the
    /// half-open window) or exactly one tick inside it (included).
    Boundary,
}

/// Sampling weights for the lateness classes (normalised internally).
#[derive(Debug, Clone, Copy)]
pub struct LatenessMix {
    /// Weight of [`Lateness::OnTime`].
    pub on_time: f64,
    /// Weight of [`Lateness::WithinWm`].
    pub within_wm: f64,
    /// Weight of [`Lateness::BeyondWm`].
    pub beyond_wm: f64,
    /// Weight of [`Lateness::Boundary`].
    pub boundary: f64,
}

impl Default for LatenessMix {
    fn default() -> LatenessMix {
        LatenessMix { on_time: 0.55, within_wm: 0.2, beyond_wm: 0.1, boundary: 0.15 }
    }
}

impl LatenessMix {
    fn sample(&self, rng: &mut StdRng) -> Lateness {
        let total = self.on_time + self.within_wm + self.beyond_wm + self.boundary;
        let mut x = rng.random::<f64>() * total.max(f64::MIN_POSITIVE);
        for (w, class) in [
            (self.on_time, Lateness::OnTime),
            (self.within_wm, Lateness::WithinWm),
            (self.beyond_wm, Lateness::BeyondWm),
            (self.boundary, Lateness::Boundary),
        ] {
            if x < w {
                return class;
            }
            x -= w;
        }
        Lateness::OnTime
    }
}

/// One adversarially scheduled time-point: occurrence, arrival, class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SdePoint {
    /// Occurrence time.
    pub time: i64,
    /// Arrival time (`≥ time` except for `OnTime` points, which may arrive
    /// in the same instant they occur).
    pub arrival: i64,
    /// The scheduled lateness class.
    pub class: Lateness,
}

/// Generates `n` deterministic adversarial `(time, arrival)` points against
/// the grid. Every class is constructed, not sampled-and-hoped: `WithinWm`
/// points are guaranteed ever-visible, `BeyondWm` points are guaranteed
/// never-visible, and `Boundary` points alternate between `Qi − WM` exactly
/// (excluded) and `Qi − WM + 1` (the first included tick).
pub fn adversarial_points(
    seed: u64,
    n: usize,
    grid: &QueryGrid,
    mix: &LatenessMix,
) -> Vec<SdePoint> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xad5e_7a51);
    let queries = grid.queries();
    let mut out = Vec::with_capacity(n);
    let lo = grid.first - grid.wm + 1; // earliest occurrence the first window sees
    let hi = grid.last;
    let mut boundary_inside = false;
    for _ in 0..n {
        let class = mix.sample(&mut rng);
        let point = match class {
            Lateness::OnTime => {
                let time = rng.random_range(lo..=hi);
                let arrival = time + rng.random_range(0..grid.step.max(1));
                SdePoint { time, arrival, class }
            }
            Lateness::WithinWm => {
                let time = rng.random_range(lo..=hi);
                match grid.last_admitting_query(time) {
                    Some(qmax) if qmax > time => {
                        let arrival = rng.random_range(time + 1..=qmax);
                        SdePoint { time, arrival, class }
                    }
                    _ => SdePoint { time, arrival: time, class: Lateness::OnTime },
                }
            }
            Lateness::BeyondWm => {
                let time = rng.random_range(lo..=hi);
                // Arrive strictly after the last query that could admit the
                // occurrence; every remaining query's working memory starts
                // at or past `time`.
                let too_late = match grid.last_admitting_query(time) {
                    Some(qmax) => qmax + 1,
                    None => time + 1,
                };
                let arrival = too_late + rng.random_range(0..grid.step.max(1));
                SdePoint { time, arrival, class }
            }
            Lateness::Boundary => {
                let q = queries[rng.random_range(0..queries.len())];
                boundary_inside = !boundary_inside;
                let time = q - grid.wm + i64::from(boundary_inside);
                // Arrive in time for query `q` itself.
                let arrival = q - rng.random_range(0..grid.step.max(1));
                SdePoint { time, arrival: arrival.max(time), class }
            }
        };
        out.push(point);
    }
    out
}

/// Counters of one [`perturb_sdes`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PerturbStats {
    /// Items left with their mediated arrival time.
    pub on_time: usize,
    /// Items delayed but still inside the working memory.
    pub within_wm: usize,
    /// Items delayed past the working memory (lost to recognition).
    pub beyond_wm: usize,
    /// Items duplicated (same occurrence *and* arrival).
    pub duplicates: usize,
}

/// Rewrites the arrival times of a scenario SDE trace adversarially:
/// a deterministic fraction of items is delayed within the working memory,
/// a fraction beyond it, and a fraction duplicated outright. The trace is
/// re-sorted by arrival afterwards (the convention every consumer of
/// `Scenario::sdes` relies on).
pub fn perturb_sdes(
    sdes: &mut Vec<Sde>,
    seed: u64,
    grid: &QueryGrid,
    mix: &LatenessMix,
    duplicate_rate: f64,
) -> PerturbStats {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5de_ad71);
    let mut stats = PerturbStats::default();
    let mut duplicated: Vec<Sde> = Vec::new();
    for sde in sdes.iter_mut() {
        match mix.sample(&mut rng) {
            Lateness::WithinWm => match grid.last_admitting_query(sde.time) {
                Some(qmax) if qmax > sde.time => {
                    sde.arrival = rng.random_range(sde.time + 1..=qmax);
                    stats.within_wm += 1;
                }
                _ => stats.on_time += 1,
            },
            Lateness::BeyondWm => {
                let too_late = match grid.last_admitting_query(sde.time) {
                    Some(qmax) => qmax + 1,
                    None => sde.time + 1,
                };
                sde.arrival = too_late + rng.random_range(0..grid.step.max(1));
                stats.beyond_wm += 1;
            }
            // `Boundary` needs control over occurrence times, which a
            // scenario trace fixes; treat it as on-time here.
            Lateness::OnTime | Lateness::Boundary => stats.on_time += 1,
        }
        if rng.random_bool(duplicate_rate.clamp(0.0, 1.0)) {
            duplicated.push(sde.clone());
            stats.duplicates += 1;
        }
    }
    sdes.extend(duplicated);
    sdes.sort_by_key(|s| s.arrival);
    stats
}

/// Knobs of the rule-set fuzzer ([`fuzz_ruleset`]).
#[derive(Debug, Clone, Copy)]
pub struct FuzzConfig {
    /// Number of input event kinds `fz_e{i}` that are actually emitted.
    pub max_input_events: usize,
    /// Maximum number of derived simple fluents `fz_f{i}`.
    pub max_fluents: usize,
    /// Maximum number of derived events `fz_d{k}`.
    pub max_derived_events: usize,
    /// Number of scheduled stream points.
    pub n_points: usize,
    /// Arrival lateness mix of the stream.
    pub mix: LatenessMix,
    /// How far into the past the time-valued `Aux` argument may point
    /// (uniform in `[time − aux_lookback, time]`).
    ///
    /// Non-pivotable `holdsAt Aux` conditions are evaluated at `Aux`; when
    /// `Aux` precedes the window start, a windowed engine answers from
    /// truncated knowledge while a full-history oracle's inertia chain
    /// reaches arbitrarily far back — a *designed* divergence (§4.2 loss),
    /// not a bug. Oracle-facing differentials must therefore use `0`
    /// (`Aux` lands on the anchor tick, always in-window, while the body
    /// stays **syntactically** non-pivotable and still exercises the
    /// forced full-re-evaluation path). Engine-vs-engine comparisons can
    /// use a real lookback: both sides share the same windowed knowledge.
    pub aux_lookback: i64,
}

impl Default for FuzzConfig {
    fn default() -> FuzzConfig {
        FuzzConfig {
            max_input_events: 3,
            max_fluents: 4,
            max_derived_events: 2,
            n_points: 80,
            mix: LatenessMix::default(),
            aux_lookback: 0,
        }
    }
}

/// A boolean builtin a fuzzed rule set calls.
pub(crate) type FuzzBuiltin = fn(&[Term]) -> bool;

/// A fuzzed rule set plus the seeded stream that exercises it.
#[derive(Debug, Clone)]
pub struct FuzzCase {
    /// Human-readable label (embeds the structural draw).
    pub label: String,
    /// The seed that regenerates the whole case.
    pub seed: u64,
    /// The fuzzed, well-stratified rule set.
    pub rules: RuleSet,
    /// Stamped input events (adversarial arrivals).
    pub events: Vec<Stamped<Event>>,
    /// Stamped input fluent observations (co-timed with events).
    pub obs: Vec<Stamped<FluentObs>>,
    /// Relation tables the rule set joins (`(name, tuples)`; empty for
    /// [`fuzz_ruleset`]). A relation the rule set declares may be missing
    /// here: it is never set and must behave as empty.
    pub relations: Vec<(String, Vec<Vec<Term>>)>,
    /// Boolean builtins the rule set calls (`(name, implementation)`).
    pub builtins: Vec<(String, FuzzBuiltin)>,
}

const FUZZ_IDS: i64 = 4;

/// Generates a seeded, well-stratified random rule set together with an
/// adversarial stream over its input vocabulary.
///
/// Structural coverage, all drawn deterministically from the seed:
///
/// * input events `fz_e{i}(Id, Aux)` where `Aux` is a time-valued argument,
///   so a `holdsAt` condition at `Aux` makes the body **non-pivotable**
///   (its evaluation time is not bound by the rule's `happensAt` anchor);
/// * an optional input fluent `fz_g0(Id)` fed by point observations;
/// * derived simple fluents `fz_f{i}` whose initiation/termination bodies
///   mix pivotable `holdsAt`, negation-as-failure over lower strata,
///   non-pivotable `holdsAt Aux` and guards — `fz_f{i}` may depend on
///   `fz_f{j<i}`, giving multi-stratum fluent chains;
/// * derived events `fz_d{k}` anchored on input events or on `fz_d{k-1}`
///   (event-on-event chains spanning additional strata);
/// * one fluent `fz_unused` initiated only by a declared but never-emitted
///   event `fz_e_silent` — its stratum runs and derives nothing.
pub fn fuzz_ruleset(seed: u64, grid: &QueryGrid, cfg: &FuzzConfig) -> FuzzCase {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xf022_7e57);
    let ne = rng.random_range(2..=cfg.max_input_events.max(2));
    let nf = rng.random_range(2..=cfg.max_fluents.max(2));
    let nd = rng.random_range(1..=cfg.max_derived_events.max(1));
    let with_input_fluent = rng.random_bool(0.6);

    let mut b = RuleSetBuilder::new();
    for i in 0..ne {
        b.declare_event(&format!("fz_e{i}"), 2);
    }
    b.declare_event("fz_e_silent", 2);
    if with_input_fluent {
        b.declare_input_fluent("fz_g0", 1);
    }

    // A fresh (Id, Aux, T) variable triple per rule.
    let mut fresh = {
        let mut n = 0usize;
        move |b: &mut RuleSetBuilder| {
            n += 1;
            (b.var(&format!("Id{n}")), b.var(&format!("Aux{n}")), b.var(&format!("T{n}")))
        }
    };

    // Extra body conditions over strictly lower strata. `lower` holds the
    // derived fluents defined so far; `fz_g0` (if present) is always fair
    // game. Returns the number of conditions appended.
    let extra_conditions = |b: &mut RuleSetBuilder,
                            body: &mut Vec<insight_rtec::rule::BodyAtom>,
                            rng: &mut StdRng,
                            lower: &[String],
                            id: insight_rtec::pattern::VarId,
                            aux: insight_rtec::pattern::VarId,
                            t: insight_rtec::pattern::VarId| {
        let _ = b;
        let n = rng.random_range(0..=2usize);
        for _ in 0..n {
            let pick_fluent = |rng: &mut StdRng| -> Option<(String, bool)> {
                let mut pool: Vec<(String, bool)> =
                    lower.iter().map(|f| (f.clone(), false)).collect();
                if with_input_fluent {
                    pool.push(("fz_g0".to_string(), true));
                }
                if pool.is_empty() {
                    None
                } else {
                    Some(pool[rng.random_range(0..pool.len())].clone())
                }
            };
            match rng.random_range(0..4u32) {
                // Pivotable holds at the anchor time.
                0 => {
                    if let Some((f, _)) = pick_fluent(rng) {
                        body.push(holds(fluent_pat(&f, [pat(id)], val(true)), t));
                    }
                }
                // Negation-as-failure over a lower stratum; `Id` is
                // bound by the anchor, so the condition is safe.
                1 => {
                    if let Some((f, _)) = pick_fluent(rng) {
                        body.push(not_holds(fluent_pat(&f, [pat(id)], val(true)), t));
                    }
                }
                // Non-pivotable: evaluated at the time-valued argument
                // `Aux`, not at the anchor time. Restricted to derived
                // fluents, where inertia makes off-anchor queries
                // meaningful (input fluents are point observations).
                2 => {
                    if let Some(f) = lower.get(rng.random_range(0..lower.len().max(1))) {
                        body.push(holds(fluent_pat(f, [pat(id)], val(true)), aux));
                    }
                }
                // A guard over the bound `Id` argument.
                _ => {
                    if rng.random_bool(0.5) {
                        let c = rng.random_range(0..FUZZ_IDS);
                        let op = if rng.random_bool(0.5) { CmpOp::Gt } else { CmpOp::Le };
                        body.push(guard(cmp(id, op, c)));
                    } else {
                        body.push(guard(term_ne(id, Term::int(rng.random_range(0..FUZZ_IDS)))));
                    }
                }
            }
        }
    };

    let mut lower: Vec<String> = Vec::new();
    for i in 0..nf {
        let name = format!("fz_f{i}");
        let anchor = rng.random_range(0..ne);
        let (id, aux, t) = fresh(&mut b);
        let mut body = vec![happens(event_pat(&format!("fz_e{anchor}"), [pat(id), pat(aux)]), t)];
        extra_conditions(&mut b, &mut body, &mut rng, &lower, id, aux, t);
        b.initiated(fluent(&name, [pat(id)], val(true)), t, body);

        let anchor2 = rng.random_range(0..ne);
        let (id2, aux2, t2) = fresh(&mut b);
        let mut body2 =
            vec![happens(event_pat(&format!("fz_e{anchor2}"), [pat(id2), pat(aux2)]), t2)];
        if rng.random_bool(0.4) {
            extra_conditions(&mut b, &mut body2, &mut rng, &lower, id2, aux2, t2);
        }
        b.terminated(fluent(&name, [pat(id2)], val(true)), t2, body2);
        lower.push(name);
    }

    // The unused fluent: well-formed rules over an event nobody emits.
    let (idu, auxu, tu) = fresh(&mut b);
    let _ = auxu;
    b.initiated(
        fluent("fz_unused", [pat(idu)], val(true)),
        tu,
        [happens(event_pat("fz_e_silent", [pat(idu), pat(auxu)]), tu)],
    );

    for k in 0..nd {
        let name = format!("fz_d{k}");
        let (id, aux, t) = fresh(&mut b);
        let chain = k > 0 && rng.random_bool(0.5);
        let mut body = if chain {
            // Event-on-event chain: anchored on the previous derived event.
            vec![happens(event_pat(&format!("fz_d{}", k - 1), [pat(id)]), t)]
        } else {
            let anchor = rng.random_range(0..ne);
            vec![happens(event_pat(&format!("fz_e{anchor}"), [pat(id), pat(aux)]), t)]
        };
        // Derived events always carry at least one fluent condition so they
        // span strata.
        let f = &lower[rng.random_range(0..lower.len())];
        if rng.random_bool(0.7) {
            body.push(holds(fluent_pat(f, [pat(id)], val(true)), t));
        } else {
            body.push(not_holds(fluent_pat(f, [pat(id)], val(true)), t));
        }
        b.derived_event(event_head(&name, [pat(id)]), t, body);
    }

    let rules = b.build().expect("fuzzed rule set must be well-formed");

    // The stream: adversarial arrivals over the emitted vocabulary. `Aux`
    // points up to `aux_lookback` into the past (see [`FuzzConfig`] for why
    // oracle-facing runs keep it at 0).
    let points = adversarial_points(seed ^ 0xfeed, cfg.n_points, grid, &cfg.mix);
    let mut events = Vec::with_capacity(points.len());
    let mut obs = Vec::new();
    for p in &points {
        let kind = format!("fz_e{}", rng.random_range(0..ne));
        let id = Term::int(rng.random_range(0..FUZZ_IDS));
        let aux = Term::int((p.time - rng.random_range(0..cfg.aux_lookback.max(0) + 1)).max(0));
        events.push(Stamped::arriving_at(
            Event::new(kind.as_str(), [id.clone(), aux], p.time),
            p.arrival,
        ));
        if with_input_fluent && rng.random_bool(0.3) {
            obs.push(Stamped::arriving_at(
                FluentObs::new("fz_g0", [id], Term::truth(), p.time),
                p.arrival,
            ));
        }
    }

    FuzzCase {
        label: format!("fuzz-e{ne}-f{nf}-d{nd}{}", if with_input_fluent { "-g" } else { "" }),
        seed,
        rules,
        events,
        obs,
        relations: Vec::new(),
        builtins: Vec::new(),
    }
}

/// Numbers the join fuzzer draws event values and relation columns from:
/// few enough that equality joins hit, with every integer also present as a
/// float (`2` and `2.0` are equal to a guard and different to a pattern).
fn join_value(rng: &mut StdRng) -> Term {
    const POOL: [f64; 6] = [-1.5, 0.0, 1.0, 2.0, 2.5, 4.0];
    let v = POOL[rng.random_range(0..POOL.len())];
    if v.fract() == 0.0 && rng.random_bool(0.5) {
        Term::int(v as i64)
    } else {
        Term::float(v)
    }
}

/// `jz_even(A)`: the one builtin of the join fuzzer — `A` is a number whose
/// integer part is even.
fn jz_even(args: &[Term]) -> bool {
    matches!(args, [a] if a.as_f64().is_some_and(|v| v.is_finite() && (v.trunc() as i64) % 2 == 0))
}

/// Generates a seeded rule set of **joins** — the bodies a join planner
/// reorders and re-routes — with the stream, relations and builtin that
/// exercise it. Every derived event `jz_d{k}` draws one shape:
///
/// * two or three `happensAt` conditions joined on `Id` (or not at all) under
///   time-difference guards `Tj − Ti op c` — `op` any of `<, ≤, >, ≥`, `c`
///   integer, fractional, negative or zero (zero-width and empty windows
///   included), sometimes as one `abs(Tj − Ti) ≤ c`;
/// * a relation probed on a non-first column, on several bound columns, or
///   through `abs(X − V) ≤ D` band guards over its numeric columns (mixed
///   `Int`/`Float` values, duplicate rows, sometimes an empty table and
///   sometimes a declared relation that is never set at all; `D` read from
///   a second, one-tuple relation), with the boolean builtin
///   between the guards;
/// * a negated `holdsAt` on the derived fluent `jz_on`, or a positive read of
///   the input fluent `jz_g` that feeds the head (and sometimes a guard),
///   ahead of guards typed after it; comparisons nested under `or`/`not`.
///
/// The conditions after the `happensAt` anchors are shuffled (respecting
/// what must be bound first), so guards land at random body positions.
pub fn fuzz_join_ruleset(seed: u64, grid: &QueryGrid, cfg: &FuzzConfig) -> FuzzCase {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x101a_b1e5);
    let ne = rng.random_range(2..=3usize);
    let nd = rng.random_range(2..=4usize);

    let mut b = RuleSetBuilder::new();
    for i in 0..ne {
        b.declare_event(&format!("jz_e{i}"), 2);
    }
    b.declare_input_fluent("jz_g", 2);
    b.declare_relation("jz_site", 3).declare_relation("jz_box", 1);
    b.declare_builtin("jz_even", 1);

    // `jz_on(Id)`: a derived fluent for the negated reads.
    let (id, t) = (b.var("OnId"), b.var("OnT"));
    b.initiated(
        fluent("jz_on", [pat(id)], val(true)),
        t,
        [happens(event_pat("jz_e0", [pat(id), any()]), t)],
    );
    let (id, t) = (b.var("OffId"), b.var("OffT"));
    b.terminated(
        fluent("jz_on", [pat(id)], val(true)),
        t,
        [happens(event_pat("jz_e1", [pat(id), any()]), t)],
    );

    let span = grid.wm.max(2);
    let constant = |rng: &mut StdRng| -> f64 {
        match rng.random_range(0..5u32) {
            0 => 0.0,
            1 => -(rng.random_range(1..span / 2) as f64),
            2 => rng.random_range(1..span) as f64 + 0.5,
            _ => rng.random_range(1..span) as f64,
        }
    };
    let any_op = |rng: &mut StdRng| {
        [CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge][rng.random_range(0..4usize)]
    };
    let abs_le = |x: VarId, y: VarId, d: NumExpr, strict: bool| {
        let op = if strict { CmpOp::Lt } else { CmpOp::Le };
        guard(cmp(NumExpr::Abs(Box::new(NumExpr::sub(x.into(), y.into()))), op, d))
    };

    for k in 0..nd {
        let v = |b: &mut RuleSetBuilder, name: &str| b.var(&format!("{name}{k}"));
        let n_anchors = rng.random_range(1..=3usize);
        let same_id = rng.random_bool(0.7);
        let id = v(&mut b, "Id");
        let mut anchors: Vec<BodyAtom> = Vec::new();
        let mut times: Vec<VarId> = Vec::new();
        let mut vals: Vec<VarId> = Vec::new();
        for a in 0..n_anchors {
            let kind = format!("jz_e{}", rng.random_range(0..ne));
            let t = v(&mut b, &format!("T{a}_"));
            let val_var = v(&mut b, &format!("V{a}_"));
            let id_pat =
                if a == 0 || same_id { pat(id) } else { pat(v(&mut b, &format!("Id{a}_"))) };
            anchors.push(happens(event_pat(&kind, [id_pat, pat(val_var)]), t));
            times.push(t);
            vals.push(val_var);
        }
        let head_time = times[rng.random_range(0..times.len())];
        let mut head_args = vec![pat(id)];

        // Conditions after the anchors, each with the variables it needs
        // bound first (beyond what the anchors bind) and those it binds.
        let mut tail: Vec<(BodyAtom, Vec<VarId>, Vec<VarId>)> = Vec::new();
        for w in times.windows(2) {
            let diff = || NumExpr::sub(w[1].into(), w[0].into());
            match rng.random_range(0..10u32) {
                0..=2 => {
                    let c = constant(&mut rng).abs();
                    tail.push((abs_le(w[1], w[0], c.into(), rng.random_bool(0.5)), vec![], vec![]));
                }
                // A window `lo ⋚ Tj − Ti ⋚ lo + width` that events can
                // actually fall into (width 0: a single tick or nothing).
                3..=7 => {
                    let lo = [-3.0, 0.0, 0.5, 5.0][rng.random_range(0..4usize)];
                    let width = [0.0, 0.5, 20.0, 45.5, 60.0][rng.random_range(0..5usize)];
                    let (above, below) = if rng.random_bool(0.5) {
                        (CmpOp::Gt, CmpOp::Lt)
                    } else {
                        (CmpOp::Ge, CmpOp::Le)
                    };
                    tail.push((guard(cmp(diff(), above, lo)), vec![], vec![]));
                    tail.push((guard(cmp(diff(), below, lo + width)), vec![], vec![]));
                }
                // Anything goes, contradictions included.
                _ => {
                    for _ in 0..rng.random_range(1..=2usize) {
                        let g = guard(cmp(diff(), any_op(&mut rng), constant(&mut rng)));
                        tail.push((g, vec![], vec![]));
                    }
                }
            }
        }
        if rng.random_bool(0.6) {
            // The relation, by one of its access paths.
            let (x, y) = (v(&mut b, "X"), v(&mut b, "Y"));
            match rng.random_range(0..3u32) {
                // Equality on a non-first column.
                0 => {
                    tail.push((relation("jz_site", [any(), pat(vals[0]), pat(y)]), vec![], vec![y]))
                }
                // Several bound columns.
                1 => tail.push((
                    relation("jz_site", [pat(id), pat(vals[0]), pat(y)]),
                    vec![],
                    vec![y],
                )),
                // Band guards over the numeric columns, the builtin between.
                _ => {
                    let d = v(&mut b, "D");
                    let key = if rng.random_bool(0.5) { any() } else { pat(id) };
                    tail.push((relation("jz_box", [pat(d)]), vec![], vec![d]));
                    tail.push((relation("jz_site", [key, pat(x), pat(y)]), vec![], vec![x, y]));
                    let strict = rng.random_bool(0.3);
                    tail.push((abs_le(x, vals[0], d.into(), strict), vec![x, d], vec![]));
                    if rng.random_bool(0.5) {
                        tail.push((builtin("jz_even", [ValRef::Var(x)]), vec![x], vec![]));
                    }
                    if rng.random_bool(0.4) {
                        let other = *vals.last().expect("an anchor");
                        tail.push((abs_le(other, y, d.into(), false), vec![y, d], vec![]));
                    }
                    head_args.push(pat(x));
                }
            }
            if rng.random_bool(0.5) {
                head_args.push(pat(y));
            }
        }
        match rng.random_range(0..3u32) {
            0 => tail.push((
                not_holds(fluent_pat("jz_on", [pat(id)], val(true)), head_time),
                vec![],
                vec![],
            )),
            1 => {
                // A read that only feeds the head: the planner sinks it.
                let gv = v(&mut b, "G");
                tail.push((
                    holds(fluent_pat("jz_g", [pat(id), pat(gv)], val(true)), times[0]),
                    vec![],
                    vec![gv],
                ));
                head_args.push(pat(gv));
                // …unless a guard needs what it binds.
                if rng.random_bool(0.4) {
                    tail.push((guard(cmp(gv, CmpOp::Ge, 1.0)), vec![gv], vec![]));
                }
            }
            _ => {}
        }
        // A comparison under `or`/`not` asserts nothing a probe may rely on.
        if times.len() > 1 && rng.random_bool(0.3) {
            let narrow = cmp(NumExpr::sub(times[1].into(), times[0].into()), CmpOp::Lt, 3.0);
            let g = if rng.random_bool(0.5) {
                GuardExpr::Not(Box::new(narrow))
            } else {
                GuardExpr::Or(vec![narrow, cmp(vals[0], CmpOp::Gt, 1.0)])
            };
            tail.push((guard(g), vec![], vec![]));
        }

        // Random topological shuffle of the tail.
        let mut bound: Vec<VarId> = Vec::new();
        let mut body = anchors;
        while !tail.is_empty() {
            let ready: Vec<usize> = (0..tail.len())
                .filter(|&i| tail[i].1.iter().all(|need| bound.contains(need)))
                .collect();
            let (atom, _, binds) = tail.remove(ready[rng.random_range(0..ready.len())]);
            bound.extend(binds);
            body.push(atom);
        }
        b.derived_event(event_head(&format!("jz_d{k}"), head_args), head_time, body);
    }
    let rules = b.build().expect("fuzzed join rule set must be well-formed");

    // Relations: duplicate rows, mixed numeric types, sometimes nothing —
    // set to no tuples, or declared and never set.
    let mut site: Vec<Vec<Term>> = Vec::new();
    let mut site_set = true;
    if rng.random_bool(0.15) {
        site_set = rng.random_bool(0.5);
    } else {
        for _ in 0..rng.random_range(1..=8usize) {
            let row = vec![
                Term::int(rng.random_range(0..FUZZ_IDS)),
                join_value(&mut rng),
                join_value(&mut rng),
            ];
            if rng.random_bool(0.2) {
                site.push(row.clone());
            }
            site.push(row);
        }
    }
    let width = [Term::int(0), Term::int(1), Term::float(0.5), Term::float(2.0)];
    let mut relations = Vec::new();
    if site_set {
        relations.push(("jz_site".to_string(), site));
    }
    relations
        .push(("jz_box".to_string(), vec![vec![width[rng.random_range(0..width.len())].clone()]]));

    let points = adversarial_points(seed ^ 0xfeed, cfg.n_points, grid, &cfg.mix);
    let mut events = Vec::with_capacity(points.len());
    let mut obs = Vec::new();
    for p in &points {
        let kind = format!("jz_e{}", rng.random_range(0..ne));
        let id = Term::int(rng.random_range(0..FUZZ_IDS));
        events.push(Stamped::arriving_at(
            Event::new(kind.as_str(), [id.clone(), join_value(&mut rng)], p.time),
            p.arrival,
        ));
        if rng.random_bool(0.4) {
            obs.push(Stamped::arriving_at(
                FluentObs::new("jz_g", [id, join_value(&mut rng)], Term::truth(), p.time),
                p.arrival,
            ));
        }
    }

    FuzzCase {
        label: format!("join-e{ne}-d{nd}"),
        seed,
        rules,
        events,
        obs,
        relations,
        builtins: vec![("jz_even".to_string(), jz_even as FuzzBuiltin)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid() -> QueryGrid {
        QueryGrid { first: 100, step: 50, wm: 100, last: 400 }
    }

    #[test]
    fn grid_queries_and_visibility() {
        let g = grid();
        assert_eq!(g.queries(), vec![100, 150, 200, 250, 300, 350, 400]);
        // Half-open window: the boundary tick is excluded, the next included.
        assert!(!g.visible_at(0, 50, 100));
        assert!(g.visible_at(1, 50, 100));
        // Not yet arrived.
        assert!(!g.visible_at(90, 120, 100));
        assert!(g.visible_at(90, 120, 150));
    }

    #[test]
    fn classes_honour_their_contracts() {
        let g = grid();
        let points = adversarial_points(7, 500, &g, &LatenessMix::default());
        assert_eq!(points.len(), 500);
        let mut seen = [0usize; 4];
        for p in &points {
            match p.class {
                Lateness::OnTime => seen[0] += 1,
                Lateness::WithinWm => {
                    seen[1] += 1;
                    assert!(p.arrival > p.time, "within-wm must be late");
                    assert!(
                        g.ever_visible_by(p.time, p.arrival, g.last),
                        "within-wm must stay visible"
                    );
                }
                Lateness::BeyondWm => {
                    seen[2] += 1;
                    assert!(
                        !g.ever_visible_by(p.time, p.arrival, g.last),
                        "beyond-wm must be lost: {p:?}"
                    );
                }
                Lateness::Boundary => seen[3] += 1,
            }
        }
        assert!(seen.iter().all(|&c| c > 0), "all classes generated: {seen:?}");
    }

    #[test]
    fn boundary_points_split_exactly_on_the_edge() {
        let g = grid();
        let points = adversarial_points(11, 400, &g, &LatenessMix::default());
        let boundary: Vec<_> = points.iter().filter(|p| p.class == Lateness::Boundary).collect();
        assert!(!boundary.is_empty());
        let excluded =
            boundary.iter().filter(|p| g.queries().iter().any(|&q| p.time == q - g.wm)).count();
        let included =
            boundary.iter().filter(|p| g.queries().iter().any(|&q| p.time == q - g.wm + 1)).count();
        assert!(excluded > 0 && included > 0, "both edge flavours present");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let g = grid();
        let a = adversarial_points(99, 200, &g, &LatenessMix::default());
        let b = adversarial_points(99, 200, &g, &LatenessMix::default());
        assert_eq!(a, b);
        let c = adversarial_points(100, 200, &g, &LatenessMix::default());
        assert_ne!(a, c);
    }

    #[test]
    fn fuzzed_rule_sets_are_deterministic_and_varied() {
        let g = grid();
        let cfg = FuzzConfig::default();
        let a = fuzz_ruleset(3, &g, &cfg);
        let b = fuzz_ruleset(3, &g, &cfg);
        assert_eq!(a.label, b.label);
        assert_eq!(a.events.len(), b.events.len());
        assert_eq!(a.rules.strata().len(), b.rules.strata().len());
        for (x, y) in a.events.iter().zip(&b.events) {
            assert_eq!((x.arrival, &x.item), (y.arrival, &y.item));
        }
        // Different seeds draw different structure somewhere in a family.
        let labels: std::collections::HashSet<String> =
            (0..16).map(|s| fuzz_ruleset(s, &g, &cfg).label).collect();
        assert!(labels.len() > 1, "structural variety across seeds: {labels:?}");
    }

    #[test]
    fn fuzzed_rule_sets_cover_the_advertised_structure() {
        use insight_rtec::rule::BodyAtom;
        let g = grid();
        let cfg = FuzzConfig::default();
        let mut saw_negation = false;
        let mut saw_non_pivot = false;
        let mut saw_chain = false;
        for seed in 0..32 {
            let case = fuzz_ruleset(seed, &g, &cfg);
            assert!(case.rules.strata().len() >= 3, "fluents + unused + derived events");
            for r in case.rules.sf_rules() {
                let anchor_time = r.time;
                for a in &r.body {
                    if let BodyAtom::Holds { negated, time, .. } = a {
                        saw_negation |= *negated;
                        saw_non_pivot |= *time != anchor_time;
                    }
                }
            }
            for r in case.rules.ev_rules() {
                if let Some(BodyAtom::Happens { pat, .. }) = r.body.first() {
                    saw_chain |= pat.kind.as_str().starts_with("fz_d");
                }
            }
            // The unused fluent is always defined and never emitted.
            assert!(case.rules.derived_fluents().iter().any(|f| f.as_str() == "fz_unused"));
            assert!(case.events.iter().all(|e| e.item.kind.as_str() != "fz_e_silent"));
        }
        assert!(saw_negation, "some fuzzed body uses negation");
        assert!(saw_non_pivot, "some fuzzed body is non-pivotable");
        assert!(saw_chain, "some derived event chains on a derived event");
    }

    #[test]
    fn fuzzed_joins_cover_what_a_join_planner_must_get_right() {
        let g = grid();
        let cfg = FuzzConfig::default();
        let a = fuzz_join_ruleset(5, &g, &cfg);
        let b = fuzz_join_ruleset(5, &g, &cfg);
        assert_eq!(a.label, b.label);
        assert_eq!(a.relations, b.relations);
        assert_eq!(a.events.len(), b.events.len());

        let (mut three_way, mut guard_before_condition, mut fractional, mut negative) =
            (false, false, false, false);
        let (mut zero, mut abs, mut negated_after_guard, mut empty_site, mut mixed) =
            (false, false, false, false, false);
        let mut unset_site = false;
        for seed in 0..64 {
            let case = fuzz_join_ruleset(seed, &g, &cfg);
            let site = case.relations.iter().find(|(name, _)| name == "jz_site");
            unset_site |= site.is_none();
            empty_site |= site.is_some_and(|(_, rows)| rows.is_empty());
            let site = site.map_or(&[][..], |(_, rows)| rows);
            mixed |= site.iter().any(|r| matches!(r[1], Term::Int(_)))
                && site.iter().any(|r| matches!(r[1], Term::Float(_)));
            for r in case.rules.ev_rules() {
                let happens = r.body.iter().filter(|a| matches!(a, BodyAtom::Happens { .. }));
                three_way |= happens.count() == 3;
                let mut seen_guard = false;
                for atom in &r.body {
                    match atom {
                        BodyAtom::Guard(GuardExpr::Cmp { lhs, rhs, .. }) => {
                            seen_guard = true;
                            abs |= matches!(lhs, NumExpr::Abs(_));
                            if let NumExpr::Const(c) = rhs {
                                fractional |= c.fract() != 0.0;
                                negative |= *c < 0.0;
                                zero |= *c == 0.0;
                            }
                        }
                        BodyAtom::Holds { negated, .. } if seen_guard => {
                            guard_before_condition = true;
                            negated_after_guard |= *negated;
                        }
                        BodyAtom::Relation { .. } | BodyAtom::Builtin { .. } if seen_guard => {
                            guard_before_condition = true;
                        }
                        _ => {}
                    }
                }
            }
        }
        for (what, seen) in [
            ("three-way join", three_way),
            ("guard ahead of a later condition", guard_before_condition),
            ("fractional constant", fractional),
            ("negative constant", negative),
            ("zero constant", zero),
            ("abs guard", abs),
            ("negated holdsAt after a guard", negated_after_guard),
            ("empty relation", empty_site),
            ("declared relation never set", unset_site),
            ("mixed Int/Float column", mixed),
        ] {
            assert!(seen, "no fuzzed join drew: {what}");
        }
    }

    #[test]
    fn perturbation_keeps_occurrences_and_sorts_arrivals() {
        use crate::scenario::{Scenario, ScenarioConfig};
        let scenario = Scenario::generate(ScenarioConfig::small(600, 3)).unwrap();
        let mut sdes = scenario.sdes.clone();
        let g = QueryGrid { first: 300, step: 300, wm: 600, last: 600 };
        let before: Vec<i64> = {
            let mut t: Vec<i64> = sdes.iter().map(|s| s.time).collect();
            t.sort_unstable();
            t
        };
        let stats = perturb_sdes(&mut sdes, 5, &g, &LatenessMix::default(), 0.1);
        assert_eq!(sdes.len(), before.len() + stats.duplicates);
        assert!(sdes.windows(2).all(|w| w[0].arrival <= w[1].arrival), "sorted by arrival");
        assert!(stats.within_wm + stats.beyond_wm > 0, "some items actually delayed");
    }
}
