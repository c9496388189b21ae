//! The differential harness: windowed engine vs. reference oracle.
//!
//! For each query time `Qi` of a [`QueryGrid`], the harness gives the oracle
//! exactly the knowledge a correct windowed engine can have accumulated —
//! every SDE that was visible at *some* executed query up to `Qi` (late
//! arrivals beyond the working memory are excluded: they are irrevocably
//! lost, §4.2) — and then requires:
//!
//! 1. `holdsAt` agreement at **every** time-point of the window `(Qi − WM,
//!    Qi]` for every grounding of every derived fluent either side knows;
//! 2. set equality of derived events, where the oracle side is restricted
//!    to derivations whose evidence span fits inside the window (the engine
//!    can only re-derive an event while all of its evidence is in working
//!    memory; simple-fluent *state*, by contrast, persists via inertia).
//!
//! On the first disagreement the harness builds a minimal
//! [`DivergenceReport`] (replayable seed included), persists it for CI
//! artifact upload, and returns it as the error.
//!
//! [`Harness::check_restored`] is the second, oracle-free check: the live
//! (incremental) engine against a relay of engines restored from a snapshot
//! before every query, which re-derive each window in full.

use crate::diff::{write_report, DivergenceReport, EventDiff, FluentDiff, Side};
use crate::oracle::{BuiltinFn, Oracle};
use insight_datagen::adversarial::QueryGrid;
use insight_rtec::dsl::RuleSet;
use insight_rtec::engine::Engine;
use insight_rtec::event::{Event, FluentObs, Stamped};
use insight_rtec::term::{Symbol, Term};
use insight_rtec::time::Time;
use insight_rtec::window::WindowConfig;
use std::collections::BTreeSet;
use std::sync::Arc;

/// One generated SDE stream: stamped events and observations plus the seed
/// and label that regenerate it.
#[derive(Debug, Clone)]
pub struct Stream {
    /// Human-readable generator label (printed in divergence reports).
    pub label: String,
    /// The seed that regenerates the stream.
    pub seed: u64,
    /// Stamped input events, any order.
    pub events: Vec<Stamped<Event>>,
    /// Stamped input fluent observations, any order.
    pub obs: Vec<Stamped<FluentObs>>,
}

/// Aggregate counts of one differential check (for thoroughness asserts).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckStats {
    /// Queries executed.
    pub queries: usize,
    /// Fluent groundings compared (summed over queries).
    pub groundings: usize,
    /// `holdsAt` time-points compared.
    pub ticks: usize,
    /// Derived event instances compared (union of both sides).
    pub events_compared: usize,
}

impl CheckStats {
    fn absorb(&mut self, other: CheckStats) {
        self.queries += other.queries;
        self.groundings += other.groundings;
        self.ticks += other.ticks;
        self.events_compared += other.events_compared;
    }

    /// Sums per-stream stats.
    pub fn merge(stats: impl IntoIterator<Item = CheckStats>) -> CheckStats {
        let mut total = CheckStats::default();
        for s in stats {
            total.absorb(s);
        }
        total
    }
}

/// Builds matched engine/oracle pairs and runs differential checks.
pub struct Harness {
    rules: RuleSet,
    grid: QueryGrid,
    relations: Vec<(String, Vec<Vec<Term>>)>,
    builtins: Vec<(String, BuiltinFn)>,
    initially: Vec<(String, Vec<Term>, Term)>,
}

impl Harness {
    /// A harness for one rule set over one query grid.
    pub fn new(rules: RuleSet, grid: QueryGrid) -> Harness {
        Harness { rules, grid, relations: Vec::new(), builtins: Vec::new(), initially: Vec::new() }
    }

    /// The query grid under test.
    pub fn grid(&self) -> QueryGrid {
        self.grid
    }

    /// Registers a finite relation on both sides.
    pub fn relation(mut self, name: &str, tuples: Vec<Vec<Term>>) -> Harness {
        self.relations.push((name.to_string(), tuples));
        self
    }

    /// Registers a boolean builtin on both sides.
    pub fn builtin<F>(mut self, name: &str, f: F) -> Harness
    where
        F: Fn(&[Term]) -> bool + Send + Sync + 'static,
    {
        self.builtins.push((name.to_string(), Arc::new(f)));
        self
    }

    /// Declares a fluent grounding holding from the beginning of time on
    /// both sides.
    pub fn initially(mut self, name: &str, args: Vec<Term>, value: Term) -> Harness {
        self.initially.push((name.to_string(), args, value));
        self
    }

    fn build_engine(&self) -> Engine {
        let window = WindowConfig::new(self.grid.wm, self.grid.step).expect("valid grid window");
        let mut engine = Engine::new(self.rules.clone(), window);
        for (name, tuples) in &self.relations {
            engine.set_relation(name, tuples.clone()).expect("declared relation");
        }
        for (name, f) in &self.builtins {
            let f = Arc::clone(f);
            engine.register_builtin(name, move |args| f(args)).expect("declared builtin");
        }
        for (name, args, value) in &self.initially {
            engine.set_initially(name, args.clone(), value.clone()).expect("declared fluent");
        }
        engine
    }

    fn build_oracle(&self) -> Oracle {
        let mut oracle = Oracle::new(self.rules.clone());
        for (name, tuples) in &self.relations {
            oracle.set_relation(name, tuples.clone());
        }
        for (name, f) in &self.builtins {
            let f = Arc::clone(f);
            oracle.register_builtin(name, move |args| f(args));
        }
        for (name, args, value) in &self.initially {
            oracle.set_initially(name, args.clone(), value.clone());
        }
        oracle
    }

    /// Runs the full differential over one stream. `Err` carries the minimal
    /// divergence (already persisted for artifact upload).
    pub fn check(&self, stream: &Stream) -> Result<CheckStats, Box<DivergenceReport>> {
        let mut engine = self.build_engine();
        let oracle = self.build_oracle();
        for ev in &stream.events {
            engine.add_stamped_event(ev.clone()).unwrap_or_else(|e| {
                panic!("[{} seed {}] bad event: {e}", stream.label, stream.seed)
            });
        }
        for ob in &stream.obs {
            engine
                .add_stamped_obs(ob.clone())
                .unwrap_or_else(|e| panic!("[{} seed {}] bad obs: {e}", stream.label, stream.seed));
        }

        let mut stats = CheckStats::default();
        let fluent_names: BTreeSet<Symbol> = self.rules.derived_fluents().iter().copied().collect();
        for &q in &self.grid.queries() {
            let rec = engine.query(q).unwrap_or_else(|e| {
                panic!("[{} seed {}] engine query {q} failed: {e}", stream.label, stream.seed)
            });
            stats.queries += 1;
            let start = q - self.grid.wm;

            // The knowledge a correct windowed engine has at q: everything
            // that was visible at some executed query ≤ q.
            let known_events: Vec<Event> = stream
                .events
                .iter()
                .filter(|s| self.grid.ever_visible_by(s.item.time, s.arrival, q))
                .map(|s| s.item.clone())
                .collect();
            let known_obs: Vec<FluentObs> = stream
                .obs
                .iter()
                .filter(|s| self.grid.ever_visible_by(s.item.time, s.arrival, q))
                .map(|s| s.item.clone())
                .collect();
            let reference = oracle.run(&known_events, &known_obs);

            let mut fluent_diffs: Vec<FluentDiff> = Vec::new();
            for &name in &fluent_names {
                let name_str = name.as_str().to_string();
                let mut groundings: BTreeSet<(Vec<Term>, Term)> =
                    reference.groundings(name_str.as_str()).into_iter().collect();
                for e in rec.fluent_entries(name_str.as_str()) {
                    groundings.insert((e.args.clone(), e.value.clone()));
                }
                for (args, value) in groundings {
                    stats.groundings += 1;
                    let mut first: Option<Time> = None;
                    let mut last = start;
                    let mut mismatches = 0usize;
                    let mut engine_first = false;
                    // The window is half-open: (start, q].
                    for t in (start + 1)..=q {
                        stats.ticks += 1;
                        let eh = rec.holds_at(name_str.as_str(), &args, &value, t);
                        let oh = reference.holds_at(name_str.as_str(), &args, &value, t);
                        if eh != oh {
                            if first.is_none() {
                                first = Some(t);
                                engine_first = eh;
                            }
                            last = t;
                            mismatches += 1;
                        }
                    }
                    if let Some(first_tick) = first {
                        fluent_diffs.push(FluentDiff {
                            fluent: name_str.clone(),
                            args,
                            value,
                            first_tick,
                            last_tick: last,
                            mismatching_ticks: mismatches,
                            engine_holds_at_first: engine_first,
                        });
                    }
                }
            }

            let expected = reference.derived_events_in_window(start, q);
            let mut actual: Vec<(Symbol, Vec<Term>, Time)> =
                rec.derived_events.iter().map(|e| (e.kind, e.args.clone(), e.time)).collect();
            actual.sort();
            actual.dedup();
            let expected_set: BTreeSet<_> = expected.iter().cloned().collect();
            let actual_set: BTreeSet<_> = actual.iter().cloned().collect();
            stats.events_compared += expected_set.union(&actual_set).count();
            let mut event_diffs: Vec<EventDiff> = Vec::new();
            for (kind, args, time) in expected_set.difference(&actual_set) {
                event_diffs.push(EventDiff {
                    kind: kind.as_str().to_string(),
                    args: args.clone(),
                    time: *time,
                    side: Side::MissingFromEngine,
                });
            }
            for (kind, args, time) in actual_set.difference(&expected_set) {
                event_diffs.push(EventDiff {
                    kind: kind.as_str().to_string(),
                    args: args.clone(),
                    time: *time,
                    side: Side::SpuriousInEngine,
                });
            }

            if !fluent_diffs.is_empty() || !event_diffs.is_empty() {
                let report = DivergenceReport {
                    label: stream.label.clone(),
                    seed: stream.seed,
                    query_time: q,
                    window_start: start,
                    fluent_diffs,
                    event_diffs,
                };
                write_report(&report);
                return Err(Box::new(report));
            }
        }
        Ok(stats)
    }

    /// Runs the stream through a live engine and, beside it, a *relay* of
    /// engines: before every query the relay engine is replaced by a freshly
    /// built one restored from its predecessor's snapshot. Restoring
    /// discards every cached point and derivation, so each relay query
    /// re-derives its window in full from the snapshot alone, while the live
    /// engine evaluates incrementally. Identical recognitions at every query
    /// — equal derived-event sets and `holdsAt` agreement at every
    /// time-point of every window — therefore pin both *incremental == full
    /// re-derivation* and *snapshot → restore → continue == live* with a
    /// crash at every query. No oracle is involved, so streams whose rules
    /// read fluents at times outside the window (where any windowed engine
    /// answers from truncated knowledge) are in scope. `Err` carries a
    /// replayable description of the first divergence.
    pub fn check_restored(&self, stream: &Stream) -> Result<CheckStats, String> {
        let mut live = self.build_engine();
        let mut relay = self.build_engine();
        for ev in &stream.events {
            live.add_stamped_event(ev.clone()).unwrap();
            relay.add_stamped_event(ev.clone()).unwrap();
        }
        for ob in &stream.obs {
            live.add_stamped_obs(ob.clone()).unwrap();
            relay.add_stamped_obs(ob.clone()).unwrap();
        }
        let mut stats = CheckStats::default();
        let fluent_names: BTreeSet<Symbol> = self.rules.derived_fluents().iter().copied().collect();
        for &q in &self.grid.queries() {
            let snapshot = relay.snapshot_state();
            relay = self.build_engine();
            relay.restore_state(&snapshot).map_err(|e| format!("restore before q={q}: {e}"))?;
            let ra = live.query(q).map_err(|e| format!("live query {q}: {e}"))?;
            let rb = relay.query(q).map_err(|e| format!("restored query {q}: {e}"))?;
            stats.queries += 1;
            let start = q - self.grid.wm;

            let mut evs_a: Vec<(Symbol, Vec<Term>, Time)> =
                ra.derived_events.iter().map(|e| (e.kind, e.args.clone(), e.time)).collect();
            let mut evs_b: Vec<(Symbol, Vec<Term>, Time)> =
                rb.derived_events.iter().map(|e| (e.kind, e.args.clone(), e.time)).collect();
            evs_a.sort();
            evs_a.dedup();
            evs_b.sort();
            evs_b.dedup();
            stats.events_compared += evs_a.len().max(evs_b.len());
            if evs_a != evs_b {
                return Err(format!(
                    "[{} seed {}] derived events diverge at q={q}: live has {}, restored has {}",
                    stream.label,
                    stream.seed,
                    evs_a.len(),
                    evs_b.len()
                ));
            }

            for &name in &fluent_names {
                let name_str = name.as_str();
                let mut groundings: BTreeSet<(Vec<Term>, Term)> = BTreeSet::new();
                for e in ra.fluent_entries(name_str).iter().chain(rb.fluent_entries(name_str)) {
                    groundings.insert((e.args.clone(), e.value.clone()));
                }
                for (args, value) in groundings {
                    stats.groundings += 1;
                    for t in (start + 1)..=q {
                        stats.ticks += 1;
                        let ha = ra.holds_at(name_str, &args, &value, t);
                        let hb = rb.holds_at(name_str, &args, &value, t);
                        if ha != hb {
                            return Err(format!(
                                "[{} seed {}] {name_str}({args:?})={value:?} diverges at \
                                 t={t} (q={q}): live={ha}, restored={hb}",
                                stream.label, stream.seed
                            ));
                        }
                    }
                }
            }
        }
        Ok(stats)
    }
}
