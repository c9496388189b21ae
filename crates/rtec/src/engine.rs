//! The recognition engine: windowed, stratified evaluation of rule sets.
//!
//! An [`Engine`] writes each arriving SDE once into the window store of its
//! kind, and at each query time `Qi` evaluates the rule set over the working
//! memory `(Qi − WM, Qi]` (Section 4.2 of the paper):
//!
//! 1. the stores slide: facts that fell behind the window start expire, and
//!    the input events and fluent observations that have arrived by `Qi` and
//!    occurred inside the window are admitted into the store's order and
//!    indexes;
//! 2. strata are evaluated bottom-up — derived events are added to the event
//!    index, simple fluents go through initiation/termination point collection
//!    and the law of inertia, statically-determined fluents evaluate their
//!    interval expressions;
//! 3. fluent intervals are retained so that the next query can seed the value
//!    each fluent has at its window start (inertia across windows).
//!
//! Re-deriving everything the window *delta* can reach is what lets SDEs that
//! arrive *late* (but still inside the window) be amended into the results,
//! exactly as Figure 2 of the paper illustrates; SDEs older than the window
//! are irrevocably lost.
//!
//! There is one evaluation path. [`Engine::new`] compiles the rule set into a
//! [`CompiledPlan`] (or [`Engine::with_plan`] shares one already compiled),
//! and every query runs that plan over the engine's retained slot-indexed
//! window state (`crate::slotstate`), serially on the calling thread.

use crate::compile::{
    eval_interval_expr_into, scratch_allocations, solve_domain_c, solve_frontier_c, solve_work,
    term_time, CCtx, CEventStore, CFluentStore, CRelation, CompiledPlan, FactRef, OwnBuffers,
    Slide, SlotId, SolveBuffers, SolveWork, StoreCounts, StoreProbe, StratumInstr,
};
use crate::dsl::RuleSet;
use crate::error::RtecError;
use crate::event::{Event, FluentObs, Stamped};
use crate::interval::{Interval, IntervalList};
use crate::pattern::{ArgPat, Bindings};
use crate::rule::SfKind;
use crate::slotstate::{CDeriv, CPoint, CycleState, StratumState};
use crate::stratify::HeadKind;
use crate::term::{Symbol, Term};
use crate::time::{Time, TIME_MAX, TIME_MIN};
use crate::window::WindowConfig;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A registered boolean builtin predicate (e.g. the spatial `close/4`).
pub type BuiltinFn = Arc<dyn Fn(&[Term]) -> bool + Send + Sync>;

// ---------------------------------------------------------------------------
// Derived fluent store
// ---------------------------------------------------------------------------

/// One computed fluent grounding and its maximal intervals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FluentEntry {
    /// Ground arguments.
    pub args: Vec<Term>,
    /// The fluent value.
    pub value: Term,
    /// Maximal intervals where `name(args) = value` holds.
    pub ivs: IntervalList,
}

/// All derived fluent groundings computed at one query time.
#[derive(Debug, Clone, Default)]
pub struct FluentStore {
    by_name: HashMap<Symbol, Vec<FluentEntry>>,
}

impl FluentStore {
    /// The computed groundings of fluent `name` (empty slice if none).
    pub fn entries(&self, name: Symbol) -> &[FluentEntry] {
        self.by_name.get(&name).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Fluent names with at least one grounding.
    pub fn names(&self) -> impl Iterator<Item = Symbol> + '_ {
        self.by_name.keys().copied()
    }

    /// Looks up the intervals of one exact grounding.
    pub fn intervals(&self, name: Symbol, args: &[Term], value: &Term) -> Option<&IntervalList> {
        self.by_name
            .get(&name)?
            .iter()
            .find(|e| e.args == args && &e.value == value)
            .map(|e| &e.ivs)
    }
}

// ---------------------------------------------------------------------------
// Recognition result
// ---------------------------------------------------------------------------

/// Aggregate counts of one recognition query (diagnostics/benchmarks).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecognitionStats {
    /// Derived (complex) events recognised.
    pub derived_events: usize,
    /// Derived fluent groundings with at least one interval.
    pub fluent_groundings: usize,
    /// Total maximal intervals across all groundings.
    pub intervals: usize,
    /// Solver steps the query took ([`QueryTiming::solver_steps`]).
    pub solver_steps: u64,
    /// Candidates the query examined ([`QueryTiming::candidates_examined`]).
    pub candidates_examined: u64,
    /// Input facts the query admitted ([`QueryTiming::facts_admitted`]).
    pub facts_admitted: u64,
    /// Of those, late arrivals amended ([`QueryTiming::facts_amended`]).
    pub facts_amended: u64,
    /// Admitted facts the query expired ([`QueryTiming::facts_expired`]).
    pub facts_expired: u64,
    /// Facts the query dropped unseen ([`QueryTiming::facts_lost`]).
    pub facts_lost: u64,
    /// Derived events written into the stores
    /// ([`QueryTiming::derived_written`]).
    pub derived_written: u64,
}

/// Wall-clock timing of one recognition query, split by phase.
///
/// Measured with `std::time::Instant` only, so the crate stays
/// dependency-free; callers (e.g. the pipeline layer) copy these into their
/// own metrics registries.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QueryTiming {
    /// The whole `query` call.
    pub total: Duration,
    /// Sliding the input stores: expiring the head that fell behind the
    /// window start and admitting the facts that became visible.
    pub windowing: Duration,
    /// Stratified rule evaluation (events, simple fluents, static fluents).
    pub evaluation: Duration,
    /// Strata on which rule bodies were actually (re-)solved this query; a
    /// stratum whose input delta is empty reuses its cached results and is
    /// not counted.
    pub strata_evaluated: usize,
    /// Fluent groundings whose interval lists were recomputed (inertia
    /// reconstruction or static interval expressions); groundings untouched
    /// by the delta reuse their previous intervals and are not counted.
    pub groundings_recomputed: usize,
    /// Heap allocations attributable to the window cycle: retained-buffer
    /// capacity growths (stores, grounding tables, arenas) plus
    /// solver-scratch growths. Excludes result delivery (the returned
    /// `Recognition`). Zero once the retained state has sized to the
    /// working set.
    pub window_allocations: u64,
    /// Time spent keeping the retained slot-indexed stores current: sliding
    /// the input stores (`windowing`) plus publishing each stratum's output
    /// into its slot (a share of `evaluation`).
    pub cache_rebuild: Duration,
    /// Solver steps: one per body atom visited and one per solution
    /// delivered, summed over the strata. Counted work — exact for a given
    /// plan and input, whatever the host is doing.
    pub solver_steps: u64,
    /// Events, observations, derived-fluent groundings and relation tuples
    /// the access paths handed to the matcher, summed over the strata
    /// (interval-expression leaves included).
    pub candidates_examined: u64,
    /// Input facts written into the window stores' order and indexes: those
    /// that became visible to this query. Every fact is admitted at most
    /// once in its life, so over a run this is the number of facts that were
    /// ever visible — not that times the windows each lived through.
    pub facts_admitted: u64,
    /// Of `facts_admitted`, the facts that occurred at or before the
    /// previous query time: late arrivals amended into the window overlap
    /// (Figure 2 of the paper).
    pub facts_amended: u64,
    /// Admitted facts that fell behind the window start and left the stores.
    pub facts_expired: u64,
    /// Facts dropped without ever having been visible: by the time they had
    /// arrived, their occurrence was behind the window start.
    pub facts_lost: u64,
    /// Derived events written into their store slots: per stratum, only the
    /// tail at or behind its output change frontier.
    pub derived_written: u64,
}

/// What one stratum has cost over every query its engine has answered
/// ([`Engine::stratum_profile`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StratumProfile {
    /// The head symbol the stratum derives.
    pub symbol: Symbol,
    /// Wall time inside the stratum's evaluation (publishing excluded).
    pub time: Duration,
    /// Counted solver work.
    pub work: SolveWork,
}

/// The result of one recognition query.
#[derive(Debug, Clone)]
pub struct Recognition {
    /// All derived (complex) events recognised in the window, time-sorted.
    pub derived_events: Vec<Event>,
    /// The query time.
    pub query_time: Time,
    /// The window start (`query_time − WM`).
    pub window_start: Time,
    /// Number of input SDEs (events + fluent observations) in the window.
    pub sde_count: usize,
    /// Wall-clock cost of producing this result.
    pub timing: QueryTiming,
    fluents: FluentStore,
}

impl Recognition {
    /// The full derived fluent store.
    pub fn fluent_store(&self) -> &FluentStore {
        &self.fluents
    }

    /// Intervals of one exact fluent grounding, if computed.
    pub fn intervals_of(&self, name: &str, args: &[Term], value: &Term) -> Option<&IntervalList> {
        self.fluents.intervals(Symbol::new(name), args, value)
    }

    /// All computed groundings of fluent `name`.
    pub fn fluent_entries(&self, name: &str) -> &[FluentEntry] {
        self.fluents.entries(Symbol::new(name))
    }

    /// Derived events of the given kind, time-sorted.
    pub fn events_of(&self, kind: &str) -> Vec<&Event> {
        let k = Symbol::new(kind);
        self.derived_events.iter().filter(|e| e.kind == k).collect()
    }

    /// `holdsAt` on a derived fluent grounding.
    pub fn holds_at(&self, name: &str, args: &[Term], value: &Term, t: Time) -> bool {
        self.intervals_of(name, args, value).is_some_and(|l| l.contains(t))
    }

    /// Aggregate counts for diagnostics.
    pub fn stats(&self) -> RecognitionStats {
        let mut stats = RecognitionStats {
            derived_events: self.derived_events.len(),
            solver_steps: self.timing.solver_steps,
            candidates_examined: self.timing.candidates_examined,
            facts_admitted: self.timing.facts_admitted,
            facts_amended: self.timing.facts_amended,
            facts_expired: self.timing.facts_expired,
            facts_lost: self.timing.facts_lost,
            derived_written: self.timing.derived_written,
            ..RecognitionStats::default()
        };
        for name in self.fluents.names() {
            for e in self.fluents.entries(name) {
                stats.fluent_groundings += 1;
                stats.intervals += e.ivs.len();
            }
        }
        stats
    }
}

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

/// A windowed RTEC recognition engine for one rule set.
///
/// Evaluation is *incremental*, stores included. An input SDE is written
/// once, on arrival, into the window store of its kind, where it waits in a
/// pending area until a query may see it; a query expires each store's head,
/// admits the newly visible facts (fresh arrivals and late amendments inside
/// the window overlap alike) into the store's order and indexes, and lowers
/// the kind's change frontier to the earliest of them. Rule bodies are
/// re-solved only for derivations that can reach that delta; cached
/// derivations whose evidence span is unaffected are reused verbatim, and a
/// derived-event slot is rewritten only from its stratum's output frontier
/// on. The cost of a query follows the window *delta*, not the window size.
/// The first query, relation/builtin changes and [`Engine::restore_state`]
/// re-evaluate every stratum once, over the same stores.
pub struct Engine {
    plan: Arc<CompiledPlan>,
    window: WindowConfig,
    /// Input facts ingested so far: each one's sequence number, the tie
    /// order among facts of one kind and time.
    ingested: u64,
    /// Relation tuples with the indexes the plan names, in
    /// `plan.relation_syms` order.
    relations: Vec<CRelation>,
    /// Builtin implementations, indexed like `plan.builtin_syms` (`None`
    /// until registered).
    builtins: Vec<Option<BuiltinFn>>,
    /// The retained window state every query evaluates over: the sliding
    /// SDE and derived-event stores, per-stratum grounding tables with their
    /// cached points/derivations, and the previous window's fluent
    /// intervals (inertia).
    state: CycleState,
    last_query: Option<Time>,
    first_query: Option<Time>,
    /// Relations/builtins changed or state was restored since the last
    /// query: every stratum must re-evaluate in full because those
    /// dependencies are outside frontier tracking.
    dirty_all: bool,
    /// Cumulative per-stratum cost, aligned with the plan's instruction
    /// array.
    profile: Vec<StratumProfile>,
    /// The solver's buffers, lent to whichever thread runs a query.
    scratch: SolveBuffers,
}

impl Engine {
    /// Creates an engine for `ruleset` with the given window configuration,
    /// compiling the rule set into its execution plan.
    pub fn new(ruleset: RuleSet, window: WindowConfig) -> Engine {
        Engine::with_plan(CompiledPlan::compile(ruleset), window)
    }

    /// Creates an engine over an already compiled plan. The plan holds no
    /// window state, so one `Arc` serves any number of engines — shard
    /// replicas, region engines, a replica rebuilt after a crash — and the
    /// rule set is compiled once for all of them.
    pub fn with_plan(plan: Arc<CompiledPlan>, window: WindowConfig) -> Engine {
        Engine {
            window,
            ingested: 0,
            // An unset relation is empty, but it still carries (empty)
            // indexes: the plan's access paths address them by ordinal.
            relations: (plan.needs.rel_eq.iter().zip(&plan.needs.rel_num))
                .map(|(eq, num)| CRelation::build(Vec::new(), eq, num))
                .collect(),
            builtins: vec![None; plan.builtin_syms.len()],
            state: CycleState::new(&plan),
            last_query: None,
            first_query: None,
            dirty_all: false,
            profile: plan
                .instrs
                .iter()
                .map(|i| StratumProfile {
                    symbol: i.symbol,
                    time: Duration::ZERO,
                    work: SolveWork::default(),
                })
                .collect(),
            scratch: SolveBuffers::default(),
            plan,
        }
    }

    /// The execution plan (clone the `Arc` to build further engines over the
    /// same rule set with [`Engine::with_plan`]).
    pub fn plan(&self) -> &Arc<CompiledPlan> {
        &self.plan
    }

    /// The window configuration.
    pub fn window(&self) -> WindowConfig {
        self.window
    }

    /// The rule set being executed.
    pub fn ruleset(&self) -> &RuleSet {
        &self.plan.rules
    }

    /// Cumulative evaluation time and counted solver work per stratum, in
    /// evaluation order, over every query answered so far — where a window's
    /// cost sits, by rule head.
    pub fn stratum_profile(&self) -> &[StratumProfile] {
        &self.profile
    }

    /// Registers the implementation of a declared builtin predicate.
    pub fn register_builtin<F>(&mut self, name: &str, f: F) -> Result<(), RtecError>
    where
        F: Fn(&[Term]) -> bool + Send + Sync + 'static,
    {
        let idx = self
            .plan
            .builtin_syms
            .binary_search(&Symbol::new(name))
            .map_err(|_| RtecError::UnknownBuiltin { name: name.to_string() })?;
        self.builtins[idx] = Some(Arc::new(f));
        // Builtin results are outside frontier tracking; invalidate caches.
        self.dirty_all = true;
        Ok(())
    }

    /// Replaces the tuples of a declared relation, indexing them once on the
    /// columns the plan's access paths probe.
    pub fn set_relation(&mut self, name: &str, tuples: Vec<Vec<Term>>) -> Result<(), RtecError> {
        let sym = Symbol::new(name);
        let idx = self
            .plan
            .relation_syms
            .binary_search(&sym)
            .map_err(|_| RtecError::UnknownRelation { name: name.to_string() })?;
        let arity = self.plan.rules.relations[&sym];
        if let Some(bad) = tuples.iter().find(|t| t.len() != arity) {
            return Err(RtecError::ArityMismatch {
                symbol: name.to_string(),
                declared: arity,
                used: bad.len(),
            });
        }
        let needs = &self.plan.needs;
        self.relations[idx] = CRelation::build(tuples, &needs.rel_eq[idx], &needs.rel_num[idx]);
        // Relation tuples are outside frontier tracking; invalidate caches.
        self.dirty_all = true;
        Ok(())
    }

    /// Declares that a simple fluent grounding holds *initially* — before
    /// any event of the stream (the Event Calculus `initially` predicate).
    /// Must be called before the first query; the value persists by inertia
    /// until a termination rule fires.
    pub fn set_initially(
        &mut self,
        name: &str,
        args: Vec<Term>,
        value: Term,
    ) -> Result<(), RtecError> {
        if let Some(first_query) = self.first_query {
            return Err(RtecError::EngineAlreadyStarted { first_query });
        }
        let si =
            self.simple_fluent_stratum(Symbol::new(name)).ok_or_else(|| RtecError::Undeclared {
                symbol: name.to_string(),
                context: "set_initially (must be a derived simple fluent)".into(),
            })?;
        self.state.seed_fluent(
            si,
            &args,
            &value,
            IntervalList::single(Interval::open_from(TIME_MIN)),
        );
        Ok(())
    }

    /// Index of the simple-fluent stratum deriving `sym`, if there is one.
    fn simple_fluent_stratum(&self, sym: Symbol) -> Option<usize> {
        self.plan.instrs.iter().position(|i| i.symbol == sym && i.kind == HeadKind::SimpleFluent)
    }

    /// Stores an event that arrives exactly when it occurs.
    pub fn add_event(&mut self, event: Event) -> Result<(), RtecError> {
        self.add_stamped_event(Stamped::<Event>::punctual(event))
    }

    /// Stores an event with an explicit arrival time (possibly delayed).
    pub fn add_stamped_event(&mut self, ev: Stamped<Event>) -> Result<(), RtecError> {
        match self.plan.rules.input_events.get(&ev.item.kind) {
            Some(&arity) if arity == ev.item.args.len() => {
                let slot = self.plan.slots.slot(ev.item.kind).expect("declared event has a slot");
                let meta = (self.ingested, ev.arrival);
                self.state.events.ingest(slot, false, meta, ev.item.time, &ev.item.args);
                self.ingested += 1;
                Ok(())
            }
            Some(&arity) => Err(RtecError::ArityMismatch {
                symbol: ev.item.kind.as_str().to_string(),
                declared: arity,
                used: ev.item.args.len(),
            }),
            None => Err(RtecError::Undeclared {
                symbol: ev.item.kind.as_str().to_string(),
                context: "add_event (declare it with declare_event)".into(),
            }),
        }
    }

    /// Stores an input fluent observation arriving when it occurs.
    pub fn add_obs(&mut self, obs: FluentObs) -> Result<(), RtecError> {
        self.add_stamped_obs(Stamped::<FluentObs>::punctual(obs))
    }

    /// Stores an input fluent observation with an explicit arrival time.
    pub fn add_stamped_obs(&mut self, obs: Stamped<FluentObs>) -> Result<(), RtecError> {
        match self.plan.rules.input_fluents.get(&obs.item.name) {
            Some(&arity) if arity == obs.item.args.len() => {
                let slot = self.plan.slots.slot(obs.item.name).expect("declared fluent has a slot");
                let (meta, o) = ((self.ingested, obs.arrival), &obs.item);
                self.state.obs.ingest(slot, false, meta, o.time, &o.args, &o.value);
                self.ingested += 1;
                Ok(())
            }
            Some(&arity) => Err(RtecError::ArityMismatch {
                symbol: obs.item.name.as_str().to_string(),
                declared: arity,
                used: obs.item.args.len(),
            }),
            None => Err(RtecError::Undeclared {
                symbol: obs.item.name.as_str().to_string(),
                context: "add_obs (declare it with declare_input_fluent)".into(),
            }),
        }
    }

    /// Number of input items held: admitted and not yet expired, or still
    /// waiting for a query that may see them.
    pub fn buffered(&self) -> usize {
        self.state.events.buffered() + self.state.obs.buffered()
    }

    /// The window stores as the solver's access paths read them (tests).
    #[doc(hidden)]
    pub fn store_probe(&self) -> StoreProbe<'_> {
        StoreProbe {
            plan: &self.plan,
            events: &self.state.events,
            obs: &self.state.obs,
            frontiers: &self.state.frontiers,
        }
    }

    /// Summed capacity of every retained buffer of the window state, in
    /// elements: flat once the state has sized to the working set (tests).
    #[doc(hidden)]
    pub fn retained_capacity(&self) -> usize {
        self.state.retained_capacity()
    }

    /// Runs recognition at query time `q`.
    ///
    /// Query times must be strictly increasing. Items that have arrived by
    /// `q` and occurred in `(q − WM, q]` are processed; items whose
    /// occurrence time has fallen behind the window are discarded.
    ///
    /// All per-window state lives in the retained `CycleState`:
    /// slot-indexed SDE and derived-event stores that slide with the window,
    /// fluent tables refilled in place, generation-stamped grounding tables,
    /// and arena scratch for every interval computed along the way. A steady-state cycle grows no
    /// retained buffer and no solver scratch; the per-query allocation count
    /// is measured around the cycle and reported in
    /// [`QueryTiming::window_allocations`].
    pub fn query(&mut self, q: Time) -> Result<Recognition, RtecError> {
        if let Some(prev) = self.last_query {
            if q <= prev {
                return Err(RtecError::NonMonotonicQuery { previous: prev, requested: q });
            }
        }
        // All declared builtins must have implementations.
        if let Some(missing) = self.builtins.iter().position(Option::is_none) {
            return Err(RtecError::UnknownBuiltin {
                name: self.plan.builtin_syms[missing].as_str().to_string(),
            });
        }

        let query_started = Instant::now();
        let start = self.window.window_start(q);
        let full_eval = self.first_query.is_none() || self.dirty_all;
        self.dirty_all = false;
        // Window-start advance changes what non-pivotable strata can read
        // even with an empty input delta (their fluent reads may target
        // times that just expired), so it dirties them unconditionally.
        let window_advanced =
            self.last_query.is_some_and(|prev| self.window.window_start(prev) < start);

        let slide = Slide { start, q, prev_q: self.last_query.unwrap_or(TIME_MIN) };
        let Engine { plan, state, relations, builtins, profile, scratch, .. } = self;
        let plan: &CompiledPlan = plan;
        state.gen += 1;
        let cycle = Cycle { start, gen: state.gen, full_eval };
        let lent = OwnBuffers::lend(scratch);
        let scratch_before = scratch_allocations();
        state.begin_caps();
        let CycleState { frontiers, events, obs, fluents: cfluents, strata, .. } = &mut *state;

        // Slide the input stores. What a kind admits — facts no previous
        // query saw, fresh arrivals and late amendments alike — pushes its
        // slot's change frontier down to the earliest of them. Below the
        // frontier the inputs are exactly what the previous query saw:
        // in-window facts are never mutated, only added (tracked here) or
        // expired (tracked by evidence spans). `TIME_MAX` means clean.
        frontiers.clear();
        frontiers.resize(plan.n_slots(), TIME_MAX);
        cfluents.clear();
        let mut counts = StoreCounts::default();
        let sde_count =
            events.slide(slide, frontiers, &mut counts) + obs.slide(slide, frontiers, &mut counts);
        let windowing = query_started.elapsed();
        let mut cache_rebuild = windowing;

        // Strata run bottom-up in stratification order: the frontiers and
        // outputs a stratum reads all belong to inputs or earlier strata,
        // and each stratum's output is published before the next one runs.
        let evaluation_started = Instant::now();
        let mut fluents_out = FluentStore::default();
        let mut derived_events: Vec<Event> = Vec::new();
        let mut strata_evaluated = 0usize;
        let mut groundings_recomputed = 0usize;
        let mut work = SolveWork::default();
        for ((instr, table), profile) in
            plan.instrs.iter().zip(strata.iter_mut()).zip(profile.iter_mut())
        {
            // Everything strictly below the stratum frontier is untouched
            // by this query's delta.
            let mut frontier = if full_eval {
                TIME_MIN
            } else {
                instr.dep_slots.iter().map(|&d| frontiers[d as usize]).min().unwrap_or(TIME_MAX)
            };
            if !instr.pivotable && (window_advanced || frontier < TIME_MAX) {
                frontier = TIME_MIN;
            }
            let ctx = CCtx { events, obs, fluents: cfluents, relations, builtins };
            let (stratum_started, work_before) = (Instant::now(), solve_work());
            let out = eval_stratum(plan, instr, frontier, cycle, ctx, table);
            let mut stratum_work = solve_work() - work_before;
            stratum_work.candidates += out.expr_candidates;
            profile.time += stratum_started.elapsed();
            profile.work += stratum_work;
            work += stratum_work;
            strata_evaluated += usize::from(out.evaluated);
            groundings_recomputed += out.groundings;
            frontiers[instr.slot as usize] = out.frontier_out;
            let publish_started = Instant::now();
            counts.derived_written += publish_stratum(
                instr,
                table,
                cycle,
                out.frontier_out,
                events,
                cfluents,
                &mut fluents_out,
                &mut derived_events,
            );
            cache_rebuild += publish_started.elapsed();
        }
        derived_events.sort_by_key(|e| (e.time, e.kind));
        let evaluation = evaluation_started.elapsed();

        let window_allocations = state.end_caps() + (scratch_allocations() - scratch_before);
        drop(lent);
        self.last_query = Some(q);
        self.first_query.get_or_insert(q);

        Ok(Recognition {
            derived_events,
            query_time: q,
            window_start: start,
            sde_count,
            timing: QueryTiming {
                total: query_started.elapsed(),
                windowing,
                evaluation,
                strata_evaluated,
                groundings_recomputed,
                window_allocations,
                cache_rebuild,
                solver_steps: work.steps,
                candidates_examined: work.candidates,
                facts_admitted: counts.admitted,
                facts_amended: counts.amended,
                facts_expired: counts.expired,
                facts_lost: counts.lost,
                derived_written: counts.derived_written,
            },
            fluents: fluents_out,
        })
    }

    // -- checkpoint/restore -------------------------------------------------

    /// Serialises the engine's windowed recognition state into a stable,
    /// line-based text snapshot.
    ///
    /// The snapshot captures exactly the state that inertia and windowing
    /// carry across queries: the stored input facts in ingestion order, each
    /// flagged with whether a query has admitted it (`1`: in its store's
    /// window order; `0`: still pending), the last window's simple-fluent
    /// intervals, and the query clock. The stores' orders and indexes and
    /// the derived-event slots are not written: restore sorts the admitted
    /// facts back in, and the next query re-derives the rest. Cached points and derivations are deliberately *excluded* —
    /// they are a pure performance artefact, and [`Engine::restore_state`]
    /// marks the engine dirty so the next query re-derives them in full.
    /// Because incremental and full evaluation are output-equivalent, a
    /// restored engine answers every future query exactly like the engine
    /// the snapshot was taken from (and like a cold engine replaying the
    /// full input history).
    ///
    /// Rule sets, relations, builtins and window configuration are *not*
    /// part of the snapshot: restore into an engine rebuilt with the same
    /// configuration.
    pub fn snapshot_state(&self) -> String {
        use std::fmt::Write as _;
        // Serialisation happens on the worker's hot path (a checkpoint
        // barrier blocks input consumption), so every line is appended in
        // place — no per-line or per-token allocations.
        let mut out = String::with_capacity(64 * (self.buffered() + 1));
        out.push_str("rtec-state v1\n");
        if let Some(t) = self.first_query {
            let _ = writeln!(out, "first {t}");
        }
        if let Some(t) = self.last_query {
            let _ = writeln!(out, "last {t}");
        }
        // Facts live in per-kind stores; a checkpoint lists them in
        // ingestion order, which is also the tie order restore must rebuild.
        let slot = |sym: Symbol| self.plan.slots.slot(sym).expect("declared input has a slot");
        let events: Vec<_> = (self.plan.rules.input_events.keys())
            .flat_map(|&sym| self.state.events.facts(slot(sym)).map(move |f| (sym.as_str(), f)))
            .collect();
        write_fact_lines(&mut out, "ev", &events);
        let obs: Vec<_> = (self.plan.rules.input_fluents.keys())
            .flat_map(|&sym| self.state.obs.facts(slot(sym)).map(move |f| (sym.as_str(), f)))
            .collect();
        write_fact_lines(&mut out, "obs", &obs);
        // Current-generation simple-fluent outputs, straight from the
        // tables. Sorted so identical states serialise to identical bytes
        // whatever order the groundings entered their tables in.
        let mut fluent_lines: Vec<String> = Vec::new();
        for (instr, state) in self.plan.instrs.iter().zip(&self.state.strata) {
            let StratumState::Sf(t) = state else { continue };
            for g in t.gs.iter().filter(|g| g.data_gen == self.state.gen && !g.out.is_empty()) {
                let args = t.key_args(g);
                let mut line = String::with_capacity(48);
                line.push_str("pf ");
                state_escape_into(&mut line, instr.symbol.as_str());
                line.push(' ');
                term_token_into(&mut line, &g.value);
                let _ = write!(line, " {}", args.len());
                for a in args {
                    line.push(' ');
                    term_token_into(&mut line, a);
                }
                for iv in g.out.iter() {
                    match iv.end() {
                        Some(e) => {
                            let _ = write!(line, " {}:{e}", iv.start());
                        }
                        None => {
                            let _ = write!(line, " {}:inf", iv.start());
                        }
                    }
                }
                line.push('\n');
                fluent_lines.push(line);
            }
        }
        fluent_lines.sort_unstable();
        for line in fluent_lines {
            out.push_str(&line);
        }
        out
    }

    /// Restores state captured by [`Engine::snapshot_state`] into this
    /// engine, replacing any stored inputs and previous-window fluents.
    ///
    /// The engine must have been built with the same rule set (input and
    /// fluent declarations are re-validated here), relations, builtins and
    /// window configuration as the snapshot's origin. On success the
    /// stores hold the snapshot's facts (admitted ones sorted in, the others
    /// pending), the retained tables only the snapshot's fluent intervals,
    /// and the engine is marked dirty, so the next query performs a full
    /// re-evaluation — differentially equal to what a cold engine
    /// replaying the entire history would produce. A failed restore leaves
    /// the engine untouched.
    pub fn restore_state(&mut self, snapshot: &str) -> Result<(), RtecError> {
        let corrupt = |detail: String| RtecError::CorruptState { detail };
        let mut lines = snapshot.lines();
        match lines.next() {
            Some("rtec-state v1") => {}
            other => {
                return Err(corrupt(format!("unsupported header `{}`", other.unwrap_or_default())))
            }
        }
        let mut first_query = None;
        let mut last_query = None;
        // Cached points and derivations are not serialised: start from
        // empty tables and stores, fill the stores with the facts and seed
        // the tables with the fluent intervals, and force the next query to
        // re-derive everything (output-equivalent, per the incremental
        // contract). Line order is ingestion order.
        let mut state = CycleState::new(&self.plan);
        let mut ingested = 0u64;
        let mut args: Vec<Term> = Vec::new();
        for (ln, line) in lines.enumerate() {
            let mut toks = line.split(' ');
            let tag = toks.next().unwrap_or_default();
            let bad = |what: &str| corrupt(format!("line {}: bad {what}: `{line}`", ln + 2));
            let parse_time = |tok: Option<&str>, what: &str| -> Result<Time, RtecError> {
                tok.and_then(|t| t.parse::<Time>().ok())
                    .ok_or_else(|| corrupt(format!("line {}: bad {what}: `{line}`", ln + 2)))
            };
            match tag {
                "first" => first_query = Some(parse_time(toks.next(), "first-query time")?),
                "last" => last_query = Some(parse_time(toks.next(), "last-query time")?),
                "ev" | "obs" => {
                    let seen = match toks.next() {
                        Some("0") => false,
                        Some("1") => true,
                        _ => return Err(bad("seen flag")),
                    };
                    let arrival = parse_time(toks.next(), "arrival time")?;
                    let time = parse_time(toks.next(), "occurrence time")?;
                    let name = state_unescape(toks.next().ok_or_else(|| bad("symbol"))?)
                        .ok_or_else(|| bad("symbol"))?;
                    let value = if tag == "obs" {
                        Some(
                            toks.next()
                                .and_then(token_to_term)
                                .ok_or_else(|| bad("fluent value"))?,
                        )
                    } else {
                        None
                    };
                    args.clear();
                    for t in toks {
                        args.push(token_to_term(t).ok_or_else(|| bad("argument term"))?);
                    }
                    let sym = Symbol::new(&name);
                    let meta = (ingested, arrival);
                    ingested += 1;
                    if let Some(value) = value {
                        let declared = &self.plan.rules.input_fluents;
                        let slot =
                            self.check_declared(declared, sym, args.len(), "input fluent")?;
                        state.obs.ingest(slot, seen, meta, time, &args, &value);
                    } else {
                        let declared = &self.plan.rules.input_events;
                        let slot = self.check_declared(declared, sym, args.len(), "event")?;
                        state.events.ingest(slot, seen, meta, time, &args);
                    }
                }
                "pf" => {
                    let name = state_unescape(toks.next().ok_or_else(|| bad("fluent name"))?)
                        .ok_or_else(|| bad("fluent name"))?;
                    let value =
                        toks.next().and_then(token_to_term).ok_or_else(|| bad("fluent value"))?;
                    let n_args: usize = toks
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| bad("argument count"))?;
                    let args: Vec<Term> = (0..n_args)
                        .map(|_| {
                            toks.next().and_then(token_to_term).ok_or_else(|| bad("argument term"))
                        })
                        .collect::<Result<_, _>>()?;
                    let si = self
                        .simple_fluent_stratum(Symbol::new(&name))
                        .ok_or_else(|| bad("fluent name (not a simple fluent of this rule set)"))?;
                    let intervals: Vec<Interval> = toks
                        .map(|pair| {
                            let (s, e) = pair.split_once(':').ok_or_else(|| bad("interval"))?;
                            let start = s.parse::<Time>().map_err(|_| bad("interval start"))?;
                            match e {
                                "inf" => Ok(Interval::open_from(start)),
                                _ => {
                                    let end = e.parse::<Time>().map_err(|_| bad("interval end"))?;
                                    Interval::try_span(start, end)
                                        .ok_or_else(|| bad("interval span"))
                                }
                            }
                        })
                        .collect::<Result<_, _>>()?;
                    state.seed_fluent(si, &args, &value, IntervalList::from_intervals(intervals));
                }
                "" => {}
                other => return Err(corrupt(format!("line {}: unknown tag `{other}`", ln + 2))),
            }
        }
        state.events.admit_staged();
        state.obs.admit_staged();
        self.state = state;
        self.ingested = ingested;
        self.first_query = first_query;
        self.last_query = last_query;
        self.dirty_all = true;
        Ok(())
    }

    /// Restore-time re-validation of one input symbol against the rule set;
    /// its slot on success.
    fn check_declared(
        &self,
        declared: &HashMap<Symbol, usize>,
        sym: Symbol,
        used: usize,
        what: &str,
    ) -> Result<SlotId, RtecError> {
        match declared.get(&sym) {
            Some(&arity) if arity == used => {
                Ok(self.plan.slots.slot(sym).expect("declared input has a slot"))
            }
            Some(&arity) => Err(RtecError::CorruptState {
                detail: format!(
                    "{what} `{sym}` snapshot arity {used} does not match declared arity {arity}"
                ),
            }),
            None => Err(RtecError::CorruptState {
                detail: format!("{what} `{sym}` is not declared by this rule set"),
            }),
        }
    }
}

/// Appends one `ev`/`obs` snapshot line per stored fact, in ingestion order.
fn write_fact_lines(out: &mut String, tag: &str, facts: &[(&'static str, FactRef<'_>)]) {
    let mut order: Vec<(u64, u32)> =
        facts.iter().enumerate().map(|(i, (_, f))| (f.seq, i as u32)).collect();
    order.sort_unstable();
    for (_, i) in order {
        let (name, f) = &facts[i as usize];
        out.push_str(tag);
        out.push_str(if f.seen { " 1 " } else { " 0 " });
        push_int(out, f.arrival);
        out.push(' ');
        push_int(out, f.time);
        out.push(' ');
        state_escape_into(out, name);
        // An observation's row holds its arguments, then its value; its
        // line the value first.
        let (value, args) = match f.terms.split_last() {
            Some((value, args)) if tag == "obs" => (Some(value), args),
            _ => (None, f.terms),
        };
        for a in value.into_iter().chain(args) {
            out.push(' ');
            term_token_into(out, a);
        }
        out.push('\n');
    }
}

/// Escapes a symbol for embedding as one space-separated snapshot token.
fn state_escape_into(out: &mut String, s: &str) {
    if !s.bytes().any(|b| matches!(b, b'%' | b' ' | b'\t' | b'\n' | b'\r')) {
        out.push_str(s);
        return;
    }
    for c in s.chars() {
        match c {
            '%' => out.push_str("%25"),
            ' ' => out.push_str("%20"),
            '\t' => out.push_str("%09"),
            '\n' => out.push_str("%0A"),
            '\r' => out.push_str("%0D"),
            _ => out.push(c),
        }
    }
}

/// Inverse of [`state_escape_into`]; `None` on a malformed escape.
fn state_unescape(s: &str) -> Option<std::borrow::Cow<'_, str>> {
    if !s.contains('%') {
        return Some(s.into());
    }
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '%' {
            out.push(c);
            continue;
        }
        let hi = chars.next()?.to_digit(16)?;
        let lo = chars.next()?.to_digit(16)?;
        out.push(char::from_u32(hi * 16 + lo)?);
    }
    Some(out.into())
}

/// Encodes one ground term as a typed snapshot token, appended to `out`.
/// Floats are stored as their IEEE bit pattern so the round trip is exact.
fn term_token_into(out: &mut String, t: &Term) {
    match t {
        Term::Int(v) => {
            out.push_str("i:");
            push_int(out, *v);
        }
        Term::Float(v) => {
            out.push_str("f:");
            let bits = v.0.to_bits();
            for nibble in (0..16).rev() {
                let digit = (bits >> (4 * nibble)) as u32 & 0xf;
                out.push(char::from_digit(digit, 16).expect("a hex digit"));
            }
        }
        Term::Sym(s) => {
            out.push_str("s:");
            state_escape_into(out, s.as_str());
        }
        Term::Bool(v) => out.push_str(if *v { "b:1" } else { "b:0" }),
    }
}

/// Appends a decimal integer. A checkpoint writes two per fact and one per
/// integer term, on a worker's hot path; `write!`'s formatter costs more
/// than the digits do.
fn push_int(out: &mut String, v: i64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    let mut rest = v.unsigned_abs();
    loop {
        at -= 1;
        digits[at] = b'0' + (rest % 10) as u8;
        rest /= 10;
        if rest == 0 {
            break;
        }
    }
    if v < 0 {
        out.push('-');
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("ascii digits"));
}

/// Inverse of [`term_to_token`]; `None` on a malformed token.
fn token_to_term(tok: &str) -> Option<Term> {
    let (kind, rest) = tok.split_once(':')?;
    match kind {
        "i" => rest.parse().ok().map(Term::Int),
        "f" => u64::from_str_radix(rest, 16).ok().map(|bits| Term::float(f64::from_bits(bits))),
        "s" => state_unescape(rest).map(|s| Term::sym(&s)),
        "b" => match rest {
            "0" => Some(Term::Bool(false)),
            "1" => Some(Term::Bool(true)),
            _ => None,
        },
        _ => None,
    }
}

/// The per-query constants every stratum evaluation shares.
#[derive(Clone, Copy)]
struct Cycle {
    /// The window start (`q − WM`).
    start: Time,
    /// This query's generation in the retained tables.
    gen: u64,
    /// Whether every stratum re-derives from scratch this query.
    full_eval: bool,
}

/// Per-stratum evaluation result. The outputs themselves stay inside the
/// stratum's retained table; only the counters and the output change
/// frontier travel back to the query loop.
struct StratumOut {
    /// Whether rule bodies were actually (re-)solved (`strata_evaluated`).
    evaluated: bool,
    /// Groundings recomputed (`groundings_recomputed`).
    groundings: usize,
    /// The stratum's output change frontier: the earliest time at which its
    /// output differs from the previous window's (`TIME_MAX` = unchanged).
    frontier_out: Time,
    /// Groundings visited by interval-expression leaves (the solver counts
    /// its own candidates; expressions run inside its solution callback).
    expr_candidates: u64,
}

/// Min/max of the evidence times on one solution path. Every rule body has
/// at least one `happensAt` condition (validated at build), so the span is
/// never empty.
fn span_bounds(spans: &[Time]) -> (Time, Time) {
    let mut mn = TIME_MAX;
    let mut mx = TIME_MIN;
    for &t in spans {
        mn = mn.min(t);
        mx = mx.max(t);
    }
    debug_assert!(mn <= mx, "evidence span must be non-empty");
    (mn, mx)
}

fn head_time(time: crate::pattern::VarId, b: &Bindings) -> Time {
    b.get(time).and_then(term_time).expect("head time bound (validated at build)")
}

fn head_value(value: &ArgPat, b: &Bindings) -> Term {
    match value {
        ArgPat::Const(c) => c.clone(),
        ArgPat::Var(v) => b.get(*v).expect("head value bound").clone(),
        ArgPat::Any => unreachable!("validated at build"),
    }
}

/// Instantiates head arguments into a caller-provided buffer, so head
/// instantiation stays inside retained pools.
fn instantiate_args_into(pats: &[ArgPat], b: &Bindings, out: &mut Vec<Term>) {
    for p in pats {
        match p {
            ArgPat::Const(c) => out.push(c.clone()),
            ArgPat::Var(v) => {
                out.push(b.get(*v).expect("head var bound (validated at build)").clone())
            }
            ArgPat::Any => unreachable!("wildcards are rejected in heads at build time"),
        }
    }
}

/// Evaluates one stratum against its retained table and the stores holding
/// the inputs and every earlier stratum's output.
///
/// `frontier` is the stratum's evaluation frontier: everything strictly
/// below it is untouched by this query's delta, so cached derivations whose
/// evidence span lies inside the window and below it survive verbatim and
/// only derivations reaching at or beyond it are re-solved. `TIME_MAX` means
/// the stratum is clean; `TIME_MIN` forces a full re-solve.
fn eval_stratum(
    plan: &CompiledPlan,
    instr: &StratumInstr,
    frontier: Time,
    cycle: Cycle,
    ctx: CCtx<'_>,
    state: &mut StratumState,
) -> StratumOut {
    let Cycle { start, gen, full_eval } = cycle;
    match state {
        StratumState::Ev(t) => {
            // Survivors: derivations whose evidence span is entirely inside
            // the window and strictly below the change frontier.
            for i in 0..t.cur.len() {
                let d = t.cur[i];
                if d.span_min > start && d.span_max < frontier {
                    let off = t.pool_next.len() as u32;
                    let (a, z) = (d.off as usize, d.off as usize + d.len as usize);
                    t.pool_next.extend_from_slice(&t.pool_cur[a..z]);
                    t.next.push(CDeriv { off, ..d });
                }
            }
            let evaluated = frontier < TIME_MAX;
            if evaluated {
                for &ri in &instr.rules {
                    let rule = &plan.rules.ev_rules[ri as usize];
                    let (next, pool_next) = (&mut t.next, &mut t.pool_next);
                    solve_frontier_c(
                        ctx,
                        &plan.ev_bodies[ri as usize],
                        rule.n_vars,
                        frontier,
                        start,
                        &mut |b, spans| {
                            let off = pool_next.len() as u32;
                            instantiate_args_into(&rule.head.args, b, pool_next);
                            let len = (pool_next.len() - off as usize) as u16;
                            let (span_min, span_max) = span_bounds(spans);
                            let time = head_time(rule.time, b);
                            next.push(CDeriv { off, len, time, span_min, span_max });
                        },
                    );
                }
            }
            // Materialise the deduplicated event set and diff it against
            // the previous one for the output frontier.
            t.build_mat_next(start);
            let frontier_out = t.mat_divergence(start);
            t.swap_sides();
            StratumOut { evaluated, groundings: 0, frontier_out, expr_candidates: 0 }
        }
        StratumState::Sf(t) => {
            // Fresh initiation/termination points from the delta.
            let evaluated = frontier < TIME_MAX;
            if evaluated {
                for &ri in &instr.rules {
                    let rule = &plan.rules.sf_rules[ri as usize];
                    let init = matches!(rule.kind, SfKind::Initiated);
                    solve_frontier_c(
                        ctx,
                        &plan.sf_bodies[ri as usize],
                        rule.n_vars,
                        frontier,
                        start,
                        &mut |b, spans| {
                            let mut key = std::mem::take(&mut t.key_buf);
                            key.clear();
                            instantiate_args_into(&rule.head.args, b, &mut key);
                            let gid = t.lookup_or_insert(&key, &head_value(&rule.head.value, b));
                            t.key_buf = key;
                            t.gs[gid as usize].touch_gen = gen;
                            let (span_min, span_max) = span_bounds(spans);
                            let time = head_time(rule.time, b);
                            t.fresh.push((gid, CPoint { init, time, span_min, span_max }));
                        },
                    );
                }
            }
            t.fresh.sort_by_key(|&(gid, _)| gid);

            // Grounding universe: groundings live in the previous window
            // (cached points or an output carried by inertia) plus those
            // with fresh points, in key order.
            let mut f_out = TIME_MAX;
            let mut groundings = 0usize;
            let mut set_old = std::mem::take(&mut t.set_old);
            let mut set_new = std::mem::take(&mut t.set_new);
            let mut inits = std::mem::take(&mut t.inits);
            let mut terms = std::mem::take(&mut t.terms);
            let mut ivs = std::mem::take(&mut t.ivs);
            for oi in 0..t.order.len() {
                let gid = t.order[oi] as usize;
                let lo = t.fresh.partition_point(|&(g2, _)| (g2 as usize) < gid);
                let hi = t.fresh.partition_point(|&(g2, _)| (g2 as usize) <= gid);
                let touched = hi > lo;
                let g = &mut t.gs[gid];
                let prev_valid = g.data_gen + 1 == gen;
                if !prev_valid && !touched {
                    continue;
                }
                if !prev_valid {
                    // Points and output predate the previous window: the
                    // grounding re-enters the universe empty.
                    g.pts.clear();
                    g.out = IntervalList::empty();
                }
                // `points_into` has set semantics, so compare the in-window
                // point sets to decide whether the grounding changed at all.
                set_old.clear();
                set_old.extend(g.pts.iter().filter(|p| p.time > start).map(|p| (p.time, p.init)));
                set_old.sort_unstable();
                set_old.dedup();
                g.pts.retain(|p| p.span_min > start && p.span_max < frontier);
                g.pts.extend(t.fresh[lo..hi].iter().map(|&(_, p)| p));
                set_new.clear();
                set_new.extend(g.pts.iter().map(|p| (p.time, p.init)));
                set_new.sort_unstable();
                set_new.dedup();

                if set_old == set_new && !full_eval {
                    // Unchanged in-window points: the previous intervals
                    // clipped to the new window start are exactly what a
                    // recompute would produce.
                    g.out = g.out.after(start);
                } else {
                    let initially = g.out.contains(start);
                    if !set_new.is_empty() || initially {
                        groundings += 1;
                    }
                    inits.clear();
                    terms.clear();
                    for &(pt, init) in &set_new {
                        if init {
                            inits.push(pt);
                        } else {
                            terms.push(pt);
                        }
                    }
                    crate::interval::points_into(
                        &mut inits, &mut terms, initially, start, &mut ivs,
                    );
                    if let Some(d) =
                        crate::interval::first_divergence_clamped(g.out.as_slice(), start, &ivs)
                    {
                        f_out = f_out.min(d);
                    }
                    if ivs.as_slice() != g.out.as_slice() {
                        g.out = IntervalList::from_normalised(&ivs);
                    }
                }
                if !g.pts.is_empty() || !g.out.is_empty() {
                    g.data_gen = gen;
                }
            }
            t.set_old = set_old;
            t.set_new = set_new;
            t.inits = inits;
            t.terms = terms;
            t.ivs = ivs;
            t.fresh.clear();
            t.maybe_compact(gen);
            StratumOut { evaluated, groundings, frontier_out: f_out, expr_candidates: 0 }
        }
        StratumState::St(t) => {
            if frontier == TIME_MAX && instr.static_pure {
                // Clean dependencies and a pure relation/guard domain: every
                // grounding's interval expression distributes over the
                // window clip, so the previous result clamped to the new
                // start is exact.
                for oi in 0..t.order.len() {
                    let g = &mut t.gs[t.order[oi] as usize];
                    if g.data_gen + 1 != gen || g.out.is_empty() {
                        continue;
                    }
                    g.out = g.out.after(start);
                    if !g.out.is_empty() {
                        g.data_gen = gen;
                    }
                }
                return StratumOut {
                    evaluated: false,
                    groundings: 0,
                    frontier_out: TIME_MAX,
                    expr_candidates: 0,
                };
            }
            // Statics never delta-bound: expiry can shrink event-driven
            // domains silently, so the domain is always solved in full.
            let mut expr_trail = std::mem::take(&mut t.expr_trail);
            let mut ranges = std::mem::take(&mut t.ranges);
            let mut arena = std::mem::take(&mut t.arena);
            let mut expr_candidates = 0u64;
            for &ri in &instr.rules {
                let rule = &plan.rules.static_rules[ri as usize];
                let body = &plan.static_bodies[ri as usize];
                solve_domain_c(ctx, &body.domain, rule.n_vars, &mut |b, _spans| {
                    let mark = arena.mark();
                    let r = eval_interval_expr_into(
                        &body.expr,
                        b,
                        &mut expr_trail,
                        ctx.fluents,
                        &mut arena,
                        &mut ranges,
                        &mut expr_candidates,
                    );
                    if !r.is_empty() {
                        let mut key = std::mem::take(&mut t.key_buf);
                        key.clear();
                        instantiate_args_into(&rule.head.args, b, &mut key);
                        let gid = t.lookup_or_insert(&key, &head_value(&rule.head.value, b));
                        t.key_buf = key;
                        let g = &mut t.gs[gid as usize];
                        if g.acc_gen != gen {
                            g.acc.clear();
                            g.acc_gen = gen;
                        }
                        // Accumulating + renormalising is the per-grounding
                        // union across rules and domain solutions.
                        g.acc.extend_from_slice(arena.slice(r));
                        crate::interval::normalise_in_place(&mut g.acc);
                    }
                    arena.truncate(mark);
                });
            }
            t.expr_trail = expr_trail;
            t.ranges = ranges;
            t.arena = arena;

            let mut groundings = 0usize;
            let mut f_out = TIME_MAX;
            for oi in 0..t.order.len() {
                let g = &mut t.gs[t.order[oi] as usize];
                if g.data_gen + 1 != gen {
                    g.out = IntervalList::empty();
                }
                if g.acc_gen != gen {
                    // Not in this window's computed domain.
                    g.acc.clear();
                } else {
                    groundings += 1;
                }
                if let Some(d) =
                    crate::interval::first_divergence_clamped(g.out.as_slice(), start, &g.acc)
                {
                    f_out = f_out.min(d);
                }
                if g.acc.as_slice() != g.out.as_slice() {
                    g.out = IntervalList::from_normalised(&g.acc);
                }
                if g.acc_gen == gen {
                    g.data_gen = gen;
                }
            }
            StratumOut { evaluated: true, groundings, frontier_out: f_out, expr_candidates }
        }
    }
}

/// Publishes one evaluated stratum's outputs downstream: materialised events
/// into the query result and — only those at or behind `frontier_out`, the
/// rest is in the slot already — into the event store, current-generation
/// non-empty fluent groundings into the dense fluent store and the
/// recognition output. Returns the number of events written to the store.
#[allow(clippy::too_many_arguments)]
fn publish_stratum(
    instr: &StratumInstr,
    state: &StratumState,
    cycle: Cycle,
    frontier_out: Time,
    events: &mut CEventStore,
    cfluents: &mut CFluentStore,
    fluents_out: &mut FluentStore,
    derived_events: &mut Vec<Event>,
) -> u64 {
    let mut published = 0usize;
    let mut publish_fluent = |args: &[Term], value: &Term, ivs: &IntervalList| {
        cfluents.insert_entry(instr.slot, args, value, ivs);
        fluents_out.by_name.entry(instr.symbol).or_default().push(FluentEntry {
            args: args.to_vec(),
            value: value.clone(),
            ivs: ivs.clone(),
        });
        published += 1;
    };
    match state {
        StratumState::Ev(t) => {
            derived_events.extend(t.mat_cur.iter().map(|m| Event {
                kind: instr.symbol,
                args: t.cur_args(m.off, m.len).to_vec(),
                time: m.time,
            }));
            // `mat_divergence` found the slot's content (the previous
            // materialisation) and this one equal below `frontier_out`.
            let tail = &t.mat_cur[t.mat_cur.partition_point(|m| m.time < frontier_out)..];
            return events.replace_tail(
                instr.slot,
                cycle.start,
                frontier_out,
                tail.iter().map(|m| (m.time, t.cur_args(m.off, m.len))),
            );
        }
        StratumState::Sf(t) => {
            for g in t.order.iter().map(|&gid| &t.gs[gid as usize]) {
                if g.data_gen == cycle.gen && !g.out.is_empty() {
                    publish_fluent(t.key_args(g), &g.value, &g.out);
                }
            }
        }
        StratumState::St(t) => {
            for g in t.order.iter().map(|&gid| &t.gs[gid as usize]) {
                if g.data_gen == cycle.gen && !g.out.is_empty() {
                    publish_fluent(t.key_args(g), &g.value, &g.out);
                }
            }
        }
    }
    if published > 0 {
        cfluents.finish_slot(instr.slot);
    }
    0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsl::*;
    use crate::rule::{CmpOp, IntervalExpr, NumExpr, ValRef};

    fn on_off_ruleset() -> RuleSet {
        let mut b = RuleSetBuilder::new();
        b.declare_event("switch_on", 1).declare_event("switch_off", 1);
        let dev = b.var("Dev");
        let t1 = b.var("T1");
        b.initiated(
            fluent("on", [pat(dev)], val(true)),
            t1,
            [happens(event_pat("switch_on", [pat(dev)]), t1)],
        );
        let t2 = b.var("T2");
        b.terminated(
            fluent("on", [pat(dev)], val(true)),
            t2,
            [happens(event_pat("switch_off", [pat(dev)]), t2)],
        );
        b.build().unwrap()
    }

    /// Several mutually independent fluents (each driven by its own input
    /// events) plus a derived event reading one of them.
    fn multi_strata_ruleset() -> RuleSet {
        let mut b = RuleSetBuilder::new();
        for name in ["on", "hot", "busy"] {
            let on_ev = format!("{name}_set");
            let off_ev = format!("{name}_clear");
            b.declare_event(&on_ev, 1).declare_event(&off_ev, 1);
            let dev = b.var(&format!("Dev_{name}"));
            let t1 = b.var(&format!("T1_{name}"));
            b.initiated(
                fluent(name, [pat(dev)], val(true)),
                t1,
                [happens(event_pat(&on_ev, [pat(dev)]), t1)],
            );
            let t2 = b.var(&format!("T2_{name}"));
            b.terminated(
                fluent(name, [pat(dev)], val(true)),
                t2,
                [happens(event_pat(&off_ev, [pat(dev)]), t2)],
            );
        }
        b.declare_event("check", 1);
        let dev = b.var("DevA");
        let t = b.var("TA");
        b.derived_event(
            event_head("alert", [pat(dev)]),
            t,
            [
                happens(event_pat("check", [pat(dev)]), t),
                holds(fluent_pat("on", [pat(dev)], val(true)), t),
            ],
        );
        b.build().unwrap()
    }

    fn canonical(rec: &Recognition) -> Vec<String> {
        let mut out: Vec<String> = rec.derived_events.iter().map(|e| format!("ev {e:?}")).collect();
        let mut names: Vec<Symbol> = rec.fluent_store().names().collect();
        names.sort();
        for name in names {
            for e in rec.fluent_store().entries(name) {
                out.push(format!("fl {name:?} {:?} {:?} {:?}", e.args, e.value, e.ivs));
            }
        }
        out.sort();
        out
    }

    #[test]
    fn basic_inertia() {
        let mut e = Engine::new(on_off_ruleset(), WindowConfig::new(100, 100).unwrap());
        e.add_event(Event::new("switch_on", [Term::sym("lamp")], 10)).unwrap();
        e.add_event(Event::new("switch_off", [Term::sym("lamp")], 40)).unwrap();
        e.add_event(Event::new("switch_on", [Term::sym("lamp")], 70)).unwrap();
        let rec = e.query(100).unwrap();
        let ivs = rec.intervals_of("on", &[Term::sym("lamp")], &Term::truth()).unwrap();
        assert_eq!(
            ivs.as_slice(),
            &[crate::interval::Interval::span(10, 40), crate::interval::Interval::open_from(70)]
        );
        assert_eq!(rec.sde_count, 3);
    }

    #[test]
    fn per_entity_groundings_are_independent() {
        let mut e = Engine::new(on_off_ruleset(), WindowConfig::new(100, 100).unwrap());
        e.add_event(Event::new("switch_on", [Term::sym("a")], 10)).unwrap();
        e.add_event(Event::new("switch_on", [Term::sym("b")], 20)).unwrap();
        e.add_event(Event::new("switch_off", [Term::sym("a")], 30)).unwrap();
        let rec = e.query(100).unwrap();
        assert!(rec.holds_at("on", &[Term::sym("b")], &Term::truth(), 50));
        assert!(!rec.holds_at("on", &[Term::sym("a")], &Term::truth(), 50));
    }

    #[test]
    fn inertia_carries_across_windows() {
        let mut e = Engine::new(on_off_ruleset(), WindowConfig::new(100, 100).unwrap());
        e.add_event(Event::new("switch_on", [Term::sym("lamp")], 10)).unwrap();
        let _ = e.query(100).unwrap();
        // No new events; fluent must still hold in the next window.
        let rec = e.query(200).unwrap();
        assert!(rec.holds_at("on", &[Term::sym("lamp")], &Term::truth(), 150));
        // Terminate in a third window.
        e.add_event(Event::new("switch_off", [Term::sym("lamp")], 250)).unwrap();
        let rec = e.query(300).unwrap();
        let ivs = rec.intervals_of("on", &[Term::sym("lamp")], &Term::truth()).unwrap();
        assert_eq!(ivs.as_slice(), &[crate::interval::Interval::span(200, 250)]);
    }

    #[test]
    fn late_events_are_amended_when_wm_exceeds_step() {
        // WM 100, step 50: an event occurring at 120 that arrives at 160
        // is missed by the query at 150 but amended at 200.
        let mut e = Engine::new(on_off_ruleset(), WindowConfig::new(100, 50).unwrap());
        e.add_stamped_event(Stamped::arriving_at(
            Event::new("switch_on", [Term::sym("lamp")], 120),
            160,
        ))
        .unwrap();
        let rec = e.query(150).unwrap();
        assert!(rec.intervals_of("on", &[Term::sym("lamp")], &Term::truth()).is_none());
        let rec = e.query(200).unwrap();
        let ivs = rec.intervals_of("on", &[Term::sym("lamp")], &Term::truth()).unwrap();
        assert_eq!(ivs.as_slice(), &[crate::interval::Interval::open_from(120)]);
    }

    #[test]
    fn events_older_than_window_are_lost() {
        let mut e = Engine::new(on_off_ruleset(), WindowConfig::new(100, 100).unwrap());
        // Arrives far too late: occurrence 50, arrival 250. At query 200 it
        // is not visible (not arrived); at query 300 its occurrence is
        // outside (200, 300].
        e.add_stamped_event(Stamped::arriving_at(
            Event::new("switch_on", [Term::sym("lamp")], 50),
            250,
        ))
        .unwrap();
        assert!(e.query(200).unwrap().fluent_entries("on").is_empty());
        assert!(e.query(300).unwrap().fluent_entries("on").is_empty());
    }

    #[test]
    fn non_monotonic_queries_rejected() {
        let mut e = Engine::new(on_off_ruleset(), WindowConfig::new(100, 100).unwrap());
        e.query(100).unwrap();
        assert!(matches!(e.query(100), Err(RtecError::NonMonotonicQuery { .. })));
        assert!(matches!(e.query(50), Err(RtecError::NonMonotonicQuery { .. })));
    }

    #[test]
    fn undeclared_inputs_rejected() {
        let mut e = Engine::new(on_off_ruleset(), WindowConfig::new(100, 100).unwrap());
        assert!(e.add_event(Event::new("bogus", [Term::int(1)], 5)).is_err());
        assert!(e.add_event(Event::new("switch_on", [Term::int(1), Term::int(2)], 5)).is_err());
    }

    fn delay_increase_ruleset() -> RuleSet {
        // The paper's delayIncrease CE: two move events of the same bus less
        // than t=60 apart whose delay grows by more than d=300.
        let mut b = RuleSetBuilder::new();
        b.declare_event("move", 2); // (Bus, Delay) — simplified for the test
        let bus = b.var("Bus");
        let d1 = b.var("D1");
        let d2 = b.var("D2");
        let t1 = b.var("T1");
        let t2 = b.var("T2");
        b.derived_event(
            event_head("delayIncrease", [pat(bus)]),
            t2,
            [
                happens(event_pat("move", [pat(bus), pat(d1)]), t1),
                happens(event_pat("move", [pat(bus), pat(d2)]), t2),
                guard(cmp(NumExpr::sub(d2.into(), d1.into()), CmpOp::Gt, 300.0)),
                guard(cmp(NumExpr::sub(t2.into(), t1.into()), CmpOp::Gt, 0.0)),
                guard(cmp(NumExpr::sub(t2.into(), t1.into()), CmpOp::Lt, 60.0)),
            ],
        );
        b.build().unwrap()
    }

    #[test]
    fn derived_events_join_over_pairs() {
        let mut e = Engine::new(delay_increase_ruleset(), WindowConfig::new(1000, 1000).unwrap());
        e.add_event(Event::new("move", [Term::int(1), Term::int(100)], 10)).unwrap();
        e.add_event(Event::new("move", [Term::int(1), Term::int(500)], 40)).unwrap(); // +400 in 30s
        e.add_event(Event::new("move", [Term::int(2), Term::int(100)], 10)).unwrap();
        e.add_event(Event::new("move", [Term::int(2), Term::int(150)], 40)).unwrap(); // small increase
        e.add_event(Event::new("move", [Term::int(3), Term::int(0)], 10)).unwrap();
        e.add_event(Event::new("move", [Term::int(3), Term::int(900)], 400)).unwrap(); // too far apart
        let rec = e.query(1000).unwrap();
        let des = rec.events_of("delayIncrease");
        assert_eq!(des.len(), 1);
        assert_eq!(des[0].args, vec![Term::int(1)]);
        assert_eq!(des[0].time, 40);
    }

    #[test]
    fn derived_event_feeds_fluent() {
        // alarm fluent goes up when delayIncrease occurs.
        let mut b = RuleSetBuilder::new();
        b.declare_event("move", 2);
        let bus = b.var("Bus");
        let d1 = b.var("D1");
        let d2 = b.var("D2");
        let t1 = b.var("T1");
        let t2 = b.var("T2");
        b.derived_event(
            event_head("delayIncrease", [pat(bus)]),
            t2,
            [
                happens(event_pat("move", [pat(bus), pat(d1)]), t1),
                happens(event_pat("move", [pat(bus), pat(d2)]), t2),
                guard(cmp(NumExpr::sub(d2.into(), d1.into()), CmpOp::Gt, 300.0)),
                guard(cmp(NumExpr::sub(t2.into(), t1.into()), CmpOp::Gt, 0.0)),
            ],
        );
        let t3 = b.var("T3");
        b.initiated(
            fluent("alarm", [pat(bus)], val(true)),
            t3,
            [happens(event_pat("delayIncrease", [pat(bus)]), t3)],
        );
        let rs = b.build().unwrap();

        let mut e = Engine::new(rs, WindowConfig::new(1000, 1000).unwrap());
        e.add_event(Event::new("move", [Term::int(1), Term::int(0)], 10)).unwrap();
        e.add_event(Event::new("move", [Term::int(1), Term::int(400)], 30)).unwrap();
        let rec = e.query(1000).unwrap();
        assert!(rec.holds_at("alarm", &[Term::int(1)], &Term::truth(), 500));
    }

    #[test]
    fn input_fluent_conditions() {
        // congested location from gps observations co-timed with move events.
        let mut b = RuleSetBuilder::new();
        b.declare_event("move", 1);
        b.declare_input_fluent("gps", 2); // (Bus, Congestion)
        let bus = b.var("Bus");
        let t = b.var("T");
        b.initiated(
            fluent("busCong", [pat(bus)], val(true)),
            t,
            [
                happens(event_pat("move", [pat(bus)]), t),
                holds(fluent_pat("gps", [pat(bus), cnst(1i64)], val(true)), t),
            ],
        );
        let t2 = b.var("T2");
        b.terminated(
            fluent("busCong", [pat(bus)], val(true)),
            t2,
            [
                happens(event_pat("move", [pat(bus)]), t2),
                holds(fluent_pat("gps", [pat(bus), cnst(0i64)], val(true)), t2),
            ],
        );
        let rs = b.build().unwrap();
        let mut e = Engine::new(rs, WindowConfig::new(1000, 1000).unwrap());
        e.add_event(Event::new("move", [Term::int(7)], 10)).unwrap();
        e.add_obs(FluentObs::new("gps", [Term::int(7), Term::int(1)], true, 10)).unwrap();
        e.add_event(Event::new("move", [Term::int(7)], 50)).unwrap();
        e.add_obs(FluentObs::new("gps", [Term::int(7), Term::int(0)], true, 50)).unwrap();
        let rec = e.query(1000).unwrap();
        let ivs = rec.intervals_of("busCong", &[Term::int(7)], &Term::truth()).unwrap();
        assert_eq!(ivs.as_slice(), &[crate::interval::Interval::span(10, 50)]);
    }

    #[test]
    fn negation_as_failure() {
        let mut b = RuleSetBuilder::new();
        b.declare_event("ping", 1);
        b.declare_event("mute", 1);
        b.declare_event("unmute", 1);
        let x = b.var("X");
        let t = b.var("T");
        b.initiated(
            fluent("muted", [pat(x)], val(true)),
            t,
            [happens(event_pat("mute", [pat(x)]), t)],
        );
        let tu = b.var("TU");
        b.terminated(
            fluent("muted", [pat(x)], val(true)),
            tu,
            [happens(event_pat("unmute", [pat(x)]), tu)],
        );
        let t2 = b.var("T2");
        b.derived_event(
            event_head("audiblePing", [pat(x)]),
            t2,
            [
                happens(event_pat("ping", [pat(x)]), t2),
                not_holds(fluent_pat("muted", [pat(x)], val(true)), t2),
            ],
        );
        let rs = b.build().unwrap();
        let mut e = Engine::new(rs, WindowConfig::new(1000, 1000).unwrap());
        e.add_event(Event::new("mute", [Term::int(1)], 20)).unwrap();
        e.add_event(Event::new("ping", [Term::int(1)], 10)).unwrap(); // before mute -> audible
        e.add_event(Event::new("ping", [Term::int(1)], 30)).unwrap(); // muted
        e.add_event(Event::new("unmute", [Term::int(1)], 40)).unwrap();
        e.add_event(Event::new("ping", [Term::int(1)], 50)).unwrap(); // audible again
        let rec = e.query(1000).unwrap();
        let times: Vec<Time> = rec.events_of("audiblePing").iter().map(|e| e.time).collect();
        assert_eq!(times, vec![10, 50]);
    }

    #[test]
    fn static_fluent_relative_complement() {
        // disagreement(X) = a(X) \ b(X), domain from relation `ids`.
        let mut b = RuleSetBuilder::new();
        b.declare_event("startA", 1);
        b.declare_event("stopA", 1);
        b.declare_event("startB", 1);
        b.declare_event("stopB", 1);
        b.declare_relation("ids", 1);
        let x = b.var("X");
        for (fl, on, off) in [("a", "startA", "stopA"), ("b", "startB", "stopB")] {
            let t1 = b.var(&format!("Ti_{fl}"));
            b.initiated(
                fluent(fl, [pat(x)], val(true)),
                t1,
                [happens(event_pat(on, [pat(x)]), t1)],
            );
            let t2 = b.var(&format!("Tt_{fl}"));
            b.terminated(
                fluent(fl, [pat(x)], val(true)),
                t2,
                [happens(event_pat(off, [pat(x)]), t2)],
            );
        }
        b.static_fluent(
            fluent("disagreement", [pat(x)], val(true)),
            [relation("ids", [pat(x)])],
            IntervalExpr::RelComp(
                Box::new(IntervalExpr::Fluent(fluent_pat("a", [pat(x)], val(true)))),
                vec![IntervalExpr::Fluent(fluent_pat("b", [pat(x)], val(true)))],
            ),
        );
        let rs = b.build().unwrap();
        let mut e = Engine::new(rs, WindowConfig::new(1000, 1000).unwrap());
        e.set_relation("ids", vec![vec![Term::int(1)]]).unwrap();
        // Note: the window at query 1000 is (0, 1000], so time 0 would be
        // excluded; start at 5.
        e.add_event(Event::new("startA", [Term::int(1)], 5)).unwrap();
        e.add_event(Event::new("stopA", [Term::int(1)], 100)).unwrap();
        e.add_event(Event::new("startB", [Term::int(1)], 30)).unwrap();
        e.add_event(Event::new("stopB", [Term::int(1)], 60)).unwrap();
        let rec = e.query(1000).unwrap();
        let ivs = rec.intervals_of("disagreement", &[Term::int(1)], &Term::truth()).unwrap();
        assert_eq!(
            ivs.as_slice(),
            &[crate::interval::Interval::span(5, 30), crate::interval::Interval::span(60, 100)]
        );
    }

    #[test]
    fn builtins_and_relations() {
        let mut b = RuleSetBuilder::new();
        b.declare_event("at", 2); // (Bus, Pos)
        b.declare_relation("poi", 1); // points of interest
        b.declare_builtin("near", 2);
        let bus = b.var("Bus");
        let p = b.var("P");
        let q = b.var("Q");
        let t = b.var("T");
        b.derived_event(
            event_head("visit", [pat(bus), pat(q)]),
            t,
            [
                happens(event_pat("at", [pat(bus), pat(p)]), t),
                relation("poi", [pat(q)]),
                builtin("near", [ValRef::Var(p), ValRef::Var(q)]),
            ],
        );
        let rs = b.build().unwrap();
        let mut e = Engine::new(rs, WindowConfig::new(1000, 1000).unwrap());
        e.set_relation("poi", vec![vec![Term::int(100)], vec![Term::int(500)]]).unwrap();
        e.register_builtin("near", |args: &[Term]| match (args[0].as_f64(), args[1].as_f64()) {
            (Some(a), Some(b)) => (a - b).abs() <= 10.0,
            _ => false,
        })
        .unwrap();
        e.add_event(Event::new("at", [Term::int(1), Term::int(95)], 10)).unwrap();
        e.add_event(Event::new("at", [Term::int(1), Term::int(300)], 20)).unwrap();
        let rec = e.query(1000).unwrap();
        let vs = rec.events_of("visit");
        assert_eq!(vs.len(), 1);
        assert_eq!(vs[0].args, vec![Term::int(1), Term::int(100)]);
    }

    /// A relation that is declared but never set is empty: the joins over it
    /// yield nothing, whichever access path the plan picked for them — and
    /// setting it later is picked up by the next query.
    #[test]
    fn a_declared_but_unset_relation_is_empty_under_every_access_path() {
        use crate::planner::Access;
        let mut b = RuleSetBuilder::new();
        b.declare_event("at", 2).declare_relation("site", 2);
        let (id, p, s, t) = (b.var("Id"), b.var("P"), b.var("S"), b.var("T"));
        // Equality probe on the bound second column.
        b.derived_event(
            event_head("onSite", [pat(id), pat(s)]),
            t,
            [happens(event_pat("at", [pat(id), pat(p)]), t), relation("site", [pat(s), pat(p)])],
        );
        // Guard-derived band on the first column.
        b.derived_event(
            event_head("nearSite", [pat(id), pat(s)]),
            t,
            [
                happens(event_pat("at", [pat(id), pat(p)]), t),
                relation("site", [pat(s), any()]),
                guard(cmp(
                    NumExpr::Abs(Box::new(NumExpr::sub(s.into(), p.into()))),
                    CmpOp::Le,
                    5.0,
                )),
            ],
        );
        // A plain scan.
        b.derived_event(
            event_head("anySite", [pat(id), pat(s)]),
            t,
            [happens(event_pat("at", [pat(id), pat(p)]), t), relation("site", [pat(s), any()])],
        );
        let mut e = Engine::new(b.build().unwrap(), WindowConfig::new(100, 100).unwrap());
        let paths: Vec<Access> = (e.plan().ev_bodies.iter())
            .map(|body| match body.full[1] {
                crate::compile::CAtom::Relation { access, .. } => access,
                _ => panic!("relation atom expected"),
            })
            .collect();
        assert!(matches!(
            paths[..],
            [Access::Column { col: 1, .. }, Access::Range { .. }, Access::Scan]
        ));

        e.add_event(Event::new("at", [Term::int(1), Term::int(10)], 10)).unwrap();
        let rec = e.query(100).unwrap();
        for ce in ["onSite", "nearSite", "anySite"] {
            assert!(rec.events_of(ce).is_empty(), "{ce} over an unset relation");
        }

        e.set_relation("site", vec![vec![Term::int(12), Term::int(10)]]).unwrap();
        e.add_event(Event::new("at", [Term::int(2), Term::int(10)], 110)).unwrap();
        let rec = e.query(200).unwrap();
        for ce in ["onSite", "nearSite", "anySite"] {
            assert_eq!(rec.events_of(ce).len(), 1, "{ce} once the relation is set");
        }
    }

    #[test]
    fn missing_builtin_registration_is_an_error() {
        let mut b = RuleSetBuilder::new();
        b.declare_event("e", 1);
        b.declare_builtin("f", 1);
        let x = b.var("X");
        let t = b.var("T");
        b.derived_event(
            event_head("d", [pat(x)]),
            t,
            [happens(event_pat("e", [pat(x)]), t), builtin("f", [ValRef::Var(x)])],
        );
        let rs = b.build().unwrap();
        let mut e = Engine::new(rs, WindowConfig::new(100, 100).unwrap());
        assert!(matches!(e.query(100), Err(RtecError::UnknownBuiltin { .. })));
    }

    #[test]
    fn compound_guards_or_not_abs_mul() {
        // alarm(X) when |X·2| is in [4, 10] OR X == 0, and NOT X == 3.
        let mut b = RuleSetBuilder::new();
        b.declare_event("tick", 1);
        let x = b.var("X");
        let t = b.var("T");
        use crate::rule::{CmpOp, GuardExpr, NumExpr};
        let double_abs = NumExpr::Abs(Box::new(NumExpr::Mul(
            Box::new(NumExpr::Var(x)),
            Box::new(NumExpr::Const(2.0)),
        )));
        b.derived_event(
            event_head("alarm", [pat(x)]),
            t,
            [
                happens(event_pat("tick", [pat(x)]), t),
                guard(GuardExpr::Or(vec![
                    GuardExpr::And(vec![
                        cmp(double_abs.clone(), CmpOp::Ge, 4.0),
                        cmp(double_abs, CmpOp::Le, 10.0),
                    ]),
                    term_eq(x, Term::int(0)),
                ])),
                guard(GuardExpr::Not(Box::new(term_eq(x, Term::int(3))))),
            ],
        );
        let rs = b.build().unwrap();
        let mut e = Engine::new(rs, WindowConfig::new(100, 100).unwrap());
        for (t, v) in [(1, -4i64), (2, 0), (3, 1), (4, 3), (5, 5)] {
            e.add_event(Event::new("tick", [Term::int(v)], t)).unwrap();
        }
        let rec = e.query(100).unwrap();
        let fired: Vec<i64> =
            rec.events_of("alarm").iter().map(|e| e.args[0].as_i64().unwrap()).collect();
        // -4: |−8| not in [4,10]? |−8|=8 ∈ [4,10] ✓; 0: second disjunct ✓;
        // 1: |2| < 4 ✗; 3: |6| ∈ [4,10] but excluded by Not ✗; 5: |10| ✓.
        assert_eq!(fired, vec![-4, 0, 5]);
    }

    #[test]
    fn static_fluent_empty_when_leaves_empty() {
        let mut b = RuleSetBuilder::new();
        b.declare_event("e", 0);
        b.declare_relation("dom", 1);
        let t = b.var("T");
        b.initiated(fluent("base", [], val(true)), t, [happens(event_pat("e", []), t)]);
        let x = b.var("X");
        b.static_fluent(
            fluent("derived", [pat(x)], val(true)),
            [relation("dom", [pat(x)])],
            crate::rule::IntervalExpr::Intersect(vec![crate::rule::IntervalExpr::Fluent(
                fluent_pat("base", [], val(true)),
            )]),
        );
        let rs = b.build().unwrap();
        let mut e = Engine::new(rs, WindowConfig::new(100, 100).unwrap());
        e.set_relation("dom", vec![vec![Term::int(1)]]).unwrap();
        // No events at all: base never holds, derived entries absent.
        let rec = e.query(100).unwrap();
        assert!(rec.fluent_entries("derived").is_empty());
        assert!(rec.fluent_entries("base").is_empty());
    }

    #[test]
    fn initially_seeds_inertia() {
        let mut e = Engine::new(on_off_ruleset(), WindowConfig::new(100, 100).unwrap());
        e.set_initially("on", vec![Term::sym("boiler")], Term::truth()).unwrap();
        e.add_event(Event::new("switch_off", [Term::sym("boiler")], 40)).unwrap();
        let rec = e.query(100).unwrap();
        let ivs = rec.intervals_of("on", &[Term::sym("boiler")], &Term::truth()).unwrap();
        // Held from the window start until the switch_off.
        assert_eq!(ivs.as_slice(), &[crate::interval::Interval::span(0, 40)]);
        // And persists across further windows when re-initiated never.
        let rec = e.query(200).unwrap();
        assert!(rec.intervals_of("on", &[Term::sym("boiler")], &Term::truth()).is_none());
    }

    #[test]
    fn initially_validation() {
        let mut e = Engine::new(on_off_ruleset(), WindowConfig::new(100, 100).unwrap());
        assert!(matches!(
            e.set_initially("ghost", vec![], Term::truth()),
            Err(RtecError::Undeclared { .. })
        ));
        e.query(100).unwrap();
        assert!(e.set_initially("on", vec![Term::sym("x")], Term::truth()).is_err());
    }

    #[test]
    fn recognition_stats_count() {
        let mut e = Engine::new(on_off_ruleset(), WindowConfig::new(100, 100).unwrap());
        e.add_event(Event::new("switch_on", [Term::sym("a")], 10)).unwrap();
        e.add_event(Event::new("switch_off", [Term::sym("a")], 20)).unwrap();
        e.add_event(Event::new("switch_on", [Term::sym("a")], 30)).unwrap();
        e.add_event(Event::new("switch_on", [Term::sym("b")], 15)).unwrap();
        let rec = e.query(100).unwrap();
        let stats = rec.stats();
        assert_eq!(stats.derived_events, 0);
        assert_eq!(stats.fluent_groundings, 2);
        assert_eq!(stats.intervals, 3);
    }

    #[test]
    fn fluent_value_can_be_variable() {
        // Track levels: level(X)=V initiated by set(X, V).
        let mut b = RuleSetBuilder::new();
        b.declare_event("set", 2);
        let x = b.var("X");
        let v = b.var("V");
        let t = b.var("T");
        b.initiated(
            fluent("level", [pat(x)], pat(v)),
            t,
            [happens(event_pat("set", [pat(x), pat(v)]), t)],
        );
        let t2 = b.var("T2");
        let v2 = b.var("V2");
        // any new set terminates every previous value
        b.terminated(
            fluent("level", [pat(x)], pat(v)),
            t2,
            [
                happens(event_pat("set", [pat(x), pat(v2)]), t2),
                holds(fluent_pat("levelSeen", [pat(x)], pat(v)), t2),
            ],
        );
        // helper simple fluent marking values ever set (never terminated)
        let t3 = b.var("T3");
        let v3 = b.var("V3");
        b.initiated(
            fluent("levelSeen", [pat(x)], pat(v3)),
            t3,
            [happens(event_pat("set", [pat(x), pat(v3)]), t3)],
        );
        let rs = b.build().unwrap();
        let mut e = Engine::new(rs, WindowConfig::new(1000, 1000).unwrap());
        e.add_event(Event::new("set", [Term::int(1), Term::int(5)], 10)).unwrap();
        e.add_event(Event::new("set", [Term::int(1), Term::int(9)], 50)).unwrap();
        let rec = e.query(1000).unwrap();
        let l5 = rec.intervals_of("level", &[Term::int(1)], &Term::int(5)).unwrap();
        assert_eq!(l5.as_slice(), &[crate::interval::Interval::span(10, 50)]);
        let l9 = rec.intervals_of("level", &[Term::int(1)], &Term::int(9)).unwrap();
        assert_eq!(l9.as_slice(), &[crate::interval::Interval::open_from(50)]);
    }

    #[test]
    fn initially_after_first_query_reports_start_time() {
        let mut e = Engine::new(on_off_ruleset(), WindowConfig::new(100, 100).unwrap());
        e.query(100).unwrap();
        let err = e.set_initially("on", vec![Term::sym("x")], Term::truth()).unwrap_err();
        assert_eq!(err, RtecError::EngineAlreadyStarted { first_query: 100 });
        assert_eq!(
            err.to_string(),
            "operation must precede the first query (recognition started at 100)"
        );
    }

    #[test]
    fn no_delta_tick_reuses_all_cached_results() {
        let mut e = Engine::new(on_off_ruleset(), WindowConfig::new(100, 50).unwrap());
        e.add_event(Event::new("switch_on", [Term::sym("lamp")], 10)).unwrap();
        let rec = e.query(100).unwrap();
        assert!(rec.timing.strata_evaluated > 0);
        // Second query: the one buffered event was already seen and nothing
        // new arrived, so no stratum is re-solved and no grounding rebuilt.
        let rec = e.query(150).unwrap();
        assert_eq!(rec.timing.strata_evaluated, 0);
        assert_eq!(rec.timing.groundings_recomputed, 0);
        assert!(rec.holds_at("on", &[Term::sym("lamp")], &Term::truth(), 120));
    }

    #[test]
    fn amendment_at_window_start_forces_full_recompute() {
        let mut e = Engine::new(on_off_ruleset(), WindowConfig::new(100, 50).unwrap());
        e.add_event(Event::new("switch_on", [Term::sym("lamp")], 60)).unwrap();
        e.query(100).unwrap();
        // A late event lands at the earliest still-visible time of the next
        // window (just above its start at 50): the frontier drops below all
        // cached evidence, so the affected stratum recomputes its grounding.
        e.add_stamped_event(Stamped::arriving_at(
            Event::new("switch_off", [Term::sym("lamp")], 51),
            140,
        ))
        .unwrap();
        let rec = e.query(150).unwrap();
        assert_eq!(rec.timing.strata_evaluated, 1);
        assert_eq!(rec.timing.groundings_recomputed, 1);
        let ivs = rec.intervals_of("on", &[Term::sym("lamp")], &Term::truth()).unwrap();
        assert_eq!(ivs.as_slice(), &[crate::interval::Interval::open_from(60)]);
    }

    /// `alarm(X)@T ← happensAt(probe(X,T2),T), not holdsAt(active(X),T2)`:
    /// the negated read targets a time taken from an event *argument*, so
    /// the stratum is not pivotable. Once T2 falls behind the window start
    /// the read flips to true with no input delta — the stratum must be
    /// re-solved on every window advance, not clean-skipped.
    fn probe_alarm_ruleset() -> RuleSet {
        let mut b = RuleSetBuilder::new();
        b.declare_event("probe", 2).declare_event("activate", 1).declare_event("deactivate", 1);
        let x = b.var("X");
        let t1 = b.var("T1");
        b.initiated(
            fluent("active", [pat(x)], val(true)),
            t1,
            [happens(event_pat("activate", [pat(x)]), t1)],
        );
        let t2 = b.var("T2");
        b.terminated(
            fluent("active", [pat(x)], val(true)),
            t2,
            [happens(event_pat("deactivate", [pat(x)]), t2)],
        );
        let t = b.var("T");
        let tp = b.var("Tp");
        b.derived_event(
            event_head("alarm", [pat(x)]),
            t,
            [
                happens(event_pat("probe", [pat(x), pat(tp)]), t),
                not_holds(fluent_pat("active", [pat(x)], val(true)), tp),
            ],
        );
        b.build().unwrap()
    }

    #[test]
    fn window_advance_rederives_event_arg_holds_reads() {
        let mut e = Engine::new(probe_alarm_ruleset(), WindowConfig::new(40, 20).unwrap());
        e.add_event(Event::new("activate", [Term::sym("s")], 5)).unwrap();
        e.add_event(Event::new("probe", [Term::sym("s"), Term::int(10)], 30)).unwrap();
        // Q1 = 40 (window (0, 40]): active(s) holds at 10, no alarm.
        assert!(e.query(40).unwrap().events_of("alarm").is_empty());
        // Q2 = 60 (window (20, 60]): no new input, but T2 = 10 has left the
        // window, so `not holdsAt(active(s), 10)` is now true and the alarm
        // at 30 must appear — the delta-empty skip would silently drop it.
        let rec = e.query(60).unwrap();
        assert_eq!(rec.timing.strata_evaluated, 1, "only the non-pivotable stratum re-solves");
        let alarms = rec.events_of("alarm");
        assert_eq!(alarms.len(), 1);
        assert_eq!(alarms[0].time, 30);
    }

    /// Feeds a multi-strata stream into `e`; a third of the items arrive one
    /// window step late to exercise the amendment paths.
    fn feed_multi_strata(e: &mut Engine) {
        for i in 0..120i64 {
            let dev = Term::sym(["a", "b", "c"][(i % 3) as usize]);
            let kind =
                ["on_set", "hot_set", "busy_set", "on_clear", "hot_clear", "busy_clear", "check"]
                    [(i % 7) as usize];
            let arrival = if i % 3 == 0 { i + 20 } else { i };
            e.add_stamped_event(Stamped::arriving_at(Event::new(kind, [dev], i), arrival)).unwrap();
        }
    }

    #[test]
    fn restored_engine_matches_live_continuation_and_cold_replay() {
        let window = WindowConfig::new(60, 20).unwrap();
        let grid: Vec<Time> = (20..=140).step_by(20).collect();
        let crash_after = 60;

        // Live engine: runs the whole grid uninterrupted.
        let mut live = Engine::new(multi_strata_ruleset(), window);
        feed_multi_strata(&mut live);
        let mut snapshot = None;
        let mut live_out = Vec::new();
        for &q in &grid {
            live_out.push(canonical(&live.query(q).unwrap()));
            if q == crash_after {
                snapshot = Some(live.snapshot_state());
            }
        }
        let snapshot = snapshot.unwrap();

        // Restored engine: a fresh build of the same configuration restored
        // from the mid-stream snapshot must answer the remaining queries
        // exactly like the live engine did.
        let mut restored = Engine::new(multi_strata_ruleset(), window);
        restored.restore_state(&snapshot).unwrap();
        assert_eq!(restored.snapshot_state(), snapshot, "snapshot round trip is lossless");
        assert!(
            matches!(restored.query(crash_after), Err(RtecError::NonMonotonicQuery { .. })),
            "the restored query clock keeps monotonicity"
        );
        for (i, &q) in grid.iter().enumerate() {
            if q <= crash_after {
                continue;
            }
            let rec = restored.query(q).unwrap();
            assert_eq!(canonical(&rec), live_out[i], "restored run diverged at q={q}");
        }

        // Cold replay oracle: a fresh engine replaying the *entire* history
        // over the same grid agrees with both.
        let mut cold = Engine::new(multi_strata_ruleset(), window);
        feed_multi_strata(&mut cold);
        for (i, &q) in grid.iter().enumerate() {
            assert_eq!(canonical(&cold.query(q).unwrap()), live_out[i], "cold replay at q={q}");
        }
    }

    #[test]
    fn snapshot_roundtrips_observations_floats_and_inertia() {
        let mut b = RuleSetBuilder::new();
        b.declare_event("move", 1);
        b.declare_input_fluent("gps", 2);
        let bus = b.var("Bus");
        let t = b.var("T");
        b.initiated(
            fluent("busCong", [pat(bus)], val(true)),
            t,
            [
                happens(event_pat("move", [pat(bus)]), t),
                holds(fluent_pat("gps", [pat(bus), cnst(1i64)], val(true)), t),
            ],
        );
        let t2 = b.var("T2");
        b.terminated(
            fluent("busCong", [pat(bus)], val(true)),
            t2,
            [
                happens(event_pat("move", [pat(bus)]), t2),
                holds(fluent_pat("gps", [pat(bus), cnst(0i64)], val(true)), t2),
            ],
        );
        let rules = b.build().unwrap();
        let window = WindowConfig::new(100, 50).unwrap();

        let mut a = Engine::new(rules.clone(), window);
        // Awkward payloads: a float with a non-terminating decimal expansion,
        // a negative zero, and a symbol needing escaping.
        a.add_event(Event::new("move", [Term::sym("bus 7%")], 10)).unwrap();
        a.add_obs(FluentObs::new("gps", [Term::sym("bus 7%"), Term::int(1)], true, 10)).unwrap();
        a.add_event(Event::new("move", [Term::float(0.1 + 0.2)], 20)).unwrap();
        a.add_obs(FluentObs::new("gps", [Term::float(0.1 + 0.2), Term::int(1)], true, 20)).unwrap();
        a.add_event(Event::new("move", [Term::float(-0.0)], 30)).unwrap();
        let rec_a = a.query(50).unwrap();

        let mut c = Engine::new(rules, window);
        c.restore_state(&a.snapshot_state()).unwrap();
        // The restored engine keeps accepting input and the open busCong
        // interval persists by inertia, exactly as on the live engine.
        for e in [&mut a, &mut c] {
            e.add_event(Event::new("move", [Term::sym("bus 7%")], 60)).unwrap();
            e.add_obs(FluentObs::new("gps", [Term::sym("bus 7%"), Term::int(0)], true, 60))
                .unwrap();
        }
        let (ra, rc) = (a.query(100).unwrap(), c.query(100).unwrap());
        assert_eq!(canonical(&ra), canonical(&rc), "post-restore window diverged");
        let ivs = rc.intervals_of("busCong", &[Term::sym("bus 7%")], &Term::truth()).unwrap();
        assert_eq!(ivs.as_slice(), &[crate::interval::Interval::span(10, 60)]);
        assert!(
            !canonical(&rec_a).is_empty() && !canonical(&ra).is_empty(),
            "the scenario actually derives fluents"
        );
    }

    #[test]
    fn restore_rejects_corrupt_and_mismatched_snapshots() {
        let window = WindowConfig::new(60, 20).unwrap();
        let mut e = Engine::new(multi_strata_ruleset(), window);
        for bad in [
            "",
            "rtec-state v0\n",
            "rtec-state v1\nwat 1 2 3\n",
            "rtec-state v1\nev 2 0 0 check i:1\n",
            "rtec-state v1\nev 0 0 nope check i:1\n",
            "rtec-state v1\npf on b:1 1 s:a 5:3\n",
        ] {
            let err = e.restore_state(bad).unwrap_err();
            assert!(matches!(err, RtecError::CorruptState { .. }), "accepted: {bad:?} -> {err}");
        }
        // Undeclared symbols and arity mismatches are caught even though the
        // snapshot itself is well-formed.
        let undeclared = "rtec-state v1\nev 0 0 5 ghost i:1\n";
        assert!(matches!(
            e.restore_state(undeclared),
            Err(RtecError::CorruptState { detail }) if detail.contains("ghost")
        ));
        let wrong_arity = "rtec-state v1\nev 0 0 5 check i:1 i:2\n";
        assert!(matches!(
            e.restore_state(wrong_arity),
            Err(RtecError::CorruptState { detail }) if detail.contains("arity")
        ));
        // A failed restore leaves the engine usable.
        feed_multi_strata(&mut e);
        assert!(e.query(60).is_ok());
    }
}
