//! Compile-once lowering of a stratified [`RuleSet`] into an immutable
//! execution plan, and the solver that runs it.
//!
//! Walking the rule AST per grounding per window would re-resolve every
//! event kind, fluent name, relation and builtin through a
//! `HashMap<Symbol, _>` lookup and re-allocate a `Bindings` environment and
//! an evidence-span stack per rule per window; once window deltas are small
//! those fixed costs dominate.
//!
//! [`CompiledPlan::compile`] pays them **once**: every symbol a rule body
//! can touch is resolved to a dense integer *slot* (`SlotMap`), strata are
//! flattened into a topologically-ordered instruction array, and each rule
//! body is lowered into `CAtom` programs — one full-solve program plus one
//! delta-bounded pivot program per `happensAt` atom, with the
//! delta-bounding role baked into each `Happens` operand — which the join
//! planner (`crate::planner`) then schedules, bounds and routes: filters
//! run as soon as their variables are bound, guards narrow the probes of the
//! atoms they constrain, and every atom carries the one access path it will
//! ever use. The plan owns its
//! rule set, is immutable and `Arc`-shared: shard replicas and region
//! engines built from the same rule set reuse one plan
//! ([`crate::engine::Engine::with_plan`]), and checkpoint snapshots exclude
//! it entirely (it is derived state, rebuilt deterministically from the rule
//! set on restore).
//!
//! At query time the solver (`solve_c`) runs over slot-indexed window
//! stores (`CEventStore`, `CObsStore`, `CFluentStore`, `CRelation`)
//! that carry exactly the indexes the plan's access paths name — array
//! indexing and binary search only, no string or hash lookups and no
//! interner locks — and draws all of its scratch (bindings, evidence spans,
//! binding trail, builtin argument buffer) from a per-thread
//! `SolveScratch` arena that never allocates in steady state.
//! [`scratch_allocations`] exposes the arena's growth counter so tests can
//! assert the zero-allocation property per window.

use crate::dsl::RuleSet;
use crate::engine::BuiltinFn;
use crate::interval::{IntervalArena, IntervalList, IvRange};
use crate::pattern::{
    match_args_trail, undo_trail, ArgPat, Bindings, EventPattern, FluentPattern, VarId,
};
use crate::planner::{fluent_access, plan_program, time_window, Access, IndexNeeds, VarRange};
use crate::rule::{BodyAtom, GuardExpr, IntervalExpr, NumExpr, StaticRule, ValRef};
use crate::stratify::{body_deps, HeadKind};
use crate::term::{Symbol, Term};
use crate::time::{Time, TIME_MAX, TIME_MIN};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Index of a pre-resolved symbol in a [`CompiledPlan`]'s dense tables.
pub(crate) type SlotId = u32;

const NO_SLOT: u32 = u32::MAX;

// ---------------------------------------------------------------------------
// Slot resolution
// ---------------------------------------------------------------------------

/// Dense symbol → slot map. The table is indexed by the interner id, so a
/// lookup is one array read — no hashing, no interner lock.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct SlotMap {
    table: Vec<u32>,
    len: u32,
}

impl SlotMap {
    fn new() -> SlotMap {
        SlotMap { table: Vec::new(), len: 0 }
    }

    fn intern(&mut self, sym: Symbol) -> SlotId {
        let idx = sym.index();
        if idx >= self.table.len() {
            self.table.resize(idx + 1, NO_SLOT);
        }
        if self.table[idx] != NO_SLOT {
            return self.table[idx];
        }
        let slot = self.len;
        self.table[idx] = slot;
        self.len += 1;
        slot
    }

    /// The slot of `sym`, if the compile pass assigned one.
    pub(crate) fn slot(&self, sym: Symbol) -> Option<SlotId> {
        match self.table.get(sym.index()) {
            Some(&s) if s != NO_SLOT => Some(s),
            _ => None,
        }
    }

    /// Number of slots assigned.
    pub(crate) fn len(&self) -> usize {
        self.len as usize
    }
}

// ---------------------------------------------------------------------------
// Lowered rule bodies
// ---------------------------------------------------------------------------

/// Role of a `Happens` atom inside one pivot program of a [`CBody`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum HappensRole {
    /// The pivot: its event time must be `>= frontier`.
    Pivot,
    /// A happens atom preceding the pivot in the original body: its event
    /// time must be `< frontier` (so the union over all pivot programs
    /// partitions the delta-reachable derivations without duplicates).
    Before,
    /// No time restriction.
    Free,
}

/// One lowered body atom: a [`BodyAtom`] with every name pre-resolved to a
/// slot, input/derived fluent discrimination done at compile time, the
/// delta-bounding role baked in, and the access path the join planner chose
/// for it.
#[derive(Debug, Clone)]
pub(crate) enum CAtom {
    /// `happensAt(kind(args…), T)` with its pivot role fixed per program.
    Happens {
        /// Event-kind slot into [`CEventStore`].
        slot: SlotId,
        /// The argument pattern.
        pat: EventPattern,
        /// The time variable.
        time: VarId,
        /// Delta-bounding role relative to the change frontier.
        role: HappensRole,
        /// How the atom reaches its candidates.
        access: Access,
        /// Guard-derived bounds on `time`, intersected with the role range.
        range: VarRange,
    },
    /// `[not] holdsAt(name(args…) = V, T)` on an *input* fluent.
    HoldsInput {
        /// Fluent-name slot into [`CObsStore`].
        slot: SlotId,
        /// The fluent pattern.
        pat: FluentPattern,
        /// The (already bound) read-time variable.
        time: VarId,
        /// Negation-as-failure flag.
        negated: bool,
        /// How the atom reaches its candidates.
        access: Access,
    },
    /// `[not] holdsAt(name(args…) = V, T)` on a *derived* fluent.
    HoldsDerived {
        /// Fluent-name slot into [`CFluentStore`].
        slot: SlotId,
        /// The fluent pattern.
        pat: FluentPattern,
        /// The (already bound) read-time variable.
        time: VarId,
        /// Negation-as-failure flag.
        negated: bool,
        /// How the atom reaches its candidates.
        access: Access,
    },
    /// A finite-relation membership condition.
    Relation {
        /// Index into the engine's dense relation table.
        idx: u32,
        /// The argument pattern.
        args: Vec<ArgPat>,
        /// How the atom reaches its candidates.
        access: Access,
        /// Guard-derived bounds on the column an [`Access::Range`] walks.
        range: VarRange,
    },
    /// A registered boolean builtin.
    Builtin {
        /// Index into the engine's dense builtin table.
        idx: u32,
        /// Argument value references.
        args: Vec<ValRef>,
    },
    /// A pure guard over bound variables.
    Guard(GuardExpr),
}

fn pat_vars<'a>(args: &'a [ArgPat]) -> impl Iterator<Item = VarId> + 'a {
    args.iter().filter_map(ArgPat::var)
}

impl CAtom {
    /// The variables a match of this atom can newly bind.
    pub(crate) fn binds(&self) -> Vec<VarId> {
        match self {
            CAtom::Happens { pat, time, .. } => {
                pat_vars(&pat.args).chain(std::iter::once(*time)).collect()
            }
            CAtom::HoldsInput { pat, negated: false, .. }
            | CAtom::HoldsDerived { pat, negated: false, .. } => {
                pat_vars(&pat.args).chain(pat.value.var()).collect()
            }
            CAtom::Relation { args, .. } => pat_vars(args).collect(),
            _ => Vec::new(),
        }
    }

    /// Every variable the atom mentions.
    pub(crate) fn mentions(&self) -> Vec<VarId> {
        match self {
            CAtom::HoldsInput { pat, time, .. } | CAtom::HoldsDerived { pat, time, .. } => {
                pat_vars(&pat.args).chain(pat.value.var()).chain(std::iter::once(*time)).collect()
            }
            CAtom::Builtin { args, .. } => args
                .iter()
                .filter_map(|a| match a {
                    ValRef::Var(v) => Some(*v),
                    ValRef::Const(_) => None,
                })
                .collect(),
            CAtom::Guard(g) => {
                let mut vs = Vec::new();
                g.collect_vars(&mut vs);
                vs
            }
            CAtom::Happens { .. } | CAtom::Relation { .. } => self.binds(),
        }
    }

    /// Installs the planner's choice for this atom.
    pub(crate) fn set_probe(&mut self, to: Access, bounds: VarRange) {
        match self {
            CAtom::Happens { access, range, .. } | CAtom::Relation { access, range, .. } => {
                *access = to;
                *range = bounds;
            }
            CAtom::HoldsInput { access, .. } | CAtom::HoldsDerived { access, .. } => *access = to,
            CAtom::Builtin { .. } | CAtom::Guard(_) => {}
        }
    }
}

/// One lowered body: the full-solve program plus one delta-bounded pivot
/// program per `happensAt` atom, each planned on its own (moving the pivot to
/// the front changes what is bound where, hence the access paths). Pivoting
/// is safe — pattern atoms only *add* bindings, so binding prerequisites
/// still hold with the pivot moved to the front.
#[derive(Debug, Clone)]
pub(crate) struct CBody {
    /// Every atom of the body, every role `Free` (full re-solve).
    pub full: Vec<CAtom>,
    /// Pivot programs: program `k` enumerates exactly the derivations whose
    /// first at-or-after-frontier happens atom is body atom `k`.
    pub pivots: Vec<Vec<CAtom>>,
}

/// A lowered interval expression for statically-determined fluents.
#[derive(Debug, Clone)]
pub(crate) enum CIntervalExpr {
    /// Leaf: union of the matching groundings of one derived fluent.
    Fluent {
        /// Fluent-name slot into [`CFluentStore`].
        slot: SlotId,
        /// The fluent pattern.
        pat: FluentPattern,
        /// How the leaf reaches its groundings.
        access: Access,
    },
    /// `union_all`.
    Union(Vec<CIntervalExpr>),
    /// `intersect_all`.
    Intersect(Vec<CIntervalExpr>),
    /// `relative_complement_all`.
    RelComp(Box<CIntervalExpr>, Vec<CIntervalExpr>),
}

/// One lowered statically-determined fluent rule.
#[derive(Debug, Clone)]
pub(crate) struct CStatic {
    /// The planned domain program (all roles `Free`; statics always solve
    /// fully).
    pub domain: Vec<CAtom>,
    /// Lowered interval expression.
    pub expr: CIntervalExpr,
}

// ---------------------------------------------------------------------------
// The instruction array
// ---------------------------------------------------------------------------

/// One instruction of the flat stratum array: everything the evaluator needs
/// to run one stratum, precomputed.
#[derive(Debug, Clone)]
pub(crate) struct StratumInstr {
    /// The head symbol.
    pub symbol: Symbol,
    /// The head symbol's slot.
    pub slot: SlotId,
    /// What kind of head this stratum derives.
    pub kind: HeadKind,
    /// Rule indices into the rule set's per-kind rule vector.
    pub rules: Vec<u32>,
    /// Slots of the stratum's direct body dependencies (frontier reads).
    pub dep_slots: Vec<SlotId>,
    /// Whether delta-bounded (pivoted) evaluation is complete for every
    /// rule (see [`body_pivotable`]). Strata with rules that read fluents at
    /// times taken from event arguments or relation tuples re-solve fully
    /// whenever the window start has advanced: such a read can flip with
    /// *no* input delta once its time falls behind the new window start
    /// (e.g. a negated `holdsAt` at an expired time-point becomes true), so
    /// neither cached derivations nor a clean-dependency skip are sound.
    pub pivotable: bool,
    /// For static strata: whether the rule domains are free of event/fluent
    /// atoms. Pure relation/guard domains can be clamp-reused when clean;
    /// event-driven domains must be re-solved because expiry can shrink
    /// them silently.
    pub static_pure: bool,
}

/// An immutable, `Arc`-shared execution plan compiled once from a
/// [`RuleSet`], which it owns.
///
/// The plan holds no window state: engines evaluate against it concurrently
/// (shard replicas and region engines share one plan), and it is excluded
/// from checkpoint snapshots — a restored engine is rebuilt over the same
/// plan, or over one recompiled deterministically from the same rule set
/// (see [`CompiledPlan::signature`]).
pub struct CompiledPlan {
    pub(crate) rules: RuleSet,
    pub(crate) slots: SlotMap,
    /// One instruction per stratum, in stratification (topological) order.
    pub(crate) instrs: Vec<StratumInstr>,
    /// Lowered bodies per event rule, aligned with `RuleSet::ev_rules`.
    pub(crate) ev_bodies: Vec<CBody>,
    /// Lowered bodies per simple-fluent rule, aligned with `sf_rules`.
    pub(crate) sf_bodies: Vec<CBody>,
    /// Lowered static rules, aligned with `static_rules`.
    pub(crate) static_bodies: Vec<CStatic>,
    /// Relation symbols in dense-index order (sorted).
    pub(crate) relation_syms: Vec<Symbol>,
    /// Builtin symbols in dense-index order (sorted).
    pub(crate) builtin_syms: Vec<Symbol>,
    /// The indexes the planned access paths name.
    pub(crate) needs: IndexNeeds,
}

pub(crate) static PLANS_COMPILED: AtomicU64 = AtomicU64::new(0);

impl CompiledPlan {
    /// Compiles `rules` into an immutable execution plan. The pass is
    /// deterministic: compiling the same rule set twice yields plans with
    /// identical instruction arrays and identical [`CompiledPlan::signature`]s.
    pub fn compile(rules: RuleSet) -> Arc<CompiledPlan> {
        PLANS_COMPILED.fetch_add(1, Ordering::Relaxed);
        let mut slots = SlotMap::new();
        // Head symbols first (stratum order), then declared inputs (sorted)
        // — a deterministic assignment independent of HashMap iteration.
        for s in &rules.strata {
            slots.intern(s.symbol);
        }
        let mut inputs: Vec<Symbol> =
            rules.input_events.keys().copied().chain(rules.input_fluents.keys().copied()).collect();
        inputs.sort();
        for sym in inputs {
            slots.intern(sym);
        }

        let mut relation_syms: Vec<Symbol> = rules.relations.keys().copied().collect();
        relation_syms.sort();
        let rel_idx: HashMap<Symbol, u32> =
            relation_syms.iter().enumerate().map(|(i, &s)| (s, i as u32)).collect();
        let mut builtin_syms: Vec<Symbol> = rules.builtins.keys().copied().collect();
        builtin_syms.sort();
        let bi_idx: HashMap<Symbol, u32> =
            builtin_syms.iter().enumerate().map(|(i, &s)| (s, i as u32)).collect();

        let mut needs = IndexNeeds::new(slots.len(), relation_syms.len());
        let mut lower_body = |body: &[BodyAtom]| -> CBody {
            let lowered: Vec<CAtom> =
                body.iter().map(|a| lower_atom(a, &rules, &slots, &rel_idx, &bi_idx)).collect();
            let mut pivots = Vec::new();
            for (pi, atom) in lowered.iter().enumerate() {
                if !matches!(atom, CAtom::Happens { .. }) {
                    continue;
                }
                // Program `pi` enumerates exactly the derivations whose
                // *first* happens atom (in body order) at or after the
                // frontier is atom `pi`: the pivot moves to the front,
                // earlier happens atoms become `Before`, everything else
                // stays `Free`.
                let mut prog = Vec::with_capacity(lowered.len());
                prog.push(with_role(atom.clone(), HappensRole::Pivot));
                for (j, a) in lowered.iter().enumerate() {
                    if j == pi {
                        continue;
                    }
                    let role = if j < pi && matches!(a, CAtom::Happens { .. }) {
                        HappensRole::Before
                    } else {
                        HappensRole::Free
                    };
                    prog.push(with_role(a.clone(), role));
                }
                pivots.push(plan_program(prog, &mut needs));
            }
            CBody { full: plan_program(lowered, &mut needs), pivots }
        };

        let ev_bodies: Vec<CBody> = rules.ev_rules.iter().map(|r| lower_body(&r.body)).collect();
        let sf_bodies: Vec<CBody> = rules.sf_rules.iter().map(|r| lower_body(&r.body)).collect();
        let static_bodies: Vec<CStatic> = rules
            .static_rules
            .iter()
            .map(|r| {
                let domain: Vec<CAtom> = r
                    .domain
                    .iter()
                    .map(|a| lower_atom(a, &rules, &slots, &rel_idx, &bi_idx))
                    .collect();
                // Validation guarantees the domain binds every variable the
                // expression mentions.
                let bound: HashSet<VarId> = domain.iter().flat_map(CAtom::binds).collect();
                CStatic {
                    domain: plan_program(domain, &mut needs),
                    expr: lower_expr(&r.expr, &slots, &bound, &mut needs),
                }
            })
            .collect();

        // Stratification orders strata topologically, so evaluating the
        // instruction array front to back sees every derived dependency
        // before its readers.
        let mut instrs: Vec<StratumInstr> = Vec::with_capacity(rules.strata.len());
        for s in &rules.strata {
            let mut deps: HashSet<Symbol> = HashSet::new();
            let mut pivotable = true;
            let mut static_pure = true;
            match s.kind {
                HeadKind::Event => {
                    for &i in &s.rule_indices {
                        body_deps(&rules.ev_rules[i].body, &mut deps);
                        pivotable &= body_pivotable(&rules.ev_rules[i].body);
                    }
                }
                HeadKind::SimpleFluent => {
                    for &i in &s.rule_indices {
                        body_deps(&rules.sf_rules[i].body, &mut deps);
                        pivotable &= body_pivotable(&rules.sf_rules[i].body);
                    }
                }
                HeadKind::StaticFluent => {
                    for &i in &s.rule_indices {
                        let r: &StaticRule = &rules.static_rules[i];
                        body_deps(&r.domain, &mut deps);
                        let mut fl = Vec::new();
                        r.expr.collect_fluents(&mut fl);
                        deps.extend(fl);
                        static_pure &= r.domain.iter().all(|a| {
                            !matches!(a, BodyAtom::Happens { .. } | BodyAtom::Holds { .. })
                        });
                    }
                }
            }
            let mut dep_slots: Vec<SlotId> = deps.iter().filter_map(|&d| slots.slot(d)).collect();
            dep_slots.sort_unstable();
            instrs.push(StratumInstr {
                symbol: s.symbol,
                slot: slots.slot(s.symbol).expect("head symbol interned above"),
                kind: s.kind,
                rules: s.rule_indices.iter().map(|&i| i as u32).collect(),
                dep_slots,
                pivotable,
                static_pure,
            });
        }

        Arc::new(CompiledPlan {
            rules,
            slots,
            instrs,
            ev_bodies,
            sf_bodies,
            static_bodies,
            relation_syms,
            builtin_syms,
            needs,
        })
    }

    /// Number of dense symbol slots.
    pub(crate) fn n_slots(&self) -> usize {
        self.slots.len()
    }

    pub(crate) fn fingerprint(&self) -> u64 {
        // FNV-1a over the structural facts that define the plan.
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(&(self.slots.len() as u64).to_le_bytes());
        for instr in &self.instrs {
            eat(instr.symbol.as_str().as_bytes());
            eat(&[match instr.kind {
                HeadKind::Event => 0,
                HeadKind::SimpleFluent => 1,
                HeadKind::StaticFluent => 2,
            }]);
            eat(&instr.slot.to_le_bytes());
            for &r in &instr.rules {
                eat(&r.to_le_bytes());
            }
            for &d in &instr.dep_slots {
                eat(&d.to_le_bytes());
            }
            eat(&[u8::from(instr.pivotable), u8::from(instr.static_pure)]);
        }
        // The planner's choices, as the indexes they ask the stores for.
        let IndexNeeds { events, obs_first, fluents, rel_eq, rel_num } = &self.needs;
        for cols in events.iter().chain(fluents).chain(rel_eq).chain(rel_num) {
            eat(&(cols.len() as u16).to_le_bytes());
            for c in cols {
                eat(&c.to_le_bytes());
            }
        }
        for &by_first in obs_first {
            eat(&[u8::from(by_first)]);
        }
        h
    }
}

impl std::fmt::Debug for CompiledPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledPlan")
            .field("slots", &self.slots.len())
            .field("strata", &self.instrs.len())
            .field("signature", &format_args!("{:016x}", self.fingerprint()))
            .finish()
    }
}

/// Whether pivoted (delta-bounded) evaluation is complete for `body`: every
/// `Holds` atom must read its fluent at a time bound by a preceding
/// `happensAt` condition. A time taken from an event argument or a relation
/// tuple can reach upstream changes that no happens-time bound sees, so such
/// rules must be fully re-solved when their stratum is dirty.
fn body_pivotable(body: &[BodyAtom]) -> bool {
    let mut happens_times: Vec<VarId> = Vec::new();
    for atom in body {
        match atom {
            BodyAtom::Happens { time, .. } => happens_times.push(*time),
            BodyAtom::Holds { time, .. } if !happens_times.contains(time) => return false,
            _ => {}
        }
    }
    true
}

fn with_role(atom: CAtom, role: HappensRole) -> CAtom {
    match atom {
        CAtom::Happens { slot, pat, time, access, range, .. } => {
            CAtom::Happens { slot, pat, time, role, access, range }
        }
        other => other,
    }
}

fn lower_atom(
    atom: &BodyAtom,
    rules: &RuleSet,
    slots: &SlotMap,
    rel_idx: &HashMap<Symbol, u32>,
    bi_idx: &HashMap<Symbol, u32>,
) -> CAtom {
    match atom {
        BodyAtom::Happens { pat, time } => CAtom::Happens {
            slot: slots.slot(pat.kind).expect("event kind declared or derived"),
            pat: pat.clone(),
            time: *time,
            role: HappensRole::Free,
            access: Access::Scan,
            range: VarRange::default(),
        },
        BodyAtom::Holds { pat, time, negated } => {
            let slot = slots.slot(pat.name).expect("fluent declared or derived");
            let (pat, time, negated, access) = (pat.clone(), *time, *negated, Access::Scan);
            if rules.input_fluents.contains_key(&pat.name) {
                CAtom::HoldsInput { slot, pat, time, negated, access }
            } else {
                CAtom::HoldsDerived { slot, pat, time, negated, access }
            }
        }
        BodyAtom::Relation { name, args } => CAtom::Relation {
            idx: *rel_idx.get(name).expect("relation declared"),
            args: args.clone(),
            access: Access::Scan,
            range: VarRange::default(),
        },
        BodyAtom::Builtin { name, args } => {
            CAtom::Builtin { idx: *bi_idx.get(name).expect("builtin declared"), args: args.clone() }
        }
        BodyAtom::Guard(g) => CAtom::Guard(g.clone()),
    }
}

fn lower_expr(
    expr: &IntervalExpr,
    slots: &SlotMap,
    bound: &HashSet<VarId>,
    needs: &mut IndexNeeds,
) -> CIntervalExpr {
    fn all(
        es: &[IntervalExpr],
        slots: &SlotMap,
        bound: &HashSet<VarId>,
        needs: &mut IndexNeeds,
    ) -> Vec<CIntervalExpr> {
        es.iter().map(|e| lower_expr(e, slots, bound, needs)).collect()
    }
    match expr {
        IntervalExpr::Fluent(pat) => {
            let slot = slots.slot(pat.name).expect("fluent declared or derived");
            let access = fluent_access(slot, &pat.args, bound, needs);
            CIntervalExpr::Fluent { slot, pat: pat.clone(), access }
        }
        IntervalExpr::Union(es) => CIntervalExpr::Union(all(es, slots, bound, needs)),
        IntervalExpr::Intersect(es) => CIntervalExpr::Intersect(all(es, slots, bound, needs)),
        IntervalExpr::RelComp(base, subs) => CIntervalExpr::RelComp(
            Box::new(lower_expr(base, slots, bound, needs)),
            all(subs, slots, bound, needs),
        ),
    }
}

// ---------------------------------------------------------------------------
// Slot-indexed window stores
// ---------------------------------------------------------------------------

/// A `(term, item index)` side table over one argument column, sorted by
/// term: the equality index behind [`Access::Column`]. Terms are inline
/// values, so the table is a permutation of the store plus one key each.
pub(crate) struct ColIndex {
    pub(crate) col: usize,
    entries: Vec<(Term, u32)>,
}

impl ColIndex {
    fn new(col: u16) -> ColIndex {
        ColIndex { col: col as usize, entries: Vec::new() }
    }

    fn push(&mut self, args: &[Term], item: usize) {
        if let Some(t) = args.get(self.col) {
            self.entries.push((t.clone(), item as u32));
        }
    }

    /// Stable: entries pushed in item order stay in item order per term.
    fn sort(&mut self) {
        self.entries.sort_by(|a, b| a.0.cmp(&b.0));
    }

    /// Item indices whose column term equals `t`: one binary search for
    /// the start of the run, which the caller then walks.
    fn equal<'a>(&'a self, t: &'a Term) -> impl Iterator<Item = usize> + 'a {
        let a = self.entries.partition_point(|(k, _)| k < t);
        self.entries[a..].iter().take_while(move |(k, _)| k == t).map(|&(_, i)| i as usize)
    }
}

/// What one window wrote into and took out of the stores, counted where it
/// happens: exact for a given input and query grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) struct StoreCounts {
    /// Input facts that became visible (each fact exactly once in its life).
    pub admitted: u64,
    /// Of those, the ones that occurred at or before the previous query
    /// time: late arrivals amended into the overlap.
    pub amended: u64,
    /// Admitted facts that fell behind the window start.
    pub expired: u64,
    /// Facts dropped without ever having been visible: behind the window
    /// start before they arrived.
    pub lost: u64,
    /// Derived events written into their slot (the tail behind the
    /// stratum's output frontier).
    pub derived_written: u64,
}

/// The window a store slides to: `(start, q]`, after a query at `prev_q`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Slide {
    pub start: Time,
    pub q: Time,
    /// The previous query time (`TIME_MIN` before the first query).
    pub prev_q: Time,
}

/// One stored fact as a checkpoint sees it.
pub(crate) struct FactRef<'a> {
    /// Ingestion sequence number, engine-wide.
    pub seq: u64,
    /// Whether a query has admitted it (store membership).
    pub seen: bool,
    pub arrival: Time,
    pub time: Time,
    /// The fact's row: its arguments (for an observation, then its value).
    pub terms: &'a [Term],
}

/// Fixed-width term rows of one kind. A fact's terms are written once, at
/// ingestion, and stay in their row for the fact's whole life (pending →
/// admitted → expired); a row whose fact has left goes on the free list, so
/// the pool's capacity follows the largest working set, not the stream.
struct Rows {
    width: usize,
    terms: Vec<Term>,
    /// `(ingestion sequence, arrival)` per row: the tie order among facts of
    /// one time, and what a checkpoint writes beside the terms.
    meta: Vec<(u64, Time)>,
    free: Vec<u32>,
}

impl Rows {
    fn new(width: usize) -> Rows {
        Rows { width, terms: Vec::new(), meta: Vec::new(), free: Vec::new() }
    }

    fn alloc<'t>(&mut self, meta: (u64, Time), terms: impl Iterator<Item = &'t Term>) -> u32 {
        match self.free.pop() {
            Some(row) => {
                self.meta[row as usize] = meta;
                let at = row as usize * self.width;
                for (cell, t) in self.terms[at..at + self.width].iter_mut().zip(terms) {
                    *cell = t.clone();
                }
                row
            }
            None => {
                self.terms.extend(terms.cloned());
                self.meta.push(meta);
                // Room to free every row, made when the row is: a window
                // that expires a head then never grows the list, whatever
                // share of the rows the pending area held at the time.
                self.free.reserve(self.meta.len() - self.free.len());
                debug_assert_eq!(self.terms.len(), self.meta.len() * self.width, "fixed arity");
                (self.meta.len() - 1) as u32
            }
        }
    }

    fn get(&self, row: u32) -> &[Term] {
        let at = row as usize * self.width;
        &self.terms[at..at + self.width]
    }

    /// Ingestion order of two facts: the tie order within one time.
    fn seq_cmp(&self, a: &Fact, b: &Fact) -> std::cmp::Ordering {
        self.meta[a.row as usize].0.cmp(&self.meta[b.row as usize].0)
    }

    fn visit_caps(&self, f: &mut impl FnMut(usize)) {
        f(self.terms.capacity());
        f(self.meta.capacity());
        f(self.free.capacity());
    }
}

/// A fact in a store's order: its occurrence time and its row.
#[derive(Debug, Clone, Copy)]
struct Fact {
    time: Time,
    row: u32,
}

/// The facts of one kind across windows: the admitted ones in the kind's
/// order (time first, so the expired are a prefix), and a pending area for
/// what no query may see yet.
struct Facts {
    /// Admitted facts, sorted; a fact's position is the id the access paths
    /// hand to the solver (valid for the query that computed it).
    items: Vec<Fact>,
    /// Ingested but not yet visible (`arrival > q` or `time > q`), in
    /// ingestion order.
    pending: Vec<Fact>,
    rows: Rows,
    /// This window's admissions: staged by [`Facts::stage`], sorted and
    /// merged into `items` by the owning kind.
    delta: Vec<Fact>,
    /// Every admission since the engine's last checkpoint, while the engine
    /// keeps a checkpoint cursor (`None` otherwise): what a delta checkpoint
    /// reads its seen-flag flips and its admitted new facts from. Not window
    /// state, so not among the capacities `window_allocations` follows.
    admitted: Option<Vec<Fact>>,
}

impl Facts {
    fn new(width: usize) -> Facts {
        Facts {
            items: Vec::new(),
            pending: Vec::new(),
            rows: Rows::new(width),
            delta: Vec::new(),
            admitted: None,
        }
    }

    /// Writes a fact's terms into a row; `seen` facts (a checkpoint's) are
    /// staged for [`CEventKind::admit`]/[`CObsKind::admit`], the others wait
    /// in the pending area for a query that may see them.
    fn ingest<'t>(
        &mut self,
        seen: bool,
        meta: (u64, Time),
        time: Time,
        terms: impl Iterator<Item = &'t Term>,
    ) {
        let fact = Fact { time, row: self.rows.alloc(meta, terms) };
        let area = if seen { &mut self.delta } else { &mut self.pending };
        area.push(fact);
    }

    /// Moves what window `w` may see from the pending area to `delta`,
    /// drops what it can never see, and frees the rows of the expired head.
    /// Returns the length of that head, still in `items`.
    fn stage(&mut self, w: Slide, counts: &mut StoreCounts) -> usize {
        let Facts { items, pending, rows, delta, admitted } = self;
        delta.clear();
        pending.retain(|f| {
            if f.time <= w.start {
                rows.free.push(f.row);
                counts.lost += 1;
                false
            } else if f.time <= w.q && rows.meta[f.row as usize].1 <= w.q {
                counts.amended += u64::from(f.time <= w.prev_q);
                delta.push(*f);
                false
            } else {
                true
            }
        });
        counts.admitted += delta.len() as u64;
        if let Some(log) = admitted {
            log.extend_from_slice(delta);
        }
        let expired = items.partition_point(|f| f.time <= w.start);
        // Last first: the list hands rows back from its end, so the next
        // facts take the head's rows in the order the head had them.
        rows.free.extend(items[..expired].iter().rev().map(|f| f.row));
        counts.expired += expired as u64;
        expired
    }

    fn len(&self) -> usize {
        self.items.len() + self.pending.len()
    }

    fn fact_ref<'a>(&'a self, seen: bool) -> impl Fn(&Fact) -> FactRef<'a> + 'a {
        move |f: &Fact| {
            let (seq, arrival) = self.rows.meta[f.row as usize];
            FactRef { seq, seen, arrival, time: f.time, terms: self.rows.get(f.row) }
        }
    }

    fn refs(&self) -> impl Iterator<Item = FactRef<'_>> {
        self.items
            .iter()
            .map(self.fact_ref(true))
            .chain(self.pending.iter().map(self.fact_ref(false)))
    }

    /// What changed since the checkpoint cursor: the admissions logged since
    /// then that are still in the window (`time > start`, the last query's
    /// window start), and the pending facts numbered `cursor` or later. The
    /// pending area is in ingestion order, so those are its suffix.
    fn since(&self, cursor: u64, start: Time) -> impl Iterator<Item = FactRef<'_>> {
        let log = self.admitted.as_deref().unwrap_or_default();
        let from = self.pending.partition_point(|f| self.rows.meta[f.row as usize].0 < cursor);
        (log.iter().filter(move |f| f.time > start).map(self.fact_ref(true)))
            .chain(self.pending[from..].iter().map(self.fact_ref(false)))
    }

    /// Starts the admission log, or empties it.
    fn track(&mut self) {
        self.admitted.get_or_insert_with(Vec::new).clear();
    }

    fn visit_caps(&self, f: &mut impl FnMut(usize)) {
        f(self.items.capacity());
        f(self.pending.capacity());
        f(self.delta.capacity());
        self.rows.visit_caps(f);
    }
}

/// Merges the sorted `delta` into the sorted `v` in place, back to front, so
/// nothing before the first insertion point is touched. `after(a, b)` says
/// that old entry `a` sorts after new entry `b`; `moved(to)` reports the new
/// position of every old entry that changed place (last one first),
/// `placed(j, to)` that of every `delta[j]`.
fn merge_in<T: Clone>(
    v: &mut Vec<T>,
    delta: &[T],
    mut after: impl FnMut(&T, &T) -> bool,
    mut moved: impl FnMut(usize),
    mut placed: impl FnMut(usize, usize),
) {
    let (mut i, mut j) = (v.len(), delta.len());
    // Grows `v` by the delta's length; every added cell is overwritten.
    v.extend_from_slice(delta);
    let mut w = v.len();
    while j > 0 {
        w -= 1;
        if i > 0 && after(&v[i - 1], &delta[j - 1]) {
            i -= 1;
            v[w] = v[i].clone();
            moved(w);
        } else {
            j -= 1;
            v[w] = delta[j].clone();
            placed(j, w);
        }
    }
}

/// Events of one kind — input or derived — in `(time, ingestion order)`
/// order, kept across windows. A query expires the head, merges what it
/// admits (an input kind) or replaces the tail behind the stratum's output
/// frontier (a derived kind), and carries each [`ColIndex`] the plan probes
/// along in one pass over its `(term, position)` entries: nothing that stays
/// in the window is cloned or sorted again.
pub(crate) struct CEventKind {
    facts: Facts,
    /// Sorted by `(term, position)`, in the order the plan numbered them.
    pub(crate) by_col: Vec<ColIndex>,
    // Per-window scratch of `splice`, retained.
    /// New position of each `delta` fact.
    delta_pos: Vec<u32>,
    /// New positions of the surviving facts a merge moved, last one first.
    moved: Vec<u32>,
    keys: Vec<(Term, u32)>,
}

impl CEventKind {
    fn new(arity: usize, cols: &[u16]) -> CEventKind {
        CEventKind {
            facts: Facts::new(arity),
            by_col: cols.iter().map(|&c| ColIndex::new(c)).collect(),
            delta_pos: Vec::new(),
            moved: Vec::new(),
            keys: Vec::new(),
        }
    }

    /// Slides an input kind to window `w`: the head expires, the pending
    /// facts the window may see are admitted. Returns the earliest admitted
    /// time — the kind's change frontier (`TIME_MAX`: nothing new).
    fn slide(&mut self, w: Slide, counts: &mut StoreCounts) -> Time {
        let expired = self.facts.stage(w, counts);
        self.admit(expired)
    }

    /// Sorts the staged facts and merges them in behind an expired head of
    /// `expired` facts.
    fn admit(&mut self, expired: usize) -> Time {
        let Facts { items, rows, delta, .. } = &mut self.facts;
        delta.sort_unstable_by(|a, b| a.time.cmp(&b.time).then_with(|| rows.seq_cmp(a, b)));
        let frontier = delta.first().map_or(TIME_MAX, |f| f.time);
        let keep_to = items.len();
        self.splice(expired, keep_to);
        frontier
    }

    /// Brings a derived kind up to date with its stratum's materialised
    /// events: the head at or before `start` expires, everything from
    /// `from` on (the stratum's output frontier — below it the slot already
    /// holds exactly what the stratum derived) is replaced by `tail`, given
    /// in the slot's order. Returns the number of events written.
    fn replace_tail<'t>(
        &mut self,
        start: Time,
        from: Time,
        tail: impl Iterator<Item = (Time, &'t [Term])>,
    ) -> u64 {
        let Facts { items, rows, delta, .. } = &mut self.facts;
        let expired = items.partition_point(|f| f.time <= start);
        let keep_to = items.partition_point(|f| f.time < from).max(expired);
        rows.free.extend(items[..expired].iter().chain(&items[keep_to..]).rev().map(|f| f.row));
        delta.clear();
        for (time, args) in tail {
            delta.push(Fact { time, row: rows.alloc((0, time), args.iter()) });
        }
        let written = delta.len() as u64;
        self.splice(expired, keep_to);
        written
    }

    /// Keeps `items[expired..keep_to]`, merges the sorted `delta` into it
    /// and renumbers every column index to the new positions.
    fn splice(&mut self, expired: usize, keep_to: usize) {
        let CEventKind { facts, by_col, delta_pos, moved, keys } = self;
        let Facts { items, rows, delta, .. } = facts;
        let old_len = items.len();
        if expired == 0 && keep_to == old_len && delta.is_empty() {
            return;
        }
        items.truncate(keep_to);
        items.drain(..expired);
        let kept = items.len();
        delta_pos.clear();
        delta_pos.resize(delta.len(), 0);
        moved.clear();
        merge_in(
            items,
            delta,
            |a, b| a.time.cmp(&b.time).then_with(|| rows.seq_cmp(a, b)).is_gt(),
            |to| moved.push(to as u32),
            |j, to| delta_pos[j] = to as u32,
        );
        // Survivors before the first insertion point only lost the expired
        // head in front of them; the moved ones are looked up.
        let first_moved = kept - moved.len();
        let renumber = expired > 0 || keep_to < old_len || !moved.is_empty();
        for ix in by_col {
            if renumber {
                ix.entries.retain_mut(|(_, id)| {
                    let old = *id as usize;
                    if old < expired || old >= keep_to {
                        return false;
                    }
                    let at = old - expired;
                    *id = if at < first_moved { at as u32 } else { moved[kept - 1 - at] };
                    true
                });
            }
            keys.clear();
            for (f, &pos) in delta.iter().zip(delta_pos.iter()) {
                if let Some(t) = rows.get(f.row).get(ix.col) {
                    keys.push((t.clone(), pos));
                }
            }
            keys.sort_unstable();
            merge_in(&mut ix.entries, keys, |a, b| a > b, |_| {}, |_, _| {});
        }
    }

    fn is_empty(&self) -> bool {
        self.facts.items.is_empty()
    }

    pub(crate) fn time(&self, i: usize) -> Time {
        self.facts.items[i].time
    }

    pub(crate) fn args(&self, i: usize) -> &[Term] {
        self.facts.rows.get(self.facts.items[i].row)
    }

    /// Item indices whose time is in `[lo, hi]`, in time order.
    pub(crate) fn time_range(&self, lo: Time, hi: Time) -> impl Iterator<Item = usize> + '_ {
        let items = &self.facts.items;
        let a = items.partition_point(|f| f.time < lo);
        (a..items.len()).take_while(move |&i| items[i].time <= hi)
    }

    /// Item indices of index `index` whose column term equals `t` and whose
    /// time is in `[lo, hi]`, in time order.
    pub(crate) fn col_range<'a>(
        &'a self,
        index: u16,
        t: &'a Term,
        lo: Time,
        hi: Time,
    ) -> impl Iterator<Item = usize> + 'a {
        let entries = &self.by_col[index as usize].entries;
        let a = entries.partition_point(|(k, i)| k < t || (k == t && self.time(*i as usize) < lo));
        entries[a..]
            .iter()
            .take_while(move |(k, i)| k == t && self.time(*i as usize) <= hi)
            .map(|&(_, i)| i as usize)
    }

    fn visit_caps(&self, f: &mut impl FnMut(usize)) {
        self.facts.visit_caps(f);
        f(self.delta_pos.capacity());
        f(self.moved.capacity());
        f(self.keys.capacity());
        for ix in &self.by_col {
            f(ix.entries.capacity());
        }
    }
}

/// All window events, slot-indexed by kind, retained across windows: input
/// kinds slide at the start of a query, derived kinds when their stratum
/// publishes.
pub(crate) struct CEventStore {
    pub(crate) kinds: Vec<CEventKind>,
    /// Slots of the declared input events, ascending.
    inputs: Vec<SlotId>,
}

impl CEventStore {
    /// One kind per slot, indexed on the columns `plan.needs.events` names.
    pub(crate) fn new(plan: &CompiledPlan) -> CEventStore {
        let slot = |sym: Symbol| plan.slots.slot(sym).expect("event symbols have slots");
        let mut arity = vec![0usize; plan.n_slots()];
        for (&sym, &a) in &plan.rules.input_events {
            arity[slot(sym) as usize] = a;
        }
        for r in &plan.rules.ev_rules {
            arity[slot(r.head.kind) as usize] = r.head.args.len();
        }
        let mut inputs: Vec<SlotId> = plan.rules.input_events.keys().map(|&s| slot(s)).collect();
        inputs.sort_unstable();
        let kinds =
            plan.needs.events.iter().zip(arity).map(|(cols, a)| CEventKind::new(a, cols)).collect();
        CEventStore { kinds, inputs }
    }

    /// Writes one input event into its kind's pending area, or — a
    /// checkpoint's `seen` fact — stages it for [`CEventStore::admit_staged`].
    pub(crate) fn ingest(
        &mut self,
        slot: SlotId,
        seen: bool,
        meta: (u64, Time),
        time: Time,
        args: &[Term],
    ) {
        self.kinds[slot as usize].facts.ingest(seen, meta, time, args.iter());
    }

    /// Admits the staged `seen` facts of a restore.
    pub(crate) fn admit_staged(&mut self) {
        for &slot in &self.inputs {
            self.kinds[slot as usize].admit(0);
        }
    }

    /// Slides every input kind to window `w`, writing each kind's change
    /// frontier to its slot of `frontiers`. Returns the facts now visible.
    pub(crate) fn slide(
        &mut self,
        w: Slide,
        frontiers: &mut [Time],
        counts: &mut StoreCounts,
    ) -> usize {
        let mut visible = 0;
        for &slot in &self.inputs {
            let kind = &mut self.kinds[slot as usize];
            frontiers[slot as usize] = kind.slide(w, counts);
            visible += kind.facts.items.len();
        }
        visible
    }

    /// See [`CEventKind::replace_tail`].
    pub(crate) fn replace_tail<'t>(
        &mut self,
        slot: SlotId,
        start: Time,
        from: Time,
        tail: impl Iterator<Item = (Time, &'t [Term])>,
    ) -> u64 {
        self.kinds[slot as usize].replace_tail(start, from, tail)
    }

    /// Input facts held, admitted and pending.
    pub(crate) fn buffered(&self) -> usize {
        self.inputs.iter().map(|&s| self.kinds[s as usize].facts.len()).sum()
    }

    /// Every input fact of kind `slot`, admitted then pending.
    pub(crate) fn facts(&self, slot: SlotId) -> impl Iterator<Item = FactRef<'_>> {
        self.kinds[slot as usize].facts.refs()
    }

    /// The facts of kind `slot` that changed since the checkpoint cursor
    /// (see `Facts::since`).
    pub(crate) fn since(
        &self,
        slot: SlotId,
        cursor: u64,
        start: Time,
    ) -> impl Iterator<Item = FactRef<'_>> {
        self.kinds[slot as usize].facts.since(cursor, start)
    }

    /// Starts logging the input kinds' admissions afresh.
    pub(crate) fn track(&mut self) {
        for &slot in &self.inputs {
            self.kinds[slot as usize].facts.track();
        }
    }

    pub(crate) fn visit_caps(&self, f: &mut impl FnMut(usize)) {
        for k in &self.kinds {
            k.visit_caps(f);
        }
    }
}

/// Input fluent observations of one name, kept across windows like
/// [`CEventKind`]: rows hold the arguments and then the value, and the order
/// is `(time, ingestion order)` — or `(time, first argument, ingestion
/// order)` when the plan reads the fluent with its first argument bound, so
/// that `holdsAt(gps(Bus, …), T)` is one binary search.
pub(crate) struct CObsKind {
    facts: Facts,
    pub(crate) by_first: bool,
}

/// The first argument of an observation (its row ends with the value).
fn first_arg<'a>(rows: &'a Rows, f: &Fact) -> Option<&'a Term> {
    let row = rows.get(f.row);
    (row.len() > 1).then(|| &row[0])
}

impl CObsKind {
    fn first(&self, f: &Fact) -> Option<&Term> {
        first_arg(&self.facts.rows, f)
    }

    /// Slides the kind to window `w`; see [`CEventKind::slide`].
    fn slide(&mut self, w: Slide, counts: &mut StoreCounts) -> Time {
        let expired = self.facts.stage(w, counts);
        self.admit(expired)
    }

    /// Sorts the staged facts and merges them in behind an expired head of
    /// `expired` facts.
    fn admit(&mut self, expired: usize) -> Time {
        use std::cmp::Ordering::Equal;
        let CObsKind { facts: Facts { items, rows, delta, .. }, by_first } = self;
        if expired == 0 && delta.is_empty() {
            return TIME_MAX;
        }
        let rows: &Rows = rows;
        let order = |a: &Fact, b: &Fact| {
            let first =
                || if *by_first { first_arg(rows, a).cmp(&first_arg(rows, b)) } else { Equal };
            a.time.cmp(&b.time).then_with(first).then_with(|| rows.seq_cmp(a, b))
        };
        delta.sort_unstable_by(order);
        items.drain(..expired);
        merge_in(items, delta, |a, b| order(a, b).is_gt(), |_| {}, |_, _| {});
        delta.first().map_or(TIME_MAX, |f| f.time)
    }

    /// Observations at time `t` — with `first`, only those whose first
    /// argument it is (the plan asked for the `(time, first)` order then).
    pub(crate) fn at<'a>(
        &'a self,
        t: Time,
        first: Option<&'a Term>,
    ) -> impl Iterator<Item = usize> + 'a {
        debug_assert!(first.is_none() || self.by_first, "the plan asked for this order");
        let items = &self.facts.items;
        let a = match first {
            Some(_) => items.partition_point(|f| (f.time, self.first(f)) < (t, first)),
            None => items.partition_point(|f| f.time < t),
        };
        (a..items.len()).take_while(move |&i| {
            let f = &items[i];
            f.time == t && (first.is_none() || self.first(f) == first)
        })
    }

    fn row(&self, i: usize) -> &[Term] {
        self.facts.rows.get(self.facts.items[i].row)
    }

    pub(crate) fn args(&self, i: usize) -> &[Term] {
        let row = self.row(i);
        &row[..row.len() - 1]
    }

    pub(crate) fn value(&self, i: usize) -> &Term {
        let row = self.row(i);
        &row[row.len() - 1]
    }
}

/// All window observations, slot-indexed by fluent name. Retained across
/// windows like [`CEventStore`]; every kind is an input.
pub(crate) struct CObsStore {
    pub(crate) kinds: Vec<CObsKind>,
}

impl CObsStore {
    /// One kind per slot, ordered as `plan.needs.obs_first` asks.
    pub(crate) fn new(plan: &CompiledPlan) -> CObsStore {
        let mut arity = vec![0usize; plan.n_slots()];
        for (&sym, &a) in &plan.rules.input_fluents {
            arity[plan.slots.slot(sym).expect("input fluents have slots") as usize] = a;
        }
        let kind = |(&by_first, a): (&bool, usize)| CObsKind { facts: Facts::new(a + 1), by_first };
        CObsStore { kinds: plan.needs.obs_first.iter().zip(arity).map(kind).collect() }
    }

    /// Writes one observation into its kind; see [`CEventStore::ingest`].
    pub(crate) fn ingest(
        &mut self,
        slot: SlotId,
        seen: bool,
        meta: (u64, Time),
        time: Time,
        args: &[Term],
        value: &Term,
    ) {
        self.kinds[slot as usize].facts.ingest(seen, meta, time, args.iter().chain([value]));
    }

    /// Admits the staged `seen` facts of a restore.
    pub(crate) fn admit_staged(&mut self) {
        for kind in &mut self.kinds {
            kind.admit(0);
        }
    }

    /// Slides every kind to window `w`; see [`CEventStore::slide`].
    pub(crate) fn slide(
        &mut self,
        w: Slide,
        frontiers: &mut [Time],
        counts: &mut StoreCounts,
    ) -> usize {
        let mut visible = 0;
        for (kind, frontier) in self.kinds.iter_mut().zip(frontiers) {
            if kind.facts.len() > 0 {
                *frontier = kind.slide(w, counts);
                visible += kind.facts.items.len();
            }
        }
        visible
    }

    /// Observations held, admitted and pending.
    pub(crate) fn buffered(&self) -> usize {
        self.kinds.iter().map(|k| k.facts.len()).sum()
    }

    /// Every observation of kind `slot`, admitted then pending.
    pub(crate) fn facts(&self, slot: SlotId) -> impl Iterator<Item = FactRef<'_>> {
        self.kinds[slot as usize].facts.refs()
    }

    /// See [`CEventStore::since`].
    pub(crate) fn since(
        &self,
        slot: SlotId,
        cursor: u64,
        start: Time,
    ) -> impl Iterator<Item = FactRef<'_>> {
        self.kinds[slot as usize].facts.since(cursor, start)
    }

    /// See [`CEventStore::track`].
    pub(crate) fn track(&mut self) {
        for kind in &mut self.kinds {
            kind.facts.track();
        }
    }

    pub(crate) fn visit_caps(&self, f: &mut impl FnMut(usize)) {
        for k in &self.kinds {
            k.facts.visit_caps(f);
        }
    }
}

/// Derived fluent groundings of one name with pooled argument terms and one
/// [`ColIndex`] per column the plan probes.
pub(crate) struct CFluentSlot {
    /// `(args offset, args len, value, intervals)` per grounding.
    entries: Vec<(u32, u16, Term, IntervalList)>,
    pool: Vec<Term>,
    by_col: Vec<ColIndex>,
}

impl CFluentSlot {
    fn clear(&mut self) {
        self.entries.clear();
        self.pool.clear();
        for ix in &mut self.by_col {
            ix.entries.clear();
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }

    fn args(&self, i: usize) -> &[Term] {
        let (off, len, _, _) = self.entries[i];
        &self.pool[off as usize..off as usize + len as usize]
    }

    fn value(&self, i: usize) -> &Term {
        &self.entries[i].2
    }

    fn ivs(&self, i: usize) -> &IntervalList {
        &self.entries[i].3
    }

    fn visit_caps(&self, f: &mut impl FnMut(usize)) {
        f(self.entries.capacity());
        f(self.pool.capacity());
        for ix in &self.by_col {
            f(ix.entries.capacity());
        }
    }
}

/// All derived fluent groundings computed so far this window, slot-indexed.
/// Retained across windows by the slot-state cycle.
pub(crate) struct CFluentStore {
    slots: Vec<CFluentSlot>,
}

impl CFluentStore {
    /// One slot per symbol, indexed on the columns `needs.fluents` names.
    pub(crate) fn new(needs: &IndexNeeds) -> CFluentStore {
        let slot = |cols: &Vec<u16>| CFluentSlot {
            entries: Vec::new(),
            pool: Vec::new(),
            by_col: cols.iter().map(|&c| ColIndex::new(c)).collect(),
        };
        CFluentStore { slots: needs.fluents.iter().map(slot).collect() }
    }

    pub(crate) fn clear(&mut self) {
        for s in &mut self.slots {
            s.clear();
        }
    }

    /// Appends one grounding to a slot without sorting its indexes; call
    /// [`CFluentStore::finish_slot`] after the slot's stratum completes.
    pub(crate) fn insert_entry(
        &mut self,
        slot: SlotId,
        args: &[Term],
        value: &Term,
        ivs: &IntervalList,
    ) {
        let fs = &mut self.slots[slot as usize];
        for ix in &mut fs.by_col {
            ix.push(args, fs.entries.len());
        }
        let off = fs.pool.len() as u32;
        fs.pool.extend(args.iter().cloned());
        fs.entries.push((off, args.len() as u16, value.clone(), ivs.clone()));
    }

    /// Sorts the slot's indexes (once per stratum, not per lookup).
    pub(crate) fn finish_slot(&mut self, slot: SlotId) {
        for ix in &mut self.slots[slot as usize].by_col {
            ix.sort();
        }
    }

    pub(crate) fn visit_caps(&self, f: &mut impl FnMut(usize)) {
        for s in &self.slots {
            s.visit_caps(f);
        }
    }
}

/// One finite relation with the indexes the plan names, built once when the
/// tuples are set ([`crate::engine::Engine::set_relation`]); a relation that
/// is never set is built from no tuples, so its indexes exist and are empty.
pub(crate) struct CRelation {
    tuples: Vec<Vec<Term>>,
    /// Equality indexes, in the plan's numbering.
    eq: Vec<ColIndex>,
    /// Sorted `(value, tuple index)` per numeric column, in the plan's
    /// numbering. A tuple whose column is not a number (or is NaN) is left
    /// out: every comparison guard over it is false.
    num: Vec<Vec<(f64, u32)>>,
}

impl CRelation {
    /// Indexes `tuples` on the given equality and numeric columns.
    pub(crate) fn build(tuples: Vec<Vec<Term>>, eq_cols: &[u16], num_cols: &[u16]) -> CRelation {
        let eq = eq_cols
            .iter()
            .map(|&c| {
                let mut ix = ColIndex::new(c);
                for (i, t) in tuples.iter().enumerate() {
                    ix.push(t, i);
                }
                ix.sort();
                ix
            })
            .collect();
        let num = num_cols
            .iter()
            .map(|&c| {
                let mut col: Vec<(f64, u32)> = tuples
                    .iter()
                    .enumerate()
                    .filter_map(|(i, t)| Some((t.get(c as usize)?.as_f64()?, i as u32)))
                    .filter(|(v, _)| !v.is_nan())
                    .collect();
                col.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
                col
            })
            .collect();
        CRelation { tuples, eq, num }
    }

    /// Tuples whose value in numeric index `index` is in `[lo, hi]`.
    fn band(&self, index: u16, lo: f64, hi: f64) -> impl Iterator<Item = &[Term]> {
        let col = &self.num[index as usize];
        let a = col.partition_point(|e| e.0 < lo);
        col[a..].iter().take_while(move |e| e.0 <= hi).map(|e| self.tuples[e.1 as usize].as_slice())
    }
}

/// The compiled evaluation context: dense stores plus dense operand tables.
#[derive(Clone, Copy)]
pub(crate) struct CCtx<'a> {
    pub(crate) events: &'a CEventStore,
    pub(crate) obs: &'a CObsStore,
    pub(crate) fluents: &'a CFluentStore,
    pub(crate) relations: &'a [CRelation],
    pub(crate) builtins: &'a [Option<BuiltinFn>],
}

// ---------------------------------------------------------------------------
// Per-thread scratch arena
// ---------------------------------------------------------------------------

/// Counted solver work: exact for a given plan and input, whatever the host
/// does, so it can be gated where wall time cannot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SolveWork {
    /// Solver steps: one per atom visited and one per solution delivered.
    pub steps: u64,
    /// Candidates examined: events, observations, derived-fluent groundings
    /// and relation tuples a probe handed to the matcher.
    pub candidates: u64,
}

impl std::ops::AddAssign for SolveWork {
    fn add_assign(&mut self, o: SolveWork) {
        self.steps += o.steps;
        self.candidates += o.candidates;
    }
}

impl std::ops::Sub for SolveWork {
    type Output = SolveWork;
    fn sub(self, o: SolveWork) -> SolveWork {
        SolveWork { steps: self.steps - o.steps, candidates: self.candidates - o.candidates }
    }
}

/// Reusable per-thread evaluation scratch: the bindings environment, the
/// evidence-span stack, the binding trail and the builtin argument buffer.
/// All buffers retain their capacity across
/// windows, so steady-state evaluation performs **zero** allocations here —
/// [`scratch_allocations`] counts every capacity growth so tests can prove
/// it. The thread's [`SolveWork`] counters live here too: plain integers,
/// bumped by the solver that has the scratch checked out.
pub(crate) struct SolveScratch {
    b: Bindings,
    spans: Vec<Time>,
    trail: Vec<VarId>,
    args_buf: Vec<Term>,
    work: SolveWork,
    active: bool,
    allocations: u64,
}

impl SolveScratch {
    fn new() -> SolveScratch {
        SolveScratch {
            b: Bindings::new(0),
            spans: Vec::new(),
            trail: Vec::new(),
            args_buf: Vec::new(),
            work: SolveWork::default(),
            active: false,
            allocations: 0,
        }
    }

    fn capacities(&self) -> [usize; 4] {
        [self.b.capacity(), self.spans.capacity(), self.trail.capacity(), self.args_buf.capacity()]
    }
}

thread_local! {
    static SCRATCH: RefCell<SolveScratch> = RefCell::new(SolveScratch::new());
}

/// An engine's own solve buffers: the bindings environment, evidence-span
/// stack, binding trail and builtin argument buffer of [`SolveScratch`],
/// lent to the calling thread for the engine's queries by [`OwnBuffers`].
pub(crate) struct SolveBuffers {
    b: Bindings,
    spans: Vec<Time>,
    trail: Vec<VarId>,
    args_buf: Vec<Term>,
}

impl Default for SolveBuffers {
    fn default() -> SolveBuffers {
        SolveBuffers {
            b: Bindings::new(0),
            spans: Vec::new(),
            trail: Vec::new(),
            args_buf: Vec::new(),
        }
    }
}

/// While alive, an engine's [`SolveBuffers`] stand in for the calling
/// thread's, so their capacity — and the growths the thread's allocation
/// counter charges ([`scratch_allocations`]) — follows the engine, not
/// whichever engines ran on the thread before it: a worker pool runs region
/// engines on any of its threads. The thread's [`SolveWork`] and allocation
/// counters stay with the thread. Dropping it hands the buffers back.
pub(crate) struct OwnBuffers<'a>(&'a mut SolveBuffers);

impl OwnBuffers<'_> {
    pub(crate) fn lend(own: &mut SolveBuffers) -> OwnBuffers<'_> {
        let mut lent = OwnBuffers(own);
        lent.swap();
        lent
    }

    fn swap(&mut self) {
        SCRATCH.with(|cell| {
            let mut s = cell.borrow_mut();
            debug_assert!(!s.active, "solve scratch swapped while checked out");
            std::mem::swap(&mut s.b, &mut self.0.b);
            std::mem::swap(&mut s.spans, &mut self.0.spans);
            std::mem::swap(&mut s.trail, &mut self.0.trail);
            std::mem::swap(&mut s.args_buf, &mut self.0.args_buf);
        });
    }
}

impl Drop for OwnBuffers<'_> {
    fn drop(&mut self) {
        self.swap();
    }
}

/// Runs `f` with this thread's solve scratch checked out. Balanced and
/// non-reentrant by construction (`RefCell` + debug guard); capacity growth
/// during `f` is charged to the allocation counter.
fn with_scratch<R>(f: impl FnOnce(&mut SolveScratch) -> R) -> R {
    SCRATCH.with(|cell| {
        let mut s = cell.borrow_mut();
        debug_assert!(!s.active, "solve scratch checked out twice");
        s.active = true;
        let before = s.capacities();
        let r = f(&mut s);
        let after = s.capacities();
        s.allocations += before.iter().zip(&after).filter(|(b, a)| a > b).count() as u64;
        debug_assert!(s.active, "solve scratch released early");
        s.active = false;
        debug_assert!(s.trail.is_empty(), "binding trail must unwind fully");
        debug_assert!(s.spans.is_empty(), "evidence spans must unwind fully");
        r
    })
}

/// Number of scratch-arena allocations (buffer growths) performed by the
/// calling thread's rule evaluation so far. Steady-state windows leave this
/// counter unchanged — the hot-path allocation
/// regression test asserts exactly that.
pub fn scratch_allocations() -> u64 {
    SCRATCH.with(|cell| cell.borrow().allocations)
}

/// The solver work the calling thread has done so far (every engine it has
/// queried). Engines report per-query and per-stratum differences of it.
pub(crate) fn solve_work() -> SolveWork {
    SCRATCH.with(|cell| cell.borrow().work)
}

// ---------------------------------------------------------------------------
// The compiled solver
// ---------------------------------------------------------------------------

pub(crate) fn term_time(t: &Term) -> Option<Time> {
    t.as_i64()
}

fn resolve(v: &ValRef, b: &Bindings) -> Option<Term> {
    match v {
        ValRef::Const(t) => Some(t.clone()),
        ValRef::Var(var) => b.get(*var).cloned(),
    }
}

fn eval_num(e: &NumExpr, b: &Bindings) -> Option<f64> {
    match e {
        NumExpr::Var(v) => b.get(*v)?.as_f64(),
        NumExpr::Const(c) => Some(*c),
        NumExpr::Add(l, r) => Some(eval_num(l, b)? + eval_num(r, b)?),
        NumExpr::Sub(l, r) => Some(eval_num(l, b)? - eval_num(r, b)?),
        NumExpr::Mul(l, r) => Some(eval_num(l, b)? * eval_num(r, b)?),
        NumExpr::Abs(x) => Some(eval_num(x, b)?.abs()),
    }
}

fn eval_guard(g: &GuardExpr, b: &Bindings) -> bool {
    match g {
        GuardExpr::Cmp { lhs, op, rhs } => match (eval_num(lhs, b), eval_num(rhs, b)) {
            (Some(l), Some(r)) => op.apply(l, r),
            _ => false,
        },
        GuardExpr::TermEq(l, r) => match (resolve(l, b), resolve(r, b)) {
            (Some(l), Some(r)) => l == r,
            _ => false,
        },
        GuardExpr::TermNe(l, r) => match (resolve(l, b), resolve(r, b)) {
            (Some(l), Some(r)) => l != r,
            _ => false,
        },
        GuardExpr::And(gs) => gs.iter().all(|g| eval_guard(g, b)),
        GuardExpr::Or(gs) => gs.iter().any(|g| eval_guard(g, b)),
        GuardExpr::Not(g) => !eval_guard(g, b),
    }
}

/// Solves one lowered body relative to a change frontier: the full program
/// when the frontier is at or below the window start, otherwise one pivot
/// program per happens atom.
pub(crate) fn solve_frontier_c(
    ctx: CCtx<'_>,
    body: &CBody,
    n_vars: usize,
    frontier: Time,
    window_start: Time,
    out: &mut dyn FnMut(&mut Bindings, &[Time]),
) {
    with_scratch(|s| {
        if frontier <= window_start {
            Solver::new(ctx, TIME_MIN, n_vars, s, out).solve_c(&body.full);
        } else {
            for prog in &body.pivots {
                Solver::new(ctx, frontier, n_vars, s, out).solve_c(prog);
            }
        }
    });
}

/// Fully solves a static rule's lowered domain program (statics never
/// delta-bound — expiry can shrink event-driven domains silently).
pub(crate) fn solve_domain_c(
    ctx: CCtx<'_>,
    atoms: &[CAtom],
    n_vars: usize,
    out: &mut dyn FnMut(&mut Bindings, &[Time]),
) {
    with_scratch(|s| Solver::new(ctx, TIME_MIN, n_vars, s, out).solve_c(atoms));
}

/// The term a planned [`Access::Column`] probes with.
fn probe_term<'b>(pat: &'b ArgPat, b: &'b Bindings) -> &'b Term {
    match pat {
        ArgPat::Const(c) => c,
        ArgPat::Var(v) => b.get(*v).expect("the planner only probes bound columns"),
        ArgPat::Any => unreachable!("the planner only probes bound columns"),
    }
}

/// Whether a fluent pattern matches `(args, value)`; always rolls back.
fn fluent_matches_c(
    pat: &FluentPattern,
    args: &[Term],
    value: &Term,
    b: &mut Bindings,
    trail: &mut Vec<VarId>,
) -> bool {
    let mark = trail.len();
    let hit = match_args_trail(&pat.args, args, b, trail)
        && match_args_trail(
            std::slice::from_ref(&pat.value),
            std::slice::from_ref(value),
            b,
            trail,
        );
    undo_trail(trail, mark, b);
    hit
}

/// One depth-first resolution of a planned program over the thread's
/// scratch. Allocation-free: roles and access paths come baked into the
/// atoms, symbol lookups are slot-indexed array reads, newly bound variables
/// go onto the shared trail, and builtin arguments resolve into a reusable
/// buffer.
struct Solver<'a, 'o> {
    ctx: CCtx<'a>,
    frontier: Time,
    s: &'a mut SolveScratch,
    out: &'o mut dyn FnMut(&mut Bindings, &[Time]),
}

impl<'a, 'o> Solver<'a, 'o> {
    fn new(
        ctx: CCtx<'a>,
        frontier: Time,
        n_vars: usize,
        s: &'a mut SolveScratch,
        out: &'o mut dyn FnMut(&mut Bindings, &[Time]),
    ) -> Solver<'a, 'o> {
        s.b.reset(n_vars);
        Solver { ctx, frontier, s, out }
    }

    /// Matches one event against a pattern + time variable; on success
    /// solves `rest` under the extended environment, then rolls everything
    /// back. The event time is on the evidence stack while `rest` runs.
    fn try_event(
        &mut self,
        pat: &EventPattern,
        time: VarId,
        t: Time,
        args: &[Term],
        rest: &[CAtom],
    ) {
        self.s.work.candidates += 1;
        let t_term = Term::Int(t);
        let time_was_bound = self.s.b.is_bound(time);
        if time_was_bound {
            if self.s.b.get(time) != Some(&t_term) {
                return;
            }
        } else if !self.s.b.bind(time, &t_term) {
            return;
        }
        let mark = self.s.trail.len();
        if match_args_trail(&pat.args, args, &mut self.s.b, &mut self.s.trail) {
            self.s.spans.push(t);
            self.solve_c(rest);
            self.s.spans.pop();
            undo_trail(&mut self.s.trail, mark, &mut self.s.b);
        }
        if !time_was_bound {
            self.s.b.unbind(time);
        }
    }

    /// Matches a fluent pattern against `(args, value)`; on success solves
    /// `rest`, then rolls back.
    fn try_fluent(&mut self, pat: &FluentPattern, args: &[Term], value: &Term, rest: &[CAtom]) {
        let SolveScratch { b, trail, .. } = &mut *self.s;
        let mark = trail.len();
        if match_args_trail(&pat.args, args, b, trail) {
            if match_args_trail(
                std::slice::from_ref(&pat.value),
                std::slice::from_ref(value),
                b,
                trail,
            ) {
                self.solve_c(rest);
            }
            undo_trail(&mut self.s.trail, mark, &mut self.s.b);
        }
    }

    /// Resolves `atoms` left to right, tracking the evidence times of the
    /// current partial solution (every matched event time and every fluent
    /// read time) and delivering each complete solution to `out`. The
    /// atom's planned [`Access`] is the only dispatch: nothing here asks
    /// what happens to be bound.
    fn solve_c(&mut self, atoms: &[CAtom]) {
        self.s.work.steps += 1;
        let Some((atom, rest)) = atoms.split_first() else {
            (self.out)(&mut self.s.b, &self.s.spans);
            return;
        };
        match atom {
            CAtom::Happens { slot, pat, time, role, access, range } => {
                let ks = &self.ctx.events.kinds[*slot as usize];
                if ks.is_empty() {
                    return;
                }
                let (role_lo, role_hi) = match role {
                    HappensRole::Pivot => (self.frontier, TIME_MAX),
                    HappensRole::Before => (TIME_MIN, self.frontier.saturating_sub(1)),
                    HappensRole::Free => (TIME_MIN, TIME_MAX),
                };
                let Some((lo, hi)) = time_window(role_lo, role_hi, range, &self.s.b) else {
                    return;
                };
                match *access {
                    Access::Column { col, index } => {
                        // Terms are fully inline (no heap), so this clone is
                        // free; it releases the borrow of the environment.
                        let key = probe_term(&pat.args[col as usize], &self.s.b).clone();
                        for i in ks.col_range(index, &key, lo, hi) {
                            self.try_event(pat, *time, ks.time(i), ks.args(i), rest);
                        }
                    }
                    Access::Scan => {
                        for i in ks.time_range(lo, hi) {
                            self.try_event(pat, *time, ks.time(i), ks.args(i), rest);
                        }
                    }
                    Access::Range { .. } => unreachable!("only relation columns are ranged"),
                }
            }
            CAtom::HoldsInput { slot, pat, time, negated, access } => {
                let Some(t) = self.s.b.get(*time).and_then(term_time) else { return };
                let ks = &self.ctx.obs.kinds[*slot as usize];
                let first = match access {
                    Access::Column { .. } => Some(probe_term(&pat.args[0], &self.s.b).clone()),
                    _ => None,
                };
                self.s.spans.push(t);
                let mut exists = false;
                for i in ks.at(t, first.as_ref()) {
                    self.s.work.candidates += 1;
                    if *negated {
                        let SolveScratch { b, trail, .. } = &mut *self.s;
                        exists = fluent_matches_c(pat, ks.args(i), ks.value(i), b, trail);
                        if exists {
                            break;
                        }
                    } else {
                        self.try_fluent(pat, ks.args(i), ks.value(i), rest);
                    }
                }
                if *negated && !exists {
                    self.solve_c(rest);
                }
                self.s.spans.pop();
            }
            CAtom::HoldsDerived { slot, pat, time, negated, access } => {
                let Some(t) = self.s.b.get(*time).and_then(term_time) else { return };
                let fs = &self.ctx.fluents.slots[*slot as usize];
                self.s.spans.push(t);
                // One body for both access paths. For a negated read it
                // answers "does this grounding hold and match?" (the walk
                // stops at the first that does); for a positive one it
                // solves `rest` under each match and never stops the walk.
                let visit = |this: &mut Self, i: usize| -> bool {
                    this.s.work.candidates += 1;
                    if !fs.ivs(i).contains(t) {
                        return false;
                    }
                    if *negated {
                        let SolveScratch { b, trail, .. } = &mut *this.s;
                        fluent_matches_c(pat, fs.args(i), fs.value(i), b, trail)
                    } else {
                        this.try_fluent(pat, fs.args(i), fs.value(i), rest);
                        false
                    }
                };
                let exists = match *access {
                    Access::Column { col, index } => {
                        let key = probe_term(&pat.args[col as usize], &self.s.b).clone();
                        let mut hits = fs.by_col[index as usize].equal(&key);
                        hits.any(|i| visit(self, i))
                    }
                    _ => (0..fs.len()).any(|i| visit(self, i)),
                };
                if *negated && !exists {
                    self.solve_c(rest);
                }
                self.s.spans.pop();
            }
            CAtom::Relation { idx, args, access, range } => {
                let rel = &self.ctx.relations[*idx as usize];
                let visit = |this: &mut Self, tuple: &[Term]| {
                    this.s.work.candidates += 1;
                    let mark = this.s.trail.len();
                    if match_args_trail(args, tuple, &mut this.s.b, &mut this.s.trail) {
                        this.solve_c(rest);
                        undo_trail(&mut this.s.trail, mark, &mut this.s.b);
                    }
                };
                match *access {
                    Access::Column { col, index } => {
                        let key = probe_term(&args[col as usize], &self.s.b).clone();
                        for i in rel.eq[index as usize].equal(&key) {
                            visit(self, &rel.tuples[i]);
                        }
                    }
                    Access::Range { index } => {
                        let (lo, hi) = range.band(&self.s.b);
                        for tuple in rel.band(index, lo, hi) {
                            visit(self, tuple);
                        }
                    }
                    Access::Scan => {
                        for tuple in &rel.tuples {
                            visit(self, tuple);
                        }
                    }
                }
            }
            CAtom::Builtin { idx, args } => {
                let Some(f) = self.ctx.builtins[*idx as usize].as_ref() else { return };
                let SolveScratch { b, args_buf, .. } = &mut *self.s;
                args_buf.clear();
                for a in args {
                    match resolve(a, b) {
                        Some(t) => args_buf.push(t),
                        None => {
                            args_buf.clear();
                            return;
                        }
                    }
                }
                let ok = f(args_buf);
                // Cleared before recursing so a later builtin in `rest` can
                // reuse the same buffer.
                args_buf.clear();
                if ok {
                    self.solve_c(rest);
                }
            }
            CAtom::Guard(g) => {
                if eval_guard(g, &self.s.b) {
                    self.solve_c(rest);
                }
            }
        }
    }
}

/// Evaluates a lowered interval expression under one solution environment.
/// Every node writes its (normalised, contiguous) result into `arena`
/// scratch and returns an index range, so expression evaluation allocates
/// nothing once the arena and `ranges` buffer are warm; entries are probed
/// through the trail instead of cloning the environment. The caller owns the arena lifetime — mark
/// before, truncate after consuming the returned range.
pub(crate) fn eval_interval_expr_into(
    expr: &CIntervalExpr,
    b: &mut Bindings,
    trail: &mut Vec<VarId>,
    fluents: &CFluentStore,
    arena: &mut IntervalArena,
    ranges: &mut Vec<IvRange>,
    candidates: &mut u64,
) -> IvRange {
    match expr {
        CIntervalExpr::Fluent { slot, pat, access } => {
            let mark = arena.mark();
            let fs = &fluents.slots[*slot as usize];
            let mut visit = |i: usize, b: &mut Bindings| {
                *candidates += 1;
                if fluent_matches_c(pat, fs.args(i), fs.value(i), b, trail) {
                    arena.copy_in(fs.ivs(i).as_slice());
                }
            };
            match *access {
                Access::Column { col, index } => {
                    let key = probe_term(&pat.args[col as usize], b).clone();
                    fs.by_col[index as usize].equal(&key).for_each(|i| visit(i, b));
                }
                _ => (0..fs.len()).for_each(|i| visit(i, b)),
            }
            arena.union_finish(mark)
        }
        CIntervalExpr::Union(es) => {
            let mark = arena.mark();
            for e in es {
                eval_interval_expr_into(e, b, trail, fluents, arena, ranges, candidates);
            }
            arena.union_finish(mark)
        }
        CIntervalExpr::Intersect(es) => {
            let mark = arena.mark();
            let rs = ranges.len();
            for e in es {
                let r = eval_interval_expr_into(e, b, trail, fluents, arena, ranges, candidates);
                ranges.push(r);
            }
            let out = arena.intersect_all_into(mark, &ranges[rs..]);
            ranges.truncate(rs);
            out
        }
        CIntervalExpr::RelComp(base, subs) => {
            let mark = arena.mark();
            let base_r =
                eval_interval_expr_into(base, b, trail, fluents, arena, ranges, candidates);
            let sub_mark = arena.mark();
            for e in subs {
                eval_interval_expr_into(e, b, trail, fluents, arena, ranges, candidates);
            }
            let d = arena.relative_complement_all_into(base_r, sub_mark);
            arena.collapse(mark, d)
        }
    }
}
