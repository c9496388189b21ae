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
//! can touch is resolved to a dense integer *slot* ([`SlotMap`]), strata are
//! flattened into a topologically-ordered instruction array, and each rule
//! body is lowered into [`CAtom`] programs — one full-solve program plus one
//! delta-bounded pivot program per `happensAt` atom, with the
//! delta-bounding role baked into each `Happens` operand. The plan owns its
//! rule set, is immutable and `Arc`-shared: shard replicas and region
//! engines built from the same rule set reuse one plan
//! ([`crate::engine::Engine::with_plan`]), and checkpoint snapshots exclude
//! it entirely (it is derived state, rebuilt deterministically from the rule
//! set on restore).
//!
//! At query time the solver ([`solve_c`]) runs over slot-indexed window
//! stores ([`CEventStore`], [`CObsStore`], [`CFluentStore`]) — array
//! indexing and binary search only, no string or hash lookups and no
//! interner locks — and draws all of its scratch (bindings, evidence spans,
//! binding trail, builtin argument buffer) from a per-thread
//! [`SolveScratch`] arena that never allocates in steady state.
//! [`scratch_allocations`] exposes the arena's growth counter so tests can
//! assert the zero-allocation property per window.

use crate::dsl::RuleSet;
use crate::engine::BuiltinFn;
use crate::interval::{IntervalArena, IntervalList, IvRange};
use crate::pattern::{
    match_args_trail, undo_trail, ArgPat, Bindings, EventPattern, FluentPattern, VarId,
};
use crate::rule::{BodyAtom, GuardExpr, IntervalExpr, NumExpr, StaticRule, ValRef};
use crate::stratify::{body_deps, HeadKind};
use crate::term::{Symbol, Term};
use crate::time::{Time, TIME_MAX, TIME_MIN};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Index of a pre-resolved symbol in a [`CompiledPlan`]'s dense tables.
pub type SlotId = u32;

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
/// slot, input/derived fluent discrimination done at compile time, and the
/// delta-bounding role baked in.
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
    },
    /// A finite-relation membership condition.
    Relation {
        /// Index into the engine's dense relation table.
        idx: u32,
        /// The argument pattern.
        args: Vec<ArgPat>,
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

/// One lowered body: the full-solve program plus one delta-bounded pivot
/// program per `happensAt` atom. Pivoting is safe — pattern atoms only *add*
/// bindings and all other atoms keep their relative order, so binding
/// prerequisites still hold with the pivot moved to the front.
#[derive(Debug, Clone)]
pub(crate) struct CBody {
    /// All atoms in body order, every role `Free` (full re-solve).
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
    /// Lowered domain atoms (all roles `Free`; statics always solve fully).
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
    signature: u64,
}

static PLANS_COMPILED: AtomicU64 = AtomicU64::new(0);

/// Number of plans this process has compiled so far. Nothing compiles behind
/// the caller's back — only [`CompiledPlan::compile`] does, directly or
/// through [`crate::engine::Engine::new`] — so a topology that shares its
/// plan moves this counter by exactly one, however many engines it builds
/// (or rebuilds after a crash) over it.
pub fn plans_compiled() -> u64 {
    PLANS_COMPILED.load(Ordering::Relaxed)
}

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

        let lower_body = |body: &[BodyAtom]| -> CBody {
            let full: Vec<CAtom> =
                body.iter().map(|a| lower_atom(a, &rules, &slots, &rel_idx, &bi_idx)).collect();
            let mut pivots = Vec::new();
            for (pi, atom) in full.iter().enumerate() {
                if !matches!(atom, CAtom::Happens { .. }) {
                    continue;
                }
                // Program `pi` enumerates exactly the derivations whose
                // *first* happens atom (in body order) at or after the
                // frontier is atom `pi`: the pivot moves to the front,
                // earlier happens atoms become `Before`, everything else
                // stays `Free`.
                let mut prog = Vec::with_capacity(full.len());
                prog.push(with_role(atom.clone(), HappensRole::Pivot));
                for (j, a) in full.iter().enumerate() {
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
                pivots.push(prog);
            }
            CBody { full, pivots }
        };

        let ev_bodies: Vec<CBody> = rules.ev_rules.iter().map(|r| lower_body(&r.body)).collect();
        let sf_bodies: Vec<CBody> = rules.sf_rules.iter().map(|r| lower_body(&r.body)).collect();
        let static_bodies: Vec<CStatic> = rules
            .static_rules
            .iter()
            .map(|r| CStatic {
                domain: r
                    .domain
                    .iter()
                    .map(|a| lower_atom(a, &rules, &slots, &rel_idx, &bi_idx))
                    .collect(),
                expr: lower_expr(&r.expr, &slots),
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

        let mut plan = CompiledPlan {
            rules,
            slots,
            instrs,
            ev_bodies,
            sf_bodies,
            static_bodies,
            relation_syms,
            builtin_syms,
            signature: 0,
        };
        plan.signature = plan.fingerprint();
        Arc::new(plan)
    }

    /// The rule set this plan was compiled from.
    pub fn ruleset(&self) -> &RuleSet {
        &self.rules
    }

    /// A deterministic fingerprint of the plan's structure: two plans
    /// compiled from the same rule set have equal signatures, which is how
    /// checkpoint-restore tests prove the plan rebuilds identically.
    pub fn signature(&self) -> u64 {
        self.signature
    }

    /// Number of dense symbol slots.
    pub fn n_slots(&self) -> usize {
        self.slots.len()
    }

    /// Number of strata in the instruction array.
    pub fn n_strata(&self) -> usize {
        self.instrs.len()
    }

    fn fingerprint(&self) -> u64 {
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
        h
    }
}

impl std::fmt::Debug for CompiledPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledPlan")
            .field("slots", &self.slots.len())
            .field("strata", &self.instrs.len())
            .field("signature", &format_args!("{:016x}", self.signature))
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
        CAtom::Happens { slot, pat, time, .. } => CAtom::Happens { slot, pat, time, role },
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
        },
        BodyAtom::Holds { pat, time, negated } => {
            let slot = slots.slot(pat.name).expect("fluent declared or derived");
            if rules.input_fluents.contains_key(&pat.name) {
                CAtom::HoldsInput { slot, pat: pat.clone(), time: *time, negated: *negated }
            } else {
                CAtom::HoldsDerived { slot, pat: pat.clone(), time: *time, negated: *negated }
            }
        }
        BodyAtom::Relation { name, args } => CAtom::Relation {
            idx: *rel_idx.get(name).expect("relation declared"),
            args: args.clone(),
        },
        BodyAtom::Builtin { name, args } => {
            CAtom::Builtin { idx: *bi_idx.get(name).expect("builtin declared"), args: args.clone() }
        }
        BodyAtom::Guard(g) => CAtom::Guard(g.clone()),
    }
}

fn lower_expr(expr: &IntervalExpr, slots: &SlotMap) -> CIntervalExpr {
    match expr {
        IntervalExpr::Fluent(pat) => CIntervalExpr::Fluent {
            slot: slots.slot(pat.name).expect("fluent declared or derived"),
            pat: pat.clone(),
        },
        IntervalExpr::Union(es) => {
            CIntervalExpr::Union(es.iter().map(|e| lower_expr(e, slots)).collect())
        }
        IntervalExpr::Intersect(es) => {
            CIntervalExpr::Intersect(es.iter().map(|e| lower_expr(e, slots)).collect())
        }
        IntervalExpr::RelComp(base, subs) => CIntervalExpr::RelComp(
            Box::new(lower_expr(base, slots)),
            subs.iter().map(|e| lower_expr(e, slots)).collect(),
        ),
    }
}

// ---------------------------------------------------------------------------
// Slot-indexed window stores
// ---------------------------------------------------------------------------

/// Events of one kind, sorted by time. Argument terms live in a per-kind
/// pool (`items` holds `(time, offset, len)` triples) so refilling the store
/// each window reuses capacity instead of cloning a `Vec<Term>` per event; a
/// sorted `(first-arg, index)` side table narrows joins on a bound leading
/// argument by binary search.
#[derive(Default)]
pub(crate) struct CEventKind {
    items: Vec<(Time, u32, u16)>,
    pool: Vec<Term>,
    by_first: Vec<(Term, u32)>,
}

impl CEventKind {
    fn clear(&mut self) {
        self.items.clear();
        self.pool.clear();
        self.by_first.clear();
    }

    fn push(&mut self, time: Time, args: &[Term]) {
        let off = self.pool.len() as u32;
        self.pool.extend(args.iter().cloned());
        self.items.push((time, off, args.len() as u16));
    }

    fn rebuild(&mut self) {
        self.items.sort_by_key(|it| it.0);
        self.by_first.clear();
        for (i, &(_, off, len)) in self.items.iter().enumerate() {
            if len > 0 {
                self.by_first.push((self.pool[off as usize].clone(), i as u32));
            }
        }
        // Items are already time-sorted, so a stable sort by term keeps each
        // term's index run time-sorted too.
        self.by_first.sort_by(|a, b| a.0.cmp(&b.0));
    }

    fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    fn time(&self, i: usize) -> Time {
        self.items[i].0
    }

    fn args(&self, i: usize) -> &[Term] {
        let (_, off, len) = self.items[i];
        &self.pool[off as usize..off as usize + len as usize]
    }

    /// Indices of items whose first argument equals `t` and whose time is in
    /// `[lo, hi]`.
    fn first_range(&self, t: &Term, lo: Time, hi: Time) -> &[(Term, u32)] {
        let a = self
            .by_first
            .partition_point(|(k, i)| k < t || (k == t && self.items[*i as usize].0 < lo));
        let z = self
            .by_first
            .partition_point(|(k, i)| k < t || (k == t && self.items[*i as usize].0 <= hi));
        &self.by_first[a..z]
    }

    fn visit_caps(&self, f: &mut impl FnMut(usize)) {
        f(self.items.capacity());
        f(self.pool.capacity());
        f(self.by_first.capacity());
    }
}

/// All window events, slot-indexed by kind. Retained across windows by the
/// slot-state cycle: `clear` + `push` + `rebuild_all` refill it in place.
pub(crate) struct CEventStore {
    kinds: Vec<CEventKind>,
}

impl CEventStore {
    pub(crate) fn new(n_slots: usize) -> CEventStore {
        let mut kinds: Vec<CEventKind> = Vec::with_capacity(n_slots);
        kinds.resize_with(n_slots, CEventKind::default);
        CEventStore { kinds }
    }

    pub(crate) fn clear(&mut self) {
        for k in &mut self.kinds {
            k.clear();
        }
    }

    pub(crate) fn push(&mut self, slot: SlotId, time: Time, args: &[Term]) {
        self.kinds[slot as usize].push(time, args);
    }

    pub(crate) fn rebuild_all(&mut self) {
        for k in &mut self.kinds {
            if !k.is_empty() {
                k.rebuild();
            }
        }
    }

    pub(crate) fn rebuild_slot(&mut self, slot: SlotId) {
        self.kinds[slot as usize].rebuild();
    }

    pub(crate) fn visit_caps(&self, f: &mut impl FnMut(usize)) {
        for k in &self.kinds {
            k.visit_caps(f);
        }
    }
}

/// Input fluent observations of one name, sorted by time, with argument
/// terms pooled per kind like [`CEventKind`].
#[derive(Default)]
pub(crate) struct CObsKind {
    /// `(time, args offset, args len, value)`, sorted by time.
    items: Vec<(Time, u32, u16, Term)>,
    pool: Vec<Term>,
}

impl CObsKind {
    fn clear(&mut self) {
        self.items.clear();
        self.pool.clear();
    }

    fn push(&mut self, time: Time, args: &[Term], value: &Term) {
        let off = self.pool.len() as u32;
        self.pool.extend(args.iter().cloned());
        self.items.push((time, off, args.len() as u16, value.clone()));
    }

    fn sort(&mut self) {
        self.items.sort_by_key(|it| it.0);
    }

    fn range_at(&self, t: Time) -> std::ops::Range<usize> {
        let lo = self.items.partition_point(|it| it.0 < t);
        let hi = self.items.partition_point(|it| it.0 <= t);
        lo..hi
    }

    fn args(&self, i: usize) -> &[Term] {
        let (_, off, len, _) = self.items[i];
        &self.pool[off as usize..off as usize + len as usize]
    }

    fn value(&self, i: usize) -> &Term {
        &self.items[i].3
    }

    fn visit_caps(&self, f: &mut impl FnMut(usize)) {
        f(self.items.capacity());
        f(self.pool.capacity());
    }
}

/// All window observations, slot-indexed by fluent name. Retained across
/// windows like [`CEventStore`].
pub(crate) struct CObsStore {
    kinds: Vec<CObsKind>,
}

impl CObsStore {
    pub(crate) fn new(n_slots: usize) -> CObsStore {
        let mut kinds: Vec<CObsKind> = Vec::with_capacity(n_slots);
        kinds.resize_with(n_slots, CObsKind::default);
        CObsStore { kinds }
    }

    pub(crate) fn clear(&mut self) {
        for k in &mut self.kinds {
            k.clear();
        }
    }

    pub(crate) fn push(&mut self, slot: SlotId, time: Time, args: &[Term], value: &Term) {
        self.kinds[slot as usize].push(time, args, value);
    }

    pub(crate) fn sort_all(&mut self) {
        for k in &mut self.kinds {
            if !k.items.is_empty() {
                k.sort();
            }
        }
    }

    pub(crate) fn visit_caps(&self, f: &mut impl FnMut(usize)) {
        for k in &self.kinds {
            k.visit_caps(f);
        }
    }
}

/// Derived fluent groundings of one name with a sorted first-arg side table
/// and pooled argument terms.
#[derive(Default)]
pub(crate) struct CFluentSlot {
    /// `(args offset, args len, value, intervals)` per grounding.
    entries: Vec<(u32, u16, Term, IntervalList)>,
    pool: Vec<Term>,
    by_first: Vec<(Term, u32)>,
}

impl CFluentSlot {
    fn clear(&mut self) {
        self.entries.clear();
        self.pool.clear();
        self.by_first.clear();
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

    fn first_indices(&self, t: &Term) -> &[(Term, u32)] {
        let a = self.by_first.partition_point(|(k, _)| k < t);
        let z = self.by_first.partition_point(|(k, _)| k <= t);
        &self.by_first[a..z]
    }

    fn visit_caps(&self, f: &mut impl FnMut(usize)) {
        f(self.entries.capacity());
        f(self.pool.capacity());
        f(self.by_first.capacity());
    }
}

/// All derived fluent groundings computed so far this window, slot-indexed.
/// Retained across windows by the slot-state cycle.
pub(crate) struct CFluentStore {
    slots: Vec<CFluentSlot>,
}

impl CFluentStore {
    pub(crate) fn new(n_slots: usize) -> CFluentStore {
        let mut slots = Vec::with_capacity(n_slots);
        slots.resize_with(n_slots, CFluentSlot::default);
        CFluentStore { slots }
    }

    pub(crate) fn clear(&mut self) {
        for s in &mut self.slots {
            s.clear();
        }
    }

    /// Appends one grounding to a slot without rebuilding the index; call
    /// [`CFluentStore::finish_slot`] after the slot's stratum completes.
    pub(crate) fn insert_entry(
        &mut self,
        slot: SlotId,
        args: &[Term],
        value: &Term,
        ivs: &IntervalList,
    ) {
        let fs = &mut self.slots[slot as usize];
        if let Some(first) = args.first() {
            fs.by_first.push((first.clone(), fs.entries.len() as u32));
        }
        let off = fs.pool.len() as u32;
        fs.pool.extend(args.iter().cloned());
        fs.entries.push((off, args.len() as u16, value.clone(), ivs.clone()));
    }

    /// Sorts the slot's first-arg index (once per stratum, not per lookup).
    pub(crate) fn finish_slot(&mut self, slot: SlotId) {
        self.slots[slot as usize].by_first.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
    }

    pub(crate) fn visit_caps(&self, f: &mut impl FnMut(usize)) {
        for s in &self.slots {
            s.visit_caps(f);
        }
    }
}

/// The compiled evaluation context: dense stores plus dense operand tables.
pub(crate) struct CCtx<'a> {
    pub(crate) events: &'a CEventStore,
    pub(crate) obs: &'a CObsStore,
    pub(crate) fluents: &'a CFluentStore,
    pub(crate) relations: &'a [Vec<Vec<Term>>],
    pub(crate) builtins: &'a [Option<BuiltinFn>],
}

// ---------------------------------------------------------------------------
// Per-thread scratch arena
// ---------------------------------------------------------------------------

/// Reusable per-thread evaluation scratch: the bindings environment, the
/// evidence-span stack, the binding trail and the builtin argument buffer.
/// All buffers retain their capacity across
/// windows, so steady-state evaluation performs **zero** allocations here —
/// [`scratch_allocations`] counts every capacity growth so tests can prove
/// it.
pub(crate) struct SolveScratch {
    pub(crate) b: Bindings,
    pub(crate) spans: Vec<Time>,
    pub(crate) trail: Vec<VarId>,
    pub(crate) args_buf: Vec<Term>,
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

/// Runs `f` with this thread's solve scratch checked out. Balanced and
/// non-reentrant by construction (`RefCell` + debug guard); capacity growth
/// during `f` is charged to the allocation counter.
pub(crate) fn with_scratch<R>(f: impl FnOnce(&mut SolveScratch) -> R) -> R {
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
    ctx: &CCtx<'_>,
    body: &CBody,
    n_vars: usize,
    frontier: Time,
    window_start: Time,
    out: &mut dyn FnMut(&mut Bindings, &[Time]),
) {
    with_scratch(|s| {
        if frontier <= window_start {
            s.b.reset(n_vars);
            let SolveScratch { b, spans, trail, args_buf, .. } = s;
            solve_c(ctx, &body.full, TIME_MIN, b, spans, trail, args_buf, out);
        } else {
            for prog in &body.pivots {
                s.b.reset(n_vars);
                let SolveScratch { b, spans, trail, args_buf, .. } = s;
                solve_c(ctx, prog, frontier, b, spans, trail, args_buf, out);
            }
        }
    });
}

/// Fully solves a static rule's lowered domain program (statics never
/// delta-bound — expiry can shrink event-driven domains silently).
pub(crate) fn solve_domain_c(
    ctx: &CCtx<'_>,
    atoms: &[CAtom],
    n_vars: usize,
    out: &mut dyn FnMut(&mut Bindings, &[Time]),
) {
    with_scratch(|s| {
        s.b.reset(n_vars);
        let SolveScratch { b, spans, trail, args_buf, .. } = s;
        solve_c(ctx, atoms, TIME_MIN, b, spans, trail, args_buf, out);
    });
}

/// Matches one event against a pattern + time variable using the binding
/// trail; on success calls `k`, then rolls everything back.
fn with_event_match_c(
    pat: &EventPattern,
    time: VarId,
    t: Time,
    args: &[Term],
    b: &mut Bindings,
    trail: &mut Vec<VarId>,
    k: &mut dyn FnMut(&mut Bindings, &mut Vec<VarId>),
) {
    let t_term = Term::Int(t);
    let time_was_bound = b.is_bound(time);
    if time_was_bound {
        if b.get(time) != Some(&t_term) {
            return;
        }
    } else if !b.bind(time, &t_term) {
        return;
    }
    let mark = trail.len();
    if match_args_trail(&pat.args, args, b, trail) {
        k(b, trail);
        undo_trail(trail, mark, b);
    }
    if !time_was_bound {
        b.unbind(time);
    }
}

/// Matches a fluent pattern against `(args, value)` using the trail; calls
/// `k` on success and rolls back afterwards.
fn with_fluent_match_c(
    pat: &FluentPattern,
    args: &[Term],
    value: &Term,
    b: &mut Bindings,
    trail: &mut Vec<VarId>,
    k: &mut dyn FnMut(&mut Bindings, &mut Vec<VarId>),
) {
    let mark = trail.len();
    if match_args_trail(&pat.args, args, b, trail) {
        if match_args_trail(std::slice::from_ref(&pat.value), std::slice::from_ref(value), b, trail)
        {
            k(b, trail);
        }
        undo_trail(trail, mark, b);
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
    let mut hit = false;
    with_fluent_match_c(pat, args, value, b, trail, &mut |_, _| hit = true);
    debug_assert_eq!(trail.len(), mark);
    hit
}

/// Depth-first resolution of one compiled program, tracking the evidence
/// times of the current partial solution in `spans` (every matched event
/// time and every fluent read time). Allocation-free: roles come baked into
/// the `Happens` operands, symbol lookups are slot-indexed array reads,
/// newly bound variables go onto the shared trail, and builtin arguments
/// resolve into a reusable buffer.
#[allow(clippy::too_many_arguments)]
fn solve_c(
    ctx: &CCtx<'_>,
    atoms: &[CAtom],
    frontier: Time,
    b: &mut Bindings,
    spans: &mut Vec<Time>,
    trail: &mut Vec<VarId>,
    args_buf: &mut Vec<Term>,
    out: &mut dyn FnMut(&mut Bindings, &[Time]),
) {
    let Some((atom, rest)) = atoms.split_first() else {
        out(b, spans);
        return;
    };
    match atom {
        CAtom::Happens { slot, pat, time, role } => {
            let ks = &ctx.events.kinds[*slot as usize];
            if ks.is_empty() {
                return;
            }
            let (lo, hi) = match role {
                HappensRole::Pivot => (frontier, TIME_MAX),
                HappensRole::Before => (TIME_MIN, frontier.saturating_sub(1)),
                HappensRole::Free => (TIME_MIN, TIME_MAX),
            };
            if lo > hi {
                return;
            }
            if let Some(t) = b.get(*time).and_then(term_time) {
                if t < lo || t > hi {
                    return;
                }
                let a = ks.items.partition_point(|it| it.0 < t);
                let z = ks.items.partition_point(|it| it.0 <= t);
                for i in a..z {
                    spans.push(ks.time(i));
                    with_event_match_c(
                        pat,
                        *time,
                        ks.time(i),
                        ks.args(i),
                        b,
                        trail,
                        &mut |b, trail| {
                            solve_c(ctx, rest, frontier, b, spans, trail, args_buf, out)
                        },
                    );
                    spans.pop();
                }
            } else {
                // Narrow by a bound first argument where possible. Terms are
                // fully inline (no heap), so this clone is free.
                let first_bound: Option<Term> = match pat.args.first() {
                    Some(ArgPat::Const(c)) => Some(c.clone()),
                    Some(ArgPat::Var(v)) => b.get(*v).cloned(),
                    _ => None,
                };
                match first_bound {
                    Some(first) => {
                        for &(_, idx) in ks.first_range(&first, lo, hi) {
                            let i = idx as usize;
                            spans.push(ks.time(i));
                            with_event_match_c(
                                pat,
                                *time,
                                ks.time(i),
                                ks.args(i),
                                b,
                                trail,
                                &mut |b, trail| {
                                    solve_c(ctx, rest, frontier, b, spans, trail, args_buf, out)
                                },
                            );
                            spans.pop();
                        }
                    }
                    None => {
                        let a = ks.items.partition_point(|it| it.0 < lo);
                        let z = ks.items.partition_point(|it| it.0 <= hi);
                        for i in a..z {
                            spans.push(ks.time(i));
                            with_event_match_c(
                                pat,
                                *time,
                                ks.time(i),
                                ks.args(i),
                                b,
                                trail,
                                &mut |b, trail| {
                                    solve_c(ctx, rest, frontier, b, spans, trail, args_buf, out)
                                },
                            );
                            spans.pop();
                        }
                    }
                }
            }
        }
        CAtom::HoldsInput { slot, pat, time, negated } => {
            let Some(t) = b.get(*time).and_then(term_time) else { return };
            spans.push(t);
            let ks = &ctx.obs.kinds[*slot as usize];
            let candidates = ks.range_at(t);
            if *negated {
                let exists = candidates
                    .clone()
                    .any(|i| fluent_matches_c(pat, ks.args(i), ks.value(i), b, trail));
                if !exists {
                    solve_c(ctx, rest, frontier, b, spans, trail, args_buf, out);
                }
            } else {
                for i in candidates {
                    with_fluent_match_c(pat, ks.args(i), ks.value(i), b, trail, &mut |b, trail| {
                        solve_c(ctx, rest, frontier, b, spans, trail, args_buf, out)
                    });
                }
            }
            spans.pop();
        }
        CAtom::HoldsDerived { slot, pat, time, negated } => {
            let Some(t) = b.get(*time).and_then(term_time) else { return };
            spans.push(t);
            let fs = &ctx.fluents.slots[*slot as usize];
            let first_bound: Option<Term> = match pat.args.first() {
                Some(ArgPat::Const(c)) => Some(c.clone()),
                Some(ArgPat::Var(v)) => b.get(*v).cloned(),
                _ => None,
            };
            if *negated {
                let exists = match &first_bound {
                    Some(first) => fs.first_indices(first).iter().any(|&(_, idx)| {
                        let i = idx as usize;
                        fs.ivs(i).contains(t)
                            && fluent_matches_c(pat, fs.args(i), fs.value(i), b, trail)
                    }),
                    None => (0..fs.len()).any(|i| {
                        fs.ivs(i).contains(t)
                            && fluent_matches_c(pat, fs.args(i), fs.value(i), b, trail)
                    }),
                };
                if !exists {
                    solve_c(ctx, rest, frontier, b, spans, trail, args_buf, out);
                }
            } else {
                match &first_bound {
                    Some(first) => {
                        for &(_, idx) in fs.first_indices(first) {
                            let i = idx as usize;
                            if !fs.ivs(i).contains(t) {
                                continue;
                            }
                            with_fluent_match_c(
                                pat,
                                fs.args(i),
                                fs.value(i),
                                b,
                                trail,
                                &mut |b, trail| {
                                    solve_c(ctx, rest, frontier, b, spans, trail, args_buf, out)
                                },
                            );
                        }
                    }
                    None => {
                        for i in 0..fs.len() {
                            if !fs.ivs(i).contains(t) {
                                continue;
                            }
                            with_fluent_match_c(
                                pat,
                                fs.args(i),
                                fs.value(i),
                                b,
                                trail,
                                &mut |b, trail| {
                                    solve_c(ctx, rest, frontier, b, spans, trail, args_buf, out)
                                },
                            );
                        }
                    }
                }
            }
            spans.pop();
        }
        CAtom::Relation { idx, args } => {
            let tuples = &ctx.relations[*idx as usize];
            let mark = trail.len();
            for tuple in tuples {
                if match_args_trail(args, tuple, b, trail) {
                    solve_c(ctx, rest, frontier, b, spans, trail, args_buf, out);
                    undo_trail(trail, mark, b);
                }
            }
        }
        CAtom::Builtin { idx, args } => {
            let Some(f) = ctx.builtins[*idx as usize].as_ref() else { return };
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
                solve_c(ctx, rest, frontier, b, spans, trail, args_buf, out);
            }
        }
        CAtom::Guard(g) => {
            if eval_guard(g, b) {
                solve_c(ctx, rest, frontier, b, spans, trail, args_buf, out);
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
) -> IvRange {
    match expr {
        CIntervalExpr::Fluent { slot, pat } => {
            let mark = arena.mark();
            let fs = &fluents.slots[*slot as usize];
            for i in 0..fs.len() {
                if fluent_matches_c(pat, fs.args(i), fs.value(i), b, trail) {
                    arena.copy_in(fs.ivs(i).as_slice());
                }
            }
            arena.union_finish(mark)
        }
        CIntervalExpr::Union(es) => {
            let mark = arena.mark();
            for e in es {
                eval_interval_expr_into(e, b, trail, fluents, arena, ranges);
            }
            arena.union_finish(mark)
        }
        CIntervalExpr::Intersect(es) => {
            let mark = arena.mark();
            let rs = ranges.len();
            for e in es {
                let r = eval_interval_expr_into(e, b, trail, fluents, arena, ranges);
                ranges.push(r);
            }
            let out = arena.intersect_all_into(mark, &ranges[rs..]);
            ranges.truncate(rs);
            out
        }
        CIntervalExpr::RelComp(base, subs) => {
            let mark = arena.mark();
            let base_r = eval_interval_expr_into(base, b, trail, fluents, arena, ranges);
            let sub_mark = arena.mark();
            for e in subs {
                eval_interval_expr_into(e, b, trail, fluents, arena, ranges);
            }
            let d = arena.relative_complement_all_into(base_r, sub_mark);
            arena.collapse(mark, d)
        }
    }
}
