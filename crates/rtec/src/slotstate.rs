//! Retained slot-indexed window state of the engine.
//!
//! Rebuilding per-window caches from scratch every query — fresh `HashMap`s
//! keyed by symbols and `Vec<Term>` groundings, fresh SDE-buffer indexes, a
//! fresh `Arc<Vec<Interval>>` per fluent grounding — makes allocation the
//! dominant cost of a small-delta window. This module holds the state that
//! is instead *retained and compacted* across queries:
//!
//! - per-stratum grounding tables ([`SfTable`], [`EvTable`], [`StTable`])
//!   whose entries are generation-stamped instead of being moved between an
//!   "old" and a "new" map. A window cycle bumps the generation, touches the
//!   groundings the delta reaches, and leaves everything else in place.
//!   Grounding keys live in per-table `Term` pools (no per-key `Vec`), and a
//!   sorted order index keeps iteration deterministic — sorted by key, so
//!   output order is independent of table history.
//! - double-buffered derivation sides in [`EvTable`]: survivors are copied
//!   from the previous side's pool into the next side's pool (compaction),
//!   then the sides swap. Capacity is reused; steady state allocates
//!   nothing.
//! - a per-table [`IntervalArena`] for transient interval algebra, so
//!   interval construction and comparison never allocate; an owned
//!   [`IntervalList`] is materialised only when a grounding's output
//!   actually changed (and even then the previous `Arc` is reused when the
//!   contents come out equal).
//!
//! This is the engine's one canonical evaluation state. A checkpoint
//! serialises only the part inertia needs — the current simple-fluent
//! outputs — and restore seeds a fresh [`CycleState`] with them; the cached
//! points and derivations are re-derived by the full evaluation the next
//! query then runs, so a restored engine answers queries exactly like a
//! cold one.
//!
//! [`CycleState::begin_caps`]/[`CycleState::end_caps`] implement the
//! allocation accounting: every retained buffer's capacity is snapshotted
//! around a window cycle and each buffer that grew counts as one
//! allocation. After warm-up a steady-state cycle reports **zero** — the
//! regression test in `tests/zero_alloc.rs` pins exactly that.

use crate::compile::CompiledPlan;
use crate::interval::{Interval, IntervalArena, IntervalList, IvRange};
use crate::pattern::VarId;
use crate::stratify::HeadKind;
use crate::term::Term;
use crate::time::Time;

/// One cached initiation (`init == true`) or termination point of a simple
/// fluent grounding, with the *evidence span* of the rule body that produced
/// it — the min/max of every event/fluent time on the solution path. The
/// point stays valid exactly while its whole span is inside the window
/// (`span_min > window_start`) and below the change frontier
/// (`span_max < frontier`), because everything the body consulted at those
/// times is unchanged.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CPoint {
    pub init: bool,
    pub time: Time,
    pub span_min: Time,
    pub span_max: Time,
}

/// One cached derivation of a derived event: head args as a range into the
/// owning side's term pool, plus occurrence time and evidence span (same
/// validity contract as [`CPoint`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct CDeriv {
    pub off: u32,
    pub len: u16,
    pub time: Time,
    pub span_min: Time,
    pub span_max: Time,
}

/// One materialised (deduplicated, in-window) derived event, referencing
/// args in the owning side's term pool. Sorted by `(time, args)`.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MatRef {
    pub time: Time,
    pub off: u32,
    pub len: u16,
}

/// Compares a pooled grounding key against a probe `(args, value)`,
/// lexicographically by args then value.
fn key_cmp(
    pool: &[Term],
    off: u32,
    len: u16,
    val: &Term,
    args: &[Term],
    value: &Term,
) -> std::cmp::Ordering {
    let key = &pool[off as usize..off as usize + len as usize];
    key.cmp(args).then_with(|| val.cmp(value))
}

// ---------------------------------------------------------------------------
// Simple-fluent table
// ---------------------------------------------------------------------------

/// One retained simple-fluent grounding: cached points and previous-window
/// output, stamped with the generation they reflect.
pub(crate) struct SfGrounding {
    pub key_off: u32,
    pub key_len: u16,
    pub value: Term,
    /// Generation whose `pts`/`out` this grounding holds; participates in
    /// generation `g` exactly when `data_gen + 1 == g` (it was live in the
    /// previous window).
    pub data_gen: u64,
    /// Generation last touched by fresh solve output.
    pub touch_gen: u64,
    /// Cached initiation/termination points (with evidence spans).
    pub pts: Vec<CPoint>,
    /// Previous-window output intervals (the differential reference and the
    /// `Arc` reused when this window's output is unchanged).
    pub out: IntervalList,
}

/// Retained state of one simple-fluent stratum.
#[derive(Default)]
pub(crate) struct SfTable {
    pub gs: Vec<SfGrounding>,
    /// Grounding ids sorted by `(args, value)`.
    pub order: Vec<u32>,
    /// Concatenated grounding key args.
    pub pool: Vec<Term>,
    /// Fresh points collected during this window's solves, by grounding id.
    pub fresh: Vec<(u32, CPoint)>,
    // Per-window scratch, retained across cycles.
    pub set_old: Vec<(Time, bool)>,
    pub set_new: Vec<(Time, bool)>,
    pub inits: Vec<Time>,
    pub terms: Vec<Time>,
    pub ivs: Vec<Interval>,
    pub key_buf: Vec<Term>,
}

impl SfTable {
    /// Grounding id for `(args, value)`, inserting a new (empty) grounding
    /// when unseen. Ids are stable for the table's lifetime; the sorted
    /// order index is maintained incrementally.
    pub(crate) fn lookup_or_insert(&mut self, args: &[Term], value: &Term) -> u32 {
        let pos = self.order.partition_point(|&gid| {
            let g = &self.gs[gid as usize];
            key_cmp(&self.pool, g.key_off, g.key_len, &g.value, args, value).is_lt()
        });
        if let Some(&gid) = self.order.get(pos) {
            let g = &self.gs[gid as usize];
            if key_cmp(&self.pool, g.key_off, g.key_len, &g.value, args, value).is_eq() {
                return gid;
            }
        }
        let gid = self.gs.len() as u32;
        let key_off = self.pool.len() as u32;
        self.pool.extend(args.iter().cloned());
        self.gs.push(SfGrounding {
            key_off,
            key_len: args.len() as u16,
            value: value.clone(),
            data_gen: 0,
            touch_gen: 0,
            pts: Vec::new(),
            out: IntervalList::empty(),
        });
        self.order.insert(pos, gid);
        gid
    }

    /// Key args of a grounding.
    pub(crate) fn key_args(&self, g: &SfGrounding) -> &[Term] {
        &self.pool[g.key_off as usize..g.key_off as usize + g.key_len as usize]
    }

    /// Drops groundings that have been stale for at least two generations
    /// once they outnumber the live ones — keeps the table (and its key
    /// pool) proportional to the active grounding universe under churn.
    pub(crate) fn maybe_compact(&mut self, gen: u64) {
        let stale = self.gs.iter().filter(|g| g.data_gen + 1 < gen && g.touch_gen < gen).count();
        if stale <= self.gs.len() / 2 || stale < 16 {
            return;
        }
        let mut gs = std::mem::take(&mut self.gs);
        let mut pool = std::mem::take(&mut self.pool);
        self.order.clear();
        let mut kept: Vec<SfGrounding> = Vec::with_capacity(gs.len() - stale);
        let mut new_pool: Vec<Term> = Vec::with_capacity(pool.len());
        for mut g in gs.drain(..) {
            if g.data_gen + 1 < gen && g.touch_gen < gen {
                continue;
            }
            let off = new_pool.len() as u32;
            new_pool.extend_from_slice(
                &pool[g.key_off as usize..(g.key_off + g.key_len as u32) as usize],
            );
            g.key_off = off;
            kept.push(g);
        }
        pool.clear();
        for gid in 0..kept.len() as u32 {
            let g = &kept[gid as usize];
            let pos = self.order.partition_point(|&o| {
                let other = &kept[o as usize];
                key_cmp(
                    &new_pool,
                    other.key_off,
                    other.key_len,
                    &other.value,
                    &new_pool[g.key_off as usize..(g.key_off + g.key_len as u32) as usize],
                    &g.value,
                )
                .is_lt()
            });
            self.order.insert(pos, gid);
        }
        self.gs = kept;
        self.pool = new_pool;
    }

    fn visit_caps(&self, f: &mut impl FnMut(usize)) {
        f(self.gs.capacity());
        f(self.order.capacity());
        f(self.pool.capacity());
        f(self.fresh.capacity());
        f(self.set_old.capacity());
        f(self.set_new.capacity());
        f(self.inits.capacity());
        f(self.terms.capacity());
        f(self.ivs.capacity());
        f(self.key_buf.capacity());
        for g in &self.gs {
            f(g.pts.capacity());
        }
    }
}

// ---------------------------------------------------------------------------
// Derived-event table
// ---------------------------------------------------------------------------

/// Retained state of one derived-event stratum: double-buffered derivation
/// sides whose pools swap each window (survivor args are compacted from the
/// previous side's pool into the next's).
#[derive(Default)]
pub(crate) struct EvTable {
    pub cur: Vec<CDeriv>,
    pub next: Vec<CDeriv>,
    pub pool_cur: Vec<Term>,
    pub pool_next: Vec<Term>,
    pub mat_cur: Vec<MatRef>,
    pub mat_next: Vec<MatRef>,
}

impl EvTable {
    /// Args slice of a ref into the *current* side's pool.
    pub(crate) fn cur_args(&self, off: u32, len: u16) -> &[Term] {
        &self.pool_cur[off as usize..off as usize + len as usize]
    }

    /// Builds `mat_next` from `next`: the deduplicated `(time, args)` pairs
    /// with `time > start`, sorted — the concrete event set visible
    /// downstream.
    pub(crate) fn build_mat_next(&mut self, start: Time) {
        self.mat_next.clear();
        for d in &self.next {
            if d.time > start {
                self.mat_next.push(MatRef { time: d.time, off: d.off, len: d.len });
            }
        }
        let pool = &self.pool_next;
        self.mat_next.sort_unstable_by(|a, b| {
            a.time.cmp(&b.time).then_with(|| {
                pool[a.off as usize..(a.off + a.len as u32) as usize]
                    .cmp(&pool[b.off as usize..(b.off + b.len as u32) as usize])
            })
        });
        self.mat_next.dedup_by(|a, b| {
            a.time == b.time
                && pool[a.off as usize..(a.off + a.len as u32) as usize]
                    == pool[b.off as usize..(b.off + b.len as u32) as usize]
        });
    }

    /// Earliest divergence between the previous window's materialised events
    /// (viewed with `time > start`) and the next side's; `TIME_MAX` when
    /// identical.
    pub(crate) fn mat_divergence(&self, start: Time) -> Time {
        let old = &self.mat_cur[self.mat_cur.partition_point(|m| m.time <= start)..];
        let new = &self.mat_next;
        let (mut i, mut j) = (0usize, 0usize);
        loop {
            match (old.get(i), new.get(j)) {
                (Some(x), Some(y)) => {
                    let xa = &self.pool_cur[x.off as usize..(x.off + x.len as u32) as usize];
                    let ya = &self.pool_next[y.off as usize..(y.off + y.len as u32) as usize];
                    if x.time == y.time && xa == ya {
                        i += 1;
                        j += 1;
                    } else {
                        return x.time.min(y.time);
                    }
                }
                (Some(x), None) => return x.time,
                (None, Some(y)) => return y.time,
                (None, None) => return crate::time::TIME_MAX,
            }
        }
    }

    /// Swaps the sides after a window: `next` becomes the retained current
    /// state, the old side's buffers are cleared in place for reuse.
    pub(crate) fn swap_sides(&mut self) {
        std::mem::swap(&mut self.cur, &mut self.next);
        std::mem::swap(&mut self.pool_cur, &mut self.pool_next);
        std::mem::swap(&mut self.mat_cur, &mut self.mat_next);
        self.next.clear();
        self.pool_next.clear();
        self.mat_next.clear();
    }

    fn visit_caps(&self, f: &mut impl FnMut(usize)) {
        f(self.cur.capacity());
        f(self.next.capacity());
        f(self.pool_cur.capacity());
        f(self.pool_next.capacity());
        f(self.mat_cur.capacity());
        f(self.mat_next.capacity());
    }
}

// ---------------------------------------------------------------------------
// Static-fluent table
// ---------------------------------------------------------------------------

/// One retained static-fluent grounding.
pub(crate) struct StGrounding {
    pub key_off: u32,
    pub key_len: u16,
    pub value: Term,
    /// Generation whose `out` this grounding holds.
    pub data_gen: u64,
    /// Generation `acc` accumulates for.
    pub acc_gen: u64,
    /// This window's accumulated (normalised) intervals across rules.
    pub acc: Vec<Interval>,
    /// Previous-window output (differential reference / reusable `Arc`).
    pub out: IntervalList,
}

/// Retained state of one static-fluent stratum.
#[derive(Default)]
pub(crate) struct StTable {
    pub gs: Vec<StGrounding>,
    pub order: Vec<u32>,
    pub pool: Vec<Term>,
    // Per-window scratch, retained across cycles.
    pub key_buf: Vec<Term>,
    pub ranges: Vec<IvRange>,
    pub expr_trail: Vec<VarId>,
    pub arena: IntervalArena,
}

impl StTable {
    /// Grounding id for `(args, value)`, inserting when unseen.
    pub(crate) fn lookup_or_insert(&mut self, args: &[Term], value: &Term) -> u32 {
        let pos = self.order.partition_point(|&gid| {
            let g = &self.gs[gid as usize];
            key_cmp(&self.pool, g.key_off, g.key_len, &g.value, args, value).is_lt()
        });
        if let Some(&gid) = self.order.get(pos) {
            let g = &self.gs[gid as usize];
            if key_cmp(&self.pool, g.key_off, g.key_len, &g.value, args, value).is_eq() {
                return gid;
            }
        }
        let gid = self.gs.len() as u32;
        let key_off = self.pool.len() as u32;
        self.pool.extend(args.iter().cloned());
        self.gs.push(StGrounding {
            key_off,
            key_len: args.len() as u16,
            value: value.clone(),
            data_gen: 0,
            acc_gen: 0,
            acc: Vec::new(),
            out: IntervalList::empty(),
        });
        self.order.insert(pos, gid);
        gid
    }

    /// Key args of a grounding.
    pub(crate) fn key_args(&self, g: &StGrounding) -> &[Term] {
        &self.pool[g.key_off as usize..g.key_off as usize + g.key_len as usize]
    }

    fn visit_caps(&self, f: &mut impl FnMut(usize)) {
        f(self.gs.capacity());
        f(self.order.capacity());
        f(self.pool.capacity());
        f(self.key_buf.capacity());
        f(self.ranges.capacity());
        f(self.expr_trail.capacity());
        f(self.arena.capacity());
        for g in &self.gs {
            f(g.acc.capacity());
        }
    }
}

// ---------------------------------------------------------------------------
// Cycle state
// ---------------------------------------------------------------------------

/// Retained per-stratum state, aligned with the plan's instruction array.
pub(crate) enum StratumState {
    Ev(EvTable),
    Sf(SfTable),
    St(StTable),
}

impl StratumState {
    fn visit_caps(&self, f: &mut impl FnMut(usize)) {
        match self {
            StratumState::Ev(t) => t.visit_caps(f),
            StratumState::Sf(t) => t.visit_caps(f),
            StratumState::St(t) => t.visit_caps(f),
        }
    }
}

/// All retained window state of one engine: slot-indexed frontiers and SDE
/// stores, per-stratum grounding tables, and the capacity-accounting
/// scratch.
pub(crate) struct CycleState {
    /// Window-cycle generation; bumped once per query.
    pub gen: u64,
    pub frontiers: Vec<Time>,
    pub events: crate::compile::CEventStore,
    pub obs: crate::compile::CObsStore,
    pub fluents: crate::compile::CFluentStore,
    /// One table per stratum, aligned with the plan's instruction array.
    pub strata: Vec<StratumState>,
    /// Capacity snapshot taken by [`CycleState::begin_caps`].
    caps: Vec<usize>,
}

impl CycleState {
    /// Empty state shaped for `plan`.
    pub(crate) fn new(plan: &CompiledPlan) -> CycleState {
        CycleState {
            gen: 0,
            frontiers: Vec::new(),
            events: crate::compile::CEventStore::new(plan),
            obs: crate::compile::CObsStore::new(plan),
            fluents: crate::compile::CFluentStore::new(&plan.needs),
            strata: plan
                .instrs
                .iter()
                .map(|instr| match instr.kind {
                    HeadKind::Event => StratumState::Ev(EvTable::default()),
                    HeadKind::SimpleFluent => StratumState::Sf(SfTable::default()),
                    HeadKind::StaticFluent => StratumState::St(StTable::default()),
                })
                .collect(),
            caps: Vec::new(),
        }
    }

    /// Installs `ivs` as the current output of grounding `(args, value)` of
    /// simple-fluent stratum `si`, as if the last window had computed it:
    /// inertia carries it into the next query (`initially` declarations and
    /// checkpoint restore).
    pub(crate) fn seed_fluent(
        &mut self,
        si: usize,
        args: &[Term],
        value: &Term,
        ivs: IntervalList,
    ) {
        let StratumState::Sf(t) = &mut self.strata[si] else {
            panic!("stratum {si} does not derive a simple fluent");
        };
        let gid = t.lookup_or_insert(args, value);
        let g = &mut t.gs[gid as usize];
        g.out = ivs;
        g.data_gen = self.gen;
    }

    fn visit_caps(&self, f: &mut impl FnMut(usize)) {
        f(self.frontiers.capacity());
        self.events.visit_caps(f);
        self.obs.visit_caps(f);
        self.fluents.visit_caps(f);
        for s in &self.strata {
            s.visit_caps(f);
        }
    }

    /// Summed capacity of every retained buffer.
    pub(crate) fn retained_capacity(&self) -> usize {
        let mut total = 0;
        self.visit_caps(&mut |c| total += c);
        total
    }

    /// Snapshots every retained buffer's capacity before a window cycle.
    pub(crate) fn begin_caps(&mut self) {
        let mut caps = std::mem::take(&mut self.caps);
        caps.clear();
        self.visit_caps(&mut |c| caps.push(c));
        self.caps = caps;
    }

    /// Counts the buffers that grew (or appeared) since
    /// [`CycleState::begin_caps`] — the cycle's allocation count.
    pub(crate) fn end_caps(&mut self) -> u64 {
        let caps = std::mem::take(&mut self.caps);
        let mut grew = 0u64;
        let mut i = 0usize;
        self.visit_caps(&mut |c| {
            match caps.get(i) {
                Some(&before) if c > before => grew += 1,
                None if c > 0 => grew += 1,
                _ => {}
            }
            i += 1;
        });
        self.caps = caps;
        grew
    }
}
