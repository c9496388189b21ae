//! Test support: counters and probes that tests outside this crate use to
//! look inside a plan or an engine. No recognition path calls them.

use crate::compile::{CEventKind, CEventStore, CObsStore, CompiledPlan, PLANS_COMPILED};
use crate::engine::{Engine, StratumProfile};
use crate::interval::{points_into, Interval, IntervalList};
use crate::term::{Symbol, Term};
use crate::time::{Time, TIME_MAX};
use std::sync::atomic::Ordering;

/// Number of plans this process has compiled so far. Nothing compiles behind
/// the caller's back — only [`CompiledPlan::compile`] does, directly or
/// through [`Engine::new`] — so a topology that shares its plan moves this
/// counter by exactly one, however many engines it builds (or rebuilds
/// after a crash) over it.
pub fn plans_compiled() -> u64 {
    PLANS_COMPILED.load(Ordering::Relaxed)
}

impl CompiledPlan {
    /// A deterministic fingerprint of the plan's structure (its slots,
    /// strata and planned indexes): two plans compiled from the same rule
    /// set have equal signatures, which is how checkpoint-restore tests
    /// prove the plan rebuilds identically.
    pub fn signature(&self) -> u64 {
        self.fingerprint()
    }

    /// Number of strata in the instruction array.
    pub fn n_strata(&self) -> usize {
        self.instrs.len()
    }
}

impl Engine {
    /// Cumulative counted solver work per stratum, in evaluation order, over
    /// every query answered so far — where a window's cost sits, by rule
    /// head.
    pub fn stratum_profile(&self) -> &[StratumProfile] {
        &self.profile
    }

    /// The window stores as the solver's access paths read them.
    pub fn store_probe(&self) -> StoreProbe<'_> {
        StoreProbe {
            plan: &self.plan,
            events: &self.state.events,
            obs: &self.state.obs,
            frontiers: &self.state.frontiers,
        }
    }

    /// Summed capacity of every retained buffer of the window state, in
    /// elements: flat once the state has sized to the working set.
    pub fn retained_capacity(&self) -> usize {
        self.state.retained_capacity()
    }
}

/// The interval algebra over whole lists (Table 1 of the paper): the
/// reference `tests/interval_props.rs` checks the laws of. The solver runs
/// the same constructs on its interval arena instead.
impl IntervalList {
    /// Reconstructs maximal intervals from initiation and termination
    /// time-points, implementing the law of inertia for simple fluents.
    ///
    /// `initially` states whether the fluent already holds at `from` (the
    /// window start); if so the first interval starts at `from`. At equal
    /// time-points terminations are processed before initiations, so a
    /// simultaneous terminate+initiate keeps the fluent continuously true
    /// (the intervals amalgamate) while on a non-holding fluent the
    /// initiation wins — matching RTEC's semantics.
    pub fn from_points(
        inits: &[Time],
        terms: &[Time],
        initially: bool,
        from: Time,
    ) -> IntervalList {
        let mut out = Vec::new();
        points_into(&mut inits.to_vec(), &mut terms.to_vec(), initially, from, &mut out);
        IntervalList::from_normalised(&out)
    }

    /// Set union, preserving maximality.
    pub fn union(&self, other: &IntervalList) -> IntervalList {
        IntervalList::union_all([self, other])
    }

    /// Set intersection.
    pub fn intersect(&self, other: &IntervalList) -> IntervalList {
        let (a, b) = (self.as_slice(), other.as_slice());
        let mut out = Vec::new();
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            let (s, e) = (a[i].start.max(b[j].start), a[i].end_raw.min(b[j].end_raw));
            if e > s {
                out.push(Interval { start: s, end_raw: e });
            }
            if a[i].end_raw <= b[j].end_raw {
                i += 1;
            } else {
                j += 1;
            }
        }
        IntervalList::from_normalised(&out)
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &IntervalList) -> IntervalList {
        let other = other.as_slice();
        let mut out = Vec::new();
        let mut j = 0;
        for a in self.iter() {
            let mut cur = *a;
            // Skip intervals of `other` entirely before `cur`.
            while j < other.len() && other[j].end_raw <= cur.start {
                j += 1;
            }
            let mut k = j;
            let mut alive = true;
            while alive && k < other.len() && other[k].start < cur.end_raw {
                let b = &other[k];
                if b.start > cur.start {
                    out.push(Interval::span(cur.start, b.start));
                }
                if b.end_raw < cur.end_raw {
                    cur = Interval { start: b.end_raw, end_raw: cur.end_raw };
                    k += 1;
                } else {
                    alive = false;
                }
            }
            if alive {
                out.push(cur);
            }
        }
        IntervalList::from_normalised(&out)
    }

    /// `union_all(L, I)`: union of several interval lists.
    pub fn union_all<'a, I: IntoIterator<Item = &'a IntervalList>>(lists: I) -> IntervalList {
        IntervalList::from_intervals(lists.into_iter().flat_map(|l| l.iter().copied()))
    }

    /// `relative_complement_all(I', L, I)`: the relative complement of `base`
    /// with respect to every list in `lists` — i.e. `base \ (l1 ∪ l2 ∪ …)`.
    pub fn relative_complement_all<'a, I: IntoIterator<Item = &'a IntervalList>>(
        base: &IntervalList,
        lists: I,
    ) -> IntervalList {
        base.difference(&IntervalList::union_all(lists))
    }
}

/// What the solver's access paths return from the window stores, by symbol
/// name — the surface `tests/store_props.rs` compares with a from-scratch
/// rebuild of the visible facts ([`Engine::store_probe`]).
pub struct StoreProbe<'a> {
    plan: &'a CompiledPlan,
    events: &'a CEventStore,
    obs: &'a CObsStore,
    frontiers: &'a [Time],
}

impl StoreProbe<'_> {
    fn slot(&self, name: &str) -> usize {
        self.plan.slots.slot(Symbol::new(name)).expect("a symbol of the rule set") as usize
    }

    fn events_at(&self, kind: &CEventKind, ids: impl Iterator<Item = usize>) -> Vec<ProbedEvent> {
        ids.map(|i| (kind.time(i), kind.args(i).to_vec())).collect()
    }

    /// The argument columns of event `kind` the plan indexed.
    pub fn indexed_columns(&self, kind: &str) -> Vec<usize> {
        self.events.kinds[self.slot(kind)].by_col.iter().map(|ix| ix.col).collect()
    }

    /// `CEventKind::time_range`: events of `kind` in `[lo, hi]`, in order.
    pub fn time_range(&self, kind: &str, lo: Time, hi: Time) -> Vec<ProbedEvent> {
        let ks = &self.events.kinds[self.slot(kind)];
        self.events_at(ks, ks.time_range(lo, hi))
    }

    /// `CEventKind::col_range` over the index on column `col`.
    pub fn col_range(
        &self,
        kind: &str,
        col: usize,
        key: &Term,
        lo: Time,
        hi: Time,
    ) -> Vec<ProbedEvent> {
        let ks = &self.events.kinds[self.slot(kind)];
        let index = ks.by_col.iter().position(|ix| ix.col == col).expect("an indexed column");
        self.events_at(ks, ks.col_range(index as u16, key, lo, hi))
    }

    /// Whether observations of `name` are kept in `(time, first)` order.
    pub fn ordered_by_first(&self, name: &str) -> bool {
        self.obs.kinds[self.slot(name)].by_first
    }

    /// `CObsKind::at`: `(args, value)` of the observations of `name` at `t`.
    pub fn obs_at(&self, name: &str, t: Time, first: Option<&Term>) -> Vec<(Vec<Term>, Term)> {
        let ks = &self.obs.kinds[self.slot(name)];
        ks.at(t, first).map(|i| (ks.args(i).to_vec(), ks.value(i).clone())).collect()
    }

    /// The change frontier the last query left on `symbol`'s slot.
    pub fn frontier(&self, symbol: &str) -> Time {
        self.frontiers.get(self.slot(symbol)).copied().unwrap_or(TIME_MAX)
    }
}

/// An event as [`StoreProbe`] reports it: occurrence time and arguments.
pub type ProbedEvent = (Time, Vec<Term>);
