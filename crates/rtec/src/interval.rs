//! Maximal intervals and the RTEC interval algebra.
//!
//! `holdsFor(F=V, I)` in RTEC computes the list `I` of *maximal* intervals
//! for which fluent `F` continuously has value `V`. Statically-determined
//! fluents are then defined through the interval manipulation constructs
//! `union_all`, `intersect_all` and `relative_complement_all` (Table 1 of the
//! paper). This module holds normalised interval lists and the arena the
//! solver evaluates those constructs in; the whole-list versions that the
//! property tests check are in [`crate::testing`].
//!
//! # Convention
//!
//! Intervals are half-open over discrete time: `[start, end)` contains `t`
//! iff `start <= t < end`. An initiation at `T` starts an interval at `T`; a
//! termination at `T` ends it at `T` (exclusive). This is the standard
//! implementation convention and differs from the textbook Event Calculus
//! (`initiatedAt` strictly earlier than `T`) only by a uniform one-tick
//! shift, which is unobservable at the 20 s–6 min granularity of the Dublin
//! SDE streams. When a fluent has been initiated but not yet terminated the
//! interval is *open* (`end() == None`), meaning "holds since `start`,
//! ongoing".

use crate::time::{Time, TIME_MAX};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A non-empty half-open interval `[start, end)`; `end = None` means the
/// interval is ongoing (right-open to infinity).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Interval {
    pub(crate) start: Time,
    /// Exclusive end; `TIME_MAX` encodes an ongoing interval.
    pub(crate) end_raw: Time,
}

impl Interval {
    /// A bounded interval `[start, end)`. Panics if `end <= start` (empty
    /// intervals are not representable; construct lists instead).
    pub fn span(start: Time, end: Time) -> Interval {
        assert!(end > start, "Interval::span requires end > start ({start}..{end})");
        Interval { start, end_raw: end }
    }

    /// Fallible version of [`Interval::span`]: returns `None` when the
    /// interval would be empty.
    pub(crate) fn try_span(start: Time, end: Time) -> Option<Interval> {
        (end > start).then_some(Interval { start, end_raw: end })
    }

    /// An ongoing interval `[start, ∞)`.
    pub fn open_from(start: Time) -> Interval {
        Interval { start, end_raw: TIME_MAX }
    }

    /// Inclusive start.
    pub fn start(&self) -> Time {
        self.start
    }

    /// Exclusive end, or `None` when ongoing.
    pub fn end(&self) -> Option<Time> {
        (self.end_raw != TIME_MAX).then_some(self.end_raw)
    }

    /// Whether the interval is ongoing (no known end).
    pub fn is_open(&self) -> bool {
        self.end_raw == TIME_MAX
    }
}

impl fmt::Debug for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.end() {
            Some(e) => write!(f, "[{}, {})", self.start, e),
            None => write!(f, "[{}, ∞)", self.start),
        }
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// A normalised list of maximal intervals: sorted by start, pairwise
/// disjoint, non-adjacent (no `[a,b) [b,c)` pairs) and non-empty.
///
/// All constructors normalise, so the invariant holds for every reachable
/// value; the algebra operations exploit it for linear-time merges.
///
/// The interval storage is shared behind an [`Arc`]: `clone()` is a
/// reference-count bump, never a copy of the intervals. Lists are immutable
/// once built (every operation returns a new list), so sharing is safe and
/// makes the engine's cache snapshots and windowed merge loops allocation
/// free on unchanged fluents.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct IntervalList {
    items: Arc<Vec<Interval>>,
}

impl Default for IntervalList {
    fn default() -> IntervalList {
        IntervalList::empty()
    }
}

/// The one shared allocation behind every empty list.
fn empty_items() -> Arc<Vec<Interval>> {
    static EMPTY: OnceLock<Arc<Vec<Interval>>> = OnceLock::new();
    Arc::clone(EMPTY.get_or_init(|| Arc::new(Vec::new())))
}

impl IntervalList {
    /// The empty list.
    pub fn empty() -> IntervalList {
        IntervalList { items: empty_items() }
    }

    /// A list holding a single interval.
    pub(crate) fn single(iv: Interval) -> IntervalList {
        IntervalList { items: Arc::new(vec![iv]) }
    }

    /// Builds a normalised list from arbitrary intervals (sorts, merges
    /// overlapping and adjacent intervals).
    pub fn from_intervals<I: IntoIterator<Item = Interval>>(intervals: I) -> IntervalList {
        let mut items: Vec<Interval> = intervals.into_iter().collect();
        normalise_in_place(&mut items);
        IntervalList { items: Arc::new(items) }
    }

    /// Materialises a list from an already-normalised slice (one allocation:
    /// the backing storage). Debug-asserts the invariant.
    pub(crate) fn from_normalised(items: &[Interval]) -> IntervalList {
        if items.is_empty() {
            return IntervalList::empty();
        }
        let result = IntervalList { items: Arc::new(items.to_vec()) };
        debug_assert!(result.is_normalised(), "from_normalised got {result:?}");
        result
    }

    /// Number of maximal intervals.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the list is empty (fluent never holds).
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Iterates over the maximal intervals in order.
    pub fn iter(&self) -> std::slice::Iter<'_, Interval> {
        self.items.iter()
    }

    /// The maximal intervals as a slice.
    pub fn as_slice(&self) -> &[Interval] {
        &self.items
    }

    /// `holdsAt`: whether some interval contains `t`.
    pub fn contains(&self, t: Time) -> bool {
        self.items
            .binary_search_by(|iv| {
                if iv.end_raw <= t {
                    std::cmp::Ordering::Less
                } else if iv.start > t {
                    std::cmp::Ordering::Greater
                } else {
                    std::cmp::Ordering::Equal
                }
            })
            .is_ok()
    }

    /// Keeps only intervals that end strictly after `t` (plus ongoing ones),
    /// truncating any interval that straddles `t` to start no earlier than
    /// `t`. Used to discard history that fell out of the working memory.
    pub fn after(&self, t: Time) -> IntervalList {
        // Identity fast path: the list is sorted, so if the first interval
        // starts at or after `t` nothing is dropped or truncated — share the
        // existing storage instead of copying it.
        match self.items.first() {
            None => return self.clone(),
            Some(first) if first.start >= t => return self.clone(),
            _ => {}
        }
        let result = IntervalList {
            items: Arc::new(
                self.items
                    .iter()
                    .filter(|iv| iv.end_raw > t)
                    .map(|iv| Interval { start: iv.start.max(t), end_raw: iv.end_raw })
                    .collect(),
            ),
        };
        debug_assert!(result.is_normalised(), "after broke normalisation: {result:?}");
        result
    }

    /// Checks the normalisation invariant; used by tests and debug asserts.
    pub fn is_normalised(&self) -> bool {
        self.items.windows(2).all(|w| w[0].end_raw < w[1].start)
            && self.items.iter().all(|iv| iv.end_raw > iv.start)
    }
}

/// Sorts and merges `buf` in place so it satisfies the [`IntervalList`]
/// normalisation invariant. No allocation beyond the buffer's capacity.
pub(crate) fn normalise_in_place(buf: &mut Vec<Interval>) {
    buf.sort_unstable_by_key(|iv| (iv.start, iv.end_raw));
    let mut w = 0usize;
    for r in 0..buf.len() {
        let iv = buf[r];
        if w > 0 && iv.start <= buf[w - 1].end_raw {
            buf[w - 1].end_raw = buf[w - 1].end_raw.max(iv.end_raw);
        } else {
            buf[w] = iv;
            w += 1;
        }
    }
    buf.truncate(w);
}

/// Core of `IntervalList::from_points`: sorts the init/term buffers in
/// place (terminations before initiations at equal time-points, by merge
/// order) and writes the inertia intervals into `out` (cleared first).
pub(crate) fn points_into(
    inits: &mut [Time],
    terms: &mut [Time],
    initially: bool,
    from: Time,
    out: &mut Vec<Interval>,
) {
    inits.sort_unstable();
    terms.sort_unstable();
    out.clear();
    let mut open_since: Option<Time> = initially.then_some(from);
    let (mut i, mut j) = (0usize, 0usize);
    loop {
        // Merge the two sorted streams; a termination at time t is
        // processed before an initiation at the same t.
        let take_term = match (inits.get(i), terms.get(j)) {
            (None, None) => break,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (Some(&it), Some(&tt)) => tt <= it,
        };
        if take_term {
            let t = terms[j];
            j += 1;
            if let Some(s) = open_since.take() {
                if t > s {
                    out.push(Interval::span(s, t));
                }
                // t <= s would be an empty interval: drop it, the fluent
                // never observably held.
            }
        } else {
            let t = inits[i];
            i += 1;
            if open_since.is_none() && t >= from {
                open_since = Some(t);
            }
        }
    }
    if let Some(s) = open_since {
        out.push(Interval::open_from(s));
    }
    // The inertia construction emits sorted disjoint intervals, but repeated
    // term-then-init at one time-point can emit adjacent spans; merge them.
    let mut w = 0usize;
    for r in 0..out.len() {
        let iv = out[r];
        if w > 0 && iv.start <= out[w - 1].end_raw {
            out[w - 1].end_raw = out[w - 1].end_raw.max(iv.end_raw);
        } else {
            out[w] = iv;
            w += 1;
        }
    }
    out.truncate(w);
}

/// Earliest time at which the normalised slices `prev` — viewed *clamped at
/// `t`* (the `after(t)` view) — and `new` disagree about membership, or
/// `None` when they are identical; the incremental engine propagates the
/// smallest change frontier downstream from it without materialising the
/// clamped list.
pub(crate) fn first_divergence_clamped(
    prev: &[Interval],
    t: Time,
    new: &[Interval],
) -> Option<Time> {
    let skip = prev.partition_point(|iv| iv.end_raw <= t);
    let mut i = skip;
    let mut j = 0usize;
    while i < prev.len() && j < new.len() {
        let a = Interval { start: prev[i].start.max(t), end_raw: prev[i].end_raw };
        let b = new[j];
        if a.start != b.start {
            return Some(a.start.min(b.start));
        }
        if a.end_raw != b.end_raw {
            return Some(a.end_raw.min(b.end_raw));
        }
        i += 1;
        j += 1;
    }
    match (prev.get(i), new.get(j)) {
        (Some(a), None) => Some(a.start.max(t)),
        (None, Some(b)) => Some(b.start),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Interval arena
// ---------------------------------------------------------------------------

/// An index range into an [`IntervalArena`]'s slab — the arena-backed stand-in
/// for an owned interval list. Only meaningful against the arena that issued
/// it, and only until that arena is truncated below `off`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct IvRange {
    off: u32,
    len: u32,
}

impl IvRange {
    /// Whether the range holds no intervals.
    pub(crate) fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// A slab of intervals reused across evaluations: the interval algebra's
/// `*_into` variants write their results here instead of allocating a fresh
/// `Arc<Vec<Interval>>` per operation. Operations follow a stack discipline —
/// [`IntervalArena::mark`] before a computation, operate, read the result
/// slice, [`IntervalArena::truncate`] back — so a steady-state window cycle
/// touches only already-reserved capacity.
///
/// The arena is *derived state*: like the compiled plan it is excluded from
/// checkpoint snapshots and rebuilt (empty) on restore.
#[derive(Default)]
pub(crate) struct IntervalArena {
    buf: Vec<Interval>,
}

impl IntervalArena {
    /// Current stack top; pass to [`IntervalArena::truncate`] to release
    /// everything pushed after this point.
    pub(crate) fn mark(&self) -> u32 {
        self.buf.len() as u32
    }

    /// Releases the stack down to `mark`.
    pub(crate) fn truncate(&mut self, mark: u32) {
        self.buf.truncate(mark as usize);
    }

    /// Reserved capacity of the slab (for allocation accounting).
    pub(crate) fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// The intervals of a range issued by this arena.
    pub(crate) fn slice(&self, r: IvRange) -> &[Interval] {
        &self.buf[r.off as usize..(r.off + r.len) as usize]
    }

    /// Copies an external interval slice onto the stack.
    pub(crate) fn copy_in(&mut self, items: &[Interval]) -> IvRange {
        let off = self.buf.len() as u32;
        self.buf.extend_from_slice(items);
        IvRange { off, len: items.len() as u32 }
    }

    /// Normalises everything pushed since `mark` in place, merging it into a
    /// single normalised range — the n-ary union over all operand slices
    /// copied in since the mark.
    pub(crate) fn union_finish(&mut self, mark: u32) -> IvRange {
        let region = &mut self.buf[mark as usize..];
        region.sort_unstable_by_key(|iv| (iv.start, iv.end_raw));
        let base = mark as usize;
        let n = self.buf.len() - base;
        let mut w = 0usize;
        for r in 0..n {
            let iv = self.buf[base + r];
            if w > 0 && iv.start <= self.buf[base + w - 1].end_raw {
                self.buf[base + w - 1].end_raw = self.buf[base + w - 1].end_raw.max(iv.end_raw);
            } else {
                self.buf[base + w] = iv;
                w += 1;
            }
        }
        self.buf.truncate(base + w);
        IvRange { off: mark, len: w as u32 }
    }

    /// Pairwise intersection of two ranges, pushed onto the stack top.
    fn intersect_pair(&mut self, a: IvRange, b: IvRange) -> IvRange {
        let off = self.buf.len() as u32;
        let (mut i, mut j) = (0u32, 0u32);
        while i < a.len && j < b.len {
            let x = self.buf[(a.off + i) as usize];
            let y = self.buf[(b.off + j) as usize];
            let s = x.start.max(y.start);
            let e = x.end_raw.min(y.end_raw);
            if e > s {
                self.buf.push(Interval { start: s, end_raw: e });
            }
            if x.end_raw <= y.end_raw {
                i += 1;
            } else {
                j += 1;
            }
        }
        IvRange { off, len: self.buf.len() as u32 - off }
    }

    /// `intersect_all` over ranges already on the stack at or above `mark`;
    /// the result is collapsed down to `mark`. An empty operand list yields
    /// the empty range.
    pub(crate) fn intersect_all_into(&mut self, mark: u32, operands: &[IvRange]) -> IvRange {
        let Some((&first, rest)) = operands.split_first() else {
            self.truncate(mark);
            return IvRange { off: mark, len: 0 };
        };
        let mut acc = first;
        for &next in rest {
            if acc.is_empty() {
                break;
            }
            acc = self.intersect_pair(acc, next);
        }
        self.collapse(mark, acc)
    }

    /// Set difference `a \ b`, pushed onto the stack top.
    pub(crate) fn difference_into(&mut self, a: IvRange, b: IvRange) -> IvRange {
        let off = self.buf.len() as u32;
        let mut j = 0u32;
        for ii in 0..a.len {
            let mut cur = self.buf[(a.off + ii) as usize];
            while j < b.len && self.buf[(b.off + j) as usize].end_raw <= cur.start {
                j += 1;
            }
            let mut k = j;
            let mut alive = true;
            while alive && k < b.len && self.buf[(b.off + k) as usize].start < cur.end_raw {
                let sub = self.buf[(b.off + k) as usize];
                if sub.start > cur.start {
                    self.buf.push(Interval { start: cur.start, end_raw: sub.start });
                }
                if sub.end_raw < cur.end_raw {
                    cur = Interval { start: sub.end_raw, end_raw: cur.end_raw };
                    k += 1;
                } else {
                    alive = false;
                }
            }
            if alive {
                self.buf.push(cur);
            }
        }
        IvRange { off, len: self.buf.len() as u32 - off }
    }

    /// `relative_complement_all`: `base \ (sub₁ ∪ sub₂ ∪ …)` where the sub
    /// ranges (not `base`) sit on the stack at or above `sub_mark`; the
    /// result is collapsed down to `sub_mark`.
    pub(crate) fn relative_complement_all_into(&mut self, base: IvRange, sub_mark: u32) -> IvRange {
        let union = self.union_finish(sub_mark);
        let d = self.difference_into(base, union);
        self.collapse(sub_mark, d)
    }

    /// Moves the intervals of `r` (which must sit at or above `mark`) down
    /// to `mark` and truncates — releasing every temporary between.
    pub(crate) fn collapse(&mut self, mark: u32, r: IvRange) -> IvRange {
        debug_assert!(r.off >= mark, "collapse target below mark");
        if r.off != mark {
            self.buf.copy_within(r.off as usize..(r.off + r.len) as usize, mark as usize);
        }
        self.buf.truncate((mark + r.len) as usize);
        IvRange { off: mark, len: r.len }
    }
}

impl fmt::Debug for IntervalList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, iv) in self.items.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{iv:?}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<Interval> for IntervalList {
    fn from_iter<I: IntoIterator<Item = Interval>>(iter: I) -> Self {
        IntervalList::from_intervals(iter)
    }
}

impl<'a> IntoIterator for &'a IntervalList {
    type Item = &'a Interval;
    type IntoIter = std::slice::Iter<'a, Interval>;
    fn into_iter(self) -> Self::IntoIter {
        self.items.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn il(pairs: &[(Time, Time)]) -> IntervalList {
        IntervalList::from_intervals(pairs.iter().map(|&(a, b)| Interval::span(a, b)))
    }

    #[test]
    #[should_panic]
    fn empty_span_panics() {
        let _ = Interval::span(5, 5);
    }

    #[test]
    fn try_span_rejects_empty() {
        assert!(Interval::try_span(5, 5).is_none());
        assert!(Interval::try_span(5, 6).is_some());
    }

    #[test]
    fn interval_contains_half_open() {
        let iv = IntervalList::single(Interval::span(10, 20));
        assert!(!iv.contains(9));
        assert!(iv.contains(10));
        assert!(iv.contains(19));
        assert!(!iv.contains(20));
        let open = Interval::open_from(5);
        assert!(IntervalList::single(open).contains(TIME_MAX - 1));
        assert!(open.is_open());
        assert_eq!(open.end(), None);
    }

    #[test]
    fn from_intervals_normalises() {
        let l = IntervalList::from_intervals(vec![
            Interval::span(8, 12),
            Interval::span(1, 5),
            Interval::span(5, 8), // adjacent: must merge with both neighbours
            Interval::span(20, 25),
            Interval::span(22, 30),
        ]);
        assert_eq!(l.as_slice(), &[Interval::span(1, 12), Interval::span(20, 30)]);
        assert!(l.is_normalised());
    }

    #[test]
    fn contains_binary_search() {
        let l = il(&[(1, 5), (10, 15), (20, 25)]);
        for t in [1, 4, 10, 14, 20, 24] {
            assert!(l.contains(t), "t={t}");
        }
        for t in [0, 5, 9, 15, 19, 25, 100] {
            assert!(!l.contains(t), "t={t}");
        }
    }

    #[test]
    fn union_merges_maximally() {
        let a = il(&[(1, 5), (10, 15)]);
        let b = il(&[(5, 10), (20, 22)]);
        assert_eq!(a.union(&b).as_slice(), &[Interval::span(1, 15), Interval::span(20, 22)]);
    }

    #[test]
    fn intersect_pairs() {
        let a = il(&[(1, 10), (20, 30)]);
        let b = il(&[(5, 25)]);
        assert_eq!(a.intersect(&b).as_slice(), &[Interval::span(5, 10), Interval::span(20, 25)]);
        assert!(a.intersect(&IntervalList::empty()).is_empty());
    }

    #[test]
    fn intersect_with_open() {
        let a = IntervalList::from_intervals(vec![Interval::open_from(10)]);
        let b = il(&[(5, 15), (20, 25)]);
        assert_eq!(a.intersect(&b).as_slice(), &[Interval::span(10, 15), Interval::span(20, 25)]);
    }

    #[test]
    fn difference_carves_holes() {
        let a = il(&[(0, 100)]);
        let b = il(&[(10, 20), (30, 40)]);
        assert_eq!(
            a.difference(&b).as_slice(),
            &[Interval::span(0, 10), Interval::span(20, 30), Interval::span(40, 100)]
        );
    }

    #[test]
    fn difference_total_and_disjoint() {
        let a = il(&[(5, 10)]);
        assert!(a.difference(&il(&[(0, 20)])).is_empty());
        assert_eq!(a.difference(&il(&[(15, 20)])).as_slice(), a.as_slice());
    }

    #[test]
    fn difference_open_base() {
        let a = IntervalList::single(Interval::open_from(0));
        let b = il(&[(10, 20)]);
        let d = a.difference(&b);
        assert_eq!(d.as_slice(), &[Interval::span(0, 10), Interval::open_from(20)]);
    }

    #[test]
    fn relative_complement_all_matches_paper_table() {
        // sourceDisagreement = busCongestion \ scatsIntCongestion
        let bus = il(&[(0, 50)]);
        let scats = il(&[(10, 20), (40, 60)]);
        let d = IntervalList::relative_complement_all(&bus, [&scats]);
        assert_eq!(d.as_slice(), &[Interval::span(0, 10), Interval::span(20, 40)]);
        // with several lists the complement is w.r.t. their union
        let extra = il(&[(0, 5)]);
        let d2 = IntervalList::relative_complement_all(&bus, [&scats, &extra]);
        assert_eq!(d2.as_slice(), &[Interval::span(5, 10), Interval::span(20, 40)]);
    }

    #[test]
    fn union_all_of_overlapping_and_of_none() {
        let ls = [il(&[(0, 10)]), il(&[(5, 15)]), il(&[(8, 20)])];
        assert_eq!(IntervalList::union_all(ls.iter()).as_slice(), &[Interval::span(0, 20)]);
        assert!(IntervalList::union_all(std::iter::empty()).is_empty());
    }

    #[test]
    fn from_points_basic_inertia() {
        // initiated at 10, terminated at 40 -> [10, 40)
        let l = IntervalList::from_points(&[10], &[40], false, 0);
        assert_eq!(l.as_slice(), &[Interval::span(10, 40)]);
    }

    #[test]
    fn from_points_ongoing() {
        let l = IntervalList::from_points(&[10], &[], false, 0);
        assert_eq!(l.as_slice(), &[Interval::open_from(10)]);
    }

    #[test]
    fn from_points_initially_true() {
        // Holding at window start 100; terminated at 150; re-initiated at 170.
        let l = IntervalList::from_points(&[170], &[150], true, 100);
        assert_eq!(l.as_slice(), &[Interval::span(100, 150), Interval::open_from(170)]);
    }

    #[test]
    fn from_points_repeated_initiations_are_idempotent() {
        // Re-initiating an already holding fluent does not split intervals.
        let l = IntervalList::from_points(&[10, 20, 30], &[40], false, 0);
        assert_eq!(l.as_slice(), &[Interval::span(10, 40)]);
    }

    #[test]
    fn from_points_simultaneous_term_then_init_keeps_continuity() {
        // Holding fluent terminated and re-initiated at 20: stays continuous.
        let l = IntervalList::from_points(&[10, 20], &[20, 40], false, 0);
        assert_eq!(l.as_slice(), &[Interval::span(10, 40)]);
    }

    #[test]
    fn from_points_simultaneous_on_idle_fluent_starts() {
        // Not holding; term and init both at 10: term processed first (no-op),
        // init starts the interval.
        let l = IntervalList::from_points(&[10], &[10], false, 0);
        assert_eq!(l.as_slice(), &[Interval::open_from(10)]);
    }

    #[test]
    fn from_points_termination_without_initiation_is_noop() {
        let l = IntervalList::from_points(&[], &[5, 15], false, 0);
        assert!(l.is_empty());
    }

    #[test]
    fn from_points_ignores_initiations_before_window() {
        let l = IntervalList::from_points(&[50], &[], false, 100);
        assert!(l.is_empty(), "initiation before window start must not leak in");
    }

    #[test]
    fn after_keeps_what_is_past_the_cutoff() {
        let l = il(&[(0, 10), (20, 30)]);
        assert_eq!(l.after(25).as_slice(), &[Interval::span(25, 30)]);
        assert_eq!(l.after(35).as_slice(), &[] as &[Interval]);
    }

    #[test]
    fn debug_format() {
        let l = il(&[(1, 5)]);
        assert_eq!(format!("{l:?}"), "{[1, 5)}");
        let o = IntervalList::single(Interval::open_from(3));
        assert_eq!(format!("{o:?}"), "{[3, ∞)}");
    }

    /// Arbitrary interval list inside [0, 64), possibly with an open tail.
    fn arb_list() -> impl Strategy<Value = IntervalList> {
        (
            proptest::collection::vec((0i64..64, 1i64..16), 0..6),
            proptest::option::weighted(0.2, 0i64..64),
        )
            .prop_map(|(spans, open)| {
                let mut ivs: Vec<Interval> =
                    spans.into_iter().map(|(s, len)| Interval::span(s, s + len)).collect();
                ivs.extend(open.map(Interval::open_from));
                IntervalList::from_intervals(ivs)
            })
    }

    // ---------------------------------------------------------------------------
    // Arena algebra ≡ Arc-backed algebra
    // ---------------------------------------------------------------------------
    //
    // The `*_into` operations on `IntervalArena` are the allocation-free twins of
    // the `Arc`-backed `IntervalList` algebra above; every one must produce the
    // exact same normalised interval sequence.

    proptest! {
        #[test]
        fn arena_union_all_matches_arc(
            lists in proptest::collection::vec(arb_list(), 0..5)
        ) {
            let mut arena = IntervalArena::default();
            let mark = arena.mark();
            for l in &lists {
                arena.copy_in(l.as_slice());
            }
            let r = arena.union_finish(mark);
            let classic = IntervalList::union_all(lists.iter());
            prop_assert_eq!(arena.slice(r), classic.as_slice());
        }

        #[test]
        fn arena_intersect_all_matches_arc(
            lists in proptest::collection::vec(arb_list(), 0..5)
        ) {
            let mut arena = IntervalArena::default();
            let mark = arena.mark();
            let ranges: Vec<IvRange> =
                lists.iter().map(|l| arena.copy_in(l.as_slice())).collect();
            let r = arena.intersect_all_into(mark, &ranges);
            // The intersection of no lists is empty.
            let classic = match lists.split_first() {
                Some((first, rest)) => rest.iter().fold(first.clone(), |acc, l| acc.intersect(l)),
                None => IntervalList::empty(),
            };
            prop_assert_eq!(arena.slice(r), classic.as_slice());
        }

        #[test]
        fn arena_relative_complement_all_matches_arc(
            base in arb_list(),
            subs in proptest::collection::vec(arb_list(), 0..5)
        ) {
            let mut arena = IntervalArena::default();
            let base_r = arena.copy_in(base.as_slice());
            let sub_mark = arena.mark();
            for l in &subs {
                arena.copy_in(l.as_slice());
            }
            let r = arena.relative_complement_all_into(base_r, sub_mark);
            let classic = IntervalList::relative_complement_all(&base, subs.iter());
            prop_assert_eq!(arena.slice(r), classic.as_slice());
            // The stack discipline must leave ranges below the mark untouched.
            prop_assert_eq!(arena.slice(base_r), base.as_slice());
        }

        #[test]
        fn arena_difference_matches_arc(a in arb_list(), b in arb_list()) {
            let mut arena = IntervalArena::default();
            let ra = arena.copy_in(a.as_slice());
            let rb = arena.copy_in(b.as_slice());
            let d = arena.difference_into(ra, rb);
            prop_assert_eq!(arena.slice(d), a.difference(&b).as_slice());
        }
    }
}
