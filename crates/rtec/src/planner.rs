//! Join planning for lowered rule bodies.
//!
//! Validation fixes which variables are bound at every body position, so
//! the order a body runs in and the way each atom reaches its candidates can
//! be decided once, when the plan is compiled, instead of being rediscovered
//! per grounding per window. [`plan_program`] takes one lowered program (the
//! full body, or one pivot arrangement of it) and returns it
//!
//! 1. **scheduled** — every `Guard`/`Builtin` moves to the earliest position
//!    where all of its variables are bound (guards ahead of builtins), and a
//!    positive `holdsAt` that binds new variables, none of which any other
//!    condition mentions, sinks behind the last of those filters (it can only
//!    multiply the solutions the filters then reject). A `holdsAt` that binds
//!    nothing new is itself a test: it stays where it was typed and keeps
//!    pruning the joins after it;
//! 2. **bounded** — a comparison guard that is linear in a variable an atom
//!    is about to bind (`T2 − T1 < c`, `abs(X − Y) ≤ D`, `X ≥ c`) becomes a
//!    [`VarRange`] on that atom's probe, evaluated from the bindings in force
//!    before the atom matches;
//! 3. **routed** — each atom gets one [`Access`] path, and the `(slot,
//!    column)` indexes those paths name are recorded in [`IndexNeeds`] so
//!    the stores build exactly those.
//!
//! What may move, and why it is sound: filters bind nothing, so running one
//! earlier changes no later atom's view of the environment, and a body is a
//! conjunction, so the solution set is order-independent. A sunk `holdsAt`
//! binds only variables nobody else reads, so the atoms it passes see the
//! same environment as before; negated `holdsAt` conditions never move
//! (which of their variables are bound decides what they mean). A range is
//! only ever an *over*-approximation of its guard — the guard itself still
//! runs — so soundness never depends on the bound arithmetic being tight,
//! only on it never excluding a value the guard would accept.

use crate::compile::CAtom;
use crate::pattern::{ArgPat, Bindings, VarId};
use crate::rule::{CmpOp, GuardExpr, NumExpr};
use crate::time::Time;
use std::collections::HashSet;

/// How one atom reaches its candidates; fixed per atom at compile time and
/// the only dispatch the solver performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Access {
    /// Argument `col` is a constant or an already bound variable: probe the
    /// store's equality index number `index` (events additionally narrow by
    /// their time range, observations by their read time).
    Column {
        /// Argument position of the probed term.
        col: u16,
        /// Ordinal of the index inside the store's slot.
        index: u16,
    },
    /// A numeric column variable the atom binds is bounded by guards: walk
    /// the band of the store's sorted-column index number `index`.
    Range {
        /// Ordinal of the index inside the store's slot.
        index: u16,
    },
    /// No argument is bound: walk the store — for events the atom's time
    /// range of it (a single tick when the time is already bound, the two
    /// ends being binary searches on the time-sorted store), for
    /// observations the read time's run of it.
    Scan,
}

/// One guard-derived bound: `expr`, evaluated over the bindings in force
/// before the atom matches.
#[derive(Debug, Clone, PartialEq)]
struct Bound {
    expr: NumExpr,
    strict: bool,
}

/// Guard-derived bounds on the one variable an atom's probe ranges over (a
/// `happensAt` time, a relation's numeric column). Empty means unbounded.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct VarRange {
    lower: Vec<Bound>,
    upper: Vec<Bound>,
}

/// Integers up to this magnitude (and their sums and differences) are exact
/// in `f64`, so a bound built from them equals its guard tick for tick.
const EXACT_LIMIT: f64 = (1u64 << 52) as f64;

/// Relative widening of an inexact bound: four roundings of the guard and
/// four of the bound, each at most half an ulp (2⁻⁵³) of the largest
/// magnitude involved.
const SLACK: f64 = 1.0 / (1u64 << 49) as f64;

/// A bound expression's value, the largest magnitude met computing it, and
/// whether every step was exact integer arithmetic.
#[derive(Debug, Clone, Copy)]
struct BoundVal {
    v: f64,
    mag: f64,
    exact: bool,
}

impl BoundVal {
    fn leaf(v: f64) -> BoundVal {
        BoundVal { v, mag: v.abs(), exact: v.fract() == 0.0 && v.abs() <= EXACT_LIMIT }
    }

    fn join(l: BoundVal, r: BoundVal, v: f64) -> BoundVal {
        BoundVal {
            v,
            mag: l.mag.max(r.mag).max(v.abs()),
            exact: l.exact && r.exact && v.abs() <= EXACT_LIMIT,
        }
    }

    fn slack(self) -> f64 {
        self.mag * SLACK
    }
}

fn eval_bound(e: &NumExpr, b: &Bindings) -> Option<BoundVal> {
    Some(match e {
        NumExpr::Var(v) => BoundVal::leaf(b.get(*v)?.as_f64()?),
        NumExpr::Const(c) => BoundVal::leaf(*c),
        NumExpr::Add(l, r) => {
            let (l, r) = (eval_bound(l, b)?, eval_bound(r, b)?);
            BoundVal::join(l, r, l.v + r.v)
        }
        NumExpr::Sub(l, r) => {
            let (l, r) = (eval_bound(l, b)?, eval_bound(r, b)?);
            BoundVal::join(l, r, l.v - r.v)
        }
        NumExpr::Mul(l, r) => {
            let (l, r) = (eval_bound(l, b)?, eval_bound(r, b)?);
            BoundVal::join(l, r, l.v * r.v)
        }
        NumExpr::Abs(x) => {
            let x = eval_bound(x, b)?;
            BoundVal { v: x.v.abs(), ..x }
        }
    })
}

impl VarRange {
    /// Whether no guard bounds the variable.
    pub(crate) fn is_empty(&self) -> bool {
        self.lower.is_empty() && self.upper.is_empty()
    }

    /// Narrows the integer interval `[lo, hi]` to the time-points the guards
    /// can accept. A bound that does not evaluate to a finite number (an
    /// operand is not numeric, `∞ − ∞`) constrains nothing: its guard decides.
    pub(crate) fn clamp_time(&self, b: &Bindings, lo: &mut Time, hi: &mut Time) {
        for bound in &self.lower {
            let Some(x) = eval_bound(&bound.expr, b).filter(|x| x.v.is_finite()) else { continue };
            let l = if x.exact {
                x.v as Time + Time::from(bound.strict)
            } else {
                // Saturating cast: beyond ±2⁶³ the bound is the type's limit.
                (x.v - x.slack()).ceil() as Time
            };
            *lo = (*lo).max(l);
        }
        for bound in &self.upper {
            let Some(x) = eval_bound(&bound.expr, b).filter(|x| x.v.is_finite()) else { continue };
            let h = if x.exact {
                x.v as Time - Time::from(bound.strict)
            } else {
                (x.v + x.slack()).floor() as Time
            };
            *hi = (*hi).min(h);
        }
    }

    /// The closed band of column values the guards can accept (strictness is
    /// dropped: the band may only over-approximate).
    pub(crate) fn band(&self, b: &Bindings) -> (f64, f64) {
        let (mut lo, mut hi) = (f64::NEG_INFINITY, f64::INFINITY);
        for bound in &self.lower {
            if let Some(x) = eval_bound(&bound.expr, b).filter(|x| x.v.is_finite()) {
                lo = lo.max(x.v - x.slack());
            }
        }
        for bound in &self.upper {
            if let Some(x) = eval_bound(&bound.expr, b).filter(|x| x.v.is_finite()) {
                hi = hi.min(x.v + x.slack());
            }
        }
        (lo, hi)
    }

    fn push(&mut self, lower: bool, expr: NumExpr, strict: bool) {
        let side = if lower { &mut self.lower } else { &mut self.upper };
        let bound = Bound { expr, strict };
        if !side.contains(&bound) {
            side.push(bound);
        }
    }
}

// ---------------------------------------------------------------------------
// Guard → bounds
// ---------------------------------------------------------------------------

fn mentions(e: &NumExpr, x: VarId) -> bool {
    let mut vs = Vec::new();
    e.collect_vars(&mut vs);
    vs.contains(&x)
}

/// A linear form `sign·x + Σ ±term`, every term free of `x`.
struct Linear {
    sign: i8,
    /// `(negated, term)` pairs.
    rest: Vec<(bool, NumExpr)>,
}

/// Writes `e` as a [`Linear`] form in `x`; `None` when `x` occurs under a
/// product or an `abs`, or more than once.
fn linear(e: &NumExpr, x: VarId) -> Option<Linear> {
    match e {
        NumExpr::Var(v) if *v == x => Some(Linear { sign: 1, rest: Vec::new() }),
        NumExpr::Add(l, r) | NumExpr::Sub(l, r) => {
            let (mut l, r) = (linear(l, x)?, linear(r, x)?);
            if l.sign != 0 && r.sign != 0 {
                return None;
            }
            let negate = matches!(e, NumExpr::Sub(..));
            l.sign += if negate { -r.sign } else { r.sign };
            l.rest.extend(r.rest.into_iter().map(|(neg, t)| (neg != negate, t)));
            Some(l)
        }
        _ => (!mentions(e, x)).then(|| Linear { sign: 0, rest: vec![(false, e.clone())] }),
    }
}

/// `Σ plus − Σ minus` as one expression. Integer constants fold here, where
/// the arithmetic is exact; any other constant stays a term, so that the
/// run-time evaluation sees its magnitude when it sizes the bound's slack.
fn sum(plus: Vec<(bool, NumExpr)>, minus: Vec<(bool, NumExpr)>) -> NumExpr {
    let mut constant = BoundVal::leaf(0.0);
    let mut positive: Option<NumExpr> = None;
    let mut negative: Vec<NumExpr> = Vec::new();
    let signed = plus.into_iter().chain(minus.into_iter().map(|(neg, t)| (!neg, t)));
    for (neg, term) in signed {
        if let NumExpr::Const(c) = term {
            let c = BoundVal::leaf(if neg { -c } else { c });
            let folded = BoundVal::join(constant, c, constant.v + c.v);
            if folded.exact {
                constant = folded;
                continue;
            }
        }
        if neg {
            negative.push(term);
        } else {
            positive = Some(match positive {
                Some(p) => NumExpr::add(p, term),
                None => term,
            });
        }
    }
    let mut acc = match positive {
        Some(p) if constant.v == 0.0 => p,
        Some(p) => NumExpr::add(p, NumExpr::Const(constant.v)),
        None => NumExpr::Const(constant.v),
    };
    for t in negative {
        acc = NumExpr::sub(acc, t);
    }
    acc
}

fn flip(op: CmpOp) -> CmpOp {
    match op {
        CmpOp::Lt => CmpOp::Gt,
        CmpOp::Le => CmpOp::Ge,
        CmpOp::Gt => CmpOp::Lt,
        CmpOp::Ge => CmpOp::Le,
        CmpOp::Eq | CmpOp::Ne => op,
    }
}

/// Adds to `out` the bounds on `x` that `lhs op rhs` implies.
fn bounds_from_cmp(lhs: &NumExpr, op: CmpOp, rhs: &NumExpr, x: VarId, out: &mut VarRange) {
    // `abs(s·x + r) {<,≤} c`  ⇔  −c ≤ s·x + r ≤ c  ⇔  s·x ∈ [−c − r, c − r].
    let abs_form = match (lhs, rhs) {
        (NumExpr::Abs(inner), c) if !mentions(c, x) => Some((inner, op, c)),
        (c, NumExpr::Abs(inner)) if !mentions(c, x) => Some((inner, flip(op), c)),
        _ => None,
    };
    if let Some((inner, op, c)) = abs_form {
        let (true, Some(l)) = (matches!(op, CmpOp::Lt | CmpOp::Le), linear(inner, x)) else {
            return;
        };
        let strict = op == CmpOp::Lt;
        let c = || vec![(false, c.clone())];
        match l.sign {
            1 => {
                out.push(true, sum(Vec::new(), [c(), l.rest.clone()].concat()), strict);
                out.push(false, sum(c(), l.rest), strict);
            }
            -1 => {
                out.push(true, sum(l.rest.clone(), c()), strict);
                out.push(false, sum([l.rest, c()].concat(), Vec::new()), strict);
            }
            _ => {}
        }
        return;
    }
    // `sl·x + rl  op  sr·x + rr`  ⇔  (sl − sr)·x  op  rr − rl.
    let (Some(l), Some(r)) = (linear(lhs, x), linear(rhs, x)) else { return };
    let (op, c) = match l.sign - r.sign {
        1 => (op, sum(r.rest, l.rest)),
        -1 => (flip(op), sum(l.rest, r.rest)),
        _ => return,
    };
    match op {
        CmpOp::Lt => out.push(false, c, true),
        CmpOp::Le => out.push(false, c, false),
        CmpOp::Gt => out.push(true, c, true),
        CmpOp::Ge => out.push(true, c, false),
        CmpOp::Eq => {
            out.push(true, c.clone(), false);
            out.push(false, c, false);
        }
        CmpOp::Ne => {}
    }
}

/// Visits the comparisons a guard asserts unconditionally: itself, or the
/// conjuncts of a top-level `And` (a comparison under `Or`/`Not` may be
/// false in a solution, so it bounds nothing).
fn for_each_conjunct(g: &GuardExpr, f: &mut impl FnMut(&NumExpr, CmpOp, &NumExpr)) {
    match g {
        GuardExpr::Cmp { lhs, op, rhs } => f(lhs, *op, rhs),
        GuardExpr::And(gs) => gs.iter().for_each(|g| for_each_conjunct(g, f)),
        _ => {}
    }
}

/// The bounds the program's guards put on `x`, using only guards whose
/// other variables are all in `known` (bound before the atom that binds `x`).
fn derive_range(program: &[CAtom], x: VarId, known: &HashSet<VarId>) -> VarRange {
    let mut range = VarRange::default();
    for atom in program {
        let CAtom::Guard(g) = atom else { continue };
        for_each_conjunct(g, &mut |lhs, op, rhs| {
            let mut vs = Vec::new();
            lhs.collect_vars(&mut vs);
            rhs.collect_vars(&mut vs);
            if vs.contains(&x) && vs.iter().all(|v| *v == x || known.contains(v)) {
                bounds_from_cmp(lhs, op, rhs, x, &mut range);
            }
        });
    }
    range
}

// ---------------------------------------------------------------------------
// Index requirements
// ---------------------------------------------------------------------------

/// The indexes a plan's access paths name; the stores build exactly these.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct IndexNeeds {
    /// Per symbol slot: the event argument columns with an equality index.
    pub events: Vec<Vec<u16>>,
    /// Per symbol slot: whether observations are probed on `(time, first
    /// argument)` and must be sorted that way.
    pub obs_first: Vec<bool>,
    /// Per symbol slot: the derived-fluent argument columns with an index.
    pub fluents: Vec<Vec<u16>>,
    /// Per relation: columns with an equality index.
    pub rel_eq: Vec<Vec<u16>>,
    /// Per relation: numeric columns with a sorted-value index.
    pub rel_num: Vec<Vec<u16>>,
}

impl IndexNeeds {
    pub(crate) fn new(n_slots: usize, n_relations: usize) -> IndexNeeds {
        IndexNeeds {
            events: vec![Vec::new(); n_slots],
            obs_first: vec![false; n_slots],
            fluents: vec![Vec::new(); n_slots],
            rel_eq: vec![Vec::new(); n_relations],
            rel_num: vec![Vec::new(); n_relations],
        }
    }
}

/// The ordinal of `col` in `cols`, registering it on first use.
fn ordinal(cols: &mut Vec<u16>, col: u16) -> u16 {
    let at = cols.iter().position(|&c| c == col).unwrap_or_else(|| {
        cols.push(col);
        cols.len() - 1
    });
    at as u16
}

/// The first argument position holding a constant or an already bound
/// variable.
fn first_bound_col(args: &[ArgPat], bound: &HashSet<VarId>) -> Option<u16> {
    args.iter()
        .position(|a| match a {
            ArgPat::Const(_) => true,
            ArgPat::Var(v) => bound.contains(v),
            ArgPat::Any => false,
        })
        .map(|c| c as u16)
}

/// The access path of a derived-fluent read (a body `holdsAt` or an interval
/// expression leaf) whose bound variables are `bound`.
pub(crate) fn fluent_access(
    slot: u32,
    args: &[ArgPat],
    bound: &HashSet<VarId>,
    needs: &mut IndexNeeds,
) -> Access {
    match first_bound_col(args, bound) {
        Some(col) => Access::Column { col, index: ordinal(&mut needs.fluents[slot as usize], col) },
        None => Access::Scan,
    }
}

// ---------------------------------------------------------------------------
// The planner
// ---------------------------------------------------------------------------

fn is_filter(a: &CAtom) -> bool {
    matches!(a, CAtom::Guard(_) | CAtom::Builtin { .. })
}

/// Plans one lowered program: schedules its filters, sinks head-only
/// `holdsAt` reads behind them, derives probe ranges from the guards and
/// fixes every atom's access path. `atoms` arrive in evaluation order (body
/// order, or a pivot arrangement of it) with placeholder access paths.
pub(crate) fn plan_program(atoms: Vec<CAtom>, needs: &mut IndexNeeds) -> Vec<CAtom> {
    let (filters, binders): (Vec<CAtom>, Vec<CAtom>) = atoms.into_iter().partition(is_filter);

    // A positive holdsAt is sinkable when it binds new variables and no other
    // condition mentions them (head-only, or unused). One that binds nothing
    // new is a pure test and stays put.
    let mut bound: HashSet<VarId> = HashSet::new();
    let sinkable: Vec<bool> = binders
        .iter()
        .enumerate()
        .map(|(i, a)| {
            let positive_holds = matches!(
                a,
                CAtom::HoldsInput { negated: false, .. }
                    | CAtom::HoldsDerived { negated: false, .. }
            );
            let fresh: Vec<VarId> = a.binds().into_iter().filter(|v| !bound.contains(v)).collect();
            bound.extend(a.binds());
            positive_holds
                && !fresh.is_empty()
                && !binders
                    .iter()
                    .enumerate()
                    .filter(|&(j, _)| j != i)
                    .map(|(_, o)| o)
                    .chain(&filters)
                    .any(|o| o.mentions().iter().any(|v| fresh.contains(v)))
        })
        .collect();

    // Filters first: after every binder, whatever has become evaluable runs
    // before the next binder enumerates anything — guards, then builtins.
    let mut out: Vec<CAtom> = Vec::with_capacity(binders.len() + filters.len());
    let mut pending: Vec<Option<CAtom>> = filters.into_iter().map(Some).collect();
    let mut after_last_filter = 0usize;
    let mut emit_ready = |out: &mut Vec<CAtom>, bound: &HashSet<VarId>| {
        for guards in [true, false] {
            for slot in pending.iter_mut() {
                let ready = slot.as_ref().is_some_and(|f| {
                    matches!(f, CAtom::Guard(_)) == guards
                        && f.mentions().iter().all(|v| bound.contains(v))
                });
                if ready {
                    out.push(slot.take().expect("checked above"));
                    after_last_filter = out.len();
                }
            }
        }
    };
    bound.clear();
    emit_ready(&mut out, &bound);
    let mut sunk: Vec<(usize, CAtom)> = Vec::new();
    for (a, sink) in binders.into_iter().zip(sinkable) {
        if sink {
            sunk.push((out.len(), a));
            continue;
        }
        bound.extend(a.binds());
        out.push(a);
        emit_ready(&mut out, &bound);
    }
    debug_assert!(pending.iter().all(Option::is_none), "validated bodies bind every filter");
    // A sunk read goes behind the last filter, never ahead of its own place
    // in the body (its read time is bound there) and never past binders that
    // follow the last filter (it may still prune their enumeration).
    for (k, (natural, a)) in sunk.into_iter().enumerate() {
        out.insert(natural.max(after_last_filter) + k, a);
    }

    // Access paths and probe ranges, walking the final order. The guards a
    // range was derived from hold for (almost) every candidate the probe
    // yields, so among the guards that follow the atom they run last: the
    // ones that can still fail go first.
    bound.clear();
    for i in 0..out.len() {
        let (access, range, ranged) = choose_probe(&out[i], &out, &bound, needs);
        out[i].set_probe(access, range);
        if let Some(x) = ranged {
            let run = out[i + 1..].iter().take_while(|a| matches!(a, CAtom::Guard(_))).count();
            out[i + 1..i + 1 + run]
                .sort_by_key(|g| !derive_range(std::slice::from_ref(g), x, &bound).is_empty());
        }
        bound.extend(out[i].binds());
    }
    out
}

/// The access path of one atom of `program`, given the variables bound
/// before it — and, where guards bound a variable the atom binds, the range
/// and that variable.
fn choose_probe(
    atom: &CAtom,
    program: &[CAtom],
    bound: &HashSet<VarId>,
    needs: &mut IndexNeeds,
) -> (Access, VarRange, Option<VarId>) {
    let plain = |access| (access, VarRange::default(), None);
    match atom {
        CAtom::Happens { slot, pat, time, .. } => {
            let access = match first_bound_col(&pat.args, bound) {
                Some(col) => {
                    Access::Column { col, index: ordinal(&mut needs.events[*slot as usize], col) }
                }
                None => Access::Scan,
            };
            if bound.contains(time) {
                let mut pinned = VarRange::default();
                pinned.push(true, NumExpr::Var(*time), false);
                pinned.push(false, NumExpr::Var(*time), false);
                return (access, pinned, None);
            }
            let range = derive_range(program, *time, bound);
            let ranged = (!range.is_empty()).then_some(*time);
            (access, range, ranged)
        }
        CAtom::HoldsInput { slot, pat, .. } => {
            if first_bound_col(&pat.args, bound) == Some(0) {
                needs.obs_first[*slot as usize] = true;
                plain(Access::Column { col: 0, index: 0 })
            } else {
                plain(Access::Scan)
            }
        }
        CAtom::HoldsDerived { slot, pat, .. } => {
            plain(fluent_access(*slot, &pat.args, bound, needs))
        }
        CAtom::Relation { idx, args, .. } => {
            let r = *idx as usize;
            if let Some(col) = first_bound_col(args, bound) {
                return plain(Access::Column { col, index: ordinal(&mut needs.rel_eq[r], col) });
            }
            // The first column variable some guard bounds from values
            // already known when the atom runs.
            let ranged = args.iter().enumerate().find_map(|(c, a)| {
                let x = a.var()?;
                let range = derive_range(program, x, bound);
                (!range.is_empty()).then_some((c as u16, x, range))
            });
            match ranged {
                Some((col, x, range)) => {
                    let index = ordinal(&mut needs.rel_num[r], col);
                    (Access::Range { index }, range, Some(x))
                }
                None => plain(Access::Scan),
            }
        }
        CAtom::Builtin { .. } | CAtom::Guard(_) => plain(Access::Scan),
    }
}

/// The role range of a `happensAt` probe intersected with its guard-derived
/// range; `None` when no time-point can match.
pub(crate) fn time_window(
    role_lo: Time,
    role_hi: Time,
    range: &VarRange,
    b: &Bindings,
) -> Option<(Time, Time)> {
    let (mut lo, mut hi) = (role_lo, role_hi);
    range.clamp_time(b, &mut lo, &mut hi);
    (lo <= hi).then_some((lo, hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile::{CompiledPlan, HappensRole};
    use crate::dsl::*;
    use crate::rule::{IntervalExpr, ValRef};
    use crate::term::Term;
    use crate::time::{TIME_MAX, TIME_MIN};

    /// One planned program, an atom per entry: its symbol, the variables a
    /// filter reads, and the access path (`~` marks a guard-derived range).
    fn render(names: &[String], plan: &CompiledPlan, program: &[CAtom]) -> Vec<String> {
        let path = |access: &Access, range: &VarRange| {
            let p = match access {
                Access::Column { col, .. } => format!("col{col}"),
                Access::Range { .. } => "band".to_string(),
                Access::Scan => "scan".to_string(),
            };
            if range.is_empty() {
                p
            } else {
                format!("{p}~")
            }
        };
        program
            .iter()
            .map(|a| match a {
                CAtom::Happens { pat, role, access, range, .. } => {
                    let role = match role {
                        HappensRole::Pivot => "pivot ",
                        HappensRole::Before => "before ",
                        HappensRole::Free => "",
                    };
                    format!("{role}{}[{}]", pat.kind, path(access, range))
                }
                CAtom::HoldsInput { pat, negated, access, .. }
                | CAtom::HoldsDerived { pat, negated, access, .. } => {
                    let not = if *negated { "not " } else { "" };
                    format!("{not}{}[{}]", pat.name, path(access, &VarRange::default()))
                }
                CAtom::Relation { idx, access, range, .. } => {
                    format!("{}[{}]", plan.relation_syms[*idx as usize], path(access, range))
                }
                CAtom::Builtin { idx, .. } => format!("{}()", plan.builtin_syms[*idx as usize]),
                CAtom::Guard(_) => {
                    let mut vs = a.mentions();
                    vs.dedup();
                    let vs: Vec<&str> = vs.iter().map(|v| names[v.index()].as_str()).collect();
                    format!("guard({})", vs.join(","))
                }
            })
            .collect()
    }

    fn diff(l: VarId, r: VarId, op: CmpOp, c: f64) -> crate::rule::BodyAtom {
        guard(cmp(NumExpr::sub(l.into(), r.into()), op, c))
    }

    /// The shape of the paper's `delayIncrease`: two same-bus events, a
    /// position read at each, and the guards typed last.
    #[test]
    fn filters_run_first_and_head_only_reads_sink_behind_them() {
        let mut b = RuleSetBuilder::new();
        b.declare_event("move", 2).declare_input_fluent("gps", 2);
        let (bus, d1, d2) = (b.var("Bus"), b.var("D1"), b.var("D2"));
        let (p1, p2, t1, t2) = (b.var("P1"), b.var("P2"), b.var("T1"), b.var("T2"));
        b.derived_event(
            event_head("delayIncrease", [pat(bus), pat(p1), pat(p2)]),
            t2,
            [
                happens(event_pat("move", [pat(bus), pat(d1)]), t1),
                holds(fluent_pat("gps", [pat(bus), pat(p1)], val(true)), t1),
                happens(event_pat("move", [pat(bus), pat(d2)]), t2),
                holds(fluent_pat("gps", [pat(bus), pat(p2)], val(true)), t2),
                diff(d2, d1, CmpOp::Gt, 45.0),
                diff(t2, t1, CmpOp::Gt, 0.0),
                diff(t2, t1, CmpOp::Lt, 120.0),
            ],
        );
        let names = b.var_names.clone();
        let plan = CompiledPlan::compile(b.build().unwrap());
        let body = &plan.ev_bodies[0];
        // The second event is reached through the bus index inside the time
        // window its guards imply; the guard that can still fail runs before
        // the two the window already enforces; the reads come last.
        let tail = ["guard(D2,D1)", "guard(T2,T1)", "guard(T2,T1)", "gps[col0]", "gps[col0]"]
            .map(String::from);
        assert_eq!(
            render(&names, &plan, &body.full),
            [&["move[scan]".into(), "move[col0~]".into()], &tail[..]].concat()
        );
        assert_eq!(
            render(&names, &plan, &body.pivots[0]),
            [&["pivot move[scan]".into(), "move[col0~]".into()], &tail[..]].concat()
        );
        assert_eq!(
            render(&names, &plan, &body.pivots[1]),
            [&["pivot move[scan]".into(), "before move[col0~]".into()], &tail[..]].concat()
        );
        // The stores index exactly what those paths probe.
        let slot = |name: &str| plan.slots.slot(crate::term::Symbol::new(name)).unwrap() as usize;
        assert_eq!(plan.needs.events[slot("move")], vec![0]);
        assert!(plan.needs.obs_first[slot("gps")]);
        assert!(plan.needs.events[slot("delayIncrease")].is_empty());
    }

    #[test]
    fn reads_stay_put_when_someone_needs_them_or_nothing_follows() {
        let mut b = RuleSetBuilder::new();
        b.declare_event("a", 1).declare_event("c", 1).declare_input_fluent("g", 2);
        b.declare_builtin("odd", 1);
        let (x, y, v, t, t2) = (b.var("X"), b.var("Y"), b.var("V"), b.var("T"), b.var("T2"));
        // V feeds a guard: the read cannot sink below it.
        b.derived_event(
            event_head("used", [pat(x)]),
            t,
            [
                happens(event_pat("a", [pat(x)]), t),
                holds(fluent_pat("g", [pat(x), pat(v)], val(true)), t),
                happens(event_pat("c", [pat(y)]), t2),
                guard(cmp(v, CmpOp::Gt, 3.0)),
                diff(t2, t, CmpOp::Lt, 10.0),
            ],
        );
        // No filter at all: the existence check keeps pruning the second
        // event's enumeration.
        b.derived_event(
            event_head("unfiltered", [pat(x), pat(v)]),
            t,
            [
                happens(event_pat("a", [pat(x)]), t),
                holds(fluent_pat("g", [pat(x), pat(v)], val(true)), t),
                happens(event_pat("c", [pat(y)]), t2),
            ],
        );
        // A negated read never moves; guards and builtins hoist over it,
        // guards first.
        b.derived_event(
            event_head("negated", [pat(x)]),
            t,
            [
                happens(event_pat("a", [pat(x)]), t),
                not_holds(fluent_pat("g", [pat(x), any()], val(true)), t),
                happens(event_pat("c", [pat(y)]), t2),
                builtin("odd", [ValRef::Var(x)]),
                guard(cmp(x, CmpOp::Gt, 0.0)),
            ],
        );
        // A read that binds nothing new is a test, not a multiplier: it stays
        // ahead of the join it prunes even though a guard follows.
        b.derived_event(
            event_head("tested", [pat(x), pat(y)]),
            t,
            [
                happens(event_pat("a", [pat(x)]), t),
                holds(fluent_pat("g", [pat(x), pat(x)], val(true)), t),
                happens(event_pat("c", [pat(y)]), t2),
                diff(t2, t, CmpOp::Lt, 10.0),
            ],
        );
        let names = b.var_names.clone();
        let plan = CompiledPlan::compile(b.build().unwrap());
        let full = |i: usize| render(&names, &plan, &plan.ev_bodies[i].full);
        assert_eq!(full(0), ["a[scan]", "g[col0]", "guard(V)", "c[scan~]", "guard(T2,T)"]);
        assert_eq!(full(1), ["a[scan]", "g[col0]", "c[scan]"]);
        assert_eq!(full(2), ["a[scan]", "guard(X)", "odd()", "not g[col0]", "c[scan]"]);
        assert_eq!(full(3), ["a[scan]", "g[col0]", "c[scan~]", "guard(T2,T)"]);
    }

    #[test]
    fn relations_probe_a_bound_column_else_a_guarded_band_else_scan() {
        let mut b = RuleSetBuilder::new();
        b.declare_event("at", 3).declare_relation("site", 3).declare_relation("box", 1);
        b.declare_builtin("near", 2);
        let (id, px, py, t) = (b.var("Id"), b.var("Px"), b.var("Py"), b.var("T"));
        let (sx, sy, d) = (b.var("Sx"), b.var("Sy"), b.var("D"));
        let within = |s: VarId, p: VarId| {
            guard(cmp(NumExpr::Abs(Box::new(NumExpr::sub(s.into(), p.into()))), CmpOp::Le, d))
        };
        // The paper's spatial join with the box its builtin implies.
        b.derived_event(
            event_head("nearSite", [pat(id), pat(sx), pat(sy)]),
            t,
            [
                happens(event_pat("at", [pat(id), pat(px), pat(py)]), t),
                relation("box", [pat(d)]),
                relation("site", [any(), pat(sx), pat(sy)]),
                within(sx, px),
                within(sy, py),
                builtin("near", [ValRef::Var(sx), ValRef::Var(px)]),
            ],
        );
        // A bound non-first column is an equality probe.
        b.derived_event(
            event_head("onSite", [pat(id), pat(sx)]),
            t,
            [
                happens(event_pat("at", [pat(id), pat(px), pat(py)]), t),
                relation("site", [pat(sx), any(), pat(py)]),
            ],
        );
        // A comparison under `or`/`not` may be false in a solution: no band.
        b.derived_event(
            event_head("maybeSite", [pat(id), pat(sx)]),
            t,
            [
                happens(event_pat("at", [pat(id), pat(px), pat(py)]), t),
                relation("site", [any(), pat(sx), any()]),
                guard(GuardExpr::Not(Box::new(cmp(sx, CmpOp::Gt, px)))),
            ],
        );
        let names = b.var_names.clone();
        let plan = CompiledPlan::compile(b.build().unwrap());
        let full = |i: usize| render(&names, &plan, &plan.ev_bodies[i].full);
        // The band is walked on the first guarded column; the guard on the
        // *other* column runs first, the band's own guard after it.
        assert_eq!(
            full(0),
            ["at[scan]", "box[scan]", "site[band~]", "guard(Sy,Py,D)", "guard(Sx,Px,D)", "near()"]
        );
        assert_eq!(full(1), ["at[scan]", "site[col2]"]);
        assert_eq!(full(2), ["at[scan]", "site[scan]", "guard(Sx,Px)"]);
        let site = plan.relation_syms.iter().position(|s| s.as_str() == "site").unwrap();
        assert_eq!((&plan.needs.rel_eq[site], &plan.needs.rel_num[site]), (&vec![2], &vec![1]));
    }

    #[test]
    fn interval_expression_leaves_probe_their_first_bound_argument() {
        let mut b = RuleSetBuilder::new();
        b.declare_event("up", 2).declare_event("down", 2).declare_relation("unit", 1);
        let (u, s, t) = (b.var("U"), b.var("S"), b.var("T"));
        b.initiated(
            fluent("on", [pat(s), pat(u)], val(true)),
            t,
            [happens(event_pat("up", [pat(s), pat(u)]), t)],
        );
        b.terminated(
            fluent("on", [pat(s), pat(u)], val(true)),
            t,
            [happens(event_pat("down", [pat(s), pat(u)]), t)],
        );
        b.static_fluent(
            fluent("anyOn", [pat(u)], val(true)),
            [relation("unit", [pat(u)])],
            IntervalExpr::Fluent(fluent_pat("on", [any(), pat(u)], val(true))),
        );
        let plan = CompiledPlan::compile(b.build().unwrap());
        let crate::compile::CIntervalExpr::Fluent { access, slot, .. } =
            &plan.static_bodies[0].expr
        else {
            panic!("leaf expected");
        };
        assert_eq!(*access, Access::Column { col: 1, index: 0 });
        assert_eq!(plan.needs.fluents[*slot as usize], vec![1]);
    }

    #[test]
    fn constants_that_absorb_each_other_leave_the_window_open() {
        // `X + 1e300 ≤ 1e300 + 5` holds for every tick f64 cannot tell from
        // zero at that magnitude; folding the constants would claim X ≤ 5.
        let big = NumExpr::Const(1e300);
        let r =
            range_of(NumExpr::add(var(X), big.clone()), CmpOp::Le, NumExpr::add(big, 5.0.into()));
        let (_, hi) = window(&r, &Bindings::new(3)).expect("non-empty");
        assert_eq!(hi, TIME_MAX);
        // Integer constants do fold: X + 7 < Y + 10 is X < Y + 3, exactly.
        let r = range_of(
            NumExpr::add(var(X), 7.0.into()),
            CmpOp::Lt,
            NumExpr::add(var(Y), 10.0.into()),
        );
        assert_eq!(window(&r, &env(Term::int(100))), Some((TIME_MIN, 102)));
    }

    const X: VarId = VarId(0);
    const Y: VarId = VarId(1);
    const D: VarId = VarId(2);

    fn var(v: VarId) -> NumExpr {
        NumExpr::Var(v)
    }

    fn range_of(lhs: NumExpr, op: CmpOp, rhs: NumExpr) -> VarRange {
        let mut r = VarRange::default();
        bounds_from_cmp(&lhs, op, &rhs, X, &mut r);
        r
    }

    fn env(y: Term) -> Bindings {
        let mut b = Bindings::new(3);
        b.bind(Y, &y);
        b
    }

    fn window(r: &VarRange, b: &Bindings) -> Option<(Time, Time)> {
        time_window(TIME_MIN, TIME_MAX, r, b)
    }

    #[test]
    fn difference_guards_become_exact_integer_windows() {
        let b = env(Term::int(100));
        // X − Y < 120  and  X − Y > 0  ⇒  X ∈ [101, 219].
        let mut r = range_of(NumExpr::sub(var(X), var(Y)), CmpOp::Lt, 120.0.into());
        bounds_from_cmp(&NumExpr::sub(var(X), var(Y)), CmpOp::Gt, &0.0.into(), X, &mut r);
        assert_eq!(window(&r, &b), Some((101, 219)));
        // Non-strict flavours keep the end points.
        let r = range_of(NumExpr::sub(var(X), var(Y)), CmpOp::Le, 120.0.into());
        assert_eq!(window(&r, &b), Some((TIME_MIN, 220)));
        let r = range_of(NumExpr::sub(var(X), var(Y)), CmpOp::Ge, 0.0.into());
        assert_eq!(window(&r, &b), Some((100, TIME_MAX)));
    }

    #[test]
    fn the_variable_may_sit_on_either_side_with_either_sign() {
        let b = env(Term::int(100));
        // Y − X < 30  ⇔  X > 70.
        let r = range_of(NumExpr::sub(var(Y), var(X)), CmpOp::Lt, 30.0.into());
        assert_eq!(window(&r, &b), Some((71, TIME_MAX)));
        // 30 > Y − X, the same guard mirrored.
        let r = range_of(30.0.into(), CmpOp::Gt, NumExpr::sub(var(Y), var(X)));
        assert_eq!(window(&r, &b), Some((71, TIME_MAX)));
        // X + 5 ≤ Y  ⇔  X ≤ 95; X == Y pins both ends.
        let r = range_of(NumExpr::add(var(X), 5.0.into()), CmpOp::Le, var(Y));
        assert_eq!(window(&r, &b), Some((TIME_MIN, 95)));
        let r = range_of(var(X), CmpOp::Eq, var(Y));
        assert_eq!(window(&r, &b), Some((100, 100)));
        // `!=`, a doubled variable and a product bound nothing.
        assert!(range_of(var(X), CmpOp::Ne, var(Y)).is_empty());
        assert!(range_of(NumExpr::add(var(X), var(X)), CmpOp::Lt, var(Y)).is_empty());
        let prod = NumExpr::Mul(Box::new(var(X)), Box::new(2.0.into()));
        assert!(range_of(prod, CmpOp::Lt, var(Y)).is_empty());
    }

    #[test]
    fn non_integer_negative_and_zero_width_constants() {
        let b = env(Term::int(100));
        // X − Y < 19.5 ⇒ X ≤ 119 (inexact path, widened by far less than 1).
        let r = range_of(NumExpr::sub(var(X), var(Y)), CmpOp::Lt, 19.5.into());
        assert_eq!(window(&r, &b), Some((TIME_MIN, 119)));
        // X − Y > −2.5 ⇒ X ≥ 98.
        let r = range_of(NumExpr::sub(var(X), var(Y)), CmpOp::Gt, (-2.5).into());
        assert_eq!(window(&r, &b), Some((98, TIME_MAX)));
        // 0 < X − Y < 0 is empty; 0 ≤ X − Y ≤ 0 is the single tick.
        let mut r = range_of(NumExpr::sub(var(X), var(Y)), CmpOp::Gt, 0.0.into());
        bounds_from_cmp(&NumExpr::sub(var(X), var(Y)), CmpOp::Lt, &0.0.into(), X, &mut r);
        assert_eq!(window(&r, &b), None);
        let mut r = range_of(NumExpr::sub(var(X), var(Y)), CmpOp::Ge, 0.0.into());
        bounds_from_cmp(&NumExpr::sub(var(X), var(Y)), CmpOp::Le, &0.0.into(), X, &mut r);
        assert_eq!(window(&r, &b), Some((100, 100)));
    }

    #[test]
    fn abs_guards_become_bands_in_either_operand_order() {
        let mut b = env(Term::float(53.35));
        b.bind(D, &Term::float(0.002));
        for inner in [NumExpr::sub(var(X), var(Y)), NumExpr::sub(var(Y), var(X))] {
            let r = range_of(NumExpr::Abs(Box::new(inner)), CmpOp::Le, var(D));
            let (lo, hi) = r.band(&b);
            assert!((53.3479..=53.348).contains(&lo), "{lo}");
            assert!((53.352..53.3521).contains(&hi), "{hi}");
        }
        // abs(..) ≥ d excludes a band instead of selecting one: no range.
        let inner = NumExpr::sub(var(X), var(Y));
        assert!(range_of(NumExpr::Abs(Box::new(inner)), CmpOp::Ge, var(D)).is_empty());
    }

    #[test]
    fn bounds_at_the_ends_of_time_never_exclude_what_the_guard_accepts() {
        // Near TIME_MAX f64 cannot tell neighbouring ticks apart: the guard
        // `X − Y < 120` accepts whatever rounds close enough, so the window
        // must stay open up to the type's limit.
        let b = env(Term::int(TIME_MAX - 1));
        let r = range_of(NumExpr::sub(var(X), var(Y)), CmpOp::Lt, 120.0.into());
        let (_, hi) = window(&r, &b).expect("non-empty");
        assert_eq!(hi, TIME_MAX);
        let r = range_of(NumExpr::sub(var(X), var(Y)), CmpOp::Gt, 0.0.into());
        let (lo, _) = window(&r, &b).expect("non-empty");
        assert!(lo <= TIME_MAX - 4096, "lower bound must be widened, got {lo}");

        let b = env(Term::int(TIME_MIN + 1));
        let r = range_of(NumExpr::sub(var(X), var(Y)), CmpOp::Gt, 0.0.into());
        let (lo, _) = window(&r, &b).expect("non-empty");
        assert_eq!(lo, TIME_MIN);
        let r = range_of(NumExpr::sub(var(X), var(Y)), CmpOp::Lt, 120.0.into());
        let (_, hi) = window(&r, &b).expect("non-empty");
        assert!(hi >= TIME_MIN + 4096, "upper bound must be widened, got {hi}");

        // 2⁶⁰ + 1 rounds to 2⁶⁰: a tick 100 later still satisfies the f64
        // guard `X − Y < 120`, and one 100 earlier `X − Y > −120`.
        let y = (1i64 << 60) + 1;
        let b = env(Term::int(y));
        let guard = |x: i64| (x as f64) - (y as f64) < 120.0;
        let r = range_of(NumExpr::sub(var(X), var(Y)), CmpOp::Lt, 120.0.into());
        let (_, hi) = window(&r, &b).expect("non-empty");
        for x in [y + 100, y + 119, y + 127] {
            assert!(!guard(x) || x <= hi, "guard accepts {x} but the window ends at {hi}");
        }
    }

    #[test]
    fn unevaluable_bounds_constrain_nothing() {
        let r = range_of(NumExpr::sub(var(X), var(Y)), CmpOp::Lt, 120.0.into());
        // Y unbound, Y symbolic, Y infinite, and ∞ − ∞.
        assert_eq!(window(&r, &Bindings::new(3)), Some((TIME_MIN, TIME_MAX)));
        assert_eq!(window(&r, &env(Term::sym("a"))), Some((TIME_MIN, TIME_MAX)));
        assert_eq!(window(&r, &env(Term::float(f64::INFINITY))), Some((TIME_MIN, TIME_MAX)));
        let r = range_of(NumExpr::add(var(X), var(Y)), CmpOp::Le, f64::INFINITY.into());
        assert_eq!(window(&r, &env(Term::float(f64::INFINITY))), Some((TIME_MIN, TIME_MAX)));
    }

    #[test]
    fn a_before_role_with_an_empty_derived_range_has_no_window() {
        // Pivot at frontier 500: the Before atom may only look below 500,
        // the guard wants it above 600.
        let b = env(Term::int(600));
        let r = range_of(NumExpr::sub(var(X), var(Y)), CmpOp::Gt, 0.0.into());
        assert_eq!(time_window(TIME_MIN, 499, &r, &b), None);
        // …and with the guard satisfiable the two intersect.
        let b = env(Term::int(400));
        assert_eq!(time_window(TIME_MIN, 499, &r, &b), Some((401, 499)));
    }
}
