//! A deliberately naive reference Event Calculus interpreter.
//!
//! [`Oracle`] interprets the *same* compiled [`RuleSet`] AST as
//! `insight_rtec::engine::Engine`, but from first principles (§4 of the
//! paper): it is handed the **entire** SDE history at once and recomputes
//! every `initiatedAt` / `terminatedAt` point and every `holdsAt` answer
//! from scratch — no windowing, no retention, no interval lists, no caches,
//! no inter-query incremental state, no event indexes. `holdsAt(F=V, T)` is
//! answered by the textbook inertia formula: an initiation point at or
//! before `T` with no later termination in `(Ti, T]` (terminations are
//! applied before initiations at equal time-points, matching
//! `IntervalList::from_points`).
//!
//! Because the implementation shares nothing with the engine beyond the rule
//! AST and the pattern matcher, agreement between the two on the same
//! knowledge is strong evidence that the engine's windowed/incremental
//! machinery implements the declarative semantics.
//!
//! Every derivation additionally records its **evidence span** — the minimum
//! and maximum time-point mentioned by any `happensAt`/`holdsAt` condition
//! used — so differential tests can predict which derived events a windowed
//! engine can possibly re-derive inside `(Q − WM, Q]` (the engine only
//! reports a derived event when all of its evidence is inside the window;
//! simple-fluent state, by contrast, persists through the inertia cache).

use insight_rtec::dsl::RuleSet;
use insight_rtec::event::{Event, FluentObs};
use insight_rtec::pattern::{match_args, unbind_all, ArgPat, Bindings, FluentPattern};
use insight_rtec::rule::{BodyAtom, GuardExpr, IntervalExpr, NumExpr, SfKind, ValRef};
use insight_rtec::stratify::HeadKind;
use insight_rtec::term::{Symbol, Term};
use insight_rtec::time::Time;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// Receives each complete body solution: the final bindings plus the
/// time-point spans of the temporal conditions that matched.
type SolutionSink<'a> = dyn FnMut(&mut Bindings, &[(Time, Time)]) + 'a;

/// Boolean builtin callback, same shape as the engine's.
pub type BuiltinFn = Arc<dyn Fn(&[Term]) -> bool + Send + Sync>;

/// An event instance together with the evidence span of one derivation.
/// Input events carry the trivial span `(time, time)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpannedEvent {
    /// Event kind.
    pub kind: Symbol,
    /// Ground arguments.
    pub args: Vec<Term>,
    /// Occurrence time.
    pub time: Time,
    /// `(earliest, latest)` time-point mentioned by the derivation.
    pub span: (Time, Time),
}

/// All initiation/termination points the oracle found for one grounding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct GroundFluent {
    /// Ground arguments of the fluent.
    pub args: Vec<Term>,
    /// The fluent value.
    pub value: Term,
    /// Sorted, de-duplicated initiation points.
    pub inits: Vec<Time>,
    /// Sorted, de-duplicated termination points.
    pub terms: Vec<Time>,
}

/// The reference interpreter. Configure it exactly like the engine
/// (same rule set, relations, builtins, `initially` facts), then call
/// [`Oracle::run`] with the complete history.
pub struct Oracle {
    rules: RuleSet,
    relations: HashMap<Symbol, Vec<Vec<Term>>>,
    builtins: HashMap<Symbol, BuiltinFn>,
    initially: BTreeSet<(Symbol, Vec<Term>, Term)>,
}

impl Oracle {
    /// A fresh oracle for one rule set.
    pub fn new(rules: RuleSet) -> Oracle {
        Oracle {
            rules,
            relations: HashMap::new(),
            builtins: HashMap::new(),
            initially: BTreeSet::new(),
        }
    }

    /// Provides the tuples of a finite relation (mirrors
    /// `Engine::set_relation`).
    pub fn set_relation(&mut self, name: &str, tuples: Vec<Vec<Term>>) {
        self.relations.insert(Symbol::new(name), tuples);
    }

    /// Registers a boolean builtin (mirrors `Engine::register_builtin`).
    pub fn register_builtin<F>(&mut self, name: &str, f: F)
    where
        F: Fn(&[Term]) -> bool + Send + Sync + 'static,
    {
        self.builtins.insert(Symbol::new(name), Arc::new(f));
    }

    /// Declares that a fluent grounding holds from the beginning of time
    /// (mirrors `Engine::set_initially`).
    pub fn set_initially(&mut self, name: &str, args: Vec<Term>, value: Term) {
        self.initially.insert((Symbol::new(name), args, value));
    }

    /// Interprets the rule set over the complete history: every event and
    /// observation that the recogniser is assumed to know about, in any
    /// order. Duplicates are harmless (set semantics throughout).
    pub fn run(&self, events: &[Event], obs: &[FluentObs]) -> OracleResult<'_> {
        let mut state = OracleResult {
            oracle: self,
            events: events
                .iter()
                .map(|e| SpannedEvent {
                    kind: e.kind,
                    args: e.args.clone(),
                    time: e.time,
                    span: (e.time, e.time),
                })
                .collect(),
            obs: obs.to_vec(),
            sf: HashMap::new(),
            derived: Vec::new(),
        };
        for stratum in self.rules.strata() {
            match stratum.kind {
                HeadKind::Event => state.eval_event_stratum(&stratum.rule_indices),
                HeadKind::SimpleFluent => state.eval_sf_stratum(&stratum.rule_indices),
                // Statically-determined fluents have no stored state: they
                // are evaluated pointwise on demand from their definition.
                HeadKind::StaticFluent => {}
            }
        }
        state
    }
}

/// The oracle's answers over one complete history.
pub struct OracleResult<'a> {
    oracle: &'a Oracle,
    /// All events: inputs plus derived, one entry per distinct evidence span.
    events: Vec<SpannedEvent>,
    obs: Vec<FluentObs>,
    /// Initiation/termination points per simple-fluent symbol.
    sf: HashMap<Symbol, Vec<GroundFluent>>,
    /// Derived events in derivation order (unsorted, de-duplicated per span).
    derived: Vec<SpannedEvent>,
}

impl OracleResult<'_> {
    /// All derived events, one entry per distinct `(kind, args, time, span)`.
    pub fn derived_events(&self) -> &[SpannedEvent] {
        &self.derived
    }

    /// The distinct derived event instances whose evidence fits entirely
    /// inside the window `(start, q]` — exactly the instances a correct
    /// windowed engine must report at query time `q`.
    pub(crate) fn derived_events_in_window(
        &self,
        start: Time,
        q: Time,
    ) -> Vec<(Symbol, Vec<Term>, Time)> {
        let mut out: Vec<(Symbol, Vec<Term>, Time)> = self
            .derived
            .iter()
            .filter(|e| e.span.0 > start && e.span.1 <= q)
            .map(|e| (e.kind, e.args.clone(), e.time))
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// `holdsAt(name(args) = value, t)` from first principles.
    pub fn holds_at(&self, name: &str, args: &[Term], value: &Term, t: Time) -> bool {
        self.holds_at_sym(Symbol::new(name), args, value, t)
    }

    fn holds_at_sym(&self, name: Symbol, args: &[Term], value: &Term, t: Time) -> bool {
        if self.is_static(name) {
            return self.static_holds_at(name, args, value, t);
        }
        let initially = self.oracle.initially.contains(&(name, args.to_vec(), value.clone()));
        let points = self
            .sf
            .get(&name)
            .and_then(|gs| gs.iter().find(|g| g.args == args && &g.value == value));
        match points {
            Some(g) => holds_by_inertia(g, initially, t),
            None => initially,
        }
    }

    /// All groundings `(args, value)` the oracle has evidence about for a
    /// fluent: initiation/termination points for simple fluents, domain
    /// enumerations for static ones.
    pub fn groundings(&self, name: &str) -> Vec<(Vec<Term>, Term)> {
        let sym = Symbol::new(name);
        let mut out: Vec<(Vec<Term>, Term)> = Vec::new();
        if let Some(gs) = self.sf.get(&sym) {
            out.extend(gs.iter().map(|g| (g.args.clone(), g.value.clone())));
        }
        for (args, value) in self.static_groundings(sym) {
            out.push((args, value));
        }
        for (n, args, value) in &self.oracle.initially {
            if *n == sym {
                out.push((args.clone(), value.clone()));
            }
        }
        out.sort();
        out.dedup();
        out
    }

    fn is_static(&self, name: Symbol) -> bool {
        self.oracle.rules.static_rules().iter().any(|r| r.head.name == name)
    }

    // -- rule evaluation ----------------------------------------------------

    fn eval_event_stratum(&mut self, rule_indices: &[usize]) {
        let mut new: Vec<SpannedEvent> = Vec::new();
        for &i in rule_indices {
            let rule = &self.oracle.rules.ev_rules()[i];
            let mut b = Bindings::new(rule.n_vars);
            let mut spans: Vec<(Time, Time)> = Vec::new();
            let mut solutions: Vec<(Vec<Term>, Time, (Time, Time))> = Vec::new();
            self.solve(&rule.body, &mut b, &mut spans, &mut |b, spans| {
                let Some(t) = b.get(rule.time).and_then(Term::as_i64) else {
                    return;
                };
                let Some(args) = instantiate(&rule.head.args, b) else {
                    return;
                };
                solutions.push((args, t, fold_span(spans, t)));
            });
            for (args, time, span) in solutions {
                new.push(SpannedEvent { kind: rule.head.kind, args, time, span });
            }
        }
        new.sort_by(|a, b| {
            (a.kind, &a.args, a.time, a.span).cmp(&(b.kind, &b.args, b.time, b.span))
        });
        new.dedup();
        // Derived events become visible to later strata only (same as the
        // engine, which indexes them after the stratum completes).
        self.events.extend(new.iter().cloned());
        self.derived.extend(new);
    }

    fn eval_sf_stratum(&mut self, rule_indices: &[usize]) {
        let mut collected: Vec<(Symbol, Vec<Term>, Term, SfKind, Time)> = Vec::new();
        for &i in rule_indices {
            let rule = &self.oracle.rules.sf_rules()[i];
            let mut b = Bindings::new(rule.n_vars);
            let mut spans: Vec<(Time, Time)> = Vec::new();
            self.solve(&rule.body, &mut b, &mut spans, &mut |b, _spans| {
                let Some(t) = b.get(rule.time).and_then(Term::as_i64) else {
                    return;
                };
                let (Some(args), Some(value)) =
                    (instantiate(&rule.head.args, b), instantiate_one(&rule.head.value, b))
                else {
                    return;
                };
                collected.push((rule.head.name, args, value, rule.kind, t));
            });
        }
        for (name, args, value, kind, t) in collected {
            let groundings = self.sf.entry(name).or_default();
            let g = match groundings.iter_mut().find(|g| g.args == args && g.value == value) {
                Some(g) => g,
                None => {
                    groundings.push(GroundFluent {
                        args,
                        value,
                        inits: Vec::new(),
                        terms: Vec::new(),
                    });
                    groundings.last_mut().expect("just pushed")
                }
            };
            let points = match kind {
                SfKind::Initiated => &mut g.inits,
                SfKind::Terminated => &mut g.terms,
            };
            if let Err(at) = points.binary_search(&t) {
                points.insert(at, t);
            }
        }
    }

    // -- naive body solver --------------------------------------------------

    /// Left-to-right backtracking over body atoms, scanning the full event
    /// and observation history with no indexes. `spans` accumulates the
    /// time-points of the temporal conditions matched so far.
    fn solve(
        &self,
        atoms: &[BodyAtom],
        b: &mut Bindings,
        spans: &mut Vec<(Time, Time)>,
        out: &mut SolutionSink<'_>,
    ) {
        let Some((atom, rest)) = atoms.split_first() else {
            out(b, spans);
            return;
        };
        match atom {
            BodyAtom::Happens { pat, time } => {
                for e in &self.events {
                    if e.kind != pat.kind {
                        continue;
                    }
                    let t_term = Term::int(e.time);
                    let time_was_bound = b.is_bound(*time);
                    if time_was_bound {
                        if b.get(*time) != Some(&t_term) {
                            continue;
                        }
                    } else if !b.bind(*time, &t_term) {
                        continue;
                    }
                    if let Some(bound) = match_args(&pat.args, &e.args, b) {
                        spans.push(e.span);
                        self.solve(rest, b, spans, out);
                        spans.pop();
                        unbind_all(&bound, b);
                    }
                    if !time_was_bound {
                        b.unbind(*time);
                    }
                }
            }
            BodyAtom::Holds { pat, time, negated } => {
                let Some(t) = b.get(*time).and_then(Term::as_i64) else {
                    return; // the time variable must be bound by now
                };
                if *negated {
                    if !self.some_holds(pat, t, b) {
                        spans.push((t, t));
                        self.solve(rest, b, spans, out);
                        spans.pop();
                    }
                } else {
                    self.each_holding(pat, t, b, &mut |b| {
                        spans.push((t, t));
                        self.solve(rest, b, spans, out);
                        spans.pop();
                    });
                }
            }
            BodyAtom::Relation { name, args } => {
                let Some(tuples) = self.oracle.relations.get(name) else {
                    return;
                };
                for tuple in tuples {
                    if let Some(bound) = match_args(args, tuple, b) {
                        self.solve(rest, b, spans, out);
                        unbind_all(&bound, b);
                    }
                }
            }
            BodyAtom::Builtin { name, args } => {
                let Some(f) = self.oracle.builtins.get(name) else {
                    return;
                };
                let resolved: Option<Vec<Term>> = args.iter().map(|a| resolve(a, b)).collect();
                if let Some(terms) = resolved {
                    if f(&terms) {
                        self.solve(rest, b, spans, out);
                    }
                }
            }
            BodyAtom::Guard(g) => {
                if eval_guard(g, b) {
                    self.solve(rest, b, spans, out);
                }
            }
        }
    }

    /// True when some grounding matching `pat` (under the current bindings)
    /// holds at `t`. Leaves the bindings untouched.
    fn some_holds(&self, pat: &FluentPattern, t: Time, b: &mut Bindings) -> bool {
        let mut found = false;
        self.each_holding(pat, t, b, &mut |_| found = true);
        found
    }

    /// Enumerates the groundings matching `pat` that hold at `t`, binding
    /// the pattern's variables for each.
    fn each_holding(
        &self,
        pat: &FluentPattern,
        t: Time,
        b: &mut Bindings,
        k: &mut dyn FnMut(&mut Bindings),
    ) {
        if self.oracle.rules.input_fluents().contains_key(&pat.name) {
            // Input fluents are point observations: `holdsAt` consults the
            // samples taken exactly at `t` (the engine's `range_at`).
            for o in &self.obs {
                if o.name != pat.name || o.time != t {
                    continue;
                }
                if let Some(bound) = match_args(&pat.args, &o.args, b) {
                    if let Some(vbound) = match_args(
                        std::slice::from_ref(&pat.value),
                        std::slice::from_ref(&o.value),
                        b,
                    ) {
                        k(b);
                        unbind_all(&vbound, b);
                    }
                    unbind_all(&bound, b);
                }
            }
            return;
        }
        // Derived fluent: enumerate known groundings, keep the holding ones.
        for (args, value) in self.candidate_groundings(pat.name) {
            if let Some(bound) = match_args(&pat.args, &args, b) {
                if let Some(vbound) =
                    match_args(std::slice::from_ref(&pat.value), std::slice::from_ref(&value), b)
                {
                    if self.holds_at_sym(pat.name, &args, &value, t) {
                        k(b);
                    }
                    unbind_all(&vbound, b);
                }
                unbind_all(&bound, b);
            }
        }
    }

    fn candidate_groundings(&self, name: Symbol) -> Vec<(Vec<Term>, Term)> {
        let mut out: Vec<(Vec<Term>, Term)> = Vec::new();
        if let Some(gs) = self.sf.get(&name) {
            out.extend(gs.iter().map(|g| (g.args.clone(), g.value.clone())));
        }
        out.extend(self.static_groundings(name));
        for (n, args, value) in &self.oracle.initially {
            if *n == name {
                out.push((args.clone(), value.clone()));
            }
        }
        out.sort();
        out.dedup();
        out
    }

    // -- statically-determined fluents --------------------------------------

    fn static_groundings(&self, name: Symbol) -> Vec<(Vec<Term>, Term)> {
        let mut out = Vec::new();
        for rule in self.oracle.rules.static_rules() {
            if rule.head.name != name {
                continue;
            }
            let mut b = Bindings::new(rule.n_vars);
            let mut spans = Vec::new();
            let mut heads = Vec::new();
            self.solve(&rule.domain, &mut b, &mut spans, &mut |b, _| {
                if let (Some(args), Some(value)) =
                    (instantiate(&rule.head.args, b), instantiate_one(&rule.head.value, b))
                {
                    heads.push((args, value));
                }
            });
            out.extend(heads);
        }
        out.sort();
        out.dedup();
        out
    }

    fn static_holds_at(&self, name: Symbol, args: &[Term], value: &Term, t: Time) -> bool {
        for rule in self.oracle.rules.static_rules() {
            if rule.head.name != name {
                continue;
            }
            let mut b = Bindings::new(rule.n_vars);
            let mut spans = Vec::new();
            let mut holds = false;
            self.solve(&rule.domain, &mut b, &mut spans, &mut |b, _| {
                if holds {
                    return;
                }
                let matches_head = instantiate(&rule.head.args, b).as_deref() == Some(args)
                    && instantiate_one(&rule.head.value, b).as_ref() == Some(value);
                if matches_head && self.expr_holds(&rule.expr, b, t) {
                    holds = true;
                }
            });
            if holds {
                return true;
            }
        }
        false
    }

    /// Pointwise interpretation of an interval expression: `union_all` is
    /// disjunction, `intersect_all` conjunction, `relative_complement_all`
    /// base-and-not-any — all at a single time-point `t`.
    fn expr_holds(&self, expr: &IntervalExpr, b: &mut Bindings, t: Time) -> bool {
        match expr {
            IntervalExpr::Fluent(pat) => self.some_holds(pat, t, b),
            IntervalExpr::Union(es) => es.iter().any(|e| self.expr_holds(e, b, t)),
            // `intersect_all` of zero lists is empty, not everything.
            IntervalExpr::Intersect(es) => {
                !es.is_empty() && es.iter().all(|e| self.expr_holds(e, b, t))
            }
            IntervalExpr::RelComp(base, subs) => {
                self.expr_holds(base, b, t) && !subs.iter().any(|e| self.expr_holds(e, b, t))
            }
        }
    }
}

/// The textbook law of inertia at one time-point: the latest initiation at
/// or before `t` must not be followed by a termination in `(Ti, t]`.
/// Terminations act before initiations at equal time-points.
fn holds_by_inertia(g: &GroundFluent, initially: bool, t: Time) -> bool {
    let last_init = g.inits.iter().rev().find(|&&i| i <= t);
    let last_term = g.terms.iter().rev().find(|&&k| k <= t);
    match (last_init, last_term) {
        (None, None) => initially,
        (Some(_), None) => true,
        (None, Some(_)) => false,
        (Some(&i), Some(&k)) => i >= k,
    }
}

fn fold_span(spans: &[(Time, Time)], head_t: Time) -> (Time, Time) {
    let mut lo = head_t;
    let mut hi = head_t;
    for &(a, z) in spans {
        lo = lo.min(a);
        hi = hi.max(z);
    }
    (lo, hi)
}

fn instantiate(pats: &[ArgPat], b: &Bindings) -> Option<Vec<Term>> {
    pats.iter().map(|p| instantiate_one(p, b)).collect()
}

fn instantiate_one(pat: &ArgPat, b: &Bindings) -> Option<Term> {
    match pat {
        ArgPat::Const(t) => Some(t.clone()),
        ArgPat::Var(v) => b.get(*v).cloned(),
        ArgPat::Any => None,
    }
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
