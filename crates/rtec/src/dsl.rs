//! Rule-set construction: declarations, validation and the builder DSL.
//!
//! A [`RuleSetBuilder`] collects declarations of input SDE types, relations
//! and builtins together with the CE rules, validates them (arity clashes,
//! unbound variables, unanchored head times, unstratifiable negation) and
//! compiles a [`RuleSet`] holding the stratified evaluation plan the engine
//! interprets.
//!
//! Free helper functions ([`pat`], [`any`], [`cnst`], [`happens`], [`holds`],
//! …) make rule construction read close to the paper's Prolog notation.

use crate::error::RtecError;
use crate::pattern::{ArgPat, EventPattern, FluentPattern, VarId};
use crate::rule::{
    BodyAtom, CmpOp, EventRule, EventTemplate, FluentTemplate, GuardExpr, IntervalExpr, NumExpr,
    SfKind, SimpleFluentRule, StaticRule, ValRef,
};
use crate::stratify::{stratify, Stratum};
use crate::term::{Symbol, Term};
use std::collections::{HashMap, HashSet};

// ---------------------------------------------------------------------------
// Free helpers for building patterns and conditions
// ---------------------------------------------------------------------------

/// A variable argument pattern.
pub fn pat(v: VarId) -> ArgPat {
    ArgPat::Var(v)
}

/// The anonymous wildcard `_`.
pub fn any() -> ArgPat {
    ArgPat::Any
}

/// A constant argument pattern.
pub fn cnst<T: Into<Term>>(t: T) -> ArgPat {
    ArgPat::Const(t.into())
}

/// A constant fluent-value pattern (alias of [`cnst`] that reads better in
/// `fluent(…, val(true))` positions).
pub fn val<T: Into<Term>>(t: T) -> ArgPat {
    ArgPat::Const(t.into())
}

/// An event pattern `kind(args…)` for rule bodies.
pub fn event_pat<I: IntoIterator<Item = ArgPat>>(kind: &str, args: I) -> EventPattern {
    EventPattern { kind: Symbol::new(kind), args: args.into_iter().collect() }
}

/// An event head template `kind(args…)` for derived-event rules.
pub fn event_head<I: IntoIterator<Item = ArgPat>>(kind: &str, args: I) -> EventTemplate {
    EventTemplate { kind: Symbol::new(kind), args: args.into_iter().collect() }
}

/// A fluent head template `name(args…) = value`.
pub fn fluent<I: IntoIterator<Item = ArgPat>>(
    name: &str,
    args: I,
    value: ArgPat,
) -> FluentTemplate {
    FluentTemplate { name: Symbol::new(name), args: args.into_iter().collect(), value }
}

/// A fluent pattern `name(args…) = value` for rule bodies.
pub fn fluent_pat<I: IntoIterator<Item = ArgPat>>(
    name: &str,
    args: I,
    value: ArgPat,
) -> FluentPattern {
    FluentPattern { name: Symbol::new(name), args: args.into_iter().collect(), value }
}

/// Condition `happensAt(pattern, T)`.
pub fn happens(pat: EventPattern, time: VarId) -> BodyAtom {
    BodyAtom::Happens { pat, time }
}

/// Condition `holdsAt(pattern = value, T)`.
pub fn holds(pat: FluentPattern, time: VarId) -> BodyAtom {
    BodyAtom::Holds { pat, time, negated: false }
}

/// Condition `not holdsAt(pattern = value, T)` (negation as failure).
pub fn not_holds(pat: FluentPattern, time: VarId) -> BodyAtom {
    BodyAtom::Holds { pat, time, negated: true }
}

/// Condition joining against a finite relation table.
pub fn relation<I: IntoIterator<Item = ArgPat>>(name: &str, args: I) -> BodyAtom {
    BodyAtom::Relation { name: Symbol::new(name), args: args.into_iter().collect() }
}

/// Condition invoking a registered boolean builtin over bound arguments.
pub fn builtin<I: IntoIterator<Item = ValRef>>(name: &str, args: I) -> BodyAtom {
    BodyAtom::Builtin { name: Symbol::new(name), args: args.into_iter().collect() }
}

/// An arithmetic/equality guard condition.
pub fn guard(expr: GuardExpr) -> BodyAtom {
    BodyAtom::Guard(expr)
}

/// Numeric comparison guard `lhs op rhs`.
pub fn cmp<L: Into<NumExpr>, R: Into<NumExpr>>(lhs: L, op: CmpOp, rhs: R) -> GuardExpr {
    GuardExpr::Cmp { lhs: lhs.into(), op, rhs: rhs.into() }
}

/// Term inequality guard.
pub fn term_ne<L: Into<ValRef>, R: Into<ValRef>>(lhs: L, rhs: R) -> GuardExpr {
    GuardExpr::TermNe(lhs.into(), rhs.into())
}

// ---------------------------------------------------------------------------
// Compiled rule set
// ---------------------------------------------------------------------------

/// A validated, stratified rule set ready for execution by the engine.
#[derive(Debug, Clone)]
pub struct RuleSet {
    pub(crate) sf_rules: Vec<SimpleFluentRule>,
    pub(crate) ev_rules: Vec<EventRule>,
    pub(crate) static_rules: Vec<StaticRule>,
    pub(crate) strata: Vec<Stratum>,
    pub(crate) input_events: HashMap<Symbol, usize>,
    pub(crate) input_fluents: HashMap<Symbol, usize>,
    pub(crate) relations: HashMap<Symbol, usize>,
    pub(crate) builtins: HashMap<Symbol, usize>,
    pub(crate) derived_fluents: HashSet<Symbol>,
}

impl RuleSet {
    /// The stratified evaluation plan.
    pub fn strata(&self) -> &[Stratum] {
        &self.strata
    }

    /// Declared input fluents and their arities.
    pub fn input_fluents(&self) -> &HashMap<Symbol, usize> {
        &self.input_fluents
    }

    /// Symbols defined as derived fluents (simple or static).
    pub fn derived_fluents(&self) -> &HashSet<Symbol> {
        &self.derived_fluents
    }

    /// The compiled simple-fluent rules, indexable by [`Stratum::rule_indices`].
    ///
    /// Exposed for external interpreters (e.g. the conformance oracle) that
    /// re-evaluate the same rule AST with different semantics.
    pub fn sf_rules(&self) -> &[SimpleFluentRule] {
        &self.sf_rules
    }

    /// The compiled event rules, indexable by [`Stratum::rule_indices`].
    pub fn ev_rules(&self) -> &[EventRule] {
        &self.ev_rules
    }

    /// The compiled static-fluent rules, indexable by [`Stratum::rule_indices`].
    pub fn static_rules(&self) -> &[StaticRule] {
        &self.static_rules
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Collects declarations and rules, then compiles a validated [`RuleSet`].
#[derive(Debug, Default)]
pub struct RuleSetBuilder {
    var_ids: HashMap<String, VarId>,
    pub(crate) var_names: Vec<String>,
    input_events: HashMap<Symbol, usize>,
    input_fluents: HashMap<Symbol, usize>,
    relations: HashMap<Symbol, usize>,
    builtins: HashMap<Symbol, usize>,
    sf_rules: Vec<SimpleFluentRule>,
    ev_rules: Vec<EventRule>,
    static_rules: Vec<StaticRule>,
}

impl RuleSetBuilder {
    /// An empty builder.
    pub fn new() -> RuleSetBuilder {
        RuleSetBuilder::default()
    }

    /// Returns the variable named `name`, creating it on first use. The same
    /// name always maps to the same slot within this builder, so variables
    /// may be shared across the conditions of one rule (and reused by
    /// different rules without interference — environments are per-rule).
    pub fn var(&mut self, name: &str) -> VarId {
        if let Some(&v) = self.var_ids.get(name) {
            return v;
        }
        let v = VarId(u32::try_from(self.var_names.len()).expect("too many variables"));
        self.var_names.push(name.to_string());
        self.var_ids.insert(name.to_string(), v);
        v
    }

    /// Declares an input event kind (SDE type) with its arity.
    pub fn declare_event(&mut self, name: &str, arity: usize) -> &mut Self {
        self.input_events.insert(Symbol::new(name), arity);
        self
    }

    /// Declares an input fluent (observed at time-points) with its arity.
    pub fn declare_input_fluent(&mut self, name: &str, arity: usize) -> &mut Self {
        self.input_fluents.insert(Symbol::new(name), arity);
        self
    }

    /// Declares a finite relation (tuples supplied to the engine at run time).
    pub fn declare_relation(&mut self, name: &str, arity: usize) -> &mut Self {
        self.relations.insert(Symbol::new(name), arity);
        self
    }

    /// Declares a boolean builtin predicate (function registered with the
    /// engine at run time).
    pub fn declare_builtin(&mut self, name: &str, arity: usize) -> &mut Self {
        self.builtins.insert(Symbol::new(name), arity);
        self
    }

    /// Adds `initiatedAt(head, time) ← body`.
    pub fn initiated<I: IntoIterator<Item = BodyAtom>>(
        &mut self,
        head: FluentTemplate,
        time: VarId,
        body: I,
    ) -> &mut Self {
        let label = format!("initiatedAt({})", head.name);
        self.sf_rules.push(SimpleFluentRule {
            kind: SfKind::Initiated,
            head,
            time,
            body: body.into_iter().collect(),
            n_vars: 0,
            label,
        });
        self
    }

    /// Adds `terminatedAt(head, time) ← body`.
    pub fn terminated<I: IntoIterator<Item = BodyAtom>>(
        &mut self,
        head: FluentTemplate,
        time: VarId,
        body: I,
    ) -> &mut Self {
        let label = format!("terminatedAt({})", head.name);
        self.sf_rules.push(SimpleFluentRule {
            kind: SfKind::Terminated,
            head,
            time,
            body: body.into_iter().collect(),
            n_vars: 0,
            label,
        });
        self
    }

    /// Adds a derived-event rule `happensAt(head, time) ← body`.
    pub fn derived_event<I: IntoIterator<Item = BodyAtom>>(
        &mut self,
        head: EventTemplate,
        time: VarId,
        body: I,
    ) -> &mut Self {
        let label = format!("happensAt({})", head.kind);
        self.ev_rules.push(EventRule {
            head,
            time,
            body: body.into_iter().collect(),
            n_vars: 0,
            label,
        });
        self
    }

    /// Adds a statically-determined fluent `holdsFor(head, I) ← expr`, with
    /// `domain` (relation joins and guards) enumerating head groundings.
    pub fn static_fluent<I: IntoIterator<Item = BodyAtom>>(
        &mut self,
        head: FluentTemplate,
        domain: I,
        expr: IntervalExpr,
    ) -> &mut Self {
        let label = format!("holdsFor({})", head.name);
        self.static_rules.push(StaticRule {
            head,
            domain: domain.into_iter().collect(),
            expr,
            n_vars: 0,
            label,
        });
        self
    }

    fn var_name(&self, v: VarId) -> String {
        self.var_names.get(v.index()).cloned().unwrap_or_else(|| format!("_V{}", v.0))
    }

    /// Validates everything and compiles the stratified rule set.
    pub fn build(mut self) -> Result<RuleSet, RtecError> {
        let n_vars = self.var_names.len();
        for r in &mut self.sf_rules {
            r.n_vars = n_vars;
        }
        for r in &mut self.ev_rules {
            r.n_vars = n_vars;
        }
        for r in &mut self.static_rules {
            r.n_vars = n_vars;
        }

        // --- collect derived symbols + arities, detect clashes -------------
        let mut derived_fluents: HashMap<Symbol, usize> = HashMap::new();
        let mut derived_events: HashMap<Symbol, usize> = HashMap::new();

        let record =
            |map: &mut HashMap<Symbol, usize>, sym: Symbol, arity: usize| match map.get(&sym) {
                Some(&a) if a != arity => Err(RtecError::ArityMismatch {
                    symbol: sym.as_str().to_string(),
                    declared: a,
                    used: arity,
                }),
                _ => {
                    map.insert(sym, arity);
                    Ok(())
                }
            };

        for r in &self.sf_rules {
            record(&mut derived_fluents, r.head.name, r.head.args.len())?;
        }
        let mut simple_heads: HashSet<Symbol> = self.sf_rules.iter().map(|r| r.head.name).collect();
        for r in &self.static_rules {
            if simple_heads.contains(&r.head.name) {
                return Err(RtecError::SymbolClash {
                    symbol: r.head.name.as_str().to_string(),
                    detail: "defined both as simple and statically-determined fluent".into(),
                });
            }
            record(&mut derived_fluents, r.head.name, r.head.args.len())?;
        }
        for r in &self.ev_rules {
            record(&mut derived_events, r.head.kind, r.head.args.len())?;
        }
        simple_heads.clear();

        // Cross-kind clashes.
        for &s in derived_fluents.keys() {
            if self.input_fluents.contains_key(&s) {
                return Err(RtecError::SymbolClash {
                    symbol: s.as_str().to_string(),
                    detail: "derived fluent shadows an input fluent".into(),
                });
            }
            if derived_events.contains_key(&s) || self.input_events.contains_key(&s) {
                return Err(RtecError::SymbolClash {
                    symbol: s.as_str().to_string(),
                    detail: "symbol used both as fluent and as event".into(),
                });
            }
        }
        for &s in derived_events.keys() {
            if self.input_events.contains_key(&s) {
                return Err(RtecError::SymbolClash {
                    symbol: s.as_str().to_string(),
                    detail: "derived event shadows an input event".into(),
                });
            }
            if self.input_fluents.contains_key(&s) {
                return Err(RtecError::SymbolClash {
                    symbol: s.as_str().to_string(),
                    detail: "symbol used both as event and as input fluent".into(),
                });
            }
        }

        // --- per-rule validation -------------------------------------------
        let ev_arity = |b: &Self, sym: Symbol| -> Option<usize> {
            b.input_events.get(&sym).copied().or_else(|| derived_events.get(&sym).copied())
        };
        let fl_arity = |b: &Self, sym: Symbol| -> Option<usize> {
            b.input_fluents.get(&sym).copied().or_else(|| derived_fluents.get(&sym).copied())
        };

        let all_bodies: Vec<(&str, &Vec<BodyAtom>)> = self
            .sf_rules
            .iter()
            .map(|r| (r.label.as_str(), &r.body))
            .chain(self.ev_rules.iter().map(|r| (r.label.as_str(), &r.body)))
            .chain(self.static_rules.iter().map(|r| (r.label.as_str(), &r.domain)))
            .collect();

        for (label, body) in &all_bodies {
            for atom in body.iter() {
                match atom {
                    BodyAtom::Happens { pat, .. } => {
                        let arity =
                            ev_arity(&self, pat.kind).ok_or_else(|| RtecError::Undeclared {
                                symbol: pat.kind.as_str().to_string(),
                                context: format!("happensAt in {label}"),
                            })?;
                        if arity != pat.args.len() {
                            return Err(RtecError::ArityMismatch {
                                symbol: pat.kind.as_str().to_string(),
                                declared: arity,
                                used: pat.args.len(),
                            });
                        }
                    }
                    BodyAtom::Holds { pat, .. } => {
                        let arity =
                            fl_arity(&self, pat.name).ok_or_else(|| RtecError::Undeclared {
                                symbol: pat.name.as_str().to_string(),
                                context: format!("holdsAt in {label}"),
                            })?;
                        if arity != pat.args.len() {
                            return Err(RtecError::ArityMismatch {
                                symbol: pat.name.as_str().to_string(),
                                declared: arity,
                                used: pat.args.len(),
                            });
                        }
                    }
                    BodyAtom::Relation { name, args } => {
                        let arity = self.relations.get(name).copied().ok_or_else(|| {
                            RtecError::UnknownRelation { name: name.as_str().to_string() }
                        })?;
                        if arity != args.len() {
                            return Err(RtecError::ArityMismatch {
                                symbol: name.as_str().to_string(),
                                declared: arity,
                                used: args.len(),
                            });
                        }
                    }
                    BodyAtom::Builtin { name, args } => {
                        let arity = self.builtins.get(name).copied().ok_or_else(|| {
                            RtecError::UnknownBuiltin { name: name.as_str().to_string() }
                        })?;
                        if arity != args.len() {
                            return Err(RtecError::ArityMismatch {
                                symbol: name.as_str().to_string(),
                                declared: arity,
                                used: args.len(),
                            });
                        }
                    }
                    BodyAtom::Guard(_) => {}
                }
            }
        }

        // Static-rule interval expressions: leaves must be derived fluents.
        for r in &self.static_rules {
            let mut leaves = Vec::new();
            r.expr.collect_fluents(&mut leaves);
            for leaf in leaves {
                if !derived_fluents.contains_key(&leaf) {
                    return Err(RtecError::Undeclared {
                        symbol: leaf.as_str().to_string(),
                        context: format!(
                            "interval expression of {} (leaves must be derived fluents)",
                            r.label
                        ),
                    });
                }
            }
        }

        // Bound-ness analysis.
        for r in &self.sf_rules {
            let bound = self.simulate_bounds(&r.label, &r.body)?;
            self.check_head_bound(&r.label, &r.head.args, Some(&r.head.value), &bound)?;
            if !bound.contains(&r.time) {
                return Err(RtecError::UnanchoredTime { rule: r.label.clone() });
            }
        }
        for r in &self.ev_rules {
            let bound = self.simulate_bounds(&r.label, &r.body)?;
            self.check_head_bound(&r.label, &r.head.args, None, &bound)?;
            if !bound.contains(&r.time) {
                return Err(RtecError::UnanchoredTime { rule: r.label.clone() });
            }
        }
        for r in &self.static_rules {
            let bound = self.simulate_bounds(&r.label, &r.domain)?;
            self.check_head_bound(&r.label, &r.head.args, Some(&r.head.value), &bound)?;
            // Expression vars must be head vars or bound by the domain.
            let mut vs = Vec::new();
            r.expr.collect_vars(&mut vs);
            for v in vs {
                if !bound.contains(&v) {
                    return Err(RtecError::UnboundVariable {
                        rule: r.label.clone(),
                        var: self.var_name(v),
                    });
                }
            }
        }

        let inputs: HashSet<Symbol> =
            self.input_events.keys().chain(self.input_fluents.keys()).copied().collect();
        let strata = stratify(&self.sf_rules, &self.ev_rules, &self.static_rules, &inputs)?;

        Ok(RuleSet {
            sf_rules: self.sf_rules,
            ev_rules: self.ev_rules,
            static_rules: self.static_rules,
            strata,
            input_events: self.input_events,
            input_fluents: self.input_fluents,
            relations: self.relations,
            builtins: self.builtins,
            derived_fluents: derived_fluents.into_keys().collect(),
        })
    }

    /// Walks a body left to right tracking which variables are bound,
    /// erroring on uses of unbound variables.
    fn simulate_bounds(&self, label: &str, body: &[BodyAtom]) -> Result<HashSet<VarId>, RtecError> {
        let mut bound: HashSet<VarId> = HashSet::new();
        let unbound_err = |v: VarId| RtecError::UnboundVariable {
            rule: label.to_string(),
            var: self.var_name(v),
        };
        for atom in body {
            match atom {
                BodyAtom::Happens { pat, time } => {
                    bound.extend(pat.args.iter().filter_map(|a| a.var()));
                    bound.insert(*time);
                }
                BodyAtom::Holds { pat, time, negated } => {
                    if !bound.contains(time) {
                        return Err(unbound_err(*time));
                    }
                    if !*negated {
                        bound.extend(pat.args.iter().filter_map(|a| a.var()));
                        if let ArgPat::Var(v) = pat.value {
                            bound.insert(v);
                        }
                    }
                }
                BodyAtom::Relation { args, .. } => {
                    bound.extend(args.iter().filter_map(|a| a.var()));
                }
                BodyAtom::Builtin { args, .. } => {
                    for a in args {
                        if let ValRef::Var(v) = a {
                            if !bound.contains(v) {
                                return Err(unbound_err(*v));
                            }
                        }
                    }
                }
                BodyAtom::Guard(g) => {
                    let mut vs = Vec::new();
                    g.collect_vars(&mut vs);
                    for v in vs {
                        if !bound.contains(&v) {
                            return Err(unbound_err(v));
                        }
                    }
                }
            }
        }
        Ok(bound)
    }

    fn check_head_bound(
        &self,
        label: &str,
        args: &[ArgPat],
        value: Option<&ArgPat>,
        bound: &HashSet<VarId>,
    ) -> Result<(), RtecError> {
        for a in args.iter().chain(value) {
            match a {
                ArgPat::Any => {
                    return Err(RtecError::UnboundVariable {
                        rule: label.to_string(),
                        var: "_ (wildcard not allowed in heads)".into(),
                    })
                }
                ArgPat::Var(v) if !bound.contains(v) => {
                    return Err(RtecError::UnboundVariable {
                        rule: label.to_string(),
                        var: self.var_name(*v),
                    })
                }
                _ => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal_builder() -> RuleSetBuilder {
        let mut b = RuleSetBuilder::new();
        b.declare_event("switch_on", 1).declare_event("switch_off", 1);
        b
    }

    fn on_off_rules(b: &mut RuleSetBuilder) {
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
    }

    #[test]
    fn builds_valid_ruleset() {
        let mut b = minimal_builder();
        on_off_rules(&mut b);
        let rs = b.build().expect("valid rule set");
        assert_eq!((rs.sf_rules.len(), rs.ev_rules.len(), rs.static_rules.len()), (2, 0, 0));
        assert_eq!(rs.strata().len(), 1);
        assert!(rs.derived_fluents().contains(&Symbol::new("on")));
    }

    #[test]
    fn same_var_name_same_slot() {
        let mut b = RuleSetBuilder::new();
        assert_eq!(b.var("X"), b.var("X"));
        assert_ne!(b.var("X"), b.var("Y"));
    }

    #[test]
    fn rejects_undeclared_event() {
        let mut b = RuleSetBuilder::new();
        let t = b.var("T");
        b.initiated(fluent("f", [], val(true)), t, [happens(event_pat("ghost", []), t)]);
        assert!(matches!(b.build(), Err(RtecError::Undeclared { .. })));
    }

    #[test]
    fn rejects_arity_mismatch() {
        let mut b = RuleSetBuilder::new();
        b.declare_event("e", 2);
        let t = b.var("T");
        b.initiated(fluent("f", [], val(true)), t, [happens(event_pat("e", [any()]), t)]);
        assert!(matches!(b.build(), Err(RtecError::ArityMismatch { .. })));
    }

    #[test]
    fn rejects_unbound_head_var() {
        let mut b = RuleSetBuilder::new();
        b.declare_event("e", 0);
        let t = b.var("T");
        let x = b.var("X");
        b.initiated(fluent("f", [pat(x)], val(true)), t, [happens(event_pat("e", []), t)]);
        assert!(matches!(b.build(), Err(RtecError::UnboundVariable { .. })));
    }

    #[test]
    fn rejects_wildcard_in_head() {
        let mut b = RuleSetBuilder::new();
        b.declare_event("e", 0);
        let t = b.var("T");
        b.initiated(fluent("f", [any()], val(true)), t, [happens(event_pat("e", []), t)]);
        assert!(matches!(b.build(), Err(RtecError::UnboundVariable { .. })));
    }

    #[test]
    fn rejects_guard_over_unbound_var() {
        let mut b = RuleSetBuilder::new();
        b.declare_event("e", 0);
        let t = b.var("T");
        let x = b.var("Z");
        b.initiated(
            fluent("f", [], val(true)),
            t,
            [happens(event_pat("e", []), t), guard(cmp(x, CmpOp::Gt, 3.0))],
        );
        assert!(matches!(b.build(), Err(RtecError::UnboundVariable { .. })));
    }

    #[test]
    fn rejects_holds_with_unbound_time() {
        let mut b = RuleSetBuilder::new();
        b.declare_event("e", 0);
        b.declare_input_fluent("g", 1);
        let t = b.var("T");
        let t2 = b.var("T2");
        let x = b.var("X");
        b.initiated(
            fluent("f", [], val(true)),
            t,
            [
                happens(event_pat("e", []), t),
                holds(fluent_pat("g", [pat(x)], val(true)), t2), // T2 unbound
            ],
        );
        assert!(matches!(b.build(), Err(RtecError::UnboundVariable { .. })));
    }

    #[test]
    fn rejects_symbol_clash_fluent_vs_event() {
        let mut b = RuleSetBuilder::new();
        b.declare_event("e", 0);
        b.declare_event("f", 0);
        let t = b.var("T");
        b.initiated(fluent("f", [], val(true)), t, [happens(event_pat("e", []), t)]);
        assert!(matches!(b.build(), Err(RtecError::SymbolClash { .. })));
    }

    #[test]
    fn rejects_simple_and_static_same_head() {
        let mut b = RuleSetBuilder::new();
        b.declare_event("e", 0);
        let t = b.var("T");
        b.initiated(fluent("f", [], val(true)), t, [happens(event_pat("e", []), t)]);
        b.initiated(fluent("g", [], val(true)), t, [happens(event_pat("e", []), t)]);
        b.static_fluent(
            fluent("f", [], val(true)),
            [],
            IntervalExpr::Fluent(fluent_pat("g", [], val(true))),
        );
        assert!(matches!(b.build(), Err(RtecError::SymbolClash { .. })));
    }

    #[test]
    fn static_rule_leaf_must_be_derived() {
        let mut b = RuleSetBuilder::new();
        b.declare_input_fluent("raw", 0);
        b.static_fluent(
            fluent("s", [], val(true)),
            [],
            IntervalExpr::Fluent(fluent_pat("raw", [], val(true))),
        );
        assert!(matches!(b.build(), Err(RtecError::Undeclared { .. })));
    }

    #[test]
    fn static_rule_with_domain_relation() {
        let mut b = minimal_builder();
        on_off_rules(&mut b);
        b.declare_relation("loc", 1);
        let dev = b.var("Dev");
        b.static_fluent(
            fluent("everOn", [pat(dev)], val(true)),
            [relation("loc", [pat(dev)])],
            IntervalExpr::Fluent(fluent_pat("on", [pat(dev)], val(true))),
        );
        let rs = b.build().expect("valid static rule");
        assert_eq!((rs.sf_rules.len(), rs.ev_rules.len(), rs.static_rules.len()), (2, 0, 1));
        // `everOn` must be in a later stratum than `on`.
        let pos = |n: &str| rs.strata().iter().position(|s| s.symbol == Symbol::new(n)).unwrap();
        assert!(pos("on") < pos("everOn"));
    }

    #[test]
    fn unknown_relation_and_builtin() {
        let mut b = minimal_builder();
        on_off_rules(&mut b);
        let x = b.var("X");
        let t3 = b.var("T3");
        b.derived_event(
            event_head("boom", [pat(x)]),
            t3,
            [happens(event_pat("switch_on", [pat(x)]), t3), relation("nowhere", [pat(x)])],
        );
        assert!(matches!(b.build(), Err(RtecError::UnknownRelation { .. })));

        let mut b = minimal_builder();
        on_off_rules(&mut b);
        let x = b.var("X");
        let t3 = b.var("T3");
        b.derived_event(
            event_head("boom", [pat(x)]),
            t3,
            [happens(event_pat("switch_on", [pat(x)]), t3), builtin("nofn", [ValRef::Var(x)])],
        );
        assert!(matches!(b.build(), Err(RtecError::UnknownBuiltin { .. })));
    }

    #[test]
    fn negated_holds_does_not_bind() {
        let mut b = minimal_builder();
        on_off_rules(&mut b);
        b.declare_input_fluent("mode", 1);
        let x = b.var("X");
        let m = b.var("M");
        let t3 = b.var("T3");
        // M is only "bound" inside a negation, then used in a guard: error.
        b.derived_event(
            event_head("odd", [pat(x)]),
            t3,
            [
                happens(event_pat("switch_on", [pat(x)]), t3),
                not_holds(fluent_pat("mode", [pat(m)], val(true)), t3),
                guard(term_ne(m, Term::sym("a"))),
            ],
        );
        assert!(matches!(b.build(), Err(RtecError::UnboundVariable { .. })));
    }
}
