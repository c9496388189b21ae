//! Stratification of rule sets.
//!
//! RTEC evaluates derived symbols bottom-up: a complex event or fluent may
//! only depend on input SDEs and on symbols defined in earlier strata. This
//! guarantees that negation-as-failure (`not holdsAt`) is *stratified* — the
//! negated fluent is fully computed before any rule reads it — and yields the
//! deterministic evaluation plan the engine follows at every query time.
//!
//! Cyclic definitions are rejected at rule-set build time with the offending
//! cycle reported.

use crate::error::RtecError;
use crate::rule::{BodyAtom, EventRule, SimpleFluentRule, StaticRule};
use crate::term::Symbol;
use std::collections::{HashMap, HashSet};

/// What kind of definition a stratum evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadKind {
    /// A derived event (`happensAt` rules).
    Event,
    /// A simple fluent (`initiatedAt`/`terminatedAt` rules + inertia).
    SimpleFluent,
    /// A statically-determined fluent (interval expression).
    StaticFluent,
}

/// One evaluation step: all rules defining `symbol`, evaluated together.
#[derive(Debug, Clone)]
pub struct Stratum {
    /// The derived symbol this stratum defines.
    pub symbol: Symbol,
    /// The definition kind.
    pub kind: HeadKind,
    /// Indices into the corresponding rule vector of the rule set.
    pub rule_indices: Vec<usize>,
}

pub(crate) fn body_deps(body: &[BodyAtom], out: &mut HashSet<Symbol>) {
    for atom in body {
        match atom {
            BodyAtom::Happens { pat, .. } => {
                out.insert(pat.kind);
            }
            BodyAtom::Holds { pat, .. } => {
                out.insert(pat.name);
            }
            BodyAtom::Relation { .. } | BodyAtom::Builtin { .. } | BodyAtom::Guard(_) => {}
        }
    }
}

/// Computes a stratified evaluation order for the given rules.
///
/// `inputs` are the declared input symbols (events and fluents); dependencies
/// on them impose no ordering. Returns the strata in evaluation order, or
/// [`RtecError::CyclicRuleSet`] when the definitions are mutually recursive.
pub(crate) fn stratify(
    sf_rules: &[SimpleFluentRule],
    ev_rules: &[EventRule],
    static_rules: &[StaticRule],
    inputs: &HashSet<Symbol>,
) -> Result<Vec<Stratum>, RtecError> {
    // Gather, per derived head symbol, its kind, rule indices and deps.
    let mut kinds: HashMap<Symbol, HeadKind> = HashMap::new();
    let mut rules_of: HashMap<Symbol, Vec<usize>> = HashMap::new();
    let mut deps_of: HashMap<Symbol, HashSet<Symbol>> = HashMap::new();

    for (i, r) in ev_rules.iter().enumerate() {
        kinds.insert(r.head.kind, HeadKind::Event);
        rules_of.entry(r.head.kind).or_default().push(i);
        body_deps(&r.body, deps_of.entry(r.head.kind).or_default());
    }
    for (i, r) in sf_rules.iter().enumerate() {
        kinds.insert(r.head.name, HeadKind::SimpleFluent);
        rules_of.entry(r.head.name).or_default().push(i);
        body_deps(&r.body, deps_of.entry(r.head.name).or_default());
    }
    for (i, r) in static_rules.iter().enumerate() {
        kinds.insert(r.head.name, HeadKind::StaticFluent);
        rules_of.entry(r.head.name).or_default().push(i);
        let entry = deps_of.entry(r.head.name).or_default();
        body_deps(&r.domain, entry);
        let mut fluents = Vec::new();
        r.expr.collect_fluents(&mut fluents);
        entry.extend(fluents);
    }

    // Kahn's algorithm over derived symbols only; ties broken by symbol id
    // for deterministic plans.
    let derived: HashSet<Symbol> = kinds.keys().copied().collect();
    let mut indegree: HashMap<Symbol, usize> = derived.iter().map(|&s| (s, 0)).collect();
    let mut dependents: HashMap<Symbol, Vec<Symbol>> = HashMap::new();
    for (&head, deps) in &deps_of {
        for &d in deps {
            if derived.contains(&d) && !inputs.contains(&d) && d != head {
                *indegree.get_mut(&head).expect("head registered") += 1;
                dependents.entry(d).or_default().push(head);
            } else if d == head && !inputs.contains(&d) {
                // Self-recursion is a cycle of length one.
                return Err(RtecError::CyclicRuleSet {
                    cycle: vec![head.as_str().to_string(), head.as_str().to_string()],
                });
            }
        }
    }

    let mut ready: Vec<Symbol> =
        indegree.iter().filter_map(|(&s, &d)| (d == 0).then_some(s)).collect();
    ready.sort();

    let mut order = Vec::with_capacity(derived.len());
    while let Some(s) = ready.pop() {
        order.push(s);
        let mut newly: Vec<Symbol> = Vec::new();
        if let Some(dep) = dependents.get(&s) {
            for &h in dep {
                let d = indegree.get_mut(&h).expect("dependent registered");
                *d -= 1;
                if *d == 0 {
                    newly.push(h);
                }
            }
        }
        newly.sort();
        // Push in reverse so that pop() yields smallest-symbol-first.
        for h in newly.into_iter().rev() {
            ready.push(h);
        }
    }

    if order.len() != derived.len() {
        let mut cycle: Vec<String> =
            derived.iter().filter(|s| !order.contains(s)).map(|s| s.as_str().to_string()).collect();
        cycle.sort();
        return Err(RtecError::CyclicRuleSet { cycle });
    }

    Ok(order
        .into_iter()
        .map(|symbol| Stratum {
            symbol,
            kind: kinds[&symbol],
            rule_indices: rules_of.remove(&symbol).unwrap_or_default(),
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pattern::{ArgPat, EventPattern, FluentPattern, VarId};
    use crate::rule::{EventTemplate, FluentTemplate, IntervalExpr, SfKind};
    use crate::term::Term;

    fn happens(kind: &str) -> BodyAtom {
        BodyAtom::Happens {
            pat: EventPattern { kind: Symbol::new(kind), args: vec![] },
            time: VarId(0),
        }
    }

    fn holds(name: &str) -> BodyAtom {
        BodyAtom::Holds {
            pat: FluentPattern {
                name: Symbol::new(name),
                args: vec![],
                value: ArgPat::Const(Term::truth()),
            },
            time: VarId(0),
            negated: false,
        }
    }

    fn sf(head: &str, body: Vec<BodyAtom>) -> SimpleFluentRule {
        SimpleFluentRule {
            kind: SfKind::Initiated,
            head: FluentTemplate {
                name: Symbol::new(head),
                args: vec![],
                value: ArgPat::Const(Term::truth()),
            },
            time: VarId(0),
            body,
            n_vars: 1,
            label: head.to_string(),
        }
    }

    fn ev(head: &str, body: Vec<BodyAtom>) -> EventRule {
        EventRule {
            head: EventTemplate { kind: Symbol::new(head), args: vec![] },
            time: VarId(0),
            body,
            n_vars: 1,
            label: head.to_string(),
        }
    }

    fn static_rule(head: &str, leaf: &str) -> StaticRule {
        StaticRule {
            head: FluentTemplate {
                name: Symbol::new(head),
                args: vec![],
                value: ArgPat::Const(Term::truth()),
            },
            domain: vec![],
            expr: IntervalExpr::Fluent(FluentPattern {
                name: Symbol::new(leaf),
                args: vec![],
                value: ArgPat::Const(Term::truth()),
            }),
            n_vars: 0,
            label: head.to_string(),
        }
    }

    fn inputs(names: &[&str]) -> HashSet<Symbol> {
        names.iter().map(|n| Symbol::new(n)).collect()
    }

    #[test]
    fn orders_chain_dependencies() {
        // c depends on b depends on a (a from input e).
        let sfs = vec![sf("a", vec![happens("e")]), sf("b", vec![happens("e"), holds("a")])];
        let statics = vec![static_rule("c", "b")];
        let strata = stratify(&sfs, &[], &statics, &inputs(&["e"])).unwrap();
        let pos = |n: &str| strata.iter().position(|s| s.symbol == Symbol::new(n)).unwrap();
        assert!(pos("a") < pos("b"));
        assert!(pos("b") < pos("c"));
        assert_eq!(strata[pos("c")].kind, HeadKind::StaticFluent);
    }

    #[test]
    fn groups_rules_of_same_head() {
        let sfs = vec![sf("a", vec![happens("e")]), sf("a", vec![happens("e2")])];
        let strata = stratify(&sfs, &[], &[], &inputs(&["e", "e2"])).unwrap();
        assert_eq!(strata.len(), 1);
        assert_eq!(strata[0].rule_indices, vec![0, 1]);
    }

    #[test]
    fn detects_cycles() {
        let sfs =
            vec![sf("a", vec![happens("e"), holds("b")]), sf("b", vec![happens("e"), holds("a")])];
        let err = stratify(&sfs, &[], &[], &inputs(&["e"])).unwrap_err();
        assert!(matches!(err, RtecError::CyclicRuleSet { .. }));
    }

    #[test]
    fn detects_self_recursion() {
        let sfs = vec![sf("a", vec![happens("e"), holds("a")])];
        let err = stratify(&sfs, &[], &[], &inputs(&["e"])).unwrap_err();
        assert!(matches!(err, RtecError::CyclicRuleSet { .. }));
    }

    #[test]
    fn derived_events_participate() {
        // derived event `d` from input `e`; fluent `f` from `d`.
        let evs = vec![ev("d", vec![happens("e")])];
        let sfs = vec![sf("f", vec![happens("d")])];
        let strata = stratify(&sfs, &evs, &[], &inputs(&["e"])).unwrap();
        let pos = |n: &str| strata.iter().position(|s| s.symbol == Symbol::new(n)).unwrap();
        assert!(pos("d") < pos("f"));
        assert_eq!(strata[pos("d")].kind, HeadKind::Event);
    }

    #[test]
    fn deterministic_order_for_independent_symbols() {
        let sfs = vec![sf("za", vec![happens("e")]), sf("ab", vec![happens("e")])];
        let a = stratify(&sfs, &[], &[], &inputs(&["e"])).unwrap();
        let b = stratify(&sfs, &[], &[], &inputs(&["e"])).unwrap();
        let names = |s: &[Stratum]| s.iter().map(|x| x.symbol.as_str()).collect::<Vec<_>>();
        assert_eq!(names(&a), names(&b));
    }
}
