//! The rule language: simple fluents, statically-determined fluents and
//! derived (complex) events.
//!
//! RTEC rules are logic-programming clauses; this module represents them as a
//! typed AST that the engine interprets. Three rule forms exist, mirroring
//! Section 4.1 of the paper:
//!
//! * [`SimpleFluentRule`] — `initiatedAt(F=V, T) ← body` and
//!   `terminatedAt(F=V, T) ← body`; the engine applies the law of inertia to
//!   turn initiation/termination points into maximal intervals.
//! * [`StaticRule`] — `holdsFor(F=V, I) ← interval expression` built from
//!   `union_all` / `intersect_all` / `relative_complement_all` over the
//!   intervals of other fluents.
//! * [`EventRule`] — `happensAt(E, T) ← body`, instantaneous complex events
//!   such as the paper's `delayIncrease`.
//!
//! Bodies are conjunctions of [`BodyAtom`]s evaluated left to right with
//! backtracking; shared variables express joins exactly as in the Prolog
//! original.

use crate::pattern::{ArgPat, EventPattern, FluentPattern, VarId};
use crate::term::{Symbol, Term};

/// A value reference inside guards and builtin calls: a variable or constant.
#[derive(Debug, Clone, PartialEq)]
pub enum ValRef {
    /// A rule variable (must be bound when the guard/builtin is evaluated).
    Var(VarId),
    /// A constant term.
    Const(Term),
}

impl From<VarId> for ValRef {
    fn from(v: VarId) -> ValRef {
        ValRef::Var(v)
    }
}
impl From<Term> for ValRef {
    fn from(t: Term) -> ValRef {
        ValRef::Const(t)
    }
}

/// A numeric expression over bound variables.
#[derive(Debug, Clone, PartialEq)]
pub enum NumExpr {
    /// A variable holding an `Int` or `Float` term.
    Var(VarId),
    /// A numeric literal.
    Const(f64),
    /// Sum of two expressions.
    Add(Box<NumExpr>, Box<NumExpr>),
    /// Difference of two expressions.
    Sub(Box<NumExpr>, Box<NumExpr>),
    /// Product of two expressions.
    Mul(Box<NumExpr>, Box<NumExpr>),
    /// Absolute value.
    Abs(Box<NumExpr>),
}

impl NumExpr {
    /// Convenience: `lhs - rhs` (associated constructor, not `std::ops::Sub`
    /// — these build AST nodes, they don't compute).
    #[allow(clippy::should_implement_trait)]
    pub fn sub(lhs: NumExpr, rhs: NumExpr) -> NumExpr {
        NumExpr::Sub(Box::new(lhs), Box::new(rhs))
    }

    /// Convenience: `lhs + rhs` (associated constructor, not `std::ops::Add`).
    #[allow(clippy::should_implement_trait)]
    pub(crate) fn add(lhs: NumExpr, rhs: NumExpr) -> NumExpr {
        NumExpr::Add(Box::new(lhs), Box::new(rhs))
    }

    /// Variables mentioned by the expression (for bound-ness checking).
    pub(crate) fn collect_vars(&self, out: &mut Vec<VarId>) {
        match self {
            NumExpr::Var(v) => out.push(*v),
            NumExpr::Const(_) => {}
            NumExpr::Add(a, b) | NumExpr::Sub(a, b) | NumExpr::Mul(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            NumExpr::Abs(a) => a.collect_vars(out),
        }
    }
}

impl From<VarId> for NumExpr {
    fn from(v: VarId) -> NumExpr {
        NumExpr::Var(v)
    }
}
impl From<f64> for NumExpr {
    fn from(v: f64) -> NumExpr {
        NumExpr::Const(v)
    }
}
impl From<i64> for NumExpr {
    fn from(v: i64) -> NumExpr {
        NumExpr::Const(v as f64)
    }
}

/// Comparison operators for numeric guards.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
    /// `==` (numeric, exact)
    Eq,
    /// `!=` (numeric, exact)
    Ne,
}

impl CmpOp {
    /// Applies the operator.
    pub fn apply(self, a: f64, b: f64) -> bool {
        match self {
            CmpOp::Lt => a < b,
            CmpOp::Le => a <= b,
            CmpOp::Gt => a > b,
            CmpOp::Ge => a >= b,
            CmpOp::Eq => a == b,
            CmpOp::Ne => a != b,
        }
    }
}

/// A boolean guard over bound variables (Prolog's arithmetic/equality
/// conditions, e.g. `Delay − Delay' > d`, `BusVal ≠ CrowdVal`).
#[derive(Debug, Clone, PartialEq)]
pub enum GuardExpr {
    /// Numeric comparison.
    Cmp {
        /// Left operand.
        lhs: NumExpr,
        /// Operator.
        op: CmpOp,
        /// Right operand.
        rhs: NumExpr,
    },
    /// Term equality (works for symbols, bools, …).
    TermEq(ValRef, ValRef),
    /// Term inequality.
    TermNe(ValRef, ValRef),
    /// Conjunction.
    And(Vec<GuardExpr>),
    /// Disjunction.
    Or(Vec<GuardExpr>),
    /// Negation.
    Not(Box<GuardExpr>),
}

impl GuardExpr {
    /// Variables mentioned by the guard.
    pub(crate) fn collect_vars(&self, out: &mut Vec<VarId>) {
        match self {
            GuardExpr::Cmp { lhs, rhs, .. } => {
                lhs.collect_vars(out);
                rhs.collect_vars(out);
            }
            GuardExpr::TermEq(a, b) | GuardExpr::TermNe(a, b) => {
                for r in [a, b] {
                    if let ValRef::Var(v) = r {
                        out.push(*v);
                    }
                }
            }
            GuardExpr::And(gs) | GuardExpr::Or(gs) => {
                for g in gs {
                    g.collect_vars(out);
                }
            }
            GuardExpr::Not(g) => g.collect_vars(out),
        }
    }
}

/// One condition of a rule body.
#[derive(Debug, Clone, PartialEq)]
pub enum BodyAtom {
    /// `happensAt(pattern, T)` — matches input or derived events.
    Happens {
        /// Event pattern.
        pat: EventPattern,
        /// Time variable (bound to the event's occurrence time, or filtering
        /// when already bound).
        time: VarId,
    },
    /// `holdsAt(pattern = value, T)` or `not holdsAt(…)`.
    Holds {
        /// Fluent pattern.
        pat: FluentPattern,
        /// Time variable; must be bound by an earlier condition.
        time: VarId,
        /// Negation-as-failure when `true`.
        negated: bool,
    },
    /// A finite relation lookup/join, e.g. the table of SCATS intersection
    /// coordinates. Tuples are provided to the engine at run time.
    Relation {
        /// Relation name.
        name: Symbol,
        /// Argument patterns (unbound variables enumerate the table).
        args: Vec<ArgPat>,
    },
    /// A registered boolean builtin over fully bound arguments, e.g. the
    /// paper's atemporal `close/4` spatial predicate.
    Builtin {
        /// Builtin name.
        name: Symbol,
        /// Arguments (all must be bound at evaluation time).
        args: Vec<ValRef>,
    },
    /// An arithmetic / term-equality guard.
    Guard(GuardExpr),
}

/// Head template of a fluent rule: `name(args…) = value`.
#[derive(Debug, Clone, PartialEq)]
pub struct FluentTemplate {
    /// Fluent name.
    pub name: Symbol,
    /// Argument templates (`Var` or `Const`; `Any` is rejected at build).
    pub args: Vec<ArgPat>,
    /// Value template.
    pub value: ArgPat,
}

/// Head template of an event rule: `kind(args…)`.
#[derive(Debug, Clone, PartialEq)]
pub struct EventTemplate {
    /// Event kind.
    pub kind: Symbol,
    /// Argument templates.
    pub args: Vec<ArgPat>,
}

/// Whether a simple-fluent rule initiates or terminates its target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SfKind {
    /// `initiatedAt(F=V, T) ← body`.
    Initiated,
    /// `terminatedAt(F=V, T) ← body`.
    Terminated,
}

/// An initiation/termination rule for a simple fluent.
#[derive(Debug, Clone)]
pub struct SimpleFluentRule {
    /// Initiation or termination.
    pub kind: SfKind,
    /// The fluent-value pair this rule affects.
    pub head: FluentTemplate,
    /// The head time variable (bound by a `Happens` condition in the body).
    pub time: VarId,
    /// Body conditions, evaluated left to right.
    pub body: Vec<BodyAtom>,
    /// Variable environment size.
    pub n_vars: usize,
    /// Human-readable label for error messages.
    pub label: String,
}

/// A derived (complex) event rule: `happensAt(head, T) ← body`.
#[derive(Debug, Clone)]
pub struct EventRule {
    /// The derived event template.
    pub head: EventTemplate,
    /// Head time variable.
    pub time: VarId,
    /// Body conditions.
    pub body: Vec<BodyAtom>,
    /// Variable environment size.
    pub n_vars: usize,
    /// Human-readable label.
    pub label: String,
}

/// An interval expression defining a statically-determined fluent.
#[derive(Debug, Clone, PartialEq)]
pub enum IntervalExpr {
    /// `holdsFor` of every grounding matching the (possibly partially bound)
    /// pattern; multiple matching groundings are unioned.
    Fluent(FluentPattern),
    /// `union_all` over sub-expressions.
    Union(Vec<IntervalExpr>),
    /// `intersect_all` over sub-expressions.
    Intersect(Vec<IntervalExpr>),
    /// `relative_complement_all(base, [subtrahends…])`.
    RelComp(Box<IntervalExpr>, Vec<IntervalExpr>),
}

impl IntervalExpr {
    /// Fluent names referenced by the expression (for stratification).
    pub(crate) fn collect_fluents(&self, out: &mut Vec<Symbol>) {
        match self {
            IntervalExpr::Fluent(p) => out.push(p.name),
            IntervalExpr::Union(es) | IntervalExpr::Intersect(es) => {
                for e in es {
                    e.collect_fluents(out);
                }
            }
            IntervalExpr::RelComp(base, subs) => {
                base.collect_fluents(out);
                for e in subs {
                    e.collect_fluents(out);
                }
            }
        }
    }

    /// Variables mentioned by the expression's patterns.
    pub(crate) fn collect_vars(&self, out: &mut Vec<VarId>) {
        match self {
            IntervalExpr::Fluent(p) => {
                for a in p.args.iter().chain(std::iter::once(&p.value)) {
                    if let ArgPat::Var(v) = a {
                        out.push(*v);
                    }
                }
            }
            IntervalExpr::Union(es) | IntervalExpr::Intersect(es) => {
                for e in es {
                    e.collect_vars(out);
                }
            }
            IntervalExpr::RelComp(base, subs) => {
                base.collect_vars(out);
                for e in subs {
                    e.collect_vars(out);
                }
            }
        }
    }
}

/// A statically-determined fluent definition.
///
/// The `domain` conditions enumerate the groundings of the head (e.g. the
/// SCATS intersection locations for `sourceDisagreement(LonInt, LatInt)`);
/// for each grounding the interval expression is evaluated.
#[derive(Debug, Clone)]
pub struct StaticRule {
    /// The fluent-value pair being defined.
    pub head: FluentTemplate,
    /// Domain conditions (relations/guards) enumerating head groundings.
    pub domain: Vec<BodyAtom>,
    /// The defining interval expression.
    pub expr: IntervalExpr,
    /// Variable environment size.
    pub n_vars: usize,
    /// Human-readable label.
    pub label: String,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cmp_ops() {
        assert!(CmpOp::Lt.apply(1.0, 2.0));
        assert!(CmpOp::Le.apply(2.0, 2.0));
        assert!(CmpOp::Gt.apply(3.0, 2.0));
        assert!(CmpOp::Ge.apply(2.0, 2.0));
        assert!(CmpOp::Eq.apply(2.0, 2.0));
        assert!(CmpOp::Ne.apply(2.0, 3.0));
    }

    #[test]
    fn num_expr_collects_vars() {
        let e =
            NumExpr::sub(NumExpr::Var(VarId(3)), NumExpr::Abs(Box::new(NumExpr::Var(VarId(5)))));
        let mut vs = Vec::new();
        e.collect_vars(&mut vs);
        assert_eq!(vs, vec![VarId(3), VarId(5)]);
    }

    #[test]
    fn guard_collects_vars() {
        let g = GuardExpr::And(vec![
            GuardExpr::TermNe(ValRef::Var(VarId(1)), ValRef::Const(Term::sym("x"))),
            GuardExpr::Cmp { lhs: NumExpr::Var(VarId(2)), op: CmpOp::Lt, rhs: NumExpr::Const(5.0) },
        ]);
        let mut vs = Vec::new();
        g.collect_vars(&mut vs);
        assert_eq!(vs, vec![VarId(1), VarId(2)]);
    }

    #[test]
    fn interval_expr_collects_fluents() {
        let f = |name: &str| {
            IntervalExpr::Fluent(FluentPattern {
                name: Symbol::new(name),
                args: vec![ArgPat::Var(VarId(0))],
                value: ArgPat::Const(Term::truth()),
            })
        };
        let e = IntervalExpr::RelComp(Box::new(f("busCongestion")), vec![f("scatsIntCongestion")]);
        let mut fs = Vec::new();
        e.collect_fluents(&mut fs);
        assert_eq!(fs, vec![Symbol::new("busCongestion"), Symbol::new("scatsIntCongestion")]);
        let mut vs = Vec::new();
        e.collect_vars(&mut vs);
        assert_eq!(vs, vec![VarId(0), VarId(0)]);
    }
}
