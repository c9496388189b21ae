//! Patterns and variable bindings for rule bodies.
//!
//! Rule bodies match events and fluent groundings against patterns whose
//! arguments are constants, named variables, or the anonymous `_` wildcard
//! (a 'free' Prolog variable in the paper's notation). Matching threads a
//! [`Bindings`] environment through the body conditions, so shared variables
//! implement joins.

use crate::term::{Symbol, Term};

/// A rule-scoped variable, identified by its slot index in [`Bindings`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct VarId(pub u32);

impl VarId {
    /// Slot index.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

/// One argument position of a pattern.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgPat {
    /// Matches anything, binds nothing (Prolog `_`).
    Any,
    /// Matches only the given constant.
    Const(Term),
    /// Matches anything; binds (or checks against) the variable.
    Var(VarId),
}

impl ArgPat {
    /// The variable bound by this pattern position, if any.
    pub(crate) fn var(&self) -> Option<VarId> {
        match self {
            ArgPat::Var(v) => Some(*v),
            _ => None,
        }
    }
}

/// A pattern over event instances: `kind(args…)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EventPattern {
    /// Event type to match.
    pub kind: Symbol,
    /// Argument patterns, one per event argument.
    pub args: Vec<ArgPat>,
}

/// A pattern over fluent groundings: `name(args…) = value`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FluentPattern {
    /// Fluent name to match.
    pub name: Symbol,
    /// Argument patterns.
    pub args: Vec<ArgPat>,
    /// Pattern over the fluent's value.
    pub value: ArgPat,
}

/// A variable environment: one optional term per variable slot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bindings {
    slots: Vec<Option<Term>>,
}

impl Bindings {
    /// Fresh environment with `n` unbound slots.
    pub fn new(n: usize) -> Bindings {
        Bindings { slots: vec![None; n] }
    }

    /// The term bound to `v`, if any.
    pub fn get(&self, v: VarId) -> Option<&Term> {
        self.slots.get(v.index()).and_then(|s| s.as_ref())
    }

    /// Binds `v` to `t`; returns `false` (leaving the environment unchanged)
    /// when `v` is already bound to a different term.
    pub fn bind(&mut self, v: VarId, t: &Term) -> bool {
        match &self.slots[v.index()] {
            Some(existing) => existing == t,
            None => {
                self.slots[v.index()] = Some(t.clone());
                true
            }
        }
    }

    /// Unbinds `v` (used for backtracking).
    pub fn unbind(&mut self, v: VarId) {
        self.slots[v.index()] = None;
    }

    /// Whether `v` is bound.
    pub fn is_bound(&self, v: VarId) -> bool {
        self.get(v).is_some()
    }

    /// Reuses this environment for a rule with `n` variables: every slot is
    /// cleared and the slot vector resized in place. Allocation only happens
    /// when `n` exceeds the largest size ever requested, which is what lets
    /// the compiled evaluation path share one environment across all rules
    /// of a window without per-rule allocations.
    pub(crate) fn reset(&mut self, n: usize) {
        self.slots.clear();
        self.slots.resize(n, None);
    }

    /// Capacity of the underlying slot vector (for allocation accounting).
    pub(crate) fn capacity(&self) -> usize {
        self.slots.capacity()
    }
}

/// Matches one argument pattern against a term, updating `b`.
/// Returns the variable that was *newly* bound (for backtracking), wrapped in
/// `Ok`; `Err(())` when the match fails.
fn match_arg(pat: &ArgPat, term: &Term, b: &mut Bindings) -> Result<Option<VarId>, ()> {
    match pat {
        ArgPat::Any => Ok(None),
        ArgPat::Const(c) => {
            if c == term {
                Ok(None)
            } else {
                Err(())
            }
        }
        ArgPat::Var(v) => {
            if b.is_bound(*v) {
                if b.get(*v) == Some(term) {
                    Ok(None)
                } else {
                    Err(())
                }
            } else if b.bind(*v, term) {
                Ok(Some(*v))
            } else {
                Err(())
            }
        }
    }
}

/// Matches a slice of argument patterns against ground terms.
///
/// On success, returns the list of variables newly bound by this match (the
/// caller unbinds them when backtracking). On failure the environment is
/// restored and `None` is returned.
pub fn match_args(pats: &[ArgPat], terms: &[Term], b: &mut Bindings) -> Option<Vec<VarId>> {
    if pats.len() != terms.len() {
        return None;
    }
    let mut bound = Vec::new();
    for (p, t) in pats.iter().zip(terms) {
        match match_arg(p, t, b) {
            Ok(Some(v)) => bound.push(v),
            Ok(None) => {}
            Err(()) => {
                for v in bound {
                    b.unbind(v);
                }
                return None;
            }
        }
    }
    Some(bound)
}

/// Undoes a set of bindings returned by [`match_args`].
pub fn unbind_all(vars: &[VarId], b: &mut Bindings) {
    for v in vars {
        b.unbind(*v);
    }
}

/// Allocation-free variant of [`match_args`]: newly bound variables are
/// pushed onto the caller's `trail` instead of a fresh `Vec`. On success the
/// trail has grown by the number of new bindings; on failure both the
/// environment and the trail are restored to their state at entry and
/// `false` is returned. Undo a successful match with [`undo_trail`] using
/// the trail length recorded before the call.
pub(crate) fn match_args_trail(
    pats: &[ArgPat],
    terms: &[Term],
    b: &mut Bindings,
    trail: &mut Vec<VarId>,
) -> bool {
    if pats.len() != terms.len() {
        return false;
    }
    let mark = trail.len();
    for (p, t) in pats.iter().zip(terms) {
        match match_arg(p, t, b) {
            Ok(Some(v)) => trail.push(v),
            Ok(None) => {}
            Err(()) => {
                undo_trail(trail, mark, b);
                return false;
            }
        }
    }
    true
}

/// Unbinds every variable pushed onto `trail` past `mark` (in reverse push
/// order) and truncates the trail back to `mark`.
pub(crate) fn undo_trail(trail: &mut Vec<VarId>, mark: usize, b: &mut Bindings) {
    while trail.len() > mark {
        let v = trail.pop().expect("trail length checked");
        b.unbind(v);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(i: u32) -> VarId {
        VarId(i)
    }

    #[test]
    fn binds_fresh_variables() {
        let mut b = Bindings::new(2);
        let pats = [ArgPat::Var(v(0)), ArgPat::Const(Term::int(7))];
        let terms = [Term::sym("bus1"), Term::int(7)];
        let bound = match_args(&pats, &terms, &mut b).expect("should match");
        assert_eq!(bound, vec![v(0)]);
        assert_eq!(b.get(v(0)), Some(&Term::sym("bus1")));
    }

    #[test]
    fn rejects_constant_mismatch() {
        let mut b = Bindings::new(1);
        let pats = [ArgPat::Const(Term::int(7))];
        assert!(match_args(&pats, &[Term::int(8)], &mut b).is_none());
    }

    #[test]
    fn join_on_shared_variable() {
        let mut b = Bindings::new(1);
        assert!(match_args(&[ArgPat::Var(v(0))], &[Term::sym("a")], &mut b).is_some());
        // Second match with the same variable only succeeds on the same term.
        assert!(match_args(&[ArgPat::Var(v(0))], &[Term::sym("b")], &mut b).is_none());
        assert!(match_args(&[ArgPat::Var(v(0))], &[Term::sym("a")], &mut b).is_some());
    }

    #[test]
    fn failure_restores_environment() {
        let mut b = Bindings::new(2);
        let pats = [ArgPat::Var(v(0)), ArgPat::Const(Term::int(1))];
        let terms = [Term::sym("x"), Term::int(2)];
        assert!(match_args(&pats, &terms, &mut b).is_none());
        assert!(!b.is_bound(v(0)), "partial binding must be rolled back");
    }

    #[test]
    fn repeated_variable_within_one_pattern() {
        let mut b = Bindings::new(1);
        let pats = [ArgPat::Var(v(0)), ArgPat::Var(v(0))];
        assert!(match_args(&pats, &[Term::int(3), Term::int(3)], &mut b).is_some());
        let mut b2 = Bindings::new(1);
        assert!(match_args(&pats, &[Term::int(3), Term::int(4)], &mut b2).is_none());
        assert!(!b2.is_bound(v(0)));
    }

    #[test]
    fn arity_mismatch_fails() {
        let mut b = Bindings::new(0);
        assert!(match_args(&[ArgPat::Any], &[], &mut b).is_none());
    }

    #[test]
    fn unbind_all_rolls_back() {
        let mut b = Bindings::new(2);
        let bound = match_args(
            &[ArgPat::Var(v(0)), ArgPat::Var(v(1))],
            &[Term::int(1), Term::int(2)],
            &mut b,
        )
        .unwrap();
        unbind_all(&bound, &mut b);
        assert!(!b.is_bound(v(0)) && !b.is_bound(v(1)));
    }
}
