//! Error types for rule-set compilation and engine operation.

use std::fmt;

/// Errors produced when compiling a rule set or running the engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RtecError {
    /// A rule referenced a variable that is not bound at the point of use
    /// (e.g. a guard or negated condition over an unbound variable).
    UnboundVariable {
        /// Name of the offending rule head.
        rule: String,
        /// Human-readable variable name.
        var: String,
    },
    /// The head time variable of a simple-fluent or event rule is never bound
    /// by a `happensAt` condition in the body.
    UnanchoredTime {
        /// Name of the offending rule head.
        rule: String,
    },
    /// The dependency graph of the rule set contains a cycle, so the rules
    /// cannot be stratified.
    CyclicRuleSet {
        /// Symbols participating in the cycle, in discovery order.
        cycle: Vec<String>,
    },
    /// A symbol was used both as an event kind and as a fluent name (or with
    /// inconsistent arity).
    SymbolClash {
        /// The clashing symbol.
        symbol: String,
        /// Description of the clash.
        detail: String,
    },
    /// A builtin predicate was invoked but never registered with the engine.
    UnknownBuiltin {
        /// Name of the missing builtin.
        name: String,
    },
    /// A relation was referenced but never declared.
    UnknownRelation {
        /// Name of the missing relation.
        name: String,
    },
    /// Window configuration is invalid (non-positive sizes, step > WM, …).
    InvalidWindow {
        /// Description of the problem.
        detail: String,
    },
    /// An operation that must precede the first query (e.g. `set_initially`)
    /// was attempted after recognition had already started.
    EngineAlreadyStarted {
        /// The first query time the engine answered.
        first_query: crate::time::Time,
    },
    /// A query time was not ahead of the previous query time.
    NonMonotonicQuery {
        /// The previous query time.
        previous: crate::time::Time,
        /// The requested query time.
        requested: crate::time::Time,
    },
    /// A symbol was used in a rule body without being declared as an input
    /// or defined by any rule head.
    Undeclared {
        /// The unknown symbol.
        symbol: String,
        /// Where it appeared (e.g. "happensAt", "holdsAt").
        context: String,
    },
    /// Arity mismatch between a declaration and a use site.
    ArityMismatch {
        /// The symbol with mismatching arity.
        symbol: String,
        /// Declared arity.
        declared: usize,
        /// Arity at the use site.
        used: usize,
    },
    /// A serialised engine state (see [`crate::engine::Engine::restore_state`])
    /// could not be decoded, or does not fit the engine's rule set.
    CorruptState {
        /// Description of the problem.
        detail: String,
    },
}

impl fmt::Display for RtecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RtecError::UnboundVariable { rule, var } => {
                write!(f, "rule `{rule}`: variable `{var}` used before being bound")
            }
            RtecError::UnanchoredTime { rule } => write!(
                f,
                "rule `{rule}`: head time variable is not bound by any happensAt condition"
            ),
            RtecError::CyclicRuleSet { cycle } => {
                write!(f, "rule set is cyclic: {}", cycle.join(" -> "))
            }
            RtecError::SymbolClash { symbol, detail } => {
                write!(f, "symbol `{symbol}` declared inconsistently: {detail}")
            }
            RtecError::UnknownBuiltin { name } => write!(f, "unknown builtin predicate `{name}`"),
            RtecError::UnknownRelation { name } => write!(f, "unknown relation `{name}`"),
            RtecError::InvalidWindow { detail } => write!(f, "invalid window: {detail}"),
            RtecError::EngineAlreadyStarted { first_query } => write!(
                f,
                "operation must precede the first query (recognition started at {first_query})"
            ),
            RtecError::NonMonotonicQuery { previous, requested } => write!(
                f,
                "query times must be strictly increasing (previous {previous}, requested {requested})"
            ),
            RtecError::Undeclared { symbol, context } => {
                write!(f, "symbol `{symbol}` used in {context} but never declared or defined")
            }
            RtecError::ArityMismatch { symbol, declared, used } => write!(
                f,
                "symbol `{symbol}` declared with arity {declared} but used with arity {used}"
            ),
            RtecError::CorruptState { detail } => {
                write!(f, "corrupt engine state snapshot: {detail}")
            }
        }
    }
}

impl std::error::Error for RtecError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = RtecError::UnboundVariable { rule: "noisy".into(), var: "Bus".into() };
        assert!(e.to_string().contains("noisy") && e.to_string().contains("Bus"));
        let e = RtecError::CyclicRuleSet { cycle: vec!["a".into(), "b".into()] };
        assert!(e.to_string().contains("a -> b"));
    }
}
