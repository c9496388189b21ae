//! Terms: the argument values of events and fluents.
//!
//! Events and fluents in RTEC are n-ary predicates whose arguments are ground
//! terms at run time. Terms must be cheaply comparable and hashable because
//! the engine indexes events and fluent groundings by them, so strings are
//! interned into [`Symbol`]s and floats are stored with a total order.

use std::collections::HashMap;
use std::fmt;
use std::sync::{OnceLock, RwLock};

/// An interned string. Two symbols are equal iff they intern the same text.
///
/// Interning is process-global: symbols created by different engines compare
/// and hash consistently, which lets rule sets be built independently of the
/// engines that run them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct Interner {
    lookup: HashMap<&'static str, u32>,
    strings: Vec<&'static str>,
}

static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();

fn interner() -> &'static RwLock<Interner> {
    INTERNER.get_or_init(|| RwLock::new(Interner { lookup: HashMap::new(), strings: Vec::new() }))
}

impl Symbol {
    /// Interns `text` and returns its symbol.
    ///
    /// The intern arena is append-only and **never freed**: every distinct
    /// string interned here stays allocated for the process lifetime (that
    /// is what makes [`Symbol::as_str`] a `&'static` borrow). Symbols are
    /// meant for the *vocabulary* — event/fluent/relation names declared by
    /// rule sets, whose cardinality is small and fixed. Avoid interning
    /// per-item payload strings of unbounded cardinality (e.g. per-entity
    /// ids minted by a live stream) in long-running pipelines — every
    /// distinct id grows the arena forever; prefer numeric ids
    /// ([`Term::Int`]) for such data and keep [`Term::Sym`] for labels
    /// drawn from a bounded set.
    pub fn new(text: &str) -> Symbol {
        {
            let guard = interner().read().expect("interner lock poisoned");
            if let Some(&id) = guard.lookup.get(text) {
                return Symbol(id);
            }
        }
        let mut guard = interner().write().expect("interner lock poisoned");
        if let Some(&id) = guard.lookup.get(text) {
            return Symbol(id);
        }
        let id = u32::try_from(guard.strings.len()).expect("interner overflow");
        // The arena is process-global and append-only, so leaking each
        // distinct string once makes `as_str` a borrow instead of an
        // allocation on every call.
        let stored: &'static str = Box::leak(text.into());
        guard.strings.push(stored);
        guard.lookup.insert(stored, id);
        Symbol(id)
    }

    /// Returns the interned text, borrowed from the intern arena.
    pub fn as_str(&self) -> &'static str {
        let guard = interner().read().expect("interner lock poisoned");
        guard.strings[self.0 as usize]
    }

    /// The symbol's dense interner index. Unlike [`Symbol::as_str`] this
    /// takes no lock, so the compiled evaluation path uses it to key
    /// slot tables without ever touching the interner on the hot path.
    pub(crate) fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Symbol {
        Symbol::new(s)
    }
}

/// An `f64` with total order and hash, stored as its bit pattern.
///
/// NaNs compare equal to themselves and sort after all other values (IEEE
/// total-order semantics via `f64::total_cmp`), which is sufficient for use
/// as an index key; arithmetic guards in rules operate on the raw `f64`.
#[derive(Debug, Clone, Copy)]
pub struct OrderedF64(pub f64);

impl PartialEq for OrderedF64 {
    fn eq(&self, other: &Self) -> bool {
        self.0.total_cmp(&other.0) == std::cmp::Ordering::Equal
    }
}
impl Eq for OrderedF64 {}
impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}
impl std::hash::Hash for OrderedF64 {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        // Normalise -0.0 to 0.0 so that values that compare equal via
        // total_cmp on the common path hash identically.
        let bits = if self.0 == 0.0 { 0f64.to_bits() } else { self.0.to_bits() };
        bits.hash(state);
    }
}

/// A ground term: an event/fluent argument or a fluent value.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// A signed integer (ids, counts, timestamps used as data).
    Int(i64),
    /// A float with total order (coordinates, delays in fractional units).
    Float(OrderedF64),
    /// An interned atom/string (bus ids, line names, labels).
    Sym(Symbol),
    /// A boolean (congestion flags, fluent truth values).
    Bool(bool),
}

impl Term {
    /// Shorthand for the boolean `true` value commonly used as fluent value.
    pub fn truth() -> Term {
        Term::Bool(true)
    }

    /// Builds a symbol term from text.
    pub fn sym(text: &str) -> Term {
        Term::Sym(Symbol::new(text))
    }

    /// Builds a float term.
    pub fn float(v: f64) -> Term {
        Term::Float(OrderedF64(v))
    }

    /// Builds an integer term.
    pub fn int(v: i64) -> Term {
        Term::Int(v)
    }

    /// Returns the numeric value of an `Int` or `Float` term.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Term::Int(v) => Some(*v as f64),
            Term::Float(v) => Some(v.0),
            _ => None,
        }
    }

    /// Returns the integer value of an `Int` term.
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Term::Int(v) => Some(*v),
            _ => None,
        }
    }
}

impl fmt::Display for Term {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Term::Int(v) => write!(f, "{v}"),
            Term::Float(v) => write!(f, "{}", v.0),
            Term::Sym(s) => write!(f, "{s}"),
            Term::Bool(v) => write!(f, "{v}"),
        }
    }
}

impl From<i64> for Term {
    fn from(v: i64) -> Term {
        Term::Int(v)
    }
}
impl From<f64> for Term {
    fn from(v: f64) -> Term {
        Term::float(v)
    }
}
impl From<bool> for Term {
    fn from(v: bool) -> Term {
        Term::Bool(v)
    }
}
impl From<&str> for Term {
    fn from(v: &str) -> Term {
        Term::sym(v)
    }
}
impl From<Symbol> for Term {
    fn from(v: Symbol) -> Term {
        Term::Sym(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::hash::{Hash, Hasher};

    fn hash_of<T: Hash>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn symbols_intern_identically() {
        let a = Symbol::new("bus_33009");
        let b = Symbol::new("bus_33009");
        let c = Symbol::new("bus_33010");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "bus_33009");
    }

    #[test]
    fn symbol_display_roundtrip() {
        let a = Symbol::new("r10");
        assert_eq!(a.to_string(), "r10");
    }

    #[test]
    fn terms_compare_and_hash() {
        assert_eq!(Term::float(1.5), Term::float(1.5));
        assert_ne!(Term::float(1.5), Term::float(1.6));
        assert_eq!(hash_of(&Term::float(0.0)), hash_of(&Term::float(-0.0)));
        assert_eq!(Term::sym("a"), Term::from("a"));
        assert_eq!(Term::int(7), Term::from(7i64));
        assert_eq!(Term::Bool(true), Term::truth());
    }

    #[test]
    fn ordered_f64_totality() {
        let nan = OrderedF64(f64::NAN);
        assert_eq!(nan, nan);
        assert!(OrderedF64(1.0) < OrderedF64(2.0));
        assert!(OrderedF64(f64::NEG_INFINITY) < OrderedF64(0.0));
        assert!(nan > OrderedF64(f64::INFINITY)); // total_cmp places NaN last
    }

    #[test]
    fn accessors() {
        assert_eq!(Term::int(4).as_f64(), Some(4.0));
        assert_eq!(Term::float(2.5).as_f64(), Some(2.5));
        assert_eq!(Term::sym("x").as_f64(), None);
        assert_eq!(Term::int(4).as_i64(), Some(4));
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    (0..100).map(|j| Symbol::new(&format!("s{}", (i * j) % 50)).0).sum::<u32>()
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        // All threads must agree on every symbol id afterwards.
        for j in 0..50 {
            let s = format!("s{j}");
            assert_eq!(Symbol::new(&s), Symbol::new(&s));
        }
    }
}
