//! Interned attribute keys.
//!
//! [`DataItem`](crate::item::DataItem) attribute names are drawn from a small,
//! fixed schema vocabulary (`"bus"`, `"region"`, `"delay"`, …), yet every
//! item used to carry its own heap-allocated `String` per key — cloned on
//! every fan-out, fault-policy snapshot and replay step. [`Key`] applies the
//! same intern-pool technique as `rtec`'s `Symbol`: each distinct key string
//! is leaked exactly once into a process-global arena and the key itself is
//! the `&'static str` borrow of that allocation. Cloning a key is a pointer
//! copy, equality is a pointer compare (interning makes pointers canonical),
//! and ordering keeps full lexicographic semantics — so `BTreeMap<Key, _>`
//! retains the canonical sorted-by-name form items rely on — with a
//! pointer-equality fast path.
//!
//! Unlike `Symbol`, which stores a `u32` index and takes the interner lock on
//! every `as_str`, a `Key` resolves to its text for free. *Creating* a key
//! from text is the per-attribute cost of ingest: the JSON scanner calls
//! [`Key::new`] once per attribute of every line, on every source thread.
//! Each thread therefore keeps a small front cache of the keys it has
//! already resolved (an FNV-hashed map of at most `FRONT_KEYS` entries,
//! emptied when full, so its size is fixed), and a hit reads only that
//! thread's memory. Only a miss takes the global `RwLock`, whose arena stays
//! the one place keys are created: the cache holds arena pointers, so
//! pointer equality still means text equality. Lookups by plain `&str` (via
//! [`Borrow`]) never touch the interner at all.

use std::borrow::Borrow;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{OnceLock, RwLock};

/// An interned attribute key. Two keys are equal iff they intern the same
/// text; comparison order is the text's lexicographic order.
#[derive(Debug, Clone, Copy)]
pub struct Key(&'static str);

/// FNV-1a. `Key::new` sits on the per-attribute ingest hot path, and the
/// default SipHash dominates it for the short (≤ ~12 byte) schema keys the
/// interner sees. The interner is not exposed to attacker-controlled key
/// sets of meaningful cardinality (the vocabulary is the schema), so the
/// DoS-hardening of SipHash buys nothing here.
struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

type Interner = HashMap<&'static str, &'static str, BuildHasherDefault<Fnv>>;

static INTERNER: OnceLock<RwLock<Interner>> = OnceLock::new();

fn interner() -> &'static RwLock<Interner> {
    INTERNER.get_or_init(|| RwLock::new(Interner::default()))
}

/// Keys each thread's front cache holds before it is emptied: a vocabulary
/// wider than this costs lock round trips, not memory.
const FRONT_KEYS: usize = 32;

thread_local! {
    /// This thread's resolved keys, text → arena pointer.
    static FRONT: RefCell<Interner> = RefCell::new(Interner::default());
}

/// The arena's copy of `text`, created on first use.
fn intern_global(text: &str) -> &'static str {
    {
        let guard = interner().read().expect("interner lock poisoned");
        if let Some(&stored) = guard.get(text) {
            return stored;
        }
    }
    let mut guard = interner().write().expect("interner lock poisoned");
    if let Some(&stored) = guard.get(text) {
        return stored;
    }
    // The arena is process-global and append-only, so leaking each
    // distinct string once makes every key a plain pointer.
    let stored: &'static str = Box::leak(text.into());
    guard.insert(stored, stored);
    stored
}

impl Key {
    /// Interns `text` and returns its key.
    ///
    /// The intern arena is append-only and **never freed**: every distinct
    /// string interned here stays allocated for the process lifetime (that is
    /// what makes `Key::as_str` a `&'static` borrow). Keys are meant for
    /// the *attribute vocabulary* — the bounded set of names appearing in
    /// item schemas. Avoid interning per-item payload strings of unbounded
    /// cardinality (e.g. ids minted by a live stream) in long-running
    /// pipelines — every distinct string grows the arena forever; such data
    /// belongs in [`Value`](crate::item::Value)s, not keys.
    pub fn new(text: &str) -> Key {
        FRONT.with(|front| {
            let mut front = front.borrow_mut();
            if let Some(&stored) = front.get(text) {
                return Key(stored);
            }
            let stored = intern_global(text);
            // `clear` keeps the table's capacity, so refilling it allocates
            // nothing.
            if front.len() == FRONT_KEYS {
                front.clear();
            }
            front.insert(stored, stored);
            Key(stored)
        })
    }

    /// Returns the interned text, borrowed from the intern arena.
    pub(crate) fn as_str(&self) -> &'static str {
        self.0
    }

    /// A placeholder key for dead storage slots (the flat attribute map's
    /// unused inline capacity). Placeholders bypass the interner, so they
    /// must never be compared against live keys — the map guarantees that by
    /// only exposing its populated prefix.
    pub(crate) const fn placeholder() -> Key {
        Key("")
    }
}

// Interning canonicalises the pointer: equal text ⇔ equal address.
impl PartialEq for Key {
    fn eq(&self, other: &Key) -> bool {
        std::ptr::eq(self.0, other.0)
    }
}
impl Eq for Key {}

impl PartialOrd for Key {
    fn partial_cmp(&self, other: &Key) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Key {
    fn cmp(&self, other: &Key) -> std::cmp::Ordering {
        if std::ptr::eq(self.0, other.0) {
            std::cmp::Ordering::Equal
        } else {
            self.0.cmp(other.0)
        }
    }
}

// Hash the text (not the pointer) so that `Key` and `str` stay interchangeable
// under the `Borrow` contract in hashed containers too.
impl std::hash::Hash for Key {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.0.hash(state);
    }
}

/// Lets `BTreeMap<Key, _>` be probed with a plain `&str` without interning
/// the probe string (only insertion interns).
impl Borrow<str> for Key {
    fn borrow(&self) -> &str {
        self.0
    }
}

impl fmt::Display for Key {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.0)
    }
}

impl From<&str> for Key {
    fn from(s: &str) -> Key {
        Key::new(s)
    }
}
impl From<&String> for Key {
    fn from(s: &String) -> Key {
        Key::new(s)
    }
}
impl From<String> for Key {
    fn from(s: String) -> Key {
        Key::new(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;
    use std::collections::BTreeMap;
    use std::hash::{Hash, Hasher};

    fn hash_of<T: Hash + ?Sized>(v: &T) -> u64 {
        let mut h = DefaultHasher::new();
        v.hash(&mut h);
        h.finish()
    }

    #[test]
    fn keys_intern_identically() {
        let a = Key::new("region");
        let b = Key::new("region");
        let c = Key::new("delay");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "region");
        assert!(std::ptr::eq(a.as_str(), b.as_str()), "interning canonicalises the pointer");
    }

    #[test]
    fn order_is_lexicographic() {
        let mut keys = [Key::new("z"), Key::new("a"), Key::new("m")];
        keys.sort();
        let names: Vec<&str> = keys.iter().map(Key::as_str).collect();
        assert_eq!(names, ["a", "m", "z"]);
    }

    #[test]
    fn borrow_contract_holds() {
        // Eq/Ord/Hash must agree between `Key` and the borrowed `str`.
        let k = Key::new("bus");
        assert_eq!(<Key as Borrow<str>>::borrow(&k), "bus");
        assert_eq!(hash_of(&k), hash_of("bus"));
        let map: BTreeMap<Key, i64> = [(Key::new("bus"), 1), (Key::new("line"), 2)].into();
        assert_eq!(map.get("bus"), Some(&1));
        assert_eq!(map.get("nope"), None);
    }

    #[test]
    fn threads_interning_the_same_texts_get_the_same_pointers() {
        let texts: Vec<String> = (0..1000).map(|i| format!("shared-{i}")).collect();
        let start = std::sync::Barrier::new(4);
        let per_thread: Vec<Vec<&'static str>> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        start.wait();
                        // Twice: the second round is served by this thread's
                        // front cache where the first filled it.
                        let first: Vec<&'static str> =
                            texts.iter().map(|t| Key::new(t).as_str()).collect();
                        for (t, k) in texts.iter().zip(&first) {
                            assert!(std::ptr::eq(Key::new(t).as_str(), *k));
                        }
                        first
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("interning thread")).collect()
        });
        for (i, text) in texts.iter().enumerate() {
            let canonical = Key::new(text).as_str();
            assert_eq!(canonical, text);
            for keys in &per_thread {
                assert!(std::ptr::eq(keys[i], canonical), "{text} has two arena copies");
            }
        }
    }

    #[test]
    fn front_cache_stays_within_its_bound() {
        std::thread::spawn(|| {
            let first = Key::new("distinct-0");
            for i in 0..10_000 {
                let text = format!("distinct-{i}");
                assert_eq!(Key::new(&text).as_str(), text);
                let len = FRONT.with(|f| f.borrow().len());
                assert!(len <= FRONT_KEYS, "front cache holds {len} keys");
            }
            // A key resolved again after the cache was emptied is the same
            // arena pointer.
            assert!(std::ptr::eq(first.as_str(), Key::new("distinct-0").as_str()));
        })
        .join()
        .expect("interning thread");
    }

    #[test]
    fn concurrent_interning_is_consistent() {
        let handles: Vec<_> = (0..8)
            .map(|i| {
                std::thread::spawn(move || {
                    for j in 0..100 {
                        Key::new(&format!("k{}", (i * j) % 50));
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        for j in 0..50 {
            let s = format!("k{j}");
            assert_eq!(Key::new(&s), Key::new(&s));
        }
    }
}
