//! Data items: the unit of data flowing through the graph.
//!
//! The Streams framework represents stream elements as *sets of key-value
//! pairs* — event attributes and their values. [`DataItem`] keeps the pairs
//! in canonical sorted-by-key form, and [`Value`] covers the attribute types
//! the Dublin SDE schemas need (plus JSON-friendly serialisation for file
//! sources and sinks).
//!
//! Keys are interned [`Key`]s (see [`crate::intern`]): attribute names come
//! from a bounded schema vocabulary, so cloning an item copies pointers
//! instead of allocating a `String` per attribute, and key equality on the
//! hot path is a pointer compare.
//!
//! The attributes themselves live in a *flat sorted array* rather than a
//! tree: [`INLINE_ATTRS`] slots are stored inline (no heap node per
//! attribute), and only items wider than that spill to a heap vector. String
//! values use [`SmallStr`], which keeps payloads up to `SMALL_STR_INLINE`
//! bytes inline — the Dublin vocabulary (`"bus"`, `"north"`, …) never
//! touches the heap. A full bus or SCATS SDE therefore costs exactly one
//! heap allocation to build (the shared `Arc` below) and zero to clone,
//! look up, or deep-copy.
//!
//! Per-attribute work is kept to the attribute itself. Inserting a key that
//! sorts after every present one appends without a search — the JSON writer
//! emits keys in that order, so parsing a written line never searches, and
//! neither does collecting pairs listed in key order. The parser and
//! `FromIterator` fill a local map and wrap it in the `Arc` once, where a
//! chain of [`DataItem::with`] calls goes through copy-on-write per
//! attribute (one uniqueness check each).
//!
//! The attribute map sits behind an [`Arc`] with copy-on-write mutation:
//! `clone()` is a reference-count bump, and the map is deep-copied only when
//! a *shared* item is mutated ([`Arc::make_mut`]). Fan-out broadcasts,
//! fault-policy snapshots and the shard routing therefore share one
//! allocation per item instead of copying the map at every hop. Every deep
//! copy of a non-empty shared map is counted in a
//! process-wide counter ([`crate::testing::deep_copies`]) so tests can pin an
//! allocation budget on a pipeline shape; detaching from the shared *empty*
//! singleton (every fresh item starts there) is initialisation, not a deep
//! copy, and is not counted.

use crate::intern::Key;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Maximum byte length a [`SmallStr`] stores inline. Chosen so the whole
/// [`Value`] stays 32 bytes — the widest slot the numeric variants need
/// plus the inline buffer and its length tag.
pub(crate) const SMALL_STR_INLINE: usize = 22;

/// A UTF-8 string with inline storage for short payloads.
///
/// Strings of at most `SMALL_STR_INLINE` bytes live in the value itself;
/// longer payloads fall back to a heap `Box<str>`. The Dublin SDE
/// vocabulary (region names, SDE kinds, line labels) fits inline, so string
/// attributes stop costing a heap allocation per item on build and clone.
#[derive(Clone)]
pub struct SmallStr(Repr);

#[derive(Clone)]
enum Repr {
    Inline { len: u8, buf: [u8; SMALL_STR_INLINE] },
    Heap(Box<str>),
}

impl SmallStr {
    /// Builds from a borrowed string; inline when it fits.
    pub(crate) fn new(s: &str) -> SmallStr {
        if s.len() <= SMALL_STR_INLINE {
            let mut buf = [0u8; SMALL_STR_INLINE];
            buf[..s.len()].copy_from_slice(s.as_bytes());
            SmallStr(Repr::Inline { len: s.len() as u8, buf })
        } else {
            SmallStr(Repr::Heap(s.into()))
        }
    }

    /// The string slice. Free for both representations.
    pub(crate) fn as_str(&self) -> &str {
        match &self.0 {
            Repr::Inline { len, buf } => {
                // The inline buffer always holds a complete `&str`'s bytes
                // (never a truncated prefix), so this cannot fail.
                std::str::from_utf8(&buf[..*len as usize]).expect("inline bytes are UTF-8")
            }
            Repr::Heap(s) => s,
        }
    }
}

impl std::ops::Deref for SmallStr {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Debug for SmallStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl fmt::Display for SmallStr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

impl PartialEq for SmallStr {
    fn eq(&self, other: &SmallStr) -> bool {
        self.as_str() == other.as_str()
    }
}
impl Eq for SmallStr {}

impl PartialEq<str> for SmallStr {
    fn eq(&self, other: &str) -> bool {
        self.as_str() == other
    }
}
impl PartialEq<&str> for SmallStr {
    fn eq(&self, other: &&str) -> bool {
        self.as_str() == *other
    }
}

impl std::hash::Hash for SmallStr {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

impl From<&str> for SmallStr {
    fn from(s: &str) -> SmallStr {
        SmallStr::new(s)
    }
}
impl From<String> for SmallStr {
    fn from(s: String) -> SmallStr {
        if s.len() <= SMALL_STR_INLINE {
            SmallStr::new(&s)
        } else {
            SmallStr(Repr::Heap(s.into_boxed_str()))
        }
    }
}
impl AsRef<str> for SmallStr {
    fn as_ref(&self) -> &str {
        self.as_str()
    }
}

/// An attribute value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// Null / absent marker.
    Null,
    /// Boolean.
    Bool(bool),
    /// Signed integer.
    Int(i64),
    /// Double-precision float.
    Float(f64),
    /// UTF-8 string with inline storage for short payloads.
    Str(SmallStr),
}

impl Value {
    /// Integer accessor (does not coerce floats).
    pub fn as_i64(&self) -> Option<i64> {
        match self {
            Value::Int(v) => Some(*v),
            _ => None,
        }
    }

    /// Numeric accessor (coerces integers to floats).
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Value::Int(v) => Some(*v as f64),
            Value::Float(v) => Some(*v),
            _ => None,
        }
    }

    /// String accessor.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Value::Str(v) => Some(v.as_str()),
            _ => None,
        }
    }

    /// Boolean accessor.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Value::Bool(v) => Some(*v),
            _ => None,
        }
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Value::Null => write!(f, "null"),
            Value::Bool(v) => write!(f, "{v}"),
            Value::Int(v) => write!(f, "{v}"),
            Value::Float(v) => write!(f, "{v}"),
            Value::Str(v) => write!(f, "{v}"),
        }
    }
}

impl From<bool> for Value {
    fn from(v: bool) -> Value {
        Value::Bool(v)
    }
}
impl From<i64> for Value {
    fn from(v: i64) -> Value {
        Value::Int(v)
    }
}
impl From<i32> for Value {
    fn from(v: i32) -> Value {
        Value::Int(v as i64)
    }
}
impl From<f64> for Value {
    fn from(v: f64) -> Value {
        Value::Float(v)
    }
}
impl From<&str> for Value {
    fn from(v: &str) -> Value {
        Value::Str(SmallStr::new(v))
    }
}
impl From<String> for Value {
    fn from(v: String) -> Value {
        Value::Str(SmallStr::from(v))
    }
}
impl From<SmallStr> for Value {
    fn from(v: SmallStr) -> Value {
        Value::Str(v)
    }
}

/// Inline attribute capacity of the flat map: the widest Dublin SDE schema
/// (a bus item) carries 12 attributes, so typical items never spill.
pub const INLINE_ATTRS: usize = 12;

/// The flat sorted attribute storage behind every [`DataItem`].
///
/// Pairs are kept sorted by key (the interner's lexicographic order, same
/// canonical form the old `BTreeMap` gave). Up to [`INLINE_ATTRS`] pairs
/// live in an inline array; wider items move everything to a heap vector
/// and stay there (spilling is one-way — items never shrink back, which
/// keeps removal O(n) with no re-inlining edge cases). Lookup is a binary
/// search over at most a cache line or two of slots.
// The size skew between the variants is the design: the inline array *is*
// the storage, and the enum always lives behind the item's `Arc`, so the
// "waste" on a spilled item is one allocation's slack, not a per-value
// copy. Boxing the array would reintroduce the indirection the layout
// exists to remove.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone)]
pub(crate) enum AttrMap {
    Inline { len: u8, slots: [(Key, Value); INLINE_ATTRS] },
    Spill(Vec<(Key, Value)>),
}

/// Placeholder for dead inline slots; never exposed through the populated
/// prefix.
const EMPTY_SLOT: (Key, Value) = (Key::placeholder(), Value::Null);

impl AttrMap {
    pub(crate) fn new() -> AttrMap {
        AttrMap::Inline { len: 0, slots: [EMPTY_SLOT; INLINE_ATTRS] }
    }

    /// The populated pairs, sorted by key.
    pub(crate) fn as_slice(&self) -> &[(Key, Value)] {
        match self {
            AttrMap::Inline { len, slots } => &slots[..*len as usize],
            AttrMap::Spill(v) => v,
        }
    }

    fn as_mut_slice(&mut self) -> &mut [(Key, Value)] {
        match self {
            AttrMap::Inline { len, slots } => &mut slots[..*len as usize],
            AttrMap::Spill(v) => v,
        }
    }

    /// Binary search by key text: `Ok(index)` of the match or `Err(index)`
    /// of the insertion point.
    fn search(&self, key: &str) -> Result<usize, usize> {
        self.as_slice().binary_search_by(|(k, _)| k.as_str().cmp(key))
    }

    pub(crate) fn get(&self, key: &str) -> Option<&Value> {
        match self.search(key) {
            Ok(i) => Some(&self.as_slice()[i].1),
            Err(_) => None,
        }
    }

    pub(crate) fn contains_key(&self, key: &str) -> bool {
        self.search(key).is_ok()
    }

    pub(crate) fn len(&self) -> usize {
        self.as_slice().len()
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.as_slice().is_empty()
    }

    /// Inserts or replaces. A key that sorts after every present one — the
    /// case of a line the writer produced, or of pairs built in key order —
    /// appends without a search.
    pub(crate) fn insert(&mut self, key: Key, value: Value) {
        let found = match self.as_slice().last() {
            None => Err(0),
            Some((last, _)) => match last.cmp(&key) {
                std::cmp::Ordering::Less => Err(self.len()),
                std::cmp::Ordering::Equal => Ok(self.len() - 1),
                std::cmp::Ordering::Greater => self.search(key.as_str()),
            },
        };
        match found {
            Ok(i) => self.as_mut_slice()[i].1 = value,
            Err(i) => self.insert_at(i, key, value),
        }
    }

    fn insert_at(&mut self, i: usize, key: Key, value: Value) {
        match self {
            AttrMap::Inline { len, slots } if (*len as usize) < INLINE_ATTRS => {
                let n = *len as usize;
                // Rotate the placeholder at `slots[n]` down to `i`, shifting
                // the tail up one slot, then overwrite it in place.
                slots[i..=n].rotate_right(1);
                slots[i] = (key, value);
                *len += 1;
            }
            AttrMap::Inline { slots, .. } => {
                let mut v = Vec::with_capacity(INLINE_ATTRS * 2);
                for slot in slots.iter_mut() {
                    v.push(std::mem::replace(slot, EMPTY_SLOT));
                }
                v.insert(i, (key, value));
                *self = AttrMap::Spill(v);
            }
            AttrMap::Spill(v) => v.insert(i, (key, value)),
        }
    }

    pub(crate) fn remove(&mut self, key: &str) -> Option<Value> {
        let i = self.search(key).ok()?;
        match self {
            AttrMap::Inline { len, slots } => {
                let n = *len as usize;
                // Rotate the doomed slot to the end of the populated prefix,
                // then retire it to a placeholder.
                slots[i..n].rotate_left(1);
                *len -= 1;
                Some(std::mem::replace(&mut slots[n - 1], EMPTY_SLOT).1)
            }
            AttrMap::Spill(v) => Some(v.remove(i).1),
        }
    }

    /// Whether the populated pairs live in the inline array.
    pub(crate) fn is_inline(&self) -> bool {
        matches!(self, AttrMap::Inline { .. })
    }
}

impl PartialEq for AttrMap {
    fn eq(&self, other: &AttrMap) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Default for AttrMap {
    fn default() -> AttrMap {
        AttrMap::new()
    }
}

/// Process-wide count of attribute-map deep copies forced by copy-on-write
/// mutation of a shared item (see [`crate::testing::deep_copies`]).
pub(crate) static DEEP_COPIES: AtomicU64 = AtomicU64::new(0);

/// The process-wide empty attribute map every fresh [`DataItem`] points at,
/// so `DataItem::new()` itself never allocates.
static EMPTY_ATTRS: OnceLock<Arc<AttrMap>> = OnceLock::new();

fn empty_attrs() -> Arc<AttrMap> {
    EMPTY_ATTRS.get_or_init(|| Arc::new(AttrMap::new())).clone()
}

/// An item's position in the output order of a replicated stage (see
/// [`crate::partition`]), carried beside the attribute map so the stage
/// never writes to it. Processors never see a stamp: a shard worker takes
/// it off before its chain runs, and the merge takes it off before anything
/// leaves the stage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) enum Stamp {
    /// Not sequenced: outside a replicated stage, or emitted by a shard's
    /// `finish`.
    #[default]
    None,
    /// The `sub`-th output of the input with sequence number `seq`.
    Seq { seq: i64, sub: u32 },
}

impl Stamp {
    /// The sequence number, if the item has one.
    pub(crate) fn seq(self) -> Option<i64> {
        match self {
            Stamp::Seq { seq, .. } => Some(seq),
            Stamp::None => None,
        }
    }
}

/// A set of key-value pairs travelling through the data-flow graph.
///
/// The map is shared on `clone()` and deep-copied only when a shared item is
/// mutated (copy-on-write) — see the module docs. Inside a replicated stage
/// the item also carries a sequence stamp, which is not part of
/// equality, JSON, `Display` or the attributes.
#[derive(Clone)]
pub struct DataItem {
    pub(crate) attrs: Arc<AttrMap>,
    stamp: Stamp,
}

impl Default for DataItem {
    fn default() -> DataItem {
        DataItem { attrs: empty_attrs(), stamp: Stamp::None }
    }
}

impl PartialEq for DataItem {
    fn eq(&self, other: &DataItem) -> bool {
        self.attrs == other.attrs
    }
}

impl fmt::Debug for DataItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut s = f.debug_struct("DataItem");
        s.field("attrs", &self.attrs);
        if self.stamp != Stamp::None {
            s.field("stamp", &self.stamp);
        }
        s.finish()
    }
}

impl DataItem {
    /// An empty item. Allocation-free: every empty item shares one
    /// process-wide map until its first mutation.
    pub fn new() -> DataItem {
        DataItem::default()
    }

    /// Copy-on-write access to the attribute map: exclusive maps are mutated
    /// in place, shared maps are deep-copied first (counted in
    /// [`crate::testing::deep_copies`]). Detaching from a shared *empty* map — in
    /// particular the process-wide empty singleton behind every fresh item —
    /// copies nothing, so it is initialisation rather than a deep copy and
    /// is not counted.
    fn attrs_mut(&mut self) -> &mut AttrMap {
        // One uniqueness check: `make_mut` copies exactly when the map moves.
        // (It also moves an unshared map that has `Weak` handles; items never
        // make one.)
        let before = Arc::as_ptr(&self.attrs);
        let copied_any = !self.attrs.is_empty();
        let attrs = Arc::make_mut(&mut self.attrs);
        if copied_any && !std::ptr::eq(before, attrs) {
            DEEP_COPIES.fetch_add(1, Ordering::Relaxed);
        }
        attrs
    }

    /// An item owning `attrs`: the one allocation of an item built in place.
    pub(crate) fn from_attrs(attrs: AttrMap) -> DataItem {
        DataItem { attrs: Arc::new(attrs), stamp: Stamp::None }
    }

    /// Builder-style attribute insertion.
    pub fn with<K: Into<Key>, V: Into<Value>>(mut self, key: K, value: V) -> DataItem {
        self.attrs_mut().insert(key.into(), value.into());
        self
    }

    /// Inserts/replaces an attribute.
    pub fn set<K: Into<Key>, V: Into<Value>>(&mut self, key: K, value: V) {
        self.attrs_mut().insert(key.into(), value.into());
    }

    /// Removes an attribute, returning its previous value. Removing an
    /// absent key is a no-op that never forces a copy of a shared map.
    pub fn remove(&mut self, key: &str) -> Option<Value> {
        if !self.attrs.contains_key(key) {
            return None;
        }
        self.attrs_mut().remove(key)
    }

    /// Looks up an attribute.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.attrs.get(key)
    }

    /// Integer attribute accessor.
    pub fn get_i64(&self, key: &str) -> Option<i64> {
        self.get(key).and_then(Value::as_i64)
    }

    /// Numeric attribute accessor (coerces ints).
    pub fn get_f64(&self, key: &str) -> Option<f64> {
        self.get(key).and_then(Value::as_f64)
    }

    /// String attribute accessor.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Value::as_str)
    }

    /// Whether the attribute exists.
    pub fn contains(&self, key: &str) -> bool {
        self.attrs.contains_key(key)
    }

    /// Number of attributes.
    pub fn len(&self) -> usize {
        self.attrs.len()
    }

    /// Whether the item carries no attributes.
    pub fn is_empty(&self) -> bool {
        self.attrs.is_empty()
    }

    /// Iterates over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.attrs.as_slice().iter().map(|(k, v)| (k.as_str(), v))
    }

    /// The item's sequence stamp.
    pub(crate) fn stamp(&self) -> Stamp {
        self.stamp
    }

    /// Replaces the item's sequence stamp.
    pub(crate) fn set_stamp(&mut self, stamp: Stamp) {
        self.stamp = stamp;
    }

    /// Removes and returns the item's sequence stamp.
    pub(crate) fn take_stamp(&mut self) -> Stamp {
        std::mem::take(&mut self.stamp)
    }

    /// Serialises the item as one JSON object line.
    pub fn to_json(&self) -> String {
        // Room for a feed SDE's line (12 attributes, ≈ 180 bytes) in the
        // first allocation: growing from a small buffer reallocates twice.
        let mut out = String::with_capacity(2 + 24 * self.len());
        self.to_json_into(&mut out);
        out
    }

    /// Appends the item's JSON object form to `out` — the allocation-free
    /// path for callers that reuse a serialisation buffer.
    pub fn to_json_into(&self, out: &mut String) {
        crate::json::item_into(out, self);
    }

    /// Parses an item from a JSON object without intermediate key/value
    /// allocations (see [`crate::json::parse_item`]).
    pub fn from_json(s: &str) -> Result<DataItem, crate::error::StreamsError> {
        crate::json::parse_item(s).map_err(|detail| crate::error::StreamsError::Io { detail })
    }
}

impl fmt::Display for DataItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (k, v)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
        }
        write!(f, "}}")
    }
}

impl FromIterator<(String, Value)> for DataItem {
    fn from_iter<I: IntoIterator<Item = (String, Value)>>(iter: I) -> Self {
        iter.into_iter().map(|(k, v)| (Key::from(k), v)).collect()
    }
}

impl FromIterator<(Key, Value)> for DataItem {
    fn from_iter<I: IntoIterator<Item = (Key, Value)>>(iter: I) -> Self {
        let mut map = AttrMap::new();
        for (k, v) in iter {
            map.insert(k, v);
        }
        DataItem::from_attrs(map)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_and_accessors() {
        let item = DataItem::new()
            .with("bus", 33009i64)
            .with("line", "r10")
            .with("delay", 400.5)
            .with("congested", true);
        assert_eq!(item.get_i64("bus"), Some(33009));
        assert_eq!(item.get_str("line"), Some("r10"));
        assert_eq!(item.get_f64("delay"), Some(400.5));
        assert_eq!(item.get_f64("bus"), Some(33009.0), "ints coerce to f64");
        assert_eq!(item.get("congested"), Some(&Value::Bool(true)));
        assert_eq!(item.get("missing"), None);
        assert_eq!(item.len(), 4);
    }

    #[test]
    fn set_remove() {
        let mut item = DataItem::new().with("a", 1i64).with("b", 2i64).with("c", 3i64);
        item.set("a", 10i64);
        assert_eq!(item.get_i64("a"), Some(10));
        assert_eq!(item.remove("b"), Some(Value::Int(2)));
        assert_eq!(item.len(), 2);
        assert!(item.contains("a") && !item.contains("b"));
    }

    #[test]
    fn json_roundtrip() {
        let item = DataItem::new()
            .with("bus", 1i64)
            .with("lat", 53.35)
            .with("line", "r10")
            .with("ok", true);
        let json = item.to_json();
        let back = DataItem::from_json(&json).unwrap();
        assert_eq!(item, back);
    }

    #[test]
    fn json_rejects_garbage() {
        assert!(DataItem::from_json("not json").is_err());
    }

    #[test]
    fn display_is_sorted_by_key() {
        let item = DataItem::new().with("z", 1i64).with("a", 2i64);
        assert_eq!(item.to_string(), "{a=2, z=1}");
    }

    #[test]
    fn clone_shares_until_mutated() {
        // Sharing is observable through the Arc pointer (the global counter
        // is shared with concurrently running tests, so pointer identity is
        // the race-free way to assert copy-on-write behaviour here).
        let a = DataItem::new().with("n", 1i64).with("s", "x");
        let mut b = a.clone();
        assert!(Arc::ptr_eq(&a.attrs, &b.attrs), "clone shares the map");
        let before = crate::testing::deep_copies();
        b.set("n", 2i64);
        assert!(!Arc::ptr_eq(&a.attrs, &b.attrs), "shared mutation detaches");
        assert!(crate::testing::deep_copies() > before, "the detach was counted");
        assert_eq!(a.get_i64("n"), Some(1), "the original is untouched");
        assert_eq!(b.get_i64("n"), Some(2));
        // Removing an absent key from a shared map stays copy-free.
        let mut c = a.clone();
        assert_eq!(c.remove("missing"), None);
        assert!(Arc::ptr_eq(&a.attrs, &c.attrs), "no-op remove never copies");
    }

    #[test]
    fn exclusive_mutation_is_not_a_deep_copy() {
        let mut item = DataItem::new().with("n", 1i64);
        // The map is exclusively owned: further mutation happens in place.
        let before = crate::testing::deep_copies();
        let ptr = Arc::as_ptr(&item.attrs);
        item.set("n", 2i64);
        item.set("m", 3i64);
        assert_eq!(Arc::as_ptr(&item.attrs), ptr, "exclusive mutation is in place");
        assert_eq!(crate::testing::deep_copies(), before, "no deep copy counted");
    }

    #[test]
    fn empty_map_detach_is_not_a_deep_copy() {
        // Every fresh item shares the process-wide empty singleton, and the
        // first insertion detaches from it. Copying nothing is not a deep
        // copy — the counter must stay untouched (this was miscounted when
        // the counter keyed on the `Arc::get_mut` miss alone).
        let a = DataItem::new();
        let b = DataItem::new();
        assert!(Arc::ptr_eq(&a.attrs, &b.attrs), "fresh items share the empty singleton");
        let before = crate::testing::deep_copies();
        let _built = DataItem::new().with("n", 1i64);
        let mut c = DataItem::new();
        c.set("m", 2i64);
        assert_eq!(crate::testing::deep_copies(), before, "empty detaches are not deep copies");
        // An explicitly shared empty map behaves the same.
        let empty = DataItem::new();
        let mut clone = empty.clone();
        clone.set("k", 1i64);
        assert_eq!(crate::testing::deep_copies(), before, "shared-empty mutation is not counted");
        assert!(empty.is_empty() && clone.len() == 1);
    }

    #[test]
    fn inline_capacity_and_spill() {
        let mut item = DataItem::new();
        for i in 0..INLINE_ATTRS {
            item.set(format!("k{i:02}"), i as i64);
        }
        assert!(crate::testing::is_inline(&item), "{INLINE_ATTRS} attrs fit inline");
        item.set("k99", 99i64);
        assert!(!crate::testing::is_inline(&item), "attr {} spills", INLINE_ATTRS + 1);
        assert_eq!(item.len(), INLINE_ATTRS + 1);
        for i in 0..INLINE_ATTRS {
            assert_eq!(item.get_i64(&format!("k{i:02}")), Some(i as i64));
        }
        assert_eq!(item.get_i64("k99"), Some(99));
        // Iteration stays sorted across the spill boundary.
        let keys: Vec<&str> = item.iter().map(|(k, _)| k).collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        // Removal works on the spilled form too.
        assert_eq!(item.remove("k05"), Some(Value::Int(5)));
        assert_eq!(item.len(), INLINE_ATTRS);
    }

    #[test]
    fn small_str_inline_boundary() {
        let fits = "x".repeat(SMALL_STR_INLINE);
        let spills = "x".repeat(SMALL_STR_INLINE + 1);
        assert_eq!(SmallStr::new(&fits).as_str(), fits);
        assert_eq!(SmallStr::new(&spills).as_str(), spills);
        // Inline and heap forms of different strings still compare by text.
        assert_eq!(SmallStr::new(""), SmallStr::from(String::new()));
        assert_eq!(SmallStr::new("north").as_str(), "north");
        // Multi-byte UTF-8 at the boundary.
        let multi = "é".repeat(SMALL_STR_INLINE / 2);
        assert_eq!(SmallStr::new(&multi).as_str(), multi);
    }

    #[test]
    fn value_accessors_are_strict() {
        assert_eq!(Value::Float(1.5).as_i64(), None);
        assert_eq!(Value::Str("x".into()).as_f64(), None);
        assert_eq!(Value::Int(1).as_bool(), None);
        assert_eq!(Value::Null.as_str(), None);
    }

    #[test]
    fn stamp_is_not_part_of_the_item() {
        let plain = DataItem::new().with("n", 1i64);
        let mut stamped = plain.clone();
        stamped.set_stamp(Stamp::Seq { seq: 7, sub: 1 });
        assert_eq!(stamped, plain, "equality ignores the stamp");
        assert_eq!(stamped.to_json(), plain.to_json());
        assert_eq!(stamped.to_string(), plain.to_string());
        assert_eq!(stamped.len(), 1, "no attribute was written");
        assert!(Arc::ptr_eq(&stamped.attrs, &plain.attrs), "stamping never copies the map");
        assert_eq!(stamped.take_stamp(), Stamp::Seq { seq: 7, sub: 1 });
        assert_eq!(stamped.stamp(), Stamp::None);
        assert!(std::mem::size_of::<DataItem>() <= 24, "the stamp keeps an item at three words");
    }

    #[test]
    fn value_stays_compact() {
        // The inline small-string budget is set so `Value` never exceeds
        // four words; a widening here silently bloats every slot.
        assert!(std::mem::size_of::<Value>() <= 32, "Value grew past 32 bytes");
    }
}
