//! Checkpoint/restore: durable processor state for crash recovery.
//!
//! The paper's pipeline is meant to run continuously over city-scale SDE
//! streams, so a processor restart must not lose the RTEC window caches or
//! the crowd EM estimates. This module supplies the three pieces the
//! supervisor needs:
//!
//! * [`Checkpointable`] — implemented by stateful processors: serialise the
//!   semantic state into a [`StateBlob`] and rebuild it later;
//! * [`CheckpointStore`] — keeps the *latest* checkpoint per `(process,
//!   processor)` slot, in memory;
//! * [`Checkpoint`] — one snapshot together with the input-edge *position*
//!   (items consumed when the barrier was taken), which is what lets the
//!   runtime bound its replay log.
//!
//! The runtime takes a checkpoint *barrier* every
//! [`checkpoint_every`](crate::topology::ProcessBuilder::checkpoint_every)
//! consumed items and keeps the items consumed since the last barrier in a replay log. On a
//! [`FaultPolicy::Restart`](crate::fault::FaultPolicy::Restart) fault the
//! supervisor rebuilds the chain from its factories, restores the latest
//! checkpoint, silently replays the logged items (their outputs were already
//! emitted before the fault, and processors are deterministic, so the
//! regenerated outputs are discarded) and resumes with the faulted item.

use crate::error::StreamsError;
use crate::item::Value;
use crate::json;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// A flat, JSON-serialisable bag of state fields.
///
/// Values are the scalar [`Value`] types of the attribute map; nested state
/// (per-region sub-blobs, buffered item lists) is string-encoded by the
/// implementor — typically as newline-joined JSON lines.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateBlob {
    fields: BTreeMap<String, Value>,
}

impl StateBlob {
    /// An empty blob.
    pub fn new() -> StateBlob {
        StateBlob::default()
    }

    /// Inserts/replaces one field.
    pub fn set<V: Into<Value>>(&mut self, key: &str, value: V) {
        self.fields.insert(key.to_string(), value.into());
    }

    /// Looks up a field.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.get(key)
    }

    /// Integer field accessor.
    pub(crate) fn get_i64(&self, key: &str) -> Option<i64> {
        self.get(key).and_then(Value::as_i64)
    }

    /// String field accessor.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.get(key).and_then(Value::as_str)
    }

    /// Integer field, or a "field missing" restore error naming the field.
    pub fn require_i64(&self, key: &str) -> Result<i64, StreamsError> {
        self.get_i64(key).ok_or_else(|| missing(key))
    }

    /// String field, or a "field missing" restore error naming the field.
    pub fn require_str(&self, key: &str) -> Result<&str, StreamsError> {
        self.get_str(key).ok_or_else(|| missing(key))
    }

    /// Whether the blob has no fields.
    pub fn is_empty(&self) -> bool {
        self.fields.is_empty()
    }

    /// Iterates over `(key, value)` pairs in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &Value)> {
        self.fields.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Consumes the blob, yielding its fields in key order. Lets composite
    /// processors fold sub-snapshots into a parent blob under prefixed keys
    /// without a serialise/re-parse round trip.
    pub fn into_fields(self) -> BTreeMap<String, Value> {
        self.fields
    }

    /// Serialises the blob as one JSON object.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(64);
        json::object_into(&mut out, self.iter());
        out
    }

    /// Parses a blob from a JSON object.
    pub fn from_json(s: &str) -> Result<StateBlob, StreamsError> {
        let fields = json::parse_object(s).map_err(|detail| StreamsError::Io {
            detail: format!("corrupt checkpoint: {detail}"),
        })?;
        Ok(StateBlob { fields })
    }
}

fn missing(key: &str) -> StreamsError {
    StreamsError::Io { detail: format!("corrupt checkpoint: missing field `{key}`") }
}

/// A processor whose semantic state can be snapshotted and rebuilt.
///
/// `snapshot` takes `&mut self` so a wrapper can delegate to an inner
/// processor through
/// [`Processor::as_checkpointable`](crate::processor::Processor::as_checkpointable),
/// which needs `&mut`. A snapshot must never change observable behaviour.
///
/// The contract: `restore(snapshot())` on a *freshly constructed* processor
/// (same factory, same configuration) must yield a processor whose future
/// outputs are identical to the original's — the recovery-equivalence the
/// conformance suite checks end to end.
pub trait Checkpointable {
    /// Serialises the semantic state.
    fn snapshot(&mut self) -> StateBlob;

    /// Rebuilds the state recorded by [`Checkpointable::snapshot`]. Called on
    /// a freshly constructed instance; must fail (not panic) on a corrupt or
    /// incompatible blob.
    fn restore(&mut self, blob: &StateBlob) -> Result<(), StreamsError>;
}

/// One stored snapshot: the blob plus the input-edge position (items the
/// owning worker had consumed when the barrier was taken).
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// Items the worker had consumed from its input edge at barrier time.
    pub position: u64,
    /// The processor's serialised state.
    pub blob: StateBlob,
}

/// Keeps the latest [`Checkpoint`] per `(process, processor-slot)`, in
/// memory. Clones share the store (the runtime hands one clone to every
/// worker).
#[derive(Clone, Debug, Default)]
pub struct CheckpointStore {
    latest: Arc<Mutex<HashMap<(String, usize), Checkpoint>>>,
}

impl CheckpointStore {
    /// Stores the latest checkpoint for `(process, processor)`.
    pub(crate) fn put(&self, process: &str, processor: usize, checkpoint: Checkpoint) {
        self.latest.lock().unwrap().insert((process.to_string(), processor), checkpoint);
    }

    /// The latest checkpoint of `(process, processor)`, if any.
    pub fn latest(&self, process: &str, processor: usize) -> Option<Checkpoint> {
        self.latest.lock().unwrap().get(&(process.to_string(), processor)).cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blob(n: i64) -> StateBlob {
        let mut b = StateBlob::new();
        b.set("count", n);
        b.set("name", "rtec");
        b.set("ratio", 0.5);
        b.set("armed", true);
        b
    }

    #[test]
    fn blob_json_roundtrip() {
        let b = blob(7);
        let back = StateBlob::from_json(&b.to_json()).unwrap();
        assert_eq!(b, back);
        assert_eq!(back.get_i64("count"), Some(7));
        assert_eq!(back.get_str("name"), Some("rtec"));
        assert_eq!(back.get("armed"), Some(&Value::Bool(true)));
        assert!(StateBlob::from_json("not json").is_err());
    }

    #[test]
    fn blob_require_reports_missing_fields() {
        let b = blob(1);
        assert_eq!(b.require_i64("count").unwrap(), 1);
        let err = b.require_i64("ghost").unwrap_err().to_string();
        assert!(err.contains("ghost"), "{err}");
    }

    #[test]
    fn store_keeps_latest_per_slot_and_clones_share_it() {
        let store = CheckpointStore::default();
        let clone = store.clone();
        clone.put("p", 0, Checkpoint { position: 10, blob: blob(1) });
        clone.put("p", 0, Checkpoint { position: 20, blob: blob(2) });
        clone.put("p", 1, Checkpoint { position: 20, blob: blob(3) });
        let cp = store.latest("p", 0).unwrap();
        assert_eq!(cp.position, 20);
        assert_eq!(cp.blob.get_i64("count"), Some(2));
        assert_eq!(store.latest("p", 1).unwrap().blob.get_i64("count"), Some(3));
        assert!(store.latest("q", 0).is_none());
    }
}
