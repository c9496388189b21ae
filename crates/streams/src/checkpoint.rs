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
//!   processor)` slot, in memory or persisted to a directory of JSON files
//!   (serialised over the hand-rolled [`crate::json`] layer);
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
use std::io::Write;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};

/// A flat, JSON-serialisable bag of state fields.
///
/// Values are the scalar [`Value`] types of the attribute map; nested state
/// (per-region sub-blobs, buffered item lists) is string-encoded by the
/// implementor — typically as newline-joined JSON lines. Keys beginning with
/// `!` are reserved for [`CheckpointStore`] metadata.
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
        debug_assert!(!key.starts_with('!'), "`!`-prefixed keys are reserved");
        self.fields.insert(key.to_string(), value.into());
    }

    /// Looks up a field.
    pub fn get(&self, key: &str) -> Option<&Value> {
        self.fields.get(key)
    }

    /// Integer field accessor.
    pub fn get_i64(&self, key: &str) -> Option<i64> {
        self.get(key).and_then(Value::as_i64)
    }

    /// Boolean field accessor.
    pub fn get_bool(&self, key: &str) -> Option<bool> {
        self.get(key).and_then(Value::as_bool)
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

    /// Number of fields.
    pub fn len(&self) -> usize {
        self.fields.len()
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
        json::object_to_string(self.iter())
    }

    /// Parses a blob from a JSON object (`!`-prefixed metadata keys are
    /// dropped).
    pub fn from_json(s: &str) -> Result<StateBlob, StreamsError> {
        let mut fields = json::parse_object(s).map_err(|detail| StreamsError::Io {
            detail: format!("corrupt checkpoint: {detail}"),
        })?;
        fields.retain(|k, _| !k.starts_with('!'));
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

#[derive(Default)]
struct StoreInner {
    latest: HashMap<(String, usize), Checkpoint>,
    dir: Option<PathBuf>,
}

/// Keeps the latest [`Checkpoint`] per `(process, processor-slot)`. Clones
/// share the store (the runtime hands one clone to every worker).
///
/// The in-memory store is enough for supervised restarts within one run; the
/// file-backed store additionally persists every checkpoint as
/// `{process}.{slot}.ckpt.json` (written to a `.ckpt.tmp` file, synced,
/// renamed over the previous one and the directory synced, so a crash
/// mid-write never corrupts the previous checkpoint) and reloads the
/// directory on construction, which is what a restarted *process* would
/// recover from.
#[derive(Clone, Default)]
pub struct CheckpointStore {
    inner: Arc<Mutex<StoreInner>>,
}

impl CheckpointStore {
    /// A store that keeps checkpoints in memory only.
    pub fn in_memory() -> CheckpointStore {
        CheckpointStore::default()
    }

    /// A store persisting to `dir` (created if absent); existing
    /// `*.ckpt.json` files are loaded as the latest checkpoints.
    pub fn file_backed<P: Into<PathBuf>>(dir: P) -> Result<CheckpointStore, StreamsError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        let mut latest = HashMap::new();
        for entry in std::fs::read_dir(&dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else { continue };
            if !name.ends_with(".ckpt.json") {
                continue;
            }
            let text = std::fs::read_to_string(&path)?;
            let fields = json::parse_object(&text).map_err(|detail| StreamsError::Io {
                detail: format!("corrupt checkpoint file `{name}`: {detail}"),
            })?;
            let meta_str = |key: &str| {
                fields.get(key).and_then(Value::as_str).map(str::to_string).ok_or_else(|| {
                    StreamsError::Io {
                        detail: format!("corrupt checkpoint file `{name}`: missing `{key}`"),
                    }
                })
            };
            let meta_int = |key: &str| {
                fields.get(key).and_then(Value::as_i64).ok_or_else(|| StreamsError::Io {
                    detail: format!("corrupt checkpoint file `{name}`: missing `{key}`"),
                })
            };
            let process = meta_str("!process")?;
            let processor = meta_int("!processor")? as usize;
            let position = meta_int("!position")? as u64;
            let blob = StateBlob {
                fields: fields.into_iter().filter(|(k, _)| !k.starts_with('!')).collect(),
            };
            latest.insert((process, processor), Checkpoint { position, blob });
        }
        Ok(CheckpointStore { inner: Arc::new(Mutex::new(StoreInner { latest, dir: Some(dir) })) })
    }

    /// Stores the latest checkpoint for `(process, processor)`, persisting it
    /// when the store is file-backed.
    pub fn put(
        &self,
        process: &str,
        processor: usize,
        checkpoint: Checkpoint,
    ) -> Result<(), StreamsError> {
        let mut inner = self.inner.lock().unwrap();
        if let Some(dir) = inner.dir.clone() {
            let meta = [
                ("!process".to_string(), Value::from(process)),
                ("!processor".to_string(), Value::Int(processor as i64)),
                ("!position".to_string(), Value::Int(checkpoint.position as i64)),
            ];
            let text = json::object_to_string(
                meta.iter().map(|(k, v)| (k.as_str(), v)).chain(checkpoint.blob.iter()),
            );
            let file = dir.join(format!("{}.{processor}.ckpt.json", sanitize(process)));
            let tmp = file.with_extension("tmp");
            let mut out = std::fs::File::create(&tmp)?;
            out.write_all(text.as_bytes())?;
            // The bytes are on disk before the rename publishes them; the
            // directory sync below makes the rename itself survive a crash.
            out.sync_all()?;
            std::fs::rename(&tmp, &file)?;
            #[cfg(unix)]
            std::fs::File::open(&dir)?.sync_all()?;
        }
        inner.latest.insert((process.to_string(), processor), checkpoint);
        Ok(())
    }

    /// The latest checkpoint of `(process, processor)`, if any.
    pub fn latest(&self, process: &str, processor: usize) -> Option<Checkpoint> {
        self.inner.lock().unwrap().latest.get(&(process.to_string(), processor)).cloned()
    }

    /// Number of `(process, processor)` slots with a checkpoint.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().latest.len()
    }

    /// Whether no checkpoint has been taken.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().unwrap().latest.is_empty()
    }
}

impl std::fmt::Debug for CheckpointStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock().unwrap();
        f.debug_struct("CheckpointStore")
            .field("slots", &inner.latest.len())
            .field("dir", &inner.dir)
            .finish()
    }
}

/// Process names may carry partition suffixes like `rtec[3]`; keep filenames
/// portable by replacing everything outside `[A-Za-z0-9._-]` with `_`.
fn sanitize(name: &str) -> String {
    name.chars()
        .map(|c| if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') { c } else { '_' })
        .collect()
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
        assert_eq!(back.get_bool("armed"), Some(true));
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
    fn memory_store_keeps_latest_per_slot() {
        let store = CheckpointStore::in_memory();
        assert!(store.is_empty());
        store.put("p", 0, Checkpoint { position: 10, blob: blob(1) }).unwrap();
        store.put("p", 0, Checkpoint { position: 20, blob: blob(2) }).unwrap();
        store.put("p", 1, Checkpoint { position: 20, blob: blob(3) }).unwrap();
        assert_eq!(store.len(), 2);
        let cp = store.latest("p", 0).unwrap();
        assert_eq!(cp.position, 20);
        assert_eq!(cp.blob.get_i64("count"), Some(2));
        assert!(store.latest("q", 0).is_none());
    }

    #[test]
    fn file_store_persists_and_reloads() {
        let dir = std::env::temp_dir().join(format!("ckpt-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::file_backed(&dir).unwrap();
        store.put("rtec[0]", 0, Checkpoint { position: 42, blob: blob(9) }).unwrap();
        store.put("rtec[0]", 0, Checkpoint { position: 50, blob: blob(10) }).unwrap();
        drop(store);
        let reloaded = CheckpointStore::file_backed(&dir).unwrap();
        let cp = reloaded.latest("rtec[0]", 0).unwrap();
        assert_eq!(cp.position, 50, "only the latest survives");
        assert_eq!(cp.blob.get_i64("count"), Some(10));
        assert!(cp.blob.get("!position").is_none(), "metadata keys are stripped");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_temp_file_is_ignored_and_truncated_checkpoint_is_named() {
        let dir = std::env::temp_dir().join(format!("ckpt-torn-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = CheckpointStore::file_backed(&dir).unwrap();
        store.put("rtec[1]", 0, Checkpoint { position: 7, blob: blob(3) }).unwrap();
        drop(store);
        let good = dir.join("rtec_1_.0.ckpt.json");
        let text = std::fs::read_to_string(&good).unwrap();
        // A crash in the middle of the next write leaves a torn temp file
        // beside the good checkpoint.
        std::fs::write(dir.join("rtec_1_.0.ckpt.tmp"), &text[..text.len() / 2]).unwrap();
        let reloaded = CheckpointStore::file_backed(&dir).unwrap();
        assert_eq!(reloaded.latest("rtec[1]", 0).unwrap().position, 7, "the temp file is ignored");
        // A truncated checkpoint itself is refused, and the error names it.
        std::fs::write(&good, &text[..text.len() / 2]).unwrap();
        let err = CheckpointStore::file_backed(&dir).unwrap_err().to_string();
        assert!(err.contains("rtec_1_.0.ckpt.json"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn clones_share_the_store() {
        let a = CheckpointStore::in_memory();
        let b = a.clone();
        b.put("p", 0, Checkpoint { position: 1, blob: blob(1) }).unwrap();
        assert_eq!(a.len(), 1);
    }
}
