//! Checkpoint/restore: processor state for crash recovery.
//!
//! The paper's pipeline is meant to run continuously over city-scale SDE
//! streams, so a processor restart must not lose the RTEC window caches or
//! the crowd EM estimates. The pieces:
//!
//! * [`Checkpointable`] — implemented by stateful processors: write the
//!   semantic state into bytes at a barrier, as a full snapshot or as a
//!   delta against the previous barrier, and rebuild it from a snapshot and
//!   the deltas written after it;
//! * [`FieldWriter`] and [`Fields`] — the flat encoding processors write:
//!   one length-prefixed section per named field;
//! * `Slot` — a chain slot's checkpoint, owned by its worker: a base (the
//!   last full snapshot) and the chain of deltas written since.
//!
//! The runtime takes a checkpoint *barrier* every
//! [`checkpoint_every`](crate::topology::ProcessBuilder::checkpoint_every)
//! consumed items and keeps the items consumed since the last barrier in a
//! replay log. At a barrier each checkpointable slot appends a delta to its
//! chain, or writes a full snapshot when it has none to continue. The rule
//! that bounds a slot is fixed: once the chain's bytes would pass the
//! base's, the slot rebases — one full snapshot replaces base and chain (a
//! delta that turns out to pass is dropped) — so a slot never holds more
//! than twice its base, and a barrier between rebases costs what changed
//! since the previous one.
//!
//! On a [`FaultPolicy::Restart`](crate::fault::FaultPolicy::Restart) fault
//! the supervisor rebuilds the chain from its factories, restores each slot
//! from its base and deltas, silently replays the logged items (their
//! outputs were already emitted before the fault, and processors are
//! deterministic, so the regenerated outputs are discarded) and resumes with
//! the faulted item.

use crate::error::StreamsError;

/// A processor whose semantic state can be checkpointed and rebuilt.
///
/// The methods take `&mut self` so a wrapper can delegate to an inner
/// processor through
/// [`Processor::as_checkpointable`](crate::processor::Processor::as_checkpointable),
/// which needs `&mut`. Checkpointing must never change observable
/// behaviour.
///
/// The contract: `restore` of what the barriers wrote, on a *freshly
/// constructed* processor (same factory, same configuration), must yield a
/// processor whose future outputs are identical to the original's — the
/// recovery-equivalence the conformance suite checks end to end.
pub trait Checkpointable {
    /// Appends a standalone snapshot of the semantic state to `out`. Taken
    /// at a barrier, it also starts the processor's delta cursor there.
    fn snapshot(&mut self, out: &mut Vec<u8>);

    /// Appends what changed since the previous barrier's snapshot or delta
    /// to `out` and returns `true`, or returns `false` having written
    /// nothing — the barrier then takes a [`Checkpointable::snapshot`]. The
    /// default keeps no cursor: every barrier is a full snapshot.
    fn delta(&mut self, _out: &mut Vec<u8>) -> bool {
        false
    }

    /// Rebuilds the state from a snapshot and the deltas written after it,
    /// oldest first (`deltas` is empty for a processor that never writes
    /// one). Called on a freshly constructed instance; must fail, not panic,
    /// on corrupt or incompatible bytes, and leaves the delta cursor at the
    /// last part.
    fn restore(&mut self, snapshot: &[u8], deltas: &[&[u8]]) -> Result<(), StreamsError>;
}

/// Writes a processor's state as named fields: per field a one-byte name
/// length, the name, a four-byte little-endian value length and the value.
pub struct FieldWriter<'a> {
    out: &'a mut Vec<u8>,
}

impl<'a> FieldWriter<'a> {
    /// Appends fields to `out`.
    pub fn new(out: &'a mut Vec<u8>) -> FieldWriter<'a> {
        FieldWriter { out }
    }

    /// A field whose value `write` appends to the buffer it is handed.
    pub fn with<R>(&mut self, name: &str, write: impl FnOnce(&mut Vec<u8>) -> R) -> R {
        let len = u8::try_from(name.len()).expect("field names are short");
        self.out.push(len);
        self.out.extend_from_slice(name.as_bytes());
        let at = self.out.len();
        self.out.extend_from_slice(&[0; 4]);
        let r = write(self.out);
        let n = u32::try_from(self.out.len() - at - 4).expect("a field fits 4 GiB");
        self.out[at..at + 4].copy_from_slice(&n.to_le_bytes());
        r
    }

    /// A byte-string field.
    pub fn bytes(&mut self, name: &str, value: &[u8]) {
        self.with(name, |out| out.extend_from_slice(value));
    }

    /// A text field.
    pub fn str(&mut self, name: &str, value: &str) {
        self.bytes(name, value.as_bytes());
    }

    /// An integer field (eight bytes, little-endian).
    pub fn i64(&mut self, name: &str, value: i64) {
        self.bytes(name, &value.to_le_bytes());
    }
}

/// The fields [`FieldWriter`] wrote, borrowed from the checkpoint bytes.
#[derive(Debug)]
pub struct Fields<'a> {
    fields: Vec<(&'a str, &'a [u8])>,
}

impl<'a> Fields<'a> {
    /// Splits `bytes` into fields; refuses truncated bytes and a name that
    /// repeats.
    pub fn parse(bytes: &'a [u8]) -> Result<Fields<'a>, StreamsError> {
        let mut fields: Vec<(&str, &[u8])> = Vec::new();
        let mut rest = bytes;
        while let Some((&len, tail)) = rest.split_first() {
            let (name, tail) = split(tail, usize::from(len))?;
            let name =
                std::str::from_utf8(name).map_err(|_| corrupt("a field name is not UTF-8"))?;
            let (len, tail) = split(tail, 4)?;
            let len = u32::from_le_bytes(len.try_into().expect("4 bytes"));
            let (value, tail) = split(tail, len as usize)?;
            if fields.iter().any(|(n, _)| *n == name) {
                return Err(corrupt(&format!("field `{name}` repeats")));
            }
            fields.push((name, value));
            rest = tail;
        }
        Ok(Fields { fields })
    }

    /// A field's value, if present.
    pub fn get(&self, name: &str) -> Option<&'a [u8]> {
        self.fields.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }

    /// A field's value, or a "field missing" restore error naming it.
    pub fn bytes(&self, name: &str) -> Result<&'a [u8], StreamsError> {
        self.get(name).ok_or_else(|| corrupt(&format!("missing field `{name}`")))
    }

    /// A text field.
    pub fn str(&self, name: &str) -> Result<&'a str, StreamsError> {
        std::str::from_utf8(self.bytes(name)?)
            .map_err(|_| corrupt(&format!("field `{name}` is not UTF-8")))
    }

    /// An integer field.
    pub fn i64(&self, name: &str) -> Result<i64, StreamsError> {
        let bytes = self.bytes(name)?;
        let bytes = bytes.try_into().map_err(|_| corrupt(&format!("field `{name}` is no i64")))?;
        Ok(i64::from_le_bytes(bytes))
    }

    /// Field names in the order they were written.
    pub fn names(&self) -> impl Iterator<Item = &'a str> + '_ {
        self.fields.iter().map(|&(n, _)| n)
    }
}

fn split(bytes: &[u8], n: usize) -> Result<(&[u8], &[u8]), StreamsError> {
    if n > bytes.len() {
        return Err(corrupt("truncated field"));
    }
    Ok(bytes.split_at(n))
}

/// A restore error: "corrupt checkpoint: {detail}".
pub fn corrupt(detail: &str) -> StreamsError {
    StreamsError::Io { detail: format!("corrupt checkpoint: {detail}") }
}

/// One chain slot's checkpoint, owned by its worker: the last full
/// snapshot and the deltas written since, concatenated.
#[derive(Debug, Default)]
pub(crate) struct Slot {
    base: Vec<u8>,
    chain: Vec<u8>,
    /// End offset of each delta in `chain`.
    ends: Vec<usize>,
}

impl Slot {
    /// Takes a barrier: appends `c`'s delta, or — with no base yet, no delta
    /// from `c`, or a chain that would pass the base — writes a full
    /// snapshot in place of base and chain. Whether the chain would pass is
    /// first judged by the previous delta's size, so that a delta is rarely
    /// written only to be dropped. The buffers keep their capacity from
    /// barrier to barrier.
    pub(crate) fn barrier(&mut self, c: &mut dyn Checkpointable) {
        let last = self.ends.len().checked_sub(2).map_or(0, |i| self.ends[i]);
        let last = self.chain.len() - last;
        if !self.base.is_empty() && self.chain.len() + last <= self.base.len() {
            let at = self.chain.len();
            if c.delta(&mut self.chain) && self.chain.len() <= self.base.len() {
                self.ends.push(self.chain.len());
                return;
            }
            self.chain.truncate(at);
        }
        self.base.clear();
        self.chain.clear();
        self.ends.clear();
        c.snapshot(&mut self.base);
    }

    /// Restores `c` from the base and its deltas; before the first barrier
    /// there is nothing to restore and `c` stays as its factory built it.
    pub(crate) fn restore(&self, c: &mut dyn Checkpointable) -> Result<(), StreamsError> {
        if self.base.is_empty() {
            return Ok(());
        }
        let mut deltas = Vec::with_capacity(self.ends.len());
        let mut at = 0;
        for &end in &self.ends {
            deltas.push(&self.chain[at..end]);
            at = end;
        }
        c.restore(&self.base, &deltas)
    }

    /// Bytes held: the base's and the deltas'.
    pub(crate) fn bytes(&self) -> (usize, usize) {
        (self.base.len(), self.chain.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_round_trip_and_refuse_damage() {
        let mut out = Vec::new();
        let mut w = FieldWriter::new(&mut out);
        w.i64("count", -7);
        w.str("name", "rtec");
        w.with("nested", |out| FieldWriter::new(out).i64("inner", 3));
        let fields = Fields::parse(&out).unwrap();
        assert_eq!(fields.i64("count").unwrap(), -7);
        assert_eq!(fields.str("name").unwrap(), "rtec");
        assert_eq!(
            Fields::parse(fields.bytes("nested").unwrap()).unwrap().i64("inner").unwrap(),
            3
        );
        assert_eq!(fields.names().collect::<Vec<_>>(), ["count", "name", "nested"]);
        let err = fields.i64("ghost").unwrap_err().to_string();
        assert!(err.contains("ghost"), "{err}");
        assert!(fields.i64("name").is_err(), "four bytes are no i64");
        for cut in 0..out.len() {
            let damaged = Fields::parse(&out[..cut]);
            assert!(damaged.is_err() || cut == 0 || damaged.unwrap().get("nested").is_none());
        }
        let twice = [out.as_slice(), out.as_slice()].concat();
        assert!(Fields::parse(&twice).is_err(), "a repeated name is refused");
    }

    /// Counts up; its delta is the count's increase, its snapshot the count.
    struct Counter {
        n: i64,
        at_barrier: Option<i64>,
        delta_bytes: usize,
    }

    impl Checkpointable for Counter {
        fn snapshot(&mut self, out: &mut Vec<u8>) {
            // Padded, so the chain passes the base after a few deltas.
            FieldWriter::new(out).bytes("pad", &[0; 40]);
            FieldWriter::new(out).i64("n", self.n);
            self.at_barrier = Some(self.n);
        }

        fn delta(&mut self, out: &mut Vec<u8>) -> bool {
            let Some(at) = self.at_barrier else { return false };
            FieldWriter::new(out).bytes("d", &vec![0; self.delta_bytes]);
            FieldWriter::new(out).i64("add", self.n - at);
            self.at_barrier = Some(self.n);
            true
        }

        fn restore(&mut self, snapshot: &[u8], deltas: &[&[u8]]) -> Result<(), StreamsError> {
            self.n = Fields::parse(snapshot)?.i64("n")?;
            for d in deltas {
                self.n += Fields::parse(d)?.i64("add")?;
            }
            self.at_barrier = Some(self.n);
            Ok(())
        }
    }

    #[test]
    fn slot_chains_deltas_and_rebases_when_the_chain_passes_the_base() {
        let mut c = Counter { n: 0, at_barrier: None, delta_bytes: 0 };
        let mut slot = Slot::default();
        assert!(slot.base.is_empty());
        let mut rebases = 0;
        for step in 1..=20 {
            c.n += step;
            let had = slot.ends.len();
            slot.barrier(&mut c);
            rebases += usize::from(slot.ends.is_empty() && had > 0);
            assert!(slot.chain.len() <= slot.base.len(), "step {step}");
            let mut fresh = Counter { n: -1, at_barrier: None, delta_bytes: 0 };
            slot.restore(&mut fresh).unwrap();
            assert_eq!(fresh.n, c.n, "step {step}");
        }
        assert!(rebases >= 2, "{rebases} rebases");
        // A processor without a cursor writes a full snapshot every time.
        c.at_barrier = None;
        slot.barrier(&mut c);
        assert!(slot.ends.is_empty());
        // A delta bigger than the base is dropped for a snapshot.
        c.delta_bytes = 500;
        slot.barrier(&mut c);
        assert!(slot.ends.is_empty() && slot.bytes() == (slot.base.len(), 0));
    }
}
