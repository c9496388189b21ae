//! Test support: what tests outside this crate use to build a run from
//! closures and to look inside it. No pipeline calls these.

use crate::checkpoint::Slot;
use crate::error::StreamsError;
use crate::item::{DataItem, DEEP_COPIES};
use crate::processor::{Context, Processor};
use crate::sink::JsonLinesSink;
use crate::topology::Topology;
use std::collections::HashMap;
use std::io::Write;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Mutex};

/// One checkpoint barrier, as [`watch_barriers`] saw it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Barrier {
    /// The worker (a replica's own name in a replicated process).
    pub process: String,
    /// Items the worker had consumed at the barrier.
    pub position: u64,
    /// Items the replay log held when the barrier truncated it.
    pub replay_log: usize,
    /// One entry per checkpointable chain slot.
    pub slots: Vec<SlotBytes>,
}

/// What one chain slot's checkpoint held right after a barrier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotBytes {
    /// The slot's index in the chain.
    pub slot: usize,
    /// Bytes of the base, the full snapshot the chain starts from.
    pub base: usize,
    /// Bytes of the deltas written since (0 right after a rebase).
    pub deltas: usize,
    /// Bytes of a full snapshot taken at the barrier.
    pub full: usize,
}

/// The barriers of the processes [`watch_barriers`] armed, and the full
/// snapshot each chain slot had at its worker's last one. Clones share it.
#[derive(Debug, Clone, Default)]
pub struct BarrierWatch {
    seen: Arc<Mutex<Seen>>,
}

/// The barriers, and the last full snapshot per `(worker, chain slot)`.
type Seen = (Vec<Barrier>, HashMap<(String, usize), Vec<u8>>);

impl BarrierWatch {
    /// Every barrier so far, in the order the workers took them.
    pub fn barriers(&self) -> Vec<Barrier> {
        self.seen.lock().expect("watch lock").0.clone()
    }

    /// A full snapshot of chain slot `slot` of worker `process`, taken at
    /// the worker's last barrier.
    pub fn last_snapshot(&self, process: &str, slot: usize) -> Option<Vec<u8>> {
        self.seen.lock().expect("watch lock").1.get(&(process.to_string(), slot)).cloned()
    }

    /// Called by a watched worker at the end of each barrier, before it
    /// truncates the replay log. The extra full snapshot starts each
    /// processor's delta cursor where the barrier already left it.
    pub(crate) fn record(
        &self,
        process: &str,
        (position, replay_log): (u64, usize),
        chain: &mut [Box<dyn Processor>],
        slots: &[Slot],
    ) {
        let mut barrier =
            Barrier { process: process.to_string(), position, replay_log, slots: Vec::new() };
        let mut seen = self.seen.lock().expect("watch lock");
        for (i, (p, slot)) in chain.iter_mut().zip(slots).enumerate() {
            if let Some(c) = p.as_checkpointable() {
                let mut full = Vec::new();
                c.snapshot(&mut full);
                let (base, deltas) = slot.bytes();
                barrier.slots.push(SlotBytes { slot: i, base, deltas, full: full.len() });
                seen.1.insert((process.to_string(), i), full);
            }
        }
        seen.0.push(barrier);
    }
}

/// Records every checkpoint barrier the workers of process `name` take —
/// each replica's, for a replicated process. Panics if the topology has no
/// such process.
pub fn watch_barriers(topology: &mut Topology, name: &str) -> BarrierWatch {
    let watch = BarrierWatch::default();
    let def = topology.processes.iter_mut().find(|p| p.name == name);
    def.unwrap_or_else(|| panic!("no process `{name}`")).watch = Some(watch.clone());
    watch
}

/// Process-wide number of attribute-map deep copies performed so far: every
/// mutation of a *non-empty* item whose map is shared with another live
/// clone counts once. Monotone over the process lifetime — measure a window
/// of work as the difference of two readings. Exclusive-item mutations,
/// empty-map detaches and `clone()` itself never count.
pub fn deep_copies() -> u64 {
    DEEP_COPIES.load(Ordering::Relaxed)
}

/// Whether `item`'s attributes fit the inline storage (no spill vector);
/// typical SDEs are inline.
pub fn is_inline(item: &DataItem) -> bool {
    item.attrs.is_inline()
}

/// The writer a [`JsonLinesSink`] wrote to (an in-memory buffer, say).
pub fn into_writer<W: Write + Send>(sink: JsonLinesSink<W>) -> W {
    sink.writer
}

/// Adapts a closure into a [`Processor`].
pub struct FnProcessor<F>(F);

impl<F> FnProcessor<F>
where
    F: FnMut(DataItem, &mut Context) -> Result<Option<DataItem>, StreamsError> + Send,
{
    /// Wraps the closure.
    pub fn new(f: F) -> FnProcessor<F> {
        FnProcessor(f)
    }
}

impl<F> Processor for FnProcessor<F>
where
    F: FnMut(DataItem, &mut Context) -> Result<Option<DataItem>, StreamsError> + Send,
{
    fn process(
        &mut self,
        item: DataItem,
        ctx: &mut Context,
    ) -> Result<Option<DataItem>, StreamsError> {
        (self.0)(item, ctx)
    }
}
