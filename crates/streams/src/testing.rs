//! Test support: what tests outside this crate use to look inside a run.
//! No pipeline calls these.

use crate::checkpoint::CheckpointStore;
use crate::item::{DataItem, DEEP_COPIES};
use crate::sink::JsonLinesSink;
use crate::topology::Topology;
use std::io::Write;
use std::sync::atomic::Ordering;

/// The checkpoint store `topology`'s workers will write their barriers to;
/// keep it to inspect the checkpoints after the run.
pub fn checkpoints(topology: &Topology) -> CheckpointStore {
    topology.checkpoints.clone()
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
