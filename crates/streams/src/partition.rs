//! Keyed shard parallelism: partition / replicate / merge.
//!
//! A process declared with [`replicas(n)`](crate::topology::ProcessBuilder::replicas)
//! and [`partition_by`](crate::topology::ProcessBuilder::partition_by) is
//! expanded — transparently, inside the runtimes — into an ordinary sub-graph
//! of `n + 2` processes:
//!
//! ```text
//!            ┌─ P[shard:0] ─ P[0] ─┐
//! input ─ P[part] ─ P[shard:1] ─ P[1] ─┼─ P[merge:q] ─ P[merge] ─ outputs
//!            └─ P[shard:2] ─ P[2] ─┘
//! ```
//!
//! * **`P[part]`** ([`PartitionStamp`]) stamps every item with a monotone
//!   sequence number, and the runtime routes it to the queue of the shard its
//!   partition-key values select (a stable hash, or the declared hints).
//! * **`P[0]`‥`P[n-1]`** ([`ReplicaShell`]) each own a private clone of the
//!   processor chain. The shell hides the partition bookkeeping from the user
//!   chain and re-stamps whatever the chain emits: the `k` outputs of the
//!   input with sequence number `s` leave as `(s, 0)`‥`(s, k-1)`
//!   ([`SEQ_ATTR`], [`SUB_ATTR`]).
//! * **`P[merge]`** ([`MergeProcessor`]) restores the *exact* input order: it
//!   buffers per shard and releases the globally smallest `(seq, sub)` pair
//!   once every shard is known to be past its sequence number.
//!
//! ## Determinism
//!
//! The merge emits data items in strictly increasing `(seq, sub)` order,
//! which *is* the partitioner's input order with each input's outputs in the
//! order its chain produced them — independent of thread scheduling and of
//! the shard count. A replicated stage with a stateless chain is therefore
//! byte-identical to the unreplicated stage for any `n`, whether the chain
//! emits zero, one or several items per input. Items a chain emits from
//! `finish` carry no sequence number; the merge appends them after all
//! sequenced data, grouped by shard index (each shard's trailing items keep
//! their FIFO order), so they too are schedule-independent — but their
//! grouping depends on the shard count, which is why stages with stateful
//! end-of-stream output should be compared in canonical (sorted) form across
//! shard counts.
//!
//! ## Punctuation
//!
//! A shard's *frontier* is the smallest sequence number it might still
//! emit. Data raises it: queues are FIFO and a replica finishes one input
//! before it starts the next, so `(s, j + 1)` reaches the merge before
//! anything of that shard with a larger sequence number, and an item
//! `(s, j)` proves its shard is past every sequence number below `s` (each
//! sequence number is routed to exactly one shard, so no other shard's item
//! ties with it). But sequence numbers of items *filtered* inside a replica
//! never reach the merge, and a shard that receives nothing says nothing.
//! So the partitioner also sends **punctuation**: a watermark item
//! `{__wm: w, __shard: i}` to every shard `i`, stating that every sequence
//! number below `w` has been routed. Each replica forwards it behind
//! whatever preceded it in its FIFO, and the merge raises that shard's
//! frontier to `w`. A replica that finishes cleanly sends a final **fin**
//! marker releasing its shard entirely. Punctuation carries a monotone lower
//! bound and never data, so *when* it is sent can delay a release but cannot
//! change what is released or in which order.
//!
//! The partitioner punctuates on two occasions:
//!
//! * **Quiescence.** When its input has nothing for it and everything it
//!   produced has been handed on — the moment a worker is about to wait for
//!   input — and it has routed anything since its last watermark, it
//!   broadcasts one (`Worker::on_idle` in the runtime). An item the merge
//!   buffers is then released as soon as the stage has nothing older in
//!   flight, not when the next input happens to push a watermark out.
//!   Quiescence is the input's own answer to a non-blocking ask — an empty
//!   queue, or [`Polled::Pending`](crate::source::Polled) from a source the
//!   stage pulls directly; no clock is involved, so the deterministic replay
//!   scheduler reproduces it. The one input that cannot give that answer is
//!   a source that waits inside its default
//!   [`poll_batch`](crate::source::Source::poll_batch): while it waits the
//!   worker is inside the call and the flood bound below is all the merge
//!   has. Override `poll_batch`, or put a feed process and a queue in front.
//! * **Under flood**, where the input edge never runs dry, after every
//!   [`WM_EVERY`]` × shards` routed items. This bounds how much the merge
//!   buffers. The cadence scales with the shard count so the *merge-side*
//!   watermark traffic (one forwarded watermark per shard per broadcast)
//!   stays a constant fraction of the data traffic — a fixed cadence floods
//!   the merge at small shard counts, which is exactly the non-monotonic
//!   scaling bug this bounds.
//!
//! The merge itself never blocks — it always drains its input and buffers
//! internally — so the expanded sub-graph is acyclic and deadlock-free even
//! when watermarks or fin markers are lost to a faulted replica: queue
//! end-of-stream still reaches the merge, whose `finish` drains every buffer
//! in `(seq, sub)` order.
//!
//! ## Reserved attributes
//!
//! The bookkeeping travels *in* the items, in attributes prefixed `__`
//! ([`SEQ_ATTR`], [`SUB_ATTR`], [`SHARD_ATTR`], [`WM_ATTR`], [`FIN_ATTR`],
//! [`FIN_ITEM_ATTR`]). The `__` prefix is reserved: user chains inside a
//! replicated stage never see these attributes (the shell strips them on the
//! way in and re-attaches them on the way out), but items *dead-lettered* by
//! a replica carry them, which is deliberate — the record shows where the
//! item was in the partition protocol.

use crate::checkpoint::{Checkpointable, StateBlob};
use crate::error::StreamsError;
use crate::fault::FaultPolicy;
use crate::item::DataItem;
use crate::metrics::StageMetrics;
use crate::processor::{drive_chain, Context, Processor};
use crate::topology::{
    Input, Output, ProcessDef, SharedProcessorFactory, Topology, DEFAULT_QUEUE_CAPACITY,
};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Monotone per-partitioner sequence number (`i64`).
pub const SEQ_ATTR: &str = "__seq";
/// Position of an item among the outputs its replica chain produced for one
/// input (`i64`); absent on the first, so a chain that maps one item to one
/// item pays nothing for it.
pub const SUB_ATTR: &str = "__sub";
/// Shard index the item was routed to / emitted by (`i64`).
pub const SHARD_ATTR: &str = "__shard";
/// Low watermark: all sequence numbers `< value` are settled (`i64`).
pub const WM_ATTR: &str = "__wm";
/// End-of-shard marker sent by a replica that finished cleanly (`bool`).
pub const FIN_ATTR: &str = "__fin";
/// Marks an item emitted by a replica chain's `finish` (no sequence number).
pub const FIN_ITEM_ATTR: &str = "__fin_item";

/// Base watermark cadence under flood: a partitioner whose input never runs
/// dry broadcasts a watermark to every shard after `WM_EVERY × shards` routed
/// items, bounding how much the merge buffers past sequence numbers whose
/// items were filtered inside a replica. Scaling by the shard count keeps
/// the merge's watermark traffic (`shards` forwarded copies per broadcast)
/// at a constant ≈ `1/WM_EVERY` of its data traffic for every shard count.
pub const WM_EVERY: usize = 32;

/// Whether `item` is punctuation of the partition protocol — a watermark or
/// an end-of-shard marker — rather than data. Stage metrics count the two
/// apart (see [`StageMetrics`]).
pub fn is_punctuation(item: &DataItem) -> bool {
    item.len() <= 2 && (item.contains(WM_ATTR) || item.contains(FIN_ATTR))
}

/// The watermark `{__wm: wm, __shard: shard}`. It is built per shard,
/// already attributed, so replicas forward it untouched: a shared item each
/// replica stamped would cost an attribute-map copy per hop.
fn watermark(wm: i64, shard: usize) -> DataItem {
    DataItem::new().with(WM_ATTR, wm).with(SHARD_ATTR, shard as i64)
}

/// Stable shard assignment: FNV-1a over the rendered partition-key values.
///
/// Missing keys hash as a distinct sentinel, so items without the key still
/// land deterministically on one shard. The hash depends only on the item's
/// key values — never on the replica count in any way other than the final
/// modulo — so `same key ⇒ same shard` holds for every `shards` value.
pub fn shard_for(item: &DataItem, keys: &[String], shards: usize) -> usize {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn feed(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(PRIME);
        }
        h
    }
    let mut h = OFFSET;
    // Feed the same bytes `Value`'s Display renders, but without building a
    // String per key — this runs once per item on the partitioned hot path.
    // String keys (the common case) hash without any allocation; numeric
    // keys share one reused buffer.
    let mut numbuf = String::new();
    for key in keys {
        match item.get(key) {
            Some(crate::item::Value::Str(s)) => h = feed(h, s.as_bytes()),
            Some(crate::item::Value::Null) => h = feed(h, b"null"),
            Some(crate::item::Value::Bool(b)) => h = feed(h, if *b { b"true" } else { b"false" }),
            Some(v) => {
                numbuf.clear();
                use std::fmt::Write as _;
                write!(numbuf, "{v}").expect("formatting a number into a String cannot fail");
                h = feed(h, numbuf.as_bytes());
            }
            None => h = feed(h, b"\x00<missing>"),
        }
        h = feed(h, &[0x1f]);
    }
    (h % shards.max(1) as u64) as usize
}

/// [`shard_for`] with declared key values: a single string key whose value
/// is listed in `hints` routes to `position % shards` — a round-robin over
/// the enumerated values, the only assignment that cannot collide the
/// heavy values of a low-cardinality key onto one replica (see
/// [`crate::topology::ProcessBuilder::partition_hints`]). Anything not
/// covered by the hints keeps the hash route. Both routes are pure
/// functions of the key value, so `same key ⇒ same shard` holds either
/// way.
pub fn shard_for_hinted(
    item: &DataItem,
    keys: &[String],
    hints: &[String],
    shards: usize,
) -> usize {
    if !hints.is_empty() {
        if let [key] = keys {
            if let Some(crate::item::Value::Str(s)) = item.get(key) {
                if let Some(pos) = hints.iter().position(|h| h.as_str() == s.as_str()) {
                    return pos % shards.max(1);
                }
            }
        }
    }
    shard_for(item, keys, shards)
}

/// The synthesized `P[part]` processor: stamps [`SEQ_ATTR`] on every item.
/// The runtime's shard dispatch computes the keyed route itself (see
/// [`Dispatch::Shard`]) and sends the watermark punctuation, so the
/// shard assignment never round-trips through the attribute map — the
/// [`SHARD_ATTR`] stamp appears only on replica *outputs*, where the merge
/// needs it for progress attribution.
pub(crate) struct PartitionStamp {
    next_seq: i64,
}

impl PartitionStamp {
    pub(crate) fn new() -> PartitionStamp {
        PartitionStamp { next_seq: 0 }
    }
}

impl Processor for PartitionStamp {
    fn process(
        &mut self,
        mut item: DataItem,
        _ctx: &mut Context,
    ) -> Result<Option<DataItem>, StreamsError> {
        item.set(SEQ_ATTR, self.next_seq);
        self.next_seq += 1;
        Ok(Some(item))
    }

    fn as_checkpointable(&mut self) -> Option<&mut dyn Checkpointable> {
        Some(self)
    }
}

impl Checkpointable for PartitionStamp {
    fn snapshot(&mut self) -> StateBlob {
        let mut blob = StateBlob::new();
        blob.set("next_seq", self.next_seq);
        blob
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), StreamsError> {
        self.next_seq = blob.require_i64("next_seq")?;
        Ok(())
    }
}

/// The synthesized `P[i]` processor: wraps one private clone of the user's
/// processor chain, hiding the partition bookkeeping from it.
///
/// One call walks the input through the whole inner chain — every output of
/// an inner processor traverses the processors after it — and hands on all
/// `k` survivors, stamped `(seq, 0)`‥`(seq, k-1)`.
///
/// Faults inside the inner chain surface as faults of the shell (processor
/// index 0 of `P[i]`), so the replica's fault policy governs the *whole*
/// chain invocation — Skip drops the input with everything it produced (its
/// sequence number is settled by the next watermark), Retry re-runs the
/// shell on the preserved input, DeadLetter records the item including its
/// `__` bookkeeping attributes.
pub(crate) struct ReplicaShell {
    inner: Vec<Box<dyn Processor>>,
    index: usize,
    /// Walk stack and survivor list of the current call (reused).
    work: Vec<(usize, DataItem)>,
    outs: Vec<DataItem>,
}

impl ReplicaShell {
    pub(crate) fn new(inner: Vec<Box<dyn Processor>>, index: usize) -> ReplicaShell {
        ReplicaShell { inner, index, work: Vec::new(), outs: Vec::new() }
    }

    /// Walks `item` through `inner[from..]`, collecting survivors in `outs`.
    fn walk(&mut self, from: usize, item: DataItem, ctx: &mut Context) -> Result<(), StreamsError> {
        let outs = &mut self.outs;
        drive_chain(
            &mut self.inner,
            from,
            item,
            ctx,
            &mut self.work,
            |p, item, ctx, _| p.process(item, ctx),
            |out| outs.push(out),
        )
    }
}

impl Processor for ReplicaShell {
    fn process(
        &mut self,
        mut item: DataItem,
        ctx: &mut Context,
    ) -> Result<Option<DataItem>, StreamsError> {
        // Watermarks arrive attributed to this shard and pass through
        // untouched, behind whatever this replica emitted before them.
        if item.contains(WM_ATTR) {
            return Ok(Some(item));
        }
        let seq = item.remove(SEQ_ATTR).and_then(|v| v.as_i64()).ok_or_else(|| {
            StreamsError::ServiceError {
                detail: "replica received an item without a sequence stamp".into(),
            }
        })?;
        item.remove(SHARD_ATTR);
        // A previous call that panicked mid-walk left its scratch behind.
        self.work.clear();
        self.outs.clear();
        self.walk(0, item, ctx)?;
        for (sub, mut out) in self.outs.drain(..).enumerate() {
            out.set(SEQ_ATTR, seq);
            if sub > 0 {
                out.set(SUB_ATTR, sub as i64);
            }
            out.set(SHARD_ATTR, self.index as i64);
            ctx.emit(out);
        }
        Ok(None)
    }

    fn finish(&mut self, ctx: &mut Context) -> Result<Vec<DataItem>, StreamsError> {
        // Inner finishes cascade like the runtime's own chain flush: trailing
        // items of inner processor i traverse inner processors i+1‥.
        self.work.clear();
        self.outs.clear();
        for i in 0..self.inner.len() {
            let returned = self.inner[i].finish(ctx)?;
            let trailing: Vec<DataItem> = ctx.take_emitted().chain(returned).collect();
            for item in trailing {
                self.walk(i + 1, item, ctx)?;
            }
        }
        let index = self.index as i64;
        let mut out: Vec<DataItem> = self
            .outs
            .drain(..)
            .map(|item| item.with(FIN_ITEM_ATTR, true).with(SHARD_ATTR, index))
            .collect();
        // The fin marker is last, after this shard's trailing items.
        out.push(DataItem::new().with(FIN_ATTR, true).with(SHARD_ATTR, index));
        Ok(out)
    }

    fn as_checkpointable(&mut self) -> Option<&mut dyn Checkpointable> {
        Some(self)
    }
}

impl Checkpointable for ReplicaShell {
    /// Delegates to the inner chain: each checkpointable slot `i` is stored
    /// string-encoded under `inner.{i}`. Slots without state contribute
    /// nothing and are left fresh on restore.
    fn snapshot(&mut self) -> StateBlob {
        let mut blob = StateBlob::new();
        for (i, p) in self.inner.iter_mut().enumerate() {
            if let Some(c) = p.as_checkpointable() {
                blob.set(&format!("inner.{i}"), c.snapshot().to_json());
            }
        }
        blob
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), StreamsError> {
        for (i, p) in self.inner.iter_mut().enumerate() {
            let Some(encoded) = blob.get_str(&format!("inner.{i}")) else { continue };
            let inner_blob = StateBlob::from_json(encoded)?;
            let c = p.as_checkpointable().ok_or_else(|| StreamsError::Io {
                detail: format!(
                    "corrupt checkpoint: inner slot {i} has state but is not checkpointable"
                ),
            })?;
            c.restore(&inner_blob)?;
        }
        Ok(())
    }
}

/// The synthesized `P[merge]` processor: demultiplexes per-shard streams back
/// into the partitioner's input order (see the module docs for the
/// determinism argument).
///
/// A shard's *frontier* is the smallest sequence number it might still emit
/// first: a data item with sequence `s` raises it to `s + 1` (what may still
/// follow from that shard is `(s, j + 1)`, which sorts after every other
/// shard's items below `s + 1` and before all above), a watermark `w` raises
/// it to `w`, a fin marker settles the shard entirely. The globally smallest
/// buffered `(seq, sub)` is released once every shard is fin or past its
/// sequence number, and everything releasable leaves in the call that made
/// it so.
pub(crate) struct MergeProcessor {
    buffers: Vec<BTreeMap<(i64, i64), DataItem>>,
    frontier: Vec<i64>,
    fin: Vec<bool>,
    trailing: Vec<Vec<DataItem>>,
    /// The owning stage's instruments (`None` until first used, and when the
    /// processor runs outside a runtime).
    stage: Option<Arc<StageMetrics>>,
}

impl MergeProcessor {
    pub(crate) fn new(shards: usize) -> MergeProcessor {
        MergeProcessor {
            buffers: (0..shards).map(|_| BTreeMap::new()).collect(),
            frontier: vec![0; shards],
            fin: vec![false; shards],
            trailing: (0..shards).map(|_| Vec::new()).collect(),
            stage: None,
        }
    }

    fn shard_of(&self, item: &DataItem) -> Result<usize, StreamsError> {
        let shard = item.get_i64(SHARD_ATTR).ok_or_else(|| StreamsError::ServiceError {
            detail: "merge received an item without a shard stamp".into(),
        })?;
        let shard = shard as usize;
        if shard >= self.buffers.len() {
            return Err(StreamsError::ServiceError {
                detail: format!("merge received shard {shard} of {}", self.buffers.len()),
            });
        }
        Ok(shard)
    }

    /// Emits every releasable buffered item, in global `(seq, sub)` order.
    fn release(&mut self, ctx: &mut Context) {
        while let Some((shard, key)) = self
            .buffers
            .iter()
            .enumerate()
            .filter_map(|(j, b)| b.keys().next().map(|&k| (j, k)))
            .min_by_key(|&(_, k)| k)
        {
            let releasable = self
                .fin
                .iter()
                .zip(&self.frontier)
                .all(|(&fin, &frontier)| fin || frontier > key.0);
            if !releasable {
                break;
            }
            ctx.emit(self.buffers[shard].remove(&key).expect("first key exists"));
        }
        if self.stage.is_none() {
            self.stage = ctx.stage_metrics();
        }
        if let Some(stage) = &self.stage {
            let held: usize = self.buffers.iter().map(BTreeMap::len).sum();
            stage.held.set(held as i64);
        }
    }
}

impl Processor for MergeProcessor {
    fn process(
        &mut self,
        mut item: DataItem,
        ctx: &mut Context,
    ) -> Result<Option<DataItem>, StreamsError> {
        let shard = self.shard_of(&item)?;
        if let Some(wm) = item.get_i64(WM_ATTR) {
            self.frontier[shard] = self.frontier[shard].max(wm);
        } else if item.contains(FIN_ATTR) {
            self.fin[shard] = true;
        } else if item.contains(FIN_ITEM_ATTR) {
            item.remove(FIN_ITEM_ATTR);
            item.remove(SHARD_ATTR);
            self.trailing[shard].push(item);
        } else {
            let seq = item.remove(SEQ_ATTR).and_then(|v| v.as_i64()).ok_or_else(|| {
                StreamsError::ServiceError {
                    detail: "merge received a data item without a sequence stamp".into(),
                }
            })?;
            let sub = item.remove(SUB_ATTR).and_then(|v| v.as_i64()).unwrap_or(0);
            item.remove(SHARD_ATTR);
            match self.buffers[shard].entry((seq, sub)) {
                Entry::Vacant(slot) => slot.insert(item),
                Entry::Occupied(_) => {
                    return Err(StreamsError::ServiceError {
                        detail: format!(
                            "merge received sequence stamp ({seq}, {sub}) twice from shard {shard}"
                        ),
                    })
                }
            };
            self.frontier[shard] = self.frontier[shard].max(seq + 1);
        }
        self.release(ctx);
        Ok(None)
    }

    fn finish(&mut self, _ctx: &mut Context) -> Result<Vec<DataItem>, StreamsError> {
        // All upstream replicas have finished (their queues ended), so every
        // remaining buffered item is final: drain in global order, then the
        // per-shard trailing items.
        let mut remaining: BTreeMap<(i64, i64), DataItem> = BTreeMap::new();
        for buffer in &mut self.buffers {
            remaining.append(buffer);
        }
        if let Some(stage) = &self.stage {
            stage.held.set(0);
        }
        let mut out: Vec<DataItem> = remaining.into_values().collect();
        for trailing in &mut self.trailing {
            out.append(trailing);
        }
        Ok(out)
    }

    fn as_checkpointable(&mut self) -> Option<&mut dyn Checkpointable> {
        Some(self)
    }
}

/// Newline-joins item JSONs (JSON strings escape embedded newlines, so the
/// join is unambiguous).
fn encode_items<'a, I: IntoIterator<Item = &'a DataItem>>(items: I) -> String {
    items.into_iter().map(DataItem::to_json).collect::<Vec<_>>().join("\n")
}

fn decode_items(encoded: &str) -> Result<Vec<DataItem>, StreamsError> {
    encoded.lines().map(DataItem::from_json).collect()
}

impl Checkpointable for MergeProcessor {
    /// Per shard `j`: release frontier (`frontier.{j}`), fin flag (`fin.{j}`),
    /// the buffered out-of-order items (`buf.{j}`, lines of `seq\tsub\tjson`)
    /// and the trailing finish items (`trail.{j}`). Nothing else: whatever a
    /// call releases leaves with that call, so between calls the merge holds
    /// only what is still behind a frontier. Restoring reproduces the exact
    /// release state, so a recovered merge continues the same global order.
    fn snapshot(&mut self) -> StateBlob {
        let mut blob = StateBlob::new();
        blob.set("shards", self.buffers.len() as i64);
        for j in 0..self.buffers.len() {
            blob.set(&format!("frontier.{j}"), self.frontier[j]);
            blob.set(&format!("fin.{j}"), self.fin[j]);
            let buf = self.buffers[j]
                .iter()
                .map(|((seq, sub), item)| format!("{seq}\t{sub}\t{}", item.to_json()))
                .collect::<Vec<_>>()
                .join("\n");
            blob.set(&format!("buf.{j}"), buf);
            blob.set(&format!("trail.{j}"), encode_items(&self.trailing[j]));
        }
        blob
    }

    fn restore(&mut self, blob: &StateBlob) -> Result<(), StreamsError> {
        let shards = blob.require_i64("shards")? as usize;
        if shards != self.buffers.len() {
            return Err(StreamsError::Io {
                detail: format!(
                    "corrupt checkpoint: merge has {} shards, checkpoint has {shards}",
                    self.buffers.len()
                ),
            });
        }
        let bad_line = || StreamsError::Io {
            detail: "corrupt checkpoint: merge buffer line lacks its (seq, sub) stamp".into(),
        };
        for j in 0..shards {
            self.frontier[j] = blob.require_i64(&format!("frontier.{j}"))?;
            self.fin[j] = blob.get_bool(&format!("fin.{j}")).ok_or_else(|| StreamsError::Io {
                detail: format!("corrupt checkpoint: missing field `fin.{j}`"),
            })?;
            let mut buffer = BTreeMap::new();
            for line in blob.require_str(&format!("buf.{j}"))?.lines() {
                let mut fields = line.splitn(3, '\t');
                let mut stamp = || fields.next()?.parse::<i64>().ok();
                let key = (stamp().ok_or_else(bad_line)?, stamp().ok_or_else(bad_line)?);
                let json = fields.next().ok_or_else(bad_line)?;
                buffer.insert(key, DataItem::from_json(json)?);
            }
            self.buffers[j] = buffer;
            self.trailing[j] = decode_items(blob.require_str(&format!("trail.{j}"))?)?;
        }
        Ok(())
    }
}

/// Expands every process declared with `replicas(n > 1)` into the
/// partition / replicate / merge sub-graph described in the module docs.
/// Processes with `replicas(1)` (or none) are untouched — their behaviour is
/// bit-identical to a plain process. Called by the runtimes before
/// validation, so the expanded graph is what gets validated, scheduled and
/// measured.
pub(crate) fn expand_replicas(topology: &mut Topology) -> Result<(), StreamsError> {
    let processes = std::mem::take(&mut topology.processes);
    for mut p in processes {
        if p.replicas <= 1 {
            // Collapse the (single) replica chain into the direct chain.
            if let Some(chain) = p.replica_chains.pop() {
                assert!(
                    p.processors.is_empty(),
                    "process `{}` mixes processor() and processor_factory()",
                    p.name
                );
                p.processors = chain;
            }
            topology.processes.push(p);
            continue;
        }
        let n = p.replicas;
        if p.partition_keys.is_empty() {
            return Err(StreamsError::InvalidPartition {
                process: p.name,
                detail: format!("replicas({n}) requires partition_by(...)"),
            });
        }
        if !p.processors.is_empty() {
            return Err(StreamsError::InvalidPartition {
                process: p.name,
                detail: "replicated processors must be added via processor_factory(), \
                         not processor()"
                    .into(),
            });
        }
        let mut chains = std::mem::take(&mut p.replica_chains);
        if chains.is_empty() {
            chains = (0..n).map(|_| Vec::new()).collect();
        }
        assert_eq!(chains.len(), n, "one replica chain per replica");
        let slot_factories = std::mem::take(&mut p.factories);

        // The synthesized infrastructure stages inherit the stage's Restart
        // policy (they are part of the stage, and both are rebuildable from
        // their factories); under any other policy they keep the historical
        // fail-fast behaviour — a lost partitioner or merge cannot be skipped
        // without corrupting the sequence protocol.
        let infra_policy = |of: &FaultPolicy| match of {
            FaultPolicy::Restart { .. } => of.clone(),
            _ => FaultPolicy::FailFast,
        };

        // The synthesized queues size themselves off the stage's input edge:
        // the partitioner only routes, so it must not impose backpressure
        // tighter than the edge feeding it — with keyed (skewed) routing a
        // smaller shard queue fills while its replica is busy and parks the
        // partitioner even though upstream capacity remains.
        let inner_capacity = match &p.input {
            Input::Queue(q) => topology.queues.get(q).copied().unwrap_or(DEFAULT_QUEUE_CAPACITY),
            _ => DEFAULT_QUEUE_CAPACITY,
        }
        .max(DEFAULT_QUEUE_CAPACITY);
        let merge_queue = format!("{}[merge:q]", p.name);
        topology.queues.insert(merge_queue.clone(), inner_capacity);
        let shard_queues: Vec<String> = (0..n).map(|i| format!("{}[shard:{i}]", p.name)).collect();
        for q in &shard_queues {
            topology.queues.insert(q.clone(), inner_capacity);
        }

        // P[part]: stamp + shard-dispatch to the shard queues. The partition
        // keys ride on the def so the runtime's shard dispatch can compute
        // the keyed route directly.
        topology.processes.push(ProcessDef {
            name: format!("{}[part]", p.name),
            input: p.input.clone(),
            processors: vec![Box::new(PartitionStamp::new())],
            outputs: shard_queues.iter().cloned().map(Output::Queue).collect(),
            fault_policy: infra_policy(&p.fault_policy),
            batch_size: p.batch_size,
            replicas: 1,
            partition_keys: std::mem::take(&mut p.partition_keys),
            partition_hints: std::mem::take(&mut p.partition_hints),
            replica_chains: Vec::new(),
            shard_dispatch: true,
            factories: vec![Some(
                Arc::new(|| Box::new(PartitionStamp::new()) as Box<dyn Processor>)
                    as SharedProcessorFactory,
            )],
            checkpoint_every: p.checkpoint_every,
        });

        // P[i]: one shell per replica, each with its private chain clone and
        // its own copy of the user's fault policy. A shell is rebuildable
        // only when *every* inner slot came from a factory.
        let shell_factory = |i: usize| -> Option<SharedProcessorFactory> {
            let inner: Vec<SharedProcessorFactory> =
                slot_factories.iter().cloned().collect::<Option<_>>()?;
            Some(Arc::new(move || {
                Box::new(ReplicaShell::new(inner.iter().map(|make| make()).collect(), i))
                    as Box<dyn Processor>
            }))
        };
        for (i, chain) in chains.into_iter().enumerate() {
            topology.processes.push(ProcessDef {
                name: format!("{}[{i}]", p.name),
                input: Input::Queue(shard_queues[i].clone()),
                processors: vec![Box::new(ReplicaShell::new(chain, i))],
                outputs: vec![Output::Queue(merge_queue.clone())],
                fault_policy: p.fault_policy.clone(),
                batch_size: p.batch_size,
                replicas: 1,
                partition_keys: Vec::new(),
                partition_hints: Vec::new(),
                replica_chains: Vec::new(),
                shard_dispatch: false,
                factories: vec![shell_factory(i)],
                checkpoint_every: p.checkpoint_every,
            });
        }

        // P[merge]: restore order, then feed the original outputs.
        topology.processes.push(ProcessDef {
            name: format!("{}[merge]", p.name),
            input: Input::Queue(merge_queue),
            processors: vec![Box::new(MergeProcessor::new(n))],
            outputs: std::mem::take(&mut p.outputs),
            fault_policy: infra_policy(&p.fault_policy),
            batch_size: p.batch_size,
            replicas: 1,
            partition_keys: Vec::new(),
            partition_hints: Vec::new(),
            replica_chains: Vec::new(),
            shard_dispatch: false,
            factories: vec![Some(Arc::new(move || {
                Box::new(MergeProcessor::new(n)) as Box<dyn Processor>
            }) as SharedProcessorFactory)],
            checkpoint_every: p.checkpoint_every,
        });
    }
    Ok(())
}

/// How a worker distributes chain survivors to its outputs.
pub(crate) enum Dispatch {
    /// Clone to every output (the default process semantics).
    Broadcast,
    /// Route each item to the shard chosen by [`shard_for_hinted`] over the
    /// partition keys, and punctuate: a watermark to *all* outputs every
    /// [`WM_EVERY`]` × outputs` items, and whenever the worker goes idle with
    /// items routed since the last one ([`Dispatch::plan_idle`]).
    Shard {
        keys: std::sync::Arc<[String]>,
        hints: std::sync::Arc<[String]>,
        /// Items routed since the last watermark.
        since_wm: usize,
        /// The next watermark: one past the highest sequence number routed.
        next_wm: i64,
    },
}

impl Dispatch {
    /// Routes one chain survivor into the per-output buckets `owed` (one per
    /// output, in output order): a copy into every bucket, or the keyed
    /// shard's. Each bucket keeps its items in routing order, which is all
    /// per-queue FIFO — and with it merge determinism — needs. Item clones
    /// are `Arc` reference bumps (see [`crate::item`]), never attribute-map
    /// copies. Returns whether the flood cadence was due and a watermark for
    /// every output follows the item.
    pub(crate) fn plan_into(&mut self, item: DataItem, owed: &mut [Vec<DataItem>]) -> bool {
        match self {
            Dispatch::Broadcast => {
                if let Some((last, rest)) = owed.split_last_mut() {
                    for bucket in rest {
                        bucket.push(item.clone());
                    }
                    last.push(item);
                }
                false
            }
            Dispatch::Shard { keys, hints, since_wm, next_wm } => {
                let n_outputs = owed.len().max(1);
                let shard = shard_for_hinted(&item, keys, hints, n_outputs);
                if let Some(seq) = item.get_i64(SEQ_ATTR) {
                    *next_wm = (*next_wm).max(seq + 1);
                }
                owed[shard].push(item);
                *since_wm += 1;
                *since_wm >= WM_EVERY * n_outputs && self.plan_idle(owed)
            }
        }
    }

    /// Routes a watermark into every bucket if anything was routed since the
    /// last one; returns whether it did. What a sharding worker does when it
    /// goes idle — and, from [`Dispatch::plan_into`], when the flood cadence
    /// is due.
    pub(crate) fn plan_idle(&mut self, owed: &mut [Vec<DataItem>]) -> bool {
        match self {
            Dispatch::Shard { since_wm, next_wm, .. } if *since_wm > 0 => {
                *since_wm = 0;
                for (idx, bucket) in owed.iter_mut().enumerate() {
                    bucket.push(watermark(*next_wm, idx));
                }
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::processor::FnProcessor;
    use crate::service::ServiceRegistry;

    fn ctx() -> Context {
        Context::new(ServiceRegistry::default(), "test")
    }

    /// All outputs of one call: what it emitted, then what it returned.
    fn outputs(p: &mut dyn Processor, item: DataItem, c: &mut Context) -> Vec<DataItem> {
        let returned = p.process(item, c).unwrap();
        c.take_emitted().chain(returned).collect()
    }

    fn data(seq: i64, shard: i64) -> DataItem {
        DataItem::new().with("n", seq).with(SEQ_ATTR, seq).with(SHARD_ATTR, shard)
    }

    fn ns(items: &[DataItem]) -> Vec<Option<i64>> {
        items.iter().map(|i| i.get_i64("n")).collect()
    }

    #[test]
    fn shard_for_is_stable_and_covers_missing_keys() {
        let keys = vec!["region".to_string()];
        let item = DataItem::new().with("region", "north");
        assert_eq!(shard_for(&item, &keys, 4), shard_for(&item, &keys, 4));
        // Items without the key still land somewhere deterministic.
        let bare = DataItem::new().with("x", 1i64);
        assert!(shard_for(&bare, &keys, 4) < 4);
        assert_eq!(shard_for(&bare, &keys, 4), shard_for(&bare, &keys, 4));
    }

    #[test]
    fn partition_stamp_assigns_monotone_sequence() {
        let mut p = PartitionStamp::new();
        let mut c = ctx();
        for expect in 0..5i64 {
            let out = p.process(DataItem::new().with("k", expect), &mut c).unwrap().unwrap();
            assert_eq!(out.get_i64(SEQ_ATTR), Some(expect));
            // Routing is the dispatch's job now; the stamp leaves no shard
            // attribute behind.
            assert!(!out.contains(SHARD_ATTR));
        }
    }

    #[test]
    fn replica_shell_hides_bookkeeping_from_inner_chain() {
        let inner = FnProcessor::new(|item: DataItem, _: &mut Context| {
            assert!(!item.contains(SEQ_ATTR) && !item.contains(SHARD_ATTR));
            Ok(Some(item.with("seen", true)))
        });
        let mut shell = ReplicaShell::new(vec![Box::new(inner)], 2);
        let mut c = ctx();
        let item = DataItem::new().with("n", 1i64).with(SEQ_ATTR, 9i64).with(SHARD_ATTR, 2i64);
        let out = outputs(&mut shell, item, &mut c);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].get_i64(SEQ_ATTR), Some(9));
        assert_eq!(out[0].get_i64(SHARD_ATTR), Some(2));
        assert_eq!(out[0].get_bool("seen"), Some(true));
        assert!(!out[0].contains(SUB_ATTR), "a lone output needs no sub stamp");
    }

    #[test]
    fn replica_shell_stamps_every_output_of_one_input_in_chain_order() {
        // Slot 0 fans each input out to three items (two emitted, one
        // returned); slot 1 drops the middle one and tags the rest. The
        // survivors leave as (seq, 0), (seq, 1).
        let fan = FnProcessor::new(|item: DataItem, ctx: &mut Context| {
            ctx.emit(item.clone().with("copy", 0i64));
            ctx.emit(item.clone().with("copy", 1i64));
            Ok(Some(item.with("copy", 2i64)))
        });
        let tag = FnProcessor::new(|item: DataItem, _: &mut Context| {
            Ok((item.get_i64("copy") != Some(1)).then(|| item.with("tagged", true)))
        });
        let mut shell = ReplicaShell::new(vec![Box::new(fan), Box::new(tag)], 1);
        let mut c = ctx();
        let out = outputs(&mut shell, DataItem::new().with(SEQ_ATTR, 4i64), &mut c);
        let stamps: Vec<(Option<i64>, Option<i64>, Option<i64>)> = out
            .iter()
            .map(|i| (i.get_i64(SEQ_ATTR), i.get_i64(SUB_ATTR), i.get_i64("copy")))
            .collect();
        assert_eq!(stamps, vec![(Some(4), None, Some(0)), (Some(4), Some(1), Some(2))]);
        assert!(out.iter().all(|i| i.get_bool("tagged") == Some(true)));
        // A watermark passes through as it came.
        let wm = watermark(5, 1);
        assert_eq!(outputs(&mut shell, wm.clone(), &mut c), vec![wm]);
    }

    #[test]
    fn replica_shell_finish_tags_trailing_and_appends_fin() {
        struct Tail;
        impl Processor for Tail {
            fn process(
                &mut self,
                item: DataItem,
                _: &mut Context,
            ) -> Result<Option<DataItem>, StreamsError> {
                Ok(Some(item))
            }
            fn finish(&mut self, _: &mut Context) -> Result<Vec<DataItem>, StreamsError> {
                Ok(vec![DataItem::new().with("summary", true)])
            }
        }
        let mut shell = ReplicaShell::new(vec![Box::new(Tail)], 1);
        let out = shell.finish(&mut ctx()).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].get_bool(FIN_ITEM_ATTR), Some(true));
        assert_eq!(out[0].get_i64(SHARD_ATTR), Some(1));
        assert_eq!(out[1].get_bool(FIN_ATTR), Some(true), "fin marker comes last");
    }

    #[test]
    fn merge_restores_sequence_order_across_shards() {
        let mut m = MergeProcessor::new(2);
        let mut c = ctx();
        // Shard 1 delivers seq 1 first; nothing can be released until shard 0
        // accounts for seq 0.
        assert!(outputs(&mut m, data(1, 1), &mut c).is_empty());
        // Shard 0's seq 0 settles both: everything releasable leaves at once.
        let out = outputs(&mut m, data(0, 0), &mut c);
        assert_eq!(ns(&out), vec![Some(0)], "seq 1 waits: shard 0 may still emit (0, 1)…");
        assert!(!out[0].contains(SEQ_ATTR), "bookkeeping is stripped");
        let fin = DataItem::new().with(FIN_ATTR, true).with(SHARD_ATTR, 0i64);
        assert_eq!(ns(&outputs(&mut m, fin, &mut c)), vec![Some(1)], "…until it is past 1");
    }

    #[test]
    fn merge_watermark_releases_everything_it_settles_in_one_call() {
        let mut m = MergeProcessor::new(2);
        let mut c = ctx();
        // Shard 0 emitted seqs 5, 6 and 7; seqs 0..5 were filtered on shard 1.
        for seq in 5..8 {
            assert!(outputs(&mut m, data(seq, 0), &mut c).is_empty(), "shard 1 frontier unknown");
        }
        let out = outputs(&mut m, watermark(7, 1), &mut c);
        assert_eq!(ns(&out), vec![Some(5), Some(6)], "both settled items, not one per call");
        assert_eq!(ns(&outputs(&mut m, watermark(8, 1), &mut c)), vec![Some(7)]);
    }

    #[test]
    fn merge_orders_by_sequence_then_sub() {
        let mut m = MergeProcessor::new(2);
        let mut c = ctx();
        let sub =
            |seq: i64, sub: i64, shard: i64| data(seq, shard).with(SUB_ATTR, sub).with("s", sub);
        // Shard 1's input 3 produced three items; shard 0's input 2 one.
        assert!(outputs(&mut m, data(3, 1).with("s", 0i64), &mut c).is_empty());
        assert!(outputs(&mut m, sub(3, 1, 1), &mut c).is_empty());
        let out = outputs(&mut m, data(2, 0), &mut c);
        assert_eq!(ns(&out), vec![Some(2)], "seq 3 waits for shard 0 to pass it");
        assert!(outputs(&mut m, sub(3, 2, 1), &mut c).is_empty());
        let out = outputs(&mut m, watermark(4, 0), &mut c);
        let order: Vec<(Option<i64>, Option<i64>)> =
            out.iter().map(|i| (i.get_i64("n"), i.get_i64("s"))).collect();
        assert_eq!(order, vec![(Some(3), Some(0)), (Some(3), Some(1)), (Some(3), Some(2))]);
        assert!(out.iter().all(|i| !i.contains(SUB_ATTR)), "bookkeeping is stripped");
    }

    #[test]
    fn merge_finish_drains_buffers_then_trailing() {
        let mut m = MergeProcessor::new(2);
        let mut c = ctx();
        assert!(outputs(&mut m, data(3, 1), &mut c).is_empty(), "shard 0 frontier unknown");
        // seq 2 becomes releasable the moment shard 0 accounts for it; seq 3
        // stays buffered because shard 0's frontier (3) is not *past* it.
        assert_eq!(ns(&outputs(&mut m, data(2, 0), &mut c)), vec![Some(2)]);
        let t = DataItem::new().with("t", true).with(FIN_ITEM_ATTR, true).with(SHARD_ATTR, 1i64);
        assert!(outputs(&mut m, t, &mut c).is_empty());
        let out = m.finish(&mut c).unwrap();
        assert_eq!(ns(&out), vec![Some(3), None], "remaining seq order, then trailing");
        assert!(!out[1].contains(FIN_ITEM_ATTR) && !out[1].contains(SHARD_ATTR));
    }

    #[test]
    fn merge_rejects_unstamped_items() {
        let mut m = MergeProcessor::new(1);
        assert!(m.process(DataItem::new().with("n", 1i64), &mut ctx()).is_err());
        let bad_shard = DataItem::new().with(SEQ_ATTR, 0i64).with(SHARD_ATTR, 9i64);
        assert!(m.process(bad_shard, &mut ctx()).is_err());
    }

    #[test]
    fn merge_rejects_a_duplicate_stamp_instead_of_overwriting() {
        let mut m = MergeProcessor::new(2);
        let mut c = ctx();
        assert!(outputs(&mut m, data(4, 1), &mut c).is_empty());
        let twin = data(4, 1).with("n", 99i64);
        assert!(
            matches!(m.process(twin, &mut c), Err(StreamsError::ServiceError { .. })),
            "a second (4, 0) from shard 1 must not replace the first"
        );
        // Same sequence number, different sub: a legitimate second output.
        assert!(outputs(&mut m, data(4, 1).with(SUB_ATTR, 1i64), &mut c).is_empty());
        let out = outputs(&mut m, watermark(5, 0), &mut c);
        assert_eq!(ns(&out), vec![Some(4), Some(4)], "the first item survived");
    }

    #[test]
    fn merge_snapshot_round_trips_held_items_and_nothing_else() {
        let mut m = MergeProcessor::new(2);
        let mut c = ctx();
        assert!(outputs(&mut m, data(3, 1), &mut c).is_empty());
        assert!(outputs(&mut m, data(3, 1).with(SUB_ATTR, 1i64), &mut c).is_empty());
        let blob = m.snapshot();
        assert!(blob.get_str("ready").is_none(), "nothing is parked between calls");
        let mut restored = MergeProcessor::new(2);
        restored.restore(&blob).unwrap();
        let out = outputs(&mut restored, watermark(9, 0), &mut c);
        assert_eq!(ns(&out), vec![Some(3), Some(3)]);
    }

    fn replicated_topology(
        n_items: i64,
        replicas: usize,
        sink: &crate::sink::CollectSink,
    ) -> Topology {
        use crate::source::VecSource;
        let mut t = Topology::new();
        t.add_source(
            "nums",
            VecSource::new((0..n_items).map(|i| DataItem::new().with("n", i).with("key", i % 7))),
        );
        t.add_queue("out", 8);
        t.process("square")
            .input(Input::Stream("nums".into()))
            .replicas(replicas)
            .partition_by(["key"])
            .processor_factory(|| {
                Box::new(FnProcessor::new(|mut item: DataItem, _: &mut Context| {
                    let n = item.get_i64("n").unwrap();
                    if n % 5 == 3 {
                        return Ok(None); // filtered: creates sequence gaps
                    }
                    item.set("sq", n * n);
                    Ok(Some(item))
                }))
            })
            .output(Output::Queue("out".into()))
            .done();
        t.process("collect")
            .input(Input::Queue("out".into()))
            .output(Output::Sink(Box::new(sink.clone())))
            .done();
        t
    }

    #[test]
    fn replicated_stage_preserves_input_order_threaded_and_replay() {
        let expected: Vec<(i64, i64)> =
            (0..200).filter(|n| n % 5 != 3).map(|n| (n, n * n)).collect();
        for replicas in [1usize, 2, 4, 8] {
            let sink = crate::sink::CollectSink::shared();
            crate::runtime::Runtime::new(replicated_topology(200, replicas, &sink)).run().unwrap();
            let got: Vec<(i64, i64)> = sink
                .items()
                .iter()
                .map(|i| (i.get_i64("n").unwrap(), i.get_i64("sq").unwrap()))
                .collect();
            assert_eq!(got, expected, "threaded, replicas={replicas}");
            for item in sink.items() {
                assert!(
                    !item.contains(SEQ_ATTR) && !item.contains(SHARD_ATTR),
                    "bookkeeping never escapes the merge"
                );
            }

            let sink = crate::sink::CollectSink::shared();
            crate::replay::ReplayRuntime::new(replicated_topology(200, replicas, &sink), 42)
                .run()
                .unwrap();
            let got: Vec<(i64, i64)> = sink
                .items()
                .iter()
                .map(|i| (i.get_i64("n").unwrap(), i.get_i64("sq").unwrap()))
                .collect();
            assert_eq!(got, expected, "replay, replicas={replicas}");
        }
    }

    #[test]
    fn replicas_without_partition_keys_rejected() {
        let sink = crate::sink::CollectSink::shared();
        let mut t = replicated_topology(10, 2, &sink);
        t.processes[0].partition_keys.clear();
        assert!(matches!(
            crate::runtime::Runtime::new(t).run(),
            Err(StreamsError::InvalidPartition { .. })
        ));
    }

    #[test]
    fn replicated_stage_metrics_have_distinct_labels() {
        let sink = crate::sink::CollectSink::shared();
        let rt = crate::runtime::Runtime::new(replicated_topology(100, 2, &sink));
        let metrics = rt.metrics();
        rt.run().unwrap();
        let snap = metrics.snapshot();
        for stage in ["square[part]", "square[0]", "square[1]", "square[merge]"] {
            assert!(snap.stages.contains_key(stage), "stage `{stage}` missing");
        }
        assert!(!snap.stages.contains_key("square"), "no aliased unsuffixed stage");
        // Every input item went through the partitioner exactly once, and the
        // two replicas split it: per-replica counters never alias.
        assert_eq!(snap.stages["square[part]"].items_in, 100);
        let r0 = snap.stages["square[0]"].items_in;
        let r1 = snap.stages["square[1]"].items_in;
        assert!(r0 > 0 && r1 > 0, "both shards saw traffic: {r0}/{r1}");
        assert_eq!(r0 + r1, 100, "data only: the replicas split the input");
        // Punctuation is counted apart. The partitioner pulls a `VecSource`,
        // which never answers `Pending`, so it never goes idle and sends
        // exactly the flood-cadence broadcasts (the cadence scales with the
        // shard count); each replica sees each.
        let broadcasts = 100 / (WM_EVERY * 2) as u64;
        assert_eq!(snap.stages["square[part]"].punctuation_out, broadcasts * 2);
        for replica in ["square[0]", "square[1]"] {
            assert_eq!(snap.stages[replica].punctuation_in, broadcasts);
            // Forwarded watermarks plus the fin marker.
            assert_eq!(snap.stages[replica].punctuation_out, broadcasts + 1);
        }
        assert_eq!(snap.stages["square[merge]"].punctuation_in, (broadcasts + 1) * 2);
        assert_eq!(snap.stages["square[merge]"].items_in, 80, "20 of 100 were filtered");
        assert_eq!(snap.stages["square[merge]"].items_out, 80);
        assert_eq!(snap.stages["square[merge]"].held, 0, "nothing is held at rest");
    }

    #[test]
    fn shard_dispatch_routes_and_emits_watermarks() {
        let keys: std::sync::Arc<[String]> = vec!["k".to_string()].into();
        let mut d = Dispatch::Shard {
            keys: keys.clone(),
            hints: Vec::new().into(),
            since_wm: 0,
            next_wm: 0,
        };
        let mut owed = vec![Vec::new(); 3];
        let routed = |owed: &[Vec<DataItem>]| owed.iter().map(Vec::len).sum::<usize>();
        assert!(!d.plan_idle(&mut owed), "nothing routed yet: going idle says nothing");
        let cadence = (WM_EVERY * 3) as i64;
        for seq in 0..cadence {
            let item = DataItem::new().with("k", seq).with(SEQ_ATTR, seq);
            let expect = shard_for(&item, &keys, 3);
            owed.iter_mut().for_each(Vec::clear);
            d.plan_into(item, &mut owed);
            assert_eq!(owed[expect][0].get_i64(SEQ_ATTR), Some(seq), "routed to the keyed shard");
            if seq == 1 {
                // Idle after two items: a watermark for each output, already
                // attributed to its shard, and the flood count starts over.
                owed.iter_mut().for_each(Vec::clear);
                assert!(d.plan_idle(&mut owed));
                let wms: Vec<(Option<i64>, Option<i64>)> = owed
                    .iter()
                    .flatten()
                    .map(|wm| (wm.get_i64(WM_ATTR), wm.get_i64(SHARD_ATTR)))
                    .collect();
                assert_eq!(wms, vec![(Some(2), Some(0)), (Some(2), Some(1)), (Some(2), Some(2))]);
                assert!(owed.iter().flatten().all(is_punctuation));
                owed.iter_mut().for_each(Vec::clear);
                assert!(!d.plan_idle(&mut owed), "still idle: nothing new to say");
            } else if seq < cadence - 1 {
                assert_eq!(routed(&owed), 1, "seq {seq}: no watermark before the cadence is due");
            }
        }
        // WM_EVERY * outputs items after the idle watermark would be two past
        // the loop; the last item routed is two short of it.
        assert_eq!(routed(&owed), 1);
        for seq in cadence..cadence + 2 {
            owed.iter_mut().for_each(Vec::clear);
            d.plan_into(DataItem::new().with("k", seq).with(SEQ_ATTR, seq), &mut owed);
        }
        assert_eq!(routed(&owed), 4, "the flood cadence broadcasts to all 3 outputs");
        for bucket in &owed {
            let wm = bucket.last().expect("every output gets the watermark");
            assert_eq!(wm.get_i64(WM_ATTR), Some(cadence + 2), "behind the item in its shard");
        }
    }

    /// Satellite regression: killing the *merge* stage itself under
    /// `Restart` must neither wedge end-of-stream propagation nor corrupt
    /// the watermark release frontier — the restored merge re-buffers the
    /// replayed suffix and keeps releasing in global sequence order.
    #[test]
    fn restart_policy_recovers_a_killed_merge_without_wedging_eos() {
        use crate::chaos::{KillAt, KillSwitch};
        use std::sync::Arc;

        let run = |kill_at: u64| -> (Vec<(i64, i64)>, bool) {
            let sink = crate::sink::CollectSink::shared();
            let mut t = replicated_topology(200, 3, &sink);
            t.processes[0].fault_policy = FaultPolicy::Restart { max: 2, from_checkpoint: true };
            t.processes[0].checkpoint_every = 1;
            expand_replicas(&mut t).unwrap();
            let switch = KillSwitch::new();
            let merge = t
                .processes
                .iter_mut()
                .find(|p| p.name == "square[merge]")
                .expect("expansion synthesizes the merge");
            assert!(
                matches!(merge.fault_policy, FaultPolicy::Restart { .. }),
                "the merge inherits the stage's Restart policy"
            );
            let sw = switch.clone();
            merge.processors.insert(0, Box::new(KillAt::with_switch(kill_at, switch.clone())));
            merge.factories.insert(
                0,
                Some(Arc::new(move || {
                    Box::new(KillAt::with_switch(kill_at, sw.clone())) as Box<dyn Processor>
                })),
            );
            crate::runtime::Runtime::new(t).run().unwrap();
            let got: Vec<(i64, i64)> = sink
                .items()
                .iter()
                .map(|i| (i.get_i64("n").unwrap(), i.get_i64("sq").unwrap()))
                .collect();
            for item in sink.items() {
                assert!(
                    !item.contains(SEQ_ATTR) && !item.contains(SHARD_ATTR),
                    "bookkeeping never escapes the recovered merge"
                );
            }
            (got, switch.fired())
        };

        let (baseline, fired) = run(0);
        assert!(!fired, "kill_at=0 is a no-op injector");
        let expected: Vec<(i64, i64)> =
            (0..200).filter(|n| n % 5 != 3).map(|n| (n, n * n)).collect();
        assert_eq!(baseline, expected, "kill-free merge releases in input order");
        // Kill early (frontier mostly unknown), mid-stream, and late (most
        // sequence numbers already released).
        for kill_at in [3u64, 80, 150] {
            let (got, fired) = run(kill_at);
            assert!(fired, "kill_at={kill_at}: the injected kill must fire");
            assert_eq!(got, baseline, "kill_at={kill_at}: recovered merge diverged");
        }
    }
}
