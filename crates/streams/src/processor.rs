//! Processors: the functions applied to data items.
//!
//! A *process* comprises a sequence of *processors*; each processor applies a
//! function to the items of a stream (Section 3 of the paper). Returning
//! `None` drops the item (filtering); returning a (possibly modified) item
//! forwards it to the next processor in the chain. A call that has more
//! than one item to hand on — a window evaluation that completed several
//! queries, a gate that a watermark just opened — emits the others through
//! [`Context::emit`]: the runtime carries *every* output of a call through
//! the rest of the chain before it reads the next input, so a processor
//! never has a reason to park a finished item until more input arrives.

use crate::error::StreamsError;
use crate::item::DataItem;
use crate::service::ServiceRegistry;
use std::sync::Arc;

/// Execution context handed to processors: access to the shared services,
/// the name of the owning process, and the output buffer of the current
/// call.
pub struct Context {
    services: ServiceRegistry,
    process: String,
    emitted: Vec<DataItem>,
}

impl Context {
    /// Creates a context (used by the runtime; public for direct testing of
    /// processors).
    pub fn new(services: ServiceRegistry, process: &str) -> Context {
        Context { services, process: process.to_string(), emitted: Vec::new() }
    }

    /// The instruments of the stage this processor runs in (`None` outside a
    /// runtime). Takes the registry's registration lock: fetch once, keep
    /// the `Arc`.
    pub fn stage_metrics(&self) -> Option<Arc<crate::metrics::StageMetrics>> {
        let registry = self.services.get::<crate::metrics::MetricsRegistry>("metrics").ok()?;
        Some(registry.stage(&self.process))
    }

    /// Hands `item` on as an output of the current `process`/`finish` call.
    /// The outputs of one call are the emitted items in emission order,
    /// followed by the call's return value; each of them traverses the rest
    /// of the chain. A call that fails discards what it emitted.
    pub fn emit(&mut self, item: DataItem) {
        self.emitted.push(item);
    }

    /// Drains what the calls since the last drain emitted, in order. The
    /// runtime calls this after every processor invocation; public so a
    /// processor can be driven directly in tests.
    pub fn take_emitted(&mut self) -> std::vec::Drain<'_, DataItem> {
        self.emitted.drain(..)
    }

    /// Whether a call emitted something that has not been drained yet.
    pub(crate) fn has_emitted(&self) -> bool {
        !self.emitted.is_empty()
    }

    /// Drops undrained output (the call that emitted it failed).
    pub(crate) fn discard_emitted(&mut self) {
        self.emitted.clear();
    }

    /// The shared service registry.
    pub fn services(&self) -> &ServiceRegistry {
        &self.services
    }

    /// The name of the process this processor runs in.
    pub fn process_name(&self) -> &str {
        &self.process
    }
}

/// A function applied to every item of a stream.
///
/// # State contract under fault supervision
///
/// A `process` call that fails (error or isolated panic) may already have
/// mutated the processor's internal state — the runtime cannot roll that
/// back. Policies that re-invoke the processor
/// ([`Retry`](crate::fault::FaultPolicy::Retry),
/// [`Restart`](crate::fault::FaultPolicy::Restart)) therefore interact with
/// state as follows:
///
/// * a *stateless* processor (or one whose mutations are idempotent) is
///   always safe to re-invoke;
/// * a *stateful* processor should implement
///   [`Checkpointable`](crate::checkpoint::Checkpointable) and expose itself
///   through [`Processor::as_checkpointable`]: `Retry` then restores the
///   last checkpoint before each re-attempt (when one covering the current
///   position exists), and `Restart` rebuilds the processor from its factory,
///   restores the checkpoint and replays the logged items — so a failed
///   attempt's partial mutations never double-apply;
/// * a stateful processor without checkpoint support must tolerate partial
///   application of the failed item, or use `Skip`/`DeadLetter`/`FailFast`.
pub trait Processor: Send {
    /// Handles one item. The outputs of the call are whatever it passed to
    /// [`Context::emit`], in order, then the returned item; `Ok(None)` with
    /// nothing emitted drops the input. An item that is ready to leave must
    /// leave in the call that made it ready — the runtime offers no later
    /// call to hand it on other than the next input's, which may be a long
    /// time coming.
    fn process(
        &mut self,
        item: DataItem,
        ctx: &mut Context,
    ) -> Result<Option<DataItem>, StreamsError>;

    /// Called once after the input is exhausted; may emit trailing items
    /// (e.g. final aggregates), through [`Context::emit`] and/or the returned
    /// vector (emitted items come first). Default: nothing.
    fn finish(&mut self, _ctx: &mut Context) -> Result<Vec<DataItem>, StreamsError> {
        Ok(Vec::new())
    }

    /// The checkpoint hook: stateful processors return `Some(self)` to opt
    /// into checkpoint barriers and checkpoint-based recovery (see
    /// [`crate::checkpoint`]). Default: `None` (stateless — rebuilding from
    /// the factory is recovery enough).
    fn as_checkpointable(&mut self) -> Option<&mut dyn crate::checkpoint::Checkpointable> {
        None
    }
}

/// Queues the outputs of one call into slot `next - 1` — `returned` and
/// whatever the call left in the context's buffer — for slot `next`, so that
/// they pop off `work` in output order (emitted first, returned last). A
/// walk's entries are items, or (in the supervised walk, where an entry
/// without an item is a `finish` call) optional items.
pub(crate) fn push_outputs<T: From<DataItem>>(
    work: &mut Vec<(usize, T)>,
    next: usize,
    returned: Option<DataItem>,
    ctx: &mut Context,
) {
    work.extend(returned.map(|item| (next, item.into())));
    if ctx.has_emitted() {
        work.extend(ctx.take_emitted().rev().map(|item| (next, item.into())));
    }
}

/// Walks `item` through `chain[from..]` depth-first: every output of a call
/// traverses the following slots before its later siblings do, and items
/// leaving the last slot reach `leaf` in output order. `call` performs one
/// invocation of a slot (plain, or supervised by the runtime). `work` is the
/// caller's reusable stack; an error abandons the walk and leaves it empty.
pub(crate) fn drive_chain(
    chain: &mut [Box<dyn Processor>],
    from: usize,
    item: DataItem,
    ctx: &mut Context,
    work: &mut Vec<(usize, DataItem)>,
    mut call: impl FnMut(
        &mut Box<dyn Processor>,
        DataItem,
        &mut Context,
        usize,
    ) -> Result<Option<DataItem>, StreamsError>,
    mut leaf: impl FnMut(DataItem),
) -> Result<(), StreamsError> {
    debug_assert!(work.is_empty() && !ctx.has_emitted());
    work.push((from, item));
    while let Some((i, cur)) = work.pop() {
        if i == chain.len() {
            leaf(cur);
            continue;
        }
        match call(&mut chain[i], cur, ctx, i) {
            Ok(returned) => push_outputs(work, i + 1, returned, ctx),
            Err(e) => {
                work.clear();
                ctx.discard_emitted();
                return Err(e);
            }
        }
    }
    Ok(())
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

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> Context {
        Context::new(ServiceRegistry::new(), "test")
    }

    fn item() -> DataItem {
        DataItem::new().with("kind", "move").with("bus", 7i64).with("delay", 120i64)
    }

    #[test]
    fn fn_processor_closure() {
        let mut p = FnProcessor::new(|mut item: DataItem, _| {
            let d = item.get_i64("delay").unwrap_or(0);
            item.set("delay_min", d / 60);
            Ok(Some(item))
        });
        let it = p.process(item(), &mut ctx()).unwrap().unwrap();
        assert_eq!(it.get_i64("delay_min"), Some(2));
    }

    #[test]
    fn context_exposes_process_name() {
        let c = Context::new(ServiceRegistry::new(), "region-north");
        assert_eq!(c.process_name(), "region-north");
    }
}
