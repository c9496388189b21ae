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
//!
//! Besides the [`Processor`] trait this module ships the small library of
//! generic processors the XML topology language can instantiate by name:
//! filtering, key manipulation and counting.

use crate::error::StreamsError;
use crate::item::{DataItem, Value};
use crate::service::ServiceRegistry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
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

// ---------------------------------------------------------------------------
// Generic processor library (instantiable from XML by class name)
// ---------------------------------------------------------------------------

/// Keeps only items where `key` equals the configured value (string
/// comparison on the rendered value).
pub struct FilterEquals {
    key: String,
    expected: String,
}

impl FilterEquals {
    /// Filter on `key == expected`.
    pub fn new(key: &str, expected: &str) -> FilterEquals {
        FilterEquals { key: key.to_string(), expected: expected.to_string() }
    }
}

impl Processor for FilterEquals {
    fn process(
        &mut self,
        item: DataItem,
        _ctx: &mut Context,
    ) -> Result<Option<DataItem>, StreamsError> {
        let keep = item.get(&self.key).map(|v| v.to_string() == self.expected).unwrap_or(false);
        Ok(keep.then_some(item))
    }
}

/// Keeps only items that carry the configured key.
pub struct RequireKey {
    key: String,
}

impl RequireKey {
    /// Filter on presence of `key`.
    pub fn new(key: &str) -> RequireKey {
        RequireKey { key: key.to_string() }
    }
}

impl Processor for RequireKey {
    fn process(
        &mut self,
        item: DataItem,
        _ctx: &mut Context,
    ) -> Result<Option<DataItem>, StreamsError> {
        Ok(item.contains(&self.key).then_some(item))
    }
}

/// Fails (rather than filters) items missing the configured key.
///
/// The erroring twin of [`RequireKey`]: it turns a schema violation into a
/// processor fault, so the process's [`crate::fault::FaultPolicy`] decides
/// whether to abort, skip, retry or dead-letter the item.
pub struct AssertKey {
    key: String,
}

impl AssertKey {
    /// Fault on items lacking `key`.
    pub fn new(key: &str) -> AssertKey {
        AssertKey { key: key.to_string() }
    }
}

impl Processor for AssertKey {
    fn process(
        &mut self,
        item: DataItem,
        _ctx: &mut Context,
    ) -> Result<Option<DataItem>, StreamsError> {
        if item.contains(&self.key) {
            Ok(Some(item))
        } else {
            Err(StreamsError::ServiceError {
                detail: format!("item is missing required key `{}`", self.key),
            })
        }
    }
}

/// Sets a constant attribute on every item.
pub struct SetValue {
    key: String,
    value: Value,
}

impl SetValue {
    /// Set `key` to `value` on every item.
    pub fn new(key: &str, value: Value) -> SetValue {
        SetValue { key: key.to_string(), value }
    }
}

impl Processor for SetValue {
    fn process(
        &mut self,
        mut item: DataItem,
        _ctx: &mut Context,
    ) -> Result<Option<DataItem>, StreamsError> {
        item.set(self.key.clone(), self.value.clone());
        Ok(Some(item))
    }
}

/// Renames an attribute.
pub struct RenameKey {
    from: String,
    to: String,
}

impl RenameKey {
    /// Rename `from` to `to` (no-op when `from` is absent).
    pub fn new(from: &str, to: &str) -> RenameKey {
        RenameKey { from: from.to_string(), to: to.to_string() }
    }
}

impl Processor for RenameKey {
    fn process(
        &mut self,
        mut item: DataItem,
        _ctx: &mut Context,
    ) -> Result<Option<DataItem>, StreamsError> {
        if let Some(v) = item.remove(&self.from) {
            item.set(self.to.clone(), v);
        }
        Ok(Some(item))
    }
}

/// Projects items to the configured key set.
pub struct SelectKeys {
    keys: Vec<String>,
}

impl SelectKeys {
    /// Keep only `keys`.
    pub fn new<I: IntoIterator<Item = S>, S: Into<String>>(keys: I) -> SelectKeys {
        SelectKeys { keys: keys.into_iter().map(Into::into).collect() }
    }
}

impl Processor for SelectKeys {
    fn process(
        &mut self,
        mut item: DataItem,
        _ctx: &mut Context,
    ) -> Result<Option<DataItem>, StreamsError> {
        let refs: Vec<&str> = self.keys.iter().map(String::as_str).collect();
        item.project(&refs);
        Ok(Some(item))
    }
}

/// Counts items, exposing the count through a shared atomic; items pass
/// through unchanged. At finish, emits one summary item `{count: N}`.
pub struct CountItems {
    counter: Arc<AtomicU64>,
}

impl CountItems {
    /// A counter backed by the given atomic.
    pub fn new(counter: Arc<AtomicU64>) -> CountItems {
        CountItems { counter }
    }
}

impl Processor for CountItems {
    fn process(
        &mut self,
        item: DataItem,
        _ctx: &mut Context,
    ) -> Result<Option<DataItem>, StreamsError> {
        self.counter.fetch_add(1, Ordering::Relaxed);
        Ok(Some(item))
    }

    fn finish(&mut self, _ctx: &mut Context) -> Result<Vec<DataItem>, StreamsError> {
        let n = self.counter.load(Ordering::Relaxed) as i64;
        Ok(vec![DataItem::new().with("count", n)])
    }
}

/// Keeps every `k`-th item (stream thinning, as the mediators of the paper
/// apply).
pub struct Sample {
    every: usize,
    seen: usize,
}

impl Sample {
    /// Pass item 0, k, 2k, …; `every` is clamped to at least 1.
    pub fn new(every: usize) -> Sample {
        Sample { every: every.max(1), seen: 0 }
    }
}

impl Processor for Sample {
    fn process(
        &mut self,
        item: DataItem,
        _ctx: &mut Context,
    ) -> Result<Option<DataItem>, StreamsError> {
        let keep = self.seen.is_multiple_of(self.every);
        self.seen += 1;
        Ok(keep.then_some(item))
    }
}

/// Aggregates a numeric key over fixed-size batches: every `window` items
/// one summary item `{key_avg, key_min, key_max, count}` is emitted and the
/// originals are dropped — the "sensor readings are aggregated within fixed
/// time intervals" step of the paper's traffic modelling (§7.3), expressed
/// as a stream processor.
pub struct Aggregate {
    key: String,
    window: usize,
    values: Vec<f64>,
}

impl Aggregate {
    /// Aggregate `key` over batches of `window` items.
    pub fn new(key: &str, window: usize) -> Aggregate {
        Aggregate { key: key.to_string(), window: window.max(1), values: Vec::new() }
    }

    fn summary(&mut self) -> DataItem {
        let n = self.values.len().max(1) as f64;
        let sum: f64 = self.values.iter().sum();
        let min = self.values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = self.values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let item = DataItem::new()
            .with(format!("{}_avg", self.key), sum / n)
            .with(format!("{}_min", self.key), min)
            .with(format!("{}_max", self.key), max)
            .with("count", self.values.len() as i64);
        self.values.clear();
        item
    }
}

impl Processor for Aggregate {
    fn process(
        &mut self,
        item: DataItem,
        _ctx: &mut Context,
    ) -> Result<Option<DataItem>, StreamsError> {
        if let Some(v) = item.get_f64(&self.key) {
            self.values.push(v);
        }
        if self.values.len() >= self.window {
            Ok(Some(self.summary()))
        } else {
            Ok(None)
        }
    }

    fn finish(&mut self, _ctx: &mut Context) -> Result<Vec<DataItem>, StreamsError> {
        if self.values.is_empty() {
            Ok(Vec::new())
        } else {
            Ok(vec![self.summary()])
        }
    }
}

/// A factory building processors from XML attributes, keyed by class name.
pub type ProcessorFactory =
    Box<dyn Fn(&HashMap<String, String>) -> Result<Box<dyn Processor>, StreamsError> + Send + Sync>;

/// Builds the default factory table covering the generic processor library.
///
/// | class | attributes |
/// |---|---|
/// | `FilterEquals` | `key`, `value` |
/// | `RequireKey` | `key` |
/// | `AssertKey` | `key` (faults instead of filtering) |
/// | `SetValue` | `key`, `value` (string) |
/// | `RenameKey` | `from`, `to` |
/// | `SelectKeys` | `keys` (comma-separated) |
pub fn default_factories() -> HashMap<String, ProcessorFactory> {
    fn required<'a>(
        attrs: &'a HashMap<String, String>,
        key: &str,
        class: &str,
    ) -> Result<&'a str, StreamsError> {
        attrs.get(key).map(String::as_str).ok_or_else(|| StreamsError::XmlSemantics {
            detail: format!("processor `{class}` requires attribute `{key}`"),
        })
    }

    let mut m: HashMap<String, ProcessorFactory> = HashMap::new();
    m.insert(
        "FilterEquals".into(),
        Box::new(|attrs| {
            Ok(Box::new(FilterEquals::new(
                required(attrs, "key", "FilterEquals")?,
                required(attrs, "value", "FilterEquals")?,
            )))
        }),
    );
    m.insert(
        "RequireKey".into(),
        Box::new(|attrs| Ok(Box::new(RequireKey::new(required(attrs, "key", "RequireKey")?)))),
    );
    m.insert(
        "AssertKey".into(),
        Box::new(|attrs| Ok(Box::new(AssertKey::new(required(attrs, "key", "AssertKey")?)))),
    );
    m.insert(
        "SetValue".into(),
        Box::new(|attrs| {
            Ok(Box::new(SetValue::new(
                required(attrs, "key", "SetValue")?,
                Value::from(required(attrs, "value", "SetValue")?.to_string()),
            )))
        }),
    );
    m.insert(
        "RenameKey".into(),
        Box::new(|attrs| {
            Ok(Box::new(RenameKey::new(
                required(attrs, "from", "RenameKey")?,
                required(attrs, "to", "RenameKey")?,
            )))
        }),
    );
    m.insert(
        "SelectKeys".into(),
        Box::new(|attrs| {
            let keys: Vec<String> = required(attrs, "keys", "SelectKeys")?
                .split(',')
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .collect();
            Ok(Box::new(SelectKeys::new(keys)))
        }),
    );
    m.insert(
        "Sample".into(),
        Box::new(|attrs| {
            let every = required(attrs, "every", "Sample")?.parse::<usize>().map_err(|_| {
                StreamsError::XmlSemantics {
                    detail: "Sample `every` must be a positive integer".into(),
                }
            })?;
            Ok(Box::new(Sample::new(every)))
        }),
    );
    m.insert(
        "Aggregate".into(),
        Box::new(|attrs| {
            let key = required(attrs, "key", "Aggregate")?;
            let window =
                required(attrs, "window", "Aggregate")?.parse::<usize>().map_err(|_| {
                    StreamsError::XmlSemantics {
                        detail: "Aggregate `window` must be a positive integer".into(),
                    }
                })?;
            Ok(Box::new(Aggregate::new(key, window)))
        }),
    );
    m
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
    fn filter_equals() {
        let mut p = FilterEquals::new("kind", "move");
        assert!(p.process(item(), &mut ctx()).unwrap().is_some());
        let mut p = FilterEquals::new("kind", "traffic");
        assert!(p.process(item(), &mut ctx()).unwrap().is_none());
        let mut p = FilterEquals::new("missing", "x");
        assert!(p.process(item(), &mut ctx()).unwrap().is_none());
    }

    #[test]
    fn filter_equals_renders_numbers() {
        let mut p = FilterEquals::new("bus", "7");
        assert!(p.process(item(), &mut ctx()).unwrap().is_some());
    }

    #[test]
    fn require_key() {
        let mut p = RequireKey::new("delay");
        assert!(p.process(item(), &mut ctx()).unwrap().is_some());
        let mut p = RequireKey::new("ghost");
        assert!(p.process(item(), &mut ctx()).unwrap().is_none());
    }

    #[test]
    fn set_and_rename_and_select() {
        let mut s = SetValue::new("region", Value::Str("north".into()));
        let it = s.process(item(), &mut ctx()).unwrap().unwrap();
        assert_eq!(it.get_str("region"), Some("north"));

        let mut r = RenameKey::new("bus", "vehicle");
        let it = r.process(it, &mut ctx()).unwrap().unwrap();
        assert_eq!(it.get_i64("vehicle"), Some(7));
        assert!(!it.contains("bus"));

        let mut sel = SelectKeys::new(["vehicle", "region"]);
        let it = sel.process(it, &mut ctx()).unwrap().unwrap();
        assert_eq!(it.len(), 2);
    }

    #[test]
    fn count_items_emits_summary() {
        let counter = Arc::new(AtomicU64::new(0));
        let mut p = CountItems::new(Arc::clone(&counter));
        for _ in 0..5 {
            p.process(item(), &mut ctx()).unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 5);
        let summary = p.finish(&mut ctx()).unwrap();
        assert_eq!(summary.len(), 1);
        assert_eq!(summary[0].get_i64("count"), Some(5));
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
    fn factories_build_and_validate() {
        let f = default_factories();
        let mut attrs = HashMap::new();
        attrs.insert("key".to_string(), "kind".to_string());
        attrs.insert("value".to_string(), "move".to_string());
        let mut p = f["FilterEquals"](&attrs).unwrap();
        assert!(p.process(item(), &mut ctx()).unwrap().is_some());

        let missing: HashMap<String, String> = HashMap::new();
        assert!(f["FilterEquals"](&missing).is_err());
        assert!(f["SelectKeys"](&missing).is_err());
    }

    #[test]
    fn sample_keeps_every_kth() {
        let mut p = Sample::new(3);
        let kept: Vec<bool> =
            (0..7).map(|_| p.process(item(), &mut ctx()).unwrap().is_some()).collect();
        assert_eq!(kept, vec![true, false, false, true, false, false, true]);
        // every=0 clamps to 1 (identity)
        let mut p = Sample::new(0);
        assert!(p.process(item(), &mut ctx()).unwrap().is_some());
        assert!(p.process(item(), &mut ctx()).unwrap().is_some());
    }

    #[test]
    fn aggregate_emits_batch_summaries() {
        let mut p = Aggregate::new("delay", 3);
        let mk = |d: f64| DataItem::new().with("delay", d);
        assert!(p.process(mk(10.0), &mut ctx()).unwrap().is_none());
        assert!(p.process(mk(20.0), &mut ctx()).unwrap().is_none());
        let summary = p.process(mk(60.0), &mut ctx()).unwrap().unwrap();
        assert_eq!(summary.get_f64("delay_avg"), Some(30.0));
        assert_eq!(summary.get_f64("delay_min"), Some(10.0));
        assert_eq!(summary.get_f64("delay_max"), Some(60.0));
        assert_eq!(summary.get_i64("count"), Some(3));
        // Tail flushes at finish.
        assert!(p.process(mk(5.0), &mut ctx()).unwrap().is_none());
        let trailing = p.finish(&mut ctx()).unwrap();
        assert_eq!(trailing.len(), 1);
        assert_eq!(trailing[0].get_i64("count"), Some(1));
        // Nothing pending: finish is empty.
        assert!(p.finish(&mut ctx()).unwrap().is_empty());
    }

    #[test]
    fn aggregate_ignores_items_without_key() {
        let mut p = Aggregate::new("delay", 2);
        assert!(p.process(DataItem::new().with("other", 1i64), &mut ctx()).unwrap().is_none());
        assert!(p.finish(&mut ctx()).unwrap().is_empty());
    }

    #[test]
    fn sample_and_aggregate_factories() {
        let f = default_factories();
        let mut attrs = HashMap::new();
        attrs.insert("every".to_string(), "2".to_string());
        assert!(f["Sample"](&attrs).is_ok());
        attrs.insert("every".to_string(), "x".to_string());
        assert!(f["Sample"](&attrs).is_err());

        let mut attrs = HashMap::new();
        attrs.insert("key".to_string(), "flow".to_string());
        attrs.insert("window".to_string(), "5".to_string());
        assert!(f["Aggregate"](&attrs).is_ok());
        attrs.remove("window");
        assert!(f["Aggregate"](&attrs).is_err());
    }

    #[test]
    fn context_exposes_process_name() {
        let c = Context::new(ServiceRegistry::new(), "region-north");
        assert_eq!(c.process_name(), "region-north");
    }
}
