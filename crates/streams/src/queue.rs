//! Queues: bounded channels connecting processes.
//!
//! Processes take *a stream or a queue* as input; queues also serve as the
//! outputs derived events are emitted to (the RTEC processor of the paper
//! emits CEs "to a queue in the Streams framework"). Queues are bounded,
//! providing backpressure, multi-producer and single-consumer.
//!
//! # Termination accounting
//!
//! The queue is created for a declared number of *logical producers*, each
//! expected to call [`QueueSender::finish`] exactly once. Two mechanisms
//! decide end-of-stream, and **both** only take effect once the buffer has
//! drained:
//!
//! 1. **EOS markers** — `finish()` increments `eos_seen`; the stream ends
//!    when `eos_seen ≥ producers`. `finish()` is idempotent *per handle*: a
//!    handle that finishes twice (e.g. a worker that flushes and is then
//!    dropped by supervision code that finishes again) still counts as one
//!    producer, so a double `finish()` cannot terminate the stream while
//!    another declared producer is still live.
//! 2. **Handle liveness** — every live [`QueueSender`] (clones included) is
//!    counted; when the count reaches zero the stream ends even if EOS
//!    markers are missing (a producer thread that panicked can never send
//!    again, so waiting for its marker would wedge the consumer forever).
//!
//! Items buffered before *any* `finish()` call are never lost: `recv`
//! returns `None` only once the buffer is empty **and** one of the two
//! conditions above holds, so concurrent `finish()` calls racing with
//! in-flight `send`s cannot reorder or drop the already-buffered prefix —
//! the per-producer FIFO order of the buffer is exactly send order.

use crate::item::DataItem;
use crate::metrics::QueueMetrics;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Messages travelling through a queue: items plus per-producer end-of-stream
/// markers.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A data item.
    Item(DataItem),
    /// One producer finished; the consumer terminates after collecting the
    /// marker of every producer.
    Eos,
}

struct Inner {
    buffer: VecDeque<DataItem>,
    /// `finish()` calls seen so far.
    eos_seen: usize,
    /// Live `QueueSender` handles (clones included).
    handles: usize,
    consumer_alive: bool,
}

struct Shared {
    inner: Mutex<Inner>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
    producers: usize,
    metrics: Arc<QueueMetrics>,
}

impl Shared {
    /// End of stream: every declared producer finished, or no sender handle
    /// is left alive to ever produce more.
    fn stream_ended(&self, inner: &Inner) -> bool {
        inner.eos_seen >= self.producers || inner.handles == 0
    }
}

/// Mutex+Condvar producer handle (cloneable: multi-producer).
struct MpmcSender {
    shared: Arc<Shared>,
    /// Whether *this handle* already delivered its EOS marker; makes
    /// [`QueueSender::finish`] idempotent per handle (see the module docs on
    /// termination accounting).
    finished: AtomicBool,
}

impl Clone for MpmcSender {
    fn clone(&self) -> MpmcSender {
        self.shared.inner.lock().unwrap().handles += 1;
        MpmcSender { shared: Arc::clone(&self.shared), finished: AtomicBool::new(false) }
    }
}

impl Drop for MpmcSender {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock().unwrap();
        inner.handles -= 1;
        if inner.handles == 0 {
            // Last handle gone: wake a consumer waiting on a queue that will
            // never receive the outstanding finish() markers.
            self.shared.not_empty.notify_all();
        }
    }
}

impl MpmcSender {
    /// Sends one item, blocking while the queue is full. Returns `false` if
    /// the consumer is gone.
    fn send(&self, item: DataItem) -> bool {
        let metrics = &self.shared.metrics;
        let mut inner = self.shared.inner.lock().unwrap();
        if inner.buffer.len() >= self.shared.capacity && inner.consumer_alive {
            metrics.send_stalls.inc();
            let stalled_at = Instant::now();
            while inner.buffer.len() >= self.shared.capacity && inner.consumer_alive {
                inner = self.shared.not_full.wait(inner).unwrap();
            }
            metrics.stall_ns.add(stalled_at.elapsed().as_nanos() as u64);
        }
        if !inner.consumer_alive {
            return false;
        }
        inner.buffer.push_back(item);
        metrics.sent.inc();
        metrics.depth.add(1);
        self.shared.not_empty.notify_one();
        true
    }

    /// Sends a batch of items under a single lock acquisition, blocking in
    /// chunks while the queue is full. Items land in the buffer in vector
    /// order, indistinguishable from the same sequence of [`QueueSender::send`]
    /// calls — batching changes lock traffic, never observable FIFO order.
    /// Returns `false` (discarding the remainder) if the consumer is gone.
    fn send_batch(&self, items: Vec<DataItem>) -> bool {
        if items.is_empty() {
            return true;
        }
        let n = items.len();
        let metrics = &self.shared.metrics;
        let mut inner = self.shared.inner.lock().unwrap();
        let mut sent = 0u64;
        for item in items {
            if inner.buffer.len() >= self.shared.capacity && inner.consumer_alive {
                metrics.send_stalls.inc();
                let stalled_at = Instant::now();
                while inner.buffer.len() >= self.shared.capacity && inner.consumer_alive {
                    // The prefix pushed so far has not been announced yet —
                    // wake the consumer so it can drain and make room.
                    self.shared.not_empty.notify_one();
                    inner = self.shared.not_full.wait(inner).unwrap();
                }
                metrics.stall_ns.add(stalled_at.elapsed().as_nanos() as u64);
            }
            if !inner.consumer_alive {
                break;
            }
            inner.buffer.push_back(item);
            sent += 1;
        }
        if sent > 0 {
            metrics.sent.add(sent);
            metrics.depth.add(sent as i64);
            metrics.batch_sizes.record_ns(sent);
            self.shared.not_empty.notify_one();
        }
        sent == n as u64
    }

    /// Sends one item without blocking. `Ok(true)` means the item was
    /// enqueued; `Ok(false)` means the consumer is gone and the item was
    /// discarded (matching [`QueueSender::send`]); `Err(item)` returns the
    /// item because the queue is full. Backpressure stalls are *not*
    /// recorded: a rejected `try_send` costs the caller nothing, unlike a
    /// blocked `send` (used by the deterministic replay scheduler, which
    /// must never block).
    fn try_send(&self, item: DataItem) -> Result<bool, DataItem> {
        let mut inner = self.shared.inner.lock().unwrap();
        if !inner.consumer_alive {
            return Ok(false);
        }
        if inner.buffer.len() >= self.shared.capacity {
            return Err(item);
        }
        inner.buffer.push_back(item);
        self.shared.metrics.sent.inc();
        self.shared.metrics.depth.add(1);
        self.shared.not_empty.notify_one();
        Ok(true)
    }

    /// Whether a `try_send` would currently be accepted (the consumer is
    /// alive and the buffer has room). Advisory under concurrency; exact
    /// under a single-threaded scheduler.
    fn has_capacity(&self) -> bool {
        let inner = self.shared.inner.lock().unwrap();
        inner.consumer_alive && inner.buffer.len() < self.shared.capacity
    }

    /// Signals that this producer is done. Idempotent per handle: only the
    /// first call on a given handle counts towards the queue's EOS total.
    fn finish(&self) {
        if self.finished.swap(true, Ordering::SeqCst) {
            return;
        }
        let mut inner = self.shared.inner.lock().unwrap();
        inner.eos_seen += 1;
        if inner.eos_seen >= self.shared.producers {
            self.shared.not_empty.notify_all();
        }
    }
}

/// Mutex+Condvar consumer handle (single consumer).
struct MpmcReceiver {
    shared: Arc<Shared>,
}

impl Drop for MpmcReceiver {
    fn drop(&mut self) {
        let mut inner = self.shared.inner.lock().unwrap();
        inner.consumer_alive = false;
        // Unblock producers stuck on a full queue.
        self.shared.not_full.notify_all();
    }
}

impl MpmcReceiver {
    fn pop(&self, inner: &mut Inner) -> DataItem {
        let item = inner.buffer.pop_front().expect("pop on non-empty buffer");
        self.shared.metrics.received.inc();
        self.shared.metrics.depth.add(-1);
        self.shared.not_full.notify_one();
        item
    }

    /// Receives the next item, blocking until one is available or every
    /// producer finished (`None`).
    fn recv(&mut self) -> Option<DataItem> {
        let mut inner = self.shared.inner.lock().unwrap();
        loop {
            if !inner.buffer.is_empty() {
                return Some(self.pop(&mut inner));
            }
            if self.shared.stream_ended(&inner) {
                return None;
            }
            inner = self.shared.not_empty.wait(inner).unwrap();
        }
    }

    /// Receives up to `max` items under a single lock acquisition, blocking
    /// until at least one item is available or the stream ends (`None`). The
    /// call never waits for a *full* batch: whatever is buffered when the
    /// first item becomes available is drained, so batching adds no latency
    /// over repeated [`QueueReceiver::recv`] calls.
    fn recv_batch(&mut self, max: usize) -> Option<Vec<DataItem>> {
        let mut inner = self.shared.inner.lock().unwrap();
        loop {
            if let Some(batch) = self.pop_batch(&mut inner, max) {
                return Some(batch);
            }
            if self.shared.stream_ended(&inner) {
                return None;
            }
            inner = self.shared.not_empty.wait(inner).unwrap();
        }
    }

    /// Up to `max` buffered items, `None` when nothing is buffered.
    fn pop_batch(&self, inner: &mut Inner, max: usize) -> Option<Vec<DataItem>> {
        if inner.buffer.is_empty() {
            return None;
        }
        let n = inner.buffer.len().min(max.max(1));
        let batch: Vec<DataItem> = inner.buffer.drain(..n).collect();
        let metrics = &self.shared.metrics;
        metrics.received.add(n as u64);
        metrics.depth.add(-(n as i64));
        metrics.batch_sizes.record_ns(n as u64);
        self.shared.not_full.notify_all();
        Some(batch)
    }

    /// [`MpmcReceiver::recv_batch`] without the wait.
    fn try_recv_batch(&mut self, max: usize) -> Option<Vec<DataItem>> {
        let mut inner = self.shared.inner.lock().unwrap();
        self.pop_batch(&mut inner, max)
    }

    /// Receives without blocking: the front item if one is buffered,
    /// [`TryRecv::Ended`] once every producer finished (or vanished) and the
    /// buffer drained, [`TryRecv::Empty`] when the queue is merely empty but
    /// the stream is still open. Used by the deterministic replay scheduler,
    /// where a blocked `recv` on the single thread would deadlock the graph.
    fn try_recv(&mut self) -> TryRecv {
        let mut inner = self.shared.inner.lock().unwrap();
        if !inner.buffer.is_empty() {
            TryRecv::Item(self.pop(&mut inner))
        } else if self.shared.stream_ended(&inner) {
            TryRecv::Ended
        } else {
            TryRecv::Empty
        }
    }

    /// Like [`QueueReceiver::recv`] with a timeout; `Ok(None)` = end of
    /// stream, `Err(Timeout)` = nothing arrived in time.
    fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<DataItem>, Timeout> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.shared.inner.lock().unwrap();
        loop {
            if !inner.buffer.is_empty() {
                return Ok(Some(self.pop(&mut inner)));
            }
            if self.shared.stream_ended(&inner) {
                return Ok(None);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(Timeout);
            }
            let (guard, _) = self.shared.not_empty.wait_timeout(inner, deadline - now).unwrap();
            inner = guard;
        }
    }
}

/// Returned by [`QueueReceiver::recv_timeout`] when no item arrived in time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timeout;

/// Outcome of a non-blocking [`QueueReceiver::try_recv`].
#[derive(Debug, Clone, PartialEq)]
pub enum TryRecv {
    /// The front item of the buffer.
    Item(DataItem),
    /// Buffer empty, but producers may still send.
    Empty,
    /// Buffer empty and the stream is terminated (all EOS markers collected
    /// or no sender handle left).
    Ended,
}

/// Producer handle of a queue. Cloneable for MPMC queues (multi-producer);
/// cloning an SPSC sender panics — the ring has exactly one producer by
/// construction, and a second handle would silently corrupt its ordering
/// guarantees.
pub struct QueueSender(SenderImpl);

enum SenderImpl {
    Mpmc(MpmcSender),
    Spsc(crate::spsc::SpscSender),
}

impl Clone for QueueSender {
    fn clone(&self) -> QueueSender {
        match &self.0 {
            SenderImpl::Mpmc(tx) => QueueSender(SenderImpl::Mpmc(tx.clone())),
            SenderImpl::Spsc(_) => {
                panic!("SPSC queue senders are single-owner and cannot be cloned")
            }
        }
    }
}

impl QueueSender {
    /// Sends one item, blocking while the queue is full. Returns `false` if
    /// the consumer is gone.
    pub fn send(&self, item: DataItem) -> bool {
        match &self.0 {
            SenderImpl::Mpmc(tx) => tx.send(item),
            SenderImpl::Spsc(tx) => tx.send(item),
        }
    }

    /// Sends a batch of items, blocking while the queue is full. Items land
    /// in vector order, indistinguishable from the same sequence of
    /// [`QueueSender::send`] calls — batching changes lock/wake traffic,
    /// never observable FIFO order. Returns `false` (discarding the
    /// remainder) if the consumer is gone.
    pub fn send_batch(&self, items: Vec<DataItem>) -> bool {
        match &self.0 {
            SenderImpl::Mpmc(tx) => tx.send_batch(items),
            SenderImpl::Spsc(tx) => tx.send_batch(items),
        }
    }

    /// Sends one item without blocking. `Ok(true)` means the item was
    /// enqueued; `Ok(false)` means the consumer is gone and the item was
    /// discarded (matching [`QueueSender::send`]); `Err(item)` returns the
    /// item because the queue is full. Backpressure stalls are *not*
    /// recorded: a rejected `try_send` costs the caller nothing, unlike a
    /// blocked `send` (used by the deterministic replay scheduler, which
    /// must never block).
    pub fn try_send(&self, item: DataItem) -> Result<bool, DataItem> {
        match &self.0 {
            SenderImpl::Mpmc(tx) => tx.try_send(item),
            SenderImpl::Spsc(tx) => tx.try_send(item),
        }
    }

    /// Whether a `try_send` would currently be accepted (the consumer is
    /// alive and the buffer has room). Advisory under concurrency; exact
    /// under a single-threaded scheduler.
    pub fn has_capacity(&self) -> bool {
        match &self.0 {
            SenderImpl::Mpmc(tx) => tx.has_capacity(),
            SenderImpl::Spsc(tx) => tx.has_capacity(),
        }
    }

    /// Signals that this producer is done. Idempotent per handle: only the
    /// first call on a given handle counts towards the queue's EOS total.
    pub fn finish(&self) {
        match &self.0 {
            SenderImpl::Mpmc(tx) => tx.finish(),
            SenderImpl::Spsc(tx) => tx.finish(),
        }
    }

    /// Whether this sender feeds a lock-free SPSC ring (picked by
    /// [`materialize`](crate::runtime) for provably single-producer edges).
    pub fn is_spsc(&self) -> bool {
        matches!(self.0, SenderImpl::Spsc(_))
    }
}

/// Consumer handle of a queue (single consumer).
pub struct QueueReceiver(ReceiverImpl);

enum ReceiverImpl {
    Mpmc(MpmcReceiver),
    Spsc(crate::spsc::SpscReceiver),
}

impl QueueReceiver {
    /// Receives the next item, blocking until one is available or every
    /// producer finished (`None`).
    pub fn recv(&mut self) -> Option<DataItem> {
        match &mut self.0 {
            ReceiverImpl::Mpmc(rx) => rx.recv(),
            ReceiverImpl::Spsc(rx) => rx.recv(),
        }
    }

    /// Receives up to `max` items, blocking until at least one item is
    /// available or the stream ends (`None`). The call never waits for a
    /// *full* batch: whatever is buffered when the first item becomes
    /// available is drained, so batching adds no latency over repeated
    /// [`QueueReceiver::recv`] calls.
    pub fn recv_batch(&mut self, max: usize) -> Option<Vec<DataItem>> {
        match &mut self.0 {
            ReceiverImpl::Mpmc(rx) => rx.recv_batch(max),
            ReceiverImpl::Spsc(rx) => rx.recv_batch(max),
        }
    }

    /// [`QueueReceiver::recv_batch`] without the wait: whatever is buffered
    /// right now, up to `max` items, or `None` when that is nothing — the
    /// queue is empty, whether or not its producers have finished. The
    /// threaded pump asks this first, so that it learns its input edge ran
    /// dry *before* it parks in the blocking call.
    pub fn try_recv_batch(&mut self, max: usize) -> Option<Vec<DataItem>> {
        match &mut self.0 {
            ReceiverImpl::Mpmc(rx) => rx.try_recv_batch(max),
            ReceiverImpl::Spsc(rx) => rx.try_recv_batch(max),
        }
    }

    /// Receives without blocking: the front item if one is buffered,
    /// [`TryRecv::Ended`] once every producer finished (or vanished) and the
    /// buffer drained, [`TryRecv::Empty`] when the queue is merely empty but
    /// the stream is still open. Used by the deterministic replay scheduler,
    /// where a blocked `recv` on the single thread would deadlock the graph.
    pub fn try_recv(&mut self) -> TryRecv {
        match &mut self.0 {
            ReceiverImpl::Mpmc(rx) => rx.try_recv(),
            ReceiverImpl::Spsc(rx) => rx.try_recv(),
        }
    }

    /// Like [`QueueReceiver::recv`] with a timeout; `Ok(None)` = end of
    /// stream, `Err(Timeout)` = nothing arrived in time.
    pub fn recv_timeout(&mut self, timeout: Duration) -> Result<Option<DataItem>, Timeout> {
        match &mut self.0 {
            ReceiverImpl::Mpmc(rx) => rx.recv_timeout(timeout),
            ReceiverImpl::Spsc(rx) => rx.recv_timeout(timeout),
        }
    }
}

/// Creates a bounded queue for `producers` producers.
pub fn queue(capacity: usize, producers: usize) -> (QueueSender, QueueReceiver) {
    queue_with_metrics(capacity, producers, Arc::new(QueueMetrics::default()))
}

/// Like [`queue`], recording depth/throughput/backpressure into the given
/// instruments (typically obtained from a
/// [`MetricsRegistry`](crate::metrics::MetricsRegistry)).
pub fn queue_with_metrics(
    capacity: usize,
    producers: usize,
    metrics: Arc<QueueMetrics>,
) -> (QueueSender, QueueReceiver) {
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            buffer: VecDeque::new(),
            eos_seen: 0,
            handles: 1,
            consumer_alive: true,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
        capacity: capacity.max(1),
        producers,
        metrics,
    });
    (
        QueueSender(SenderImpl::Mpmc(MpmcSender {
            shared: Arc::clone(&shared),
            finished: AtomicBool::new(false),
        })),
        QueueReceiver(ReceiverImpl::Mpmc(MpmcReceiver { shared })),
    )
}

/// Creates a lock-free SPSC queue (see [`crate::spsc`]) behind the same
/// handle types. The runtime picks this flavour for edges with exactly one
/// declared producer; semantics (blocking, backpressure, termination, FIFO
/// order, metrics) match the MPMC queue with `producers = 1`.
pub fn spsc_queue_with_metrics(
    capacity: usize,
    metrics: Arc<QueueMetrics>,
) -> (QueueSender, QueueReceiver) {
    let (tx, rx) = crate::spsc::ring_with_metrics(capacity, metrics);
    (QueueSender(SenderImpl::Spsc(tx)), QueueReceiver(ReceiverImpl::Spsc(rx)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn items_then_eos() {
        let (tx, mut rx) = queue(4, 1);
        tx.send(DataItem::new().with("n", 1i64));
        tx.send(DataItem::new().with("n", 2i64));
        tx.finish();
        assert_eq!(rx.recv().unwrap().get_i64("n"), Some(1));
        assert_eq!(rx.recv().unwrap().get_i64("n"), Some(2));
        assert!(rx.recv().is_none());
        assert!(rx.recv().is_none(), "stays terminated");
    }

    #[test]
    fn waits_for_all_producers() {
        let (tx1, mut rx) = queue(4, 2);
        let tx2 = tx1.clone();
        tx1.send(DataItem::new().with("p", 1i64));
        tx1.finish();
        tx2.send(DataItem::new().with("p", 2i64));
        // One EOS received, still one producer alive: items flow.
        assert!(rx.recv().is_some());
        assert!(rx.recv().is_some());
        tx2.finish();
        assert!(rx.recv().is_none());
    }

    #[test]
    fn dropped_senders_terminate() {
        let (tx, mut rx) = queue(4, 1);
        drop(tx);
        assert!(rx.recv().is_none());
    }

    #[test]
    fn dropped_clone_without_finish_does_not_wedge() {
        // Regression: a cloned sender dropped without finish() (e.g. its
        // producer thread panicked) used to leave the consumer blocked
        // forever waiting for an EOS marker that can no longer arrive.
        let (tx1, mut rx) = queue(4, 2);
        let tx2 = tx1.clone();
        tx2.send(DataItem::new().with("n", 7i64));
        drop(tx2); // vanishes without finish()
        tx1.finish();
        std::thread::spawn(move || drop(tx1));
        assert_eq!(rx.recv().unwrap().get_i64("n"), Some(7), "buffered items still drain");
        assert!(rx.recv().is_none(), "stream ends once all handles are gone");
    }

    #[test]
    fn dropped_clone_after_finish_keeps_counting_once() {
        let (tx1, mut rx) = queue(4, 2);
        let tx2 = tx1.clone();
        tx2.finish();
        drop(tx2); // finish + drop of the same handle counts once
        assert!(
            rx.recv_timeout(Duration::from_millis(20)).is_err(),
            "one declared producer is still alive, stream must stay open"
        );
        tx1.finish();
        assert!(rx.recv().is_none());
    }

    #[test]
    fn double_finish_on_one_handle_counts_once() {
        // Regression: `finish()` called twice on the same handle used to
        // count as two producers finishing, terminating the stream while the
        // second declared producer was still live — its buffered items were
        // then silently stranded behind a `None`.
        let (tx1, mut rx) = queue(4, 2);
        let tx2 = tx1.clone();
        tx1.finish();
        tx1.finish(); // idempotent: still only one of two producers done
        assert!(
            rx.recv_timeout(Duration::from_millis(20)).is_err(),
            "stream must stay open for the second producer"
        );
        tx2.send(DataItem::new().with("n", 9i64));
        tx2.finish();
        assert_eq!(rx.recv().unwrap().get_i64("n"), Some(9), "late producer's item drains");
        assert!(rx.recv().is_none());
    }

    #[test]
    fn concurrent_finish_preserves_buffered_drain_order() {
        // Items buffered before any finish() must drain in exact send order
        // even while both producers race their EOS markers against the
        // consumer. Deterministic: all sends happen before the threads start.
        let (tx1, mut rx) = queue(8, 2);
        let tx2 = tx1.clone();
        for n in 0..3i64 {
            tx1.send(DataItem::new().with("n", n));
        }
        tx2.send(DataItem::new().with("n", 3i64));
        let h1 = std::thread::spawn(move || tx1.finish());
        let h2 = std::thread::spawn(move || tx2.finish());
        let drained: Vec<i64> =
            std::iter::from_fn(|| rx.recv()).map(|i| i.get_i64("n").unwrap()).collect();
        h1.join().unwrap();
        h2.join().unwrap();
        assert_eq!(drained, vec![0, 1, 2, 3], "FIFO order survives concurrent finish()");
    }

    #[test]
    fn try_send_and_try_recv_never_block() {
        let (tx, mut rx) = queue(1, 1);
        assert_eq!(rx.try_recv(), TryRecv::Empty);
        assert_eq!(tx.try_send(DataItem::new().with("n", 1i64)), Ok(true));
        assert!(!tx.has_capacity());
        // Full queue: the item comes back instead of blocking.
        let bounced = tx.try_send(DataItem::new().with("n", 2i64)).unwrap_err();
        assert_eq!(bounced.get_i64("n"), Some(2));
        assert_eq!(rx.try_recv(), TryRecv::Item(DataItem::new().with("n", 1i64)));
        assert!(tx.has_capacity());
        assert_eq!(rx.try_recv(), TryRecv::Empty, "open stream, empty buffer");
        tx.finish();
        assert_eq!(rx.try_recv(), TryRecv::Ended);
        assert_eq!(rx.try_recv(), TryRecv::Ended, "stays terminated");
    }

    #[test]
    fn try_send_to_dropped_receiver_discards() {
        let (tx, rx) = queue(1, 1);
        drop(rx);
        assert_eq!(tx.try_send(DataItem::new()), Ok(false), "consumer gone, item dropped");
    }

    #[test]
    fn timeout_variant() {
        let (tx, mut rx) = queue(4, 1);
        assert!(rx.recv_timeout(Duration::from_millis(10)).is_err(), "times out while empty");
        tx.send(DataItem::new());
        assert!(matches!(rx.recv_timeout(Duration::from_millis(10)), Ok(Some(_))));
        tx.finish();
        assert!(matches!(rx.recv_timeout(Duration::from_millis(10)), Ok(None)));
    }

    #[test]
    fn backpressure_blocks_until_consumed() {
        let (tx, mut rx) = queue(1, 1);
        tx.send(DataItem::new().with("n", 1i64));
        let handle = std::thread::spawn(move || {
            // This send blocks until the consumer drains one item.
            tx.send(DataItem::new().with("n", 2i64));
            tx.finish();
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv().unwrap().get_i64("n"), Some(1));
        assert_eq!(rx.recv().unwrap().get_i64("n"), Some(2));
        assert!(rx.recv().is_none());
        handle.join().unwrap();
    }

    #[test]
    fn send_to_dropped_receiver_returns_false() {
        let (tx, rx) = queue(1, 1);
        tx.send(DataItem::new().with("n", 1i64));
        drop(rx);
        assert!(!tx.send(DataItem::new().with("n", 2i64)), "consumer is gone");
    }

    #[test]
    fn batch_roundtrip_preserves_fifo_and_records_sizes() {
        let metrics = Arc::new(QueueMetrics::default());
        let (tx, mut rx) = queue_with_metrics(8, 1, Arc::clone(&metrics));
        assert!(tx.send_batch((0..5).map(|n| DataItem::new().with("n", n as i64)).collect()));
        assert!(tx.send_batch(Vec::new()), "empty batch is a no-op");
        let first = rx.recv_batch(3).unwrap();
        assert_eq!(first.iter().map(|i| i.get_i64("n").unwrap()).collect::<Vec<_>>(), [0, 1, 2]);
        let rest = rx.recv_batch(10).unwrap();
        assert_eq!(rest.iter().map(|i| i.get_i64("n").unwrap()).collect::<Vec<_>>(), [3, 4]);
        tx.finish();
        assert!(rx.recv_batch(4).is_none());
        assert_eq!(metrics.sent.get(), 5);
        assert_eq!(metrics.received.get(), 5);
        let sizes = metrics.batch_sizes.snapshot();
        // One send batch (5) + two recv batches (3, 2); the empty send did
        // not record a sample.
        assert_eq!(sizes.count, 3);
        assert_eq!(sizes.sum_ns, 10);
        assert_eq!(sizes.max_ns, 5);
    }

    #[test]
    fn send_batch_larger_than_capacity_drains_through() {
        // A batch bigger than the queue must interleave with the consumer
        // without deadlock and still arrive in order.
        let (tx, mut rx) = queue(2, 1);
        let producer = std::thread::spawn(move || {
            assert!(tx.send_batch((0..20).map(|n| DataItem::new().with("n", n as i64)).collect()));
            tx.finish();
        });
        let mut seen = Vec::new();
        while let Some(batch) = rx.recv_batch(4) {
            seen.extend(batch.iter().map(|i| i.get_i64("n").unwrap()));
        }
        producer.join().unwrap();
        assert_eq!(seen, (0..20).collect::<Vec<i64>>());
    }

    #[test]
    fn send_batch_to_dropped_receiver_returns_false() {
        let (tx, rx) = queue(4, 1);
        drop(rx);
        assert!(!tx.send_batch(vec![DataItem::new()]));
    }

    #[test]
    fn metrics_track_depth_throughput_and_stalls() {
        let metrics = Arc::new(QueueMetrics::default());
        let (tx, mut rx) = queue_with_metrics(1, 1, Arc::clone(&metrics));
        tx.send(DataItem::new().with("n", 1i64));
        let blocked = std::thread::spawn(move || {
            tx.send(DataItem::new().with("n", 2i64));
            tx.finish();
        });
        std::thread::sleep(Duration::from_millis(20));
        while rx.recv().is_some() {}
        blocked.join().unwrap();
        assert_eq!(metrics.sent.get(), 2);
        assert_eq!(metrics.received.get(), 2);
        assert_eq!(metrics.depth.get(), 0);
        assert_eq!(metrics.depth.high_water(), 1);
        assert_eq!(metrics.send_stalls.get(), 1);
        assert!(metrics.stall_ns.get() > 0, "the blocked send waited measurably");
    }
}
