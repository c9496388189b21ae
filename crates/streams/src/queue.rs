//! Queues: bounded channels connecting processes.
//!
//! Processes take *a stream or a queue* as input; queues also serve as the
//! outputs derived events are emitted to (the RTEC processor of the paper
//! emits CEs "to a queue in the Streams framework"). Queues are bounded,
//! providing backpressure, multi-producer and single-consumer.
//!
//! The surface is the five calls a worker makes, all of them on buffers the
//! caller keeps: [`QueueSender::send_batch`] and
//! [`QueueSender::try_send_batch`] move items out of one,
//! [`QueueReceiver::recv_batch`] and [`QueueReceiver::try_recv_batch`] append
//! to one, and [`QueueSender::finish`] ends a producer. A batch of one is
//! per-item transfer. The threaded runtime waits in the blocking pair; the
//! `try_` pair never waits, which is what the replay scheduler needs and how
//! a threaded worker learns that its input ran dry before it parks.
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
//! Items buffered before *any* `finish()` call are never lost: a receive
//! reports the end only once the buffer is empty **and** one of the two
//! conditions above holds, so concurrent `finish()` calls racing with
//! in-flight sends cannot reorder or drop the already-buffered prefix — the
//! per-producer FIFO order of the buffer is exactly send order.

use crate::item::DataItem;
use crate::metrics::QueueMetrics;
use crate::source::Polled;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

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
    /// See [`QueueSender::send_batch`]: one lock acquisition, released only
    /// while waiting for room.
    fn send_batch(&self, items: &mut Vec<DataItem>) -> bool {
        if items.is_empty() {
            return true;
        }
        let n = items.len();
        let metrics = &self.shared.metrics;
        let mut inner = self.shared.inner.lock().unwrap();
        let mut sent = 0;
        for item in items.drain(..) {
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
            metrics.sent.add(sent as u64);
            metrics.depth.add(sent as i64);
            metrics.record_batch(sent);
            self.shared.not_empty.notify_one();
        }
        sent == n
    }

    /// See [`QueueSender::try_send_batch`].
    fn try_send_batch(&self, items: &mut Vec<DataItem>) -> bool {
        let mut inner = self.shared.inner.lock().unwrap();
        if !inner.consumer_alive {
            items.clear();
            return false;
        }
        let n = self.shared.capacity.saturating_sub(inner.buffer.len()).min(items.len());
        if n > 0 {
            inner.buffer.extend(items.drain(..n));
            let metrics = &self.shared.metrics;
            metrics.sent.add(n as u64);
            metrics.depth.add(n as i64);
            metrics.record_batch(n);
            self.shared.not_empty.notify_one();
        }
        true
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
    /// Moves up to `max` buffered items to `out`; returns how many.
    fn pop_into(&self, inner: &mut Inner, max: usize, out: &mut Vec<DataItem>) -> usize {
        let n = inner.buffer.len().min(max.max(1));
        if n > 0 {
            out.extend(inner.buffer.drain(..n));
            let metrics = &self.shared.metrics;
            metrics.received.add(n as u64);
            metrics.depth.add(-(n as i64));
            metrics.record_batch(n);
            self.shared.not_full.notify_all();
        }
        n
    }

    /// See [`QueueReceiver::recv_batch`].
    fn recv_batch(&mut self, max: usize, out: &mut Vec<DataItem>) -> usize {
        let mut inner = self.shared.inner.lock().unwrap();
        loop {
            let n = self.pop_into(&mut inner, max, out);
            if n > 0 || self.shared.stream_ended(&inner) {
                return n;
            }
            inner = self.shared.not_empty.wait(inner).unwrap();
        }
    }

    /// See [`QueueReceiver::try_recv_batch`].
    fn try_recv_batch(&mut self, max: usize, out: &mut Vec<DataItem>) -> Polled {
        let mut inner = self.shared.inner.lock().unwrap();
        match self.pop_into(&mut inner, max, out) {
            0 if self.shared.stream_ended(&inner) => Polled::Ended,
            0 => Polled::Pending,
            n => Polled::Items(n),
        }
    }
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
    /// Sends every item of `items`, in order, blocking while the queue is
    /// full, and leaves `items` empty with its capacity kept for the next
    /// batch. The items land in the buffer exactly as the same items sent
    /// one batch of one at a time would — batching changes lock and wake
    /// traffic, never the observable FIFO order. Returns `false` (discarding
    /// the remainder) if the consumer is gone.
    pub fn send_batch(&self, items: &mut Vec<DataItem>) -> bool {
        match &self.0 {
            SenderImpl::Mpmc(tx) => tx.send_batch(items),
            SenderImpl::Spsc(tx) => tx.send_batch(items),
        }
    }

    /// [`QueueSender::send_batch`] without the wait: sends the longest
    /// prefix of `items` that fits and hands back the rest, in order, in
    /// `items`. Returns `false` (discarding everything) if the consumer is
    /// gone. A full queue costs the caller nothing, so no backpressure stall
    /// is recorded.
    pub fn try_send_batch(&self, items: &mut Vec<DataItem>) -> bool {
        match &self.0 {
            SenderImpl::Mpmc(tx) => tx.try_send_batch(items),
            SenderImpl::Spsc(tx) => tx.try_send_batch(items),
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
}

/// Consumer handle of a queue (single consumer).
pub struct QueueReceiver(ReceiverImpl);

enum ReceiverImpl {
    Mpmc(MpmcReceiver),
    Spsc(crate::spsc::SpscReceiver),
}

impl QueueReceiver {
    /// Appends up to `max` items to `out`, blocking until at least one is
    /// available; returns how many, `0` once the stream has ended. The call
    /// never waits for a *full* batch: whatever is buffered when the first
    /// item becomes available is taken, so batching adds no latency over
    /// receiving one item at a time.
    pub fn recv_batch(&mut self, max: usize, out: &mut Vec<DataItem>) -> usize {
        match &mut self.0 {
            ReceiverImpl::Mpmc(rx) => rx.recv_batch(max, out),
            ReceiverImpl::Spsc(rx) => rx.recv_batch(max, out),
        }
    }

    /// [`QueueReceiver::recv_batch`] without the wait: [`Polled::Items`]
    /// when it appended what is buffered right now (up to `max`),
    /// [`Polled::Pending`] when the queue is empty but the stream is open,
    /// [`Polled::Ended`] once every producer finished (or vanished) and the
    /// buffer drained.
    pub fn try_recv_batch(&mut self, max: usize, out: &mut Vec<DataItem>) -> Polled {
        match &mut self.0 {
            ReceiverImpl::Mpmc(rx) => rx.try_recv_batch(max, out),
            ReceiverImpl::Spsc(rx) => rx.try_recv_batch(max, out),
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
    use std::time::Duration;

    fn item(n: i64) -> DataItem {
        DataItem::new().with("n", n)
    }

    /// Sends one item (a batch of one).
    fn send(tx: &QueueSender, n: i64) -> bool {
        tx.send_batch(&mut vec![item(n)])
    }

    /// Receives one item (a batch of one); `None` once the stream ended.
    fn recv(rx: &mut QueueReceiver) -> Option<i64> {
        let mut out = Vec::new();
        rx.recv_batch(1, &mut out);
        out.pop().map(|i| i.get_i64("n").unwrap())
    }

    #[test]
    fn items_then_eos() {
        let (tx, mut rx) = queue(4, 1);
        send(&tx, 1);
        send(&tx, 2);
        tx.finish();
        assert_eq!(recv(&mut rx), Some(1));
        assert_eq!(recv(&mut rx), Some(2));
        assert!(recv(&mut rx).is_none());
        assert!(recv(&mut rx).is_none(), "stays terminated");
    }

    #[test]
    fn waits_for_all_producers() {
        let (tx1, mut rx) = queue(4, 2);
        let tx2 = tx1.clone();
        send(&tx1, 1);
        tx1.finish();
        send(&tx2, 2);
        // One EOS received, still one producer alive: items flow.
        assert!(recv(&mut rx).is_some());
        assert!(recv(&mut rx).is_some());
        tx2.finish();
        assert!(recv(&mut rx).is_none());
    }

    #[test]
    fn dropped_senders_terminate() {
        let (tx, mut rx) = queue(4, 1);
        drop(tx);
        assert!(recv(&mut rx).is_none());
    }

    #[test]
    fn dropped_clone_without_finish_does_not_wedge() {
        // Regression: a cloned sender dropped without finish() (e.g. its
        // producer thread panicked) used to leave the consumer blocked
        // forever waiting for an EOS marker that can no longer arrive.
        let (tx1, mut rx) = queue(4, 2);
        let tx2 = tx1.clone();
        send(&tx2, 7);
        drop(tx2); // vanishes without finish()
        tx1.finish();
        std::thread::spawn(move || drop(tx1));
        assert_eq!(recv(&mut rx), Some(7), "buffered items still drain");
        assert!(recv(&mut rx).is_none(), "stream ends once all handles are gone");
    }

    #[test]
    fn dropped_clone_after_finish_keeps_counting_once() {
        let (tx1, mut rx) = queue(4, 2);
        let tx2 = tx1.clone();
        tx2.finish();
        drop(tx2); // finish + drop of the same handle counts once
        assert_eq!(
            rx.try_recv_batch(1, &mut Vec::new()),
            Polled::Pending,
            "one declared producer is still alive, stream must stay open"
        );
        tx1.finish();
        assert!(recv(&mut rx).is_none());
    }

    #[test]
    fn double_finish_on_one_handle_counts_once() {
        // Regression: `finish()` called twice on the same handle used to
        // count as two producers finishing, terminating the stream while the
        // second declared producer was still live — its buffered items were
        // then silently stranded behind an end-of-stream.
        let (tx1, mut rx) = queue(4, 2);
        let tx2 = tx1.clone();
        tx1.finish();
        tx1.finish(); // idempotent: still only one of two producers done
        assert_eq!(
            rx.try_recv_batch(1, &mut Vec::new()),
            Polled::Pending,
            "stream must stay open for the second producer"
        );
        send(&tx2, 9);
        tx2.finish();
        assert_eq!(recv(&mut rx), Some(9), "late producer's item drains");
        assert!(recv(&mut rx).is_none());
    }

    #[test]
    fn concurrent_finish_preserves_buffered_drain_order() {
        // Items buffered before any finish() must drain in exact send order
        // even while both producers race their EOS markers against the
        // consumer. Deterministic: all sends happen before the threads start.
        let (tx1, mut rx) = queue(8, 2);
        let tx2 = tx1.clone();
        for n in 0..3 {
            send(&tx1, n);
        }
        send(&tx2, 3);
        let h1 = std::thread::spawn(move || tx1.finish());
        let h2 = std::thread::spawn(move || tx2.finish());
        let drained: Vec<i64> = std::iter::from_fn(|| recv(&mut rx)).collect();
        h1.join().unwrap();
        h2.join().unwrap();
        assert_eq!(drained, vec![0, 1, 2, 3], "FIFO order survives concurrent finish()");
    }

    #[test]
    fn try_calls_never_block() {
        let (tx, mut rx) = queue(1, 1);
        let mut out = Vec::new();
        assert_eq!(rx.try_recv_batch(4, &mut out), Polled::Pending);
        // Full queue: what did not fit comes back instead of blocking.
        let mut batch = vec![item(1), item(2)];
        assert!(tx.try_send_batch(&mut batch));
        assert_eq!(batch.len(), 1, "the second item did not fit");
        assert_eq!(batch[0].get_i64("n"), Some(2));
        assert_eq!(rx.try_recv_batch(4, &mut out), Polled::Items(1));
        assert_eq!(out.pop().unwrap().get_i64("n"), Some(1));
        assert!(tx.try_send_batch(&mut batch));
        assert!(batch.is_empty(), "room again");
        assert_eq!(rx.try_recv_batch(4, &mut out), Polled::Items(1));
        assert_eq!(rx.try_recv_batch(4, &mut out), Polled::Pending, "open stream, empty buffer");
        tx.finish();
        assert_eq!(rx.try_recv_batch(4, &mut out), Polled::Ended);
        assert_eq!(rx.try_recv_batch(4, &mut out), Polled::Ended, "stays terminated");
    }

    #[test]
    fn try_send_to_dropped_receiver_discards() {
        let (tx, rx) = queue(1, 1);
        drop(rx);
        let mut batch = vec![item(1), item(2)];
        assert!(!tx.try_send_batch(&mut batch), "consumer gone");
        assert!(batch.is_empty(), "items dropped");
    }

    #[test]
    fn backpressure_blocks_until_consumed() {
        let (tx, mut rx) = queue(1, 1);
        send(&tx, 1);
        let handle = std::thread::spawn(move || {
            // This send blocks until the consumer drains one item.
            send(&tx, 2);
            tx.finish();
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(recv(&mut rx), Some(1));
        assert_eq!(recv(&mut rx), Some(2));
        assert!(recv(&mut rx).is_none());
        handle.join().unwrap();
    }

    #[test]
    fn send_to_dropped_receiver_returns_false() {
        let (tx, rx) = queue(1, 1);
        send(&tx, 1);
        drop(rx);
        assert!(!send(&tx, 2), "consumer is gone");
    }

    #[test]
    fn batch_roundtrip_preserves_fifo_and_records_sizes() {
        let metrics = Arc::new(QueueMetrics::default());
        let (tx, mut rx) = queue_with_metrics(8, 1, Arc::clone(&metrics));
        let mut batch: Vec<DataItem> = (0..5).map(item).collect();
        assert!(tx.send_batch(&mut batch));
        assert!(batch.is_empty() && batch.capacity() >= 5, "drained, capacity kept");
        assert!(tx.send_batch(&mut batch), "empty batch is a no-op");
        let mut out = Vec::new();
        assert_eq!(rx.recv_batch(3, &mut out), 3);
        assert_eq!(rx.recv_batch(10, &mut out), 2);
        assert_eq!(
            out.iter().map(|i| i.get_i64("n").unwrap()).collect::<Vec<_>>(),
            [0, 1, 2, 3, 4]
        );
        send(&tx, 5);
        assert_eq!(rx.recv_batch(10, &mut out), 1);
        tx.finish();
        assert_eq!(rx.recv_batch(4, &mut out), 0);
        assert_eq!(metrics.sent.get(), 6);
        assert_eq!(metrics.received.get(), 6);
        let sizes = metrics.batch_sizes.snapshot();
        // One send batch (5) + two recv batches (3, 2); the empty send and
        // the transfers of a single item record no sample.
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
            assert!(tx.send_batch(&mut (0..20).map(item).collect()));
            tx.finish();
        });
        let mut seen = Vec::new();
        while rx.recv_batch(4, &mut seen) > 0 {}
        producer.join().unwrap();
        assert_eq!(
            seen.iter().map(|i| i.get_i64("n").unwrap()).collect::<Vec<_>>(),
            (0..20).collect::<Vec<i64>>()
        );
    }

    #[test]
    fn send_batch_to_dropped_receiver_returns_false() {
        let (tx, rx) = queue(4, 1);
        drop(rx);
        assert!(!tx.send_batch(&mut vec![DataItem::new()]));
    }

    #[test]
    fn metrics_track_depth_throughput_and_stalls() {
        let metrics = Arc::new(QueueMetrics::default());
        let (tx, mut rx) = queue_with_metrics(1, 1, Arc::clone(&metrics));
        send(&tx, 1);
        let blocked = std::thread::spawn(move || {
            send(&tx, 2);
            tx.finish();
        });
        std::thread::sleep(Duration::from_millis(20));
        while recv(&mut rx).is_some() {}
        blocked.join().unwrap();
        assert_eq!(metrics.sent.get(), 2);
        assert_eq!(metrics.received.get(), 2);
        assert_eq!(metrics.depth.get(), 0);
        assert_eq!(metrics.depth.high_water(), 1);
        assert_eq!(metrics.send_stalls.get(), 1);
        assert!(metrics.stall_ns.get() > 0, "the blocked send waited measurably");
        assert_eq!(metrics.batch_sizes.snapshot().count, 0, "per-item transfer records no batch");
    }
}
