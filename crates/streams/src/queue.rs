//! Queues: bounded channels connecting processes.
//!
//! Processes take *a stream or a queue* as input; queues also serve as the
//! outputs derived events are emitted to (the RTEC processor of the paper
//! emits CEs "to a queue in the Streams framework"). Queues are bounded,
//! providing backpressure, with any number of producers and one consumer.
//!
//! The surface is the five calls a worker makes, all of them on buffers the
//! caller keeps: [`QueueSender::send_batch`] and
//! [`QueueSender::try_send_batch`] move items out of one,
//! [`QueueReceiver::recv_batch`] and [`QueueReceiver::try_recv_batch`] append
//! to one, and [`QueueSender::finish`] ends a producer. A batch of one is
//! per-item transfer. The `try_` pair never waits: the threaded runtime's
//! worker pool and the replay scheduler step every queue-fed worker with it.
//! The runtime's source threads hand on through the blocking `send_batch`.
//!
//! # One ring per producer
//!
//! A queue with `k` producers is `k` lock-free single-producer rings, one per
//! [`QueueSender`], each with the declared capacity — so the capacity bounds
//! how far each producer may run ahead of the consumer, and a fan-in edge
//! never shares a lock between its producers. The one [`QueueReceiver`]
//! reads the rings round-robin: a receive starts at the ring after the last
//! one it took items from and moves on to the next ring while the batch has
//! room. Each ring is FIFO, so every producer's items arrive in its send
//! order; how the producers interleave is up to the schedule.
//!
//! A consumer with nothing to read parks on one doorbell that all of its
//! rings share, so whichever producer publishes first wakes it; a producer
//! facing a full ring parks on that ring's own doorbell, which the consumer
//! rings as it drains. The consumer's doorbell hears every publication, end
//! and drain of the queue, so the threaded runtime hands all of its queues
//! one doorbell: the one its worker pool parks on (see [`crate::runtime`]).
//!
//! # End of stream
//!
//! The stream ends once every ring is closed and drained. A sender closes its
//! own ring on [`QueueSender::finish`] or when dropped (a producer thread
//! that panicked can never send again), so a second `finish` — or a drop
//! after one — cannot end another producer's ring. Items a producer sent
//! before it closed are never lost: its ring is closed only after its last
//! publication, and a receive reports the end only once every ring it read
//! as closed is also empty. Senders cannot be cloned — each producer owns
//! the one handle of its ring:
//!
//! ```compile_fail,E0599
//! let (mut senders, _rx) = insight_streams::queue::queue(4, 1);
//! let tx = senders.pop().unwrap();
//! let _second = tx.clone();
//! ```

use crate::item::DataItem;
use crate::metrics::QueueMetrics;
use crate::source::Polled;
use crate::spsc::{spin_limit, Doorbell, Ring};
use std::sync::atomic::{fence, AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// What a queue's handles share: one ring per producer and the consumer's
/// doorbell.
struct Shared {
    rings: Box<[Ring]>,
    /// Where the consumer parks on an empty queue. Every producer rings it
    /// on each publication and on `finish`, the consumer on each drain.
    items: Arc<Doorbell>,
    consumer_alive: AtomicBool,
    metrics: Arc<QueueMetrics>,
}

/// Producer handle of a queue: owns one ring.
pub struct QueueSender {
    shared: Arc<Shared>,
    ring: usize,
}

impl Drop for QueueSender {
    fn drop(&mut self) {
        // A dropped producer can never send again; this is `finish()`.
        self.finish();
    }
}

impl QueueSender {
    fn ring(&self) -> &Ring {
        &self.shared.rings[self.ring]
    }

    /// Publishes the longest prefix of `items` that fits, records it and
    /// wakes the consumer. Returns how many items moved.
    fn push(&self, items: &mut Vec<DataItem>) -> usize {
        let n = self.ring().push_prefix(items);
        if n > 0 {
            let metrics = &self.shared.metrics;
            metrics.sent.add(n as u64);
            metrics.depth.add(n as i64);
            metrics.record_batch(n);
            self.shared.items.wake();
        }
        n
    }

    fn consumer_gone(&self, items: &mut Vec<DataItem>) -> bool {
        let gone = !self.shared.consumer_alive.load(Ordering::Acquire);
        if gone {
            items.clear();
        }
        gone
    }

    /// Sends every item of `items`, in order, blocking while this producer's
    /// ring is full, and leaves `items` empty with its capacity kept for the
    /// next batch. The items land in the ring exactly as the same items sent
    /// one batch of one at a time would — batching changes wake traffic,
    /// never the observable FIFO order. Returns `false` (discarding the
    /// remainder) if the consumer is gone.
    pub fn send_batch(&self, items: &mut Vec<DataItem>) -> bool {
        let mut spins = 0;
        while !items.is_empty() {
            if self.consumer_gone(items) {
                return false;
            }
            if self.push(items) > 0 {
                spins = 0;
            } else if spins < spin_limit() {
                spins += 1;
                std::hint::spin_loop();
            } else {
                self.wait_for_room();
            }
        }
        true
    }

    /// Parks until the ring has room or the consumer is gone. Counted as one
    /// backpressure stall.
    fn wait_for_room(&self) {
        let metrics = &self.shared.metrics;
        metrics.send_stalls.inc();
        let stalled_at = Instant::now();
        let ring = self.ring();
        ring.room
            .wait_until(|| !ring.is_full() || !self.shared.consumer_alive.load(Ordering::Relaxed));
        metrics.stall_ns.add(stalled_at.elapsed().as_nanos() as u64);
    }

    /// [`QueueSender::send_batch`] without the wait: sends the longest
    /// prefix of `items` that fits and hands back the rest, in order, in
    /// `items`. Returns `false` (discarding everything) if the consumer is
    /// gone. A full ring costs the caller nothing, so no backpressure stall
    /// is recorded.
    pub fn try_send_batch(&self, items: &mut Vec<DataItem>) -> bool {
        if self.consumer_gone(items) {
            return false;
        }
        self.push(items);
        true
    }

    /// Signals that this producer is done: closes its ring. Idempotent, and
    /// never affects another producer's ring.
    pub fn finish(&self) {
        self.ring().close();
        self.shared.items.wake();
    }
}

/// Consumer handle of a queue (single consumer): reads every producer's
/// ring.
pub struct QueueReceiver {
    shared: Arc<Shared>,
    /// The ring the next receive starts at.
    next: usize,
}

impl Drop for QueueReceiver {
    fn drop(&mut self) {
        self.shared.consumer_alive.store(false, Ordering::Release);
        // Unblock producers parked on a full ring.
        for ring in self.shared.rings.iter() {
            ring.room.wake();
        }
        self.shared.items.wake();
    }
}

impl QueueReceiver {
    /// Appends up to `max` items to `out`, blocking until at least one is
    /// available; returns how many, `0` once the stream has ended. The call
    /// never waits for a *full* batch: whatever is buffered when the first
    /// item becomes available is taken, so batching adds no latency over
    /// receiving one item at a time.
    pub fn recv_batch(&mut self, max: usize, out: &mut Vec<DataItem>) -> usize {
        let mut spins = 0;
        loop {
            match self.try_recv_batch(max, out) {
                Polled::Items(n) => return n,
                Polled::Ended => return 0,
                Polled::Pending if spins < spin_limit() => {
                    spins += 1;
                    std::hint::spin_loop();
                }
                Polled::Pending => {
                    let rings = &self.shared.rings;
                    self.shared.items.wait_until(|| {
                        rings.iter().any(Ring::has_items) || rings.iter().all(Ring::is_closed)
                    });
                }
            }
        }
    }

    /// [`QueueReceiver::recv_batch`] without the wait: [`Polled::Items`]
    /// when it appended what is buffered right now (up to `max`),
    /// [`Polled::Pending`] when every ring is empty but one is still open,
    /// [`Polled::Ended`] once every producer finished (or vanished) and every
    /// ring drained.
    pub fn try_recv_batch(&mut self, max: usize, out: &mut Vec<DataItem>) -> Polled {
        let rings = &self.shared.rings;
        let (max, start) = (max.max(1), self.next);
        let (mut taken, mut visited) = (0, 0);
        let mut ended = true;
        for i in 0..rings.len() {
            if taken == max {
                break;
            }
            visited += 1;
            let at = (start + i) % rings.len();
            let ring = &rings[at];
            // `closed` is stored after the ring's final push, so once it
            // reads true a pop that finds nothing means the ring has ended.
            let closed = ring.is_closed();
            let n = ring.pop_into(max - taken, out);
            if n > 0 {
                taken += n;
                self.next = at + 1;
            }
            ended &= closed && n == 0;
        }
        if taken == 0 {
            return if ended { Polled::Ended } else { Polled::Pending };
        }
        // One fence for every ring drained: their producers, and whoever
        // parks on the consumer's doorbell, may be waiting for the room. A
        // ring this receive found empty has no producer waiting for room.
        fence(Ordering::SeqCst);
        (start..start + visited).for_each(|i| rings[i % rings.len()].room.notify());
        self.shared.items.notify();
        let metrics = &self.shared.metrics;
        metrics.received.add(taken as u64);
        metrics.depth.add(-(taken as i64));
        metrics.record_batch(taken);
        Polled::Items(taken)
    }
}

/// Creates a bounded queue for `producers` producers: one sender per
/// producer, each with a ring of `capacity` items, and the receiver.
pub fn queue(capacity: usize, producers: usize) -> (Vec<QueueSender>, QueueReceiver) {
    queue_with_metrics(capacity, producers, Arc::new(QueueMetrics::default()))
}

/// Like [`queue`], recording depth/throughput/backpressure into the given
/// instruments (typically obtained from a
/// [`MetricsRegistry`](crate::metrics::MetricsRegistry)).
pub fn queue_with_metrics(
    capacity: usize,
    producers: usize,
    metrics: Arc<QueueMetrics>,
) -> (Vec<QueueSender>, QueueReceiver) {
    queue_on(capacity, producers, metrics, Arc::default())
}

/// Like [`queue_with_metrics`], with `items` as the consumer's doorbell.
pub(crate) fn queue_on(
    capacity: usize,
    producers: usize,
    metrics: Arc<QueueMetrics>,
    items: Arc<Doorbell>,
) -> (Vec<QueueSender>, QueueReceiver) {
    let shared = Arc::new(Shared {
        rings: (0..producers).map(|_| Ring::new(capacity)).collect(),
        items,
        consumer_alive: AtomicBool::new(true),
        metrics,
    });
    let senders = (0..producers).map(|ring| QueueSender { shared: Arc::clone(&shared), ring });
    (senders.collect(), QueueReceiver { shared, next: 0 })
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

    /// A single-producer queue.
    fn one(capacity: usize) -> (QueueSender, QueueReceiver) {
        let (mut senders, rx) = queue(capacity, 1);
        (senders.pop().unwrap(), rx)
    }

    #[test]
    fn items_then_eos() {
        let (tx, mut rx) = one(4);
        send(&tx, 1);
        send(&tx, 2);
        tx.finish();
        assert_eq!(recv(&mut rx), Some(1));
        assert_eq!(recv(&mut rx), Some(2));
        assert!(recv(&mut rx).is_none());
        assert!(recv(&mut rx).is_none(), "stays terminated");
    }

    #[test]
    fn waits_for_every_producer() {
        for k in [2, 5] {
            let (senders, mut rx) = queue(4, k);
            for (p, tx) in senders.iter().enumerate() {
                send(tx, p as i64);
            }
            // All but the last producer finish: their items still flow and
            // the stream stays open for the last one.
            for tx in &senders[..k - 1] {
                tx.finish();
            }
            let mut got: Vec<i64> = (0..k).map(|_| recv(&mut rx).unwrap()).collect();
            got.sort_unstable();
            assert_eq!(got, (0..k as i64).collect::<Vec<_>>());
            assert_eq!(rx.try_recv_batch(1, &mut Vec::new()), Polled::Pending, "k = {k}");
            send(&senders[k - 1], 99);
            senders[k - 1].finish();
            assert_eq!(recv(&mut rx), Some(99));
            assert!(recv(&mut rx).is_none(), "k = {k}: ends once every ring is closed");
        }
    }

    #[test]
    fn ends_when_every_sender_is_dropped_without_finish() {
        for k in [2, 5] {
            let (senders, mut rx) = queue(4, k);
            send(&senders[0], 7);
            let dropper = std::thread::spawn(move || drop(senders));
            assert_eq!(recv(&mut rx), Some(7), "buffered items still drain");
            assert!(recv(&mut rx).is_none(), "k = {k}: ends once every sender is gone");
            dropper.join().unwrap();
        }
    }

    #[test]
    fn double_finish_does_not_end_another_producers_ring() {
        for k in [2, 5] {
            let (mut senders, mut rx) = queue(4, k);
            let last = senders.pop().unwrap();
            for tx in senders {
                tx.finish();
                tx.finish();
                drop(tx); // finish + drop of one sender closes one ring
            }
            assert_eq!(
                rx.try_recv_batch(1, &mut Vec::new()),
                Polled::Pending,
                "k = {k}: the stream stays open for the last producer"
            );
            send(&last, 9);
            last.finish();
            assert_eq!(recv(&mut rx), Some(9), "late producer's item drains");
            assert!(recv(&mut rx).is_none());
        }
    }

    #[test]
    fn dropping_the_consumer_unblocks_every_blocked_producer() {
        for k in [1, 2, 5] {
            let metrics = Arc::new(QueueMetrics::default());
            let (senders, rx) = queue_with_metrics(1, k, Arc::clone(&metrics));
            let blocked: Vec<_> = senders
                .into_iter()
                .map(|tx| {
                    std::thread::spawn(move || {
                        assert!(send(&tx, 1));
                        // The ring is full: this parks until the receiver goes.
                        assert!(!send(&tx, 2), "consumer gone");
                        let mut batch = vec![item(3)];
                        assert!(!tx.try_send_batch(&mut batch), "discards after death");
                        assert!(batch.is_empty());
                    })
                })
                .collect();
            // Every producer filled its ring and is about to park (or parked).
            while metrics.send_stalls.get() < k as u64 {
                std::thread::yield_now();
            }
            drop(rx);
            for producer in blocked {
                producer.join().unwrap();
            }
        }
    }

    #[test]
    fn try_recv_batch_tells_pending_from_ended() {
        for k in [1, 2, 5] {
            let (senders, mut rx) = queue(2, k);
            let mut out = Vec::new();
            assert_eq!(rx.try_recv_batch(4, &mut out), Polled::Pending);
            send(&senders[k - 1], 1);
            assert_eq!(rx.try_recv_batch(4, &mut out), Polled::Items(1));
            assert_eq!(rx.try_recv_batch(4, &mut out), Polled::Pending, "open, empty");
            for tx in &senders {
                tx.finish();
            }
            assert_eq!(rx.try_recv_batch(4, &mut out), Polled::Ended);
            assert_eq!(rx.try_recv_batch(4, &mut out), Polled::Ended, "stays terminated");
        }
    }

    #[test]
    fn receives_round_robin_across_rings() {
        let (senders, mut rx) = queue(8, 3);
        for (p, tx) in senders.iter().enumerate() {
            tx.send_batch(&mut (0..4).map(|n| item(10 * p as i64 + n)).collect());
        }
        let mut out = Vec::new();
        let mut take = |rx: &mut QueueReceiver, max| {
            out.clear();
            rx.try_recv_batch(max, &mut out);
            out.iter().map(|i| i.get_i64("n").unwrap()).collect::<Vec<_>>()
        };
        assert_eq!(take(&mut rx, 3), [0, 1, 2], "a batch fills from one ring first");
        assert_eq!(take(&mut rx, 3), [10, 11, 12], "the next receive starts at the next ring");
        assert_eq!(take(&mut rx, 5), [20, 21, 22, 23, 3], "and moves on while there is room");
        assert_eq!(take(&mut rx, 5), [13]);
        assert!(take(&mut rx, 5).is_empty());
    }

    #[test]
    fn concurrent_finish_preserves_buffered_drain_order() {
        // Items buffered before any finish() must drain in each producer's
        // send order even while both producers race their end of stream
        // against the consumer.
        let (mut senders, mut rx) = queue(8, 2);
        for n in 0..3 {
            send(&senders[0], n);
        }
        send(&senders[1], 3);
        let finishers: Vec<_> =
            senders.drain(..).map(|tx| std::thread::spawn(move || tx.finish())).collect();
        let drained: Vec<i64> = std::iter::from_fn(|| recv(&mut rx)).collect();
        finishers.into_iter().for_each(|h| h.join().unwrap());
        let first: Vec<i64> = drained.iter().copied().filter(|&n| n < 3).collect();
        assert_eq!(first, [0, 1, 2], "per-producer FIFO survives concurrent finish()");
        assert_eq!(drained.len(), 4);
    }

    #[test]
    fn close_racing_with_last_push_never_loses_items() {
        for _ in 0..200 {
            let (tx, mut rx) = one(8);
            let producer = std::thread::spawn(move || {
                for n in 0..5 {
                    send(&tx, n);
                }
                // finish() happens via drop, racing with the consumer.
            });
            let got: Vec<i64> = std::iter::from_fn(|| recv(&mut rx)).collect();
            producer.join().unwrap();
            assert_eq!(got, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn try_calls_never_block() {
        let (tx, mut rx) = one(1);
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
    }

    #[test]
    fn try_send_to_dropped_receiver_discards() {
        let (tx, rx) = one(1);
        drop(rx);
        let mut batch = vec![item(1), item(2)];
        assert!(!tx.try_send_batch(&mut batch), "consumer gone");
        assert!(batch.is_empty(), "items dropped");
        assert!(!tx.send_batch(&mut vec![item(3)]), "blocking send fails too");
    }

    #[test]
    fn backpressure_blocks_until_consumed() {
        let (tx, mut rx) = one(1);
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
    fn batch_roundtrip_preserves_fifo_and_records_sizes() {
        let metrics = Arc::new(QueueMetrics::default());
        let (mut senders, mut rx) = queue_with_metrics(8, 1, Arc::clone(&metrics));
        let tx = senders.pop().unwrap();
        let mut batch: Vec<DataItem> = (0..5).map(item).collect();
        assert!(tx.send_batch(&mut batch));
        assert!(batch.is_empty() && batch.capacity() >= 5, "drained, capacity kept");
        assert!(tx.send_batch(&mut batch), "empty batch is a no-op");
        let mut out = Vec::new();
        assert_eq!(rx.recv_batch(3, &mut out), 3);
        assert_eq!(rx.recv_batch(10, &mut out), 2, "short batch, no waiting");
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
        // A batch bigger than the ring must interleave with the consumer
        // without deadlock and still arrive in order.
        let (tx, mut rx) = one(2);
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
    fn metrics_track_depth_throughput_and_stalls() {
        let metrics = Arc::new(QueueMetrics::default());
        let (mut senders, mut rx) = queue_with_metrics(1, 1, Arc::clone(&metrics));
        let tx = senders.pop().unwrap();
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
