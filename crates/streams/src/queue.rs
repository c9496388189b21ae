//! Queues: bounded channels connecting processes.
//!
//! Processes take *a stream or a queue* as input; queues also serve as the
//! outputs derived events are emitted to (the RTEC processor of the paper
//! emits CEs "to a queue in the Streams framework"). Queues are bounded,
//! providing backpressure, with any number of producers and one consumer.
//!
//! The surface is the five calls a worker makes, all of them on buffers the
//! caller keeps: [`QueueSender::send_batch`] and
//! `QueueSender::try_send_batch` move items out of one,
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
//! # Ordered receive
//!
//! The merge queue of a replicated stage (see [`crate::partition`]) is read
//! in `(seq, sub)` order instead. Each shard's ring is sorted, so the
//! receiver pops the smallest head once every other ring has nothing
//! smaller to come: it has a head (which is larger), it is closed and
//! drained, or its producer's *progress* — a counter the producer stores on
//! its ring after the pushes it covers — is past that sequence number.
//! Unsequenced items (what a shard's `finish` emitted) come last, ring by
//! ring, once no ring can deliver sequenced data any more. The runtime makes
//! a queue ordered because a merge consumes it; it is not an option.
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

use crate::item::{DataItem, Stamp};
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
    pub(crate) fn try_send_batch(&self, items: &mut Vec<DataItem>) -> bool {
        if self.consumer_gone(items) {
            return false;
        }
        self.push(items);
        true
    }

    /// Publishes this producer's sequence progress: every item it will send
    /// sequenced below `to` has been sent (see [`crate::partition`]). Wakes
    /// the consumer and returns `true` if the progress rose.
    pub(crate) fn advance(&self, to: i64) -> bool {
        let rose = self.ring().advance(to);
        if rose {
            self.shared.items.wake();
        }
        rose
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
    /// The ring the next round-robin receive starts at.
    next: usize,
    /// Receive in sequence order: the merge queue of a replicated stage.
    ordered: bool,
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
        let mut polled = Polled::Pending;
        for _ in 0..=spin_limit() {
            polled = self.try_recv_batch(max, out);
            if polled != Polled::Pending {
                break;
            }
            std::hint::spin_loop();
        }
        if polled == Polled::Pending {
            let items = Arc::clone(&self.shared.items);
            items.wait_until(|| {
                polled = self.try_recv_batch(max, out);
                polled != Polled::Pending
            });
        }
        match polled {
            Polled::Items(n) => n,
            _ => 0,
        }
    }

    /// Whether this receiver pops in sequence order (a merge queue).
    pub(crate) fn is_ordered(&self) -> bool {
        self.ordered
    }

    /// The lowest sequence progress its producers published (see
    /// [`QueueSender::advance`]).
    pub(crate) fn progress(&self) -> i64 {
        self.shared.rings.iter().map(Ring::progress).min().unwrap_or(i64::MAX)
    }

    /// [`QueueReceiver::recv_batch`] without the wait: [`Polled::Items`]
    /// when it appended what may be received right now (up to `max`),
    /// [`Polled::Pending`] when nothing may be but a ring is still open,
    /// [`Polled::Ended`] once every producer finished (or vanished) and every
    /// ring drained.
    pub fn try_recv_batch(&mut self, max: usize, out: &mut Vec<DataItem>) -> Polled {
        let max = max.max(1);
        let (taken, ended) = if self.ordered {
            self.take_ordered(max, out)
        } else {
            self.take_round_robin(max, out)
        };
        if taken == 0 {
            return if ended { Polled::Ended } else { Polled::Pending };
        }
        // One fence for every ring drained: their producers, and whoever
        // parks on the consumer's doorbell, may be waiting for the room.
        fence(Ordering::SeqCst);
        self.shared.rings.iter().for_each(|ring| ring.room.notify());
        self.shared.items.notify();
        let metrics = &self.shared.metrics;
        metrics.received.add(taken as u64);
        metrics.depth.add(-(taken as i64));
        metrics.record_batch(taken);
        Polled::Items(taken)
    }

    /// Takes up to `max` items round-robin (see the module docs). Returns
    /// how many, and whether every ring has ended.
    fn take_round_robin(&mut self, max: usize, out: &mut Vec<DataItem>) -> (usize, bool) {
        let rings = &self.shared.rings;
        let (mut taken, mut ended) = (0, true);
        let start = self.next;
        for i in 0..rings.len() {
            if taken == max {
                return (taken, false);
            }
            let at = (start + i) % rings.len();
            // `closed` is stored after the ring's final push, so once it
            // reads true a pop that finds nothing means the ring has ended.
            let closed = rings[at].is_closed();
            let n = rings[at].pop_into(max - taken, out);
            if n > 0 {
                taken += n;
                self.next = at + 1;
            }
            ended &= closed && n == 0;
        }
        (taken, ended)
    }

    /// Takes up to `max` items in `(seq, sub)` order, then the unsequenced
    /// ones ring by ring (see the module docs). Returns how many, and whether
    /// every ring has ended.
    fn take_ordered(&mut self, max: usize, out: &mut Vec<DataItem>) -> (usize, bool) {
        let rings = &self.shared.rings;
        let mut taken = 0;
        while taken < max {
            // Each ring's limit: no sequence number below it can still arrive
            // there. The two lowest limits give every ring the lowest of the
            // others'.
            let (mut lowest, mut second) = ((i64::MAX, usize::MAX), i64::MAX);
            let mut first_seq: Option<(i64, u32, usize)> = None;
            let (mut trailing, mut open_empty) = (None, false);
            for (j, ring) in rings.iter().enumerate() {
                // Read `closed` and the progress before the head: each is
                // stored after the pushes it covers.
                let closed = ring.is_closed();
                let progress = ring.progress();
                let limit = match ring.head_stamp() {
                    Some(Stamp::Seq { seq, sub }) => {
                        if first_seq.is_none_or(|(s, u, _)| (seq, sub) < (s, u)) {
                            first_seq = Some((seq, sub, j));
                        }
                        seq
                    }
                    Some(Stamp::None) => {
                        trailing = trailing.or(Some(j));
                        i64::MAX
                    }
                    None if closed => i64::MAX,
                    None => {
                        open_empty = true;
                        progress
                    }
                };
                if limit < lowest.0 {
                    second = lowest.0;
                    lowest = (limit, j);
                } else {
                    second = second.min(limit);
                }
            }
            let n = match (first_seq, trailing) {
                (Some((_, _, c)), _) => {
                    let bound = if lowest.1 == c { second } else { lowest.0 };
                    rings[c].pop_before(bound, max - taken, out)
                }
                (None, Some(j)) if !open_empty => rings[j].pop_into(max - taken, out),
                (None, None) if taken == 0 => return (0, !open_empty),
                _ => 0,
            };
            if n == 0 {
                break;
            }
            taken += n;
        }
        (taken, false)
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
pub(crate) fn queue_with_metrics(
    capacity: usize,
    producers: usize,
    metrics: Arc<QueueMetrics>,
) -> (Vec<QueueSender>, QueueReceiver) {
    queue_on(capacity, producers, metrics, Arc::default(), false)
}

/// Like [`queue_with_metrics`], with `items` as the consumer's doorbell;
/// `ordered` makes it the merge queue of a replicated stage.
pub(crate) fn queue_on(
    capacity: usize,
    producers: usize,
    metrics: Arc<QueueMetrics>,
    items: Arc<Doorbell>,
    ordered: bool,
) -> (Vec<QueueSender>, QueueReceiver) {
    let shared = Arc::new(Shared {
        rings: (0..producers).map(|_| Ring::new(capacity)).collect(),
        items,
        consumer_alive: AtomicBool::new(true),
        metrics,
    });
    let senders = (0..producers).map(|ring| QueueSender { shared: Arc::clone(&shared), ring });
    (senders.collect(), QueueReceiver { shared, next: 0, ordered })
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

    /// A merge queue of `k` producers.
    fn ordered(k: usize) -> (Vec<QueueSender>, QueueReceiver) {
        queue_on(8, k, Arc::default(), Arc::default(), true)
    }

    /// Output `sub` of input `seq`, named `seq.sub`.
    fn sequenced(seq: i64, sub: u32) -> DataItem {
        let mut item = DataItem::new().with("name", format!("{seq}.{sub}"));
        item.set_stamp(Stamp::Seq { seq, sub });
        item
    }

    /// An unsequenced item (a shard's `finish` output).
    fn trailing(name: &str) -> DataItem {
        DataItem::new().with("name", name)
    }

    fn send_all(tx: &QueueSender, items: impl IntoIterator<Item = DataItem>) {
        assert!(tx.send_batch(&mut items.into_iter().collect()));
    }

    /// What one non-blocking receive of up to `max` items hands over, by
    /// name; `["ended"]` once the stream has ended.
    fn take_names(rx: &mut QueueReceiver, max: usize) -> Vec<String> {
        let mut out = Vec::new();
        match rx.try_recv_batch(max, &mut out) {
            Polled::Ended => vec!["ended".into()],
            _ => out.iter().map(|i| i.get_str("name").unwrap().to_string()).collect(),
        }
    }

    #[test]
    fn ordered_receive_merges_heads_that_arrive_out_of_order() {
        let (senders, mut rx) = ordered(2);
        send_all(&senders[1], [sequenced(1, 0), sequenced(3, 0)]);
        send_all(&senders[0], [sequenced(0, 0), sequenced(0, 1), sequenced(2, 0)]);
        assert_eq!(take_names(&mut rx, 2), ["0.0", "0.1"], "a batch stops at its size");
        assert_eq!(take_names(&mut rx, 8), ["1.0", "2.0"], "3.0 waits: ring 0 may still send 3");
        assert!(take_names(&mut rx, 8).is_empty());
        assert!(senders[0].advance(4));
        assert!(!senders[0].advance(4), "progress only rises");
        assert_eq!(take_names(&mut rx, 8), ["3.0"]);
        senders.iter().for_each(QueueSender::finish);
        assert_eq!(take_names(&mut rx, 8), ["ended"]);
        assert_eq!(rx.shared.metrics.received.get(), 5);
    }

    #[test]
    fn ordered_receive_releases_on_progress_alone() {
        // Rings 0 and 2 never carry an item: their producers' progress is
        // all the merge learns from them.
        let (senders, mut rx) = ordered(3);
        send_all(&senders[1], [sequenced(5, 0), sequenced(5, 1)]);
        assert!(take_names(&mut rx, 8).is_empty());
        senders[0].advance(6);
        senders[2].advance(5);
        assert!(take_names(&mut rx, 8).is_empty(), "ring 2 may still send 5");
        senders[2].advance(6);
        assert_eq!(take_names(&mut rx, 8), ["5.0", "5.1"]);
        assert_eq!(rx.progress(), 0, "ring 1's producer published none");
    }

    #[test]
    fn ordered_receive_releases_trailing_items_after_all_sequenced_data() {
        let (senders, mut rx) = ordered(2);
        send_all(&senders[0], [trailing("t0a"), trailing("t0b")]);
        send_all(&senders[1], [sequenced(0, 0), sequenced(1, 0), trailing("t1")]);
        assert_eq!(take_names(&mut rx, 8), ["0.0", "1.0", "t0a", "t0b"]);
        assert!(take_names(&mut rx, 8).is_empty(), "ring 0 may still send trailing items");
        senders[0].finish();
        assert_eq!(take_names(&mut rx, 8), ["t1"], "ring by ring, in ring order");
        senders[1].finish();
        assert_eq!(take_names(&mut rx, 8), ["ended"]);
    }

    #[test]
    fn ordered_receive_stops_waiting_for_a_ring_closed_mid_stream() {
        let (senders, mut rx) = ordered(2);
        send_all(&senders[0], [sequenced(0, 0)]);
        send_all(&senders[1], [sequenced(2, 0), sequenced(4, 0)]);
        assert_eq!(take_names(&mut rx, 8), ["0.0"]);
        assert!(take_names(&mut rx, 8).is_empty(), "ring 0 may still send 1");
        senders[0].finish();
        assert_eq!(take_names(&mut rx, 8), ["2.0", "4.0"], "a closed, drained ring sends nothing");
        senders[1].finish();
        assert_eq!(take_names(&mut rx, 8), ["ended"]);
    }

    #[test]
    fn a_consumer_parked_on_an_ordered_queue_wakes_on_progress() {
        let (senders, mut rx) = ordered(2);
        send_all(&senders[0], [sequenced(3, 0)]);
        let consumer = std::thread::spawn(move || {
            let mut out = Vec::new();
            rx.recv_batch(8, &mut out);
            out.len()
        });
        std::thread::sleep(Duration::from_millis(20));
        senders[1].advance(4);
        assert_eq!(consumer.join().unwrap(), 1);
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
