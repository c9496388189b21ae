//! Lock-free single-producer / single-consumer ring buffer.
//!
//! The general [`crate::queue`] channel guards a `VecDeque` with a mutex and
//! two condvars — correct for any producer count, but on the partitioned hot
//! path (`P[part] → P[i]` shard edges, and every other provably
//! single-producer edge) the lock round-trip per transfer dominates the work
//! being distributed. This module provides the classic Lamport ring for that
//! case: a fixed power-of-two slot array, a producer-owned `tail` counter and
//! a consumer-owned `head` counter. The producer writes the slots of a batch
//! and publishes them with one release store of `tail`; the consumer reads
//! the slots it observed via an acquire load of `tail` and releases them with
//! one release store of `head`. Neither side ever takes a lock to transfer
//! items, and the metrics and wake check are paid once per transfer.
//!
//! # Blocking
//!
//! `send_batch` on a full ring and `recv_batch` on an empty ring spin
//! briefly, then park on a mutex/condvar *slow path*. The fast path stays
//! lock-free via the Dekker-style parked-flag handshake: the sleeper sets its
//! parked flag and re-checks the ring under the lock before waiting; the
//! waker publishes its counter update, issues a [`fence`]`(SeqCst)` and
//! checks the flag. Either the sleeper's re-check sees the counter update
//! (and skips the wait), or the waker sees the parked flag (and notifies
//! while holding the lock) — a lost wakeup would require both loads to miss,
//! which the fence pair forbids. Every run of pushes is published, and a
//! parked consumer woken, before the producer can park on a full ring, so
//! the two can never both be parked.
//!
//! # Termination
//!
//! There is exactly one producer, so the two-mechanism EOS accounting of the
//! MPMC queue collapses to a single `closed` flag, set by `finish()` or the
//! sender drop. `closed` is stored *after* all item publications (release) —
//! a consumer that observes it (acquire) therefore also observes every
//! published item, and reports end-of-stream only once the ring is drained.
//!
//! # Ordering ⇒ determinism
//!
//! The ring is strictly FIFO: the consumer observes items in exactly the
//! producer's send order, the same guarantee the mutex queue gives a single
//! producer. Replacing a single-producer mutex queue with this ring is
//! therefore invisible to the partition merge protocol — per-shard sequences
//! arrive in identical order, so the merge releases identical output.

use crate::item::DataItem;
use crate::metrics::QueueMetrics;
use crate::source::Polled;
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

/// Spins on the fast path before parking; a handful of iterations rides out
/// the common "consumer is one slot behind" races without a syscall. On a
/// single-core host the peer thread cannot make progress while we spin, so
/// spinning is pure waste there — park immediately instead.
fn spin_limit() -> u32 {
    static LIMIT: std::sync::OnceLock<u32> = std::sync::OnceLock::new();
    *LIMIT.get_or_init(|| {
        if std::thread::available_parallelism().map_or(1, |n| n.get()) > 1 {
            64
        } else {
            0
        }
    })
}

/// One ring slot. Only the producer writes an un-published slot and only the
/// consumer reads a published one, so the `UnsafeCell` is never contended.
struct Slot(UnsafeCell<MaybeUninit<DataItem>>);

pub(crate) struct Ring {
    buf: Box<[Slot]>,
    /// `buf.len() - 1`; the buffer length is a power of two ≥ `capacity`.
    mask: usize,
    /// Declared capacity: `tail - head` never exceeds it, so backpressure
    /// semantics match a mutex queue of the same capacity exactly even when
    /// the slot array is rounded up.
    capacity: usize,
    /// Next slot to pop; written only by the consumer.
    head: AtomicUsize,
    /// Next slot to push; written only by the producer.
    tail: AtomicUsize,
    /// Producer finished (or dropped); set after all pushes.
    closed: AtomicBool,
    consumer_alive: AtomicBool,
    producer_parked: AtomicBool,
    consumer_parked: AtomicBool,
    lock: Mutex<()>,
    not_full: Condvar,
    not_empty: Condvar,
    metrics: Arc<QueueMetrics>,
}

// The raw pointers inside `UnsafeCell` are only touched under the ownership
// protocol above (producer writes unpublished slots, consumer reads published
// ones), so sharing the ring across the two threads is sound.
unsafe impl Send for Ring {}
unsafe impl Sync for Ring {}

impl Drop for Ring {
    fn drop(&mut self) {
        // Drop undelivered items; with both handles gone the counters are
        // plain values.
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        let mut i = head;
        while i != tail {
            unsafe { (*self.buf[i & self.mask].0.get()).assume_init_drop() };
            i = i.wrapping_add(1);
        }
    }
}

impl Ring {
    fn new(capacity: usize, metrics: Arc<QueueMetrics>) -> Ring {
        let capacity = capacity.max(1);
        let len = capacity.next_power_of_two();
        let buf: Box<[Slot]> =
            (0..len).map(|_| Slot(UnsafeCell::new(MaybeUninit::uninit()))).collect();
        Ring {
            buf,
            mask: len - 1,
            capacity,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            consumer_alive: AtomicBool::new(true),
            producer_parked: AtomicBool::new(false),
            consumer_parked: AtomicBool::new(false),
            lock: Mutex::new(()),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            metrics,
        }
    }

    fn is_full(&self) -> bool {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        tail.wrapping_sub(head) >= self.capacity
    }

    fn is_empty(&self) -> bool {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        head == tail
    }

    /// Moves the longest prefix of `items` that fits into the ring and
    /// publishes it (producer thread only). Returns how many items moved.
    fn push_prefix(&self, items: &mut Vec<DataItem>) -> usize {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        let n = (self.capacity - tail.wrapping_sub(head)).min(items.len());
        if n == 0 {
            return 0;
        }
        for (k, item) in items.drain(..n).enumerate() {
            // SAFETY: `n` slots from `tail` on are free — the consumer has
            // released everything below `head` and `tail - head + n` stays
            // within the capacity — and only this producer writes them until
            // the `tail` store below publishes them.
            unsafe { (*self.buf[tail.wrapping_add(k) & self.mask].0.get()).write(item) };
        }
        self.tail.store(tail.wrapping_add(n), Ordering::Release);
        self.metrics.sent.add(n as u64);
        self.metrics.depth.add(n as i64);
        self.metrics.record_batch(n);
        self.wake_consumer();
        n
    }

    /// Moves up to `max` published items to `out` and releases their slots
    /// (consumer thread only). Returns how many items moved.
    fn pop_into(&self, max: usize, out: &mut Vec<DataItem>) -> usize {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        let n = tail.wrapping_sub(head).min(max.max(1));
        if n == 0 {
            return 0;
        }
        // SAFETY: the `n` slots from `head` on were written and published by
        // the `tail` store this thread acquired, and the producer does not
        // touch them again until the `head` store below releases them. Each is
        // read exactly once; `extend` sizes `out` before the first read.
        out.extend((0..n).map(|k| unsafe {
            (*self.buf[head.wrapping_add(k) & self.mask].0.get()).assume_init_read()
        }));
        self.head.store(head.wrapping_add(n), Ordering::Release);
        self.metrics.received.add(n as u64);
        self.metrics.depth.add(-(n as i64));
        self.metrics.record_batch(n);
        self.wake_producer();
        n
    }

    /// Waker half of the parked-flag handshake (see the module docs). Called
    /// after every counter publication; the fence pairs with the sleeper's.
    fn wake_consumer(&self) {
        fence(Ordering::SeqCst);
        if self.consumer_parked.load(Ordering::Relaxed) {
            let _guard = self.lock.lock().unwrap();
            self.not_empty.notify_all();
        }
    }

    fn wake_producer(&self) {
        fence(Ordering::SeqCst);
        if self.producer_parked.load(Ordering::Relaxed) {
            let _guard = self.lock.lock().unwrap();
            self.not_full.notify_all();
        }
    }

    /// Sleeper half for the producer: parks until the ring has room or the
    /// consumer is gone. Counted as one backpressure stall.
    fn wait_for_room(&self) {
        self.metrics.send_stalls.inc();
        let stalled_at = Instant::now();
        let mut guard = self.lock.lock().unwrap();
        self.producer_parked.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        while self.is_full() && self.consumer_alive.load(Ordering::Relaxed) {
            guard = self.not_full.wait(guard).unwrap();
        }
        self.producer_parked.store(false, Ordering::Relaxed);
        drop(guard);
        self.metrics.stall_ns.add(stalled_at.elapsed().as_nanos() as u64);
    }

    /// Sleeper half for the consumer: parks until an item is published or
    /// the producer closed.
    fn wait_for_items(&self) {
        let mut guard = self.lock.lock().unwrap();
        self.consumer_parked.store(true, Ordering::Relaxed);
        fence(Ordering::SeqCst);
        while self.is_empty() && !self.closed.load(Ordering::Relaxed) {
            guard = self.not_empty.wait(guard).unwrap();
        }
        self.consumer_parked.store(false, Ordering::Relaxed);
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.wake_consumer();
    }

    fn drop_consumer(&self) {
        self.consumer_alive.store(false, Ordering::Release);
        self.wake_producer();
    }
}

/// Producer handle. **Single-owner**: the wrapping
/// [`QueueSender`](crate::queue::QueueSender) panics on `clone()` for the
/// SPSC variant.
pub(crate) struct SpscSender {
    ring: Arc<Ring>,
}

impl Drop for SpscSender {
    fn drop(&mut self) {
        // A dropped producer can never send again; this is `finish()`.
        self.ring.close();
    }
}

impl SpscSender {
    /// See [`crate::queue::QueueSender::send_batch`]: publishes what fits,
    /// spins briefly while the ring is full, then parks until the consumer
    /// makes room.
    pub(crate) fn send_batch(&self, items: &mut Vec<DataItem>) -> bool {
        let mut spins = 0;
        while !items.is_empty() {
            if !self.ring.consumer_alive.load(Ordering::Acquire) {
                items.clear();
                return false;
            }
            if self.ring.push_prefix(items) > 0 {
                spins = 0;
            } else if spins < spin_limit() {
                spins += 1;
                std::hint::spin_loop();
            } else {
                self.ring.wait_for_room();
            }
        }
        true
    }

    /// See [`crate::queue::QueueSender::try_send_batch`].
    pub(crate) fn try_send_batch(&self, items: &mut Vec<DataItem>) -> bool {
        if !self.ring.consumer_alive.load(Ordering::Acquire) {
            items.clear();
            return false;
        }
        self.ring.push_prefix(items);
        true
    }

    pub(crate) fn finish(&self) {
        self.ring.close();
    }
}

/// Consumer handle (single consumer by construction).
pub(crate) struct SpscReceiver {
    ring: Arc<Ring>,
}

impl Drop for SpscReceiver {
    fn drop(&mut self) {
        self.ring.drop_consumer();
    }
}

impl SpscReceiver {
    /// See [`crate::queue::QueueReceiver::recv_batch`]: spins briefly while
    /// the ring is empty, then parks for the *first* item only — a partially
    /// filled ring yields a short batch rather than waiting.
    pub(crate) fn recv_batch(&mut self, max: usize, out: &mut Vec<DataItem>) -> usize {
        let mut spins = 0;
        loop {
            match self.try_recv_batch(max, out) {
                Polled::Items(n) => return n,
                Polled::Ended => return 0,
                Polled::Pending if spins < spin_limit() => {
                    spins += 1;
                    std::hint::spin_loop();
                }
                Polled::Pending => self.ring.wait_for_items(),
            }
        }
    }

    /// See [`crate::queue::QueueReceiver::try_recv_batch`]. `closed` is
    /// stored after the final push, so once it reads true a pop that finds
    /// nothing means the stream has ended.
    pub(crate) fn try_recv_batch(&mut self, max: usize, out: &mut Vec<DataItem>) -> Polled {
        let closed = self.ring.closed.load(Ordering::Acquire);
        match self.ring.pop_into(max, out) {
            0 if closed => Polled::Ended,
            0 => Polled::Pending,
            n => Polled::Items(n),
        }
    }
}

/// Creates an SPSC ring of the given capacity, recording into `metrics`.
pub(crate) fn ring_with_metrics(
    capacity: usize,
    metrics: Arc<QueueMetrics>,
) -> (SpscSender, SpscReceiver) {
    let ring = Arc::new(Ring::new(capacity, metrics));
    (SpscSender { ring: Arc::clone(&ring) }, SpscReceiver { ring })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn ring(capacity: usize) -> (SpscSender, SpscReceiver) {
        ring_with_metrics(capacity, Arc::new(QueueMetrics::default()))
    }

    fn item(n: i64) -> DataItem {
        DataItem::new().with("n", n)
    }

    /// Sends one item (a batch of one).
    fn send(tx: &SpscSender, n: i64) -> bool {
        tx.send_batch(&mut vec![item(n)])
    }

    /// Receives one item (a batch of one); `None` once the stream ended.
    fn recv(rx: &mut SpscReceiver) -> Option<i64> {
        let mut out = Vec::new();
        rx.recv_batch(1, &mut out);
        out.pop().map(|i| i.get_i64("n").unwrap())
    }

    #[test]
    fn fifo_roundtrip_and_close() {
        let (tx, mut rx) = ring(4);
        for n in 0..3 {
            assert!(send(&tx, n));
        }
        tx.finish();
        for n in 0..3 {
            assert_eq!(recv(&mut rx), Some(n));
        }
        assert!(recv(&mut rx).is_none());
        assert!(recv(&mut rx).is_none(), "stays terminated");
    }

    #[test]
    fn capacity_is_exact_not_rounded() {
        // Declared capacity 3 rides in a 4-slot buffer but still rejects the
        // 4th item, matching the mutex queue's backpressure bound.
        let (tx, mut rx) = ring(3);
        let mut batch: Vec<DataItem> = (0..4).map(item).collect();
        assert!(tx.try_send_batch(&mut batch));
        assert_eq!(batch.len(), 1, "the 4th item comes back");
        assert_eq!(batch[0].get_i64("n"), Some(3));
        assert_eq!(rx.try_recv_batch(1, &mut Vec::new()), Polled::Items(1));
        assert!(tx.try_send_batch(&mut batch));
        assert!(batch.is_empty(), "room for it after one pop");
    }

    #[test]
    fn dropped_sender_terminates_after_drain() {
        let (tx, mut rx) = ring(4);
        send(&tx, 7);
        drop(tx);
        assert_eq!(recv(&mut rx), Some(7), "buffered item drains");
        assert!(recv(&mut rx).is_none());
    }

    #[test]
    fn dropped_receiver_unblocks_producer() {
        let (tx, rx) = ring(1);
        assert!(send(&tx, 1));
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            drop(rx);
        });
        // Ring is full; this blocks until the receiver drop wakes it.
        assert!(!send(&tx, 2), "consumer gone");
        let mut batch = vec![item(3)];
        assert!(!tx.try_send_batch(&mut batch), "discards after death");
        assert!(batch.is_empty());
        handle.join().unwrap();
    }

    #[test]
    fn backpressure_blocks_until_consumed() {
        let (tx, mut rx) = ring(1);
        assert!(send(&tx, 1));
        let producer = std::thread::spawn(move || {
            assert!(send(&tx, 2));
            tx.finish();
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(recv(&mut rx), Some(1));
        assert_eq!(recv(&mut rx), Some(2));
        assert!(recv(&mut rx).is_none());
        producer.join().unwrap();
    }

    #[test]
    fn try_recv_batch_distinguishes_empty_from_ended() {
        let (tx, mut rx) = ring(2);
        let mut out = Vec::new();
        assert_eq!(rx.try_recv_batch(4, &mut out), Polled::Pending);
        send(&tx, 1);
        assert_eq!(rx.try_recv_batch(4, &mut out), Polled::Items(1));
        assert_eq!(rx.try_recv_batch(4, &mut out), Polled::Pending, "open stream, empty ring");
        tx.finish();
        assert_eq!(rx.try_recv_batch(4, &mut out), Polled::Ended);
        assert_eq!(rx.try_recv_batch(4, &mut out), Polled::Ended, "stays terminated");
    }

    #[test]
    fn close_racing_with_last_push_never_loses_items() {
        for _ in 0..200 {
            let (tx, mut rx) = ring(8);
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
    fn recv_batch_drains_available_without_waiting_for_full_batch() {
        let (tx, mut rx) = ring(8);
        for n in 0..3 {
            send(&tx, n);
        }
        let mut batch = Vec::new();
        assert_eq!(rx.recv_batch(10, &mut batch), 3, "short batch, no waiting");
        assert_eq!(batch.iter().map(|i| i.get_i64("n").unwrap()).collect::<Vec<_>>(), [0, 1, 2]);
        tx.finish();
        assert_eq!(rx.recv_batch(4, &mut batch), 0);
    }

    #[test]
    fn send_batch_larger_than_capacity_drains_through() {
        let (tx, mut rx) = ring(2);
        let producer = std::thread::spawn(move || {
            assert!(tx.send_batch(&mut (0..20).map(item).collect()));
            tx.finish();
        });
        let mut seen = Vec::new();
        while rx.recv_batch(4, &mut seen) > 0 {}
        producer.join().unwrap();
        let seen: Vec<i64> = seen.iter().map(|i| i.get_i64("n").unwrap()).collect();
        assert_eq!(seen, (0..20).collect::<Vec<i64>>());
    }

    #[test]
    fn metrics_parity_with_mutex_queue() {
        let metrics = Arc::new(QueueMetrics::default());
        let (tx, mut rx) = ring_with_metrics(1, Arc::clone(&metrics));
        assert!(send(&tx, 1));
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

    #[test]
    fn undelivered_items_are_dropped_with_the_ring() {
        let (tx, rx) = ring(4);
        send(&tx, 1);
        send(&tx, 2);
        drop(tx);
        drop(rx); // must not leak the two buffered items (asan/miri-visible)
    }
}
