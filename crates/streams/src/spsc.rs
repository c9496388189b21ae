//! Lock-free single-producer / single-consumer ring buffer.
//!
//! The general [`crate::queue`] channel guards a `VecDeque` with a mutex and
//! two condvars — correct for any producer count, but on the partitioned hot
//! path (`P[part] → P[i]` shard edges, and every other provably
//! single-producer edge) the lock round-trip per item dominates the work
//! being distributed. This module provides the classic Lamport ring for that
//! case: a fixed power-of-two slot array, a producer-owned `tail` counter and
//! a consumer-owned `head` counter. The producer writes a slot and publishes
//! it with a release store of `tail`; the consumer reads a slot it observed
//! via an acquire load of `tail` and releases it with a release store of
//! `head`. Neither side ever takes a lock to transfer an item.
//!
//! # Blocking
//!
//! `send` on a full ring and `recv` on an empty ring spin briefly, then park
//! on a mutex/condvar *slow path*. The fast path stays lock-free via the
//! Dekker-style parked-flag handshake: the sleeper sets its parked flag and
//! re-checks the ring under the lock before waiting; the waker publishes its
//! counter update, issues a [`fence`]`(SeqCst)` and checks the flag. Either
//! the sleeper's re-check sees the counter update (and skips the wait), or
//! the waker sees the parked flag (and notifies while holding the lock) — a
//! lost wakeup would require both loads to miss, which the fence pair
//! forbids.
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
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

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

    /// Publishes an item without touching metrics or the wake protocol —
    /// the caller **must** account for it (`sent`/`depth`) and call
    /// [`wake_consumer`](Ring::wake_consumer) before it next blocks or
    /// returns, or a parked consumer never learns about the item.
    fn push_quiet(&self, item: DataItem) -> Result<(), DataItem> {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        if tail.wrapping_sub(head) >= self.capacity {
            return Err(item);
        }
        unsafe { (*self.buf[tail & self.mask].0.get()).write(item) };
        self.tail.store(tail.wrapping_add(1), Ordering::Release);
        Ok(())
    }

    /// Non-blocking push (producer thread only).
    fn push(&self, item: DataItem) -> Result<(), DataItem> {
        self.push_quiet(item)?;
        self.metrics.sent.inc();
        self.metrics.depth.add(1);
        self.wake_consumer();
        Ok(())
    }

    /// Consumes an item without touching metrics or the wake protocol — the
    /// same contract as [`push_quiet`](Ring::push_quiet), mirrored: the
    /// caller must account `received`/`depth` and call
    /// [`wake_producer`](Ring::wake_producer) before it next blocks or
    /// returns.
    fn pop_quiet(&self) -> Option<DataItem> {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        if head == tail {
            return None;
        }
        let item = unsafe { (*self.buf[head & self.mask].0.get()).assume_init_read() };
        self.head.store(head.wrapping_add(1), Ordering::Release);
        Some(item)
    }

    /// Non-blocking pop (consumer thread only).
    fn pop(&self) -> Option<DataItem> {
        let item = self.pop_quiet()?;
        self.metrics.received.inc();
        self.metrics.depth.add(-1);
        self.wake_producer();
        Some(item)
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

    /// Blocking send; `false` once the consumer is gone (item discarded).
    fn send(&self, mut item: DataItem) -> bool {
        let spin_max = spin_limit();
        for spin in 0..=spin_max {
            if !self.consumer_alive.load(Ordering::Acquire) {
                return false;
            }
            match self.push(item) {
                Ok(()) => return true,
                Err(back) => item = back,
            }
            if spin < spin_max {
                std::hint::spin_loop();
            }
        }
        // Park until the consumer makes room (or disappears).
        self.metrics.send_stalls.inc();
        let stalled_at = Instant::now();
        loop {
            {
                let guard = self.lock.lock().unwrap();
                self.producer_parked.store(true, Ordering::Relaxed);
                fence(Ordering::SeqCst);
                if self.is_full() && self.consumer_alive.load(Ordering::Relaxed) {
                    let _guard = self.not_full.wait(guard).unwrap();
                }
                self.producer_parked.store(false, Ordering::Relaxed);
            }
            if !self.consumer_alive.load(Ordering::Acquire) {
                self.metrics.stall_ns.add(stalled_at.elapsed().as_nanos() as u64);
                return false;
            }
            match self.push(item) {
                Ok(()) => {
                    self.metrics.stall_ns.add(stalled_at.elapsed().as_nanos() as u64);
                    return true;
                }
                Err(back) => item = back,
            }
        }
    }

    /// Blocking receive; `None` once the producer closed and the ring
    /// drained.
    fn recv(&self) -> Option<DataItem> {
        let mut spins = 0u32;
        loop {
            if let Some(item) = self.pop() {
                return Some(item);
            }
            if self.closed.load(Ordering::Acquire) {
                // `closed` is stored after the final push, so one more pop
                // observes anything that raced with the close.
                return self.pop();
            }
            if spins < spin_limit() {
                spins += 1;
                std::hint::spin_loop();
                continue;
            }
            {
                let guard = self.lock.lock().unwrap();
                self.consumer_parked.store(true, Ordering::Relaxed);
                fence(Ordering::SeqCst);
                if self.is_empty() && !self.closed.load(Ordering::Relaxed) {
                    let _guard = self.not_empty.wait(guard).unwrap();
                }
                self.consumer_parked.store(false, Ordering::Relaxed);
            }
            spins = 0;
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<DataItem>, crate::queue::Timeout> {
        let deadline = Instant::now() + timeout;
        let mut spins = 0u32;
        loop {
            if let Some(item) = self.pop() {
                return Ok(Some(item));
            }
            if self.closed.load(Ordering::Acquire) {
                return Ok(self.pop());
            }
            if spins < spin_limit() {
                spins += 1;
                std::hint::spin_loop();
                continue;
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(crate::queue::Timeout);
            }
            let guard = self.lock.lock().unwrap();
            self.consumer_parked.store(true, Ordering::Relaxed);
            fence(Ordering::SeqCst);
            if self.is_empty() && !self.closed.load(Ordering::Relaxed) {
                let _ = self.not_empty.wait_timeout(guard, deadline - now).unwrap();
            }
            self.consumer_parked.store(false, Ordering::Relaxed);
            spins = 0;
        }
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
    pub(crate) fn send(&self, item: DataItem) -> bool {
        self.ring.send(item)
    }

    /// See [`crate::queue::QueueSender::send_batch`]: same FIFO guarantee,
    /// one batch-size sample per call.
    ///
    /// Items are published with the quiet push and the metric counters are
    /// bulk-updated per *transfer* rather than per item — one `sent.add(k)` /
    /// `depth.add(k)` / wake instead of `k` of each. The wake discipline:
    /// every run of quiet pushes is flushed (counters + `wake_consumer`)
    /// **before** the producer can block on a full ring, so a parked consumer
    /// is always woken ahead of the producer parking itself — the
    /// parked-parked deadlock is impossible.
    pub(crate) fn send_batch(&self, items: Vec<DataItem>) -> bool {
        if items.is_empty() {
            return true;
        }
        let n = items.len();
        let mut sent = 0u64;
        let mut quiet = 0i64; // pushed since the last counter flush / wake
        let flush = |quiet: &mut i64| {
            if *quiet > 0 {
                self.ring.metrics.sent.add(*quiet as u64);
                self.ring.metrics.depth.add(*quiet);
                *quiet = 0;
                self.ring.wake_consumer();
            }
        };
        for item in items {
            match self.ring.push_quiet(item) {
                Ok(()) => {
                    quiet += 1;
                    sent += 1;
                }
                Err(back) => {
                    // Full: publish what we have (and wake the consumer) so
                    // it can drain while we take the blocking slow path.
                    flush(&mut quiet);
                    if !self.ring.send(back) {
                        break;
                    }
                    sent += 1;
                }
            }
        }
        flush(&mut quiet);
        if sent > 0 {
            self.ring.metrics.batch_sizes.record_ns(sent);
        }
        sent == n as u64
    }

    pub(crate) fn try_send(&self, item: DataItem) -> Result<bool, DataItem> {
        if !self.ring.consumer_alive.load(Ordering::Acquire) {
            return Ok(false);
        }
        match self.ring.push(item) {
            Ok(()) => Ok(true),
            Err(back) => Err(back),
        }
    }

    pub(crate) fn has_capacity(&self) -> bool {
        self.ring.consumer_alive.load(Ordering::Acquire) && !self.ring.is_full()
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
    pub(crate) fn recv(&mut self) -> Option<DataItem> {
        self.ring.recv()
    }

    /// See [`crate::queue::QueueReceiver::recv_batch`]: blocks for the
    /// *first* item only, then drains whatever is already published — a
    /// partially filled ring yields a short batch rather than waiting, so
    /// batching never conflates "not fully drained" with "no progress".
    ///
    /// The drain after the first item uses the quiet pop and settles the
    /// metric counters (`received.add(k)` / `depth.add(-k)`) plus a single
    /// `wake_producer` once per call instead of once per item. The wake
    /// happens before this returns, so a producer parked on the full ring is
    /// always released by the batch that made room.
    pub(crate) fn recv_batch(&mut self, max: usize) -> Option<Vec<DataItem>> {
        let first = self.ring.recv()?;
        Some(self.batch_after(first, max))
    }

    /// [`SpscReceiver::recv_batch`] without the wait: `None` when nothing is
    /// published right now.
    pub(crate) fn try_recv_batch(&mut self, max: usize) -> Option<Vec<DataItem>> {
        let first = self.ring.pop()?;
        Some(self.batch_after(first, max))
    }

    /// `first` (already accounted for) plus whatever else is published, up
    /// to `max` items.
    fn batch_after(&mut self, first: DataItem, max: usize) -> Vec<DataItem> {
        let max = max.max(1);
        let mut batch = Vec::with_capacity(max.min(self.ring.capacity));
        batch.push(first);
        let mut quiet = 0i64; // popped since recv()'s own accounting
        while batch.len() < max {
            match self.ring.pop_quiet() {
                Some(item) => {
                    batch.push(item);
                    quiet += 1;
                }
                None => break,
            }
        }
        if quiet > 0 {
            self.ring.metrics.received.add(quiet as u64);
            self.ring.metrics.depth.add(-quiet);
            self.ring.wake_producer();
        }
        self.ring.metrics.batch_sizes.record_ns(batch.len() as u64);
        batch
    }

    pub(crate) fn try_recv(&mut self) -> crate::queue::TryRecv {
        use crate::queue::TryRecv;
        if let Some(item) = self.ring.pop() {
            return TryRecv::Item(item);
        }
        if self.ring.closed.load(Ordering::Acquire) {
            match self.ring.pop() {
                Some(item) => TryRecv::Item(item),
                None => TryRecv::Ended,
            }
        } else {
            TryRecv::Empty
        }
    }

    pub(crate) fn recv_timeout(
        &mut self,
        timeout: Duration,
    ) -> Result<Option<DataItem>, crate::queue::Timeout> {
        self.ring.recv_timeout(timeout)
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
    use crate::queue::TryRecv;

    fn ring(capacity: usize) -> (SpscSender, SpscReceiver) {
        ring_with_metrics(capacity, Arc::new(QueueMetrics::default()))
    }

    fn item(n: i64) -> DataItem {
        DataItem::new().with("n", n)
    }

    #[test]
    fn fifo_roundtrip_and_close() {
        let (tx, mut rx) = ring(4);
        for n in 0..3 {
            assert!(tx.send(item(n)));
        }
        tx.finish();
        for n in 0..3 {
            assert_eq!(rx.recv().unwrap().get_i64("n"), Some(n));
        }
        assert!(rx.recv().is_none());
        assert!(rx.recv().is_none(), "stays terminated");
    }

    #[test]
    fn capacity_is_exact_not_rounded() {
        // Declared capacity 3 rides in a 4-slot buffer but still rejects the
        // 4th item, matching the mutex queue's backpressure bound.
        let (tx, mut rx) = ring(3);
        for n in 0..3 {
            assert_eq!(tx.try_send(item(n)), Ok(true));
        }
        assert!(!tx.has_capacity());
        let bounced = tx.try_send(item(9)).unwrap_err();
        assert_eq!(bounced.get_i64("n"), Some(9));
        assert!(matches!(rx.try_recv(), TryRecv::Item(_)));
        assert!(tx.has_capacity());
    }

    #[test]
    fn dropped_sender_terminates_after_drain() {
        let (tx, mut rx) = ring(4);
        tx.send(item(7));
        drop(tx);
        assert_eq!(rx.recv().unwrap().get_i64("n"), Some(7), "buffered item drains");
        assert!(rx.recv().is_none());
    }

    #[test]
    fn dropped_receiver_unblocks_producer() {
        let (tx, rx) = ring(1);
        assert!(tx.send(item(1)));
        let handle = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            drop(rx);
        });
        // Ring is full; this blocks until the receiver drop wakes it.
        assert!(!tx.send(item(2)), "consumer gone");
        assert_eq!(tx.try_send(item(3)), Ok(false), "discards after death");
        handle.join().unwrap();
    }

    #[test]
    fn backpressure_blocks_until_consumed() {
        let (tx, mut rx) = ring(1);
        assert!(tx.send(item(1)));
        let producer = std::thread::spawn(move || {
            assert!(tx.send(item(2)));
            tx.finish();
        });
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(rx.recv().unwrap().get_i64("n"), Some(1));
        assert_eq!(rx.recv().unwrap().get_i64("n"), Some(2));
        assert!(rx.recv().is_none());
        producer.join().unwrap();
    }

    #[test]
    fn try_recv_distinguishes_empty_from_ended() {
        let (tx, mut rx) = ring(2);
        assert_eq!(rx.try_recv(), TryRecv::Empty);
        tx.send(item(1));
        assert!(matches!(rx.try_recv(), TryRecv::Item(_)));
        assert_eq!(rx.try_recv(), TryRecv::Empty, "open stream, empty ring");
        tx.finish();
        assert_eq!(rx.try_recv(), TryRecv::Ended);
        assert_eq!(rx.try_recv(), TryRecv::Ended, "stays terminated");
    }

    #[test]
    fn close_racing_with_last_push_never_loses_items() {
        for _ in 0..200 {
            let (tx, mut rx) = ring(8);
            let producer = std::thread::spawn(move || {
                for n in 0..5 {
                    tx.send(item(n));
                }
                // finish() happens via drop, racing with the consumer.
            });
            let mut got = Vec::new();
            while let Some(i) = rx.recv() {
                got.push(i.get_i64("n").unwrap());
            }
            producer.join().unwrap();
            assert_eq!(got, vec![0, 1, 2, 3, 4]);
        }
    }

    #[test]
    fn recv_batch_drains_available_without_waiting_for_full_batch() {
        let (tx, mut rx) = ring(8);
        for n in 0..3 {
            tx.send(item(n));
        }
        let batch = rx.recv_batch(10).unwrap();
        assert_eq!(
            batch.iter().map(|i| i.get_i64("n").unwrap()).collect::<Vec<_>>(),
            [0, 1, 2],
            "short batch, no waiting"
        );
        tx.finish();
        assert!(rx.recv_batch(4).is_none());
    }

    #[test]
    fn send_batch_larger_than_capacity_drains_through() {
        let (tx, mut rx) = ring(2);
        let producer = std::thread::spawn(move || {
            assert!(tx.send_batch((0..20).map(item).collect()));
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
    fn recv_timeout_variant() {
        let (tx, mut rx) = ring(4);
        assert!(rx.recv_timeout(Duration::from_millis(10)).is_err(), "times out while empty");
        tx.send(item(1));
        assert!(matches!(rx.recv_timeout(Duration::from_millis(10)), Ok(Some(_))));
        tx.finish();
        assert!(matches!(rx.recv_timeout(Duration::from_millis(10)), Ok(None)));
    }

    #[test]
    fn metrics_parity_with_mutex_queue() {
        let metrics = Arc::new(QueueMetrics::default());
        let (tx, mut rx) = ring_with_metrics(1, Arc::clone(&metrics));
        assert!(tx.send(item(1)));
        let blocked = std::thread::spawn(move || {
            tx.send(item(2));
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

    #[test]
    fn undelivered_items_are_dropped_with_the_ring() {
        let (tx, rx) = ring(4);
        tx.send(item(1));
        tx.send(item(2));
        drop(tx);
        drop(rx); // must not leak the two buffered items (asan/miri-visible)
    }
}
