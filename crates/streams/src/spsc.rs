//! Lock-free single-producer / single-consumer ring buffer, and the doorbell
//! either side of a queue parks on.
//!
//! [`crate::queue`] builds every queue out of these rings, one per producer.
//! A ring is the classic Lamport ring: a fixed power-of-two slot array, a
//! producer-owned `tail` counter and a consumer-owned `head` counter. The
//! producer writes the slots of a batch and publishes them with one release
//! store of `tail`; the consumer reads the slots it observed via an acquire
//! load of `tail` and releases them with one release store of `head`. Neither
//! side takes a lock to transfer items, and the consumer observes them in
//! exactly the producer's send order — the per-producer FIFO order the
//! partition merge and every per-producer watermark downstream rely on.
//!
//! A ring has one producer, so its end is a single `closed` flag, set by
//! `finish()` or the sender drop *after* all item publications (release) —
//! a consumer that observes it (acquire) therefore also observes every
//! published item, and knows the ring has ended once it is drained. The
//! sequence `progress` of a replicated stage (see [`crate::partition`]) is
//! published the same way: the producer stores it after the pushes it
//! covers, the consumer loads it before it looks at the ring.
//!
//! # Blocking
//!
//! A side that finds nothing to do spins briefly, then parks on a
//! [`Doorbell`]: a list of parked threads and an `armed` flag saying the list
//! may be non-empty. The transfer path stays lock-free via the Dekker-style
//! handshake: the sleeper registers its thread and arms the bell, issues a
//! [`fence`]`(SeqCst)` and re-checks its condition before it parks; the waker
//! publishes its update, issues a `fence(SeqCst)` and reads the flag. Either
//! the sleeper's re-check sees the update (and skips the park), or the waker
//! sees the bell armed (and unparks every registered thread) — a lost
//! wake-up would require both loads to miss, which the fence pair forbids.
//! An unpark that lands before the park makes the park return at once. A
//! doorbell takes any number of sleepers and wakers: a queue's consumer
//! parks on one its producers all ring, and the runtime's pool threads share
//! one that every queue rings.

use crate::item::{DataItem, Stamp};
use std::cell::UnsafeCell;
use std::mem::MaybeUninit;
use std::sync::atomic::{fence, AtomicBool, AtomicI64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread::Thread;

/// Spins before parking: a few iterations ride out "one slot behind" races
/// without a syscall. On one core the peer cannot progress while we spin, so
/// park at once there.
pub(crate) fn spin_limit() -> u32 {
    static LIMIT: std::sync::OnceLock<u32> = std::sync::OnceLock::new();
    *LIMIT.get_or_init(|| {
        if std::thread::available_parallelism().map_or(1, |n| n.get()) > 1 {
            64
        } else {
            0
        }
    })
}

/// Where sleepers park until a waker has news for them (see the module docs
/// on blocking). A sleeper registers its thread and parks it; a ring that
/// finds the bell armed unparks every registered thread and disarms it, so
/// the rings that follow — until a sleeper registers again — cost a fence
/// and a load. The mutex guards only the sleeper list, so a poisoned one is
/// as good as a healthy one.
#[derive(Default)]
pub(crate) struct Doorbell {
    /// Whether `sleepers` may hold a thread: set under the lock by a sleeper,
    /// cleared under the lock by the ring that empties the list.
    armed: AtomicBool,
    sleepers: Mutex<Vec<Thread>>,
}

impl Doorbell {
    /// Waker half: called after every publication a sleeper may be waiting
    /// for. The fence pairs with the sleeper's.
    pub(crate) fn wake(&self) {
        fence(Ordering::SeqCst);
        self.notify();
    }

    /// [`Doorbell::wake`] for a waker that has issued the fence itself,
    /// after its publication: one fence can serve several bells.
    pub(crate) fn notify(&self) {
        if self.armed.load(Ordering::Relaxed) {
            let sleepers = {
                let mut list = self.sleepers.lock().unwrap_or_else(PoisonError::into_inner);
                self.armed.store(false, Ordering::Relaxed);
                std::mem::take(&mut *list)
            };
            sleepers.iter().for_each(Thread::unpark);
        }
    }

    /// Sleeper half: parks until `ready()` holds. `ready` must observe what
    /// the wakers publish before they ring; it is asked after the sleeper
    /// registered, so it may also act on what it observes (the runtime's
    /// pool steps its workers in it). A thread unparked for another reason
    /// only asks again.
    pub(crate) fn wait_until(&self, mut ready: impl FnMut() -> bool) {
        let me = std::thread::current();
        loop {
            {
                let mut list = self.sleepers.lock().unwrap_or_else(PoisonError::into_inner);
                list.push(me.clone());
                self.armed.store(true, Ordering::Relaxed);
            }
            fence(Ordering::SeqCst);
            if ready() {
                let mut list = self.sleepers.lock().unwrap_or_else(PoisonError::into_inner);
                list.retain(|t| t.id() != me.id());
                return;
            }
            std::thread::park();
        }
    }
}

/// One ring slot. Only the producer writes an un-published slot and only the
/// consumer reads a published one, so the `UnsafeCell` is never contended.
struct Slot(UnsafeCell<MaybeUninit<DataItem>>);

/// One producer's ring. Aligned to a cache line so the rings of one queue,
/// which sit side by side, do not share lines between their producers.
#[repr(align(64))]
pub(crate) struct Ring {
    buf: Box<[Slot]>,
    /// `buf.len() - 1`; the buffer length is a power of two ≥ `capacity`.
    mask: usize,
    /// Declared capacity: `tail - head` never exceeds it, even when the slot
    /// array is rounded up.
    capacity: usize,
    /// Next slot to pop; written only by the consumer.
    head: AtomicUsize,
    /// Next slot to push; written only by the producer.
    tail: AtomicUsize,
    /// Producer finished (or dropped); set after all pushes.
    closed: AtomicBool,
    /// Every sequence number below it has been pushed; written only by the
    /// producer, after those pushes.
    progress: AtomicI64,
    /// Where the producer parks on a full ring; the consumer rings it.
    pub(crate) room: Doorbell,
}

// SAFETY: every field but `buf` is `Sync`. A slot of `buf` is written only by
// the producer while unpublished and read only by the consumer once published
// (see `push_prefix`/`pop_into`), so no slot is ever accessed from two threads
// at once; the items themselves move between threads, and `DataItem` is `Send`.
unsafe impl Sync for Ring {}

impl Drop for Ring {
    fn drop(&mut self) {
        // Drop undelivered items; with both handles gone the counters are
        // plain values.
        let head = *self.head.get_mut();
        let tail = *self.tail.get_mut();
        let mut i = head;
        while i != tail {
            // SAFETY: slots in `head..tail` were published and never popped.
            unsafe { (*self.buf[i & self.mask].0.get()).assume_init_drop() };
            i = i.wrapping_add(1);
        }
    }
}

impl Ring {
    pub(crate) fn new(capacity: usize) -> Ring {
        let capacity = capacity.max(1);
        let len = capacity.next_power_of_two();
        Ring {
            buf: (0..len).map(|_| Slot(UnsafeCell::new(MaybeUninit::uninit()))).collect(),
            mask: len - 1,
            capacity,
            head: AtomicUsize::new(0),
            tail: AtomicUsize::new(0),
            closed: AtomicBool::new(false),
            progress: AtomicI64::new(0),
            room: Doorbell::default(),
        }
    }

    pub(crate) fn is_full(&self) -> bool {
        let tail = self.tail.load(Ordering::Relaxed);
        let head = self.head.load(Ordering::Acquire);
        tail.wrapping_sub(head) >= self.capacity
    }

    /// Whether the producer is done: no item will follow what is published.
    pub(crate) fn is_closed(&self) -> bool {
        self.closed.load(Ordering::Acquire)
    }

    /// Marks the end of the producer's stream (after its last push).
    pub(crate) fn close(&self) {
        self.closed.store(true, Ordering::Release);
    }

    /// The producer's sequence progress (see [`Ring::advance`]).
    pub(crate) fn progress(&self) -> i64 {
        self.progress.load(Ordering::Acquire)
    }

    /// Raises the progress to `to`: every sequence number below it has been
    /// pushed (producer thread only, after those pushes). Returns whether it
    /// rose.
    pub(crate) fn advance(&self, to: i64) -> bool {
        let rose = to > self.progress.load(Ordering::Relaxed);
        if rose {
            self.progress.store(to, Ordering::Release);
        }
        rose
    }

    /// The stamp of the oldest published item, if any (consumer thread only).
    pub(crate) fn head_stamp(&self) -> Option<Stamp> {
        let head = self.head.load(Ordering::Relaxed);
        // SAFETY: `head` is published once it differs from the acquired tail.
        (head != self.tail.load(Ordering::Acquire)).then(|| unsafe { self.stamp_at(head) })
    }

    /// The stamp of the item in slot `at` (consumer thread only).
    ///
    /// # Safety
    /// `at` must lie in `head..tail` of a `tail` this thread acquired: the
    /// slot is published, and only the consumer touches it until it is popped.
    unsafe fn stamp_at(&self, at: usize) -> Stamp {
        (*self.buf[at & self.mask].0.get()).assume_init_ref().stamp()
    }

    /// Moves the longest prefix of `items` that fits into the ring and
    /// publishes it (producer thread only). Returns how many items moved.
    pub(crate) fn push_prefix(&self, items: &mut Vec<DataItem>) -> usize {
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
        n
    }

    /// Moves up to `max` published items to `out` and releases their slots
    /// (consumer thread only). Returns how many items moved.
    pub(crate) fn pop_into(&self, max: usize, out: &mut Vec<DataItem>) -> usize {
        self.pop_while(max, out, |_| true)
    }

    /// [`Ring::pop_into`] of the items sequenced below `bound`, stopping at
    /// the first that is not.
    pub(crate) fn pop_before(&self, bound: i64, max: usize, out: &mut Vec<DataItem>) -> usize {
        self.pop_while(max, out, |stamp| stamp.seq().is_some_and(|seq| seq < bound))
    }

    fn pop_while(
        &self,
        max: usize,
        out: &mut Vec<DataItem>,
        take: impl Fn(Stamp) -> bool,
    ) -> usize {
        let head = self.head.load(Ordering::Relaxed);
        let tail = self.tail.load(Ordering::Acquire);
        let published = tail.wrapping_sub(head).min(max);
        // SAFETY: `head + k` lies below the acquired `tail`.
        let stamp = |k: usize| unsafe { self.stamp_at(head.wrapping_add(k)) };
        let n = (0..published).find(|&k| !take(stamp(k))).unwrap_or(published);
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
        n
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn items(ns: impl IntoIterator<Item = i64>) -> Vec<DataItem> {
        ns.into_iter().map(|n| DataItem::new().with("n", n)).collect()
    }

    fn numbers(items: &[DataItem]) -> Vec<i64> {
        items.iter().map(|i| i.get_i64("n").unwrap()).collect()
    }

    #[test]
    fn fifo_roundtrip_and_close() {
        let ring = Ring::new(4);
        let mut batch = items(0..3);
        assert_eq!(ring.push_prefix(&mut batch), 3);
        ring.close();
        assert!(ring.is_closed() && ring.head_stamp().is_some(), "closed, not yet drained");
        let mut out = Vec::new();
        assert_eq!(ring.pop_into(2, &mut out), 2);
        assert_eq!(ring.pop_into(8, &mut out), 1);
        assert_eq!(numbers(&out), [0, 1, 2]);
        assert!(ring.head_stamp().is_none());
    }

    #[test]
    fn capacity_is_exact_not_rounded() {
        // Declared capacity 3 rides in a 4-slot buffer but still rejects the
        // 4th item.
        let ring = Ring::new(3);
        let mut batch = items(0..4);
        assert_eq!(ring.push_prefix(&mut batch), 3);
        assert!(ring.is_full());
        assert_eq!(numbers(&batch), [3], "the 4th item comes back");
        assert_eq!(ring.pop_into(1, &mut Vec::new()), 1);
        assert_eq!(ring.push_prefix(&mut batch), 1, "room for it after one pop");
    }

    #[test]
    fn wraps_around_the_slot_array() {
        let ring = Ring::new(3);
        let mut out = Vec::new();
        for round in 0..10 {
            let mut batch = items(round * 3..round * 3 + 3);
            assert_eq!(ring.push_prefix(&mut batch), 3);
            assert_eq!(ring.pop_into(3, &mut out), 3);
        }
        assert_eq!(numbers(&out), (0..30).collect::<Vec<_>>());
    }

    #[test]
    fn undelivered_items_are_dropped_with_the_ring() {
        let ring = Ring::new(4);
        ring.push_prefix(&mut items([1, 2]));
        drop(ring); // must not leak the two buffered items (asan/miri-visible)
    }

    #[test]
    fn doorbell_wakes_a_parked_sleeper() {
        let bell = Arc::new(Doorbell::default());
        let flag = Arc::new(AtomicBool::new(false));
        let sleeper = {
            let (bell, flag) = (Arc::clone(&bell), Arc::clone(&flag));
            std::thread::spawn(move || bell.wait_until(|| flag.load(Ordering::Acquire)))
        };
        while !bell.armed.load(Ordering::Relaxed) {
            std::thread::yield_now();
        }
        flag.store(true, Ordering::Release);
        bell.wake();
        sleeper.join().unwrap();
    }

    #[test]
    fn doorbell_wakes_every_sleeper() {
        // Sleepers come and go independently: one leaving must not hide the
        // others from the waker (a single parked flag did).
        for _ in 0..50 {
            let bell = Arc::new(Doorbell::default());
            let turn = Arc::new(AtomicUsize::new(0));
            let sleepers: Vec<_> = (1..=3)
                .map(|k| {
                    let (bell, turn) = (Arc::clone(&bell), Arc::clone(&turn));
                    std::thread::spawn(move || {
                        bell.wait_until(|| turn.load(Ordering::Acquire) >= k)
                    })
                })
                .collect();
            for k in 1..=3 {
                turn.store(k, Ordering::Release);
                bell.wake();
            }
            sleepers.into_iter().for_each(|s| s.join().unwrap());
        }
    }
}
