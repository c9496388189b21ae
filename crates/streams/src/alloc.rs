//! A counting global allocator for allocation-budget tests and benches.
//!
//! The data plane claims specific allocation behaviour (one heap allocation
//! per built item, zero per clone/lookup for inline-width items) that only a
//! real allocator hook can verify. [`CountingAllocator`] wraps the system
//! allocator and counts every `alloc`/`realloc` in a process-wide atomic; a
//! test or bench binary installs it with
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: insight_streams::alloc::CountingAllocator =
//!     insight_streams::alloc::CountingAllocator;
//! ```
//!
//! and measures a window of work as the difference of two
//! [`allocation_count`] readings (same idiom as
//! [`deep_copies`](crate::testing::deep_copies)). The
//! counter is process-global: multi-threaded sections attribute every
//! thread's allocations to the window, so precise pins belong on
//! single-threaded sections and threaded sections get budget bounds.
//!
//! The hook costs one relaxed atomic increment per allocation — safe to
//! leave installed in bench binaries, not meant for production ones.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// Process-wide number of heap allocations (`alloc` + growing `realloc`)
/// since process start, when [`CountingAllocator`] is installed as the
/// global allocator. Monotone; measure windows by differencing. Always 0 if
/// the allocator is not installed.
pub fn allocation_count() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// The counting allocator; see the module docs.
pub struct CountingAllocator;

// SAFETY: delegates verbatim to `System`, adding only a relaxed counter
// bump; all `GlobalAlloc` contract obligations are `System`'s.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}
