//! The solve loop — builtins included — allocates nothing on warm windows.
//!
//! `QueryTiming::window_allocations` counts capacity growth of the buffers
//! the engine retains; it cannot see a heap allocation made and freed inside
//! a builtin call, which is how `close` came to allocate a `Vec<f64>` per
//! call, millions of times per pass, unnoticed. This test installs a real
//! counting allocator and watches it from inside the `close` wrapper: the
//! allocations *during* each call, and those *between* consecutive calls of
//! one query. In the benchmark's configuration `close` is called from one
//! rule of one stratum (`busNearInt`), so everything between two of its
//! calls in one query is the solver: matching, probing, guards, delivering a
//! solution into the stratum's retained tables.
//!
//! Alone in its binary: the counter is per thread, but the allocator is
//! process-wide.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

thread_local! {
    // Const-initialised and without a destructor, so touching it from
    // inside the allocator cannot itself allocate or recurse.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct CountingAllocator;

// SAFETY: delegates verbatim to `System`; the only addition is a bump of a
// thread-local integer, which neither allocates nor unwinds.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

#[derive(Default)]
struct Watch {
    /// Bumped by the test before every query.
    query: AtomicU64,
    /// The query the last `close` call belonged to, and the allocation count
    /// when it returned.
    last_query: AtomicU64,
    last_exit: AtomicU64,
    calls: AtomicU64,
    inside: AtomicU64,
    between: AtomicU64,
}

#[test]
fn warm_dublin_windows_solve_without_allocating() {
    let scenario = common::dublin_trace(900, 42);
    let watch = Arc::new(Watch::default());
    let close = Arc::new(insight_traffic::geo::close_builtin(common::rules().close_threshold_m));
    let watched = {
        let w = watch.clone();
        move |args: &[insight_rtec::term::Term]| {
            let entry = allocations();
            let query = w.query.load(Ordering::Relaxed);
            if w.last_query.swap(query, Ordering::Relaxed) == query {
                w.between.fetch_add(entry - w.last_exit.load(Ordering::Relaxed), Ordering::Relaxed);
            }
            let hit = close(args);
            let exit = allocations();
            w.inside.fetch_add(exit - entry, Ordering::Relaxed);
            w.last_exit.store(exit, Ordering::Relaxed);
            w.calls.fetch_add(1, Ordering::Relaxed);
            hit
        }
    };
    let mut engines = common::region_engines(&scenario, &common::rules(), watched);

    // Bump the query stamp as each recognition is handed over, i.e. before
    // the next query starts. The first windows size the retained buffers
    // (WM / step of them fill the working memory); watch the ones after.
    let warm_up = (common::WINDOW.0 / common::WINDOW.1 + 2) as usize * engines.len();
    let mut windows = 0usize;
    let mut warm = (0u64, 0u64, 0u64);
    common::drive(&scenario, &mut engines, |_| {
        windows += 1;
        watch.query.fetch_add(1, Ordering::Relaxed);
        if windows == warm_up {
            for counter in [&watch.calls, &watch.inside, &watch.between] {
                counter.store(0, Ordering::Relaxed);
            }
        }
        if windows > warm_up {
            warm = (
                watch.calls.load(Ordering::Relaxed),
                watch.inside.load(Ordering::Relaxed),
                watch.between.load(Ordering::Relaxed),
            );
        }
    });
    let (calls, inside, between) = warm;
    assert!(windows > warm_up + 8, "{windows} windows leave nothing warm to watch");
    assert!(calls > 1_000, "only {calls} close calls on the warm windows");
    assert_eq!(inside, 0, "`close` allocated {inside} times in {calls} calls");
    assert_eq!(between, 0, "the solve loop allocated {between} times between {calls} close calls");
}
