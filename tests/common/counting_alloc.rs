//! The counting global allocator shared by the allocation-regression
//! suites (`tests/{dataplane,checkpoint}_alloc_free.rs` and the
//! `alloc_free` suites of `enkf-linalg`, `enkf-core` and `enkf-sim`). Each
//! suite includes this file with `#[path]`, so every test binary installs
//! the same allocator.
//!
//! The counters are process-global on purpose: allocations made by
//! `rayon::join` forks on other threads must land in the count too. A
//! test that asserts on a counter delta therefore holds [`exclusive`] for
//! its whole measurement window, so sibling tests in the same binary
//! cannot add their allocations to it.
//!
//! The one thread never counted is the harness's main thread. libtest
//! runs every test body on a spawned thread and keeps its own bookkeeping
//! (the running-test table, result collection) on the main thread; on a
//! loaded machine that bookkeeping can be scheduled late enough to land
//! inside a measuring window. The main thread is the first thread to
//! allocate — the harness collects its arguments before it spawns any
//! test — and [`exclusive`] refuses to measure on it, so no measured code
//! can hide there. A binary with one measuring test therefore counts
//! exactly that test's thread and its forks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard};

/// System allocator wrapper counting every allocation-side call, the
/// bytes it requested, and the largest single request.
struct CountingAlloc;

/// Allocation-side calls (`alloc`, `alloc_zeroed`, `realloc`).
pub static ALLOCATIONS: AtomicUsize = AtomicUsize::new(0);
/// Bytes requested by those calls.
pub static BYTES: AtomicUsize = AtomicUsize::new(0);
/// The largest single request since the last reset.
pub static LARGEST: AtomicUsize = AtomicUsize::new(0);

static EXCLUSIVE: Mutex<()> = Mutex::new(());

/// Set once the first thread — the harness's main thread — has allocated.
static MAIN_SEEN: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// Whether this thread is the harness's main thread (decided at its
    /// first allocation).
    static ON_MAIN: Cell<Option<bool>> = const { Cell::new(None) };
}

fn on_main_thread() -> bool {
    ON_MAIN.with(|on_main| {
        on_main.get().unwrap_or_else(|| {
            let first = !MAIN_SEEN.swap(true, Ordering::Relaxed);
            on_main.set(Some(first));
            first
        })
    })
}

/// Take the measurement lock. A sibling that failed while holding it
/// leaves the counters untouched, so a poisoned lock is still a valid one.
pub fn exclusive() -> MutexGuard<'static, ()> {
    assert!(
        !on_main_thread(),
        "allocations on the harness's main thread are not counted; measure on a test thread"
    );
    EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner())
}

fn count(size: usize) {
    if on_main_thread() {
        return;
    }
    ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
    BYTES.fetch_add(size, Ordering::Relaxed);
    LARGEST.fetch_max(size, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;
