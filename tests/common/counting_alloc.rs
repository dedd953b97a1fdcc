//! The counting global allocator shared by the allocation-regression
//! suites (`tests/dataplane_alloc_free.rs` and the `alloc_free` suites of
//! `enkf-linalg`, `enkf-core` and `enkf-sim`). Each suite includes this
//! file with `#[path]`, so every test binary installs the same allocator.
//!
//! The counters are process-global on purpose: allocations made by
//! `rayon::join` forks on other threads must land in the count too. A
//! test that asserts on a counter delta therefore holds [`exclusive`] for
//! its whole measurement window, so sibling tests in the same binary
//! cannot add their allocations to it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};
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

/// Take the measurement lock. A sibling that failed while holding it
/// leaves the counters untouched, so a poisoned lock is still a valid one.
pub fn exclusive() -> MutexGuard<'static, ()> {
    EXCLUSIVE.lock().unwrap_or_else(|e| e.into_inner())
}

fn count(size: usize) {
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
