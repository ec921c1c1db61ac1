//! Peak live heap bytes of the process.
//!
//! Peak resident memory (`VmHWM`) depends on how the allocator's
//! per-thread arenas happen to fragment under sharded runs, so it varies by
//! ±10% from run to run on the same inputs. The bytes the program holds
//! live at once do not: this allocator counts them on the way to the
//! system allocator.
//!
//! Counting makes every allocation write two shared atomics, which the
//! simulator's shard threads would contend on. So it runs only until
//! [`stop_counting`]: through set-up and the warm-up pass, which runs the
//! same ops as every measured pass. The timed passes then pay one relaxed
//! load of a flag nobody writes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

/// The system allocator, counting live and peak bytes.
pub struct Counting;

static COUNTING: AtomicBool = AtomicBool::new(true);
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

// Relaxed throughout: the counters publish no other data; they are
// statistics.

fn grew(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

fn shrank(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        LIVE.fetch_sub(bytes, Ordering::Relaxed);
    }
}

/// Stops counting for the rest of the process; [`peak_bytes`] keeps the
/// peak reached so far. Counting ran from the process's start, so every
/// byte freed while it ran had been counted when allocated.
pub fn stop_counting() {
    COUNTING.store(false, Ordering::Relaxed);
}

/// Most bytes live at once between the process's start and
/// [`stop_counting`].
pub fn peak_bytes() -> usize {
    PEAK.load(Ordering::Relaxed)
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches only atomics.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's guarantees for `layout` pass through unchanged.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as for `alloc`.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            grew(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) };
        shrank(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: as for `dealloc`, and `new_size` is valid for `layout`'s
        // alignment as the caller guarantees.
        let new = unsafe { System.realloc(ptr, layout, new_size) };
        if !new.is_null() {
            shrank(layout.size());
            grew(new_size);
        }
        new
    }
}
