//! Peak heap of a call, counted by the benchmark's global allocator.
//!
//! The resident set is a poor memory metric here: with two workers the
//! allocator keeps freed pages in per-thread arenas, so the same
//! verification peaked anywhere from 14 to 30 MiB of `VmHWM`, even from a
//! trimmed heap. So the benchmark wraps the system allocator and, while
//! [`peak_mb`] runs a call, counts the bytes it allocates and frees. The
//! call's peak is the most it held at once above what was live when it
//! began. Outside [`peak_mb`] the wrapper only reads one flag per
//! allocation.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicIsize, Ordering::Relaxed};

/// The system allocator, counting while [`peak_mb`] runs.
pub struct Counting;

#[global_allocator]
static ALLOCATOR: Counting = Counting;

static COUNTING: AtomicBool = AtomicBool::new(false);

/// Bytes allocated minus bytes freed since counting began; negative when
/// the call frees what was allocated before it.
static LIVE: AtomicIsize = AtomicIsize::new(0);

/// The largest value `LIVE` reached.
static PEAK: AtomicIsize = AtomicIsize::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as isize, Relaxed) + bytes as isize;
    PEAK.fetch_max(live, Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as isize, Relaxed);
}

// SAFETY: every call is forwarded to `System` unchanged; the counters
// never touch the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() && COUNTING.load(Relaxed) {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc_zeroed(layout);
        if !ptr.is_null() && COUNTING.load(Relaxed) {
            grow(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        if COUNTING.load(Relaxed) {
            shrink(layout.size());
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new = System.realloc(ptr, layout, new_size);
        if !new.is_null() && COUNTING.load(Relaxed) {
            if new_size >= layout.size() {
                grow(new_size - layout.size());
            } else {
                shrink(layout.size() - new_size);
            }
        }
        new
    }
}

/// Runs `f`; returns the most heap it held at once, in MiB. Calls must not
/// overlap.
pub fn peak_mb<R>(f: impl FnOnce() -> R) -> (f64, R) {
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    COUNTING.store(true, Relaxed);
    let out = f();
    COUNTING.store(false, Relaxed);
    (PEAK.load(Relaxed) as f64 / (1024.0 * 1024.0), out)
}
