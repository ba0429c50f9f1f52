//! A counting global allocator.
//!
//! Wraps the system allocator and, while switched on, counts every
//! allocation, the bytes requested and the peak of the live bytes. It is
//! switched off during timed reps (one relaxed load per call is all that is
//! left) and on for exactly one *counting rep* per run, which is
//! single-threaded and deterministic — so the three numbers repeat exactly
//! and two commits compare exactly.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering::Relaxed};

/// The allocator type installed as `#[global_allocator]` by the library.
pub struct CountingAlloc;

// All five are statistics only: nothing else is published through them, so
// relaxed ordering suffices.
static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);
static BYTES: AtomicU64 = AtomicU64::new(0);
/// Live bytes since the window opened. Signed: memory allocated before the
/// window may be freed inside it.
static LIVE: AtomicI64 = AtomicI64::new(0);
static PEAK: AtomicI64 = AtomicI64::new(0);

fn grew(bytes: usize) {
    COUNT.fetch_add(1, Relaxed);
    BYTES.fetch_add(bytes as u64, Relaxed);
    let live = LIVE.fetch_add(bytes as i64, Relaxed) + bytes as i64;
    PEAK.fetch_max(live, Relaxed);
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counters never touch the memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: the caller's obligations are passed through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            grew(layout.size());
        }
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        if ENABLED.load(Relaxed) {
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
        }
        // SAFETY: as for `alloc`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ENABLED.load(Relaxed) {
            // One allocator call that requests `new_size` bytes; the live
            // set changes by the difference.
            LIVE.fetch_sub(layout.size() as i64, Relaxed);
            grew(new_size);
        }
        // SAFETY: as for `alloc`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// What one counting window saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AllocStats {
    /// Allocator calls that obtained memory (`alloc`, `alloc_zeroed`,
    /// `realloc`).
    pub count: u64,
    /// Bytes those calls requested.
    pub bytes: u64,
    /// Peak of the live bytes allocated inside the window.
    pub peak_bytes: u64,
}

/// Run `f` with counting on and return its result with the window's
/// statistics. The result is returned still alive, so its own drop is not
/// part of the window. Windows must not nest or overlap across threads.
pub fn counted<R>(f: impl FnOnce() -> R) -> (R, AllocStats) {
    COUNT.store(0, Relaxed);
    BYTES.store(0, Relaxed);
    LIVE.store(0, Relaxed);
    PEAK.store(0, Relaxed);
    ENABLED.store(true, Relaxed);
    let out = f();
    ENABLED.store(false, Relaxed);
    let stats = AllocStats {
        count: COUNT.load(Relaxed),
        bytes: BYTES.load(Relaxed),
        peak_bytes: PEAK.load(Relaxed).max(0) as u64,
    };
    (out, stats)
}
