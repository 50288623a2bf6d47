//! A counting global allocator: allocations and live/peak heap bytes.
//!
//! Every allocation in the process goes through it, so a phase is
//! measured by snapshotting before and reading after: [`Phase::begin`]
//! records the allocation count and resets the peak to the bytes live
//! right now, [`Phase::end`] returns the allocations made since and the
//! highest live-heap level reached in between. A phase interleaved with
//! set-up subtracts the set-up's own count, read with [`allocs_so_far`].

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Allocations (and reallocations) since process start.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Bytes currently allocated.
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Highest `LIVE` seen since the last [`Phase::begin`].
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// [`System`] with counters. The counters are statistics that publish
/// no other data, so every update is `Relaxed`.
pub struct Counting;

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::Relaxed) + bytes;
    // Load first: the peak line is only written when it actually moves,
    // so steady-state allocation does not bounce it between cores.
    if live > PEAK.load(Ordering::Relaxed) {
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// layout and pointer, so `System`'s guarantees carry over unchanged;
// the added code only updates atomic counters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from this allocator with `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            if new_size >= layout.size() {
                grew(new_size - layout.size());
            } else {
                LIVE.fetch_sub(layout.size() - new_size, Ordering::Relaxed);
            }
        }
        p
    }
}

/// Fixes glibc malloc's thresholds for the whole run. By default glibc
/// raises its mmap threshold each time a large mapped block is freed and
/// trims the heap top as it shrinks, so whether a repetition's large
/// buffers (dispatch rings, outcome vectors) come back as fresh pages to
/// fault in or as reused heap depends on the process's history: set-up
/// times then fall into two modes from run to run. With the thresholds
/// pinned, blocks up to 32 MiB always come from the heap and freed memory
/// is kept, so every measured repetition reuses what the warm-up one
/// faulted in.
pub fn pin_malloc_thresholds() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_TRIM_THRESHOLD: i32 = -1;
        const M_MMAP_THRESHOLD: i32 = -3;
        extern "C" {
            fn mallopt(param: i32, value: i32) -> i32;
        }
        // SAFETY: `mallopt` only changes glibc allocator tuning; it is
        // called once, before the process starts any other thread.
        unsafe {
            mallopt(M_MMAP_THRESHOLD, 32 << 20);
            mallopt(M_TRIM_THRESHOLD, i32::MAX);
        }
    }
}

/// Allocations made since process start.
pub fn allocs_so_far() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// An open measurement phase.
pub struct Phase {
    allocs_at_start: u64,
}

impl Phase {
    /// Starts a phase: remembers the allocation count and restarts peak
    /// tracking from the bytes live now.
    pub fn begin() -> Phase {
        PEAK.store(LIVE.load(Ordering::Relaxed), Ordering::Relaxed);
        Phase {
            allocs_at_start: ALLOCS.load(Ordering::Relaxed),
        }
    }

    /// Ends the phase: (allocations made during it, peak live bytes).
    pub fn end(self) -> (u64, usize) {
        let allocs = ALLOCS.load(Ordering::Relaxed) - self.allocs_at_start;
        (allocs, PEAK.load(Ordering::Relaxed))
    }
}
