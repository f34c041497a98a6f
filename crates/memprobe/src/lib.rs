//! # bcastdb-memprobe
//!
//! A counting [`GlobalAlloc`] wrapper around the system allocator, used by
//! the experiment harness to audit heap traffic on the simulator hot path.
//!
//! Wall-clock time on a shared machine is noisy; **allocation counts in a
//! deterministic simulator are exact**. The same experiment binary performs
//! the same number of heap allocations on every run, so `allocs/event` is a
//! reproducible cost metric: it ratchets monotonically downward as hot-path
//! allocations are eliminated, and any regression is visible as an exact
//! integer diff rather than a wall-clock blip. `PERFORMANCE.md` tracks this
//! number alongside `events_per_sec`.
//!
//! The counter is a single relaxed atomic increment per allocation —
//! negligible next to the allocation itself — so the probe stays enabled in
//! every build of the harness.
//!
//! Counts are attributed to *sites* by delta measurements (diff
//! [`allocation_count`] around a workload slice, as the alloc-audit test in
//! `crates/bench/tests/` does per phase) or, for call sites, by a scratch
//! copy of this allocator that walks a frame-pointer build's stack into a
//! fixed static table, taking no lock and allocating nothing
//! (`PERFORMANCE.md` §5). A `std::backtrace::Backtrace` capture from inside
//! [`GlobalAlloc::alloc`] deadlocks instead: it takes locks and allocates
//! while the allocator call is still in flight.
//!
//! # Example
//!
//! ```
//! use bcastdb_memprobe::CountingAllocator;
//!
//! // In a binary: #[global_allocator] static A: CountingAllocator = CountingAllocator;
//! let before = bcastdb_memprobe::allocation_count();
//! let v = vec![1u8, 2, 3];
//! drop(v);
//! // Counts only move forward (deallocations are not subtracted).
//! assert!(bcastdb_memprobe::allocation_count() >= before);
//! ```

#![deny(missing_docs)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// A pass-through allocator that counts allocations.
///
/// Install it in a binary with
/// `#[global_allocator] static A: CountingAllocator = CountingAllocator;`
/// and read the total via [`allocation_count`].
pub struct CountingAllocator;

// SAFETY: pure pass-through to `System`; the counter never influences the
// returned pointers or layouts.
unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

/// Total heap allocations (including reallocations) since process start.
///
/// Returns 0 unless the program installed [`CountingAllocator`] as its
/// global allocator.
pub fn allocation_count() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}
