//! A std-only counting allocator feeding the per-layer allocation
//! ledger.
//!
//! Counters are per thread, so a span timed on the benchmark's thread is
//! charged only for the allocations that thread made: the fleet's shard
//! worker allocates concurrently with the producer's spans and must not
//! land in them. The cost in an untraced run is one thread-local
//! increment per allocation — no atomic, no lock.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// (allocations, bytes requested) made by this thread so far.
    static COUNTS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// The system allocator, counting every allocation request (a `realloc`
/// counts as one request for its new size).
pub struct Counting;

fn note(bytes: usize) {
    // `const`-initialized and drop-free, so the slot never allocates and
    // is never torn down; `try_with` keeps even that assumption from
    // turning into a panic inside the allocator.
    let _ = COUNTS.try_with(|c| {
        let (n, b) = c.get();
        c.set((n + 1, b + bytes as u64));
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; the counter update neither allocates nor touches the
// returned memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: forwarded verbatim; the caller upholds `alloc_zeroed`'s
        // contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: forwarded verbatim; the caller upholds `realloc`'s
        // contract for `ptr`, `layout` and `new_size`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded verbatim; `ptr` came from `System` through
        // one of the methods above with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

/// Allocations and bytes requested by the calling thread so far.
pub fn snapshot() -> (u64, u64) {
    COUNTS.try_with(Cell::get).unwrap_or((0, 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_this_threads_allocations_and_bytes() {
        let (n0, b0) = snapshot();
        let v: Vec<u8> = Vec::with_capacity(1000);
        std::hint::black_box(&v);
        let (n1, b1) = snapshot();
        assert_eq!(n1 - n0, 1);
        assert_eq!(b1 - b0, 1000);
        drop(v);
        // Freeing is not an allocation.
        assert_eq!(snapshot(), (n1, b1));
        // Another thread's allocations are not charged here.
        std::thread::scope(|s| {
            s.spawn(|| std::hint::black_box(vec![0u8; 4096]));
        });
        let (_, b2) = snapshot();
        assert!(b2 - b1 < 4096, "the child's buffer was charged here");
    }
}
