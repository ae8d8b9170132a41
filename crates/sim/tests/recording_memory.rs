//! What a recorded lane keeps: the simulator's toggle and value words,
//! `2·⌈sources/64⌉` words a cycle, in one buffer, and no event. The heap
//! is counted by a global allocator, so the figures hold on any host.
//! The file holds one test, so no other test allocates while it counts.

use emtrust_aes::netlist::{run_encryption, CYCLES_PER_BLOCK};
use emtrust_trojan::ProtectedChip;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting the bytes it holds and the blocks it
/// has freed.
struct Counting;

static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);
static FREES: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            LIVE_BYTES.fetch_add(layout.size(), Ordering::SeqCst);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE_BYTES.fetch_sub(layout.size(), Ordering::SeqCst);
        FREES.fetch_add(1, Ordering::SeqCst);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_recorded_lane_keeps_two_words_per_64_sources_a_cycle_in_one_buffer() {
    const BLOCKS: usize = 48;
    let chip = ProtectedChip::golden();
    let mut sim = chip.simulator().unwrap();
    sim.start_recording();
    for i in 0..BLOCKS as u8 {
        let pt = [i.wrapping_mul(37); 16];
        let _ = run_encryption(&mut sim, chip.aes_ports(), *b"recording-memory", pt);
    }
    let trace = sim.take_recording();
    let cycles = BLOCKS * CYCLES_PER_BLOCK;
    assert_eq!(trace.cycle_count(), cycles);
    let sources = trace.sources().map_or(0, |s| s.len());
    assert_eq!(sources, 10_096, "the golden chip's sources");
    let words = 2 * sources.div_ceil(64);
    assert_eq!(words, 316);
    assert!(trace.total_toggles() > 1_000_000, "a busy window");

    // The sources are the program's, which the simulator still holds:
    // dropping the trace frees its words alone.
    let (live, frees) = (
        LIVE_BYTES.load(Ordering::SeqCst),
        FREES.load(Ordering::SeqCst),
    );
    drop(trace);
    let freed = live - LIVE_BYTES.load(Ordering::SeqCst);
    assert_eq!(freed, cycles * words * 8, "bytes the trace held");
    assert_eq!(
        FREES.load(Ordering::SeqCst) - frees,
        1,
        "buffers the trace held"
    );
    drop(sim);
}
