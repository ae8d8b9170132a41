//! What a streamed clock edge allocates: nothing once the simulator's
//! scratch is sized. The heap is counted by a global allocator, so the
//! figure holds on any host. The file holds one test, so no other test
//! allocates while it counts.

use emtrust_aes::netlist::{run_encryptions_stepped, CYCLES_PER_BLOCK};
use emtrust_trojan::ProtectedChip;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// The system allocator, counting the blocks it hands out and regrows.
struct Counting;

static ALLOCS: AtomicUsize = AtomicUsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::SeqCst);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

#[test]
fn a_streamed_multi_lane_edge_allocates_nothing_after_the_first() {
    const LANES: u8 = 47;
    let chip = ProtectedChip::golden();
    let mut sim = chip.simulator().unwrap();
    // Fresh plaintexts, one per lane, as a `spectral_watch` round streams
    // them: few blocks are shared.
    let plaintexts: Vec<[u8; 16]> = (0..LANES)
        .map(|i| {
            let word = (u128::from(i) + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15_F39C_C060_5CED_C835);
            word.to_le_bytes()
        })
        .collect();
    let (mut edges, mut blocks, mut unshared, mut later) = (0, 0, 0, 0);
    let _ = run_encryptions_stepped(
        &mut sim,
        chip.aes_ports(),
        *b"edge-allocations",
        &plaintexts,
        |s| {
            let before = ALLOCS.load(Ordering::SeqCst);
            s.step_words(|words| {
                assert_eq!(words.lanes(), usize::from(LANES));
                blocks += words.shared().len();
                unshared += words.shared().iter().filter(|&&s| !s).count();
            });
            if edges > 0 {
                later += ALLOCS.load(Ordering::SeqCst) - before;
            }
            edges += 1;
        },
    );
    assert_eq!(edges, CYCLES_PER_BLOCK);
    assert_eq!(
        blocks,
        edges * 10_096usize.div_ceil(64),
        "the golden chip's blocks"
    );
    assert!(unshared > blocks / 2, "fresh plaintexts share few blocks");
    assert_eq!(later, 0, "allocations after the first edge");
}
