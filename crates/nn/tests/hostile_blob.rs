//! Decoding a hostile checkpoint blob allocates by the bytes it holds, not
//! by the counts its header claims.
//!
//! A counting global allocator tallies the bytes this thread allocates.
//! The file holds one test, so no other test allocates while it counts.

use fedzkt_nn::decode_state_dict;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread has allocated in total.
    static TOTAL: Cell<usize> = const { Cell::new(0) };
}

struct Counting;

fn count(bytes: usize) {
    // `try_with`: a thread's last allocations may come after its locals
    // are gone.
    let _ = TOTAL.try_with(|t| t.set(t.get() + bytes));
}

// SAFETY: every call forwards to `System` with the caller's arguments; the
// counter is a plain thread-local cell that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// A bare 16-byte header claiming 1 000 000 tensors (the most the decoder
/// ever accepts) is rejected before anything is sized by that count.
#[test]
fn a_header_claiming_tensors_it_lacks_the_bytes_for_allocates_nothing_big() {
    let mut blob = b"FZKT".to_vec();
    for word in [1u32, 600_000, 400_000] {
        blob.extend_from_slice(&word.to_le_bytes());
    }
    let before = TOTAL.with(Cell::get);
    let decoded = decode_state_dict(&blob);
    let allocated = TOTAL.with(Cell::get) - before;
    assert!(decoded.is_err(), "a header with no tensor bytes must not decode");
    assert!(allocated < 4096, "decoding a 16-byte blob allocated {allocated} B");
}
