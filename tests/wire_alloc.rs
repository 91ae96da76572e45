//! A frame's length prefix must not reserve memory its bytes never fill:
//! `read_frame` grows the payload buffer as bytes arrive. Measured with a
//! counting global allocator, which is why this test has a file (and a
//! process) of its own.

use legobase::wire::{self, FrameKind, WireError, MAX_FRAME};
use std::alloc::{GlobalAlloc, Layout, System};
use std::io::ErrorKind;
use std::sync::atomic::{AtomicUsize, Ordering};

struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

fn grew(bytes: usize) {
    let live = LIVE.fetch_add(bytes, Ordering::SeqCst) + bytes;
    PEAK.fetch_max(live, Ordering::SeqCst);
}

// SAFETY: every method forwards to `System` with the caller's arguments and
// only adds bookkeeping on atomics, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size(), Ordering::SeqCst);
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if new_size > layout.size() {
            grew(new_size - layout.size());
        } else {
            LIVE.fetch_sub(layout.size() - new_size, Ordering::SeqCst);
        }
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// A peer announces the largest frame allowed, sends 10 payload bytes and
/// hangs up: a typed unexpected EOF, having held far less than the 64 MiB it
/// announced.
#[test]
fn an_announced_frame_allocates_only_what_arrives() {
    let mut stream = vec![FrameKind::ResultBatch as u8];
    stream.extend_from_slice(&MAX_FRAME.to_le_bytes());
    stream.extend_from_slice(&[7u8; 10]);
    let before = LIVE.load(Ordering::SeqCst);
    PEAK.store(before, Ordering::SeqCst);
    let result = wire::read_frame(&mut stream.as_slice());
    let peak = PEAK.load(Ordering::SeqCst) - before;
    match result {
        Err(WireError::Io(e)) => assert_eq!(e.kind(), ErrorKind::UnexpectedEof),
        Err(e) => panic!("expected an unexpected EOF, got {e}"),
        Ok(_) => panic!("a frame whose payload never arrived must not read"),
    }
    assert!(peak < 1 << 20, "reading a 10-byte stump of a frame peaked at {peak} bytes");
}
