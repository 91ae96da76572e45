//! What an uncached request allocates before it executes, bounded: lowering
//! borrows the catalog instead of copying its statistics, and the join-order
//! DP prices splits out of a table instead of cloning join trees. Measured
//! with a counting global allocator, which is why this test has a file (and
//! a process) of its own.
//!
//! The bounds sit at least 25% above what the current code measures (SF
//! 0.002 statistics, the embedded TPC-H texts, debug and release alike);
//! the code before that change needed several times as much. Lowering Q6:
//! 543 allocations of 300 KiB in all before, 201 of 11.4 KiB after.
//! Optimizing Q8: 4 000 allocations before, 712 after.

use legobase::engine::optimizer;
use legobase::sql::tpch_sql;
use legobase::TpchData;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

struct Counting;

static ON: AtomicBool = AtomicBool::new(false);
static CALLS: AtomicUsize = AtomicUsize::new(0);
static BYTES: AtomicUsize = AtomicUsize::new(0);

fn count(bytes: usize) {
    if ON.load(Ordering::SeqCst) {
        CALLS.fetch_add(1, Ordering::SeqCst);
        BYTES.fetch_add(bytes, Ordering::SeqCst);
    }
}

// SAFETY: every method forwards to `System` with the caller's arguments and
// only adds bookkeeping on atomics, which allocates nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Allocation calls and bytes requested while `f` runs (the result is
/// dropped afterwards, outside the count).
fn allocations<T>(f: impl FnOnce() -> T) -> (usize, usize, T) {
    let (calls, bytes) = (CALLS.load(Ordering::SeqCst), BYTES.load(Ordering::SeqCst));
    ON.store(true, Ordering::SeqCst);
    let out = f();
    ON.store(false, Ordering::SeqCst);
    (CALLS.load(Ordering::SeqCst) - calls, BYTES.load(Ordering::SeqCst) - bytes, out)
}

/// One test, so no other test thread allocates while a count runs.
#[test]
fn a_miss_allocates_within_its_bounds() {
    let data = TpchData::generate(0.002);
    let cat = &data.catalog;

    let (calls, bytes, q6) = allocations(|| legobase::sql::plan(tpch_sql(6), cat));
    q6.expect("Q6 lowers");
    assert!(bytes <= 15 << 10, "lowering Q6 allocated {bytes} bytes in {calls} allocations");

    let q8 = legobase::sql::plan(tpch_sql(8), cat).expect("Q8 lowers");
    let (calls, bytes, _) = allocations(|| optimizer::optimize(&q8, cat));
    assert!(calls <= 900, "optimizing Q8 made {calls} allocations ({bytes} bytes)");
}
