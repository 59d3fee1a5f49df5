//! A counting global allocator for the suites that measure a code path at
//! the allocator (`flat_results`, `packed_operands`): each includes this
//! file as a module, which installs the allocator for that test binary.
//!
//! The counters are per thread, so tests that run their work on the calling
//! thread do not disturb each other under the parallel test runner.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// What one thread asked of the allocator.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// `alloc` + `realloc` calls.
    pub allocs: u64,
    /// `dealloc` calls.
    pub frees: u64,
    /// Fresh blocks (`alloc`, not `realloc`) of at least `BIG` bytes.
    pub big: u64,
    /// Blocks of at least `BIG` bytes freed (`dealloc`).
    pub big_frees: u64,
    /// Bytes asked for: each `alloc`'s size, and what each `realloc` grows
    /// a block by (a shrink asks for nothing).
    pub bytes: u64,
}

thread_local! {
    static TALLY: Cell<Tally> = const {
        Cell::new(Tally { allocs: 0, frees: 0, big: 0, big_frees: 0, bytes: 0 })
    };
    static BIG: Cell<usize> = const { Cell::new(usize::MAX) };
}

struct Counting;

fn bump(f: impl FnOnce(&mut Tally)) {
    // `try_with`: the allocator is still called while a thread tears its
    // locals down.
    let _ = TALLY.try_with(|t| {
        let mut tally = t.get();
        f(&mut tally);
        t.set(tally);
    });
}

// SAFETY: every call is forwarded unchanged to `System`; the counters are
// plain `Cell`s with constant initialisers, so touching them allocates
// nothing and cannot re-enter the allocator.
unsafe impl GlobalAlloc for Counting {
    // SAFETY: `GlobalAlloc::alloc`'s contract is the caller's to keep.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let big = BIG.try_with(Cell::get).unwrap_or(usize::MAX);
        bump(|t| {
            t.allocs += 1;
            t.big += (layout.size() >= big) as u64;
            t.bytes += layout.size() as u64;
        });
        // SAFETY: the caller's contract, passed through.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: `GlobalAlloc::dealloc`'s contract is the caller's to keep.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        let big = BIG.try_with(Cell::get).unwrap_or(usize::MAX);
        bump(|t| {
            t.frees += 1;
            t.big_frees += (layout.size() >= big) as u64;
        });
        // SAFETY: the caller's contract, passed through.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: `GlobalAlloc::realloc`'s contract is the caller's to keep.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump(|t| {
            t.allocs += 1;
            t.bytes += new_size.saturating_sub(layout.size()) as u64;
        });
        // SAFETY: the caller's contract, passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f`, returning its value and what this thread asked of the
/// allocator meanwhile. Fresh blocks of at least `big` bytes, and frees
/// of such blocks, are counted apart.
///
/// The process-wide lazy globals a query may reach (the executor, whose
/// first use spawns its workers, and the tracer) are initialised before
/// the window opens: whichever test thread reaches them first would
/// otherwise count their allocations as its own.
pub fn tallied<T>(big: usize, f: impl FnOnce() -> T) -> (T, Tally) {
    mmjoin::Executor::global();
    mmjoin::obs::trace::Tracer::global();
    BIG.with(|b| b.set(big));
    let before = TALLY.with(Cell::get);
    let value = f();
    let after = TALLY.with(Cell::get);
    BIG.with(|b| b.set(usize::MAX));
    let tally = Tally {
        allocs: after.allocs - before.allocs,
        frees: after.frees - before.frees,
        big: after.big - before.big,
        big_frees: after.big_frees - before.big_frees,
        bytes: after.bytes - before.bytes,
    };
    (value, tally)
}
