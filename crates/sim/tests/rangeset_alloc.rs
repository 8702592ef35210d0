//! A `RangeSet` holding one range — every ledger fed in order — never
//! touches the allocator. Counted by a global allocator that tallies this
//! thread's allocations (the test harness runs other threads too).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aeolus_sim::RangeSet;

struct Counting;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

#[test]
fn one_range_never_allocates() {
    let before = allocs();
    let mut rs = RangeSet::new();
    // In-order arrivals, duplicates and overlaps: always one run.
    for seq in 0..10_000u64 {
        let (s, e) = (seq * 1460, (seq + 1) * 1460);
        assert_eq!(rs.insert(s, e), 1460);
        assert_eq!(rs.insert(s, e), 0);
        assert_eq!(rs.insert(s / 2, e), 0);
    }
    assert_eq!(rs.contiguous_prefix(), 10_000 * 1460);
    assert!(rs.contains(0, 10_000 * 1460));
    assert_eq!(rs.first_uncovered_in(0, 20_000 * 1460), Some((10_000 * 1460, 20_000 * 1460)));
    // Trimming either end keeps one run; so does emptying it and refilling.
    assert_eq!(rs.remove(0, 1460), 1460);
    assert_eq!(rs.remove(9_999 * 1460, 10_000 * 1460), 1460);
    assert_eq!(rs.fragments(), 1);
    assert_eq!(rs.remove(0, u64::MAX), 9_998 * 1460);
    assert_eq!(rs.insert(5, 10), 5);
    let clone = rs.clone();
    assert!(clone.ranges().eq([(5, 10)]));
    assert_eq!(allocs(), before, "a one-range set allocated");

    // The counter works: a second range moves the runs to the heap.
    rs.insert(20, 30);
    assert!(allocs() > before, "a hole must spill the runs");
    assert!(rs.ranges().eq([(5, 10), (20, 30)]));
}
