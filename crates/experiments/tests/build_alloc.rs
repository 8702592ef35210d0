//! Building a paper topology writes each switch's routes once, straight into
//! the table's CSR arrays, each switch's port array and route table sized up
//! front: a full-scale build makes a bounded number of allocator calls (766
//! for the fat-tree, 223 for the two-tier; 1,450 and 391 while the arrays
//! grew by doubling), and the first `select` after it allocates nothing.
//! Counted by a global allocator that tallies this thread's allocations (the
//! test harness runs other threads too).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aeolus_experiments::topos::{ep_fat_tree, homa_two_tier};
use aeolus_experiments::Scale;
use aeolus_sim::{FlowId, Packet, TrafficClass};
use aeolus_transport::{Scheme, SchemeBuilder, TopoSpec};

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

/// Builds `spec` under `scheme` in at most `most` allocator calls, then
/// routes a packet to every host from every switch without allocating.
fn build_within(scheme: Scheme, spec: TopoSpec, most: u64) {
    let before = allocs();
    let mut h = SchemeBuilder::new(scheme).topology(spec).build();
    let built = allocs() - before;
    assert!(built <= most, "{scheme} build made {built} allocator calls, more than {most}");

    let switches = h.topo.switches.clone();
    let pkts: Vec<Packet> = h
        .hosts()
        .iter()
        .enumerate()
        .map(|(i, &dst)| {
            let src = h.hosts()[(i + 1) % h.hosts().len()];
            Packet::data(FlowId(i as u64), src, dst, 0, 1460, TrafficClass::Scheduled, 1460)
        })
        .collect();
    let before = allocs();
    for &sw in &switches {
        let table = h.topo.net.route_table_mut(sw);
        for pkt in &pkts {
            table.select(pkt);
        }
    }
    assert_eq!(allocs(), before, "{scheme}: the first selects after the build allocated");
}

#[test]
fn fat_tree_build_is_bounded_and_select_never_allocates() {
    build_within(Scheme::ExpressPass, ep_fat_tree(Scale::Full), 800);
}

#[test]
fn two_tier_build_is_bounded_and_select_never_allocates() {
    build_within(Scheme::NdpAeolus, homa_two_tier(Scale::Full), 240);
}
