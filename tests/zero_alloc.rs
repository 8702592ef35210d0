//! Steady-state allocation proof for the pooled packet path.
//!
//! The simulator recycles packet storage through [`PacketPool`]: after the
//! pool, the timing wheel and the per-node state reach their high-water
//! marks, forwarding traffic must not touch the global allocator at all.
//! This test wires a counting allocator in front of the system allocator,
//! warms an ExpressPass+Aeolus incast up past its transient, then asserts
//! that a long steady-state window performs *zero* heap allocations and
//! that the packet pool never grows again.
//!
//! Kept as its own integration-test binary on purpose: the allocation
//! counter is process-global, so no other test may run concurrently. The
//! tests of this binary take [`SERIAL`] for their whole run, since libtest
//! runs them on parallel threads.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use aeolus::prelude::*;
use aeolus::sim::topology::LinkParams;

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

static TRAP: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if TRAP.load(Ordering::Relaxed) == 1 {
            TRAP.store(0, Ordering::Relaxed);
            panic!("TRAPPED alloc of {} bytes", layout.size());
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if TRAP.load(Ordering::Relaxed) == 1 {
            TRAP.store(0, Ordering::Relaxed);
            panic!("TRAPPED realloc to {new_size} bytes");
        }
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        if TRAP.load(Ordering::Relaxed) == 1 {
            TRAP.store(0, Ordering::Relaxed);
            panic!("TRAPPED alloc_zeroed of {} bytes", layout.size());
        }
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCS.load(Ordering::Relaxed)
}

/// Held by each test for its whole run, so that no test allocates inside
/// another's measurement window.
static SERIAL: Mutex<()> = Mutex::new(());

/// Take [`SERIAL`]; a test that panicked while holding it leaves the
/// counter as usable as before.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

#[test]
fn steady_state_forwarding_allocates_nothing() {
    let _serial = serial();
    // 7-to-1 incast of elephants over a single 10G switch: every link and
    // queue stays busy for the whole run, and no flow completes inside the
    // measurement window (1 GiB at ~10G is ≫ the 300 ms horizon).
    let spec =
        TopoSpec::SingleSwitch { hosts: 8, link: LinkParams::uniform(Rate::gbps(10), us(3)) };
    let mut h = SchemeBuilder::new(Scheme::ExpressPassAeolus).topology(spec).build();
    let hosts = h.hosts().to_vec();
    let flows: Vec<FlowDesc> = (1..hosts.len())
        .map(|i| FlowDesc {
            id: FlowId(i as u64),
            src: hosts[i],
            dst: hosts[0],
            size: 1 << 30,
            start: 0,
        })
        .collect();
    h.schedule(&flows);

    // Warm-up: lets the packet pool, wheel buckets, scratch buffers and
    // per-flow maps grow to their high-water marks.
    h.network_mut().run_until(ms(150));
    let grows_after_warmup = h.network().pool().grows();
    assert!(h.network().pool().live() > 0, "warm-up produced no in-flight packets");

    let before = allocations();
    if std::env::var_os("AEOLUS_ALLOC_TRAP").is_some() {
        TRAP.store(1, Ordering::Relaxed);
    }
    h.network_mut().run_until(ms(600));
    TRAP.store(0, Ordering::Relaxed);
    let delta = allocations() - before;

    let m = h.metrics();
    assert!(
        m.payload_delivered > 100 << 20,
        "window moved too little traffic to be a meaningful steady state: {} B",
        m.payload_delivered
    );
    assert_eq!(
        delta, 0,
        "steady-state forwarding hit the allocator {delta} time(s) in the measurement window of simulated traffic"
    );
    assert_eq!(
        h.network().pool().grows(),
        grows_after_warmup,
        "packet pool grew after warm-up instead of recycling"
    );
}

#[test]
fn pool_reports_recycling_stats() {
    let _serial = serial();
    // Sanity on the observability surface the benches and docs rely on:
    // after a completed run every packet is back in the pool.
    let spec =
        TopoSpec::SingleSwitch { hosts: 4, link: LinkParams::uniform(Rate::gbps(10), us(3)) };
    let mut h = SchemeBuilder::new(Scheme::ExpressPassAeolus).topology(spec).build();
    let hosts = h.hosts().to_vec();
    h.schedule(&[FlowDesc { id: FlowId(1), src: hosts[1], dst: hosts[0], size: 500_000, start: 0 }]);
    assert!(h.run(ms(2000)));
    let pool = h.network().pool();
    // The run halts the moment the last flow completes, so a handful of
    // credits can still be in flight — but the bulk of the pool is free.
    assert!(
        pool.live() < 32,
        "{} packets live after completion — pool handles are leaking",
        pool.live()
    );
    assert!(pool.high_water() > 0);
    assert_eq!(pool.capacity(), pool.high_water());
}
