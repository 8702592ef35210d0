//! A recorded capture's memory follows what changed, not how long it ran:
//! every series stores `(value, repeat)` runs, so idle time past the last
//! event adds no sample storage.
//!
//! A counting `#[global_allocator]` tracks live heap bytes. A 7:1 incast
//! is recorded to completion, then its recorder is flushed 10 ms and 1 s
//! past the last event; the live heap may differ between the two by at
//! most a few runs. At one stored value per 10 µs boundary, the extra
//! 990 ms would cost 8 B × 99,000 per series. Kept as its own
//! integration-test binary, like `tests/memory_scaling.rs`: the counter is
//! process-global, so no other test may allocate concurrently. CI runs it
//! in release mode too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicI64, Ordering};

use aeolus::prelude::*;
use aeolus::sim::RecordingTracer;

struct LiveBytes;

static LIVE: AtomicI64 = AtomicI64::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter is a relaxed statistic.
unsafe impl GlobalAlloc for LiveBytes {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as i64, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(new_size as i64 - layout.size() as i64, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as i64, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }
}

#[global_allocator]
static COUNTER: LiveBytes = LiveBytes;

fn live() -> i64 {
    LIVE.load(Ordering::Relaxed)
}

/// What the longer flush may add: a few 16 B runs.
const FEW_RUNS: i64 = 4 * 16;

/// One test, so that nothing else in this binary allocates while it counts.
#[test]
fn idle_time_past_the_last_event_costs_the_recorder_nothing() {
    let spec =
        TopoSpec::SingleSwitch { hosts: 8, link: LinkParams::uniform(Rate::gbps(10), us(3)) };
    let mut h = SchemeBuilder::new(Scheme::ExpressPassAeolus)
        .topology(spec)
        .tracer(RecordingTracer::new())
        .build();
    let hosts = h.hosts().to_vec();
    let flows: Vec<FlowDesc> = (1..hosts.len())
        .map(|i| FlowDesc {
            id: FlowId(i as u64),
            src: hosts[i],
            dst: hosts[0],
            size: 40_000,
            start: 0,
        })
        .collect();
    h.schedule(&flows);
    assert!(h.run(secs(1)), "the incast did not complete");
    let last = h.network().now();
    let rec = h.network_mut().tracer_mut();

    rec.finish(last + ms(10));
    let near = live();
    rec.finish(last + secs(1));
    let far = live();

    let (_, pt) = rec.ports().find(|(_, pt)| pt.ring_len() > 0).expect("a port saw traffic");
    let boundaries = ((last + secs(1)) / pt.depth.interval()) as usize;
    assert_eq!(pt.depth.values().len(), boundaries, "the flush sampled every boundary");
    assert!(
        far - near <= FEW_RUNS,
        "flushing 990 ms more of idle time grew the live heap by {} B (bound {FEW_RUNS} B)",
        far - near
    );
}
