//! Transport memory follows the flows in progress, not every flow a host
//! has seen: a finished flow costs its `Metrics` record, which holds the
//! done bit of each end, and nothing more (a Homa sender also keeps the
//! flow's grant offset).
//!
//! A counting `#[global_allocator]` tracks live heap bytes. Each scheme
//! runs N and 4N rounds of the same small incast, and the live heap after
//! the run (the harness still alive) may grow by at most that much per
//! extra flow. Kept as its own integration-test binary, like
//! `tests/zero_alloc.rs`: the counter is process-global, so no other test
//! may allocate concurrently. CI runs it in release mode too.

use std::alloc::{GlobalAlloc, Layout, System};
use std::mem::size_of;
use std::sync::atomic::{AtomicI64, Ordering};

use aeolus::prelude::*;
use aeolus::sim::FlowRecord;

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

/// Senders per round; 16 and 64 rounds are then 128 and 512 flows, so
/// every doubling buffer is as full at 4N as at N.
const SENDERS: usize = 8;
const ROUNDS: usize = 16;

/// A round starts this long after the last one completed: past every
/// retransmission and retry timer of the last round (RTOs of 10 ms), so
/// what is queued at the end is one round's, whatever the history.
const GAP: Time = ms(20);

/// What a finished flow may cost: its `Metrics` record (a map slot and its
/// 8 B index share at these table sizes).
fn bound() -> i64 {
    (size_of::<Option<(FlowId, FlowRecord)>>() + 8) as i64
}

/// What a finished flow's sender keeps besides: a Homa sender books a late
/// grant only for what it adds, so it keeps the highest grant offset (a
/// map slot and its index share, 16 B in a sender's smaller table).
fn sender_extra(scheme: Scheme) -> i64 {
    let homa = matches!(
        scheme,
        Scheme::Homa { .. } | Scheme::HomaEager { .. } | Scheme::HomaAeolus | Scheme::HomaOracle
    );
    if homa {
        (size_of::<Option<(FlowId, u64)>>() + 16) as i64
    } else {
        0
    }
}

/// Live heap bytes that `rounds` incast rounds of `size`-byte messages
/// leave behind, over what was live before the harness was built.
fn heap_after(scheme: Scheme, rounds: usize, size: u64) -> i64 {
    let spec = TopoSpec::SingleSwitch {
        hosts: SENDERS + 2,
        link: LinkParams::uniform(Rate::gbps(10), us(3)),
    };
    let before = live();
    let mut h = SchemeBuilder::new(scheme).topology(spec).build();
    let hosts = h.hosts().to_vec();
    for round in 0..rounds {
        let start = h.network().now() + GAP;
        let flows: Vec<FlowDesc> = (0..SENDERS)
            .map(|i| FlowDesc {
                id: FlowId((round * SENDERS + i) as u64),
                src: hosts[1 + i],
                dst: hosts[0],
                size,
                start,
            })
            .collect();
        h.schedule(&flows);
        assert!(h.run(start + secs(1)), "{}: round {round} did not complete", scheme.name());
    }
    let after = live();
    drop(h);
    after - before
}

/// Heap growth per extra flow between N and 4N rounds.
fn growth_per_flow(scheme: Scheme, size: u64) -> i64 {
    let n = heap_after(scheme, ROUNDS, size);
    let n4 = heap_after(scheme, 4 * ROUNDS, size);
    (n4 - n) / (3 * ROUNDS * SENDERS) as i64
}

/// ExpressPass receivers send no completion ACK and ACK only unscheduled
/// data (every byte under the RTO strawman, `ExpressPassPrioQueue`): a
/// sender whose scheduled bytes go unacknowledged is never told its flow
/// is done, so it keeps its state as it always did.
fn told_when_done(scheme: Scheme) -> bool {
    !matches!(scheme, Scheme::ExpressPass | Scheme::ExpressPassAeolus | Scheme::ExpressPassOracle)
}

/// One test, so that nothing else in this binary allocates while it counts.
#[test]
fn a_finished_flow_costs_its_record() {
    for scheme in Scheme::all().filter(|&s| told_when_done(s)) {
        let bound = bound() + sender_extra(scheme);
        for size in [4_000, 40_000] {
            let grew = growth_per_flow(scheme, size);
            assert!(
                grew <= bound,
                "{} at {size} B: {grew} B per extra flow, bound {bound}",
                scheme.name()
            );
        }
    }
    let grew = growth_per_flow(Scheme::ExpressPass, 40_000);
    assert!(grew > bound(), "ExpressPass senders drop finished flows now ({grew} B per flow)");
}
