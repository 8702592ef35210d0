//! The engine / hot-path / allocation kernels the `aeolus-bench` binary
//! runs, plus the in-tree measurement harness ([`harness`]). Per-discipline
//! and per-figure measurements live in the repo benchmark (`benchmark/`).

pub mod harness;
pub mod trajectory;

use aeolus_sim::event::{Event, EventMix, EventQueue, SchedulerKind};
use aeolus_sim::topology::LinkParams;
use aeolus_sim::units::{ms, us, Rate};
use aeolus_sim::{
    CheckedTracer, DropTailQueue, EnqueueOutcome, FlowDesc, FlowId, FlowMap, NodeId, NullTracer,
    Packet, PacketPool, PacketRef, Poll, QueueDisc, RecordingTracer, RoutePolicy, RouteTable,
    SimRng, Tracer, TrafficClass,
};
use aeolus_transport::{Scheme, SchemeBuilder, TopoSpec};
use aeolus_workloads::incast_rounds;

/// The bench testbed: 8 hosts on one 10 G switch.
pub fn bench_testbed() -> TopoSpec {
    TopoSpec::SingleSwitch { hosts: 8, link: LinkParams::uniform(Rate::gbps(10), us(3)) }
}

/// Counting shim over the system allocator for the `alloc` bench suite.
///
/// A library cannot install a `#[global_allocator]`, so each bench binary
/// that wants allocation counts declares
/// `#[global_allocator] static A: CountingAlloc = CountingAlloc;` and reads
/// the shared counter through [`alloc_counter::allocations`]. Binaries that
/// skip the install still link fine — the counter just stays at zero.
pub mod alloc_counter {
    use std::alloc::{GlobalAlloc, Layout, System};
    use std::sync::atomic::{AtomicU64, Ordering};

    static ALLOCS: AtomicU64 = AtomicU64::new(0);

    /// The counting allocator; forwards everything to [`System`].
    pub struct CountingAlloc;

    unsafe impl GlobalAlloc for CountingAlloc {
        unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc(layout)
        }

        unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
            System.dealloc(ptr, layout)
        }

        unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.realloc(ptr, layout, new_size)
        }

        unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
            System.alloc_zeroed(layout)
        }
    }

    /// Heap allocations (alloc + realloc + alloc_zeroed) since process start.
    pub fn allocations() -> u64 {
        ALLOCS.load(Ordering::Relaxed)
    }
}

fn churn_pkt(seq: u64) -> Packet {
    Packet::data(FlowId(seq % 64), NodeId(0), NodeId(1), seq, 1460, TrafficClass::Scheduled, 1 << 20)
}

/// `n` insert/free cycles through a [`PacketPool`] with a working set of
/// `live` in-flight packets — the per-hop hand-off pattern of the pooled
/// engine. Returns the cycle count.
pub fn pool_churn(n: u64, live: usize) -> u64 {
    let mut pool = PacketPool::new();
    let mut ring: Vec<PacketRef> = (0..live as u64).map(|i| pool.insert(churn_pkt(i))).collect();
    let mut at = 0usize;
    for i in 0..n {
        pool.free(ring[at]);
        ring[at] = pool.insert(churn_pkt(i));
        at = (at + 1) % live;
    }
    for r in ring {
        pool.free(r);
    }
    n
}

/// The pre-pool baseline: the same churn pattern but every packet is a
/// fresh `Box` (one malloc + one free per cycle, as the engine used to pay
/// per hop). Kept for an honest speedup denominator.
// The fresh `Box` per cycle is what this kernel measures, so clippy's
// reuse-the-allocation rewrite would empty it.
#[allow(clippy::replace_box)]
pub fn boxed_churn(n: u64, live: usize) -> u64 {
    let mut ring: Vec<Box<Packet>> = (0..live as u64).map(|i| Box::new(churn_pkt(i))).collect();
    let mut at = 0usize;
    for i in 0..n {
        ring[at] = Box::new(churn_pkt(i));
        at = (at + 1) % live;
    }
    std::hint::black_box(&ring);
    n
}

/// Heap allocations observed during a steady-state window of the canned
/// 7:1 elephant incast (50 ms warm-up, then a 150 ms measured window).
/// With the pooled engine this is **zero** once warm; the tier-1
/// `zero_alloc` test enforces that, this kernel makes it measurable in the
/// bench report. Requires the binary to install
/// [`alloc_counter::CountingAlloc`]; returns the allocation delta.
pub fn steady_incast_alloc_window() -> u64 {
    let mut h = SchemeBuilder::new(Scheme::ExpressPassAeolus).topology(bench_testbed()).build();
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
    h.topo.net.run_until(ms(50));
    let before = alloc_counter::allocations();
    h.topo.net.run_until(ms(200));
    alloc_counter::allocations() - before
}

/// `n` operations against a [`FlowMap`] with a resident set of `live`
/// flows: a blend of hits, misses, inserts and removes in the proportions
/// of a transport's per-event state touch (mostly `get_mut` on a live flow,
/// occasional flow birth/death). Returns the op count.
pub fn flowmap_churn(n: u64, live: u64) -> u64 {
    let mut m: FlowMap<FlowId, u64> = FlowMap::new();
    for i in 0..live {
        m.insert(FlowId(i), i);
    }
    let mut next = live;
    let mut rng = SimRng::seed_from_u64(0xF10F);
    for _ in 0..n {
        if rng.chance(0.9) {
            // Hot lookup on a (probably) live flow.
            let key = FlowId(next.saturating_sub(1 + rng.below(live.max(1))));
            if let Some(v) = m.get_mut(key) {
                *v = v.wrapping_add(1);
            }
        } else {
            // Flow turnover: retire the oldest, admit a new one.
            m.remove(FlowId(next - live));
            m.insert(FlowId(next), next);
            next += 1;
        }
    }
    std::hint::black_box(m.len());
    n
}

/// The pre-slab baseline for [`flowmap_churn`]: the identical op stream
/// against a `BTreeMap` (what every transport used to pay per event). Kept
/// for an honest speedup denominator.
pub fn btreemap_churn(n: u64, live: u64) -> u64 {
    let mut m: std::collections::BTreeMap<FlowId, u64> = std::collections::BTreeMap::new();
    for i in 0..live {
        m.insert(FlowId(i), i);
    }
    let mut next = live;
    let mut rng = SimRng::seed_from_u64(0xF10F);
    for _ in 0..n {
        if rng.chance(0.9) {
            let key = FlowId(next.saturating_sub(1 + rng.below(live.max(1))));
            if let Some(v) = m.get_mut(&key) {
                *v = v.wrapping_add(1);
            }
        } else {
            m.remove(&FlowId(next - live));
            m.insert(FlowId(next), next);
            next += 1;
        }
    }
    std::hint::black_box(m.len());
    n
}

/// `n` ECMP selections through a [`RouteTable`]: 64 destinations, 4-way
/// groups, route hashes pre-stamped exactly as the engine stamps them at
/// injection — so this measures the per-hop flat CSR lookup, not the hash.
pub fn route_lookup(n: u64) -> u64 {
    let mut table = RouteTable::new(64, RoutePolicy::EcmpHash, 1);
    for dst in 0..64u32 {
        for p in 0..4u32 {
            table.add_route(NodeId(dst), aeolus_sim::PortId((dst * 4 + p) as u16));
        }
    }
    let mut pkt = churn_pkt(0);
    let mut acc = 0u64;
    for i in 0..n {
        pkt.dst = NodeId((i % 64) as u32);
        pkt.flow = FlowId(i % 512);
        pkt.route_hash = aeolus_sim::routing::fnv1a(pkt.flow.0, pkt.path_tag);
        acc = acc.wrapping_add(table.select(&pkt).0 as u64);
    }
    std::hint::black_box(acc);
    n
}

/// `n` packets through a `DropTailQueue` in bursts of 16 enqueues followed
/// by a full drain — the port hand-off pattern. Dequeue byte accounting
/// rides the fifo's cached wire sizes, so the pool is only touched to
/// recycle the handle. Returns the packet count.
pub fn batched_dequeue(n: u64) -> u64 {
    let mut pool = PacketPool::new();
    let mut q = DropTailQueue::new(1 << 30);
    let mut done = 0u64;
    while done < n {
        for i in 0..16 {
            let r = pool.insert(churn_pkt(done + i));
            if let EnqueueOutcome::Dropped { pkt, .. } = q.enqueue(r, &mut pool, 0) {
                pool.free(pkt);
            }
        }
        while let Poll::Ready(r) = q.poll(&mut pool, 0) {
            pool.free(r);
            done += 1;
        }
    }
    done
}

/// Pop `n` events through an [`EventQueue`] under `kind`, re-scheduling a
/// new timer after every pop (the self-sustaining pattern of a real DES hot
/// loop). Deltas mix sub-16 ns bursts, the next 150 µs and a 0.3–5.3 ms tail,
/// so the wheel's fine buckets, coarse buckets and cascades are all
/// exercised. The draws are the ones every `BENCH_<n>.json` row was measured
/// with; keep them so the rows stay comparable. Returns the number of events
/// processed (= `n`).
pub fn timer_stream_events(kind: SchedulerKind, n: u64) -> u64 {
    let mut q = EventQueue::with_scheduler(kind);
    let mut rng = SimRng::seed_from_u64(0x5eed_cafe);
    for i in 0..1024u64 {
        q.schedule_at(rng.below(us(200)), Event::Timer { node: NodeId(0), token: i });
    }
    let mut popped = 0u64;
    while popped < n {
        let (t, _ev) = q.pop().expect("self-sustaining stream drained early");
        popped += 1;
        // 70% within 150 µs (fine level or a few coarse periods), 25% a
        // sub-16 ns burst (the current fine buckets), 5% 0.3–5.3 ms (the
        // coarse level; the overflow heap starts at 68.7 ms).
        let delta = if rng.chance(0.70) {
            1 + rng.below(us(150))
        } else if rng.chance(0.833) {
            1 + rng.below(1 << 14)
        } else {
            us(300) + rng.below(ms(5))
        };
        q.schedule_at(t + delta, Event::Timer { node: NodeId(0), token: popped });
    }
    popped
}

/// Run the canned 7:1 incast (Fig 8 shape) end-to-end under the given
/// scheduler and return the events processed, by kind — summed, the
/// engine-macro work-unit count.
pub fn incast_sim_event_mix(kind: SchedulerKind, msg: u64, rounds: usize) -> EventMix {
    incast_sim_traced(kind, msg, rounds, NullTracer)
}

/// [`incast_sim_event_mix`], summed.
pub fn incast_sim_events(kind: SchedulerKind, msg: u64, rounds: usize) -> u64 {
    incast_sim_event_mix(kind, msg, rounds).iter().sum()
}

/// The same incast kernel as [`incast_sim_events`] but with a
/// [`RecordingTracer`] installed — measures the cost of full capture
/// (ring buffers, time series, transport events) relative to the
/// compiled-away `NullTracer` default.
pub fn incast_sim_events_recorded(kind: SchedulerKind, msg: u64, rounds: usize) -> u64 {
    incast_sim_traced(kind, msg, rounds, RecordingTracer::new()).iter().sum()
}

/// The same incast kernel under the conformance oracle, as `--check` and
/// `build_checked` install it: a [`CheckedTracer`] with the scheme's
/// protocol-check profile — measures the cost of checking every event.
pub fn incast_sim_events_checked(kind: SchedulerKind, msg: u64, rounds: usize) -> u64 {
    let oracle = CheckedTracer::with_profile(INCAST_SCHEME.oracle_profile());
    incast_sim_traced(kind, msg, rounds, oracle).iter().sum()
}

/// The scheme every incast kernel runs.
const INCAST_SCHEME: Scheme = Scheme::ExpressPassAeolus;

fn incast_sim_traced<T: Tracer>(
    kind: SchedulerKind,
    msg: u64,
    rounds: usize,
    tracer: T,
) -> EventMix {
    let mut h = SchemeBuilder::new(INCAST_SCHEME).topology(bench_testbed()).tracer(tracer).build();
    h.topo.net.set_scheduler(kind);
    let hosts = h.hosts().to_vec();
    let flows = incast_rounds(&hosts[1..], hosts[0], msg, rounds, ms(2), 0, 1);
    h.schedule(&flows);
    h.run(ms(1000));
    h.topo.net.event_mix()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_stream_is_scheduler_independent() {
        let n = 20_000;
        assert_eq!(timer_stream_events(SchedulerKind::TimingWheel, n), n);
        assert_eq!(timer_stream_events(SchedulerKind::BinaryHeap, n), n);
    }

    #[test]
    fn incast_events_identical_across_schedulers() {
        let wheel = incast_sim_events(SchedulerKind::TimingWheel, 30_000, 2);
        let heap = incast_sim_events(SchedulerKind::BinaryHeap, 30_000, 2);
        assert_eq!(wheel, heap, "schedulers must process identical event streams");
        // 2,892 today; the floor sits at the same ~78 % of the observed count
        // that 3,000 was of 3,832 while every transmission cost a `PortFree`.
        assert!(wheel > 2_250, "incast should be event-heavy, got {wheel}");
    }

    /// Golden event count, recorded under the pre-slab build (per-flow state
    /// in `BTreeMap`s, FNV route hash per hop) — the value in the committed
    /// `BENCH_<n>.json` history. The slab/CSR hot path must drive
    /// a bit-identical simulation, so the count must never move. If this
    /// fails, a "pure performance" change altered behavior. (5,758 until
    /// `PortFree` became on-demand: 1,411 of them freed onto an empty queue.)
    #[test]
    fn incast_event_count_matches_pre_slab_golden() {
        const GOLDEN: u64 = 4347;
        assert_eq!(incast_sim_events(SchedulerKind::TimingWheel, 30_000, 3), GOLDEN);
        assert_eq!(incast_sim_events(SchedulerKind::BinaryHeap, 30_000, 3), GOLDEN);
    }

    #[test]
    fn recording_tracer_does_not_perturb_the_simulation() {
        let plain = incast_sim_events(SchedulerKind::TimingWheel, 30_000, 2);
        let recorded = incast_sim_events_recorded(SchedulerKind::TimingWheel, 30_000, 2);
        assert_eq!(plain, recorded, "the tracer must be a passive observer");
    }

    #[test]
    fn checked_tracer_does_not_perturb_the_simulation() {
        let plain = incast_sim_events(SchedulerKind::TimingWheel, 30_000, 2);
        let checked = incast_sim_events_checked(SchedulerKind::TimingWheel, 30_000, 2);
        assert_eq!(plain, checked, "the oracle must be a passive observer");
    }
}
