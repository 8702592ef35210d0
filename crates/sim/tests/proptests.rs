//! Property-based tests on the simulator's core data structures.
//!
//! Implemented as seeded-loop fuzzing (many random cases drawn from
//! [`SimRng`]) so the workspace carries no external property-testing
//! dependency: every case is reproducible from the printed case index and
//! the fixed seed.

use aeolus_sim::event::{Event, EventQueue, SchedulerKind};
use aeolus_sim::faults::{
    blackout_kills, cut_reason, link_down_at, node_down_at, node_drop_reason, slowdown_at,
    FaultIndex,
};
use aeolus_sim::routing::fnv1a;
use aeolus_sim::{
    ms, ns, us, DropReason, EnqueueOutcome, FaultPlan, FlowId, LinkFilter, NodeId, Packet,
    PacketFilter, PacketKind, PacketPool, Poll, PortId, PriorityBank, QueueDisc, RangeSet,
    RedEcnQueue, RoutePolicy, RouteTable, SimRng, Time, TrafficClass,
};

/// Random cases per property (each case is a full scenario).
const CASES: usize = 100;

/// The event queue is a stable priority queue: pops come out in
/// non-decreasing time order, FIFO within a timestamp. Checked for both
/// scheduler backends.
#[test]
fn event_queue_is_a_stable_priority_queue() {
    let mut rng = SimRng::seed_from_u64(0xe7e47);
    for case in 0..CASES {
        let n = 1 + rng.index(199);
        let times: Vec<u64> = (0..n).map(|_| rng.below(1000)).collect();
        for kind in [SchedulerKind::TimingWheel, SchedulerKind::BinaryHeap] {
            let mut q = EventQueue::with_scheduler(kind);
            for (i, &t) in times.iter().enumerate() {
                q.schedule_at(t, Event::Timer { node: NodeId(0), token: i as u64 });
            }
            let mut popped: Vec<(u64, u64)> = Vec::new();
            while let Some((t, Event::Timer { token, .. })) = q.pop() {
                popped.push((t, token));
            }
            assert_eq!(popped.len(), times.len(), "case {case} ({kind:?})");
            for w in popped.windows(2) {
                assert!(w[0].0 <= w[1].0, "case {case} ({kind:?}): time order violated");
                if w[0].0 == w[1].0 {
                    assert!(w[0].1 < w[1].1, "case {case} ({kind:?}): FIFO tie-break violated");
                }
            }
        }
    }
}

/// The wheel's fine level spans one period (4096 ticks of 2^12 ps, ≈16.8 µs)
/// and its coarse level 4096 periods (≈68.7 ms); the overflow heap holds
/// what lies beyond.
const FINE_PERIOD: Time = 1 << 24;
const COARSE_HORIZON: Time = FINE_PERIOD << 12;

/// Wheel-vs-heap differential over random interleavings of schedule /
/// reserve / fill / pop, each also checked against a sorted-list model in
/// which a place ranks by the moment it was *reserved*: a place filled late
/// — into the cursor bucket, a later fine bucket, a coarse bucket or the
/// overflow heap — pops where a `schedule_at` made at reservation time
/// would have, `passed` agrees with the model, and an abandoned reservation
/// never shows in `len()`.
#[test]
fn reserved_places_rank_by_reservation_on_wheel_and_heap() {
    let mut rng = SimRng::seed_from_u64(0x91ace);
    for case in 0..CASES {
        let ops: Vec<(u64, u64, u64)> = (0..1 + rng.index(299))
            .map(|_| (rng.below(8), rng.below(7), rng.below(1 << 20)))
            .collect();
        let run = |kind: SchedulerKind| {
            let mut q = EventQueue::with_scheduler(kind);
            // Model: pending events as `(at, rank)`, rank = index of the op
            // that scheduled or reserved; `reached` = the last one popped.
            let mut model: Vec<(Time, usize)> = Vec::new();
            let mut reached = None;
            let mut open = Vec::new();
            let mut popped = Vec::new();
            let pop = |q: &mut EventQueue, model: &mut Vec<(Time, usize)>| {
                let (t, Event::Timer { token, .. }) = q.pop()? else { unreachable!() };
                let first = (0..model.len()).min_by_key(|&i| model[i]).expect("model is empty");
                assert_eq!((t, token as usize), model.swap_remove(first), "case {case} ({kind:?})");
                assert_eq!(q.now(), t);
                Some((t, token as usize))
            };
            for (i, &(op, span, r)) in ops.iter().enumerate() {
                // Spans straddle one period and one coarse horizon ahead.
                let at = q.now()
                    + match span {
                        0 => 0,
                        1 => r % 64,
                        2 => r,
                        3 => (r % 16) << 18,
                        4 => FINE_PERIOD - 32 + r % 64,
                        5 => COARSE_HORIZON - 32 + r % 64,
                        _ => 3 * COARSE_HORIZON + r,
                    };
                match op {
                    0..=2 => {
                        q.schedule_at(at, Event::Timer { node: NodeId(0), token: i as u64 });
                        model.push((at, i));
                    }
                    3 | 4 => open.push((q.reserve(at), at, i)),
                    5 if !open.is_empty() => {
                        let (place, at, rank) = open.swap_remove(r as usize % open.len());
                        let passed = Some((at, rank)) <= reached;
                        assert_eq!(q.passed(place), passed, "case {case} ({kind:?}) op {i}");
                        if !passed {
                            q.fill(place, Event::Timer { node: NodeId(0), token: rank as u64 });
                            model.push((at, rank));
                        }
                    }
                    _ => {
                        if let Some(ev) = pop(&mut q, &mut model) {
                            reached = Some(ev);
                            popped.push(ev);
                        }
                    }
                }
                assert_eq!(q.len(), model.len(), "case {case} ({kind:?}) op {i}");
            }
            popped.extend(std::iter::from_fn(|| pop(&mut q, &mut model)));
            assert!(model.is_empty() && q.is_empty());
            popped
        };
        let (wheel, heap) = (run(SchedulerKind::TimingWheel), run(SchedulerKind::BinaryHeap));
        assert_eq!(wheel, heap, "case {case}: schedulers disagree");
    }
}

/// Wheel-vs-heap differential on a self-sustaining stream whose delays are
/// drawn from the mix measured on the packet-level workloads: 7 % zero (a
/// handler's same-instant follow-up), 15 % ~120 ns (an MTU frame at
/// 100 Gbps), 46 % ~1 µs (a hop at 10 Gbps), 20 % ~8 µs (an RTT), 10 %
/// timers at 2–10 ms and 2 % beyond the coarse horizon. Every pop schedules
/// 0–2 events, one in ten through a place reserved now and filled after the
/// next pop (abandoned if the run passed it), so the stream keeps the
/// fine level busy, cascades coarse buckets full of out-of-order fills and
/// migrates overflow timers, pop for pop against the heap.
#[test]
fn wheel_matches_heap_on_the_measured_delay_mix() {
    let delay = |rng: &mut SimRng| match rng.below(100) {
        0..7 => 0,
        7..22 => ns(100) + rng.below(ns(40)),
        22..68 => ns(500) + rng.below(us(1)),
        68..88 => us(6) + rng.below(us(4)),
        88..98 => ms(2) + rng.below(ms(8)),
        _ => COARSE_HORIZON + rng.below(COARSE_HORIZON),
    };
    for case in 0..8u64 {
        let run = |kind: SchedulerKind| {
            let mut rng = SimRng::seed_from_u64(0xde1a7 ^ case);
            let mut q = EventQueue::with_scheduler(kind);
            let timer = |token| Event::Timer { node: NodeId(0), token };
            let mut token = 0u64;
            for _ in 0..256 {
                q.schedule_at(delay(&mut rng), timer(token));
                token += 1;
            }
            let (mut popped, mut open) = (Vec::new(), None);
            while popped.len() < 6000 {
                let Some((t, Event::Timer { token: got, .. })) = q.pop() else { break };
                popped.push((t, got));
                if let Some((place, token)) = open.take() {
                    if !q.passed(place) {
                        q.fill(place, timer(token));
                    }
                }
                for _ in 0..[0, 1, 1, 2][rng.index(4)] {
                    let at = t + delay(&mut rng);
                    if open.is_none() && rng.chance(0.1) {
                        open = Some((q.reserve(at), token));
                    } else {
                        q.schedule_at(at, timer(token));
                    }
                    token += 1;
                }
            }
            popped
        };
        let (wheel, heap) = (run(SchedulerKind::TimingWheel), run(SchedulerKind::BinaryHeap));
        assert!(heap.len() > 3000, "case {case}: stream died after {} pops", heap.len());
        assert_eq!(wheel, heap, "case {case}: schedulers disagree");
    }
}

/// RangeSet agrees with a naive boolean-vector model.
#[test]
fn rangeset_matches_naive_model() {
    let mut rng = SimRng::seed_from_u64(0x4a2e5e7);
    for case in 0..CASES {
        let n_ops = 1 + rng.index(59);
        let ops: Vec<(u64, u64)> =
            (0..n_ops).map(|_| (rng.below(500), 1 + rng.below(59))).collect();
        let mut rs = RangeSet::new();
        let mut model = vec![false; 600];
        for &(start, len) in &ops {
            let end = (start + len).min(600);
            let added = rs.insert(start, end);
            let mut model_added = 0;
            for b in model.iter_mut().take(end as usize).skip(start as usize) {
                if !*b {
                    *b = true;
                    model_added += 1;
                }
            }
            assert_eq!(added, model_added as u64, "case {case}");
        }
        let covered = model.iter().filter(|&&b| b).count() as u64;
        assert_eq!(rs.covered(), covered, "case {case}");
        // Gap structure agrees.
        let gaps = rs.gaps(600);
        let mut naive_gaps = Vec::new();
        let mut i = 0usize;
        while i < 600 {
            if !model[i] {
                let s = i;
                while i < 600 && !model[i] {
                    i += 1;
                }
                naive_gaps.push((s as u64, i as u64));
            } else {
                i += 1;
            }
        }
        assert_eq!(gaps, naive_gaps, "case {case}");
        // contiguous_prefix agrees.
        let prefix = model.iter().take_while(|&&b| b).count() as u64;
        assert_eq!(rs.contiguous_prefix(), prefix, "case {case}");
    }
}

/// A route table agrees with a nested-`Vec` model of the same build: each
/// group holds its ports in first-add order with duplicates ignored, so
/// `group` is equal for every destination, `select` under `EcmpHash` picks
/// the model group's `hash % len`-th port, and `select` under `Spray` picks
/// what the same seed draws from the model group. Builds mix `add_route` and
/// `add_routes`, ascending and out-of-order destinations, duplicate ports,
/// destinations past the initial size, and selects between the adds.
#[test]
fn route_table_matches_nested_vec_model() {
    let mut rng = SimRng::seed_from_u64(0x407e5);
    for case in 0..CASES {
        let initial = rng.index(8);
        let seed = rng.below(1 << 32);
        let mut ecmp = RouteTable::new(initial, RoutePolicy::EcmpHash, seed);
        let mut spray = RouteTable::new(initial, RoutePolicy::Spray, seed);
        let mut model: Vec<Vec<PortId>> = Vec::new();
        let mut model_rng = SimRng::seed_from_u64(seed);
        let mut next = 0u32;
        let mut flow = 0u64;
        for _ in 0..1 + rng.index(79) {
            // Mostly the order the topology builders use: the last
            // destination again or the next one up; else anywhere.
            let dst = match rng.below(4) {
                0 => rng.below(32) as u32,
                1 => next.saturating_sub(1),
                _ => next,
            };
            next = next.max(dst + 1);
            let ports: Vec<PortId> =
                (0..1 + rng.index(5)).map(|_| PortId(rng.below(6) as u16)).collect();
            if rng.below(2) == 0 {
                ecmp.add_routes(NodeId(dst), &ports);
                spray.add_routes(NodeId(dst), &ports);
            } else {
                for &p in &ports {
                    ecmp.add_route(NodeId(dst), p);
                    spray.add_route(NodeId(dst), p);
                }
            }
            if model.len() <= dst as usize {
                model.resize(dst as usize + 1, Vec::new());
            }
            for p in ports {
                if !model[dst as usize].contains(&p) {
                    model[dst as usize].push(p);
                }
            }
            // Selects towards routed destinations, mid-build and after it.
            for _ in 0..rng.index(3) {
                let dst = rng.index(model.len());
                let group = &model[dst];
                if group.is_empty() {
                    continue;
                }
                flow += 1;
                let mut pkt = Packet::data(
                    FlowId(flow),
                    NodeId(0),
                    NodeId(dst as u32),
                    0,
                    1460,
                    TrafficClass::Scheduled,
                    1460,
                );
                pkt.path_tag = rng.below(4);
                let h = fnv1a(pkt.flow.0, pkt.path_tag);
                let want = group[(h % group.len() as u64) as usize];
                assert_eq!(ecmp.select(&pkt), want, "case {case}: ECMP towards {dst}");
                let want =
                    if group.len() == 1 { group[0] } else { group[model_rng.index(group.len())] };
                assert_eq!(spray.select(&pkt), want, "case {case}: spray towards {dst}");
            }
        }
        for dst in 0..40 {
            let want = model.get(dst).map_or(&[][..], Vec::as_slice);
            assert_eq!(ecmp.group(NodeId(dst as u32)), want, "case {case}: group {dst}");
            assert_eq!(spray.group(NodeId(dst as u32)), want, "case {case}: group {dst}");
        }
    }
}

/// With only droppable (unscheduled) traffic, a selective-dropping queue
/// never holds more than threshold + one packet.
#[test]
fn selective_queue_bounded_by_threshold() {
    let mut rng = SimRng::seed_from_u64(0x5e1ec7);
    for case in 0..CASES {
        let threshold = rng.range_u64(1_500, 50_000);
        let n = 1 + rng.below(199);
        let mut pool = PacketPool::new();
        let mut q = RedEcnQueue::new(threshold, 1 << 30);
        let mut dropped = 0u64;
        for i in 0..n {
            let r = pool.insert(Packet::data(
                FlowId(1),
                NodeId(0),
                NodeId(1),
                i * 1460,
                1460,
                TrafficClass::Unscheduled,
                1 << 20,
            ));
            if let EnqueueOutcome::Dropped { reason, pkt } = q.enqueue(r, &mut pool, 0) {
                assert_eq!(reason, DropReason::SelectiveDrop, "case {case}");
                pool.free(pkt);
                dropped += 1;
            }
            assert!(
                q.bytes() < threshold + 1500,
                "case {case}: queue {} vs threshold {}",
                q.bytes(),
                threshold
            );
        }
        // Conservation: everything is queued or dropped.
        assert_eq!(q.pkts() as u64 + dropped, n, "case {case}");
    }
}

/// A priority bank drains packets of each priority level in FIFO order
/// and never inverts priorities present simultaneously.
#[test]
fn priority_bank_respects_strict_priority() {
    let mut rng = SimRng::seed_from_u64(0xba4);
    for case in 0..CASES {
        let n = 1 + rng.index(99);
        let prios: Vec<u8> = (0..n).map(|_| rng.below(8) as u8).collect();
        let mut pool = PacketPool::new();
        let mut q = PriorityBank::new(8, 1 << 30);
        for (i, &p) in prios.iter().enumerate() {
            let mut pkt = Packet::data(
                FlowId(1),
                NodeId(0),
                NodeId(1),
                i as u64,
                1460,
                TrafficClass::Scheduled,
                1 << 20,
            );
            pkt.priority = p;
            let r = pool.insert(pkt);
            let _ = q.enqueue(r, &mut pool, 0);
        }
        // Drain fully: output must be sorted by (priority, arrival order).
        let mut out = Vec::new();
        while let Poll::Ready(r) = q.poll(&mut pool, 0) {
            let pkt = pool.get(r);
            out.push((pkt.priority, pkt.seq));
            pool.free(r);
        }
        assert_eq!(out.len(), prios.len(), "case {case}");
        let mut expected: Vec<(u8, u64)> =
            prios.iter().enumerate().map(|(i, &p)| (p, i as u64)).collect();
        expected.sort();
        assert_eq!(out, expected, "case {case}");
    }
}

/// WRED (color-based) and RED/ECN (marking-based) selective dropping make
/// identical drop decisions for any threshold and traffic mix — the §4.1
/// deployment-equivalence claim, fuzzed.
#[test]
fn wred_equals_red_ecn_for_any_mix() {
    use aeolus_sim::{WredProfile, WredQueue};
    let mut rng = SimRng::seed_from_u64(0x44ed);
    for case in 0..CASES {
        let threshold = rng.range_u64(1_500, 60_000);
        let n_ops = 1 + rng.index(299);
        let ops: Vec<(u8, bool)> =
            (0..n_ops).map(|_| (rng.below(3) as u8, rng.chance(0.5))).collect();
        let cap = 200_000u64;
        let mut pool = PacketPool::new();
        let mut wred = WredQueue::new(WredProfile::aeolus(threshold, cap), cap);
        let mut red = RedEcnQueue::new(threshold, cap);
        for (i, &(kind, dequeue)) in ops.iter().enumerate() {
            if dequeue {
                let a = match wred.poll(&mut pool, 0) {
                    Poll::Ready(r) => {
                        pool.free(r);
                        true
                    }
                    _ => false,
                };
                let b = match red.poll(&mut pool, 0) {
                    Poll::Ready(r) => {
                        pool.free(r);
                        true
                    }
                    _ => false,
                };
                assert_eq!(a, b, "case {case} op {i}");
            } else {
                let class = match kind {
                    0 => TrafficClass::Unscheduled,
                    1 => TrafficClass::Scheduled,
                    _ => TrafficClass::Control,
                };
                let mut pkt =
                    Packet::data(FlowId(1), NodeId(0), NodeId(1), i as u64, 1460, class, 1 << 20);
                if class == TrafficClass::Control {
                    pkt.class = TrafficClass::Control;
                    pkt.ecn = aeolus_sim::Ecn::Ect0;
                }
                let rw = pool.insert(pkt.clone());
                let rr = pool.insert(pkt);
                let a = match wred.enqueue(rw, &mut pool, 0) {
                    EnqueueOutcome::Dropped { pkt, .. } => {
                        pool.free(pkt);
                        true
                    }
                    _ => false,
                };
                let b = match red.enqueue(rr, &mut pool, 0) {
                    EnqueueOutcome::Dropped { pkt, .. } => {
                        pool.free(pkt);
                        true
                    }
                    _ => false,
                };
                assert_eq!(a, b, "case {case}: divergence at op {i}");
            }
            assert_eq!(wred.bytes(), red.bytes(), "case {case} op {i}");
        }
    }
}

/// Whether the two disciplines could be one, settled by measurement: the
/// RED/ECN FIFO and a one-level priority bank with the selective threshold
/// are the same admission rule. For any threshold, buffer and traffic mix
/// they accept and drop exactly the same arrivals and drain in the same
/// order. They differ only where
/// `queues/mod.rs` says they do: the *reason* on a droppable arrival that is
/// over the threshold and would also overflow the buffer (`BufferFull` from
/// the FIFO, which tests the cap first; `SelectiveDrop` from the bank, which
/// tests the threshold first), and CE-marking of kept ECT arrivals at or
/// above the threshold (the FIFO marks, the bank does not). The band names
/// (`fifo` vs `p0`) and those reasons are in the trace JSONL, which is why
/// the disciplines stay separate types.
#[test]
fn red_ecn_fifo_equals_one_level_selective_bank() {
    use aeolus_sim::Ecn;
    let mut rng = SimRng::seed_from_u64(0x3e60);
    let (mut both_rules, mut marks) = (0, 0);
    for case in 0..CASES {
        let cap = rng.range_u64(8_000, 60_000);
        let k = rng.range_u64(1_500, cap);
        let poll_chance = [0.2, 0.45, 0.6][rng.index(3)];
        let mut pool = PacketPool::new();
        let mut red = RedEcnQueue::new(k, cap);
        let mut bank = PriorityBank::new(1, cap).with_selective_threshold(k);
        for op in 0..400u64 {
            let ctx = format!("case {case} op {op} (k {k}, cap {cap})");
            if rng.chance(poll_chance) {
                let seq = |poll: Poll, pool: &mut PacketPool| match poll {
                    Poll::Ready(r) => {
                        let seq = pool.get(r).seq;
                        pool.free(r);
                        Some(seq)
                    }
                    _ => None,
                };
                let (a, b) = (red.poll(&mut pool, 0), bank.poll(&mut pool, 0));
                assert_eq!(seq(a, &mut pool), seq(b, &mut pool), "{ctx}: drain order");
            } else {
                let class = [TrafficClass::Scheduled, TrafficClass::Unscheduled][rng.index(2)];
                let payload = [1, 512, 1460][rng.index(3)];
                let mut pkt =
                    Packet::data(FlowId(1), NodeId(0), NodeId(1), op, payload, class, 1 << 20);
                pkt.ecn = [Ecn::NotEct, Ecn::Ect0, Ecn::Ce][rng.index(3)];
                pkt.priority = rng.index(8) as u8; // one level: all clamp to it
                let (droppable, size, before) = (pkt.droppable(), pkt.size as u64, red.bytes());
                let (over_k, over_cap) = (before >= k, before + size > cap);
                let (rr, rb) = (pool.insert(pkt.clone()), pool.insert(pkt));
                let a = red.enqueue(rr, &mut pool, 0);
                let b = bank.enqueue(rb, &mut pool, 0);
                match (a, b) {
                    (EnqueueOutcome::Queued, EnqueueOutcome::Queued) => {
                        assert!(!over_k && !over_cap, "{ctx}: kept unmarked below both limits");
                    }
                    (EnqueueOutcome::QueuedMarked, EnqueueOutcome::Queued) => {
                        assert!(over_k && !droppable && !over_cap, "{ctx}: only the FIFO marks");
                        marks += 1;
                    }
                    (
                        EnqueueOutcome::Dropped { reason: ra, pkt: pa },
                        EnqueueOutcome::Dropped { reason: rb, pkt: pb },
                    ) => {
                        let want = match (over_k && droppable, over_cap) {
                            (true, true) => (DropReason::BufferFull, DropReason::SelectiveDrop),
                            (true, false) => (DropReason::SelectiveDrop, DropReason::SelectiveDrop),
                            (false, true) => (DropReason::BufferFull, DropReason::BufferFull),
                            (false, false) => panic!("{ctx}: dropped under both limits"),
                        };
                        assert_eq!((ra, rb), want, "{ctx}: drop reasons");
                        both_rules += (ra != rb) as usize;
                        pool.free(pa);
                        pool.free(pb);
                    }
                    (a, b) => panic!("{ctx}: FIFO {a:?} but bank {b:?}"),
                }
            }
            assert_eq!((red.bytes(), red.pkts()), (bank.bytes(), bank.pkts()), "{ctx}");
        }
    }
    assert!(both_rules > 0 && marks > 0, "mix never reached the two documented differences");
}

/// The time index over a fault plan answers every engine query from its open
/// subset exactly as a full scan of the run's windows does: random plans
/// over every directive
/// (overlapping, nested and abutting windows on a 300 ps grid) are queried
/// at monotone times that hit every boundary exactly and skip others
/// entirely, with serialisations `[t, t1)` that touch and straddle the next
/// window start by 1 ps.
#[test]
fn fault_index_matches_full_scan() {
    const SPAN: u64 = 300;
    let mut rng = SimRng::seed_from_u64(0xfa17_1d35);
    let credit = Packet::control(FlowId(1), NodeId(0), NodeId(1), 0, PacketKind::Credit);
    let data = Packet::data(FlowId(1), NodeId(0), NodeId(1), 0, 100, TrafficClass::Scheduled, 100);
    for case in 0..CASES {
        let hosts: Vec<NodeId> = (0..6).map(NodeId).collect();
        let arbiter = rng.chance(0.5).then_some(NodeId(9));
        let mut plan = FaultPlan::new(case as u64);
        let mut bounds: Vec<Time> = Vec::new();
        for _ in 0..rng.index(9) {
            let from = rng.below(SPAN);
            let until = from + 1 + rng.below(SPAN / 2);
            bounds.extend([from, until]);
            let node = NodeId(rng.below(8) as u32);
            let links = match rng.below(4) {
                0 => LinkFilter::All,
                1 => LinkFilter::Node(node),
                2 => LinkFilter::Link(node, PortId(rng.below(2) as u16)),
                _ => LinkFilter::Adjacent(node),
            };
            plan = match rng.below(6) {
                0 => plan.with_loss(0.5, PacketFilter::Any, links),
                1 => plan.with_down(from, until, links),
                2 => plan.with_degraded(from, until, 1 + rng.below(5) as u32, links),
                3 => plan.with_crash(from, until, rng.index(8)),
                4 => plan.with_arbiter_outage(from, until),
                _ => plan.with_partition(from, until),
            };
        }

        // Every boundary and its neighbours, plus a few instants in between;
        // a random half is dropped so `advance` also jumps several
        // boundaries at once.
        let mut times: Vec<Time> =
            bounds.iter().flat_map(|&b| [b.saturating_sub(1), b, b + 1]).collect();
        times.extend((0..8).map(|_| rng.below(2 * SPAN)));
        times.retain(|_| rng.chance(0.5));
        times.sort_unstable();

        let mut idx = FaultIndex::new(&plan, &hosts, arbiter, 0);
        assert_eq!(idx.plan(), &plan);
        // The reference: every window of the run, scanned in full.
        let all = idx.windows().to_vec();
        let inert = plan.corruption.is_empty() && all.is_empty();
        assert_eq!(idx.active(), !inert, "case {case}");
        for &t in &times {
            idx.advance(t);
            let open = idx.open_at(t);
            // The open set is exactly the covering windows, in list order —
            // whatever instants were visited before `t`.
            let covering: Vec<_> = all.iter().filter(|w| w.covers(t)).copied().collect();
            assert_eq!(open, covering, "case {case} t {t}");
            for n in (0..10).map(NodeId) {
                let dead = node_down_at(&all, n, t);
                assert_eq!(node_down_at(open, n, t), dead, "case {case} t {t}");
                if dead {
                    assert_eq!(node_drop_reason(open, n, t), node_drop_reason(&all, n, t));
                }
                for (port, to) in [(PortId(0), NodeId(10)), (PortId(1), NodeId((n.0 + 3) % 10))] {
                    let ctx = format!("case {case} t {t} link {n:?}/{port:?}->{to:?}");
                    assert_eq!(
                        link_down_at(open, n, port, to, t),
                        link_down_at(&all, n, port, to, t),
                        "{ctx}"
                    );
                    assert_eq!(
                        slowdown_at(open, n, port, to, t),
                        slowdown_at(&all, n, port, to, t),
                        "{ctx}"
                    );
                    // Serialisations ending just after `t`, exactly at and
                    // 1 ps past the next boundaries, and far beyond them.
                    let next = bounds.iter().copied().filter(|&b| b > t).min().unwrap_or(t + 5);
                    for t1 in [t + 1, next, next + 1, t + 1 + rng.below(SPAN)] {
                        assert_eq!(
                            idx.cut_reason(n, port, to, t, t1),
                            cut_reason(&all, n, port, to, t, t1),
                            "{ctx} until {t1}"
                        );
                    }
                }
            }
            for pkt in [&credit, &data] {
                let kills = blackout_kills(&all, pkt, t);
                assert_eq!(blackout_kills(open, pkt, t), kills, "case {case} t {t}");
            }
        }
    }
}

/// `FaultPlan::from_str` on hostile input: valid specs with bytes flipped,
/// inserted, deleted and spliced, grammar fragments glued at random, and raw
/// random bytes. Every input is either rejected with an error that names one
/// of its directives, or parses to a plan whose `Display` parses back to the
/// same plan and is a fixpoint. Nothing panics — including the builder
/// asserts behind the parser and times past what picoseconds can hold.
#[test]
fn fault_spec_parser_survives_hostile_input() {
    const SEEDS: [&str; 6] = [
        "loss=0.5%, credit-loss=0.02, down=1ms..1.5ms, degrade=2ms..3ms@4, seed=9",
        "crash=3@200us..500us, arbiter=1ms..1500us, partition=2ms..2500us",
        "data-loss=0.1,ctrl-loss=25%,ack-loss=1,probe-loss=0.5,sched-loss=1e-3,unsched-loss=0",
        "degrade=1ms..99999999999999999999s@2",
        "down=0..18446744073709549568, crash=18446744073709551615@1..2, seed=18446744073709551615",
        "",
    ];
    const FRAGMENTS: [&str; 28] = [
        "loss", "credit-loss", "down", "degrade", "crash", "arbiter", "partition", "seed", "=",
        "==", ",", ", ", "..", "...", "@", "%", "-", "+", ".", "0", "1", "9", "e", "ns", "us",
        "ms", "s", "ps",
    ];
    let mut rng = SimRng::seed_from_u64(0x405_711e);
    let (mut parsed, mut rejected) = (0, 0);
    for case in 0..40 * CASES {
        let mut bytes = SEEDS[rng.index(SEEDS.len())].as_bytes().to_vec();
        match rng.index(3) {
            // Mutate a valid spec a few bytes at a time.
            0 => {
                for _ in 0..1 + rng.index(3) {
                    let at = rng.index(bytes.len() + 1);
                    match rng.index(5) {
                        // A digit for a digit keeps most specs well-formed.
                        0 if bytes.get(at).is_some_and(u8::is_ascii_digit) => {
                            bytes[at] = b'0' + rng.below(10) as u8;
                        }
                        0 | 4 if at < bytes.len() => bytes[at] ^= 1 << rng.index(8),
                        1 if at < bytes.len() => drop(bytes.remove(at)),
                        2 => bytes.insert(at, rng.below(256) as u8),
                        _ => {
                            let frag = FRAGMENTS[rng.index(FRAGMENTS.len())].as_bytes();
                            bytes.splice(at..at, frag.iter().copied());
                        }
                    }
                }
            }
            // Glue grammar fragments together.
            1 => {
                bytes.clear();
                for _ in 0..rng.index(12) {
                    bytes.extend(FRAGMENTS[rng.index(FRAGMENTS.len())].as_bytes());
                }
            }
            // Raw bytes.
            _ => bytes = (0..rng.index(24)).map(|_| rng.below(256) as u8).collect(),
        }
        let input = String::from_utf8_lossy(&bytes).into_owned();
        match input.parse::<FaultPlan>() {
            Err(e) => {
                rejected += 1;
                let named = input
                    .split(',')
                    .map(str::trim)
                    .any(|tok| !tok.is_empty() && e.contains(&format!("'{tok}'")));
                assert!(named, "case {case}: error '{e}' names no directive of {input:?}");
            }
            Ok(plan) => {
                parsed += 1;
                let shown = plan.to_string();
                let back: FaultPlan = shown.parse().unwrap_or_else(|e| {
                    panic!("case {case}: {input:?} printed as '{shown}', which fails: {e}")
                });
                assert_eq!(back, plan, "case {case}: {input:?} printed as '{shown}'");
                assert_eq!(back.to_string(), shown, "case {case}: display not a fixpoint");
            }
        }
    }
    // Both branches must carry weight, or the loop proves nothing.
    assert!(parsed > 200 && rejected > 200, "{parsed} parsed, {rejected} rejected");
}
