//! Protocol micro-behaviors, measured from a recorded run: credit pacing on
//! the wire, trim→NACK→retransmit latency, probe positioning, and window
//! dynamics — details the end-to-end FCT tests cannot see.

use aeolus_sim::topology::LinkParams;
use aeolus_sim::units::{ms, us, Rate, Time};
use aeolus_sim::{
    FlowId, NodeId, PacketKind, QueueEvent, QueueRecord, RecordingTracer, TrafficClass,
};
use aeolus_transport::{Harness, Scheme, SchemeBuilder, TopoSpec};

fn testbed() -> TopoSpec {
    TopoSpec::SingleSwitch { hosts: 8, link: LinkParams::uniform(Rate::gbps(10), us(3)) }
}

/// A completed, recorded run of a `senders`:1 incast of `size`-byte flows into
/// host 0 — flow `i` from host `i`, all starting at 0 — and the life of flow 1.
/// The default rings hold every run here whole (the 2 MB ExpressPass flow
/// leaves 2,762 records on the receiver's NIC, of 4,096 kept per port).
fn traced(scheme: Scheme, senders: usize, size: u64) -> (Harness<RecordingTracer>, Vec<QueueRecord>) {
    let mut h =
        SchemeBuilder::new(scheme).topology(testbed()).tracer(RecordingTracer::new()).build();
    let hosts = h.hosts().to_vec();
    h.schedule(&aeolus_workloads::incast_round(&hosts[1..=senders], hosts[0], size, 0, 1));
    assert!(h.run(ms(1000)));
    let tracer = h.network().tracer();
    assert!(tracer.ports().all(|(_, pt)| pt.ring_dropped() == 0), "a ring overflowed");
    let life = tracer.flow_records(FlowId(1));
    (h, life)
}

/// When `node` put a packet of the flow matching `pick` on the wire.
fn transmits(life: &[QueueRecord], node: NodeId, pick: impl Fn(&QueueRecord) -> bool) -> Vec<Time> {
    life.iter()
        .filter(|r| r.node == node && r.ev == QueueEvent::Dequeue && pick(r))
        .map(|r| r.at)
        .collect()
}

#[test]
fn expresspass_credits_are_paced_at_the_credit_interval() {
    // Steady-state credits leaving the receiver must be spaced by one
    // (MTU + credit) serialization time — the switch-throttle-compatible
    // cadence that makes induced data exactly fill the link.
    let (h, life) = traced(Scheme::ExpressPass, 1, 2_000_000);
    let credit_txs = transmits(&life, h.hosts()[0], |r| r.kind == PacketKind::Credit);
    assert!(credit_txs.len() > 100, "need a steady-state credit stream");
    // Skip the ramp; measure the median gap in the second half.
    let tail = &credit_txs[credit_txs.len() / 2..];
    let mut gaps: Vec<u64> = tail.windows(2).map(|w| w[1] - w[0]).collect();
    gaps.sort_unstable();
    let median_gap = gaps[gaps.len() / 2];
    // Full rate: one credit per (1500 + 84) B at 10 Gbps = 1267.2 ns.
    let expect = Rate::gbps(10).serialize(1500 + 84);
    let ratio = median_gap as f64 / expect as f64;
    assert!(
        (0.9..1.5).contains(&ratio),
        "median credit gap {median_gap} ps vs expected {expect} ps (ratio {ratio:.2})"
    );
}

#[test]
fn aeolus_probe_is_the_last_first_rtt_transmission() {
    let (h, life) = traced(Scheme::ExpressPassAeolus, 1, 15_000);
    let sender = h.hosts()[1];
    // One NIC port, so the sender's transmissions keep their ring order.
    let sent: Vec<&QueueRecord> =
        life.iter().filter(|r| r.node == sender && r.ev == QueueEvent::Dequeue).collect();
    let probe_tx =
        sent.iter().position(|r| r.kind == PacketKind::Probe).expect("probe transmitted");
    let last_burst_tx = sent
        .iter()
        .rposition(|r| r.class == TrafficClass::Unscheduled)
        .expect("burst transmitted");
    assert!(
        probe_tx > last_burst_tx,
        "the probe (index {probe_tx}) must trail the whole burst (last at {last_burst_tx})"
    );
}

#[test]
fn ndp_trim_to_retransmit_takes_about_one_rtt() {
    // Overload the receiver so trims occur, then check that every NACK the
    // sender is handed is followed by a retransmission within 4 RTTs
    // (header races back, NACK out, pull clocks the retransmission).
    let (h, life) = traced(Scheme::Ndp, 6, 60_000);
    let sender = h.hosts()[1];
    let rtt = h.params.base_rtt;
    // A control packet reaches a host off the last-hop port feeding it.
    let (sw, down) = h.topo.host_ingress[1];
    let nacks: Vec<u64> = life
        .iter()
        .filter(|r| {
            (r.node, r.port) == (sw, down) && r.ev == QueueEvent::Dequeue && r.kind == PacketKind::Nack
        })
        .map(|r| r.at)
        .collect();
    assert!(!nacks.is_empty(), "overload must produce NACKs");
    let data_txs = transmits(&life, sender, |r| r.kind == PacketKind::Data);
    for &t in nacks.iter().take(5) {
        let resent = data_txs.iter().any(|&at| at > t && at < t + 4 * rtt);
        assert!(resent, "NACK at {t} not answered within 4 RTTs");
    }
}

#[test]
fn dctcp_slow_start_doubles_the_flight_per_rtt() {
    let (h, life) = traced(Scheme::Dctcp { rto: ms(10) }, 1, 500_000);
    let rtt = h.params.base_rtt;
    // Count data transmissions per RTT epoch; early epochs must grow.
    let txs = transmits(&life, h.hosts()[1], |r| r.kind == PacketKind::Data);
    let epoch = |t: u64| (t / rtt) as usize;
    let mut per_epoch = vec![0usize; epoch(*txs.last().unwrap()) + 1];
    for &t in &txs {
        per_epoch[epoch(t)] += 1;
    }
    // The testbed BDP is ~15 packets, so slow start saturates the line
    // within one doubling: epoch 0 carries the 10-packet initial window
    // (plus boundary-straddling ACK-clocked sends), epoch 1 runs at
    // (near-)line rate, and the flow never falls back below it.
    assert!(
        (10..=14).contains(&per_epoch[0]),
        "initial window epoch sent {}",
        per_epoch[0]
    );
    let line_rate_pkts = (rtt / Rate::gbps(10).serialize(1500)) as usize;
    assert!(
        per_epoch[1] > per_epoch[0] && per_epoch[1] + 2 >= line_rate_pkts,
        "second RTT must reach ~line rate ({} -> {}, line {})",
        per_epoch[0],
        per_epoch[1],
        line_rate_pkts
    );
    let mid = per_epoch.len() / 2;
    assert!(
        per_epoch[mid] + 3 >= line_rate_pkts,
        "steady state must hold near line rate (epoch {mid}: {})",
        per_epoch[mid]
    );
}

#[test]
fn fastpass_slots_are_evenly_spaced() {
    let (h, life) = traced(Scheme::Fastpass, 1, 100_000);
    let txs = transmits(&life, h.hosts()[1], |r| {
        r.kind == PacketKind::Data && r.class == TrafficClass::Scheduled
    });
    assert!(txs.len() >= 10, "scheduled slots expected, saw {}", txs.len());
    let slot = Rate::gbps(10).serialize(1500);
    for w in txs.windows(2) {
        let gap = w[1] - w[0];
        assert!(
            gap >= slot,
            "scheduled transmissions {gap} ps apart — closer than one arbiter slot ({slot} ps)"
        );
    }
}

mod arbiter_invariants {
    use super::*;
    use aeolus_sim::{FlowDesc, SimRng};

    /// Fastpass invariant: under any random flow pattern, the arbiter's
    /// schedules keep every downlink queue near-empty (no destination
    /// receives two slots at once). Seeded-loop fuzz, 16 random cases.
    #[test]
    fn arbiter_keeps_queues_near_empty() {
        let mut rng = SimRng::seed_from_u64(0xa4b1);
        for case in 0..16 {
            let n_specs = 1 + rng.index(9);
            let specs: Vec<(u64, u64, u8, u8)> = (0..n_specs)
                .map(|_| {
                    (
                        1 + rng.below(149_999),
                        rng.below(200),
                        rng.below(7) as u8,
                        rng.below(7) as u8,
                    )
                })
                .collect();
            let mut h = SchemeBuilder::new(Scheme::Fastpass).topology(testbed()).build();
            let hosts = h.hosts().to_vec();
            let n = hosts.len();
            let flows: Vec<FlowDesc> = specs
                .iter()
                .enumerate()
                .map(|(i, &(size, start_us, s, d))| FlowDesc {
                    id: FlowId(i as u64 + 1),
                    src: hosts[s as usize % n],
                    dst: hosts[d as usize % n],
                    size,
                    start: us(start_us),
                })
                .filter(|f| f.src != f.dst)
                .collect();
            if flows.is_empty() {
                continue;
            }
            h.schedule(&flows);
            assert!(h.run(ms(5_000)), "case {case}: flows did not complete");
            // Every downlink queue stayed at a handful of packets.
            for &(sw, port) in &h.topo.host_ingress {
                let max_q = h.topo.net.port(sw, port).stats.qlen_max;
                assert!(
                    max_q <= 12_000,
                    "case {case}: downlink queue peaked at {max_q} B under arbiter scheduling"
                );
            }
        }
    }
}
