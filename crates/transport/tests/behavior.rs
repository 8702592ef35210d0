//! Behavioral tests of protocol internals observable end-to-end: credit
//! ramping, SRPT ordering, path spraying, selective-dropping bounds and
//! oracle non-interference.

use aeolus_sim::topology::LinkParams;
use aeolus_sim::units::{ms, us, Rate, PS_PER_SEC};
use aeolus_sim::{FlowDesc, FlowId, NodeId};
use aeolus_transport::{Scheme, SchemeBuilder, SchemeParams, TopoSpec};

fn testbed() -> TopoSpec {
    TopoSpec::SingleSwitch { hosts: 8, link: LinkParams::uniform(Rate::gbps(10), us(3)) }
}

#[test]
fn expresspass_credit_loop_ramps_to_near_line_rate() {
    let mut h = SchemeBuilder::new(Scheme::ExpressPass).topology(testbed()).build();
    let hosts = h.hosts().to_vec();
    let size = 4_000_000u64;
    h.schedule(&[FlowDesc { id: FlowId(1), src: hosts[1], dst: hosts[0], size, start: 0 }]);
    assert!(h.run(ms(100)));
    let fct = h.metrics().flow(FlowId(1)).unwrap().fct().unwrap();
    let achieved_bps = size as f64 * 8.0 / (fct as f64 / PS_PER_SEC as f64);
    assert!(
        achieved_bps > 0.7 * 10e9,
        "4MB flow achieved only {:.2} Gbps — the feedback loop failed to ramp",
        achieved_bps / 1e9
    );
}

#[test]
fn expresspass_shares_a_bottleneck_roughly_fairly() {
    let mut h = SchemeBuilder::new(Scheme::ExpressPass).topology(testbed()).build();
    let hosts = h.hosts().to_vec();
    // Two equal elephants into the same receiver, started together.
    h.schedule(&[
        FlowDesc { id: FlowId(1), src: hosts[1], dst: hosts[0], size: 2_000_000, start: 0 },
        FlowDesc { id: FlowId(2), src: hosts[2], dst: hosts[0], size: 2_000_000, start: 0 },
    ]);
    assert!(h.run(ms(200)));
    let f1 = h.metrics().flow(FlowId(1)).unwrap().fct().unwrap() as f64;
    let f2 = h.metrics().flow(FlowId(2)).unwrap().fct().unwrap() as f64;
    let ratio = f1.max(f2) / f1.min(f2);
    assert!(ratio < 1.5, "FCT ratio {ratio:.2} — credit scheduler is unfair");
}

#[test]
fn homa_srpt_prefers_short_messages() {
    let mut h = SchemeBuilder::new(Scheme::HomaAeolus).topology(testbed()).build();
    let hosts = h.hosts().to_vec();
    // A big message starts first; a small one arrives while it transfers.
    h.schedule(&[
        FlowDesc { id: FlowId(1), src: hosts[1], dst: hosts[0], size: 2_000_000, start: 0 },
        FlowDesc { id: FlowId(2), src: hosts[2], dst: hosts[0], size: 50_000, start: us(100) },
    ]);
    assert!(h.run(ms(200)));
    let big = h.metrics().flow(FlowId(1)).unwrap().completed_at.unwrap();
    let small = h.metrics().flow(FlowId(2)).unwrap().completed_at.unwrap();
    assert!(
        small < big,
        "SRPT violated: the 50KB message ({small}) must finish before the 2MB one ({big})"
    );
}

#[test]
fn ndp_sprays_across_all_spines() {
    let spec = TopoSpec::LeafSpine {
        spines: 4,
        leaves: 2,
        hosts_per_leaf: 2,
        link: LinkParams::uniform(Rate::gbps(100), us(1)),
    };
    let mut h = SchemeBuilder::new(Scheme::Ndp).topology(spec).build();
    let hosts = h.hosts().to_vec();
    // Cross-leaf elephant: its packets must spread over all 4 spines.
    h.schedule(&[FlowDesc { id: FlowId(1), src: hosts[0], dst: hosts[3], size: 1_000_000, start: 0 }]);
    assert!(h.run(ms(100)));
    // Spines are the first 4 switches; count data bytes through each.
    let mut used = 0;
    for s in 0..4 {
        let sw = h.topo.switches[s];
        let total: u64 =
            (0..h.topo.net.node(sw).ports.len()).map(|p| {
                h.topo.net.port(sw, aeolus_sim::PortId(p as u16)).stats.payload_tx
            }).sum();
        if total > 0 {
            used += 1;
        }
    }
    assert_eq!(used, 4, "per-packet spraying must exercise every spine");
}

#[test]
fn ecmp_pins_expresspass_flows_to_one_path() {
    let spec = TopoSpec::LeafSpine {
        spines: 4,
        leaves: 2,
        hosts_per_leaf: 2,
        link: LinkParams::uniform(Rate::gbps(100), us(1)),
    };
    let mut h = SchemeBuilder::new(Scheme::ExpressPassAeolus).topology(spec).build();
    let hosts = h.hosts().to_vec();
    h.schedule(&[FlowDesc { id: FlowId(1), src: hosts[0], dst: hosts[3], size: 1_000_000, start: 0 }]);
    assert!(h.run(ms(100)));
    let mut spines_carrying_data = 0;
    for s in 0..4 {
        let sw = h.topo.switches[s];
        let total: u64 =
            (0..h.topo.net.node(sw).ports.len()).map(|p| {
                h.topo.net.port(sw, aeolus_sim::PortId(p as u16)).stats.payload_tx
            }).sum();
        if total > 0 {
            spines_carrying_data += 1;
        }
    }
    assert_eq!(spines_carrying_data, 1, "per-flow ECMP must pin the flow to one spine");
}

#[test]
fn selective_dropping_bounds_the_bottleneck_queue() {
    // Under a synchronized EP+Aeolus incast, the bottleneck queue must stay
    // near the 6KB threshold: unscheduled can't pile up, and scheduled
    // packets are credit-paced.
    let mut h = SchemeBuilder::new(Scheme::ExpressPassAeolus).topology(testbed()).build();
    let hosts = h.hosts().to_vec();
    let flows: Vec<FlowDesc> = (0..7)
        .map(|i| FlowDesc {
            id: FlowId(i + 1),
            src: hosts[i as usize + 1],
            dst: hosts[0],
            size: 100_000,
            start: 0,
        })
        .collect();
    h.schedule(&flows);
    assert!(h.run(ms(2000)));
    let (sw, port) = h.topo.host_ingress[0];
    let max_q = h.topo.net.port(sw, port).stats.qlen_max;
    assert!(
        max_q < 30_000,
        "bottleneck queue peaked at {max_q} B — selective dropping failed to bound it"
    );
}

#[test]
fn oracle_burst_does_not_disturb_a_scheduled_victim() {
    // Data-path non-interference (the SPF property): a victim flow and the
    // oracle bursts share only a *middle* link — different receivers, so the
    // victim's credit stream is untouched. Its FCT must be (nearly)
    // identical with and without the bursts.
    let spec = || TopoSpec::LeafSpine {
        spines: 1,
        leaves: 2,
        hosts_per_leaf: 4,
        link: LinkParams::uniform(Rate::gbps(10), us(1)),
    };
    let run = |with_burst: bool| {
        let mut h = SchemeBuilder::new(Scheme::ExpressPassOracle).topology(spec()).build();
        let hosts = h.hosts().to_vec();
        // Victim crosses leaf0 -> spine -> leaf1.
        let mut flows =
            vec![FlowDesc { id: FlowId(1), src: hosts[0], dst: hosts[4], size: 500_000, start: 0 }];
        if with_burst {
            // Bursts cross the same uplink to *different* receivers.
            for i in 0..3u64 {
                flows.push(FlowDesc {
                    id: FlowId(10 + i),
                    src: hosts[1 + i as usize],
                    dst: hosts[5 + i as usize],
                    size: 15_000,
                    start: us(50),
                });
            }
        }
        h.schedule(&flows);
        assert!(h.run(ms(2000)));
        h.metrics().flow(FlowId(1)).unwrap().fct().unwrap()
    };
    let clean = run(false);
    let disturbed = run(true);
    let inflation = disturbed as f64 / clean as f64;
    // Strict priority precludes queueing behind unscheduled packets; the
    // residual inflation is the burst flows' *scheduled retransmissions*
    // legitimately sharing the uplink (45 KB over a ~500 KB victim), plus
    // credit-path sharing — far below what a blind burst would inflict.
    assert!(
        inflation < 1.35,
        "oracle bursts inflated the victim FCT by {:.1}% — data-path interference detected",
        (inflation - 1.0) * 100.0
    );
}

#[test]
fn homa_learns_size_from_probe_when_whole_burst_is_lost() {
    // Force every unscheduled packet of one flow to drop by pre-filling the
    // bottleneck with other bursts; the probe (protected) still delivers the
    // demand and the flow completes via grants.
    let mut h = SchemeBuilder::new(Scheme::HomaAeolus).topology(testbed()).build();
    let hosts = h.hosts().to_vec();
    let mut flows: Vec<FlowDesc> = (0..6)
        .map(|i| FlowDesc {
            id: FlowId(i + 1),
            src: hosts[i as usize + 1],
            dst: hosts[0],
            size: 21_000,
            start: 0,
        })
        .collect();
    // The victim starts a hair later: queue already ≥ threshold.
    flows.push(FlowDesc { id: FlowId(7), src: hosts[7], dst: hosts[0], size: 21_000, start: us(2) });
    h.schedule(&flows);
    assert!(h.run(ms(2000)), "all flows must complete even with heavy burst loss");
    assert_eq!(h.metrics().completed_count(), 7);
}

#[test]
fn node_id_sanity() {
    // Guard against host/switch id mixups in topology handles.
    let h = SchemeBuilder::new(Scheme::Ndp).topology(testbed()).build();
    for &id in h.hosts() {
        assert!(h.topo.net.node(id).is_host());
    }
    for &id in &h.topo.switches {
        assert!(!h.topo.net.node(id).is_host());
    }
    let _ = NodeId(0);
}

#[test]
fn dctcp_delivers_and_converges() {
    // Single elephant should approach line rate after slow start.
    let mut h = SchemeBuilder::new(Scheme::Dctcp { rto: ms(10) }).topology(testbed()).build();
    let hosts = h.hosts().to_vec();
    let size = 2_000_000u64;
    h.schedule(&[FlowDesc { id: FlowId(1), src: hosts[1], dst: hosts[0], size, start: 0 }]);
    assert!(h.run(ms(200)));
    let fct = h.metrics().flow(FlowId(1)).unwrap().fct().unwrap();
    let achieved = size as f64 * 8.0 / (fct as f64 / PS_PER_SEC as f64);
    assert!(achieved > 5e9, "DCTCP elephant achieved only {:.2} Gbps", achieved / 1e9);
}

#[test]
fn dctcp_needs_more_rtts_than_aeolus_for_sub_bdp_flows() {
    // The intro's argument: a reactive transport slow-starts, so a message
    // larger than the initial window needs several RTTs, while an Aeolus
    // burst finishes it in roughly one.
    let fct = |scheme| {
        let mut h = SchemeBuilder::new(scheme).topology(testbed()).build();
        let hosts = h.hosts().to_vec();
        h.schedule(&[FlowDesc { id: FlowId(1), src: hosts[1], dst: hosts[0], size: 21_000, start: 0 }]);
        assert!(h.run(ms(100)));
        h.metrics().flow(FlowId(1)).unwrap().fct().unwrap()
    };
    let dctcp = fct(Scheme::Dctcp { rto: ms(10) });
    let aeolus = fct(Scheme::ExpressPassAeolus);
    assert!(
        aeolus < dctcp,
        "EP+Aeolus ({aeolus}) must finish a ~BDP message faster than DCTCP ({dctcp})"
    );
}

#[test]
fn dctcp_survives_incast_with_ecn_backoff() {
    let mut h = SchemeBuilder::new(Scheme::Dctcp { rto: ms(10) }).topology(testbed()).build();
    let hosts = h.hosts().to_vec();
    let flows: Vec<FlowDesc> = (0..7)
        .map(|i| FlowDesc {
            id: FlowId(i + 1),
            src: hosts[i as usize + 1],
            dst: hosts[0],
            size: 200_000,
            start: 0,
        })
        .collect();
    h.schedule(&flows);
    assert!(h.run(ms(2000)), "{}/{}", h.metrics().completed_count(), h.metrics().flow_count());
    // The synchronized slow-start overshoot may momentarily fill the buffer
    // (DCTCP's well-known incast weakness), but ECN backoff must keep the
    // *average* occupancy near the marking threshold, far below the cap.
    let (sw, port) = h.topo.host_ingress[0];
    let stats = &h.topo.net.port(sw, port).stats;
    let avg = stats.avg_qlen(h.topo.net.now());
    assert!(avg < 80_000.0, "DCTCP average queue {avg:.0} B — ECN backoff ineffective");
}

#[test]
fn recovery_survives_random_packet_corruption() {
    // Fault injection: 0.5% of all packets (any class, control included)
    // are corrupted on the wire. Every scheme's backstop machinery must
    // still deliver every flow.
    for scheme in [
        Scheme::ExpressPassAeolus,
        Scheme::HomaAeolus,
        Scheme::NdpAeolus,
        Scheme::PHostAeolus,
        Scheme::Homa { rto: ms(10) },
        Scheme::Ndp,
    ] {
        let mut params = SchemeParams::new(0);
        params.faults = "loss=0.5%,seed=64023".parse().expect("plan parses");
        let mut h = SchemeBuilder::new(scheme).params(params).topology(testbed()).build();
        let hosts = h.hosts().to_vec();
        let flows: Vec<FlowDesc> = (0..5)
            .map(|i| FlowDesc {
                id: FlowId(i + 1),
                src: hosts[i as usize + 1],
                dst: hosts[0],
                size: 150_000,
                start: i * us(20),
            })
            .collect();
        h.schedule(&flows);
        assert!(
            h.run(ms(30_000)),
            "{}: {}/{} flows survived corruption",
            scheme.name(),
            h.metrics().completed_count(),
            h.metrics().flow_count()
        );
        for r in h.metrics().flows() {
            assert_eq!(r.delivered, r.desc.size, "{}", scheme.name());
        }
    }
}

#[test]
fn fastpass_arbiter_schedules_conflict_free_and_aeolus_fixes_first_rtt() {
    // A 5:1 incast under arbiter scheduling: zero queue growth beyond a
    // couple of in-flight packets at the receiver downlink, every flow
    // delivered. With Aeolus, sub-BDP messages beat the arbiter round trip.
    let run = |scheme: Scheme, size: u64| {
        let mut h = SchemeBuilder::new(scheme).topology(testbed()).build();
        let hosts = h.hosts().to_vec();
        let flows: Vec<FlowDesc> = (0..5)
            .map(|i| FlowDesc {
                id: FlowId(i + 1),
                src: hosts[i as usize + 1],
                dst: hosts[0],
                size,
                start: 0,
            })
            .collect();
        h.schedule(&flows);
        assert!(
            h.run(ms(2000)),
            "{}: {}/{}",
            scheme.name(),
            h.metrics().completed_count(),
            h.metrics().flow_count()
        );
        let (sw, port) = h.topo.host_ingress[0];
        let max_q = h.topo.net.port(sw, port).stats.qlen_max;
        let mean_fct = h
            .metrics()
            .flows()
            .map(|r| r.fct().unwrap())
            .sum::<u64>() as f64
            / 5e6; // µs
        (max_q, mean_fct)
    };
    // Plain Fastpass: scheduled slots keep the downlink queue tiny even
    // under incast (the zero-queue property).
    let (q_plain, fct_plain) = run(Scheme::Fastpass, 200_000);
    assert!(q_plain < 20_000, "Fastpass downlink queue peaked at {q_plain} B");
    let _ = fct_plain;

    // Aeolus' win is the first RTT when spare bandwidth exists: a single
    // sub-BDP message finishes before the arbiter round trip completes.
    let single = |scheme: Scheme| {
        let mut h = SchemeBuilder::new(scheme).topology(testbed()).build();
        let hosts = h.hosts().to_vec();
        h.schedule(&[FlowDesc { id: FlowId(1), src: hosts[1], dst: hosts[0], size: 12_000, start: 0 }]);
        assert!(h.run(ms(100)));
        h.metrics().flow(FlowId(1)).unwrap().fct().unwrap()
    };
    let plain = single(Scheme::Fastpass);
    let aeolus = single(Scheme::FastpassAeolus);
    assert!(
        aeolus < plain,
        "Fastpass+Aeolus single small message ({aeolus} ps) must beat plain ({plain} ps)"
    );
}

#[test]
fn fastpass_arbiter_host_is_reserved() {
    let h = SchemeBuilder::new(Scheme::FastpassAeolus).topology(testbed()).build();
    // The testbed has 8 hosts; one is reserved for the arbiter.
    assert_eq!(h.hosts().len(), 7);
    assert!(h.params.arbiter.is_some());
    assert!(!h.hosts().contains(&h.params.arbiter.unwrap()));
}

/// Which priority band (`p0`..`p7`) the run's first unscheduled packet was
/// queued in: armed by that packet's enqueue record — at its sender's NIC,
/// the first hop — and read off the band sample the engine takes right after.
#[derive(Default)]
struct FirstBurstBand {
    armed: bool,
    band: Option<usize>,
}

impl aeolus_sim::TraceSink for FirstBurstBand {
    fn queue_event(&mut self, rec: &aeolus_sim::QueueRecord) {
        self.armed = self.band.is_none()
            && rec.class == aeolus_sim::TrafficClass::Unscheduled
            && rec.ev == aeolus_sim::QueueEvent::Enqueue;
    }

    fn queue_bands(&mut self, _at: u64, _node: NodeId, _port: aeolus_sim::PortId, bands: &[(&'static str, u64)]) {
        if std::mem::take(&mut self.armed) {
            self.band = bands.iter().position(|&(_, bytes)| bytes > 0);
        }
    }
}

impl aeolus_sim::Tracer for FirstBurstBand {
    const ENABLED: bool = true;
}

#[test]
fn homa_burst_priorities_follow_message_size() {
    // Homa's unscheduled packets carry size-derived priorities: a small
    // message's burst must ride a strictly higher priority (lower number)
    // than a large message's. Verified on the sender's NIC priority bank.
    let first_burst_prio = |size: u64| {
        let mut h = SchemeBuilder::new(Scheme::Homa { rto: ms(10) })
            .topology(testbed())
            .tracer(FirstBurstBand::default())
            .build();
        let hosts = h.hosts().to_vec();
        h.schedule(&[FlowDesc { id: FlowId(9), src: hosts[1], dst: hosts[0], size, start: 0 }]);
        assert!(h.run(ms(500)));
        h.network().tracer().band.expect("burst packet queued")
    };
    let p_small = first_burst_prio(2_000);
    let p_large = first_burst_prio(2_000_000);
    assert!(
        p_small < p_large,
        "small message burst prio {p_small} must beat large message's {p_large}"
    );
}

#[test]
fn a_receiver_with_nothing_left_to_receive_goes_quiet() {
    // Completion has to reach the receiver's flow table (`recv_done`), or
    // its stall scan finds "incomplete" flows forever and never stops
    // re-arming. Every proactive family, a 7:1 incast with churn.
    for scheme in [
        Scheme::ExpressPassAeolus,
        Scheme::HomaAeolus,
        Scheme::Homa { rto: ms(10) },
        Scheme::NdpAeolus,
        Scheme::PHostAeolus,
        Scheme::FastpassAeolus,
    ] {
        let mut h = SchemeBuilder::new(scheme).topology(testbed()).build();
        let hosts = h.hosts().to_vec();
        let flows =
            aeolus_workloads::incast_rounds(&hosts[1..], hosts[0], 20_000, 5, ms(1), 0, 1);
        h.schedule(&flows);
        assert!(h.run(ms(500)), "{scheme}: incast did not complete");
        // Whatever timers were pending at completion die at their next fire.
        // Both windows end well inside `PEER_SILENCE` (400 ms), after which
        // the silent-sender reaper would clear a leaked flow away.
        let net = h.network_mut();
        net.run_until(net.now() + ms(100));
        let settled = net.events_processed();
        net.run_until(net.now() + ms(100));
        assert_eq!(net.events_processed(), settled, "{scheme}: still busy after completion");
    }
}
