//! End-to-end protocol tests: every scheme must deliver every flow on every
//! topology family, and the Aeolus invariants must hold under congestion.

use aeolus_sim::topology::LinkParams;
use aeolus_sim::units::{ms, us};
use aeolus_sim::{DropReason, FlowDesc, FlowId, Rate, TrafficClass};
use aeolus_transport::{Harness, Scheme, SchemeBuilder, TopoSpec};

fn testbed() -> TopoSpec {
    // The paper's testbed: 8 hosts, one switch, 10 Gbps, ~14 us base RTT.
    TopoSpec::SingleSwitch { hosts: 8, link: LinkParams::uniform(Rate::gbps(10), us(3)) }
}

fn small_leaf_spine() -> TopoSpec {
    TopoSpec::LeafSpine {
        spines: 2,
        leaves: 2,
        hosts_per_leaf: 4,
        link: LinkParams::uniform(Rate::gbps(100), us(1)),
    }
}

fn run_one(scheme: Scheme, spec: TopoSpec, flows: &[FlowDesc], horizon: u64) -> Harness {
    let mut h = SchemeBuilder::new(scheme).topology(spec).build();
    h.schedule(flows);
    let done = h.run(horizon);
    assert!(
        done,
        "{}: only {}/{} flows completed",
        scheme.name(),
        h.metrics().completed_count(),
        h.metrics().flow_count()
    );
    h
}

fn pair_flows(h: &Harness, sizes: &[u64]) -> Vec<FlowDesc> {
    let hosts = h.hosts();
    sizes
        .iter()
        .enumerate()
        .map(|(i, &size)| FlowDesc {
            id: FlowId(i as u64 + 1),
            src: hosts[i % (hosts.len() - 1) + 1],
            dst: hosts[0],
            size,
            start: (i as u64) * us(1),
        })
        .collect()
}

#[test]
fn every_scheme_delivers_single_small_flow() {
    for scheme in Scheme::all() {
        let h = SchemeBuilder::new(scheme).topology(testbed()).build();
        let flows =
            vec![FlowDesc { id: FlowId(1), src: h.hosts()[1], dst: h.hosts()[0], size: 3_000, start: 0 }];
        let h = run_one(scheme, testbed(), &flows, ms(100));
        let fct = h.metrics().flow(FlowId(1)).unwrap().fct().unwrap();
        assert!(fct > 0, "{}: zero FCT", scheme.name());
    }
}

#[test]
fn every_scheme_delivers_single_large_flow() {
    for scheme in Scheme::all() {
        let h = SchemeBuilder::new(scheme).topology(testbed()).build();
        let flows = vec![FlowDesc {
            id: FlowId(1),
            src: h.hosts()[1],
            dst: h.hosts()[0],
            size: 500_000,
            start: 0,
        }];
        let h = run_one(scheme, testbed(), &flows, ms(500));
        let rec = h.metrics().flow(FlowId(1)).unwrap();
        assert_eq!(rec.delivered, 500_000, "{}", scheme.name());
    }
}

#[test]
fn every_scheme_survives_7_to_1_incast() {
    for scheme in Scheme::all() {
        let h = SchemeBuilder::new(scheme).topology(testbed()).build();
        let flows = pair_flows(&h, &[40_000; 7]);
        let h = run_one(scheme, testbed(), &flows, ms(2000));
        assert_eq!(h.metrics().completed_count(), 7, "{}", scheme.name());
    }
}

#[test]
fn every_scheme_works_on_leaf_spine_cross_traffic() {
    for scheme in Scheme::all() {
        let h = SchemeBuilder::new(scheme).topology(small_leaf_spine()).build();
        let hosts = h.hosts().to_vec();
        // Cross-rack flows in both directions plus one intra-rack flow.
        let flows = vec![
            FlowDesc { id: FlowId(1), src: hosts[0], dst: hosts[5], size: 200_000, start: 0 },
            FlowDesc { id: FlowId(2), src: hosts[6], dst: hosts[1], size: 80_000, start: us(2) },
            FlowDesc { id: FlowId(3), src: hosts[2], dst: hosts[3], size: 20_000, start: us(4) },
        ];
        let h = run_one(scheme, small_leaf_spine(), &flows, ms(500));
        assert_eq!(h.metrics().completed_count(), 3, "{}", scheme.name());
    }
}

#[test]
fn aeolus_never_selectively_drops_scheduled_packets() {
    // Heavy incast: plenty of selective drops, all of them unscheduled.
    for scheme in
        [Scheme::ExpressPassAeolus, Scheme::HomaAeolus, Scheme::NdpAeolus, Scheme::PHostAeolus]
    {
        let h = SchemeBuilder::new(scheme).topology(testbed()).build();
        let flows = pair_flows(&h, &[100_000; 7]);
        let h = run_one(scheme, testbed(), &flows, ms(2000));
        let m = h.metrics();
        assert_eq!(
            m.drops_of(DropReason::SelectiveDrop, TrafficClass::Scheduled),
            0,
            "{}: selective dropping must never touch scheduled packets",
            scheme.name()
        );
        assert_eq!(
            m.drops_of(DropReason::SelectiveDrop, TrafficClass::Control),
            0,
            "{}: control packets are protected",
            scheme.name()
        );
    }
}

#[test]
fn aeolus_selective_drops_happen_under_incast() {
    // With 7 senders bursting a BDP each into one 10G port, the 6 KB
    // threshold must trigger.
    let h = SchemeBuilder::new(Scheme::ExpressPassAeolus).topology(testbed()).build();
    let flows = pair_flows(&h, &[100_000; 7]);
    let h = run_one(Scheme::ExpressPassAeolus, testbed(), &flows, ms(2000));
    assert!(
        h.metrics().drops_by_reason(DropReason::SelectiveDrop) > 0,
        "expected selective drops under incast"
    );
}

#[test]
fn expresspass_aeolus_beats_plain_expresspass_on_small_flows() {
    // The headline effect: a sub-BDP flow completes ~1 RTT faster.
    let mk = |scheme| {
        let h = SchemeBuilder::new(scheme).topology(testbed()).build();
        let flows =
            vec![FlowDesc { id: FlowId(1), src: h.hosts()[1], dst: h.hosts()[0], size: 10_000, start: 0 }];
        let h = run_one(scheme, testbed(), &flows, ms(100));
        h.metrics().flow(FlowId(1)).unwrap().fct().unwrap()
    };
    let plain = mk(Scheme::ExpressPass);
    let aeolus = mk(Scheme::ExpressPassAeolus);
    assert!(
        aeolus * 2 < plain,
        "Aeolus ({aeolus} ps) should finish sub-BDP flows far faster than plain ExpressPass ({plain} ps)"
    );
}

#[test]
fn ndp_trims_under_incast_but_aeolus_variant_does_not() {
    let h = SchemeBuilder::new(Scheme::Ndp).topology(testbed()).build();
    let flows = pair_flows(&h, &[100_000; 7]);
    let h = run_one(Scheme::Ndp, testbed(), &flows, ms(2000));
    assert!(h.metrics().trimmed > 0, "NDP should trim under incast");

    let h2 = SchemeBuilder::new(Scheme::NdpAeolus).topology(testbed()).build();
    let flows = pair_flows(&h2, &[100_000; 7]);
    let h2 = run_one(Scheme::NdpAeolus, testbed(), &flows, ms(2000));
    assert_eq!(h2.metrics().trimmed, 0, "NDP+Aeolus needs no trimming switches");
}

#[test]
fn transfer_efficiency_reasonable_under_incast() {
    // Under a synchronized 7:1 incast ~6/7 of every pre-credit burst is
    // selectively dropped by design (the §6 tradeoff): efficiency dips but
    // must stay far above eager-Homa's collapse (~0.31 in Table 1).
    for scheme in [Scheme::ExpressPassAeolus, Scheme::HomaAeolus, Scheme::NdpAeolus] {
        let h = SchemeBuilder::new(scheme).topology(testbed()).build();
        let flows = pair_flows(&h, &[60_000; 7]);
        let h = run_one(scheme, testbed(), &flows, ms(2000));
        let eff = h.metrics().transfer_efficiency();
        assert!(eff > 0.6, "{}: transfer efficiency {eff}", scheme.name());
    }
}

#[test]
fn transfer_efficiency_near_one_without_contention() {
    // With spare bandwidth nothing is dropped: every byte sent once.
    for scheme in [Scheme::ExpressPassAeolus, Scheme::HomaAeolus, Scheme::NdpAeolus] {
        let h = SchemeBuilder::new(scheme).topology(testbed()).build();
        let hosts = h.hosts().to_vec();
        let flows: Vec<FlowDesc> = (0..4)
            .map(|i| FlowDesc {
                id: FlowId(i + 1),
                src: hosts[i as usize + 1],
                dst: hosts[(i as usize + 5) % 8],
                size: 100_000,
                start: i * us(30),
            })
            .collect();
        let h = run_one(scheme, testbed(), &flows, ms(2000));
        let eff = h.metrics().transfer_efficiency();
        assert!(eff > 0.98, "{}: transfer efficiency {eff}", scheme.name());
    }
}

#[test]
fn aeolus_schemes_see_no_timeouts_under_moderate_incast() {
    for scheme in [Scheme::ExpressPassAeolus, Scheme::HomaAeolus] {
        let h = SchemeBuilder::new(scheme).topology(testbed()).build();
        let flows = pair_flows(&h, &[60_000; 7]);
        let h = run_one(scheme, testbed(), &flows, ms(2000));
        assert_eq!(h.metrics().flows_with_timeouts(), 0, "{}", scheme.name());
    }
}

#[test]
fn fat_tree_cross_pod_delivery() {
    for scheme in [Scheme::ExpressPassAeolus, Scheme::HomaAeolus, Scheme::NdpAeolus] {
        let spec = TopoSpec::FatTree {
            spines: 2,
            pods: 2,
            tors_per_pod: 2,
            aggs_per_pod: 2,
            hosts_per_tor: 2,
            link: LinkParams::uniform(Rate::gbps(100), us(1)),
        };
        let h = SchemeBuilder::new(scheme).topology(spec).build();
        let hosts = h.hosts().to_vec();
        let flows = vec![
            // Cross-pod (first pod host -> last pod host).
            FlowDesc { id: FlowId(1), src: hosts[0], dst: hosts[7], size: 150_000, start: 0 },
            // Same-ToR.
            FlowDesc { id: FlowId(2), src: hosts[2], dst: hosts[3], size: 30_000, start: 0 },
        ];
        let mut h = h;
        h.schedule(&flows);
        assert!(h.run(ms(500)), "{}: fat-tree flows incomplete", scheme.name());
    }
}

#[test]
fn deterministic_across_runs() {
    let run = || {
        let h = SchemeBuilder::new(Scheme::HomaAeolus).topology(testbed()).build();
        let flows = pair_flows(&h, &[50_000, 20_000, 80_000, 10_000, 35_000, 5_000, 64_000]);
        let h = run_one(Scheme::HomaAeolus, testbed(), &flows, ms(2000));
        h.metrics().flows().map(|r| (r.desc.id, r.fct().unwrap())).collect::<Vec<_>>()
    };
    let mut a = run();
    let mut b = run();
    a.sort();
    b.sort();
    assert_eq!(a, b, "same seed, same trace, same FCTs");
}
