//! Property-based cross-crate invariants: for random small scenarios on any
//! scheme, every flow completes, delivery is exact, and the full conformance
//! oracle ([`aeolus::sim::CheckedTracer`]) holds at every event — queue
//! occupancy ledgers, drop legality (selective dropping never touches
//! protected packets), transmitter causality, byte conservation, and the
//! per-scheme protocol checks (credit conservation, one-BDP burst budget,
//! retransmit pairing).
//!
//! Seeded-loop fuzzing over [`SimRng`]: each case is reproducible from the
//! fixed seed and the printed case index. The oracle replaces the old ad-hoc
//! end-of-run drop accounting: a violation now panics at the first bad event
//! with flow/port context instead of surfacing as a corrupted aggregate.

use aeolus::prelude::*;
use aeolus::sim::topology::LinkParams;
use aeolus::sim::SimRng;

/// Every scheme the registry names (Fastpass variants included — the
/// harness reserves their arbiter host).
fn all_schemes() -> Vec<Scheme> {
    Scheme::all().collect()
}

fn pick_scheme(rng: &mut SimRng) -> Scheme {
    let schemes = all_schemes();
    schemes[rng.index(schemes.len())]
}

#[test]
fn random_scenarios_deliver_exactly_once() {
    let mut rng = SimRng::seed_from_u64(0x1dea1);
    for case in 0..24 {
        let scheme = pick_scheme(&mut rng);
        // Up to 6 flows with arbitrary sizes and staggered starts.
        let n_specs = 1 + rng.index(5);
        let flow_specs: Vec<(u64, u64)> =
            (0..n_specs).map(|_| (1 + rng.below(199_999), rng.below(50))).collect();
        let seed = rng.below(1000);
        let spec = TopoSpec::SingleSwitch {
            hosts: 8,
            link: LinkParams::uniform(Rate::gbps(10), us(3)),
        };
        // The conformance oracle rides the whole run: any queue-ledger,
        // drop-legality, causality, conservation or protocol violation
        // panics at the first bad event, naming scheme/case via the panic
        // context below.
        let mut h = SchemeBuilder::new(scheme).topology(spec).build_checked();
        let hosts = h.hosts().to_vec();
        let n = hosts.len() as u64;
        let flows: Vec<FlowDesc> = flow_specs
            .iter()
            .enumerate()
            .map(|(i, &(size, start_us))| FlowDesc {
                id: FlowId(i as u64 + 1),
                src: hosts[(1 + (i as u64 + seed) % (n - 1)) as usize],
                dst: hosts[((i as u64 + seed + 3) % n) as usize],
                size,
                start: us(start_us),
            })
            .filter(|f| f.src != f.dst)
            .collect();
        if flows.is_empty() {
            continue;
        }
        h.schedule(&flows);
        let done = h.run(ms(2000));
        let m = h.metrics();

        // 1. Everything completes.
        assert!(
            done,
            "case {case} {}: {}/{} complete",
            scheme.name(),
            m.completed_count(),
            m.flow_count()
        );
        // 2. Delivery is exact: every byte exactly once at the app layer...
        for r in m.flows() {
            assert_eq!(r.delivered, r.desc.size, "case {case} {}", scheme.name());
            assert!(r.fct().unwrap() > 0, "case {case} {}", scheme.name());
        }
        // ...and the oracle's wire-level delivery ranges agree: app-level
        // completion cannot outrun what the network actually carried.
        h.topo.net.tracer().assert_flows_complete(m);
        // 3. Efficiency accounting is sane.
        let eff = m.transfer_efficiency();
        assert!(eff > 0.0 && eff <= 1.0 + 1e-9, "case {case}: efficiency {eff}");
        assert!(m.payload_delivered <= m.payload_sent, "case {case}");
    }
}

#[test]
fn fcts_are_at_least_ideal() {
    let mut rng = SimRng::seed_from_u64(0xfc7);
    // Every scheme at least once, plus random (scheme, size) pairs.
    let mut cases: Vec<(Scheme, u64)> =
        all_schemes().into_iter().map(|s| (s, 1 + rng.below(499_999))).collect();
    for _ in 0..10 {
        cases.push((pick_scheme(&mut rng), 1 + rng.below(499_999)));
    }
    for (case, (scheme, size)) in cases.into_iter().enumerate() {
        let spec = TopoSpec::SingleSwitch {
            hosts: 4,
            link: LinkParams::uniform(Rate::gbps(10), us(3)),
        };
        let mut h = SchemeBuilder::new(scheme).topology(spec).build_checked();
        let hosts = h.hosts().to_vec();
        h.schedule(&[FlowDesc { id: FlowId(1), src: hosts[1], dst: hosts[0], size, start: 0 }]);
        assert!(h.run(ms(2000)), "case {case}: {} did not finish", scheme.name());
        let fct = h.metrics().flow(FlowId(1)).unwrap().fct().unwrap();
        // Causality: no flow beats its store-and-forward lower bound.
        assert!(
            fct + us(1) >= h.ideal_fct(size),
            "case {case} {}: fct {} < ideal {} (size {size})",
            scheme.name(),
            fct,
            h.ideal_fct(size)
        );
        h.topo.net.tracer().assert_flows_complete(h.metrics());
    }
}
