//! Fault injection in ~50 lines: the same incast on a clean fabric, a lossy
//! fabric, and a flapping fabric — and nothing hangs.
//!
//! A deterministic `FaultPlan` corrupts 1% of every packet on the wire and
//! takes every link down for 300 µs mid-incast. The hardened retry paths
//! (probe retries, credit stall detection, request re-sends — all with
//! capped exponential backoff) repair every loss; the watchdog proves it by
//! failing loudly if any flow is still stuck at the horizon.
//!
//! ```text
//! cargo run --release --example chaos_faults
//! ```
//!
//! The same schedules are available on every experiment via
//! `repro <exp> --faults 'loss=1%,down=100us..400us'`, and `repro chaos`
//! runs all six schemes under eleven such plans, from loss and flaps to
//! host crashes, a partition and an arbiter outage.

use aeolus::prelude::*;

fn run_under(label: &str, scheme: Scheme, faults: FaultPlan) {
    let mut params = SchemeParams::new(0);
    params.faults = faults;
    let mut h = SchemeBuilder::new(scheme)
        .params(params)
        .topology(TopoSpec::SingleSwitch {
            hosts: 8,
            link: LinkParams::uniform(Rate::gbps(10), us(3)),
        })
        .build();
    let hosts = h.hosts().to_vec();
    // The paper's recurring motif: a 7:1 incast of 40 KB messages.
    let flows: Vec<FlowDesc> = (0..7)
        .map(|i| FlowDesc {
            id: FlowId(i + 1),
            src: hosts[i as usize + 1],
            dst: hosts[0],
            size: 40_000,
            start: i * us(1),
        })
        .collect();
    h.schedule(&flows);
    // The watchdog turns a hung flow into a loud per-flow report.
    if let Err(report) = h.run_degradation(ms(500)) {
        panic!("{label}: {report}");
    }
    let m = h.metrics();
    let mut worst_us = 0.0f64;
    for rec in m.flows() {
        worst_us = worst_us.max(rec.fct().unwrap() as f64 / 1e6);
    }
    println!(
        "  {label:<24} {}/{} flows, worst FCT {worst_us:8.1} us, \
         {} corruption kill(s), {} link-down kill(s), {} byte(s) retransmitted",
        m.completed_count(),
        m.flow_count(),
        m.drops_by_reason(DropReason::Corruption),
        m.drops_by_reason(DropReason::LinkDown),
        m.flows().map(|r| r.retransmitted).sum::<u64>(),
    );
}

fn main() {
    println!("7:1 incast of 40 KB under ExpressPass+Aeolus on the 10G testbed:");
    run_under("clean fabric", Scheme::ExpressPassAeolus, FaultPlan::default());
    run_under(
        "1% corruption loss",
        Scheme::ExpressPassAeolus,
        FaultPlan::new(7).with_loss(0.01, PacketFilter::Any, LinkFilter::All),
    );
    run_under(
        "300 us fabric flap",
        Scheme::ExpressPassAeolus,
        FaultPlan::new(7).with_down(us(100), us(400), LinkFilter::All),
    );
    run_under(
        "1% loss + flap",
        Scheme::ExpressPassAeolus,
        FaultPlan::new(7)
            .with_loss(0.01, PacketFilter::Any, LinkFilter::All)
            .with_down(us(100), us(400), LinkFilter::All),
    );
    // The spec grammar parses the same schedules from the command line.
    let spec: FaultPlan = "loss=1%,down=100us..400us,seed=7".parse().unwrap();
    run_under("same, parsed from spec", Scheme::ExpressPassAeolus, spec);
}
