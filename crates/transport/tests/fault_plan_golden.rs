//! The fault plan pinned from the outside: what a plan prints, and what it
//! does to a run, recorded at cfffcd2 (the parent of the two-representation
//! refactor of `faults.rs`) through API that refactor keeps — the builder
//! methods, `FromStr` / `Display`, `SchemeBuilder::faults` and the tracer's
//! fault-event stream.
//!
//! Three pins:
//!
//! * the `Display` text of builder-made plans over every directive, built
//!   in canonical and in scrambled call order;
//! * one plan written in three directive orders — a crash, a down window
//!   and a flow arrival on the same picosecond, abutting down windows and
//!   abutting crashes, a down window nested in a degrade — must run to one
//!   digest: directive order across kinds is not behaviour;
//! * the same digest on Fastpass, where `arbiter=` is a crash of the
//!   arbiter host and `partition=` splits the workload hosts only.
//!
//! A digest covers the events processed, the drop matrix, every flow's
//! outcome and the `fault` lines of the JSONL capture (window indices and
//! kinds, node crashes and restarts, every kill). A changed pin means the
//! fault layer changed behaviour: re-pin only with the reason in the commit
//! message.

use aeolus_sim::topology::LinkParams;
use aeolus_sim::units::{ms, us};
use aeolus_sim::{
    FaultPlan, FlowDesc, FlowId, LinkFilter, NodeId, PacketFilter, PortId, Rate, RecordingTracer,
};
use aeolus_transport::{Scheme, SchemeBuilder, TopoSpec};

#[test]
fn builder_made_plans_print_the_canonical_spec() {
    let all = LinkFilter::All;
    let every_directive = "loss=0.005, credit-loss=0.02, down=100us..400us, degrade=1ms..1500us@4, \
         crash=1@150us..650us, arbiter=2ms..3ms, partition=5ms..600ms, seed=9";
    let cases: Vec<(FaultPlan, &str)> = vec![
        (
            FaultPlan::new(9)
                .with_loss(0.005, PacketFilter::Any, all)
                .with_loss(0.02, PacketFilter::Credit, all)
                .with_down(us(100), us(400), all)
                .with_degraded(ms(1), us(1500), 4, all)
                .with_crash(us(150), us(650), 1)
                .with_arbiter_outage(ms(2), ms(3))
                .with_partition(ms(5), ms(600)),
            every_directive,
        ),
        // The same directives called kinds-backwards print the same text.
        (
            FaultPlan::new(9)
                .with_partition(ms(5), ms(600))
                .with_arbiter_outage(ms(2), ms(3))
                .with_crash(us(150), us(650), 1)
                .with_down(us(100), us(400), all)
                .with_loss(0.005, PacketFilter::Any, all)
                .with_degraded(ms(1), us(1500), 4, all)
                .with_loss(0.02, PacketFilter::Credit, all),
            every_directive,
        ),
        // Within a kind, call order is the printed order: down and degrade
        // share the link-window list, crashes keep theirs.
        (
            FaultPlan::new(0)
                .with_crash(ms(2), ms(3), 7)
                .with_degraded(us(20), us(150), 3, all)
                .with_partition(ms(9), ms(10))
                .with_crash(us(30), us(400), 0)
                .with_down(0, 300_000, all)
                .with_partition(ms(4), ms(5))
                .with_arbiter_outage(1, 2),
            "degrade=20us..150us@3, down=0..300ns, crash=7@2ms..3ms, crash=0@30us..400us, \
             arbiter=1..2, partition=9ms..10ms, partition=4ms..5ms",
        ),
        // Every packet filter has a directive; link targeting beyond `All`
        // is builder-only and prints as the all-links form.
        (
            FaultPlan::new(1)
                .with_loss(0.1, PacketFilter::Data, LinkFilter::Node(NodeId(3)))
                .with_loss(0.25, PacketFilter::Control, LinkFilter::Link(NodeId(1), PortId(2)))
                .with_loss(1.0, PacketFilter::Ack, LinkFilter::Adjacent(NodeId(4)))
                .with_loss(0.5, PacketFilter::Probe, all)
                .with_loss(0.001, PacketFilter::Scheduled, all)
                .with_loss(0.002, PacketFilter::Unscheduled, all)
                .with_down(ms(1), ms(2), LinkFilter::Adjacent(NodeId(5)))
                .with_degraded(1_000_000, 1_000_001, 2, LinkFilter::Node(NodeId(0))),
            "data-loss=0.1, ctrl-loss=0.25, ack-loss=1, probe-loss=0.5, sched-loss=0.001, \
             unsched-loss=0.002, down=1ms..2ms, degrade=1us..1000001@2, seed=1",
        ),
        (FaultPlan::new(0), ""),
        (FaultPlan::new(77), "seed=77"),
    ];
    for (plan, want) in cases {
        assert_eq!(plan.to_string(), want);
        // What the grammar can express parses back to the plan that printed
        // it; the all-links projection is the one lossy spot.
        let back: FaultPlan = want.parse().expect("canonical spec parses");
        assert_eq!(back.to_string(), want);
    }
}

fn fnv(h: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// What one digested run observed; the digest covers the drop matrix, every
/// flow's outcome and the fault-event stream. Printed whole on a mismatch.
#[derive(Debug, PartialEq, Eq)]
struct Observed {
    events: u64,
    window_starts: usize,
    node_crashes: usize,
    restarted_flows: usize,
    kills: usize,
    digest: u64,
}

/// Five workload hosts behind one 10 Gbps switch; flow 4 arrives on the
/// picosecond its source crashes and a down window opens.
fn run(scheme: Scheme, hosts: usize, spec: &str) -> Observed {
    let mut h = SchemeBuilder::new(scheme)
        .topology(TopoSpec::SingleSwitch {
            hosts,
            link: LinkParams::uniform(Rate::gbps(10), us(3)),
        })
        .faults(spec.parse::<FaultPlan>().expect("plan parses"))
        .tracer(RecordingTracer::new())
        .build();
    let at = h.hosts().to_vec();
    assert_eq!(at.len(), 5, "five workload hosts, arbiter or not");
    let flow = |id: u64, src: usize, dst: usize, size: u64, start| FlowDesc {
        id: FlowId(id),
        src: at[src],
        dst: at[dst],
        size,
        start,
    };
    h.schedule(&[
        flow(1, 1, 0, 60_000, 0),
        flow(2, 2, 0, 60_000, us(1)),
        flow(3, 3, 4, 40_000, us(2)),
        flow(4, 1, 3, 20_000, us(50)),
        flow(5, 4, 2, 30_000, us(295)),
        flow(6, 0, 4, 30_000, us(520)),
    ]);
    h.run(ms(3000));
    let now = h.topo.net.now();
    h.topo.net.tracer_mut().finish(now);

    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    // Not hashed: how many events the engine spends is cost, not behaviour.
    let events = h.network().events_processed();
    for ((reason, class), n) in h.metrics().drops() {
        fnv(&mut digest, format!("{reason:?}/{class:?}={n};").as_bytes());
    }
    let mut restarted_flows = 0;
    for r in h.metrics().flows() {
        let line = format!(
            "{}:{:?}:{:?}:{}:{}:{:?};",
            r.desc.id.0,
            r.completed_at,
            r.fct(),
            r.delivered,
            r.restarts,
            r.aborted
        );
        fnv(&mut digest, line.as_bytes());
        restarted_flows += (r.restarts > 0) as usize;
    }
    let jsonl = h.topo.net.tracer().to_jsonl();
    let fault_lines: Vec<&str> =
        jsonl.lines().filter(|l| l.starts_with("{\"type\":\"fault\"")).collect();
    for l in &fault_lines {
        fnv(&mut digest, l.as_bytes());
    }
    let count = |ev: &str| fault_lines.iter().filter(|l| l.contains(ev)).count();
    Observed {
        events,
        window_starts: count("\"ev\":\"window_start\""),
        node_crashes: count("\"ev\":\"node_crash\""),
        restarted_flows,
        kills: count("\"ev\":\"killed\""),
        digest,
    }
}

/// One plan, three spellings. Across kinds the directives are permuted
/// freely; within a kind (loss rules, link windows, crashes) they keep
/// their relative order, which is the window index the events carry.
///
/// * `degrade=10us..200us@3` holds `down=50us..80us` nested inside it;
/// * `down=50us..80us` abuts `down=80us..120us`;
/// * `crash=1@50us..300us` starts on the picosecond the first down window
///   and flow 4 (from host 1) do, and abuts `crash=4@300us..420us`;
/// * `arbiter=100us..250us` straddles the second down window's end;
/// * `partition=500us..640us` opens while flow 6 is about to cross it.
const ORDERS: [&str; 3] = [
    "loss=0.004, credit-loss=0.01, degrade=10us..200us@3, down=50us..80us, down=80us..120us, \
     crash=1@50us..300us, crash=4@300us..420us, arbiter=100us..250us, partition=500us..640us, \
     seed=5",
    "seed=5, partition=500us..640us, arbiter=100us..250us, crash=1@50us..300us, \
     crash=4@300us..420us, degrade=10us..200us@3, down=50us..80us, down=80us..120us, \
     loss=0.004, credit-loss=0.01",
    "crash=1@50us..300us, degrade=10us..200us@3, loss=0.004, partition=500us..640us, \
     down=50us..80us, crash=4@300us..420us, seed=5, arbiter=100us..250us, credit-loss=0.01, \
     down=80us..120us",
];

fn assert_one_digest(scheme: Scheme, hosts: usize, want: &Observed) {
    let runs: Vec<Observed> = ORDERS.iter().map(|spec| run(scheme, hosts, spec)).collect();
    for (i, got) in runs.iter().enumerate() {
        assert_eq!(got, &runs[0], "{}: directive order {i} ran differently", scheme.name());
    }
    assert_eq!(&runs[0], want, "{}: observed run differs from the pinned one", scheme.name());
}

#[test]
fn directive_order_across_kinds_is_not_behaviour() {
    // No arbiter host: `arbiter=` is a credit blackout, the partition
    // darkens workload hosts 3 and 4 (the upper half of five).
    assert_one_digest(
        Scheme::ExpressPassAeolus,
        5,
        &Observed {
            events: 1_698,
            window_starts: 5,
            node_crashes: 2,
            restarted_flows: 4,
            kills: 51,
            digest: 0x0485448929bb475b,
        },
    );
}

#[test]
fn fastpass_arbiter_outage_crashes_the_arbiter_host_only() {
    // Six hosts, the last reserved as the arbiter: `arbiter=` is a third
    // node crash, and the partition still darkens workload hosts 3 and 4 —
    // never the arbiter, which is not in the host list it halves. `events`
    // was re-pinned (1,307 -> 1,280) when a finished flow's granted slots
    // stopped ticking; the digest did not move.
    assert_one_digest(
        Scheme::FastpassAeolus,
        6,
        &Observed {
            events: 1_280,
            window_starts: 5,
            node_crashes: 3,
            restarted_flows: 3,
            kills: 20,
            digest: 0xd8e92f9521391ec8,
        },
    );
}
