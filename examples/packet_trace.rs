//! Annotated packet journey of one Aeolus flow.
//!
//! Records a 7:1 incast under ExpressPass+Aeolus and prints one flow's life
//! as a filter over the capture: request, line-rate unscheduled burst,
//! selective drops at the congested port (with the queue depth each one
//! saw), probe, per-packet ACKs, credits and the scheduled retransmissions
//! that repair the first RTT.
//!
//! ```text
//! cargo run --release --example packet_trace
//! ```

use aeolus::prelude::*;
use aeolus::sim::{PacketKind, QueueEvent, RecordingTracer};

fn main() {
    let spec =
        TopoSpec::SingleSwitch { hosts: 8, link: LinkParams::uniform(Rate::gbps(10), us(3)) };
    let mut h = SchemeBuilder::new(Scheme::ExpressPassAeolus)
        .topology(spec)
        .tracer(RecordingTracer::new())
        .build();
    let hosts = h.hosts().to_vec();
    // Seven 40 KB bursts into one receiver; the last sender's is the victim.
    let flows = incast_round(&hosts[1..], hosts[0], 40_000, 0, 1);
    let victim = FlowId(7);
    h.schedule(&flows);
    assert!(h.run(ms(100)));

    println!("packet timeline of flow {victim:?} (40 KB into a 7:1 incast):\n");
    println!(
        "{:>10}  {:<10} {:<22} {:<12} {:>8} {:>9}",
        "t (us)", "node", "event", "class", "seq", "qlen (B)"
    );
    let life = h.network().tracer().flow_records(victim);
    let mut shown = 0;
    for rec in &life {
        let at_switch = h.topo.switches.contains(&rec.node);
        let what = match rec.ev {
            QueueEvent::Dequeue => "transmit".to_string(),
            QueueEvent::Drop(r) => format!("DROP ({r:?})"),
            // A host queueing its own packet is not news; its transmit is.
            _ if !at_switch => continue,
            QueueEvent::Enqueue => "arrive".to_string(),
            QueueEvent::EnqueueMarked => "arrive (CE marked)".to_string(),
            QueueEvent::EnqueueTrimmed => "arrive (trimmed)".to_string(),
        };
        // Compress the middle of the run: show everything interesting.
        let interesting = !matches!(rec.kind, PacketKind::Data | PacketKind::Ack { .. })
            || matches!(rec.ev, QueueEvent::Drop(_))
            || shown < 40;
        if interesting {
            println!(
                "{:>10.2}  {:<10} {:<22} {:<12} {:>8} {:>9}",
                rec.at as f64 / 1e6,
                format!("{:?}", rec.node),
                what,
                format!("{:?}", rec.class),
                rec.seq,
                rec.qlen_bytes
            );
            shown += 1;
        }
    }
    let fct = h.metrics().flow(victim).unwrap().fct().unwrap();
    println!("\nflow completed in {:.2} us; {} queue records total", fct as f64 / 1e6, life.len());
}
