//! Figure 15 — average and maximum bottleneck queue length versus the
//! selective-dropping threshold (N-to-1 on a 100 G switch, each sender
//! shipping 200 KB). The paper's finding: queue length is nearly linear in
//! the threshold, so the threshold should be small.

use aeolus_core::AeolusConfig;
use aeolus_sim::units::ms;
use aeolus_stats::{f2, TextTable};
use aeolus_sim::{FlowDesc, FlowId};
use aeolus_transport::{Scheme, SchemeBuilder, SchemeParams};

use crate::report::Report;
use crate::scale::Scale;
use crate::topos::many_to_one;

/// Thresholds swept, in bytes (1–64 packets).
pub const THRESHOLDS: [u64; 7] = [1_500, 3_000, 6_000, 12_000, 24_000, 48_000, 96_000];

/// Queue statistics at the bottleneck for one threshold.
pub fn queue_stats(threshold: u64, senders: usize) -> (f64, u64) {
    let mut params = SchemeParams::new(0);
    params.aeolus = AeolusConfig { drop_threshold: threshold, ..AeolusConfig::default() };
    params.port_buffer = 500_000;
    let mut h = SchemeBuilder::new(Scheme::ExpressPassAeolus).params(params).topology(many_to_one(senders + 1)).build();
    let hosts = h.hosts().to_vec();
    let flows: Vec<FlowDesc> = (0..senders)
        .map(|i| FlowDesc {
            id: FlowId(i as u64 + 1),
            src: hosts[i + 1],
            dst: hosts[0],
            size: 200_000,
            // Slight stagger: synchronized-to-the-picosecond arrivals are
            // kinder than anything a real fabric sees.
            start: (i as u64) * 300_000,
        })
        .collect();
    h.schedule(&flows);
    h.run(ms(200));
    let (sw, port) = h.topo.host_ingress[0];
    let p = h.topo.net.port(sw, port);
    let span = h.topo.net.now().max(1);
    crate::runner::note_events(h.topo.net.event_mix());
    (p.stats.avg_qlen(span), p.stats.qlen_max)
}

/// Run Figure 15.
pub fn run(scale: Scale) -> Report {
    let senders = scale.count(4, 16, 32);
    let stats = crate::runner::parallel_map(&THRESHOLDS, |&k| queue_stats(k, senders));
    let mut table = TextTable::new(vec!["threshold", "avg qlen (B)", "max qlen (B)"]);
    for (&k, &(avg, max)) in THRESHOLDS.iter().zip(&stats) {
        table.row(vec![format!("{}KB", k as f64 / 1000.0), f2(avg), max.to_string()]);
    }
    let mut r = Report::new();
    r.section(format!("Figure 15: bottleneck queue vs threshold ({senders}-to-1)"), table);
    r.note("paper: queue length nearly linear in the selective-dropping threshold");
    r
}
