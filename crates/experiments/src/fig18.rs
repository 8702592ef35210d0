//! Figure 18 — goodput across network loads for all six schemes, driven by
//! a mix of Web Search traffic and 64-to-1 incasts of 64 KB messages on the
//! heavy spine-leaf fabric.

use aeolus_sim::units::{ms, us};
use aeolus_stats::{f3, TextTable};
use aeolus_transport::{Scheme, SchemeBuilder, SchemeParams};
use aeolus_workloads::{mixed_flows, MixConfig, Workload};

use crate::report::Report;
use crate::scale::Scale;
use crate::topos::heavy_spine_leaf;
use crate::fig17::schemes;

/// Loads swept.
pub fn loads(scale: Scale) -> Vec<f64> {
    match scale {
        Scale::Smoke => vec![0.4],
        Scale::Quick => vec![0.3, 0.5, 0.7, 0.9],
        Scale::Full => vec![0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
    }
}

/// Normalized goodput for one (scheme, load): unique payload delivered over
/// the aggregate host capacity of the *makespan* (arrival of the first flow
/// to delivery of the last byte). Below a scheme's saturation point this
/// tracks the offered load; past it, the makespan stretches and goodput
/// pins at the scheme's sustainable ceiling — the paper's Figure 18 shape.
pub fn goodput(scheme: Scheme, scale: Scale, load: f64) -> f64 {
    let mut params = SchemeParams::new(0);
    params.port_buffer = 500_000;
    let mut h = SchemeBuilder::new(scheme).params(params).topology(heavy_spine_leaf(scale)).build();
    let hosts = h.hosts().to_vec();
    let flows = mixed_flows(
        &MixConfig {
            background_load: load,
            host_rate: h.topo.host_rate,
            background_flows: scale.flows(60, 1200, 6000),
            incast_fan_in: scale.count(4, 32, 64),
            incast_msg_size: 64_000,
            incast_events: scale.count(1, 6, 20),
            incast_gap: us(400),
            seed: 1818,
        },
        &hosts,
        &Workload::WebSearch.dist(),
    );
    let window = flows.iter().map(|f| f.start).max().unwrap_or(0).max(1);
    h.schedule(&flows);
    h.run(window + ms(2_000));
    let makespan = h.topo.net.now().max(1);
    crate::runner::note_events(h.topo.net.event_mix());
    let delivered_bits = h.metrics().payload_delivered as f64 * 8.0;
    let capacity_bits = hosts.len() as f64
        * h.topo.host_rate.bps() as f64
        * makespan as f64
        / aeolus_sim::units::PS_PER_SEC as f64;
    delivered_bits / capacity_bits
}

/// Run Figure 18.
pub fn run(scale: Scale) -> Report {
    let ls = loads(scale);
    let mut cells = Vec::new();
    for scheme in schemes() {
        for &l in &ls {
            cells.push((scheme, l));
        }
    }
    let results =
        crate::runner::parallel_map(&cells, |&(scheme, l)| goodput(scheme, scale, l));
    let mut results = results.iter();
    let mut header = vec!["scheme".to_string()];
    header.extend(ls.iter().map(|l| format!("load {l:.1}")));
    let mut table = TextTable::new(header);
    for scheme in schemes() {
        let mut row = vec![scheme.label()];
        for _ in &ls {
            row.push(f3(*results.next().expect("one result per cell")));
        }
        table.row(row);
    }
    let mut r = Report::new();
    r.section("Figure 18: normalized goodput vs offered load (WebSearch + 64:1 incast)", table);
    r.note("paper: NDP peaks highest (~0.84), ExpressPass ~0.70, Homa lowest (~0.54); Aeolus never hurts and slightly helps Homa/NDP");
    r
}
