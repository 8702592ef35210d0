//! Chaos — goodput degradation and recovery under a hostile fabric.
//!
//! Not a paper figure: this sweep stresses the recovery argument instead of
//! the performance one. Every scheme runs the same Poisson workload on the
//! testbed topology under a grid of wire-fault schedules — corruption loss
//! rate × one all-links flap — and every cell runs under the harness
//! watchdog, so a single hung flow anywhere in the grid fails the experiment
//! loudly with per-flow diagnostics instead of quietly deflating a
//! completion column.
//!
//! Reported per cell: completion, goodput relative to the same scheme's
//! fault-free run, slowdown percentiles, and the drop taxonomy (corruption
//! and link-down kills are tallied separately from congestion drops by
//! construction). The recovery-time CDF section shows slowdown quantiles
//! under the harshest cell — how much tail a scheme's retry machinery
//! leaves behind once every loss has been repaired.

use aeolus_sim::units::{ms, us, Time};
use aeolus_sim::{DropReason, FaultPlan, LinkFilter, PacketFilter};
use aeolus_stats::{f2, f3, TextTable};
use aeolus_transport::{Scheme, SchemeBuilder, SchemeParams};
use aeolus_workloads::{poisson_flows, PoissonConfig, Workload};

use crate::report::Report;
use crate::runner::{homa_cutoffs_for, RunOutput, Session};
use crate::scale::Scale;
use crate::topos::testbed;

/// The six schemes the paper evaluates, all under fire.
fn schemes() -> [Scheme; 6] {
    [
        Scheme::ExpressPassAeolus,
        Scheme::HomaAeolus,
        Scheme::NdpAeolus,
        Scheme::PHostAeolus,
        Scheme::FastpassAeolus,
        Scheme::Dctcp { rto: ms(10) },
    ]
}

/// One point of the fault grid.
#[derive(Debug, Clone, Copy)]
struct FaultCell {
    /// Corruption loss probability on every packet, every link.
    loss: f64,
    /// One all-links down window (a fabric-wide flap) mid-run.
    flap: bool,
}

/// Loss rates swept; 1% is the acceptance ceiling from the issue.
const LOSS_GRID: [f64; 3] = [0.0, 0.001, 0.01];

/// The flap: every link dark for 300 µs starting at 200 µs, when the first
/// wave of flows is mid-flight.
const FLAP_FROM: Time = 200 * us(1);
const FLAP_UNTIL: Time = 500 * us(1);

impl FaultCell {
    fn plan(&self, seed: u64) -> FaultPlan {
        let mut plan = FaultPlan::new(0xc4a05 ^ seed);
        if self.loss > 0.0 {
            plan = plan.with_loss(self.loss, PacketFilter::Any, LinkFilter::All);
        }
        if self.flap {
            plan = plan.with_down(FLAP_FROM, FLAP_UNTIL, LinkFilter::All);
        }
        plan
    }

    fn label(&self) -> String {
        match (self.loss, self.flap) {
            (0.0, false) => "clean".to_string(),
            (0.0, true) => "flap".to_string(),
            (l, false) => format!("{}% loss", l * 100.0),
            (l, true) => format!("{}% loss + flap", l * 100.0),
        }
    }
}

/// Extra drop taxonomy pulled from the metrics next to the usual run stats.
struct CellOutput {
    out: RunOutput,
    corruption_drops: u64,
    linkdown_drops: u64,
    slowdowns: Vec<f64>,
}

fn run_cell(s: &Session, scheme: Scheme, cell: FaultCell, n_flows: usize) -> CellOutput {
    let workload = Workload::WebServer;
    let mut params = SchemeParams::new(0);
    params.homa_cutoffs = homa_cutoffs_for(workload);
    params.faults = cell.plan(scheme.name().len() as u64);
    let mut h = SchemeBuilder::new(scheme).params(params).topology(testbed()).build();
    let hosts = h.hosts().to_vec();
    let flows = poisson_flows(
        &PoissonConfig {
            load: 0.4,
            host_rate: h.topo.host_rate,
            flows: n_flows,
            seed: 7,
            first_id: 1,
            start: 0,
        },
        &hosts,
        &workload.dist(),
    );
    h.schedule(&flows);
    let last_arrival = flows.iter().map(|f| f.start).max().unwrap_or(0);
    // Generous horizon: hardened retries back off to at most ~128 ms, so a
    // flow that hasn't finished 400 ms after the last arrival is stuck, not
    // slow — the watchdog turns it into a loud failure with per-flow state.
    if let Err(report) = h.run_degradation(last_arrival + ms(400)) {
        panic!("chaos: {} under '{}' hung —\n{report}", scheme.label(), cell.label());
    }
    let m = h.metrics();
    let corruption_drops = m.drops_by_reason(DropReason::Corruption);
    let linkdown_drops = m.drops_by_reason(DropReason::LinkDown);
    let out = s.collect(&h);
    let mut slowdowns: Vec<f64> = out.agg.samples().iter().map(|s| s.slowdown()).collect();
    slowdowns.sort_by(|a, b| a.total_cmp(b));
    CellOutput { out, corruption_drops, linkdown_drops, slowdowns }
}

fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted.len() - 1) as f64 * q).round() as usize;
    sorted[idx]
}

/// Run the chaos sweep.
pub fn run(s: &Session, scale: Scale) -> Report {
    let n_flows = scale.flows(24, 120, 600);
    let cells: Vec<FaultCell> = LOSS_GRID
        .iter()
        .flat_map(|&loss| [false, true].map(|flap| FaultCell { loss, flap }))
        .collect();
    // Scheme-major grid so results[s * cells.len()] is that scheme's clean
    // baseline for the goodput-degradation column.
    let grid: Vec<(Scheme, FaultCell)> = schemes()
        .iter()
        .flat_map(|&s| cells.iter().map(move |&c| (s, c)))
        .collect();
    let results = s.parallel_map(&grid, |&(scheme, cell)| run_cell(s, scheme, cell, n_flows));

    let mut r = Report::new();
    let mut table = TextTable::new(vec![
        "scheme",
        "faults",
        "completed",
        "goodput vs clean",
        "p50 slowdown",
        "p99 slowdown",
        "corrupt drops",
        "linkdown drops",
        "flows w/ timeout",
    ]);
    for (si, _) in schemes().iter().enumerate() {
        let base = &results[si * cells.len()];
        for (ci, cell) in cells.iter().enumerate() {
            let c = &results[si * cells.len() + ci];
            let rel = if base.out.goodput > 0.0 { c.out.goodput / base.out.goodput } else { 0.0 };
            table.row(vec![
                grid[si * cells.len() + ci].0.label(),
                cell.label(),
                format!("{}/{}", c.out.completed, c.out.scheduled),
                f3(rel),
                f2(quantile(&c.slowdowns, 0.50)),
                f2(quantile(&c.slowdowns, 0.99)),
                c.corruption_drops.to_string(),
                c.linkdown_drops.to_string(),
                c.out.flows_with_timeouts.to_string(),
            ]);
        }
    }
    r.section("Chaos: goodput & completion under corruption loss × link flap", table);

    let harsh = cells.len() - 1; // 1% loss + flap
    let mut cdf = TextTable::new(vec![
        "scheme", "p25", "p50", "p75", "p90", "p99", "max",
    ]);
    for (si, scheme) in schemes().iter().enumerate() {
        let c = &results[si * cells.len() + harsh];
        cdf.row(vec![
            scheme.label(),
            f2(quantile(&c.slowdowns, 0.25)),
            f2(quantile(&c.slowdowns, 0.50)),
            f2(quantile(&c.slowdowns, 0.75)),
            f2(quantile(&c.slowdowns, 0.90)),
            f2(quantile(&c.slowdowns, 0.99)),
            f2(quantile(&c.slowdowns, 1.0)),
        ]);
    }
    r.section("Recovery-time CDF (slowdown quantiles) under 1% loss + flap", cdf);
    r.note(format!(
        "every cell ran under the completion watchdog: a hung flow anywhere fails the sweep; flap = all links down {}..{}",
        aeolus_sim::units::fmt_time(FLAP_FROM),
        aeolus_sim::units::fmt_time(FLAP_UNTIL),
    ));
    r.note("goodput vs clean is relative to the same scheme's fault-free cell; corruption/link-down drops are wire faults, tallied apart from congestion drops");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_smoke_completes_every_flow() {
        // The acceptance bar: up to 1% corruption loss plus one flap, no
        // flow may hang in any scheme — run_cell panics via the watchdog
        // otherwise.
        let r = run(&Session::default(), Scale::Smoke);
        assert_eq!(r.sections.len(), 2);
        let rendered = r.render();
        assert!(rendered.contains("1% loss + flap"));
    }

    #[test]
    fn harshest_cell_actually_injects_faults() {
        let cell = FaultCell { loss: 0.01, flap: true };
        let c = run_cell(&Session::default(), Scheme::ExpressPassAeolus, cell, 24);
        assert!(c.corruption_drops > 0, "1% loss must kill some packets");
        assert_eq!(c.out.completed, c.out.scheduled, "watchdog allowed a hang");
    }

    #[test]
    fn clean_cell_injects_nothing() {
        let cell = FaultCell { loss: 0.0, flap: false };
        assert!(cell.plan(1).is_empty());
        let c = run_cell(&Session::default(), Scheme::HomaAeolus, cell, 24);
        assert_eq!(c.corruption_drops, 0);
        assert_eq!(c.linkdown_drops, 0);
    }
}
