//! Chaos-nodes — graceful degradation under host crashes, control-plane
//! outages and pod partitions.
//!
//! The companion to `chaos` one fault class up: where `chaos` attacks the
//! wire (corruption loss, link flaps), this sweep kills *nodes*. Every
//! scheme runs the same Poisson workload on the testbed topology under a
//! grid of node-fault schedules — host crash/restart windows, an
//! arbiter/controller outage, a pod partition, and their combination — and
//! every cell runs under [`Harness::run_degradation`], so the outcome of
//! every flow is classified: completed, restarted-then-completed, aborted
//! with a cause, or hung.
//!
//! The acceptance bar is *zero hangs anywhere in the grid*: a node fault may
//! cost time (restarted flows' FCTs span the outage) or abort flows with an
//! explicit cause, but a flow that is neither completed nor aborted at the
//! horizon is a recovery-loop bug and fails the experiment via
//! [`Report::violation`] — which makes `repro` exit non-zero.
//!
//! [`Harness::run_degradation`]: aeolus_transport::Harness::run_degradation

use aeolus_sim::units::{ms, us};
use aeolus_sim::{AbortCause, DropReason, FaultPlan, Tracer};
use aeolus_stats::TextTable;
use aeolus_transport::{DegradationReport, Harness, Scheme, SchemeBuilder, SchemeParams};
use aeolus_workloads::{poisson_flows, PoissonConfig, Workload};

use crate::report::Report;
use crate::runner::{homa_cutoffs_for, Session};
use crate::scale::Scale;
use crate::topos::testbed;

/// The six schemes the paper evaluates, all under node fire.
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

/// One point of the node-fault grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum NodeCell {
    /// No faults: the baseline every scheme must complete cleanly.
    Clean,
    /// One host crashes at 100 µs and restarts at 600 µs.
    Crash1,
    /// Two hosts crash on overlapping windows (100–600 µs and 250–750 µs).
    Crash2,
    /// The upper half of the host set is partitioned off for 150–550 µs.
    Partition,
    /// A host crash *and* a partition at once — the harshest cell.
    CrashPartition,
    /// The arbiter/controller is down 120–520 µs (credit blackout on
    /// schemes without an arbiter host).
    Arbiter,
}

const CELLS: [NodeCell; 6] = [
    NodeCell::Clean,
    NodeCell::Crash1,
    NodeCell::Crash2,
    NodeCell::Partition,
    NodeCell::CrashPartition,
    NodeCell::Arbiter,
];

impl NodeCell {
    /// The cell's fault plan, in unresolved (host-index) form — the harness
    /// binds indices against its arbiter-excluded host list at build time.
    fn plan(self) -> FaultPlan {
        let p = FaultPlan::new(0x0de);
        match self {
            NodeCell::Clean => p,
            NodeCell::Crash1 => p.with_crash(us(100), us(600), 0),
            NodeCell::Crash2 => {
                p.with_crash(us(100), us(600), 0).with_crash(us(250), us(750), 3)
            }
            NodeCell::Partition => p.with_partition(us(150), us(550)),
            NodeCell::CrashPartition => {
                p.with_crash(us(100), us(600), 0).with_partition(us(150), us(550))
            }
            NodeCell::Arbiter => p.with_arbiter_outage(us(120), us(520)),
        }
    }

    fn label(self) -> &'static str {
        match self {
            NodeCell::Clean => "clean",
            NodeCell::Crash1 => "crash x1",
            NodeCell::Crash2 => "crash x2",
            NodeCell::Partition => "partition",
            NodeCell::CrashPartition => "crash + partition",
            NodeCell::Arbiter => "arbiter outage",
        }
    }
}

/// One cell's run: the degradation ledger plus node-fault drop taxonomy and
/// any acceptance violations found.
struct CellOutput {
    report: DegradationReport,
    nodedown_drops: u64,
    arbiterdown_drops: u64,
    violations: Vec<String>,
}

/// Run one cell, under the conformance oracle if `checked` (`repro
/// --check`). The oracle's end-of-run completion audit is skipped: an
/// abort is a legal outcome here.
fn run_cell(scheme: Scheme, cell: NodeCell, n_flows: usize, checked: bool) -> CellOutput {
    let workload = Workload::WebServer;
    let mut params = SchemeParams::new(0);
    params.homa_cutoffs = homa_cutoffs_for(workload);
    params.faults = cell.plan();
    let builder = SchemeBuilder::new(scheme).params(params).topology(testbed());
    if checked {
        run_on(builder.build_checked(), scheme, cell, workload, n_flows)
    } else {
        run_on(builder.build(), scheme, cell, workload, n_flows)
    }
}

fn run_on<T: Tracer>(
    mut h: Harness<T>,
    scheme: Scheme,
    cell: NodeCell,
    workload: Workload,
    n_flows: usize,
) -> CellOutput {
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
    // Horizon: outages end below 1 ms; the peer-silence watchdog (400 ms)
    // plus capped 128 ms retry backoff both fit with room to spare, so a
    // non-settled flow at the horizon is hung, not slow.
    let horizon = last_arrival + ms(800);
    let (report, mut violations) = match h.run_degradation(horizon) {
        Ok(report) => (report, Vec::new()),
        Err(report) => {
            let v = format!(
                "{} under '{}' hung {} flow(s) — {report}",
                scheme.label(),
                cell.label(),
                report.hung(),
            );
            (report, vec![v])
        }
    };
    if cell == NodeCell::Clean && (report.restarted() + report.aborted() > 0) {
        violations.push(format!(
            "{} restarted/aborted flows on a clean network — {report}",
            scheme.label(),
        ));
    }
    if report.aborted_with(AbortCause::ArbiterOutage) > 0 {
        // The engine never aborts *workload* flows for an arbiter outage —
        // only control state dies; seeing this cause here is a taxonomy bug.
        violations.push(format!(
            "{} under '{}' aborted workload flows with cause '{}'",
            scheme.label(),
            cell.label(),
            AbortCause::ArbiterOutage.as_str(),
        ));
    }
    let m = h.metrics();
    CellOutput {
        nodedown_drops: m.drops_by_reason(DropReason::NodeDown),
        arbiterdown_drops: m.drops_by_reason(DropReason::ArbiterDown),
        report,
        violations,
    }
}

/// Run the node-chaos sweep.
pub fn run(s: &Session, scale: Scale) -> Report {
    let n_flows = scale.flows(18, 90, 450);
    let grid: Vec<(Scheme, NodeCell)> = schemes()
        .iter()
        .flat_map(|&s| CELLS.iter().map(move |&c| (s, c)))
        .collect();
    let results =
        s.parallel_map(&grid, |&(scheme, cell)| run_cell(scheme, cell, n_flows, s.checked));

    let mut r = Report::new();
    let mut table = TextTable::new(vec![
        "scheme",
        "faults",
        "completed",
        "restarted",
        "aborted (crash/silent)",
        "hung",
        "node-down drops",
        "arbiter-down drops",
    ]);
    for ((scheme, cell), c) in grid.iter().zip(&results) {
        table.row(vec![
            scheme.label(),
            cell.label().to_string(),
            format!("{}/{}", c.report.completed() + c.report.restarted(), c.report.flows.len()),
            c.report.restarted().to_string(),
            format!(
                "{} ({}/{})",
                c.report.aborted(),
                c.report.aborted_with(AbortCause::NodeCrash),
                c.report.aborted_with(AbortCause::PeerSilent),
            ),
            c.report.hung().to_string(),
            c.nodedown_drops.to_string(),
            c.arbiterdown_drops.to_string(),
        ]);
        for v in &c.violations {
            r.violation(v.clone());
        }
    }
    r.section("Chaos-nodes: per-flow outcomes under crash / partition / arbiter outage", table);
    r.note("completed counts restarted-then-completed flows; a restarted flow's FCT spans the outage");
    r.note("acceptance: zero hung flows anywhere in the grid — a hang is a VIOLATION and repro exits non-zero");
    r.note("crash windows: 100-600us (+250-750us in x2); partition: upper host half dark 150-550us; arbiter outage 120-520us");
    r
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chaos_nodes_smoke_has_zero_hangs() {
        // The acceptance bar: across the whole crash x partition x scheme
        // grid, every flow settles — no hangs, no unexpected outcomes.
        let r = run(&Session::default(), Scale::Smoke);
        assert!(r.passed(), "violations:\n{}", r.violations.join("\n"));
        let rendered = r.render();
        assert!(rendered.contains("crash + partition"));
    }

    #[test]
    fn crash_cell_actually_bites() {
        // The single-crash cell must visibly touch the run for at least one
        // scheme: dead-NIC drops, restarted flows or crash aborts.
        let c = run_cell(Scheme::ExpressPassAeolus, NodeCell::Crash1, 18, false);
        assert!(c.violations.is_empty(), "{:?}", c.violations);
        assert!(
            c.nodedown_drops > 0 || c.report.restarted() > 0 || c.report.aborted() > 0,
            "crash window never touched the workload"
        );
    }

    #[test]
    fn arbiter_outage_kills_in_flight_requests_with_its_own_taxonomy() {
        // Links into a dead node stall rather than drop, so the arbiter-down
        // taxonomy shows up only for traffic already on the wire (or queued
        // at the arbiter) when the outage begins. Plain Fastpass (Hold mode)
        // with a flow starting one switch hop ahead of the window puts its
        // slot request exactly there: the request dies as arbiter-down, the
        // retry backstop re-asks after restart, and the flow completes.
        use aeolus_sim::{FlowDesc, FlowId};
        let plan = FaultPlan::new(1).with_arbiter_outage(us(120), us(520));
        let mut h = SchemeBuilder::new(Scheme::Fastpass)
            .faults(plan)
            .topology(testbed())
            .build();
        let hosts = h.hosts().to_vec();
        h.schedule(&[FlowDesc {
            id: FlowId(1),
            src: hosts[2],
            dst: hosts[5],
            size: 60_000,
            start: us(114),
        }]);
        let report = h.run_degradation(ms(900)).expect("outage must not hang the flow");
        assert_eq!(report.completed(), 1, "{report}");
        assert!(
            h.metrics().drops_by_reason(DropReason::ArbiterDown) > 0,
            "the in-flight request must die with the arbiter-down taxonomy"
        );
        assert_eq!(h.metrics().drops_by_reason(DropReason::NodeDown), 0);
    }

    #[test]
    fn clean_cell_is_all_completions() {
        let c = run_cell(Scheme::HomaAeolus, NodeCell::Clean, 18, false);
        assert!(c.violations.is_empty(), "{:?}", c.violations);
        assert_eq!(c.report.completed(), c.report.flows.len());
        assert_eq!(c.nodedown_drops + c.arbiterdown_drops, 0);
    }
}
