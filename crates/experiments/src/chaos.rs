//! Chaos — every scheme under wire and node faults, and no flow left hung.
//!
//! Not a paper figure: this sweep stresses the paper's recovery argument
//! (§3, the proactive channel kept as the loss-recovery path) instead of its
//! performance one. The six schemes the paper evaluates run the same Web
//! Server Poisson workload (load 0.4, seed 7) on the testbed topology under
//! a grid of eleven fault plans: corruption loss at 0.1 % and 1 %, each with
//! and without one all-links flap; one host crash, two overlapping crashes,
//! a pod partition, a crash during a partition, and an arbiter / controller
//! outage. Each cell is one line of the `repro --faults` grammar
//! ([`FaultPlan`]'s `FromStr`), printed as the plan's canonical `Display`
//! text, so a row's label pastes straight into `repro --faults` or a fuzz
//! spec's `faults=`.
//!
//! Every cell runs under [`Harness::run_degradation`] with a horizon of the
//! last arrival plus 800 ms: outages end below 1 ms, and the 400 ms
//! peer-silence give-up plus the 128 ms backoff cap fit with room to spare,
//! so a flow neither completed nor aborted with a cause by then is hung, not
//! slow. A hang, a restart or abort on the clean cell, or an abort blamed on
//! [`AbortCause::ArbiterOutage`] (the engine only kills control state for an
//! arbiter outage) is a [`Report::violation`], which makes `repro` exit
//! non-zero. Under `repro --check` every cell also runs under the
//! conformance oracle ([`SchemeBuilder::build_checked`]) without its
//! end-of-run completion audit, since an abort is a legal outcome here; the
//! oracle only observes, so the tables read the same with or without it.
//!
//! The report is one table — completion, restarts, aborts by cause, hangs,
//! goodput against the scheme's clean cell, nearest-rank p50 / p99 slowdown
//! ([`FctAggregator::slowdowns`]), the packets each fault kind killed
//! (corruption, link down — which is how a partition drops — node down,
//! arbiter down) and flows that took a timeout — plus the recovery-time
//! CDF under 1 % loss with the flap: how much tail each scheme's retry
//! machinery leaves once every loss is repaired. `examples/chaos_faults.rs`
//! is the same idea in ~50 lines on one incast.
//!
//! [`FaultPlan`]: aeolus_sim::FaultPlan
//! [`Harness::run_degradation`]: aeolus_transport::Harness::run_degradation
//! [`SchemeBuilder::build_checked`]: aeolus_transport::SchemeBuilder::build_checked
//! [`FctAggregator::slowdowns`]: aeolus_stats::FctAggregator::slowdowns
//! [`AbortCause::ArbiterOutage`]: aeolus_sim::AbortCause::ArbiterOutage

use aeolus_sim::units::ms;
use aeolus_sim::{AbortCause, DropReason, Tracer};
use aeolus_stats::{f2, f3, TextTable};
use aeolus_transport::{DegradationReport, Harness, Scheme, SchemeBuilder, SchemeParams};
use aeolus_workloads::{poisson_flows, PoissonConfig, Workload};

use crate::report::Report;
use crate::runner::{homa_cutoffs_for, RunOutput, Session};
use crate::scale::Scale;
use crate::topos::testbed;

/// The six schemes the paper evaluates, all under fire.
const SCHEMES: [Scheme; 6] = [
    Scheme::ExpressPassAeolus,
    Scheme::HomaAeolus,
    Scheme::NdpAeolus,
    Scheme::PHostAeolus,
    Scheme::FastpassAeolus,
    Scheme::Dctcp { rto: ms(10) },
];

/// The fault grid, one canonical `--faults` spec per cell. The flap darkens
/// every link 200–500 µs, when the first wave of flows is mid-flight;
/// `crash=I` binds the I-th workload host and `partition=` cuts off the
/// upper half of the hosts.
const CELLS: [&str; 11] = [
    "",
    "down=200us..500us",
    "loss=0.001, seed=7",
    "loss=0.001, down=200us..500us, seed=7",
    "loss=0.01, seed=7",
    "loss=0.01, down=200us..500us, seed=7",
    "crash=0@100us..600us",
    "crash=0@100us..600us, crash=3@250us..750us",
    "partition=150us..550us",
    "crash=0@100us..600us, partition=150us..550us",
    "arbiter=120us..520us",
];

/// The cell the recovery-time CDF reads: 1 % loss plus the flap.
const HARSHEST: usize = 5;

/// The drops a fault plan causes, in table order.
const FAULT_DROPS: [DropReason; 4] = [
    DropReason::Corruption,
    DropReason::LinkDown,
    DropReason::NodeDown,
    DropReason::ArbiterDown,
];

/// The workload every cell runs.
const WORKLOAD: Workload = Workload::WebServer;

/// One cell's run: its statistics, per-flow outcomes and [`FAULT_DROPS`].
struct Cell {
    out: RunOutput,
    report: DegradationReport,
    drops: [u64; 4],
}

fn label(spec: &str) -> &str {
    if spec.is_empty() { "clean" } else { spec }
}

fn run_cell(s: &Session, scheme: Scheme, spec: &str, n_flows: usize) -> Cell {
    let mut params = SchemeParams::new(0);
    params.homa_cutoffs = homa_cutoffs_for(WORKLOAD);
    params.faults = spec.parse().expect("every chaos cell is a valid --faults spec");
    let builder = SchemeBuilder::new(scheme).params(params).topology(testbed());
    if s.checked {
        run_on(s, builder.build_checked(), n_flows)
    } else {
        run_on(s, builder.build(), n_flows)
    }
}

fn run_on<T: Tracer>(s: &Session, mut h: Harness<T>, n_flows: usize) -> Cell {
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
        &WORKLOAD.dist(),
    );
    h.schedule(&flows);
    let last_arrival = flows.iter().map(|f| f.start).max().unwrap_or(0);
    let report = h.run_degradation(last_arrival + ms(800)).unwrap_or_else(|hung| hung);
    let drops = FAULT_DROPS.map(|r| h.metrics().drops_by_reason(r));
    Cell { out: s.collect(&h), report, drops }
}

impl Cell {
    /// What this cell broke of the acceptance bar, if anything.
    fn violations(&self, scheme: Scheme, spec: &str) -> Vec<String> {
        let r = &self.report;
        let at = format!("{} under '{}'", scheme.label(), label(spec));
        let mut v = Vec::new();
        if r.hung() > 0 {
            v.push(format!("{at} hung {} flow(s) — {r}", r.hung()));
        }
        if spec.is_empty() && r.restarted() + r.aborted() > 0 {
            v.push(format!("{at} restarted/aborted flows on a clean network — {r}"));
        }
        if r.aborted_with(AbortCause::ArbiterOutage) > 0 {
            // Only control state dies in an arbiter outage, never a workload flow.
            let cause = AbortCause::ArbiterOutage.as_str();
            v.push(format!("{at} aborted workload flows with cause '{cause}'"));
        }
        v
    }
}

/// Every (scheme, cell) pair, scheme-major: `SCHEMES[i / CELLS.len()]` under
/// `CELLS[i % CELLS.len()]`.
fn grid(s: &Session, scale: Scale) -> Vec<Cell> {
    let n_flows = scale.flows(24, 120, 600);
    let pairs: Vec<(Scheme, &str)> =
        SCHEMES.iter().flat_map(|&scheme| CELLS.map(|spec| (scheme, spec))).collect();
    s.parallel_map(&pairs, |&(scheme, spec)| run_cell(s, scheme, spec, n_flows))
}

fn report(cells: &[Cell]) -> Report {
    let mut r = Report::new();
    let mut table = TextTable::new(vec![
        "scheme",
        "faults",
        "completed",
        "restarted",
        "aborted (crash/silent)",
        "hung",
        "goodput vs clean",
        "p50 slowdown",
        "p99 slowdown",
        "corrupt",
        "link down",
        "node down",
        "arbiter down",
        "flows w/ timeout",
    ]);
    let mut cdf = TextTable::new(vec!["scheme", "p25", "p50", "p75", "p90", "p99", "max"]);
    for (scheme, row) in SCHEMES.iter().zip(cells.chunks(CELLS.len())) {
        let clean = row[0].out.goodput;
        for (spec, c) in CELLS.iter().zip(row) {
            let mut slow = c.out.agg.slowdowns();
            let rep = &c.report;
            let mut cols = vec![
                scheme.label(),
                label(spec).to_string(),
                format!("{}/{}", c.out.completed, c.out.scheduled),
                rep.restarted().to_string(),
                format!(
                    "{} ({}/{})",
                    rep.aborted(),
                    rep.aborted_with(AbortCause::NodeCrash),
                    rep.aborted_with(AbortCause::PeerSilent),
                ),
                rep.hung().to_string(),
                f3(if clean > 0.0 { c.out.goodput / clean } else { 0.0 }),
                f2(slow.percentile(50.0)),
                f2(slow.percentile(99.0)),
            ];
            cols.extend(c.drops.map(|d| d.to_string()));
            cols.push(c.out.flows_with_timeouts.to_string());
            table.row(cols);
            for v in c.violations(*scheme, spec) {
                r.violation(v);
            }
        }
        let mut slow = row[HARSHEST].out.agg.slowdowns();
        let quantiles = [25.0, 50.0, 75.0, 90.0, 99.0, 100.0].map(|p| f2(slow.percentile(p)));
        cdf.row([scheme.label()].into_iter().chain(quantiles).collect());
    }
    r.section("Chaos: flow outcomes, goodput and fault drops under wire and node faults", table);
    r.section(format!("Recovery-time CDF (slowdown quantiles) under '{}'", CELLS[HARSHEST]), cdf);
    r.note(
        "faults is the cell's --faults spec; completed counts restarted-then-completed flows, \
         whose FCT spans the outage",
    );
    r.note(
        "acceptance: every flow completes or aborts with a cause by last arrival + 800 ms; \
         a hang is a violation and repro exits non-zero",
    );
    r.note(
        "goodput vs clean is relative to the same scheme's fault-free cell; the four drop \
         columns count the packets each fault kind killed (a partition's are link down)",
    );
    r
}

/// Run the chaos sweep.
pub fn run(s: &Session, scale: Scale) -> Report {
    report(&grid(s, scale))
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::OnceLock;

    use aeolus_sim::units::us;
    use aeolus_sim::FaultPlan;

    /// The smoke grid, simulated once for every test that reads it.
    fn smoke() -> &'static [Cell] {
        static GRID: OnceLock<Vec<Cell>> = OnceLock::new();
        GRID.get_or_init(|| grid(&Session::default(), Scale::Smoke))
    }

    /// `SCHEMES` × the cell at `ci`.
    fn column(ci: usize) -> impl Iterator<Item = (Scheme, &'static Cell)> {
        SCHEMES.into_iter().zip(smoke().iter().skip(ci).step_by(CELLS.len()))
    }

    #[test]
    fn chaos_smoke_completes_every_flow() {
        // The acceptance bar: across the whole scheme × fault grid every
        // flow settles — no hangs, no unexpected outcomes.
        let r = report(smoke());
        assert!(r.passed(), "violations:\n{}", r.violations.join("\n"));
        assert_eq!(r.sections.len(), 2);
        let rendered = r.render();
        assert!(CELLS.iter().all(|spec| rendered.contains(label(spec))));
    }

    #[test]
    fn cells_are_canonical_fault_specs() {
        for spec in CELLS {
            let plan: FaultPlan = spec.parse().unwrap_or_else(|e| panic!("{spec:?}: {e}"));
            assert_eq!(plan.to_string(), spec, "not the plan's Display text");
        }
    }

    #[test]
    fn clean_cell_injects_nothing() {
        for (scheme, c) in column(0) {
            assert_eq!(c.drops, [0; 4], "{}", scheme.label());
            assert_eq!(c.report.restarted() + c.report.aborted(), 0, "{}", scheme.label());
        }
    }

    #[test]
    fn harshest_cell_actually_injects_faults() {
        // 1 % loss plus the flap kills packets of both kinds, and the
        // recovery path still completes every flow.
        for (scheme, c) in column(HARSHEST) {
            assert!(c.drops[0] > 0, "{}: 1% loss must kill some packets", scheme.label());
            assert_eq!(c.out.completed, c.out.scheduled, "{}", scheme.label());
        }
        assert!(column(HARSHEST).any(|(_, c)| c.drops[1] > 0), "the flap never dropped a packet");
    }

    #[test]
    fn every_cell_shows_its_own_effect() {
        // Every faulted cell shows its own kind of damage for at least one
        // scheme (the clean cell is `clean_cell_injects_nothing`'s).
        let corrupt = |c: &Cell| c.drops[0] > 0;
        let link = |c: &Cell| c.drops[1] > 0;
        let node = |c: &Cell| c.drops[2] > 0 || c.report.restarted() > 0;
        let arbiter = |c: &Cell| c.drops[3] > 0;
        type Bites = fn(&Cell) -> bool;
        let effects: [&[Bites]; CELLS.len()] = [
            &[],
            &[link],
            &[corrupt],
            &[corrupt, link],
            &[corrupt],
            &[corrupt, link],
            &[node],
            &[node],
            &[link],
            &[node, link],
            &[arbiter],
        ];
        for (ci, want) in effects.iter().enumerate().skip(1) {
            for (k, bites) in want.iter().enumerate() {
                assert!(column(ci).any(|(_, c)| bites(c)), "'{}' effect {k} never showed", CELLS[ci]);
            }
        }
    }

    #[test]
    fn lossy_cells_corrupt_packets_for_every_scheme() {
        // The loss stream is seeded by the spec, so no scheme draws a
        // lossless "lossy" cell.
        for (ci, spec) in CELLS.iter().enumerate() {
            if spec.parse::<FaultPlan>().unwrap().corruption.is_empty() {
                continue;
            }
            for (scheme, c) in column(ci) {
                assert!(c.drops[0] > 0, "{} under '{spec}' saw no corruption", scheme.label());
            }
        }
    }

    /// The crash, partition and arbiter cells: `CELLS[NODE_CELLS..]`.
    const NODE_CELLS: usize = 6;

    /// Every node-fault cell settles every flow, and each is in the report.
    pub(crate) fn node_cells_have_zero_hangs() {
        for (ci, spec) in CELLS.iter().enumerate().skip(NODE_CELLS) {
            for (scheme, c) in column(ci) {
                assert_eq!(c.report.hung(), 0, "{} under '{spec}': {}", scheme.label(), c.report);
                assert!(c.violations(scheme, spec).is_empty(), "{}", scheme.label());
            }
        }
        let rendered = report(smoke()).render();
        assert!(CELLS[NODE_CELLS..].iter().all(|spec| rendered.contains(spec)));
    }

    /// The clean cell completes every flow, with no node or arbiter drops.
    pub(crate) fn clean_cell_is_all_completions() {
        for (scheme, c) in column(0) {
            assert!(c.violations(scheme, CELLS[0]).is_empty(), "{}", scheme.label());
            assert_eq!(c.report.completed(), c.report.flows.len(), "{}", scheme.label());
            assert_eq!(c.drops[2] + c.drops[3], 0, "{}", scheme.label());
        }
    }

    /// Each crash cell visibly touches ExpressPass+Aeolus's run: dead-NIC
    /// drops, restarted flows or crash aborts.
    pub(crate) fn crash_cells_bite() {
        for ci in [NODE_CELLS, NODE_CELLS + 1] {
            let (scheme, c) = column(ci).next().expect("ExpressPass+Aeolus leads SCHEMES");
            assert!(c.violations(scheme, CELLS[ci]).is_empty(), "{}", CELLS[ci]);
            assert!(
                c.drops[2] > 0 || c.report.restarted() > 0 || c.report.aborted() > 0,
                "'{}' never touched the workload",
                CELLS[ci]
            );
        }
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
}
