//! Determinism regression tests: identical seeds must give bit-identical
//! results — run-to-run, serial vs parallel (`Session::run_many`), and timing-wheel
//! vs the reference binary-heap scheduler. This is the contract that makes
//! the fast-path scheduler and the experiment fan-out safe to use for the
//! paper's numbers.

use aeolus_experiments::topos::testbed;
use aeolus_experiments::{RunConfig, RunOutput, Session};
use aeolus_sim::units::{ms, us};
use aeolus_sim::{FaultPlan, LinkFilter, PacketFilter, SchedulerKind};
use aeolus_transport::{Scheme, SchemeBuilder};
use aeolus_workloads::{incast_rounds, Workload};

/// One representative per scheme family (proactive, Aeolus-armed, reactive,
/// arbiter-based).
fn families() -> Vec<Scheme> {
    vec![
        Scheme::ExpressPassAeolus,
        Scheme::HomaAeolus,
        Scheme::NdpAeolus,
        Scheme::PHostAeolus,
        Scheme::Dctcp { rto: ms(10) },
        Scheme::FastpassAeolus,
    ]
}

fn fixed_cfg(scheme: Scheme) -> RunConfig {
    let mut cfg = RunConfig::new(scheme, testbed(), Workload::WebServer);
    cfg.n_flows = 50;
    cfg.load = 0.3;
    cfg.seed = 7;
    cfg
}

fn assert_identical(a: &RunOutput, b: &RunOutput, what: &str) {
    assert_eq!(a.completed, b.completed, "{what}: completed-flow counts differ");
    assert_eq!(a.scheduled, b.scheduled, "{what}: scheduled-flow counts differ");
    assert_eq!(a.events, b.events, "{what}: engine event counts differ");
    assert_eq!(a.span, b.span, "{what}: simulated spans differ");
    assert_eq!(a.agg.len(), b.agg.len(), "{what}: sample counts differ");
    // Bit-exact across the whole FCT sample set, not just summaries.
    for (x, y) in a.agg.samples().iter().zip(b.agg.samples()) {
        assert_eq!(x.size, y.size, "{what}: sample sizes differ");
        assert_eq!(x.fct_ps, y.fct_ps, "{what}: FCTs differ");
    }
    let (pa, pb) = (a.agg.summary().p99_slowdown, b.agg.summary().p99_slowdown);
    assert!(pa == pb, "{what}: p99 slowdowns differ ({pa} vs {pb})");
}

/// Same fixed-seed config, run twice serially and once through the parallel
/// fan-out: all three must match exactly, per scheme family.
#[test]
fn serial_rerun_and_parallel_runs_are_bit_identical() {
    let cfgs: Vec<RunConfig> = families().into_iter().map(fixed_cfg).collect();
    let serial = Session { jobs: 1, ..Session::default() };
    let first: Vec<RunOutput> = cfgs.iter().map(|c| serial.run_workload(c)).collect();
    let second: Vec<RunOutput> = cfgs.iter().map(|c| serial.run_workload(c)).collect();
    let fanned = Session { jobs: cfgs.len(), ..Session::default() }.run_many(&cfgs);
    for (i, scheme) in families().into_iter().enumerate() {
        let name = scheme.name();
        assert!(first[i].completed > 0, "{name}: nothing completed");
        assert_identical(&first[i], &second[i], &format!("{name} serial rerun"));
        assert_identical(&first[i], &fanned[i], &format!("{name} run_many"));
    }
}

/// The chaos shapes — randomized corruption loss plus a fabric-wide flap,
/// and a node/control-plane schedule whose degrade, crash, partition and
/// arbiter-outage windows open and close during the incast — must be just
/// as deterministic as a clean run: reruns and both schedulers bit-identical,
/// per scheme family. This pins the slab-backed per-flow state
/// (`FlowMap`), the engine's stale-timer drop, the fault RNG and the fault
/// plan's open-window index to one behavior: flow churn under loss
/// exercises slot recycling, timers outliving a crash and the sorted
/// stall/backstop scans far harder than a clean incast does, and
/// same-instant window boundaries, arrivals and restarts pop in different
/// orders under the two schedulers.
#[test]
fn faulted_runs_are_bit_identical_across_reruns_and_schedulers() {
    let plans = [
        FaultPlan::new(0xdead_0007)
            .with_loss(0.005, PacketFilter::Any, LinkFilter::All)
            .with_down(200 * us(1), 500 * us(1), LinkFilter::All),
        // Round 1 runs degraded with sender 1 crashing mid-burst, round 2
        // starts into a partition, round 3 into an arbiter outage.
        FaultPlan::new(0xdead_0008)
            .with_degraded(us(10), us(600), 3, LinkFilter::All)
            .with_crash(us(20), us(700), 1)
            .with_partition(us(2_050), us(2_400))
            .with_arbiter_outage(us(4_050), us(4_300)),
    ];
    let cells = families().into_iter().flat_map(|s| plans.iter().map(move |p| (s, p)));
    for (scheme, plan) in cells {
        let what = format!("{} under '{plan}'", scheme.name());
        let run = |kind: SchedulerKind| {
            let mut h = SchemeBuilder::new(scheme).topology(testbed()).build();
            // Scheduler first (it must see an empty queue), then the fault
            // plan (it schedules its window events immediately), through
            // the entry the harness itself uses at build time.
            h.topo.net.set_scheduler(kind);
            h.install_faults(plan);
            let hosts = h.hosts().to_vec();
            let flows = incast_rounds(&hosts[1..], hosts[0], 30_000, 3, ms(2), 0, 1);
            h.schedule(&flows);
            assert!(h.run(ms(2000)), "{what}: faulted incast did not complete");
            let fcts: Vec<(u64, u64, u32)> = h
                .metrics()
                .flows()
                .map(|r| (r.desc.id.0, r.fct().expect("completed flow has an FCT"), r.restarts))
                .collect();
            (h.topo.net.events_processed(), h.metrics().total_drops(), fcts)
        };
        let first = run(SchedulerKind::TimingWheel);
        let rerun = run(SchedulerKind::TimingWheel);
        let heap = run(SchedulerKind::BinaryHeap);
        assert_eq!(first, rerun, "{what}: faulted rerun diverged");
        assert_eq!(first, heap, "{what}: faulted wheel vs heap diverged");
        assert!(first.1 > 0, "{what}: fault plan injected no drops");
        if plan.has_node_faults() {
            assert!(first.2.iter().any(|f| f.2 > 0), "{what}: the crash restarted no flow");
        }
    }
}

/// The timing wheel and the reference binary heap must drive byte-identical
/// simulations: same event counts, same completions, same per-flow FCTs.
#[test]
fn timing_wheel_matches_binary_heap_end_to_end() {
    for scheme in families() {
        let run = |kind: SchedulerKind| {
            let mut h = SchemeBuilder::new(scheme).topology(testbed()).build();
            h.topo.net.set_scheduler(kind);
            let hosts = h.hosts().to_vec();
            let flows = incast_rounds(&hosts[1..], hosts[0], 30_000, 3, ms(2), 0, 1);
            h.schedule(&flows);
            assert!(h.run(ms(1000)), "{}: incast did not complete", scheme.name());
            let fcts: Vec<(u64, u64)> = h
                .metrics()
                .flows()
                .map(|r| (r.desc.id.0, r.fct().expect("completed flow has an FCT")))
                .collect();
            (h.topo.net.events_processed(), fcts)
        };
        let (ev_wheel, fct_wheel) = run(SchedulerKind::TimingWheel);
        let (ev_heap, fct_heap) = run(SchedulerKind::BinaryHeap);
        assert_eq!(ev_wheel, ev_heap, "{}: event counts diverge", scheme.name());
        assert_eq!(fct_wheel, fct_heap, "{}: per-flow FCTs diverge", scheme.name());
    }
}
