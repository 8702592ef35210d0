//! Recovery-hardening tests: every scheme must finish every flow under
//! injected wire faults — corruption loss on data, credits, ACKs and
//! probes, and whole-fabric link flaps. These are the harness-level
//! counterpart of the `PreCreditSender` priority-order unit tests: the
//! same retransmission machinery, driven by real losses instead of
//! hand-sequenced ACKs, with the watchdog turning any hang into a loud
//! per-flow diagnostic instead of a test timeout.

use aeolus_core::AeolusConfig;
use aeolus_sim::topology::LinkParams;
use aeolus_sim::units::{ms, us};
use aeolus_sim::{DropReason, FaultPlan, FlowDesc, FlowId, LinkFilter, PacketFilter, Rate};
use aeolus_transport::{Harness, Scheme, SchemeBuilder, SchemeParams, TopoSpec};

fn testbed() -> TopoSpec {
    TopoSpec::SingleSwitch { hosts: 8, link: LinkParams::uniform(Rate::gbps(10), us(3)) }
}

/// The six schemes of the paper's evaluation.
fn schemes_under_fire() -> Vec<Scheme> {
    vec![
        Scheme::ExpressPassAeolus,
        Scheme::HomaAeolus,
        Scheme::NdpAeolus,
        Scheme::PHostAeolus,
        Scheme::FastpassAeolus,
        Scheme::Dctcp { rto: ms(10) },
    ]
}

fn incast_flows(h: &Harness, sizes: &[u64]) -> Vec<FlowDesc> {
    let hosts = h.hosts();
    sizes
        .iter()
        .enumerate()
        .map(|(i, &size)| FlowDesc {
            id: FlowId(i as u64 + 1),
            src: hosts[i % (hosts.len() - 1) + 1],
            dst: hosts[0],
            size,
            start: (i as u64) * us(1),
        })
        .collect()
}

/// Build, run under the watchdog, and return the harness; panics with the
/// watchdog's per-flow stuck-state report if anything hangs.
fn run_faulted(scheme: Scheme, params: SchemeParams, sizes: &[u64], horizon: u64) -> Harness {
    let mut h = SchemeBuilder::new(scheme).params(params).topology(testbed()).build();
    let flows = incast_flows(&h, sizes);
    h.schedule(&flows);
    if let Err(report) = h.run_degradation(horizon) {
        panic!("{}: {report}", scheme.name());
    }
    h
}

#[test]
fn every_scheme_survives_heavy_corruption_loss() {
    // 20% of every packet — data, credits, grants, ACKs, probes — dies on
    // the wire. Far beyond the chaos sweep's 1% ceiling; the point is that
    // no retry path deadlocks even when several signals die in a row.
    for scheme in schemes_under_fire() {
        let mut params = SchemeParams::new(0);
        params.faults =
            FaultPlan::new(11).with_loss(0.2, PacketFilter::Any, LinkFilter::All);
        let h = run_faulted(scheme, params, &[40_000; 4], ms(2000));
        let m = h.metrics();
        assert!(
            m.drops_by_reason(DropReason::Corruption) > 0,
            "{}: the plan injected nothing",
            scheme.name()
        );
        assert!(
            m.flows().all(|r| r.delivered == r.desc.size),
            "{}: short delivery",
            scheme.name()
        );
    }
}

#[test]
fn credit_loss_triggers_stall_recovery() {
    // Half of all credit-carrying control packets vanish. The credit-loop
    // transports must detect the stall receiver-side and re-issue; the
    // senders must re-request. Without the stall/retry hardening both
    // ExpressPass and Fastpass hang here forever.
    for scheme in [Scheme::ExpressPassAeolus, Scheme::FastpassAeolus] {
        let mut params = SchemeParams::new(0);
        params.faults =
            FaultPlan::new(23).with_loss(0.5, PacketFilter::Credit, LinkFilter::All);
        let h = run_faulted(scheme, params, &[60_000; 3], ms(2000));
        assert_eq!(h.metrics().completed_count(), 3, "{}", scheme.name());
    }
}

#[test]
fn control_blackout_retries_reestablish_contact() {
    // 40% loss on *all* control traffic — requests, credits, ACKs, NACKs,
    // probes. First-contact packets (ExpressPass Requests, pHost RTS) can
    // die repeatedly; the capped-backoff retry timers must keep re-trying
    // until the receiver learns the flow exists.
    for scheme in [Scheme::ExpressPassAeolus, Scheme::PHostAeolus, Scheme::FastpassAeolus] {
        let mut params = SchemeParams::new(0);
        params.faults =
            FaultPlan::new(31).with_loss(0.4, PacketFilter::Control, LinkFilter::All);
        let h = run_faulted(scheme, params, &[20_000; 3], ms(2000));
        assert_eq!(h.metrics().completed_count(), 3, "{}", scheme.name());
    }
}

/// Every probe dies on the wire, and 30% of the unscheduled burst with it.
fn probe_blackout() -> FaultPlan {
    FaultPlan::new(43)
        .with_loss(1.0, PacketFilter::Probe, LinkFilter::All)
        .with_loss(0.3, PacketFilter::Unscheduled, LinkFilter::All)
}

#[test]
fn probe_loss_with_retry_disabled_still_completes() {
    // The probe_retry_rtts = 0 regime: every probe dies on the wire and no
    // retry replaces it, so tail losses in the unscheduled burst are never
    // *declared* — completion must come from the last-resort category-3
    // retransmissions riding ordinary credits.
    let mut params = SchemeParams::new(0);
    params.aeolus.probe_retry_rtts = 0;
    params.faults = probe_blackout();
    let h = run_faulted(Scheme::ExpressPassAeolus, params, &[30_000; 2], ms(2000));
    let m = h.metrics();
    assert_eq!(m.completed_count(), 2);
    assert!(
        m.flows().any(|r| r.retransmitted > 0),
        "burst losses must have been repaired by retransmission"
    );
}

#[test]
fn probe_retry_repairs_lost_probes_when_enabled() {
    // Same fault schedule with the retry enabled (the default): the flow
    // completes and the retry path re-sends the probe, so tail losses are
    // declared instead of waiting for the last resort.
    let mut params = SchemeParams::new(0);
    assert!(params.aeolus.probe_retry_rtts > 0, "default must enable the retry");
    params.faults = probe_blackout();
    let h = run_faulted(Scheme::ExpressPassAeolus, params, &[30_000; 2], ms(2000));
    assert_eq!(h.metrics().completed_count(), 2);
}

#[test]
fn every_aeolus_knob_changes_a_run() {
    // Destructured without `..`: a new knob does not compile until it has a
    // case here showing that a non-default value moves a canned run.
    let AeolusConfig { drop_threshold, probe_retry_rtts, burst_budget_frac } =
        AeolusConfig::default();
    // The 7:1 ExpressPass+Aeolus testbed incast: its selective drops and
    // event mix.
    let incast = |aeolus: AeolusConfig| {
        let params = SchemeParams { aeolus, ..SchemeParams::new(0) };
        let h = run_faulted(Scheme::ExpressPassAeolus, params, &[40_000; 7], ms(2000));
        (h.metrics().drops_by_reason(DropReason::SelectiveDrop), h.network().event_mix())
    };
    let base = incast(AeolusConfig::default());
    assert!(base.0 > 0, "the 7:1 incast must trip selective dropping");
    let deeper = AeolusConfig { drop_threshold: 2 * drop_threshold, ..Default::default() };
    assert_ne!(incast(deeper), base, "drop_threshold");
    let half_bdp = AeolusConfig { burst_budget_frac: burst_budget_frac / 2.0, ..Default::default() };
    assert_ne!(incast(half_bdp), base, "burst_budget_frac");
    // The probe blackout, with the §6 retry off and at its default. The
    // messages outlive the retry's 2 ms floor; 30 KB ones finish before
    // any retry timer could fire.
    let blackout = |probe_retry_rtts| {
        let mut params = SchemeParams::new(0);
        params.aeolus.probe_retry_rtts = probe_retry_rtts;
        params.faults = probe_blackout();
        let h = run_faulted(Scheme::ExpressPassAeolus, params, &[3_000_000; 2], ms(2000));
        h.network().event_mix()
    };
    assert_ne!(blackout(0), blackout(probe_retry_rtts), "probe_retry_rtts");
}

#[test]
fn one_burst_flows_survive_losing_burst_probe_and_last_resort() {
    // A message that fits in one burst can lose the burst, the probe *and*
    // the last-resort retransmission. The sender then has nothing left to
    // send and the receiver never heard of the flow, so only the sender's
    // first-contact retry can save it. (Fastpass lacked one: the flow sat
    // at "0/905 B delivered, 0 timeouts, 905 B retransmitted" forever.)
    for scheme in [
        Scheme::ExpressPassAeolus,
        Scheme::HomaAeolus,
        Scheme::NdpAeolus,
        Scheme::PHostAeolus,
        Scheme::FastpassAeolus,
    ] {
        let mut params = SchemeParams::new(0);
        params.faults = FaultPlan::new(5)
            .with_loss(0.5, PacketFilter::Data, LinkFilter::All)
            .with_loss(0.5, PacketFilter::Probe, LinkFilter::All);
        let mut h = SchemeBuilder::new(scheme).params(params).topology(testbed()).build();
        let flows = incast_flows(&h, &[905; 200]);
        h.schedule(&flows);
        if let Err(report) = h.run_degradation(ms(3000)) {
            panic!("{}: {report}", scheme.name());
        }
    }
}

#[test]
fn every_scheme_survives_a_fabric_flap() {
    // All links dark for 300 µs while the incast is mid-flight; queued
    // packets stall, in-flight packets are cut. Every flow must still
    // complete once the fabric comes back.
    for scheme in schemes_under_fire() {
        let mut params = SchemeParams::new(0);
        params.faults = FaultPlan::new(5).with_down(us(100), us(400), LinkFilter::All);
        let h = run_faulted(scheme, params, &[40_000; 7], ms(2000));
        assert_eq!(h.metrics().completed_count(), 7, "{}", scheme.name());
    }
}

#[test]
fn corruption_is_never_conflated_with_selective_drops() {
    // Aeolus' selective dropping is a *signal*; corruption is noise. The
    // metrics must keep the two apart so the paper's drop-rate figures
    // stay meaningful under fault injection.
    let mut params = SchemeParams::new(0);
    params.faults = FaultPlan::new(3).with_loss(0.05, PacketFilter::Data, LinkFilter::All);
    let h = run_faulted(Scheme::ExpressPassAeolus, params, &[100_000; 7], ms(2000));
    let m = h.metrics();
    let corruption = m.drops_by_reason(DropReason::Corruption);
    let selective = m.drops_by_reason(DropReason::SelectiveDrop);
    assert!(corruption > 0, "5% data loss must register corruption drops");
    assert!(selective > 0, "a 7:1 incast must still trip selective dropping");
}

#[test]
fn every_scheme_survives_a_source_host_crash() {
    // One sender crashes at 100 µs and restarts at 600 µs, mid-incast. Its
    // flow is aborted on the spot (wiping in-flight transport state) and
    // relaunched at restart; everyone else keeps going. The degradation
    // ledger must show every flow settled — the crashed sender's flow as
    // restarted-then-completed, the rest as plain completions.
    for scheme in schemes_under_fire() {
        let mut params = SchemeParams::new(0);
        params.faults = FaultPlan::new(17).with_crash(us(100), us(600), 1);
        let mut h = SchemeBuilder::new(scheme).params(params).topology(testbed()).build();
        let flows = incast_flows(&h, &[120_000; 7]);
        h.schedule(&flows);
        let report = match h.run_degradation(ms(4000)) {
            Ok(r) => r,
            Err(r) => panic!("{}: {r}", scheme.name()),
        };
        assert_eq!(
            report.completed() + report.restarted(),
            7,
            "{}: {report}",
            scheme.name()
        );
        assert!(
            report.restarted() >= 1,
            "{}: the crashed sender's flow must restart, not silently survive — {report}",
            scheme.name()
        );
    }
}

#[test]
fn destination_crash_restarts_the_whole_incast() {
    // The incast *sink* dies. Every flow's receiver state is wiped, every
    // flow aborts with NodeCrash, and every one is relaunched when the host
    // comes back — nothing may hang, nothing may stay aborted.
    let mut params = SchemeParams::new(0);
    params.faults = FaultPlan::new(19).with_crash(us(100), us(600), 0);
    let mut h =
        SchemeBuilder::new(Scheme::ExpressPassAeolus).params(params).topology(testbed()).build();
    let flows = incast_flows(&h, &[200_000; 7]);
    h.schedule(&flows);
    let report = h.run_degradation(ms(4000)).expect("sink crash must not hang the incast");
    assert_eq!(report.restarted(), 7, "{report}");
    assert_eq!(report.hung() + report.aborted(), 0, "{report}");
    assert!(
        h.metrics().drops_by_reason(DropReason::NodeDown) > 0,
        "packets heading into the dead sink must die with the node-down taxonomy"
    );
}

#[test]
fn every_scheme_survives_an_arbiter_outage() {
    // A 400 µs control-plane outage: on Fastpass the arbiter host itself
    // goes down (its allocation state is wiped, queued requests stall or
    // die); on the credit-loop schemes the window is a credit blackout. No
    // workload flow is ever aborted for a control-plane fault — the retry
    // and stall-recovery paths must re-establish contact and finish
    // everything.
    for scheme in schemes_under_fire() {
        let mut params = SchemeParams::new(0);
        params.faults = FaultPlan::new(29).with_arbiter_outage(us(100), us(500));
        let mut h = SchemeBuilder::new(scheme).params(params).topology(testbed()).build();
        let flows = incast_flows(&h, &[60_000; 5]);
        h.schedule(&flows);
        let report = match h.run_degradation(ms(4000)) {
            Ok(r) => r,
            Err(r) => panic!("{}: {r}", scheme.name()),
        };
        assert_eq!(report.completed(), 5, "{}: {report}", scheme.name());
        assert_eq!(
            report.restarted() + report.aborted(),
            0,
            "{}: a control-plane outage must never abort or restart workload flows — {report}",
            scheme.name()
        );
    }
}

#[test]
fn crash_and_partition_together_still_settle() {
    // The harshest chaos cell as a direct test: a host crash overlapping a
    // pod partition. Everything must still settle — completed, restarted or
    // aborted-with-cause, never hung.
    for scheme in [Scheme::ExpressPassAeolus, Scheme::HomaAeolus, Scheme::Dctcp { rto: ms(10) }] {
        let mut params = SchemeParams::new(0);
        params.faults = FaultPlan::new(37)
            .with_crash(us(100), us(600), 1)
            .with_partition(us(150), us(550));
        let mut h = SchemeBuilder::new(scheme).params(params).topology(testbed()).build();
        let flows = incast_flows(&h, &[80_000; 7]);
        h.schedule(&flows);
        if let Err(report) = h.run_degradation(ms(4000)) {
            panic!("{}: {report}", scheme.name());
        }
    }
}

#[test]
fn node_fault_grammar_round_trips() {
    // The `--faults` grammar is the public interface to all of the above;
    // Display must emit exactly what FromStr accepts, stably.
    for spec in [
        "crash=1@100us..600us",
        "arbiter=120us..520us, partition=150us..550us, seed=9",
        "loss=0.05, crash=0@1ms..2ms, crash=3@250us..750us",
        "crash=2@100us..600us, arbiter=1ms..1500us, partition=2ms..2500us, seed=3",
    ] {
        let plan: FaultPlan = spec.parse().unwrap_or_else(|e| panic!("'{spec}': {e}"));
        let rendered = plan.to_string();
        let again: FaultPlan =
            rendered.parse().unwrap_or_else(|e| panic!("re-parse of '{rendered}': {e}"));
        assert_eq!(rendered, again.to_string(), "unstable round-trip for '{spec}'");
    }
}

#[test]
fn node_fault_grammar_rejects_malformed_specs() {
    for bad in [
        "crash=100us..600us",     // missing host index
        "crash=x@100us..600us",   // non-numeric index
        "crash=0@600us..100us",   // inverted window
        "crash=0@600us..600us",   // empty window
        "arbiter=0@1ms..2ms",     // arbiter takes no @host
        "partition=1@1ms..2ms",   // partition takes no @host
        "partition=2ms..1ms",     // inverted window
        "arbiter=1xs..2xs",       // bogus time unit
    ] {
        assert!(bad.parse::<FaultPlan>().is_err(), "'{bad}' must not parse");
    }
}

#[test]
fn watchdog_reports_stuck_flows_with_diagnostics() {
    // Kill 100% of everything: no flow can complete, and the watchdog must
    // say which ones are stuck and that they never got a byte through.
    let mut params = SchemeParams::new(0);
    params.faults = FaultPlan::new(1).with_loss(1.0, PacketFilter::Any, LinkFilter::All);
    let mut h =
        SchemeBuilder::new(Scheme::ExpressPassAeolus).params(params).topology(testbed()).build();
    let flows = incast_flows(&h, &[10_000; 2]);
    h.schedule(&flows);
    let report = h.run_degradation(ms(50)).expect_err("nothing can complete under 100% loss");
    assert_eq!((report.stuck.len(), report.hung(), report.flows.len()), (2, 2, 2));
    let text = report.to_string();
    assert!(text.contains("0 completed") && text.contains("2 hung"), "got: {text}");
    assert!(text.contains("never got a byte through"), "got: {text}");
}

#[test]
fn watchdog_treats_aborted_with_cause_as_settled() {
    // A partition outlasting the peer-silence threshold: the flows cut off
    // from the sink abort with cause `PeerSilent`, the rest complete. The
    // run is incomplete but nothing hangs, so the watchdog must not trip
    // (it used to return `Err` with an empty stuck list).
    let mut params = SchemeParams::new(0);
    params.faults = FaultPlan::new(9).with_partition(us(150), ms(600));
    let mut h =
        SchemeBuilder::new(Scheme::ExpressPassAeolus).params(params).topology(testbed()).build();
    let flows = incast_flows(&h, &[60_000; 7]);
    h.schedule(&flows);
    h.run_degradation(ms(3000)).expect("aborted-with-cause flows are settled, not stuck");
    let aborted = h.metrics().flows().filter(|r| r.aborted.is_some()).count();
    assert!(aborted > 0, "the partition must have aborted the cut-off flows");
    assert_eq!(h.metrics().completed_count() + aborted, 7);
}
