//! Timer hygiene: a re-armed deadline keeps one queued event, and a
//! relaunched flow inherits no timer of its previous incarnation, at either
//! end.
//!
//! For the second, one 200 KB flow starts at 0; its sink crashes 1 µs
//! later, before any ACK, so the engine aborts the flow and relaunches it
//! when the sink comes back at `relaunch`, half a timer delay `d` in. By then the first
//! incarnation's flow-keyed timers (armed at 0, due at `d`) are still
//! queued. Every link goes down just before the relaunch, so the new
//! incarnation hears nothing and its own timers are not due before
//! `relaunch + d`. Up to that moment the relaunched flow must record
//! exactly the timeouts of a control flow that simply starts at `relaunch`
//! under the same outage: any extra one came from a timer of the aborted
//! incarnation.

use aeolus_sim::topology::LinkParams;
use aeolus_sim::units::{ms, us};
use aeolus_sim::{FaultPlan, FlowDesc, FlowId, LinkFilter, PortId, Rate, Time};
use aeolus_transport::{Harness, Scheme, SchemeBuilder, SchemeParams, TopoSpec};

fn testbed(hosts: usize) -> TopoSpec {
    TopoSpec::SingleSwitch { hosts, link: LinkParams::uniform(Rate::gbps(10), us(3)) }
}

#[test]
fn dctcp_keeps_one_queued_rto_per_flow() {
    // 16 long flows, two per sender, into one sink: every ACK re-arms a
    // 10 ms RTO. Apart from one RTO per flow, the queue holds only packets
    // on the wire and their ports' `PortFree`s, a few per link. Fails (with
    // thousands) if every re-arm queues an event of its own.
    const N: usize = 16;
    let mut h = SchemeBuilder::new(Scheme::Dctcp { rto: ms(10) }).topology(testbed(9)).build();
    let hosts = h.hosts().to_vec();
    let flows: Vec<FlowDesc> = (0..N)
        .map(|i| FlowDesc {
            id: FlowId(i as u64 + 1),
            src: hosts[i % 8 + 1],
            dst: hosts[0],
            size: 1_000_000,
            start: i as u64 * us(1),
        })
        .collect();
    h.schedule(&flows);
    let mut high = 0;
    let mut t = 0;
    while h.metrics().completed_count() < N {
        assert!(t < ms(100), "the flows did not finish");
        t += us(5);
        h.network_mut().run_until(t);
        high = high.max(h.network().pending_events());
    }
    assert!(high <= 8 * N, "{high} events queued for {N} flows");
}

/// One 200 KB flow from host 1 to host 0, launched at `start` under
/// `plan`, not yet run.
fn one_flow(scheme: Scheme, plan: FaultPlan, start: Time) -> Harness {
    let mut params = SchemeParams::new(0);
    params.faults = plan;
    let mut h = SchemeBuilder::new(scheme).params(params).topology(testbed(4)).build();
    let hosts = h.hosts().to_vec();
    h.schedule(&[FlowDesc { id: FlowId(1), src: hosts[1], dst: hosts[0], size: 200_000, start }]);
    h
}

/// The flow's timeouts and restarts at `until`, launched at `start` under
/// `plan`.
fn timeouts(scheme: Scheme, plan: FaultPlan, start: Time, until: Time) -> (u32, u32) {
    let mut h = one_flow(scheme, plan, start);
    h.network_mut().run_until(until);
    let rec = h.metrics().flow(FlowId(1)).expect("the flow is registered");
    (rec.timeouts, rec.restarts)
}

/// Relaunched and control timeouts of `scheme` whose flow-keyed timer is
/// first due `d` after launch.
fn relaunched_vs_fresh(scheme: Scheme, d: Time) -> (u32, u32) {
    let relaunch = d / 2;
    let check = relaunch + d - us(1);
    let outage = |plan: FaultPlan| plan.with_down(relaunch - us(1), ms(1000), LinkFilter::All);
    let crash = FaultPlan::new(1).with_crash(us(1), relaunch, 0);
    let (relaunched, restarts) = timeouts(scheme, outage(crash), 0, check);
    assert_eq!(restarts, 1, "{scheme}: the sink crash must abort and relaunch the flow");
    let (fresh, _) = timeouts(scheme, outage(FaultPlan::new(1)), relaunch, check);
    (relaunched, fresh)
}

fn assert_no_inherited_timeouts(rows: &[(Scheme, Time)]) {
    for &(scheme, d) in rows {
        let (relaunched, fresh) = relaunched_vs_fresh(scheme, d);
        assert_eq!(
            relaunched, fresh,
            "{scheme} (timer due {d} ps after launch): the relaunched flow fired a timer of \
             its aborted incarnation"
        );
    }
}

#[test]
fn dctcp_relaunch_inherits_no_rto() {
    // Fails if RTO staleness is a generation count that restarts with the
    // flow: the first incarnation's generation-1 RTO then fires at 10 ms
    // into the relaunch, which is at generation 1 too.
    assert_no_inherited_timeouts(&[(Scheme::Dctcp { rto: ms(10) }, ms(10))]);
}

// One row per flow-keyed timer: the engine must drop every one armed by
// the aborted incarnation, whatever its handler would do with it.

#[test]
fn expresspass_relaunch_inherits_no_rto() {
    assert_no_inherited_timeouts(&[(Scheme::ExpressPassPrioQueue { rto: ms(10) }, ms(10))]);
}

#[test]
fn eager_homa_relaunch_inherits_no_sender_rto() {
    // The naive RTO fires whatever the flow last heard, so no silence gate
    // hides a stale one.
    assert_no_inherited_timeouts(&[(Scheme::HomaEager { rto: us(20) }, us(20))]);
}

#[test]
fn fastpass_relaunch_inherits_no_request_retry() {
    assert_no_inherited_timeouts(&[(Scheme::Fastpass, ms(2)), (Scheme::FastpassAeolus, ms(2))]);
}

#[test]
fn expresspass_relaunch_inherits_no_probe_retry() {
    assert_no_inherited_timeouts(&[
        (Scheme::ExpressPassAeolus, ms(2)),
        (Scheme::ExpressPass, ms(2)),
    ]);
}

#[test]
fn homa_relaunch_inherits_no_probe_retry() {
    assert_no_inherited_timeouts(&[(Scheme::HomaAeolus, ms(2))]);
}

#[test]
fn ndp_relaunch_inherits_no_probe_retry() {
    assert_no_inherited_timeouts(&[(Scheme::NdpAeolus, ms(2))]);
}

#[test]
fn phost_relaunch_inherits_no_rts_retry() {
    assert_no_inherited_timeouts(&[
        (Scheme::PHostAeolus, ms(2)),
        (Scheme::PHost { rto: ms(10) }, ms(2)),
    ]);
}

/// Bytes the sink (host 0) put on its NIC between `from` and `until`, the
/// flow launched at `start` under `plan`.
fn sink_bytes(scheme: Scheme, plan: FaultPlan, start: Time, from: Time, until: Time) -> u64 {
    let mut h = one_flow(scheme, plan, start);
    let sink = h.hosts()[0];
    h.network_mut().run_until(from);
    let before = h.network().port(sink, PortId(0)).stats.bytes_tx;
    h.network_mut().run_until(until);
    h.network().port(sink, PortId(0)).stats.bytes_tx - before
}

#[test]
fn expresspass_receiver_runs_one_credit_chain_after_a_sender_crash() {
    // The sink's credit loop is its own: a sender crash aborts the flow at
    // both ends but bumps only the sender's crash count. The request
    // reaches the sink at ~6 µs and starts a credit chain (`CREDIT_TICK`
    // about every 20 µs at the initial rate, `FEEDBACK` every RTT); the
    // sender crashes at 7 µs and relaunches at 12 µs, so the relaunch's
    // request re-creates the receive entry before the first incarnation's
    // next tick and feedback fire. Plain ExpressPass sends no unscheduled
    // data, so the sink sends only credits: over the next 100 µs it must
    // send exactly what it sends for a flow launched fresh at 12 µs — a
    // stale tick finding the new entry would run a second chain.
    let (crash, relaunch, window) = (us(7), us(12), us(100));
    let crashed = FaultPlan::new(1).with_crash(crash, relaunch, 1);
    let relaunched = sink_bytes(Scheme::ExpressPass, crashed, 0, relaunch, relaunch + window);
    let fresh =
        sink_bytes(Scheme::ExpressPass, FaultPlan::new(1), relaunch, relaunch, relaunch + window);
    assert!(fresh > 0, "the sink sent no credits");
    assert_eq!(relaunched, fresh, "the sink's first-incarnation timers ran into the relaunch");
}
