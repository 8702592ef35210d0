//! ExpressPass (SIGCOMM'17) — receiver-driven, credit-scheduled transport —
//! with pluggable first-RTT handling:
//!
//! * [`FirstRttMode::Hold`]: the original protocol — a new sender transmits
//!   only a credit request and waits one RTT for credits.
//! * [`FirstRttMode::Aeolus`]: the paper's contribution — a BDP-worth
//!   droppable unscheduled burst, probe-based loss detection, and scheduled
//!   retransmission driven by the (untouched) credit loop.
//! * [`FirstRttMode::Oracle`]: §2.3's hypothetical ExpressPass (spare
//!   bandwidth used perfectly, zero interference).
//! * [`FirstRttMode::LowPrio`]: §5.5's priority-queueing strawman with
//!   RTO-based recovery.
//!
//! The credit loop follows the ExpressPass design: per-flow credit pacing at
//! the receiver starting at 1/16 of line rate, credit throttling in switch
//! queues ([`aeolus_sim::XPassQueue`]), and aggressiveness-weighted
//! feedback control driven by the credit loss ratio (data packets echo the
//! credit sequence they consumed).

use aeolus_sim::units::{Time, PS_PER_SEC};
use aeolus_sim::{
    Ctx, Endpoint, FlowDesc, FlowId, LossCause, Packet, PacketKind, Timer, TransportEvent,
    CREDIT_BYTES,
};

use crate::common::{request_packet, BaseConfig, FirstRttMode};
use crate::recovery::{
    self, answer_probe, launch_first_rtt, peer_silent, send_resends, Answer, FlowTable, Retire,
    Strikes,
};

// The feedback law's constants: the values the ExpressPass paper (Cho et
// al., SIGCOMM'17) gives for its Algorithm 1.
/// Initial credit rate as a fraction of line rate.
const INIT_RATE_FRAC: f64 = 1.0 / 16.0;
/// Initial aggressiveness ω.
const W_INIT: f64 = 1.0 / 16.0;
/// Maximum aggressiveness.
const W_MAX: f64 = 0.5;
/// Minimum aggressiveness.
const W_MIN: f64 = 0.01;
/// Target credit loss ratio.
const TARGET_LOSS: f64 = 0.125;

/// ExpressPass tunables.
#[derive(Debug, Clone, Copy)]
pub struct XPassConfig {
    /// Shared transport parameters.
    pub base: BaseConfig,
    /// Retransmission timeout for the RTO-recovery strawman (`LowPrio`).
    pub rto: Option<Time>,
}

impl XPassConfig {
    /// Credit feedback period: one RTT, as in the paper.
    fn feedback_period(&self) -> Time {
        self.base.base_rtt.max(1)
    }
}

// Timer kinds ([`Timer::kind`]), beside the stall scan and first-contact
// retry that `recovery` owns.
/// Receiver: send a flow's next credit.
const CREDIT_TICK: u8 = 0;
/// Receiver: a flow's credit-rate feedback period ended.
const FEEDBACK: u8 = 1;
/// Sender: the RTO strawman's timeout.
const RTO: u8 = 2;

/// The receiver's credit loop state for one flow.
struct Credits {
    /// Backs off this flow's stall window.
    strikes: Strikes,
    next_credit_seq: u64,
    /// Induced-data rate in bits/s this flow's credits are paced at.
    rate_bps: f64,
    w: f64,
    can_increase_w: bool,
    /// Highest credit sequence echoed back by a data packet.
    last_echo: u64,
    /// Data packets received this feedback period.
    delivered_period: u64,
    /// Credits inferred lost this period (gaps in the echo sequence —
    /// delay-insensitive, exactly how ExpressPass measures credit loss).
    lost_period: u64,
    /// Credits sent this period (for idle back-off when the sender stops
    /// responding entirely).
    credits_sent_period: u64,
    ticking: bool,
}

impl Credits {
    /// A flow's credit loop before its first credit, paced at `rate_bps`.
    fn new(rate_bps: f64) -> Credits {
        Credits {
            strikes: Strikes::default(),
            next_credit_seq: 1,
            rate_bps,
            w: W_INIT,
            can_increase_w: true,
            last_echo: 0,
            delivered_period: 0,
            lost_period: 0,
            credits_sent_period: 0,
            ticking: false,
        }
    }
}

type RecvFlow = recovery::RecvFlow<Credits>;

/// The sender keeps nothing beyond the shared state.
type SendFlow = recovery::SendFlow<()>;

/// The per-host ExpressPass endpoint (plays both sender and receiver roles).
pub struct XPassEndpoint {
    cfg: XPassConfig,
    flows: FlowTable<SendFlow, RecvFlow>,
}

impl XPassEndpoint {
    /// A fresh endpoint.
    pub fn new(cfg: XPassConfig) -> XPassEndpoint {
        XPassEndpoint { cfg, flows: FlowTable::default() }
    }

    /// The receiver stall scan detects flows whose sender went idle while
    /// bytes are still missing (a scheduled packet was lost to transient
    /// buffer overflow — rare, but unrecoverable without this backstop).
    fn on_stall_scan(&mut self, ctx: &mut Ctx<'_>) {
        let (stall_after, now) = (recovery::stall_after(&self.cfg.base), ctx.now);
        self.flows.reap_silent_senders(ctx);
        let (any_incomplete, resends) = self.flows.stall_scan(ctx, |rf, size| {
            if !rf.proto.strikes.presume_lost(rf.idle(now), stall_after) {
                return Vec::new();
            }
            rf.missing(size, 8)
        });
        send_resends(resends, ctx);
        if any_incomplete {
            self.flows.arm_scan(stall_after, ctx);
        }
    }

    fn mtu(&self) -> u32 {
        self.cfg.base.mtu_payload
    }

    /// Credit pacing interval for a flow at `rate_bps` induced-data rate.
    fn credit_interval(&self, rate_bps: f64) -> Time {
        let bits = self.cfg.base.mtu_wire() as f64 * 8.0;
        ((bits / rate_bps) * PS_PER_SEC as f64) as Time
    }

    fn max_rate_bps(&self, ctx: &Ctx<'_>) -> f64 {
        // Credits consume reverse bandwidth; cap induced data at the
        // data-fraction of line rate like the switch throttle does.
        let mtu = self.cfg.base.mtu_wire() as f64;
        ctx.line_rate.bps() as f64 * mtu / (mtu + CREDIT_BYTES as f64)
    }

    /// Ensure receive-side state exists for a request or probe (created
    /// on Request, first data or probe — whichever wins the race) and its
    /// credit loop and the stall scan are running. Once the flow is
    /// received whole the stall scan is armed all the same.
    fn ensure_recv_flow(&mut self, pkt: &Packet, ctx: &mut Ctx<'_>) {
        let rate_bps = self.max_rate_bps(ctx) * INIT_RATE_FRAC;
        let period = self.cfg.feedback_period();
        if let Some(rf) = self.flows.recv_entry(pkt, ctx, || Credits::new(rate_bps)) {
            start_credits(rf, pkt.flow, period, ctx);
        }
        self.flows.arm_scan(recovery::stall_after(&self.cfg.base), ctx);
    }

    fn on_credit_tick(&mut self, flow: FlowId, ctx: &mut Ctx<'_>) {
        // Receiver-side allocation: a flow never gets more than a fair share
        // of this receiver's aggregate credit capacity (the real DPDK
        // receiver rate-limits its own credit NIC the same way); the
        // feedback loop then handles remote bottlenecks.
        let active = self.flows.recv_active_len().max(1);
        let local_cap = self.max_rate_bps(ctx) / active as f64;
        let credit_grant = self.cfg.base.mtu_payload as u64;
        let rate_bps = {
            // A finished flow is gone: its credit loop stops.
            let Some(rf) = self.flows.recv_mut(flow) else { return };
            let c = &mut rf.proto;
            let mut credit =
                Packet::control(flow, ctx.host, rf.sender, c.next_credit_seq, PacketKind::Credit);
            credit.size = CREDIT_BYTES;
            c.next_credit_seq += 1;
            c.credits_sent_period += 1;
            ctx.emit(TransportEvent::CreditIssue { flow, bytes: credit_grant });
            ctx.send(credit);
            c.rate_bps.min(local_cap)
        };
        let interval = self.credit_interval(rate_bps);
        ctx.set_timer_in_with(interval, Timer::flow(CREDIT_TICK, flow));
    }

    fn on_feedback(&mut self, flow: FlowId, ctx: &mut Ctx<'_>) {
        let max_rate = self.max_rate_bps(ctx);
        let period = self.cfg.feedback_period();
        {
            let Some(rf) = self.flows.recv_mut(flow) else { return };
            let idle = rf.idle(ctx.now);
            let c = &mut rf.proto;
            let total = c.delivered_period + c.lost_period;
            if total == 0
                && c.credits_sent_period > 0
                && idle > 4 * period
            {
                // Credits keep going out but no data has arrived for several
                // RTTs: the sender is idle (done sending, or stalled on a
                // loss). Back off to avoid blasting credits at a dead flow.
                c.rate_bps = (c.rate_bps / 2.0).max(max_rate / 1024.0);
            }
            if total > 0 {
                let loss = c.lost_period as f64 / total as f64;
                if loss <= TARGET_LOSS {
                    // Tolerable loss: move toward max rate. The additive
                    // pull `w * (max - rate)` is what makes competing flows
                    // converge to a fair share (ExpressPass Algorithm 1).
                    if loss == 0.0 && c.can_increase_w {
                        c.w = ((c.w + W_MAX) / 2.0).min(W_MAX);
                    }
                    c.rate_bps = (1.0 - c.w) * c.rate_bps + c.w * max_rate;
                    c.can_increase_w = loss == 0.0;
                } else {
                    c.rate_bps *= (1.0 - loss) * (1.0 + TARGET_LOSS);
                    c.w = (c.w / 2.0).max(W_MIN);
                    c.can_increase_w = false;
                }
                c.rate_bps = c.rate_bps.clamp(max_rate / 1024.0, max_rate);
            }
            c.delivered_period = 0;
            c.lost_period = 0;
            c.credits_sent_period = 0;
        }
        ctx.set_timer_in_with(period, Timer::flow(FEEDBACK, flow));
    }

    fn on_rto(&mut self, flow: FlowId, ctx: &mut Ctx<'_>) {
        let Some(rto) = self.cfg.rto else { return };
        let Some(SendFlow { tx, .. }) = self.flows.send.get_mut(flow) else { return };
        if tx.core.fully_acked() {
            return;
        }
        if peer_silent(tx.last_heard, ctx.now) {
            self.flows.give_up(flow, ctx);
            return;
        }
        ctx.metrics.note_timeout(flow);
        let unacked = tx.core.unacked_ranges();
        let lost = tx.core.force_mark_lost(&unacked);
        tx.note_loss(lost, LossCause::Timeout, ctx);
        ctx.set_timer_in_with(rto, Timer::flow(RTO, flow));
    }
}

/// Start `rf`'s credit loop unless it runs: the first credit now, the end
/// of its first feedback `period` one period on.
fn start_credits(rf: &mut RecvFlow, flow: FlowId, period: Time, ctx: &mut Ctx<'_>) {
    if !rf.proto.ticking {
        rf.proto.ticking = true;
        ctx.set_timer_in_with(0, Timer::flow(CREDIT_TICK, flow));
        ctx.set_timer_in_with(period, Timer::flow(FEEDBACK, flow));
    }
}

#[cfg(test)]
impl XPassEndpoint {
    pub(crate) fn holding(&self, flow: FlowId) -> crate::recovery::Holding {
        self.flows.holding(flow)
    }
}

impl Endpoint for XPassEndpoint {
    fn on_flow_arrival(&mut self, flow: FlowDesc, ctx: &mut Ctx<'_>) {
        let base = self.cfg.base;
        // Credit request first (it carries the demand), then the line-rate
        // burst: the NIC serializes them back to back. The probe trails the
        // burst through every queue: same priority, protected by its ECT
        // mark.
        ctx.send(request_packet(&flow));
        let probe_prio = if base.mode == FirstRttMode::Oracle { 7 } else { 0 };
        let mut tx = launch_first_rtt(flow, &base, probe_prio, ctx, |pkt| {
            base.mode.stamp_unscheduled(pkt, 0, 7)
        });
        if base.mode == FirstRttMode::LowPrio {
            // The §5.5 strawman recovers by RTO only — no last-resort
            // retransmission of unacked bursts (that is an Aeolus refinement).
            tx.core.disable_last_resort();
        }
        if let Some(rto) = self.cfg.rto {
            ctx.set_timer_in_with(rto, Timer::flow(RTO, flow.id));
        }
        // The retry re-sends the request, so it runs in every mode.
        self.flows.launch(SendFlow { tx, proto: () }, true, &base, ctx);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        match pkt.kind {
            PacketKind::Request => {
                self.ensure_recv_flow(&pkt, ctx);
            }
            PacketKind::Credit => {
                // Each credit funds one chunk, which echoes its sequence.
                let mtu = self.mtu();
                if let Some(sf) = self.flows.on_credit(pkt.flow, mtu as u64, ctx) {
                    if let Some(mut data) = sf.tx.next_scheduled(mtu, LossCause::Probe, ctx) {
                        data.credit_echo = pkt.seq;
                        ctx.send(data);
                    }
                }
            }
            PacketKind::Data => {
                let (rate_bps, period) =
                    (self.max_rate_bps(ctx) * INIT_RATE_FRAC, self.cfg.feedback_period());
                let ack = self.cfg.base.mode.acks_data(pkt.class);
                let answer = Answer { ack, completion: false };
                self.flows.on_data(&pkt, answer, ctx, || Credits::new(rate_bps), |rf, ctx| {
                    start_credits(rf, pkt.flow, period, ctx);
                    rf.proto.strikes.reset();
                    if pkt.credit_echo > 0 {
                        // Credit-loss accounting: a gap in the echoed credit
                        // sequence means those credits were throttled away.
                        if pkt.credit_echo > rf.proto.last_echo {
                            rf.proto.lost_period += pkt.credit_echo - rf.proto.last_echo - 1;
                            rf.proto.last_echo = pkt.credit_echo;
                        }
                        rf.proto.delivered_period += 1;
                    }
                });
                self.flows.arm_scan(recovery::stall_after(&self.cfg.base), ctx);
            }
            PacketKind::Probe => {
                self.ensure_recv_flow(&pkt, ctx);
                answer_probe(&pkt, ctx);
            }
            PacketKind::Resend { end } => {
                // Receiver-detected stall: requeue the range; it rides out
                // on the next credits.
                self.flows.on_loss_report(pkt.flow, pkt.seq, end, LossCause::Stall, ctx);
            }
            PacketKind::Ack { .. } => {
                // The receiver sends no completion ACK, so only a message
                // its ACKs cover — unscheduled bytes, or every byte under
                // the RTO strawman — is known done here.
                let infer = self.cfg.base.sack_inference();
                self.flows.on_ack(&pkt, infer, Retire::Covered, ctx);
            }
            other => {
                debug_assert!(false, "unexpected packet kind for ExpressPass: {other:?}");
            }
        }
    }

    fn on_timer(&mut self, timer: Timer, ctx: &mut Ctx<'_>) {
        match (timer.kind, timer.flow) {
            (CREDIT_TICK, Some(f)) => self.on_credit_tick(f, ctx),
            (FEEDBACK, Some(f)) => self.on_feedback(f, ctx),
            (RTO, Some(f)) => self.on_rto(f, ctx),
            (recovery::SCAN, None) => self.on_stall_scan(ctx),
            // The silence-gated §6 retry. Before first contact, silence for
            // a whole backoff interval means the request (and possibly the
            // probe) never made it; after, the credit loop's packets are not
            // getting through — either way, re-ask. This doubles as the
            // scheduled-phase RTO fallback: the re-sent request re-kicks the
            // receiver's credit loop and stall scan.
            (recovery::RETRY, Some(f)) => self.flows.first_contact_retry(
                f,
                &self.cfg.base,
                ctx,
                // Once every byte is out (or acknowledged), any residual
                // tail loss is the receiver stall scan's business.
                |tx| tx.core.fully_acked() || (tx.heard_back && !tx.core.has_work()),
                |tx, ctx| {
                    ctx.send(request_packet(&tx.desc));
                    if !tx.heard_back {
                        tx.send_probe(0, ctx);
                    }
                },
            ),
            _ => unreachable!("not an ExpressPass timer: {timer:?}"),
        }
    }

    fn on_crash(&mut self, _ctx: &mut Ctx<'_>) {
        *self = Self::new(self.cfg);
    }

    fn on_flow_abort(&mut self, flow: FlowDesc, _ctx: &mut Ctx<'_>) {
        self.flows.abort(flow.id);
    }
}
