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
    Ctx, Endpoint, FlowDesc, FlowId, LossCause, Packet, PacketKind, Timer, TrafficClass,
    TransportEvent, CREDIT_BYTES,
};

use crate::common::{data_ack_packet, request_packet, BaseConfig, FirstRttMode};
use crate::recovery::{
    self, answer_probe, launch_first_rtt, peer_silent, send_resends, Done, FlowTable, SendState,
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

// Timer kinds ([`Timer::kind`]).
/// Receiver: send a flow's next credit.
const CREDIT_TICK: u8 = 0;
/// Receiver: a flow's credit-rate feedback period ended.
const FEEDBACK: u8 = 1;
/// Sender: the RTO strawman's timeout.
const RTO: u8 = 2;
/// §6 probe-retry: resend request+probe if nothing was heard at all.
const PROBE_RETRY: u8 = 3;
/// Receiver-side stall scan (a host timer): detects flows whose sender went
/// idle while bytes are still missing (a scheduled packet was lost to
/// transient buffer overflow — rare, but unrecoverable without this
/// backstop).
const STALL_SCAN: u8 = 4;

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

type RecvFlow = recovery::RecvFlow<Credits>;

/// The per-host ExpressPass endpoint (plays both sender and receiver roles).
pub struct XPassEndpoint {
    cfg: XPassConfig,
    flows: FlowTable<SendState, RecvFlow>,
    stall_scan_armed: bool,
}

impl XPassEndpoint {
    /// A fresh endpoint.
    pub fn new(cfg: XPassConfig) -> XPassEndpoint {
        XPassEndpoint {
            cfg,
            flows: FlowTable::default(),
            stall_scan_armed: false,
        }
    }

    fn on_stall_scan(&mut self, ctx: &mut Ctx<'_>) {
        self.stall_scan_armed = false;
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
            self.stall_scan_armed = true;
            ctx.set_timer_in_with(stall_after, Timer::host(STALL_SCAN));
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

    /// Ensure receive-side state exists (created on Request, first data or
    /// probe — whichever wins the race) and its credit loop and the stall
    /// scan are running. `None` once the flow is received whole; the stall
    /// scan is armed all the same.
    fn ensure_recv_flow(&mut self, pkt: &Packet, ctx: &mut Ctx<'_>) -> Option<&mut RecvFlow> {
        let rate_bps = self.max_rate_bps(ctx) * INIT_RATE_FRAC;
        let mut rf = self.flows.recv_entry(pkt, ctx.now, || Credits {
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
        });
        if let Some(rf) = rf.as_deref_mut().filter(|rf| !rf.proto.ticking) {
            rf.proto.ticking = true;
            ctx.set_timer_in_with(0, Timer::flow(CREDIT_TICK, pkt.flow));
            let period = self.cfg.feedback_period();
            ctx.set_timer_in_with(period, Timer::flow(FEEDBACK, pkt.flow));
        }
        if !self.stall_scan_armed {
            self.stall_scan_armed = true;
            let delay = recovery::stall_after(&self.cfg.base);
            ctx.set_timer_in_with(delay, Timer::host(STALL_SCAN));
        }
        rf
    }

    /// Send one credit-induced chunk (called per credit).
    fn pump_scheduled(&mut self, flow: FlowId, credit_seq: u64, ctx: &mut Ctx<'_>) {
        let mtu = self.mtu();
        if let Some(tx) = self.flows.send.get_mut(flow) {
            if let Some(mut pkt) = tx.next_scheduled(mtu, LossCause::Probe, ctx) {
                pkt.credit_echo = credit_seq;
                ctx.send(pkt);
            }
        }
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

    /// The silence-gated §6 retry. Before first contact, silence for a whole
    /// backoff interval means the request (and possibly the probe) never
    /// made it; after, the credit loop's packets are not getting through —
    /// either way, re-ask. This doubles as the scheduled-phase RTO fallback:
    /// the re-sent request re-kicks the receiver's credit loop and stall
    /// scan.
    fn on_probe_retry(&mut self, flow: FlowId, ctx: &mut Ctx<'_>) {
        let rearm = self.flows.first_contact_retry(
            flow,
            &self.cfg.base,
            ctx,
            |tx| tx,
            // Once every byte is out (or acknowledged), any residual tail
            // loss is the receiver stall scan's business.
            |tx| tx.core.fully_acked() || (tx.heard_back && !tx.core.has_work()),
            |tx, ctx| {
                ctx.send(request_packet(&tx.desc));
                if !tx.heard_back {
                    tx.send_probe(0, ctx);
                }
            },
        );
        if let Some(delay) = rearm {
            ctx.set_timer_in_with(delay, Timer::flow(PROBE_RETRY, flow));
        }
    }

    fn on_rto(&mut self, flow: FlowId, ctx: &mut Ctx<'_>) {
        let Some(rto) = self.cfg.rto else { return };
        let Some(tx) = self.flows.send.get_mut(flow) else { return };
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
        if base.aeolus.probe_retry_rtts > 0 {
            let retry = Timer::flow(PROBE_RETRY, flow.id);
            ctx.set_timer_in_with(recovery::retry_base(&base), retry);
        }
        self.flows.send.insert(flow.id, tx);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        match pkt.kind {
            PacketKind::Request => {
                self.ensure_recv_flow(&pkt, ctx);
            }
            PacketKind::Credit => {
                let mtu = self.cfg.base.mtu_payload as u64;
                if let Some(tx) = self.flows.send.get_mut(pkt.flow) {
                    tx.on_credit(mtu, ctx);
                } else if self.flows.finished_send(pkt.flow).is_some() {
                    // Booked, with nothing left to spend it on.
                    ctx.emit(TransportEvent::CreditReceipt { flow: pkt.flow, bytes: mtu });
                }
                self.pump_scheduled(pkt.flow, pkt.seq, ctx);
            }
            PacketKind::Data => {
                let mode = self.cfg.base.mode;
                let mut completed = false;
                if let Some(rf) = self.ensure_recv_flow(&pkt, ctx) {
                    rf.touch(ctx.now);
                    rf.proto.strikes.reset();
                    completed = rf.book.on_data(&pkt, ctx);
                    if pkt.credit_echo > 0 {
                        // Credit-loss accounting: a gap in the echoed credit
                        // sequence means those credits were throttled away.
                        if pkt.credit_echo > rf.proto.last_echo {
                            rf.proto.lost_period += pkt.credit_echo - rf.proto.last_echo - 1;
                            rf.proto.last_echo = pkt.credit_echo;
                        }
                        rf.proto.delivered_period += 1;
                    }
                }
                // Aeolus ACKs unscheduled packets; the RTO strawman ACKs
                // everything (its only loss signal); plain ExpressPass and
                // the oracle ACK unscheduled too (dedup/GC — harmless 64 B).
                // A finished flow's duplicates are ACKed alike.
                let want_ack =
                    pkt.class == TrafficClass::Unscheduled || mode == FirstRttMode::LowPrio;
                if want_ack {
                    ctx.send(data_ack_packet(&pkt, ctx.host, pkt.src));
                }
                if completed {
                    self.flows.recv_done(pkt.flow);
                }
            }
            PacketKind::Probe => {
                self.ensure_recv_flow(&pkt, ctx);
                answer_probe(&pkt, ctx);
            }
            PacketKind::Resend { end } => {
                // Receiver-detected stall: requeue the range; it rides out
                // on the next credits.
                if let Some(tx) = self.flows.send.get_mut(pkt.flow) {
                    tx.requeue(pkt.seq, end, LossCause::Stall, ctx);
                } else if let Some(done) = self.flows.finished_send(pkt.flow) {
                    done.requeue(pkt.flow, pkt.seq, end, LossCause::Stall, ctx);
                }
            }
            PacketKind::Ack { of_probe, end } => {
                let infer = self.cfg.base.sack_inference();
                if let Some(tx) = self.flows.send.get_mut(pkt.flow) {
                    tx.on_ack(pkt.seq, end, of_probe, infer, ctx);
                    // The receiver sends no completion ACK, so only a
                    // message its ACKs cover — unscheduled bytes, or every
                    // byte under the RTO strawman — is known done here.
                    if tx.core.fully_acked() {
                        let done = Done::new(tx.desc.size, ());
                        self.flows.retire_send(pkt.flow, done);
                    }
                }
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
            (PROBE_RETRY, Some(f)) => self.on_probe_retry(f, ctx),
            (STALL_SCAN, None) => self.on_stall_scan(ctx),
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
