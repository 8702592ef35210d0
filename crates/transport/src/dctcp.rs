//! DCTCP (SIGCOMM'10) — the canonical *reactive* datacenter transport,
//! included as the baseline the paper's introduction argues against:
//! a "try and backoff" scheme needs multiple RTTs to converge to the right
//! rate, which is exactly what proactive transports (and Aeolus' first-RTT
//! handling) avoid.
//!
//! Model: window-based sender with slow start and ECN-proportional backoff.
//! Switches run the same single-threshold RED/ECN queues as Aeolus — but
//! here every data packet is ECT, so the threshold *marks* instead of
//! dropping, and the sender reduces its window by the marked fraction
//! (`cwnd ← cwnd·(1 − α/2)` once per window, with `α` an EWMA of the marked
//! fraction). Losses (buffer overflow) recover via triple-duplicate-ACK fast
//! retransmit plus a retransmission timeout.
//!
//! The RTO is re-armed on every ACK that makes progress, so a flow keeps
//! one queued timer event however often it re-arms: each re-arm only
//! reserves the new deadline's place in the event order, and the queued
//! event, when it fires before that place, fills it (see `on_timer`).

use aeolus_core::PreCreditReceiver;
use aeolus_sim::units::Time;
use aeolus_sim::{
    Ctx, Ecn, Endpoint, FlowDesc, FlowEnd, FlowId, LossCause, Packet, PacketKind, Place, Timer,
    TrafficClass, TransportEvent,
};

use crate::common::{data_packet, BaseConfig};
use crate::recovery::{peer_silent, FlowTable};

/// DCTCP tunables.
#[derive(Debug, Clone, Copy)]
pub struct DctcpConfig {
    /// Shared transport parameters (first-RTT mode is ignored: DCTCP always
    /// slow-starts).
    pub base: BaseConfig,
    /// Initial window in packets (RFC 6928 style; DCTCP papers use 10).
    pub init_cwnd_pkts: u32,
    /// EWMA gain for the marked fraction (DCTCP's g, default 1/16).
    pub g: f64,
    /// Retransmission timeout.
    pub rto: Time,
}

impl DctcpConfig {
    /// Paper-standard defaults.
    pub fn new(base: BaseConfig, rto: Time) -> DctcpConfig {
        DctcpConfig { base, init_cwnd_pkts: 10, g: 1.0 / 16.0, rto }
    }
}

struct SendFlow {
    desc: FlowDesc,
    /// Congestion window in bytes.
    cwnd: f64,
    /// Slow-start threshold in bytes.
    ssthresh: f64,
    /// EWMA of the marked fraction.
    alpha: f64,
    /// Bytes ACKed cumulatively.
    acked: u64,
    /// Next byte to send for the first time.
    next_seq: u64,
    /// Marked / total ACKs in the current observation window.
    acks_marked: u64,
    acks_total: u64,
    /// Window boundary: when `acked` passes this, α updates and a marked
    /// window may cut cwnd.
    window_end: u64,
    /// Whether a cut was already applied in this window.
    cut_this_window: bool,
    /// Duplicate-ACK counter for fast retransmit.
    dup_acks: u32,
    /// Outstanding retransmission request (fast retransmit pending send).
    rtx_seq: Option<u64>,
    /// The live RTO deadline: the place reserved at the last re-arm.
    rto_due: Place,
    /// The place of the one RTO event queued for this flow: `rto_due` itself,
    /// or an earlier deadline that moves on to `rto_due` when it fires.
    /// [`Place::START`] (already passed) until the first arm.
    rto_queued: Place,
    /// Most recent loss signal, for retransmission attribution.
    last_loss: Option<LossCause>,
    /// Last time any ACK arrived (peer-death watchdog).
    last_heard: Time,
}

struct RecvFlow {
    /// The receive ledger; its in-order prefix is the cumulative ACK point.
    book: PreCreditReceiver,
    /// Whether any CE-marked packet arrived since the last ACK (echoed).
    ce_pending: bool,
}

/// The one timer kind ([`Timer::kind`]): a flow's retransmission timeout.
const RTO: u8 = 0;

/// The per-host DCTCP endpoint.
pub struct DctcpEndpoint {
    cfg: DctcpConfig,
    flows: FlowTable<SendFlow, RecvFlow>,
}

impl DctcpEndpoint {
    /// A fresh endpoint.
    pub fn new(cfg: DctcpConfig) -> DctcpEndpoint {
        DctcpEndpoint { cfg, flows: FlowTable::default() }
    }

    fn mtu(&self) -> u32 {
        self.cfg.base.mtu_payload
    }

    /// Transmit as much as the window allows.
    fn pump(&mut self, flow: FlowId, ctx: &mut Ctx<'_>) {
        let mtu = self.mtu();
        if let Some(sf) = self.flows.send.get_mut(flow) {
            // Fast retransmit first.
            if let Some(seq) = sf.rtx_seq.take() {
                let len = (mtu as u64).min(sf.desc.size - seq) as u32;
                let mut pkt =
                    data_packet(&sf.desc, seq, len, TrafficClass::Scheduled, true);
                pkt.ecn = Ecn::Ect0;
                ctx.emit(TransportEvent::Retransmit {
                    flow,
                    bytes: len as u64,
                    cause: sf.last_loss.unwrap_or(LossCause::SackGap),
                });
                ctx.send(pkt);
            }
            while sf.next_seq < sf.desc.size {
                let inflight = sf.next_seq.saturating_sub(sf.acked);
                if inflight + mtu as u64 > sf.cwnd as u64 + mtu as u64 - 1 {
                    break;
                }
                let len = (mtu as u64).min(sf.desc.size - sf.next_seq) as u32;
                let mut pkt =
                    data_packet(&sf.desc, sf.next_seq, len, TrafficClass::Scheduled, false);
                pkt.ecn = Ecn::Ect0;
                ctx.send(pkt);
                sf.next_seq += len as u64;
            }
        }
    }

    /// Move the RTO deadline to `rto` from now. The new deadline takes its
    /// place in the event order here but is queued only when no earlier
    /// one is: a flow's queued RTO event is passed only while it is being
    /// handled (or before the first arm).
    fn arm_rto(&mut self, flow: FlowId, ctx: &mut Ctx<'_>) {
        let rto = self.cfg.rto;
        if let Some(sf) = self.flows.send.get_mut(flow) {
            sf.rto_due = ctx.reserve_timer_in(rto);
            if ctx.passed(sf.rto_queued) {
                ctx.fill_timer(sf.rto_due, Timer::flow(RTO, flow));
                sf.rto_queued = sf.rto_due;
            }
        }
    }

    fn on_rto(&mut self, flow: FlowId, ctx: &mut Ctx<'_>) {
        let mtu = self.mtu();
        let Some(sf) = self.flows.send.get_mut(flow) else { return };
        if peer_silent(sf.last_heard, ctx.now) {
            // No ACK past the death threshold despite go-back-N
            // retransmissions: the receiver is dead — abort rather than
            // retransmit forever.
            self.flows.give_up(flow, ctx);
            return;
        }
        ctx.metrics.note_timeout(flow);
        ctx.emit(TransportEvent::LossDetected {
            flow,
            bytes: sf.next_seq.saturating_sub(sf.acked),
            cause: LossCause::Timeout,
        });
        sf.last_loss = Some(LossCause::Timeout);
        // Go-back-N from the cumulative ACK point.
        sf.next_seq = sf.acked;
        sf.cwnd = mtu as f64;
        sf.ssthresh = (sf.ssthresh / 2.0).max(2.0 * mtu as f64);
        sf.dup_acks = 0;
        self.pump(flow, ctx);
        self.arm_rto(flow, ctx);
    }

    /// Cumulative-ACK processing with ECN echo (the DCTCP control law).
    /// A finished sender ignores ACKs: every byte is acknowledged, so
    /// there is nothing left to retransmit.
    fn on_ack(&mut self, flow: FlowId, ack_to: u64, ce_echo: bool, ctx: &mut Ctx<'_>) {
        let mtu = self.mtu() as f64;
        let g = self.cfg.g;
        let (progress, done) = {
            let Some(sf) = self.flows.send.get_mut(flow) else { return };
            sf.acks_total += 1;
            sf.last_heard = ctx.now;
            if ce_echo {
                sf.acks_marked += 1;
            }
            if ack_to > sf.acked {
                let newly = ack_to - sf.acked;
                sf.acked = ack_to;
                sf.dup_acks = 0;
                // Window growth: slow start or congestion avoidance.
                if sf.cwnd < sf.ssthresh {
                    sf.cwnd += newly as f64;
                } else {
                    sf.cwnd += mtu * newly as f64 / sf.cwnd;
                }
                // End of observation window: update alpha, maybe cut.
                if sf.acked >= sf.window_end {
                    let frac = if sf.acks_total > 0 {
                        sf.acks_marked as f64 / sf.acks_total as f64
                    } else {
                        0.0
                    };
                    sf.alpha = (1.0 - g) * sf.alpha + g * frac;
                    if frac > 0.0 && !sf.cut_this_window {
                        sf.cwnd *= 1.0 - sf.alpha / 2.0;
                        sf.ssthresh = sf.cwnd;
                    }
                    sf.cwnd = sf.cwnd.max(mtu);
                    sf.acks_marked = 0;
                    sf.acks_total = 0;
                    sf.cut_this_window = false;
                    sf.window_end = sf.acked + (sf.cwnd as u64).max(1);
                }
                (true, sf.acked >= sf.desc.size)
            } else {
                // Duplicate ACK.
                sf.dup_acks += 1;
                if sf.dup_acks == 3 {
                    sf.rtx_seq = Some(sf.acked);
                    sf.ssthresh = (sf.cwnd / 2.0).max(2.0 * mtu);
                    sf.cwnd = sf.ssthresh;
                    sf.last_loss = Some(LossCause::SackGap);
                    ctx.emit(TransportEvent::LossDetected {
                        flow,
                        bytes: (mtu as u64).min(sf.desc.size - sf.acked),
                        cause: LossCause::SackGap,
                    });
                }
                (sf.dup_acks == 3, false)
            }
        };
        if done {
            // Nothing is kept: a later ACK, like the queued RTO, finds no flow.
            self.flows.send.remove(flow);
            return;
        }
        if progress {
            self.pump(flow, ctx);
            self.arm_rto(flow, ctx);
        }
    }
}

#[cfg(test)]
impl DctcpEndpoint {
    pub(crate) fn holding(&self, flow: FlowId) -> crate::recovery::Holding {
        self.flows.holding(flow)
    }
}

impl Endpoint for DctcpEndpoint {
    fn on_flow_arrival(&mut self, flow: FlowDesc, ctx: &mut Ctx<'_>) {
        let mtu = self.mtu();
        let cwnd = (self.cfg.init_cwnd_pkts * mtu) as f64;
        self.flows.send.insert(
            flow.id,
            SendFlow {
                desc: flow,
                cwnd,
                ssthresh: f64::MAX,
                // Like the Linux implementation: start conservative so the
                // first marked window halves instead of shaving 3%.
                alpha: 1.0,
                acked: 0,
                next_seq: 0,
                acks_marked: 0,
                acks_total: 0,
                window_end: cwnd as u64,
                cut_this_window: false,
                dup_acks: 0,
                rtx_seq: None,
                rto_due: Place::START,
                rto_queued: Place::START,
                last_loss: None,
                last_heard: ctx.now,
            },
        );
        self.pump(flow.id, ctx);
        self.arm_rto(flow.id, ctx);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        match pkt.kind {
            PacketKind::Data => {
                let fresh = || RecvFlow { book: PreCreditReceiver::default(), ce_pending: false };
                // Cumulative ACK; the CE echo rides the `of_probe` slot's
                // sibling field (`seq` = 1 marks echo) — we use a dedicated
                // convention: seq 1 = CE echoed, 0 = not.
                let (ack_to, echo) = match self.flows.recv_or_insert_with(pkt.flow, ctx, fresh) {
                    Some(rf) => {
                        let completed = rf.book.on_data(&pkt, ctx);
                        if pkt.ecn == Ecn::Ce {
                            rf.ce_pending = true;
                        }
                        let ack_to = rf.book.contiguous_prefix();
                        let echo = rf.ce_pending;
                        rf.ce_pending = false;
                        if completed {
                            self.flows.recv_done(pkt.flow, ctx);
                        }
                        (ack_to, echo)
                    }
                    // Received whole: the ACK covers the message and echoes
                    // this packet's mark alone.
                    None => {
                        let size = ctx.finished(pkt.flow, FlowEnd::Receiver);
                        (size.expect("only a finished flow is refused"), pkt.ecn == Ecn::Ce)
                    }
                };
                let mut ack = Packet::control(
                    pkt.flow,
                    ctx.host,
                    pkt.src,
                    u64::from(echo),
                    PacketKind::Ack { of_probe: false, end: ack_to },
                );
                ack.ecn = Ecn::Ect0;
                ctx.send(ack);
            }
            PacketKind::Ack { end, .. } => {
                let ce_echo = pkt.seq == 1;
                self.on_ack(pkt.flow, end, ce_echo, ctx);
            }
            other => {
                debug_assert!(false, "unexpected packet kind for DCTCP: {other:?}");
            }
        }
    }

    /// The one timer is the RTO, and a flow has one RTO event queued at a
    /// time: the engine drops those of earlier incarnations, and a finished
    /// flow's finds no state.
    fn on_timer(&mut self, timer: Timer, ctx: &mut Ctx<'_>) {
        let flow = timer.flow.expect("the RTO is a flow timer");
        let Some(sf) = self.flows.send.get_mut(flow) else { return };
        debug_assert!(ctx.fired(sf.rto_queued), "an RTO event the flow did not queue");
        if sf.rto_due != sf.rto_queued {
            // Re-armed since this event was queued: wait for the latest.
            ctx.fill_timer(sf.rto_due, timer);
            sf.rto_queued = sf.rto_due;
            return;
        }
        self.on_rto(flow, ctx);
    }

    fn on_crash(&mut self, _ctx: &mut Ctx<'_>) {
        *self = Self::new(self.cfg);
    }

    fn on_flow_abort(&mut self, flow: FlowDesc, _ctx: &mut Ctx<'_>) {
        self.flows.abort(flow.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeolus_core::AeolusConfig;
    use aeolus_sim::units::{ms, us};
    use crate::common::FirstRttMode;

    #[test]
    fn config_defaults() {
        let base = BaseConfig {
            mtu_payload: 1460,
            base_rtt: us(14),
            aeolus: AeolusConfig::default(),
            mode: FirstRttMode::Blind,
            disable_sack: false,
        };
        let c = DctcpConfig::new(base, ms(10));
        assert_eq!(c.init_cwnd_pkts, 10);
        assert!((c.g - 1.0 / 16.0).abs() < 1e-12);
    }
}
