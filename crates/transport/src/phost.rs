//! pHost (CoNEXT'15) — receiver-driven, token-based transport — with
//! pluggable first-RTT handling. The Aeolus paper groups pHost with Homa as
//! a "blind burst, prioritize unscheduled" design (§2.4); it is included
//! here as an extension beyond the paper's three evaluated baselines.
//!
//! Protocol model:
//!
//! * A new sender transmits an RTS plus one RTT-worth of *free-token*
//!   (unscheduled) packets at line rate.
//! * The receiver paces tokens (one per MTU serialization time) to its
//!   active flows in SRPT order; each token authorizes one data packet.
//! * Loss recovery is timeout-based: the receiver re-issues tokens for
//!   missing bytes when a flow stalls (original pHost), or — with Aeolus —
//!   the probe/per-packet-ACK machinery detects first-RTT losses exactly
//!   and retransmissions ride guaranteed token-induced packets.
//!
//! In [`FirstRttMode::Blind`] form, unscheduled packets ride a *higher*
//! priority than scheduled ones (pHost's choice, the §2.4 critique target);
//! with Aeolus they are droppable at the selective threshold instead.
//!
//! [`FirstRttMode::Blind`]: crate::common::FirstRttMode::Blind

use aeolus_sim::units::Time;
use aeolus_sim::{
    Ctx, Endpoint, FlowDesc, FlowEnd, FlowId, LossCause, Packet, PacketKind, Timer, TrafficClass,
    TransportEvent,
};

use crate::common::{request_packet, BaseConfig};
use crate::recovery::{
    self, answer_data, answer_probe, launch_first_rtt, requeue_finished, send_resends,
    CreditLedger, FlowTable, SendState,
};

/// pHost tunables.
#[derive(Debug, Clone, Copy)]
pub struct PHostConfig {
    /// Shared transport parameters.
    pub base: BaseConfig,
    /// Receiver-side retransmission timeout (token re-issue) of the Blind
    /// variant; `None` where probes recover.
    pub rto: Option<Time>,
}

// Timer kinds ([`Timer::kind`]).
/// The receiver's token pacer tick (a host timer).
const TOKEN_TICK: u8 = 0;
/// Stalled-flow scan (a host timer): token re-issue / missing-range
/// recovery.
const STALL_SCAN: u8 = 1;
/// §6-style initial-contact retry: if the RTS, the whole burst *and* the
/// probe died on the way, the receiver never learns the flow exists —
/// re-send the RTS (and probe) until something comes back.
const RTS_RETRY: u8 = 2;

/// The token ledger counts packets: each token authorizes one, and each
/// scheduled (token-induced) data packet received returns it.
type RecvFlow = recovery::RecvFlow<CreditLedger>;

/// The per-host pHost endpoint.
pub struct PHostEndpoint {
    cfg: PHostConfig,
    flows: FlowTable<SendState, RecvFlow>,
    pacer_armed: bool,
    next_token_at: Time,
    scan_armed: bool,
}

impl PHostEndpoint {
    /// A fresh endpoint.
    pub fn new(cfg: PHostConfig) -> PHostEndpoint {
        PHostEndpoint {
            cfg,
            flows: FlowTable::default(),
            pacer_armed: false,
            next_token_at: 0,
            scan_armed: false,
        }
    }

    fn token_spacing(&self, ctx: &Ctx<'_>) -> Time {
        ctx.line_rate.serialize(self.cfg.base.mtu_wire() as u64)
    }

    fn arm_pacer(&mut self, ctx: &mut Ctx<'_>) {
        if self.pacer_armed {
            return;
        }
        self.pacer_armed = true;
        let delay = self.next_token_at.saturating_sub(ctx.now);
        ctx.set_timer_in_with(delay, Timer::host(TOKEN_TICK));
    }

    /// One pacer tick: give a token to the SRPT-best flow with a deficit.
    fn on_token_tick(&mut self, ctx: &mut Ctx<'_>) {
        self.pacer_armed = false;
        let mtu = self.cfg.base.mtu_payload as u64;
        // One packet per token, the outstanding tokens window-bound at one
        // BDP: an unbounded window lets a backlogged sender overload the
        // downlink later.
        let window = self.cfg.base.rtt_bytes(ctx.line_rate).div_ceil(mtu).max(1);
        // SRPT: smallest remaining first, ties broken by smallest flow id,
        // so the choice does not depend on the active set's order. The same
        // pass counts the flows with a deficit, for `more` below.
        let mut wanting = 0usize;
        let best = self
            .flows
            .recv_active()
            .filter(|(_, rf)| rf.deficit(mtu, 1, window) > 0)
            .inspect(|_| wanting += 1)
            .min_by_key(|(id, rf)| (rf.book.remaining().unwrap_or(u64::MAX), *id))
            .map(|(id, rf)| (id, rf.sender));
        if let Some((id, sender)) = best {
            let spacing = self.token_spacing(ctx);
            let rf = self.flows.recv_mut(id).expect("chosen flow");
            rf.proto.issue(1);
            let tok = Packet::control(id, ctx.host, sender, rf.proto.issued(), PacketKind::Pull);
            // Each token authorizes one MTU of transmission: pHost's credit.
            ctx.emit(TransportEvent::CreditIssue { flow: id, bytes: mtu });
            ctx.send(tok);
            self.next_token_at = ctx.now + spacing;
            // More work pending — another flow's, or still this one's? Keep
            // ticking.
            let more = wanting > 1 || rf.deficit(mtu, 1, window) > 0;
            if more {
                self.pacer_armed = true;
                ctx.set_timer_in_with(spacing, Timer::host(TOKEN_TICK));
            }
        }
    }

    /// Start the token pacer and the stall scan unless already running.
    fn arm_receiver(&mut self, ctx: &mut Ctx<'_>) {
        self.arm_pacer(ctx);
        if !self.scan_armed {
            self.scan_armed = true;
            let delay = recovery::stale_after(&self.cfg.base, self.cfg.rto) / 2;
            ctx.set_timer_in_with(delay, Timer::host(STALL_SCAN));
        }
    }

    /// Receiver-side recovery: for stalled incomplete flows, budget extra
    /// tokens covering the missing bytes and tell the sender which ranges to
    /// retransmit.
    fn on_stall_scan(&mut self, ctx: &mut Ctx<'_>) {
        self.scan_armed = false;
        let stale = recovery::stale_after(&self.cfg.base, self.cfg.rto);
        let (timeout_driven, now) = (!self.cfg.base.mode.probe_recovery(), ctx.now);
        self.flows.reap_silent_senders(ctx);
        let (any_incomplete, resends) = self.flows.stall_scan(ctx, |rf, size| {
            // Token re-issue (the pHost recovery): the write-off lets fresh
            // tokens flow for the retransmissions.
            if !rf.proto.presume_lost(rf.idle(now), stale, timeout_driven) {
                return Vec::new();
            }
            rf.missing(size, 8)
        });
        send_resends(resends, ctx);
        self.arm_pacer(ctx);
        if any_incomplete {
            self.scan_armed = true;
            ctx.set_timer_in_with(stale / 2, Timer::host(STALL_SCAN));
        }
    }

    /// Send one token-induced packet.
    fn pump_one(&mut self, flow: FlowId, ctx: &mut Ctx<'_>) {
        let mtu = self.cfg.base.mtu_payload;
        if let Some(tx) = self.flows.send.get_mut(flow) {
            tx.core.end_burst();
            if let Some(mut pkt) = tx.next_scheduled(mtu, LossCause::Stall, ctx) {
                // pHost puts scheduled below unscheduled: priority 1 of 2.
                pkt.priority = 1;
                ctx.send(pkt);
            }
        }
    }

    fn on_rts_retry(&mut self, flow: FlowId, ctx: &mut Ctx<'_>) {
        // Total silence: re-introduce the flow to the receiver.
        let rearm = self.flows.first_contact_retry(
            flow,
            &self.cfg.base,
            ctx,
            |tx| tx,
            |tx| tx.heard_back,
            |tx, ctx| {
                ctx.send(request_packet(&tx.desc));
                tx.send_probe(0, ctx);
            },
        );
        if let Some(delay) = rearm {
            ctx.set_timer_in_with(delay, Timer::flow(RTS_RETRY, flow));
        }
    }
}

#[cfg(test)]
impl PHostEndpoint {
    pub(crate) fn holding(&self, flow: FlowId) -> crate::recovery::Holding {
        self.flows.holding(flow)
    }
}

impl Endpoint for PHostEndpoint {
    fn on_flow_arrival(&mut self, flow: FlowDesc, ctx: &mut Ctx<'_>) {
        let base = self.cfg.base;
        // RTS first (carries the size), then the free-token burst with
        // unscheduled packets (and the probe) at pHost's top priority.
        ctx.send(request_packet(&flow));
        let mut tx =
            launch_first_rtt(flow, &base, 0, ctx, |pkt| base.mode.stamp_unscheduled(pkt, 0, 1));
        // Recovery is token re-issue (scan- or probe-driven); last-resort
        // duplication would only waste tokens.
        tx.core.disable_last_resort();
        if base.aeolus.probe_retry_rtts > 0 {
            let retry = Timer::flow(RTS_RETRY, flow.id);
            ctx.set_timer_in_with(recovery::retry_base(&base), retry);
        }
        self.flows.send.insert(flow.id, tx);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        match pkt.kind {
            PacketKind::Request => {
                self.flows.recv_arrival(&pkt, ctx, CreditLedger::default);
                self.arm_receiver(ctx);
            }
            PacketKind::Data => {
                let probe_mode = self.cfg.base.mode.probe_recovery();
                match self.flows.recv_arrival(&pkt, ctx, CreditLedger::default) {
                    Some(rf) => {
                        if pkt.class != TrafficClass::Unscheduled {
                            rf.proto.returned(1);
                        }
                        if rf.on_data(&pkt, probe_mode, ctx) {
                            self.flows.recv_done(pkt.flow, ctx);
                        }
                    }
                    None => answer_data(&pkt, probe_mode, ctx),
                }
                self.arm_receiver(ctx);
            }
            PacketKind::Probe => {
                self.flows.recv_arrival(&pkt, ctx, CreditLedger::default);
                answer_probe(&pkt, ctx);
                self.arm_receiver(ctx);
            }
            PacketKind::Pull => {
                // A token.
                let mtu = self.cfg.base.mtu_payload as u64;
                if let Some(tx) = self.flows.send.get_mut(pkt.flow) {
                    tx.on_credit(mtu, ctx);
                } else if ctx.finished(pkt.flow, FlowEnd::Sender).is_some() {
                    // Booked, with nothing left to spend it on.
                    ctx.emit(TransportEvent::CreditReceipt { flow: pkt.flow, bytes: mtu });
                }
                self.pump_one(pkt.flow, ctx);
            }
            PacketKind::Resend { end } => {
                // pHost recovery is token re-issue in every mode: requeue
                // the range; the extended token budget clocks it out.
                if let Some(tx) = self.flows.send.get_mut(pkt.flow) {
                    tx.requeue(pkt.seq, end, LossCause::Stall, ctx);
                } else if let Some(size) = ctx.finished(pkt.flow, FlowEnd::Sender) {
                    requeue_finished(pkt.flow, size, pkt.seq, end, LossCause::Stall, ctx);
                }
            }
            PacketKind::Ack { of_probe, end } => {
                let infer = self.cfg.base.sack_inference();
                if let Some(tx) = self.flows.send.get_mut(pkt.flow) {
                    tx.on_ack(pkt.seq, end, of_probe, infer, ctx);
                    if tx.core.fully_acked() {
                        self.flows.send.remove(pkt.flow);
                        ctx.finish(pkt.flow, FlowEnd::Sender);
                    }
                }
            }
            other => {
                debug_assert!(false, "unexpected packet kind for pHost: {other:?}");
            }
        }
    }

    fn on_timer(&mut self, timer: Timer, ctx: &mut Ctx<'_>) {
        match (timer.kind, timer.flow) {
            (TOKEN_TICK, None) => self.on_token_tick(ctx),
            (STALL_SCAN, None) => self.on_stall_scan(ctx),
            (RTS_RETRY, Some(f)) => self.on_rts_retry(f, ctx),
            _ => unreachable!("not a pHost timer: {timer:?}"),
        }
    }

    fn on_crash(&mut self, _ctx: &mut Ctx<'_>) {
        *self = Self::new(self.cfg);
    }

    fn on_flow_abort(&mut self, flow: FlowDesc, _ctx: &mut Ctx<'_>) {
        self.flows.abort(flow.id);
    }
}
