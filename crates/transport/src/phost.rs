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
    Ctx, Endpoint, FlowDesc, FlowId, LossCause, Packet, PacketKind, TimerTable, TrafficClass,
    TransportEvent,
};

use crate::common::{ack_packet, request_packet, BaseConfig, FirstRttMode};
use crate::recovery::{self, launch_first_rtt, send_resends, FlowTable, Retry, SendState};

/// pHost tunables.
#[derive(Debug, Clone, Copy)]
pub struct PHostConfig {
    /// Shared transport parameters.
    pub base: BaseConfig,
    /// Receiver-side retransmission timeout (token re-issue) for Blind mode.
    pub rto: Time,
}

impl PHostConfig {
    /// Defaults for the given base configuration.
    pub fn new(base: BaseConfig, rto: Time) -> PHostConfig {
        PHostConfig { base, rto }
    }
}

#[derive(Debug, Clone, Copy)]
enum TimerKind {
    /// The receiver's token pacer tick.
    TokenTick,
    /// Stalled-flow scan (token re-issue / missing-range recovery).
    StallScan,
    /// §6-style initial-contact retry: if the RTS, the whole burst *and* the
    /// probe died on the way, the receiver never learns the flow exists —
    /// re-send the RTS (and probe) until something comes back.
    RtsRetry(FlowId),
}

/// The receiver's token ledger for one flow.
#[derive(Default)]
struct Tokens {
    /// Tokens issued to this flow so far (each authorizes one packet).
    sent: u64,
    /// Scheduled (token-induced) data packets received back.
    sched_pkts_received: u64,
    /// Tokens written off by the stall scan (their packets are presumed
    /// lost, so they no longer count as outstanding).
    forgiven: u64,
}

type RecvFlow = recovery::RecvFlow<Tokens>;

/// The per-host pHost endpoint.
pub struct PHostEndpoint {
    cfg: PHostConfig,
    flows: FlowTable<SendState, RecvFlow>,
    timers: TimerTable<TimerKind>,
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
            timers: TimerTable::new(),
            pacer_armed: false,
            next_token_at: 0,
            scan_armed: false,
        }
    }

    fn rtt_bytes(&self, ctx: &Ctx<'_>) -> u64 {
        self.cfg.base.aeolus.burst_budget(ctx.line_rate, self.cfg.base.base_rtt)
    }

    fn token_spacing(&self, ctx: &Ctx<'_>) -> Time {
        ctx.line_rate.serialize(self.cfg.base.mtu_wire() as u64)
    }

    /// Tokens whose packets have neither returned nor been written off.
    fn outstanding(rf: &RecvFlow) -> u64 {
        rf.proto.sent.saturating_sub(rf.proto.sched_pkts_received + rf.proto.forgiven)
    }

    /// Tokens a flow still deserves: enough outstanding tokens to cover its
    /// remaining bytes, one packet per token. Counting *packets* (not bytes)
    /// keeps the accounting exact when retransmitted chunks are fragmented.
    fn token_deficit(rf: &RecvFlow, rtt_bytes: u64, mtu: u64) -> u64 {
        if rf.book.core.size().is_none() || rf.book.is_complete() {
            return 0;
        }
        let remaining = rf.book.remaining().unwrap_or(0);
        // Window-bound the outstanding tokens at one BDP: an unbounded
        // window lets a backlogged sender overload the downlink later.
        let window = rtt_bytes.div_ceil(mtu).max(1);
        let needed = remaining.div_ceil(mtu).min(window);
        needed.saturating_sub(Self::outstanding(rf))
    }

    fn arm_pacer(&mut self, ctx: &mut Ctx<'_>) {
        if self.pacer_armed {
            return;
        }
        self.pacer_armed = true;
        let delay = self.next_token_at.saturating_sub(ctx.now);
        ctx.set_timer_in_with(delay, self.timers.arm(TimerKind::TokenTick));
    }

    /// One pacer tick: give a token to the SRPT-best flow with a deficit.
    fn on_token_tick(&mut self, ctx: &mut Ctx<'_>) {
        self.pacer_armed = false;
        let rtt_bytes = self.rtt_bytes(ctx);
        let mtu = self.cfg.base.mtu_payload as u64;
        // SRPT: smallest remaining first. The seed's BTreeMap scan broke
        // remaining-bytes ties by smallest flow id implicitly (min_by_key
        // keeps the first minimum in key order); slot order is different,
        // so the id is now an explicit tie-break key.
        let best = self
            .flows
            .recv
            .iter()
            .filter(|(_, rf)| Self::token_deficit(rf, rtt_bytes, mtu) > 0)
            .min_by_key(|(id, rf)| (rf.book.remaining().unwrap_or(u64::MAX), *id))
            .map(|(id, rf)| (id, rf.sender));
        if let Some((id, sender)) = best {
            let rf = self.flows.recv.get_mut(id).expect("chosen flow");
            rf.proto.sent += 1;
            let tok = Packet::control(id, ctx.host, sender, rf.proto.sent, PacketKind::Pull);
            // Each token authorizes one MTU of transmission: pHost's credit.
            ctx.emit(TransportEvent::CreditIssue { flow: id, bytes: mtu });
            ctx.send(tok);
            let spacing = self.token_spacing(ctx);
            self.next_token_at = ctx.now + spacing;
            // More work pending? Keep ticking.
            let more = self
                .flows
                .recv
                .values()
                .any(|rf| Self::token_deficit(rf, rtt_bytes, mtu) > 0);
            if more {
                self.pacer_armed = true;
                ctx.set_timer_in_with(spacing, self.timers.arm(TimerKind::TokenTick));
            }
        }
    }

    /// Start the token pacer and the stall scan unless already running.
    fn arm_receiver(&mut self, ctx: &mut Ctx<'_>) {
        self.arm_pacer(ctx);
        if !self.scan_armed {
            self.scan_armed = true;
            let delay = self.stale_after() / 2;
            ctx.set_timer_in_with(delay, self.timers.arm(TimerKind::StallScan));
        }
    }

    fn stale_after(&self) -> Time {
        match self.cfg.base.mode {
            FirstRttMode::Blind => self.cfg.rto,
            _ => (20 * self.cfg.base.base_rtt).max(aeolus_sim::units::ms(1)),
        }
    }

    /// Receiver-side recovery: for stalled incomplete flows, budget extra
    /// tokens covering the missing bytes and tell the sender which ranges to
    /// retransmit.
    fn on_stall_scan(&mut self, ctx: &mut Ctx<'_>) {
        self.scan_armed = false;
        let (stale, now) = (self.stale_after(), ctx.now);
        let probe_mode = self.cfg.base.mode.probe_recovery();
        self.flows.reap_silent_senders(ctx);
        let (any_incomplete, resends) = self.flows.stall_scan(ctx, |rf, size| {
            // Loss-stall requires outstanding tokens whose packets never
            // returned; zero outstanding = waiting on the SRPT pacer.
            let outstanding = Self::outstanding(rf);
            if (probe_mode && outstanding == 0) || now.saturating_sub(rf.last_arrival) < stale {
                return Vec::new();
            }
            // Token re-issue (the pHost recovery): write the stalled tokens
            // off so fresh ones flow for the retransmissions.
            rf.proto.forgiven += outstanding;
            rf.book.core.missing_below(size).into_iter().take(8).collect()
        });
        send_resends(resends, ctx);
        self.arm_pacer(ctx);
        if any_incomplete {
            self.scan_armed = true;
            ctx.set_timer_in_with(stale / 2, self.timers.arm(TimerKind::StallScan));
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
        let Some(tx) = self.flows.send.get_mut(flow) else { return };
        match tx.retry(tx.heard_back, &self.cfg.base, ctx.now) {
            Retry::Quiet => {}
            Retry::GiveUp => self.flows.give_up(flow, ctx),
            Retry::Fire { resend, rearm_in } => {
                if resend {
                    // Total silence: re-introduce the flow to the receiver.
                    ctx.metrics.note_timeout(flow);
                    ctx.send(request_packet(&tx.desc));
                    tx.send_probe(0, ctx);
                }
                ctx.set_timer_in_with(rearm_in, self.timers.arm(TimerKind::RtsRetry(flow)));
            }
        }
    }

    fn ensure_recv_flow(&mut self, pkt: &Packet, now: Time) -> &mut RecvFlow {
        let rf = self.flows.recv_entry(pkt, now, Tokens::default);
        rf.touch(now);
        rf
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
            let token = self.timers.arm(TimerKind::RtsRetry(flow.id));
            ctx.set_timer_in_with(recovery::retry_base(&base), token);
        }
        self.flows.send.insert(flow.id, tx);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if self.flows.is_dead(pkt.flow) {
            // Stale wire traffic for an aborted flow must not resurrect it.
            return;
        }
        match pkt.kind {
            PacketKind::Request => {
                self.ensure_recv_flow(&pkt, ctx.now);
                self.arm_receiver(ctx);
            }
            PacketKind::Data => {
                let mode = self.cfg.base.mode;
                let rf = self.ensure_recv_flow(&pkt, ctx.now);
                let unscheduled = pkt.class == TrafficClass::Unscheduled;
                if !unscheduled {
                    rf.proto.sched_pkts_received += 1;
                }
                let v = rf.book.on_data(&pkt, ctx);
                if mode.probe_recovery() && unscheduled {
                    if let Some((s, e)) = v.acked_range {
                        ctx.send(ack_packet(pkt.flow, ctx.host, rf.sender, s, e));
                    }
                }
                if v.completed {
                    ctx.send(ack_packet(pkt.flow, ctx.host, rf.sender, 0, pkt.flow_size));
                }
                self.arm_receiver(ctx);
            }
            PacketKind::Probe => {
                self.ensure_recv_flow(&pkt, ctx.now).on_probe(&pkt, ctx);
                self.arm_receiver(ctx);
            }
            PacketKind::Pull => {
                // A token.
                if let Some(tx) = self.flows.send.get_mut(pkt.flow) {
                    tx.heard(ctx.now);
                    ctx.emit(TransportEvent::CreditReceipt {
                        flow: pkt.flow,
                        bytes: self.cfg.base.mtu_payload as u64,
                    });
                }
                self.pump_one(pkt.flow, ctx);
            }
            PacketKind::Resend { end } => {
                // pHost recovery is token re-issue in every mode: requeue
                // the range; the extended token budget clocks it out.
                if let Some(tx) = self.flows.send.get_mut(pkt.flow) {
                    tx.heard(ctx.now);
                    tx.requeue(pkt.seq, end, LossCause::Stall, ctx);
                }
            }
            PacketKind::Ack { of_probe, end } => {
                let infer = self.cfg.base.sack_inference();
                if let Some(tx) = self.flows.send.get_mut(pkt.flow) {
                    tx.on_ack(pkt.seq, end, of_probe, infer, ctx);
                }
            }
            other => {
                debug_assert!(false, "unexpected packet kind for pHost: {other:?}");
            }
        }
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>) {
        match self.timers.fire(token) {
            Some(TimerKind::TokenTick) => self.on_token_tick(ctx),
            Some(TimerKind::StallScan) => self.on_stall_scan(ctx),
            Some(TimerKind::RtsRetry(f)) => self.on_rts_retry(f, ctx),
            None => {}
        }
    }

    fn on_crash(&mut self, _ctx: &mut Ctx<'_>) {
        // The timer generation bump makes all queued tokens stale.
        self.flows.crash();
        self.timers.clear();
        self.pacer_armed = false;
        self.next_token_at = 0;
        self.scan_armed = false;
    }

    fn on_flow_abort(&mut self, flow: FlowDesc, _ctx: &mut Ctx<'_>) {
        self.flows.abort(flow.id);
    }

    fn on_flow_restart(&mut self, flow: FlowDesc, _ctx: &mut Ctx<'_>) {
        self.flows.restart(flow.id);
    }
}
