//! NDP (SIGCOMM'17) — pull-based transport with cutting payload — and its
//! Aeolus variant that needs no switch modifications:
//!
//! * [`crate::common::FirstRttMode::Blind`]: original NDP — the sender blasts an initial
//!   window, switches *trim* overflowing data packets to headers
//!   ([`aeolus_sim::TrimmingQueue`]), receivers NACK trimmed packets and
//!   pace PULLs at line rate; packets are sprayed across all paths.
//! * [`crate::common::FirstRttMode::Aeolus`]: the same initial window is sent as droppable
//!   unscheduled packets through commodity RED/ECN switches; probe + per-
//!   packet ACKs replace trimming as the loss signal, and the (protected)
//!   pull stream clocks out retransmissions.
//!
//! Every full data packet is ACKed (NDP semantics); the receiver issues one
//! pull per arrival while demand remains, with a timer-paced pull queue per
//! host, plus a slow backstop for pathological control-plane loss.

use std::collections::VecDeque;

use aeolus_sim::units::Time;
use aeolus_sim::{
    Ctx, Endpoint, FlowDesc, FlowEnd, FlowId, LossCause, Packet, PacketKind, Timer, TransportEvent,
};

use crate::common::{data_ack_packet, BaseConfig};
use crate::recovery::{
    self, answer_probe, launch_first_rtt, requeue_finished, CreditLedger, FlowTable, SendState,
};

// Timer kinds ([`Timer::kind`]).
/// The per-host pull pacer tick (a host timer).
const PULL_TICK: u8 = 0;
/// Stall backstop scan (a host timer).
const BACKSTOP: u8 = 1;
/// §6 probe-retry (Aeolus mode): total silence means even the probe was
/// lost — resend it.
const PROBE_RETRY: u8 = 2;

struct SendFlow {
    tx: SendState,
    /// Packet counter used as the spray path tag.
    tag: u64,
}

/// The pull ledger counts packets: each pull funds one, the initial-window
/// packets the sender transmits unprompted are pre-paid, and any arrival
/// (full data, trimmed header — anything a transmission produced) returns
/// its credit.
type RecvFlow = recovery::RecvFlow<CreditLedger>;

/// The per-host NDP endpoint (`mode` selects Blind vs Aeolus).
pub struct NdpEndpoint {
    cfg: BaseConfig,
    flows: FlowTable<SendFlow, RecvFlow>,
    /// Round-robin pull queue across flows (one entry = one pull to send).
    pull_queue: VecDeque<FlowId>,
    pull_pacer_armed: bool,
    /// Earliest time the next pull may leave — the pacer's memory across
    /// idle gaps, so bursts of arrivals cannot compress the pull spacing.
    next_pull_at: Time,
    backstop_armed: bool,
}

impl NdpEndpoint {
    /// A fresh endpoint.
    pub fn new(cfg: BaseConfig) -> NdpEndpoint {
        NdpEndpoint {
            cfg,
            flows: FlowTable::default(),
            pull_queue: VecDeque::new(),
            pull_pacer_armed: false,
            next_pull_at: 0,
            backstop_armed: false,
        }
    }

    fn pull_spacing(&self, ctx: &Ctx<'_>) -> Time {
        ctx.line_rate.serialize(self.cfg.mtu_wire() as u64)
    }

    /// Pull deficit in packets: never more than one initial window
    /// outstanding (NDP's flow-control invariant; an unbounded pull window
    /// would let a backlogged sender blast far more than the receiver's
    /// downlink can drain).
    fn pull_deficit(rf: &RecvFlow, mtu: u64) -> u64 {
        rf.deficit(mtu, 1, rf.proto.prepaid().max(1))
    }

    /// Queue up to one pull for `flow` (the arrival-clocked path).
    fn maybe_enqueue_pull(&mut self, flow: FlowId, ctx: &mut Ctx<'_>) {
        let mtu = self.cfg.mtu_payload as u64;
        if let Some(rf) = self.flows.recv_mut(flow) {
            if Self::pull_deficit(rf, mtu) > 0 {
                rf.proto.issue(1);
                self.pull_queue.push_back(flow);
                self.arm_pull_pacer(ctx);
            }
        }
    }

    /// Queue pulls until the deficit is zero (used when a probe reveals a
    /// batch of losses at once; the pacer still spaces them at line rate).
    fn drain_pull_deficit(&mut self, flow: FlowId, ctx: &mut Ctx<'_>) {
        let mtu = self.cfg.mtu_payload as u64;
        if let Some(rf) = self.flows.recv_mut(flow) {
            for _ in 0..Self::pull_deficit(rf, mtu) {
                rf.proto.issue(1);
                self.pull_queue.push_back(flow);
            }
        }
        self.arm_pull_pacer(ctx);
    }

    fn arm_pull_pacer(&mut self, ctx: &mut Ctx<'_>) {
        if self.pull_pacer_armed || self.pull_queue.is_empty() {
            return;
        }
        self.pull_pacer_armed = true;
        let delay = self.next_pull_at.saturating_sub(ctx.now);
        ctx.set_timer_in_with(delay, Timer::host(PULL_TICK));
    }

    fn on_pull_tick(&mut self, ctx: &mut Ctx<'_>) {
        self.pull_pacer_armed = false;
        let flow = match self.pull_queue.pop_front() {
            Some(f) => f,
            None => return,
        };
        let spacing = self.pull_spacing(ctx);
        // A flow that finished (or aborted) while queued is gone: its pull
        // is skipped.
        if let Some(rf) = self.flows.recv(flow) {
            let pull =
                Packet::control(flow, ctx.host, rf.sender, rf.proto.issued(), PacketKind::Pull);
            // Each pull funds one MTU of transmission: NDP's credit.
            ctx.emit(TransportEvent::CreditIssue { flow, bytes: self.cfg.mtu_payload as u64 });
            ctx.send(pull);
            self.next_pull_at = ctx.now + spacing;
        }
        self.arm_pull_pacer(ctx);
    }

    fn arm_backstop(&mut self, ctx: &mut Ctx<'_>) {
        if self.backstop_armed {
            return;
        }
        self.backstop_armed = true;
        let backstop = recovery::stale_after(&self.cfg, None);
        ctx.set_timer_in_with(backstop, Timer::host(BACKSTOP));
    }

    fn on_backstop(&mut self, ctx: &mut Ctx<'_>) {
        self.backstop_armed = false;
        let (backstop, now) = (recovery::stale_after(&self.cfg, None), ctx.now);
        let mtu = self.cfg.mtu_payload as u64;
        self.flows.reap_silent_senders(ctx);
        let (any_incomplete, stalled) = self.flows.stall_scan(ctx, |rf, size| {
            if !rf.proto.presume_lost(rf.idle(now), backstop, false) {
                return Vec::new();
            }
            rf.missing(size, 4)
        });
        for (id, sender, missing) in stalled {
            // Tell the sender what is missing (a stall means the loss signal
            // itself was lost — e.g. a corrupted scheduled packet, which
            // neither trims nor ACKs), then replenish the pull stream.
            for (ms, me) in missing {
                for seq in (ms..me).step_by(mtu as usize) {
                    ctx.send(Packet::control(id, ctx.host, sender, seq, PacketKind::Nack));
                }
            }
            self.drain_pull_deficit(id, ctx);
        }
        self.arm_pull_pacer(ctx);
        if any_incomplete {
            self.arm_backstop(ctx);
        }
    }

    /// Send the next packet in response to a pull.
    fn pump_one(&mut self, flow: FlowId, ctx: &mut Ctx<'_>) {
        let mtu = self.cfg.mtu_payload;
        if let Some(sf) = self.flows.send.get_mut(flow) {
            if let Some(mut pkt) = sf.tx.next_scheduled(mtu, LossCause::Nack, ctx) {
                sf.tag += 1;
                pkt.path_tag = sf.tag;
                ctx.send(pkt);
            }
        }
    }

    fn on_probe_retry(&mut self, flow: FlowId, ctx: &mut Ctx<'_>) {
        let rearm = self.flows.first_contact_retry(
            flow,
            &self.cfg,
            ctx,
            |sf| &mut sf.tx,
            |tx| tx.heard_back,
            |tx, ctx| tx.send_probe(7, ctx),
        );
        if let Some(delay) = rearm {
            ctx.set_timer_in_with(delay, Timer::flow(PROBE_RETRY, flow));
        }
    }

    /// `pkt`'s receive flow, opened on first contact; `None` once received
    /// whole.
    fn ensure_recv_flow(&mut self, pkt: &Packet, ctx: &Ctx<'_>) -> Option<&mut RecvFlow> {
        let (cfg, line_rate) = (self.cfg, ctx.line_rate);
        self.flows.recv_arrival(pkt, ctx, || {
            // Everything that opens a receive flow here (data, trimmed
            // header, probe) carries the message size, so the pre-paid
            // initial window is known at first contact.
            let iw = cfg.rtt_bytes(line_rate).min(pkt.flow_size);
            CreditLedger::with_prepaid(iw.div_ceil(cfg.mtu_payload as u64))
        })
    }
}

#[cfg(test)]
impl NdpEndpoint {
    pub(crate) fn holding(&self, flow: FlowId) -> crate::recovery::Holding {
        self.flows.holding(flow)
    }
}

impl Endpoint for NdpEndpoint {
    fn on_flow_arrival(&mut self, flow: FlowDesc, ctx: &mut Ctx<'_>) {
        let base = self.cfg;
        let mut tag = 0u64;
        // The probe trails the burst at priority 7 (moot in a FIFO, kept for
        // symmetry with the spray tags).
        let mut tx = launch_first_rtt(flow, &base, 7, ctx, |pkt| {
            base.mode.stamp_unscheduled(pkt, 0, 7);
            tag += 1;
            pkt.path_tag = tag;
        });
        // NDP recovery is signal-driven (NACKs in Blind mode, probe/SACK in
        // Aeolus mode): last-resort duplication only feeds trim loops.
        tx.core.disable_last_resort();
        if base.mode.probe_recovery() && base.aeolus.probe_retry_rtts > 0 {
            let retry = Timer::flow(PROBE_RETRY, flow.id);
            ctx.set_timer_in_with(recovery::retry_base(&base), retry);
        }
        self.flows.send.insert(flow.id, SendFlow { tx, tag });
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        match pkt.kind {
            PacketKind::Data if pkt.trimmed => {
                // A cut-payload header: it returns its transmission credit
                // (the payload is gone, so the credit frees immediately);
                // NACK so the sender requeues the bytes, then keep pulling.
                // A finished flow's header is NACKed all the same.
                if let Some(rf) = self.ensure_recv_flow(&pkt, ctx) {
                    rf.proto.returned(1);
                }
                ctx.send(Packet::control(pkt.flow, ctx.host, pkt.src, pkt.seq, PacketKind::Nack));
                self.maybe_enqueue_pull(pkt.flow, ctx);
                self.arm_backstop(ctx);
            }
            PacketKind::Data => {
                // Every full data packet is ACKed, a finished flow's too.
                let mut completed = false;
                if let Some(rf) = self.ensure_recv_flow(&pkt, ctx) {
                    rf.proto.returned(1);
                    completed = rf.book.on_data(&pkt, ctx);
                }
                ctx.send(data_ack_packet(&pkt, ctx.host, pkt.src));
                if completed {
                    self.flows.recv_done(pkt.flow, ctx);
                }
                self.maybe_enqueue_pull(pkt.flow, ctx);
                self.arm_backstop(ctx);
            }
            PacketKind::Probe => {
                let mtu = self.cfg.mtu_payload as u64;
                answer_probe(&pkt, ctx);
                if let Some(rf) = self.ensure_recv_flow(&pkt, ctx) {
                    // The probe arrives behind every surviving burst packet
                    // (one FIFO path), so the burst loss is exact
                    // arithmetic: write the lost packets' credits off and
                    // top up the pulls.
                    let burst_lost = pkt.seq.saturating_sub(rf.book.received_below(pkt.seq));
                    rf.proto.write_off(burst_lost.div_ceil(mtu));
                }
                self.drain_pull_deficit(pkt.flow, ctx);
                self.arm_backstop(ctx);
            }
            PacketKind::Nack => {
                // Edge-triggered: every trimmed packet produces exactly one
                // NACK, including re-trimmed retransmissions, so requeue
                // unconditionally.
                let mtu = self.cfg.mtu_payload as u64;
                if let Some(sf) = self.flows.send.get_mut(pkt.flow) {
                    let end = (pkt.seq + mtu).min(sf.tx.desc.size);
                    sf.tx.requeue(pkt.seq, end, LossCause::Nack, ctx);
                } else if let Some(size) = ctx.finished(pkt.flow, FlowEnd::Sender) {
                    requeue_finished(pkt.flow, size, pkt.seq, pkt.seq + mtu, LossCause::Nack, ctx);
                }
            }
            PacketKind::Pull => {
                let mtu = self.cfg.mtu_payload as u64;
                if let Some(sf) = self.flows.send.get_mut(pkt.flow) {
                    sf.tx.on_credit(mtu, ctx);
                } else if ctx.finished(pkt.flow, FlowEnd::Sender).is_some() {
                    // Booked, with nothing left to spend it on.
                    ctx.emit(TransportEvent::CreditReceipt { flow: pkt.flow, bytes: mtu });
                }
                self.pump_one(pkt.flow, ctx);
            }
            PacketKind::Ack { of_probe, end } => {
                if let Some(sf) = self.flows.send.get_mut(pkt.flow) {
                    // Spraying reorders packets: never infer loss from ACK
                    // gaps here.
                    sf.tx.on_ack(pkt.seq, end, of_probe, false, ctx);
                    // The receiver ACKs every packet and sends no completion
                    // ACK: the sender is done when the ACKs cover the
                    // message.
                    if sf.tx.core.fully_acked() {
                        self.flows.send.remove(pkt.flow);
                        ctx.finish(pkt.flow, FlowEnd::Sender);
                    }
                }
            }
            other => {
                debug_assert!(false, "unexpected packet kind for NDP: {other:?}");
            }
        }
    }

    fn on_timer(&mut self, timer: Timer, ctx: &mut Ctx<'_>) {
        match (timer.kind, timer.flow) {
            (PULL_TICK, None) => self.on_pull_tick(ctx),
            (BACKSTOP, None) => self.on_backstop(ctx),
            (PROBE_RETRY, Some(f)) => self.on_probe_retry(f, ctx),
            _ => unreachable!("not an NDP timer: {timer:?}"),
        }
    }

    fn on_crash(&mut self, _ctx: &mut Ctx<'_>) {
        *self = Self::new(self.cfg);
    }

    fn on_flow_abort(&mut self, flow: FlowDesc, _ctx: &mut Ctx<'_>) {
        // Pending pull-queue entries for the flow become harmless no-ops
        // (`on_pull_tick` finds no state).
        self.flows.abort(flow.id);
    }
}
