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
    Ctx, Endpoint, FlowDesc, FlowId, LossCause, Packet, PacketKind, Rate, Timer, TransportEvent,
};

use crate::common::BaseConfig;
use crate::recovery::{
    self, answer_probe, launch_first_rtt, Answer, CreditLedger, FlowTable, Retire,
};

// Timer kinds ([`Timer::kind`]), beside the stall scan and first-contact
// retry that `recovery` owns.
/// The per-host pull pacer tick (a host timer).
const PULL_TICK: u8 = 0;

/// The sender's own state is a packet counter used as the spray path tag.
type SendFlow = recovery::SendFlow<u64>;

/// Every full data packet is ACKed, in every mode, and the ACKs that cover
/// the message tell the sender it arrived: no completion ACK.
const ANSWER: Answer = Answer { ack: true, completion: false };

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

    /// The stall scan's period, and its staleness threshold: the backstop.
    fn backstop(&self) -> Time {
        recovery::stale_after(&self.cfg, None)
    }

    fn on_stall_scan(&mut self, ctx: &mut Ctx<'_>) {
        let (backstop, now) = (self.backstop(), ctx.now);
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
            self.flows.arm_scan(backstop, ctx);
        }
    }

    /// `pkt`'s receive flow, opened on first contact; `None` once received
    /// whole.
    fn ensure_recv_flow(&mut self, pkt: &Packet, ctx: &Ctx<'_>) -> Option<&mut RecvFlow> {
        self.flows.recv_arrival(pkt, ctx, prepaid(self.cfg, ctx.line_rate, pkt.flow_size))
    }
}

/// The pull ledger of a flow opened by a packet of a `size`-byte message.
/// Everything that opens a receive flow here (data, trimmed header, probe)
/// carries the message size, so the pre-paid initial window is known at
/// first contact.
fn prepaid(cfg: BaseConfig, line_rate: Rate, size: u64) -> impl FnOnce() -> CreditLedger {
    move || {
        let iw = cfg.rtt_bytes(line_rate).min(size);
        CreditLedger::with_prepaid(iw.div_ceil(cfg.mtu_payload as u64))
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
        // Only a probe is re-sent: the retry runs where probes recover.
        self.flows.launch(SendFlow { tx, proto: tag }, base.mode.probe_recovery(), &base, ctx);
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
                self.flows.arm_scan(self.backstop(), ctx);
            }
            PacketKind::Data => {
                let make = prepaid(self.cfg, ctx.line_rate, pkt.flow_size);
                self.flows.on_data(&pkt, ANSWER, ctx, make, |rf, _| rf.proto.returned(1));
                self.maybe_enqueue_pull(pkt.flow, ctx);
                self.flows.arm_scan(self.backstop(), ctx);
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
                self.flows.arm_scan(self.backstop(), ctx);
            }
            PacketKind::Nack => {
                // Edge-triggered: every trimmed packet produces exactly one
                // NACK, including re-trimmed retransmissions, so requeue
                // unconditionally (clamped to what was sent).
                let end = pkt.seq + self.cfg.mtu_payload as u64;
                self.flows.on_loss_report(pkt.flow, pkt.seq, end, LossCause::Nack, ctx);
            }
            PacketKind::Pull => {
                // Each pull funds one packet.
                let mtu = self.cfg.mtu_payload;
                if let Some(sf) = self.flows.on_credit(pkt.flow, mtu as u64, ctx) {
                    if let Some(mut pkt) = sf.tx.next_scheduled(mtu, LossCause::Nack, ctx) {
                        sf.proto += 1;
                        pkt.path_tag = sf.proto;
                        ctx.send(pkt);
                    }
                }
            }
            PacketKind::Ack { .. } => {
                // Spraying reorders packets: never infer loss from ACK gaps
                // here.
                self.flows.on_ack(&pkt, false, Retire::Covered, ctx);
            }
            other => {
                debug_assert!(false, "unexpected packet kind for NDP: {other:?}");
            }
        }
    }

    fn on_timer(&mut self, timer: Timer, ctx: &mut Ctx<'_>) {
        match (timer.kind, timer.flow) {
            (PULL_TICK, None) => self.on_pull_tick(ctx),
            (recovery::SCAN, None) => self.on_stall_scan(ctx),
            (recovery::RETRY, Some(f)) => self.flows.first_contact_retry(
                f,
                &self.cfg,
                ctx,
                |tx| tx.heard_back,
                |tx, ctx| tx.send_probe(7, ctx),
            ),
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
