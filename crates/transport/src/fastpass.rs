//! Fastpass (SIGCOMM'14) — the *centralized-arbiter* branch of proactive
//! transport (§2.1 of the Aeolus paper: "Fastpass employs a centralized
//! arbiter to enforce a tight control over packet transmission time"), as an
//! extension beyond the paper's three receiver-driven baselines.
//!
//! Model: one designated host runs the [`ArbiterEndpoint`]. A new sender
//! asks the arbiter for timeslots; the arbiter allocates them greedily such
//! that no source transmits two slots at once and no destination receives
//! two slots at once — the zero-queue property. The sender then transmits
//! exactly on its schedule.
//!
//! The pre-credit phase is the round trip to the arbiter, so Aeolus applies
//! verbatim: in [`FirstRttMode::Aeolus`] the sender bursts droppable
//! unscheduled packets while its request is in flight, losses are detected
//! by probe/ACKs, and the retransmissions ride later-requested timeslots.
//!
//! Simplifications (documented in DESIGN.md): slot allocation is greedy
//! first-fit per (src, dst) rather than Fastpass' max-min matching, and path
//! assignment is left to the fabric (the paper's zero-queue argument is
//! exercised on single-switch and two-tier topologies where src/dst
//! exclusivity suffices).
//!
//! [`FirstRttMode::Aeolus`]: crate::common::FirstRttMode::Aeolus

use aeolus_sim::units::Time;
use aeolus_sim::{
    Ctx, Endpoint, FlowDesc, FlowEnd, FlowId, FlowMap, LossCause, NodeId, Packet, PacketKind,
    Timer, TransportEvent,
};

use crate::common::BaseConfig;
use crate::recovery::{
    self, answer_probe, backoff, launch_first_rtt, peer_silent, send_resends, Answer, FlowTable,
    Retire, Strikes,
};

/// Maximum timeslots requested at once (pipelined batches). A choice of
/// this model, not a Fastpass parameter: it bounds how far ahead the greedy
/// arbiter commits a (src, dst) pair.
const BATCH_SLOTS: u32 = 64;

/// Fastpass tunables.
#[derive(Debug, Clone, Copy)]
pub struct FastpassConfig {
    /// Shared transport parameters.
    pub base: BaseConfig,
    /// The arbiter's node id.
    pub arbiter: NodeId,
}

/// The centralized arbiter: allocates conflict-free timeslots.
pub struct ArbiterEndpoint {
    /// Slot duration (one MTU at host line rate); fixed at first request.
    slot: Time,
    mtu_wire: u32,
    /// Earliest free slot per transmitting host.
    src_free: FlowMap<NodeId, Time>,
    /// Earliest free slot per receiving host.
    dst_free: FlowMap<NodeId, Time>,
}

impl ArbiterEndpoint {
    /// A fresh arbiter for hosts with `mtu_wire`-byte full packets.
    pub fn new(mtu_wire: u32) -> ArbiterEndpoint {
        ArbiterEndpoint { slot: 0, mtu_wire, src_free: FlowMap::new(), dst_free: FlowMap::new() }
    }
}

impl Endpoint for ArbiterEndpoint {
    fn on_flow_arrival(&mut self, _flow: FlowDesc, _ctx: &mut Ctx<'_>) {
        panic!("the arbiter host must not originate flows");
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        if pkt.kind != PacketKind::Request {
            debug_assert!(false, "arbiter only speaks Request, got {:?}", pkt.kind);
            return;
        }
        if self.slot == 0 {
            self.slot = ctx.line_rate.serialize(self.mtu_wire as u64);
        }
        // `flow_size` carries the *remaining demand in slots* for requests
        // addressed to the arbiter; `seq` the first byte offset to cover.
        let slots = (pkt.flow_size as u32).max(1);
        // `path_tag` carries the true destination host id (the packet's
        // `dst` is the arbiter itself).
        let dst = NodeId(pkt.path_tag as u32);
        let src = pkt.src;
        // Greedy conflict-free allocation: the batch starts when both the
        // source uplink and destination downlink are free, no earlier than
        // one half-RTT from now (the reply must reach the sender first).
        let earliest = ctx.now + self.base_delay();
        let src_free = self.src_free.get(src).copied().unwrap_or(0);
        let dst_free = self.dst_free.get(dst).copied().unwrap_or(0);
        let start = earliest.max(src_free).max(dst_free);
        let end = start + slots as Time * self.slot;
        self.src_free.insert(src, end);
        self.dst_free.insert(dst, end);
        // Each slot authorizes one full packet on the wire: the arbiter is
        // the credit issuer in Fastpass.
        ctx.emit(TransportEvent::CreditIssue {
            flow: pkt.flow,
            bytes: slots as u64 * self.mtu_wire as u64,
        });
        let mut reply = Packet::control(
            pkt.flow,
            ctx.host,
            src,
            pkt.seq,
            PacketKind::Schedule { start, slots, stride: self.slot },
        );
        reply.priority = 0;
        ctx.send(reply);
    }

    fn on_timer(&mut self, _timer: Timer, _ctx: &mut Ctx<'_>) {}

    fn on_crash(&mut self, _ctx: &mut Ctx<'_>) {
        // An arbiter crash loses the allocation ledgers. After restart the
        // arbiter re-learns load from fresh requests; forgetting the old
        // reservations is safe (worst case transient slot conflicts, i.e.
        // queueing — never stalls), and senders' request-retry backstops
        // re-ask for anything scheduled into the outage.
        *self = Self::new(self.mtu_wire);
    }
}

impl ArbiterEndpoint {
    /// Margin so a schedule never starts before its reply can arrive.
    fn base_delay(&self) -> Time {
        // One slot of margin per hop is plenty on the paper topologies; the
        // precise value only shifts schedules, never overlaps them.
        8 * self.slot.max(1)
    }
}

// Timer kinds ([`Timer::kind`]), beside the stall scan and first-contact
// retry that `recovery` owns.
/// Transmit the next scheduled slot of a flow.
const SLOT: u8 = 0;
/// Re-request timeslots if the outstanding request (or its Schedule reply)
/// was lost on the way — without this, a single lost arbiter round trip
/// hangs the flow forever.
const REQUEST_RETRY: u8 = 1;

/// A sender's timeslots. Only the *receiver's* signals (ACK, Resend) count
/// as "heard" in the shared sender state — not the arbiter's Schedules,
/// which keep flowing while the receiver is partitioned away.
struct Slots {
    /// Remaining granted slots and their cadence.
    slots_left: u32,
    stride: Time,
    /// Whether a request is currently outstanding at the arbiter.
    requesting: bool,
    /// Consecutive request retries without a Schedule reply — each doubles
    /// the next retry interval, capped (reset when a Schedule arrives).
    request_fires: u32,
}

type SendFlow = recovery::SendFlow<Slots>;

/// Slots are the arbiter's to account for; the receiver only backs off its
/// stall window.
type RecvFlow = recovery::RecvFlow<Strikes>;

/// The per-host Fastpass endpoint.
pub struct FastpassEndpoint {
    cfg: FastpassConfig,
    flows: FlowTable<SendFlow, RecvFlow>,
}

impl FastpassEndpoint {
    /// A fresh endpoint.
    pub fn new(cfg: FastpassConfig) -> FastpassEndpoint {
        FastpassEndpoint { cfg, flows: FlowTable::default() }
    }

    /// Base interval after which an unanswered arbiter request is retried;
    /// generous (several RTTs) so queueing is never mistaken for loss.
    fn retry_base(&self) -> Time {
        (8 * self.cfg.base.base_rtt.max(1)).max(aeolus_sim::units::ms(2))
    }

    fn request_slots(&mut self, flow: FlowId, ctx: &mut Ctx<'_>) {
        let retry_base = self.retry_base();
        let Some(sf) = self.flows.send.get_mut(flow) else { return };
        if sf.proto.requesting || !sf.tx.core.has_work() {
            return;
        }
        sf.proto.requesting = true;
        let mut req = Packet::control(flow, ctx.host, self.cfg.arbiter, 0, PacketKind::Request);
        // Demand in slots; true destination rides in path_tag.
        let mtu = self.cfg.base.mtu_payload as u64;
        let rough_need = sf.tx.desc.size.div_ceil(mtu) as u32;
        req.flow_size = rough_need.min(BATCH_SLOTS) as u64;
        req.path_tag = sf.tx.desc.dst.0 as u64;
        ctx.send(req);
        let retry_in = backoff(retry_base, sf.proto.request_fires);
        ctx.set_timer_in_with(retry_in, Timer::flow(REQUEST_RETRY, flow));
    }

    /// The request-retry backstop: if the request (or its Schedule reply)
    /// vanished, clear the stuck `requesting` latch and re-ask with capped
    /// exponential backoff.
    fn on_request_retry(&mut self, flow: FlowId, ctx: &mut Ctx<'_>) {
        let Some(sf) = self.flows.send.get_mut(flow) else { return };
        if !sf.proto.requesting {
            return;
        }
        if peer_silent(sf.tx.last_heard, ctx.now) {
            // The receiver has shown no sign of life past the death
            // threshold despite backed-off re-requests: abort instead of
            // asking forever.
            self.flows.give_up(flow, ctx);
            return;
        }
        sf.proto.requesting = false;
        sf.proto.request_fires += 1;
        ctx.metrics.note_timeout(flow);
        self.request_slots(flow, ctx);
    }

    /// The receiver stall scan re-requests missing ranges from senders
    /// whose scheduled packets died on the wire.
    fn on_stall_scan(&mut self, ctx: &mut Ctx<'_>) {
        let (stall_after, now) = (recovery::stall_after(&self.cfg.base), ctx.now);
        // No receiver-side silence abort here: in Fastpass a silent sender
        // may merely be starved by arbiter (Schedule) losses, not dead, so
        // "no data" is ambiguous on this side. The sender's watchdog — whose
        // clock only the *receiver's* signals refresh — owns the abort; the
        // backed-off resends below keep a live sender's clock fresh.
        let (any_incomplete, resends) = self.flows.stall_scan(ctx, |rf, size| {
            if !rf.proto.presume_lost(rf.idle(now), stall_after) {
                return Vec::new();
            }
            rf.missing(size, 8)
        });
        send_resends(resends, ctx);
        if any_incomplete {
            self.flows.arm_scan(stall_after, ctx);
        }
    }

    /// Fire one scheduled slot: send the next chunk. A finished flow's
    /// slots stop here: the sender has nothing to send in them.
    fn on_slot(&mut self, flow: FlowId, ctx: &mut Ctx<'_>) {
        let mtu = self.cfg.base.mtu_payload;
        let Some(sf) = self.flows.send.get_mut(flow) else { return };
        sf.proto.slots_left = sf.proto.slots_left.saturating_sub(1);
        if let Some(pkt) = sf.tx.next_scheduled(mtu, LossCause::Probe, ctx) {
            ctx.send(pkt);
        }
        if sf.proto.slots_left > 0 {
            ctx.set_timer_in_with(sf.proto.stride, Timer::flow(SLOT, flow));
        } else if sf.tx.core.has_work() {
            self.request_slots(flow, ctx);
        }
    }
}

#[cfg(test)]
impl FastpassEndpoint {
    pub(crate) fn holding(&self, flow: FlowId) -> crate::recovery::Holding {
        self.flows.holding(flow)
    }
}

impl Endpoint for FastpassEndpoint {
    fn on_flow_arrival(&mut self, flow: FlowDesc, ctx: &mut Ctx<'_>) {
        let base = self.cfg.base;
        // Pre-credit burst while the arbiter round-trip is in flight.
        let tx =
            launch_first_rtt(flow, &base, 0, ctx, |pkt| base.mode.stamp_unscheduled(pkt, 0, 7));
        let slots = Slots { slots_left: 0, stride: 0, requesting: false, request_fires: 0 };
        // A message that fits in one burst can lose burst, probe and the
        // last-resort retransmission; the sender then has no work left and
        // the receiver never heard of the flow. The probe is re-sent, so
        // the retry runs where probes recover.
        self.flows.launch(SendFlow { tx, proto: slots }, base.mode.probe_recovery(), &base, ctx);
        self.request_slots(flow.id, ctx);
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        match pkt.kind {
            PacketKind::Schedule { start, slots, stride } => {
                let receipt = TransportEvent::CreditReceipt {
                    flow: pkt.flow,
                    bytes: slots as u64 * self.cfg.base.mtu_payload as u64,
                };
                if let Some(sf) = self.flows.send.get_mut(pkt.flow) {
                    sf.proto.requesting = false;
                    sf.proto.request_fires = 0;
                    sf.proto.slots_left = slots;
                    sf.proto.stride = stride;
                    ctx.emit(receipt);
                    let fire_first = start.saturating_sub(ctx.now);
                    ctx.set_timer_in_with(fire_first, Timer::flow(SLOT, pkt.flow));
                } else if ctx.finished(pkt.flow, FlowEnd::Sender).is_some() {
                    // The answer to a request the flow outlived: booked,
                    // with nothing to send in its slots.
                    ctx.emit(receipt);
                }
            }
            PacketKind::Data => {
                self.flows.arm_scan(recovery::stall_after(&self.cfg.base), ctx);
                let ack = self.cfg.base.mode.acks_data(pkt.class);
                let answer = Answer { ack, completion: true };
                self.flows.on_data(&pkt, answer, ctx, Strikes::default, |rf, _| rf.proto.reset());
            }
            PacketKind::Probe => {
                self.flows.recv_entry(&pkt, ctx, Strikes::default);
                answer_probe(&pkt, ctx);
                self.flows.arm_scan(recovery::stall_after(&self.cfg.base), ctx);
            }
            PacketKind::Resend { end } => {
                // Receiver-detected stall: a scheduled packet died on the
                // wire. Requeue the range and ask the arbiter for slots to
                // carry it.
                let live = self.flows.on_loss_report(pkt.flow, pkt.seq, end, LossCause::Stall, ctx);
                if live.is_some_and(|sf| sf.proto.slots_left == 0) {
                    self.request_slots(pkt.flow, ctx);
                }
            }
            PacketKind::Ack { of_probe, .. } => {
                let infer = self.cfg.base.sack_inference();
                self.flows.on_ack(&pkt, infer, Retire::Confirmed, ctx);
                // Losses revealed by the probe may need timeslots (a probe
                // ACK never retires the sender).
                let idle = |sf: &SendFlow| sf.proto.slots_left == 0;
                if of_probe && self.flows.send.get(pkt.flow).is_some_and(idle) {
                    self.request_slots(pkt.flow, ctx);
                }
            }
            other => {
                debug_assert!(false, "unexpected packet kind for Fastpass: {other:?}");
            }
        }
    }

    fn on_timer(&mut self, timer: Timer, ctx: &mut Ctx<'_>) {
        match (timer.kind, timer.flow) {
            (SLOT, Some(f)) => self.on_slot(f, ctx),
            (REQUEST_RETRY, Some(f)) => self.on_request_retry(f, ctx),
            (recovery::SCAN, None) => self.on_stall_scan(ctx),
            (recovery::RETRY, Some(f)) => self.flows.first_contact_retry(
                f,
                &self.cfg.base,
                ctx,
                |tx| tx.heard_back,
                |tx, ctx| tx.send_probe(0, ctx),
            ),
            _ => unreachable!("not a Fastpass timer: {timer:?}"),
        }
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
    use crate::common::FirstRttMode;
    use aeolus_core::AeolusConfig;
    use aeolus_sim::units::us;

    #[test]
    fn config_defaults() {
        let base = BaseConfig {
            mtu_payload: 1460,
            base_rtt: us(14),
            aeolus: AeolusConfig::default(),
            mode: FirstRttMode::Aeolus,
            disable_sack: false,
        };
        let cfg = FastpassConfig { base, arbiter: NodeId(9) };
        assert_eq!(BATCH_SLOTS, 64);
        assert_eq!(cfg.arbiter, NodeId(9));
    }
}
