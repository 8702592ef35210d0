//! Homa (SIGCOMM'18) — receiver-driven transport using network priorities —
//! with pluggable first-RTT handling:
//!
//! * [`FirstRttMode::Blind`]: original Homa — RTT-bytes of unscheduled
//!   packets burst at high priorities (by message-size cutoff), *protected*
//!   from dropping but subject to buffer overflow; timeout-based recovery
//!   (receiver RESENDs + sender RTO).
//! * [`FirstRttMode::Aeolus`]: the burst is droppable/unscheduled, probes
//!   and per-packet ACKs detect first-RTT losses, and retransmissions ride
//!   the guaranteed scheduled (grant-induced) packets.
//! * [`FirstRttMode::Oracle`]: §2.3's hypothetical Homa (zero interference).
//!
//! Receivers grant in SRPT order with an overcommitment degree (default 6),
//! keeping one RTT-bytes window per granted message, and assign scheduled
//! priorities by SRPT rank below the unscheduled levels.

use aeolus_sim::units::Time;
use aeolus_sim::{
    Ctx, Endpoint, FlowDesc, FlowEnd, FlowId, FlowMap, LossCause, Packet, PacketKind, Timer,
    TrafficClass, TransportEvent,
};

use crate::common::{data_packet, BaseConfig, FirstRttMode};
use crate::recovery::{
    self, answer_data, answer_probe, launch_first_rtt, peer_silent, requeue_finished, send_resends,
    CreditLedger, FlowTable, SendState,
};

/// Total switch priority levels: the 8 of a commodity switch, as in the
/// Homa paper and the Aeolus evaluation (DESIGN.md "Protocol models").
const LEVELS: u8 = 8;
/// How many (top) levels unscheduled packets use; scheduled packets use the
/// rest, ranked by SRPT.
const UNSCHED_LEVELS: u8 = 4;
/// Overcommitment degree — how many messages a receiver grants at once: 6
/// in the paper's Homa setup.
const OVERCOMMIT: usize = 6;

/// Homa tunables.
#[derive(Debug, Clone)]
pub struct HomaConfig {
    /// Shared transport parameters.
    pub base: BaseConfig,
    /// Message-size cutoffs for unscheduled priorities: a message of size ≤
    /// `cutoffs[i]` bursts at priority `i`. Must have `UNSCHED_LEVELS - 1`
    /// entries (everything larger uses the last unscheduled level).
    pub cutoffs: Vec<u64>,
    /// Retransmission timeout of the timeout-driven (Blind) variants (paper
    /// experiments: 10 ms, 20 µs, 40 µs); `None` where probes recover.
    pub rto: Option<Time>,
    /// "Eager Homa" (§2.3 / Table 1): the RTO is a naive per-message
    /// deadline that is *not* reset by receiver progress, and every fire
    /// blindly resends the whole burst region — the premature-retransmission
    /// behaviour whose transfer-efficiency collapse the paper measures.
    pub naive_rto: bool,
}

impl HomaConfig {
    /// Unscheduled priority for a message of `size` bytes (smaller = higher).
    pub fn unsched_prio(&self, size: u64) -> u8 {
        for (i, &c) in self.cutoffs.iter().enumerate() {
            if size <= c {
                return i as u8;
            }
        }
        UNSCHED_LEVELS - 1
    }

    /// Scheduled priority for the SRPT rank of a granted message.
    pub fn sched_prio(&self, rank: usize) -> u8 {
        let span = LEVELS - UNSCHED_LEVELS;
        UNSCHED_LEVELS + (rank as u8).min(span - 1)
    }
}

// Timer kinds ([`Timer::kind`]).
/// Sender-side RTO for one flow (Blind mode).
const SENDER_RTO: u8 = 0;
/// §6 probe-retry for probe-recovery modes: total silence means even the
/// probe was lost — resend it.
const PROBE_RETRY: u8 = 1;
/// Receiver-side scan for stalled incomplete messages (a host timer).
const RESEND_SCAN: u8 = 2;

struct SendFlow {
    /// Shared sender state. Once anything (grant, RESEND, ACK) has been
    /// heard from the receiver, its targeted RESEND scan owns recovery and
    /// the sender's blind RTO restarts its clock from there.
    tx: SendState,
    /// Consecutive sender-RTO fires (exponential backoff shift).
    rto_fires: u32,
    /// Highest grant offset received.
    granted: u64,
    /// Scheduled bytes sent against grants.
    sent_sched: u64,
    grant_prio: u8,
}

/// The grant ledger counts bytes: grants are a cumulative scheduled-byte
/// budget, and scheduled payload bytes received return it (duplicates
/// included — each consumed budget, so each replenishes it).
type RecvFlow = recovery::RecvFlow<CreditLedger>;

/// The per-host Homa endpoint.
pub struct HomaEndpoint {
    cfg: HomaConfig,
    flows: FlowTable<SendFlow, RecvFlow>,
    /// The highest grant offset of each send flow this host finished: a
    /// late grant is booked only for what it adds.
    finished_grants: FlowMap<FlowId, u64>,
    scan_armed: bool,
    /// Reusable SRPT scratch for `regrant` (runs per data packet — a fresh
    /// `Vec` each call would churn the allocator on the hot path).
    srpt_scratch: Vec<(u64, FlowId)>,
}

impl HomaEndpoint {
    /// A fresh endpoint.
    pub fn new(cfg: HomaConfig) -> HomaEndpoint {
        HomaEndpoint {
            cfg,
            flows: FlowTable::default(),
            finished_grants: FlowMap::new(),
            scan_armed: false,
            srpt_scratch: Vec::new(),
        }
    }

    /// Recompute grants after any receive-side event: the `OVERCOMMIT`
    /// incomplete messages first in SRPT order are each granted one
    /// RTT-bytes past what arrived.
    fn regrant(&mut self, ctx: &mut Ctx<'_>) {
        let rtt_bytes = self.cfg.base.rtt_bytes(ctx.line_rate);
        // The scratch is reused so this allocates nothing in steady state.
        let mut active = std::mem::take(&mut self.srpt_scratch);
        self.flows.srpt_top(OVERCOMMIT, &mut active);
        for (rank, &(_, id)) in active.iter().enumerate() {
            let prio = self.cfg.sched_prio(rank);
            let rf = self.flows.recv_mut(id).expect("active flow");
            let mtu = self.cfg.base.mtu_payload as u64;
            // Release arrival-clocked (real Homa grants per received packet):
            // an initial kick when a message first gets scheduled, then a
            // couple of MTUs per regrant — dumping whole windows for several
            // messages at once would overflow the downlink buffer.
            let step = if rf.proto.issued() == 0 { 8 * mtu } else { 2 * mtu };
            // Outstanding-bytes accounting, topped up to min(remaining,
            // RTTbytes): counting received-back bytes makes it self-correcting
            // under reordering and duplicate retransmissions, and caps
            // scheduled in-flight at one RTT. Whole packets are funded: a
            // sub-MTU remainder still needs a full packet's worth of budget
            // when retransmissions fragment.
            let increment = rf.deficit(mtu, mtu, rtt_bytes).min(step);
            if increment > 0 {
                rf.proto.issue(increment);
                ctx.emit(TransportEvent::CreditIssue { flow: id, bytes: increment });
                ctx.send(Packet::control(
                    id,
                    ctx.host,
                    rf.sender,
                    rf.proto.issued(),
                    PacketKind::Grant { grant_prio: prio },
                ));
            }
        }
        self.srpt_scratch = active;
    }

    /// Send scheduled data against the grant budget.
    fn pump_scheduled(&mut self, flow: FlowId, ctx: &mut Ctx<'_>) {
        let mtu = self.cfg.base.mtu_payload;
        if let Some(sf) = self.flows.send.get_mut(flow) {
            while sf.sent_sched < sf.granted {
                let Some(mut pkt) = sf.tx.next_scheduled(mtu, LossCause::Probe, ctx) else { break };
                pkt.priority = sf.grant_prio;
                sf.sent_sched += pkt.payload as u64;
                ctx.send(pkt);
            }
        }
    }

    /// Retransmit `[from, to)` right away as unscheduled packets (the
    /// Blind-mode recovery paths; probe-recovery modes requeue instead).
    fn resend_unscheduled(
        cfg: &HomaConfig,
        desc: &FlowDesc,
        from: u64,
        to: u64,
        cause: LossCause,
        ctx: &mut Ctx<'_>,
    ) {
        let native_prio = cfg.unsched_prio(desc.size);
        let mut seq = from;
        while seq < to {
            let len = cfg.base.mtu_payload.min((to - seq) as u32);
            let mut pkt = data_packet(desc, seq, len, TrafficClass::Unscheduled, true);
            cfg.base.mode.stamp_unscheduled(&mut pkt, native_prio, LEVELS - 1);
            ctx.emit(TransportEvent::Retransmit { flow: pkt.flow, bytes: len as u64, cause });
            ctx.send(pkt);
            seq += len as u64;
        }
    }

    fn arm_scan(&mut self, ctx: &mut Ctx<'_>) {
        if self.cfg.base.mode == FirstRttMode::Hold || self.scan_armed {
            return;
        }
        self.scan_armed = true;
        let delay = recovery::stale_after(&self.cfg.base, self.cfg.rto) / 2;
        ctx.set_timer_in_with(delay, Timer::host(RESEND_SCAN));
    }

    fn on_resend_scan(&mut self, ctx: &mut Ctx<'_>) {
        self.scan_armed = false;
        // The RTO in Blind mode; in the probe-recovery modes only a backstop
        // against lost *scheduled* packets under extreme buffer pressure.
        let stale_after = recovery::stale_after(&self.cfg.base, self.cfg.rto);
        let now = ctx.now;
        let probe_mode = self.cfg.base.mode.probe_recovery();
        let window = 8 * self.cfg.base.mtu_payload as u64;
        self.flows.reap_silent_senders(ctx);
        let (any_incomplete, resends) = self.flows.stall_scan(ctx, |rf, size| {
            // Staleness is arrival-based (grant timestamps are irrelevant —
            // the periodic grant kick would otherwise mask a genuine stall
            // indefinitely).
            if !rf.proto.presume_lost(rf.idle(now), stale_after, !probe_mode) {
                return Vec::new();
            }
            // Request anything missing below the full message: the sender
            // clamps requeues to what it actually transmitted, and resending
            // not-yet-sent bytes early is harmless (grants are a cumulative
            // byte budget, so the receiver cannot reconstruct which offsets
            // were authorized).
            if probe_mode {
                rf.missing(size, 8)
            } else {
                // Blind mode requests at most one bounded range per flow per
                // scan: premature resends of merely-queued data are the known
                // waste of timeout recovery, but unbounded re-requests at RTO
                // cadence would melt an incast fabric outright.
                rf.missing(size, 1).into_iter().map(|(s, e)| (s, e.min(s + window))).collect()
            }
        });
        send_resends(resends, ctx);
        if any_incomplete {
            // Always re-evaluate grants while anything is incomplete: grants
            // are otherwise arrival-clocked, and a receiver whose last
            // arrival predates a flow's turn in the SRPT order would strand
            // it.
            self.regrant(ctx);
            self.arm_scan(ctx);
        }
    }

    fn on_sender_rto(&mut self, flow: FlowId, ctx: &mut Ctx<'_>) {
        let Some(rto) = self.cfg.rto else { return };
        let naive = self.cfg.naive_rto;
        let rtt_bytes = self.cfg.base.rtt_bytes(ctx.line_rate);
        let Some(sf) = self.flows.send.get_mut(flow) else { return };
        if peer_silent(sf.tx.last_heard, ctx.now) {
            self.flows.give_up(flow, ctx);
            return;
        }
        // A live receiver (grants flowing) is not a timeout: just re-arm
        // from the last progress point. Eager Homa fires regardless — the
        // naive deadline whose efficiency collapse Table 1 measures.
        if naive || ctx.now.saturating_sub(sf.tx.last_heard) >= rto {
            ctx.metrics.note_timeout(flow);
            sf.rto_fires += 1;
            sf.tx.last_loss = Some(LossCause::Timeout);
            // Eager Homa blindly resends the whole burst region. Otherwise
            // re-poll with the first burst packet (it carries the message
            // size, so a receiver that lost the whole burst learns of the
            // flow); the receiver's RESEND machinery drives range recovery.
            let first = if naive { rtt_bytes } else { self.cfg.base.mtu_payload as u64 };
            let upto = sf.tx.desc.size.min(first);
            Self::resend_unscheduled(&self.cfg, &sf.tx.desc, 0, upto, LossCause::Timeout, ctx);
        }
        // Naive mode keeps firing at a fixed cadence for a while (the
        // measured waste); both modes back off exponentially eventually so
        // a stuck flow cannot melt the run.
        let fires = sf.rto_fires;
        let shift = if naive { (fires / 16).min(6) } else { (fires / 2).min(8) };
        ctx.set_timer_in_with(rto << shift, Timer::flow(SENDER_RTO, flow));
    }

    fn on_probe_retry(&mut self, flow: FlowId, ctx: &mut Ctx<'_>) {
        let cfg = &self.cfg;
        let rearm = self.flows.first_contact_retry(
            flow,
            &cfg.base,
            ctx,
            |sf| &mut sf.tx,
            |tx| tx.heard_back,
            |tx, ctx| tx.send_probe(cfg.unsched_prio(tx.desc.size), ctx),
        );
        if let Some(delay) = rearm {
            ctx.set_timer_in_with(delay, Timer::flow(PROBE_RETRY, flow));
        }
    }
}

#[cfg(test)]
impl HomaEndpoint {
    pub(crate) fn holding(&self, flow: FlowId) -> crate::recovery::Holding {
        self.flows.holding(flow)
    }
}

impl Endpoint for HomaEndpoint {
    fn on_flow_arrival(&mut self, flow: FlowDesc, ctx: &mut Ctx<'_>) {
        let base = self.cfg.base;
        let native_prio = self.cfg.unsched_prio(flow.size);
        let lowest = LEVELS - 1;
        // The probe must trail the burst through every queue: give it the
        // *same* priority as the unscheduled data (it stays protected from
        // selective dropping via its ECT mark).
        let tx = launch_first_rtt(flow, &base, native_prio, ctx, |pkt| {
            base.mode.stamp_unscheduled(pkt, native_prio, lowest)
        });
        if let (FirstRttMode::Blind, Some(rto)) = (base.mode, self.cfg.rto) {
            ctx.set_timer_in_with(rto, Timer::flow(SENDER_RTO, flow.id));
        } else if base.mode.probe_recovery() && base.aeolus.probe_retry_rtts > 0 {
            let retry = Timer::flow(PROBE_RETRY, flow.id);
            ctx.set_timer_in_with(recovery::retry_base(&base), retry);
        }
        self.flows.send.insert(
            flow.id,
            SendFlow {
                tx,
                rto_fires: 0,
                granted: 0,
                sent_sched: 0,
                grant_prio: self.cfg.sched_prio(0),
            },
        );
    }

    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        match pkt.kind {
            PacketKind::Data => {
                let probe_mode = self.cfg.base.mode.probe_recovery();
                match self.flows.recv_arrival(&pkt, ctx, CreditLedger::default) {
                    Some(rf) => {
                        if pkt.class != TrafficClass::Unscheduled {
                            rf.proto.returned(pkt.payload as u64);
                        }
                        if rf.on_data(&pkt, probe_mode, ctx) {
                            self.flows.recv_done(pkt.flow, ctx);
                        }
                    }
                    None => answer_data(&pkt, probe_mode, ctx),
                }
                self.regrant(ctx);
                self.arm_scan(ctx);
            }
            PacketKind::Probe => {
                self.flows.recv_arrival(&pkt, ctx, CreditLedger::default);
                answer_probe(&pkt, ctx);
                self.regrant(ctx);
                self.arm_scan(ctx);
            }
            PacketKind::Grant { grant_prio } => {
                if let Some(sf) = self.flows.send.get_mut(pkt.flow) {
                    sf.tx.heard(ctx.now);
                    sf.grant_prio = grant_prio;
                    if pkt.seq > sf.granted {
                        ctx.emit(TransportEvent::CreditReceipt {
                            flow: pkt.flow,
                            bytes: pkt.seq - sf.granted,
                        });
                        sf.granted = pkt.seq;
                    }
                    sf.tx.core.end_burst();
                } else if let Some(granted) = self.finished_grants.get_mut(pkt.flow) {
                    // Booked like a live sender's grant, never spent.
                    if pkt.seq > *granted {
                        let bytes = pkt.seq - *granted;
                        ctx.emit(TransportEvent::CreditReceipt { flow: pkt.flow, bytes });
                        *granted = pkt.seq;
                    }
                }
                self.pump_scheduled(pkt.flow, ctx);
            }
            PacketKind::Resend { end } => {
                let probe_mode = self.cfg.base.mode.probe_recovery();
                if let Some(sf) = self.flows.send.get_mut(pkt.flow) {
                    if probe_mode {
                        // Backstop path: requeue and let the (inflated)
                        // grant budget clock the retransmission out as a
                        // guaranteed scheduled packet.
                        sf.tx.requeue(pkt.seq, end, LossCause::Stall, ctx);
                    } else {
                        // Blind mode: resend immediately as unscheduled.
                        sf.tx.heard(ctx.now);
                        let (from, to) = (pkt.seq, end.min(sf.tx.desc.size));
                        sf.tx.note_loss(to.saturating_sub(from), LossCause::Stall, ctx);
                        let desc = &sf.tx.desc;
                        Self::resend_unscheduled(&self.cfg, desc, from, to, LossCause::Stall, ctx);
                    }
                } else if let Some(size) = ctx.finished(pkt.flow, FlowEnd::Sender) {
                    requeue_finished(pkt.flow, size, pkt.seq, end, LossCause::Stall, ctx);
                    if !probe_mode {
                        // Blind mode resends whatever is asked for, however
                        // finished: the flow as it went out, rebuilt from
                        // its size (`start` is not on the wire).
                        let desc =
                            FlowDesc { id: pkt.flow, src: ctx.host, dst: pkt.src, size, start: 0 };
                        let (from, to) = (pkt.seq, end.min(size));
                        Self::resend_unscheduled(&self.cfg, &desc, from, to, LossCause::Stall, ctx);
                    }
                }
                if probe_mode {
                    self.pump_scheduled(pkt.flow, ctx);
                }
            }
            PacketKind::Ack { of_probe, end } => {
                let infer = self.cfg.base.sack_inference();
                if let Some(sf) = self.flows.send.get_mut(pkt.flow) {
                    // Newly detected losses may fit the open grant window.
                    sf.tx.on_ack(pkt.seq, end, of_probe, infer, ctx);
                    if sf.tx.core.fully_acked() {
                        self.finished_grants.insert(pkt.flow, sf.granted);
                        self.flows.send.remove(pkt.flow);
                        ctx.finish(pkt.flow, FlowEnd::Sender);
                    }
                }
                self.pump_scheduled(pkt.flow, ctx);
            }
            other => {
                debug_assert!(false, "unexpected packet kind for Homa: {other:?}");
            }
        }
    }

    fn on_timer(&mut self, timer: Timer, ctx: &mut Ctx<'_>) {
        match (timer.kind, timer.flow) {
            (SENDER_RTO, Some(f)) => self.on_sender_rto(f, ctx),
            (PROBE_RETRY, Some(f)) => self.on_probe_retry(f, ctx),
            (RESEND_SCAN, None) => self.on_resend_scan(ctx),
            _ => unreachable!("not a Homa timer: {timer:?}"),
        }
    }

    fn on_crash(&mut self, _ctx: &mut Ctx<'_>) {
        *self = Self::new(self.cfg.clone());
    }

    fn on_flow_abort(&mut self, flow: FlowDesc, _ctx: &mut Ctx<'_>) {
        self.flows.abort(flow.id);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeolus_core::AeolusConfig;
    use aeolus_sim::units::us;

    fn cfg() -> HomaConfig {
        let base = BaseConfig {
            mtu_payload: 1460,
            base_rtt: us(5),
            aeolus: AeolusConfig::default(),
            mode: FirstRttMode::Blind,
            disable_sack: false,
        };
        HomaConfig { base, cutoffs: vec![3_000, 30_000, 300_000], rto: Some(us(10_000)), naive_rto: false }
    }

    #[test]
    fn unscheduled_priority_cutoffs() {
        let c = cfg();
        assert_eq!(c.unsched_prio(100), 0);
        assert_eq!(c.unsched_prio(3_000), 0);
        assert_eq!(c.unsched_prio(10_000), 1);
        assert_eq!(c.unsched_prio(100_000), 2);
        assert_eq!(c.unsched_prio(10_000_000), 3);
    }

    #[test]
    fn scheduled_priorities_sit_below_unscheduled() {
        let c = cfg();
        assert_eq!(c.sched_prio(0), 4);
        assert_eq!(c.sched_prio(1), 5);
        assert_eq!(c.sched_prio(5), 7, "ranks beyond the span share the lowest level");
        assert!(c.sched_prio(0) > c.unsched_prio(u64::MAX));
    }
}
