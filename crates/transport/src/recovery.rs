//! The one recovery core every endpoint drives.
//!
//! Aeolus is a *building block*: one first-RTT burst, one probe/ACK loss
//! detector and one retransmit-once rule plugged unchanged into every
//! proactive transport. `aeolus-core` factors the per-flow state machine
//! ([`PreCreditSender`]); this module factors the code that *drives* it and
//! keeps it alive under faults, so the endpoints differ only in their
//! credit / grant / pull / slot pacing loops:
//!
//! * [`FlowTable`] — send and receive flow maps plus the tombstones of
//!   aborted flows, with the one implementation of peer-silent give-up,
//!   engine abort, restart and crash wipe.
//! * [`SendState`] — the sender half shared by the five proactive
//!   endpoints: "heard from peer", ACK → loss declaration, retransmit cause
//!   attribution and the silence-gated capped-backoff [`Retry`] verdict.
//! * [`launch_first_rtt`] — `BurstStart` → stamped burst → `BurstStop` →
//!   probe.
//! * [`RecvFlow`] and [`FlowTable::stall_scan`] — the receiver stall-scan
//!   skeleton; the staleness test and credit write-off stay per-protocol
//!   closures.

use aeolus_core::PreCreditSender;
use aeolus_sim::telemetry::FaultEvent;
use aeolus_sim::units::{ms, Time};
use aeolus_sim::{
    AbortCause, Ctx, FlowDesc, FlowId, FlowMap, LossCause, NodeId, Packet, PacketKind,
    TrafficClass, TransportEvent,
};

use crate::common::{data_packet, probe_ack_packet, probe_packet, BaseConfig};
use crate::receiver_table::RecvBook;

/// Peer-death threshold: a flow that has heard nothing from its peer for
/// this long while retrying aborts with cause `PeerSilent` instead of
/// retrying forever. Far above the 128 ms the capped backoff tops out at.
pub const PEER_SILENCE: Time = ms(400);

/// Whether a peer last heard from at `last_heard` counts as dead at `now`.
pub fn peer_silent(last_heard: Time, now: Time) -> bool {
    now.saturating_sub(last_heard) >= PEER_SILENCE
}

/// Base interval of the §6 first-contact retry, floored at 2 ms so loaded
/// queueing is never mistaken for silence.
pub fn retry_base(cfg: &BaseConfig) -> Time {
    (cfg.aeolus.probe_retry_rtts as Time * cfg.base_rtt.max(1)).max(ms(2))
}

/// Capped exponential backoff: each fruitless fire doubles the interval, up
/// to 64×, so a long outage never seeds a retry storm.
pub fn backoff(base: Time, fires: u32) -> Time {
    base << fires.min(6)
}

/// Per-host flow state: both roles' flow maps and the tombstones.
///
/// When a flow aborts — engine-initiated after a node crash, or
/// transport-initiated after the peer-silence watchdog fires — its id is
/// buried so stale in-flight packets (data still crossing the fabric, paced
/// credits that survived the purge) cannot resurrect per-flow state. A
/// restart raises the tombstone again before the flow relaunches.
pub struct FlowTable<S, R> {
    /// Flows this host sends.
    pub send: FlowMap<FlowId, S>,
    /// Flows this host receives.
    pub recv: FlowMap<FlowId, R>,
    dead: FlowMap<FlowId, ()>,
}

impl<S, R> Default for FlowTable<S, R> {
    fn default() -> Self {
        FlowTable { send: FlowMap::new(), recv: FlowMap::new(), dead: FlowMap::new() }
    }
}

impl<S, R> FlowTable<S, R> {
    /// Whether `flow` was aborted: its packets are dropped on sight.
    pub fn is_dead(&self, flow: FlowId) -> bool {
        self.dead.contains_key(flow)
    }

    /// Peer-silence abort (either role): drop local state, bury the id and
    /// record the abort unless the flow already completed or aborted.
    pub fn give_up(&mut self, flow: FlowId, ctx: &mut Ctx<'_>) {
        self.abort(flow);
        if ctx.metrics.abort_flow(flow, AbortCause::PeerSilent) {
            ctx.emit_fault(FaultEvent::FlowAborted { flow, cause: AbortCause::PeerSilent });
        }
    }

    /// Engine-initiated abort: drop local state and bury the id.
    pub fn abort(&mut self, flow: FlowId) {
        self.send.remove(flow);
        self.recv.remove(flow);
        self.dead.insert(flow, ());
    }

    /// Raise the tombstone and drop any leftover state so the relaunch (a
    /// fresh flow arrival) starts from a clean slate.
    pub fn restart(&mut self, flow: FlowId) {
        self.dead.remove(flow);
        self.send.remove(flow);
        self.recv.remove(flow);
    }

    /// A host crash wipes every byte of transport state, tombstones
    /// included (the engine re-buries each aborted flow right after).
    pub fn crash(&mut self) {
        self.send.clear();
        self.recv.clear();
        self.dead.clear();
    }
}

/// What a fired retry timer should do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retry {
    /// Recovery is someone else's business now: let the timer die.
    Quiet,
    /// The peer has been silent past [`PEER_SILENCE`]: abort the flow.
    GiveUp,
    /// Keep the timer alive. `resend` is set when a whole backoff interval
    /// passed in silence (re-introduce the flow to the peer); otherwise the
    /// peer was heard recently and the timer is merely re-armed.
    Fire {
        /// Whether to re-send the first-contact packets.
        resend: bool,
        /// Delay until the next fire.
        rearm_in: Time,
    },
}

/// Sender-side per-flow state shared by the proactive endpoints.
pub struct SendState {
    /// The flow as scheduled.
    pub desc: FlowDesc,
    /// The Aeolus pre-credit state machine.
    pub core: PreCreditSender,
    /// Set once anything at all came back from the receiver.
    pub heard_back: bool,
    /// Last time the receiver showed signs of life (peer-death watchdog and
    /// silence gate of the retry).
    pub last_heard: Time,
    /// Consecutive retry fires without a response (the backoff exponent).
    pub retry_fires: u32,
    /// Probe sequence, kept for retries (`None` outside probe recovery).
    pub probe_seq: Option<u64>,
    /// Most recent loss signal, for retransmission attribution.
    pub last_loss: Option<LossCause>,
    /// Set when the receiver's completion ACK arrives.
    pub completed: bool,
}

impl SendState {
    /// The receiver showed signs of life.
    pub fn heard(&mut self, now: Time) {
        self.heard_back = true;
        self.last_heard = now;
        self.retry_fires = 0;
    }

    /// Record `lost` newly declared bytes (no-op for zero).
    pub fn note_loss(&mut self, lost: u64, cause: LossCause, ctx: &mut Ctx<'_>) {
        if lost > 0 {
            self.last_loss = Some(cause);
            ctx.emit(TransportEvent::LossDetected { flow: self.desc.id, bytes: lost, cause });
        }
    }

    /// An explicit receiver request (NACK, RESEND) for `[start, end)`:
    /// requeue whatever of it was actually sent.
    pub fn requeue(&mut self, start: u64, end: u64, cause: LossCause, ctx: &mut Ctx<'_>) {
        let lost = self.core.requeue_lost(start, end);
        self.note_loss(lost, cause, ctx);
    }

    /// Handle `Ack { of_probe, end }` carrying `seq`: a probe ACK declares
    /// the unacked burst tail lost, an ACK of the whole message completes
    /// the flow, any other ACK declares the gap before it lost when `infer`
    /// (SACK inference is safe only on in-order fabrics).
    pub fn on_ack(&mut self, seq: u64, end: u64, of_probe: bool, infer: bool, ctx: &mut Ctx<'_>) {
        self.heard(ctx.now);
        let whole = seq == 0 && end >= self.desc.size;
        if of_probe {
            let lost = self.core.on_probe_ack();
            self.note_loss(lost, LossCause::Probe, ctx);
        } else if infer && !whole {
            let lost = self.core.on_ack(seq, end);
            self.note_loss(lost, LossCause::SackGap, ctx);
        } else {
            self.completed |= whole;
            self.core.on_ack_no_infer(seq, end);
        }
    }

    /// The next credit/grant/pull/slot-induced data packet, if any, with the
    /// `Retransmit` event attributed to the last-resort rule, the most
    /// recent loss signal, or `fallback` when none was recorded. The caller
    /// stamps priority / path tag / credit echo and sends it.
    pub fn next_scheduled(
        &mut self,
        mtu: u32,
        fallback: LossCause,
        ctx: &mut Ctx<'_>,
    ) -> Option<Packet> {
        let chunk = self.core.next_scheduled_chunk(mtu)?;
        if chunk.retransmit {
            let cause = if chunk.last_resort {
                LossCause::LastResort
            } else {
                self.last_loss.unwrap_or(fallback)
            };
            ctx.emit(TransportEvent::Retransmit {
                flow: self.desc.id,
                bytes: chunk.len as u64,
                cause,
            });
        }
        Some(data_packet(
            &self.desc,
            chunk.seq,
            chunk.len,
            TrafficClass::Scheduled,
            chunk.retransmit,
        ))
    }

    /// (Re-)send the probe at `prio`, if this flow has one.
    pub fn send_probe(&self, prio: u8, ctx: &mut Ctx<'_>) {
        if let Some(ps) = self.probe_seq {
            let mut probe = probe_packet(&self.desc, ps);
            probe.priority = prio;
            ctx.send(probe);
        }
    }

    /// Verdict for a fired retry timer. `done` is the protocol's "the
    /// receiver owns recovery from here" test.
    pub fn retry(&mut self, done: bool, cfg: &BaseConfig, now: Time) -> Retry {
        if done {
            return Retry::Quiet;
        }
        if peer_silent(self.last_heard, now) {
            return Retry::GiveUp;
        }
        let base = retry_base(cfg);
        let resend = now.saturating_sub(self.last_heard) >= backoff(base, self.retry_fires);
        if resend {
            self.retry_fires += 1;
        }
        Retry::Fire { resend, rearm_in: backoff(base, self.retry_fires) }
    }
}

/// Launch a flow's first RTT: `BurstStart`, the one-BDP unscheduled burst
/// (each packet passed through the protocol's `stamp`), `BurstStop`, then —
/// in the probe-recovery modes — the probe at `probe_prio`.
pub fn launch_first_rtt(
    flow: FlowDesc,
    cfg: &BaseConfig,
    probe_prio: u8,
    ctx: &mut Ctx<'_>,
    mut stamp: impl FnMut(&mut Packet),
) -> SendState {
    let budget = if cfg.mode.bursts() {
        cfg.aeolus.burst_budget(ctx.line_rate, cfg.base_rtt).min(flow.size)
    } else {
        0
    };
    let mut core = PreCreditSender::new(flow.size, budget);
    if budget > 0 {
        ctx.emit(TransportEvent::BurstStart { flow: flow.id, bytes: budget });
    }
    let mut sent = 0u64;
    while let Some(chunk) = core.next_burst_chunk(cfg.mtu_payload) {
        let mut pkt = data_packet(&flow, chunk.seq, chunk.len, TrafficClass::Unscheduled, false);
        stamp(&mut pkt);
        sent += chunk.len as u64;
        ctx.send(pkt);
    }
    if budget > 0 {
        ctx.emit(TransportEvent::BurstStop { flow: flow.id, sent });
    }
    let probe_seq = core.end_burst().filter(|_| cfg.mode.probe_recovery());
    let tx = SendState {
        desc: flow,
        core,
        heard_back: false,
        last_heard: ctx.now,
        retry_fires: 0,
        probe_seq,
        last_loss: None,
        completed: false,
    };
    tx.send_probe(probe_prio, ctx);
    tx
}

/// Receiver-side per-flow state shared by the proactive endpoints;
/// `proto` is the protocol's credit ledger.
pub struct RecvFlow<X> {
    /// The sending host.
    pub sender: NodeId,
    /// Dedupe, size and delivery bookkeeping.
    pub book: RecvBook,
    /// Last arrival, rewound to "now" by the stall scan to back off.
    pub last_arrival: Time,
    /// Last *real* arrival — never rewound, so it measures true peer
    /// silence for the death watchdog.
    pub last_progress: Time,
    /// Per-protocol state.
    pub proto: X,
}

impl<X> RecvFlow<X> {
    /// Something of this flow arrived.
    pub fn touch(&mut self, now: Time) {
        self.last_arrival = now;
        self.last_progress = now;
    }

    /// Book a probe and answer it.
    pub fn on_probe(&mut self, pkt: &Packet, ctx: &mut Ctx<'_>) {
        self.book.core.on_probe(pkt.seq, pkt.flow_size);
        ctx.send(probe_ack_packet(pkt.flow, ctx.host, self.sender, pkt.seq));
    }
}

/// A batch of missing ranges to re-request from one sender.
pub type ResendBatch = (FlowId, NodeId, Vec<(u64, u64)>);

impl<S, X> FlowTable<S, RecvFlow<X>> {
    /// Receive-side state for `pkt`'s flow, created on first contact
    /// (request, data or probe — whichever wins the race), with the message
    /// size learned from the header.
    pub fn recv_entry(
        &mut self,
        pkt: &Packet,
        now: Time,
        proto: impl FnOnce() -> X,
    ) -> &mut RecvFlow<X> {
        let rf = self.recv.get_or_insert_with(pkt.flow, || RecvFlow {
            sender: pkt.src,
            book: RecvBook::new(),
            last_arrival: now,
            last_progress: now,
            proto: proto(),
        });
        rf.book.learn_size(pkt.flow_size);
        rf
    }

    /// Give up on every incomplete receive flow whose sender has been dead
    /// past [`PEER_SILENCE`] despite backed-off re-requests.
    pub fn reap_silent_senders(&mut self, ctx: &mut Ctx<'_>) {
        let mut silent: Vec<FlowId> = self
            .recv
            .iter()
            .filter(|(_, rf)| !rf.book.is_complete() && peer_silent(rf.last_progress, ctx.now))
            .map(|(id, _)| id)
            .collect();
        silent.sort_unstable();
        for id in silent {
            self.give_up(id, ctx);
        }
    }

    /// One pass of the receiver stall scan. For each incomplete flow of
    /// known size, `stalled` — the protocol's staleness test — returns the
    /// ranges to re-request (empty = not stalled) after writing off whatever
    /// credit it presumes lost. Stalled flows are charged a timeout and
    /// backed off one scan period. Returns whether anything is still
    /// incomplete (re-arm the scan) and the batches in flow-id order, so
    /// emission never depends on slot order.
    pub fn stall_scan(
        &mut self,
        ctx: &mut Ctx<'_>,
        mut stalled: impl FnMut(&mut RecvFlow<X>, u64) -> Vec<(u64, u64)>,
    ) -> (bool, Vec<ResendBatch>) {
        let mut any_incomplete = false;
        let mut resends: Vec<ResendBatch> = Vec::new();
        for (id, rf) in self.recv.iter_mut() {
            if rf.book.is_complete() {
                continue;
            }
            any_incomplete = true;
            let Some(size) = rf.book.core.size() else { continue };
            let missing = stalled(rf, size);
            if !missing.is_empty() {
                ctx.metrics.note_timeout(id);
                rf.last_arrival = ctx.now;
                resends.push((id, rf.sender, missing));
            }
        }
        resends.sort_unstable_by_key(|&(id, _, _)| id);
        (any_incomplete, resends)
    }
}

/// Emit one `Resend` request per missing range.
pub fn send_resends(resends: Vec<ResendBatch>, ctx: &mut Ctx<'_>) {
    for (id, sender, missing) in resends {
        for (s, e) in missing {
            ctx.send(Packet::control(id, ctx.host, sender, s, PacketKind::Resend { end: e }));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::FirstRttMode;
    use aeolus_core::AeolusConfig;
    use aeolus_sim::units::us;

    fn cfg() -> BaseConfig {
        BaseConfig {
            mtu_payload: 1460,
            base_rtt: us(14),
            aeolus: AeolusConfig::default(),
            mode: FirstRttMode::Aeolus,
            disable_sack: false,
        }
    }

    fn state(launched_at: Time) -> SendState {
        SendState {
            desc: FlowDesc { id: FlowId(1), src: NodeId(0), dst: NodeId(1), size: 9_000, start: 0 },
            core: PreCreditSender::new(9_000, 9_000),
            heard_back: false,
            last_heard: launched_at,
            retry_fires: 0,
            probe_seq: Some(9_000),
            last_loss: None,
            completed: false,
        }
    }

    #[test]
    fn retry_backs_off_to_the_cap_then_gives_up_on_a_silent_peer() {
        let cfg = cfg();
        assert_eq!(retry_base(&cfg), ms(2), "20 x 14 us is below the 2 ms floor");
        let mut tx = state(0);
        let mut now = retry_base(&cfg);
        let mut intervals = Vec::new();
        loop {
            match tx.retry(false, &cfg, now) {
                Retry::Fire { resend, rearm_in } => {
                    assert!(resend, "total silence always re-sends");
                    intervals.push(rearm_in);
                    now += rearm_in;
                }
                verdict => {
                    assert_eq!(verdict, Retry::GiveUp);
                    break;
                }
            }
        }
        let want: Vec<Time> = [4, 8, 16, 32, 64, 128, 128, 128].map(ms).to_vec();
        assert_eq!(intervals, want);
        assert!(now >= PEER_SILENCE);
    }

    #[test]
    fn a_recently_heard_peer_re_arms_without_resending() {
        let cfg = cfg();
        let mut tx = state(0);
        tx.retry_fires = 3;
        tx.heard(ms(10));
        assert_eq!(tx.retry_fires, 0, "any sign of life resets the backoff");
        assert_eq!(
            tx.retry(false, &cfg, ms(11)),
            Retry::Fire { resend: false, rearm_in: ms(2) }
        );
        assert_eq!(tx.retry(false, &cfg, ms(12)), Retry::Fire { resend: true, rearm_in: ms(4) });
        assert_eq!(tx.retry(true, &cfg, ms(13)), Retry::Quiet);
    }

    #[test]
    fn tombstones_outlive_an_abort_until_restart_or_crash() {
        let mut flows: FlowTable<u8, u8> = FlowTable::default();
        flows.send.insert(FlowId(7), 1);
        flows.abort(FlowId(7));
        assert!(flows.is_dead(FlowId(7)) && flows.send.get(FlowId(7)).is_none());
        flows.restart(FlowId(7));
        assert!(!flows.is_dead(FlowId(7)));
        flows.abort(FlowId(7));
        flows.crash();
        assert!(!flows.is_dead(FlowId(7)), "a crash wipes tombstones too");
    }
}
