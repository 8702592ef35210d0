//! The one recovery core every endpoint drives.
//!
//! Aeolus is a *building block*: one first-RTT burst, one probe/ACK loss
//! detector and one retransmit-once rule plugged unchanged into every
//! proactive transport. `aeolus-core` factors the per-flow state machine
//! ([`PreCreditSender`]); this module factors the code that *drives* it and
//! keeps it alive under faults, so the endpoints differ only in their
//! credit / grant / pull / slot pacing loops:
//!
//! * [`FlowTable`] — send and receive flow maps of the flows in progress,
//!   with the one implementation of peer-silent give-up and engine abort —
//!   and the set of receive flows still in progress
//!   ([`FlowTable::recv_active`]), so no credit, grant, token or stall loop
//!   walks the flows a host has finished with. A finished or aborted flow
//!   needs no entry: the engine's record says which ends are done
//!   ([`Ctx::finished`]), it hands neither end of an aborted flow any of
//!   its packets until a restart, and a crash rebuilds the endpoint.
//! * [`SendState`] — the sender half shared by the five proactive
//!   endpoints: "heard from peer", ACK → loss declaration, retransmit cause
//!   attribution and the silence-gated capped-backoff [`Retry`] verdict.
//! * [`launch_first_rtt`] — `BurstStart` → stamped burst → `BurstStop` →
//!   probe.
//! * [`FlowTable::first_contact_retry`] — one fire of the §6 retry timer
//!   over that verdict; the protocol says only what to re-send.
//! * [`CreditLedger`] and [`Strikes`] — how a receiver accounts for credit
//!   it has issued and when it presumes that credit lost: the
//!   `issued − returned − forgiven` ledger of the pull / token / grant loops
//!   and the capped strike counter of the credit / slot loops, each with
//!   its staleness test and write-off.
//! * [`RecvFlow`] and [`FlowTable::stall_scan`] — the receiver stall-scan
//!   skeleton; each caller's closure is a ledger's staleness test at the
//!   protocol's threshold plus its range cap.

use aeolus_core::{PreCreditReceiver, PreCreditSender};
use aeolus_sim::telemetry::FaultEvent;
use aeolus_sim::units::{ms, Time};
use aeolus_sim::{
    AbortCause, Ctx, FlowDesc, FlowEnd, FlowId, FlowMap, LossCause, NodeId, Packet, PacketKind,
    TrafficClass, TransportEvent,
};

use crate::common::{
    ack_packet, data_ack_packet, data_packet, probe_ack_packet, probe_packet, BaseConfig,
    FirstRttMode,
};

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

/// Staleness threshold of a credit-ledger stall scan (pulls, tokens,
/// grants): the RTO where recovery is timeout-driven by design (the Blind
/// Homa / pHost baselines pass theirs), otherwise 20 RTTs floored at 1 ms.
/// The test is gated on outstanding credit there, so it only needs to exceed
/// worst-case in-flight drain time and loaded queueing is never mistaken
/// for a stall.
pub fn stale_after(cfg: &BaseConfig, blind_rto: Option<Time>) -> Time {
    match blind_rto {
        Some(rto) if cfg.mode == FirstRttMode::Blind => rto,
        _ => (20 * cfg.base_rtt).max(ms(1)),
    }
}

/// Base stall window of a strike-counted stall scan (credits, slots): an
/// incomplete flow with no arrivals for this long is deemed stalled (a lost
/// scheduled packet). A backstop for pathological loss, floored at 1 ms.
pub fn stall_after(cfg: &BaseConfig) -> Time {
    (8 * cfg.base_rtt).max(ms(1))
}

/// Per-host flow state: both roles' flow maps of the flows in progress,
/// and the set of receive flows among them.
///
/// When a flow aborts — engine-initiated after a node crash, or
/// transport-initiated after the peer-silence watchdog fires — its state
/// goes and nothing marks it: the engine stops the flow's packets (data
/// still crossing the fabric, paced credits that survived the purge) before
/// either end until a restart, so none can resurrect per-flow state, and
/// the relaunch starts from an empty slate.
///
/// When a flow finishes, its state goes and the engine marks the end done
/// ([`Ctx::finish`]): a receive flow at its last byte ([`Self::recv_done`]),
/// a send flow once the whole message is acknowledged — which an
/// ExpressPass sender learns only of a message its receiver ACKs whole
/// (DESIGN.md, "The active set"). A straggler — a duplicate, a late probe
/// or credit, a timer — finds the end done ([`Ctx::finished`]; the receive
/// lookups return `None` for it) and gets the reaction the full state would
/// have produced from the flow's size, without re-creating any. So the
/// table holds the flows in progress only, whatever the history.
pub struct FlowTable<S, R> {
    /// Flows this host sends, until it learns the whole message arrived.
    pub send: FlowMap<FlowId, S>,
    /// Flows this host receives and has not received whole ([`Self::recv`],
    /// [`Self::recv_mut`]). Private so that entries come and go only through
    /// the methods that keep the active set exact.
    recv: FlowMap<FlowId, R>,
    /// The receive flows in `recv` that joined the active set — every
    /// entry of the receiver-driven endpoints, none of DCTCP's — as `recv`
    /// slot handles (no hash probe per member). A flow enters on first
    /// contact ([`Self::recv_entry`]) and leaves when its entry is removed,
    /// the handle dropped *before* the entry because the map recycles the
    /// slot. **Unordered** (`swap_remove`), and that is safe only because
    /// every reader reduces order-independently: a length, a sort or
    /// minimum on the unique `(remaining, id)`, an `any`, per-flow updates
    /// whose emitted batches are sorted by id. A new reader must too.
    active: Vec<u32>,
}

impl<S, R> Default for FlowTable<S, R> {
    fn default() -> Self {
        FlowTable { send: FlowMap::new(), recv: FlowMap::new(), active: Vec::new() }
    }
}

impl<S, R> FlowTable<S, R> {
    /// Peer-silence abort (either role): drop local state and record the
    /// abort unless the flow already completed or aborted.
    pub fn give_up(&mut self, flow: FlowId, ctx: &mut Ctx<'_>) {
        self.abort(flow);
        if ctx.metrics.abort_flow(flow, AbortCause::PeerSilent) {
            ctx.emit_fault(FaultEvent::FlowAborted { flow, cause: AbortCause::PeerSilent });
        }
    }

    /// Engine-initiated abort: drop local state. Only an incomplete flow
    /// aborts, so no end of it is done.
    pub fn abort(&mut self, flow: FlowId) {
        self.send.remove(flow);
        self.remove_recv(flow);
    }

    /// Receive-side state of `flow`, if it is in progress.
    pub fn recv(&self, flow: FlowId) -> Option<&R> {
        self.recv.get(flow)
    }

    /// Receive-side state of `flow`, mutably.
    pub fn recv_mut(&mut self, flow: FlowId) -> Option<&mut R> {
        self.recv.get_mut(flow)
    }

    /// Receive-side state of `flow`, made by `make` on first contact, that
    /// never joins the active set: for a receiver with no loop over its
    /// flows (DCTCP). `None` for a flow already received whole. The
    /// receiver-driven endpoints use [`Self::recv_entry`].
    pub fn recv_or_insert_with(
        &mut self,
        flow: FlowId,
        ctx: &Ctx<'_>,
        make: impl FnOnce() -> R,
    ) -> Option<&mut R> {
        if let Some(slot) = self.recv.slot_of(flow) {
            return Some(self.recv.at_mut(slot).1);
        }
        if ctx.finished(flow, FlowEnd::Receiver).is_some() {
            return None;
        }
        Some(self.recv.get_or_insert_with(flow, make))
    }

    /// The receive flow `flow` is complete: its entry (and active-set
    /// handle) goes and the engine marks this end done. Call it on the
    /// `completed` verdict of [`PreCreditReceiver::on_data`], which fires
    /// once per flow. O(active flows) per completion, nothing per packet.
    pub fn recv_done(&mut self, flow: FlowId, ctx: &mut Ctx<'_>) {
        debug_assert!(self.recv.contains_key(flow), "{flow:?} completed without an entry");
        self.remove_recv(flow);
        ctx.finish(flow, FlowEnd::Receiver);
    }

    /// How many receive flows are still incomplete. O(1).
    pub fn recv_active_len(&self) -> usize {
        self.active.len()
    }

    /// What the table holds of `flow`, for tests.
    #[cfg(test)]
    pub(crate) fn holding(&self, flow: FlowId) -> Holding {
        Holding {
            send: self.send.contains_key(flow),
            recv: self.recv.contains_key(flow),
            active: self.recv_active_len(),
        }
    }

    /// Drop `flow`'s handle from the active set, if it holds one.
    fn leave_active(&mut self, flow: FlowId) -> bool {
        let Some(slot) = self.recv.slot_of(flow) else { return false };
        let at = self.active.iter().position(|&s| s == slot);
        at.map(|i| self.active.swap_remove(i)).is_some()
    }

    /// Remove `flow`'s receive entry, handle first: the map recycles the
    /// slot, so a handle that outlived the entry would alias the next flow.
    fn remove_recv(&mut self, flow: FlowId) {
        self.leave_active(flow);
        self.recv.remove(flow);
    }

    /// One fire of `flow`'s §6 first-contact retry timer, driven by the
    /// shared [`Retry`] verdict: give up on a dead peer, or — after a whole
    /// backoff interval of silence — charge a timeout and let `resend`
    /// re-introduce the flow (probe, request: the protocol's business).
    /// `tx` finds the shared sender state in the protocol's; `done` is the
    /// protocol's "the receiver owns recovery from here" test. Returns the
    /// delay to re-arm the timer in, `None` to let it die.
    pub fn first_contact_retry(
        &mut self,
        flow: FlowId,
        cfg: &BaseConfig,
        ctx: &mut Ctx<'_>,
        tx: impl FnOnce(&mut S) -> &mut SendState,
        done: impl FnOnce(&SendState) -> bool,
        resend: impl FnOnce(&SendState, &mut Ctx<'_>),
    ) -> Option<Time> {
        let tx = tx(self.send.get_mut(flow)?);
        match tx.retry(done(tx), cfg, ctx.now) {
            Retry::Quiet => None,
            Retry::GiveUp => {
                self.give_up(flow, ctx);
                None
            }
            Retry::Fire { resend: silent, rearm_in } => {
                if silent {
                    ctx.metrics.note_timeout(flow);
                    resend(tx, ctx);
                }
                Some(rearm_in)
            }
        }
    }
}

/// What a [`FlowTable`] holds of one flow (and how many flows are
/// active), for tests.
#[cfg(test)]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Holding {
    pub send: bool,
    pub recv: bool,
    pub active: usize,
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

/// A receiver's loss report (NACK, RESEND) for `[start, end)` reaching the
/// finished sender of the `size`-byte `flow` ([`Ctx::finished`]). Every
/// byte was sent and acknowledged, so the sender reports the bytes it would
/// requeue — the range clamped to the message, as [`SendState::requeue`]
/// clamps to what was sent — and has nothing to retransmit.
pub fn requeue_finished(
    flow: FlowId,
    size: u64,
    start: u64,
    end: u64,
    cause: LossCause,
    ctx: &mut Ctx<'_>,
) {
    let end = end.min(size);
    if start < end {
        ctx.emit(TransportEvent::LossDetected { flow, bytes: end - start, cause });
    }
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
}

impl SendState {
    /// The receiver showed signs of life.
    pub fn heard(&mut self, now: Time) {
        self.heard_back = true;
        self.last_heard = now;
        self.retry_fires = 0;
    }

    /// A credit (pull, token) worth `bytes` arrived: the receiver is alive.
    pub fn on_credit(&mut self, bytes: u64, ctx: &mut Ctx<'_>) {
        self.heard(ctx.now);
        ctx.emit(TransportEvent::CreditReceipt { flow: self.desc.id, bytes });
    }

    /// Record `lost` newly declared bytes (no-op for zero).
    pub fn note_loss(&mut self, lost: u64, cause: LossCause, ctx: &mut Ctx<'_>) {
        if lost > 0 {
            self.last_loss = Some(cause);
            ctx.emit(TransportEvent::LossDetected { flow: self.desc.id, bytes: lost, cause });
        }
    }

    /// An explicit receiver request (NACK, RESEND) for `[start, end)`: the
    /// receiver is alive; requeue whatever of the range was actually sent.
    pub fn requeue(&mut self, start: u64, end: u64, cause: LossCause, ctx: &mut Ctx<'_>) {
        self.heard(ctx.now);
        let lost = self.core.requeue_lost(start, end);
        self.note_loss(lost, cause, ctx);
    }

    /// Handle `Ack { of_probe, end }` carrying `seq`: a probe ACK declares
    /// the unacked burst tail lost, an ACK of the whole message completes
    /// the flow, any other ACK declares the gap before it lost when `infer`
    /// (SACK inference is safe only on in-order fabrics). Returns whether
    /// this is the receiver's completion ACK.
    pub fn on_ack(
        &mut self,
        seq: u64,
        end: u64,
        of_probe: bool,
        infer: bool,
        ctx: &mut Ctx<'_>,
    ) -> bool {
        self.heard(ctx.now);
        let whole = seq == 0 && end >= self.desc.size;
        if of_probe {
            let lost = self.core.on_probe_ack();
            self.note_loss(lost, LossCause::Probe, ctx);
            false
        } else if infer && !whole {
            let lost = self.core.on_ack(seq, end);
            self.note_loss(lost, LossCause::SackGap, ctx);
            false
        } else {
            self.core.on_ack_no_infer(seq, end);
            whole
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
        cfg.rtt_bytes(ctx.line_rate).min(flow.size)
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
    };
    tx.send_probe(probe_prio, ctx);
    tx
}

/// What a receiver has issued to one sender and not yet seen honoured:
/// `opening balance + issued − returned − forgiven`, counted in packets
/// (pulls, tokens) or bytes (grants). The fields are private so the balance
/// can never underflow and a write-off can never exceed it.
#[derive(Debug, Default)]
pub struct CreditLedger {
    /// Credit the sender holds without having been sent any (NDP's initial
    /// window): outstanding from the start, absent from the sequence number.
    prepaid: u64,
    issued: u64,
    returned: u64,
    forgiven: u64,
}

impl CreditLedger {
    /// A ledger opening with `prepaid` credit already in the sender's hands.
    pub fn with_prepaid(prepaid: u64) -> CreditLedger {
        CreditLedger { prepaid, ..CreditLedger::default() }
    }

    /// The opening balance.
    pub fn prepaid(&self) -> u64 {
        self.prepaid
    }

    /// Issue `n` more credit.
    pub fn issue(&mut self, n: u64) {
        self.issued += n;
    }

    /// Total issued so far — the pull / token / grant sequence number.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// `n` credit came back (a transmission it funded arrived).
    pub fn returned(&mut self, n: u64) {
        self.returned += n;
    }

    /// Credit neither returned nor written off.
    pub fn outstanding(&self) -> u64 {
        (self.prepaid + self.issued).saturating_sub(self.returned + self.forgiven)
    }

    /// Write off up to `n` outstanding credit as lost, so fresh credit flows
    /// for the retransmissions.
    pub fn write_off(&mut self, n: u64) {
        self.forgiven += n.min(self.outstanding());
    }

    /// How much to issue to bring the outstanding credit up to `want`.
    pub fn deficit(&self, want: u64) -> u64 {
        want.saturating_sub(self.outstanding())
    }

    /// The staleness test: credit is outstanding and nothing arrived for
    /// `stale` — in-flight packets would have drained long before, so the
    /// fabric lost them (zero outstanding = waiting on our own pacer or the
    /// SRPT order, not on the network). `timeout_driven` drops the
    /// outstanding gate for the Blind baselines, whose only loss signal is
    /// the timeout. When stale, everything outstanding is written off.
    pub fn presume_lost(&mut self, idle: Time, stale: Time, timeout_driven: bool) -> bool {
        let outstanding = self.outstanding();
        if (!timeout_driven && outstanding == 0) || idle < stale {
            return false;
        }
        self.forgiven += outstanding;
        true
    }
}

/// Consecutive stall-scan resends without progress, capped: where the
/// credit is not ledgered per flow (ExpressPass credits, Fastpass slots)
/// the receiver backs its stall window off instead, so a dead sender is
/// probed ever more gently. Reset on data arrival.
#[derive(Debug, Default)]
pub struct Strikes(u32);

impl Strikes {
    const CAP: u32 = 4;

    /// Data arrived: back to the base window.
    pub fn reset(&mut self) {
        self.0 = 0;
    }

    /// The staleness test: nothing arrived for `base << strikes`. When
    /// stale, the next window doubles (up to 16×).
    pub fn presume_lost(&mut self, idle: Time, base: Time) -> bool {
        if idle < base << self.0 {
            return false;
        }
        self.0 = (self.0 + 1).min(Self::CAP);
        true
    }
}

/// Receiver-side per-flow state shared by the proactive endpoints;
/// `proto` is the protocol's credit state.
pub struct RecvFlow<X> {
    /// The sending host.
    pub sender: NodeId,
    /// The receive ledger: dedupe, size and delivery into the metrics.
    pub book: PreCreditReceiver,
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

    /// Time since the last arrival (or the last stall-scan back-off).
    pub fn idle(&self, now: Time) -> Time {
        now.saturating_sub(self.last_arrival)
    }

    /// Book a data packet and answer it the Aeolus way: a per-packet ACK
    /// for unscheduled data in the probe-recovery modes, and a completion
    /// ACK (the RPC-reply analogue) in every mode so senders can retire
    /// state and stop their timers. Returns whether this packet completed
    /// the message — the caller's cue for [`FlowTable::recv_done`].
    #[must_use = "a completed flow must leave the table"]
    pub fn on_data(&mut self, pkt: &Packet, probe_mode: bool, ctx: &mut Ctx<'_>) -> bool {
        let completed = self.book.on_data(pkt, ctx);
        answer_data(pkt, probe_mode, ctx);
        if completed {
            ctx.send(ack_packet(pkt.flow, ctx.host, self.sender, 0, pkt.flow_size));
        }
        completed
    }

    /// The first `cap` missing ranges of a `size`-byte message.
    pub fn missing(&self, size: u64, cap: usize) -> Vec<(u64, u64)> {
        self.book.missing_below(size).into_iter().take(cap).collect()
    }
}

impl RecvFlow<CreditLedger> {
    /// Credit this flow still deserves: enough outstanding to cover its
    /// remaining bytes in whole `mtu` packets — each worth `unit` of the
    /// ledger (1 where it counts packets, `mtu` where it counts bytes, so
    /// the accounting stays exact when retransmitted chunks are fragmented)
    /// — but never more than `window` outstanding. Zero while the size is
    /// unknown: a flow is active before any header has told its size.
    pub fn deficit(&self, mtu: u64, unit: u64, window: u64) -> u64 {
        let want = |rem: u64| (rem.div_ceil(mtu) * unit).min(window);
        self.book.remaining().map_or(0, |rem| self.proto.deficit(want(rem)))
    }
}

/// Answer a probe (its size header was booked on arrival, if its flow is
/// still in progress). The ACK goes to the prober, the flow's sender.
pub fn answer_probe(pkt: &Packet, ctx: &mut Ctx<'_>) {
    ctx.send(probe_ack_packet(pkt.flow, ctx.host, pkt.src, pkt.seq));
}

/// The Aeolus per-packet ACK of data packet `pkt`, sent to its sender in
/// the probe-recovery modes for unscheduled data. A flow's data gets it
/// whether or not the flow is still in progress ([`RecvFlow::on_data`]):
/// a finished flow's duplicate books nothing and is answered with this
/// alone, its completion ACK having gone out once.
pub fn answer_data(pkt: &Packet, probe_mode: bool, ctx: &mut Ctx<'_>) {
    if probe_mode && pkt.class == TrafficClass::Unscheduled {
        ctx.send(data_ack_packet(pkt, ctx.host, pkt.src));
    }
}

/// A batch of missing ranges to re-request from one sender.
pub type ResendBatch = (FlowId, NodeId, Vec<(u64, u64)>);

impl<S, X> FlowTable<S, RecvFlow<X>> {
    /// Receive-side state for `pkt`'s flow, created on first contact
    /// (request, data or probe — whichever wins the race), with the message
    /// size learned from the header. `None` for a flow this host has
    /// received whole: the packet is a straggler.
    pub fn recv_entry(
        &mut self,
        pkt: &Packet,
        ctx: &Ctx<'_>,
        proto: impl FnOnce() -> X,
    ) -> Option<&mut RecvFlow<X>> {
        let slot = match self.recv.slot_of(pkt.flow) {
            Some(slot) => slot,
            None if ctx.finished(pkt.flow, FlowEnd::Receiver).is_some() => return None,
            None => {
                let fresh = RecvFlow {
                    sender: pkt.src,
                    book: PreCreditReceiver::default(),
                    last_arrival: ctx.now,
                    last_progress: ctx.now,
                    proto: proto(),
                };
                self.recv.insert(pkt.flow, fresh);
                // A new flow has received nothing, so it is incomplete
                // whether or not this header tells its size.
                let slot = self.recv.slot_of(pkt.flow).expect("just inserted");
                self.active.push(slot);
                slot
            }
        };
        let rf = self.recv.at_mut(slot).1;
        // Replies go to `pkt.src` ([`answer_probe`], [`answer_data`]), the
        // same host whether or not the flow is still in progress.
        debug_assert_eq!(rf.sender, pkt.src, "{:?} from a second sender", pkt.flow);
        rf.book.learn_size(pkt.flow_size);
        Some(rf)
    }

    /// [`Self::recv_entry`] for a packet that counts as an arrival.
    pub fn recv_arrival(
        &mut self,
        pkt: &Packet,
        ctx: &Ctx<'_>,
        proto: impl FnOnce() -> X,
    ) -> Option<&mut RecvFlow<X>> {
        let rf = self.recv_entry(pkt, ctx, proto)?;
        rf.touch(ctx.now);
        Some(rf)
    }

    /// The incomplete receive flows, in no particular order — see the
    /// `active` field for what a reader may do with them.
    pub fn recv_active(&self) -> impl Iterator<Item = (FlowId, &RecvFlow<X>)> {
        self.active.iter().map(|&slot| {
            let (id, rf) = self.recv.at(slot);
            debug_assert!(!rf.book.is_complete(), "{id:?} is complete but still active");
            (id, rf)
        })
    }

    /// SRPT's head: the `n` incomplete receive flows of known size with the
    /// fewest bytes remaining, left in `out` as ranked `(remaining, id)` —
    /// unique keys, so the choice and the ranks do not depend on the active
    /// set's order. Only those `n` are sorted (PDQ's bounded "most critical
    /// flows" list): a heavy incast keeps thousands of messages waiting, and
    /// this runs per data packet.
    pub fn srpt_top(&self, n: usize, out: &mut Vec<(u64, FlowId)>) {
        out.clear();
        out.extend(self.recv_active().filter_map(|(id, rf)| Some((rf.book.remaining()?, id))));
        if n > 0 && out.len() > n {
            out.select_nth_unstable(n - 1);
        }
        out.truncate(n);
        out.sort_unstable();
    }

    /// Give up on every incomplete receive flow whose sender has been dead
    /// past [`PEER_SILENCE`] despite backed-off re-requests.
    pub fn reap_silent_senders(&mut self, ctx: &mut Ctx<'_>) {
        let mut silent: Vec<FlowId> = self
            .recv_active()
            .filter(|(_, rf)| peer_silent(rf.last_progress, ctx.now))
            .map(|(id, _)| id)
            .collect();
        silent.sort_unstable();
        for id in silent {
            self.give_up(id, ctx);
        }
    }

    /// One pass of the receiver stall scan. For each incomplete flow of
    /// known size, `stalled` — the flow's ledger test ([`CreditLedger`] or
    /// [`Strikes`]) at the protocol's threshold — returns the ranges to
    /// re-request (empty = not stalled). Stalled flows are charged a timeout and
    /// backed off one scan period. Returns whether anything is still
    /// incomplete (re-arm the scan) and the batches in flow-id order, so
    /// emission never depends on the order of the active set.
    pub fn stall_scan(
        &mut self,
        ctx: &mut Ctx<'_>,
        mut stalled: impl FnMut(&mut RecvFlow<X>, u64) -> Vec<(u64, u64)>,
    ) -> (bool, Vec<ResendBatch>) {
        let mut resends: Vec<ResendBatch> = Vec::new();
        for &slot in &self.active {
            let (id, rf) = self.recv.at_mut(slot);
            debug_assert!(!rf.book.is_complete(), "{id:?} is complete but still active");
            let Some(size) = rf.book.size() else { continue };
            let missing = stalled(rf, size);
            if !missing.is_empty() {
                ctx.metrics.note_timeout(id);
                rf.last_arrival = ctx.now;
                resends.push((id, rf.sender, missing));
            }
        }
        resends.sort_unstable_by_key(|&(id, _, _)| id);
        (!self.active.is_empty(), resends)
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
    use std::collections::{BTreeMap, BTreeSet};

    use super::*;
    use crate::common::request_packet;
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
    fn ledger_balance_never_underflows_and_write_off_is_bounded() {
        let mut l = CreditLedger::default();
        l.issue(3);
        l.returned(5);
        assert_eq!(l.outstanding(), 0, "more returned than issued (duplicates) saturates");
        assert_eq!(l.deficit(2), 2);
        l.issue(4);
        assert_eq!(l.outstanding(), 2);
        l.write_off(10);
        assert_eq!(l.outstanding(), 0, "a write-off never exceeds what is outstanding");
        l.issue(1);
        assert_eq!(l.outstanding(), 1, "an over-sized write-off leaves no debt behind");
        assert_eq!((l.deficit(1), l.deficit(0)), (0, 0), "deficit saturates at 0");
        assert_eq!(l.issued(), 8);
    }

    #[test]
    fn prepaid_credit_is_outstanding_but_not_in_the_sequence_number() {
        let mut l = CreditLedger::with_prepaid(5);
        assert_eq!((l.prepaid(), l.outstanding(), l.issued()), (5, 5, 0));
        l.returned(2);
        l.issue(1);
        assert_eq!((l.outstanding(), l.issued()), (4, 1));
        assert_eq!(l.deficit(5), 1);
    }

    #[test]
    fn ledger_staleness_needs_outstanding_credit_unless_timeout_driven() {
        let mut l = CreditLedger::default();
        assert!(!l.presume_lost(ms(5), ms(1), false), "nothing outstanding: waiting on us");
        assert!(l.presume_lost(ms(5), ms(1), true), "the Blind baselines go by the clock");
        l.issue(3);
        assert!(!l.presume_lost(us(999), ms(1), false), "not idle long enough");
        assert!(l.presume_lost(ms(1), ms(1), false));
        assert_eq!(l.outstanding(), 0, "the stale credit is written off");
        assert!(!l.presume_lost(ms(9), ms(1), false), "and is not presumed lost twice");
    }

    #[test]
    fn strikes_double_the_stall_window_up_to_the_cap_and_reset_on_progress() {
        let mut s = Strikes::default();
        for window in [1, 2, 4, 8, 16, 16, 16].map(ms) {
            assert!(!s.presume_lost(window - 1, ms(1)), "{window} ps window, 1 ps early");
            assert!(s.presume_lost(window, ms(1)), "capped at 16x");
        }
        s.reset();
        assert!(s.presume_lost(ms(1), ms(1)), "progress restores the base window");
    }

    #[test]
    fn thresholds_are_floored_and_blind_baselines_use_their_rto() {
        let mut cfg = cfg();
        assert_eq!(stale_after(&cfg, None), ms(1), "20 x 14 us is below the 1 ms floor");
        assert_eq!(stall_after(&cfg), ms(1));
        assert_eq!(stale_after(&cfg, Some(ms(10))), ms(1), "probe recovery ignores the RTO");
        cfg.mode = FirstRttMode::Blind;
        assert_eq!(stale_after(&cfg, Some(ms(10))), ms(10));
        assert_eq!(stale_after(&cfg, None), ms(1), "NDP's backstop has no RTO in any mode");
        cfg.base_rtt = us(200);
        assert_eq!((stale_after(&cfg, None), stall_after(&cfg)), (ms(4), us(1600)));
    }

    type Table = FlowTable<(), RecvFlow<CreditLedger>>;

    // The two hosts of `with_ctx`'s network (node 0 is its switch).
    const ME: NodeId = NodeId(1);
    const PEER: NodeId = NodeId(2);
    const CHUNK: u32 = 1000;

    /// Flow `id` as the model's sender would describe it: 1–5 chunks.
    fn desc(id: u64) -> FlowDesc {
        FlowDesc { id: FlowId(id), src: PEER, dst: ME, size: (1 + id % 5) * CHUNK as u64, start: 0 }
    }

    /// Chunk `k` of flow `id` as a data packet (it carries the size, as
    /// every data packet `data_packet` builds does).
    fn chunk(id: u64, k: u64) -> Packet {
        data_packet(&desc(id), k * CHUNK as u64, CHUNK, TrafficClass::Unscheduled, false)
    }

    /// What every endpoint does with a data packet, minus the protocol: open
    /// or find the flow, book the bytes, tell the table on completion (a
    /// finished flow's packet books nothing). The run metrics learn of each
    /// flow on its first chunk, as the engine would have scheduled it.
    fn deliver(t: &mut Table, pkt: &Packet, ctx: &mut Ctx<'_>) {
        if ctx.metrics.flow(pkt.flow).is_none() {
            ctx.metrics.flow_scheduled(desc(pkt.flow.0));
        }
        let Some(rf) = t.recv_arrival(pkt, ctx, CreditLedger::default) else { return };
        if rf.book.on_data(pkt, ctx) {
            t.recv_done(pkt.flow, ctx);
        }
    }

    fn deliver_all(t: &mut Table, id: u64, ctx: &mut Ctx<'_>) {
        for k in 0..desc(id).size / CHUNK as u64 {
            deliver(t, &chunk(id, k), ctx);
        }
    }

    /// The active set against the scan it replaced — every entry of `recv`
    /// filtered for "incomplete" — which is every entry: a completed flow
    /// leaves `recv` and the engine marks it done, and no flow is both.
    fn assert_active_is_the_incomplete_flows(t: &Table, ctx: &Ctx<'_>, step: &str) {
        let mut active: Vec<FlowId> = t.active.iter().map(|&slot| t.recv.at(slot).0).collect();
        let mut scan: Vec<FlowId> =
            t.recv.iter().filter(|(_, rf)| !rf.book.is_complete()).map(|(id, _)| id).collect();
        active.sort_unstable();
        scan.sort_unstable();
        assert_eq!(active, scan, "after {step}");
        assert_eq!(t.recv_active_len(), t.recv.len(), "after {step}: a complete flow stayed");
        let done = |id| ctx.finished(id, FlowEnd::Receiver).is_some();
        assert!(t.recv.iter().all(|(id, _)| !done(id)), "after {step}");
    }

    /// The flows whose receiver end the engine marks done, by id.
    fn received(ctx: &Ctx<'_>) -> Vec<u64> {
        let done = ctx.metrics.flows().filter(|rec| rec.is_done(FlowEnd::Receiver));
        done.map(|rec| rec.desc.id.0).collect()
    }

    /// Only the engine can make a `Ctx`, so `body` runs as `ME`'s
    /// flow-arrival handler on a two-host switch.
    fn with_ctx<F: FnOnce(&mut Ctx<'_>) + 'static>(body: F) {
        use aeolus_sim::topology::{single_switch, LinkParams};
        use aeolus_sim::units::Rate;
        use aeolus_sim::{DropTailQueue, Endpoint, PortRole, Queue};

        struct Script<F>(Option<F>);
        impl<F: FnOnce(&mut Ctx<'_>)> Endpoint for Script<F> {
            fn on_flow_arrival(&mut self, _flow: FlowDesc, ctx: &mut Ctx<'_>) {
                (self.0.take().expect("one arrival"))(ctx);
            }
            fn on_packet(&mut self, _pkt: Packet, _ctx: &mut Ctx<'_>) {}
            fn on_timer(&mut self, _timer: aeolus_sim::Timer, _ctx: &mut Ctx<'_>) {}
        }

        let qf = |_: Rate, _: PortRole| Queue::from(DropTailQueue::new(1 << 20));
        let mut topo = single_switch(2, LinkParams::uniform(Rate::gbps(10), us(1)), &qf);
        assert_eq!(topo.hosts, [ME, PEER]);
        topo.net.set_endpoint(ME, Box::new(Script(Some(body))));
        topo.net.set_endpoint(PEER, Box::new(Script(None::<F>)));
        topo.net.schedule_flow(FlowDesc { id: FlowId(0), src: ME, dst: PEER, size: 1, start: 0 });
        topo.net.run_to_completion(ms(1));
    }

    /// A stall scan that finds every flow it is shown stalled: how many it
    /// was shown, and the batches it returned.
    fn scan_everything(t: &mut Table, ctx: &mut Ctx<'_>) -> (usize, Vec<ResendBatch>) {
        let mut shown = 0;
        let (any_incomplete, batches) = t.stall_scan(ctx, |rf, size| {
            shown += 1;
            rf.missing(size, 8)
        });
        assert_eq!(any_incomplete, t.recv_active_len() > 0);
        (shown, batches)
    }

    /// The model test of the active set: a seeded mix of everything that
    /// can happen to a receive flow, with the set compared against the full
    /// scan after every step.
    #[test]
    fn active_set_equals_the_incomplete_scan_under_a_random_history() {
        with_ctx(|ctx| {
            let mut rng = aeolus_sim::SimRng::seed_from_u64(0xAE01);
            let mut t = Table::default();
            let mut fresh = 1_000u64;
            let (mut seen, mut most_done) = ([0usize; 8], 0);
            // The chunks each flow has delivered since it (re)started or the
            // last crash rebuilt the table: a flow with all of them is done.
            let mut got: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
            // The flows aborted and not yet restarted: the engine hands the
            // table none of their packets, whatever the table holds.
            let mut aborted: BTreeSet<u64> = BTreeSet::new();
            for step in 0..20_000 {
                let id = 1 + rng.below(40);
                let op = if step % 400 == 399 { 7 } else { rng.index(7) };
                seen[op] += 1;
                let what = match op {
                    // First contact (or a repeat) by request, the size known
                    // or — a header that does not carry it — learned later.
                    0 if !aborted.contains(&id) => {
                        let mut req = request_packet(&desc(id));
                        if rng.chance(0.5) {
                            req.flow_size = 0;
                        }
                        t.recv_entry(&req, ctx, CreditLedger::default);
                        "request"
                    }
                    1 if !aborted.contains(&id) => {
                        let probe = probe_packet(&desc(id), desc(id).size);
                        t.recv_arrival(&probe, ctx, CreditLedger::default);
                        answer_probe(&probe, ctx);
                        "probe"
                    }
                    // Data: first contact, progress, the completing packet
                    // or a duplicate after completion, as it falls.
                    2 | 3 if !aborted.contains(&id) => {
                        let k = rng.below(desc(id).size / CHUNK as u64);
                        deliver(&mut t, &chunk(id, k), ctx);
                        got.entry(id).or_default().insert(k);
                        "data"
                    }
                    // Only an incomplete flow aborts.
                    4 if ctx.finished(FlowId(id), FlowEnd::Receiver).is_none()
                        && aborted.insert(id) =>
                    {
                        // An abort frees the slot; the next new flow takes it.
                        let freed = t.recv.slot_of(FlowId(id));
                        t.abort(FlowId(id));
                        got.remove(&id);
                        // A fresh flow of two chunks or more: one chunk
                        // leaves it open, in the slot.
                        fresh += if fresh % 5 == 4 { 2 } else { 1 };
                        deliver(&mut t, &chunk(fresh, 0), ctx);
                        got.entry(fresh).or_default().insert(0);
                        if freed.is_some() {
                            assert_eq!(t.recv.slot_of(FlowId(fresh)), freed, "slot not reused");
                        }
                        "abort + new flow in the freed slot"
                    }
                    // Only an aborted flow relaunches, and the abort left
                    // nothing to wipe.
                    5 if aborted.remove(&id) => {
                        assert!(t.recv.get(FlowId(id)).is_none(), "step {step}: a zombie");
                        "restart"
                    }
                    6 => {
                        let known =
                            t.recv_active().filter(|(_, rf)| rf.book.size().is_some()).count();
                        assert_eq!(scan_everything(&mut t, ctx).0, known, "step {step}");
                        "stall scan"
                    }
                    // A crash rebuilds the endpoint, table and all, and the
                    // engine forgets which ends it was done with; the
                    // aborted flows stay aborted.
                    7 => {
                        t = Table::default();
                        ctx.metrics.forget_done(ME);
                        got.clear();
                        "crash"
                    }
                    _ => "an aborted flow's packet, or a finished one's abort: skipped",
                };
                let step = format!("step {step}: {what} on {id}");
                assert_active_is_the_incomplete_flows(&t, ctx, &step);
                // Completed flows left `recv` and are recognised as done —
                // all of them and only them.
                let done: Vec<u64> = got
                    .iter()
                    .filter(|&(&f, chunks)| chunks.len() as u64 == desc(f).size / CHUNK as u64)
                    .map(|(&f, _)| f)
                    .collect();
                assert_eq!(received(ctx), done, "{step}");
                most_done = most_done.max(done.len());
            }
            assert!(seen.iter().all(|&n| n > 0), "an operation never ran: {seen:?}");
            assert!(most_done >= 10, "completed flows should be marked done: {most_done}");
        });
    }

    /// The set is unordered; nothing a reader computes from it may be. Two
    /// tables meet the same flows in different orders (and lose different
    /// members to `swap_remove` on the way) and must agree on the stall
    /// scan's batches and on SRPT's head.
    #[test]
    fn scan_batches_and_srpt_head_do_not_depend_on_first_contact_order() {
        with_ctx(|ctx| {
            let build = |order: &[u64], ctx: &mut Ctx<'_>| {
                let mut t = Table::default();
                for &id in order {
                    deliver(&mut t, &chunk(id, 0), ctx);
                    if id % 7 == 0 {
                        deliver_all(&mut t, id, ctx);
                    }
                    if id % 11 == 0 {
                        t.abort(FlowId(id));
                    }
                }
                t
            };
            let ids: Vec<u64> = (1..=60).collect();
            let mut shuffled = ids.clone();
            aeolus_sim::SimRng::seed_from_u64(7).shuffle(&mut shuffled);
            let (mut a, mut b) = (build(&ids, ctx), build(&shuffled, ctx));
            let order = |t: &Table| t.active.iter().map(|&s| t.recv.at(s).0).collect::<Vec<_>>();
            assert_ne!(order(&a), order(&b), "the two histories should order the set differently");

            let (mut top_a, mut top_b) = (Vec::new(), Vec::new());
            a.srpt_top(6, &mut top_a);
            b.srpt_top(6, &mut top_b);
            let mut full: Vec<(u64, FlowId)> =
                a.recv_active().map(|(id, rf)| (rf.book.remaining().unwrap(), id)).collect();
            full.sort_unstable();
            assert_eq!(top_a, full[..6], "the bounded selection is the full sort's head");
            assert_eq!(top_a, top_b);

            let batches_a = scan_everything(&mut a, ctx).1;
            let batches_b = scan_everything(&mut b, ctx).1;
            assert!(batches_a.len() > 6 && batches_a.windows(2).all(|w| w[0].0 < w[1].0));
            assert_eq!(batches_a, batches_b);
        });
    }

    /// Cost follows the flows in progress, not the flows ever seen — pinned
    /// by counting scan visits instead of reading a clock.
    #[test]
    fn a_scan_visits_active_flows_only_however_long_the_history() {
        with_ctx(|ctx| {
            let mut t = Table::default();
            for id in 1..=2_000 {
                deliver_all(&mut t, id, ctx);
            }
            assert_eq!((t.recv.len(), received(ctx).len(), t.recv_active_len()), (0, 2_000, 0));
            assert_eq!(scan_everything(&mut t, ctx).0, 0);
            for id in 2_001..=2_003 {
                t.recv_entry(&request_packet(&desc(id)), ctx, CreditLedger::default);
            }
            assert_eq!((t.recv.len(), t.recv_active_len()), (3, 3));
            assert_eq!(scan_everything(&mut t, ctx).0, 3);
        });
    }

    /// A finished flow keeps no state, only the engine's done bit of its
    /// end: its stragglers find no entry and open none, until a crash
    /// rebuilds the endpoint and clears the host's bits — then a straggler
    /// is a first contact again, as it always was after a crash. The bit
    /// answers only at its own end.
    #[test]
    fn a_finished_flow_is_a_done_bit_until_a_crash() {
        with_ctx(|ctx| {
            let mut t = Table::default();
            deliver_all(&mut t, 4, ctx);
            let size = desc(4).size;
            assert_eq!(ctx.finished(FlowId(4), FlowEnd::Receiver), Some(size));
            assert_eq!(ctx.finished(FlowId(4), FlowEnd::Sender), None, "the peer's end");
            let request = request_packet(&desc(4));
            assert!(t.recv_entry(&chunk(4, 0), ctx, CreditLedger::default).is_none());
            assert!(t.recv_arrival(&request, ctx, CreditLedger::default).is_none());
            assert_eq!((t.recv.len(), t.recv_active_len()), (0, 0), "a straggler re-opened it");
            t = Table::default();
            ctx.metrics.forget_done(ME);
            let rf = t.recv_entry(&chunk(4, 0), ctx, CreditLedger::default).expect("fresh book");
            assert_eq!(rf.book.remaining(), Some(size));
            assert_eq!(t.recv_active_len(), 1);
        });
    }
}
