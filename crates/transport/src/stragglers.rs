//! Stragglers of finished flows. A finished flow leaves only a done marker
//! in its endpoints' `FlowTable`s; a copy of any packet kind an endpoint
//! handles, arriving after that, must get the reaction the endpoint had
//! when it kept the flow's whole state — each expectation below is read off
//! that reaction — and must never re-open the flow: no entry comes back, no
//! flow turns active, no credit, grant, pull or token goes out for it, and
//! no timer of the flow is armed. The one path by which a straggler still
//! opens a book is a crash that wiped the table, the path
//! `Metrics::deliver`'s wire-residue guard exists for.

use std::cell::{Cell, RefCell};
use std::rc::Rc;

use aeolus_sim::units::{ms, us, Time};
use aeolus_sim::{
    Ctx, Ecn, Endpoint, FaultPlan, FlowDesc, FlowId, LinkParams, LossCause, NodeId, Packet,
    PacketKind, QueueEvent, QueueRecord, Rate, Timer, TraceSink, Tracer, TrafficClass,
    TransportEvent, CREDIT_BYTES,
};

use crate::common::{ack_packet, data_packet, probe_ack_packet, probe_packet, request_packet};
use crate::recovery::Holding;
use crate::{
    DctcpConfig, DctcpEndpoint, FastpassConfig, FastpassEndpoint, HomaConfig, HomaEndpoint,
    NdpEndpoint, PHostConfig, PHostEndpoint, Scheme, SchemeBuilder, SchemeParams, TopoSpec,
    XPassConfig, XPassEndpoint,
};

const FLOW: FlowId = FlowId(1);
/// The flow that carries the stragglers: its arrival at the peer host of
/// the endpoint under test is the cue to send them.
const CUE: FlowId = FlowId(99);
/// When the stragglers leave: long after the flow finished and every timer
/// it armed has fired.
const LATE: Time = ms(50);
const MTU: u64 = 1460;

/// An endpoint the test can still read while the network runs it. On the
/// cue flow's arrival it sends `script` instead, from its own host — as
/// the flow's peer would. It counts the timers of [`FLOW`] it is handed
/// from [`LATE`] on.
struct Tap<E> {
    inner: Rc<RefCell<E>>,
    script: Vec<Packet>,
    late_timers: Rc<Cell<usize>>,
}

impl<E: Endpoint> Endpoint for Tap<E> {
    fn on_flow_arrival(&mut self, flow: FlowDesc, ctx: &mut Ctx<'_>) {
        if flow.id == CUE {
            self.script.drain(..).for_each(|pkt| ctx.send(pkt));
        } else {
            self.inner.borrow_mut().on_flow_arrival(flow, ctx);
        }
    }
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
        self.inner.borrow_mut().on_packet(pkt, ctx);
    }
    fn on_timer(&mut self, timer: Timer, ctx: &mut Ctx<'_>) {
        if timer.flow == Some(FLOW) && ctx.now >= LATE {
            self.late_timers.set(self.late_timers.get() + 1);
        }
        self.inner.borrow_mut().on_timer(timer, ctx);
    }
    fn on_crash(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.borrow_mut().on_crash(ctx);
    }
    fn on_flow_abort(&mut self, flow: FlowDesc, ctx: &mut Ctx<'_>) {
        self.inner.borrow_mut().on_flow_abort(flow, ctx);
    }
}

/// One packet a host put on its NIC: kind, sequence number, payload.
type Sent = (PacketKind, u64, u32);

/// What the host under test sent and emitted from [`LATE`] on.
#[derive(Default)]
struct Log {
    host: Option<NodeId>,
    sent: Vec<Sent>,
    events: Vec<TransportEvent>,
}

impl TraceSink for Log {
    fn queue_event(&mut self, rec: &QueueRecord) {
        let queued = matches!(rec.ev, QueueEvent::Enqueue | QueueEvent::EnqueueMarked);
        if queued && Some(rec.node) == self.host && rec.at >= LATE {
            self.sent.push((rec.kind, rec.seq, rec.payload));
        }
    }
    fn transport_event(&mut self, at: Time, host: NodeId, ev: &TransportEvent) {
        if Some(host) == self.host && at >= LATE {
            self.events.push(*ev);
        }
    }
}

impl Tracer for Log {
    const ENABLED: bool = true;
}

/// The endpoints under test, with what their tables hold.
trait Inspect: Endpoint + 'static {
    fn make(scheme: Scheme, p: &SchemeParams) -> Self;
    fn holding(&self, flow: FlowId) -> Holding;
}

macro_rules! inspect {
    ($ty:ty, |$s:ident, $p:ident| $make:expr) => {
        impl Inspect for $ty {
            fn make($s: Scheme, $p: &SchemeParams) -> Self {
                $make
            }
            fn holding(&self, flow: FlowId) -> Holding {
                <$ty>::holding(self, flow)
            }
        }
    };
}

inspect!(NdpEndpoint, |s, p| NdpEndpoint::new(s.base_config(p)));
inspect!(XPassEndpoint, |s, p| XPassEndpoint::new(XPassConfig {
    base: s.base_config(p),
    rto: s.rto()
}));
inspect!(HomaEndpoint, |s, p| HomaEndpoint::new(HomaConfig {
    base: s.base_config(p),
    cutoffs: p.homa_cutoffs.clone(),
    rto: s.rto(),
    naive_rto: false,
}));
inspect!(PHostEndpoint, |s, p| PHostEndpoint::new(PHostConfig {
    base: s.base_config(p),
    rto: s.rto()
}));
inspect!(FastpassEndpoint, |s, p| FastpassEndpoint::new(FastpassConfig {
    base: s.base_config(p),
    arbiter: p.arbiter.expect("an arbiter host"),
}));
inspect!(DctcpEndpoint, |s, p| DctcpEndpoint::new(DctcpConfig::new(
    s.base_config(p),
    s.rto().expect("an RTO")
)));

/// Which end of the flow the stragglers reach.
#[derive(Clone, Copy, PartialEq)]
enum End {
    Sender,
    Receiver,
}

/// What one run saw at the end under test.
struct Seen {
    sent: Vec<Sent>,
    events: Vec<TransportEvent>,
    /// Timers of the flow that fired at the end from [`LATE`] on.
    late_timers: usize,
    /// What the end's table held of the flow before the stragglers and
    /// after them.
    before: Holding,
    after: Holding,
}

/// Run `size`-byte [`FLOW`] to completion under `scheme`, then, at [`LATE`],
/// send `script(&flow)` from its peer to the end `at` (under `faults`), and
/// report what that end did.
fn straggle<E: Inspect>(
    scheme: Scheme,
    size: u64,
    at: End,
    faults: FaultPlan,
    script: impl FnOnce(&FlowDesc) -> Vec<Packet>,
) -> Seen {
    let link = LinkParams::uniform(Rate::gbps(10), us(3));
    let spec = TopoSpec::SingleSwitch { hosts: 4, link };
    let builder = SchemeBuilder::new(scheme).topology(spec).faults(faults);
    let mut h = builder.tracer(Log::default()).build();
    let (receiver, sender) = (h.hosts()[0], h.hosts()[1]);
    let flow = FlowDesc { id: FLOW, src: sender, dst: receiver, size, start: 0 };
    let (me, peer) = match at {
        End::Sender => (sender, receiver),
        End::Receiver => (receiver, sender),
    };
    let mine = Rc::new(RefCell::new(E::make(scheme, &h.params)));
    let theirs = Rc::new(RefCell::new(E::make(scheme, &h.params)));
    let script = script(&flow);
    let late_timers = Rc::new(Cell::new(0));
    let net = h.network_mut();
    let tap = Tap { inner: mine.clone(), script: Vec::new(), late_timers: late_timers.clone() };
    net.set_endpoint(me, Box::new(tap));
    net.set_endpoint(peer, Box::new(Tap { inner: theirs, script, late_timers: Rc::default() }));
    net.tracer_mut().host = Some(me);
    h.schedule(&[flow, FlowDesc { id: CUE, src: peer, dst: me, size: 1, start: LATE }]);
    h.network_mut().run_until(LATE - 1);
    let rec = h.metrics().flow(FLOW).expect("scheduled");
    assert!(rec.completed_at.is_some(), "{}: the flow did not finish", scheme.name());
    let before = mine.borrow().holding(FLOW);
    h.network_mut().run_until(LATE + ms(20));
    let delivered = h.metrics().flow(FLOW).expect("scheduled").delivered;
    assert_eq!(delivered, size, "{}: a straggler's bytes counted twice", scheme.name());
    let after = mine.borrow().holding(FLOW);
    let log = std::mem::take(h.network_mut().tracer_mut());
    Seen { sent: log.sent, events: log.events, late_timers: late_timers.get(), before, after }
}

/// A finished flow's end: its marker and nothing else.
fn finished(at: End) -> Holding {
    let (sent, received) = (at == End::Sender, at == End::Receiver);
    Holding { send: false, recv: false, active: 0, sent, received }
}

/// `script` reaches the finished flow's end `at`, which answers with
/// exactly `sent` and `events`, keeps holding just its marker and arms no
/// timer for the flow.
fn assert_straggler<E: Inspect>(
    scheme: Scheme,
    size: u64,
    at: End,
    script: impl FnOnce(&FlowDesc) -> Vec<Packet>,
    sent: &[Sent],
    events: &[TransportEvent],
) {
    let seen = straggle::<E>(scheme, size, at, FaultPlan::default(), script);
    let name = scheme.name();
    assert_eq!(seen.before, finished(at), "{name}: the finished flow kept state");
    assert_eq!(seen.after, finished(at), "{name}: a straggler re-opened the flow");
    assert_eq!(seen.sent, sent, "{name}: packets sent");
    assert_eq!(seen.events, events, "{name}: transport events");
    assert_eq!(seen.late_timers, 0, "{name}: a straggler armed a timer of the flow");
}

fn data(f: &FlowDesc, seq: u64, class: TrafficClass) -> Packet {
    data_packet(f, seq, MTU.min(f.size - seq) as u32, class, false)
}

fn unscheduled(f: &FlowDesc, seq: u64) -> Packet {
    data(f, seq, TrafficClass::Unscheduled)
}

fn ack(f: &FlowDesc, seq: u64, end: u64) -> Packet {
    ack_packet(f.id, f.dst, f.src, seq, end)
}

fn to_sender(f: &FlowDesc, seq: u64, kind: PacketKind) -> Packet {
    Packet::control(f.id, f.dst, f.src, seq, kind)
}

/// The reply ACK of a data packet at `seq` carrying `len` bytes.
fn acked(seq: u64, len: u64) -> Sent {
    (PacketKind::Ack { of_probe: false, end: seq + len }, seq, 0)
}

fn probe_acked(seq: u64) -> Sent {
    (PacketKind::Ack { of_probe: true, end: seq }, seq, 0)
}

fn receipt(bytes: u64) -> TransportEvent {
    TransportEvent::CreditReceipt { flow: FLOW, bytes }
}

fn lost(bytes: u64, cause: LossCause) -> TransportEvent {
    TransportEvent::LossDetected { flow: FLOW, bytes, cause }
}

#[test]
fn ndp_answers_stragglers_without_pulling() {
    type E = NdpEndpoint;
    let (s, size) = (Scheme::NdpAeolus, 10_000);
    let at = End::Receiver;
    assert_straggler::<E>(s, size, at, |f| vec![unscheduled(f, 0)], &[acked(0, MTU)], &[]);
    let trimmed = |f: &FlowDesc| {
        let mut p = unscheduled(f, MTU);
        p.trim();
        vec![p]
    };
    assert_straggler::<E>(s, size, at, trimmed, &[(PacketKind::Nack, MTU, 0)], &[]);
    let probe = |f: &FlowDesc| vec![probe_packet(f, 8_000)];
    assert_straggler::<E>(s, size, at, probe, &[probe_acked(8_000)], &[]);

    let at = End::Sender;
    let pull = |f: &FlowDesc| vec![to_sender(f, 7, PacketKind::Pull)];
    assert_straggler::<E>(s, size, at, pull, &[], &[receipt(MTU)]);
    // The last packet's NACK: the requeue clamps to the message.
    let nack = |f: &FlowDesc| vec![to_sender(f, 8_760, PacketKind::Nack)];
    assert_straggler::<E>(s, size, at, nack, &[], &[lost(1_240, LossCause::Nack)]);
    let acks = |f: &FlowDesc| vec![ack(f, 0, MTU), probe_ack_packet(f.id, f.dst, f.src, 8_000)];
    assert_straggler::<E>(s, size, at, acks, &[], &[]);
}

#[test]
fn expresspass_answers_stragglers_without_crediting() {
    type E = XPassEndpoint;
    // A message the first RTT carries whole: its ACKs tell the sender it
    // is done (a longer one's sender is never told, and keeps its state).
    let (s, size) = (Scheme::ExpressPassAeolus, 3_000);
    let at = End::Receiver;
    let request = |f: &FlowDesc| vec![request_packet(f)];
    assert_straggler::<E>(s, size, at, request, &[], &[]);
    assert_straggler::<E>(s, size, at, |f| vec![unscheduled(f, 0)], &[acked(0, MTU)], &[]);
    let scheduled = |f: &FlowDesc| vec![data(f, MTU, TrafficClass::Scheduled)];
    assert_straggler::<E>(s, size, at, scheduled, &[], &[]);
    let probe = |f: &FlowDesc| vec![probe_packet(f, size)];
    assert_straggler::<E>(s, size, at, probe, &[probe_acked(size)], &[]);

    let at = End::Sender;
    let credit = |f: &FlowDesc| {
        let mut c = to_sender(f, 40, PacketKind::Credit);
        c.size = CREDIT_BYTES;
        vec![c]
    };
    assert_straggler::<E>(s, size, at, credit, &[], &[receipt(MTU)]);
    let resend = |f: &FlowDesc| vec![to_sender(f, 1_000, PacketKind::Resend { end: 2_500 })];
    assert_straggler::<E>(s, size, at, resend, &[], &[lost(1_500, LossCause::Stall)]);
    let acks = |f: &FlowDesc| vec![ack(f, 0, MTU), probe_ack_packet(f.id, f.dst, f.src, size)];
    assert_straggler::<E>(s, size, at, acks, &[], &[]);
}

#[test]
fn homa_answers_stragglers_without_granting() {
    type E = HomaEndpoint;
    let (s, size) = (Scheme::HomaAeolus, 10_000);
    let at = End::Receiver;
    assert_straggler::<E>(s, size, at, |f| vec![unscheduled(f, 0)], &[acked(0, MTU)], &[]);
    let scheduled = |f: &FlowDesc| vec![data(f, 8_760, TrafficClass::Scheduled)];
    assert_straggler::<E>(s, size, at, scheduled, &[], &[]);
    let probe = |f: &FlowDesc| vec![probe_packet(f, 8_000)];
    assert_straggler::<E>(s, size, at, probe, &[probe_acked(8_000)], &[]);

    let at = End::Sender;
    // A late grant is booked for what it adds past the last one; the
    // same grant again adds nothing.
    let grants = |f: &FlowDesc| {
        let g = to_sender(f, 1_000_000, PacketKind::Grant { grant_prio: 4 });
        vec![g.clone(), g]
    };
    let seen = straggle::<E>(s, size, at, FaultPlan::default(), grants);
    let booked = matches!(seen.events[..], [TransportEvent::CreditReceipt { bytes, .. }]
        if bytes < 1_000_000);
    assert!(booked, "{:?}", seen.events);
    assert_eq!((seen.before, seen.after), (finished(at), finished(at)));
    assert_eq!(seen.sent, []);
    let resend = |f: &FlowDesc| vec![to_sender(f, 1_000, PacketKind::Resend { end: 2_500 })];
    assert_straggler::<E>(s, size, at, resend, &[], &[lost(1_500, LossCause::Stall)]);
    let acks = |f: &FlowDesc| vec![ack(f, 0, MTU), probe_ack_packet(f.id, f.dst, f.src, 8_000)];
    assert_straggler::<E>(s, size, at, acks, &[], &[]);

    // Blind Homa resends what a RESEND asks for, finished or not.
    let blind = Scheme::Homa { rto: ms(10) };
    let resend = |f: &FlowDesc| vec![to_sender(f, 8_000, PacketKind::Resend { end: 12_000 })];
    let retransmit = |seq, bytes| (PacketKind::Data, seq, bytes);
    let ev = |bytes| TransportEvent::Retransmit { flow: FLOW, bytes, cause: LossCause::Stall };
    assert_straggler::<E>(
        blind,
        size,
        at,
        resend,
        &[retransmit(8_000, 1_460), retransmit(9_460, 540)],
        &[lost(2_000, LossCause::Stall), ev(1_460), ev(540)],
    );
}

#[test]
fn phost_answers_stragglers_without_tokens() {
    type E = PHostEndpoint;
    let (s, size) = (Scheme::PHostAeolus, 10_000);
    let at = End::Receiver;
    let request = |f: &FlowDesc| vec![request_packet(f)];
    assert_straggler::<E>(s, size, at, request, &[], &[]);
    assert_straggler::<E>(s, size, at, |f| vec![unscheduled(f, 0)], &[acked(0, MTU)], &[]);
    let probe = |f: &FlowDesc| vec![probe_packet(f, 8_000)];
    assert_straggler::<E>(s, size, at, probe, &[probe_acked(8_000)], &[]);

    let at = End::Sender;
    let token = |f: &FlowDesc| vec![to_sender(f, 3, PacketKind::Pull)];
    assert_straggler::<E>(s, size, at, token, &[], &[receipt(MTU)]);
    let resend = |f: &FlowDesc| vec![to_sender(f, 9_000, PacketKind::Resend { end: 10_000 })];
    assert_straggler::<E>(s, size, at, resend, &[], &[lost(1_000, LossCause::Stall)]);
    let acks = |f: &FlowDesc| vec![ack(f, 0, size)];
    assert_straggler::<E>(s, size, at, acks, &[], &[]);
}

#[test]
fn fastpass_answers_stragglers_without_requesting_slots() {
    type E = FastpassEndpoint;
    let (s, size) = (Scheme::FastpassAeolus, 10_000);
    let at = End::Receiver;
    assert_straggler::<E>(s, size, at, |f| vec![unscheduled(f, 0)], &[acked(0, MTU)], &[]);
    let probe = |f: &FlowDesc| vec![probe_packet(f, 8_000)];
    assert_straggler::<E>(s, size, at, probe, &[probe_acked(8_000)], &[]);

    let at = End::Sender;
    // Slots granted after the flow finished are booked; none is armed.
    let schedule = |f: &FlowDesc| {
        let kind = PacketKind::Schedule { start: LATE + us(50), slots: 3, stride: us(2) };
        vec![to_sender(f, 0, kind)]
    };
    assert_straggler::<E>(s, size, at, schedule, &[], &[receipt(3 * MTU)]);
    let resend = |f: &FlowDesc| vec![to_sender(f, 0, PacketKind::Resend { end: 1_460 })];
    assert_straggler::<E>(s, size, at, resend, &[], &[lost(1_460, LossCause::Stall)]);
    let acks = |f: &FlowDesc| vec![ack(f, 0, size), probe_ack_packet(f.id, f.dst, f.src, 8_000)];
    assert_straggler::<E>(s, size, at, acks, &[], &[]);
}

#[test]
fn dctcp_answers_stragglers_with_its_cumulative_ack() {
    type E = DctcpEndpoint;
    let (s, size) = (Scheme::Dctcp { rto: ms(10) }, 10_000);
    let at = End::Receiver;
    // The ACK covers the message and echoes this packet's mark alone.
    let ce = |f: &FlowDesc| {
        let mut p = data(f, 0, TrafficClass::Scheduled);
        p.ecn = Ecn::Ce;
        vec![p, data(f, MTU, TrafficClass::Scheduled)]
    };
    let whole = PacketKind::Ack { of_probe: false, end: size };
    assert_straggler::<E>(s, size, at, ce, &[(whole, 1, 0), (whole, 0, 0)], &[]);

    // Every byte is acknowledged: the sender keeps nothing, not even a
    // marker, and a third duplicate has nothing to resend.
    let dups = |f: &FlowDesc| vec![ack(f, 0, size); 4];
    let seen = straggle::<E>(s, size, End::Sender, FaultPlan::default(), dups);
    let nothing = Holding { sent: false, ..finished(End::Sender) };
    assert_eq!((seen.before, seen.after), (nothing, nothing));
    assert_eq!((seen.sent, seen.events, seen.late_timers), (vec![], vec![], 0));
}

/// A crash wipes the markers with the rest of the table: a straggler then
/// opens a fresh book, as it always did, and its bytes are not counted
/// twice.
fn a_straggler_after_a_crash_opens_a_fresh_book<E: Inspect>(scheme: Scheme, joins_active: bool) {
    let crash = FaultPlan::default().with_crash(ms(20), ms(21), 0);
    let seen = straggle::<E>(scheme, 10_000, End::Receiver, crash, |f| vec![unscheduled(f, 0)]);
    let name = scheme.name();
    assert_eq!(seen.before, Holding { received: false, ..finished(End::Receiver) }, "{name}");
    let fresh = Holding { recv: true, active: usize::from(joins_active), ..seen.before };
    assert_eq!(seen.after, fresh, "{name}");
}

#[test]
fn after_a_crash_a_straggler_opens_a_fresh_book() {
    a_straggler_after_a_crash_opens_a_fresh_book::<NdpEndpoint>(Scheme::NdpAeolus, true);
    a_straggler_after_a_crash_opens_a_fresh_book::<XPassEndpoint>(Scheme::ExpressPassAeolus, true);
    a_straggler_after_a_crash_opens_a_fresh_book::<HomaEndpoint>(Scheme::HomaAeolus, true);
    a_straggler_after_a_crash_opens_a_fresh_book::<PHostEndpoint>(Scheme::PHostAeolus, true);
    a_straggler_after_a_crash_opens_a_fresh_book::<FastpassEndpoint>(Scheme::FastpassAeolus, true);
    let dctcp = Scheme::Dctcp { rto: ms(10) };
    a_straggler_after_a_crash_opens_a_fresh_book::<DctcpEndpoint>(dctcp, false);
}

/// Flow B→A is aborted by B's long crash; A then crashes briefly and
/// recovers while B is still down. The flow is still aborted, so its
/// straggler reaching A — sent by a third host, B being dead — must open
/// no entry there, though A's crash left it no trace of the flow: no zombie
/// state waits at A for the relaunch to wipe.
fn an_aborted_flow_stays_shut<E: Inspect>(scheme: Scheme) {
    let (b_down, a_down) = ((us(20), ms(100)), (ms(20), ms(21)));
    let faults = FaultPlan::default().with_crash(b_down.0, b_down.1, 1);
    let faults = faults.with_crash(a_down.0, a_down.1, 0);
    let link = LinkParams::uniform(Rate::gbps(10), us(3));
    let spec = TopoSpec::SingleSwitch { hosts: 4, link };
    let mut h = SchemeBuilder::new(scheme).topology(spec).faults(faults).build();
    let (a, b, c) = (h.hosts()[0], h.hosts()[1], h.hosts()[2]);
    let flow = FlowDesc { id: FLOW, src: b, dst: a, size: 1_000_000, start: 0 };
    let tap = |script| {
        let inner = Rc::new(RefCell::new(E::make(scheme, &h.params)));
        (inner.clone(), Box::new(Tap { inner, script, late_timers: Rc::default() }))
    };
    let ((mine, at_a), (_, at_c)) = (tap(Vec::new()), tap(vec![unscheduled(&flow, 0)]));
    h.network_mut().set_endpoint(a, at_a);
    h.network_mut().set_endpoint(c, at_c);
    h.schedule(&[flow, FlowDesc { id: CUE, src: c, dst: a, size: 1, start: LATE }]);
    h.network_mut().run_until(LATE - 1);
    let name = scheme.name();
    assert!(h.metrics().flow(FLOW).expect("scheduled").aborted.is_some(), "{name}");
    let nothing = Holding { received: false, ..finished(End::Receiver) };
    assert_eq!(mine.borrow().holding(FLOW), nothing, "{name}: A kept state of the flow");
    h.network_mut().run_until(LATE + ms(20));
    assert_eq!(mine.borrow().holding(FLOW), nothing, "{name}: the straggler opened an entry");
}

#[test]
fn an_aborted_flows_straggler_opens_nothing_after_a_crash() {
    an_aborted_flow_stays_shut::<NdpEndpoint>(Scheme::NdpAeolus);
    an_aborted_flow_stays_shut::<XPassEndpoint>(Scheme::ExpressPassAeolus);
    an_aborted_flow_stays_shut::<HomaEndpoint>(Scheme::HomaAeolus);
    an_aborted_flow_stays_shut::<PHostEndpoint>(Scheme::PHostAeolus);
    an_aborted_flow_stays_shut::<FastpassEndpoint>(Scheme::FastpassAeolus);
    an_aborted_flow_stays_shut::<DctcpEndpoint>(Scheme::Dctcp { rto: ms(10) });
}
