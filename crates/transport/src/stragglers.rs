//! Stragglers of finished flows. A finished flow leaves nothing in its
//! endpoints' `FlowTable`s, only the engine's done bit of each end
//! (`FlowRecord::is_done`); a copy of any packet kind an endpoint handles,
//! arriving after that, must get the reaction the endpoint had when it kept
//! the flow's whole state — each expectation below is read off that
//! reaction — and must never re-open the flow: no entry comes back, no flow
//! turns active, no credit, grant, pull or token goes out for it, and no
//! timer of the flow is armed. The one path by which a straggler still
//! opens a book is a crash that wiped the table and the host's done bits,
//! the path `Metrics::deliver`'s wire-residue guard exists for.

use std::cell::RefCell;
use std::rc::Rc;

use aeolus_sim::units::{ms, us, Time};
use aeolus_sim::{
    AbortCause, Ctx, Ecn, Endpoint, FaultEvent, FaultPlan, FlowDesc, FlowEnd, FlowId, FlowRecord, LinkParams, LossCause,
    NodeId, Packet, PacketKind, QueueEvent, QueueRecord, Rate, Timer, TraceSink, Tracer,
    TrafficClass, TransportEvent, CREDIT_BYTES,
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
/// the flow's peer would. It logs every timer it is handed, with when.
struct Tap<E> {
    inner: Rc<RefCell<E>>,
    script: Vec<Packet>,
    timers: Rc<RefCell<Vec<(Time, Timer)>>>,
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
        self.timers.borrow_mut().push((ctx.now, timer));
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

/// What the host under test sent and emitted from [`LATE`] on, and every
/// flow abort the engine traced.
#[derive(Default)]
struct Log {
    host: Option<NodeId>,
    sent: Vec<Sent>,
    events: Vec<TransportEvent>,
    aborts: Vec<(Time, FlowId, AbortCause)>,
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
    fn fault_event(&mut self, at: Time, ev: &FaultEvent) {
        if let FaultEvent::FlowAborted { flow, cause } = *ev {
            self.aborts.push((at, flow, cause));
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

/// What the end under test keeps of the flow: its table's entries, and
/// whether the engine marks that end done.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Kept {
    table: Holding,
    done: bool,
}

/// A table that holds nothing of the flow.
const EMPTY: Holding = Holding { send: false, recv: false, active: 0 };

/// A finished flow's end: its done bit and nothing else.
const FINISHED: Kept = Kept { table: EMPTY, done: true };

/// What one run saw at the end under test.
struct Seen {
    sent: Vec<Sent>,
    events: Vec<TransportEvent>,
    /// Timers of the flow that fired at the end from [`LATE`] on.
    late_timers: usize,
    /// What the end kept of the flow before the stragglers and after them.
    before: Kept,
    after: Kept,
}

/// Run `size`-byte [`FLOW`] to completion under `scheme`, then, at [`LATE`],
/// send `script(&flow)` from its peer to the end `at` (under `faults`), and
/// report what that end did.
fn straggle<E: Inspect>(
    scheme: Scheme,
    size: u64,
    at: FlowEnd,
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
        FlowEnd::Sender => (sender, receiver),
        FlowEnd::Receiver => (receiver, sender),
    };
    let mine = Rc::new(RefCell::new(E::make(scheme, &h.params)));
    let theirs = Rc::new(RefCell::new(E::make(scheme, &h.params)));
    let script = script(&flow);
    let timers = Rc::default();
    let net = h.network_mut();
    let tap = Tap { inner: mine.clone(), script: Vec::new(), timers: Rc::clone(&timers) };
    net.set_endpoint(me, Box::new(tap));
    net.set_endpoint(peer, Box::new(Tap { inner: theirs, script, timers: Rc::default() }));
    net.tracer_mut().host = Some(me);
    h.schedule(&[flow, FlowDesc { id: CUE, src: peer, dst: me, size: 1, start: LATE }]);
    h.network_mut().run_until(LATE - 1);
    let kept =
        |rec: &FlowRecord| Kept { table: mine.borrow().holding(FLOW), done: rec.is_done(at) };
    let rec = h.metrics().flow(FLOW).expect("scheduled");
    assert!(rec.completed_at.is_some(), "{}: the flow did not finish", scheme.name());
    let before = kept(rec);
    h.network_mut().run_until(LATE + ms(20));
    let rec = h.metrics().flow(FLOW).expect("scheduled");
    assert_eq!(rec.delivered, size, "{}: a straggler's bytes counted twice", scheme.name());
    let after = kept(rec);
    let log = std::mem::take(h.network_mut().tracer_mut());
    let late = |&&(at, t): &&(Time, Timer)| t.flow == Some(FLOW) && at >= LATE;
    let late_timers = timers.borrow().iter().filter(late).count();
    Seen { sent: log.sent, events: log.events, late_timers, before, after }
}

/// `script` reaches the finished flow's end `at`, which answers with
/// exactly `sent` and `events`, keeps nothing but its done bit and arms no
/// timer for the flow.
fn assert_straggler<E: Inspect>(
    scheme: Scheme,
    size: u64,
    at: FlowEnd,
    script: impl FnOnce(&FlowDesc) -> Vec<Packet>,
    sent: &[Sent],
    events: &[TransportEvent],
) {
    let seen = straggle::<E>(scheme, size, at, FaultPlan::default(), script);
    let name = scheme.name();
    assert_eq!(seen.before, FINISHED, "{name}: the finished flow kept state");
    assert_eq!(seen.after, FINISHED, "{name}: a straggler re-opened the flow");
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
    let at = FlowEnd::Receiver;
    assert_straggler::<E>(s, size, at, |f| vec![unscheduled(f, 0)], &[acked(0, MTU)], &[]);
    let trimmed = |f: &FlowDesc| {
        let mut p = unscheduled(f, MTU);
        p.trim();
        vec![p]
    };
    assert_straggler::<E>(s, size, at, trimmed, &[(PacketKind::Nack, MTU, 0)], &[]);
    let probe = |f: &FlowDesc| vec![probe_packet(f, 8_000)];
    assert_straggler::<E>(s, size, at, probe, &[probe_acked(8_000)], &[]);

    let at = FlowEnd::Sender;
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
    let at = FlowEnd::Receiver;
    let request = |f: &FlowDesc| vec![request_packet(f)];
    assert_straggler::<E>(s, size, at, request, &[], &[]);
    assert_straggler::<E>(s, size, at, |f| vec![unscheduled(f, 0)], &[acked(0, MTU)], &[]);
    let scheduled = |f: &FlowDesc| vec![data(f, MTU, TrafficClass::Scheduled)];
    assert_straggler::<E>(s, size, at, scheduled, &[], &[]);
    let probe = |f: &FlowDesc| vec![probe_packet(f, size)];
    assert_straggler::<E>(s, size, at, probe, &[probe_acked(size)], &[]);

    let at = FlowEnd::Sender;
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
    let at = FlowEnd::Receiver;
    assert_straggler::<E>(s, size, at, |f| vec![unscheduled(f, 0)], &[acked(0, MTU)], &[]);
    let scheduled = |f: &FlowDesc| vec![data(f, 8_760, TrafficClass::Scheduled)];
    assert_straggler::<E>(s, size, at, scheduled, &[], &[]);
    let probe = |f: &FlowDesc| vec![probe_packet(f, 8_000)];
    assert_straggler::<E>(s, size, at, probe, &[probe_acked(8_000)], &[]);

    let at = FlowEnd::Sender;
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
    assert_eq!((seen.before, seen.after), (FINISHED, FINISHED));
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
    let at = FlowEnd::Receiver;
    let request = |f: &FlowDesc| vec![request_packet(f)];
    assert_straggler::<E>(s, size, at, request, &[], &[]);
    assert_straggler::<E>(s, size, at, |f| vec![unscheduled(f, 0)], &[acked(0, MTU)], &[]);
    let probe = |f: &FlowDesc| vec![probe_packet(f, 8_000)];
    assert_straggler::<E>(s, size, at, probe, &[probe_acked(8_000)], &[]);

    let at = FlowEnd::Sender;
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
    let at = FlowEnd::Receiver;
    assert_straggler::<E>(s, size, at, |f| vec![unscheduled(f, 0)], &[acked(0, MTU)], &[]);
    let probe = |f: &FlowDesc| vec![probe_packet(f, 8_000)];
    assert_straggler::<E>(s, size, at, probe, &[probe_acked(8_000)], &[]);

    let at = FlowEnd::Sender;
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
    let at = FlowEnd::Receiver;
    // The ACK covers the message and echoes this packet's mark alone.
    let ce = |f: &FlowDesc| {
        let mut p = data(f, 0, TrafficClass::Scheduled);
        p.ecn = Ecn::Ce;
        vec![p, data(f, MTU, TrafficClass::Scheduled)]
    };
    let whole = PacketKind::Ack { of_probe: false, end: size };
    assert_straggler::<E>(s, size, at, ce, &[(whole, 1, 0), (whole, 0, 0)], &[]);

    // Every byte is acknowledged: the sender keeps nothing, not even a
    // done bit, and a third duplicate has nothing to resend.
    let dups = |f: &FlowDesc| vec![ack(f, 0, size); 4];
    let seen = straggle::<E>(s, size, FlowEnd::Sender, FaultPlan::default(), dups);
    let nothing = Kept { done: false, ..FINISHED };
    assert_eq!((seen.before, seen.after), (nothing, nothing));
    assert_eq!((seen.sent, seen.events, seen.late_timers), (vec![], vec![], 0));
}

/// A finished receiver answers a data straggler with the per-packet ACK
/// its first-RTT mode gives live data, and nothing else: the Aeolus modes
/// ACK unscheduled data (the rows above), the §5.5 strawman every data
/// packet, Hold and Blind none — except NDP, which ACKs every data packet
/// in every mode. Each row sends the classes that mode's senders emit.
#[test]
fn finished_receivers_ack_data_by_mode() {
    let at = FlowEnd::Receiver;
    let scheduled = |f: &FlowDesc| vec![data(f, MTU, TrafficClass::Scheduled)];
    let both = |f: &FlowDesc| vec![unscheduled(f, 0), data(f, MTU, TrafficClass::Scheduled)];
    let every = [acked(0, MTU), acked(MTU, MTU)];
    assert_straggler::<XPassEndpoint>(Scheme::ExpressPass, 3_000, at, scheduled, &[], &[]);
    assert_straggler::<FastpassEndpoint>(Scheme::Fastpass, 10_000, at, scheduled, &[], &[]);
    let prioq = Scheme::ExpressPassPrioQueue { rto: ms(10) };
    assert_straggler::<XPassEndpoint>(prioq, 3_000, at, both, &every, &[]);
    assert_straggler::<NdpEndpoint>(Scheme::Ndp, 10_000, at, both, &every, &[]);
    assert_straggler::<HomaEndpoint>(Scheme::Homa { rto: ms(10) }, 10_000, at, both, &[], &[]);
    assert_straggler::<PHostEndpoint>(Scheme::PHost { rto: ms(10) }, 10_000, at, both, &[], &[]);
}

/// The completion ACK, `[0, size)`, that tells a sender its whole message
/// arrived: Homa, pHost and Fastpass receivers send it once, at the last
/// byte; NDP and ExpressPass receivers never do. The flow starts at
/// [`LATE`], so the log holds its whole life at the receiver.
fn completion_acks<E: Inspect>(scheme: Scheme) -> usize {
    let size = 10_000;
    let link = LinkParams::uniform(Rate::gbps(10), us(3));
    let spec = TopoSpec::SingleSwitch { hosts: 4, link };
    let mut h = SchemeBuilder::new(scheme).topology(spec).tracer(Log::default()).build();
    let (receiver, sender) = (h.hosts()[0], h.hosts()[1]);
    for host in [receiver, sender] {
        let end = Box::new(E::make(scheme, &h.params));
        h.network_mut().set_endpoint(host, end);
    }
    h.network_mut().tracer_mut().host = Some(receiver);
    h.schedule(&[FlowDesc { id: FLOW, src: sender, dst: receiver, size, start: LATE }]);
    h.network_mut().run_until(LATE + ms(20));
    let rec = h.metrics().flow(FLOW).expect("scheduled");
    assert!(rec.completed_at.is_some(), "{}: the flow did not finish", scheme.name());
    let whole = (PacketKind::Ack { of_probe: false, end: size }, 0, 0);
    h.network().tracer().sent.iter().filter(|&&s| s == whole).count()
}

#[test]
fn only_homa_phost_and_fastpass_receivers_send_the_completion_ack() {
    assert_eq!(completion_acks::<HomaEndpoint>(Scheme::HomaAeolus), 1);
    assert_eq!(completion_acks::<HomaEndpoint>(Scheme::Homa { rto: ms(10) }), 1);
    assert_eq!(completion_acks::<PHostEndpoint>(Scheme::PHostAeolus), 1);
    assert_eq!(completion_acks::<FastpassEndpoint>(Scheme::FastpassAeolus), 1);
    assert_eq!(completion_acks::<FastpassEndpoint>(Scheme::Fastpass), 1);
    assert_eq!(completion_acks::<NdpEndpoint>(Scheme::NdpAeolus), 0);
    assert_eq!(completion_acks::<NdpEndpoint>(Scheme::Ndp), 0);
    assert_eq!(completion_acks::<XPassEndpoint>(Scheme::ExpressPassAeolus), 0);
    assert_eq!(completion_acks::<XPassEndpoint>(Scheme::ExpressPass), 0);
}

/// A crash of the receiver's host rebuilds its table and clears its done
/// bits: a straggler then opens a fresh book, as it always did, and its
/// bytes are not counted twice.
fn a_straggler_after_a_crash_opens_a_fresh_book<E: Inspect>(scheme: Scheme, joins_active: bool) {
    let crash = FaultPlan::default().with_crash(ms(20), ms(21), 0);
    let at = FlowEnd::Receiver;
    let seen = straggle::<E>(scheme, 10_000, at, crash, |f| vec![unscheduled(f, 0)]);
    let name = scheme.name();
    assert_eq!(seen.before, Kept { done: false, ..FINISHED }, "{name}");
    let fresh = Holding { recv: true, active: usize::from(joins_active), ..EMPTY };
    assert_eq!(seen.after, Kept { table: fresh, done: false }, "{name}");
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

/// A crash of the sender's host rebuilds its table and clears its done
/// bits too: a late credit, grant, pull or slot schedule then finds neither
/// state nor done bit, and is booked as no `CreditReceipt`, as it always
/// was after a crash.
fn a_late_credit_after_a_sender_crash_books_nothing<E: Inspect>(scheme: Scheme, kind: PacketKind) {
    let crash = FaultPlan::default().with_crash(ms(20), ms(21), 1);
    let credit = |f: &FlowDesc| {
        let mut c = to_sender(f, 1_000_000, kind);
        if kind == PacketKind::Credit {
            c.size = CREDIT_BYTES;
        }
        vec![c]
    };
    let seen = straggle::<E>(scheme, 10_000, FlowEnd::Sender, crash, credit);
    let name = scheme.name();
    let wiped = Kept { done: false, ..FINISHED };
    assert_eq!((seen.before, seen.after), (wiped, wiped), "{name}");
    assert_eq!((seen.sent, seen.events, seen.late_timers), (vec![], vec![], 0), "{name}");
}

#[test]
fn after_a_sender_crash_a_late_credit_books_nothing() {
    a_late_credit_after_a_sender_crash_books_nothing::<NdpEndpoint>(
        Scheme::NdpAeolus,
        PacketKind::Pull,
    );
    a_late_credit_after_a_sender_crash_books_nothing::<XPassEndpoint>(
        Scheme::ExpressPassAeolus,
        PacketKind::Credit,
    );
    a_late_credit_after_a_sender_crash_books_nothing::<HomaEndpoint>(
        Scheme::HomaAeolus,
        PacketKind::Grant { grant_prio: 4 },
    );
    a_late_credit_after_a_sender_crash_books_nothing::<PHostEndpoint>(
        Scheme::PHostAeolus,
        PacketKind::Pull,
    );
    a_late_credit_after_a_sender_crash_books_nothing::<FastpassEndpoint>(
        Scheme::FastpassAeolus,
        PacketKind::Schedule { start: LATE + us(50), slots: 3, stride: us(2) },
    );
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
        (inner.clone(), Box::new(Tap { inner, script, timers: Rc::default() }))
    };
    let ((mine, at_a), (_, at_c)) = (tap(Vec::new()), tap(vec![unscheduled(&flow, 0)]));
    h.network_mut().set_endpoint(a, at_a);
    h.network_mut().set_endpoint(c, at_c);
    h.schedule(&[flow, FlowDesc { id: CUE, src: c, dst: a, size: 1, start: LATE }]);
    h.network_mut().run_until(LATE - 1);
    let name = scheme.name();
    assert!(h.metrics().flow(FLOW).expect("scheduled").aborted.is_some(), "{name}");
    assert_eq!(mine.borrow().holding(FLOW), EMPTY, "{name}: A kept state of the flow");
    h.network_mut().run_until(LATE + ms(20));
    assert_eq!(mine.borrow().holding(FLOW), EMPTY, "{name}: the straggler opened an entry");
    let rec = h.metrics().flow(FLOW).expect("scheduled");
    assert!(!rec.is_done(FlowEnd::Receiver), "{name}: an aborted flow's end is done");
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

/// A give-up is heard at both ends. [`FLOW`], 1 MB into the host cut off by
/// `partition=50us..900ms`, goes silent: one end gives up on its peer past
/// `PEER_SILENCE`, and the engine aborts the flow once. Before the
/// partition heals neither end holds anything of the flow, and after the
/// give-up neither is handed a timer of it, nor re-arms a host timer (a
/// scan) that finds nothing left to do.
fn a_give_up_shuts_both_ends<E: Inspect>(scheme: Scheme) {
    let faults = FaultPlan::default().with_partition(us(50), ms(900));
    let link = LinkParams::uniform(Rate::gbps(10), us(3));
    let spec = TopoSpec::SingleSwitch { hosts: 4, link };
    let builder = SchemeBuilder::new(scheme).topology(spec).faults(faults);
    let mut h = builder.tracer(Log::default()).build();
    let (a, b) = (h.hosts()[0], *h.hosts().last().expect("hosts"));
    let flow = FlowDesc { id: FLOW, src: b, dst: a, size: 1_000_000, start: 0 };
    let mut ends = Vec::new();
    for host in [b, a] {
        let (inner, timers) = (Rc::new(RefCell::new(E::make(scheme, &h.params))), Rc::default());
        let tap = Tap { inner: Rc::clone(&inner), script: Vec::new(), timers: Rc::clone(&timers) };
        h.network_mut().set_endpoint(host, Box::new(tap));
        ends.push((inner, timers));
    }
    h.schedule(&[flow]);
    h.network_mut().run_until(ms(850));
    let name = scheme.name();
    let rec = h.metrics().flow(FLOW).expect("scheduled");
    assert_eq!(rec.aborted, Some(AbortCause::PeerSilent), "{name}");
    let aborts = &h.network().tracer().aborts;
    assert!(matches!(aborts[..], [(_, FLOW, AbortCause::PeerSilent)]), "{name}: {aborts:?}");
    let gave_up = aborts[0].0;
    for ((inner, timers), end) in ends.iter().zip(["sender", "receiver"]) {
        assert_eq!(inner.borrow().holding(FLOW), EMPTY, "{name}: the {end} kept the flow");
        let after: Vec<Timer> =
            timers.borrow().iter().filter(|&&(at, _)| at > gave_up).map(|&(_, t)| t).collect();
        let mut kinds: Vec<u8> = after.iter().map(|t| t.kind).collect();
        kinds.sort_unstable();
        kinds.dedup();
        let once_each = kinds.len() == after.len() && after.iter().all(|t| t.flow.is_none());
        assert!(once_each, "{name}: the {end}'s timers after the give-up at {gave_up}: {after:?}");
    }
}

#[test]
fn a_give_up_aborts_the_flow_at_both_ends() {
    a_give_up_shuts_both_ends::<NdpEndpoint>(Scheme::NdpAeolus);
    a_give_up_shuts_both_ends::<XPassEndpoint>(Scheme::ExpressPassAeolus);
    a_give_up_shuts_both_ends::<HomaEndpoint>(Scheme::HomaAeolus);
    a_give_up_shuts_both_ends::<PHostEndpoint>(Scheme::PHostAeolus);
    a_give_up_shuts_both_ends::<FastpassEndpoint>(Scheme::FastpassAeolus);
    a_give_up_shuts_both_ends::<DctcpEndpoint>(Scheme::Dctcp { rto: ms(10) });
}
