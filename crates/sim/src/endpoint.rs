//! Host endpoints: where transport protocols live.
//!
//! An [`Endpoint`] is installed on each host and receives flow arrivals,
//! packets and timer callbacks. Handlers interact with the network only
//! through the [`Ctx`] passed in. Timers go straight into the event queue;
//! sends are buffered and put on the NIC by the engine after the handler
//! returns, so a handler's timers always take their places in the event
//! order before the events its sends cause.

use crate::event::{Event, EventQueue, Place};
use crate::metrics::{FlowEnd, Metrics};
use crate::packet::{FlowDesc, FlowId, NodeId, Packet};
use crate::telemetry::{TraceSink, TransportEvent};
use crate::units::{Rate, Time};

/// A transport endpoint installed on a host.
pub trait Endpoint {
    /// A new flow originates at this host.
    fn on_flow_arrival(&mut self, flow: FlowDesc, ctx: &mut Ctx<'_>);
    /// A packet addressed to this host arrived.
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>);
    /// A timer armed through [`Ctx::set_timer_in_with`] or
    /// [`Ctx::fill_timer`] fired, in the incarnation it was armed in (see
    /// [`Timer`]).
    fn on_timer(&mut self, timer: Timer, ctx: &mut Ctx<'_>);
    /// The host crashed (fault injection): forget every byte of transport
    /// state, as a freshly built endpoint. Timers need no wipe: the engine
    /// drops every timer armed before the crash undelivered (see
    /// [`Timer`]), as it does a flow timer armed before its flow is
    /// relaunched, on either host.
    fn on_crash(&mut self, _ctx: &mut Ctx<'_>) {}
    /// A flow this endpoint participates in (as sender or receiver) was
    /// aborted by the engine — after a crash of either end, or after either
    /// end gave up on its silent peer ([`Ctx::give_up`]): drop its state.
    /// Nothing grows it back: while the flow is aborted the engine hands
    /// neither end any of its packets or timers and dispatches no arrival,
    /// and a restart relaunches it through [`Endpoint::on_flow_arrival`]
    /// from that empty slate.
    fn on_flow_abort(&mut self, _flow: FlowDesc, _ctx: &mut Ctx<'_>) {}
}

/// A timer as an endpoint arms it and gets it back: a kind of the
/// transport's choosing, and the flow it is due for — `None` for a timer of
/// the whole host (a pacer, a scan).
///
/// The engine owns a timer's staleness. It packs the timer into
/// [`Event::Timer`]'s token together with a stamp of the incarnation it was
/// armed in: the host's crash count, plus the flow's
/// [restarts](crate::FlowRecord::restarts) for a flow timer. Both counters
/// only grow, so at dispatch a timer whose stamp no longer matches was
/// armed before a crash of its host or a relaunch of its flow, and is
/// dropped without reaching [`Endpoint::on_timer`] — as is a flow timer
/// due at either end of a flow that is aborted.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timer {
    /// What is due, in the arming transport's numbering.
    pub kind: u8,
    /// The flow it is due for; `None` for a host timer.
    pub flow: Option<FlowId>,
}

/// Token layout: the stamp in the top 16 bits, the kind in the next 8, and
/// in the low 40 the flow id plus one (0 for a host timer).
const FLOW_BITS: u32 = 40;
const STAMP_SHIFT: u32 = 48;

impl Timer {
    /// The largest flow id a timer can carry.
    pub const MAX_FLOW: u64 = (1 << FLOW_BITS) - 2;

    /// A timer of the whole host.
    pub const fn host(kind: u8) -> Timer {
        Timer { kind, flow: None }
    }

    /// A timer of `flow`.
    pub const fn flow(kind: u8, flow: FlowId) -> Timer {
        Timer { kind, flow: Some(flow) }
    }

    /// The token of this timer armed under `stamp`.
    ///
    /// # Panics
    /// Panics if the flow id exceeds [`Timer::MAX_FLOW`].
    pub(crate) fn pack(self, stamp: u16) -> u64 {
        let flow = match self.flow {
            Some(FlowId(id)) => {
                assert!(id <= Timer::MAX_FLOW, "flow id {id} does not fit a timer token");
                id + 1
            }
            None => 0,
        };
        (stamp as u64) << STAMP_SHIFT | (self.kind as u64) << FLOW_BITS | flow
    }

    /// The timer and stamp [`Timer::pack`] made `token` of.
    pub(crate) fn unpack(token: u64) -> (Timer, u16) {
        let flow = (token & ((1 << FLOW_BITS) - 1)).checked_sub(1).map(FlowId);
        (Timer { kind: (token >> FLOW_BITS) as u8, flow }, (token >> STAMP_SHIFT) as u16)
    }
}

/// The incarnation stamp of a timer of `flow` (`None`: a host timer) on a
/// host that has crashed `crashes` times. Until some flow has `restarted`,
/// every flow is at incarnation 0 and `metrics` goes unread, as for
/// packets.
#[inline]
pub(crate) fn timer_stamp(
    crashes: u16,
    restarted: bool,
    metrics: &Metrics,
    flow: Option<FlowId>,
) -> u16 {
    match flow {
        Some(flow) if restarted => {
            let restarts = metrics.flow(flow).map_or(0, |rec| rec.restarts);
            crashes.wrapping_add(restarts as u16)
        }
        _ => crashes,
    }
}

/// Handler context: simulation time, host identity, the event queue and
/// the send buffer.
pub struct Ctx<'a> {
    /// Current simulated time.
    pub now: Time,
    /// The host this endpoint runs on.
    pub host: NodeId,
    /// The host NIC line rate.
    pub line_rate: Rate,
    /// Run metrics (flow completion, efficiency, timeouts).
    pub metrics: &'a mut Metrics,
    pub(crate) tracer: &'a mut dyn TraceSink,
    pub(crate) trace_enabled: bool,
    /// Packets to enqueue on this host's NIC, in order.
    pub(crate) sends: &'a mut Vec<Packet>,
    /// Flows to abort after the handler returns ([`Ctx::give_up`]).
    pub(crate) give_ups: &'a mut Vec<FlowId>,
    pub(crate) queue: &'a mut EventQueue,
    /// How often this host has crashed: its timers' incarnation stamp.
    pub(crate) crashes: u16,
    /// Has any flow been relaunched yet (see [`timer_stamp`])?
    pub(crate) restarted: bool,
}

impl<'a> Ctx<'a> {
    /// Queue `pkt` for transmission on this host's NIC.
    pub fn send(&mut self, pkt: Packet) {
        self.sends.push(pkt);
    }

    /// Arm `timer` to fire `delay` from now. [`Endpoint::on_timer`] gets
    /// it back as armed, unless the incarnation it was armed in has ended
    /// by then (see [`Timer`]): the endpoint keeps no table of its timers.
    /// Timers never affect event ordering — events order by `(time, seq)`
    /// — so endpoints may arm the same timer any number of times.
    ///
    /// # Panics
    /// Panics if the timer's flow id exceeds [`Timer::MAX_FLOW`].
    pub fn set_timer_in_with(&mut self, delay: Time, timer: Timer) {
        let token = self.token(timer);
        self.queue.schedule_at(self.now + delay, Event::Timer { node: self.host, token });
    }

    /// The token of `timer` armed now.
    fn token(&self, timer: Timer) -> u64 {
        timer.pack(timer_stamp(self.crashes, self.restarted, self.metrics, timer.flow))
    }

    /// Take the place in the event order a timer set `delay` from now would
    /// get, without queueing anything (see [`Place`]). A deadline re-armed
    /// many times can keep one queued event: reserve at every re-arm, and
    /// [fill](Ctx::fill_timer) only the place that is due.
    pub fn reserve_timer_in(&mut self, delay: Time) -> Place {
        self.queue.reserve(self.now + delay)
    }

    /// Queue `timer` at a place taken by [`Ctx::reserve_timer_in`]: it
    /// fires exactly where a timer set at reservation time would have,
    /// stamped with the incarnation it is filled in.
    ///
    /// # Panics
    /// Panics if the run is already past `place`.
    pub fn fill_timer(&mut self, place: Place, timer: Timer) {
        let token = self.token(timer);
        self.queue.fill(place, Event::Timer { node: self.host, token });
    }

    /// Has the run reached `place`: is the event being handled the one
    /// filled into it, or one ordered after it?
    pub fn passed(&self, place: Place) -> bool {
        self.queue.passed(place)
    }

    /// Is the event being handled the one filled into `place`? A timer
    /// handler tells its live deadline from stale ones with this.
    pub fn fired(&self, place: Place) -> bool {
        self.queue.dispatching(place)
    }

    /// This host, `flow`'s `end`, is done with it: the endpoint drops the
    /// flow's state and answers its stragglers from [`Ctx::finished`].
    pub fn finish(&mut self, flow: FlowId, end: FlowEnd) {
        self.metrics.finish(flow, end);
    }

    /// Give up on `flow`: its peer has been silent too long. Once the
    /// handler returns, the engine aborts the flow with
    /// [`AbortCause::PeerSilent`](crate::AbortCause::PeerSilent) unless it
    /// already completed or aborted, and never relaunches it. The abort
    /// calls [`Endpoint::on_flow_abort`] at both ends, this one included.
    pub fn give_up(&mut self, flow: FlowId) {
        self.give_ups.push(flow);
    }

    /// The size of `flow` if this host is its `end` and has finished it
    /// ([`Ctx::finish`]) since it last crashed.
    pub fn finished(&self, flow: FlowId, end: FlowEnd) -> Option<u64> {
        let rec = self.metrics.flow(flow)?;
        let host = [rec.desc.src, rec.desc.dst][end as usize];
        (rec.is_done(end) && host == self.host).then_some(rec.desc.size)
    }

    /// Whether the engine runs with an enabled tracer ([`crate::Tracer::ENABLED`]:
    /// the recorder, the conformance oracle, or any sink of the caller's).
    /// Handlers can skip building expensive event payloads when this is
    /// false (emitting through [`Ctx::emit`] is already a no-op then).
    pub fn tracing(&self) -> bool {
        self.trace_enabled
    }

    /// Report a transport-level telemetry event (credit issue/receipt,
    /// burst start/stop, loss detection, retransmission) to the tracer's
    /// [`TraceSink::transport_event`]: the recorder logs it, the
    /// conformance oracle checks it. No-op unless the engine runs with an
    /// enabled tracer.
    pub fn emit(&mut self, ev: TransportEvent) {
        if self.trace_enabled {
            self.tracer.transport_event(self.now, self.host, &ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_tokens_are_unique_and_absolute() {
        let mut metrics = Metrics::new();
        let (mut sends, mut give_ups) = (Vec::new(), Vec::new());
        let mut sink = crate::telemetry::NullTracer;
        let mut queue = EventQueue::new();
        queue.schedule_at(1000, Event::FlowArrival { flow: FlowId(0) });
        queue.pop();
        let mut ctx = Ctx {
            now: 1000,
            host: NodeId(3),
            line_rate: Rate::gbps(100),
            metrics: &mut metrics,
            tracer: &mut sink,
            trace_enabled: false,
            sends: &mut sends,
            give_ups: &mut give_ups,
            queue: &mut queue,
            crashes: 2,
            restarted: false,
        };
        // Fire times are absolute; a timer comes back as armed, the same
        // one armed twice included.
        let (a, b, c, d) =
            (Timer::host(7), Timer::flow(8, FlowId(5)), Timer::host(9), Timer::flow(10, FlowId(0)));
        ctx.set_timer_in_with(50, a);
        ctx.set_timer_in_with(20, b);
        ctx.set_timer_in_with(0, a);
        // A reserved place holds its rank (before the timer set after it at
        // the same time) but queues nothing until it is filled.
        let place = ctx.reserve_timer_in(20);
        ctx.set_timer_in_with(20, c);
        assert!(!ctx.passed(place) && !ctx.fired(place));
        ctx.fill_timer(place, d);
        let mut fired = Vec::new();
        while let Some((at, ev)) = queue.pop() {
            let Event::Timer { node, token } = ev else { panic!("not a timer: {ev:?}") };
            assert_eq!(node, NodeId(3));
            let (timer, stamp) = Timer::unpack(token);
            assert_eq!(stamp, 2, "stamped with the host's crash count");
            fired.push((at, timer));
        }
        assert_eq!(fired, vec![(1000, a), (1020, b), (1020, d), (1020, c), (1050, a)]);
    }

    #[test]
    fn tokens_round_trip_at_the_field_limits() {
        for timer in [
            Timer::host(0),
            Timer::host(u8::MAX),
            Timer::flow(0, FlowId(0)),
            Timer::flow(u8::MAX, FlowId(Timer::MAX_FLOW)),
        ] {
            for stamp in [0, 1, u16::MAX] {
                assert_eq!(Timer::unpack(timer.pack(stamp)), (timer, stamp), "{timer:?} @ {stamp}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "does not fit a timer token")]
    fn a_flow_id_past_the_field_is_refused() {
        Timer::flow(0, FlowId(Timer::MAX_FLOW + 1)).pack(0);
    }
}
