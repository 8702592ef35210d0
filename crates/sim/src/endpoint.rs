//! Host endpoints: where transport protocols live.
//!
//! An [`Endpoint`] is installed on each host and receives flow arrivals,
//! packets and timer callbacks. Handlers interact with the network only
//! through the [`Ctx`] passed in. Timers go straight into the event queue;
//! sends are buffered and put on the NIC by the engine after the handler
//! returns, so a handler's timers always take their places in the event
//! order before the events its sends cause.

use crate::event::{Event, EventQueue, Place};
use crate::metrics::Metrics;
use crate::packet::{FlowDesc, NodeId, Packet};
use crate::telemetry::{FaultEvent, TraceSink, TransportEvent};
use crate::units::{Rate, Time};

/// A transport endpoint installed on a host.
pub trait Endpoint {
    /// A new flow originates at this host.
    fn on_flow_arrival(&mut self, flow: FlowDesc, ctx: &mut Ctx<'_>);
    /// A packet addressed to this host arrived.
    fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>);
    /// A timer armed through [`Ctx::set_timer_in_with`] or
    /// [`Ctx::fill_timer`] fired.
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_>);
    /// The host crashed (fault injection): wipe all per-flow transport
    /// state — flowmap slots, timers, credit/grant ledgers, the markers of
    /// finished flows. Timers already in the event queue will still fire;
    /// they must go stale, not misfire: a [`crate::flowmap::TimerTable`]
    /// token goes stale through [`crate::flowmap::TimerTable::clear`], a
    /// timer filled into a reserved [`Place`] through the place, which no
    /// state left after the wipe names ([`Ctx::fired`] tells it from a
    /// relaunched flow's own).
    fn on_crash(&mut self, _ctx: &mut Ctx<'_>) {}
    /// A flow this endpoint participates in (as sender or receiver) was
    /// aborted by the engine. Drop its state and tombstone the flow id so
    /// stale in-flight packets cannot resurrect it before a restart.
    fn on_flow_abort(&mut self, _flow: FlowDesc, _ctx: &mut Ctx<'_>) {}
    /// A previously-aborted flow is about to be relaunched (the engine
    /// re-delivers `on_flow_arrival` at the source right after this).
    /// Clear the tombstone and any leftover incarnation state.
    fn on_flow_restart(&mut self, _flow: FlowDesc, _ctx: &mut Ctx<'_>) {}
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
    pub(crate) queue: &'a mut EventQueue,
}

impl<'a> Ctx<'a> {
    /// Queue `pkt` for transmission on this host's NIC.
    pub fn send(&mut self, pkt: Packet) {
        self.sends.push(pkt);
    }

    /// Arm a timer to fire `delay` from now under a caller-chosen token
    /// (typically a [`crate::flowmap::TimerTable`] token, so the endpoint
    /// can match the callback to its payload without a map lookup). Tokens
    /// never affect event ordering — events order by `(time, seq)` — so
    /// per-endpoint token spaces may overlap freely.
    pub fn set_timer_in_with(&mut self, delay: Time, token: u64) {
        self.queue.schedule_at(self.now + delay, Event::Timer { node: self.host, token });
    }

    /// Take the place in the event order a timer set `delay` from now would
    /// get, without queueing anything (see [`Place`]). A deadline re-armed
    /// many times can keep one queued event: reserve at every re-arm, and
    /// [fill](Ctx::fill_timer) only the place that is due.
    pub fn reserve_timer_in(&mut self, delay: Time) -> Place {
        self.queue.reserve(self.now + delay)
    }

    /// Queue a timer with `token` at a place taken by
    /// [`Ctx::reserve_timer_in`]: it fires exactly where a timer set at
    /// reservation time would have.
    ///
    /// # Panics
    /// Panics if the run is already past `place`.
    pub fn fill_timer(&mut self, place: Place, token: u64) {
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

    /// Report a fault-recovery event (e.g. a transport-initiated flow abort
    /// after a peer-silence threshold) to the tracer's
    /// [`TraceSink::fault_event`]. No-op unless the engine runs with an
    /// enabled tracer.
    pub fn emit_fault(&mut self, ev: FaultEvent) {
        if self.trace_enabled {
            self.tracer.fault_event(self.now, &ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timer_tokens_are_unique_and_absolute() {
        let mut metrics = Metrics::new();
        let mut sends = Vec::new();
        let mut sink = crate::telemetry::NullTracer;
        let mut queue = EventQueue::new();
        queue.schedule_at(1000, Event::FlowArrival { flow: crate::packet::FlowId(0) });
        queue.pop();
        let mut ctx = Ctx {
            now: 1000,
            host: NodeId(3),
            line_rate: Rate::gbps(100),
            metrics: &mut metrics,
            tracer: &mut sink,
            trace_enabled: false,
            sends: &mut sends,
            queue: &mut queue,
        };
        // Fire times are absolute; tokens are the caller's, kept verbatim —
        // overlapping token spaces included.
        ctx.set_timer_in_with(50, 7);
        ctx.set_timer_in_with(20, 8);
        ctx.set_timer_in_with(0, 7);
        // A reserved place holds its rank (before the timer set after it at
        // the same time) but queues nothing until it is filled.
        let place = ctx.reserve_timer_in(20);
        ctx.set_timer_in_with(20, 9);
        assert!(!ctx.passed(place) && !ctx.fired(place));
        ctx.fill_timer(place, 10);
        let mut fired = Vec::new();
        while let Some((at, ev)) = queue.pop() {
            let Event::Timer { node, token } = ev else { panic!("not a timer: {ev:?}") };
            assert_eq!(node, NodeId(3));
            fired.push((at, token));
        }
        assert_eq!(fired, vec![(1000, 7), (1020, 8), (1020, 10), (1020, 9), (1050, 7)]);
    }
}
