//! The network engine: nodes, wiring, and the event dispatch loop.

use crate::endpoint::{timer_stamp, Ctx, Endpoint, Timer};
use crate::event::{Event, EventMix, EventQueue, SchedulerKind};
use crate::faults::{self, Effect, FaultIndex, FaultPlan, LinkFilter};
use crate::metrics::{AbortCause, Metrics};
use crate::node::{Node, NodeKind};
use crate::packet::{FlowDesc, NodeId, Packet, PortId};
use crate::pool::{PacketPool, PacketRef};
use crate::port::{Link, Port};
use crate::queues::{DropReason, EnqueueOutcome, Poll, Queue};
use crate::rng::SimRng;
use crate::routing::{RoutePolicy, RouteTable};
use crate::telemetry::{FaultEvent, HostEvent, NullTracer, QueueEvent, QueueRecord, Tracer};
use crate::units::{Rate, Time};

/// A simulated network: topology, endpoints, event queue and metrics.
///
/// Generic over a [`Tracer`]; the default [`NullTracer`] compiles every
/// telemetry hook away (each sits behind an `if T::ENABLED` guard on an
/// associated const), so an untraced network pays nothing for the
/// observability layer.
pub struct Network<T: Tracer = NullTracer> {
    nodes: Vec<Node>,
    queue: EventQueue,
    /// Run metrics.
    pub metrics: Metrics,
    /// Events dispatched so far, by [`Event::kind`].
    event_mix: EventMix,
    /// Telemetry sink for engine-level events.
    tracer: T,
    /// Scratch for per-band queue occupancy sampling (avoids a per-event
    /// allocation when tracing is on; unused otherwise).
    band_scratch: Vec<(&'static str, u64)>,
    /// Installed fault schedule behind its time index. Empty by default: one
    /// `active` flag per event, zero RNG draws, zero extra events. Installed:
    /// each transmission and switch arrival looks at the windows open at
    /// `now` — O(open windows), not O(plan) — and the open set is recomputed
    /// when `now` crosses a window boundary.
    faults: FaultIndex,
    /// The fault plan's private corruption RNG, isolated from every other
    /// randomness stream in the run.
    fault_rng: SimRng,
    /// Recycling slab for every packet in flight. Endpoints hand the engine
    /// packets by value; the engine pools them and moves 4-byte
    /// [`PacketRef`] handles through queues and events instead.
    pool: PacketPool,
    /// Reusable send buffer for endpoint dispatch — taken before each
    /// callback and put back drained, so steady-state dispatch never
    /// allocates.
    sends_scratch: Vec<Packet>,
    /// Flows aborted by a node crash, waiting for both endpoints to come
    /// back up so they can relaunch. Scanned at every node-window end.
    pending_restart: Vec<FlowDesc>,
    /// Has any flow been relaunched yet? Until then every incarnation is 0,
    /// so sends and timers skip the stamp lookup and deliveries the stale
    /// check.
    restarted: bool,
}

impl Default for Network {
    fn default() -> Self {
        Self::new()
    }
}

impl Network {
    /// An empty, untraced network.
    pub fn new() -> Network {
        Network::with_tracer(NullTracer)
    }
}

impl<T: Tracer> Network<T> {
    /// An empty network feeding engine telemetry to `tracer`.
    pub fn with_tracer(tracer: T) -> Network<T> {
        Network {
            nodes: Vec::new(),
            queue: EventQueue::new(),
            metrics: Metrics::new(),
            event_mix: [0; Event::KINDS.len()],
            tracer,
            band_scratch: Vec::new(),
            faults: FaultIndex::default(),
            fault_rng: SimRng::seed_from_u64(0),
            pool: PacketPool::new(),
            sends_scratch: Vec::new(),
            pending_restart: Vec::new(),
            restarted: false,
        }
    }

    /// The packet pool — read its slab/recycling counters to verify the
    /// zero-alloc steady-state invariant.
    pub fn pool(&self) -> &PacketPool {
        &self.pool
    }

    /// Bind a fault plan to this topology and arm its window-transition
    /// events. `hosts` is the workload host list the plan's `crash=` indices
    /// and `partition=` halves refer to and `arbiter` the node an `arbiter=`
    /// outage takes down (see [`FaultIndex::new`]); scenario code goes
    /// through the harness, which knows both.
    ///
    /// Call before the run starts; window times already in the past are
    /// clamped to `now`. Installing an empty plan is free — no events are
    /// scheduled and the per-event fault check stays a single flag.
    ///
    /// # Panics
    /// Panics if a non-empty plan is already installed: its window events
    /// are in the queue and would index into the new plan's windows.
    pub fn set_fault_plan(&mut self, plan: &FaultPlan, hosts: &[NodeId], arbiter: Option<NodeId>) {
        assert!(
            !self.faults.active(),
            "set_fault_plan over an installed plan: its window events are already queued"
        );
        self.fault_rng = SimRng::seed_from_u64(plan.seed ^ 0xae01_f417);
        let now = self.queue.now();
        self.faults = FaultIndex::new(plan, hosts, arbiter, now);
        // Link windows first, then node windows; a blackout is a
        // per-transmit check and has no events.
        for (window, w) in self.faults.windows().iter().enumerate() {
            if w.what != Effect::Blackout {
                self.queue.schedule_at(w.from.max(now), Event::Fault { window, start: true });
                self.queue.schedule_at(w.until.max(now), Event::Fault { window, start: false });
            }
        }
    }

    /// The installed fault plan, as written (empty unless
    /// [`Network::set_fault_plan`] was called).
    pub fn fault_plan(&self) -> &FaultPlan {
        self.faults.plan()
    }

    /// The installed tracer.
    pub fn tracer(&self) -> &T {
        &self.tracer
    }

    /// Mutable access to the installed tracer (e.g. to flush its time
    /// series after a run).
    pub fn tracer_mut(&mut self) -> &mut T {
        &mut self.tracer
    }

    /// Switch the event scheduler implementation. Used by benchmarks and
    /// determinism cross-checks; must be called before any event is
    /// scheduled or processed.
    ///
    /// # Panics
    /// Panics if events are already pending or time has advanced.
    pub fn set_scheduler(&mut self, kind: SchedulerKind) {
        assert!(
            self.queue.is_empty() && self.queue.now() == 0,
            "set_scheduler on a live network"
        );
        self.queue = EventQueue::with_scheduler(kind);
    }

    /// Which event scheduler this network runs on.
    pub fn scheduler(&self) -> SchedulerKind {
        self.queue.scheduler()
    }

    /// Current simulated time.
    pub fn now(&self) -> Time {
        self.queue.now()
    }

    /// Total events processed so far.
    pub fn events_processed(&self) -> u64 {
        self.event_mix.iter().sum()
    }

    /// Events queued and not yet processed ([`EventQueue::len`]).
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }

    /// Events processed so far by kind, in [`Event::KINDS`] order — what the
    /// run spent its events on.
    pub fn event_mix(&self) -> EventMix {
        self.event_mix
    }

    /// Add a switch with the given routing policy, RNG seed (for spraying)
    /// and ingress (switching) delay. Ports are added via [`Network::connect`].
    pub fn add_switch(&mut self, policy: RoutePolicy, seed: u64, ingress_delay: Time) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            id,
            ports: Vec::new(),
            ingress_delay,
            kind: NodeKind::Switch { table: RouteTable::new(0, policy, seed) },
        });
        id
    }

    /// Add a host with the given ingress (stack) delay. Install its endpoint
    /// with [`Network::set_endpoint`] and wire its NIC with [`Network::connect`].
    pub fn add_host(&mut self, ingress_delay: Time) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            id,
            ports: Vec::new(),
            ingress_delay,
            kind: NodeKind::Host { endpoint: None, crashes: 0 },
        });
        id
    }

    /// Install the transport endpoint on `host`.
    pub fn set_endpoint(&mut self, host: NodeId, ep: Box<dyn Endpoint>) {
        match &mut self.nodes[host.0 as usize].kind {
            NodeKind::Host { endpoint, .. } => *endpoint = Some(ep),
            NodeKind::Switch { .. } => panic!("set_endpoint on a switch"),
        }
    }

    /// Add a simplex link from `from` to `to` with the given rate, delay and
    /// egress queue; returns the new egress port id on `from`.
    pub fn connect(
        &mut self,
        from: NodeId,
        to: NodeId,
        rate: Rate,
        delay: Time,
        queue: impl Into<Queue>,
    ) -> PortId {
        assert!((to.0 as usize) < self.nodes.len(), "link to unknown node");
        let node = &mut self.nodes[from.0 as usize];
        let pid = PortId(node.ports.len() as u16);
        node.ports.push(Port::new(Link { rate, delay, to }, queue));
        if T::ENABLED {
            self.tracer.port_registered(from, pid, rate, to);
        }
        pid
    }

    /// Register `port` on switch `sw` as a next hop towards destination `dst`.
    pub fn add_route(&mut self, sw: NodeId, dst: NodeId, port: PortId) {
        self.add_routes(sw, dst, std::slice::from_ref(&port));
    }

    /// Register the ECMP group `ports` on switch `sw` towards `dst`, after
    /// the next hops it already has (see [`RouteTable::add_routes`]).
    pub fn add_routes(&mut self, sw: NodeId, dst: NodeId, ports: &[PortId]) {
        self.route_table_mut(sw).add_routes(dst, ports);
    }

    /// The routing table of switch `sw`.
    pub fn route_table_mut(&mut self, sw: NodeId) -> &mut RouteTable {
        match &mut self.nodes[sw.0 as usize].kind {
            NodeKind::Switch { table } => table,
            NodeKind::Host { .. } => panic!("{sw:?} is a host, not a switch"),
        }
    }

    /// Schedule an application flow; its arrival fires at `desc.start`.
    pub fn schedule_flow(&mut self, desc: FlowDesc) {
        assert!(self.nodes[desc.src.0 as usize].is_host(), "flow src must be a host");
        assert!(self.nodes[desc.dst.0 as usize].is_host(), "flow dst must be a host");
        self.metrics.flow_scheduled(desc);
        self.queue.schedule_at(desc.start, Event::FlowArrival { flow: desc.id });
    }

    /// Immutable access to a node (for tests and stats readers).
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// Immutable access to a node's port.
    pub fn port(&self, id: NodeId, port: PortId) -> &Port {
        &self.nodes[id.0 as usize].ports[port.0 as usize]
    }

    /// Run until the event queue is exhausted or simulated time exceeds
    /// `horizon`. Returns true if all scheduled flows completed.
    pub fn run_to_completion(&mut self, horizon: Time) -> bool {
        // "Settled" counts aborted flows too, but an abort with a restart
        // pending is not a terminal state — keep draining until the restart
        // window fires.
        while !(self.metrics.flow_count() > 0
            && self.metrics.all_settled()
            && self.pending_restart.is_empty())
        {
            let Some((_, ev)) = self.queue.pop_at_or_before(horizon) else { break };
            self.dispatch(ev);
        }
        self.metrics.all_complete()
    }

    /// Run until simulated time reaches `until` (events at exactly `until`
    /// are processed).
    pub fn run_until(&mut self, until: Time) {
        while let Some((_, ev)) = self.queue.pop_at_or_before(until) {
            self.dispatch(ev);
        }
    }

    fn dispatch(&mut self, ev: Event) {
        self.event_mix[ev.kind()] += 1;
        // Time only moves between events: advancing here keeps the open set
        // current for every fault query the handlers below make.
        self.faults.advance(self.queue.now());
        match ev {
            Event::Arrival { node, pkt } => self.handle_arrival(node, pkt),
            Event::PortFree { node, port } => {
                self.nodes[node.0 as usize].ports[port.0 as usize].free_armed = false;
                self.try_transmit(node, port);
            }
            Event::PortKick { node, port } => {
                self.nodes[node.0 as usize].ports[port.0 as usize].kick_at = None;
                self.try_transmit(node, port);
            }
            Event::Timer { node, token } => {
                // A timer armed in an incarnation that has ended since is
                // dropped here, counted above like any other event.
                let (timer, stamp) = Timer::unpack(token);
                let crashes = self.crashes(node);
                if stamp == timer_stamp(crashes, self.restarted, &self.metrics, timer.flow) {
                    self.with_endpoint(node, |ep, ctx| ep.on_timer(timer, ctx));
                }
            }
            Event::FlowArrival { flow } => {
                let rec = self.metrics.flow(flow).expect("arrival of an unscheduled flow");
                let (flow, aborted) = (rec.desc, rec.aborted.is_some());
                let now = self.queue.now();
                if self.endpoint_down(&flow, now) {
                    // The flow arrives while an endpoint is dead: abort on
                    // the spot and relaunch when the crash window ends.
                    self.abort_flow(flow, AbortCause::NodeCrash, true);
                } else {
                    // A node abort leaves its window open past the flow's
                    // start, and a relaunch clears the abort first: no end
                    // grows state for an aborted flow, as for its packets.
                    debug_assert!(!aborted, "arrival of aborted flow {:?}", flow.id);
                    self.with_endpoint(flow.src, |ep, ctx| ep.on_flow_arrival(flow, ctx));
                }
            }
            Event::Fault { window, start } => self.on_fault(window, start),
        }
    }

    /// Is either endpoint of `flow` a dead node at `now`?
    fn endpoint_down(&self, flow: &FlowDesc, now: Time) -> bool {
        let open = self.faults.open_at(now);
        faults::node_down_at(open, flow.src, now) || faults::node_down_at(open, flow.dst, now)
    }

    /// A fault window transitioned. A link window is surfaced to telemetry
    /// and every port it covers re-kicked — waking queues that stalled while
    /// their link was down and re-evaluating pacing under a changed degrade
    /// factor. A node window takes its node down or brings it back.
    fn on_fault(&mut self, window: usize, start: bool) {
        let now = self.queue.now();
        match self.faults.windows()[window].what {
            Effect::Link(links, kind) => {
                if T::ENABLED {
                    let ev = if start {
                        FaultEvent::WindowStart { window, kind }
                    } else {
                        FaultEvent::WindowEnd { window, kind }
                    };
                    self.tracer.fault_event(now, &ev);
                }
                self.rekick(links);
            }
            Effect::Crash(node) if start => self.node_down(node, true, now),
            Effect::ArbiterDown(node) if start => self.node_down(node, false, now),
            Effect::Crash(node) | Effect::ArbiterDown(node) => self.node_up(node, now),
            Effect::Blackout => unreachable!("blackouts schedule no events"),
        }
    }

    /// `node` goes dark. Every packet sitting in its egress queues dies with
    /// the window's taxonomy, the endpoint (if any) wipes its per-flow
    /// transport state, and — for a crash — every incomplete flow touching
    /// the node aborts and queues for relaunch at the window end. An arbiter
    /// outage aborts nothing: workload flows never terminate at the arbiter,
    /// they merely lose its control traffic.
    fn node_down(&mut self, node: NodeId, abort_flows: bool, now: Time) {
        if T::ENABLED {
            self.tracer.fault_event(now, &FaultEvent::NodeCrash { node });
        }
        self.purge_ports(node, now);
        let kind = &mut self.nodes[node.0 as usize].kind;
        if let NodeKind::Host { endpoint: Some(_), crashes } = kind {
            // Every timer the host armed so far goes stale, and every end
            // it was done with is forgotten with its endpoint.
            *crashes = crashes.wrapping_add(1);
            self.metrics.forget_done(node);
            self.with_endpoint(node, |ep, ctx| ep.on_crash(ctx));
        }
        if abort_flows {
            // Abort in flow-id order: `flows()` iterates the record slab
            // in insertion order, which is schedule order — deterministic.
            let touched: Vec<FlowDesc> = self
                .metrics
                .flows()
                .filter(|rec| {
                    rec.completed_at.is_none()
                        && rec.aborted.is_none()
                        && rec.desc.start <= now
                        && (rec.desc.src == node || rec.desc.dst == node)
                })
                .map(|rec| rec.desc)
                .collect();
            for desc in touched {
                self.abort_flow(desc, AbortCause::NodeCrash, true);
            }
        }
    }

    /// `node` comes back. Pending flows whose endpoints are all alive again
    /// are relaunched through a fresh `FlowArrival`, then the node's ports
    /// and every port feeding it are re-kicked.
    fn node_up(&mut self, node: NodeId, now: Time) {
        if T::ENABLED {
            self.tracer.fault_event(now, &FaultEvent::NodeRestart { node });
        }
        for desc in std::mem::take(&mut self.pending_restart) {
            if self.endpoint_down(&desc, now) {
                self.pending_restart.push(desc);
                continue;
            }
            self.metrics.restart_flow(desc.id);
            self.restarted = true;
            if T::ENABLED {
                self.tracer.fault_event(now, &FaultEvent::FlowRestarted { flow: desc.id });
            }
            // Relaunch keeps the original descriptor (and original
            // `start`), so the recorded FCT honestly spans the outage.
            self.queue.schedule_at(now, Event::FlowArrival { flow: desc.id });
        }
        // Wake every port stalled by the crash: the node's own egress plus
        // every port whose link feeds it.
        self.rekick(LinkFilter::Adjacent(node));
    }

    /// Try to transmit on every port `links` covers.
    fn rekick(&mut self, links: LinkFilter) {
        let mut touched = Vec::new();
        for n in &self.nodes {
            for (pi, p) in n.ports.iter().enumerate() {
                let pid = PortId(pi as u16);
                if links.matches(n.id, pid, p.link.to) {
                    touched.push((n.id, pid));
                }
            }
        }
        for (n, p) in touched {
            self.try_transmit(n, p);
        }
    }

    /// Abort `desc` (idempotent): record the cause, notify both endpoints so
    /// they drop their state, and optionally queue the flow for relaunch at
    /// the next node-window end. Until then no packet of the flow reaches
    /// either end (see `handle_arrival`).
    fn abort_flow(&mut self, desc: FlowDesc, cause: AbortCause, restartable: bool) {
        if !self.metrics.abort_flow(desc.id, cause) {
            return;
        }
        if T::ENABLED {
            let now = self.queue.now();
            self.tracer.fault_event(now, &FaultEvent::FlowAborted { flow: desc.id, cause });
        }
        if self.has_endpoint(desc.src) {
            self.with_endpoint(desc.src, |ep, ctx| ep.on_flow_abort(desc, ctx));
        }
        if desc.dst != desc.src && self.has_endpoint(desc.dst) {
            self.with_endpoint(desc.dst, |ep, ctx| ep.on_flow_abort(desc, ctx));
        }
        if restartable {
            self.pending_restart.push(desc);
        }
    }

    /// The one way a packet dies to the fault plan — on the wire out of
    /// (`node`, `port`), purged from that port's queue, or at `node`'s NIC
    /// (port 0) because the host is dead or the packet is a straggler from
    /// a pre-relaunch flow incarnation. Accounts the drop, surfaces a
    /// `PacketKilled` fault event so in-flight ledgers stay balanced, and
    /// recycles the slot: nothing downstream will ever read it.
    fn kill(&mut self, node: NodeId, port: PortId, r: PacketRef, now: Time, reason: DropReason) {
        let p = self.pool.get(r);
        self.metrics.note_drop(reason, p.class);
        if T::ENABLED {
            let ev = FaultEvent::PacketKilled {
                node,
                port,
                flow: p.flow,
                seq: p.seq,
                kind: p.kind,
                class: p.class,
                payload: p.payload,
                reason,
            };
            self.tracer.fault_event(now, &ev);
        }
        self.pool.free(r);
    }

    fn has_endpoint(&self, node: NodeId) -> bool {
        matches!(&self.nodes[node.0 as usize].kind, NodeKind::Host { endpoint: Some(_), .. })
    }

    /// How often host `node` has crashed.
    fn crashes(&self, node: NodeId) -> u16 {
        match self.nodes[node.0 as usize].kind {
            NodeKind::Host { crashes, .. } => crashes,
            NodeKind::Switch { .. } => unreachable!("a timer on a switch"),
        }
    }

    /// Kill every packet queued at `node`'s egress ports (node crash). Each
    /// kill emits a dequeue record — keeping queue-occupancy ledgers
    /// balanced — and a `PacketKilled` fault event, then recycles the slot.
    ///
    /// Packets held back by a pacing discipline (poll says `NotBefore`)
    /// survive the purge: they stay queued through the outage and emerge as
    /// stale-but-harmless wire traffic after restart: delivery stops them
    /// at an end of an aborted or relaunched flow, and a live flow's
    /// receive book dedupes them.
    fn purge_ports(&mut self, node: NodeId, now: Time) {
        let reason = faults::node_drop_reason(self.faults.open_at(now), node, now);
        for pi in 0..self.nodes[node.0 as usize].ports.len() {
            let port = PortId(pi as u16);
            loop {
                let (r, qlen_bytes, qlen_pkts) = {
                    let pool = &mut self.pool;
                    let p = &mut self.nodes[node.0 as usize].ports[pi];
                    let prev = p.queue.bytes();
                    match p.queue.poll(pool, now) {
                        Poll::Ready(r) => {
                            p.stats.on_qlen_change(prev, now);
                            let qlen = p.queue.bytes();
                            p.stats.observe_qlen(qlen);
                            p.stats.fault_kills += 1;
                            (r, qlen, p.queue.pkts())
                        }
                        Poll::NotBefore(_) | Poll::Empty => break,
                    }
                };
                if T::ENABLED {
                    let pkt = self.pool.get(r);
                    let rec = dequeue_record(now, node, port, pkt, qlen_bytes, qlen_pkts);
                    self.tracer.queue_event(&rec);
                }
                self.kill(node, port, r, now, reason);
                if T::ENABLED {
                    self.sample_bands(now, node, port);
                }
            }
        }
    }

    fn handle_arrival(&mut self, node: NodeId, r: PacketRef) {
        let now = self.queue.now();
        // Is this a host at either end of a flow that is aborted now?
        let mut aborted_end = false;
        if self.nodes[node.0 as usize].is_host() {
            if self.faults.active() {
                let open = self.faults.open_at(now);
                if faults::node_down_at(open, node, now) {
                    // Delivery to a crashed host: the packet dies at the NIC
                    // with the node window's taxonomy, never reaching the
                    // endpoint.
                    let reason = faults::node_drop_reason(open, node, now);
                    return self.kill(node, PortId(0), r, now, reason);
                }
            }
            // Until some flow has relaunched or aborted, no record can say
            // anything: every incarnation is 0 and every flow live.
            if self.restarted || self.metrics.aborted_count() > 0 {
                let pkt = self.pool.get(r);
                if let Some(rec) = self.metrics.flow(pkt.flow) {
                    // Reject stragglers from a dead flow incarnation: a
                    // cumulative grant/credit packet sent pre-crash must not
                    // inflate the relaunched incarnation's budget.
                    if pkt.incarnation < rec.restarts {
                        return self.kill(node, PortId(0), r, now, DropReason::StaleIncarnation);
                    }
                    aborted_end =
                        rec.aborted.is_some() && (node == rec.desc.src || node == rec.desc.dst);
                }
            }
        }
        let open = self.faults.open_at(now);
        let pool = &mut self.pool;
        let Node { kind, ports, .. } = &mut self.nodes[node.0 as usize];
        match kind {
            NodeKind::Switch { table } => {
                let port = if open.is_empty() {
                    // Equal to `select_avoiding` with nothing down, same RNG
                    // draw included.
                    table.select(pool.get(r))
                } else {
                    // Down links (including links into crashed nodes) are
                    // visible to routing: steer around them while an
                    // alternative next hop is up.
                    let ports = &*ports;
                    table.select_avoiding(pool.get(r), |p| {
                        faults::link_down_at(open, node, p, ports[p.0 as usize].link.to, now)
                    })
                };
                self.enqueue_egress(node, port, r);
            }
            NodeKind::Host { .. } => {
                debug_assert_eq!(pool.get(r).dst, node, "packet delivered to wrong host");
                if T::ENABLED {
                    let pkt = pool.get(r);
                    if pkt.is_data() && pkt.payload > 0 {
                        let ev = HostEvent {
                            at: now,
                            flow: pkt.flow,
                            seq: pkt.seq,
                            class: pkt.class,
                            payload: pkt.payload as u64,
                            retransmit: pkt.retransmit,
                        };
                        self.tracer.packet_delivered(&ev);
                    }
                }
                if aborted_end {
                    // An aborted flow's packets stop here, uncounted: neither
                    // end holds state for it, and none may grow back before
                    // a restart clears the abort. A host at neither end (the
                    // Fastpass arbiter) still gets them.
                    return self.pool.free(r);
                }
                // The endpoint consumes the packet by value; its slot is
                // recycled before the callback runs.
                let pkt = self.pool.take(r);
                self.with_endpoint(node, move |ep, ctx| ep.on_packet(pkt, ctx));
            }
        }
    }

    /// Offer `pkt` to the egress queue of (`node`, `port`) and start the
    /// transmitter if idle.
    fn enqueue_egress(&mut self, node: NodeId, port: PortId, pkt: PacketRef) {
        let now = self.queue.now();
        // The packet may be trimmed inside `enqueue`, so capture its
        // identity first when tracing.
        let info = if T::ENABLED {
            let p = self.pool.get(pkt);
            Some((p.flow, p.seq, p.kind, p.class, p.size, p.payload))
        } else {
            None
        };
        let (outcome, qlen_bytes, qlen_pkts) = {
            let pool = &mut self.pool;
            let p = &mut self.nodes[node.0 as usize].ports[port.0 as usize];
            let prev = p.queue.bytes();
            let outcome = p.queue.enqueue(pkt, pool, now);
            p.stats.on_qlen_change(prev, now);
            let qlen = p.queue.bytes();
            p.stats.observe_qlen(qlen);
            (outcome, qlen, p.queue.pkts())
        };
        let ev = match outcome {
            EnqueueOutcome::Queued => QueueEvent::Enqueue,
            EnqueueOutcome::QueuedMarked => QueueEvent::EnqueueMarked,
            EnqueueOutcome::QueuedTrimmed => {
                self.metrics.trimmed += 1;
                QueueEvent::EnqueueTrimmed
            }
            EnqueueOutcome::Dropped { reason, pkt } => {
                self.metrics.note_drop(reason, self.pool.get(pkt).class);
                self.pool.free(pkt);
                QueueEvent::Drop(reason)
            }
        };
        if T::ENABLED {
            let (flow, seq, kind, class, size, payload) = info.expect("captured when enabled");
            self.tracer.queue_event(&QueueRecord {
                at: now,
                node,
                port,
                ev,
                flow,
                seq,
                kind,
                class,
                size,
                payload,
                qlen_bytes,
                qlen_pkts,
            });
            self.sample_bands(now, node, port);
        }
        self.try_transmit(node, port);
    }

    /// Feed the queue's per-band occupancy to the tracer, if it reads band
    /// samples ([`Tracer::BANDS`]).
    fn sample_bands(&mut self, now: Time, node: NodeId, port: PortId) {
        if !T::BANDS {
            return;
        }
        self.band_scratch.clear();
        let p = &self.nodes[node.0 as usize].ports[port.0 as usize];
        p.queue.bands(&mut self.band_scratch);
        self.tracer.queue_bands(now, node, port, &self.band_scratch);
    }

    /// If the transmitter of (`node`, `port`) is idle and the queue can
    /// provide a packet, serialize it onto the link. If it is still held by
    /// the previous packet, make sure a `PortFree` will call back here.
    fn try_transmit(&mut self, node: NodeId, port: PortId) {
        let now = self.queue.now();
        enum Next {
            Send { to: NodeId, at_dst: Time, pkt: PacketRef },
            Kill { pkt: PacketRef, reason: DropReason },
            Kick(Time),
            Idle,
        }
        // Queue the `PortFree` reserved at `p.free` if a packet is waiting
        // for it and it is not queued yet (the dedupe `kick_at` does for
        // `PortKick`).
        let arm_free = |queue: &mut EventQueue, p: &mut Port| {
            if p.queue.pkts() > 0 && !p.free_armed {
                p.free_armed = true;
                queue.fill(p.free, Event::PortFree { node, port });
            }
        };
        // What a tracer is told of a dequeue: the packet and the queue's
        // occupancy after it.
        let mut dequeued = None;
        let faults_active = self.faults.active();
        let next = {
            let index = &self.faults;
            let open = index.open_at(now);
            let fault_rng = &mut self.fault_rng;
            let pool = &mut self.pool;
            let queue = &mut self.queue;
            let p = &mut self.nodes[node.0 as usize].ports[port.0 as usize];
            if !queue.passed(p.free) {
                // Held: the wire is occupied until the run reaches `p.free`.
                // Whatever is queued now waits for that instant.
                arm_free(queue, p);
                Next::Idle
            } else if faults_active && faults::link_down_at(open, node, port, p.link.to, now) {
                // Link is down: leave the queue untouched. The window-end
                // `Fault` event re-kicks this port.
                Next::Idle
            } else {
                let prev = p.queue.bytes();
                match p.queue.poll(pool, now) {
                    Poll::Ready(r) => {
                        p.stats.on_qlen_change(prev, now);
                        let qlen = p.queue.bytes();
                        p.stats.observe_qlen(qlen);
                        if T::ENABLED {
                            dequeued = Some((r, qlen, p.queue.pkts()));
                        }
                        let pkt = pool.get(r);
                        p.stats.bytes_tx += pkt.size as u64;
                        p.stats.payload_tx += pkt.payload as u64;
                        let mut ser = p.serialize(pkt.size as u64);
                        if faults_active {
                            ser *= faults::slowdown_at(open, node, port, p.link.to, now) as Time;
                        }
                        let free_at = now + ser;
                        // Hold the transmitter for the serialization time —
                        // also when a fault below suppresses the arrival —
                        // by taking the `PortFree`'s place in the order; the
                        // event itself is queued only if a packet is left
                        // behind to be sent when it fires.
                        debug_assert!(!p.free_armed, "transmitting ahead of a queued PortFree");
                        p.free = queue.reserve(free_at);
                        arm_free(queue, p);
                        if let Some(reason) = (faults_active)
                            .then(|| index.cut_reason(node, port, p.link.to, now, free_at))
                            .flatten()
                        {
                            // The link flaps — or one of its endpoints dies —
                            // while the packet is on the wire: the
                            // transmitter clocks the bits out, but the far
                            // end never sees them. `cut_reason` keeps the
                            // taxonomy distinct (node vs control-plane vs
                            // link faults).
                            p.stats.fault_kills += 1;
                            Next::Kill { pkt: r, reason }
                        } else if faults_active && faults::blackout_kills(open, pool.get(r), now) {
                            // Arbiter outage on a distributed credit source:
                            // the credit stream dies at the egress. Checked
                            // before corruption so blackout kills draw no RNG.
                            p.stats.fault_kills += 1;
                            Next::Kill { pkt: r, reason: DropReason::ArbiterDown }
                        } else if faults_active
                            && index.plan().corrupts(node, port, p.link.to, pool.get(r), fault_rng)
                        {
                            p.stats.fault_kills += 1;
                            Next::Kill { pkt: r, reason: DropReason::Corruption }
                        } else {
                            Next::Send {
                                to: p.link.to,
                                at_dst: free_at + p.link.delay,
                                pkt: r,
                            }
                        }
                    }
                    Poll::NotBefore(t) => {
                        // Dedupe pacing kicks: only schedule if none pending
                        // at or before `t`.
                        if p.kick_at.is_none_or(|k| k > t) {
                            p.kick_at = Some(t.max(now));
                            Next::Kick(t.max(now))
                        } else {
                            Next::Idle
                        }
                    }
                    Poll::Empty => Next::Idle,
                }
            }
        };
        if T::ENABLED {
            if let Some((r, qlen_bytes, qlen_pkts)) = dequeued {
                // The packet is still in the pool: a kill below frees it.
                let pkt = self.pool.get(r);
                let rec = dequeue_record(now, node, port, pkt, qlen_bytes, qlen_pkts);
                self.tracer.queue_event(&rec);
                self.tracer.link_tx(now, node, port, rec.size as u64);
                self.sample_bands(now, node, port);
            }
        }
        match next {
            Next::Send { to, at_dst, pkt } => {
                let ingress = self.nodes[to.0 as usize].ingress_delay;
                self.queue.schedule_at(at_dst + ingress, Event::Arrival { node: to, pkt });
            }
            // The transmitter is occupied all the same; only the arrival
            // is suppressed.
            Next::Kill { pkt, reason } => self.kill(node, port, pkt, now, reason),
            Next::Kick(t) => {
                self.queue.schedule_at(t, Event::PortKick { node, port });
            }
            Next::Idle => {}
        }
    }

    /// Run `f` against the endpoint installed on `host` (its timers go
    /// straight into the queue), then send what it buffered through the NIC.
    fn with_endpoint<F>(&mut self, host: NodeId, f: F)
    where
        F: FnOnce(&mut dyn Endpoint, &mut Ctx<'_>),
    {
        let now = self.queue.now();
        let line_rate = self.nodes[host.0 as usize]
            .ports
            .first()
            .map(|p| p.link.rate)
            .expect("host has no NIC port");
        let (mut ep, crashes) = match &mut self.nodes[host.0 as usize].kind {
            NodeKind::Host { endpoint, crashes } => {
                (endpoint.take().expect("endpoint not installed"), *crashes)
            }
            NodeKind::Switch { .. } => panic!("endpoint dispatch on a switch"),
        };
        // Reuse the scratch buffer: endpoint dispatch is the single hottest
        // call site, and a fresh buffer per dispatch would allocate on
        // every event that sends. `take` leaves a default in place, so a
        // (hypothetical) re-entrant dispatch degrades to allocation, not UB.
        let mut sends = std::mem::take(&mut self.sends_scratch);
        debug_assert!(sends.is_empty());
        {
            let mut ctx = Ctx {
                now,
                host,
                line_rate,
                metrics: &mut self.metrics,
                tracer: &mut self.tracer,
                trace_enabled: T::ENABLED,
                sends: &mut sends,
                queue: &mut self.queue,
                crashes,
                restarted: self.restarted,
            };
            f(ep.as_mut(), &mut ctx);
        }
        match &mut self.nodes[host.0 as usize].kind {
            NodeKind::Host { endpoint, .. } => *endpoint = Some(ep),
            NodeKind::Switch { .. } => unreachable!(),
        }
        for mut pkt in sends.drain(..) {
            pkt.src = host;
            // Stamp the ECMP hash once; every switch on the path reuses it.
            pkt.route_hash = crate::routing::fnv1a(pkt.flow.0, pkt.path_tag);
            // Stamp the flow incarnation so stragglers outlived by a crash
            // relaunch can be rejected at delivery. Before the first relaunch
            // every flow is at incarnation 0, the packet default.
            if self.restarted {
                pkt.incarnation =
                    self.metrics.flow(pkt.flow).map_or(0, |rec| rec.restarts);
            }
            if pkt.is_data() && pkt.payload > 0 {
                self.metrics.payload_sent += pkt.payload as u64;
                if pkt.retransmit {
                    self.metrics.note_retransmit(pkt.flow, pkt.payload as u64);
                }
                if T::ENABLED {
                    let ev = HostEvent {
                        at: now,
                        flow: pkt.flow,
                        seq: pkt.seq,
                        class: pkt.class,
                        payload: pkt.payload as u64,
                        retransmit: pkt.retransmit,
                    };
                    self.tracer.packet_launched(&ev);
                }
            }
            let r = self.pool.insert(pkt);
            self.enqueue_egress(host, PortId(0), r);
        }
        self.sends_scratch = sends;
    }
}

/// The telemetry record of `pkt` leaving `port`'s queue, which then holds
/// `qlen_bytes` in `qlen_pkts` packets.
#[inline]
fn dequeue_record(
    now: Time,
    node: NodeId,
    port: PortId,
    pkt: &Packet,
    qlen_bytes: u64,
    qlen_pkts: usize,
) -> QueueRecord {
    QueueRecord {
        at: now,
        node,
        port,
        ev: QueueEvent::Dequeue,
        flow: pkt.flow,
        seq: pkt.seq,
        kind: pkt.kind,
        class: pkt.class,
        size: pkt.size,
        payload: pkt.payload,
        qlen_bytes,
        qlen_pkts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::FlowEnd;
    use crate::packet::{FlowId, Packet, PacketKind, TrafficClass, HEADER_BYTES};
    use crate::queues::DropTailQueue;
    use crate::units::{us, Rate};

    /// Endpoint that sends its whole flow at line rate on arrival and counts
    /// delivered bytes on the receive side.
    struct Blaster {
        mtu_payload: u32,
    }

    impl Endpoint for Blaster {
        fn on_flow_arrival(&mut self, flow: FlowDesc, ctx: &mut Ctx<'_>) {
            let mut off = 0u64;
            while off < flow.size {
                let chunk = self.mtu_payload.min((flow.size - off) as u32);
                ctx.send(Packet::data(
                    flow.id,
                    flow.src,
                    flow.dst,
                    off,
                    chunk,
                    TrafficClass::Scheduled,
                    flow.size,
                ));
                off += chunk as u64;
            }
        }
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
            if pkt.is_data() {
                ctx.metrics.deliver(pkt.flow, pkt.payload as u64, ctx.now);
            }
        }
        fn on_timer(&mut self, _timer: Timer, _ctx: &mut Ctx<'_>) {}
    }

    fn two_hosts_one_switch() -> (Network, NodeId, NodeId) {
        two_hosts_one_switch_with(NullTracer)
    }

    fn two_hosts_one_switch_with<T: Tracer>(tracer: T) -> (Network<T>, NodeId, NodeId) {
        let (net, hosts) = hosts_on_one_switch(tracer, 2);
        (net, hosts[0], hosts[1])
    }

    /// `n` hosts running a [`Blaster`] each, on one switch.
    fn hosts_on_one_switch<T: Tracer>(tracer: T, n: usize) -> (Network<T>, Vec<NodeId>) {
        let mut net = Network::with_tracer(tracer);
        let sw = net.add_switch(RoutePolicy::EcmpHash, 1, 0);
        let hosts: Vec<NodeId> = (0..n).map(|_| net.add_host(0)).collect();
        let rate = Rate::gbps(10);
        let delay = us(1);
        let q = || DropTailQueue::new(1 << 30);
        for &h in &hosts {
            net.connect(h, sw, rate, delay, q());
        }
        for &h in &hosts {
            let port = net.connect(sw, h, rate, delay, q());
            net.add_route(sw, h, port);
            net.set_endpoint(h, Box::new(Blaster { mtu_payload: 1460 }));
        }
        (net, hosts)
    }

    #[test]
    fn single_packet_fct_matches_hand_computation() {
        let (mut net, h0, h1) = two_hosts_one_switch();
        let size = 1000u64;
        net.schedule_flow(FlowDesc { id: FlowId(1), src: h0, dst: h1, size, start: 0 });
        assert!(net.run_to_completion(us(1000)));
        // Wire size = 1040 B. Two serializations (host NIC + switch egress)
        // at 10 Gbps = 2 * 832 ns, plus 2 us propagation per hop.
        let ser = Rate::gbps(10).serialize(size + HEADER_BYTES as u64);
        let expect = 2 * ser + 2 * us(1);
        let fct = net.metrics.flow(FlowId(1)).unwrap().fct().unwrap();
        assert_eq!(fct, expect);
    }

    #[test]
    fn large_flow_is_paced_by_bottleneck_serialization() {
        let (mut net, h0, h1) = two_hosts_one_switch();
        // 100 packets of 1460 B payload.
        let size = 146_000u64;
        net.schedule_flow(FlowDesc { id: FlowId(1), src: h0, dst: h1, size, start: 0 });
        assert!(net.run_to_completion(us(10_000)));
        let ser = Rate::gbps(10).serialize(1500);
        // Pipeline: 100 serializations at the NIC, plus one more at the
        // switch for the last packet, plus propagation.
        let expect = 100 * ser + ser + 2 * us(1);
        let fct = net.metrics.flow(FlowId(1)).unwrap().fct().unwrap();
        assert_eq!(fct, expect);
    }

    #[test]
    fn two_flows_share_the_engine_deterministically() {
        let (mut net, h0, h1) = two_hosts_one_switch();
        net.schedule_flow(FlowDesc { id: FlowId(1), src: h0, dst: h1, size: 14_600, start: 0 });
        net.schedule_flow(FlowDesc { id: FlowId(2), src: h1, dst: h0, size: 14_600, start: 0 });
        assert!(net.run_to_completion(us(1000)));
        let f1 = net.metrics.flow(FlowId(1)).unwrap().fct().unwrap();
        let f2 = net.metrics.flow(FlowId(2)).unwrap().fct().unwrap();
        assert_eq!(f1, f2, "symmetric flows must have identical FCTs");
    }

    #[test]
    fn run_until_stops_at_time_boundary() {
        let (mut net, h0, h1) = two_hosts_one_switch();
        net.schedule_flow(FlowDesc { id: FlowId(1), src: h0, dst: h1, size: 146_000, start: 0 });
        net.run_until(us(2));
        assert!(net.now() <= us(2));
        assert!(!net.metrics.all_complete());
        net.run_until(us(10_000));
        assert!(net.metrics.all_complete());
    }

    #[test]
    fn flow_tracing_records_the_packet_journey() {
        use crate::telemetry::RecordingTracer;
        let (mut net, h0, h1) = two_hosts_one_switch_with(RecordingTracer::new());
        net.schedule_flow(FlowDesc { id: FlowId(1), src: h0, dst: h1, size: 2_920, start: 0 });
        net.schedule_flow(FlowDesc { id: FlowId(2), src: h1, dst: h0, size: 1_460, start: 0 });
        net.run_to_completion(us(1000));
        let trace = net.tracer().flow_records(FlowId(1));
        for w in trace.windows(2) {
            assert!(w[0].at <= w[1].at, "a flow's records must be time-ordered");
        }
        // The journey: queued and sent at the NIC, queued and sent at the
        // switch — two packets, two hops, nothing lost on the way.
        let sw = net.port(h0, PortId(0)).link.to;
        for hop in [h0, sw] {
            let at_hop = |ev| trace.iter().filter(|r| r.node == hop && r.ev == ev).count();
            assert_eq!(at_hop(QueueEvent::Enqueue), 2, "arrivals at {hop:?}");
            assert_eq!(at_hop(QueueEvent::Dequeue), 2, "transmissions by {hop:?}");
        }
        assert_eq!(trace.len(), 8, "and nothing else: {trace:?}");
        // The other flow's life is its own filter over the same capture.
        let other = net.tracer().flow_records(FlowId(2));
        assert_eq!(other.len(), 4);
        assert!(other.iter().all(|r| r.flow == FlowId(2) && r.node != h0));
    }

    #[test]
    fn corruption_kills_packets_on_the_wire() {
        use crate::faults::{FaultPlan, LinkFilter, PacketFilter};
        let (mut net, h0, h1) = two_hosts_one_switch();
        let plan = FaultPlan::new(1).with_loss(1.0, PacketFilter::Data, LinkFilter::Node(h0));
        net.set_fault_plan(&plan, &[h0, h1], None);
        net.schedule_flow(FlowDesc { id: FlowId(1), src: h0, dst: h1, size: 2_920, start: 0 });
        assert!(!net.run_to_completion(us(1000)), "all data corrupted at the NIC");
        assert_eq!(net.metrics.payload_delivered, 0);
        assert_eq!(
            net.metrics.drops_by_reason(crate::queues::DropReason::Corruption),
            2,
            "both data packets must be accounted as corruption, never congestion"
        );
        assert_eq!(net.metrics.drops_by_reason(crate::queues::DropReason::SelectiveDrop), 0);
        assert_eq!(net.port(h0, PortId(0)).stats.fault_kills, 2);
    }

    #[test]
    fn down_window_stalls_the_queue_then_recovers() {
        use crate::faults::{FaultPlan, LinkFilter};
        let (mut net, h0, h1) = two_hosts_one_switch();
        // Every link is down for the first 50 us; the flow arrives at t=0,
        // waits in the NIC queue, and completes untouched after the flap.
        let plan = FaultPlan::new(0).with_down(0, us(50), LinkFilter::All);
        net.set_fault_plan(&plan, &[h0, h1], None);
        net.schedule_flow(FlowDesc { id: FlowId(1), src: h0, dst: h1, size: 14_600, start: 0 });
        assert!(net.run_to_completion(us(1000)));
        let done = net.metrics.flow(FlowId(1)).unwrap().completed_at.unwrap();
        assert!(done > us(50), "nothing can be delivered while links are down");
        assert_eq!(net.metrics.total_drops(), 0, "stalled packets are not lost");
    }

    #[test]
    fn mid_flight_cut_is_a_link_down_drop() {
        use crate::faults::{FaultPlan, LinkFilter};
        let (mut net, h0, h1) = two_hosts_one_switch();
        // The first packet starts serializing at t=0 (832 ns at 10G); a down
        // window opening at 100 ns cuts it on the wire.
        let plan =
            FaultPlan::new(0).with_down(100 * crate::units::PS_PER_NS, us(2), LinkFilter::Node(h0));
        net.set_fault_plan(&plan, &[h0, h1], None);
        net.schedule_flow(FlowDesc { id: FlowId(1), src: h0, dst: h1, size: 1_460, start: 0 });
        net.run_to_completion(us(100));
        assert_eq!(net.metrics.drops_by_reason(crate::queues::DropReason::LinkDown), 1);
        assert_eq!(net.metrics.payload_delivered, 0);
    }

    #[test]
    fn crashed_sender_purges_queue_aborts_and_relaunches() {
        use crate::faults::FaultPlan;
        let (mut net, h0, h1) = two_hosts_one_switch();
        // Host 0 crashes just after the flow starts blasting: the packet on the
        // wire is cut and the nine queued behind it are purged, all under
        // the NodeDown taxonomy. The flow aborts, then relaunches when the
        // host comes back and completes from scratch.
        let plan = FaultPlan::new(0).with_crash(100 * crate::units::PS_PER_NS, us(50), 0);
        net.set_fault_plan(&plan, &[h0, h1], None);
        net.schedule_flow(FlowDesc { id: FlowId(1), src: h0, dst: h1, size: 14_600, start: 0 });
        assert!(net.run_to_completion(us(1000)));
        assert_eq!(net.metrics.drops_by_reason(DropReason::NodeDown), 10);
        assert_eq!(net.metrics.drops_by_reason(DropReason::LinkDown), 0);
        let rec = net.metrics.flow(FlowId(1)).unwrap();
        assert_eq!(rec.restarts, 1);
        assert!(rec.aborted.is_none());
        assert!(rec.completed_at.unwrap() > us(50), "completion spans the outage");
        assert_eq!(net.metrics.payload_delivered, 14_600);
        assert_eq!(net.metrics.payload_sent, 2 * 14_600, "full resend after restart");
        assert!(net.metrics.all_settled());
    }

    #[test]
    fn flow_arriving_during_crash_window_defers_to_restart() {
        use crate::faults::FaultPlan;
        let (mut net, h0, h1) = two_hosts_one_switch();
        net.set_fault_plan(&FaultPlan::new(0).with_crash(0, us(50), 0), &[h0, h1], None);
        net.schedule_flow(FlowDesc { id: FlowId(1), src: h0, dst: h1, size: 1_460, start: us(10) });
        assert!(net.run_to_completion(us(1000)));
        let rec = net.metrics.flow(FlowId(1)).unwrap();
        assert_eq!(rec.restarts, 1, "arrival at a dead host defers, then relaunches");
        assert_eq!(net.metrics.drops_by_reason(DropReason::NodeDown), 0);
        assert!(rec.completed_at.unwrap() > us(50));
        // FCT is measured from the original start: the outage is not hidden.
        assert!(rec.fct().unwrap() > us(40));
    }

    #[test]
    fn receiver_crash_kills_in_flight_arrivals_with_node_taxonomy() {
        use crate::faults::FaultPlan;
        let (mut net, h0, h1) = two_hosts_one_switch();
        // The single packet is past the switch when the receiver dies at
        // 3 us; it arrives at a dead NIC and is killed as NodeDown. The
        // abort queues the flow, which relaunches at 10 us and completes.
        net.set_fault_plan(&FaultPlan::new(0).with_crash(us(3), us(10), 1), &[h0, h1], None);
        net.schedule_flow(FlowDesc { id: FlowId(1), src: h0, dst: h1, size: 1_460, start: 0 });
        assert!(net.run_to_completion(us(1000)));
        assert_eq!(net.metrics.drops_by_reason(DropReason::NodeDown), 1);
        let rec = net.metrics.flow(FlowId(1)).unwrap();
        assert_eq!(rec.restarts, 1);
        assert_eq!(net.metrics.payload_delivered, 1_460, "restart rewinds delivery accounting");
    }

    /// Arms a host timer and a flow timer `DUE` out whenever its host
    /// launches a flow, a flow timer when a packet arrives, and a host
    /// timer when the host crashes; logs every timer it is handed.
    struct Alarms {
        fired: std::rc::Rc<std::cell::RefCell<Vec<(NodeId, Timer)>>>,
    }

    impl Alarms {
        const DUE: Time = 50_000_000;
    }

    impl Endpoint for Alarms {
        fn on_flow_arrival(&mut self, flow: FlowDesc, ctx: &mut Ctx<'_>) {
            ctx.send(Packet::data(
                flow.id,
                flow.src,
                flow.dst,
                0,
                1000,
                TrafficClass::Scheduled,
                flow.size,
            ));
            ctx.set_timer_in_with(Self::DUE, Timer::host(0));
            ctx.set_timer_in_with(Self::DUE, Timer::flow(1, flow.id));
        }
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
            ctx.set_timer_in_with(Self::DUE, Timer::flow(1, pkt.flow));
        }
        fn on_timer(&mut self, timer: Timer, ctx: &mut Ctx<'_>) {
            self.fired.borrow_mut().push((ctx.host, timer));
        }
        fn on_crash(&mut self, ctx: &mut Ctx<'_>) {
            ctx.set_timer_in_with(Self::DUE, Timer::host(2));
        }
    }

    #[test]
    fn timers_of_an_ended_incarnation_never_fire() {
        // One flow h0 -> h1 that never completes; h0 crashes at 10 us and
        // comes back at 20 us, relaunching the flow. Every timer armed
        // before is due after the relaunch: h0's because its host crashed,
        // h1's flow timer because its flow relaunched (h1 never crashed).
        // The host timer h0 arms in `on_crash`, after the crash, fires.
        let (mut net, h0, h1) = two_hosts_one_switch();
        let fired = std::rc::Rc::default();
        net.set_endpoint(h0, Box::new(Alarms { fired: std::rc::Rc::clone(&fired) }));
        net.set_endpoint(h1, Box::new(Alarms { fired: std::rc::Rc::clone(&fired) }));
        net.set_fault_plan(&FaultPlan::new(0).with_crash(us(10), us(20), 0), &[h0, h1], None);
        let flow = FlowId(1);
        net.schedule_flow(FlowDesc { id: flow, src: h0, dst: h1, size: 10_000, start: 0 });
        net.run_until(us(200));
        assert_eq!(net.metrics.flow(flow).unwrap().restarts, 1);
        assert_eq!(
            *fired.borrow(),
            vec![
                (h0, Timer::host(2)),
                (h0, Timer::host(0)),
                (h0, Timer::flow(1, flow)),
                (h1, Timer::flow(1, flow)),
            ]
        );
        // The three stale ones were dispatched all the same.
        assert_eq!(mix_of(&net, "timer"), 7);
    }

    #[test]
    fn straggler_from_dead_incarnation_is_rejected_at_delivery() {
        use crate::faults::FaultPlan;
        let (mut net, h0, h1) = two_hosts_one_switch();
        // A 1 ns receiver blink: the flow aborts and relaunches almost
        // instantly, while the first incarnation's packets are still queued
        // at the switch. They arrive at the *restarted* incarnation and must
        // die as StaleIncarnation — delivering pre-crash state (receive-book
        // bytes, cumulative grants in the transport schemes) would corrupt
        // the relaunch. Found by the guided fuzzer as a Homa
        // credit-conservation violation (a pre-crash cumulative grant
        // doubled the restarted sender's budget).
        net.set_fault_plan(&FaultPlan::new(0).with_crash(us(3), us(3) + 1_000, 1), &[h0, h1], None);
        net.schedule_flow(FlowDesc { id: FlowId(1), src: h0, dst: h1, size: 14_600, start: 0 });
        assert!(net.run_to_completion(us(1000)));
        let rec = net.metrics.flow(FlowId(1)).unwrap();
        assert_eq!(rec.restarts, 1);
        assert!(
            net.metrics.drops_by_reason(DropReason::StaleIncarnation) > 0,
            "in-flight pre-crash packets must be rejected at the restarted endpoint"
        );
        assert_eq!(net.metrics.payload_delivered, 14_600, "relaunch re-delivers in full");
        assert!(net.metrics.all_settled());
    }

    #[test]
    fn restart_gate_still_rejects_packets_stamped_before_the_first_restart() {
        use crate::faults::FaultPlan;
        let (mut net, h0, h1) = two_hosts_one_switch();
        // Same 1 ns receiver blink at 3 us, counted packet by packet. All ten
        // first-incarnation packets were handed to the NIC at t=0, before
        // any flow had restarted, so none went through the stamp lookup;
        // they carry the default incarnation 0. Packet 0 is on the
        // switch->h1 wire at the crash instant and is cut (NodeDown). The
        // other nine — two already past the NIC, seven still queued in it —
        // reach h1 after the relaunch and must all die as stale: skipping
        // the lookup before the first restart may not exempt them.
        net.set_fault_plan(&FaultPlan::new(0).with_crash(us(3), us(3) + 1_000, 1), &[h0, h1], None);
        net.schedule_flow(FlowDesc { id: FlowId(1), src: h0, dst: h1, size: 14_600, start: 0 });
        assert!(net.run_to_completion(us(1000)));
        assert_eq!(net.metrics.drops_by_reason(DropReason::NodeDown), 1);
        assert_eq!(net.metrics.drops_by_reason(DropReason::StaleIncarnation), 9);
        assert_eq!(net.metrics.payload_sent, 2 * 14_600);
        assert_eq!(net.metrics.payload_delivered, 14_600);
    }

    /// Logs every packet it is handed. A flow's receiver aborts the flow at
    /// its first packet, as a peer-silent give-up does, then writes under
    /// the flow's id to the sender and to a third host.
    struct GiveUp {
        third: NodeId,
        got: std::rc::Rc<std::cell::RefCell<Vec<(NodeId, PacketKind)>>>,
    }

    impl Endpoint for GiveUp {
        fn on_flow_arrival(&mut self, flow: FlowDesc, ctx: &mut Ctx<'_>) {
            Blaster { mtu_payload: 1460 }.on_flow_arrival(flow, ctx);
        }
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
            self.got.borrow_mut().push((ctx.host, pkt.kind));
            if pkt.is_data() && ctx.metrics.abort_flow(pkt.flow, AbortCause::PeerSilent) {
                for to in [pkt.src, self.third] {
                    ctx.send(Packet::control(pkt.flow, ctx.host, to, 0, PacketKind::Nack));
                }
            }
        }
        fn on_timer(&mut self, _timer: Timer, _ctx: &mut Ctx<'_>) {}
    }

    #[test]
    fn an_aborted_flows_packets_reach_neither_end_but_do_reach_a_third_host() {
        // h0 sends three packets to h1 at once; h1 aborts the flow at the
        // first and NACKs h0 and h2. The other two data packets (to the
        // flow's receiver) and the NACK to its sender stop at the engine,
        // delivered but handed to no endpoint and counted as no drop; h2,
        // at neither end of the flow, gets its NACK. No fault plan is
        // installed: a peer-silent abort needs none.
        let (mut net, hosts) = hosts_on_one_switch(NullTracer, 3);
        let got = std::rc::Rc::default();
        for &h in &hosts {
            let got = std::rc::Rc::clone(&got);
            net.set_endpoint(h, Box::new(GiveUp { third: hosts[2], got }));
        }
        let flow = FlowDesc { id: FlowId(1), src: hosts[0], dst: hosts[1], size: 4_380, start: 0 };
        net.schedule_flow(flow);
        net.run_until(us(100));
        assert_eq!(*got.borrow(), vec![(hosts[1], PacketKind::Data), (hosts[2], PacketKind::Nack)]);
        assert_eq!(net.metrics.total_drops(), 0);
        assert!(net.metrics.flow(FlowId(1)).unwrap().aborted.is_some());
    }

    /// Sends each flow as one packet and marks its sender end done at once;
    /// the receiver marks its end done when the packet lands.
    struct Finisher;

    impl Endpoint for Finisher {
        fn on_flow_arrival(&mut self, flow: FlowDesc, ctx: &mut Ctx<'_>) {
            let size = flow.size as u32;
            let class = TrafficClass::Scheduled;
            ctx.send(Packet::data(flow.id, flow.src, flow.dst, 0, size, class, flow.size));
            ctx.finish(flow.id, FlowEnd::Sender);
        }
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
            ctx.metrics.deliver(pkt.flow, pkt.payload as u64, ctx.now);
            // The sender's bit is set, but this host is not the sender.
            assert_eq!(ctx.finished(pkt.flow, FlowEnd::Sender), None);
            ctx.finish(pkt.flow, FlowEnd::Receiver);
            assert_eq!(ctx.finished(pkt.flow, FlowEnd::Receiver), Some(pkt.flow_size));
        }
        fn on_timer(&mut self, _timer: Timer, _ctx: &mut Ctx<'_>) {}
    }

    #[test]
    fn each_end_has_its_done_bit_and_a_crash_clears_its_hosts_only() {
        // Flow 1 runs h0 -> h1 and flow 2 h1 -> h2. Both finish long before
        // h1 crashes, which clears flow 1's receiver bit and flow 2's sender
        // bit: the two ends h1 held.
        let (mut net, hosts) = hosts_on_one_switch(NullTracer, 3);
        let (h0, h1, h2) = (hosts[0], hosts[1], hosts[2]);
        for &h in &hosts {
            net.set_endpoint(h, Box::new(Finisher));
        }
        net.set_fault_plan(&FaultPlan::new(0).with_crash(us(50), us(60), 1), &hosts, None);
        net.schedule_flow(FlowDesc { id: FlowId(1), src: h0, dst: h1, size: 1_000, start: 0 });
        net.schedule_flow(FlowDesc { id: FlowId(2), src: h1, dst: h2, size: 1_000, start: 0 });
        let done = |net: &Network, id| {
            let rec = net.metrics.flow(FlowId(id)).expect("scheduled");
            [rec.is_done(FlowEnd::Sender), rec.is_done(FlowEnd::Receiver)]
        };
        net.run_until(us(1));
        assert_eq!([done(&net, 1), done(&net, 2)], [[true, false]; 2], "in flight");
        net.run_until(us(40));
        assert_eq!([done(&net, 1), done(&net, 2)], [[true, true]; 2], "delivered");
        net.run_until(us(100));
        assert_eq!([done(&net, 1), done(&net, 2)], [[true, false], [false, true]], "h1 crashed");
        // The two bits sit in the padding beside `aborted`.
        assert_eq!(std::mem::size_of::<crate::FlowRecord>(), 80);
    }

    #[test]
    #[should_panic(expected = "set_fault_plan over an installed plan")]
    fn installing_over_a_live_plan_panics() {
        use crate::faults::{FaultPlan, LinkFilter};
        let (mut net, h0, h1) = two_hosts_one_switch();
        // Over the empty default (and over an explicit empty plan): legal.
        net.set_fault_plan(&FaultPlan::new(3), &[h0, h1], None);
        let flap = FaultPlan::new(0).with_down(us(1), us(2), LinkFilter::All);
        net.set_fault_plan(&flap, &[h0, h1], None);
        // The first plan's two window events are queued and would index
        // into the second plan's windows.
        net.set_fault_plan(&FaultPlan::new(0).with_crash(us(1), us(2), 0), &[h0, h1], None);
    }

    #[test]
    fn partition_stalls_cross_traffic_then_recovers() {
        use crate::faults::FaultPlan;
        let (mut net, h0, h1) = two_hosts_one_switch();
        // A partition is a down window on every link adjacent to the upper
        // half of the host list ({h1} here): traffic stalls in queues rather
        // than dying, and drains once the partition heals.
        net.set_fault_plan(&FaultPlan::new(0).with_partition(0, us(50)), &[h0, h1], None);
        net.schedule_flow(FlowDesc { id: FlowId(1), src: h0, dst: h1, size: 14_600, start: 0 });
        assert!(net.run_to_completion(us(1000)));
        let rec = net.metrics.flow(FlowId(1)).unwrap();
        assert!(rec.completed_at.unwrap() > us(50), "no delivery across a partition");
        assert_eq!(rec.restarts, 0, "a partition stalls, it does not abort");
        assert_eq!(net.metrics.total_drops(), 0);
    }

    #[test]
    fn beyond_horizon_node_plan_is_behavior_identical() {
        // The dormant plan of `scripts/ci.sh`: crash, arbiter-outage and
        // partition windows that all open after the run finishes exercise
        // the non-empty fault path end to end but must not perturb a single
        // event.
        let run = |with_plan: bool| {
            let (mut net, h0, h1) = two_hosts_one_switch();
            if with_plan {
                let spec = "crash=0@4s..5s,arbiter=6s..7s,partition=8s..9s";
                let plan = spec.parse().expect("static fault spec parses");
                net.set_fault_plan(&plan, &[h0, h1], None);
                assert!(net.faults.active() && net.fault_plan().to_string().contains("arbiter"));
            }
            net.schedule_flow(FlowDesc { id: FlowId(1), src: h0, dst: h1, size: 146_000, start: 0 });
            assert!(net.run_to_completion(us(10_000)));
            (net.metrics.flow(FlowId(1)).unwrap().fct().unwrap(), net.events_processed())
        };
        assert_eq!(run(false), run(true), "a dormant node-fault plan must not perturb the run");
    }

    #[test]
    fn empty_fault_plan_is_behavior_identical() {
        let run = |with_plan: bool| {
            let (mut net, h0, h1) = two_hosts_one_switch();
            if with_plan {
                net.set_fault_plan(&crate::faults::FaultPlan::new(99), &[h0, h1], None);
            }
            net.schedule_flow(FlowDesc { id: FlowId(1), src: h0, dst: h1, size: 146_000, start: 0 });
            assert!(net.run_to_completion(us(10_000)));
            (net.metrics.flow(FlowId(1)).unwrap().fct().unwrap(), net.events_processed())
        };
        assert_eq!(run(false), run(true), "an empty plan must not perturb the run");
    }

    #[test]
    fn degraded_window_slows_serialization() {
        use crate::faults::{FaultPlan, LinkFilter};
        let fct = |plan: Option<FaultPlan>| {
            let (mut net, h0, h1) = two_hosts_one_switch();
            if let Some(p) = plan {
                net.set_fault_plan(&p, &[h0, h1], None);
            }
            net.schedule_flow(FlowDesc { id: FlowId(1), src: h0, dst: h1, size: 146_000, start: 0 });
            assert!(net.run_to_completion(us(100_000)));
            net.metrics.flow(FlowId(1)).unwrap().fct().unwrap()
        };
        let clean = fct(None);
        let degraded = fct(Some(FaultPlan::new(0).with_degraded(
            0,
            crate::units::ms(10),
            4,
            LinkFilter::All,
        )));
        assert!(
            degraded > 3 * clean && degraded < 6 * clean,
            "4x slowdown should roughly quadruple the FCT: {clean} -> {degraded}"
        );
    }

    fn mix_of<T: Tracer>(net: &Network<T>, kind: &str) -> u64 {
        net.event_mix()[Event::KINDS.iter().position(|k| *k == kind).expect("an event kind")]
    }

    /// 1500 B on the wire at 10 Gbps.
    const SER: Time = 1_200 * crate::units::PS_PER_NS;

    #[test]
    fn packets_spaced_wider_than_their_serialization_need_no_port_free() {
        // Twenty MTU packets 2 us apart over two hops: every transmitter
        // frees onto an empty queue, so nothing ever waits for a `PortFree`.
        // Fails if a transmission queues the event regardless of what is
        // behind it.
        let (mut net, h0, h1) = two_hosts_one_switch();
        for i in 0..20 {
            let start = i * us(2);
            net.schedule_flow(FlowDesc { id: FlowId(i), src: h0, dst: h1, size: 1_460, start });
        }
        assert!(net.run_to_completion(us(1000)));
        assert_eq!(mix_of(&net, "port_free"), 0);
        assert_eq!(mix_of(&net, "arrival"), 40);
        assert_eq!(mix_of(&net, "flow_arrival"), 20);
        assert_eq!(net.events_processed(), 60);
        // The same packets back to back: each one but the last leaves a
        // successor behind at the NIC, and reaches the switch on the very
        // picosecond its predecessor clears that port.
        let (mut net, h0, h1) = two_hosts_one_switch();
        net.schedule_flow(FlowDesc { id: FlowId(1), src: h0, dst: h1, size: 20 * 1_460, start: 0 });
        assert!(net.run_to_completion(us(1000)));
        assert_eq!(mix_of(&net, "port_free"), 19 + 19);
        assert_eq!(mix_of(&net, "arrival"), 40);
    }

    /// Sends each flow as one packet whose priority is the tens digit of the
    /// flow id (0 is served first); counts deliveries like [`Blaster`].
    struct OneShot;

    impl Endpoint for OneShot {
        fn on_flow_arrival(&mut self, flow: FlowDesc, ctx: &mut Ctx<'_>) {
            let mut pkt = Packet::data(
                flow.id,
                flow.src,
                flow.dst,
                0,
                flow.size as u32,
                TrafficClass::Scheduled,
                flow.size,
            );
            pkt.priority = (flow.id.0 / 10) as u8;
            ctx.send(pkt);
        }
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
            ctx.metrics.deliver(pkt.flow, pkt.payload as u64, ctx.now);
        }
        fn on_timer(&mut self, _timer: Timer, _ctx: &mut Ctx<'_>) {}
    }

    /// Flow 10 (low priority) and flow 2 (high priority), `payload` bytes
    /// each and sent at `start` from two hosts, reach a two-level priority
    /// port in that order on the very picosecond it finishes serializing
    /// flow 1. Returns the three flow ids in wire order.
    fn wire_order_of_a_tie(payload: u64, start: Time) -> Vec<u64> {
        let mut net = Network::new();
        let sw = net.add_switch(RoutePolicy::EcmpHash, 1, 0);
        let hosts: Vec<NodeId> = (0..4).map(|_| net.add_host(0)).collect();
        let q = || DropTailQueue::new(1 << 30);
        for &h in &hosts {
            net.connect(h, sw, Rate::gbps(10), us(1), q());
            net.set_endpoint(h, Box::new(OneShot));
        }
        let dst = hosts[3];
        let bank = crate::queues::PriorityBank::new(2, 1 << 30);
        let out = net.connect(sw, dst, Rate::gbps(10), us(1), bank);
        net.add_route(sw, dst, out);
        let flow = |id, src: usize, size, start| FlowDesc {
            id: FlowId(id),
            src: hosts[src],
            dst,
            size,
            start,
        };
        // Flow 1 is at the switch at 2.2 us and holds the port until 3.4 us.
        net.schedule_flow(flow(1, 0, 1_460, 0));
        net.schedule_flow(flow(10, 1, payload, start));
        net.schedule_flow(flow(2, 2, payload, start));
        assert!(net.run_to_completion(us(100)));
        let at_switch = start + (payload + HEADER_BYTES as u64) * 800 + us(1);
        assert_eq!(at_switch, 2 * SER + us(1), "not a tie");
        let mut order = vec![1, 10, 2];
        order.sort_by_key(|&id| net.metrics.flow(FlowId(id)).unwrap().completed_at);
        order
    }

    #[test]
    fn an_arrival_on_the_freeing_picosecond_keeps_its_rank() {
        // The transmitter frees at a *place* in the event order, not at a
        // time. Both orders below are as the engine produced them while
        // every transmission still queued its `PortFree`.
        //
        // MTU packets put on their wires at 1.2 us, before flow 1 took the
        // switch port at 2.2 us: their arrivals rank ahead of the place, find
        // the port held and queue up, and the high priority goes first. This
        // is the common case — back-to-back MTU packets over equal-rate
        // links — and "idle once `now >= free_at`" sends 10 ahead of 2.
        assert_eq!(wire_order_of_a_tie(1_460, SER), vec![1, 2, 10]);
        // 64 B packets sent 51.2 ns + 1 us before the tie, after flow 1 took
        // the port: their arrivals rank behind the place, so the first finds
        // the port free and goes at once, whatever its sibling's priority.
        // "Held while `now <= free_at`" would fill a place already passed.
        assert_eq!(wire_order_of_a_tie(24, 2 * SER - 64 * 800), vec![1, 10, 2]);
    }

    #[test]
    fn a_killed_packet_holds_the_transmitter_for_its_serialization_time() {
        use crate::faults::{FaultPlan, LinkFilter};
        let (mut net, h0, h1) = two_hosts_one_switch();
        // A 100 ns flap cuts the first packet on the wire; the queue behind
        // it is empty, so no `PortFree` is queued — and the window's end
        // re-kicks a port that is still clocking the dead bits out. The
        // second packet arrives mid-way and must wait for 1.2 us, not leave
        // at 0.5 us. Fails if only a `Send` reserves the place.
        let ns = crate::units::PS_PER_NS;
        let plan = FaultPlan::new(0).with_down(100 * ns, 200 * ns, LinkFilter::Node(h0));
        net.set_fault_plan(&plan, &[h0, h1], None);
        net.schedule_flow(FlowDesc { id: FlowId(1), src: h0, dst: h1, size: 1_460, start: 0 });
        net.schedule_flow(FlowDesc { id: FlowId(2), src: h0, dst: h1, size: 1_460, start: 500 * ns });
        assert!(!net.run_to_completion(us(100)));
        assert_eq!(net.metrics.drops_by_reason(DropReason::LinkDown), 1);
        assert_eq!(mix_of(&net, "port_free"), 1);
        let done = net.metrics.flow(FlowId(2)).unwrap().completed_at;
        assert_eq!(done, Some(SER + 2 * SER + 2 * us(1)));
    }

    #[test]
    fn fault_windows_over_a_held_port_leave_no_stalled_queue() {
        use crate::faults::{FaultPlan, LinkFilter};
        let ns = crate::units::PS_PER_NS;
        // Packet 1 leaves at 0 and is cut by a down window opening at
        // 300 ns; packets 2 and 3 queue up behind the held port at 500 ns.
        // Whether the window ends while the port is still held (900 ns: the
        // re-kick finds it held, the armed `PortFree` restarts it at 1.2 us)
        // or after it freed (2 us: the `PortFree` finds the link down, the
        // re-kick restarts it), both packets leave as soon as wire and link
        // allow. Fails — packet 3 never leaves — if the `PortFree` arm does
        // not clear `free_armed`.
        for (until, first_tx) in [(900 * ns, SER), (us(2), us(2))] {
            let (mut net, h0, h1) = two_hosts_one_switch();
            let plan = FaultPlan::new(0).with_down(300 * ns, until, LinkFilter::Node(h0));
            net.set_fault_plan(&plan, &[h0, h1], None);
            net.schedule_flow(FlowDesc { id: FlowId(1), src: h0, dst: h1, size: 1_460, start: 0 });
            net.schedule_flow(FlowDesc { id: FlowId(2), src: h0, dst: h1, size: 2_920, start: 500 * ns });
            net.run_to_completion(us(100));
            assert_eq!(net.metrics.drops_by_reason(DropReason::LinkDown), 1);
            let done = net.metrics.flow(FlowId(2)).unwrap().completed_at;
            assert_eq!(done, Some(first_tx + 3 * SER + 2 * us(1)), "window until {until}");
        }
        // A crash purges the nine packets an armed `PortFree` was queued
        // for, and the host restarts 0.5 us later with the dead first packet
        // still on the wire: the relaunch waits for that `PortFree` at
        // 1.2 us, then sends all ten. Fails if the purge frees the port.
        let (mut net, h0, h1) = two_hosts_one_switch();
        net.set_fault_plan(&FaultPlan::new(0).with_crash(100 * ns, 600 * ns, 0), &[h0, h1], None);
        net.schedule_flow(FlowDesc { id: FlowId(1), src: h0, dst: h1, size: 14_600, start: 0 });
        assert!(net.run_to_completion(us(1000)));
        assert_eq!(net.metrics.drops_by_reason(DropReason::NodeDown), 10);
        let rec = net.metrics.flow(FlowId(1)).unwrap();
        assert_eq!(rec.restarts, 1);
        assert_eq!(rec.completed_at, Some(SER + 11 * SER + 2 * us(1)));
    }

    #[test]
    fn payload_sent_counts_data_only() {
        let (mut net, h0, h1) = two_hosts_one_switch();
        net.schedule_flow(FlowDesc { id: FlowId(1), src: h0, dst: h1, size: 2_920, start: 0 });
        net.run_to_completion(us(1000));
        assert_eq!(net.metrics.payload_sent, 2_920);
        assert_eq!(net.metrics.payload_delivered, 2_920);
        assert!((net.metrics.transfer_efficiency() - 1.0).abs() < 1e-12);
        let _ = PacketKind::Data;
    }
}
