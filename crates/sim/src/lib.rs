#![warn(missing_docs)]
//! # aeolus-sim — packet-level datacenter network simulator
//!
//! The discrete-event substrate for the [Aeolus (SIGCOMM 2020)] reproduction.
//! It models hosts, output-queued switches with pluggable queue disciplines,
//! point-to-point links with exact serialization at a picosecond clock, ECMP
//! and packet-spraying routing, and the three topology families used in the
//! paper's evaluation.
//!
//! The engine is deliberately synchronous and single-threaded: discrete-event
//! simulation is CPU-bound, so (per the Tokio guide's own advice) an async
//! runtime has nothing to offer here, and determinism is worth a lot —
//! identical seeds reproduce identical packet traces.
//!
//! Transport protocols are [`endpoint::Endpoint`] implementations installed
//! on hosts; they live in the `aeolus-transport` crate, and the Aeolus
//! building block itself in `aeolus-core`.
//!
//! [Aeolus (SIGCOMM 2020)]: https://doi.org/10.1145/3387514.3405878
//!
//! ## Building a network by hand
//!
//! Transport protocols implement [`Endpoint`]; the engine delivers flow
//! arrivals, packets and timers, and the endpoint replies through its
//! [`Ctx`]. A minimal sender/receiver pair:
//!
//! ```
//! use aeolus_sim::*;
//! use aeolus_sim::units::us;
//!
//! /// Fire-and-forget sender + byte-counting receiver in one endpoint.
//! struct Blast;
//! impl Endpoint for Blast {
//!     fn on_flow_arrival(&mut self, flow: FlowDesc, ctx: &mut Ctx<'_>) {
//!         let mut off = 0;
//!         while off < flow.size {
//!             let len = 1460.min(flow.size - off) as u32;
//!             ctx.send(Packet::data(
//!                 flow.id, flow.src, flow.dst, off, len,
//!                 TrafficClass::Scheduled, flow.size,
//!             ));
//!             off += len as u64;
//!         }
//!     }
//!     fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
//!         if pkt.is_data() {
//!             ctx.metrics.deliver(pkt.flow, pkt.payload as u64, ctx.now);
//!         }
//!     }
//!     fn on_timer(&mut self, _timer: Timer, _ctx: &mut Ctx<'_>) {}
//! }
//!
//! let mut net = Network::new();
//! let sw = net.add_switch(RoutePolicy::EcmpHash, 7, 0);
//! let a = net.add_host(0);
//! let b = net.add_host(0);
//! let q = || DropTailQueue::new(1 << 20);
//! net.connect(a, sw, Rate::gbps(10), us(1), q());
//! net.connect(b, sw, Rate::gbps(10), us(1), q());
//! let pa = net.connect(sw, a, Rate::gbps(10), us(1), q());
//! let pb = net.connect(sw, b, Rate::gbps(10), us(1), q());
//! net.add_route(sw, a, pa);
//! net.add_route(sw, b, pb);
//! net.set_endpoint(a, Box::new(Blast));
//! net.set_endpoint(b, Box::new(Blast));
//!
//! net.schedule_flow(FlowDesc { id: FlowId(1), src: a, dst: b, size: 14_600, start: 0 });
//! assert!(net.run_to_completion(us(10_000)));
//! let fct = net.metrics.flow(FlowId(1)).unwrap().fct().unwrap();
//! assert!(fct > 0);
//! ```

pub mod endpoint;
pub mod event;
pub mod faults;
pub mod flowmap;
pub mod metrics;
pub mod network;
pub mod node;
pub mod oracle;
pub mod packet;
pub mod pool;
pub mod port;
pub mod queues;
pub mod rangeset;
pub mod rng;
pub mod routing;
pub mod telemetry;
pub mod topology;
pub mod units;

pub use endpoint::{Ctx, Endpoint, Timer};
pub use event::{Event, EventMix, EventQueue, Place, SchedulerKind};
pub use faults::{
    CorruptionRule, Effect, Fault, FaultPlan, LinkFilter, PacketFilter, Window, WindowKind,
};
pub use flowmap::{FlowKey, FlowMap};
pub use metrics::{AbortCause, FlowEnd, FlowRecord, Metrics};
pub use network::Network;
pub use oracle::{CheckedTracer, OracleProfile, OracleSignals, LOSS_CAUSE_LABELS};
pub use packet::{
    Ecn, FlowDesc, FlowId, NodeId, Packet, PacketKind, PortId, TrafficClass, CREDIT_BYTES,
    HEADER_BYTES, MIN_PACKET_BYTES,
};
pub use pool::{PacketPool, PacketRef};
pub use port::{Link, Port, PortStats};
pub use queues::{
    Color, DropReason, DropTailQueue, EnqueueOutcome, Poll, PoolHandle, PriorityBank, Queue,
    QueueDisc, RedEcnQueue, SharedPool, TrimmingQueue, WredProfile, WredQueue, XPassQueue,
};
pub use rangeset::RangeSet;
pub use rng::SimRng;
pub use routing::{RoutePolicy, RouteTable};
pub use telemetry::{
    FaultEvent, HostEvent, LossCause, NullTracer, QueueEvent, QueueRecord, RecordingConfig,
    RecordingTracer, TraceSink, Tracer, TransportEvent,
};
pub use topology::{
    fat_tree, fat_tree_with, leaf_spine, leaf_spine_with, single_switch, single_switch_with,
    LinkParams, PortRole, QueueFactory, Topology,
};
pub use units::{bdp_bytes, kb, mb, ms, ns, secs, us, Rate, Time};
