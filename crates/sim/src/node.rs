//! Network nodes: switches and hosts.

use crate::endpoint::Endpoint;
use crate::packet::NodeId;
use crate::port::Port;
use crate::routing::RouteTable;
use crate::units::Time;

/// What a node is.
// One instance per node; the size skew between the routing-table-bearing
// switch variant and the host variant is irrelevant at that cardinality.
#[allow(clippy::large_enum_variant)]
pub enum NodeKind {
    /// A switch holding a routing table.
    Switch {
        /// Destination-indexed ECMP next-hop table.
        table: RouteTable,
    },
    /// A host running a transport endpoint on a single NIC (port 0).
    Host {
        /// The installed endpoint; `None` only transiently while a handler
        /// runs, or before installation.
        endpoint: Option<Box<dyn Endpoint>>,
        /// How often the host has crashed (wrapping): the stamp that tells
        /// its live timers from those armed before its last crash.
        crashes: u16,
    },
}

/// A node: identity, ports, ingress processing delay, and its kind.
pub struct Node {
    /// This node's id.
    pub id: NodeId,
    /// Egress ports. Hosts have exactly one (the NIC).
    pub ports: Vec<Port>,
    /// Fixed processing delay applied to every packet arriving at this node
    /// (switching delay for switches, host stack delay for hosts).
    pub ingress_delay: Time,
    /// Switch or host.
    pub kind: NodeKind,
}

impl Node {
    /// True if this node is a host.
    pub fn is_host(&self) -> bool {
        matches!(self.kind, NodeKind::Host { .. })
    }
}
