//! Packet model.
//!
//! One `Packet` struct serves every protocol in the reproduction. Protocol
//! semantics live in [`PacketKind`]. A switch reads only header fields a
//! commodity switch can act on, which is the deployability point of Aeolus:
//! `dst` and the ECMP `route_hash` to forward; wire `size`, the [`Ecn`] code
//! point and `priority` to queue (selective dropping sees the
//! [`TrafficClass`] only through ECN, the way Aeolus encodes it). The two
//! baseline ports that are not commodity features read one field more each:
//! ExpressPass's paced credit queue whether `kind` is a credit, NDP's
//! cutting-payload queue the `trimmed` flag.

use crate::units::Time;

/// Identifier of an application flow (message).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

/// Identifier of a node (host or switch) in the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Index of an egress port on a node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortId(pub u16);

/// Ethernet/IP/transport header bytes accounted on every packet.
pub const HEADER_BYTES: u32 = 40;
/// Minimum Ethernet frame (control packets: requests, credits, ACKs, probes).
pub const MIN_PACKET_BYTES: u32 = 64;
/// Wire size of an ExpressPass credit packet (as in the ExpressPass paper).
pub const CREDIT_BYTES: u32 = 84;

/// ECN code point carried in the IP header.
///
/// Aeolus re-interprets RED/ECN for selective dropping: *unscheduled* packets
/// are sent `NotEct` (so a RED switch drops them above the threshold) while
/// *scheduled* packets are sent `Ect0` (so the same switch only marks them).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Ecn {
    /// Not ECN-capable: RED drops this packet above the threshold.
    NotEct,
    /// ECN-capable transport (ECT(0)): RED marks instead of dropping.
    Ect0,
    /// Congestion experienced: the packet was marked by a switch.
    Ce,
}

/// Scheduling class of a packet from the proactive-transport viewpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum TrafficClass {
    /// Credit-induced data whose delivery the transport guarantees.
    Scheduled,
    /// Pre-credit (first-RTT) data sent speculatively.
    Unscheduled,
    /// Protocol control: requests, credits, grants, ACKs, NACKs, pulls,
    /// probes. Aeolus treats these as scheduled in the network.
    Control,
}

/// Protocol-specific meaning of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketKind {
    /// Application payload bytes `[seq, seq + payload)` of `flow`.
    Data,
    /// Sender's request to start a flow (carries the flow size).
    Request,
    /// ExpressPass credit: allows one MTU data packet. `seq` is the credit
    /// sequence number used for credit-loss feedback.
    Credit,
    /// Homa grant: authorizes transmission up to byte offset `seq` at
    /// priority `grant_prio`.
    Grant {
        /// The switch priority scheduled packets should use.
        grant_prio: u8,
    },
    /// NDP pull: requests one more packet of `flow` from the sender.
    Pull,
    /// Per-packet acknowledgement of the data bytes `[seq, end)`. `of_probe`
    /// marks the ACK of an Aeolus probe (whose `seq` is the byte after the
    /// last unscheduled byte).
    Ack {
        /// True when acknowledging a probe rather than data.
        of_probe: bool,
        /// One past the last acknowledged byte.
        end: u64,
    },
    /// NDP NACK for a trimmed packet; `seq` identifies the lost payload.
    Nack,
    /// Aeolus probe: carries the sequence number (`seq`) *after* the last
    /// unscheduled byte, letting the receiver detect tail losses.
    Probe,
    /// Homa RESEND request: ask the sender to retransmit `[seq, end)`.
    Resend {
        /// One past the last byte to retransmit.
        end: u64,
    },
    /// Fastpass arbiter schedule: transmit `slots` packets, one every
    /// `stride` picoseconds, starting at absolute time `start` (the packet's
    /// `seq` carries the first byte offset the schedule covers).
    Schedule {
        /// Absolute time of the first slot.
        start: Time,
        /// Number of timeslots granted.
        slots: u32,
        /// Spacing between slots.
        stride: Time,
    },
}

/// A simulated packet.
///
/// `size` is the wire size (headers included) used for serialization and
/// buffering; `payload` is the number of application bytes it carries.
#[derive(Debug, Clone)]
pub struct Packet {
    /// Flow this packet belongs to.
    pub flow: FlowId,
    /// Source host.
    pub src: NodeId,
    /// Destination host.
    pub dst: NodeId,
    /// Byte offset / sequence number (meaning depends on `kind`).
    pub seq: u64,
    /// Wire size in bytes (headers included).
    pub size: u32,
    /// Application payload bytes carried (0 for control packets).
    pub payload: u32,
    /// Protocol meaning.
    pub kind: PacketKind,
    /// Scheduling class (drives Aeolus selective dropping).
    pub class: TrafficClass,
    /// Switch priority: 0 is served first. Commodity switches have 8 levels.
    pub priority: u8,
    /// ECN code point.
    pub ecn: Ecn,
    /// Total size of the flow in bytes, carried by Data/Request/Probe headers
    /// so receivers (e.g. Homa) can learn demand even under loss.
    pub flow_size: u64,
    /// True once a trimming switch has cut this packet's payload (NDP CP).
    pub trimmed: bool,
    /// True if this packet is a retransmission of earlier bytes.
    pub retransmit: bool,
    /// Path tag chosen by the sender; per-flow ECMP hashes it, and NDP-style
    /// spraying rewrites it per packet.
    pub path_tag: u64,
    /// ECMP hash of `(flow, path_tag)`, stamped once at network injection so
    /// switches reuse it instead of re-hashing per hop. 0 = not stamped
    /// (recomputed on demand); the tag never changes in flight, so the cache
    /// stays valid for the packet's whole lifetime.
    pub route_hash: u64,
    /// ExpressPass: the credit sequence number this data packet consumes
    /// (echoed back so the receiver can measure credit loss). 0 = none.
    pub credit_echo: u64,
    /// Flow incarnation this packet belongs to, stamped by the network at
    /// injection (= the flow's restart count). A packet still in flight
    /// when its flow aborts and relaunches carries the old incarnation and
    /// is rejected at delivery — the sim analogue of a real transport
    /// discarding segments from a dead connection epoch.
    pub incarnation: u32,
}

impl Packet {
    /// A data packet carrying `payload` application bytes at offset `seq`.
    #[allow(clippy::too_many_arguments)]
    pub fn data(
        flow: FlowId,
        src: NodeId,
        dst: NodeId,
        seq: u64,
        payload: u32,
        class: TrafficClass,
        flow_size: u64,
    ) -> Packet {
        Packet {
            flow,
            src,
            dst,
            seq,
            size: payload + HEADER_BYTES,
            payload,
            kind: PacketKind::Data,
            class,
            priority: 0,
            ecn: match class {
                TrafficClass::Unscheduled => Ecn::NotEct,
                _ => Ecn::Ect0,
            },
            flow_size,
            trimmed: false,
            retransmit: false,
            path_tag: 0,
            route_hash: 0,
            credit_echo: 0,
            incarnation: 0,
        }
    }

    /// A minimum-size control packet of the given kind.
    pub fn control(flow: FlowId, src: NodeId, dst: NodeId, seq: u64, kind: PacketKind) -> Packet {
        Packet {
            flow,
            src,
            dst,
            seq,
            size: MIN_PACKET_BYTES,
            payload: 0,
            kind,
            class: TrafficClass::Control,
            priority: 0,
            ecn: Ecn::Ect0,
            flow_size: 0,
            trimmed: false,
            retransmit: false,
            path_tag: 0,
            route_hash: 0,
            credit_echo: 0,
            incarnation: 0,
        }
    }

    /// Whether a selective-dropping (RED) switch may drop this packet when
    /// the queue exceeds the threshold. Per the Aeolus marking rule this is
    /// exactly the Non-ECT packets.
    #[inline]
    pub fn droppable(&self) -> bool {
        self.ecn == Ecn::NotEct
    }

    /// Marks congestion experienced if the packet is ECN-capable. Returns
    /// whether the mark was applied.
    #[inline]
    pub(crate) fn mark_ce(&mut self) -> bool {
        if self.ecn == Ecn::Ect0 {
            self.ecn = Ecn::Ce;
            true
        } else {
            self.ecn == Ecn::Ce
        }
    }

    /// Trim the payload, leaving only the header (NDP cutting payload).
    pub fn trim(&mut self) {
        self.trimmed = true;
        self.payload = 0;
        self.size = MIN_PACKET_BYTES;
    }

    /// True for packets that carry application payload.
    #[inline]
    pub fn is_data(&self) -> bool {
        matches!(self.kind, PacketKind::Data) && !self.trimmed
    }
}

/// Description of an application flow to be simulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowDesc {
    /// Unique flow id.
    pub id: FlowId,
    /// Source host node.
    pub src: NodeId,
    /// Destination host node.
    pub dst: NodeId,
    /// Flow size in bytes.
    pub size: u64,
    /// Arrival time of the flow at the source.
    pub start: Time,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_data(class: TrafficClass) -> Packet {
        Packet::data(FlowId(1), NodeId(0), NodeId(1), 0, 1460, class, 3000)
    }

    #[test]
    fn unscheduled_data_is_droppable_scheduled_is_not() {
        assert!(sample_data(TrafficClass::Unscheduled).droppable());
        assert!(!sample_data(TrafficClass::Scheduled).droppable());
        let ctrl = Packet::control(FlowId(1), NodeId(0), NodeId(1), 0, PacketKind::Probe);
        assert!(!ctrl.droppable(), "probes are treated as scheduled");
    }

    #[test]
    fn data_size_includes_header() {
        let p = sample_data(TrafficClass::Scheduled);
        assert_eq!(p.size, 1460 + HEADER_BYTES);
        assert_eq!(p.payload, 1460);
        assert!(p.is_data());
    }

    #[test]
    fn ce_marking_only_applies_to_ect() {
        let mut s = sample_data(TrafficClass::Scheduled);
        assert!(s.mark_ce());
        assert_eq!(s.ecn, Ecn::Ce);
        let mut u = sample_data(TrafficClass::Unscheduled);
        assert!(!u.mark_ce());
        assert_eq!(u.ecn, Ecn::NotEct);
    }

    #[test]
    fn trimming_cuts_payload_to_min_frame() {
        let mut p = sample_data(TrafficClass::Unscheduled);
        p.trim();
        assert_eq!(p.size, MIN_PACKET_BYTES);
        assert_eq!(p.payload, 0);
        assert!(p.trimmed);
        assert!(!p.is_data());
    }

    #[test]
    fn control_packets_are_minimum_size() {
        let p = Packet::control(FlowId(9), NodeId(2), NodeId(3), 7, PacketKind::Pull);
        assert_eq!(p.size, MIN_PACKET_BYTES);
        assert_eq!(p.class, TrafficClass::Control);
    }
}
