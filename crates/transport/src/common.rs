//! Shared pieces for all transport endpoints.

use aeolus_core::AeolusConfig;
use aeolus_sim::units::Time;
use aeolus_sim::{Ecn, FlowDesc, FlowId, NodeId, Packet, PacketKind, Rate, TrafficClass};

/// How a transport treats the first RTT (the pre-credit phase).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FirstRttMode {
    /// Send nothing until credits arrive (original ExpressPass).
    Hold,
    /// Blind burst at the protocol's native priority, not droppable
    /// (original Homa / NDP behaviour).
    Blind,
    /// The Aeolus building block: droppable unscheduled burst + probe +
    /// per-packet ACKs + scheduled retransmission.
    Aeolus,
    /// §2's oracle ("hypothetical X"): unscheduled packets ride a strictly
    /// lower priority than everything else — *zero* interference with
    /// scheduled packets — and are droppable the moment there is any
    /// backlog, so they consume exactly the spare bandwidth; probe-based
    /// recovery then folds losses back into the scheduled stream. This is
    /// the idealized upper bound that Aeolus approximates with one FIFO
    /// queue.
    Oracle,
    /// §5.5's strawman: unscheduled packets isolated in the lowest priority
    /// queue of a commodity switch, recovered by RTO only.
    LowPrio,
}

impl FirstRttMode {
    /// Whether new flows burst data before credits arrive.
    pub(crate) fn bursts(self) -> bool {
        !matches!(self, FirstRttMode::Hold)
    }

    /// Whether the Aeolus probe/ACK machinery is active.
    pub(crate) fn probe_recovery(self) -> bool {
        matches!(self, FirstRttMode::Aeolus | FirstRttMode::Oracle)
    }

    /// Whether a receiver ACKs a data packet of `class` as it arrives: the
    /// probe-recovery modes ACK unscheduled data, their loss signal; the
    /// §5.5 strawman ACKs every data packet, its RTO's only signal; Hold
    /// and Blind send no per-packet ACK.
    pub(crate) fn acks_data(self, class: TrafficClass) -> bool {
        match self {
            FirstRttMode::Aeolus | FirstRttMode::Oracle => class == TrafficClass::Unscheduled,
            FirstRttMode::LowPrio => true,
            FirstRttMode::Hold | FirstRttMode::Blind => false,
        }
    }

    /// Whether SACK gap inference is safe (requires FIFO ordering between
    /// unscheduled and scheduled packets — false once priority queues can
    /// reorder them; that reordering is exactly the §3.2 ambiguity).
    pub(crate) fn sack_inference(self) -> bool {
        matches!(self, FirstRttMode::Aeolus)
    }

    /// Class/ECN/priority stamping for a pre-credit data packet.
    /// `native_prio` is what the base protocol would use (Homa's cutoff
    /// priority); `lowest_prio` is the bottom of the priority range.
    pub(crate) fn stamp_unscheduled(self, pkt: &mut Packet, native_prio: u8, lowest_prio: u8) {
        pkt.class = TrafficClass::Unscheduled;
        match self {
            FirstRttMode::Hold => unreachable!("Hold mode never sends unscheduled packets"),
            FirstRttMode::Blind => {
                pkt.ecn = Ecn::Ect0; // not droppable: rides the buffer
                pkt.priority = native_prio;
            }
            FirstRttMode::Aeolus => {
                pkt.ecn = Ecn::NotEct; // selective dropping applies
                pkt.priority = native_prio;
            }
            FirstRttMode::Oracle => {
                pkt.ecn = Ecn::NotEct; // spare bandwidth only: drop on backlog
                pkt.priority = lowest_prio;
            }
            FirstRttMode::LowPrio => {
                pkt.ecn = Ecn::Ect0;
                pkt.priority = lowest_prio;
            }
        }
    }
}

/// Build a data packet for `flow` covering `[seq, seq+len)`.
pub(crate) fn data_packet(
    flow: &FlowDesc,
    seq: u64,
    len: u32,
    class: TrafficClass,
    retransmit: bool,
) -> Packet {
    let mut p = Packet::data(flow.id, flow.src, flow.dst, seq, len, class, flow.size);
    p.retransmit = retransmit;
    p
}

/// Build an Aeolus probe for `flow` carrying `probe_seq`.
pub(crate) fn probe_packet(flow: &FlowDesc, probe_seq: u64) -> Packet {
    let mut p = Packet::control(flow.id, flow.src, flow.dst, probe_seq, PacketKind::Probe);
    p.flow_size = flow.size;
    p
}

/// Build the first-contact request (ExpressPass credit request, pHost RTS):
/// it carries the demand to the receiver.
pub(crate) fn request_packet(flow: &FlowDesc) -> Packet {
    let mut p = Packet::control(flow.id, flow.src, flow.dst, 0, PacketKind::Request);
    p.flow_size = flow.size;
    p
}

/// Build a per-packet ACK from the receiver (`me`) back to the sender.
pub(crate) fn ack_packet(flow: FlowId, me: NodeId, sender: NodeId, start: u64, end: u64) -> Packet {
    Packet::control(flow, me, sender, start, PacketKind::Ack { of_probe: false, end })
}

/// Build a probe ACK.
pub(crate) fn probe_ack_packet(flow: FlowId, me: NodeId, sender: NodeId, probe_seq: u64) -> Packet {
    Packet::control(flow, me, sender, probe_seq, PacketKind::Ack { of_probe: true, end: probe_seq })
}

/// Common transport tunables shared by every scheme.
#[derive(Debug, Clone, Copy)]
pub struct BaseConfig {
    /// MTU payload bytes (wire MTU minus headers).
    pub mtu_payload: u32,
    /// Base round-trip time of the topology (sets burst budgets / BDP).
    pub base_rtt: Time,
    /// The Aeolus knobs: burst budget fraction and probe retry (the drop
    /// threshold is the switches' business, see `Scheme::make_queue`).
    pub aeolus: AeolusConfig,
    /// First-RTT handling.
    pub mode: FirstRttMode,
    /// Ablation knob: disable SACK gap inference even where it is safe
    /// (recovery then relies on the probe alone).
    pub disable_sack: bool,
}

impl BaseConfig {
    /// Whether SACK gap inference is active (mode-safe and not ablated).
    pub(crate) fn sack_inference(&self) -> bool {
        self.mode.sack_inference() && !self.disable_sack
    }

    /// One RTT's worth of bytes at `line_rate`: the first-RTT burst budget
    /// (§3.1) and the window every receiver-driven loop keeps outstanding.
    pub(crate) fn rtt_bytes(&self, line_rate: Rate) -> u64 {
        self.aeolus.burst_budget(line_rate, self.base_rtt, self.mtu_payload)
    }

    /// Wire size of a full data packet.
    pub(crate) fn mtu_wire(&self) -> u32 {
        self.mtu_payload + aeolus_sim::HEADER_BYTES
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flow() -> FlowDesc {
        FlowDesc { id: FlowId(1), src: NodeId(0), dst: NodeId(1), size: 10_000, start: 0 }
    }

    #[test]
    fn aeolus_stamp_is_droppable_at_native_priority() {
        let mut p = data_packet(&flow(), 0, 1460, TrafficClass::Unscheduled, false);
        FirstRttMode::Aeolus.stamp_unscheduled(&mut p, 2, 7);
        assert_eq!(p.ecn, Ecn::NotEct);
        assert_eq!(p.priority, 2);
        assert!(p.droppable());
    }

    #[test]
    fn blind_stamp_is_protected_at_native_priority() {
        let mut p = data_packet(&flow(), 0, 1460, TrafficClass::Unscheduled, false);
        FirstRttMode::Blind.stamp_unscheduled(&mut p, 1, 7);
        assert_eq!(p.ecn, Ecn::Ect0);
        assert_eq!(p.priority, 1);
        assert!(!p.droppable());
    }

    #[test]
    fn oracle_and_lowprio_sink_to_lowest_priority() {
        let mut p = data_packet(&flow(), 0, 1460, TrafficClass::Unscheduled, false);
        FirstRttMode::Oracle.stamp_unscheduled(&mut p, 0, 7);
        assert_eq!(p.priority, 7);
        assert!(p.droppable(), "oracle bursts vanish rather than linger");
        let mut p = data_packet(&flow(), 0, 1460, TrafficClass::Unscheduled, false);
        FirstRttMode::LowPrio.stamp_unscheduled(&mut p, 0, 7);
        assert_eq!(p.priority, 7);
        assert!(!p.droppable(), "the §5.5 strawman parks bursts in the low-prio queue");
    }

    #[test]
    fn mode_predicates() {
        assert!(!FirstRttMode::Hold.bursts());
        assert!(FirstRttMode::Blind.bursts());
        assert!(FirstRttMode::Aeolus.probe_recovery());
        assert!(FirstRttMode::Oracle.probe_recovery());
        assert!(!FirstRttMode::LowPrio.probe_recovery());
        assert!(!FirstRttMode::LowPrio.sack_inference());
    }

    #[test]
    fn per_packet_acks_follow_the_mode() {
        use FirstRttMode::*;
        use TrafficClass::{Scheduled, Unscheduled};
        let acked = |m: FirstRttMode| (m.acks_data(Unscheduled), m.acks_data(Scheduled));
        assert_eq!(acked(Aeolus), (true, false));
        assert_eq!(acked(Oracle), (true, false));
        assert_eq!(acked(LowPrio), (true, true));
        assert_eq!(acked(Hold), (false, false));
        assert_eq!(acked(Blind), (false, false));
    }

    #[test]
    fn packet_builders_carry_flow_metadata() {
        let f = flow();
        let probe = probe_packet(&f, 5000);
        assert_eq!(probe.flow_size, 10_000);
        assert_eq!(probe.seq, 5000);
        let ack = ack_packet(f.id, f.dst, f.src, 0, 1460);
        assert_eq!(ack.kind, PacketKind::Ack { of_probe: false, end: 1460 });
        assert_eq!(ack.src, f.dst);
        let pack = probe_ack_packet(f.id, f.dst, f.src, 5000);
        assert_eq!(pack.kind, PacketKind::Ack { of_probe: true, end: 5000 });
    }
}
