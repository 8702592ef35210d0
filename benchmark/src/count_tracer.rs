//! `CountTracer`: a [`Tracer`] that only increments counters.
//!
//! Installed for the traced run so every layer's *work done* is counted at
//! the boundary where it happens. Counts are bit-exact for a seed; the run's
//! digest must equal the untraced one (the tracer is passive).

use std::ops::AddAssign;

use aeolus_sim::{
    DropReason, FaultEvent, HostEvent, LossCause, NodeId, PortId, QueueEvent, QueueRecord, Rate,
    Time, TraceSink, Tracer, TrafficClass, TransportEvent,
};

/// The counters one traced cell (or a sum of cells) produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Counts {
    /// Every hook invocation.
    pub hook_calls: u64,
    /// Packets accepted by a queue (plain, marked or trimmed).
    pub enqueues: u64,
    /// Packets popped for serialization.
    pub dequeues: u64,
    /// ECN CE marks applied.
    pub marks: u64,
    /// NDP payload trims.
    pub trims: u64,
    /// Aeolus selective drops.
    pub drops_selective: u64,
    /// Port or shared buffer overflow drops.
    pub drops_overflow: u64,
    /// Every other queue drop (credit throttling, fault purges).
    pub drops_other: u64,
    /// Deepest queue seen, bytes.
    pub max_qlen_bytes: u64,
    /// Serializations started, per node id.
    pub tx_by_node: Vec<u64>,
    /// Data packets launched by hosts.
    pub launched_pkts: u64,
    /// Data packets delivered to hosts.
    pub delivered_pkts: u64,
    /// Unscheduled payload bytes launched.
    pub unsched_launched: u64,
    /// Unscheduled payload bytes delivered.
    pub unsched_delivered: u64,
    /// Credits / grants / pulls / tokens / slots issued.
    pub credits_issued: u64,
    /// Data bytes the issued credits entitled senders to.
    pub credit_bytes_issued: u64,
    /// Data bytes of the credits senders actually consumed.
    pub credit_bytes_received: u64,
    /// Pre-credit bursts started.
    pub bursts: u64,
    /// Loss detections by the Aeolus probe.
    pub losses_probe: u64,
    /// Loss detections by SACK gap inference.
    pub losses_sack: u64,
    /// Last-resort declarations of unacked first-RTT bytes.
    pub losses_last_resort: u64,
    /// Bytes declared lost by the three pre-credit mechanisms above.
    pub core_lost_bytes: u64,
    /// Retransmissions triggered by those mechanisms.
    pub retransmits: u64,
    /// Bytes those retransmissions carried.
    pub core_retx_bytes: u64,
    /// Retransmissions triggered by a transport timeout.
    pub retx_timeout: u64,
    /// Packets killed on the wire by the fault plan.
    pub kills: u64,
    /// Fault windows that armed.
    pub windows: u64,
    /// Node crashes.
    pub crashes: u64,
    /// Flows aborted.
    pub flows_aborted: u64,
    /// Flows relaunched after a restart.
    pub flows_restarted: u64,
}

impl Counts {
    /// Serializations started by nodes other than `hosts`: one per switch
    /// hop, i.e. one route lookup each.
    pub fn switch_tx(&self, hosts: &[NodeId]) -> u64 {
        self.tx_by_node.iter().sum::<u64>() - self.host_tx(hosts)
    }

    /// Serializations started by `hosts`: one pooled packet born each.
    pub fn host_tx(&self, hosts: &[NodeId]) -> u64 {
        hosts
            .iter()
            .map(|h| self.tx_by_node.get(h.0 as usize).copied().unwrap_or(0))
            .sum()
    }
}

impl AddAssign<&Counts> for Counts {
    fn add_assign(&mut self, o: &Counts) {
        self.hook_calls += o.hook_calls;
        self.enqueues += o.enqueues;
        self.dequeues += o.dequeues;
        self.marks += o.marks;
        self.trims += o.trims;
        self.drops_selective += o.drops_selective;
        self.drops_overflow += o.drops_overflow;
        self.drops_other += o.drops_other;
        self.max_qlen_bytes = self.max_qlen_bytes.max(o.max_qlen_bytes);
        // Node ids are per-cell; a sum of cells keeps no per-node split.
        self.tx_by_node.clear();
        self.launched_pkts += o.launched_pkts;
        self.delivered_pkts += o.delivered_pkts;
        self.unsched_launched += o.unsched_launched;
        self.unsched_delivered += o.unsched_delivered;
        self.credits_issued += o.credits_issued;
        self.credit_bytes_issued += o.credit_bytes_issued;
        self.credit_bytes_received += o.credit_bytes_received;
        self.bursts += o.bursts;
        self.losses_probe += o.losses_probe;
        self.losses_sack += o.losses_sack;
        self.losses_last_resort += o.losses_last_resort;
        self.core_lost_bytes += o.core_lost_bytes;
        self.retransmits += o.retransmits;
        self.core_retx_bytes += o.core_retx_bytes;
        self.retx_timeout += o.retx_timeout;
        self.kills += o.kills;
        self.windows += o.windows;
        self.crashes += o.crashes;
        self.flows_aborted += o.flows_aborted;
        self.flows_restarted += o.flows_restarted;
    }
}

/// Whether a loss cause belongs to `aeolus-core`'s pre-credit recovery (as
/// opposed to a transport's own timeout / NACK / stall machinery).
fn core_cause(cause: LossCause) -> bool {
    matches!(
        cause,
        LossCause::Probe | LossCause::SackGap | LossCause::LastResort
    )
}

/// The counting tracer.
#[derive(Debug, Default)]
pub struct CountTracer {
    /// The counters so far.
    pub counts: Counts,
}

impl TraceSink for CountTracer {
    fn port_registered(&mut self, _node: NodeId, _port: PortId, _rate: Rate, _to: NodeId) {
        self.counts.hook_calls += 1;
    }

    fn queue_event(&mut self, rec: &QueueRecord) {
        let c = &mut self.counts;
        c.hook_calls += 1;
        c.max_qlen_bytes = c.max_qlen_bytes.max(rec.qlen_bytes);
        match rec.ev {
            QueueEvent::Enqueue => c.enqueues += 1,
            QueueEvent::EnqueueMarked => {
                c.enqueues += 1;
                c.marks += 1;
            }
            QueueEvent::EnqueueTrimmed => {
                c.enqueues += 1;
                c.trims += 1;
            }
            QueueEvent::Dequeue => c.dequeues += 1,
            QueueEvent::Drop(DropReason::SelectiveDrop) => c.drops_selective += 1,
            QueueEvent::Drop(DropReason::BufferFull | DropReason::SharedBufferFull) => {
                c.drops_overflow += 1
            }
            QueueEvent::Drop(_) => c.drops_other += 1,
        }
    }

    fn queue_bands(
        &mut self,
        _at: Time,
        _node: NodeId,
        _port: PortId,
        _bands: &[(&'static str, u64)],
    ) {
        self.counts.hook_calls += 1;
    }

    fn link_tx(&mut self, _at: Time, node: NodeId, _port: PortId, _wire_bytes: u64) {
        let c = &mut self.counts;
        c.hook_calls += 1;
        let i = node.0 as usize;
        if i >= c.tx_by_node.len() {
            c.tx_by_node.resize(i + 1, 0);
        }
        c.tx_by_node[i] += 1;
    }

    fn packet_launched(&mut self, ev: &HostEvent) {
        let c = &mut self.counts;
        c.hook_calls += 1;
        c.launched_pkts += 1;
        if ev.class == TrafficClass::Unscheduled {
            c.unsched_launched += ev.payload;
        }
    }

    fn packet_delivered(&mut self, ev: &HostEvent) {
        let c = &mut self.counts;
        c.hook_calls += 1;
        c.delivered_pkts += 1;
        if ev.class == TrafficClass::Unscheduled {
            c.unsched_delivered += ev.payload;
        }
    }

    fn transport_event(&mut self, _at: Time, _host: NodeId, ev: &TransportEvent) {
        let c = &mut self.counts;
        c.hook_calls += 1;
        match *ev {
            TransportEvent::CreditIssue { bytes, .. } => {
                c.credits_issued += 1;
                c.credit_bytes_issued += bytes;
            }
            TransportEvent::CreditReceipt { bytes, .. } => c.credit_bytes_received += bytes,
            TransportEvent::BurstStart { .. } => c.bursts += 1,
            TransportEvent::BurstStop { .. } => {}
            TransportEvent::LossDetected { bytes, cause, .. } => {
                match cause {
                    LossCause::Probe => c.losses_probe += 1,
                    LossCause::SackGap => c.losses_sack += 1,
                    LossCause::LastResort => c.losses_last_resort += 1,
                    _ => {}
                }
                if core_cause(cause) {
                    c.core_lost_bytes += bytes;
                }
            }
            TransportEvent::Retransmit { bytes, cause, .. } => {
                if core_cause(cause) {
                    c.retransmits += 1;
                    c.core_retx_bytes += bytes;
                } else if cause == LossCause::Timeout {
                    c.retx_timeout += 1;
                }
            }
        }
    }

    fn fault_event(&mut self, _at: Time, ev: &FaultEvent) {
        let c = &mut self.counts;
        c.hook_calls += 1;
        match ev {
            FaultEvent::WindowStart { .. } => c.windows += 1,
            FaultEvent::WindowEnd { .. } | FaultEvent::NodeRestart { .. } => {}
            FaultEvent::PacketKilled { .. } => c.kills += 1,
            FaultEvent::NodeCrash { .. } => c.crashes += 1,
            FaultEvent::FlowAborted { .. } => c.flows_aborted += 1,
            FaultEvent::FlowRestarted { .. } => c.flows_restarted += 1,
        }
    }
}

impl Tracer for CountTracer {
    const ENABLED: bool = true;
}

/// Two tracers on one seam: the traced run of an observed cell counts
/// *and* keeps the cell's own oracle / recorder.
#[derive(Debug, Default)]
pub struct Tee<A, B>(pub A, pub B);

impl<A: TraceSink, B: TraceSink> TraceSink for Tee<A, B> {
    fn port_registered(&mut self, node: NodeId, port: PortId, rate: Rate, to: NodeId) {
        self.0.port_registered(node, port, rate, to);
        self.1.port_registered(node, port, rate, to);
    }
    fn queue_event(&mut self, rec: &QueueRecord) {
        self.0.queue_event(rec);
        self.1.queue_event(rec);
    }
    fn queue_bands(&mut self, at: Time, node: NodeId, port: PortId, bands: &[(&'static str, u64)]) {
        self.0.queue_bands(at, node, port, bands);
        self.1.queue_bands(at, node, port, bands);
    }
    fn link_tx(&mut self, at: Time, node: NodeId, port: PortId, wire_bytes: u64) {
        self.0.link_tx(at, node, port, wire_bytes);
        self.1.link_tx(at, node, port, wire_bytes);
    }
    fn packet_launched(&mut self, ev: &HostEvent) {
        self.0.packet_launched(ev);
        self.1.packet_launched(ev);
    }
    fn packet_delivered(&mut self, ev: &HostEvent) {
        self.0.packet_delivered(ev);
        self.1.packet_delivered(ev);
    }
    fn transport_event(&mut self, at: Time, host: NodeId, ev: &TransportEvent) {
        self.0.transport_event(at, host, ev);
        self.1.transport_event(at, host, ev);
    }
    fn fault_event(&mut self, at: Time, ev: &FaultEvent) {
        self.0.fault_event(at, ev);
        self.1.fault_event(at, ev);
    }
}

impl<A: Tracer, B: Tracer> Tracer for Tee<A, B> {
    const ENABLED: bool = true;
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeolus_sim::{FlowId, PacketKind};

    fn rec(ev: QueueEvent, qlen_bytes: u64) -> QueueRecord {
        QueueRecord {
            at: 0,
            node: NodeId(2),
            port: PortId(0),
            ev,
            flow: FlowId(1),
            seq: 0,
            kind: PacketKind::Data,
            class: TrafficClass::Unscheduled,
            size: 1500,
            payload: 1460,
            qlen_bytes,
            qlen_pkts: 1,
        }
    }

    #[test]
    fn queue_events_land_in_their_counters() {
        let mut t = CountTracer::default();
        t.queue_event(&rec(QueueEvent::Enqueue, 1500));
        t.queue_event(&rec(QueueEvent::EnqueueMarked, 3000));
        t.queue_event(&rec(QueueEvent::EnqueueTrimmed, 3040));
        t.queue_event(&rec(QueueEvent::Dequeue, 1540));
        t.queue_event(&rec(QueueEvent::Drop(DropReason::SelectiveDrop), 1540));
        t.queue_event(&rec(QueueEvent::Drop(DropReason::BufferFull), 1540));
        t.queue_event(&rec(QueueEvent::Drop(DropReason::CreditOverflow), 1540));
        let c = &t.counts;
        assert_eq!((c.enqueues, c.dequeues, c.marks, c.trims), (3, 1, 1, 1));
        assert_eq!(
            (c.drops_selective, c.drops_overflow, c.drops_other),
            (1, 1, 1)
        );
        assert_eq!(c.max_qlen_bytes, 3040);
        assert_eq!(c.hook_calls, 7);
    }

    #[test]
    fn link_tx_splits_hosts_from_switches() {
        let mut t = CountTracer::default();
        for node in [0, 0, 1, 5, 5, 5] {
            t.link_tx(0, NodeId(node), PortId(0), 1500);
        }
        let hosts = [NodeId(0), NodeId(1), NodeId(9)];
        assert_eq!(t.counts.host_tx(&hosts), 3);
        assert_eq!(t.counts.switch_tx(&hosts), 3);
    }

    #[test]
    fn core_and_transport_recovery_are_counted_apart() {
        let mut t = CountTracer::default();
        let f = FlowId(1);
        let h = NodeId(0);
        t.transport_event(
            0,
            h,
            &TransportEvent::LossDetected {
                flow: f,
                bytes: 100,
                cause: LossCause::Probe,
            },
        );
        t.transport_event(
            0,
            h,
            &TransportEvent::Retransmit {
                flow: f,
                bytes: 100,
                cause: LossCause::Probe,
            },
        );
        t.transport_event(
            0,
            h,
            &TransportEvent::LossDetected {
                flow: f,
                bytes: 50,
                cause: LossCause::Timeout,
            },
        );
        t.transport_event(
            0,
            h,
            &TransportEvent::Retransmit {
                flow: f,
                bytes: 50,
                cause: LossCause::Timeout,
            },
        );
        let c = &t.counts;
        assert_eq!(
            (
                c.losses_probe,
                c.core_lost_bytes,
                c.retransmits,
                c.core_retx_bytes
            ),
            (1, 100, 1, 100)
        );
        assert_eq!(c.retx_timeout, 1);
    }

    #[test]
    fn tee_feeds_both_sinks_and_sums_add_up() {
        let mut t = Tee(CountTracer::default(), CountTracer::default());
        t.queue_event(&rec(QueueEvent::Enqueue, 10));
        assert_eq!(t.0.counts, t.1.counts);
        let mut sum = Counts::default();
        sum += &t.0.counts;
        sum += &t.1.counts;
        assert_eq!(sum.enqueues, 2);
        assert_eq!(sum.max_qlen_bytes, 10);
    }
}
