//! Switch-side selective dropping (§3.2 / §4.1).
//!
//! Aeolus implements scheduled-packet-first with *one* FIFO queue per port by
//! re-interpreting the commodity RED/ECN feature: unscheduled packets are
//! marked Non-ECT at the sender (so the switch drops them above the RED
//! threshold) while scheduled packets are ECT (so the switch only marks
//! them, and receivers ignore the marks). This module provides the
//! configured queue and the marking helpers.

use aeolus_sim::{Ecn, Packet, RedEcnQueue, TrafficClass};

use crate::config::AeolusConfig;

/// Build the Aeolus selective-dropping queue for one switch port.
pub fn selective_drop_queue(cfg: &AeolusConfig) -> RedEcnQueue {
    RedEcnQueue::new(cfg.drop_threshold, cfg.port_buffer)
}

/// Apply the Aeolus marking rule to an outgoing packet: the ECN field is the
/// deployable encoding of the scheduled/unscheduled distinction.
pub fn mark(pkt: &mut Packet) {
    pkt.ecn = match pkt.class {
        TrafficClass::Unscheduled => Ecn::NotEct,
        TrafficClass::Scheduled | TrafficClass::Control => Ecn::Ect0,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeolus_sim::{EnqueueOutcome, FlowId, NodeId, PacketPool, PacketRef, Poll, QueueDisc};

    fn data(pool: &mut PacketPool, class: TrafficClass, seq: u64) -> PacketRef {
        let mut p = Packet::data(FlowId(1), NodeId(0), NodeId(1), seq, 1460, class, 1 << 20);
        mark(&mut p);
        pool.insert(p)
    }

    #[test]
    fn marking_rule_matches_section_4_1() {
        let mut pool = PacketPool::new();
        let u = data(&mut pool, TrafficClass::Unscheduled, 0);
        assert_eq!(pool.get(u).ecn, Ecn::NotEct);
        let s = data(&mut pool, TrafficClass::Scheduled, 0);
        assert_eq!(pool.get(s).ecn, Ecn::Ect0);
        let c = data(&mut pool, TrafficClass::Control, 0);
        assert_eq!(pool.get(c).ecn, Ecn::Ect0);
    }

    #[test]
    fn queue_drops_only_unscheduled_above_threshold() {
        let cfg = AeolusConfig::default();
        let mut pool = PacketPool::new();
        let mut q = selective_drop_queue(&cfg);
        // Fill to the 6 KB threshold with scheduled packets.
        for i in 0..4 {
            let r = data(&mut pool, TrafficClass::Scheduled, i);
            assert!(matches!(q.enqueue(r, &mut pool, 0), EnqueueOutcome::Queued));
        }
        let u = data(&mut pool, TrafficClass::Unscheduled, 10);
        assert!(matches!(q.enqueue(u, &mut pool, 0), EnqueueOutcome::Dropped { .. }));
        let s = data(&mut pool, TrafficClass::Scheduled, 11);
        assert!(matches!(q.enqueue(s, &mut pool, 0), EnqueueOutcome::QueuedMarked));
        // FIFO order preserved (no ambiguity — the §3.2 argument).
        let mut seqs = Vec::new();
        while let Poll::Ready(p) = q.poll(&mut pool, 0) {
            seqs.push(pool.get(p).seq);
        }
        assert_eq!(seqs, vec![0, 1, 2, 3, 11]);
    }

    #[test]
    fn unscheduled_fill_spare_capacity_below_threshold() {
        let cfg = AeolusConfig::default();
        let mut pool = PacketPool::new();
        let mut q = selective_drop_queue(&cfg);
        for i in 0..4 {
            let r = data(&mut pool, TrafficClass::Unscheduled, i);
            assert!(matches!(q.enqueue(r, &mut pool, 0), EnqueueOutcome::Queued));
        }
        assert_eq!(q.bytes(), 6000);
    }
}
