//! Single-threshold RED/ECN queue — the commodity-switch feature Aeolus
//! re-interprets to build selective dropping (§4.1 of the paper).
//!
//! The switch is configured with both the low and high RED thresholds set to
//! the selective-dropping threshold `K`. An arriving packet when the queue
//! holds ≥ `K` bytes is:
//!
//! * **dropped** if it is Non-ECT — which, under Aeolus marking, is exactly
//!   the unscheduled (pre-credit) packets;
//! * **CE-marked and queued** if it is ECT — the scheduled packets (whose
//!   marks Aeolus receivers simply ignore).
//!
//! The decision is taken on the *pre-enqueue* occupancy: a packet arriving
//! while the queue holds `K - 1` bytes is admitted (and may push occupancy
//! well past `K`), one arriving at exactly `K` is not. Boundary tests below
//! pin this interpretation.
//!
//! Scheduled packets are still subject to the physical buffer cap, but in a
//! functioning proactive transport that cap is never approached.

use super::{ByteFifo, DropReason, EnqueueOutcome, Poll, QueueDisc};
use crate::pool::{PacketPool, PacketRef};
use crate::units::Time;

/// RED/ECN FIFO with equal low/high thresholds (deterministic marking), the
/// configuration the paper uses to realize selective dropping.
pub struct RedEcnQueue {
    fifo: ByteFifo,
    /// Selective-dropping / marking threshold in bytes (paper default 6 KB).
    threshold: u64,
    /// Physical per-port buffer in bytes (paper default 200 KB).
    cap_bytes: u64,
}

impl RedEcnQueue {
    /// Queue with marking/dropping `threshold` and physical cap `cap_bytes`.
    pub fn new(threshold: u64, cap_bytes: u64) -> RedEcnQueue {
        assert!(threshold <= cap_bytes, "threshold must not exceed the buffer");
        RedEcnQueue { fifo: ByteFifo::new(), threshold, cap_bytes }
    }

    /// The configured selective-dropping threshold in bytes.
    pub fn threshold(&self) -> u64 {
        self.threshold
    }
}

impl QueueDisc for RedEcnQueue {
    #[inline]
    fn enqueue(&mut self, pkt: PacketRef, pool: &mut PacketPool, _now: Time) -> EnqueueOutcome {
        let sz = pool.get(pkt).size;
        if self.fifo.bytes() + sz as u64 > self.cap_bytes {
            return EnqueueOutcome::Dropped { reason: DropReason::BufferFull, pkt };
        }
        if self.fifo.bytes() >= self.threshold {
            if pool.get(pkt).droppable() {
                return EnqueueOutcome::Dropped { reason: DropReason::SelectiveDrop, pkt };
            }
            pool.get_mut(pkt).mark_ce();
            self.fifo.push(pkt, sz);
            return EnqueueOutcome::QueuedMarked;
        }
        self.fifo.push(pkt, sz);
        EnqueueOutcome::Queued
    }

    #[inline]
    fn poll(&mut self, _pool: &mut PacketPool, _now: Time) -> Poll {
        match self.fifo.pop() {
            Some((pkt, _)) => Poll::Ready(pkt),
            None => Poll::Empty,
        }
    }

    #[inline]
    fn bytes(&self) -> u64 {
        self.fifo.bytes()
    }

    #[inline]
    fn pkts(&self) -> usize {
        self.fifo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{ctrl_ref, data_ref};
    use super::*;
    use crate::queues::Queue;
    use crate::packet::{Ecn, FlowId, NodeId, Packet, PacketKind, TrafficClass};

    /// 6 KB threshold = 4 MTU packets, the paper default.
    fn queue() -> RedEcnQueue {
        RedEcnQueue::new(6_000, 200_000)
    }

    /// A data packet whose wire size is exactly `size` bytes.
    fn sized_ref(pool: &mut PacketPool, size: u32, seq: u64) -> PacketRef {
        let payload = size - crate::packet::HEADER_BYTES;
        pool.insert(Packet::data(
            FlowId(1),
            NodeId(0),
            NodeId(1),
            seq,
            payload,
            TrafficClass::Unscheduled,
            1 << 20,
        ))
    }

    #[test]
    fn below_threshold_everything_is_queued_unmarked() {
        let mut pool = PacketPool::new();
        let mut q = queue();
        for i in 0..4 {
            let r = data_ref(&mut pool, TrafficClass::Unscheduled, i);
            let out = q.enqueue(r, &mut pool, 0);
            assert!(matches!(out, EnqueueOutcome::Queued), "pkt {i}: {out:?}");
        }
        assert_eq!(q.pkts(), 4);
    }

    #[test]
    fn unscheduled_dropped_above_threshold() {
        let mut pool = PacketPool::new();
        let mut q = queue();
        for i in 0..4 {
            let r = data_ref(&mut pool, TrafficClass::Unscheduled, i);
            q.enqueue(r, &mut pool, 0);
        }
        // Queue now holds 6000 B >= threshold: next unscheduled must go.
        let r = data_ref(&mut pool, TrafficClass::Unscheduled, 4);
        match q.enqueue(r, &mut pool, 0) {
            EnqueueOutcome::Dropped { reason: DropReason::SelectiveDrop, .. } => {}
            other => panic!("expected selective drop, got {other:?}"),
        }
        assert_eq!(q.pkts(), 4, "queue never grows with unscheduled packets");
    }

    #[test]
    fn scheduled_marked_not_dropped_above_threshold() {
        let mut pool = PacketPool::new();
        let mut q = queue();
        for i in 0..4 {
            let r = data_ref(&mut pool, TrafficClass::Unscheduled, i);
            q.enqueue(r, &mut pool, 0);
        }
        let r = data_ref(&mut pool, TrafficClass::Scheduled, 4);
        match q.enqueue(r, &mut pool, 0) {
            EnqueueOutcome::QueuedMarked => {}
            other => panic!("expected marked enqueue, got {other:?}"),
        }
        assert_eq!(q.pkts(), 5);
        // The marked packet comes out with CE set.
        let mut last = None;
        while let Poll::Ready(p) = q.poll(&mut pool, 0) {
            last = Some(p);
        }
        assert_eq!(pool.get(last.unwrap()).ecn, Ecn::Ce);
    }

    #[test]
    fn control_packets_survive_congestion() {
        let mut pool = PacketPool::new();
        let mut q = queue();
        for i in 0..10 {
            let r = data_ref(&mut pool, TrafficClass::Scheduled, i);
            q.enqueue(r, &mut pool, 0);
        }
        let r = ctrl_ref(&mut pool, PacketKind::Probe, 99);
        let out = q.enqueue(r, &mut pool, 0);
        assert!(matches!(out, EnqueueOutcome::QueuedMarked | EnqueueOutcome::Queued));
    }

    #[test]
    fn physical_cap_still_binds_scheduled() {
        let mut pool = PacketPool::new();
        let mut q = RedEcnQueue::new(6_000, 7_500);
        for i in 0..5 {
            let r = data_ref(&mut pool, TrafficClass::Scheduled, i);
            q.enqueue(r, &mut pool, 0);
        }
        let r = data_ref(&mut pool, TrafficClass::Scheduled, 5);
        match q.enqueue(r, &mut pool, 0) {
            EnqueueOutcome::Dropped { reason: DropReason::BufferFull, .. } => {}
            other => panic!("expected buffer-full drop, got {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "threshold must not exceed")]
    fn threshold_above_cap_is_a_config_bug() {
        RedEcnQueue::new(10_000, 5_000);
    }

    // §4.1 boundary semantics: the drop decision reads the *pre-enqueue*
    // occupancy and compares it to K with `>=`.

    #[test]
    fn occupancy_exactly_at_threshold_drops_unscheduled() {
        let mut pool = PacketPool::new();
        let mut q = RedEcnQueue::new(6_000, 200_000);
        // Fill to exactly K = 6000 bytes.
        for i in 0..4 {
            let r = sized_ref(&mut pool, 1500, i);
            assert!(matches!(q.enqueue(r, &mut pool, 0), EnqueueOutcome::Queued));
        }
        assert_eq!(q.bytes(), 6_000);
        let r = sized_ref(&mut pool, 64, 100);
        match q.enqueue(r, &mut pool, 0) {
            EnqueueOutcome::Dropped { reason: DropReason::SelectiveDrop, .. } => {}
            other => panic!("at exactly K the unscheduled packet must drop, got {other:?}"),
        }
    }

    #[test]
    fn occupancy_one_byte_below_threshold_admits() {
        let mut pool = PacketPool::new();
        let mut q = RedEcnQueue::new(6_000, 200_000);
        // Fill to K - 1 = 5999 bytes: 3 × 1500 + 1499.
        for i in 0..3 {
            q.enqueue(sized_ref(&mut pool, 1500, i), &mut pool, 0);
        }
        q.enqueue(sized_ref(&mut pool, 1499, 3), &mut pool, 0);
        assert_eq!(q.bytes(), 5_999);
        let r = sized_ref(&mut pool, 64, 100);
        assert!(
            matches!(q.enqueue(r, &mut pool, 0), EnqueueOutcome::Queued),
            "one byte below K the packet is admitted unmarked"
        );
        assert_eq!(q.bytes(), 6_063);
    }

    #[test]
    fn mtu_packet_at_k_minus_one_overshoots_threshold() {
        let mut pool = PacketPool::new();
        let mut q = RedEcnQueue::new(6_000, 200_000);
        for i in 0..3 {
            q.enqueue(sized_ref(&mut pool, 1500, i), &mut pool, 0);
        }
        q.enqueue(sized_ref(&mut pool, 1499, 3), &mut pool, 0);
        assert_eq!(q.bytes(), 5_999);
        // A full MTU packet arriving at K-1 is admitted — pre-enqueue
        // occupancy rules — and legally pushes the queue to K + 1499.
        let r = sized_ref(&mut pool, 1500, 100);
        assert!(matches!(q.enqueue(r, &mut pool, 0), EnqueueOutcome::Queued));
        assert_eq!(q.bytes(), 7_499);
        // But the *next* arrival sees occupancy >= K and drops.
        let r2 = sized_ref(&mut pool, 64, 101);
        assert!(matches!(
            q.enqueue(r2, &mut pool, 0),
            EnqueueOutcome::Dropped { reason: DropReason::SelectiveDrop, .. }
        ));
    }

    #[test]
    fn conforms_to_oracle_ledger_under_seeded_churn() {
        for seed in 0..8 {
            crate::queues::testutil::oracle_audit(|| Queue::from(RedEcnQueue::new(3_000, 9_000)), seed, 600);
        }
    }
}
