//! NDP cutting-payload (CP) queue.
//!
//! NDP switches keep a very short data queue (default 8 full packets). When
//! a data packet arrives to a full data queue its payload is *trimmed* and
//! the remaining header is placed in a strict-priority control queue together
//! with ACKs/NACKs/pulls, so the receiver learns of the loss within one RTT.
//! This requires switch hardware modifications (the paper's point: Aeolus
//! reproduces the effect with commodity RED/ECN instead).

use super::{ByteFifo, DropReason, EnqueueOutcome, Poll, QueueDisc};
use crate::pool::{PacketPool, PacketRef};
use crate::units::Time;

/// Two-queue NDP port: priority control queue + packet-capped data queue
/// with payload trimming on overflow.
pub struct TrimmingQueue {
    control: ByteFifo,
    data: ByteFifo,
    /// Maximum number of full data packets queued before trimming (paper: 8).
    data_cap_pkts: usize,
    /// Cap on the control queue in bytes; beyond it even headers drop (rare).
    control_cap_bytes: u64,
    /// Count of packets trimmed at this port (exposed for stats).
    pub trimmed_count: u64,
}

impl TrimmingQueue {
    /// A trimming queue holding at most `data_cap_pkts` untrimmed packets.
    pub fn new(data_cap_pkts: usize, control_cap_bytes: u64) -> TrimmingQueue {
        TrimmingQueue {
            control: ByteFifo::new(),
            data: ByteFifo::new(),
            data_cap_pkts,
            control_cap_bytes,
            trimmed_count: 0,
        }
    }
}

impl QueueDisc for TrimmingQueue {
    #[inline]
    fn enqueue(&mut self, pkt: PacketRef, pool: &mut PacketPool, _now: Time) -> EnqueueOutcome {
        let is_payload = pool.get(pkt).is_data();
        if !is_payload {
            // Control / already-trimmed packets ride the priority queue.
            let sz = pool.get(pkt).size;
            if self.control.bytes() + sz as u64 > self.control_cap_bytes {
                return EnqueueOutcome::Dropped { reason: DropReason::BufferFull, pkt };
            }
            self.control.push(pkt, sz);
            return EnqueueOutcome::Queued;
        }
        if self.data.len() >= self.data_cap_pkts {
            // Cutting payload: keep the header, lose the bytes. Trim before
            // pushing so the FIFO caches the post-trim wire size.
            pool.get_mut(pkt).trim();
            self.trimmed_count += 1;
            let sz = pool.get(pkt).size;
            if self.control.bytes() + sz as u64 > self.control_cap_bytes {
                return EnqueueOutcome::Dropped { reason: DropReason::BufferFull, pkt };
            }
            self.control.push(pkt, sz);
            return EnqueueOutcome::QueuedTrimmed;
        }
        let sz = pool.get(pkt).size;
        self.data.push(pkt, sz);
        EnqueueOutcome::Queued
    }

    #[inline]
    fn poll(&mut self, _pool: &mut PacketPool, _now: Time) -> Poll {
        if let Some((pkt, _)) = self.control.pop() {
            return Poll::Ready(pkt);
        }
        match self.data.pop() {
            Some((pkt, _)) => Poll::Ready(pkt),
            None => Poll::Empty,
        }
    }

    #[inline]
    fn bytes(&self) -> u64 {
        self.control.bytes() + self.data.bytes()
    }

    #[inline]
    fn pkts(&self) -> usize {
        self.control.len() + self.data.len()
    }

    fn bands(&self, out: &mut Vec<(&'static str, u64)>) {
        out.push(("ctrl", self.control.bytes()));
        out.push(("data", self.data.bytes()));
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{ctrl_ref, data_ref};
    use super::*;
    use crate::queues::Queue;
    use crate::packet::{PacketKind, TrafficClass, MIN_PACKET_BYTES};

    fn queue() -> TrimmingQueue {
        TrimmingQueue::new(8, 1 << 20)
    }

    #[test]
    fn data_queued_until_cap_then_trimmed() {
        let mut pool = PacketPool::new();
        let mut q = queue();
        for i in 0..8 {
            let r = data_ref(&mut pool, TrafficClass::Unscheduled, i);
            assert!(matches!(q.enqueue(r, &mut pool, 0), EnqueueOutcome::Queued));
        }
        let r = data_ref(&mut pool, TrafficClass::Unscheduled, 8);
        match q.enqueue(r, &mut pool, 0) {
            EnqueueOutcome::QueuedTrimmed => {}
            other => panic!("expected trim, got {other:?}"),
        }
        assert_eq!(q.trimmed_count, 1);
        assert_eq!(q.pkts(), 9, "trimmed header stays queued");
    }

    #[test]
    fn trimmed_headers_overtake_data() {
        let mut pool = PacketPool::new();
        let mut q = queue();
        for i in 0..8 {
            let r = data_ref(&mut pool, TrafficClass::Unscheduled, i);
            q.enqueue(r, &mut pool, 0);
        }
        let r = data_ref(&mut pool, TrafficClass::Unscheduled, 100);
        q.enqueue(r, &mut pool, 0);
        // The trimmed header (seq 100) must come out first.
        match q.poll(&mut pool, 0) {
            Poll::Ready(p) => {
                let p = pool.get(p);
                assert_eq!(p.seq, 100);
                assert!(p.trimmed);
                assert_eq!(p.size, MIN_PACKET_BYTES);
            }
            other => panic!("unexpected {other:?}"),
        }
        // Then the full data packets in order.
        match q.poll(&mut pool, 0) {
            Poll::Ready(p) => {
                let p = pool.get(p);
                assert_eq!(p.seq, 0);
                assert!(!p.trimmed);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn control_packets_ride_priority_queue() {
        let mut pool = PacketPool::new();
        let mut q = queue();
        let d = data_ref(&mut pool, TrafficClass::Scheduled, 0);
        q.enqueue(d, &mut pool, 0);
        let c = ctrl_ref(&mut pool, PacketKind::Pull, 1);
        q.enqueue(c, &mut pool, 0);
        match q.poll(&mut pool, 0) {
            Poll::Ready(p) => assert_eq!(pool.get(p).kind, PacketKind::Pull),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn control_cap_eventually_drops() {
        let mut pool = PacketPool::new();
        let mut q = TrimmingQueue::new(8, 128);
        let a = ctrl_ref(&mut pool, PacketKind::Pull, 0);
        assert!(matches!(q.enqueue(a, &mut pool, 0), EnqueueOutcome::Queued));
        let b = ctrl_ref(&mut pool, PacketKind::Pull, 1);
        assert!(matches!(q.enqueue(b, &mut pool, 0), EnqueueOutcome::Queued));
        let c = ctrl_ref(&mut pool, PacketKind::Pull, 2);
        assert!(matches!(
            q.enqueue(c, &mut pool, 0),
            EnqueueOutcome::Dropped { reason: DropReason::BufferFull, .. }
        ));
    }

    #[test]
    fn conforms_to_oracle_ledger_under_seeded_churn() {
        for seed in 0..8 {
            crate::queues::testutil::oracle_audit(|| Queue::from(TrimmingQueue::new(4, 2_000)), seed, 600);
        }
    }
}
