//! Strict-priority queue bank (commodity switches expose 8 levels).
//!
//! Used by Homa (unscheduled packets in high priorities, scheduled below),
//! by the §5.5 "priority queueing" alternative to Aeolus (unscheduled in the
//! lowest priority), and — with `selective_threshold` — by Homa+Aeolus where
//! per-port RED/ECN drops unscheduled arrivals once the *port* occupancy
//! exceeds the threshold, regardless of which priority queue they target.

use super::{ByteFifo, DropReason, EnqueueOutcome, Poll, PoolHandle, QueueDisc};
use crate::pool::{PacketPool, PacketRef};
use crate::units::Time;

/// A bank of strict-priority FIFOs sharing one per-port byte budget.
pub struct PriorityBank {
    queues: Vec<ByteFifo>,
    /// Per-port buffer cap across all priority levels.
    cap_bytes: u64,
    /// Aeolus per-port selective dropping: droppable (Non-ECT) arrivals are
    /// discarded once total port occupancy reaches this threshold.
    selective_threshold: Option<u64>,
    /// Optional switch-wide shared buffer pool (Table 5 experiment).
    pool: Option<PoolHandle>,
    bytes: u64,
}

impl PriorityBank {
    /// A bank with `levels` strict priorities (0 served first) and a shared
    /// per-port cap of `cap_bytes`.
    pub fn new(levels: usize, cap_bytes: u64) -> PriorityBank {
        assert!((1..=64).contains(&levels), "unreasonable priority level count");
        PriorityBank {
            queues: (0..levels).map(|_| ByteFifo::new()).collect(),
            cap_bytes,
            selective_threshold: None,
            pool: None,
            bytes: 0,
        }
    }

    /// Enable Aeolus selective dropping at port scope.
    pub fn with_selective_threshold(mut self, threshold: u64) -> PriorityBank {
        self.selective_threshold = Some(threshold);
        self
    }

    /// Attach a switch-wide shared buffer pool.
    pub fn with_pool(mut self, pool: PoolHandle) -> PriorityBank {
        self.pool = Some(pool);
        self
    }

    /// Number of priority levels.
    pub fn levels(&self) -> usize {
        self.queues.len()
    }

}

impl QueueDisc for PriorityBank {
    #[inline]
    fn enqueue(&mut self, pkt: PacketRef, pool: &mut PacketPool, _now: Time) -> EnqueueOutcome {
        let p = pool.get(pkt);
        let sz = p.size;
        let droppable = p.droppable();
        let level = (p.priority as usize).min(self.queues.len() - 1);
        if let Some(k) = self.selective_threshold {
            if self.bytes >= k && droppable {
                return EnqueueOutcome::Dropped { reason: DropReason::SelectiveDrop, pkt };
            }
        }
        if self.bytes + sz as u64 > self.cap_bytes {
            return EnqueueOutcome::Dropped { reason: DropReason::BufferFull, pkt };
        }
        if let Some(shared) = &self.pool {
            if !shared.borrow_mut().try_alloc(sz as u64) {
                return EnqueueOutcome::Dropped { reason: DropReason::SharedBufferFull, pkt };
            }
        }
        self.bytes += sz as u64;
        self.queues[level].push(pkt, sz);
        EnqueueOutcome::Queued
    }

    #[inline]
    fn poll(&mut self, _pool: &mut PacketPool, _now: Time) -> Poll {
        for q in self.queues.iter_mut() {
            if let Some((pkt, sz)) = q.pop() {
                let sz = sz as u64;
                self.bytes -= sz;
                if let Some(shared) = &self.pool {
                    shared.borrow_mut().free(sz);
                }
                return Poll::Ready(pkt);
            }
        }
        Poll::Empty
    }

    #[inline]
    fn bytes(&self) -> u64 {
        self.bytes
    }

    #[inline]
    fn pkts(&self) -> usize {
        self.queues.iter().map(|q| q.len()).sum()
    }

    fn bands(&self, out: &mut Vec<(&'static str, u64)>) {
        // Commodity switches expose 8 levels; deeper banks aggregate the
        // tail under the last name rather than invent dynamic labels.
        const NAMES: [&str; 8] = ["p0", "p1", "p2", "p3", "p4", "p5", "p6", "p7"];
        for (level, q) in self.queues.iter().enumerate() {
            let name = NAMES[level.min(NAMES.len() - 1)];
            if level < NAMES.len() {
                out.push((name, q.bytes()));
            } else if let Some(last) = out.last_mut() {
                last.1 += q.bytes();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::data_pkt;
    use super::super::SharedPool;
    use super::*;
    use crate::queues::Queue;
    use crate::packet::TrafficClass;

    fn pkt_at(pool: &mut PacketPool, prio: u8, seq: u64) -> PacketRef {
        let mut p = data_pkt(TrafficClass::Scheduled, seq);
        p.priority = prio;
        pool.insert(p)
    }

    #[test]
    fn strict_priority_order() {
        let mut pool = PacketPool::new();
        let mut q = PriorityBank::new(8, 1 << 20);
        let a = pkt_at(&mut pool, 5, 50);
        q.enqueue(a, &mut pool, 0);
        let b = pkt_at(&mut pool, 0, 0);
        q.enqueue(b, &mut pool, 0);
        let c = pkt_at(&mut pool, 3, 30);
        q.enqueue(c, &mut pool, 0);
        let d = pkt_at(&mut pool, 0, 1);
        q.enqueue(d, &mut pool, 0);
        let mut order = Vec::new();
        while let Poll::Ready(p) = q.poll(&mut pool, 0) {
            order.push(pool.get(p).seq);
        }
        assert_eq!(order, vec![0, 1, 30, 50]);
    }

    #[test]
    fn port_cap_shared_across_levels() {
        let mut pool = PacketPool::new();
        let mut q = PriorityBank::new(8, 3000);
        let a = pkt_at(&mut pool, 7, 0);
        assert!(matches!(q.enqueue(a, &mut pool, 0), EnqueueOutcome::Queued));
        let b = pkt_at(&mut pool, 6, 1);
        assert!(matches!(q.enqueue(b, &mut pool, 0), EnqueueOutcome::Queued));
        // A *high* priority arrival is still tail-dropped when the port
        // buffer is full of low-priority bytes — the §5.5 failure mode.
        let c = pkt_at(&mut pool, 0, 2);
        match q.enqueue(c, &mut pool, 0) {
            EnqueueOutcome::Dropped { reason: DropReason::BufferFull, .. } => {}
            other => panic!("expected drop, got {other:?}"),
        }
    }

    #[test]
    fn selective_threshold_applies_across_the_whole_port() {
        let mut pool = PacketPool::new();
        let mut q = PriorityBank::new(8, 1 << 20).with_selective_threshold(3000);
        let unsched = |pool: &mut PacketPool, seq| {
            let mut p = data_pkt(TrafficClass::Unscheduled, seq);
            p.priority = 7;
            pool.insert(p)
        };
        let a = unsched(&mut pool, 0);
        assert!(matches!(q.enqueue(a, &mut pool, 0), EnqueueOutcome::Queued));
        let b = pkt_at(&mut pool, 2, 1);
        assert!(matches!(q.enqueue(b, &mut pool, 0), EnqueueOutcome::Queued));
        // Port occupancy is now 3000 B: droppable arrivals go, even to an
        // empty priority level...
        let c = unsched(&mut pool, 2);
        match q.enqueue(c, &mut pool, 0) {
            EnqueueOutcome::Dropped { reason: DropReason::SelectiveDrop, .. } => {}
            other => panic!("expected selective drop, got {other:?}"),
        }
        // ...while scheduled packets are still accepted.
        let d = pkt_at(&mut pool, 1, 3);
        assert!(matches!(q.enqueue(d, &mut pool, 0), EnqueueOutcome::Queued));
    }

    #[test]
    fn out_of_range_priority_clamps_to_lowest() {
        let mut pool = PacketPool::new();
        let mut q = PriorityBank::new(2, 1 << 20);
        let r = pkt_at(&mut pool, 9, 42);
        q.enqueue(r, &mut pool, 0);
        assert_eq!(q.queues[1].bytes(), 1500);
    }

    #[test]
    fn shared_pool_integrates() {
        let mut pool = PacketPool::new();
        let shared = SharedPool::new(1500);
        let mut a = PriorityBank::new(2, 1 << 20).with_pool(shared.clone());
        let mut b = PriorityBank::new(2, 1 << 20).with_pool(shared.clone());
        let r0 = pkt_at(&mut pool, 0, 0);
        assert!(matches!(a.enqueue(r0, &mut pool, 0), EnqueueOutcome::Queued));
        let r1 = pkt_at(&mut pool, 0, 1);
        match b.enqueue(r1, &mut pool, 0) {
            EnqueueOutcome::Dropped { reason: DropReason::SharedBufferFull, .. } => {}
            other => panic!("expected pool drop, got {other:?}"),
        }
        assert!(matches!(a.poll(&mut pool, 0), Poll::Ready(_)));
        assert_eq!(shared.borrow().used(), 0);
    }

    #[test]
    fn byte_and_packet_counters_consistent() {
        let mut pool = PacketPool::new();
        let mut q = PriorityBank::new(8, 1 << 20);
        for i in 0..5 {
            let r = pkt_at(&mut pool, (i % 3) as u8, i);
            q.enqueue(r, &mut pool, 0);
        }
        assert_eq!(q.pkts(), 5);
        assert_eq!(q.bytes(), 5 * 1500);
        while let Poll::Ready(_) = q.poll(&mut pool, 0) {}
        assert_eq!(q.pkts(), 0);
        assert_eq!(q.bytes(), 0);
    }

    #[test]
    fn conforms_to_oracle_ledger_under_seeded_churn() {
        for seed in 0..8 {
            crate::queues::testutil::oracle_audit(
                || Queue::from(PriorityBank::new(8, 12_000).with_selective_threshold(4_000)),
                seed,
                600,
            );
        }
    }
}
