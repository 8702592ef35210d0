//! Plain drop-tail FIFO, optionally drawing buffer from a shared pool.

use super::{ByteFifo, DropReason, EnqueueOutcome, Poll, PoolHandle, QueueDisc};
use crate::pool::{PacketPool, PacketRef};
use crate::units::Time;

/// FIFO queue that tail-drops when its byte cap (or the switch shared buffer
/// pool) is exhausted.
pub struct DropTailQueue {
    fifo: ByteFifo,
    cap_bytes: u64,
    pool: Option<PoolHandle>,
}

impl DropTailQueue {
    /// A drop-tail queue holding at most `cap_bytes` of packets.
    pub fn new(cap_bytes: u64) -> DropTailQueue {
        DropTailQueue { fifo: ByteFifo::new(), cap_bytes, pool: None }
    }

    /// Attach a switch-wide shared buffer pool; enqueues must also reserve
    /// from the pool, and dequeues release back to it.
    pub fn with_pool(mut self, pool: PoolHandle) -> DropTailQueue {
        self.pool = Some(pool);
        self
    }
}

impl QueueDisc for DropTailQueue {
    #[inline]
    fn enqueue(&mut self, pkt: PacketRef, pool: &mut PacketPool, _now: Time) -> EnqueueOutcome {
        let sz = pool.get(pkt).size;
        if self.fifo.bytes() + sz as u64 > self.cap_bytes {
            return EnqueueOutcome::Dropped { reason: DropReason::BufferFull, pkt };
        }
        if let Some(shared) = &self.pool {
            if !shared.borrow_mut().try_alloc(sz as u64) {
                return EnqueueOutcome::Dropped { reason: DropReason::SharedBufferFull, pkt };
            }
        }
        self.fifo.push(pkt, sz);
        EnqueueOutcome::Queued
    }

    #[inline]
    fn poll(&mut self, _pool: &mut PacketPool, _now: Time) -> Poll {
        match self.fifo.pop() {
            // The fifo caches the wire size, so even the shared-buffer
            // accounting on dequeue stays out of the packet pool.
            Some((pkt, sz)) => {
                if let Some(shared) = &self.pool {
                    shared.borrow_mut().free(sz as u64);
                }
                Poll::Ready(pkt)
            }
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
    use super::super::testutil::data_ref;
    use super::super::SharedPool;
    use super::*;
    use crate::queues::Queue;
    use crate::packet::TrafficClass;

    #[test]
    fn accepts_until_cap_then_tail_drops() {
        let mut pool = PacketPool::new();
        let mut q = DropTailQueue::new(3000);
        for i in 0..2 {
            let r = data_ref(&mut pool, TrafficClass::Scheduled, i * 1460);
            assert!(matches!(q.enqueue(r, &mut pool, 0), EnqueueOutcome::Queued));
        }
        let r = data_ref(&mut pool, TrafficClass::Scheduled, 2 * 1460);
        match q.enqueue(r, &mut pool, 0) {
            EnqueueOutcome::Dropped { reason: DropReason::BufferFull, pkt } => {
                assert_eq!(pool.get(pkt).seq, 2 * 1460)
            }
            other => panic!("expected tail drop, got {other:?}"),
        }
        assert_eq!(q.bytes(), 3000);
        assert_eq!(q.pkts(), 2);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut pool = PacketPool::new();
        let mut q = DropTailQueue::new(1 << 20);
        for i in 0..10u64 {
            let r = data_ref(&mut pool, TrafficClass::Scheduled, i);
            q.enqueue(r, &mut pool, 0);
        }
        for i in 0..10u64 {
            match q.poll(&mut pool, 0) {
                Poll::Ready(p) => assert_eq!(pool.get(p).seq, i),
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(matches!(q.poll(&mut pool, 0), Poll::Empty));
    }

    #[test]
    fn shared_pool_exhaustion_drops_even_below_port_cap() {
        let mut pool = PacketPool::new();
        let shared = SharedPool::new(1500);
        let mut q1 = DropTailQueue::new(1 << 20).with_pool(shared.clone());
        let mut q2 = DropTailQueue::new(1 << 20).with_pool(shared.clone());
        let r0 = data_ref(&mut pool, TrafficClass::Scheduled, 0);
        assert!(matches!(q1.enqueue(r0, &mut pool, 0), EnqueueOutcome::Queued));
        // q2 has plenty of per-port headroom but the pool is gone.
        let r1 = data_ref(&mut pool, TrafficClass::Scheduled, 1);
        match q2.enqueue(r1, &mut pool, 0) {
            EnqueueOutcome::Dropped { reason: DropReason::SharedBufferFull, .. } => {}
            other => panic!("expected shared-buffer drop, got {other:?}"),
        }
        // Draining q1 frees pool space for q2.
        assert!(matches!(q1.poll(&mut pool, 0), Poll::Ready(_)));
        let r2 = data_ref(&mut pool, TrafficClass::Scheduled, 2);
        assert!(matches!(q2.enqueue(r2, &mut pool, 0), EnqueueOutcome::Queued));
        assert_eq!(shared.borrow().used(), 1500);
    }

    #[test]
    fn conforms_to_oracle_ledger_under_seeded_churn() {
        for seed in 0..8 {
            crate::queues::testutil::oracle_audit(|| Queue::from(DropTailQueue::new(8_000)), seed, 600);
        }
    }

    #[test]
    fn conforms_to_oracle_ledger_with_shared_pool() {
        for seed in 0..4 {
            let shared = SharedPool::new(6_000);
            crate::queues::testutil::oracle_audit(
                || Queue::from(DropTailQueue::new(16_000).with_pool(shared.clone())),
                seed,
                600,
            );
            assert_eq!(shared.borrow().used(), 0, "drained queue still holds shared buffer");
        }
    }
}
