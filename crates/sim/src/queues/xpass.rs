//! ExpressPass port queue: an inner data discipline plus a rate-limited
//! credit queue.
//!
//! ExpressPass switches throttle *credit* packets on every egress port so
//! that the data packets the credits will induce on the reverse path exactly
//! fill that path: at most one credit per serialization time of one data MTU
//! plus one credit (84 B / (84 B + 1538 B) ≈ 5.5 % of capacity). Credits
//! arriving to a full credit queue are dropped — that loss is the signal the
//! ExpressPass feedback loop uses to tune per-flow credit rates.
//!
//! The data path is delegated to an inner [`QueueDisc`], so the same port
//! can run plain drop-tail (original ExpressPass), RED/ECN selective
//! dropping (ExpressPass+Aeolus) or a priority bank (the §5.5 strawman). The
//! inner queue is a type parameter, held inline: each composition is its own
//! [`super::Queue`] variant, and its data path is a direct call.

use super::{ByteFifo, DropReason, EnqueueOutcome, Poll, QueueDisc};
use crate::packet::PacketKind;
use crate::pool::{PacketPool, PacketRef};
use crate::units::{Rate, Time};

/// ExpressPass egress discipline: paced credit queue + inner data queue `D`.
pub struct XPassQueue<D> {
    data: D,
    credits: ByteFifo,
    /// Credit queue cap in packets (ExpressPass default: 8).
    credit_cap_pkts: usize,
    /// Minimum spacing between two credits leaving this port.
    credit_interval: Time,
    /// Earliest time the next credit may leave.
    next_credit_at: Time,
    /// Credits dropped at this port (feedback-loop signal, exposed to stats).
    pub credits_dropped: u64,
}

impl<D: QueueDisc> XPassQueue<D> {
    /// Build for a port of rate `link`, pacing credits so induced data fills
    /// the forward path. `data_mtu_wire` is the wire size of a full data
    /// packet (payload + headers), `credit_size` of a credit packet. Data
    /// packets are handled by `data`.
    pub fn new(
        data: D,
        link: Rate,
        data_mtu_wire: u32,
        credit_size: u32,
        credit_cap_pkts: usize,
    ) -> XPassQueue<D> {
        XPassQueue {
            data,
            credits: ByteFifo::new(),
            credit_cap_pkts,
            credit_interval: link.serialize((data_mtu_wire + credit_size) as u64),
            next_credit_at: 0,
            credits_dropped: 0,
        }
    }

    /// The enforced credit spacing (for tests).
    pub fn credit_interval(&self) -> Time {
        self.credit_interval
    }
}

impl<D: QueueDisc> QueueDisc for XPassQueue<D> {
    #[inline]
    fn enqueue(&mut self, pkt: PacketRef, pool: &mut PacketPool, now: Time) -> EnqueueOutcome {
        let p = pool.get(pkt);
        if p.kind == PacketKind::Credit {
            let sz = p.size;
            if self.credits.len() >= self.credit_cap_pkts {
                self.credits_dropped += 1;
                return EnqueueOutcome::Dropped { reason: DropReason::CreditOverflow, pkt };
            }
            self.credits.push(pkt, sz);
            return EnqueueOutcome::Queued;
        }
        self.data.enqueue(pkt, pool, now)
    }

    #[inline]
    fn poll(&mut self, pool: &mut PacketPool, now: Time) -> Poll {
        if !self.credits.is_empty() && now >= self.next_credit_at {
            let (pkt, _) = self.credits.pop().expect("non-empty credit queue");
            self.next_credit_at = now + self.credit_interval;
            return Poll::Ready(pkt);
        }
        match self.data.poll(pool, now) {
            Poll::Ready(pkt) => Poll::Ready(pkt),
            Poll::NotBefore(t) => {
                if self.credits.is_empty() {
                    Poll::NotBefore(t)
                } else {
                    Poll::NotBefore(t.min(self.next_credit_at))
                }
            }
            Poll::Empty => {
                if self.credits.is_empty() {
                    Poll::Empty
                } else {
                    Poll::NotBefore(self.next_credit_at)
                }
            }
        }
    }

    #[inline]
    fn bytes(&self) -> u64 {
        self.data.bytes() + self.credits.bytes()
    }

    #[inline]
    fn pkts(&self) -> usize {
        self.data.pkts() + self.credits.len()
    }

    fn bands(&self, out: &mut Vec<(&'static str, u64)>) {
        self.data.bands(out);
        out.push(("credit", self.credits.bytes()));
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::data_ref;
    use super::super::{DropTailQueue, RedEcnQueue};
    use super::*;
    use crate::queues::Queue;
    use crate::packet::{FlowId, NodeId, Packet, TrafficClass, CREDIT_BYTES};

    fn credit(pool: &mut PacketPool, seq: u64) -> PacketRef {
        let mut p = Packet::control(FlowId(1), NodeId(0), NodeId(1), seq, PacketKind::Credit);
        p.size = CREDIT_BYTES;
        pool.insert(p)
    }

    fn queue() -> XPassQueue<DropTailQueue> {
        XPassQueue::new(
            DropTailQueue::new(200_000),
            Rate::gbps(100),
            1540,
            CREDIT_BYTES,
            8,
        )
    }

    #[test]
    fn credit_interval_matches_mtu_plus_credit() {
        let q = queue();
        // (1540 + 84) * 8 bits at 10 ps/bit = 129.92 ns.
        assert_eq!(q.credit_interval(), Rate::gbps(100).serialize(1624));
    }

    #[test]
    fn credits_paced_one_per_interval() {
        let mut pool = PacketPool::new();
        let mut q = queue();
        let c0 = credit(&mut pool, 0);
        q.enqueue(c0, &mut pool, 0);
        let c1 = credit(&mut pool, 1);
        q.enqueue(c1, &mut pool, 0);
        match q.poll(&mut pool, 0) {
            Poll::Ready(p) => assert_eq!(pool.get(p).seq, 0),
            other => panic!("unexpected {other:?}"),
        }
        // Second credit gated until the interval elapses.
        let gate = match q.poll(&mut pool, 0) {
            Poll::NotBefore(t) => t,
            other => panic!("unexpected {other:?}"),
        };
        assert_eq!(gate, q.credit_interval());
        assert!(matches!(q.poll(&mut pool, gate), Poll::Ready(_)));
    }

    #[test]
    fn data_fills_gaps_between_credits() {
        let mut pool = PacketPool::new();
        let mut q = queue();
        let c0 = credit(&mut pool, 0);
        q.enqueue(c0, &mut pool, 0);
        let c1 = credit(&mut pool, 1);
        q.enqueue(c1, &mut pool, 0);
        let d = data_ref(&mut pool, TrafficClass::Scheduled, 0);
        q.enqueue(d, &mut pool, 0);
        assert!(
            matches!(q.poll(&mut pool, 0), Poll::Ready(p) if pool.get(p).kind == PacketKind::Credit)
        );
        // Credit gated, so data goes out.
        assert!(
            matches!(q.poll(&mut pool, 0), Poll::Ready(p) if pool.get(p).kind == PacketKind::Data)
        );
        assert!(matches!(q.poll(&mut pool, 0), Poll::NotBefore(_)));
    }

    #[test]
    fn credit_overflow_drops_and_counts() {
        let mut pool = PacketPool::new();
        let mut q = queue();
        for i in 0..8 {
            let c = credit(&mut pool, i);
            assert!(matches!(q.enqueue(c, &mut pool, 0), EnqueueOutcome::Queued));
        }
        let c = credit(&mut pool, 8);
        match q.enqueue(c, &mut pool, 0) {
            EnqueueOutcome::Dropped { reason: DropReason::CreditOverflow, pkt } => {
                assert_eq!(pool.get(pkt).seq, 8)
            }
            other => panic!("expected credit drop, got {other:?}"),
        }
        assert_eq!(q.credits_dropped, 1);
    }

    #[test]
    fn inner_discipline_decides_data_fate() {
        // RED/ECN inner queue: unscheduled dropped above 6 KB — the
        // ExpressPass+Aeolus port in one object.
        let mut pool = PacketPool::new();
        let mut q = XPassQueue::new(
            RedEcnQueue::new(6_000, 200_000),
            Rate::gbps(100),
            1540,
            CREDIT_BYTES,
            8,
        );
        for i in 0..4 {
            let r = data_ref(&mut pool, TrafficClass::Unscheduled, i);
            assert!(matches!(q.enqueue(r, &mut pool, 0), EnqueueOutcome::Queued));
        }
        let r = data_ref(&mut pool, TrafficClass::Unscheduled, 4);
        assert!(matches!(
            q.enqueue(r, &mut pool, 0),
            EnqueueOutcome::Dropped { reason: DropReason::SelectiveDrop, .. }
        ));
        let s = data_ref(&mut pool, TrafficClass::Scheduled, 5);
        assert!(matches!(q.enqueue(s, &mut pool, 0), EnqueueOutcome::QueuedMarked));
    }

    #[test]
    fn empty_queue_reports_empty() {
        let mut pool = PacketPool::new();
        let mut q = queue();
        assert!(matches!(q.poll(&mut pool, 0), Poll::Empty));
    }

    #[test]
    fn conforms_to_oracle_ledger_under_seeded_churn() {
        for seed in 0..8 {
            crate::queues::testutil::oracle_audit(
                || Queue::from(XPassQueue::new(DropTailQueue::new(8_000), Rate::gbps(10), 1_500, 84, 4)),
                seed,
                600,
            );
        }
    }
}
