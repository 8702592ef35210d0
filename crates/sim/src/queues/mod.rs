//! Egress queue disciplines.
//!
//! Every switch/NIC port holds one [`Queue`] inline: an enum over the
//! disciplines below, so a packet's enqueue, poll and occupancy reads are a
//! `match` on the port itself, with no pointer to chase and no virtual call.
//! The disciplines model exactly the commodity-switch features the paper
//! relies on:
//!
//! * [`DropTailQueue`] — plain FIFO with a byte cap (optionally drawing from
//!   a switch-wide shared buffer pool, used by the Table 5 experiment).
//! * [`RedEcnQueue`] — single-threshold RED/ECN. With Aeolus' marking rule
//!   (unscheduled = Non-ECT, scheduled = ECT) this *is* selective dropping.
//! * [`WredQueue`] — the §4.1 WRED/color alternative: per-color thresholds
//!   in one queue, byte-for-byte equivalent drop decisions.
//! * [`PriorityBank`] — strict-priority bank of 8 FIFOs sharing a per-port
//!   byte cap (Homa) with an optional selective-dropping threshold.
//! * [`TrimmingQueue`] — NDP cutting-payload queue: data FIFO capped in
//!   packets; overflowing data packets are trimmed to headers and queued in
//!   a strict-priority control queue.
//! * [`XPassQueue`] — ExpressPass port: data FIFO plus a small credit FIFO
//!   drained through a token bucket at the credit-rate fraction of capacity.
//!
//! # One admission rule, four spellings
//!
//! Selective dropping — "a droppable (Non-ECT) arrival is dropped once the
//! port holds at least `K` bytes; everything else is subject only to the
//! buffer" — is implemented by [`RedEcnQueue`], [`WredQueue`] and
//! [`PriorityBank::with_selective_threshold`]; [`DropTailQueue`] is the same
//! rule with no threshold. They are proven, not assumed, to accept and drop
//! exactly the same arrivals (`wred_and_red_ecn_make_identical_drop_decisions`,
//! `proptests::wred_equals_red_ecn_for_any_mix`,
//! `proptests::red_ecn_fifo_equals_one_level_selective_bank`), and are kept
//! as separate types because what they *report* differs and the trace JSONL
//! is part of the byte-identity contract:
//!
//! * **Drop reason when both limits are exceeded.** A droppable arrival over
//!   the threshold that would also overflow the buffer is `BufferFull` from
//!   the FIFOs (cap tested first) and `SelectiveDrop` from the bank
//!   (threshold tested first).
//! * **CE marking.** [`RedEcnQueue`] CE-marks the ECT packets it keeps at or
//!   above the threshold (DCTCP reads the marks; Aeolus receivers ignore
//!   them). The bank and [`WredQueue`] never mark.
//! * **Bands.** FIFOs report one `fifo` band, banks `p0`..`p7`.
//!
//! [`WredQueue`] is wired into no scheme: it is §4.1's second deployment
//! path, kept as the differential reference for the first. It implements
//! [`QueueDisc`] but is not a [`Queue`] variant, so no port can hold it.

mod droptail;
mod priority;
mod red;
mod trimming;
mod wred;
mod xpass;

pub use droptail::DropTailQueue;
pub use priority::PriorityBank;
pub use red::RedEcnQueue;
pub use trimming::TrimmingQueue;
pub use wred::{Color, WredProfile, WredQueue};
pub use xpass::XPassQueue;

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use crate::pool::{PacketPool, PacketRef};
use crate::units::Time;

/// Why a packet was dropped at a queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum DropReason {
    /// The per-port buffer (or its packet cap) was full.
    BufferFull,
    /// The switch-wide shared buffer pool was exhausted.
    SharedBufferFull,
    /// Aeolus selective dropping: a droppable (Non-ECT) packet arrived while
    /// the queue exceeded the selective-dropping threshold.
    SelectiveDrop,
    /// ExpressPass credit throttling: the credit queue overflowed.
    CreditOverflow,
    /// Fault injection: random (FCS) corruption loss on a link. Never
    /// conflated with [`DropReason::SelectiveDrop`] — corruption happens on
    /// the wire, selective dropping in the buffer.
    Corruption,
    /// Fault injection: the packet was in flight (or about to serialize)
    /// when its link went down.
    LinkDown,
    /// Fault injection: the packet was queued at, in flight to, or about to
    /// leave a crashed node. Distinct from [`DropReason::LinkDown`] so node
    /// faults have their own taxonomy in the drop matrix.
    NodeDown,
    /// Fault injection: the packet died to an arbiter/controller outage —
    /// either at the dead arbiter itself or as a credit-source blackout kill
    /// for schemes without a centralized arbiter.
    ArbiterDown,
    /// Fault recovery: the packet belonged to an earlier incarnation of a
    /// flow that aborted and relaunched while it was in flight. Delivered
    /// stale credit/grant state would corrupt the restarted incarnation
    /// (e.g. a pre-crash cumulative Homa grant doubling the sender's
    /// budget), so the receiving host rejects it at the NIC.
    StaleIncarnation,
}

/// Result of offering a packet to a queue.
#[derive(Debug)]
pub enum EnqueueOutcome {
    /// Queued unchanged.
    Queued,
    /// Queued with the ECN CE mark applied.
    QueuedMarked,
    /// Payload trimmed (NDP cutting payload); the header was queued.
    QueuedTrimmed,
    /// Rejected; the handle is returned so the caller can account for the
    /// packet and recycle its pool slot.
    Dropped {
        /// Why it was dropped.
        reason: DropReason,
        /// Handle of the rejected packet (still live in the pool).
        pkt: PacketRef,
    },
}

/// Result of asking a queue for the next packet to serialize.
#[derive(Debug)]
pub enum Poll {
    /// A packet is ready now.
    Ready(PacketRef),
    /// A packet is queued but pacing forbids sending before this time.
    NotBefore(Time),
    /// Nothing queued.
    Empty,
}

/// An egress queue discipline.
///
/// Packets are identified by pool handles; disciplines read and mutate them
/// through the [`PacketPool`] the engine passes in. A discipline never frees
/// a slot — dropped packets are handed back via
/// [`EnqueueOutcome::Dropped`] and the engine recycles them after
/// accounting.
pub trait QueueDisc {
    /// Offer a packet to the queue at time `now`.
    fn enqueue(&mut self, pkt: PacketRef, pool: &mut PacketPool, now: Time) -> EnqueueOutcome;
    /// Ask for the next packet to transmit at time `now`.
    fn poll(&mut self, pool: &mut PacketPool, now: Time) -> Poll;
    /// Total bytes currently buffered.
    fn bytes(&self) -> u64;
    /// Total packets currently buffered.
    fn pkts(&self) -> usize;
    /// Append this discipline's internal occupancy bands (name, bytes) to
    /// `out` — priority levels, control vs data queues, credit queues, … —
    /// for telemetry sampling. Single-FIFO disciplines report one `"fifo"`
    /// band.
    fn bands(&self, out: &mut Vec<(&'static str, u64)>) {
        out.push(("fifo", self.bytes()));
    }
}

/// The discipline of one port, held inline in the [`crate::port::Port`]:
/// one variant per concrete type a scheme's queue factory builds, the
/// ExpressPass port once per data queue it wraps.
///
/// Each call is one `match` on the variant and a direct, inlinable call
/// into it; the variant is decided when the port is built and never
/// changes. Build one with `From` / `.into()` from the concrete discipline.
pub enum Queue {
    /// Plain drop-tail FIFO.
    DropTail(DropTailQueue),
    /// RED/ECN FIFO: selective dropping.
    RedEcn(RedEcnQueue),
    /// Strict-priority bank.
    Priority(PriorityBank),
    /// NDP cutting-payload queue.
    Trimming(TrimmingQueue),
    /// ExpressPass credit queue over a drop-tail FIFO.
    XPassDropTail(XPassQueue<DropTailQueue>),
    /// ExpressPass credit queue over a RED/ECN FIFO.
    XPassRedEcn(XPassQueue<RedEcnQueue>),
    /// ExpressPass credit queue over a priority bank.
    XPassPriority(XPassQueue<PriorityBank>),
    /// The oracle tests' selective-dropping queue with a planted bug.
    #[cfg(test)]
    BuggySpf(crate::oracle::planted::BuggySpfQueue),
}

/// `$body` with `$q` bound to the discipline inside `$queue`.
macro_rules! each_variant {
    ($queue:expr, $q:ident => $body:expr) => {
        match $queue {
            Queue::DropTail($q) => $body,
            Queue::RedEcn($q) => $body,
            Queue::Priority($q) => $body,
            Queue::Trimming($q) => $body,
            Queue::XPassDropTail($q) => $body,
            Queue::XPassRedEcn($q) => $body,
            Queue::XPassPriority($q) => $body,
            #[cfg(test)]
            Queue::BuggySpf($q) => $body,
        }
    };
}

macro_rules! queue_from {
    ($($variant:ident($disc:ty)),* $(,)?) => {$(
        impl From<$disc> for Queue {
            fn from(q: $disc) -> Queue {
                Queue::$variant(q)
            }
        }
    )*};
}

queue_from!(
    DropTail(DropTailQueue),
    RedEcn(RedEcnQueue),
    Priority(PriorityBank),
    Trimming(TrimmingQueue),
    XPassDropTail(XPassQueue<DropTailQueue>),
    XPassRedEcn(XPassQueue<RedEcnQueue>),
    XPassPriority(XPassQueue<PriorityBank>),
);

#[cfg(test)]
queue_from!(BuggySpf(crate::oracle::planted::BuggySpfQueue));

/// The [`QueueDisc`] methods, callable without the trait in scope.
impl Queue {
    /// See [`QueueDisc::enqueue`].
    #[inline]
    pub fn enqueue(&mut self, pkt: PacketRef, pool: &mut PacketPool, now: Time) -> EnqueueOutcome {
        each_variant!(self, q => q.enqueue(pkt, pool, now))
    }

    /// See [`QueueDisc::poll`].
    #[inline]
    pub fn poll(&mut self, pool: &mut PacketPool, now: Time) -> Poll {
        each_variant!(self, q => q.poll(pool, now))
    }

    /// See [`QueueDisc::bytes`].
    #[inline]
    pub fn bytes(&self) -> u64 {
        each_variant!(self, q => q.bytes())
    }

    /// See [`QueueDisc::pkts`].
    #[inline]
    pub fn pkts(&self) -> usize {
        each_variant!(self, q => q.pkts())
    }

    /// See [`QueueDisc::bands`].
    pub fn bands(&self, out: &mut Vec<(&'static str, u64)>) {
        each_variant!(self, q => q.bands(out))
    }
}

impl QueueDisc for Queue {
    #[inline]
    fn enqueue(&mut self, pkt: PacketRef, pool: &mut PacketPool, now: Time) -> EnqueueOutcome {
        Queue::enqueue(self, pkt, pool, now)
    }

    #[inline]
    fn poll(&mut self, pool: &mut PacketPool, now: Time) -> Poll {
        Queue::poll(self, pool, now)
    }

    #[inline]
    fn bytes(&self) -> u64 {
        Queue::bytes(self)
    }

    #[inline]
    fn pkts(&self) -> usize {
        Queue::pkts(self)
    }

    fn bands(&self, out: &mut Vec<(&'static str, u64)>) {
        Queue::bands(self, out)
    }
}

/// A switch-wide shared buffer pool (dynamic thresholding disabled — plain
/// complete sharing, as in the Table 5 incast experiment where unscheduled
/// packets in a low-priority queue starve the high-priority queue of buffer).
#[derive(Debug)]
pub struct SharedPool {
    cap: u64,
    used: u64,
}

/// Handle to a [`SharedPool`] shared by the port queues of one switch.
pub type PoolHandle = Rc<RefCell<SharedPool>>;

impl SharedPool {
    /// Create a pool with `cap` bytes shared by all ports.
    pub fn new(cap: u64) -> PoolHandle {
        Rc::new(RefCell::new(SharedPool { cap, used: 0 }))
    }

    /// Try to reserve `bytes`; returns false if the pool is exhausted.
    pub(crate) fn try_alloc(&mut self, bytes: u64) -> bool {
        if self.used + bytes > self.cap {
            false
        } else {
            self.used += bytes;
            true
        }
    }

    /// Release `bytes` back to the pool.
    pub fn free(&mut self, bytes: u64) {
        debug_assert!(self.used >= bytes, "freeing more than allocated");
        self.used = self.used.saturating_sub(bytes);
    }

    /// Bytes currently in use.
    pub fn used(&self) -> u64 {
        self.used
    }

    /// Pool capacity in bytes.
    pub fn cap(&self) -> u64 {
        self.cap
    }
}

/// FIFO of pooled packet handles with a running byte count — building block
/// for the disciplines in this module. The wire size is cached alongside
/// each handle (it is fixed once the packet is queued), so pops never touch
/// the pool.
#[derive(Debug, Default)]
pub(crate) struct ByteFifo {
    q: VecDeque<(PacketRef, u32)>,
    bytes: u64,
}

impl ByteFifo {
    pub fn new() -> ByteFifo {
        ByteFifo { q: VecDeque::new(), bytes: 0 }
    }

    #[inline]
    pub fn push(&mut self, pkt: PacketRef, size: u32) {
        self.bytes += size as u64;
        self.q.push_back((pkt, size));
    }

    #[inline]
    pub fn pop(&mut self) -> Option<(PacketRef, u32)> {
        let (pkt, size) = self.q.pop_front()?;
        self.bytes -= size as u64;
        Some((pkt, size))
    }

    #[inline]
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.q.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.q.is_empty()
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use crate::packet::{FlowId, NodeId, Packet, PacketKind, TrafficClass};
    use crate::pool::{PacketPool, PacketRef};

    /// A 1500 B data packet of the given class.
    pub fn data_pkt(class: TrafficClass, seq: u64) -> Packet {
        Packet::data(FlowId(1), NodeId(0), NodeId(1), seq, 1460, class, 1 << 20)
    }

    /// A minimum-size control packet.
    pub fn ctrl_pkt(kind: PacketKind, seq: u64) -> Packet {
        Packet::control(FlowId(1), NodeId(0), NodeId(1), seq, kind)
    }

    /// [`data_pkt`] inserted into `pool`.
    pub fn data_ref(pool: &mut PacketPool, class: TrafficClass, seq: u64) -> PacketRef {
        pool.insert(data_pkt(class, seq))
    }

    /// [`ctrl_pkt`] inserted into `pool`.
    pub fn ctrl_ref(pool: &mut PacketPool, kind: PacketKind, seq: u64) -> PacketRef {
        pool.insert(ctrl_pkt(kind, seq))
    }

    /// Conformance audit: drive `disc` with `ops` seeded random
    /// enqueue/drain operations and replay every outcome through a
    /// [`crate::CheckedTracer`] ledger exactly as the engine would. Any
    /// occupancy lie (leaked, double-counted, or silently discarded packet),
    /// illegal drop classification, or pool-slot leak panics with the
    /// violating event. Shared by the per-discipline conformance tests; the
    /// disciplines a port can hold are audited through [`super::Queue`], the
    /// way the engine drives them.
    pub fn oracle_audit<Q, F>(make: F, seed: u64, ops: usize)
    where
        Q: super::QueueDisc,
        F: Fn() -> Q,
    {
        use super::{EnqueueOutcome, Poll};
        use crate::oracle::{CheckedTracer, OracleProfile};
        use crate::packet::{Packet, PortId};
        use crate::rng::SimRng;
        use crate::telemetry::{QueueEvent, QueueRecord, TraceSink};
        use crate::units::Time;

        let mut disc = make();
        let mut pool = PacketPool::new();
        let mut oracle = CheckedTracer::with_profile(OracleProfile::universal());
        let mut rng = SimRng::seed_from_u64(seed);
        let mut now: Time = 0;
        let mut seq = 0u64;
        let node = NodeId(7);
        let port = PortId(3);

        let record = |disc: &Q,
                      at: Time,
                      ev: QueueEvent,
                      pkt: &Packet|
         -> QueueRecord {
            QueueRecord {
                at,
                node,
                port,
                ev,
                flow: pkt.flow,
                seq: pkt.seq,
                kind: pkt.kind,
                class: pkt.class,
                size: pkt.size,
                payload: pkt.payload,
                qlen_bytes: disc.bytes(),
                qlen_pkts: disc.pkts(),
            }
        };

        for _ in 0..ops {
            now += rng.below(2000);
            if rng.below(3) < 2 {
                // Enqueue a random packet: mixed classes, kinds, priorities
                // and payload sizes, like a shared egress sees.
                let mut pkt = match rng.below(6) {
                    0 => data_pkt(TrafficClass::Unscheduled, seq),
                    1 | 2 => data_pkt(TrafficClass::Scheduled, seq),
                    3 => ctrl_pkt(PacketKind::Ack { of_probe: false, end: seq }, seq),
                    4 => ctrl_pkt(PacketKind::Credit, seq),
                    _ => ctrl_pkt(PacketKind::Nack, seq),
                };
                if pkt.kind == PacketKind::Data {
                    let payload = rng.range_u64(1, 1461) as u32;
                    pkt.payload = payload;
                    pkt.size = payload + crate::packet::HEADER_BYTES;
                }
                pkt.priority = rng.below(8) as u8;
                seq += 1461;
                // `size` in the record is the pre-trim wire size; capture
                // the packet before the discipline may trim it.
                let shadow = pkt.clone();
                let r = pool.insert(pkt);
                match disc.enqueue(r, &mut pool, now) {
                    EnqueueOutcome::Queued => {
                        oracle.queue_event(&record(&disc, now, QueueEvent::Enqueue, &shadow));
                    }
                    EnqueueOutcome::QueuedMarked => {
                        oracle
                            .queue_event(&record(&disc, now, QueueEvent::EnqueueMarked, &shadow));
                    }
                    EnqueueOutcome::QueuedTrimmed => {
                        oracle
                            .queue_event(&record(&disc, now, QueueEvent::EnqueueTrimmed, &shadow));
                    }
                    EnqueueOutcome::Dropped { reason, pkt } => {
                        oracle.queue_event(&record(
                            &disc,
                            now,
                            QueueEvent::Drop(reason),
                            &shadow,
                        ));
                        pool.free(pkt);
                    }
                }
            } else {
                // Drain whatever is ready right now.
                loop {
                    match disc.poll(&mut pool, now) {
                        Poll::Ready(r) => {
                            let pkt = pool.get(r).clone();
                            oracle.queue_event(&record(&disc, now, QueueEvent::Dequeue, &pkt));
                            pool.free(r);
                        }
                        Poll::NotBefore(t) => {
                            assert!(t > now, "NotBefore({t}) must lie in the future of {now}");
                            break;
                        }
                        Poll::Empty => break,
                    }
                }
            }
        }
        // Drain to empty (advancing past any pacing gate) so the final
        // ledger and the pool agree: no pool slot may outlive the queue.
        let mut guard = 0;
        loop {
            match disc.poll(&mut pool, now) {
                Poll::Ready(r) => {
                    let pkt = pool.get(r).clone();
                    oracle.queue_event(&record(&disc, now, QueueEvent::Dequeue, &pkt));
                    pool.free(r);
                }
                Poll::NotBefore(t) => {
                    assert!(t > now, "NotBefore({t}) must lie in the future of {now}");
                    now = t;
                    guard += 1;
                    assert!(guard < 100_000, "pacing gate never opens");
                }
                Poll::Empty => break,
            }
        }
        assert_eq!(disc.bytes(), 0, "drained queue still reports bytes");
        assert_eq!(disc.pkts(), 0, "drained queue still reports packets");
        assert_eq!(pool.live(), 0, "discipline leaked {} pool slots", pool.live());
        assert!(oracle.signals().events_checked > 0);
    }
}

#[cfg(test)]
mod tests {
    use super::testutil::*;
    use super::*;
    use crate::packet::TrafficClass;

    #[test]
    fn shared_pool_alloc_and_free() {
        let pool = SharedPool::new(3000);
        assert!(pool.borrow_mut().try_alloc(1500));
        assert!(pool.borrow_mut().try_alloc(1500));
        assert!(!pool.borrow_mut().try_alloc(1));
        pool.borrow_mut().free(1500);
        assert!(pool.borrow_mut().try_alloc(1000));
        assert_eq!(pool.borrow().used(), 2500);
    }

    #[test]
    fn byte_fifo_tracks_bytes() {
        let mut pool = PacketPool::new();
        let mut f = ByteFifo::new();
        let a = data_ref(&mut pool, TrafficClass::Scheduled, 0);
        let b = data_ref(&mut pool, TrafficClass::Scheduled, 1460);
        f.push(a, pool.get(a).size);
        f.push(b, pool.get(b).size);
        assert_eq!(f.bytes(), 3000);
        assert_eq!(f.len(), 2);
        let (p, sz) = f.pop().unwrap();
        assert_eq!(pool.get(p).seq, 0);
        assert_eq!(sz, 1500);
        assert_eq!(f.bytes(), 1500);
        f.pop().unwrap();
        assert!(f.is_empty());
        assert_eq!(f.bytes(), 0);
    }
}
