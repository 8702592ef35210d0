//! WRED (weighted RED) with packet colors — the paper's *first* switch
//! implementation option for selective dropping (§4.1).
//!
//! Commodity chips (Broadcom Trident/Tomahawk) support three packet colors
//! with independent drop thresholds in one queue. Aeolus marks scheduled and
//! unscheduled packets with different DSCP values; an ACL maps DSCP to
//! color; the *red* color (unscheduled) gets the tiny selective-dropping
//! threshold while *green* (scheduled) gets the full buffer.
//!
//! This module models that pipeline: a color classifier (here: the packet's
//! [`TrafficClass`], standing in for the DSCP→color ACL) plus per-color
//! thresholds. With the paper's configuration it makes byte-for-byte the
//! same drop decisions as the RED/ECN re-interpretation
//! ([`super::RedEcnQueue`]) — a unit test asserts the equivalence.

use super::{ByteFifo, DropReason, EnqueueOutcome, Poll, QueueDisc};
use crate::packet::{Packet, TrafficClass};
use crate::pool::{PacketPool, PacketRef};
use crate::units::Time;

/// Packet colors in the switch pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Color {
    /// Committed traffic — highest drop threshold.
    Green,
    /// Excess but tolerated traffic.
    Yellow,
    /// Drop-first traffic.
    Red,
}

/// Per-color WRED drop thresholds (min = max, as Aeolus configures).
#[derive(Debug, Clone, Copy)]
pub struct WredProfile {
    /// Drop threshold for green packets (bytes).
    pub green: u64,
    /// Drop threshold for yellow packets (bytes).
    pub yellow: u64,
    /// Drop threshold for red packets (bytes).
    pub red: u64,
}

impl WredProfile {
    /// The Aeolus §4.1 configuration: red (unscheduled) at the selective
    /// threshold, green (scheduled) at the full buffer, yellow unused in
    /// between.
    pub fn aeolus(selective_threshold: u64, buffer: u64) -> WredProfile {
        WredProfile { green: buffer, yellow: buffer, red: selective_threshold }
    }
}

/// Single FIFO with per-color drop thresholds.
pub struct WredQueue {
    fifo: ByteFifo,
    profile: WredProfile,
    /// Physical buffer cap.
    cap_bytes: u64,
}

/// The DSCP→color ACL stage: the Aeolus marking rule, unscheduled = red,
/// everything else = green.
fn aeolus_acl(pkt: &Packet) -> Color {
    match pkt.class {
        TrafficClass::Unscheduled => Color::Red,
        TrafficClass::Scheduled | TrafficClass::Control => Color::Green,
    }
}

impl WredQueue {
    /// A WRED queue with the given profile and physical cap, using the
    /// Aeolus DSCP→color mapping.
    pub fn new(profile: WredProfile, cap_bytes: u64) -> WredQueue {
        WredQueue { fifo: ByteFifo::new(), profile, cap_bytes }
    }

    fn threshold_for(&self, color: Color) -> u64 {
        match color {
            Color::Green => self.profile.green,
            Color::Yellow => self.profile.yellow,
            Color::Red => self.profile.red,
        }
    }
}

impl QueueDisc for WredQueue {
    fn enqueue(&mut self, pkt: PacketRef, pool: &mut PacketPool, _now: Time) -> EnqueueOutcome {
        let sz = pool.get(pkt).size;
        if self.fifo.bytes() + sz as u64 > self.cap_bytes {
            return EnqueueOutcome::Dropped { reason: DropReason::BufferFull, pkt };
        }
        let color = aeolus_acl(pool.get(pkt));
        if self.fifo.bytes() >= self.threshold_for(color) {
            return EnqueueOutcome::Dropped { reason: DropReason::SelectiveDrop, pkt };
        }
        self.fifo.push(pkt, sz);
        EnqueueOutcome::Queued
    }

    fn poll(&mut self, _pool: &mut PacketPool, _now: Time) -> Poll {
        match self.fifo.pop() {
            Some((pkt, _)) => Poll::Ready(pkt),
            None => Poll::Empty,
        }
    }

    fn bytes(&self) -> u64 {
        self.fifo.bytes()
    }

    fn pkts(&self) -> usize {
        self.fifo.len()
    }
}

#[cfg(test)]
mod tests {
    use super::super::testutil::{ctrl_ref, data_ref};
    use super::super::RedEcnQueue;
    use super::*;
    use crate::packet::{FlowId, NodeId, PacketKind};

    fn queue() -> WredQueue {
        WredQueue::new(WredProfile::aeolus(6_000, 200_000), 200_000)
    }

    /// An unscheduled data packet whose wire size is exactly `size` bytes.
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
    fn red_color_dropped_above_selective_threshold() {
        let mut pool = PacketPool::new();
        let mut q = queue();
        for i in 0..4 {
            let r = data_ref(&mut pool, TrafficClass::Unscheduled, i);
            assert!(matches!(q.enqueue(r, &mut pool, 0), EnqueueOutcome::Queued));
        }
        let r = data_ref(&mut pool, TrafficClass::Unscheduled, 4);
        assert!(matches!(
            q.enqueue(r, &mut pool, 0),
            EnqueueOutcome::Dropped { reason: DropReason::SelectiveDrop, .. }
        ));
        // Green packets still pass.
        let g = data_ref(&mut pool, TrafficClass::Scheduled, 5);
        assert!(matches!(q.enqueue(g, &mut pool, 0), EnqueueOutcome::Queued));
        let c = ctrl_ref(&mut pool, PacketKind::Probe, 6);
        assert!(matches!(q.enqueue(c, &mut pool, 0), EnqueueOutcome::Queued));
    }

    #[test]
    fn wred_and_red_ecn_make_identical_drop_decisions() {
        // The paper's two §4.1 implementations must agree packet-for-packet
        // under the same arrival sequence.
        let mut pool = PacketPool::new();
        let mut wred = queue();
        let mut red = RedEcnQueue::new(6_000, 200_000);
        // A deterministic pseudo-random mix of classes and dequeues.
        let mut x = 12345u64;
        for i in 0..2_000u64 {
            x = x.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let class = if x.is_multiple_of(3) { TrafficClass::Scheduled } else { TrafficClass::Unscheduled };
            let wr = data_ref(&mut pool, class, i);
            let wred_drop = match wred.enqueue(wr, &mut pool, 0) {
                EnqueueOutcome::Dropped { pkt, .. } => {
                    pool.free(pkt);
                    true
                }
                _ => false,
            };
            let rr = data_ref(&mut pool, class, i);
            let red_drop = match red.enqueue(rr, &mut pool, 0) {
                EnqueueOutcome::Dropped { pkt, .. } => {
                    pool.free(pkt);
                    true
                }
                _ => false,
            };
            assert_eq!(wred_drop, red_drop, "divergence at packet {i} ({class:?})");
            if x % 5 < 2 {
                let a = match wred.poll(&mut pool, 0) {
                    Poll::Ready(p) => {
                        pool.free(p);
                        true
                    }
                    _ => false,
                };
                let b = match red.poll(&mut pool, 0) {
                    Poll::Ready(p) => {
                        pool.free(p);
                        true
                    }
                    _ => false,
                };
                assert_eq!(a, b);
            }
            assert_eq!(wred.bytes(), red.bytes(), "occupancy divergence at {i}");
        }
    }

    #[test]
    fn physical_cap_binds_green_too() {
        let mut pool = PacketPool::new();
        let mut q = WredQueue::new(WredProfile::aeolus(6_000, 7_500), 7_500);
        for i in 0..5 {
            let r = data_ref(&mut pool, TrafficClass::Scheduled, i);
            q.enqueue(r, &mut pool, 0);
        }
        let r = data_ref(&mut pool, TrafficClass::Scheduled, 5);
        assert!(matches!(
            q.enqueue(r, &mut pool, 0),
            EnqueueOutcome::Dropped { reason: DropReason::BufferFull, .. }
        ));
    }

    // §4.1 boundary semantics — same pre-enqueue-occupancy rule as
    // RedEcnQueue, pinned here so the two implementations can't drift.

    #[test]
    fn occupancy_exactly_at_threshold_drops_red_color() {
        let mut pool = PacketPool::new();
        let mut q = WredQueue::new(WredProfile::aeolus(6_000, 200_000), 200_000);
        for i in 0..4 {
            let r = sized_ref(&mut pool, 1500, i);
            assert!(matches!(q.enqueue(r, &mut pool, 0), EnqueueOutcome::Queued));
        }
        assert_eq!(q.bytes(), 6_000);
        let r = sized_ref(&mut pool, 64, 100);
        assert!(matches!(
            q.enqueue(r, &mut pool, 0),
            EnqueueOutcome::Dropped { reason: DropReason::SelectiveDrop, .. }
        ));
    }

    #[test]
    fn occupancy_one_byte_below_threshold_admits() {
        let mut pool = PacketPool::new();
        let mut q = WredQueue::new(WredProfile::aeolus(6_000, 200_000), 200_000);
        for i in 0..3 {
            q.enqueue(sized_ref(&mut pool, 1500, i), &mut pool, 0);
        }
        q.enqueue(sized_ref(&mut pool, 1499, 3), &mut pool, 0);
        assert_eq!(q.bytes(), 5_999);
        let r = sized_ref(&mut pool, 64, 100);
        assert!(matches!(q.enqueue(r, &mut pool, 0), EnqueueOutcome::Queued));
    }

    #[test]
    fn mtu_packet_at_k_minus_one_overshoots_threshold() {
        let mut pool = PacketPool::new();
        let mut q = WredQueue::new(WredProfile::aeolus(6_000, 200_000), 200_000);
        for i in 0..3 {
            q.enqueue(sized_ref(&mut pool, 1500, i), &mut pool, 0);
        }
        q.enqueue(sized_ref(&mut pool, 1499, 3), &mut pool, 0);
        assert_eq!(q.bytes(), 5_999);
        let r = sized_ref(&mut pool, 1500, 100);
        assert!(matches!(q.enqueue(r, &mut pool, 0), EnqueueOutcome::Queued));
        assert_eq!(q.bytes(), 7_499);
        let r2 = sized_ref(&mut pool, 64, 101);
        assert!(matches!(
            q.enqueue(r2, &mut pool, 0),
            EnqueueOutcome::Dropped { reason: DropReason::SelectiveDrop, .. }
        ));
    }

    #[test]
    fn conforms_to_oracle_ledger_under_seeded_churn() {
        for seed in 0..8 {
            crate::queues::testutil::oracle_audit(
                || WredQueue::new(WredProfile::aeolus(3_000, 9_000), 9_000),
                seed,
                600,
            );
        }
    }
}
