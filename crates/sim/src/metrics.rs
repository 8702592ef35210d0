//! Run-wide metrics: flow completion, drops, efficiency, timeouts.
//!
//! Per-flow records live in a [`FlowMap`] (flat slab + hash index) because
//! `deliver` runs once per data packet — the hottest metrics call. Reports
//! need deterministic order, so [`Metrics::flows`] sorts by flow id at
//! read time; the hot path never pays for ordering it doesn't use.

use crate::flowmap::FlowMap;
use crate::packet::{FlowDesc, FlowId, NodeId, TrafficClass};
use crate::queues::DropReason;
use crate::units::Time;

/// Dense index of a [`DropReason`] (declaration = `Ord` order).
#[inline]
const fn reason_idx(r: DropReason) -> usize {
    match r {
        DropReason::BufferFull => 0,
        DropReason::SharedBufferFull => 1,
        DropReason::SelectiveDrop => 2,
        DropReason::CreditOverflow => 3,
        DropReason::Corruption => 4,
        DropReason::LinkDown => 5,
        DropReason::NodeDown => 6,
        DropReason::ArbiterDown => 7,
        DropReason::StaleIncarnation => 8,
    }
}
const N_REASONS: usize = 9;
const REASONS: [DropReason; N_REASONS] = [
    DropReason::BufferFull,
    DropReason::SharedBufferFull,
    DropReason::SelectiveDrop,
    DropReason::CreditOverflow,
    DropReason::Corruption,
    DropReason::LinkDown,
    DropReason::NodeDown,
    DropReason::ArbiterDown,
    DropReason::StaleIncarnation,
];

/// Dense index of a [`TrafficClass`] (declaration = `Ord` order).
#[inline]
const fn class_idx(c: TrafficClass) -> usize {
    match c {
        TrafficClass::Scheduled => 0,
        TrafficClass::Unscheduled => 1,
        TrafficClass::Control => 2,
    }
}
const N_CLASSES: usize = 3;
const CLASSES: [TrafficClass; N_CLASSES] = [
    TrafficClass::Scheduled,
    TrafficClass::Unscheduled,
    TrafficClass::Control,
];

/// Why a flow was aborted instead of completing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum AbortCause {
    /// The flow's source or destination host crashed mid-flow.
    NodeCrash,
    /// A centralized arbiter/controller outage made progress impossible.
    ArbiterOutage,
    /// The transport declared the peer dead after a silence threshold.
    PeerSilent,
}

impl AbortCause {
    /// Stable lowercase label (telemetry / reports).
    pub fn as_str(self) -> &'static str {
        match self {
            AbortCause::NodeCrash => "node-crash",
            AbortCause::ArbiterOutage => "arbiter-outage",
            AbortCause::PeerSilent => "peer-silent",
        }
    }
}

/// One end of a flow.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowEnd {
    /// The sending host, `FlowDesc::src`.
    Sender,
    /// The receiving host, `FlowDesc::dst`.
    Receiver,
}

/// Lifecycle record of one flow.
#[derive(Debug, Clone)]
pub struct FlowRecord {
    /// The flow as scheduled.
    pub desc: FlowDesc,
    /// When the last byte was delivered to the receiver, if completed.
    pub completed_at: Option<Time>,
    /// Unique payload bytes delivered so far (current incarnation).
    pub delivered: u64,
    /// Retransmission timeouts suffered by this flow.
    pub timeouts: u32,
    /// Payload bytes retransmitted for this flow.
    pub retransmitted: u64,
    /// How many times the flow was restarted after a crash/abort.
    pub restarts: u32,
    /// Set while the flow is aborted; cleared again by a restart.
    pub aborted: Option<AbortCause>,
    /// [`FlowRecord::is_done`] of each end, in [`FlowEnd`] order.
    done: [bool; 2],
}

impl FlowRecord {
    /// Flow completion time, if the flow finished.
    pub fn fct(&self) -> Option<Time> {
        self.completed_at.map(|t| t - self.desc.start)
    }

    /// Whether `end` is done with the flow ([`crate::Ctx::finish`]): its
    /// endpoint keeps no state of it and answers its stragglers from this
    /// bit and the size. A crash of the end's host clears it.
    pub fn is_done(&self, end: FlowEnd) -> bool {
        self.done[end as usize]
    }

    /// Whether the flow is aborted and `node` is one of its ends: the
    /// engine hands such a node none of the flow's packets and timers.
    pub(crate) fn aborted_at(&self, node: NodeId) -> bool {
        self.aborted.is_some() && (node == self.desc.src || node == self.desc.dst)
    }
}

/// Global counters and per-flow records for one simulation run.
#[derive(Debug, Default)]
pub struct Metrics {
    // Flat slab keyed by flow id; reports sort at read time so every
    // report built from this is still deterministic run-to-run.
    flows: FlowMap<FlowId, FlowRecord>,
    // Packet drops as a dense (reason x class) counter matrix — one add
    // per drop, no tree walk. Read through the typed accessors (`drops_of`,
    // `drops_by_reason`, `total_drops`, `drops`).
    drops: [[u64; N_CLASSES]; N_REASONS],
    /// Data payload bytes handed to NIC queues (first transmissions and
    /// retransmissions alike) — denominator of transfer efficiency.
    pub payload_sent: u64,
    /// Unique payload bytes delivered to receivers — the numerator.
    pub payload_delivered: u64,
    /// Packets trimmed by NDP-style switches.
    pub trimmed: u64,
    /// Completed flow count (cached).
    completed: usize,
    /// Currently-aborted flow count (cached; restarts decrement it).
    aborted: usize,
}

impl Metrics {
    /// Fresh, empty metrics.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Register a flow when its arrival is scheduled.
    pub fn flow_scheduled(&mut self, desc: FlowDesc) {
        let prev = self.flows.insert(
            desc.id,
            FlowRecord {
                desc,
                completed_at: None,
                delivered: 0,
                timeouts: 0,
                retransmitted: 0,
                restarts: 0,
                aborted: None,
                done: [false; 2],
            },
        );
        assert!(prev.is_none(), "duplicate flow id {:?}", desc.id);
    }

    /// Record `new_bytes` unique payload bytes delivered for `flow` at `now`;
    /// marks the flow complete when its full size has arrived. Returns true
    /// if this call completed the flow.
    pub fn deliver(&mut self, flow: FlowId, new_bytes: u64, now: Time) -> bool {
        let rec = self.flows.get_mut(flow).expect("deliver for unknown flow");
        if rec.aborted.is_some() {
            // Stale delivery racing an abort: the incarnation is dead, the
            // bytes don't count toward anything until a restart re-runs it.
            return false;
        }
        if rec.completed_at.is_some() {
            // Wire residue after completion: a crash can wipe the receiver's
            // book for an already-finished flow while the final ACK dies in
            // the purge, so the sender's RTO re-delivers bytes into a fresh
            // book. The record is terminal — don't double-count them.
            return false;
        }
        self.payload_delivered += new_bytes;
        rec.delivered += new_bytes;
        debug_assert!(rec.delivered <= rec.desc.size, "over-delivery on {flow:?}");
        if rec.delivered >= rec.desc.size {
            rec.completed_at = Some(now);
            self.completed += 1;
            return true;
        }
        false
    }

    /// Abort `flow` with `cause`; only `Network::abort_flow` calls this.
    /// Idempotent: a second abort (or an abort after completion) is a
    /// no-op. Returns true if the flow was newly aborted by this call.
    pub(crate) fn abort_flow(&mut self, flow: FlowId, cause: AbortCause) -> bool {
        let Some(rec) = self.flows.get_mut(flow) else { return false };
        if rec.completed_at.is_some() || rec.aborted.is_some() {
            return false;
        }
        rec.aborted = Some(cause);
        self.aborted += 1;
        true
    }

    /// Restart a previously-aborted `flow`: clear the abort, forget the dead
    /// incarnation's delivered bytes (the relaunch must re-deliver the full
    /// payload), and count the restart. No-op if the flow is not aborted.
    pub(crate) fn restart_flow(&mut self, flow: FlowId) {
        let Some(rec) = self.flows.get_mut(flow) else { return };
        if rec.aborted.take().is_none() {
            return;
        }
        self.aborted -= 1;
        self.payload_delivered -= rec.delivered;
        rec.delivered = 0;
        rec.restarts += 1;
    }

    /// `end` of `flow` is done with it ([`FlowRecord::is_done`]).
    pub(crate) fn finish(&mut self, flow: FlowId, end: FlowEnd) {
        if let Some(rec) = self.flows.get_mut(flow) {
            rec.done[end as usize] = true;
        }
    }

    /// `host` crashed, its endpoint rebuilt: none of its ends is done.
    pub fn forget_done(&mut self, host: NodeId) {
        for (_, rec) in self.flows.iter_mut() {
            let FlowDesc { src, dst, .. } = rec.desc;
            rec.done = [rec.done[0] && src != host, rec.done[1] && dst != host];
        }
    }

    /// Record a retransmission timeout on `flow`.
    pub fn note_timeout(&mut self, flow: FlowId) {
        if let Some(rec) = self.flows.get_mut(flow) {
            rec.timeouts += 1;
        }
    }

    /// Record retransmitted payload bytes for `flow`.
    pub(crate) fn note_retransmit(&mut self, flow: FlowId, bytes: u64) {
        if let Some(rec) = self.flows.get_mut(flow) {
            rec.retransmitted += bytes;
        }
    }

    /// Record a drop.
    #[inline]
    pub(crate) fn note_drop(&mut self, reason: DropReason, class: TrafficClass) {
        self.drops[reason_idx(reason)][class_idx(class)] += 1;
    }

    /// Drops of one (reason, class) cell.
    pub fn drops_of(&self, reason: DropReason, class: TrafficClass) -> u64 {
        self.drops[reason_idx(reason)][class_idx(class)]
    }

    /// Total drops for a reason across classes.
    pub fn drops_by_reason(&self, reason: DropReason) -> u64 {
        self.drops[reason_idx(reason)].iter().sum()
    }

    /// Total drops across all reasons and classes.
    pub fn total_drops(&self) -> u64 {
        self.drops.iter().flatten().sum()
    }

    /// Iterate the touched drop cells in deterministic (reason, class)
    /// order (declaration order of both enums, matching their `Ord`).
    pub fn drops(&self) -> impl Iterator<Item = ((DropReason, TrafficClass), u64)> + '_ {
        REASONS.iter().flat_map(move |&r| {
            CLASSES
                .iter()
                .map(move |&c| ((r, c), self.drops[reason_idx(r)][class_idx(c)]))
                .filter(|&(_, v)| v != 0)
        })
    }

    /// Look up a flow record.
    pub fn flow(&self, id: FlowId) -> Option<&FlowRecord> {
        self.flows.get(id)
    }

    /// Iterate all flow records in flow-id order (sorts at call time —
    /// reports pay for ordering, the per-packet path does not).
    pub fn flows(&self) -> impl Iterator<Item = &FlowRecord> {
        let mut v: Vec<&FlowRecord> = self.flows.values().collect();
        v.sort_unstable_by_key(|r| r.desc.id);
        v.into_iter()
    }

    /// Number of flows registered.
    pub fn flow_count(&self) -> usize {
        self.flows.len()
    }

    /// Number of completed flows.
    pub fn completed_count(&self) -> usize {
        self.completed
    }

    /// Whether every registered flow has completed.
    pub(crate) fn all_complete(&self) -> bool {
        self.completed == self.flows.len()
    }

    /// Number of currently-aborted flows.
    pub fn aborted_count(&self) -> usize {
        self.aborted
    }

    /// Whether every registered flow has settled: completed or aborted with
    /// a cause. This is the "never hung" liveness predicate — a run may end
    /// with aborted flows, but not with silently-stuck ones.
    pub fn all_settled(&self) -> bool {
        self.completed + self.aborted == self.flows.len()
    }

    /// Transfer efficiency: unique delivered payload over payload sent
    /// (Table 1 / Table 4 metric). 1.0 when nothing was sent.
    pub fn transfer_efficiency(&self) -> f64 {
        if self.payload_sent == 0 {
            1.0
        } else {
            self.payload_delivered as f64 / self.payload_sent as f64
        }
    }

    /// Number of flows that suffered at least one timeout (Figure 13 metric).
    pub fn flows_with_timeouts(&self) -> usize {
        self.flows.values().filter(|r| r.timeouts > 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn desc(id: u64, size: u64) -> FlowDesc {
        FlowDesc { id: FlowId(id), src: NodeId(0), dst: NodeId(1), size, start: 100 }
    }

    #[test]
    fn delivery_completes_flow_and_computes_fct() {
        let mut m = Metrics::new();
        m.flow_scheduled(desc(1, 3000));
        assert!(!m.deliver(FlowId(1), 1500, 200));
        assert!(m.deliver(FlowId(1), 1500, 400));
        let rec = m.flow(FlowId(1)).unwrap();
        assert_eq!(rec.fct(), Some(300));
        assert!(m.all_complete());
        assert_eq!(m.completed_count(), 1);
    }

    #[test]
    fn transfer_efficiency_counts_unique_over_sent() {
        let mut m = Metrics::new();
        m.flow_scheduled(desc(1, 3000));
        m.payload_sent = 6000; // one full duplicate
        m.deliver(FlowId(1), 3000, 10);
        assert!((m.transfer_efficiency() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn timeout_bookkeeping() {
        let mut m = Metrics::new();
        m.flow_scheduled(desc(1, 10));
        m.flow_scheduled(desc(2, 10));
        m.note_timeout(FlowId(1));
        m.note_timeout(FlowId(1));
        assert_eq!(m.flows_with_timeouts(), 1);
        assert_eq!(m.flow(FlowId(1)).unwrap().timeouts, 2);
    }

    #[test]
    fn drop_counters_sliced_both_ways() {
        let mut m = Metrics::new();
        m.note_drop(DropReason::SelectiveDrop, TrafficClass::Unscheduled);
        m.note_drop(DropReason::SelectiveDrop, TrafficClass::Unscheduled);
        m.note_drop(DropReason::BufferFull, TrafficClass::Scheduled);
        assert_eq!(m.drops_by_reason(DropReason::SelectiveDrop), 2);
        assert_eq!(m.drops_of(DropReason::SelectiveDrop, TrafficClass::Unscheduled), 2);
        assert_eq!(m.drops_of(DropReason::BufferFull, TrafficClass::Unscheduled), 0);
        assert_eq!(m.total_drops(), 3);
        let cells: Vec<_> = m.drops().collect();
        assert_eq!(cells.len(), 2, "two distinct (reason, class) cells");
    }

    #[test]
    fn abort_and_restart_rewind_delivery_accounting() {
        let mut m = Metrics::new();
        m.flow_scheduled(desc(1, 3000));
        m.deliver(FlowId(1), 1500, 200);
        assert!(m.abort_flow(FlowId(1), AbortCause::NodeCrash));
        assert!(!m.abort_flow(FlowId(1), AbortCause::PeerSilent), "double abort is a no-op");
        assert!(m.all_settled());
        assert!(!m.all_complete());
        assert_eq!(m.aborted_count(), 1);
        // Deliveries racing the abort don't count.
        assert!(!m.deliver(FlowId(1), 1500, 300));
        assert_eq!(m.payload_delivered, 1500);
        m.restart_flow(FlowId(1));
        assert_eq!(m.payload_delivered, 0, "dead incarnation's bytes forgotten");
        assert_eq!(m.aborted_count(), 0);
        assert!(!m.all_settled());
        // The relaunch re-delivers the full payload and completes normally.
        assert!(m.deliver(FlowId(1), 3000, 900));
        let rec = m.flow(FlowId(1)).unwrap();
        assert_eq!(rec.restarts, 1);
        assert_eq!(rec.aborted, None);
        assert_eq!(rec.fct(), Some(800));
        assert!(m.all_complete() && m.all_settled());
    }

    #[test]
    fn abort_after_completion_is_rejected() {
        let mut m = Metrics::new();
        m.flow_scheduled(desc(1, 100));
        m.deliver(FlowId(1), 100, 50);
        assert!(!m.abort_flow(FlowId(1), AbortCause::NodeCrash));
        assert_eq!(m.aborted_count(), 0);
    }

    #[test]
    #[should_panic(expected = "duplicate flow id")]
    fn duplicate_flow_ids_rejected() {
        let mut m = Metrics::new();
        m.flow_scheduled(desc(1, 10));
        m.flow_scheduled(desc(1, 10));
    }
}
