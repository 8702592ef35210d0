//! Online conformance oracle: a [`Tracer`] that cross-checks every engine
//! event against independent models and panics at the first violation.
//!
//! The scattered end-of-run assertions (`tests/invariants.rs`, transport
//! tests) can only observe a violation after it has laundered itself into
//! final metrics. The [`CheckedTracer`] instead rides the statically
//! dispatched tracer seam — the default [`crate::NullTracer`] build still
//! compiles every hook away — and maintains *online* models:
//!
//! - **Clock monotonicity**: no hook may observe time running backwards.
//! - **Queue occupancy ledgers**: an independent byte/packet ledger per
//!   egress queue, replayed from enqueue/trim/dequeue/drop events and
//!   compared to the occupancy each discipline reports. Catches disciplines
//!   that leak, double-count, or silently discard packets.
//! - **Drop legality** (Aeolus §3.1): selective dropping may only ever
//!   remove *unscheduled* packets — a `SelectiveDrop` of a scheduled or
//!   control packet is the paper's cardinal sin. `CreditOverflow` may only
//!   hit credit packets (ExpressPass §4).
//! - **Transmitter causality**: a port may not start serializing a packet
//!   before the previous one has left at the registered link rate (FIFO
//!   ordering of the wire itself).
//! - **Per-flow byte conservation**: the network may lose payload but never
//!   mint it — delivered bytes can never exceed launched bytes.
//! - **Credit conservation** (ExpressPass): a sender can never have consumed
//!   more credit than receivers issued for the flow.
//! - **One-burst budget** (Aeolus §3.1): at most one pre-credit unscheduled
//!   burst per flow, its sent bytes within the declared budget, and every
//!   first-transmission unscheduled byte accounted against that budget.
//! - **Retransmission pairing** (Aeolus §3.3): a sender retransmits at most
//!   the bytes it has declared lost — a double retransmission trips the
//!   oracle at the second `Retransmit` event.
//!
//! The protocol-level checks are gated by an [`OracleProfile`] because not
//! every scheme emits every event family (e.g. DCTCP issues no credits);
//! the engine-level checks are unconditional.
//!
//! Violations panic with a `conformance violation [check] …` message that
//! carries the event, flow and port context, so a failing run points at the
//! first bad event instead of a corrupted figure three layers later.
//!
//! The ledgers are dense so the oracle runs near engine speed: port models
//! sit in a `[node][port]` table (node and port ids are indices into
//! `Network::nodes` and a node's ports) and flow models in a [`FlowMap`].
//! Every hook does one lookup.

use crate::flowmap::FlowMap;
use crate::metrics::Metrics;
use crate::packet::{FlowId, NodeId, PacketKind, PortId, TrafficClass, MIN_PACKET_BYTES};
use crate::queues::DropReason;
use crate::rangeset::RangeSet;
use crate::telemetry::{
    class_str, kind_str, FaultEvent, HostEvent, QueueEvent, QueueRecord, TraceSink, Tracer,
    TransportEvent,
};
use crate::units::{Rate, Time};

/// Which protocol-level invariant families the oracle enforces.
///
/// Engine-level checks (monotonicity, queue ledgers, drop legality,
/// transmitter causality, byte conservation) are always on; these flags gate
/// the checks that depend on a scheme actually emitting the corresponding
/// [`TransportEvent`] families with the expected discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OracleProfile {
    /// Credit receipts may never exceed credit issues per flow.
    pub credit_conservation: bool,
    /// At most one unscheduled burst per flow, bounded by its declared
    /// budget (the one-BDP rule).
    pub burst_budget: bool,
    /// Cumulative retransmitted bytes may never exceed cumulative
    /// loss-detected bytes per flow.
    pub retransmit_pairing: bool,
}

impl Default for OracleProfile {
    fn default() -> OracleProfile {
        OracleProfile { credit_conservation: true, burst_budget: true, retransmit_pairing: true }
    }
}

impl OracleProfile {
    /// Only the unconditional engine-level checks; every protocol-level
    /// family off. The safe choice for hand-built endpoints that emit no
    /// transport events.
    pub fn universal() -> OracleProfile {
        OracleProfile { credit_conservation: false, burst_budget: false, retransmit_pairing: false }
    }
}

/// Independent occupancy model of one egress queue.
#[derive(Debug, Default)]
struct PortModel {
    rate: Option<Rate>,
    bytes: u64,
    pkts: usize,
    /// High-water marks of the ledger — behavioral signals for the guided
    /// fuzzer's novelty signature (see [`OracleSignals`]).
    max_bytes: u64,
    max_pkts: usize,
    /// Earliest time the next serialization may start (base link rate, so a
    /// lower bound under degraded-link fault windows).
    busy_until: Time,
}

/// Dense index of a [`crate::telemetry::LossCause`] for the signal counters.
#[inline]
const fn cause_idx(c: crate::telemetry::LossCause) -> usize {
    match c {
        crate::telemetry::LossCause::Probe => 0,
        crate::telemetry::LossCause::SackGap => 1,
        crate::telemetry::LossCause::Timeout => 2,
        crate::telemetry::LossCause::Nack => 3,
        crate::telemetry::LossCause::Stall => 4,
        crate::telemetry::LossCause::LastResort => 5,
    }
}

/// Stable labels of the [`crate::telemetry::LossCause`] variants, in
/// declaration order: the order of the oracle's per-cause counters.
pub const LOSS_CAUSE_LABELS: [&str; 6] =
    ["probe", "sack-gap", "timeout", "nack", "stall", "last-resort"];

/// Behavioral signals the oracle accumulates as a side effect of checking —
/// the raw material for the guided fuzzer's novelty signature. Everything
/// here is a deterministic function of the (deterministic) event stream, so
/// identical runs produce identical signals regardless of worker count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OracleSignals {
    /// Events the oracle checked.
    pub events_checked: u64,
    /// Deepest queue-ledger occupancy seen on any port, in bytes.
    pub max_queue_bytes: u64,
    /// Deepest queue-ledger occupancy seen on any port, in packets.
    pub max_queue_pkts: usize,
    /// Retransmit events per [`crate::telemetry::LossCause`]
    /// (order of [`LOSS_CAUSE_LABELS`]).
    pub retransmits_by_cause: [u64; 6],
    /// Check proximity: how close any burst came to its budget, in percent
    /// (100 = a burst exactly filled its declared budget).
    pub burst_fill_pct: u32,
    /// Check proximity: max per-flow credit consumption over issuance, in
    /// percent (100 = every issued credit byte was consumed).
    pub credit_fill_pct: u32,
    /// Check proximity: max per-flow retransmitted-over-detected bytes, in
    /// percent (100 = the retransmit-pairing boundary).
    pub retransmit_fill_pct: u32,
}

/// Per-flow protocol ledgers.
#[derive(Debug, Default)]
struct FlowModel {
    launched: u64,
    delivered_raw: u64,
    delivered: RangeSet,
    issued: u64,
    receipts: u64,
    detected: u64,
    retransmitted: u64,
    bursts: u32,
    burst_open: bool,
    burst_budget: u64,
    burst_total: u64,
    unsched_launched: u64,
    /// Set by `FlowAborted`, cleared by `FlowRestarted`: a flow the oracle
    /// saw aborted may never be marked complete without a restart first.
    aborted: bool,
}

/// The conformance oracle. Install in place of a recording tracer (e.g. via
/// `SchemeBuilder::build_checked` in `aeolus-transport`, or
/// [`crate::Network::with_tracer`] directly); every violating event panics
/// immediately with full context.
#[derive(Debug)]
pub struct CheckedTracer {
    profile: OracleProfile,
    now: Time,
    events: u64,
    /// Queue ledgers indexed `[node][port]`, grown on first sight.
    ports: Vec<Vec<PortModel>>,
    flows: FlowMap<FlowId, FlowModel>,
    /// Run-wide behavioral signals (port maxima folded in by `signals()`).
    sig: OracleSignals,
}

impl Default for CheckedTracer {
    fn default() -> CheckedTracer {
        CheckedTracer::new()
    }
}

impl CheckedTracer {
    /// An oracle with every check enabled (the default profile).
    pub fn new() -> CheckedTracer {
        CheckedTracer::with_profile(OracleProfile::default())
    }

    /// An oracle with an explicit protocol-check profile.
    pub fn with_profile(profile: OracleProfile) -> CheckedTracer {
        CheckedTracer {
            profile,
            now: 0,
            events: 0,
            ports: Vec::new(),
            flows: FlowMap::new(),
            sig: OracleSignals::default(),
        }
    }

    /// The active profile.
    pub fn profile(&self) -> OracleProfile {
        self.profile
    }

    /// Number of events the oracle has checked so far.
    pub fn events_checked(&self) -> u64 {
        self.events
    }

    /// The behavioral signals accumulated while checking: queue-depth
    /// extremes, retransmit-cause mix and how close the run came to each
    /// protocol-check boundary. Deterministic per run; the guided fuzzer
    /// folds these into its novelty signature.
    pub fn signals(&self) -> OracleSignals {
        let mut s = self.sig;
        s.events_checked = self.events;
        for pm in self.ports.iter().flatten() {
            s.max_queue_bytes = s.max_queue_bytes.max(pm.max_bytes);
            s.max_queue_pkts = s.max_queue_pkts.max(pm.max_pkts);
        }
        s
    }

    /// End-of-run check: every flow the metrics claim complete must have had
    /// its full byte range actually delivered through the network (as seen
    /// by the delivery hook), i.e. app-level completion cannot outrun
    /// wire-level delivery.
    ///
    /// # Panics
    /// Panics with a `conformance violation` message on the first flow whose
    /// delivered coverage falls short of its size.
    pub fn assert_flows_complete(&self, metrics: &Metrics) {
        for r in metrics.flows() {
            if r.completed_at.is_none() {
                continue;
            }
            if r.aborted.is_some() {
                self.fail(
                    "abort-completion",
                    format!(
                        "flow={} carries both a completion time and an abort cause ({:?})",
                        r.desc.id.0, r.aborted
                    ),
                );
            }
            let fm = self.flows.get(r.desc.id);
            if fm.is_some_and(|f| f.aborted) {
                self.fail(
                    "abort-completion",
                    format!(
                        "flow={} marked complete after the oracle saw it aborted with no restart",
                        r.desc.id.0
                    ),
                );
            }
            let covered = fm.map(|f| f.delivered.covered_in(0, r.desc.size)).unwrap_or(0);
            if covered != r.desc.size {
                self.fail(
                    "delivery-coverage",
                    format!(
                        "flow={} marked complete but the network delivered only {covered} of {} \
                         bytes",
                        r.desc.id.0, r.desc.size
                    ),
                );
            }
        }
    }

    #[cold]
    #[inline(never)]
    fn fail(&self, check: &str, msg: String) -> ! {
        panic!(
            "conformance violation [{check}] at {} ps (event #{}): {msg}",
            self.now, self.events
        );
    }

    /// Advance the oracle clock; time must never run backwards.
    fn see(&mut self, at: Time) {
        self.events += 1;
        if at < self.now {
            let now = self.now;
            self.fail("clock", format!("event at {at} ps after the clock reached {now} ps"));
        }
        self.now = at;
    }

    fn flow_mut(&mut self, flow: FlowId) -> &mut FlowModel {
        self.flows.get_or_insert_with(flow, FlowModel::default)
    }

    /// The ledger of `(node, port)`, created on first sight (a registration,
    /// or a hook on a port that was never registered).
    ///
    /// The test and the indexing sit on one path with no call between
    /// them, so the index is bounds-checked once.
    #[inline]
    fn port_mut(&mut self, node: NodeId, port: PortId) -> &mut PortModel {
        let (n, p) = (node.0 as usize, port.0 as usize);
        if self.ports.get(n).is_some_and(|row| p < row.len()) {
            return &mut self.ports[n][p];
        }
        self.grow_ports(n, p)
    }

    #[cold]
    #[inline(never)]
    fn grow_ports(&mut self, n: usize, p: usize) -> &mut PortModel {
        if n >= self.ports.len() {
            self.ports.resize_with(n + 1, Vec::new);
        }
        let row = &mut self.ports[n];
        if p >= row.len() {
            row.resize_with(p + 1, PortModel::default);
        }
        &mut row[p]
    }
}

impl TraceSink for CheckedTracer {
    fn port_registered(&mut self, node: NodeId, port: PortId, rate: Rate, _to: NodeId) {
        self.port_mut(node, port).rate = Some(rate);
    }

    fn queue_event(&mut self, rec: &QueueRecord) {
        self.see(rec.at);
        // Drop legality first: these depend only on the record itself.
        if let QueueEvent::Drop(reason) = rec.ev {
            match reason {
                DropReason::SelectiveDrop if rec.class != TrafficClass::Unscheduled => {
                    self.fail(
                        "drop-class",
                        format!(
                            "selective drop of protected {} packet flow={} seq={} at node={} \
                             port={}",
                            class_str(rec.class),
                            rec.flow.0,
                            rec.seq,
                            rec.node.0,
                            rec.port.0
                        ),
                    );
                }
                DropReason::CreditOverflow if rec.kind != PacketKind::Credit => {
                    self.fail(
                        "drop-class",
                        format!(
                            "credit-overflow drop of non-credit {} packet flow={} seq={} at \
                             node={} port={}",
                            kind_str(rec.kind),
                            rec.flow.0,
                            rec.seq,
                            rec.node.0,
                            rec.port.0
                        ),
                    );
                }
                _ => {}
            }
        }
        let pm = self.port_mut(rec.node, rec.port);
        match rec.ev {
            QueueEvent::Enqueue | QueueEvent::EnqueueMarked => {
                pm.bytes += rec.size as u64;
                pm.pkts += 1;
                pm.max_bytes = pm.max_bytes.max(pm.bytes);
                pm.max_pkts = pm.max_pkts.max(pm.pkts);
            }
            QueueEvent::EnqueueTrimmed => {
                // `rec.size` is the pre-trim wire size; the queue holds the
                // trimmed header.
                pm.bytes += MIN_PACKET_BYTES as u64;
                pm.pkts += 1;
                pm.max_bytes = pm.max_bytes.max(pm.bytes);
                pm.max_pkts = pm.max_pkts.max(pm.pkts);
            }
            QueueEvent::Dequeue => {
                if pm.pkts == 0 || pm.bytes < rec.size as u64 {
                    let (b, p) = (pm.bytes, pm.pkts);
                    self.fail(
                        "queue-ledger",
                        format!(
                            "dequeue of {} bytes (flow={} seq={}) from node={} port={} which the \
                             ledger holds at {b} bytes / {p} pkts",
                            rec.size, rec.flow.0, rec.seq, rec.node.0, rec.port.0
                        ),
                    );
                }
                pm.bytes -= rec.size as u64;
                pm.pkts -= 1;
            }
            QueueEvent::Drop(_) => {}
        }
        if pm.bytes != rec.qlen_bytes || pm.pkts != rec.qlen_pkts {
            let (b, p) = (pm.bytes, pm.pkts);
            self.fail(
                "queue-ledger",
                format!(
                    "node={} port={} reports {} bytes / {} pkts after {:?} of flow={} seq={}, \
                     ledger says {b} bytes / {p} pkts",
                    rec.node.0, rec.port.0, rec.qlen_bytes, rec.qlen_pkts, rec.ev, rec.flow.0,
                    rec.seq
                ),
            );
        }
    }

    fn link_tx(&mut self, at: Time, node: NodeId, port: PortId, wire_bytes: u64) {
        self.see(at);
        let pm = self.port_mut(node, port);
        if let Some(rate) = pm.rate {
            if at < pm.busy_until {
                let busy = pm.busy_until;
                self.fail(
                    "tx-causality",
                    format!(
                        "node={} port={} starts serializing {wire_bytes} bytes at {at} ps while \
                         the previous packet occupies the wire until {busy} ps",
                        node.0, port.0
                    ),
                );
            }
            pm.busy_until = at + rate.serialize(wire_bytes);
        }
    }

    fn packet_launched(&mut self, ev: &HostEvent) {
        self.see(ev.at);
        let burst_check = self.profile.burst_budget;
        let fm = self.flow_mut(ev.flow);
        fm.launched += ev.payload;
        if ev.class == TrafficClass::Unscheduled && !ev.retransmit {
            fm.unsched_launched += ev.payload;
            if burst_check && fm.unsched_launched > fm.burst_total {
                let (sent, budget) = (fm.unsched_launched, fm.burst_total);
                self.fail(
                    "burst-budget",
                    format!(
                        "flow={} launched {sent} unscheduled first-transmission bytes against a \
                         declared burst budget of {budget} (seq={})",
                        ev.flow.0, ev.seq
                    ),
                );
            }
        }
    }

    fn packet_delivered(&mut self, ev: &HostEvent) {
        self.see(ev.at);
        let fm = self.flow_mut(ev.flow);
        fm.delivered_raw += ev.payload;
        fm.delivered.insert(ev.seq, ev.seq + ev.payload);
        if fm.delivered_raw > fm.launched {
            let (d, l) = (fm.delivered_raw, fm.launched);
            self.fail(
                "byte-conservation",
                format!(
                    "flow={} delivered {d} payload bytes but only {l} were launched (seq={}): the \
                     network cannot create payload",
                    ev.flow.0, ev.seq
                ),
            );
        }
    }

    fn transport_event(&mut self, at: Time, host: NodeId, ev: &TransportEvent) {
        self.see(at);
        let profile = self.profile;
        match *ev {
            TransportEvent::CreditIssue { flow, bytes } => {
                self.flow_mut(flow).issued += bytes;
            }
            TransportEvent::CreditReceipt { flow, bytes } => {
                let fm = self.flow_mut(flow);
                fm.receipts += bytes;
                let (r, i) = (fm.receipts, fm.issued);
                if i > 0 {
                    let fill = (r.saturating_mul(100) / i).min(400) as u32;
                    self.sig.credit_fill_pct = self.sig.credit_fill_pct.max(fill);
                }
                if profile.credit_conservation && r > i {
                    self.fail(
                        "credit-conservation",
                        format!(
                            "flow={} consumed {r} credit bytes at host={} but only {i} were \
                             issued",
                            flow.0, host.0
                        ),
                    );
                }
            }
            TransportEvent::BurstStart { flow, bytes } => {
                let fm = self.flow_mut(flow);
                fm.bursts += 1;
                let (bursts, was_open) = (fm.bursts, fm.burst_open);
                fm.burst_open = true;
                fm.burst_budget = bytes;
                fm.burst_total += bytes;
                if profile.burst_budget && (was_open || bursts > 1) {
                    self.fail(
                        "burst-budget",
                        format!(
                            "flow={} opened unscheduled burst #{bursts} at host={}: at most one \
                             pre-credit burst is allowed",
                            flow.0, host.0
                        ),
                    );
                }
            }
            TransportEvent::BurstStop { flow, sent } => {
                let fm = self.flow_mut(flow);
                let (budget, was_open) = (fm.burst_budget, fm.burst_open);
                fm.burst_open = false;
                if budget > 0 {
                    let fill = (sent.saturating_mul(100) / budget).min(400) as u32;
                    self.sig.burst_fill_pct = self.sig.burst_fill_pct.max(fill);
                }
                if profile.burst_budget {
                    if !was_open {
                        self.fail(
                            "burst-budget",
                            format!("flow={} stopped a burst that never started (host={})", flow.0, host.0),
                        );
                    }
                    if sent > budget {
                        self.fail(
                            "burst-budget",
                            format!(
                                "flow={} burst sent {sent} bytes over its {budget}-byte budget \
                                 (host={})",
                                flow.0, host.0
                            ),
                        );
                    }
                }
            }
            TransportEvent::LossDetected { flow, bytes, .. } => {
                self.flow_mut(flow).detected += bytes;
            }
            TransportEvent::Retransmit { flow, bytes, cause } => {
                self.sig.retransmits_by_cause[cause_idx(cause)] += 1;
                // Last-resort retransmission (Aeolus §3.3) is definitionally
                // speculative: it resends unACKed first-RTT bytes with no
                // preceding detection event, so it stays off this ledger.
                if cause == crate::telemetry::LossCause::LastResort {
                    return;
                }
                let fm = self.flow_mut(flow);
                fm.retransmitted += bytes;
                let (r, d) = (fm.retransmitted, fm.detected);
                if d > 0 {
                    let fill = (r.saturating_mul(100) / d).min(400) as u32;
                    self.sig.retransmit_fill_pct = self.sig.retransmit_fill_pct.max(fill);
                }
                if profile.retransmit_pairing && r > d {
                    self.fail(
                        "retransmit-pairing",
                        format!(
                            "flow={} retransmitted {r} bytes ({cause:?}) at host={} but only {d} \
                             were declared lost",
                            flow.0, host.0
                        ),
                    );
                }
            }
        }
    }

    fn fault_event(&mut self, at: Time, ev: &FaultEvent) {
        // Wire kills happen post-dequeue (and crash purges emit their own
        // dequeue records), so the queue ledgers are already balanced; the
        // clock always advances, and flow lifecycle events drive the
        // recovery invariants.
        self.see(at);
        match *ev {
            FaultEvent::FlowAborted { flow, .. } => {
                self.flow_mut(flow).aborted = true;
            }
            FaultEvent::FlowRestarted { flow } => {
                let fm = self.flow_mut(flow);
                fm.aborted = false;
                // The restarted incarnation must re-deliver its full byte
                // range (exactly-once after restart) and gets a fresh
                // one-burst allowance. Launch, credit and retransmission
                // ledgers stay cumulative across incarnations — a restart
                // still cannot mint payload or credit.
                fm.delivered = RangeSet::default();
                fm.bursts = 0;
                fm.burst_open = false;
                fm.burst_budget = 0;
                fm.burst_total = 0;
                fm.unsched_launched = 0;
            }
            _ => {}
        }
    }
}

impl Tracer for CheckedTracer {
    const ENABLED: bool = true;
    /// No check reads band occupancy: a band sample only repeated the clock
    /// check of the queue event it follows, at the same instant.
    const BANDS: bool = false;
}

/// Disciplines with planted bugs, for the oracle's own tests.
#[cfg(test)]
pub(crate) mod planted {
    use crate::pool::{PacketPool, PacketRef};
    use crate::queues::{DropReason, DropTailQueue, EnqueueOutcome, Poll, QueueDisc};
    use crate::units::Time;

    /// A selective-dropping queue with the planted Aeolus bug: the SPF
    /// threshold is applied to *every* packet, scheduled ones included. A
    /// port holds it through its own test-only [`crate::queues::Queue`]
    /// variant.
    pub struct BuggySpfQueue {
        pub(crate) inner: DropTailQueue,
        pub(crate) threshold: u64,
    }

    impl QueueDisc for BuggySpfQueue {
        fn enqueue(&mut self, pkt: PacketRef, pool: &mut PacketPool, now: Time) -> EnqueueOutcome {
            if self.inner.bytes() >= self.threshold {
                // BUG: no `droppable()` check before the selective drop.
                return EnqueueOutcome::Dropped { reason: DropReason::SelectiveDrop, pkt };
            }
            self.inner.enqueue(pkt, pool, now)
        }
        fn poll(&mut self, pool: &mut PacketPool, now: Time) -> Poll {
            self.inner.poll(pool, now)
        }
        fn bytes(&self) -> u64 {
            self.inner.bytes()
        }
        fn pkts(&self) -> usize {
            self.inner.pkts()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::planted::BuggySpfQueue;
    use super::*;
    use crate::endpoint::{Ctx, Endpoint};
    use crate::network::Network;
    use crate::packet::{FlowDesc, Packet, PacketKind};
    use crate::queues::DropTailQueue;
    use crate::routing::RoutePolicy;
    use crate::telemetry::LossCause;
    use crate::units::us;

    fn rec(ev: QueueEvent, size: u32, qlen_bytes: u64, qlen_pkts: usize) -> QueueRecord {
        QueueRecord {
            at: 100,
            node: NodeId(0),
            port: PortId(0),
            ev,
            flow: FlowId(1),
            seq: 0,
            kind: PacketKind::Data,
            class: TrafficClass::Unscheduled,
            size,
            payload: size - 40,
            qlen_bytes,
            qlen_pkts,
        }
    }

    #[test]
    fn clean_queue_sequence_passes() {
        let mut t = CheckedTracer::new();
        t.queue_event(&rec(QueueEvent::Enqueue, 1500, 1500, 1));
        t.queue_event(&rec(QueueEvent::Enqueue, 1500, 3000, 2));
        t.queue_event(&rec(QueueEvent::Dequeue, 1500, 1500, 1));
        t.queue_event(&rec(QueueEvent::Drop(DropReason::BufferFull), 1500, 1500, 1));
        t.queue_event(&rec(QueueEvent::Dequeue, 1500, 0, 0));
        assert_eq!(t.events_checked(), 5);
    }

    /// The dense ledgers: ports registered out of `(node, port)` order, a
    /// port nobody registered and two flow ids far apart each get their own
    /// entry, and `signals()` folds in every port's high-water mark. Fails if
    /// a ledger is keyed by node or port alone, if a hook on an unregistered
    /// port borrows a registered port's rate, if flows share a ledger, or if
    /// `signals()` skips a node's ports.
    #[test]
    fn dense_ledgers_keep_every_port_and_flow_apart() {
        let mut t = CheckedTracer::new();
        t.port_registered(NodeId(3), PortId(2), Rate::gbps(10), NodeId(0));
        t.port_registered(NodeId(0), PortId(1), Rate::gbps(40), NodeId(3));
        let at = |mut r: QueueRecord, at: Time, node: u32, port: u16| {
            (r.at, r.node, r.port) = (at, NodeId(node), PortId(port));
            r
        };
        // Never registered: its ledger is created on first sight, rate-less.
        t.queue_event(&at(rec(QueueEvent::Enqueue, 1500, 1500, 1), 100, 5, 7));
        t.queue_event(&at(rec(QueueEvent::Enqueue, 1500, 3000, 2), 101, 5, 7));
        t.queue_event(&at(rec(QueueEvent::Enqueue, 9000, 9000, 1), 102, 0, 1));
        t.queue_event(&at(rec(QueueEvent::Dequeue, 9000, 0, 0), 103, 0, 1));
        // 1500 B at 10 Gbps hold the wire for 1.2 us; the rate-less port
        // checks no causality.
        t.link_tx(104, NodeId(3), PortId(2), 1500);
        t.link_tx(104, NodeId(5), PortId(7), 1500);
        let (a, b) = (FlowId(1), FlowId(1 << 40));
        t.transport_event(105, NodeId(0), &TransportEvent::CreditIssue { flow: a, bytes: 1000 });
        t.transport_event(106, NodeId(0), &TransportEvent::CreditIssue { flow: b, bytes: 4000 });
        // Over-consumption if `b` read `a`'s ledger.
        t.transport_event(107, NodeId(3), &TransportEvent::CreditReceipt { flow: b, bytes: 3000 });

        let ledger = |n: usize, p: usize| {
            let pm = &t.ports[n][p];
            (pm.rate, pm.bytes, pm.pkts, pm.max_bytes, pm.max_pkts, pm.busy_until)
        };
        assert_eq!(ledger(3, 2), (Some(Rate::gbps(10)), 0, 0, 0, 0, 104 + 1_200_000));
        assert_eq!(ledger(0, 1), (Some(Rate::gbps(40)), 0, 0, 9000, 1, 0));
        assert_eq!(ledger(5, 7), (None, 3000, 2, 3000, 2, 0));
        let touched = [(0, 1), (3, 2), (5, 7)];
        for (n, row) in t.ports.iter().enumerate() {
            for (p, pm) in row.iter().enumerate() {
                if !touched.contains(&(n, p)) {
                    assert_eq!((pm.rate, pm.max_bytes, pm.busy_until), (None, 0, 0), "[{n}][{p}]");
                }
            }
        }
        assert_eq!(t.flows.len(), 2);
        let credit = |f| t.flows.get(f).map(|m: &FlowModel| (m.issued, m.receipts));
        assert_eq!(credit(a), Some((1000, 0)));
        assert_eq!(credit(b), Some((4000, 3000)));
        let sig = t.signals();
        assert_eq!((sig.max_queue_bytes, sig.max_queue_pkts), (9000, 2));
        assert_eq!(sig.credit_fill_pct, 75);
        assert_eq!(sig.events_checked, 9);
    }

    #[test]
    #[should_panic(expected = "conformance violation [queue-ledger]")]
    fn occupancy_mismatch_is_caught() {
        let mut t = CheckedTracer::new();
        t.queue_event(&rec(QueueEvent::Enqueue, 1500, 1500, 1));
        // The queue claims 1500 bytes after a second enqueue: it lost one.
        t.queue_event(&rec(QueueEvent::Enqueue, 1500, 1500, 1));
    }

    #[test]
    #[should_panic(expected = "conformance violation [queue-ledger]")]
    fn phantom_dequeue_is_caught() {
        let mut t = CheckedTracer::new();
        t.queue_event(&rec(QueueEvent::Dequeue, 1500, 0, 0));
    }

    #[test]
    fn trimmed_enqueue_adds_header_bytes_only() {
        let mut t = CheckedTracer::new();
        t.queue_event(&rec(QueueEvent::EnqueueTrimmed, 1500, MIN_PACKET_BYTES as u64, 1));
        t.queue_event(&rec(QueueEvent::Dequeue, MIN_PACKET_BYTES, 0, 0));
    }

    #[test]
    #[should_panic(expected = "conformance violation [drop-class]")]
    fn selective_drop_of_scheduled_is_caught() {
        let mut t = CheckedTracer::new();
        let mut r = rec(QueueEvent::Drop(DropReason::SelectiveDrop), 1500, 0, 0);
        r.class = TrafficClass::Scheduled;
        t.queue_event(&r);
    }

    #[test]
    #[should_panic(expected = "conformance violation [drop-class]")]
    fn credit_overflow_of_data_is_caught() {
        let mut t = CheckedTracer::new();
        let r = rec(QueueEvent::Drop(DropReason::CreditOverflow), 1500, 0, 0);
        t.queue_event(&r);
    }

    #[test]
    fn selective_drop_of_unscheduled_is_legal() {
        let mut t = CheckedTracer::new();
        t.queue_event(&rec(QueueEvent::Drop(DropReason::SelectiveDrop), 1500, 0, 0));
    }

    #[test]
    #[should_panic(expected = "conformance violation [clock]")]
    fn backwards_clock_is_caught() {
        let mut t = CheckedTracer::new();
        t.link_tx(100, NodeId(0), PortId(0), 1500);
        t.link_tx(99, NodeId(0), PortId(0), 1500);
    }

    #[test]
    #[should_panic(expected = "conformance violation [tx-causality]")]
    fn overlapping_serializations_are_caught() {
        let mut t = CheckedTracer::new();
        t.port_registered(NodeId(0), PortId(0), Rate::gbps(10), NodeId(1));
        t.link_tx(0, NodeId(0), PortId(0), 1500);
        // 1500 B at 10 Gbps occupies 1200 ns; a transmit at 100 ns overlaps.
        t.link_tx(100_000, NodeId(0), PortId(0), 1500);
    }

    fn host_ev(at: Time, class: TrafficClass, seq: u64, payload: u64, retx: bool) -> HostEvent {
        HostEvent { at, flow: FlowId(1), seq, class, payload, retransmit: retx }
    }

    #[test]
    #[should_panic(expected = "conformance violation [byte-conservation]")]
    fn delivery_exceeding_launches_is_caught() {
        let mut t = CheckedTracer::new();
        t.packet_launched(&host_ev(0, TrafficClass::Scheduled, 0, 1460, false));
        t.packet_delivered(&host_ev(1, TrafficClass::Scheduled, 0, 1460, false));
        t.packet_delivered(&host_ev(2, TrafficClass::Scheduled, 0, 1460, false));
    }

    #[test]
    #[should_panic(expected = "conformance violation [credit-conservation]")]
    fn credit_over_consumption_is_caught() {
        let mut t = CheckedTracer::new();
        let f = FlowId(3);
        t.transport_event(0, NodeId(1), &TransportEvent::CreditIssue { flow: f, bytes: 1460 });
        t.transport_event(1, NodeId(0), &TransportEvent::CreditReceipt { flow: f, bytes: 1460 });
        t.transport_event(2, NodeId(0), &TransportEvent::CreditReceipt { flow: f, bytes: 1460 });
    }

    #[test]
    #[should_panic(expected = "conformance violation [retransmit-pairing]")]
    fn double_retransmission_is_caught() {
        let mut t = CheckedTracer::new();
        let f = FlowId(2);
        let cause = LossCause::Timeout;
        t.transport_event(0, NodeId(0), &TransportEvent::LossDetected { flow: f, bytes: 1460, cause });
        t.transport_event(1, NodeId(0), &TransportEvent::Retransmit { flow: f, bytes: 1460, cause });
        // The loss was already repaired: retransmitting it again violates
        // the exactly-once recovery rule.
        t.transport_event(2, NodeId(0), &TransportEvent::Retransmit { flow: f, bytes: 1460, cause });
    }

    #[test]
    #[should_panic(expected = "conformance violation [burst-budget]")]
    fn burst_overshoot_is_caught() {
        let mut t = CheckedTracer::new();
        let f = FlowId(1);
        t.transport_event(0, NodeId(0), &TransportEvent::BurstStart { flow: f, bytes: 15_000 });
        t.transport_event(1, NodeId(0), &TransportEvent::BurstStop { flow: f, sent: 15_001 });
    }

    #[test]
    #[should_panic(expected = "conformance violation [burst-budget]")]
    fn second_burst_is_caught() {
        let mut t = CheckedTracer::new();
        let f = FlowId(1);
        t.transport_event(0, NodeId(0), &TransportEvent::BurstStart { flow: f, bytes: 15_000 });
        t.transport_event(1, NodeId(0), &TransportEvent::BurstStop { flow: f, sent: 15_000 });
        t.transport_event(2, NodeId(0), &TransportEvent::BurstStart { flow: f, bytes: 15_000 });
    }

    #[test]
    #[should_panic(expected = "conformance violation [burst-budget]")]
    fn unscheduled_launch_without_budget_is_caught() {
        let mut t = CheckedTracer::new();
        t.packet_launched(&host_ev(0, TrafficClass::Unscheduled, 0, 1460, false));
    }

    #[test]
    fn profile_gating_disables_protocol_checks() {
        let mut t = CheckedTracer::with_profile(OracleProfile::universal());
        // All three protocol families violated; none enforced.
        t.packet_launched(&host_ev(0, TrafficClass::Unscheduled, 0, 1460, false));
        let f = FlowId(1);
        let cause = LossCause::Timeout;
        t.transport_event(1, NodeId(0), &TransportEvent::CreditReceipt { flow: f, bytes: 99 });
        t.transport_event(2, NodeId(0), &TransportEvent::Retransmit { flow: f, bytes: 99, cause });
        t.transport_event(3, NodeId(0), &TransportEvent::BurstStop { flow: f, sent: 99 });
    }

    #[test]
    #[should_panic(expected = "conformance violation [delivery-coverage]")]
    fn completion_without_delivery_is_caught() {
        let t = CheckedTracer::new();
        let mut m = Metrics::new();
        let desc =
            FlowDesc { id: FlowId(1), src: NodeId(0), dst: NodeId(1), size: 1000, start: 0 };
        m.flow_scheduled(desc);
        // The metrics claim completion, but the oracle saw no delivery.
        m.deliver(FlowId(1), 1000, 50);
        t.assert_flows_complete(&m);
    }

    #[test]
    fn restart_resets_burst_and_coverage_ledgers() {
        use crate::metrics::AbortCause;
        let mut t = CheckedTracer::new();
        let f = FlowId(1);
        t.transport_event(0, NodeId(0), &TransportEvent::BurstStart { flow: f, bytes: 15_000 });
        t.packet_launched(&host_ev(1, TrafficClass::Unscheduled, 0, 1460, false));
        t.transport_event(2, NodeId(0), &TransportEvent::BurstStop { flow: f, sent: 1460 });
        t.fault_event(3, &FaultEvent::FlowAborted { flow: f, cause: AbortCause::NodeCrash });
        t.fault_event(4, &FaultEvent::FlowRestarted { flow: f });
        // The relaunched incarnation opens its own pre-credit burst and
        // re-sends its unscheduled bytes — both would trip the budget
        // checks if the restart did not reset the per-incarnation ledgers.
        t.transport_event(5, NodeId(0), &TransportEvent::BurstStart { flow: f, bytes: 15_000 });
        t.packet_launched(&host_ev(6, TrafficClass::Unscheduled, 0, 1460, false));
        t.transport_event(7, NodeId(0), &TransportEvent::BurstStop { flow: f, sent: 1460 });
    }

    #[test]
    #[should_panic(expected = "conformance violation [burst-budget]")]
    fn abort_without_restart_keeps_burst_budget_armed() {
        use crate::metrics::AbortCause;
        let mut t = CheckedTracer::new();
        let f = FlowId(1);
        t.transport_event(0, NodeId(0), &TransportEvent::BurstStart { flow: f, bytes: 15_000 });
        t.transport_event(1, NodeId(0), &TransportEvent::BurstStop { flow: f, sent: 1460 });
        t.fault_event(2, &FaultEvent::FlowAborted { flow: f, cause: AbortCause::PeerSilent });
        // No restart: a second burst is still the cardinal sin.
        t.transport_event(3, NodeId(0), &TransportEvent::BurstStart { flow: f, bytes: 15_000 });
    }

    #[test]
    #[should_panic(expected = "conformance violation [abort-completion]")]
    fn completion_of_aborted_flow_is_caught() {
        use crate::metrics::AbortCause;
        let mut t = CheckedTracer::new();
        let mut m = Metrics::new();
        let desc =
            FlowDesc { id: FlowId(1), src: NodeId(0), dst: NodeId(1), size: 1000, start: 0 };
        m.flow_scheduled(desc);
        t.packet_launched(&host_ev(0, TrafficClass::Scheduled, 0, 1000, false));
        t.packet_delivered(&host_ev(1, TrafficClass::Scheduled, 0, 1000, false));
        m.deliver(FlowId(1), 1000, 50);
        // The oracle saw the flow abort after the metrics completed it and
        // no restart followed: completion and abort cannot coexist.
        t.fault_event(60, &FaultEvent::FlowAborted { flow: FlowId(1), cause: AbortCause::NodeCrash });
        t.assert_flows_complete(&m);
    }

    #[test]
    fn restart_requires_fresh_full_coverage() {
        use crate::metrics::AbortCause;
        let t_covered = {
            let mut t = CheckedTracer::new();
            t.packet_launched(&host_ev(0, TrafficClass::Scheduled, 0, 1000, false));
            t.packet_delivered(&host_ev(1, TrafficClass::Scheduled, 0, 1000, false));
            t.fault_event(2, &FaultEvent::FlowAborted { flow: FlowId(1), cause: AbortCause::NodeCrash });
            t.fault_event(3, &FaultEvent::FlowRestarted { flow: FlowId(1) });
            // Pre-abort coverage was wiped: only fresh delivery counts.
            t.packet_launched(&host_ev(4, TrafficClass::Scheduled, 0, 1000, false));
            t.packet_delivered(&host_ev(5, TrafficClass::Scheduled, 0, 1000, false));
            t
        };
        let mut m = Metrics::new();
        let desc =
            FlowDesc { id: FlowId(1), src: NodeId(0), dst: NodeId(1), size: 1000, start: 0 };
        m.flow_scheduled(desc);
        m.deliver(FlowId(1), 1000, 50);
        t_covered.assert_flows_complete(&m);
    }

    /// Sends the whole flow as scheduled data at line rate.
    struct Blaster;

    impl Endpoint for Blaster {
        fn on_flow_arrival(&mut self, flow: FlowDesc, ctx: &mut Ctx<'_>) {
            let mut off = 0u64;
            while off < flow.size {
                let chunk = 1460.min(flow.size - off) as u32;
                ctx.send(Packet::data(
                    flow.id,
                    flow.src,
                    flow.dst,
                    off,
                    chunk,
                    TrafficClass::Scheduled,
                    flow.size,
                ));
                off += chunk as u64;
            }
        }
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
            if pkt.is_data() {
                ctx.metrics.deliver(pkt.flow, pkt.payload as u64, ctx.now);
            }
        }
        fn on_timer(&mut self, _timer: crate::Timer, _ctx: &mut Ctx<'_>) {}
    }

    /// The planted-bug mutation check from the issue: a switch applying the
    /// SPF threshold to scheduled packets runs silently under plain metrics,
    /// but the oracle panics at the first violating drop with flow and port
    /// context.
    #[test]
    #[should_panic(expected = "conformance violation [drop-class]")]
    fn planted_spf_bug_trips_the_oracle_in_a_full_run() {
        let mut net = Network::with_tracer(CheckedTracer::with_profile(OracleProfile::universal()));
        let sw = net.add_switch(RoutePolicy::EcmpHash, 1, 0);
        let h0 = net.add_host(0);
        let h1 = net.add_host(0);
        let rate = Rate::gbps(10);
        let good = || DropTailQueue::new(1 << 30);
        let buggy = BuggySpfQueue { inner: DropTailQueue::new(1 << 30), threshold: 3000 };
        // 4:1 oversubscription into the buggy egress so its queue builds
        // past the SPF threshold.
        net.connect(h0, sw, Rate::gbps(40), us(1), good());
        net.connect(h1, sw, rate, us(1), good());
        let p0 = net.connect(sw, h0, rate, us(1), good());
        let p1 = net.connect(sw, h1, rate, us(1), buggy);
        net.add_route(sw, h0, p0);
        net.add_route(sw, h1, p1);
        net.set_endpoint(h0, Box::new(Blaster));
        net.set_endpoint(h1, Box::new(Blaster));
        net.schedule_flow(FlowDesc { id: FlowId(1), src: h0, dst: h1, size: 50_000, start: 0 });
        net.run_to_completion(us(10_000));
    }

    /// Sanity: the same topology without the planted bug runs clean under
    /// the full oracle and the end-of-run coverage check passes.
    #[test]
    fn clean_run_passes_the_full_oracle() {
        let mut net = Network::with_tracer(CheckedTracer::with_profile(OracleProfile::universal()));
        let sw = net.add_switch(RoutePolicy::EcmpHash, 1, 0);
        let h0 = net.add_host(0);
        let h1 = net.add_host(0);
        let rate = Rate::gbps(10);
        let q = || DropTailQueue::new(1 << 30);
        net.connect(h0, sw, rate, us(1), q());
        net.connect(h1, sw, rate, us(1), q());
        let p0 = net.connect(sw, h0, rate, us(1), q());
        let p1 = net.connect(sw, h1, rate, us(1), q());
        net.add_route(sw, h0, p0);
        net.add_route(sw, h1, p1);
        net.set_endpoint(h0, Box::new(Blaster));
        net.set_endpoint(h1, Box::new(Blaster));
        net.schedule_flow(FlowDesc { id: FlowId(1), src: h0, dst: h1, size: 50_000, start: 0 });
        assert!(net.run_to_completion(us(10_000)));
        assert!(net.tracer().events_checked() > 100);
        let (tracer, metrics) = (net.tracer(), &net.metrics);
        tracer.assert_flows_complete(metrics);
        // Checking leaves behavioral signals behind: the queue maxima track
        // the ledger and events_checked matches the counter.
        let sig = net.tracer().signals();
        assert_eq!(sig.events_checked, net.tracer().events_checked());
        assert!(sig.max_queue_bytes > 0 && sig.max_queue_pkts > 0);
    }

    /// Counts the hooks the engine calls, by kind, and hands each to the
    /// oracle. `BANDS` is the band gate the spy declares to the engine.
    #[derive(Default)]
    struct Spy<const BANDS: bool> {
        oracle: CheckedTracer,
        registrations: u64,
        bands: u64,
        /// Every other hook: the ones the oracle checks.
        checked: u64,
    }

    impl<const BANDS: bool> TraceSink for Spy<BANDS> {
        fn port_registered(&mut self, node: NodeId, port: PortId, rate: Rate, to: NodeId) {
            self.registrations += 1;
            self.oracle.port_registered(node, port, rate, to);
        }
        fn queue_event(&mut self, rec: &QueueRecord) {
            self.checked += 1;
            self.oracle.queue_event(rec);
        }
        fn queue_bands(&mut self, at: Time, node: NodeId, port: PortId, bands: &[(&'static str, u64)]) {
            self.bands += 1;
            self.oracle.queue_bands(at, node, port, bands);
        }
        fn link_tx(&mut self, at: Time, node: NodeId, port: PortId, wire_bytes: u64) {
            self.checked += 1;
            self.oracle.link_tx(at, node, port, wire_bytes);
        }
        fn packet_launched(&mut self, ev: &HostEvent) {
            self.checked += 1;
            self.oracle.packet_launched(ev);
        }
        fn packet_delivered(&mut self, ev: &HostEvent) {
            self.checked += 1;
            self.oracle.packet_delivered(ev);
        }
        fn transport_event(&mut self, at: Time, host: NodeId, ev: &TransportEvent) {
            self.checked += 1;
            self.oracle.transport_event(at, host, ev);
        }
        fn fault_event(&mut self, at: Time, ev: &FaultEvent) {
            self.checked += 1;
            self.oracle.fault_event(at, ev);
        }
    }

    impl<const BANDS: bool> Tracer for Spy<BANDS> {
        const ENABLED: bool = true;
        const BANDS: bool = BANDS;
    }

    /// A 50 KB flow across one switch under `tracer`, run to completion.
    fn blaster_run<T: Tracer>(tracer: T) -> Network<T> {
        let mut net = Network::with_tracer(tracer);
        let sw = net.add_switch(RoutePolicy::EcmpHash, 1, 0);
        let h0 = net.add_host(0);
        let h1 = net.add_host(0);
        let rate = Rate::gbps(10);
        let q = || DropTailQueue::new(1 << 30);
        net.connect(h0, sw, rate, us(1), q());
        net.connect(h1, sw, rate, us(1), q());
        let p0 = net.connect(sw, h0, rate, us(1), q());
        let p1 = net.connect(sw, h1, rate, us(1), q());
        net.add_route(sw, h0, p0);
        net.add_route(sw, h1, p1);
        net.set_endpoint(h0, Box::new(Blaster));
        net.set_endpoint(h1, Box::new(Blaster));
        net.schedule_flow(FlowDesc { id: FlowId(1), src: h0, dst: h1, size: 50_000, start: 0 });
        assert!(net.run_to_completion(us(10_000)));
        net
    }

    /// The oracle opts out of band samples: the engine never sends it one,
    /// and the oracle still checks every other hook exactly once. Run beside
    /// a spy that asks for bands, the hook calls differ by exactly the band
    /// samples. Fails if `CheckedTracer::BANDS` is on, if the engine ignores
    /// the gate, or if a band sample counts as a checked event.
    #[test]
    fn the_oracle_is_never_sent_band_samples() {
        let off = blaster_run(Spy::<{ <CheckedTracer as Tracer>::BANDS }>::default());
        let on = blaster_run(Spy::<true>::default());
        let (off, on) = (off.tracer(), on.tracer());
        assert_eq!(off.bands, 0, "a CheckedTracer run was sent band samples");
        assert!(on.bands > 0, "a tracer that reads bands is sent them");
        assert_eq!((off.registrations, off.checked), (on.registrations, on.checked));
        let calls = on.registrations + on.bands + on.checked;
        assert_eq!(off.oracle.events_checked(), calls - on.bands - on.registrations);
        assert_eq!(on.oracle.events_checked(), off.oracle.events_checked());
        assert_eq!(on.oracle.signals(), off.oracle.signals());
    }

    /// Without band samples the clock is still checked on the queue event
    /// they used to follow.
    #[test]
    #[should_panic(expected = "conformance violation [clock]")]
    fn backwards_queue_event_is_caught() {
        let mut t = CheckedTracer::new();
        t.queue_event(&rec(QueueEvent::Enqueue, 1500, 1500, 1));
        let mut back = rec(QueueEvent::Dequeue, 1500, 0, 0);
        back.at -= 1;
        t.queue_event(&back);
    }

    #[test]
    fn signals_track_extremes_causes_and_proximity() {
        let mut t = CheckedTracer::new();
        // Queue-depth extremes come from the per-port ledger high-water mark.
        t.queue_event(&rec(QueueEvent::Enqueue, 1500, 1500, 1));
        t.queue_event(&rec(QueueEvent::Enqueue, 1500, 3000, 2));
        t.queue_event(&rec(QueueEvent::Dequeue, 1500, 1500, 1));
        let f = FlowId(9);
        // Credit proximity: consume half of what was issued → 50%.
        t.transport_event(100, NodeId(1), &TransportEvent::CreditIssue { flow: f, bytes: 2000 });
        t.transport_event(101, NodeId(0), &TransportEvent::CreditReceipt { flow: f, bytes: 1000 });
        // Burst proximity: send 90% of the declared budget.
        t.transport_event(102, NodeId(0), &TransportEvent::BurstStart { flow: f, bytes: 10_000 });
        t.transport_event(103, NodeId(0), &TransportEvent::BurstStop { flow: f, sent: 9_000 });
        // Retransmit mix: one timeout repair (half the detected bytes) and
        // one last-resort resend (counted by cause, exempt from the ledger).
        let cause = LossCause::Timeout;
        t.transport_event(104, NodeId(0), &TransportEvent::LossDetected { flow: f, bytes: 2000, cause });
        t.transport_event(105, NodeId(0), &TransportEvent::Retransmit { flow: f, bytes: 1000, cause });
        t.transport_event(
            106,
            NodeId(0),
            &TransportEvent::Retransmit { flow: f, bytes: 500, cause: LossCause::LastResort },
        );
        let sig = t.signals();
        assert_eq!(sig.events_checked, t.events_checked());
        assert_eq!(sig.max_queue_bytes, 3000);
        assert_eq!(sig.max_queue_pkts, 2);
        assert_eq!(sig.credit_fill_pct, 50);
        assert_eq!(sig.burst_fill_pct, 90);
        assert_eq!(sig.retransmit_fill_pct, 50);
        assert_eq!(sig.retransmits_by_cause[cause_idx(LossCause::Timeout)], 1);
        assert_eq!(sig.retransmits_by_cause[cause_idx(LossCause::LastResort)], 1);
        assert_eq!(sig.retransmits_by_cause[cause_idx(LossCause::Probe)], 0);
        // A second identical tracer reproduces the signals bit-for-bit.
        let mut u = CheckedTracer::new();
        u.queue_event(&rec(QueueEvent::Enqueue, 1500, 1500, 1));
        u.queue_event(&rec(QueueEvent::Enqueue, 1500, 3000, 2));
        u.queue_event(&rec(QueueEvent::Dequeue, 1500, 1500, 1));
        u.transport_event(100, NodeId(1), &TransportEvent::CreditIssue { flow: f, bytes: 2000 });
        u.transport_event(101, NodeId(0), &TransportEvent::CreditReceipt { flow: f, bytes: 1000 });
        u.transport_event(102, NodeId(0), &TransportEvent::BurstStart { flow: f, bytes: 10_000 });
        u.transport_event(103, NodeId(0), &TransportEvent::BurstStop { flow: f, sent: 9_000 });
        u.transport_event(104, NodeId(0), &TransportEvent::LossDetected { flow: f, bytes: 2000, cause });
        u.transport_event(105, NodeId(0), &TransportEvent::Retransmit { flow: f, bytes: 1000, cause });
        u.transport_event(
            106,
            NodeId(0),
            &TransportEvent::Retransmit { flow: f, bytes: 500, cause: LossCause::LastResort },
        );
        assert_eq!(u.signals(), sig);
    }
}
