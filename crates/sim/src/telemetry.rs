//! Zero-cost event tracing and time-series probes.
//!
//! The engine is generic over a [`Tracer`]. The default [`NullTracer`] is a
//! statically-dispatched no-op: every hook sits behind an
//! `if T::ENABLED` guard on an associated `const`, so the optimizer removes
//! the tracing code entirely and an untraced simulation pays nothing
//! (verified against the PR 1 baseline by `aeolus-bench`). The
//! [`RecordingTracer`] captures typed events — per-queue
//! enqueue/dequeue/drop/mark/trim with occupancy, credit issue/receipt,
//! unscheduled-burst start/stop, loss detection, retransmission cause — into
//! bounded per-port ring buffers plus sampled time series (queue depth,
//! link utilization, per-class in-flight bytes), and serializes everything
//! to deterministic JSONL.
//!
//! The trait is split in two so the endpoint context can hold a trait
//! object: [`TraceSink`] carries the (object-safe) event methods with no-op
//! defaults, and [`Tracer`] adds the `ENABLED` associated const that makes
//! static dispatch free.

use crate::faults::WindowKind;
use crate::metrics::AbortCause;
use crate::packet::{FlowId, NodeId, PacketKind, PortId, TrafficClass};
use crate::queues::DropReason;
use crate::units::{us, Rate, Time};

/// What happened to a packet at an egress queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueEvent {
    /// Queued unchanged.
    Enqueue,
    /// Queued with the ECN CE mark applied.
    EnqueueMarked,
    /// Payload trimmed to a header (NDP cutting payload), header queued.
    EnqueueTrimmed,
    /// Popped from the queue for serialization onto the link.
    Dequeue,
    /// Rejected by the discipline.
    Drop(DropReason),
}

/// One per-queue event with the packet's identity and the queue occupancy
/// *after* the operation.
#[derive(Debug, Clone, Copy)]
pub struct QueueRecord {
    /// When it happened.
    pub at: Time,
    /// Node owning the queue.
    pub node: NodeId,
    /// Egress port on that node.
    pub port: PortId,
    /// What happened.
    pub ev: QueueEvent,
    /// Flow the packet belongs to.
    pub flow: FlowId,
    /// Packet sequence / offset.
    pub seq: u64,
    /// Protocol meaning of the packet.
    pub kind: PacketKind,
    /// Scheduled / unscheduled / control class.
    pub class: TrafficClass,
    /// Wire size in bytes (pre-trim for [`QueueEvent::EnqueueTrimmed`]).
    pub size: u32,
    /// Payload bytes (pre-trim for [`QueueEvent::EnqueueTrimmed`]).
    pub payload: u32,
    /// Queue occupancy in bytes after the operation.
    pub qlen_bytes: u64,
    /// Queue occupancy in packets after the operation.
    pub qlen_pkts: usize,
}

/// Identity of a data packet crossing a host boundary: launched into the
/// network at its source NIC, or delivered to its destination host. Carried
/// by [`TraceSink::packet_launched`] / [`TraceSink::packet_delivered`] so
/// sinks (in particular the conformance oracle in [`crate::oracle`]) can
/// account per-flow byte conservation, not just per-class totals.
#[derive(Debug, Clone, Copy)]
pub struct HostEvent {
    /// When it happened.
    pub at: Time,
    /// Flow the packet belongs to.
    pub flow: FlowId,
    /// Byte offset of the packet's payload.
    pub seq: u64,
    /// Scheduled / unscheduled class (control packets never reach these
    /// hooks — they carry no payload).
    pub class: TrafficClass,
    /// Application payload bytes carried.
    pub payload: u64,
    /// Whether the packet is a retransmission of earlier bytes.
    pub retransmit: bool,
}

/// Why a transport declared bytes lost (and, by extension, why it
/// retransmits them).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LossCause {
    /// Probe-based tail loss detection: the probe's ACK reported the burst
    /// frontier short of what was sent.
    Probe,
    /// SACK-style gap inference from cumulative/range ACKs.
    SackGap,
    /// Retransmission timeout fired.
    Timeout,
    /// Explicit NACK (e.g. NDP trimmed-header notification).
    Nack,
    /// Receiver-side stall scan re-requested missing ranges.
    Stall,
    /// Last-resort retransmission of unacked first-RTT bytes.
    LastResort,
}

/// A transport-level event emitted by an endpoint through
/// [`crate::Ctx::emit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TransportEvent {
    /// A receiver issued a credit/grant/token worth `bytes` of induced data.
    CreditIssue {
        /// Flow the credit schedules.
        flow: FlowId,
        /// Data bytes the credit entitles the sender to.
        bytes: u64,
    },
    /// A sender consumed a received credit/grant/token.
    CreditReceipt {
        /// Flow the credit schedules.
        flow: FlowId,
        /// Data bytes the credit entitles the sender to.
        bytes: u64,
    },
    /// A pre-credit unscheduled burst began.
    BurstStart {
        /// Bursting flow.
        flow: FlowId,
        /// Budgeted burst size in bytes.
        bytes: u64,
    },
    /// The unscheduled burst ended (budget or flow exhausted).
    BurstStop {
        /// Bursting flow.
        flow: FlowId,
        /// Payload bytes actually sent in the burst.
        sent: u64,
    },
    /// The sender declared bytes lost.
    LossDetected {
        /// Affected flow.
        flow: FlowId,
        /// Newly-declared lost bytes.
        bytes: u64,
        /// Detection mechanism.
        cause: LossCause,
    },
    /// The sender (re)transmitted previously-lost or unacked bytes.
    Retransmit {
        /// Affected flow.
        flow: FlowId,
        /// Retransmitted payload bytes.
        bytes: u64,
        /// Why the bytes needed retransmitting.
        cause: LossCause,
    },
}

/// A fault-injection event: a scheduled [`crate::FaultPlan`] window
/// transitioning, or a packet killed on a link by the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEvent {
    /// A scheduled fault window armed (its links went down or degraded).
    WindowStart {
        /// Index into the plan's window list.
        window: usize,
        /// Down or degraded.
        kind: WindowKind,
    },
    /// A scheduled fault window ended (its links recovered).
    WindowEnd {
        /// Index into the plan's window list.
        window: usize,
        /// Down or degraded.
        kind: WindowKind,
    },
    /// A packet died on the wire: corruption loss, or cut by a link going
    /// down mid-serialization.
    PacketKilled {
        /// Node owning the egress link.
        node: NodeId,
        /// Egress port the packet was leaving through.
        port: PortId,
        /// Flow of the killed packet.
        flow: FlowId,
        /// Sequence / offset of the killed packet.
        seq: u64,
        /// Protocol meaning of the killed packet.
        kind: PacketKind,
        /// Scheduling class of the killed packet.
        class: TrafficClass,
        /// Application payload bytes it carried.
        payload: u32,
        /// [`DropReason::Corruption`], [`DropReason::LinkDown`],
        /// [`DropReason::NodeDown`], [`DropReason::ArbiterDown`] or
        /// [`DropReason::StaleIncarnation`].
        reason: DropReason,
    },
    /// A node crashed (crash window or arbiter outage started).
    NodeCrash {
        /// The node that died.
        node: NodeId,
    },
    /// A crashed node came back (its window ended).
    NodeRestart {
        /// The node that restarted.
        node: NodeId,
    },
    /// A flow was aborted: its current incarnation is dead and its
    /// delivered bytes no longer count. A later `FlowRestarted` revives it.
    FlowAborted {
        /// The aborted flow.
        flow: FlowId,
        /// Why it died.
        cause: AbortCause,
    },
    /// A previously-aborted flow relaunched from scratch after a restart.
    FlowRestarted {
        /// The relaunched flow.
        flow: FlowId,
    },
}

/// Object-safe event sink: every hook has a no-op default, so a sink
/// implements only what it cares about. The engine's context exposes this
/// as `&mut dyn TraceSink` to endpoints.
pub trait TraceSink {
    /// A simplex link egress port came into existence.
    fn port_registered(&mut self, _node: NodeId, _port: PortId, _rate: Rate, _to: NodeId) {}
    /// A packet hit an egress queue (enqueue/mark/trim/drop/dequeue).
    fn queue_event(&mut self, _rec: &QueueRecord) {}
    /// Current per-band occupancy of a queue, sampled after a queue event.
    /// Sent only to tracers whose [`Tracer::BANDS`] is true: every enabled
    /// tracer by default, never the [`crate::CheckedTracer`].
    fn queue_bands(&mut self, _at: Time, _node: NodeId, _port: PortId, _bands: &[(&'static str, u64)]) {
    }
    /// A packet of `wire_bytes` started serializing out of a port.
    fn link_tx(&mut self, _at: Time, _node: NodeId, _port: PortId, _wire_bytes: u64) {}
    /// A data packet entered the network at its source NIC.
    fn packet_launched(&mut self, _ev: &HostEvent) {}
    /// A data packet was delivered to its destination host.
    fn packet_delivered(&mut self, _ev: &HostEvent) {}
    /// A transport endpoint emitted a protocol-level event.
    fn transport_event(&mut self, _at: Time, _host: NodeId, _ev: &TransportEvent) {}
    /// The fault plan acted: a window transitioned or a packet was killed.
    fn fault_event(&mut self, _at: Time, _ev: &FaultEvent) {}
}

/// A statically-dispatched tracer. `ENABLED` gates every engine hook at
/// compile time: `NullTracer` (the default) compiles to nothing.
pub trait Tracer: TraceSink {
    /// Whether engine hooks should fire at all.
    const ENABLED: bool;
    /// Whether the engine samples every queue's bands for
    /// [`TraceSink::queue_bands`] after each queue event. On with `ENABLED`
    /// unless a tracer opts out: building the band list is per-event work,
    /// and a sink that ignores it (the conformance oracle) should not pay
    /// for it.
    const BANDS: bool = Self::ENABLED;
}

/// The compiled-away no-op tracer (the engine default).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NullTracer;

impl TraceSink for NullTracer {}

impl Tracer for NullTracer {
    const ENABLED: bool = false;
}

/// Entries a [`RingBuffer`] reserves when it is made: its whole capacity,
/// up to this many. A larger ring grows as it fills, so a huge capacity
/// costs nothing until used.
const RING_RESERVE_MAX: usize = 1 << 16;

/// Fixed-capacity ring that overwrites its oldest entry when full and
/// counts how many entries it has discarded. Its storage is reserved up
/// front (up to 65,536 entries), so a push into a ring of
/// the default size never reallocates; once full, a push overwrites the
/// oldest entry in place.
#[derive(Debug, Clone)]
pub struct RingBuffer<T> {
    buf: Vec<T>,
    cap: usize,
    /// Index of the oldest entry once the ring has wrapped (0 before).
    head: usize,
    dropped: u64,
}

impl<T> RingBuffer<T> {
    /// A ring holding at most `cap` entries (`cap` ≥ 1).
    pub fn new(cap: usize) -> RingBuffer<T> {
        assert!(cap >= 1, "ring capacity must be positive");
        RingBuffer { buf: Vec::with_capacity(cap.min(RING_RESERVE_MAX)), cap, head: 0, dropped: 0 }
    }

    /// Append `v`, discarding the oldest entry if the ring is full.
    #[inline]
    pub fn push(&mut self, v: T) {
        if self.buf.len() < self.cap {
            self.buf.push(v);
        } else {
            self.buf[self.head] = v;
            self.head = if self.head + 1 == self.cap { 0 } else { self.head + 1 };
            self.dropped += 1;
        }
    }

    /// Retained entries, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let (newer, older) = self.buf.split_at(self.head);
        older.iter().chain(newer)
    }

    /// Entries currently retained.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Capacity the ring was created with.
    pub fn capacity(&self) -> usize {
        self.cap
    }

    /// Entries discarded to make room (total pushes = `len + dropped`).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// `repeat` consecutive samples of `value`: the unit a [`TimeSeries`] or
/// [`RateSeries`] stores, 16 bytes however many boundaries it spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Run {
    value: u64,
    repeat: u64,
}

/// The boundary clock and the samples of one series, kept as runs: a new
/// run starts only when the value changes, so an idle stretch costs
/// nothing and a series costs 16 bytes per change, not 8 per boundary.
#[derive(Debug, Clone)]
struct Runs {
    interval: Time,
    /// The first boundary not yet sampled: `(len + 1) · interval`.
    next_at: Time,
    runs: Vec<Run>,
}

impl Runs {
    fn new(interval: Time) -> Runs {
        assert!(interval > 0, "sample interval must be positive");
        Runs { interval, next_at: interval, runs: Vec::new() }
    }

    /// Move the clock past every boundary up to and including `end`, and
    /// return how many it crossed: one division, however long the gap.
    #[inline]
    fn cross(&mut self, end: Time) -> u64 {
        if end < self.next_at {
            return 0;
        }
        let k = (end - self.next_at) / self.interval + 1;
        self.next_at += k * self.interval;
        k
    }

    /// Append `repeat` samples of `value`, extending the last run when it
    /// holds the same value.
    #[inline]
    fn push(&mut self, value: u64, repeat: u64) {
        if repeat == 0 {
            return;
        }
        match self.runs.last_mut() {
            Some(run) if run.value == value => run.repeat += repeat,
            _ => self.runs.push(Run { value, repeat }),
        }
    }

    fn values(&self) -> SeriesValues<'_> {
        let len = (self.next_at / self.interval - 1) as usize;
        SeriesValues { runs: self.runs.iter(), value: 0, repeat: 0, len }
    }
}

/// The samples of a [`TimeSeries`] or [`RateSeries`], one per boundary,
/// read from its runs: the `k`-th was taken at `(k + 1) · interval`. Its
/// length is known without walking it.
#[derive(Debug, Clone)]
pub struct SeriesValues<'a> {
    runs: std::slice::Iter<'a, Run>,
    /// The run being read and how many of its samples are left.
    value: u64,
    repeat: u64,
    /// Samples left in all.
    len: usize,
}

impl Iterator for SeriesValues<'_> {
    type Item = u64;

    #[inline]
    fn next(&mut self) -> Option<u64> {
        if self.repeat == 0 {
            let run = self.runs.next()?;
            (self.value, self.repeat) = (run.value, run.repeat);
        }
        self.repeat -= 1;
        self.len -= 1;
        Some(self.value)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.len, Some(self.len))
    }
}

impl ExactSizeIterator for SeriesValues<'_> {}

/// Sample-and-hold time series: `observe` records the signal value at event
/// times; samples are taken at fixed boundaries `interval, 2·interval, …`,
/// each reporting the value held just *before* the boundary. The samples
/// are stored as `(value, repeat)` runs of 16 bytes, and a sample's time is
/// its boundary, so a signal that holds still costs nothing however many
/// boundaries pass.
#[derive(Debug, Clone)]
pub struct TimeSeries {
    runs: Runs,
    held: u64,
}

impl TimeSeries {
    /// A series sampled every `interval` (> 0) picoseconds, starting at 0.
    pub fn new(interval: Time) -> TimeSeries {
        TimeSeries { runs: Runs::new(interval), held: 0 }
    }

    /// The signal changed to `v` at time `at` (`at` must not decrease
    /// across calls).
    #[inline]
    pub fn observe(&mut self, at: Time, v: u64) {
        self.finish(at);
        self.held = v;
    }

    /// Flush sample boundaries up to and including `end`: each of them
    /// holds the current value.
    #[inline]
    pub fn finish(&mut self, end: Time) {
        let k = self.runs.cross(end);
        self.runs.push(self.held, k);
    }

    /// The sampled values, one per boundary: the `k`-th was taken at
    /// `(k + 1) · interval`.
    pub fn values(&self) -> SeriesValues<'_> {
        self.runs.values()
    }

    /// The configured sampling interval.
    pub fn interval(&self) -> Time {
        self.runs.interval
    }
}

/// Per-window accumulator: `add` credits bytes to the current window;
/// each sample reports the bytes accumulated in the window *ending* at the
/// boundary (link utilization = sample / (rate · interval)). Stored as
/// runs, as in [`TimeSeries`]: a stretch of idle windows is one run of 0.
#[derive(Debug, Clone)]
pub struct RateSeries {
    runs: Runs,
    acc: u64,
}

impl RateSeries {
    /// A windowed byte counter with windows of `interval` (> 0) picoseconds.
    pub fn new(interval: Time) -> RateSeries {
        RateSeries { runs: Runs::new(interval), acc: 0 }
    }

    /// Credit `bytes` to the window containing `at`.
    #[inline]
    pub fn add(&mut self, at: Time, bytes: u64) {
        self.finish(at);
        self.acc += bytes;
    }

    /// Flush windows up to and including `end`: the first closes with the
    /// bytes credited so far, every later one with none.
    #[inline]
    pub fn finish(&mut self, end: Time) {
        let k = self.runs.cross(end);
        if k > 0 {
            self.runs.push(self.acc, 1);
            self.runs.push(0, k - 1);
            self.acc = 0;
        }
    }

    /// The byte totals of the completed windows: the `k`-th ended at
    /// `(k + 1) · interval`.
    pub fn values(&self) -> SeriesValues<'_> {
        self.runs.values()
    }

    /// The configured window length.
    pub fn interval(&self) -> Time {
        self.runs.interval
    }
}

/// Capture policy for a [`RecordingTracer`].
#[derive(Debug, Clone, Copy)]
pub struct RecordingConfig {
    /// Queue events retained per port (oldest overwritten beyond this).
    pub ring_capacity: usize,
    /// Sampling interval for all time series (queue depth, per-band
    /// occupancy, link tx windows, per-class in-flight bytes).
    pub sample_every: Time,
}

impl Default for RecordingConfig {
    fn default() -> RecordingConfig {
        RecordingConfig { ring_capacity: 4096, sample_every: us(10) }
    }
}

/// A [`QueueRecord`] as a port's ring keeps it: 72 bytes against the
/// record's 80. The node and port are the ring's own, and the event and
/// the class are one-byte codes; the packet kind is kept whole, fields
/// and all. [`PortTrace::records`] and [`RecordingTracer::flow_records`]
/// rebuild the records, and [`RecordingTracer::to_jsonl`] renders straight
/// from these.
#[derive(Debug, Clone, Copy)]
struct QueueSlot {
    at: Time,
    flow: u64,
    seq: u64,
    qlen_bytes: u64,
    kind: PacketKind,
    size: u32,
    payload: u32,
    qlen_pkts: u32,
    /// 0–3 for the four non-drop events in [`QueueEvent`] order; a drop is
    /// 4 plus its reason's index in [`DROP_REASONS`].
    ev: u8,
    /// Index in [`CLASSES`].
    class: u8,
}

/// Queue-event codes below this are not drops.
const DROP_CODE: u8 = 4;

/// Every [`DropReason`], in declaration order: `reason as u8` indexes it.
const DROP_REASONS: [DropReason; 9] = [
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

/// Every [`TrafficClass`], in [`class_idx`] order.
const CLASSES: [TrafficClass; 3] =
    [TrafficClass::Scheduled, TrafficClass::Unscheduled, TrafficClass::Control];

/// Every [`LossCause`], in declaration order: `cause as u8` indexes it.
const LOSS_CAUSES: [LossCause; 6] = [
    LossCause::Probe,
    LossCause::SackGap,
    LossCause::Timeout,
    LossCause::Nack,
    LossCause::Stall,
    LossCause::LastResort,
];

fn queue_ev_code(ev: QueueEvent) -> u8 {
    match ev {
        QueueEvent::Enqueue => 0,
        QueueEvent::EnqueueMarked => 1,
        QueueEvent::EnqueueTrimmed => 2,
        QueueEvent::Dequeue => 3,
        QueueEvent::Drop(reason) => DROP_CODE + reason as u8,
    }
}

fn queue_ev(code: u8) -> QueueEvent {
    match code {
        0 => QueueEvent::Enqueue,
        1 => QueueEvent::EnqueueMarked,
        2 => QueueEvent::EnqueueTrimmed,
        3 => QueueEvent::Dequeue,
        c => QueueEvent::Drop(DROP_REASONS[(c - DROP_CODE) as usize]),
    }
}

impl QueueSlot {
    #[inline]
    fn new(rec: &QueueRecord) -> QueueSlot {
        QueueSlot {
            at: rec.at,
            flow: rec.flow.0,
            seq: rec.seq,
            qlen_bytes: rec.qlen_bytes,
            size: rec.size,
            payload: rec.payload,
            qlen_pkts: u32::try_from(rec.qlen_pkts).expect("a queue holds under 2^32 packets"),
            ev: queue_ev_code(rec.ev),
            kind: rec.kind,
            class: class_idx(rec.class) as u8,
        }
    }

    fn record(&self, (node, port): (NodeId, PortId)) -> QueueRecord {
        QueueRecord {
            at: self.at,
            node,
            port,
            ev: queue_ev(self.ev),
            flow: FlowId(self.flow),
            seq: self.seq,
            kind: self.kind,
            class: CLASSES[self.class as usize],
            size: self.size,
            payload: self.payload,
            qlen_bytes: self.qlen_bytes,
            qlen_pkts: self.qlen_pkts as usize,
        }
    }
}

/// A `(Time, NodeId, TransportEvent)` as the transport log keeps it: 32
/// bytes against the tuple's 40. [`RecordingTracer::transport_events`]
/// rebuilds the events.
#[derive(Debug, Clone, Copy)]
struct TransportSlot {
    at: Time,
    flow: u64,
    /// The event's byte count (a `BurstStop`'s `sent`).
    bytes: u64,
    host: u32,
    /// Index of the variant in [`TransportEvent`] declaration order.
    ev: u8,
    /// Index in [`LOSS_CAUSES`] (loss and retransmit events; 0 otherwise).
    cause: u8,
}

impl TransportSlot {
    #[inline]
    fn new(at: Time, host: NodeId, ev: &TransportEvent) -> TransportSlot {
        let (code, flow, bytes, cause) = match *ev {
            TransportEvent::CreditIssue { flow, bytes } => (0, flow, bytes, 0),
            TransportEvent::CreditReceipt { flow, bytes } => (1, flow, bytes, 0),
            TransportEvent::BurstStart { flow, bytes } => (2, flow, bytes, 0),
            TransportEvent::BurstStop { flow, sent } => (3, flow, sent, 0),
            TransportEvent::LossDetected { flow, bytes, cause } => (4, flow, bytes, cause as u8),
            TransportEvent::Retransmit { flow, bytes, cause } => (5, flow, bytes, cause as u8),
        };
        TransportSlot { at, flow: flow.0, bytes, host: host.0, ev: code, cause }
    }

    fn event(&self) -> TransportEvent {
        let (flow, bytes) = (FlowId(self.flow), self.bytes);
        let cause = LOSS_CAUSES[self.cause as usize];
        match self.ev {
            0 => TransportEvent::CreditIssue { flow, bytes },
            1 => TransportEvent::CreditReceipt { flow, bytes },
            2 => TransportEvent::BurstStart { flow, bytes },
            3 => TransportEvent::BurstStop { flow, sent: bytes },
            4 => TransportEvent::LossDetected { flow, bytes, cause },
            _ => TransportEvent::Retransmit { flow, bytes, cause },
        }
    }
}

/// Everything recorded about one egress port.
#[derive(Debug)]
pub struct PortTrace {
    /// The node and port this trace belongs to.
    key: (NodeId, PortId),
    /// Link rate of the port.
    pub rate: Rate,
    /// Node at the far end of the link.
    pub to: NodeId,
    /// Bounded log of queue events at this port.
    ring: RingBuffer<QueueSlot>,
    /// Sampled queue depth in bytes.
    pub depth: TimeSeries,
    /// Bytes serialized per sample window (utilization probe).
    pub tx: RateSeries,
    /// Sampled per-band occupancy (disciplines report their internal
    /// structure: priority levels, control vs data, credit queue, …), kept
    /// sorted by band name.
    pub bands: Vec<(&'static str, TimeSeries)>,
    /// `band_of[i]`: where in `bands` the series of the `i`-th band of the
    /// last sample sits (a discipline reports its bands in a fixed order).
    band_of: Vec<usize>,
}

impl PortTrace {
    /// The retained queue records of this port, oldest first, each rebuilt
    /// from its ring slot.
    pub fn records(&self) -> impl Iterator<Item = QueueRecord> + '_ {
        self.ring.iter().map(|slot| slot.record(self.key))
    }

    /// Queue records retained in the ring.
    pub fn ring_len(&self) -> usize {
        self.ring.len()
    }

    /// Queue records the ring overwrote (records seen = `ring_len +
    /// ring_dropped`).
    pub fn ring_dropped(&self) -> u64 {
        self.ring.dropped()
    }

    /// Feed one per-band occupancy sample. A cached position is confirmed by
    /// comparing name pointers, never strings; only a miss (a band not seen
    /// at this position before, or one moved by an insert) searches by name,
    /// inserting a new band at its sorted place.
    fn observe_bands(&mut self, at: Time, bands: &[(&'static str, u64)], interval: Time) {
        self.band_of.resize(bands.len(), 0);
        for (slot, &(name, bytes)) in self.band_of.iter_mut().zip(bands) {
            if !self.bands.get(*slot).is_some_and(|&(n, _)| std::ptr::eq(n, name)) {
                *slot = match self.bands.binary_search_by(|&(n, _)| n.cmp(name)) {
                    Ok(i) => i,
                    Err(i) => {
                        self.bands.insert(i, (name, TimeSeries::new(interval)));
                        i
                    }
                };
            }
            self.bands[*slot].1.observe(at, bytes);
        }
    }
}

/// `RecordingTracer::index` entry of a port with no trace.
const NO_PORT: u32 = u32::MAX;

/// In-memory recorder implementing every [`TraceSink`] hook.
///
/// Port traces are kept in `(node, port)` order, found through a dense
/// `[node][port]` index (node and port ids are indices, so a hook does two
/// array reads, not a tree walk); bands are kept in name order and every
/// buffer appends in event order. So two runs processing identical event
/// streams produce byte-identical [`RecordingTracer::to_jsonl`] output.
///
/// Queue events and transport events are stored fixed-width (a port's
/// ring reserves its capacity when the port registers); the typed records,
/// [`RecordingTracer::flow_records`] and the JSONL text are built only
/// when read.
#[derive(Debug)]
pub struct RecordingTracer {
    cfg: RecordingConfig,
    /// Port traces sorted by `(node, port)`.
    ports: Vec<PortTrace>,
    /// `index[node][port]`: position in `ports`, or [`NO_PORT`].
    index: Vec<Vec<u32>>,
    transport: Vec<TransportSlot>,
    faults: Vec<(Time, FaultEvent)>,
    inflight: [u64; 3],
    inflight_series: [TimeSeries; 3],
}

impl Default for RecordingTracer {
    fn default() -> RecordingTracer {
        RecordingTracer::new()
    }
}

fn class_idx(class: TrafficClass) -> usize {
    match class {
        TrafficClass::Scheduled => 0,
        TrafficClass::Unscheduled => 1,
        TrafficClass::Control => 2,
    }
}

/// Stable wire name for a traffic class.
pub fn class_str(class: TrafficClass) -> &'static str {
    match class {
        TrafficClass::Scheduled => "sched",
        TrafficClass::Unscheduled => "unsched",
        TrafficClass::Control => "ctrl",
    }
}

/// Stable wire name for a packet kind.
pub fn kind_str(kind: PacketKind) -> &'static str {
    match kind {
        PacketKind::Data => "data",
        PacketKind::Request => "request",
        PacketKind::Credit => "credit",
        PacketKind::Grant { .. } => "grant",
        PacketKind::Pull => "pull",
        PacketKind::Ack { .. } => "ack",
        PacketKind::Nack => "nack",
        PacketKind::Probe => "probe",
        PacketKind::Resend { .. } => "resend",
        PacketKind::Schedule { .. } => "schedule",
    }
}

/// Stable wire name for a drop reason.
pub fn reason_str(reason: DropReason) -> &'static str {
    match reason {
        DropReason::BufferFull => "buffer_full",
        DropReason::SharedBufferFull => "shared_buffer_full",
        DropReason::SelectiveDrop => "selective_drop",
        DropReason::CreditOverflow => "credit_overflow",
        DropReason::Corruption => "corruption",
        DropReason::LinkDown => "link_down",
        DropReason::NodeDown => "node_down",
        DropReason::ArbiterDown => "arbiter_down",
        DropReason::StaleIncarnation => "stale_incarnation",
    }
}

/// Stable wire name for an abort cause.
pub fn abort_cause_str(cause: AbortCause) -> &'static str {
    match cause {
        AbortCause::NodeCrash => "node_crash",
        AbortCause::ArbiterOutage => "arbiter_outage",
        AbortCause::PeerSilent => "peer_silent",
    }
}

/// Stable wire name for a fault-window kind.
pub fn window_kind_str(kind: WindowKind) -> &'static str {
    match kind {
        WindowKind::Down => "down",
        WindowKind::Degraded { .. } => "degraded",
    }
}

/// Stable wire name for a loss cause.
pub fn cause_str(cause: LossCause) -> &'static str {
    match cause {
        LossCause::Probe => "probe",
        LossCause::SackGap => "sack_gap",
        LossCause::Timeout => "timeout",
        LossCause::Nack => "nack",
        LossCause::Stall => "stall",
        LossCause::LastResort => "last_resort",
    }
}

fn queue_ev_str(ev: QueueEvent) -> &'static str {
    match ev {
        QueueEvent::Enqueue => "enqueue",
        QueueEvent::EnqueueMarked => "enqueue_marked",
        QueueEvent::EnqueueTrimmed => "enqueue_trimmed",
        QueueEvent::Dequeue => "dequeue",
        QueueEvent::Drop(_) => "drop",
    }
}

impl RecordingTracer {
    /// A recorder with default policy (4096-event rings, 10 µs sampling).
    pub fn new() -> RecordingTracer {
        RecordingTracer::with_config(RecordingConfig::default())
    }

    /// A recorder with an explicit capture policy.
    pub fn with_config(cfg: RecordingConfig) -> RecordingTracer {
        let mk = || TimeSeries::new(cfg.sample_every);
        RecordingTracer {
            cfg,
            ports: Vec::new(),
            index: Vec::new(),
            transport: Vec::new(),
            faults: Vec::new(),
            inflight: [0; 3],
            inflight_series: [mk(), mk(), mk()],
        }
    }

    fn inflight_observe(&mut self, at: Time, idx: usize) {
        self.inflight_series[idx].observe(at, self.inflight[idx]);
    }

    /// Flush all time series up to `end` (call once after the run).
    pub fn finish(&mut self, end: Time) {
        for pt in &mut self.ports {
            pt.depth.finish(end);
            pt.tx.finish(end);
            for (_, s) in &mut pt.bands {
                s.finish(end);
            }
        }
        for s in self.inflight_series.iter_mut() {
            s.finish(end);
        }
    }

    /// Recorded ports in deterministic `(node, port)` order.
    pub fn ports(&self) -> impl Iterator<Item = (&(NodeId, PortId), &PortTrace)> {
        self.ports.iter().map(|pt| (&pt.key, pt))
    }

    /// One flow's life as a filter over the capture: every retained queue
    /// record of `flow` on any port, in `(at, node, port)` order (ring order
    /// within one port and instant). A `Dequeue` on a port of N is a
    /// transmission by N; an `Enqueue*` / `Drop` at a switch is the packet's
    /// arrival there; the `Dequeue` on the port whose [`PortTrace::to`] is a
    /// host is what that host is about to receive.
    pub fn flow_records(&self, flow: FlowId) -> Vec<QueueRecord> {
        let mut recs: Vec<QueueRecord> = self
            .ports
            .iter()
            .flat_map(|pt| {
                pt.ring.iter().filter(|slot| slot.flow == flow.0).map(|slot| slot.record(pt.key))
            })
            .collect();
        recs.sort_by_key(|rec| (rec.at, rec.node, rec.port));
        recs
    }

    /// Transport events in emission order.
    pub fn transport_events(
        &self,
    ) -> impl ExactSizeIterator<Item = (Time, NodeId, TransportEvent)> + '_ {
        self.transport.iter().map(|slot| (slot.at, NodeId(slot.host), slot.event()))
    }

    /// Current in-flight payload bytes of a class.
    pub fn inflight_bytes(&self, class: TrafficClass) -> u64 {
        self.inflight[class_idx(class)]
    }

    /// Sampled in-flight payload series of a class.
    pub fn inflight_series(&self, class: TrafficClass) -> &TimeSeries {
        &self.inflight_series[class_idx(class)]
    }

    /// Position of `(node, port)`'s trace in `ports`, if it has one.
    #[inline]
    fn slot(&self, node: NodeId, port: PortId) -> Option<usize> {
        let i = *self.index.get(node.0 as usize)?.get(port.0 as usize)?;
        (i != NO_PORT).then_some(i as usize)
    }

    /// Position of `(node, port)`'s trace, creating it at its sorted place
    /// if absent (the first registration of a port wins). Registration is
    /// rare, so the index entries of every trace it shifts are rewritten.
    fn register(&mut self, node: NodeId, port: PortId, rate: Rate, to: NodeId) -> usize {
        if let Some(i) = self.slot(node, port) {
            return i;
        }
        let cfg = self.cfg;
        let at = self.ports.partition_point(|pt| pt.key < (node, port));
        let trace = PortTrace {
            key: (node, port),
            rate,
            to,
            ring: RingBuffer::new(cfg.ring_capacity),
            depth: TimeSeries::new(cfg.sample_every),
            tx: RateSeries::new(cfg.sample_every),
            bands: Vec::new(),
            band_of: Vec::new(),
        };
        self.ports.insert(at, trace);
        let n = node.0 as usize;
        if n >= self.index.len() {
            self.index.resize_with(n + 1, Vec::new);
        }
        let row = &mut self.index[n];
        if port.0 as usize >= row.len() {
            row.resize(port.0 as usize + 1, NO_PORT);
        }
        for (i, pt) in self.ports.iter().enumerate().skip(at) {
            let (n, p) = pt.key;
            self.index[n.0 as usize][p.0 as usize] = i as u32;
        }
        at
    }

    /// A guess at the length of [`RecordingTracer::to_jsonl`] from the
    /// capture's line and sample counts, at a typical length each (a queue
    /// line runs 140–180 bytes, a series sample 14–20). A series' sample
    /// count is read off its clock, not by walking its runs. `to_jsonl`
    /// reserves the guess, and its buffer grows past it only on an unusual
    /// capture.
    fn jsonl_estimate(&self) -> usize {
        const LINE: usize = 160;
        const SAMPLE: usize = 20;
        let mut lines = 1 + self.ports.len() + self.transport.len() + self.faults.len();
        let mut samples = 0;
        for pt in &self.ports {
            lines += pt.ring.len() + 2 + pt.bands.len();
            samples += pt.depth.values().len() + pt.tx.values().len();
            samples += pt.bands.iter().map(|(_, s)| s.values().len()).sum::<usize>();
        }
        lines += self.inflight_series.len();
        samples += self.inflight_series.iter().map(|s| s.values().len()).sum::<usize>();
        lines * LINE + samples * SAMPLE
    }

    /// Serialize the full capture as deterministic JSONL: one `meta` line,
    /// then `port`, `queue`, `transport`, `fault` (only when a fault plan
    /// acted) and `series` lines, ports in `(node, port)` order and bands in
    /// name order. One pass over the capture, into a buffer reserved from
    /// its size.
    pub fn to_jsonl(&self) -> String {
        let mut w = Jsonl(Vec::with_capacity(self.jsonl_estimate()));
        w.lit("{\"type\":\"meta\",\"version\":1,\"ports\":")
            .num(self.ports.len() as u64)
            .lit(",\"transport_events\":")
            .num(self.transport.len() as u64)
            .lit(",\"sample_interval_ps\":")
            .num(self.cfg.sample_every)
            .lit("}\n");
        for pt in &self.ports {
            let (node, port) = pt.key;
            w.lit("{\"type\":\"port\",\"node\":")
                .num(node.0 as u64)
                .lit(",\"port\":")
                .num(port.0 as u64)
                .lit(",\"to\":")
                .num(pt.to.0 as u64)
                .lit(",\"rate_bps\":")
                .num(pt.rate.bps())
                .lit(",\"ring_len\":")
                .num(pt.ring.len() as u64)
                .lit(",\"ring_dropped\":")
                .num(pt.ring.dropped())
                .lit("}\n");
        }
        for pt in &self.ports {
            let (node, port) = (pt.key.0 .0 as u64, pt.key.1 .0 as u64);
            for slot in pt.ring.iter() {
                let ev = queue_ev(slot.ev);
                w.lit("{\"type\":\"queue\",\"at\":")
                    .num(slot.at)
                    .lit(",\"node\":")
                    .num(node)
                    .lit(",\"port\":")
                    .num(port)
                    .lit(",\"ev\":\"")
                    .lit(queue_ev_str(ev));
                if let QueueEvent::Drop(reason) = ev {
                    w.lit("\",\"reason\":\"").lit(reason_str(reason));
                }
                w.lit("\",\"flow\":")
                    .num(slot.flow)
                    .lit(",\"seq\":")
                    .num(slot.seq)
                    .lit(",\"kind\":\"")
                    .lit(kind_str(slot.kind))
                    .lit("\",\"class\":\"")
                    .lit(class_str(CLASSES[slot.class as usize]))
                    .lit("\",\"size\":")
                    .num(slot.size as u64)
                    .lit(",\"payload\":")
                    .num(slot.payload as u64)
                    .lit(",\"qlen\":")
                    .num(slot.qlen_bytes)
                    .lit(",\"qpkts\":")
                    .num(slot.qlen_pkts as u64)
                    .lit("}\n");
            }
        }
        for slot in &self.transport {
            let bytes = ",\"bytes\":";
            let (ev, count, cause) = match slot.event() {
                TransportEvent::CreditIssue { .. } => ("credit_issue", bytes, None),
                TransportEvent::CreditReceipt { .. } => ("credit_receipt", bytes, None),
                TransportEvent::BurstStart { .. } => ("burst_start", bytes, None),
                TransportEvent::BurstStop { .. } => ("burst_stop", ",\"sent\":", None),
                TransportEvent::LossDetected { cause, .. } => ("loss_detected", bytes, Some(cause)),
                TransportEvent::Retransmit { cause, .. } => ("retransmit", bytes, Some(cause)),
            };
            w.lit("{\"type\":\"transport\",\"at\":")
                .num(slot.at)
                .lit(",\"host\":")
                .num(slot.host as u64)
                .lit(",\"ev\":\"")
                .lit(ev)
                .lit("\",\"flow\":")
                .num(slot.flow)
                .lit(count)
                .num(slot.bytes);
            if let Some(cause) = cause {
                w.lit(",\"cause\":\"").lit(cause_str(cause)).lit("\"");
            }
            w.lit("}\n");
        }
        for &(at, ev) in &self.faults {
            w.lit("{\"type\":\"fault\",\"at\":").num(at);
            match ev {
                FaultEvent::WindowStart { window, kind } => w
                    .lit(",\"ev\":\"window_start\",\"window\":")
                    .num(window as u64)
                    .lit(",\"kind\":\"")
                    .lit(window_kind_str(kind))
                    .lit("\""),
                FaultEvent::WindowEnd { window, kind } => w
                    .lit(",\"ev\":\"window_end\",\"window\":")
                    .num(window as u64)
                    .lit(",\"kind\":\"")
                    .lit(window_kind_str(kind))
                    .lit("\""),
                FaultEvent::PacketKilled { node, port, flow, seq, kind, class, payload, reason } => w
                    .lit(",\"ev\":\"killed\",\"node\":")
                    .num(node.0 as u64)
                    .lit(",\"port\":")
                    .num(port.0 as u64)
                    .lit(",\"flow\":")
                    .num(flow.0)
                    .lit(",\"seq\":")
                    .num(seq)
                    .lit(",\"kind\":\"")
                    .lit(kind_str(kind))
                    .lit("\",\"class\":\"")
                    .lit(class_str(class))
                    .lit("\",\"payload\":")
                    .num(payload as u64)
                    .lit(",\"reason\":\"")
                    .lit(reason_str(reason))
                    .lit("\""),
                FaultEvent::NodeCrash { node } => {
                    w.lit(",\"ev\":\"node_crash\",\"node\":").num(node.0 as u64)
                }
                FaultEvent::NodeRestart { node } => {
                    w.lit(",\"ev\":\"node_restart\",\"node\":").num(node.0 as u64)
                }
                FaultEvent::FlowAborted { flow, cause } => w
                    .lit(",\"ev\":\"flow_aborted\",\"flow\":")
                    .num(flow.0)
                    .lit(",\"cause\":\"")
                    .lit(abort_cause_str(cause))
                    .lit("\""),
                FaultEvent::FlowRestarted { flow } => {
                    w.lit(",\"ev\":\"flow_restarted\",\"flow\":").num(flow.0)
                }
            }
            .lit("}\n");
        }
        for pt in &self.ports {
            let loc = Some(pt.key);
            w.series(["depth", ""], loc, &pt.depth.runs);
            w.series(["tx_bytes", ""], loc, &pt.tx.runs);
            for (band, s) in &pt.bands {
                w.series(["band:", band], loc, &s.runs);
            }
        }
        for class in CLASSES {
            let runs = &self.inflight_series[class_idx(class)].runs;
            w.series(["inflight:", class_str(class)], None, runs);
        }
        String::from_utf8(w.0).expect("every piece of the capture is a str")
    }
}

/// `DIGIT_PAIRS[2 * n..2 * n + 2]`: the two decimal digits of `n < 100`.
const DIGIT_PAIRS: [u8; 200] = {
    let mut t = [0u8; 200];
    let mut n = 0;
    while n < 100 {
        t[2 * n] = b'0' + (n / 10) as u8;
        t[2 * n + 1] = b'0' + (n % 10) as u8;
        n += 1;
    }
    t
};

/// The JSONL output buffer of [`RecordingTracer::to_jsonl`]. Numbers are
/// written by hand, two digits per division: going through `fmt` per field
/// was most of a capture's cost. Each key is written with the punctuation
/// around it as one literal.
struct Jsonl(Vec<u8>);

impl Jsonl {
    /// Append `s` verbatim.
    #[inline]
    fn lit(&mut self, s: &str) -> &mut Jsonl {
        self.0.extend_from_slice(s.as_bytes());
        self
    }

    /// Append the decimal digits of `v`, written in place two at a time.
    /// The place is opened with a fixed 20-byte store of zeros, the digits
    /// of `u64::MAX` (a copy of runtime length would be a `memcpy` call),
    /// and cut to the digit count.
    #[inline]
    fn num(&mut self, mut v: u64) -> &mut Jsonl {
        let at = self.0.len();
        let len = v.checked_ilog10().unwrap_or(0) as usize + 1;
        self.0.extend_from_slice(&[0u8; 20]);
        self.0.truncate(at + len);
        let out = &mut self.0[at..];
        let mut i = len;
        while v >= 100 {
            let pair = (v % 100) as usize * 2;
            v /= 100;
            i -= 2;
            out[i..i + 2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        }
        if v >= 10 {
            let pair = v as usize * 2;
            out[..2].copy_from_slice(&DIGIT_PAIRS[pair..pair + 2]);
        } else {
            out[0] = b'0' + v as u8;
        }
        self
    }

    /// One `series` line, a `[time, value]` pair per sample read from the
    /// runs; `name` is written as its two parts joined.
    fn series(&mut self, name: [&str; 2], loc: Option<(NodeId, PortId)>, s: &Runs) {
        self.lit("{\"type\":\"series\",\"name\":\"").lit(name[0]).lit(name[1]).lit("\"");
        if let Some((node, port)) = loc {
            self.lit(",\"node\":").num(node.0 as u64).lit(",\"port\":").num(port.0 as u64);
        }
        self.lit(",\"samples\":[");
        let (mut at, mut open) = (0, "[");
        for run in &s.runs {
            for _ in 0..run.repeat {
                at += s.interval;
                self.lit(open).num(at).lit(",").num(run.value);
                open = "],[";
            }
        }
        self.lit(if s.runs.is_empty() { "]}\n" } else { "]]}\n" });
    }
}

impl TraceSink for RecordingTracer {
    fn port_registered(&mut self, node: NodeId, port: PortId, rate: Rate, to: NodeId) {
        self.register(node, port, rate, to);
    }

    fn queue_event(&mut self, rec: &QueueRecord) {
        // In-flight conservation: payload leaves the network when a data
        // packet is dropped or its payload is trimmed away in-fabric
        // (delivery is handled by `packet_delivered`).
        if rec.payload > 0 {
            match rec.ev {
                QueueEvent::Drop(_) | QueueEvent::EnqueueTrimmed => {
                    let idx = class_idx(rec.class);
                    self.inflight[idx] = self.inflight[idx].saturating_sub(rec.payload as u64);
                    self.inflight_observe(rec.at, idx);
                }
                _ => {}
            }
        }
        let i = match self.slot(rec.node, rec.port) {
            Some(i) => i,
            // A queue event on an unregistered port (hand-wired networks
            // bypassing `port_registered` cannot happen through the engine,
            // but stay total): synthesize a placeholder registration.
            None => self.register(rec.node, rec.port, Rate::gbps(0), rec.node),
        };
        let pt = &mut self.ports[i];
        pt.depth.observe(rec.at, rec.qlen_bytes);
        pt.ring.push(QueueSlot::new(rec));
    }

    fn queue_bands(&mut self, at: Time, node: NodeId, port: PortId, bands: &[(&'static str, u64)]) {
        if let Some(i) = self.slot(node, port) {
            self.ports[i].observe_bands(at, bands, self.cfg.sample_every);
        }
    }

    fn link_tx(&mut self, at: Time, node: NodeId, port: PortId, wire_bytes: u64) {
        if let Some(i) = self.slot(node, port) {
            self.ports[i].tx.add(at, wire_bytes);
        }
    }

    fn packet_launched(&mut self, ev: &HostEvent) {
        let idx = class_idx(ev.class);
        self.inflight[idx] += ev.payload;
        self.inflight_observe(ev.at, idx);
    }

    fn packet_delivered(&mut self, ev: &HostEvent) {
        let idx = class_idx(ev.class);
        self.inflight[idx] = self.inflight[idx].saturating_sub(ev.payload);
        self.inflight_observe(ev.at, idx);
    }

    fn transport_event(&mut self, at: Time, host: NodeId, ev: &TransportEvent) {
        self.transport.push(TransportSlot::new(at, host, ev));
    }

    fn fault_event(&mut self, at: Time, ev: &FaultEvent) {
        // A packet killed on the wire leaves the network without a delivery
        // or queue-drop event, so keep the in-flight accounting balanced
        // here.
        if let FaultEvent::PacketKilled { class, payload, .. } = *ev {
            if payload > 0 {
                let idx = class_idx(class);
                self.inflight[idx] = self.inflight[idx].saturating_sub(payload as u64);
                self.inflight_observe(at, idx);
            }
        }
        self.faults.push((at, *ev));
    }
}

impl Tracer for RecordingTracer {
    const ENABLED: bool = true;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_buffer_wraps_and_counts_dropped() {
        let mut r = RingBuffer::new(3);
        assert!(r.is_empty());
        for i in 0..5u64 {
            r.push(i);
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.capacity(), 3);
        assert_eq!(r.dropped(), 2);
        let kept: Vec<u64> = r.iter().copied().collect();
        assert_eq!(kept, vec![2, 3, 4], "oldest entries are overwritten first");
    }

    #[test]
    fn ring_buffer_below_capacity_drops_nothing() {
        let mut r = RingBuffer::new(8);
        r.push('a');
        r.push('b');
        assert_eq!(r.len(), 2);
        assert_eq!(r.dropped(), 0);
    }

    /// A ring as large as the address space reserves only its first
    /// entries. Fails if `new` reserves the whole capacity.
    #[test]
    fn a_huge_ring_reserves_only_what_it_may_fill_soon() {
        let mut r = RingBuffer::new(usize::MAX);
        for i in 0..3u64 {
            r.push(i);
        }
        assert_eq!((r.len(), r.dropped(), r.capacity()), (3, 0, usize::MAX));
        assert_eq!(r.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn ring_buffer_rejects_zero_capacity() {
        RingBuffer::<u8>::new(0);
    }

    #[test]
    fn time_series_samples_hold_value_before_boundary() {
        let mut s = TimeSeries::new(10);
        s.observe(3, 100); // signal becomes 100 at t=3
        s.observe(15, 200); // boundary 10 passes holding 100
        s.finish(30); // boundaries 20, 30 hold 200
        assert_eq!(s.values().collect::<Vec<_>>(), [100, 200, 200], "samples at 10, 20, 30");
    }

    #[test]
    fn time_series_observation_exactly_on_boundary_samples_prior_value() {
        let mut s = TimeSeries::new(10);
        s.observe(0, 7);
        s.observe(10, 9); // at == boundary: the sample sees the pre-change 7
        s.finish(20);
        assert_eq!(s.values().collect::<Vec<_>>(), [7, 9], "samples at 10, 20");
    }

    #[test]
    fn time_series_gap_spanning_many_boundaries_repeats_held_value() {
        let mut s = TimeSeries::new(5);
        s.observe(2, 42);
        s.observe(23, 1); // boundaries 5,10,15,20 all hold 42
        s.finish(25);
        assert_eq!(s.values().collect::<Vec<_>>(), [42, 42, 42, 42, 1], "samples at 5, 10, …, 25");
    }

    #[test]
    fn time_series_no_samples_before_first_interval() {
        let mut s = TimeSeries::new(100);
        s.observe(1, 5);
        s.observe(99, 6);
        assert_eq!(s.values().len(), 0);
        s.finish(99);
        assert_eq!(s.values().len(), 0, "finish before the first boundary emits nothing");
        s.finish(100);
        assert_eq!(s.values().collect::<Vec<_>>(), [6], "one sample, at 100");
    }

    #[test]
    fn rate_series_buckets_bytes_into_windows() {
        let mut r = RateSeries::new(10);
        r.add(1, 100);
        r.add(9, 50); // window (0,10] = 150
        r.add(25, 30); // window (10,20] = 0, (20,30] gets 30
        r.finish(30);
        assert_eq!(r.values().collect::<Vec<_>>(), [150, 0, 30], "windows ending at 10, 20, 30");
    }

    /// The per-boundary series the runs replace: one stored value per
    /// boundary, flushed a boundary at a time.
    struct Naive {
        interval: Time,
        next_at: Time,
        /// The held value of a [`TimeSeries`], the window's bytes of a
        /// [`RateSeries`].
        cur: u64,
        rate: bool,
        values: Vec<u64>,
    }

    impl Naive {
        fn finish(&mut self, end: Time) {
            while self.next_at <= end {
                self.values.push(self.cur);
                if self.rate {
                    self.cur = 0;
                }
                self.next_at += self.interval;
            }
        }
    }

    /// Random `observe` / `add` / `finish` sequences give the same samples
    /// as the per-boundary model: times on a boundary, just before one and
    /// between, gaps of 0, 1 and many boundaries, and a last `finish` past
    /// 2^40 ps. Fails if `finish` crosses one boundary too few or too many,
    /// or if a `RateSeries` repeats its last window's bytes into the idle
    /// windows after it.
    #[test]
    fn random_series_sequences_match_per_boundary_model() {
        for seed in 0..64u64 {
            let mut rng = crate::rng::SimRng::seed_from_u64(0x5E41E5 ^ seed);
            let interval = [1, 3, 10, 1000, (1 << 28) + 7][seed as usize % 5];
            let rate = seed % 2 == 1;
            let (mut ts, mut rs) = (TimeSeries::new(interval), RateSeries::new(interval));
            let mut model = Naive { interval, next_at: interval, cur: 0, rate, values: Vec::new() };
            let samples = |ts: &TimeSeries, rs: &RateSeries| {
                let values = if rate { rs.values() } else { ts.values() };
                (values.len(), values.collect::<Vec<_>>())
            };
            let mut at: Time = 0;
            for step in 0..300 {
                at = match rng.below(5) {
                    0 => at,
                    1 => at.max(model.next_at),
                    2 => at.max(model.next_at - 1),
                    3 => at + rng.below(interval) + 1,
                    _ => at + interval * rng.range_u64(2, 40) + rng.below(interval),
                };
                let v = [0, 0, 1, 1460, u64::MAX >> 8][rng.below(5) as usize];
                match (rate, rng.below(4)) {
                    (_, 0) => {
                        ts.finish(at);
                        rs.finish(at);
                        model.finish(at);
                    }
                    (false, _) => {
                        ts.observe(at, v);
                        model.finish(at);
                        model.cur = v;
                    }
                    (true, _) => {
                        rs.add(at, v);
                        model.finish(at);
                        model.cur += v;
                    }
                }
                assert_eq!(
                    samples(&ts, &rs),
                    (model.values.len(), model.values.clone()),
                    "seed {seed}, step {step}, at {at}"
                );
            }
            // A last long gap: at the widest interval, 2^40 ps (4096
            // boundaries) to past 2^40 ps; at the others, which the model
            // cannot walk to 2^40 ps one boundary at a time, 1000 boundaries.
            let gap =
                if interval > 1 << 20 { at.max(1 << 40) - at + (1 << 40) } else { 1000 * interval };
            let end = at + gap + rng.below(interval);
            ts.finish(end);
            rs.finish(end);
            model.finish(end);
            assert_eq!(
                samples(&ts, &rs),
                (model.values.len(), model.values),
                "seed {seed}: last gap"
            );
        }
    }

    fn host_ev(at: Time, class: TrafficClass, seq: u64) -> HostEvent {
        HostEvent { at, flow: FlowId(1), seq, class, payload: 1460, retransmit: false }
    }

    #[test]
    fn recording_tracer_tracks_inflight_per_class() {
        let mut t = RecordingTracer::new();
        t.packet_launched(&host_ev(0, TrafficClass::Unscheduled, 0));
        t.packet_launched(&host_ev(1, TrafficClass::Unscheduled, 1460));
        t.packet_launched(&host_ev(2, TrafficClass::Scheduled, 2920));
        assert_eq!(t.inflight_bytes(TrafficClass::Unscheduled), 2920);
        assert_eq!(t.inflight_bytes(TrafficClass::Scheduled), 1460);
        t.packet_delivered(&host_ev(5, TrafficClass::Unscheduled, 0));
        assert_eq!(t.inflight_bytes(TrafficClass::Unscheduled), 1460);
        // A drop also removes in-flight payload.
        let rec = QueueRecord {
            at: 6,
            node: NodeId(0),
            port: PortId(0),
            ev: QueueEvent::Drop(DropReason::SelectiveDrop),
            flow: FlowId(1),
            seq: 0,
            kind: PacketKind::Data,
            class: TrafficClass::Unscheduled,
            size: 1500,
            payload: 1460,
            qlen_bytes: 0,
            qlen_pkts: 0,
        };
        t.queue_event(&rec);
        assert_eq!(t.inflight_bytes(TrafficClass::Unscheduled), 0);
    }

    #[test]
    fn jsonl_is_deterministic_and_ordered() {
        let build = || {
            let mut t = RecordingTracer::with_config(RecordingConfig {
                ring_capacity: 4,
                sample_every: 10,
            });
            t.port_registered(NodeId(1), PortId(0), Rate::gbps(10), NodeId(0));
            t.port_registered(NodeId(0), PortId(0), Rate::gbps(10), NodeId(1));
            for i in 0..6u64 {
                t.queue_event(&QueueRecord {
                    at: i,
                    node: NodeId(0),
                    port: PortId(0),
                    ev: QueueEvent::Enqueue,
                    flow: FlowId(1),
                    seq: i * 1460,
                    kind: PacketKind::Data,
                    class: TrafficClass::Scheduled,
                    size: 1500,
                    payload: 1460,
                    qlen_bytes: (i + 1) * 1500,
                    qlen_pkts: (i + 1) as usize,
                });
            }
            t.link_tx(7, NodeId(0), PortId(0), 1500);
            t.transport_event(
                8,
                NodeId(0),
                &TransportEvent::LossDetected { flow: FlowId(1), bytes: 1460, cause: LossCause::Probe },
            );
            t.finish(40);
            t.to_jsonl()
        };
        let a = build();
        let b = build();
        assert_eq!(a, b, "identical event streams must serialize identically");
        // Structural sanity: meta first, ports sorted by (node, port), ring
        // capped at 4 with 2 dropped.
        let lines: Vec<&str> = a.lines().collect();
        assert!(lines[0].contains("\"type\":\"meta\""));
        assert!(lines[1].contains("\"node\":0"));
        assert!(lines[2].contains("\"node\":1"));
        assert!(a.contains("\"ring_dropped\":2"));
        assert!(a.contains("\"ev\":\"loss_detected\""));
        assert!(a.contains("\"cause\":\"probe\""));
        assert!(a.contains("\"name\":\"depth\""));
        assert!(a.contains("\"name\":\"inflight:sched\""));
        for line in &lines {
            assert!(line.starts_with('{') && line.ends_with('}'), "not a JSON object: {line}");
            assert_eq!(line.matches('{').count(), line.matches('}').count());
            assert_eq!(line.matches('[').count(), line.matches(']').count());
        }
    }

    /// A hand-built capture that reaches every rendering path of `to_jsonl`:
    /// ports registered out of `(node, port)` order, a queue event on a port
    /// that was never registered, a drop with its reason, bands first seen
    /// out of alphabetical order (a third joining between them later), the
    /// values 0 and `u64::MAX`, every fault shape that carries numbers, and
    /// every transport line.
    fn golden_capture() -> RecordingTracer {
        let cfg = RecordingConfig { ring_capacity: 8, sample_every: 10 };
        let mut t = RecordingTracer::with_config(cfg);
        t.port_registered(NodeId(2), PortId(1), Rate::gbps(100), NodeId(0));
        t.port_registered(NodeId(0), PortId(1), Rate::gbps(10), NodeId(2));
        t.port_registered(NodeId(2), PortId(0), Rate::gbps(40), NodeId(1));
        let (sched, unsched) = (TrafficClass::Scheduled, TrafficClass::Unscheduled);
        let (max, max_node) = (u64::MAX, NodeId(u32::MAX));
        // `at`, node, port, event, flow, seq, class, size, qlen bytes / pkts.
        let rec = |at, node, port, ev, flow, seq, class, size: u32, qlen_bytes, qlen_pkts| {
            QueueRecord {
                at,
                node: NodeId(node),
                port: PortId(port),
                ev,
                flow: FlowId(flow),
                seq,
                kind: PacketKind::Data,
                class,
                size,
                payload: size.saturating_sub(40),
                qlen_bytes,
                qlen_pkts,
            }
        };
        let host = |at, flow, seq, class, payload| HostEvent {
            at,
            flow: FlowId(flow),
            seq,
            class,
            payload,
            retransmit: false,
        };
        t.packet_launched(&host(0, 0, 0, unsched, 1460));
        t.packet_launched(&host(1, 1, 1460, sched, 2920));
        t.queue_event(&rec(0, 2, 1, QueueEvent::Enqueue, 0, 0, unsched, 0, 0, 0));
        t.queue_event(&rec(1, 2, 1, QueueEvent::EnqueueMarked, 1, 1460, sched, 1500, 1500, 1));
        t.queue_bands(1, NodeId(2), PortId(1), &[("data", 1500), ("ctrl", 0)]);
        let drop = QueueEvent::Drop(DropReason::SelectiveDrop);
        t.queue_event(&rec(3, 2, 1, drop, max, max, unsched, 1500, max, 1));
        // Port (1, 3) was never registered.
        t.queue_event(&rec(4, 1, 3, QueueEvent::EnqueueTrimmed, 7, 2920, sched, 1500, 64, 1));
        t.queue_bands(12, NodeId(2), PortId(1), &[("data", max), ("credit", 84), ("ctrl", 64)]);
        t.link_tx(6, NodeId(0), PortId(1), 1500);
        t.link_tx(14, NodeId(2), PortId(1), max);
        t.queue_event(&rec(15, 2, 1, QueueEvent::Dequeue, 1, 1460, sched, 1500, 0, 0));
        t.packet_delivered(&host(16, 1, 1460, sched, 1460));
        let f = FlowId(7);
        let (cause, last) = (LossCause::SackGap, LossCause::LastResort);
        for (at, host, ev) in [
            (2, 0, TransportEvent::CreditIssue { flow: f, bytes: 0 }),
            (2, 1, TransportEvent::CreditReceipt { flow: f, bytes: 1460 }),
            (5, 1, TransportEvent::BurstStart { flow: f, bytes: max }),
            (6, 1, TransportEvent::BurstStop { flow: f, sent: 0 }),
            (9, 1, TransportEvent::LossDetected { flow: f, bytes: 1460, cause }),
            (17, 1, TransportEvent::Retransmit { flow: FlowId(max), bytes: 1460, cause: last }),
        ] {
            t.transport_event(at, NodeId(host), &ev);
        }
        let killed = FaultEvent::PacketKilled {
            node: NodeId(0),
            port: PortId(1),
            flow: f,
            seq: 2920,
            kind: PacketKind::Data,
            class: sched,
            payload: 1460,
            reason: DropReason::Corruption,
        };
        let degraded = WindowKind::Degraded { slowdown: 3 };
        for (at, ev) in [
            (7, FaultEvent::WindowStart { window: 0, kind: WindowKind::Down }),
            (8, killed),
            (11, FaultEvent::WindowEnd { window: usize::MAX, kind: degraded }),
            (13, FaultEvent::NodeCrash { node: NodeId(0) }),
            (18, FaultEvent::NodeRestart { node: max_node }),
            (19, FaultEvent::FlowAborted { flow: FlowId(0), cause: AbortCause::PeerSilent }),
            (20, FaultEvent::FlowRestarted { flow: FlowId(0) }),
        ] {
            t.fault_event(at, &ev);
        }
        t.finish(30);
        t
    }

    /// Every byte of `to_jsonl` on [`golden_capture`]: the capture format is
    /// a contract that tools and byte-compares rely on. Fails if bands render
    /// in insertion order, ports in registration order, or the digit writer
    /// prints 0 as nothing.
    #[test]
    fn jsonl_golden_bytes() {
        let expect = concat!(
            r#"{"type":"meta","version":1,"ports":4,"transport_events":6,"sample_interval_ps":10}"#, "\n",
            r#"{"type":"port","node":0,"port":1,"to":2,"rate_bps":10000000000,"ring_len":0,"ring_dropped":0}"#, "\n",
            r#"{"type":"port","node":1,"port":3,"to":1,"rate_bps":0,"ring_len":1,"ring_dropped":0}"#, "\n",
            r#"{"type":"port","node":2,"port":0,"to":1,"rate_bps":40000000000,"ring_len":0,"ring_dropped":0}"#, "\n",
            r#"{"type":"port","node":2,"port":1,"to":0,"rate_bps":100000000000,"ring_len":4,"ring_dropped":0}"#, "\n",
            r#"{"type":"queue","at":4,"node":1,"port":3,"ev":"enqueue_trimmed","flow":7,"seq":2920,"kind":"data","class":"sched","size":1500,"payload":1460,"qlen":64,"qpkts":1}"#, "\n",
            r#"{"type":"queue","at":0,"node":2,"port":1,"ev":"enqueue","flow":0,"seq":0,"kind":"data","class":"unsched","size":0,"payload":0,"qlen":0,"qpkts":0}"#, "\n",
            r#"{"type":"queue","at":1,"node":2,"port":1,"ev":"enqueue_marked","flow":1,"seq":1460,"kind":"data","class":"sched","size":1500,"payload":1460,"qlen":1500,"qpkts":1}"#, "\n",
            r#"{"type":"queue","at":3,"node":2,"port":1,"ev":"drop","reason":"selective_drop","flow":18446744073709551615,"seq":18446744073709551615,"kind":"data","class":"unsched","size":1500,"payload":1460,"qlen":18446744073709551615,"qpkts":1}"#, "\n",
            r#"{"type":"queue","at":15,"node":2,"port":1,"ev":"dequeue","flow":1,"seq":1460,"kind":"data","class":"sched","size":1500,"payload":1460,"qlen":0,"qpkts":0}"#, "\n",
            r#"{"type":"transport","at":2,"host":0,"ev":"credit_issue","flow":7,"bytes":0}"#, "\n",
            r#"{"type":"transport","at":2,"host":1,"ev":"credit_receipt","flow":7,"bytes":1460}"#, "\n",
            r#"{"type":"transport","at":5,"host":1,"ev":"burst_start","flow":7,"bytes":18446744073709551615}"#, "\n",
            r#"{"type":"transport","at":6,"host":1,"ev":"burst_stop","flow":7,"sent":0}"#, "\n",
            r#"{"type":"transport","at":9,"host":1,"ev":"loss_detected","flow":7,"bytes":1460,"cause":"sack_gap"}"#, "\n",
            r#"{"type":"transport","at":17,"host":1,"ev":"retransmit","flow":18446744073709551615,"bytes":1460,"cause":"last_resort"}"#, "\n",
            r#"{"type":"fault","at":7,"ev":"window_start","window":0,"kind":"down"}"#, "\n",
            r#"{"type":"fault","at":8,"ev":"killed","node":0,"port":1,"flow":7,"seq":2920,"kind":"data","class":"sched","payload":1460,"reason":"corruption"}"#, "\n",
            r#"{"type":"fault","at":11,"ev":"window_end","window":18446744073709551615,"kind":"degraded"}"#, "\n",
            r#"{"type":"fault","at":13,"ev":"node_crash","node":0}"#, "\n",
            r#"{"type":"fault","at":18,"ev":"node_restart","node":4294967295}"#, "\n",
            r#"{"type":"fault","at":19,"ev":"flow_aborted","flow":0,"cause":"peer_silent"}"#, "\n",
            r#"{"type":"fault","at":20,"ev":"flow_restarted","flow":0}"#, "\n",
            r#"{"type":"series","name":"depth","node":0,"port":1,"samples":[[10,0],[20,0],[30,0]]}"#, "\n",
            r#"{"type":"series","name":"tx_bytes","node":0,"port":1,"samples":[[10,1500],[20,0],[30,0]]}"#, "\n",
            r#"{"type":"series","name":"depth","node":1,"port":3,"samples":[[10,64],[20,64],[30,64]]}"#, "\n",
            r#"{"type":"series","name":"tx_bytes","node":1,"port":3,"samples":[[10,0],[20,0],[30,0]]}"#, "\n",
            r#"{"type":"series","name":"depth","node":2,"port":0,"samples":[[10,0],[20,0],[30,0]]}"#, "\n",
            r#"{"type":"series","name":"tx_bytes","node":2,"port":0,"samples":[[10,0],[20,0],[30,0]]}"#, "\n",
            r#"{"type":"series","name":"depth","node":2,"port":1,"samples":[[10,18446744073709551615],[20,0],[30,0]]}"#, "\n",
            r#"{"type":"series","name":"tx_bytes","node":2,"port":1,"samples":[[10,0],[20,18446744073709551615],[30,0]]}"#, "\n",
            r#"{"type":"series","name":"band:credit","node":2,"port":1,"samples":[[10,0],[20,84],[30,84]]}"#, "\n",
            r#"{"type":"series","name":"band:ctrl","node":2,"port":1,"samples":[[10,0],[20,64],[30,64]]}"#, "\n",
            r#"{"type":"series","name":"band:data","node":2,"port":1,"samples":[[10,1500],[20,18446744073709551615],[30,18446744073709551615]]}"#, "\n",
            r#"{"type":"series","name":"inflight:sched","samples":[[10,1460],[20,0],[30,0]]}"#, "\n",
            r#"{"type":"series","name":"inflight:unsched","samples":[[10,0],[20,0],[30,0]]}"#, "\n",
            r#"{"type":"series","name":"inflight:ctrl","samples":[[10,0],[20,0],[30,0]]}"#, "\n",
        );
        assert_eq!(golden_capture().to_jsonl(), expect);
    }

    /// A ring that wrapped: capacity 2, five pushes. The last two share an
    /// instant, so `flow_records`' stable sort keeps their ring order. Fails
    /// if the ring renders or rebuilds newest-first, if a wrapped ring
    /// reports the wrong fill or overwrite count, if a drop reason or class
    /// code decodes to another value, or if a rebuilt packet kind loses its
    /// fields.
    fn wrapped_capture() -> RecordingTracer {
        let cfg = RecordingConfig { ring_capacity: 2, sample_every: 10 };
        let mut t = RecordingTracer::with_config(cfg);
        t.port_registered(NodeId(3), PortId(2), Rate::gbps(10), NodeId(4));
        let (unsched, sched) = (TrafficClass::Unscheduled, TrafficClass::Scheduled);
        let ack = PacketKind::Ack { of_probe: true, end: 99 };
        let drop = QueueEvent::Drop(DropReason::StaleIncarnation);
        for (i, (at, ev, kind, class)) in [
            (0, QueueEvent::Enqueue, PacketKind::Data, unsched),
            (1, QueueEvent::EnqueueMarked, PacketKind::Credit, sched),
            (2, QueueEvent::Dequeue, PacketKind::Data, unsched),
            (5, drop, PacketKind::Schedule { start: 1, slots: 2, stride: 3 }, unsched),
            (5, QueueEvent::Dequeue, ack, TrafficClass::Control),
        ]
        .into_iter()
        .enumerate()
        {
            t.queue_event(&QueueRecord {
                at,
                node: NodeId(3),
                port: PortId(2),
                ev,
                flow: FlowId(7),
                seq: i as u64 * 1460,
                kind,
                class,
                size: 1500,
                payload: 1460,
                qlen_bytes: 3000 - i as u64 * 100,
                qlen_pkts: 5 - i,
            });
        }
        t.finish(10);
        t
    }

    #[test]
    fn jsonl_golden_bytes_of_a_wrapped_ring() {
        let t = wrapped_capture();
        let expect = concat!(
            r#"{"type":"meta","version":1,"ports":1,"transport_events":0,"sample_interval_ps":10}"#, "\n",
            r#"{"type":"port","node":3,"port":2,"to":4,"rate_bps":10000000000,"ring_len":2,"ring_dropped":3}"#, "\n",
            r#"{"type":"queue","at":5,"node":3,"port":2,"ev":"drop","reason":"stale_incarnation","flow":7,"seq":4380,"kind":"schedule","class":"unsched","size":1500,"payload":1460,"qlen":2700,"qpkts":2}"#, "\n",
            r#"{"type":"queue","at":5,"node":3,"port":2,"ev":"dequeue","flow":7,"seq":5840,"kind":"ack","class":"ctrl","size":1500,"payload":1460,"qlen":2600,"qpkts":1}"#, "\n",
            r#"{"type":"series","name":"depth","node":3,"port":2,"samples":[[10,2600]]}"#, "\n",
            r#"{"type":"series","name":"tx_bytes","node":3,"port":2,"samples":[[10,0]]}"#, "\n",
            r#"{"type":"series","name":"inflight:sched","samples":[[10,0]]}"#, "\n",
            r#"{"type":"series","name":"inflight:unsched","samples":[[10,0]]}"#, "\n",
            r#"{"type":"series","name":"inflight:ctrl","samples":[[10,0]]}"#, "\n",
        );
        assert_eq!(t.to_jsonl(), expect);
        let (_, pt) = t.ports().next().expect("one port");
        assert_eq!((pt.ring_len(), pt.ring_dropped()), (2, 3));
        // The same two records, rebuilt oldest first, each packet kind with
        // the fields it was recorded with.
        let life: Vec<_> = t
            .flow_records(FlowId(7))
            .iter()
            .map(|r| {
                (r.at, r.node, r.port, r.ev, r.seq, r.kind, r.class, r.qlen_bytes, r.qlen_pkts)
            })
            .collect();
        let schedule = PacketKind::Schedule { start: 1, slots: 2, stride: 3 };
        let ack = PacketKind::Ack { of_probe: true, end: 99 };
        let (n, p) = (NodeId(3), PortId(2));
        let drop = QueueEvent::Drop(DropReason::StaleIncarnation);
        assert_eq!(
            life,
            vec![
                (5, n, p, drop, 4380, schedule, TrafficClass::Unscheduled, 2700, 2),
                (5, n, p, QueueEvent::Dequeue, 5840, ack, TrafficClass::Control, 2600, 1),
            ]
        );
        let kept: Vec<_> = pt.records().map(|r| (r.seq, r.kind)).collect();
        assert_eq!(kept, vec![(4380, schedule), (5840, ack)]);
    }

    /// Every code a ring or the transport log stores decodes to the value it
    /// encoded. Fails if a code table falls out of its enum's order.
    #[test]
    fn record_codes_round_trip() {
        let evs = [
            QueueEvent::Enqueue,
            QueueEvent::EnqueueMarked,
            QueueEvent::EnqueueTrimmed,
            QueueEvent::Dequeue,
        ];
        for ev in evs.into_iter().chain(DROP_REASONS.map(QueueEvent::Drop)) {
            assert_eq!(queue_ev(queue_ev_code(ev)), ev);
        }
        for (code, class) in CLASSES.into_iter().enumerate() {
            assert_eq!(class_idx(class), code);
        }
        let f = FlowId(u64::MAX);
        for cause in LOSS_CAUSES {
            for ev in [
                TransportEvent::CreditIssue { flow: f, bytes: 1 },
                TransportEvent::CreditReceipt { flow: f, bytes: 2 },
                TransportEvent::BurstStart { flow: f, bytes: 3 },
                TransportEvent::BurstStop { flow: f, sent: u64::MAX },
                TransportEvent::LossDetected { flow: f, bytes: 4, cause },
                TransportEvent::Retransmit { flow: f, bytes: 5, cause },
            ] {
                assert_eq!(TransportSlot::new(9, NodeId(u32::MAX), &ev).event(), ev);
            }
        }
    }

    /// The fixed-width slots against the types they stand for. Fails if a
    /// slot field is widened or a code grows past a byte.
    #[test]
    fn recorder_slots_stay_small() {
        use std::mem::size_of;
        assert_eq!(size_of::<QueueSlot>(), 72);
        assert_eq!(size_of::<QueueRecord>(), 80);
        assert_eq!(size_of::<TransportSlot>(), 32);
        assert_eq!(size_of::<(Time, NodeId, TransportEvent)>(), 40);
        assert_eq!(size_of::<Run>(), 16);
    }
}
