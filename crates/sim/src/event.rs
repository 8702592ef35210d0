//! Discrete-event scheduler.
//!
//! The default scheduler is a **timing wheel** tuned for DES access
//! patterns: most events land within a few link-serialization times of
//! `now`, so they hit an O(1) bucket insert instead of an O(log n) heap
//! sift, and the hot pop path touches one small per-tick heap instead of a
//! cache-hostile global heap. A binary-heap scheduler is kept behind
//! [`SchedulerKind::BinaryHeap`] as the reference implementation for
//! benchmarks and determinism cross-checks.
//!
//! Both schedulers implement the same deterministic contract: events pop in
//! non-decreasing time order, FIFO within a tick (the order they were
//! scheduled). The engine is strictly single-threaded — per the project
//! guides, a CPU-bound discrete-event simulation gains nothing from an
//! async runtime.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::packet::{FlowDesc, NodeId, PortId};
use crate::pool::PacketRef;
use crate::units::Time;

/// An event to be dispatched by the network.
#[derive(Debug)]
pub enum Event {
    /// The last bit of `pkt` arrived at `node`.
    ///
    /// The packet lives in the network's [`crate::pool::PacketPool`]; the
    /// event carries a 4-byte recycled handle, so moving events through
    /// scheduler internals costs no allocation and no large struct copies.
    Arrival {
        /// Receiving node.
        node: NodeId,
        /// Handle of the packet, fully received.
        pkt: PacketRef,
    },
    /// Egress `port` of `node` finished serializing its current packet.
    PortFree {
        /// The transmitting node.
        node: NodeId,
        /// The now-idle port.
        port: PortId,
    },
    /// A paced queue on `port` of `node` may have become ready.
    PortKick {
        /// The paced node.
        node: NodeId,
        /// The paced port.
        port: PortId,
    },
    /// A timer set by the endpoint on `node` fired.
    Timer {
        /// The host whose endpoint armed the timer.
        node: NodeId,
        /// The token passed to `Ctx::set_timer_in_with`.
        token: u64,
    },
    /// A new application flow arrives at its source host.
    FlowArrival {
        /// The flow description. Boxed: flow arrivals are rare (one per
        /// flow), and an inline `FlowDesc` would inflate every [`Event`] —
        /// and therefore every scheduler copy on the hot path — from 16 to
        /// 40 bytes.
        flow: Box<FlowDesc>,
    },
    /// A fault window transitions (start or end): a link window re-kicks
    /// the ports it covers so stalled queues wake up when a link comes back;
    /// a node window crashes or restarts its node. Only scheduled when a
    /// non-empty fault plan is installed.
    Fault {
        /// Index into the installed plan's bound window list.
        window: usize,
        /// True at the window start, false at its end.
        start: bool,
    },
}

impl Event {
    /// Name of each kind, in [`Event::kind`] order.
    pub const KINDS: [&'static str; 6] =
        ["arrival", "port_free", "port_kick", "timer", "flow_arrival", "fault"];

    /// Index of this event's kind into [`Event::KINDS`].
    #[inline]
    pub fn kind(&self) -> usize {
        match self {
            Event::Arrival { .. } => 0,
            Event::PortFree { .. } => 1,
            Event::PortKick { .. } => 2,
            Event::Timer { .. } => 3,
            Event::FlowArrival { .. } => 4,
            Event::Fault { .. } => 5,
        }
    }
}

/// Event counts by kind, in [`Event::KINDS`] order.
pub type EventMix = [u64; Event::KINDS.len()];

/// A place in the event order, taken with [`EventQueue::reserve`] at the
/// moment an event *would* be scheduled and filled — or not — later.
///
/// An event is worth queueing only if something will observe it, but its
/// rank among same-picosecond events is behaviour: every `schedule_at` made
/// after the reservation must keep the rank it would have had. A `Place`
/// separates the two: reserving consumes the sequence number, so the order
/// of everything else is fixed either way, and the event itself goes in
/// under that number only when [`EventQueue::fill`] is called.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Place {
    at: Time,
    seq: u64,
}

impl Place {
    /// The place before every event: passed on any queue, at any time.
    pub const START: Place = Place { at: 0, seq: 0 };
}

struct Scheduled {
    at: Time,
    seq: u64,
    event: Event,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (and, within a
        // tick, the first-scheduled) event is popped first.
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Which scheduler implementation an [`EventQueue`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Timing wheel with an overflow heap (default, fast path).
    #[default]
    TimingWheel,
    /// Plain binary heap (the original scheduler; reference/baseline).
    BinaryHeap,
}

// ---------------------------------------------------------------------------
// Binary-heap scheduler (reference implementation)
// ---------------------------------------------------------------------------

/// The original binary-heap scheduler, kept as the comparison baseline.
struct HeapScheduler {
    heap: BinaryHeap<Scheduled>,
}

impl HeapScheduler {
    fn new() -> HeapScheduler {
        HeapScheduler { heap: BinaryHeap::new() }
    }

    #[inline]
    fn push(&mut self, s: Scheduled) {
        self.heap.push(s);
    }

    #[inline]
    fn pop(&mut self) -> Option<Scheduled> {
        self.heap.pop()
    }

    #[inline]
    fn pop_at_or_before(&mut self, limit: Time) -> Option<Scheduled> {
        if self.heap.peek()?.at > limit {
            return None;
        }
        self.heap.pop()
    }

    fn peek_time(&self) -> Option<Time> {
        self.heap.peek().map(|s| s.at)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

// ---------------------------------------------------------------------------
// Timing-wheel scheduler
// ---------------------------------------------------------------------------

/// log2 of the wheel tick in picoseconds: 2^16 ps ≈ 65.5 ns, about half the
/// serialization time of an MTU frame at 100 Gbps — fine-grained enough that
/// a tick rarely holds more than a handful of events.
const TICK_SHIFT: u32 = 16;
/// log2 of the bucket count: 4096 buckets ≈ 268 µs of horizon, which covers
/// serialization + propagation of every hop in the paper's topologies.
/// Events beyond it (RTOs, drain timers) go to the overflow heap.
const WHEEL_BITS: u32 = 12;
const WHEEL_SIZE: usize = 1 << WHEEL_BITS;
const WHEEL_MASK: u64 = (WHEEL_SIZE as u64) - 1;
/// One summary bit per 64-bucket occupancy word.
const WORDS: usize = WHEEL_SIZE / 64;

/// Slab slot holding one bucketed event plus the intrusive FIFO link to the
/// next event of the same tick ([`NIL`] terminates the list).
struct BucketNode {
    s: Scheduled,
    next: u32,
}

/// Sentinel for "no slot" in the bucket slab's intrusive lists.
const NIL: u32 = u32::MAX;

/// Timing-wheel scheduler: one rotation of `WHEEL_SIZE` buckets of
/// `2^TICK_SHIFT` ps each, a small heap for the tick being drained, and an
/// overflow heap for events beyond the horizon.
///
/// Bucketed events live in one recycling slab (`nodes` + `free`) threaded
/// into per-bucket intrusive FIFO lists. Per-bucket `Vec`s would keep
/// reallocating for the whole run — 4096 independent buffers, each growing
/// the first time *it* sees a deeper tick — whereas the shared slab reaches
/// its high-water mark during warm-up and never touches the allocator
/// again (the steady-state zero-allocation invariant).
///
/// Invariants:
/// * `base_tick == now >> TICK_SHIFT` whenever events are pending — events
///   of the current tick live in `cur`, so wheel buckets only ever hold
///   ticks in `(base_tick, base_tick + WHEEL_SIZE)`;
/// * every overflow event's tick is `>= base_tick + WHEEL_SIZE` (re-checked
///   after every cursor advance), so the earliest pending event is always
///   `cur`'s min, else the first occupied bucket's min, else overflow's min.
struct WheelScheduler {
    base_tick: u64,
    len: usize,
    /// Events of the tick currently being drained, sorted **descending** by
    /// `(at, seq)` so the next event is an O(1) `Vec::pop` off the end. A
    /// tick is ≈65.5 ns, so this rarely holds more than a handful of
    /// events — one `sort_unstable` per drained bucket beats a binary
    /// heap's per-element sift-down.
    cur: Vec<Scheduled>,
    /// Slab backing every bucketed event.
    nodes: Vec<BucketNode>,
    /// Recycled slab slots.
    free: Vec<u32>,
    /// Per-bucket FIFO list heads/tails into `nodes`.
    head: Vec<u32>,
    tail: Vec<u32>,
    /// Occupancy bitmap over buckets plus a one-word summary, so finding
    /// the next occupied bucket is two `trailing_zeros`, not a scan.
    occupied: [u64; WORDS],
    summary: u64,
    /// Events at `tick >= base_tick + WHEEL_SIZE`.
    overflow: BinaryHeap<Scheduled>,
}

impl WheelScheduler {
    fn new() -> WheelScheduler {
        WheelScheduler {
            base_tick: 0,
            len: 0,
            cur: Vec::new(),
            nodes: Vec::new(),
            free: Vec::new(),
            head: vec![NIL; WHEEL_SIZE],
            tail: vec![NIL; WHEEL_SIZE],
            occupied: [0; WORDS],
            summary: 0,
            overflow: BinaryHeap::new(),
        }
    }

    /// Append `s` to bucket `idx`'s FIFO list, reusing a recycled slab slot
    /// when one is available.
    fn bucket_push(&mut self, idx: usize, s: Scheduled) {
        let node = BucketNode { s, next: NIL };
        let slot = match self.free.pop() {
            Some(i) => {
                self.nodes[i as usize] = node;
                i
            }
            None => {
                self.nodes.push(node);
                (self.nodes.len() - 1) as u32
            }
        };
        if self.head[idx] == NIL {
            self.head[idx] = slot;
            self.set_bit(idx);
        } else {
            let t = self.tail[idx];
            self.nodes[t as usize].next = slot;
        }
        self.tail[idx] = slot;
    }

    /// Drain bucket `idx` into the cursor buffer, recycling its slab slots.
    /// Pop order is unaffected by list order: `(at, seq)` is a total order,
    /// so any insertion sequence sorts to the same pop sequence.
    fn bucket_drain_into_cur(&mut self, idx: usize) {
        let mut slot = self.head[idx];
        self.head[idx] = NIL;
        self.tail[idx] = NIL;
        self.clear_bit(idx);
        while slot != NIL {
            let node = &mut self.nodes[slot as usize];
            let next = node.next;
            // Move the event out, leaving an inert placeholder in the slot.
            let s = std::mem::replace(
                &mut node.s,
                Scheduled { at: 0, seq: 0, event: Event::PortFree { node: NodeId(0), port: PortId(0) } },
            );
            self.cur.push(s);
            self.free.push(slot);
            slot = next;
        }
        if self.cur.len() > 1 {
            self.cur.sort_unstable_by(|a, b| (b.at, b.seq).cmp(&(a.at, a.seq)));
        }
    }

    /// Insert `s` into the (descending-sorted) cursor buffer in order.
    fn cur_insert(&mut self, s: Scheduled) {
        let key = (s.at, s.seq);
        let pos = self.cur.partition_point(|e| (e.at, e.seq) > key);
        self.cur.insert(pos, s);
    }

    #[inline]
    fn set_bit(&mut self, idx: usize) {
        self.occupied[idx / 64] |= 1 << (idx % 64);
        self.summary |= 1 << (idx / 64);
    }

    #[inline]
    fn clear_bit(&mut self, idx: usize) {
        self.occupied[idx / 64] &= !(1 << (idx % 64));
        if self.occupied[idx / 64] == 0 {
            self.summary &= !(1 << (idx / 64));
        }
    }

    /// First occupied bucket index strictly after the cursor, in window
    /// order (i.e. by increasing tick), or None if the wheel is empty.
    fn next_occupied(&self) -> Option<usize> {
        if self.summary == 0 {
            return None;
        }
        let start = ((self.base_tick & WHEEL_MASK) as usize + 1) % WHEEL_SIZE;
        // The window [base_tick, base_tick + WHEEL_SIZE) maps bijectively
        // onto bucket indices; circular order from the cursor is tick order.
        // Scan the first (possibly partial) word, then whole words.
        let first_word = start / 64;
        let bits = self.occupied[first_word] >> (start % 64);
        if bits != 0 {
            return Some(start + bits.trailing_zeros() as usize);
        }
        for step in 1..=WORDS {
            let w = (first_word + step) % WORDS;
            if self.occupied[w] != 0 {
                return Some(w * 64 + self.occupied[w].trailing_zeros() as usize);
            }
        }
        None
    }

    #[inline]
    fn push(&mut self, s: Scheduled) {
        self.len += 1;
        let tick = s.at >> TICK_SHIFT;
        // `<=`: a fused pop that answered "nothing due yet" may have moved
        // the cursor past `now`, and the caller can still legally schedule
        // before the cursor. Such events join `cur`, whose sort keeps them
        // ahead of every bucketed (strictly later-tick) event.
        if tick <= self.base_tick {
            self.cur_insert(s);
        } else if tick < self.base_tick + WHEEL_SIZE as u64 {
            let idx = (tick & WHEEL_MASK) as usize;
            self.bucket_push(idx, s);
        } else {
            self.overflow.push(s);
        }
    }

    /// Pull every overflow event that now falls inside the wheel window.
    fn migrate_overflow(&mut self) {
        let horizon = self.base_tick + WHEEL_SIZE as u64;
        while let Some(s) = self.overflow.peek() {
            let tick = s.at >> TICK_SHIFT;
            if tick >= horizon {
                break;
            }
            let s = self.overflow.pop().expect("peeked");
            if tick == self.base_tick {
                self.cur_insert(s);
            } else {
                let idx = (tick & WHEEL_MASK) as usize;
                self.bucket_push(idx, s);
            }
        }
    }

    /// Move the cursor to the tick of the earliest pending event and load
    /// that tick into `cur`. Caller guarantees `cur` is empty and `len > 0`.
    fn advance(&mut self) {
        debug_assert!(self.cur.is_empty() && self.len > 0);
        if let Some(idx) = self.next_occupied() {
            let cursor = (self.base_tick & WHEEL_MASK) as usize;
            let delta = (idx + WHEEL_SIZE - cursor) % WHEEL_SIZE;
            self.base_tick += delta as u64;
            self.bucket_drain_into_cur(idx % WHEEL_SIZE);
        } else {
            let at = self.overflow.peek().expect("len > 0 with empty wheel").at;
            self.base_tick = at >> TICK_SHIFT;
        }
        self.migrate_overflow();
        debug_assert!(!self.cur.is_empty());
    }

    fn pop(&mut self) -> Option<Scheduled> {
        if self.len == 0 {
            return None;
        }
        if self.cur.is_empty() {
            self.advance();
        }
        self.len -= 1;
        let s = self.cur.pop().expect("advance loads the cursor tick");
        // max: `cur` may hold pre-cursor events (see `push`); the cursor
        // never moves backwards or bucketed ticks would alias.
        self.base_tick = self.base_tick.max(s.at >> TICK_SHIFT);
        Some(s)
    }

    /// Pop the next event only if it fires at or before `limit`; otherwise
    /// leave it pending. Fused peek + pop: the run loops call this once per
    /// event instead of scanning for the next occupied bucket twice.
    fn pop_at_or_before(&mut self, limit: Time) -> Option<Scheduled> {
        if self.len == 0 {
            return None;
        }
        if self.cur.is_empty() {
            self.advance();
        }
        if self.cur.last().expect("advance loads the cursor tick").at > limit {
            return None;
        }
        self.len -= 1;
        let s = self.cur.pop().expect("checked non-empty");
        self.base_tick = self.base_tick.max(s.at >> TICK_SHIFT);
        Some(s)
    }

    fn peek_time(&self) -> Option<Time> {
        if let Some(s) = self.cur.last() {
            return Some(s.at);
        }
        if let Some(idx) = self.next_occupied() {
            let mut slot = self.head[idx % WHEEL_SIZE];
            debug_assert!(slot != NIL, "occupied bucket is non-empty");
            let mut min = (Time::MAX, u64::MAX);
            while slot != NIL {
                let node = &self.nodes[slot as usize];
                min = min.min((node.s.at, node.s.seq));
                slot = node.next;
            }
            return Some(min.0);
        }
        self.overflow.peek().map(|s| s.at)
    }

    fn len(&self) -> usize {
        self.len
    }
}

// ---------------------------------------------------------------------------
// Public facade
// ---------------------------------------------------------------------------

enum Impl {
    Wheel(WheelScheduler),
    Heap(HeapScheduler),
}

/// Event queue with the current simulated time.
pub struct EventQueue {
    now: Time,
    /// Sequence number of the event last popped — with `now`, the place in
    /// the order the run has reached. 0 (no event's number) before the first.
    now_seq: u64,
    /// Next sequence number to hand out; starts at 1 so that
    /// [`Place::START`] precedes every real place.
    seq: u64,
    imp: Impl,
}

impl Default for EventQueue {
    fn default() -> Self {
        Self::new()
    }
}

impl EventQueue {
    /// An empty queue at time zero using the default (timing-wheel)
    /// scheduler.
    pub fn new() -> EventQueue {
        EventQueue::with_scheduler(SchedulerKind::TimingWheel)
    }

    /// An empty queue at time zero using the given scheduler.
    pub fn with_scheduler(kind: SchedulerKind) -> EventQueue {
        let imp = match kind {
            SchedulerKind::TimingWheel => Impl::Wheel(WheelScheduler::new()),
            SchedulerKind::BinaryHeap => Impl::Heap(HeapScheduler::new()),
        };
        EventQueue { now: 0, now_seq: 0, seq: 1, imp }
    }

    /// Which scheduler this queue runs on.
    pub fn scheduler(&self) -> SchedulerKind {
        match self.imp {
            Impl::Wheel(_) => SchedulerKind::TimingWheel,
            Impl::Heap(_) => SchedulerKind::BinaryHeap,
        }
    }

    /// Current simulated time (the timestamp of the last popped event).
    #[inline]
    pub fn now(&self) -> Time {
        self.now
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — a causality bug in the caller.
    pub fn schedule_at(&mut self, at: Time, event: Event) {
        let place = self.reserve(at);
        self.push(place, event);
    }

    /// Take the place in the event order a `schedule_at(at, ..)` made now
    /// would get, without queueing anything: `len()` and the pop sequence
    /// are untouched until (and unless) the place is [filled](Self::fill).
    ///
    /// # Panics
    /// Panics if `at` is in the past — a causality bug in the caller.
    pub fn reserve(&mut self, at: Time) -> Place {
        assert!(at >= self.now, "event scheduled in the past: {} < {}", at, self.now);
        let seq = self.seq;
        self.seq += 1;
        Place { at, seq }
    }

    /// Queue `event` at a reserved `place`: it pops exactly where a
    /// `schedule_at` made at reservation time would have. Both schedulers
    /// order by `(at, seq)` wherever an event lands — the cursor buffer, a
    /// bucket, the overflow heap — so a late fill under an old number needs
    /// nothing from them. Filling one place twice is the caller's bug.
    ///
    /// # Panics
    /// Panics if the run is already past `place`: the event could no longer
    /// fire where it was promised.
    pub fn fill(&mut self, place: Place, event: Event) {
        assert!(!self.passed(place), "place {place:?} filled after the run passed it");
        self.push(place, event);
    }

    /// Has the run reached `place` — is the event being dispatched the one
    /// filled into it, or one ordered after it?
    #[inline]
    pub fn passed(&self, place: Place) -> bool {
        (place.at, place.seq) <= (self.now, self.now_seq)
    }

    #[inline]
    fn push(&mut self, place: Place, event: Event) {
        let s = Scheduled { at: place.at, seq: place.seq, event };
        match &mut self.imp {
            Impl::Wheel(w) => w.push(s),
            Impl::Heap(h) => h.push(s),
        }
    }

    /// Advance the clock to a popped event's place and hand it out.
    #[inline]
    fn reached(&mut self, s: Scheduled) -> (Time, Event) {
        debug_assert!((s.at, s.seq) > (self.now, self.now_seq));
        self.now = s.at;
        self.now_seq = s.seq;
        (s.at, s.event)
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, Event)> {
        let s = match &mut self.imp {
            Impl::Wheel(w) => w.pop()?,
            Impl::Heap(h) => h.pop()?,
        };
        Some(self.reached(s))
    }

    /// Pop the next event only if it fires at or before `limit`, advancing
    /// the clock to its timestamp; returns `None` (and leaves the event
    /// pending) otherwise. The hot-loop form of `peek_time` + `pop`: one
    /// scheduler lookup per event instead of two.
    pub fn pop_at_or_before(&mut self, limit: Time) -> Option<(Time, Event)> {
        let s = match &mut self.imp {
            Impl::Wheel(w) => w.pop_at_or_before(limit)?,
            Impl::Heap(h) => h.pop_at_or_before(limit)?,
        };
        Some(self.reached(s))
    }

    /// Timestamp of the next pending event without popping it.
    pub fn peek_time(&self) -> Option<Time> {
        match &self.imp {
            Impl::Wheel(w) => w.peek_time(),
            Impl::Heap(h) => h.peek_time(),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.imp {
            Impl::Wheel(w) => w.len(),
            Impl::Heap(h) => h.len(),
        }
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;
    use crate::rng::SimRng;

    fn timer(token: u64) -> Event {
        Event::Timer { node: NodeId(0), token }
    }

    const BOTH: [SchedulerKind; 2] = [SchedulerKind::TimingWheel, SchedulerKind::BinaryHeap];

    #[test]
    fn pops_in_time_order() {
        for kind in BOTH {
            let mut q = EventQueue::with_scheduler(kind);
            q.schedule_at(30, timer(3));
            q.schedule_at(10, timer(1));
            q.schedule_at(20, timer(2));
            let order: Vec<u64> = std::iter::from_fn(|| q.pop())
                .map(|(_, e)| match e {
                    Event::Timer { token, .. } => token,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(order, vec![1, 2, 3]);
            assert_eq!(q.now(), 30);
        }
    }

    #[test]
    fn same_tick_fifo_tie_break() {
        for kind in BOTH {
            let mut q = EventQueue::with_scheduler(kind);
            for t in 0..100 {
                q.schedule_at(42, timer(t));
            }
            let order: Vec<u64> = std::iter::from_fn(|| q.pop())
                .map(|(_, e)| match e {
                    Event::Timer { token, .. } => token,
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>());
        }
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule_at(100, timer(0));
        q.pop();
        q.schedule_at(99, timer(1));
    }

    #[test]
    fn flow_arrival_events_carry_descriptor() {
        let mut q = EventQueue::new();
        let f = FlowDesc { id: FlowId(7), src: NodeId(1), dst: NodeId(2), size: 1000, start: 5 };
        q.schedule_at(5, Event::FlowArrival { flow: Box::new(f) });
        match q.pop() {
            Some((5, Event::FlowArrival { flow })) => assert_eq!(*flow, f),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn event_stays_small() {
        // Every scheduler move copies an `Event`; keep it two words.
        assert!(std::mem::size_of::<Event>() <= 16, "{}", std::mem::size_of::<Event>());
        // ... and every send and delivery copies a `Packet` in or out of
        // the pool: a field nothing reads does not earn its bytes.
        let pkt = std::mem::size_of::<crate::packet::Packet>();
        assert!(pkt <= 104, "{pkt}");
    }

    #[test]
    fn fused_pop_respects_limit_and_leaves_events_pending() {
        for kind in BOTH {
            let mut q = EventQueue::with_scheduler(kind);
            q.schedule_at(10, timer(0));
            q.schedule_at(20, timer(1));
            assert!(q.pop_at_or_before(5).is_none());
            // The refused event is still pending and the clock untouched.
            assert_eq!(q.now(), 0);
            assert_eq!(q.len(), 2);
            assert!(matches!(q.pop_at_or_before(10), Some((10, _))));
            assert!(matches!(q.pop_at_or_before(u64::MAX), Some((20, _))));
            assert!(q.pop_at_or_before(u64::MAX).is_none());
        }
    }

    #[test]
    fn schedule_before_the_advanced_cursor_after_refused_pop() {
        // A refused fused pop may advance the wheel cursor past `now`; a
        // subsequent schedule between `now` and the cursor must still pop
        // in strict time order (regression test for cursor aliasing).
        for kind in BOTH {
            let mut q = EventQueue::with_scheduler(kind);
            let far = 7 << TICK_SHIFT; // several ticks out, within the wheel
            q.schedule_at(far, timer(99));
            assert!(q.pop_at_or_before(1).is_none(), "nothing due yet");
            // Earlier than the (advanced) cursor, later than `now`.
            q.schedule_at(2, timer(1));
            q.schedule_at(1, timer(0));
            let order: Vec<(Time, u64)> = std::iter::from_fn(|| q.pop())
                .map(|(t, e)| match e {
                    Event::Timer { token, .. } => (t, token),
                    _ => unreachable!(),
                })
                .collect();
            assert_eq!(order, vec![(1, 0), (2, 1), (far, 99)]);
        }
    }

    /// Events far beyond the wheel horizon (overflow heap) and within it
    /// interleave correctly, including events scheduled while draining.
    #[test]
    fn overflow_and_wheel_interleave() {
        let horizon = (WHEEL_SIZE as u64) << TICK_SHIFT;
        let mut q = EventQueue::new();
        q.schedule_at(3 * horizon, timer(2));
        q.schedule_at(1, timer(0));
        q.schedule_at(horizon + 17, timer(1));
        q.schedule_at(10 * horizon, timer(3));
        assert_eq!(q.peek_time(), Some(1));
        let (t0, _) = q.pop().unwrap();
        assert_eq!(t0, 1);
        // Schedule more near `now` after the far-future events went in.
        q.schedule_at(5, timer(10));
        assert_eq!(q.peek_time(), Some(5));
        let order: Vec<(Time, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(t, e)| match e {
                Event::Timer { token, .. } => (t, token),
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(
            order,
            vec![(5, 10), (horizon + 17, 1), (3 * horizon, 2), (10 * horizon, 3)]
        );
    }

    /// The wheel and the heap produce byte-identical pop sequences for an
    /// adversarial random schedule with re-entrant scheduling.
    #[test]
    fn wheel_matches_heap_on_random_interleaved_schedules() {
        let run = |kind: SchedulerKind| {
            let mut rng = SimRng::seed_from_u64(2024);
            let mut q = EventQueue::with_scheduler(kind);
            for i in 0..500 {
                // Mix of near, mid, far and same-tick timestamps.
                let at = match i % 4 {
                    0 => rng.below(1 << 14),
                    1 => rng.below(1 << 22),
                    2 => rng.below(1 << 30),
                    _ => 999_999,
                };
                q.schedule_at(at, timer(i));
            }
            let mut popped = Vec::new();
            let mut extra = 4000u64;
            while let Some((t, e)) = q.pop() {
                let token = match e {
                    Event::Timer { token, .. } => token,
                    _ => unreachable!(),
                };
                popped.push((t, token));
                // Re-entrant scheduling from "handlers", as the engine does.
                if popped.len() % 7 == 0 && extra < 4300 {
                    q.schedule_at(t + rng.below(1 << 20), timer(extra));
                    extra += 1;
                }
            }
            popped
        };
        let wheel = run(SchedulerKind::TimingWheel);
        let heap = run(SchedulerKind::BinaryHeap);
        assert_eq!(wheel.len(), heap.len());
        assert_eq!(wheel, heap, "schedulers must agree event-for-event");
    }

    /// Differential check at extreme horizons: timestamps spanning many full
    /// wheel rotations (forcing repeated overflow-heap refills), clustered
    /// just inside/outside rotation boundaries, and re-entrant schedules
    /// landing exactly on `now`. The wheel must stay pop-for-pop identical
    /// to the reference heap.
    #[test]
    fn wheel_matches_heap_beyond_rotation_horizons() {
        let horizon = (WHEEL_SIZE as u64) << TICK_SHIFT;
        for seed in 0..6u64 {
            let run = |kind: SchedulerKind| {
                let mut rng = SimRng::seed_from_u64(0xA01u64 ^ seed);
                let mut q = EventQueue::with_scheduler(kind);
                for i in 0..400 {
                    let at = match i % 5 {
                        // Far future: up to ~1000 wheel rotations out.
                        0 => rng.below(1000) * horizon + rng.below(horizon),
                        // Hugging a rotation boundary from both sides.
                        1 => (rng.range_u64(1, 8)) * horizon - rng.below(3),
                        2 => (rng.below(8)) * horizon + rng.below(3),
                        // Same tick, different sub-tick offsets.
                        3 => (5 << TICK_SHIFT) + rng.below(1 << TICK_SHIFT),
                        // Near events.
                        _ => rng.below(1 << TICK_SHIFT),
                    };
                    q.schedule_at(at, timer(i));
                }
                let mut popped = Vec::new();
                let mut extra = 10_000u64;
                while let Some((t, e)) = q.pop() {
                    let token = match e {
                        Event::Timer { token, .. } => token,
                        _ => unreachable!(),
                    };
                    popped.push((t, token));
                    if popped.len() % 11 == 0 && extra < 10_100 {
                        // Re-entrant: zero-delay, next-rotation, far-future.
                        let at = match extra % 3 {
                            0 => t,
                            1 => t + horizon + rng.below(1 << TICK_SHIFT),
                            _ => t + 50 * horizon,
                        };
                        q.schedule_at(at, timer(extra));
                        extra += 1;
                    }
                }
                popped
            };
            let wheel = run(SchedulerKind::TimingWheel);
            let heap = run(SchedulerKind::BinaryHeap);
            assert_eq!(wheel, heap, "seed {seed}: schedulers disagree at extreme horizons");
        }
    }

    /// Events sharing one timestamp (and one wheel tick) pop in insertion
    /// order on both schedulers — the FIFO stability the engine's
    /// same-instant causality depends on.
    #[test]
    fn same_tick_ordering_is_insertion_stable() {
        let horizon = (WHEEL_SIZE as u64) << TICK_SHIFT;
        // Same instant, same tick (different instants), and a far-future
        // tick that only materializes after an overflow refill.
        for base in [0u64, 3 << TICK_SHIFT, 7 * horizon + (9 << TICK_SHIFT)] {
            for kind in BOTH {
                let mut q = EventQueue::with_scheduler(kind);
                for i in 0..64 {
                    // Two interleaved cohorts at two sub-tick instants.
                    q.schedule_at(base + (i % 2), timer(i));
                }
                let popped: Vec<(Time, u64)> = std::iter::from_fn(|| q.pop())
                    .map(|(t, e)| match e {
                        Event::Timer { token, .. } => (t, token),
                        _ => unreachable!(),
                    })
                    .collect();
                let expect: Vec<(Time, u64)> = (0..64)
                    .filter(|i| i % 2 == 0)
                    .map(|i| (base, i))
                    .chain((0..64).filter(|i| i % 2 == 1).map(|i| (base + 1, i)))
                    .collect();
                assert_eq!(popped, expect, "kind {kind:?} base {base}");
            }
        }
    }

    /// Everything left in `q`, as `(time, token)`.
    fn drain(q: &mut EventQueue) -> Vec<(Time, u64)> {
        std::iter::from_fn(|| q.pop())
            .map(|(t, e)| match e {
                Event::Timer { token, .. } => (t, token),
                _ => unreachable!(),
            })
            .collect()
    }

    /// A reserved place filled later pops exactly where a `schedule_at` made
    /// at reservation time would have — whether the fill lands in the tick
    /// being drained (`cur`), in a later bucket or beyond the wheel horizon
    /// (overflow), and whether it comes early or at the last moment, when
    /// the event ranked just ahead of the place is the one being dispatched.
    /// A `fill` that takes a fresh sequence number pops 99 after 3 instead.
    #[test]
    fn a_place_filled_late_pops_where_the_schedule_would_have() {
        let horizon = (WHEEL_SIZE as u64) << TICK_SHIFT;
        for (label, at) in
            [("cur", 15), ("bucket", 10 + (3 << TICK_SHIFT)), ("overflow", 10 + 2 * horizon)]
        {
            for kind in BOTH {
                for last_moment in [false, true] {
                    // `reserved`: take the place and fill it later; otherwise
                    // the reference, scheduling on the spot.
                    let run = |reserved: bool| {
                        let mut q = EventQueue::with_scheduler(kind);
                        q.schedule_at(10, timer(0));
                        q.schedule_at(at, timer(1));
                        let place = if reserved {
                            Some(q.reserve(at))
                        } else {
                            q.schedule_at(at, timer(99));
                            None
                        };
                        q.schedule_at(at, timer(2));
                        let mut popped = vec![q.pop().map(|(t, _)| (t, 0)).unwrap()];
                        q.schedule_at(at, timer(3));
                        if last_moment {
                            popped.push(q.pop().map(|(t, _)| (t, 1)).unwrap());
                            assert_eq!(q.now(), at);
                        }
                        if let Some(place) = place {
                            assert!(!q.passed(place));
                            q.fill(place, timer(99));
                        }
                        popped.extend(drain(&mut q));
                        popped
                    };
                    let want = vec![(10, 0), (at, 1), (at, 99), (at, 2), (at, 3)];
                    assert_eq!(run(false), want, "{label} {kind:?}: reference");
                    assert_eq!(run(true), want, "{label} {kind:?} last_moment={last_moment}");
                }
            }
        }
    }

    /// Reserving queues nothing: `len()` and the pop sequence are those of a
    /// queue that never heard of the place. Fails if `reserve` counts the
    /// place as pending or parks a placeholder event.
    #[test]
    fn an_unfilled_reservation_leaves_the_queue_untouched() {
        let horizon = (WHEEL_SIZE as u64) << TICK_SHIFT;
        for kind in BOTH {
            let run = |reserve: bool| {
                let mut q = EventQueue::with_scheduler(kind);
                let mut lens = Vec::new();
                for (i, at) in [5, 5, 9 << TICK_SHIFT, 3 * horizon].into_iter().enumerate() {
                    q.schedule_at(at, timer(i as u64));
                    if reserve {
                        q.reserve(at);
                        q.reserve(at + 1);
                    }
                    lens.push(q.len());
                }
                (lens, drain(&mut q), q.is_empty())
            };
            assert_eq!(run(true), run(false), "{kind:?}");
            assert_eq!(run(true).0, vec![1, 2, 3, 4]);
        }
    }

    /// `passed` follows `(at, seq)` order, not time alone: at one picosecond
    /// a place is open while the event ranked before it is dispatched and
    /// passed once the one ranked after it is. Fails if `passed` compares
    /// times only (either way round).
    fn pass_a_place_then_fill_it(kind: SchedulerKind) {
        let mut q = EventQueue::with_scheduler(kind);
        assert!(q.passed(Place::START), "nothing is held before the first event");
        q.schedule_at(10, timer(0));
        let place = q.reserve(10);
        q.schedule_at(10, timer(1));
        assert!(!q.passed(place));
        q.pop();
        assert_eq!(q.now(), 10);
        assert!(!q.passed(place), "the event ranked before the place is being dispatched");
        q.fill(place, timer(99));
        assert!(matches!(q.pop(), Some((10, Event::Timer { token: 99, .. }))));
        assert!(q.passed(place), "the place's own event is being dispatched");
        q.pop();
        assert!(q.passed(place));
        q.fill(place, timer(98));
    }

    #[test]
    #[should_panic(expected = "filled after the run passed it")]
    fn filling_a_passed_place_panics_on_the_wheel() {
        pass_a_place_then_fill_it(SchedulerKind::TimingWheel);
    }

    #[test]
    #[should_panic(expected = "filled after the run passed it")]
    fn filling_a_passed_place_panics_on_the_heap() {
        pass_a_place_then_fill_it(SchedulerKind::BinaryHeap);
    }

    #[test]
    fn len_tracks_pending_events() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        let horizon = (WHEEL_SIZE as u64) << TICK_SHIFT;
        q.schedule_at(0, timer(0));
        q.schedule_at(horizon * 2, timer(1));
        assert_eq!(q.len(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.pop().map(|(t, _)| t), None);
    }
}
