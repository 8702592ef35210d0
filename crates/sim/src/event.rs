//! Discrete-event scheduler.
//!
//! The default scheduler is a two-level **hierarchical timing wheel**
//! (Varghese & Lauck, SOSP '87) shaped by packet-level traffic: paced
//! credits and back-to-back frames put an event every few nanoseconds on a
//! large fabric, almost all of them within a few serialization times of
//! `now`, while retransmission timers sit milliseconds out. A binary-heap
//! scheduler is kept behind [`SchedulerKind::BinaryHeap`] as the reference
//! implementation for benchmarks and determinism cross-checks.
//!
//! Both schedulers implement the same deterministic contract: events pop in
//! non-decreasing time order, FIFO within a tick (the order they were
//! scheduled). The engine is strictly single-threaded — per the project
//! guides, a CPU-bound discrete-event simulation gains nothing from an
//! async runtime.
//!
//! # The wheel
//!
//! A fine level of 4.1 ns buckets holds the current 16.8 µs period, a
//! coarse level of 16.8 µs buckets the next 68.7 ms, an overflow heap the
//! rest. A fine bucket is put in `(at, seq)` order once, when the cursor
//! reaches it; only the cursor bucket is kept ordered at insert. The design,
//! the reasons for its shape and the measured walk and landing counts are
//! the docs of the private `WheelScheduler` (`cargo doc
//! --document-private-items -p aeolus-sim`), where rustdoc checks every
//! name they link.

use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::{Index, IndexMut};

use crate::packet::{FlowId, NodeId, PortId};
use crate::pool::PacketRef;
use crate::units::Time;

/// An event to be dispatched by the network.
///
/// Plain data: the scheduler copies events into and out of its slab, so an
/// event owns nothing — a packet is a pool handle, a flow arrival names its
/// flow.
///
/// `repr(u32)` puts every field at its natural alignment behind a 4-byte
/// tag. With the default one-byte tag, each copy of an event moved the 15
/// bytes behind the tag as two overlapping 8-byte words, and reading such a
/// copy back straight after stalls store forwarding — a pop copies the
/// event three times on its way to `Network::dispatch`. (Fields are listed
/// so that every variant still fits in 16 bytes.)
///
/// The same stall returns at any call boundary an event crosses through
/// memory. `Network<T>` is generic, so its run loop and handlers are
/// compiled in the crate that names `T`, where this crate's methods are
/// ordinary out-of-line calls: the caller stored the event on its stack in
/// 4- and 8-byte pieces and the callee read it back as one 16-byte load.
/// That is why the hand-off chain below — `schedule_at` / `reserve` /
/// `fill` / `pop_at_or_before`, `push`, the wheel's `push` / `file` /
/// `pop_at_or_before` and `Slab::alloc` — is `#[inline(always)]`: plain
/// `#[inline]` leaves LLVM free to keep `file` and the wheel's pop out of
/// line, and it did. The event is built in registers and stored once, into
/// its slab node. The heap's push is inlined too, for the same reason: an
/// out-of-line callee takes a 16-byte enum through memory, and the wheel arm
/// then read the event back from that same stack slot. The heap's pop
/// stays out of line, so the reference scheduler is not copied into every
/// call site.
#[derive(Debug, Clone, Copy)]
#[repr(u32)]
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
        /// The [`crate::Timer`] armed through `Ctx::set_timer_in_with` or
        /// `Ctx::fill_timer`, packed by the engine with its incarnation
        /// stamp. The scheduler never reads it.
        token: u64,
    },
    /// A new application flow arrives at its source host.
    FlowArrival {
        /// The arriving flow. Its [`crate::packet::FlowDesc`] is the one
        /// registered with the run's [`crate::metrics::Metrics`] when the
        /// flow was scheduled, read back at dispatch: inline, a descriptor
        /// would grow every event from 16 to 40 bytes; boxed, it cost an
        /// allocation per flow and drop glue on every scheduler slot reuse.
        flow: FlowId,
    },
    /// A fault window transitions (start or end): a link window re-kicks
    /// the ports it covers so stalled queues wake up when a link comes back;
    /// a node window crashes or restarts its node. Only scheduled when a
    /// non-empty fault plan is installed.
    Fault {
        /// True at the window start, false at its end.
        start: bool,
        /// Index into the installed plan's bound window list.
        window: usize,
    },
}

// The scheduler moves events by bitwise copy and never drops one in place:
// an `Event` that stopped being `Copy` would not compile here.
const _: () = {
    const fn is_copy<T: Copy>() {}
    is_copy::<Event>()
};

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

#[derive(Clone, Copy)]
struct Scheduled {
    at: Time,
    seq: u64,
    event: Event,
}

impl Scheduled {
    /// The total pop order.
    #[inline]
    fn key(&self) -> (Time, u64) {
        (self.at, self.seq)
    }
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        other.key().cmp(&self.key())
    }
}

/// Which scheduler implementation an [`EventQueue`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedulerKind {
    /// Two-level timing wheel with an overflow heap (default, fast path).
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

    /// Inlined with the wheel's (see [`Event`]).
    #[inline(always)]
    fn push(&mut self, s: Scheduled) {
        self.heap.push(s);
    }

    #[inline(never)]
    fn pop_at_or_before(&mut self, limit: Time) -> Option<Scheduled> {
        if self.heap.peek()?.at > limit {
            return None;
        }
        self.heap.pop()
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

// ---------------------------------------------------------------------------
// Timing-wheel scheduler
// ---------------------------------------------------------------------------

/// log2 of the fine tick in picoseconds: 2^12 ps ≈ 4.1 ns, a third of an MTU
/// frame's serialization at 100 Gbps. Paced traffic on the 192-host fabric
/// puts 26 events in an occupied 65.5 ns tick on average, but 3.6 in an
/// occupied fine bucket, so ordering a bucket is cheap.
const FINE_SHIFT: u32 = 12;
/// log2 of each level's bucket count: 4096 buckets of `[head, tail]`
/// `u32`s, 32 KB per level. A flat fine wheel of 2^16 buckets costs 512 KB
/// per `Network`, paid in page faults by every short simulation. The coarse
/// level's 4096 periods reach 2^36 ps ≈ 68.7 ms ahead — past every RTO and
/// incast round gap of the experiments; later events (far-future fault
/// windows, timers of sparse runs) wait in the overflow heap.
const LEVEL_BITS: u32 = 12;
const LEVEL_SIZE: usize = 1 << LEVEL_BITS;
const LEVEL_MASK: u64 = (LEVEL_SIZE as u64) - 1;
/// log2 of a period — one coarse bucket, one full fine level: 2^24 ps ≈
/// 16.8 µs, several RTTs of the paper's fabrics.
const PERIOD_SHIFT: u32 = FINE_SHIFT + LEVEL_BITS;
/// One summary bit per 64-bucket occupancy word.
const WORDS: usize = LEVEL_SIZE / 64;

/// Sentinel for "no slot" in the slab's intrusive lists.
const NIL: u32 = u32::MAX;

/// Slab slot: one bucketed event and the link to the next event of its
/// bucket — or, while the slot is free, to the next free slot.
#[derive(Clone, Copy)]
struct Node {
    s: Scheduled,
    next: u32,
}

/// A node no slot holds yet: the placeholder a growing slab writes over.
const BLANK: Node = Node {
    s: Scheduled { at: 0, seq: 0, event: Event::Fault { start: false, window: 0 } },
    next: NIL,
};

/// The recycling node store behind both levels: one `Vec` of nodes and a
/// free list threaded through it. It grows by doubling until the run's
/// high-water of pending events (a few thousand: a DCTCP flow keeps one
/// queued RTO) and never shrinks.
struct Slab {
    nodes: Vec<Node>,
    /// Head of the free-slot list, threaded through `Node::next`.
    free: u32,
}

impl Slab {
    fn new() -> Slab {
        Slab { nodes: Vec::new(), free: NIL }
    }

    /// A slot holding `s`, recycled when one is free. `s` is stored once,
    /// on the one path every slot takes.
    #[inline(always)]
    fn alloc(&mut self, s: Scheduled) -> u32 {
        let slot = self.free;
        let slot = if slot != NIL {
            self.free = self[slot].next;
            slot
        } else {
            self.nodes.push(BLANK);
            (self.nodes.len() - 1) as u32
        };
        self[slot] = Node { s, next: NIL };
        slot
    }

    #[inline]
    fn release(&mut self, slot: u32) {
        self[slot].next = self.free;
        self.free = slot;
    }
}

impl Index<u32> for Slab {
    type Output = Node;
    #[inline]
    fn index(&self, slot: u32) -> &Node {
        &self.nodes[slot as usize]
    }
}

impl IndexMut<u32> for Slab {
    #[inline]
    fn index_mut(&mut self, slot: u32) -> &mut Node {
        &mut self.nodes[slot as usize]
    }
}

/// One level of the wheel: per-bucket singly-linked lists threaded through
/// the scheduler's slab, and an occupancy bitmap with a one-word summary so
/// the next non-empty bucket is two `trailing_zeros`, not a scan. A bucket
/// is in no particular order until [`Level::sort`] orders it.
struct Level {
    /// `[head, tail]` slab slots per bucket.
    buckets: Box<[[u32; 2]]>,
    occupied: [u64; WORDS],
    summary: u64,
}

impl Level {
    fn new() -> Level {
        Level {
            buckets: vec![[NIL; 2]; LEVEL_SIZE].into_boxed_slice(),
            occupied: [0; WORDS],
            summary: 0,
        }
    }

    #[inline]
    fn head(&self, idx: usize) -> u32 {
        self.buckets[idx][0]
    }

    #[inline]
    fn mark(&mut self, idx: usize) {
        self.occupied[idx / 64] |= 1 << (idx % 64);
        self.summary |= 1 << (idx / 64);
    }

    #[inline]
    fn unmark(&mut self, idx: usize) {
        self.occupied[idx / 64] &= !(1 << (idx % 64));
        if self.occupied[idx / 64] == 0 {
            self.summary &= !(1 << (idx / 64));
        }
    }

    /// Prepend `slot` to bucket `idx`, whatever its order: O(1).
    #[inline(always)]
    fn push_front(&mut self, nodes: &mut Slab, idx: usize, slot: u32) {
        let head = self.buckets[idx][0];
        nodes[slot].next = head;
        self.buckets[idx][0] = slot;
        if head == NIL {
            self.buckets[idx][1] = slot;
            self.mark(idx);
        }
    }

    /// Insert `slot` into ordered bucket `idx`, keeping it in `(at, seq)`
    /// order. Events mostly come in that order, so this is one compare with
    /// the tail; only an out-of-order one walks the list.
    fn insert(&mut self, nodes: &mut Slab, idx: usize, slot: u32) {
        let key = nodes[slot].s.key();
        let [head, tail] = self.buckets[idx];
        if tail == NIL {
            self.push_front(nodes, idx, slot);
            return;
        }
        if nodes[tail].s.key() < key {
            nodes[slot].next = NIL;
            nodes[tail].next = slot;
            self.buckets[idx][1] = slot;
            return;
        }
        // The tail ranks after `slot`, so the walk stops at or before it.
        let (mut prev, mut cur) = (NIL, head);
        while nodes[cur].s.key() < key {
            prev = cur;
            cur = nodes[cur].next;
        }
        nodes[slot].next = cur;
        if prev == NIL {
            self.buckets[idx][0] = slot;
        } else {
            nodes[prev].next = slot;
        }
    }

    /// Unlink the head of non-empty bucket `idx`.
    #[inline]
    fn pop_front(&mut self, nodes: &Slab, idx: usize) {
        let next = nodes[self.buckets[idx][0]].next;
        self.buckets[idx][0] = next;
        if next == NIL {
            self.buckets[idx][1] = NIL;
            self.unmark(idx);
        }
    }

    /// Put non-empty bucket `idx` in `(at, seq)` order, in place: an
    /// insertion sort that builds the ordered list from the bucket's nodes
    /// in list order. Prepends leave the newest node first and a cascade
    /// the oldest, so a node that arrived in order goes to the front or the
    /// back after one compare; only a node between the two ends walks, over
    /// nodes the sort has just touched.
    fn sort(&mut self, nodes: &mut Slab, idx: usize) {
        let first = self.buckets[idx][0];
        let (mut head, mut tail) = (first, first);
        let mut cur = nodes[first].next;
        nodes[first].next = NIL;
        while cur != NIL {
            let next = nodes[cur].next;
            let key = nodes[cur].s.key();
            if key < nodes[head].s.key() {
                nodes[cur].next = head;
                head = cur;
            } else if nodes[tail].s.key() < key {
                nodes[cur].next = NIL;
                nodes[tail].next = cur;
                tail = cur;
            } else {
                // `head` ranks before `cur` and `tail` after it.
                let mut prev = head;
                while nodes[nodes[prev].next].s.key() < key {
                    prev = nodes[prev].next;
                }
                nodes[cur].next = nodes[prev].next;
                nodes[prev].next = cur;
            }
            cur = next;
        }
        self.buckets[idx] = [head, tail];
    }

    /// Empty bucket `idx`, returning the head of its list.
    fn take(&mut self, idx: usize) -> u32 {
        let head = self.buckets[idx][0];
        if head != NIL {
            self.buckets[idx] = [NIL, NIL];
            self.unmark(idx);
        }
        head
    }

    /// First non-empty bucket at or after `idx`, without wrapping.
    #[inline]
    fn next_from(&self, idx: usize) -> Option<usize> {
        let w = idx / 64;
        let bits = self.occupied[w] & (!0u64 << (idx % 64));
        if bits != 0 {
            return Some(w * 64 + bits.trailing_zeros() as usize);
        }
        // Words after `w`; for the last word the shift leaves none.
        let rest = self.summary & (!1u64 << w);
        if rest == 0 {
            return None;
        }
        let w = rest.trailing_zeros() as usize;
        Some(w * 64 + self.occupied[w].trailing_zeros() as usize)
    }
}

/// Two-level timing wheel with an overflow heap.
///
/// Bucketed events of both levels live in one recycling [`Slab`], so after
/// warm-up no schedule or pop touches the allocator (the steady-state
/// zero-allocation invariant).
///
/// * **Levels.** A *fine* level of 4096 buckets of 2^12 ps (≈ 4.1 ns) holds
///   the current period of 2^24 ps (≈ 16.8 µs); a *coarse* level of 4096
///   one-period buckets reaches ≈ 68.7 ms ahead, past every RTO and incast
///   round gap of the experiments; an overflow heap holds the rest
///   (far-future fault windows, timers of sparse runs). When the cursor
///   enters a period ([`WheelScheduler::enter`]), its coarse bucket is
///   cascaded into the fine level and the overflow heap gives up whatever
///   the coarse horizon now reaches.
/// * **A bucket is ordered once, when the cursor lands on it.** A bucket is
///   a singly linked list threaded through the slab. Filing an event into
///   any bucket but the cursor's prepends it in O(1)
///   ([`Level::push_front`]) without looking at its neighbours; so does the
///   coarse level, and so does a cascade. When [`WheelScheduler::advance`]
///   lands the cursor on a bucket, [`Level::sort`] puts it in `(at, seq)`
///   order in place, and from then on the next event is the cursor bucket's
///   head: no per-tick drain, copy or allocation. The list holds its events
///   newest first (a cascaded one oldest first), so a node that arrived in
///   order goes to the front (or back) of the sorted list after one
///   compare, and one that did not walks nodes the sort has just touched.
/// * **The cursor bucket keeps an ordered insert** ([`Level::insert`]: a
///   compare with the tail, a walk only when out of order), because it is
///   being popped: events still arrive into it — a schedule a few
///   picoseconds out, the late fill of a reserved [`Place`] (a `PortFree`
///   filled under an old `seq`), and any schedule or fill earlier than the
///   cursor, which a refused `pop_at_or_before` may have moved past `now`,
///   even into the next period; such an event joins the cursor bucket,
///   whose order keeps it first. The landing sort is a full sort that
///   assumes nothing of the list: prepends, a cascade's arrival order and,
///   in [`WheelScheduler::enter`], ordered overflow files into bucket 0 —
///   the new cursor bucket before the cursor has landed — all reach it.
/// * **Measured** (one `--seconds 1` run of each benchmark workload at
///   seed 11, counted in an instrumented copy). Ordering every bucket at
///   insert made 57 % of the fine-level inserts on `chaos_recovery` walk,
///   3.7 nodes each (41 % and 2.6 on `fabric_steady`, 1.6 % on
///   `incast_burst`), and `Level::insert` was the simulator's largest self
///   time: 13.6–16.5 % of `chaos_recovery`'s samples. Now 5.1 % of fine
///   files on `chaos_recovery` (7.5 % on `fabric_steady`, 4.6 % on
///   `incast_burst`) take the ordered insert; a landed bucket holds 5.3
///   events (3.3; 1.3), and 40 % (45 %; 93 %) of landings find one event;
///   of the other nodes a sort places, 30 % go to the front and 14 % to
///   the back (38 % and 18 % on `fabric_steady`), and the rest walk 3.0
///   (2.1) nodes. Nodes walked fall from 50.0 M to 31.2 M on
///   `chaos_recovery` and from 50.2 M to 28.1 M on `fabric_steady`. `sort`
///   takes 8.5–10 % of `chaos_recovery`'s samples and `advance`, which
///   inlines part of it, another 4 % (0.5 % before).
/// * **Sizes.** Both levels share the one node slab, a plain `Vec` of nodes
///   with a free list threaded through it: it grows by doubling to the
///   run's high-water of pending events (940 in `fabric_steady`'s DCTCP
///   cell at seed 11 — at most one queued RTO per flow, the rest packets on
///   the wire and queued flow arrivals) and never shrinks. Each level's
///   `[head, tail]` array is 32 KB, with one occupancy word per 64 buckets
///   and a one-word summary, so the next non-empty bucket is two
///   `trailing_zeros` (the coarse search wraps around). [`Event`] is
///   `Copy`, so a pop copies the event out and recycles the slot, with no
///   drop glue.
/// * **Why this shape.** On `fabric_steady` an occupied 65.5 ns tick of a
///   one-level wheel held 26.2 events, and the average event sat in a tick
///   of 98 events with 81 distinct timestamps, so a per-tick drain and sort
///   were real work; an occupied 4.1 ns bucket holds 3.6 (event-weighted
///   7.7). A flat fine level of 2^16 buckets is 512 KB of bucket arrays per
///   `Network`, paid in page faults by every short simulation (+70 % on the
///   4,347-event incast kernel); one of 2^14 buckets reaches only 67 µs and
///   sends `timer_stream_200k_wheel`'s 0.3–5.3 ms tail through the overflow
///   heap (2.6× slower).
///
/// Invariants, with `period = cursor >> LEVEL_BITS`:
/// * the fine level holds the current period. The cursor bucket holds every
///   event at or before the cursor tick — including ones scheduled *before*
///   the cursor after a refused fused pop moved it past `now` — and every
///   other fine bucket holds its own tick, after the cursor. Once the
///   cursor has landed on it, the cursor bucket is in `(at, seq)` order;
///   every other fine bucket is unordered;
/// * coarse bucket `p & LEVEL_MASK` holds, unordered, the events of period
///   `p`, for `p` in `(period, period + LEVEL_SIZE)` — so the current
///   period's own coarse bucket is always empty;
/// * the overflow heap holds every event of a later period.
///
/// The earliest pending event is therefore the cursor bucket's head, else
/// the minimum of the next non-empty fine bucket (its head once the cursor
/// has landed there), else the minimum of the next non-empty coarse bucket
/// in circular order, else the overflow minimum.
struct WheelScheduler {
    /// Absolute fine tick of the cursor bucket.
    cursor: u64,
    len: usize,
    nodes: Slab,
    fine: Level,
    coarse: Level,
    overflow: BinaryHeap<Scheduled>,
}

impl WheelScheduler {
    fn new() -> WheelScheduler {
        WheelScheduler {
            cursor: 0,
            len: 0,
            nodes: Slab::new(),
            fine: Level::new(),
            coarse: Level::new(),
            overflow: BinaryHeap::new(),
        }
    }

    #[inline(always)]
    fn push(&mut self, s: Scheduled) {
        self.len += 1;
        self.file(s);
    }

    /// Put `s` where the invariants say it belongs.
    #[inline(always)]
    fn file(&mut self, s: Scheduled) {
        let period = s.at >> PERIOD_SHIFT;
        let current = self.cursor >> LEVEL_BITS;
        if period >= current + LEVEL_SIZE as u64 {
            self.overflow.push(s);
            return;
        }
        let slot = self.nodes.alloc(s);
        if period > current {
            self.coarse.push_front(&mut self.nodes, (period & LEVEL_MASK) as usize, slot);
            return;
        }
        // `max`: an event before the cursor joins the cursor bucket, whose
        // order keeps it ahead of every later tick.
        let tick = (s.at >> FINE_SHIFT).max(self.cursor);
        let idx = (tick & LEVEL_MASK) as usize;
        if tick == self.cursor {
            self.fine.insert(&mut self.nodes, idx, slot);
        } else {
            self.fine.push_front(&mut self.nodes, idx, slot);
        }
    }

    /// Pop the next event only if it fires at or before `limit`; otherwise
    /// leave it pending (the cursor may have moved up to it).
    #[inline(always)]
    fn pop_at_or_before(&mut self, limit: Time) -> Option<Scheduled> {
        if self.len == 0 {
            return None;
        }
        let mut idx = (self.cursor & LEVEL_MASK) as usize;
        if self.fine.head(idx) == NIL {
            idx = self.advance();
        }
        let slot = self.fine.head(idx);
        let s = self.nodes[slot].s;
        if s.at > limit {
            return None;
        }
        self.fine.pop_front(&self.nodes, idx);
        self.nodes.release(slot);
        self.len -= 1;
        Some(s)
    }

    /// Move the cursor to the next non-empty fine bucket, entering later
    /// periods as needed, and return its index. Caller guarantees `len > 0`.
    fn advance(&mut self) -> usize {
        loop {
            if let Some(idx) = self.fine.next_from((self.cursor & LEVEL_MASK) as usize) {
                self.cursor = (self.cursor & !LEVEL_MASK) | idx as u64;
                // One node, the common case on sparse runs, is in order.
                let [head, tail] = self.fine.buckets[idx];
                if head != tail {
                    self.fine.sort(&mut self.nodes, idx);
                }
                return idx;
            }
            let period = self.cursor >> LEVEL_BITS;
            let start = ((period + 1) & LEVEL_MASK) as usize;
            let next = match self.coarse.next_from(start).or_else(|| self.coarse.next_from(0)) {
                // Circular distance from the current period's (empty) bucket.
                Some(idx) => period + ((idx as u64).wrapping_sub(period) & LEVEL_MASK),
                None => {
                    self.overflow.peek().expect("len > 0 with both levels empty").at >> PERIOD_SHIFT
                }
            };
            self.enter(next);
        }
    }

    /// Make `period` current with the fine level empty: cascade its coarse
    /// bucket into the fine level unordered, then pull in every overflow
    /// event the coarse horizon now reaches. Bucket 0 is the cursor bucket
    /// until the cursor lands, so an overflow event filed there goes in by
    /// ordered insert; the landing sort orders it with whatever else is
    /// there.
    fn enter(&mut self, period: u64) {
        self.cursor = period << LEVEL_BITS;
        let mut slot = self.coarse.take((period & LEVEL_MASK) as usize);
        while slot != NIL {
            let next = self.nodes[slot].next;
            let idx = ((self.nodes[slot].s.at >> FINE_SHIFT) & LEVEL_MASK) as usize;
            self.fine.push_front(&mut self.nodes, idx, slot);
            slot = next;
        }
        let horizon = period + LEVEL_SIZE as u64;
        while self.overflow.peek().is_some_and(|s| s.at >> PERIOD_SHIFT < horizon) {
            let s = self.overflow.pop().expect("peeked");
            self.file(s);
        }
    }

    fn len(&self) -> usize {
        self.len
    }
}

// ---------------------------------------------------------------------------
// Public facade
// ---------------------------------------------------------------------------

// One queue per network: the wheel's inline occupancy bitmaps are worth
// their bytes, a `Box` would cost an indirection on every event.
#[allow(clippy::large_enum_variant)]
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
    #[inline(always)]
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
    #[inline(always)]
    pub fn reserve(&mut self, at: Time) -> Place {
        assert!(at >= self.now, "event scheduled in the past: {} < {}", at, self.now);
        let seq = self.seq;
        self.seq += 1;
        Place { at, seq }
    }

    /// Queue `event` at a reserved `place`: it pops exactly where a
    /// `schedule_at` made at reservation time would have. Both schedulers
    /// order by `(at, seq)` wherever an event lands — the cursor bucket's
    /// ordered list, any other bucket (ordered when the cursor lands on
    /// it), the overflow heap — so a late fill under an old number needs
    /// nothing from them.
    /// Filling one place twice is the caller's bug.
    ///
    /// # Panics
    /// Panics if the run is already past `place`: the event could no longer
    /// fire where it was promised.
    #[inline(always)]
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

    /// Is the event being dispatched the one filled into `place`?
    #[inline]
    pub(crate) fn dispatching(&self, place: Place) -> bool {
        (place.at, place.seq) == (self.now, self.now_seq)
    }

    #[inline(always)]
    fn push(&mut self, place: Place, event: Event) {
        match &mut self.imp {
            Impl::Wheel(w) => w.push(Scheduled { at: place.at, seq: place.seq, event }),
            Impl::Heap(h) => h.push(Scheduled { at: place.at, seq: place.seq, event }),
        }
    }

    /// Pop the next event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(Time, Event)> {
        self.pop_at_or_before(Time::MAX)
    }

    /// Pop the next event only if it fires at or before `limit`, advancing
    /// the clock to its timestamp; returns `None` (and leaves the event
    /// pending) otherwise — one scheduler lookup per event, the run loops'
    /// form of "peek, compare, pop".
    #[inline(always)]
    pub(crate) fn pop_at_or_before(&mut self, limit: Time) -> Option<(Time, Event)> {
        let s = match &mut self.imp {
            Impl::Wheel(w) => w.pop_at_or_before(limit)?,
            Impl::Heap(h) => h.pop_at_or_before(limit)?,
        };
        debug_assert!(s.key() > (self.now, self.now_seq));
        self.now = s.at;
        self.now_seq = s.seq;
        Some((s.at, s.event))
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
    use crate::rng::SimRng;

    fn timer(token: u64) -> Event {
        Event::Timer { node: NodeId(0), token }
    }

    const BOTH: [SchedulerKind; 2] = [SchedulerKind::TimingWheel, SchedulerKind::BinaryHeap];
    /// One fine tick.
    const TICK: Time = 1 << FINE_SHIFT;
    /// The fine level's span: one period, one coarse bucket.
    const PERIOD: Time = 1 << PERIOD_SHIFT;
    /// The coarse level's horizon; the overflow heap starts here.
    const HORIZON: Time = PERIOD << LEVEL_BITS;

    /// The next timer in `q`, as `(time, token)`.
    fn pop_timer(q: &mut EventQueue) -> Option<(Time, u64)> {
        match q.pop()? {
            (t, Event::Timer { token, .. }) => Some((t, token)),
            _ => unreachable!(),
        }
    }

    /// Everything left in `q`, as `(time, token)`.
    fn drain(q: &mut EventQueue) -> Vec<(Time, u64)> {
        std::iter::from_fn(|| pop_timer(q)).collect()
    }

    /// `script` run on the wheel and on the heap; asserts they agree and
    /// returns the pop sequence.
    fn on_both(script: impl Fn(&mut EventQueue) -> Vec<(Time, u64)>) -> Vec<(Time, u64)> {
        let [wheel, heap] = BOTH.map(|kind| script(&mut EventQueue::with_scheduler(kind)));
        assert_eq!(wheel, heap, "wheel and heap disagree");
        wheel
    }

    #[test]
    fn pops_in_time_order() {
        for kind in BOTH {
            let mut q = EventQueue::with_scheduler(kind);
            q.schedule_at(30, timer(3));
            q.schedule_at(10, timer(1));
            q.schedule_at(20, timer(2));
            let order: Vec<u64> = drain(&mut q).into_iter().map(|(_, token)| token).collect();
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
            let order: Vec<u64> = drain(&mut q).into_iter().map(|(_, token)| token).collect();
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
        // The descriptor itself stays in `Metrics`; the event names the flow.
        let mut q = EventQueue::new();
        q.schedule_at(5, Event::FlowArrival { flow: FlowId(7) });
        match q.pop() {
            Some((5, Event::FlowArrival { flow })) => assert_eq!(flow, FlowId(7)),
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

    /// Every port holds its discipline inline, so the largest `Queue`
    /// variant sets the size of every port on the fabric, and every switch
    /// hop touches one. A variant that grows — say `PriorityBank` holding
    /// its eight FIFOs as an inline `[ByteFifo; 8]` — fails here; box the
    /// rarely used state of such a discipline instead.
    #[test]
    fn queue_and_port_stay_small() {
        let queue = std::mem::size_of::<crate::queues::Queue>();
        assert!(queue <= 136, "Queue is {queue} B");
        let port = std::mem::size_of::<crate::port::Port>();
        assert!(port <= 272, "Port is {port} B");
    }

    /// Each level's bucket array stays at 32 KB: every `Network` builds one
    /// wheel, and a short simulation pays for its pages. (A flat 2^16-bucket
    /// fine wheel, 512 KB, measured +40 … +60 % on the 4,347-event incast
    /// kernel for that reason.)
    #[test]
    fn each_level_keeps_its_bucket_array_within_32_kib() {
        let w = WheelScheduler::new();
        for (name, level) in [("fine", &w.fine), ("coarse", &w.coarse)] {
            let bytes = std::mem::size_of_val(&*level.buckets);
            assert!(bytes <= 32 * 1024, "{name} level: {bytes} B");
        }
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
        let far = 7 * TICK; // several fine ticks out, within the period
        let order = on_both(|q| {
            q.schedule_at(far, timer(99));
            assert!(q.pop_at_or_before(1).is_none(), "nothing due yet");
            // Earlier than the (advanced) cursor, later than `now`.
            q.schedule_at(2, timer(1));
            q.schedule_at(1, timer(0));
            drain(q)
        });
        assert_eq!(order, vec![(1, 0), (2, 1), (far, 99)]);
    }

    /// The same after a refused pop that cascaded into a *later period*:
    /// the cursor now sits in period 1, and schedules into period 0 (its
    /// first and last picosecond) and into period 1 before the cursor tick
    /// all join the cursor bucket, in order. Fails if an event before the
    /// cursor is filed in its own tick's bucket, which the cursor has
    /// already passed.
    #[test]
    fn a_schedule_before_a_cursor_that_crossed_into_a_new_period() {
        let far = PERIOD + 7 * TICK;
        let order = on_both(|q| {
            q.schedule_at(far, timer(99));
            q.schedule_at(far + 1, timer(100));
            assert!(q.pop_at_or_before(1).is_none(), "nothing due yet");
            q.schedule_at(far - 1, timer(3));
            q.schedule_at(PERIOD - 1, timer(2));
            q.schedule_at(2, timer(1));
            q.schedule_at(1, timer(0));
            q.schedule_at(far, timer(101));
            drain(q)
        });
        assert_eq!(
            order,
            vec![
                (1, 0),
                (2, 1),
                (PERIOD - 1, 2),
                (far - 1, 3),
                (far, 99),
                (far, 101),
                (far + 1, 100)
            ]
        );
    }

    /// Events far beyond the coarse horizon (overflow heap) and within each
    /// level interleave correctly, including events scheduled while draining.
    #[test]
    fn overflow_and_wheel_interleave() {
        let order = on_both(|q| {
            q.schedule_at(3 * HORIZON, timer(2));
            q.schedule_at(1, timer(0));
            q.schedule_at(HORIZON + 17, timer(1));
            q.schedule_at(10 * HORIZON, timer(3));
            assert_eq!(q.pop().map(|(t, _)| t), Some(1));
            // Schedule more near `now` after the far-future events went in.
            q.schedule_at(5, timer(10));
            q.schedule_at(PERIOD + 5, timer(11));
            drain(q)
        });
        assert_eq!(
            order,
            vec![(5, 10), (PERIOD + 5, 11), (HORIZON + 17, 1), (3 * HORIZON, 2), (10 * HORIZON, 3)]
        );
    }

    /// Overflow → coarse → fine: `chained` starts beyond the coarse horizon,
    /// enters the coarse level when period 3 is entered and the fine level
    /// when its own is. `far` is the first period past the coarse horizon of
    /// the period `a` enters: an event there stays in overflow until that
    /// period is entered, whether it was scheduled before `a`'s period was
    /// entered or after. Fails if the coarse level takes one period too
    /// many: the later two then land in the current period's own coarse
    /// bucket, are cascaded straight back in and pop ahead of the first.
    #[test]
    fn overflow_events_migrate_through_the_coarse_level_into_the_fine_level() {
        let chained = HORIZON + 2 * PERIOD + 7;
        let a = 2 * HORIZON + 3 * PERIOD + 5;
        let far = (a & !(PERIOD - 1)) + HORIZON;
        let order = on_both(|q| {
            q.schedule_at(far + 500, timer(4));
            q.schedule_at(a, timer(2));
            q.schedule_at(chained, timer(1));
            q.schedule_at(3 * PERIOD + 1, timer(0));
            let mut popped: Vec<_> = (0..3).filter_map(|_| pop_timer(q)).collect();
            q.schedule_at(far + 1000, timer(5));
            q.schedule_at(far + 5, timer(3));
            popped.extend(drain(q));
            popped
        });
        let want = [
            (3 * PERIOD + 1, 0),
            (chained, 1),
            (a, 2),
            (far + 5, 3),
            (far + 500, 4),
            (far + 1000, 5),
        ];
        assert_eq!(order, want);
    }

    /// Events one picosecond either side of every level boundary — fine
    /// tick, period, coarse horizon — measured from a cursor at zero and
    /// from one three periods short of the coarse level's wrap-around, pop
    /// in time order on both schedulers. From the late cursor the next
    /// occupied coarse bucket after the first sits past the wrap: fails if
    /// the coarse search does not wrap.
    #[test]
    fn events_one_picosecond_either_side_of_each_level_boundary() {
        for origin in [0, (LEVEL_SIZE as Time - 3) * PERIOD + 11] {
            let bounds =
                [TICK, 2 * TICK, PERIOD, 5 * PERIOD, HORIZON, HORIZON + PERIOD, 2 * HORIZON];
            let order = on_both(|q| {
                q.schedule_at(origin, timer(0));
                assert_eq!(q.pop().map(|(t, _)| t), Some(origin));
                // Absolute boundaries past the origin, and the same spans
                // measured from it.
                let base = origin & !(PERIOD - 1);
                let mut token = 1;
                for b in &bounds {
                    for at in [base + b, origin + b] {
                        for at in [at - 1, at, at + 1] {
                            q.schedule_at(at, timer(token));
                            token += 1;
                        }
                    }
                }
                drain(q)
            });
            assert_eq!(order.len(), 6 * bounds.len(), "origin {origin}");
            assert!(order.windows(2).all(|w| w[0] < w[1]), "origin {origin}: {order:?}");
        }
    }

    /// A reserved place filled into a coarse bucket lands among its
    /// same-picosecond peers with a later `seq` in arrival order; the
    /// landing sort after the cascade must put it back ahead of them. Fails
    /// if a cascaded bucket pops in arrival order.
    #[test]
    fn a_place_filled_into_a_coarse_bucket_cascades_ahead_of_later_peers() {
        let at = 3 * PERIOD + 9 * TICK + 5;
        let order = on_both(|q| {
            q.schedule_at(at, timer(0));
            let place = q.reserve(at);
            for token in 2..6 {
                q.schedule_at(at, timer(token));
            }
            q.schedule_at(at - 1, timer(6));
            q.schedule_at(at + 1, timer(7));
            q.fill(place, timer(1));
            drain(q)
        });
        let want: Vec<(Time, u64)> =
            [(at - 1, 6)].into_iter().chain((0..6).map(|t| (at, t))).chain([(at + 1, 7)]).collect();
        assert_eq!(order, want);
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

    /// Differential check at extreme horizons, once per level: timestamps
    /// spanning many full turns of the level (for the coarse horizon,
    /// repeated overflow-heap refills), clustered just inside/outside turn
    /// boundaries, and re-entrant schedules landing exactly on `now`. The
    /// wheel must stay pop-for-pop identical to the reference heap.
    #[test]
    fn wheel_matches_heap_beyond_rotation_horizons() {
        for (level, span) in [("fine period", PERIOD), ("coarse horizon", HORIZON)] {
            for seed in 0..6u64 {
                let run = |kind: SchedulerKind| {
                    let mut rng = SimRng::seed_from_u64(0xA01u64 ^ seed);
                    let mut q = EventQueue::with_scheduler(kind);
                    for i in 0..400 {
                        let at = match i % 5 {
                            // Far future: up to ~1000 turns out.
                            0 => rng.below(1000) * span + rng.below(span),
                            // Hugging a turn boundary from both sides.
                            1 => (rng.range_u64(1, 8)) * span - rng.below(3),
                            2 => (rng.below(8)) * span + rng.below(3),
                            // Same tick, different sub-tick offsets.
                            3 => 5 * TICK + rng.below(TICK),
                            // Near events.
                            _ => rng.below(TICK),
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
                            // Re-entrant: zero-delay, next turn, far future.
                            let at = match extra % 3 {
                                0 => t,
                                1 => t + span + rng.below(TICK),
                                _ => t + 50 * span,
                            };
                            q.schedule_at(at, timer(extra));
                            extra += 1;
                        }
                    }
                    popped
                };
                let wheel = run(SchedulerKind::TimingWheel);
                let heap = run(SchedulerKind::BinaryHeap);
                assert_eq!(wheel, heap, "{level}, seed {seed}: schedulers disagree");
            }
        }
    }

    /// Events sharing one timestamp (and one wheel tick) pop in insertion
    /// order on both schedulers — the FIFO stability the engine's
    /// same-instant causality depends on.
    #[test]
    fn same_tick_ordering_is_insertion_stable() {
        // Same instant, same tick (different instants), a coarse-level tick
        // that materializes in a cascade, and a far-future tick that only
        // materializes after an overflow refill.
        for base in [0u64, 3 * TICK, 5 * PERIOD + 9 * TICK, 7 * HORIZON + 9 * TICK] {
            for kind in BOTH {
                let mut q = EventQueue::with_scheduler(kind);
                for i in 0..64 {
                    // Two interleaved cohorts at two sub-tick instants.
                    q.schedule_at(base + (i % 2), timer(i));
                }
                let expect: Vec<(Time, u64)> = (0..64)
                    .filter(|i| i % 2 == 0)
                    .map(|i| (base, i))
                    .chain((0..64).filter(|i| i % 2 == 1).map(|i| (base + 1, i)))
                    .collect();
                assert_eq!(drain(&mut q), expect, "kind {kind:?} base {base}");
            }
        }
    }

    /// A reserved place filled later pops exactly where a `schedule_at` made
    /// at reservation time would have — whether the fill lands in the
    /// cursor bucket, a later fine bucket, a coarse bucket or beyond the
    /// coarse horizon (overflow), and whether it comes early or at the last
    /// moment, when the event ranked just ahead of the place is the one being
    /// dispatched. A `fill` that takes a fresh sequence number pops 99 after
    /// 3 instead.
    #[test]
    fn a_place_filled_late_pops_where_the_schedule_would_have() {
        for (label, at) in [
            ("cursor", 15),
            ("fine", 10 + 3 * TICK),
            ("coarse", 10 + 3 * PERIOD),
            ("overflow", 10 + 2 * HORIZON),
        ] {
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
        for kind in BOTH {
            let run = |reserve: bool| {
                let mut q = EventQueue::with_scheduler(kind);
                let mut lens = Vec::new();
                for (i, at) in [5, 5, 9 * TICK, 4 * PERIOD, 3 * HORIZON].into_iter().enumerate() {
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
            assert_eq!(run(true).0, vec![1, 2, 3, 4, 5]);
        }
    }

    /// `passed` follows `(at, seq)` order, not time alone: at one picosecond
    /// a place is open while the event ranked before it is dispatched and
    /// passed once the one ranked after it is. Fails if `passed` compares
    /// times only (either way round). `dispatching` holds for the place's
    /// own event and for no neighbour at the same picosecond.
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
        assert!(!q.dispatching(place));
        q.fill(place, timer(99));
        assert!(matches!(q.pop(), Some((10, Event::Timer { token: 99, .. }))));
        assert!(q.passed(place), "the place's own event is being dispatched");
        assert!(q.dispatching(place));
        q.pop();
        assert!(q.passed(place));
        assert!(!q.dispatching(place), "the event ranked after the place is being dispatched");
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

    /// The landing sort on adversarial lists, driven on a bare level: the
    /// nodes go in by prepend in `keys` order, as a fine bucket's do, and
    /// must come out in `(at, seq)` order with the tail on the last node.
    /// Covers a list already in reverse order (every node to the front),
    /// one in order (every node to the back), one picosecond shared by a
    /// run of new numbers with old-`seq` fills interleaved (the walks), a
    /// single node, and seeded shuffles.
    #[test]
    fn the_landing_sort_orders_adversarial_lists() {
        let sorted_after = |keys: &[(Time, u64)]| {
            let mut nodes = Slab::new();
            let mut level = Level::new();
            for &(at, seq) in keys {
                let slot = nodes.alloc(Scheduled { at, seq, event: timer(seq) });
                level.push_front(&mut nodes, 7, slot);
            }
            level.sort(&mut nodes, 7);
            let mut out = Vec::new();
            let mut slot = level.head(7);
            while slot != NIL {
                out.push(nodes[slot].s.key());
                assert_eq!(nodes[slot].next == NIL, slot == level.buckets[7][1], "tail");
                slot = nodes[slot].next;
            }
            out
        };
        let ascending: Vec<(Time, u64)> = (0..50).map(|i| (100 + i / 3, i)).collect();
        let descending: Vec<(Time, u64)> = ascending.iter().rev().copied().collect();
        // New numbers 100.. at one picosecond, an old-`seq` fill after each
        // third, in both arrival directions.
        let mut fills: Vec<(Time, u64)> = Vec::new();
        for i in 0..60 {
            fills.push((42, 100 + i));
            if i % 3 == 2 {
                fills.push((42, 60 - i));
            }
        }
        let fills_reversed: Vec<(Time, u64)> = fills.iter().rev().copied().collect();
        let mut rng = SimRng::seed_from_u64(45);
        let mut cases = vec![ascending, descending, fills, fills_reversed, vec![(9, 3)]];
        for len in [2, 3, 17, 200] {
            let mut keys: Vec<(Time, u64)> = (0..len).map(|i| (rng.below(8), i)).collect();
            rng.shuffle(&mut keys);
            cases.push(keys);
        }
        for keys in cases {
            let mut want = keys.clone();
            want.sort_unstable();
            assert_eq!(sorted_after(&keys), want, "{keys:?}");
        }
    }

    /// Seeded wheel-against-heap runs through every path that files into a
    /// bucket without ordering it, or into the cursor bucket with ordering:
    /// schedules near and far, places reserved and filled late into the
    /// cursor bucket and into later ones, refused `pop_at_or_before`s
    /// followed by schedules before the moved cursor, events at the very
    /// start of later periods (cascaded into bucket 0) while overflow
    /// events migrate into the coarse level, and far-future events whose
    /// period is entered straight from the overflow heap. Both schedulers
    /// must pop the same sequence.
    #[test]
    fn wheel_matches_heap_through_landing_sorts_fills_and_cascades() {
        for seed in 0..8u64 {
            let run = |kind: SchedulerKind| {
                let mut rng = SimRng::seed_from_u64(0xB0C4 ^ seed);
                let mut q = EventQueue::with_scheduler(kind);
                let mut places: Vec<(Place, u64)> = Vec::new();
                let mut popped = Vec::new();
                let mut token = 0u64;
                let mut next = || {
                    token += 1;
                    token
                };
                for _ in 0..4000 {
                    let now = q.now();
                    // The start of period `now`'s + `k`.
                    let period_start = |k: u64| ((now >> PERIOD_SHIFT) + k) << PERIOD_SHIFT;
                    match rng.below(12) {
                        0..=2 => {
                            let at = now
                                + match rng.below(4) {
                                    0 => rng.below(TICK),
                                    1 => rng.below(64 * TICK),
                                    2 => rng.below(3 * PERIOD),
                                    _ => 0,
                                };
                            q.schedule_at(at, timer(next()));
                        }
                        3 | 4 => {
                            let at = now + [0, rng.below(TICK), rng.below(16 * TICK)][rng.index(3)];
                            places.push((q.reserve(at), next()));
                        }
                        5 | 6 => {
                            if !places.is_empty() {
                                let (place, token) = places.swap_remove(rng.index(places.len()));
                                if !q.passed(place) {
                                    q.fill(place, timer(token));
                                }
                            }
                        }
                        7 => {
                            // A refused pop moves the cursor up to the next
                            // event; the schedules land before it.
                            let limit = now + rng.below(2 * TICK);
                            match q.pop_at_or_before(limit) {
                                Some((t, Event::Timer { token, .. })) => popped.push((t, token)),
                                Some(_) => unreachable!(),
                                None => {
                                    for _ in 0..rng.range_u64(1, 4) {
                                        let at = limit + rng.below(4 * TICK);
                                        q.schedule_at(at.max(q.now()), timer(next()));
                                    }
                                }
                            }
                        }
                        8 => {
                            // Bucket 0 of a later period, and overflow events
                            // that migrate when that period is entered.
                            let at = period_start(rng.range_u64(1, 4)) + rng.below(2 * TICK);
                            q.schedule_at(at, timer(next()));
                            let far = period_start(LEVEL_SIZE as u64 + rng.below(4));
                            q.schedule_at(far + rng.below(TICK), timer(next()));
                        }
                        9 => {
                            // Far future: a period entered from the overflow.
                            let at = period_start(rng.range_u64(2, 6) * LEVEL_SIZE as u64)
                                + rng.below(2) * rng.below(PERIOD);
                            q.schedule_at(at, timer(next()));
                        }
                        _ => {
                            for _ in 0..rng.range_u64(1, 6) {
                                if let Some(p) = pop_timer(&mut q) {
                                    popped.push(p);
                                }
                            }
                        }
                    }
                }
                for (place, token) in places {
                    if !q.passed(place) {
                        q.fill(place, timer(token));
                    }
                }
                popped.extend(drain(&mut q));
                popped
            };
            let wheel = run(SchedulerKind::TimingWheel);
            assert!(wheel.len() > 2000, "seed {seed}: only {} pops", wheel.len());
            assert_eq!(wheel, run(SchedulerKind::BinaryHeap), "seed {seed}");
        }
    }

    #[test]
    fn len_tracks_pending_events() {
        for kind in BOTH {
            let mut q = EventQueue::with_scheduler(kind);
            assert!(q.is_empty());
            q.schedule_at(0, timer(0));
            q.schedule_at(2 * PERIOD, timer(1));
            q.schedule_at(2 * HORIZON, timer(2));
            assert_eq!(q.len(), 3);
            q.pop();
            assert_eq!(q.len(), 2);
            assert!(q.pop_at_or_before(PERIOD).is_none());
            assert_eq!(q.len(), 2, "a refused pop moves nothing");
            q.pop();
            q.pop();
            assert!(q.is_empty());
            assert_eq!(q.pop().map(|(t, _)| t), None);
        }
    }
}
