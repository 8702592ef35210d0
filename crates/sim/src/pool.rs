//! Recycling packet pool — slab-backed storage for every packet in flight.
//!
//! The hot loop of a packet-level simulator moves one packet per event; the
//! reference engines the paper's evaluation runs on (htsim for NDP, ns-2 for
//! ExpressPass) only reach large scale because they recycle packet buffers
//! instead of malloc/freeing per event. [`PacketPool`] is that recycler: a
//! slab of [`Packet`] slots handing out stable [`PacketRef`] handles.
//!
//! Lifecycle: the network [`insert`](PacketPool::insert)s a packet when an
//! endpoint sends it, the handle travels through queues, events and links,
//! and the slot is recycled either by [`take`](PacketPool::take) (host
//! delivery — the packet is copied out to the endpoint) or by
//! [`free`](PacketPool::free) (drop, trim-discard or a fault kill). After a
//! warm-up phase the free list satisfies every insert, so steady-state
//! simulation performs **zero** packet allocations — a tier-1 test asserts
//! this with a counting global allocator.
//!
//! Debug builds additionally track slot occupancy and panic on double-free
//! or use-after-free; release builds pay nothing for the checks.

use crate::packet::Packet;

/// Stable handle to a pooled [`Packet`]. Copyable and 4 bytes wide, so
/// events and queue entries move a handle instead of the 104-byte struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketRef(u32);

impl PacketRef {
    /// The slot index (for diagnostics).
    #[inline]
    pub fn index(self) -> u32 {
        self.0
    }
}

/// Slab of packet slots with a free list.
pub struct PacketPool {
    slots: Vec<Packet>,
    free: Vec<u32>,
    /// Live (inserted, not yet taken/freed) packet count.
    live: usize,
    /// Maximum live count ever observed.
    high_water: usize,
    /// Inserts served by growing the slab instead of the free list.
    grows: u64,
    #[cfg(debug_assertions)]
    occupied: Vec<bool>,
}

impl Default for PacketPool {
    fn default() -> Self {
        Self::new()
    }
}

impl PacketPool {
    /// An empty pool.
    pub fn new() -> PacketPool {
        PacketPool {
            slots: Vec::new(),
            free: Vec::new(),
            live: 0,
            high_water: 0,
            grows: 0,
            #[cfg(debug_assertions)]
            occupied: Vec::new(),
        }
    }

    /// Store `pkt`, returning its handle. Reuses a recycled slot when one is
    /// available; grows the slab otherwise.
    #[inline]
    pub fn insert(&mut self, pkt: Packet) -> PacketRef {
        self.live += 1;
        if self.live > self.high_water {
            self.high_water = self.live;
        }
        if let Some(idx) = self.free.pop() {
            #[cfg(debug_assertions)]
            {
                debug_assert!(!self.occupied[idx as usize], "free list holds a live slot");
                self.occupied[idx as usize] = true;
            }
            self.slots[idx as usize] = pkt;
            PacketRef(idx)
        } else {
            let idx = self.slots.len() as u32;
            self.slots.push(pkt);
            self.grows += 1;
            #[cfg(debug_assertions)]
            self.occupied.push(true);
            PacketRef(idx)
        }
    }

    /// Read access to a pooled packet.
    #[inline]
    pub fn get(&self, r: PacketRef) -> &Packet {
        #[cfg(debug_assertions)]
        debug_assert!(self.occupied[r.0 as usize], "get on a freed packet slot");
        &self.slots[r.0 as usize]
    }

    /// Write access to a pooled packet (switches mutate hops/ECN/trim in
    /// place).
    #[inline]
    pub fn get_mut(&mut self, r: PacketRef) -> &mut Packet {
        #[cfg(debug_assertions)]
        debug_assert!(self.occupied[r.0 as usize], "get_mut on a freed packet slot");
        &mut self.slots[r.0 as usize]
    }

    /// Copy the packet out and recycle its slot — the host-delivery path,
    /// where the endpoint consumes the packet by value.
    #[inline]
    pub fn take(&mut self, r: PacketRef) -> Packet {
        let pkt = self.get(r).clone();
        self.release(r);
        pkt
    }

    /// Recycle a slot without reading it — drops and fault kills.
    #[inline]
    pub fn free(&mut self, r: PacketRef) {
        #[cfg(debug_assertions)]
        debug_assert!(self.occupied[r.0 as usize], "double free of packet slot");
        self.release(r);
    }

    #[inline]
    fn release(&mut self, r: PacketRef) {
        #[cfg(debug_assertions)]
        {
            self.occupied[r.0 as usize] = false;
        }
        self.free.push(r.0);
        self.live -= 1;
    }

    /// Live packet count.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Total slots ever allocated (slab size).
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Maximum number of simultaneously live packets observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Inserts that had to grow the slab (0 in a warmed-up steady state).
    pub fn grows(&self) -> u64 {
        self.grows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, NodeId, Packet, TrafficClass};

    fn pkt(seq: u64) -> Packet {
        Packet::data(FlowId(1), NodeId(0), NodeId(1), seq, 1460, TrafficClass::Scheduled, 1 << 20)
    }

    #[test]
    fn insert_get_take_roundtrip() {
        let mut pool = PacketPool::new();
        let a = pool.insert(pkt(1));
        let b = pool.insert(pkt(2));
        assert_eq!(pool.live(), 2);
        assert_eq!(pool.get(a).seq, 1);
        assert_eq!(pool.get(b).seq, 2);
        let out = pool.take(a);
        assert_eq!(out.seq, 1);
        assert_eq!(pool.live(), 1);
    }

    #[test]
    fn slots_are_recycled_not_grown() {
        let mut pool = PacketPool::new();
        let refs: Vec<_> = (0..16).map(|i| pool.insert(pkt(i))).collect();
        assert_eq!(pool.capacity(), 16);
        for r in refs {
            pool.free(r);
        }
        // A second wave of the same size reuses every slot.
        for i in 0..16 {
            pool.insert(pkt(100 + i));
        }
        assert_eq!(pool.capacity(), 16, "slab must not grow past the high-water mark");
        assert_eq!(pool.grows(), 16, "only the first wave grew the slab");
        assert_eq!(pool.high_water(), 16);
    }

    #[test]
    fn get_mut_mutates_in_place() {
        let mut pool = PacketPool::new();
        let r = pool.insert(pkt(7));
        pool.get_mut(r).priority += 3;
        assert_eq!(pool.get(r).priority, 3);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "double free")]
    fn double_free_panics_in_debug() {
        let mut pool = PacketPool::new();
        let r = pool.insert(pkt(0));
        pool.free(r);
        pool.free(r);
    }
}
