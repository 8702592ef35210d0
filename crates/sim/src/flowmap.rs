//! Dense per-flow state for the event hot path.
//!
//! The seed kept per-flow transport state and timer bookkeeping in
//! `BTreeMap`s: every packet paid an O(log n) pointer chase through tree
//! nodes scattered across the heap. [`FlowMap`] replaces that with flat
//! storage: a slab of values plus an open-addressing hash index. Lookup is
//! one multiply-shift hash and (usually) one probe into a contiguous array.
//! Iteration in **slot order** is deterministic for a given operation
//! history but is *not* key order — a behavior-affecting scan must sort
//! what it reads first, at timer cadence, never per packet. Slots recycle
//! through a free list, so steady-state churn (insert/remove per flow)
//! allocates nothing.
//!
//! Timers need no table: an endpoint arms a [`crate::Timer`] — a kind and
//! a flow — and the engine carries it in the event and drops it once its
//! incarnation has ended.

/// Key types usable in a [`FlowMap`]: cheap to copy, totally ordered (for
/// report-time sorting) and reducible to a `u64` for hashing.
pub trait FlowKey: Copy + Eq + Ord + std::fmt::Debug {
    /// The raw integer identity that gets hashed.
    fn as_u64(self) -> u64;
}

impl FlowKey for u64 {
    #[inline]
    fn as_u64(self) -> u64 {
        self
    }
}

impl FlowKey for crate::packet::FlowId {
    #[inline]
    fn as_u64(self) -> u64 {
        self.0
    }
}

impl FlowKey for crate::packet::NodeId {
    #[inline]
    fn as_u64(self) -> u64 {
        self.0 as u64
    }
}

const EMPTY: u32 = u32::MAX;
const TOMB: u32 = u32::MAX - 1;

/// Fibonacci multiplier: spreads small sequential ids across the high bits.
const PHI: u64 = 0x9E37_79B9_7F4A_7C15;

/// A hash map specialized for small-integer keys with slab value storage.
///
/// Values live in a dense `Vec` of slots recycled through a free list;
/// the index maps hashed keys to slot numbers with linear probing and
/// tombstoned deletion. All operations are allocation-free once the table
/// has reached its high-water size.
#[derive(Debug)]
pub struct FlowMap<K, V> {
    /// Value slab. `None` slots are on the free list.
    slots: Vec<Option<(K, V)>>,
    /// Recycled slot numbers.
    free: Vec<u32>,
    /// Open-addressing index: `EMPTY`, `TOMB`, or a slot number.
    /// Length is always a power of two (or zero before first insert).
    index: Vec<u32>,
    /// `64 - log2(index.len())`: multiply-shift hash uses the high bits.
    shift: u32,
    /// Live entries.
    len: usize,
    /// Tombstones in `index` (cleared on rehash).
    tombs: usize,
}

impl<K, V> Default for FlowMap<K, V> {
    fn default() -> Self {
        FlowMap::new()
    }
}

impl<K, V> FlowMap<K, V> {
    /// An empty map. Allocates nothing until the first insert.
    pub const fn new() -> FlowMap<K, V> {
        FlowMap { slots: Vec::new(), free: Vec::new(), index: Vec::new(), shift: 64, len: 0, tombs: 0 }
    }
}

impl<K: FlowKey, V> FlowMap<K, V> {
    /// Number of live entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are live.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    #[inline]
    fn bucket(&self, key: u64) -> usize {
        // shift == 64 only when the index is empty, and every caller checks
        // that first; u64 >> 64 would be UB-adjacent (masked on x86).
        debug_assert!(self.shift < 64);
        (key.wrapping_mul(PHI) >> self.shift) as usize
    }

    /// Find the slot holding `key`, if present.
    #[inline]
    fn find(&self, key: K) -> Option<u32> {
        if self.len == 0 {
            return None;
        }
        let mask = self.index.len() - 1;
        let mut i = self.bucket(key.as_u64());
        loop {
            match self.index[i] {
                EMPTY => return None,
                TOMB => {}
                s => {
                    // Index entries always point at occupied slots.
                    let (k, _) = self.slots[s as usize].as_ref().unwrap();
                    if *k == key {
                        return Some(s);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Borrow the value for `key`.
    #[inline]
    pub fn get(&self, key: K) -> Option<&V> {
        let s = self.find(key)?;
        Some(&self.slots[s as usize].as_ref().unwrap().1)
    }

    /// Mutably borrow the value for `key`.
    #[inline]
    pub fn get_mut(&mut self, key: K) -> Option<&mut V> {
        let s = self.find(key)?;
        Some(&mut self.slots[s as usize].as_mut().unwrap().1)
    }

    /// Whether `key` is present.
    #[inline]
    pub fn contains_key(&self, key: K) -> bool {
        self.find(key).is_some()
    }

    /// The slab slot holding `key`: a handle for [`Self::at`] /
    /// [`Self::at_mut`] that skips the hash probe. It stays valid until
    /// `key` is removed; after that the slot is recycled, so a handle kept
    /// past removal aliases whatever key is inserted next.
    #[inline]
    pub fn slot_of(&self, key: K) -> Option<u32> {
        self.find(key)
    }

    /// The entry in `slot`. Panics on a slot no live key occupies.
    #[inline]
    pub fn at(&self, slot: u32) -> (K, &V) {
        let (k, v) = self.slots[slot as usize].as_ref().expect("live slot");
        (*k, v)
    }

    /// The entry in `slot`, mutably. Panics on a slot no live key occupies.
    #[inline]
    pub fn at_mut(&mut self, slot: u32) -> (K, &mut V) {
        let (k, v) = self.slots[slot as usize].as_mut().expect("live slot");
        (*k, v)
    }

    /// Insert `val` under `key`, returning the previous value if any.
    pub fn insert(&mut self, key: K, val: V) -> Option<V> {
        if let Some(s) = self.find(key) {
            let (_, v) = self.slots[s as usize].as_mut().unwrap();
            return Some(std::mem::replace(v, val));
        }
        let s = self.alloc_slot(key, val);
        self.link(key, s);
        None
    }

    /// Borrow the value for `key`, inserting `make()` first if absent.
    pub fn get_or_insert_with(&mut self, key: K, make: impl FnOnce() -> V) -> &mut V {
        let s = match self.find(key) {
            Some(s) => s,
            None => {
                let s = self.alloc_slot(key, make());
                self.link(key, s);
                s
            }
        };
        &mut self.slots[s as usize].as_mut().unwrap().1
    }

    /// Remove and return the value for `key`.
    pub fn remove(&mut self, key: K) -> Option<V> {
        if self.len == 0 {
            return None;
        }
        let mask = self.index.len() - 1;
        let mut i = self.bucket(key.as_u64());
        loop {
            match self.index[i] {
                EMPTY => return None,
                TOMB => {}
                s => {
                    if self.slots[s as usize].as_ref().unwrap().0 == key {
                        self.index[i] = TOMB;
                        self.tombs += 1;
                        self.len -= 1;
                        self.free.push(s);
                        return Some(self.slots[s as usize].take().unwrap().1);
                    }
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Iterate `(key, &value)` in slot order (deterministic for a given
    /// operation history, **not** key order).
    pub fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.slots.iter().filter_map(|s| s.as_ref().map(|(k, v)| (*k, v)))
    }

    /// Iterate `(key, &mut value)` in slot order.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = (K, &mut V)> {
        self.slots.iter_mut().filter_map(|s| s.as_mut().map(|(k, v)| (*k, v)))
    }

    /// Iterate values in slot order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.slots.iter().filter_map(|s| s.as_ref().map(|(_, v)| v))
    }

    /// Take a fresh slot from the free list (or grow the slab).
    fn alloc_slot(&mut self, key: K, val: V) -> u32 {
        match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some((key, val));
                s
            }
            None => {
                let s = self.slots.len() as u32;
                assert!(s < TOMB, "FlowMap slot space exhausted");
                self.slots.push(Some((key, val)));
                s
            }
        }
    }

    /// Write `slot` into the index under `key`, growing/rehashing first if
    /// the table would get too full (keeps ≥ 1/8 of buckets `EMPTY` so
    /// probes terminate fast).
    fn link(&mut self, key: K, slot: u32) {
        self.len += 1;
        if (self.len + self.tombs) * 8 > self.index.len() * 7 {
            // The rebuild walks the slab, which already holds the new
            // entry — it is fully linked after this, so don't probe again.
            self.rehash();
            return;
        }
        let mask = self.index.len() - 1;
        let mut i = self.bucket(key.as_u64());
        loop {
            match self.index[i] {
                EMPTY => {
                    self.index[i] = slot;
                    return;
                }
                TOMB => {
                    self.index[i] = slot;
                    self.tombs -= 1;
                    return;
                }
                _ => i = (i + 1) & mask,
            }
        }
    }

    /// Rebuild the index at ≥ 2x the live size; clears tombstones.
    #[cold]
    fn rehash(&mut self) {
        let cap = (self.len * 4).next_power_of_two().max(16);
        self.index.clear();
        self.index.resize(cap, EMPTY);
        self.shift = 64 - cap.trailing_zeros();
        self.tombs = 0;
        let mask = cap - 1;
        for (s, slot) in self.slots.iter().enumerate() {
            if let Some((k, _)) = slot {
                let mut i = (k.as_u64().wrapping_mul(PHI) >> self.shift) as usize;
                while self.index[i] != EMPTY {
                    i = (i + 1) & mask;
                }
                self.index[i] = s as u32;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;
    use crate::rng::SimRng;
    use std::collections::BTreeMap;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut m: FlowMap<FlowId, u64> = FlowMap::new();
        assert!(m.is_empty());
        assert_eq!(m.insert(FlowId(7), 70), None);
        assert_eq!(m.insert(FlowId(9), 90), None);
        assert_eq!(m.insert(FlowId(7), 71), Some(70));
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(FlowId(7)), Some(&71));
        assert_eq!(m.get(FlowId(8)), None);
        assert_eq!(m.remove(FlowId(7)), Some(71));
        assert_eq!(m.remove(FlowId(7)), None);
        assert_eq!(m.len(), 1);
        assert!(m.contains_key(FlowId(9)));
    }

    #[test]
    fn get_or_insert_with_inserts_once() {
        let mut m: FlowMap<u64, Vec<u32>> = FlowMap::new();
        m.get_or_insert_with(3, || vec![1]).push(2);
        m.get_or_insert_with(3, || unreachable!("key exists")).push(3);
        assert_eq!(m.get(3), Some(&vec![1, 2, 3]));
    }

    #[test]
    fn slot_reuse_keeps_lookups_correct() {
        let mut m: FlowMap<u64, u64> = FlowMap::new();
        for round in 0..50u64 {
            for k in 0..10 {
                m.insert(round * 100 + k, k);
            }
            for k in 0..10 {
                assert_eq!(m.remove(round * 100 + k), Some(k));
            }
        }
        assert!(m.is_empty());
        // The slab never grew past the working set.
        assert!(m.slots.len() <= 16, "slab leaked slots: {}", m.slots.len());
    }

    /// Randomized differential test against a `BTreeMap` reference model:
    /// same operations, same observable results, and identical contents
    /// when both are dumped and sorted.
    #[test]
    fn matches_btreemap_model_under_churn() {
        let mut rng = SimRng::seed_from_u64(0xF10F);
        let mut fm: FlowMap<FlowId, u64> = FlowMap::new();
        let mut model: BTreeMap<FlowId, u64> = BTreeMap::new();
        for step in 0..20_000u64 {
            let key = FlowId(rng.index(257) as u64);
            match rng.index(4) {
                0 => assert_eq!(fm.insert(key, step), model.insert(key, step), "insert {key:?}"),
                1 => assert_eq!(fm.remove(key), model.remove(&key), "remove {key:?}"),
                2 => assert_eq!(fm.get(key), model.get(&key), "get {key:?}"),
                _ => {
                    let v = fm.get_or_insert_with(key, || step);
                    let mv = model.entry(key).or_insert(step);
                    assert_eq!(v, mv, "entry {key:?}");
                    *v += 1;
                    *mv += 1;
                }
            }
            assert_eq!(fm.len(), model.len());
        }
        // Sorted traversal equals the model's ordered iteration.
        let mut keys: Vec<FlowId> = fm.iter().map(|(k, _)| k).collect();
        keys.sort_unstable();
        let dumped: Vec<(FlowId, u64)> = keys.iter().map(|&k| (k, *fm.get(k).unwrap())).collect();
        let expect: Vec<(FlowId, u64)> = model.iter().map(|(&k, &v)| (k, v)).collect();
        assert_eq!(dumped, expect);
    }

    /// Slot-order iteration is a function of operation history alone — two
    /// maps fed the same operations agree element-for-element even though
    /// the order is not key order.
    #[test]
    fn iteration_order_is_deterministic() {
        let build = || {
            let mut m: FlowMap<u64, u64> = FlowMap::new();
            let mut rng = SimRng::seed_from_u64(99);
            for i in 0..500u64 {
                m.insert(rng.index(100) as u64, i);
                if i % 3 == 0 {
                    m.remove(rng.index(100) as u64);
                }
            }
            m
        };
        let a: Vec<_> = build().iter().map(|(k, &v)| (k, v)).collect();
        let b: Vec<_> = build().iter().map(|(k, &v)| (k, v)).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn slot_handles_are_stable_until_removal_then_recycled() {
        let mut m: FlowMap<FlowId, u64> = FlowMap::new();
        m.insert(FlowId(5), 50);
        let s = m.slot_of(FlowId(5)).unwrap();
        // Growth and rehashes move the index, never the slab.
        for k in 100..400 {
            m.insert(FlowId(k), k);
        }
        assert_eq!(m.slot_of(FlowId(5)), Some(s));
        assert_eq!(m.at(s), (FlowId(5), &50));
        *m.at_mut(s).1 += 1;
        assert_eq!(m.get(FlowId(5)), Some(&51));
        m.remove(FlowId(5));
        assert_eq!(m.slot_of(FlowId(5)), None);
        m.insert(FlowId(6), 60);
        assert_eq!(m.slot_of(FlowId(6)), Some(s), "the freed slot goes to the next insert");
        assert_eq!(m.at(s), (FlowId(6), &60), "a handle kept past removal aliases it");
    }
}
