//! Routing: destination-indexed next-hop tables with ECMP.
//!
//! Each switch holds, for every destination host, the list of egress ports on
//! shortest paths. Two selection policies cover the paper's protocols:
//!
//! * **per-flow ECMP hashing** (ExpressPass, Homa) — a hash of the flow id
//!   and the packet's `path_tag` pins all packets of a flow to one path;
//! * **per-packet spraying** (NDP) — every packet picks uniformly at random.
//!
//! The table is flat: all ECMP groups live back to back in one port array
//! (CSR layout), in destination order, with per-destination `(start, len,
//! mask)` metadata, so `select` is a bounds-checked slice index plus either a
//! mask (power-of-two groups) or one modulo — no nested `Vec` pointer chase.
//! The CSR is written once, at build, and is the only copy of the routes:
//! `add_routes` appends when `dst` is the table's last destination (the order
//! every topology builder uses) and splices in place otherwise. A group keeps
//! its ports in first-add order and ignores duplicates, since ECMP picks a
//! port by its position. The FNV flow hash is computed **once per packet** at
//! network injection and carried in [`Packet::route_hash`]; each hop reuses
//! it instead of re-hashing.

use crate::packet::{NodeId, Packet, PortId};
use crate::rng::SimRng;

/// Path selection policy of a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutePolicy {
    /// Hash (flow id, path tag) onto one of the candidate ports.
    EcmpHash,
    /// Choose uniformly at random per packet (NDP packet spraying).
    Spray,
}

/// FNV-1a 64-bit hash — cheap, deterministic flow hashing.
#[inline]
pub fn fnv1a(mut x: u64, mut y: u64) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for _ in 0..8 {
        h ^= x & 0xff;
        h = h.wrapping_mul(0x100000001b3);
        x >>= 8;
    }
    for _ in 0..8 {
        h ^= y & 0xff;
        h = h.wrapping_mul(0x100000001b3);
        y >>= 8;
    }
    h
}

/// The packet's ECMP hash: the injection-time cached value when present,
/// recomputed from scratch otherwise (a zero cache means "not stamped" —
/// packets built outside the engine, e.g. in unit tests).
#[inline]
fn route_hash(pkt: &Packet) -> u64 {
    if pkt.route_hash != 0 {
        pkt.route_hash
    } else {
        fnv1a(pkt.flow.0, pkt.path_tag)
    }
}

/// Per-destination view into the flat port array.
#[derive(Debug, Clone, Copy, Default)]
struct GroupMeta {
    start: u32,
    len: u32,
    /// `len - 1` when `len` is a power of two (mask selection), else 0.
    mask: u32,
}

/// A switch routing table: for each destination node id, the ECMP group of
/// candidate egress ports.
pub struct RouteTable {
    /// Per-destination view into `flat`, indexed by `NodeId.0`; an empty
    /// group = unreachable (a wiring bug). Groups lie in destination order,
    /// so each `start` is the sum of the lengths before it.
    meta: Vec<GroupMeta>,
    /// All groups' ports, contiguous (CSR payload).
    flat: Vec<PortId>,
    policy: RoutePolicy,
    rng: SimRng,
    /// Reusable up-port scratch for `select_avoiding` (no per-call alloc).
    avoid_scratch: Vec<PortId>,
}

impl RouteTable {
    /// A table for a network of `n_nodes` nodes.
    pub fn new(n_nodes: usize, policy: RoutePolicy, seed: u64) -> RouteTable {
        RouteTable {
            meta: vec![GroupMeta::default(); n_nodes],
            flat: Vec::new(),
            policy,
            rng: SimRng::seed_from_u64(seed),
            avoid_scratch: Vec::new(),
        }
    }

    /// Make room for destinations numbered below `dsts` and for `hops` more
    /// next hops in all, so a builder that knows them writes the table
    /// without growing it.
    pub(crate) fn reserve(&mut self, dsts: usize, hops: usize) {
        self.meta.reserve_exact(dsts.saturating_sub(self.meta.len()));
        self.flat.reserve_exact(hops);
    }

    /// Add `port` as a candidate next hop towards `dst`. The table grows on
    /// demand, so nodes may be numbered beyond the initial capacity.
    pub fn add_route(&mut self, dst: NodeId, port: PortId) {
        self.add_routes(dst, std::slice::from_ref(&port));
    }

    /// Add `ports` as candidate next hops towards `dst`, after the ones it
    /// already has; ports already in the group are skipped.
    pub fn add_routes(&mut self, dst: NodeId, ports: &[PortId]) {
        let idx = dst.0 as usize;
        if idx >= self.meta.len() {
            let empty = GroupMeta { start: self.flat.len() as u32, len: 0, mask: 0 };
            self.meta.resize(idx + 1, empty);
        }
        let GroupMeta { start, len, .. } = self.meta[idx];
        let mut end = start + len;
        for &port in ports {
            if !self.flat[start as usize..end as usize].contains(&port) {
                self.flat.insert(end as usize, port);
                end += 1;
            }
        }
        for later in &mut self.meta[idx + 1..] {
            later.start += end - start - len;
        }
        let len = end - start;
        let mask = if len.is_power_of_two() { len - 1 } else { 0 };
        self.meta[idx] = GroupMeta { start, len, mask };
    }

    /// Candidate ports towards `dst` (for tests/topology validation).
    pub fn group(&self, dst: NodeId) -> &[PortId] {
        self.meta
            .get(dst.0 as usize)
            .map_or(&[], |m| &self.flat[m.start as usize..(m.start + m.len) as usize])
    }

    #[cold]
    fn no_route(dst: NodeId) -> ! {
        panic!("no route from switch to {dst:?}")
    }

    /// Pick the egress port for `pkt`.
    ///
    /// # Panics
    /// Panics if no route exists — topologies must be fully wired.
    #[inline]
    pub fn select(&mut self, pkt: &Packet) -> PortId {
        let m = match self.meta.get(pkt.dst.0 as usize) {
            Some(m) if m.len > 0 => *m,
            _ => Self::no_route(pkt.dst),
        };
        let g = &self.flat[m.start as usize..(m.start + m.len) as usize];
        if m.len == 1 {
            return g[0];
        }
        match self.policy {
            RoutePolicy::EcmpHash => {
                let h = route_hash(pkt);
                let i = if m.mask != 0 { h & m.mask as u64 } else { h % m.len as u64 };
                g[i as usize]
            }
            RoutePolicy::Spray => {
                let i = self.rng.index(g.len());
                g[i]
            }
        }
    }

    /// Pick the egress port for `pkt`, steering around ports for which
    /// `is_down` returns true. Falls back to the normal selection when every
    /// candidate is down (the packet then waits in a stalled queue until the
    /// link recovers). Used by the engine only while a fault plan with down
    /// windows is active.
    ///
    /// # Panics
    /// Panics if no route exists — topologies must be fully wired.
    pub(crate) fn select_avoiding(
        &mut self,
        pkt: &Packet,
        is_down: impl Fn(PortId) -> bool,
    ) -> PortId {
        let m = match self.meta.get(pkt.dst.0 as usize) {
            Some(m) if m.len > 0 => *m,
            _ => Self::no_route(pkt.dst),
        };
        let mut up = std::mem::take(&mut self.avoid_scratch);
        up.clear();
        up.extend(
            self.flat[m.start as usize..(m.start + m.len) as usize]
                .iter()
                .copied()
                .filter(|&p| !is_down(p)),
        );
        let choice = if up.is_empty() {
            None
        } else if up.len() == 1 {
            Some(up[0])
        } else {
            Some(match self.policy {
                RoutePolicy::EcmpHash => {
                    let h = route_hash(pkt);
                    up[(h % up.len() as u64) as usize]
                }
                RoutePolicy::Spray => {
                    let i = self.rng.index(up.len());
                    up[i]
                }
            })
        };
        self.avoid_scratch = up;
        match choice {
            Some(p) => p,
            None => self.select(pkt),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, TrafficClass};

    fn pkt(flow: u64, tag: u64) -> Packet {
        let mut p =
            Packet::data(FlowId(flow), NodeId(0), NodeId(5), 0, 1460, TrafficClass::Scheduled, 1);
        p.path_tag = tag;
        p
    }

    fn table(policy: RoutePolicy) -> RouteTable {
        let mut t = RouteTable::new(8, policy, 42);
        for p in 0..4 {
            t.add_route(NodeId(5), PortId(p));
        }
        t
    }

    #[test]
    fn ecmp_is_deterministic_per_flow() {
        let mut t = table(RoutePolicy::EcmpHash);
        let first = t.select(&pkt(7, 0));
        for _ in 0..50 {
            assert_eq!(t.select(&pkt(7, 0)), first);
        }
    }

    #[test]
    fn ecmp_spreads_across_flows() {
        let mut t = table(RoutePolicy::EcmpHash);
        let mut seen = std::collections::HashSet::new();
        for f in 0..64 {
            seen.insert(t.select(&pkt(f, 0)));
        }
        assert!(seen.len() >= 3, "hash should reach most ports, saw {seen:?}");
    }

    #[test]
    fn path_tag_changes_ecmp_choice() {
        let mut t = table(RoutePolicy::EcmpHash);
        let mut seen = std::collections::HashSet::new();
        for tag in 0..64 {
            seen.insert(t.select(&pkt(7, tag)));
        }
        assert!(seen.len() >= 3, "path tag must re-roll the hash, saw {seen:?}");
    }

    #[test]
    fn spray_uses_all_ports() {
        let mut t = table(RoutePolicy::Spray);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            seen.insert(t.select(&pkt(7, 0)));
        }
        assert_eq!(seen.len(), 4, "spraying must hit every port");
    }

    #[test]
    fn duplicate_routes_ignored() {
        let mut t = RouteTable::new(8, RoutePolicy::EcmpHash, 1);
        t.add_route(NodeId(3), PortId(1));
        t.add_route(NodeId(3), PortId(1));
        assert_eq!(t.group(NodeId(3)).len(), 1);
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn missing_route_panics() {
        let mut t = RouteTable::new(8, RoutePolicy::EcmpHash, 1);
        let mut p = pkt(1, 0);
        p.dst = NodeId(2);
        t.select(&p);
    }

    /// The cached injection-time hash and the from-scratch hash must pick
    /// the same port — a stale cache would silently re-route flows.
    #[test]
    fn cached_route_hash_matches_fresh_hash() {
        let mut t = table(RoutePolicy::EcmpHash);
        for f in 0..64 {
            for tag in 0..4 {
                let fresh = pkt(f, tag);
                let mut cached = pkt(f, tag);
                cached.route_hash = fnv1a(cached.flow.0, cached.path_tag);
                assert_eq!(t.select(&fresh), t.select(&cached), "flow {f} tag {tag}");
            }
        }
    }

    /// Non-power-of-two groups must keep exact `h % len` selection (the
    /// mask fast path only applies to power-of-two groups).
    #[test]
    fn non_pow2_group_uses_exact_modulo() {
        let mut t = RouteTable::new(8, RoutePolicy::EcmpHash, 42);
        for p in 0..3 {
            t.add_route(NodeId(5), PortId(p));
        }
        for f in 0..32 {
            let p = pkt(f, 0);
            let h = fnv1a(p.flow.0, p.path_tag);
            assert_eq!(t.select(&p), PortId((h % 3) as u16));
        }
    }

    /// Routes added after a select are picked up.
    #[test]
    fn incremental_route_addition_rebuilds() {
        let mut t = RouteTable::new(2, RoutePolicy::EcmpHash, 1);
        t.add_route(NodeId(1), PortId(0));
        let mut p = pkt(1, 0);
        p.dst = NodeId(1);
        assert_eq!(t.select(&p), PortId(0));
        t.add_route(NodeId(9), PortId(3));
        p.dst = NodeId(9);
        assert_eq!(t.select(&p), PortId(3));
    }

    #[test]
    fn select_avoiding_skips_down_ports_without_alloc() {
        let mut t = table(RoutePolicy::EcmpHash);
        // All but port 2 down: every flow must land on 2.
        for f in 0..16 {
            let got = t.select_avoiding(&pkt(f, 0), |p| p != PortId(2));
            assert_eq!(got, PortId(2));
        }
        // Everything down: falls back to normal selection.
        let normal = t.select(&pkt(3, 0));
        assert_eq!(t.select_avoiding(&pkt(3, 0), |_| true), normal);
    }
}
