//! The registry's per-scheme facts pinned bit-for-bit: `name`, `label`,
//! route policy, oracle profile and — the part no end-to-end golden sees in
//! isolation — the switch discipline `make_queue` builds for every port role.
//!
//! One fixed seeded packet mix (class x ECN x priority x size, plus credits,
//! control packets and already-trimmed headers) is offered to the queue of
//! every scheme x {`HostNic`, `DownToHost`, `SwitchToSwitch`, and
//! `SwitchToSwitch` drawing on a 100 KB shared pool}, with polls interleaved
//! in three phases: hovering round the 6 KB selective-drop threshold, filling
//! past the 200 KB port buffer, draining. Each cell pins an FNV-1a digest of
//! the outcome stream (Queued / Marked / Trimmed / Dropped + reason, every
//! poll result, `bytes()`, `pkts()` and the `bands()` names and values after
//! every operation).
//!
//! A refactor of `registry.rs` must leave every row alone. A digest that
//! moves means some scheme's port now admits, marks, trims or drops
//! differently — e.g. a derivation that quietly regularises the
//! `HomaOracle` host NIC (selective threshold at the NIC too, unlike
//! `ExpressPassOracle`) or DCTCP's `K = max(threshold, 30 KB)`.

use aeolus_sim::topology::PortRole;
use aeolus_sim::units::{ms, ns, us};
use aeolus_sim::{
    DropReason, Ecn, EnqueueOutcome, FlowId, NodeId, Packet, PacketKind, PacketPool, Poll, Rate,
    RoutePolicy, SharedPool, SimRng, TrafficClass, CREDIT_BYTES,
};
use aeolus_transport::{Scheme, SchemeParams};

/// Everything the registry says about one scheme.
#[derive(Debug, PartialEq)]
struct Pin {
    scheme: Scheme,
    name: &'static str,
    label: String,
    route: RoutePolicy,
    /// `OracleProfile::{burst_budget, retransmit_pairing}`
    /// (`credit_conservation` is on for every scheme).
    burst_budget: bool,
    retransmit_pairing: bool,
    /// Outcome-stream digests: host NIC, down-to-host, switch-to-switch,
    /// switch-to-switch on the shared pool.
    cells: [u64; 4],
}

use RoutePolicy::{EcmpHash, Spray};

#[rustfmt::skip]
fn pinned() -> Vec<Pin> {
    let pin = |scheme, name, label: &str, route, burst_budget, retransmit_pairing, cells| Pin {
        scheme, name, label: label.to_string(), route, burst_budget, retransmit_pairing, cells,
    };
    // Recorded at f5a2bc0, the parent of the scheme-table refactor.
    vec![
        pin(Scheme::ExpressPass, "expresspass", "ExpressPass", EcmpHash, true, true,
            [0x20957dc5413ff0bf, 0x2665e3d833b4c816, 0x2665e3d833b4c816, 0x2665e3d833b4c816]),
        pin(Scheme::ExpressPassAeolus, "expresspass-aeolus", "ExpressPass+Aeolus", EcmpHash, true, true,
            [0x20957dc5413ff0bf, 0x8338aa6f31846ddd, 0x8338aa6f31846ddd, 0x8338aa6f31846ddd]),
        pin(Scheme::ExpressPassOracle, "expresspass-oracle", "Hypothetical ExpressPass", EcmpHash, true, true,
            [0x20957dc5413ff0bf, 0x3ee4b881f1bbab77, 0x3ee4b881f1bbab77, 0x3ee4b881f1bbab77]),
        pin(Scheme::ExpressPassPrioQueue { rto: ms(10) }, "expresspass-prioq", "ExpressPass+PrioQueue(RTO=10000us)", EcmpHash, true, false,
            [0x20957dc5413ff0bf, 0x4f4111bb4a63a487, 0x4f4111bb4a63a487, 0x3ce1eb05e3718297]),
        pin(Scheme::Homa { rto: ms(10) }, "homa", "Homa(RTO=10000us)", Spray, false, false,
            [0xd9b32b3b1b9b8c18, 0xce83fc374e9a813d, 0xce83fc374e9a813d, 0xce83fc374e9a813d]),
        pin(Scheme::HomaEager { rto: us(20) }, "homa-eager", "Eager Homa(RTO=20us)", Spray, false, false,
            [0xd9b32b3b1b9b8c18, 0xce83fc374e9a813d, 0xce83fc374e9a813d, 0xce83fc374e9a813d]),
        pin(Scheme::HomaAeolus, "homa-aeolus", "Homa+Aeolus", Spray, true, true,
            [0xd9b32b3b1b9b8c18, 0x26ddf677c1c95867, 0x26ddf677c1c95867, 0x26ddf677c1c95867]),
        pin(Scheme::HomaOracle, "homa-oracle", "Hypothetical Homa", Spray, true, true,
            [0x17d25d5d30d9071d, 0x17d25d5d30d9071d, 0x17d25d5d30d9071d, 0x17d25d5d30d9071d]),
        pin(Scheme::Ndp, "ndp", "NDP", Spray, true, true,
            [0xe4797a3bd36f2685, 0x7e471f31db71cfb6, 0x7e471f31db71cfb6, 0x7e471f31db71cfb6]),
        pin(Scheme::NdpAeolus, "ndp-aeolus", "NDP+Aeolus", Spray, true, true,
            [0x01b17c306e9d4777, 0x95f19575ab951aff, 0x95f19575ab951aff, 0x95f19575ab951aff]),
        pin(Scheme::PHost { rto: ms(10) }, "phost", "pHost(RTO=10000us)", Spray, true, false,
            [0x2ec8d48eb6efa34d, 0x32808b26bd41bb94, 0x32808b26bd41bb94, 0x32808b26bd41bb94]),
        pin(Scheme::PHostAeolus, "phost-aeolus", "pHost+Aeolus", Spray, true, true,
            [0x2ec8d48eb6efa34d, 0xbb569e5297336882, 0xbb569e5297336882, 0xbb569e5297336882]),
        pin(Scheme::Dctcp { rto: ms(10) }, "dctcp", "DCTCP(RTO=10000us)", EcmpHash, true, false,
            [0x01b17c306e9d4777, 0xe1660b5635388bb0, 0xe1660b5635388bb0, 0xe1660b5635388bb0]),
        pin(Scheme::Fastpass, "fastpass", "Fastpass", EcmpHash, true, true,
            [0x01b17c306e9d4777, 0x1220b1c263a8d94c, 0x1220b1c263a8d94c, 0x1220b1c263a8d94c]),
        pin(Scheme::FastpassAeolus, "fastpass-aeolus", "Fastpass+Aeolus", EcmpHash, true, true,
            [0x01b17c306e9d4777, 0x95f19575ab951aff, 0x95f19575ab951aff, 0x95f19575ab951aff]),
    ]
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Which enqueue outcomes the mix provoked somewhere — the test checks its
/// own coverage, so a too-gentle mix cannot pin a vacuous digest.
#[derive(Default)]
struct Seen {
    marked: bool,
    trimmed: bool,
    reasons: Vec<DropReason>,
}

const OPS: usize = 2_400;

/// The fixed mix. `seq` doubles as the packet's identity in the poll stream.
fn arrival(rng: &mut SimRng, seq: u64) -> Packet {
    let (flow, src, dst) = (FlowId(1 + seq % 5), NodeId(0), NodeId(1));
    let mut pkt = match rng.index(10) {
        // Credits: XPass ports queue them apart from data, eight deep, and
        // pace them out slower than this mix offers them.
        0 | 1 => {
            let mut p = Packet::control(flow, src, dst, seq, PacketKind::Credit);
            p.size = CREDIT_BYTES;
            return p;
        }
        2 => Packet::control(flow, src, dst, seq, PacketKind::Probe),
        kind => {
            let class = [TrafficClass::Scheduled, TrafficClass::Unscheduled][rng.index(2)];
            let payload = [1, 512, 1460][rng.index(3)];
            let mut p = Packet::data(flow, src, dst, seq, payload, class, 1 << 20);
            if kind == 3 {
                p.trim(); // an upstream NDP switch already cut this one
            }
            p
        }
    };
    // Class and ECN are independent on the wire (Blind bursts are
    // unscheduled but ECT; the oracle's are Non-ECT at the lowest level).
    pkt.ecn = [Ecn::NotEct, Ecn::Ect0, Ecn::Ce][rng.index(3)];
    pkt.priority = rng.index(9) as u8; // 8 = out of range, clamps
    pkt
}

fn fingerprint(scheme: Scheme, role: PortRole, pooled: bool, seen: &mut Seen) -> u64 {
    let params = SchemeParams::new(us(5));
    assert_eq!((params.aeolus.drop_threshold, params.port_buffer), (6_000, 200_000));
    let pool_handle = pooled.then(|| SharedPool::new(100_000));
    let mut q = scheme.make_queue(&params, Rate::gbps(10), role, pool_handle.as_ref());
    let mut pool = PacketPool::new();
    let mut rng = SimRng::seed_from_u64(0x00ae_0105);
    let mut h = Fnv::new();
    let mut bands = Vec::new();
    for op in 0..OPS {
        let now = op as u64 * ns(100);
        // Hover near the threshold, fill past the buffer, drain.
        let poll_chance = match op {
            0..=599 => 0.55,
            600..=1_799 => 0.15,
            _ => 0.8,
        };
        if rng.chance(poll_chance) {
            match q.poll(&mut pool, now) {
                Poll::Ready(r) => {
                    let p = pool.get(r);
                    h.u64(1);
                    h.u64(p.seq);
                    h.u64(p.size as u64);
                    h.u64(p.ecn as u64);
                    pool.free(r);
                }
                Poll::NotBefore(t) => {
                    h.u64(2);
                    h.u64(t);
                }
                Poll::Empty => h.u64(3),
            }
        } else {
            let r = pool.insert(arrival(&mut rng, op as u64));
            match q.enqueue(r, &mut pool, now) {
                EnqueueOutcome::Queued => h.u64(10),
                EnqueueOutcome::QueuedMarked => {
                    seen.marked = true;
                    h.u64(11);
                }
                EnqueueOutcome::QueuedTrimmed => {
                    seen.trimmed = true;
                    h.u64(12);
                }
                EnqueueOutcome::Dropped { reason, pkt } => {
                    if !seen.reasons.contains(&reason) {
                        seen.reasons.push(reason);
                    }
                    h.u64(20 + reason as u64);
                    pool.free(pkt);
                }
            }
        }
        h.u64(q.bytes());
        h.u64(q.pkts() as u64);
        bands.clear();
        q.bands(&mut bands);
        for (name, bytes) in &bands {
            h.bytes(name.as_bytes());
            h.u64(*bytes);
        }
    }
    h.0
}

fn observed() -> (Vec<Pin>, Seen) {
    let mut seen = Seen::default();
    let pins = pinned()
        .into_iter()
        .map(|want| {
            let s = want.scheme;
            let profile = s.oracle_profile();
            assert!(profile.credit_conservation, "{}: credit conservation is universal", s.name());
            let cell = |role, pooled, seen: &mut Seen| fingerprint(s, role, pooled, seen);
            Pin {
                scheme: s,
                name: s.name(),
                label: s.label(),
                route: s.route_policy(),
                burst_budget: profile.burst_budget,
                retransmit_pairing: profile.retransmit_pairing,
                cells: [
                    cell(PortRole::HostNic, false, &mut seen),
                    cell(PortRole::DownToHost, false, &mut seen),
                    cell(PortRole::SwitchToSwitch, false, &mut seen),
                    cell(PortRole::SwitchToSwitch, true, &mut seen),
                ],
            }
        })
        .collect();
    (pins, seen)
}

#[test]
fn registry_queue_fingerprints() {
    // The pins cover the registry's own list, in its order: a new table row
    // needs a pinned row here.
    let pinned_schemes: Vec<Scheme> = pinned().iter().map(|p| p.scheme).collect();
    assert_eq!(pinned_schemes, Scheme::all().collect::<Vec<_>>());
    let (got, seen) = observed();
    let mut mismatches = Vec::new();
    for (got, want) in got.iter().zip(pinned()) {
        if *got != want {
            let cells: Vec<String> = got.cells.iter().map(|c| format!("{c:#018x}")).collect();
            mismatches.push(format!(
                "{}: got {:?} {:?} {:?} burst_budget={} retransmit_pairing={}\n    [{}]",
                want.name,
                got.name,
                got.label,
                got.route,
                got.burst_budget,
                got.retransmit_pairing,
                cells.join(", ")
            ));
        }
    }
    assert!(mismatches.is_empty(), "registry facts changed:\n{}", mismatches.join("\n"));

    // The mix reached every admission rule the registry can configure.
    assert!(seen.marked && seen.trimmed, "mix never provoked a CE mark / a trim");
    for reason in [
        DropReason::BufferFull,
        DropReason::SharedBufferFull,
        DropReason::SelectiveDrop,
        DropReason::CreditOverflow,
    ] {
        assert!(seen.reasons.contains(&reason), "mix never provoked {reason:?}");
    }
}

/// The two irregular cells, stated as relations between digests so the
/// intent survives a re-pin: the oracle Homa NIC is *not* the plain Homa
/// NIC (it drops selectively), while the oracle ExpressPass NIC *is* the
/// plain ExpressPass NIC.
#[test]
fn irregular_cells_are_pinned_as_irregular() {
    let pins = pinned();
    let nic = |name: &str| pins.iter().find(|p| p.name == name).expect("pinned scheme").cells[0];
    assert_ne!(nic("homa-oracle"), nic("homa-aeolus"), "HomaOracle NIC drops selectively");
    assert_eq!(nic("homa-aeolus"), nic("homa"), "Homa+Aeolus NIC is the plain bank");
    assert_eq!(nic("expresspass-oracle"), nic("expresspass"), "XPass oracle NIC never drops");
    // DCTCP marks at K = max(threshold, 30 KB), not at the 6 KB Aeolus
    // threshold the otherwise identical Fastpass+Aeolus port uses.
    let down = |name: &str| pins.iter().find(|p| p.name == name).expect("pinned scheme").cells[1];
    assert_ne!(down("dctcp"), down("fastpass-aeolus"));
}
