//! The four workloads as lists of cells, and the seed → cell-seed derivation.
//!
//! A *cell* is one simulation: a scheme on a topology under generated
//! traffic, optionally under an active fault plan or an observing tracer.
//! `--seed` is the only input knob: every cell's workload RNG seed and fault
//! RNG seed derive from it here, and the simulator only ever receives the
//! generated `FlowDesc`s and `FaultPlan`s.
//!
//! Sizes are the issue's cell sizes scaled by one common factor so a pass
//! over a workload's cells takes 2–3 s on the 2-cpu reference host; the
//! per-run time budget (`--seconds`) then buys repeats, not bigger cells.

use aeolus_experiments::topos::{ep_fat_tree, homa_two_tier, many_to_one, testbed};
use aeolus_experiments::Scale;
use aeolus_sim::units::{ms, us, Time};
use aeolus_sim::{FaultPlan, LinkFilter, PacketFilter};
use aeolus_transport::{Scheme, TopoSpec};
use aeolus_workloads::Workload;

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 4] = [
    "fabric_steady",
    "incast_burst",
    "chaos_recovery",
    "observed_run",
];

/// The six transport families, in the order the ledger reports them.
pub const FAMILIES: [&str; 6] = ["expresspass", "homa", "ndp", "phost", "fastpass", "dctcp"];

/// The traffic a cell generates.
#[derive(Debug, Clone, Copy)]
pub enum Traffic {
    /// Open-loop Poisson arrivals sized by an empirical workload.
    Poisson {
        /// Flow-size distribution.
        workload: Workload,
        /// Offered load (fraction of aggregate host capacity).
        load: f64,
        /// Flows generated.
        flows: usize,
    },
    /// `rounds` N:1 incast rounds of `msg`-byte messages, `gap` apart. The
    /// receiver and a sub-MTU size jitter come from the cell seed.
    Incast {
        /// Nominal message size in bytes.
        msg: u64,
        /// Rounds.
        rounds: usize,
        /// Spacing between rounds.
        gap: Time,
    },
}

/// Which tracer observes a cell in the measured (end-to-end) runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Observe {
    /// `NullTracer`: every hook compiled away.
    None,
    /// `SchemeBuilder::build_checked()` + `assert_flows_complete`.
    Checked,
    /// `RecordingTracer` + `finish` + `to_jsonl` written to a temp file.
    Recorded,
}

/// A cell's role in a baseline/+Aeolus pair (for `sim_aeolus_gain`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pair {
    /// Not part of a pair.
    None,
    /// The original transport.
    Baseline,
    /// The same transport with the Aeolus building block.
    Aeolus,
}

/// One simulation of a workload.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Stable cell name (`<scheme>/<traffic>`), unique within the workload.
    pub id: String,
    /// Scheme under test.
    pub scheme: Scheme,
    /// Topology.
    pub topo: TopoSpec,
    /// Traffic.
    pub traffic: Traffic,
    /// Active fault plan (empty = clean cell).
    pub faults: FaultPlan,
    /// Observing tracer in the measured runs.
    pub observe: Observe,
    /// Pair role.
    pub pair: Pair,
    /// Workload RNG seed (derived from `--seed`).
    pub seed: u64,
}

impl Cell {
    /// Whether every flow of this cell must complete (no active faults).
    pub fn clean(&self) -> bool {
        self.faults.is_empty()
    }

    /// The same cell with its fault plan stripped.
    pub fn without_faults(&self) -> Cell {
        Cell {
            faults: FaultPlan::default(),
            ..self.clone()
        }
    }

    /// The same cell under another observer.
    pub fn observed_by(&self, observe: Observe) -> Cell {
        Cell {
            observe,
            ..self.clone()
        }
    }

    /// The same cell with `factor`× the flows (Poisson) or rounds (incast),
    /// never fewer than one.
    pub fn scaled(&self, factor: f64) -> Cell {
        let scale = |n: usize| ((n as f64 * factor).round() as usize).max(1);
        let mut c = self.clone();
        match &mut c.traffic {
            Traffic::Poisson { flows, .. } => *flows = scale(*flows),
            Traffic::Incast { rounds, .. } => *rounds = scale(*rounds),
        }
        c
    }
}

/// The transport family a scheme belongs to (one of [`FAMILIES`]).
pub fn family(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::ExpressPass
        | Scheme::ExpressPassAeolus
        | Scheme::ExpressPassOracle
        | Scheme::ExpressPassPrioQueue { .. } => "expresspass",
        Scheme::Homa { .. }
        | Scheme::HomaEager { .. }
        | Scheme::HomaAeolus
        | Scheme::HomaOracle => "homa",
        Scheme::Ndp | Scheme::NdpAeolus => "ndp",
        Scheme::PHost { .. } | Scheme::PHostAeolus => "phost",
        Scheme::Fastpass | Scheme::FastpassAeolus => "fastpass",
        Scheme::Dctcp { .. } => "dctcp",
    }
}

/// SplitMix64 finalizer: the one mixing step behind every derived seed.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// 64-bit FNV-1a (cell digests, workload-name salt).
pub fn fnv1a(basis: u64, bytes: &[u8]) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// FNV-1a offset basis.
pub const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// Derive cell `index`'s RNG seed for `workload` from the run seed. Stable
/// across releases (pinned by a unit test): a recorded seed must keep
/// producing the same inputs.
pub fn cell_seed(seed: u64, workload: &str, index: usize) -> u64 {
    mix(mix(seed ^ fnv1a(FNV_BASIS, workload.as_bytes())).wrapping_add(index as u64))
}

/// Simulated time over which a Poisson cell's flows arrive, in expectation.
fn arrival_span(workload: Workload, load: f64, flows: usize, hosts: usize, gbps: u64) -> Time {
    let bits_per_sec = load * hosts as f64 * gbps as f64 * 1e9;
    let secs = flows as f64 * workload.dist().mean() * 8.0 / bits_per_sec;
    (secs * 1e12) as Time
}

/// The chaos fault schedule: 0.5 % corruption on every link, one all-links
/// flap, one host crash/restart and one pod partition — the issue's
/// `loss=0.5%,down=200us..500us,crash=0@1ms..2ms,partition=3ms..3500us`
/// for a 2 ms arrival span, placed at the same fractions of `span` so the
/// windows hit traffic at any flow count.
fn chaos_plan(fault_seed: u64, span: Time) -> FaultPlan {
    let at = |pct: u64| span * pct / 100;
    FaultPlan::new(fault_seed)
        .with_loss(0.005, PacketFilter::Any, LinkFilter::All)
        .with_down(at(10), at(25), LinkFilter::All)
        .with_crash(at(50), at(100), 0)
        .with_partition(at(150), at(175))
}

/// Rounds per incast cell.
const INCAST_ROUNDS: usize = 75;

const DCTCP: Scheme = Scheme::Dctcp { rto: ms(10) };
const HOMA: Scheme = Scheme::Homa { rto: ms(10) };

fn poisson(workload: Workload, load: f64, flows: usize) -> Traffic {
    Traffic::Poisson {
        workload,
        load,
        flows,
    }
}

fn slug(w: Workload) -> &'static str {
    match w {
        Workload::WebServer => "web_server",
        Workload::CacheFollower => "cache_follower",
        Workload::WebSearch => "web_search",
        Workload::DataMining => "data_mining",
    }
}

struct Builder {
    workload: &'static str,
    seed: u64,
    cells: Vec<Cell>,
}

impl Builder {
    fn new(workload: &'static str, seed: u64) -> Builder {
        Builder {
            workload,
            seed,
            cells: Vec::new(),
        }
    }

    fn push(&mut self, scheme: Scheme, topo: TopoSpec, tag: &str, traffic: Traffic) -> &mut Cell {
        let index = self.cells.len();
        let what = match traffic {
            Traffic::Poisson { workload, .. } => slug(workload).to_string(),
            Traffic::Incast { msg, .. } => format!("{}kb", msg / 1000),
        };
        self.cells.push(Cell {
            id: format!("{}/{tag}{what}", scheme.name()),
            scheme,
            topo,
            traffic,
            faults: FaultPlan::default(),
            observe: Observe::None,
            pair: Pair::None,
            seed: cell_seed(self.seed, self.workload, index),
        });
        self.cells.last_mut().expect("just pushed")
    }

    /// Push `(baseline, +Aeolus)` on identical traffic: both cells share one
    /// workload seed so the pair differs only in the scheme.
    fn push_pair(&mut self, base: Scheme, aeolus: Scheme, topo: TopoSpec, tag: &str, t: Traffic) {
        let shared = self.push(base, topo, tag, t).seed;
        self.cells.last_mut().expect("pushed").pair = Pair::Baseline;
        let c = self.push(aeolus, topo, tag, t);
        c.pair = Pair::Aeolus;
        c.seed = shared;
    }
}

/// The cells of `workload` for run seed `seed`; `None` for an unknown name.
pub fn cells(workload: &str, seed: u64) -> Option<Vec<Cell>> {
    let fat = ep_fat_tree(Scale::Full);
    let tier = homa_two_tier(Scale::Full);
    Some(match workload {
        // Steady Poisson traffic on the paper's multi-hop fabrics, one cell
        // per family plus the ExpressPass baseline: scheduled packets
        // dominate, routing is 3–5 hops, pre-credit logic is a sliver.
        "fabric_steady" => {
            let mut b = Builder::new("fabric_steady", seed);
            b.push_pair(
                Scheme::ExpressPass,
                Scheme::ExpressPassAeolus,
                fat,
                "",
                poisson(Workload::WebSearch, 0.4 / 3.0, 100),
            );
            b.push(
                Scheme::HomaAeolus,
                tier,
                "",
                poisson(Workload::CacheFollower, 0.4, 500),
            );
            b.push(
                Scheme::NdpAeolus,
                tier,
                "",
                poisson(Workload::WebServer, 0.4, 3000),
            );
            b.push(
                Scheme::PHostAeolus,
                tier,
                "",
                poisson(Workload::DataMining, 0.4, 40),
            );
            b.push(
                Scheme::FastpassAeolus,
                tier,
                "",
                poisson(Workload::WebServer, 0.4, 5000),
            );
            b.push(DCTCP, tier, "", poisson(Workload::WebSearch, 0.4, 150));
            b.cells
        }
        // N:1 rounds of sub-BDP to few-BDP messages: almost every byte is
        // unscheduled, routing is one hop, flows are born and die fast.
        "incast_burst" => {
            let mut b = Builder::new("incast_burst", seed);
            // 32:1 stops at 40 KB: at 64 KB the Homa (RTO 10 ms) baseline
            // collapses and leaves flows unfinished (README, findings), and
            // a workload may not contain failing operations.
            let fans: [(&str, TopoSpec, Time, &[u64]); 2] = [
                (
                    "7to1_",
                    testbed(),
                    us(1000),
                    &[8_000, 20_000, 40_000, 64_000],
                ),
                (
                    "32to1_",
                    many_to_one(33),
                    us(2000),
                    &[8_000, 20_000, 40_000],
                ),
            ];
            for (tag, topo, gap, sizes) in fans {
                for &msg in sizes {
                    let t = Traffic::Incast {
                        msg,
                        rounds: INCAST_ROUNDS,
                        gap,
                    };
                    b.push_pair(Scheme::ExpressPass, Scheme::ExpressPassAeolus, topo, tag, t);
                    b.push_pair(HOMA, Scheme::HomaAeolus, topo, tag, t);
                    b.push_pair(Scheme::Ndp, Scheme::NdpAeolus, topo, tag, t);
                }
            }
            // The extension families ride along on one 7:1 cell each so
            // every `transport.<fam>.*` row has a cell behind it.
            let t = Traffic::Incast {
                msg: 20_000,
                rounds: INCAST_ROUNDS,
                gap: us(1000),
            };
            for scheme in [Scheme::PHostAeolus, Scheme::FastpassAeolus, DCTCP] {
                b.push(scheme, testbed(), "7to1_", t);
            }
            b.cells
        }
        // The same six transports under an active fault plan: retry timers,
        // backoff, silence gates, tombstones and the wheel's far-future path.
        "chaos_recovery" => {
            let mut b = Builder::new("chaos_recovery", seed);
            let flows = 1500;
            let t = poisson(Workload::WebServer, 0.4, flows);
            let span = arrival_span(Workload::WebServer, 0.4, flows, 64, 100);
            b.push_pair(Scheme::ExpressPass, Scheme::ExpressPassAeolus, tier, "", t);
            for scheme in [
                Scheme::HomaAeolus,
                Scheme::NdpAeolus,
                Scheme::PHostAeolus,
                Scheme::FastpassAeolus,
                DCTCP,
            ] {
                b.push(scheme, tier, "", t);
            }
            for (i, c) in b.cells.iter_mut().enumerate() {
                // Fault seeds are drawn past the cell-seed range so a fault
                // RNG never replays a workload RNG.
                c.faults = chaos_plan(cell_seed(seed, "chaos_recovery", 1000 + i), span);
            }
            b.cells
        }
        // The `Tracer` seam switched on: the conformance oracle on Poisson
        // cells (one of them faulted) and a full recording of a 7:1 incast.
        "observed_run" => {
            let mut b = Builder::new("observed_run", seed);
            b.push(
                Scheme::ExpressPassAeolus,
                fat,
                "",
                poisson(Workload::WebSearch, 0.4 / 3.0, 40),
            );
            b.push(
                Scheme::HomaAeolus,
                tier,
                "",
                poisson(Workload::CacheFollower, 0.4, 250),
            );
            b.push(
                Scheme::NdpAeolus,
                tier,
                "",
                poisson(Workload::WebServer, 0.4, 1500),
            );
            b.push(
                Scheme::PHostAeolus,
                tier,
                "",
                poisson(Workload::WebServer, 0.4, 500),
            );
            b.push(
                Scheme::FastpassAeolus,
                tier,
                "",
                poisson(Workload::WebServer, 0.4, 1000),
            );
            b.push(DCTCP, tier, "", poisson(Workload::WebServer, 0.4, 500));
            let chaos = b.push(
                Scheme::NdpAeolus,
                tier,
                "chaos_",
                poisson(Workload::WebServer, 0.4, 1000),
            );
            chaos.faults = chaos_plan(
                cell_seed(seed, "observed_run", 1000),
                arrival_span(Workload::WebServer, 0.4, 1000, 64, 100),
            );
            for c in &mut b.cells {
                c.observe = Observe::Checked;
            }
            let t = Traffic::Incast {
                msg: 40_000,
                rounds: INCAST_ROUNDS,
                gap: us(1000),
            };
            b.push_pair(
                Scheme::ExpressPass,
                Scheme::ExpressPassAeolus,
                testbed(),
                "7to1_",
                t,
            );
            let n = b.cells.len();
            for c in &mut b.cells[n - 2..] {
                c.observe = Observe::Recorded;
            }
            b.cells
        }
        _ => return None,
    })
}

/// One 7:1 incast cell per family for the churn-scaling probe: the same
/// cell is run at 1× and 4× rounds and ns/event compared.
pub fn churn_probe_cells(seed: u64) -> Vec<Cell> {
    let mut b = Builder::new("churn_probe", seed);
    let t = Traffic::Incast {
        msg: 20_000,
        rounds: 150,
        gap: us(1000),
    };
    for scheme in [
        Scheme::ExpressPassAeolus,
        Scheme::HomaAeolus,
        Scheme::NdpAeolus,
        Scheme::PHostAeolus,
        Scheme::FastpassAeolus,
        DCTCP,
    ] {
        b.push(scheme, testbed(), "7to1_", t);
    }
    b.cells
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_seed_derivation_is_pinned() {
        // Recorded seeds must keep generating the same inputs: these values
        // may never change.
        assert_eq!(cell_seed(11, "fabric_steady", 0), 0xd41a_5bc1_1eec_a7d0);
        assert_eq!(cell_seed(11, "fabric_steady", 1), 0xd3ff_5988_a1ce_2648);
        assert_eq!(cell_seed(11, "incast_burst", 0), 0xcac5_ee42_0546_1d85);
        assert_eq!(cell_seed(12, "fabric_steady", 0), 0xfe69_3e80_28e3_4438);
    }

    #[test]
    fn cell_seeds_differ_by_seed_workload_and_index() {
        let a = cell_seed(11, "fabric_steady", 0);
        assert_ne!(a, cell_seed(12, "fabric_steady", 0));
        assert_ne!(a, cell_seed(11, "incast_burst", 0));
        assert_ne!(a, cell_seed(11, "fabric_steady", 1));
        assert_eq!(a, cell_seed(11, "fabric_steady", 0));
    }

    #[test]
    fn every_workload_has_unique_cell_ids_all_families_and_a_pair() {
        for w in WORKLOADS {
            let cs = cells(w, 11).expect("known workload");
            let mut ids: Vec<&str> = cs.iter().map(|c| c.id.as_str()).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), cs.len(), "{w}: duplicate cell id");
            for fam in FAMILIES {
                assert!(
                    cs.iter().any(|c| family(c.scheme) == fam),
                    "{w}: no {fam} cell"
                );
            }
            let base = cs.iter().filter(|c| c.pair == Pair::Baseline).count();
            let aeolus = cs.iter().filter(|c| c.pair == Pair::Aeolus).count();
            assert!(base > 0 && base == aeolus, "{w}: unbalanced pairs");
        }
        assert!(cells("nope", 11).is_none());
    }

    #[test]
    fn scaling_moves_flows_or_rounds_and_nothing_else() {
        let cs = cells("incast_burst", 11).unwrap();
        let Traffic::Incast { rounds, .. } = cs[0].scaled(4.0).traffic else {
            panic!("incast cell")
        };
        assert_eq!(rounds, 4 * INCAST_ROUNDS);
        let cs = cells("fabric_steady", 11).unwrap();
        let Traffic::Poisson { flows, .. } = cs[0].scaled(0.25).traffic else {
            panic!("poisson cell")
        };
        assert_eq!(flows, 25);
        let Traffic::Poisson { flows, .. } = cs[0].scaled(0.0001).traffic else {
            panic!("poisson cell")
        };
        assert_eq!(flows, 1);
        assert_eq!(cs[0].scaled(0.25).seed, cs[0].seed);
    }

    #[test]
    fn pairs_share_their_workload_seed() {
        let cs = cells("incast_burst", 11).unwrap();
        for w in cs.windows(2) {
            if w[0].pair == Pair::Baseline {
                assert_eq!(w[1].pair, Pair::Aeolus);
                assert_eq!(w[0].seed, w[1].seed);
            }
        }
    }

    #[test]
    fn chaos_cells_are_faulted_and_the_rest_clean() {
        assert!(cells("chaos_recovery", 11)
            .unwrap()
            .iter()
            .all(|c| !c.clean()));
        assert!(cells("fabric_steady", 11).unwrap().iter().all(Cell::clean));
        assert_eq!(
            cells("observed_run", 11)
                .unwrap()
                .iter()
                .filter(|c| !c.clean())
                .count(),
            1
        );
    }
}
