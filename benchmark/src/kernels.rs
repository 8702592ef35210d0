//! Isolated layer kernels: each layer's public API driven on its own, so the
//! ledger can price the operations the traced run counts.
//!
//! Every kernel runs one warm-up plus [`ITERS`] measured iterations and keeps
//! median / p10 / p90 — a kernel with one sample has no variance to read.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use aeolus_experiments::report::{run_header, run_row};
use aeolus_experiments::{cache, Report, RunOutput};
use aeolus_sim::event::{Event, EventQueue};
use aeolus_sim::units::{ms, us, Rate};
use aeolus_sim::{
    EnqueueOutcome, FlowId, FlowMap, NodeId, Packet, PacketPool, PacketRef, Poll, PortId, PortRole,
    RoutePolicy, RouteTable, SimRng, TrafficClass,
};
use aeolus_stats::{FctAggregator, TextTable};
use aeolus_transport::{Scheme, SchemeParams};
use aeolus_workloads::{poisson_flows, PoissonConfig, Workload};

use crate::json::Json;
use crate::metrics::DISCIPLINES;
use crate::run::SMALL_FLOW_BYTES;
use crate::stats::{median, percentile};

/// Measured iterations per kernel.
pub const ITERS: usize = 7;

/// One kernel's timing, per operation.
#[derive(Debug, Clone)]
pub struct KernelStat {
    /// Kernel name.
    pub name: String,
    /// Operations per iteration.
    pub ops: u64,
    /// Median ns per operation.
    pub median_ns: f64,
    /// 10th-percentile ns per operation.
    pub p10_ns: f64,
    /// 90th-percentile ns per operation.
    pub p90_ns: f64,
}

impl KernelStat {
    /// Median seconds per iteration.
    pub fn median_s(&self) -> f64 {
        self.median_ns * self.ops as f64 * 1e-9
    }

    /// JSON row for `trace.json`.
    pub fn to_json(&self) -> Json {
        Json::obj([
            ("name", Json::str(self.name.as_str())),
            ("iters", Json::Num(ITERS as f64)),
            ("ops", Json::Num(self.ops as f64)),
            ("median_ns_per_op", Json::Num(self.median_ns)),
            ("p10_ns_per_op", Json::Num(self.p10_ns)),
            ("p90_ns_per_op", Json::Num(self.p90_ns)),
        ])
    }
}

/// Time `f` (which returns the operations it performed).
pub fn measure(name: &str, mut f: impl FnMut() -> u64) -> KernelStat {
    black_box(f());
    let mut per_op = Vec::with_capacity(ITERS);
    let mut ops = 0;
    for _ in 0..ITERS {
        let t0 = Instant::now();
        ops = black_box(f());
        per_op.push(t0.elapsed().as_nanos() as f64 / ops.max(1) as f64);
    }
    KernelStat {
        name: name.to_string(),
        ops,
        median_ns: median(&per_op),
        p10_ns: percentile(&per_op, 10),
        p90_ns: percentile(&per_op, 90),
    }
}

fn pkt(seq: u64) -> Packet {
    Packet::data(
        FlowId(seq % 64),
        NodeId(0),
        NodeId(1),
        seq,
        1460,
        TrafficClass::Scheduled,
        1 << 20,
    )
}

/// `EventQueue` pop + `schedule_at`, self-sustaining, with the sub-tick /
/// in-wheel / overflow delta mix of a real run.
pub fn event_queue() -> KernelStat {
    const N: u64 = 300_000;
    measure("sim.event", || {
        let mut q = EventQueue::new();
        let mut rng = SimRng::seed_from_u64(0x5eed_cafe);
        for i in 0..1024u64 {
            q.schedule_at(
                rng.below(us(200)),
                Event::Timer {
                    node: NodeId(0),
                    token: i,
                },
            );
        }
        for popped in 0..N {
            let (t, _ev) = q.pop().expect("self-sustaining stream");
            let delta = if rng.chance(0.70) {
                1 + rng.below(us(150))
            } else if rng.chance(0.833) {
                1 + rng.below(1 << 14)
            } else {
                us(300) + rng.below(ms(5))
            };
            q.schedule_at(
                t + delta,
                Event::Timer {
                    node: NodeId(0),
                    token: popped,
                },
            );
        }
        N
    })
}

/// The scheme whose switch queue is discipline `disc`.
fn scheme_with(disc: &str) -> Scheme {
    match disc {
        "xpass_droptail" => Scheme::ExpressPass,
        "xpass_red" => Scheme::ExpressPassAeolus,
        "priority" => Scheme::Homa { rto: ms(10) },
        "priority_selective" => Scheme::HomaAeolus,
        "trimming" => Scheme::Ndp,
        "red" => Scheme::NdpAeolus,
        other => panic!("unknown discipline {other}"),
    }
}

/// The discipline (one of [`DISCIPLINES`]) behind a scheme's switch ports.
pub fn discipline_of(scheme: Scheme) -> &'static str {
    match scheme {
        Scheme::ExpressPass => "xpass_droptail",
        Scheme::ExpressPassAeolus => "xpass_red",
        Scheme::Homa { .. } | Scheme::HomaEager { .. } | Scheme::PHost { .. } => "priority",
        Scheme::HomaAeolus | Scheme::PHostAeolus => "priority_selective",
        Scheme::Ndp => "trimming",
        Scheme::NdpAeolus | Scheme::FastpassAeolus | Scheme::Dctcp { .. } => "red",
        other => panic!("{} is not a benchmarked scheme", other.name()),
    }
}

/// Enqueue + poll on the queue `Scheme::make_queue` returns for a switch
/// port: bursts of 8 scheduled packets, then a full drain.
pub fn queue_disc(disc: &str) -> KernelStat {
    const N: u64 = 200_000;
    let scheme = scheme_with(disc);
    measure(&format!("sim.queues.{disc}"), || {
        let params = SchemeParams::new(us(10));
        let mut q = scheme.make_queue(&params, Rate::gbps(100), PortRole::DownToHost, None);
        let mut pool = PacketPool::new();
        let mut done = 0u64;
        let mut now = 0;
        while done < N {
            for i in 0..8 {
                let r = pool.insert(pkt(done + i));
                if let EnqueueOutcome::Dropped { pkt, .. } = q.enqueue(r, &mut pool, now) {
                    pool.free(pkt);
                    done += 1;
                }
            }
            loop {
                match q.poll(&mut pool, now) {
                    Poll::Ready(r) => {
                        pool.free(r);
                        done += 1;
                    }
                    Poll::NotBefore(t) => now = t,
                    Poll::Empty => break,
                }
            }
            now += us(1);
        }
        done
    })
}

/// `RouteTable::select`: 64 destinations, 4-way ECMP groups, hashes
/// pre-stamped as the engine stamps them at injection.
pub fn route_select() -> KernelStat {
    const N: u64 = 2_000_000;
    measure("sim.routing", || {
        let mut table = RouteTable::new(64, RoutePolicy::EcmpHash, 1);
        for dst in 0..64u32 {
            for p in 0..4u32 {
                table.add_route(NodeId(dst), PortId((dst * 4 + p) as u16));
            }
        }
        let mut p = pkt(0);
        let mut acc = 0u64;
        for i in 0..N {
            p.dst = NodeId((i % 64) as u32);
            p.flow = FlowId(i % 512);
            p.route_hash = aeolus_sim::routing::fnv1a(p.flow.0, p.path_tag);
            acc = acc.wrapping_add(table.select(&p).0 as u64);
        }
        black_box(acc);
        N
    })
}

/// `PacketPool` insert + free with 256 packets in flight.
pub fn packet_pool() -> KernelStat {
    const N: u64 = 1_000_000;
    const LIVE: usize = 256;
    measure("sim.pool", || {
        let mut pool = PacketPool::new();
        let mut ring: Vec<PacketRef> = (0..LIVE as u64).map(|i| pool.insert(pkt(i))).collect();
        for i in 0..N {
            let at = i as usize % LIVE;
            pool.free(ring[at]);
            ring[at] = pool.insert(pkt(i));
        }
        black_box(pool.live());
        N
    })
}

/// `FlowMap`: 90 % hot lookups, 10 % flow turnover over 4096 live flows.
pub fn flow_map() -> KernelStat {
    const N: u64 = 1_000_000;
    const LIVE: u64 = 4096;
    measure("sim.flowmap", || {
        let mut m: FlowMap<FlowId, u64> = FlowMap::new();
        for i in 0..LIVE {
            m.insert(FlowId(i), i);
        }
        let mut next = LIVE;
        let mut rng = SimRng::seed_from_u64(0xF10F);
        for _ in 0..N {
            if rng.chance(0.9) {
                if let Some(v) = m.get_mut(FlowId(next - 1 - rng.below(LIVE))) {
                    *v = v.wrapping_add(1);
                }
            } else {
                m.remove(FlowId(next - LIVE));
                m.insert(FlowId(next), next);
                next += 1;
            }
        }
        black_box(m.len());
        N
    })
}

/// `poisson_flows`: 20 000 Web Server flows over 64 hosts.
pub fn poisson_gen() -> KernelStat {
    const N: usize = 20_000;
    let hosts: Vec<NodeId> = (0..64).map(NodeId).collect();
    let dist = Workload::WebServer.dist();
    measure("workloads.poisson_flows", || {
        let cfg = PoissonConfig {
            load: 0.4,
            host_rate: Rate::gbps(100),
            flows: N,
            seed: 7,
            first_id: 1,
            start: 0,
        };
        black_box(poisson_flows(&cfg, &hosts, &dist)).len() as u64
    })
}

/// `FctAggregator::band` + `summary` over the samples of `out`.
pub fn fct_summary(agg: &FctAggregator) -> KernelStat {
    measure("stats.fct_summary", || {
        black_box(agg.band(0, SMALL_FLOW_BYTES).summary());
        black_box(agg.summary());
        agg.len().max(1) as u64
    })
}

/// The four cache operations on one stored cell.
pub struct CacheKernels {
    /// `cache::encode`.
    pub encode: KernelStat,
    /// `fs::write` of the encoded entry.
    pub store: KernelStat,
    /// `fs::read_to_string` of the entry.
    pub load: KernelStat,
    /// `cache::decode`.
    pub decode: KernelStat,
    /// Encoded entry size.
    pub bytes: u64,
}

/// Encode / store / load / decode `out` under `key`, one op per iteration.
/// Also checks the round trip: `encode(decode(encode(x))) == encode(x)`.
pub fn cache_ops(key: &str, out: &RunOutput, dir: &Path) -> Result<CacheKernels, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(format!("{key}.run"));
    let text = cache::encode(key, out);
    let encode = measure("experiments.cache.encode", || {
        black_box(cache::encode(key, out));
        1
    });
    let store = measure("experiments.cache.store", || {
        std::fs::write(&path, &text).expect("cache dir is writable");
        1
    });
    let load = measure("experiments.cache.load", || {
        black_box(std::fs::read_to_string(&path).expect("entry just written"));
        1
    });
    let decode = measure("experiments.cache.decode", || {
        black_box(cache::decode(key, &text));
        1
    });
    let loaded = std::fs::read_to_string(&path).map_err(|e| format!("read back {key}: {e}"))?;
    let _ = std::fs::remove_file(&path);
    let warm = cache::decode(key, &loaded).ok_or("stored cache entry does not decode")?;
    if cache::encode(key, &warm) != text {
        return Err("decode(encode(x)) is not bit-exact".into());
    }
    Ok(CacheKernels {
        encode,
        store,
        load,
        decode,
        bytes: text.len() as u64,
    })
}

/// `Report::render` and `Report::write_csv` on a per-cell run table.
pub fn report_ops(report: &Report, dir: &Path) -> (KernelStat, KernelStat) {
    let render = measure("experiments.report.render", || {
        black_box(report.render());
        1
    });
    let csv = measure("experiments.report.csv", || {
        black_box(report.write_csv(dir, "cells").expect("out dir is writable"));
        1
    });
    (render, csv)
}

/// The per-cell table both the human output and the report kernels use.
pub fn cell_report<'a>(
    title: &str,
    rows: impl Iterator<Item = (&'a str, &'a RunOutput)>,
) -> Report {
    let mut t = TextTable::new(run_header());
    for (name, out) in rows {
        t.row(run_row(name, out));
    }
    let mut r = Report::new();
    r.section(title, t);
    r
}

/// Every workload-independent kernel, in ledger order.
pub fn layer_kernels() -> Vec<KernelStat> {
    let mut out = vec![event_queue()];
    out.extend(DISCIPLINES.iter().map(|d| queue_disc(d)));
    out.extend([route_select(), packet_pool(), flow_map(), poisson_gen()]);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measure_reports_ordered_percentiles() {
        let mut n = 0u64;
        let k = measure("spin", || {
            n += 1;
            black_box((0..20_000u64).sum::<u64>());
            20_000
        });
        assert_eq!(n as usize, ITERS + 1, "one warm-up plus ITERS measured");
        assert_eq!(k.ops, 20_000);
        assert!(k.p10_ns <= k.median_ns && k.median_ns <= k.p90_ns);
        assert!(k.median_s() > 0.0);
    }

    #[test]
    fn every_discipline_maps_to_a_scheme_and_back() {
        for d in DISCIPLINES {
            assert_eq!(discipline_of(scheme_with(d)), d);
        }
    }
}
