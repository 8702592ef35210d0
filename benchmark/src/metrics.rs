//! The metrics the benchmark declares — the single source `BENCHMARK.json`
//! is generated from (`--manifest`) and every emitted result is checked
//! against.

use crate::cells::FAMILIES;
use crate::json::Json;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One end-to-end metric: what a user of the simulator sees.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which it may worsen.
    pub bound: f64,
    /// Host time (noisy) or simulated (bit-exact for a seed).
    pub simulated: bool,
}

/// The nine end-to-end metrics. The driver compares runs of *different*
/// seeds, so each bound is at least three times the spread measured over ten
/// seeds on the reference host (README, "Bounds").
pub const END_TO_END: [EndToEnd; 9] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "wall_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "flows_per_s",
        unit: "flows/s",
        better: Better::Higher,
        bound: 0.25,
        simulated: false,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.2,
        simulated: false,
    },
    EndToEnd {
        name: "completed_frac",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.00005,
        simulated: true,
    },
    EndToEnd {
        name: "sim_small_fct_gmean_us",
        unit: "us",
        better: Better::Lower,
        bound: 0.25,
        simulated: true,
    },
    EndToEnd {
        name: "sim_slowdown_gmean",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.25,
        simulated: true,
    },
    EndToEnd {
        name: "sim_efficiency",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.02,
        simulated: true,
    },
    EndToEnd {
        name: "sim_aeolus_gain",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.25,
        simulated: true,
    },
];

/// One per-layer metric.
#[derive(Debug, Clone, PartialEq)]
pub struct PerLayer {
    /// Name (`<layer>.<metric>`).
    pub name: String,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
}

/// Queue disciplines `Scheme::make_queue` hands the benchmarked schemes.
pub const DISCIPLINES: [&str; 6] = [
    "xpass_droptail",
    "xpass_red",
    "priority",
    "priority_selective",
    "trimming",
    "red",
];

/// Every per-layer metric, in ledger order.
pub fn per_layer() -> Vec<PerLayer> {
    use Better::{Higher, Lower};
    let mut out: Vec<PerLayer> = Vec::new();
    let mut add = |name: String, unit: &'static str, better: Better| {
        out.push(PerLayer { name, unit, better });
    };
    let fixed: [(&str, &'static str, Better); 62] = [
        ("sim.event.events", "count", Lower),
        ("sim.event.events_per_s", "1/s", Higher),
        ("sim.event.kernel_ns_per_op", "ns", Lower),
        ("sim.event.est_share", "ratio", Lower),
        ("sim.event.heap_swap_slowdown", "ratio", Higher),
        ("sim.queues.enqueues", "count", Lower),
        ("sim.queues.dequeues", "count", Lower),
        ("sim.queues.marks", "count", Lower),
        ("sim.queues.trims", "count", Lower),
        ("sim.queues.drops_selective", "count", Lower),
        ("sim.queues.drops_overflow", "count", Lower),
        ("sim.queues.drops_other", "count", Lower),
        ("sim.queues.max_qlen_bytes", "B", Lower),
        ("sim.queues.est_share", "ratio", Lower),
        ("sim.routing.hops", "count", Lower),
        ("sim.routing.kernel_ns_per_op", "ns", Lower),
        ("sim.routing.est_share", "ratio", Lower),
        ("sim.pool.kernel_ns_per_op", "ns", Lower),
        ("sim.pool.steady_allocs", "count", Lower),
        ("sim.pool.est_share", "ratio", Lower),
        ("sim.flowmap.kernel_ns_per_op", "ns", Lower),
        ("sim.metrics.flows", "count", Higher),
        ("sim.metrics.collect_s", "s", Lower),
        ("sim.telemetry.hook_calls", "count", Lower),
        ("sim.telemetry.count_overhead_frac", "ratio", Lower),
        ("sim.telemetry.record_overhead_frac", "ratio", Lower),
        ("sim.telemetry.jsonl_s", "s", Lower),
        ("sim.telemetry.jsonl_mb", "MB", Lower),
        ("sim.oracle.overhead_frac", "ratio", Lower),
        ("sim.oracle.audit_s", "s", Lower),
        ("sim.faults.kills", "count", Lower),
        ("sim.faults.windows", "count", Lower),
        ("sim.faults.crashes", "count", Lower),
        ("sim.faults.flows_aborted", "count", Lower),
        ("sim.faults.flows_restarted", "count", Lower),
        ("sim.faults.dormant_overhead_frac", "ratio", Lower),
        ("core.bursts", "count", Higher),
        ("core.unsched_launched", "B", Higher),
        ("core.unsched_delivered", "B", Higher),
        ("core.first_rtt_useful_frac", "ratio", Higher),
        ("core.losses_probe", "count", Lower),
        ("core.losses_sack", "count", Lower),
        ("core.losses_last_resort", "count", Lower),
        ("core.retransmits", "count", Lower),
        ("core.retx_per_loss", "ratio", Lower),
        ("transport.failed_frac", "ratio", Lower),
        ("transport.small_fct_mean_us", "us", Lower),
        ("transport.fct_p99_slowdown", "ratio", Lower),
        ("transport.credits_issued", "count", Lower),
        ("transport.credit_waste_frac", "ratio", Lower),
        ("transport.flows_with_timeouts", "count", Lower),
        ("transport.retx_timeout", "count", Lower),
        ("transport.handlers_est_share", "ratio", Lower),
        ("transport.harness.build_s", "s", Lower),
        ("transport.harness.schedule_s", "s", Lower),
        ("workloads.gen_s", "s", Lower),
        ("workloads.flows", "count", Higher),
        ("workloads.gen_ns_per_flow", "ns", Lower),
        ("stats.summarise_s", "s", Lower),
        ("stats.samples", "count", Higher),
        ("experiments.report.render_s", "s", Lower),
        ("experiments.report.csv_s", "s", Lower),
    ];
    for (name, unit, better) in fixed {
        add(name.to_string(), unit, better);
    }
    for disc in DISCIPLINES {
        add(format!("sim.queues.kernel_ns_per_op.{disc}"), "ns", Lower);
    }
    for fam in FAMILIES {
        add(format!("transport.{fam}.ns_per_event"), "ns", Lower);
        add(format!("transport.{fam}.events_per_flow"), "count", Lower);
        add(format!("transport.{fam}.events_per_pkt"), "count", Lower);
        add(format!("transport.{fam}.churn_scaling"), "ratio", Lower);
    }
    for (name, unit, better) in [
        ("encode_s", "s", Lower),
        ("store_s", "s", Lower),
        ("load_s", "s", Lower),
        ("decode_s", "s", Lower),
        ("bytes", "B", Lower),
        ("hit_speedup", "ratio", Higher),
    ] {
        add(format!("experiments.cache.{name}"), unit, better);
    }
    out
}

/// A name starts with a letter or digit and is ≤ 64 of `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

/// Why each workload was chosen (one line each, ≤ 200 characters).
pub const WORKLOAD_WHY: [(&str, &str); 4] = [
    (
        "fabric_steady",
        "steady Poisson traffic on the multi-hop fabrics, all six families: scheduled packets, event queue, dispatch and 3-5 hop routing do the work; pre-credit logic and recovery do almost none",
    ),
    (
        "incast_burst",
        "7:1 and 32:1 incast rounds of 8-64 KB messages: almost every byte is unscheduled, so aeolus-core, queue drop/mark/trim paths and per-flow birth/death dominate; routing is one hop",
    ),
    (
        "chaos_recovery",
        "the same transports under loss, a link flap, a host crash and a partition: retry timers, backoff, silence gates, tombstones and the fault layer do the work; fast path bypassed",
    ),
    (
        "observed_run",
        "the Tracer seam switched on: conformance oracle on Poisson cells plus a recorded incast written as JSONL; oracle and telemetry dominate here and are compiled out of the other three",
    ),
];

/// Seconds one run measures for.
pub const RUN_SECONDS: u64 = 20;

/// `BENCHMARK.json`, generated.
pub fn manifest() -> Json {
    let num = Json::Num;
    Json::obj([
        (
            "command",
            Json::Arr(vec![Json::str("bash"), Json::str("benchmark/run.sh")]),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", num(RUN_SECONDS as f64)),
        (
            "workloads",
            Json::Arr(
                WORKLOAD_WHY
                    .iter()
                    .map(|(name, why)| {
                        Json::obj([("name", Json::str(*name)), ("why", Json::str(*why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                per_layer()
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name.as_str())),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cells::WORKLOADS;

    /// A unit is 1..=16 of `[A-Za-z0-9_/%.-]`.
    fn valid_unit(unit: &str) -> bool {
        (1..=16).contains(&unit.len())
            && unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-'))
    }

    #[test]
    fn name_validation_follows_the_contract() {
        for ok in [
            "wall_s",
            "sim.queues.kernel_ns_per_op.red",
            "a",
            "9lives",
            "a-b_c.d",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        let long = "x".repeat(65);
        for bad in ["", ".a", "_a", "-a", "a b", "a/b", "µs", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
    }

    #[test]
    fn unit_validation_follows_the_contract() {
        for ok in ["s", "ms", "1/s", "flows/s", "%", "MB", "count"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "µs", "per second", "x".repeat(17).as_str()] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn declared_metrics_are_valid_unique_and_within_limits() {
        let mut names: Vec<String> = END_TO_END.iter().map(|m| m.name.to_string()).collect();
        names.extend(per_layer().into_iter().map(|m| m.name));
        names.extend(WORKLOADS.iter().map(|w| w.to_string()));
        for n in &names {
            assert!(valid_name(n), "{n}");
        }
        let total = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), total, "a name is used twice");
        assert!(per_layer().len() <= 128);
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound <= 0.25 && valid_unit(m.unit)));
        assert!(per_layer().iter().all(|m| valid_unit(m.unit)));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").unwrap();
        assert!(
            END_TO_END.iter().all(|m| m.bound <= setup.bound),
            "setup_s has the largest bound"
        );
        for (name, why) in WORKLOAD_WHY {
            assert!(WORKLOADS.contains(&name));
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "{name}: {}",
                why.len()
            );
        }
    }

    #[test]
    fn committed_manifest_is_the_generated_one() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(
            Json::parse(&text).expect("valid JSON"),
            manifest(),
            "regenerate with --manifest"
        );
        assert!(text.len() <= 64 * 1024);
    }
}
