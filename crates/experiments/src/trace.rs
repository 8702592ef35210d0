//! `repro --trace` — run one canonical traced scenario and dump the full
//! telemetry capture as deterministic JSONL.
//!
//! The scenario is the paper's recurring motif: a 7:1 incast of 30 KB
//! messages on the 8-host / 10 Gbps single-switch testbed, repeated for a
//! configurable number of rounds spaced 1 ms apart. It exercises every
//! event class the [`aeolus_sim::RecordingTracer`] captures — unscheduled
//! bursts, selective drops / marks / trims, credit flow, loss detection and
//! retransmission — within a few milliseconds of simulated time.
//!
//! Spec grammar: `<scheme>[@rounds]`, e.g. `homa-aeolus`, `ndp@4`,
//! `dctcp:200@2` (the `:rto_us` suffix belongs to the scheme slug).

use std::str::FromStr;

use aeolus_sim::topology::LinkParams;
use aeolus_sim::units::{ms, us, Time};
use aeolus_sim::{FaultPlan, FlowDesc, FlowId, RecordingTracer, SchedulerKind};
use aeolus_stats::sparkline;
use aeolus_transport::{Scheme, SchemeBuilder, TopoSpec};

/// A parsed `--trace` argument: which scheme to trace and for how many
/// incast rounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceSpec {
    /// Transport scheme under the tracer.
    pub scheme: Scheme,
    /// Incast rounds (1 ms apart).
    pub rounds: u32,
}

impl TraceSpec {
    /// Filesystem-safe name for output files: the scheme slug, with
    /// `_xN` appended when the round count is not the default.
    pub fn file_stem(&self) -> String {
        let mut s = String::from(self.scheme.name());
        if self.rounds != 2 {
            s.push_str(&format!("_x{}", self.rounds));
        }
        s
    }
}

impl FromStr for TraceSpec {
    type Err = String;

    fn from_str(s: &str) -> Result<TraceSpec, String> {
        let (scheme_part, rounds) = match s.split_once('@') {
            Some((sp, r)) => {
                let rounds: u32 = r
                    .parse()
                    .ok()
                    .filter(|&r| r >= 1)
                    .ok_or_else(|| format!("bad round count '{r}' in trace spec '{s}'"))?;
                (sp, rounds)
            }
            None => (s, 2),
        };
        let scheme = Scheme::from_str(scheme_part).map_err(|e| e.to_string())?;
        Ok(TraceSpec { scheme, rounds })
    }
}

/// Result of a traced run: the JSONL capture plus a human summary.
pub struct TraceOutput {
    /// Deterministic JSONL (see DESIGN.md "Observability" for the schema).
    pub jsonl: String,
    /// ASCII occupancy sparklines and counters for the terminal.
    pub summary: String,
}

/// Senders and message size of the canonical incast.
const FANIN: usize = 7;
const MSG_BYTES: u64 = 30_000;

/// Run the canonical traced incast for `spec` on the given scheduler, under
/// `faults` (`repro` passes the session's `--faults` plan; empty = clean).
///
/// Deterministic: identical `spec`, `kind` and `faults` produce
/// byte-identical [`TraceOutput::jsonl`] on every run, on any worker-thread
/// count, and across both scheduler kinds.
pub fn run_trace(spec: &TraceSpec, kind: SchedulerKind, faults: &FaultPlan) -> TraceOutput {
    let mut h = SchemeBuilder::new(spec.scheme)
        .topology(TopoSpec::SingleSwitch {
            hosts: 8,
            link: LinkParams::uniform(aeolus_sim::Rate::gbps(10), us(3)),
        })
        .tracer(RecordingTracer::new())
        .build();
    h.topo.net.set_scheduler(kind);
    // Faults go in *after* the scheduler swap: a non-empty plan arms its
    // window-transition events immediately, and set_scheduler requires a
    // quiescent queue.
    h.install_faults(faults);
    let hosts = h.hosts().to_vec();
    let mut flows = Vec::new();
    for round in 0..spec.rounds {
        for (i, &src) in hosts.iter().skip(1).take(FANIN).enumerate() {
            flows.push(FlowDesc {
                id: FlowId((round as u64) * FANIN as u64 + i as u64 + 1),
                src,
                dst: hosts[0],
                size: MSG_BYTES,
                start: round as Time * ms(1),
            });
        }
    }
    h.schedule(&flows);
    let done = h.run(spec.rounds as Time * ms(100));
    let completed = h.metrics().completed_count();
    let now = h.topo.net.now();
    let tracer = h.topo.net.tracer_mut();
    tracer.finish(now);
    let jsonl = tracer.to_jsonl();
    let summary = render_summary(spec, tracer, done, completed, flows.len());
    TraceOutput { jsonl, summary }
}

fn render_summary(
    spec: &TraceSpec,
    tracer: &RecordingTracer,
    done: bool,
    completed: usize,
    scheduled: usize,
) -> String {
    use std::fmt::Write;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "trace {}: {FANIN}:1 incast x{} rounds, {MSG_BYTES} B messages — {completed}/{scheduled} flows completed{}",
        spec.scheme.label(),
        spec.rounds,
        if done { "" } else { " (HORIZON HIT)" },
    );
    let _ = writeln!(out, "queue depth per egress port (time left to right, '@' = port max):");
    for (&(node, port), pt) in tracer.ports() {
        let depths = pt.depth.values();
        let max = depths.clone().max().unwrap_or(0);
        if max == 0 {
            continue;
        }
        let drops =
            pt.records().filter(|r| matches!(r.ev, aeolus_sim::QueueEvent::Drop(_))).count();
        let _ = writeln!(
            out,
            "  n{:<3} p{:<2} -> n{:<3} |{}| max {:>7} B, {} drop(s) in ring",
            node.0,
            port.0,
            pt.to.0,
            sparkline(depths, 72),
            max,
            drops,
        );
    }
    let count = |pred: fn(&aeolus_sim::TransportEvent) -> bool| {
        tracer.transport_events().filter(|(_, _, e)| pred(e)).count()
    };
    let _ = writeln!(
        out,
        "transport events: {} total — {} credit issues, {} bursts, {} losses detected, {} retransmits",
        tracer.transport_events().len(),
        count(|e| matches!(e, aeolus_sim::TransportEvent::CreditIssue { .. })),
        count(|e| matches!(e, aeolus_sim::TransportEvent::BurstStart { .. })),
        count(|e| matches!(e, aeolus_sim::TransportEvent::LossDetected { .. })),
        count(|e| matches!(e, aeolus_sim::TransportEvent::Retransmit { .. })),
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Session;

    #[test]
    fn spec_parses_scheme_rounds_and_rto() {
        let t: TraceSpec = "homa-aeolus".parse().unwrap();
        assert_eq!(t.rounds, 2);
        assert_eq!(t.scheme.name(), "homa-aeolus");
        let t: TraceSpec = "ndp@4".parse().unwrap();
        assert_eq!(t.rounds, 4);
        assert_eq!(t.file_stem(), "ndp_x4");
        let t: TraceSpec = "dctcp:200@3".parse().unwrap();
        assert_eq!(t.scheme.name(), "dctcp");
        assert_eq!(t.scheme, Scheme::Dctcp { rto: aeolus_sim::units::us(200) });
        assert_eq!(t.file_stem(), "dctcp_x3");
        assert!("homa@0".parse::<TraceSpec>().is_err());
        assert!("nope".parse::<TraceSpec>().is_err());
    }

    #[test]
    fn jsonl_is_bit_identical_across_reruns_and_schedulers() {
        let spec: TraceSpec = "expresspass-aeolus".parse().unwrap();
        let clean = FaultPlan::default();
        let a = run_trace(&spec, SchedulerKind::TimingWheel, &clean);
        let b = run_trace(&spec, SchedulerKind::TimingWheel, &clean);
        assert_eq!(a.jsonl, b.jsonl, "serial rerun must be bit-identical");
        let c = run_trace(&spec, SchedulerKind::BinaryHeap, &clean);
        assert_eq!(a.jsonl, c.jsonl, "scheduler kind must not leak into the trace");
        assert!(a.jsonl.lines().any(|l| l.contains("\"type\":\"queue\"")));
        assert!(a.jsonl.lines().any(|l| l.contains("\"type\":\"transport\"")));
    }

    #[test]
    fn jsonl_is_identical_under_parallel_execution() {
        let spec: TraceSpec = "homa-aeolus".parse().unwrap();
        let runs = Session { jobs: 4, ..Session::default() }.parallel_map(&[(); 4], |_| {
            run_trace(&spec, SchedulerKind::TimingWheel, &FaultPlan::default()).jsonl
        });
        assert!(runs.windows(2).all(|w| w[0] == w[1]), "worker threads must not perturb the trace");
    }

    #[test]
    fn traced_incast_records_drops_for_aeolus_schemes() {
        // A 7:1 30 KB incast overflows the selective-drop threshold: the
        // trace must show drops at the fan-in port and retransmissions
        // recovering them.
        let spec: TraceSpec = "expresspass-aeolus".parse().unwrap();
        let out = run_trace(&spec, SchedulerKind::TimingWheel, &FaultPlan::default());
        assert!(out.jsonl.contains("\"ev\":\"drop\""), "expected selective drops in the capture");
        assert!(out.summary.contains("flows completed"));
    }

    #[test]
    fn traced_fastpass_binds_node_faults_as_the_harness_does() {
        // `--trace` installs its plan after the scheduler swap; it used to
        // hand it to the engine, which knew neither the arbiter nor that it
        // is not a workload host. On the 8-host testbed the arbiter is the
        // last host, node 8, and workload hosts are nodes 1..=7.
        let spec: TraceSpec = "fastpass-aeolus".parse().unwrap();
        let plan: FaultPlan =
            "arbiter=950us..1050us, partition=1100us..1300us, crash=8@30us..60us".parse().unwrap();
        let out = run_trace(&spec, SchedulerKind::TimingWheel, &plan);
        let faults: Vec<&str> =
            out.jsonl.lines().filter(|l| l.starts_with("{\"type\":\"fault\"")).collect();
        let has = |at: u64, ev: &str| {
            faults.iter().any(|l| l.contains(&format!("\"at\":{at},\"ev\":{ev}")))
        };
        // The outage takes the arbiter host down across the second round's
        // requests and brings it back.
        assert!(has(950_000_000, "\"node_crash\",\"node\":8"), "{faults:#?}");
        assert!(has(1_050_000_000, "\"node_restart\",\"node\":8"));
        // Seven workload hosts: the partition darkens the last three, one
        // link window each after none declared — and never an eighth.
        assert_eq!(faults.iter().filter(|l| l.contains("\"ev\":\"window_start\"")).count(), 3);
        assert!(has(1_100_000_000, "\"window_start\",\"window\":2,"));
        // `crash=8` wraps over the seven workload hosts to the second one,
        // not onto the arbiter.
        assert!(has(30_000_000, "\"node_crash\",\"node\":2"), "{faults:#?}");
        assert_eq!(faults.iter().filter(|l| l.contains("\"ev\":\"node_crash\"")).count(), 2);
    }
}
