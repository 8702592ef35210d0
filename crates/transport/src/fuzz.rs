//! Shrinking scenario fuzzer: random (scheme × topology × workload ×
//! faults) scenarios run end-to-end under the conformance oracle
//! ([`aeolus_sim::CheckedTracer`]), with failures greedily minimized to a
//! one-line repro spec.
//!
//! A [`Scenario`] is plain data with a textual round-trip: [`fmt::Display`]
//! emits `scheme=<slug[:rto_us]> hosts=<n> flows=<src>-<dst>:<size>@<us>,...
//! faults=<plan>` and [`std::str::FromStr`] parses it back, so a failing
//! case travels as one copy-pastable line. [`fuzz`] drives N seeded cases
//! through [`Scenario::check`]; on the first failure [`shrink`] deletes
//! flows, fault rules and windows, halves sizes and durations, and trims
//! the topology until nothing more can be removed without losing the
//! failure, then reports the minimal spec.
//!
//! What counts as a failure:
//!
//! - any conformance-oracle panic (queue ledgers, drop legality, transmit
//!   causality, byte/credit conservation, burst budget, retransmit
//!   pairing) — unconditionally;
//! - on a *clean* network (empty [`FaultPlan`]) additionally: flows not
//!   completing within the horizon, or app-level delivery differing from
//!   the flow size. Under injected faults liveness is best-effort (a link
//!   that is down is allowed to cost time), so only conformance counts;
//! - under *node faults* (crash / arbiter-outage / partition directives)
//!   additionally: any flow neither completed nor aborted-with-cause at
//!   the horizon — the graceful-degradation guarantee says faults may cost
//!   time or abort flows, but never hang them.

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::str::FromStr;

use aeolus_sim::telemetry::{class_str, reason_str};
use aeolus_sim::topology::LinkParams;
use aeolus_sim::units::{ms, us, Time, PS_PER_US};
use aeolus_sim::{
    FaultPlan, FlowDesc, FlowId, LinkFilter, OracleSignals, PacketFilter, Rate, SimRng,
};

use crate::builder::SchemeBuilder;
use crate::harness::TopoSpec;
use crate::registry::Scheme;

/// One flow in a [`Scenario`]: host *indices* (resolved against the built
/// topology's host list modulo its length, so a spec survives topology
/// shrinking), byte size, and start time in microseconds.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowSpec {
    /// Source host index.
    pub src: usize,
    /// Destination host index.
    pub dst: usize,
    /// Flow size in bytes.
    pub size: u64,
    /// Start time in microseconds.
    pub start_us: u64,
}

/// A self-contained fuzz case: everything needed to rebuild and re-run it.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// Transport scheme under test.
    pub scheme: Scheme,
    /// Host count for the single-switch topology.
    pub hosts: usize,
    /// The workload.
    pub flows: Vec<FlowSpec>,
    /// Injected wire faults (empty plan = clean network).
    pub faults: FaultPlan,
}

/// Horizon every fuzz case runs under — generous against the microsecond
/// workloads and millisecond RTOs the generator emits.
const HORIZON: Time = ms(2000);

/// Smallest topology the shrinker will try: two hosts plus slack for the
/// Fastpass arbiter reservation.
const MIN_HOSTS: usize = 3;

impl fmt::Display for Scenario {
    /// One-line repro spec; parses back via [`FromStr`].
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scheme={} hosts={} flows=", self.scheme, self.hosts)?;
        if self.flows.is_empty() {
            f.write_str("none")?;
        }
        for (i, fl) in self.flows.iter().enumerate() {
            if i > 0 {
                f.write_str(",")?;
            }
            write!(f, "{}-{}:{}@{}", fl.src, fl.dst, fl.size, fl.start_us)?;
        }
        // Last field on purpose: the fault grammar contains ", " separators,
        // so the parser treats everything after `faults=` as the plan.
        write!(f, " faults={}", self.faults)
    }
}

impl FromStr for Scenario {
    type Err = String;

    /// Parse the [`fmt::Display`] spec back. Errors name the offending
    /// token so a hand-edited repro line fails loudly, not mysteriously.
    fn from_str(s: &str) -> Result<Scenario, String> {
        let s = s.trim();
        let (head, faults_spec) = match s.split_once("faults=") {
            Some((head, rest)) => (head, rest.trim()),
            None => (s, ""),
        };
        let mut scheme = None;
        let mut hosts = None;
        let mut flows = Vec::new();
        for tok in head.split_whitespace() {
            let (key, val) =
                tok.split_once('=').ok_or_else(|| format!("scenario token '{tok}' is not KEY=VALUE"))?;
            match key {
                "scheme" => {
                    scheme = Some(Scheme::from_str(val).map_err(|e| e.to_string())?);
                }
                "hosts" => {
                    hosts = Some(
                        val.parse::<usize>().map_err(|_| format!("bad host count '{val}'"))?,
                    );
                }
                "flows" => {
                    if val == "none" {
                        continue;
                    }
                    for part in val.split(',') {
                        flows.push(parse_flow(part)?);
                    }
                }
                other => return Err(format!("unknown scenario key '{other}'")),
            }
        }
        let scheme = scheme.ok_or("spec is missing scheme=")?;
        let hosts = hosts.ok_or("spec is missing hosts=")?;
        let faults = faults_spec.parse::<FaultPlan>()?;
        Ok(Scenario { scheme, hosts, flows, faults })
    }
}

/// Parse one `src-dst:size@start_us` flow token; a start whose picoseconds
/// overflow `Time` is rejected.
fn parse_flow(part: &str) -> Result<FlowSpec, String> {
    let bad = || format!("bad flow '{part}' (expected SRC-DST:SIZE@START_US)");
    let (ends, rest) = part.split_once(':').ok_or_else(bad)?;
    let (src, dst) = ends.split_once('-').ok_or_else(bad)?;
    let (size, start) = rest.split_once('@').ok_or_else(bad)?;
    let start_us: u64 = start.parse().map_err(|_| bad())?;
    start_us.checked_mul(PS_PER_US).ok_or_else(bad)?;
    Ok(FlowSpec {
        src: src.parse().map_err(|_| bad())?,
        dst: dst.parse().map_err(|_| bad())?,
        size: size.parse().map_err(|_| bad())?,
        start_us,
    })
}

/// The scheme pool the generator draws from: [`Scheme::all`] (RTO-carrying
/// variants at their paper defaults) minus eager Homa.
///
/// The exclusion is historical, kept on purpose: `Scenario::random` indexes
/// this list with its first RNG draw, so the pool's length and order key
/// every fuzz seed, the 806-spec corpus and the "guided 25 vs blind 22"
/// statistic. Eager Homa conforms under the oracle when named in a `--spec`
/// and is pinned by `recovery_golden`; drawing it here means re-recording
/// all of those at once, which belongs with a change that widens what the
/// fuzzer draws from (the whole scheme × first-RTT-mode product), not with a
/// refactor that must leave them alone.
pub(crate) fn scheme_pool() -> Vec<Scheme> {
    Scheme::all().filter(|s| !matches!(s, Scheme::HomaEager { .. })).collect()
}

impl Scenario {
    /// Generate a random scenario from `seed` (fully deterministic).
    ///
    /// Shape: 4–8 hosts behind one 10 Gbps switch, 1–6 flows up to 200 KB
    /// starting inside the first 50 µs, and — half the time — a small
    /// fault plan (≤ 2% corruption loss and/or one sub-millisecond
    /// down/degraded window, sometimes plus one node fault: a host
    /// crash/restart, an arbiter outage or a pod partition, all short and
    /// early so the post-restart tail fits well inside the horizon).
    pub(crate) fn random(seed: u64) -> Scenario {
        let mut rng = SimRng::seed_from_u64(seed);
        let pool = scheme_pool();
        let scheme = pool[rng.index(pool.len())];
        let hosts = 4 + rng.index(5);
        let n_flows = 1 + rng.index(6);
        let flows = (0..n_flows)
            .map(|_| {
                let src = rng.index(hosts);
                let dst = (src + 1 + rng.index(hosts - 1)) % hosts;
                FlowSpec { src, dst, size: 1 + rng.below(200_000), start_us: rng.below(50) }
            })
            .collect();
        let faults = if rng.chance(0.5) {
            FaultPlan::default()
        } else {
            let mut plan = FaultPlan::new(1 + rng.below(1_000));
            if rng.chance(0.6) {
                let filters = [
                    PacketFilter::Any,
                    PacketFilter::Data,
                    PacketFilter::Control,
                    PacketFilter::Credit,
                    PacketFilter::Unscheduled,
                ];
                let prob = 0.001 + 0.019 * rng.next_f64();
                plan = plan.with_loss(prob, filters[rng.index(filters.len())], LinkFilter::All);
            }
            if rng.chance(0.4) || plan.is_empty() {
                let from = us(rng.below(200));
                let until = from + us(1 + rng.below(400));
                if rng.chance(0.5) {
                    plan = plan.with_down(from, until, LinkFilter::All);
                } else {
                    let slowdown = 2 + rng.below(6) as u32;
                    plan = plan.with_degraded(from, until, slowdown, LinkFilter::All);
                }
            }
            if rng.chance(0.35) {
                // One node / control-plane fault: early and sub-millisecond,
                // so restarts and the retransmission tail finish long before
                // the horizon and a non-settled flow is a genuine hang.
                let from = us(rng.below(300));
                let until = from + us(50 + rng.below(700));
                plan = match rng.index(3) {
                    0 => plan.with_crash(from, until, rng.index(hosts)),
                    1 => plan.with_arbiter_outage(from, until),
                    _ => plan.with_partition(from, until),
                };
            }
            plan
        };
        Scenario { scheme, hosts, flows, faults }
    }

    /// Build and run this scenario under the full conformance oracle.
    ///
    /// Returns `None` if the run conforms, or `Some(message)` describing
    /// the first failure: the oracle's panic message (first violating
    /// event, with flow/port context), or — on a clean network only — an
    /// incomplete run or an app-level delivery mismatch.
    pub fn check(&self) -> Option<String> {
        self.check_signed().failure
    }

    /// [`Scenario::check`], plus the behavioral signals the run left behind
    /// — the raw material for the guided fuzzer's novelty signature
    /// ([`crate::corpus::Signature`]).
    ///
    /// `signals` is `None` exactly when the run panicked: the harness is
    /// consumed by the unwind, so the panic message itself (carried in
    /// `failure`) is the only signal a panicking run produces.
    pub(crate) fn check_signed(&self) -> CheckedRun {
        let scenario = self.clone();
        let outcome = catch_unwind(AssertUnwindSafe(move || scenario.run_signed()));
        match outcome {
            Ok((failure, signals)) => CheckedRun { failure, signals: Some(signals) },
            Err(payload) => CheckedRun { failure: Some(panic_message(&payload)), signals: None },
        }
    }

    /// The body [`Scenario::check_signed`] guards with `catch_unwind`: any
    /// panic in here (the oracle's, or a defensive assert anywhere in the
    /// stack) is a reportable failure.
    fn run_signed(&self) -> (Option<String>, RunSignals) {
        let spec = TopoSpec::SingleSwitch {
            hosts: self.hosts,
            link: LinkParams::uniform(Rate::gbps(10), us(3)),
        };
        let mut h = SchemeBuilder::new(self.scheme)
            .topology(spec)
            .faults(self.faults.clone())
            .build_checked();
        let hosts = h.hosts().to_vec();
        if hosts.len() < 2 {
            // Degenerate topology (e.g. all hosts reserved): nothing to
            // check, and the shrinker must not mistake this for a failure.
            return (None, RunSignals::default());
        }
        let n = hosts.len();
        let flows: Vec<FlowDesc> = self
            .flows
            .iter()
            .enumerate()
            .map(|(i, f)| {
                let src = f.src % n;
                // Keep flows meaningful after topology shrinking: a
                // collision post-modulo moves the destination over by one.
                let dst = if f.dst % n == src { (src + 1) % n } else { f.dst % n };
                FlowDesc {
                    id: FlowId(i as u64 + 1),
                    src: hosts[src],
                    dst: hosts[dst],
                    size: f.size,
                    start: us(f.start_us),
                }
            })
            .collect();
        h.schedule(&flows);
        let done = h.run(HORIZON);
        let clean = self.faults.is_empty();
        let m = h.metrics();
        let signals = RunSignals::gather(h.topo.net.tracer().signals(), m);
        if clean && !done {
            let failure = format!(
                "incomplete on a clean network: {}/{} flows finished by {HORIZON} ps",
                m.completed_count(),
                m.flow_count()
            );
            return (Some(failure), signals);
        }
        if clean {
            for r in m.flows() {
                if r.delivered != r.desc.size {
                    let failure = format!(
                        "flow {} delivered {} of {} bytes on a clean network",
                        r.desc.id.0, r.delivered, r.desc.size
                    );
                    return (Some(failure), signals);
                }
            }
        }
        if self.faults.has_node_faults() && !m.all_settled() {
            // Graceful degradation: node faults may slow flows down or abort
            // them with a cause, but a flow that is neither completed nor
            // aborted at a 2 s horizon is a hung recovery loop.
            let hung = m.flow_count() - m.completed_count() - m.aborted_count();
            let failure = format!(
                "{hung} of {} flows hung (neither completed nor aborted) under node faults",
                m.flow_count()
            );
            return (Some(failure), signals);
        }
        // Wire-level exactness for whatever did complete (faulty or not):
        // panics through the oracle on any mismatch.
        h.topo.net.tracer().assert_flows_complete(m);
        (None, signals)
    }
}

/// Verdict plus signals from one `Scenario::check_signed` run.
#[derive(Debug, Clone)]
pub struct CheckedRun {
    /// `None` if the run conformed; otherwise the first failure message.
    pub failure: Option<String>,
    /// Behavioral signals, `None` exactly when the run panicked.
    pub signals: Option<RunSignals>,
}

/// Everything a run leaves behind that the novelty signature is built from:
/// the oracle's check-side signals plus the metrics' drop taxonomy and flow
/// outcomes. Deterministic per scenario — the simulation is single-threaded
/// and fully seeded — so identical scenarios produce identical signals on
/// any worker count.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunSignals {
    /// Queue-depth extremes, retransmit-cause mix and check proximity from
    /// the conformance oracle.
    pub oracle: OracleSignals,
    /// Non-zero drop-matrix cells as (reason, class, count), in the
    /// metrics' fixed reason-major order.
    pub drops: Vec<(&'static str, &'static str, u64)>,
    /// Flows scheduled.
    pub flow_count: usize,
    /// Flows that completed within the horizon.
    pub completed: usize,
    /// Flows left aborted at the horizon.
    pub aborted: usize,
    /// Total crash/abort restarts across all flows.
    pub restarts: u64,
    /// Total retransmission timeouts across all flows.
    pub timeouts: u64,
    /// Flows that retransmitted at least one payload byte.
    pub retransmitting_flows: usize,
}

impl RunSignals {
    /// Condense a finished run's oracle signals and metrics.
    fn gather(oracle: OracleSignals, m: &aeolus_sim::Metrics) -> RunSignals {
        let mut s = RunSignals {
            oracle,
            drops: Vec::new(),
            flow_count: m.flow_count(),
            completed: m.completed_count(),
            aborted: m.aborted_count(),
            restarts: 0,
            timeouts: 0,
            retransmitting_flows: 0,
        };
        for ((reason, class), n) in m.drops() {
            if n > 0 {
                s.drops.push((reason_str(reason), class_str(class), n));
            }
        }
        for r in m.flows() {
            s.restarts += r.restarts as u64;
            s.timeouts += r.timeouts as u64;
            if r.retransmitted > 0 {
                s.retransmitting_flows += 1;
            }
        }
        s
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &Box<dyn Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Greedily shrink a failing scenario while `fails` keeps returning
/// `Some(_)`. Passes, iterated to a fixpoint: drop flows, drop corruption
/// rules, drop fault windows (in plan order: link windows, crashes, arbiter
/// outages, partitions), halve window durations, halve flow sizes, zero
/// start times, shrink the topology. Returns the minimal scenario and its
/// failure message.
///
/// Generic over the failure predicate so shrinking itself is testable
/// without running a simulation; the fuzzer passes `|s| s.check()`.
///
/// Panics if `scenario` does not fail under `fails` — shrinking a passing
/// case is a caller bug.
pub fn shrink(
    mut scenario: Scenario,
    fails: &dyn Fn(&Scenario) -> Option<String>,
) -> (Scenario, String) {
    let mut msg = fails(&scenario).expect("shrink() requires a failing scenario");
    // Try one mutation; keep it (and the fresh failure message) iff the
    // failure survives.
    let attempt = |scenario: &mut Scenario, msg: &mut String, cand: Scenario| -> bool {
        if let Some(m) = fails(&cand) {
            *scenario = cand;
            *msg = m;
            true
        } else {
            false
        }
    };
    loop {
        let mut progressed = false;

        // Drop whole flows, re-testing the same index after a removal.
        let mut i = 0;
        while i < scenario.flows.len() {
            let mut cand = scenario.clone();
            cand.flows.remove(i);
            if attempt(&mut scenario, &mut msg, cand) {
                progressed = true;
            } else {
                i += 1;
            }
        }

        // Drop corruption rules, then fault windows of every kind.
        let mut i = 0;
        while i < scenario.faults.corruption.len() {
            let mut cand = scenario.clone();
            cand.faults.corruption.remove(i);
            if attempt(&mut scenario, &mut msg, cand) {
                progressed = true;
            } else {
                i += 1;
            }
        }
        let mut i = 0;
        while i < scenario.faults.windows.len() {
            let mut cand = scenario.clone();
            cand.faults.windows.remove(i);
            if attempt(&mut scenario, &mut msg, cand) {
                progressed = true;
            } else {
                i += 1;
            }
        }

        // Halve remaining window durations (keeping them non-empty).
        for i in 0..scenario.faults.windows.len() {
            let w = scenario.faults.windows[i];
            let dur = w.until - w.from;
            if dur >= 2 {
                let mut cand = scenario.clone();
                cand.faults.windows[i].until = w.from + dur / 2;
                if attempt(&mut scenario, &mut msg, cand) {
                    progressed = true;
                }
            }
        }

        // Halve flow sizes and zero start times.
        for i in 0..scenario.flows.len() {
            if scenario.flows[i].size > 1 {
                let mut cand = scenario.clone();
                cand.flows[i].size /= 2;
                if attempt(&mut scenario, &mut msg, cand) {
                    progressed = true;
                }
            }
            if scenario.flows[i].start_us > 0 {
                let mut cand = scenario.clone();
                cand.flows[i].start_us = 0;
                if attempt(&mut scenario, &mut msg, cand) {
                    progressed = true;
                }
            }
        }

        // Shrink the topology one host at a time.
        if scenario.hosts > MIN_HOSTS {
            let mut cand = scenario.clone();
            cand.hosts -= 1;
            if attempt(&mut scenario, &mut msg, cand) {
                progressed = true;
            }
        }

        if !progressed {
            return (scenario, msg);
        }
    }
}

/// A fuzzing failure, fully minimized: print `minimized` (its `Display`)
/// to get the one-line repro spec.
#[derive(Debug, Clone)]
pub struct FuzzReport {
    /// Index of the failing case within this `fuzz` run.
    pub case: usize,
    /// The per-case seed: `Scenario::random(case_seed)` rebuilds the
    /// original (pre-shrink) scenario.
    pub case_seed: u64,
    /// Failure message of the original scenario.
    pub failure: String,
    /// The shrunken scenario — minimal under the greedy passes.
    pub minimized: Scenario,
    /// Failure message of the minimized scenario (may differ from
    /// `failure`: shrinking keeps *a* failure, not necessarily the same
    /// one).
    pub minimized_failure: String,
}

/// Run `cases` random scenarios under the conformance oracle, stopping at
/// the first failure and shrinking it. Returns `None` when every case
/// conforms. Deterministic in `seed`.
pub fn fuzz(cases: usize, seed: u64) -> Option<FuzzReport> {
    let mut rng = SimRng::seed_from_u64(seed);
    for case in 0..cases {
        let case_seed = rng.next_u64();
        let scenario = Scenario::random(case_seed);
        if let Some(failure) = scenario.check() {
            let (minimized, minimized_failure) = shrink(scenario, &|s| s.check());
            return Some(FuzzReport { case, case_seed, failure, minimized, minimized_failure });
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeolus_sim::Fault;

    #[test]
    fn random_scenarios_round_trip_through_the_spec() {
        let mut node_faulted = 0;
        for seed in 0..64 {
            let s = Scenario::random(seed);
            if s.faults.has_node_faults() {
                node_faulted += 1;
            }
            let line = s.to_string();
            let back: Scenario = line.parse().unwrap_or_else(|e| {
                panic!("seed {seed}: '{line}' failed to parse back: {e}")
            });
            assert_eq!(back, s, "seed {seed}: '{line}'");
            assert_eq!(back.to_string(), line, "seed {seed}: display not a fixpoint");
        }
        // The generator must actually exercise the node-fault grammar, or
        // the round-trip above proves nothing about it.
        assert!(node_faulted > 0, "no seed in 0..64 generated a node fault");
    }

    /// Mutated specs and raw bytes: `from_str` answers every one with a
    /// scenario or an error, never a panic, and a scenario it accepts
    /// prints as a line that parses back to it.
    #[test]
    fn from_str_never_panics_on_mutated_or_raw_input() {
        let mut rng = SimRng::seed_from_u64(46);
        let seeds: Vec<String> = (0..64).map(|seed| Scenario::random(seed).to_string()).collect();
        let alphabet = b"=:@,.-% 0123456789acdehlmnoprsuw\xff\x00";
        for i in 0..20_000 {
            let mut bytes = if i % 4 == 0 {
                (0..rng.below(48)).map(|_| rng.below(256) as u8).collect()
            } else {
                seeds[rng.index(seeds.len())].clone().into_bytes()
            };
            for _ in 0..rng.range_u64(1, 4) {
                let at = rng.index(bytes.len() + 1);
                let byte = alphabet[rng.index(alphabet.len())];
                match rng.below(3) {
                    0 => bytes.insert(at, byte),
                    1 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ if at < bytes.len() => bytes[at] = byte,
                    _ => bytes.push(byte),
                }
            }
            let spec = String::from_utf8_lossy(&bytes);
            match spec.parse::<Scenario>() {
                Ok(s) => assert_eq!(s.to_string().parse::<Scenario>(), Ok(s), "{spec:?}"),
                Err(e) => assert!(!e.is_empty()),
            }
        }
    }

    #[test]
    fn shrink_strips_irrelevant_node_faults_but_keeps_load_bearing_ones() {
        // Failure requires a crash window; the arbiter outage and partition
        // riding along must be stripped, and the crash window's duration
        // must halve down to the 1 ps floor.
        let crashes = |s: &Scenario| {
            s.faults.windows.iter().filter(|w| matches!(w.what, Fault::Crash(_))).count()
        };
        let fails = |s: &Scenario| (crashes(s) > 0).then(|| "needs a crash".to_string());
        let mut start = Scenario::random(5);
        start.faults = FaultPlan::new(3)
            .with_crash(us(10), us(900), 1)
            .with_arbiter_outage(us(20), us(400))
            .with_partition(us(30), us(500));
        let (min, msg) = shrink(start, &fails);
        assert_eq!(msg, "needs a crash");
        assert_eq!(crashes(&min), 1, "{min}");
        assert_eq!(min.faults.windows.len(), 1, "outage and partition were irrelevant: {min}");
        let w = &min.faults.windows[0];
        assert_eq!(w.until - w.from, 1, "crash window halved to the floor: {min}");
        assert!(min.flows.is_empty(), "flows were irrelevant: {min}");
    }

    #[test]
    fn checked_run_settles_a_crash_scenario() {
        // A mid-transfer receiver crash must yield settled flows (completed
        // after restart, or aborted with a cause) — never a hang; `check`
        // returning None certifies both conformance and settledness.
        let s: Scenario =
            "scheme=homa-aeolus hosts=4 flows=1-0:60000@0,2-0:60000@5 faults=crash=0@20us..600us"
                .parse()
                .unwrap();
        assert!(s.faults.has_node_faults());
        assert_eq!(s.check(), None);
    }

    #[test]
    fn spec_errors_name_the_offending_token() {
        let cases: &[(&str, &str)] = &[
            ("scheme=homa hosts=8 flows=none faults=", ""), // valid baseline
            ("scheme=warp hosts=8 flows=none faults=", "unknown scheme 'warp'"),
            ("scheme=homa hosts=eight flows=none faults=", "bad host count 'eight'"),
            ("scheme=homa hosts=8 flows=1:2 faults=", "bad flow '1:2'"),
            ("scheme=homa hosts=8 flows=1-2:x@0 faults=", "bad flow '1-2:x@0'"),
            ("scheme=homa hosts=8 flows=1-2:9@99999999999999 faults=", "bad flow '1-2:9@9999"),
            ("scheme=homa:0 hosts=8 flows=none faults=", "scheme 'homa:0': the RTO must be"),
            ("scheme=ndp:10 hosts=8 flows=none faults=", "scheme 'ndp:10': this scheme takes no"),
            ("scheme=homa hosts=8 bogus=1 flows=none faults=", "unknown scenario key 'bogus'"),
            ("scheme=homa hosts=8 oops flows=none faults=", "'oops' is not KEY=VALUE"),
            ("hosts=8 flows=none faults=", "missing scheme="),
            ("scheme=homa flows=none faults=", "missing hosts="),
            ("scheme=homa hosts=8 flows=none faults=loss=2.0", "outside [0, 1]"),
        ];
        for (spec, want) in cases {
            let got = spec.parse::<Scenario>();
            if want.is_empty() {
                assert!(got.is_ok(), "'{spec}' should parse: {:?}", got.err());
            } else {
                let err = got.expect_err(&format!("'{spec}' should fail"));
                assert!(err.contains(want), "'{spec}': error '{err}' lacks '{want}'");
            }
        }
    }

    #[test]
    fn shrink_reaches_a_minimal_scenario_under_a_synthetic_predicate() {
        // Failure predicate: some flow is >= 1000 bytes. The minimum under
        // the greedy passes is one flow in [1000, 1999] at start 0, no
        // faults, smallest topology.
        let fails = |s: &Scenario| {
            s.flows.iter().any(|f| f.size >= 1000).then(|| "big flow".to_string())
        };
        let start = Scenario::random(11); // seed 11 has a flow >= 1000 bytes
        assert!(fails(&start).is_some(), "pick a seed whose scenario trips the predicate");
        let (min, msg) = shrink(start, &fails);
        assert_eq!(msg, "big flow");
        assert_eq!(min.flows.len(), 1, "exactly the one witnessing flow survives: {min}");
        let f = &min.flows[0];
        assert!((1000..2000).contains(&f.size), "size halved to the boundary: {min}");
        assert_eq!(f.start_us, 0, "start zeroed: {min}");
        assert!(min.faults.is_empty(), "irrelevant faults removed: {min}");
        assert_eq!(min.hosts, MIN_HOSTS, "topology shrunk: {min}");
    }

    #[test]
    fn shrink_keeps_load_bearing_faults() {
        // Failure needs BOTH a down window and >= 2 flows: shrinking must
        // not remove either, but must still strip corruption rules.
        let fails = |s: &Scenario| {
            (s.flows.len() >= 2 && !s.faults.windows.is_empty())
                .then(|| "needs window + 2 flows".to_string())
        };
        let mut start = Scenario::random(3);
        start.faults = FaultPlan::new(9)
            .with_loss(0.01, PacketFilter::Any, LinkFilter::All)
            .with_down(us(10), us(500), LinkFilter::All);
        while start.flows.len() < 3 {
            start.flows.push(FlowSpec { src: 0, dst: 1, size: 5000, start_us: 7 });
        }
        let (min, _) = shrink(start, &fails);
        assert_eq!(min.flows.len(), 2, "{min}");
        assert_eq!(min.faults.windows.len(), 1, "{min}");
        assert!(min.faults.corruption.is_empty(), "loss rule was irrelevant: {min}");
        // Window durations halve to the 1 ps floor while the failure holds.
        let w = &min.faults.windows[0];
        assert_eq!(w.until - w.from, 1, "{min}");
    }

    #[test]
    #[should_panic(expected = "requires a failing scenario")]
    fn shrink_rejects_a_passing_scenario() {
        let _ = shrink(Scenario::random(0), &|_| None);
    }

    #[test]
    fn checked_run_passes_on_a_clean_scenario() {
        let s: Scenario = "scheme=homa-aeolus hosts=4 flows=1-0:30000@0 faults="
            .parse()
            .unwrap();
        assert_eq!(s.check(), None);
    }

    #[test]
    fn checked_run_reports_planted_protocol_violations() {
        // An impossibly small RTO makes eager Homa resend entire messages
        // before any loss happened; the oracle's pairing check is off for
        // Homa variants (see Scheme::oracle_profile), so plant the failure
        // one level up: a clean-network flow that cannot complete because
        // every packet is "lost". A 100% data-loss plan is *faulty*, so
        // instead prove the clean-network liveness check fires by giving a
        // flow an unsatisfiable start far beyond the horizon.
        let s: Scenario = format!(
            "scheme=ndp hosts=4 flows=1-0:2000@{} faults=",
            2 * (HORIZON / us(1))
        )
        .parse()
        .unwrap();
        let failure = s.check().expect("a flow starting past the horizon cannot complete");
        assert!(failure.contains("incomplete on a clean network"), "{failure}");
    }

    #[test]
    fn fuzz_conforms_on_a_small_budget() {
        // A handful of end-to-end cases (mixed clean/faulty) must pass the
        // oracle; a failure here is a real conformance regression — print
        // the minimized repro for the log.
        if let Some(r) = fuzz(4, 0xae01) {
            panic!(
                "case {} (seed {}): {}\nminimized: {}\n  -> {}",
                r.case, r.case_seed, r.failure, r.minimized, r.minimized_failure
            );
        }
    }
}
