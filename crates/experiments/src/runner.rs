//! Generic experiment runner: scheme × topology × workload → FCT statistics.
//!
//! Individual simulations are strictly single-threaded and deterministic;
//! throughput comes from running *independent* configurations concurrently
//! via [`run_many`] / [`parallel_map`]. Results always come back in input
//! order, so serial and parallel execution produce identical output vectors.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use aeolus_sim::units::{ms, Time, PS_PER_SEC};
use aeolus_sim::{Event, EventMix, FaultPlan, FlowDesc, Tracer};
use aeolus_stats::{FctAggregator, FctSample};
use aeolus_transport::{Harness, Scheme, SchemeBuilder, SchemeParams, TopoSpec};
use aeolus_workloads::{poisson_flows, PoissonConfig, Workload};

/// Worker-thread cap for [`parallel_map`]; 0 = auto (available cores).
static JOBS: AtomicUsize = AtomicUsize::new(0);

/// Events processed by every harness collected since the last
/// [`take_event_mix`], by [`Event::kind`] — summed, the engine-throughput
/// counter `repro` reports.
static EVENT_MIX: [AtomicU64; Event::KINDS.len()] =
    [const { AtomicU64::new(0) }; Event::KINDS.len()];

/// Set the worker-thread cap for [`parallel_map`] (0 or `set_jobs(1)` keeps
/// runs serial; 0 restores auto-detection).
pub fn set_jobs(n: usize) {
    JOBS.store(n, Ordering::Relaxed);
}

/// The effective worker count: the cap from [`set_jobs`], or the machine's
/// available parallelism when unset.
pub fn jobs() -> usize {
    match JOBS.load(Ordering::Relaxed) {
        0 => std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        n => n,
    }
}

/// Drain the global event counters (events simulated by all runs collected
/// since the previous call), by kind in [`Event::KINDS`] order.
pub fn take_event_mix() -> EventMix {
    std::array::from_fn(|k| EVENT_MIX[k].swap(0, Ordering::Relaxed))
}

/// [`take_event_mix`], summed.
pub fn take_events_processed() -> u64 {
    take_event_mix().iter().sum()
}

/// Session-wide default fault plan (`repro --faults <spec>`). Applied by
/// [`run_workload`] to any run whose params don't carry an explicit plan.
static DEFAULT_FAULTS: Mutex<Option<FaultPlan>> = Mutex::new(None);

/// Install a default fault plan for all subsequent runs (the `--faults` CLI
/// flag). `FaultPlan::default()` (empty) clears it.
pub fn set_default_faults(plan: FaultPlan) {
    let mut slot = DEFAULT_FAULTS.lock().unwrap();
    *slot = if plan.is_empty() { None } else { Some(plan) };
}

/// The current session-wide default fault plan (empty unless `--faults` set
/// one). Experiment kernels that build harnesses directly should thread this
/// into [`aeolus_transport::SchemeBuilder::faults`].
pub fn default_faults() -> FaultPlan {
    DEFAULT_FAULTS.lock().unwrap().clone().unwrap_or_default()
}

/// Credit a finished network's events to the global counters — for
/// experiment kernels that drive a harness directly instead of going through
/// [`collect`].
pub fn note_events(mix: EventMix) {
    for (total, n) in EVENT_MIX.iter().zip(mix) {
        total.fetch_add(n, Ordering::Relaxed);
    }
}

/// Session-wide conformance-checking switch (`repro --check`). When set,
/// every [`run_workload`] harness is built via
/// [`SchemeBuilder::build_checked`], so the full conformance oracle rides
/// the experiment and panics at the first invariant-violating event.
static CHECKED: AtomicBool = AtomicBool::new(false);

/// Turn session-wide conformance checking on or off (the `--check` CLI
/// flag). Checked runs are slower; numbers are unchanged because the oracle
/// only observes.
pub fn set_checked(on: bool) {
    CHECKED.store(on, Ordering::Relaxed);
}

/// Is session-wide conformance checking on?
pub fn checked() -> bool {
    CHECKED.load(Ordering::Relaxed)
}

/// One simulation run's configuration.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Transport scheme.
    pub scheme: Scheme,
    /// Topology.
    pub spec: TopoSpec,
    /// Scheme parameters (`SchemeParams::new(0)` lets the harness derive the
    /// base RTT from the topology).
    pub params: SchemeParams,
    /// Workload distribution.
    pub workload: Workload,
    /// Offered load as a fraction of aggregate *host* capacity.
    pub load: f64,
    /// Number of flows.
    pub n_flows: usize,
    /// Workload RNG seed.
    pub seed: u64,
    /// Extra time after the last arrival to let stragglers drain.
    pub drain: Time,
}

impl RunConfig {
    /// Sensible defaults for the given scheme/topology/workload.
    pub fn new(scheme: Scheme, spec: TopoSpec, workload: Workload) -> RunConfig {
        RunConfig {
            scheme,
            spec,
            params: SchemeParams::new(0),
            workload,
            load: 0.4,
            n_flows: 2_000,
            seed: 1,
            drain: ms(400),
        }
    }
}

/// Outcome of one run.
pub struct RunOutput {
    /// FCT samples of completed flows (with per-size ideal FCTs).
    pub agg: FctAggregator,
    /// Transfer efficiency (delivered unique / sent payload).
    pub efficiency: f64,
    /// Flows that suffered ≥1 timeout.
    pub flows_with_timeouts: usize,
    /// Completed / scheduled flows.
    pub completed: usize,
    /// Scheduled flows.
    pub scheduled: usize,
    /// Normalized goodput: unique delivered bits over (hosts × rate × span).
    pub goodput: f64,
    /// Simulated span (first arrival → last event processed).
    pub span: Time,
    /// Events the engine processed during the run.
    pub events: u64,
}

impl RunOutput {
    /// Completion fraction (1.0 = every flow finished before the horizon).
    pub fn completion(&self) -> f64 {
        if self.scheduled == 0 {
            1.0
        } else {
            self.completed as f64 / self.scheduled as f64
        }
    }
}

/// Homa computes its unscheduled-priority cutoffs from the observed message
/// size distribution; derive them from the workload's quantiles (one cutoff
/// per boundary between the `unsched_levels` priority bands).
pub fn homa_cutoffs_for(workload: Workload) -> Vec<u64> {
    let d = workload.dist();
    vec![d.quantile(0.4), d.quantile(0.7), d.quantile(0.9)]
}

/// Run a Poisson-workload experiment.
///
/// When the content-addressed cache is enabled (`repro` without
/// `--no-cache`; see [`crate::cache`]), the run's *effective* configuration
/// — params normalized, session faults folded in — is keyed and served from
/// the store on a hit. Checked runs (`--check`) always simulate: a skipped
/// run exercises no oracle.
pub fn run_workload(cfg: &RunConfig) -> RunOutput {
    let mut params = cfg.params.clone();
    // Workload-derived Homa cutoffs unless the caller overrode them.
    if params.homa_cutoffs == SchemeParams::new(0).homa_cutoffs {
        params.homa_cutoffs = homa_cutoffs_for(cfg.workload);
    }
    // Session-wide `--faults` default, unless the config carries its own plan.
    if params.faults.is_empty() {
        params.faults = default_faults();
    }
    let eff = RunConfig { params, ..cfg.clone() };
    if checked() || !crate::cache::cache_enabled() {
        return run_workload_uncached(&eff);
    }
    crate::cache::run_cached(&eff, run_workload_uncached)
}

/// The simulate-always body of [`run_workload`], on the fully-normalized
/// config (the cache's verify mode re-invokes this to compare against a
/// stored entry).
pub(crate) fn run_workload_uncached(cfg: &RunConfig) -> RunOutput {
    let builder =
        SchemeBuilder::new(cfg.scheme).params(cfg.params.clone()).topology(cfg.spec);
    if checked() {
        // `--check`: same run, but the conformance oracle observes every
        // event and the wire-level delivery ledger is audited at the end.
        let mut h = builder.build_checked();
        let flows = poisson_for(cfg, &mut h);
        let out = run_flows(&mut h, &flows, cfg.drain);
        h.topo.net.tracer().assert_flows_complete(h.metrics());
        out
    } else {
        let mut h = builder.build();
        let flows = poisson_for(cfg, &mut h);
        run_flows(&mut h, &flows, cfg.drain)
    }
}

/// Generate the Poisson flow list for `cfg` against a built harness.
fn poisson_for<T: Tracer>(cfg: &RunConfig, h: &mut Harness<T>) -> Vec<FlowDesc> {
    let hosts = h.hosts().to_vec();
    poisson_flows(
        &PoissonConfig {
            load: cfg.load,
            host_rate: h.topo.host_rate,
            flows: cfg.n_flows,
            seed: cfg.seed,
            first_id: 1,
            start: 0,
        },
        &hosts,
        &cfg.workload.dist(),
    )
}

/// Run an arbitrary flow list on a prepared harness (any tracer — the
/// conformance oracle from `--check` rides through here unchanged).
pub fn run_flows<T: Tracer>(h: &mut Harness<T>, flows: &[FlowDesc], drain: Time) -> RunOutput {
    h.schedule(flows);
    let last_arrival = flows.iter().map(|f| f.start).max().unwrap_or(0);
    let horizon = last_arrival + drain;
    h.run(horizon);
    collect(h)
}

/// Collect statistics from a finished harness.
pub fn collect<T: Tracer>(h: &Harness<T>) -> RunOutput {
    let m = h.metrics();
    let mut agg = FctAggregator::new();
    for rec in m.flows() {
        if let Some(fct) = rec.fct() {
            agg.push(FctSample {
                size: rec.desc.size,
                fct_ps: fct,
                ideal_ps: h.ideal_fct(rec.desc.size),
            });
        }
    }
    let span = h.topo.net.now().max(1);
    let capacity_bits =
        h.hosts().len() as f64 * h.topo.host_rate.bps() as f64 * span as f64 / PS_PER_SEC as f64;
    let events = h.topo.net.events_processed();
    note_events(h.topo.net.event_mix());
    RunOutput {
        efficiency: m.transfer_efficiency(),
        flows_with_timeouts: m.flows_with_timeouts(),
        completed: m.completed_count(),
        scheduled: m.flow_count(),
        goodput: m.payload_delivered as f64 * 8.0 / capacity_bits,
        span,
        events,
        agg,
    }
}

/// Apply `f` to every item on a scoped worker pool (work-stealing by atomic
/// index) and return the results **in input order** — so callers observe the
/// same output for any worker count, including 1. Each invocation of `f`
/// must be self-contained (our simulations are single-threaded and seeded),
/// which makes serial and parallel execution bit-identical.
pub fn parallel_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = jobs().min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                s.spawn(|| {
                    let mut local = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        if i >= items.len() {
                            break;
                        }
                        local.push((i, f(&items[i])));
                    }
                    local
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("runner worker panicked"))
            .collect()
    });
    indexed.sort_by_key(|(i, _)| *i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

/// Run every configuration (concurrently up to the [`set_jobs`] cap) and
/// return outputs in input order. Each run is an independent, deterministic,
/// single-threaded simulation, so this is observably identical to
/// `cfgs.iter().map(run_workload).collect()` — just faster.
pub fn run_many(cfgs: &[RunConfig]) -> Vec<RunOutput> {
    parallel_map(cfgs, run_workload)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::topos::testbed;

    #[test]
    fn workload_run_produces_samples() {
        let mut cfg = RunConfig::new(Scheme::ExpressPassAeolus, testbed(), Workload::WebServer);
        cfg.n_flows = 40;
        cfg.load = 0.3;
        let out = run_workload(&cfg);
        assert!(out.completion() > 0.9, "completion {}", out.completion());
        assert!(out.agg.len() >= 36);
        assert!(out.efficiency > 0.5);
        assert!(out.goodput > 0.0 && out.goodput < 1.0);
        // Slowdowns must be causal.
        for s in out.agg.samples() {
            assert!(s.slowdown() >= 0.99, "slowdown {} for size {}", s.slowdown(), s.size);
        }
        assert!(out.events > 0, "a completed run must have processed events");
    }

    #[test]
    fn checked_mode_runs_the_oracle_over_a_workload() {
        // Same workload as above, but with the conformance oracle riding
        // every event (`repro --check`). Numbers must be unaffected.
        let mut cfg = RunConfig::new(Scheme::NdpAeolus, testbed(), Workload::WebServer);
        cfg.n_flows = 25;
        cfg.load = 0.3;
        let plain = run_workload(&cfg);
        set_checked(true);
        let checked_out = run_workload(&cfg);
        set_checked(false);
        assert_eq!(plain.completed, checked_out.completed);
        assert_eq!(plain.events, checked_out.events, "the oracle only observes");
        assert_eq!(plain.span, checked_out.span);
    }

    #[test]
    fn parallel_map_preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        set_jobs(8);
        let out = parallel_map(&items, |&x| x * x);
        set_jobs(0);
        let expect: Vec<u64> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, expect);
    }

    #[test]
    fn run_many_matches_serial_exactly() {
        let cfgs: Vec<RunConfig> = (1..=4)
            .map(|seed| {
                let mut c =
                    RunConfig::new(Scheme::HomaAeolus, testbed(), Workload::WebServer);
                c.n_flows = 25;
                c.load = 0.3;
                c.seed = seed;
                c
            })
            .collect();
        let serial: Vec<RunOutput> = cfgs.iter().map(run_workload).collect();
        set_jobs(4);
        let parallel = run_many(&cfgs);
        set_jobs(0);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.completed, p.completed);
            assert_eq!(s.scheduled, p.scheduled);
            assert_eq!(s.events, p.events, "event counts must be bit-identical");
            assert_eq!(s.span, p.span);
            assert_eq!(s.agg.len(), p.agg.len());
            assert_eq!(s.agg.summary().p99_slowdown, p.agg.summary().p99_slowdown);
        }
    }
}
