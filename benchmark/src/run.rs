//! Run one cell: build, generate, schedule, simulate, collect, summarise —
//! each call into a layer under its own span.

use std::path::PathBuf;

use aeolus_experiments::runner::homa_cutoffs_for;
use aeolus_experiments::{collect, RunOutput};
use aeolus_sim::units::ms;
use aeolus_sim::{
    CheckedTracer, FaultPlan, FlowDesc, NodeId, NullTracer, RecordingTracer, SchedulerKind, SimRng,
    Tracer,
};
use aeolus_stats::FctAggregator;
use aeolus_transport::{Harness, SchemeBuilder, SchemeParams};
use aeolus_workloads::{incast_rounds, poisson_flows, PoissonConfig};

use crate::cells::{fnv1a, Cell, Observe, Traffic, FNV_BASIS};
use crate::count_tracer::{CountTracer, Counts, Tee};
use crate::spans::Spans;

/// Flows up to this size are the paper's "small" (0–100 KB) band.
pub const SMALL_FLOW_BYTES: u64 = 100_000;

/// Separates the size-dealing RNG stream from `poisson_flows`' own.
const SIZE_DEAL_SALT: u64 = 0x51ce_dea1;

/// Time after the last arrival that stragglers get to drain.
const DRAIN: aeolus_sim::Time = ms(400);

/// Host seconds one cell spent in each layer call.
#[derive(Debug, Clone, Copy, Default)]
pub struct CellTimes {
    /// `SchemeBuilder::build`.
    pub build_s: f64,
    /// `poisson_flows` / `incast_rounds`.
    pub gen_s: f64,
    /// `Harness::schedule`.
    pub schedule_s: f64,
    /// `Harness::run`.
    pub run_s: f64,
    /// `collect`.
    pub collect_s: f64,
    /// `CheckedTracer::assert_flows_complete` (observed cells).
    pub audit_s: f64,
    /// `RecordingTracer::finish` + `to_jsonl` + file write (observed cells).
    pub jsonl_s: f64,
    /// `FctAggregator::band` + `summary`.
    pub stats_s: f64,
}

impl CellTimes {
    /// Process start → first simulated event.
    pub fn setup_s(&self) -> f64 {
        self.build_s + self.gen_s + self.schedule_s
    }

    /// Simulation and everything the cell's observer adds to it.
    pub fn wall_s(&self) -> f64 {
        self.run_s + self.collect_s + self.audit_s + self.jsonl_s
    }
}

/// What one cell run produced.
pub struct CellResult {
    /// Layer-call times.
    pub times: CellTimes,
    /// `collect`'s output: FCT samples, efficiency, completion, events.
    pub out: RunOutput,
    /// Every flow's outcome, in flow-id order.
    pub flows: Vec<FlowFct>,
    /// FNV-1a over `flows`.
    pub digest: u64,
    /// JSONL bytes written (recorded cells).
    pub jsonl_bytes: u64,
    /// Global-allocator calls in the second half of the arrival span (only
    /// with [`Opts::alloc_window`]).
    pub steady_allocs: u64,
    /// Tracer counters (traced runs only).
    pub counts: Option<Counts>,
    /// Serializations started at switches = route lookups (traced only).
    pub switch_tx: u64,
    /// Serializations started at hosts = pooled packets born (traced only).
    pub host_tx: u64,
}

/// Variations the layer probes apply to a cell.
#[derive(Debug, Clone, Copy)]
pub struct Opts {
    /// Event scheduler (the wheel unless a probe swaps it).
    pub scheduler: SchedulerKind,
    /// Install a fault plan whose windows all open after the run ends.
    pub dormant_faults: bool,
    /// Split the run at the middle of the arrival span and count
    /// allocator calls in the second half.
    pub alloc_window: bool,
}

impl Default for Opts {
    fn default() -> Opts {
        Opts {
            scheduler: SchedulerKind::TimingWheel,
            dormant_faults: false,
            alloc_window: false,
        }
    }
}

/// Where a run may write.
#[derive(Debug, Clone)]
pub struct Env {
    /// `benchmark/out`.
    pub out_dir: PathBuf,
}

/// The dormant plan of `scripts/ci.sh`'s bit-identity gate.
fn dormant_plan() -> FaultPlan {
    "crash=0@4s..5s,arbiter=6s..7s,partition=8s..9s"
        .parse()
        .expect("static fault spec parses")
}

/// Generate the cell's flows against the built harness' host list.
fn generate(cell: &Cell, hosts: &[NodeId], host_rate: aeolus_sim::Rate) -> Vec<FlowDesc> {
    match cell.traffic {
        Traffic::Poisson {
            workload,
            load,
            flows,
        } => {
            let dist = workload.dist();
            let cfg = PoissonConfig {
                load,
                host_rate,
                flows,
                seed: cell.seed,
                first_id: 1,
                start: 0,
            };
            let mut out = poisson_flows(&cfg, hosts, &dist);
            // Stratified sizes: the cell offers the distribution's `flows`
            // quantile midpoints, dealt to the arrivals in seeded order. Every
            // seed then carries the same bytes (so host-time metrics compare
            // across seeds) while arrivals, endpoints and which flow is the
            // elephant still vary.
            let n = out.len() as f64;
            let mut sizes: Vec<u64> = (0..out.len())
                .map(|i| dist.quantile((i as f64 + 0.5) / n))
                .collect();
            SimRng::seed_from_u64(cell.seed ^ SIZE_DEAL_SALT).shuffle(&mut sizes);
            for (f, size) in out.iter_mut().zip(sizes) {
                f.size = size;
            }
            out
        }
        Traffic::Incast { msg, rounds, gap } => {
            // The seed picks the receiver and a sub-MTU size jitter; the
            // round structure itself is the testbed methodology.
            let at = (cell.seed % hosts.len() as u64) as usize;
            let senders: Vec<NodeId> = hosts
                .iter()
                .copied()
                .enumerate()
                .filter(|&(i, _)| i != at)
                .map(|(_, h)| h)
                .collect();
            let size = msg + (cell.seed >> 8) % 512;
            incast_rounds(&senders, hosts[at], size, rounds, gap, 0, 1)
        }
    }
}

/// One flow's outcome: what the digest hashes and the pair gain joins on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowFct {
    /// Flow id.
    pub id: u64,
    /// Flow size, bytes.
    pub size: u64,
    /// Completion time, ps (`None` = not completed at the horizon).
    pub fct_ps: Option<u64>,
}

/// FNV-1a over every flow's `(id, size, fct)` in flow-id order; incomplete
/// flows hash as `u64::MAX`.
fn digest(flows: &[FlowFct]) -> u64 {
    flows.iter().fold(FNV_BASIS, |h, f| {
        let h = fnv1a(h, &f.id.to_le_bytes());
        let h = fnv1a(h, &f.size.to_le_bytes());
        fnv1a(h, &f.fct_ps.unwrap_or(u64::MAX).to_le_bytes())
    })
}

/// What an observer's end-of-run work cost.
#[derive(Debug, Default, Clone, Copy)]
struct Post {
    audit_s: f64,
    jsonl_s: f64,
    jsonl_bytes: u64,
}

/// Process start → first simulated event: build the harness, generate the
/// flows, schedule them. Returns the harness, the three set-up times (the
/// other [`CellTimes`] fields still zero) and the last flow's start.
fn set_up<T: Tracer>(
    index: usize,
    cell: &Cell,
    opts: Opts,
    tracer: T,
    spans: &mut Spans,
) -> (Harness<T>, CellTimes, aeolus_sim::Time) {
    let at = Some(index);
    let s = spans.enter("transport.harness.build", at);
    let mut params = SchemeParams::new(0);
    if let Traffic::Poisson { workload, .. } = cell.traffic {
        params.homa_cutoffs = homa_cutoffs_for(workload);
    }
    params.faults = if opts.dormant_faults {
        dormant_plan()
    } else {
        cell.faults.clone()
    };
    let mut h = SchemeBuilder::new(cell.scheme)
        .params(params)
        .topology(cell.topo)
        .tracer(tracer)
        .build();
    if opts.scheduler != SchedulerKind::TimingWheel {
        // Only the heap-swap probe gets here, on a clean cell: an installed
        // fault plan has already scheduled its windows.
        h.topo.net.set_scheduler(opts.scheduler);
    }
    let build_s = spans.exit(s);

    let s = spans.enter("workloads.generate", at);
    let flows = generate(cell, h.hosts(), h.topo.host_rate);
    let gen_s = spans.exit(s);

    let s = spans.enter("transport.harness.schedule", at);
    h.schedule(&flows);
    let schedule_s = spans.exit(s);

    let last_arrival = flows.iter().map(|f| f.start).max().unwrap_or(0);
    (
        h,
        CellTimes {
            build_s,
            gen_s,
            schedule_s,
            ..CellTimes::default()
        },
        last_arrival,
    )
}

/// One more sample of the cell's set-up time: the harness is built,
/// loaded and dropped without simulating.
pub fn time_set_up(index: usize, cell: &Cell, spans: &mut Spans) -> f64 {
    set_up(index, cell, Opts::default(), NullTracer, spans)
        .1
        .setup_s()
}

fn run_with<T: Tracer>(
    index: usize,
    cell: &Cell,
    opts: Opts,
    tracer: T,
    spans: &mut Spans,
    post: impl FnOnce(&mut Harness<T>, &mut Spans) -> Post,
) -> (CellResult, Harness<T>) {
    let at = Some(index);
    let whole = spans.enter("cell", at);
    let (mut h, set_up_times, last_arrival) = set_up(index, cell, opts, tracer, spans);
    let s = spans.enter("sim.run", at);
    let mut steady_allocs = 0;
    if opts.alloc_window {
        h.topo.net.run_until(last_arrival / 2);
        let before = crate::alloc::allocations();
        h.topo.net.run_until(last_arrival);
        steady_allocs = crate::alloc::allocations() - before;
    }
    h.run(last_arrival + DRAIN);
    let run_s = spans.exit(s);

    let s = spans.enter("experiments.collect", at);
    let out: RunOutput = collect(&h);
    let collect_s = spans.exit(s);

    let post = post(&mut h, spans);

    let s = spans.enter("stats.summarise", at);
    std::hint::black_box(out.agg.band(0, SMALL_FLOW_BYTES).summary());
    let stats_s = spans.exit(s);
    let flows: Vec<FlowFct> = h
        .metrics()
        .flows()
        .map(|r| FlowFct {
            id: r.desc.id.0,
            size: r.desc.size,
            fct_ps: r.fct(),
        })
        .collect();

    let result = CellResult {
        times: CellTimes {
            run_s,
            collect_s,
            audit_s: post.audit_s,
            jsonl_s: post.jsonl_s,
            stats_s,
            ..set_up_times
        },
        digest: digest(&flows),
        flows,
        out,
        jsonl_bytes: post.jsonl_bytes,
        steady_allocs,
        counts: None,
        switch_tx: 0,
        host_tx: 0,
    };
    spans.exit(whole);
    (result, h)
}

/// Fold the traced harness' counters into the result.
fn with_counts<T: Tracer>(mut r: CellResult, h: &Harness<T>, counts: &Counts) -> CellResult {
    let mut hosts = h.hosts().to_vec();
    hosts.extend(h.params.arbiter);
    r.switch_tx = counts.switch_tx(&hosts);
    r.host_tx = counts.host_tx(&hosts);
    r.counts = Some(counts.clone());
    r
}

fn audit<T: Tracer>(
    index: usize,
    oracle: impl Fn(&T) -> &CheckedTracer,
) -> impl FnOnce(&mut Harness<T>, &mut Spans) -> Post {
    move |h, spans| {
        let s = spans.enter("sim.oracle.audit", Some(index));
        oracle(h.topo.net.tracer()).assert_flows_complete(h.metrics());
        Post {
            audit_s: spans.exit(s),
            ..Post::default()
        }
    }
}

fn jsonl<T: Tracer>(
    index: usize,
    path: PathBuf,
    recorder: impl Fn(&mut T) -> &mut RecordingTracer,
) -> impl FnOnce(&mut Harness<T>, &mut Spans) -> Post {
    move |h, spans| {
        let s = spans.enter("sim.telemetry.jsonl", Some(index));
        let now = h.topo.net.now();
        let rec = recorder(h.topo.net.tracer_mut());
        rec.finish(now);
        let text = rec.to_jsonl();
        std::fs::write(&path, &text).expect("write the recorded trace");
        let jsonl_s = spans.exit(s);
        // A temp file: its size is the result, its bytes are not.
        let _ = std::fs::remove_file(&path);
        Post {
            jsonl_s,
            jsonl_bytes: text.len() as u64,
            ..Post::default()
        }
    }
}

/// Run `cell` under its own observer; with `traced`, a [`CountTracer`]
/// rides the same seam and its counters come back in the result.
pub fn run_cell(
    index: usize,
    cell: &Cell,
    traced: bool,
    opts: Opts,
    env: &Env,
    spans: &mut Spans,
) -> CellResult {
    let oracle = || CheckedTracer::with_profile(cell.scheme.oracle_profile());
    let path = || {
        env.out_dir
            .join(format!("observed-{}-{index}.jsonl", std::process::id()))
    };
    match (cell.observe, traced) {
        (Observe::None, false) => {
            run_with(index, cell, opts, NullTracer, spans, |_, _| Post::default()).0
        }
        (Observe::None, true) => {
            let (r, h) = run_with(index, cell, opts, CountTracer::default(), spans, |_, _| {
                Post::default()
            });
            with_counts(r, &h, &h.topo.net.tracer().counts)
        }
        (Observe::Checked, false) => {
            run_with(
                index,
                cell,
                opts,
                oracle(),
                spans,
                audit(index, |t: &CheckedTracer| t),
            )
            .0
        }
        (Observe::Checked, true) => {
            let tee = Tee(CountTracer::default(), oracle());
            let (r, h) = run_with(
                index,
                cell,
                opts,
                tee,
                spans,
                audit(index, |t: &Tee<CountTracer, CheckedTracer>| &t.1),
            );
            with_counts(r, &h, &h.topo.net.tracer().0.counts)
        }
        (Observe::Recorded, false) => {
            let post = jsonl(index, path(), |t: &mut RecordingTracer| t);
            run_with(index, cell, opts, RecordingTracer::new(), spans, post).0
        }
        (Observe::Recorded, true) => {
            let tee = Tee(CountTracer::default(), RecordingTracer::new());
            let post = jsonl(
                index,
                path(),
                |t: &mut Tee<CountTracer, RecordingTracer>| &mut t.1,
            );
            let (r, h) = run_with(index, cell, opts, tee, spans, post);
            with_counts(r, &h, &h.topo.net.tracer().0.counts)
        }
    }
}

/// Pool the FCT samples of `results` into one aggregator.
pub fn pooled<'a>(results: impl IntoIterator<Item = &'a CellResult>) -> FctAggregator {
    let mut agg = FctAggregator::new();
    for r in results {
        for s in r.out.agg.samples() {
            agg.push(*s);
        }
    }
    agg
}
