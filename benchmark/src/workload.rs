//! One benchmark run of one workload: the measured (end-to-end) run and the
//! traced (per-layer) run, each with its output checks.

use std::time::{Duration, Instant};

use aeolus_experiments::{cache, RunConfig};
use aeolus_sim::SchedulerKind;
use aeolus_workloads::Workload;

use crate::cells::{self, family, fnv1a, Cell, Observe, Pair, Traffic, FAMILIES, FNV_BASIS};
use crate::count_tracer::Counts;
use crate::json::Json;
use crate::kernels::{self, discipline_of, KernelStat};
use crate::metrics::{per_layer, DISCIPLINES, END_TO_END};
use crate::run::{pooled, run_cell, time_set_up, CellResult, Env, Opts, SMALL_FLOW_BYTES};
use crate::spans::{self_time_by_name, self_times_ns, Spans};
use crate::stats::{median, percentile};

/// Fewest passes a measured run makes, however short `--seconds` is.
const MIN_PASSES: usize = 3;

/// Events the differential probes' cell is cut down to.
const PROBE_EVENTS: f64 = 600_000.0;

/// Set-up-only samples taken per cell per pass, beside the cell's own.
const EXTRA_SET_UPS: usize = 4;

/// What one run reports.
#[derive(Debug)]
pub struct Outcome {
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Flows scheduled in one pass.
    pub attempted: u64,
    /// Flows not completed at the horizon in one pass.
    pub failed: u64,
    /// Output checks that failed (empty = correct).
    pub failures: Vec<String>,
    /// Reported-not-gated detail: events, digest, repeats, per-cell rows.
    pub detail: Json,
}

impl Outcome {
    /// The contract's result object (the last line of stdout).
    pub fn result_json(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.failures.is_empty())),
            ("attempted", Json::Num(self.attempted as f64)),
            ("failed", Json::Num(self.failed as f64)),
            (
                "metrics",
                Json::obj(self.metrics.iter().map(|(name, value, unit)| {
                    (
                        name.as_str(),
                        Json::obj([("value", Json::Num(*value)), ("unit", Json::str(*unit))]),
                    )
                })),
            ),
        ])
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn hex(x: u64) -> Json {
    Json::str(format!("{x:016x}"))
}

/// FNV-1a over the cells' digests, in cell order.
fn combined_digest(results: &[CellResult]) -> u64 {
    results
        .iter()
        .fold(FNV_BASIS, |h, r| fnv1a(h, &r.digest.to_le_bytes()))
}

/// `VmHWM` of this process, MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// The simulated-time statistics of one pass (bit-exact for a seed).
struct SimStats {
    completed_frac: f64,
    small_fct_gmean_us: f64,
    slowdown_gmean: f64,
    efficiency: f64,
    aeolus_gain: f64,
    /// The paper's arithmetic statistics: reported by the ledger, too
    /// seed-sensitive to gate (README, "Bounds").
    small_fct_mean_us: f64,
    fct_p99_slowdown: f64,
    pooled_flows: usize,
}

/// `exp(mean(ln x))`; 0 for an empty sample.
fn geometric_mean(xs: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x.ln(), n + 1));
    if n == 0 {
        0.0
    } else {
        (sum / n as f64).exp()
    }
}

/// Median, over every small flow that completed under both schemes of a
/// pair, of baseline FCT ÷ +Aeolus FCT. Pairs carry identical flows, so the
/// join is on flow id.
fn aeolus_gain(cells: &[Cell], results: &[CellResult]) -> f64 {
    let mut ratios = Vec::new();
    for (i, c) in cells.iter().enumerate() {
        if c.pair != Pair::Baseline {
            continue;
        }
        // `push_pair` puts the +Aeolus cell right after its baseline.
        for (b, a) in results[i].flows.iter().zip(&results[i + 1].flows) {
            assert_eq!(
                (b.id, b.size),
                (a.id, a.size),
                "{}: pair cells carry different flows",
                c.id
            );
            if let (true, Some(base), Some(aeolus)) =
                (b.size <= SMALL_FLOW_BYTES, b.fct_ps, a.fct_ps)
            {
                ratios.push(base as f64 / aeolus as f64);
            }
        }
    }
    if ratios.is_empty() {
        0.0
    } else {
        median(&ratios)
    }
}

fn sim_stats(cells: &[Cell], results: &[CellResult]) -> SimStats {
    let all = pooled(results);
    let small = all.band(0, SMALL_FLOW_BYTES);
    let scheduled: usize = results.iter().map(|r| r.out.scheduled).sum();
    let completed: usize = results.iter().map(|r| r.out.completed).sum();
    SimStats {
        completed_frac: ratio(completed as f64, scheduled as f64),
        small_fct_gmean_us: geometric_mean(small.samples().iter().map(|s| s.fct_ps as f64 / 1e6)),
        slowdown_gmean: geometric_mean(all.samples().iter().map(|s| s.slowdown())),
        efficiency: results.iter().map(|r| r.out.efficiency).sum::<f64>() / results.len() as f64,
        aeolus_gain: aeolus_gain(cells, results),
        small_fct_mean_us: small.summary().mean_us,
        fct_p99_slowdown: all.summary().p99_slowdown,
        pooled_flows: all.len(),
    }
}

/// Checks every pass must satisfy, appended to `failures`.
fn check_pass(cells: &[Cell], results: &[CellResult], failures: &mut Vec<String>) {
    for (c, r) in cells.iter().zip(results) {
        if c.clean() && r.out.completed != r.out.scheduled {
            failures.push(format!(
                "{}: clean cell completed {}/{} flows",
                c.id, r.out.completed, r.out.scheduled
            ));
        }
    }
}

fn cell_rows(cells: &[Cell], results: &[CellResult], wall: &[f64], setup: &[f64]) -> Json {
    Json::Arr(
        cells
            .iter()
            .zip(results)
            .enumerate()
            .map(|(i, (c, r))| {
                Json::obj([
                    ("id", Json::str(c.id.as_str())),
                    ("events", Json::Num(r.out.events as f64)),
                    ("sim_digest", hex(r.digest)),
                    ("completed", Json::Num(r.out.completed as f64)),
                    ("scheduled", Json::Num(r.out.scheduled as f64)),
                    (
                        "small_fct_mean_us",
                        Json::Num(r.out.agg.band(0, SMALL_FLOW_BYTES).summary().mean_us),
                    ),
                    (
                        "fct_p99_slowdown",
                        Json::Num(r.out.agg.summary().p99_slowdown),
                    ),
                    ("wall_s", Json::Num(wall[i])),
                    ("setup_s", Json::Num(setup[i])),
                ])
            })
            .collect(),
    )
}

/// The measured run: repeat the workload's cells (NullTracer unless the cell
/// is itself an observed one) until `seconds` are spent, and report each
/// host-time metric as the sum over cells of the cell's fastest repeat. The
/// reference host has slow phases that last seconds and only ever add time
/// (README, "Noise"), so the fastest repeat is the steadiest estimate of what
/// the code costs; the median and extremes of the pass totals ride along in
/// the detail line.
pub fn run_measured(workload: &str, seed: u64, seconds: u64, env: &Env) -> Result<Outcome, String> {
    let cells =
        cells::cells(workload, seed).ok_or_else(|| format!("unknown workload '{workload}'"))?;
    let budget = Duration::from_secs(seconds);
    let started = Instant::now();
    let mut spans = Spans::new(false);
    let mut failures = Vec::new();
    let mut first: Vec<CellResult> = Vec::new();
    let mut setup: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut wall: Vec<Vec<f64>> = vec![Vec::new(); cells.len()];
    let mut pass_wall: Vec<f64> = Vec::new();
    loop {
        let pass_started = Instant::now();
        let mut total = 0.0;
        for (i, c) in cells.iter().enumerate() {
            let r = run_cell(i, c, false, Opts::default(), env, &mut spans);
            setup[i].push(r.times.setup_s());
            // Set-up is milliseconds: sample it several times per pass.
            setup[i].extend((0..EXTRA_SET_UPS).map(|_| time_set_up(i, c, &mut spans)));
            wall[i].push(r.times.wall_s());
            total += r.times.wall_s();
            match first.get(i) {
                None => first.push(r),
                Some(f) if f.digest != r.digest || f.out.events != r.out.events => {
                    failures.push(format!(
                    "{}: pass {} diverged from pass 0 (events {} vs {}, digest {:016x} vs {:016x})",
                    c.id,
                    pass_wall.len(),
                    r.out.events,
                    f.out.events,
                    r.digest,
                    f.digest
                ))
                }
                Some(_) => {}
            }
        }
        pass_wall.push(total);
        if pass_wall.len() >= MIN_PASSES && started.elapsed() + pass_started.elapsed() > budget {
            break;
        }
    }
    let rss = peak_rss_mb()?;
    check_pass(&cells, &first, &mut failures);

    // A different seed must generate different inputs.
    let other = &cells::cells(workload, seed.wrapping_add(1)).expect("same workload")[0];
    let r = run_cell(0, other, false, Opts::default(), env, &mut spans);
    if r.digest == first[0].digest {
        failures.push(format!(
            "{}: seed {} and seed {} give one digest",
            other.id,
            seed,
            seed.wrapping_add(1)
        ));
    }

    let cell_wall: Vec<f64> = wall.iter().map(|w| percentile(w, 0)).collect();
    let cell_setup: Vec<f64> = setup.iter().map(|s| percentile(s, 0)).collect();
    let wall_s: f64 = cell_wall.iter().sum();
    let setup_s: f64 = cell_setup.iter().sum();
    let sim = sim_stats(&cells, &first);
    let scheduled: usize = first.iter().map(|r| r.out.scheduled).sum();
    let completed: usize = first.iter().map(|r| r.out.completed).sum();
    let value = |name: &str| match name {
        "setup_s" => setup_s,
        "wall_s" => wall_s,
        "flows_per_s" => completed as f64 / wall_s,
        "peak_rss_mb" => rss,
        "completed_frac" => sim.completed_frac,
        "sim_small_fct_gmean_us" => sim.small_fct_gmean_us,
        "sim_slowdown_gmean" => sim.slowdown_gmean,
        "sim_efficiency" => sim.efficiency,
        "sim_aeolus_gain" => sim.aeolus_gain,
        other => unreachable!("undeclared end-to-end metric {other}"),
    };
    let metrics = END_TO_END
        .iter()
        .map(|m| (m.name.to_string(), value(m.name), m.unit))
        .collect();
    let detail = Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("trace", Json::Num(0.0)),
        ("repeats", Json::Num(pass_wall.len() as f64)),
        (
            "events",
            Json::Num(first.iter().map(|r| r.out.events).sum::<u64>() as f64),
        ),
        ("sim_digest", hex(combined_digest(&first))),
        ("pooled_flows", Json::Num(sim.pooled_flows as f64)),
        ("pass_wall_s_min", Json::Num(percentile(&pass_wall, 0))),
        ("pass_wall_s_median", Json::Num(median(&pass_wall))),
        ("pass_wall_s_max", Json::Num(percentile(&pass_wall, 100))),
        ("cells", cell_rows(&cells, &first, &cell_wall, &cell_setup)),
    ]);
    Ok(Outcome {
        metrics,
        attempted: scheduled as u64,
        failed: (scheduled - completed) as u64,
        failures,
        detail,
    })
}

/// Runs made by the traced run beyond the workload's own cells, so spans
/// can name what they served.
struct Labels(Vec<String>);

impl Labels {
    fn add(&mut self, label: String) -> usize {
        self.0.push(label);
        self.0.len() - 1
    }
}

fn kernel<'a>(kernels: &'a [KernelStat], name: &str) -> &'a KernelStat {
    kernels
        .iter()
        .find(|k| k.name == name)
        .unwrap_or_else(|| panic!("kernel {name} was not run"))
}

/// A cache key for any cell: Poisson cells key as `run_workload` would key
/// them; incast cells borrow the same shape with their flow count.
fn cache_key(cell: &Cell, scheduled: usize) -> String {
    let (workload, load) = match cell.traffic {
        Traffic::Poisson { workload, load, .. } => (workload, load),
        Traffic::Incast { .. } => (Workload::WebServer, 1.0),
    };
    let mut cfg = RunConfig::new(cell.scheme, cell.topo, workload);
    cfg.load = load;
    cfg.n_flows = scheduled;
    cfg.seed = cell.seed;
    cache::cell_key(&cfg)
}

/// The traced run: layer kernels, one untraced and one `CountTracer` pass
/// with spans, the differential probes, and the ledger built from them.
pub fn run_traced(workload: &str, seed: u64, env: &Env) -> Result<Outcome, String> {
    let cells =
        cells::cells(workload, seed).ok_or_else(|| format!("unknown workload '{workload}'"))?;
    let mut failures = Vec::new();
    let mut labels = Labels(cells.iter().map(|c| c.id.clone()).collect());
    let mut kernels = kernels::layer_kernels();

    // An untraced reference pass on either side of the counted pass (the
    // first pass of a process runs on cold memory); spans on for the counted
    // one only. The reference keeps each cell's faster `sim.run`.
    let mut quiet = Spans::new(false);
    let mut spans = Spans::new(true);
    let pass = |traced: bool, spans: &mut Spans| -> Vec<CellResult> {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| run_cell(i, c, traced, Opts::default(), env, spans))
            .collect()
    };
    let mut base = pass(false, &mut quiet);
    let traced = pass(true, &mut spans);
    let again = pass(false, &mut quiet);
    check_pass(&cells, &base, &mut failures);
    for (((c, b), t), a) in cells.iter().zip(&mut base).zip(&traced).zip(&again) {
        if [t, a]
            .iter()
            .any(|r| r.digest != b.digest || r.out.events != b.out.events)
        {
            failures.push(format!(
                "{}: CountTracer or a rerun changed the run (digest or events differ)",
                c.id
            ));
        }
        b.times.run_s = b.times.run_s.min(a.times.run_s);
    }

    // Differential probes on the workload's biggest cell (most events: the
    // same choice every run), faults stripped, cut down to about
    // `PROBE_EVENTS` so that recording it stays in the tens of megabytes.
    let biggest = (0..cells.len())
        .max_by_key(|&i| base[i].out.events)
        .expect("a workload has cells");
    let shrink = (PROBE_EVENTS / base[biggest].out.events as f64).min(1.0);
    let probe = cells[biggest].without_faults().scaled(shrink);
    let mut run_probe = |what: &str, observe: Observe, opts: Opts, spans: &mut Spans| {
        let index = labels.add(format!("probe/{what}"));
        run_cell(index, &probe.observed_by(observe), false, opts, env, spans)
    };
    let plain = Opts::default();
    let p_base = run_probe("base", Observe::None, plain, &mut spans);
    let p_again = run_probe("base", Observe::None, plain, &mut spans);
    let p_heap = run_probe(
        "heap",
        Observe::None,
        Opts {
            scheduler: SchedulerKind::BinaryHeap,
            ..plain
        },
        &mut spans,
    );
    let p_dormant = run_probe(
        "dormant",
        Observe::None,
        Opts {
            dormant_faults: true,
            ..plain
        },
        &mut spans,
    );
    let p_checked = run_probe("checked", Observe::Checked, plain, &mut spans);
    let p_recorded = run_probe("recorded", Observe::Recorded, plain, &mut spans);
    let p_alloc = run_probe(
        "alloc",
        Observe::None,
        Opts {
            alloc_window: true,
            ..plain
        },
        &mut spans,
    );
    for (what, r) in [
        ("a second run", &p_again),
        ("the heap scheduler", &p_heap),
        ("a dormant fault plan", &p_dormant),
        ("the conformance oracle", &p_checked),
        ("the recording tracer", &p_recorded),
        ("a split run", &p_alloc),
    ] {
        if r.digest != p_base.digest {
            failures.push(format!("probe {}: {what} changed the digest", probe.id));
        }
    }
    let probe_run = p_base.times.run_s.min(p_again.times.run_s);

    // Churn scaling: ns/event at 4x rounds over ns/event at 1x, per family.
    let mut churn = Vec::new();
    for c in cells::churn_probe_cells(seed) {
        let mut ns_per_event = |k: usize, spans: &mut Spans| {
            let scaled = c.scaled(k as f64);
            (0..2)
                .map(|_| {
                    let index = labels.add(format!("churn/{}x{k}", scaled.id));
                    let r = run_cell(index, &scaled, false, plain, env, spans);
                    r.times.run_s * 1e9 / r.out.events as f64
                })
                .fold(f64::INFINITY, f64::min)
        };
        let one = ns_per_event(1, &mut spans);
        let four = ns_per_event(4, &mut spans);
        churn.push((family(c.scheme), four / one));
    }

    // Cache and report layers, on the probe's output and the pass' table.
    let s = spans.enter("experiments.cache.cell_key", None);
    let key = cache_key(&probe, p_base.out.scheduled);
    spans.exit(s);
    let s = spans.enter("experiments.cache.ops", None);
    let cache_k = kernels::cache_ops(&key, &p_base.out, &env.out_dir.join("cache"));
    spans.exit(s);
    let cache_k = match cache_k {
        Ok(k) => Some(k),
        Err(e) => {
            failures.push(format!("cache round trip on {}: {e}", probe.id));
            None
        }
    };
    let report = kernels::cell_report(
        workload,
        cells
            .iter()
            .zip(&base)
            .map(|(c, r)| (c.id.as_str(), &r.out)),
    );
    let s = spans.enter("experiments.report.ops", None);
    let (render_k, csv_k) = kernels::report_ops(&report, &env.out_dir.join("csv"));
    spans.exit(s);
    print!("{}", report.render());
    kernels.push(kernels::fct_summary(&pooled(&base)));

    // The ledger.
    let sum = |f: &dyn Fn(&CellResult) -> f64, rs: &[CellResult]| rs.iter().map(f).sum::<f64>();
    let run_ns = sum(&|r| r.times.run_s, &base) * 1e9;
    let events = sum(&|r| r.out.events as f64, &base);
    let scheduled = sum(&|r| r.out.scheduled as f64, &base);
    let completed = sum(&|r| r.out.completed as f64, &base);
    let mut total = Counts::default();
    for t in &traced {
        total += t.counts.as_ref().expect("traced pass carries counts");
    }
    let k_event = kernel(&kernels, "sim.event").median_ns;
    let k_route = kernel(&kernels, "sim.routing").median_ns;
    let k_pool = kernel(&kernels, "sim.pool").median_ns;
    let queue_ns: f64 = cells
        .iter()
        .zip(&traced)
        .map(|(c, t)| {
            let counts = t.counts.as_ref().expect("counts");
            let offered = counts.enqueues
                + counts.drops_selective
                + counts.drops_overflow
                + counts.drops_other;
            offered as f64
                * kernel(&kernels, &format!("sim.queues.{}", discipline_of(c.scheme))).median_ns
        })
        .sum();
    let share_event = events * k_event / run_ns;
    let share_queues = queue_ns / run_ns;
    let share_routing = sum(&|r| r.switch_tx as f64, &traced) * k_route / run_ns;
    let share_pool = sum(&|r| r.host_tx as f64, &traced) * k_pool / run_ns;
    let cold_s = p_base.times.setup_s() + p_base.times.wall_s();

    let mut values: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| values.push((name.to_string(), v));
    put("sim.event.events", events);
    put("sim.event.events_per_s", events / (run_ns * 1e-9));
    put("sim.event.kernel_ns_per_op", k_event);
    put("sim.event.est_share", share_event);
    put(
        "sim.event.heap_swap_slowdown",
        p_heap.times.run_s / probe_run,
    );
    put("sim.queues.enqueues", total.enqueues as f64);
    put("sim.queues.dequeues", total.dequeues as f64);
    put("sim.queues.marks", total.marks as f64);
    put("sim.queues.trims", total.trims as f64);
    put("sim.queues.drops_selective", total.drops_selective as f64);
    put("sim.queues.drops_overflow", total.drops_overflow as f64);
    put("sim.queues.drops_other", total.drops_other as f64);
    put("sim.queues.max_qlen_bytes", total.max_qlen_bytes as f64);
    put("sim.queues.est_share", share_queues);
    for d in DISCIPLINES {
        put(
            &format!("sim.queues.kernel_ns_per_op.{d}"),
            kernel(&kernels, &format!("sim.queues.{d}")).median_ns,
        );
    }
    put("sim.routing.hops", sum(&|r| r.switch_tx as f64, &traced));
    put("sim.routing.kernel_ns_per_op", k_route);
    put("sim.routing.est_share", share_routing);
    put("sim.pool.kernel_ns_per_op", k_pool);
    put("sim.pool.steady_allocs", p_alloc.steady_allocs as f64);
    put("sim.pool.est_share", share_pool);
    put(
        "sim.flowmap.kernel_ns_per_op",
        kernel(&kernels, "sim.flowmap").median_ns,
    );
    put("sim.metrics.flows", scheduled);
    put("sim.metrics.collect_s", sum(&|r| r.times.collect_s, &base));
    put("sim.telemetry.hook_calls", total.hook_calls as f64);
    put(
        "sim.telemetry.count_overhead_frac",
        sum(&|r| r.times.run_s, &traced) * 1e9 / run_ns - 1.0,
    );
    put(
        "sim.telemetry.record_overhead_frac",
        p_recorded.times.run_s / probe_run - 1.0,
    );
    put("sim.telemetry.jsonl_s", p_recorded.times.jsonl_s);
    put(
        "sim.telemetry.jsonl_mb",
        p_recorded.jsonl_bytes as f64 / 1e6,
    );
    put(
        "sim.oracle.overhead_frac",
        (p_checked.times.run_s + p_checked.times.audit_s) / probe_run - 1.0,
    );
    put("sim.oracle.audit_s", p_checked.times.audit_s);
    put("sim.faults.kills", total.kills as f64);
    put("sim.faults.windows", total.windows as f64);
    put("sim.faults.crashes", total.crashes as f64);
    put("sim.faults.flows_aborted", total.flows_aborted as f64);
    put("sim.faults.flows_restarted", total.flows_restarted as f64);
    put(
        "sim.faults.dormant_overhead_frac",
        p_dormant.times.run_s / probe_run - 1.0,
    );
    put("core.bursts", total.bursts as f64);
    put("core.unsched_launched", total.unsched_launched as f64);
    put("core.unsched_delivered", total.unsched_delivered as f64);
    put(
        "core.first_rtt_useful_frac",
        ratio(
            total.unsched_delivered as f64,
            total.unsched_launched as f64,
        ),
    );
    put("core.losses_probe", total.losses_probe as f64);
    put("core.losses_sack", total.losses_sack as f64);
    put("core.losses_last_resort", total.losses_last_resort as f64);
    put("core.retransmits", total.retransmits as f64);
    put(
        "core.retx_per_loss",
        ratio(total.core_retx_bytes as f64, total.core_lost_bytes as f64),
    );
    for fam in FAMILIES {
        let of_fam = |rs: &[CellResult], f: &dyn Fn(&CellResult) -> f64| -> f64 {
            cells
                .iter()
                .zip(rs)
                .filter(|(c, _)| family(c.scheme) == fam)
                .map(|(_, r)| f(r))
                .sum()
        };
        let fam_events = of_fam(&base, &|r| r.out.events as f64);
        let delivered = of_fam(&traced, &|r| {
            r.counts.as_ref().expect("counts").delivered_pkts as f64
        });
        put(
            &format!("transport.{fam}.ns_per_event"),
            ratio(of_fam(&base, &|r| r.times.run_s) * 1e9, fam_events),
        );
        put(
            &format!("transport.{fam}.events_per_flow"),
            ratio(fam_events, of_fam(&base, &|r| r.out.scheduled as f64)),
        );
        put(
            &format!("transport.{fam}.events_per_pkt"),
            ratio(fam_events, delivered),
        );
        let scaling = churn
            .iter()
            .find(|(f, _)| *f == fam)
            .expect("one churn probe per family")
            .1;
        put(&format!("transport.{fam}.churn_scaling"), scaling);
    }
    let sim = sim_stats(&cells, &base);
    put("transport.failed_frac", 1.0 - sim.completed_frac);
    put("transport.small_fct_mean_us", sim.small_fct_mean_us);
    put("transport.fct_p99_slowdown", sim.fct_p99_slowdown);
    put("transport.credits_issued", total.credits_issued as f64);
    put(
        "transport.credit_waste_frac",
        1.0 - ratio(
            total.credit_bytes_received as f64,
            total.credit_bytes_issued as f64,
        )
        .min(1.0),
    );
    put(
        "transport.flows_with_timeouts",
        sum(&|r| r.out.flows_with_timeouts as f64, &base),
    );
    put("transport.retx_timeout", total.retx_timeout as f64);
    put(
        "transport.handlers_est_share",
        1.0 - share_event - share_queues - share_routing - share_pool,
    );
    put(
        "transport.harness.build_s",
        sum(&|r| r.times.build_s, &base),
    );
    put(
        "transport.harness.schedule_s",
        sum(&|r| r.times.schedule_s, &base),
    );
    put("workloads.gen_s", sum(&|r| r.times.gen_s, &base));
    put("workloads.flows", scheduled);
    put(
        "workloads.gen_ns_per_flow",
        kernel(&kernels, "workloads.poisson_flows").median_ns,
    );
    put("stats.summarise_s", sum(&|r| r.times.stats_s, &base));
    put("stats.samples", sum(&|r| r.out.agg.len() as f64, &base));
    put("experiments.report.render_s", render_k.median_s());
    put("experiments.report.csv_s", csv_k.median_s());
    if let Some(c) = &cache_k {
        put("experiments.cache.encode_s", c.encode.median_s());
        put("experiments.cache.store_s", c.store.median_s());
        put("experiments.cache.load_s", c.load.median_s());
        put("experiments.cache.decode_s", c.decode.median_s());
        put("experiments.cache.bytes", c.bytes as f64);
        put(
            "experiments.cache.hit_speedup",
            cold_s / (c.load.median_s() + c.decode.median_s()),
        );
    }

    // Emit in declaration order; a missing or extra name is a failed check.
    let declared = per_layer();
    let mut metrics = Vec::with_capacity(declared.len());
    for m in &declared {
        match values.iter().find(|(n, _)| *n == m.name) {
            Some((_, v)) => metrics.push((m.name.clone(), *v, m.unit)),
            None => failures.push(format!("per-layer metric {} was not produced", m.name)),
        }
    }
    for (name, _) in &values {
        if !declared.iter().any(|m| m.name == *name) {
            failures.push(format!("per-layer metric {name} is not declared"));
        }
    }

    // trace.json: spans with self time, per-name totals, counts, kernels.
    kernels.extend([render_k, csv_k]);
    if let Some(c) = cache_k {
        kernels.extend([c.encode, c.store, c.load, c.decode]);
    }
    let own = self_times_ns(spans.spans());
    let span_rows = spans
        .spans()
        .iter()
        .zip(&own)
        .enumerate()
        .map(|(id, (s, own_ns))| {
            Json::obj([
                ("id", Json::Num(id as f64)),
                ("name", Json::str(s.name)),
                (
                    "cell",
                    s.cell
                        .map_or(Json::Null, |i| Json::str(labels.0[i].as_str())),
                ),
                (
                    "parent",
                    s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                ),
                ("start_us", Json::Num(s.start_ns as f64 / 1e3)),
                ("end_us", Json::Num(s.end_ns as f64 / 1e3)),
                ("self_us", Json::Num(*own_ns as f64 / 1e3)),
            ])
        })
        .collect();
    let trace = Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        (
            "self_time_s",
            Json::obj(
                self_time_by_name(spans.spans())
                    .into_iter()
                    .map(|(n, s)| (n, Json::Num(s))),
            ),
        ),
        (
            "kernels",
            Json::Arr(kernels.iter().map(KernelStat::to_json).collect()),
        ),
        ("spans", Json::Arr(span_rows)),
    ]);
    let path = env.out_dir.join("trace.json");
    std::fs::write(&path, trace.pretty()).map_err(|e| format!("write {}: {e}", path.display()))?;

    let detail = Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(seed as f64)),
        ("trace", Json::Num(1.0)),
        ("events", Json::Num(events)),
        ("sim_digest", hex(combined_digest(&base))),
        ("spans", Json::Num(spans.spans().len() as f64)),
    ]);
    Ok(Outcome {
        metrics,
        attempted: scheduled as u64,
        failed: (scheduled - completed) as u64,
        failures,
        detail,
    })
}
