//! `aeolus-bench` — the repo's benchmark entry point.
//!
//! Runs the engine microbenches (timing wheel vs the reference binary-heap
//! scheduler, on a synthetic timer stream and a full incast simulation) plus
//! a macro bench (one quick-scale paper figure, serial and parallel), prints
//! a summary and, when asked, writes a JSON report.
//!
//! ```text
//! aeolus-bench [--out PATH] [--engine-only]   # scratch report for a CI gate
//! aeolus-bench --snapshot BENCH_<n>.json      # the per-PR baseline, repo root
//! AEOLUS_BENCH_ITERS=30 aeolus-bench          # more measured iterations
//! ```
//!
//! `--engine-only` skips the macro (paper-figure) suite — used by the CI
//! overhead gate, which only compares the engine kernels.

use aeolus_bench::alloc_counter::CountingAlloc;
use aeolus_bench::harness::{write_json, BenchConfig, Suite};
use aeolus_bench::trajectory::{find_all_snapshots, trajectory_delta};
use aeolus_bench::{
    batched_dequeue, boxed_churn, btreemap_churn, flowmap_churn, incast_sim_event_mix,
    incast_sim_events, incast_sim_events_checked, incast_sim_events_recorded, pool_churn,
    route_lookup,
    steady_incast_alloc_window, timer_stream_events,
};
use aeolus_experiments::{fig09, set_jobs, take_event_mix, take_events_processed, Scale};
use aeolus_sim::event::SchedulerKind;

// Counting shim so the `alloc` suite can report allocator hits; one relaxed
// atomic increment per allocation, invisible at bench resolution.
#[global_allocator]
static COUNTER: CountingAlloc = CountingAlloc;

fn macro_config() -> BenchConfig {
    // Macro iterations take seconds each; default to fewer of them unless
    // the caller pinned counts explicitly.
    let cfg = BenchConfig::from_env();
    BenchConfig {
        warmup: if std::env::var("AEOLUS_BENCH_WARMUP").is_ok() { cfg.warmup } else { 1 },
        iters: if std::env::var("AEOLUS_BENCH_ITERS").is_ok() { cfg.iters } else { 3 },
    }
}

fn main() {
    let mut out: Option<String> = None;
    let mut snapshot: Option<String> = None;
    let mut engine_only = false;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut iter = args.iter();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--out" => {
                out = Some(iter.next().cloned().unwrap_or_else(|| {
                    eprintln!("--out wants a path");
                    std::process::exit(2);
                }))
            }
            "--snapshot" => {
                snapshot = Some(iter.next().cloned().unwrap_or_else(|| {
                    eprintln!("--snapshot wants a path (e.g. BENCH_7.json at the repo root)");
                    std::process::exit(2);
                }))
            }
            "--engine-only" => engine_only = true,
            other => {
                eprintln!(
                    "usage: aeolus-bench [--out PATH] [--snapshot PATH] [--engine-only]   \
                     (unknown arg '{other}')"
                );
                std::process::exit(2);
            }
        }
    }

    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    println!("host: {cpus} cpu(s) available to this process");
    println!();

    const TIMER_EVENTS: u64 = 200_000;
    let mut engine = Suite::new("engine");
    engine.bench("timer_stream_200k_wheel", || {
        timer_stream_events(SchedulerKind::TimingWheel, TIMER_EVENTS)
    });
    engine.bench("timer_stream_200k_heap", || {
        timer_stream_events(SchedulerKind::BinaryHeap, TIMER_EVENTS)
    });
    engine.bench_events("incast_sim_wheel", || {
        incast_sim_event_mix(SchedulerKind::TimingWheel, 30_000, 3)
    });
    engine.bench("incast_sim_heap", || incast_sim_events(SchedulerKind::BinaryHeap, 30_000, 3));
    engine.bench("incast_sim_wheel_recorded", || {
        incast_sim_events_recorded(SchedulerKind::TimingWheel, 30_000, 3)
    });
    engine.bench("incast_sim_wheel_checked", || {
        incast_sim_events_checked(SchedulerKind::TimingWheel, 30_000, 3)
    });

    // Hot-path structure kernels: the per-event data structures the engine
    // and transports lean on (slab flow state, CSR route lookup, cached-size
    // port dequeue), each with its honest pre-refactor baseline where one
    // exists.
    let mut hotpath = Suite::new("hotpath");
    hotpath.bench("flowmap_churn_1m", || flowmap_churn(1_000_000, 64));
    hotpath.bench("btreemap_churn_1m", || btreemap_churn(1_000_000, 64));
    hotpath.bench("route_lookup_1m", || route_lookup(1_000_000));
    hotpath.bench("batched_dequeue_1m", || batched_dequeue(1_000_000));

    let mut alloc = Suite::new("alloc");
    alloc.bench("pool_churn_64x1m", || pool_churn(1_000_000, 64));
    alloc.bench("boxed_churn_64x1m", || boxed_churn(1_000_000, 64));
    alloc.bench("steady_incast_window", steady_incast_alloc_window);

    let mut figures = Suite::with_config("macro", macro_config());
    if !engine_only {
        take_events_processed(); // reset the events counter
        set_jobs(1);
        figures.bench_events("fig09_quick_serial", || {
            let r = fig09::run(Scale::Quick);
            std::hint::black_box(r.sections.len());
            take_event_mix()
        });
        if cpus < 2 {
            // A parallel fan-out on one core measures thread overhead, not
            // fan-out; skip it rather than record a misleading sample.
            println!(
                "macro/fig09_quick_parallel                   skipped: host has {cpus} cpu(s), \
                 parallel fan-out needs >= 2"
            );
        } else {
            set_jobs(0); // auto: all cores
            figures.bench("fig09_quick_parallel", || {
                let r = fig09::run(Scale::Quick);
                std::hint::black_box(r.sections.len());
                take_events_processed()
            });
        }
    }

    let speedup = |a: &Suite, fast: &str, slow: &str| {
        let f = a.sample(fast).map(|s| s.units_per_sec()).unwrap_or(0.0);
        let s = a.sample(slow).map(|s| s.units_per_sec()).unwrap_or(f64::INFINITY);
        f / s
    };
    println!();
    println!(
        "timer stream: wheel is {:.2}x the heap scheduler (events/s)",
        speedup(&engine, "timer_stream_200k_wheel", "timer_stream_200k_heap")
    );
    println!(
        "incast sim:   wheel is {:.2}x the heap scheduler (events/s)",
        speedup(&engine, "incast_sim_wheel", "incast_sim_heap")
    );
    println!(
        "tracing cost: NullTracer run is {:.2}x the RecordingTracer run (events/s)",
        speedup(&engine, "incast_sim_wheel", "incast_sim_wheel_recorded")
    );
    println!(
        "oracle cost:  NullTracer run is {:.2}x the CheckedTracer run (events/s)",
        speedup(&engine, "incast_sim_wheel", "incast_sim_wheel_checked")
    );
    println!(
        "flow state:   slab FlowMap is {:.2}x BTreeMap churn (ops/s)",
        speedup(&hotpath, "flowmap_churn_1m", "btreemap_churn_1m")
    );
    println!(
        "packet churn: pool is {:.2}x boxed alloc/free (ops/s)",
        speedup(&alloc, "pool_churn_64x1m", "boxed_churn_64x1m")
    );
    println!(
        "steady-state incast window: {} allocations (pooled engine target: 0)",
        alloc.sample("steady_incast_window").map(|s| s.units).unwrap_or(u64::MAX)
    );
    if !engine_only {
        match figures.sample("fig09_quick_parallel") {
            Some(par) => {
                let serial =
                    figures.sample("fig09_quick_serial").map(|s| s.median_ns).unwrap_or(0);
                println!(
                    "fig09 quick:  parallel fan-out is {:.2}x serial (wall time)",
                    serial as f64 / par.median_ns as f64
                );
            }
            None => println!("fig09 quick:  parallel fan-out not measured on a {cpus}-cpu host"),
        }
    }

    let suites = [&engine, &hotpath, &alloc, &figures];
    if let Some(out) = out {
        match write_json(&suites, &out) {
            Ok(()) => println!("wrote {out}"),
            Err(e) => {
                eprintln!("failed to write {out}: {e}");
                std::process::exit(1);
            }
        }
    }
    // BENCH trajectory: immutable per-PR snapshots (BENCH_5.json,
    // BENCH_6.json, ...) accumulate at the *repo root*, next to README.md,
    // so the performance history is discoverable without knowing about
    // results/. A --snapshot path given with a directory component (the old
    // results/BENCH_<n>.json convention) still works, but a root-level copy
    // is emitted alongside it so the trajectory never fragments again.
    if let Some(snap) = snapshot {
        match write_json(&suites, &snap) {
            Ok(()) => println!("wrote snapshot {snap}"),
            Err(e) => {
                eprintln!("failed to write snapshot {snap}: {e}");
                std::process::exit(1);
            }
        }
        let base = std::path::Path::new(&snap)
            .file_name()
            .map(|f| f.to_string_lossy().into_owned())
            .unwrap_or_else(|| snap.clone());
        if base != snap {
            match write_json(&suites, &base) {
                Ok(()) => println!("wrote repo-root snapshot copy {base}"),
                Err(e) => eprintln!("failed to write repo-root snapshot {base}: {e}"),
            }
        }
    }

    // Print the full trajectory — every repo-root snapshot chained into
    // this run, per bench — so a cross-PR regression is visible right here
    // instead of requiring a manual diff of snapshot files.
    println!();
    print!("{}", trajectory_delta(&find_all_snapshots(), &suites));
}
