//! `repro` — regenerate any table or figure of the Aeolus paper.
//!
//! ```text
//! repro <experiment>... [--scale smoke|quick|full] [--csv DIR] [--jobs N] [--faults SPEC] [--check]
//! repro all [--scale ...] [--no-cache] [--cache-verify]
//! repro fuzz [--cases N] [--seed S]
//! repro fuzz --corpus [DIR] [--cases N] [--seed S]
//! repro fuzz --stats [--cases N] [--seed S]
//! repro fuzz --spec 'scheme=... hosts=... flows=... faults=...'
//! repro --trace <scheme>[@rounds] [--trace-out PATH] [--faults SPEC]
//! repro --list
//! ```
//!
//! `--faults` injects a deterministic wire-fault schedule: a comma-separated
//! spec like `loss=0.01,down=2ms..2.3ms,seed=7` (see `FaultPlan::from_str`
//! for the full grammar).
//!
//! `--check` installs the conformance oracle: queue ledgers, drop legality,
//! transmit causality, byte/credit conservation and per-scheme protocol
//! invariants are verified online, and the first violating event aborts the
//! run with full context. Numbers are unchanged — the oracle only observes.
//!
//! Both flags reach only the cells run through `run_workload`: fig1, fig3,
//! fig4, fig9, fig10, fig12, fig13, fig14, table1, table3, table4, phost,
//! reactive, and ablation's threshold and burst-budget arms. `--trace` also
//! honours `--faults`. fig5, fig8, fig11, fig15–fig18, table5, fastpass,
//! validate and ablation's loss arm build their harnesses directly and
//! ignore both; chaos and chaos_nodes carry their own plans.
//!
//! `repro fuzz` runs seeded random scenarios (scheme × topology × workload ×
//! faults) under the full oracle and, on failure, greedily shrinks the case
//! to a minimal one-line repro spec. `--spec` re-checks one such line.
//!
//! `repro fuzz --corpus [DIR]` upgrades the fuzzer to a coverage-guided
//! campaign: every run folds its tracer/oracle signals into a novelty
//! signature, scenarios with never-seen signatures persist as one-line
//! specs under DIR (default `results/corpus`), and subsequent campaigns
//! replay the corpus first, then split the budget between corpus mutations
//! and fresh random cases. Each distinct failing signature is shrunk and
//! reported once. `--stats` runs a guided campaign and a blind one on equal
//! budgets and compares distinct-signature counts (exit 1 unless guided
//! strictly wins).
//!
//! Experiment runs are served from a content-addressed cache under
//! `results/cache`: each cell is keyed on a hash of everything that
//! determines its output (scheme, spec, params with the effective fault
//! plan, workload, load, seed, schema version), so a re-run with identical code and
//! config skips the simulation. `--no-cache` forces recompute;
//! `--cache-verify` re-simulates a sample of hits and panics on any byte
//! divergence. `--check` bypasses the cache entirely.
//!
//! `--trace` runs the canonical 7:1 incast under a recording tracer and
//! writes the capture as deterministic JSONL (default
//! `results/trace_<scheme>.jsonl`), printing queue-occupancy sparklines.
//!
//! Each simulation is single-threaded and deterministic; `--jobs N` caps how
//! many independent runs execute concurrently (default: all cores). Results
//! are identical for every `N`.

use std::time::Instant;

use aeolus_experiments::{
    cache_stats, checked, fuzz, jobs, registry, run_campaign, run_trace, set_cache_dir,
    set_cache_verify, set_checked, set_default_faults, set_jobs, take_events_processed,
    CampaignConfig, Corpus, FaultPlan, Scale, Scenario, TraceSpec,
};

/// Run `f` with the panic hook silenced: the fuzzer catches oracle panics
/// and reports them as one-line repros, so the default hook's backtrace
/// spam for *expected* panics only buries the signal.
fn with_quiet_panics<R>(f: impl FnOnce() -> R) -> R {
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(|_| {}));
    let out = f();
    std::panic::set_hook(prev);
    out
}

/// `repro fuzz`: run `cases` seeded scenarios under the conformance oracle,
/// shrink the first failure to a minimal spec. Exit 1 on failure.
fn run_fuzz(cases: usize, seed: u64) {
    println!("fuzzing {cases} scenario(s) under the conformance oracle (seed {seed})...");
    let t0 = Instant::now();
    let report = with_quiet_panics(|| fuzz(cases, seed));
    let secs = t0.elapsed().as_secs_f64();
    match report {
        None => println!("fuzz: all {cases} cases conform ({secs:.1}s)"),
        Some(r) => {
            eprintln!("fuzz: FAILURE at case {} (case seed {})", r.case, r.case_seed);
            eprintln!("  original failure: {}", r.failure);
            eprintln!("  minimized spec:   {}", r.minimized);
            eprintln!("  minimized failure: {}", r.minimized_failure);
            eprintln!("  rerun with: repro fuzz --spec '{}'", r.minimized);
            std::process::exit(1);
        }
    }
}

/// `repro fuzz --spec LINE`: re-run one scenario spec under the oracle.
fn run_spec(spec: &str) {
    let scenario: Scenario = spec.parse().unwrap_or_else(|e| {
        eprintln!("bad --spec '{spec}': {e}");
        std::process::exit(2);
    });
    println!("checking: {scenario}");
    match with_quiet_panics(|| scenario.check()) {
        None => println!("spec conforms"),
        Some(failure) => {
            eprintln!("spec FAILS: {failure}");
            std::process::exit(1);
        }
    }
}

/// `repro fuzz --corpus DIR`: run a coverage-guided campaign against a
/// persistent corpus. Exit 1 if any distinct failure was found.
fn run_guided(dir: &std::path::Path, cases: usize, seed: u64) {
    let mut corpus = Corpus::open(dir).unwrap_or_else(|e| {
        eprintln!("cannot open corpus {}: {e}", dir.display());
        std::process::exit(2);
    });
    println!(
        "guided fuzz: {cases} case(s) under the conformance oracle (seed {seed}, corpus {} with {} entr{})...",
        dir.display(),
        corpus.len(),
        if corpus.len() == 1 { "y" } else { "ies" }
    );
    let cfg = CampaignConfig {
        cases,
        seed,
        mutate_fraction: 0.5,
        jobs: jobs(),
        shrink_failures: true,
    };
    let t0 = Instant::now();
    let outcome = with_quiet_panics(|| run_campaign(&cfg, &mut corpus)).unwrap_or_else(|e| {
        eprintln!("campaign I/O error: {e}");
        std::process::exit(2);
    });
    let secs = t0.elapsed().as_secs_f64();
    println!(
        "campaign: {} case(s) in {secs:.1}s — {} replayed, {} mutated, {} random",
        outcome.cases_run, outcome.replayed, outcome.mutated, outcome.random
    );
    println!(
        "signatures: {} distinct this campaign, {} new (corpus now {} entr{})",
        outcome.distinct_signatures,
        outcome.new_signatures,
        corpus.len(),
        if corpus.len() == 1 { "y" } else { "ies" }
    );
    if outcome.failures.is_empty() {
        println!("guided fuzz: all {} case(s) conform", outcome.cases_run);
        return;
    }
    for (i, f) in outcome.failures.iter().enumerate() {
        eprintln!("failure {}/{}:", i + 1, outcome.failures.len());
        eprintln!("  original spec:    {}", f.scenario);
        eprintln!("  original failure: {}", f.failure);
        eprintln!("  minimized spec:   {}", f.minimized);
        eprintln!("  minimized failure: {}", f.minimized_failure);
        eprintln!("  rerun with: repro fuzz --spec '{}'", f.minimized);
    }
    eprintln!("guided fuzz: {} distinct failure(s)", outcome.failures.len());
    std::process::exit(1);
}

/// `repro fuzz --stats`: run guided and blind campaigns on equal budgets
/// and compare distinct-signature counts. The guided side first distils a
/// 2x-budget random scan into an in-memory corpus (simulating an existing
/// corpus, so the comparison does not depend on on-disk state), then both
/// sides get exactly `cases` fresh cases from the same seed. Exit 1 unless
/// guided strictly beats blind.
fn run_stats(cases: usize, seed: u64) {
    println!("guided-vs-blind on equal {cases}-case budgets (seed {seed})...");
    let t0 = Instant::now();
    let (guided, blind) = with_quiet_panics(|| {
        let scan = CampaignConfig {
            cases: cases * 2,
            seed,
            mutate_fraction: 0.0,
            jobs: jobs(),
            shrink_failures: false,
        };
        let mut seeded = Corpus::in_memory();
        run_campaign(&scan, &mut seeded).expect("in-memory campaign cannot fail on I/O");
        let guided_cfg = CampaignConfig {
            cases,
            seed: seed.wrapping_add(1000),
            mutate_fraction: 0.6,
            jobs: jobs(),
            shrink_failures: false,
        };
        let guided = run_campaign(&guided_cfg, &mut seeded).unwrap();
        let blind_cfg = CampaignConfig {
            cases,
            seed: seed.wrapping_add(1000),
            mutate_fraction: 0.0,
            jobs: jobs(),
            shrink_failures: false,
        };
        let mut blind_corpus = Corpus::in_memory();
        let blind = run_campaign(&blind_cfg, &mut blind_corpus).unwrap();
        (guided, blind)
    });
    let secs = t0.elapsed().as_secs_f64();
    println!(
        "guided: {} distinct signature(s) ({} replayed, {} mutated, {} random)",
        guided.distinct_signatures, guided.replayed, guided.mutated, guided.random
    );
    println!(
        "blind:  {} distinct signature(s) ({} random)",
        blind.distinct_signatures, blind.random
    );
    if guided.distinct_signatures > blind.distinct_signatures {
        println!(
            "guided beats blind by {} signature(s) on equal budgets ({secs:.1}s)",
            guided.distinct_signatures - blind.distinct_signatures
        );
    } else {
        eprintln!(
            "FAILED: guided ({}) does not beat blind ({}) on a {cases}-case budget",
            guided.distinct_signatures, blind.distinct_signatures
        );
        std::process::exit(1);
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Quick;
    let mut csv_dir: Option<std::path::PathBuf> = None;
    let mut trace: Option<TraceSpec> = None;
    let mut trace_out: Option<std::path::PathBuf> = None;
    let mut wanted: Vec<String> = Vec::new();
    let mut fuzz_cases = 25usize;
    let mut fuzz_seed = 1u64;
    let mut fuzz_spec: Option<String> = None;
    let mut fuzz_corpus: Option<std::path::PathBuf> = None;
    let mut fuzz_stats = false;
    let mut no_cache = false;
    let mut cache_verify = false;
    let mut iter = args.iter().peekable();
    while let Some(a) = iter.next() {
        match a.as_str() {
            "--check" => set_checked(true),
            "--cases" => {
                let v = iter.next().map(String::as_str).unwrap_or("");
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => fuzz_cases = n,
                    _ => {
                        eprintln!("--cases wants a positive integer, got '{v}'");
                        std::process::exit(2);
                    }
                }
            }
            "--seed" => {
                let v = iter.next().map(String::as_str).unwrap_or("");
                match v.parse::<u64>() {
                    Ok(n) => fuzz_seed = n,
                    _ => {
                        eprintln!("--seed wants an integer, got '{v}'");
                        std::process::exit(2);
                    }
                }
            }
            "--corpus" => {
                // DIR is optional: `--corpus --stats` and a bare trailing
                // `--corpus` both fall back to the default directory.
                let dir = match iter.peek() {
                    Some(v) if !v.starts_with('-') && v.as_str() != "fuzz" => {
                        iter.next().unwrap().clone()
                    }
                    _ => "results/corpus".to_string(),
                };
                fuzz_corpus = Some(std::path::PathBuf::from(dir));
            }
            "--stats" => fuzz_stats = true,
            "--no-cache" => no_cache = true,
            "--cache-verify" => cache_verify = true,
            "--spec" => {
                let v = iter.next().map(String::as_str).unwrap_or("");
                if v.is_empty() {
                    eprintln!("--spec wants a scenario line");
                    std::process::exit(2);
                }
                fuzz_spec = Some(v.to_string());
            }
            "--trace" => {
                let v = iter.next().map(String::as_str).unwrap_or("");
                trace = Some(v.parse().unwrap_or_else(|e| {
                    eprintln!("bad --trace spec: {e}");
                    std::process::exit(2);
                }));
            }
            "--trace-out" => {
                let v = iter.next().map(String::as_str).unwrap_or("");
                if v.is_empty() {
                    eprintln!("--trace-out wants a path");
                    std::process::exit(2);
                }
                trace_out = Some(std::path::PathBuf::from(v));
            }
            "--csv" => {
                let v = iter.next().map(String::as_str).unwrap_or("results");
                csv_dir = Some(std::path::PathBuf::from(v));
            }
            "--scale" => {
                let v = iter.next().map(String::as_str).unwrap_or("");
                scale = Scale::parse(v).unwrap_or_else(|| {
                    eprintln!("unknown scale '{v}' (use smoke|quick|full)");
                    std::process::exit(2);
                });
            }
            "--faults" => {
                let v = iter.next().map(String::as_str).unwrap_or("");
                match v.parse::<FaultPlan>() {
                    Ok(plan) => set_default_faults(plan),
                    Err(e) => {
                        eprintln!("bad --faults spec '{v}': {e}");
                        std::process::exit(2);
                    }
                }
            }
            "--jobs" => {
                let v = iter.next().map(String::as_str).unwrap_or("");
                match v.parse::<usize>() {
                    Ok(n) if n >= 1 => set_jobs(n),
                    _ => {
                        eprintln!("--jobs wants a positive integer, got '{v}'");
                        std::process::exit(2);
                    }
                }
            }
            "--list" => {
                for (name, _) in registry() {
                    println!("{name}");
                }
                // What `--trace <scheme>` and `fuzz --spec scheme=...` accept:
                // an RTO-carrying scheme prints with its default timeout.
                println!("\nschemes (<slug>[:<rto_us>], for --trace and fuzz --spec):");
                for scheme in aeolus_transport::Scheme::all() {
                    println!("  {scheme}");
                }
                return;
            }
            other => wanted.push(other.to_string()),
        }
    }
    if no_cache && cache_verify {
        eprintln!("--cache-verify is meaningless with --no-cache");
        std::process::exit(2);
    }
    if let Some(spec) = trace {
        let out = run_trace(
            &spec,
            aeolus_experiments::SchedulerKind::default(),
            &aeolus_experiments::default_faults(),
        );
        print!("{}", out.summary);
        let path = trace_out.unwrap_or_else(|| {
            std::path::PathBuf::from(format!("results/trace_{}.jsonl", spec.file_stem()))
        });
        if let Some(parent) = path.parent() {
            let _ = std::fs::create_dir_all(parent);
        }
        match std::fs::write(&path, &out.jsonl) {
            Ok(()) => println!("[wrote {} trace lines to {}]", out.jsonl.lines().count(), path.display()),
            Err(e) => {
                eprintln!("[trace write to {} failed: {e}]", path.display());
                std::process::exit(1);
            }
        }
        return;
    }
    if wanted.iter().any(|w| w == "fuzz") {
        if wanted.len() > 1 {
            eprintln!("'fuzz' does not combine with other experiments");
            std::process::exit(2);
        }
        if fuzz_stats {
            run_stats(fuzz_cases, fuzz_seed);
        } else if let Some(dir) = fuzz_corpus {
            run_guided(&dir, fuzz_cases, fuzz_seed);
        } else {
            match fuzz_spec {
                Some(spec) => run_spec(&spec),
                None => run_fuzz(fuzz_cases, fuzz_seed),
            }
        }
        return;
    }
    if wanted.is_empty() {
        eprintln!(
            "usage: repro <experiment>... [--scale smoke|quick|full] [--csv DIR] [--jobs N] [--faults SPEC] [--check] [--no-cache] [--cache-verify] | repro all | repro fuzz [--cases N] [--seed S] [--spec LINE] [--corpus [DIR]] [--stats] | repro --trace <scheme>[@rounds] [--trace-out PATH] [--faults SPEC] | repro --list"
        );
        std::process::exit(2);
    }
    let reg = registry();
    let run_all = wanted.iter().any(|w| w == "all");
    let selected: Vec<_> = if run_all {
        reg.iter().collect()
    } else {
        let mut sel = Vec::new();
        for w in &wanted {
            match reg.iter().find(|(n, _)| n == w) {
                Some(entry) => sel.push(entry),
                None => {
                    eprintln!("unknown experiment '{w}' — try --list");
                    std::process::exit(2);
                }
            }
        }
        sel
    };
    // The content-addressed cache is on for experiment runs unless the
    // user opts out; `--check` runs bypass it inside the runner anyway.
    if !no_cache {
        set_cache_dir(Some(std::path::PathBuf::from("results/cache")));
        set_cache_verify(cache_verify);
    }
    let wall0 = Instant::now();
    let mut total_events = 0u64;
    let mut violations = 0usize;
    take_events_processed(); // reset counter
    for (name, f) in selected {
        let t0 = Instant::now();
        println!("######## {name} (scale {scale:?}) ########");
        let report = f(scale);
        let secs = t0.elapsed().as_secs_f64();
        let events = take_events_processed();
        total_events += events;
        violations += report.violations.len();
        print!("{}", report.render());
        if let Some(dir) = &csv_dir {
            match report.write_csv(dir, name) {
                Ok(paths) => println!("[wrote {} csv file(s) under {}]", paths.len(), dir.display()),
                Err(e) => eprintln!("[csv write failed: {e}]"),
            }
        }
        if events > 0 {
            println!(
                "[{name} took {secs:.1}s — {events} events, {:.2}M events/s]\n",
                events as f64 / secs / 1e6
            );
        } else {
            println!("[{name} took {secs:.1}s]\n");
        }
    }
    let wall = wall0.elapsed().as_secs_f64();
    if total_events > 0 {
        println!(
            "[total: {wall:.1}s wall, {total_events} events, {:.2}M events/s aggregate]",
            total_events as f64 / wall / 1e6
        );
    }
    if !no_cache && !checked() {
        let cs = cache_stats();
        println!(
            "[cache: {} hit(s), {} miss(es), {} store(s), {} verified]",
            cs.hits, cs.misses, cs.stores, cs.verified
        );
    }
    if violations > 0 {
        eprintln!("FAILED: {violations} tolerance violation(s) — see VIOLATION lines above");
        std::process::exit(1);
    }
}
