//! The repo benchmark. See `benchmark/README.md`.
//!
//! ```text
//! aeolus-benchmark --workload W --seed N --seconds S --trace 0|1   one run (the driver's form)
//! aeolus-benchmark [--seed N] [--seconds S]                         every workload, both runs
//! aeolus-benchmark --selftest [--seed N] [--seconds S]              the full set twice, compared
//! aeolus-benchmark --manifest                                       print BENCHMARK.json
//! ```

mod alloc;
mod cells;
mod count_tracer;
mod json;
mod kernels;
mod metrics;
mod run;
mod spans;
mod stats;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use json::Json;
use metrics::{Better, END_TO_END};

#[global_allocator]
static ALLOC: alloc::CountingAlloc = alloc::CountingAlloc;

/// Seed used when none is given.
const DEFAULT_SEED: u64 = 11;

/// Prefix of the reported-not-gated detail line a single run prints before
/// its result line.
const DETAIL_PREFIX: &str = "#detail ";

/// `setup_s` sums a few milliseconds; below this absolute difference two
/// sets agree whatever the ratio says.
const SETUP_FLOOR_S: f64 = 0.02;

#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<u64>,
    trace: bool,
    selftest: bool,
    manifest: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?.clone()),
            "--seed" => {
                let v = value()?;
                args.seed = Some(v.parse().map_err(|_| format!("bad --seed '{v}'"))?);
            }
            "--seconds" => {
                let v = value()?;
                let s: u64 = v.parse().map_err(|_| format!("bad --seconds '{v}'"))?;
                if !(1..=60).contains(&s) {
                    return Err(format!("--seconds {s} is outside 1..=60"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("bad --trace '{other}' (0 or 1)")),
                }
            }
            "--selftest" => args.selftest = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// The benchmark's own directory (`run.sh` exports it).
fn bench_dir() -> PathBuf {
    std::env::var_os("AEOLUS_BENCHMARK_DIR")
        .map_or_else(|| PathBuf::from("benchmark"), PathBuf::from)
}

/// One run of one workload, in this process.
fn single(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<(), String> {
    let out_dir = bench_dir().join("out");
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("create {}: {e}", out_dir.display()))?;
    // Strictly serial: no simulation ever shares the process with another.
    aeolus_experiments::set_jobs(1);
    let env = run::Env { out_dir };
    let outcome = if trace {
        workload::run_traced(workload, seed, &env)?
    } else {
        workload::run_measured(workload, seed, seconds, &env)?
    };
    for (name, value, unit) in &outcome.metrics {
        println!("{name:<44} {value:>18.6} {unit}");
    }
    for f in &outcome.failures {
        eprintln!("CHECK FAILED [{workload}]: {f}");
    }
    println!("{DETAIL_PREFIX}{}", outcome.detail.render());
    println!("{}", outcome.result_json().render());
    Ok(())
}

/// Spawn this binary for one run and return `(result, detail)`.
fn child_run(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<(Json, Json), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            &seconds.to_string(),
            "--trace",
            if trace { "1" } else { "0" },
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn run of {workload}: {e}"))?;
    if !output.status.success() {
        return Err(format!(
            "run of {workload} (trace {}) exited with {}",
            trace as u8, output.status
        ));
    }
    let stdout =
        String::from_utf8(output.stdout).map_err(|_| "run printed non-UTF-8".to_string())?;
    let last = stdout.lines().last().ok_or("run printed nothing")?;
    let detail = stdout
        .lines()
        .rev()
        .find_map(|l| l.strip_prefix(DETAIL_PREFIX))
        .ok_or("run printed no detail line")?;
    Ok((Json::parse(last)?, Json::parse(detail)?))
}

fn declared_names(manifest: &Json, section: &str) -> Result<Vec<String>, String> {
    manifest
        .get(section)
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no '{section}' list"))?
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("unnamed {section} entry"))
        })
        .collect()
}

/// The emitted metric names must be valid and be exactly the declared set.
fn check_names(result: &Json, declared: &[String], what: &str, failures: &mut Vec<String>) {
    let emitted: Vec<&str> = result
        .get("metrics")
        .and_then(Json::as_obj)
        .map_or(Vec::new(), |m| m.iter().map(|(k, _)| k.as_str()).collect());
    for name in &emitted {
        if !metrics::valid_name(name) {
            failures.push(format!(
                "{what}: emitted name '{name}' is not [A-Za-z0-9_.-]+"
            ));
        }
        if !declared.iter().any(|d| d == name) {
            failures.push(format!(
                "{what}: emitted '{name}' is not declared in BENCHMARK.json"
            ));
        }
    }
    for d in declared {
        if !emitted.contains(&d.as_str()) {
            failures.push(format!("{what}: declared '{d}' was not emitted"));
        }
    }
}

/// Run every workload (measured, then traced), print every metric, check
/// outputs. Returns the result set and the failed checks.
fn run_all(seed: u64, seconds: u64) -> Result<(Json, Vec<String>), String> {
    let root = bench_dir().join("..");
    let manifest_path = root.join("BENCHMARK.json");
    let text = std::fs::read_to_string(&manifest_path)
        .map_err(|e| format!("{}: {e}", manifest_path.display()))?;
    let manifest = Json::parse(&text)?;
    let mut failures = Vec::new();
    if manifest != metrics::manifest() {
        failures
            .push("BENCHMARK.json differs from the generated manifest (--manifest)".to_string());
    }
    let e2e_names = declared_names(&manifest, "end_to_end")?;
    let layer_names = declared_names(&manifest, "per_layer")?;
    let mut workloads = Vec::new();
    for w in declared_names(&manifest, "workloads")? {
        let mut entry: Vec<(String, Json)> = Vec::new();
        let mut digests = Vec::new();
        for (trace, declared, key) in [
            (false, &e2e_names, "end_to_end"),
            (true, &layer_names, "per_layer"),
        ] {
            eprintln!(
                "[{w}] {} run ...",
                if trace { "traced" } else { "measured" }
            );
            let (result, detail) = child_run(&w, seed, seconds, trace)?;
            check_names(&result, declared, &format!("{w}/{key}"), &mut failures);
            if result.get("correct") != Some(&Json::Bool(true)) {
                failures.push(format!("{w}/{key}: the run reported correct=false"));
            }
            println!("== {w} — {key} (seed {seed})");
            for (name, m) in result.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
                let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("?");
                println!("{name:<44} {value:>18.6} {unit}");
            }
            digests.push((
                detail.get("sim_digest").cloned(),
                detail.get("events").cloned(),
            ));
            if trace {
                let out = bench_dir().join("out");
                let _ = std::fs::copy(out.join("trace.json"), out.join(format!("trace-{w}.json")));
            }
            entry.push((
                key.to_string(),
                result.get("metrics").cloned().unwrap_or(Json::Null),
            ));
            entry.push((format!("{key}_detail"), detail));
        }
        if digests[0] != digests[1] {
            failures.push(format!(
                "{w}: measured and traced runs disagree on events or sim_digest"
            ));
        }
        workloads.push((w, Json::Obj(entry)));
    }
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let set = Json::obj([
        ("seed", Json::Num(seed as f64)),
        ("run_seconds", Json::Num(seconds as f64)),
        ("host_cpus", Json::Num(cpus as f64)),
        ("workloads", Json::Obj(workloads)),
    ]);
    Ok((set, failures))
}

fn write_pretty(path: &Path, v: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    }
    std::fs::write(path, v.pretty()).map_err(|e| format!("write {}: {e}", path.display()))
}

fn metric_of(set: &Json, workload: &str, name: &str) -> Option<f64> {
    set.get("workloads")?
        .get(workload)?
        .get("end_to_end")?
        .get(name)?
        .get("value")?
        .as_f64()
}

/// Two sets of the same code must agree: simulated metrics, events and the
/// digest exactly, host-time metrics within their own bound.
fn compare_sets(a: &Json, b: &Json) -> Vec<String> {
    let mut out = Vec::new();
    for w in cells::WORKLOADS {
        let detail = |s: &Json, k: &str| {
            s.get("workloads")
                .and_then(|x| x.get(w))
                .and_then(|x| x.get("end_to_end_detail"))
                .and_then(|d| d.get(k))
                .cloned()
        };
        for k in ["events", "sim_digest"] {
            if detail(a, k).is_none() || detail(a, k) != detail(b, k) {
                out.push(format!("{w}: {k} differs between the two sets"));
            }
        }
        for m in END_TO_END {
            let (Some(x), Some(y)) = (metric_of(a, w, m.name), metric_of(b, w, m.name)) else {
                out.push(format!("{w}: {} is missing from a set", m.name));
                continue;
            };
            let apart = x.max(y) / x.min(y) - 1.0;
            let agree = if m.simulated {
                x == y
            } else {
                apart <= m.bound || (m.name == "setup_s" && (x - y).abs() <= SETUP_FLOOR_S)
            };
            println!(
                "{w:<16} {:<24} a={x:<14.6} b={y:<14.6} apart={:>7.3}% bound={:>6.3}% {}",
                m.name,
                apart * 100.0,
                m.bound * 100.0,
                if agree { "ok" } else { "DISAGREE" }
            );
            if !agree {
                let dir = if m.better == Better::Lower {
                    "lower"
                } else {
                    "higher"
                };
                out.push(format!(
                    "{w}: {} ({dir} is better) {x} vs {y} is outside {}",
                    m.name, m.bound
                ));
            }
        }
    }
    out
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    let seed = args.seed.unwrap_or(DEFAULT_SEED);
    let seconds = args.seconds.unwrap_or(metrics::RUN_SECONDS);
    if args.manifest {
        print!("{}", metrics::manifest().pretty());
        return Ok(true);
    }
    if let Some(w) = &args.workload {
        single(w, seed, seconds, args.trace)?;
        return Ok(true);
    }
    let report = |failures: &[String]| {
        for f in failures {
            eprintln!("CHECK FAILED: {f}");
        }
        failures.is_empty()
    };
    if args.selftest {
        let (a, mut failures) = run_all(seed, seconds)?;
        let (b, more) = run_all(seed, seconds)?;
        failures.extend(more);
        failures.extend(compare_sets(&a, &b));
        let base = bench_dir().join("baseline");
        write_pretty(&base.join("set-a.json"), &a)?;
        write_pretty(&base.join("set-b.json"), &b)?;
        println!(
            "selftest: {}",
            if failures.is_empty() {
                "the two sets agree"
            } else {
                "FAILED"
            }
        );
        return Ok(report(&failures));
    }
    let (set, failures) = run_all(seed, seconds)?;
    write_pretty(&bench_dir().join("out").join("result.json"), &set)?;
    Ok(report(&failures))
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("aeolus-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_form_parses() {
        let a = parse_args(&argv(
            "--workload incast_burst --seed 7 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(a.workload.as_deref(), Some("incast_burst"));
        assert_eq!((a.seed, a.seconds, a.trace), (Some(7), Some(20), true));
    }

    #[test]
    fn bad_arguments_are_errors() {
        for bad in [
            "--seed x",
            "--seed",
            "--seconds 0",
            "--seconds 61",
            "--trace 2",
            "--nope",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad}");
        }
    }

    fn set(wall: f64, digest: &str) -> Json {
        let metrics = Json::obj(END_TO_END.iter().map(|m| {
            let v = if m.name == "wall_s" { wall } else { 1.0 };
            (
                m.name,
                Json::obj([("value", Json::Num(v)), ("unit", Json::str(m.unit))]),
            )
        }));
        let detail = Json::obj([
            ("events", Json::Num(5.0)),
            ("sim_digest", Json::str(digest)),
        ]);
        let w = Json::obj([("end_to_end", metrics), ("end_to_end_detail", detail)]);
        Json::obj([(
            "workloads",
            Json::obj(cells::WORKLOADS.iter().map(|n| (*n, w.clone()))),
        )])
    }

    #[test]
    fn sets_agree_within_bounds_and_disagree_outside() {
        assert!(compare_sets(&set(2.0, "ab"), &set(2.1, "ab")).is_empty());
        assert_eq!(
            compare_sets(&set(2.0, "ab"), &set(3.0, "ab")).len(),
            cells::WORKLOADS.len()
        );
        assert_eq!(
            compare_sets(&set(2.0, "ab"), &set(2.0, "cd")).len(),
            cells::WORKLOADS.len()
        );
    }

    #[test]
    fn emitted_names_must_equal_the_declared_set() {
        let result = Json::obj([(
            "metrics",
            Json::obj([("wall_s", Json::Null), ("bad name", Json::Null)]),
        )]);
        let declared = vec!["wall_s".to_string(), "setup_s".to_string()];
        let mut failures = Vec::new();
        check_names(&result, &declared, "w", &mut failures);
        assert_eq!(failures.len(), 3, "{failures:?}");
    }
}
