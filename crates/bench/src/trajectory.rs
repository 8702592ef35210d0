//! BENCH trajectory: the repo-root `BENCH_<n>.json` snapshot history.
//!
//! Each PR that moves performance commits an immutable snapshot of the
//! bench report as `BENCH_<n>.json` at the repository root (next to
//! README.md, where it is discoverable); the newest one is the baseline the
//! CI gates compare against. This module finds those snapshots, parses them
//! (the hand-rolled [`to_json`] format — no serde offline) and renders the full per-bench trajectory
//! `BENCH_5 -> BENCH_6 -> ... -> current run` with deltas, so a regression
//! introduced across a re-anchor is visible in one glance of the bench
//! output instead of requiring a manual diff of two JSON files.
//!
//! [`to_json`]: crate::harness::to_json

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use crate::harness::{fmt_ns, Suite};

/// One bench's numbers as recorded in a report: `(median_ns, units,
/// units_per_sec)`.
pub type BenchPoint = (u64, u64, f64);

/// One parsed `BENCH_<n>.json` snapshot.
pub struct Snapshot {
    /// The PR number `n` from the file name.
    pub n: u32,
    /// Where the snapshot was found.
    pub path: PathBuf,
    /// `"suite/bench"` → numbers.
    pub benches: BTreeMap<String, BenchPoint>,
}

/// Scan `dir` (non-recursively) for `BENCH_<n>.json` files and parse them,
/// sorted by `n`. Unreadable or unparsable files are skipped — a truncated
/// snapshot must not break the bench run that is trying to report on it.
pub fn find_snapshots(dir: &Path) -> Vec<Snapshot> {
    let mut out = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else { return out };
    for entry in entries.flatten() {
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let Some(n) = snapshot_number(name) else { continue };
        let Ok(text) = std::fs::read_to_string(entry.path()) else { continue };
        let benches = parse_report(&text);
        if !benches.is_empty() {
            out.push(Snapshot { n, path: entry.path(), benches });
        }
    }
    out.sort_by_key(|s| s.n);
    out
}

/// `BENCH_<n>.json` → `Some(n)`, anything else → `None`.
fn snapshot_number(file_name: &str) -> Option<u32> {
    file_name.strip_prefix("BENCH_")?.strip_suffix(".json")?.parse().ok()
}

/// Parse a bench report produced by [`crate::harness::to_json`] into
/// `"suite/bench"` → [`BenchPoint`].
///
/// The format is line-regular by construction (one bench object per line,
/// suite names on their own lines), so a line scanner is an exact parser
/// for every report this repo has ever written — and degrades to "empty"
/// rather than panicking on anything else.
pub fn parse_report(text: &str) -> BTreeMap<String, BenchPoint> {
    let mut out = BTreeMap::new();
    let mut suite = String::new();
    for line in text.lines() {
        let t = line.trim_start();
        if let Some(rest) = t.strip_prefix("\"name\": \"") {
            // A suite header line: `"name": "engine",`
            if let Some(end) = rest.find('"') {
                suite = rest[..end].to_string();
            }
        } else if t.starts_with("{\"name\":") {
            // A bench line: `{"name": "...", ..., "units_per_sec": 1.0}`
            let Some(name) = str_field(t, "name") else { continue };
            let median = num_field(t, "median_ns").unwrap_or(0.0) as u64;
            let units = num_field(t, "units").unwrap_or(0.0) as u64;
            let rate = num_field(t, "units_per_sec").unwrap_or(0.0);
            out.insert(format!("{suite}/{name}"), (median, units, rate));
        }
    }
    out
}

fn str_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let at = line.find(&format!("\"{key}\": \""))? + key.len() + 5;
    let rest = &line[at..];
    Some(&rest[..rest.find('"')?])
}

fn num_field(line: &str, key: &str) -> Option<f64> {
    let at = line.find(&format!("\"{key}\": "))? + key.len() + 4;
    let rest = &line[at..];
    let end = rest.find(|c: char| c != '-' && c != '.' && !c.is_ascii_digit()).unwrap_or(rest.len());
    rest[..end].parse().ok()
}

fn fmt_rate(v: f64) -> String {
    if v >= 1e6 {
        format!("{:.2}M/s", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.1}k/s", v / 1e3)
    } else {
        format!("{v:.0}/s")
    }
}

fn pct(prev: f64, next: f64) -> String {
    if prev <= 0.0 {
        return String::from("(n/a)");
    }
    format!("({:+.1}%)", (next - prev) / prev * 100.0)
}

/// Render the full trajectory: one line per bench of the current run,
/// chaining every snapshot that measured it (oldest first) into the
/// current value, with a percentage delta at each hop. Benches no snapshot
/// has seen are marked new; throughput benches compare `units_per_sec`
/// (higher is better), pure-wall-time benches compare `median_ns` (lower
/// is better, flagged as such).
pub fn trajectory_delta(snapshots: &[Snapshot], current: &[&Suite]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    if snapshots.is_empty() {
        out.push_str(
            "BENCH trajectory: no repo-root BENCH_<n>.json snapshots found — \
             run with --snapshot BENCH_<pr>.json to start one\n",
        );
        return out;
    }
    let names: Vec<String> =
        snapshots.iter().map(|s| format!("BENCH_{}", s.n)).collect();
    let _ = writeln!(out, "BENCH trajectory ({} + current run):", names.join(", "));
    for suite in current {
        for s in &suite.samples {
            let key = format!("{}/{}", suite.name, s.name);
            let by_rate = s.units > 1;
            let mut line = format!("  {key:<40}");
            let mut prev: Option<f64> = None;
            let mut seen = false;
            for snap in snapshots {
                let Some(&(median, _, rate)) = snap.benches.get(&key) else { continue };
                seen = true;
                let v = if by_rate { rate } else { median as f64 };
                let shown = if by_rate { fmt_rate(rate) } else { fmt_ns(median) };
                match prev {
                    None => {
                        let _ = write!(line, " {shown} [{}]", snap.n);
                    }
                    Some(p) => {
                        let _ = write!(line, " -> {shown} [{}] {}", snap.n, pct(p, v));
                    }
                }
                prev = Some(v);
            }
            let cur = if by_rate { s.units_per_sec() } else { s.median_ns as f64 };
            let shown = if by_rate { fmt_rate(s.units_per_sec()) } else { fmt_ns(s.median_ns) };
            if !seen {
                let _ = write!(line, " {shown} now (new bench — no snapshot history)");
            } else {
                let _ = write!(line, " -> {shown} now {}", pct(prev.unwrap_or(0.0), cur));
            }
            if !by_rate {
                line.push_str("  [wall time: lower is better]");
            }
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

/// The directories to search for snapshots: the working directory (the
/// repo root when run via `cargo run`/`cargo bench`) and, as a fallback
/// for invocations from elsewhere, the workspace root derived from this
/// crate's manifest location.
pub fn snapshot_dirs() -> Vec<PathBuf> {
    let mut dirs = vec![PathBuf::from(".")];
    let manifest_root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    if let (Ok(cwd), Ok(root)) = (std::fs::canonicalize("."), std::fs::canonicalize(&manifest_root))
    {
        if cwd != root {
            dirs.push(manifest_root);
        }
    }
    dirs
}

/// Find snapshots across [`snapshot_dirs`], de-duplicated by number (the
/// working directory wins).
pub fn find_all_snapshots() -> Vec<Snapshot> {
    let mut seen = std::collections::BTreeSet::new();
    let mut all = Vec::new();
    for dir in snapshot_dirs() {
        for snap in find_snapshots(&dir) {
            if seen.insert(snap.n) {
                all.push(snap);
            }
        }
    }
    all.sort_by_key(|s| s.n);
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::{to_json, BenchConfig};

    fn suite_with(name: &str, benches: &[(&str, u64)]) -> Suite {
        let mut s = Suite::with_config(name, BenchConfig { warmup: 0, iters: 1 });
        for &(bench, units) in benches {
            s.bench(bench, || units);
        }
        s
    }

    #[test]
    fn parse_report_round_trips_to_json() {
        let a = suite_with("engine", &[("fast", 1_000_000), ("slow", 10)]);
        let b = suite_with("alloc", &[("window", 0)]);
        let parsed = parse_report(&to_json(&[&a, &b]));
        assert_eq!(parsed.len(), 3);
        let (median, units, rate) = parsed["engine/fast"];
        assert_eq!(median, a.sample("fast").unwrap().median_ns);
        assert_eq!(units, 1_000_000);
        assert!((rate - a.sample("fast").unwrap().units_per_sec()).abs() < 1.0);
        assert!(parsed.contains_key("alloc/window"));
    }

    #[test]
    fn parse_report_tolerates_garbage() {
        assert!(parse_report("").is_empty());
        assert!(parse_report("not json at all").is_empty());
        assert!(parse_report("{\"suites\": []}").is_empty());
    }

    #[test]
    fn snapshot_numbers_come_from_the_file_name() {
        assert_eq!(snapshot_number("BENCH_6.json"), Some(6));
        assert_eq!(snapshot_number("BENCH_12.json"), Some(12));
        assert_eq!(snapshot_number("bench.json"), None);
        assert_eq!(snapshot_number("BENCH_x.json"), None);
        assert_eq!(snapshot_number("BENCH_6.json.bak"), None);
    }

    #[test]
    fn trajectory_chains_snapshots_in_order_with_deltas() {
        let current = suite_with("engine", &[("kernel", 2_000_000)]);
        let mk = |n: u32, rate: f64| Snapshot {
            n,
            path: PathBuf::from(format!("BENCH_{n}.json")),
            benches: BTreeMap::from([(
                "engine/kernel".to_string(),
                (1_000_000u64, 2_000_000u64, rate),
            )]),
        };
        let snaps = vec![mk(5, 1e6), mk(6, 2e6)];
        let text = trajectory_delta(&snaps, &[&current]);
        assert!(text.contains("BENCH trajectory (BENCH_5, BENCH_6 + current run):"), "{text}");
        assert!(text.contains("1.00M/s [5]"), "{text}");
        assert!(text.contains("-> 2.00M/s [6] (+100.0%)"), "{text}");
        assert!(text.contains("now"), "{text}");
    }

    #[test]
    fn trajectory_marks_new_benches_and_empty_history() {
        let current = suite_with("hotpath", &[("brand_new", 5)]);
        assert!(trajectory_delta(&[], &[&current]).contains("no repo-root BENCH_<n>.json"));
        let snap = Snapshot { n: 6, path: PathBuf::from("BENCH_6.json"), benches: BTreeMap::new() };
        // A snapshot with no benches parses to empty and is filtered by
        // find_snapshots, but trajectory_delta must still cope.
        let text = trajectory_delta(&[snap], &[&current]);
        assert!(text.contains("new bench — no snapshot history"), "{text}");
    }

    #[test]
    fn real_snapshot_on_disk_parses_if_present() {
        // The committed repo-root snapshots must stay parsable; this guards
        // the format contract between write_json and parse_report.
        for snap in find_all_snapshots() {
            assert!(
                snap.benches.contains_key("engine/incast_sim_wheel"),
                "{}: missing the engine incast kernel",
                snap.path.display()
            );
        }
    }
}
