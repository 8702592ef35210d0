//! A minimal, self-contained benchmark harness.
//!
//! The workspace builds offline, so Criterion is not available; this module
//! replaces the slice of it we actually used: warmup iterations, a fixed
//! number of measured iterations, median/p10/p90 wall-time statistics and a
//! machine-readable JSON report. Every measured closure returns a `u64`
//! "work unit" count (events processed, flows completed, …) so benches can
//! report a throughput alongside raw wall time.
//!
//! Iteration counts come from the environment so CI smoke runs and real
//! measurement runs share one binary:
//!
//! - `AEOLUS_BENCH_ITERS`  — measured iterations per bench (default 10)
//! - `AEOLUS_BENCH_WARMUP` — warmup iterations per bench (default 2)

use std::fmt::Write as _;
use std::time::Instant;

use aeolus_sim::event::{Event, EventMix};

/// Iteration policy for a suite.
#[derive(Debug, Clone, Copy)]
pub struct BenchConfig {
    /// Unmeasured warmup iterations before timing starts.
    pub warmup: usize,
    /// Measured iterations (the percentiles are over these).
    pub iters: usize,
}

impl BenchConfig {
    /// Defaults (10 measured, 2 warmup) overridable via
    /// `AEOLUS_BENCH_ITERS` / `AEOLUS_BENCH_WARMUP`.
    pub fn from_env() -> BenchConfig {
        let get = |key: &str, default: usize| {
            std::env::var(key).ok().and_then(|v| v.parse().ok()).unwrap_or(default).max(1)
        };
        BenchConfig { warmup: get("AEOLUS_BENCH_WARMUP", 2), iters: get("AEOLUS_BENCH_ITERS", 10) }
    }
}

/// One bench's measurements.
#[derive(Debug, Clone)]
pub struct Sample {
    /// Bench name (unique within its suite).
    pub name: String,
    /// Measured iterations.
    pub iters: usize,
    /// Median wall time per iteration, nanoseconds.
    pub median_ns: u64,
    /// 10th-percentile wall time, nanoseconds.
    pub p10_ns: u64,
    /// 90th-percentile wall time, nanoseconds.
    pub p90_ns: u64,
    /// Work units per iteration (e.g. events processed), if meaningful.
    pub units: u64,
    /// For a simulation bench run with [`Suite::bench_events`]: `units` split
    /// by event kind ([`Event::KINDS`] order). Bit-exact, unlike the times.
    pub event_mix: Option<EventMix>,
}

impl Sample {
    /// Work units per second at the median iteration time.
    pub fn units_per_sec(&self) -> f64 {
        if self.median_ns == 0 {
            return 0.0;
        }
        self.units as f64 * 1e9 / self.median_ns as f64
    }
}

/// A named group of benches sharing one [`BenchConfig`].
pub struct Suite {
    /// Suite name (one per bench target / domain).
    pub name: String,
    /// Iteration policy.
    pub cfg: BenchConfig,
    /// Results in execution order.
    pub samples: Vec<Sample>,
}

fn percentile(sorted_ns: &[u64], pct: usize) -> u64 {
    debug_assert!(!sorted_ns.is_empty());
    let idx = (sorted_ns.len() - 1) * pct / 100;
    sorted_ns[idx]
}

impl Suite {
    /// New suite with env-derived config.
    pub fn new(name: &str) -> Suite {
        Suite { name: name.to_string(), cfg: BenchConfig::from_env(), samples: Vec::new() }
    }

    /// New suite with an explicit config (macro benches want few iterations).
    pub fn with_config(name: &str, cfg: BenchConfig) -> Suite {
        Suite { name: name.to_string(), cfg, samples: Vec::new() }
    }

    /// Run one bench: `f` does the work and returns how many work units it
    /// performed (return 1 if only wall time is interesting). Prints a
    /// one-line summary and records the sample.
    pub fn bench<F: FnMut() -> u64>(&mut self, name: &str, mut f: F) -> &Sample {
        self.run(name, || (f(), None))
    }

    /// [`Suite::bench`] for a simulation: `f` returns the events it
    /// processed by kind; their sum is the work-unit count and the split is
    /// recorded with the sample.
    pub fn bench_events<F: FnMut() -> EventMix>(&mut self, name: &str, mut f: F) -> &Sample {
        self.run(name, || {
            let mix = f();
            (mix.iter().sum(), Some(mix))
        })
    }

    fn run(&mut self, name: &str, mut f: impl FnMut() -> (u64, Option<EventMix>)) -> &Sample {
        for _ in 0..self.cfg.warmup {
            std::hint::black_box(f());
        }
        let mut times = Vec::with_capacity(self.cfg.iters);
        let mut last = (0u64, None);
        for _ in 0..self.cfg.iters {
            let t0 = Instant::now();
            last = std::hint::black_box(f());
            times.push(t0.elapsed().as_nanos() as u64);
        }
        times.sort_unstable();
        let s = Sample {
            name: name.to_string(),
            iters: self.cfg.iters,
            median_ns: percentile(&times, 50),
            p10_ns: percentile(&times, 10),
            p90_ns: percentile(&times, 90),
            units: last.0,
            event_mix: last.1,
        };
        let rate = if s.units > 1 {
            format!("  {:>12.0} units/s", s.units_per_sec())
        } else {
            String::new()
        };
        println!(
            "{:<44} median {:>12}  p10 {:>12}  p90 {:>12}{}",
            format!("{}/{}", self.name, s.name),
            fmt_ns(s.median_ns),
            fmt_ns(s.p10_ns),
            fmt_ns(s.p90_ns),
            rate
        );
        self.samples.push(s);
        self.samples.last().unwrap()
    }

    /// Look up a sample by name.
    pub fn sample(&self, name: &str) -> Option<&Sample> {
        self.samples.iter().find(|s| s.name == name)
    }
}

/// Human-readable nanoseconds.
pub fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3} s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3} ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3} us", ns as f64 / 1e3)
    } else {
        format!("{ns} ns")
    }
}

/// Serialize suites to a JSON report string (hand-rolled; no serde offline).
///
/// The report records the host's CPU count: run-level fan-out numbers
/// (serial vs parallel macro benches) are meaningless without it.
pub fn to_json(suites: &[&Suite]) -> String {
    let cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut out = format!(
        "{{\n  \"host_cpus\": {cpus},\n  \"os\": \"{}\",\n  \"arch\": \"{}\",\n  \"suites\": [\n",
        escape(std::env::consts::OS),
        escape(std::env::consts::ARCH)
    );
    for (i, suite) in suites.iter().enumerate() {
        let _ = write!(
            out,
            "    {{\n      \"name\": \"{}\",\n      \"warmup\": {},\n      \"benches\": [\n",
            escape(&suite.name),
            suite.cfg.warmup
        );
        for (j, s) in suite.samples.iter().enumerate() {
            let _ = writeln!(
                out,
                "        {{\"name\": \"{}\", \"iters\": {}, \"median_ns\": {}, \"p10_ns\": {}, \"p90_ns\": {}, \"units\": {}, \"units_per_sec\": {:.1}{}}}{}",
                escape(&s.name),
                s.iters,
                s.median_ns,
                s.p10_ns,
                s.p90_ns,
                s.units,
                s.units_per_sec(),
                s.event_mix.map_or(String::new(), |mix| event_mix_json(&mix)),
                if j + 1 == suite.samples.len() { "" } else { "," }
            );
        }
        let _ = write!(
            out,
            "      ]\n    }}{}\n",
            if i + 1 == suites.len() { "" } else { "," }
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// `, "event_mix": {"arrival": n, ..}, "events_per_arrival": x` — what a
/// simulation spent its events on, and how many it needed per packet hop.
fn event_mix_json(mix: &EventMix) -> String {
    let kinds: Vec<String> =
        Event::KINDS.iter().zip(mix).map(|(kind, n)| format!("\"{kind}\": {n}")).collect();
    // `KINDS[0]` is the arrival: one per packet per hop.
    let per_arrival = mix.iter().sum::<u64>() as f64 / mix[0].max(1) as f64;
    format!(", \"event_mix\": {{{}}}, \"events_per_arrival\": {per_arrival:.4}", kinds.join(", "))
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

/// Write the JSON report, creating parent directories as needed.
pub fn write_json(suites: &[&Suite], path: &str) -> std::io::Result<()> {
    if let Some(dir) = std::path::Path::new(path).parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, to_json(suites))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_order_statistics() {
        let xs = vec![10, 20, 30, 40, 50, 60, 70, 80, 90, 100];
        assert_eq!(percentile(&xs, 50), 50);
        assert_eq!(percentile(&xs, 10), 10);
        assert_eq!(percentile(&xs, 90), 90);
        assert_eq!(percentile(&[7], 50), 7);
    }

    #[test]
    fn bench_records_units_and_positive_times() {
        let mut suite =
            Suite::with_config("test", BenchConfig { warmup: 1, iters: 5 });
        let s = suite.bench("spin", || {
            let mut acc = 0u64;
            for i in 0..10_000u64 {
                acc = acc.wrapping_add(std::hint::black_box(i));
            }
            std::hint::black_box(acc);
            10_000
        });
        assert_eq!(s.units, 10_000);
        assert_eq!(s.iters, 5);
        assert!(s.p10_ns <= s.median_ns && s.median_ns <= s.p90_ns);
        assert!(s.units_per_sec() > 0.0);
    }

    #[test]
    fn json_report_is_well_formed_enough() {
        let mut suite = Suite::with_config("j", BenchConfig { warmup: 0, iters: 2 });
        suite.bench("a", || 1);
        suite.bench("b", || 2);
        let js = to_json(&[&suite]);
        assert!(js.contains("\"name\": \"j\""));
        assert!(js.contains("\"median_ns\""));
        assert_eq!(js.matches("{\"name\":").count(), 2);
        // Balanced braces/brackets.
        assert_eq!(js.matches('{').count(), js.matches('}').count());
        assert_eq!(js.matches('[').count(), js.matches(']').count());
    }

    #[test]
    fn simulation_benches_record_their_event_mix() {
        let mut suite = Suite::with_config("j", BenchConfig { warmup: 0, iters: 1 });
        let s = suite.bench_events("sim", || [8, 3, 0, 1, 0, 0]);
        assert_eq!((s.units, s.event_mix), (12, Some([8, 3, 0, 1, 0, 0])));
        suite.bench("plain", || 12);
        let js = to_json(&[&suite]);
        let want = r#""event_mix": {"arrival": 8, "port_free": 3, "port_kick": 0, "timer": 1, "flow_arrival": 0, "fault": 0}, "events_per_arrival": 1.5000}"#;
        assert!(js.contains(want), "{js}");
        assert_eq!(js.matches("event_mix").count(), 1, "only where it was measured");
        // The trajectory's line scanner still reads the bench line.
        let parsed = crate::trajectory::parse_report(&js);
        assert_eq!(parsed["j/sim"].1, 12);
    }
}
