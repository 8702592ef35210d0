//! Content-addressed experiment cache: skip re-simulating cells whose exact
//! configuration has a stored result.
//!
//! Every [`RunConfig`] that [`crate::run_workload`] executes is condensed
//! into a **cell key**: a hash over the canonical text of everything that
//! determines the run's output — scheme (with its parameters), topology,
//! normalized scheme params (including the fault plan, into which
//! [`crate::run_workload`] has already folded the session-wide `--faults`
//! default), workload, load (as exact f64 bits), flow count, seed, drain,
//! and a schema version that is bumped whenever the output format or run
//! semantics change. Simulations are single-threaded
//! and deterministic, so equal keys imply bit-identical outputs — which
//! makes the cache sound and the verify mode meaningful.
//!
//! Storage is one text file per cell under the cache directory
//! (`results/cache/<32-hex-key>.run`). Floats are stored as `f64::to_bits`
//! hex so the decode → encode round-trip is bit-exact; any parse failure or
//! schema mismatch is treated as a miss and overwritten.
//!
//! The cache is **off by default** — library callers and the test suite
//! always simulate. The `repro` binary turns it on (`--no-cache` keeps it
//! off, `--cache-verify` additionally re-runs a sample of the hits and
//! asserts the stored bytes match a fresh simulation exactly).
//!
//! Conformance-checked runs (`--check`) bypass the cache entirely: the
//! point of checking is to execute events under the oracle, and a skipped
//! run checks nothing.

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use aeolus_stats::{FctAggregator, FctSample};

use crate::runner::{RunConfig, RunOutput};

/// Bump whenever [`RunOutput`]'s contents, the cell-key text, or run
/// semantics change: old entries then miss instead of lying.
///
/// 2: `PortFree` became an on-demand event — every cell's `events` fell
/// while its key stayed put, so a v1 entry would fail `--cache-verify`.
const SCHEMA: u32 = 2;

/// Cache directory; `None` disables the cache (the default).
static DIR: Mutex<Option<PathBuf>> = Mutex::new(None);

/// Verify mode: re-run a sample of cache hits and compare bytes.
static VERIFY: AtomicBool = AtomicBool::new(false);

static HITS: AtomicU64 = AtomicU64::new(0);
static MISSES: AtomicU64 = AtomicU64::new(0);
static STORES: AtomicU64 = AtomicU64::new(0);
static VERIFIED: AtomicU64 = AtomicU64::new(0);

/// Point the cache at a directory (creating it lazily) or disable it with
/// `None`. The `repro` binary calls this; the library default is disabled.
pub fn set_cache_dir(dir: Option<PathBuf>) {
    *DIR.lock().unwrap() = dir;
}

/// Whether the cache is currently enabled.
pub fn cache_enabled() -> bool {
    DIR.lock().unwrap().is_some()
}

/// Enable verify mode: a sample of hits (the first, then every 16th) is
/// recomputed and byte-compared against the stored entry; a mismatch
/// panics, naming the cell.
pub fn set_cache_verify(on: bool) {
    VERIFY.store(on, Ordering::Relaxed);
}

/// Cumulative cache counters since process start.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Cells answered from the store.
    pub hits: u64,
    /// Cells that had to simulate.
    pub misses: u64,
    /// Entries written.
    pub stores: u64,
    /// Hits re-run and byte-verified (verify mode).
    pub verified: u64,
}

/// Read the cumulative counters.
pub fn cache_stats() -> CacheStats {
    CacheStats {
        hits: HITS.load(Ordering::Relaxed),
        misses: MISSES.load(Ordering::Relaxed),
        stores: STORES.load(Ordering::Relaxed),
        verified: VERIFIED.load(Ordering::Relaxed),
    }
}

/// 64-bit FNV-1a with a caller-chosen offset basis (two passes with
/// different bases make the 128-bit cell key).
fn fnv1a64(basis: u64, bytes: &[u8]) -> u64 {
    let mut h = basis;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The canonical text a cell key hashes. Everything output-determining goes
/// in; cosmetic knobs (jobs, csv dir) stay out.
fn key_text(cfg: &RunConfig) -> String {
    format!(
        "schema={SCHEMA}\nscheme={:?}\nspec={:?}\nparams={:?}\nworkload={:?}\nload={:016x}\n\
         n_flows={}\nseed={}\ndrain={}\n",
        cfg.scheme,
        cfg.spec,
        cfg.params,
        cfg.workload,
        cfg.load.to_bits(),
        cfg.n_flows,
        cfg.seed,
        cfg.drain,
    )
}

/// The 32-hex-digit content address of one run configuration.
pub fn cell_key(cfg: &RunConfig) -> String {
    let text = key_text(cfg);
    format!(
        "{:016x}{:016x}",
        fnv1a64(0xcbf2_9ce4_8422_2325, text.as_bytes()),
        fnv1a64(0x6c62_272e_07bb_0142, text.as_bytes())
    )
}

/// Bit-exact text encoding of a [`RunOutput`]. Floats as `to_bits` hex;
/// FCT samples one per line.
pub fn encode(key: &str, out: &RunOutput) -> String {
    let mut s = String::new();
    let _ = writeln!(s, "aeolus-cache v{SCHEMA}");
    let _ = writeln!(s, "key {key}");
    let _ = writeln!(s, "efficiency {:016x}", out.efficiency.to_bits());
    let _ = writeln!(s, "goodput {:016x}", out.goodput.to_bits());
    let _ = writeln!(s, "flows_with_timeouts {}", out.flows_with_timeouts);
    let _ = writeln!(s, "completed {}", out.completed);
    let _ = writeln!(s, "scheduled {}", out.scheduled);
    let _ = writeln!(s, "span {}", out.span);
    let _ = writeln!(s, "events {}", out.events);
    let _ = writeln!(s, "samples {}", out.agg.len());
    for smp in out.agg.samples() {
        let _ = writeln!(s, "s {} {} {}", smp.size, smp.fct_ps, smp.ideal_ps);
    }
    let _ = writeln!(s, "end");
    s
}

/// Decode [`encode`]'s output. `None` on any mismatch — a corrupt or
/// stale-schema entry is a miss, never an error.
pub fn decode(key: &str, text: &str) -> Option<RunOutput> {
    let mut lines = text.lines();
    if lines.next()? != format!("aeolus-cache v{SCHEMA}") {
        return None;
    }
    if lines.next()? != format!("key {key}") {
        return None;
    }
    let mut field = |name: &str| -> Option<String> {
        let line = lines.next()?;
        let rest = line.strip_prefix(name)?.strip_prefix(' ')?;
        Some(rest.to_string())
    };
    let efficiency = f64::from_bits(u64::from_str_radix(&field("efficiency")?, 16).ok()?);
    let goodput = f64::from_bits(u64::from_str_radix(&field("goodput")?, 16).ok()?);
    let flows_with_timeouts = field("flows_with_timeouts")?.parse().ok()?;
    let completed = field("completed")?.parse().ok()?;
    let scheduled = field("scheduled")?.parse().ok()?;
    let span = field("span")?.parse().ok()?;
    let events = field("events")?.parse().ok()?;
    let n: usize = field("samples")?.parse().ok()?;
    let mut agg = FctAggregator::new();
    for _ in 0..n {
        let line = lines.next()?;
        let mut parts = line.strip_prefix("s ")?.split(' ');
        agg.push(FctSample {
            size: parts.next()?.parse().ok()?,
            fct_ps: parts.next()?.parse().ok()?,
            ideal_ps: parts.next()?.parse().ok()?,
        });
        if parts.next().is_some() {
            return None;
        }
    }
    // A terminating marker makes tail truncation detectable: a file cut off
    // mid-write can end in a sample line whose shortened numbers still parse.
    if lines.next()? != "end" || lines.next().is_some() {
        return None;
    }
    Some(RunOutput {
        agg,
        efficiency,
        flows_with_timeouts,
        completed,
        scheduled,
        goodput,
        span,
        events,
    })
}

/// Serve `cfg` from the cache, or compute it with `run` and store the
/// result. In verify mode a sample of hits is recomputed and byte-compared;
/// a divergence panics with the cell key (a cache that can silently serve
/// wrong numbers is worse than no cache).
pub fn run_cached(cfg: &RunConfig, run: impl FnOnce(&RunConfig) -> RunOutput) -> RunOutput {
    let Some(dir) = DIR.lock().unwrap().clone() else {
        return run(cfg);
    };
    let key = cell_key(cfg);
    let path = dir.join(format!("{key}.run"));
    if let Ok(text) = fs::read_to_string(&path) {
        if let Some(out) = decode(&key, &text) {
            let hit_no = HITS.fetch_add(1, Ordering::Relaxed);
            if VERIFY.load(Ordering::Relaxed) && hit_no % 16 == 0 {
                let fresh = run(cfg);
                let fresh_text = encode(&key, &fresh);
                assert_eq!(
                    fresh_text, text,
                    "cache verify FAILED for cell {key}: stored entry is not bit-identical \
                     to a fresh run — delete {} and investigate",
                    path.display()
                );
                VERIFIED.fetch_add(1, Ordering::Relaxed);
                return fresh;
            }
            return out;
        }
    }
    MISSES.fetch_add(1, Ordering::Relaxed);
    let out = run(cfg);
    // Best-effort store: a read-only checkout must not fail the experiment.
    if fs::create_dir_all(&dir).is_ok() && fs::write(&path, encode(&key, &out)).is_ok() {
        STORES.fetch_add(1, Ordering::Relaxed);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::run_workload_uncached as uncached;
    use crate::topos::testbed;
    use aeolus_transport::Scheme;
    use aeolus_workloads::Workload;

    /// The cache directory and counters are process-global; tests that
    /// enable the cache serialize on this lock so they cannot observe each
    /// other's state (other suites never enable the cache).
    static LOCK: Mutex<()> = Mutex::new(());

    fn lock() -> std::sync::MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("aeolus-cache-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        d
    }

    fn small_cfg(seed: u64) -> RunConfig {
        let mut cfg = RunConfig::new(Scheme::HomaAeolus, testbed(), Workload::WebServer);
        cfg.n_flows = 20;
        cfg.load = 0.3;
        cfg.seed = seed;
        cfg
    }

    #[test]
    fn key_is_deterministic_and_config_sensitive() {
        let a = small_cfg(1);
        assert_eq!(cell_key(&a), cell_key(&a.clone()));
        let mut b = a.clone();
        b.seed = 2;
        assert_ne!(cell_key(&a), cell_key(&b), "seed must key");
        let mut c = a.clone();
        c.load = 0.3 + 1e-12;
        assert_ne!(cell_key(&a), cell_key(&c), "load keys on exact f64 bits");
        let mut d = a.clone();
        d.scheme = Scheme::Homa { rto: aeolus_sim::units::ms(10) };
        assert_ne!(cell_key(&a), cell_key(&d), "scheme (with params) must key");
    }

    #[test]
    fn key_hashes_the_fault_plan_the_params_carry() {
        // `run_workload` folds the session's `--faults` default into
        // `params.faults` before keying, so the plan in the params is the
        // key's one fault term.
        let clean = small_cfg(1);
        let mut faulted = clean.clone();
        faulted.params.faults = "loss=1%, seed=7".parse().unwrap();
        assert_ne!(cell_key(&clean), cell_key(&faulted), "the plan must key");
    }

    #[test]
    fn encode_decode_round_trips_bit_exactly() {
        let cfg = small_cfg(3);
        let out = uncached(&cfg);
        let key = cell_key(&cfg);
        let text = encode(&key, &out);
        let back = decode(&key, &text).expect("decodes");
        assert_eq!(encode(&key, &back), text, "encode(decode(x)) == x");
        assert_eq!(back.efficiency.to_bits(), out.efficiency.to_bits());
        assert_eq!(back.goodput.to_bits(), out.goodput.to_bits());
        assert_eq!(back.events, out.events);
        assert_eq!(back.agg.len(), out.agg.len());
        // Wrong key, wrong schema and truncation all read as misses.
        assert!(decode("00", &text).is_none());
        assert!(decode(&key, &text.replace(&format!("v{SCHEMA}"), "v999")).is_none());
        let cut = &text[..text.len() - 4];
        assert!(decode(&key, cut).is_none());
    }

    #[test]
    fn hit_returns_the_stored_bytes_and_miss_recomputes() {
        let _g = lock();
        let dir = tmpdir("hitmiss");
        set_cache_dir(Some(dir.clone()));
        let cfg = small_cfg(7);
        let key = cell_key(&cfg);
        let path = dir.join(format!("{key}.run"));
        assert!(!path.exists());
        let cold = run_cached(&cfg, uncached);
        assert!(path.exists(), "a miss stores its result");
        // A hit must not simulate: the compute closure is a landmine.
        let warm = run_cached(&cfg, |_| panic!("a hit must not simulate"));
        assert_eq!(encode(&key, &warm), encode(&key, &cold), "hit is bit-identical");
        // A different seed is a different cell (its landmine must fire...
        // by simulating, i.e. NOT panicking — so run it for real).
        let other = small_cfg(8);
        assert_ne!(cell_key(&other), key);
        run_cached(&other, uncached);
        assert!(dir.join(format!("{}.run", cell_key(&other))).exists());
        // The public entry point serves the same bytes through the cache.
        let via_public = crate::runner::run_workload(&cfg);
        assert_eq!(
            encode(&key, &via_public).lines().nth(2).unwrap(),
            encode(&key, &cold).lines().nth(2).unwrap(),
            "run_workload consults the cache when enabled"
        );
        set_cache_dir(None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_mode_recomputes_and_matches() {
        let _g = lock();
        let dir = tmpdir("verify");
        set_cache_dir(Some(dir.clone()));
        let cfg = small_cfg(11);
        run_cached(&cfg, uncached); // cold store
        set_cache_verify(true);
        let v0 = cache_stats().verified;
        // Hit sampling is `hit_no % 16 == 0` on the global counter, so loop
        // enough hits to guarantee at least one lands on a sample point.
        for _ in 0..17 {
            run_cached(&cfg, uncached);
        }
        set_cache_verify(false);
        assert!(cache_stats().verified > v0, "at least one hit was verified");
        set_cache_dir(None);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "cache verify FAILED")]
    fn verify_mode_panics_on_corrupted_float_bits() {
        let _g = lock();
        let dir = tmpdir("verify-corrupt");
        set_cache_dir(Some(dir.clone()));
        let cfg = small_cfg(13);
        run_cached(&cfg, uncached);
        // Flip one hex digit of the stored efficiency bits: still decodes,
        // but is no longer what a fresh run produces.
        let key = cell_key(&cfg);
        let path = dir.join(format!("{key}.run"));
        let text = fs::read_to_string(&path).unwrap();
        let line = text.lines().find(|l| l.starts_with("efficiency ")).unwrap().to_string();
        let digit = line.chars().last().unwrap();
        let flipped = if digit == '0' { '1' } else { '0' };
        let mut corrupt = line.clone();
        corrupt.pop();
        corrupt.push(flipped);
        fs::write(&path, text.replace(&line, &corrupt)).unwrap();
        set_cache_verify(true);
        // Drive the global hit counter onto a sample point.
        let out = std::panic::catch_unwind(|| {
            for _ in 0..17 {
                run_cached(&cfg, uncached);
            }
        });
        set_cache_verify(false);
        set_cache_dir(None);
        let _ = fs::remove_dir_all(&dir);
        match out {
            Err(p) => std::panic::resume_unwind(p),
            Ok(()) => panic!("corrupted entry was never caught"),
        }
    }
}
