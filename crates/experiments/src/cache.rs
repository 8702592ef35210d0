//! Content-addressed experiment cache: skip re-simulating cells whose exact
//! configuration has a stored result.
//!
//! Every [`RunConfig`] that [`Session::run_workload`] executes is condensed
//! into a **cell key**: a hash over the canonical text of everything that
//! determines the run's output — scheme (with its parameters), topology,
//! normalized scheme params (including the fault plan, into which
//! [`Session::run_workload`] has already folded the session's `--faults`
//! plan), workload, load (as exact f64 bits), flow count, seed, drain,
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
//! A [`Session`] has no cache by default, so library callers always
//! simulate. The `repro` binary gives its session one
//! (`--no-cache` does not, `--cache-verify` additionally re-runs a sample
//! of the hits and asserts the stored bytes match a fresh simulation
//! exactly).
//!
//! Conformance-checked runs (`--check`) bypass the cache entirely: the
//! point of checking is to execute events under the oracle, and a skipped
//! run checks nothing.
//!
//! [`Session`]: crate::Session
//! [`Session::run_workload`]: crate::Session::run_workload

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

use aeolus_stats::{FctAggregator, FctSample};

use crate::runner::{RunConfig, RunOutput};

/// Bump whenever [`RunOutput`]'s contents, the cell-key text, or run
/// semantics change: old entries then miss instead of lying.
///
/// 2: `PortFree` became an on-demand event — every cell's `events` fell
/// while its key stayed put, so a v1 entry would fail `--cache-verify`.
///
/// 3: a DCTCP flow keeps one queued RTO event instead of one per re-arm —
/// the DCTCP cells' `events` fell under unchanged keys.
///
/// 4: the engine drops the flow timers of an aborted incarnation — faulted
/// cells whose crashes relaunch flows change outcome under unchanged keys.
const SCHEMA: u32 = 4;

/// One cache directory and the counters of the session that reads it.
pub struct Cache {
    dir: PathBuf,
    verify: bool,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    verified: AtomicU64,
}

/// A [`Cache`]'s counters since it was opened.
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

impl Cache {
    /// A cache over `dir` (created at the first store). With `verify`, a
    /// sample of hits (the first, then every 16th) is recomputed and
    /// byte-compared against the stored entry; a mismatch panics, naming
    /// the cell.
    pub fn new(dir: PathBuf, verify: bool) -> Cache {
        Cache {
            dir,
            verify,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            verified: AtomicU64::new(0),
        }
    }

    /// Read the counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            verified: self.verified.load(Ordering::Relaxed),
        }
    }

    /// Serve `cfg` from the cache, or compute it with `run` and store the
    /// result. In verify mode a sample of hits is recomputed and
    /// byte-compared; a divergence panics with the cell key (a cache that
    /// can silently serve wrong numbers is worse than no cache).
    pub fn run_cached(
        &self,
        cfg: &RunConfig,
        run: impl FnOnce(&RunConfig) -> RunOutput,
    ) -> RunOutput {
        let key = cell_key(cfg);
        let path = self.dir.join(format!("{key}.run"));
        if let Ok(text) = fs::read_to_string(&path) {
            if let Some(out) = decode(&key, &text) {
                let hit_no = self.hits.fetch_add(1, Ordering::Relaxed);
                if self.verify && hit_no.is_multiple_of(16) {
                    let fresh = run(cfg);
                    let fresh_text = encode(&key, &fresh);
                    assert_eq!(
                        fresh_text, text,
                        "cache verify FAILED for cell {key}: stored entry is not bit-identical \
                         to a fresh run — delete {} and investigate",
                        path.display()
                    );
                    self.verified.fetch_add(1, Ordering::Relaxed);
                    return fresh;
                }
                return out;
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let out = run(cfg);
        // Best-effort store: a read-only checkout must not fail the experiment.
        if fs::create_dir_all(&self.dir).is_ok()
            && fs::write(&path, encode(&key, &out)).is_ok()
        {
            self.stores.fetch_add(1, Ordering::Relaxed);
        }
        out
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::Session;
    use crate::topos::testbed;
    use aeolus_transport::Scheme;
    use aeolus_workloads::Workload;

    /// Simulate without a cache (the compute side of `run_cached`).
    fn uncached(cfg: &RunConfig) -> RunOutput {
        Session::default().simulate(cfg)
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
        let dir = tmpdir("hitmiss");
        let cache = Cache::new(dir.clone(), false);
        let cfg = small_cfg(7);
        let key = cell_key(&cfg);
        let path = dir.join(format!("{key}.run"));
        assert!(!path.exists());
        let cold = cache.run_cached(&cfg, uncached);
        assert!(path.exists(), "a miss stores its result");
        // A hit must not simulate: the compute closure is a landmine.
        let warm = cache.run_cached(&cfg, |_| panic!("a hit must not simulate"));
        assert_eq!(encode(&key, &warm), encode(&key, &cold), "hit is bit-identical");
        // A different seed is a different cell (its landmine must fire...
        // by simulating, i.e. NOT panicking — so run it for real).
        let other = small_cfg(8);
        assert_ne!(cell_key(&other), key);
        cache.run_cached(&other, uncached);
        assert!(dir.join(format!("{}.run", cell_key(&other))).exists());
        let stats = CacheStats { hits: 1, misses: 2, stores: 2, verified: 0 };
        assert_eq!(cache.stats(), stats, "the counters are this cache's alone");
        // A session's `run_workload` keys the effective config (Homa's
        // workload-derived cutoffs filled in), so its first run misses and
        // its second is served from the store.
        let session = Session { cache: Some(Cache::new(dir.clone(), false)), ..Session::default() };
        let first = session.run_workload(&cfg);
        assert_eq!(session.events.take().iter().sum::<u64>(), first.events);
        let again = session.run_workload(&cfg);
        assert_eq!(session.events.take().iter().sum::<u64>(), 0, "a hit simulates nothing");
        assert_eq!(encode(&key, &again), encode(&key, &first));
        let stats = CacheStats { hits: 1, misses: 1, stores: 1, verified: 0 };
        assert_eq!(session.cache.as_ref().unwrap().stats(), stats, "run_workload consults the cache");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn verify_mode_recomputes_and_matches() {
        let dir = tmpdir("verify");
        let cache = Cache::new(dir.clone(), true);
        let cfg = small_cfg(11);
        cache.run_cached(&cfg, uncached); // cold store
        // Hit sampling is `hit_no % 16 == 0` on this cache's own counter:
        // hits 0 and 16 of 17 are re-run.
        for _ in 0..17 {
            cache.run_cached(&cfg, uncached);
        }
        let stats = CacheStats { hits: 17, misses: 1, stores: 1, verified: 2 };
        assert_eq!(cache.stats(), stats);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    #[should_panic(expected = "cache verify FAILED")]
    fn verify_mode_panics_on_corrupted_float_bits() {
        let dir = tmpdir("verify-corrupt");
        let cache = Cache::new(dir.clone(), true);
        let cfg = small_cfg(13);
        cache.run_cached(&cfg, uncached);
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
        // The first hit is a sample point.
        let out = std::panic::catch_unwind(|| cache.run_cached(&cfg, uncached));
        let _ = fs::remove_dir_all(&dir);
        match out {
            Err(p) => std::panic::resume_unwind(p),
            Ok(_) => panic!("corrupted entry was never caught"),
        }
    }
}
