//! Corpus-guided fuzzing: novelty signatures, a persistent on-disk corpus
//! of interesting [`Scenario`] specs, mutation operators over it, and the
//! batched campaign driver behind `repro fuzz --corpus`.
//!
//! The blind fuzzer ([`crate::fuzz::fuzz`]) samples scenarios uniformly and
//! stops at the first failure. This module steers instead: every run is
//! condensed into a deterministic **novelty signature** — a behavioral
//! fingerprint over the signals the conformance oracle and the metrics
//! already produce (drop-taxonomy cells, queue-depth extremes, retransmit
//! causes, restart/abort/timeout outcomes, and how close the run came to
//! each oracle check's boundary), all log2- or decile-bucketed so noise
//! collapses but regimes stay distinct. A scenario whose signature was
//! never seen before is *interesting*: it is persisted to the corpus
//! (failures are shrunk first), and later campaigns replay and mutate the
//! corpus instead of starting from nothing.
//!
//! Everything is deterministic in (seed, corpus contents): scenario
//! generation and corpus folding happen sequentially per batch, only the
//! embarrassingly-parallel `check_signed` runs fan out, and results are
//! folded in batch order — so a campaign's outcome is bit-identical across
//! `--jobs` counts.
//!
//! On-disk format: `results/corpus/<fingerprint>.spec`, where the stem is
//! the 16-hex-digit signature fingerprint. Lines starting with `#` are
//! annotations (the signature text, the failure that produced the spec);
//! the first other line is the one-line [`Scenario`] spec, parsed back via
//! its `FromStr`.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use aeolus_sim::units::us;
use aeolus_sim::{Fault, LinkFilter, SimRng, LOSS_CAUSE_LABELS};

use crate::fuzz::{scheme_pool, shrink, CheckedRun, RunSignals, Scenario};

/// A deterministic behavioral fingerprint of one checked run.
///
/// Two runs share a signature exactly when they land in the same behavioral
/// regime: same scheme, same verdict class, same bucketed drop taxonomy,
/// queue-depth extremes, retransmit-cause mix, flow outcomes and oracle
/// check proximity. The human-readable `text` is canonical; `fingerprint`
/// is its FNV-1a hash, used as the corpus filename and the novelty key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Signature {
    text: String,
    fingerprint: u64,
}

impl Signature {
    /// Condense a checked run into its signature.
    pub(crate) fn of(scenario: &Scenario, run: &CheckedRun) -> Signature {
        let mut text = format!("scheme={}", scenario.scheme.name());
        match &run.failure {
            None => text.push_str(" verdict=pass"),
            Some(msg) => {
                text.push_str(" verdict=");
                text.push_str(&failure_class(msg));
            }
        }
        if let Some(sig) = &run.signals {
            fold_signals(&mut text, sig);
        }
        let fingerprint = fnv1a64(text.as_bytes());
        Signature { text, fingerprint }
    }

    /// 64-bit FNV-1a hash of the canonical text — the novelty key.
    pub(crate) fn fingerprint(&self) -> u64 {
        self.fingerprint
    }
}

impl fmt::Display for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:016x} {}", self.fingerprint, self.text)
    }
}

/// Append the bucketed signal fields to a signature's canonical text.
///
/// Bucketing is deliberately coarse (AFL-style): a signature should name a
/// behavioral *regime* — which checks were grazed, which drop taxonomy
/// cells fired, whether flows hung/aborted/retransmitted — not a single
/// run. Too fine and every random case mints a "new" signature, which
/// makes novelty meaningless (blind sampling would trivially tie guided
/// search); too coarse and real regressions collapse into old regimes.
fn fold_signals(text: &mut String, sig: &RunSignals) {
    use fmt::Write;
    // Completion as a class, not a count: all / partial / none.
    let done = if sig.flow_count == 0 {
        "empty"
    } else if sig.completed == sig.flow_count {
        "all"
    } else if sig.completed == 0 {
        "none"
    } else {
        "partial"
    };
    let _ = write!(
        text,
        " done={done} ab={} rtx={} q=b{}",
        (sig.aborted > 0) as u8,
        (sig.retransmitting_flows > 0) as u8,
        bucket(sig.oracle.max_queue_bytes) / 2,
    );
    let _ = write!(text, " rst=b{} to=b{}", bucket(sig.restarts) / 2, bucket(sig.timeouts) / 2);
    // Oracle-check proximity in halves of the boundary: 0 = never
    // exercised, 1 = below half, 2 = grazed (50–100%), 3+ = past it
    // (possible only where the profile leaves the check off).
    let _ = write!(
        text,
        " fill={}/{}/{}",
        (sig.oracle.burst_fill_pct / 50).min(3),
        (sig.oracle.credit_fill_pct / 50).min(3),
        (sig.oracle.retransmit_fill_pct / 50).min(3)
    );
    text.push_str(" causes=");
    let mut any = false;
    for (i, label) in LOSS_CAUSE_LABELS.iter().enumerate() {
        let n = sig.oracle.retransmits_by_cause[i];
        if n > 0 {
            if any {
                text.push(',');
            }
            let _ = write!(text, "{label}:b{}", bucket(n) / 2);
            any = true;
        }
    }
    if !any {
        text.push_str("none");
    }
    text.push_str(" drops=");
    let mut any = false;
    for (reason, class, n) in &sig.drops {
        if any {
            text.push(',');
        }
        let _ = write!(text, "{reason}/{class}:b{}", bucket(*n) / 2);
        any = true;
    }
    if !any {
        text.push_str("none");
    }
}

/// Log2 bucket: 0 for 0, else `1 + floor(log2(x))` — collapses counts into
/// orders of magnitude so one extra drop does not mint a "new" signature.
/// Callers halve or clamp this further where regimes, not magnitudes, are
/// the point.
fn bucket(x: u64) -> u32 {
    64 - x.leading_zeros()
}

/// Classify a failure message into a stable signature token: the oracle's
/// check name when present, one of the fuzzer's own verdicts otherwise,
/// `panic` as the catch-all.
fn failure_class(msg: &str) -> String {
    if let Some(rest) = msg.split("conformance violation [").nth(1) {
        if let Some(check) = rest.split(']').next() {
            return format!("violation:{check}");
        }
    }
    if msg.contains("incomplete on a clean network") {
        "incomplete".to_string()
    } else if msg.contains("on a clean network") {
        "short-delivery".to_string()
    } else if msg.contains("hung") {
        "hung".to_string()
    } else {
        "panic".to_string()
    }
}

/// 64-bit FNV-1a — tiny, dependency-free, stable across platforms.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The corpus: scenarios worth keeping, keyed by signature fingerprint.
///
/// Backed by a directory when opened with [`Corpus::open`] (one `.spec`
/// file per signature) or purely in-memory for blind baselines and tests.
#[derive(Debug)]
pub struct Corpus {
    dir: Option<PathBuf>,
    seen: BTreeSet<u64>,
    entries: Vec<Scenario>,
}

impl Corpus {
    /// An empty corpus with no backing directory (nothing persists).
    pub fn in_memory() -> Corpus {
        Corpus { dir: None, seen: BTreeSet::new(), entries: Vec::new() }
    }

    /// Open (creating if needed) an on-disk corpus directory and load every
    /// parseable `.spec` entry, in sorted filename order so iteration is
    /// deterministic regardless of directory enumeration order.
    pub fn open(dir: &Path) -> io::Result<Corpus> {
        fs::create_dir_all(dir)?;
        let mut names: Vec<PathBuf> = fs::read_dir(dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.extension().is_some_and(|x| x == "spec"))
            .collect();
        names.sort();
        let mut corpus =
            Corpus { dir: Some(dir.to_path_buf()), seen: BTreeSet::new(), entries: Vec::new() };
        for path in names {
            let text = fs::read_to_string(&path)?;
            let Some(line) = text.lines().find(|l| !l.trim().is_empty() && !l.starts_with('#'))
            else {
                continue;
            };
            let scenario: Scenario = line.parse().map_err(|e| {
                io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("{}: bad corpus spec: {e}", path.display()),
                )
            })?;
            if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                if let Ok(fp) = u64::from_str_radix(stem, 16) {
                    corpus.seen.insert(fp);
                }
            }
            corpus.entries.push(scenario);
        }
        Ok(corpus)
    }

    /// Entries in deterministic (load + insertion) order.
    pub(crate) fn entries(&self) -> &[Scenario] {
        &self.entries
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the corpus holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Record `scenario` under `sig` if the signature is new: remembers it
    /// in-memory and, for a directory-backed corpus, writes
    /// `<fingerprint>.spec` annotated with the signature text and the
    /// failure (if any). Returns whether the signature was new.
    pub(crate) fn admit(
        &mut self,
        sig: &Signature,
        scenario: &Scenario,
        failure: Option<&str>,
    ) -> io::Result<bool> {
        if !self.seen.insert(sig.fingerprint) {
            return Ok(false);
        }
        self.entries.push(scenario.clone());
        if let Some(dir) = &self.dir {
            let mut body = format!("# sig {}\n", sig.text);
            if let Some(msg) = failure {
                for line in msg.lines() {
                    body.push_str("# failure ");
                    body.push_str(line);
                    body.push('\n');
                }
            }
            body.push_str(&scenario.to_string());
            body.push('\n');
            fs::write(dir.join(format!("{:016x}.spec", sig.fingerprint)), body)?;
        }
        Ok(true)
    }
}

/// Mutate `a` (with `b` as a splice donor) into a nearby scenario: splice
/// fault plans between specs, perturb flow sizes/starts and fault windows,
/// add/remove flows, swap the scheme, resize the topology. Deterministic in
/// the RNG state.
pub fn mutate(rng: &mut SimRng, a: &Scenario, b: &Scenario) -> Scenario {
    let mut m = a.clone();
    match rng.index(8) {
        // Splice: a's workload under b's fault plan — the cross-pollination
        // operator that moves a fault regime onto a workload shape that
        // never drew it.
        0 => m.faults = b.faults.clone(),
        // Perturb flow sizes: double or halve one flow.
        1 => {
            if !m.flows.is_empty() {
                let i = rng.index(m.flows.len());
                let f = &mut m.flows[i];
                f.size = if rng.chance(0.5) { (f.size * 2).min(1 << 22) } else { (f.size / 2).max(1) };
            }
        }
        // Perturb start times: re-draw one flow's start.
        2 => {
            if !m.flows.is_empty() {
                let i = rng.index(m.flows.len());
                m.flows[i].start_us = rng.below(50);
            }
        }
        // Perturb fault windows: shift every wire-fault window later and
        // halve-or-double its duration.
        3 => {
            for w in m.faults.windows.iter_mut().filter(|w| matches!(w.what, Fault::Link(..))) {
                let dur = (w.until - w.from).max(1);
                let dur = if rng.chance(0.5) { dur * 2 } else { (dur / 2).max(1) };
                w.from += us(rng.below(100));
                w.until = w.from + dur;
            }
        }
        // Swap the scheme, keeping workload and faults.
        4 => {
            let pool = scheme_pool();
            m.scheme = pool[rng.index(pool.len())];
        }
        // Graft one of b's flows in.
        5 => {
            if let Some(f) = b.flows.first() {
                if m.flows.len() < 8 {
                    m.flows.push(f.clone());
                }
            }
        }
        // Drop a flow.
        6 => {
            if m.flows.len() > 1 {
                let i = rng.index(m.flows.len());
                m.flows.remove(i);
            }
        }
        // Resize the topology.
        _ => {
            m.hosts = if rng.chance(0.5) { (m.hosts + 1).min(10) } else { m.hosts.saturating_sub(1).max(3) };
        }
    }
    // A mutation may strand a fault plan with a down window and no rules —
    // that is fine; but keep a window's link filter meaningful after host
    // resizing by pinning it to All (index-targeted filters are not in the
    // generator's grammar today).
    for w in &mut m.faults.windows {
        if let Fault::Link(links, _) = &mut w.what {
            *links = LinkFilter::All;
        }
    }
    m
}

/// How a campaign case was produced — reported in `--stats`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CaseOrigin {
    Replay,
    Mutation,
    Random,
}

/// Configuration of one guided (or blind) campaign.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Total case budget, corpus replays included.
    pub cases: usize,
    /// Campaign seed (drives generation and mutation draws).
    pub seed: u64,
    /// Fraction of post-replay cases produced by mutating corpus entries
    /// (the rest are fresh random scenarios). `0.0` — together with an
    /// empty corpus — is the blind baseline.
    pub mutate_fraction: f64,
    /// Worker threads for the parallel check phase.
    pub jobs: usize,
    /// Shrink each distinct failure to its minimal spec (set false to
    /// cheapen pure signature-counting runs).
    pub shrink_failures: bool,
}

/// One distinct failure a campaign found, minimized.
#[derive(Debug, Clone)]
pub struct CampaignFailure {
    /// The scenario as generated.
    pub scenario: Scenario,
    /// Its failure message.
    pub failure: String,
    /// The shrunk scenario (equal to `scenario` when shrinking is off).
    pub minimized: Scenario,
    /// The shrunk scenario's failure message.
    pub minimized_failure: String,
    /// The failing run's novelty signature.
    pub signature: Signature,
}

/// What a campaign did and found.
#[derive(Debug)]
pub struct CampaignOutcome {
    /// Cases actually run (== the configured budget).
    pub cases_run: usize,
    /// Distinct novelty signatures observed *during this campaign*.
    pub distinct_signatures: usize,
    /// Signatures that were new to the corpus and persisted.
    pub new_signatures: usize,
    /// Cases that replayed corpus entries verbatim.
    pub replayed: usize,
    /// Cases produced by mutation.
    pub mutated: usize,
    /// Fresh random cases.
    pub random: usize,
    /// Distinct failures (one per failing signature), minimized.
    pub failures: Vec<CampaignFailure>,
}

/// Batch size of the generate → check → fold loop. Fixed (not derived from
/// `jobs`) so the generation schedule — and therefore the whole campaign —
/// is identical across worker counts.
const BATCH: usize = 32;

/// Run a guided campaign: replay the corpus first (re-deriving its
/// signatures), then alternate corpus mutations with fresh random
/// scenarios, admitting every new signature into the corpus (failures
/// shrunk first). Returns the campaign's stats and distinct failures.
///
/// Deterministic in (`cfg.seed`, corpus contents): identical outcomes for
/// any `cfg.jobs`.
pub fn run_campaign(cfg: &CampaignConfig, corpus: &mut Corpus) -> io::Result<CampaignOutcome> {
    let mut rng = SimRng::seed_from_u64(cfg.seed ^ 0xc0_7b05);
    let mut outcome = CampaignOutcome {
        cases_run: 0,
        distinct_signatures: 0,
        new_signatures: 0,
        replayed: 0,
        mutated: 0,
        random: 0,
        failures: Vec::new(),
    };
    let mut campaign_sigs: BTreeSet<u64> = BTreeSet::new();
    let mut failed_sigs: BTreeSet<u64> = BTreeSet::new();
    // Replay only what the corpus held at campaign start: entries admitted
    // *by this campaign* were just run — replaying them is pure waste (a
    // deterministic re-run reproduces the signature it was admitted for).
    let replay_limit = corpus.len();
    let mut replay_next = 0usize;
    while outcome.cases_run < cfg.cases {
        let n = BATCH.min(cfg.cases - outcome.cases_run);
        // Generation is sequential and draws on the corpus snapshot at
        // batch start; this keeps the schedule independent of how fast the
        // parallel phase below finishes.
        let mut batch: Vec<(Scenario, CaseOrigin)> = Vec::with_capacity(n);
        for _ in 0..n {
            if replay_next < replay_limit {
                batch.push((corpus.entries()[replay_next].clone(), CaseOrigin::Replay));
                replay_next += 1;
            } else if !corpus.is_empty() && rng.chance(cfg.mutate_fraction) {
                let a = corpus.entries()[rng.index(corpus.len())].clone();
                let b = corpus.entries()[rng.index(corpus.len())].clone();
                batch.push((mutate(&mut rng, &a, &b), CaseOrigin::Mutation));
            } else {
                batch.push((Scenario::random(rng.next_u64()), CaseOrigin::Random));
            }
        }
        let runs = par_check(&batch, cfg.jobs);
        // Fold in batch order: corpus admission and failure dedup see
        // results in a deterministic sequence.
        for ((scenario, origin), run) in batch.iter().zip(runs) {
            outcome.cases_run += 1;
            match origin {
                CaseOrigin::Replay => outcome.replayed += 1,
                CaseOrigin::Mutation => outcome.mutated += 1,
                CaseOrigin::Random => outcome.random += 1,
            }
            let sig = Signature::of(scenario, &run);
            campaign_sigs.insert(sig.fingerprint());
            let novel = !corpusknown(corpus, &sig);
            if let Some(failure) = &run.failure {
                if failed_sigs.insert(sig.fingerprint()) {
                    let (minimized, minimized_failure) = if cfg.shrink_failures {
                        shrink(scenario.clone(), &|s| s.check())
                    } else {
                        (scenario.clone(), failure.clone())
                    };
                    if novel {
                        corpus.admit(&sig, &minimized, Some(failure))?;
                        outcome.new_signatures += 1;
                    }
                    outcome.failures.push(CampaignFailure {
                        scenario: scenario.clone(),
                        failure: failure.clone(),
                        minimized,
                        minimized_failure,
                        signature: sig,
                    });
                }
            } else if novel {
                corpus.admit(&sig, scenario, None)?;
                outcome.new_signatures += 1;
            }
        }
    }
    outcome.distinct_signatures = campaign_sigs.len();
    Ok(outcome)
}

/// Whether the corpus has already seen this signature.
fn corpusknown(corpus: &Corpus, sig: &Signature) -> bool {
    corpus.seen.contains(&sig.fingerprint)
}

/// Ordered parallel map over the batch: a shared atomic cursor hands out
/// indices, each worker writes its slot, and the result vector comes back
/// in input order — so folding is deterministic for any worker count.
fn par_check(batch: &[(Scenario, CaseOrigin)], jobs: usize) -> Vec<CheckedRun> {
    let jobs = jobs.max(1).min(batch.len().max(1));
    if jobs <= 1 {
        return batch.iter().map(|(s, _)| s.check_signed()).collect();
    }
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<CheckedRun>>> =
        Mutex::new((0..batch.len()).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= batch.len() {
                    break;
                }
                let run = batch[i].0.check_signed();
                slots.lock().unwrap()[i] = Some(run);
            });
        }
    });
    slots.into_inner().unwrap().into_iter().map(|o| o.expect("every slot filled")).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::Scheme;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("aeolus-corpus-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn signature_is_deterministic_and_scheme_sensitive() {
        let s: Scenario =
            "scheme=homa-aeolus hosts=4 flows=1-0:30000@0 faults=".parse().unwrap();
        let a = Signature::of(&s, &s.check_signed());
        let b = Signature::of(&s, &s.check_signed());
        assert_eq!(a, b, "same scenario, same signature");
        let mut other = s.clone();
        other.scheme = Scheme::Ndp;
        let c = Signature::of(&other, &other.check_signed());
        assert_ne!(a.fingerprint(), c.fingerprint(), "{a} vs {c}");
        assert!(a.text.contains("verdict=pass"), "{a}");
    }

    #[test]
    fn signature_buckets_absorb_small_count_changes() {
        // Two runs whose only difference is a within-bucket count must
        // collapse to one signature: build signals by hand.
        use crate::fuzz::RunSignals;
        let base = RunSignals {
            drops: vec![("buffer_full", "sched", 130)],
            flow_count: 2,
            completed: 2,
            ..RunSignals::default()
        };
        let mut close = base.clone();
        close.drops = vec![("buffer_full", "sched", 140)]; // same log2 bucket
        let s: Scenario = "scheme=ndp hosts=4 flows=none faults=".parse().unwrap();
        let run =
            |sig: RunSignals| CheckedRun { failure: None, signals: Some(sig) };
        assert_eq!(
            Signature::of(&s, &run(base.clone())).fingerprint(),
            Signature::of(&s, &run(close)).fingerprint()
        );
        let mut far = base;
        far.drops = vec![("buffer_full", "sched", 1300)]; // different bucket
        let s2 = Signature::of(&s, &run(far));
        assert_ne!(
            Signature::of(
                &s,
                &CheckedRun {
                    failure: None,
                    signals: Some(RunSignals {
                        drops: vec![("buffer_full", "sched", 130)],
                        flow_count: 2,
                        completed: 2,
                        ..RunSignals::default()
                    })
                }
            )
            .fingerprint(),
            s2.fingerprint()
        );
    }

    #[test]
    fn failure_classes_extract_the_oracle_check_name() {
        assert_eq!(
            failure_class("conformance violation [queue-ledger] at 5 ps: …"),
            "violation:queue-ledger"
        );
        assert_eq!(failure_class("incomplete on a clean network: 0/1 …"), "incomplete");
        assert_eq!(failure_class("flow 1 delivered 5 of 9 bytes on a clean network"), "short-delivery");
        assert_eq!(failure_class("1 of 2 flows hung (neither completed …"), "hung");
        assert_eq!(failure_class("index out of bounds"), "panic");
    }

    #[test]
    fn corpus_round_trips_through_disk() {
        let dir = tmpdir("roundtrip");
        let s: Scenario =
            "scheme=homa-aeolus hosts=4 flows=1-0:30000@0 faults=".parse().unwrap();
        let sig = Signature::of(&s, &s.check_signed());
        {
            let mut c = Corpus::open(&dir).unwrap();
            assert!(c.is_empty());
            assert!(c.admit(&sig, &s, Some("two-line\nfailure")).unwrap());
            assert!(!c.admit(&sig, &s, None).unwrap(), "duplicate signature rejected");
            assert_eq!(c.len(), 1);
        }
        // Reload: same entry, same novelty knowledge, deterministic order.
        let mut c = Corpus::open(&dir).unwrap();
        assert_eq!(c.entries(), std::slice::from_ref(&s));
        assert!(!c.admit(&sig, &s, None).unwrap(), "novelty survives reload");
        // The file is annotated and its stem is the fingerprint.
        let path = dir.join(format!("{:016x}.spec", sig.fingerprint()));
        let text = fs::read_to_string(&path).unwrap();
        assert!(text.starts_with("# sig "), "{text}");
        assert!(text.contains("# failure two-line\n# failure failure\n"), "{text}");
        assert!(text.ends_with(&format!("{s}\n")), "{text}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn mutations_stay_parseable_and_vary() {
        let mut rng = SimRng::seed_from_u64(99);
        let a = Scenario::random(1);
        let b = Scenario::random(2);
        let mut changed = 0;
        for _ in 0..64 {
            let m = mutate(&mut rng, &a, &b);
            let line = m.to_string();
            let back: Scenario = line.parse().unwrap_or_else(|e| panic!("'{line}': {e}"));
            assert_eq!(back, m, "mutant round-trips");
            assert!(m.hosts >= 3 && m.hosts <= 10, "{m}");
            if m != a {
                changed += 1;
            }
        }
        assert!(changed > 32, "mutations mostly change something ({changed}/64)");
    }

    #[test]
    fn campaign_is_deterministic_across_worker_counts() {
        let cfg = |jobs| CampaignConfig {
            cases: 12,
            seed: 7,
            mutate_fraction: 0.5,
            jobs,
            shrink_failures: false,
        };
        let mut c1 = Corpus::in_memory();
        let o1 = run_campaign(&cfg(1), &mut c1).unwrap();
        let mut c4 = Corpus::in_memory();
        let o4 = run_campaign(&cfg(4), &mut c4).unwrap();
        assert_eq!(o1.distinct_signatures, o4.distinct_signatures);
        assert_eq!(o1.new_signatures, o4.new_signatures);
        assert_eq!(o1.replayed, o4.replayed);
        assert_eq!(o1.mutated, o4.mutated);
        assert_eq!(o1.random, o4.random);
        assert_eq!(
            c1.entries().iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            c4.entries().iter().map(|s| s.to_string()).collect::<Vec<_>>(),
            "corpus contents identical across --jobs 1/4"
        );
        assert_eq!(o1.cases_run, 12);
    }

    #[test]
    fn campaign_replays_corpus_before_generating() {
        let mut corpus = Corpus::in_memory();
        let s: Scenario =
            "scheme=homa-aeolus hosts=4 flows=1-0:30000@0 faults=".parse().unwrap();
        let sig = Signature::of(&s, &s.check_signed());
        corpus.admit(&sig, &s, None).unwrap();
        let cfg = CampaignConfig {
            cases: 3,
            seed: 1,
            mutate_fraction: 0.0,
            jobs: 2,
            shrink_failures: false,
        };
        let o = run_campaign(&cfg, &mut corpus).unwrap();
        assert_eq!(o.replayed, 1, "the stored entry replays first");
        assert_eq!(o.replayed + o.mutated + o.random, 3);
        // The replayed entry's signature is already known to the corpus, so
        // it must not be admitted (or persisted) again.
        assert!(o.new_signatures <= 2);
    }

    #[test]
    fn guided_campaign_reaches_more_signatures_than_blind_on_equal_budgets() {
        // Build a seed corpus from a cheap wide scan: distilled distinct
        // behaviors at one case each. On a fresh equal budget, replaying
        // that distillate plus mutations must reach strictly more distinct
        // signatures than blind sampling alone — the acceptance criterion
        // behind `repro fuzz --stats`.
        let scan = CampaignConfig {
            cases: 48,
            seed: 1000,
            mutate_fraction: 0.0,
            jobs: 4,
            shrink_failures: false,
        };
        let mut seeded = Corpus::in_memory();
        run_campaign(&scan, &mut seeded).unwrap();
        let budget = 24;
        let guided_cfg = CampaignConfig {
            cases: budget,
            seed: 2000,
            mutate_fraction: 0.6,
            jobs: 4,
            shrink_failures: false,
        };
        let guided = run_campaign(&guided_cfg, &mut seeded).unwrap();
        let mut blind_corpus = Corpus::in_memory();
        let blind_cfg = CampaignConfig {
            cases: budget,
            seed: 2000,
            mutate_fraction: 0.0,
            jobs: 4,
            shrink_failures: false,
        };
        let blind = run_campaign(&blind_cfg, &mut blind_corpus).unwrap();
        assert!(
            guided.distinct_signatures > blind.distinct_signatures,
            "guided {} vs blind {} distinct signatures on a {budget}-case budget",
            guided.distinct_signatures,
            blind.distinct_signatures
        );
    }

    #[test]
    fn campaign_dedupes_failures_by_signature() {
        // Plant a failing spec in the corpus twice the budget over: the
        // campaign replays it, sees one failing signature, reports exactly
        // one failure (minimized = original since shrinking is off).
        let mut corpus = Corpus::in_memory();
        let fail: Scenario = format!(
            "scheme=ndp hosts=4 flows=1-0:2000@{} faults=",
            8_000_000u64 // far past the horizon → clean-network incompleteness
        )
        .parse()
        .unwrap();
        let run = fail.check_signed();
        assert!(run.failure.is_some(), "planted spec must fail");
        let sig = Signature::of(&fail, &run);
        corpus.admit(&sig, &fail, run.failure.as_deref()).unwrap();
        let cfg = CampaignConfig {
            cases: 2,
            seed: 5,
            mutate_fraction: 1.0,
            jobs: 1,
            shrink_failures: false,
        };
        let o = run_campaign(&cfg, &mut corpus).unwrap();
        let same: Vec<_> =
            o.failures.iter().filter(|f| f.signature.fingerprint() == sig.fingerprint()).collect();
        assert_eq!(same.len(), 1, "one failure per signature");
        assert!(same[0].failure.contains("incomplete"), "{}", same[0].failure);
    }
}
