//! Flow-completion-time aggregation and slowdown.

use crate::percentile::Samples;

/// Picoseconds per microsecond (mirrors `aeolus-sim`'s clock without a
/// dependency edge — this crate is simulator-agnostic).
pub const PS_PER_US: f64 = 1e6;

/// One finished flow, as fed to the aggregators.
#[derive(Debug, Clone, Copy)]
pub struct FctSample {
    /// Flow size in bytes.
    pub size: u64,
    /// Completion time in picoseconds.
    pub fct_ps: u64,
    /// Ideal (unloaded) completion time in picoseconds, for slowdown.
    pub ideal_ps: u64,
}

impl FctSample {
    /// FCT normalized by the flow's ideal FCT ("slowdown"), ≥ 1 in a causal
    /// simulation.
    pub fn slowdown(&self) -> f64 {
        if self.ideal_ps == 0 {
            return 1.0;
        }
        self.fct_ps as f64 / self.ideal_ps as f64
    }
}

/// Summary statistics for a set of flows (one paper figure series).
#[derive(Debug, Clone)]
pub struct FctSummary {
    /// Number of flows aggregated.
    pub count: usize,
    /// Mean FCT in µs.
    pub mean_us: f64,
    /// Median FCT in µs.
    pub p50_us: f64,
    /// 99th percentile FCT in µs.
    pub p99_us: f64,
    /// 99.9th percentile FCT in µs.
    pub p999_us: f64,
    /// Maximum FCT in µs.
    pub max_us: f64,
    /// 99th-percentile slowdown.
    pub p99_slowdown: f64,
}

/// Aggregates [`FctSample`]s, with size-band filtering to match the paper's
/// "0–100KB" / "100KB–1MB" / ">1MB" groupings.
#[derive(Debug, Default, Clone)]
pub struct FctAggregator {
    samples: Vec<FctSample>,
}

impl FctAggregator {
    /// Empty aggregator.
    pub fn new() -> FctAggregator {
        FctAggregator::default()
    }

    /// Add one finished flow.
    pub fn push(&mut self, s: FctSample) {
        self.samples.push(s);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// All samples.
    pub fn samples(&self) -> &[FctSample] {
        &self.samples
    }

    /// Samples with `lo <= size < hi` (use `u64::MAX` for an open band).
    pub fn band(&self, lo: u64, hi: u64) -> FctAggregator {
        FctAggregator {
            samples: self.samples.iter().copied().filter(|s| s.size >= lo && s.size < hi).collect(),
        }
    }

    /// FCT values in µs.
    pub fn fct_us(&self) -> Samples {
        Samples::from_vec(self.samples.iter().map(|s| s.fct_ps as f64 / PS_PER_US).collect())
    }

    /// Slowdown values.
    pub fn slowdowns(&self) -> Samples {
        Samples::from_vec(self.samples.iter().map(|s| s.slowdown()).collect())
    }

    /// Full summary.
    pub fn summary(&self) -> FctSummary {
        let mut fct = self.fct_us();
        let mut slow = self.slowdowns();
        FctSummary {
            count: self.samples.len(),
            mean_us: fct.mean(),
            p50_us: fct.percentile(50.0),
            p99_us: fct.percentile(99.0),
            p999_us: fct.percentile(99.9),
            max_us: fct.max(),
            p99_slowdown: slow.percentile(99.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(size: u64, fct_us: f64) -> FctSample {
        FctSample {
            size,
            fct_ps: (fct_us * PS_PER_US) as u64,
            ideal_ps: (0.5 * PS_PER_US) as u64,
        }
    }

    #[test]
    fn banding_filters_by_size() {
        let mut agg = FctAggregator::new();
        agg.push(sample(50_000, 1.0));
        agg.push(sample(500_000, 2.0));
        agg.push(sample(5_000_000, 3.0));
        assert_eq!(agg.band(0, 100_000).len(), 1);
        assert_eq!(agg.band(100_000, 1_000_000).len(), 1);
        assert_eq!(agg.band(1_000_000, u64::MAX).len(), 1);
        assert_eq!(agg.band(0, u64::MAX).len(), 3);
    }

    #[test]
    fn summary_matches_hand_computation() {
        let mut agg = FctAggregator::new();
        for f in [1.0, 2.0, 3.0, 4.0] {
            agg.push(sample(1000, f));
        }
        let s = agg.summary();
        assert_eq!(s.count, 4);
        assert!((s.mean_us - 2.5).abs() < 1e-9);
        assert_eq!(s.p50_us, 2.0);
        assert_eq!(s.max_us, 4.0);
        // slowdown of the 4 µs flow over the 0.5 µs ideal.
        assert!((s.p99_slowdown - 8.0).abs() < 1e-9);
    }

    #[test]
    fn slowdown_is_one_when_ideal_unknown() {
        let s = FctSample { size: 1, fct_ps: 100, ideal_ps: 0 };
        assert_eq!(s.slowdown(), 1.0);
    }
}
