//! Aeolus configuration.

use aeolus_sim::bdp_bytes;
use aeolus_sim::units::{Rate, Time};

/// The three knobs of the Aeolus building block. Everything else a run
/// needs — MTU, port buffer, the first-RTT mode and its RTO — belongs to the
/// transport that hosts the block.
#[derive(Debug, Clone, Copy)]
pub struct AeolusConfig {
    /// Selective-dropping threshold at switches, bytes (paper default 6 KB).
    pub drop_threshold: u64,
    /// §6 resilience extension: if the sender has heard *nothing* back (no
    /// credit/grant/pull, no ACK, no probe ACK) for this many base RTTs, it
    /// retransmits its request and probe — covering the extreme case where
    /// even the probe was dropped. 0 disables the retry.
    pub probe_retry_rtts: u32,
    /// Ablation knob: pre-credit burst budget as a fraction of the BDP
    /// (1.0 = the paper's one-BDP burst).
    pub burst_budget_frac: f64,
}

impl Default for AeolusConfig {
    fn default() -> Self {
        AeolusConfig { drop_threshold: 6_000, probe_retry_rtts: 20, burst_budget_frac: 1.0 }
    }
}

impl AeolusConfig {
    /// Bytes a new flow may burst pre-credit: one bandwidth-delay product of
    /// the host link (§3.1 "a BDP worth of unscheduled packets at line-rate"),
    /// never less than one `mtu_payload` packet.
    pub fn burst_budget(&self, line_rate: Rate, base_rtt: Time, mtu_payload: u32) -> u64 {
        let bdp = bdp_bytes(line_rate, base_rtt) as f64 * self.burst_budget_frac;
        (bdp as u64).max(mtu_payload as u64)
    }

    /// Reject nonsensical knobs with a descriptive error, against the
    /// physical `port_buffer` the run's switches use: a threshold above it
    /// would mean selective dropping never engages before the buffer
    /// overflows.
    pub fn validate(&self, port_buffer: u64) -> Result<(), String> {
        if self.drop_threshold > port_buffer {
            return Err(format!(
                "drop_threshold ({} B) exceeds port_buffer ({} B): selective dropping \
                 would never engage before the buffer overflows",
                self.drop_threshold, port_buffer
            ));
        }
        if !self.burst_budget_frac.is_finite() || self.burst_budget_frac < 0.0 {
            return Err(format!(
                "burst_budget_frac ({}) must be a finite value >= 0",
                self.burst_budget_frac
            ));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeolus_sim::units::us;

    #[test]
    fn defaults_match_paper() {
        let AeolusConfig { drop_threshold, probe_retry_rtts, burst_budget_frac } =
            AeolusConfig::default();
        assert_eq!(drop_threshold, 6_000, "6 KB = 4 packets");
        assert_eq!(probe_retry_rtts, 20);
        assert_eq!(burst_budget_frac, 1.0, "one BDP");
    }

    #[test]
    fn validate_accepts_the_paper_defaults() {
        assert_eq!(AeolusConfig::default().validate(200_000), Ok(()));
    }

    #[test]
    fn validate_rejects_threshold_above_buffer() {
        let c = AeolusConfig { drop_threshold: 300_000, ..Default::default() };
        let err = c.validate(200_000).unwrap_err();
        assert!(err.contains("drop_threshold"), "unhelpful error: {err}");
        assert!(err.contains("port_buffer"));
    }

    #[test]
    fn validate_rejects_bad_burst_fraction() {
        let c = AeolusConfig { burst_budget_frac: -0.5, ..Default::default() };
        assert!(c.validate(200_000).unwrap_err().contains("burst_budget_frac"));
        let c = AeolusConfig { burst_budget_frac: f64::NAN, ..Default::default() };
        assert!(c.validate(200_000).is_err());
        let c = AeolusConfig { burst_budget_frac: 0.0, ..Default::default() };
        assert_eq!(c.validate(200_000), Ok(()), "0 bursts one MTU");
    }

    #[test]
    fn burst_budget_is_bdp() {
        let c = AeolusConfig::default();
        // 100 Gbps x 4.5 us = 56.25 KB.
        assert_eq!(c.burst_budget(Rate::gbps(100), us(4) + 500_000, 1_460), 56_250);
        // Never below one MTU, so tiny-RTT topologies still burst something.
        assert_eq!(c.burst_budget(Rate::mbps(1), us(1), 1_460), 1_460);
    }
}
