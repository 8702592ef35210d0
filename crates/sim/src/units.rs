//! Simulation units: time, data rates and sizes.
//!
//! The simulator clock is a `u64` count of **picoseconds**. At 100 Gbps one
//! bit takes exactly 10 ps to serialize, so every serialization time used by
//! the Aeolus experiments is exact — no rounding drift between schemes.
//! A `u64` of picoseconds covers ~213 days of simulated time, far beyond any
//! experiment horizon.

/// Simulated time in picoseconds since the start of the run.
pub type Time = u64;

/// One nanosecond in [`Time`] units.
pub const PS_PER_NS: Time = 1_000;
/// One microsecond in [`Time`] units.
pub const PS_PER_US: Time = 1_000_000;
/// One millisecond in [`Time`] units.
pub const PS_PER_MS: Time = 1_000_000_000;
/// One second in [`Time`] units.
pub const PS_PER_SEC: Time = 1_000_000_000_000;

/// Convert nanoseconds to [`Time`].
#[inline]
pub const fn ns(v: u64) -> Time {
    v * PS_PER_NS
}

/// Convert microseconds to [`Time`].
#[inline]
pub const fn us(v: u64) -> Time {
    v * PS_PER_US
}

/// Convert milliseconds to [`Time`].
#[inline]
pub const fn ms(v: u64) -> Time {
    v * PS_PER_MS
}

/// Convert seconds to [`Time`].
#[inline]
pub const fn secs(v: u64) -> Time {
    v * PS_PER_SEC
}

/// Format a [`Time`] as a human-readable string (µs with fraction).
pub fn fmt_time(t: Time) -> String {
    format!("{:.3}us", t as f64 / PS_PER_US as f64)
}

/// A link data rate in bits per second.
///
/// Rates are plain integers so serialization times stay exact for the link
/// speeds used in the paper (1/10/25/40/100/400 Gbps).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Rate(pub u64);

impl Rate {
    /// Construct a rate from gigabits per second.
    pub const fn gbps(v: u64) -> Rate {
        Rate(v * 1_000_000_000)
    }

    /// Construct a rate from megabits per second.
    pub const fn mbps(v: u64) -> Rate {
        Rate(v * 1_000_000)
    }

    /// Bits per second.
    #[inline]
    pub const fn bps(self) -> u64 {
        self.0
    }

    /// Time to serialize `bytes` at this rate, rounded up to the next
    /// picosecond so that back-to-back packets never overlap.
    #[inline]
    pub fn serialize(self, bytes: u64) -> Time {
        debug_assert!(self.0 > 0, "serialize on a zero rate");
        // Packet-sized byte counts fit a u64 numerator; the u128 division is
        // a libcall and only needed for multi-megabyte arguments.
        const FITS_U64: u64 = u64::MAX / (8 * PS_PER_SEC);
        if bytes <= FITS_U64 {
            (bytes * 8 * PS_PER_SEC).div_ceil(self.0)
        } else {
            let bits = (bytes as u128) * 8 * (PS_PER_SEC as u128);
            bits.div_ceil(self.0 as u128) as Time
        }
    }

    /// Exact picoseconds per byte, when this rate divides the picosecond
    /// grid evenly (true for every paper rate: 1/10/25/40/100/400 Gbps).
    /// Lets ports replace the per-packet division with one multiply.
    #[inline]
    pub(crate) const fn ps_per_byte(self) -> Option<u64> {
        if self.0 > 0 && (8 * PS_PER_SEC).is_multiple_of(self.0) {
            Some(8 * PS_PER_SEC / self.0)
        } else {
            None
        }
    }

    /// Number of whole bytes this rate can carry in `dt` picoseconds.
    #[inline]
    pub fn bytes_in(self, dt: Time) -> u64 {
        ((self.0 as u128 * dt as u128) / (8 * PS_PER_SEC as u128)) as u64
    }

    /// Scale the rate by a ratio `num/den` (used for credit throttling).
    #[inline]
    pub fn scale(self, num: u64, den: u64) -> Rate {
        Rate((self.0 as u128 * num as u128 / den as u128) as u64)
    }
}

/// Kilobytes to bytes.
#[inline]
pub const fn kb(v: u64) -> u64 {
    v * 1_000
}

/// Megabytes to bytes.
#[inline]
pub const fn mb(v: u64) -> u64 {
    v * 1_000_000
}

/// Bandwidth-delay product in bytes for a rate and a round-trip time.
#[inline]
pub fn bdp_bytes(rate: Rate, rtt: Time) -> u64 {
    rate.bytes_in(rtt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_is_exact_at_100g() {
        let r = Rate::gbps(100);
        // 1500 B * 8 = 12000 bits, 10 ps/bit -> 120 ns.
        assert_eq!(r.serialize(1500), 120 * PS_PER_NS);
        // 64 B probe -> 5.12 ns.
        assert_eq!(r.serialize(64), 5_120);
    }

    #[test]
    fn serialization_is_exact_at_10g() {
        let r = Rate::gbps(10);
        assert_eq!(r.serialize(1500), 1_200 * PS_PER_NS);
    }

    #[test]
    fn serialization_rounds_up() {
        // 3 bits/s carries 1 byte in ceil(8e12/3) ps.
        let r = Rate(3);
        assert_eq!(r.serialize(1), (8 * PS_PER_SEC).div_ceil(3));
    }

    #[test]
    fn serialize_u64_and_u128_paths_agree() {
        let boundary = u64::MAX / (8 * PS_PER_SEC);
        for rate in [Rate(3), Rate(7), Rate::gbps(10), Rate::gbps(100), Rate::mbps(123)] {
            for bytes in [boundary, boundary + 1, boundary + 12345] {
                let wide =
                    ((bytes as u128) * 8 * (PS_PER_SEC as u128)).div_ceil(rate.0 as u128) as Time;
                assert_eq!(rate.serialize(bytes), wide, "rate {rate:?} bytes {bytes}");
            }
        }
    }

    #[test]
    fn ps_per_byte_exact_for_paper_rates() {
        for (g, ppb) in [(1, 8000), (10, 800), (25, 320), (40, 200), (100, 80), (400, 20)] {
            assert_eq!(Rate::gbps(g).ps_per_byte(), Some(ppb));
            assert_eq!(Rate::gbps(g).serialize(1500), 1500 * ppb);
        }
        // 3 bits/s does not divide the picosecond grid.
        assert_eq!(Rate(3).ps_per_byte(), None);
    }

    #[test]
    fn bytes_in_inverts_serialize() {
        let r = Rate::gbps(100);
        let t = r.serialize(1500);
        assert_eq!(r.bytes_in(t), 1500);
        // A hair less time fits one byte less.
        assert_eq!(r.bytes_in(t - 1), 1499);
    }

    #[test]
    fn bdp_matches_hand_computation() {
        // 100 Gbps * 4.5 us = 56.25 KB.
        assert_eq!(bdp_bytes(Rate::gbps(100), us(4) + 500 * PS_PER_NS), 56_250);
    }

    #[test]
    fn rate_scaling() {
        assert_eq!(Rate::gbps(100).scale(1, 20), Rate::gbps(5));
    }

    #[test]
    fn unit_helpers() {
        assert_eq!(us(1), 1_000_000);
        assert_eq!(ms(1), 1_000 * us(1));
        assert_eq!(secs(1), 1_000 * ms(1));
        assert_eq!(kb(100), 100_000);
        assert_eq!(mb(2), 2_000_000);
    }
}
