//! Egress ports: a queue discipline feeding a link.

use crate::event::Place;
use crate::packet::NodeId;
use crate::queues::Queue;
use crate::units::{Rate, Time};

/// A point-to-point link leaving an egress port.
#[derive(Debug, Clone, Copy)]
pub struct Link {
    /// Line rate.
    pub rate: Rate,
    /// Propagation delay.
    pub delay: Time,
    /// Node at the far end.
    pub to: NodeId,
}

/// Per-port statistics, updated by the network engine.
#[derive(Debug, Default, Clone)]
pub struct PortStats {
    /// Total wire bytes transmitted.
    pub bytes_tx: u64,
    /// Data payload bytes transmitted.
    pub payload_tx: u64,
    /// Maximum queue occupancy observed (bytes).
    pub qlen_max: u64,
    /// Time-weighted integral of queue occupancy (byte·ps), for averages.
    pub qlen_integral: u128,
    /// Last time the queue occupancy changed.
    pub qlen_last_change: Time,
    /// Packets killed on the wire by fault injection (corruption or a link
    /// going down mid-serialization) — always 0 without a fault plan.
    pub fault_kills: u64,
}

impl PortStats {
    /// Account a queue-occupancy change at `now`: `prev_bytes` is the
    /// occupancy the queue held from the last change until `now`, i.e. the
    /// value before this change.
    pub(crate) fn on_qlen_change(&mut self, prev_bytes: u64, now: Time) {
        let dt = now.saturating_sub(self.qlen_last_change);
        self.qlen_integral += prev_bytes as u128 * dt as u128;
        self.qlen_last_change = now;
    }

    /// Record the new occupancy for the max tracker.
    pub(crate) fn observe_qlen(&mut self, bytes: u64) {
        self.qlen_max = self.qlen_max.max(bytes);
    }

    /// Average queue length in bytes over `[0, horizon]`.
    pub fn avg_qlen(&self, horizon: Time) -> f64 {
        if horizon == 0 {
            return 0.0;
        }
        self.qlen_integral as f64 / horizon as f64
    }
}

/// An egress port: queue + link + transmitter state.
pub struct Port {
    /// The attached link.
    pub link: Link,
    /// Exact serialization cost in ps/byte when the line rate divides the
    /// picosecond grid (all paper rates do); 0 = fall back to the division.
    pub ser_ps_per_byte: u64,
    /// The queue discipline, held inline: the engine reads its occupancy on
    /// every enqueue and dequeue, and this keeps that a read of the port.
    pub queue: Queue,
    /// The place in the event order at which the transmitter frees: it is
    /// serializing a packet until the run passes this place, idle after.
    /// Reserved at every transmission, where the `PortFree` event would
    /// have been scheduled.
    pub(crate) free: Place,
    /// Whether a `PortFree` event has been queued at `free`. That happens
    /// only once a packet waits behind the wire; a transmitter that frees
    /// onto an empty queue needs no event to tell it so.
    pub(crate) free_armed: bool,
    /// Pending pacing kick, if any (dedupes `PortKick` events).
    pub kick_at: Option<Time>,
    /// Statistics.
    pub stats: PortStats,
}

impl Port {
    /// A port transmitting through `link` with the given discipline.
    pub fn new(link: Link, queue: impl Into<Queue>) -> Port {
        Port {
            link,
            ser_ps_per_byte: link.rate.ps_per_byte().unwrap_or(0),
            queue: queue.into(),
            free: Place::START,
            free_armed: false,
            kick_at: None,
            stats: PortStats::default(),
        }
    }

    /// Serialization time of `bytes` on this port's link: one multiply on the
    /// exact-rate fast path, identical to [`Rate::serialize`] by construction.
    #[inline]
    pub fn serialize(&self, bytes: u64) -> Time {
        if self.ser_ps_per_byte != 0 {
            self.ser_ps_per_byte * bytes
        } else {
            self.link.rate.serialize(bytes)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn qlen_integral_accumulates_time_weighted() {
        let mut s = PortStats::default();
        // Queue at 1000 B from t=0 to t=10, then 0.
        s.on_qlen_change(0, 0);
        s.observe_qlen(1000);
        s.on_qlen_change(1000, 10);
        s.observe_qlen(0);
        assert_eq!(s.qlen_integral, 10_000);
        assert_eq!(s.qlen_max, 1000);
        assert!((s.avg_qlen(10) - 1000.0).abs() < 1e-9);
    }
}
