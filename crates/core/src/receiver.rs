//! Receiver-side Aeolus state for one flow: the receive ledger every
//! transport books its data into — duplicate suppression, message-size
//! learning, and delivery of unique bytes into the run metrics.

use aeolus_sim::{Ctx, Packet, RangeSet};

/// Per-flow receive ledger: which bytes of the message have arrived.
#[derive(Debug, Default)]
pub struct PreCreditReceiver {
    /// Message size, learned from the first packet/probe header that
    /// arrives (Data/Request/Probe all carry `flow_size`).
    size: Option<u64>,
    received: RangeSet,
    completed: bool,
}

impl PreCreditReceiver {
    /// Note the flow size from any header that carries it.
    pub fn learn_size(&mut self, size: u64) {
        if size > 0 {
            match self.size {
                None => self.size = Some(size),
                Some(s) => debug_assert_eq!(s, size, "inconsistent flow size"),
            }
        }
    }

    /// Book a data packet: its bytes not seen before are delivered into
    /// `ctx.metrics`. Returns whether this packet completed the message —
    /// true once per flow, never again on duplicates.
    pub fn on_data(&mut self, pkt: &Packet, ctx: &mut Ctx<'_>) -> bool {
        let (new_bytes, completed) = self.record(pkt);
        if new_bytes > 0 {
            ctx.metrics.deliver(pkt.flow, new_bytes, ctx.now);
        }
        completed
    }

    /// The ledger half of [`Self::on_data`]: (new bytes, completed).
    fn record(&mut self, pkt: &Packet) -> (u64, bool) {
        debug_assert!(pkt.is_data());
        self.learn_size(pkt.flow_size);
        let new_bytes = self.received.insert(pkt.seq, pkt.seq + pkt.payload as u64);
        let completed = !self.completed && self.is_complete();
        self.completed |= completed;
        (new_bytes, completed)
    }

    /// Whether the full message has arrived.
    pub fn is_complete(&self) -> bool {
        self.size.is_some_and(|s| self.received.covered() >= s)
    }

    /// Message size if known.
    pub fn size(&self) -> Option<u64> {
        self.size
    }

    /// Bytes still missing (None until the size is known).
    pub fn remaining(&self) -> Option<u64> {
        self.size.map(|s| s.saturating_sub(self.received.covered()))
    }

    /// Missing ranges below `upto` (for Homa RESEND requests).
    pub fn missing_below(&self, upto: u64) -> Vec<(u64, u64)> {
        self.received.gaps(upto)
    }

    /// Bytes received within `[0, upto)` — used with a probe's sequence
    /// number to compute exactly how many burst bytes were dropped.
    pub fn received_below(&self, upto: u64) -> u64 {
        self.received.covered_in(0, upto)
    }

    /// End of the in-order prefix: a cumulative ACK point.
    pub fn contiguous_prefix(&self) -> u64 {
        self.received.contiguous_prefix()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeolus_sim::{FlowId, NodeId, TrafficClass};

    fn data(seq: u64, len: u32, size: u64) -> Packet {
        Packet::data(FlowId(1), NodeId(0), NodeId(1), seq, len, TrafficClass::Unscheduled, size)
    }

    #[test]
    fn duplicates_add_no_bytes() {
        let mut r = PreCreditReceiver::default();
        assert_eq!(r.record(&data(0, 1000, 3000)), (1000, false));
        assert_eq!(r.record(&data(0, 1000, 3000)), (0, false));
        assert_eq!(r.remaining(), Some(2000));
    }

    #[test]
    fn completion_fires_exactly_once() {
        let mut r = PreCreditReceiver::default();
        r.record(&data(0, 1000, 2000));
        assert_eq!(r.record(&data(1000, 1000, 2000)), (1000, true));
        assert_eq!(r.record(&data(1000, 1000, 2000)), (0, false), "no re-fire on duplicates");
        assert!(r.is_complete());
    }

    #[test]
    fn size_learned_from_probe_when_all_data_dropped() {
        let mut r = PreCreditReceiver::default();
        assert!(!r.is_complete());
        assert_eq!(r.remaining(), None);
        r.learn_size(5000); // the probe's header
        assert_eq!(r.size(), Some(5000));
        assert_eq!(r.remaining(), Some(5000));
    }

    #[test]
    fn missing_ranges_reported_for_resend() {
        let mut r = PreCreditReceiver::default();
        r.record(&data(0, 1000, 5000));
        r.record(&data(2000, 1000, 5000));
        assert_eq!(r.missing_below(4000), vec![(1000, 2000), (3000, 4000)]);
        assert_eq!(r.received_below(2500), 1500);
    }

    #[test]
    fn cumulative_ack_point_stops_at_the_first_gap() {
        let mut r = PreCreditReceiver::default();
        r.record(&data(2000, 1000, 5000));
        assert_eq!(r.contiguous_prefix(), 0);
        r.record(&data(0, 1000, 5000));
        assert_eq!(r.contiguous_prefix(), 1000);
        r.record(&data(1000, 1000, 5000));
        assert_eq!(r.contiguous_prefix(), 3000, "filling the gap jumps past buffered bytes");
    }
}
