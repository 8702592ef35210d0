#![warn(missing_docs)]
//! # aeolus-core — the Aeolus building block (SIGCOMM 2020)
//!
//! Protocol-agnostic implementation of the paper's three mechanisms and its
//! one switch knob, plugged unchanged into each transport's credit loop:
//!
//! 1. **Minimal pre-credit rate control** ([`PreCreditSender`]): a new flow
//!    bursts one BDP of *unscheduled* packets at line rate, then switches to
//!    purely credit-induced transmission the moment the first credit arrives.
//! 2. **Selective dropping / scheduled-packet-first**: one FIFO queue per
//!    switch port, RED/ECN re-interpreted so Non-ECT (unscheduled) packets
//!    drop above a tiny threshold ([`AeolusConfig::drop_threshold`], 6 KB)
//!    while ECT (scheduled) packets are merely marked. The switch half is a
//!    commodity `RedEcnQueue`, which `aeolus-transport`'s `Scheme::make_queue`
//!    builds at that threshold; the host half is the ECN field, which
//!    `Packet::data` derives from the traffic class and the transport's
//!    `FirstRttMode::stamp_unscheduled` sets for its first-RTT mode.
//! 3. **Probe-based loss recovery**: per-packet ACKs on unscheduled data,
//!    a 64 B probe after the burst, and retransmission of detected losses
//!    exactly once via guaranteed scheduled packets, in the priority order
//!    *lost unscheduled > unsent scheduled > unacked unscheduled*. The
//!    receiver's half is one ledger per flow ([`PreCreditReceiver`]).
//!
//! The `aeolus-transport` crate wires these pieces into ExpressPass, Homa,
//! NDP, pHost and Fastpass.

pub mod config;
pub mod receiver;
pub mod sender;

pub use config::AeolusConfig;
pub use receiver::PreCreditReceiver;
pub use sender::{Chunk, PreCreditSender};
