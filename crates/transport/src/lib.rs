#![warn(missing_docs)]
//! # aeolus-transport — proactive datacenter transports
//!
//! Full implementations of the three proactive transports the Aeolus paper
//! evaluates — ExpressPass (credit-scheduled), Homa (priority/grant-driven)
//! and NDP (trim-and-pull) — each integrable with the Aeolus building block
//! from `aeolus-core`, plus the §2 oracle ("hypothetical") variants and the
//! §5.5 priority-queueing strawman.
//!
//! Use [`Scheme`] to obtain matched (queue discipline, routing policy,
//! endpoint) triples; mixing them across schemes is a configuration error
//! the paper's evaluation never performs.

pub mod builder;
pub mod common;
pub mod corpus;
pub mod dctcp;
pub mod harness;
pub mod expresspass;
pub mod fastpass;
pub mod fuzz;
pub mod homa;
pub mod ndp;
pub mod phost;
mod recovery;
pub mod registry;
#[cfg(test)]
mod stragglers;

pub use builder::SchemeBuilder;
pub use common::{BaseConfig, FirstRttMode};
pub use corpus::{
    mutate, run_campaign, CampaignConfig, CampaignFailure, CampaignOutcome, Corpus, Signature,
};
pub use dctcp::{DctcpConfig, DctcpEndpoint};
pub use harness::{DegradationReport, FlowOutcome, Harness, StuckFlow, TopoSpec};
pub use expresspass::{XPassConfig, XPassEndpoint};
pub use fastpass::{ArbiterEndpoint, FastpassConfig, FastpassEndpoint};
pub use fuzz::{fuzz, shrink, CheckedRun, FlowSpec, FuzzReport, RunSignals, Scenario};
pub use homa::{HomaConfig, HomaEndpoint};
pub use ndp::NdpEndpoint;
pub use phost::{PHostConfig, PHostEndpoint};
pub use registry::{ParseSchemeError, Scheme, SchemeParams};
