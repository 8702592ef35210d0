#![warn(missing_docs)]
//! # aeolus — reproduction of "Aeolus: A Building Block for Proactive
//! Transport in Datacenters" (SIGCOMM 2020)
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`sim`] — packet-level discrete-event datacenter simulator (switches,
//!   queue disciplines, links, routing, topologies);
//! * [`core`] — the Aeolus building block (pre-credit burst, selective
//!   dropping, probe-based loss recovery);
//! * [`transport`] — ExpressPass, Homa and NDP, each with and without
//!   Aeolus, plus the paper's oracle and priority-queueing variants;
//! * [`workloads`] — Table 2 flow-size distributions, Poisson arrivals and
//!   incast generators;
//! * [`stats`] — FCT aggregation, percentiles, CDFs, text tables;
//! * [`experiments`] — a runner per paper table/figure (also available as
//!   the `repro` binary).
//!
//! ## Quickstart
//!
//! ```
//! use aeolus::prelude::*;
//!
//! // ExpressPass+Aeolus on the paper's 8-host 10G testbed.
//! let mut h = SchemeBuilder::new(Scheme::ExpressPassAeolus)
//!     .topology(TopoSpec::SingleSwitch { hosts: 8, link: LinkParams::uniform(Rate::gbps(10), us(3)) })
//!     .build();
//! let hosts = h.hosts().to_vec();
//! // 15 KB is under the testbed BDP (~23 KB): it fits in the pre-credit burst.
//! h.schedule(&[FlowDesc { id: FlowId(1), src: hosts[1], dst: hosts[0], size: 15_000, start: 0 }]);
//! assert!(h.run(ms(100)));
//! let fct = h.metrics().flow(FlowId(1)).unwrap().fct().unwrap();
//! assert!(fct < h.params.base_rtt * 3, "a sub-BDP flow finishes within a few RTTs");
//! ```

pub use aeolus_core as core;
pub use aeolus_experiments as experiments;
pub use aeolus_sim as sim;
pub use aeolus_stats as stats;
pub use aeolus_transport as transport;
pub use aeolus_workloads as workloads;

/// Everything needed to run a simulation in one import.
pub mod prelude {
    pub use aeolus_core::AeolusConfig;
    pub use aeolus_sim::topology::LinkParams;
    pub use aeolus_sim::units::{kb, mb, ms, ns, secs, us, Rate, Time};
    pub use aeolus_sim::{
        DropReason, FaultPlan, FlowDesc, FlowId, LinkFilter, Metrics, NodeId, PacketFilter,
    };
    pub use aeolus_stats::{Cdf, FctAggregator, FctSample, Samples, TextTable};
    pub use aeolus_transport::{Harness, Scheme, SchemeBuilder, SchemeParams, TopoSpec};
    pub use aeolus_workloads::{
        incast_round, incast_rounds, mixed_flows, poisson_flows, MixConfig, PoissonConfig,
        Workload,
    };
}
