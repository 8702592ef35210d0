//! Fluent construction of runnable scenarios.
//!
//! [`SchemeBuilder`] is the one way to construct a [`Harness`]: every knob —
//! topology, scheme parameters, fault plan, telemetry tracer — is named,
//! optional knobs have paper defaults, and the tracer changes the harness
//! type statically so `NullTracer` runs carry no overhead.
//!
//! ```
//! use aeolus_transport::{Scheme, SchemeBuilder, TopoSpec};
//! use aeolus_sim::topology::LinkParams;
//! use aeolus_sim::units::us;
//!
//! let mut h = SchemeBuilder::new(Scheme::HomaAeolus)
//!     .topology(TopoSpec::SingleSwitch { hosts: 8, link: LinkParams::uniform(aeolus_sim::Rate::gbps(10), us(3)) })
//!     .build();
//! assert_eq!(h.hosts().len(), 8);
//! assert!(h.run(us(10)));
//! ```

use aeolus_sim::topology::LinkParams;
use aeolus_sim::units::us;
use aeolus_sim::{NullTracer, Tracer};

use crate::harness::{Harness, TopoSpec};
use crate::registry::{Scheme, SchemeParams};

/// Builder for a [`Harness`]: scheme first, everything else by name.
///
/// The type parameter tracks the telemetry tracer ([`NullTracer`] by
/// default); [`SchemeBuilder::tracer`] swaps it statically, so tracing
/// carries zero cost unless requested.
pub struct SchemeBuilder<T: Tracer = NullTracer> {
    scheme: Scheme,
    params: SchemeParams,
    spec: TopoSpec,
    tracer: T,
}

impl SchemeBuilder {
    /// Start building a scenario for `scheme`.
    ///
    /// Defaults: the paper's 8-host 10 Gbps single-switch testbed, paper
    /// [`SchemeParams`] (base RTT derived from the topology), no tracer.
    pub fn new(scheme: Scheme) -> SchemeBuilder {
        SchemeBuilder {
            scheme,
            params: SchemeParams::new(0),
            spec: TopoSpec::SingleSwitch { hosts: 8, link: LinkParams::uniform(aeolus_sim::Rate::gbps(10), us(3)) },
            tracer: NullTracer,
        }
    }
}

impl<T: Tracer> SchemeBuilder<T> {
    /// Replace the scheme parameters wholesale.
    pub fn params(mut self, params: SchemeParams) -> Self {
        self.params = params;
        self
    }

    /// Set the topology to build.
    pub fn topology(mut self, spec: TopoSpec) -> Self {
        self.spec = spec;
        self
    }

    /// Install a wire-level fault plan (corruption loss, link down/degraded
    /// windows) on the built network. An empty plan is the default and adds
    /// no machinery to the run.
    pub fn faults(mut self, plan: aeolus_sim::FaultPlan) -> Self {
        self.params.faults = plan;
        self
    }

    /// Install a telemetry tracer. This changes the harness type: the
    /// default [`NullTracer`] compiles every hook away, while e.g.
    /// [`aeolus_sim::RecordingTracer`] captures typed events.
    pub fn tracer<U: Tracer>(self, tracer: U) -> SchemeBuilder<U> {
        SchemeBuilder { scheme: self.scheme, params: self.params, spec: self.spec, tracer }
    }

    /// Build the harness: topology wired with the scheme's queue
    /// discipline, one endpoint per host, tracer installed on the network.
    ///
    /// Panics if the parameters fail `SchemeParams::validate` (which
    /// includes [`aeolus_core::AeolusConfig::validate`] against the port
    /// buffer) — better a descriptive error at build time than a confusing
    /// one deep inside the simulator.
    pub fn build(self) -> Harness<T> {
        if let Err(e) = self.params.validate() {
            panic!("invalid config for scheme '{}': {e}", self.scheme.name());
        }
        Harness::with_tracer(self.scheme, self.params, self.spec, self.tracer)
    }

    /// Build the harness with the conformance oracle installed: a
    /// [`aeolus_sim::CheckedTracer`] whose protocol-check profile comes from
    /// [`Scheme::oracle_profile`]. The run then panics at the first
    /// invariant-violating event (with event, flow and port context) instead
    /// of laundering the violation into final metrics. Any tracer configured
    /// earlier on this builder is discarded.
    pub fn build_checked(self) -> Harness<aeolus_sim::CheckedTracer> {
        let oracle = aeolus_sim::CheckedTracer::with_profile(self.scheme.oracle_profile());
        self.tracer(oracle).build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeolus_sim::units::ms;
    use aeolus_sim::{FlowDesc, RecordingTracer};

    #[test]
    fn builder_defaults_match_explicit_construction() {
        let explicit = Harness::with_tracer(
            Scheme::HomaAeolus,
            SchemeParams::new(0),
            TopoSpec::SingleSwitch { hosts: 8, link: LinkParams::uniform(aeolus_sim::Rate::gbps(10), us(3)) },
            NullTracer,
        );
        let new = SchemeBuilder::new(Scheme::HomaAeolus).build();
        assert_eq!(explicit.hosts(), new.hosts());
        assert_eq!(explicit.params.base_rtt, new.params.base_rtt);
    }

    #[test]
    #[should_panic(expected = "burst_budget_frac")]
    fn build_rejects_invalid_aeolus_config() {
        let mut p = SchemeParams::new(0);
        p.aeolus.burst_budget_frac = f64::NAN;
        let _ = SchemeBuilder::new(Scheme::ExpressPassAeolus).params(p).build();
    }

    #[test]
    #[should_panic(expected = "drop_threshold")]
    fn build_rejects_physical_buffer_below_threshold() {
        // A threshold above the port buffer used to be clamped silently.
        let mut p = SchemeParams::new(0);
        p.port_buffer = 4_000; // below the 6 KB default drop threshold
        let _ = SchemeBuilder::new(Scheme::ExpressPassAeolus).params(p).build();
    }

    #[test]
    #[should_panic(expected = "mtu_payload")]
    fn build_rejects_zero_mtu() {
        let p = SchemeParams { mtu_payload: 0, ..SchemeParams::new(0) };
        let _ = SchemeBuilder::new(Scheme::ExpressPassAeolus).params(p).build();
    }

    #[test]
    fn faults_knob_reaches_the_network() {
        use aeolus_sim::{FaultPlan, LinkFilter, PacketFilter};
        let plan = FaultPlan::new(7).with_loss(0.5, PacketFilter::Data, LinkFilter::All);
        let h = SchemeBuilder::new(Scheme::HomaAeolus).faults(plan.clone()).build();
        assert_eq!(h.topo.net.fault_plan(), &plan);
        let clean = SchemeBuilder::new(Scheme::HomaAeolus).build();
        assert!(clean.topo.net.fault_plan().is_empty());
    }

    #[test]
    fn tracer_changes_harness_type_and_records() {
        let mut h = SchemeBuilder::new(Scheme::NdpAeolus).tracer(RecordingTracer::new()).build();
        let hosts = h.hosts().to_vec();
        h.schedule(&[FlowDesc {
            id: aeolus_sim::FlowId(1),
            src: hosts[1],
            dst: hosts[0],
            size: 30_000,
            start: 0,
        }]);
        assert!(h.run(ms(10)));
        let tracer = h.topo.net.tracer();
        assert!(tracer.ports().next().is_some(), "ports registered");
        assert!(tracer.ports().any(|(_, p)| p.ring_len() > 0), "queue events recorded");
    }
}
