//! Scenario harness: build a topology wired for a [`Scheme`], install
//! endpoints, schedule flows and run — the shared front door for integration
//! tests, examples and every experiment runner.

use std::fmt;

use aeolus_sim::topology::{
    fat_tree_with, leaf_spine_with, single_switch_with, LinkParams, Topology,
};
use aeolus_sim::units::Time;
use aeolus_sim::{
    AbortCause, FaultPlan, FlowDesc, FlowId, Metrics, Network, NodeId, NullTracer, Tracer,
};

use crate::registry::{Scheme, SchemeParams};

/// Which topology to build (the paper's three families).
#[derive(Debug, Clone, Copy)]
pub enum TopoSpec {
    /// `hosts` servers on one switch (testbed / microbenchmarks).
    SingleSwitch {
        /// Number of hosts.
        hosts: usize,
        /// Link parameters.
        link: LinkParams,
    },
    /// Two-tier leaf-spine.
    LeafSpine {
        /// Spine switch count.
        spines: usize,
        /// Leaf switch count.
        leaves: usize,
        /// Hosts per leaf.
        hosts_per_leaf: usize,
        /// Link parameters.
        link: LinkParams,
    },
    /// Three-tier oversubscribed fat-tree (ExpressPass paper shape).
    FatTree {
        /// Spine switch count.
        spines: usize,
        /// Pod count.
        pods: usize,
        /// ToRs per pod.
        tors_per_pod: usize,
        /// Aggregation switches per pod.
        aggs_per_pod: usize,
        /// Hosts per ToR.
        hosts_per_tor: usize,
        /// Link parameters.
        link: LinkParams,
    },
}

/// A runnable scenario: topology + scheme + endpoints.
///
/// Generic over the telemetry [`Tracer`]; the default [`NullTracer`]
/// compiles every trace hook away.
pub struct Harness<T: Tracer = NullTracer> {
    /// The built topology (network inside).
    pub topo: Topology<T>,
    /// The scheme under test.
    pub scheme: Scheme,
    /// The resolved parameters (base RTT filled from the topology).
    pub params: SchemeParams,
}

/// One flow the watchdog found incomplete at its horizon, with enough state
/// to tell a hung recovery loop from a merely slow transfer.
#[derive(Debug, Clone)]
pub struct StuckFlow {
    /// The flow's id.
    pub id: FlowId,
    /// Sending host.
    pub src: NodeId,
    /// Receiving host.
    pub dst: NodeId,
    /// Bytes the flow was supposed to move.
    pub size: u64,
    /// Unique payload bytes actually delivered.
    pub delivered: u64,
    /// Retransmission timeouts the flow suffered.
    pub timeouts: u32,
    /// Payload bytes retransmitted.
    pub retransmitted: u64,
}

impl fmt::Display for StuckFlow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "flow {} {}->{}: {}/{} B delivered, {} timeouts, {} B retransmitted{}",
            self.id.0,
            self.src.0,
            self.dst.0,
            self.delivered,
            self.size,
            self.timeouts,
            self.retransmitted,
            if self.delivered == 0 { " (never got a byte through)" } else { "" },
        )
    }
}

/// Terminal state of one flow after a (possibly fault-injected) run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowOutcome {
    /// Delivered every byte without ever being aborted or restarted.
    Completed,
    /// Delivered every byte, but only after this many crash-triggered
    /// restarts (the FCT spans the outage).
    Restarted(u32),
    /// Terminated without delivering: the engine or transport gave up with
    /// an explicit cause. Graceful — the flow is settled, not stuck.
    Aborted(AbortCause),
    /// Neither completed nor aborted at the horizon: a hung recovery loop.
    /// The one outcome the hardening forbids.
    Hung,
}

/// Per-flow degradation ledger from [`Harness::run_degradation`]: how each
/// flow ended under faults. "Graceful degradation" means every flow is
/// settled — completed (perhaps after restarts) or aborted with a cause —
/// and none are [`FlowOutcome::Hung`].
#[derive(Debug, Clone)]
pub struct DegradationReport {
    /// Every flow's outcome, in flow-id order.
    pub flows: Vec<(FlowId, FlowOutcome)>,
    /// Stuck-state diagnostics for each hung flow (empty when graceful).
    pub stuck: Vec<StuckFlow>,
}

impl DegradationReport {
    /// Flows that completed cleanly (no restart).
    pub fn completed(&self) -> usize {
        self.flows.iter().filter(|(_, o)| *o == FlowOutcome::Completed).count()
    }

    /// Flows that completed after one or more restarts.
    pub fn restarted(&self) -> usize {
        self.flows.iter().filter(|(_, o)| matches!(o, FlowOutcome::Restarted(_))).count()
    }

    /// Flows that ended aborted with the given cause.
    pub fn aborted_with(&self, cause: AbortCause) -> usize {
        self.flows.iter().filter(|(_, o)| *o == FlowOutcome::Aborted(cause)).count()
    }

    /// Flows that ended aborted, any cause.
    pub fn aborted(&self) -> usize {
        self.flows.iter().filter(|(_, o)| matches!(o, FlowOutcome::Aborted(_))).count()
    }

    /// Flows that hung: neither completed nor aborted.
    pub fn hung(&self) -> usize {
        self.flows.iter().filter(|(_, o)| *o == FlowOutcome::Hung).count()
    }

    /// The graceful-degradation predicate: every flow settled.
    pub(crate) fn is_graceful(&self) -> bool {
        self.hung() == 0
    }
}

impl fmt::Display for DegradationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "degradation: {} flows — {} completed, {} restarted-then-completed, {} aborted",
            self.flows.len(),
            self.completed(),
            self.restarted(),
            self.aborted(),
        )?;
        if self.aborted() > 0 {
            let mut first = true;
            for cause in [AbortCause::NodeCrash, AbortCause::ArbiterOutage, AbortCause::PeerSilent] {
                let n = self.aborted_with(cause);
                if n > 0 {
                    write!(f, "{}{} {}", if first { " (" } else { ", " }, n, cause.as_str())?;
                    first = false;
                }
            }
            write!(f, ")")?;
        }
        writeln!(f, ", {} hung", self.hung())?;
        for s in &self.stuck {
            writeln!(f, "  HUNG {s}")?;
        }
        Ok(())
    }
}

impl std::error::Error for DegradationReport {}

impl<T: Tracer> Harness<T> {
    /// [`crate::SchemeBuilder::build`]'s engine: build the scheme's topology with
    /// `tracer` installed on the network, wire every port with the scheme's
    /// queue discipline and install one endpoint per host.
    ///
    /// `params.base_rtt` is overwritten with the topology's base RTT unless
    /// it was already set to a non-zero value by the caller.
    pub(crate) fn with_tracer(
        scheme: Scheme,
        mut params: SchemeParams,
        spec: TopoSpec,
        tracer: T,
    ) -> Harness<T> {
        // One live shared-buffer pool per harness, handed to every port's
        // queue factory (configs carry only the capacity).
        let pool = params.shared_pool.map(aeolus_sim::SharedPool::new);
        let qf = |rate, role| scheme.make_queue(&params, rate, role, pool.as_ref());
        let mut topo = match spec {
            TopoSpec::SingleSwitch { hosts, mut link } => {
                link.policy = scheme.route_policy();
                single_switch_with(tracer, hosts, link, &qf)
            }
            TopoSpec::LeafSpine { spines, leaves, hosts_per_leaf, mut link } => {
                link.policy = scheme.route_policy();
                leaf_spine_with(tracer, spines, leaves, hosts_per_leaf, link, &qf)
            }
            TopoSpec::FatTree { spines, pods, tors_per_pod, aggs_per_pod, hosts_per_tor, mut link } => {
                link.policy = scheme.route_policy();
                fat_tree_with(tracer, spines, pods, tors_per_pod, aggs_per_pod, hosts_per_tor, link, &qf)
            }
        };
        if params.base_rtt == 0 {
            // Base RTT plus a few serialization times so BDP bursts are not
            // undersized on short-haul topologies.
            let ser_slack = 4 * topo.host_rate.serialize((params.mtu_payload + 40) as u64);
            params.base_rtt = topo.base_rtt + ser_slack;
        }
        if scheme.needs_arbiter() {
            // Reserve the last host as the centralized arbiter; it is
            // removed from `hosts()` so workloads never touch it.
            let arbiter = topo.hosts.pop().expect("topology needs ≥2 hosts for an arbiter");
            params.arbiter = Some(arbiter);
            topo.net.set_endpoint(arbiter, scheme.make_arbiter(&params));
        }
        let hosts = topo.hosts.clone();
        for h in hosts {
            topo.net.set_endpoint(h, scheme.make_endpoint(&params));
        }
        let mut h = Harness { topo, scheme, params };
        let plan = h.params.faults.clone();
        h.install_faults(&plan);
        h
    }

    /// Install `plan` on the network — the one place a fault plan meets a
    /// topology. Its symbols (`crash=i`, `arbiter=`, `partition=`) are bound
    /// here because only the harness knows both the workload host list
    /// (arbiter already excluded) and whether the scheme has an arbiter
    /// host to take down or a distributed credit source to black out.
    ///
    /// [`SchemeBuilder::faults`](crate::SchemeBuilder::faults) ends up here
    /// at build time; call it directly only when the plan must go in after
    /// a scheduler swap, which needs an empty event queue.
    pub fn install_faults(&mut self, plan: &FaultPlan) {
        self.topo.net.set_fault_plan(plan, &self.topo.hosts, self.params.arbiter);
    }

    /// All host node ids.
    pub fn hosts(&self) -> &[NodeId] {
        &self.topo.hosts
    }

    /// Schedule flows for execution.
    pub fn schedule(&mut self, flows: &[FlowDesc]) {
        for f in flows {
            self.topo.net.schedule_flow(*f);
        }
    }

    /// Run until all flows complete or `horizon`; returns completion status.
    pub fn run(&mut self, horizon: Time) -> bool {
        self.topo.net.run_to_completion(horizon)
    }

    /// Run to the horizon and classify every flow's terminal state. `Err`
    /// iff any flow is [`FlowOutcome::Hung`] — completed, restarted and
    /// cleanly-aborted flows are all graceful degradation; a hang never is.
    /// Its report lists each hung flow's stuck state, so a hung recovery
    /// loop fails loudly with enough context to debug it.
    pub fn run_degradation(&mut self, horizon: Time) -> Result<DegradationReport, DegradationReport> {
        self.run(horizon);
        let mut flows = Vec::new();
        let mut stuck = Vec::new();
        for r in self.metrics().flows() {
            let outcome = if r.completed_at.is_some() {
                if r.restarts > 0 { FlowOutcome::Restarted(r.restarts) } else { FlowOutcome::Completed }
            } else if let Some(cause) = r.aborted {
                FlowOutcome::Aborted(cause)
            } else {
                stuck.push(StuckFlow {
                    id: r.desc.id,
                    src: r.desc.src,
                    dst: r.desc.dst,
                    size: r.desc.size,
                    delivered: r.delivered,
                    timeouts: r.timeouts,
                    retransmitted: r.retransmitted,
                });
                FlowOutcome::Hung
            };
            flows.push((r.desc.id, outcome));
        }
        flows.sort_unstable_by_key(|(id, _)| id.0);
        let report = DegradationReport { flows, stuck };
        if report.is_graceful() { Ok(report) } else { Err(report) }
    }

    /// Run metrics.
    pub fn metrics(&self) -> &Metrics {
        &self.topo.net.metrics
    }

    /// The underlying network (packet-pool stats, trace access).
    pub fn network(&self) -> &Network<T> {
        &self.topo.net
    }

    /// Mutable network access, e.g. to step the simulation in slices with
    /// [`Network::run_until`] instead of running to completion.
    pub fn network_mut(&mut self) -> &mut Network<T> {
        &mut self.topo.net
    }

    /// Ideal (store-and-forward, unloaded) FCT for a flow of `size` bytes
    /// between two hosts of this topology — the slowdown denominator.
    pub fn ideal_fct(&self, size: u64) -> Time {
        let mtu = self.params.mtu_payload as u64;
        let wire = |payload: u64| payload + 40;
        let full = size / mtu;
        let rest = size % mtu;
        let rate = self.topo.host_rate;
        // All packets serialized at the NIC, plus the last packet's
        // serialization at the bottleneck hop, plus the one-way base delay.
        let mut t = full * rate.serialize(wire(mtu));
        if rest > 0 {
            t += rate.serialize(wire(rest));
        }
        let last = if rest > 0 { rest } else { mtu.min(size) };
        t += rate.serialize(wire(last));
        t + self.topo.base_rtt / 2
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeolus_sim::units::{us, Rate};

    #[test]
    fn ideal_fct_matches_the_per_packet_walk() {
        for gbps in [10, 100] {
            let link = LinkParams::uniform(Rate::gbps(gbps), us(3));
            let spec = TopoSpec::SingleSwitch { hosts: 2, link };
            let h = Harness::with_tracer(Scheme::HomaAeolus, SchemeParams::new(0), spec, NullTracer);
            let (mtu, rate) = (h.params.mtu_payload as u64, h.topo.host_rate);
            // The reference: serialize the flow packet by packet.
            let walk = |size: u64| {
                let (mut t, mut left, mut last) = (0, size, 0);
                while left > 0 {
                    last = left.min(mtu);
                    t += rate.serialize(last + 40);
                    left -= last;
                }
                t + rate.serialize(last + 40) + h.topo.base_rtt / 2
            };
            for size in [1, mtu - 1, mtu, mtu + 1, 2 * mtu + 7, 30_000_000] {
                assert_eq!(h.ideal_fct(size), walk(size), "{size} B at {gbps} G");
            }
        }
    }
}
