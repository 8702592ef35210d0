//! Topology builders for the paper's experiments.
//!
//! Three shapes cover every evaluation scenario:
//!
//! * [`single_switch`] — the 8-server 10 Gbps testbed (Figs 8, 11), the
//!   many-to-one microbenchmarks (Figs 15, 16) and the 20:1 shared-buffer
//!   incast (Table 5);
//! * [`leaf_spine_with`] — the two-tier trees: Homa/NDP's 8×8×64 @100 G and the
//!   heavy-incast 4×9×144 with 400 G core links (Fig 17, Fig 18);
//! * [`fat_tree_with`] — ExpressPass' oversubscribed three-tier topology with
//!   8 spines, 16 aggregation (leaf) switches, 32 ToRs and 192 servers.
//!
//! Hosts are numbered ToR-/leaf-major: `hosts[i]` sits under edge switch
//! `i / hosts_per_edge`.

use crate::network::Network;
use crate::packet::{NodeId, PortId};
use crate::queues::Queue;
use crate::routing::RoutePolicy;
use crate::telemetry::{NullTracer, Tracer};
use crate::units::{Rate, Time};

/// Where a port sits in the topology — queue factories pick disciplines by
/// role (e.g. ExpressPass throttles credits on every switch egress).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortRole {
    /// Host NIC egress.
    HostNic,
    /// Switch egress towards a host (last hop).
    DownToHost,
    /// Switch egress towards another switch.
    SwitchToSwitch,
}

/// Factory producing an egress queue for a port of the given rate and role.
pub type QueueFactory<'a> = dyn Fn(Rate, PortRole) -> Queue + 'a;

/// A built topology: the network plus handles the experiments need.
///
/// Generic over the network's [`Tracer`]; the default [`NullTracer`] keeps
/// untraced call sites unchanged.
pub struct Topology<T: Tracer = NullTracer> {
    /// The wired network (endpoints not yet installed).
    pub net: Network<T>,
    /// All host node ids, edge-switch-major order.
    pub hosts: Vec<NodeId>,
    /// All switch node ids.
    pub switches: Vec<NodeId>,
    /// For each host (by index), the last-hop switch egress port feeding it —
    /// the canonical congestion point for incast experiments.
    pub host_ingress: Vec<(NodeId, PortId)>,
    /// Base (unloaded, zero-serialization) round-trip time across the
    /// longest shortest path.
    pub base_rtt: Time,
    /// Host NIC rate.
    pub host_rate: Rate,
}

/// Parameters shared by all builders.
#[derive(Debug, Clone, Copy)]
pub struct LinkParams {
    /// Host link rate.
    pub host_rate: Rate,
    /// Switch-to-switch link rate.
    pub core_rate: Rate,
    /// Per-link propagation delay.
    pub prop_delay: Time,
    /// Per-switch ingress (switching) delay.
    pub switch_delay: Time,
    /// Per-host ingress (stack) delay.
    pub host_delay: Time,
    /// Path selection policy at switches.
    pub policy: RoutePolicy,
    /// Base seed for switch RNGs (spraying).
    pub seed: u64,
}

impl LinkParams {
    /// Uniform-rate parameters with ECMP hashing, zero switch/host delays.
    pub fn uniform(rate: Rate, prop_delay: Time) -> LinkParams {
        LinkParams {
            host_rate: rate,
            core_rate: rate,
            prop_delay,
            switch_delay: 0,
            host_delay: 0,
            policy: RoutePolicy::EcmpHash,
            seed: 0xae01,
        }
    }
}

/// Size switch `sw` before it is wired: `ports` egress ports, and routes
/// towards every node id below `nodes` with `hops` next hops in all. Each
/// builder knows these from its shape, so every array is allocated once.
fn size_switch<T: Tracer>(
    net: &mut Network<T>,
    sw: NodeId,
    ports: usize,
    nodes: usize,
    hops: usize,
) {
    net.reserve_ports(sw, ports);
    net.route_table_mut(sw).reserve(nodes, hops);
}

/// `n_hosts` hosts on one switch.
pub fn single_switch(n_hosts: usize, p: LinkParams, qf: &QueueFactory<'_>) -> Topology {
    single_switch_with(NullTracer, n_hosts, p, qf)
}

/// [`single_switch`] with a telemetry tracer installed on the network.
pub fn single_switch_with<T: Tracer>(
    tracer: T,
    n_hosts: usize,
    p: LinkParams,
    qf: &QueueFactory<'_>,
) -> Topology<T> {
    let mut net = Network::with_tracer(tracer);
    let sw = net.add_switch(p.policy, p.seed, p.switch_delay);
    size_switch(&mut net, sw, n_hosts, 1 + n_hosts, n_hosts);
    let mut hosts = Vec::with_capacity(n_hosts);
    let mut host_ingress = Vec::with_capacity(n_hosts);
    for _ in 0..n_hosts {
        let h = net.add_host(p.host_delay);
        net.connect(h, sw, p.host_rate, p.prop_delay, qf(p.host_rate, PortRole::HostNic));
        let down =
            net.connect(sw, h, p.host_rate, p.prop_delay, qf(p.host_rate, PortRole::DownToHost));
        net.add_route(sw, h, down);
        hosts.push(h);
        host_ingress.push((sw, down));
    }
    // Path: host -> switch -> host, 2 links each way.
    let base_rtt = 2 * (2 * p.prop_delay + p.switch_delay + p.host_delay);
    Topology { net, hosts, switches: vec![sw], host_ingress, base_rtt, host_rate: p.host_rate }
}

/// Two-tier leaf-spine: every leaf connects to every spine. `tracer` is
/// installed on the network.
pub fn leaf_spine_with<T: Tracer>(
    tracer: T,
    spines: usize,
    leaves: usize,
    hosts_per_leaf: usize,
    p: LinkParams,
    qf: &QueueFactory<'_>,
) -> Topology<T> {
    let mut net = Network::with_tracer(tracer);
    let spine_ids: Vec<NodeId> =
        (0..spines).map(|i| net.add_switch(p.policy, p.seed + 1 + i as u64, p.switch_delay)).collect();
    let leaf_ids: Vec<NodeId> = (0..leaves)
        .map(|i| net.add_switch(p.policy, p.seed + 1000 + i as u64, p.switch_delay))
        .collect();
    // A spine reaches each host through its leaf; a leaf reaches its own
    // hosts directly and every other one through any spine.
    let n_hosts = leaves * hosts_per_leaf;
    let nodes = spines + leaves + n_hosts;
    for &spine in &spine_ids {
        size_switch(&mut net, spine, leaves, nodes, n_hosts);
    }
    for &leaf in &leaf_ids {
        let hops = hosts_per_leaf + (n_hosts - hosts_per_leaf) * spines;
        size_switch(&mut net, leaf, spines + hosts_per_leaf, nodes, hops);
    }

    // Leaf <-> spine full bipartite wiring.
    // leaf_up[l][s] = port on leaf l towards spine s; spine_down[s][l] likewise.
    let mut leaf_up = vec![Vec::with_capacity(spines); leaves];
    let mut spine_down = vec![Vec::with_capacity(leaves); spines];
    for (l, &leaf) in leaf_ids.iter().enumerate() {
        for (s, &spine) in spine_ids.iter().enumerate() {
            let up = net.connect(
                leaf,
                spine,
                p.core_rate,
                p.prop_delay,
                qf(p.core_rate, PortRole::SwitchToSwitch),
            );
            leaf_up[l].push(up);
            let down = net.connect(
                spine,
                leaf,
                p.core_rate,
                p.prop_delay,
                qf(p.core_rate, PortRole::SwitchToSwitch),
            );
            spine_down[s].push(down);
        }
    }

    let mut hosts = Vec::with_capacity(n_hosts);
    let mut host_ingress = Vec::with_capacity(n_hosts);
    for (l, &leaf) in leaf_ids.iter().enumerate() {
        for _ in 0..hosts_per_leaf {
            let h = net.add_host(p.host_delay);
            net.connect(h, leaf, p.host_rate, p.prop_delay, qf(p.host_rate, PortRole::HostNic));
            let down =
                net.connect(leaf, h, p.host_rate, p.prop_delay, qf(p.host_rate, PortRole::DownToHost));
            // Routes: own leaf delivers directly; other leaves go up to any
            // spine; spines come back down to this leaf.
            net.add_route(leaf, h, down);
            for (ol, &other_leaf) in leaf_ids.iter().enumerate() {
                if ol != l {
                    net.add_routes(other_leaf, h, &leaf_up[ol]);
                }
            }
            for (s, &spine) in spine_ids.iter().enumerate() {
                net.add_route(spine, h, spine_down[s][l]);
            }
            hosts.push(h);
            host_ingress.push((leaf, down));
        }
    }
    // Longest path: host -> leaf -> spine -> leaf -> host = 4 links,
    // 3 switches and the destination host stack.
    let base_rtt = 2 * (4 * p.prop_delay + 3 * p.switch_delay + p.host_delay);
    let mut switches = spine_ids;
    switches.extend(leaf_ids);
    Topology { net, hosts, switches, host_ingress, base_rtt, host_rate: p.host_rate }
}

/// Three-tier oversubscribed fat-tree, shaped like the ExpressPass paper's:
/// `pods` pods, each with `tors_per_pod` ToRs and `aggs_per_pod` aggregation
/// switches; every aggregation switch connects to all `spines` spines; every
/// ToR hosts `hosts_per_tor` servers; `tracer` is installed on the network.
/// The paper's instance has 8 spines and 8 pods of 4 ToRs and 2 aggs with 6
/// servers each: 16 aggs, 32 ToRs, 192 servers.
#[allow(clippy::too_many_arguments)]
pub fn fat_tree_with<T: Tracer>(
    tracer: T,
    spines: usize,
    pods: usize,
    tors_per_pod: usize,
    aggs_per_pod: usize,
    hosts_per_tor: usize,
    p: LinkParams,
    qf: &QueueFactory<'_>,
) -> Topology<T> {
    let mut net = Network::with_tracer(tracer);
    let spine_ids: Vec<NodeId> =
        (0..spines).map(|i| net.add_switch(p.policy, p.seed + 1 + i as u64, p.switch_delay)).collect();
    // agg_ids[pod][a], tor_ids[pod][t]
    let agg_ids: Vec<Vec<NodeId>> = (0..pods)
        .map(|pd| {
            (0..aggs_per_pod)
                .map(|a| net.add_switch(p.policy, p.seed + 500 + (pd * 16 + a) as u64, p.switch_delay))
                .collect()
        })
        .collect();
    let tor_ids: Vec<Vec<NodeId>> = (0..pods)
        .map(|pd| {
            (0..tors_per_pod)
                .map(|t| net.add_switch(p.policy, p.seed + 9000 + (pd * 64 + t) as u64, p.switch_delay))
                .collect()
        })
        .collect();
    // A spine reaches each host through any agg of its pod. An agg reaches
    // its own pod's hosts through their ToR and every other one through any
    // spine; a ToR its own hosts directly and every other one through any
    // agg of its pod.
    let pod_hosts = tors_per_pod * hosts_per_tor;
    let n_hosts = pods * pod_hosts;
    let nodes = spines + pods * (aggs_per_pod + tors_per_pod) + n_hosts;
    for &spine in &spine_ids {
        size_switch(&mut net, spine, pods * aggs_per_pod, nodes, n_hosts * aggs_per_pod);
    }
    for &agg in agg_ids.iter().flatten() {
        let hops = pod_hosts + (n_hosts - pod_hosts) * spines;
        size_switch(&mut net, agg, spines + tors_per_pod, nodes, hops);
    }
    for &tor in tor_ids.iter().flatten() {
        let hops = hosts_per_tor + (n_hosts - hosts_per_tor) * aggs_per_pod;
        size_switch(&mut net, tor, aggs_per_pod + hosts_per_tor, nodes, hops);
    }

    // Agg <-> spine (full bipartite): agg_up[pod][a][s], spine_down[s] -> port per (pod, a).
    let mut agg_up = vec![vec![Vec::with_capacity(spines); aggs_per_pod]; pods];
    let mut spine_down = vec![vec![vec![PortId(0); aggs_per_pod]; pods]; spines];
    for pd in 0..pods {
        for a in 0..aggs_per_pod {
            for (s, &spine) in spine_ids.iter().enumerate() {
                let up = net.connect(
                    agg_ids[pd][a],
                    spine,
                    p.core_rate,
                    p.prop_delay,
                    qf(p.core_rate, PortRole::SwitchToSwitch),
                );
                agg_up[pd][a].push(up);
                let down = net.connect(
                    spine,
                    agg_ids[pd][a],
                    p.core_rate,
                    p.prop_delay,
                    qf(p.core_rate, PortRole::SwitchToSwitch),
                );
                spine_down[s][pd][a] = down;
            }
        }
    }

    // ToR <-> agg within a pod: tor_up[pod][t][a], agg_down[pod][a][t].
    let mut tor_up = vec![vec![Vec::with_capacity(aggs_per_pod); tors_per_pod]; pods];
    let mut agg_down = vec![vec![vec![PortId(0); tors_per_pod]; aggs_per_pod]; pods];
    for pd in 0..pods {
        for t in 0..tors_per_pod {
            for a in 0..aggs_per_pod {
                let up = net.connect(
                    tor_ids[pd][t],
                    agg_ids[pd][a],
                    p.core_rate,
                    p.prop_delay,
                    qf(p.core_rate, PortRole::SwitchToSwitch),
                );
                tor_up[pd][t].push(up);
                let down = net.connect(
                    agg_ids[pd][a],
                    tor_ids[pd][t],
                    p.core_rate,
                    p.prop_delay,
                    qf(p.core_rate, PortRole::SwitchToSwitch),
                );
                agg_down[pd][a][t] = down;
            }
        }
    }

    let mut hosts = Vec::with_capacity(n_hosts);
    let mut host_ingress = Vec::with_capacity(n_hosts);
    for pd in 0..pods {
        for t in 0..tors_per_pod {
            for _ in 0..hosts_per_tor {
                let h = net.add_host(p.host_delay);
                net.connect(h, tor_ids[pd][t], p.host_rate, p.prop_delay, qf(p.host_rate, PortRole::HostNic));
                let down = net.connect(
                    tor_ids[pd][t],
                    h,
                    p.host_rate,
                    p.prop_delay,
                    qf(p.host_rate, PortRole::DownToHost),
                );
                // Routes:
                // * own ToR: direct.
                net.add_route(tor_ids[pd][t], h, down);
                // * other ToRs in any pod: up to their aggs.
                for opd in 0..pods {
                    for ot in 0..tors_per_pod {
                        if opd == pd && ot == t {
                            continue;
                        }
                        net.add_routes(tor_ids[opd][ot], h, &tor_up[opd][ot]);
                    }
                }
                // * aggs in this pod: down to this ToR. Aggs in other pods:
                //   up to any spine.
                for a in 0..aggs_per_pod {
                    net.add_route(agg_ids[pd][a], h, agg_down[pd][a][t]);
                }
                for opd in 0..pods {
                    if opd == pd {
                        continue;
                    }
                    for a in 0..aggs_per_pod {
                        net.add_routes(agg_ids[opd][a], h, &agg_up[opd][a]);
                    }
                }
                // * spines: down to any agg of this pod.
                for (s, &spine) in spine_ids.iter().enumerate() {
                    net.add_routes(spine, h, &spine_down[s][pd]);
                }
                hosts.push(h);
                host_ingress.push((tor_ids[pd][t], down));
            }
        }
    }

    // Longest path: host-ToR-agg-spine-agg-ToR-host = 6 links, 5 switches.
    let base_rtt = 2 * (6 * p.prop_delay + 5 * p.switch_delay + p.host_delay);
    let mut switches = spine_ids;
    switches.extend(agg_ids.into_iter().flatten());
    switches.extend(tor_ids.into_iter().flatten());
    Topology { net, hosts, switches, host_ingress, base_rtt, host_rate: p.host_rate }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::endpoint::{Ctx, Endpoint};
    use crate::packet::{FlowDesc, FlowId, Packet, TrafficClass};
    use crate::queues::DropTailQueue;
    use crate::units::us;

    fn qf(_r: Rate, _role: PortRole) -> Queue {
        DropTailQueue::new(1 << 30).into()
    }

    fn leaf_spine(
        spines: usize,
        leaves: usize,
        hosts: usize,
        p: LinkParams,
        qf: &QueueFactory<'_>,
    ) -> Topology {
        leaf_spine_with(NullTracer, spines, leaves, hosts, p, qf)
    }

    fn fat_tree(
        spines: usize,
        pods: usize,
        tors: usize,
        aggs: usize,
        hosts: usize,
        p: LinkParams,
        qf: &QueueFactory<'_>,
    ) -> Topology {
        fat_tree_with(NullTracer, spines, pods, tors, aggs, hosts, p, qf)
    }

    /// Every switch knows a next hop for every host, and following
    /// first-choice next hops from any host reaches any other host within a
    /// hop budget; panics with a description otherwise.
    fn validate_routes(topo: &Topology) {
        use crate::node::NodeKind;
        for &sw in &topo.switches {
            let node = topo.net.node(sw);
            let table = match &node.kind {
                NodeKind::Switch { table } => table,
                NodeKind::Host { .. } => panic!("{sw:?} listed as switch but is a host"),
            };
            for &h in &topo.hosts {
                assert!(
                    !table.group(h).is_empty(),
                    "switch {sw:?} has no route towards host {h:?}"
                );
                for &port in table.group(h) {
                    assert!(
                        (port.0 as usize) < node.ports.len(),
                        "switch {sw:?} routes {h:?} via nonexistent port {port:?}"
                    );
                }
            }
        }
        // Walk first-choice next hops host→host.
        let budget = 16;
        for &src in &topo.hosts {
            for &dst in &topo.hosts {
                if src == dst {
                    continue;
                }
                let mut at = topo.net.node(src).ports[0].link.to;
                let mut hops = 0;
                while at != dst {
                    hops += 1;
                    assert!(hops < budget, "route walk {src:?}->{dst:?} exceeded {budget} hops");
                    let node = topo.net.node(at);
                    match &node.kind {
                        NodeKind::Switch { table } => {
                            let group = table.group(dst);
                            assert!(!group.is_empty(), "{at:?} dead-ends {src:?}->{dst:?}");
                            at = node.ports[group[0].0 as usize].link.to;
                        }
                        NodeKind::Host { .. } => {
                            panic!("route walk {src:?}->{dst:?} hit foreign host {at:?}")
                        }
                    }
                }
            }
        }
    }

    struct Echoless;
    impl Endpoint for Echoless {
        fn on_flow_arrival(&mut self, flow: FlowDesc, ctx: &mut Ctx<'_>) {
            ctx.send(Packet::data(
                flow.id,
                flow.src,
                flow.dst,
                0,
                flow.size as u32,
                TrafficClass::Scheduled,
                flow.size,
            ));
        }
        fn on_packet(&mut self, pkt: Packet, ctx: &mut Ctx<'_>) {
            if pkt.is_data() {
                ctx.metrics.deliver(pkt.flow, pkt.payload as u64, ctx.now);
            }
        }
        fn on_timer(&mut self, _t: crate::endpoint::Timer, _ctx: &mut Ctx<'_>) {}
    }

    fn all_pairs_complete(mut topo: Topology, horizon: crate::units::Time) {
        let hosts = topo.hosts.clone();
        for &h in &hosts {
            topo.net.set_endpoint(h, Box::new(Echoless));
        }
        let mut id = 0u64;
        for &a in &hosts {
            for &b in &hosts {
                if a != b {
                    id += 1;
                    topo.net.schedule_flow(FlowDesc {
                        id: FlowId(id),
                        src: a,
                        dst: b,
                        size: 1000,
                        start: 0,
                    });
                }
            }
        }
        assert!(
            topo.net.run_to_completion(horizon),
            "not all pairs delivered: {}/{}",
            topo.net.metrics.completed_count(),
            topo.net.metrics.flow_count()
        );
    }

    #[test]
    fn single_switch_all_pairs_reachable() {
        let topo = single_switch(8, LinkParams::uniform(Rate::gbps(10), us(1)), &qf);
        assert_eq!(topo.hosts.len(), 8);
        all_pairs_complete(topo, us(100_000));
    }

    #[test]
    fn leaf_spine_all_pairs_reachable() {
        let topo = leaf_spine(4, 4, 4, LinkParams::uniform(Rate::gbps(100), us(1)), &qf);
        assert_eq!(topo.hosts.len(), 16);
        assert_eq!(topo.switches.len(), 8);
        all_pairs_complete(topo, us(100_000));
    }

    #[test]
    fn leaf_spine_spray_all_pairs_reachable() {
        let mut p = LinkParams::uniform(Rate::gbps(100), us(1));
        p.policy = RoutePolicy::Spray;
        let topo = leaf_spine(4, 4, 2, p, &qf);
        all_pairs_complete(topo, us(100_000));
    }

    #[test]
    fn fat_tree_paper_shape() {
        let topo =
            fat_tree(8, 8, 4, 2, 6, LinkParams::uniform(Rate::gbps(100), us(4)), &qf);
        assert_eq!(topo.hosts.len(), 192);
        // 8 spines + 16 aggs + 32 ToRs.
        assert_eq!(topo.switches.len(), 56);
    }

    #[test]
    fn fat_tree_small_all_pairs_reachable() {
        let topo = fat_tree(2, 2, 2, 2, 2, LinkParams::uniform(Rate::gbps(100), us(1)), &qf);
        assert_eq!(topo.hosts.len(), 8);
        all_pairs_complete(topo, us(100_000));
    }

    /// Every builder sizes each switch's port array to the degree it then
    /// wires: no growth during the build, and no spare `Port`s.
    #[test]
    fn builders_size_each_switch_port_array_to_its_degree() {
        let p = LinkParams::uniform(Rate::gbps(100), us(1));
        let topos =
            [single_switch(8, p, &qf), leaf_spine(4, 3, 5, p, &qf), fat_tree(4, 3, 2, 2, 3, p, &qf)];
        for topo in topos {
            for &sw in &topo.switches {
                let ports = &topo.net.node(sw).ports;
                assert_eq!(ports.capacity(), ports.len(), "{sw:?}");
            }
        }
    }

    #[test]
    fn validate_routes_accepts_all_builders() {
        let p = LinkParams::uniform(Rate::gbps(100), us(1));
        validate_routes(&single_switch(8, LinkParams::uniform(Rate::gbps(10), us(1)), &qf));
        validate_routes(&leaf_spine(4, 4, 4, p, &qf));
        validate_routes(&fat_tree(4, 4, 2, 2, 3, p, &qf));
        // The full-scale shapes the paper runs: ExpressPass' 8-spine, 8-pod,
        // 192-host fat tree and Homa/NDP's 8×8×64 leaf-spine.
        validate_routes(&fat_tree(8, 8, 4, 2, 6, p, &qf));
        validate_routes(&leaf_spine(8, 8, 8, p, &qf));
    }

    #[test]
    fn base_rtt_formulas() {
        let mut p = LinkParams::uniform(Rate::gbps(100), us(1));
        p.switch_delay = 100; // 0.1 ns — just to see it counted
        p.host_delay = 50;
        let t1 = single_switch(2, p, &qf);
        assert_eq!(t1.base_rtt, 2 * (2 * us(1) + 100 + 50));
        let t2 = leaf_spine(2, 2, 2, p, &qf);
        assert_eq!(t2.base_rtt, 2 * (4 * us(1) + 3 * 100 + 50));
        let t3 = fat_tree(2, 2, 2, 2, 2, p, &qf);
        assert_eq!(t3.base_rtt, 2 * (6 * us(1) + 5 * 100 + 50));
    }

    #[test]
    fn host_ingress_ports_point_at_hosts() {
        let topo = leaf_spine(2, 2, 2, LinkParams::uniform(Rate::gbps(100), us(1)), &qf);
        for (i, &(sw, port)) in topo.host_ingress.iter().enumerate() {
            let p = topo.net.port(sw, port);
            assert_eq!(p.link.to, topo.hosts[i]);
        }
    }
}
