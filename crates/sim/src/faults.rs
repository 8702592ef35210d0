//! Deterministic fault injection: corruption loss, link flaps and degraded
//! links.
//!
//! The Aeolus paper's recovery argument (§3.3) assumes scheduled packets are
//! lost only to congestion. A [`FaultPlan`] breaks that assumption on
//! purpose: it attaches non-congestion loss to the engine so the transports'
//! recovery machinery can be exercised against a hostile fabric.
//!
//! Three fault classes are modelled, all evaluated at the egress link (after
//! the queue discipline, i.e. the failure happens *on the wire*, never
//! inside the switch buffer — corruption loss is accounted separately from
//! selective dropping by construction):
//!
//! - **Corruption loss** ([`CorruptionRule`]): an independent Bernoulli draw
//!   per transmitted packet from the plan's own seeded [`SimRng`], optionally
//!   filtered by packet class ([`PacketFilter`]) and link ([`LinkFilter`]) so
//!   credit/ACK/probe control packets can be targeted separately from data.
//! - **Link down windows** ([`WindowKind::Down`]): during `[from, until)`
//!   the link transmits nothing (the queue stalls) and any packet whose
//!   serialization would overlap the window start is cut mid-flight. Down
//!   links are visible to routing: ECMP/spray selection avoids them while
//!   an alternative path is up.
//! - **Degraded windows** ([`WindowKind::Degraded`]): serialization time is
//!   multiplied by an integer slowdown factor, modelling a link renegotiated
//!   to a lower rate. Integer factors keep serialization times exact, so
//!   determinism is preserved bit-for-bit.
//!
//! Determinism: the plan owns its RNG seed, and every fault decision is a
//! pure function of (plan, packet transmission order). An **empty plan draws
//! zero random numbers and schedules zero events** — the engine's fast path
//! is byte-for-byte identical to a build without faults.

use std::fmt;
use std::str::FromStr;

use crate::packet::{NodeId, Packet, PacketKind, PortId, TrafficClass};
use crate::rng::SimRng;
use crate::units::{Time, PS_PER_MS, PS_PER_NS, PS_PER_SEC, PS_PER_US};

/// Which packets a [`CorruptionRule`] applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PacketFilter {
    /// Every packet.
    Any,
    /// Data payload packets only (scheduled or unscheduled).
    Data,
    /// Any control packet (everything that is not data).
    Control,
    /// Scheduled-class packets only.
    Scheduled,
    /// Unscheduled-class packets only.
    Unscheduled,
    /// Credit-carrying control packets: credits, grants, pulls, schedules.
    Credit,
    /// ACK/NACK feedback packets.
    Ack,
    /// Aeolus probes only.
    Probe,
}

impl PacketFilter {
    /// Does `pkt` fall under this filter?
    pub fn matches(&self, pkt: &Packet) -> bool {
        match self {
            PacketFilter::Any => true,
            PacketFilter::Data => pkt.is_data(),
            PacketFilter::Control => !pkt.is_data(),
            PacketFilter::Scheduled => pkt.class == TrafficClass::Scheduled,
            PacketFilter::Unscheduled => pkt.class == TrafficClass::Unscheduled,
            PacketFilter::Credit => matches!(
                pkt.kind,
                PacketKind::Credit
                    | PacketKind::Grant { .. }
                    | PacketKind::Pull
                    | PacketKind::Schedule { .. }
            ),
            PacketFilter::Ack => matches!(pkt.kind, PacketKind::Ack { .. } | PacketKind::Nack),
            PacketFilter::Probe => matches!(pkt.kind, PacketKind::Probe),
        }
    }
}

/// Which egress links a fault applies to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkFilter {
    /// Every link in the topology.
    All,
    /// Every egress port of one node.
    Node(NodeId),
    /// One specific egress port.
    Link(NodeId, PortId),
    /// Every link touching one node, in either direction: the node's own
    /// egress ports plus every port whose far end is the node. Cutting all
    /// adjacent links disconnects the node — the building block for
    /// pod-level partitions.
    Adjacent(NodeId),
}

impl LinkFilter {
    /// Does the egress link `(node, port)`, whose far end is `to`, fall
    /// under this filter?
    #[inline]
    pub fn matches(&self, node: NodeId, port: PortId, to: NodeId) -> bool {
        match *self {
            LinkFilter::All => true,
            LinkFilter::Node(n) => n == node,
            LinkFilter::Link(n, p) => n == node && p == port,
            LinkFilter::Adjacent(n) => n == node || n == to,
        }
    }
}

/// Independent Bernoulli corruption loss on matching links/packets.
#[derive(Debug, Clone, PartialEq)]
pub struct CorruptionRule {
    /// Per-packet loss probability in `[0, 1]`.
    pub prob: f64,
    /// Which packets the rule targets.
    pub filter: PacketFilter,
    /// Which links the rule targets.
    pub links: LinkFilter,
}

/// What happens to a link inside a [`LinkWindow`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WindowKind {
    /// The link carries nothing; queued packets stall, in-flight packets
    /// whose serialization overlaps the window start are cut.
    Down,
    /// The link still carries traffic, but serialization takes
    /// `slowdown` times longer (integer factor, so times stay exact).
    Degraded {
        /// Serialization-time multiplier, `>= 2` to have any effect.
        slowdown: u32,
    },
}

/// A scheduled `[from, until)` window during which matching links are down
/// or degraded.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkWindow {
    /// Window start (inclusive).
    pub from: Time,
    /// Window end (exclusive).
    pub until: Time,
    /// Which links the window covers.
    pub links: LinkFilter,
    /// Down or degraded.
    pub kind: WindowKind,
}

impl LinkWindow {
    /// Is `t` inside the window?
    #[inline]
    pub fn covers(&self, t: Time) -> bool {
        self.from <= t && t < self.until
    }

    /// Does the window overlap the half-open interval `[t0, t1)`?
    #[inline]
    pub fn overlaps(&self, t0: Time, t1: Time) -> bool {
        self.from < t1 && t0 < self.until
    }
}

/// Which node a node-fault directive targets.
///
/// The `--faults` grammar names workload hosts by index; the harness
/// resolves indices against its host list (which excludes any arbiter)
/// before installing the plan, so a spec is portable across topologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeSelector {
    /// The i-th workload host, resolved at install time (modulo host count).
    Host(usize),
    /// A concrete node id (already resolved, or builder-targeted).
    Node(NodeId),
}

/// What kind of node fault a [`NodeWindow`] models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeFaultKind {
    /// Host crash/restart: per-flow transport state is wiped, queued packets
    /// die, flows touching the host abort and relaunch on restart.
    Crash,
    /// Arbiter/controller outage: same mechanics as a crash, but drops are
    /// accounted as [`crate::queues::DropReason::ArbiterDown`] and workload
    /// flows are not aborted (only control state dies).
    ArbiterOutage,
}

/// A scheduled `[from, until)` window during which one node is dead.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeWindow {
    /// Window start (inclusive): the crash instant.
    pub from: Time,
    /// Window end (exclusive): the restart instant.
    pub until: Time,
    /// The node that dies.
    pub node: NodeSelector,
    /// Crash or arbiter outage.
    pub kind: NodeFaultKind,
}

impl NodeWindow {
    /// Is `t` inside the window?
    #[inline]
    pub fn covers(&self, t: Time) -> bool {
        self.from <= t && t < self.until
    }

    /// Does the window overlap the half-open interval `[t0, t1)`?
    #[inline]
    pub fn overlaps(&self, t0: Time, t1: Time) -> bool {
        self.from < t1 && t0 < self.until
    }

    /// The resolved node, if resolution has happened.
    #[inline]
    pub fn node_id(&self) -> Option<NodeId> {
        match self.node {
            NodeSelector::Node(n) => Some(n),
            NodeSelector::Host(_) => None,
        }
    }
}

/// A complete, seeded fault schedule for one run.
///
/// Plain data (`Clone + Send + Sync`), so it can ride inside scheme
/// parameters through the parallel experiment runner. The default plan is
/// empty and injects nothing.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for the plan's private corruption RNG.
    pub seed: u64,
    /// Bernoulli corruption rules, evaluated in order (first match draws).
    pub corruption: Vec<CorruptionRule>,
    /// Scheduled down/degraded windows.
    pub windows: Vec<LinkWindow>,
    /// Node crash / arbiter-outage windows (`crash=` directives, plus
    /// resolved `arbiter=` windows on schemes that have an arbiter host).
    pub node_windows: Vec<NodeWindow>,
    /// Raw `arbiter=` windows, awaiting resolution: on schemes with an
    /// arbiter host they become [`NodeWindow`]s; on credit-based schemes
    /// without one they become credit blackouts (the credit *source* —
    /// the receiver NIC pacer in ExpressPass — stalls).
    pub arbiter_outages: Vec<(Time, Time)>,
    /// Raw `partition=` windows, awaiting resolution into coordinated
    /// [`LinkFilter::Adjacent`] down windows over half the host set.
    pub partitions: Vec<(Time, Time)>,
    /// Resolved credit blackouts: during `[from, until)` every
    /// credit-carrying control packet dies at egress with an
    /// `ArbiterDown` drop. No RNG, no events — a pure per-transmit check.
    pub blackouts: Vec<(Time, Time)>,
}

impl FaultPlan {
    /// An empty plan with the given corruption-RNG seed.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, ..FaultPlan::default() }
    }

    /// Add a Bernoulli corruption rule.
    pub fn with_loss(mut self, prob: f64, filter: PacketFilter, links: LinkFilter) -> FaultPlan {
        assert!((0.0..=1.0).contains(&prob), "corruption prob {prob} outside [0, 1]");
        self.corruption.push(CorruptionRule { prob, filter, links });
        self
    }

    /// Add a link-down window over `[from, until)`.
    pub fn with_down(mut self, from: Time, until: Time, links: LinkFilter) -> FaultPlan {
        assert!(from < until, "empty down window {from}..{until}");
        self.windows.push(LinkWindow { from, until, links, kind: WindowKind::Down });
        self
    }

    /// Add a degraded-rate window over `[from, until)` with an integer
    /// serialization-time multiplier.
    pub fn with_degraded(
        mut self,
        from: Time,
        until: Time,
        slowdown: u32,
        links: LinkFilter,
    ) -> FaultPlan {
        assert!(from < until, "empty degraded window {from}..{until}");
        assert!(slowdown >= 1, "degraded slowdown must be >= 1");
        self.windows.push(LinkWindow { from, until, links, kind: WindowKind::Degraded { slowdown } });
        self
    }

    /// Crash the `host`-th workload host over `[from, until)` (resolved
    /// against the harness's host list at install time).
    pub fn with_crash(mut self, from: Time, until: Time, host: usize) -> FaultPlan {
        assert!(from < until, "empty crash window {from}..{until}");
        self.node_windows.push(NodeWindow {
            from,
            until,
            node: NodeSelector::Host(host),
            kind: NodeFaultKind::Crash,
        });
        self
    }

    /// Crash a concrete node over `[from, until)` (builder-only; bypasses
    /// host-index resolution).
    pub fn with_node_crash(mut self, from: Time, until: Time, node: NodeId) -> FaultPlan {
        assert!(from < until, "empty crash window {from}..{until}");
        self.node_windows.push(NodeWindow {
            from,
            until,
            node: NodeSelector::Node(node),
            kind: NodeFaultKind::Crash,
        });
        self
    }

    /// Take the arbiter/controller down over `[from, until)`.
    pub fn with_arbiter_outage(mut self, from: Time, until: Time) -> FaultPlan {
        assert!(from < until, "empty arbiter window {from}..{until}");
        self.arbiter_outages.push((from, until));
        self
    }

    /// Partition the host set in half over `[from, until)`: every link
    /// adjacent to the upper half goes dark.
    pub fn with_partition(mut self, from: Time, until: Time) -> FaultPlan {
        assert!(from < until, "empty partition window {from}..{until}");
        self.partitions.push((from, until));
        self
    }

    /// True when the plan injects nothing. Six `Vec::is_empty` tests, so the
    /// engine evaluates it once, at install ([`FaultIndex::active`]): an
    /// empty plan then costs one flag per event and draws no randomness; an
    /// installed plan costs O(open windows) per transmission.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.corruption.is_empty()
            && self.windows.is_empty()
            && self.node_windows.is_empty()
            && self.arbiter_outages.is_empty()
            && self.partitions.is_empty()
            && self.blackouts.is_empty()
    }

    /// True when the plan carries node- or control-plane faults (crashes,
    /// arbiter outages, partitions) in raw or resolved form.
    pub fn has_node_faults(&self) -> bool {
        !self.node_windows.is_empty()
            || !self.arbiter_outages.is_empty()
            || !self.partitions.is_empty()
            || !self.blackouts.is_empty()
    }

    /// True when every node-fault directive has been resolved to concrete
    /// nodes / link windows (see [`FaultPlan::resolve`]).
    pub fn is_resolved(&self) -> bool {
        self.arbiter_outages.is_empty()
            && self.partitions.is_empty()
            && self.node_windows.iter().all(|w| w.node_id().is_some())
    }

    /// Resolve host-index selectors and control-plane directives against a
    /// concrete topology: `hosts` is the workload host list (arbiter
    /// excluded), `arbiter` the arbiter node for centralized schemes.
    ///
    /// - `crash=i@..` windows bind to `hosts[i % len]`.
    /// - `arbiter=..` windows become a crash-like [`NodeWindow`] on the
    ///   arbiter when one exists, else a credit blackout (ExpressPass-style
    ///   credit-source stall).
    /// - `partition=..` windows expand to coordinated
    ///   [`LinkFilter::Adjacent`] down windows over the upper half of the
    ///   host set.
    ///
    /// Idempotent; a plan without node faults is untouched.
    pub fn resolve(&mut self, hosts: &[NodeId], arbiter: Option<NodeId>) {
        for w in &mut self.node_windows {
            if let NodeSelector::Host(i) = w.node {
                assert!(!hosts.is_empty(), "crash directive with no hosts to resolve against");
                w.node = NodeSelector::Node(hosts[i % hosts.len()]);
            }
        }
        for (from, until) in self.arbiter_outages.drain(..) {
            match arbiter {
                Some(a) => self.node_windows.push(NodeWindow {
                    from,
                    until,
                    node: NodeSelector::Node(a),
                    kind: NodeFaultKind::ArbiterOutage,
                }),
                None => self.blackouts.push((from, until)),
            }
        }
        for (from, until) in self.partitions.drain(..) {
            // Upper half goes dark; with fewer than two hosts there is
            // nothing to partition.
            for &h in hosts.get(hosts.len().div_ceil(2)..).unwrap_or(&[]) {
                self.windows.push(LinkWindow {
                    from,
                    until,
                    links: LinkFilter::Adjacent(h),
                    kind: WindowKind::Down,
                });
            }
        }
    }

    /// Is `n` inside a crash/outage window at `t`? Requires a resolved plan.
    #[inline]
    pub fn node_down_at(&self, n: NodeId, t: Time) -> bool {
        self.node_windows
            .iter()
            .any(|w| w.covers(t) && w.node == NodeSelector::Node(n))
    }

    /// The drop reason for traffic dying at dead node `n` at `t`:
    /// `ArbiterDown` if an arbiter-outage window covers it, else `NodeDown`.
    #[inline]
    pub fn node_drop_reason(&self, n: NodeId, t: Time) -> crate::queues::DropReason {
        let arbiter = self.node_windows.iter().any(|w| {
            w.kind == NodeFaultKind::ArbiterOutage
                && w.covers(t)
                && w.node == NodeSelector::Node(n)
        });
        if arbiter {
            crate::queues::DropReason::ArbiterDown
        } else {
            crate::queues::DropReason::NodeDown
        }
    }

    /// Is the egress link `(node, port) -> to` down at `t`? True for link
    /// down windows and whenever either endpoint node is crashed.
    #[inline]
    pub fn link_down_at(&self, node: NodeId, port: PortId, to: NodeId, t: Time) -> bool {
        self.windows.iter().any(|w| {
            w.kind == WindowKind::Down && w.covers(t) && w.links.matches(node, port, to)
        }) || self
            .node_windows
            .iter()
            .any(|w| w.covers(t) && (w.node == NodeSelector::Node(node) || w.node == NodeSelector::Node(to)))
    }

    /// If a down window (link or node) on `(node, port) -> to` overlaps
    /// `[t0, t1)`, the drop reason for the cut: node faults take precedence
    /// over link windows so the taxonomy names the root cause. Used to cut
    /// packets whose serialization straddles a window start.
    #[inline]
    pub fn cut_reason(
        &self,
        node: NodeId,
        port: PortId,
        to: NodeId,
        t0: Time,
        t1: Time,
    ) -> Option<crate::queues::DropReason> {
        for w in &self.node_windows {
            if w.overlaps(t0, t1)
                && (w.node == NodeSelector::Node(node) || w.node == NodeSelector::Node(to))
            {
                return Some(match w.kind {
                    NodeFaultKind::ArbiterOutage => crate::queues::DropReason::ArbiterDown,
                    NodeFaultKind::Crash => crate::queues::DropReason::NodeDown,
                });
            }
        }
        for w in &self.windows {
            if w.kind == WindowKind::Down && w.overlaps(t0, t1) && w.links.matches(node, port, to)
            {
                return Some(crate::queues::DropReason::LinkDown);
            }
        }
        None
    }

    /// Does a credit blackout kill this transmission? True only for
    /// credit-carrying control packets inside a blackout window.
    #[inline]
    pub fn blackout_kills(&self, pkt: &Packet, t: Time) -> bool {
        !self.blackouts.is_empty()
            && PacketFilter::Credit.matches(pkt)
            && self.blackouts.iter().any(|b| span_covers(b, t))
    }

    /// Serialization-time multiplier for `(node, port) -> to` at `t` (1 =
    /// full rate). Overlapping degraded windows compound via the maximum.
    #[inline]
    pub fn slowdown_at(&self, node: NodeId, port: PortId, to: NodeId, t: Time) -> u32 {
        self.windows
            .iter()
            .filter_map(|w| match w.kind {
                WindowKind::Degraded { slowdown }
                    if w.covers(t) && w.links.matches(node, port, to) =>
                {
                    Some(slowdown)
                }
                _ => None,
            })
            .max()
            .unwrap_or(1)
    }

    /// Draw the corruption verdict for one transmission of `pkt` on
    /// `(node, port) -> to`. The first matching rule draws exactly one
    /// Bernoulli sample; non-matching packets draw nothing, keeping the RNG
    /// stream a pure function of the matched-transmission order.
    #[inline]
    pub fn corrupts(
        &self,
        node: NodeId,
        port: PortId,
        to: NodeId,
        pkt: &Packet,
        rng: &mut SimRng,
    ) -> bool {
        for rule in &self.corruption {
            if rule.links.matches(node, port, to) && rule.filter.matches(pkt) {
                return rng.chance(rule.prob);
            }
        }
        false
    }
}

/// Is `t` inside the half-open blackout `[from, until)`?
#[inline]
fn span_covers(&(from, until): &(Time, Time), t: Time) -> bool {
    from <= t && t < until
}

/// A resolved plan plus the subset of it that is open right now.
///
/// The engine asks the plan the same questions at every transmission and
/// every switch arrival, while windows are open for a small fraction of a
/// run. The index keeps the link windows, node windows and blackouts that
/// cover the current instant as a plan of their own ([`FaultIndex::open_at`])
/// and answers point queries from that subset alone, so a query costs
/// O(open windows) instead of O(plan).
///
/// The open set is a pure function of (plan, `now`): [`FaultIndex::advance`]
/// recomputes it by a full `covers(now)` scan whenever `now` reaches the next
/// window boundary — at most once per distinct boundary, 2·W times a run —
/// and between boundaries no window opens or closes. It never depends on
/// which of several same-instant events ran first.
#[derive(Debug)]
pub struct FaultIndex {
    plan: FaultPlan,
    active: bool,
    /// Windows and blackouts of `plan` covering `[at, valid_until)`, in
    /// plan order (first-match precedence carries over).
    open: FaultPlan,
    at: Time,
    /// Earliest window boundary after `at`.
    valid_until: Time,
    /// Earliest window start after `at`.
    next_start: Time,
}

impl Default for FaultIndex {
    fn default() -> FaultIndex {
        FaultIndex::new(FaultPlan::default(), 0)
    }
}

impl FaultIndex {
    /// Index the resolved `plan`, starting at `now`.
    pub fn new(plan: FaultPlan, now: Time) -> FaultIndex {
        assert!(plan.is_resolved(), "fault index over an unresolved plan");
        let mut idx = FaultIndex {
            active: !plan.is_empty(),
            plan,
            open: FaultPlan::default(),
            at: now,
            valid_until: Time::MAX,
            next_start: Time::MAX,
        };
        idx.refresh(now);
        idx
    }

    /// The full plan.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Does the plan inject anything at all? Evaluated once, at install.
    #[inline]
    pub fn active(&self) -> bool {
        self.active
    }

    /// Move the index to `now` (monotone). A no-op until `now` reaches the
    /// next window boundary.
    #[inline]
    pub fn advance(&mut self, now: Time) {
        if now >= self.valid_until {
            self.refresh(now);
        }
    }

    fn refresh(&mut self, now: Time) {
        let (plan, open) = (&self.plan, &mut self.open);
        open.windows.clear();
        open.windows.extend(plan.windows.iter().filter(|w| w.covers(now)).cloned());
        open.node_windows.clear();
        open.node_windows.extend(plan.node_windows.iter().filter(|w| w.covers(now)).cloned());
        open.blackouts.clear();
        open.blackouts.extend(plan.blackouts.iter().filter(|b| span_covers(b, now)));
        let spans = (plan.windows.iter().map(|w| (w.from, w.until)))
            .chain(plan.node_windows.iter().map(|w| (w.from, w.until)))
            .chain(plan.blackouts.iter().copied());
        let starts = spans.clone().map(|s| s.0);
        self.next_start = starts.filter(|&t| t > now).min().unwrap_or(Time::MAX);
        let next_end = spans.map(|s| s.1).filter(|&t| t > now).min().unwrap_or(Time::MAX);
        self.at = now;
        self.valid_until = self.next_start.min(next_end);
    }

    /// The windows and blackouts open at `t`, as a plan: its point queries
    /// (`node_down_at`, `link_down_at`, `slowdown_at`, `node_drop_reason`,
    /// `blackout_kills`) at `t` answer as the full plan's do. `t` must be
    /// the instant the index was advanced to.
    #[inline]
    pub fn open_at(&self, t: Time) -> &FaultPlan {
        debug_assert!(
            self.at <= t && t < self.valid_until,
            "fault index at [{}, {}) queried at {t}",
            self.at,
            self.valid_until
        );
        &self.open
    }

    /// Is every window closed at `t`? Then no link and no node is down or
    /// degraded.
    #[inline]
    pub fn nothing_open(&self, t: Time) -> bool {
        let open = self.open_at(t);
        open.windows.is_empty() && open.node_windows.is_empty()
    }

    /// [`FaultPlan::cut_reason`] for a serialization `[t0, t1)` starting at
    /// the instant the index was advanced to. Only a window open at `t0` or
    /// starting inside the interval can overlap it, so the full plan is
    /// scanned only when the packet straddles a window start.
    #[inline]
    pub fn cut_reason(
        &self,
        node: NodeId,
        port: PortId,
        to: NodeId,
        t0: Time,
        t1: Time,
    ) -> Option<crate::queues::DropReason> {
        if t1 <= self.next_start {
            self.open_at(t0).cut_reason(node, port, to, t0, t1)
        } else {
            self.plan.cut_reason(node, port, to, t0, t1)
        }
    }
}

/// Parse a duration like `300ns`, `2.5us`, `3ms`, `1s` (also bare
/// picoseconds, e.g. `1200`).
fn parse_time(s: &str) -> Result<Time, String> {
    let (num, unit) = match s.find(|c: char| c.is_ascii_alphabetic()) {
        Some(i) => s.split_at(i),
        None => (s, ""),
    };
    let v: f64 = num.parse().map_err(|_| format!("bad time '{s}'"))?;
    let scale = match unit {
        "" | "ps" => 1,
        "ns" => PS_PER_NS,
        "us" => PS_PER_US,
        "ms" => PS_PER_MS,
        "s" => PS_PER_SEC,
        _ => return Err(format!("unknown time unit '{unit}' in '{s}'")),
    };
    if v < 0.0 {
        return Err(format!("negative time '{s}'"));
    }
    Ok((v * scale as f64).round() as Time)
}

/// Parse a non-empty half-open window `FROM..UNTIL`.
fn parse_window(s: &str) -> Result<(Time, Time), String> {
    let (from, until) =
        s.split_once("..").ok_or_else(|| format!("window '{s}' is not FROM..UNTIL"))?;
    let (from, until) = (parse_time(from)?, parse_time(until)?);
    if from >= until {
        return Err(format!("empty window '{s}'"));
    }
    Ok((from, until))
}

/// Parse a probability like `0.01` or `1%`.
fn parse_prob(s: &str) -> Result<f64, String> {
    let (num, pct) = match s.strip_suffix('%') {
        Some(n) => (n, true),
        None => (s, false),
    };
    let v: f64 = num.parse().map_err(|_| format!("bad probability '{s}'"))?;
    let v = if pct { v / 100.0 } else { v };
    if !(0.0..=1.0).contains(&v) {
        return Err(format!("probability '{s}' outside [0, 1]"));
    }
    Ok(v)
}

impl FromStr for FaultPlan {
    type Err = String;

    /// Parse a `--faults` spec: comma-separated directives.
    ///
    /// - `loss=P` — corruption loss on every packet (`P` = `0.01` or `1%`)
    /// - `data-loss=P` / `ctrl-loss=P` — data / control packets only
    /// - `credit-loss=P` / `ack-loss=P` / `probe-loss=P` — targeted control
    /// - `sched-loss=P` / `unsched-loss=P` — by traffic class
    /// - `down=FROM..UNTIL` — link-down window (times like `2ms..2.3ms`)
    /// - `degrade=FROM..UNTIL@N` — N× slower serialization in the window
    /// - `crash=I@FROM..UNTIL` — host `I` crashes at FROM, restarts at UNTIL
    /// - `arbiter=FROM..UNTIL` — arbiter/controller outage window
    /// - `partition=FROM..UNTIL` — pod partition (upper host half goes dark)
    /// - `seed=N` — corruption RNG seed (default 0)
    ///
    /// All link directives apply to every link; class/direction targeting
    /// beyond this grammar is available through the builder API.
    fn from_str(s: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for tok in s.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (key, val) = tok
                .split_once('=')
                .ok_or_else(|| format!("fault directive '{tok}' is not KEY=VALUE"))?;
            let filter = match key {
                "loss" => Some(PacketFilter::Any),
                "data-loss" => Some(PacketFilter::Data),
                "ctrl-loss" => Some(PacketFilter::Control),
                "credit-loss" => Some(PacketFilter::Credit),
                "ack-loss" => Some(PacketFilter::Ack),
                "probe-loss" => Some(PacketFilter::Probe),
                "sched-loss" => Some(PacketFilter::Scheduled),
                "unsched-loss" => Some(PacketFilter::Unscheduled),
                _ => None,
            };
            if let Some(filter) = filter {
                plan = plan.with_loss(parse_prob(val)?, filter, LinkFilter::All);
                continue;
            }
            match key {
                "seed" => {
                    plan.seed = val.parse().map_err(|_| format!("bad seed '{val}'"))?;
                }
                "down" | "degrade" => {
                    let (range, slow) = match val.split_once('@') {
                        Some((r, n)) => {
                            if key == "down" {
                                return Err(format!("'down' takes no @factor: '{tok}'"));
                            }
                            let n: u32 =
                                n.parse().map_err(|_| format!("bad slowdown '{n}' in '{tok}'"))?;
                            if n < 1 {
                                return Err(format!("slowdown must be >= 1 in '{tok}'"));
                            }
                            (r, Some(n))
                        }
                        None => {
                            if key == "degrade" {
                                return Err(format!(
                                    "'degrade' needs an @factor, e.g. degrade=1ms..2ms@4"
                                ));
                            }
                            (val, None)
                        }
                    };
                    let (from, until) = range
                        .split_once("..")
                        .ok_or_else(|| format!("window '{range}' is not FROM..UNTIL"))?;
                    let (from, until) = (parse_time(from)?, parse_time(until)?);
                    if from >= until {
                        return Err(format!("empty window '{range}'"));
                    }
                    plan = match slow {
                        Some(n) => plan.with_degraded(from, until, n, LinkFilter::All),
                        None => plan.with_down(from, until, LinkFilter::All),
                    };
                }
                "crash" => {
                    let (host, range) = val.split_once('@').ok_or_else(|| {
                        format!("'crash' needs a host index, e.g. crash=0@1ms..2ms: '{tok}'")
                    })?;
                    let host: usize =
                        host.parse().map_err(|_| format!("bad host index '{host}' in '{tok}'"))?;
                    let (from, until) = parse_window(range)?;
                    plan = plan.with_crash(from, until, host);
                }
                "arbiter" => {
                    if val.contains('@') {
                        return Err(format!("'arbiter' takes no @host: '{tok}'"));
                    }
                    let (from, until) = parse_window(val)?;
                    plan = plan.with_arbiter_outage(from, until);
                }
                "partition" => {
                    if val.contains('@') {
                        return Err(format!("'partition' takes no @host: '{tok}'"));
                    }
                    let (from, until) = parse_window(val)?;
                    plan = plan.with_partition(from, until);
                }
                _ => return Err(format!("unknown fault directive '{key}'")),
            }
        }
        Ok(plan)
    }
}

/// Render a time in the largest unit that divides it exactly (the forms
/// [`parse_time`] accepts), falling back to bare picoseconds.
fn fmt_time(t: Time) -> String {
    if t == 0 {
        return "0".into();
    }
    for (scale, unit) in
        [(PS_PER_SEC, "s"), (PS_PER_MS, "ms"), (PS_PER_US, "us"), (PS_PER_NS, "ns")]
    {
        if t % scale == 0 {
            return format!("{}{unit}", t / scale);
        }
    }
    format!("{t}")
}

impl fmt::Display for FaultPlan {
    /// The canonical `--faults` spec for this plan: `Display` then
    /// [`FromStr`] round-trips to an equal plan for every plan the grammar
    /// can express. Link targeting beyond [`LinkFilter::All`] (builder-only)
    /// is not expressible and renders as the all-links directive.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        let mut sep = |f: &mut fmt::Formatter<'_>| -> fmt::Result {
            if first {
                first = false;
                Ok(())
            } else {
                write!(f, ", ")
            }
        };
        for rule in &self.corruption {
            let key = match rule.filter {
                PacketFilter::Any => "loss",
                PacketFilter::Data => "data-loss",
                PacketFilter::Control => "ctrl-loss",
                PacketFilter::Credit => "credit-loss",
                PacketFilter::Ack => "ack-loss",
                PacketFilter::Probe => "probe-loss",
                PacketFilter::Scheduled => "sched-loss",
                PacketFilter::Unscheduled => "unsched-loss",
            };
            sep(f)?;
            write!(f, "{key}={}", rule.prob)?;
        }
        for w in &self.windows {
            sep(f)?;
            match w.kind {
                WindowKind::Down => {
                    write!(f, "down={}..{}", fmt_time(w.from), fmt_time(w.until))?;
                }
                WindowKind::Degraded { slowdown } => {
                    write!(f, "degrade={}..{}@{slowdown}", fmt_time(w.from), fmt_time(w.until))?;
                }
            }
        }
        for w in &self.node_windows {
            sep(f)?;
            // Resolved selectors project the raw node id into the host-index
            // position (like builder-only link filters, they are outside
            // the grammar and render on a best-effort basis).
            let idx = match w.node {
                NodeSelector::Host(i) => i,
                NodeSelector::Node(n) => n.0 as usize,
            };
            match w.kind {
                NodeFaultKind::Crash => {
                    write!(f, "crash={idx}@{}..{}", fmt_time(w.from), fmt_time(w.until))?;
                }
                NodeFaultKind::ArbiterOutage => {
                    write!(f, "arbiter={}..{}", fmt_time(w.from), fmt_time(w.until))?;
                }
            }
        }
        for &(from, until) in &self.arbiter_outages {
            sep(f)?;
            write!(f, "arbiter={}..{}", fmt_time(from), fmt_time(until))?;
        }
        for &(from, until) in &self.partitions {
            sep(f)?;
            write!(f, "partition={}..{}", fmt_time(from), fmt_time(until))?;
        }
        if self.seed != 0 {
            sep(f)?;
            write!(f, "seed={}", self.seed)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::FlowId;
    use crate::units::{ms, us};

    fn pkt(kind: PacketKind, class: TrafficClass) -> Packet {
        match kind {
            PacketKind::Data => {
                Packet::data(FlowId(1), NodeId(0), NodeId(1), 0, 100, class, 1000)
            }
            k => {
                let mut p = Packet::control(FlowId(1), NodeId(0), NodeId(1), 0, k);
                p.class = class;
                p
            }
        }
    }

    #[test]
    fn empty_plan_is_inert() {
        let plan = FaultPlan::default();
        assert!(plan.is_empty());
        let mut rng = SimRng::seed_from_u64(1);
        let before = rng.next_u64();
        let mut rng = SimRng::seed_from_u64(1);
        assert!(!plan.corrupts(
            NodeId(0),
            PortId(0),
            NodeId(1),
            &pkt(PacketKind::Data, TrafficClass::Scheduled),
            &mut rng
        ));
        // No rule matched, so the stream is untouched.
        assert_eq!(rng.next_u64(), before);
        assert!(!plan.link_down_at(NodeId(0), PortId(0), NodeId(1), 0));
        assert_eq!(plan.slowdown_at(NodeId(0), PortId(0), NodeId(1), 0), 1);
        assert!(!plan.node_down_at(NodeId(0), 0));
        assert!(!plan.has_node_faults());
        assert!(plan.is_resolved());
    }

    #[test]
    fn packet_filters_select_the_right_kinds() {
        let credit = pkt(PacketKind::Credit, TrafficClass::Control);
        let data = pkt(PacketKind::Data, TrafficClass::Unscheduled);
        let probe = pkt(PacketKind::Probe, TrafficClass::Unscheduled);
        let ack = pkt(PacketKind::Ack { of_probe: false, end: 0 }, TrafficClass::Control);
        assert!(PacketFilter::Credit.matches(&credit));
        assert!(!PacketFilter::Credit.matches(&data));
        assert!(PacketFilter::Data.matches(&data));
        assert!(!PacketFilter::Data.matches(&probe));
        assert!(PacketFilter::Control.matches(&probe));
        assert!(PacketFilter::Probe.matches(&probe));
        assert!(PacketFilter::Ack.matches(&ack));
        assert!(PacketFilter::Unscheduled.matches(&data));
        assert!(!PacketFilter::Scheduled.matches(&data));
        assert!(PacketFilter::Any.matches(&credit));
    }

    #[test]
    fn windows_cover_and_overlap_half_open() {
        let w = LinkWindow {
            from: ms(1),
            until: ms(2),
            links: LinkFilter::All,
            kind: WindowKind::Down,
        };
        assert!(w.covers(ms(1)));
        assert!(!w.covers(ms(2)));
        assert!(w.overlaps(0, ms(1) + 1));
        assert!(!w.overlaps(0, ms(1)));
        assert!(w.overlaps(ms(2) - 1, ms(3)));
        assert!(!w.overlaps(ms(2), ms(3)));
    }

    #[test]
    fn down_and_degrade_queries_respect_link_filters() {
        let plan = FaultPlan::new(7)
            .with_down(ms(1), ms(2), LinkFilter::Node(NodeId(3)))
            .with_degraded(ms(1), ms(3), 4, LinkFilter::Link(NodeId(5), PortId(2)));
        let far = NodeId(99);
        assert!(plan.link_down_at(NodeId(3), PortId(0), far, ms(1)));
        assert!(!plan.link_down_at(NodeId(4), PortId(0), far, ms(1)));
        use crate::queues::DropReason;
        assert_eq!(
            plan.cut_reason(NodeId(3), PortId(9), far, ms(2) - 1, ms(2)),
            Some(DropReason::LinkDown)
        );
        assert_eq!(plan.cut_reason(NodeId(3), PortId(9), far, ms(2), ms(3)), None);
        assert_eq!(plan.slowdown_at(NodeId(5), PortId(2), far, ms(2)), 4);
        assert_eq!(plan.slowdown_at(NodeId(5), PortId(1), far, ms(2)), 1);
    }

    #[test]
    fn adjacent_filter_matches_both_directions() {
        let f = LinkFilter::Adjacent(NodeId(3));
        assert!(f.matches(NodeId(3), PortId(0), NodeId(9)), "egress of the node");
        assert!(f.matches(NodeId(9), PortId(4), NodeId(3)), "ingress toward the node");
        assert!(!f.matches(NodeId(9), PortId(4), NodeId(8)));
    }

    #[test]
    fn node_windows_cut_links_on_both_endpoints() {
        let mut plan = FaultPlan::new(0).with_crash(ms(1), ms(2), 0);
        assert!(plan.has_node_faults());
        assert!(!plan.is_resolved());
        plan.resolve(&[NodeId(7), NodeId(8)], None);
        assert!(plan.is_resolved());
        assert!(plan.node_down_at(NodeId(7), ms(1)));
        assert!(!plan.node_down_at(NodeId(7), ms(2)), "restart instant is alive");
        assert!(!plan.node_down_at(NodeId(8), ms(1)));
        // The crashed node's egress and every link toward it are down.
        assert!(plan.link_down_at(NodeId(7), PortId(0), NodeId(2), ms(1)));
        assert!(plan.link_down_at(NodeId(2), PortId(5), NodeId(7), ms(1)));
        assert!(!plan.link_down_at(NodeId(2), PortId(5), NodeId(8), ms(1)));
        use crate::queues::DropReason;
        assert_eq!(
            plan.cut_reason(NodeId(2), PortId(5), NodeId(7), ms(2) - 1, ms(2)),
            Some(DropReason::NodeDown)
        );
        assert_eq!(plan.cut_reason(NodeId(2), PortId(5), NodeId(7), ms(2), ms(3)), None);
        assert_eq!(plan.node_drop_reason(NodeId(7), ms(1)), DropReason::NodeDown);
    }

    #[test]
    fn arbiter_outage_resolves_to_node_window_or_blackout() {
        use crate::queues::DropReason;
        // With an arbiter host: a crash-like window with arbiter taxonomy.
        let mut with_arb = FaultPlan::new(0).with_arbiter_outage(ms(1), ms(2));
        with_arb.resolve(&[NodeId(1)], Some(NodeId(9)));
        assert!(with_arb.is_resolved());
        assert!(with_arb.node_down_at(NodeId(9), ms(1)));
        assert_eq!(with_arb.node_drop_reason(NodeId(9), ms(1)), DropReason::ArbiterDown);
        assert_eq!(
            with_arb.cut_reason(NodeId(9), PortId(0), NodeId(1), ms(1), ms(1) + 1),
            Some(DropReason::ArbiterDown)
        );
        // Without one: a credit blackout killing credit-carrying packets.
        let mut no_arb = FaultPlan::new(0).with_arbiter_outage(ms(1), ms(2));
        no_arb.resolve(&[NodeId(1)], None);
        assert!(no_arb.is_resolved());
        assert_eq!(no_arb.blackouts, vec![(ms(1), ms(2))]);
        let credit = pkt(PacketKind::Credit, TrafficClass::Control);
        let data = pkt(PacketKind::Data, TrafficClass::Scheduled);
        assert!(no_arb.blackout_kills(&credit, ms(1)));
        assert!(!no_arb.blackout_kills(&credit, ms(2)), "half-open window");
        assert!(!no_arb.blackout_kills(&data, ms(1)), "data rides through a credit stall");
    }

    #[test]
    fn partition_expands_to_adjacent_down_windows_over_upper_half() {
        let hosts = [NodeId(4), NodeId(5), NodeId(6), NodeId(7)];
        let mut plan = FaultPlan::new(0).with_partition(ms(1), ms(2));
        plan.resolve(&hosts, None);
        assert!(plan.is_resolved());
        assert_eq!(plan.windows.len(), 2, "upper half = two hosts");
        for (w, h) in plan.windows.iter().zip([NodeId(6), NodeId(7)]) {
            assert_eq!(w.kind, WindowKind::Down);
            assert_eq!(w.links, LinkFilter::Adjacent(h));
        }
        // Cross-partition links are dark, intra-lower-half links are not.
        assert!(plan.link_down_at(NodeId(0), PortId(2), NodeId(6), ms(1)));
        assert!(plan.link_down_at(NodeId(7), PortId(0), NodeId(0), ms(1)));
        assert!(!plan.link_down_at(NodeId(4), PortId(0), NodeId(5), ms(1)));
    }

    #[test]
    fn host_selector_resolution_wraps_modulo_host_count() {
        let mut plan = FaultPlan::new(0).with_crash(ms(1), ms(2), 5);
        plan.resolve(&[NodeId(10), NodeId(11)], None);
        assert_eq!(plan.node_windows[0].node, NodeSelector::Node(NodeId(11)));
    }

    #[test]
    fn corruption_at_prob_one_always_fires_and_zero_never() {
        let always = FaultPlan::new(1).with_loss(1.0, PacketFilter::Any, LinkFilter::All);
        let never = FaultPlan::new(1).with_loss(0.0, PacketFilter::Any, LinkFilter::All);
        let p = pkt(PacketKind::Data, TrafficClass::Scheduled);
        let mut rng = SimRng::seed_from_u64(2);
        for _ in 0..64 {
            assert!(always.corrupts(NodeId(0), PortId(0), NodeId(99), &p, &mut rng));
            assert!(!never.corrupts(NodeId(0), PortId(0), NodeId(99), &p, &mut rng));
        }
    }

    #[test]
    fn corruption_rate_is_close_to_nominal() {
        let plan = FaultPlan::new(42).with_loss(0.1, PacketFilter::Any, LinkFilter::All);
        let p = pkt(PacketKind::Data, TrafficClass::Scheduled);
        let mut rng = SimRng::seed_from_u64(plan.seed);
        let hits = (0..20_000)
            .filter(|_| plan.corrupts(NodeId(0), PortId(0), NodeId(99), &p, &mut rng))
            .count();
        let rate = hits as f64 / 20_000.0;
        assert!((rate - 0.1).abs() < 0.01, "observed corruption rate {rate}");
    }

    #[test]
    fn spec_parses_full_grammar() {
        let plan: FaultPlan =
            "loss=0.5%, credit-loss=0.02, down=1ms..1.5ms, degrade=2ms..3ms@4, seed=9"
                .parse()
                .unwrap();
        assert_eq!(plan.seed, 9);
        assert_eq!(plan.corruption.len(), 2);
        assert!((plan.corruption[0].prob - 0.005).abs() < 1e-12);
        assert_eq!(plan.corruption[0].filter, PacketFilter::Any);
        assert_eq!(plan.corruption[1].filter, PacketFilter::Credit);
        assert_eq!(plan.windows.len(), 2);
        assert_eq!(plan.windows[0].kind, WindowKind::Down);
        assert_eq!(plan.windows[0].from, ms(1));
        assert_eq!(plan.windows[0].until, ms(1) + us(500));
        assert_eq!(plan.windows[1].kind, WindowKind::Degraded { slowdown: 4 });
    }

    #[test]
    fn spec_rejects_nonsense() {
        assert!("loss=2".parse::<FaultPlan>().is_err());
        assert!("loss=-0.1".parse::<FaultPlan>().is_err());
        assert!("bogus=1".parse::<FaultPlan>().is_err());
        assert!("down=2ms..1ms".parse::<FaultPlan>().is_err());
        assert!("down=1ms..2ms@3".parse::<FaultPlan>().is_err());
        assert!("degrade=1ms..2ms".parse::<FaultPlan>().is_err());
        assert!("loss".parse::<FaultPlan>().is_err());
        assert!("down=oops".parse::<FaultPlan>().is_err());
    }

    #[test]
    fn display_round_trips_through_the_grammar() {
        let specs = [
            "loss=0.005",
            "loss=0.005, credit-loss=0.02, down=1ms..1500us, degrade=2ms..3ms@4, seed=9",
            "data-loss=0.1, ctrl-loss=0.25, ack-loss=1, probe-loss=0.5",
            "sched-loss=0.001, unsched-loss=0.002, down=0..300ns",
            "degrade=1us..1000001@2",
            "crash=0@1ms..2ms",
            "crash=3@200us..500us, crash=0@1ms..1100us, seed=5",
            "arbiter=1ms..2ms, partition=3ms..4ms",
            "loss=0.01, crash=1@100us..300us, arbiter=1ms..1500us, partition=2ms..2500us",
            "",
        ];
        for spec in specs {
            let plan: FaultPlan = spec.parse().unwrap();
            let rendered = plan.to_string();
            let reparsed: FaultPlan =
                rendered.parse().unwrap_or_else(|e| panic!("'{rendered}' did not reparse: {e}"));
            assert_eq!(plan, reparsed, "spec '{spec}' rendered as '{rendered}'");
            // A second round is a fixpoint: the rendering is canonical.
            assert_eq!(reparsed.to_string(), rendered);
        }
    }

    #[test]
    fn display_projects_builder_only_link_filters_to_all() {
        let plan = FaultPlan::new(0).with_down(ms(1), ms(2), LinkFilter::Node(NodeId(3)));
        let reparsed: FaultPlan = plan.to_string().parse().unwrap();
        assert_eq!(reparsed.windows[0].links, LinkFilter::All);
        assert_eq!(reparsed.windows[0].from, ms(1));
        assert_eq!(reparsed.windows[0].until, ms(2));
    }

    #[test]
    fn malformed_specs_report_the_offending_directive() {
        let err = |s: &str| s.parse::<FaultPlan>().unwrap_err();
        assert!(err("loss=2").contains("outside [0, 1]"), "{}", err("loss=2"));
        assert!(err("loss=150%").contains("outside [0, 1]"));
        assert!(err("down=2ms..1ms").contains("empty window"));
        assert!(err("down=1ms..1ms").contains("empty window"));
        assert!(err("down=1xs..2xs").contains("unknown time unit"));
        assert!(err("down=1ms..4parsecs").contains("unknown time unit"));
        assert!(err("degrade=1ms..2ms@0").contains("slowdown must be >= 1"));
        assert!(err("degrade=1ms..2ms@fast").contains("bad slowdown"));
        assert!(err("seed=banana").contains("bad seed"));
        assert!(err("loss=banana").contains("bad probability"));
        assert!(err("flubber=1").contains("unknown fault directive"));
        assert!(err("loss").contains("not KEY=VALUE"));
        // Node-fault grammar error paths (mirrors the degrade@0 class of
        // bugs: every malformed directive names itself in the error).
        assert!(err("crash=1ms..2ms").contains("needs a host index"), "{}", err("crash=1ms..2ms"));
        assert!(err("crash=x@1ms..2ms").contains("bad host index"));
        assert!(err("crash=0@2ms..1ms").contains("empty window"));
        assert!(err("crash=0@2ms..2ms").contains("empty window"));
        assert!(err("crash=0@oops").contains("not FROM..UNTIL"));
        assert!(err("arbiter=2ms..1ms").contains("empty window"));
        assert!(err("arbiter=0@1ms..2ms").contains("takes no @host"));
        assert!(err("partition=2ms..1ms").contains("empty window"));
        assert!(err("partition=0@1ms..2ms").contains("takes no @host"));
        assert!(err("partition=1xs..2xs").contains("unknown time unit"));
    }

    #[test]
    fn spec_time_units_parse() {
        assert_eq!(parse_time("300ns").unwrap(), 300 * PS_PER_NS);
        assert_eq!(parse_time("2.5us").unwrap(), 2 * PS_PER_US + PS_PER_US / 2);
        assert_eq!(parse_time("1s").unwrap(), PS_PER_SEC);
        assert_eq!(parse_time("1200").unwrap(), 1200);
        assert!(parse_time("4parsecs").is_err());
    }
}
