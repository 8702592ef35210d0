//! Deterministic fault injection: corruption loss, link flaps, degraded
//! links, host crashes, arbiter outages and pod partitions.
//!
//! The Aeolus paper's recovery argument (§3.3) assumes scheduled packets are
//! lost only to congestion. A [`FaultPlan`] breaks that assumption on
//! purpose: it attaches non-congestion loss to the engine so the transports'
//! recovery machinery can be exercised against a hostile fabric.
//!
//! One window type, [`Window`], in two representations:
//!
//! - **As written** — [`FaultPlan`]: a seed, the corruption rules and a list
//!   of `Window<Fault>`. A [`Fault`] is symbolic: it names links by
//!   [`LinkFilter`], a crashed host by its *index* in the workload host
//!   list, and "the arbiter" and "a partition" by nothing at all. The text
//!   grammar ([`FromStr`] / [`fmt::Display`]), the builder methods, plan
//!   equality, the fuzzer's shrinker and the result cache all work on this
//!   form, and it never holds a node id for a crash — there is no
//!   half-resolved plan.
//! - **As run** — [`FaultIndex`]: the same windows as `Window<Effect>`, bound
//!   to one topology. [`FaultIndex::new`] is the only place symbols meet node
//!   ids, and who calls it decides what they mean: the harness
//!   (`Harness::install_faults`) passes its workload host list, which
//!   excludes a Fastpass arbiter, and the arbiter's id when the scheme has
//!   one. `crash=i` binds to `hosts[i % len]`; `arbiter=` is a crash of the
//!   arbiter host where there is one and a credit [`Effect::Blackout`] where
//!   the credit source is every receiver NIC; `partition=` darkens every
//!   link adjacent to the upper half of `hosts`. The index also keeps the
//!   subset of its windows open right now, so the engine's per-packet
//!   questions ([`link_down_at`], [`cut_reason`], ...) cost O(open windows).
//!
//! Every effect acts at the egress link (after the queue discipline, i.e.
//! the failure happens *on the wire*, never inside the switch buffer —
//! corruption loss is accounted separately from selective dropping by
//! construction) or at the dead node's NIC:
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
//! - **Dead nodes** ([`Effect::Crash`], [`Effect::ArbiterDown`]): every link
//!   touching the node is down and arrivals die at its NIC.
//! - **Credit blackouts** ([`Effect::Blackout`]): credit-carrying control
//!   packets die at egress.
//!
//! Determinism: the plan owns its RNG seed, and every fault decision is a
//! pure function of (plan, packet transmission order). An **empty plan draws
//! zero random numbers and schedules zero events** — the engine's fast path
//! is byte-for-byte identical to a build without faults.

use std::fmt;
use std::str::FromStr;

use crate::packet::{NodeId, Packet, PacketKind, PortId, TrafficClass};
use crate::queues::DropReason;
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
/// What happens to a link inside a link window.
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

/// A scheduled `[from, until)` window and what happens inside it: a
/// [`Fault`] in the plan as written, an [`Effect`] in the index as run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window<W> {
    /// Window start (inclusive).
    pub from: Time,
    /// Window end (exclusive).
    pub until: Time,
    /// What happens in between.
    pub what: W,
}

impl<W> Window<W> {
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

/// What a window of the plan *as written* says. Symbolic: a crash names a
/// host index, an arbiter outage and a partition name nothing, and only
/// [`FaultIndex::new`] gives them a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The matching links are down (`down=`) or degraded (`degrade=`).
    Link(LinkFilter, WindowKind),
    /// The i-th workload host (modulo the host count) is dead: `crash=I@`.
    Crash(usize),
    /// The arbiter / credit source is out: `arbiter=`.
    ArbiterOutage,
    /// The upper half of the workload hosts is cut off: `partition=`.
    Partition,
}

impl Fault {
    /// Where the fault's class stands in the order the grammar prints:
    /// link windows, crashes, arbiter outages, partitions.
    fn rank(&self) -> u8 {
        match self {
            Fault::Link(..) => 0,
            Fault::Crash(_) => 1,
            Fault::ArbiterOutage => 2,
            Fault::Partition => 3,
        }
    }
}

/// A complete, seeded fault schedule for one run, as written.
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
    /// Every scheduled window, in the class order the grammar prints — link
    /// windows, crashes, arbiter outages, partitions — and in call order
    /// within a class (the builder methods keep it so). Plan equality,
    /// `Display`, the shrinker's visiting order and the install order all
    /// read this one list, so directive order *across* classes is not part
    /// of a plan.
    pub windows: Vec<Window<Fault>>,
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

    /// Add a window after the last one of its class.
    fn with_window(mut self, from: Time, until: Time, what: Fault) -> FaultPlan {
        assert!(from < until, "empty {what:?} window {from}..{until}");
        let at = self.windows.partition_point(|w| w.what.rank() <= what.rank());
        self.windows.insert(at, Window { from, until, what });
        self
    }

    /// Add a link-down window over `[from, until)`.
    pub fn with_down(self, from: Time, until: Time, links: LinkFilter) -> FaultPlan {
        self.with_window(from, until, Fault::Link(links, WindowKind::Down))
    }

    /// Add a degraded-rate window over `[from, until)` with an integer
    /// serialization-time multiplier.
    pub fn with_degraded(
        self,
        from: Time,
        until: Time,
        slowdown: u32,
        links: LinkFilter,
    ) -> FaultPlan {
        assert!(slowdown >= 1, "degraded slowdown must be >= 1");
        self.with_window(from, until, Fault::Link(links, WindowKind::Degraded { slowdown }))
    }

    /// Crash the `host`-th workload host over `[from, until)`.
    pub fn with_crash(self, from: Time, until: Time, host: usize) -> FaultPlan {
        self.with_window(from, until, Fault::Crash(host))
    }

    /// Take the arbiter/controller down over `[from, until)`.
    pub fn with_arbiter_outage(self, from: Time, until: Time) -> FaultPlan {
        self.with_window(from, until, Fault::ArbiterOutage)
    }

    /// Partition the host set in half over `[from, until)`: every link
    /// adjacent to the upper half goes dark.
    pub fn with_partition(self, from: Time, until: Time) -> FaultPlan {
        self.with_window(from, until, Fault::Partition)
    }

    /// True when the plan injects nothing.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.corruption.is_empty() && self.windows.is_empty()
    }

    /// True when the plan carries node- or control-plane faults (crashes,
    /// arbiter outages, partitions).
    pub fn has_node_faults(&self) -> bool {
        self.windows.iter().any(|w| !matches!(w.what, Fault::Link(..)))
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

/// What a window does to one concrete topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Effect {
    /// The matching links are down or degraded.
    Link(LinkFilter, WindowKind),
    /// Host crash/restart: per-flow transport state is wiped, queued packets
    /// die as [`DropReason::NodeDown`], flows touching the host abort and
    /// relaunch on restart.
    Crash(NodeId),
    /// Arbiter/controller host outage: same mechanics as a crash, but drops
    /// are accounted as [`DropReason::ArbiterDown`] and workload flows are
    /// not aborted (only control state dies).
    ArbiterDown(NodeId),
    /// Credit blackout: every credit-carrying control packet dies at egress
    /// as [`DropReason::ArbiterDown`]. No RNG, no events — a pure
    /// per-transmit check.
    Blackout,
}

impl Effect {
    /// Why `(node, port) -> to` carries nothing under this effect, if it
    /// does not: a down window on the link, or a dead node at either end.
    #[inline]
    fn severs(&self, node: NodeId, port: PortId, to: NodeId) -> Option<DropReason> {
        match *self {
            Effect::Link(links, WindowKind::Down) if links.matches(node, port, to) => {
                Some(DropReason::LinkDown)
            }
            Effect::Crash(n) if n == node || n == to => Some(DropReason::NodeDown),
            Effect::ArbiterDown(n) if n == node || n == to => Some(DropReason::ArbiterDown),
            _ => None,
        }
    }
}

/// Is `n` inside a crash/outage window of `ws` at `t`?
#[inline]
pub fn node_down_at(ws: &[Window<Effect>], n: NodeId, t: Time) -> bool {
    ws.iter()
        .any(|w| w.covers(t) && matches!(w.what, Effect::Crash(d) | Effect::ArbiterDown(d) if d == n))
}

/// The drop reason for traffic dying at dead node `n` at `t`: `ArbiterDown`
/// if an arbiter-outage window covers it, else `NodeDown`.
#[inline]
pub fn node_drop_reason(ws: &[Window<Effect>], n: NodeId, t: Time) -> DropReason {
    if ws.iter().any(|w| w.covers(t) && w.what == Effect::ArbiterDown(n)) {
        DropReason::ArbiterDown
    } else {
        DropReason::NodeDown
    }
}

/// Is the egress link `(node, port) -> to` down at `t`? True for link down
/// windows and whenever either endpoint node is dead.
#[inline]
pub fn link_down_at(
    ws: &[Window<Effect>],
    node: NodeId,
    port: PortId,
    to: NodeId,
    t: Time,
) -> bool {
    ws.iter().any(|w| w.covers(t) && w.what.severs(node, port, to).is_some())
}

/// If a window severing `(node, port) -> to` overlaps `[t0, t1)`, the drop
/// reason for the cut: node faults take precedence over link windows so the
/// taxonomy names the root cause, and the first node window in list order
/// names it. Used to cut packets whose serialization straddles a window
/// start.
#[inline]
pub fn cut_reason(
    ws: &[Window<Effect>],
    node: NodeId,
    port: PortId,
    to: NodeId,
    t0: Time,
    t1: Time,
) -> Option<DropReason> {
    let mut cuts =
        ws.iter().filter(|w| w.overlaps(t0, t1)).filter_map(|w| w.what.severs(node, port, to));
    cuts.clone().find(|&r| r != DropReason::LinkDown).or_else(|| cuts.next())
}

/// Does a credit blackout kill this transmission? True only for
/// credit-carrying control packets inside a blackout window.
#[inline]
pub fn blackout_kills(ws: &[Window<Effect>], pkt: &Packet, t: Time) -> bool {
    ws.iter().any(|w| w.what == Effect::Blackout && w.covers(t))
        && PacketFilter::Credit.matches(pkt)
}

/// Serialization-time multiplier for `(node, port) -> to` at `t` (1 = full
/// rate). Overlapping degraded windows compound via the maximum.
#[inline]
pub fn slowdown_at(ws: &[Window<Effect>], node: NodeId, port: PortId, to: NodeId, t: Time) -> u32 {
    ws.iter()
        .filter_map(|w| match w.what {
            Effect::Link(links, WindowKind::Degraded { slowdown })
                if w.covers(t) && links.matches(node, port, to) =>
            {
                Some(slowdown)
            }
            _ => None,
        })
        .max()
        .unwrap_or(1)
}

/// A plan bound to one topology, plus the subset of it that is open right
/// now.
///
/// The engine asks the same questions at every transmission and every switch
/// arrival, while windows are open for a small fraction of a run. The index
/// keeps the windows that cover the current instant ([`FaultIndex::open_at`])
/// and the predicates above answer point queries from that subset alone, so
/// a query costs O(open windows) instead of O(plan).
///
/// The open set is a pure function of (plan, `now`): [`FaultIndex::advance`]
/// recomputes it by a full `covers(now)` scan whenever `now` reaches the next
/// window boundary — at most once per distinct boundary, 2·W times a run —
/// and between boundaries no window opens or closes. It never depends on
/// which of several same-instant events ran first.
#[derive(Debug)]
pub struct FaultIndex {
    plan: FaultPlan,
    /// The plan's windows on this topology: link windows (declared, then
    /// partition-expanded), node windows (crashes, then arbiter outages),
    /// blackouts. First-match precedence reads this order.
    windows: Vec<Window<Effect>>,
    active: bool,
    /// The windows covering `[at, valid_until)`, in `windows` order.
    open: Vec<Window<Effect>>,
    at: Time,
    /// Earliest window boundary after `at`.
    valid_until: Time,
    /// Earliest window start after `at`.
    next_start: Time,
}

impl Default for FaultIndex {
    fn default() -> FaultIndex {
        FaultIndex::new(&FaultPlan::default(), &[], None, 0)
    }
}

impl FaultIndex {
    /// Bind `plan` to a topology, starting at `now`: `hosts` is the workload
    /// host list (arbiter excluded), `arbiter` the arbiter node of a
    /// centralized scheme.
    ///
    /// - `crash=i@..` binds to `hosts[i % len]`.
    /// - `arbiter=..` is a crash-like [`Effect::ArbiterDown`] on the arbiter
    ///   when one exists, else a credit [`Effect::Blackout`]
    ///   (ExpressPass-style credit-source stall).
    /// - `partition=..` expands to coordinated [`LinkFilter::Adjacent`] down
    ///   windows over the upper half of the host set; with fewer than two
    ///   hosts there is nothing to partition.
    pub fn new(
        plan: &FaultPlan,
        hosts: &[NodeId],
        arbiter: Option<NodeId>,
        now: Time,
    ) -> FaultIndex {
        // `windows` collects the link windows, then takes the other two.
        let (mut windows, mut nodes, mut blackouts) = (Vec::new(), Vec::new(), Vec::new());
        for w in &plan.windows {
            let during = |what| Window { from: w.from, until: w.until, what };
            match w.what {
                Fault::Link(links, kind) => windows.push(during(Effect::Link(links, kind))),
                Fault::Crash(i) => {
                    assert!(!hosts.is_empty(), "crash directive with no hosts to bind to");
                    nodes.push(during(Effect::Crash(hosts[i % hosts.len()])));
                }
                Fault::ArbiterOutage => match arbiter {
                    Some(a) => nodes.push(during(Effect::ArbiterDown(a))),
                    None => blackouts.push(during(Effect::Blackout)),
                },
                Fault::Partition => windows.extend(hosts[hosts.len().div_ceil(2)..].iter().map(
                    |&h| during(Effect::Link(LinkFilter::Adjacent(h), WindowKind::Down)),
                )),
            }
        }
        windows.append(&mut nodes);
        windows.append(&mut blackouts);
        let mut idx = FaultIndex {
            active: !(plan.corruption.is_empty() && windows.is_empty()),
            plan: plan.clone(),
            windows,
            open: Vec::new(),
            at: now,
            valid_until: Time::MAX,
            next_start: Time::MAX,
        };
        idx.refresh(now);
        idx
    }

    /// The plan as written.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Every window of the run, open or not.
    pub fn windows(&self) -> &[Window<Effect>] {
        &self.windows
    }

    /// Does the plan inject anything at all? Evaluated once, at install: an
    /// empty plan then costs one flag per event and draws no randomness; an
    /// installed plan costs O(open windows) per transmission.
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
        self.open.clear();
        self.open.extend(self.windows.iter().filter(|w| w.covers(now)));
        let next = |edge: fn(&Window<Effect>) -> Time| {
            self.windows.iter().map(edge).filter(|&t| t > now).min().unwrap_or(Time::MAX)
        };
        let (next_start, next_end) = (next(|w| w.from), next(|w| w.until));
        self.at = now;
        self.valid_until = next_start.min(next_end);
        self.next_start = next_start;
    }

    /// The windows open at `t`: the point predicates at `t` answer over them
    /// as they do over [`FaultIndex::windows`]. `t` must be the instant the
    /// index was advanced to.
    #[inline]
    pub fn open_at(&self, t: Time) -> &[Window<Effect>] {
        debug_assert!(
            self.at <= t && t < self.valid_until,
            "fault index at [{}, {}) queried at {t}",
            self.at,
            self.valid_until
        );
        &self.open
    }

    /// [`cut_reason`] for a serialization `[t0, t1)` starting at the instant
    /// the index was advanced to. Only a window open at `t0` or starting
    /// inside the interval can overlap it, so the whole list is scanned only
    /// when the packet straddles a window start.
    #[inline]
    pub fn cut_reason(
        &self,
        node: NodeId,
        port: PortId,
        to: NodeId,
        t0: Time,
        t1: Time,
    ) -> Option<DropReason> {
        let ws = if t1 <= self.next_start { self.open_at(t0) } else { &self.windows };
        cut_reason(ws, node, port, to, t0, t1)
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
    let ps = (v * scale as f64).round();
    // `as Time` would saturate and the window silently end at `Time::MAX`.
    // (`v` is a non-negative number or +inf here, never NaN.)
    if ps >= 2f64.powi(64) {
        return Err(format!("time '{s}' does not fit in picoseconds"));
    }
    Ok(ps as Time)
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

/// The corruption directives: grammar key and the packets it targets.
const LOSS_KEYS: [(&str, PacketFilter); 8] = [
    ("loss", PacketFilter::Any),
    ("data-loss", PacketFilter::Data),
    ("ctrl-loss", PacketFilter::Control),
    ("credit-loss", PacketFilter::Credit),
    ("ack-loss", PacketFilter::Ack),
    ("probe-loss", PacketFilter::Probe),
    ("sched-loss", PacketFilter::Scheduled),
    ("unsched-loss", PacketFilter::Unscheduled),
];

impl FaultPlan {
    /// Apply one `KEY=VALUE` directive of the `--faults` grammar.
    fn with_directive(mut self, key: &str, val: &str) -> Result<FaultPlan, String> {
        if let Some(&(_, filter)) = LOSS_KEYS.iter().find(|(k, _)| *k == key) {
            return Ok(self.with_loss(parse_prob(val)?, filter, LinkFilter::All));
        }
        // A window that takes nothing before or after an `@`.
        let bare = |extra: &str| {
            if val.contains('@') {
                return Err(format!("'{key}' takes no @{extra}"));
            }
            parse_window(val)
        };
        Ok(match key {
            "seed" => {
                self.seed = val.parse().map_err(|_| format!("bad seed '{val}'"))?;
                self
            }
            "down" => {
                let (from, until) = bare("factor")?;
                self.with_down(from, until, LinkFilter::All)
            }
            "degrade" => {
                let (range, n) = val
                    .split_once('@')
                    .ok_or("'degrade' needs an @factor, e.g. degrade=1ms..2ms@4")?;
                let n: u32 = n.parse().map_err(|_| format!("bad slowdown '{n}'"))?;
                if n < 1 {
                    return Err("slowdown must be >= 1".into());
                }
                let (from, until) = parse_window(range)?;
                self.with_degraded(from, until, n, LinkFilter::All)
            }
            "crash" => {
                let (host, range) = val
                    .split_once('@')
                    .ok_or("'crash' needs a host index, e.g. crash=0@1ms..2ms")?;
                let host = host.parse().map_err(|_| format!("bad host index '{host}'"))?;
                let (from, until) = parse_window(range)?;
                self.with_crash(from, until, host)
            }
            "arbiter" => {
                let (from, until) = bare("host")?;
                self.with_arbiter_outage(from, until)
            }
            "partition" => {
                let (from, until) = bare("host")?;
                self.with_partition(from, until)
            }
            _ => return Err(format!("unknown fault directive '{key}'")),
        })
    }
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
    /// beyond this grammar is available through the builder API. Every
    /// error names the directive it is about.
    fn from_str(s: &str) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::default();
        for tok in s.split(',').map(str::trim).filter(|t| !t.is_empty()) {
            let (key, val) = tok
                .split_once('=')
                .ok_or_else(|| format!("fault directive '{tok}' is not KEY=VALUE"))?;
            plan = plan.with_directive(key, val).map_err(|e| format!("{e} in '{tok}'"))?;
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
        if t.is_multiple_of(scale) {
            return format!("{}{unit}", t / scale);
        }
    }
    format!("{t}")
}

impl fmt::Display for Window<Fault> {
    /// The window's directive. Link targeting beyond [`LinkFilter::All`]
    /// (builder-only) is not expressible and renders as the all-links form.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let span = format!("{}..{}", fmt_time(self.from), fmt_time(self.until));
        match self.what {
            Fault::Link(_, WindowKind::Down) => write!(f, "down={span}"),
            Fault::Link(_, WindowKind::Degraded { slowdown }) => {
                write!(f, "degrade={span}@{slowdown}")
            }
            Fault::Crash(host) => write!(f, "crash={host}@{span}"),
            Fault::ArbiterOutage => write!(f, "arbiter={span}"),
            Fault::Partition => write!(f, "partition={span}"),
        }
    }
}

impl fmt::Display for FaultPlan {
    /// The canonical `--faults` spec for this plan: `Display` then
    /// [`FromStr`] round-trips to an equal plan for every plan the grammar
    /// can express.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let key = |filter| {
            LOSS_KEYS.iter().find(|(_, of)| *of == filter).expect("every filter has a key").0
        };
        let rules = self.corruption.iter().map(|r| format!("{}={}", key(r.filter), r.prob));
        let windows = self.windows.iter().map(|w| w.to_string());
        let seed = (self.seed != 0).then(|| format!("seed={}", self.seed));
        f.write_str(&rules.chain(windows).chain(seed).collect::<Vec<_>>().join(", "))
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

    /// Every window of a run of `plan` on `hosts` and `arbiter`.
    fn bound(plan: &FaultPlan, hosts: &[NodeId], arbiter: Option<NodeId>) -> Vec<Window<Effect>> {
        FaultIndex::new(plan, hosts, arbiter, 0).windows().to_vec()
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
        assert!(!plan.has_node_faults());
        let idx = FaultIndex::new(&plan, &[NodeId(0), NodeId(1)], Some(NodeId(2)), 0);
        assert!(!idx.active());
        assert!(idx.windows().is_empty() && idx.open_at(0).is_empty());
        assert!(!link_down_at(idx.open_at(0), NodeId(0), PortId(0), NodeId(1), 0));
        assert_eq!(slowdown_at(idx.open_at(0), NodeId(0), PortId(0), NodeId(1), 0), 1);
        assert!(!node_down_at(idx.open_at(0), NodeId(0), 0));
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
        let w = Window { from: ms(1), until: ms(2), what: Fault::Partition };
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
        let (ws, far) = (bound(&plan, &[], None), NodeId(99));
        assert!(link_down_at(&ws, NodeId(3), PortId(0), far, ms(1)));
        assert!(!link_down_at(&ws, NodeId(4), PortId(0), far, ms(1)));
        assert_eq!(
            cut_reason(&ws, NodeId(3), PortId(9), far, ms(2) - 1, ms(2)),
            Some(DropReason::LinkDown)
        );
        assert_eq!(cut_reason(&ws, NodeId(3), PortId(9), far, ms(2), ms(3)), None);
        assert_eq!(slowdown_at(&ws, NodeId(5), PortId(2), far, ms(2)), 4);
        assert_eq!(slowdown_at(&ws, NodeId(5), PortId(1), far, ms(2)), 1);
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
        let plan = FaultPlan::new(0).with_crash(ms(1), ms(2), 0);
        assert!(plan.has_node_faults());
        let ws = bound(&plan, &[NodeId(7), NodeId(8)], None);
        assert!(node_down_at(&ws, NodeId(7), ms(1)));
        assert!(!node_down_at(&ws, NodeId(7), ms(2)), "restart instant is alive");
        assert!(!node_down_at(&ws, NodeId(8), ms(1)));
        // The crashed node's egress and every link toward it are down.
        assert!(link_down_at(&ws, NodeId(7), PortId(0), NodeId(2), ms(1)));
        assert!(link_down_at(&ws, NodeId(2), PortId(5), NodeId(7), ms(1)));
        assert!(!link_down_at(&ws, NodeId(2), PortId(5), NodeId(8), ms(1)));
        assert_eq!(
            cut_reason(&ws, NodeId(2), PortId(5), NodeId(7), ms(2) - 1, ms(2)),
            Some(DropReason::NodeDown)
        );
        assert_eq!(cut_reason(&ws, NodeId(2), PortId(5), NodeId(7), ms(2), ms(3)), None);
        assert_eq!(node_drop_reason(&ws, NodeId(7), ms(1)), DropReason::NodeDown);
    }

    #[test]
    fn arbiter_outage_resolves_to_node_window_or_blackout() {
        let plan = FaultPlan::new(0).with_arbiter_outage(ms(1), ms(2));
        assert!(plan.has_node_faults());
        let credit = pkt(PacketKind::Credit, TrafficClass::Control);
        let data = pkt(PacketKind::Data, TrafficClass::Scheduled);
        // With an arbiter host: a crash-like window with arbiter taxonomy.
        let with_arb = bound(&plan, &[NodeId(1)], Some(NodeId(9)));
        let during = |what| Window { from: ms(1), until: ms(2), what };
        assert_eq!(with_arb, [during(Effect::ArbiterDown(NodeId(9)))]);
        assert!(node_down_at(&with_arb, NodeId(9), ms(1)));
        assert_eq!(node_drop_reason(&with_arb, NodeId(9), ms(1)), DropReason::ArbiterDown);
        assert_eq!(
            cut_reason(&with_arb, NodeId(9), PortId(0), NodeId(1), ms(1), ms(1) + 1),
            Some(DropReason::ArbiterDown)
        );
        assert!(!blackout_kills(&with_arb, &credit, ms(1)), "the arbiter died, not the credits");
        // Without one: a credit blackout killing credit-carrying packets.
        let no_arb = bound(&plan, &[NodeId(1)], None);
        assert_eq!(no_arb, [during(Effect::Blackout)]);
        assert!(blackout_kills(&no_arb, &credit, ms(1)));
        assert!(!blackout_kills(&no_arb, &credit, ms(2)), "half-open window");
        assert!(!blackout_kills(&no_arb, &data, ms(1)), "data rides through a credit stall");
        assert!(!node_down_at(&no_arb, NodeId(1), ms(1)), "and no node goes down");
        assert!(!link_down_at(&no_arb, NodeId(1), PortId(0), NodeId(0), ms(1)));
    }

    #[test]
    fn partition_expands_to_adjacent_down_windows_over_upper_half() {
        let hosts = [NodeId(4), NodeId(5), NodeId(6), NodeId(7)];
        let plan = FaultPlan::new(0).with_partition(ms(1), ms(2));
        // The arbiter is not a workload host: no partition darkens it.
        let ws = bound(&plan, &hosts, Some(NodeId(8)));
        let dark = |h| Window {
            from: ms(1),
            until: ms(2),
            what: Effect::Link(LinkFilter::Adjacent(NodeId(h)), WindowKind::Down),
        };
        assert_eq!(ws, [dark(6), dark(7)], "upper half = two hosts");
        // Cross-partition links are dark, intra-lower-half links are not.
        assert!(link_down_at(&ws, NodeId(0), PortId(2), NodeId(6), ms(1)));
        assert!(link_down_at(&ws, NodeId(7), PortId(0), NodeId(0), ms(1)));
        assert!(!link_down_at(&ws, NodeId(4), PortId(0), NodeId(5), ms(1)));
        assert!(!link_down_at(&ws, NodeId(0), PortId(3), NodeId(8), ms(1)));
        // Five hosts: the upper half is the last two. One host: nothing.
        assert_eq!(bound(&plan, &hosts[..3], None), [dark(6)]);
        assert_eq!(bound(&plan, &hosts[..1], None), []);
    }

    #[test]
    fn host_selector_resolution_wraps_modulo_host_count() {
        let plan = FaultPlan::new(0).with_crash(ms(1), ms(2), 5);
        let ws = bound(&plan, &[NodeId(10), NodeId(11)], None);
        assert_eq!(ws, [Window { from: ms(1), until: ms(2), what: Effect::Crash(NodeId(11)) }]);
    }

    #[test]
    fn builders_keep_windows_in_the_class_order_the_grammar_prints() {
        let all = LinkFilter::All;
        let scrambled = FaultPlan::new(4)
            .with_partition(ms(7), ms(8))
            .with_crash(ms(3), ms(4), 2)
            .with_degraded(ms(1), ms(2), 3, all)
            .with_arbiter_outage(ms(5), ms(6))
            .with_crash(us(1), us(2), 0)
            .with_down(0, 1, all);
        let whats: Vec<Fault> = scrambled.windows.iter().map(|w| w.what).collect();
        assert_eq!(
            whats,
            [
                Fault::Link(all, WindowKind::Degraded { slowdown: 3 }),
                Fault::Link(all, WindowKind::Down),
                Fault::Crash(2),
                Fault::Crash(0),
                Fault::ArbiterOutage,
                Fault::Partition,
            ],
            "class order across kinds, call order within one"
        );
        let canonical = FaultPlan::new(4)
            .with_degraded(ms(1), ms(2), 3, all)
            .with_down(0, 1, all)
            .with_crash(ms(3), ms(4), 2)
            .with_crash(us(1), us(2), 0)
            .with_arbiter_outage(ms(5), ms(6))
            .with_partition(ms(7), ms(8));
        assert_eq!(scrambled, canonical, "call order across kinds is not part of a plan");
        let swapped = FaultPlan::new(4).with_crash(us(1), us(2), 0).with_crash(ms(3), ms(4), 2);
        assert_ne!(swapped.windows, canonical.windows[2..4], "call order within a kind is");
    }

    #[test]
    fn bound_windows_keep_the_install_order() {
        // Link windows (declared, then partition-expanded), node windows
        // (crashes, then arbiter outages), blackouts: the engine schedules
        // its events in this order and `WindowStart.window` indexes it.
        let spec = "partition=7ms..8ms, arbiter=5ms..6ms, crash=1@3ms..4ms, down=1ms..2ms";
        let plan: FaultPlan = spec.parse().unwrap();
        let hosts = [NodeId(1), NodeId(2)];
        let what = |ws: Vec<Window<Effect>>| ws.iter().map(|w| w.what).collect::<Vec<_>>();
        let down = |links| Effect::Link(links, WindowKind::Down);
        assert_eq!(
            what(bound(&plan, &hosts, Some(NodeId(3)))),
            [
                down(LinkFilter::All),
                down(LinkFilter::Adjacent(NodeId(2))),
                Effect::Crash(NodeId(2)),
                Effect::ArbiterDown(NodeId(3)),
            ]
        );
        assert_eq!(
            what(bound(&plan, &hosts, None)),
            [
                down(LinkFilter::All),
                down(LinkFilter::Adjacent(NodeId(2))),
                Effect::Crash(NodeId(2)),
                Effect::Blackout,
            ]
        );
    }

    #[test]
    fn index_opens_and_closes_windows_at_their_boundaries() {
        let plan = FaultPlan::new(0)
            .with_down(10, 20, LinkFilter::All)
            .with_crash(20, 30, 0)
            .with_degraded(15, 40, 2, LinkFilter::All);
        let mut idx = FaultIndex::new(&plan, &[NodeId(5)], None, 0);
        assert!(idx.active() && idx.open_at(0).is_empty());
        let open_at = |idx: &mut FaultIndex, t| {
            idx.advance(t);
            idx.open_at(t).iter().map(|w| w.from).collect::<Vec<_>>()
        };
        assert_eq!(open_at(&mut idx, 9), []);
        assert_eq!(open_at(&mut idx, 10), [10]);
        assert_eq!(open_at(&mut idx, 19), [10, 15]);
        assert_eq!(open_at(&mut idx, 20), [15, 20], "abutting: one closes as the other opens");
        assert_eq!(open_at(&mut idx, 39), [15]);
        assert_eq!(open_at(&mut idx, 40), []);
        // A cut that straddles the next start sees the unopened window.
        let mut idx = FaultIndex::new(&plan, &[NodeId(5)], None, 0);
        idx.advance(5);
        let cut = |until| idx.cut_reason(NodeId(1), PortId(0), NodeId(2), 5, until);
        assert_eq!((cut(10), cut(11)), (None, Some(DropReason::LinkDown)));
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
        let during =
            |from, until, kind| Window { from, until, what: Fault::Link(LinkFilter::All, kind) };
        assert_eq!(
            plan.windows,
            [
                during(ms(1), ms(1) + us(500), WindowKind::Down),
                during(ms(2), ms(3), WindowKind::Degraded { slowdown: 4 }),
            ]
        );
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
        let what = Fault::Link(LinkFilter::All, WindowKind::Down);
        assert_eq!(reparsed.windows, [Window { from: ms(1), until: ms(2), what }]);
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
        // A time past 2^64 ps used to saturate to `Time::MAX` silently.
        let huge = "degrade=1ms..99999999999999999999s@2";
        assert!(err(huge).contains("does not fit in picoseconds"), "{}", err(huge));
        assert!(err("down=0..18446744073709551616").contains("does not fit"));
        let inf = format!("down=0..{}", "9".repeat(400));
        assert!(err(&inf).contains("does not fit"), "a digit string that parses to +inf");
        assert!(err("crash=0@1e30..2").contains("unknown time unit"));
        // Every error names the directive it is about.
        for bad in ["loss=2", "down=1xs..2xs", "degrade=1..2@0", huge, "seed=x", "loss", "a=b"] {
            let spec = format!("loss=0.1, {bad}, down=1ms..2ms");
            assert!(err(&spec).contains(&format!("'{bad}'")), "{}", err(&spec));
        }
    }

    #[test]
    fn spec_time_units_parse() {
        assert_eq!(parse_time("300ns").unwrap(), 300 * PS_PER_NS);
        assert_eq!(parse_time("2.5us").unwrap(), 2 * PS_PER_US + PS_PER_US / 2);
        assert_eq!(parse_time("1s").unwrap(), PS_PER_SEC);
        assert_eq!(parse_time("1200").unwrap(), 1200);
        assert!(parse_time("4parsecs").is_err());
        // The largest f64 below 2^64 still fits; 2^64 itself does not.
        assert_eq!(parse_time("18446744073709549568").unwrap(), 18_446_744_073_709_549_568);
        assert!(parse_time("18446744073709551616").is_err());
        assert!(parse_time("18447000s").is_err());
    }
}
