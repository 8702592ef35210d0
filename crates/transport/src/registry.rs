//! Scheme registry: one place that knows, for every evaluated scheme, which
//! switch queue discipline, routing policy and endpoint configuration to use.
//!
//! A scheme is a row of the `const TABLE` below: `(family, first-RTT mode,
//! RTO)`. This header is that table with its derived columns written out;
//! the `const` is the source, and every other column follows from the row
//! through one match on `Family` and one on [`FirstRttMode`] (DESIGN.md "A
//! scheme is a table row"). `K` is the 6 KB selective-drop threshold, `B`
//! the 200 KB port buffer, `inf` an unbounded one. Host NICs run the family's
//! native queue unbounded, with no admission rule (one exception, marked).
//!
//! | slug               | family      | first RTT | switch port                    | recovery    | routing | oracle profile off         |
//! |--------------------|-------------|-----------|--------------------------------|-------------|---------|----------------------------|
//! | expresspass        | ExpressPass | Hold      | XPass(FIFO, B)                 | (lossless)  | ECMP    | -                          |
//! | expresspass-aeolus | ExpressPass | Aeolus    | XPass(RED/ECN FIFO, K, B)      | probe       | ECMP    | -                          |
//! | expresspass-oracle | ExpressPass | Oracle    | XPass(8-bank, K, inf)          | probe       | ECMP    | -                          |
//! | expresspass-prioq  | ExpressPass | LowPrio   | XPass(8-bank, B or shared)     | RTO         | ECMP    | retx pairing               |
//! | homa               | Homa        | Blind     | 8-bank, B                      | RTO/RESEND  | spray   | burst budget, retx pairing |
//! | homa-eager         | Homa        | Blind     | 8-bank, B                      | naive RTO   | spray   | burst budget, retx pairing |
//! | homa-aeolus        | Homa        | Aeolus    | 8-bank, K, B                   | probe       | spray   | -                          |
//! | homa-oracle        | Homa        | Oracle    | 8-bank, K, inf (NICs too)      | probe       | spray   | -                          |
//! | ndp                | Ndp         | Blind     | trimming beyond 8 packets      | NACK/pull   | spray   | -                          |
//! | ndp-aeolus         | Ndp         | Aeolus    | RED/ECN FIFO, K, B             | probe+pull  | spray   | -                          |
//! | phost              | PHost       | Blind     | 2-bank, B                      | token RTO   | spray   | retx pairing               |
//! | phost-aeolus       | PHost       | Aeolus    | 2-bank, K, B                   | probe       | spray   | -                          |
//! | dctcp              | Dctcp       | Blind     | RED/ECN FIFO, max(K, 30 KB), B | dupACK/RTO  | ECMP    | retx pairing               |
//! | fastpass           | Fastpass    | Hold      | FIFO, B                        | stall scan  | ECMP    | -                          |
//! | fastpass-aeolus    | Fastpass    | Aeolus    | RED/ECN FIFO, K, B             | probe       | ECMP    | -                          |

use std::fmt;
use std::mem::discriminant;

use aeolus_core::AeolusConfig;
use aeolus_sim::topology::PortRole;
use aeolus_sim::units::{ms, us, Time, PS_PER_US};
use aeolus_sim::{
    DropTailQueue, Endpoint, FaultPlan, OracleProfile, PoolHandle, PriorityBank, Queue, QueueDisc,
    Rate, RedEcnQueue, RoutePolicy, TrimmingQueue, XPassQueue, CREDIT_BYTES,
};

use crate::common::{BaseConfig, FirstRttMode};
use crate::dctcp::{DctcpConfig, DctcpEndpoint};
use crate::expresspass::{XPassConfig, XPassEndpoint};
use crate::fastpass::{ArbiterEndpoint, FastpassConfig, FastpassEndpoint};
use crate::homa::{HomaConfig, HomaEndpoint};
use crate::ndp::NdpEndpoint;
use crate::phost::{PHostConfig, PHostEndpoint};

/// Every transport scheme evaluated in the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scheme {
    /// Original ExpressPass: no data in the first RTT.
    ExpressPass,
    /// ExpressPass + the Aeolus building block.
    ExpressPassAeolus,
    /// §2.3's hypothetical ExpressPass (oracle spare-bandwidth use).
    ExpressPassOracle,
    /// §5.5's strawman: unscheduled in a low-priority queue, RTO recovery.
    ExpressPassPrioQueue {
        /// Retransmission timeout (10 ms and 20 µs in Table 4).
        rto: Time,
    },
    /// Original Homa with timeout-based recovery.
    Homa {
        /// Retransmission timeout (10 ms default; 20 µs = "eager Homa").
        rto: Time,
    },
    /// "Eager Homa" (Table 1): naive deadline RTO with full-burst resends.
    HomaEager {
        /// The naive retransmission deadline (paper: 20 µs).
        rto: Time,
    },
    /// Homa + the Aeolus building block.
    HomaAeolus,
    /// §2.3's hypothetical Homa.
    HomaOracle,
    /// Original NDP with cutting payload.
    Ndp,
    /// NDP + Aeolus (no switch modifications).
    NdpAeolus,
    /// pHost (extension): token-based receiver-driven transport with a
    /// blind high-priority burst and timeout recovery.
    PHost {
        /// Receiver-side token re-issue timeout.
        rto: Time,
    },
    /// pHost + the Aeolus building block (extension).
    PHostAeolus,
    /// DCTCP (extension): the reactive "try and backoff" baseline the
    /// paper's introduction contrasts proactive transport against.
    Dctcp {
        /// Retransmission timeout.
        rto: Time,
    },
    /// Fastpass (extension): centralized-arbiter proactive transport.
    Fastpass,
    /// Fastpass + the Aeolus building block (extension).
    FastpassAeolus,
}

/// Parameters every scheme shares, fixed per experiment.
#[derive(Debug, Clone)]
pub struct SchemeParams {
    /// Base RTT of the topology (sets BDP burst budgets).
    pub base_rtt: Time,
    /// MTU payload bytes.
    pub mtu_payload: u32,
    /// Aeolus knobs (drop threshold, probe retry, burst budget).
    pub aeolus: AeolusConfig,
    /// Per-port buffer for finite-buffer schemes (paper default 200 KB).
    pub port_buffer: u64,
    /// Homa message-size cutoffs for unscheduled priorities.
    pub homa_cutoffs: Vec<u64>,
    /// Optional switch-wide shared buffer pool capacity in bytes (Table 5's
    /// single-switch experiment); applied to switch egress ports only. The
    /// harness materializes one live pool per topology from this, so configs
    /// stay plain data (and `Send + Sync` for the parallel runner).
    pub shared_pool: Option<u64>,
    /// The Fastpass arbiter's node (set by the harness, which reserves the
    /// topology's last host for it).
    pub arbiter: Option<aeolus_sim::NodeId>,
    /// Ablation knob: disable SACK gap inference (probe-only recovery).
    pub disable_sack: bool,
    /// Wire-level fault plan (corruption loss, link down/degraded windows),
    /// installed on the engine by the harness. Empty = no fault machinery
    /// runs at all; see [`aeolus_sim::FaultPlan`]. Plain data, so parameter
    /// sets stay `Send + Sync` for the parallel runner.
    pub faults: FaultPlan,
}

impl SchemeParams {
    /// Paper defaults for a topology with the given base RTT.
    pub fn new(base_rtt: Time) -> SchemeParams {
        SchemeParams {
            base_rtt,
            mtu_payload: 1460,
            aeolus: AeolusConfig::default(),
            port_buffer: 200_000,
            homa_cutoffs: vec![3_000, 30_000, 300_000],
            shared_pool: None,
            arbiter: None,
            disable_sack: false,
            faults: FaultPlan::default(),
        }
    }

    fn mtu_wire(&self) -> u32 {
        self.mtu_payload + aeolus_sim::HEADER_BYTES
    }

    /// Validate the parameter set: the MTU and port buffer the run uses, and
    /// the Aeolus knobs against that buffer — a drop threshold above it
    /// would mean selective dropping never engages.
    pub(crate) fn validate(&self) -> Result<(), String> {
        if self.mtu_payload == 0 {
            return Err("mtu_payload must be positive (no zero-byte MTUs)".into());
        }
        if self.port_buffer == 0 {
            return Err("port_buffer must be positive (a switch needs some buffer)".into());
        }
        self.aeolus.validate(self.port_buffer)
    }
}

/// The credit loop a scheme runs: what decides its native switch port, its
/// routing and its endpoint.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Family {
    ExpressPass,
    Homa,
    Ndp,
    PHost,
    Fastpass,
    Dctcp,
}

/// One named scheme: `(variant carrying its paper-default RTO if it has one,
/// slug, paper label, family, first-RTT mode)`.
type Row = (Scheme, &'static str, &'static str, Family, FirstRttMode);

/// Every named scheme, in the order [`Scheme::all`] yields them. A new
/// scheme is its enum variant plus one row here.
#[rustfmt::skip]
const TABLE: [Row; 15] = {
    use {Family as F, FirstRttMode as M};
    [
        (Scheme::ExpressPass, "expresspass", "ExpressPass", F::ExpressPass, M::Hold),
        (Scheme::ExpressPassAeolus, "expresspass-aeolus", "ExpressPass+Aeolus", F::ExpressPass, M::Aeolus),
        (Scheme::ExpressPassOracle, "expresspass-oracle", "Hypothetical ExpressPass", F::ExpressPass, M::Oracle),
        (Scheme::ExpressPassPrioQueue { rto: ms(10) }, "expresspass-prioq", "ExpressPass+PrioQueue", F::ExpressPass, M::LowPrio),
        (Scheme::Homa { rto: ms(10) }, "homa", "Homa", F::Homa, M::Blind),
        (Scheme::HomaEager { rto: us(20) }, "homa-eager", "Eager Homa", F::Homa, M::Blind),
        (Scheme::HomaAeolus, "homa-aeolus", "Homa+Aeolus", F::Homa, M::Aeolus),
        (Scheme::HomaOracle, "homa-oracle", "Hypothetical Homa", F::Homa, M::Oracle),
        (Scheme::Ndp, "ndp", "NDP", F::Ndp, M::Blind),
        (Scheme::NdpAeolus, "ndp-aeolus", "NDP+Aeolus", F::Ndp, M::Aeolus),
        (Scheme::PHost { rto: ms(10) }, "phost", "pHost", F::PHost, M::Blind),
        (Scheme::PHostAeolus, "phost-aeolus", "pHost+Aeolus", F::PHost, M::Aeolus),
        (Scheme::Dctcp { rto: ms(10) }, "dctcp", "DCTCP", F::Dctcp, M::Blind),
        (Scheme::Fastpass, "fastpass", "Fastpass", F::Fastpass, M::Hold),
        (Scheme::FastpassAeolus, "fastpass-aeolus", "Fastpass+Aeolus", F::Fastpass, M::Aeolus),
    ]
};

/// Effectively infinite buffer for oracle runs and host NICs.
const HUGE: u64 = 1 << 40;

/// NDP trimming threshold in whole packets: switches cut payloads beyond 8
/// queued packets (the NDP paper's setting, DESIGN.md "Protocol models").
const TRIM_CAP_PKTS: usize = 8;

/// ExpressPass credit-queue cap in credits (the ExpressPass paper's 8-credit
/// buffer; excess credits are dropped, which is the feedback signal).
const CREDIT_CAP: usize = 8;

/// The queue a family's ports run before the first-RTT mode has its say.
enum BaseQueue {
    Fifo,
    /// Strict-priority bank of this many levels.
    Bank(usize),
    /// NDP cutting payload.
    Trim,
}

/// `data` as a port's queue, behind ExpressPass's paced credit queue when
/// `xpass` gives the port's (rate, data MTU on the wire).
fn with_credits<D>(data: D, xpass: Option<(Rate, u32)>) -> Queue
where
    D: Into<Queue> + QueueDisc,
    XPassQueue<D>: Into<Queue>,
{
    match xpass {
        Some((rate, mtu_wire)) => {
            XPassQueue::new(data, rate, mtu_wire, CREDIT_BYTES, CREDIT_CAP).into()
        }
        None => data.into(),
    }
}

impl Scheme {
    /// Every named scheme, RTO-carrying variants at their paper defaults.
    pub fn all() -> impl Iterator<Item = Scheme> {
        TABLE.iter().map(|row| row.0)
    }

    /// This scheme's table row. Build-time only (a 15-row scan, once per
    /// port or endpoint), never per packet.
    fn row(&self) -> &'static Row {
        let row = TABLE.iter().find(|row| discriminant(&row.0) == discriminant(self));
        row.expect("every Scheme variant has a TABLE row")
    }

    /// The enum's payload, and the only place outside `TABLE` that names
    /// more than one variant: field access, not a per-scheme fact.
    fn rto_slot(&mut self) -> Option<&mut Time> {
        match self {
            Scheme::ExpressPassPrioQueue { rto }
            | Scheme::Homa { rto }
            | Scheme::HomaEager { rto }
            | Scheme::PHost { rto }
            | Scheme::Dctcp { rto } => Some(rto),
            _ => None,
        }
    }

    /// The retransmission timeout this scheme carries, if any.
    pub(crate) fn rto(mut self) -> Option<Time> {
        self.rto_slot().copied()
    }

    fn family(&self) -> Family {
        self.row().3
    }

    fn mode(&self) -> FirstRttMode {
        self.row().4
    }

    /// Whether this scheme requires a centralized arbiter host.
    pub(crate) fn needs_arbiter(&self) -> bool {
        self.family() == Family::Fastpass
    }

    /// Build the arbiter endpoint (panics for schemes without one).
    pub(crate) fn make_arbiter(&self, p: &SchemeParams) -> Box<dyn Endpoint> {
        assert!(self.needs_arbiter());
        Box::new(ArbiterEndpoint::new(p.mtu_wire()))
    }

    /// Stable machine-readable identifier for this scheme, usable on command
    /// lines and in file names. [`Display`](fmt::Display) appends the RTO.
    pub fn name(&self) -> &'static str {
        self.row().1
    }

    /// Human-readable name as used in the paper's tables.
    pub fn label(&self) -> String {
        let rto = self.rto().map_or(String::new(), |rto| format!("(RTO={}us)", rto / us(1)));
        format!("{}{rto}", self.row().2)
    }

    /// Which [`OracleProfile`] checks the conformance oracle can enforce for
    /// this scheme.
    ///
    /// The engine-level checks (queue ledgers, drop legality, transmitter
    /// causality, byte conservation) always apply; these flags gate the
    /// protocol-level families to what each scheme's event stream actually
    /// promises:
    ///
    /// - *credit conservation* holds for every receiver/arbiter-driven
    ///   scheme; DCTCP issues no credits, so the flag is vacuous there and
    ///   stays on.
    /// - *burst budget* holds wherever the first RTT is budgeted (Aeolus,
    ///   oracle, low-prio and the other blind bursts) or absent (hold).
    ///   Blind Homa's RESEND/timeout path resends first-RTT bytes as fresh
    ///   unscheduled packets beyond the declared burst, so it opts out.
    /// - *retransmit pairing* (retransmitted ≤ declared-lost) is off exactly
    ///   where an RTO drives recovery: such backstops retransmit
    ///   speculatively without a detection event (eager/naive RTOs, pHost
    ///   token re-issue, Homa RESEND, the low-prio strawman, DCTCP).
    pub fn oracle_profile(&self) -> OracleProfile {
        let (family, mode) = (self.family(), self.mode());
        let rto_driven = matches!(mode, FirstRttMode::Blind | FirstRttMode::LowPrio);
        OracleProfile {
            burst_budget: !(family == Family::Homa && mode == FirstRttMode::Blind),
            retransmit_pairing: !(rto_driven && self.rto().is_some()),
            ..OracleProfile::default()
        }
    }

    /// Switch path-selection policy this scheme assumes.
    ///
    /// NDP sprays by design; Homa and pHost assume a congestion-free core
    /// (Aeolus paper §6), which their own simulators realize with per-packet
    /// load balancing. ExpressPass *requires* symmetric per-flow paths so
    /// switch credit throttling bounds the forward data rate.
    pub fn route_policy(&self) -> RoutePolicy {
        match self.family() {
            Family::Ndp | Family::Homa | Family::PHost => RoutePolicy::Spray,
            Family::ExpressPass | Family::Fastpass | Family::Dctcp => RoutePolicy::EcmpHash,
        }
    }

    pub(crate) fn base_config(&self, p: &SchemeParams) -> BaseConfig {
        BaseConfig {
            mtu_payload: p.mtu_payload,
            base_rtt: p.base_rtt,
            aeolus: p.aeolus,
            mode: self.mode(),
            // SACK gap inference needs in-order delivery; any scheme whose
            // fabric sprays packets must rely on the probe alone.
            disable_sack: p.disable_sack || self.route_policy() == RoutePolicy::Spray,
        }
    }

    /// Build the egress queue for a port of the given rate and role: the
    /// family's native port composed with the mode's admission rule.
    ///
    /// `pool` is the topology-wide shared buffer handle materialized from
    /// `p.shared_pool` (one per harness, shared by all its ports).
    pub fn make_queue(
        &self,
        p: &SchemeParams,
        rate: Rate,
        role: PortRole,
        pool: Option<&PoolHandle>,
    ) -> Queue {
        let (family, mode) = (self.family(), self.mode());
        let (nic, k) = (role == PortRole::HostNic, p.aeolus.drop_threshold);
        // Match one — the family's native port.
        let mut base = match family {
            // Cutting payload is NDP's own loss signal; NDP+Aeolus needs no
            // switch modification and runs over the commodity FIFO.
            Family::Ndp if mode == FirstRttMode::Blind => BaseQueue::Trim,
            Family::ExpressPass | Family::Fastpass | Family::Dctcp | Family::Ndp => BaseQueue::Fifo,
            Family::Homa => BaseQueue::Bank(8),
            // Two levels: unscheduled above scheduled.
            Family::PHost => BaseQueue::Bank(2),
        };
        // Irregular cell: DCTCP's switches already run the single-threshold
        // RED/ECN feature Aeolus re-interprets, as its marking threshold K —
        // the Aeolus threshold floored at 30 KB, below which DCTCP
        // underutilizes the link.
        let mut red_k = (family == Family::Dctcp && !nic).then(|| k.max(30_000));
        // Match two — the mode's admission rule. Host NICs never drop
        // locally: unbounded, and the rule is a switch feature. Irregular
        // cell: the Homa oracle applies its rule at the NIC too (its
        // unscheduled packets yield to backlog from the first queue on);
        // the ExpressPass oracle does not.
        let (mut cap, mut shared) = (if nic { HUGE } else { p.port_buffer }, None);
        let homa_oracle = family == Family::Homa && mode == FirstRttMode::Oracle;
        match mode {
            _ if nic && !homa_oracle => {}
            FirstRttMode::Hold | FirstRttMode::Blind => {}
            // Selective drop at the threshold in the base queue.
            FirstRttMode::Aeolus => red_k = Some(k),
            // Unscheduled at the lowest of 8 levels, dropped on backlog,
            // never short of buffer.
            FirstRttMode::Oracle => (base, cap, red_k) = (BaseQueue::Bank(8), HUGE, Some(k)),
            // Unscheduled at the lowest of 8 levels but *not* droppable: it
            // shares the finite (or switch-wide) buffer — §5.5's failure.
            FirstRttMode::LowPrio => (base, shared) = (BaseQueue::Bank(8), pool),
        }
        // ExpressPass wraps the data queue in its paced credit queue.
        let xpass = (family == Family::ExpressPass).then(|| (rate, p.mtu_wire()));
        match (base, red_k) {
            (BaseQueue::Fifo, None) => with_credits(DropTailQueue::new(cap), xpass),
            (BaseQueue::Fifo, Some(k)) => with_credits(RedEcnQueue::new(k, cap), xpass),
            (BaseQueue::Bank(levels), _) => {
                let mut bank = PriorityBank::new(levels, cap);
                if let Some(k) = red_k {
                    bank = bank.with_selective_threshold(k);
                }
                if let Some(pool) = shared {
                    bank = bank.with_pool(pool.clone());
                }
                with_credits(bank, xpass)
            }
            (BaseQueue::Trim, _) if nic => TrimmingQueue::new(usize::MAX, HUGE).into(),
            (BaseQueue::Trim, _) => TrimmingQueue::new(TRIM_CAP_PKTS, HUGE).into(),
        }
    }

    /// Build the per-host endpoint.
    pub(crate) fn make_endpoint(&self, p: &SchemeParams) -> Box<dyn Endpoint> {
        let (base, rto) = (self.base_config(p), self.rto());
        match self.family() {
            Family::ExpressPass => Box::new(XPassEndpoint::new(XPassConfig { base, rto })),
            Family::Homa => {
                // Table 1's eager sender: the one endpoint flag that is not
                // a function of (family, mode, RTO).
                let naive_rto = matches!(self, Scheme::HomaEager { .. });
                let cutoffs = p.homa_cutoffs.clone();
                Box::new(HomaEndpoint::new(HomaConfig { base, cutoffs, rto, naive_rto }))
            }
            Family::Ndp => Box::new(NdpEndpoint::new(base)),
            Family::PHost => Box::new(PHostEndpoint::new(PHostConfig { base, rto })),
            // DCTCP's row carries an RTO.
            Family::Dctcp => Box::new(DctcpEndpoint::new(DctcpConfig::new(base, rto.unwrap()))),
            Family::Fastpass => {
                let arbiter = p.arbiter.expect("Fastpass needs an arbiter (set by the harness)");
                Box::new(FastpassEndpoint::new(FastpassConfig { base, arbiter }))
            }
        }
    }
}

impl fmt::Display for Scheme {
    /// The one spelling of a scheme as text: `<slug>[:<rto_us>]`, the RTO
    /// (whole microseconds) present exactly on the variants that carry one.
    /// Round-trips through [`FromStr`](std::str::FromStr).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rto = self.rto().map_or(String::new(), |rto| format!(":{}", rto / us(1)));
        write!(f, "{}{rto}", self.name())
    }
}

/// Error returned when a scheme string fails to parse: an unknown slug, or
/// a known one whose `:<rto_us>` suffix cannot be taken.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSchemeError {
    spec: String,
    fault: SchemeFault,
}

/// What is wrong with a scheme string.
#[derive(Debug, Clone, PartialEq, Eq)]
enum SchemeFault {
    UnknownSlug,
    /// A zero timeout: a timer due every instant.
    ZeroRto,
    /// The timeout's picoseconds overflow `Time`.
    RtoOverflow,
    /// The suffix is not a whole number of microseconds.
    BadRto,
    /// The scheme carries no timeout.
    NoRto,
}

impl fmt::Display for ParseSchemeError {
    /// An unknown slug lists every valid spelling, an RTO-carrying scheme
    /// with its default timeout, which is how the reader learns which ones
    /// take one. A known slug with an RTO it cannot take names the fault.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let spec = &self.spec;
        let spellings = |rto_only: bool| {
            let schemes = Scheme::all().filter(|s| !rto_only || s.rto().is_some());
            schemes.map(|s| s.to_string()).collect::<Vec<_>>().join(", ")
        };
        match &self.fault {
            SchemeFault::UnknownSlug => write!(
                f,
                "unknown scheme '{spec}' (valid: {}; ':<rto_us>' shown is the default)",
                spellings(false)
            ),
            SchemeFault::ZeroRto => {
                write!(f, "scheme '{spec}': the RTO must be at least 1 us, not 0")
            }
            SchemeFault::RtoOverflow => write!(
                f,
                "scheme '{spec}': the RTO overflows picoseconds (at most {} us)",
                u64::MAX / PS_PER_US
            ),
            SchemeFault::BadRto => {
                let rto = spec.split_once(':').map_or("", |(_, rto)| rto);
                write!(f, "scheme '{spec}': the RTO '{rto}' is not a whole number of microseconds")
            }
            SchemeFault::NoRto => write!(
                f,
                "scheme '{spec}': this scheme takes no RTO (those that do: {})",
                spellings(true)
            ),
        }
    }
}

impl std::error::Error for ParseSchemeError {}

impl std::str::FromStr for Scheme {
    type Err = ParseSchemeError;

    /// Parse `<slug>[:<rto_us>]`. The slug is [`Scheme::name`]; the optional
    /// suffix overrides the retransmission timeout (in microseconds) of the
    /// RTO-carrying variants and is rejected for the others, as is a zero
    /// timeout (a timer due every instant) or one whose picoseconds
    /// overflow.
    fn from_str(s: &str) -> Result<Scheme, ParseSchemeError> {
        let err = |fault| ParseSchemeError { spec: s.into(), fault };
        let (slug, rto_us) = s.split_once(':').map_or((s, None), |(slug, rto)| (slug, Some(rto)));
        let row = TABLE.iter().find(|row| row.1 == slug);
        let mut scheme = row.ok_or_else(|| err(SchemeFault::UnknownSlug))?.0;
        if let Some(rto_us) = rto_us {
            let slot = scheme.rto_slot().ok_or_else(|| err(SchemeFault::NoRto))?;
            let rto_us: u64 = rto_us.parse().map_err(|_| err(SchemeFault::BadRto))?;
            if rto_us == 0 {
                return Err(err(SchemeFault::ZeroRto));
            }
            *slot = rto_us.checked_mul(PS_PER_US).ok_or_else(|| err(SchemeFault::RtoOverflow))?;
        }
        Ok(scheme)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> SchemeParams {
        SchemeParams::new(us(5))
    }

    fn parse(spec: &str) -> Scheme {
        spec.parse().unwrap_or_else(|e| panic!("{spec}: {e}"))
    }

    #[test]
    fn params_validate_checks_the_effective_buffer() {
        assert_eq!(params().validate(), Ok(()));
        let mut p = params();
        p.port_buffer = 4_000; // below the 6 KB default drop threshold
        let err = p.validate().unwrap_err();
        assert!(err.contains("drop_threshold"), "unhelpful error: {err}");
    }

    #[test]
    fn params_validate_rejects_zero_mtu_and_buffer() {
        let p = SchemeParams { mtu_payload: 0, ..params() };
        assert!(p.validate().unwrap_err().contains("mtu_payload"));
        let p = SchemeParams { port_buffer: 0, ..params() };
        assert!(p.validate().unwrap_err().contains("port_buffer"));
    }

    #[test]
    fn route_policies() {
        for slug in ["ndp", "ndp-aeolus", "homa-aeolus", "phost-aeolus"] {
            assert_eq!(parse(slug).route_policy(), RoutePolicy::Spray, "{slug}");
        }
        for slug in ["expresspass", "expresspass-aeolus", "dctcp", "fastpass"] {
            assert_eq!(parse(slug).route_policy(), RoutePolicy::EcmpHash, "{slug}");
        }
    }

    #[test]
    fn all_schemes_build_queues_and_endpoints() {
        let p = params();
        // (Fastpass needs an arbiter node: covered by the harness tests.)
        for s in Scheme::all().filter(|s| !s.needs_arbiter()) {
            for role in [PortRole::HostNic, PortRole::DownToHost, PortRole::SwitchToSwitch] {
                let q = s.make_queue(&p, Rate::gbps(100), role, None);
                assert_eq!(q.bytes(), 0, "{s} queue starts empty");
            }
            let _ep = s.make_endpoint(&p);
        }
    }

    #[test]
    fn the_table_has_one_row_per_variant() {
        // `row()` finds rows by enum discriminant, so two rows for one
        // variant would shadow each other.
        let variants: std::collections::HashSet<_> =
            Scheme::all().map(|s| discriminant(&s)).collect();
        assert_eq!(variants.len(), TABLE.len());
        // Only the RTO-driven first-RTT modes carry an RTO at all.
        for (scheme, _, _, _, mode) in TABLE {
            let rto_driven = matches!(mode, FirstRttMode::Blind | FirstRttMode::LowPrio);
            assert!(scheme.rto().is_none() || rto_driven, "{scheme}: an RTO nothing reads");
        }
    }

    #[test]
    fn names_and_labels_are_distinct() {
        let names: std::collections::HashSet<&str> = Scheme::all().map(|s| s.name()).collect();
        assert_eq!(names.len(), TABLE.len());
        let labels: std::collections::HashSet<String> = Scheme::all().map(|s| s.label()).collect();
        assert_eq!(labels.len(), TABLE.len());
    }

    #[test]
    fn name_round_trips_through_from_str() {
        // Property: for every scheme and every RTO in a sampled grid,
        // parsing the printed form reproduces the scheme exactly.
        for scheme in Scheme::all() {
            assert_eq!(parse(scheme.name()), scheme, "the bare slug is the paper default");
            assert_eq!(parse(&scheme.to_string()), scheme, "Display round-trips");
            for rto_us in [1u64, 20, 200, 10_000, 1_000_000] {
                let spec = format!("{}:{rto_us}", scheme.name());
                if scheme.rto().is_none() {
                    assert!(spec.parse::<Scheme>().is_err(), "{spec}: no RTO to set");
                    continue;
                }
                let parsed = parse(&spec);
                assert_eq!(parsed.rto(), Some(us(rto_us)), "{spec} preserves the timeout");
                assert_eq!(parsed.to_string(), spec, "{spec} prints as it was spelled");
                assert_eq!(parse(&parsed.to_string()), parsed, "{spec} round-trips");
                assert_eq!(parsed.name(), scheme.name(), "{spec} keeps its slug");
            }
        }
    }

    #[test]
    fn from_str_rejects_garbage() {
        assert!("homa-aeolus:10".parse::<Scheme>().is_err(), "no RTO on fixed schemes");
        assert!("".parse::<Scheme>().is_err());
        assert!("tcp-vegas".parse::<Scheme>().is_err());
        assert!("homa:abc".parse::<Scheme>().is_err());
        assert!("homa:".parse::<Scheme>().is_err());
        // A zero RTO, and one whose picoseconds overflow `Time`.
        for slug in ["homa", "homa-eager", "phost", "dctcp", "expresspass-prioq"] {
            assert!(format!("{slug}:0").parse::<Scheme>().is_err(), "{slug}:0");
        }
        assert!("homa:99999999999999".parse::<Scheme>().is_err());
        let max = u64::MAX / PS_PER_US;
        assert!(format!("homa:{}", max + 1).parse::<Scheme>().is_err());
        assert_eq!(parse(&format!("homa:{max}")).rto(), Some(us(max)), "the largest RTO fits");
    }

    /// A known slug with an RTO it cannot take names the fault, never
    /// "unknown scheme"; one row per fault.
    #[test]
    fn parse_errors_name_the_rto_fault() {
        let max = u64::MAX / PS_PER_US;
        let cases = [
            ("homa:0", "the RTO must be at least 1 us, not 0"),
            ("dctcp:0", "the RTO must be at least 1 us, not 0"),
            ("homa:99999999999999", "the RTO overflows picoseconds (at most 18446744073709 us)"),
            (&format!("phost:{}", max + 1), "the RTO overflows picoseconds"),
            ("homa:abc", "the RTO 'abc' is not a whole number of microseconds"),
            ("homa:", "the RTO '' is not a whole number of microseconds"),
            ("homa:-5", "the RTO '-5' is not a whole number of microseconds"),
            ("homa:1:2", "the RTO '1:2' is not a whole number of microseconds"),
            ("ndp:10", "this scheme takes no RTO (those that do: "),
            ("homa-aeolus:0", "this scheme takes no RTO"),
            ("ndp:abc", "this scheme takes no RTO"),
        ];
        for (spec, want) in cases {
            let err = spec.parse::<Scheme>().unwrap_err().to_string();
            assert!(err.starts_with(&format!("scheme '{spec}': ")), "{spec}: {err}");
            assert!(err.contains(want), "{spec}: '{err}' lacks '{want}'");
            assert!(!err.contains("unknown"), "{spec}: {err}");
        }
        let err = "ndp:10".parse::<Scheme>().unwrap_err().to_string();
        for scheme in Scheme::all() {
            let listed = [',', ')'].iter().any(|end| err.contains(&format!(" {scheme}{end}")));
            assert_eq!(listed, scheme.rto().is_some(), "{scheme} in: {err}");
        }
        // An unknown slug keeps its message, RTO or not.
        let err = "warp:0".parse::<Scheme>().unwrap_err().to_string();
        assert!(err.starts_with("unknown scheme 'warp:0' (valid: "), "{err}");
    }

    /// Mutated spellings and raw bytes: `from_str` answers every one with a
    /// scheme or an error, never a panic, and a scheme it accepts prints
    /// as a spelling that parses back to it.
    #[test]
    fn from_str_never_panics_on_mutated_or_raw_input() {
        let mut rng = aeolus_sim::rng::SimRng::seed_from_u64(45);
        let seeds: Vec<String> = Scheme::all().map(|s| s.to_string()).collect();
        let alphabet = b":0123456789-abcdehmnoprsxyz \xff\x00";
        for i in 0..20_000 {
            let mut bytes = if i % 4 == 0 {
                (0..rng.below(24)).map(|_| rng.below(256) as u8).collect()
            } else {
                seeds[rng.index(seeds.len())].clone().into_bytes()
            };
            for _ in 0..rng.range_u64(1, 4) {
                let at = rng.index(bytes.len() + 1);
                let byte = alphabet[rng.index(alphabet.len())];
                match rng.below(3) {
                    0 => bytes.insert(at, byte),
                    1 if at < bytes.len() => {
                        bytes.remove(at);
                    }
                    _ if at < bytes.len() => bytes[at] = byte,
                    _ => bytes.push(byte),
                }
            }
            let spec = String::from_utf8_lossy(&bytes);
            match spec.parse::<Scheme>() {
                Ok(scheme) => assert_eq!(parse(&scheme.to_string()), scheme, "{spec:?}"),
                Err(e) => assert!(!e.to_string().is_empty()),
            }
        }
    }

    #[test]
    fn parse_error_lists_the_valid_spellings() {
        let err = "tcp-vegas".parse::<Scheme>().unwrap_err().to_string();
        assert!(err.starts_with("unknown scheme 'tcp-vegas'"), "{err}");
        for scheme in Scheme::all() {
            // RTO-carrying schemes are listed with their default timeout,
            // which is how the message says who takes `:<rto_us>`.
            assert!(err.contains(&format!(" {scheme}")), "{scheme} missing from: {err}");
        }
        assert!(err.contains("homa:10000,") && err.contains("homa-aeolus,"), "{err}");
    }
}
