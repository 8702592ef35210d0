//! Scheme registry: one place that knows, for every evaluated scheme, which
//! switch queue discipline, routing policy and endpoint configuration to use.
//!
//! | Scheme                 | switch queue                         | first RTT | recovery |
//! |------------------------|--------------------------------------|-----------|----------|
//! | ExpressPass            | XPass(credit throttle + drop-tail)   | hold      | (lossless) |
//! | ExpressPass + Aeolus   | XPass(credit throttle + RED/ECN)     | Aeolus    | probe    |
//! | ExpressPass oracle     | XPass(+8-prio, low-prio drop)        | oracle    | probe    |
//! | ExpressPass + prio-q   | XPass(+8-prio, finite/shared buffer) | low-prio  | RTO      |
//! | Homa                   | 8-priority bank                      | blind     | RTO/RESEND |
//! | Homa + Aeolus          | 8-priority bank + selective drop     | Aeolus    | probe    |
//! | Homa oracle            | 8-priority bank, low-prio drop       | oracle    | probe    |
//! | NDP                    | trimming (cutting payload)           | blind     | NACK/pull |
//! | NDP + Aeolus           | RED/ECN FIFO                         | Aeolus    | probe+pull |

use aeolus_core::AeolusConfig;
use aeolus_sim::units::Time;
use aeolus_sim::{
    DropTailQueue, Endpoint, FaultPlan, PoolHandle, PriorityBank, QueueDisc, Rate, RedEcnQueue,
    RoutePolicy, TrimmingQueue, WredProfile, WredQueue, XPassQueue, CREDIT_BYTES,
};
use aeolus_sim::topology::PortRole;

use crate::common::{BaseConfig, FirstRttMode};
use crate::expresspass::{XPassConfig, XPassEndpoint};
use crate::homa::{HomaConfig, HomaEndpoint};
use crate::ndp::NdpEndpoint;
use crate::dctcp::{DctcpConfig, DctcpEndpoint};
use crate::fastpass::{ArbiterEndpoint, FastpassConfig, FastpassEndpoint};
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
    /// Aeolus knobs (threshold, buffers).
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
    /// Use the §4.1 WRED/color switch implementation of selective dropping
    /// instead of the RED/ECN re-interpretation (identical drop decisions;
    /// exists to demonstrate both deployment paths).
    pub use_wred: bool,
    /// Wire-level fault plan (corruption loss, link down/degraded windows),
    /// installed on the engine by the harness. Empty = no fault machinery
    /// runs at all; see [`aeolus_sim::FaultPlan`]. Plain data, so parameter
    /// sets stay `Send + Sync` for the parallel runner.
    pub faults: FaultPlan,
    /// Override the scheme's native first-RTT mode (ablations; set via
    /// [`crate::SchemeBuilder::first_rtt`]). `None` keeps the default. The
    /// switch queue discipline still follows the scheme, so overrides make
    /// sense only between modes sharing a discipline (e.g. Aeolus ↔ Blind).
    pub first_rtt: Option<FirstRttMode>,
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
            use_wred: false,
            faults: FaultPlan::default(),
            first_rtt: None,
        }
    }

    fn mtu_wire(&self) -> u32 {
        self.mtu_payload + aeolus_sim::HEADER_BYTES
    }

    /// Validate the parameter set, including the **effective** Aeolus
    /// config: queue construction substitutes the physical [`port_buffer`]
    /// for `aeolus.port_buffer`, so the threshold/buffer relation must hold
    /// against the value actually used — a threshold above the physical
    /// buffer would mean selective dropping never engages. (This used to be
    /// papered over with a silent `buffer.max(threshold)` clamp.)
    ///
    /// [`port_buffer`]: SchemeParams::port_buffer
    pub fn validate(&self) -> Result<(), String> {
        self.aeolus.validate()?;
        let mut effective = self.aeolus;
        effective.port_buffer = self.port_buffer;
        effective.validate()
    }
}

/// Effectively infinite buffer for oracle runs and host NICs.
const HUGE: u64 = 1 << 40;

/// NDP trimming threshold in whole packets: switches cut payloads beyond 8
/// queued packets (the NDP paper's setting, DESIGN.md "Protocol models").
const TRIM_CAP_PKTS: usize = 8;

/// ExpressPass credit-queue cap in credits (the ExpressPass paper's 8-credit
/// buffer; excess credits are dropped, which is the feedback signal).
const CREDIT_CAP: usize = 8;

impl Scheme {
    /// Whether this scheme requires a centralized arbiter host.
    pub fn needs_arbiter(&self) -> bool {
        matches!(self, Scheme::Fastpass | Scheme::FastpassAeolus)
    }

    /// Build the arbiter endpoint (panics for schemes without one).
    pub fn make_arbiter(&self, p: &SchemeParams) -> Box<dyn Endpoint> {
        assert!(self.needs_arbiter());
        Box::new(ArbiterEndpoint::new(p.mtu_wire()))
    }

    /// Stable machine-readable identifier for this scheme, usable on command
    /// lines and in file names. Round-trips through [`Scheme::from_str`]
    /// (RTO-carrying variants append `:<rto_us>` when parsing to override
    /// the default timeout).
    pub fn name(&self) -> &'static str {
        match self {
            Scheme::ExpressPass => "expresspass",
            Scheme::ExpressPassAeolus => "expresspass-aeolus",
            Scheme::ExpressPassOracle => "expresspass-oracle",
            Scheme::ExpressPassPrioQueue { .. } => "expresspass-prioq",
            Scheme::Homa { .. } => "homa",
            Scheme::HomaEager { .. } => "homa-eager",
            Scheme::HomaAeolus => "homa-aeolus",
            Scheme::HomaOracle => "homa-oracle",
            Scheme::Ndp => "ndp",
            Scheme::NdpAeolus => "ndp-aeolus",
            Scheme::PHost { .. } => "phost",
            Scheme::PHostAeolus => "phost-aeolus",
            Scheme::Dctcp { .. } => "dctcp",
            Scheme::Fastpass => "fastpass",
            Scheme::FastpassAeolus => "fastpass-aeolus",
        }
    }

    /// Human-readable name as used in the paper's tables.
    pub fn label(&self) -> String {
        match self {
            Scheme::ExpressPass => "ExpressPass".into(),
            Scheme::ExpressPassAeolus => "ExpressPass+Aeolus".into(),
            Scheme::ExpressPassOracle => "Hypothetical ExpressPass".into(),
            Scheme::ExpressPassPrioQueue { rto } => {
                format!("ExpressPass+PrioQueue(RTO={}us)", rto / 1_000_000)
            }
            Scheme::Homa { rto } => format!("Homa(RTO={}us)", rto / 1_000_000),
            Scheme::HomaEager { rto } => format!("Eager Homa(RTO={}us)", rto / 1_000_000),
            Scheme::HomaAeolus => "Homa+Aeolus".into(),
            Scheme::HomaOracle => "Hypothetical Homa".into(),
            Scheme::Ndp => "NDP".into(),
            Scheme::NdpAeolus => "NDP+Aeolus".into(),
            Scheme::PHost { rto } => format!("pHost(RTO={}us)", rto / 1_000_000),
            Scheme::PHostAeolus => "pHost+Aeolus".into(),
            Scheme::Dctcp { rto } => format!("DCTCP(RTO={}us)", rto / 1_000_000),
            Scheme::Fastpass => "Fastpass".into(),
            Scheme::FastpassAeolus => "Fastpass+Aeolus".into(),
        }
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
    ///   blind and low-prio modes) or absent (hold modes). Homa's
    ///   RESEND/timeout path resends first-RTT bytes as fresh unscheduled
    ///   packets beyond the declared burst, so the original Homa variants
    ///   opt out.
    /// - *retransmit pairing* (retransmitted ≤ declared-lost) is off for
    ///   schemes whose backstops retransmit speculatively without a
    ///   detection event (eager/naive RTOs, pHost token re-issue, Homa
    ///   RESEND).
    ///
    /// [`OracleProfile`]: aeolus_sim::OracleProfile
    pub fn oracle_profile(&self) -> aeolus_sim::OracleProfile {
        let mut profile = aeolus_sim::OracleProfile::default();
        match self {
            Scheme::Homa { .. } | Scheme::HomaEager { .. } => {
                profile.burst_budget = false;
                profile.retransmit_pairing = false;
            }
            Scheme::ExpressPassPrioQueue { .. } | Scheme::PHost { .. } | Scheme::Dctcp { .. } => {
                profile.retransmit_pairing = false;
            }
            _ => {}
        }
        profile
    }

    /// Switch path-selection policy this scheme assumes.
    ///
    /// NDP sprays by design; Homa and pHost assume a congestion-free core
    /// (Aeolus paper §6), which their own simulators realize with per-packet
    /// load balancing. ExpressPass *requires* symmetric per-flow paths so
    /// switch credit throttling bounds the forward data rate.
    pub fn route_policy(&self) -> RoutePolicy {
        match self {
            Scheme::Ndp
            | Scheme::NdpAeolus
            | Scheme::Homa { .. }
            | Scheme::HomaEager { .. }
            | Scheme::HomaAeolus
            | Scheme::HomaOracle
            | Scheme::PHost { .. }
            | Scheme::PHostAeolus => RoutePolicy::Spray,
            _ => RoutePolicy::EcmpHash,
        }
    }

    fn first_rtt_mode(&self) -> FirstRttMode {
        match self {
            Scheme::ExpressPass => FirstRttMode::Hold,
            Scheme::ExpressPassAeolus
            | Scheme::HomaAeolus
            | Scheme::NdpAeolus
            | Scheme::PHostAeolus => FirstRttMode::Aeolus,
            Scheme::ExpressPassOracle | Scheme::HomaOracle => FirstRttMode::Oracle,
            Scheme::ExpressPassPrioQueue { .. } => FirstRttMode::LowPrio,
            Scheme::Homa { .. }
            | Scheme::HomaEager { .. }
            | Scheme::Ndp
            | Scheme::PHost { .. }
            | Scheme::Dctcp { .. } => FirstRttMode::Blind,
            Scheme::Fastpass => FirstRttMode::Hold,
            Scheme::FastpassAeolus => FirstRttMode::Aeolus,
        }
    }

    fn base_config(&self, p: &SchemeParams) -> BaseConfig {
        let mut aeolus = p.aeolus;
        aeolus.port_buffer = p.port_buffer;
        // SACK gap inference needs in-order delivery; any scheme whose
        // fabric sprays packets must rely on the probe alone.
        let sprays = self.route_policy() == RoutePolicy::Spray;
        BaseConfig {
            mtu_payload: p.mtu_payload,
            base_rtt: p.base_rtt,
            aeolus,
            mode: p.first_rtt.unwrap_or_else(|| self.first_rtt_mode()),
            disable_sack: p.disable_sack || sprays,
        }
    }

    /// Build the egress queue for a port of the given rate and role.
    ///
    /// `pool` is the topology-wide shared buffer handle materialized from
    /// `p.shared_pool` (one per harness, shared by all its ports).
    pub fn make_queue(
        &self,
        p: &SchemeParams,
        rate: Rate,
        role: PortRole,
        pool: Option<&PoolHandle>,
    ) -> Box<dyn QueueDisc> {
        let is_switch = role != PortRole::HostNic;
        let threshold = p.aeolus.drop_threshold;
        let buffer = p.port_buffer;
        match self {
            Scheme::ExpressPass
            | Scheme::ExpressPassAeolus
            | Scheme::ExpressPassOracle
            | Scheme::ExpressPassPrioQueue { .. } => {
                let inner: Box<dyn QueueDisc> = if !is_switch {
                    // Host NICs never drop locally.
                    Box::new(DropTailQueue::new(HUGE))
                } else {
                    match self {
                        Scheme::ExpressPass => Box::new(DropTailQueue::new(buffer)),
                        Scheme::ExpressPassAeolus => {
                            if p.use_wred {
                                Box::new(WredQueue::new(
                                    WredProfile::aeolus(threshold, buffer),
                                    buffer,
                                ))
                            } else {
                                Box::new(RedEcnQueue::new(threshold, buffer))
                            }
                        }
                        Scheme::ExpressPassOracle => Box::new(
                            PriorityBank::new(8, HUGE).with_selective_threshold(threshold),
                        ),
                        Scheme::ExpressPassPrioQueue { .. } => {
                            let bank = PriorityBank::new(8, buffer);
                            match pool {
                                Some(pool) => Box::new(bank.with_pool(pool.clone())),
                                None => Box::new(bank),
                            }
                        }
                        _ => unreachable!(),
                    }
                };
                Box::new(XPassQueue::new(inner, rate, p.mtu_wire(), CREDIT_BYTES, CREDIT_CAP))
            }
            Scheme::Homa { .. } | Scheme::HomaEager { .. } => {
                let cap = if is_switch { buffer } else { HUGE };
                Box::new(PriorityBank::new(8, cap))
            }
            Scheme::HomaAeolus => {
                if is_switch {
                    Box::new(PriorityBank::new(8, buffer).with_selective_threshold(threshold))
                } else {
                    Box::new(PriorityBank::new(8, HUGE))
                }
            }
            Scheme::HomaOracle => {
                Box::new(PriorityBank::new(8, HUGE).with_selective_threshold(threshold))
            }
            Scheme::Ndp => {
                if is_switch {
                    Box::new(TrimmingQueue::new(TRIM_CAP_PKTS, HUGE))
                } else {
                    Box::new(TrimmingQueue::new(usize::MAX, HUGE))
                }
            }
            Scheme::NdpAeolus => {
                if is_switch {
                    if p.use_wred {
                        Box::new(WredQueue::new(
                            WredProfile::aeolus(threshold, buffer),
                            buffer,
                        ))
                    } else {
                        Box::new(RedEcnQueue::new(threshold, buffer))
                    }
                } else {
                    Box::new(DropTailQueue::new(HUGE))
                }
            }
            // pHost uses two priority levels (unscheduled above scheduled);
            // with Aeolus, selective dropping applies at port scope.
            Scheme::PHost { .. } => {
                let cap = if is_switch { buffer } else { HUGE };
                Box::new(PriorityBank::new(2, cap))
            }
            Scheme::PHostAeolus => {
                if is_switch {
                    Box::new(PriorityBank::new(2, buffer).with_selective_threshold(threshold))
                } else {
                    Box::new(PriorityBank::new(2, HUGE))
                }
            }
            // DCTCP: single-threshold RED/ECN marking — the same commodity
            // feature Aeolus re-interprets, used here as DCTCP's K.
            Scheme::Dctcp { .. } => {
                if is_switch {
                    Box::new(RedEcnQueue::new(threshold.max(30_000), buffer))
                } else {
                    Box::new(DropTailQueue::new(HUGE))
                }
            }
            // Fastpass: arbiter-scheduled slots need no AQM; +Aeolus adds
            // selective dropping for the pre-credit burst.
            Scheme::Fastpass => {
                let cap = if is_switch { buffer } else { HUGE };
                Box::new(DropTailQueue::new(cap))
            }
            Scheme::FastpassAeolus => {
                if is_switch {
                    Box::new(RedEcnQueue::new(threshold, buffer))
                } else {
                    Box::new(DropTailQueue::new(HUGE))
                }
            }
        }
    }

    /// Build the per-host endpoint.
    pub fn make_endpoint(&self, p: &SchemeParams) -> Box<dyn Endpoint> {
        let base = self.base_config(p);
        match self {
            Scheme::ExpressPass | Scheme::ExpressPassAeolus | Scheme::ExpressPassOracle => {
                Box::new(XPassEndpoint::new(XPassConfig { base, rto: None }))
            }
            Scheme::ExpressPassPrioQueue { rto } => {
                Box::new(XPassEndpoint::new(XPassConfig { base, rto: Some(*rto) }))
            }
            Scheme::Homa { rto } => {
                let mut cfg = HomaConfig::new(base, *rto);
                cfg.cutoffs = p.homa_cutoffs.clone();
                Box::new(HomaEndpoint::new(cfg))
            }
            Scheme::HomaEager { rto } => {
                let mut cfg = HomaConfig::new(base, *rto);
                cfg.naive_rto = true;
                cfg.cutoffs = p.homa_cutoffs.clone();
                Box::new(HomaEndpoint::new(cfg))
            }
            Scheme::HomaAeolus | Scheme::HomaOracle => {
                // No RTO-driven recovery in these modes: the RTO is read
                // only if `first_rtt` overrides the mode to Blind.
                let mut cfg = HomaConfig::new(base, aeolus_sim::units::ms(10));
                cfg.cutoffs = p.homa_cutoffs.clone();
                Box::new(HomaEndpoint::new(cfg))
            }
            Scheme::Ndp | Scheme::NdpAeolus => Box::new(NdpEndpoint::new(base)),
            Scheme::PHost { rto } => {
                Box::new(PHostEndpoint::new(PHostConfig { base, rto: *rto }))
            }
            Scheme::PHostAeolus => {
                // Read only if `first_rtt` overrides the mode to Blind.
                let rto = aeolus_sim::units::ms(10);
                Box::new(PHostEndpoint::new(PHostConfig { base, rto }))
            }
            Scheme::Dctcp { rto } => Box::new(DctcpEndpoint::new(DctcpConfig::new(base, *rto))),
            Scheme::Fastpass | Scheme::FastpassAeolus => {
                let arbiter = p.arbiter.expect("Fastpass needs an arbiter (set by the harness)");
                Box::new(FastpassEndpoint::new(FastpassConfig { base, arbiter }))
            }
        }
    }
}

/// Error returned when a scheme string fails to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSchemeError(String);

impl std::fmt::Display for ParseSchemeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "unknown scheme '{}' (expected e.g. 'homa-aeolus' or 'dctcp:200')", self.0)
    }
}

impl std::error::Error for ParseSchemeError {}

impl std::str::FromStr for Scheme {
    type Err = ParseSchemeError;

    /// Parse `<slug>[:<rto_us>]`. The slug is [`Scheme::name`]; the optional
    /// suffix overrides the retransmission timeout (in microseconds) of the
    /// RTO-carrying variants and is rejected for the others.
    fn from_str(s: &str) -> Result<Scheme, ParseSchemeError> {
        let (slug, rto_us) = match s.split_once(':') {
            Some((slug, rto)) => {
                let rto_us: u64 = rto.parse().map_err(|_| ParseSchemeError(s.into()))?;
                (slug, Some(rto_us))
            }
            None => (s, None),
        };
        let rto = |default_us: u64| aeolus_sim::units::us(rto_us.unwrap_or(default_us));
        let fixed = |scheme: Scheme| {
            if rto_us.is_some() {
                Err(ParseSchemeError(s.into()))
            } else {
                Ok(scheme)
            }
        };
        match slug {
            "expresspass" => fixed(Scheme::ExpressPass),
            "expresspass-aeolus" => fixed(Scheme::ExpressPassAeolus),
            "expresspass-oracle" => fixed(Scheme::ExpressPassOracle),
            "expresspass-prioq" => Ok(Scheme::ExpressPassPrioQueue { rto: rto(10_000) }),
            "homa" => Ok(Scheme::Homa { rto: rto(10_000) }),
            "homa-eager" => Ok(Scheme::HomaEager { rto: rto(20) }),
            "homa-aeolus" => fixed(Scheme::HomaAeolus),
            "homa-oracle" => fixed(Scheme::HomaOracle),
            "ndp" => fixed(Scheme::Ndp),
            "ndp-aeolus" => fixed(Scheme::NdpAeolus),
            "phost" => Ok(Scheme::PHost { rto: rto(10_000) }),
            "phost-aeolus" => fixed(Scheme::PHostAeolus),
            "dctcp" => Ok(Scheme::Dctcp { rto: rto(10_000) }),
            "fastpass" => fixed(Scheme::Fastpass),
            "fastpass-aeolus" => fixed(Scheme::FastpassAeolus),
            _ => Err(ParseSchemeError(s.into())),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aeolus_sim::units::us;

    fn params() -> SchemeParams {
        SchemeParams::new(us(5))
    }

    #[test]
    fn params_validate_checks_the_effective_buffer() {
        assert_eq!(params().validate(), Ok(()));
        let mut p = params();
        p.port_buffer = 4_000; // below the 6 KB default drop threshold
        let err = p.validate().unwrap_err();
        assert!(err.contains("drop_threshold"), "unhelpful error: {err}");
        // The aeolus config's own pair is still checked too.
        let mut p = params();
        p.aeolus.port_buffer = 1_000;
        assert!(p.validate().is_err());
    }

    #[test]
    fn route_policies() {
        assert_eq!(Scheme::Ndp.route_policy(), RoutePolicy::Spray);
        assert_eq!(Scheme::NdpAeolus.route_policy(), RoutePolicy::Spray);
        assert_eq!(Scheme::HomaAeolus.route_policy(), RoutePolicy::Spray);
        assert_eq!(Scheme::PHostAeolus.route_policy(), RoutePolicy::Spray);
        assert_eq!(Scheme::ExpressPass.route_policy(), RoutePolicy::EcmpHash);
        assert_eq!(Scheme::ExpressPassAeolus.route_policy(), RoutePolicy::EcmpHash);
        assert_eq!(Scheme::Dctcp { rto: us(10_000) }.route_policy(), RoutePolicy::EcmpHash);
    }

    #[test]
    fn all_schemes_build_queues_and_endpoints() {
        let p = params();
        // (Fastpass needs an arbiter node: covered by the harness tests.)
        for s in all_schemes().into_iter().filter(|s| !s.needs_arbiter()) {
            for role in [PortRole::HostNic, PortRole::DownToHost, PortRole::SwitchToSwitch] {
                let q = s.make_queue(&p, Rate::gbps(100), role, None);
                assert_eq!(q.bytes(), 0, "{} queue starts empty", s.name());
            }
            let _ep = s.make_endpoint(&p);
        }
    }

    fn all_schemes() -> Vec<Scheme> {
        vec![
            Scheme::ExpressPass,
            Scheme::ExpressPassAeolus,
            Scheme::ExpressPassOracle,
            Scheme::ExpressPassPrioQueue { rto: us(10_000) },
            Scheme::Homa { rto: us(10_000) },
            Scheme::HomaEager { rto: us(20) },
            Scheme::HomaAeolus,
            Scheme::HomaOracle,
            Scheme::Ndp,
            Scheme::NdpAeolus,
            Scheme::PHost { rto: us(10_000) },
            Scheme::PHostAeolus,
            Scheme::Dctcp { rto: us(10_000) },
            Scheme::Fastpass,
            Scheme::FastpassAeolus,
        ]
    }

    #[test]
    fn names_and_labels_are_distinct() {
        let schemes = all_schemes();
        let names: std::collections::HashSet<&str> = schemes.iter().map(|s| s.name()).collect();
        assert_eq!(names.len(), schemes.len());
        let labels: std::collections::HashSet<String> =
            schemes.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), schemes.len());
    }

    #[test]
    fn name_round_trips_through_from_str() {
        // Property: for every scheme and every RTO in a sampled grid,
        // parsing the printed form reproduces the scheme exactly.
        for scheme in all_schemes() {
            let parsed: Scheme = scheme.name().parse().expect("bare slug parses");
            assert_eq!(parsed.name(), scheme.name(), "slug round-trip");
        }
        for rto_us in [1u64, 20, 200, 10_000, 1_000_000] {
            for slug in ["expresspass-prioq", "homa", "homa-eager", "phost", "dctcp"] {
                let spec = format!("{slug}:{rto_us}");
                let parsed: Scheme = spec.parse().expect("rto-suffixed slug parses");
                let rto = match parsed {
                    Scheme::ExpressPassPrioQueue { rto }
                    | Scheme::Homa { rto }
                    | Scheme::HomaEager { rto }
                    | Scheme::PHost { rto }
                    | Scheme::Dctcp { rto } => rto,
                    other => panic!("{spec} parsed to non-RTO scheme {other:?}"),
                };
                assert_eq!(rto, us(rto_us), "{spec} preserves the timeout");
                assert_eq!(parsed.name(), slug, "{spec} keeps its slug");
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
    }
}
