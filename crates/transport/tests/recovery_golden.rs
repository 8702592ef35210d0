//! Faulted runs pinned bit-for-bit. The clean-run goldens (the incast event
//! count, fig09) never reach a retry timer, a silence gate, the engine's
//! aborted-flow delivery gate or a crash rebuild; these rows do, for every scheme of `fault_recovery.rs` and
//! for the Blind / Hold / LowPrio baselines, so a refactor of the recovery
//! and credit code can be proven behaviour-preserving.
//!
//! Two plans on the 8-host testbed, 21 incast flows of 200 KB (three per
//! sender):
//!
//! * `flap`: 0.5% corruption loss on everything, a 300 µs whole-fabric link
//!   flap, a source-host crash/restart and a sink crash/restart — retries,
//!   stall scans, flow abort/restart and the crash rebuild in both roles.
//! * `split`: a 600 ms pod partition — the peer-silence give-up and the
//!   engine gate that keeps stragglers of an aborted flow from either end.
//!
//! Each row pins `(events processed, FNV-1a digest over every flow's
//! completed_at / delivered / timeouts / retransmitted / restarts /
//! aborted)`. Every named scheme has a row (15 x 2 = 30). A changed row means recovery behaviour changed: re-pin only
//! with the reason in the commit message.

use aeolus_sim::topology::LinkParams;
use aeolus_sim::units::{ms, us};
use aeolus_sim::{FaultPlan, FlowDesc, FlowId, Rate};
use aeolus_transport::{Scheme, SchemeBuilder, SchemeParams, TopoSpec};

const FLAP: &str =
    "loss=0.005, down=100us..400us, crash=1@150us..650us, crash=0@2ms..3ms, seed=9";
const SPLIT: &str = "partition=150us..600ms, seed=9";

fn fnv(h: &mut u64, v: u64) {
    for b in v.to_le_bytes() {
        *h ^= b as u64;
        *h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
}

/// `(events processed, per-flow digest)`.
type Row = (u64, u64);

fn run(scheme: Scheme, plan: &str) -> Row {
    let mut params = SchemeParams::new(0);
    params.faults = plan.parse::<FaultPlan>().expect("plan parses");
    let mut h = SchemeBuilder::new(scheme)
        .params(params)
        .topology(TopoSpec::SingleSwitch {
            hosts: 8,
            link: LinkParams::uniform(Rate::gbps(10), us(3)),
        })
        .build();
    let hosts = h.hosts().to_vec();
    let flows: Vec<FlowDesc> = (0..21u64)
        .map(|i| FlowDesc {
            id: FlowId(i + 1),
            src: hosts[i as usize % (hosts.len() - 1) + 1],
            dst: hosts[0],
            size: 200_000,
            start: i * us(1),
        })
        .collect();
    h.schedule(&flows);
    h.run(ms(3000));
    let mut digest = 0xcbf2_9ce4_8422_2325u64;
    for r in h.metrics().flows() {
        fnv(&mut digest, r.desc.id.0);
        fnv(&mut digest, r.completed_at.map_or(u64::MAX, |t| t));
        fnv(&mut digest, r.delivered);
        fnv(&mut digest, r.timeouts as u64);
        fnv(&mut digest, r.retransmitted);
        fnv(&mut digest, r.restarts as u64);
        fnv(&mut digest, r.aborted.map_or(0, |c| 1 + c as u64));
    }
    (h.network().events_processed(), digest)
}

/// `(scheme, flap row, split row)`, recorded at commit 5796b2f (the parent
/// of the recovery-core refactor) except where noted.
/// The event counts were re-recorded when `PortFree` became an on-demand
/// event (fewer events, same order); every digest is as first recorded.
fn golden() -> Vec<(Scheme, Row, Row)> {
    vec![
        (
            Scheme::ExpressPassAeolus,
            (39_625, 0x6691047be7388c8f),
            (307_958, 0x1f66802bf7c7ccbf),
        ),
        (Scheme::HomaAeolus, (22_537, 0x855acfc00da8818f), (27_181, 0x8d99f689b6d30246)),
        (Scheme::NdpAeolus, (41_621, 0xe9119a22981dd754), (1_427_387, 0x448504fe92b0f512)),
        (Scheme::PHostAeolus, (32_358, 0xfc998af7aad55def), (168_718, 0x6a0ea78742a01bd5)),
        // Re-pinned when Fastpass gained the first-contact probe retry: one
        // extra timer event per launch (46 / 21 here), flow digests unchanged.
        // Flap re-pinned when the engine began dropping the flow timers of
        // an aborted incarnation: no stale `REQUEST_RETRY` re-asks for a
        // relaunched flow's slots, so timeouts fall 48 -> 27 and every
        // flow's completion moves (14 earlier, flows 1-5, 13 and 15 later).
        // Both event counts re-pinned when a finished flow's granted slots
        // stopped ticking (803 / 480 fewer timer events, digests unchanged).
        (Scheme::FastpassAeolus, (24_696, 0xd045bbd4d2c90de2), (11_392, 0x8d32a32d65e09bad)),
        // Re-pinned when a DCTCP flow came to keep one queued RTO event
        // (fewer timer pops in both rows). The flap digest moved with the
        // fix that came with it: the plan's crashes relaunch flows, and a
        // relaunch no longer takes a timeout from its aborted incarnation's
        // RTO (parent code with RTO generations unique per flow gives the
        // same digest).
        (Scheme::Dctcp { rto: ms(10) }, (20_521, 0x3c12185e8acda762), (8_879, 0x89acdd0870504647)),
        // The baselines, recorded at c11f242 (the parent of the credit-core
        // refactor): timeout-driven token and grant write-off (Blind),
        // trimming-NACK pulls, and the credit loop without a burst (Hold)
        // or with RTO-only recovery (LowPrio). The flap rows of Homa and
        // of LowPrio were re-pinned when the engine began dropping the flow
        // timers of an aborted incarnation. Homa: no stale `SENDER_RTO`
        // fires into a relaunched flow, so timeouts fall 121 -> 84 and 17
        // flows complete at other times (flows 11, 17, 19 and 21 later, the
        // rest earlier). LowPrio: no stale `RTO`, so 19 flows take one
        // timeout fewer (67 -> 48) and flows 3, 18 and 21 complete 1-10 us
        // earlier.
        (Scheme::Homa { rto: ms(10) }, (22_188, 0x055854cb348e23be), (10_318, 0x5f3c4162de851443)),
        (Scheme::PHost { rto: ms(10) }, (32_172, 0x2e0d202665723b4d), (25_586, 0xee2a86dd57bf3779)),
        (Scheme::Ndp, (42_407, 0x52d0dd01df4a2c50), (1_449_864, 0xc393e81d14b0aacf)),
        (Scheme::ExpressPass, (35_167, 0xe850191fa00a432d), (306_942, 0x4ea8e2d903918d6a)),
        (
            Scheme::ExpressPassPrioQueue { rto: ms(10) },
            (50_767, 0x54c61c094594a5af),
            (314_418, 0x87be73d41a0e6cb7),
        ),
        // The four names no golden pinned, recorded at f5a2bc0 (the parent
        // of the scheme-table refactor): both oracles (probe recovery over
        // the infinite-buffer bank), eager Homa's naive 20 us deadline and
        // Fastpass without a burst. Fastpass' flap row was re-pinned when
        // the engine began dropping the flow timers of an aborted
        // incarnation: no stale `REQUEST_RETRY`, timeouts 32 -> 30, and 20
        // flows complete at other times (flows 3-5, 10-13, 18 and 21 later,
        // the rest earlier). Both its event counts were re-pinned when a
        // finished flow's granted slots stopped ticking (870 / 504 fewer
        // timer events, digests unchanged).
        (
            Scheme::ExpressPassOracle,
            (37_000, 0xc71a431ae9fc7ab1),
            (308_056, 0x34667b7f83ab345d),
        ),
        (Scheme::HomaOracle, (21_790, 0x507017ee59ddb187), (20_523, 0xa17e738cf6f87db3)),
        (
            Scheme::HomaEager { rto: us(20) },
            (9_626_175, 0x233da01a8cd41a78),
            (1_544_687, 0x2e5749ed5417fa8f),
        ),
        (Scheme::Fastpass, (22_735, 0x41fba5686cd8a557), (9_303, 0x2338fa4c9ce21604)),
    ]
}

#[test]
fn faulted_runs_match_the_pinned_rows() {
    let mut mismatches = Vec::new();
    for (scheme, flap, split) in golden() {
        for (label, plan, want) in [("flap", FLAP, flap), ("split", SPLIT, split)] {
            let got = run(scheme, plan);
            if got != want {
                mismatches.push(format!(
                    "{} {label}: got ({}, {:#018x}), pinned ({}, {:#018x})",
                    scheme.name(),
                    got.0,
                    got.1,
                    want.0,
                    want.1
                ));
            }
        }
    }
    assert!(mismatches.is_empty(), "recovery behaviour changed:\n{}", mismatches.join("\n"));
}
