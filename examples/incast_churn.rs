//! Incast churn: does a receiver's cost follow the flows it is *receiving*,
//! or every flow it has ever seen?
//!
//! One receiver takes thousands of short messages, a handful at a time (the
//! Figure 8/11 pattern, run for far more rounds than any figure needs).
//! Completed flows stay in the receiver's table for duplicate suppression,
//! so a credit, grant or token loop that walks the table slows down with
//! every round; one that reads `FlowTable`'s active set runs at the same
//! ns/event at 6000 rounds as at 200.
//!
//! ```text
//! cargo run --release --example incast_churn             # 7:1 x 20 KB, 200/1500/6000 rounds
//! cargo run --release --example incast_churn f2          # 32:1 Homa, thousands active at once
//! cargo run --release --example incast_churn -- --check  # exit 1 if ns/event grows with rounds
//! ```

use std::process::ExitCode;
use std::time::Instant;

use aeolus::experiments::topos::{many_to_one, testbed};
use aeolus::prelude::*;

const CHURN_SCHEMES: [Scheme; 4] =
    [Scheme::ExpressPassAeolus, Scheme::HomaAeolus, Scheme::PHostAeolus, Scheme::NdpAeolus];

/// `--check` fails when 10x the rounds cost more than this many times the
/// ns/event. A table walk reads above 4x here; host noise is +-30 %.
const CHECK_MAX_RATIO: f64 = 2.0;

struct Run {
    completed: usize,
    scheduled: usize,
    events: u64,
    secs: f64,
}

impl Run {
    fn ns_per_event(&self) -> f64 {
        self.secs * 1e9 / self.events as f64
    }
}

/// `rounds` N:1 rounds of `msg`-byte messages, `gap` apart, every other host
/// sending to the first; the horizon is `rounds * gap` + 400 ms.
fn incast(scheme: Scheme, topo: TopoSpec, msg: u64, rounds: usize, gap: Time) -> Run {
    let mut h = SchemeBuilder::new(scheme).topology(topo).build();
    let hosts = h.hosts().to_vec();
    let flows = incast_rounds(&hosts[1..], hosts[0], msg, rounds, gap, 0, 1);
    h.schedule(&flows);
    let started = Instant::now();
    h.run(rounds as u64 * gap + ms(400));
    Run {
        completed: h.metrics().completed_count(),
        scheduled: flows.len(),
        events: h.network().events_processed(),
        secs: started.elapsed().as_secs_f64(),
    }
}

fn churn(scheme: Scheme, rounds: usize) -> Run {
    incast(scheme, testbed(), 20_000, rounds, ms(1))
}

fn header(first: &str) {
    println!(
        "{first:<10} {:<26} {:>13} {:>11} {:>9} {:>11}",
        "scheme", "done/sched", "events", "seconds", "M events/s"
    );
}

fn row(first: &str, scheme: Scheme, r: &Run) {
    println!(
        "{first:<10} {:<26} {:>13} {:>11} {:>9.2} {:>11.2}",
        scheme.to_string(),
        format!("{}/{}", r.completed, r.scheduled),
        r.events,
        r.secs,
        r.events as f64 / r.secs / 1e6,
    );
}

fn churn_table() {
    println!("7:1 incast, 20 KB messages, 1 ms between rounds, 10G testbed\n");
    header("rounds");
    for rounds in [200, 1500, 6000] {
        for scheme in CHURN_SCHEMES {
            row(&rounds.to_string(), scheme, &churn(scheme, rounds));
        }
    }
}

fn many_active_cells() {
    println!("32:1 incast, 100 rounds 2 ms apart, 100G switch: thousands of messages at once\n");
    header("message");
    for msg in [40_000, 64_000] {
        for scheme in [Scheme::Homa { rto: ms(10) }, Scheme::HomaAeolus] {
            let run = incast(scheme, many_to_one(33), msg, 100, ms(2));
            row(&format!("{} KB", msg / 1000), scheme, &run);
        }
    }
}

fn check() -> ExitCode {
    println!("7:1 x 20 KB churn guard: ns/event at 3000 rounds vs 300, limit {CHECK_MAX_RATIO}x\n");
    println!("{:<26} {:>10} {:>10} {:>7}", "scheme", "300", "3000", "ratio");
    let mut ok = true;
    for scheme in CHURN_SCHEMES {
        let (few, many) = (churn(scheme, 300).ns_per_event(), churn(scheme, 3000).ns_per_event());
        let ratio = many / few;
        let verdict = if ratio > CHECK_MAX_RATIO { "  <- grows with history" } else { "" };
        println!("{:<26} {few:>10.1} {many:>10.1} {ratio:>7.2}{verdict}", scheme.to_string());
        ok &= ratio <= CHECK_MAX_RATIO;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    match std::env::args().nth(1).as_deref() {
        None => churn_table(),
        Some("f2") => many_active_cells(),
        Some("--check") => return check(),
        Some(other) => {
            eprintln!("incast_churn: unknown argument `{other}` (want nothing, `f2` or `--check`)");
            return ExitCode::from(2);
        }
    }
    ExitCode::SUCCESS
}
