#![warn(missing_docs)]
//! # aeolus-experiments — paper reproduction runners
//!
//! One module per table/figure of the Aeolus paper (see DESIGN.md for the
//! experiment index). Each module's `run(session, scale)` returns a
//! [`Report`] whose rows mirror what the paper reports; the `repro` binary
//! builds one [`Session`] from its flags and prints them.
//!
//! Figures 6 and 7 are architecture diagrams with no experiment; Figure 5's
//! illustration is reproduced as a measured cascade micro-experiment.

pub mod ablation;
pub mod cache;
pub mod chaos;
pub mod compare;
pub mod ext_fastpass;
pub mod ext_phost;
pub mod ext_reactive;
pub mod report;
pub mod runner;
pub mod scale;
pub mod topos;
pub mod trace;
pub mod validation;

pub mod fig01;
pub mod fig02;
pub mod fig03;
pub mod fig04;
pub mod fig05;
pub mod fig08;
pub mod fig09;
pub mod fig10;
pub mod fig11;
pub mod fig12;
pub mod fig13;
pub mod fig14;
pub mod fig15;
pub mod fig16;
pub mod fig17;
pub mod fig18;
pub mod tab01;
pub mod tab02;
pub mod tab03;
pub mod tab04;
pub mod tab05;

pub use cache::{Cache, CacheStats};
pub use report::Report;
#[doc(hidden)]
pub use runner::set_jobs;
pub use runner::{collect, EventTally, RunConfig, RunOutput, Session};
pub use aeolus_transport::corpus::{
    run_campaign, CampaignConfig, CampaignFailure, CampaignOutcome, Corpus, Signature,
};
pub use aeolus_transport::fuzz::{fuzz, shrink, FuzzReport, Scenario};
pub use aeolus_sim::{FaultPlan, SchedulerKind};
pub use scale::Scale;
pub use trace::{run_trace, TraceOutput, TraceSpec};

/// An experiment entry: CLI name plus the function that runs it in a
/// session.
pub type ExperimentEntry = (&'static str, fn(&Session, Scale) -> Report);

/// All experiments by CLI name, with the function that runs them. The four
/// that neither fan out nor count events take no session.
pub fn registry() -> Vec<ExperimentEntry> {
    vec![
        ("fig1", fig01::run as fn(&Session, Scale) -> Report),
        ("fig2", |_, scale| fig02::run(scale)),
        ("fig3", fig03::run),
        ("fig4", fig04::run),
        ("fig5", |_, scale| fig05::run(scale)),
        ("fig8", fig08::run),
        ("fig9", fig09::run),
        ("fig10", fig10::run),
        ("fig11", fig11::run),
        ("fig12", fig12::run),
        ("fig13", fig13::run),
        ("fig14", fig14::run),
        ("fig15", fig15::run),
        ("fig16", fig16::run),
        ("fig17", fig17::run),
        ("fig18", fig18::run),
        ("table1", tab01::run),
        ("table2", |_, scale| tab02::run(scale)),
        ("table3", tab03::run),
        ("table4", tab04::run),
        ("table5", tab05::run),
        ("ablation", ablation::run),
        ("chaos", chaos::run),
        ("phost", ext_phost::run),
        ("fastpass", ext_fastpass::run),
        ("reactive", ext_reactive::run),
        ("validate", |_, scale| validation::run(scale)),
    ]
}

/// The node-fault cells of the [`chaos`] grid (crashes, a partition, an
/// arbiter outage), checked on the shared smoke grid under their own names.
#[cfg(test)]
mod chaos_nodes {
    mod tests {
        use crate::chaos::tests as chaos;

        #[test]
        fn chaos_nodes_smoke_has_zero_hangs() {
            chaos::node_cells_have_zero_hangs();
        }

        #[test]
        fn clean_cell_is_all_completions() {
            chaos::clean_cell_is_all_completions();
        }

        #[test]
        fn crash_cell_actually_bites() {
            chaos::crash_cells_bite();
        }
    }
}
