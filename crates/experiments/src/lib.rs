#![warn(missing_docs)]
//! # aeolus-experiments — paper reproduction runners
//!
//! One module per table/figure of the Aeolus paper (see DESIGN.md for the
//! experiment index). Each module's `run(scale)` returns a [`Report`] whose
//! rows mirror what the paper reports; the `repro` binary prints them.
//!
//! Figures 6 and 7 are architecture diagrams with no experiment; Figure 5's
//! illustration is reproduced as a measured cascade micro-experiment.

pub mod ablation;
pub mod cache;
pub mod chaos;
pub mod chaos_nodes;
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

pub use cache::{cache_enabled, cache_stats, set_cache_dir, set_cache_verify, CacheStats};
pub use report::Report;
pub use runner::{
    checked, collect, default_faults, jobs, parallel_map, run_flows, run_many, run_workload,
    set_checked, set_default_faults, set_jobs, take_event_mix, take_events_processed, RunConfig,
    RunOutput,
};
pub use aeolus_transport::corpus::{
    run_campaign, CampaignConfig, CampaignFailure, CampaignOutcome, Corpus, Signature,
};
pub use aeolus_transport::fuzz::{fuzz, shrink, FuzzReport, Scenario};
pub use aeolus_sim::{FaultPlan, SchedulerKind};
pub use scale::Scale;
pub use trace::{run_trace, TraceOutput, TraceSpec};

/// An experiment entry: CLI name plus the function that runs it.
pub type ExperimentEntry = (&'static str, fn(Scale) -> Report);

/// All experiments by CLI name, with the function that runs them.
pub fn registry() -> Vec<ExperimentEntry> {
    vec![
        ("fig1", fig01::run as fn(Scale) -> Report),
        ("fig2", fig02::run),
        ("fig3", fig03::run),
        ("fig4", fig04::run),
        ("fig5", fig05::run),
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
        ("table2", tab02::run),
        ("table3", tab03::run),
        ("table4", tab04::run),
        ("table5", tab05::run),
        ("ablation", ablation::run),
        ("chaos", chaos::run),
        ("chaos_nodes", chaos_nodes::run),
        ("phost", ext_phost::run),
        ("fastpass", ext_fastpass::run),
        ("reactive", ext_reactive::run),
        ("validate", validation::run),
    ]
}
