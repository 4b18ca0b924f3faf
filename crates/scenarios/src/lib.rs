//! # prft-lab — scenario orchestration for the pRFT reproduction
//!
//! The paper's experiments (Tables 1–3, Theorems 1–3, Claims 1–3, Lemma 4)
//! and the workloads beyond them are all instances of one shape: *build a
//! committee from a declarative description, run it over many seeds, and
//! aggregate the observables*. This crate owns that shape:
//!
//! * [`ScenarioSpec`] — a plain-data description of one committee
//!   configuration: size, synchrony flavour, partition windows,
//!   per-player roles (the strategy space), preloaded transactions,
//!   protocol overrides, payoff economics, and — spec v2 — a declarative
//!   **timeline** of [`TimelineEvent`]s (mid-run crash/recovery, role
//!   switches, targeted-delay rules, tx injection) executed
//!   deterministically between run segments;
//! * [`registry`] — ≥10 named scenarios covering the paper's experiments
//!   plus new workloads (mixed-rational committees, GST sweeps, partition
//!   storms, collateral sweeps, committee scaling);
//! * [`BatchRunner`] — a scoped-thread pool fanning seeded runs across
//!   cores with order-independent per-run seeding ([`derive_seed`]), so a
//!   parallel sweep and a serial sweep produce **byte-identical** reports;
//! * [`RunRecord`] / [`BatchReport`] / [`Aggregate`] — per-run observables
//!   and their mean/min/max/CI aggregates plus σ-state histograms;
//! * [`report`] — JSON, CSV, and terminal emission;
//! * [`GameExplorer`] / [`GameDef`] / [`game_registry`] — the empirical
//!   game-exploration engine: profile space → spec → utilities, with
//!   symmetry reduction, an in-process memo of finished cells, CI-aware
//!   equilibrium reports, optional mixed-strategy and best-reply-dynamics
//!   analyses, and a multi-game batch mode
//!   ([`GameExplorer::explore_all`]) that shares cells across games with
//!   a common cache scope (see `docs/REPORT_SCHEMA.md` and
//!   `docs/GAME_ANALYSIS.md`);
//! * the `prft-lab` binary — `prft-lab list`, `prft-lab run <scenario>
//!   --seeds N --threads T [--format json|csv|table] [--out FILE]`,
//!   `prft-lab explore run <game> [--mixed] [--dynamics]` for
//!   equilibrium sweeps, `prft-lab explore run-all` for one flattened
//!   batch over every registered game, and `prft-lab claims`;
//! * [`claims`] — the paper's theorems, tables, claims and figures as one
//!   table of rows, each evaluated through [`BatchRunner`] into checks
//!   with an expected and an observed verdict (`CLAIMS.json`).
//!
//! ## Example
//!
//! ```
//! use prft_lab::{BatchRunner, ScenarioSpec};
//!
//! let spec = ScenarioSpec::new("demo", 5, 2).horizon(200_000);
//! let report = BatchRunner::new(2).run(&spec, 4);
//! assert_eq!(report.seeds, 4);
//! assert_eq!(report.rate("agreement_rate"), 1.0);
//! assert!(report.agg("min_final_height").mean >= 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod checkpoint;
pub mod claims;
pub mod diff;
mod explore;
mod games;
pub mod json;
mod record;
mod registry;
pub mod report;
mod runner;
mod spec;
mod trace_export;

pub use build::{
    build_sim, record_run, replica, run_one, run_one_with, run_sim, run_workload_sim, summarize,
};
pub use checkpoint::{prefix_fingerprint, CheckpointEntry, CheckpointStore, ReuseStats};
pub use explore::{Exploration, GameDef, GameEval, GameExplorer, UtilityCache};
pub use games::{find_game, game_registry};
pub use prft_workload::{
    ArrivalModel, Metric as WorkloadMetric, RejectAction, RetryPolicy, WorkloadRunStats,
    WorkloadSpec, METRICS as WORKLOAD_METRICS,
};
pub use record::{
    Aggregate, BatchMetric, BatchReport, Finished, Invariant, Reads, RunRecord, BATCH_METRICS,
    INVARIANTS,
};
pub use registry::{find, registry, Scenario};
pub use runner::{derive_seed, effective_threads, par_map, BatchRunner};
pub use spec::{PartitionSpec, Role, ScenarioSpec, Synchrony, TimelineEvent, TxSpec, UtilitySpec};
pub use trace_export::{chrome_trace_for, render_chrome_trace};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulation_is_send() {
        // The batch runner builds simulations on worker threads; this
        // compile-time assertion is the contract the sim/core layers keep.
        fn assert_send<T: Send>() {}
        assert_send::<prft_sim::Simulation<prft_workload::Actor>>();
    }

    #[test]
    fn honest_run_end_to_end() {
        let spec = ScenarioSpec::new("smoke", 5, 2).horizon(200_000);
        let record = run_one(&spec, 42);
        assert!(record.agreement);
        assert_eq!(record.min_final_height, 2);
        assert_eq!(record.sigma, prft_game::SystemState::HonestExecution);
    }
}
