//! # memtier-core — the paper's contribution as a library
//!
//! The paper's contribution is not a system but a *characterization
//! methodology*: deploy a suite of in-memory analytics workloads across the
//! memory tiers of a heterogeneous DRAM/NVM machine, sweep the software
//! knobs (executors × cores, MBA throttle), collect low-level telemetry,
//! and distil deployment guidelines plus a performance-prediction recipe.
//! This crate packages exactly that:
//!
//! * [`scenario`] — one experimental point: (workload, size, tier,
//!   executor grid, MBA level, seed) and its measured result.
//! * [`runner`] — executes scenarios (sequentially or thread-parallel; each
//!   scenario is an independent deterministic simulation).
//! * [`campaign`] — the paper's standard sweeps: Fig. 2 (apps × sizes ×
//!   tiers), Fig. 3 (MBA levels), Fig. 4 (executors × cores grid), and the
//!   Fig. 5/6 correlation datasets.
//! * [`guidelines`] — the eight takeaways as *checkable predicates* over
//!   campaign results, each returning pass/fail with numeric evidence.
//! * [`predict`] — Takeaway 8 operationalized: linear models that estimate
//!   execution time on unseen tiers from hardware specs and system-level
//!   events, with leave-one-tier-out evaluation.

#![warn(missing_docs)]

pub mod advisor;
pub mod campaign;
pub mod guidelines;
pub mod predict;
pub mod runner;
pub mod scenario;

pub use advisor::{recommend, validate_promotion, Placement, PromotionValidation};
pub use campaign::{fig2_campaign, fig3_campaign, fig4_grid, Fig4Cell};
pub use guidelines::CampaignData;
pub use guidelines::{check_all, GuidelineReport};
pub use predict::{
    combined_model, correlation_with_specs, event_correlations, leave_one_tier_out,
    profile_correlations, CombinedModelReport, EventCorrelation, SpecCorrelation,
};
pub use runner::{
    conf_for, parallel_sweep, run_scenario, run_scenario_instrumented, run_scenario_profiled,
    run_scenario_with_conf, run_scenarios, ScenarioTelemetry, TelemetryOptions,
};
pub use scenario::{Scenario, ScenarioResult};
