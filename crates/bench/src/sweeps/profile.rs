//! The critical-path profiler sweep (`BENCH_profile.json` plus one
//! `profile_<app>.json` per workload): the table shows where the critical
//! path spends its time, followed by the analytical what-if, which `--check`
//! validates against an actual perturbed re-run instead of re-running a
//! scenario unchanged.

use super::{print_whatif, Sweep};
use crate::{attribution_table, bench_profile_entries, BenchProfileEntry};
use memtier_core::{conf_for, run_scenario_with_conf, ScenarioResult};
use memtier_memsim::{MemSimConfig, TierId};
use memtier_metrics::table::fmt_f64;
use sparklite::{reprice, WhatIf};

/// The what-if scenario the harness demonstrates and validates: double the
/// DCPM (Tier 2) write-drain rate, i.e. halve its idle write latency.
const WHATIF_LABEL: &str = "2x Tier-2 write bandwidth (idle write latency / 2)";

/// The workload whose Tier-2 run `--check` validates the what-if on.
const WHATIF_APP: &str = "repartition";

/// The sweep the `profile` bin runs.
pub fn sweep() -> Sweep<BenchProfileEntry> {
    Sweep {
        per_app_prefix: Some("profile"),
        rerun: None,
        recheck: whatif_validates,
        passed: "artifacts parse, conserve, and the what-if validates",
        ..Sweep::suite(
            "profile",
            bench_profile_entries,
            |text| serde_json::from_str(text),
            check_rows,
            report,
        )
    }
}

/// Halve Tier 2's idle write latency in place.
fn halve_t2_write_latency(config: &mut MemSimConfig) {
    config.tiers[TierId::NVM_NEAR.index()].idle_write_latency_ns /= 2.0;
}

/// The [`WhatIf`] for halved Tier-2 idle write latency.
fn halved_t2_write_whatif() -> WhatIf {
    let base = MemSimConfig::paper_default();
    let mut fast = base.clone();
    halve_t2_write_latency(&mut fast);
    WhatIf::from_configs(&base, &fast)
}

/// Per-run attribution table (component share of virtual runtime), then
/// the what-if on the Tier-2 run of every app: the critical path
/// analytically re-priced under `WHATIF_LABEL`.
fn report(_apps: &[String], results: &[ScenarioResult], _rows: &[BenchProfileEntry]) {
    let table = attribution_table(
        "Critical-path attribution (component share of virtual runtime)",
        ["scenario", "runtime (s)"],
        results
            .iter()
            .map(|r| ([r.scenario.label(), fmt_f64(r.elapsed_s, 3)], r)),
    );
    println!("{table}");

    print_whatif(WHATIF_LABEL, results, |_| halved_t2_write_whatif());
}

/// Each row's attribution re-sums to its runtime.
fn check_rows(rows: &[BenchProfileEntry]) -> Result<(), String> {
    for e in rows {
        if e.conservation_gap_s() > 1e-9 {
            return Err(format!(
                "{} attribution does not conserve (gap {:.3e}s)",
                e.scenario,
                e.conservation_gap_s()
            ));
        }
    }
    Ok(())
}

/// Validate the what-if against reality: actually re-run one scenario with
/// the perturbed tier parameters and require the analytical prediction to
/// land within 10 % of it.
fn whatif_validates(results: &[ScenarioResult], _: &[BenchProfileEntry]) -> Result<(), String> {
    let baseline = results
        .iter()
        .find(|r| r.scenario.workload == WHATIF_APP && r.scenario.tier == TierId::NVM_NEAR)
        .ok_or_else(|| format!("baseline {WHATIF_APP} run missing"))?;
    let predicted = reprice(&baseline.profile, &halved_t2_write_whatif());
    let mut conf = conf_for(&baseline.scenario);
    halve_t2_write_latency(&mut conf.memsim);
    let actual = run_scenario_with_conf(&baseline.scenario, conf)
        .map_err(|e| format!("perturbed re-run: {e}"))?;
    let err = (predicted.predicted_s - actual.elapsed_s).abs() / actual.elapsed_s;
    println!(
        "  what-if validation: predicted {:.4}s vs actual {:.4}s ({:+.1}% error)",
        predicted.predicted_s,
        actual.elapsed_s,
        err * 100.0
    );
    if err > 0.10 {
        return Err(format!("what-if prediction off by {:.1}%", err * 100.0));
    }
    Ok(())
}
