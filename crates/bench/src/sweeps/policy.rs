//! The placement-policy sweep (`BENCH_policy.json`): the dynamic engine's
//! DRAM capacity × epoch grid against the static membind endpoints. HotCold
//! must beat static NVM and lose to all-DRAM.

use super::{find_run, Sweep};
use crate::{bench_policy_entries, pct, BenchPolicyEntry};
use memtier_core::{Scenario, ScenarioResult};
use memtier_des::SimTime;
use memtier_memsim::{PlacementSpec, TierId};
use memtier_metrics::table::fmt_f64;
use memtier_metrics::AsciiTable;
use memtier_workloads::DataSize;

/// The DRAM-capacity axis of the sweep (bytes).
const CAPACITIES: [u64; 3] = [1 << 20, 16 << 20, 256 << 20];

/// The epoch axis of the sweep (microseconds of virtual time).
const EPOCHS_US: [u64; 2] = [100, 1_000];

/// The single `WearAware` point, run at the roomiest HotCold configuration
/// to show the write-penalty's effect in isolation.
const WEAR_CAPACITY: u64 = 256 << 20;

/// The sweep the `policy` bin runs.
pub fn sweep() -> Sweep<BenchPolicyEntry> {
    Sweep {
        by_app: true,
        grid,
        accept: check_ordering,
        rerun: Some(|r| r.scenario.placement.is_some()),
        ..Sweep::suite(
            "policy",
            bench_policy_entries,
            |text| serde_json::from_str(text),
            check_rows,
            report,
        )
    }
}

/// Per app: the two static endpoints, the HotCold grid, one WearAware
/// point. Dynamic runs bind to NVM_NEAR — the tier the engine promotes
/// *out of*, and the static endpoint it has to beat.
fn grid(apps: &[String], size: DataSize) -> Vec<Scenario> {
    let mut scenarios = Vec::new();
    for app in apps {
        let nvm = Scenario::default_conf(app, size, TierId::NVM_NEAR);
        scenarios.push(Scenario::default_conf(app, size, TierId::LOCAL_DRAM));
        scenarios.push(nvm.clone());
        for &cap in &CAPACITIES {
            for &epoch_us in &EPOCHS_US {
                scenarios.push(
                    nvm.clone()
                        .with_placement(PlacementSpec::hot_cold(cap, SimTime::from_us(epoch_us))),
                );
            }
        }
        scenarios.push(nvm.with_placement(PlacementSpec::wear_aware(
            WEAR_CAPACITY,
            SimTime::from_us(EPOCHS_US[1]),
        )));
    }
    scenarios
}

/// The acceptance ordering, per workload: every HotCold point loses to the
/// all-DRAM endpoint, and the best HotCold point beats the static NVM_NEAR
/// endpoint it started from.
fn check_ordering(apps: &[String], results: &[ScenarioResult]) {
    for app in apps {
        let (dram, nvm) = endpoints(app, results);
        let mut best = f64::INFINITY;
        for r in results.iter().filter(|r| {
            &r.scenario.workload == app
                && matches!(r.scenario.placement, Some(PlacementSpec::HotCold { .. }))
        }) {
            assert!(
                r.elapsed_s > dram,
                "{}: HotCold ({:.6}s) must lose to all-DRAM ({dram:.6}s)",
                r.scenario.label(),
                r.elapsed_s
            );
            best = best.min(r.elapsed_s);
        }
        assert!(
            best < nvm,
            "{app}: best HotCold ({best:.6}s) must beat static NVM_NEAR ({nvm:.6}s)"
        );
    }
}

/// The app's static endpoints: `(all-DRAM, NVM_NEAR)` runtimes.
fn endpoints(app: &str, results: &[ScenarioResult]) -> (f64, f64) {
    let static_on = |tier| find_run(results, app, tier, |s| s.placement.is_none()).elapsed_s;
    (static_on(TierId::LOCAL_DRAM), static_on(TierId::NVM_NEAR))
}

/// The sweep table: each run's runtime against the two static endpoints,
/// plus what the engine did to get there.
fn report(_apps: &[String], results: &[ScenarioResult], rows: &[BenchPolicyEntry]) {
    let mut t = AsciiTable::new(vec![
        "scenario",
        "policy",
        "runtime (s)",
        "vs DRAM",
        "vs NVM",
        "migrations",
        "promoted",
        "moved (MB)",
    ])
    .title("Placement-policy sweep (dynamic engine vs static membind endpoints)");
    for (r, row) in results.iter().zip(rows) {
        let (dram, nvm) = endpoints(&r.scenario.workload, results);
        t.row(vec![
            row.scenario.clone(),
            row.policy.clone(),
            fmt_f64(r.elapsed_s, 4),
            pct(r.elapsed_s / dram - 1.0),
            pct(r.elapsed_s / nvm - 1.0),
            r.migrations.migrations.to_string(),
            r.migrations.promotions.to_string(),
            fmt_f64(r.migrations.bytes_moved as f64 / 1e6, 2),
        ]);
    }
    println!("{}", t.render());
}

/// Each row has a real runtime and consistent migration counts, and a
/// static run reports no migration at all.
fn check_rows(rows: &[BenchPolicyEntry]) -> Result<(), String> {
    for e in rows {
        if e.virtual_runtime_s <= 0.0 {
            return Err(format!("{} has a non-positive runtime", e.scenario));
        }
        let m = &e.migrations;
        if m.migrations != m.promotions + m.demotions {
            return Err(format!(
                "{} migration counts are inconsistent: {m:?}",
                e.scenario
            ));
        }
        if e.policy == "static" && *m != Default::default() {
            return Err(format!(
                "static run {} reports migrations: {m:?}",
                e.scenario
            ));
        }
    }
    Ok(())
}
