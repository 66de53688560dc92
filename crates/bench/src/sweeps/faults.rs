//! The fault-tolerance sweep (`BENCH_faults.json`): deterministic
//! task-failure rates across tier placements, plus one
//! straggler+speculation point. A zero-fault plan must be byte-identical to
//! no plan and recovery overhead monotone in the failure rate.

use super::{find_run, Sweep};
use crate::{bench_faults_entries, pct, BenchFaultsEntry};
use memtier_core::{Scenario, ScenarioResult};
use memtier_memsim::TierId;
use memtier_metrics::table::fmt_f64;
use memtier_metrics::AsciiTable;
use memtier_workloads::DataSize;
use sparklite::{FaultPlan, SpeculationConf};

/// The failure-rate axis of the sweep (`0.0` is the plan-free endpoint).
const FAILURE_RATES: [f64; 3] = [0.0, 0.05, 0.15];

/// The tier-placement axis of the sweep.
const TIERS: [TierId; 2] = [TierId::LOCAL_DRAM, TierId::NVM_NEAR];

/// One seed for the whole artifact: the sweep is a pure function of it.
const SEED: u64 = 2024;

/// The straggler point: heavy slowdowns with speculation cleaning them up.
const STRAGGLER_PROB: f64 = 0.35;
const STRAGGLER_FACTOR: f64 = 8.0;

/// The sweep the `faults` bin runs.
pub fn sweep() -> Sweep<BenchFaultsEntry> {
    Sweep {
        by_app: true,
        grid,
        accept,
        // A scenario that actually saw failures.
        rerun: Some(|r| r.recovery.task_failures > 0),
        ..Sweep::suite(
            "faults",
            bench_faults_entries,
            |text| serde_json::from_str(text),
            check_rows,
            report,
        )
    }
}

/// Per app: the failure-rate axis on each tier (rate 0 is the plan-free
/// endpoint), one zero-fault plan for the byte-identity check, and one
/// straggler+speculation point.
fn grid(apps: &[String], size: DataSize) -> Vec<Scenario> {
    let mut scenarios = Vec::new();
    for app in apps {
        for &tier in &TIERS {
            for &rate in &FAILURE_RATES {
                let s = Scenario::default_conf(app, size, tier);
                scenarios.push(if rate > 0.0 {
                    s.with_faults(FaultPlan::seeded(SEED).with_task_failures(rate))
                } else {
                    s
                });
            }
        }
        let nvm = Scenario::default_conf(app, size, TierId::NVM_NEAR);
        scenarios.push(nvm.clone().with_faults(FaultPlan::seeded(SEED)));
        scenarios.push(
            nvm.with_faults(
                FaultPlan::seeded(SEED)
                    .with_stragglers(STRAGGLER_PROB, STRAGGLER_FACTOR)
                    .with_speculation(SpeculationConf::default()),
            ),
        );
    }
    scenarios
}

fn accept(apps: &[String], results: &[ScenarioResult]) {
    check_zero_fault_identity(apps, results);
    check_monotone_overhead(apps, results);
}

/// The subsystem's ground rule, re-checked on the artifact's own runs: the
/// zero-fault plan reproduces the plan-free NVM_NEAR endpoint byte-for-byte
/// (everything measured — only the scenario descriptor may differ).
fn check_zero_fault_identity(apps: &[String], results: &[ScenarioResult]) {
    for app in apps {
        let plain = find_run(results, app, TierId::NVM_NEAR, |s| s.faults.is_none());
        let zero = find_run(results, app, TierId::NVM_NEAR, |s| {
            s.faults.as_ref().is_some_and(|p| p.is_zero())
        });
        let blank = |r: &ScenarioResult| {
            let mut r = r.clone();
            r.scenario = plain.scenario.clone();
            serde_json::to_string(&r).expect("serialize result")
        };
        assert_eq!(
            blank(plain),
            blank(zero),
            "{app}: a zero-fault plan must be bit-for-bit no-plan"
        );
    }
}

/// Recovery overhead is monotone in the failure rate: on each tier, runtime
/// never decreases as the rate climbs, and the sweep as a whole injected
/// real failures.
fn check_monotone_overhead(apps: &[String], results: &[ScenarioResult]) {
    let mut total_failures = 0u64;
    for app in apps {
        for &tier in &TIERS {
            let series: Vec<&ScenarioResult> = FAILURE_RATES
                .iter()
                .map(|&rate| {
                    find_run(results, app, tier, |s| match &s.faults {
                        None => rate == 0.0,
                        Some(p) => {
                            p.task_failure_prob == rate && p.straggler_prob == 0.0 && !p.is_zero()
                        }
                    })
                })
                .collect();
            for pair in series.windows(2) {
                assert!(
                    pair[1].elapsed_s >= pair[0].elapsed_s,
                    "{}: runtime must be monotone in the failure rate \
                     ({:.6}s at a higher rate vs {:.6}s)",
                    pair[1].scenario.label(),
                    pair[1].elapsed_s,
                    pair[0].elapsed_s
                );
            }
            total_failures += series.iter().map(|r| r.recovery.task_failures).sum::<u64>();
        }
    }
    assert!(
        total_failures > 0,
        "the sweep must inject at least one failure overall"
    );
}

/// The sweep table: each run's runtime against its plan-free endpoint, plus
/// what recovery did to get there.
fn report(_apps: &[String], results: &[ScenarioResult], rows: &[BenchFaultsEntry]) {
    let mut t = AsciiTable::new(vec![
        "scenario",
        "plan",
        "runtime (s)",
        "vs clean",
        "failures",
        "retries",
        "resubmits",
        "spec won",
        "waste",
    ])
    .title("Fault-injection sweep (recovery overhead vs plan-free endpoints)");
    for (r, row) in results.iter().zip(rows) {
        let s = &r.scenario;
        let clean = find_run(results, &s.workload, s.tier, |s| s.faults.is_none());
        let v = &r.recovery;
        t.row(vec![
            row.scenario.clone(),
            row.plan.clone(),
            fmt_f64(r.elapsed_s, 4),
            pct(r.elapsed_s / clean.elapsed_s - 1.0),
            v.task_failures.to_string(),
            v.retries.to_string(),
            v.stage_resubmissions.to_string(),
            v.speculative_won.to_string(),
            pct(v.waste_fraction()),
        ]);
    }
    println!("{}", t.render());
}

/// Each row has a real runtime and a waste fraction in range; a plan-free
/// run is quiet; nothing retried without a recorded failure.
fn check_rows(rows: &[BenchFaultsEntry]) -> Result<(), String> {
    for e in rows {
        if e.virtual_runtime_s <= 0.0 {
            return Err(format!("{} has a non-positive runtime", e.scenario));
        }
        let v = &e.recovery;
        let frac = v.waste_fraction();
        if !(0.0..=1.0).contains(&frac) {
            return Err(format!("{} waste fraction {frac} out of range", e.scenario));
        }
        if e.plan == "none" && !v.is_quiet() {
            return Err(format!(
                "plan-free run {} reports recovery activity: {v:?}",
                e.scenario
            ));
        }
        if v.retries > 0 && v.task_failures + v.fetch_failures + v.executor_crashes == 0 {
            return Err(format!(
                "{} retried without any recorded failure: {v:?}",
                e.scenario
            ));
        }
    }
    Ok(())
}
