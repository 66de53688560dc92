//! The one sweep pipeline, and the seven sweeps that run on it.
//!
//! Every sweep harness is the same campaign: parse [`BenchArgs`] → build a
//! scenario grid → run it on the worker pool → assert the sweep's
//! acceptance properties in-process → print its table → write
//! `<dir>/BENCH_<name>.json` → under `--check`, re-read the artifact,
//! require it to parse, be non-empty and satisfy the sweep's row
//! predicate, then re-run one chosen scenario and require its regenerated
//! row to match the one on disk byte for byte. [`run`] is that pipeline,
//! written once; a [`Sweep`] holds what differs between harnesses, and the
//! submodules here are the seven descriptions the bins hand to [`run`].

// Each sweep's `parse` is `|text| serde_json::from_str(text)`: the lifetime
// of `serde_json::from_str` is early-bound, so the function itself cannot
// become a `for<'a> fn(&'a str)` pointer. The benchmark's serde stand-in
// has no such lifetime, and clippy calls the closure redundant there.
#![allow(clippy::redundant_closure)]

mod doctor;
mod faults;
mod hotness;
mod netsweep;
mod policy;
mod profile;
mod simspeed;

pub use self::{
    doctor::sweep as doctor, faults::sweep as faults, hotness::sweep as hotness,
    netsweep::sweep as netsweep, policy::sweep as policy, profile::sweep as profile,
    simspeed::sweep as simspeed,
};

use crate::{audit_all, campaign_threads, check_fail, suite_apps, write_json_artifact, BenchArgs};
use memtier_core::{parallel_sweep, run_scenario, Scenario, ScenarioResult};
use memtier_memsim::TierId;
use memtier_workloads::DataSize;
use serde::Serialize;
use sparklite::{reprice, WhatIf};

/// What one sweep harness supplies to the shared pipeline: plain `fn`s and
/// strings, no state. `E` is the sweep's artifact row (`Bench*Entry`).
/// [`Sweep::suite`] fills in the common case; a sweep overrides the rest.
pub struct Sweep<E> {
    /// Artifact stem: the sweep writes `<dir>/BENCH_<name>.json`.
    name: &'static str,
    /// Whether `--app` narrows the sweep (else it always covers the suite).
    by_app: bool,
    /// Sweep width when `--jobs` is absent.
    default_jobs: fn() -> usize,
    /// The scenario grid for the given workloads and size.
    grid: fn(&[String], DataSize) -> Vec<Scenario>,
    /// How one scenario is run — and re-run under `--check`.
    run_one: fn(&Scenario) -> sparklite::error::Result<ScenarioResult>,
    /// The sweep's own in-process acceptance asserts, on top of the audit
    /// every run is held to (panics on a violation: that is a model bug,
    /// not an artifact problem).
    accept: fn(&[String], &[ScenarioResult]),
    /// The artifact projection, one row per result, in input order.
    entries: fn(&[ScenarioResult]) -> Vec<E>,
    /// Artifact rows that are not suite scenarios, appended after them.
    extra_rows: fn(DataSize) -> Vec<E>,
    /// Print the sweep's tables: workloads, results, artifact rows.
    report: fn(&[String], &[ScenarioResult], &[E]),
    /// Also write each workload's rows to `<dir>/<prefix>_<app>.json`.
    per_app_prefix: Option<&'static str>,
    /// Parse the artifact text back into rows. A field, not a
    /// `Deserialize` bound: the benchmark builds this crate against a
    /// `serde` stand-in whose trait has a different shape.
    parse: fn(&str) -> serde_json::Result<Vec<E>>,
    /// The row predicate: held against the rows in-process before they are
    /// written, and against the re-read artifact under `--check`.
    check_rows: fn(&[E]) -> Result<(), String>,
    /// A `--check` step of the sweep's own, over the results and the
    /// re-read rows, between the row predicate and the re-run.
    recheck: fn(&[ScenarioResult], &[E]) -> Result<(), String>,
    /// Which result's scenario `--check` re-runs (the first match), if any.
    rerun: Option<fn(&ScenarioResult) -> bool>,
    /// The part of a row that must regenerate byte-identically.
    identity: fn(&E) -> String,
    /// How the determinism line words a successful regeneration.
    regenerated: &'static str,
    /// What a passed `--check` reports having verified.
    passed: &'static str,
}

/// Print `title`, then every Tier-2 run's critical path analytically
/// re-priced under `whatif(run)`.
fn print_whatif(
    title: &str,
    results: &[ScenarioResult],
    whatif: impl Fn(&ScenarioResult) -> WhatIf,
) {
    println!("## What-if: {title}");
    for r in results
        .iter()
        .filter(|r| r.scenario.tier == TierId::NVM_NEAR)
    {
        let w = reprice(&r.profile, &whatif(r));
        println!(
            "{:<24} {:.3}s -> {:.3}s predicted ({:.2}x)",
            r.scenario.label(),
            w.baseline_s,
            w.predicted_s,
            w.speedup
        );
    }
}

/// First result for `app` on `tier` whose scenario satisfies `pred`.
fn find_run<'a>(
    results: &'a [ScenarioResult],
    app: &str,
    tier: TierId,
    pred: impl Fn(&Scenario) -> bool,
) -> &'a ScenarioResult {
    results
        .iter()
        .find(|r| r.scenario.workload == app && r.scenario.tier == tier && pred(&r.scenario))
        .unwrap_or_else(|| panic!("missing sweep point for {app} on {tier}"))
}

/// The suite × all-tiers grid under the default deployment.
fn suite_by_tiers(apps: &[String], size: DataSize) -> Vec<Scenario> {
    apps.iter()
        .flat_map(|app| {
            TierId::all()
                .into_iter()
                .map(move |t| Scenario::default_conf(app, size, t))
        })
        .collect()
}

impl<E: Serialize> Sweep<E> {
    /// The common sweep: the whole suite across the four tiers on all
    /// cores, plain runs, no acceptance asserts, the first scenario re-run
    /// under `--check` and compared whole.
    fn suite(
        name: &'static str,
        entries: fn(&[ScenarioResult]) -> Vec<E>,
        parse: fn(&str) -> serde_json::Result<Vec<E>>,
        check_rows: fn(&[E]) -> Result<(), String>,
        report: fn(&[String], &[ScenarioResult], &[E]),
    ) -> Self {
        Sweep {
            name,
            by_app: false,
            default_jobs: campaign_threads,
            grid: suite_by_tiers,
            run_one: run_scenario,
            accept: |_, _| {},
            entries,
            extra_rows: |_| Vec::new(),
            report,
            per_app_prefix: None,
            parse,
            check_rows,
            recheck: |_, _| Ok(()),
            rerun: Some(|_| true),
            identity: |e| serde_json::to_string(e).expect("serialize artifact row"),
            regenerated: "regenerated byte-identically",
            passed: "artifact parses, stays consistent, and regenerates identically",
        }
    }

    /// The sweep's scenario grid for `apps` at `size`, in artifact order.
    pub fn grid(&self, apps: &[String], size: DataSize) -> Vec<Scenario> {
        (self.grid)(apps, size)
    }

    /// Accept `results` (the results of [`grid`](Self::grid) for the same
    /// `apps`): first what every run owes, whatever the sweep — its
    /// [`audit`](ScenarioResult::audit), the error naming the run and the
    /// identity it breaks — then the sweep's own properties, which panic on
    /// a violation.
    pub fn accept(&self, apps: &[String], results: &[ScenarioResult]) -> Result<(), String> {
        audit_all(results)?;
        (self.accept)(apps, results);
        Ok(())
    }

    /// The artifact half of `--check`: `text` must parse as this sweep's
    /// rows, be non-empty, and satisfy the sweep's row predicate. Returns
    /// the rows, or why the artifact is rejected.
    pub fn check_artifact(&self, text: &str) -> Result<Vec<E>, String> {
        let rows = (self.parse)(text)
            .map_err(|e| format!("not a valid BENCH_{} baseline: {e}", self.name))?;
        if rows.is_empty() {
            return Err("empty artifact".to_string());
        }
        (self.check_rows)(&rows)?;
        Ok(rows)
    }

    /// The whole of `--check`: every file in `paths` passes
    /// [`check_artifact`](Self::check_artifact); then, against the rows of
    /// the last one (`BENCH_<name>.json`, index-aligned with `results`), the
    /// sweep's own `recheck`; then the chosen scenario is re-run and its
    /// fresh row must equal the row on disk under `identity`.
    fn check(&self, paths: &[String], results: &[ScenarioResult]) -> Result<(), String> {
        let mut rows = Vec::new();
        for path in paths {
            let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
            rows = self
                .check_artifact(&text)
                .map_err(|e| format!("{path}: {e}"))?;
        }
        (self.recheck)(results, &rows)?;
        let Some(pick) = self.rerun else {
            return Ok(());
        };
        let i = results
            .iter()
            .position(pick)
            .ok_or("the grid holds no scenario to re-run")?;
        let label = results[i].scenario.label();
        let on_disk = rows
            .get(i)
            .ok_or_else(|| format!("{label} missing from the artifact"))?;
        let rerun = (self.run_one)(&results[i].scenario).map_err(|e| format!("re-run: {e}"))?;
        let fresh = (self.entries)(std::slice::from_ref(&rerun));
        let (a, b) = ((self.identity)(&fresh[0]), (self.identity)(on_disk));
        if a != b {
            return Err(format!(
                "{label} does not regenerate byte-identically:\n fresh: {a}\n disk:  {b}"
            ));
        }
        println!("  determinism: {label} {}", self.regenerated);
        Ok(())
    }
}

/// Run one sweep harness end to end on the process argv (module docs).
/// Usage and I/O errors exit 2, a failed audit or `--check` exits 1, a
/// violated acceptance assert panics.
pub fn run<E: Serialize>(sweep: &Sweep<E>) {
    let args = BenchArgs::parse(&[]);
    let apps = if sweep.by_app {
        args.apps()
    } else {
        suite_apps()
    };
    let jobs = args.jobs.unwrap_or_else(sweep.default_jobs);
    let scenarios = sweep.grid(&apps, args.size);
    eprintln!(
        "{}: {} scenarios ({} apps x {}, {}) on {jobs} worker(s)…",
        sweep.name,
        scenarios.len(),
        apps.len(),
        scenarios.len() / apps.len(),
        args.size
    );
    let results = parallel_sweep(&scenarios, jobs, |s| {
        (sweep.run_one)(s).unwrap_or_else(|e| panic!("{} sweep, {}: {e}", sweep.name, s.label()))
    });
    sweep
        .accept(&apps, &results)
        .unwrap_or_else(|msg| check_fail(msg));
    let mut rows = (sweep.entries)(&results);
    rows.extend((sweep.extra_rows)(args.size));
    (sweep.check_rows)(&rows).unwrap_or_else(|e| panic!("{} sweep: {e}", sweep.name));
    (sweep.report)(&apps, &results, &rows);

    let mut paths = Vec::new();
    if let Some(prefix) = sweep.per_app_prefix {
        for app in &apps {
            let app_rows: Vec<&E> = results
                .iter()
                .zip(&rows)
                .filter(|(r, _)| &r.scenario.workload == app)
                .map(|(_, row)| row)
                .collect();
            let path = format!("{}/{prefix}_{app}.json", args.dir);
            write_json_artifact(&path, &app_rows);
            paths.push(path);
        }
    }
    let path = format!("{}/BENCH_{}.json", args.dir, sweep.name);
    write_json_artifact(&path, &rows);
    paths.push(path);

    if args.check {
        sweep
            .check(&paths, &results)
            .unwrap_or_else(|msg| check_fail(msg));
        println!("  check passed: {}", sweep.passed);
    }
}
