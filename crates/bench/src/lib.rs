//! # memtier-bench — table/figure regeneration harnesses
//!
//! One binary per paper artifact (Tables I–II, Figs. 2–6, the takeaways),
//! plus Criterion benches (`benches/`) that time the underlying campaigns
//! and the ablations DESIGN.md calls out. Every binary prints the same rows
//! or series the paper reports and, with `--json <path>`, also dumps the raw
//! results for EXPERIMENTS.md regeneration. The seven sweep harnesses
//! (`doctor`, `hotness`, `profile`, `policy`, `faults`, `netsweep`,
//! `simspeed`) are one pipeline, [`sweeps::run`], applied to seven
//! [`sweeps::Sweep`] descriptions.
//!
//! ## Exit codes
//!
//! Every harness binary follows the same contract:
//!
//! * `0` — success (for `compare`: every scenario within tolerance).
//! * `1` — a substantive failure: a `--check` self-check failed
//!   ([`check_fail`]) or the `compare` gate found a regression / drifted
//!   scenario set.
//! * `2` — usage or I/O errors: unknown flags or values
//!   ([`BenchArgs::parse`]), unreadable or unparsable input artifacts
//!   ([`load_baseline`]), unwritable output paths
//!   ([`write_text_artifact`]).

#![warn(missing_docs)]

pub mod sweeps;

use memtier_core::ScenarioResult;
use memtier_des::SimTime;
use memtier_memsim::MigrationStats;
use memtier_metrics::table::fmt_f64;
use memtier_metrics::AsciiTable;
use memtier_workloads::{all_workloads, DataSize};
use serde::{Deserialize, Serialize};
use sparklite::{
    explain, EngineStats, ExplainReport, Finding, NetReport, RecoveryStats, RunDigest,
};
use std::collections::BTreeMap;

/// Worker threads for campaign parallelism (scenarios are independent
/// deterministic simulations; parallelism never changes a measurement).
pub fn campaign_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
}

/// Parse `--flag <value>` from an argv slice.
pub fn arg_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

/// Abort with a usage or I/O error: print the message and exit with
/// status 2.
fn usage_fail(msg: String) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

/// Abort a `--check` run: print the failure and exit with status 1 (the CI
/// smoke steps key off the exit status).
pub fn check_fail(msg: String) -> ! {
    eprintln!("check FAILED: {msg}");
    std::process::exit(1);
}

/// Hold every run to its [`audit`](ScenarioResult::audit); the error names
/// the first run that breaks a conservation identity, and which one.
pub fn audit_all(results: &[ScenarioResult]) -> Result<(), String> {
    results.iter().try_for_each(|r| {
        r.audit()
            .map_err(|e| format!("{}: {e}", r.scenario.label()))
    })
}

/// The workload names of the full suite, in suite order.
pub(crate) fn suite_apps() -> Vec<String> {
    all_workloads()
        .iter()
        .map(|w| w.name().to_string())
        .collect()
}

/// The value-taking flags every harness shares; `--check` is the one
/// switch.
const COMMON_FLAGS: [&str; 4] = ["--size", "--dir", "--app", "--jobs"];

/// The common CLI surface of the bench harnesses: `--size tiny|small|large`
/// (default `tiny`), `--dir <path>` (default `results`), `--check`,
/// `--jobs <n>` (sweep worker threads; the default is per-harness), and —
/// for the harnesses that support it — `--app <name>`.
#[derive(Debug, Clone)]
pub struct BenchArgs {
    /// Data-size profile of every scenario the harness runs.
    pub size: DataSize,
    /// Output directory for artifacts (created on demand).
    pub dir: String,
    /// Run the harness's self-checks after writing artifacts.
    pub check: bool,
    /// Restrict the sweep to one workload (`--app`), when given.
    pub app: Option<String>,
    /// Sweep worker threads (`--jobs`), when given. Results are merged in
    /// input order, so any worker count produces byte-identical artifacts
    /// ([`memtier_core::parallel_sweep`]).
    pub jobs: Option<usize>,
}

impl BenchArgs {
    /// [`parse`](Self::parse) over an argv slice; `Err` carries the usage
    /// message.
    pub(crate) fn try_parse(args: &[String], extra: &[&str]) -> Result<BenchArgs, String> {
        let mut rest = args.iter().skip(1);
        while let Some(flag) = rest.next() {
            if flag == "--check" {
                continue;
            }
            if !COMMON_FLAGS.contains(&flag.as_str()) && !extra.contains(&flag.as_str()) {
                return Err(format!("unknown flag {flag:?}"));
            }
            if rest.next().is_none() {
                return Err(format!("{flag} needs a value"));
            }
        }
        let size = match arg_value(args, "--size").as_deref() {
            None | Some("tiny") => DataSize::Tiny,
            Some("small") => DataSize::Small,
            Some("large") => DataSize::Large,
            Some(other) => {
                return Err(format!("unknown --size {other:?} (want tiny|small|large)"));
            }
        };
        let jobs = match arg_value(args, "--jobs") {
            None => None,
            Some(v) => match v.parse::<usize>() {
                Ok(n) if n >= 1 => Some(n),
                _ => return Err(format!("bad --jobs {v:?} (want an integer >= 1)")),
            },
        };
        Ok(BenchArgs {
            size,
            dir: arg_value(args, "--dir").unwrap_or_else(|| "results".to_string()),
            check: args.iter().any(|a| a == "--check"),
            app: arg_value(args, "--app"),
            jobs,
        })
    }

    /// Parse from the process argv, exiting with status 2 on a bad flag —
    /// the shared front door of every harness `main`. `extra` names the
    /// value-taking flags the binary reads for itself; any other flag, or a
    /// flag without its value, is a usage error.
    pub fn parse(extra: &[&str]) -> BenchArgs {
        let args: Vec<String> = std::env::args().collect();
        BenchArgs::try_parse(&args, extra).unwrap_or_else(|msg| usage_fail(msg))
    }

    /// The workloads the sweep covers: the whole suite, or just `--app`.
    /// Exits with status 2 when `--app` names an unknown workload.
    pub(crate) fn apps(&self) -> Vec<String> {
        let apps = suite_apps();
        match &self.app {
            None => apps,
            Some(app) if apps.contains(app) => vec![app.clone()],
            Some(app) => usage_fail(format!("unknown --app {app:?} (want one of {apps:?})")),
        }
    }
}

/// Write a text artifact, creating the parent directory on demand:
/// harnesses own their output tree — CI never has to `mkdir` for them. I/O
/// failures exit with status 2 (the usage-or-I/O code of the shared exit
/// contract), not a panic — an unwritable path is an environment problem,
/// not a harness bug.
pub fn write_text_artifact(path: &str, text: &str) {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() {
            std::fs::create_dir_all(parent)
                .unwrap_or_else(|e| usage_fail(format!("mkdir {}: {e}", parent.display())));
        }
    }
    std::fs::write(path, text).unwrap_or_else(|e| usage_fail(format!("write {path}: {e}")));
}

/// Write a JSON artifact through [`write_text_artifact`]: pretty-print
/// `entries` and log the path.
pub fn write_json_artifact<T: Serialize>(path: &str, entries: &[T]) {
    let json = serde_json::to_string_pretty(entries).expect("serialize artifact");
    write_text_artifact(path, &json);
    eprintln!("wrote {path} ({} entries)", entries.len());
}

/// Dump a serializable value to the `--json` path when one was given.
pub fn maybe_dump_json<T: Serialize>(value: &T) {
    let args: Vec<String> = std::env::args().collect();
    if let Some(path) = arg_value(&args, "--json") {
        let json = serde_json::to_string_pretty(value).expect("serialize results");
        write_text_artifact(&path, &json);
        eprintln!("wrote {path}");
    }
}

/// Render a ratio as a signed percent string.
pub fn pct(x: f64) -> String {
    format!("{:+.1}%", x * 100.0)
}

/// Render where each run's critical path spends its time, as shares of its
/// virtual runtime (each row sums to 1: the attribution conserves), memory
/// stall summed over the tiers. Every row leads with its two `lead` cells.
pub fn attribution_table<'a>(
    title: &str,
    lead: [&str; 2],
    rows: impl IntoIterator<Item = ([String; 2], &'a ScenarioResult)>,
) -> String {
    let mut headers = lead.to_vec();
    headers.extend([
        "compute",
        "shuffle fetch",
        "queue",
        "driver",
        "mem read",
        "mem write",
    ]);
    let mut t = AsciiTable::new(headers).title(title);
    for (lead, r) in rows {
        let a = &r.profile.attribution;
        let read: SimTime = a.mem_read.iter().copied().sum();
        let write: SimTime = a.mem_write.iter().copied().sum();
        let shares = [
            a.compute,
            a.shuffle_fetch,
            a.sched_queue,
            a.driver,
            read,
            write,
        ];
        let mut cells = lead.to_vec();
        cells.extend(shares.map(|x| fmt_f64(x.as_secs_f64() / r.elapsed_s.max(1e-12), 3)));
        t.row(cells);
    }
    t.render()
}

/// One row of the machine-readable perf baseline (`BENCH_profile.json`): a
/// scenario's end-to-end virtual runtime and its conserved critical-path
/// attribution (component name → seconds; the components sum to
/// `virtual_runtime_s` exactly, see `sparklite::RunProfile::conserves`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchProfileEntry {
    /// Workload name.
    pub app: String,
    /// Full scenario label (workload, size, tier, executor grid).
    pub scenario: String,
    /// End-to-end virtual runtime, seconds.
    pub virtual_runtime_s: f64,
    /// Critical-path attribution: component name → seconds on the path.
    pub attribution: BTreeMap<String, f64>,
    /// The run's conserved digest for the regression explainer: the same
    /// attribution in exact integer picoseconds, sliced per stage, plus
    /// per-object footprints and migration/recovery rollups.
    /// `#[serde(default)]` so baselines written before the explainer still
    /// load (as `None`) — the explainer degrades to a note for those.
    #[serde(default)]
    pub digest: Option<RunDigest>,
}

impl BenchProfileEntry {
    /// Absolute gap between the attribution sum and the runtime, seconds.
    /// Zero up to float rounding when the profile conserved.
    pub(crate) fn conservation_gap_s(&self) -> f64 {
        let total: f64 = self.attribution.values().sum();
        (total - self.virtual_runtime_s).abs()
    }
}

/// Build the perf-baseline rows for a result set, in input order.
pub fn bench_profile_entries(results: &[ScenarioResult]) -> Vec<BenchProfileEntry> {
    results
        .iter()
        .map(|r| BenchProfileEntry {
            app: r.scenario.workload.clone(),
            scenario: r.scenario.label(),
            virtual_runtime_s: r.elapsed_s,
            attribution: r.profile.attribution.named_seconds().into_iter().collect(),
            digest: Some(r.digest.clone()),
        })
        .collect()
}

/// One row of the object-hotness baseline (`BENCH_hotness.json`): a
/// scenario's virtual runtime, its total nominal memory stall, and the
/// hottest objects ranked by the bytes they moved. The full per-tier ledger
/// conserves against the machine counters in-process before this summary is
/// written; the file keeps the top objects only.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchHotnessEntry {
    /// Workload name.
    pub app: String,
    /// Full scenario label (workload, size, tier, executor grid).
    pub scenario: String,
    /// End-to-end virtual runtime, seconds.
    pub virtual_runtime_s: f64,
    /// Total nominal memory stall across all objects and tiers, seconds.
    pub total_stall_s: f64,
    /// Hottest objects by bytes moved, descending.
    pub objects: Vec<HotObjectRow>,
}

/// One hot object inside a [`BenchHotnessEntry`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HotObjectRow {
    /// Object label (`rdd3:cache`, `shuffle1:write`, `scratch`, ...).
    pub object: String,
    /// Total bytes moved for this object across all tiers.
    pub total_bytes: u64,
    /// Nominal stall this object's accesses cost, seconds.
    pub stall_s: f64,
    /// Stall seconds saved if the object's traffic had run on Tier 0.
    pub promotion_gain_s: f64,
}

/// How many hot objects each [`BenchHotnessEntry`] keeps.
pub(crate) const HOTNESS_TOP_K: usize = 10;

/// Build the hotness-baseline rows for a result set, in input order.
pub fn bench_hotness_entries(results: &[ScenarioResult]) -> Vec<BenchHotnessEntry> {
    results
        .iter()
        .map(|r| BenchHotnessEntry {
            app: r.scenario.workload.clone(),
            scenario: r.scenario.label(),
            virtual_runtime_s: r.elapsed_s,
            total_stall_s: r.hotness.total_stall().as_secs_f64(),
            objects: r
                .hotness
                .top_by_bytes(HOTNESS_TOP_K)
                .into_iter()
                .map(|o| HotObjectRow {
                    object: o.label.clone(),
                    total_bytes: o.total_bytes,
                    stall_s: o.stall.as_secs_f64(),
                    promotion_gain_s: o.promotion_gain().as_secs_f64(),
                })
                .collect(),
        })
        .collect()
}

/// One row of the doctor baseline (`BENCH_doctor.json`): a scenario's
/// virtual runtime plus the run doctor's verdict — the conservation flag of
/// its windowed series, the grid shape, and the ranked findings with their
/// evidence and recovery estimates. Rows carry `scenario` and
/// `virtual_runtime_s`, so the file feeds the zero-tolerance `compare` gate
/// like every other baseline; the full per-window series stays in-process
/// (the doctor asserts its conservation before this summary is written).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchDoctorEntry {
    /// Workload name.
    pub app: String,
    /// Full scenario label (workload, size, tier, executor grid).
    pub scenario: String,
    /// End-to-end virtual runtime, seconds.
    pub virtual_runtime_s: f64,
    /// The doctor's conservation verdict: every windowed series re-summed
    /// exactly to its run total.
    pub conserved: bool,
    /// The doctor grid's window width, seconds.
    pub window_width_s: f64,
    /// Number of windows on the grid.
    pub windows: usize,
    /// Ranked findings, highest score first (the doctor's full finding
    /// records, evidence windows included).
    pub findings: Vec<Finding>,
}

/// Build the doctor-baseline rows for a result set, in input order.
pub fn bench_doctor_entries(results: &[ScenarioResult]) -> Vec<BenchDoctorEntry> {
    results
        .iter()
        .map(|r| BenchDoctorEntry {
            app: r.scenario.workload.clone(),
            scenario: r.scenario.label(),
            virtual_runtime_s: r.elapsed_s,
            conserved: r.doctor.conserved,
            window_width_s: r.doctor.window_width.as_secs_f64(),
            windows: r.doctor.series.starts.len(),
            findings: r.doctor.findings.clone(),
        })
        .collect()
}

/// One row of the placement-policy baseline (`BENCH_policy.json`): a
/// scenario's virtual runtime under one placement policy (static membind or
/// a dynamic engine configuration) plus what the engine did. The `scenario`
/// label embeds the policy for dynamic runs, so rows join uniquely and the
/// file feeds `compare` like every other baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchPolicyEntry {
    /// Workload name.
    pub app: String,
    /// Full scenario label (workload, size, tier, grid, `[policy]` suffix
    /// for dynamic runs).
    pub scenario: String,
    /// Policy label (`static`, `hotcold(256MiB,5ms)`, ...).
    pub policy: String,
    /// End-to-end virtual runtime, seconds.
    pub virtual_runtime_s: f64,
    /// Migration activity (all zeros for static runs).
    pub migrations: MigrationStats,
}

/// Build the policy-baseline rows for a result set, in input order.
pub fn bench_policy_entries(results: &[ScenarioResult]) -> Vec<BenchPolicyEntry> {
    results
        .iter()
        .map(|r| BenchPolicyEntry {
            app: r.scenario.workload.clone(),
            scenario: r.scenario.label(),
            policy: r
                .scenario
                .placement
                .as_ref()
                .map(|spec| spec.label())
                .unwrap_or_else(|| "static".to_string()),
            virtual_runtime_s: r.elapsed_s,
            migrations: r.migrations,
        })
        .collect()
}

/// One row of the fault-tolerance baseline (`BENCH_faults.json`): a
/// scenario's virtual runtime under one fault plan plus the scheduler's
/// recovery rollup. The `scenario` label embeds the plan for faulty runs,
/// so rows join uniquely and the file feeds `compare` like every other
/// baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchFaultsEntry {
    /// Workload name.
    pub app: String,
    /// Full scenario label (workload, size, tier, grid, `[faults(...)]`
    /// suffix for runs carrying a plan).
    pub scenario: String,
    /// Fault-plan label (`none` for plan-free runs).
    pub plan: String,
    /// End-to-end virtual runtime, seconds.
    pub virtual_runtime_s: f64,
    /// What recovery did (quiet — fault and waste counters all zero — for
    /// plan-free and zero-fault runs; `useful_time` accrues regardless).
    pub recovery: RecoveryStats,
}

/// Build the fault-baseline rows for a result set, in input order.
pub fn bench_faults_entries(results: &[ScenarioResult]) -> Vec<BenchFaultsEntry> {
    results
        .iter()
        .map(|r| BenchFaultsEntry {
            app: r.scenario.workload.clone(),
            scenario: r.scenario.label(),
            plan: r
                .scenario
                .faults
                .as_ref()
                .map(|p| p.label())
                .unwrap_or_else(|| "none".to_string()),
            virtual_runtime_s: r.elapsed_s,
            recovery: r.recovery,
        })
        .collect()
}

/// One row of the network-plane baseline (`BENCH_net.json`): a scenario's
/// virtual runtime under one network wiring plus the full per-link traffic
/// rollup. The `scenario` label embeds the wiring (`[net(...)]` suffix for
/// topology runs), so rows join uniquely and the file feeds `compare` like
/// every other baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchNetEntry {
    /// Workload name.
    pub app: String,
    /// Full scenario label (workload, size, tier, grid, `[net(...)]`
    /// suffix for runs with a wired topology).
    pub scenario: String,
    /// Network-mode label (`loopback` for unwired runs).
    pub wiring: String,
    /// End-to-end virtual runtime, seconds.
    pub virtual_runtime_s: f64,
    /// The run's traffic report (empty — all counters zero — for loopback
    /// and single-node runs, where no transfer crosses a link).
    pub network: NetReport,
}

/// Build the network-baseline rows for a result set, in input order.
pub fn bench_net_entries(results: &[ScenarioResult]) -> Vec<BenchNetEntry> {
    results
        .iter()
        .map(|r| BenchNetEntry {
            app: r.scenario.workload.clone(),
            scenario: r.scenario.label(),
            wiring: r
                .scenario
                .network
                .as_ref()
                .map(|m| m.label())
                .unwrap_or_else(|| "loopback".to_string()),
            virtual_runtime_s: r.elapsed_s,
            network: r.network.clone(),
        })
        .collect()
}

/// One row of the simulator-throughput baseline (`BENCH_simspeed.json`).
///
/// The leading fields are deterministic — pure functions of (workload,
/// config, seed), identical across hosts and runs, and the ones the
/// zero-tolerance `compare` gate joins on via [`RuntimeRow`]. The trailing
/// fields (`wall_ms`, `events_per_sec`, `tasks_per_sec`, `virtual_to_wall`)
/// are the wall-clock sidecar: they vary run to run and host to host, and
/// `compare` ignores them by construction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchSimspeedEntry {
    /// Workload name (`dag-stress` for the synthetic stressor row).
    pub app: String,
    /// Full scenario label; the join key between two baselines.
    pub scenario: String,
    /// End-to-end virtual runtime, seconds (deterministic).
    pub virtual_runtime_s: f64,
    /// Discrete events the engine processed (deterministic).
    pub events_total: u64,
    /// Tasks the scheduler ran (deterministic).
    pub tasks: u64,
    /// Wall-clock time of the run, milliseconds (sidecar).
    pub wall_ms: f64,
    /// Engine throughput: events per wall-clock second (sidecar).
    pub events_per_sec: f64,
    /// Scheduler throughput: tasks per wall-clock second (sidecar).
    pub tasks_per_sec: f64,
    /// Virtual seconds simulated per wall-clock second (sidecar).
    pub virtual_to_wall: f64,
}

impl BenchSimspeedEntry {
    /// The deterministic projection of this row, as canonical JSON — what
    /// the determinism checks compare. Two generations of the same scenario
    /// agree here byte-for-byte even though their wall-clock fields differ.
    pub(crate) fn deterministic_json(&self) -> String {
        serde_json::json!({
            "app": self.app,
            "scenario": self.scenario,
            "virtual_runtime_s": self.virtual_runtime_s,
            "events_total": self.events_total,
            "tasks": self.tasks,
        })
        .to_string()
    }
}

/// Assemble one throughput row from a run's virtual facts and its engine
/// sidecar — shared by the suite rows and the synthetic DAG stressor.
pub(crate) fn simspeed_row(
    app: String,
    scenario: String,
    virtual_runtime_s: f64,
    tasks: u64,
    engine: &EngineStats,
) -> BenchSimspeedEntry {
    let wall_s = engine.wall_ms / 1e3;
    BenchSimspeedEntry {
        app,
        scenario,
        virtual_runtime_s,
        events_total: engine.events_total,
        tasks,
        wall_ms: engine.wall_ms,
        events_per_sec: engine.events_per_sec,
        tasks_per_sec: if wall_s > 0.0 {
            tasks as f64 / wall_s
        } else {
            0.0
        },
        virtual_to_wall: engine.speedup,
    }
}

/// Build the throughput-baseline rows for a set of *profiled* results, in
/// input order. Panics on a result without an engine sidecar — simspeed
/// rows are meaningless for unprofiled runs.
pub fn bench_simspeed_entries(results: &[ScenarioResult]) -> Vec<BenchSimspeedEntry> {
    results
        .iter()
        .map(|r| {
            let e = r
                .engine
                .as_ref()
                .unwrap_or_else(|| panic!("{}: simspeed needs profiled runs", r.scenario.label()));
            simspeed_row(
                r.scenario.workload.clone(),
                r.scenario.label(),
                r.elapsed_s,
                r.tasks,
                e,
            )
        })
        .collect()
}

/// What `compare` and `explain` read from a row of any `BENCH_*.json`: the
/// join key, the runtime, and the run's conserved digest when the row
/// carries one (unknown fields are ignored). Rows written before the
/// explainer, or by digest-less harnesses, load with `digest: None`, and
/// [`explain_baselines`] reports those as notes instead of failing.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuntimeRow {
    /// Full scenario label; the join key between two baselines.
    pub scenario: String,
    /// End-to-end virtual runtime, seconds.
    pub virtual_runtime_s: f64,
    /// The run's conserved digest, when the row carries one.
    #[serde(default)]
    pub digest: Option<RunDigest>,
}

/// Load a baseline for `bin` (the name error messages carry), exiting with
/// status 2 if it cannot be read, is not an array of rows with `scenario`
/// and `virtual_runtime_s`, or is empty.
pub fn load_baseline(bin: &str, path: &str) -> Vec<RuntimeRow> {
    let text = std::fs::read_to_string(path)
        .unwrap_or_else(|e| usage_fail(format!("{bin}: read {path}: {e}")));
    let rows: Vec<RuntimeRow> = serde_json::from_str(&text).unwrap_or_else(|e| {
        usage_fail(format!(
            "{bin}: {path} is not a baseline (array of rows with scenario + virtual_runtime_s): {e}"
        ))
    });
    if rows.is_empty() {
        usage_fail(format!("{bin}: {path} is empty"));
    }
    rows
}

/// One explained scenario: the join label plus the hierarchical diff of its
/// two runs. The array of these is what `EXPLAIN_*.json` holds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioExplain {
    /// Full scenario label (the `compare` join key).
    pub scenario: String,
    /// The conserved hierarchical diff (see `sparklite::explain`).
    pub report: ExplainReport,
}

/// Join two digest-bearing baselines on the scenario label and explain
/// every pair that has a digest on both sides. `only` restricts the join to
/// the scenarios named (all pairs when empty). Returns the explanations (in
/// baseline order) plus human-readable notes for every scenario that could
/// not be explained: present on one side only, or missing a digest.
pub fn explain_baselines(
    baseline: &[RuntimeRow],
    candidate: &[RuntimeRow],
    only: &[String],
) -> (Vec<ScenarioExplain>, Vec<String>) {
    let cand: BTreeMap<&str, &RuntimeRow> =
        candidate.iter().map(|r| (r.scenario.as_str(), r)).collect();
    let mut explained = Vec::new();
    let mut notes = Vec::new();
    for b in baseline {
        if !only.is_empty() && !only.contains(&b.scenario) {
            continue;
        }
        match cand.get(b.scenario.as_str()) {
            None => notes.push(format!("{}: candidate has no such scenario", b.scenario)),
            Some(c) => match (&b.digest, &c.digest) {
                (Some(bd), Some(cd)) => explained.push(ScenarioExplain {
                    scenario: b.scenario.clone(),
                    report: explain(bd, cd),
                }),
                (None, _) => notes.push(format!(
                    "{}: baseline row carries no digest (regenerate it with this tree to explain)",
                    b.scenario
                )),
                (_, None) => notes.push(format!(
                    "{}: candidate row carries no digest (regenerate it with this tree to explain)",
                    b.scenario
                )),
            },
        }
    }
    if !only.is_empty() {
        let base_labels: std::collections::BTreeSet<&str> =
            baseline.iter().map(|r| r.scenario.as_str()).collect();
        for label in only {
            if !base_labels.contains(label.as_str()) {
                notes.push(format!("{label}: baseline has no such scenario"));
            }
        }
    }
    (explained, notes)
}

/// One scenario's baseline-vs-candidate runtime comparison.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct RuntimeDelta {
    /// Full scenario label.
    pub scenario: String,
    /// Baseline virtual runtime, seconds.
    pub baseline_s: f64,
    /// Candidate virtual runtime, seconds.
    pub candidate_s: f64,
    /// Signed relative change, percent (`+` means the candidate is slower).
    pub delta_pct: f64,
}

impl RuntimeDelta {
    /// Whether the delta exceeds `tolerance_pct` in either direction.
    pub fn out_of_tolerance(&self, tolerance_pct: f64) -> bool {
        self.delta_pct.abs() > tolerance_pct
    }
}

/// Join two baselines on the scenario label and compute per-scenario
/// runtime deltas. Returns the deltas (baseline order) plus the labels
/// present in only one side — a changed scenario set is itself a
/// comparison failure, so `compare` reports those too.
pub fn compare_runtimes(
    baseline: &[RuntimeRow],
    candidate: &[RuntimeRow],
) -> (Vec<RuntimeDelta>, Vec<String>) {
    let cand: BTreeMap<&str, f64> = candidate
        .iter()
        .map(|r| (r.scenario.as_str(), r.virtual_runtime_s))
        .collect();
    let base_labels: std::collections::BTreeSet<&str> =
        baseline.iter().map(|r| r.scenario.as_str()).collect();
    let mut deltas = Vec::new();
    let mut unmatched: Vec<String> = Vec::new();
    for r in baseline {
        match cand.get(r.scenario.as_str()) {
            Some(&c) => deltas.push(RuntimeDelta {
                scenario: r.scenario.clone(),
                baseline_s: r.virtual_runtime_s,
                candidate_s: c,
                delta_pct: if r.virtual_runtime_s > 0.0 {
                    (c - r.virtual_runtime_s) / r.virtual_runtime_s * 100.0
                } else {
                    0.0
                },
            }),
            None => unmatched.push(format!("baseline-only: {}", r.scenario)),
        }
    }
    for r in candidate {
        if !base_labels.contains(r.scenario.as_str()) {
            unmatched.push(format!("candidate-only: {}", r.scenario));
        }
    }
    (deltas, unmatched)
}

#[cfg(test)]
mod tests {
    use super::sweeps::{self, Sweep};
    use super::{compare_runtimes, BenchSimspeedEntry, RuntimeRow};
    use memtier_core::{run_scenario, run_scenario_profiled, Scenario};
    use memtier_des::SimTime;
    use memtier_memsim::{PlacementSpec, TierId};
    use memtier_workloads::DataSize;
    use serde::Serialize;

    /// `app` at the tiny size on the near-NVM tier, default deployment.
    fn tiny(app: &str) -> Scenario {
        Scenario::default_conf(app, DataSize::Tiny, TierId::NVM_NEAR)
    }

    /// `rows` pass the sweep's artifact check unchanged (so they round-trip
    /// through JSON); returns them loaded the way `compare` loads them.
    fn accepted<E>(sweep: &Sweep<E>, rows: &[E]) -> Vec<RuntimeRow>
    where
        E: Serialize + PartialEq + std::fmt::Debug,
    {
        let json = serde_json::to_string(rows).unwrap();
        assert_eq!(sweep.check_artifact(&json).expect("real rows pass"), rows);
        serde_json::from_str(&json).unwrap()
    }

    /// The sweep's artifact check turns `rows` down, and says `why`.
    fn rejected<E: Serialize>(sweep: &Sweep<E>, rows: &[E], why: &str) {
        let err = sweep
            .check_artifact(&serde_json::to_string(rows).unwrap())
            .err()
            .expect("a broken artifact is rejected");
        assert!(err.contains(why), "rejected with {err:?}, wanted {why:?}");
    }

    fn row(scenario: &str, s: f64) -> RuntimeRow {
        RuntimeRow {
            scenario: scenario.to_string(),
            virtual_runtime_s: s,
            digest: None,
        }
    }

    #[test]
    fn thread_count_is_positive() {
        assert!(super::campaign_threads() >= 1);
    }

    #[test]
    fn bench_args_parse_defaults_flags_and_errors() {
        let argv = |s: &[&str]| -> Vec<String> { s.iter().map(|a| a.to_string()).collect() };
        let parse = |s: &[&str]| super::BenchArgs::try_parse(&argv(s), &[]);
        let a = parse(&["bin"]).unwrap();
        assert_eq!(a.size, DataSize::Tiny);
        assert_eq!(a.dir, "results");
        assert!(!a.check && a.app.is_none());
        assert!(a.jobs.is_none());
        let a = parse(&[
            "bin", "--size", "small", "--dir", "out", "--check", "--app", "sort", "--jobs", "4",
        ])
        .unwrap();
        assert_eq!(a.size, DataSize::Small);
        assert_eq!(a.dir, "out");
        assert!(a.check);
        assert_eq!(a.app.as_deref(), Some("sort"));
        assert_eq!(a.jobs, Some(4));
        assert!(parse(&["bin", "--size", "huge"]).is_err());
        assert!(parse(&["bin", "--jobs", "0"]).is_err());
        assert!(parse(&["bin", "--jobs", "many"]).is_err());
        // A misspelt flag or a flag missing its value is a usage error, not
        // a default sweep.
        assert!(parse(&["bin", "--sizee", "small"]).is_err());
        assert!(parse(&["bin", "--check", "--jobs"]).is_err());
        // A binary's own value flags pass when it names them.
        assert!(parse(&["bin", "--tier", "1"]).is_err());
        let own =
            super::BenchArgs::try_parse(&argv(&["bin", "--tier", "1", "--check"]), &["--tier"]);
        assert!(own.unwrap().check);
        assert_eq!(super::arg_value(&argv(&["bin", "--dir"]), "--dir"), None);
    }

    #[test]
    fn suite_apps_match_the_workload_registry() {
        let apps = super::suite_apps();
        assert!(!apps.is_empty());
        assert!(apps.contains(&"sort".to_string()));
        for app in &apps {
            assert!(memtier_workloads::workload_by_name(app).is_some());
        }
    }

    #[test]
    fn write_json_artifact_creates_parent_dirs() {
        let dir = std::env::temp_dir().join(format!("memtier_bench_{}", std::process::id()));
        let path = dir.join("nested").join("artifact.json");
        let path = path.to_str().unwrap().to_string();
        super::write_json_artifact(&path, &[row("a", 1.0)]);
        let rows: Vec<RuntimeRow> =
            serde_json::from_str(&std::fs::read_to_string(&path).unwrap()).unwrap();
        assert_eq!(rows, vec![row("a", 1.0)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn simspeed_rows_feed_compare_and_wall_fields_are_invisible_to_it() {
        // Two generations of the same scenarios: identical deterministic
        // fields, wildly different wall-clock sidecars.
        let gen = |wall: f64| -> Vec<BenchSimspeedEntry> {
            vec![
                BenchSimspeedEntry {
                    app: "sort".into(),
                    scenario: "sort-tiny@Tier 2, 1x40".into(),
                    virtual_runtime_s: 1.5,
                    events_total: 1000,
                    tasks: 40,
                    wall_ms: wall,
                    events_per_sec: 1000.0 / wall * 1e3,
                    tasks_per_sec: 40.0 / wall * 1e3,
                    virtual_to_wall: 1.5 / wall * 1e3,
                },
                BenchSimspeedEntry {
                    app: "dag-stress".into(),
                    scenario: "dag-stress-tiny@Tier 2".into(),
                    virtual_runtime_s: 2.25,
                    events_total: 5000,
                    tasks: 128,
                    wall_ms: wall * 3.0,
                    events_per_sec: 5000.0 / (wall * 3.0) * 1e3,
                    tasks_per_sec: 128.0 / (wall * 3.0) * 1e3,
                    virtual_to_wall: 2.25 / (wall * 3.0) * 1e3,
                },
            ]
        };
        let (a, b) = (gen(12.0), gen(97.0));
        assert_ne!(a, b, "wall-clock sidecars should differ");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.deterministic_json(), y.deterministic_json());
            assert!(!x.deterministic_json().contains("wall_ms"));
        }
        // `compare` sees only the deterministic projection: the two
        // generations join cleanly and every delta is exactly zero.
        let load = |e: &[BenchSimspeedEntry]| -> Vec<RuntimeRow> {
            serde_json::from_str(&serde_json::to_string(e).unwrap()).unwrap()
        };
        let (deltas, unmatched) = compare_runtimes(&load(&a), &load(&b));
        assert_eq!(deltas.len(), 2);
        assert!(unmatched.is_empty());
        for d in &deltas {
            assert_eq!(d.delta_pct, 0.0);
            assert!(!d.out_of_tolerance(0.0));
        }
    }

    #[test]
    fn simspeed_entries_require_and_summarize_profiled_runs() {
        let s = tiny("repartition");
        let r = run_scenario_profiled(&s).unwrap();
        let entries = super::bench_simspeed_entries(std::slice::from_ref(&r));
        let e = &entries[0];
        assert_eq!(e.app, "repartition");
        assert_eq!(e.scenario, s.label());
        assert_eq!(e.virtual_runtime_s, r.elapsed_s);
        assert_eq!(e.tasks, r.tasks);
        assert!(e.events_total > 0);
        assert!(e.wall_ms > 0.0 && e.events_per_sec > 0.0 && e.tasks_per_sec > 0.0);
        assert!(e.virtual_to_wall.is_finite());
        // The artifact check wants the stressor row and a live sidecar.
        rejected(&sweeps::simspeed(), &entries, "dag-stress");
        let mut stress = e.clone();
        stress.app = "dag-stress".to_string();
        accepted(&sweeps::simspeed(), &[e.clone(), stress.clone()]);
        let mut stalled = e.clone();
        stalled.wall_ms = 0.0;
        rejected(&sweeps::simspeed(), &[stalled, stress], "empty sidecar");
    }

    #[test]
    fn pct_formats() {
        assert_eq!(super::pct(0.25), "+25.0%");
        assert_eq!(super::pct(-0.051), "-5.1%");
    }

    #[test]
    fn profile_entries_conserve_and_round_trip() {
        let s = tiny("repartition");
        let r = run_scenario(&s).unwrap();
        let entries = super::bench_profile_entries(std::slice::from_ref(&r));
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].app, "repartition");
        assert!(entries[0].virtual_runtime_s > 0.0);
        assert!(
            entries[0].conservation_gap_s() < 1e-9,
            "gap {}",
            entries[0].conservation_gap_s()
        );
        accepted(&sweeps::profile(), &entries);
        let mut stretched = entries;
        stretched[0].virtual_runtime_s *= 2.0;
        rejected(&sweeps::profile(), &stretched, "does not conserve");
    }

    #[test]
    fn hotness_entries_summarize_the_report() {
        let s = tiny("sort");
        let r = run_scenario(&s).unwrap();
        assert!(r.hotness.conserves(&r.counters));
        let entries = super::bench_hotness_entries(std::slice::from_ref(&r));
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(e.app, "sort");
        assert!(e.total_stall_s > 0.0);
        assert!(!e.objects.is_empty() && e.objects.len() <= super::HOTNESS_TOP_K);
        for pair in e.objects.windows(2) {
            assert!(pair[0].total_bytes >= pair[1].total_bytes);
        }
        // Everything ran on an NVM tier, so promoting the traffic to local
        // DRAM saves stall on every object that moved bytes.
        assert!(e.objects[0].promotion_gain_s > 0.0);
        accepted(&sweeps::hotness(), &entries);
        let mut shuffled = entries.clone();
        assert!(shuffled[0].objects.len() > 1);
        shuffled[0].objects.reverse();
        rejected(&sweeps::hotness(), &shuffled, "not ranked by bytes");
    }

    #[test]
    fn doctor_entries_carry_the_verdict_and_feed_compare() {
        let s = tiny("sort");
        let r = run_scenario(&s).unwrap();
        let entries = super::bench_doctor_entries(std::slice::from_ref(&r));
        assert_eq!(entries.len(), 1);
        let e = &entries[0];
        assert_eq!(e.app, "sort");
        assert!(e.conserved, "the doctor's windowed series must conserve");
        assert!(e.window_width_s > 0.0 && e.windows > 0);
        // Findings come ranked.
        for pair in e.findings.windows(2) {
            assert!(pair[0].score >= pair[1].score);
        }
        // A doctor baseline feeds `compare` like the others.
        let doctor = sweeps::doctor();
        let rows = accepted(&doctor, &entries);
        assert_eq!(rows.len(), 1);
        assert!((rows[0].virtual_runtime_s - r.elapsed_s).abs() < 1e-15);
        // The artifact check turns down a broken verdict, an empty file,
        // a non-array, and another sweep's rows.
        let mut broken = entries;
        broken[0].conserved = false;
        rejected(&doctor, &broken, "conservation contract");
        rejected(&doctor, &broken[..0], "empty");
        let err = doctor.check_artifact("{\"not\": \"rows\"}").unwrap_err();
        assert!(err.contains("not a valid BENCH_doctor baseline"), "{err}");
        let foreign = super::bench_hotness_entries(std::slice::from_ref(&r));
        assert!(doctor
            .check_artifact(&serde_json::to_string(&foreign).unwrap())
            .is_err());
    }

    #[test]
    fn policy_entries_label_static_and_dynamic_runs() {
        let s = tiny("pagerank");
        let d = s
            .clone()
            .with_placement(PlacementSpec::hot_cold(256 << 20, SimTime::from_ms(1)));
        let results = vec![run_scenario(&s).unwrap(), run_scenario(&d).unwrap()];
        let entries = super::bench_policy_entries(&results);
        assert_eq!(entries[0].policy, "static");
        assert_eq!(entries[0].migrations, Default::default());
        assert!(entries[1].policy.contains("hotcold"));
        assert!(entries[1].scenario.contains(&entries[1].policy));
        assert!(entries[1].migrations.epochs > 0);
        // A policy baseline feeds `compare` like the others.
        let rows = accepted(&sweeps::policy(), &entries);
        assert_eq!(rows.len(), 2);
        assert_ne!(rows[0].scenario, rows[1].scenario);
        let mut moved = entries;
        moved[0].migrations = moved[1].migrations;
        rejected(&sweeps::policy(), &moved, "reports migrations");
    }

    #[test]
    fn faults_entries_label_plans_and_roll_up_recovery() {
        use sparklite::FaultPlan;
        let s = tiny("pagerank");
        let f = s
            .clone()
            .with_faults(FaultPlan::seeded(11).with_task_failures(0.15));
        let results = vec![run_scenario(&s).unwrap(), run_scenario(&f).unwrap()];
        let entries = super::bench_faults_entries(&results);
        assert_eq!(entries[0].plan, "none");
        assert!(entries[0].recovery.is_quiet());
        assert!(entries[1].plan.starts_with("faults(seed11"));
        assert!(entries[1].scenario.contains(&entries[1].plan));
        assert!(entries[1].recovery.task_failures > 0);
        // A faults baseline feeds `compare` like the others.
        let rows = accepted(&sweeps::faults(), &entries);
        assert_eq!(rows.len(), 2);
        assert_ne!(rows[0].scenario, rows[1].scenario);
    }

    #[test]
    fn net_entries_label_wirings_and_roll_up_traffic() {
        use sparklite::{LocalityMode, NetTopology, NetworkMode};
        let s = tiny("repartition").with_grid(4, 10);
        let wired = |locality| {
            s.clone().with_network(NetworkMode::Topology {
                topology: NetTopology::new(4, 2).with_oversubscription(4.0),
                locality,
            })
        };
        let delay = LocalityMode::DelayScheduling {
            wait: SimTime::from_us(500),
        };
        let results: Vec<_> = [s.clone(), wired(LocalityMode::Blind), wired(delay)]
            .iter()
            .map(|s| run_scenario(s).unwrap())
            .collect();
        let entries = super::bench_net_entries(&results);
        assert_eq!(entries[0].wiring, "loopback");
        assert!(entries[0].network.is_empty());
        assert_eq!(entries[1].wiring, "net(4n/2r,os4,blind)");
        assert!(entries[1].scenario.contains(&entries[1].wiring));
        assert!(entries[1].network.total_bytes > 0);
        // The per-link counters partition the locality split exactly.
        assert_eq!(
            entries[1].network.total_bytes,
            entries[1].network.rack_local_bytes + entries[1].network.cross_rack_bytes
        );
        // A network baseline feeds `compare` like the others.
        let rows = accepted(&sweeps::netsweep(), &entries);
        assert_eq!(rows.len(), 3);
        assert_ne!(rows[0].scenario, rows[1].scenario);
        let mut leaky = entries.clone();
        leaky[0].network = entries[1].network.clone();
        rejected(&sweeps::netsweep(), &leaky, "reports traffic");
        // With no blind row to beat, delay scheduling has no win to show.
        let no_blind = [entries[0].clone(), entries[2].clone()];
        rejected(&sweeps::netsweep(), &no_blind, "strictly reduce");
    }

    #[test]
    fn runtime_rows_load_from_profile_entries() {
        // `compare` must accept both baseline formats; a profile entry's
        // extra fields deserialize away silently, and a pre-explainer row
        // (no `digest` key) loads with `digest: None`.
        let json = r#"[{"app":"sort","scenario":"sort-tiny@Tier 2, 1x40",
                        "virtual_runtime_s":1.5,"attribution":{"compute":1.5}}]"#;
        let rows: Vec<RuntimeRow> = serde_json::from_str(json).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].virtual_runtime_s, 1.5);
        assert_eq!(rows[0].digest, None);
    }

    #[test]
    fn profile_entries_carry_conserving_digests_and_explain_joins() {
        let s = tiny("repartition");
        let r = run_scenario(&s).unwrap();
        let entries = super::bench_profile_entries(std::slice::from_ref(&r));
        let d = entries[0].digest.as_ref().unwrap();
        assert!(d.conserves(), "baseline digest must conserve");
        // A runtime row loads from the serialized baseline with the digest
        // intact, and a self-join explains to an all-zero conserved report.
        let json = serde_json::to_string(&entries).unwrap();
        let rows: Vec<RuntimeRow> = serde_json::from_str(&json).unwrap();
        assert_eq!(rows[0].digest.as_ref(), Some(d));
        let (explained, notes) = super::explain_baselines(&rows, &rows, &[]);
        assert_eq!(explained.len(), 1);
        assert!(notes.is_empty());
        assert!(explained[0].report.is_zero());
        assert!(explained[0].report.conserves());
        // Digest-less rows degrade to a note instead of failing the join.
        let mut bare = rows.clone();
        bare[0].digest = None;
        let (none_explained, bare_notes) = super::explain_baselines(&bare, &rows, &[]);
        assert!(none_explained.is_empty());
        assert_eq!(bare_notes.len(), 1);
        assert!(bare_notes[0].contains("no digest"));
        // Filtering to an unknown scenario surfaces as a note too.
        let (_, missing) = super::explain_baselines(&rows, &rows, &["nope".to_string()]);
        assert!(missing.iter().any(|n| n.contains("no such scenario")));
    }

    #[test]
    fn compare_joins_on_label_and_flags_drift() {
        let base = vec![row("a", 1.0), row("b", 2.0), row("gone", 3.0)];
        let cand = vec![row("a", 1.01), row("b", 2.0), row("new", 4.0)];
        let (deltas, unmatched) = compare_runtimes(&base, &cand);
        assert_eq!(deltas.len(), 2);
        assert!((deltas[0].delta_pct - 1.0).abs() < 1e-9);
        assert!(deltas[0].out_of_tolerance(0.5));
        assert!(!deltas[0].out_of_tolerance(2.0));
        assert_eq!(deltas[1].delta_pct, 0.0);
        assert_eq!(
            unmatched,
            vec![
                "baseline-only: gone".to_string(),
                "candidate-only: new".to_string()
            ]
        );
    }
}
