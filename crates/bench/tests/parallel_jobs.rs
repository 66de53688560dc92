//! Acceptance test for the parallel-sweep determinism contract
//! (DESIGN.md §16): a `--jobs 4` sweep produces **byte-identical**
//! deterministic artifact rows to a sequential (`--jobs 1`) sweep, for both
//! the policy and faults harnesses. Runs the bins' own single-app grids
//! (what `--app pagerank` sweeps) through the same `parallel_sweep` entry
//! point the pipeline uses, holds the results to the sweeps' own acceptance
//! asserts and row predicates, then compares the serialized artifact entries
//! string-for-string.

use memtier_bench::{bench_faults_entries, bench_policy_entries, sweeps};
use memtier_core::{parallel_sweep, run_scenario, Scenario, ScenarioResult};
use memtier_workloads::DataSize;

const SIZE: DataSize = DataSize::Tiny;

fn apps() -> Vec<String> {
    vec!["pagerank".to_string()]
}

fn sweep(scenarios: &[Scenario], jobs: usize) -> Vec<ScenarioResult> {
    parallel_sweep(scenarios, jobs, |s| {
        run_scenario(s).expect("sweep scenario")
    })
}

#[test]
fn policy_sweep_is_byte_identical_at_any_width() {
    let policy = sweeps::policy();
    let scenarios = policy.grid(&apps(), SIZE);
    let seq = sweep(&scenarios, 1);
    let par = sweep(&scenarios, 4);
    policy.accept(&apps(), &par).expect("every run audits");
    let a = serde_json::to_string(&bench_policy_entries(&seq)).expect("serialize sequential");
    let b = serde_json::to_string(&bench_policy_entries(&par)).expect("serialize parallel");
    policy.check_artifact(&b).expect("row predicate");
    assert_eq!(
        a, b,
        "--jobs 4 must reproduce the sequential policy artifact byte-for-byte"
    );
}

#[test]
fn faults_sweep_is_byte_identical_at_any_width() {
    let faults = sweeps::faults();
    let scenarios = faults.grid(&apps(), SIZE);
    let seq = sweep(&scenarios, 1);
    let par = sweep(&scenarios, 4);
    faults.accept(&apps(), &par).expect("every run audits");
    let a = serde_json::to_string(&bench_faults_entries(&seq)).expect("serialize sequential");
    let b = serde_json::to_string(&bench_faults_entries(&par)).expect("serialize parallel");
    let mut rows = faults.check_artifact(&b).expect("row predicate");
    // ...which turns down a plan-free row that reports recovery activity.
    assert_eq!(rows[0].plan, "none");
    rows[0].recovery = rows[2].recovery;
    assert!(rows[0].recovery.task_failures > 0);
    let noisy = serde_json::to_string(&rows).expect("serialize noisy");
    let err = faults
        .check_artifact(&noisy)
        .expect_err("noisy plan-free row");
    assert!(err.contains("reports recovery activity"), "{err}");
    assert_eq!(
        a, b,
        "--jobs 4 must reproduce the sequential faults artifact byte-for-byte"
    );
}

#[test]
fn oversubscribed_jobs_clamp_and_merge_in_input_order() {
    // More workers than scenarios: the sweep clamps and stays input-ordered.
    let scenarios = sweeps::policy().grid(&apps(), SIZE);
    let seq = sweep(&scenarios, 1);
    let wide = sweep(&scenarios, 64);
    for (s, w) in seq.iter().zip(wide.iter()) {
        assert_eq!(
            s.scenario.label(),
            w.scenario.label(),
            "merge order drifted"
        );
    }
    assert_eq!(
        serde_json::to_string(&bench_policy_entries(&seq)).unwrap(),
        serde_json::to_string(&bench_policy_entries(&wide)).unwrap()
    );
}
