//! Runs the benchmark in `--smoke` mode (all four workloads, one pass,
//! tiny inputs) and checks its output against `BENCHMARK.json`.

use serde_json::Value;
use std::path::Path;
use std::process::Command;

/// Runs every workload once and returns the final JSON line, parsed.
fn smoke(seed: u64) -> Value {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{seed}"));
    let run = Command::new(env!("CARGO_BIN_EXE_memtier-perf"))
        .args(["--smoke", "--seed", &seed.to_string(), "--out"])
        .arg(&out)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(run.stdout).expect("UTF-8 output");
    assert!(
        run.status.success(),
        "exit {:?}\n{stdout}\n{}",
        run.status,
        String::from_utf8_lossy(&run.stderr)
    );
    for workload in ["suite-tiers", "kernel-stress", "net-faults", "report-serde"] {
        let trace = std::fs::read_to_string(out.join(format!("trace-{workload}.json")))
            .expect("a span trace");
        let trace: Value = serde_json::from_str(&trace).expect("the trace is JSON");
        assert!(!trace["traceEvents"].as_array().expect("spans").is_empty());
    }
    serde_json::from_str(stdout.lines().last().expect("a result line"))
        .expect("the last line is JSON")
}

fn declared() -> Value {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("valid JSON")
}

/// Metrics that must repeat exactly: the simulated results, and every
/// count that does not come from the host (allocation counts wobble by a
/// few with `HashMap`'s per-process hash seed).
fn exact(name: &str, unit: &str) -> bool {
    matches!(name, "virtual_s" | "shape_ok")
        || (matches!(unit, "count" | "B") && !name.starts_with("host."))
}

#[test]
fn smoke_output_matches_the_declaration_and_repeats() {
    let declared = declared();
    let (first, again, other) = (smoke(1), smoke(1), smoke(2));
    assert_eq!(first["correct"], true);
    for workload in declared["workloads"].as_array().expect("workloads") {
        let name = workload["name"].as_str().expect("a workload name");
        let of = |run: &Value| run["workloads"][name].clone();
        let (a, b, c) = (of(&first), of(&again), of(&other));
        assert_eq!(a["failed"], 0u64, "{name}: fail_ratio must be 0");
        assert!(a["attempted"].as_u64().expect("attempted") >= 1);
        let mut names = Vec::new();
        for table in ["end_to_end", "per_layer"] {
            for metric in declared[table].as_array().expect("a metric table") {
                let metric_name = metric["name"].as_str().expect("a metric name");
                let unit = metric["unit"].as_str().expect("a unit");
                assert!(
                    metric_name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                    "{metric_name}: a name is letters, digits, `_`, `.` and `-`"
                );
                let value = &a["metrics"][metric_name];
                assert_eq!(
                    value["unit"], unit,
                    "{name}/{metric_name}: missing or under another unit"
                );
                assert!(
                    value["value"].as_f64().is_some(),
                    "{name}/{metric_name}: not a number"
                );
                if exact(metric_name, unit) {
                    assert_eq!(
                        value, &b["metrics"][metric_name],
                        "{name}/{metric_name} must repeat exactly"
                    );
                }
                names.push(metric_name);
            }
        }
        let printed = a["metrics"].as_object().expect("metrics").len();
        assert_eq!(
            printed,
            names.len(),
            "{name}: prints a metric BENCHMARK.json does not declare"
        );
        // Another seed is another input of the same shape.
        assert_ne!(
            a["metrics"]["virtual_s"], c["metrics"]["virtual_s"],
            "{name}: the seed must reach the inputs"
        );
        for same in ["shape_ok", "core.scenarios", "sparklite.jobs"] {
            assert_eq!(
                a["metrics"][same], c["metrics"][same],
                "{name}/{same} must not depend on the seed"
            );
        }
        assert_eq!(c["failed"], 0u64);
    }
    // The predicted zero rows: no network plane, retries or migrations
    // outside `net-faults`, and no workloads-crate time in `kernel-stress`.
    for name in ["suite-tiers", "kernel-stress", "report-serde"] {
        for zero in [
            "netsim.transfers",
            "netsim.bytes",
            "sparklite.retries",
            "sparklite.migrations",
        ] {
            assert_eq!(
                first["workloads"][name]["metrics"][zero]["value"], 0.0,
                "{name}/{zero}"
            );
        }
    }
    assert_eq!(
        first["workloads"]["kernel-stress"]["metrics"]["workloads.run_ms"]["value"],
        0.0
    );
    assert!(
        first["workloads"]["net-faults"]["metrics"]["netsim.transfers"]["value"].as_f64()
            > Some(0.0)
    );
}

#[test]
fn bad_flags_are_refused() {
    let run = Command::new(env!("CARGO_BIN_EXE_memtier-perf"))
        .args(["--jobs", "2"])
        .output()
        .expect("runs");
    assert_eq!(run.status.code(), Some(2));
}
