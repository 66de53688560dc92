//! Telemetry demo: run one scenario with the full observability subsystem
//! on and dump the enriched Chrome trace plus the JSONL event log.
//!
//! ```text
//! cargo run --release -p memtier-bench --bin trace_demo
//! # -> results/trace_demo.json  (load in ui.perfetto.dev or chrome://tracing)
//! # -> results/events_demo.jsonl
//! ```
//!
//! Flags: `--workload <name>` (default `repartition`), `--size
//! tiny|small|large` (default `tiny`), `--tier 0..3` (default 2), `--trace
//! <path>`, `--events <path>`, and `--check` to re-read both artifacts and
//! verify they parse and conserve counters (the CI trace-smoke step).

use memtier_bench::{arg_value as arg, check_fail as fail, write_text_artifact, BenchArgs};
use memtier_core::{run_scenario_instrumented, Scenario, TelemetryOptions};
use memtier_memsim::TierId;
use sparklite::parse_jsonl;
use std::process::exit;

fn main() {
    let common = BenchArgs::parse(&["--workload", "--tier", "--trace", "--events"]);
    let args: Vec<String> = std::env::args().collect();
    let workload = arg(&args, "--workload").unwrap_or_else(|| "repartition".to_string());
    let tier = match arg(&args, "--tier").map(|t| t.parse::<usize>()) {
        None => TierId::NVM_NEAR,
        Some(Ok(i)) if i < TierId::all().len() => TierId::all()[i],
        Some(_) => {
            eprintln!("--tier must be 0..{}", TierId::all().len() - 1);
            exit(2);
        }
    };
    let trace_path = arg(&args, "--trace").unwrap_or_else(|| "results/trace_demo.json".to_string());
    let events_path =
        arg(&args, "--events").unwrap_or_else(|| "results/events_demo.jsonl".to_string());

    let scenario = Scenario::default_conf(&workload, common.size, tier);
    eprintln!("running {} with telemetry on…", scenario.label());
    let (result, telemetry) =
        run_scenario_instrumented(&scenario, &TelemetryOptions::default()).expect("scenario run");

    let trace_json = telemetry.trace_json.as_deref().expect("tracing was on");
    write_text_artifact(&trace_path, trace_json);
    write_text_artifact(&events_path, &sparklite::to_jsonl(&telemetry.events));

    println!(
        "{}: {:.3}s virtual, {} stages, {} tasks",
        scenario.label(),
        result.elapsed_s,
        result.stages,
        result.tasks
    );
    println!(
        "  {} counter samples, {} events, {} stage rollups",
        telemetry.counter_series.len(),
        telemetry.events.len(),
        result.stage_rollups.len()
    );
    println!("  wrote {trace_path} and {events_path}");

    if common.check {
        verify(&trace_path, &events_path, &result, &telemetry);
        println!("  check passed: artifacts parse and counters conserve");
    }
}

/// Re-read both artifacts from disk and verify the acceptance properties:
/// the trace is valid Chrome-tracing JSON with task spans and counter
/// tracks, the event log round-trips, and the counter series conserves
/// (its last sample equals the run's cumulative totals).
fn verify(
    trace_path: &str,
    events_path: &str,
    result: &memtier_core::ScenarioResult,
    telemetry: &memtier_core::ScenarioTelemetry,
) {
    let trace_text = std::fs::read_to_string(trace_path)
        .unwrap_or_else(|e| fail(format!("read {trace_path}: {e}")));
    let trace: serde_json::Value = serde_json::from_str(&trace_text)
        .unwrap_or_else(|e| fail(format!("{trace_path} is not valid JSON: {e}")));
    let Some(events) = trace["traceEvents"].as_array() else {
        fail(format!("{trace_path} lacks a traceEvents array"));
    };
    if !events.iter().any(|e| e["ph"] == "X") {
        fail("trace has no task spans (ph X)".to_string());
    }
    if !events.iter().any(|e| e["ph"] == "C") {
        fail("trace has no counter tracks (ph C)".to_string());
    }

    let events_text = std::fs::read_to_string(events_path)
        .unwrap_or_else(|e| fail(format!("read {events_path}: {e}")));
    let parsed = parse_jsonl(&events_text).unwrap_or_else(|e| fail(format!("{events_path}: {e}")));
    if parsed != telemetry.events {
        fail("event log did not round-trip".to_string());
    }
    if parsed.is_empty() {
        fail("event log is empty".to_string());
    }

    match telemetry.counter_series.last() {
        Some(last) if last.counters == result.counters => {}
        Some(_) => fail("final counter sample != cumulative totals".to_string()),
        None => fail("counter series is empty".to_string()),
    }
}
