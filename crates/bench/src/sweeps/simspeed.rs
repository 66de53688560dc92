//! The simulator-throughput sweep (`BENCH_simspeed.json`): how fast is the
//! engine itself? The suite across tiers with the engine self-profiler on,
//! plus a synthetic wide-DAG stressor row; events/sec, tasks/sec and the
//! virtual-to-wall speedup per run.
//!
//! Unlike every other sweep, scenarios run **sequentially by default**:
//! wall-clock throughput is the measurement here, and concurrent runs would
//! share cores and depress each other's numbers. Only the deterministic
//! projection of a row must regenerate identically.

use super::Sweep;
use crate::{bench_simspeed_entries, simspeed_row, BenchSimspeedEntry};
use memtier_core::{run_scenario, run_scenario_profiled, Scenario, ScenarioResult};
use memtier_memsim::TierId;
use memtier_metrics::table::fmt_f64;
use memtier_metrics::AsciiTable;
use memtier_workloads::DataSize;
use sparklite::{OpCost, SparkConf, SparkContext};

/// App label of the synthetic stressor row (not a suite workload).
const STRESS_APP: &str = "dag-stress";

/// The sweep the `simspeed` bin runs.
pub fn sweep() -> Sweep<BenchSimspeedEntry> {
    Sweep {
        by_app: true,
        default_jobs: || 1,
        run_one: run_profiled,
        extra_rows: |size| vec![dag_stress_entry(size)],
        identity: BenchSimspeedEntry::deterministic_json,
        regenerated: "regenerated identically; profiling is byte-invisible",
        recheck: profiling_is_invisible,
        passed: "artifact parses, rows are sane, deterministic fields \
                 regenerate identically, and profiling is byte-invisible",
        ..Sweep::suite(
            "simspeed",
            bench_simspeed_entries,
            |text| serde_json::from_str(text),
            check_rows,
            report,
        )
    }
}

/// A profiled run, its engine summary logged as it lands.
fn run_profiled(s: &Scenario) -> sparklite::error::Result<ScenarioResult> {
    let r = run_scenario_profiled(s)?;
    let e = r.engine.as_ref().expect("profiled run carries EngineStats");
    eprintln!("{}: {}", r.scenario.label(), e.summary());
    Ok(r)
}

/// A deterministic 64-bit mixer (SplitMix-style) so the stressor needs no
/// RNG state: record contents are a pure function of the index.
fn mix(x: u64) -> u64 {
    let x = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    let x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^ (x >> 27)
}

/// The synthetic DAG stressor: a shuffle cascade (generate → map →
/// reduce_by_key → partition_by → join → sort_by_key → count) much wider
/// than any suite workload. It exists to stress the event queue and the
/// `SharedResource` re-share path — the engine's known hot spots — rather
/// than to model anything; its virtual result is still deterministic and
/// gated like every other row.
fn dag_stress_entry(size: DataSize) -> BenchSimspeedEntry {
    let (records, partitions) = match size {
        DataSize::Tiny => (2_000usize, 16usize),
        DataSize::Small => (20_000, 32),
        DataSize::Large => (100_000, 64),
    };
    let conf = SparkConf::bound_to_tier(TierId::NVM_NEAR)
        .with_parallelism(partitions)
        .with_engine_profiling();
    let sc = SparkContext::new(conf).expect("stressor context");

    let per_part = records / partitions;
    let input = sc.generate(
        partitions,
        move |part| {
            (0..per_part)
                .map(|i| {
                    let x = mix((part * per_part + i) as u64);
                    (x % 4096, x)
                })
                .collect::<Vec<(u64, u64)>>()
        },
        OpCost::cpu(40.0),
    );
    let left = input
        .map(|&(k, v)| (k % 1024, v))
        .reduce_by_key(u64::wrapping_add);
    let right = input
        .map(|&(k, v)| (k % 1024, v.rotate_left(7)))
        .partition_by(partitions);
    let joined = left.join(&right, partitions);
    let sorted = joined
        .map(|&(k, (a, b))| (a ^ b ^ k, k))
        .sort_by_key(partitions)
        .expect("stressor sort");
    let n = sorted.count().expect("stressor count");
    assert!(n > 0, "stressor produced no records");

    let report = sc.finish();
    let engine = report
        .engine
        .expect("profiled stressor carries EngineStats");
    eprintln!("{STRESS_APP}-{size}: {}", engine.summary());
    simspeed_row(
        STRESS_APP.to_string(),
        format!("{STRESS_APP}-{size}@Tier 2, {partitions}p"),
        report.elapsed.as_secs_f64(),
        report.metrics.tasks,
        &engine,
    )
}

/// The throughput table: per run, how much work the engine did and how fast
/// it did it.
fn report(_apps: &[String], _results: &[ScenarioResult], rows: &[BenchSimspeedEntry]) {
    let mut t = AsciiTable::new(vec![
        "scenario",
        "virtual (s)",
        "wall (ms)",
        "events",
        "events/s",
        "tasks/s",
        "virtual/wall",
    ])
    .title("Simulator throughput (wall-clock columns vary by host; the rest is deterministic)");
    for e in rows {
        t.row(vec![
            e.scenario.clone(),
            fmt_f64(e.virtual_runtime_s, 4),
            fmt_f64(e.wall_ms, 1),
            e.events_total.to_string(),
            fmt_f64(e.events_per_sec, 0),
            fmt_f64(e.tasks_per_sec, 0),
            fmt_f64(e.virtual_to_wall, 2),
        ]);
    }
    println!("{}", t.render());
}

/// Each row has non-empty deterministic fields and a sane wall-clock
/// sidecar, and the stressor row is present.
fn check_rows(rows: &[BenchSimspeedEntry]) -> Result<(), String> {
    for e in rows {
        if e.virtual_runtime_s <= 0.0 || e.events_total == 0 || e.tasks == 0 {
            return Err(format!("{} has empty deterministic fields", e.scenario));
        }
        if e.wall_ms <= 0.0 || e.events_per_sec <= 0.0 || e.tasks_per_sec <= 0.0 {
            return Err(format!("{} has an empty sidecar", e.scenario));
        }
        if !e.virtual_to_wall.is_finite() {
            return Err(format!(
                "{} has a non-finite virtual-to-wall ratio",
                e.scenario
            ));
        }
    }
    if !rows.iter().any(|e| e.app == STRESS_APP) {
        return Err(format!("the {STRESS_APP} row is missing"));
    }
    Ok(())
}

/// The firewall itself: an unprofiled run of the first scenario is
/// byte-identical to the sweep's profiled one outside the sidecar.
fn profiling_is_invisible(
    results: &[ScenarioResult],
    _: &[BenchSimspeedEntry],
) -> Result<(), String> {
    let profiled = &results[0];
    let plain = run_scenario(&profiled.scenario).map_err(|e| format!("plain re-run: {e}"))?;
    if plain.engine.is_some() {
        return Err("unprofiled run grew an engine sidecar".to_string());
    }
    if plain.virtual_identity_json() != profiled.virtual_identity_json() {
        return Err(format!(
            "profiling changed virtual results for {}",
            profiled.scenario.label()
        ));
    }
    Ok(())
}
