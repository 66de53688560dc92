//! Fig. 2 regeneration: execution time (top), NVM access counts (middle)
//! and DRAM-vs-DCPM energy per DIMM (bottom) for all 7 workloads ×
//! {tiny, small, large} × Tier 0–3 under the default 1×40 deployment.
//! Also emits the consolidated machine-readable perf baseline
//! (`BENCH_profile.json`, override with `--profile-out <path>`).

use memtier_bench::{
    arg_value, attribution_table, audit_all, bench_profile_entries, campaign_threads, check_fail,
    maybe_dump_json, pct, write_json_artifact,
};
use memtier_core::campaign::{by_workload_size, fig2_campaign};
use memtier_core::ScenarioResult;
use memtier_memsim::TierId;
use memtier_metrics::table::fmt_f64;
use memtier_metrics::AsciiTable;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let profile_path =
        arg_value(&args, "--profile-out").unwrap_or_else(|| "BENCH_profile.json".to_string());
    let results = fig2_campaign(campaign_threads()).expect("fig2 campaign");
    audit_all(&results).unwrap_or_else(|msg| check_fail(msg));
    maybe_dump_json(&results);
    write_json_artifact(&profile_path, &bench_profile_entries(&results));
    print_time(&results);
    print_accesses(&results);
    print_energy(&results);
    print_stage_shape(&results);
    print_attribution(&results);
    print_summary(&results);
}

fn groups(results: &[ScenarioResult]) -> Vec<((String, String), Vec<&ScenarioResult>)> {
    by_workload_size(results)
        .into_iter()
        .map(|((w, s), mut v)| {
            v.sort_by_key(|r| r.scenario.tier);
            ((w, s.label().to_string()), v)
        })
        .collect()
}

fn print_time(results: &[ScenarioResult]) {
    let mut t = AsciiTable::new(vec![
        "benchmark",
        "size",
        "Tier0 (s)",
        "Tier1 (s)",
        "Tier2 (s)",
        "Tier3 (s)",
    ])
    .title("Fig 2 (top) — execution time per tier, 1 executor x 40 cores");
    for ((w, s), v) in groups(results) {
        t.row(vec![
            w,
            s,
            fmt_f64(v[0].elapsed_s, 3),
            fmt_f64(v[1].elapsed_s, 3),
            fmt_f64(v[2].elapsed_s, 3),
            fmt_f64(v[3].elapsed_s, 3),
        ]);
    }
    println!("{}", t.render());
}

fn print_accesses(results: &[ScenarioResult]) {
    let mut t = AsciiTable::new(vec![
        "benchmark",
        "size",
        "T2 reads",
        "T2 writes",
        "T3 reads",
        "T3 writes",
        "write ratio T2",
    ])
    .title("Fig 2 (middle) — NVM media accesses (ipmctl-equivalent counters)");
    for ((w, s), v) in groups(results) {
        let t2 = v[2].counters.tier(TierId::NVM_NEAR);
        let t3 = v[3].counters.tier(TierId::NVM_FAR);
        t.row(vec![
            w,
            s,
            t2.reads.to_string(),
            t2.writes.to_string(),
            t3.reads.to_string(),
            t3.writes.to_string(),
            fmt_f64(v[2].write_ratio(), 3),
        ]);
    }
    println!("{}", t.render());
}

fn print_energy(results: &[ScenarioResult]) {
    let mut t = AsciiTable::new(vec![
        "benchmark",
        "size",
        "DRAM J/DIMM (Tier0 run)",
        "DCPM J/DIMM (Tier2 run)",
        "DRAM saving",
    ])
    .title("Fig 2 (bottom) — per-DIMM energy, DRAM vs Optane DCPM");
    for ((w, s), v) in groups(results) {
        let dram = v[0].energy_per_dimm_j[TierId::LOCAL_DRAM.index()];
        let dcpm = v[2].energy_per_dimm_j[TierId::NVM_NEAR.index()];
        t.row(vec![
            w,
            s,
            fmt_f64(dram, 2),
            fmt_f64(dcpm, 2),
            pct(1.0 - dram / dcpm),
        ]);
    }
    println!("{}", t.render());
}

fn print_stage_shape(results: &[ScenarioResult]) {
    // The time-resolved view behind Fig. 2's middle row: how concentrated
    // each workload's memory traffic is in its hottest stage on the DCPM
    // tier (stage rollups; the full series is in the trace_demo binary).
    let mut t = AsciiTable::new(vec![
        "benchmark",
        "size",
        "stages (T2 run)",
        "peak-stage traffic share",
        "peak stage time (s)",
    ])
    .title("Fig 2 (stage shape) — traffic concentration per stage, Tier 2 run");
    for ((w, s), v) in groups(results) {
        let rollups = &v[2].stage_rollups;
        let total: u64 = rollups
            .iter()
            .map(|r| r.metrics.traffic.total_bytes())
            .sum();
        let peak = rollups
            .iter()
            .max_by_key(|r| r.metrics.traffic.total_bytes());
        let (share, peak_s) = match peak {
            Some(p) if total > 0 => (
                p.metrics.traffic.total_bytes() as f64 / total as f64,
                p.duration().as_secs_f64(),
            ),
            _ => (0.0, 0.0),
        };
        t.row(vec![
            w,
            s,
            rollups.len().to_string(),
            fmt_f64(share, 3),
            fmt_f64(peak_s, 3),
        ]);
    }
    println!("{}", t.render());
}

fn print_attribution(results: &[ScenarioResult]) {
    // The profiler's view of Fig. 2's slowdowns: where the Tier-2 run's
    // critical path spends its time, as shares of the virtual runtime. The
    // shares sum to 1 (conservation) — the mem-write column is exactly the
    // part the paper's DCPM write-asymmetry discussion predicts grows.
    let rows = groups(results)
        .into_iter()
        .map(|((w, s), v)| ([w, s], v[2]));
    let table = attribution_table(
        "Fig 2 (attribution) — critical-path time shares, Tier 2 run",
        ["benchmark", "size"],
        rows,
    );
    println!("{table}");
}

fn print_summary(results: &[ScenarioResult]) {
    // The paper's headline aggregates.
    let g = groups(results);
    let n = g.len() as f64;
    let mut margins = [0.0; 3];
    let mut nvm_over_dram = 0.0;
    let mut savings = 0.0;
    for (_, v) in &g {
        let t0 = v[0].elapsed_s;
        for k in 1..4 {
            margins[k - 1] += (v[k].elapsed_s - t0) / v[k].elapsed_s;
        }
        nvm_over_dram += (v[2].elapsed_s + v[3].elapsed_s) / (v[0].elapsed_s + v[1].elapsed_s);
        savings += 1.0
            - v[0].energy_per_dimm_j[TierId::LOCAL_DRAM.index()]
                / v[2].energy_per_dimm_j[TierId::NVM_NEAR.index()];
    }
    println!("## Fig 2 summary vs paper");
    println!(
        "Tier0 better than Tier1/2/3 by {} / {} / {} on average (paper: +44.2% / +66.4% / +90.1%)",
        pct(margins[0] / n),
        pct(margins[1] / n),
        pct(margins[2] / n)
    );
    println!(
        "DCPM-bound runs take {:.1}% more time than DRAM-bound (paper: +76.7%)",
        (nvm_over_dram / n - 1.0) * 100.0
    );
    println!(
        "DRAM per-DIMM energy {} below DCPM on average (paper: -63.9%)",
        pct(savings / n)
    );
}
