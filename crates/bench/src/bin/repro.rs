//! One-shot reproduction: run every campaign and write a self-contained
//! markdown report (default `REPORT.md`, override with `--out <path>`)
//! plus the machine-readable perf baseline (`BENCH_profile.json`, override
//! with `--profile-out <path>`) CI archives.
//!
//! ```text
//! cargo run --release -p memtier-bench --bin repro [-- --out REPORT.md]
//! ```

use memtier_bench::{
    arg_value, audit_all, bench_profile_entries, campaign_threads, check_fail, write_json_artifact,
    write_text_artifact,
};
use memtier_core::campaign::{
    by_workload_size, fig2_campaign, fig3_campaign, fig4_grid, FIG4_APPS, FIG4_CORES,
    FIG4_EXECUTORS,
};
use memtier_core::guidelines::{check_all, CampaignData};
use memtier_core::predict::{combined_model, correlation_with_specs, leave_one_tier_out};
use memtier_core::{Fig4Cell, ScenarioResult};
use memtier_memsim::probe::table1;
use memtier_memsim::{MemorySystem, TierId};
use memtier_workloads::{all_workloads, DataSize};
use std::fmt::Write as _;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let out_path = arg_value(&args, "--out").unwrap_or_else(|| "REPORT.md".to_string());
    let profile_path =
        arg_value(&args, "--profile-out").unwrap_or_else(|| "BENCH_profile.json".to_string());
    let threads = campaign_threads();
    let mut md = String::new();

    writeln!(md, "# spark-memtier reproduction report\n").unwrap();
    writeln!(
        md,
        "Deterministic virtual-time reproduction of Katsaragakis et al., IPDPSW 2023. \
         Every number below regenerates bit-identically from `--bin repro`.\n"
    )
    .unwrap();

    // --- Table I ---------------------------------------------------------
    eprintln!("[1/6] Table I probes…");
    let rows = table1(&MemorySystem::paper_default());
    writeln!(
        md,
        "## Table I — tier characteristics (measured by probe)\n"
    )
    .unwrap();
    writeln!(md, "| tier | idle latency (ns) | bandwidth (GB/s) |").unwrap();
    writeln!(md, "|---|---|---|").unwrap();
    for (i, r) in rows.iter().enumerate() {
        writeln!(
            md,
            "| Tier {i} | {:.1} | {:.2} |",
            r.idle_latency_ns, r.bandwidth_gb_s
        )
        .unwrap();
    }

    // --- Fig 2 -----------------------------------------------------------
    eprintln!("[2/6] Fig 2 campaign (84 scenarios)…");
    let fig2 = fig2_campaign(threads).expect("fig2");
    audit_all(&fig2).unwrap_or_else(|msg| check_fail(msg));
    writeln!(md, "\n## Fig. 2 — time / NVM accesses / energy\n").unwrap();
    writeln!(
        md,
        "| benchmark | size | T0 (s) | T1 (s) | T2 (s) | T3 (s) | T2 accesses | write ratio | DRAM J/DIMM | DCPM J/DIMM | stages | peak-stage share |"
    )
    .unwrap();
    writeln!(md, "|---|---|---|---|---|---|---|---|---|---|---|---|").unwrap();
    for ((w, s), mut v) in by_workload_size(&fig2) {
        v.sort_by_key(|r| r.scenario.tier);
        // Per-stage rollups of the Tier-2 run: how concentrated the NVM
        // traffic is in the hottest stage.
        let rollups = &v[2].stage_rollups;
        let traffic_total: u64 = rollups
            .iter()
            .map(|r| r.metrics.traffic.total_bytes())
            .sum();
        let peak_share = rollups
            .iter()
            .map(|r| r.metrics.traffic.total_bytes())
            .max()
            .filter(|_| traffic_total > 0)
            .map(|peak| peak as f64 / traffic_total as f64)
            .unwrap_or(0.0);
        writeln!(
            md,
            "| {w} | {s} | {:.3} | {:.3} | {:.3} | {:.3} | {} | {:.2} | {:.2} | {:.2} | {} | {:.2} |",
            v[0].elapsed_s,
            v[1].elapsed_s,
            v[2].elapsed_s,
            v[3].elapsed_s,
            v[2].bound_tier_accesses(),
            v[2].write_ratio(),
            v[0].energy_per_dimm_j[TierId::LOCAL_DRAM.index()],
            v[2].energy_per_dimm_j[TierId::NVM_NEAR.index()],
            rollups.len(),
            peak_share,
        )
        .unwrap();
    }

    // --- Fig 3 -----------------------------------------------------------
    eprintln!("[3/6] Fig 3 campaign (210 scenarios)…");
    let fig3 = fig3_campaign(threads).expect("fig3");
    let mut worst: f64 = 0.0;
    for (_, v) in by_workload_size(&fig3) {
        let base = v
            .iter()
            .find(|r| r.scenario.mba_percent == Some(100))
            .map(|r| r.elapsed_s)
            .unwrap();
        for r in v {
            worst = worst.max((r.elapsed_s - base).abs() / base);
        }
    }
    writeln!(
        md,
        "\n## Fig. 3 — MBA sweep\n\nWorst per-run deviation from the 100 % baseline across \
         all 210 runs: **{:.2} %** (paper: unchanged — latency-bound).",
        worst * 100.0
    )
    .unwrap();

    // --- Fig 4 -----------------------------------------------------------
    eprintln!("[4/6] Fig 4 grids…");
    let mut fig4: Vec<(String, DataSize, Vec<Fig4Cell>)> = Vec::new();
    writeln!(
        md,
        "\n## Fig. 4 — executor grids (speedup over 1×40, NVM tier)\n"
    )
    .unwrap();
    for size in [DataSize::Small, DataSize::Large] {
        for app in FIG4_APPS {
            let cells = fig4_grid(app, size, threads).expect("fig4");
            writeln!(md, "### {app}-{size}\n").unwrap();
            let mut header = String::from("| executors \\\\ cores |");
            for c in FIG4_CORES {
                write!(header, " {c} |").unwrap();
            }
            writeln!(md, "{header}").unwrap();
            writeln!(md, "|---|---|---|---|---|---|").unwrap();
            for e in FIG4_EXECUTORS {
                let mut row = format!("| {e} |");
                for c in FIG4_CORES {
                    match cells.iter().find(|x| x.executors == e && x.cores == c) {
                        Some(cell) => write!(row, " {:.2}x |", cell.speedup).unwrap(),
                        None => write!(row, " - |").unwrap(),
                    }
                }
                writeln!(md, "{row}").unwrap();
            }
            writeln!(md).unwrap();
            fig4.push((app.to_string(), size, cells));
        }
    }

    // --- Figs 5/6 + prediction --------------------------------------------
    eprintln!("[5/6] correlation analyses…");
    writeln!(md, "## Fig. 6 — spec correlations and prediction\n").unwrap();
    writeln!(
        md,
        "| benchmark | size | corr(lat) | corr(bw) | LOTO MAPE |"
    )
    .unwrap();
    writeln!(md, "|---|---|---|---|---|").unwrap();
    for ((w, s), mut v) in by_workload_size(&fig2) {
        v.sort_by_key(|r| r.scenario.tier);
        let c = correlation_with_specs(&v);
        let m = leave_one_tier_out(&v);
        writeln!(
            md,
            "| {w} | {s} | {} | {} | {} |",
            c.latency_r.map(|r| format!("{r:.3}")).unwrap_or("-".into()),
            c.bandwidth_r
                .map(|r| format!("{r:.3}"))
                .unwrap_or("-".into()),
            m.map(|x| format!("{:.1}%", x * 100.0))
                .unwrap_or("-".into()),
        )
        .unwrap();
    }
    let refs: Vec<&ScenarioResult> = fig2.iter().collect();
    if let Some(combined) = combined_model(&refs) {
        writeln!(
            md,
            "\nCombined specs+events model over the whole campaign: R² = {:.3}, \
             MAPE = {:.1} % (paper §IV-F's expectation).",
            combined.r_squared,
            combined.mape * 100.0
        )
        .unwrap();
    }

    // --- Takeaways ---------------------------------------------------------
    eprintln!("[6/6] takeaway checks…");
    let reports = check_all(&CampaignData {
        fig2: &fig2,
        fig3: &fig3,
        fig4: &fig4,
    });
    writeln!(md, "\n## Takeaways\n").unwrap();
    let mut pass = 0;
    for r in &reports {
        writeln!(
            md,
            "- **T{} [{}]** {} — {}",
            r.id,
            if r.holds { "PASS" } else { "FAIL" },
            r.statement,
            r.evidence
        )
        .unwrap();
        pass += usize::from(r.holds);
    }
    writeln!(md, "\n**{pass}/8 takeaways reproduced.**").unwrap();

    // --- Critical-path attribution (perf baseline) -------------------------
    write_json_artifact(&profile_path, &bench_profile_entries(&fig2));
    writeln!(md, "\n## Critical-path attribution (perf baseline)\n").unwrap();
    writeln!(
        md,
        "Per-run virtual-time attribution over the critical path (conserved: the \
         components sum to the runtime exactly). Dominant component of each \
         large-size Tier-2 run below; the full per-run vector is in \
         `{profile_path}`.\n"
    )
    .unwrap();
    writeln!(
        md,
        "| benchmark | runtime (s) | compute | shuffle fetch | queue | mem stall | dominant |"
    )
    .unwrap();
    writeln!(md, "|---|---|---|---|---|---|---|").unwrap();
    for ((w, s), mut v) in by_workload_size(&fig2) {
        if s != DataSize::Large {
            continue;
        }
        v.sort_by_key(|r| r.scenario.tier);
        let r = v[2];
        let a = &r.profile.attribution;
        let named = a.named_seconds();
        let dominant = named
            .iter()
            .max_by(|x, y| x.1.total_cmp(&y.1))
            .map(|(n, _)| n.clone())
            .unwrap_or_default();
        writeln!(
            md,
            "| {w} | {:.3} | {:.2} | {:.2} | {:.2} | {:.2} | {dominant} |",
            r.elapsed_s,
            a.compute.as_secs_f64() / r.elapsed_s,
            a.shuffle_fetch.as_secs_f64() / r.elapsed_s,
            a.sched_queue.as_secs_f64() / r.elapsed_s,
            a.mem_total().as_secs_f64() / r.elapsed_s,
        )
        .unwrap();
    }

    // Suite inventory footer.
    writeln!(md, "\n## Suite\n").unwrap();
    for w in all_workloads() {
        writeln!(
            md,
            "- `{}` ({}) — {}",
            w.name(),
            w.category(),
            w.data_description(DataSize::Large)
        )
        .unwrap();
    }

    write_text_artifact(&out_path, &md);
    eprintln!("wrote {out_path} ({pass}/8 takeaways)");
    if pass < 8 {
        std::process::exit(1);
    }
}
