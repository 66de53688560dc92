//! Utilization timeline: watch the Optane channel while pagerank runs and
//! render per-tier utilization and executor concurrency as sparklines — a
//! quick way to *see* why MBA throttling doesn't bite (utilization stays
//! low) while executor contention does (busy cores spike at stage waves).
//!
//! The timeline comes from the always-on windowed rollup: every counter
//! charge is folded into per-window conserved totals as it happens, so no
//! sampler needs enabling and the per-window series re-sum *exactly* to the
//! run's machine counters. The run doctor re-bins the same rollup onto its
//! uniform grid and attaches ranked findings on top.
//!
//! ```text
//! cargo run --release --example utilization_timeline -- [workload]
//! ```

use spark_memtier::engine::{SparkConf, SparkContext};
use spark_memtier::memsim::TierId;
use spark_memtier::metrics::table::sparkline;
use spark_memtier::workloads::{workload_by_name, DataSize};

fn main() {
    let app = std::env::args().nth(1).unwrap_or_else(|| "pagerank".into());
    let workload = workload_by_name(&app).expect("known workload");

    let sc = SparkContext::new(SparkConf::bound_to_tier(TierId::NVM_NEAR)).expect("context");
    sc.enable_tracing();
    workload.run(&sc, DataSize::Large, 42).expect("run");
    let report = sc.finish();

    // The rollup the timeline is built from: always on, windowed at charge
    // time, and conserving against the machine counters in exact integers —
    // one of the identities the run's audit holds it to.
    let rollup = sc.window_rollup();
    report.audit().expect("the run conserves");

    let doctor = &report.doctor;
    let idx = TierId::NVM_NEAR.index();
    let util: Vec<f64> = doctor
        .series
        .tier_utilization
        .iter()
        .map(|u| u[idx])
        .collect();
    let width_ps = doctor.window_width.as_ps().max(1) as f64;
    let busy_cores: Vec<f64> = doctor
        .series
        .busy
        .iter()
        .map(|b| b.as_ps() as f64 / width_ps)
        .collect();
    let peak_util = util.iter().cloned().fold(0.0, f64::max);
    let peak_cores = busy_cores.iter().cloned().fold(0.0, f64::max);

    println!(
        "{app}-large on Tier 2 ({} charge windows of {:.6}s each, re-binned to {} doctor windows over {}):\n",
        rollup.len(),
        rollup.width().as_secs_f64(),
        doctor.series.starts.len(),
        report.elapsed
    );
    println!("channel utilization (peak {:.0}%):", peak_util * 100.0);
    println!("  {}", sparkline(&util));
    println!(
        "busy executor cores (peak {peak_cores:.0} of {}):",
        doctor.total_cores
    );
    println!("  {}", sparkline(&busy_cores));
    println!(
        "\nutilization peaks at {:.0}% of the 10.7 GB/s channel — the Fig. 3 result \
         (MBA caps down to 10% leave headroom) while the busy-core series shows the \
         stage waves that drive Takeaway 6's contention.",
        peak_util * 100.0
    );
    let spans = sc.task_spans().unwrap();
    println!(
        "({} tasks executed; timeline also available as sc.chrome_trace())",
        spans.len()
    );

    // Who drove that channel: the ten hottest objects by nominal stall,
    // straight from the per-object attribution ledger.
    let hotness = &report.hotness;
    let mut table = spark_memtier::metrics::AsciiTable::new(vec![
        "object",
        "bytes (MB)",
        "accesses",
        "stall (s)",
        "gain if Tier 0 (s)",
    ])
    .title("Top-10 hot objects by stall");
    for o in hotness.top_by_stall(10) {
        table.row(vec![
            o.label.clone(),
            format!("{:.1}", o.total_bytes as f64 / 1e6),
            o.total_accesses.to_string(),
            format!("{:.4}", o.stall.as_secs_f64()),
            format!("{:.4}", o.promotion_gain().as_secs_f64()),
        ]);
    }
    println!("{}", table.render());

    // And the doctor's verdict on the same run.
    println!("{}", doctor.render(3));
}
