//! The object-hotness sweep (`BENCH_hotness.json`): the per-object
//! attribution must partition the machine counters in exact integers; the
//! table shows each run's heaviest object, followed by the "promote the
//! top-k hot objects to Tier 0" what-if.

use super::{print_whatif, Sweep};
use crate::{bench_hotness_entries, BenchHotnessEntry, HOTNESS_TOP_K};
use memtier_core::ScenarioResult;
use memtier_metrics::table::fmt_f64;
use memtier_metrics::AsciiTable;
use sparklite::hotness_promotion_whatif;

/// How many objects the promotion what-if moves to Tier 0.
const PROMOTE_K: usize = 3;

/// The sweep the `hotness` bin runs.
pub fn sweep() -> Sweep<BenchHotnessEntry> {
    Sweep::suite(
        "hotness",
        bench_hotness_entries,
        |text| serde_json::from_str(text),
        check_rows,
        report,
    )
}

/// Per-run hotness table (the heaviest object and its share of the
/// traffic), then the promotion what-if on the Tier-2 run of every app:
/// the critical path re-priced as if the top-`PROMOTE_K` hot objects lived
/// on Tier 0.
fn report(_apps: &[String], results: &[ScenarioResult], _rows: &[BenchHotnessEntry]) {
    let mut t = AsciiTable::new(vec![
        "scenario",
        "runtime (s)",
        "stall (s)",
        "objects",
        "hottest object",
        "bytes (MB)",
        "byte share",
    ])
    .title("Object hotness (heaviest object per run)");
    for r in results {
        let total_bytes: u64 = r.hotness.objects.iter().map(|o| o.total_bytes).sum();
        let top = r.hotness.top_by_bytes(1)[0];
        t.row(vec![
            r.scenario.label(),
            fmt_f64(r.elapsed_s, 3),
            fmt_f64(r.hotness.total_stall().as_secs_f64(), 3),
            r.hotness.objects.len().to_string(),
            top.label.clone(),
            fmt_f64(top.total_bytes as f64 / 1e6, 1),
            fmt_f64(top.total_bytes as f64 / total_bytes.max(1) as f64, 3),
        ]);
    }
    println!("{}", t.render());

    print_whatif(
        &format!("top-{PROMOTE_K} hot objects promoted to Tier 0"),
        results,
        |r| hotness_promotion_whatif(&r.hotness, PROMOTE_K),
    );
}

/// Each row keeps a sane top-k list: non-empty, within the cap, ranked by
/// bytes, and stalling no longer than the run's total.
fn check_rows(rows: &[BenchHotnessEntry]) -> Result<(), String> {
    for e in rows {
        if e.objects.is_empty() || e.objects.len() > HOTNESS_TOP_K {
            return Err(format!("{} has a bad object list", e.scenario));
        }
        let top_stall: f64 = e.objects.iter().map(|o| o.stall_s).sum();
        if top_stall > e.total_stall_s * (1.0 + 1e-9) {
            return Err(format!(
                "{} top-object stall {top_stall:.6}s exceeds the total {:.6}s",
                e.scenario, e.total_stall_s
            ));
        }
        if e.objects
            .windows(2)
            .any(|p| p[0].total_bytes < p[1].total_bytes)
        {
            return Err(format!("{} objects are not ranked by bytes", e.scenario));
        }
    }
    Ok(())
}
