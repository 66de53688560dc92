//! The run-doctor sweep (`BENCH_doctor.json`): every run's windowed series
//! must conserve exactly; the table shows each run's top finding, plus the
//! doctor's full rendered diagnosis for one showcase run.

use super::Sweep;
use crate::{bench_doctor_entries, BenchDoctorEntry};
use memtier_core::ScenarioResult;
use memtier_memsim::TierId;
use memtier_metrics::table::fmt_f64;
use memtier_metrics::AsciiTable;

/// How many findings the showcase diagnosis renders.
const TOP_FINDINGS: usize = 3;

/// The sweep the `doctor` bin runs.
pub fn sweep() -> Sweep<BenchDoctorEntry> {
    Sweep::suite(
        "doctor",
        bench_doctor_entries,
        |text| serde_json::from_str(text),
        check_rows,
        report,
    )
}

/// Per-run diagnosis table (conservation verdict, finding count, the top
/// finding), then the full rendered diagnosis for one showcase run: the
/// suite's first app on the near NVM tier, where the saturation detector
/// has something to say.
fn report(_apps: &[String], results: &[ScenarioResult], _rows: &[BenchDoctorEntry]) {
    let mut t = AsciiTable::new(vec![
        "scenario",
        "runtime (s)",
        "windows",
        "conserved",
        "findings",
        "top finding",
        "recovery (s)",
    ])
    .title("Run doctor (top finding per run)");
    for r in results {
        let top = r.doctor.findings.first();
        t.row(vec![
            r.scenario.label(),
            fmt_f64(r.elapsed_s, 3),
            r.doctor.series.starts.len().to_string(),
            if r.doctor.conserved { "yes" } else { "NO" }.to_string(),
            r.doctor.findings.len().to_string(),
            top.map(|f| f.kind.label().to_string())
                .unwrap_or_else(|| "-".to_string()),
            top.map(|f| fmt_f64(f.estimated_recovery_s, 4))
                .unwrap_or_else(|| "-".to_string()),
        ]);
    }
    println!("{}", t.render());

    if let Some(r) = results
        .iter()
        .find(|r| r.scenario.tier == TierId::NVM_NEAR && !r.doctor.findings.is_empty())
    {
        println!("## Showcase diagnosis: {}", r.scenario.label());
        print!("{}", r.doctor.render(TOP_FINDINGS));
    }
}

/// Each row is internally consistent: conserved, a real grid, findings
/// ranked by score.
fn check_rows(rows: &[BenchDoctorEntry]) -> Result<(), String> {
    for e in rows {
        if !e.conserved {
            return Err(format!("{} failed the conservation contract", e.scenario));
        }
        if e.windows == 0 || e.window_width_s <= 0.0 {
            return Err(format!("{} has a degenerate grid", e.scenario));
        }
        if e.findings.windows(2).any(|p| p[0].score < p[1].score) {
            return Err(format!("{} findings are not ranked by score", e.scenario));
        }
    }
    Ok(())
}
