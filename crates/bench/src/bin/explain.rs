//! Regression explainer: hierarchically diff two digest-bearing baselines
//! (`BENCH_profile.json`) and attribute each scenario's virtual-runtime
//! delta down the conserved decompositions — per stage, per task phase
//! (compute, shuffle fetch, per-tier read/write stall, queue, driver), per
//! object and tier, migration traffic, and fault/recovery waste. The
//! attributed deltas sum exactly (integer picoseconds) to the end-to-end
//! delta at every level; see `sparklite::explain`.
//!
//! ```text
//! cargo run --release -p memtier-bench --bin explain -- \
//!     --baseline results/BENCH_profile.json \
//!     --candidate fresh/BENCH_profile.json \
//!     [--scenario <label>] [--top 8] [--json-out results/EXPLAIN_run.json]
//! ```
//!
//! This is a diagnostic lens, not a gate: it renders a report for every
//! scenario present in both files (or just `--scenario`), whether or not
//! anything regressed — a self-diff prints all-zero reports. `compare
//! --explain` is the gated sibling that runs this analysis only on breach.
//!
//! # Exit codes
//!
//! * `0` — reports produced (regressions included; this bin never fails a
//!   run for being slow).
//! * `2` — usage or I/O error, or nothing to explain (no scenario joined
//!   with a digest on both sides).

use memtier_bench::{arg_value as arg, explain_baselines, load_baseline, write_text_artifact};
use std::process::exit;

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let usage = || -> ! {
        eprintln!(
            "usage: explain --baseline <json> --candidate <json> \
             [--scenario <label>] [--top <k>] [--json-out <path>]"
        );
        exit(2);
    };
    let baseline_path = arg(&args, "--baseline").unwrap_or_else(|| usage());
    let candidate_path = arg(&args, "--candidate").unwrap_or_else(|| usage());
    let top: usize = arg(&args, "--top")
        .map(|s| {
            s.parse().unwrap_or_else(|e| {
                eprintln!("explain: bad --top {s:?}: {e}");
                exit(2);
            })
        })
        .unwrap_or(8);
    let only: Vec<String> = arg(&args, "--scenario").into_iter().collect();

    let baseline = load_baseline("explain", &baseline_path);
    let candidate = load_baseline("explain", &candidate_path);
    let (explained, notes) = explain_baselines(&baseline, &candidate, &only);
    for n in &notes {
        eprintln!("explain: {n}");
    }
    if explained.is_empty() {
        eprintln!("explain: nothing to explain — no scenario joined with a digest on both sides");
        exit(2);
    }

    for e in &explained {
        println!("=== {} ===\n{}", e.scenario, e.report.render(top));
    }
    let moved = explained.iter().filter(|e| !e.report.is_zero()).count();
    println!(
        "explain: {} scenario(s) diffed, {} moved, {} note(s)",
        explained.len(),
        moved,
        notes.len()
    );

    if let Some(path) = arg(&args, "--json-out") {
        let json = serde_json::to_string_pretty(&explained).expect("reports serialize");
        write_text_artifact(&path, &json);
        println!("explain: wrote {path}");
    }
}
