//! Perf-regression gate: diff two machine-readable baselines (any
//! `BENCH_*.json` whose rows carry `scenario` + `virtual_runtime_s`; extra
//! fields — including `BENCH_simspeed.json`'s wall-clock sidecar columns —
//! are ignored by construction) and fail when any scenario's virtual
//! runtime drifted beyond tolerance.
//!
//! ```text
//! cargo run --release -p memtier-bench --bin compare -- \
//!     --baseline results/BENCH_profile.json \
//!     --candidate fresh/BENCH_profile.json \
//!     --tolerance-pct 2 \
//!     [--json-out results/COMPARE.json] \
//!     [--explain] [--explain-out results/EXPLAIN_compare.json] [--top 8]
//! ```
//!
//! The two files are joined on the scenario label. Scenarios present in
//! only one file also fail the gate — a silently changed scenario set is a
//! regression of the baseline itself. The simulator is deterministic, so
//! two runs of the same code must agree to the last bit; the tolerance
//! exists for intentional model changes that also update the baseline.
//!
//! With `--explain`, a breached gate additionally attributes each
//! out-of-tolerance scenario's virtual-runtime delta down the conserved
//! hierarchy — stages, task phases, per-object tier stalls, migration
//! traffic, and fault waste — from the [`RunDigest`]s embedded in
//! `BENCH_profile.json` rows. It prints the top contributors per scenario
//! and writes the machine-readable reports (plus a rendered `.txt`
//! sibling) to `--explain-out`. Digest-less baselines degrade to a note,
//! not an error.
//!
//! # Exit codes
//!
//! * `0` — every scenario within tolerance, scenario sets identical.
//! * `1` — regression: a scenario drifted beyond tolerance or the
//!   scenario sets differ.
//! * `2` — usage or I/O error (bad flags, unreadable or unparsable
//!   baseline, unwritable output).
//!
//! [`RunDigest`]: sparklite::RunDigest

use memtier_bench::{
    arg_value as arg, compare_runtimes, explain_baselines, load_baseline, pct, write_text_artifact,
    RuntimeDelta, RuntimeRow,
};
use memtier_metrics::table::fmt_f64;
use memtier_metrics::AsciiTable;
use std::process::exit;

/// The `--explain` path: attribute every breached scenario's delta from
/// the digests and persist the reports for the CI artifact upload.
fn explain_breach(
    args: &[String],
    baseline: &[RuntimeRow],
    candidate: &[RuntimeRow],
    deltas: &[RuntimeDelta],
    tolerance_pct: f64,
) {
    let top: usize = arg(args, "--top")
        .map(|s| {
            s.parse().unwrap_or_else(|e| {
                eprintln!("compare: bad --top {s:?}: {e}");
                exit(2);
            })
        })
        .unwrap_or(8);
    let breached: Vec<String> = deltas
        .iter()
        .filter(|d| d.out_of_tolerance(tolerance_pct))
        .map(|d| d.scenario.clone())
        .collect();
    if breached.is_empty() {
        eprintln!(
            "compare: nothing to explain — the breach is scenario-set drift, \
             and a scenario present on only one side has no run pair to diff"
        );
        return;
    }
    let (explained, notes) = explain_baselines(baseline, candidate, &breached);
    let mut rendered = String::new();
    for e in &explained {
        rendered.push_str(&format!(
            "=== {} ===\n{}\n",
            e.scenario,
            e.report.render(top)
        ));
    }
    print!("{rendered}");
    for n in &notes {
        eprintln!("compare: explain — {n}");
    }
    let out = arg(args, "--explain-out").unwrap_or_else(|| "results/EXPLAIN_compare.json".into());
    write_text_artifact(
        &out,
        &serde_json::to_string_pretty(&explained).expect("reports serialize"),
    );
    let txt = std::path::Path::new(&out).with_extension("txt");
    write_text_artifact(&txt.to_string_lossy(), &rendered);
    println!("compare: wrote {out} and {}", txt.display());
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let usage = || -> ! {
        eprintln!(
            "usage: compare --baseline <json> --candidate <json> [--tolerance-pct <pct>] \
             [--json-out <path>] [--explain] [--explain-out <path>] [--top <k>]"
        );
        exit(2);
    };
    let baseline_path = arg(&args, "--baseline").unwrap_or_else(|| usage());
    let candidate_path = arg(&args, "--candidate").unwrap_or_else(|| usage());
    let tolerance_pct: f64 = arg(&args, "--tolerance-pct")
        .map(|s| {
            s.parse().unwrap_or_else(|e| {
                eprintln!("compare: bad --tolerance-pct {s:?}: {e}");
                exit(2);
            })
        })
        .unwrap_or(2.0);

    let baseline = load_baseline("compare", &baseline_path);
    let candidate = load_baseline("compare", &candidate_path);
    let (deltas, unmatched) = compare_runtimes(&baseline, &candidate);

    let mut t =
        AsciiTable::new(vec!["scenario", "baseline (s)", "candidate (s)", "delta"]).title(format!(
            "Virtual-runtime comparison ({} scenarios, tolerance {:.2}%)",
            deltas.len(),
            tolerance_pct
        ));
    let mut worst = 0.0f64;
    let mut failures = 0usize;
    for d in &deltas {
        let flag = if d.out_of_tolerance(tolerance_pct) {
            failures += 1;
            "  <-- REGRESSION"
        } else {
            ""
        };
        worst = worst.max(d.delta_pct.abs());
        t.row(vec![
            d.scenario.clone(),
            fmt_f64(d.baseline_s, 6),
            fmt_f64(d.candidate_s, 6),
            format!("{}{}", pct(d.delta_pct / 100.0), flag),
        ]);
    }
    println!("{}", t.render());
    for u in &unmatched {
        eprintln!("compare: scenario set drifted — {u}");
    }
    println!(
        "worst |delta| {:.4}% over {} scenarios ({} beyond tolerance, {} unmatched)",
        worst,
        deltas.len(),
        failures,
        unmatched.len()
    );

    // The machine-readable verdict goes out before the exit status so a
    // failing gate still leaves an artifact behind.
    if let Some(path) = arg(&args, "--json-out") {
        let payload = serde_json::json!({
            "tolerance_pct": tolerance_pct,
            "failures": failures,
            "deltas": deltas,
            "unmatched": unmatched,
        });
        write_text_artifact(
            &path,
            &serde_json::to_string_pretty(&payload).expect("verdict serializes"),
        );
        println!("compare: wrote {path}");
    }

    if failures > 0 || !unmatched.is_empty() {
        if args.iter().any(|a| a == "--explain") {
            explain_breach(&args, &baseline, &candidate, &deltas, tolerance_pct);
        }
        eprintln!(
            "compare: FAILED — {failures} scenario(s) beyond ±{tolerance_pct}% and {} unmatched label(s)",
            unmatched.len()
        );
        exit(1);
    }
    println!("compare: OK — all scenarios within ±{tolerance_pct}%");
}
