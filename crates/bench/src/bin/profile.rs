//! The `profile` harness: [`memtier_bench::sweeps::profile`] — which says
//! what it sweeps, asserts and tabulates — on the shared pipeline.
//!
//! ```text
//! cargo run --release -p memtier-bench --bin profile
//! # -> results/profile_<app>.json   (one per workload: all tier runs)
//! # -> results/BENCH_profile.json   (consolidated baseline)
//! ```
//!
//! Flags: the shared sweep flags ([`memtier_bench::BenchArgs`]; `--jobs`
//! defaults to all cores). `--check` re-reads every artifact and, in place
//! of an unchanged re-run, requires the what-if prediction to stay within
//! 10 % of an actual perturbed re-run (the CI profile-smoke step).

use memtier_bench::sweeps;

fn main() {
    sweeps::run(&sweeps::profile());
}
