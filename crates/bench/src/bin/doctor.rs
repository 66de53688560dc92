//! The `doctor` harness: [`memtier_bench::sweeps::doctor`] — which says what
//! it sweeps, asserts and tabulates — on the shared pipeline.
//!
//! ```text
//! cargo run --release -p memtier-bench --bin doctor
//! # -> results/BENCH_doctor.json
//! ```
//!
//! Flags: the shared sweep flags ([`memtier_bench::BenchArgs`]; `--jobs`
//! defaults to all cores). `--check` is the CI doctor-smoke step.

use memtier_bench::sweeps;

fn main() {
    sweeps::run(&sweeps::doctor());
}
