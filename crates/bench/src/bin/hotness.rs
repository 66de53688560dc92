//! The `hotness` harness: [`memtier_bench::sweeps::hotness`] — which says what
//! it sweeps, asserts and tabulates — on the shared pipeline.
//!
//! ```text
//! cargo run --release -p memtier-bench --bin hotness
//! # -> results/BENCH_hotness.json
//! ```
//!
//! Flags: the shared sweep flags ([`memtier_bench::BenchArgs`]; `--jobs`
//! defaults to all cores). `--check` is the CI hotness-smoke step.

use memtier_bench::sweeps;

fn main() {
    sweeps::run(&sweeps::hotness());
}
