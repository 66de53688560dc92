//! The `faults` harness: [`memtier_bench::sweeps::faults`] — which says what
//! it sweeps, asserts and tabulates — on the shared pipeline.
//!
//! ```text
//! cargo run --release -p memtier-bench --bin faults
//! # -> results/BENCH_faults.json
//! ```
//!
//! Flags: the shared sweep flags ([`memtier_bench::BenchArgs`]; `--jobs`
//! defaults to all cores), and `--app <name>` to sweep a single workload
//! (the CI faults-smoke step uses this).

use memtier_bench::sweeps;

fn main() {
    sweeps::run(&sweeps::faults());
}
