//! The `netsweep` harness: [`memtier_bench::sweeps::netsweep`] — which says what
//! it sweeps, asserts and tabulates — on the shared pipeline.
//!
//! ```text
//! cargo run --release -p memtier-bench --bin netsweep
//! # -> results/BENCH_net.json
//! ```
//!
//! Flags: the shared sweep flags ([`memtier_bench::BenchArgs`]; `--jobs`
//! defaults to all cores), and `--app <name>` to sweep a single workload
//! (the CI net-smoke step uses this). `--check` also requires the locality
//! win to hold in the rows on disk.

use memtier_bench::sweeps;

fn main() {
    sweeps::run(&sweeps::netsweep());
}
