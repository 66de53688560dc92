//! The `simspeed` harness: [`memtier_bench::sweeps::simspeed`] — which says
//! what it measures and tabulates — on the shared pipeline.
//!
//! ```text
//! cargo run --release -p memtier-bench --bin simspeed
//! # -> results/BENCH_simspeed.json
//! ```
//!
//! Flags: the shared sweep flags ([`memtier_bench::BenchArgs`]), and `--app
//! <name>` to measure a single workload (the CI simspeed-smoke step uses
//! this). `--jobs` defaults to 1 here — wall-clock is the measurement — and
//! an explicit `--jobs N` degrades only the wall-clock sidecar columns.

use memtier_bench::sweeps;

fn main() {
    sweeps::run(&sweeps::simspeed());
}
