//! Offline stand-in for the `crossbeam` crate (see `perf/README.md`,
//! "Offline build"). `sparklite` lists the dependency and imports nothing
//! from it, so the stand-in is empty.
