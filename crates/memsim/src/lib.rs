//! # memtier-memsim — multi-tier heterogeneous memory-system simulator
//!
//! This crate models the paper's testbed: a two-socket server whose memory is
//! exposed to software as **four tiers** with contrasting latency, bandwidth
//! and energy characteristics (paper Table I):
//!
//! | Tier | Technology        | Idle latency | Bandwidth |
//! |------|-------------------|--------------|-----------|
//! | 0    | local DRAM        | 77.8 ns      | 39.3 GB/s |
//! | 1    | remote DRAM       | 130.9 ns     | 31.6 GB/s |
//! | 2    | Optane DCPM (4-DIMM side) | 172.1 ns | 10.7 GB/s |
//! | 3    | remote Optane DCPM (2-DIMM side) | 231.3 ns | 0.47 GB/s |
//!
//! The simulator is *behavioural*, not cycle-accurate: it answers the question
//! "how long does this batch of memory traffic take, and what does it cost in
//! energy and device wear, on tier X under concurrency Y and MBA throttle Z" —
//! which is exactly the granularity the paper's characterization operates at.
//!
//! ## Submodules
//! * [`tier`] — per-tier parameter sets (latency, bandwidth, MLP, energy).
//! * [`topology`] — sockets, NUMA nodes, DIMM placement; maps a
//!   (compute-node, memory-node) pair to a tier the way `numactl
//!   --cpunodebind/--membind` does on the real machine.
//! * [`access`] — read/write access batches (the unit of traffic).
//! * [`system`] — [`MemorySystem`](system::MemorySystem), the facade the
//!   `sparklite` engine talks to: per-tier fair-share bandwidth resources,
//!   access counters, energy meter, wear tracker, MBA controller.
//! * [`counters`] — `ipmctl`-equivalent per-DIMM media read/write counters.
//! * [`attribution`] — object-level attribution: which Spark-level entity
//!   (cached RDD, shuffle segment, input block, broadcast, scratch) caused
//!   each tier's traffic, stall time, energy and wear.
//! * [`telemetry`] — virtual-time counter sampling (`ipmctl -watch`
//!   equivalent): periodic snapshots of media counters, delivered bandwidth,
//!   queue occupancy and dynamic energy, driven by the DES clock.
//! * [`energy`] — static + dynamic (read/write-asymmetric) energy model.
//! * [`wear`] — NVM endurance accounting.
//! * [`mba`] — Intel-MBA-equivalent per-tier bandwidth throttling.
//! * [`policy`] — `numactl`-style binding policies.
//! * [`placement`] — the dynamic tiering layer on top of them: a
//!   [`PlacementPolicy`](placement::PlacementPolicy) decides per-object
//!   tier residency at epoch boundaries from the attribution ledger, and a
//!   [`PlacementEngine`](placement::PlacementEngine) turns decisions into
//!   costed migrations.
//! * [`probe`] — idle latency / peak bandwidth microbenchmarks that
//!   regenerate Table I *from the model* (a self-consistency check).
//! * [`config`] — tunable model constants and ablation switches.

#![warn(missing_docs)]

pub mod access;
pub mod attribution;
pub mod config;
pub mod counters;
pub mod energy;
pub mod mba;
pub mod placement;
pub mod policy;
pub mod probe;
pub mod system;
pub mod telemetry;
pub mod tier;
pub mod topology;
pub mod wear;
pub mod window;

pub use access::{AccessBatch, AccessKind, CACHE_LINE_BYTES};
pub use attribution::{
    AttributionLedger, HotnessReport, ObjectId, ObjectReport, ObjectSample, ObjectTierStats,
};
pub use config::MemSimConfig;
pub use counters::{CounterSnapshot, TierCounters};
pub use energy::{EnergyBreakdown, EnergyMeter};
pub use mba::{MbaController, MBA_LEVELS};
pub use placement::{
    EpochObservation, Migration, MigrationStats, PlacementEngine, PlacementPolicy, PlacementSpec,
    MIGRATION_FLOW_BASE,
};
pub use policy::{CpuBindPolicy, MemBindPolicy};
pub use system::{MemorySystem, RunTelemetry};
pub use telemetry::CounterSample;
pub use tier::{TierId, TierKind, TierParams, NUM_TIERS};
pub use topology::{NodeId, Topology};
pub use wear::WearTracker;
pub use window::{TierWindow, Window, WindowRollup, MAX_WINDOWS};
