//! # memtier-des — deterministic discrete-event simulation kernel
//!
//! This crate is the foundation of the `spark-memtier` simulation stack. It
//! provides three building blocks that every higher layer (the memory-tier
//! simulator, the `sparklite` task scheduler, the experiment runner) is built
//! on:
//!
//! * [`SimTime`] — a picosecond-resolution virtual clock. All reported
//!   execution times in the reproduction are *virtual*; wall-clock time never
//!   enters a measurement, which makes every experiment bit-reproducible from
//!   its seed.
//! * [`EventQueue`] — a stable-ordered pending-event set. Events scheduled for
//!   the same instant pop in FIFO order of insertion, so simulations are
//!   deterministic even under timestamp ties.
//! * [`SharedResource`] — a max–min-fair processor-sharing resource used to
//!   model memory-channel bandwidth. Flows (tasks) have a *demand* (bytes to
//!   move) and a *nominal rate* (the rate they would sustain alone, i.e. the
//!   latency-limited single-stream rate); the resource caps the aggregate at
//!   its capacity (optionally reduced by an MBA-style throttle) and divides
//!   bandwidth max–min-fairly. A pluggable [`ContentionModel`] additionally
//!   degrades per-flow nominal rates as concurrency rises, which is how the
//!   DCPM write-queue contention of the paper's Fig. 4 is expressed.
//!
//! The kernel is intentionally *engine-agnostic*: it knows nothing about
//! memory tiers, RDDs or executors. See `memtier-memsim` and `sparklite` for
//! the domain layers.

#![warn(missing_docs)]

pub mod contention;
pub mod prof;
pub mod queue;
pub mod resource;
pub mod time;

/// Engine self-profiling (`des::prof`) under its conventional short name.
pub use prof as simprof;

pub use contention::ContentionModel;
pub use prof::{EngineProf, EngineStats, EventClass, Histogram, PhaseGuard, ProfPhase};
pub use queue::EventQueue;
pub use resource::{earliest_completion, FlowId, SharedResource};
pub use time::SimTime;
