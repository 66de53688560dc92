//! The mutable state one application's jobs share.

use crate::events::{EventBus, MemoryRingHandle};
use crate::faultsim::FaultState;
use crate::metrics::{AppMetrics, StageRollup};
use crate::net::NetState;
use crate::profile::ProfileLog;
use crate::storage::BlockKey;
use crate::trace::TaskSpan;
use memtier_des::SimTime;
use memtier_memsim::{MemorySystem, PlacementEngine};
use std::collections::BTreeMap;

/// Everything a [`SparkContext`](crate::SparkContext) carries from one job
/// to the next. The context holds it behind a single lock; a
/// [`JobRunner`](super::JobRunner) borrows it whole for the length of a job,
/// so there is no lock order to get wrong and no second copy of any fact.
pub struct RunState {
    /// The simulated memory system (tiers, counters, attribution ledger).
    pub mem: MemorySystem,
    /// The placement engine: routes each object's traffic (static engines
    /// pass the executor split through untouched) and decides migrations
    /// at epoch boundaries.
    pub engine: PlacementEngine,
    /// Virtual time: where the last job (or driver work) left the clock.
    pub clock: SimTime,
    /// Engine-level metrics so far.
    pub app: AppMetrics,
    /// Per-task spans, once tracing is enabled.
    pub trace: Option<Vec<TaskSpan>>,
    /// Lifecycle-event sinks.
    pub events: EventBus,
    /// Per-stage rollups, in completion order across all jobs.
    pub rollups: Vec<StageRollup>,
    /// Read handle onto the in-memory event ring, once attached.
    pub event_log: Option<MemoryRingHandle>,
    /// The always-on profiler log (tasks, stage edges, job windows).
    pub profile: ProfileLog,
    /// Executor liveness, the crash schedule and recovery statistics.
    pub faults: FaultState,
    /// The network plane; inert under loopback wiring.
    pub net: NetState,
    /// Cached-block residency `(rdd, partition) → executor`, fed from the
    /// block manager's insertion stream at every launch. A crash drops the
    /// dead executor's blocks through it; delay scheduling reads node-local
    /// preferences from it.
    pub block_owner: BTreeMap<BlockKey, usize>,
}
