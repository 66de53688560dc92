//! # sparklite — an RDD-based in-memory analytics engine on simulated tiers
//!
//! `sparklite` reproduces the slice of Apache Spark the paper exercises:
//!
//! * **RDDs** — lazy, lineage-tracked, partitioned collections with the
//!   classic transformation surface (`map`, `filter`, `flat_map`,
//!   `reduce_by_key`, `group_by_key`, `join`, `sort_by_key`, `union`,
//!   `sample`, `distinct`, …) and actions (`collect`, `count`, `reduce`,
//!   `take`, `save_as_text_file`).
//! * **A DAG scheduler** that splits lineage into stages at shuffle
//!   boundaries and runs them as task sets, pipelining narrow chains within
//!   a task exactly like Spark does (intermediate `map` steps cost CPU and
//!   working-set accesses, not materialization traffic).
//! * **A shuffle subsystem** with hash and range partitioners, optional
//!   map-side combining, and a map-output tracker.
//! * **A block manager** with storage-level caching and LRU eviction, so
//!   iterative workloads (`pagerank`, `als`, `lda`) hit memory instead of
//!   recomputing lineage.
//! * **A standalone cluster** of executors pinned to sockets and memory
//!   tiers the way the paper pins Spark executors with `numactl`.
//!
//! ## The two planes
//!
//! Every job runs on two planes at once:
//!
//! 1. the **data plane** actually computes partition contents in Rust —
//!    results are real and checked by tests;
//! 2. the **time plane** prices each task (modeled CPU + an
//!    [`AccessBatch`](memtier_memsim::AccessBatch) of memory traffic) and
//!    schedules it through a discrete-event simulation of executor cores and
//!    the [`MemorySystem`](memtier_memsim::MemorySystem), producing a
//!    deterministic virtual execution time, energy and access counts.
//!
//! Wall-clock time never enters a measurement; a run is a pure function of
//! (workload, configuration, seed).
//!
//! ## Observability
//!
//! The engine carries a Spark-listener-equivalent [`events`] bus: typed
//! job/stage/task lifecycle events with pluggable sinks (in-memory ring,
//! JSONL log, live progress), per-stage metric rollups, and a Chrome-trace
//! export ([`trace`]) that interleaves task spans with memory counter
//! tracks. All of it reads virtual time and is off (and free) by default.
//! On top of the telemetry sits a critical-path profiler ([`profile`]):
//! every task span is decomposed into named virtual-time components
//! (compute, shuffle fetch, per-tier read/write stall), the job DAG's
//! critical path is extracted, and the resulting attribution conserves —
//! components sum exactly to the end-to-end virtual runtime — which makes
//! analytical what-if repricing under perturbed tier parameters possible.
//! Orthogonally, every access batch is tagged with the Spark-level object
//! it belongs to ([`memtier_memsim::ObjectId`]: cached RDD block, shuffle
//! segment, input scan, broadcast, scratch), and the run's
//! [`memtier_memsim::HotnessReport`] ranks objects by the traffic and
//! stall they drove per tier — conserving against the machine counters in
//! exact integers. Finally, the run doctor ([`doctor`]) folds the always-on
//! sources — the memory system's windowed rollup, the profiler log, the
//! fault ledger — into conserved per-window series and runs a detector
//! catalogue over them, attaching ranked, evidence-backed findings to every
//! run report.

#![warn(missing_docs)]
// Closure-heavy engine code trips this lint pervasively; the aliases the
// lint wants would hurt readability more than the long types do.
#![allow(clippy::type_complexity)]

pub mod accumulator;
pub mod audit;
pub mod broadcast;
pub mod config;
pub mod context;
pub mod cost;
pub mod doctor;
pub mod error;
pub mod events;
pub mod explain;
pub mod faultsim;
pub mod memsize;
pub mod metrics;
pub mod net;
pub mod profile;
pub mod rdd;
pub mod runtime;
pub mod scheduler;
pub mod shuffle;
pub mod storage;
pub mod trace;

pub use accumulator::Accumulator;
pub use audit::{AuditError, RunView};
pub use broadcast::Broadcast;
pub use config::{ExecutorPlacement, PlacementMode, SparkConf};
pub use context::SparkContext;
pub use cost::{CostModel, OpCost};
pub use doctor::{
    diagnose, DoctorInputs, DoctorReport, DoctorSeries, EvidenceWindow, Finding, FindingKind,
    Severity,
};
pub use error::SparkError;
pub use events::{
    parse_jsonl, to_jsonl, Event, EventBus, EventSink, JsonlSink, MemoryRing, MemoryRingHandle,
    ProgressSink, TimedEvent,
};
pub use explain::{
    build_digest, explain, Contributor, DeltaRow, ExplainReport, MigrationDelta, ObjectDelta,
    ObjectDigest, RecoveryDelta, RunDigest, StageDelta, StageSlice,
};
pub use faultsim::{CrashEvent, FaultPlan, FaultState, RecoveryStats, SpeculationConf};
pub use memsize::MemSize;
pub use memtier_des::{EngineProf, EngineStats};
pub use memtier_netsim::{Locality, LocalityMode, NetTopology, NetworkMode};
pub use metrics::{AppMetrics, StageRollup, SystemEvents};
pub use net::{
    LinkReport, NetCharge, NetChargeKind, NetCtx, NetPeer, NetReport, NetState, TransferRecord,
};
pub use profile::{
    build_profile, hotness_promotion_whatif, reprice, Attribution, EvictionRecord, PathSegment,
    ProfileLog, RunProfile, SegmentKind, TaskBreakdown, WhatIf, WhatIfReport,
};
pub use rdd::{Data, Key, Rdd};
pub use shuffle::{HashPartitioner, RangePartitioner};
pub use storage::StorageLevel;
pub use trace::{chrome_trace_json, SpanKind, TaskSpan, TraceLanes};
