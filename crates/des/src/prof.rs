//! Engine self-profiling: wall-clock counters and timers for the DES kernel.
//!
//! Everything in this module measures the *simulator itself* — how much real
//! (wall-clock) time and how many kernel operations a run costs — never the
//! simulated system. The collector is zero-cost when disabled: [`EngineProf`]
//! is a cheap handle around `Option<Arc<..>>`, and every recording method is a
//! single cold branch when the option is `None`. When enabled, counters are
//! relaxed atomics and timers are coarse [`Instant`] scopes, so profiling can
//! never perturb virtual-time results (it only reads the wall clock, which the
//! deterministic simulation never consults).
//!
//! The snapshot type [`EngineStats`] is a **wall-clock sidecar**: it rides on
//! run reports under a dedicated `engine` key that byte-identity gates strip
//! before comparing. Counters (event counts, queue depths, flow histograms)
//! are themselves deterministic; only the `*_ms` / `*_per_sec` / `speedup`
//! fields vary run to run.

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::Instant;

/// Classes of events the engine processes, for per-kind accounting.
///
/// Each class maps to one dispatch point in the scheduler loop or the memory
/// system, so the per-class counts partition "events processed" by subsystem.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventClass {
    /// A memory/storage access flow completed in `memsim` and was retired by
    /// the scheduler's memory-event handler.
    MemCompletion,
    /// A data-migration flow (tier-to-tier move) completed.
    Migration,
    /// A pure-CPU timer event (`CpuDone`) popped from the event queue.
    CpuTimer,
    /// A scheduled task-retry event popped from the event queue.
    Retry,
    /// A speculative-execution check event popped from the event queue.
    SpecCheck,
    /// A placement-epoch boundary processed by the scheduler.
    PlacementEpoch,
    /// An injected fault (executor crash) applied to the simulation.
    FaultCrash,
    /// One telemetry sample taken by the memory system's samplers.
    TelemetrySample,
    /// One task attempt dispatched onto an executor core.
    TaskDispatch,
    /// A network-plane link drain retired by the scheduler's net handler.
    NetCompletion,
    /// A delay-scheduling locality-relax timer popped from the event queue.
    NetRelax,
}

impl EventClass {
    /// Number of distinct event classes (array sizing).
    pub const COUNT: usize = 11;

    /// All classes, in stable display order.
    pub const ALL: [EventClass; EventClass::COUNT] = [
        EventClass::MemCompletion,
        EventClass::Migration,
        EventClass::CpuTimer,
        EventClass::Retry,
        EventClass::SpecCheck,
        EventClass::PlacementEpoch,
        EventClass::FaultCrash,
        EventClass::TelemetrySample,
        EventClass::TaskDispatch,
        EventClass::NetCompletion,
        EventClass::NetRelax,
    ];

    /// Stable snake_case name used as the JSON map key.
    pub fn name(self) -> &'static str {
        match self {
            EventClass::MemCompletion => "mem_completion",
            EventClass::Migration => "migration",
            EventClass::CpuTimer => "cpu_timer",
            EventClass::Retry => "retry",
            EventClass::SpecCheck => "spec_check",
            EventClass::PlacementEpoch => "placement_epoch",
            EventClass::FaultCrash => "fault_crash",
            EventClass::TelemetrySample => "telemetry_sample",
            EventClass::TaskDispatch => "task_dispatch",
            EventClass::NetCompletion => "net_completion",
            EventClass::NetRelax => "net_relax",
        }
    }

    fn index(self) -> usize {
        match self {
            EventClass::MemCompletion => 0,
            EventClass::Migration => 1,
            EventClass::CpuTimer => 2,
            EventClass::Retry => 3,
            EventClass::SpecCheck => 4,
            EventClass::PlacementEpoch => 5,
            EventClass::FaultCrash => 6,
            EventClass::TelemetrySample => 7,
            EventClass::TaskDispatch => 8,
            EventClass::NetCompletion => 9,
            EventClass::NetRelax => 10,
        }
    }
}

/// Wall-time attribution phases.
///
/// Phases **nest**: `EventDispatch` wraps one full scheduler-loop iteration
/// and therefore contains the resource phases; `ResourceAddFlow` /
/// `ResourceRemoveFlow` call `advance`, which calls the rate recomputation.
/// Reported times are *inclusive* of nested phases — the hotspot ranking is a
/// flame-graph root view, not a self-time profile.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ProfPhase {
    /// One iteration of the scheduler event loop (dispatch + handle).
    EventDispatch,
    /// `SharedResource::current_rates` — the max-min fair water-filling pass.
    RateRecompute,
    /// `SharedResource::advance` — integrating served bytes up to now.
    ResourceAdvance,
    /// `SharedResource::add_flow` (includes the nested advance).
    ResourceAddFlow,
    /// `SharedResource::remove_flow` (includes the nested advance).
    ResourceRemoveFlow,
    /// Telemetry sampling loops in `memsim::MemorySystem::advance`.
    TelemetrySampling,
    /// End-of-run report assembly and serialization-side bookkeeping.
    Serialization,
}

impl ProfPhase {
    /// Number of distinct phases (array sizing).
    pub const COUNT: usize = 7;

    /// All phases, in stable display order.
    pub const ALL: [ProfPhase; ProfPhase::COUNT] = [
        ProfPhase::EventDispatch,
        ProfPhase::RateRecompute,
        ProfPhase::ResourceAdvance,
        ProfPhase::ResourceAddFlow,
        ProfPhase::ResourceRemoveFlow,
        ProfPhase::TelemetrySampling,
        ProfPhase::Serialization,
    ];

    /// Stable snake_case name used as the JSON map key.
    pub fn name(self) -> &'static str {
        match self {
            ProfPhase::EventDispatch => "event_dispatch",
            ProfPhase::RateRecompute => "rate_recompute",
            ProfPhase::ResourceAdvance => "resource_advance",
            ProfPhase::ResourceAddFlow => "resource_add_flow",
            ProfPhase::ResourceRemoveFlow => "resource_remove_flow",
            ProfPhase::TelemetrySampling => "telemetry_sampling",
            ProfPhase::Serialization => "serialization",
        }
    }

    fn index(self) -> usize {
        match self {
            ProfPhase::EventDispatch => 0,
            ProfPhase::RateRecompute => 1,
            ProfPhase::ResourceAdvance => 2,
            ProfPhase::ResourceAddFlow => 3,
            ProfPhase::ResourceRemoveFlow => 4,
            ProfPhase::TelemetrySampling => 5,
            ProfPhase::Serialization => 6,
        }
    }
}

/// Number of power-of-two histogram buckets (covers the full `u64` range).
pub const HIST_BUCKETS: usize = 65;

/// Bucket index for a sample: 0 holds the value 0, bucket `i >= 1` holds
/// values with bit length `i`, i.e. the range `[2^(i-1), 2^i - 1]`.
pub fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of bucket `i` (the value reported for percentiles).
pub fn bucket_upper(i: usize) -> u64 {
    if i == 0 {
        0
    } else if i >= 64 {
        u64::MAX
    } else {
        (1u64 << i) - 1
    }
}

/// A fixed-size power-of-two histogram of relaxed atomic counters.
///
/// Recording is lock-free and `&self` (the profiler fans one instance out to
/// several engine components), so every sample lands in the bucket of its bit
/// length; percentiles read back the bucket's inclusive upper bound, capped
/// at the true observed peak. The approximation error is therefore at most
/// one power of two — plenty for queue-depth and flow-count distributions —
/// while the counters stay exact: summed bucket counts always equal the
/// number of `record` calls.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; HIST_BUCKETS],
    peak: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// A fresh, empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            peak: AtomicU64::new(0),
        }
    }

    /// Record one sample.
    pub fn record(&self, v: u64) {
        self.buckets[bucket_of(v)].fetch_add(1, Relaxed);
        self.peak.fetch_max(v, Relaxed);
    }

    /// The largest value recorded so far (0 when empty — indistinguishable
    /// from a recorded 0, which percentile reporting does not care about).
    pub fn peak(&self) -> u64 {
        self.peak.load(Relaxed)
    }

    /// Total number of samples recorded (exact: bucket counts conserve).
    pub fn total(&self) -> u64 {
        self.bucket_counts().iter().sum()
    }

    /// A snapshot of the per-bucket counts, indexed by [`bucket_of`].
    pub fn bucket_counts(&self) -> [u64; HIST_BUCKETS] {
        std::array::from_fn(|i| self.buckets[i].load(Relaxed))
    }

    /// Approximate percentile: the upper bound of the first bucket at which
    /// the cumulative count reaches `q` (0..=1) of the total. Returns 0 for an
    /// empty histogram, and never exceeds [`peak`](Histogram::peak).
    pub fn percentile(&self, q: f64) -> u64 {
        let counts = self.bucket_counts();
        let total: u64 = counts.iter().sum();
        if total == 0 {
            return 0;
        }
        let target = (q * total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (i, c) in counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                return bucket_upper(i).min(self.peak());
            }
        }
        self.peak()
    }
}

/// Shared mutable profiling state behind the [`EngineProf`] handle.
#[derive(Debug)]
struct ProfState {
    started: Instant,
    events: [AtomicU64; EventClass::COUNT],
    phase_ns: [AtomicU64; ProfPhase::COUNT],
    schedules: AtomicU64,
    pops: AtomicU64,
    depth: Histogram,
    reshares: AtomicU64,
    flows: Histogram,
    eta_scans: AtomicU64,
    eta_hits: AtomicU64,
}

impl ProfState {
    fn new() -> Self {
        ProfState {
            started: Instant::now(),
            events: std::array::from_fn(|_| AtomicU64::new(0)),
            phase_ns: std::array::from_fn(|_| AtomicU64::new(0)),
            schedules: AtomicU64::new(0),
            pops: AtomicU64::new(0),
            depth: Histogram::new(),
            reshares: AtomicU64::new(0),
            flows: Histogram::new(),
            eta_scans: AtomicU64::new(0),
            eta_hits: AtomicU64::new(0),
        }
    }
}

/// Handle to the engine self-profiler.
///
/// Cloning is cheap and every clone feeds the same collector, so a single
/// enabled handle can be fanned out to the event queue, the per-tier shared
/// resources, the memory system, and the scheduler. The default handle is
/// disabled: every recording call is a single `Option` branch and no wall
/// clock is ever read.
#[derive(Debug, Clone, Default)]
pub struct EngineProf {
    inner: Option<Arc<ProfState>>,
}

/// RAII scope that attributes elapsed wall time to a [`ProfPhase`] on drop.
///
/// Obtained from [`EngineProf::phase`]; holds its own reference to the
/// collector so it does not borrow the profiler (or whatever struct embeds
/// it) while the timed code runs.
#[derive(Debug)]
pub struct PhaseGuard {
    state: Arc<ProfState>,
    phase: ProfPhase,
    start: Instant,
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        let ns = self.start.elapsed().as_nanos() as u64;
        self.state.phase_ns[self.phase.index()].fetch_add(ns, Relaxed);
    }
}

impl EngineProf {
    /// A disabled (no-op) profiler — identical to `EngineProf::default()`.
    pub fn disabled() -> Self {
        EngineProf::default()
    }

    /// A live profiler. The wall clock for `wall_ms` starts now.
    pub fn enabled() -> Self {
        EngineProf {
            inner: Some(Arc::new(ProfState::new())),
        }
    }

    /// Whether this handle records anything.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Count one processed event of the given class.
    #[inline]
    pub fn count_event(&self, class: EventClass) {
        if let Some(s) = &self.inner {
            s.events[class.index()].fetch_add(1, Relaxed);
        }
    }

    /// Record an `EventQueue::schedule` along with the post-push queue depth.
    #[inline]
    pub fn record_schedule(&self, depth: usize) {
        if let Some(s) = &self.inner {
            s.schedules.fetch_add(1, Relaxed);
            s.depth.record(depth as u64);
        }
    }

    /// Record an `EventQueue::pop` along with the post-pop queue depth
    /// (symmetric with [`record_schedule`](Self::record_schedule): both
    /// sample the heap depth *after* the operation).
    #[inline]
    pub fn record_pop(&self, depth: usize) {
        if let Some(s) = &self.inner {
            s.pops.fetch_add(1, Relaxed);
            s.depth.record(depth as u64);
        }
    }

    /// Record one fair-share rate recomputation over `active_flows` flows.
    #[inline]
    pub fn record_reshare(&self, active_flows: usize) {
        if let Some(s) = &self.inner {
            s.reshares.fetch_add(1, Relaxed);
            s.flows.record(active_flows as u64);
        }
    }

    /// Record one `SharedResource::next_completion` query over a non-empty
    /// flow set: answered from the memo (`hit`) or by a per-flow ETA scan.
    #[inline]
    pub fn record_eta_query(&self, hit: bool) {
        if let Some(s) = &self.inner {
            let counter = if hit { &s.eta_hits } else { &s.eta_scans };
            counter.fetch_add(1, Relaxed);
        }
    }

    /// Open a wall-time attribution scope for `phase`. Returns `None` (and
    /// never reads the clock) when disabled; bind the result to keep the
    /// scope alive: `let _t = prof.phase(ProfPhase::EventDispatch);`.
    #[inline]
    pub fn phase(&self, phase: ProfPhase) -> Option<PhaseGuard> {
        self.inner.as_ref().map(|s| PhaseGuard {
            state: Arc::clone(s),
            phase,
            start: Instant::now(),
        })
    }

    /// Snapshot collected statistics into a serializable [`EngineStats`].
    ///
    /// `virtual_s` is the simulated runtime in seconds (used for the
    /// virtual-to-wall `speedup`). Returns `None` when disabled.
    pub fn snapshot(&self, virtual_s: f64) -> Option<EngineStats> {
        let s = self.inner.as_ref()?;
        let wall_ms = s.started.elapsed().as_secs_f64() * 1e3;
        let wall_s = (wall_ms / 1e3).max(1e-9);

        let mut event_counts = BTreeMap::new();
        let mut events_total = 0u64;
        for class in EventClass::ALL {
            let n = s.events[class.index()].load(Relaxed);
            events_total += n;
            if n > 0 {
                event_counts.insert(class.name().to_string(), n);
            }
        }

        let mut phase_ms = BTreeMap::new();
        let mut hotspots = Vec::new();
        for phase in ProfPhase::ALL {
            let ms = s.phase_ns[phase.index()].load(Relaxed) as f64 / 1e6;
            if ms > 0.0 {
                phase_ms.insert(phase.name().to_string(), ms);
                hotspots.push(Hotspot {
                    phase: phase.name().to_string(),
                    wall_ms: ms,
                    share: ms / wall_ms.max(1e-9),
                });
            }
        }
        hotspots.sort_by(|a, b| b.wall_ms.total_cmp(&a.wall_ms));
        hotspots.truncate(5);

        Some(EngineStats {
            wall_ms,
            virtual_s,
            speedup: virtual_s / wall_s,
            events_total,
            events_per_sec: events_total as f64 / wall_s,
            event_counts,
            queue: QueueStats {
                schedules: s.schedules.load(Relaxed),
                pops: s.pops.load(Relaxed),
                peak_depth: s.depth.peak(),
                depth_p50: s.depth.percentile(0.50),
                depth_p95: s.depth.percentile(0.95),
                depth_p99: s.depth.percentile(0.99),
            },
            resource: ResourceStats {
                reshares: s.reshares.load(Relaxed),
                peak_active_flows: s.flows.peak(),
                flows_p50: s.flows.percentile(0.50),
                flows_p95: s.flows.percentile(0.95),
                flows_p99: s.flows.percentile(0.99),
                eta_scans: s.eta_scans.load(Relaxed),
                eta_hits: s.eta_hits.load(Relaxed),
            },
            phase_ms,
            hotspots,
        })
    }
}

/// One ranked wall-time hotspot (a [`ProfPhase`] and its share of the run).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hotspot {
    /// Phase name (see [`ProfPhase::name`]).
    pub phase: String,
    /// Inclusive wall time attributed to the phase, in milliseconds.
    pub wall_ms: f64,
    /// `wall_ms` as a fraction of total run wall time (phases nest, so
    /// shares do not sum to 1).
    pub share: f64,
}

/// `EventQueue` operation counts and depth distribution.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct QueueStats {
    /// Total `schedule` calls.
    pub schedules: u64,
    /// Total successful `pop` calls.
    pub pops: u64,
    /// Peak observed queue depth.
    pub peak_depth: u64,
    /// Approximate median queue depth (power-of-two bucket upper bound).
    pub depth_p50: u64,
    /// Approximate 95th-percentile queue depth.
    pub depth_p95: u64,
    /// Approximate 99th-percentile queue depth.
    pub depth_p99: u64,
}

/// `SharedResource` fair-share recomputation counts and flow distribution.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ResourceStats {
    /// Total re-share (water-filling rate recomputation) operations.
    pub reshares: u64,
    /// Peak active flows observed at a re-share.
    pub peak_active_flows: u64,
    /// Approximate median active-flow count per re-share.
    pub flows_p50: u64,
    /// Approximate 95th-percentile active-flow count per re-share.
    pub flows_p95: u64,
    /// Approximate 99th-percentile active-flow count per re-share.
    pub flows_p99: u64,
    /// `next_completion` queries that walked every flow's ETA: at most one
    /// per state change of a resource (absent in pre-memo artifacts).
    #[serde(default)]
    pub eta_scans: u64,
    /// `next_completion` queries answered from the memoized last answer.
    #[serde(default)]
    pub eta_hits: u64,
}

/// Wall-clock engine statistics for one run — the profiling **sidecar**.
///
/// Serialized under the `engine` key on run reports. Byte-identity gates and
/// the `compare` bin ignore it by construction: comparisons either strip the
/// key or deserialize into row types without it. The count fields
/// (`events_total`, `event_counts`, `queue`/`resource` counts) are
/// deterministic; all `*_ms`, `*_per_sec`, and `speedup` fields vary with the
/// host and run.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct EngineStats {
    /// Wall-clock duration from profiler enable to snapshot, in ms.
    pub wall_ms: f64,
    /// Simulated (virtual) runtime in seconds.
    pub virtual_s: f64,
    /// Virtual-to-wall speedup: `virtual_s / (wall_ms / 1000)`.
    pub speedup: f64,
    /// Total events processed across all classes.
    pub events_total: u64,
    /// Engine throughput: `events_total` per wall-clock second.
    pub events_per_sec: f64,
    /// Events processed per class (absent classes had zero events).
    pub event_counts: BTreeMap<String, u64>,
    /// Event-queue operation counts and depth distribution.
    pub queue: QueueStats,
    /// Shared-resource re-share counts and active-flow distribution.
    pub resource: ResourceStats,
    /// Inclusive wall time per phase, in ms (see [`ProfPhase`] for nesting).
    pub phase_ms: BTreeMap<String, f64>,
    /// Top phases by inclusive wall time (at most 5).
    pub hotspots: Vec<Hotspot>,
}

impl EngineStats {
    /// Render a compact human-readable summary (one line per hotspot) for
    /// bench bins that print to stderr.
    pub fn summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{} events in {:.1} ms ({:.0} events/s, {:.0}x virtual-to-wall)",
            self.events_total, self.wall_ms, self.events_per_sec, self.speedup
        );
        let r = &self.resource;
        let _ = write!(
            out,
            "\n  {} re-shares; {} next-completion queries = {} ETA scans + {} memo hits",
            r.reshares,
            r.eta_scans + r.eta_hits,
            r.eta_scans,
            r.eta_hits
        );
        for h in &self.hotspots {
            let _ = write!(
                out,
                "\n  {:<22} {:>10.2} ms ({:>5.1}%)",
                h.phase,
                h.wall_ms,
                h.share * 100.0
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_is_inert() {
        let p = EngineProf::disabled();
        assert!(!p.is_enabled());
        p.count_event(EventClass::CpuTimer);
        p.record_schedule(3);
        p.record_pop(2);
        p.record_reshare(7);
        p.record_eta_query(true);
        assert!(p.phase(ProfPhase::EventDispatch).is_none());
        assert!(p.snapshot(1.0).is_none());
    }

    #[test]
    fn enabled_profiler_counts_and_snapshots() {
        let p = EngineProf::enabled();
        let clone = p.clone();
        for _ in 0..10 {
            clone.count_event(EventClass::MemCompletion);
        }
        p.count_event(EventClass::TaskDispatch);
        p.record_schedule(4);
        p.record_pop(4);
        p.record_reshare(16);
        {
            let _t = p.phase(ProfPhase::RateRecompute);
        }
        let stats = p.snapshot(2.0).expect("enabled snapshot");
        assert_eq!(stats.events_total, 11);
        assert_eq!(stats.event_counts["mem_completion"], 10);
        assert_eq!(stats.event_counts["task_dispatch"], 1);
        assert!(!stats.event_counts.contains_key("retry"));
        assert_eq!(stats.queue.schedules, 1);
        assert_eq!(stats.queue.pops, 1);
        assert_eq!(stats.queue.peak_depth, 4);
        assert_eq!(stats.resource.reshares, 1);
        assert_eq!(stats.resource.peak_active_flows, 16);
        assert!(stats.wall_ms >= 0.0);
        assert!((stats.virtual_s - 2.0).abs() < 1e-12);
        assert!(stats.phase_ms.contains_key("rate_recompute"));
        assert!(!stats.hotspots.is_empty());
    }

    #[test]
    fn histogram_percentiles_are_monotone_and_capped_at_peak() {
        let h = Histogram::new();
        for v in [0u64, 1, 1, 2, 3, 5, 9, 9, 9, 100] {
            h.record(v);
        }
        let p50 = h.percentile(0.50);
        let p95 = h.percentile(0.95);
        let p99 = h.percentile(0.99);
        assert!(p50 <= p95 && p95 <= p99);
        assert!(p99 <= 100, "percentile capped at observed peak");
        assert_eq!(h.peak(), 100);
        assert_eq!(h.total(), 10);
    }

    #[test]
    fn bucket_bounds_cover_u64() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(u64::MAX), 64);
        assert_eq!(bucket_upper(0), 0);
        assert_eq!(bucket_upper(1), 1);
        assert_eq!(bucket_upper(2), 3);
        assert_eq!(bucket_upper(64), u64::MAX);
    }

    #[test]
    fn stats_serde_roundtrip() {
        let p = EngineProf::enabled();
        p.count_event(EventClass::CpuTimer);
        p.record_schedule(1);
        let stats = p.snapshot(0.5).unwrap();
        let json = serde_json::to_string(&stats).unwrap();
        let back: EngineStats = serde_json::from_str(&json).unwrap();
        assert_eq!(stats, back);
    }
}
