//! Critical-path profiling and virtual-time attribution.
//!
//! The telemetry layer (events, counters, rollups) answers *what happened*;
//! this module answers *where the time went and what would change it*. The
//! scheduler decomposes every task's virtual-time span into named
//! components ([`TaskBreakdown`]: compute, shuffle-fetch processing,
//! per-tier memory stall split read/write) and records the DAG edges that
//! gated stage activation ([`ProfileLog`]). [`build_profile`] walks those
//! edges backwards from each job's last-finishing task to extract the
//! **critical path** — the single chain of queue delays, task spans and
//! driver gaps whose lengths telescope to exactly the end-to-end virtual
//! runtime — and rolls its components into a [`RunProfile`].
//!
//! The central invariant is **conservation**: the components of
//! [`RunProfile::attribution`] sum to [`RunProfile::elapsed`] in integer
//! picoseconds, with no "other" bucket. Every per-task breakdown conserves
//! its span by construction (rounding remainders are absorbed into the
//! largest memory component), queue and driver segments are measured as
//! exact gaps between recorded instants, and the path segments abut: a
//! stage submitted by a parent task's completion starts exactly at that
//! task's end.
//!
//! On top of the attribution sits an analytical **what-if engine**
//! ([`reprice`]): scale each per-tier read/write stall component by the
//! ratio of perturbed to baseline effective access latency and re-sum the
//! path. This is the paper's sensitivity methodology in closed form — e.g.
//! halving the DCPM write latency (2× write drain rate) removes half of the
//! `tier2_write` component from the predicted runtime, while an MBA
//! throttle leaves every latency unchanged and therefore predicts no
//! first-order slowdown for latency-bound workloads (Takeaway 4).

use memtier_des::SimTime;
use memtier_memsim::{HotnessReport, MemSimConfig, TierId, NUM_TIERS};
use serde::{Deserialize, Serialize};

/// `skip_serializing_if` hands the field by reference; `SimTime::is_zero` takes `self`.
fn time_is_zero(t: &SimTime) -> bool {
    t.is_zero()
}

/// One task's virtual-time span decomposed into named components. All
/// fields are exact integer picoseconds and sum to the task's span
/// (`end − started`) — asserted wherever breakdowns are produced.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct TaskBreakdown {
    /// Modeled CPU time net of shuffle-fetch processing (includes dispatch
    /// overhead and JVM-contention inflation).
    pub compute: SimTime,
    /// CPU charged to fetching and deserializing shuffle input (scan,
    /// per-bucket overheads, disk terms in MapReduce mode), inflated by the
    /// same contention factor as the rest of the CPU phase.
    pub shuffle_fetch: SimTime,
    /// Memory stall attributed to read accesses, per tier. Includes the
    /// task's share of bandwidth-contention stretch.
    pub mem_read: [SimTime; NUM_TIERS],
    /// Memory stall attributed to write accesses, per tier.
    pub mem_write: [SimTime; NUM_TIERS],
    /// Network time: cross-node transfer stall (shuffle fetch bytes on the
    /// wire, broadcast, DFS traffic), including the task's share of link
    /// contention stretch. Zero — and skipped in serialized form, keeping
    /// loopback artifacts byte-identical — without a topology.
    #[serde(default, skip_serializing_if = "time_is_zero")]
    pub net: SimTime,
}

impl TaskBreakdown {
    /// Total memory-stall time across tiers and directions.
    pub fn mem_total(&self) -> SimTime {
        self.mem_read.iter().copied().sum::<SimTime>() + self.mem_write.iter().copied().sum()
    }

    /// Sum of every component — equals the task's span by construction.
    pub fn total(&self) -> SimTime {
        self.compute + self.shuffle_fetch + self.mem_total() + self.net
    }
}

/// One executed task as the profiler saw it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TaskRecord {
    /// Task id (unique within its job).
    pub task_id: u64,
    /// Owning job.
    pub job: u64,
    /// Owning stage.
    pub stage: u32,
    /// Partition computed.
    pub partition: usize,
    /// Dispatch instant.
    pub started: SimTime,
    /// Completion instant.
    pub end: SimTime,
    /// The span's component decomposition.
    pub breakdown: TaskBreakdown,
}

/// One cache-block eviction as the profiler saw it. Recorded
/// unconditionally at the dispatch that displaced the block (like task and
/// stage records), so the doctor's eviction-churn series exists inside the
/// byte-identity domain — unlike the event bus's `BlockEvicted` mirror,
/// which is opt-in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct EvictionRecord {
    /// Eviction instant.
    pub at: SimTime,
    /// RDD id of the evicted block.
    pub rdd: u32,
    /// Partition index of the evicted block.
    pub partition: usize,
    /// Block size in bytes.
    pub bytes: u64,
    /// True when the block was spilled to simulated disk rather than
    /// dropped outright.
    pub spilled: bool,
}

/// One executed stage's activation edge. Skipped stages never activate and
/// have no record — exactly why rollup/path conservation still holds when
/// cached RDDs prune lineage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageRecord {
    /// Owning job.
    pub job: u64,
    /// Stage id within the job's plan.
    pub stage: u32,
    /// Instant the stage became runnable.
    pub submitted: SimTime,
    /// The task whose completion activated this stage (`None`: runnable at
    /// job submission). Its end instant equals `submitted` exactly — the
    /// edge the critical-path walk follows.
    pub activated_by: Option<u64>,
}

/// One job's submit/complete window.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct JobRecord {
    /// Job sequence number within the context.
    pub job: u64,
    /// Submission instant.
    pub submitted: SimTime,
    /// Completion instant: the last task's end, or later when background
    /// migration copies were still draining then.
    pub completed: SimTime,
}

/// Everything the scheduler records for the profiler, across all jobs of a
/// context. Collected unconditionally, like stage rollups: the cost is a
/// few copies per task, and always-on collection keeps instrumented and
/// plain runs bit-identical.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ProfileLog {
    /// Every executed task, in completion order.
    pub tasks: Vec<TaskRecord>,
    /// Every executed stage's activation record, in activation order.
    pub stages: Vec<StageRecord>,
    /// Every job, in submission order.
    pub jobs: Vec<JobRecord>,
    /// Every cache-block eviction, in occurrence order (`#[serde(default)]`
    /// so logs serialized before this field existed still load).
    #[serde(default)]
    pub evictions: Vec<EvictionRecord>,
}

/// What occupies one segment of the critical path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum SegmentKind {
    /// A task span on the path.
    Task,
    /// Scheduler queue delay: the gap between a path task's stage becoming
    /// runnable and the task's dispatch.
    Queue,
    /// Driver-side time outside any task chain: setup, inter-job work,
    /// teardown — and a job's post-task drain, the wait between its last
    /// task's end and its completion while background migration copies
    /// finish.
    Driver,
}

/// One contiguous segment of the critical path. Segments abut: each starts
/// where the previous one ended, and together they tile `[0, elapsed]`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct PathSegment {
    /// What occupies the segment.
    pub kind: SegmentKind,
    /// Segment start instant.
    pub start: SimTime,
    /// Segment end instant.
    pub end: SimTime,
    /// Owning job (`None` for driver segments).
    pub job: Option<u64>,
    /// The task on the path (its span for `Task`, the task whose dispatch
    /// ends the gap for `Queue`; `None` for driver segments).
    pub task_id: Option<u64>,
}

impl PathSegment {
    /// Segment length.
    pub fn duration(&self) -> SimTime {
        self.end - self.start
    }
}

/// The critical-path component rollup. Components are disjoint and sum to
/// the run's elapsed virtual time (see [`Attribution::total`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Attribution {
    /// Compute time of path tasks (CPU net of shuffle fetch).
    pub compute: SimTime,
    /// Shuffle-fetch processing time of path tasks.
    pub shuffle_fetch: SimTime,
    /// Scheduler queue delay ahead of path tasks.
    pub sched_queue: SimTime,
    /// Driver-side time outside any job, plus each job's post-task drain
    /// (see [`SegmentKind::Driver`]).
    pub driver: SimTime,
    /// Per-tier read-stall time of path tasks.
    pub mem_read: [SimTime; NUM_TIERS],
    /// Per-tier write-stall time of path tasks.
    pub mem_write: [SimTime; NUM_TIERS],
    /// Network transfer stall of path tasks (zero, and skipped when
    /// serialized, without a topology — loopback artifacts are unchanged).
    #[serde(default, skip_serializing_if = "time_is_zero")]
    pub net: SimTime,
}

impl Attribution {
    /// Sum of every component. Equals the run's elapsed time when the
    /// profile conserves.
    pub fn total(&self) -> SimTime {
        self.compute
            + self.shuffle_fetch
            + self.sched_queue
            + self.driver
            + self.mem_read.iter().copied().sum::<SimTime>()
            + self.mem_write.iter().copied().sum::<SimTime>()
            + self.net
    }

    /// Total memory-stall time across tiers and directions.
    pub fn mem_total(&self) -> SimTime {
        self.mem_read.iter().copied().sum::<SimTime>() + self.mem_write.iter().copied().sum()
    }

    /// The components as `(name, seconds)` pairs in a fixed order — the
    /// attribution vector of the `BENCH_profile.json` perf baseline and the
    /// feature set for component↔runtime correlations.
    pub fn named_seconds(&self) -> Vec<(String, f64)> {
        let mut out = vec![
            ("compute".to_string(), self.compute.as_secs_f64()),
            (
                "shuffle_fetch".to_string(),
                self.shuffle_fetch.as_secs_f64(),
            ),
            ("sched_queue".to_string(), self.sched_queue.as_secs_f64()),
            ("driver".to_string(), self.driver.as_secs_f64()),
        ];
        for i in 0..NUM_TIERS {
            out.push((format!("tier{i}_read"), self.mem_read[i].as_secs_f64()));
            out.push((format!("tier{i}_write"), self.mem_write[i].as_secs_f64()));
        }
        // Appended only when present so loopback baselines (and their
        // artifact diffs) keep the pre-network component vector.
        if !self.net.is_zero() {
            out.push(("net".to_string(), self.net.as_secs_f64()));
        }
        out
    }

    /// The components as `(name, time)` pairs in the same fixed order as
    /// [`named_seconds`](Self::named_seconds), but in exact integer
    /// picoseconds — the explain subsystem diffs these without ever
    /// touching floating point.
    pub fn named_ps(&self) -> Vec<(String, SimTime)> {
        let mut out = vec![
            ("compute".to_string(), self.compute),
            ("shuffle_fetch".to_string(), self.shuffle_fetch),
            ("sched_queue".to_string(), self.sched_queue),
            ("driver".to_string(), self.driver),
        ];
        for i in 0..NUM_TIERS {
            out.push((format!("tier{i}_read"), self.mem_read[i]));
            out.push((format!("tier{i}_write"), self.mem_write[i]));
        }
        if !self.net.is_zero() {
            out.push(("net".to_string(), self.net));
        }
        out
    }

    pub(crate) fn add_breakdown(&mut self, b: &TaskBreakdown) {
        self.compute += b.compute;
        self.shuffle_fetch += b.shuffle_fetch;
        for i in 0..NUM_TIERS {
            self.mem_read[i] += b.mem_read[i];
            self.mem_write[i] += b.mem_write[i];
        }
        self.net += b.net;
    }
}

/// The profiler's product: the critical path of a run and its conserved
/// time attribution.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunProfile {
    /// End-to-end virtual runtime the attribution accounts for.
    pub elapsed: SimTime,
    /// Component rollup over the critical path.
    pub attribution: Attribution,
    /// The path itself, chronological and abutting.
    pub segments: Vec<PathSegment>,
}

impl RunProfile {
    /// `(job, task_id)` of every task on the critical path, chronological.
    pub fn critical_tasks(&self) -> Vec<(u64, u64)> {
        self.segments
            .iter()
            .filter(|s| s.kind == SegmentKind::Task)
            .filter_map(|s| Some((s.job?, s.task_id?)))
            .collect()
    }

    /// True iff the attribution conserves: components sum to `elapsed`
    /// exactly (integer picoseconds).
    pub fn conserves(&self) -> bool {
        self.attribution.total() == self.elapsed
    }

    /// Extend the path with a driver segment from its current end to `end`
    /// (nothing when the path already reaches it).
    fn driver_until(&mut self, end: SimTime) {
        let start = self.segments.last().map_or(SimTime::ZERO, |s| s.end);
        if end > start {
            self.attribution.driver += end - start;
            self.segments.push(PathSegment {
                kind: SegmentKind::Driver,
                start,
                end,
                job: None,
                task_id: None,
            });
        }
    }
}

/// Extract the critical path from a [`ProfileLog`] and roll it up into a
/// [`RunProfile`] accounting for `elapsed` (the context's final virtual
/// time — driver tail time after the last job is attributed to `driver`).
///
/// The walk runs backwards per job: start at the task with the latest end
/// (ties broken by highest task id, deterministically), emit its span and
/// its queue gap, then follow the stage's `activated_by` edge to the parent
/// task whose completion made the stage runnable — which ended exactly when
/// the stage was submitted — until reaching a stage that was runnable at
/// job submission. Gaps between jobs (and before the first / after the
/// last) are driver segments, and so is the tail of a job that stays open
/// after its last task while migration copies drain.
pub fn build_profile(log: &ProfileLog, elapsed: SimTime) -> RunProfile {
    let mut profile = RunProfile {
        elapsed,
        ..RunProfile::default()
    };
    let mut jobs: Vec<&JobRecord> = log.jobs.iter().collect();
    jobs.sort_by_key(|j| (j.submitted, j.job));
    for jr in jobs {
        profile.driver_until(jr.submitted);
        // Backward walk over activation edges.
        let mut chain: Vec<&TaskRecord> = Vec::new();
        let mut cur = log
            .tasks
            .iter()
            .filter(|t| t.job == jr.job)
            .max_by_key(|t| (t.end, t.task_id));
        while let Some(t) = cur {
            chain.push(t);
            let stage = log
                .stages
                .iter()
                .find(|s| s.job == t.job && s.stage == t.stage)
                .expect("executed task without a stage activation record");
            cur = stage
                .activated_by
                .and_then(|id| log.tasks.iter().find(|p| p.job == t.job && p.task_id == id));
        }
        chain.reverse();
        for t in chain {
            let stage = log
                .stages
                .iter()
                .find(|s| s.job == t.job && s.stage == t.stage)
                .expect("stage record checked above");
            if t.started > stage.submitted {
                profile.attribution.sched_queue += t.started - stage.submitted;
                profile.segments.push(PathSegment {
                    kind: SegmentKind::Queue,
                    start: stage.submitted,
                    end: t.started,
                    job: Some(t.job),
                    task_id: Some(t.task_id),
                });
            }
            profile.attribution.add_breakdown(&t.breakdown);
            profile.segments.push(PathSegment {
                kind: SegmentKind::Task,
                start: t.started,
                end: t.end,
                job: Some(t.job),
                task_id: Some(t.task_id),
            });
        }
        // The job's post-task drain, when migration copies outlive its
        // last task.
        profile.driver_until(jr.completed);
    }
    profile.driver_until(elapsed);
    profile
}

/// Per-tier latency scale factors for analytical repricing: the ratio of
/// perturbed to baseline effective access cost, per direction.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WhatIf {
    /// Perturbed/baseline effective read latency per tier.
    pub read_scale: [f64; NUM_TIERS],
    /// Perturbed/baseline effective write latency per tier.
    pub write_scale: [f64; NUM_TIERS],
    /// Perturbed/baseline network transfer time (1 = unchanged; 0 = "every
    /// transfer becomes node-local", the doctor's cross-rack recovery
    /// estimate). Skipped in serialized form at the identity so pre-network
    /// payloads round-trip unchanged.
    #[serde(default = "scale_one", skip_serializing_if = "is_scale_one")]
    pub net_scale: f64,
}

fn scale_one() -> f64 {
    1.0
}

#[allow(clippy::trivially_copy_pass_by_ref)]
fn is_scale_one(s: &f64) -> bool {
    *s == 1.0
}

impl WhatIf {
    /// The identity perturbation (predicts the baseline unchanged). Also
    /// what any pure-bandwidth knob (an MBA throttle level) maps to: MBA
    /// leaves access latencies untouched, so the engine predicts no
    /// first-order change for latency-bound workloads — the analytic form
    /// of the paper's Takeaway 4.
    pub fn identity() -> WhatIf {
        WhatIf {
            read_scale: [1.0; NUM_TIERS],
            write_scale: [1.0; NUM_TIERS],
            net_scale: 1.0,
        }
    }

    /// Scale factors between two memory-system configurations (ablation
    /// switches applied). Tiers whose baseline cost is zero keep scale 1.
    pub fn from_configs(base: &MemSimConfig, perturbed: &MemSimConfig) -> WhatIf {
        let mut w = WhatIf::identity();
        for t in TierId::all() {
            let b = base.effective_tier_params(t);
            let p = perturbed.effective_tier_params(t);
            if b.effective_read_ns() > 0.0 {
                w.read_scale[t.index()] = p.effective_read_ns() / b.effective_read_ns();
            }
            if b.effective_write_ns() > 0.0 {
                w.write_scale[t.index()] = p.effective_write_ns() / b.effective_write_ns();
            }
        }
        w
    }
}

/// Build the [`WhatIf`] corresponding to promoting a hotness report's `k`
/// stall-hottest objects into Tier 0 (local DRAM) — the analytic form of
/// "what would pinning the hot working set in local DRAM buy", feeding the
/// object-level attribution back into the critical-path repricing engine.
///
/// Each victim tier's read/write stall scale drops by the promoted
/// objects' share of that tier's nominal stall; Tier 0's scales grow by
/// the stall the promoted traffic adds there, repriced at Tier-0 latency
/// (each object's `stall_if_local`, scaled to the share of its stall that
/// actually moves). Components with zero baseline stall keep scale 1 —
/// there is nothing for [`reprice`] to scale, so in particular the added
/// Tier-0 stall is unrepresentable when the baseline had none, making the
/// prediction slightly optimistic for pure-NVM runs.
pub fn hotness_promotion_whatif(report: &HotnessReport, k: usize) -> WhatIf {
    let local = TierId::LOCAL_DRAM.index();
    let mut orig_read = [0.0f64; NUM_TIERS];
    let mut orig_write = [0.0f64; NUM_TIERS];
    for o in &report.objects {
        for i in 0..NUM_TIERS {
            orig_read[i] += o.tiers[i].stall_read.as_secs_f64();
            orig_write[i] += o.tiers[i].stall_write.as_secs_f64();
        }
    }
    let mut removed_read = [0.0f64; NUM_TIERS];
    let mut removed_write = [0.0f64; NUM_TIERS];
    // Tier-0 stall the promoted objects bring with them.
    let mut gained = 0.0f64;
    for o in report.top_by_stall(k) {
        let mut moved = 0.0f64;
        for i in 0..NUM_TIERS {
            if i == local {
                continue; // already-local traffic stays put
            }
            removed_read[i] += o.tiers[i].stall_read.as_secs_f64();
            removed_write[i] += o.tiers[i].stall_write.as_secs_f64();
            moved += o.tiers[i].stall().as_secs_f64();
        }
        let total = o.stall.as_secs_f64();
        if total > 0.0 {
            gained += o.stall_if_local.as_secs_f64() * (moved / total);
        }
    }
    let mut w = WhatIf::identity();
    for i in 0..NUM_TIERS {
        if orig_read[i] > 0.0 {
            w.read_scale[i] = (orig_read[i] - removed_read[i]).max(0.0) / orig_read[i];
        }
        if orig_write[i] > 0.0 {
            w.write_scale[i] = (orig_write[i] - removed_write[i]).max(0.0) / orig_write[i];
        }
    }
    // Tier 0 absorbs the repriced stall, spread proportionally over its own
    // read/write split so both scales grow by the same factor.
    let base0 = orig_read[local] + orig_write[local];
    if base0 > 0.0 {
        let grow = (base0 + gained) / base0;
        w.read_scale[local] *= grow;
        w.write_scale[local] *= grow;
    }
    w
}

/// An analytical what-if prediction over a run's critical path.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WhatIfReport {
    /// The profiled (baseline) runtime, seconds.
    pub baseline_s: f64,
    /// Predicted runtime under the perturbation, seconds.
    pub predicted_s: f64,
    /// `baseline / predicted` — above 1 is a speedup.
    pub speedup: f64,
}

/// Re-price a profiled critical path under perturbed tier parameters:
/// every per-tier read/write stall component scales by its latency ratio,
/// all other components (compute, shuffle fetch, queue, driver) are
/// unaffected. First-order: assumes the path shape and the bandwidth
/// contention stretch survive the perturbation — accurate while the tier
/// stays in the same contention regime, validated against actual re-runs
/// in `memtier-core`'s profile tests.
pub fn reprice(profile: &RunProfile, whatif: &WhatIf) -> WhatIfReport {
    let a = &profile.attribution;
    let mut delta_s = 0.0;
    for i in 0..NUM_TIERS {
        delta_s += a.mem_read[i].as_secs_f64() * (1.0 - whatif.read_scale[i]);
        delta_s += a.mem_write[i].as_secs_f64() * (1.0 - whatif.write_scale[i]);
    }
    delta_s += a.net.as_secs_f64() * (1.0 - whatif.net_scale);
    let baseline_s = profile.elapsed.as_secs_f64();
    let predicted_s = (baseline_s - delta_s).max(0.0);
    WhatIfReport {
        baseline_s,
        predicted_s,
        speedup: baseline_s / predicted_s.max(1e-12),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bd(compute_us: u64, t2_read_us: u64, t2_write_us: u64) -> TaskBreakdown {
        let mut b = TaskBreakdown {
            compute: SimTime::from_us(compute_us),
            ..TaskBreakdown::default()
        };
        b.mem_read[2] = SimTime::from_us(t2_read_us);
        b.mem_write[2] = SimTime::from_us(t2_write_us);
        b
    }

    /// Two stages: task 0 (stage 0) gates stage 1; task 1 runs stage 1 and
    /// finishes last after a queue gap; driver time pads both ends.
    fn two_stage_log() -> ProfileLog {
        ProfileLog {
            tasks: vec![
                TaskRecord {
                    task_id: 0,
                    job: 0,
                    stage: 0,
                    partition: 0,
                    started: SimTime::from_us(10),
                    end: SimTime::from_us(40),
                    breakdown: bd(10, 15, 5),
                },
                TaskRecord {
                    task_id: 1,
                    job: 0,
                    stage: 1,
                    partition: 0,
                    started: SimTime::from_us(45),
                    end: SimTime::from_us(100),
                    breakdown: bd(30, 20, 5),
                },
            ],
            stages: vec![
                StageRecord {
                    job: 0,
                    stage: 0,
                    submitted: SimTime::from_us(10),
                    activated_by: None,
                },
                StageRecord {
                    job: 0,
                    stage: 1,
                    submitted: SimTime::from_us(40),
                    activated_by: Some(0),
                },
            ],
            jobs: vec![JobRecord {
                job: 0,
                submitted: SimTime::from_us(10),
                completed: SimTime::from_us(100),
            }],
            evictions: Vec::new(),
        }
    }

    #[test]
    fn breakdown_totals() {
        let b = bd(10, 15, 5);
        assert_eq!(b.mem_total(), SimTime::from_us(20));
        assert_eq!(b.total(), SimTime::from_us(30));
    }

    #[test]
    fn path_walk_conserves_and_orders() {
        let profile = build_profile(&two_stage_log(), SimTime::from_us(120));
        assert!(profile.conserves(), "attribution must sum to elapsed");
        assert_eq!(profile.attribution.total(), SimTime::from_us(120));
        // Head driver gap (10) + tail gap (20) = 30 us of driver time.
        assert_eq!(profile.attribution.driver, SimTime::from_us(30));
        // Task 1 queued 5 us behind its stage activation.
        assert_eq!(profile.attribution.sched_queue, SimTime::from_us(5));
        assert_eq!(profile.attribution.compute, SimTime::from_us(40));
        assert_eq!(profile.attribution.mem_read[2], SimTime::from_us(35));
        assert_eq!(profile.attribution.mem_write[2], SimTime::from_us(10));
        assert_eq!(profile.critical_tasks(), vec![(0, 0), (0, 1)]);
        // Segments tile [0, elapsed] with no gaps or overlaps.
        let mut cursor = SimTime::ZERO;
        for s in &profile.segments {
            assert_eq!(s.start, cursor, "segments must abut");
            assert!(s.end > s.start);
            cursor = s.end;
        }
        assert_eq!(cursor, SimTime::from_us(120));
    }

    #[test]
    fn named_seconds_covers_every_component() {
        let profile = build_profile(&two_stage_log(), SimTime::from_us(120));
        let named = profile.attribution.named_seconds();
        assert_eq!(named.len(), 4 + 2 * NUM_TIERS);
        let total: f64 = named.iter().map(|(_, v)| v).sum();
        assert!((total - 120e-6).abs() < 1e-12);
    }

    #[test]
    fn reprice_scales_only_memory_components() {
        let profile = build_profile(&two_stage_log(), SimTime::from_us(120));
        // Halve tier-2 write latency: 10 us of tier2_write becomes 5.
        let mut w = WhatIf::identity();
        w.write_scale[2] = 0.5;
        let r = reprice(&profile, &w);
        assert!((r.baseline_s - 120e-6).abs() < 1e-12);
        assert!((r.predicted_s - 115e-6).abs() < 1e-12);
        assert!(r.speedup > 1.0);
        // The identity what-if predicts no change (the MBA statement).
        let same = reprice(&profile, &WhatIf::identity());
        assert_eq!(same.baseline_s, same.predicted_s);
    }

    #[test]
    fn promotion_whatif_moves_stall_toward_tier0() {
        use memtier_memsim::{AccessBatch, AttributionLedger, ObjectId, TierParams};
        let params = TierId::all().map(TierParams::paper_default);
        let mut ledger = AttributionLedger::new();
        // Hot object on NVM_NEAR; cold scratch already on LOCAL_DRAM.
        ledger.record(
            SimTime::ZERO,
            TierId::NVM_NEAR,
            ObjectId::CacheBlock { rdd: 1 },
            &AccessBatch::random_reads(10_000),
            &params[TierId::NVM_NEAR.index()],
        );
        ledger.record(
            SimTime::ZERO,
            TierId::LOCAL_DRAM,
            ObjectId::Scratch,
            &AccessBatch::random_reads(1_000),
            &params[TierId::LOCAL_DRAM.index()],
        );
        let report = ledger.report(&params);
        let w = hotness_promotion_whatif(&report, 1);
        // The hot object's NVM stall disappears entirely (it was the only
        // object on that tier)...
        assert!(w.read_scale[TierId::NVM_NEAR.index()].abs() < 1e-12);
        // ...and tier 0 absorbs its repriced cost.
        assert!(w.read_scale[TierId::LOCAL_DRAM.index()] > 1.0);
        // Untouched tiers keep the identity scale.
        assert!((w.read_scale[TierId::REMOTE_DRAM.index()] - 1.0).abs() < 1e-12);
        // Promoting nothing is the identity perturbation.
        assert_eq!(hotness_promotion_whatif(&report, 0), WhatIf::identity());
    }

    #[test]
    fn whatif_from_configs() {
        let base = MemSimConfig::paper_default();
        let mut fast = base.clone();
        fast.tiers[TierId::NVM_NEAR.index()].idle_write_latency_ns /= 2.0;
        let w = WhatIf::from_configs(&base, &fast);
        assert!((w.write_scale[TierId::NVM_NEAR.index()] - 0.5).abs() < 1e-12);
        assert_eq!(w.read_scale, [1.0; NUM_TIERS]);
        for i in [0usize, 1, 3] {
            assert!((w.write_scale[i] - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn empty_log_is_all_driver() {
        let profile = build_profile(&ProfileLog::default(), SimTime::from_ms(3));
        assert!(profile.conserves());
        assert_eq!(profile.attribution.driver, SimTime::from_ms(3));
        assert_eq!(profile.segments.len(), 1);
        assert!(profile.critical_tasks().is_empty());
    }

    #[test]
    fn profile_json_round_trips() {
        let profile = build_profile(&two_stage_log(), SimTime::from_us(120));
        let json = serde_json::to_string(&profile).unwrap();
        let back: RunProfile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, profile);
    }

    #[test]
    fn net_component_is_optional_and_skipped_at_zero() {
        // Zero net serializes exactly like the pre-network breakdown...
        let b = bd(10, 15, 5);
        let json = serde_json::to_string(&b).unwrap();
        assert!(!json.contains("net"), "zero net must be skipped: {json}");
        // ...and pre-network payloads deserialize with net = 0 / scale 1.
        let mut v = serde_json::to_value(&b).unwrap();
        v.as_object_mut().unwrap().remove("net");
        let back: TaskBreakdown = serde_json::from_value(v).unwrap();
        assert!(back.net.is_zero());
        let mut w = serde_json::to_value(WhatIf::identity()).unwrap();
        w.as_object_mut().unwrap().remove("net_scale");
        let back: WhatIf = serde_json::from_value(w).unwrap();
        assert_eq!(back, WhatIf::identity());
    }

    #[test]
    fn reprice_scales_net_component() {
        let mut log = two_stage_log();
        // Give the path's last task 10 us of network stall (grown span so
        // the breakdown still conserves).
        log.tasks[1].breakdown.net = SimTime::from_us(10);
        log.tasks[1].end += SimTime::from_us(10);
        log.jobs[0].completed += SimTime::from_us(10);
        let profile = build_profile(&log, SimTime::from_us(130));
        assert!(profile.conserves());
        assert_eq!(profile.attribution.net, SimTime::from_us(10));
        let named = profile.attribution.named_seconds();
        assert_eq!(named.last().unwrap().0, "net");
        // "Make it node-local" removes the whole net component.
        let mut w = WhatIf::identity();
        w.net_scale = 0.0;
        let r = reprice(&profile, &w);
        assert!((r.predicted_s - 120e-6).abs() < 1e-12);
    }
}
