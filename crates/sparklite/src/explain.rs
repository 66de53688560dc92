//! Regression explainer: hierarchical run-diff attribution.
//!
//! The zero-tolerance `compare` gate answers *which* scenario's virtual
//! runtime drifted; this module answers *why*. Every run already carries an
//! exact-integer decomposition of its runtime — the critical-path profile
//! ([`RunProfile`], conserving in integer picoseconds), the per-object ×
//! per-tier attribution ledger ([`HotnessReport`], conserving against the
//! machine counters), the migration rollup ([`MigrationStats`]) and the
//! fault/recovery rollup ([`RecoveryStats`]). [`build_digest`] condenses all
//! of them into a compact [`RunDigest`] carried on every
//! [`RunReport`](crate::context::RunReport), and [`explain`] diffs two
//! digests of the same scenario into an [`ExplainReport`]: the end-to-end
//! virtual-runtime delta attributed down a hierarchy of
//!
//! 1. **phases** — the critical-path components (compute, shuffle fetch,
//!    scheduler queue, driver, per-tier read/write stall);
//! 2. **stages** — the same components sliced per `(job, stage)` along the
//!    critical path, plus a `driver` bucket;
//! 3. **objects** — per-object × per-tier nominal-stall and traffic deltas
//!    (a *side* decomposition: it conserves the total nominal-stall delta,
//!    not the runtime delta — stall off the critical path is invisible to
//!    the end-to-end time);
//! 4. **migration and fault waste** — what the placement engine and the
//!    recovery machinery did differently.
//!
//! The central invariant is the same **conservation** discipline as the
//! decompositions it diffs: at the phase level and again at the stage
//! level, attributed deltas sum to the end-to-end delta in exact integer
//! picoseconds ([`ExplainReport::conserves`]), and explaining a run against
//! itself yields an all-zero report that serializes byte-identically across
//! regenerations. On top of the exact hierarchy sits a ranked top-k
//! **contributors** view ([`ExplainReport::render`], a
//! [`memtier_metrics::AsciiTable`] narrative) — the table CI prints when a
//! gate trips, so red CI is self-diagnosing instead of a manual bisect
//! through Perfetto traces.

use crate::faultsim::RecoveryStats;
use crate::profile::{Attribution, ProfileLog, RunProfile, SegmentKind};
use memtier_des::SimTime;
use memtier_memsim::{HotnessReport, MigrationStats, ObjectId, NUM_TIERS};
use memtier_metrics::table::{pct_of_ps, signed_seconds};
use memtier_metrics::AsciiTable;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One executed stage's slice of the critical path: the time the path spent
/// inside the stage, decomposed into the same components as the global
/// [`Attribution`] (the `driver` component is always zero here — driver
/// time belongs to no stage).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageSlice {
    /// Owning job (context-wide sequence number).
    pub job: u64,
    /// Stage id within the job's plan.
    pub stage: u32,
    /// Critical-path components inside this stage.
    pub phases: Attribution,
}

impl StageSlice {
    /// Display key, e.g. `job0/stage2`.
    pub fn key(&self) -> String {
        format!("job{}/stage{}", self.job, self.stage)
    }
}

/// One object's compact footprint in a digest: per-tier bytes moved and
/// nominal stall, in exact integers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectDigest {
    /// The object.
    pub object: ObjectId,
    /// `object.label()`, denormalized for JSON consumers.
    pub label: String,
    /// Bytes moved per tier (reads + writes), indexed by `TierId::index()`.
    pub bytes: [u64; NUM_TIERS],
    /// Nominal stall per tier (read + write), integer picoseconds.
    pub stall: [SimTime; NUM_TIERS],
}

impl ObjectDigest {
    /// Total bytes across tiers.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Total nominal stall across tiers.
    pub fn total_stall(&self) -> SimTime {
        self.stall.iter().copied().sum()
    }
}

/// A compact, conserved decomposition of one run — everything the explainer
/// needs to attribute a runtime delta, in exact integers, small enough to
/// ride on every `BENCH_*` baseline row.
///
/// Invariants (inherited from the decompositions it condenses, checked by
/// [`RunDigest::conserves`]):
/// * `phases` sums to `elapsed` in integer picoseconds;
/// * the stage slices plus `phases.driver` sum to `elapsed`, component by
///   component;
/// * `objects` partitions the run's total nominal memory stall.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunDigest {
    /// End-to-end virtual runtime the digest accounts for.
    pub elapsed: SimTime,
    /// Global critical-path component rollup (conserves to `elapsed`).
    pub phases: Attribution,
    /// Per-stage slices of the critical path, sorted by `(job, stage)`.
    pub stages: Vec<StageSlice>,
    /// Per-object footprint, in the ledger's deterministic `ObjectId` order.
    pub objects: Vec<ObjectDigest>,
    /// What the placement engine did (all zeros under static placement).
    pub migration: MigrationStats,
    /// What the recovery machinery did (quiet without a fault plan).
    pub recovery: RecoveryStats,
}

impl RunDigest {
    /// Total nominal stall across all objects and tiers.
    pub fn total_stall(&self) -> SimTime {
        self.objects.iter().map(ObjectDigest::total_stall).sum()
    }

    /// True iff the digest's own conservation invariants hold: phases sum
    /// to `elapsed`, and the stage slices plus the driver component re-sum
    /// to the global phase rollup component by component.
    pub fn conserves(&self) -> bool {
        if self.phases.total() != self.elapsed {
            return false;
        }
        let mut resum = Attribution {
            driver: self.phases.driver,
            ..Attribution::default()
        };
        for s in &self.stages {
            if !s.phases.driver.is_zero() {
                return false; // driver time belongs to no stage
            }
            resum.compute += s.phases.compute;
            resum.shuffle_fetch += s.phases.shuffle_fetch;
            resum.sched_queue += s.phases.sched_queue;
            resum.net += s.phases.net;
            for i in 0..NUM_TIERS {
                resum.mem_read[i] += s.phases.mem_read[i];
                resum.mem_write[i] += s.phases.mem_write[i];
            }
        }
        resum == self.phases
    }
}

/// Condense one run's conserved decompositions into a [`RunDigest`].
///
/// The per-stage slices are re-derived from the critical path: every task
/// segment contributes its [`TaskBreakdown`](crate::TaskBreakdown) to its
/// stage, every queue segment contributes its gap to the gated task's
/// stage, and driver segments stay global. Because the path segments tile
/// `[0, elapsed]` and each breakdown conserves its span, the slices plus
/// driver time re-sum to `elapsed` exactly.
pub fn build_digest(
    profile: &RunProfile,
    log: &ProfileLog,
    hotness: &HotnessReport,
    migration: MigrationStats,
    recovery: RecoveryStats,
) -> RunDigest {
    let by_id: BTreeMap<(u64, u64), &crate::profile::TaskRecord> =
        log.tasks.iter().map(|t| ((t.job, t.task_id), t)).collect();
    let mut stages: BTreeMap<(u64, u32), Attribution> = BTreeMap::new();
    for seg in &profile.segments {
        let (Some(job), Some(task_id)) = (seg.job, seg.task_id) else {
            continue; // driver segment — accounted globally
        };
        let task = by_id
            .get(&(job, task_id))
            .expect("critical-path segment references an unrecorded task");
        let slot = stages.entry((task.job, task.stage)).or_default();
        match seg.kind {
            SegmentKind::Task => slot.add_breakdown(&task.breakdown),
            SegmentKind::Queue => slot.sched_queue += seg.duration(),
            SegmentKind::Driver => unreachable!("driver segments carry no task"),
        }
    }
    RunDigest {
        elapsed: profile.elapsed,
        phases: profile.attribution,
        stages: stages
            .into_iter()
            .map(|((job, stage), phases)| StageSlice { job, stage, phases })
            .collect(),
        objects: hotness
            .objects
            .iter()
            .map(|o| ObjectDigest {
                object: o.object,
                label: o.label.clone(),
                bytes: std::array::from_fn(|i| o.tiers[i].bytes()),
                stall: std::array::from_fn(|i| o.tiers[i].stall()),
            })
            .collect(),
        migration,
        recovery,
    }
}

/// Signed picosecond difference of two instants (`candidate − baseline`).
fn delta_ps(baseline: SimTime, candidate: SimTime) -> i64 {
    candidate.0 as i64 - baseline.0 as i64
}

/// One named component's baseline/candidate/delta triple. The atom of every
/// level of the explain hierarchy.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeltaRow {
    /// Component name (phase names follow [`Attribution::named_seconds`]).
    pub name: String,
    /// Baseline value, integer picoseconds.
    pub baseline: SimTime,
    /// Candidate value, integer picoseconds.
    pub candidate: SimTime,
    /// `candidate − baseline`, signed picoseconds.
    pub delta_ps: i64,
}

impl DeltaRow {
    fn new(name: String, baseline: SimTime, candidate: SimTime) -> DeltaRow {
        DeltaRow {
            name,
            baseline,
            candidate,
            delta_ps: delta_ps(baseline, candidate),
        }
    }
}

/// One stage's slice of the runtime delta, with its per-phase breakdown.
/// The synthetic `driver` row (job/stage `None`) absorbs driver time so the
/// stage level re-sums to the total exactly.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageDelta {
    /// Display key (`job0/stage2`, or `driver` for the synthetic row).
    pub key: String,
    /// Owning job (`None` for the driver row).
    pub job: Option<u64>,
    /// Stage id (`None` for the driver row).
    pub stage: Option<u32>,
    /// Critical-path time inside the stage, baseline.
    pub baseline: SimTime,
    /// Critical-path time inside the stage, candidate.
    pub candidate: SimTime,
    /// `candidate − baseline`, signed picoseconds.
    pub delta_ps: i64,
    /// Per-phase rows (components that are zero on both sides are elided).
    pub phases: Vec<DeltaRow>,
}

/// One object's contribution to the nominal-stall delta.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObjectDelta {
    /// The object.
    pub object: ObjectId,
    /// Human-readable label.
    pub label: String,
    /// Total bytes moved, baseline.
    pub baseline_bytes: u64,
    /// Total bytes moved, candidate.
    pub candidate_bytes: u64,
    /// `candidate − baseline` bytes, signed.
    pub delta_bytes: i64,
    /// Total nominal stall, baseline.
    pub baseline_stall: SimTime,
    /// Total nominal stall, candidate.
    pub candidate_stall: SimTime,
    /// `candidate − baseline` stall, signed picoseconds.
    pub delta_stall_ps: i64,
    /// Per-tier stall delta, signed picoseconds.
    pub tier_stall_delta_ps: [i64; NUM_TIERS],
}

/// One ranked leaf contributor to the runtime delta: a `(stage, phase)`
/// cell of the conserving hierarchy. Summed over all contributors (zero
/// rows included — they are elided from the report but contribute nothing),
/// the deltas equal the end-to-end delta exactly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Contributor {
    /// Where on the path (`job0/stage2`, or `driver`).
    pub scope: String,
    /// Which component (`compute`, `tier2_write`, `sched_queue`, ...).
    pub component: String,
    /// `candidate − baseline`, signed picoseconds.
    pub delta_ps: i64,
    /// Share of the total delta (signed; 0 when the total delta is zero).
    pub share: f64,
}

/// Migration-activity diff between two runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct MigrationDelta {
    /// Baseline rollup.
    pub baseline: MigrationStats,
    /// Candidate rollup.
    pub candidate: MigrationStats,
    /// `candidate − baseline` migrations, signed.
    pub delta_migrations: i64,
    /// `candidate − baseline` bytes copied, signed.
    pub delta_bytes_moved: i64,
}

impl MigrationDelta {
    fn new(baseline: MigrationStats, candidate: MigrationStats) -> MigrationDelta {
        MigrationDelta {
            baseline,
            candidate,
            delta_migrations: candidate.migrations as i64 - baseline.migrations as i64,
            delta_bytes_moved: candidate.bytes_moved as i64 - baseline.bytes_moved as i64,
        }
    }

    /// Whether both sides were migration-free and equal.
    pub fn is_zero(&self) -> bool {
        self.baseline == self.candidate
    }
}

/// Fault/recovery-waste diff between two runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryDelta {
    /// Baseline rollup.
    pub baseline: RecoveryStats,
    /// Candidate rollup.
    pub candidate: RecoveryStats,
    /// `candidate − baseline` wasted virtual time, signed picoseconds.
    pub delta_wasted_ps: i64,
    /// `candidate − baseline` useful virtual time, signed picoseconds.
    pub delta_useful_ps: i64,
    /// `candidate − baseline` injected failures (task + fetch + crash).
    pub delta_failures: i64,
    /// `candidate − baseline` retry attempts.
    pub delta_retries: i64,
}

impl RecoveryDelta {
    fn new(baseline: RecoveryStats, candidate: RecoveryStats) -> RecoveryDelta {
        let failures = |r: &RecoveryStats| r.task_failures + r.fetch_failures + r.executor_crashes;
        RecoveryDelta {
            baseline,
            candidate,
            delta_wasted_ps: delta_ps(baseline.wasted_time, candidate.wasted_time),
            delta_useful_ps: delta_ps(baseline.useful_time, candidate.useful_time),
            delta_failures: failures(&candidate) as i64 - failures(&baseline) as i64,
            delta_retries: candidate.retries as i64 - baseline.retries as i64,
        }
    }

    /// Whether both sides saw identical recovery activity.
    pub fn is_zero(&self) -> bool {
        self.baseline == self.candidate
    }
}

/// The explainer's product: a hierarchical, conserved diff of two
/// [`RunDigest`]s of the same scenario. See the module docs for the levels
/// and their conservation rules.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExplainReport {
    /// Baseline end-to-end virtual runtime.
    pub baseline_elapsed: SimTime,
    /// Candidate end-to-end virtual runtime.
    pub candidate_elapsed: SimTime,
    /// `candidate − baseline`, signed picoseconds — the quantity every
    /// conserving level of the hierarchy re-sums to exactly.
    pub delta_ps: i64,
    /// Level 1: critical-path phase deltas, in the fixed
    /// [`Attribution::named_seconds`] order. Sums to `delta_ps` exactly.
    pub phases: Vec<DeltaRow>,
    /// Level 2: per-stage deltas (plus the synthetic `driver` row), sorted
    /// by `(job, stage)` with `driver` last. Sums to `delta_ps` exactly.
    pub stages: Vec<StageDelta>,
    /// Side decomposition: per-object nominal-stall deltas, ranked by
    /// `|delta_stall_ps|` descending (object id breaks ties). Sums to
    /// `stall_delta_ps` exactly — *not* to `delta_ps`: stall off the
    /// critical path does not move the end-to-end time.
    pub objects: Vec<ObjectDelta>,
    /// Total nominal-stall delta the object rows partition.
    pub stall_delta_ps: i64,
    /// Migration-traffic diff.
    pub migration: MigrationDelta,
    /// Fault/recovery-waste diff.
    pub recovery: RecoveryDelta,
    /// Ranked leaf contributors (nonzero `(stage, phase)` cells), by
    /// `|delta_ps|` descending, ties broken by `(scope, component)`.
    pub contributors: Vec<Contributor>,
}

impl ExplainReport {
    /// True iff every conserving level re-sums to the end-to-end delta in
    /// exact integer picoseconds, and the object rows re-sum to the total
    /// nominal-stall delta.
    pub fn conserves(&self) -> bool {
        let phase_sum: i64 = self.phases.iter().map(|r| r.delta_ps).sum();
        let stage_sum: i64 = self.stages.iter().map(|r| r.delta_ps).sum();
        let contrib_sum: i64 = self.contributors.iter().map(|c| c.delta_ps).sum();
        let object_sum: i64 = self.objects.iter().map(|o| o.delta_stall_ps).sum();
        phase_sum == self.delta_ps
            && stage_sum == self.delta_ps
            && contrib_sum == self.delta_ps
            && object_sum == self.stall_delta_ps
    }

    /// True iff nothing moved: the runtime delta, every attributed delta,
    /// and the migration/recovery diffs are all zero.
    pub fn is_zero(&self) -> bool {
        self.delta_ps == 0
            && self.stall_delta_ps == 0
            && self.contributors.is_empty()
            && self.phases.iter().all(|r| r.delta_ps == 0)
            && self.stages.iter().all(|s| s.delta_ps == 0)
            && self
                .objects
                .iter()
                .all(|o| o.delta_stall_ps == 0 && o.delta_bytes == 0)
            && self.migration.is_zero()
            && self.recovery.is_zero()
    }

    /// The `k` largest leaf contributors by `|delta_ps|`.
    pub fn top_contributors(&self, k: usize) -> &[Contributor] {
        &self.contributors[..k.min(self.contributors.len())]
    }

    /// Render the ranked narrative: a headline, the top-`k` contributor
    /// table, the top object movers, and one-line migration/recovery notes
    /// when they moved. This is what `compare --explain` prints on a gate
    /// breach.
    pub fn render(&self, k: usize) -> String {
        let sign_s = signed_seconds;
        let mut out = format!(
            "runtime {:.6}s -> {:.6}s ({}, {})\n",
            self.baseline_elapsed.as_secs_f64(),
            self.candidate_elapsed.as_secs_f64(),
            sign_s(self.delta_ps),
            pct_of_ps(self.delta_ps, self.baseline_elapsed.0)
        );
        if self.contributors.is_empty() {
            out.push_str("no contributor moved: the critical paths are identical\n");
        } else {
            let mut t = AsciiTable::new(vec!["#", "where", "component", "delta", "share"])
                .title("Top contributors (stage x phase cells of the conserved delta)");
            for (i, c) in self.top_contributors(k).iter().enumerate() {
                t.row(vec![
                    format!("{}", i + 1),
                    c.scope.clone(),
                    c.component.clone(),
                    sign_s(c.delta_ps),
                    format!("{:+.1}%", c.share * 100.0),
                ]);
            }
            out.push_str(&t.render());
        }
        let movers: Vec<&ObjectDelta> = self
            .objects
            .iter()
            .filter(|o| o.delta_stall_ps != 0 || o.delta_bytes != 0)
            .take(k)
            .collect();
        if !movers.is_empty() {
            let mut t = AsciiTable::new(vec!["object", "stall delta", "bytes delta"])
                .title("Object movers (nominal stall, all tiers; side decomposition)");
            for o in movers {
                t.row(vec![
                    o.label.clone(),
                    sign_s(o.delta_stall_ps),
                    format!("{:+}", o.delta_bytes),
                ]);
            }
            out.push('\n');
            out.push_str(&t.render());
        }
        if !self.migration.is_zero() {
            out.push_str(&format!(
                "\nmigration: {:+} migrations, {:+} bytes moved\n",
                self.migration.delta_migrations, self.migration.delta_bytes_moved
            ));
        }
        if !self.recovery.is_zero() {
            out.push_str(&format!(
                "\nfault waste: wasted {} / useful {}, {:+} failures, {:+} retries\n",
                sign_s(self.recovery.delta_wasted_ps),
                sign_s(self.recovery.delta_useful_ps),
                self.recovery.delta_failures,
                self.recovery.delta_retries
            ));
        }
        out
    }
}

/// Phase-level delta rows between two attributions, in the fixed component
/// order (every component is kept, zero or not, so the level always sums
/// to the total delta).
fn phase_rows(a: &Attribution, b: &Attribution) -> Vec<DeltaRow> {
    a.named_ps()
        .into_iter()
        .zip(b.named_ps())
        .map(|((name, av), (_, bv))| DeltaRow::new(name, av, bv))
        .collect()
}

/// Diff two digests of the same scenario into an [`ExplainReport`].
///
/// Stages and objects are joined on their identity (`(job, stage)` /
/// [`ObjectId`]); one present on only one side diffs against zero, so a
/// changed plan shape (an extra stage, a new object) is attributed rather
/// than dropped. The output is a pure function of the two digests — every
/// ordering is deterministic, so the same pair explains to byte-identical
/// JSON on every regeneration.
pub fn explain(baseline: &RunDigest, candidate: &RunDigest) -> ExplainReport {
    let total = delta_ps(baseline.elapsed, candidate.elapsed);

    // Level 1: phases.
    let phases = phase_rows(&baseline.phases, &candidate.phases);

    // Level 2: stages, joined on (job, stage), driver bucket last.
    let mut keys: std::collections::BTreeSet<(u64, u32)> = std::collections::BTreeSet::new();
    let slice_map = |d: &RunDigest| -> BTreeMap<(u64, u32), Attribution> {
        d.stages
            .iter()
            .map(|s| ((s.job, s.stage), s.phases))
            .collect()
    };
    let (ba, ca) = (slice_map(baseline), slice_map(candidate));
    keys.extend(ba.keys());
    keys.extend(ca.keys());
    let zero = Attribution::default();
    let mut stages: Vec<StageDelta> = Vec::new();
    let mut contributors: Vec<Contributor> = Vec::new();
    for (job, stage) in keys {
        let a = ba.get(&(job, stage)).unwrap_or(&zero);
        let b = ca.get(&(job, stage)).unwrap_or(&zero);
        let key = format!("job{job}/stage{stage}");
        let rows: Vec<DeltaRow> = phase_rows(a, b)
            .into_iter()
            .filter(|r| !(r.baseline.is_zero() && r.candidate.is_zero()))
            .collect();
        for r in &rows {
            if r.delta_ps != 0 {
                contributors.push(Contributor {
                    scope: key.clone(),
                    component: r.name.clone(),
                    delta_ps: r.delta_ps,
                    share: share_of(r.delta_ps, total),
                });
            }
        }
        stages.push(StageDelta {
            key,
            job: Some(job),
            stage: Some(stage),
            baseline: a.total(),
            candidate: b.total(),
            delta_ps: delta_ps(a.total(), b.total()),
            phases: rows,
        });
    }
    let driver = StageDelta {
        key: "driver".to_string(),
        job: None,
        stage: None,
        baseline: baseline.phases.driver,
        candidate: candidate.phases.driver,
        delta_ps: delta_ps(baseline.phases.driver, candidate.phases.driver),
        phases: vec![DeltaRow::new(
            "driver".to_string(),
            baseline.phases.driver,
            candidate.phases.driver,
        )],
    };
    if driver.delta_ps != 0 {
        contributors.push(Contributor {
            scope: "driver".to_string(),
            component: "driver".to_string(),
            delta_ps: driver.delta_ps,
            share: share_of(driver.delta_ps, total),
        });
    }
    stages.push(driver);
    contributors.sort_by(|x, y| {
        y.delta_ps
            .abs()
            .cmp(&x.delta_ps.abs())
            .then_with(|| x.scope.cmp(&y.scope))
            .then_with(|| x.component.cmp(&y.component))
    });

    // Side decomposition: objects, joined on ObjectId.
    // A nested fn, not a closure: the map borrows from its argument, and only
    // a fn signature elides that lifetime.
    fn obj_map(d: &RunDigest) -> BTreeMap<ObjectId, &ObjectDigest> {
        d.objects.iter().map(|o| (o.object, o)).collect()
    }
    let (bo, co) = (obj_map(baseline), obj_map(candidate));
    let mut ids: std::collections::BTreeSet<ObjectId> = std::collections::BTreeSet::new();
    ids.extend(bo.keys());
    ids.extend(co.keys());
    let side = |m: &BTreeMap<ObjectId, &ObjectDigest>,
                id: ObjectId|
     -> ([u64; NUM_TIERS], [SimTime; NUM_TIERS]) {
        match m.get(&id) {
            Some(o) => (o.bytes, o.stall),
            None => ([0; NUM_TIERS], [SimTime::ZERO; NUM_TIERS]),
        }
    };
    let mut objects: Vec<ObjectDelta> = ids
        .into_iter()
        .map(|id| {
            let (ab, asl) = side(&bo, id);
            let (cb, csl) = side(&co, id);
            let b_stall: SimTime = asl.iter().copied().sum();
            let c_stall: SimTime = csl.iter().copied().sum();
            ObjectDelta {
                object: id,
                label: id.label(),
                baseline_bytes: ab.iter().sum(),
                candidate_bytes: cb.iter().sum(),
                delta_bytes: cb.iter().sum::<u64>() as i64 - ab.iter().sum::<u64>() as i64,
                baseline_stall: b_stall,
                candidate_stall: c_stall,
                delta_stall_ps: delta_ps(b_stall, c_stall),
                tier_stall_delta_ps: std::array::from_fn(|i| delta_ps(asl[i], csl[i])),
            }
        })
        .collect();
    objects.sort_by(|x, y| {
        y.delta_stall_ps
            .abs()
            .cmp(&x.delta_stall_ps.abs())
            .then_with(|| x.object.cmp(&y.object))
    });
    let stall_delta = delta_ps(baseline.total_stall(), candidate.total_stall());

    let report = ExplainReport {
        baseline_elapsed: baseline.elapsed,
        candidate_elapsed: candidate.elapsed,
        delta_ps: total,
        phases,
        stages,
        objects,
        stall_delta_ps: stall_delta,
        migration: MigrationDelta::new(baseline.migration, candidate.migration),
        recovery: RecoveryDelta::new(baseline.recovery, candidate.recovery),
        contributors,
    };
    debug_assert!(
        report.conserves(),
        "explain must conserve by construction over conserving digests"
    );
    report
}

fn share_of(delta: i64, total: i64) -> f64 {
    if total == 0 {
        0.0
    } else {
        delta as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::{build_profile, JobRecord, StageRecord, TaskBreakdown, TaskRecord};

    fn breakdown(compute_us: u64, t2_read_us: u64, t2_write_us: u64) -> TaskBreakdown {
        let mut b = TaskBreakdown {
            compute: SimTime::from_us(compute_us),
            ..TaskBreakdown::default()
        };
        b.mem_read[2] = SimTime::from_us(t2_read_us);
        b.mem_write[2] = SimTime::from_us(t2_write_us);
        b
    }

    /// Two stages; task 0 gates stage 1's task 1; queue gap + driver pads.
    fn log(compute1_us: u64) -> ProfileLog {
        ProfileLog {
            tasks: vec![
                TaskRecord {
                    task_id: 0,
                    job: 0,
                    stage: 0,
                    partition: 0,
                    started: SimTime::from_us(10),
                    end: SimTime::from_us(40),
                    breakdown: breakdown(10, 15, 5),
                },
                TaskRecord {
                    task_id: 1,
                    job: 0,
                    stage: 1,
                    partition: 0,
                    started: SimTime::from_us(45),
                    end: SimTime::from_us(45 + compute1_us + 25),
                    breakdown: breakdown(compute1_us, 20, 5),
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
                completed: SimTime::from_us(45 + compute1_us + 25),
            }],
            evictions: Vec::new(),
        }
    }

    fn digest(compute1_us: u64) -> RunDigest {
        let l = log(compute1_us);
        let elapsed = SimTime::from_us(45 + compute1_us + 25 + 20);
        let profile = build_profile(&l, elapsed);
        build_digest(
            &profile,
            &l,
            &HotnessReport::default(),
            MigrationStats::default(),
            RecoveryStats::default(),
        )
    }

    #[test]
    fn digest_slices_the_path_per_stage_and_conserves() {
        let d = digest(30);
        assert!(d.conserves());
        assert_eq!(d.stages.len(), 2);
        assert_eq!((d.stages[0].job, d.stages[0].stage), (0, 0));
        assert_eq!(d.stages[0].phases.compute, SimTime::from_us(10));
        assert!(d.stages[0].phases.sched_queue.is_zero());
        // Stage 1 carries the 5 us queue gap behind its activation.
        assert_eq!(d.stages[1].phases.sched_queue, SimTime::from_us(5));
        assert_eq!(d.stages[1].phases.compute, SimTime::from_us(30));
        let stage_sum: SimTime = d.stages.iter().map(|s| s.phases.total()).sum();
        assert_eq!(stage_sum + d.phases.driver, d.elapsed);
    }

    #[test]
    fn self_explain_is_zero_and_conserves() {
        let d = digest(30);
        let r = explain(&d, &d);
        assert!(r.conserves());
        assert!(r.is_zero());
        assert_eq!(r.delta_ps, 0);
        assert!(r.contributors.is_empty());
        // Byte-identical across regenerations.
        let j1 = serde_json::to_string(&explain(&d, &d)).unwrap();
        let j2 = serde_json::to_string(&explain(&d, &d)).unwrap();
        assert_eq!(j1, j2);
        assert!(r.render(5).contains("identical"));
    }

    #[test]
    fn explain_attributes_a_compute_regression_to_its_stage() {
        let a = digest(30);
        let b = digest(50); // stage 1's compute grew by 20 us
        let r = explain(&a, &b);
        assert!(r.conserves());
        assert!(!r.is_zero());
        assert_eq!(r.delta_ps, delta_ps(a.elapsed, b.elapsed));
        assert_eq!(r.delta_ps, SimTime::from_us(20).0 as i64);
        // The single nonzero contributor is stage 1's compute, share 100%.
        assert_eq!(r.contributors.len(), 1);
        let c = &r.contributors[0];
        assert_eq!(
            (c.scope.as_str(), c.component.as_str()),
            ("job0/stage1", "compute")
        );
        assert_eq!(c.delta_ps, SimTime::from_us(20).0 as i64);
        assert!((c.share - 1.0).abs() < 1e-12);
        // The phase level agrees.
        let compute = r.phases.iter().find(|p| p.name == "compute").unwrap();
        assert_eq!(compute.delta_ps, r.delta_ps);
        // Rendering mentions the culprit.
        let text = r.render(3);
        assert!(text.contains("job0/stage1"));
        assert!(text.contains("compute"));
    }

    #[test]
    fn stage_join_handles_one_sided_stages() {
        let a = digest(30);
        let mut b = digest(30);
        // Candidate grew an extra stage worth 7 us of compute.
        let extra = StageSlice {
            job: 0,
            stage: 2,
            phases: Attribution {
                compute: SimTime::from_us(7),
                ..Attribution::default()
            },
        };
        b.stages.push(extra);
        b.phases.compute += SimTime::from_us(7);
        b.elapsed += SimTime::from_us(7);
        assert!(b.conserves());
        let r = explain(&a, &b);
        assert!(r.conserves());
        let row = r.stages.iter().find(|s| s.key == "job0/stage2").unwrap();
        assert_eq!(row.baseline, SimTime::ZERO);
        assert_eq!(row.delta_ps, SimTime::from_us(7).0 as i64);
    }

    #[test]
    fn object_deltas_partition_the_stall_delta() {
        let mk = |stall_us: u64, bytes: u64| -> RunDigest {
            let mut d = digest(30);
            let mut stall = [SimTime::ZERO; NUM_TIERS];
            stall[2] = SimTime::from_us(stall_us);
            let mut tier_bytes = [0u64; NUM_TIERS];
            tier_bytes[2] = bytes;
            d.objects = vec![
                ObjectDigest {
                    object: ObjectId::Scratch,
                    label: ObjectId::Scratch.label(),
                    bytes: tier_bytes,
                    stall,
                },
                ObjectDigest {
                    object: ObjectId::Broadcast,
                    label: ObjectId::Broadcast.label(),
                    bytes: [1; NUM_TIERS],
                    stall: [SimTime::from_ns(1); NUM_TIERS],
                },
            ];
            d
        };
        let a = mk(100, 1000);
        let b = mk(150, 1600);
        let r = explain(&a, &b);
        assert!(r.conserves());
        assert_eq!(r.stall_delta_ps, SimTime::from_us(50).0 as i64);
        let sum: i64 = r.objects.iter().map(|o| o.delta_stall_ps).sum();
        assert_eq!(sum, r.stall_delta_ps);
        // Scratch moved; broadcast did not; ranking puts the mover first.
        assert_eq!(r.objects[0].object, ObjectId::Scratch);
        assert_eq!(r.objects[0].delta_bytes, 600);
        assert_eq!(r.objects[1].delta_stall_ps, 0);
    }

    #[test]
    fn recovery_and_migration_deltas_surface() {
        let a = digest(30);
        let mut b = digest(30);
        b.recovery.task_failures = 3;
        b.recovery.retries = 3;
        b.recovery.wasted_time = SimTime::from_us(9);
        b.migration.migrations = 2;
        b.migration.bytes_moved = 4096;
        let r = explain(&a, &b);
        assert_eq!(r.recovery.delta_failures, 3);
        assert_eq!(r.recovery.delta_wasted_ps, SimTime::from_us(9).0 as i64);
        assert!(!r.recovery.is_zero());
        assert_eq!(r.migration.delta_bytes_moved, 4096);
        let text = r.render(3);
        assert!(text.contains("fault waste"));
        assert!(text.contains("migration"));
    }

    #[test]
    fn report_json_round_trips() {
        let r = explain(&digest(30), &digest(44));
        let json = serde_json::to_string(&r).unwrap();
        let back: ExplainReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, r);
    }
}
