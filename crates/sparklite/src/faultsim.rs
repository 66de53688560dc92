//! Deterministic fault injection and the bookkeeping for recovering from it.
//!
//! A [`FaultPlan`] describes *what goes wrong* during a run: executor
//! crashes pinned to virtual-time instants, per-task failure and
//! shuffle-fetch-failure probabilities, straggler slowdowns, and (optional)
//! speculative execution to fight the stragglers. The plan is pure data —
//! it rides on [`SparkConf`](crate::config::SparkConf) and is serialized
//! with scenarios — and all randomness is a counter-based hash of
//! `(seed, salt, job, stage, partition, attempt)`, so the same plan on the
//! same workload replays byte-identically and a zero-probability plan takes
//! exactly the code paths of no plan at all.
//!
//! The recovery half lives in the scheduler
//! ([`scheduler::recovery`](crate::scheduler)): bounded retries with
//! backoff, stage resubmission on fetch failure, lineage recompute of cache
//! blocks lost with a crashed executor, and first-finisher-wins speculation.
//! [`FaultState`] is the per-context mutable side (which executors are
//! alive, accumulated [`RecoveryStats`]).

use crate::scheduler::StageId;
use memtier_des::SimTime;
use memtier_memsim::NUM_TIERS;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// RNG salt: does this task attempt fail at completion?
const SALT_TASK_FAIL: u64 = 0x7461736b;
/// RNG salt: does this reduce attempt hit a fetch failure?
const SALT_FETCH_FAIL: u64 = 0x6665746368;
/// RNG salt: is this task attempt a straggler?
const SALT_STRAGGLER: u64 = 0x73747261;
/// RNG salt: which parent map output does a fetch failure blame?
const SALT_FETCH_VICTIM: u64 = 0x76696374;

/// The fate fault injection decided for one attempt at dispatch time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailKind {
    /// The attempt succeeds.
    None,
    /// The attempt fails at its completion instant.
    Task,
    /// The attempt hits a fetch failure blaming map output `victim` of map
    /// stage `parent` at its completion instant.
    Fetch {
        /// The shuffle-map stage whose output was lost.
        parent: StageId,
        /// The map partition to recompute.
        victim: usize,
    },
}

/// One scheduled executor crash at a virtual-time instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrashEvent {
    /// Virtual time at which the executor dies.
    pub at: SimTime,
    /// Index of the executor that dies.
    pub executor: usize,
}

/// Speculative-execution knobs (Spark's `spark.speculation.*`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SpeculationConf {
    /// Fraction of a stage's tasks that must have finished before
    /// speculation is considered (Spark default 0.75).
    #[serde(default = "default_quantile")]
    pub quantile: f64,
    /// A running task is speculatable once its age exceeds this multiple of
    /// the median finished-task duration (Spark default 1.5).
    #[serde(default = "default_multiplier")]
    pub multiplier: f64,
}

fn default_quantile() -> f64 {
    0.75
}

fn default_multiplier() -> f64 {
    1.5
}

impl Default for SpeculationConf {
    fn default() -> Self {
        SpeculationConf {
            quantile: default_quantile(),
            multiplier: default_multiplier(),
        }
    }
}

fn default_straggler_factor() -> f64 {
    1.0
}

fn default_max_retries() -> u32 {
    3
}

fn default_backoff() -> SimTime {
    SimTime::from_ms(10)
}

/// A deterministic schedule of failures for one run.
///
/// Every field defaults to "nothing goes wrong", so a plan deserialized
/// from partial JSON — or built with [`FaultPlan::seeded`] and no further
/// builders — is exactly the zero-fault plan, which the scheduler
/// guarantees is byte-identical to running with no plan at all.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed folded into every probability roll.
    #[serde(default)]
    pub seed: u64,
    /// Per-attempt probability that a task fails at its completion instant.
    #[serde(default)]
    pub task_failure_prob: f64,
    /// Per-attempt probability that a reduce task's shuffle fetch fails,
    /// blaming (and forcing re-execution of) one parent map output.
    #[serde(default)]
    pub fetch_failure_prob: f64,
    /// Per-attempt probability that a task straggles.
    #[serde(default)]
    pub straggler_prob: f64,
    /// CPU-time multiplier applied to stragglers (≥ 1).
    #[serde(default = "default_straggler_factor")]
    pub straggler_factor: f64,
    /// Retries allowed per (stage, partition) after the first attempt.
    #[serde(default = "default_max_retries")]
    pub max_task_retries: u32,
    /// Virtual-time delay before a failed task is re-queued.
    #[serde(default = "default_backoff")]
    pub retry_backoff: SimTime,
    /// Executor crashes pinned to virtual-time instants.
    #[serde(default)]
    pub executor_crashes: Vec<CrashEvent>,
    /// Speculative execution, if enabled.
    #[serde(default)]
    pub speculation: Option<SpeculationConf>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan::seeded(0)
    }
}

impl FaultPlan {
    /// The zero-fault plan under `seed`: nothing fails until builders say so.
    pub fn seeded(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            task_failure_prob: 0.0,
            fetch_failure_prob: 0.0,
            straggler_prob: 0.0,
            straggler_factor: default_straggler_factor(),
            max_task_retries: default_max_retries(),
            retry_backoff: default_backoff(),
            executor_crashes: Vec::new(),
            speculation: None,
        }
    }

    /// Fail each task attempt with probability `p`.
    pub fn with_task_failures(mut self, p: f64) -> FaultPlan {
        self.task_failure_prob = p;
        self
    }

    /// Fail each reduce attempt's shuffle fetch with probability `p`.
    pub fn with_fetch_failures(mut self, p: f64) -> FaultPlan {
        self.fetch_failure_prob = p;
        self
    }

    /// Make each task attempt straggle (CPU × `factor`) with probability `p`.
    pub fn with_stragglers(mut self, p: f64, factor: f64) -> FaultPlan {
        self.straggler_prob = p;
        self.straggler_factor = factor;
        self
    }

    /// Crash `executor` at virtual time `at`.
    pub fn with_crash(mut self, at: SimTime, executor: usize) -> FaultPlan {
        self.executor_crashes.push(CrashEvent { at, executor });
        self
    }

    /// Enable speculative execution with the given knobs.
    pub fn with_speculation(mut self, conf: SpeculationConf) -> FaultPlan {
        self.speculation = Some(conf);
        self
    }

    /// Override the retry budget and backoff.
    pub fn with_retries(mut self, max: u32, backoff: SimTime) -> FaultPlan {
        self.max_task_retries = max;
        self.retry_backoff = backoff;
        self
    }

    /// True when the plan can never inject anything: the scheduler takes
    /// exactly the no-plan code paths.
    pub fn is_zero(&self) -> bool {
        self.task_failure_prob <= 0.0
            && self.fetch_failure_prob <= 0.0
            && self.straggler_prob <= 0.0
            && self.executor_crashes.is_empty()
            && self.speculation.is_none()
    }

    /// A compact display label for scenario names:
    /// `faults(seed7,task5%,fetch2%,strag10%x4,crash1,spec)`.
    pub fn label(&self) -> String {
        let mut parts = vec![format!("seed{}", self.seed)];
        let pct = |p: f64| format!("{}", (p * 100.0 * 100.0).round() / 100.0);
        if self.task_failure_prob > 0.0 {
            parts.push(format!("task{}%", pct(self.task_failure_prob)));
        }
        if self.fetch_failure_prob > 0.0 {
            parts.push(format!("fetch{}%", pct(self.fetch_failure_prob)));
        }
        if self.straggler_prob > 0.0 {
            parts.push(format!(
                "strag{}%x{}",
                pct(self.straggler_prob),
                self.straggler_factor
            ));
        }
        if !self.executor_crashes.is_empty() {
            parts.push(format!("crash{}", self.executor_crashes.len()));
        }
        if self.speculation.is_some() {
            parts.push("spec".to_string());
        }
        format!("faults({})", parts.join(","))
    }

    /// Deterministic uniform `[0, 1)` roll for one decision point.
    ///
    /// A pure hash of `(seed, salt, job, stage, partition, attempt)`:
    /// order-independent (no RNG stream to advance), so injecting a fault
    /// for one task never perturbs any other task's rolls.
    pub fn roll(&self, salt: u64, job: u64, stage: u32, partition: usize, attempt: u32) -> f64 {
        let mut h = splitmix(self.seed ^ salt.wrapping_mul(0x9e3779b97f4a7c15));
        h = splitmix(h ^ job);
        h = splitmix(h ^ ((u64::from(stage) << 32) | partition as u64));
        h = splitmix(h ^ u64::from(attempt));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Decide one attempt's fate up front: the straggler CPU multiplier, if
    /// it straggles, and how it ends. Counter-based rolls, so the outcome
    /// depends only on the plan seed and the attempt's coordinates — never
    /// on event-queue order. A task failure pre-empts a fetch failure, and
    /// a fetch failure needs `fetch_parent`: a `(stage, map tasks)` the
    /// attempt read shuffle data from and that can actually be re-run.
    pub fn fate(
        &self,
        job: u64,
        (stage, partition): (StageId, usize),
        attempt: u32,
        fetch_parent: Option<(StageId, usize)>,
    ) -> (Option<f64>, FailKind) {
        let roll = |salt| self.roll(salt, job, stage.0, partition, attempt);
        let hit = |salt, p: f64| p > 0.0 && roll(salt) < p;
        let straggle = hit(SALT_STRAGGLER, self.straggler_prob).then_some(self.straggler_factor);
        let fail = if hit(SALT_TASK_FAIL, self.task_failure_prob) {
            FailKind::Task
        } else if let Some((parent, maps)) =
            fetch_parent.filter(|_| hit(SALT_FETCH_FAIL, self.fetch_failure_prob))
        {
            let victim =
                ((roll(SALT_FETCH_VICTIM) * maps as f64) as usize).min(maps.saturating_sub(1));
            FailKind::Fetch { parent, victim }
        } else {
            FailKind::None
        };
        (straggle, fail)
    }
}

/// One step of the splitmix64 output function — the standard finalizer used
/// as a stateless counter-based RNG.
fn splitmix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e3779b97f4a7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

/// What recovering from the plan's faults cost, rolled up over a run.
///
/// Rides on `RunReport` / `ScenarioResult`. The time split is the headline:
/// `useful_time` is executor-occupancy spent on attempts whose results were
/// kept, `wasted_time` on attempts that failed, were killed with a crashed
/// executor, or lost a speculation race.
///
/// `useful_time` accrues on every run — it is the waste fraction's
/// denominator and must match between a no-plan run and a zero-fault-plan
/// run for the byte-identity contract to hold. Every *other* field is zero
/// unless fault machinery actually fired; [`Self::is_quiet`] checks exactly
/// those.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Injected task failures (completion-time).
    pub task_failures: u64,
    /// Injected shuffle-fetch failures.
    pub fetch_failures: u64,
    /// Executor crashes applied.
    pub executor_crashes: u64,
    /// Running tasks killed by crashes.
    pub tasks_killed: u64,
    /// Parent map partitions resubmitted after fetch failures.
    pub stage_resubmissions: u64,
    /// Retry attempts queued (after backoff).
    pub retries: u64,
    /// Speculative copies launched.
    pub speculative_launched: u64,
    /// Speculative copies that beat their original.
    pub speculative_won: u64,
    /// Speculation losers killed (original or copy).
    pub speculative_killed: u64,
    /// Cache blocks dropped with crashed executors.
    pub lost_blocks: u64,
    /// Bytes of cache dropped with crashed executors.
    pub lost_bytes: u64,
    /// Memory traffic (bytes) of killed tasks' partially-drained flows,
    /// charged to the ledger's `recovery` object.
    pub cancelled_bytes: u64,
    /// Executor-occupancy virtual time of kept attempts.
    pub useful_time: SimTime,
    /// Executor-occupancy virtual time of failed / killed / losing attempts.
    pub wasted_time: SimTime,
    /// Per-tier memory-flow bytes of retry attempts (attempt > 0) — the
    /// tier-priced cost of recompute, the paper's reason to care.
    pub recompute_bytes: [u64; NUM_TIERS],
}

impl RecoveryStats {
    /// True when no fault machinery fired at all (zero-fault runs).
    pub fn is_quiet(&self) -> bool {
        let quiet_counts = self.task_failures == 0
            && self.fetch_failures == 0
            && self.executor_crashes == 0
            && self.tasks_killed == 0
            && self.stage_resubmissions == 0
            && self.retries == 0
            && self.speculative_launched == 0;
        quiet_counts && self.wasted_time.is_zero() && self.recompute_bytes.iter().all(|&b| b == 0)
    }

    /// Fraction of executor-occupancy time wasted on recovery (0 when idle).
    pub fn waste_fraction(&self) -> f64 {
        let total = self.useful_time.as_secs_f64() + self.wasted_time.as_secs_f64();
        if total <= 0.0 {
            0.0
        } else {
            self.wasted_time.as_secs_f64() / total
        }
    }
}

/// Mutable fault-injection state for one context: which executors are
/// alive, the crash schedule not yet applied, and the accumulated
/// [`RecoveryStats`].
#[derive(Debug)]
pub struct FaultState {
    /// The plan, if any. `None` behaves exactly like a zero plan but skips
    /// even the probability rolls.
    pub plan: Option<FaultPlan>,
    /// Liveness per executor index.
    pub alive: Vec<bool>,
    /// Crashes not yet applied, sorted by `(at, executor)`.
    pub pending_crashes: VecDeque<CrashEvent>,
    /// Accumulated recovery costs.
    pub stats: RecoveryStats,
    /// Executor-occupancy spans of failed / killed / losing attempts, as
    /// `(started, end)`. Recorded through [`Self::record_waste`] at every
    /// point `stats.wasted_time` accrues, so the span durations re-sum to
    /// `stats.wasted_time` in exact integer picoseconds — the always-on raw
    /// series behind the doctor's windowed fault-waste rollup.
    pub waste_spans: Vec<(SimTime, SimTime)>,
}

impl FaultState {
    /// Fresh state for `num_executors` executors under `plan`.
    pub fn new(plan: Option<FaultPlan>, num_executors: usize) -> FaultState {
        let mut crashes: Vec<CrashEvent> = plan
            .as_ref()
            .map(|p| {
                p.executor_crashes
                    .iter()
                    .copied()
                    .filter(|c| c.executor < num_executors)
                    .collect()
            })
            .unwrap_or_default();
        crashes.sort_by_key(|c| (c.at, c.executor));
        FaultState {
            plan,
            alive: vec![true; num_executors],
            pending_crashes: crashes.into(),
            stats: RecoveryStats::default(),
            waste_spans: Vec::new(),
        }
    }

    /// Charge one wasted attempt span `[started, end]`: accrues
    /// `stats.wasted_time` and records the span, keeping the two views
    /// conserving against each other by construction.
    pub fn record_waste(&mut self, started: SimTime, end: SimTime) {
        self.stats.wasted_time += end - started;
        self.waste_spans.push((started, end));
    }

    /// Virtual time of the next unapplied crash, if any.
    pub fn next_crash_at(&self) -> Option<SimTime> {
        self.pending_crashes.front().map(|c| c.at)
    }

    /// Pop every crash due at or before `t`.
    pub fn pop_crashes_due(&mut self, t: SimTime) -> Vec<CrashEvent> {
        let mut due = Vec::new();
        while self.pending_crashes.front().is_some_and(|c| c.at <= t) {
            due.push(self.pending_crashes.pop_front().expect("front checked"));
        }
        due
    }

    /// Number of executors still alive.
    pub fn live_executors(&self) -> usize {
        self.alive.iter().filter(|&&a| a).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolls_are_deterministic_and_uniform_range() {
        let p = FaultPlan::seeded(7);
        let a = p.roll(SALT_TASK_FAIL, 0, 1, 2, 0);
        let b = p.roll(SALT_TASK_FAIL, 0, 1, 2, 0);
        assert_eq!(a, b, "same coordinates must roll identically");
        assert!((0.0..1.0).contains(&a));
        // Different coordinates de-correlate.
        assert_ne!(a, p.roll(SALT_TASK_FAIL, 0, 1, 2, 1));
        assert_ne!(a, p.roll(SALT_FETCH_FAIL, 0, 1, 2, 0));
        assert_ne!(a, FaultPlan::seeded(8).roll(SALT_TASK_FAIL, 0, 1, 2, 0));
        // Rough uniformity: the mean of many rolls is near 1/2.
        let n = 4096;
        let mean: f64 = (0..n)
            .map(|i| p.roll(SALT_STRAGGLER, 0, 0, i, 0))
            .sum::<f64>()
            / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn zero_plan_and_labels() {
        let p = FaultPlan::seeded(3);
        assert!(p.is_zero());
        assert_eq!(p.label(), "faults(seed3)");
        let p = p
            .with_task_failures(0.05)
            .with_stragglers(0.1, 4.0)
            .with_crash(SimTime::from_ms(5), 1)
            .with_speculation(SpeculationConf::default());
        assert!(!p.is_zero());
        assert_eq!(p.label(), "faults(seed3,task5%,strag10%x4,crash1,spec)");
    }

    #[test]
    fn plan_serde_defaults_fill_missing_fields() {
        // A plan written with only a seed and one probability loads with
        // every other knob at its default.
        let p: FaultPlan = serde_json::from_str(r#"{"seed":9,"task_failure_prob":0.25}"#).unwrap();
        assert_eq!(p.seed, 9);
        assert_eq!(p.task_failure_prob, 0.25);
        assert_eq!(p.max_task_retries, 3);
        assert_eq!(p.retry_backoff, SimTime::from_ms(10));
        assert_eq!(p.straggler_factor, 1.0);
        assert!(p.executor_crashes.is_empty());
        // Speculation knobs have serde defaults too.
        let s: SpeculationConf = serde_json::from_str("{}").unwrap();
        assert_eq!(s, SpeculationConf::default());
        // Round trip.
        let json = serde_json::to_string(&p).unwrap();
        assert_eq!(p, serde_json::from_str::<FaultPlan>(&json).unwrap());
    }

    #[test]
    fn fault_state_orders_and_pops_crashes() {
        let plan = FaultPlan::seeded(0)
            .with_crash(SimTime::from_ms(20), 1)
            .with_crash(SimTime::from_ms(5), 0)
            .with_crash(SimTime::from_ms(5), 9); // out of range: dropped
        let mut st = FaultState::new(Some(plan), 2);
        assert_eq!(st.live_executors(), 2);
        assert_eq!(st.next_crash_at(), Some(SimTime::from_ms(5)));
        let due = st.pop_crashes_due(SimTime::from_ms(10));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].executor, 0);
        assert_eq!(st.next_crash_at(), Some(SimTime::from_ms(20)));
        assert!(st.pop_crashes_due(SimTime::from_ms(10)).is_empty());
    }

    #[test]
    fn recovery_stats_quiet_and_waste() {
        let mut s = RecoveryStats::default();
        assert!(s.is_quiet());
        assert_eq!(s.waste_fraction(), 0.0);
        s.useful_time = SimTime::from_ms(30);
        s.wasted_time = SimTime::from_ms(10);
        s.task_failures = 1;
        assert!(!s.is_quiet());
        assert!((s.waste_fraction() - 0.25).abs() < 1e-12);
    }
}
