//! Recovery: what happens when an attempt ends, either way.
//!
//! Complete (finish or fail as fated), tear down (speculation losers, crash
//! victims, a fatal abort), retry within the budget, resubmit a lost map
//! output, speculate on stragglers. Owns the retry counters, the parked
//! reduces, the speculation ledger and the job's fatal error.

use crate::error::SparkError;
use crate::events::Event;
use crate::faultsim::{FailKind, FaultState};
use crate::metrics::StageRollup;
use crate::profile::TaskRecord;
use crate::scheduler::dag::{StageId, StageKind};
use crate::scheduler::sim::{Ev, JobRunner, RunningTask};
use crate::storage::BlockKey;
use crate::trace::{SpanKind, TaskSpan};
use memtier_des::{EventClass, SimTime};
use memtier_memsim::ObjectId;
use std::collections::{HashMap, HashSet};

#[derive(Default)]
pub(super) struct Recovery {
    /// Failed attempts per (stage, partition) — the retry budget's counter
    /// and the coordinate that de-correlates each retry's fault rolls.
    pub(super) attempts: HashMap<(u32, usize), u32>,
    /// Reduce tasks parked on a fetch failure, each awaiting a parent map
    /// stage to become whole again.
    parked: Vec<(StageId, usize, StageId)>,
    /// Map partitions already queued for fetch-failure recompute (avoid
    /// resubmitting the same victim twice).
    resubmit_pending: HashSet<(u32, usize)>,
    /// Partitions already cloned once (Spark speculates each task at most
    /// once at a time; we keep it to once per run for determinism).
    speculated: HashSet<(u32, usize)>,
    /// A structured error that must abort the job (retry exhaustion,
    /// cluster death): checked at the top of the run loop.
    pub(super) fatal: Option<SparkError>,
}

impl Recovery {
    /// Spend one unit of `(stage, part)`'s retry budget. `Some(backoff)`: a
    /// retry was counted and the partition may run again after `backoff`.
    /// `None`: the budget is exhausted and `fatal` says so (the first fatal
    /// error wins), or there is no plan to retry under.
    fn retry_or_exhaust(
        &mut self,
        faults: &mut FaultState,
        job: u64,
        (stage, partition): (StageId, usize),
    ) -> Option<SimTime> {
        let plan = faults.plan.as_ref()?;
        let attempts = self.attempts.entry((stage.0, partition)).or_insert(0);
        *attempts += 1;
        if *attempts > plan.max_task_retries {
            self.fatal.get_or_insert(SparkError::TaskRetriesExhausted {
                job,
                stage: stage.0,
                partition,
                attempts: *attempts,
            });
            return None;
        }
        faults.stats.retries += 1;
        Some(plan.retry_backoff)
    }
}

impl<U> JobRunner<'_, U> {
    /// A task's timer (or last flow) fired: route it to success or to the
    /// failure it rolled at launch.
    pub(super) fn complete_task(&mut self, task_id: u64) {
        let task = self.running.remove(&task_id).expect("unknown task");
        self.executors[task.exec].running -= 1;
        match task.fail {
            FailKind::None => self.finish_task(task_id, task),
            _ => self.fail_task(task_id, task),
        }
    }

    fn record_span(&mut self, task: &RunningTask<U>, task_id: u64, kind: SpanKind) {
        if let Some(trace) = self.st.trace.as_mut() {
            trace.push(TaskSpan {
                task_id,
                job: self.job.job,
                stage: task.stage.0,
                partition: task.partition,
                executor: task.exec,
                slot: task.slot,
                start: task.started,
                end: self.now,
                kind,
            });
        }
    }

    fn emit_failed(&mut self, task: &RunningTask<U>, task_id: u64, reason: &str) {
        self.emit(|r| Event::TaskFailed {
            task_id,
            job: r.job.job,
            stage: task.stage.0,
            partition: task.partition,
            attempt: task.attempt,
            reason: reason.into(),
        });
    }

    fn finish_task(&mut self, task_id: u64, task: RunningTask<U>) {
        let (stage, part) = (task.stage, task.partition);
        let span = self.now - task.started;
        self.st.faults.stats.useful_time += span;
        self.recovery.resubmit_pending.remove(&(stage.0, part));
        debug_assert!(
            !self.stages[stage].completed[part],
            "partition completed twice"
        );
        self.stages[stage].completed[part] = true;
        self.stages[stage].finished_durations.push(span);
        // First finisher wins: tear down rival attempts of this partition,
        // in task-id order. Only a cloned partition has any — a retry never
        // launches beside a live attempt — so nothing else pays the sweep.
        let rivals: Vec<u64> = if self.recovery.speculated.contains(&(stage.0, part)) {
            (self.running.iter())
                .filter(|(_, t)| t.covers(stage, part))
                .map(|(&id, _)| id)
                .collect()
        } else {
            Vec::new()
        };
        for id in rivals {
            let loser = self.teardown(id);
            self.st.faults.stats.speculative_killed += 1;
            self.record_span(&loser, id, SpanKind::SpeculativeKilled);
        }
        if task.speculative {
            self.st.faults.stats.speculative_won += 1;
            self.emit(|r| Event::SpeculativeWon {
                task_id,
                job: r.job.job,
                stage: stage.0,
                partition: part,
            });
        }
        let breakdown = self.breakdown_for(&task, self.now);
        self.st.profile.tasks.push(TaskRecord {
            task_id,
            job: self.job.job,
            stage: stage.0,
            partition: part,
            started: task.started,
            end: self.now,
            breakdown,
        });
        self.st.app.record_task(&task.metrics);
        let kind = if task.speculative {
            SpanKind::Speculative
        } else {
            SpanKind::Normal
        };
        self.record_span(&task, task_id, kind);
        if self.st.events.is_active() {
            let m = task.metrics;
            if m.shuffle_write_bytes > 0 {
                self.emit(|_| Event::ShuffleWrite {
                    task_id,
                    bytes: m.shuffle_write_bytes,
                });
            }
            if m.shuffle_read_bytes > 0 {
                self.emit(|_| Event::ShuffleFetch {
                    task_id,
                    bytes: m.shuffle_read_bytes,
                    buckets: m.shuffle_buckets_read,
                });
            }
            if m.cache_hits + m.cache_misses > 0 {
                self.emit(|_| Event::CacheAccess {
                    task_id,
                    hits: m.cache_hits,
                    misses: m.cache_misses,
                });
            }
            self.emit(|r| Event::TaskFinished {
                task_id,
                job: r.job.job,
                stage: stage.0,
                partition: part,
                metrics: m,
                breakdown,
            });
        }
        if task.result.is_some() {
            self.results[part] = task.result;
        }
        self.stages[stage].agg.merge(&task.metrics);
        self.stages[stage].remaining -= 1;
        if self.stages[stage].remaining == 0 {
            self.complete_stage(stage, task_id);
        }
        self.maybe_speculate(stage);
    }

    /// `stage`'s last outstanding partition finished with task `by`.
    fn complete_stage(&mut self, stage: StageId, by: u64) {
        self.stages.set_done(stage, true);
        if self.stages[stage].first_completed {
            // Re-completion after a fetch-failure resubmission: the
            // children were already activated the first time round, so
            // only the reduce tasks parked on this map output wake up.
            let ready = &mut self.dispatch.ready;
            self.recovery.parked.retain(|&(s, p, awaiting)| {
                if awaiting == stage {
                    ready.push_back((s, p));
                }
                awaiting != stage
            });
            return;
        }
        self.stages[stage].first_completed = true;
        let state = &self.stages[stage];
        let tasks = state.tasks_total;
        self.st.rollups.push(StageRollup {
            job: self.job.job,
            stage: stage.0,
            tasks,
            submitted: state.submitted,
            completed: self.now,
            metrics: state.agg,
        });
        self.emit(|r| Event::StageCompleted {
            job: r.job.job,
            stage: stage.0,
            tasks,
        });
        for child in self.stages[stage].children.clone() {
            self.stages[child].unmet -= 1;
            if self.stages[child].unmet == 0 {
                self.activate_stage(child, Some(by));
            }
        }
    }

    /// A task reached its completion instant but was fated to fail: charge
    /// its whole span (its memory flows drained for real) as waste, then
    /// retry it — or, on a fetch failure, park it and resubmit the map task
    /// whose output it lost.
    fn fail_task(&mut self, task_id: u64, task: RunningTask<U>) {
        self.st.faults.record_waste(task.started, self.now);
        let stats = &mut self.st.faults.stats;
        let reason = match task.fail {
            FailKind::Task => {
                stats.task_failures += 1;
                "task"
            }
            FailKind::Fetch { .. } => {
                stats.fetch_failures += 1;
                "fetch"
            }
            FailKind::None => unreachable!("finish_task handles successes"),
        };
        self.record_span(&task, task_id, SpanKind::Failed);
        self.emit_failed(&task, task_id, reason);
        let coords = (task.stage, task.partition);
        let Some(backoff) =
            self.recovery
                .retry_or_exhaust(&mut self.st.faults, self.job.job, coords)
        else {
            return;
        };
        let FailKind::Fetch { parent, victim } = task.fail else {
            self.queue
                .schedule(self.now + backoff, Ev::Retry(task.stage, task.partition));
            return;
        };
        // The lost map output must be regenerated before this reduce task
        // can retry: park the reduce on its parent and resubmit the victim
        // map task. Concurrent fetch failures against the same map share
        // one resubmission.
        if let StageKind::ShuffleMap(dep) = &self.plan.stages[parent.0 as usize].kind {
            self.rt.shuffle.mark_map_lost(dep.shuffle_id, victim);
        }
        self.recovery
            .parked
            .push((task.stage, task.partition, parent));
        if self.recovery.resubmit_pending.insert((parent.0, victim)) {
            self.st.faults.stats.stage_resubmissions += 1;
            self.stages.set_done(parent, false);
            self.stages[parent].remaining += 1;
            self.stages[parent].completed[victim] = false;
            self.dispatch.ready.push_back((parent, victim));
            self.emit(|r| Event::StageResubmitted {
                job: r.job.job,
                stage: parent.0,
                partition: victim,
            });
        }
    }

    /// Tear down a running attempt without letting it complete: free the
    /// executor slot, cancel its in-flight memory flows — the partial
    /// traffic served so far is charged to [`ObjectId::Recovery`] so the
    /// attribution ledger keeps conserving against the machine counters;
    /// flows that already drained were fully charged on completion —
    /// cancel its transfers (a cancelled transfer never credits its links:
    /// the conservation invariant counts completed transfers only), and
    /// account the elapsed span as waste. The one way an attempt leaves
    /// `running` unfinished; callers add what differs (which counter, which
    /// span, whether to reschedule).
    fn teardown(&mut self, task_id: u64) -> RunningTask<U> {
        let task = self.running.remove(&task_id).expect("unknown task");
        self.executors[task.exec].running -= 1;
        let st = &mut *self.st;
        for f in task.flows.iter().filter(|f| !f.drained) {
            let partial = st.mem.cancel_access_attributed(
                self.now,
                f.tier,
                f.id,
                &f.batch,
                ObjectId::Recovery,
            );
            st.faults.stats.cancelled_bytes += partial.total_bytes();
        }
        for &tid in &task.transfers {
            st.net.cancel(self.now, tid);
        }
        st.faults.record_waste(task.started, self.now);
        task
    }

    /// An executor crash takes a running attempt with it: tear it down and
    /// reschedule its partition, unless a rival is still running, the
    /// partition already completed, or the job is already lost.
    fn kill_task(&mut self, task_id: u64) {
        let task = self.teardown(task_id);
        self.st.faults.stats.tasks_killed += 1;
        self.record_span(&task, task_id, SpanKind::Failed);
        self.emit_failed(&task, task_id, "crash");
        let (stage, part) = (task.stage, task.partition);
        if self.running.values().any(|t| t.covers(stage, part))
            || self.stages[stage].completed[part]
            || self.recovery.fatal.is_some()
        {
            return;
        }
        if let Some(backoff) =
            self.recovery
                .retry_or_exhaust(&mut self.st.faults, self.job.job, (stage, part))
        {
            self.queue
                .schedule(self.now + backoff, Ev::Retry(stage, part));
        }
    }

    /// Fire every executor crash due at or before `at`: mark the executor
    /// dead, kill its running attempts, and drop the cached blocks it
    /// produced — their next read misses and recomputes through lineage,
    /// and they no longer pin preferred locations there.
    pub(super) fn apply_crashes(&mut self, at: SimTime) {
        self.advance_to(at.max(self.now));
        for crash in self.st.faults.pop_crashes_due(self.now) {
            let dead = crash.executor;
            if !self.st.faults.alive[dead] {
                continue;
            }
            self.st.faults.alive[dead] = false;
            self.st.faults.stats.executor_crashes += 1;
            self.prof.count_event(EventClass::FaultCrash);
            let victims: Vec<u64> = self
                .running
                .iter()
                .filter(|(_, task)| task.exec == dead)
                .map(|(&id, _)| id)
                .collect();
            for &id in &victims {
                self.kill_task(id);
            }
            let owners = &mut self.st.block_owner;
            let lost: Vec<BlockKey> = owners
                .iter()
                .filter(|&(_, &owner)| owner == dead)
                .map(|(&k, _)| k)
                .collect();
            owners.retain(|_, owner| *owner != dead);
            let (lost_blocks, lost_bytes) = self.rt.cache.drop_blocks(&lost);
            self.st.faults.stats.lost_blocks += lost_blocks;
            self.st.faults.stats.lost_bytes += lost_bytes;
            self.emit(|_| Event::ExecutorLost {
                executor: dead,
                killed_tasks: victims.len() as u64,
                lost_blocks,
                lost_bytes,
            });
        }
        if self.st.faults.live_executors() == 0 && self.stages.pending > 0 {
            self.recovery
                .fatal
                .get_or_insert(SparkError::AllExecutorsLost {
                    job: self.job.job,
                    stages_pending: self.stages.pending as u64,
                });
        }
    }

    /// Launch speculative copies of stragglers: once `quantile` of a
    /// stage's tasks have finished, any non-speculated attempt running
    /// longer than `multiplier` × the median finished duration gets a
    /// clone; tasks still under the threshold schedule a re-check for the
    /// instant they would cross it.
    pub(super) fn maybe_speculate(&mut self, stage: StageId) {
        let Some(spec) = self.st.faults.plan.as_ref().and_then(|p| p.speculation) else {
            return;
        };
        let state = &self.stages[stage];
        if state.remaining == 0 {
            return;
        }
        let finished = state.finished_durations.len();
        if (finished as f64) < spec.quantile * state.tasks_total as f64 {
            return;
        }
        let mut durations = state.finished_durations.clone();
        durations.sort_unstable();
        let threshold = durations[durations.len() / 2].mul_f64(spec.multiplier);
        let mut clones: Vec<(u64, usize)> = Vec::new();
        let mut recheck: Vec<SimTime> = Vec::new();
        for (&id, t) in &self.running {
            if t.stage != stage
                || t.speculative
                || self.recovery.speculated.contains(&(stage.0, t.partition))
            {
                continue;
            }
            if self.now - t.started >= threshold {
                clones.push((id, t.partition));
            } else {
                recheck.push(t.started + threshold);
            }
        }
        recheck.sort_unstable();
        // One reservation for the whole re-check batch; scheduling order
        // (and therefore FIFO sequence numbers) is unchanged.
        self.queue
            .schedule_batch(recheck.into_iter().map(|at| (at, Ev::SpecCheck(stage))));
        for (original, part) in clones {
            self.recovery.speculated.insert((stage.0, part));
            self.dispatch.spec_ready.push_back((stage, part, original));
        }
    }

    /// Tear down every in-flight attempt after a fatal recovery error so
    /// the shared memory system carries no orphan flows into later jobs,
    /// and leave the context's clock where the job died — the memory system
    /// has lived through that time, so the next job must not start before
    /// it. Runs after `fatal` was taken, so nothing here reschedules.
    pub(super) fn abort(&mut self) {
        self.st.clock = self.now;
        while let Some((&id, _)) = self.running.first_key_value() {
            self.teardown(id);
            self.st.faults.stats.tasks_killed += 1;
        }
        // Migration copies share the same MemorySystem: an in-flight one
        // left behind would surface from next_completion() in a later job
        // that knows nothing about it. Cancel them like task flows, with
        // the partial traffic kept on the migration object.
        for (flow, (tier, batch)) in std::mem::take(&mut self.migrations.flows) {
            self.st
                .mem
                .cancel_access_attributed(self.now, tier, flow, &batch, ObjectId::Migration);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultsim::FaultPlan;

    #[test]
    fn retry_budget_runs_out_at_exactly_max_retries_plus_one() {
        let backoff = SimTime::from_ms(3);
        let plan = FaultPlan::seeded(1).with_retries(2, backoff);
        let mut faults = FaultState::new(Some(plan), 1);
        let mut rec = Recovery::default();
        let coords = (StageId(4), 1);
        for _ in 0..2 {
            assert_eq!(rec.retry_or_exhaust(&mut faults, 9, coords), Some(backoff));
            assert!(rec.fatal.is_none());
        }
        assert_eq!(rec.retry_or_exhaust(&mut faults, 9, coords), None);
        let exhausted = SparkError::TaskRetriesExhausted {
            job: 9,
            stage: 4,
            partition: 1,
            attempts: 3,
        };
        assert_eq!(rec.fatal, Some(exhausted.clone()));
        assert_eq!(faults.stats.retries, 2);
        // Budgets are per partition, and the first fatal error is kept.
        assert_eq!(
            rec.retry_or_exhaust(&mut faults, 9, (StageId(4), 2)),
            Some(backoff)
        );
        assert_eq!(rec.retry_or_exhaust(&mut faults, 9, coords), None);
        assert_eq!(rec.fatal, Some(exhausted));
    }
}
