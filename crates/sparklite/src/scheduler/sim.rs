//! The discrete-event execution simulation (the time plane): one run loop
//! and the state it arbitrates over.
//!
//! A [`JobRunner`] takes a compiled [`StagePlan`] and plays it out on the
//! executor grid and the simulated [`MemorySystem`](memtier_memsim::MemorySystem):
//!
//! * each executor is a pool of task slots (cores);
//! * a dispatched task first runs its **data plane** (really computing the
//!   partition, accumulating [`TaskMetrics`]), then occupies its slot for a
//!   modeled CPU phase followed by a memory phase whose traffic drains
//!   through the per-tier fair-share bandwidth resources;
//! * the CPU phase is inflated by intra-executor contention
//!   (`jvm_contention_alpha × co-running tasks`) and every task pays a
//!   dispatch overhead plus cross-executor coordination traffic — the
//!   Takeaway-6 mechanisms.
//!
//! The runner is a loop plus three parts, each an `impl JobRunner` block in
//! its own file over its own fields (DESIGN.md, "Scheduler anatomy"):
//!
//! * `dispatch.rs` — ready queues, slot rotation, delay
//!   scheduling: *which* attempt goes *where* next;
//! * `launch.rs` — data plane → pricing → fate → routing →
//!   flow start: what one attempt costs and when it will end;
//! * `recovery.rs` — complete / fail / kill / crash /
//!   speculate / abort: what happens when an attempt ends, either way.
//!
//! This file owns the clock (`JobRunner::advance_to` is the only place
//! `now` moves), the three-way arbitration between CPU timers, memory
//! completions and link drains (ties: cpu ≥ mem ≥ net) and the rule that a
//! finished job ignores its queue; placement epochs and their migration
//! copies are `epochs.rs`. All of it borrows one [`RunState`].
//!
//! Everything is deterministic: ties in the event queue resolve FIFO, the
//! executor choice rotates round-robin, in-flight work is kept in id order
//! by type, and no wall-clock value is read.

use crate::error::{Result, SparkError};
use crate::events::Event;
use crate::faultsim::FailKind;
use crate::metrics::TaskMetrics;
use crate::profile::{JobRecord, StageRecord};
use crate::rdd::TaskEnv;
use crate::runtime::Runtime;
use crate::scheduler::dag::{StageId, StagePlan};
use crate::scheduler::dispatch::Dispatcher;
use crate::scheduler::epochs::Migrations;
use crate::scheduler::executor::ExecutorSpec;
use crate::scheduler::recovery::Recovery;
use crate::scheduler::state::RunState;
use memtier_des::{EngineProf, EventClass, EventQueue, ProfPhase, SimTime};
use memtier_memsim::{AccessBatch, ObjectId, TierId, NUM_TIERS};
use std::collections::BTreeMap;
use std::ops::{Index, IndexMut};
use std::sync::Arc;

/// The outcome of one job.
pub struct JobOutcome<U> {
    /// Per-partition results of the result stage, in partition order.
    pub results: Vec<U>,
    /// Stages that actually executed (excludes skipped ones).
    pub stages_run: u64,
}

pub(super) struct ExecState {
    pub(super) spec: ExecutorSpec,
    pub(super) running: usize,
}

pub(super) struct StageState {
    pub(super) remaining: usize,
    pub(super) unmet: usize,
    pub(super) children: Vec<StageId>,
    pub(super) done: bool,
    /// Virtual instant the stage became runnable.
    pub(super) submitted: SimTime,
    /// Tasks the stage will run (rollup bookkeeping).
    pub(super) tasks_total: u64,
    /// Running sum of the stage's task metrics.
    pub(super) agg: TaskMetrics,
    /// Per-partition completion (guards speculation races and lets a
    /// resubmitted map partition run again without re-completing others).
    pub(super) completed: Vec<bool>,
    /// True once the stage completed for the first time — re-completions
    /// after a fetch-failure resubmission must not re-activate children or
    /// push a second rollup.
    pub(super) first_completed: bool,
    /// Durations of successfully finished tasks (speculation's median).
    pub(super) finished_durations: Vec<SimTime>,
}

/// Per-stage progress, indexed by [`StageId`], plus the two counts the loop
/// reads off it.
#[derive(Default)]
pub(super) struct Stages {
    state: Vec<StageState>,
    /// Stages not yet done. Zero is the one definition of "this job is
    /// finished"; kept as a count so nothing scans for it.
    pub(super) pending: usize,
    /// Stages activated so far (skipped ones never are).
    pub(super) run: u64,
}

impl Stages {
    /// Flip a stage's `done` flag, keeping `pending` in step (a stage that
    /// was done and no longer is adds one; the reverse takes one away).
    pub(super) fn set_done(&mut self, id: StageId, done: bool) {
        let was = std::mem::replace(&mut self.state[id.0 as usize].done, done);
        self.pending = self.pending + usize::from(was) - usize::from(done);
    }
}

impl Index<StageId> for Stages {
    type Output = StageState;
    fn index(&self, id: StageId) -> &StageState {
        &self.state[id.0 as usize]
    }
}

impl IndexMut<StageId> for Stages {
    fn index_mut(&mut self, id: StageId) -> &mut StageState {
        &mut self.state[id.0 as usize]
    }
}

/// A task's memory flows are numbered `task_id << FLOW_SLOT_BITS | slot`,
/// one slot per tier it touches, so a completing flow names its owner
/// (`flow >> FLOW_SLOT_BITS`) without a side table.
pub(super) const FLOW_SLOT_BITS: u32 = 3;
const _: () = assert!(NUM_TIERS <= 1 << FLOW_SLOT_BITS);

/// One in-flight memory flow of a task.
#[derive(Debug, Clone, PartialEq)]
pub(super) struct TaskFlow {
    pub(super) tier: TierId,
    pub(super) id: u64,
    pub(super) batch: AccessBatch,
    /// Per-object parts of `batch`. They partition it exactly, so the
    /// attribution ledger conserves against the machine counters. Taken
    /// (left empty) when the flow completes.
    pub(super) parts: Vec<(ObjectId, AccessBatch)>,
    /// True once the flow was fully charged (or never entered the memory
    /// system): a teardown must not cancel — and double-count — it.
    pub(super) drained: bool,
}

pub(super) struct RunningTask<U> {
    pub(super) exec: usize,
    pub(super) stage: StageId,
    pub(super) partition: usize,
    pub(super) slot: usize,
    pub(super) started: SimTime,
    /// Modeled CPU span (dispatch overhead + data-plane CPU, inflated by
    /// JVM contention) — the compute part of the task's breakdown.
    pub(super) cpu: SimTime,
    /// The contention inflation factor applied to `cpu`, kept so the
    /// shuffle-fetch share of the CPU phase inflates consistently.
    pub(super) cpu_factor: f64,
    /// Memory flows and network transfers still draining; the task
    /// completes when the last one does.
    pub(super) pending: usize,
    pub(super) metrics: TaskMetrics,
    pub(super) flows: Vec<TaskFlow>,
    /// Result-stage output parked until completion (already computed on the
    /// data plane; stored at completion purely for bookkeeping symmetry).
    pub(super) result: Option<U>,
    /// Zero-based attempt number of this dispatch.
    pub(super) attempt: u32,
    /// The fate fault injection rolled for this attempt at dispatch.
    pub(super) fail: FailKind,
    /// True for speculative clones of stragglers.
    pub(super) speculative: bool,
    /// Transfer ids of the task's network flows.
    pub(super) transfers: Vec<u64>,
    /// Nominal (uncontended) network time — the breakdown's net share is
    /// apportioned against this alongside the per-tier stall nominals.
    pub(super) net_nominal: SimTime,
}

impl<U> RunningTask<U> {
    /// True when this attempt works on `(stage, part)`.
    pub(super) fn covers(&self, stage: StageId, part: usize) -> bool {
        self.stage == stage && self.partition == part
    }
}

pub(super) enum Ev {
    CpuDone(u64),
    /// A failed attempt's backoff expired: re-queue (stage, partition).
    Retry(StageId, usize),
    /// Re-evaluate speculation for a stage (scheduled for the instant a
    /// running task's age crosses the straggler threshold).
    SpecCheck(StageId),
    /// Delay scheduling: a waiting task's locality level relaxes at this
    /// instant — wake the dispatcher to re-evaluate placements.
    LocalityRelax,
}

/// Runs one job's stage plan through the DES. `U` is the per-partition
/// result type of the action.
pub struct JobRunner<'a, U> {
    pub(super) rt: &'a Runtime,
    /// Everything shared across the context's jobs: memory system,
    /// placement engine, metrics, trace, events, profiler log, fault state,
    /// network plane, block residency.
    pub(super) st: &'a mut RunState,
    pub(super) plan: StagePlan,
    pub(super) result_fn: Arc<dyn Fn(usize, &mut TaskEnv<'_>) -> U + Send + Sync>,
    pub(super) executors: Vec<ExecState>,
    pub(super) stages: Stages,
    pub(super) queue: EventQueue<Ev>,
    pub(super) now: SimTime,
    /// In-flight attempts by task id; ordered, so every sweep over them is
    /// in id order by type.
    pub(super) running: BTreeMap<u64, RunningTask<U>>,
    pub(super) results: Vec<Option<U>>,
    pub(super) next_task: u64,
    /// The profiler's record of this job: its sequence number and
    /// submission instant now, its completion instant at the end.
    pub(super) job: JobRecord,
    /// Engine self-profiler, cloned from the memory system's handle (shared
    /// collector). Disabled unless the run enabled profiling; wall-clock
    /// only, never consulted by simulation logic.
    pub(super) prof: EngineProf,
    pub(super) dispatch: Dispatcher,
    pub(super) recovery: Recovery,
    pub(super) migrations: Migrations,
}

impl<'a, U> JobRunner<'a, U> {
    /// Prepare a runner for the context's next job, starting at its clock.
    pub fn new(
        rt: &'a Runtime,
        st: &'a mut RunState,
        executors: &[ExecutorSpec],
        plan: StagePlan,
        result_fn: Arc<dyn Fn(usize, &mut TaskEnv<'_>) -> U + Send + Sync>,
    ) -> Self {
        let n = plan.stages.len();
        let result_tasks = plan.stages[n - 1].num_tasks;
        let prof = st.mem.engine_prof().clone();
        let mut queue = EventQueue::new();
        queue.set_prof(prof.clone());
        let (now, job) = (st.clock, st.app.jobs);
        let mut runner = JobRunner {
            rt,
            st,
            plan,
            result_fn,
            executors: executors
                .iter()
                .map(|s| ExecState {
                    spec: s.clone(),
                    running: 0,
                })
                .collect(),
            stages: Stages::default(),
            queue,
            now,
            running: BTreeMap::new(),
            results: (0..result_tasks).map(|_| None).collect(),
            next_task: 0,
            job: JobRecord {
                job,
                submitted: now,
                completed: now,
            },
            prof,
            dispatch: Dispatcher::default(),
            recovery: Recovery::default(),
            migrations: Migrations::default(),
        };
        runner.emit(|r| Event::JobSubmitted {
            job,
            stages: r.plan.stages.len() as u64,
        });
        runner.init_stages();
        runner
    }

    /// Emit a lifecycle event at the current instant. `make` runs only when
    /// a sink is attached, so an inert bus costs one branch.
    pub(super) fn emit(&mut self, make: impl FnOnce(&Self) -> Event) {
        if self.st.events.is_active() {
            let event = make(self);
            self.st.events.emit(self.now, event);
        }
    }

    /// Move the clock — the only place `now` is assigned. The memory system
    /// follows; the network plane advances itself when it is stepped.
    pub(super) fn advance_to(&mut self, t: SimTime) {
        self.now = t;
        self.st.mem.advance(t);
    }

    fn init_stages(&mut self) {
        let n = self.plan.stages.len();
        // A stage is needed iff reachable from the result stage through
        // parents of non-skippable stages.
        let mut needed = vec![false; n];
        let mut stack = vec![n - 1];
        while let Some(i) = stack.pop() {
            if needed[i] {
                continue;
            }
            needed[i] = true;
            if !self.plan.stages[i].skippable {
                for p in &self.plan.stages[i].parents {
                    stack.push(p.0 as usize);
                }
            }
        }

        self.stages.state = (0..n)
            .map(|i| StageState {
                remaining: self.plan.stages[i].num_tasks,
                unmet: 0,
                children: Vec::new(),
                done: self.plan.stages[i].skippable || !needed[i],
                submitted: SimTime::ZERO,
                tasks_total: self.plan.stages[i].num_tasks as u64,
                agg: TaskMetrics::default(),
                completed: vec![false; self.plan.stages[i].num_tasks],
                first_completed: false,
                finished_durations: Vec::new(),
            })
            .collect();
        self.stages.pending = self.stages.state.iter().filter(|s| !s.done).count();
        for i in 0..n {
            if self.stages.state[i].done {
                continue;
            }
            let parents: Vec<StageId> = self.plan.stages[i].parents.clone();
            for p in parents {
                if !self.stages[p].done {
                    self.stages.state[i].unmet += 1;
                    self.stages[p].children.push(StageId(i as u32));
                }
            }
        }
        for i in 0..n {
            if !self.stages.state[i].done && self.stages.state[i].unmet == 0 {
                self.activate_stage(StageId(i as u32), None);
            }
        }
    }

    /// Make a stage's tasks runnable. `activated_by` is the task whose
    /// completion met the stage's last dependency (`None` when the stage was
    /// runnable at job submission) — the DAG edge the critical-path walk in
    /// [`crate::profile`] follows backwards.
    pub(super) fn activate_stage(&mut self, id: StageId, activated_by: Option<u64>) {
        let num_tasks = self.plan.stages[id.0 as usize].num_tasks;
        self.stages.run += 1;
        self.dispatch
            .ready
            .extend((0..num_tasks).map(|part| (id, part)));
        self.stages[id].submitted = self.now;
        self.st.profile.stages.push(StageRecord {
            job: self.job.job,
            stage: id.0,
            submitted: self.now,
            activated_by,
        });
        self.emit(|r| Event::StageSubmitted {
            job: r.job.job,
            stage: id.0,
            tasks: num_tasks as u64,
        });
    }

    /// Run the job to completion; returns results in partition order and
    /// leaves the context's clock where the job ended — or, through
    /// `abort`, where it died.
    ///
    /// Fails with [`SparkError::Internal`] if the scheduler invariant breaks
    /// and a result partition never completes — a scheduler bug must surface
    /// as an error on the action, not a panic inside the engine.
    pub fn run(mut self) -> Result<JobOutcome<U>> {
        // Scratch buffer for same-instant CPU event batches: reused across
        // iterations so the steady-state loop pops without allocating.
        let mut cpu_batch: Vec<Ev> = Vec::new();
        loop {
            // One guard per iteration: dispatch + preemption checks + the
            // event handler all land in the EventDispatch phase (which
            // therefore contains the nested resource phases).
            let _dispatch = self.prof.phase(ProfPhase::EventDispatch);
            self.dispatch();
            if let Some(e) = self.recovery.fatal.take() {
                self.abort();
                return Err(e);
            }
            // A finished job ignores its queue. With no stage pending, every
            // timer still queued belongs to a killed or superseded attempt
            // and would be dropped unhandled when popped — but while one
            // was pending, a crash or an epoch due before it fired and
            // walked the clock past the last task's end. Migration copies
            // still drain; a crash due later waits for the next job.
            let queue_next = self.queue.peek_time().filter(|_| self.stages.pending > 0);
            let mem_next = self.st.mem.next_completion();
            let net_next = self.st.net.next_event_time();
            let mem_t = mem_next.map(|(mt, _, _)| mt);
            let Some(next_due) = [queue_next, mem_t, net_next].into_iter().flatten().min() else {
                break;
            };
            // A scheduled executor crash preempts any event strictly after
            // it; ties go to the crash so work due at the same instant sees
            // the post-crash world deterministically.
            if let Some(ct) = self.st.faults.next_crash_at().filter(|&ct| ct <= next_due) {
                self.apply_crashes(ct);
                continue;
            }
            // A placement-epoch boundary preempts only when strictly
            // earlier than every pending event (ties defer to the work),
            // and never outlives the job: with nothing left to run the
            // loop exits above instead of idling through empty epochs.
            if let Some(et) = self.st.engine.next_epoch().filter(|&et| et < next_due) {
                self.cross_epoch(et);
                continue;
            }
            // Tie arbitration: CPU events beat memory completions beat
            // network drains, preserving the pre-network-plane order (and
            // byte-identity whenever `net_next` is `None`).
            if queue_next == Some(next_due) {
                self.handle_cpu_events_at(next_due, &mut cpu_batch);
            } else if mem_t == Some(next_due) {
                // The memory completion peeked above is threaded through so
                // the handler never recomputes it — the double water-fill
                // per completion step is gone.
                let (mt, tier, flow) = mem_next.expect("peeked completion vanished");
                self.handle_mem_event(mt, tier, flow);
            } else {
                self.handle_net_event(next_due);
            }
            if let Some(e) = self.recovery.fatal.take() {
                self.abort();
                return Err(e);
            }
        }
        if self.stages.pending > 0 {
            let stages_pending = self.stages.pending as u64;
            let job = self.job.job;
            self.abort();
            return Err(if self.st.faults.live_executors() == 0 {
                SparkError::AllExecutorsLost {
                    job,
                    stages_pending,
                }
            } else {
                SparkError::Internal(format!(
                    "job {job}: event queue drained with {stages_pending} stages incomplete"
                ))
            });
        }
        if let Some(part) = self.results.iter().position(Option::is_none) {
            return Err(SparkError::Internal(format!(
                "job {}: result partition {part} never completed",
                self.job.job
            )));
        }
        self.job.completed = self.now;
        self.st.profile.jobs.push(self.job);
        self.emit(|r| Event::JobCompleted {
            job: r.job.job,
            stages_run: r.stages.run,
            tasks_run: r.next_task,
        });
        self.st.clock = self.now;
        Ok(JobOutcome {
            results: self.results.into_iter().flatten().collect(),
            stages_run: self.stages.run,
        })
    }

    /// Drain and handle every CPU event due at `at` in one coalesced heap
    /// drain ([`EventQueue::pop_at`]).
    ///
    /// Byte-identical to the old pop-one-per-iteration loop: between two
    /// same-instant CPU events the main loop's crash check (no crash `<= at`
    /// exists once the first event was chosen — ties go to the crash *before*
    /// any pop), epoch check (none strictly earlier than `at`), and memory
    /// arbitration (a completion due at `at` loses the tie to the CPU event
    /// anyway, and handling CPU work never creates an earlier one) were all
    /// no-ops. Only `dispatch` could act between events — a completion can
    /// free an executor slot — so it is interleaved here exactly where the
    /// loop top would have run it.
    fn handle_cpu_events_at(&mut self, at: SimTime, batch: &mut Vec<Ev>) {
        self.queue.pop_at(at, batch);
        debug_assert!(!batch.is_empty(), "peeked event vanished");
        for (i, ev) in batch.drain(..).enumerate() {
            if i > 0 {
                self.dispatch();
                // A fatal error aborts from the main loop; the rest of the
                // batch is dropped exactly as it would have stayed queued.
                if self.recovery.fatal.is_some() {
                    return;
                }
            }
            self.handle_cpu_event(at, ev);
            if self.recovery.fatal.is_some() {
                return;
            }
        }
    }

    fn handle_cpu_event(&mut self, t: SimTime, ev: Ev) {
        self.prof.count_event(match &ev {
            Ev::CpuDone(_) => EventClass::CpuTimer,
            Ev::Retry(..) => EventClass::Retry,
            Ev::SpecCheck(_) => EventClass::SpecCheck,
            Ev::LocalityRelax => EventClass::NetRelax,
        });
        // Stale events return WITHOUT advancing the clock: a dropped timer
        // must not stretch the job's elapsed time.
        match ev {
            // Pure-compute task (no memory traffic) finished its timer.
            Ev::CpuDone(task) => {
                if !self.running.contains_key(&task) {
                    return; // task was killed; its timer is moot
                }
                self.advance_to(t);
                self.complete_task(task);
            }
            Ev::Retry(stage, part) => {
                // Stale if a rival attempt already finished — or is still
                // in flight (a speculative clone of the failed original):
                // launching anyway would duplicate the partition, and the
                // first finisher's rival sweep covers the survivor.
                if self.stages[stage].completed[part]
                    || self.running.values().any(|t| t.covers(stage, part))
                {
                    return;
                }
                self.advance_to(t);
                self.dispatch.ready.push_back((stage, part));
            }
            Ev::SpecCheck(stage) => {
                if self.stages[stage].remaining == 0 {
                    return; // stage finished before the re-check fired
                }
                self.advance_to(t);
                self.maybe_speculate(stage);
            }
            Ev::LocalityRelax => {
                self.dispatch.relax_scheduled.remove(&t.as_ps());
                if self.dispatch.ready.is_empty() {
                    return; // nothing is waiting on locality any more
                }
                // Purely a dispatch wake-up: the loop-top dispatch (or the
                // batch interleave) re-evaluates placements at the new
                // allowance.
                self.advance_to(t);
            }
        }
    }

    /// Retire the memory completion the main loop peeked at `(t, tier,
    /// flow)`, then keep draining further completions due at exactly `t`.
    ///
    /// The coalesced drain is byte-identical to returning to the main loop
    /// per completion: a retirement that does not finish a task frees no
    /// executor slot and queues no work, so the loop-top `dispatch` was a
    /// no-op; no crash `<= t` or epoch `< t` can exist once the first
    /// completion at `t` was chosen; and a CPU event due at `t` wins the
    /// tie, so the drain defers to it. The loop stops (a) when a task
    /// completes — a slot frees and `dispatch` has real work — (b) when a
    /// same-instant CPU event must interleave, or (c) when the earliest
    /// remaining completion is later than `t`. Re-querying
    /// [`next_completion`](memtier_memsim::MemorySystem::next_completion)
    /// per retirement is required for correctness (removing a flow re-shares
    /// bandwidth, which can surface new same-instant completions) and cheap
    /// against the rate cache.
    fn handle_mem_event(&mut self, t: SimTime, tier: TierId, flow: u64) {
        self.advance_to(t);
        let (mut tier, mut flow) = (tier, flow);
        loop {
            if let Some((migration_tier, batch)) = self.migrations.flows.remove(&flow) {
                self.prof.count_event(EventClass::Migration);
                debug_assert_eq!(migration_tier, tier, "migration flow completed off-tier");
                // The whole batch is the migration's: a one-part partition,
                // so the ledger's conservation against the machine counters
                // stays exact.
                self.st.mem.finish_access_attributed(
                    t,
                    tier,
                    flow,
                    &batch,
                    &[(ObjectId::Migration, batch)],
                );
            } else {
                self.prof.count_event(EventClass::MemCompletion);
                let task_id = flow >> FLOW_SLOT_BITS;
                let task = self
                    .running
                    .get_mut(&task_id)
                    .expect("completion for unowned flow");
                let fl = task
                    .flows
                    .iter_mut()
                    .find(|fl| fl.id == flow)
                    .expect("flow not registered on task");
                debug_assert!(fl.tier == tier && !fl.drained, "flow completed twice");
                fl.drained = true;
                let parts = std::mem::take(&mut fl.parts);
                self.st
                    .mem
                    .finish_access_attributed(t, tier, flow, &fl.batch, &parts);
                task.pending -= 1;
                if task.pending == 0 {
                    self.complete_task(task_id);
                    return;
                }
            }
            match self.st.mem.next_completion() {
                Some((t2, tier2, flow2))
                    if t2 == t && self.queue.peek_time().is_none_or(|qt| qt > t) =>
                {
                    tier = tier2;
                    flow = flow2;
                }
                _ => return,
            }
        }
    }

    /// Retire one network-plane link drain at `t`. A drain that completes
    /// its whole transfer (the last link of the path) appends the
    /// conservation record and mirrors its per-link events inside
    /// [`NetState::step`](crate::net::NetState::step); here the owning task
    /// loses one pending item, and completes once both its memory flows and
    /// its transfers have drained.
    fn handle_net_event(&mut self, t: SimTime) {
        self.prof.count_event(EventClass::NetCompletion);
        self.advance_to(t);
        let st = &mut *self.st;
        // `None`: a link drained without completing its transfer, or the
        // transfer was driverless.
        let Some(task_id) = st.net.step(t, &mut st.events).and_then(|rec| rec.task) else {
            return;
        };
        if let Some(task) = self.running.get_mut(&task_id) {
            task.pending -= 1;
            if task.pending == 0 {
                self.complete_task(task_id);
            }
        }
    }
}
