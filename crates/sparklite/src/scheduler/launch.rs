//! Launch: what one attempt costs, and when it will end.
//!
//! Four steps with plain data between them — the data plane really
//! computes the partition ([`TaskInput`]); pricing and fault injection
//! decide the CPU span and the attempt's fate; [`route_traffic`] turns the
//! per-object traffic into per-tier [`TaskFlow`]s; `start_flows` puts them,
//! and the attempt's cross-node transfers, in flight. The breakdown of a
//! finished span back into those components lives here too, beside the
//! model it inverts.

use crate::events::Event;
use crate::faultsim::FailKind;
use crate::metrics::TaskMetrics;
use crate::net::NetCharge;
use crate::profile::{EvictionRecord, TaskBreakdown};
use crate::rdd::TaskEnv;
use crate::scheduler::dag::{StageId, StageKind};
use crate::scheduler::executor::ExecutorSpec;
use crate::scheduler::sim::{Ev, JobRunner, RunningTask, TaskFlow, FLOW_SLOT_BITS};
use crate::storage::{CacheStats, EvictedBlock};
use memtier_des::{EventClass, SimTime};
use memtier_memsim::{AccessBatch, ObjectId, PlacementEngine, TierId, Topology};
use std::collections::BTreeMap;

/// What the data plane produced for one attempt.
struct TaskInput<U> {
    metrics: TaskMetrics,
    /// Per-object decomposition of `metrics.traffic`.
    object_traffic: BTreeMap<ObjectId, AccessBatch>,
    net_charges: Vec<NetCharge>,
    /// The result stage's output for this partition.
    result: Option<U>,
    /// Blocks the attempt's cache writes displaced.
    evicted: Vec<EvictedBlock>,
}

/// Split a task's traffic across its executor's tier placement, giving
/// rounding remainders to the first (primary) tier.
fn split_traffic(batch: &AccessBatch, placement: &[(TierId, f64)]) -> Vec<(TierId, AccessBatch)> {
    if placement.len() == 1 {
        return vec![(placement[0].0, *batch)];
    }
    let mut out = Vec::with_capacity(placement.len());
    let mut assigned = AccessBatch::EMPTY;
    for &(tier, w) in placement.iter().skip(1) {
        let sub = AccessBatch {
            reads: (batch.reads as f64 * w).floor() as u64,
            writes: (batch.writes as f64 * w).floor() as u64,
            bytes_read: (batch.bytes_read as f64 * w).floor() as u64,
            bytes_written: (batch.bytes_written as f64 * w).floor() as u64,
            random_reads: (batch.random_reads as f64 * w).floor() as u64,
            random_writes: (batch.random_writes as f64 * w).floor() as u64,
        };
        assigned += sub;
        out.push((tier, sub));
    }
    let first = AccessBatch {
        reads: batch.reads - assigned.reads,
        writes: batch.writes - assigned.writes,
        bytes_read: batch.bytes_read - assigned.bytes_read,
        bytes_written: batch.bytes_written - assigned.bytes_written,
        random_reads: batch.random_reads - assigned.random_reads,
        random_writes: batch.random_writes - assigned.random_writes,
    };
    out.insert(0, (placement[0].0, first));
    out
}

/// Route each object's traffic through the placement engine and split it
/// across the returned tiers, accumulating per-tier flows alongside their
/// per-object parts. The parts partition each flow's batch exactly, which
/// is what lets the attribution ledger conserve against the machine
/// counters.
///
/// Slots are seeded from the executor's static split and grown by first
/// appearance for tiers only the engine routes to; a flow's id is its
/// task's id and its slot. A static engine returns the executor split for
/// every object, so every per-object split lands on the seeded slots in
/// order: the flows are the split of the task total, object by object
/// (each object rounds on its own; with one object, or one tier, exactly
/// [`split_traffic`] of the total).
fn route_traffic(
    traffic: &BTreeMap<ObjectId, AccessBatch>,
    spec: &ExecutorSpec,
    engine: &PlacementEngine,
    topo: &Topology,
    task_id: u64,
) -> Vec<TaskFlow> {
    let slot = |tier| TaskFlow {
        tier,
        id: 0,
        batch: AccessBatch::EMPTY,
        parts: Vec::new(),
        drained: false,
    };
    let mut flows: Vec<TaskFlow> = spec.placement.iter().map(|&(tier, _)| slot(tier)).collect();
    for (&object, obj_batch) in traffic {
        let routed: Vec<(TierId, f64)>;
        let split = if engine.is_dynamic() {
            routed = engine.placement_for(object, topo, spec.socket, &spec.placement);
            &routed[..]
        } else {
            &spec.placement[..]
        };
        for (tier, part) in split_traffic(obj_batch, split) {
            if part.is_empty() {
                continue;
            }
            let i = flows
                .iter()
                .position(|f| f.tier == tier)
                .unwrap_or_else(|| {
                    flows.push(slot(tier));
                    flows.len() - 1
                });
            flows[i].batch += part;
            flows[i].parts.push((object, part));
        }
    }
    for (i, f) in flows.iter_mut().enumerate() {
        f.id = task_id << FLOW_SLOT_BITS | i as u64;
    }
    flows.retain(|f| !f.batch.is_empty());
    flows
}

impl<U> JobRunner<'_, U> {
    /// Really compute the partition, and settle what the computation did to
    /// shared bookkeeping: eviction records, block residency, the dispatch
    /// overhead and coordination traffic every task pays.
    fn run_data_plane(&mut self, stage_id: StageId, part: usize, exec_idx: usize) -> TaskInput<U> {
        let mut env = TaskEnv::new(self.rt);
        env.net_ctx = self.st.net.task_ctx(exec_idx);
        let mut result = None;
        match &self.plan.stages[stage_id.0 as usize].kind {
            StageKind::ShuffleMap(dep) => {
                dep.writer.write_partition(part, &mut env);
                self.rt.shuffle.mark_map_done(dep.shuffle_id, part);
                // Residency bookkeeping for the network plane: the latest
                // writer of a map output is where a reduce fetches it from.
                self.rt
                    .shuffle
                    .record_map_exec(dep.shuffle_id, part, exec_idx);
            }
            StageKind::Result => {
                result = Some((self.result_fn)(part, &mut env));
            }
        }
        let mut metrics = env.metrics;
        let mut object_traffic = env.object_traffic;
        let evicted = self.rt.cache.take_evictions();
        // Always-on profiler records (like tasks/stages/jobs): the doctor's
        // eviction-churn series must exist inside the byte-identity domain,
        // unlike the opt-in event-bus mirror at the end of the launch.
        for ev in &evicted {
            self.st.profile.evictions.push(EvictionRecord {
                at: self.now,
                rdd: ev.key.0,
                partition: ev.key.1,
                bytes: ev.bytes,
                spilled: ev.spilled,
            });
        }
        // Lineage bookkeeping: remember which executor produced each newly
        // cached block, so a crash can drop exactly its blocks and delay
        // scheduling can prefer its node.
        for (key, _) in self.rt.cache.take_insertions() {
            self.st.block_owner.insert(key, exec_idx);
        }
        // Time plane: dispatch overhead and coordination traffic.
        metrics.cpu_ns += self.rt.cost.task_dispatch_ns;
        let n_exec = self.executors.len() as u64;
        if n_exec > 1 {
            let coord = self.rt.cost.coord_bytes_per_task * (n_exec - 1);
            let coord_batch = AccessBatch::sequential_write(coord);
            metrics.traffic += coord_batch;
            metrics.output_bytes += coord;
            *object_traffic.entry(ObjectId::Scratch).or_default() += coord_batch;
        }
        TaskInput {
            metrics,
            object_traffic,
            net_charges: env.net_charges,
            result,
            evicted,
        }
    }

    /// The map stage a fetch failure of `stage` would blame, with its task
    /// count: a shuffle parent that actually ran in this plan. Skippable
    /// parents stay in the plan (their stage entries carry the cached
    /// shuffle's metadata) but never launch tasks, so resubmitting one
    /// could never complete; their outputs are treated as durable.
    fn fetch_parent(&self, stage: StageId) -> Option<(StageId, usize)> {
        let stages = &self.plan.stages;
        stages[stage.0 as usize]
            .parents
            .iter()
            .map(|&p| (p, &stages[p.0 as usize]))
            .find(|(_, s)| matches!(s.kind, StageKind::ShuffleMap(_)) && !s.skippable)
            .map(|(p, s)| (p, s.num_tasks))
    }

    /// Dispatch one attempt of (stage, partition) onto a free slot of
    /// `exec_idx`. `spec_of` marks a speculative clone of the given
    /// original task: clones re-run the data plane (idempotently — shuffle
    /// bucket writes overwrite with identical bytes, cache puts replace)
    /// but never roll fault injection, since re-rolling the straggling
    /// original's coordinates would just straggle identically.
    pub(super) fn launch_task(
        &mut self,
        stage_id: StageId,
        part: usize,
        exec_idx: usize,
        spec_of: Option<u64>,
    ) {
        self.prof.count_event(EventClass::TaskDispatch);
        let cache_before = if self.st.events.is_active() {
            self.rt.cache.stats()
        } else {
            CacheStats::default()
        };
        let input = self.run_data_plane(stage_id, part, exec_idx);
        let metrics = input.metrics;

        // Pricing: the CPU phase, inflated by JVM contention.
        let co_running = self.executors[exec_idx].running;
        let factor = 1.0 + self.rt.cost.jvm_contention_alpha * co_running as f64;
        let mut cpu = SimTime::from_ns_f64(metrics.cpu_ns * factor);

        // Fate: decided up front from the attempt's coordinates.
        let attempt = self
            .recovery
            .attempts
            .get(&(stage_id.0, part))
            .copied()
            .unwrap_or(0);
        let mut fail = FailKind::None;
        if let (None, Some(plan)) = (spec_of, &self.st.faults.plan) {
            let fetch_parent = (metrics.shuffle_read_bytes > 0)
                .then(|| self.fetch_parent(stage_id))
                .flatten();
            let (straggle, fate) = plan.fate(self.job.job, (stage_id, part), attempt, fetch_parent);
            if let Some(slowdown) = straggle {
                cpu = cpu.mul_f64(slowdown);
            }
            fail = fate;
        }

        self.executors[exec_idx].running += 1;
        let task_id = self.next_task;
        self.next_task += 1;
        let flows = route_traffic(
            &input.object_traffic,
            &self.executors[exec_idx].spec,
            &self.st.engine,
            self.st.mem.topology(),
            task_id,
        );
        assert_eq!(
            flows.iter().map(|f| f.batch).sum::<AccessBatch>(),
            metrics.traffic,
            "per-object splits must partition the task's traffic"
        );
        let mut task = RunningTask {
            exec: exec_idx,
            stage: stage_id,
            partition: part,
            slot: co_running,
            started: self.now,
            cpu,
            cpu_factor: factor,
            pending: 0,
            metrics,
            flows,
            result: input.result,
            attempt,
            fail,
            speculative: spec_of.is_some(),
            transfers: Vec::new(),
            net_nominal: SimTime::ZERO,
        };
        self.start_flows(task_id, &mut task, &input.net_charges);
        let pure_timer = task.pending == 0;
        self.running.insert(task_id, task);
        if spec_of.is_some() {
            self.st.faults.stats.speculative_launched += 1;
        }
        if self.st.events.is_active() {
            self.emit_launch_events(task_id, spec_of, cache_before, &input.evicted);
        }
        if pure_timer {
            self.queue.schedule(self.now + cpu, Ev::CpuDone(task_id));
        }
    }

    /// Put the attempt's memory flows and cross-node transfers in flight,
    /// filling in `pending`, `transfers` and `net_nominal`.
    ///
    /// The task's memory demand is presented at its CPU-interleaved
    /// *average* rate: each tier's flow drains over (its share of the CPU
    /// time) + (its nominal memory time), so a compute-heavy task asks for
    /// few bytes/s even on a fast device. Tasks without traffic are pure
    /// timers. A task's stalls are serial: misses to different tiers
    /// interleave in one instruction stream, so the task's nominal duration
    /// is CPU plus the SUM of its per-tier memory times plus its nominal
    /// (uncontended) cross-node network time. Every flow and transfer spans
    /// that full duration (they all belong to the same task and drain
    /// together), which keeps mixed placements strictly between the pure
    /// tiers and lets concurrent tasks fair-share bandwidth over their
    /// overlap.
    fn start_flows(&mut self, task_id: u64, task: &mut RunningTask<U>, net_charges: &[NetCharge]) {
        let st = &mut *self.st;
        // Any attempt after the first is recovery work: its memory traffic
        // is lineage recompute, tallied per tier so reports can price
        // recovery by where the recomputed bytes landed.
        if task.attempt > 0 {
            for f in &task.flows {
                st.faults.stats.recompute_bytes[f.tier.index()] += f.batch.total_bytes();
            }
        }
        let total_mem: SimTime = task
            .flows
            .iter()
            .map(|f| st.mem.nominal_mem_time(f.tier, &f.batch))
            .sum();
        // Resolve the data plane's network charges against the topology.
        // Same-node transfers ride the loopback fast path (no link, no
        // time).
        let mut routes = Vec::new();
        if st.net.active() {
            for c in net_charges {
                let route = st.net.resolve(task.exec, c);
                if route.src == route.dst {
                    st.net.note_node_local(c.bytes);
                    continue;
                }
                let topo = st.net.topology().expect("active plane has a topology");
                task.net_nominal += topo.nominal_time(route.src, route.dst, route.bytes);
                routes.push(route);
            }
        }
        let secs = (task.cpu + total_mem + task.net_nominal)
            .as_secs_f64()
            .max(1e-12);
        for f in &mut task.flows {
            // Demand is in channel bytes: random accesses mostly leave the
            // channel idle while they wait on latency.
            let rate = st.mem.channel_demand(&f.batch).max(1.0) / secs;
            f.drained = !st
                .mem
                .begin_access_with_rate(self.now, f.tier, f.id, &f.batch, rate);
        }
        for route in routes {
            let rate = route.bytes as f64 / secs;
            let refetch = task.attempt > 0;
            let id = st.net.begin(
                self.now,
                &mut st.events,
                Some(task_id),
                route,
                rate,
                refetch,
            );
            task.transfers.push(id);
        }
        task.pending = task.flows.iter().filter(|f| !f.drained).count() + task.transfers.len();
    }

    /// The opt-in event-bus mirror of a launch: the speculation marker, the
    /// task start, and what the attempt's cache writes displaced.
    fn emit_launch_events(
        &mut self,
        task_id: u64,
        spec_of: Option<u64>,
        cache_before: CacheStats,
        evicted: &[EvictedBlock],
    ) {
        let task = &self.running[&task_id];
        let (job, stage, partition) = (self.job.job, task.stage.0, task.partition);
        let (executor, slot) = (task.exec, task.slot);
        if let Some(original) = spec_of {
            self.emit(|_| Event::SpeculativeLaunched {
                task_id,
                original,
                job,
                stage,
                partition,
            });
        }
        self.emit(|_| Event::TaskStarted {
            task_id,
            job,
            stage,
            partition,
            executor,
            slot,
        });
        let cache_after = self.rt.cache.stats();
        let evictions = cache_after.evictions - cache_before.evictions;
        let spills = cache_after.spills - cache_before.spills;
        if evictions > 0 || spills > 0 {
            self.emit(|_| Event::CacheEviction { evictions, spills });
        }
        for ev in evicted {
            // Under dynamic placement the freed bytes lived where the
            // engine last placed the RDD's blocks, not on the executor's
            // primary tier.
            self.emit(|r| Event::BlockEvicted {
                rdd: ev.key.0,
                partition: ev.key.1,
                bytes: ev.bytes,
                spilled: ev.spilled,
                tier: (r.st.engine)
                    .residency(ObjectId::CacheBlock { rdd: ev.key.0 })
                    .unwrap_or(r.executors[executor].spec.placement[0].0),
            });
        }
    }

    /// Decompose a finished task's span into named components, conserving
    /// it exactly (integer picoseconds).
    ///
    /// The CPU phase splits into shuffle-fetch processing (the fetch/scan
    /// costs [`TaskEnv`](crate::rdd::TaskEnv) charged, inflated by the same
    /// contention factor) and the compute remainder. The memory phase —
    /// everything past the CPU span, i.e. nominal stall time plus the
    /// task's share of bandwidth-contention stretch — is apportioned over
    /// the per-(tier, read/write) nominal stall times, with the integer
    /// rounding remainder absorbed by the largest component.
    pub(super) fn breakdown_for(&self, task: &RunningTask<U>, end: SimTime) -> TaskBreakdown {
        let span = end - task.started;
        let cpu = task.cpu.min(span);
        let shuffle_fetch =
            SimTime::from_ns_f64(task.metrics.shuffle_fetch_ns * task.cpu_factor).min(cpu);
        let mut b = TaskBreakdown {
            compute: cpu - shuffle_fetch,
            shuffle_fetch,
            ..TaskBreakdown::default()
        };
        let mem_actual = span - cpu;
        if mem_actual.is_zero() {
            return b;
        }
        // (kind, tier index, nominal ps) for every non-zero component:
        // kind 0 = tier read, 1 = tier write, 2 = network. The stall past
        // the CPU span — nominal time plus contention stretch — is
        // apportioned over all three proportionally.
        let mut parts: Vec<(u8, usize, u64)> = Vec::with_capacity(task.flows.len() * 2 + 1);
        for f in &task.flows {
            let (r, w) = self.st.mem.nominal_mem_time_rw(f.tier, &f.batch);
            if !r.is_zero() {
                parts.push((0, f.tier.index(), r.as_ps()));
            }
            if !w.is_zero() {
                parts.push((1, f.tier.index(), w.as_ps()));
            }
        }
        if !task.net_nominal.is_zero() {
            parts.push((2, 0, task.net_nominal.as_ps()));
        }
        let nominal_total: u64 = parts.iter().map(|&(_, _, ps)| ps).sum();
        if nominal_total == 0 {
            // No nominal stall to apportion against (flows were dropped or
            // rounding erased them): keep conservation by folding the
            // residual into compute.
            b.compute += mem_actual;
            return b;
        }
        let mut assigned = 0u64;
        let mut largest = 0usize;
        for (i, &(kind, tier, ps)) in parts.iter().enumerate() {
            // Widen to u128: ps values × mem_actual can exceed u64.
            let share = (ps as u128 * mem_actual.as_ps() as u128 / nominal_total as u128) as u64;
            assigned += share;
            let slot = match kind {
                0 => &mut b.mem_read[tier],
                1 => &mut b.mem_write[tier],
                _ => &mut b.net,
            };
            *slot += SimTime::from_ps(share);
            if ps > parts[largest].2 {
                largest = i;
            }
        }
        let (kind, tier, _) = parts[largest];
        let remainder = SimTime::from_ps(mem_actual.as_ps() - assigned);
        match kind {
            0 => b.mem_read[tier] += remainder,
            1 => b.mem_write[tier] += remainder,
            _ => b.net += remainder,
        }
        assert_eq!(b.total(), span, "task breakdown must conserve its span");
        b
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch() -> AccessBatch {
        AccessBatch::sequential(1_000_003, 499_999)
            + AccessBatch::random_reads(12_345)
            + AccessBatch::random_writes(6_789)
    }

    fn three_tiers() -> Vec<(TierId, f64)> {
        vec![
            (TierId::LOCAL_DRAM, 0.5),
            (TierId::NVM_NEAR, 0.3),
            (TierId::NVM_FAR, 0.2),
        ]
    }

    #[test]
    fn split_traffic_conserves_every_field() {
        let b = batch();
        let parts = split_traffic(&b, &three_tiers());
        assert_eq!(parts.len(), 3);
        let total: AccessBatch = parts.iter().map(|&(_, p)| p).sum();
        assert_eq!(total, b, "splitting must conserve the batch exactly");
        // Each share is roughly proportional (primary absorbs remainders).
        let near = parts
            .iter()
            .find(|&&(t, _)| t == TierId::NVM_NEAR)
            .expect("NVM_NEAR share missing from split")
            .1;
        let frac = near.total_bytes() as f64 / b.total_bytes() as f64;
        assert!((frac - 0.3).abs() < 0.01, "share off: {frac}");
    }

    #[test]
    fn single_tier_split_is_identity() {
        let b = batch();
        let parts = split_traffic(&b, &[(TierId::NVM_FAR, 1.0)]);
        assert_eq!(parts, vec![(TierId::NVM_FAR, b)]);
    }

    #[test]
    fn split_traffic_handles_tiny_batches() {
        // Rounding on a 1-access batch must not lose the access.
        let b = AccessBatch::random_reads(1);
        let parts = split_traffic(&b, &[(TierId::LOCAL_DRAM, 0.5), (TierId::NVM_NEAR, 0.5)]);
        let total: AccessBatch = parts.iter().map(|&(_, p)| p).sum();
        assert_eq!(total, b);
    }

    /// Under a static engine the flows are the split of the task total:
    /// tier order and batches of `split_traffic`, ids from the task and the
    /// slot, parts naming the object — on every tier split, down to a
    /// one-access batch whose secondary shares round to nothing. (That
    /// several objects still partition the total is asserted at every
    /// launch.)
    #[test]
    fn static_routing_is_the_split_of_the_task_total() {
        let engine = PlacementEngine::new_static();
        let topo = Topology::paper_testbed();
        let half = vec![(TierId::LOCAL_DRAM, 0.5), (TierId::NVM_NEAR, 0.5)];
        for placement in [vec![(TierId::NVM_FAR, 1.0)], half, three_tiers()] {
            let spec = ExecutorSpec {
                id: 0,
                socket: 0,
                cores: 1,
                primary_tier: placement[0].0,
                placement,
            };
            for total in [batch(), AccessBatch::random_reads(1)] {
                let traffic = BTreeMap::from([(ObjectId::Scratch, total)]);
                let flows = route_traffic(&traffic, &spec, &engine, &topo, 5);
                let want: Vec<TaskFlow> = split_traffic(&total, &spec.placement)
                    .into_iter()
                    .enumerate()
                    .filter(|(_, (_, b))| !b.is_empty())
                    .map(|(i, (tier, batch))| TaskFlow {
                        tier,
                        id: 5 << FLOW_SLOT_BITS | i as u64,
                        batch,
                        parts: vec![(ObjectId::Scratch, batch)],
                        drained: false,
                    })
                    .collect();
                assert_eq!(flows, want);
            }
        }
    }
}
