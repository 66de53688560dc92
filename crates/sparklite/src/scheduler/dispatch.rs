//! Dispatch: which waiting attempt takes which free slot next.
//!
//! Owns the ready queues, the executor rotation and delay scheduling's
//! wake-ups. Decides placements only — what an attempt costs is
//! [`launch`](super::launch)'s business, what happens when it ends is
//! [`recovery`](super::recovery)'s.

use crate::rdd::{Dep, RddBase};
use crate::scheduler::dag::StageId;
use crate::scheduler::sim::{Ev, JobRunner};
use crate::shuffle::ShuffleId;
use memtier_des::SimTime;
use memtier_netsim::Locality;
use std::collections::{HashSet, VecDeque};
use std::sync::Arc;

#[derive(Default)]
pub(super) struct Dispatcher {
    /// Attempts awaiting a slot, in submission order.
    pub(super) ready: VecDeque<(StageId, usize)>,
    /// Speculative clones awaiting a slot: (stage, partition, original).
    pub(super) spec_ready: VecDeque<(StageId, usize, u64)>,
    /// Where the executor rotation resumes.
    rr_exec: usize,
    /// Instants (in ps) with a LocalityRelax wake-up already queued, so a
    /// stalled dispatch round schedules each relax boundary only once.
    pub(super) relax_scheduled: HashSet<u64>,
}

/// Drop queue heads whose partition already completed (`done`): speculative
/// clones queued behind an original that finished first, retries obsoleted
/// by a rival attempt.
fn prune_completed<T>(queue: &mut VecDeque<T>, done: impl Fn(&T) -> bool) {
    while queue.front().is_some_and(&done) {
        queue.pop_front();
    }
}

impl<U> JobRunner<'_, U> {
    /// Live executors with a spare core, in rotation order.
    fn free_slots(&self) -> impl Iterator<Item = usize> + '_ {
        let n = self.executors.len();
        (0..n)
            .map(move |off| (self.dispatch.rr_exec + off) % n)
            .filter(|&i| {
                self.st.faults.alive[i] && self.executors[i].running < self.executors[i].spec.cores
            })
    }

    /// Launch waiting attempts until the queues or the free slots run out.
    pub(super) fn dispatch(&mut self) {
        // Delay scheduling only engages on a real multi-node topology: on a
        // single node (or under loopback) every placement is node-local, so
        // the round-robin path below runs unchanged and stays byte-identical
        // to pre-network-plane runs.
        let multi_node = self.st.net.topology().is_some_and(|t| t.nodes > 1);
        let delay = self.st.net.delay_wait().filter(|_| multi_node);
        loop {
            if self.recovery.fatal.is_some() {
                return;
            }
            let stages = &self.stages;
            prune_completed(&mut self.dispatch.ready, |&(s, p)| stages[s].completed[p]);
            prune_completed(&mut self.dispatch.spec_ready, |&(s, p, _)| {
                stages[s].completed[p]
            });
            let mut from_spec = self.dispatch.ready.is_empty();
            if from_spec && self.dispatch.spec_ready.is_empty() {
                return;
            }
            if let (Some(wait), false) = (delay, from_spec) {
                if self.dispatch_local(wait) {
                    continue;
                }
                if self.dispatch.spec_ready.is_empty() {
                    return;
                }
                // Every ready task is holding out for a better-placed slot;
                // let a waiting speculative clone use the idle capacity.
                from_spec = true;
            }
            let Some(exec_idx) = self.free_slots().next() else {
                return;
            };
            self.dispatch.rr_exec = (exec_idx + 1) % self.executors.len();
            if from_spec {
                let (stage_id, part, original) = self
                    .dispatch
                    .spec_ready
                    .pop_front()
                    .expect("checked non-empty");
                self.launch_task(stage_id, part, exec_idx, Some(original));
            } else {
                let (stage_id, part) = self.dispatch.ready.pop_front().expect("checked non-empty");
                self.launch_task(stage_id, part, exec_idx, None);
            }
        }
    }

    /// One locality-aware dispatch round (delay scheduling): scan the ready
    /// queue in order and launch the first task with an admissible
    /// placement. A task with preferred nodes may only take a slot whose
    /// locality level (node-local 0, rack-local 1, remote 2) is within the
    /// level its wait has unlocked — `(now - submitted) / wait` levels, in
    /// integer picoseconds. Tasks with no residency anywhere place exactly
    /// like the round-robin path. Returns true when a task launched; false
    /// when nothing is admissible right now (after queueing a
    /// [`Ev::LocalityRelax`] wake-up for the earliest unlock instant).
    fn dispatch_local(&mut self, wait: SimTime) -> bool {
        let free: Vec<usize> = self.free_slots().collect();
        if free.is_empty() {
            return false;
        }
        let topo = self.st.net.topology().expect("delay needs a topology");
        let wait_ps = wait.as_ps().max(1);
        let mut relax_at: Option<SimTime> = None;
        let mut chosen: Option<(usize, usize)> = None; // (queue index, executor)
        for (qi, &(stage, part)) in self.dispatch.ready.iter().enumerate() {
            if self.stages[stage].completed[part] {
                continue;
            }
            let prefs = self.preferred_nodes(stage, part);
            if prefs.is_empty() {
                // No residency anywhere: first free slot in rotation order,
                // exactly the executor round-robin would have picked.
                chosen = Some((qi, free[0]));
                break;
            }
            let submitted = self.stages[stage].submitted;
            let allowed = ((self.now - submitted).as_ps() / wait_ps).min(2);
            // Best locality among free executors; the first hit in rotation
            // order wins ties, keeping the choice deterministic.
            let (best_exec, best_rank) = free
                .iter()
                .map(|&e| {
                    let node = topo.node_of_executor(e);
                    let rank = prefs
                        .iter()
                        .map(|&p| locality_rank(topo.locality(node, p)))
                        .min()
                        .expect("non-empty preference list");
                    (e, rank)
                })
                .min_by_key(|&(_, rank)| rank)
                .expect("non-empty free list");
            if best_rank <= allowed {
                chosen = Some((qi, best_exec));
                break;
            }
            // Not admissible yet: note when its next level unlocks.
            let next = submitted + SimTime::from_ps(wait_ps.saturating_mul(allowed + 1));
            relax_at = Some(relax_at.map_or(next, |r| r.min(next)));
        }
        match chosen {
            Some((qi, exec_idx)) => {
                let (stage, part) = self
                    .dispatch
                    .ready
                    .remove(qi)
                    .expect("indexed task vanished");
                self.dispatch.rr_exec = (exec_idx + 1) % self.executors.len();
                self.launch_task(stage, part, exec_idx, None);
                true
            }
            None => {
                if let Some(at) = relax_at {
                    if self.dispatch.relax_scheduled.insert(at.as_ps()) {
                        self.queue.schedule(at, Ev::LocalityRelax);
                    }
                }
                false
            }
        }
    }

    /// Preferred topology nodes for (stage, partition), in priority order: a
    /// cached block along the task's narrow lineage (the node of the
    /// executor that produced it), else the map executor contributing the
    /// most shuffle bytes to this reduce, else the datanodes holding the
    /// partition's DFS input blocks. The narrow walk assumes partition
    /// indices line up parent-to-child, which holds for the one-to-one
    /// narrow ops; unions and coalesces only weaken the hint, never
    /// correctness. Empty when the plane is off or nothing is resident.
    fn preferred_nodes(&self, stage: StageId, part: usize) -> Vec<u32> {
        let Some(topo) = self.st.net.topology() else {
            return Vec::new();
        };
        let mut shuffles: Vec<ShuffleId> = Vec::new();
        let mut replicas: Vec<u32> = Vec::new();
        let mut stack: Vec<Arc<dyn RddBase>> =
            vec![Arc::clone(&self.plan.stages[stage.0 as usize].terminal)];
        let mut seen: HashSet<u32> = HashSet::new();
        while let Some(node) = stack.pop() {
            if !seen.insert(node.id().0) {
                continue;
            }
            if node.storage_level().is_cached() {
                if let Some(&exec) = self.st.block_owner.get(&(node.id().0, part)) {
                    return vec![topo.node_of_executor(exec)];
                }
            }
            for r in node.preferred_replicas(part) {
                replicas.push(topo.node_of_datanode(r));
            }
            for dep in node.deps() {
                match dep {
                    Dep::Narrow(p) => stack.push(p),
                    Dep::Shuffle(d) => shuffles.push(d.shuffle_id),
                }
            }
        }
        let mut best: Option<(u64, usize)> = None;
        for sid in shuffles {
            for (exec, bytes) in self.rt.shuffle.reduce_sources(sid, part) {
                if bytes == 0 {
                    continue;
                }
                let better = match best {
                    Some((bb, be)) => bytes > bb || (bytes == bb && exec < be),
                    None => true,
                };
                if better {
                    best = Some((bytes, exec));
                }
            }
        }
        if let Some((_, exec)) = best {
            return vec![topo.node_of_executor(exec)];
        }
        replicas.sort_unstable();
        replicas.dedup();
        replicas
    }
}

/// Delay scheduling's level ordering: lower is better.
fn locality_rank(l: Locality) -> u64 {
    match l {
        Locality::NodeLocal => 0,
        Locality::RackLocal => 1,
        Locality::Remote => 2,
    }
}
